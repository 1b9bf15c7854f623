"""horizon_ocr_python_ray — a Ray-Data-native main-content extraction engine.

A from-scratch reimplementation of the extraction capabilities of the
reference repo (ankitan-ai/horizon-OCR-python, surveyed in SURVEY.md) as
streaming ``ray.data.Dataset`` pipelines over Common-Crawl-style Parquet
page tables: content-sniffing router, DOM-heuristic fast path for HTML,
actor-pool heavy path for binary document payloads, exact dedup by content
hash, field fuse + validate, and checkpointed resumable output.

Public API::

    from horizon_ocr_python_ray import build_extract_pipeline, ExtractConfig, read_pages
    out = build_extract_pipeline(read_pages(path), ExtractConfig())
    out.write_parquet(...)

This package never calls ``ray.init`` — the caller owns the session.
"""

import logging as _logging


class _EmptySchemaDivergenceFilter(_logging.Filter):
    """Drop Ray's per-query "RefBundle with a different schema …
    new schema: ." warning for the EMPTY-new-schema case only.

    Low-cardinality ``groupby().aggregate()`` plans route most shuffle
    partitions to zero rows; Ray's sort-aggregate emits those as blocks
    with an EMPTY schema, and the streaming executor logs a
    schema-divergence warning for each such bundle (once per operator).
    The empty bundles are benign — downstream batchers skip zero-row
    blocks — but the warning buries real schema divergences, which this
    filter deliberately leaves visible (any message with a non-empty new
    schema passes through)."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        return not ("RefBundle with a different schema" in msg
                    and "new schema: . This may" in msg)


_logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
).addFilter(_EmptySchemaDivergenceFilter())


from .config import (
    DEFAULT_CONFIG,
    DedupConfig,
    DocConfig,
    ExtractConfig,
    FuseConfig,
    HtmlConfig,
    config_from_dict,
    load_config,
)
from .pipelines.extract import build_extract_pipeline, read_pages
from .sources.synth import ensure_corpus, gen_corpus, sf_from_dir, sf_to_rows
from .sources.warc import read_warc, read_wet, write_warc, write_wet

__all__ = [
    "DEFAULT_CONFIG",
    "DedupConfig",
    "DocConfig",
    "ExtractConfig",
    "FuseConfig",
    "HtmlConfig",
    "build_extract_pipeline",
    "build_fields_pipeline",
    "config_from_dict",
    "load_config",
    "ensure_corpus",
    "gen_corpus",
    "job_metrics",
    "ProcessingOptions",
    "process_pages",
    "read_pages",
    "read_warc",
    "read_wet",
    "write_warc",
    "write_wet",
    "run_partitioned",
    "sf_from_dir",
    "sf_to_rows",
]


def __getattr__(name):  # lazy re-exports (avoid importing ray.data at package import)
    if name == "build_fields_pipeline":
        from .stages.fields_stage import build_fields_pipeline

        return build_fields_pipeline
    if name in ("ProcessingOptions", "process_pages"):
        from . import api

        return getattr(api, name)
    if name == "job_metrics":
        from .stages.metrics import job_metrics

        return job_metrics
    if name == "run_partitioned":
        from .state.checkpoint import run_partitioned

        return run_partitioned
    raise AttributeError(name)
