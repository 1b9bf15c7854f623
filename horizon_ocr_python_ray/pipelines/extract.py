"""Flagship pipeline: Common-Crawl-style pages → extracted main content.

Ray-native lifecycle (SURVEY.md §3, "Ray-native restatement"), one
fused streaming pass with no shuffle:

    read_parquet(pages)                       # url, warc_ts, html, text, lang
      → map_batches(sniff_batch)              # route + content_hash columns
      → map_batches(extract_batch_task)       # route-dispatched extraction,
                                              # per-worker content-hash memo
      → select_columns(RESULT_COLS)
      → write_parquet / downstream stages
"""

from __future__ import annotations

import os

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..stages.dedup import RESULT_COLS
from ..stages.extract_stage import add_extract_stage
from ..stages.route import add_sniff_stage


def read_pages(source: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a pages table. ``source`` is a parquet file/dir (the synthetic
    corpus keeps its pages under ``<dir>/pages``).

    Large inputs are split into ~2k-row blocks, capped at 16 blocks per
    CPU: the extract UDF's per-task wall time varies ~3× with the route
    mix of a block (binary doc payloads vs cheap html rows), and at the
    default ~8k-row blocks that spread costs ~13% of the 32-CPU wall in
    straggler tail (measured at sf4 in BASELINE.md). Small inputs
    (fewer than ~2 blocks per CPU at that sizing) keep Ray's defaults."""
    path = source
    sub = os.path.join(source, "pages")
    if os.path.isdir(sub):
        path = sub
    num_blocks = None
    try:
        import pyarrow.dataset as pads

        rows = pads.dataset(path).count_rows()  # parquet metadata only
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        if rows // 2000 >= cpus * 2:
            num_blocks = min(16 * cpus, rows // 2000)
    except Exception:
        num_blocks = None
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=num_blocks)


def build_extract_pipeline(
    pages: ray.data.Dataset,
    cfg: ExtractConfig | None = None,
    dedup: bool | None = None,
) -> ray.data.Dataset:
    """pages dataset → extraction results
    (url, warc_ts, lang, route, content_hash, extracted_text, spans, error).

    Duplicate payloads are extracted once per worker by the extraction
    stage's content-hash memo; the output does not depend on it.
    """
    # ``dedup`` is accepted and ignored: perfbench/engine.py:_resume_job
    # still passes it.
    cfg = cfg or DEFAULT_CONFIG
    ds = add_sniff_stage(pages)
    ds = add_extract_stage(ds, cfg)
    return ds.select_columns(RESULT_COLS)
