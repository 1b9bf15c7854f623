"""Public one-call API: ``ProcessingOptions`` + ``process_pages``.

The §2.8 extension-surface analog of the reference's
``DocumentProcessor`` / ``ProcessingOptions``
(``/root/reference/docvision/pipeline/orchestrator.py:40-65``,
``docvision/__init__.py:18-41``): stage toggles select which pipelines
run, each toggle adding one lazily-built ``ray.data.Dataset`` to the
result — nothing executes until a dataset is consumed, so disabled
stages cost nothing and enabled ones stream independently.

    from horizon_ocr_python_ray import ProcessingOptions, process_pages, read_pages
    out = process_pages(read_pages(path), ProcessingOptions(run_tables=True))
    out["extract"].write_parquet(...)
    out["tables"].write_parquet(...)
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CONFIG, ExtractConfig


@dataclass(frozen=True)
class ProcessingOptions:
    """Stage toggles (reference ``ProcessingOptions`` booleans)."""

    run_extract: bool = True
    run_fields: bool = False
    run_validation: bool = False  # implies the fields stage
    run_tables: bool = False
    run_styles: bool = False
    run_reconstruction: bool = False
    run_markdown: bool = False
    run_redact: bool = False


def process_pages(pages_ds, options: ProcessingOptions | None = None,
                  cfg: ExtractConfig | None = None) -> dict:
    """pages dataset → {stage name: lazy Dataset} for every enabled stage."""
    from .pipelines.extract import build_extract_pipeline

    options = options or ProcessingOptions()
    cfg = cfg or DEFAULT_CONFIG
    out: dict = {}
    extraction = None
    if (options.run_extract or options.run_fields or options.run_markdown
            or options.run_validation or options.run_redact):
        extraction = build_extract_pipeline(pages_ds, cfg)
    if options.run_extract:
        out["extract"] = extraction
    if options.run_fields or options.run_validation:
        from .stages.fields_stage import build_fields_pipeline

        fields = build_fields_pipeline(extraction, cfg)
        if options.run_fields:
            out["fields"] = fields
        if options.run_validation:
            from .stages.validation_stage import build_validation_pipeline

            out["validation"] = build_validation_pipeline(fields)
    if options.run_markdown:
        from .functions.markdown import markdown_batch

        out["markdown"] = extraction.map_batches(markdown_batch, batch_format="pyarrow")
    if options.run_redact:
        from .functions.redact import redact_batch

        out["redact"] = extraction.map_batches(redact_batch, batch_format="pyarrow")
    if options.run_tables:
        from .stages.tables_stage import build_tables_pipeline

        out["tables"] = build_tables_pipeline(pages_ds, cfg)
    if options.run_styles:
        from .stages.style_stage import build_styles_pipeline

        out["styles"] = build_styles_pipeline(pages_ds, cfg)
    if options.run_reconstruction:
        from .stages.reconstruct_stage import build_reconstruction_pipeline

        out["reconstruction"] = build_reconstruction_pipeline(pages_ds, cfg)
    return out
