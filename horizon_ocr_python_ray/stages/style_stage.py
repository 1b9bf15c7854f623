"""Style-extraction pipeline: pages → per-line style rows (long format).

The A15/M27–M28 analog (``/root/reference/docvision/extract/
pdf_style_extractor.py``): digital documents report their NATIVE span
styles (font/size/bold from the text layer, confidence 1.0); scanned
documents get bbox-estimated styles (size ≈ height × 0.75, ALL-CAPS /
role bold heuristic, confidence ladder ≤ 0.8). One row per line, in the
same order the extraction pipeline emits text (native order for digital,
reading order for scanned).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
# decode_*_payload and recognize_page are unused here, but
# perfbench/replay.py:_targets patches those names on this module.
from ..functions.docformat import decode_doc_payload, decode_image_payload  # noqa: F401
from ..functions.extract_core import is_digital, page_lines
from ..functions.layout import recognize_page  # noqa: F401
from ..functions.style import estimate_style, native_style
from .route import add_heavy_stage, heavy_head_batch

STYLES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("page", pa.int64()),
    ("line_idx", pa.int64()),
    ("kind", pa.string()),
    ("text_len", pa.int64()),
    ("font_name", pa.string()),
    ("font_size", pa.float64()),
    ("bold", pa.bool_()),
    ("italic", pa.bool_()),
    ("style_source", pa.string()),
    ("style_confidence", pa.float64()),
])


def doc_styles(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict]:
    """One style row per line of a decoded document, on the lines the
    extraction pipeline emits (``extract_core.page_lines``)."""
    digital = is_digital(route, pages)
    rows: list[dict] = []
    for p in pages:
        for idx, li in enumerate(page_lines(p, digital, cfg)):
            st = (native_style(li["native"]) if digital
                  else estimate_style(li["text"], li["bbox"], role=li["kind"]))
            rows.append({"page": int(p["page"]), "line_idx": idx, "kind": li["kind"],
                         "text_len": len(li["text"]), **st})
    return rows


def style_rows(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict]:
    rows = doc_styles(route, pages, cfg)
    for r in rows:
        r["style_source"], r["style_confidence"] = r["source"], r["confidence"]
    return rows


def styles_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return heavy_head_batch(batch, STYLES_SCHEMA, style_rows, cfg)


def build_styles_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    """pages dataset → long-format per-line style table."""
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds).map_batches(
        styles_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow", batch_size=256,
    )


def worst_styles_topk(styles_ds, k: int = 50):
    """Global worst-``k`` lines by style confidence — the corpus-wide
    variant of the reference's worst-first re-processing queue
    (``ocr/targeted_reocr.py:150-178`` sorts ascending and takes the
    worst K per page; K3's global form per SURVEY.md §2.6).

    Never a full sort: ``collect.top_k`` trims each block to its k worst
    rows and merges them on the driver. Total tie-break (confidence,
    url, page, line_idx) keeps the result deterministic under any
    sharding. Returns a pandas DataFrame with a 1-based ``rank``.
    """
    from ..functions.collect import top_k

    cols = ["url", "page", "line_idx", "kind", "style_confidence"]
    order = [(c, "ascending") for c in ("style_confidence", "url", "page", "line_idx")]
    return top_k(styles_ds.select_columns(cols), order, k, None).to_pandas()
