"""Debug-overlay pipeline: pages → overlay draw-records — the S11
debug sink (``ArtifactManager`` ``io/artifacts.py:81-610``) re-expressed
Ray-Data-first.

Where the reference draws cv2 overlays onto rasterized pages and writes
PNGs per document directory, this stage emits the same semantic content
as data: one record per drawn shape (layer, bbox, color, label — see
``functions/overlay.py`` for the layer map). The output is a plain
Dataset: zero shuffles, payloads consumed in-stage, never in the hot
path, exactly the survey's S11 disposition.

Overlay ``layout``/``ocr`` records follow the extraction pipeline's
*exact* line production (``functions/extract_core.py:page_lines`` —
native fast path for digital docs, detect + recognize + targeted re-pass
for scanned), so the per-url line ordinal aligns 1:1 with the golden
span ordinal and the DuckDB oracle can verify every rect's kind, color,
label and text against the golden fixtures. ``table`` records come from
the tables pipeline's own ``tables_stage.page_tables`` over the same
decoded pages — zero drift from the oracled tables pipeline.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.extract_core import is_digital, page_lines
from ..functions.overlay import line_overlay_records, table_overlay_records
from .route import add_heavy_stage, heavy_head_batch
from .tables_stage import page_tables

OVERLAY_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("page", pa.int64()),
    ("layer", pa.string()),
    ("kind", pa.string()),
    ("idx", pa.int64()),
    ("color", pa.string()),
    ("label", pa.string()),
    ("line_text", pa.string()),
    ("confidence", pa.float64()),
    ("x1", pa.float64()), ("y1", pa.float64()),
    ("x2", pa.float64()), ("y2", pa.float64()),
])


def overlay_records(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict[str, Any]]:
    """All overlay records of one decoded heavy-route document."""
    digital = is_digital(route, pages)
    records: list[dict[str, Any]] = []
    idx = 0
    for p in pages:
        recs, idx = line_overlay_records(int(p["page"]), page_lines(p, digital, cfg), idx)
        records.extend(recs)
    for page_no, tables in page_tables(pages, cfg):
        records.extend(table_overlay_records(page_no, tables))
    return records


def overlay_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return heavy_head_batch(batch, OVERLAY_SCHEMA, overlay_records, cfg)


def build_overlay_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    """pages dataset → long-format overlay draw-records (OVERLAY_SCHEMA)."""
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds).map_batches(
        overlay_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow", batch_size=256,
    )
