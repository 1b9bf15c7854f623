"""Debug-artifact pipeline: pages → overlay draw-records and per-page
SVG artifacts — the S8/S11 debug sinks (``save_image`` ``io/image.py:
222-241``, ``ArtifactManager`` ``io/artifacts.py:81-610``) re-expressed
Ray-Data-first.

Where the reference draws cv2 overlays onto rasterized pages and writes
PNGs per document directory, this stage emits the same semantic content
as data: one record per drawn shape (layer, bbox, color, label — see
``functions/overlay.py`` for the layer map), plus a deterministic SVG
rendering per page (the saved-image analog, content-hashed). Both are
plain Datasets: zero shuffles, payloads consumed in-stage, sink is
partitioned ``write_parquet`` behind a flag — never in the hot path,
exactly the survey's S11 disposition.

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

import hashlib
from typing import Any

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.extract_core import is_digital, page_lines
from ..functions.overlay import (
    line_overlay_records,
    render_page_svg,
    table_overlay_records,
)
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

ARTIFACT_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("page", pa.int64()),
    ("artifact", pa.binary()),
    ("sha256", pa.string()),
    ("n_records", pa.int64()),
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


def artifact_rows(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict[str, Any]]:
    """One SVG per page that has overlay records, sized by that page's dims."""
    by_page: dict[int, list[dict]] = {}
    for r in overlay_records(route, pages, cfg):
        by_page.setdefault(r["page"], []).append(r)
    dims = {int(p["page"]): (float(p.get("w") or 0), float(p.get("h") or 0)) for p in pages}
    rows = []
    for page_no in sorted(by_page):
        w, h = dims.get(page_no, (0.0, 0.0))
        svg = render_page_svg(by_page[page_no], w, h).encode("utf-8")
        rows.append({"page": page_no, "artifact": svg,
                     "sha256": hashlib.sha256(svg).hexdigest(),
                     "n_records": len(by_page[page_no])})
    return rows


def overlay_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return heavy_head_batch(batch, OVERLAY_SCHEMA, overlay_records, cfg)


def artifact_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    """Per-page SVG artifacts — the save_image analog. Rendering happens
    inside the same task that decoded the payload: no shuffle, and the
    (large) SVG bytes go straight to the sink."""
    return heavy_head_batch(batch, ARTIFACT_SCHEMA, artifact_rows, cfg)


def build_overlay_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    """pages dataset → long-format overlay draw-records (OVERLAY_SCHEMA)."""
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds, cfg).map_batches(
        overlay_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow", batch_size=256,
    )


def build_artifact_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    """pages dataset → per-page SVG artifacts (ARTIFACT_SCHEMA)."""
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds, cfg).map_batches(
        artifact_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow",
        # SVG rows are wide (KBs of markup per page) — keep batches small
        # so batch × concurrency stays well inside worker heaps at scale.
        batch_size=128,
    )


def write_artifacts(pages_ds, out_dir: str, cfg: ExtractConfig | None = None) -> None:
    """The flag-gated debug sink: distributed partitioned Parquet of
    per-page SVGs (many files — resumable, never one giant file; the
    reference's per-document artifact directories, ``artifacts.py:
    126-145``, become Parquet partitions)."""
    build_artifact_pipeline(pages_ds, cfg).write_parquet(out_dir)
