"""Table extraction pipeline: pages → per-page detected tables (long
format, one row per table).

The heavy-route analog of the reference's third detector (A3,
``/root/reference/docvision/detect/table_tatr.py``): binary doc/image
payloads are decoded and recognized (same kernels as the extraction
pipeline — reading order, targeted re-pass), then grid-aligned line
groups become table structures with cells, accessors and markdown
rendering (``functions/tables.py``).

Runs as a stateless task-based ``map_batches`` (``route.add_heavy_stage``).
The payload column is consumed here and never travels further.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
# Unused here, but perfbench/replay.py:_targets patches these names on this module.
from ..functions.docformat import decode_doc_payload, decode_image_payload  # noqa: F401
from ..functions.layout import recognize_page
from ..functions.tables import cells_fingerprint, detect_tables, table_to_markdown
from .route import add_heavy_stage, heavy_head_batch

CELL_TYPE = pa.list_(pa.struct([
    ("row", pa.int32()), ("col", pa.int32()), ("text", pa.string()),
]))

TABLES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("page", pa.int64()),
    ("table_idx", pa.int64()),
    ("n_rows", pa.int64()),
    ("n_cols", pa.int64()),
    ("n_cells", pa.int64()),
    ("cells_md5", pa.string()),
    ("cells", CELL_TYPE),
    ("markdown", pa.string()),
])


def page_tables(pages: list[dict], cfg: ExtractConfig) -> list[tuple[int, list[dict]]]:
    """Recognize each decoded page, detect its tables. Returns
    [(page_no, tables)] — page-local, so each page's tables do not
    depend on the rest of its document."""
    out = []
    for p in pages:
        recognized = recognize_page(p["lines"], cfg.doc)
        out.append((int(p["page"]),
                    detect_tables(recognized, float(p["w"]), float(p["h"]), cfg.tables)))
    return out


def table_rows(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict]:
    return [
        {"page": page_no, "table_idx": t["table_idx"], "n_rows": t["n_rows"],
         "n_cols": t["n_cols"], "n_cells": len(t["cells"]),
         "cells_md5": cells_fingerprint(t),
         "cells": [{"row": c["row"], "col": c["col"], "text": c["text"]}
                   for c in t["cells"]],
         "markdown": table_to_markdown(t)}
        for page_no, tables in page_tables(pages, cfg)
        for t in tables
    ]


def tables_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return heavy_head_batch(batch, TABLES_SCHEMA, table_rows, cfg)


def build_tables_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    """pages dataset → long-format tables table (TABLES_SCHEMA)."""
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds).map_batches(
        tables_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow", batch_size=256,
    )
