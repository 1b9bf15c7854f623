"""Table structure extraction: grid assembly from aligned text lines,
over-detection filters, a row accessor, markdown rendering.

Re-expresses the reference's table subsystem as pure kernels:

- grid build from text alignment — the TATR fallback clusters line boxes
  by x-position and stacks consecutive rows with the same column anchors
  (``/root/reference/docvision/detect/table_tatr.py:334-453``; row/col
  ordering ``:468-469``);
- over-detection filters — drop "tables" covering >80% of the page, or
  >100 cells at >50% coverage (``table_tatr.py:107-133``);
- the row accessor ``get_row_texts`` (``types.py:185-198``);
- markdown table rendering (``io/markdown.py:120-230``).

A detected table is a plain dict::

    {"table_idx", "n_rows", "n_cols", "bbox": [x1,y1,x2,y2],
     "cells": [{"row", "col", "text", "bbox", "confidence"}, ...]}  # row-major

Everything is deterministic: rows order top→bottom, columns left→right,
cells row-major.
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..config import READING_ORDER_VERTICAL_OVERLAP, TableConfig
from .layout import reading_order_rows


def detect_tables(
    lines: list[dict[str, Any]],
    page_w: float,
    page_h: float,
    cfg: TableConfig | None = None,
) -> list[dict[str, Any]]:
    """Detect grid-aligned tables among a page's text lines.

    A table is a maximal run of ≥ ``min_rows`` consecutive reading-order
    rows whose cells share the same ≥ ``min_cols`` quantized column
    anchors (the row's column signature: each cell's ``x1 / tol``,
    rounded). Cell text is the line's recognized text. Over-detected
    grids are dropped per the reference filters.
    """
    cfg = cfg or TableConfig()
    rows = reading_order_rows([ln["bbox"] for ln in lines], READING_ORDER_VERTICAL_OVERLAP)
    tol = max(cfg.x_tolerance, 1e-9)
    sigs = [tuple([round(x1 / tol) for x1, _i in row]) for row in rows]
    tables: list[dict[str, Any]] = []
    i = 0
    while i < len(rows):
        sig = sigs[i]
        if len(sig) < cfg.min_cols or len(set(sig)) != len(sig):
            i += 1
            continue
        j = i + 1
        while j < len(rows) and sigs[j] == sig:
            j += 1
        if j - i >= cfg.min_rows:
            tables.append(_assemble_table(lines, rows[i:j]))
        i = j if j > i + 1 else i + 1
    tables = [t for t in tables if _passes_filters(t, page_w, page_h, cfg)]
    for idx, t in enumerate(tables):
        t["table_idx"] = idx
    return tables


def _assemble_table(lines: list[dict], grid_rows: list[list[tuple[float, int]]]) -> dict[str, Any]:
    """One table dict from its reading-order rows. The bbox is the
    cells' union, compared as ``min``/``max`` would (first wins)."""
    cells = []
    x1 = y1 = float("inf")
    x2 = y2 = float("-inf")
    for r, row in enumerate(grid_rows):
        for c, (_x1, li) in enumerate(row):
            line = lines[li]
            b = line["bbox"]
            cells.append({"row": r, "col": c, "text": line["text"], "bbox": list(b),
                          "confidence": line.get("confidence", 1.0)})
            if b[0] < x1:
                x1 = b[0]
            if b[1] < y1:
                y1 = b[1]
            if b[2] > x2:
                x2 = b[2]
            if b[3] > y2:
                y2 = b[3]
    return {
        "table_idx": 0,
        "n_rows": len(grid_rows),
        "n_cols": len(grid_rows[0]),
        "bbox": [x1, y1, x2, y2],
        "cells": cells,
    }


def _passes_filters(table: dict, page_w: float, page_h: float, cfg: TableConfig) -> bool:
    """Over-detection filters (reference ``table_tatr.py:107-133``)."""
    x1, y1, x2, y2 = table["bbox"]
    page_area = max(page_w * page_h, 1e-9)
    coverage = max(0.0, (x2 - x1)) * max(0.0, (y2 - y1)) / page_area
    if coverage > cfg.max_page_coverage:
        return False
    n_cells = len(table["cells"])
    if n_cells > cfg.max_cells and coverage > cfg.max_cells_coverage:
        return False
    return True


# -- accessors (reference types.py:185-198) ----------------------------------

def get_row_texts(table: dict, row: int) -> list[str]:
    return [c["text"] for c in sorted(
        (c for c in table["cells"] if c["row"] == row), key=lambda c: c["col"])]


# -- rendering (reference io/markdown.py:120-230) ----------------------------

def table_to_markdown(table: dict) -> str:
    """GitHub-style markdown table; first grid row is the header."""

    def esc(s: str) -> str:
        return (s or "").replace("|", "\\|")

    out = []
    header = get_row_texts(table, 0)
    out.append("| " + " | ".join(esc(t) for t in header) + " |")
    out.append("|" + "|".join(" --- " for _ in header) + "|")
    for r in range(1, table["n_rows"]):
        out.append("| " + " | ".join(esc(t) for t in get_row_texts(table, r)) + " |")
    return "\n".join(out)


def cells_fingerprint(table: dict) -> str:
    """md5 over the row-major cell texts — the cheap grid identity used
    by the driver query / DuckDB oracle."""
    texts = [c["text"] for c in sorted(table["cells"], key=lambda c: (c["row"], c["col"]))]
    return hashlib.md5("|".join(texts).encode("utf-8")).hexdigest()
