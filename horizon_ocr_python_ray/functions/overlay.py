"""Debug-artifact overlay records (the S11 analog).

Re-expresses the reference's ``ArtifactManager`` debug sinks
(``/root/reference/docvision/io/artifacts.py:81-610``) as *data*, not
pixels: each overlay PNG the reference draws with cv2 becomes a stream
of structured draw-records (layer, bbox, color, label) that can be
verified cell-for-cell against the golden fixtures by the DuckDB oracle.

Layer map (reference method → layer string):

- ``save_layout_overlay``   (artifacts.py:175-256) → ``layout``: one
  rect per line/region, color = :data:`LAYOUT_COLORS_HEX` by region
  kind, label = the kind name.
- ``save_ocr_overlay``      (artifacts.py:392-466) → ``ocr``: one rect
  per recognized line, color = red→yellow→green confidence ramp
  (:func:`confidence_to_hex`, mirroring ``confidence_to_color``
  artifacts.py:46-68), label = ``text[:50] + "..."`` + `` (conf)`` as
  the reference formats it.
- ``save_table_structure_overlay`` (artifacts.py:309-390) → ``table``:
  one rect per cell; header row ``#ffff00`` / body ``#00c800`` (the
  reference's BGR ``(0,255,255)`` / ``(0,200,0)`` at :364).

Colors are the reference's BGR tuples converted to ``#rrggbb`` hex
(artifacts.py:29-44); repo region kinds map onto the reference's
region-type rows (header/footer/page_number/title/table/text), with
``line`` (no page dims) sharing UNKNOWN's gray.
"""

from __future__ import annotations

from typing import Any

# Reference LAYOUT_COLORS (artifacts.py:29-44), BGR → hex RGB, keyed by
# the repo's line-region kinds (functions/regions.py).
LAYOUT_COLORS_HEX = {
    "header": "#6464ff",       # BGR (255,100,100)
    "footer": "#ff6464",       # BGR (100,100,255)
    "text": "#64ff64",         # BGR (100,255,100)
    "table": "#64ffff",        # BGR (255,255,100)
    "title": "#64c8c8",        # BGR (200,200,100)
    "page_number": "#969696",  # BGR (150,150,150)
    "line": "#808080",         # UNKNOWN gray (128,128,128)
    # repo-assigned colors for the text-pattern roles (the reference's
    # class list has list/caption; its color map doesn't, so these two
    # values are this engine's choice, mirrored in the overlay oracle)
    "list_item": "#c8ff64",
    "caption": "#ff64c8",
}
UNKNOWN_COLOR_HEX = "#808080"

TABLE_HEADER_COLOR_HEX = "#ffff00"  # BGR (0,255,255), artifacts.py:364
TABLE_BODY_COLOR_HEX = "#00c800"    # BGR (0,200,0)

OCR_LABEL_MAX_CHARS = 50  # artifacts.py:436


def layout_color(kind: str) -> str:
    return LAYOUT_COLORS_HEX.get(kind, UNKNOWN_COLOR_HEX)


def confidence_to_hex(confidence: float) -> str:
    """Red (low) → yellow (0.5) → green (high), the reference ramp
    (artifacts.py:46-68) as hex RGB."""
    c = min(max(confidence, 0.0), 1.0)
    if c < 0.5:
        r, g = 255, int(255 * (c / 0.5))
    else:
        r, g = int(255 * ((1.0 - c) / 0.5)), 255
    return f"#{r:02x}{g:02x}00"


def ocr_label(text: str, confidence: float) -> str:
    """Reference OCR overlay label: truncated text + 2-decimal
    confidence (artifacts.py:435-437)."""
    t = text[:OCR_LABEL_MAX_CHARS] + "..." if len(text) > OCR_LABEL_MAX_CHARS else text
    return f"{t} ({confidence:.2f})"


def line_overlay_records(
    page_no: int,
    lines: list[dict[str, Any]],
    start_idx: int = 0,
) -> tuple[list[dict[str, Any]], int]:
    """``layout`` + ``ocr`` records for one page's recognized lines, in
    reading order. ``idx`` is the flat per-url line ordinal continued
    from ``start_idx`` so it aligns 1:1 with the extraction pipeline's
    span ordinals (same lines, same order — alignment by construction).

    Returns (records, next_start_idx)."""
    records: list[dict[str, Any]] = []
    idx = start_idx
    for li in lines:
        bbox = li["bbox"]
        kind = li.get("kind", "line")
        conf = float(li.get("confidence", 1.0))
        base = {
            "page": page_no, "idx": idx,
            "x1": float(bbox[0]), "y1": float(bbox[1]),
            "x2": float(bbox[2]), "y2": float(bbox[3]),
            "line_text": li["text"], "confidence": conf,
        }
        records.append({**base, "layer": "layout", "kind": kind,
                        "color": layout_color(kind), "label": kind})
        records.append({**base, "layer": "ocr", "kind": kind,
                        "color": confidence_to_hex(conf),
                        "label": ocr_label(li["text"], conf)})
        idx += 1
    return records, idx


def table_overlay_records(
    page_no: int, tables: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """``table`` records: one rect per cell, row-major; header row
    yellow, body green (artifacts.py:360-390). ``idx`` is the row-major
    cell ordinal within the table; ``kind`` carries ``table_idx`` so
    (url, page, kind, idx) is a unique cell key."""
    records: list[dict[str, Any]] = []
    for t in tables:
        # row-major cell ordinal == cells list order (tables.py:_assemble_table)
        for c_ord, cell in enumerate(t["cells"]):
            b = cell["bbox"]
            header = cell["row"] == 0
            records.append({
                "page": page_no, "idx": c_ord,
                "layer": "table", "kind": f"t{t['table_idx']}",
                "color": TABLE_HEADER_COLOR_HEX if header else TABLE_BODY_COLOR_HEX,
                "label": cell["text"], "line_text": cell["text"],
                "confidence": float(cell.get("confidence", 1.0)),
                "x1": float(b[0]), "y1": float(b[1]),
                "x2": float(b[2]), "y2": float(b[3]),
            })
    return records
