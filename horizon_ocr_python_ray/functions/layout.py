"""Heavy-path kernels: reading-order recovery and line recognition.

``reading_order_rows`` re-implements the reference's row-banding sort
(``/root/reference/docvision/detect/text_craft.py:353-410``): group lines
into rows by ≥50% vertical overlap, order rows top→bottom, lines within a
row left→right, with a total tie-break on the original index so the sort
key is total (SURVEY.md §7.4 determinism requirement).
``reading_order_indices`` flattens those rows; table detection
(``functions/tables.py``) stacks them into grids.

``recognize_page`` is the recognition + targeted second-pass analog
(``/root/reference/docvision/ocr/targeted_reocr.py:150-178``): lines below
the confidence threshold are re-processed worst-first up to a per-page cap;
a re-pass result is accepted only if it clears the accept margin
(``config.py:220-227`` in the reference).
"""

from __future__ import annotations

from typing import Any

from ..config import DocConfig
from .docformat import decode_glyphs


def reading_order_rows(
    bboxes: list[list[float]], vertical_overlap: float = 0.5
) -> list[list[int]]:
    """Group ``bboxes`` indices into rows, top→bottom: a box joins the
    current row when its vertical overlap with the row's span is at
    least ``vertical_overlap`` of the shorter height. Each row's indices
    are sorted left→right."""
    order = sorted(
        range(len(bboxes)),
        key=lambda i: ((bboxes[i][1] + bboxes[i][3]) / 2.0, bboxes[i][0], i),
    )
    rows: list[dict[str, Any]] = []
    for i in order:
        x1, y1, x2, y2 = bboxes[i]
        h = max(y2 - y1, 1e-9)
        placed = False
        if rows:
            row = rows[-1]
            ov = min(y2, row["y2"]) - max(y1, row["y1"])
            row_h = max(row["y2"] - row["y1"], 1e-9)
            if ov >= vertical_overlap * min(h, row_h):
                row["items"].append(i)
                row["y1"] = min(row["y1"], y1)
                row["y2"] = max(row["y2"], y2)
                placed = True
        if not placed:
            rows.append({"y1": y1, "y2": y2, "items": [i]})
    return [sorted(r["items"], key=lambda i: (bboxes[i][0], i)) for r in rows]


def reading_order_indices(
    bboxes: list[list[float]], vertical_overlap: float = 0.5
) -> list[int]:
    """Return indices of ``bboxes`` in reading order (rows top→bottom,
    left→right within a row)."""
    return [i for row in reading_order_rows(bboxes, vertical_overlap) for i in row]


def recognize_page(
    lines: list[dict[str, Any]],
    cfg: DocConfig,
    page_w: float | None = None,
    page_h: float | None = None,
) -> list[dict[str, Any]]:
    """Recognize every line record of one page, applying the targeted
    second pass, and return per-line dicts **in reading order**:
    ``{"text", "bbox", "confidence", "repassed", "kind"}``.

    ``kind`` is the layout-region role (header/footer/page_number/title/
    text — ``functions/regions.py`` heuristics) when page dimensions are
    known, else ``"line"``.
    """
    texts: list[str] = []
    confs: list[float] = []
    for rec in lines:
        texts.append(decode_glyphs(rec["g"]))
        confs.append(float(rec["conf"]))

    # Targeted re-pass: select worst lines under the threshold, ascending
    # confidence, capped per page (targeted_reocr.py:150-178 semantics).
    low = [i for i in range(len(lines)) if confs[i] < cfg.reocr_confidence_threshold]
    low.sort(key=lambda i: (confs[i], i))
    repassed = set()
    for i in low[: cfg.reocr_max_lines_per_page]:
        alt = lines[i].get("alt")
        if not alt:
            continue
        alt_conf = float(alt["conf"])
        if alt_conf >= confs[i] + cfg.reocr_accept_margin:
            texts[i] = decode_glyphs(alt["g"])
            confs[i] = alt_conf
            repassed.add(i)

    bboxes = [rec["bbox"] for rec in lines]
    order = reading_order_indices(bboxes, cfg.reading_order_vertical_overlap)
    if page_w and page_h:
        from .regions import classify_line_role

        # classify on the FINAL (post-re-pass) text — content patterns
        # (list markers, caption prefixes) beat positional rules
        kinds = [classify_line_role(texts[i], bboxes[i], page_w, page_h)
                 for i in range(len(bboxes))]
    else:
        kinds = ["line"] * len(bboxes)
    return [
        {
            "text": texts[i],
            "bbox": bboxes[i],
            "confidence": confs[i],
            "repassed": i in repassed,
            "kind": kinds[i],
        }
        for i in order
    ]
