"""Heavy-path kernels: reading-order recovery and line recognition.

``reading_order_rows`` re-implements the reference's row-banding sort
(``/root/reference/docvision/detect/text_craft.py:353-410``): group lines
into rows by ≥50% vertical overlap, order rows top→bottom, lines within a
row left→right, with a total tie-break on the original index so the sort
key is total (SURVEY.md §7.4 determinism requirement). It is one pass:
one ``(cy, x1, i, bbox)`` tuple per box is sorted once, the open row's
band is two local floats, and each row sorts its ``(x1, i)`` tuples.
Text recognition (``recognize_page``) and table detection
(``functions/tables.py``) both band through it.

``recognize_page`` is the recognition + targeted second-pass analog
(``/root/reference/docvision/ocr/targeted_reocr.py:150-178``): lines below
the confidence threshold are re-processed worst-first up to a per-page cap;
a re-pass result is accepted only if it clears the accept margin
(``config.py:220-227`` in the reference). One page is one pass per step:
decode every line's glyphs, pick the re-pass set from one sorted
``(conf, i)`` list, band the boxes, then walk the rows once, classifying
each line's role (``regions.role_classifier``) as its output dict is
built.
"""

from __future__ import annotations

from typing import Any

from ..config import DocConfig
from .docformat import decode_glyphs
from .regions import role_classifier


def reading_order_rows(
    bboxes: list[list[float]], vertical_overlap: float = 0.5
) -> list[list[tuple[float, int]]]:
    """Group ``bboxes`` into rows, top→bottom: a box joins the current
    row when its vertical overlap with the row's span is at least
    ``vertical_overlap`` of the shorter height. Each row is a list of
    ``(x1, index)`` pairs sorted left→right (``x1`` is ``bboxes[index][0]``,
    which table detection quantizes into column anchors).

    The comparisons are written out where ``min``/``max`` would do, in
    the order those builtins compare (the first argument wins ties and
    NaN), so rows are the same for any input floats."""
    keys = [((b[1] + b[3]) / 2.0, b[0], i, b) for i, b in enumerate(bboxes)]
    keys.sort()
    rows: list[list[tuple[float, int]]] = []
    items: list[tuple[float, int]] = []
    ry1 = ry2 = row_h = 0.0
    for _cy, x1, i, b in keys:
        _x1, y1, _x2, y2 = b
        h = y2 - y1
        if 1e-9 > h:
            h = 1e-9
        if items:
            lo = ry1 if ry1 > y1 else y1
            hi = ry2 if ry2 < y2 else y2
            if hi - lo >= vertical_overlap * (row_h if row_h < h else h):
                items.append((x1, i))
                if y1 < ry1:
                    ry1 = y1
                if y2 > ry2:
                    ry2 = y2
                row_h = ry2 - ry1
                if 1e-9 > row_h:
                    row_h = 1e-9
                continue
        items = [(x1, i)]
        rows.append(items)
        ry1, ry2 = y1, y2
        row_h = ry2 - ry1
        if 1e-9 > row_h:
            row_h = 1e-9
    for items in rows:
        if len(items) > 1:
            items.sort()
    return rows


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
    threshold = cfg.reocr_confidence_threshold
    low = sorted([(c, i) for i, c in enumerate(confs) if c < threshold])
    repassed = set()
    for conf, i in low[: cfg.reocr_max_lines_per_page]:
        alt = lines[i].get("alt")
        if not alt:
            continue
        alt_conf = float(alt["conf"])
        if alt_conf >= conf + cfg.reocr_accept_margin:
            texts[i] = decode_glyphs(alt["g"])
            confs[i] = alt_conf
            repassed.add(i)

    bboxes = [rec["bbox"] for rec in lines]
    # classify on the FINAL (post-re-pass) text — content patterns
    # (list markers, caption prefixes) beat positional rules
    role = role_classifier(page_w, page_h)
    out = []
    for row in reading_order_rows(bboxes, cfg.reading_order_vertical_overlap):
        for _x1, i in row:
            text = texts[i]
            bbox = bboxes[i]
            out.append({"text": text, "bbox": bbox, "confidence": confs[i],
                        "repassed": i in repassed, "kind": role(text, bbox)})
    return out
