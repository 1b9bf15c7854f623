"""Layout-region role classification.

Re-expresses the reference's position/size heuristics
(``/root/reference/docvision/detect/layout_doclaynet.py:210-251``):

- header: top 15% of the page;
- page_number: small region in a bottom corner (bottom 10%, x in the
  outer 20%) — NOTE the reference checks footer (bottom 15%) first,
  which makes its PAGE_NUMBER branch unreachable; we check the corner
  case first so the class is actually assignable (intentional deviation,
  preserving the published thresholds);
- footer: bottom 15%;
- table: aspect ratio > 2 with height > 10% of the page (region blobs);
- title: top 30%, aspect ratio > 3, height < 10%;
- text otherwise.

The heuristics are tuned for region BLOBS; applied at line granularity
(our spans) they over-assign ``title`` to long lines near the top — a
property the golden fixtures mirror arithmetically, so byte-identity
still pins the behaviour.
"""

from __future__ import annotations

HEADER_TOP_FRACTION = 0.15
FOOTER_BOTTOM_FRACTION = 0.85
PAGE_NUMBER_BOTTOM_FRACTION = 0.90
PAGE_NUMBER_CORNER_FRACTION = 0.20
TABLE_MIN_ASPECT = 2.0
TABLE_MIN_REL_HEIGHT = 0.10
TITLE_MAX_REL_Y = 0.30
TITLE_MIN_ASPECT = 3.0
TITLE_MAX_REL_HEIGHT = 0.10


import re as _re

#: Text-pattern roles (the deterministic analog of the reference's
#: DocLayNet ``list`` / ``caption`` classes, ``detect/layout_doclaynet.py:
#: 32-44`` label map): a bullet / enumeration marker opens a list item; a
#: "Figure N:" / "Table N:" prefix opens a caption. Patterns are checked
#: BEFORE the positional rules — content evidence beats position, as the
#: model-based classifier's decision would.
LIST_MARKER_RE = _re.compile(r"^(?:[-•*]|\d{1,2}[.)])\s+")
CAPTION_RE = _re.compile(r"^(?:Figure|Table)\s+\d+:")


def classify_line_role(text: str, bbox: list[float], page_w: float,
                       page_h: float) -> str:
    """Role of a line given its TEXT and bbox: text-pattern classes
    (list_item, caption) first, positional heuristics otherwise."""
    if LIST_MARKER_RE.match(text or ""):
        return "list_item"
    if CAPTION_RE.match(text or ""):
        return "caption"
    return classify_line_region(bbox, page_w, page_h)


def classify_line_region(bbox: list[float], page_w: float, page_h: float) -> str:
    """Role of a line/region bbox on a page of known dimensions."""
    x1, y1, x2, y2 = bbox
    w = max(x2 - x1, 0.0)
    h = max(y2 - y1, 0.0)
    rel_y = y1 / page_h if page_h else 0.0
    rel_h = h / page_h if page_h else 0.0
    aspect = w / h if h > 0 else 0.0
    if rel_y < HEADER_TOP_FRACTION:
        return "header"
    if rel_y + rel_h > PAGE_NUMBER_BOTTOM_FRACTION and (
        x1 < page_w * PAGE_NUMBER_CORNER_FRACTION
        or x1 > page_w * (1.0 - PAGE_NUMBER_CORNER_FRACTION)
    ):
        return "page_number"
    if rel_y + rel_h > FOOTER_BOTTOM_FRACTION:
        return "footer"
    if aspect > TABLE_MIN_ASPECT and rel_h > TABLE_MIN_REL_HEIGHT:
        return "table"
    if rel_y < TITLE_MAX_REL_Y and aspect > TITLE_MIN_ASPECT and rel_h < TITLE_MAX_REL_HEIGHT:
        return "title"
    return "text"
