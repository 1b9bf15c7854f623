"""Reading order + targeted re-pass kernels (reference semantics:
``detect/text_craft.py:353-410``, ``ocr/targeted_reocr.py:150-178``).

The one-pass kernels are checked against the per-step forms they
replaced, kept below verbatim as oracles: on random pages (ties, zero and
negative heights, duplicates, NaN coordinates, garbled glyphs, every
re-pass edge) both must give the same output or raise the same error."""

from __future__ import annotations

import base64
import json
from typing import Any

from hypothesis import given, settings, strategies as st

from horizon_ocr_python_ray.config import (
    DEFAULT_CONFIG,
    READING_ORDER_VERTICAL_OVERLAP,
    DocConfig,
    TableConfig,
)
from horizon_ocr_python_ray.functions import regions
from horizon_ocr_python_ray.functions.docformat import (
    encode_glyphs,
    encode_image_payload,
    make_line,
)
from horizon_ocr_python_ray.functions.extract_core import extract_payload
from horizon_ocr_python_ray.functions.layout import reading_order_rows, recognize_page
from horizon_ocr_python_ray.functions.regions import role_classifier
from horizon_ocr_python_ray.functions.tables import _passes_filters, detect_tables

CFG = DocConfig()


def _order(boxes, vertical_overlap=0.5):
    return [i for row in reading_order_rows(boxes, vertical_overlap) for _x1, i in row]


def test_reading_order_rows_and_columns():
    # grid: row0 [A, B], row1 [C]; stored shuffled
    boxes = [
        [500.0, 40.0, 700.0, 70.0],   # B (row0, col1)
        [50.0, 80.0, 300.0, 110.0],   # C (row1)
        [50.0, 40.0, 300.0, 70.0],    # A (row0, col0)
    ]
    assert _order(boxes) == [2, 0, 1]
    assert reading_order_rows(boxes) == [[(50.0, 2), (500.0, 0)], [(50.0, 1)]]


def test_reading_order_tolerates_jitter():
    # same row with ±5px vertical jitter still groups into one row
    boxes = [
        [500.0, 45.0, 700.0, 75.0],
        [50.0, 40.0, 300.0, 70.0],
    ]
    assert _order(boxes) == [1, 0]


def test_reading_order_tie_break_is_total():
    boxes = [[50.0, 40.0, 300.0, 70.0], [50.0, 40.0, 300.0, 70.0]]
    assert _order(boxes) == [0, 1]


def test_repass_accept_margin():
    lines = [
        # low conf, alt clears margin → accepted
        make_line("b#d", (50, 40, 200, 68), 0.40, alt_text="bad", alt_conf=0.60),
        # low conf, alt below margin → rejected
        make_line("w#rse", (50, 80, 200, 108), 0.60, alt_text="worse", alt_conf=0.64),
        # high conf → never re-passed even with alt present
        make_line("good", (50, 120, 200, 148), 0.90, alt_text="evil", alt_conf=0.99),
    ]
    out = recognize_page(lines, CFG)
    assert [o["text"] for o in out] == ["bad", "w#rse", "good"]
    assert [o["repassed"] for o in out] == [True, False, False]
    assert out[0]["confidence"] == 0.60


def test_repass_per_page_cap_worst_first():
    cfg = DocConfig(reocr_max_lines_per_page=1)
    lines = [
        make_line("a#", (50, 40, 200, 68), 0.50, alt_text="aa", alt_conf=0.90),
        make_line("b#", (50, 80, 200, 108), 0.30, alt_text="bb", alt_conf=0.90),
    ]
    out = recognize_page(lines, cfg)
    # only the worst line (conf 0.30) gets the re-pass under cap=1
    assert [o["text"] for o in out] == ["a#", "bb"]


def test_malformed_glyph_error_text():
    """A malformed glyph field fails its row with the error text the
    ``str.encode`` + ``b64decode`` decode gave: the type and message land
    in the per-row error column, and error counts group by the type."""
    cases = [
        ("héllo", "UnicodeEncodeError: 'ascii' codec can't encode character "
                       "'\\xe9' in position 1: ordinal not in range(128)"),
        (None, "AttributeError: 'NoneType' object has no attribute 'encode'"),
        (7, "AttributeError: 'int' object has no attribute 'encode'"),
        (["YWJj"], "AttributeError: 'list' object has no attribute 'encode'"),
        ("abcde", "Error: Invalid base64-encoded string: number of data characters "
                  "(5) cannot be 1 more than a multiple of 4"),
        ("ab=c", "Error: Incorrect padding"),
        ("////", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte"),
    ]
    for glyphs, error in cases:
        good = make_line("fine", (50, 40, 200, 68), 0.9)
        bad = {**make_line("x", (50, 80, 200, 108), 0.9), "g": glyphs}
        payload = encode_image_payload({"w": 1000.0, "h": 1400.0, "lines": [good, bad]})
        assert extract_payload("image", payload, None, DEFAULT_CONFIG) == ("", [], error)
        # the re-pass decodes an accepted alt the same way
        low = make_line("x", (50, 80, 200, 108), 0.1, alt_text="y", alt_conf=0.9)
        low["alt"]["g"] = glyphs
        payload = encode_image_payload({"w": 1000.0, "h": 1400.0, "lines": [good, low]})
        assert extract_payload("image", payload, None, DEFAULT_CONFIG) == ("", [], error)


# -- the per-step kernels the one-pass ones replaced (oracles) -----------------


def _old_decode_glyphs(glyphs: str) -> str:
    """The 'recognition' inverse transform of :func:`encode_glyphs`."""
    return base64.b64decode(glyphs.encode("ascii"))[::-1].decode("utf-8")


def _old_reading_order_rows(
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


def _old_reading_order_indices(
    bboxes: list[list[float]], vertical_overlap: float = 0.5
) -> list[int]:
    """Return indices of ``bboxes`` in reading order (rows top→bottom,
    left→right within a row)."""
    return [i for row in _old_reading_order_rows(bboxes, vertical_overlap) for i in row]


def _old_recognize_page(
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
        texts.append(_old_decode_glyphs(rec["g"]))
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
            texts[i] = _old_decode_glyphs(alt["g"])
            confs[i] = alt_conf
            repassed.add(i)

    bboxes = [rec["bbox"] for rec in lines]
    order = _old_reading_order_indices(bboxes, cfg.reading_order_vertical_overlap)
    if page_w and page_h:
        # classify on the FINAL (post-re-pass) text — content patterns
        # (list markers, caption prefixes) beat positional rules
        kinds = [_old_classify_line_role(texts[i], bboxes[i], page_w, page_h)
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


def _old_classify_line_role(text: str, bbox: list[float], page_w: float,
                            page_h: float) -> str:
    """Role of a line given its TEXT and bbox: text-pattern classes
    (list_item, caption) first, positional heuristics otherwise."""
    if regions.LIST_MARKER_RE.match(text or ""):
        return "list_item"
    if regions.CAPTION_RE.match(text or ""):
        return "caption"
    return _old_classify_line_region(bbox, page_w, page_h)


def _old_classify_line_region(bbox: list[float], page_w: float, page_h: float) -> str:
    """Role of a line/region bbox on a page of known dimensions."""
    x1, y1, x2, y2 = bbox
    w = max(x2 - x1, 0.0)
    h = max(y2 - y1, 0.0)
    rel_y = y1 / page_h if page_h else 0.0
    rel_h = h / page_h if page_h else 0.0
    aspect = w / h if h > 0 else 0.0
    if rel_y < regions.HEADER_TOP_FRACTION:
        return "header"
    if rel_y + rel_h > regions.PAGE_NUMBER_BOTTOM_FRACTION and (
        x1 < page_w * regions.PAGE_NUMBER_CORNER_FRACTION
        or x1 > page_w * (1.0 - regions.PAGE_NUMBER_CORNER_FRACTION)
    ):
        return "page_number"
    if rel_y + rel_h > regions.FOOTER_BOTTOM_FRACTION:
        return "footer"
    if aspect > regions.TABLE_MIN_ASPECT and rel_h > regions.TABLE_MIN_REL_HEIGHT:
        return "table"
    if (rel_y < regions.TITLE_MAX_REL_Y and aspect > regions.TITLE_MIN_ASPECT
            and rel_h < regions.TITLE_MAX_REL_HEIGHT):
        return "title"
    return "text"


def _old_column_signature(lines: list[dict], row: list[int], tol: float) -> tuple[int, ...]:
    """Quantized x-anchors of a row's cells — two rows with the same
    signature stack into a grid."""
    return tuple(int(round(lines[i]["bbox"][0] / max(tol, 1e-9))) for i in row)


def _old_detect_tables(
    lines: list[dict[str, Any]],
    page_w: float,
    page_h: float,
    cfg: TableConfig | None = None,
) -> list[dict[str, Any]]:
    """Detect grid-aligned tables among a page's text lines.

    A table is a maximal run of ≥ ``min_rows`` consecutive reading-order
    rows whose cells share the same ≥ ``min_cols`` quantized column
    anchors. Cell text is the line's recognized text. Over-detected grids
    are dropped per the reference filters.
    """
    cfg = cfg or TableConfig()
    rows = _old_reading_order_rows([ln["bbox"] for ln in lines],
                                   READING_ORDER_VERTICAL_OVERLAP)
    sigs = [_old_column_signature(lines, r, cfg.x_tolerance) for r in rows]
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
            tables.append(_old_assemble_table(lines, rows[i:j]))
        i = j if j > i + 1 else i + 1
    tables = [t for t in tables if _passes_filters(t, page_w, page_h, cfg)]
    for idx, t in enumerate(tables):
        t["table_idx"] = idx
    return tables


def _old_assemble_table(lines: list[dict], grid_rows: list[list[int]]) -> dict[str, Any]:
    cells = []
    x1 = y1 = float("inf")
    x2 = y2 = float("-inf")
    for r, row in enumerate(grid_rows):
        for c, li in enumerate(row):
            b = lines[li]["bbox"]
            cells.append({
                "row": r, "col": c,
                "text": lines[li]["text"],
                "bbox": list(b),
                "confidence": lines[li].get("confidence", 1.0),
            })
            x1, y1 = min(x1, b[0]), min(y1, b[1])
            x2, y2 = max(x2, b[2]), max(y2, b[3])
    return {
        "table_idx": 0,
        "n_rows": len(grid_rows),
        "n_cols": len(grid_rows[0]),
        "bbox": [x1, y1, x2, y2],
        "cells": cells,
    }


# -- differential property test -----------------------------------------------

def _outcome(fn, *args) -> str:
    """What a call returns or raises, as text: ``repr`` treats every NaN
    alike, and an error is its type and message."""
    try:
        return "ok " + repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _rarely(common, rare, one_in: int):
    """``rare`` about once in ``one_in`` draws, else ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == 1 else common)


#: Few distinct values, so centres, left edges and heights tie often.
_coord = _rarely(
    st.sampled_from([0.0, 10.0, 40.0, 60.0, 100.0, 130.0, 300.0, 500.0, 700.0, 1300.0, 1350.0,
                     1400.0])
    | st.floats(-50.0, 1500.0, allow_nan=False),
    st.just(float("nan")), 60)


#: One box per positional role on a 1000 × 1400 page.
_ROLE_BOXES = [[50.0, 40.0, 300.0, 68.0], [50.0, 300.0, 500.0, 328.0],
               [50.0, 500.0, 900.0, 700.0], [50.0, 700.0, 120.0, 728.0],
               [380.0, 1310.0, 650.0, 1338.0], [900.0, 1350.0, 950.0, 1378.0]]


@st.composite
def _bbox(draw):
    if draw(st.integers(0, 3)) == 0:
        return list(draw(st.sampled_from(_ROLE_BOXES)))
    x1, y1 = draw(_coord), draw(_coord)
    w = draw(st.sampled_from([0.0, 48.0, 190.0, 600.0, -20.0]) | st.floats(-100.0, 900.0))
    h = draw(st.sampled_from([28.0, 0.0, -10.0, 14.0, 200.0]) | st.floats(-50.0, 300.0))
    return [x1, y1, x1 + w, y1 + h]


_text = st.one_of(
    st.sampled_from(["- bullet item", "2. numbered", "12) paren", "٣) digit",
                     "• dot", "* star", "Table 3: caption", "Figure 1: fig",
                     "Tables: not one", "plain words", "UPPER CASE", "", " "]),
    st.text(max_size=12),
)

_glyphs = _rarely(
    _text.map(encode_glyphs),
    st.text(alphabet="ABCabc012+/=", max_size=9)     # garbled base64
    | st.text(min_size=1, max_size=6)                # often non-ASCII
    | st.sampled_from([None, 7, ["YWJj"]]),
    40)

_conf = st.one_of(st.sampled_from([0.1, 0.3, 0.3, 0.65, 0.7, 0.95]), st.floats(0.0, 1.0))


@st.composite
def _line(draw, bbox):
    conf = draw(_conf)
    rec = {"g": draw(_glyphs), "bbox": bbox, "conf": conf}
    alt = draw(st.sampled_from(["missing", "empty", "margin", "above", "below"]))
    if alt == "empty":
        rec["alt"] = {}
    elif alt != "missing":
        margin = DocConfig.reocr_accept_margin
        alt_conf = {"margin": conf + margin, "above": conf + 2 * margin,
                    "below": conf + margin / 2}[alt]
        rec["alt"] = {"g": draw(_glyphs), "conf": alt_conf}
    return rec


@st.composite
def _page(draw):
    grid = draw(st.booleans())  # a grid among few other boxes, for table detection
    pool = draw(st.lists(_bbox(), min_size=1, max_size=6))
    boxes = draw(st.lists(st.sampled_from(pool) | _bbox(), max_size=3 if grid else 14))
    if grid:
        n_rows, n_cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        y0, pitch = draw(_coord), draw(st.sampled_from([40.0, 20.0, 10.0]))
        # x jitter below the column tolerance: anchors match only once quantized
        jitter = st.sampled_from([0.0, 0.0, 0.4, 0.9])
        for r in range(n_rows):
            for c in range(n_cols):
                x = 60.0 + 190.0 * c + draw(jitter)
                boxes.append([x, y0 + pitch * r, x + 48.0, y0 + pitch * r + 28.0])
    boxes = draw(st.permutations(boxes))
    lines = [draw(_line([*b])) for b in boxes]
    dims = st.sampled_from([None, 0, 0.0, 1000.0, 1400.0]) | st.floats(1.0, 3000.0)
    w, h = draw(st.just((1000.0, 1400.0)) | st.tuples(dims, dims))
    page = {"w": w, "h": h, "lines": lines}
    # through JSON, as payloads arrive: NaN comes back as one shared object
    return json.loads(json.dumps(page))


_doc_cfgs = st.sampled_from([CFG, DocConfig(reocr_max_lines_per_page=1),
                             DocConfig(reocr_max_lines_per_page=2, reading_order_vertical_overlap=0.0)])


@settings(max_examples=600, deadline=None)
@given(_page(), _doc_cfgs)
def test_one_pass_kernels_match_oracles(page, cfg):
    lines, w, h = page["lines"], page["w"], page["h"]
    bboxes = [ln["bbox"] for ln in lines]
    for overlap in (0.5, cfg.reading_order_vertical_overlap):
        assert _outcome(lambda: [[i for _x1, i in row]
                                 for row in reading_order_rows(bboxes, overlap)]) \
            == _outcome(_old_reading_order_rows, bboxes, overlap)
    role = role_classifier(w, h)
    for ln in lines:
        text = _outcome(_old_decode_glyphs, ln["g"])
        if text.startswith("ok "):
            text = text[4:-1]
        want = (_outcome(_old_classify_line_role, text, ln["bbox"], w, h) if w and h
                else "ok 'line'")
        assert _outcome(role, text, ln["bbox"]) == want
    for dims in ((w, h), (None, None)):
        new = _outcome(recognize_page, lines, cfg, *dims)
        assert new == _outcome(_old_recognize_page, lines, cfg, *dims)
    try:
        recognized = recognize_page(lines, cfg)
    except Exception:
        return
    for tcfg in (None, TableConfig(min_cols=2, x_tolerance=0.0)):
        for size in ((float(w or 0), float(h or 0)), (1000.0, 1400.0)):
            args = (recognized, *size, tcfg)
            assert _outcome(detect_tables, *args) == _outcome(_old_detect_tables, *args)
