"""Layout-region role classification
(reference detect/layout_doclaynet.py:210-251)."""

from __future__ import annotations

from horizon_ocr_python_ray.functions.regions import role_classifier

W, H = 1000.0, 1400.0
role = role_classifier(W, H)


def test_classify_roles():
    assert role("", [50, 40, 300, 68]) == "header"        # top 15%
    assert role("", [380, 1310, 650, 1338]) == "footer"   # bottom 15%
    assert role("", [860, 1340, 930, 1368]) == "page_number"  # corner
    assert role("", [60, 1340, 130, 1368]) == "page_number"   # left corner
    # mid-page long line in top 30% → title (aspect > 3, short)
    assert role("", [50, 300, 500, 328]) == "title"
    # mid-page tall wide region → table blob
    assert role("", [50, 500, 900, 700]) == "table"
    # mid-page short narrow line → text
    assert role("", [50, 700, 120, 728]) == "text"


def test_page_number_beats_footer_in_corner():
    # the reference's own branch order makes PAGE_NUMBER dead code; ours
    # checks the corner case first (documented deviation)
    assert role("", [900, 1350, 950, 1378]) == "page_number"


def test_doc_spans_carry_region_kinds(corpus_dir, golden_map):
    # extraction spans for doc routes expose header/footer/page_number
    sample = next(r for r in golden_map.values() if r["route"] == "doc")
    kinds = {s["kind"] for s in sample["spans"]}
    assert "header" in kinds
    assert "footer" in kinds
    assert "page_number" in kinds


def test_text_pattern_roles():
    mid = [100.0, 700.0, 400.0, 728.0]  # middle zone → positional 'text'
    assert role("- bullet item here", mid) == "list_item"
    assert role("2. numbered item", mid) == "list_item"
    assert role("12) paren item", mid) == "list_item"
    assert role("Table 1: planted grid totals", mid) == "caption"
    assert role("Figure 12: something", mid) == "caption"
    # content beats position: a caption in the footer zone stays a caption
    foot = [100.0, 1320.0, 400.0, 1348.0]
    assert role("Table 1: deep caption", foot) == "caption"
    # no pattern → positional fallback
    assert role("plain sentence here", mid) == "text"
    assert role("123 plain number start", mid) == "text"
    assert role("Tables: not a caption", mid) == "text"


def test_unknown_page_size_gives_line():
    for w, h in ((None, H), (W, None), (0, H), (W, 0.0)):
        assert role_classifier(w, h)("- bullet item here", [50, 40, 300, 68]) == "line"


def test_text_role_first_chars_cover_both_patterns():
    """The first-character test that skips the pattern match admits every
    character either pattern can start with: ``\\d`` is category Nd."""
    import re
    import sys

    from horizon_ocr_python_ray.functions.regions import _TEXT_ROLE_FIRST

    starts = re.compile(r"[-•*FT]|\d")
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        assert bool(starts.match(c)) == (c in _TEXT_ROLE_FIRST or c.isdecimal()), hex(cp)
