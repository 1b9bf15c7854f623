"""Layout-region role classification
(reference detect/layout_doclaynet.py:210-251)."""

from __future__ import annotations

from horizon_ocr_python_ray.functions.regions import classify_line_region

W, H = 1000.0, 1400.0


def test_classify_roles():
    assert classify_line_region([50, 40, 300, 68], W, H) == "header"        # top 15%
    assert classify_line_region([380, 1310, 650, 1338], W, H) == "footer"   # bottom 15%
    assert classify_line_region([860, 1340, 930, 1368], W, H) == "page_number"  # corner
    assert classify_line_region([60, 1340, 130, 1368], W, H) == "page_number"   # left corner
    # mid-page long line in top 30% → title (aspect > 3, short)
    assert classify_line_region([50, 300, 500, 328], W, H) == "title"
    # mid-page tall wide region → table blob
    assert classify_line_region([50, 500, 900, 700], W, H) == "table"
    # mid-page short narrow line → text
    assert classify_line_region([50, 700, 120, 728], W, H) == "text"


def test_page_number_beats_footer_in_corner():
    # the reference's own branch order makes PAGE_NUMBER dead code; ours
    # checks the corner case first (documented deviation)
    assert classify_line_region([900, 1350, 950, 1378], W, H) == "page_number"


def test_doc_spans_carry_region_kinds(corpus_dir, golden_map):
    # extraction spans for doc routes expose header/footer/page_number
    sample = next(r for r in golden_map.values() if r["route"] == "doc")
    kinds = {s["kind"] for s in sample["spans"]}
    assert "header" in kinds
    assert "footer" in kinds
    assert "page_number" in kinds


def test_text_pattern_roles():
    from horizon_ocr_python_ray.functions.regions import classify_line_role

    mid = [100.0, 700.0, 400.0, 728.0]  # middle zone → positional 'text'
    assert classify_line_role("- bullet item here", mid, 1000, 1400) == "list_item"
    assert classify_line_role("2. numbered item", mid, 1000, 1400) == "list_item"
    assert classify_line_role("12) paren item", mid, 1000, 1400) == "list_item"
    assert classify_line_role("Table 1: planted grid totals", mid, 1000, 1400) == "caption"
    assert classify_line_role("Figure 12: something", mid, 1000, 1400) == "caption"
    # content beats position: a caption in the footer zone stays a caption
    foot = [100.0, 1320.0, 400.0, 1348.0]
    assert classify_line_role("Table 1: deep caption", foot, 1000, 1400) == "caption"
    # no pattern → positional fallback
    assert classify_line_role("plain sentence here", mid, 1000, 1400) == "text"
    assert classify_line_role("123 plain number start", mid, 1000, 1400) == "text"
    assert classify_line_role("Tables: not a caption", mid, 1000, 1400) == "text"
