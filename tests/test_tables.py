"""Table structure extraction: grid assembly, over-detection filters,
accessors, markdown (reference ``detect/table_tatr.py``, ``types.py:185-198``,
``io/markdown.py:120-230``) + golden-fixture identity over the corpus."""

from __future__ import annotations

import hashlib

from horizon_ocr_python_ray.config import TableConfig
from horizon_ocr_python_ray.functions.tables import (
    cells_fingerprint,
    detect_tables,
    get_row_texts,
    table_to_markdown,
)

PAGE_W, PAGE_H = 1000.0, 1400.0


def _line(text, x, y, w=None, h=28.0, conf=0.95):
    w = w if w is not None else 8 * len(text)
    return {"text": text, "bbox": [x, y, x + w, y + h], "confidence": conf}


def _grid(texts, x0=60.0, y0=100.0, pitch_x=190.0, pitch_y=40.0):
    out = []
    for r, row in enumerate(texts):
        for c, t in enumerate(row):
            out.append(_line(t, x0 + c * pitch_x, y0 + r * pitch_y))
    return out


def test_detects_simple_grid():
    lines = _grid([["a", "b", "c"], ["d", "e", "f"]])
    tables = detect_tables(lines, PAGE_W, PAGE_H)
    assert len(tables) == 1
    t = tables[0]
    assert (t["n_rows"], t["n_cols"]) == (2, 3)
    assert [c["text"] for c in t["cells"]] == ["a", "b", "c", "d", "e", "f"]
    assert t["table_idx"] == 0


def test_two_column_text_is_not_a_table():
    # ≥3 aligned columns required — 2-col text layouts are reading-order
    # rows, not grids (TABLE_MIN_COLS).
    lines = _grid([["left para", "right para"]] * 4, pitch_x=470.0)
    assert detect_tables(lines, PAGE_W, PAGE_H) == []


def test_single_row_is_not_a_table():
    lines = _grid([["a", "b", "c"]])
    assert detect_tables(lines, PAGE_W, PAGE_H) == []


def test_mixed_page_detects_only_the_grid():
    lines = [
        _line("Invoice Number: INV-1", 50.0, 40.0),
        _line("Some sentence here about content.", 50.0, 80.0),
    ] + _grid([["q", "r", "s", "t"], ["u", "v", "w", "x"], ["y", "z", "0", "1"]],
              y0=160.0)
    tables = detect_tables(lines, PAGE_W, PAGE_H)
    assert len(tables) == 1
    assert (tables[0]["n_rows"], tables[0]["n_cols"]) == (3, 4)


def test_over_coverage_filter():
    # a grid spanning >80% of the page is an over-detection → dropped
    # (reference table_tatr.py:107-133)
    lines = _grid([["a", "b", "c"]] * 2, x0=5.0, y0=5.0, pitch_x=130.0)
    cfg = TableConfig()
    # grid bbox ≈ 268×68 → >80% of a 300×75 page
    assert detect_tables(lines, 300.0, 75.0, cfg) == []
    # same grid on a normal page passes
    assert len(detect_tables(lines, PAGE_W, PAGE_H, cfg)) == 1


def test_max_cells_coverage_filter():
    texts = [[f"c{r}x{c}" for c in range(12)] for r in range(10)]  # 120 cells
    lines = _grid(texts, x0=2.0, y0=2.0, pitch_x=83.0, pitch_y=100.0)
    # 120 > max_cells and coverage > 50% → dropped
    assert detect_tables(lines, PAGE_W, PAGE_H) == []
    # under the coverage gate (big page) the same grid is kept
    assert len(detect_tables(lines, 10_000.0, 20_000.0)) == 1


def test_accessors_and_markdown():
    lines = _grid([["h1", "h2", "h3"], ["a", "b", "c"]])
    t = detect_tables(lines, PAGE_W, PAGE_H)[0]
    assert get_row_texts(t, 0) == ["h1", "h2", "h3"]
    assert get_row_texts(t, 1) == ["a", "b", "c"]
    md = table_to_markdown(t)
    assert md.splitlines() == [
        "| h1 | h2 | h3 |",
        "| --- | --- | --- |",
        "| a | b | c |",
    ]
    assert cells_fingerprint(t) == hashlib.md5(b"h1|h2|h3|a|b|c").hexdigest()


def test_pipe_escaped_in_markdown():
    lines = _grid([["a|b", "c", "d"], ["e", "f", "g"]])
    t = detect_tables(lines, PAGE_W, PAGE_H)[0]
    assert "a\\|b" in table_to_markdown(t)


class TestGoldenTables:
    def test_pipeline_matches_golden_fixtures(self, corpus_dir, golden_map):
        """Engine-detected tables equal the generator's construction-time
        grid fixtures for every document in the corpus."""
        from horizon_ocr_python_ray import read_pages
        from horizon_ocr_python_ray.stages.tables_stage import build_tables_pipeline

        out = build_tables_pipeline(read_pages(corpus_dir)).take_all()
        got: dict[str, list] = {}
        for r in out:
            got.setdefault(r["url"], []).append(r)
        n_tables = 0
        for url, grow in golden_map.items():
            exp = grow["tables"]
            rows = sorted(got.get(url, []), key=lambda r: (r["page"], r["table_idx"]))
            assert len(rows) == len(exp), url
            for r, e in zip(rows, exp):
                assert (r["page"], r["table_idx"]) == (e["page"], e["table_idx"]), url
                assert (r["n_rows"], r["n_cols"]) == (e["n_rows"], e["n_cols"]), url
                assert [c["text"] for c in r["cells"]] == e["cell_texts"], url
                assert r["cells_md5"] == hashlib.md5(
                    "|".join(e["cell_texts"]).encode()).hexdigest(), url
                n_tables += 1
        assert n_tables > 0
