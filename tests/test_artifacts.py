"""Debug-artifact overlays + SVG rendering (S8/S11 analogs, reference
``io/artifacts.py:29-68,175-466`` color/label semantics, ``io/image.py:
222-241`` save sink) — kernel tests + golden-fixture alignment."""

from __future__ import annotations

import hashlib

from horizon_ocr_python_ray.functions.overlay import (
    LAYOUT_COLORS_HEX,
    confidence_to_hex,
    layout_color,
    line_overlay_records,
    ocr_label,
    render_page_svg,
    table_overlay_records,
)

TEXT_JOIN = "\n"


def _line(text, x=50.0, y=200.0, conf=0.9, kind="text"):
    return {"text": text, "bbox": [x, y, x + 8 * len(text), y + 28.0],
            "confidence": conf, "kind": kind}


def test_confidence_ramp_endpoints():
    # Reference confidence_to_color (artifacts.py:46-68): red→yellow→green.
    assert confidence_to_hex(0.0) == "#ff0000"
    assert confidence_to_hex(0.5) == "#ffff00"
    assert confidence_to_hex(1.0) == "#00ff00"
    assert confidence_to_hex(0.25) == "#ff7f00"
    # Clamped outside [0, 1].
    assert confidence_to_hex(-1.0) == "#ff0000"
    assert confidence_to_hex(2.0) == "#00ff00"


def test_layout_colors_cover_region_kinds():
    for kind in ("header", "footer", "page_number", "title", "table", "text", "line"):
        assert layout_color(kind).startswith("#")
    assert layout_color("nonsense") == "#808080"  # UNKNOWN gray
    assert LAYOUT_COLORS_HEX["header"] == "#6464ff"  # BGR (255,100,100)


def test_ocr_label_truncation():
    # artifacts.py:435-437: text[:50] + "..." when longer, 2-decimal conf.
    assert ocr_label("short", 0.875) == "short (0.88)"
    long = "x" * 60
    assert ocr_label(long, 0.5) == "x" * 50 + "... (0.50)"


def test_line_records_two_layers_and_ordinal_continuation():
    recs, nxt = line_overlay_records(0, [_line("a", kind="header"), _line("b")], 0)
    assert nxt == 2
    layouts = [r for r in recs if r["layer"] == "layout"]
    ocrs = [r for r in recs if r["layer"] == "ocr"]
    assert [r["idx"] for r in layouts] == [0, 1]
    assert layouts[0]["color"] == LAYOUT_COLORS_HEX["header"]
    assert layouts[0]["label"] == "header"
    assert ocrs[0]["color"] == confidence_to_hex(0.9)
    assert ocrs[0]["label"] == "a (0.90)"
    # idx continues across pages (flat per-url ordinal = span ordinal).
    recs2, nxt2 = line_overlay_records(1, [_line("c")], nxt)
    assert [r["idx"] for r in recs2] == [2, 2]
    assert nxt2 == 3


def test_table_records_header_vs_body_colors():
    table = {"table_idx": 0, "n_rows": 2, "n_cols": 3,
             "cells": [{"row": r, "col": c, "text": f"{r}{c}",
                        "bbox": [c * 10.0, r * 10.0, c * 10.0 + 8, r * 10.0 + 8],
                        "confidence": 0.9}
                       for r in range(2) for c in range(3)]}
    recs = table_overlay_records(3, [table])
    assert len(recs) == 6
    assert all(r["layer"] == "table" and r["kind"] == "t0" and r["page"] == 3
               for r in recs)
    assert [r["color"] for r in recs[:3]] == ["#ffff00"] * 3  # header row
    assert [r["color"] for r in recs[3:]] == ["#00c800"] * 3  # body
    assert [r["idx"] for r in recs] == list(range(6))  # row-major ordinal
    assert recs[4]["label"] == "11"


def test_svg_deterministic_and_escaped():
    recs, _ = line_overlay_records(0, [_line('a<b>&"q"', kind="title")], 0)
    svg1 = render_page_svg(recs, 1000.0, 1400.0)
    svg2 = render_page_svg(list(reversed(recs)), 1000.0, 1400.0)
    assert svg1 == svg2  # record order never leaks into the bytes
    assert svg1.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="1000"')
    assert svg1.count("<rect ") == 2 and svg1.count("<text ") == 2
    assert "a&lt;b&gt;&amp;&quot;q&quot;" in svg1
    assert "<b>" not in svg1


def _overlays_by_url(corpus_dir):
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.artifacts import build_overlay_pipeline

    rows = build_overlay_pipeline(read_pages(corpus_dir)).take_all()
    by_url: dict[str, list[dict]] = {}
    for r in rows:
        by_url.setdefault(r["url"], []).append(r)
    return by_url


def test_layout_layer_aligns_with_golden_spans(corpus_dir, golden_map):
    by_url = _overlays_by_url(corpus_dir)
    heavy = {u: g for u, g in golden_map.items() if g["route"] in ("doc", "image")}
    assert set(by_url) == {u for u, g in heavy.items() if g["spans"]}
    checked_lines = checked_cells = 0
    for url, g in heavy.items():
        recs = by_url.get(url, [])
        layout = sorted((r for r in recs if r["layer"] == "layout"),
                        key=lambda r: r["idx"])
        spans = g["spans"]
        assert len(layout) == len(spans), url
        for r, s in zip(layout, spans):
            assert r["kind"] == s["kind"], url
            assert r["label"] == s["kind"]
            assert r["color"] == layout_color(s["kind"])
            assert r["line_text"] == g["extracted_text"][s["start"]:s["end"]], url
            checked_lines += 1
        # ocr layer mirrors layout 1:1 with ramp colors + truncated labels.
        ocr = sorted((r for r in recs if r["layer"] == "ocr"), key=lambda r: r["idx"])
        assert len(ocr) == len(layout)
        for r in ocr:
            assert r["color"] == confidence_to_hex(r["confidence"])
            assert r["label"] == ocr_label(r["line_text"], r["confidence"])
        # table layer cells match the golden grid fixtures row-major.
        for t in g["tables"] or []:
            cells = sorted((r for r in recs
                            if r["layer"] == "table" and r["page"] == t["page"]
                            and r["kind"] == f"t{t['table_idx']}"),
                           key=lambda r: r["idx"])
            assert [c["label"] for c in cells] == t["cell_texts"], url
            n_cols = t["n_cols"]
            for c in cells:
                want = "#ffff00" if c["idx"] < n_cols else "#00c800"
                assert c["color"] == want
                checked_cells += 1
    assert checked_lines > 50 and checked_cells > 10


def test_artifact_pipeline_hashes_and_partitioned_sink(corpus_dir, tmp_path):
    import pyarrow.parquet as pq

    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.artifacts import build_artifact_pipeline, write_artifacts

    arts = build_artifact_pipeline(read_pages(corpus_dir)).take_all()
    assert arts
    for a in arts[:20]:
        svg = a["artifact"]
        assert svg.startswith(b"<svg ") and svg.endswith(b"</svg>")
        assert hashlib.sha256(svg).hexdigest() == a["sha256"]
        assert a["n_records"] > 0
    out = str(tmp_path / "artifacts")
    write_artifacts(read_pages(corpus_dir), out)
    t = pq.read_table(out)
    assert t.num_rows == len(arts)
    assert sorted(t.column("sha256").to_pylist()) == sorted(a["sha256"] for a in arts)
    # SVG bytes pinned on the test corpus (seed 42, sf0.001): digest of
    # the sorted per-page sha256 column.
    digest = hashlib.sha256("\n".join(sorted(a["sha256"] for a in arts)).encode())
    assert digest.hexdigest() == ARTIFACT_SHA256_DIGEST


ARTIFACT_SHA256_DIGEST = "63a286e4ae05de55d79aa2d8ff11f7e13859d041c21cfc76b79126af360c4146"


def test_each_head_decodes_each_heavy_row_once(corpus_dir, monkeypatch):
    import glob
    import sys

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from horizon_ocr_python_ray.config import DEFAULT_CONFIG
    from horizon_ocr_python_ray.functions import docformat
    from horizon_ocr_python_ray.stages.artifacts import artifact_batch, overlay_batch
    from horizon_ocr_python_ray.stages.reconstruct_stage import reconstruct_batch
    from horizon_ocr_python_ray.stages.route import sniff_batch
    from horizon_ocr_python_ray.stages.style_stage import styles_batch
    from horizon_ocr_python_ray.stages.tables_stage import tables_batch

    # Count every decode, whichever module imported the decoder.
    calls = []
    for name in ("decode_doc_payload", "decode_image_payload"):
        real = getattr(docformat, name)

        def counting(payload, _real=real):
            calls.append(payload)
            return _real(payload)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("horizon_ocr_python_ray")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counting)
    pages = pa.concat_tables(pq.read_table(f) for f in
                             sorted(glob.glob(corpus_dir + "/pages/*.parquet")))
    sniffed = sniff_batch(pages)
    heavy = sniffed.filter(pc.is_in(sniffed.column("route"),
                                    value_set=pa.array(["doc", "image"])))
    assert heavy.num_rows > 50
    for fn in (tables_batch, styles_batch, reconstruct_batch, overlay_batch, artifact_batch):
        calls.clear()
        out = fn(heavy, DEFAULT_CONFIG)
        assert out.num_rows > 0
        assert len(calls) == heavy.num_rows, fn.__name__
        assert sorted(calls) == sorted(heavy.column("html").to_pylist()), fn.__name__
