"""Targeted re-OCR ladder: rasterizer, pixel-derived confidence,
content-type routing, strategy semantics, pipeline.

Reference semantics under test (targeted_reocr.py):
- selection: conf < 0.70, worst-first, ≤50/page  (:150-178)
- strategies: ensemble picks max (strict >), primary/secondary_only
  accept strict >, sequential needs old + 0.05 from primary before
  falling back to secondary (:380-440)
- improved = gain ≥ 0.05 (:447-500)
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from horizon_ocr_python_ray.functions.docformat import encode_glyphs, make_line
from horizon_ocr_python_ray.functions.raster import (
    RASTER_SCALE,
    SCRIPT_JITTER_THRESHOLD,
    confidence_from_features,
    crop_features,
    enhance_crop,
    is_handwritten_line,
    rasterize_page,
)
from horizon_ocr_python_ray.sources.synth import _grid_lines
from horizon_ocr_python_ray.stages.reocr import (
    CONFIDENCE_THRESHOLD,
    IMPROVEMENT_MARGIN,
    MAX_REOCR_LINES,
    STRATEGIES,
    reocr_page,
)


def _fixture_page(i: int = 0) -> dict:
    rng = random.Random(f"reocr-test:{i}")
    recs, *_ = _grid_lines(rng, i, 0, kv_header=True)
    return {"page": 0, "w": 1000.0, "h": 1400.0, "lines": recs}


def _head(feats) -> str:
    """The content-type route ``reocr_page`` takes for a crop."""
    return "handwritten" if feats[3] > SCRIPT_JITTER_THRESHOLD else "printed"


def test_rasterize_deterministic_and_document_like():
    page = _fixture_page()
    a = rasterize_page(page, "k")
    b = rasterize_page(page, "k")
    assert (a == b).all()
    assert a.shape == (1400, 1000) and a.dtype == np.uint8
    assert (a > 200).mean() > 0.5          # mostly paper
    assert (a < 100).mean() > 0.005        # glyph ink present
    # a different key moves the noise but not the layout scale
    c = rasterize_page(page, "other")
    assert c.shape == a.shape and not (c == a).all()


def test_first_pass_confidence_tracks_print_quality():
    from horizon_ocr_python_ray.functions.imageproc import crop_bbox

    page = _fixture_page(3)
    img = rasterize_page(page, "k3")
    lows, highs = [], []
    for rec in page["lines"]:
        crop = crop_bbox(img, [v * RASTER_SCALE for v in rec["bbox"]],
                         padding=8)
        if crop.shape[0] < 10 or crop.shape[1] < 10:
            continue
        text = rec["g"]
        from horizon_ocr_python_ray.functions.docformat import decode_glyphs

        t = decode_glyphs(text)
        f = crop_features(crop)
        conf = confidence_from_features(f, max(1, len(t)),
                                        max(1, len(t.split())), _head(f))
        (lows if rec["conf"] < 0.70 else highs).append(conf)
    assert highs and min(highs) >= 0.60     # legible print scores high
    if lows:
        assert max(lows) < CONFIDENCE_THRESHOLD  # degraded print flagged


def test_content_type_routing_recovers_planted_script():
    from horizon_ocr_python_ray.functions.imageproc import crop_bbox

    hits = total = 0
    for i in range(6):
        page = _fixture_page(i)
        img = rasterize_page(page, f"r{i}")
        for rec in page["lines"]:
            crop = crop_bbox(img, [v * RASTER_SCALE for v in rec["bbox"]],
                             padding=8)
            if crop.shape[0] < 10 or crop.shape[1] < 10:
                continue
            want = ("handwritten" if is_handwritten_line(rec["g"])
                    else "printed")
            hits += _head(crop_features(crop)) == want
            total += 1
    assert total > 100 and hits / total > 0.95


def test_strategy_semantics_and_margins():
    page = _fixture_page(1)
    results = reocr_page(page, "s1")
    assert set(results) == set(STRATEGIES)
    n_sel = {s: len(results[s]) for s in STRATEGIES}
    # every strategy re-processes the SAME selection
    assert len(set(n_sel.values())) == 1
    for s in STRATEGIES:
        for r in results[s]:
            assert r["old_conf"] < CONFIDENCE_THRESHOLD
            if r["accepted_engine"]:
                assert r["new_conf"] > r["old_conf"]  # strict accept
            else:
                assert r["new_conf"] == r["old_conf"]
            assert r["improved"] == (
                r["new_conf"] - r["old_conf"] >= IMPROVEMENT_MARGIN)
    # ensemble's accepted confidence is the max over single-engine runs
    for re_, rp, rs in zip(results["ensemble"], results["primary_only"],
                           results["secondary_only"]):
        assert re_["new_conf"] >= max(rp["new_conf"], rs["new_conf"])
    # sequential: if primary cleared old + margin it matches primary_only
    for rq, rp in zip(results["sequential"], results["primary_only"]):
        if rq["accepted_engine"] == "primary":
            assert rq["new_conf"] == rp["new_conf"]
            assert rp["new_conf"] > rp["old_conf"] + IMPROVEMENT_MARGIN


def test_per_page_cap_worst_first():
    # plant 60 degraded lines: only the 50 worst may be selected
    lines = []
    y = 40.0
    rng = random.Random("cap")
    for k in range(60):
        text = f"degraded line number {k} with several words"
        conf = 0.30 + 0.39 * rng.random()
        lines.append(make_line(text, (50.0, y, 50.0 + 8 * len(text),
                                      y + 28.0), conf))
        y += 20.0
    page = {"page": 0, "w": 1000.0, "h": 1400.0, "lines": lines}
    results = reocr_page(page, "cap")
    for s in STRATEGIES:
        assert len(results[s]) <= MAX_REOCR_LINES


def test_enhancement_recovers_midline():
    # a mid-degraded printed line: enhanced confidence must clear the
    # threshold the raw crop failed
    text = "recover this sentence of words"
    rec = make_line(text, (50.0, 200.0, 50.0 + 8 * len(text), 228.0), 0.60)
    page = {"page": 0, "w": 1000.0, "h": 1400.0,
            "lines": [rec, make_line("x", (860.0, 1340.0, 900.0, 1368.0),
                                     0.95)]}
    from horizon_ocr_python_ray.functions.imageproc import crop_bbox

    img = rasterize_page(page, "rec")
    crop = crop_bbox(img, [v * RASTER_SCALE for v in rec["bbox"]], padding=8)
    nch, nw = len(text), len(text.split())
    f = crop_features(crop)
    head = _head(f)
    before = confidence_from_features(f, nch, nw, head)
    after = confidence_from_features(crop_features(enhance_crop(crop)),
                                     nch, nw, head)
    assert before < CONFIDENCE_THRESHOLD < after


def test_pipeline_counts(ray_session):
    import ray.data

    from horizon_ocr_python_ray import ensure_corpus
    from horizon_ocr_python_ray.pipelines.extract import read_pages
    from horizon_ocr_python_ray.stages.reocr import build_reocr_pipeline

    corpus = ensure_corpus(0.001)
    out = build_reocr_pipeline(
        read_pages(corpus, columns=["url", "html"])).to_pandas()
    out = out.set_index("strategy")
    assert set(out.index) == set(STRATEGIES)
    assert (out["n_pages"] > 0).all()
    assert (out["n_selected"] == out["n_improved"] + out["n_failed"]).all()
    assert (out["n_improved"] ==
            out["improved_primary"] + out["improved_secondary"]).all()
    # the selection is strategy-independent; outcomes are not
    assert out["n_selected"].nunique() == 1
    assert out.loc["secondary_only", "improved_primary"] == 0
    assert out.loc["primary_only", "improved_secondary"] == 0
    # ensemble improves at least as much as any single engine
    assert out.loc["ensemble", "n_improved"] >= out["n_improved"].max() - 0


def test_pipeline_folds_single_block(ray_session):
    """A ONE-block pages dataset whose block holds several 4-row batch
    partials (block rows > batch_size) must still come out as exactly 4
    group-summed strategy rows — the fold applies to the first block
    too, not only to block-merge steps."""
    from horizon_ocr_python_ray import ensure_corpus
    from horizon_ocr_python_ray.pipelines.extract import read_pages
    from horizon_ocr_python_ray.stages.reocr import build_reocr_pipeline

    corpus = ensure_corpus(0.001)
    wide = read_pages(corpus, columns=["url", "html"]) \
        .repartition(1)  # one block, 500 rows > batch_size=32
    one = build_reocr_pipeline(wide).to_pandas().set_index("strategy")
    ref = build_reocr_pipeline(
        read_pages(corpus, columns=["url", "html"])).to_pandas() \
        .set_index("strategy")
    assert len(one) == len(STRATEGIES)
    assert one.sort_index().equals(ref.sort_index())


def test_differential_vs_independent_reference(corpus_dir):
    """The pipeline's ladder counters must equal the INDEPENDENT
    from-spec implementation (tools/reocr_reference.py — the pages_reocr
    oracle source) on real corpus payload pages: two separately written
    programs agreeing per strategy, per counter."""
    import importlib.util
    import os

    import pyarrow as pa

    spec = importlib.util.spec_from_file_location(
        "reocr_reference",
        os.path.join(os.path.dirname(__file__), "..", "tools",
                     "reocr_reference.py"))
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)

    work = list(ref._doc_pages(corpus_dir))[:30]
    assert len(work) == 30
    expected = {s: dict.fromkeys(ref.FIELDS, 0) for s in ref.STRATEGIES}
    for key, page in work:
        agg = ref.ref_page_counters(page, key)
        for s in ref.STRATEGIES:
            for f in ref.FIELDS:
                expected[s][f] += agg[s][f]

    # pipeline side over the SAME pages: one payload row per page
    import json

    import ray.data

    from horizon_ocr_python_ray.functions.docformat import DOC_MAGIC
    from horizon_ocr_python_ray.stages.reocr import build_reocr_pipeline

    rows_url, rows_html = [], []
    for key, page in work:
        url, page_no = key.rsplit(":", 1)
        # re-wrap each page as a single-page payload; rasterize keys use
        # url:page-field, which is preserved inside the page dict
        rows_url.append(url)
        rows_html.append(DOC_MAGIC + json.dumps({"pages": [page]}).encode())
    ds = ray.data.from_arrow(pa.table({
        "url": pa.array(rows_url, pa.string()),
        "html": pa.array(rows_html, pa.binary()),
    })).repartition(4)
    got_tab = build_reocr_pipeline(ds)
    got = {r["strategy"]: {f: r[f] for f in ref.FIELDS}
           for r in got_tab.to_pylist()}
    assert got == expected
