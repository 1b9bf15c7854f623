"""Golden fixture ↔ engine equality for the v6 fixture columns.

The fields/styles fixtures are construction knowledge written by the
generator (``sources/synth.py``); these tests assert the engine's fuse
and style pipelines reproduce them exactly — the same invariant the
driver's ``pages_fields`` / ``pages_styles`` DuckDB oracles check at
sf0.01, kept here at a small scale for fast regression.
"""

from __future__ import annotations

import pytest

from horizon_ocr_python_ray.config import DEFAULT_CONFIG
from horizon_ocr_python_ray.functions.extract_core import decode_pages
from horizon_ocr_python_ray.functions.fuse import fuse_fields
from horizon_ocr_python_ray.sources.synth import gen_corpus
from horizon_ocr_python_ray.stages.fields_stage import candidates_from_text
from horizon_ocr_python_ray.stages.style_stage import doc_styles

N_ROWS = 600


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus(N_ROWS)


def test_fields_fixture_matches_fuse_pipeline(corpus):
    _pages, golden = corpus
    n_docs_with_fields = 0
    for i in range(golden.num_rows):
        text = golden.column("extracted_text")[i].as_py()
        fixture = golden.column("fields")[i].as_py()
        fused = fuse_fields(candidates_from_text(text), DEFAULT_CONFIG.fuse)
        eng = sorted((f.name, f.value, f.n_candidates, f.confidence) for f in fused)
        gld = sorted((d["name"], d["value"], d["n_candidates"], d["confidence"])
                     for d in fixture)
        assert eng == gld, f"row {i}: fused fields diverge from planted fixture"
        if fixture:
            n_docs_with_fields += 1
    assert n_docs_with_fields > 20  # doc route ~15% of rows


def test_styles_fixture_matches_style_pipeline(corpus):
    pages, golden = corpus
    n_checked = n_native = 0
    for i in range(golden.num_rows):
        route = golden.column("route")[i].as_py()
        if route not in ("doc", "image"):
            assert golden.column("styles")[i].as_py() == []
            continue
        payload = pages.column("html")[i].as_py()
        fixture = golden.column("styles")[i].as_py()
        try:
            rows = doc_styles(route, decode_pages(route, payload or b""), DEFAULT_CONFIG)
        except Exception:
            # corrupt planted payload: batch wrapper emits zero rows
            rows = []
        eng = [{"page": r["page"], "line_idx": r["line_idx"], "kind": r["kind"],
                "text_len": r["text_len"], "font_name": r["font_name"],
                "font_size": r["font_size"], "bold": r["bold"],
                "italic": r["italic"], "style_source": r["source"],
                "style_confidence": r["confidence"]} for r in rows]
        assert eng == fixture, f"row {i}: style rows diverge from fixture"
        n_checked += 1
        if fixture and fixture[0]["style_source"] == "native":
            n_native += 1
    assert n_checked > 30
    assert n_native > 5  # digital docs present


def test_reconstruction_counts_derivable_from_golden(corpus):
    """n_elements == span count for heavy routes (the pages_reconstruction
    oracle's identity)."""
    _pages, golden = corpus
    for i in range(golden.num_rows):
        if golden.column("route")[i].as_py() in ("doc", "image"):
            if golden.column("has_error")[i].as_py():
                continue  # corrupt planted payload: no spans by design
            spans = golden.column("spans")[i].as_py()
            assert len(spans) > 0


def test_streamed_generation_matches_in_memory(tmp_path):
    """The streamed large-corpus writer must assemble byte-identical
    rows to gen_corpus (chunked assembly keys off global indices)."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from horizon_ocr_python_ray.sources.synth import (
        _gen_corpus_to_dir,
        gen_corpus,
    )

    n = 2_500
    pages_mem, golden_mem = gen_corpus(n, 42)
    import horizon_ocr_python_ray.sources.synth as synth

    old = synth._STREAM_CHUNK_ROWS
    synth._STREAM_CHUNK_ROWS = 700  # several chunks even at test size
    try:
        _gen_corpus_to_dir(n, 42, str(tmp_path))
    finally:
        synth._STREAM_CHUNK_ROWS = old
    parts = sorted(glob.glob(str(tmp_path / "pages" / "*.parquet")))
    pages_st = pa.concat_tables([pq.read_table(p) for p in parts])
    golden_st = pq.read_table(str(tmp_path / "golden.parquet"))
    assert len(parts) == 4
    assert pages_st.to_pydict() == pages_mem.to_pydict()
    assert golden_st.to_pydict() == golden_mem.to_pydict()
