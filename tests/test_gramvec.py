"""Vectorized n-gram explode: per-doc value parity with ``doc_ngrams``
under adversarial whitespace/unicode (``\v`` and U+00A0 are not RE2
whitespace; ``Σ`` and ``İ`` lower differently under full case mapping)."""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon_ocr_python_ray.functions.gramvec import explode_distinct_ngrams
from horizon_ocr_python_ray.stages.decontam import doc_ngrams


def _as_sets(t: pa.Table) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for d, g in zip(t.column("doc_id").to_pylist(), t.column("gram").to_pylist()):
        out.setdefault(d, set()).add(g)
    return out


def test_explode_matches_doc_ngrams_fixed():
    texts = [" The  quick brown fox Jumps over the lazy dog ", "", None,
             "a b c d a b c d", "x y", "\t\n  ", "é Ñ É test é ñ é test x",
             "one two three four", "word " * 50]
    t = explode_distinct_ngrams(
        pa.array(range(len(texts)), pa.int64()), pa.array(texts), 4)
    got = _as_sets(t)
    for i, tx in enumerate(texts):
        assert got.get(i, set()) == doc_ngrams(tx or "", 4), i


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet=" \t\n\v\u00a0abAB.é0Σİ", max_size=60), max_size=8),
       st.integers(min_value=1, max_value=5))
def test_explode_matches_doc_ngrams_property(texts, n):
    t = explode_distinct_ngrams(
        pa.array(range(len(texts)), pa.int64()),
        pa.array(texts, pa.string()), n)
    got = _as_sets(t)
    for i, tx in enumerate(texts):
        assert got.get(i, set()) == doc_ngrams(tx, n)


def test_short_docs_emit_nothing():
    t = explode_distinct_ngrams(
        pa.array([7], pa.int64()), pa.array(["a b c"]), 4)
    assert t.num_rows == 0
    assert t.column_names == ["doc_id", "gram"]
