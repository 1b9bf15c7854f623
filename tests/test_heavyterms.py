"""Corpus heavy hitters (stages/heavyterms.py): exact top-k, driver
fold vs the shuffle past FOLD_VOCAB_MAX."""

from __future__ import annotations

import pyarrow as pa

from horizon_ocr_python_ray.stages import heavyterms
from horizon_ocr_python_ray.stages.heavyterms import corpus_top_terms


def _docs_ds(texts):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})).repartition(4)


def test_exact_topk_counts_and_ranking(ray_session):
    texts = ["a a a b", "b c", "a b b", ""]
    out = corpus_top_terms(_docs_ds(texts), k=3).to_pylist()
    # a:4 b:4 c:1 — tie on 4 broken by term asc.
    assert [(r["term"], r["n"], r["rank"]) for r in out] == [
        ("a", 4, 1), ("b", 4, 2), ("c", 1, 3)]


def test_auto_fold_plan_equals_shuffle(ray_session, monkeypatch, udf_calls):
    texts = ["a a b c d", "b b e", "a f g b", "h"]
    ds = _docs_ds(texts).materialize()
    calls = udf_calls(heavyterms, "_partial_tf")
    a = corpus_top_terms(ds, k=4).to_pylist()
    assert calls() == ds.num_blocks()
    # vocab cap: a tiny bound forces the shuffle fallback, same result
    monkeypatch.setattr(heavyterms, "FOLD_VOCAB_MAX", 2)
    b = corpus_top_terms(ds, k=4).to_pylist()
    assert calls() == ds.num_blocks()  # the shuffle reuses the partials
    assert a == b == [{"term": "b", "n": 4, "rank": 1},
                      {"term": "a", "n": 3, "rank": 2},
                      {"term": "c", "n": 1, "rank": 3},
                      {"term": "d", "n": 1, "rank": 4}]


def test_top_bigrams_plans_equal_and_match_bruteforce(ray_session, monkeypatch):
    from collections import Counter

    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.functions.textstats import tokens
    from horizon_ocr_python_ray.stages.heavyterms import corpus_top_bigrams

    texts = ["the cat sat on the mat", "the cat ran", "a cat sat on a mat",
             "single", "", "the cat sat again and the cat sat"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(t).repartition(3)

    want = Counter()
    for x in texts:
        tk = [w.lower() for w in tokens(x)]
        want.update(f"{a} {b}" for a, b in zip(tk, tk[1:]))
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:5]

    for cap in (heavyterms.FOLD_VOCAB_MAX, 0):  # driver fold, shuffle
        monkeypatch.setattr(heavyterms, "FOLD_VOCAB_MAX", cap)
        got = corpus_top_bigrams(ds, k=5).to_pylist()
        assert [(r["term"], r["n"]) for r in got] == top, cap
        assert [r["rank"] for r in got] == list(range(1, len(top) + 1))
