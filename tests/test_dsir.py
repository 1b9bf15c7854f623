"""DSIR-style hashed-unigram importance scoring."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from horizon_ocr_python_ray.functions.fasthash import md5_number_lower
from horizon_ocr_python_ray.functions.textstats import terms
from horizon_ocr_python_ray.stages.dsir import (
    N_BUCKETS,
    WEIGHT_SCALE,
    _term_buckets,
    build_weights,
    dsir_scores,
)


def _docs_tbl():
    rows = [
        (1, "alpha beta alpha", "en"),
        (2, "beta gamma", "en"),
        (3, "gamma gamma delta", "de"),
        (4, "", "en"),
        (5, "alpha delta", "de"),
    ]
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
    })


def _buckets(text):
    return [md5_number_lower(t) % N_BUCKETS for t in terms(text)]


def _brute_weights(tbl, target_lang="en"):
    raw = np.zeros(N_BUCKETS, np.int64)
    tgt = np.zeros(N_BUCKETS, np.int64)
    for text, lang in zip(tbl.column("text").to_pylist(),
                          tbl.column("lang").to_pylist()):
        for b in _buckets(text):
            raw[b] += 1
            if lang == target_lang:
                tgt[b] += 1
    return ((tgt + 1) * WEIGHT_SCALE) // (raw + 1)


def test_weights_match_bruteforce(ray_session):
    import ray.data

    tbl = _docs_tbl()
    w = build_weights(ray.data.from_arrow(tbl).repartition(3))
    assert (w == _brute_weights(tbl)).all()
    # untouched buckets: (0+1)*SCALE // (0+1) = SCALE
    untouched = np.setdiff1d(np.arange(N_BUCKETS),
                             _buckets("alpha beta gamma delta"))
    assert (w[untouched] == WEIGHT_SCALE).all()


def test_scores_match_bruteforce_and_empty_is_zero(ray_session):
    import ray.data

    tbl = _docs_tbl()
    w = _brute_weights(tbl)
    got = dsir_scores(ray.data.from_arrow(tbl)).to_pandas().set_index("doc_id")
    for doc_id, text in zip(tbl.column("doc_id").to_pylist(),
                            tbl.column("text").to_pylist()):
        want = int(w[_buckets(text)].sum()) if text else 0
        assert got.loc[doc_id, "dsir_score_e6"] == want
    assert got.loc[4, "dsir_score_e6"] == 0
    # target-language doc of target-only tokens outscores the raw-only one
    assert got.loc[1, "dsir_score_e6"] > got.loc[3, "dsir_score_e6"]


def test_lang_drift_identical_slices_share_distribution(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.dsir import lang_drift

    # two langs with IDENTICAL token multisets → identical distributions
    # → tv_num = 0 for both; a third, disjoint lang drifts.
    t = pa.table({
        "text": pa.array(["alpha beta", "alpha beta", "gamma gamma"],
                         pa.string()),
        "lang": pa.array(["en", "de", "fr"], pa.string()),
    })
    out = lang_drift(ray.data.from_arrow(t)).to_pandas().set_index("lang")
    # en and de are each half of the alpha/beta mass; fr is all gamma.
    assert out.loc["en", "tv_num"] == out.loc["de", "tv_num"]
    assert out.loc["fr", "tv_num"] > out.loc["en", "tv_num"]
    assert out.loc["fr", "n_tokens"] == 2
    # exact value check: N=6, fr has c=(gamma:2), total gamma=2,
    # alpha=2, beta=2 → tv = |2*6-2*2| + |0*6-2*2| + |0*6-2*2| = 16
    assert out.loc["fr", "tv_num"] == 16


def test_sharding_invariance(ray_session):
    import ray.data

    tbl = _docs_tbl()
    one = dsir_scores(ray.data.from_arrow(tbl)).to_pandas().sort_values("doc_id")
    many = dsir_scores(
        ray.data.from_arrow(tbl).repartition(4)
    ).to_pandas().sort_values("doc_id")
    assert one.dsir_score_e6.tolist() == many.dsir_score_e6.tolist()


def test_bucket_memo_cleared_at_its_bound(monkeypatch):
    from horizon_ocr_python_ray.stages import dsir

    monkeypatch.setattr(dsir, "_BUCKET_CACHE", {})
    monkeypatch.setattr(dsir, "_BUCKET_CACHE_MAX", 3)
    words = [f"w{i}" for i in range(10)]
    got = _term_buckets(pa.array([" ".join(words)]))[0].tolist()
    assert got == [md5_number_lower(w) % N_BUCKETS for w in words]
    # cleared whenever it reached the bound: never more than 3 entries
    assert 0 < len(dsir._BUCKET_CACHE) <= 3
    assert "w9" in dsir._BUCKET_CACHE
