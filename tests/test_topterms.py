"""Top-k distinctive terms (two-phase DF + broadcast scoring)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from horizon_ocr_python_ray.stages.topterms import (
    BROADCAST_VOCAB_MAX,
    _explode_tf,
    _partial_df,
    build_rank_table,
    doc_top_terms,
)


def _docs_table():
    return pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "apple apple banana cherry",
            "banana banana cherry",
            "  ",  # whitespace-only doc → no rows
        ], pa.string()),
    })


def test_partial_df_counts_docs_not_occurrences():
    out = _partial_df(_docs_table())
    df = dict(zip(out.column("term").to_pylist(), out.column("partial_df").to_pylist()))
    assert df == {"apple": 1, "banana": 2, "cherry": 2}


def test_doc_terms_lowercases():
    out = _explode_tf(pa.table({"doc_id": pa.array([4], pa.int64()),
                                "text": ["Apple APPLE banana"]}))
    assert sorted(zip(out.column("doc_id").to_pylist(), out.column("term").to_pylist(),
                      out.column("tf").to_pylist())) == [(4, "apple", 2), (4, "banana", 1)]


def test_top_terms_ranking(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_docs_table())
    out = doc_top_terms(ds, k=2).to_pandas().sort_values(["doc_id", "rank"])
    rows = list(out.itertuples(index=False, name=None))
    # doc 0: apple tf=2 first; banana/cherry tie on tf=1 → rarer df wins
    # (both df=2) → term asc → banana
    assert rows[0] == (0, "apple", 2, 1, 1)
    assert rows[1] == (0, "banana", 1, 2, 2)
    # doc 1: banana tf=2, cherry tf=1
    assert rows[2] == (1, "banana", 2, 2, 1)
    assert rows[3] == (1, "cherry", 1, 2, 2)
    # doc 2 (whitespace-only) emits nothing
    assert len(rows) == 4


def test_join_plan_equals_broadcast(ray_session, monkeypatch, udf_calls):
    import ray.data

    import horizon_ocr_python_ray.stages.topterms as tt

    cols = ["doc_id", "term", "tf", "df", "rank"]
    ds = ray.data.from_arrow(_docs_table()).repartition(2).materialize()
    calls = udf_calls(tt, "_partial_df")

    def run():
        return (doc_top_terms(ds, k=2)
                .to_pandas().sort_values(["doc_id", "rank"])
                .reset_index(drop=True)[cols].values.tolist())

    bc = run()
    assert calls() == ds.num_blocks()
    monkeypatch.setattr(tt, "BROADCAST_VOCAB_MAX", 0)  # join plan
    assert run() == bc
    assert calls() == ds.num_blocks()  # the join's DF reuses the partials


def test_auto_plan_falls_back_to_join(ray_session, monkeypatch):
    import ray.data

    import horizon_ocr_python_ray.stages.topterms as tt

    monkeypatch.setattr(tt, "BROADCAST_VOCAB_MAX", 2)
    ds = ray.data.from_arrow(_docs_table())
    out = doc_top_terms(ds, k=2).to_pandas()
    assert len(out) == 4  # same result through the join plan


def test_vocab_guard(ray_session, monkeypatch):
    import ray.data

    import horizon_ocr_python_ray.stages.topterms as tt

    # the rank table has no distributed plan: past the cap it refuses
    monkeypatch.setattr(tt, "BROADCAST_VOCAB_MAX", 2)
    ds = ray.data.from_arrow(_docs_table())
    with pytest.raises(ValueError, match="exceeds broadcast bound"):
        build_rank_table(ds)
    assert BROADCAST_VOCAB_MAX > 2  # module default untouched


def test_corpus_postings_matches_bruteforce(ray_session):
    import hashlib

    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.functions.textstats import tokens
    from horizon_ocr_python_ray.stages.postings import corpus_postings

    texts = ["alpha beta beta gamma", "beta gamma delta", "alpha alpha zeta",
             "gamma beta", "", "zeta alpha"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = (corpus_postings(ray.data.from_arrow(t).repartition(3), min_df=2)
           .to_pandas().sort_values("term").reset_index(drop=True))

    inv = {}
    for did, text in enumerate(texts):
        for term in set(tokens(text.lower())):
            inv.setdefault(term, []).append(did)
    want = {term: ids for term, ids in inv.items() if len(ids) >= 2}
    assert set(got["term"]) == set(want)
    for _, r in got.iterrows():
        ids = sorted(want[r["term"]])
        assert r["df"] == len(ids)
        assert r["postings_md5"] == hashlib.md5(
            ",".join(map(str, ids)).encode()).hexdigest()
