"""Exact n-gram Jaccard all-pairs (stages/jaccard.py): prefix-filtered
plan vs a naive all-pairs reference."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import ray

from horizon_ocr_python_ray.stages.jaccard import (
    _md5_shingle_set,
    _prefix_len,
    jaccard_near_dup_pairs,
)


def _docs(rows):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
    })).repartition(3)


def _naive(rows, k=5, thr_num=1, thr_den=2):
    sets = {d: _md5_shingle_set(t, k) for d, t in rows}
    out = set()
    for (a, sa), (b, sb) in itertools.combinations(
            sorted(sets.items()), 2):
        inter = int(np.intersect1d(sa, sb, assume_unique=True).size)
        union = int(sa.size + sb.size - inter)
        if union > 0 and thr_den * inter >= thr_num * union:
            out.add((a, b, inter, union))
    return out


def _run(rows, **kw):
    got = jaccard_near_dup_pairs(_docs(rows), **kw).to_pandas()
    if got.empty:  # Ray to_pandas drops columns on all-empty blocks
        return set()
    return {tuple(int(v) for v in r)
            for r in got[["doc_a", "doc_b", "n_inter", "n_union"]]
            .itertuples(index=False, name=None)}


WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india "
         "juliet kilo lima mike november oscar papa").split()


def _synth(n_docs=30, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for d in range(1, n_docs + 1):
        toks = rng.choice(WORDS, size=rng.integers(8, 20)).tolist()
        rows.append((d, " ".join(toks)))
    # planted near-dups: copy with a small tail edit
    base = rows[0][1]
    rows.append((100, base + " zulu"))
    rows.append((101, rows[1][1]))  # exact dup of doc 2
    return rows


def test_matches_naive_all_pairs():
    rows = _synth()
    assert _run(rows) == _naive(rows)


def test_exact_dup_pair_has_jaccard_one():
    rows = _synth()
    got = _run(rows)
    exact = [(a, b, i, u) for (a, b, i, u) in got
             if (a, b) == (2, 101)]
    assert len(exact) == 1
    _, _, inter, union = exact[0]
    assert inter == union  # identical sets


def test_threshold_is_integer_exact():
    # two docs engineered to share exactly half their union
    a = "one two three four five six seven eight nine"      # 5 grams
    b = "one two three four five sixx seven eight nine ten"  # 6 grams
    rows = [(1, a), (2, b)]
    sa, sb = _md5_shingle_set(a, 5), _md5_shingle_set(b, 5)
    inter = np.intersect1d(sa, sb).size
    union = sa.size + sb.size - inter
    got = _run(rows, thr_num=inter, thr_den=union)  # τ == exact J
    assert (1, 2, inter, union) in got
    assert _run(rows, thr_num=inter + 1, thr_den=union) == set()


def test_short_docs_never_pair():
    rows = [(1, "tiny doc"), (2, "tiny doc"), (3, "x")]
    assert _run(rows) == set()


def test_prefix_len_bounds():
    n = np.array([1, 2, 3, 10, 11])
    lp = _prefix_len(n, 1, 2)
    assert (lp >= 1).all() and (lp <= n).all()
    # τ=1 (exact dup): prefix collapses to a single gram
    assert (_prefix_len(n, 1, 1) == 1).all()


def test_distributed_verify_plan_is_row_identical(monkeypatch):
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    rows = _synth(n_docs=15, seed=9)
    broadcast = _run(rows)
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_MAX_DOCS", 0)
    assert _run(rows) == broadcast == _naive(rows)


def test_auto_plan_caps_candidate_collect(monkeypatch, udf_calls):
    """A dup-heavy corpus past PAIR_COLLECT_MAX_ROWS must route to the
    distributed pairing and verify (never a full driver collect) with
    identical pairs, over the blocks already produced: the gram rows are
    built once."""
    import horizon_ocr_python_ray.stages.dedup_docs as dd
    from horizon_ocr_python_ray.stages import jaccard as jmod

    # every doc duplicates one of 3 base texts → dense candidate set
    base = _synth(n_docs=3, seed=5)[:3]
    rows = [(i + 1, base[i % 3][1]) for i in range(24)]
    calls = udf_calls(jmod, "_distinct_gram_hash_rows")
    distributed = udf_calls(dd, "_pairs_distributed")
    joined = udf_calls(dd, "attach_pair_texts")
    want = _naive(rows)
    assert _run(rows) == want
    n = calls()
    assert n > 0
    assert (distributed(), joined()) == (0, 0)
    monkeypatch.setattr(dd, "PAIR_COLLECT_MAX_ROWS", 0)
    assert _run(rows) == want
    assert calls() == n
    assert (distributed(), joined()) == (1, 1)


def test_key_fold_plans_equal(monkeypatch):
    """Past KEY_FOLD_MAX_ROWS the prefix-gram pairing runs distributed,
    with the rows of the driver pairing."""
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    rows = _synth(n_docs=20, seed=4)
    want = _run(rows)
    monkeypatch.setattr(dd, "KEY_FOLD_MAX_ROWS", 0)
    assert _run(rows) == want == _naive(rows)
    assert want


def test_verify_sets_kept_for_one_sweep_only(ray_session):
    """The broadcast verify's per-worker gram-set memo lives in one
    worker_state slot keyed by the sweep's ref: a new sweep drops the
    previous sweep's sets."""
    import functools

    from horizon_ocr_python_ray.stages import dedup_docs as dd
    from horizon_ocr_python_ray.stages import jaccard as jmod
    from horizon_ocr_python_ray.state import worker

    pairs = pa.table({"doc_a": pa.array([1], pa.int64()),
                      "doc_b": pa.array([2], pa.int64())})
    schema = pa.schema([*dd.PAIR_IDS_SCHEMA, ("n_inter", pa.int64()),
                        ("n_union", pa.int64())])
    text = "alpha bravo charlie delta echo foxtrot"
    for _ in range(2):
        ref = ray.put({1: text, 2: text})
        out = dd._score_broadcast_task(
            pairs, ref, functools.partial(jmod._md5_shingle_set, k=5),
            functools.partial(jmod._inter_union, thr_num=1, thr_den=2), schema)
        assert out.column("n_inter").to_pylist() == [2]
        key, (_texts, sets) = worker._SLOTS["pair_features"]
        assert key == ref.hex() and sorted(sets) == [1, 2]
