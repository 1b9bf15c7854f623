"""Winnowing fingerprints: vectorized batch kernel vs a naive per-doc
reference, plus the scheme's guarantee properties."""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from horizon_ocr_python_ray.functions.fasthash import md5_number_lower
from horizon_ocr_python_ray.stages.winnow import (
    DEFAULT_K,
    DEFAULT_MAX_DF,
    DEFAULT_W,
    winnow_batch,
)


def naive_winnow(text: str, k: int = DEFAULT_K, w: int = DEFAULT_W):
    toks = [t for t in (text or "").lower().split() if t]
    grams = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    hs = [md5_number_lower(g) for g in grams]
    if not hs:
        return 0, 0, -(1 << 63)
    if len(hs) <= w:
        mins = [min(hs)]
    else:
        mins = [min(hs[j:j + w]) for j in range(len(hs) - w + 1)]
    u = set(mins)
    x = 0
    for v in u:
        x ^= v
    return len(hs), len(u), x - (1 << 63)


TEXTS = [
    "",
    "   ",
    "one",
    "one two",
    "one two three",                      # exactly k tokens: m=1
    "a b c d e f",                        # m=4=w: one extra window? m-w+1=1
    "a b c d e f g",                      # m=5>w
    "the quick brown fox jumps over the lazy dog " * 3,
    "x y z " * 40,                        # heavy gram repetition
    "alpha beta gamma delta epsilon zeta eta theta iota kappa",
    "Tab\tand\nnewline   spaced tokens here ok",
    None,
]


def test_winnow_batch_matches_naive():
    ids = list(range(len(TEXTS)))
    batch = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(TEXTS, pa.string())})
    out = winnow_batch(batch)
    got = {r["doc_id"]: (r["n_grams"], r["n_fp"], r["fp_xor"])
           for r in out.to_pylist()}
    for i, t in enumerate(TEXTS):
        assert got[i] == naive_winnow(t), (i, t)


def test_winnow_shared_substring_guarantee():
    """Docs sharing a substring of >= w+k-1 tokens share a fingerprint
    (the winnowing detection threshold)."""
    shared = "lorem ipsum dolor sit amet consectetur"  # 6 = w+k-1 tokens
    a = "zebra yak xylophone " + shared + " walrus vulture"
    b = "apple banana " + shared + " cherry date elderberry fig"

    def fp_set(text):
        toks = text.lower().split()
        grams = [" ".join(toks[i:i + DEFAULT_K])
                 for i in range(len(toks) - DEFAULT_K + 1)]
        hs = [md5_number_lower(g) for g in grams]
        return {min(hs[j:j + DEFAULT_W])
                for j in range(len(hs) - DEFAULT_W + 1)}

    assert fp_set(a) & fp_set(b)


def test_winnow_density():
    """Selected-fingerprint count is far below the gram count on random
    text (expected density ~2/(w+1)) but never zero for m >= 1."""
    rng = np.random.default_rng(7)
    words = [f"w{int(v)}" for v in rng.integers(0, 5000, size=2000)]
    batch = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array([" ".join(words)], pa.string())})
    row = winnow_batch(batch).to_pylist()[0]
    assert 0 < row["n_fp"] < row["n_grams"]
    density = row["n_fp"] / row["n_grams"]
    assert 0.2 < density < 0.6  # ~2/(w+1) = 0.4 for w=4


def test_winnow_shared_pairs_matches_naive(ray_session):
    """Distributed pair discovery == naive all-pairs intersection over
    the same fingerprint sets (df cap + min_shared applied)."""
    import itertools

    import ray.data

    from horizon_ocr_python_ray.stages.winnow import winnow_shared_pairs

    docs = [
        "the quick brown fox jumps over the lazy dog tonight",
        "a quick brown fox jumps over the lazy dog again ok",  # near-dup
        "completely different words entirely here nothing alike at all",
        "the quick brown fox jumps over the lazy dog tonight",  # exact dup of 0
        "one two three four five six seven eight nine ten",
        "shared boilerplate line here " * 3 + "unique alpha",
        "shared boilerplate line here " * 3 + "unique beta",
    ]
    ids = list(range(len(docs)))

    def fpset(text):
        n, nf, x = naive_winnow(text)
        toks = text.lower().split()
        grams = [" ".join(toks[i:i + DEFAULT_K])
                 for i in range(len(toks) - DEFAULT_K + 1)]
        hs = [md5_number_lower(g) for g in grams]
        if not hs:
            return set()
        if len(hs) <= DEFAULT_W:
            mins = [min(hs)]
        else:
            mins = [min(hs[j:j + DEFAULT_W])
                    for j in range(len(hs) - DEFAULT_W + 1)]
        return set(mins)

    sets = {i: fpset(t) for i, t in zip(ids, docs)}
    df = {}
    for s in sets.values():
        for f in s:
            df[f] = df.get(f, 0) + 1
    ok = {f for f, c in df.items() if 2 <= c <= 50}
    want = {}
    for a, b in itertools.combinations(ids, 2):
        n = len(sets[a] & sets[b] & ok)
        if n >= 2:
            want[(a, b)] = n

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(docs, pa.string())}))
    got = {(r["doc_a"], r["doc_b"]): r["n_shared"]
           for r in winnow_shared_pairs(ds).take_all()}
    assert got == want
    assert (0, 3) in got  # the exact duplicate pair is found


def test_winnow_shared_pairs_plans_equal(ray_session, monkeypatch):
    """Past KEY_FOLD_MAX_ROWS, or past PAIR_COLLECT_MAX_ROWS pairs to
    expand, the fingerprint pairing runs distributed, with the rows of
    the driver pairing, on the sf0.001 documents — also under a df cap
    low enough to drop fingerprints."""
    import ray.data

    import horizon_ocr_python_ray.stages.dedup_docs as dd
    from horizon_ocr_python_ray.stages.winnow import winnow_shared_pairs

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                                 columns=["doc_id", "text"])

    def run(max_df):
        return sorted(tuple(r.values()) for r in
                      winnow_shared_pairs(docs, max_df=max_df).take_all())

    want, capped = run(DEFAULT_MAX_DF), run(2)
    for cap in ("KEY_FOLD_MAX_ROWS", "PAIR_COLLECT_MAX_ROWS"):
        with monkeypatch.context() as m:
            m.setattr(dd, cap, 0)
            assert run(DEFAULT_MAX_DF) == want
            assert run(2) == capped
    assert want and capped and capped != want
