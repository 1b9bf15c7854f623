"""MinHash/LSH near-dup: kernel determinism + end-to-end pair detection
on constructed near-duplicates."""

from __future__ import annotations

import numpy as np
import pytest
import pyarrow as pa
import ray.data

from horizon_ocr_python_ray.functions.minhash import (
    band_hash_matrix,
    estimated_jaccard,
    exact_jaccard,
    minhash_params,
    minhash_signature,
    shingle_hashes,
)
from horizon_ocr_python_ray.stages.dedup_docs import (
    minhash_near_dup_verified,
    ngram_jaccard_verify,
)

SF_DOCS = "/root/testdata/sf0.001/documents.parquet"


def _pairs(docs):
    """MinHash candidate pairs at the default banding (128 hashes, 32
    bands, 5-token shingles), est ≥ 0.5, any exact Jaccard."""
    return minhash_near_dup_verified(docs, verify_threshold=0.0)


def _sorted(ds):
    key = ["doc_a", "doc_b"]
    return ds.to_pandas().sort_values(key).reset_index(drop=True)


def test_shingle_hashes_deterministic_and_cached():
    t = "the quick brown fox jumps over the lazy dog again and again today"
    a = shingle_hashes(t)
    b = shingle_hashes(t, cache={})
    assert np.array_equal(a, b)
    assert len(a) > 0
    assert exact_jaccard(a, a) == 1.0


def test_minhash_estimates_jaccard():
    base = ("data engine stream batch arrow block shard record table column "
            "field vector index query layout page line text token parse "
            "merge fuse route cache hash split model actor worker cluster") * 3
    variant = base.replace("arrow", "sparrow", 2)
    a_params = minhash_params(256)
    sa = minhash_signature(shingle_hashes(base), *a_params)
    sv = minhash_signature(shingle_hashes(variant), *a_params)
    est = estimated_jaccard(sa, sv)
    true = exact_jaccard(shingle_hashes(base), shingle_hashes(variant))
    assert abs(est - true) < 0.15
    assert true > 0.5


def test_band_hash_matrix_groups_identical_sigs():
    sigs = np.random.RandomState(0).randint(0, 2**63, size=(3, 128)).astype(np.uint64)
    sigs[1] = sigs[0]
    keys = band_hash_matrix(sigs, 16)
    assert keys.shape == (3, 16)
    assert np.array_equal(keys[0], keys[1])
    assert not np.array_equal(keys[0], keys[2])


def _docs_table():
    base = ("data engine stream batch arrow block shard record table column "
            "field vector index query layout page line text token parse "
            "merge fuse route cache hash split model actor worker cluster "
            "node spill shuffle window sample filter reduce extract detect")
    texts = {
        0: base,
        1: base.replace("arrow", "sparrow", 1),    # near-dup of 0
        2: base,                                   # exact dup of 0
        3: "completely different tiny document about nothing in particular",
        4: "another unrelated text with its own distinct vocabulary set here",
    }
    return pa.Table.from_arrays(
        [pa.array(sorted(texts), pa.int64()),
         pa.array([texts[k] for k in sorted(texts)], pa.string())],
        names=["doc_id", "text"],
    )


def test_lsh_pipeline_finds_near_dups():
    docs = ray.data.from_arrow(_docs_table())
    verified = minhash_near_dup_verified(docs).to_pandas()
    found = {tuple(sorted((a, b))) for a, b in zip(verified.doc_a, verified.doc_b)}
    assert (0, 1) in found
    assert (0, 2) in found
    assert (1, 2) in found
    assert all(3 not in p and 4 not in p for p in found)
    assert (verified["jaccard"] >= 0.5).all()
    assert (verified["est_jaccard"] >= 0.5).all()


def test_lsh_pipeline_no_dups_is_empty():
    t = pa.Table.from_arrays(
        [pa.array([0, 1], pa.int64()),
         pa.array(["alpha beta gamma delta epsilon zeta eta theta iota kappa",
                   "one two three four five six seven eight nine ten eleven"],
                  pa.string())],
        names=["doc_id", "text"],
    )
    docs = ray.data.from_arrow(t)
    assert minhash_near_dup_verified(docs).count() == 0


def test_discovery_plans_byte_equal(monkeypatch):
    # the distributed pairing plan (past KEY_FOLD_MAX_ROWS, or past
    # PAIR_COLLECT_MAX_ROWS pairs to expand) must produce exactly the
    # driver plan's output — checked on the constructed corpus and on
    # the driver's sf0.001 documents table
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    docs = ray.data.from_arrow(_docs_table())
    real = ray.data.read_parquet(SF_DOCS, columns=["doc_id", "text"])
    a = _sorted(_pairs(docs))
    ra = _sorted(_pairs(real))
    for cap in ("KEY_FOLD_MAX_ROWS", "PAIR_COLLECT_MAX_ROWS"):
        with monkeypatch.context() as m:
            m.setattr(dd, cap, 0)
            assert _sorted(_pairs(docs)).equals(a)
            assert _sorted(_pairs(real)).equals(ra)
    assert len(a) > 0 and len(ra) > 0


def test_near_dup_clusters_union_find():
    import pandas as pd

    from horizon_ocr_python_ray.stages.dedup_docs import near_dup_clusters

    # components: {1,2,3,9}, {5,6}, singleton pairs absent
    pairs = pa.Table.from_arrays(
        [pa.array([1, 2, 9, 5], pa.int64()),
         pa.array([2, 3, 3, 6], pa.int64())],
        names=["doc_a", "doc_b"],
    )
    pairs_ds = ray.data.from_arrow(pairs)
    expect = {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 6: 5}
    got = {r["doc_id"]: r["cluster_id"] for r in near_dup_clusters(pairs_ds).take_all()}
    assert got == expect


# The pair Dataset's upstream UDF. A lambda, so workers unpickle it by
# value instead of importing this test module.
_pair_udf = lambda t: t  # noqa: E731


def _pair_blocks(case):
    """Two pair blocks per case: two components; a 500-doc path over
    shuffled ids (many rounds); no pairs at all."""
    if case == "two":
        a, b = [1, 2, 9, 5, 40, 41], [2, 3, 3, 6, 5, 40]
    elif case == "path":
        ids = np.random.RandomState(7).permutation(500) * 3 + 11
        a, b = ids[:-1], ids[1:]
    else:
        a = b = []
    half = len(a) // 2
    return [pa.table({"doc_a": pa.array(x, pa.int64()), "doc_b": pa.array(y, pa.int64())})
            for x, y in ((a[:half], b[:half]), (a[half:], b[half:]))]


@pytest.mark.parametrize("case", ["two", "path", "empty"])
def test_near_dup_clusters_plans_agree(ray_session, monkeypatch, udf_calls, case):
    """Under BROADCAST_MAX_EDGES the pairs fold to the driver; past it
    the rounds run over the pair blocks the fold produced. Same labels,
    same typed layout, and the pair UDF runs once per input batch."""
    import sys

    import horizon_ocr_python_ray.stages.linkgraph as lg
    from horizon_ocr_python_ray.stages.dedup_docs import near_dup_clusters

    calls = udf_calls(sys.modules[__name__], "_pair_udf")
    blocks = _pair_blocks(case)

    def run():
        ds = near_dup_clusters(ray.data.from_arrow(blocks).map_batches(
            _pair_udf, batch_format="pyarrow"))
        # typed even when empty (to_pandas drops an empty result's columns)
        assert ds.schema().names == ["doc_id", "cluster_id"]
        assert ds.schema().types == [pa.int64(), pa.int64()]
        return sorted(ds.to_pandas().itertuples(index=False, name=None)), calls()

    want, n = run()
    monkeypatch.setattr(lg, "BROADCAST_MAX_EDGES", 0)
    got, n_past = run()
    assert got == want
    assert n == n_past == (0 if case == "empty" else 2)
    labels = dict(want)
    if case == "two":
        assert labels == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 6: 5, 40: 5, 41: 5}
    elif case == "path":
        assert len(labels) == 500 and set(labels.values()) == {11}
    else:
        assert not labels


def test_batched_signatures_equal_per_doc():
    """minhash_signatures_batch must be value-identical to the per-doc
    kernel for every shape: empty docs, singleton shingles, segments that
    straddle the chunk boundary."""
    import horizon_ocr_python_ray.functions.minhash as mh
    from horizon_ocr_python_ray.functions.minhash import (
        minhash_params, minhash_signature, minhash_signatures_batch)

    a, b = minhash_params(128)
    rng = np.random.RandomState(3)
    arrays = [
        np.empty(0, dtype=np.uint64),
        rng.randint(0, 1 << 63, size=1, dtype=np.uint64),
        rng.randint(0, 1 << 63, size=57, dtype=np.uint64),
        np.empty(0, dtype=np.uint64),
        rng.randint(0, 1 << 63, size=2048, dtype=np.uint64),
    ]
    batch = minhash_signatures_batch(arrays, a, b)
    for i, arr in enumerate(arrays):
        np.testing.assert_array_equal(batch[i], minhash_signature(arr, a, b))

    # chunk-straddling segments: force a tiny chunk so one doc spans many
    old = mh._SIG_CHUNK
    mh._SIG_CHUNK = 64
    try:
        batch2 = minhash_signatures_batch(arrays, a, b)
    finally:
        mh._SIG_CHUNK = old
    np.testing.assert_array_equal(batch, batch2)


def test_simhash_near_dup_exact_vs_bruteforce():
    """Pigeonhole banding must have recall exactly 1: the pipeline's pair
    set equals an all-pairs XOR-popcount over the same sketches."""
    from horizon_ocr_python_ray.functions.minhash import hamming64, simhash64
    from horizon_ocr_python_ray.stages.dedup_docs import simhash_near_dup_pairs

    base = ("the quick brown fox jumps over the lazy dog and keeps on "
            "running through the wide open field at dawn every day").split()
    texts = []
    for i in range(40):
        toks = list(base)
        # perturb a few tokens so sketches land at assorted distances
        for j in range(i % 5):
            toks[(7 * j + i) % len(toks)] = f"tok{i}_{j}"
        texts.append(" ".join(toks))
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    max_h = 3
    got = {(r["doc_a"], r["doc_b"]): r["hamming"]
           for r in simhash_near_dup_pairs(
               ray.data.from_arrow(t), max_hamming=max_h).take_all()}
    hs = [simhash64(x, {}) for x in texts]
    want = {(a, b): hamming64(hs[a], hs[b])
            for a in range(40) for b in range(a + 1, 40)
            if hamming64(hs[a], hs[b]) <= max_h}
    assert got == want
    assert len(want) > 0  # fixture actually exercises the ball


def test_simhash_batch_matches_per_doc_kernel():
    """The batch-vectorized SimHash kernel (Arrow tokenize +
    dictionary-encoded md5 + reduceat bit-majority) is byte-equal to the
    per-document simhash64 on adversarial inputs: empty docs, one-token
    docs, whitespace runs, repeated tokens, mixed case, non-RE2
    whitespace (``\v``, U+00A0), characters whose full and simple case
    mappings differ (``Σ``, ``İ``), batch-leading and batch-trailing
    empties."""
    from horizon_ocr_python_ray.functions.minhash import simhash64
    from horizon_ocr_python_ray.stages.dedup_docs import simhash_batch

    rng = np.random.default_rng(17)
    words = ["alpha", "Beta", "GAMMA", "delta", "x", "longword" * 5]
    texts = ["", "  ", "solo", "a\tb\nc", "dup dup dup dup"]
    texts += [" ".join(rng.choice(words, size=rng.integers(0, 40)))
              for _ in range(60)]
    texts += ["ΟΔΟΣ x", "İstanbul a", "a\u00a0b c\vd", "Σ σ ς ΣΣ"]
    texts += ["", "trailing empty then text", ""]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = simhash_batch(t).column("simhash").to_pylist()
    want = [simhash64(x or "", {}) - (1 << 63) for x in texts]
    assert got == want


def test_simhash_near_dup_plans_equal(monkeypatch):
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    docs = ray.data.from_arrow(_docs_table())

    def run():
        rows = dd.simhash_near_dup_pairs(docs, max_hamming=6).take_all()
        return sorted((r["doc_a"], r["doc_b"], r["hamming"]) for r in rows)

    driver = run()
    for cap in ("KEY_FOLD_MAX_ROWS", "PAIR_COLLECT_MAX_ROWS"):
        with monkeypatch.context() as m:
            m.setattr(dd, cap, 0)
            assert run() == driver
    assert driver  # the exact dup pair (0, 2) is found


def test_verify_plans_row_equal(ray_session, monkeypatch):
    # broadcast vs join-co-located exact-Jaccard verify: identical rows
    # on the sf0.001 documents table (round-3: the distributed plan must
    # replace the driver text dict without changing a single value)
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    real = ray.data.read_parquet(SF_DOCS, columns=["doc_id", "text"])
    pairs = _pairs(real).materialize()
    b = _sorted(dd.ngram_jaccard_verify(real, pairs, threshold=0.5))
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_MAX_DOCS", 0)
    d = _sorted(dd.ngram_jaccard_verify(real, pairs, threshold=0.5))
    assert len(b) > 0
    assert list(b.columns) == list(d.columns)
    assert b.equals(d)


def test_verified_fused_distributed_equals_broadcast(ray_session, monkeypatch):
    # past the cap the one est + exact score runs join-co-located
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    real = ray.data.read_parquet(SF_DOCS, columns=["doc_id", "text"])
    b = _sorted(dd.minhash_near_dup_verified(real))
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_MAX_DOCS", 0)
    d = _sorted(dd.minhash_near_dup_verified(real))
    assert len(b) > 0
    assert b.equals(d)


def test_verified_past_key_and_pair_caps_equals_default(ray_session, monkeypatch):
    """Past KEY_FOLD_MAX_ROWS the pairing runs distributed; past
    PAIR_COLLECT_MAX_ROWS too, scoring joins the texts onto the pair
    blocks the fold streamed. Same rows as the default plan."""
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    real = ray.data.read_parquet(SF_DOCS, columns=["doc_id", "text"])
    want = _sorted(dd.minhash_near_dup_verified(real))
    monkeypatch.setattr(dd, "KEY_FOLD_MAX_ROWS", 0)
    assert _sorted(dd.minhash_near_dup_verified(real)).equals(want)
    monkeypatch.setattr(dd, "PAIR_COLLECT_MAX_ROWS", 0)
    assert _sorted(dd.minhash_near_dup_verified(real)).equals(want)
    assert len(want) > 0


def test_verify_broadcast_cap_switches(ray_session, monkeypatch):
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    docs = ray.data.from_arrow(_docs_table())
    pairs = _pairs(docs).materialize()
    want = (dd.ngram_jaccard_verify(docs, pairs, threshold=0.5)
            .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_MAX_DOCS", 1)
    # over the cap the join plan runs, with the same rows
    got = (dd.ngram_jaccard_verify(docs, pairs, threshold=0.5)
           .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True))
    assert len(want) > 0
    assert got.equals(want)


def test_verify_collects_pairs_once(ray_session, monkeypatch, udf_calls):
    """ngram_jaccard_verify collects the pairs once and verifies what it
    collected; past PAIR_COLLECT_MAX_ROWS the join plan runs over the
    pair blocks already produced. Either way the lazy pair UDF upstream
    runs once per batch, with identical rows."""
    import sys

    import horizon_ocr_python_ray.stages.dedup_docs as dd

    docs = ray.data.from_arrow(_docs_table())
    cand = pa.Table.from_pandas(_pairs(docs).to_pandas()[["doc_a", "doc_b"]],
                                preserve_index=False)
    calls = udf_calls(sys.modules[__name__], "_pair_udf")

    def run():
        pairs = ray.data.from_arrow(cand).map_batches(
            _pair_udf, batch_format="pyarrow")
        return _sorted(dd.ngram_jaccard_verify(docs, pairs, threshold=0.5)), calls()

    want, n = run()
    assert n == 1 and len(want) > 0
    monkeypatch.setattr(dd, "PAIR_COLLECT_MAX_ROWS", 0)
    got, n = run()
    assert n == 1
    assert got.equals(want)


def test_est_jaccard_join_path_equals_broadcast(ray_session, monkeypatch):
    import horizon_ocr_python_ray.stages.dedup_docs as dd

    docs = ray.data.from_arrow(_docs_table())
    key = ["doc_a", "doc_b"]
    want = (_pairs(docs).to_pandas()
            .sort_values(key).reset_index(drop=True))
    monkeypatch.setattr(dd, "VERIFY_BROADCAST_MAX_DOCS", 1)
    got = (_pairs(docs).to_pandas()
           .sort_values(key).reset_index(drop=True))
    assert len(want) > 0
    assert got.equals(want)
