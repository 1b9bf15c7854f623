"""LSH recall vs exact variants (stages/ann.py).

The banded multi-table parameters are chosen so the approximate paths
equal their exact counterparts on the driver's test embeddings — these
tests pin that equality (the scale paths must not be recall-broken).
"""

from __future__ import annotations

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from horizon_ocr_python_ray.stages.ann import (
    BandedLSH,
    brute_force_topk,
    embedding_near_dup_pairs,
    embedding_near_dup_pairs_lsh,
    lsh_bucketed_topk,
)

SF_DIR = "/root/testdata/sf0.001"


def _emb_ds():
    return ray.data.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _pair_set(ds):
    return {(r["vec_a"], r["vec_b"], r["sim_e6"]) for r in ds.take_all()}


def test_banded_lsh_keys_shapes_and_determinism():
    lsh = BandedLSH(dim=8, n_tables=4, n_planes=3)
    v = np.random.RandomState(0).standard_normal((10, 8))
    k1, k2 = lsh.bucket_keys(v), BandedLSH(8, 4, 3).bucket_keys(v)
    assert k1.shape == (10, 4)
    assert (k1 == k2).all()
    # folded keys are unique per table: low bits carry the table index
    assert set(k1[0] & ((1 << lsh.table_bits) - 1)) == {0, 1, 2, 3}


def test_probe_keys_include_own_and_hamming1():
    lsh = BandedLSH(dim=8, n_tables=2, n_planes=3)
    v = np.random.RandomState(1).standard_normal(8)
    own = lsh.bucket_keys(v[None, :])[0]
    probed = lsh.probe_keys(v, n_probes=1)
    assert set(own).issubset(set(probed))
    # per table: own bucket + n_planes Hamming-1 neighbors
    assert len(probed) == 2 * (1 + 3)


def test_emb_near_dup_lsh_equals_exact():
    ds = _emb_ds()
    dim = len(ds.take(1)[0]["embedding"])
    exact = _pair_set(embedding_near_dup_pairs(ds, threshold=0.4))
    approx = _pair_set(embedding_near_dup_pairs_lsh(ds, threshold=0.4, dim=dim))
    assert len(exact) > 0
    assert approx == exact


def test_lsh_topk_equals_brute_force():
    ds = _emb_ds()
    q = np.array(ds.sort("vec_id").take(1)[0]["embedding"], dtype=np.float64)
    brute = brute_force_topk(ds, q, k=10).to_pandas()
    lsh = lsh_bucketed_topk(ds, q, k=10, dim=len(q)).to_pandas()
    assert list(lsh["vec_id"]) == list(brute["vec_id"])
    assert list(lsh["rank"]) == list(brute["rank"])


def test_exact_pairs_match_numpy_reference():
    # independent O(n²) numpy check of the block-matmul sweep
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    m = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    i, j = np.nonzero(np.triu(sims >= 0.4, k=1))
    expected = {
        (int(min(ids[a], ids[b])), int(max(ids[a], ids[b])),
         int(round(sims[a, b] * 1e6)))
        for a, b in zip(i, j)
    }
    got = _pair_set(embedding_near_dup_pairs(_emb_ds(), threshold=0.4))
    assert got == expected


def test_ivf_topk_equals_brute_force():
    from horizon_ocr_python_ray.stages.ann import ivf_topk

    emb = _emb_ds()
    q = np.array(emb.sort("vec_id").take(1)[0]["embedding"], dtype=np.float64)
    bf = brute_force_topk(_emb_ds(), q, k=10).to_pandas()
    ivf = ivf_topk(_emb_ds(), q, k=10, n_clusters=8).to_pandas()
    cols = ["query_idx", "vec_id", "rank"]
    assert ivf.sort_values("rank")[cols].values.tolist() == \
        bf.sort_values("rank")[cols].values.tolist()
    assert np.allclose(ivf.sort_values("rank")["score"].to_numpy(),
                       bf.sort_values("rank")["score"].to_numpy())


def test_ivf_bound_is_sound():
    # the pruning invariant: for every vector, q·x ≤ q·c(x) + ‖x−c(x)‖
    from horizon_ocr_python_ray.stages.ann import _normalize, train_centroids

    tbl = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["embedding"])
    mat = _normalize(np.array(tbl.column("embedding").to_pylist(), dtype=np.float64))
    cents = train_centroids(_emb_ds(), n_clusters=8)
    q = mat[0]
    assign = (mat @ cents.T - 0.5 * (cents ** 2).sum(axis=1)[None, :]).argmax(axis=1)
    resid = np.linalg.norm(mat - cents[assign], axis=1)
    scores = mat @ q
    ub = cents @ q
    assert (scores <= ub[assign] + resid + 1e-12).all()


def test_lsh_miss_probability_math():
    # the parameter contract: (1 - p^r)^b at the query threshold must be
    # negligible for the defaults used by the driver queries
    s = 0.4
    p = 1 - np.arccos(s) / np.pi
    miss = (1 - p**2) ** 32
    assert miss < 1e-6


if __name__ == "__main__":
    pytest.main([__file__, "-x", "-q"])


def test_smallest_id_rows_matches_sort():
    from horizon_ocr_python_ray.stages.ann import smallest_id_rows

    ds = _emb_ds()
    got = smallest_id_rows(ds, 8)
    want = ds.sort("vec_id").take(8)
    assert got.column("vec_id").to_pylist() == [r["vec_id"] for r in want]
    assert got.num_rows == 8


def test_batched_brute_force_matches_per_query():
    ds = _emb_ds()
    rows = ds.sort("vec_id").take(3)
    qmat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    batched = brute_force_topk(ds, qmat, k=5).to_pandas()
    for qi in range(3):
        single = brute_force_topk(ds, qmat[qi], k=5).to_pandas()
        mine = batched[batched["query_idx"] == qi].reset_index(drop=True)
        assert mine["vec_id"].tolist() == single["vec_id"].tolist()
        assert mine["rank"].tolist() == single["rank"].tolist()


def test_batched_lsh_topk_equals_batched_brute_force():
    ds = _emb_ds()
    dim = len(ds.take(1)[0]["embedding"])
    rows = ds.sort("vec_id").take(3)
    qmat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    brute = brute_force_topk(ds, qmat, k=5).to_pandas()
    lsh = lsh_bucketed_topk(ds, qmat, k=5, dim=dim).to_pandas()
    key = ["query_idx", "rank"]
    b = brute.sort_values(key).reset_index(drop=True)
    l = lsh.sort_values(key).reset_index(drop=True)
    assert b["vec_id"].tolist() == l["vec_id"].tolist()


def test_brute_force_topk_runs_no_groupby(monkeypatch):
    """The per-query top-k merges on the driver (``collect.top_k``), not
    in a ``groupby(query_idx)`` sort shuffle; the result equals a numpy
    full ranking."""
    from horizon_ocr_python_ray.stages.ann import _normalize

    def no_groupby(self, *args, **kwargs):
        raise AssertionError("brute_force_topk ran Dataset.groupby")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_groupby)
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.array(t.column("embedding").to_pylist(), dtype=np.float64)
    qmat = mat[:3]
    got = brute_force_topk(_emb_ds().repartition(4), qmat, k=5)
    assert got.column_names == ["query_idx", "vec_id", "score", "rank"]
    sims = _normalize(mat) @ _normalize(qmat).T
    for qi in range(3):
        mine = got.filter(pc.equal(got.column("query_idx"), qi))
        order = np.lexsort((ids, -sims[:, qi]))[:5]
        assert mine.column("vec_id").to_pylist() == ids[order].tolist()
        assert np.allclose(mine.column("score").to_numpy(), sims[order, qi])
        assert mine.column("rank").to_pylist() == [1, 2, 3, 4, 5]
