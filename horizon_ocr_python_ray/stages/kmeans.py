"""Distributed k-means cluster assignment over an embedding column —
the clustering substrate behind SemDeDup-style semantic dedup and
cluster-balanced sampling (group docs by embedding cluster, then dedup
or budget within clusters).

Algorithm (pinned for cross-engine exactness — every step is integer):

1. **Seeds** = the embeddings of the ``k`` smallest ``vec_id`` rows
   (deterministic farthest thing from ``Math.random``), fixed-pointed
   to e6 int64 per element (``round(x·1e6)`` half away from zero —
   the :mod:`.vecagg` contract).
2. **Assign** (iteration 1): nearest seed by squared L2 distance in
   int64 (elements ≤ ~6e5 e6-units ⇒ 64-dim distances ≤ ~1e14, exact);
   ties break to the smaller centroid id.
3. **Update**: new centroid element = ``floor(sum_e6 / n)`` — floor
   division of the exact int64 member sums, so both engines compute
   the identical integer centroid (DuckDB ``//`` truncates toward
   zero, so the oracle spells it ``CAST(floor(s::DOUBLE/n) AS
   BIGINT)``; the double division is exact-enough: |s| < 2^53 and the
   true quotient is a rational ≥ 1e-5 away from the nearest integer
   when not exactly integral).
4. **Assign** (iteration 2): final assignment against the updated
   centroids.

Scale shape: seeds via ``collect.top_k`` (block-local min-k trims, one
driver merge; never a global sort); each assign pass is one stateless
``map_batches`` against a ``ray.put`` broadcast centroid matrix (k×d
ints — k·d ≪ memory for any sane k); the update reuses the
:func:`.vecagg.emb_centroids` combiner shape (one narrow
``groupby(cluster, dim).sum`` whose row count is k×d per batch,
corpus-size-independent). Output is one ``(vec_id, cluster, dist)``
row per vector — streaming, never a per-cluster member-list
materialization.

Empty clusters keep their previous centroid (iteration-1 seed), the
conventional Lloyd rule — pinned here and mirrored in the oracle via a
COALESCE join back to the seed table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data.aggregate import Sum

from ..functions.collect import iter_tables, top_k
from .vecagg import EMB_SCALE, _batch_matrix, _round_half_away


def _scaled(batch: pa.Table, emb_col: str) -> np.ndarray:
    mat = _batch_matrix(batch, emb_col)
    if mat.size == 0:
        return np.empty((0, 0), np.int64)
    return _round_half_away(mat.astype(np.float64) * EMB_SCALE).astype(np.int64)


def _assign(x: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid by int64 squared L2; ties → smaller centroid id
    (``argmin`` returns the first minimum and centroid rows are stored
    in id order)."""
    # (n, k) distance matrix; chunk k to keep the temp small if needed.
    d2 = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    cl = d2.argmin(axis=1)
    return cl.astype(np.int64), d2[np.arange(len(cl)), cl]


def _seed_centroids(emb_ds, k: int, id_col: str, emb_col: str) -> np.ndarray:
    """The embeddings of the k smallest ids (``collect.top_k``), in e6."""
    seeds = top_k(emb_ds.select_columns([id_col, emb_col]),
                  [(id_col, "ascending")], k, None)
    return _scaled(seeds, emb_col)


def kmeans_centroids(emb_ds, k: int = 8, id_col: str = "vec_id",
                     emb_col: str = "embedding") -> np.ndarray:
    """Iteration-2 centroid matrix (k × d int64 e6) of the pinned
    two-iteration Lloyd algorithm — the broadcastable cluster model
    behind :func:`emb_kmeans` and :func:`emb_semdedup`."""
    seeds = _seed_centroids(emb_ds, k, id_col, emb_col)
    k = len(seeds)
    sref = ray.put(seeds)

    def sum_partial(t: pa.Table) -> pa.Table:
        """Iteration-1 assignment folded into the centroid-sum combiner
        (the vecagg reduceat shape, keyed by the computed cluster)."""
        x = _scaled(t, emb_col)
        if x.size == 0:
            return pa.table({"cluster": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "p_s": pa.array([], pa.int64()),
                             "p_n": pa.array([], pa.int64())})
        cl, _ = _assign(x, ray.get(sref))
        order = np.argsort(cl, kind="stable")
        sc = cl[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        seg = np.add.reduceat(x[order], starts, axis=0)
        ns = np.diff(np.r_[starts, len(sc)])
        uniq = sc[starts]
        dim = x.shape[1]
        return pa.table({
            "cluster": pa.array(np.repeat(uniq, dim), pa.int64()),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq)), pa.int64()),
            "p_s": pa.array(seg.ravel(), pa.int64()),
            "p_n": pa.array(np.repeat(ns.astype(np.int64), dim), pa.int64()),
        })

    sums = (emb_ds.map_batches(sum_partial, batch_format="pyarrow")
            .groupby(["cluster", "dim"])
            .aggregate(Sum("p_s", alias_name="s"), Sum("p_n", alias_name="n")))
    dim = seeds.shape[1]
    cents = seeds.copy()  # empty clusters keep their seed centroid
    acc = np.zeros((k, dim), np.int64)
    cnt = np.zeros(k, np.int64)
    for t in iter_tables(sums):  # k×d rows in all
        cl = t.column("cluster").to_numpy()
        acc[cl, t.column("dim").to_numpy()] = t.column("s").to_numpy()
        cnt[cl] = t.column("n").to_numpy()
    nonempty = cnt > 0
    cents[nonempty] = acc[nonempty] // cnt[nonempty, None]  # floor div
    return cents


def emb_kmeans(emb_ds, k: int = 8, id_col: str = "vec_id",
               emb_col: str = "embedding"):
    """Two-iteration integer-exact Lloyd k-means; returns one
    ``(vec_id, cluster, dist)`` row per vector (``dist`` = int64
    squared L2 in e6 units against the iteration-2 centroids)."""
    cref = ray.put(kmeans_centroids(emb_ds, k, id_col, emb_col))

    def final_assign(t: pa.Table) -> pa.Table:
        x = _scaled(t, emb_col)
        ids = t.column(id_col).to_numpy()
        if x.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        cl, d2 = _assign(x, ray.get(cref))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cluster": pa.array(cl, pa.int64()),
                         "dist": pa.array(d2, pa.int64())})

    return emb_ds.map_batches(final_assign, batch_format="pyarrow")


#: Tile edge of the in-cluster cosine scan: no more than
#: (SCAN_BLOCK × SCAN_BLOCK) similarities are ever materialized at once,
#: so a skewed giant cluster costs time, never a worker OOM.
SCAN_BLOCK = 2048

#: ``k="auto"`` target cluster population. SemDeDup's quadratic
#: in-cluster scan is bounded by the largest cluster; k must therefore
#: GROW with the corpus (the paper uses k=50k for LAION-440M — ~9k
#: rows/cluster). 50k rows × 50k rows of float64 sims would be 20 GB
#: dense; the blocked scan caps that at SCAN_BLOCK² regardless.
SEMDEDUP_TARGET_CLUSTER_ROWS = 50_000


def semdedup_auto_k(n_rows: int, target: int = SEMDEDUP_TARGET_CLUSTER_ROWS,
                    k_min: int = 8, k_max: int = 1 << 16) -> int:
    """k scale rule: ``ceil(n / target)`` clamped to [k_min, k_max]."""
    return int(min(k_max, max(k_min, -(-int(n_rows) // target))))


def _dup_mask_blocked(nmat: np.ndarray, threshold: float,
                      block: int = SCAN_BLOCK) -> np.ndarray:
    """``dup[i] = any(j < i and cos(i, j) >= threshold)`` over a
    row-normalized matrix, tiled so peak extra memory is one
    (block × block) tile — value-identical to the dense
    ``tril(n @ n.T >= θ, -1).any(axis=1)`` (tested) but safe for
    clusters far beyond memory-squared."""
    n = len(nmat)
    dup = np.zeros(n, bool)
    for rs in range(0, n, block):
        re_ = min(rs + block, n)
        rows = nmat[rs:re_]
        acc = np.zeros(re_ - rs, bool)
        for cs in range(0, re_, block):
            if cs > rs:
                break  # blocks right of the diagonal hold no j < i
            todo = ~acc
            if not todo.any():
                break  # every row in this block already marked
            ce = min(cs + block, n)
            sims = rows[todo] @ nmat[cs:ce].T
            hit = sims >= threshold
            if cs == rs:  # diagonal tile: strict lower triangle only
                gi = np.arange(rs, re_)[todo][:, None]
                gj = np.arange(cs, ce)[None, :]
                hit &= gj < gi
            acc[todo] |= hit.any(axis=1)
        dup[rs:re_] = acc
    return dup


def emb_semdedup(emb_ds, k: int | str = 8, threshold: float = 0.4,
                 id_col: str = "vec_id", emb_col: str = "embedding",
                 scan_block: int = SCAN_BLOCK):
    """SemDeDup (Abbas et al., 2023, arXiv:2303.09540): cluster the
    embedding space, then mark within-cluster near-duplicates — a row
    is a DUP when some SAME-CLUSTER row with a smaller id has cosine ≥
    ``threshold`` (keep-the-smallest-id rule, pinned). Returns
    ``(vec_id, cluster, is_dup)`` for every vector.

    This is the composite the paper runs at web scale: the k-means
    model (k×d ints) broadcasts; assignment streams; ONE
    ``groupby(cluster)`` co-locates each cluster so the quadratic
    cosine scan is bounded by the largest CLUSTER, never the corpus —
    exactly why SemDeDup clusters before comparing. Cosine matches
    :func:`stages.ann.embedding_near_dup_pairs` (float64 normalize +
    matmul ≡ DuckDB ``list_cosine_similarity``).

    Scale levers (round-3): ``k="auto"`` applies
    :func:`semdedup_auto_k` so expected cluster population stays ~
    :data:`SEMDEDUP_TARGET_CLUSTER_ROWS` as the corpus grows, and the
    in-cluster scan is TILED (:func:`_dup_mask_blocked`) so even a
    skew-bloated cluster costs one (scan_block × scan_block) tile of
    memory, never a dense |cluster|² matrix. Default k=8 is pinned for
    the small-sf oracle; both paths are value-identical (tested)."""
    import pandas as pd

    from .ann import _normalize

    if k == "auto":
        k = semdedup_auto_k(emb_ds.count())
    cref = ray.put(kmeans_centroids(emb_ds, k, id_col, emb_col))

    def assign_keep_emb(t: pa.Table) -> pa.Table:
        x = _scaled(t, emb_col)
        if x.size == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             emb_col: pa.array([], t.column(emb_col).type)})
        cl, _ = _assign(x, ray.get(cref))
        return pa.table({id_col: t.column(id_col).cast(pa.int64()),
                         "cluster": pa.array(cl, pa.int64()),
                         emb_col: t.column(emb_col)})

    assigned = emb_ds.map_batches(assign_keep_emb, batch_format="pyarrow")

    def cluster_scan(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)  # ids are unique: total order
        ids = ids[order]
        mat = np.stack([np.asarray(v, dtype=np.float64)
                        for v in g[emb_col].to_numpy()[order]])
        n = _normalize(mat)
        # dup ⇔ any strictly-lower-id row ≥ θ — tiled, never dense n×n
        is_dup = _dup_mask_blocked(n, threshold, scan_block)
        return pd.DataFrame({id_col: ids,
                             "cluster": g["cluster"].to_numpy()[order],
                             "is_dup": is_dup})

    return assigned.groupby("cluster").map_groups(cluster_scan,
                                                  batch_format="pandas")
