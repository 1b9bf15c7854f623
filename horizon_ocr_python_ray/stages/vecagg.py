"""Group-wise vector aggregates over an embedding column.

``emb_centroids``: per-group centroid of a ``list<float>`` embedding
column as (group, dim, sum, count) in long format — the building block
behind cluster summaries, per-language embedding means, IVF coarse
centroid refresh and drift monitoring.

Exactness across engines: floating-point sums are order-dependent, so
instead of comparing rounded float means (the 1-ulp repr trap the money
queries hit), each ELEMENT is fixed-pointed first — ``round(x * 1e6)``
as int64, half away from zero to match DuckDB/SQL ``round`` — and the
integer sums are what cross the wire and the compare. Integer addition
is associative: any partial-sum order gives bit-equal results.

Scale shape: the combiner reduces each batch to ``#labels × dim`` rows
(vectorized sort + ``reduceat`` segment sums — no Python loop over
rows), so the one narrow ``groupby(label, dim).sum`` shuffle carries
group cardinality × dim rows per batch, independent of corpus size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

EMB_SCALE = 1_000_000  # 1e-6 fixed point


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """SQL ``round`` semantics (half away from zero) — ``np.rint`` is
    half-to-even and would diverge on exact .5 products."""
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def _batch_matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    col = batch.column(emb_col)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    n = len(arr)
    if n == 0:
        return np.empty((0, 0))
    dim = len(flat) // n
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    if not np.all(np.diff(offsets) == dim):
        raise ValueError("emb_centroids requires fixed-dimension embeddings")
    return flat.reshape(n, dim)


def _partial_centroid(batch: pa.Table, group_col: str, emb_col: str) -> pa.Table:
    labels = np.asarray(batch.column(group_col).to_pylist(), dtype=np.int64)
    mat = _batch_matrix(batch, emb_col)
    if mat.size == 0:
        return pa.table({
            group_col: pa.array([], pa.int64()),
            "dim": pa.array([], pa.int64()),
            "partial_sum": pa.array([], pa.int64()),
            "partial_n": pa.array([], pa.int64()),
        })
    scaled = _round_half_away(mat.astype(np.float64) * EMB_SCALE).astype(np.int64)
    order = np.argsort(labels, kind="stable")
    sl = labels[order]
    starts = np.flatnonzero(np.r_[True, sl[1:] != sl[:-1]])
    seg_sums = np.add.reduceat(scaled[order], starts, axis=0)
    seg_ns = np.diff(np.r_[starts, len(sl)])
    uniq = sl[starts]
    dim = scaled.shape[1]
    return pa.table({
        group_col: pa.array(np.repeat(uniq, dim), pa.int64()),
        "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq)), pa.int64()),
        "partial_sum": pa.array(seg_sums.ravel(), pa.int64()),
        "partial_n": pa.array(np.repeat(seg_ns.astype(np.int64), dim), pa.int64()),
    })


def emb_centroids(emb_ds, group_col: str = "label", emb_col: str = "embedding"):
    """embeddings → (group, dim, sum_e6, n_vecs) long-format centroid
    sums; the float centroid is ``sum_e6 / (n_vecs * 1e6)`` when a
    consumer wants it (kept integer here for the exact compare)."""
    from ray.data.aggregate import Sum

    partials = emb_ds.map_batches(
        lambda t: _partial_centroid(t, group_col, emb_col),
        batch_format="pyarrow")
    return (partials.groupby([group_col, "dim"])
            .aggregate(Sum("partial_sum", alias_name="sum_e6"),
                       Sum("partial_n", alias_name="n_vecs")))


#: Gram fixed point: q = round(x * 1e3) per element, so per-row products
#: are ≤ ~1e6 and int64 sums stay exact past 1e12 rows.
GRAM_SCALE = 1_000

#: Tree-fold fan-in for gram partial rows (driver sees blocks/width rows).
_GRAM_FOLD_WIDTH = 64

def emb_gram(emb_ds, emb_col: str = "embedding"):
    """Corpus-level second-moment (gram) matrix of an embedding column in
    long format ``(dim_i, dim_j, gram)``, upper triangle ``dim_i <=
    dim_j`` — the distributed building block for PCA / whitening /
    covariance estimation over an embedding table (subtract the
    :func:`emb_centroids` means for covariance; eigendecompose on the
    driver: d×d is tiny for any d that fits a vector column).

    Physical plan — NO shuffle at all: each batch collapses to one d×d
    int64 partial via a single ``Qᵀ·Q`` matmul on the fixed-pointed
    matrix, shipped as a single flattened row; a distributed TREE-FOLD
    level then sums every ``_GRAM_FOLD_WIDTH`` partial rows into one
    (integer adds commute, so any fold shape is exact), bounding what the
    driver collects at ``num_blocks / fold_width`` rows of d² ints each —
    never one row per raw block. Same exactness contract as
    :func:`emb_centroids`: elements are fixed-pointed BEFORE
    multiplication (half away from zero), so every partial-sum order
    gives bit-equal integer results.
    """
    def partial(batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch, emb_col)
        if mat.size == 0:
            return pa.table({"d": pa.array([], pa.int64()),
                             "flat": pa.array([], pa.list_(pa.int64()))})
        q = _round_half_away(mat.astype(np.float64) * GRAM_SCALE).astype(np.int64)
        g = q.T @ q                                   # (d, d) int64, exact
        return pa.table({"d": pa.array([g.shape[0]], pa.int64()),
                         "flat": pa.array([g.reshape(-1)], pa.list_(pa.int64()))})

    def fold(batch: pa.Table) -> pa.Table:
        ds_col = batch.column("d").to_pylist()
        flats = batch.column("flat").to_pylist()
        pairs = [(dd, f) for dd, f in zip(ds_col, flats) if dd]
        if not pairs:
            return pa.table({"d": pa.array([], pa.int64()),
                             "flat": pa.array([], pa.list_(pa.int64()))})
        dd = pairs[0][0]
        acc = np.zeros(dd * dd, dtype=np.int64)
        for _, f in pairs:
            acc += np.asarray(f, dtype=np.int64)
        return pa.table({"d": pa.array([dd], pa.int64()),
                         "flat": pa.array([acc], pa.list_(pa.int64()))})

    rows = (emb_ds.map_batches(partial, batch_format="pyarrow")
            .map_batches(fold, batch_format="pyarrow",
                         batch_size=_GRAM_FOLD_WIDTH)
            .take_all())  # bounded: one d×d row per _GRAM_FOLD_WIDTH batches
    rows = [r for r in rows if r["d"]]
    if not rows:
        return pa.table({"dim_i": pa.array([], pa.int64()),
                         "dim_j": pa.array([], pa.int64()),
                         "gram": pa.array([], pa.int64())})
    d = rows[0]["d"]
    acc = np.zeros(d * d, dtype=np.int64)
    for r in rows:
        acc += np.asarray(r["flat"], dtype=np.int64)
    g = acc.reshape(d, d)
    iu, ju = np.triu_indices(d)
    return pa.table({"dim_i": pa.array(iu, pa.int64()),
                     "dim_j": pa.array(ju, pa.int64()),
                     "gram": pa.array(g[iu, ju], pa.int64())})
