"""Scalar (int8-range) quantization of an embedding column — the
storage/bandwidth lever every vector pipeline applies before ANN
serving (fp32 → 1 byte/dim + one scale per vector, 4× smaller blocks
through the object store; the SemDeDup/IVF stages of ``stages/ann.py``
and ``stages/kmeans.py`` read the same column this stage compresses).

``emb_quantize`` maps each vector to symmetric max-abs codes:
``code[d] = round(x[d] * 127 / max_abs(vec))`` (half away from zero,
SQL ``round`` semantics), so codes live in [-127, 127] and dequant is
``code * max_abs / 127``. Per-vector scale — not per-corpus — keeps the
kernel embarrassingly parallel: ONE stateless ``map_batches`` pass,
zero shuffles, nothing on the driver at any corpus size.

Exactness across engines (the vecagg.py convention): the compare
surface is integer-only — the int64 code digests (sum, sum of squares,
min, max, n_dims) plus the scale fixed-pointed as ``max_abs_e6`` — and
the float work reproduces DuckDB's promotion order bit-exactly
(float32 abs/max per row, then ``float64(x) * 127.0 / float64(ma)``).

Zero vectors (ma == 0) quantize to all-zero codes rather than dividing
by zero; the oracle replays the same CASE guard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .vecagg import _batch_matrix, _round_half_away

EMB_SCALE = 1_000_000  # 1e-6 fixed point for the per-vector scale


def _codes_matrix(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, dim) float matrix → (int64 code matrix in [-127, 127],
    float64 per-row max-abs) with the pinned promotion order: float32
    abs/max per row first, then float64 for the scaled division."""
    mat32 = mat.astype(np.float32, copy=False)
    ma32 = np.abs(mat32).max(axis=1) if mat32.size else np.zeros(
        len(mat32), np.float32)
    ma64 = ma32.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (mat32.astype(np.float64) * 127.0) / ma64[:, None]
    v = np.where(ma64[:, None] == 0.0, 0.0, v)
    return _round_half_away(v).astype(np.int64), ma64


def _quantize_batch(batch: pa.Table, id_col: str, emb_col: str) -> pa.Table:
    ids = batch.column(id_col).cast(pa.int64())
    mat = _batch_matrix(batch, emb_col)
    if mat.size == 0:
        # no rows, or every embedding list in the batch is empty —
        # either way one all-zero digest row per vector (the oracle
        # coalesces its NULL list aggregates to the same zeros), so
        # vec_ids are never silently dropped.
        zeros = pa.array(np.zeros(batch.num_rows, np.int64), pa.int64())
        return pa.table({
            "vec_id": ids,
            "max_abs_e6": zeros,
            "n_dims": zeros,
            "code_sum": zeros,
            "code_sqsum": zeros,
            "code_min": zeros,
            "code_max": zeros,
        })
    codes, ma64 = _codes_matrix(mat)
    n, dim = codes.shape
    return pa.table({
        "vec_id": ids,
        "max_abs_e6": pa.array(
            _round_half_away(ma64 * EMB_SCALE).astype(np.int64), pa.int64()),
        "n_dims": pa.array(np.full(n, dim, np.int64), pa.int64()),
        "code_sum": pa.array(codes.sum(axis=1), pa.int64()),
        "code_sqsum": pa.array((codes * codes).sum(axis=1), pa.int64()),
        "code_min": pa.array(codes.min(axis=1), pa.int64()),
        "code_max": pa.array(codes.max(axis=1), pa.int64()),
    })


def emb_quantize(emb_ds, id_col: str = "vec_id",
                 emb_col: str = "embedding"):
    """embeddings → (vec_id, max_abs_e6, n_dims, code_sum, code_sqsum,
    code_min, code_max): per-vector symmetric int8 quantization digest
    (codes in [-127, 127], scale = max_abs/127)."""
    return emb_ds.map_batches(
        lambda t: _quantize_batch(t, id_col, emb_col),
        batch_format="pyarrow")


def quantized_topk(emb_ds, query: np.ndarray, k: int = 10,
                   id_col: str = "vec_id", emb_col: str = "embedding"):
    """Top-k by INTEGER dot product of int8 codes — the similarity
    search the quantized column exists for (4× less object-store
    traffic than fp32 brute force, and the compare surface is exact
    int64: code·code scores have no float in them at all).

    Accepts a single vector or a (Q, dim) query MATRIX: with a matrix
    the result carries a leading int64 ``query_idx`` column (row index
    into the matrix) and rank is per query; a 1-D query keeps the
    original 3-column layout.

    Scale shape (the ``ann.brute_force_topk`` shape): each batch
    quantizes locally and scores every query against the broadcast
    quantized query matrix; ``collect.top_k`` trims each block to k rows
    per query and merges them on the driver — no sort exchange. Returns
    a pyarrow Table of ``Q · min(k, n)`` rows with rank 1-based by
    (score_q DESC, vec_id) within each query."""
    import ray

    from ..functions.collect import top_k

    query = np.asarray(query, dtype=np.float32)
    qcodes, _ = _codes_matrix(np.atleast_2d(query))
    qref = ray.put(qcodes)  # (Q, dim) int64 codes

    def scores(batch: pa.Table) -> pa.Table:
        qc = ray.get(qref)
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        mat = _batch_matrix(batch, emb_col)
        if mat.size == 0:
            # all-empty embedding lists: score 0 (the oracle's
            # coalesce), rows kept — the _quantize_batch invariant
            sc = np.zeros((len(ids), qc.shape[0]), np.int64)
        else:
            sc = _codes_matrix(mat)[0] @ qc.T  # (batch, Q) exact int64
        n_query = sc.shape[1]
        return pa.table({
            "query_idx": pa.array(np.tile(np.arange(n_query, dtype=np.int64), len(ids))),
            "vec_id": pa.array(np.repeat(ids, n_query), pa.int64()),
            "score_q": pa.array(sc.ravel(), pa.int64())})

    out = top_k(emb_ds.map_batches(scores, batch_format="pyarrow"),
                [("score_q", "descending"), ("vec_id", "ascending")],
                k, "query_idx")
    return out.drop_columns(["query_idx"]) if query.ndim == 1 else out
