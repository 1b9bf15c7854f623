"""Winnowing document fingerprints (Schleimer, Wilkerson & Aiken 2003,
"Winnowing: Local Algorithms for Document Fingerprinting" — the MOSS
scheme): hash every ordered token k-gram, slide a w-gram window over
the hash sequence, and keep each window's MINIMUM; the distinct minima
are the document's fingerprint set. Guarantees: any shared substring of
at least w+k-1 tokens shares at least one fingerprint (the detection
threshold), and the selected density is ~2/(w+1) of all grams — a
position-robust near-dup signal the corpus's other sketches don't give
(MinHash is order-blind, SimHash is global, the rolling XOR
fingerprint has no locality guarantee).

Variant pinned here (both engine and SQL oracle): fingerprints are the
DISTINCT window-minimum VALUES (no positional tie-breaking — value
dedup subsumes it), and a document with 1 ≤ m < w gram hashes emits
exactly one window covering all of them, so every tokenizable doc with
≥ k tokens has ≥ 1 fingerprint.

Scale shape: the per-doc digest (:func:`winnow_fingerprints`) is one
stateless ``map_batches`` pass, zero shuffles; the MOSS detection join
(:func:`winnow_shared_pairs`) pairs the (fingerprint, doc) rows with
``dedup_docs.shared_key_pairs`` (a driver pass under its fold cap, one
narrow bucketed exchange past it), the standard over-common-fingerprint
exclusion bounding within-key fan-out.

Reference analog: the content-addressed dedup family (D1–D2,
docvision response-cache semantics) extended with the standard
plagiarism-detection fingerprint; tokenization parity with the SQL
oracles is inherited from ``functions/gramvec.py``, which reads terms
through ``textstats.flat_terms``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.gramvec import _gram_windows

#: Token-gram size (k) and window size (w): detection threshold
#: w + k - 1 = 6 shared tokens, expected density 2/(w+1) = 40%.
DEFAULT_K = 3
DEFAULT_W = 4

def _doc_minima(batch: pa.Table, k: int, w: int):
    """Shared kernel: (doc_ids int64, n_grams int64, per-doc list of
    distinct window-minimum uint64 arrays). Vectorized: one Arrow gram
    explode per batch, md5 once per DISTINCT gram (worker-cached via
    ``functions.minhash.md5_gram_hashes``), numpy sliding-window minima
    per doc."""
    from ..functions.minhash import md5_gram_hashes

    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
        np.int64)
    n_docs = len(ids)
    n_grams = np.zeros(n_docs, np.int64)
    minima: list[np.ndarray | None] = [None] * n_docs
    win = _gram_windows(batch.column("text"), k)
    if win is not None:
        doc_idx, _intra, grams = win
        hs = md5_gram_hashes(grams)
        counts = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
        n_grams = counts
        starts = np.zeros(n_docs + 1, np.int64)
        np.cumsum(counts, out=starts[1:])
        from numpy.lib.stride_tricks import sliding_window_view

        for d in np.nonzero(counts)[0]:
            hd = hs[starts[d]:starts[d + 1]]
            # m <= w grams → ONE window over all of them (frame clip)
            mins = (hd.min(keepdims=True) if hd.size <= w
                    else sliding_window_view(hd, w).min(axis=1))
            minima[d] = np.unique(mins)
    return ids, n_grams, minima


def winnow_batch(batch: pa.Table, k: int = DEFAULT_K,
                 w: int = DEFAULT_W) -> pa.Table:
    """(doc_id, text) batch → (doc_id, n_grams, n_fp, fp_xor).

    ``n_grams``: ordered k-gram count (0 for docs with < k tokens);
    ``n_fp``: distinct winnowing fingerprints; ``fp_xor``: XOR of the
    distinct fingerprint hashes mapped to the signed int64 domain
    (``x ^ 2^63`` reinterpreted — the simhash idiom, so the SQL twin is
    ``CAST(xor_agg - 2^63 AS BIGINT)``; empty set → -2^63)."""
    ids, n_grams, minima = _doc_minima(batch, k, w)
    n_docs = len(ids)
    n_fp = np.zeros(n_docs, np.int64)
    fpx = np.zeros(n_docs, np.uint64)
    for d, u in enumerate(minima):
        if u is not None:
            n_fp[d] = u.size
            fpx[d] = np.bitwise_xor.reduce(u)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "n_grams": pa.array(n_grams, pa.int64()),
        "n_fp": pa.array(n_fp, pa.int64()),
        "fp_xor": pa.array((fpx ^ np.uint64(1 << 63)).view(np.int64),
                           pa.int64()),
    })


def _fp_rows_batch(batch: pa.Table, k: int, w: int) -> pa.Table:
    """(doc_id, text) batch → exploded (fp, doc_id) rows, one per
    distinct fingerprint per doc; fp in the signed int64 domain."""
    ids, _n_grams, minima = _doc_minima(batch, k, w)
    fps: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    for d, u in enumerate(minima):
        if u is not None and u.size:
            fps.append((u ^ np.uint64(1 << 63)).view(np.int64))
            owners.append(np.full(u.size, ids[d], np.int64))
    if not fps:
        return pa.table({"fp": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64())})
    return pa.table({"fp": pa.array(np.concatenate(fps), pa.int64()),
                     "doc_id": pa.array(np.concatenate(owners), pa.int64())})


def winnow_fingerprints(docs_ds, k: int = DEFAULT_K, w: int = DEFAULT_W):
    """documents → per-doc winnowing fingerprint digests, one stateless
    streaming pass (zero shuffles at any scale)."""
    import functools

    return docs_ds.map_batches(
        functools.partial(winnow_batch, k=k, w=w), batch_format="pyarrow")


#: Fingerprints in more documents than this are boilerplate (navigation,
#: licence blocks) and are dropped before pairing — the standard MOSS
#: over-common-fingerprint exclusion, and the cap that keeps the
#: within-fingerprint pair fan-out quadratic-safe at corpus scale.
DEFAULT_MAX_DF = 50


def winnow_shared_pairs(docs_ds, k: int = DEFAULT_K, w: int = DEFAULT_W,
                        min_shared: int = 2, max_df: int = DEFAULT_MAX_DF):
    """MOSS detection query: (doc_a, doc_b, n_shared) pairs sharing at
    least ``min_shared`` winnowing fingerprints, fingerprints with
    document frequency outside [2, max_df] excluded — the
    ``dedup_docs.shared_key_pairs`` pairing over the exploded
    (fp, doc_id) rows."""
    import functools

    import pyarrow.compute as pc

    from .dedup_docs import shared_key_pairs

    fps = docs_ds.map_batches(
        functools.partial(_fp_rows_batch, k=k, w=w), batch_format="pyarrow")

    def finish(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n_shared"), min_shared)
                        ).select(["doc_a", "doc_b", "n_shared"])

    return shared_key_pairs(fps, "fp", max_df=max_df).map_batches(
        finish, batch_format="pyarrow")
