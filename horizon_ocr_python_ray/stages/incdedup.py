"""Incremental cross-corpus near-dup: which documents of a NEW batch
near-duplicate documents of the BASE corpus — the dedup shape of a
continuously-crawled training set (yesterday's 100 TB vs today's
incoming shard).

Plan shape (and why it differs from the self-join in
``stages/dedup_docs.py``): the NEW side is small by definition, so its
EXACT inverted shingle index — shingle-hash → new-doc ids — is built
once and broadcast (``ray.put``); the BASE corpus streams through a
single ``map_batches`` pass that probes the index and verifies exact
n-gram Jaccard in place. Zero shuffles, zero LSH probability: sharing
≥1 shingle is NECESSARY for Jaccard > 0, so candidate recall is exactly
1 and the output equals the brute-force cross join at any threshold —
verified by the DuckDB oracle. A hard cap refuses a "new side" that is
not actually small (at that size, run the self-join LSH plan on the
union instead).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.minhash import shingle_hashes
from ..state.worker import worker_state

#: Refuse to broadcast a new-side index above this many (shingle, doc)
#: postings — a "new batch" bigger than this is a corpus, not a batch.
NEW_SIDE_MAX_POSTINGS = 20_000_000


def _build_new_index(new_ds, k_shingle: int):
    """new docs → (inverted index {shingle_hash: [new_id, …]},
    shingle arrays {new_id: ndarray}). Folded on the driver — the new
    side is the small side by contract."""
    index: dict[int, list[int]] = {}
    shingles: dict[int, np.ndarray] = {}
    n_postings = 0
    for t in new_ds.select_columns(["doc_id", "text"]).iter_batches(
            batch_format="pyarrow"):
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            sh = shingle_hashes(text or "", k_shingle)
            shingles[did] = sh
            n_postings += len(sh)
            if n_postings > NEW_SIDE_MAX_POSTINGS:
                raise ValueError(
                    f"new-side index exceeds {NEW_SIDE_MAX_POSTINGS} postings: "
                    "not a small side; use the union self-join LSH plan")
            for h in sh.tolist():
                index.setdefault(h, []).append(did)
    return index, shingles


class _ProbeVerify:
    """Per-worker broadcast state: inverted index + new-side shingles."""

    def __init__(self, ref, k: int, threshold: float) -> None:
        import ray

        self.index, self.shingles = ray.get(ref)
        self.k = k
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        base_ids, new_ids, inters, unis = [], [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            sh = shingle_hashes(text or "", self.k)
            cands: set[int] = set()
            for h in sh.tolist():
                hit = self.index.get(h)
                if hit:
                    cands.update(hit)
            for nid in sorted(cands):
                # a candidate shares a shingle, so union > 0
                nsh = self.shingles[nid]
                inter = int(np.intersect1d(sh, nsh, assume_unique=True).size)
                union = int(sh.size + nsh.size - inter)
                if inter / union >= self.threshold:
                    base_ids.append(did)
                    new_ids.append(nid)
                    inters.append(inter)
                    unis.append(union)
        return pa.Table.from_arrays(
            [pa.array(base_ids, pa.int64()), pa.array(new_ids, pa.int64()),
             pa.array(inters, pa.int64()), pa.array(unis, pa.int64())],
            names=["base_id", "new_id", "n_inter", "n_union"],
        )


def _probe_task(batch: pa.Table, ref, k: int, threshold: float) -> pa.Table:
    return worker_state("incdedup_probe", (ref.hex(), k, threshold),
                        lambda: _ProbeVerify(ref, k, threshold))(batch)


def incremental_near_dup(base_ds, new_ds, k_shingle: int = 5,
                         threshold: float = 0.5):
    """(base docs, new docs) → (base_id, new_id, n_inter, n_union) for
    every cross pair with exact n-gram Jaccard ≥ threshold.

    Intersection/union leave the stage as exact INTEGERS (the Jaccard
    is their ratio) so the compare surface carries no floats. Both
    inputs need (doc_id, text); ids must be disjoint across sides.
    """
    import ray

    ref = ray.put(_build_new_index(new_ds, k_shingle))
    return base_ds.map_batches(
        _probe_task, batch_format="pyarrow",
        fn_kwargs={"ref": ref, "k": k_shingle, "threshold": threshold})
