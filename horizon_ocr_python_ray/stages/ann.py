"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — numpy matmul per batch against a
broadcast query matrix (``ray.put`` once, read once per worker), then
``collect.top_k``: block-local trims, one driver merge.

Scale paths:

- :func:`embedding_near_dup_pairs` (exact) sweeps the corpus as a
  block-matmul join: the right side is the dataset's own materialized
  Arrow blocks (object-store refs — never concatenated on the driver),
  each batch multiplies against one shard at a time; each worker decodes
  a shard once per sweep and keeps only the current sweep's shards.
  O(n²) flops, but distributed, memory-bounded and driver-free.
- :func:`embedding_near_dup_pairs_lsh` / :func:`lsh_bucketed_topk` use
  **banded multi-table hyperplane LSH** (``b`` tables × ``r`` planes,
  candidates = union over tables, exact-cosine verify) — the same
  OR-amplification banding as the MinHash pipeline
  (``stages/dedup_docs.py``). For a pair at cosine ``s`` the per-plane
  agreement is ``p = 1 − arccos(s)/π`` and the miss probability is
  ``(1 − p^r)^b``; parameters are chosen per threshold so recall is
  effectively 1 (defaults below give miss ≈ 1e-7 at s = 0.4).  Note the
  engineering trade: at low thresholds (0.4) banding needs few planes
  per table, so bucket pruning is weak and the verify stage dominates;
  at realistic near-dup thresholds (0.8+) more planes per table prune
  sharply. The machinery is identical — only (b, r) move.

Reference semantics: D5/D6 near-dup merges
(``/root/reference/docvision/detect/layout_doclaynet.py:253-325``,
``detect/text_craft.py:219-273``) lifted to corpus scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
from ..functions.collect import as_arrow_table, collect_block_refs, iter_tables, top_k
from ..state.worker import worker_state


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        # zero-copy-ish: equal-length list values flattened then reshaped
        emb = np.asarray(col.flatten(), dtype=np.float64).reshape(len(ids), -1)
    except (ValueError, pa.ArrowInvalid):
        emb = np.array(col.to_pylist(), dtype=np.float64)
    return ids, emb


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def smallest_id_rows(ds, n: int = 1, id_col: str = "vec_id") -> pa.Table:
    """The ``n`` smallest-``id_col`` rows of a dataset WITHOUT a sort
    exchange (``collect.top_k``). Query planting (`the first k vectors`)
    and min-key probes use this instead of ``ds.sort(id).take(n)``,
    which pays a full all-to-all sort of the table for an n-row answer."""
    out = top_k(ds, [(id_col, "ascending")], n, None)
    if not out.num_rows:
        raise ValueError("smallest_id_rows on an empty dataset")
    return out.drop_columns(["rank"])


# -- brute-force top-k -------------------------------------------------------

def _cosine_scores(batch: pa.Table, query_ref) -> pa.Table:
    """(query_idx, vec_id, score) for every (row, query) pair of the
    batch: one matmul against the broadcast query matrix, which each
    worker fetches and normalizes once."""
    qn = worker_state("ann_query", query_ref.hex(),
                      lambda: _normalize(ray.get(query_ref)))
    ids, emb = _batch_matrix(batch)
    sims = _normalize(emb) @ qn.T  # (batch, n_query)
    n_query = sims.shape[1]
    return pa.table({
        "query_idx": pa.array(np.tile(np.arange(n_query, dtype=np.int32), len(ids))),
        "vec_id": pa.array(np.repeat(ids, n_query), pa.int64()),
        "score": pa.array(sims.ravel(), pa.float64()),
    })


def brute_force_topk(emb_ds, query: np.ndarray, k: int = 10) -> pa.Table:
    """embeddings dataset → top-k rows per query: a Table of
    (query_idx, vec_id, score, rank), rank 1-based by (score desc,
    vec_id asc) within each query.

    Each batch scores every query; ``collect.top_k`` trims each block to
    k rows per query and merges them on the driver — no sort exchange.
    """
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    scored = emb_ds.map_batches(
        _cosine_scores, fn_kwargs={"query_ref": ray.put(query)},
        batch_format="pyarrow", batch_size=4096,
    )
    return top_k(scored, [("score", "descending"), ("vec_id", "ascending")],
                 k, "query_idx")


# -- banded multi-table hyperplane LSH ---------------------------------------

class BandedLSH:
    """``n_tables`` independent hyperplane tables of ``n_planes`` planes.

    ``bucket_keys`` maps vectors to one int64 key per table; the table
    index is folded into the key (``(bucket << table_bits) | table``) so a
    single equality groups within-table collisions and keys never collide
    across tables. Deterministic planes from a fixed seed.
    """

    def __init__(self, dim: int, n_tables: int, n_planes: int, seed: int = 11) -> None:
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_tables * n_planes))
        self.n_tables = n_tables
        self.n_planes = n_planes
        self.table_bits = max(1, int(n_tables - 1).bit_length())

    def bucket_matrix(self, vecs: np.ndarray) -> np.ndarray:
        """(n, dim) → (n, n_tables) per-table bucket ids (un-folded)."""
        bits = (vecs @ self.planes) > 0  # (n, T*P)
        b = bits.reshape(len(vecs), self.n_tables, self.n_planes)
        return (b * (1 << np.arange(self.n_planes, dtype=np.int64))).sum(axis=2)

    def fold(self, buckets: np.ndarray) -> np.ndarray:
        """(n, n_tables) bucket ids → folded int64 keys."""
        tables = np.arange(self.n_tables, dtype=np.int64)[None, :]
        return (buckets.astype(np.int64) << self.table_bits) | tables

    def bucket_keys(self, vecs: np.ndarray) -> np.ndarray:
        return self.fold(self.bucket_matrix(vecs))

    def probe_keys(self, vec: np.ndarray, n_probes: int = 0) -> np.ndarray:
        """Folded keys probed for one query vector: its own bucket per
        table, plus (``n_probes ≥ 1``) every Hamming-1 neighbor bucket —
        the multi-probe trick that recovers near-miss candidates without
        more tables."""
        base = self.bucket_matrix(vec[None, :])[0]  # (T,)
        keys = [self.fold(base[None, :])[0]]
        if n_probes >= 1:
            for p in range(self.n_planes):
                keys.append(self.fold((base ^ (1 << p))[None, :])[0])
        return np.unique(np.concatenate(keys))


class _BucketRows:
    """Stage: one output row per (table, vector): (bucket_key, vec_id,
    embedding). The T× row duplication is the price of OR-amplification;
    production picks ``n_tables`` by threshold (see module docstring)."""

    def __init__(self, dim: int, n_tables: int, n_planes: int, seed: int = 11) -> None:
        self.lsh = BandedLSH(dim, n_tables, n_planes, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _batch_matrix(batch)
        dim = emb.shape[1] if emb.ndim == 2 and len(ids) else 1
        if not len(ids):
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.list_(pa.float64(), dim))],
                names=["bucket_key", "vec_id", "embedding"],
            )
        keys = self.lsh.bucket_keys(emb)  # (n, T)
        t = keys.shape[1]
        flat = np.repeat(emb, t, axis=0).reshape(-1)
        emb_col = pa.FixedSizeListArray.from_arrays(pa.array(flat, pa.float64()), dim)
        return pa.Table.from_arrays(
            [pa.array(keys.reshape(-1), pa.int64()),
             pa.array(np.repeat(ids, t), pa.int64()),
             emb_col],
            names=["bucket_key", "vec_id", "embedding"],
        )


def embedding_near_dup_pairs_lsh(emb_ds, threshold: float = 0.95, dim: int = 64,
                                 n_tables: int = 32, n_planes: int = 2,
                                 seed: int = 11):
    """Approximate near-dup pairs via banded multi-table LSH, verified
    with exact cosine — fully distributed (no driver materialization):

    1. map: (bucket_key, vec_id, embedding) rows, one per table;
    2. ``hashagg.grouped_reduce`` on bucket_key → within-bucket
       exact-cosine pairs ≥ threshold (verification happens inside the
       bucket, so only TRUE pairs survive);
    3. ``groupby(vec_a, vec_b)`` → per-pair first (dedup across tables).

    With the defaults (32 tables × 2 planes), a pair at cosine 0.4 has
    per-plane agreement p ≈ 0.631, per-table hit p² ≈ 0.40, miss
    (1−p²)³² ≈ 9e-8 — recall is effectively exact (tested equal to
    :func:`embedding_near_dup_pairs`).
    """
    from ray.data.aggregate import Min

    from .hashagg import grouped_reduce

    def bucket_task(batch: pa.Table) -> pa.Table:
        stage = worker_state("ann_bucket_rows", (dim, n_tables, n_planes, seed),
                             lambda: _BucketRows(dim, n_tables, n_planes, seed))
        return stage(batch)

    bucketed = emb_ds.map_batches(
        bucket_task, batch_format="pyarrow", batch_size=4096,
    )

    def pairs_in_bucket(g: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64())],
            names=["vec_a", "vec_b", "sim_e6"],
        )
        if g.num_rows < 2:
            return empty
        ids, emb = _batch_matrix(g)
        order = np.argsort(ids)
        ids = ids[order]
        mat = _normalize(emb[order])
        sims = mat @ mat.T
        i, j = np.nonzero(np.triu(sims >= threshold, k=1))
        keep = ids[i] != ids[j]  # same vector in one bucket via two tables
        i, j = i[keep], j[keep]
        if not len(i):
            return empty
        return pa.Table.from_arrays(
            [pa.array(ids[i], pa.int64()), pa.array(ids[j], pa.int64()),
             pa.array(np.round(sims[i, j] * 1e6).astype(np.int64), pa.int64())],
            names=["vec_a", "vec_b", "sim_e6"],
        )

    def pairs_in_buckets(t: pa.Table) -> pa.Table:
        """Within-bucket pairs of every bucket_key in one coarse bucket."""
        t = t.sort_by("bucket_key")
        keys = t.column("bucket_key").to_numpy()
        cuts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
        return pa.concat_tables([pairs_in_bucket(t.slice(a, b - a))
                                 for a, b in zip(cuts[:-1], cuts[1:])])

    pairs = grouped_reduce(bucketed, "bucket_key", pairs_in_buckets)
    # dedup across tables — sim_e6 is identical per pair, Min is just the
    # vectorized way to keep one row per (vec_a, vec_b)
    out = pairs.groupby(["vec_a", "vec_b"]).aggregate(Min("sim_e6", alias_name="sim_e6"))
    return out.map_batches(
        lambda t: t.select(["vec_a", "vec_b", "sim_e6"]), batch_format="pyarrow"
    )


def lsh_bucketed_topk(emb_ds, query: np.ndarray, k: int = 10, dim: int = 64,
                      n_tables: int = 32, n_planes: int = 2, n_probes: int = 1,
                      seed: int = 11):
    """Scale path for top-k: scan only rows whose bucket (in ANY table)
    matches one of the query's probed buckets — its own bucket per table
    plus Hamming-1 neighbors (multi-probe). The candidate filter is a
    stateless vectorized ``np.isin`` per batch (no shuffle); candidates
    then go through :func:`brute_force_topk`.

    Accepts a single vector or a (Q, dim) query MATRIX: probe keys are
    the union over queries (extra candidates from another query's bucket
    are merely exact-scored, never lose recall for this query), and the
    result carries ``query_idx`` per :func:`brute_force_topk`.

    Default parameters mirror :func:`embedding_near_dup_pairs_lsh`: at
    moderate similarity (s ≈ 0.4) the per-table probe-hit probability is
    1−(1−p)² ≈ 0.86, so 32 tables give miss ≈ 1e-28 per true neighbor —
    tested equal to the brute-force top-k.
    """
    query = np.asarray(query, dtype=np.float64)
    lsh = BandedLSH(dim, n_tables, n_planes, seed)
    probed = np.unique(np.concatenate([
        lsh.probe_keys(qv, n_probes)
        for qv in np.atleast_2d(query)]))  # tiny: ≤ Q·T·(P+1) int64 keys

    def candidate_filter(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch
        stage_lsh = worker_state("ann_lsh", (dim, n_tables, n_planes, seed),
                                 lambda: BandedLSH(dim, n_tables, n_planes, seed))
        _, emb = _batch_matrix(batch)
        keys = stage_lsh.bucket_keys(emb)  # (n, T)
        hit = np.isin(keys, probed).any(axis=1)
        return batch.filter(pa.array(hit))

    candidates = emb_ds.map_batches(
        candidate_filter, batch_format="pyarrow", batch_size=4096,
    )
    return brute_force_topk(candidates, query, k)


# -- IVF top-k (exact, bound-pruned cluster scan) -----------------------------

class _IVFAssign:
    """Broadcast-centroid assignment: adds (cluster, resid) to each row.
    Residual ``‖x̂ − c‖`` feeds the exactness bound (see :func:`ivf_topk`)."""

    def __init__(self, cents_ref) -> None:
        self.cents = ray.get(cents_ref)  # (K, dim) float64
        self.c_norm2 = (self.cents ** 2).sum(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, emb = _batch_matrix(batch)
        if not len(ids):
            return batch.append_column("cluster", pa.array([], pa.int32())) \
                        .append_column("resid", pa.array([], pa.float64()))
        v = _normalize(emb)
        # argmin ‖v − c‖² = argmax (v·c − ‖c‖²/2); ‖v‖² is constant per row
        scores = v @ self.cents.T - 0.5 * self.c_norm2[None, :]
        cluster = scores.argmax(axis=1)
        resid = np.linalg.norm(v - self.cents[cluster], axis=1)
        return (batch
                .append_column("cluster", pa.array(cluster.astype(np.int32), pa.int32()))
                .append_column("resid", pa.array(resid, pa.float64())))


def train_centroids(emb_ds, n_clusters: int = 16, sample: int = 4096,
                    iters: int = 8, seed: int = 7) -> np.ndarray:
    """Seeded Lloyd k-means over a bounded sample (driver-side by design:
    the sample is ``min(sample, n)`` rows regardless of corpus size)."""
    head = emb_ds.limit(sample).to_pandas()
    mat = _normalize(np.array(head["embedding"].tolist(), dtype=np.float64))
    rng = np.random.RandomState(seed)
    k = min(n_clusters, len(mat))
    cents = mat[rng.choice(len(mat), size=k, replace=False)]
    for _ in range(iters):
        assign = (mat @ cents.T - 0.5 * (cents ** 2).sum(axis=1)[None, :]).argmax(axis=1)
        for c in range(k):
            members = mat[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return cents


def ivf_topk(emb_ds, query: np.ndarray, k: int = 10, n_clusters: int = 16,
             init_probe: int | None = None, seed: int = 7):
    """EXACT top-k through an IVF index: scan clusters in upper-bound
    order and stop when no unscanned cluster can beat the kth-best.

    For unit ``q`` and normalized ``x`` in cluster ``c``:
    ``q·x = q·c + q·(x−c) ≤ q·c + ‖x−c‖ ≤ q·c + r_c`` (Cauchy–Schwarz),
    with ``r_c`` the cluster's max residual. Scanning clusters by
    ``ub_c = q·c + r_c`` descending and stopping once ``ub_c ≤`` the
    current kth-best score therefore never misses a true neighbor — this
    is IVF as an exact index (the pruning guarantee), not an approximate
    ``nprobe`` heuristic, which is why the brute-force oracle applies.

    Scale shape: centroids train on a bounded sample; assignment is one
    broadcast ``map_batches`` materialized once (3 narrow columns +
    vector); each probe round is a vectorized cluster-membership filter
    over the materialized blocks — no shuffle anywhere.
    """
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    qn = _normalize(query)  # (Q, dim)
    cents = train_centroids(emb_ds, n_clusters=n_clusters, seed=seed)

    cents_ref = ray.put(cents)

    def assign_task(batch: pa.Table, cents_ref) -> pa.Table:
        stage = worker_state("ann_ivf_assign", cents_ref.hex(),
                             lambda: _IVFAssign(cents_ref))
        return stage(batch)

    assigned = emb_ds.map_batches(
        assign_task, fn_kwargs={"cents_ref": cents_ref},
        batch_format="pyarrow", batch_size=4096,
    ).materialize()

    # Per-cluster max residual: a per-batch combiner (≤ K rows out per
    # batch) folded on the driver — K is the centroid count, so this is
    # O(K) driver state; a groupby here would shuffle the embedding
    # column for nothing.
    def _resid_partial(t: pa.Table) -> pa.Table:
        cl = np.asarray(t.column("cluster"), dtype=np.int64)
        rs = np.asarray(t.column("resid"), dtype=np.float64)
        out = np.zeros(len(cents))
        if len(cl):
            np.maximum.at(out, cl, rs)
        present = np.unique(cl)
        return pa.Table.from_arrays(
            [pa.array(present, pa.int64()),
             pa.array(out[present], pa.float64())],
            names=["cluster", "r"],
        )

    r = np.zeros(len(cents))
    for part in iter_tables(assigned.map_batches(
            _resid_partial, batch_format="pyarrow")):
        cl = np.asarray(part.column("cluster"), dtype=np.int64)
        if len(cl):
            np.maximum.at(r, cl, np.asarray(part.column("r"), dtype=np.float64))
    ub = qn @ cents.T + r[None, :]  # (Q, K) per-query upper bounds

    k_clusters = ub.shape[1]
    probe = init_probe or max(1, -(-k_clusters // 4))
    # per-query probe lists in ub order
    order = np.argsort(-ub, axis=1)
    scanned: set[int] = set()
    for qi in range(ub.shape[0]):
        scanned.update(order[qi, :probe].tolist())

    def scan(clusters: set[int]) -> pa.Table:
        cl = np.array(sorted(clusters), dtype=np.int32)  # ≤ K ids: ship inline

        def in_clusters(t: pa.Table) -> pa.Table:
            if not t.num_rows:
                return t
            hit = np.isin(np.asarray(t.column("cluster")), cl)
            return t.filter(pa.array(hit))

        cand = assigned.map_batches(
            in_clusters, batch_format="pyarrow", batch_size=4096,
        )
        return brute_force_topk(cand.select_columns(["vec_id", "embedding"]),
                                query, k)

    # Round 1 scans the probe set; each later round scans ONLY the delta
    # clusters whose bound still beats some query's kth-best and merges
    # its ranked rows into the result on the driver — no cluster is read
    # twice.
    res = scan(scanned)
    while True:
        qidx = res.column("query_idx").to_numpy()
        score = res.column("score").to_numpy()
        need: set[int] = set()
        for qi in range(ub.shape[0]):
            mine = score[qidx == qi]
            kth = float(mine.min()) if len(mine) >= k else -np.inf
            need.update(
                c for c in range(k_clusters)
                if c not in scanned and ub[qi, c] > kth
            )
        if not need:
            return res
        new = scan(need)
        scanned |= need
        if new.num_rows:
            res = top_k(pa.concat_tables([res, new]).drop_columns(["rank"]),
                        [("score", "descending"), ("vec_id", "ascending")],
                        k, "query_idx")


# -- exact near-dup pairs (block-matmul sweep, driver-free) ------------------

def _shard_matrix(refs_ref, ref) -> tuple[np.ndarray, np.ndarray]:
    """Right-side shard ``ref`` of the sweep over ``refs_ref``, decoded
    and row-normalized once per worker. The worker keeps only the
    current sweep's shards."""
    shards = worker_state("ann_shards", refs_ref.hex(), dict)
    got = shards.get(ref.hex())
    if got is None:
        # zero-copy read; as_arrow_table is identity for arrow blocks
        ids, emb = _batch_matrix(as_arrow_table(ray.get(ref)))
        got = shards[ref.hex()] = (ids, _normalize(emb))
    return got


def embedding_near_dup_pairs(emb_ds, threshold: float = 0.95):
    """Embedding-cosine near-duplicate pairs: all (a < b) with cosine ≥
    threshold — EXACT, via a distributed block-matmul sweep.

    The right side is the dataset's own materialized Arrow blocks: the
    driver holds only object refs (never the data); each left batch
    sweeps the shards one at a time — ``batch × shardᵀ`` — and each
    worker decodes a shard once per sweep (:func:`_shard_matrix`).
    O(n²) flops is inherent to exactness; the sub-quadratic path is
    :func:`embedding_near_dup_pairs_lsh`.
    """
    shard_refs = collect_block_refs(emb_ds.select_columns(["vec_id", "embedding"]))
    refs_ref = ray.put(shard_refs)

    class PairFinder:
        def __init__(self, refs_ref, threshold):
            self.refs_ref = refs_ref
            self.shard_refs = ray.get(refs_ref)
            self.threshold = threshold

        def __call__(self, batch: pa.Table) -> pa.Table:
            bids, bemb = _batch_matrix(batch)
            bn = _normalize(bemb) if len(bids) else bemb
            out_a, out_b, out_s = [], [], []
            for ref in self.shard_refs:
                sids, smat = _shard_matrix(self.refs_ref, ref)
                if not len(sids) or not len(bids):
                    continue
                sims = bn @ smat.T  # (batch, shard)
                rows_i, cols_j = np.nonzero(sims >= self.threshold)
                keep = bids[rows_i] < sids[cols_j]  # a < b, drops self-pairs
                rows_i, cols_j = rows_i[keep], cols_j[keep]
                out_a.append(bids[rows_i])
                out_b.append(sids[cols_j])
                out_s.append(np.round(sims[rows_i, cols_j] * 1e6).astype(np.int64))
            cat = (lambda xs, d: np.concatenate(xs) if xs else np.array([], dtype=d))
            return pa.Table.from_arrays(
                [pa.array(cat(out_a, np.int64), pa.int64()),
                 pa.array(cat(out_b, np.int64), pa.int64()),
                 pa.array(cat(out_s, np.int64), pa.int64())],
                names=["vec_a", "vec_b", "sim_e6"],
            )

    def pair_finder_task(batch: pa.Table, refs_ref, threshold) -> pa.Table:
        stage = worker_state("ann_pair_finder", (refs_ref.hex(), threshold),
                             lambda: PairFinder(refs_ref, threshold))
        return stage(batch)

    return emb_ds.map_batches(
        pair_finder_task, fn_kwargs={"refs_ref": refs_ref, "threshold": threshold},
        batch_format="pyarrow", batch_size=4096,
    )


def _int_shard(refs_ref, ref) -> tuple[np.ndarray, np.ndarray]:
    """Shard ``ref`` of the 1-NN sweep over ``refs_ref`` in e6 fixed
    point, ids sorted so in-shard argmin ties resolve to the smaller
    vec_id for free. The worker keeps only the current sweep's shards."""
    shards = worker_state("ann_int_shards", refs_ref.hex(), dict)
    got = shards.get(ref.hex())
    if got is None:
        from .vecagg import EMB_SCALE, _round_half_away

        ids, emb = _batch_matrix(as_arrow_table(ray.get(ref)))
        x = _round_half_away(emb.astype(np.float64) * EMB_SCALE)
        order = np.argsort(ids)
        got = shards[ref.hex()] = (ids[order].astype(np.int64), x[order])
    return got


def emb_nn_join(emb_ds):
    """Exact 1-NN self-join: for every vector, its nearest OTHER vector
    by squared L2 — SemDeDup's core primitive (dedup decisions key off
    each point's nearest-neighbor distance) and the kNN-join shape
    (every left row probes, unlike the fixed-query ``brute_force_topk``).

    Distances are exact integers in e6 units: elements are fixed-pointed
    (``round(x·1e6)``, the vecagg contract) and the float64 BLAS matmul
    that computes ``‖a‖² + ‖b‖² − 2a·b`` is EXACT here — every partial
    product and sum is an integer below 2⁵³ (64 dims × (1.2e6)² ≈ 9e13)
    — so ties are well-defined and break to the smaller neighbor id.

    Plan: the same driver-free block-sweep as
    :func:`embedding_near_dup_pairs` — each left batch folds a running
    (best_dist, best_id) over the materialized shard refs
    (:func:`_int_shard`). O(n²) work is inherent to the exact
    answer; the scale path composes :func:`ivf_topk`'s coarse clusters
    (or :mod:`.kmeans`) to restrict each sweep to same-cluster shards.
    """
    shard_refs = collect_block_refs(emb_ds.select_columns(["vec_id", "embedding"]))
    refs_ref = ray.put(shard_refs)

    def nn_task(batch: pa.Table, refs_ref) -> pa.Table:
        from .vecagg import EMB_SCALE, _round_half_away

        bids, bemb = _batch_matrix(batch)
        if not len(bids):
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "nn_id": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.int64())})
        x = _round_half_away(bemb.astype(np.float64) * EMB_SCALE)
        xx = (x * x).sum(axis=1)
        best_d = np.full(len(bids), np.inf)
        best_id = np.full(len(bids), -1, np.int64)
        for ref in ray.get(refs_ref):
            sids, y = _int_shard(refs_ref, ref)
            if not len(sids):
                continue
            d2 = xx[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * (x @ y.T)
            d2[bids[:, None] == sids[None, :]] = np.inf  # mask self
            j = d2.argmin(axis=1)                        # first min → smaller id
            d = d2[np.arange(len(bids)), j]
            cand_id = sids[j]
            better = (d < best_d) | ((d == best_d) & (cand_id < best_id))
            best_d = np.where(better, d, best_d)
            best_id = np.where(better, cand_id, best_id)
        keep = np.isfinite(best_d)                       # singleton corpus guard
        return pa.table({
            "vec_id": pa.array(bids[keep].astype(np.int64), pa.int64()),
            "nn_id": pa.array(best_id[keep], pa.int64()),
            "dist": pa.array(best_d[keep].astype(np.int64), pa.int64()),
        })

    return emb_ds.map_batches(nn_task, fn_kwargs={"refs_ref": refs_ref},
                              batch_format="pyarrow", batch_size=4096)
