"""Deduplication operators over the ``documents`` table.

Exact dedup (hash-partition + per-group first), MinHash+LSH near-dup,
SimHash bucketing, and n-gram Jaccard verification — the training-data
curation counterparts of the engine's content-hash dedup
(``stages/dedup.py``; reference semantics
``/root/reference/docvision/azure/response_cache.py:66-91``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.collect import collect_table, collect_tables, fold_capped
from ..functions.minhash import (
    band_hash_matrix,
    estimated_jaccard,
    exact_jaccard,
    minhash_params,
    minhash_signature,
    minhash_signatures_batch,
    shingle_hashes,
)
from ..state.worker import worker_state


# -- exact dedup -------------------------------------------------------------

def add_text_md5(batch: pa.Table) -> pa.Table:
    """md5 of the raw text (md5 so the DuckDB oracle can reproduce it)."""
    hs = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in batch.column("text").to_pylist()]
    return batch.append_column("text_hash", pa.array(hs, pa.string()))


def exact_dedup_docs(docs_ds):
    """documents → one representative (min doc_id) per distinct text,
    with the duplicate multiplicity. Group count ~ corpus size, so the
    reduce is the bucketed hash aggregate (``stages/hashagg.py``:
    batch combiner → coarse bucket shuffle → Arrow C++ merge), never a
    per-group Python call."""
    from .hashagg import grouped_aggregate

    ds = docs_ds.map_batches(add_text_md5, batch_format="pyarrow")
    ds = ds.select_columns(["text_hash", "doc_id"])
    out = grouped_aggregate(
        ds, "text_hash",
        [("doc_id", "min", "rep_doc_id"), ("doc_id", "count", "n_dups")])
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("text_hash"), t.column("rep_doc_id").cast(pa.int64()),
             t.column("n_dups").cast(pa.int64())],
            names=["text_hash", "rep_doc_id", "n_dups"],
        ),
        batch_format="pyarrow",
    )


# -- MinHash + LSH near-dup --------------------------------------------------

def _worker_minhash_stage(num_hashes: int, num_bands: int, k_shingle: int,
                          seed: int = 7) -> "MinHashStage":
    key = (num_hashes, num_bands, k_shingle, seed)
    return worker_state("minhash", key, lambda: MinHashStage(*key))


def minhash_band_task(batch: pa.Table, num_hashes: int = 128, num_bands: int = 32,
                      k_shingle: int = 5) -> pa.Table:
    return _worker_minhash_stage(num_hashes, num_bands, k_shingle)(batch)


class MinHashStage:
    """Stateful stage: shingles → signature → LSH band-key rows.

    Emits (doc_id, band_key) — one row per band; ``band_key`` folds the
    band index into the band hash, so a single int64 equality groups
    candidates. Warm per-worker state: hash params + a token-hash cache
    (vocabularies repeat heavily across documents).
    """

    def __init__(self, num_hashes: int = 128, num_bands: int = 32, k_shingle: int = 5,
                 seed: int = 7) -> None:
        self.a, self.b = minhash_params(num_hashes, seed)
        self.num_bands = num_bands
        self.k = k_shingle
        self._token_cache: dict[str, int] = {}

    def signature(self, text: str) -> np.ndarray:
        return minhash_signature(
            shingle_hashes(text or "", self.k, self._token_cache), self.a, self.b
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        shingles = [shingle_hashes(t or "", self.k, self._token_cache) for t in texts]
        sigs = minhash_signatures_batch(shingles, self.a, self.b)
        keys = band_hash_matrix(sigs, self.num_bands)  # (docs, bands)
        n, b = keys.shape
        return pa.Table.from_arrays(
            [
                pa.array(np.repeat(doc_ids, b), pa.int64()),
                pa.array(keys.reshape(-1).view(np.int64), pa.int64()),
            ],
            names=["doc_id", "band_key"],
        )


#: Band-row count (docs × bands) above which pair discovery switches from
#: the driver-side vectorized pass to the fully distributed plan.
DRIVER_MAX_BAND_ROWS = 50_000_000


def _discover_pairs_driver(bands) -> list[tuple[int, int]]:
    """Collect the narrow (doc_id, band_key) table and pair hot keys on
    the driver — one vectorized pass, no extra Ray job barriers. Only
    valid below :data:`DRIVER_MAX_BAND_ROWS`."""
    import ray

    band_tables = collect_tables(bands)
    if not band_tables:
        return []
    tbl = pa.concat_tables(band_tables).combine_chunks()
    keys_np = tbl.column("band_key").to_numpy()
    docs_np = tbl.column("doc_id").to_numpy()
    uniq, inv, cnt = np.unique(keys_np, return_inverse=True, return_counts=True)
    hot_mask = cnt[inv] > 1
    by_key: dict[int, list[int]] = {}
    for k, d in zip(keys_np[hot_mask].tolist(), docs_np[hot_mask].tolist()):
        by_key.setdefault(k, []).append(d)
    pair_set: set[tuple[int, int]] = set()
    for ids in by_key.values():
        ids = sorted(set(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pair_set.add((ids[i], ids[j]))
    return sorted(pair_set)


def _discover_pairs_distributed(bands) -> list[tuple[int, int]]:
    """Distributed candidate discovery — the band table never lands on
    the driver:

    1. ``groupby(band_key).aggregate(Count)`` (narrow int64 shuffle) →
       filter count > 1: collisions are rare, so the HOT-KEY set is tiny
       and is the only thing collected/broadcast;
    2. member filter (``is_in`` over the broadcast hot keys — stateless
       vectorized map, no shuffle);
    3. ``groupby(band_key).map_groups`` emits within-key pairs;
    4. ``groupby(doc_a, doc_b).aggregate(Count)`` dedups across bands.

    Only the final DEDUPED pair list (multiplicity ~ duplicate rate, not
    corpus size) is collected — the same driver bound the downstream
    candidate-text broadcast already requires.
    """
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    bands_m = bands.materialize()  # two consumers: counts + member filter
    hot = bands_m.groupby("band_key").aggregate(Count(alias_name="n")).map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), pa.scalar(1))).select(["band_key"]),
        batch_format="pyarrow",
    )
    hot_rows = hot.take_all()  # bounded: band keys shared by ≥ 2 docs
    hot_keys = pa.array([r["band_key"] for r in hot_rows], pa.int64())
    if not len(hot_keys):
        return []
    members = bands_m.map_batches(
        lambda t: t.filter(pc.is_in(t.column("band_key"), value_set=hot_keys)),
        batch_format="pyarrow",
    )

    def pairs_in_group(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(set(g["doc_id"].tolist()))
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                                 "doc_b": pd.Series(dtype="int64")})
        a, b = zip(*((ids[i], ids[j]) for i in range(len(ids))
                     for j in range(i + 1, len(ids))))
        return pd.DataFrame({"doc_a": list(a), "doc_b": list(b)})

    pairs = members.groupby("band_key").map_groups(pairs_in_group, batch_format="pandas")
    deduped = pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="_n"))
    rows = deduped.select_columns(["doc_a", "doc_b"]).take_all()  # bounded: candidate pairs
    return sorted((r["doc_a"], r["doc_b"]) for r in rows)


def _discover_pairs(bands, n_band_rows: int) -> list[tuple[int, int]]:
    """Sorted distinct candidate pairs of a (doc_id, band_key) table: the
    driver pass up to :data:`DRIVER_MAX_BAND_ROWS` band rows, the
    distributed one above it. Both give the identical list (tested)."""
    if n_band_rows <= DRIVER_MAX_BAND_ROWS:
        return _discover_pairs_driver(bands)
    return _discover_pairs_distributed(bands)


def _lsh_pairs(docs_ds, num_hashes: int, num_bands: int, k_shingle: int,
               min_est_jaccard: float):
    """documents → (near-duplicate candidate pairs (doc_a, doc_b,
    est_jaccard), deduped across bands, est ≥ ``min_est_jaccard``; the
    candidate-text dict the broadcast est stage collected — empty when
    there are no candidates or the join-co-located plan ran — so the
    verify stage can reuse it).

    Physical plan (combiner + broadcast, no giant tiny-group shuffle):

    1. map: shingle → minhash → band keys (one narrow int64 row per band);
    2. candidate discovery (:func:`_discover_pairs`) — one vectorized
       driver pass over the collected two-int64-column band table below
       :data:`DRIVER_MAX_BAND_ROWS` band rows, else
       :func:`_discover_pairs_distributed` (groupby-Count → hot-key
       broadcast → member filter → within-key pairing → pair dedup, with
       only the tiny hot-key set and final pair list ever on the driver).
    3. estimated Jaccard is computed distributed over the pair list from
       re-derived signatures of ONLY the candidate documents: their texts
       are broadcast once via ``ray.put`` while the candidate set is under
       :data:`VERIFY_BROADCAST_MAX_DOCS`, else each pair is co-located
       with both texts via two narrow hash joins
       (:func:`attach_pair_texts`) and scored in-stream.

    The :func:`minhash_near_dup_verified` banding defaults (128 hashes,
    32 bands × 4 rows) put the s-curve collision threshold at
    (1/32)^(1/4) ≈ 0.42, matched to its default ``min_est_jaccard=0.5``
    (16×8 would miss half of 0.5–0.7 near-dups).
    """
    import pyarrow.compute as pc
    import ray
    import ray.data

    pairs_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                              ("est_jaccard", pa.float64())])

    # Task-based stage; the warm MinHashStage sits in a worker_state slot.
    bands = docs_ds.map_batches(
        minhash_band_task,
        fn_kwargs={"num_hashes": num_hashes, "num_bands": num_bands,
                   "k_shingle": k_shingle},
        batch_format="pyarrow",
    )
    pairs_sorted = _discover_pairs(bands, docs_ds.count() * num_bands)
    if not pairs_sorted:
        return ray.data.from_arrow(pairs_schema.empty_table()), {}
    cand_ids = sorted({d for p in pairs_sorted for d in p})

    pairs_ds = ray.data.from_arrow(pa.Table.from_arrays(
        [pa.array([p[0] for p in pairs_sorted], pa.int64()),
         pa.array([p[1] for p in pairs_sorted], pa.int64())],
        names=["doc_a", "doc_b"],
    ))

    if len(cand_ids) > VERIFY_BROADCAST_MAX_DOCS:
        # candidate set too big for a driver/worker text dict: co-locate
        # each pair with both texts (two narrow hash joins) and derive
        # signatures inside the stream — nothing text-sized on the driver.
        def est_joined_task(t: pa.Table) -> pa.Table:
            stage = _worker_minhash_stage(num_hashes, num_bands, k_shingle)
            cache: dict[int, np.ndarray] = {}

            def sig(did: int, text: str) -> np.ndarray:
                s = cache.get(did)
                if s is None:
                    s = cache[did] = stage.signature(text or "")
                return s

            est = [estimated_jaccard(sig(a, x), sig(b, y))
                   for a, b, x, y in zip(t.column("doc_a").to_pylist(),
                                         t.column("doc_b").to_pylist(),
                                         t.column("text_a").to_pylist(),
                                         t.column("text_b").to_pylist())]
            out = t.drop_columns(["text_a", "text_b"])
            out = out.append_column("est_jaccard", pa.array(est, pa.float64()))
            return out.filter(pc.greater_equal(out.column("est_jaccard"),
                                               pa.scalar(min_est_jaccard)))

        return attach_pair_texts(docs_ds, pairs_ds).map_batches(
            est_joined_task, batch_format="pyarrow"), {}

    # texts of ONLY the candidate docs, broadcast once
    texts = collect_texts_for_ids(docs_ds, cand_ids)
    ref = ray.put(texts)

    def est_jaccard_task(t: pa.Table) -> pa.Table:
        texts = ray.get(ref)  # zero-copy plasma read per task; pairs are few
        stage = _worker_minhash_stage(num_hashes, num_bands, k_shingle)
        sig_cache: dict[int, np.ndarray] = {}

        def sig(did: int) -> np.ndarray:
            s = sig_cache.get(did)
            if s is None:
                s = stage.signature(texts.get(did, "") or "")
                sig_cache[did] = s
            return s

        da = t.column("doc_a").to_pylist()
        db = t.column("doc_b").to_pylist()
        est = [estimated_jaccard(sig(a), sig(b)) for a, b in zip(da, db)]
        out = t.append_column("est_jaccard", pa.array(est, pa.float64()))
        return out.filter(pc.greater_equal(out.column("est_jaccard"),
                                           pa.scalar(min_est_jaccard)))

    return pairs_ds.map_batches(est_jaccard_task, batch_format="pyarrow"), texts


def minhash_near_dup_verified(docs_ds, num_hashes: int = 128, num_bands: int = 32,
                              k_shingle: int = 5, min_est_jaccard: float = 0.5,
                              verify_threshold: float = 0.5):
    """Fused candidates + exact-Jaccard verification. On the broadcast
    path the candidate-text collection runs ONCE and its dict feeds both
    the est-Jaccard filter and the verify stage (they cover the same doc
    set — verification only ever shrinks the pair list). When the
    candidate set is over :data:`VERIFY_BROADCAST_MAX_DOCS` both stages
    run join-co-located and no text dict exists anywhere."""
    pairs, texts = _lsh_pairs(docs_ds, num_hashes, num_bands, k_shingle,
                              min_est_jaccard)
    if texts:
        return _verify_broadcast(pairs, texts, k_shingle, verify_threshold)
    # no texts: no candidates at all, or the est stage took the join
    # plan — let verify pick its own plan from the pairs
    return ngram_jaccard_verify(docs_ds, pairs, k_shingle=k_shingle,
                                threshold=verify_threshold)


# -- SimHash -----------------------------------------------------------------

#: Worker-global token-hash cache for the SimHash stage (vocabulary is
#: tiny relative to token counts; task workers are reused).
_SIMHASH_TOKEN_CACHE: dict[str, int] = {}


#: Worker-global reusable scratch buffers for the SimHash kernel. Fresh
#: large numpy allocations are mmap-backed and re-fault their pages on
#: every batch (measured ~10 MB/s first-touch on the target VM class vs
#: GB/s on warm pages), so the two token-length work arrays are
#: allocated once per worker and sliced per batch.
_SIMHASH_SCRATCH: dict[str, np.ndarray] = {}


def _simhash_scratch(name: str, n: int, dtype) -> np.ndarray:
    buf = _SIMHASH_SCRATCH.get(name)
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = np.empty(n + (n >> 2) + 16, dtype=dtype)
        _SIMHASH_SCRATCH[name] = buf
    return buf[:n]


def simhash_batch(batch: pa.Table) -> pa.Table:
    """Whole-batch vectorized SimHash (signed int64 domain): Arrow
    tokenize of ``lower(text)`` (``\\S+`` parity with
    :func:`~..functions.minhash.simhash64`), dictionary-encode so
    ``md5_number_lower`` runs once per DISTINCT token (worker-cached across
    batches), then per-doc bit-majority as 64 shift/mask/
    ``np.add.reduceat`` sweeps over ONE reused token-length scratch
    buffer — no per-document Python, no (tokens × 64) bit-matrix
    materialization. Byte-equal to per-doc ``simhash64`` (differential
    test in ``tests/test_minhash.py``)."""
    import pyarrow.compute as pc

    from ..functions.fasthash import md5_number_lower
    from .ranking import _flat_tokens

    ids = batch.column("doc_id")
    la, _, n_tokens = _flat_tokens(batch)
    compact = la.filter(pc.not_equal(la, "").fill_null(False))
    if isinstance(compact, pa.ChunkedArray):
        compact = compact.combine_chunks()
    n_tokens = n_tokens.astype(np.int64)
    ndocs = len(n_tokens)
    ntok = len(compact)
    if ntok == 0:  # all-empty batch: simhash64("") == 0
        return pa.Table.from_arrays(
            [ids, pa.array(np.full(ndocs, -(1 << 63), np.int64), pa.int64())],
            names=["doc_id", "simhash"])

    de = compact.dictionary_encode()
    uniq = de.dictionary.to_pylist()
    idx = de.indices.to_numpy(zero_copy_only=False)
    cache = _SIMHASH_TOKEN_CACHE
    if len(cache) > 1_000_000:
        cache.clear()
    uh = np.empty(len(uniq), dtype=np.uint64)
    for i, tok in enumerate(uniq):
        h = cache.get(tok)
        if h is None:
            h = md5_number_lower(tok)
            cache[tok] = h
        uh[i] = h

    # Token-occurrence hashes + a zero sentinel slot so reduceat segment
    # starts may equal ntok (trailing empty docs).
    hs = _simhash_scratch("hs", ntok + 1, np.uint64)
    np.take(uh, idx, out=hs[:ntok])
    hs[ntok] = 0
    tmp = _simhash_scratch("tmp", ntok + 1, np.uint64)
    starts = np.concatenate([[0], np.cumsum(n_tokens)[:-1]])
    nonempty = n_tokens > 0
    u = np.zeros(ndocs, dtype=np.uint64)
    for b in range(64):
        np.right_shift(hs, np.uint64(b), out=tmp)
        np.bitwise_and(tmp, np.uint64(1), out=tmp)
        ssum = np.add.reduceat(tmp, starts).astype(np.int64)
        # empty-doc segments alias a neighbor's slot under reduceat's
        # repeated-index rule — their majority must come out False
        maj = nonempty & (ssum * 2 > n_tokens)
        u |= maj.astype(np.uint64) << np.uint64(b)
    vals = (u ^ np.uint64(1 << 63)).view(np.int64)  # unsigned → signed domain
    return pa.Table.from_arrays(
        [ids, pa.array(vals, pa.int64())], names=["doc_id", "simhash"])


def _popcount64(v: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy<2 has no
    ``bitwise_count``): unpack to a (n, 64) bit matrix, sum rows."""
    return np.unpackbits(v.view(np.uint8).reshape(-1, 8), axis=1).sum(
        axis=1, dtype=np.int64)


def _simhash_band_keys(batch: pa.Table, num_bands: int) -> pa.Table:
    """(doc_id, simhash) → one (doc_id, band_key) row per contiguous bit
    band. Banding runs on the stored signed bit pattern directly: the
    int64 two's-complement pattern is ``unsigned XOR 2^63`` — a uniform
    top-bit flip across all documents — so within-band equality (all the
    discovery step uses) is unchanged."""
    ids = batch.column("doc_id").to_numpy()
    u = batch.column("simhash").to_numpy().view(np.uint64)
    widths = [64 // num_bands] * num_bands
    for i in range(64 % num_bands):
        widths[i] += 1
    keys = np.empty((len(u), num_bands), dtype=np.uint64)
    off = 0
    for j, w in enumerate(widths):
        chunk = (u >> np.uint64(off)) & np.uint64((1 << w) - 1)
        keys[:, j] = (np.uint64(j) << np.uint64(33)) | chunk
        off += w
    return pa.Table.from_arrays(
        [pa.array(np.repeat(ids, num_bands), pa.int64()),
         pa.array(keys.reshape(-1).view(np.int64), pa.int64())],
        names=["doc_id", "band_key"],
    )


def simhash_near_dup_pairs(docs_ds, max_hamming: int = 3):
    """documents → EXACT Hamming-ball near-dup pairs
    ``(doc_a, doc_b, hamming)`` with ``hamming <= max_hamming``.

    Pigeonhole banding, not probabilistic LSH: the 64-bit SimHash splits
    into ``max_hamming + 1`` contiguous bit bands, and two sketches within
    distance d <= max_hamming differ in at most d bands, so they AGREE on
    at least one band — candidate recall is exactly 1, and the vectorized
    XOR-popcount verify makes the result exact, never approximate (the
    deterministic counterpart of the reference's near-dup merges, D5–D6;
    same banding machinery as :func:`_lsh_pairs`).

    Physical plan: one narrow (doc_id:int64, simhash:int64) sketch table,
    materialized once for its two consumers (band explosion + candidate
    lookup); candidate discovery reuses the MinHash driver/distributed
    switch (:func:`_discover_pairs`); only candidate sketches
    (multiplicity ~ duplicate rate) and the final pair list ever reach
    the driver. Because BOTH discovery plans end
    with the deduped pair list on the driver, the XOR-popcount verify runs
    right there over the (already collected) candidate sketches — one
    vectorized numpy pass, zero extra dataset executions, and no new
    driver bound beyond the pair list the discovery step already pays.
    """
    import pyarrow.compute as pc
    import ray
    import ray.data

    num_bands = max_hamming + 1
    if not 2 <= num_bands <= 32:
        raise ValueError(f"max_hamming={max_hamming} out of range (1..31)")
    pairs_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                              ("hamming", pa.int64())])

    sims = docs_ds.map_batches(simhash_batch, batch_format="pyarrow").materialize()
    bands = sims.map_batches(_simhash_band_keys, fn_kwargs={"num_bands": num_bands},
                             batch_format="pyarrow")
    pairs_sorted = _discover_pairs(bands, sims.count() * num_bands)
    if not pairs_sorted:
        return ray.data.from_arrow(pairs_schema.empty_table())

    # Candidate-sketch lookup: one is_in filter pass over the materialized
    # sketch table; only candidate rows (≤ 2 × pairs) reach the driver.
    cand_ids = pa.array(sorted({d for p in pairs_sorted for d in p}), pa.int64())
    cand = collect_table(
        sims.map_batches(
            lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=cand_ids)),
            batch_format="pyarrow",
        ),
        schema=pa.schema([("doc_id", pa.int64()), ("simhash", pa.int64())]),
    )
    sketch = dict(zip(cand.column("doc_id").to_pylist(),
                      cand.column("simhash").to_pylist()))

    pa_np = np.fromiter((p[0] for p in pairs_sorted), dtype=np.int64,
                        count=len(pairs_sorted))
    pb_np = np.fromiter((p[1] for p in pairs_sorted), dtype=np.int64,
                        count=len(pairs_sorted))
    a = np.fromiter((sketch[d] for d in pa_np.tolist()), dtype=np.int64,
                    count=len(pa_np)).view(np.uint64)
    b = np.fromiter((sketch[d] for d in pb_np.tolist()), dtype=np.int64,
                    count=len(pb_np)).view(np.uint64)
    ham = _popcount64(a ^ b).astype(np.int64)
    keep = ham <= max_hamming
    return ray.data.from_arrow(pa.Table.from_arrays(
        [pa.array(pa_np[keep], pa.int64()), pa.array(pb_np[keep], pa.int64()),
         pa.array(ham[keep], pa.int64())],
        names=["doc_a", "doc_b", "hamming"]))


# -- n-gram Jaccard verification --------------------------------------------

#: Candidate-doc count above which the verify stages refuse to collect
#: texts onto the driver and switch to the join-co-located plan. The
#: broadcast dict is one Python string per candidate doc — 2M web pages
#: at ~4 KB is ~8 GB; anything bigger must not land on one machine.
VERIFY_BROADCAST_MAX_DOCS = 2_000_000

#: Verify collects candidate pairs to the driver only up to this many
#: rows (a few int64 columns → tens of MB at the cap). Candidate
#: generation is bounded per band key or prefix gram, not per corpus —
#: a duplicate-heavy corpus yields O(dup-pairs) candidates — so the
#: collect streams with a running count and, past the cap, the verify
#: takes the join-co-located plan over the pairs already produced.
PAIR_COLLECT_MAX_ROWS = 2_000_000

PAIR_IDS_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


def attach_pair_texts(docs_ds, pairs_ds, num_partitions: int = 8):
    """Co-locate each candidate pair with BOTH documents' texts — two
    narrow hash joins (pairs ⋈ docs on doc_a, then on doc_b), no driver
    state: the scale path for near-dup verification when the candidate
    set is too big to broadcast. Missing docs surface as "" (the same
    default the broadcast dict uses). All pair columns pass through;
    ``text_a`` / ``text_b`` are appended."""
    import pyarrow.compute as pc

    from .joins import safe_join

    docs = docs_ds.select_columns(["doc_id", "text"])
    doc_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])

    def _rename_text(to: str):
        def fn(t: pa.Table) -> pa.Table:
            i = t.column_names.index("text")
            col = pc.fill_null(t.column("text"), "")
            return t.set_column(i, to, col)
        return fn

    j1 = safe_join(pairs_ds, docs, join_type="left_outer",
                   num_partitions=num_partitions,
                   on=("doc_a",), right_on=("doc_id",),
                   right_schema=doc_schema)
    j1 = j1.map_batches(_rename_text("text_a"), batch_format="pyarrow")
    j2 = safe_join(j1, docs, join_type="left_outer",
                   num_partitions=num_partitions,
                   on=("doc_b",), right_on=("doc_id",),
                   right_schema=doc_schema)
    return j2.map_batches(_rename_text("text_b"), batch_format="pyarrow")


def collect_texts_for_ids(docs_ds, ids) -> dict[int, str]:
    """Collect the texts of ONLY the given doc ids (candidate multiplicity
    ~ duplicate rate, not corpus size) — a distributed filter pass, never
    a full-table driver materialization."""
    import pyarrow.compute as pc
    import ray

    if not ids:
        return {}
    id_set = pa.array(sorted(ids), pa.int64())
    got = collect_tables(
        docs_ds.select_columns(["doc_id", "text"]).map_batches(
            lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=id_set)),
            batch_format="pyarrow",
        ))
    if not got:
        return {}
    tbl = pa.concat_tables(got)
    return dict(zip(tbl.column("doc_id").to_pylist(),
                    tbl.column("text").to_pylist()))


class _JaccardVerify:
    """Per-worker verify state: broadcast candidate texts + shingle cache."""

    def __init__(self, ref, k, threshold):
        import ray

        self.texts = ray.get(ref)
        self.k = k
        self.threshold = threshold
        self.cache: dict[int, np.ndarray] = {}

    def _sh(self, did: int) -> np.ndarray:
        if did not in self.cache:
            self.cache[did] = shingle_hashes(self.texts.get(did, "") or "", self.k)
        return self.cache[did]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        da = batch.column("doc_a").to_pylist()
        db = batch.column("doc_b").to_pylist()
        jac = [exact_jaccard(self._sh(a), self._sh(b)) for a, b in zip(da, db)]
        t = batch.append_column("jaccard", pa.array(jac, pa.float64()))
        return t.filter(pc.greater_equal(t.column("jaccard"), pa.scalar(self.threshold)))


def _verify_task(batch: pa.Table, ref, k: int, threshold: float) -> pa.Table:
    return worker_state("jaccard_verify", (ref.hex(), k, threshold),
                        lambda: _JaccardVerify(ref, k, threshold))(batch)


def _verify_distributed_task(batch: pa.Table, k: int, threshold: float) -> pa.Table:
    """Exact-Jaccard scoring over join-co-located (…, text_a, text_b)
    rows. A small per-batch shingle cache covers docs that appear in
    several pairs of the same batch."""
    import pyarrow.compute as pc

    cache: dict[int, np.ndarray] = {}

    def sh(did: int, text: str) -> np.ndarray:
        s = cache.get(did)
        if s is None:
            s = cache[did] = shingle_hashes(text or "", k)
        return s

    da = batch.column("doc_a").to_pylist()
    db = batch.column("doc_b").to_pylist()
    ta = batch.column("text_a").to_pylist()
    tb = batch.column("text_b").to_pylist()
    jac = [exact_jaccard(sh(a, x), sh(b, y))
           for a, b, x, y in zip(da, db, ta, tb)]
    t = batch.drop_columns(["text_a", "text_b"])
    t = t.append_column("jaccard", pa.array(jac, pa.float64()))
    return t.filter(pc.greater_equal(t.column("jaccard"), pa.scalar(threshold)))


def ngram_jaccard_verify(docs_ds, pairs_ds, k_shingle: int = 5, threshold: float = 0.5,
                         num_partitions: int = 8):
    """Verify candidate pairs with EXACT n-gram Jaccard. Two plans,
    row-identical (tested):

    - broadcast: collect the texts of ONLY the docs that appear in a
      candidate pair and broadcast once via ``ray.put`` — the fast path,
      up to :data:`VERIFY_BROADCAST_MAX_DOCS` candidate docs (past it the
      dict is a driver/worker OOM at crawl-level duplication).
    - join-co-located, above the cap: pair each candidate with both
      texts via two narrow hash joins (:func:`attach_pair_texts`) and
      score inside the stream — nothing text-sized reaches the driver.

    The pairs are collected once, under :data:`PAIR_COLLECT_MAX_ROWS`,
    and both plans verify what was collected: the pair Dataset's
    upstream runs once. Past the pair cap the join plan runs over the
    pair blocks already produced.
    """
    import ray.data

    pairs, pairs_src = fold_capped(pairs_ds, PAIR_IDS_SCHEMA, None, None,
                                   PAIR_COLLECT_MAX_ROWS)
    if pairs_src is None:
        pairs_src = ray.data.from_arrow(pairs)
        cand = set(pairs.column("doc_a").to_pylist())
        cand.update(pairs.column("doc_b").to_pylist())
        if len(cand) <= VERIFY_BROADCAST_MAX_DOCS:
            return _verify_broadcast(pairs_src,
                                     collect_texts_for_ids(docs_ds, cand),
                                     k_shingle, threshold)
    return attach_pair_texts(docs_ds, pairs_src, num_partitions).map_batches(
        _verify_distributed_task,
        fn_kwargs={"k": k_shingle, "threshold": threshold},
        batch_format="pyarrow",
    )


def _verify_broadcast(pairs_ds, texts: dict[int, str], k: int, threshold: float):
    """Exact-Jaccard verify against the candidate texts broadcast once."""
    import ray

    ref = ray.put(texts)
    return pairs_ds.map_batches(
        _verify_task, fn_kwargs={"ref": ref, "k": k, "threshold": threshold},
        batch_format="pyarrow",
    )


# -- near-dup clustering (connected components over verified pairs) ----------

def _hook_send(s, d, f, outdeg):
    """Each pair, both directions, sends its source's root to its
    target's root (``f`` is the parent vector, all stars after
    :func:`_hook_update`)."""
    return np.concatenate([f[d], f[s]]), np.concatenate([f[s], f[d]])


def _hook_update(f, inbox):
    """Hook each root to the smallest root it heard from, then jump
    pointers until every node points at its root. Parents only ever
    point at smaller indexes, so the forest has no cycles; each round at
    least halves the roots of every component that is not done."""
    f = np.minimum(f, inbox)
    while not np.array_equal(f[f], f):
        f = f[f]
    return f


def near_dup_clusters(pairs_ds):
    """Verified near-dup pairs → (doc_id, cluster_id) with cluster_id =
    min doc_id of the connected component, one row per doc in a pair.

    ``linkgraph.propagate`` with min rounds over both pair directions to
    a fixpoint: the state is a parent vector over the sorted doc ids,
    and each round hooks roots onto smaller neighbouring roots and
    shortcuts (:func:`_hook_update`), so a component of n docs settles
    in about log2(n) rounds. The pairs fold to the driver under
    ``linkgraph.BROADCAST_MAX_EDGES``; past it the rounds run over the
    distributed pairs."""
    import ray.data

    from .linkgraph import MIN_LABEL, propagate

    hook = MIN_LABEL._replace(send=_hook_send, update=_hook_update)
    docs, f = propagate(pairs_ds.select_columns(["doc_a", "doc_b"]),
                        PAIR_IDS_SCHEMA, hook, None)
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "cluster_id": pa.array(docs[f], pa.int64()),
    }))
