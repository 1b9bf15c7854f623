"""Deduplication operators over the ``documents`` table.

Exact dedup (hash-partition + per-group first), MinHash+LSH near-dup,
SimHash bucketing, and n-gram Jaccard verification — the training-data
curation counterparts of the engine's content-hash dedup
(``stages/dedup.py``; reference semantics
``/root/reference/docvision/azure/response_cache.py:66-91``).

Every near-duplicate operator (MinHash, SimHash, winnowing in
``stages/winnow.py``, n-gram Jaccard in ``stages/jaccard.py``) answers
two questions, and each has one home here:

- :func:`shared_key_pairs` — which documents share a key: the distinct
  ``doc_a < doc_b`` pairs of ``(doc_id, key)`` rows whose key has a
  document frequency in ``[2, max_df]``;
- :func:`score_pairs` — is a candidate pair close enough: each
  candidate text is featurized once and every pair scored by the
  caller's ``score``.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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
from ..functions.textstats import flat_terms
from ..state.worker import worker_state
from .hashagg import grouped_aggregate, grouped_reduce


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


# -- shared-key pairing ------------------------------------------------------

#: Key rows the driver folds and pairs itself; past this many the
#: pairing runs distributed over the partial blocks the fold streamed.
KEY_FOLD_MAX_ROWS = 50_000_000

PAIR_IDS_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])


def _segment_pos(sizes: np.ndarray) -> np.ndarray:
    """0-based position of every element within its segment, for
    consecutive segments of the given sizes."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """Index of the first row of every run of equal rows of the sorted
    ``cols``."""
    n = len(cols[0])
    change = np.zeros(max(n - 1, 0), bool)
    for c in cols:
        change |= c[1:] != c[:-1]
    return np.flatnonzero(np.r_[n > 0, change])


def _pairs_on_driver(t: pa.Table, key: str, max_df: int | None,
                     carry: tuple[str, ...]) -> pa.Table | None:
    """:func:`shared_key_pairs` over key rows in hand, in numpy: sort by
    (key, doc), pair every row with the rows after it in its key group,
    then count the distinct pairs. ``None``, before any expansion, when
    the key groups expand to more than :data:`PAIR_COLLECT_MAX_ROWS`
    pairs."""
    doc = t.column("doc_id").to_numpy()
    ks = t.column(key).to_numpy()
    order = np.lexsort((doc, ks))
    start = _run_starts(ks[order])
    size = np.diff(np.r_[start, len(ks)])
    ok = size >= 2 if max_df is None else (size >= 2) & (size <= max_df)
    start, size = start[ok], size[ok]
    if (size * (size - 1) // 2).sum() > PAIR_COLLECT_MAX_ROWS:
        return None
    pos = _segment_pos(size)
    fan = np.repeat(size, size) - 1 - pos  # rows after it in its group
    left = np.repeat(np.repeat(start, size) + pos, fan)
    ia, ib = order[left], order[left + 1 + _segment_pos(fan)]
    strict = doc[ia] < doc[ib]  # a doc that repeats a key is no pair
    ia, ib = ia[strict], ib[strict]
    o = np.lexsort((doc[ib], doc[ia]))
    ia, ib = ia[o], ib[o]
    first = _run_starts(doc[ia], doc[ib])
    ia, ib = ia[first], ib[first]
    cols = {"doc_a": pa.array(doc[ia], pa.int64()),
            "doc_b": pa.array(doc[ib], pa.int64()),
            "n_shared": pa.array(np.diff(np.r_[first, len(o)]), pa.int64())}
    for c in carry:
        cols[f"{c}_a"] = t.column(c).take(ia)
        cols[f"{c}_b"] = t.column(c).take(ib)
    return pa.table(cols)


def _in_hand(t: pa.Table):
    """``t`` as a Dataset whose blocks are its computed output, so
    reading it starts no execution of its own."""
    import ray.data

    return ray.data.from_arrow(t).materialize()


def _pairs_distributed(rest, key: str, max_df: int | None,
                       carry: tuple[str, ...], schema: pa.Schema):
    """:func:`shared_key_pairs` over the key rows' partial blocks:
    document frequency per key (``grouped_aggregate``), the pairable
    keys collected (sized by the duplicate rate, not the corpus) into an
    ``is_in`` filter, one pandas self-merge per bucket
    (``grouped_reduce``) and a bucketed sum per pair. The carried
    columns are functions of the doc, so they ride as group keys."""
    df = grouped_aggregate(rest, key, [("doc_id", "count", "df")])

    def pairable(t: pa.Table) -> pa.Table:
        ok = pc.greater(t.column("df"), 1)
        if max_df is not None:
            ok = pc.and_(ok, pc.less_equal(t.column("df"), max_df))
        return t.filter(ok).select([key])

    keys = collect_table(  # bounded: keys shared by 2..max_df docs
        df.map_batches(pairable, batch_format="pyarrow"),
        schema=pa.schema([(key, pa.int64())])).column(key).combine_chunks()
    if not len(keys):
        return _in_hand(_pairs_on_driver(schema.empty_table(), key, max_df, carry))
    members = rest.map_batches(
        lambda t: t.filter(pc.is_in(t.column(key), value_set=keys)),
        batch_format="pyarrow")
    group = ["doc_a", "doc_b", *(f"{c}_{s}" for c in carry for s in "ab")]

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=key, suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]].rename(
            columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"})
        return m.groupby(group).size().reset_index(name="p_n")

    partials = grouped_reduce(members, key, pairs_in_bucket,
                              batch_format="pandas")
    return grouped_aggregate(partials, group, [("p_n", "sum", "n_shared")],
                             bucket_on="doc_a")


def shared_key_pairs(rows_ds, key: str, max_df: int | None = None,
                     carry: tuple[str, ...] = ()):
    """``(doc_id, key, *carry)`` rows → a Dataset of the distinct
    ``doc_a < doc_b`` pairs that share a key whose document frequency
    lies in ``[2, max_df]`` (``None``: no upper bound), with
    ``n_shared``, the number of such keys they share, and each carried
    column of both docs as ``{c}_a`` / ``{c}_b``. Each doc emits a key
    at most once; every column is int64.

    One plan rule: the key rows stream once through
    ``collect.fold_capped``. Under :data:`KEY_FOLD_MAX_ROWS`, and while
    their key groups expand to at most :data:`PAIR_COLLECT_MAX_ROWS`
    pairs (counted before expanding), they pair on the driver in numpy
    and come back as a materialized Dataset. Otherwise the pairing runs
    distributed (:func:`_pairs_distributed`) over the partial blocks the
    fold streamed, or over the blocks of the rows in hand. Both give the
    same rows (tested)."""
    import ray.data

    schema = pa.schema([(c, pa.int64()) for c in ("doc_id", key, *carry)])
    rows, rest = fold_capped(rows_ds, schema, None, None, KEY_FOLD_MAX_ROWS)
    if rest is None:
        pairs = _pairs_on_driver(rows, key, max_df, carry)
        if pairs is not None:
            return _in_hand(pairs)
        rest = ray.data.from_arrow(
            [pa.Table.from_batches([b]) for b in rows.to_batches()])
    return _pairs_distributed(rest, key, max_df, carry, schema)


# -- pair scoring ------------------------------------------------------------

#: Candidate-doc count above which pair scoring refuses to collect
#: texts onto the driver and switches to the join-co-located plan. The
#: broadcast dict is one Python string per candidate doc — 2M web pages
#: at ~4 KB is ~8 GB; anything bigger must not land on one machine.
VERIFY_BROADCAST_MAX_DOCS = 2_000_000

#: Pair scoring folds candidate pairs to the driver only up to this many
#: rows (a few int64 columns → tens of MB at the cap). Candidate
#: generation is bounded per key, not per corpus — a duplicate-heavy
#: corpus yields O(dup-pairs) candidates — so the fold streams with a
#: running count and, past the cap, scoring takes the join-co-located
#: plan over the pairs already produced.
PAIR_COLLECT_MAX_ROWS = 2_000_000


def attach_pair_texts(docs_ds, pairs_ds, num_partitions: int = 8):
    """Co-locate each candidate pair with BOTH documents' texts — two
    narrow hash joins (pairs ⋈ docs on doc_a, then on doc_b), no driver
    state: the scale path for near-dup verification when the candidate
    set is too big to broadcast. Missing docs surface as "" (the same
    default the broadcast dict uses). All pair columns pass through;
    ``text_a`` / ``text_b`` are appended."""
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


def _scored(t: pa.Table, feature, score, schema: pa.Schema) -> pa.Table:
    """The pairs of ``t`` that ``score`` keeps, with its values."""
    rows = []
    for a, b in zip(t.column("doc_a").to_pylist(), t.column("doc_b").to_pylist()):
        v = score(feature(a), feature(b))
        if v is not None:
            rows.append((a, b, *v))
    cols = list(zip(*rows)) if rows else [()] * len(schema)
    return pa.table([pa.array(c, f.type) for c, f in zip(cols, schema)],
                    schema=schema)


def _score_broadcast_task(t: pa.Table, ref, featurize, score,
                          schema: pa.Schema) -> pa.Table:
    """Score against the candidate texts broadcast once. One worker_state
    slot per worker holds the texts and the features built so far, for
    one broadcast: the next sweep's ref drops them."""
    import ray

    texts, feats = worker_state("pair_features", ref.hex(),
                                lambda: (ray.get(ref), {}))

    def feature(d: int):
        if d not in feats:
            feats[d] = featurize(texts.get(d) or "")
        return feats[d]

    return _scored(t, feature, score, schema)


def _score_joined_task(t: pa.Table, featurize, score,
                       schema: pa.Schema) -> pa.Table:
    """Score join-co-located ``(…, text_a, text_b)`` rows; each doc of
    the batch is featurized once."""
    feats: dict = {}
    for ids, texts in (("doc_a", "text_a"), ("doc_b", "text_b")):
        for d, x in zip(t.column(ids).to_pylist(), t.column(texts).to_pylist()):
            if d not in feats:
                feats[d] = featurize(x or "")
    return _scored(t, feats.__getitem__, score, schema)


def score_pairs(docs_ds, pairs_ds, featurize, score, fields: list[pa.Field]):
    """Candidate pairs → ``(doc_a, doc_b, *fields)`` for every pair
    ``score`` keeps. ``featurize(text)`` builds one doc's features and
    ``score(fa, fb)`` returns the pair's ``fields`` values, or ``None``
    to drop it. ``docs_ds`` holds ``(doc_id, text)``; a missing or null
    text is "".

    The ``pairs_ds`` rows fold once under :data:`PAIR_COLLECT_MAX_ROWS`.
    Two plans, row-identical (tested):

    - broadcast: with at most :data:`VERIFY_BROADCAST_MAX_DOCS`
      candidate docs, their texts are collected once and ``ray.put``;
      each worker featurizes a doc once per broadcast;
    - join-co-located, past either cap: each pair gets both texts by
      two narrow hash joins (:func:`attach_pair_texts`) and is scored
      in the stream, over the pair blocks already produced — nothing
      text-sized reaches the driver.
    """
    import ray
    import ray.data

    schema = pa.schema([*PAIR_IDS_SCHEMA, *fields])
    pairs, src = fold_capped(pairs_ds, PAIR_IDS_SCHEMA, None, None,
                             PAIR_COLLECT_MAX_ROWS)
    kwargs = {"featurize": featurize, "score": score, "schema": schema}
    if src is None:
        if not pairs.num_rows:
            return ray.data.from_arrow(schema.empty_table())
        src = ray.data.from_arrow(pairs.select(PAIR_IDS_SCHEMA.names))
        cand = np.union1d(pairs.column("doc_a").to_numpy(),
                          pairs.column("doc_b").to_numpy())
        if len(cand) <= VERIFY_BROADCAST_MAX_DOCS:
            ref = ray.put(collect_texts_for_ids(docs_ds, cand.tolist()))
            return src.map_batches(_score_broadcast_task,
                                   fn_kwargs={"ref": ref, **kwargs},
                                   batch_format="pyarrow")
    return attach_pair_texts(docs_ds, src).map_batches(
        _score_joined_task, fn_kwargs=kwargs, batch_format="pyarrow")


def _jaccard_at_least(sa: np.ndarray, sb: np.ndarray, threshold: float):
    jac = exact_jaccard(sa, sb)
    return (jac,) if jac >= threshold else None


def ngram_jaccard_verify(docs_ds, pairs_ds, k_shingle: int = 5,
                         threshold: float = 0.5):
    """Candidate pairs → ``(doc_a, doc_b, jaccard)``, the pairs whose
    EXACT k-token shingle Jaccard is at least ``threshold``
    (:func:`score_pairs` over :func:`shingle_hashes` sets)."""
    return score_pairs(docs_ds, pairs_ds,
                       functools.partial(shingle_hashes, k=k_shingle),
                       functools.partial(_jaccard_at_least, threshold=threshold),
                       [pa.field("jaccard", pa.float64())])


# -- MinHash + LSH near-dup --------------------------------------------------

def _worker_minhash_stage(num_hashes: int, num_bands: int,
                          k_shingle: int) -> "MinHashStage":
    key = (num_hashes, num_bands, k_shingle)
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

    def features(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """(signature, shingle set) of one text."""
        sh = shingle_hashes(text, self.k, self._token_cache)
        return minhash_signature(sh, self.a, self.b), sh

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


def _minhash_features(text: str, stage_key: tuple[int, int, int]):
    return _worker_minhash_stage(*stage_key).features(text)


def _minhash_score(fa, fb, min_est: float, threshold: float):
    """(est_jaccard, jaccard) of a pair whose signature estimate and
    exact shingle Jaccard both pass, else ``None``."""
    est = estimated_jaccard(fa[0], fb[0])
    if est < min_est:
        return None
    kept = _jaccard_at_least(fa[1], fb[1], threshold)
    return None if kept is None else (est, *kept)


def minhash_near_dup_verified(docs_ds, num_hashes: int = 128, num_bands: int = 32,
                              k_shingle: int = 5, min_est_jaccard: float = 0.5,
                              verify_threshold: float = 0.5):
    """documents → ``(doc_a, doc_b, est_jaccard, jaccard)``: MinHash+LSH
    candidates (docs sharing a band key, :func:`shared_key_pairs`) kept
    when the signature estimate is at least ``min_est_jaccard`` and the
    exact shingle Jaccard at least ``verify_threshold`` — one
    :func:`score_pairs` over one candidate-text collect, each candidate
    featurized (signature + shingle set) once.

    The defaults (128 hashes, 32 bands × 4 rows) put the s-curve
    collision threshold at (1/32)^(1/4) ≈ 0.42, matched to the default
    ``min_est_jaccard=0.5`` (16×8 would miss half of 0.5–0.7
    near-dups)."""
    bands = docs_ds.map_batches(
        minhash_band_task,
        fn_kwargs={"num_hashes": num_hashes, "num_bands": num_bands,
                   "k_shingle": k_shingle},
        batch_format="pyarrow",
    )
    return score_pairs(
        docs_ds, shared_key_pairs(bands, "band_key"),
        functools.partial(_minhash_features,
                          stage_key=(num_hashes, num_bands, k_shingle)),
        functools.partial(_minhash_score, min_est=min_est_jaccard,
                          threshold=verify_threshold),
        [pa.field("est_jaccard", pa.float64()), pa.field("jaccard", pa.float64())])


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
    """Whole-batch vectorized SimHash (signed int64 domain): the batch
    form of the term rule (``textstats.flat_terms``; the per-doc
    :func:`~..functions.minhash.simhash64` uses its per-string form),
    dictionary-encode so ``md5_number_lower`` runs once per DISTINCT
    token (worker-cached across batches), then per-doc bit-majority as 64 shift/mask/
    ``np.add.reduceat`` sweeps over ONE reused token-length scratch
    buffer — no per-document Python, no (tokens × 64) bit-matrix
    materialization. Byte-equal to per-doc ``simhash64`` (differential
    test in ``tests/test_minhash.py``)."""
    from ..functions.fasthash import md5_number_lower

    ids = batch.column("doc_id")
    compact, offsets = flat_terms(batch.column("text"))
    n_tokens = np.diff(offsets)
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
    """(doc_id, simhash) → one (doc_id, band_key, simhash) row per
    contiguous bit band. Banding runs on the stored signed bit pattern
    directly: the int64 two's-complement pattern is ``unsigned XOR
    2^63`` — a uniform top-bit flip across all documents — so
    within-band equality (all the pairing uses) is unchanged."""
    ids = batch.column("doc_id").to_numpy()
    sims = batch.column("simhash").to_numpy()
    u = sims.view(np.uint64)
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
         pa.array(keys.reshape(-1).view(np.int64), pa.int64()),
         pa.array(np.repeat(sims, num_bands), pa.int64())],
        names=["doc_id", "band_key", "simhash"],
    )


def simhash_near_dup_pairs(docs_ds, max_hamming: int = 3):
    """documents → EXACT Hamming-ball near-dup pairs
    ``(doc_a, doc_b, hamming)`` with ``hamming <= max_hamming``.

    Pigeonhole banding, not probabilistic LSH: the 64-bit SimHash splits
    into ``max_hamming + 1`` contiguous bit bands, and two sketches within
    distance d <= max_hamming differ in at most d bands, so they AGREE on
    at least one band — candidate recall is exactly 1, and the vectorized
    XOR-popcount verify makes the result exact, never approximate (the
    deterministic counterpart of the reference's near-dup merges, D5–D6).

    The band-key rows carry each doc's sketch, so :func:`shared_key_pairs`
    hands over both sketches of every candidate pair and the verify is
    one XOR-popcount over the pairs in hand — no sketch lookup and no
    text."""
    num_bands = max_hamming + 1
    if not 2 <= num_bands <= 32:
        raise ValueError(f"max_hamming={max_hamming} out of range (1..31)")
    bands = docs_ds.map_batches(simhash_batch, batch_format="pyarrow").map_batches(
        _simhash_band_keys, fn_kwargs={"num_bands": num_bands},
        batch_format="pyarrow")

    def verify(t: pa.Table) -> pa.Table:
        x = t.column("simhash_a").to_numpy() ^ t.column("simhash_b").to_numpy()
        ham = _popcount64(x.view(np.uint64))
        keep = pa.array(ham <= max_hamming)
        return pa.table({"doc_a": t.column("doc_a").filter(keep),
                         "doc_b": t.column("doc_b").filter(keep),
                         "hamming": pa.array(ham, pa.int64()).filter(keep)})

    pairs = shared_key_pairs(bands, "band_key", carry=("simhash",))
    return pairs.map_batches(verify, batch_format="pyarrow")


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
