"""Exact n-gram Jaccard all-pairs near-dup — the set-similarity join
(AllPairs / PPJoin prefix filtering; Bayardo, Ma & Srikant 2007, Xiao
et al. 2008) that completes the dedup family next to MinHash-LSH
(probabilistic candidates), SimHash (Hamming bands) and winnowing
(positional fingerprints): every pair of documents whose DISTINCT
k-token-gram sets have Jaccard ≥ τ, with exact integer (inter, union)
evidence and recall exactly 1 (no LSH probability).

Why not the naive plan: joining documents on EVERY shared gram is
quadratic in the document frequency of boilerplate grams. The prefix
filter bounds candidate generation instead: order each document's gram
set by a GLOBAL total order (document frequency ascending, gram hash
as tie-break — rare grams first), keep only the first
``n - ceil(τ·n) + 1`` grams (the prefix), and join on prefix grams
only. Theorem (AllPairs): any pair with Jaccard ≥ τ shares at least
one gram lying in BOTH prefixes, so the candidate set has recall 1;
an exact verify pass restores precision 1.

Physical plan (THREE exchanges of ≤3-column int64 rows on the common
path; text never shuffles):

1. ``_distinct_gram_hash_rows``: one streaming explode to distinct
   (doc_id, gram-md5) rows — md5 once per DISTINCT gram string
   (worker-cached), vectorized dedup via lexsort.
2. gram document frequency IN-BUCKET: the first exchange co-locates
   every row of a gram hash, so the bucket-local group size is the
   global df — one ``transform("size")``, no separate aggregate+join
   exchange and no broadcast (the df table is corpus-sized).
3. per-doc prefix: one bucketed exchange on doc_id; inside a bucket
   the (df, hash) sort + ``cumcount`` rank is vectorized pandas (the
   doc's set size is the bucket group size — never shipped as a
   column), and df == 1 prefix rows are dropped AFTER ranking (a gram
   no other doc has cannot be a join key — most distinct grams).
4. candidates: per-bucket self-merge on prefix grams (the
   winnow_shared_pairs shape); CROSS-bucket pair dedup happens on the
   driver fold the verify step already pays (np.unique on two int64
   columns) — a fourth exchange only runs past the
   ``dedup_docs.PAIR_COLLECT_MAX_ROWS`` collect cap.
5. verify: exact inter/union over the full md5-gram sets — candidate
   texts broadcast once via ``ray.put`` under the
   ``dedup_docs.VERIFY_BROADCAST_MAX_DOCS`` cap, else the distributed
   ``attach_pair_texts`` hash-join plan (nothing text-sized reaches
   the driver).

Each plan choice compares a measured size with its module cap; tests
reach the scale paths by lowering the cap.

Skew: a gram hot in PREFIXES is by construction rare (df-ascending
order puts common grams at the tail, past the prefix cut), so the
within-gram fan-out of step 5 stays small without any df cap — the
reason this operator can afford recall 1 where winnow_shared_pairs
needs its [2, max_df] band.

Semantics pinned for the oracle: grams are lowered whitespace k-token
windows (``functions/gramvec.py`` tokenization, byte-identical to
DuckDB ``regexp_split_to_array``), sets are DISTINCT grams, τ is the
integer fraction ``thr_num/thr_den`` and the predicate is
``thr_den·inter ≥ thr_num·union`` — integer-exact on both engines.
Documents with < k tokens have empty sets and never pair (the SQL
self-join convention: an empty∩empty pair is not emitted).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.gramvec import _gram_windows
from ..functions.minhash import md5_gram_hashes
from ..state.worker import worker_state
from .hashagg import grouped_aggregate, grouped_reduce

_SIGN = np.uint64(1 << 63)

_PAIR_SCHEMA = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                          ("n_inter", pa.int64()), ("n_union", pa.int64())])


def _distinct_gram_hash_rows(batch: pa.Table, k: int) -> pa.Table:
    """(doc_id, text) batch → (doc_id, sh) rows: one row per DISTINCT
    gram hash per doc (the doc's set size is recomputed downstream as
    the doc-bucket group size — every distinct gram of a doc ships, so
    no column need carry it); sh in the signed int64 domain (x ^ 2^63,
    the simhash idiom)."""
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "sh": pa.array([], pa.int64())})
    win = _gram_windows(batch.column("text"), k)
    if win is None:
        return empty
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(
        np.int64)
    doc_idx, _intra, grams = win
    hs = md5_gram_hashes(grams)
    order = np.lexsort((hs, doc_idx))
    d = doc_idx[order]
    h = hs[order]
    keep = np.r_[True, (d[1:] != d[:-1]) | (h[1:] != h[:-1])]
    d = d[keep]
    h = h[keep]
    return pa.table({
        "doc_id": pa.array(ids[d], pa.int64()),
        "sh": pa.array((h ^ _SIGN).view(np.int64), pa.int64()),
    })


def _md5_shingle_set(text: str, k: int) -> np.ndarray:
    """Sorted distinct md5 gram hashes (uint64) of one document — the
    verify-side twin of :func:`_distinct_gram_hash_rows`."""
    win = _gram_windows(pa.array([text], pa.string()), k)
    if win is None:
        return np.empty(0, np.uint64)
    return np.unique(md5_gram_hashes(win[2]))


def _prefix_len(n: np.ndarray, thr_num: int, thr_den: int) -> np.ndarray:
    """AllPairs Jaccard prefix: n - ceil(τ·n) + 1 in exact ints."""
    return n - (n * thr_num + thr_den - 1) // thr_den + 1


def jaccard_near_dup_pairs(docs_ds, k_shingle: int = 5,
                           thr_num: int = 1, thr_den: int = 2,
                           num_buckets: int = 64):
    """documents (doc_id, text) → (doc_a, doc_b, n_inter, n_union):
    every doc_a < doc_b pair whose distinct k-gram sets satisfy
    ``thr_den·inter ≥ thr_num·union`` (Jaccard ≥ thr_num/thr_den),
    with the exact integer intersection/union sizes as evidence."""
    rows = docs_ds.map_batches(
        functools.partial(_distinct_gram_hash_rows, k=k_shingle),
        batch_format="pyarrow")

    def df_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # the exchange co-locates EVERY row of a gram hash in one
        # bucket, so the bucket-local group size IS the global document
        # frequency — no separate df aggregate + join exchange.
        g = g.copy()
        g["df"] = g.groupby("sh")["doc_id"].transform("size")
        return g

    def prefix_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # rank over the FULL ordered set (the AllPairs prefix is defined
        # on it), then drop df == 1 rows: a gram no other doc has can't
        # be a join key, so emitting its prefix slot is pure exchange
        # volume — most distinct grams in a web corpus are df == 1.
        g = g.sort_values(["doc_id", "df", "sh"], kind="mergesort")
        rank = g.groupby("doc_id").cumcount().to_numpy()
        n = g.groupby("doc_id")["sh"].transform("size").to_numpy()
        lp = _prefix_len(n, thr_num, thr_den)
        return g.loc[(rank < lp) & (g["df"].to_numpy() > 1),
                     ["doc_id", "sh"]]

    # df in-bucket, then rank in-bucket
    joined = grouped_reduce(rows, "sh", df_bucket, num_buckets=num_buckets,
                            batch_format="pandas")
    prefixes = grouped_reduce(joined, "doc_id", prefix_bucket,
                              num_buckets=num_buckets, batch_format="pandas")

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="sh")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        return (m[["doc_id_x", "doc_id_y"]].drop_duplicates()
                .rename(columns={"doc_id_x": "doc_a",
                                 "doc_id_y": "doc_b"}))

    # pairs are deduped per sh-bucket here; the CROSS-bucket dedup (a
    # pair can share prefix grams in several buckets) happens in
    # _verify_pairs — driver-side np.unique on the collected fold (no
    # fourth exchange), or a grouped_aggregate only when the collect cap
    # trips
    cand_partial = grouped_reduce(prefixes, "sh", pairs_bucket,
                                  num_buckets=num_buckets,
                                  batch_format="pandas")
    return _verify_pairs(docs_ds, cand_partial, k_shingle, thr_num,
                         thr_den, num_buckets=num_buckets)


def _score_pairs(doc_a, doc_b, sets,  # any int → ndarray mapping
                 thr_num: int, thr_den: int) -> pa.Table:
    keep_a, keep_b, inters, unions = [], [], [], []
    for a, b in zip(doc_a, doc_b):
        sa = sets[int(a)]
        sb = sets[int(b)]
        inter = int(np.intersect1d(sa, sb, assume_unique=True).size)
        union = int(sa.size + sb.size - inter)
        if thr_den * inter >= thr_num * union and union > 0:
            keep_a.append(int(a))
            keep_b.append(int(b))
            inters.append(inter)
            unions.append(union)
    return pa.table({"doc_a": pa.array(keep_a, pa.int64()),
                     "doc_b": pa.array(keep_b, pa.int64()),
                     "n_inter": pa.array(inters, pa.int64()),
                     "n_union": pa.array(unions, pa.int64())})


class _LazySets:
    """doc_id → md5 gram set, built LAZILY for the docs a batch actually
    references and kept in ``cache`` across batches, so B batches over C
    candidate docs cost C set constructions, not B × C."""

    def __init__(self, texts: dict[int, str], cache: dict, k: int):
        self._texts = texts
        self._cache = cache
        self._k = k

    def __getitem__(self, d: int) -> np.ndarray:
        s = self._cache.get(d)
        if s is None:
            s = self._cache[d] = _md5_shingle_set(self._texts.get(d, ""), self._k)
        return s


def _verify_broadcast_task(t: pa.Table, ref, k: int, thr_num: int,
                           thr_den: int) -> pa.Table:
    import ray

    # one sweep's sets per worker: the slot drops them when the next
    # sweep broadcasts a new ref
    cache = worker_state("jaccard_verify_sets", ref.hex(), dict)
    sets = _LazySets(ray.get(ref), cache, k)
    return _score_pairs(t.column("doc_a").to_pylist(),
                        t.column("doc_b").to_pylist(),
                        sets, thr_num, thr_den)


def _verify_distributed_task(t: pa.Table, k: int, thr_num: int,
                             thr_den: int) -> pa.Table:
    out_a, out_b, inters, unions = [], [], [], []
    for a, b, ta, tb in zip(t.column("doc_a").to_pylist(),
                            t.column("doc_b").to_pylist(),
                            t.column("text_a").to_pylist(),
                            t.column("text_b").to_pylist()):
        sa = _md5_shingle_set(ta or "", k)
        sb = _md5_shingle_set(tb or "", k)
        inter = int(np.intersect1d(sa, sb, assume_unique=True).size)
        union = int(sa.size + sb.size - inter)
        if thr_den * inter >= thr_num * union and union > 0:
            out_a.append(int(a))
            out_b.append(int(b))
            inters.append(inter)
            unions.append(union)
    return pa.table({"doc_a": pa.array(out_a, pa.int64()),
                     "doc_b": pa.array(out_b, pa.int64()),
                     "n_inter": pa.array(inters, pa.int64()),
                     "n_union": pa.array(unions, pa.int64())})


def _dedup_pairs_exchange(pairs_ds, num_buckets: int):
    """Cross-bucket pair dedup as one narrow exchange — only paid past
    the collect cap; the collected plan dedups on the driver instead."""
    return grouped_aggregate(
        pairs_ds, ["doc_a", "doc_b"], [("doc_a", "count", "_c")],
        num_buckets=num_buckets, bucket_on="doc_a").map_batches(
        lambda t: t.select(["doc_a", "doc_b"]), batch_format="pyarrow")


def _verify_pairs(docs_ds, pairs_ds, k: int, thr_num: int, thr_den: int,
                  num_buckets: int = 64):
    """Exact inter/union verify — the ngram_jaccard_verify duality
    (broadcast under the cap, hash-join co-location above it) over md5
    gram sets. ``pairs_ds`` may contain cross-bucket duplicate rows;
    every exit path dedups them exactly once."""
    import ray
    import ray.data

    from ..functions.collect import fold_capped
    from .dedup_docs import (
        PAIR_COLLECT_MAX_ROWS,
        PAIR_IDS_SCHEMA,
        VERIFY_BROADCAST_MAX_DOCS,
        attach_pair_texts,
        collect_texts_for_ids,
    )

    # The collect both reads the candidate ids AND feeds the verify map
    # (on either plan below), so the 3-exchange candidate plan executes
    # exactly once. The prefix filter bounds candidates per GRAM, not per
    # corpus, so the collect streams under a running row cap; past it
    # the verify takes the distributed hash-join plan over the same
    # candidate blocks (nothing candidate-sized sits on the driver).
    cat, rest = fold_capped(pairs_ds, PAIR_IDS_SCHEMA, None, None,
                            PAIR_COLLECT_MAX_ROWS)
    if rest is not None:
        pairs_src = _dedup_pairs_exchange(rest, num_buckets)
    elif not cat.num_rows:
        return ray.data.from_arrow(_PAIR_SCHEMA.empty_table())
    else:
        # driver-side cross-bucket dedup — removes the fourth exchange
        # on the common (collected) plan
        ab = np.stack([cat.column("doc_a").to_numpy(),
                       cat.column("doc_b").to_numpy()], axis=1)
        ab = np.unique(ab, axis=0)
        pairs_tab = pa.table({"doc_a": pa.array(ab[:, 0], pa.int64()),
                              "doc_b": pa.array(ab[:, 1], pa.int64())})
        pairs_src = ray.data.from_arrow(pairs_tab)
        cand = set(pairs_tab.column("doc_a").to_pylist())
        cand.update(pairs_tab.column("doc_b").to_pylist())
        if len(cand) <= VERIFY_BROADCAST_MAX_DOCS:
            ref = ray.put(collect_texts_for_ids(docs_ds, cand))
            return pairs_src.map_batches(
                _verify_broadcast_task,
                fn_kwargs={"ref": ref, "k": k, "thr_num": thr_num,
                           "thr_den": thr_den},
                batch_format="pyarrow")
    return attach_pair_texts(docs_ds, pairs_src).map_batches(
        _verify_distributed_task,
        fn_kwargs={"k": k, "thr_num": thr_num, "thr_den": thr_den},
        batch_format="pyarrow")
