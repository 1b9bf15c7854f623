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

Physical plan (two exchanges of ≤3-column int64 rows on the common
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
4. candidates: the docs sharing a prefix gram,
   ``dedup_docs.shared_key_pairs`` over the (doc_id, prefix gram) rows.
5. verify: exact inter/union over the full md5-gram sets,
   ``dedup_docs.score_pairs``.

Each plan choice compares a measured size with its module cap; tests
reach the scale paths by lowering the cap.

Skew: a gram hot in PREFIXES is by construction rare (df-ascending
order puts common grams at the tail, past the prefix cut), so the
within-gram fan-out of step 4 stays small without any df cap — the
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
from .dedup_docs import score_pairs, shared_key_pairs
from .hashagg import grouped_reduce

_SIGN = np.uint64(1 << 63)


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
    return score_pairs(
        docs_ds, shared_key_pairs(prefixes, "sh"),
        functools.partial(_md5_shingle_set, k=k_shingle),
        functools.partial(_inter_union, thr_num=thr_num, thr_den=thr_den),
        [pa.field("n_inter", pa.int64()), pa.field("n_union", pa.int64())])


def _inter_union(sa: np.ndarray, sb: np.ndarray, thr_num: int, thr_den: int):
    """(inter, union) of two gram sets with Jaccard ≥ thr_num/thr_den,
    else ``None``."""
    inter = int(np.intersect1d(sa, sb, assume_unique=True).size)
    union = int(sa.size + sb.size - inter)
    if union > 0 and thr_den * inter >= thr_num * union:
        return inter, union
    return None
