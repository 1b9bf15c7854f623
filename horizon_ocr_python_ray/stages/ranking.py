"""Global order statistics + sparse retrieval ranking.

- :func:`doc_global_rank` — EXACT global rank of every document by
  ``(n_tokens desc, doc_id asc)`` without a global sort: the total
  order's first component has a bounded value domain (token counts),
  so a fixed-size histogram fold yields each value's global rank
  OFFSET, and one narrow ``groupby(n_tokens)`` ranks the ties by
  doc_id inside each value group. A 10^12-row global sort becomes one
  histogram fold + one shuffle whose groups are tie-sized. (The same
  trick powers the adaptive quality gate's exact corpus quantile —
  ``stages/gate.py``; here it is exposed as a ranking surface.)

- :func:`tfidf_topk` — integer-exact sparse retrieval: the query is
  the corpus's own top-``n_query`` document-frequency terms (total
  order ``df desc, term asc``), each weighted ``idf_e6 = (N·1e6)//df``
  (floor division — exact in SQL); a document scores
  ``Σ tf(term)·idf_e6`` and the top-k by ``(score desc, doc_id)``
  return. DF pass = per-batch distinct-term combiner → one narrow
  term shuffle; score pass streams with the tiny query broadcast;
  both rankings go through ``collect.top_k``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Sum
from ..functions.collect import iter_tables, top_k
from ..functions.textstats import flat_terms
from .topterms import _partial_df


def doc_global_rank(docs: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, n_tokens, rank) — rank 1 = most tokens; ties broken by
    doc_id ascending; every document ranked (empty docs rank last)."""

    def project(t: pa.Table) -> pa.Table:
        _, offsets = flat_terms(t.column("text"))
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "n_tokens": pa.array(np.diff(offsets), pa.int64()),
        })

    keyed = docs.map_batches(project, batch_format="pyarrow").materialize()

    # Pass 1: (value, id-range-bucket) histogram. The doc_id range is
    # split into ~N_ID_BUCKETS contiguous buckets so the tie-break
    # shuffle key is (value, bucket) — a tie group of T docs lands in
    # T/B-sized pieces instead of one reducer (value-only keys skew:
    # common lengths tie millions of docs at corpus scale). The fold is
    # bounded by |values| × B non-empty cells, corpus-independent.
    N_ID_BUCKETS = 4096
    mm = keyed.map_batches(
        lambda t: pa.table({
            "lo": pa.array([int(t.column("doc_id").to_numpy().min())
                            if t.num_rows else 2**62], pa.int64()),
            "hi": pa.array([int(t.column("doc_id").to_numpy().max())
                            if t.num_rows else -2**62], pa.int64()),
        }), batch_format="pyarrow").to_pandas()
    id_lo, id_hi = int(mm.lo.min()), int(mm.hi.max())
    width = max(1, (id_hi - id_lo) // N_ID_BUCKETS + 1)

    def hist_partial(t: pa.Table) -> pa.Table:
        v = t.column("n_tokens").to_numpy()
        b = (t.column("doc_id").to_numpy() - id_lo) // width
        key = v * (N_ID_BUCKETS + 1) + b  # composite for np.unique
        uk, c = np.unique(key, return_counts=True)
        return pa.table({"v": pa.array(uk // (N_ID_BUCKETS + 1), pa.int64()),
                         "b": pa.array(uk % (N_ID_BUCKETS + 1), pa.int64()),
                         "c": pa.array(c, pa.int64())})

    hist: dict[tuple[int, int], int] = {}
    for t in iter_tables(keyed.map_batches(hist_partial, batch_format="pyarrow")):
        for v, b, c in zip(t.column("v").to_pylist(), t.column("b").to_pylist(),
                           t.column("c").to_pylist()):
            hist[(v, b)] = hist.get((v, b), 0) + c
    # offsets: docs ranked strictly above (higher v) plus, within the
    # value, docs in LOWER id-buckets (rank is (v desc, doc_id asc));
    # keyed by the composite gkey so the reducer's lookup is one map.
    cells = sorted(hist, key=lambda vb: (-vb[0], vb[1]))
    offset_map: dict[int, int] = {}
    run = 0
    for v, b in cells:
        offset_map[v * (N_ID_BUCKETS + 1) + b] = run
        run += hist[(v, b)]
    off_ref = ray.put(offset_map)

    # Pass 2: ONE coarse-bucket shuffle on gkey (hashagg.grouped_reduce
    # — 64 Python calls total, not one per (value, bucket) cell); each
    # call ranks every complete cell it holds via a vectorized
    # sort + groupby-cumcount + offset map.
    from .hashagg import grouped_reduce

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        g = g.sort_values(["gkey", "doc_id"]).reset_index(drop=True)
        pos = g.groupby("gkey", sort=False).cumcount().to_numpy() + 1
        base = g["gkey"].map(offs).to_numpy()
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": g["n_tokens"].to_numpy(),
            "rank": base + pos,
        })

    bucketed = keyed.map_batches(
        lambda t: t.append_column(
            "gkey",
            pa.array(t.column("n_tokens").to_numpy() * (N_ID_BUCKETS + 1)
                     + (t.column("doc_id").to_numpy() - id_lo) // width,
                     pa.int64())),
        batch_format="pyarrow")
    return grouped_reduce(bucketed, "gkey", rank_bucket,
                          batch_format="pandas")


def top_df_terms(docs: ray.data.Dataset, n: int) -> list[tuple[int, str]]:
    """The corpus's top-``n`` document-frequency terms as
    ``[(−df, term)]`` sorted by ``(df desc, term asc)`` — the
    deterministic self-derived "query" used by the retrieval ops.

    DF pass = distinct terms per doc (the ``topterms`` combiner) → one
    term shuffle → ``collect.top_k`` (only ``n`` rows per block reach
    the driver)."""
    df_ds = (docs.map_batches(_partial_df, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("partial_df", alias_name="df")))
    top = top_k(df_ds, [("df", "descending"), ("term", "ascending")], n, None)
    return [(-df, term) for df, term in zip(top.column("df").to_pylist(),
                                           top.column("term").to_pylist())]


def tfidf_topk(docs: ray.data.Dataset, n_query: int = 3, k: int = 20) -> pa.Table:
    """Top-k documents for the corpus's own top-``n_query``-DF terms.

    Returns (doc_id, score_e6, n_tokens) for the k best by
    ``(score_e6 desc, doc_id asc)``; zero-score docs never surface."""
    query = top_df_terms(docs, n_query)

    n_docs = docs.count()
    idf = {term: (n_docs * 1_000_000) // (-ndf) for ndf, term in query}
    q_ref = ray.put(idf)

    # ---- score pass: stream docs, Σ tf·idf over the tiny query ------
    # Fully vectorized: flat_terms → index_in against the broadcast
    # term set → per-doc cumsum-diff segment sums (no per-token Python).
    def score_partial(t: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        terms = sorted(q)
        idf_plus0 = np.array([q[x] for x in terms] + [0], dtype=np.int64)
        values, offsets = flat_terms(t.column("text"))
        n_tokens = np.diff(offsets)
        idx = pc.index_in(values, value_set=pa.array(terms, pa.string()))
        idx_np = idx.fill_null(len(terms)).to_numpy(zero_copy_only=False)
        tok_idf = idf_plus0[idx_np]
        cs = np.concatenate([[0], np.cumsum(tok_idf)])
        scores = cs[offsets[1:]] - cs[offsets[:-1]]
        keep = scores > 0
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()).filter(pa.array(keep)),
            "score_e6": pa.array(scores[keep], pa.int64()),
            "n_tokens": pa.array(n_tokens[keep], pa.int64())})

    top = top_k(docs.map_batches(score_partial, batch_format="pyarrow"),
                [("score_e6", "descending"), ("doc_id", "ascending")], k, None)
    return top.drop_columns(["rank"])


def and_search(docs: ray.data.Dataset, n_query: int = 3) -> ray.data.Dataset:
    """Conjunctive (boolean AND) retrieval: every document containing
    ALL of the corpus's top-``n_query``-DF terms → (doc_id, n_tokens).

    Plan: the query set broadcasts and the membership test runs inside
    the document scan — a per-doc set containment, NO shuffle at all
    (the predicate-pushdown plan; a precomputed postings index would
    instead intersect ``n_query`` posting lists — `stages/postings.py`
    holds that surface)."""
    query = {term for _, term in top_df_terms(docs, n_query)}
    q_ref = ray.put(query)

    def probe(t: pa.Table) -> pa.Table:
        # vectorized containment: per query term, a cumsum-diff presence
        # count over the flattened token array (n_query is tiny)
        q = sorted(ray.get(q_ref))
        values, offsets = flat_terms(t.column("text"))
        n_tokens = np.diff(offsets)
        ids = t.column("doc_id").to_numpy()
        keep = np.ones(len(ids), bool) if q else np.zeros(len(ids), bool)
        for term in q:
            m = pc.equal(values, term).fill_null(False).to_numpy(
                zero_copy_only=False).astype(np.int64)
            cs = np.concatenate([[0], np.cumsum(m)])
            keep &= (cs[offsets[1:]] - cs[offsets[:-1]]) > 0
        return pa.table({"doc_id": pa.array(ids[keep].astype(np.int64),
                                            pa.int64()),
                         "n_tokens": pa.array(n_tokens[keep], pa.int64())})

    return docs.map_batches(probe, batch_format="pyarrow")
