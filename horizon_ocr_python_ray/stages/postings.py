"""Inverted-index build: term → document posting list.

The classic corpus inversion (doc→terms becomes term→docs) behind
search, df statistics and filtering pipelines. Physical plan: each batch
reduces its documents to DISTINCT ``(term, doc_id)`` pairs (per-doc set,
so a term repeated in one doc contributes one pair), then ONE narrow
two-column shuffle bucketed on ``term`` co-locates every posting of a
term, and a per-bucket C-speed groupby emits ``(term, df,
postings_md5)`` — the md5 of the comma-joined ascending doc-id list, so
the compare surface stays row-shaped while still pinning the exact
posting list. Work in the digest is output-proportional (one sort+join
per term over its own postings), never corpus-proportional per call.

Terms follow the engine's one term rule (``textstats.flat_terms``; SQL
``regexp_split_to_array(trim(lower(text)), '\\s+')``), like every
other stage that reads terms.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

from ..functions.textstats import flat_terms


def _distinct_pairs(batch: pa.Table) -> pa.Table:
    """(term, doc_id) distinct pairs, Arrow-vectorized: batch-wide
    tokenize (``textstats.flat_terms``), doc ids repeated by term
    count, and the per-doc ``set()`` replaced by a C++ group-by
    distinct."""
    import numpy as np

    compact, offsets = flat_terms(batch.column("text"))
    did = batch.column("doc_id").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    rep = np.repeat(did, np.diff(offsets))
    t = pa.table({"term": compact, "doc_id": pa.array(rep, pa.int64())})
    return t.group_by(["term", "doc_id"]).aggregate([])


def corpus_postings(docs_ds, min_df: int = 2):
    """documents → (term, df, postings_md5), terms with df >= min_df."""
    from .hashagg import grouped_reduce

    def digest(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["term", "doc_id"])
        g = d.groupby("term", sort=True)["doc_id"]
        out = pd.DataFrame({
            "df": g.size().astype("int64"),
            "postings_md5": g.agg(
                lambda s: hashlib.md5(
                    ",".join(map(str, s)).encode("utf-8")).hexdigest()),
        }).reset_index()
        return out[out["df"] >= min_df]

    pairs = docs_ds.map_batches(_distinct_pairs, batch_format="pyarrow")
    return grouped_reduce(pairs, "term", digest, batch_format="pandas")
