"""Exact substring-span dedup — token windows that repeat ANYWHERE in
the corpus are cut out of every document (Lee et al. 2022,
"Deduplicating Training Data Makes Language Models Better": the
suffix-array ExactSubstr dedup, restated as n-gram window coverage so
the plan is pure narrow shuffles; ``stages/repgrams.py`` computes the
per-doc COUNT signal, this stage performs the REMOVAL).

A token position is covered when any window of ``n`` tokens containing
it occurs ≥ 2 times corpus-wide (counting multiplicity — two hits in
the same document count, exactly like a suffix array would). Covered
positions are dropped; the cleaned document is the space-join of the
surviving lowered tokens.

Plan — two narrow shuffles, no broadcast of the duplicated-gram set
(which is corpus-sized under heavy duplication — the round-2 verdict
killed a driver-side text dict in the MinHash verifier for the same
reason):

1. positional explode: ``(doc_id, start, gram)`` per window instance
   (``functions/gramvec.explode_ngram_instances``, all-Arrow);
2. gram-bucket shuffle (``grouped_reduce`` on ``gram``): inside each
   bucket one C++ ``group_by(gram).count`` finds grams with total
   count ≥ 2, one ``is_in`` semi-join flags their instances → emits
   only ``(doc_id, start)`` int64 pairs (duplicated instances only);
3. doc-bucket shuffle: the dup-start stream UNIONs with the projected
   ``(doc_id, text)`` stream (role-tagged) and co-groups by
   ``hash(doc_id)``; each bucket rebuilds coverage with a delta-array
   cumsum over the bucket's FLAT token array and reassembles cleaned
   text via ``ListArray`` + ``binary_join`` — no per-token Python, no
   per-doc Python except none (fully vectorized per bucket).

The only payload-bearing exchange is (3)'s text column — unavoidable
for a rewrite op (the cleaned text must be assembled next to its dup
coordinates); (2) ships the gram string itself, same honest cost as
``repgrams`` (hashing grams to int64 would halve the width at a
documented collision risk — kept exact here so the DuckDB oracle is a
true replay).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.gramvec import explode_ngram_instances
from ..functions.textstats import flat_terms
from .hashagg import grouped_reduce

DEFAULT_N = 8

#: role tags for the co-grouped union in stage 3.
_ROLE_TEXT, _ROLE_DUP = 0, 1


def _dup_instances(instances_bucket: pa.Table) -> pa.Table:
    """One gram bucket → (doc_id, start) of instances whose gram occurs
    ≥ 2 times corpus-wide (all of a gram's instances live in one
    bucket, so the bucket-local count IS the global count)."""
    counts = instances_bucket.group_by("gram").aggregate([([], "count_all")])
    dup = counts.filter(pc.greater_equal(counts.column("count_all"), 2))
    keep = pc.is_in(instances_bucket.column("gram"),
                    value_set=dup.column("gram").combine_chunks()
                    if isinstance(dup.column("gram"), pa.ChunkedArray)
                    else dup.column("gram"))
    hit = instances_bucket.filter(keep)
    return pa.table({"doc_id": hit.column("doc_id"),
                     "start": hit.column("start")})


def substring_dedup(docs_ds, n: int = DEFAULT_N, num_buckets: int = 64):
    """docs (doc_id, text) → (doc_id, n_tokens, n_covered, clean_text):
    per document, its token count, how many token positions sit inside
    a corpus-duplicated ``n``-token window, and the text with those
    positions removed (lowered tokens, single-space joined — cleaning
    normalizes, as the reference extraction path does)."""

    def explode(t: pa.Table) -> pa.Table:
        return explode_ngram_instances(
            t.column("doc_id"), t.column("text"), n)

    instances = docs_ds.map_batches(explode, batch_format="pyarrow")
    dups = grouped_reduce(instances, "gram", _dup_instances,
                          num_buckets=num_buckets)

    def tag_text(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": t.column("text"),
            "start": pa.nulls(t.num_rows, pa.int64()),
            "role": pa.nulls(t.num_rows, pa.int64()).fill_null(_ROLE_TEXT)})

    def tag_dup(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": pa.nulls(t.num_rows, pa.string()),
            "start": t.column("start"),
            "role": pa.nulls(t.num_rows, pa.int64()).fill_null(_ROLE_DUP)})

    unioned = (docs_ds.map_batches(tag_text, batch_format="pyarrow")
               .union(dups.map_batches(tag_dup, batch_format="pyarrow")))

    def rebuild(t: pa.Table) -> pa.Table:
        role = t.column("role").to_numpy()
        tmask = role == _ROLE_TEXT
        texts = t.filter(pa.array(tmask))
        flat, offsets = flat_terms(texts.column("text"))
        doc_ids = texts.column("doc_id").to_numpy()
        n_docs = len(doc_ids)
        total = int(offsets[-1]) if n_docs else 0
        # map dup rows to their doc's slot in this bucket's text order
        dmask = ~tmask
        delta = np.zeros(total + 1, np.int64)
        if dmask.any() and n_docs:
            # start/text carry nulls on the other role's rows — materialize
            # (non-zero-copy) then slice to this role before the int cast
            dup_doc = t.column("doc_id").to_numpy(
                zero_copy_only=False)[dmask].astype(np.int64)
            dup_start = t.column("start").to_numpy(
                zero_copy_only=False)[dmask].astype(np.int64)
            order = np.argsort(doc_ids, kind="stable")
            pos = np.searchsorted(doc_ids[order], dup_doc)
            slot = order[pos]
            gs = offsets[slot] + dup_start
            np.add.at(delta, gs, 1)
            np.add.at(delta, gs + n, -1)
        covered = np.cumsum(delta[:-1]) > 0
        ccs = np.concatenate([[0], np.cumsum(covered.astype(np.int64))])
        n_cov = ccs[offsets[1:]] - ccs[offsets[:-1]]
        n_tok = np.diff(offsets)
        kept = flat.filter(pa.array(~covered)) if total else flat
        kcs = np.concatenate(
            [[0], np.cumsum((~covered).astype(np.int64))])
        new_offsets = kcs[offsets]
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(new_offsets, pa.int32()),
                                     kept),
            pa.scalar(" "))
        return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64()),
                         "n_covered": pa.array(n_cov, pa.int64()),
                         "clean_text": clean})

    return grouped_reduce(unioned, "doc_id", rebuild,
                          num_buckets=num_buckets)
