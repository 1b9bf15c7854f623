"""Corpus-level heavy hitters: the exact global top-k terms (and
adjacent-token bigrams) by total occurrence count.

The curation primitive behind stopword discovery, boilerplate-phrase
mining and vocabulary pruning over a web corpus. One plan shape:
a batch-local term-count COMBINER (one ``(term, partial_n)`` row per
distinct term per batch — token occurrences never leave the task) whose
partials fold on the DRIVER while the distinct vocabulary stays within
:data:`FOLD_VOCAB_MAX`; past it the same partials go through one narrow
``groupby(term).sum`` shuffle; ``collect.top_k`` ranks the totals of
either plan. Both give the identical table (tested by lowering the
cap); a true web-scale vocabulary belongs in the hash exchange, not
driver memory.

Ranking key is integer-exact ``(n DESC, term ASC)`` — no floats in the
compare surface (same convention as ``stages/topterms.py``).
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
from ..functions.collect import fold_capped, top_k

#: Distinct-term bound of the driver fold; above it the partials go
#: through the ``groupby(term).sum`` shuffle instead.
FOLD_VOCAB_MAX = 5_000_000

_PARTIAL_SCHEMA = pa.schema([("term", pa.string()), ("partial_n", pa.int64())])


def _batch_term_counts(batch: pa.Table) -> Counter:
    """Arrow-vectorized term counts (tokenize + ``value_counts``); the
    Counter is built from one row per DISTINCT term, never per token."""
    from .lmscore import _compact_tokens

    compact, _ = _compact_tokens(batch)
    vc = compact.value_counts()
    return Counter(dict(zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist())))


def _partial_tf(batch: pa.Table) -> pa.Table:
    counts = _batch_term_counts(batch)
    terms = sorted(counts)
    return pa.Table.from_arrays(
        [pa.array(terms, pa.string()),
         pa.array([counts[t] for t in terms], pa.int64())],
        names=["term", "partial_n"],
    )


def _top_k(docs_ds, k: int, partial_fn) -> pa.Table:
    """Exact top-``k`` (term, n, rank) from the ``partial_fn`` combiner:
    fold the partials on the DRIVER (each is one row per distinct term
    per batch — the same tables a reducer would hold; skipping the
    distributed ``groupby(term)`` removes a sort-shuffle round trip, as
    in ``topterms.doc_top_terms``) while the vocabulary fits
    :data:`FOLD_VOCAB_MAX`, else shuffle the same partials. Either way
    ``collect.top_k`` ranks the totals."""
    from ray.data.aggregate import Sum

    partials = docs_ds.map_batches(partial_fn, batch_format="pyarrow")
    folded, rest = fold_capped(partials, _PARTIAL_SCHEMA, ["term"],
                               [("partial_n", "sum")], FOLD_VOCAB_MAX)
    totals = (folded.rename_columns(["term", "n"]) if rest is None
              else rest.groupby("term").aggregate(Sum("partial_n", alias_name="n")))
    return top_k(totals, [("n", "descending"), ("term", "ascending")], k, None)


def corpus_top_terms(docs_ds, k: int = 50):
    """documents(text) → exact top-``k`` (term, n, rank) Arrow table."""
    return _top_k(docs_ds, k, _partial_tf)


# -- bigrams ------------------------------------------------------------------

def _batch_bigram_counts(batch: pa.Table) -> Counter:
    """Arrow-vectorized adjacent-pair counts: the same space-joined
    ``"a b"`` keys, cross-document transitions masked out."""
    import pyarrow.compute as pc

    from .lmscore import _compact_tokens, _transition_mask

    compact, n_tokens = _compact_tokens(batch)
    tmask = _transition_mask(n_tokens)
    if not len(tmask):
        return Counter()
    m = pa.array(tmask)
    pairs = pc.binary_join_element_wise(
        compact.slice(0, len(compact) - 1).filter(m),
        compact.slice(1).filter(m), " ")
    vc = pairs.value_counts()
    return Counter(dict(zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist())))


def _partial_bigram_tf(batch: pa.Table) -> pa.Table:
    counts = _batch_bigram_counts(batch)
    terms = sorted(counts)
    return pa.Table.from_arrays(
        [pa.array(terms, pa.string()),
         pa.array([counts[t] for t in terms], pa.int64())],
        names=["term", "partial_n"],
    )


def corpus_top_bigrams(docs_ds, k: int = 50):
    """documents(text) → exact top-``k`` adjacent-token bigrams
    (term = "a b", n, rank) — boilerplate-phrase mining / n-gram LM
    statistics; the :func:`corpus_top_terms` plan, with the bigram
    vocabulary's larger cardinality being exactly why the fold cap
    exists."""
    return _top_k(docs_ds, k, _partial_bigram_tf)
