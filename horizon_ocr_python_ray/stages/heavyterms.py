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

import pyarrow as pa
from ..functions.collect import fold_capped, top_k
from ..functions.textstats import flat_terms

#: Distinct-term bound of the driver fold; above it the partials go
#: through the ``groupby(term).sum`` shuffle instead.
FOLD_VOCAB_MAX = 5_000_000

_PARTIAL_SCHEMA = pa.schema([("term", pa.string()), ("partial_n", pa.int64())])


def _counts(values: pa.Array) -> pa.Table:
    """(term, partial_n): one row per DISTINCT value, never per token."""
    vc = values.value_counts()
    return pa.table({"term": vc.field("values"), "partial_n": vc.field("counts")})


def _partial_tf(batch: pa.Table) -> pa.Table:
    return _counts(flat_terms(batch.column("text"))[0])


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

def _partial_bigram_tf(batch: pa.Table) -> pa.Table:
    """Adjacent-pair counts: space-joined ``"a b"`` keys,
    cross-document transitions masked out."""
    import numpy as np
    import pyarrow.compute as pc

    from .lmscore import _transition_mask

    compact, offsets = flat_terms(batch.column("text"))
    m = pa.array(_transition_mask(np.diff(offsets)), pa.bool_())
    if not len(m):
        return _counts(pa.array([], pa.string()))
    return _counts(pc.binary_join_element_wise(
        compact.slice(0, len(compact) - 1).filter(m),
        compact.slice(1).filter(m), " "))


def corpus_top_bigrams(docs_ds, k: int = 50):
    """documents(text) → exact top-``k`` adjacent-token bigrams
    (term = "a b", n, rank) — boilerplate-phrase mining / n-gram LM
    statistics; the :func:`corpus_top_terms` plan, with the bigram
    vocabulary's larger cardinality being exactly why the fold cap
    exists."""
    return _top_k(docs_ds, k, _partial_bigram_tf)
