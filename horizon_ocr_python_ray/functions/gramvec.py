"""Vectorized n-gram explode — the kernel behind repeated-n-gram stats.

``doc_ngrams`` (``stages/decontam.py``) builds each document's distinct
token n-grams with a per-doc Python set comprehension; fine for the
broadcast decontamination probe (eval sets are small) but the dominant
cost of the corpus-wide repeated-gram pipeline, which explodes EVERY
document (round-2 verdict: the most expensive bench query). This module
does the same explode with Arrow/numpy kernels only:

1. the batch form of the term rule (``textstats.flat_terms``: lowered,
   RE2-whitespace-split, empty tokens dropped, per-doc offsets),
2. window starts via the repeat/cumsum ownership trick (the same shape
   as ``fasthash``'s per-row sums),
3. gram strings via ``binary_join_element_wise`` over n shifted takes
   of the flat token array,
4. per-doc DISTINCT via one ``Table.group_by`` on (doc_id, gram).

Output is value-identical to ``doc_ngrams`` per doc (property-tested
against it), so the SQL mirror documented there is unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textstats import flat_terms


def _gram_windows(texts: pa.ChunkedArray | pa.Array, n: int):
    """Shared window explode: tokenize ``texts`` and enumerate every
    n-token window. Returns ``(doc_idx, intra, grams)`` — the owning
    document's positional index (int64 ndarray), the 0-based token
    start within that document (int64 ndarray), and the joined gram
    strings (Arrow Array) — or ``None`` when no document has ≥ n
    tokens. Both explode entry points project from this one kernel so
    the window arithmetic can never drift between them."""
    flat, offsets = flat_terms(texts)
    tok_counts = np.diff(offsets)
    gram_counts = np.maximum(tok_counts - n + 1, 0)
    total = int(gram_counts.sum())
    if total == 0:
        return None
    gram_starts = np.zeros(len(gram_counts) + 1, np.int64)
    np.cumsum(gram_counts, out=gram_starts[1:])
    # global window index → start position in the flat token array
    intra = (np.arange(total, dtype=np.int64)
             - np.repeat(gram_starts[:-1], gram_counts))
    starts = np.repeat(offsets[:-1], gram_counts) + intra
    parts = [flat.take(pa.array(starts + k, pa.int64())) for k in range(n)]
    grams = pc.binary_join_element_wise(*parts, " ")
    doc_idx = np.repeat(np.arange(len(gram_counts), dtype=np.int64),
                        gram_counts)
    return doc_idx, intra, grams


def explode_distinct_ngrams(doc_ids: pa.ChunkedArray | pa.Array,
                            texts: pa.ChunkedArray | pa.Array,
                            n: int) -> pa.Table:
    """(doc_id, gram) DISTINCT pairs of every document's lowered
    whitespace-token n-grams — ``doc_ngrams`` exploded over a whole
    batch with no per-row Python. Docs with < n tokens emit nothing."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    win = _gram_windows(texts, n)
    if win is None:
        return pa.table({"doc_id": pa.array([], doc_ids.type),
                         "gram": pa.array([], pa.string())})
    doc_idx, _intra, grams = win
    owner = doc_ids.take(pa.array(doc_idx, pa.int64()))
    pairs = pa.table({"doc_id": owner, "gram": grams})
    return pairs.group_by(["doc_id", "gram"]).aggregate([])


def explode_ngram_instances(doc_ids: pa.ChunkedArray | pa.Array,
                            texts: pa.ChunkedArray | pa.Array,
                            n: int) -> pa.Table:
    """(doc_id, start, gram) for EVERY n-gram window (start = 0-based
    token index, one row per instance, repeats kept) — the positional
    explode behind substring-span dedup, same tokenization as
    :func:`explode_distinct_ngrams` (lower, whitespace split, empties
    dropped)."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    win = _gram_windows(texts, n)
    if win is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "start": pa.array([], pa.int64()),
                         "gram": pa.array([], pa.string())})
    doc_idx, intra, grams = win
    owner = doc_ids.take(pa.array(doc_idx, pa.int64())).cast(pa.int64())
    return pa.table({"doc_id": owner,
                     "start": pa.array(intra, pa.int64()),
                     "gram": grams})
