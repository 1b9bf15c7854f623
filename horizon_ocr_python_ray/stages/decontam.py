"""Eval-set decontamination: flag training documents sharing any token
n-gram with a held-out evaluation set (the GPT-3 appendix-C / FLAN
"13-gram overlap" procedure, here parameterized and exact).

Scale shape (100 TB):
- The EVAL side is small by definition (a benchmark suite is MBs, not
  TBs): its distinct n-grams are folded on the driver into one set and
  broadcast ONCE via ``ray.put`` — never re-shipped per batch. A hard
  cap (:data:`EVAL_GRAM_MAX`) refuses silently-unbounded eval sets;
  callers with a genuinely huge eval side need a shuffle-join plan,
  which this module deliberately does not fake.
- The TRAINING side streams: one ``map_batches`` pass computes each
  document's distinct n-grams and counts set-intersection hits — no
  shuffle, no materialization; the only cross-cluster bytes are the
  one-time broadcast and the (sparse) contaminated-row output.
- Membership counting uses ``frozenset.intersection`` (C-speed) on the
  document's distinct-gram set, mirroring the exact string semantics of
  the DuckDB oracle — no hashing, so no collision caveat in the compare.

Reference analog: the response-cache / seen-set dedup machinery
(``/root/reference/docvision/pipeline/cache.py``) generalized to
cross-corpus membership; the n-gram definition reuses the whitespace
tokenizer mirrored 1:1 in SQL (``functions/textstats.py:terms``).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.textstats import terms
from ..state.worker import worker_state

#: Default n-gram length. GPT-3 used 13; the synthetic corpus's sentence
#: generator shares runs of ~4 lowered tokens between near-dup docs, so
#: tests and the driver query pin n=4 explicitly.
DEFAULT_N = 13

#: Refuse to broadcast an eval gram set larger than this (a real
#: benchmark suite is orders of magnitude below; hitting the cap means
#: the "eval set" is not actually small and needs a different plan).
EVAL_GRAM_MAX = 50_000_000


def doc_ngrams(text: str, n: int) -> set[str]:
    """Distinct lowered whitespace-token ``n``-grams, space-joined.

    SQL mirror (DuckDB)::

        list_distinct(list_transform(
            range(1, greatest(len(t) - n + 2, 1)),
            i -> array_to_string(t[i:i+n-1], ' ')))
        -- t = regexp_split_to_array(trim(lower(text)), '\\s+')
    """
    toks = terms(text)
    if len(toks) < n:
        return set()
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def _batch_grams(batch: pa.Table, n: int) -> pa.Table:
    """Batch-local combiner for the eval side: the UNION of the batch's
    documents' distinct grams, one row each (deduped before leaving the
    task, so the driver fold is output-proportional)."""
    grams: set[str] = set()
    for text in batch.column("text").to_pylist():
        grams |= doc_ngrams(text, n)
    return pa.table({"gram": pa.array(sorted(grams), pa.string())})


def eval_gram_ref(eval_ds, n: int = DEFAULT_N):
    """eval documents → ``ray.put`` handle of the frozenset of their
    distinct n-grams (the broadcast side)."""
    import ray

    grams: set[str] = set()
    for t in (eval_ds.map_batches(_batch_grams, batch_format="pyarrow",
                                  fn_kwargs={"n": n})
              .iter_batches(batch_format="pyarrow")):
        grams.update(t.column("gram").to_pylist())
        if len(grams) > EVAL_GRAM_MAX:
            raise ValueError(
                f"eval gram set exceeds {EVAL_GRAM_MAX}: not a small side; "
                "decontamination needs a shuffle-join plan at this size")
    return ray.put(frozenset(grams))


def _contam_batch(batch: pa.Table, eval_ref, n: int) -> pa.Table:
    import ray

    ev = worker_state("decontam_eval", eval_ref.hex(), lambda: ray.get(eval_ref))
    ids, hits = [], []
    for doc_id, text in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
        m = len(ev & doc_ngrams(text, n))
        if m:
            ids.append(doc_id)
            hits.append(m)
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(hits, pa.int64())],
        names=["doc_id", "matched_grams"],
    )


def decontaminate(train_ds, eval_ds, n: int = DEFAULT_N):
    """(train docs, eval docs) → (doc_id, matched_grams) for every
    TRAINING document sharing ≥1 distinct n-gram with the eval set.

    Callers drop (or down-weight) the returned ids; the sparse output is
    the audit trail. Both inputs need (doc_id, text) columns; the eval
    rows must already be excluded from ``train_ds`` (the canonical split
    is upstream knowledge, e.g. ``stages/sampling.hash_split``).
    """
    ref = eval_gram_ref(eval_ds, n)
    return train_ds.map_batches(_contam_batch, batch_format="pyarrow",
                                fn_kwargs={"eval_ref": ref, "n": n})
