"""Corpus-trained n-gram LM likelihood scoring — the perplexity-filter
primitive of LLM data curation (CCNet / RefinedWeb quality gates score
documents under a language model trained on a trusted corpus and keep
the head of the distribution).

Sandbox-scale analog: a bigram model with unigram backoff, trained on
the corpus itself in ONE distributed counting pass, then broadcast for a
local scoring pass. All arithmetic is integer-exact so the DuckDB oracle
replays it bit-for-bit (no ``ln()`` ulp drift): each transition
``w_{i-1} → w_i`` contributes

    (SCALE · c2(w_{i-1}, w_i)) // c1(w_{i-1})   if the bigram survives
                                                pruning (count ≥ 2),
    (SCALE · c1(w_i)) // N                      otherwise (unigram
                                                backoff),

and a document's ``lm_score`` is the sum over its transitions — monotone
in the true LM log-likelihood ordering for fixed length, which is what a
quality gate consumes. (A real deployment swaps the model for KenLM and
the integer terms for log-probs; the Ray plan is identical.)

Scale shape (100 TB):
- Train pass: per-batch Arrow ``value_counts`` combiners emit one
  ``(gram, partial count)`` row per DISTINCT gram per batch → narrow ``groupby().sum()``.
  Token occurrences never cross the cluster.
- The model broadcast is guarded by ``BROADCAST_VOCAB_MAX`` /
  ``BROADCAST_BIGRAM_MAX``; beyond it ``doc_lm_score`` switches to the
  fully distributed gram hash-join plan
  (:func:`doc_lm_score_join`, the ``topterms.py`` shuffle-join shape):
  explode scored docs into per-doc DISTINCT transition counts
  ``(doc_id, w1, w2, k)``, left-join the pruned bigram-term table on
  ``(w1, w2)`` and the unigram-backoff-term table on ``w2``, then
  ``groupby(doc_id).sum()`` the per-pair terms. Both plans are tested
  byte-equal by lowering the caps (``tests/test_lmscore.py``). No
  driver state beyond the scalar token total.
- Score pass: whole-batch terms (``textstats.flat_terms``) +
  dictionary-encode, one ``searchsorted`` over the batch's DISTINCT
  tokens against the broadcast sorted model arrays, transition terms
  vectorized across the batch with cross-document boundaries masked —
  no Python loops over tokens or documents anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..functions.textstats import flat_terms
from ..functions.collect import fold_capped

#: Integer scale of each transition term (fits int64 with room: SCALE ·
#: c2 ≤ 1e6 · corpus tokens).
SCALE = 1_000_000

#: Bigrams below this corpus count are pruned from the model (KenLM-style
#: pruning); their transitions take the unigram backoff.
MIN_BIGRAM_COUNT = 2

BROADCAST_VOCAB_MAX = 5_000_000
BROADCAST_BIGRAM_MAX = 20_000_000

_COUNT_SCHEMA = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                           ("c", pa.int64())])

_SCORE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_tokens", pa.int64()),
    ("n_transitions", pa.int64()),
    ("lm_score", pa.int64()),
])


def _transition_mask(n_tokens: np.ndarray) -> np.ndarray:
    """Boolean mask over consecutive positions of the batch-compacted
    token array: True where (i, i+1) belong to the SAME document."""
    total = int(n_tokens.sum())
    mask = np.ones(max(total - 1, 0), dtype=bool)
    interior = np.cumsum(n_tokens)[:-1]  # doc boundaries
    interior = interior[(interior > 0) & (interior < total)]
    mask[interior - 1] = False
    return mask


def _partial_counts(batch: pa.Table) -> pa.Table:
    """Batch combiner: (gram, w2, partial count) rows — unigram rows use
    w2 = "" (terms are never empty, so "" never collides with a real
    one). Fully vectorized: ``flat_terms`` + ``value_counts``;
    adjacent-pair keys join with a space (terms cannot contain one) and
    split back on the FIRST space only."""
    import pyarrow.compute as pc

    compact, offsets = flat_terms(batch.column("text"))
    n_tokens = np.diff(offsets)
    uni = compact.value_counts()
    w1s = [uni.field("values")]
    w2s = [pa.nulls(len(uni), pa.string()).fill_null("")]
    cs = [uni.field("counts").cast(pa.int64())]

    tmask = _transition_mask(n_tokens)
    if len(tmask):
        m = pa.array(tmask)
        pairs = pc.binary_join_element_wise(
            compact.slice(0, len(compact) - 1).filter(m),
            compact.slice(1).filter(m), " ")
        bvc = pairs.value_counts()
        split = pc.split_pattern(bvc.field("values"), pattern=" ",
                                 max_splits=1)
        flat = pc.list_flatten(split)
        w1s.append(flat.take(pa.array(range(0, 2 * len(bvc), 2), pa.int64())))
        w2s.append(flat.take(pa.array(range(1, 2 * len(bvc), 2), pa.int64())))
        cs.append(bvc.field("counts").cast(pa.int64()))
    return pa.table({"w1": pa.concat_arrays([a.combine_chunks() if
                                             isinstance(a, pa.ChunkedArray)
                                             else a for a in w1s]),
                     "w2": pa.concat_arrays(w2s),
                     "c": pa.concat_arrays(cs)})


def _prune_grams(batch: pa.Table) -> pa.Table:
    """Distributed KenLM-style prune: keep every unigram row plus
    bigrams with corpus count ≥ MIN_BIGRAM_COUNT. Runs BEFORE the
    driver collection so count-1 singleton bigrams (typically the
    large majority of distinct bigrams) never leave the cluster."""
    import pyarrow.compute as pc
    keep = pc.or_(pc.equal(batch.column("w2"), ""),
                  pc.greater_equal(batch.column("c"),
                                   pa.scalar(MIN_BIGRAM_COUNT, pa.int64())))
    return batch.filter(keep)


def train_bigram_counts(docs_ds):
    """One counting pass → DISTRIBUTED pruned gram-count Dataset
    ``(w1, w2, c)`` with unigram rows carrying ``w2 == ""``. Shared by
    both the broadcast and the hash-join plan, so the two plans count
    identically by construction."""
    from ray.data.aggregate import Sum

    return (docs_ds.map_batches(_partial_counts, batch_format="pyarrow")
            .groupby(["w1", "w2"]).aggregate(Sum("c", alias_name="c"))
            .map_batches(_prune_grams, batch_format="pyarrow"))


def train_bigram_model(docs_ds):
    """One counting pass → ``(model, None)``: the broadcast-ready integer
    model dict, or ``(None, counts)`` when the pruned model exceeds the
    broadcast budget (:data:`BROADCAST_VOCAB_MAX` /
    :data:`BROADCAST_BIGRAM_MAX`). ``counts`` is the pruned gram-count
    Dataset, built from the rows already counted, so the gram hash-join
    plan (:func:`doc_lm_score_join`) reuses the counting pass instead of
    re-running the corpus-wide tokenize + gram shuffle. The collect
    streams under a running row cap, so the over-budget answer comes
    BEFORE driver memory blows, not after."""
    import ray.data

    t, rest = fold_capped(train_bigram_counts(docs_ds), _COUNT_SCHEMA, None,
                          None, BROADCAST_VOCAB_MAX + BROADCAST_BIGRAM_MAX)
    if rest is not None:
        return None, rest
    w1 = np.asarray(t.column("w1").to_pylist(), dtype=object)
    w2 = np.asarray(t.column("w2").to_pylist(), dtype=object)
    c = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    is_uni = w2 == ""
    vocab = np.sort(w1[is_uni].astype(str))
    c1_by_tok = dict(zip(w1[is_uni], c[is_uni]))
    c1 = np.array([c1_by_tok[v] for v in vocab], dtype=np.int64)
    total = int(c1.sum())
    keep = ~is_uni  # bigrams below MIN_BIGRAM_COUNT already pruned remotely
    if len(vocab) > BROADCAST_VOCAB_MAX or int(keep.sum()) > BROADCAST_BIGRAM_MAX:
        return None, ray.data.from_arrow(t)
    v = len(vocab)
    i1 = np.searchsorted(vocab, w1[keep].astype(str))
    i2 = np.searchsorted(vocab, w2[keep].astype(str))
    bkey = i1.astype(np.int64) * v + i2
    order = np.argsort(bkey)
    return {"vocab": vocab, "c1": c1, "total": total,
            "bkey": bkey[order], "c2": c[keep][order]}, None


def _score_batch(batch: pa.Table, model_ref) -> pa.Table:
    """Vectorized per-document scorer over the broadcast model. The
    ``ray.get`` resolves from the worker's local plasma store (cached
    after the first fetch per process) — the model dict itself is never
    pickled into the task closure."""
    m = ray.get(model_ref) if isinstance(model_ref, ray.ObjectRef) else model_ref
    vocab, c1, total = m["vocab"], m["c1"], m["total"]
    bkey, c2 = m["bkey"], m["c2"]
    v = len(vocab)
    doc_ids = batch.column("doc_id").cast(pa.int64())
    compact, offsets = flat_terms(batch.column("text"))
    n_tokens = np.diff(offsets)
    ntr = np.maximum(n_tokens - 1, 0)
    if v == 0 or len(compact) == 0:
        return pa.Table.from_arrays(
            [doc_ids, pa.array(n_tokens, pa.int64()),
             pa.array(np.zeros(len(n_tokens), np.int64()), pa.int64()),
             pa.array(np.zeros(len(n_tokens), np.int64()), pa.int64())],
            schema=_SCORE_SCHEMA)

    # Vocabulary lookup once per DISTINCT token in the batch (dictionary
    # encode), then gather — the searchsorted runs over ~|vocab| strings
    # instead of every token occurrence.
    de = compact.dictionary_encode()
    uniq = np.asarray(de.dictionary.to_pylist(), dtype=str)
    idx = de.indices.to_numpy(zero_copy_only=False)
    ids_u = np.minimum(np.searchsorted(vocab, uniq), v - 1)
    known_u = vocab[ids_u] == uniq  # OOV only when scoring a held-out set
    ids = ids_u[idx]
    known = known_u[idx]

    tmask = _transition_mask(n_tokens)
    c1_prev = np.where(known[:-1], c1[ids[:-1]], 1)
    c1_next = np.where(known[1:], c1[ids[1:]], 0)
    keys = ids[:-1].astype(np.int64) * v + ids[1:]
    if len(bkey):
        pos = np.minimum(np.searchsorted(bkey, keys), len(bkey) - 1)
        hit = (bkey[pos] == keys) & known[:-1] & known[1:]
        big_term = (SCALE * c2[pos]) // c1_prev
    else:
        hit = np.zeros(len(keys), bool)
        big_term = np.zeros(len(keys), np.int64)
    uni_term = (SCALE * c1_next) // total
    terms = np.where(hit, big_term, uni_term)
    terms = np.where(tmask, terms, 0)  # cross-document transitions: none

    # Per-doc segment sums of the transition terms (prefix-sum gather).
    bounds = np.concatenate([[0], np.cumsum(n_tokens)])
    tcum = np.concatenate([[0], np.cumsum(terms, dtype=np.int64)])
    starts = np.minimum(bounds[:-1], len(terms))
    ends = np.maximum(np.minimum(bounds[1:] - 1, len(terms)), starts)
    scores = tcum[ends] - tcum[starts]
    return pa.Table.from_arrays(
        [doc_ids, pa.array(n_tokens, pa.int64()),
         pa.array(ntr, pa.int64()), pa.array(scores, pa.int64())],
        schema=_SCORE_SCHEMA)


_TRANS_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("w1", pa.string()),
    ("w2", pa.string()),
    ("k", pa.int64()),
])


def _explode_transitions(batch: pa.Table) -> pa.Table:
    """Join-plan left side: one row per DISTINCT within-doc transition
    per document, ``k`` = its occurrence count in that doc. Vectorized:
    ``flat_terms`` + boundary mask + Arrow ``group_by`` — shuffle volume
    is bounded by the doc's distinct adjacent pairs, not token
    occurrences."""
    compact, offsets = flat_terms(batch.column("text"))
    n_tokens = np.diff(offsets)
    doc_ids = batch.column("doc_id").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    if len(compact) < 2:
        return _TRANS_SCHEMA.empty_table()
    tmask = _transition_mask(n_tokens)
    if not tmask.any():
        return _TRANS_SCHEMA.empty_table()
    m = pa.array(tmask)
    w1 = compact.slice(0, len(compact) - 1).filter(m)
    w2 = compact.slice(1).filter(m)
    doc_of_tok = np.repeat(np.arange(len(n_tokens)), n_tokens)
    dids = doc_ids[doc_of_tok[:-1][tmask]]
    t = pa.table({"doc_id": pa.array(dids, pa.int64()), "w1": w1, "w2": w2})
    g = t.group_by(["doc_id", "w1", "w2"]).aggregate([([], "count_all")])
    return pa.table({"doc_id": g.column("doc_id"),
                     "w1": g.column("w1"),
                     "w2": g.column("w2"),
                     "k": g.column("count_all").cast(pa.int64())})


def _doc_base(batch: pa.Table) -> pa.Table:
    """(doc_id, n_tokens, n_transitions) — the join plan's per-doc spine
    (docs with no transition rows still appear, scoring 0)."""
    n_tokens = np.diff(flat_terms(batch.column("text"))[1])
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
        "n_transitions": pa.array(np.maximum(n_tokens - 1, 0), pa.int64()),
    })


def doc_lm_score_join(docs_ds, score_docs_ds=None, num_partitions: int = 8,
                      counts=None):
    """Fully distributed gram hash-join scoring plan — the 100 TB path
    when the pruned model exceeds the broadcast budget.

    Shape (the ``topterms.doc_top_terms`` shuffle-join shape):

    1. ``train_bigram_counts`` → distributed pruned ``(w1, w2, c)``
       (materialized once: model-sized, object-store-spillable, read by
       three consumers below).
    2. Model-sized prep: bigram terms ``(w1, w2, bterm)`` via an inner
       join of bigram rows on their ``w1`` unigram count; unigram
       backoff terms ``(w, uterm)``. Only the scalar token total ever
       touches the driver.
    3. Explode scored docs → per-doc distinct transition counts
       ``(doc_id, w1, w2, k)``; left-join bterm on ``(w1, w2)`` and
       uterm on ``w2``; per-row term = ``k * (bterm if hit else
       coalesce(uterm, 0))`` — identical integer arithmetic to the
       broadcast scorer (OOV ``w2`` → no uterm → 0).
    4. ``groupby(doc_id).sum`` + left-join onto the per-doc spine.

    Joins go through :func:`.joins.safe_join` (the hardened
    ``Dataset.join``): Ray 2.49's hash-join skips its schema broadcast
    when the first streamed block of an input is empty
    (``hash_shuffle._shuffle_block`` short-circuits zero-row blocks), so
    chained joins over sparse/tiny inputs crash without it. safe_join
    materializes each side — at scale that is the same staging the join
    aggregators force anyway, and every stage stays distributed.

    Tested byte-equal to the broadcast plan (``tests/test_lmscore.py``).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import safe_join

    if counts is None:
        counts = train_bigram_counts(docs_ds)
    counts = counts.materialize()  # no-op if already materialized
    target = score_docs_ds if score_docs_ds is not None else docs_ds
    base = target.map_batches(_doc_base, batch_format="pyarrow")

    def _uni_side(t: pa.Table) -> pa.Table:
        x = t.filter(pc.equal(t.column("w2"), ""))
        return pa.table({"w": x.column("w1"), "c1": x.column("c")})

    uni = counts.map_batches(_uni_side, batch_format="pyarrow").materialize()
    total = max(int(uni.sum("c1") or 0), 1)
    if uni.count() == 0:
        # empty training corpus: every doc scores 0
        return base.map_batches(
            lambda t: t.append_column(
                "lm_score",
                pa.array(np.zeros(t.num_rows, np.int64), pa.int64())),
            batch_format="pyarrow")

    def _big_side(t: pa.Table) -> pa.Table:
        x = t.filter(pc.not_equal(t.column("w2"), ""))
        return pa.table({"w1": x.column("w1"), "w2": x.column("w2"),
                         "c2": x.column("c")})

    big_joined = safe_join(
        counts.map_batches(_big_side, batch_format="pyarrow"), uni,
        join_type="inner", num_partitions=num_partitions,
        on=("w1",), right_on=("w",))

    def _bterm(t: pa.Table) -> pa.Table:
        c2 = t.column("c2").to_numpy(zero_copy_only=False).astype(np.int64)
        c1 = t.column("c1").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"w1": t.column("w1"), "w2": t.column("w2"),
                         "bterm": pa.array((SCALE * c2) // c1, pa.int64())})

    big_terms = big_joined.map_batches(_bterm, batch_format="pyarrow")

    def _uterm(t: pa.Table) -> pa.Table:
        c1 = t.column("c1").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"w": t.column("w"),
                         "uterm": pa.array((SCALE * c1) // total, pa.int64())})

    uni_terms = uni.map_batches(_uterm, batch_format="pyarrow")

    trans = target.map_batches(_explode_transitions, batch_format="pyarrow")
    j = safe_join(
        safe_join(trans, big_terms, join_type="left_outer",
                  num_partitions=num_partitions, on=("w1", "w2"),
                  right_on=("w1", "w2")),
        uni_terms, join_type="left_outer",
        num_partitions=num_partitions, on=("w2",), right_on=("w",))

    def _row_terms(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False).astype(np.int64)
        bterm = t.column("bterm")
        uterm = t.column("uterm")
        hit = pc.is_valid(bterm).to_numpy(zero_copy_only=False)
        bv = bterm.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        uv = uterm.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        s = k * np.where(hit, bv, uv)
        return pa.table({"doc_id": t.column("doc_id").cast(pa.int64()),
                         "s": pa.array(s, pa.int64())})

    scores = (j.map_batches(_row_terms, batch_format="pyarrow")
              .groupby("doc_id").aggregate(Sum("s", alias_name="lm_score")))

    out = safe_join(base, scores, join_type="left_outer",
                    num_partitions=num_partitions, on=("doc_id",),
                    right_on=("doc_id",))

    def _finalize(t: pa.Table) -> pa.Table:
        lm = t.column("lm_score").fill_null(0).cast(pa.int64())
        return pa.Table.from_arrays(
            [t.column("doc_id").cast(pa.int64()),
             t.column("n_tokens").cast(pa.int64()),
             t.column("n_transitions").cast(pa.int64()), lm],
            schema=_SCORE_SCHEMA)

    return out.map_batches(_finalize, batch_format="pyarrow")


def doc_lm_score(docs_ds, score_docs_ds=None, num_partitions: int = 8):
    """documents → (doc_id, n_tokens, n_transitions, lm_score).

    Trains on ``docs_ds``; scores ``score_docs_ds`` (defaults to the
    training set — the CCNet self-scoring shape).

    The pruned model ships via ``ray.put`` (two streaming passes, one
    narrow gram shuffle, vectorized scoring) while it fits the broadcast
    budget (:data:`BROADCAST_VOCAB_MAX` / :data:`BROADCAST_BIGRAM_MAX`);
    past it the fully distributed gram hash-join path runs
    (:func:`doc_lm_score_join`) — every corpus size has a working path."""
    import functools

    model, counts = train_bigram_model(docs_ds)
    if model is None:
        # over budget: the join plan reuses the counts already produced
        # instead of re-running the tokenize + gram shuffle (the most
        # expensive stage of the query)
        return doc_lm_score_join(docs_ds, score_docs_ds,
                                 num_partitions=num_partitions,
                                 counts=counts)
    model_ref = ray.put(model)
    del model  # single copy: workers read the plasma object zero-copy
    target = score_docs_ds if score_docs_ds is not None else docs_ds
    return target.map_batches(
        functools.partial(_score_batch, model_ref=model_ref),
        batch_format="pyarrow")
