"""Bigram-LM likelihood scoring: model training, pruning, backoff,
OOV handling on held-out docs, broadcast guards."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from horizon_ocr_python_ray.stages.lmscore import (
    MIN_BIGRAM_COUNT,
    SCALE,
    _score_batch,
    doc_lm_score,
    train_bigram_model,
)


def _docs(texts):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


def test_model_counts_and_pruning(ray_session):
    # "a b" appears twice (kept), "b c" once (pruned)
    m, _ = train_bigram_model(_docs(["a b c", "a b"]))
    vocab = list(m["vocab"])
    assert vocab == ["a", "b", "c"]
    assert m["total"] == 5
    assert list(m["c1"]) == [2, 2, 1]
    v = len(vocab)
    kept = {(int(k) // v, int(k) % v): int(c)
            for k, c in zip(m["bkey"], m["c2"])}
    assert kept == {(0, 1): 2}  # only a→b survives MIN_BIGRAM_COUNT
    assert MIN_BIGRAM_COUNT == 2


def test_score_terms_exact(ray_session):
    out = doc_lm_score(_docs(["a b c", "a b"])).to_pandas()
    out = out.set_index("doc_id").sort_index()
    # doc0 "a b c": a→b kept: SCALE*2//2 = SCALE; b→c pruned →
    # backoff SCALE*c1(c)//N = SCALE*1//5
    assert out.loc[0, "lm_score"] == SCALE + SCALE // 5
    assert out.loc[0, "n_transitions"] == 2
    # doc1 "a b": just the kept bigram
    assert out.loc[1, "lm_score"] == SCALE
    assert out.loc[1, "n_tokens"] == 2


def test_short_and_empty_docs(ray_session):
    out = doc_lm_score(_docs(["", "solo", "a b a b"])).to_pandas()
    out = out.set_index("doc_id")
    assert out.loc[0, "lm_score"] == 0 and out.loc[0, "n_tokens"] == 0
    assert out.loc[1, "lm_score"] == 0 and out.loc[1, "n_transitions"] == 0
    assert out.loc[2, "lm_score"] > 0


def test_heldout_scoring_handles_oov(ray_session):
    import ray.data

    train = _docs(["a b a b a b"])
    held = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array(["a zzz b"], pa.string()),
    }))
    out = doc_lm_score(train, score_docs_ds=held).to_pandas()
    # a→zzz: OOV next token → unigram backoff with c1=0 → 0
    # zzz→b: OOV prev → backoff SCALE*c1(b)//N = SCALE*3//6
    assert out.loc[0, "lm_score"] == SCALE * 3 // 6
    assert out.loc[0, "n_transitions"] == 2


def test_quality_separation(ray_session):
    # fluent docs (repeating common transitions) outscore shuffled junk
    fluent = ["the cat sat on the mat"] * 5
    junk = ["mat the on sat zzz cat qqq"]
    out = doc_lm_score(_docs(fluent + junk)).to_pandas()
    per_tr = out["lm_score"] / out["n_transitions"].clip(lower=1)
    assert per_tr.iloc[:5].min() > per_tr.iloc[5] * 1.5


def test_broadcast_guard(ray_session, monkeypatch):
    import horizon_ocr_python_ray.stages.lmscore as mod

    # over the vocabulary budget: no model, and the pruned counts
    # (5 unigrams; every bigram occurs once) handed to the join plan
    monkeypatch.setattr(mod, "BROADCAST_VOCAB_MAX", 2)
    model, counts = train_bigram_model(_docs(["a b c d e"]))
    assert model is None
    assert sorted(counts.to_pandas()["w1"]) == ["a", "b", "c", "d", "e"]


def test_streaming_cap_fires_before_collection(ray_session, monkeypatch):
    # the running row cap (vocab + bigram budget) trips while the counts
    # stream, and the pruned counts pulled so far are handed over, not
    # recounted — both caps shrunk so rows > vocab+bigram
    import horizon_ocr_python_ray.stages.lmscore as mod

    monkeypatch.setattr(mod, "BROADCAST_VOCAB_MAX", 1)
    monkeypatch.setattr(mod, "BROADCAST_BIGRAM_MAX", 1)
    model, counts = train_bigram_model(_docs(["a b c d e a b c d e"]))
    assert model is None
    got = counts.to_pandas()
    # 5 unigrams + a→b, b→c, c→d, d→e (e→a occurs once: pruned)
    assert len(got) == 9 and int(got["c"].sum()) == 10 + 8


def test_singleton_bigrams_pruned_remotely(ray_session):
    # "b c" occurs once → pruned by _prune_grams before collection, so
    # the trained model must not contain it, and scoring still backs off
    m, _ = train_bigram_model(_docs(["a b c", "a b"]))
    assert len(m["bkey"]) == 1  # only a→b survives

    # _score_batch accepts the raw model dict (no ObjectRef) and matches
    # the distributed doc_lm_score output exactly
    batch = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "text": pa.array(["a b c", "a b"], pa.string())})
    local = _score_batch(batch, m).to_pandas().set_index("doc_id")
    dist = (doc_lm_score(_docs(["a b c", "a b"])).to_pandas()
            .set_index("doc_id").sort_index())
    assert (local["lm_score"] == dist["lm_score"]).all()
    assert local.loc[0, "lm_score"] == SCALE + SCALE // 5


def _rand_corpus(rng, n_docs, words, max_len=30):
    return [" ".join(rng.choice(words, size=rng.integers(0, max_len)))
            for _ in range(n_docs)]


def test_join_plan_matches_broadcast(ray_session, monkeypatch):
    """The distributed gram hash-join plan (past the broadcast budget) is
    byte-equal to the broadcast plan — self-scoring and held-out (incl.
    OOV, empty and one-token docs)."""
    import ray.data

    import horizon_ocr_python_ray.stages.lmscore as mod

    rng = np.random.default_rng(23)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    docs = _docs(_rand_corpus(rng, 200, words))
    held = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100, 101, 102, 103], pa.int64()),
        "text": pa.array(["", "solo", "alpha oov beta",
                          "alpha beta gamma delta"], pa.string()),
    }))

    def run(score=None):
        return (doc_lm_score(docs, score_docs_ds=score)
                .to_pandas().sort_values("doc_id").reset_index(drop=True))

    broadcast = run(), run(held)
    monkeypatch.setattr(mod, "BROADCAST_VOCAB_MAX", 1)
    assert run().equals(broadcast[0])
    assert run(held).equals(broadcast[1])


def test_join_plan_empty_training_corpus(ray_session, monkeypatch):
    import ray.data

    import horizon_ocr_python_ray.stages.lmscore as mod

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    held = _docs(["a b c"])
    # a negative budget: even the empty model is over it
    monkeypatch.setattr(mod, "BROADCAST_VOCAB_MAX", -1)
    out = doc_lm_score(empty, score_docs_ds=held).to_pandas()
    assert out["lm_score"].tolist() == [0]
    assert out["n_transitions"].tolist() == [2]


def test_auto_plan_falls_back_to_join(ray_session, monkeypatch, udf_calls):
    """Over the broadcast budget doc_lm_score must still produce the
    exact broadcast-plan result via the hash-join fallback — the cap is
    a plan switch, not a refusal — from the counts the tripped collect
    already produced (the counting map runs once per batch)."""
    import horizon_ocr_python_ray.stages.lmscore as mod

    rng = np.random.default_rng(31)
    docs = _docs(_rand_corpus(rng, 60, ["a", "b", "c", "d"])).repartition(3)
    docs = docs.materialize()
    calls = udf_calls(mod, "_partial_counts")
    expected = (doc_lm_score(docs).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))
    assert calls() == docs.num_blocks()
    monkeypatch.setattr(mod, "BROADCAST_VOCAB_MAX", 1)
    monkeypatch.setattr(mod, "BROADCAST_BIGRAM_MAX", 1)
    got = (doc_lm_score(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert calls() == docs.num_blocks()
    assert got.equals(expected)


def test_vectorized_scorer_matches_naive_reference(ray_session):
    """Differential check of the batch-vectorized scorer against a naive
    per-document implementation of the documented integer formula
    (bigram term if the pruned bigram exists, else unigram backoff) on
    randomized multi-doc batches incl. empty/one-token/OOV docs."""
    from horizon_ocr_python_ray.functions.textstats import terms

    rng = np.random.default_rng(11)
    vocab_words = ["alpha", "beta", "gamma", "delta", "eps"]
    train_texts = [
        " ".join(rng.choice(vocab_words, size=rng.integers(2, 30)))
        for _ in range(40)
    ] + ["ΟΔΟΣ alpha ΟΔΟΣ beta", "İstanbul alpha"]
    m, _ = train_bigram_model(_docs(train_texts))

    # Held-out scoring set with empties, singletons, tabs and OOV terms.
    score_texts = [
        "", "alpha", "alpha beta gamma", "zzz alpha zzz",
        "alpha\tbeta\ngamma  delta", "ZZZ yyy xxx",
        "ΟΔΟΣ alpha ΟΔΟΣ", "İstanbul\u00a0beta gamma\vdelta alpha",
    ] + [" ".join(rng.choice(vocab_words + ["oov1", "oov2"],
                             size=rng.integers(0, 25)))
         for _ in range(30)]
    batch = pa.table({
        "doc_id": pa.array(range(len(score_texts)), pa.int64()),
        "text": pa.array(score_texts, pa.string()),
    })
    got = _score_batch(batch, m).to_pandas()

    vocab = list(m["vocab"])
    c1 = {w: int(c) for w, c in zip(vocab, m["c1"])}
    v = len(vocab)
    big = {(int(k) // v, int(k) % v): int(c)
           for k, c in zip(m["bkey"], m["c2"])}
    vid = {w: i for i, w in enumerate(vocab)}
    for row, text in zip(got.itertuples(index=False), score_texts):
        toks = terms(text)
        assert row.n_tokens == len(toks)
        assert row.n_transitions == max(len(toks) - 1, 0)
        score = 0
        for a, b in zip(toks, toks[1:]):
            ia, ib = vid.get(a), vid.get(b)
            if ia is not None and ib is not None and (ia, ib) in big:
                score += (SCALE * big[(ia, ib)]) // c1[a]
            else:
                score += (SCALE * c1.get(b, 0)) // m["total"]
        assert row.lm_score == score, text
