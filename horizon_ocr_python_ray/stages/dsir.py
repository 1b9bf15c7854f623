"""DSIR-style hashed n-gram importance weights (data-selection op).

Data Selection via Importance Resampling (Xie et al., 2023,
arXiv:2302.03169) scores each raw document by how target-like its
hashed n-gram feature distribution is; sampling proportional to the
weight yields a target-matched subset. This module implements the
integer-exact variant of the scoring pass:

- Features: lowercased whitespace unigrams hashed to
  :data:`N_BUCKETS` buckets with md5-low64 (the engine-wide
  DuckDB-reproducible hash — ``md5_number_lower(term) % B``).
- Global bucket histograms: N_target[b] (docs matching the target
  predicate, e.g. ``lang = 'en'``) and N_raw[b] (all docs), built as
  per-batch partial histograms — a fixed-size monoid (≤B rows per
  batch regardless of corpus size) folded once.
- Per-bucket weight: ``w[b] = ((N_target[b]+1) · 1e6) // (N_raw[b]+1)``
  — add-one smoothed target/raw ratio at e6 fixed point, floor
  division, so the weight table and every per-doc score are int64 and
  bit-reproducible in SQL.
- Per-doc score: ``Σ_tokens w[bucket(token)]`` (with multiplicity) —
  the integer surrogate of DSIR's Σ log(p_target/p_raw) feature
  log-ratio (the monotone bucket-ratio core of the method; the log is
  dropped to keep the oracle exact).

Scale shape (100 TB): pass 1 streams with a fixed-size combiner and
folds ≤B rows per block on the driver (B = 4096 → trivially small);
the weight table broadcasts via ``ray.put`` once; pass 2 streams with
zero shuffles. Nothing is corpus-sized except the two streaming reads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ..functions.collect import iter_tables
from ..functions.fasthash import md5_number_lower
from ..functions.textstats import flat_terms

#: Hashed-feature bucket count (power of two, matches the paper's
#: fixed-dimension hashed unigram features; small enough to fold).
N_BUCKETS = 4096

#: Fixed-point scale of the per-bucket target/raw ratio.
WEIGHT_SCALE = 1_000_000


#: Worker-process token → bucket memo (vocab ≪ corpus). Cleared when
#: full, like ``cms._CELL_CACHE``, so a worker heap stays flat.
_BUCKET_CACHE: dict[str, int] = {}
_BUCKET_CACHE_MAX = 2_000_000


def _bucket(term: str) -> int:
    b = _BUCKET_CACHE.get(term)
    if b is None:
        b = md5_number_lower(term) % N_BUCKETS
        if len(_BUCKET_CACHE) >= _BUCKET_CACHE_MAX:
            _BUCKET_CACHE.clear()
        _BUCKET_CACHE[term] = b
    return b


def _term_buckets(texts: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(bucket of every term occurrence, per-doc offsets into them); each
    DISTINCT term of the batch is hashed once."""
    terms, offsets = flat_terms(texts)
    de = terms.dictionary_encode()
    ub = np.array([_bucket(t) for t in de.dictionary.to_pylist()], np.int64)
    return ub[de.indices.to_numpy(zero_copy_only=False)], offsets


def _hist_partial(batch: pa.Table, target_lang: str) -> pa.Table:
    """(text, lang) batch → non-zero rows of the two fixed-size
    histograms: (bkt, n_target, n_raw)."""
    bks, offsets = _term_buckets(batch.column("text"))
    is_tgt = pc.equal(batch.column("lang"), target_lang).fill_null(
        False).to_numpy()
    raw = np.bincount(bks, minlength=N_BUCKETS)
    tgt = np.bincount(bks[np.repeat(is_tgt, np.diff(offsets))],
                      minlength=N_BUCKETS)
    nz = np.flatnonzero(raw)
    return pa.table({
        "bkt": pa.array(nz, pa.int64()),
        "n_target": pa.array(tgt[nz], pa.int64()),
        "n_raw": pa.array(raw[nz], pa.int64()),
    })


def build_weights(docs: ray.data.Dataset, target_lang: str = "en") -> np.ndarray:
    """Global histograms → e6 fixed-point bucket weight vector.

    The fold is driver-side by construction: each block contributes at
    most :data:`N_BUCKETS` rows, so the total transfer is
    O(B × blocks), independent of corpus size."""
    partials = docs.map_batches(
        lambda t: _hist_partial(t, target_lang), batch_format="pyarrow"
    )
    raw = np.zeros(N_BUCKETS, np.int64)
    tgt = np.zeros(N_BUCKETS, np.int64)
    for t in iter_tables(partials):
        b = t.column("bkt").to_numpy()
        raw[b] += t.column("n_raw").to_numpy()
        tgt[b] += t.column("n_target").to_numpy()
    return ((tgt + 1) * WEIGHT_SCALE) // (raw + 1)


def dsir_scores(docs: ray.data.Dataset, target_lang: str = "en") -> ray.data.Dataset:
    """(doc_id, dsir_score_e6) for every document (0 for empty text)."""
    w_ref = ray.put(build_weights(docs, target_lang))

    def score_batch(batch: pa.Table) -> pa.Table:
        w = ray.get(w_ref)  # zero-copy plasma read, cached per worker
        bks, offsets = _term_buckets(batch.column("text"))
        cum = np.concatenate([[0], np.cumsum(w[bks])])
        scores = cum[offsets[1:]] - cum[offsets[:-1]]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "dsir_score_e6": pa.array(scores, pa.int64()),
        })

    return docs.map_batches(score_batch, batch_format="pyarrow")


def lang_drift(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Distribution-drift monitor: per-language total-variation distance
    between the slice's hashed-unigram distribution and the corpus's →
    (lang, n_tokens, tv_num) with

        tv_num = Σ_b |c_lang[b]·N_corpus − c_corpus[b]·N_lang|

    i.e. the TV-distance numerator cleared of both denominators
    (TV = tv_num / (2·N_lang·N_corpus)) — exact int64, so the compare
    and the SQL replay are bit-equal while the monitored quantity stays
    a real divergence. One streaming pass builds fixed-size per-(lang,
    bucket) histogram partials (≤ |langs|·B rows per batch); the fold
    is corpus-size-independent."""
    import pandas as pd

    def hist_partial(batch: pa.Table) -> pa.Table:
        bks, offsets = _term_buckets(batch.column("text"))
        langs = pc.dictionary_encode(batch.column("lang").combine_chunks())
        lang_of_term = np.repeat(
            langs.indices.to_numpy(zero_copy_only=False).astype(np.int64),
            np.diff(offsets))
        cells = np.bincount(lang_of_term * N_BUCKETS + bks,
                            minlength=len(langs.dictionary) * N_BUCKETS)
        nz = np.flatnonzero(cells)
        return pa.table({"lang": langs.dictionary.take(pa.array(nz // N_BUCKETS)),
                         "bkt": pa.array(nz % N_BUCKETS, pa.int64()),
                         "c": pa.array(cells[nz], pa.int64())})

    partials = docs.map_batches(hist_partial, batch_format="pyarrow")
    per_lang: dict[str, np.ndarray] = {}
    for t in iter_tables(partials):
        for lang, b, c in zip(t.column("lang").to_pylist(),
                              t.column("bkt").to_pylist(),
                              t.column("c").to_pylist()):
            a = per_lang.get(lang)
            if a is None:
                a = per_lang[lang] = np.zeros(N_BUCKETS, np.int64)
            a[b] += c
    total = np.zeros(N_BUCKETS, np.int64)
    for a in per_lang.values():
        total += a
    n_tot = int(total.sum())
    rows = []
    for lang in sorted(per_lang):
        a = per_lang[lang]
        n_lang = int(a.sum())
        tv_num = int(np.abs(a.astype(object) * n_tot
                            - total.astype(object) * n_lang).sum())
        rows.append((lang, n_lang, tv_num))
    return ray.data.from_arrow(pa.table({
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "n_tokens": pa.array([r[1] for r in rows], pa.int64()),
        "tv_num": pa.array([r[2] for r in rows], pa.int64()),
    }))
