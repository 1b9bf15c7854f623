"""Text-analysis kernels for training-data curation: the term rule
(``flat_terms`` / ``terms``) every stage that reads terms calls, token
counting, quality scoring, language-ID heuristic, document
fingerprinting.

All kernels are pure and vectorized-per-batch (no model weights): they run
in stateless ``map_batches`` bodies over the ``documents`` table. Each has
a matching DuckDB-expressible definition where possible so the driver's
oracle can verify values exactly (``__ray_entry__.oracle_sql``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# The term rule, the one definition every stage that reads terms uses.
# The oracles split ``lower(text)`` with ``regexp_split_to_array(…,
# '\\s+')``. DuckDB's regexp engine is RE2, whose \s is the ASCII class
# below (no \v, no U+00A0/U+2028), and DuckDB ``lower`` is simple case
# mapping ('Σ' → 'σ' in every position, 'İ' → 'i'), as is Arrow
# ``utf8_lower`` — Python's ``str.split`` / ``str.lower`` differ on both.
_WS = "\t\n\f\r "
_TOKEN_RE = re.compile(f"[^{_WS}]+")
_WS_RUN = f"[{_WS}]+"
# BPE-ish subword split: runs of letters, runs of digits, single other chars.
_BPE_RE = re.compile(f"[A-Za-z]+|[0-9]+|[^A-Za-z0-9{_WS}]")
_SENT_PUNCT = ".!?"

# Keep in sync with the SQL oracle in __ray_entry__.oracle_sql (lang_id):
# marker stopword lists per language, scored by token membership.
STOPWORDS: dict[str, tuple[str, ...]] = {
    "en": ("the", "a", "of", "and", "to", "is", "in", "it", "that"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "mit"),
    "fr": ("le", "la", "les", "et", "est", "une", "dans", "pas"),
    "es": ("el", "la", "los", "y", "es", "una", "en", "por", "que"),
}

#: Minimum fraction of tokens that must be marker stopwords of the best
#: language for a confident call; otherwise "unknown".
LANG_MIN_STOPWORD_RATIO = 0.03



def tokens(text: str) -> list[str]:
    """Whitespace tokens of ``text``, case kept."""
    return _TOKEN_RE.findall(text or "")


def flat_terms(texts: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray]:
    """The term rule over a whole text column: (flat non-empty lowered
    terms, int64 per-text offsets into them). Per-text term counts are
    ``np.diff(offsets)``; a null text has no terms. SQL analog per text:
    ``list_filter(regexp_split_to_array(lower(text), '\\s+'), x -> x <> '')``
    (the split keeps empty boundary tokens, dropped here)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    split = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(texts, "")),
                                   _WS_RUN)
    flat = split.flatten()
    keep = pc.not_equal(pc.binary_length(flat), 0)
    kept_before = np.concatenate([[0], np.cumsum(np.asarray(keep), dtype=np.int64)])
    offsets = np.asarray(split.offsets, np.int64)
    return flat.filter(keep), kept_before[offsets - offsets[0]]


def terms(text: str) -> list[str]:
    """The term rule on one text — :func:`flat_terms` per string."""
    return tokens(pc.utf8_lower(pa.scalar(text or "", pa.string())).as_py())


def token_count(text: str) -> int:
    """Whitespace token count — SQL analog:
    ``len(regexp_split_to_array(trim(text), '\\s+'))`` (0 for empty)."""
    return len(tokens(text))


def bpe_token_count(text: str) -> int:
    """BPE-ish subword count (letter runs / digit runs / punct singles)."""
    return len(_BPE_RE.findall(text or ""))


def quality_features(text: str) -> dict[str, float]:
    """Length / punctuation / stopword-ratio quality signals (the
    readability-assessment analog of the reference,
    ``/root/reference/docvision/preprocess/enhance.py:311-365``)."""
    toks = tokens(text)
    n_tok = len(toks)
    n_chars = len(text or "")
    n_sent_punct = sum((text or "").count(c) for c in _SENT_PUNCT)
    en_stop = set(STOPWORDS["en"])
    n_stop = sum(1 for t in terms(text) if t in en_stop)
    mean_word_len = (sum(len(t) for t in toks) / n_tok) if n_tok else 0.0
    return {
        "n_chars": float(n_chars),
        "n_tokens": float(n_tok),
        "punct_ratio": (n_sent_punct / n_chars) if n_chars else 0.0,
        "stopword_ratio": (n_stop / n_tok) if n_tok else 0.0,
        "mean_word_len": mean_word_len,
    }


def lang_scores(text: str) -> dict[str, float]:
    toks = terms(text)
    n = len(toks)
    if not n:
        return {lang: 0.0 for lang in STOPWORDS}
    return {
        lang: sum(1 for t in toks if t in set(words)) / n
        for lang, words in STOPWORDS.items()
    }


def lang_id(text: str) -> str:
    """Stopword-marker language ID. Deterministic tie-break: language name
    ascending among equal scores."""
    scores = lang_scores(text)
    best = max(sorted(scores), key=lambda k: scores[k])
    return best if scores[best] >= LANG_MIN_STOPWORD_RATIO else "unknown"


def rolling_fingerprint(text: str, window: int = 8) -> int:
    """Document fingerprint: XOR of md5-low64 hashes over the DISTINCT
    rolling token-window grams — order-insensitive by construction (XOR
    commutes), stable under token reordering outside the window, and
    SQL-reproducible (DuckDB ``bit_xor(md5_number_lower(gram))`` — see
    ``oracle_sql()['doc_fingerprint']``)."""
    from .fasthash import md5_number_lower

    toks = tokens(text)
    if not toks:
        return 0
    if len(toks) <= window:
        grams = {" ".join(toks)}
    else:
        grams = {" ".join(toks[i : i + window]) for i in range(len(toks) - window + 1)}
    acc = 0
    for g in grams:
        acc ^= md5_number_lower(g)
    return acc


def repetition_features(text: str) -> dict:
    """Gopher-style repetition signals (Rae et al. 2021, §A1.1 "repetition
    filters") as EXACT integers — numerators and denominators, never
    pre-divided ratios, so the compare surface carries no float:

    - ``n_lines`` / ``dup_lines``: newline-split line count and the count
      of lines whose exact text occurs more than once in the document
      (all occurrences counted);
    - ``line_chars`` / ``dup_line_chars``: the same, weighted by line
      length;
    - ``top_token`` / ``top_token_n``: the most frequent whitespace token
      and its count (ties → lexicographically smallest token), the
      top-n-gram fraction's n=1 numerator.
    """
    lines = (text or "").split("\n")
    line_counts: dict[str, int] = {}
    for ln in lines:
        line_counts[ln] = line_counts.get(ln, 0) + 1
    n_lines = len(lines)
    line_chars = sum(len(ln) for ln in lines)
    dup_lines = sum(c for c in line_counts.values() if c > 1)
    dup_line_chars = sum(len(ln) * c for ln, c in line_counts.items() if c > 1)
    toks = tokens(text)
    if toks:
        tok_counts: dict[str, int] = {}
        for t in toks:
            tok_counts[t] = tok_counts.get(t, 0) + 1
        top_token = min(tok_counts, key=lambda t: (-tok_counts[t], t))
        top_token_n = tok_counts[top_token]
    else:
        top_token, top_token_n = "", 0
    return {"n_lines": n_lines, "dup_lines": dup_lines,
            "line_chars": line_chars, "dup_line_chars": dup_line_chars,
            "top_token": top_token, "top_token_n": top_token_n}


def repetition_batch(batch, text_col: str = "extracted_text", key_col: str = "url"):
    """extraction rows → one integer-exact repetition-signal row each."""
    import pyarrow as pa

    feats = [repetition_features(t)
             for t in batch.column(text_col).to_pylist()]
    cols = {"n_lines": pa.int64(), "dup_lines": pa.int64(),
            "line_chars": pa.int64(), "dup_line_chars": pa.int64(),
            "top_token": pa.string(), "top_token_n": pa.int64()}
    out = batch.select([key_col])
    for name, typ in cols.items():
        out = out.append_column(name, pa.array([f[name] for f in feats], typ))
    return out
