"""Unit tests for the text-analysis kernels (oracle-matched semantics are
additionally verified by the driver's DuckDB cross-check; these cover the
edges the oracles can't reach)."""

from __future__ import annotations

import duckdb
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon_ocr_python_ray.functions.textstats import (
    bpe_token_count,
    flat_terms,
    lang_id,
    quality_features,
    rolling_fingerprint,
    terms,
    token_count,
)


class TestTokenCounting:
    def test_whitespace_tokens(self):
        assert token_count("a b  c\t d\n e") == 5
        assert token_count("") == 0
        assert token_count("   ") == 0
        assert token_count("one") == 1

    def test_bpe_ish(self):
        # letter runs, digit runs, punct singles
        assert bpe_token_count("ab12cd") == 3
        assert bpe_token_count("hello, world!") == 4
        assert bpe_token_count("") == 0
        assert bpe_token_count("...") == 3


class TestQuality:
    def test_empty(self):
        f = quality_features("")
        assert f["n_tokens"] == 0 and f["punct_ratio"] == 0.0
        assert f["stopword_ratio"] == 0.0 and f["mean_word_len"] == 0.0

    def test_ratios(self):
        f = quality_features("the cat sat.")
        assert f["n_tokens"] == 3
        assert f["stopword_ratio"] == 1 / 3
        assert f["punct_ratio"] == 1 / len("the cat sat.")


class TestLangId:
    def test_english(self):
        assert lang_id("the cat is on the mat and it is warm") == "en"

    def test_german(self):
        assert lang_id("der hund ist nicht mit der katze und das haus") == "de"

    def test_unknown_below_threshold(self):
        assert lang_id("zzz qqq www rrr ttt yyy uuu iii ooo ppp") == "unknown"
        assert lang_id("") == "unknown"

    def test_tie_break_deterministic(self):
        # 'la' is a marker for both fr and es; tie → language name ascending
        assert lang_id("la la la la") == lang_id("la la la la")


class TestFingerprint:
    def test_stable_and_sensitive(self):
        t = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
        assert rolling_fingerprint(t) == rolling_fingerprint(t)
        assert rolling_fingerprint(t) != rolling_fingerprint(t + " extra")
        assert rolling_fingerprint("") == 0

    def test_window_reorder_outside_window_changes(self):
        a = rolling_fingerprint("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10", window=3)
        b = rolling_fingerprint("w10 w9 w8 w7 w6 w5 w4 w3 w2 w1", window=3)
        assert a != b

    def test_short_doc_single_gram(self):
        assert rolling_fingerprint("one two", window=8) != 0


def test_repetition_features_exact_counts():
    from horizon_ocr_python_ray.functions.textstats import repetition_features

    f = repetition_features("a b\nc d\na b\nunique line\na b")
    assert f["n_lines"] == 5
    assert f["dup_lines"] == 3          # 'a b' occurs 3 times
    assert f["line_chars"] == 3 * 3 + 3 + 11
    assert f["dup_line_chars"] == 9
    assert f["top_token"] == "a"        # a/b tie at 3 → lexicographic min
    assert f["top_token_n"] == 3

    empty = repetition_features("")
    assert empty["n_lines"] == 1 and empty["line_chars"] == 0
    assert empty["top_token"] == "" and empty["top_token_n"] == 0


#: Drawn text: RE2 whitespace, characters other engines call whitespace
#: (``\v``, U+00A0, U+2028), sigmas and ``İ`` (full and simple case
#: mapping differ on them), letters and digits.
_TERM_ALPHABET = " \t\n\r\f\v\u00a0\u2028ΣσİaBz09"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(alphabet=_TERM_ALPHABET, max_size=24), max_size=8))
def test_term_rule_matches_duckdb(texts):
    """Both forms of the term rule equal the oracles' split:
    ``list_filter(regexp_split_to_array(lower(s), '\\s+'), x -> x <> '')``."""
    flat, offsets = flat_terms(pa.array(texts, pa.string()))
    got = flat.to_pylist()
    per_text = [got[offsets[i]:offsets[i + 1]] for i in range(len(texts))]
    con = duckdb.connect()
    try:
        rel = pa.table({"i": pa.array(range(len(texts)), pa.int64()),
                        "s": pa.array(texts, pa.string())})
        want = [r[0] for r in con.execute(
            "SELECT list_filter(regexp_split_to_array(lower(s), '\\s+'), "
            "x -> x <> '') FROM rel ORDER BY i").fetchall()]
    finally:
        con.close()
    assert per_text == want
    assert [terms(s) for s in texts] == want
