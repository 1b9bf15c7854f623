"""Property-based tests (hypothesis): the fast HTML tokenizer against the
stdlib oracle on adversarial markup, kernel invariants, and parser
round-trips. The reference has no property tests (SURVEY.md §5) — these
guard the custom tokenizer and the determinism contracts."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, reject, settings, strategies as st

from horizon_ocr_python_ray.config import DEFAULT_CONFIG
from horizon_ocr_python_ray.functions.extract_core import normalize_plain_text
from horizon_ocr_python_ray.functions.htmltext import extract_html
from horizon_ocr_python_ray.functions.layout import reading_order_rows
from horizon_ocr_python_ray.functions.sniff import content_hash, sniff_route
from horizon_ocr_python_ray.functions.validators import normalize_date, parse_amount

# -- HTML tokenizer parity fuzz ----------------------------------------------

_DROP_TAGS = DEFAULT_CONFIG.html.drop_tags
_tag_names = st.sampled_from(
    ["p", "div", "span", "a", "h1", "h2", "li", "ul", "em", "br", "table",
     "td", "unknowntag", *_DROP_TAGS]
)
# Text may hold a stray '<', '>' or '&' (a bare one, or one that starts
# something entity- or tag-like).
_text_chunk = st.text(
    alphabet=st.one_of(st.characters(max_codepoint=0x2FF), st.sampled_from("<>&;#/!?")),
    max_size=40,
)
# Bytes that may sit inside a tag: quotes, '=', '/', '>' and the
# characters that end (or do not end) a tag name for stdlib.
_tag_junk = st.text(alphabet=st.sampled_from(" \t\n\v=/'\"<>&.:_-ab1\x00"), max_size=12)
_decls = st.sampled_from([
    "<!DOCTYPE html>", "<!doctype>", "<!>", "<! bogus decl>", "<!foo bar>",
    "<?xml version='1.0'?>", "<?php echo 1 ?>", "<![CDATA[ <p>x</p> ]]>",
    "<![if !IE]>", "<![endif]>", "<!----->", "<!-- a --!>",
])
# Constructs cut off by the end of input (the payload ends with one).
_unterminated = st.sampled_from([
    "<", "<p", "<p class='x", '<a href="x>y', "</p", "</", "<!--", "<!-- x -",
    "<![CDATA[ x", "<!doctype", "<?xml", "<script>x < y", "<style>p{}",
    "&am", "&#x4", "<a href=", "<P/", "<!",
])


def _cased(draw, name):
    return draw(st.sampled_from([name, name.upper(), name.capitalize()]))


@st.composite
def html_fragment(draw):
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 11))
        tag = _cased(draw, draw(_tag_names))
        if kind == 0:
            parts.append(f"<{tag}>")
        elif kind == 1:
            parts.append(f"</{tag}" + draw(st.sampled_from(["", " ", " \n"])) + ">")
        elif kind == 2:
            parts.append(draw(_text_chunk))
        elif kind == 3:
            parts.append(f"<!-- {draw(_text_chunk)} -->")
        elif kind == 4:
            parts.append(f'<{tag} class="{draw(_text_chunk)}" data-x=\'{draw(_text_chunk)}\'>')
        elif kind == 5:
            parts.append(draw(st.sampled_from([
                f"<{tag}/>", f"<{tag} />", f"<{tag} href=x/>", f"<{tag} href='x'/>",
                f"<{tag} href=x/ >", f'<{tag} a="b" >',
                # a quote where stdlib reads an attribute name, not a value
                f'<{tag} a"b>c"d>', f"<{tag} a='''>", f"<{tag} x=a'b>c'>"])))
        elif kind == 6:
            parts.append(draw(st.sampled_from([
                "&amp; &lt;x&gt; &#65; &nbsp;", "&am<b>p;", "&a<!-- -->mp;",
                "&#x1;", "& &; &#; &#x;", "&lt"])))
        elif kind == 7:
            parts.append(draw(_decls))
        elif kind == 8:
            raw = _cased(draw, draw(st.sampled_from(["script", "style"])))
            body = f"<{raw}>{draw(_text_chunk)}</{raw}>"
            if draw(st.booleans()):  # inside a drop subtree
                body = f"<{tag}>{body}</{tag}>"
            parts.append(body)
        elif kind == 9:
            parts.append(f"<{draw(st.sampled_from(['', '/']))}{tag}{draw(_tag_junk)}>")
        elif kind == 10:
            # two drop subtrees, nested, each closed by the other's name
            outer, inner = (_cased(draw, draw(st.sampled_from(_DROP_TAGS))) for _ in range(2))
            t1, t2, t3 = (draw(_text_chunk) for _ in range(3))
            parts.append(f"<{outer}>{t1}<{inner}>{t2}</{outer}>{t3}</{inner}>")
        else:
            parts.append(f"<{tag}>{draw(_text_chunk)}")
    return "".join(parts)


# The default config, one that keeps every non-empty block (so a wrong
# block boundary always shows), and one with script/style not dropped
# (rawtext bodies become data), an extra block tag and changed headings.
_HTML_CONFIGS = [
    DEFAULT_CONFIG.html,
    replace(DEFAULT_CONFIG.html, min_block_chars=1),
    replace(DEFAULT_CONFIG.html, min_block_chars=1,
            drop_tags=tuple(t for t in _DROP_TAGS if t not in ("script", "style")),
            block_tags=(*DEFAULT_CONFIG.html.block_tags, "span"),
            heading_tags=("h2", "h3", "dt")),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(html_fragment(), st.one_of(st.just("</body></html>"), _unterminated),
       st.sampled_from(_HTML_CONFIGS))
def test_fast_tokenizer_matches_stdlib(fragment, tail, cfg):
    payload = f"<html><body>{fragment}{tail}".encode("utf-8")
    fast = extract_html(payload, cfg, engine="fast")
    try:
        ref = extract_html(payload, cfg, engine="stdlib")
    except AssertionError:
        # stdlib raises on a marked section with an unknown keyword (or
        # none); the fast path consumes it as a bogus comment instead.
        reject()
    assert fast == ref


# -- kernel invariants --------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 1000), st.floats(0, 1000),
              st.floats(1, 100), st.floats(1, 50)),
    max_size=30,
))
def test_reading_order_is_total_permutation(raw):
    bboxes = [[x, y, x + w, y + h] for x, y, w, h in raw]
    rows = reading_order_rows(bboxes)
    order = [i for row in rows for _x1, i in row]
    assert sorted(order) == list(range(len(bboxes)))
    assert all(x1 == bboxes[i][0] for row in rows for x1, i in row)
    assert rows == reading_order_rows(bboxes)  # deterministic


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_normalize_plain_text_idempotent(raw):
    text1, spans1 = normalize_plain_text(raw)
    text2, spans2 = normalize_plain_text(text1)
    assert text2 == text1
    assert spans2 == spans1
    # spans tile the text: each [start,end) slice has no newline
    for s in spans1:
        assert "\n" not in text1[s["start"]:s["end"]]


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64), st.text(max_size=64))
def test_sniff_total_and_hash_stable(payload, text):
    route = sniff_route(payload)
    assert route in ("html", "doc", "image", "text", "binary")
    assert content_hash(payload, text) == content_hash(payload, text)
    if not payload:
        assert route == "text"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000_000), st.integers(0, 99))
def test_parse_amount_roundtrip_us(dollars, cents):
    # float() of the decimal string, not dollars + cents/100 (1-ulp apart)
    value = float(f"{dollars}.{cents:02d}")
    us = f"${dollars:,}.{cents:02d}"
    assert parse_amount(us) == value
    eu = "€" + f"{dollars:,}.{cents:02d}".replace(",", "\x00").replace(".", ",").replace("\x00", ".")
    assert parse_amount(eu) == value


@settings(max_examples=50, deadline=None)
@given(st.integers(1990, 2035), st.integers(1, 12), st.integers(1, 28))
def test_normalize_date_formats(y, m, d):
    iso = f"{y:04d}-{m:02d}-{d:02d}"
    assert normalize_date(iso) == iso
    assert normalize_date(f"{d:02d}/{m:02d}/{y}") == iso
    assert normalize_date(f"{y}{m:02d}{d:02d}") == iso


# --- nested KIE explosion properties ---------------------------------------

_scalar = st.one_of(st.integers(-1000, 1000), st.booleans(),
                    st.text(alphabet="abcxyz $.", min_size=1, max_size=8))
_nested = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(alphabet="abcdef_", min_size=1, max_size=6),
                        children, max_size=3),
    ),
    max_leaves=12,
)


def _count_leaves(data):
    """Mirror of the reference explosion semantics: dict values recurse;
    list items recurse only when they are dicts (anything else —
    including sublists — is one stringified scalar row)."""
    n = 0
    for v in data.values():
        if isinstance(v, dict):
            n += _count_leaves(v)
        elif isinstance(v, list):
            for item in v:
                n += _count_leaves(item) if isinstance(item, dict) else 1
        else:
            n += 1
    return n


@given(st.dictionaries(st.text(alphabet="abcdef_", min_size=1, max_size=6),
                       _nested, min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_explode_fields_one_row_per_leaf(data):
    from horizon_ocr_python_ray.functions.nested import explode_fields

    rows = explode_fields(data)
    # one output row per scalar leaf; empty containers contribute nothing
    assert len(rows) == _count_leaves(data)
    # every produced name is non-empty and deterministic
    assert rows == explode_fields(data)
    for name, value in rows:
        assert name and isinstance(value, str)


# --- image kernel properties ------------------------------------------------

_img = st.integers(0, 255).flatmap(
    lambda fill: st.tuples(st.integers(8, 40), st.integers(8, 40)).map(
        lambda hw: (hw[0], hw[1], fill))
)


@given(_img, st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_image_kernels_preserve_domain(shape_fill, seed):
    import numpy as np

    from horizon_ocr_python_ray.functions.imageproc import (
        binarize_adaptive,
        clahe,
        median_filter3,
        rotate_nearest,
        unsharp_mask,
    )

    h, w, fill = shape_fill
    rng = np.random.RandomState(seed % 2**32)
    img = np.clip(fill + rng.randint(-40, 41, size=(h, w)), 0, 255).astype(np.uint8)
    for out in (median_filter3(img), clahe(img), unsharp_mask(img)):
        assert out.shape == img.shape
        assert out.dtype == np.uint8
    binv = binarize_adaptive(img)
    assert set(np.unique(binv)) <= {0, 255}
    rot = rotate_nearest(img, float(seed % 30) - 15.0)
    assert rot.shape == img.shape


@given(st.lists(st.text(alphabet="abc |", min_size=0, max_size=6),
                min_size=6, max_size=12))
@settings(max_examples=40, deadline=None)
def test_table_markdown_row_counts(cells):
    from horizon_ocr_python_ray.functions.tables import table_to_markdown

    n_cols = 3
    n_rows = len(cells) // n_cols
    table = {
        "table_idx": 0, "n_rows": n_rows, "n_cols": n_cols, "bbox": [0, 0, 1, 1],
        "cells": [{"row": i // n_cols, "col": i % n_cols, "text": t,
                   "bbox": [], "confidence": 1.0}
                  for i, t in enumerate(cells[: n_rows * n_cols])],
    }
    md = table_to_markdown(table)
    lines = md.splitlines()
    assert len(lines) == n_rows + 1  # header + separator + body
    # escaping keeps the column count stable
    assert all(ln.count("|") - ln.count("\\|") == n_cols + 1 for ln in lines)


# -- outlink extraction round-trip -------------------------------------------

_anchor_word = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=10,
)
_host_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                      min_size=1, max_size=8)


@st.composite
def planted_links(draw):
    links = []
    for _ in range(draw(st.integers(0, 6))):
        host = ".".join(draw(st.lists(_host_label, min_size=2, max_size=3)))
        path = draw(_host_label)
        words = draw(st.lists(_anchor_word, min_size=1, max_size=3))
        links.append((f"https://{host}/{path}", " ".join(words)))
    return links


@given(planted_links(), _text_chunk)
@settings(max_examples=60, deadline=None)
def test_outlink_extraction_roundtrip(links, filler):
    """Planted absolute anchors come back exactly, in order, regardless
    of surrounding markup; relative links never do."""
    from horizon_ocr_python_ray.functions.links import extract_outlinks

    body = [f"<p>{filler}</p>", '<a href="/rel">relative</a>']
    for href, anchor in links:
        body.append(f'<li><a href="{href}">{anchor}</a></li>')
    html = ("<html><body>" + "".join(body) + "</body></html>").encode()
    assert extract_outlinks(html) == links


# -- PageRank invariants ------------------------------------------------------

@st.composite
def random_edges(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 30))
    edges = {(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
             for _ in range(m)}
    edges = [(u, v) for u, v in edges if u != v]
    return n, edges


@given(random_edges(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_pagerank_mass_bound_and_determinism(ne, iters):
    """Floor-divided damping only LOSES mass: total rank never exceeds
    base·n + d·(total previous); ranks are deterministic and ≥ base."""
    import numpy as np

    from horizon_ocr_python_ray.stages.linkgraph import (
        DAMP_DEN, DAMP_NUM, PAGERANK, RANK_BASE, RANK_SCALE, propagate_arrays)

    def _pagerank_vec(src, dst, n, iters):
        return propagate_arrays(src, dst, n, PAGERANK, iters)

    n, edges = ne
    if not edges:
        return
    src = np.array([u for u, _ in edges])
    dst = np.array([v for _, v in edges])
    r1 = _pagerank_vec(src, dst, n, iters)
    r2 = _pagerank_vec(src, dst, n, iters)
    assert (r1 == r2).all()
    assert (r1 >= RANK_BASE).all()
    # conservation bound: one iteration from uniform loses mass to
    # floor division and dangling nodes, never gains
    total_prev = n * RANK_SCALE
    assert _pagerank_vec(src, dst, n, 1).sum() <= (
        n * RANK_BASE + (DAMP_NUM * total_prev) // DAMP_DEN)
