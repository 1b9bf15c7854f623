"""DOM-heuristic boilerplate stripper unit tests."""

from dataclasses import replace

import pytest

from horizon_ocr_python_ray.config import HtmlConfig
from horizon_ocr_python_ray.functions.htmltext import extract_html

CFG = HtmlConfig()

LONG = "This paragraph is definitely long enough to be retained as main content."


def _extract(html: str):
    return extract_html(html.encode("utf-8"), CFG)


def test_basic_main_content():
    text, spans = _extract(
        f"<html><head><title>Ignore Me</title></head><body>"
        f"<h1>The Title</h1><p>{LONG}</p></body></html>"
    )
    assert text == f"The Title\n{LONG}"
    assert spans == [
        {"start": 0, "end": 9, "kind": "title"},
        {"start": 10, "end": 10 + len(LONG), "kind": "paragraph"},
    ]


def test_boilerplate_subtrees_dropped():
    text, _ = _extract(
        f"<body><nav><ul><li><a href='/'>Home page link text that is long</a></li></ul></nav>"
        f"<header><div>A header banner with quite a lot of text inside it.</div></header>"
        f"<p>{LONG}</p>"
        f"<aside><p>{LONG}</p></aside>"
        f"<footer><p>Copyright notice text that is long enough to retain.</p></footer></body>"
    )
    assert text == LONG


def test_link_density_drops_link_farms():
    farm = "".join(f"<li><a href='/{i}'>related article number {i} here</a></li>" for i in range(4))
    text, _ = _extract(f"<body><p>{LONG}</p><div><ul>{farm}</ul></div></body>")
    assert text == LONG


def test_inline_link_low_density_kept():
    html = f"<body><p>{LONG} See <a href='/x'>ref</a> for details.</p></body>"
    text, _ = _extract(html)
    assert text == f"{LONG} See ref for details."


def test_short_blocks_dropped_headings_kept():
    text, spans = _extract("<body><h2>Short Head</h2><p>tiny</p><p>" + LONG + "</p></body>")
    assert text == f"Short Head\n{LONG}"
    assert spans[0]["kind"] == "heading"


def test_entities_and_whitespace_normalized():
    text, _ = _extract(
        "<body><p>Fish &amp; chips    are a   classic dish enjoyed worldwide today.</p></body>"
    )
    assert text == "Fish & chips are a classic dish enjoyed worldwide today."


def test_nested_blocks_flush_in_document_order():
    text, _ = _extract(
        f"<body><div><p>{LONG}</p><p>Another paragraph with sufficient length to retain fully.</p></div></body>"
    )
    assert text == f"{LONG}\nAnother paragraph with sufficient length to retain fully."


def test_malformed_html_does_not_crash():
    text, spans = _extract("<body><p>Unclosed paragraph that is long enough to keep around here")
    assert "Unclosed paragraph" in text
    assert spans[0]["start"] == 0


#: Markup shapes at the fast scan's deferral boundary (and the stdlib
#: oracle's odd corners), each long enough to be retained when parsed
#: as intended.
ADVERSARIAL = [
    b"<html><body><p>plain text block with enough characters to be retained ok</p></body></html>",
    b"<p>comment <!-- <p>hidden</p> --> splits nothing and this text is long enough</p>",
    b'<p data-x="a>b">quoted gt inside attribute keeps the tag intact and text long enough</p>',
    b"<script>if (a < b && c > d) { document.write('<p>js</p>'); }</script><p>after script body comes real retained content text</p>",
    b"<style>p > a { color: red; }</style><p>styles with angle brackets are dropped but this stays</p>",
    b"<p>entity &amp; roundtrip &lt;kept&gt; in data with sufficient length for retention here</p>",
    b"<P>UPPERCASE tags normalize and this paragraph is long enough to be kept around</P>",
    b"<p>self closing <br/> void <img src='x'/> tags do not split this long enough block</p>",
    b"<p>stray < lone less-than is text and the block is long enough to be retained fine</p>",
    b"<div><ul><li><a href='/a'>nav link one</a></li><li><a href='/b'>nav link two</a></li></ul></div>",
    b"<textarea>raw <b>not bold</b> body</textarea><p>paragraph after textarea long enough to keep</p>",
    b"<!DOCTYPE html><?xml version='1.0'?><![CDATA[ <p>not real</p> ]]><p>document with prolog noise and a sufficiently long paragraph</p>",
    b"<p>unterminated tag at end of doc long enough to retain <a href=",
    b"",
    # first-char-dispatch tokenizer edges: truncated/degenerate
    # comment, CDATA, decl, PI, end-tag and non-ASCII shapes
    b"<p>truncated comment opener keeps this long paragraph intact<!-",
    b"<p>empty comment <!----> and overlap comment <!---> in one long paragraph here</p>",
    b"<p>bare decl <!> and unterminated decl at the very end of input <!doctype",
    b"<p>processing instruction <?php echo 1 ?> and unterminated one at end <?xml",
    b"<p>weird end tags </ > </3> </p and this text is long enough to be retained ok",
    b"<p>non-ascii tag opener <\xc3\xa9tag> is text not markup in this long paragraph</p>",
    b"<title>unterminated rawtext body swallows the rest <p>gone",
    b"<p>numeric opener <3 hearts and <input type=checkbox checked> in long text</p>",
    # tag names stdlib reads past the fast scan's name characters
    b"<div><p.x>a dotted tag name is not a paragraph for stdlib, long text</p.x>tail</div>",
    b'<div><h2"x">quoted name tail</h2><nav.a>not a nav element, so this long text stays</nav.a></div>',
    # a quote where stdlib reads an attribute name, not a quoted value
    b'<div><p a"b>c"d>a quote in an attribute name is not a quoted value, long text</p></div>',
    # trailing '/': unquoted value vs self-close; whitespace before '>'
    b"<div><h2 class=x/>unquoted slash opens a heading</h2><p class='y'/>then text long enough here</div>",
    b'<div><h3 >spaced heading</h3 ><p id="z" >and a spaced paragraph that is long enough</p ></div>',
    b"<NAV>mixed case nav text is boilerplate</Nav><Aside >aside too</ASIDE ><P>kept mixed case paragraph text, long enough</p>",
    b"<nav><header>nested drop tags <script>var a = '</nav>';</script> closed </nav> by the other name</header><p>long enough paragraph after both drops</p>",
]


def _assert_parity(html_bytes, cfg=CFG):
    fast = extract_html(html_bytes, cfg, engine="fast")
    ref = extract_html(html_bytes, cfg, engine="stdlib")
    assert fast == ref


class TestFastTokenizerParity:
    """The fast regex tokenizer must produce the same blocks as the
    stdlib ``html.parser`` front-end (the parity oracle)."""

    def test_corpus_parity(self, corpus_dir):
        for payload in _corpus_html(corpus_dir):
            _assert_parity(payload)

    def test_adversarial_snippets(self):
        for c in ADVERSARIAL:
            _assert_parity(c)


def _corpus_html(corpus_dir):
    import glob

    import pyarrow.parquet as pq

    for f in sorted(glob.glob(corpus_dir + "/pages/*.parquet")):
        t = pq.read_table(f, columns=["html"])
        for payload in t.column("html").to_pylist():
            if payload and payload.lstrip()[:1] == b"<":
                yield payload


#: Configs the fast scan must also match the oracle under: it reads its tag
#: sets from the config, so none of them may be baked into the scan.
OTHER_CONFIGS = {
    "script_style_kept": replace(CFG, drop_tags=tuple(
        t for t in CFG.drop_tags if t not in ("script", "style"))),
    "extra_block_tag": replace(CFG, block_tags=(*CFG.block_tags, "span", "a")),
    "other_headings": replace(CFG, heading_tags=("h2", "h3", "dt"), min_block_chars=1),
}


@pytest.mark.parametrize("name", sorted(OTHER_CONFIGS))
def test_parity_under_other_configs(name, corpus_dir):
    cfg = OTHER_CONFIGS[name]
    for payload in [*ADVERSARIAL, *_corpus_html(corpus_dir)]:
        _assert_parity(payload, cfg)
    # the config is in effect: some outputs differ from the default's
    assert any(extract_html(p, cfg) != extract_html(p, CFG)
               for p in [*ADVERSARIAL, *_corpus_html(corpus_dir)])


@pytest.mark.parametrize("engine", ["fast", "stdlib"])
def test_utf8_bom_is_not_text(engine):
    bom = b"\xef\xbb\xbf"
    # BOM, then text ahead of any block tag
    text, spans = extract_html(bom + b"<html>" + LONG.encode() + b"<p>Second paragraph, also long enough to keep.</p>",
                               CFG, engine)
    assert text == f"{LONG}\nSecond paragraph, also long enough to keep."
    assert spans[0] == {"start": 0, "end": len(LONG), "kind": "paragraph"}
    # BOM before a doctype
    text, _ = extract_html(bom + b"<!DOCTYPE html><html>" + LONG.encode(), CFG, engine)
    assert text == LONG
