"""Fast-path main-content extraction from HTML bytes.

A trafilatura/readability-style boilerplate stripper (no lxml in the
sandbox): tokenize the byte stream, drop structural boilerplate subtrees
(nav/header/footer/aside/...), split the remainder into text blocks at
block-tag boundaries, and retain blocks by text length and link density.
Deterministic, stateless, pure Python — it runs as a ``map_batches`` body.

One scan, one deferral rule. :func:`_parse_fast` walks the text with one
compiled token (``_TOKEN_RE``): a text run followed by a strict start tag
or a strict end tag (stdlib ``endtagfind``). The block state machine's
transitions run inline on that token, so the common path makes no
per-token call, and text inside a dropped subtree is neither unescaped
nor kept. Every other construct stops the scan at its ``<``: comments,
``<!``/``<?``/CDATA/doctype, script/style (rawtext) bodies, a start tag
whose attributes hold a ``>`` or end in ``/`` or whitespace, a tag name
that stdlib would read differently, a stray ``<``, and anything
unterminated. :func:`_parse_other` runs the literal stdlib
``HTMLParser.goahead``/``parse_*`` branch for it on the shared
:class:`_BlockSink`, and the scan resumes after it.

:class:`_BlockParser`, the stdlib ``html.parser`` front-end on the same
sink, is the parity oracle: ``tests/test_htmltext.py`` and the
``tests/test_property.py`` fuzz drive both and assert identical output.

The output is the extracted main text (blocks joined with ``"\\n"``,
mirroring the reference's line join ``pipeline/orchestrator.py:780``) plus
half-open ``[start, end)`` span offsets per retained block — the span
machinery is modeled on the reference's character-offset range join
(``/root/reference/docvision/azure/doc_intelligence.py:430-462``).
"""

from __future__ import annotations

import re
from html import unescape
# stdlib html.parser's own tolerant scanners — importing them (rather than
# re-typing the patterns) keeps the fast tokenizer byte-for-byte consistent
# with the stdlib oracle on malformed markup.
from html.parser import (
    HTMLParser,
    attrfind_tolerant as _ATTRFIND_TOLERANT,
    endtagfind as _ENDTAG_FIND,
    locatestarttagend_tolerant as _TOLERANT_START,
    tagfind_tolerant as _TAGFIND_TOLERANT,
)

from ..config import TEXT_JOIN_SEPARATOR, HtmlConfig
from ..state.worker import worker_state
from .sniff import content_start

#: stdlib ``HTMLParser.CDATA_CONTENT_ELEMENTS`` — elements whose raw bodies
#: may contain ``<`` without opening a tag. Parity note: HTML5 also treats
#: title/textarea as raw/RCDATA, but the stdlib oracle does not, so neither
#: do we.
_RAWTEXT_TAGS = frozenset(("script", "style"))


def _tag_sets(cfg: HtmlConfig) -> tuple[frozenset, frozenset, frozenset]:
    return frozenset(cfg.drop_tags), frozenset(cfg.block_tags), frozenset(cfg.heading_tags)


class _BlockSink:
    """Block state machine shared by both front-ends.

    Text inside any :attr:`HtmlConfig.drop_tags` subtree is discarded
    entirely. Characters emitted while inside an ``<a>`` count toward the
    block's link-char tally (link-density boilerplate signal). Each closed
    block is kept or dropped at once; ``kept`` holds ``(text, kind)``.
    :func:`_parse_fast` repeats :meth:`start`/:meth:`end`/:meth:`data`
    inline, so a change to one must be made to both.
    """

    def __init__(self, cfg: HtmlConfig) -> None:
        self.cfg = cfg
        self.drop_set, self.block_set, self.heading_set = worker_state(
            "htmltext_tag_sets", cfg, lambda: _tag_sets(cfg))
        self.drop_depth = 0
        self.a_depth = 0
        self.kind = "block"
        self.parts: list[str] = []
        self.link_parts: list[str] = []  # subset of parts emitted inside <a>
        self.kept: list[tuple[str, str]] = []

    def flush(self, tag: str) -> None:
        """Close the open block (opened by ``tag``): headings are kept,
        other blocks by length and link density."""
        parts, link_parts = self.parts, self.link_parts
        # " ".join(x.split()) ≡ regex \s+ → " " then strip, at C speed.
        text = " ".join("".join(parts).split())
        parts.clear()
        if text:
            if tag == "h1":
                self.kept.append((text, "title"))
            elif tag in self.heading_set:
                self.kept.append((text, "heading"))
            elif len(text) >= self.cfg.min_block_chars:
                link_chars = sum(len(" ".join(c.split())) for c in link_parts)
                if link_chars / len(text) <= self.cfg.max_link_density:
                    self.kept.append((text, "paragraph"))
        link_parts.clear()

    def start(self, tag: str) -> None:
        if tag in self.drop_set:
            self.drop_depth += 1
        elif not self.drop_depth:
            if tag == "a":
                self.a_depth += 1
            if tag in self.block_set:
                if self.parts:
                    self.flush(self.kind)
                self.kind = tag

    def end(self, tag: str) -> None:
        if tag in self.drop_set:
            if self.drop_depth:
                self.drop_depth -= 1
        elif not self.drop_depth:
            if tag == "a" and self.a_depth:
                self.a_depth -= 1
            if tag in self.block_set:
                if self.parts:
                    self.flush(self.kind)
                self.kind = "block"

    def data(self, text: str) -> None:
        if self.drop_depth or not text:
            return
        self.parts.append(text)
        if self.a_depth:
            self.link_parts.append(text)

    def close(self) -> None:
        if self.parts:
            self.flush(self.kind)


class _BlockParser(HTMLParser):
    """stdlib front-end — the parity oracle for the fast scan."""

    def __init__(self, sink: _BlockSink) -> None:
        super().__init__(convert_charrefs=True)
        self.sink = sink

    def handle_starttag(self, tag: str, attrs) -> None:
        self.sink.start(tag)

    def handle_startendtag(self, tag: str, attrs) -> None:
        # <br/> and friends: no block boundary, no drop-depth change.
        pass

    def handle_endtag(self, tag: str) -> None:
        self.sink.end(tag)

    def handle_data(self, data: str) -> None:
        self.sink.data(data)

    def close(self) -> None:
        super().close()
        self.sink.close()


# ---------------------------------------------------------------------------
# Fast scan
# ---------------------------------------------------------------------------

#: The scan's one token: a (possibly empty) text run (group 1), then a
#: strict end tag (group 2, stdlib ``endtagfind``) or a strict start tag
#: (group 3). The start tag takes only shapes stdlib reads the same way:
#: a name that ends where stdlib's ``tagfind_tolerant`` name ends, no
#: ``>`` inside quotes, and no ``/`` or whitespace before the closing
#: ``>`` (stdlib parses ``<a href=x/>`` as a start tag with value "x/",
#: but ``<a href='x'/>`` as a self-close). Script/style open rawtext
#: bodies, so they never match here. The attribute run is possessive, so
#: a failed match does not backtrack through it.
_TOKEN_RE = re.compile(
    r"([^<]*)<(?:" + _ENDTAG_FIND.pattern.removeprefix("<") + "|"
    r"(?!(?i:script|style)[\t\n\r\f />])([a-zA-Z][a-zA-Z0-9:_-]*)(?=[\t\n\r\f />])"
    r"(?:[^>\"']++|\"[^\">]*+\"|'[^'>]*+')*+(?<![/\s])>)"
)

_COMMENTCLOSE = re.compile(r"--\s*>")          # _markupbase._commentclose
_MARKEDCLOSE = re.compile(r"]\s*]\s*>")        # _markupbase._markedsectionclose
_MSMARKEDCLOSE = re.compile(r"]\s*>")          # _markupbase._msmarkedsectionclose
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")  # _markupbase._declname

# set_cdata_mode's close scanner: '</' + ws + name + ws + '>' only; an
# end tag with attributes does NOT leave cdata mode (stdlib parity).
_RAW_END_RES = {t: re.compile(rf"</\s*{t}\s*>", re.IGNORECASE) for t in _RAWTEXT_TAGS}


def _whole_start_tag_end(text: str, i: int) -> int:
    """Mirror of ``HTMLParser.check_for_whole_start_tag`` (-1 = incomplete)."""
    m = _TOLERANT_START.match(text, i)
    j = m.end()
    nxt = text[j:j + 1]
    if nxt == ">":
        return j + 1
    if nxt == "/":
        return j + 2 if text.startswith("/>", j) else -1
    if nxt == "":
        return -1  # end of input
    if nxt in "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        return -1  # end of input in or before attribute value
    return j if j > i else i + 1  # bogus input: emit prefix as data


def _recover(text: str, lt: int, sink: _BlockSink) -> int:
    # goahead's end-of-input recovery for an unterminated construct: emit
    # raw bytes through the next '>' (or up to the next '<') as literal
    # data, charref-converted like any other data run.
    k = text.find(">", lt + 1)
    if k >= 0:
        k += 1
    else:
        k = text.find("<", lt + 1)
        if k < 0:
            k = lt + 1
    chunk = text[lt:k]
    sink.data(unescape(chunk) if "&" in chunk else chunk)
    return k


def _parse_other(text: str, lt: int, sink: _BlockSink) -> int:
    """Run the stdlib ``goahead`` branch for the construct at ``text[lt]``
    (a ``<`` the scan did not take) on ``sink``; return the position after
    it. Each branch mirrors the matching ``HTMLParser.parse_*`` exactly."""
    find = text.find
    nxt = text[lt + 1:lt + 2]
    if nxt and nxt.isascii() and nxt.isalpha():
        # ---- start tag (parse_starttag) ----
        endpos = _whole_start_tag_end(text, lt)
        if endpos < 0:
            return _recover(text, lt, sink)
        nm = _TAGFIND_TOLERANT.match(text, lt + 1)
        k = nm.end()
        while k < endpos:
            am = _ATTRFIND_TOLERANT.match(text, k)
            if am is None:
                break
            k = am.end()
        endbit = text[k:endpos].strip()
        if endbit == "/>":
            return endpos  # parity with HTMLParser.handle_startendtag: ignored
        if endbit != ">":
            sink.data(text[lt:endpos])  # bogus start tag → raw data
            return endpos
        tag = nm[1].lower()
        sink.start(tag)
        if tag not in _RAWTEXT_TAGS:
            return endpos
        # cdata mode: raw body up to a bare close tag; charrefs do NOT
        # convert. An unterminated body is DISCARDED with no end event
        # (stdlib goahead breaks without the final flush when cdata_elem
        # is set).
        em = _RAW_END_RES[tag].search(text, endpos)
        if em is None:
            return len(text)
        sink.data(text[endpos:em.start()])
        sink.end(tag)
        return em.end()
    if nxt == "/":
        # ---- end tag (parse_endtag); the scan took every endtagfind match ----
        gt = find(">", lt + 1)
        if gt < 0:
            return _recover(text, lt, sink)
        nm = _TAGFIND_TOLERANT.match(text, lt + 2)
        # no name: '</>' is skipped, anything else is a bogus comment —
        # both consume to the first '>' with no event.
        if nm is not None:
            sink.end(nm[1].lower())
        return gt + 1
    if nxt == "!":
        if text.startswith("!--", lt + 1):
            # ---- comment (parse_comment): closes on --\s*> ----
            cm = _COMMENTCLOSE.search(text, lt + 4)
            return _recover(text, lt, sink) if cm is None else cm.end()
        if text.startswith("![", lt + 1):
            # ---- marked section (parse_marked_section) ----
            nm = _DECLNAME.match(text, lt + 3)
            if nm is not None and nm.end() < len(text):
                name = nm.group().strip().lower()
                if name in ("temp", "cdata", "ignore", "include", "rcdata"):
                    cm = _MARKEDCLOSE.search(text, lt + 3)
                elif name in ("if", "else", "endif"):
                    cm = _MSMARKEDCLOSE.search(text, lt + 3)
                else:
                    # stdlib raises AssertionError here; the production
                    # path must not — consume as a bogus comment.
                    gt = find(">", lt + 2)
                    return _recover(text, lt, sink) if gt < 0 else gt + 1
                return _recover(text, lt, sink) if cm is None else cm.end()
            if nm is not None:
                return _recover(text, lt, sink)  # name runs to end of buffer
            # no name token: stdlib raises; consume as bogus comment
        elif text[lt:lt + 9].lower() == "<!doctype":
            gt = find(">", lt + 9)
            return _recover(text, lt, sink) if gt < 0 else gt + 1
        # ---- bogus comment (parse_bogus_comment) ----
        gt = find(">", lt + 2)
        return _recover(text, lt, sink) if gt < 0 else gt + 1
    if nxt == "?":
        # ---- processing instruction (parse_pi): first '>' ends it ----
        gt = find(">", lt + 2)
        return _recover(text, lt, sink) if gt < 0 else gt + 1
    # stray '<' (incl. '<' + non-ASCII/digit/EOF) — literal data
    sink.data("<")
    return lt + 1


def _parse_fast(text: str, sink: _BlockSink) -> None:
    """Feed ``text`` to ``sink`` and close its last block."""
    drop_set, block_set = sink.drop_set, sink.block_set
    parts, link_parts, flush = sink.parts, sink.link_parts, sink.flush
    n = len(text)
    pos = drop = a_depth = 0
    kind = "block"
    while True:
        m = None
        for m in iter(_TOKEN_RE.scanner(text, pos).match, None):
            chunk, end_tag, tag = m.groups()
            if chunk and not drop:
                if "&" in chunk:
                    chunk = unescape(chunk)
                parts.append(chunk)
                if a_depth:
                    link_parts.append(chunk)
            if end_tag is None:  # start tag
                tag = tag.lower()
                if tag in drop_set:
                    drop += 1
                elif not drop:
                    if tag == "a":
                        a_depth += 1
                    if tag in block_set:
                        if parts:
                            flush(kind)
                        kind = tag
            else:  # end tag
                tag = end_tag.lower()
                if tag in drop_set:
                    if drop:
                        drop -= 1
                elif not drop:
                    if tag == "a" and a_depth:
                        a_depth -= 1
                    if tag in block_set:
                        if parts:
                            flush(kind)
                        kind = "block"
        if m is not None:
            pos = m.end()
        if pos >= n:
            break
        # The scan stopped: a text run, then (unless at end of input) a
        # construct it defers. Both go through the sink, so hand it the
        # state and take it back after.
        sink.drop_depth, sink.a_depth, sink.kind = drop, a_depth, kind
        lt = text.find("<", pos)
        if lt < 0:
            lt = n
        chunk = text[pos:lt]
        sink.data(unescape(chunk) if "&" in chunk else chunk)
        pos = _parse_other(text, lt, sink) if lt < n else n
        drop, a_depth, kind = sink.drop_depth, sink.a_depth, sink.kind
    if parts:
        flush(kind)


def extract_blocks(html_bytes: bytes, cfg: HtmlConfig, engine: str = "fast") -> list[tuple[str, str]]:
    """Parse and return the retained main-content blocks, ``(text, kind)``
    in document order; kind is title | heading | paragraph."""
    # Leading whitespace and BOMs are not text; sniff_route skips the same.
    text = html_bytes[content_start(html_bytes):].decode("utf-8", errors="replace")
    sink = _BlockSink(cfg)
    if engine == "fast":
        _parse_fast(text, sink)
    else:  # stdlib oracle
        parser = _BlockParser(sink)
        parser.feed(text)
        parser.close()
    return sink.kept


def join_blocks(blocks: list[tuple[str, str]]) -> tuple[str, list[dict]]:
    """``(text, kind)`` blocks → (their texts joined by the canonical
    separator, spans). The one text+spans joiner of every route.

    spans: ``[{"start": int, "end": int, "kind": str}, ...]`` — half-open
    offsets into the joined text, one per block.
    """
    step = len(TEXT_JOIN_SEPARATOR)
    spans: list[dict] = []
    pos = 0
    for text, kind in blocks:
        end = pos + len(text)
        spans.append({"start": pos, "end": end, "kind": kind})
        pos = end + step
    return TEXT_JOIN_SEPARATOR.join([text for text, _ in blocks]), spans


def extract_html(html_bytes: bytes, cfg: HtmlConfig, engine: str = "fast") -> tuple[str, list[dict]]:
    """HTML bytes → (extracted_text, spans), one span per retained block."""
    return join_blocks(extract_blocks(html_bytes, cfg, engine))
