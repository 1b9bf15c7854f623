"""Deterministic synthetic Common-Crawl-style corpus + golden fixtures.

Produces the driver-hinted input table ``(url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string)`` (BASELINE.json input_hint) and a
paired ``golden`` table ``(url, extracted_text, spans, route, content_hash)``
— the byte-identity oracle (FIXTURES.md §1–2). Mirrors the reference's
fully-synthetic fixture strategy (``/root/reference/tests/conftest.py:23-103``)
lifted to Parquet/Arrow.

Determinism: each row's RNG is ``random.Random(f"{seed}:{i}")`` (CPython
seeds str via SHA-512 — stable across processes and PYTHONHASHSEED).
Golden text is computed from construction knowledge — the generator lays
lines on a known grid and knows which paragraphs are main content — NOT by
running the extractor, so the byte-identity test is independent.

Route mix (FIXTURES.md): html ~70%, doc ~15%, image ~5%, empty(text) ~8%,
dup ~2% (byte-identical ``html`` under a different url). Hosts are drawn
from a Zipf-skewed pool so a few heavy hosts exercise skew handling.
"""

from __future__ import annotations

import hashlib
import os
import random
from bisect import bisect_left

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import (
    REOCR_ACCEPT_MARGIN,
    REOCR_CONFIDENCE_THRESHOLD,
    TEXT_JOIN_SEPARATOR,
)
from ..functions.docformat import (
    DOC_MAGIC,
    encode_doc_payload,
    encode_image_payload,
    make_line,
)
from ..schema import PAGES_SCHEMA

_WORDS = (
    "data engine stream batch arrow block shard record table column field "
    "vector index query layout page line text token parse merge fuse route "
    "cache hash split model actor worker cluster node spill shuffle window "
    "sample filter reduce extract detect score rank span offset anchor host "
    "crawl corpus archive snapshot content marker signal margin budget tier "
    "region nation order part supply event label metric lineage manifest"
).split()

_LANGS = ("en", "de", "fr", "es", "unknown")

_N_HOSTS = 50

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)

#: Golden table fixtures: the grids the generator laid out, row-major
#: cell texts — the oracle for the table-structure detector.
TABLE_FIXTURE_TYPE = pa.list_(
    pa.struct([
        ("page", pa.int64()), ("table_idx", pa.int64()),
        ("n_rows", pa.int64()), ("n_cols", pa.int64()),
        ("cell_texts", pa.list_(pa.string())),
    ])
)

#: Golden fused-field fixtures: the fields the generator PLANTED
#: (flat ``Key: Value`` header lines + nested JSON / <s_k> islands
#: exploded to dotted names), with the candidate count and winning
#: confidence the planting rules imply — the oracle for the KIE
#: fuse pipeline.
FIELD_FIXTURE_TYPE = pa.list_(
    pa.struct([
        ("name", pa.string()), ("value", pa.string()),
        ("n_candidates", pa.int64()), ("confidence", pa.float64()),
    ])
)

#: Golden per-line style fixtures: construction-side arithmetic of the
#: published style rules (native spans carry payload truth at conf 1.0;
#: estimated styles use size = bbox-height × 0.75 clamped 6–72, the
#: ALL-CAPS / heading-role bold rule and the additive confidence ladder
#: capped at 0.8) — the oracle for the style-extraction pipeline.
STYLE_FIXTURE_TYPE = pa.list_(
    pa.struct([
        ("page", pa.int64()), ("line_idx", pa.int64()),
        ("kind", pa.string()), ("text_len", pa.int64()),
        ("font_name", pa.string()), ("font_size", pa.float64()),
        ("bold", pa.bool_()), ("italic", pa.bool_()),
        ("style_source", pa.string()), ("style_confidence", pa.float64()),
    ])
)

#: Golden planted outlinks (v14): the absolute cross-host anchors the
#: generator writes into each html page's trailing "related" nav block
#: (boilerplate — never part of extracted text), in document order —
#: the oracle for the link-extraction / host-graph / PageRank ops.
LINK_FIXTURE_TYPE = pa.list_(
    pa.struct([("href", pa.string()), ("anchor", pa.string())])
)

GOLDEN_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("extracted_text", pa.string()),
        ("spans", SPAN_TYPE),
        ("route", pa.string()),
        ("content_hash", pa.string()),
        ("tables", TABLE_FIXTURE_TYPE),
        ("fields", FIELD_FIXTURE_TYPE),
        ("styles", STYLE_FIXTURE_TYPE),
        ("has_error", pa.bool_()),
        ("outlinks", LINK_FIXTURE_TYPE),
    ]
)

#: Tracking-parameter / fragment URL variants attached to duplicate rows
#: (re-crawls of their source url) — the corpus-side counterpart of the
#: URL-canonicalization operator. One variant carries a per-row session
#: id, so canonical grouping cannot be faked by exact url match.
#: Every variant embeds the row index in a STRIPPED component (tracking
#: value or fragment), so raw urls stay corpus-unique while canonical
#: urls collapse onto the source — url joins stay 1:1 and the grouping
#: is only recoverable through canonicalization.
_TRACKING_SUFFIXES = (
    "?utm_source=feed&utm_content=c{i}",
    "?ref=r{i}",
    "#s{i}",
    "?utm_campaign=x{i}#top",
    "?sessionid=s{i:06d}",
)

#: Bumped whenever generated bytes change (cache key of /tmp corpora).
CORPUS_FORMAT_VERSION = 14

_PAGE_W, _PAGE_H = 1000.0, 1400.0


def _role_of(bbox: tuple[float, float, float, float]) -> str:
    """Construction-side layout-role arithmetic — the same published
    thresholds the engine's ``functions/regions.py`` applies (duplicated
    here, like the re-OCR accept-margin rule, so golden stays independent
    of engine code)."""
    x1, y1, x2, y2 = bbox
    w, h = x2 - x1, y2 - y1
    rel_y, rel_h = y1 / _PAGE_H, h / _PAGE_H
    aspect = w / h if h > 0 else 0.0
    if rel_y < 0.15:
        return "header"
    if rel_y + rel_h > 0.90 and (x1 < _PAGE_W * 0.2 or x1 > _PAGE_W * 0.8):
        return "page_number"
    if rel_y + rel_h > 0.85:
        return "footer"
    if aspect > 2.0 and rel_h > 0.1:
        return "table"
    if rel_y < 0.3 and aspect > 3.0 and rel_h < 0.1:
        return "title"
    return "text"

_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds


def _host_cdf() -> list[float]:
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(_N_HOSTS)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


_HOST_CDF = _host_cdf()


def _pick_host(rng: random.Random) -> str:
    idx = bisect_left(_HOST_CDF, rng.random())
    return f"host{idx:03d}.example.org"


#: Construction-side stopword lists per language label — the same
#: published lists the engine's ``functions/textstats.py`` scores with
#: (duplicated so golden stays independent of engine code). Sentences of
#: a row are seeded with its label's stopwords at ~35% density, so the
#: computed language id recovers the label for labeled rows and stays
#: ``unknown`` for unlabeled ones.
_STOPWORDS_BY_LANG = {
    "en": ("the", "a", "of", "and", "to", "is", "in", "it", "that"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "mit"),
    "fr": ("le", "la", "les", "et", "est", "une", "dans", "pas"),
    "es": ("el", "la", "los", "y", "es", "una", "en", "por", "que"),
}


def _lang_of(i: int) -> str:
    return _LANGS[i % len(_LANGS)]


def _sentence(rng: random.Random, lo: int = 6, hi: int = 14,
              lang: str = "unknown") -> str:
    n = rng.randint(lo, hi)
    stop = _STOPWORDS_BY_LANG.get(lang)
    ws = []
    for _ in range(n):
        if stop is not None and rng.random() < 0.35:
            ws.append(stop[rng.randrange(len(stop))])
        else:
            ws.append(rng.choice(_WORDS))
    ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


def _paragraph(rng: random.Random, lang: str = "unknown") -> str:
    # Main-content paragraphs stay comfortably above HTML_MIN_BLOCK_CHARS
    # so retention is unambiguous under the extraction heuristics.
    out = " ".join(_sentence(rng, lang=lang) for _ in range(rng.randint(1, 3)))
    while len(out) < 60:
        out += " " + _sentence(rng, lang=lang)
    return out


def _title(rng: random.Random) -> str:
    return " ".join(w.capitalize() for w in (rng.choice(_WORDS) for _ in range(rng.randint(3, 6))))


def _sha256(payload: bytes | None, text: str | None) -> str:
    h = hashlib.sha256()
    if payload:
        h.update(b"B:")
        h.update(payload)
    else:
        h.update(b"T:")
        h.update((text or "").encode("utf-8"))
    return h.hexdigest()


def _spans_from_parts(parts: list[tuple[str, str]]) -> tuple[str, list[dict]]:
    """parts: [(text, kind)] → (joined text, span dicts)."""
    sep = TEXT_JOIN_SEPARATOR
    out, spans, pos = [], [], 0
    for text, kind in parts:
        start = pos
        out.append(text)
        pos += len(text)
        spans.append({"start": start, "end": pos, "kind": kind})
        pos += len(sep)
    return sep.join(out), spans


# ---------------------------------------------------------------------------
# Route payload builders — each returns (html_bytes|None, text_col, golden_parts)
# ---------------------------------------------------------------------------

def _build_html(
    rng: random.Random, i: int, lang: str = "unknown"
) -> tuple[bytes, str, list[tuple[str, str]], list[tuple[str, str]]]:
    title = _title(rng)
    golden: list[tuple[str, str]] = [(title, "title")]
    nav_links = "".join(
        f'<li><a href="/s/{k}">{rng.choice(_WORDS)} {rng.choice(_WORDS)}</a></li>'
        for k in range(rng.randint(3, 7))
    )
    body: list[str] = [
        "<nav><ul>", nav_links, "</ul></nav>",
        f"<header><div>{_sentence(rng, 3, 6, lang=lang)}</div></header>",
        f"<h1>{title}</h1>",
    ]
    n_sections = rng.randint(1, 3)
    for _ in range(n_sections):
        if rng.random() < 0.5:
            head = _title(rng)
            body.append(f"<h2>{head}</h2>")
            golden.append((head, "heading"))
        for _ in range(rng.randint(1, 3)):
            para = _paragraph(rng, lang=lang)
            html_para = para
            if rng.random() < 0.3:
                # entity round-trip: golden carries the decoded form
                para_amp = para.replace(".", " & more.", 1)
                html_para = para_amp.replace("&", "&amp;")
                para = para_amp
            if rng.random() < 0.3:
                # inline link inside main content — low link density, kept
                w = rng.choice(_WORDS)
                html_para += f' See <a href="/ref">{w}</a> notes here today.'
                para += f" See {w} notes here today."
            if rng.random() < 0.25:
                # planted PII (email / US phone / IPv4) for the redaction
                # op — plain chars only, so the entity round-trip and the
                # extractor leave it byte-intact in golden text
                pii = (
                    f"Contact {rng.choice(_WORDS)}{i}@{rng.choice(_WORDS)}-mail.example"
                    f" or call 555-{rng.randint(200, 899)}-{rng.randint(1000, 9999)}"
                    f" from {rng.randint(10, 240)}.{rng.randint(0, 249)}"
                    f".{rng.randint(0, 249)}.{rng.randint(1, 249)} today."
                )
                html_para += " " + pii
                para += " " + pii
            body.append(f"<p>{html_para}</p>")
            golden.append((para, "paragraph"))
    if rng.random() < 0.5:
        body.append(f"<p>{_sentence(rng, 2, 4, lang=lang)[:30]}</p>")  # short teaser → dropped
    if rng.random() < 0.6:
        items = "".join(
            f'<li><a href="/r/{k}">{rng.choice(_WORDS)} {rng.choice(_WORDS)}</a></li>'
            for k in range(rng.randint(3, 6))
        )
        body.append(f"<div><ul>{items}</ul></div>")  # link farm → dropped
    body.append(
        f'<aside><p>{_paragraph(rng, lang=lang)}</p></aside>'
        f"<footer><p>Copyright {2020 + i % 6} host. All rights reserved notice.</p></footer>"
    )
    # v14: planted cross-host outlinks in a trailing "related" nav block.
    # Destination hosts reuse the Zipf-skewed host pool (heavy hosts get
    # most in-links — realistic web-graph skew); anchors are two plain
    # words. The block lives inside <nav> (a drop tag), so extracted
    # text and spans are untouched — only the link-extraction ops see it.
    # Drawn AFTER every other draw so pre-v14 content is byte-stable.
    outlinks: list[tuple[str, str]] = []
    for _ in range(rng.randint(2, 5)):
        dst = _pick_host(rng)
        anchor = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
        href = f"https://{dst}/p/{rng.randint(0, 99_999_999):08d}"
        outlinks.append((href, anchor))
    related = "".join(
        f'<li><a href="{h}">{a}</a></li>' for h, a in outlinks
    )
    body.append(f'<nav class="related"><ul>{related}</ul></nav>')
    html = (
        "<!DOCTYPE html><html><head><title>" + title + "</title></head><body>"
        + "".join(body)
        + "</body></html>"
    )
    return html.encode("utf-8"), "", golden, outlinks


def _grid_lines(
    rng: random.Random, i: int, page_no: int, kv_header: bool,
    clean_only: bool = False, lang: str = "unknown",
) -> tuple[list[dict], list[tuple[str, tuple, str]], list[dict], list[tuple]]:
    """Build one page of line records on a known grid.

    Returns (shuffled line records, golden (text, bbox, region-kind)
    triples in grid order, golden table specs, golden planted-field
    tuples ``(name, value, n_candidates, confidence)``). ``clean_only``
    disables
    the low-confidence corruption branch (digital documents have no OCR
    errors). Most pages also carry a cell grid —
    rows of ≥3 x-aligned single-token cells — which the table detector
    must recover; its expected structure is the third return value. Every
    page ends with a footer line and a corner page-number line so the
    layout-role classifier has all roles to find.
    """
    golden_texts: list[tuple[str, tuple, str]] = []
    recs: list[dict] = []
    golden_fields: list[tuple[str, str, int, float]] = []
    y = 40.0
    if kv_header and page_no == 0:
        total = rng.randint(100, 9999) + rng.randint(0, 99) / 100.0
        tax = round(total * 0.1, 2)
        subtotal = round(total - tax, 2)
        date_str = f"2024-{rng.randint(1,12):02d}-{rng.randint(1,28):02d}"
        kv_lines = [
            f"Invoice Number: INV-{i:06d}",
            f"Date: {date_str}",
            f"Subtotal: ${subtotal:,.2f}",
            f"Tax: ${tax:,.2f}",
            f"Total: ${total:,.2f}",
        ]
        due_str = None
        if rng.random() < 0.7:
            # planted due date for the G7 date-order check; ~20% are
            # deliberately BEFORE the invoice date (real failures)
            import datetime as _dt

            inv = _dt.date.fromisoformat(date_str)
            delta = (rng.randint(5, 40) if rng.random() < 0.8
                     else -rng.randint(1, 20))
            due_str = (inv + _dt.timedelta(days=delta)).isoformat()
            kv_lines.insert(2, f"Due Date: {due_str}")
        # Fields fixture (construction knowledge): every flat header value
        # carries a digit, so the planting rules imply two agreeing
        # candidate sources (regex 0.90 wins over layout 0.80); nested
        # island leaves explode to dotted/indexed names with a single
        # 0.85-confidence candidate each.
        golden_fields = [
            ("invoice_number", f"INV-{i:06d}", 2, 0.90),
            ("date", date_str, 2, 0.90),
            ("subtotal", f"${subtotal:,.2f}", 2, 0.90),
            ("tax", f"${tax:,.2f}", 2, 0.90),
            ("total", f"${total:,.2f}", 2, 0.90),
        ]
        if due_str is not None:
            golden_fields.append(("due_date", due_str, 2, 0.90))
        # Structured island for the nested KIE head: a JSON payload or an
        # XML-ish <s_k> tag island (Donut-style), exploded downstream to
        # dotted/indexed field names (a.b[0].c).
        if rng.random() < 0.7:
            import json as _json

            n_items = rng.randint(1, 3)
            meta = {
                "vendor": {"name": rng.choice(_WORDS), "id": f"V{rng.randint(0, 9999):04d}"},
                "line_items": [
                    {"qty": rng.randint(1, 9),
                     "price": f"${rng.randint(1, 999)}.{rng.randint(0, 99):02d}"}
                    for _ in range(n_items)
                ],
            }
            json_variant = rng.random() < 0.5
            if json_variant:
                kv_lines.append("Meta: " + _json.dumps(meta, sort_keys=True,
                                                       separators=(",", ":")))
            else:
                items = "<sep/>".join(
                    f"<s_qty>{it['qty']}</s_qty><s_price>{it['price']}</s_price>"
                    for it in meta["line_items"]
                )
                kv_lines.append(
                    f"<s_vendor><s_name>{meta['vendor']['name']}</s_name>"
                    f"<s_id>{meta['vendor']['id']}</s_id></s_vendor>"
                    f"<s_line_items>{items}</s_line_items>"
                )
            golden_fields.append(("vendor.id", meta["vendor"]["id"], 1, 0.85))
            golden_fields.append(("vendor.name", meta["vendor"]["name"], 1, 0.85))
            # A single-item tag island has no <sep/>, so the Donut-style
            # parse yields a plain nested dict (dotted names, no index);
            # JSON and multi-item islands explode with [k] indices.
            if not json_variant and n_items == 1:
                it = meta["line_items"][0]
                golden_fields.append(("line_items.price", it["price"], 1, 0.85))
                golden_fields.append(("line_items.qty", str(it["qty"]), 1, 0.85))
            else:
                for k, it in enumerate(meta["line_items"]):
                    golden_fields.append((f"line_items[{k}].price", it["price"], 1, 0.85))
                    golden_fields.append((f"line_items[{k}].qty", str(it["qty"]), 1, 0.85))
        for text in kv_lines:
            bbox = (50.0, y, 50.0 + 8 * len(text), y + 28.0)
            recs.append(make_line(text, bbox, rng.uniform(0.85, 0.99)))
            golden_texts.append((text, bbox, _role_of(bbox)))
            y += 40.0
    for _ in range(rng.randint(3, 7)):
        n_cols = rng.randint(1, 2)
        xs = (50.0, 520.0)
        for c in range(n_cols):
            clean = _sentence(rng, 4, 9, lang=lang)
            conf = rng.uniform(0.75, 0.99)
            if not clean_only and rng.random() < 0.25:
                # low-confidence line: payload text is the corrupted first
                # pass; the "aggressive second pass" (alt) holds the clean
                # text at a higher confidence. Golden applies the accept
                # margin rule arithmetically — independent of the kernel.
                conf = rng.uniform(0.30, 0.69)
                corrupted = "".join("#" if rng.random() < 0.15 else ch for ch in clean)
                alt_conf = min(0.999, conf + rng.uniform(0.0, 0.30))
                # The accept rule must be evaluated on the 4-decimal
                # confidences the PAYLOAD carries (make_line rounds) —
                # the payload is the only truth the engine can see; using
                # the unrounded draws flips boundary cases within 1e-4.
                conf_p, alt_p = round(conf, 4), round(alt_conf, 4)
                accepted = (alt_p >= conf_p + REOCR_ACCEPT_MARGIN
                            and conf_p < REOCR_CONFIDENCE_THRESHOLD)
                bbox = (xs[c], y, xs[c] + 8 * len(clean), y + 28.0)
                recs.append(
                    make_line(corrupted, bbox, conf, alt_text=clean, alt_conf=alt_conf)
                )
                golden_texts.append((clean if accepted else corrupted, bbox, _role_of(bbox)))
            else:
                bbox = (xs[c], y, xs[c] + 8 * len(clean), y + 28.0)
                recs.append(make_line(clean, bbox, conf))
                golden_texts.append((clean, bbox, _role_of(bbox)))
        y += 40.0
    if rng.random() < 0.4:
        # Planted list block (DocLayNet ``list`` class analog): ASCII
        # bullet / enumeration markers; golden role is construction
        # knowledge, the engine must recover it from the text pattern.
        numbered = rng.random() < 0.5
        for k in range(rng.randint(2, 4)):
            marker = f"{k + 1}. " if numbered else "- "
            item = marker + _sentence(rng, 3, 7, lang=lang)
            bbox = (70.0, y, 70.0 + 8 * len(item), y + 28.0)
            recs.append(make_line(item, bbox, rng.uniform(0.85, 0.99)))
            golden_texts.append((item, bbox, "list_item"))
            y += 40.0
    tables: list[dict] = []
    if rng.random() < 0.55:
        tr, tc = rng.randint(2, 5), rng.randint(3, 5)
        cell_texts: list[str] = []
        for _r in range(tr):
            for c in range(tc):
                cell = (str(rng.randint(1, 9999)) if rng.random() < 0.4
                        else rng.choice(_WORDS))
                x = 60.0 + c * 190.0
                bbox = (x, y, x + 8 * len(cell), y + 28.0)
                recs.append(make_line(cell, bbox, rng.uniform(0.80, 0.99)))
                golden_texts.append((cell, bbox, _role_of(bbox)))
                cell_texts.append(cell)
            y += 40.0
        tables.append({"page": page_no, "table_idx": 0, "n_rows": tr,
                       "n_cols": tc, "cell_texts": cell_texts})
        if rng.random() < 0.6:
            # caption line under the grid (DocLayNet ``caption`` analog)
            cap = f"Table 1: {_sentence(rng, 3, 6, lang=lang)}"
            cbbox = (60.0, y, 60.0 + 8 * len(cap), y + 28.0)
            recs.append(make_line(cap, cbbox, rng.uniform(0.9, 0.99)))
            golden_texts.append((cap, cbbox, "caption"))
            y += 40.0
    footer = f"{_sentence(rng, 3, 5, lang=lang)[:-1]} notice"
    fbbox = (380.0, 1310.0, 380.0 + 8 * len(footer), 1338.0)
    recs.append(make_line(footer, fbbox, rng.uniform(0.9, 0.99)))
    golden_texts.append((footer, fbbox, _role_of(fbbox)))
    pageno = f"Page {page_no + 1}"
    pbbox = (860.0, 1340.0, 860.0 + 8 * len(pageno), 1368.0)
    recs.append(make_line(pageno, pbbox, rng.uniform(0.9, 0.99)))
    golden_texts.append((pageno, pbbox, _role_of(pbbox)))
    rng.shuffle(recs)
    return recs, golden_texts, tables, golden_fields


_HEADINGISH = ("title", "header", "heading")


def _native_records(rng: random.Random, triples: list[tuple[str, tuple, str]]) -> list[dict]:
    """Native text-layer spans for a digital document page, in document
    order (the PyMuPDF span-walk analog): true text + real style."""
    font = rng.choice(("Arial", "Helvetica", "Times New Roman"))
    out = []
    for text, bbox, kind in triples:
        out.append({
            "t": text,
            "bbox": [round(float(v), 2) for v in bbox],
            "font": font,
            "size": round((bbox[3] - bbox[1]) * 0.75, 1),
            "bold": kind in _HEADINGISH or text.isupper(),
            "italic": False,
        })
    return out


def _estimated_style_rows(page_no: int, triples: list[tuple[str, tuple, str]]) -> list[dict]:
    """Construction-side arithmetic of the published estimated-style rules
    (size = bbox-height × 0.75 clamped 6–72, ALL-CAPS / heading-role bold,
    additive confidence ladder capped at 0.8) — duplicated here, like the
    accept-margin rule, so golden stays independent of engine code."""
    out = []
    for idx, (text, bbox, kind) in enumerate(triples):
        upper = bool(text) and text.isupper()
        size = max(6.0, min(72.0, (bbox[3] - bbox[1]) * 0.75))
        out.append({
            "page": page_no, "line_idx": idx, "kind": kind, "text_len": len(text),
            "font_name": "Arial" if kind in _HEADINGISH else "Times New Roman",
            "font_size": round(size, 1),
            "bold": upper or kind in _HEADINGISH,
            "italic": False,
            "style_source": "estimated",
            "style_confidence": min(0.8, 0.5 + 0.15 + (0.1 if upper else 0.0)),
        })
    return out


def _native_style_rows(page_no: int, native: list[dict],
                       triples: list[tuple[str, tuple, str]]) -> list[dict]:
    """Digital pages report the payload's native span styles verbatim at
    confidence 1.0; the region kind still comes from bbox arithmetic."""
    out = []
    for idx, (span, (_t, _b, kind)) in enumerate(zip(native, triples)):
        out.append({
            "page": page_no, "line_idx": idx, "kind": kind,
            "text_len": len(span["t"]),
            "font_name": span["font"], "font_size": float(span["size"]),
            "bold": bool(span["bold"]), "italic": False,
            "style_source": "native", "style_confidence": 1.0,
        })
    return out


def _build_doc(rng: random.Random, i: int, lang: str = "unknown"):
    n_pages = rng.randint(1, 4)
    # ~35% of docs are DIGITAL: they carry a native text layer (>100
    # chars) and no OCR corruption — the engine must route them through
    # the cheap native path with byte-identical output.
    digital = rng.random() < 0.35
    pages, golden_parts, golden_tables = [], [], []
    golden_fields, golden_styles = [], []
    for p in range(n_pages):
        recs, triples, tables, gfields = _grid_lines(rng, i, p, kv_header=True,
                                                     clean_only=digital, lang=lang)
        page = {"page": p, "w": _PAGE_W, "h": _PAGE_H, "lines": recs}
        if digital:
            native = _native_records(rng, triples)
            page["native"] = native
            golden_styles.extend(_native_style_rows(p, native, triples))
        else:
            golden_styles.extend(_estimated_style_rows(p, triples))
        pages.append(page)
        golden_parts.extend((t, k) for t, _b, k in triples)
        golden_tables.extend(tables)
        golden_fields.extend(gfields)
    return (encode_doc_payload(pages), "", golden_parts, golden_tables,
            golden_fields, golden_styles)


def _build_image(rng: random.Random, i: int, lang: str = "unknown"):
    recs, triples, tables, _gf = _grid_lines(rng, i, 0, kv_header=False, lang=lang)
    payload = encode_image_payload({"w": _PAGE_W, "h": _PAGE_H, "lines": recs})
    return (payload, "", [(t, k) for t, _b, k in triples], tables,
            [], _estimated_style_rows(0, triples))


def _build_empty(rng: random.Random, i: int, lang: str = "unknown"):
    lines = [_sentence(rng, lang=lang) for _ in range(rng.randint(2, 5))]
    raw_parts: list[str] = []
    for ln in lines:
        raw_parts.append(("  " if rng.random() < 0.4 else "") + ln + ("  " if rng.random() < 0.3 else ""))
        if rng.random() < 0.3:
            raw_parts.append("")  # blank line — normalized away
    raw = "\r\n".join(raw_parts) if rng.random() < 0.5 else "\n".join(raw_parts)
    return None, raw, [(t, "line") for t in lines], []


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

def _decide_rows(n_rows: int, seed: int):
    """Phase 1 (sequential, cheap): replicate exactly the per-row RNG
    consumption that precedes payload building — host pick (1 draw), route
    draw (1 draw), dup-source pick (1 randrange) — without building any
    payload. Returns (hosts, routes, src_idx) where ``routes[i]`` is the
    *storage* route ("dup" rows reference ``src_idx[i]``)."""
    hosts: list[str] = []
    routes: list[str] = []
    srcs: list[int] = []
    pool: list[int] = []  # indices of rows eligible as dup sources
    for i in range(n_rows):
        rng = random.Random(f"{seed}:{i}")
        hosts.append(_pick_host(rng))
        r = rng.random()
        if r < 0.70 or (r >= 0.98 and not pool):
            route = "html"
        elif r < 0.85:
            route = "doc"
        elif r < 0.90:
            route = "image"
        elif r < 0.98:
            route = "text"
        else:
            route = "dup"
        src = -1
        if route == "dup":
            src = pool[rng.randrange(len(pool))]
        elif route != "text" and len(pool) < 256:
            pool.append(i)
        routes.append(route)
        srcs.append(src)
    return hosts, routes, srcs


def _build_row(i: int, seed: int, route: str):
    """Build row ``i``'s payload with an RNG in the exact state the
    sequential generator would have it in (host + route draws consumed)."""
    rng = random.Random(f"{seed}:{i}")
    rng.random()  # host pick
    rng.random()  # route draw
    lang = _lang_of(i)
    if route == "html":
        html_b, text_col, parts, links = _build_html(rng, i, lang)
        return html_b, text_col, parts, [], [], [], links
    if route == "doc":
        if rng.random() < 0.015:
            # corrupt payload: valid doc magic, unparseable body — the
            # engine must surface a per-row error, never throw. Unique
            # bytes per row so content dedup can't collapse them.
            garbage = DOC_MAGIC + f'{{"pages": corrupt-{i}-{rng.random()}'.encode()
            return garbage, "", [], [], [], [], []
        return (*_build_doc(rng, i, lang), [])
    if route == "image":
        return (*_build_image(rng, i, lang), [])
    return (*_build_empty(rng, i, lang), [], [], [])


def _build_chunk(args):
    """Worker: build payload+golden for a slice of rows. Dup rows rebuild
    their SOURCE row's payload (deterministic — identical bytes to the
    sequential generator at ~2% duplicated work)."""
    seed, items = args  # items: [(i, route, src, src_route)]
    out = []
    for i, route, src, src_route in items:
        if route == "dup":
            html_b, text_col, parts, gtables, gfields, gstyles, glinks = _build_row(src, seed, src_route)
            eff_route = src_route
        else:
            html_b, text_col, parts, gtables, gfields, gstyles, glinks = _build_row(i, seed, route)
            eff_route = route
        extracted, spans = _spans_from_parts(parts)
        out.append((html_b, text_col, extracted, spans, eff_route,
                    _sha256(html_b, text_col), gtables, gfields, gstyles,
                    glinks))
    return out


#: Row count above which payload building fans out over processes.
_PARALLEL_GEN_MIN_ROWS = 20_000


def gen_corpus(n_rows: int, seed: int = 42) -> tuple[pa.Table, pa.Table]:
    """Generate (pages table, golden table) with ``n_rows`` pages.

    Two phases so large corpora build in parallel with byte-identical
    output: a sequential decision pass (route mix + dup-source choice,
    pure RNG bookkeeping) and an embarrassingly parallel payload-build
    pass (each row's RNG is keyed ``f"{seed}:{i}"`` — no cross-row
    state)."""
    hosts, routes, srcs = _decide_rows(n_rows, seed)
    items = [(i, routes[i], srcs[i], routes[srcs[i]] if srcs[i] >= 0 else "")
             for i in range(n_rows)]

    if n_rows >= _PARALLEL_GEN_MIN_ROWS:
        import multiprocessing as mp

        nproc = min(16, os.cpu_count() or 1)
        chunk = -(-n_rows // (nproc * 4))
        jobs = [(seed, items[k:k + chunk]) for k in range(0, n_rows, chunk)]
        with mp.get_context("fork").Pool(nproc) as pool:
            built = [row for part in pool.map(_build_chunk, jobs) for row in part]
    else:
        built = _build_chunk((seed, items))
    return _assemble_tables(built, 0, hosts, routes, srcs)


def _assemble_tables(built, idx0: int, hosts, routes, srcs
                     ) -> tuple[pa.Table, pa.Table]:
    """Built payload rows for global indices [idx0, idx0+len) → (pages,
    golden) arrow tables. Split out of :func:`gen_corpus` so the
    streamed large-corpus writer assembles chunk by chunk — url/dup
    decisions key off the GLOBAL row index, so chunked assembly is
    byte-identical to whole-corpus assembly."""
    urls, tss, htmls, texts, langs = [], [], [], [], []
    g_text, g_spans, g_route, g_hash, g_tables = [], [], [], [], []
    g_fields, g_styles, g_err, g_links = [], [], [], []
    for off, (html_b, text_col, extracted, spans, eff_route, h, gtables,
              gfields, gstyles, glinks) in enumerate(built):
        i = idx0 + off
        if routes[i] == "dup":
            if i % 7 == 0:
                # Syndicated copy: identical bytes republished under an
                # UNRELATED url (own host, different path) — invisible to
                # URL canonicalization, caught only by content dedup.
                urls.append(f"https://{hosts[i]}/mirror/{i:08d}")
            else:
                # Re-crawl of the SOURCE url through a tracking-parameter
                # / fragment variant — the Common-Crawl shape URL
                # canonicalization must collapse. Variants embed the row
                # index in a stripped component, so only canonicalization
                # (not string equality) can group them with their source.
                sfx = _TRACKING_SUFFIXES[i % len(_TRACKING_SUFFIXES)].format(i=i)
                urls.append(f"https://{hosts[srcs[i]]}/p/{srcs[i]:08d}{sfx}")
        else:
            urls.append(f"https://{hosts[i]}/p/{i:08d}")
        tss.append(_EPOCH_US + i * 1_000_000)
        htmls.append(html_b)
        texts.append(text_col)
        langs.append(_lang_of(i))
        g_text.append(extracted)
        g_spans.append(spans)
        g_route.append(eff_route)
        g_hash.append(h)
        g_tables.append(gtables)
        g_fields.append([
            {"name": n, "value": v, "n_candidates": nc, "confidence": c}
            for n, v, nc, c in gfields
        ])
        g_styles.append(gstyles)
        # corrupt payloads are the ONLY doc rows with empty text (every
        # built doc page emits at least footer + page-number lines)
        g_err.append(eff_route == "doc" and extracted == "")
        g_links.append([{"href": h_, "anchor": a_} for h_, a_ in glinks])

    pages = pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.binary()),
            pa.array(texts, pa.string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )
    golden = pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(g_text, pa.string()),
            pa.array(g_spans, SPAN_TYPE),
            pa.array(g_route, pa.string()),
            pa.array(g_hash, pa.string()),
            pa.array(g_tables, TABLE_FIXTURE_TYPE),
            pa.array(g_fields, FIELD_FIXTURE_TYPE),
            pa.array(g_styles, STYLE_FIXTURE_TYPE),
            pa.array(g_err, pa.bool_()),
            pa.array(g_links, LINK_FIXTURE_TYPE),
        ],
        schema=GOLDEN_SCHEMA,
    )
    return pages, golden


#: Row count above which the corpus is generated STREAMED — chunks are
#: built in worker processes, assembled and written shard-by-shard, and
#: the parent never holds more than ~nproc chunks of Python objects.
#: The in-memory path at sf16 (8M rows) needs >120 GB for the full
#: object lists + tables; the streamed path is bounded at a few GB.
_STREAMED_GEN_MIN_ROWS = 500_000

#: Rows per build/assembly/write chunk on the streamed path (one output
#: pages shard per chunk — 20k rows ≈ 30 MB parquet, and Ray's reader
#: gets one task per shard).
_STREAM_CHUNK_ROWS = 20_000


def _gen_corpus_to_dir(n_rows: int, seed: int, tmp: str) -> None:
    """Streamed large-corpus generation: identical rows to
    :func:`gen_corpus` (every payload is keyed by ``(seed, i)`` and
    assembly is global-index-based), but chunk-at-a-time through a
    process pool's ``imap`` with incremental parquet writes — corpus
    size is bounded by disk, not driver memory."""
    import multiprocessing as mp

    pages_dir = os.path.join(tmp, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    hosts, routes, srcs = _decide_rows(n_rows, seed)
    items = [(i, routes[i], srcs[i], routes[srcs[i]] if srcs[i] >= 0 else "")
             for i in range(n_rows)]
    jobs = [(seed, items[k:k + _STREAM_CHUNK_ROWS])
            for k in range(0, n_rows, _STREAM_CHUNK_ROWS)]
    nproc = min(16, os.cpu_count() or 1)
    golden_writer = None
    try:
        with mp.get_context("fork").Pool(nproc) as pool:
            for s, built in enumerate(pool.imap(_build_chunk, jobs)):
                pages, golden = _assemble_tables(
                    built, s * _STREAM_CHUNK_ROWS, hosts, routes, srcs)
                pq.write_table(pages, os.path.join(
                    pages_dir, f"part-{s:04d}.parquet"))
                if golden_writer is None:
                    golden_writer = pq.ParquetWriter(
                        os.path.join(tmp, "golden.parquet"), golden.schema)
                golden_writer.write_table(golden)
    finally:
        if golden_writer is not None:
            golden_writer.close()


def sf_to_rows(sf: float) -> int:
    """Scale factor → pages rows (TESTDATA tiers: sf0.001→500, sf0.01→5k, sf0.1→50k)."""
    return max(1, int(round(sf * 500_000)))


def sf_from_dir(sf_dir: str) -> float:
    """Parse '.../sf0.01' → 0.01 (also accepts the corpus cache layout
    '.../seed42_sf4_v14')."""
    import re

    base = os.path.basename(os.path.normpath(sf_dir))
    if base.startswith("sf"):
        return float(base[2:])
    m = re.search(r"_sf([0-9.]+)_v\d+$", base)
    if m:
        return float(m.group(1))
    raise ValueError(f"cannot parse scale factor from {sf_dir!r}")


def corpus_dir(sf: float, seed: int = 42, root: str = "/tmp/hopr_corpus") -> str:
    return os.path.join(root, f"seed{seed}_sf{sf:g}_v{CORPUS_FORMAT_VERSION}")


def ensure_corpus(sf: float, seed: int = 42, root: str = "/tmp/hopr_corpus") -> str:
    """Write (once, atomically) pages.parquet + golden.parquet for a scale
    factor; return the directory. Multiple shard files are written so Ray
    gets parallel read tasks."""
    d = corpus_dir(sf, seed, root)
    pages_path = os.path.join(d, "pages")
    golden_path = os.path.join(d, "golden.parquet")
    done = os.path.join(d, "_DONE")
    if os.path.exists(done):
        return d
    n = sf_to_rows(sf)
    tmp = d + ".tmp"
    if n >= _STREAMED_GEN_MIN_ROWS:
        # streamed: chunk-built, shard-written — memory-bounded at any sf
        _gen_corpus_to_dir(n, seed, tmp)
    else:
        pages, golden = gen_corpus(n, seed)
        os.makedirs(os.path.join(tmp, "pages"), exist_ok=True)
        # shard pages so read_parquet parallelizes
        n_shards = max(1, min(64, n // 250))
        per = -(-pages.num_rows // n_shards)
        for s in range(n_shards):
            chunk = pages.slice(s * per, per)
            if chunk.num_rows:
                pq.write_table(chunk, os.path.join(tmp, "pages", f"part-{s:04d}.parquet"))
        pq.write_table(golden, os.path.join(tmp, "golden.parquet"))
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write(f"n={n} seed={seed}\n")
    if not os.path.exists(done):
        try:
            os.replace(tmp, d)
        except OSError:
            pass  # concurrent creator won
    assert os.path.exists(pages_path) and os.path.exists(golden_path)
    return d
