"""Route-dispatched payload extraction — the per-record core.

One pure function ``extract_payload(route, payload, text, cfg)``, called
per row by the extraction stage (``stages/extract_stage.py``).
Its two heavy-route decisions live here once, for every head that reads
doc/image payloads (tables, styles, reconstruction, overlays): how a
payload becomes pages (``decode_pages``) and how a page becomes lines
(``is_digital`` + ``page_lines``).

Reference lifecycle mirrored (``/root/reference/docvision/pipeline/
orchestrator.py:447-816``): load/decode → per-page detect+recognize →
reading-order ``raw_text`` assembly (``orchestrator.py:780``), with routes
replacing the reference's extension probe and mode switches.
"""

from __future__ import annotations

import re

from ..config import ExtractConfig
from . import sniff as sniff_mod
from .docformat import decode_doc_payload, decode_image_payload
from .htmltext import extract_html, join_blocks
from .layout import recognize_page
from .regions import role_classifier
from .style import is_scanned_doc

_LINE_SPLIT_RE = re.compile(r"\r\n|\r|\n")


def normalize_plain_text(raw: str) -> tuple[str, list[dict]]:
    """Passthrough route: normalize the ``text`` column — split lines,
    strip each, drop empties, join with the canonical separator."""
    lines = map(str.strip, _LINE_SPLIT_RE.split(raw or ""))
    return join_blocks([(ln, "line") for ln in lines if ln])


def decode_pages(route: str, payload: bytes) -> list[dict]:
    """A heavy-route payload's pages in page order: a doc's pages sorted
    by ``page`` (the one ordering requirement, SURVEY.md §2.7), an image
    as page 0, nothing for any other route. Every heavy head decodes
    through here, once per row."""
    if route == sniff_mod.ROUTE_DOC:
        return sorted(decode_doc_payload(payload), key=lambda p: p["page"])
    if route == sniff_mod.ROUTE_IMAGE:
        return [{"page": 0, **decode_image_payload(payload)}]
    return []


def is_digital(route: str, pages: list[dict]) -> bool:
    """The digital-vs-scanned rule, decided per document: a doc with a
    substantial native text layer takes the native path — no glyph
    recognition, no targeted re-pass. Images are always recognized. The
    decision is doc-level (total native chars across pages), so per-page
    callers take it as an argument rather than re-deciding."""
    return route == sniff_mod.ROUTE_DOC and not is_scanned_doc(pages)


def native_page_lines(page: dict) -> list[dict]:
    """A digital page's native text spans in document order — the cheap
    path that skips recognition entirely (reference digital-PDF routing,
    ``extract/pdf_style_extractor.py:67-94``). Line dicts match
    ``recognize_page``'s (native text is certain: confidence 1.0) and
    carry the source span under ``native`` for its font fields."""
    role = role_classifier(page.get("w"), page.get("h"))
    out = []
    for span in page.get("native") or []:
        text = span["t"]
        bbox = span["bbox"]
        out.append({"text": text, "bbox": bbox, "confidence": 1.0,
                    "kind": role(text, bbox), "native": span})
    return out


def page_lines(page: dict, digital: bool, cfg: ExtractConfig) -> list[dict]:
    """One page's lines in emission order: native spans for a digital
    document, detect + recognize (+ targeted re-pass) for a scanned one.
    The two paths are byte-identical for the same content (tested)."""
    if digital:
        return native_page_lines(page)
    return recognize_page(page["lines"], cfg.doc, page.get("w"), page.get("h"))


def extract_payload(
    route: str,
    payload: bytes | None,
    text: str | None,
    cfg: ExtractConfig,
) -> tuple[str, list[dict], str | None]:
    """Returns (extracted_text, spans, error)."""
    try:
        if route == sniff_mod.ROUTE_HTML:
            extracted, spans = extract_html(payload or b"", cfg.html)
            return extracted, spans, None
        if route in (sniff_mod.ROUTE_DOC, sniff_mod.ROUTE_IMAGE):
            pages = decode_pages(route, payload or b"")
            digital = is_digital(route, pages)
            lines = [li for p in pages for li in page_lines(p, digital, cfg)]
            # span kind: the line's layout-region role (J5 region→line
            # role map, ``pipeline/orchestrator.py:1067-1092``)
            return (*join_blocks([(li["text"], li["kind"]) for li in lines]),
                    None)
        if route == sniff_mod.ROUTE_TEXT:
            return (*normalize_plain_text(text or ""), None)
        return "", [], f"unsupported_route:{route}"
    except Exception as exc:  # per-row error column — rows never throw
        return "", [], f"{type(exc).__name__}: {exc}"
