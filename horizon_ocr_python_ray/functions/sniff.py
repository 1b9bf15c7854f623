"""Content sniffing: classify a binary payload by magic bytes.

Replaces the reference's extension-based file-type probe
(``/root/reference/docvision/pipeline/orchestrator.py:573-582``) with
content sniffing — at Common-Crawl scale the bytes are the only truth.
Also computes the SHA-256 content hash used for exact dedup (the
content-addressed-cache key semantics of
``/root/reference/docvision/azure/response_cache.py:66-91``).

Routes:
  ``html``  — looks like markup (``<!doctype`` / ``<html`` / leading ``<``)
  ``doc``   — ``%PDF-`` magic (multi-page document → heavy actor path)
  ``image`` — PNG/JPEG/GIF/TIFF/BMP/WEBP magic (single-page heavy path)
  ``text``  — empty/absent payload; fall back to the ``text`` column
  ``binary``— unknown binary (carried through with an error marker)
"""

from __future__ import annotations

import hashlib
import re

ROUTE_HTML = "html"
ROUTE_DOC = "doc"
ROUTE_IMAGE = "image"
ROUTE_TEXT = "text"
ROUTE_BINARY = "binary"

_IMAGE_MAGICS: tuple[bytes, ...] = (
    b"\x89PNG\r\n\x1a\n",
    b"\xff\xd8\xff",          # JPEG
    b"GIF87a",
    b"GIF89a",
    b"II*\x00",               # TIFF LE
    b"MM\x00*",               # TIFF BE
    b"BM",                    # BMP
)

#: What may come before a payload's first content byte: ASCII whitespace
#: and whole UTF-8 BOMs, in any order and number. A stray BOM byte is
#: content, so a payload led by one is not markup.
_LEADING_RE = re.compile(rb"(?:[ \t\r\n\f]|\xef\xbb\xbf)*")


def content_start(payload: bytes) -> int:
    """Offset of the first content byte: sniffing looks for markup there
    and html extraction decodes from there, so what one skips the other
    never reads as text."""
    return _LEADING_RE.match(payload).end()


def sniff_route(payload: bytes | None) -> str:
    """Classify one payload. Pure, deterministic."""
    if payload is None or len(payload) == 0:
        return ROUTE_TEXT
    if payload.startswith(b"%PDF-"):
        return ROUTE_DOC
    for magic in _IMAGE_MAGICS:
        if payload.startswith(magic):
            return ROUTE_IMAGE
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        return ROUTE_IMAGE
    start = content_start(payload)
    head = payload[start:start + 256].lower()
    if head.startswith((b"<!doctype", b"<html", b"<head", b"<body", b"<?xml")):
        return ROUTE_HTML
    if head.startswith(b"<") and b">" in head:
        return ROUTE_HTML
    return ROUTE_BINARY


def content_hash(payload: bytes | None, text: str | None) -> str:
    """Hex SHA-256 of the payload; for payload-less rows, of the text
    column (prefixed so the two key spaces cannot collide)."""
    h = hashlib.sha256()
    if payload:
        h.update(b"B:")
        h.update(payload)
    else:
        h.update(b"T:")
        h.update((text or "").encode("utf-8"))
    return h.hexdigest()
