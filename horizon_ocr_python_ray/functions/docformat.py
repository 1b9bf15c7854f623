"""Synthetic binary document / image payload format.

The sandbox has no PDF rasterizer or image codecs, so binary document
payloads are a deterministic, self-contained stand-in: a magic prefix that
content-sniffs like the real thing (``%PDF-`` / PNG signature — the sniffing
analog of the reference's extension probe
``/root/reference/docvision/pipeline/orchestrator.py:573-582``), followed by
a JSON body of per-page *line records*.

Each line record carries the rendered text in an obfuscated "glyph"
encoding (reversed UTF-8 bytes, base64) plus a bounding box and a
recognition confidence. "Recognition" in the heavy path is the real inverse
transform — decode glyphs → text — which plays the role of the reference's
TrOCR/Tesseract forward pass (``/root/reference/docvision/ocr/trocr.py``)
while remaining deterministic. Low-confidence lines additionally carry an
``alt`` record (a second, "aggressively preprocessed" recognition attempt,
mirroring targeted re-OCR ``/root/reference/docvision/ocr/targeted_reocr.py``).

Line records inside a page are stored in **shuffled order**: recovering the
reading order from bounding boxes is the pipeline's job
(``detect/text_craft.py:353-410`` semantics), not the format's.
"""

from __future__ import annotations

import base64
import binascii
import json
from binascii import a2b_base64
from typing import Any

DOC_MAGIC = b"%PDF-1.7\n%SYNDOC1\n"
IMG_MAGIC = b"\x89PNG\r\n\x1a\nSYNIMG1\n"


def encode_glyphs(text: str) -> str:
    """Obfuscate line text: UTF-8 → reversed bytes → base64 (ASCII str)."""
    return base64.b64encode(text.encode("utf-8")[::-1]).decode("ascii")


def decode_glyphs(glyphs: str) -> str:
    """The 'recognition' inverse transform of :func:`encode_glyphs`.

    ``a2b_base64`` reads the ASCII str directly. A glyph field that is
    not an ASCII str (any other JSON value) fails as ``str.encode``
    words it, which is the text a row's error column carries:
    ``UnicodeEncodeError`` for non-ASCII text, ``AttributeError`` for a
    non-string. Garbled base64 raises ``binascii.Error``."""
    try:
        raw = a2b_base64(glyphs)
    except (TypeError, ValueError) as exc:
        if not isinstance(exc, binascii.Error):
            glyphs.encode("ascii")
        raise
    return raw[::-1].decode("utf-8")


def make_line(
    text: str,
    bbox: tuple[float, float, float, float],
    conf: float,
    alt_text: str | None = None,
    alt_conf: float | None = None,
) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "g": encode_glyphs(text),
        "bbox": [round(float(v), 2) for v in bbox],
        "conf": round(float(conf), 4),
    }
    if alt_text is not None:
        rec["alt"] = {"g": encode_glyphs(alt_text), "conf": round(float(alt_conf or 0.0), 4)}
    return rec


def encode_doc_payload(pages: list[dict[str, Any]]) -> bytes:
    """pages: [{"page": int, "w": float, "h": float, "lines": [line...]}]"""
    return DOC_MAGIC + json.dumps({"pages": pages}, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode_image_payload(page: dict[str, Any]) -> bytes:
    """page: {"w": float, "h": float, "lines": [line...]}"""
    return IMG_MAGIC + json.dumps(page, separators=(",", ":"), sort_keys=True).encode("utf-8")


def probe_page_count(payload: bytes) -> int:
    """Header-only page count — the metadata probe that does NOT decode
    the document (reference ``io/pdf.py:144-173`` counts page objects
    from the raw PDF header/xref without rasterizing). For the SYNDOC
    stand-in the equivalent cheap scan counts the per-page ``"page":``
    markers in the raw bytes: no JSON parse, no glyph decode, no line
    records materialized. Images are single-page; anything else probes
    to 0. The body is ASCII by construction (``json.dumps`` default
    ``ensure_ascii``), so a byte scan is exact."""
    if payload is None:
        return 0
    if payload.startswith(DOC_MAGIC):
        return payload.count(b'"page":')
    if payload.startswith(IMG_MAGIC):
        return 1
    return 0


def probe_batch(batch) -> "pa.Table":  # noqa: F821 — annotation only
    """(url, html) rows → (url, route, page_count) for SYNDOC/SYNIMG
    payloads (html/text rows are dropped: they have no page structure
    to probe). Gates on the exact container magics — the same gate the
    DuckDB oracle replays by hex prefix and the complexity router uses
    — NOT the looser ``sniff_route`` families (a bare ``%PDF-`` or PNG
    payload without the SYN marker has no byte-countable page
    structure, so emitting a row for it would diverge from the oracle).
    One cheap byte scan per row; the payload column is consumed and
    dropped in this same stage."""
    import pyarrow as pa

    urls, routes, counts = [], [], []
    for url, payload in zip(batch.column("url").to_pylist(),
                            batch.column("html").to_pylist()):
        if payload is None:
            continue
        if payload.startswith(DOC_MAGIC):
            route = "doc"
        elif payload.startswith(IMG_MAGIC):
            route = "image"
        else:
            continue
        urls.append(url)
        routes.append(route)
        counts.append(probe_page_count(payload))
    return pa.table({"url": pa.array(urls, pa.string()),
                     "route": pa.array(routes, pa.string()),
                     "page_count": pa.array(counts, pa.int64())})


def decode_doc_payload(payload: bytes) -> list[dict[str, Any]]:
    if not payload.startswith(DOC_MAGIC):
        raise ValueError("not a SYNDOC payload")
    return json.loads(payload[len(DOC_MAGIC):].decode("utf-8"))["pages"]


def decode_image_payload(payload: bytes) -> dict[str, Any]:
    if not payload.startswith(IMG_MAGIC):
        raise ValueError("not a SYNIMG payload")
    return json.loads(payload[len(IMG_MAGIC):].decode("utf-8"))
