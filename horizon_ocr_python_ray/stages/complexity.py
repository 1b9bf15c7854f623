"""Complexity-scored model routing — the local analog of the reference's
classify-and-route step (``/root/reference/docvision/azure/classifier.py:
61-92``: a cheap nano-model classifies (doc_type, complexity) and a static
routing table picks the extraction model tier).

The north rule replaces cloud model calls, so the cheap classifier here is
a HEADER-ONLY probe (no payload decode — the same byte-scan machinery as
:func:`..functions.docformat.probe_page_count`). The routing table maps
each band to a cost-tier label; the labels name tiers of the
routing-table analog, not code paths — every row is extracted by the one
extraction pipeline (``pipelines/extract.py``):

- ``combined`` — the cheap tier (document work inline, one pass);
- ``staged``  — the expensive tier (many pages or a poor scan).

Complexity bands from three costless signals (reference guidelines
analog: page volume, density/quality, raw size):

- ``complex``: ≥ :data:`COMPLEX_MIN_PAGES` pages OR ≥
  :data:`COMPLEX_MIN_ALT_MARKERS` low-confidence ``alt`` re-OCR records
  (the poor-scan-quality proxy) — labelled ``staged``;
- ``simple``: ≤ 1 page AND zero alt records — labelled ``combined``;
- ``medium``: everything else — labelled ``combined`` (the reference's
  medium band also stays on the cheap deployment for most types).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.docformat import DOC_MAGIC, IMG_MAGIC

#: Band thresholds (header-only signals).
COMPLEX_MIN_PAGES = 4
COMPLEX_MIN_ALT_MARKERS = 6

#: complexity band → cost-tier label (the A11 routing table analog).
VARIANT_ROUTING = {
    "simple": "combined",
    "medium": "combined",
    "complex": "staged",
}


def classify_payload(payload: bytes | None) -> tuple[int, int, str] | None:
    """One payload → (page_count, alt_markers, complexity), or ``None``
    for payloads with no page structure (html/text/other — they always
    take the cheap path). Byte scans only — never decodes JSON or
    glyphs (the nano-classifier cost analog). The page count IS
    :func:`..functions.docformat.probe_page_count` — one shared gate so
    ``pages_doc_meta`` and ``pages_complexity_route`` can never
    diverge."""
    from ..functions.docformat import probe_page_count

    if payload is None or not (payload.startswith(DOC_MAGIC)
                               or payload.startswith(IMG_MAGIC)):
        return None
    pages = probe_page_count(payload)
    alts = payload.count(b'"alt":')
    if pages >= COMPLEX_MIN_PAGES or alts >= COMPLEX_MIN_ALT_MARKERS:
        return pages, alts, "complex"
    if pages <= 1 and alts == 0:
        return pages, alts, "simple"
    return pages, alts, "medium"


def complexity_batch(batch: pa.Table) -> pa.Table:
    """(url, html) rows → (url, page_count, alt_markers, complexity,
    extract_variant) for binary doc/image payloads (html/text rows have
    no complexity surface and are dropped — they always take the cheap
    DOM/passthrough path)."""
    urls, pages, alts, bands, variants = [], [], [], [], []
    for url, payload in zip(batch.column("url").to_pylist(),
                            batch.column("html").to_pylist()):
        got = classify_payload(payload)
        if got is None:
            continue
        p, a, band = got
        urls.append(url)
        pages.append(p)
        alts.append(a)
        bands.append(band)
        variants.append(VARIANT_ROUTING[band])
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "page_count": pa.array(pages, pa.int64()),
        "alt_markers": pa.array(alts, pa.int64()),
        "complexity": pa.array(bands, pa.string()),
        "extract_variant": pa.array(variants, pa.string()),
    })

