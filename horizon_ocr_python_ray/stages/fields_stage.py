"""Key-information extraction over extracted text: candidate generation →
per-document fuse → validate → long-format fields table.

The candidate generator plays the role of the reference's two KIE model
heads (Donut ``kie/donut_runner.py`` + LayoutLMv3 ``kie/layoutlmv3_runner.py``):
two deterministic "sources" parse ``Key: Value`` lines from the extracted
text with different confidence profiles, then the fuser picks winners per
field name (``kie/fuse.py`` semantics in ``functions/fuse.py``).

Runs as a stateless ``map_batches`` over extraction output — all fields of
a document live in its row, so fusion needs no shuffle (SURVEY.md §2.4:
all reference joins are within-document).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.fuse import Candidate, fuse_fields
from ..functions.nested import explode_fields, parse_structured
from ..schema import FIELDS_SCHEMA

_KV_RE = re.compile(r"^([A-Za-z][A-Za-z0-9 _\-]{0,40}):\s+(.+?)\s*$")
_DIGIT_RE = re.compile(r"\d")

#: Confidence profile of the pseudo-sources (analog of the reference's
#: per-engine source weights ``kie/fuse.py:44-71``).
REGEX_SOURCE_CONF = 0.90
LAYOUT_SOURCE_CONF = 0.80
#: The structured head (JSON / <s_k> tag islands → dotted names) plays
#: the Donut role (``kie/donut_runner.py``).
NESTED_SOURCE_CONF = 0.85


def _nested_candidates(payload: str) -> list[Candidate]:
    data = parse_structured(payload)
    if not data:
        return []
    return [Candidate(name, value, NESTED_SOURCE_CONF, "nested")
            for name, value in explode_fields(data)]


def candidates_from_text(text: str) -> list[Candidate]:
    """Parse candidates from three sources:

    - ``regex`` / ``layout``: flat ``Key: Value`` lines (the layout head
      re-reads only value-bearing, digit-containing fields — a second
      model focused on amounts/dates);
    - ``nested``: JSON or ``<s_k>`` tag islands exploded to
      dotted/indexed names ``a.b[0].c`` (reference Donut/GPT heads,
      ``kie/donut_runner.py:261-364``, ``azure/gpt_vision_kie.py:455-541``).
    """
    from ..functions.regions import CAPTION_RE

    out: list[Candidate] = []
    for line in (text or "").split("\n"):
        if line.lstrip().startswith("<s_"):
            out.extend(_nested_candidates(line))
            continue
        if CAPTION_RE.match(line):
            # caption regions ("Table 1: …") are figure/table labels, not
            # key-value fields — the reference runs its KIE heads on
            # non-caption regions only
            continue
        m = _KV_RE.match(line)
        if not m:
            continue
        name, value = m.group(1), m.group(2)
        if value.startswith("{") or value.startswith("<s_"):
            out.extend(_nested_candidates(value))
            continue
        out.append(Candidate(name, value, REGEX_SOURCE_CONF, "regex"))
        if _DIGIT_RE.search(value):
            out.append(Candidate(name, value, LAYOUT_SOURCE_CONF, "layout"))
    return out


def anchor_value(text: str, value: str) -> tuple[int, int]:
    """Anchor a fused value back into the extracted text — the exact-
    substring strategy of the reference's field↔text anchoring cascade
    (``pipeline/orchestrator.py:1241-1286``; strategies word/line/cell
    collapse to substring search in a flat-text model). First occurrence
    wins (deterministic); (-1, -1) when the value is not present
    verbatim (e.g. normalized away)."""
    if not value:
        return -1, -1
    i = text.find(value)
    return (i, i + len(value)) if i >= 0 else (-1, -1)


def fields_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    urls = batch.column("url").to_pylist()
    texts = batch.column("extracted_text").to_pylist()
    rows: dict[str, list] = {name: [] for name in FIELDS_SCHEMA.names}
    for url, text in zip(urls, texts):
        cands = candidates_from_text(text)
        if not cands:
            continue
        for f in fuse_fields(cands, cfg.fuse):
            start, end = anchor_value(text or "", f.value)
            rows["url"].append(url)
            rows["name"].append(f.name)
            rows["value"].append(f.value)
            rows["normalized_value"].append(f.normalized_value)
            rows["data_type"].append(f.data_type)
            rows["status"].append(f.status)
            rows["confidence"].append(f.confidence)
            rows["n_candidates"].append(f.n_candidates)
            rows["value_start"].append(start)
            rows["value_end"].append(end)
    return pa.Table.from_arrays(
        [pa.array(rows[n], FIELDS_SCHEMA.field(n).type) for n in FIELDS_SCHEMA.names],
        schema=FIELDS_SCHEMA,
    )


def build_fields_pipeline(extraction_ds, cfg: ExtractConfig | None = None):
    """extraction results → long-format fused-fields table."""
    cfg = cfg or DEFAULT_CONFIG
    return extraction_ds.map_batches(
        lambda t: fields_batch(t, cfg), batch_format="pyarrow", batch_size=256
    )
