"""Arrow schemas / shared column types for the extraction engine.

Data-model mapping per SURVEY.md §1: the reference's nested Pydantic tree
becomes flat Arrow columns — ``spans`` is the offset-range analog of the
reference's word/line character spans
(``/root/reference/docvision/azure/doc_intelligence.py:430-462``).
"""

from __future__ import annotations

import pyarrow as pa

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int64()), ("end", pa.int64()), ("kind", pa.string())])
)

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

FIELDS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("name", pa.string()),
        ("value", pa.string()),
        ("normalized_value", pa.string()),
        ("data_type", pa.string()),
        ("status", pa.string()),
        ("confidence", pa.float64()),
        ("n_candidates", pa.int32()),
        # Anchor of the winning value inside extracted_text — the
        # field↔text anchoring join of the reference
        # (``pipeline/orchestrator.py:1180-1302`` exact-substring strategy),
        # expressed as half-open character offsets; (-1, -1) = unanchored.
        ("value_start", pa.int64()),
        ("value_end", pa.int64()),
    ]
)
