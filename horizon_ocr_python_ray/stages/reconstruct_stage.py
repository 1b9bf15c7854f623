"""Reconstruction pipeline: pages → one reconstruction document per
heavy-route row (elements in reading order + table grids + fused
fields), the S9 "reconstruction prompt" output analog
(``/root/reference/docvision/pipeline/orchestrator.py:1374-1412`` +
``io/reconstruction.py``)."""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
# Unused here, but perfbench/replay.py:_targets patches these names on this module.
from ..functions.docformat import decode_doc_payload, decode_image_payload  # noqa: F401
from ..functions.extract_core import lines_to_text_spans
from ..functions.fuse import fuse_fields
from ..functions.layout import recognize_page
from ..functions.reconstruct import build_reconstruction
from ..functions.tables import detect_tables
from .fields_stage import candidates_from_text
from .route import add_heavy_stage, heavy_head_batch

RECONSTRUCTION_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("n_elements", pa.int64()),
    ("n_tables", pa.int64()),
    ("n_fields", pa.int64()),
    ("reconstruction", pa.string()),
])


def reconstruct_rows(route: str, pages: list[dict], cfg: ExtractConfig) -> list[dict]:
    """One reconstruction row per decoded document. Every page is
    recognized, digital ones included: this head never takes the native
    fast path."""
    elements, texts, kinds = [], [], []
    tables_by_page: dict[int, list[dict]] = {}
    for p in pages:
        recognized = recognize_page(p["lines"], cfg.doc, p.get("w"), p.get("h"))
        for idx, li in enumerate(recognized):
            elements.append({"page": int(p["page"]), "bbox": li["bbox"],
                             "text": li["text"], "kind": li["kind"], "idx": idx})
            texts.append(li["text"])
            kinds.append(li["kind"])
        tables_by_page[int(p["page"])] = detect_tables(
            recognized, float(p.get("w") or 0), float(p.get("h") or 0), cfg.tables)
    text, _spans = lines_to_text_spans(texts, kinds)
    fields = fuse_fields(candidates_from_text(text), cfg.fuse)
    return [{
        "n_elements": len(elements),
        "n_tables": sum(len(v) for v in tables_by_page.values()),
        "n_fields": len(fields),
        "reconstruction": build_reconstruction(elements, tables_by_page, fields),
    }]


def reconstruct_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return heavy_head_batch(batch, RECONSTRUCTION_SCHEMA, reconstruct_rows, cfg)


def build_reconstruction_pipeline(pages_ds, cfg: ExtractConfig | None = None):
    cfg = cfg or DEFAULT_CONFIG
    return add_heavy_stage(pages_ds, cfg).map_batches(
        reconstruct_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow",
        batch_size=256,
    )
