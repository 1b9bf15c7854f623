"""Classify-and-route stage: content sniffing + content hash, and the
shared front of every heavy-route (doc/image) head.

``sniff_batch`` is a stateless ``map_batches`` body (pure bytes
inspection — SURVEY.md §7.2): it adds ``route`` and ``content_hash``
columns and never drops or reorders rows. ``add_heavy_stage`` sniffs and
keeps only doc/image rows; ``heavy_head_batch`` decodes each of those
rows once and hands its pages to one head's per-document row function.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions import sniff as sniff_mod
from ..functions.extract_core import decode_pages
from ..functions.sniff import content_hash, sniff_route

HEAVY_ROUTES = (sniff_mod.ROUTE_DOC, sniff_mod.ROUTE_IMAGE)

#: Rows per sniff ``map_batches`` batch.
SNIFF_BATCH_SIZE = 1024


def sniff_batch(batch: pa.Table) -> pa.Table:
    payloads = batch.column("html").to_pylist()
    texts = batch.column("text").to_pylist()
    routes = [sniff_route(p) for p in payloads]
    hashes = [content_hash(p, t) for p, t in zip(payloads, texts)]
    return batch.append_column("route", pa.array(routes, pa.string())).append_column(
        "content_hash", pa.array(hashes, pa.string())
    )


def add_sniff_stage(ds):
    return ds.map_batches(sniff_batch, batch_format="pyarrow", batch_size=SNIFF_BATCH_SIZE)


def heavy_rows(batch: pa.Table) -> pa.Table:
    """A ``map_batches`` body keeping only doc/image rows."""
    return batch.filter(pc.is_in(batch.column("route"), value_set=pa.array(HEAVY_ROUTES)))


def add_heavy_stage(pages_ds):
    """pages dataset → sniffed doc/image rows: the input of every heavy head."""
    return add_sniff_stage(pages_ds).map_batches(heavy_rows, batch_format="pyarrow")


def heavy_head_batch(batch: pa.Table, schema: pa.Schema, row_fn, cfg) -> pa.Table:
    """One heavy head over a sniffed batch → ``schema``'s table.

    Each doc/image row is decoded once (``extract_core.decode_pages``)
    and ``row_fn(route, pages, cfg)`` returns its output rows as dicts
    keyed by the schema's column names (``url`` is added here, and is
    the schema's first column). A payload that fails to decode, or that
    the head fails on, yields zero rows — its error is surfaced by the
    extraction pipeline's per-row error column."""
    cols: dict[str, list] = {n: [] for n in schema.names}
    value_cols = schema.names[1:]
    for url, route, payload in zip(batch.column("url").to_pylist(),
                                   batch.column("route").to_pylist(),
                                   batch.column("html").to_pylist()):
        if route not in HEAVY_ROUTES:
            continue
        try:
            rows = row_fn(route, decode_pages(route, payload or b""), cfg)
        except Exception:
            continue
        cols["url"].extend([url] * len(rows))
        for n in value_cols:
            cols[n].extend([r[n] for r in rows])
    return pa.Table.from_arrays(
        [pa.array(cols[n], schema.field(n).type) for n in schema.names], schema=schema,
    )
