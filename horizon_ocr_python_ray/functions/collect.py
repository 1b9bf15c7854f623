"""Driver-side collection: the one fold-and-cap rule and the one top-k
rule.

A driver fold streams a Dataset's partial blocks once, merges them on
the driver and stops at a named module cap. :func:`fold_capped` is the
only implementation of that rule:

- blocks stream through ``iter_internal_ref_bundles()`` (one execution)
  and the driver keeps each block's ref;
- with group keys, every :data:`FOLD_EVERY` tables (sooner once the
  rows pending since the last fold pass the cap) a pyarrow
  ``group_by(keys).aggregate(aggs)`` merges them, and the cap bounds the
  folded (distinct-key) rows; without keys the tables are only
  concatenated and the cap bounds their rows;
- under the cap the caller gets the folded Table; past it, a Dataset
  over the same partial blocks (those already pulled and the rest of
  the stream), so the caller's distributed plan consumes the partials
  instead of re-running the upstream map.

"The first k rows under a total order" (per group) is :func:`top_k`,
the only implementation of a distributed top-k:

- a ``map_batches`` that Ray fuses into the caller's scoring map trims
  each block to its first k rows per group with one ``sort_indices``;
- the trimmed blocks stream once and the driver re-trims every
  :data:`FOLD_EVERY` tables, so it holds at most
  ``(FOLD_EVERY + 1) · k`` rows per group;
- the result is a Table in order with a 1-based per-group ``rank``.

The other helpers collect results that are small by construction.
``Dataset.to_arrow_refs()`` (ray 2.49) is avoided throughout: after
consuming the ref bundles it calls ``self.schema(fetch_if_missing=True)``,
which on a non-materialized Dataset re-runs a ``limit=1`` plan of the
whole upstream just to re-derive a schema.
"""
from __future__ import annotations

from typing import Iterator, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: Partial tables the driver holds before it folds them.
FOLD_EVERY = 64


def iter_tables(ds) -> Iterator[pa.Table]:
    """Yield every non-empty block of ``ds`` as a pyarrow Table — ONE
    streaming execution, no schema re-fetch. Blocks are fetched bundle
    by bundle so the driver never holds refs it has not consumed."""
    import ray
    from ray.data.block import BlockAccessor

    for bundle in ds.iter_internal_ref_bundles():
        for block in ray.get(list(bundle.block_refs)):
            tbl = BlockAccessor.for_block(block).to_arrow()
            if tbl.num_rows:
                yield tbl


def collect_block_refs(ds) -> list:
    """Object refs of every block of ``ds`` (arrow blocks stay in the
    object store; the driver holds only refs) — the ref-shipping
    counterpart of :func:`collect_tables`, again minus
    ``to_arrow_refs``'s limit-1 schema re-execution.

    Contract: blocks ship AS STORED (zero-copy); unlike
    ``to_arrow_refs`` there is no driver-side pandas→arrow conversion
    step. Consumers that ``ray.get`` these refs must normalize with
    :func:`as_arrow_table` (identity for the pyarrow blocks every stage
    in this repo emits)."""
    return [br for bundle in ds.iter_internal_ref_bundles()
            for br in bundle.block_refs]


def as_arrow_table(block) -> pa.Table:
    """Normalize one fetched block to a pyarrow Table (zero-copy
    identity for arrow blocks, converts pandas blocks)."""
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def collect_tables(ds) -> List[pa.Table]:
    """All non-empty blocks of ``ds`` as pyarrow Tables (driver-side).
    Drop-in replacement for ``[t for t in ray.get(ds.to_arrow_refs())
    if t.num_rows]`` minus the limit-1 upstream re-execution."""
    return list(iter_tables(ds))


def collect_table(ds, schema: pa.Schema | None = None) -> pa.Table:
    """Concatenate every block of ``ds`` into one driver-side Table.
    ``schema`` supplies the result layout when the dataset is empty."""
    tables = collect_tables(ds)
    if not tables:
        if schema is None:
            raise ValueError("collect_table on an empty dataset needs an explicit schema")
        return schema.empty_table()
    return pa.concat_tables(tables).combine_chunks()


def fold_capped(ds, schema: pa.Schema, keys: list[str] | None,
                aggs: list[tuple[str, str]] | None, cap: int):
    """Fold the partial blocks of ``ds`` on the driver under ``cap``.

    ``schema`` is the partials' layout. With ``keys``, each
    ``(column, fn)`` of ``aggs`` is a pyarrow hash aggregate whose result
    is written back to ``column``, so a folded table is itself a partial
    in ``schema`` (``aggs=[]`` is a distinct); the cap bounds the
    distinct keys. With ``keys=None`` blocks are concatenated as they
    come and the cap bounds the rows.

    Returns ``(table, None)`` when the result fits (``schema``'s empty
    table for an empty ``ds``), else ``(None, rest)`` where ``rest`` is
    a Dataset over every partial block of ``ds``."""
    import ray.data
    from ray.data.block import BlockAccessor

    def fold(tables: list[pa.Table]) -> pa.Table:
        if keys is None:
            return pa.concat_tables(tables)
        out = pa.concat_tables(tables).group_by(keys).aggregate(aggs)
        cols = {k: out.column(k) for k in keys}
        cols.update((c, out.column(f"{c}_{fn}")) for c, fn in aggs)
        return pa.table([cols[n] for n in schema.names], schema=schema)

    refs: list = []
    acc: list[pa.Table] = []
    rows = pending = 0  # rows: held (keys=None) or folded (keys) rows
    bundles = ds.iter_internal_ref_bundles()
    for bundle in bundles:
        block_refs = list(bundle.block_refs)
        refs += block_refs
        for block in ray.get(block_refs):
            t = BlockAccessor.for_block(block).to_arrow()
            if not t.num_rows:
                continue
            acc.append(t)
            pending += t.num_rows
            if keys is None:
                rows = pending
            elif len(acc) > FOLD_EVERY or pending > cap:
                acc, pending = [fold(acc)], 0
                rows = acc[0].num_rows
            if rows > cap:
                refs += [r for b in bundles for r in b.block_refs]
                return None, ray.data.from_arrow_refs(refs)
    if not acc:
        return schema.empty_table(), None
    out = fold(acc) if pending else acc[0]
    if out.num_rows > cap:
        return None, ray.data.from_arrow_refs(refs)
    return out, None


def _first_k(t: pa.Table, keys: list[tuple[str, str]], group: str | None,
             k: int) -> tuple[pa.Table, np.ndarray]:
    """``t`` sorted by ``keys`` (the group column first, if any) and cut
    to the first ``k`` rows per group, with each kept row's 0-based
    position in its group."""
    if not t.num_rows:
        return t, np.zeros(0, np.int64)
    idx = pc.sort_indices(t, sort_keys=keys)
    if group is None:
        idx = idx[:k]
        pos = np.arange(len(idx))
    else:
        g = t.column(group).take(idx).to_numpy()
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        pos = np.arange(len(g)) - np.repeat(starts, np.diff(np.r_[starts, len(g)]))
        keep = pos < k
        idx, pos = idx.filter(pa.array(keep)), pos[keep]
    return t.take(idx), pos


def top_k(ds, order: list[tuple[str, str]], k: int,
          group: str | None) -> pa.Table:
    """The first ``k`` rows of ``ds`` under ``order``, per value of the
    ``group`` column when it is not ``None``.

    ``order`` is a pyarrow sort-key list ``[(column, "ascending" |
    "descending")]`` ending in a unique key, so the answer does not
    depend on how the rows are sharded. ``ds`` is a Dataset, or a Table
    already on the driver (a folded table, or ranked results to merge
    once their ``rank`` is dropped).

    Returns a Table sorted by the group, then ``order``, with a 1-based
    int64 ``rank`` within each group. For an empty Dataset that is the
    empty table of ``ds.schema()`` (a ``limit(1)`` run of the upstream,
    only in that case), or of null-typed key columns when Ray knows no
    schema (a map that never saw a row), plus ``rank``."""
    keys = ([(group, "ascending")] if group is not None else []) + list(order)
    if isinstance(ds, pa.Table):
        acc = [ds]
    else:
        acc = []
        trimmed = ds.map_batches(lambda t: _first_k(t, keys, group, k)[0],
                                 batch_format="pyarrow")
        for t in iter_tables(trimmed):
            # one output block can hold several trimmed batches
            acc.append(t if t.num_rows <= k else _first_k(t, keys, group, k)[0])
            if len(acc) > FOLD_EVERY:
                acc = [_first_k(pa.concat_tables(acc), keys, group, k)[0]]
        if not acc:
            sch = ds.schema()
            acc = [sch.base_schema.empty_table() if sch is not None
                   else pa.table({c: pa.array([], pa.null()) for c, _ in keys})]
    out, pos = _first_k(pa.concat_tables(acc), keys, group, k)
    return out.append_column("rank", pa.array(pos + 1, pa.int64()))
