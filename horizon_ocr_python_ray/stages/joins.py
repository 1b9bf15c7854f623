"""Hardened hash joins — ``Dataset.join`` wrapped against two Ray Data
(2.49) faults that any filtering pipeline can trigger:

1. **Schema-less empty blocks.** A ``map_batches``/filter that returns a
   zero-row batch yields a block with an EMPTY schema; when such a block
   reaches a hash-join aggregator it fails with ``ArrowInvalid: No match
   or multiple matches for key field reference``. Fix: a bounded
   ``repartition`` on each side rebuilds the block set (empty blocks
   merge away) before the join.
2. **Fully-empty sides.** When a side has NO rows at all, no schema
   survives anywhere and the same crash is unavoidable through the join
   operator. Fix: detect the empty side (both sides are materialized
   first, so the count is free metadata — the join would materialize
   them into its aggregators anyway) and BUILD the degenerate result
   directly: empty typed output for ``inner``, left + null columns for
   ``left_outer``, left unchanged for ``left_anti``. Column layout
   matches Ray's join output exactly (left columns, then the right
   side's non-key columns; the right key columns are dropped).

Schema for the degenerate results comes from the non-empty side plus the
empty side's schema; pass ``left_schema`` / ``right_schema`` (pyarrow)
when the empty side's schema cannot be inferred (every column produced
by a typed projection infers fine; a fully-filtered row-lambda does
not).

:func:`lookup_join` is the join the query pipelines call. It measures
the build (right) side with one capped driver fold and probes it as a
broadcast sorted lookup while it fits :data:`BROADCAST_BUILD_MAX_ROWS`,
else hands the same partial blocks to :func:`safe_join`.

The reference never joins across machines (single-process dicts —
SURVEY.md §4); this is engine infrastructure for the distributed plans.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.collect import fold_capped
from ..state.worker import worker_state

#: Max distinct build-side rows :func:`lookup_join` ships as a broadcast
#: lookup (a 2-column int64 table of this size is ~32 MB — comfortable
#: in driver + worker heaps); past it the join is a hash join.
BROADCAST_BUILD_MAX_ROWS = 2_000_000


def _arrow_schema(ds) -> pa.Schema | None:
    """Best-effort pyarrow schema of a dataset (None when unknowable)."""
    try:
        s = ds.schema(fetch_if_missing=True)
    except Exception:
        return None
    if s is None:
        return None
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    try:
        return pa.schema(list(zip(s.names, s.types)))
    except Exception:
        return None


def safe_join(left, right, *, join_type: str, num_partitions: int,
              on: tuple, right_on: tuple,
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """``Dataset.join`` with the empty-block and empty-side guards above.

    Supported ``join_type``: ``inner``, ``left_outer``, ``left_anti``
    (the ones the engine's plans use). Non-degenerate inputs pay one
    bounded repartition per side — only on plans whose inputs can
    produce empty batches; unfiltered projections may call
    ``Dataset.join`` directly.
    """
    import ray.data as rd

    lm = left.materialize()
    rm = right.materialize()
    n_left, n_right = lm.count(), rm.count()
    if n_left and n_right:
        return lm.repartition(num_partitions).join(
            rm.repartition(num_partitions), join_type=join_type,
            num_partitions=num_partitions, on=on, right_on=right_on)

    # -- degenerate: at least one side is entirely empty ---------------
    ls = left_schema if left_schema is not None else _arrow_schema(lm)
    rs = right_schema if right_schema is not None else _arrow_schema(rm)

    if join_type == "left_anti":
        if n_left == 0:
            if ls is None:
                raise ValueError(
                    "safe_join: empty left side with unknown schema — "
                    "pass left_schema")
            return rd.from_arrow(ls.empty_table())
        return lm  # empty right excludes nothing

    if join_type not in ("inner", "left_outer"):
        raise ValueError(
            f"safe_join: join_type {join_type!r} has no degenerate plan "
            "(empty side); supported: inner, left_outer, left_anti")
    if ls is None or rs is None:
        raise ValueError(
            "safe_join: empty side with unknown schema — pass "
            "left_schema/right_schema so the typed degenerate result "
            "can be built")
    right_keep = [f for f in rs if f.name not in set(right_on)]
    if join_type == "inner" or n_left == 0:
        out_schema = pa.schema(list(ls) + right_keep)
        return rd.from_arrow(out_schema.empty_table())

    # left_outer with empty right: left rows + typed null columns
    def add_null_cols(t: pa.Table) -> pa.Table:
        for f in right_keep:
            t = t.append_column(f, pa.nulls(t.num_rows, f.type))
        return t

    return lm.map_batches(add_null_cols, batch_format="pyarrow")


def _lookup_batch(t: pa.Table, ref, on: str, join_type: str) -> pa.Table:
    """One left batch against the broadcast (sorted keys, value columns)."""
    import ray

    keys, vals = worker_state("lookup_join", ref.hex(), lambda: ray.get(ref))
    probe = t.column(on).to_numpy()
    idx = np.searchsorted(keys, probe)
    hit = idx < len(keys)
    hit[hit] = keys[idx[hit]] == probe[hit]
    if join_type == "left_anti":
        return t.filter(pa.array(~hit))
    if join_type == "inner":
        t, rows = t.filter(pa.array(hit)), pa.array(idx[hit])
    else:
        rows = pa.array(idx, mask=~hit)
    for field, col in zip(vals.schema, vals.columns):
        t = t.append_column(field, col.take(rows))
    return t


def lookup_join(left, right, *, on: tuple, right_on: tuple,
                join_type: str, num_partitions: int):
    """``left`` joined with the distinct rows of ``right`` on one key,
    laid out like :func:`safe_join` (left columns, then right's non-key
    columns). Supported ``join_type``: ``inner``, ``left_outer``,
    ``left_anti``.

    ``right`` is materialized once and folded to its distinct rows on
    the driver (``functions/collect.fold_capped``). Under
    :data:`BROADCAST_BUILD_MAX_ROWS` the rows are sorted by key, shipped
    once with ``ray.put`` and probed by ``searchsorted`` in one
    ``map_batches`` over ``left`` (batches of up to 65536 rows, like the
    query pipelines' own maps, which it fuses with); a
    key that repeats raises ``ValueError``, since a probe keeps one match
    where a hash join keeps all. Past the cap the distinct of the same
    partial blocks goes through :func:`safe_join` with
    ``num_partitions``. Either way ``right``'s upstream runs once."""
    import ray

    if len(on) != 1 or len(right_on) != 1:
        raise ValueError("lookup_join: joins on exactly one key column")
    if join_type not in ("inner", "left_outer", "left_anti"):
        raise ValueError(f"lookup_join: unsupported join_type {join_type!r}")
    right = right.materialize()
    schema = _arrow_schema(right)
    if schema is None:
        raise ValueError("lookup_join: build side has no schema")
    built, rest = fold_capped(right, schema, schema.names, [],
                              BROADCAST_BUILD_MAX_ROWS)
    if rest is not None:
        # the hash join needs equal key types; the probe does not
        left = left.materialize()
        ls = _arrow_schema(left)
        key = pa.field(right_on[0], ls.field(on[0]).type if ls else
                       schema.field(right_on[0]).type)
        schema = schema.set(schema.get_field_index(key.name), key)
        distinct = (rest.groupby(schema.names).count()
                    .drop_columns(["count()"])
                    .map_batches(lambda t: t.cast(schema), batch_format="pyarrow"))
        return safe_join(left, distinct, join_type=join_type,
                         num_partitions=num_partitions, on=on,
                         right_on=right_on, right_schema=schema)

    key = right_on[0]
    built = built.filter(pc.is_valid(built.column(key))).sort_by(key)
    keys = built.column(key).to_numpy()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"lookup_join: build key {key!r} repeats")
    ref = ray.put((keys, built.drop_columns([key])))
    return left.map_batches(_lookup_batch, batch_format="pyarrow",
                            batch_size=65536,
                            fn_kwargs={"ref": ref, "on": on[0],
                                       "join_type": join_type})
