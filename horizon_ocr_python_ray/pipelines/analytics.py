"""Relational demo pipelines over the driver's TPC-H-ish test tables.

These exercise the engine's generic operator surface — vectorized batch
transforms, combiner-before-shuffle grouped aggregates, broadcast hash
joins for small dimension sides, partial top-k — with exact DuckDB SQL
oracles registered in ``__ray_entry__``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Sum

from ..state.worker import worker_state


def _tbl(sf_dir: str, name: str, columns: list[str] | None = None) -> ray.data.Dataset:
    from ..sources.tables import read_sf_table

    return read_sf_table(sf_dir, name, columns)


# --- size-aware join planner ------------------------------------------------
#
# Every join pipeline below carries TWO tested-equal plans and switches on
# the build side's ACTUAL size (parquet footer metadata — free, no scan):
#
# - ``broadcast``: build side ≤ BROADCAST_BUILD_MAX_ROWS → ship it once via
#   ``ray.put`` as sorted key/value numpy arrays and probe with vectorized
#   ``searchsorted`` inside the probe side's combiner batch fn. Zero join
#   shuffles; the only exchange left is the tiny partial-aggregate groupby.
# - ``partitioned``: the hash-partitioned ``Dataset.join`` — the 100-TB
#   path, where no build side fits a worker heap.
#
# Same explicit-switch pattern as the MinHash candidate planner and the
# top-terms vocab guard: the threshold is a named constant, the choice is
# loggable, and correctness never depends on which side of it we land.
# Tests lower the cap to run the partitioned plan.

#: Max build-side rows shipped as a broadcast lookup (a 2-column int64
#: table of this size is ~32 MB — comfortable in driver + worker heaps).
BROADCAST_BUILD_MAX_ROWS = 2_000_000


def _parquet_num_rows(sf_dir: str, name: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, f"{name}.parquet")).metadata.num_rows


def _join_plan(sf_dir: str, build_tables: list[str]) -> str:
    """``"broadcast"`` while every build table fits
    :data:`BROADCAST_BUILD_MAX_ROWS`, else ``"partitioned"``."""
    n = max(_parquet_num_rows(sf_dir, t) for t in build_tables)
    return "broadcast" if n <= BROADCAST_BUILD_MAX_ROWS else "partitioned"


def _sorted_lookup(df: pd.DataFrame, key: str, val: str):
    df = df.sort_values(key)
    return df[key].to_numpy(np.int64), df[val].to_numpy()


def _probe(keys: np.ndarray, vals: np.ndarray, probe: np.ndarray):
    """Vectorized inner-join probe: (found mask, values at probe)."""
    idx = np.clip(np.searchsorted(keys, probe), 0, max(len(keys) - 1, 0))
    mask = keys[idx] == probe if len(keys) else np.zeros(len(probe), bool)
    return mask, vals[idx]


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: partial per-batch aggregate, then a
    small groupby over the partials (combiner pattern — ray_guide
    'Aggregation at scale')."""
    li = _tbl(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )

    def partial(t: pa.Table) -> pa.Table:
        disc_price = pc.multiply(t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        charge = pc.multiply(disc_price, pc.add(pa.scalar(1.0), t.column("l_tax")))
        t2 = pa.Table.from_arrays(
            [t.column("l_returnflag"), t.column("l_linestatus"), t.column("l_quantity"),
             t.column("l_extendedprice"), disc_price, charge],
            names=["l_returnflag", "l_linestatus", "qty", "price", "disc_price", "charge"],
        )
        agg = pa.TableGroupBy(t2, ["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("price", "sum"), ("disc_price", "sum"), ("charge", "sum"), ("qty", "count")]
        )
        return agg.rename_columns(
            ["l_returnflag", "l_linestatus", "p_qty", "p_price", "p_disc", "p_charge", "p_n"]
        )

    partials = li.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_price", alias_name="sum_base_price"),
        Sum("p_disc", alias_name="sum_disc_price"),
        Sum("p_charge", alias_name="sum_charge"),
        Sum("p_n", alias_name="count_order"),
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.column_names.index("count_order"), "count_order",
            t.column("count_order").cast(pa.int64()),
        )

    return out.map_batches(finish, batch_format="pyarrow")


def revenue_by_nation(sf_dir: str, num_partitions: int = 8):
    """Revenue per customer nation. Customer is a FACT-scale side (grows
    with the corpus): the ``partitioned`` plan routes orders⋈customer
    through the hash-partitioned join and broadcasts only nation (a
    bounded 25-row dimension) as a vectorized ``np.searchsorted`` lookup
    (ray_guide 'Joins and lookups'). When customer's measured size is
    under :data:`BROADCAST_BUILD_MAX_ROWS`, the ``broadcast`` plan ships
    a composed custkey→nation-name lookup instead — zero join shuffles,
    one streaming pass over orders."""
    plan = _join_plan(sf_dir, ["customer"])
    nation = _tbl(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nation = nation.sort_values("n_nationkey")
    nkeys = nation["n_nationkey"].to_numpy(np.int64)
    nnames = np.array(nation["n_name"].tolist(), dtype=object)

    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def _rollup(names: np.ndarray, prices) -> pa.Table:
        t2 = pa.Table.from_arrays(
            [pa.array(names.tolist(), pa.string()), prices],
            names=["n_name", "o_totalprice"],
        )
        agg = pa.TableGroupBy(t2, ["n_name"]).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")])
        return agg.rename_columns(["n_name", "p_rev", "p_n"])

    if plan == "broadcast":
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
        cmask, cnat = _probe(nkeys, nnames,
                             cust["c_nationkey"].to_numpy(np.int64))
        cust["n_name"] = np.where(cmask, cnat, "UNKNOWN")
        bref = ray.put(_sorted_lookup(cust, "c_custkey", "n_name"))

        def bc_partial(t: pa.Table) -> pa.Table:
            keys, names = ray.get(bref)
            mask, nm = _probe(keys, names,
                              t.column("o_custkey").to_numpy().astype(np.int64))
            return _rollup(nm[mask], t.column("o_totalprice").filter(
                pa.array(mask)))

        partials = orders.map_batches(bc_partial, batch_format="pyarrow",
                                      batch_size=65536)
    else:
        nref = ray.put((nkeys, nnames))
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        joined = orders.join(
            cust, join_type="inner", num_partitions=num_partitions,
            on=("o_custkey",), right_on=("c_custkey",),
        )

        def nation_partial(t: pa.Table) -> pa.Table:
            keys, names = worker_state("analytics_nation", nref.hex(),
                                       lambda: ray.get(nref))
            nk = t.column("c_nationkey").to_numpy().astype(np.int64)
            mask, nm = _probe(keys, names, nk)
            return _rollup(np.where(mask, nm, "UNKNOWN"), t.column("o_totalprice"))

        partials = joined.map_batches(nation_partial, batch_format="pyarrow",
                                      batch_size=65536)
    out = partials.groupby("n_name").aggregate(
        Sum("p_rev", alias_name="total_revenue"),
        Sum("p_n", alias_name="n_orders"),
    )
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_orders"), "n_orders",
                               t.column("n_orders").cast(pa.int64())),
        batch_format="pyarrow",
    )


def top_orders(sf_dir: str, k: int = 10):
    """Global top-k by total price — per-batch partial top-k, then a tiny
    driver-side merge; never a full sort of the table."""
    orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def partial_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.Table.from_pandas(
            df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k),
            preserve_index=False,
        )

    partials = orders.map_batches(partial_topk, batch_format="pyarrow", batch_size=65536)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k)
        return df.reset_index(drop=True)

    merged = merge(partials.to_pandas())
    merged["rank"] = np.arange(1, len(merged) + 1, dtype=np.int64)
    return merged


def orders_per_customer_join(sf_dir: str, num_partitions: int = 8):
    """orders ⋈ customer → count + revenue per market segment. Plan
    switch per the size-aware planner: hash-partitioned ``Dataset.join``
    when customer is fact-scale, broadcast custkey→segment lookup when
    its measured size fits the bound."""
    plan = _join_plan(sf_dir, ["customer"])
    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    if plan == "broadcast":
        cust_df = _tbl(sf_dir, "customer",
                       ["c_custkey", "c_mktsegment"]).to_pandas()
        bref = ray.put(_sorted_lookup(cust_df, "c_custkey", "c_mktsegment"))

        def partial(t: pa.Table) -> pa.Table:
            keys, segs = ray.get(bref)
            mask, sg = _probe(keys, segs,
                              t.column("o_custkey").to_numpy().astype(np.int64))
            t2 = pa.Table.from_arrays(
                [pa.array(sg[mask].tolist(), pa.string()),
                 t.column("o_totalprice").filter(pa.array(mask))],
                names=["c_mktsegment", "o_totalprice"])
            agg = pa.TableGroupBy(t2, ["c_mktsegment"]).aggregate(
                [("o_totalprice", "sum"), ("o_totalprice", "count")])
            return agg.rename_columns(["c_mktsegment", "p_rev", "p_n"])

        joined = orders
    else:
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        joined = orders.join(
            cust, join_type="inner", num_partitions=num_partitions,
            on=("o_custkey",), right_on=("c_custkey",),
        )

        def partial(t: pa.Table) -> pa.Table:
            agg = pa.TableGroupBy(
                t.select(["c_mktsegment", "o_totalprice"]),
                ["c_mktsegment"]).aggregate(
                [("o_totalprice", "sum"), ("o_totalprice", "count")]
            )
            return agg.rename_columns(["c_mktsegment", "p_rev", "p_n"])

    out = joined.map_batches(partial, batch_format="pyarrow").groupby("c_mktsegment").aggregate(
        Sum("p_rev", alias_name="total_revenue"),
        Sum("p_n", alias_name="n_orders"),
    )
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_orders"), "n_orders",
                               t.column("n_orders").cast(pa.int64())),
        batch_format="pyarrow",
    )


def q6_filtered_revenue(sf_dir: str):
    """TPC-H Q6-style selective aggregate with ROW-GROUP PUSHDOWN: the
    predicate is handed to ``read_parquet`` as a pyarrow dataset
    expression, so non-matching row groups never leave storage (and only
    four columns are read at all). The aggregate is a per-batch partial
    sum folded by a tiny global groupby on a constant key."""
    from ..sources.tables import clean_schema

    _path = os.path.join(sf_dir, "lineitem.parquet")
    _cols = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
    li = ray.data.read_parquet(
        _path,
        columns=_cols,
        schema=clean_schema(_path, _cols),
        filter=(
            (pc.field("l_shipdate") >= pa.scalar(pd.Timestamp("1996-01-01")))
            & (pc.field("l_shipdate") < pa.scalar(pd.Timestamp("1997-01-01")))
            & (pc.field("l_discount") >= pa.scalar(0.05))
            & (pc.field("l_discount") <= pa.scalar(0.07))
            & (pc.field("l_quantity") < pa.scalar(24.0))
        ),
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.sum(pc.multiply(t.column("l_extendedprice"), t.column("l_discount"))).as_py() or 0.0
        return pa.Table.from_arrays(
            [pa.array([0], pa.int64()), pa.array([rev], pa.float64()),
             pa.array([t.num_rows], pa.int64())],
            names=["k", "p_rev", "p_n"],
        )

    out = li.map_batches(partial, batch_format="pyarrow").groupby("k").aggregate(
        Sum("p_rev", alias_name="revenue"),
        Sum("p_n", alias_name="n_rows"),
    )

    def finish(t: pa.Table) -> pa.Table:
        e2 = pc.cast(pc.round(pc.multiply(t.column("revenue"), 100.0)), pa.int64())
        return pa.Table.from_arrays(
            [e2, t.column("n_rows").cast(pa.int64())],
            names=["revenue_e2", "n_rows"],
        )

    return out.map_batches(finish, batch_format="pyarrow")


def _revenue_by_region_broadcast(sf_dir: str, nref):
    """Q5 broadcast plan: driver-composed orderkey→customer-nation map +
    supplier lookup, one streaming pass over lineitem, zero join
    shuffles. Chosen by the size-aware planner only when orders /
    customer / supplier all fit :data:`BROADCAST_BUILD_MAX_ROWS`."""
    odf = _tbl(sf_dir, "orders", ["o_orderkey", "o_custkey"]).to_pandas()
    cdf = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    ckeys, cnat = _sorted_lookup(cdf, "c_custkey", "c_nationkey")
    m, nat = _probe(ckeys, cnat, odf["o_custkey"].to_numpy(np.int64))
    odf = pd.DataFrame({"o_orderkey": odf["o_orderkey"].to_numpy(np.int64)[m],
                        "c_nationkey": nat[m].astype(np.int64)})
    oref = ray.put(_sorted_lookup(odf, "o_orderkey", "c_nationkey"))
    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    sref = ray.put(_sorted_lookup(sdf, "s_suppkey", "s_nationkey"))

    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        okeys, onat = ray.get(oref)
        skeys, snat = ray.get(sref)
        nkeys, rnames = ray.get(nref)
        m1, cn = _probe(okeys, onat,
                        t.column("l_orderkey").to_numpy().astype(np.int64))
        m2, sn = _probe(skeys, snat,
                        t.column("l_suppkey").to_numpy().astype(np.int64))
        keep = m1 & m2 & (cn.astype(np.int64) == sn.astype(np.int64))
        if not keep.any():
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.float64()),
                 pa.array([], pa.int64())],
                names=["r_name", "p_rev", "p_n"])
        mr, rn = _probe(nkeys, rnames, sn[keep].astype(np.int64))
        rname = np.where(mr, rn, "UNKNOWN")
        sel = pa.array(keep)
        rev = pc.multiply(
            t.column("l_extendedprice").filter(sel),
            pc.subtract(pa.scalar(1.0), t.column("l_discount").filter(sel)))
        t2 = pa.Table.from_arrays(
            [pa.array(rname.tolist(), pa.string()), rev],
            names=["r_name", "rev"])
        agg = pa.TableGroupBy(t2, ["r_name"]).aggregate(
            [("rev", "sum"), ([], "count_all")])
        return agg.rename_columns(["r_name", "p_rev", "p_n"])

    out = (li.map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("r_name").aggregate(
               Sum("p_rev", alias_name="revenue"),
               Sum("p_n", alias_name="n_items")))
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_items"), "n_items",
                               t.column("n_items").cast(pa.int64())),
        batch_format="pyarrow",
    )


def revenue_by_region_q5(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q5-style: revenue per REGION where customer and supplier
    share a nation — the multi-way join demo.

    ``partitioned`` plan (the 100-TB shape, smallest-state-first):
    - nation→region is a bounded 25-row dimension chain → broadcast as a
      numpy lookup (``ray.put`` once, ``searchsorted`` per batch);
    - orders⋈customer and lineitem⋈supplier run as partitioned hash
      joins on their natural keys, each projecting ONLY the columns the
      next step needs (orderkey + nationkey; orderkey + nationkey +
      revenue);
    - the two fact streams meet in a third hash join on ``l_orderkey``,
      the same-nation filter applies vectorized, and the rollup uses the
      per-batch combiner so the final groupby sees partial sums only.

    ``broadcast`` plan (all three build sides under the bound): the
    orderkey→customer-nation map is composed on the driver (orders ⋈
    customer is two sorted-array probes), supplier is a second lookup,
    and lineitem streams through ONE ``map_batches`` with zero join
    shuffles — three hash exchanges collapse into broadcast state.
    """
    plan = _join_plan(sf_dir, ["orders", "customer", "supplier"])
    nation = _tbl(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _tbl(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nation = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    nation = nation.sort_values("n_nationkey")
    nref = ray.put((nation["n_nationkey"].to_numpy(np.int64),
                    np.array(nation["r_name"].tolist(), dtype=object)))

    if plan == "broadcast":
        return _revenue_by_region_broadcast(sf_dir, nref)

    orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ord_nat = orders.join(
        cust, join_type="inner", num_partitions=num_partitions,
        on=("o_custkey",), right_on=("c_custkey",),
    ).select_columns(["o_orderkey", "c_nationkey"])

    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    supp = _tbl(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    li_nat = li.join(
        supp, join_type="inner", num_partitions=num_partitions,
        on=("l_suppkey",), right_on=("s_suppkey",),
    ).select_columns(["l_orderkey", "s_nationkey", "l_extendedprice", "l_discount"])

    both = li_nat.join(
        ord_nat, join_type="inner", num_partitions=num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )

    def region_partial(t: pa.Table) -> pa.Table:
        keys, regions = worker_state("analytics_region", nref.hex(),
                                     lambda: ray.get(nref))
        same = pc.equal(t.column("c_nationkey"), t.column("s_nationkey"))
        t = t.filter(same)
        if not t.num_rows:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.float64()),
                 pa.array([], pa.int64())],
                names=["r_name", "p_rev", "p_n"])
        nk = t.column("s_nationkey").to_numpy().astype(np.int64)
        idx = np.clip(np.searchsorted(keys, nk), 0, len(keys) - 1)
        rname = np.where(keys[idx] == nk, regions[idx], "UNKNOWN")
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        t2 = pa.Table.from_arrays(
            [pa.array(rname.tolist(), pa.string()), rev],
            names=["r_name", "rev"])
        agg = pa.TableGroupBy(t2, ["r_name"]).aggregate(
            [("rev", "sum"), ([], "count_all")])
        return agg.rename_columns(["r_name", "p_rev", "p_n"])

    partials = both.map_batches(region_partial, batch_format="pyarrow",
                                batch_size=65536)
    out = partials.groupby("r_name").aggregate(
        Sum("p_rev", alias_name="revenue"),
        Sum("p_n", alias_name="n_items"),
    )
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_items"), "n_items",
                               t.column("n_items").cast(pa.int64())),
        batch_format="pyarrow",
    )


def promo_revenue_q14(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q14-style promo-revenue share: lineitem ⋈ part with the
    promo flag folded into the partial aggregate — the conditional-sum
    + single-join pattern. Plan switch per the size-aware planner: when
    part outgrows the bound the join is the hash-partitioned
    ``Dataset.join``; otherwise a broadcast partkey→is-promo bool lookup
    removes the join shuffle entirely. The output is one row, so the
    "shuffle" after the combiner is a trivial all-to-one of partial
    pairs."""
    plan = _join_plan(sf_dir, ["part"])
    li = _tbl(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def _sums(rev, promo_mask, n) -> pa.Table:
        promo_rev = pc.if_else(promo_mask, rev, pa.scalar(0.0))
        return pa.Table.from_arrays(
            [pa.array([pc.sum(promo_rev).as_py() or 0.0], pa.float64()),
             pa.array([pc.sum(rev).as_py() or 0.0], pa.float64()),
             pa.array([n], pa.int64())],
            names=["p_promo", "p_total", "p_n"],
        )

    if plan == "broadcast":
        part_df = _tbl(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
        part_df["is_promo"] = part_df["p_type"].eq("PROMO")
        bref = ray.put(_sorted_lookup(part_df, "p_partkey", "is_promo"))

        def partial(t: pa.Table) -> pa.Table:
            keys, promo = ray.get(bref)
            mask, pr = _probe(keys, promo,
                              t.column("l_partkey").to_numpy().astype(np.int64))
            sel = pa.array(mask)
            rev = pc.multiply(
                t.column("l_extendedprice").filter(sel),
                pc.subtract(pa.scalar(1.0), t.column("l_discount").filter(sel)))
            return _sums(rev, pa.array(pr[mask].astype(bool)), int(mask.sum()))
    else:
        part = _tbl(sf_dir, "part", ["p_partkey", "p_type"])
        li = li.join(
            part, join_type="inner", num_partitions=num_partitions,
            on=("l_partkey",), right_on=("p_partkey",),
        )

        def partial(t: pa.Table) -> pa.Table:
            rev = pc.multiply(t.column("l_extendedprice"),
                              pc.subtract(pa.scalar(1.0), t.column("l_discount")))
            return _sums(rev, pc.equal(t.column("p_type"), "PROMO"), t.num_rows)

    partials = li.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = partials.sum(["p_promo", "p_total", "p_n"])
    import pyarrow as _pa

    return _pa.Table.from_arrays(
        [_pa.array([out["sum(p_promo)"]], _pa.float64()),
         _pa.array([out["sum(p_total)"]], _pa.float64()),
         _pa.array([int(out["sum(p_n)"])], _pa.int64())],
        names=["promo_revenue", "total_revenue", "n_items"],
    )


def priority_lines_q12(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q12-shaped: lineitem ⋈ orders on orderkey, grouped by
    ``l_returnflag`` with CONDITIONAL counts — urgent/high order
    priority vs the rest (the CASE-WHEN-inside-aggregate pattern over a
    fact-fact join; Q12 proper buckets by shipmode, absent from this
    schema, so priority plays the bucket role).

    Plans per the size-aware planner (orders is the build side):
    ``broadcast`` composes a sorted orderkey→is_high boolean lookup on
    the driver and lineitem streams through one ``map_batches`` with
    zero join shuffles; ``partitioned`` runs the native hash join. Both
    end in the per-batch combiner → tiny ``groupby(returnflag).sum``.
    """
    plan = _join_plan(sf_dir, ["orders"])
    li = _tbl(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
    high_set = ("1-URGENT", "2-HIGH")

    if plan == "broadcast":
        odf = (_tbl(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
               .to_pandas().sort_values("o_orderkey"))
        ref = ray.put((odf["o_orderkey"].to_numpy(np.int64),
                       odf["o_orderpriority"].isin(high_set).to_numpy()))

        def partial(t: pa.Table) -> pa.Table:
            keys, is_high = ray.get(ref)
            idx = np.searchsorted(keys, t.column("l_orderkey").to_numpy())
            hi = is_high[idx].astype(np.int64)  # FK-complete by schema
            g = pa.table({"l_returnflag": t.column("l_returnflag"),
                          "hi": pa.array(hi, pa.int64()),
                          "lo": pa.array(1 - hi, pa.int64())})
            agg = pa.TableGroupBy(g, "l_returnflag").aggregate(
                [("hi", "sum"), ("lo", "sum")])
            return agg.rename_columns(["l_returnflag", "p_high", "p_low"])
    else:
        orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
        li = li.join(orders, join_type="inner", num_partitions=num_partitions,
                     on=("l_orderkey",), right_on=("o_orderkey",))

        def partial(t: pa.Table) -> pa.Table:
            hi = pc.cast(pc.is_in(t.column("o_orderpriority"),
                                  value_set=pa.array(high_set)), pa.int64())
            g = pa.table({"l_returnflag": t.column("l_returnflag"),
                          "hi": hi,
                          "lo": pc.subtract(pa.scalar(1, pa.int64()), hi)})
            agg = pa.TableGroupBy(g, "l_returnflag").aggregate(
                [("hi", "sum"), ("lo", "sum")])
            return agg.rename_columns(["l_returnflag", "p_high", "p_low"])

    from ray.data.aggregate import Sum

    partials = li.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    out = (partials.groupby("l_returnflag")
           .aggregate(Sum("p_high", alias_name="high_line_count"),
                      Sum("p_low", alias_name="low_line_count")))
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("l_returnflag"),
             t.column("high_line_count").cast(pa.int64()),
             t.column("low_line_count").cast(pa.int64())],
            names=["l_returnflag", "high_line_count", "low_line_count"]),
        batch_format="pyarrow",
    )


def cust_order_dist_q13(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q13 shape: how many customers placed exactly k orders,
    k = 0 included — the LEFT OUTER join surface (customers with no
    orders must survive the join as nulls and land in the k=0 bucket).

    Plan: orders are reduced FIRST (per-batch custkey value-counts →
    ``groupby(custkey).sum``), shrinking the join's build side from
    |orders| rows to |customers-with-orders| before the wide op. Then,
    by the size-aware planner: ``broadcast`` probes the reduced counts
    from a ``ray.put`` sorted array inside the customer scan (a missed
    probe IS the k=0 case — outer-join semantics for free, no join
    operator); ``partitioned`` runs the real hash-partitioned
    ``join_type="left_outer"`` + null→0. Both end in a combiner
    distribution rollup whose final shuffle carries one row per
    distinct order count; plans are tested equal.
    """
    plan = _join_plan(sf_dir, ["orders"])
    orders = _tbl(sf_dir, "orders", ["o_custkey"])

    def order_partials(t: pa.Table) -> pa.Table:
        k, c = np.unique(t.column("o_custkey").to_numpy(), return_counts=True)
        return pa.table({"o_custkey": pa.array(k, pa.int64()),
                         "p_n": pa.array(c, pa.int64())})

    counts = (orders.map_batches(order_partials, batch_format="pyarrow")
              .groupby("o_custkey").aggregate(Sum("p_n", alias_name="n_ord")))
    cust = _tbl(sf_dir, "customer", ["c_custkey"])

    def dist_from_counts(n: np.ndarray) -> pa.Table:
        k, c = np.unique(n, return_counts=True)
        return pa.table({"c_count": pa.array(k, pa.int64()),
                         "p_d": pa.array(c, pa.int64())})

    if plan == "broadcast":
        import ray

        cdf = counts.to_pandas()
        ref = ray.put(_sorted_lookup(cdf, "o_custkey", "n_ord"))

        def bc_partial(t: pa.Table) -> pa.Table:
            keys, vals = ray.get(ref)
            mask, v = _probe(keys, vals.astype(np.int64),
                             t.column("c_custkey").to_numpy().astype(np.int64))
            return dist_from_counts(np.where(mask, v, 0).astype(np.int64))

        partials = cust.map_batches(bc_partial, batch_format="pyarrow",
                                    batch_size=65536)
    else:
        joined = cust.join(counts, join_type="left_outer",
                           num_partitions=num_partitions,
                           on=("c_custkey",), right_on=("o_custkey",))

        def dist_partial(t: pa.Table) -> pa.Table:
            n = pc.fill_null(t.column("n_ord"), 0).to_numpy(zero_copy_only=False)
            return dist_from_counts(n.astype(np.int64))

        partials = joined.map_batches(dist_partial, batch_format="pyarrow")

    dist = partials.groupby("c_count").aggregate(Sum("p_d", alias_name="custdist"))
    return dist.map_batches(
        lambda t: t.set_column(t.column_names.index("custdist"), "custdist",
                               t.column("custdist").cast(pa.int64())),
        batch_format="pyarrow",
    )


# Hardened join (empty-block repartition + fully-empty-side degenerate
# plans) lives with the other engine-infrastructure stages; re-exported
# here for the query pipelines.
from ..stages.joins import safe_join  # noqa: E402,F401
