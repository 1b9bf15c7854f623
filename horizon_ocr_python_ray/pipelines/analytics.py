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
import ray.data
from ray.data.aggregate import Sum

from ..functions.collect import top_k
from ..sources.tables import read_sf_table
from ..stages.joins import lookup_join


# Every join below is ``stages/joins.lookup_join``: it measures the build
# side with one capped driver fold and probes it as a broadcast sorted
# lookup under ``BROADCAST_BUILD_MAX_ROWS``, else hash-joins the same
# partials, so each query body is written once over the joined columns.
# Filters and derived columns of the build side apply after the join.


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: partial per-batch aggregate, then a
    small groupby over the partials (combiner pattern — ray_guide
    'Aggregation at scale')."""
    li = read_sf_table(
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
    """Revenue per customer nation: orders ⋈ (customer ⋈ nation), the
    nation name ``UNKNOWN`` for a customer whose nation is missing, then
    the per-batch combiner and a nation-cardinality groupby."""
    cust = lookup_join(
        read_sf_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        read_sf_table(sf_dir, "nation", ["n_nationkey", "n_name"]),
        on=("c_nationkey",), right_on=("n_nationkey",),
        join_type="left_outer", num_partitions=num_partitions)
    joined = lookup_join(
        read_sf_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]), cust,
        on=("o_custkey",), right_on=("c_custkey",), join_type="inner",
        num_partitions=num_partitions)

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table({"n_name": pc.fill_null(t.column("n_name"), "UNKNOWN"),
                       "o_totalprice": t.column("o_totalprice")})
        agg = pa.TableGroupBy(t2, ["n_name"]).aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")])
        return agg.rename_columns(["n_name", "p_rev", "p_n"])

    partials = joined.map_batches(partial, batch_format="pyarrow",
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
    """Global top-k by total price (``collect.top_k``: block-local
    trims, driver merge); never a full sort of the table."""
    orders = read_sf_table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return top_k(orders, [("o_totalprice", "descending"), ("o_orderkey", "ascending")],
                 k, None)


def orders_per_customer_join(sf_dir: str, num_partitions: int = 8):
    """orders ⋈ customer → count + revenue per market segment."""
    joined = lookup_join(
        read_sf_table(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        read_sf_table(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        on=("o_custkey",), right_on=("c_custkey",), join_type="inner",
        num_partitions=num_partitions)

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


def revenue_by_region_q5(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q5-style: revenue per REGION where customer and supplier
    share a nation — the multi-way join demo.

    lineitem streams through three joins — orderkey → customer nation
    (orders ⋈ customer), suppkey → supplier nation, supplier nation →
    region name (nation ⋈ region, ``UNKNOWN`` when missing) — then the
    same-nation filter and the per-batch combiner, so the final groupby
    sees partial sums only. With every build side under the cap this is
    one fused lineitem scan with zero join shuffles.
    """
    region = lookup_join(
        read_sf_table(sf_dir, "nation", ["n_nationkey", "n_regionkey"]),
        read_sf_table(sf_dir, "region", ["r_regionkey", "r_name"]),
        on=("n_regionkey",), right_on=("r_regionkey",), join_type="inner",
        num_partitions=num_partitions)
    ord_nat = lookup_join(
        read_sf_table(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        read_sf_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        on=("o_custkey",), right_on=("c_custkey",), join_type="inner",
        num_partitions=num_partitions)
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    li = lookup_join(li, ord_nat, on=("l_orderkey",), right_on=("o_orderkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
                     on=("l_suppkey",), right_on=("s_suppkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, region, on=("s_nationkey",), right_on=("n_nationkey",),
                     join_type="left_outer", num_partitions=num_partitions)

    def region_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("c_nationkey"), t.column("s_nationkey")))
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        t2 = pa.table({"r_name": pc.fill_null(t.column("r_name"), "UNKNOWN"),
                       "rev": rev})
        agg = pa.TableGroupBy(t2, ["r_name"]).aggregate(
            [("rev", "sum"), ([], "count_all")])
        return agg.rename_columns(["r_name", "p_rev", "p_n"])

    partials = li.map_batches(region_partial, batch_format="pyarrow",
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
    + single-join pattern. The output is one row, so the "shuffle" after
    the combiner is a trivial all-to-one of partial pairs."""
    li = lookup_join(
        read_sf_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]),
        read_sf_table(sf_dir, "part", ["p_partkey", "p_type"]),
        on=("l_partkey",), right_on=("p_partkey",), join_type="inner",
        num_partitions=num_partitions)

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        promo_rev = pc.if_else(pc.equal(t.column("p_type"), "PROMO"), rev,
                               pa.scalar(0.0))
        return pa.Table.from_arrays(
            [pa.array([pc.sum(promo_rev).as_py() or 0.0], pa.float64()),
             pa.array([pc.sum(rev).as_py() or 0.0], pa.float64()),
             pa.array([t.num_rows], pa.int64())],
            names=["p_promo", "p_total", "p_n"],
        )

    out = li.map_batches(partial, batch_format="pyarrow",
                         batch_size=65536).sum(["p_promo", "p_total", "p_n"])
    return pa.Table.from_arrays(
        [pa.array([out["sum(p_promo)"]], pa.float64()),
         pa.array([out["sum(p_total)"]], pa.float64()),
         pa.array([int(out["sum(p_n)"])], pa.int64())],
        names=["promo_revenue", "total_revenue", "n_items"],
    )


def priority_lines_q12(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q12-shaped: lineitem ⋈ orders on orderkey, grouped by
    ``l_returnflag`` with CONDITIONAL counts — urgent/high order
    priority vs the rest (the CASE-WHEN-inside-aggregate pattern over a
    fact-fact join; Q12 proper buckets by shipmode, absent from this
    schema, so priority plays the bucket role). The join feeds the
    per-batch combiner → tiny ``groupby(returnflag).sum``.
    """
    li = lookup_join(
        read_sf_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]),
        read_sf_table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
        on=("l_orderkey",), right_on=("o_orderkey",), join_type="inner",
        num_partitions=num_partitions)
    high_set = pa.array(["1-URGENT", "2-HIGH"])

    def partial(t: pa.Table) -> pa.Table:
        hi = pc.cast(pc.is_in(t.column("o_orderpriority"), value_set=high_set),
                     pa.int64())
        g = pa.table({"l_returnflag": t.column("l_returnflag"),
                      "hi": hi,
                      "lo": pc.subtract(pa.scalar(1, pa.int64()), hi)})
        agg = pa.TableGroupBy(g, "l_returnflag").aggregate(
            [("hi", "sum"), ("lo", "sum")])
        return agg.rename_columns(["l_returnflag", "p_high", "p_low"])

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

    Orders are reduced FIRST (per-batch custkey value-counts →
    ``groupby(custkey).sum``), shrinking the join's build side from
    |orders| rows to |customers-with-orders| before the left-outer join;
    a null count is k = 0. A combiner distribution rollup follows, whose
    final shuffle carries one row per distinct order count.
    """
    orders = read_sf_table(sf_dir, "orders", ["o_custkey"])

    def order_partials(t: pa.Table) -> pa.Table:
        k, c = np.unique(t.column("o_custkey").to_numpy(), return_counts=True)
        return pa.table({"o_custkey": pa.array(k, pa.int64()),
                         "p_n": pa.array(c, pa.int64())})

    counts = (orders.map_batches(order_partials, batch_format="pyarrow")
              .groupby("o_custkey").aggregate(Sum("p_n", alias_name="n_ord")))
    joined = lookup_join(read_sf_table(sf_dir, "customer", ["c_custkey"]), counts,
                         on=("c_custkey",), right_on=("o_custkey",),
                         join_type="left_outer", num_partitions=num_partitions)

    def dist_partial(t: pa.Table) -> pa.Table:
        n = pc.fill_null(t.column("n_ord"), 0).to_numpy(zero_copy_only=False)
        k, c = np.unique(n.astype(np.int64), return_counts=True)
        return pa.table({"c_count": pa.array(k, pa.int64()),
                         "p_d": pa.array(c, pa.int64())})

    dist = (joined.map_batches(dist_partial, batch_format="pyarrow",
                               batch_size=65536)
            .groupby("c_count").aggregate(Sum("p_d", alias_name="custdist")))
    return dist.map_batches(
        lambda t: t.set_column(t.column_names.index("custdist"), "custdist",
                               t.column("custdist").cast(pa.int64())),
        batch_format="pyarrow",
    )
