"""Decorrelated-subquery pipelines over the TPC-H-ish driver tables.

The reference engine never needs these shapes (its joins are all
within one document — SURVEY.md §2.4), but a general data-processing
engine does, and each one exercises a distinct decorrelation pattern
that the per-document forms (J1–J6, G1–G5) only cover locally:

- ``orders_exists_q4``    — EXISTS semi-join (Q4 shape)
- ``top_supplier_q15``    — argmax over an aggregate (Q15 view + max)
- ``part_small_qty_q17``  — correlated per-group AVG subquery,
                            decorrelated to aggregate + join-back (Q17)
- ``big_orders_q18``      — HAVING-filtered group join-back (Q18)
- ``cust_idle_q22``       — global scalar subquery + anti-join (Q22)
- ``min_cost_supplier_q2``       — argmin-per-group join-back (Q2)
- ``nation_volume_q7``           — two-nation pair volume, one fact pass (Q7)
- ``market_share_q8``            — conditional/total rational pair (Q8)
- ``nation_profit_q9``           — LIKE-filter star rollup (Q9)
- ``returned_top_customers_q10`` — returned-item top-k (Q10)
- ``important_parts_q11``        — group vs global-scalar fraction (Q11)
- ``supplier_cnt_q16``           — grouped distinct-count + anti-set (Q16)
- ``disjunctive_revenue_q19``    — OR-of-ANDs join predicate (Q19)
- ``concentrated_suppliers_q20`` — nested semi-join chain (Q20)
- ``waiting_supplier_q21``       — double EXISTS / NOT EXISTS (Q21)
- ``cust_year_orders_fullouter`` — FULL OUTER as union-tagged aggregates
- ``doc_lang_moments``           — grouped moment sufficient statistics

Together with Q1/Q3/Q5/Q6/Q12/Q13/Q14 in ``pipelines/analytics.py``,
every TPC-H query shape (Q1–Q22) has an analog on this engine.

Money/quantity math follows the repo's fixed-point-before-summing
contract (``stages/vecagg.py``): scale doubles to integers FIRST
(``price_e2 = round(p*100)``), so every sum is order-independent
integer addition and the DuckDB oracle compares bit-equal — no
rounded-double ulp hazard (ADVICE.md round-1 finding).

Every join is ``stages/joins.lookup_join``: a broadcast sorted lookup
probed inside the stream while the build side's measured distinct rows
fit ``BROADCAST_BUILD_MAX_ROWS``, else a hash-partitioned join over the
same partials. The tests lower that cap to run the hash join and
compare it row for row.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Sum

from ..functions.collect import collect_table, fold_capped, top_k
from ..sources.tables import clean_schema, read_sf_table
from ..stages.joins import lookup_join

_TS = lambda s: pa.scalar(pd.Timestamp(s))  # noqa: E731


def _e2(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """round(x*100) → int64 — the exact fixed-point projection."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def _rev_e4(t: pa.Table) -> pa.ChunkedArray:
    """``price_e2 · (100 − disc_e2)``: exact int64 e4 line revenue."""
    return pc.multiply(_e2(t.column("l_extendedprice")),
                       pc.subtract(pa.scalar(100, pa.int64()),
                                   _e2(t.column("l_discount"))))


# ---------------------------------------------------------------------------
# Q4 shape: EXISTS semi-join
# ---------------------------------------------------------------------------

def orders_exists_q4(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q4 shape: count 1996 orders per priority where EXISTS a
    returned lineitem (``l_returnflag = 'R'``; this schema has no
    commitdate/receiptdate, so the returned flag plays the "late"
    predicate role).

    Decorrelation: the EXISTS side is reduced to per-batch distinct
    orderkeys, and the join keeps its distinct rows, so the semi-join is
    an inner join against a deduped build side that adds no columns.
    """
    li = read_sf_table(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def returned_partial(t: pa.Table) -> pa.Table:
        keys = t.filter(pc.equal(t.column("l_returnflag"), "R")).column("l_orderkey")
        return pa.table({"l_orderkey": pa.array(
            np.unique(keys.to_numpy()), pa.int64())})

    orders = read_sf_table(sf_dir, "orders",
                           ["o_orderkey", "o_orderpriority", "o_orderdate"])
    lo, hi = _TS("1996-01-01"), _TS("1997-01-01")

    def in_window(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        return t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))

    def count_by_priority(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t.select(["o_orderpriority"]),
                              "o_orderpriority").aggregate([([], "count_all")])
        return agg.rename_columns(["o_orderpriority", "p_n"])

    joined = lookup_join(
        orders.map_batches(in_window, batch_format="pyarrow"),
        li.map_batches(returned_partial, batch_format="pyarrow"),
        on=("o_orderkey",), right_on=("l_orderkey",), join_type="inner",
        num_partitions=num_partitions)
    out = (joined.map_batches(count_by_priority, batch_format="pyarrow",
                              batch_size=65536)
           .groupby("o_orderpriority").aggregate(Sum("p_n", alias_name="order_count")))
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("order_count"),
                               "order_count",
                               t.column("order_count").cast(pa.int64())),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q15 shape: argmax over an aggregate
# ---------------------------------------------------------------------------

_Q15_PARTIAL_SCHEMA = pa.schema([("l_suppkey", pa.int64()), ("p_rev", pa.int64())])


def _q15_rev_partial(t: pa.Table) -> pa.Table:
    """Batch combiner: (l_suppkey, p_rev) e4 revenue of the 1996-Q1 lines."""
    d = t.column("l_shipdate")
    t = t.filter(pc.and_(pc.greater_equal(d, _TS("1996-01-01")),
                         pc.less(d, _TS("1996-04-01"))))
    g = pa.table({"l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                  "p_rev": _rev_e4(t)})
    agg = pa.TableGroupBy(g, "l_suppkey").aggregate([("p_rev", "sum")])
    return agg.rename_columns(["l_suppkey", "p_rev"])


def top_supplier_q15(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q15 shape: per-supplier revenue over one quarter, return
    the supplier(s) achieving the GLOBAL max (the view + scalar-max
    subquery, decorrelated to aggregate → max → filter → name join).

    Revenue is exact int64 e4 fixed point (``price_e2 × (100 −
    disc_e2)``), so the argmax is well-defined and bit-equal to the
    oracle — no float-sum tie hazard. The per-supplier partials fold on
    the driver under :data:`HAVING_FOLD_MAX_KEYS` (supplier-dimension
    cardinality), so lineitem is scanned once and the max and the
    winners come from the folded table; past the cap one groupby over
    the partial blocks the fold handed over takes their place. Names
    attach by a lookup join."""
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    partials = li.map_batches(_q15_rev_partial, batch_format="pyarrow",
                              batch_size=65536)
    sums, rest = fold_capped(partials, _Q15_PARTIAL_SCHEMA, ["l_suppkey"],
                             [("p_rev", "sum")], HAVING_FOLD_MAX_KEYS)
    if rest is None:
        winners = ray.data.from_arrow(sums.filter(
            pc.equal(sums.column("p_rev"), pc.max(sums.column("p_rev")))))
    else:
        per_supp = (rest.groupby("l_suppkey")
                    .aggregate(Sum("p_rev", alias_name="p_rev"))
                    .materialize())  # read by the max and by the filter
        winners = per_supp.filter(expr=f"p_rev == {int(per_supp.max('p_rev'))}")
    joined = lookup_join(winners,
                         read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_name"]),
                         on=("l_suppkey",), right_on=("s_suppkey",),
                         join_type="inner", num_partitions=num_partitions)
    return joined.map_batches(
        lambda t: pa.table({
            "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "s_name": t.column("s_name"),
            "total_revenue_e4": t.column("p_rev").cast(pa.int64()),
        }), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q17 shape: correlated per-group AVG subquery
# ---------------------------------------------------------------------------

def part_small_qty_q17(sf_dir: str, brand: str = "Brand#1",
                       num_partitions: int = 8):
    """TPC-H Q17 shape: total price of brand lineitems whose quantity
    is below 20% of that part's average quantity — the correlated
    scalar subquery ``l_quantity < 0.2 * (SELECT avg(l_quantity) …
    WHERE p_partkey = l_partkey)`` decorrelated into a per-part
    aggregate joined back to the fact rows.

    Exactness: the comparison is cleared of the rational average —
    ``qty < 0.2·(sum/n)  ⇔  5·qty_e2·n < sum_e2`` — so both sides are
    int64 and the row set matches the oracle exactly.

    The brand-filtered narrow projection (partkey, qty_e2, price_e2) is
    materialized once and scanned twice (aggregate pass + compare
    pass); it is ~1/25 of lineitem × 3 int64 columns, and at 100 TB the
    same two-pass plan would checkpoint that projection to Parquet
    instead (``state/checkpoint.py``) rather than re-execute lineage.
    The per-part (sum, n) table is one narrow shuffle, then joined back
    — its cardinality is |parts of one brand|."""
    joined = lookup_join(
        read_sf_table(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]),
        read_sf_table(sf_dir, "part", ["p_partkey", "p_brand"]),
        on=("l_partkey",), right_on=("p_partkey",), join_type="inner",
        num_partitions=num_partitions)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("p_brand"), brand))
        return pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "qty_e2": _e2(t.column("l_quantity")),
            "price_e2": _e2(t.column("l_extendedprice")),
        })

    subset = joined.map_batches(project, batch_format="pyarrow",
                                batch_size=65536).materialize()  # scanned twice; see docstring

    stats = (subset.groupby("l_partkey")
             .aggregate(Sum("qty_e2", alias_name="sum_q"),
                        Count(alias_name="n_q")))

    def compare(t: pa.Table) -> pa.Table:
        qty = t.column("qty_e2").to_numpy()
        ns = t.column("n_q").to_numpy().astype(np.int64)
        sums = t.column("sum_q").to_numpy().astype(np.int64)
        # qty < 0.2·avg  ⇔  5·qty_e2·n < sum_e2 (int64 exact)
        mask = 5 * qty * ns < sums
        price = t.column("price_e2").to_numpy()
        return pa.table({
            "p_price": pa.array([int(price[mask].sum())], pa.int64()),
            "p_n": pa.array([int(mask.sum())], pa.int64()),
        })

    partials = lookup_join(subset, stats, on=("l_partkey",),
                           right_on=("l_partkey",), join_type="inner",
                           num_partitions=num_partitions
                           ).map_batches(compare, batch_format="pyarrow",
                                         batch_size=65536)
    out = partials.sum(["p_price", "p_n"])
    return pa.Table.from_arrays(
        [pa.array([int(out["sum(p_price)"] or 0)], pa.int64()),
         pa.array([int(out["sum(p_n)"] or 0)], pa.int64())],
        names=["total_price_e2", "n_lines"])


# ---------------------------------------------------------------------------
# Q18 shape: HAVING-filtered group join-back
# ---------------------------------------------------------------------------

#: Driver-fold cap for the Q18 per-order sums (distinct orderkeys).
HAVING_FOLD_MAX_KEYS = 5_000_000


_Q18_PARTIAL_SCHEMA = pa.schema([("l_orderkey", pa.int64()), ("p_q", pa.int64())])


def _q18_qty_partial(t: pa.Table) -> pa.Table:
    """Batch combiner: (l_orderkey, p_q) quantity sums in e2."""
    g = pa.table({"l_orderkey": t.column("l_orderkey"),
                  "p_q": _e2(t.column("l_quantity"))})
    agg = pa.TableGroupBy(g, "l_orderkey").aggregate([("p_q", "sum")])
    return agg.rename_columns(["l_orderkey", "p_q"])


def _having_sums(partials, thr_e2: int) -> pa.Table:
    """(l_orderkey, p_q) partials → the HAVING-filtered (l_orderkey,
    sum_qty_e2) table. Driver fold under :data:`HAVING_FOLD_MAX_KEYS`,
    bucketed hash-aggregate shuffle over the same partials past it (both
    exact: integer sums)."""
    from ..stages.hashagg import grouped_aggregate

    sums, rest = fold_capped(partials, _Q18_PARTIAL_SCHEMA, ["l_orderkey"],
                             [("p_q", "sum")], HAVING_FOLD_MAX_KEYS)
    if rest is not None:
        sums = collect_table(
            grouped_aggregate(rest, "l_orderkey", [("p_q", "sum", "p_q")])
            .filter(expr=f"p_q > {thr_e2}"), _Q18_PARTIAL_SCHEMA)
    kept = sums.filter(pc.greater(sums.column("p_q"),
                                  pa.scalar(thr_e2, pa.int64())))
    return kept.rename_columns(["l_orderkey", "sum_qty_e2"])


def big_orders_q18(sf_dir: str, min_qty: float = 300.0,
                   num_partitions: int = 8):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds
    ``min_qty``, joined back to orders + customer for display columns —
    the GROUP BY … HAVING subquery feeding an IN filter.

    The per-order quantity sums reduce through the combiner, then —
    because the winner set must reach the driver for the join anyway —
    the partials are FOLDED incrementally on the driver
    (``functions/collect.fold_capped``), skipping the distributed
    groupby entirely: measured 9.9 s (plain sort-shuffle groupby) →
    4.2 s (bucketed hash agg) → ~2 s (driver fold) at sf0.1. Past the
    cap it falls back to the bucketed hash aggregate
    (``stages/hashagg.grouped_aggregate``) — the 100-TB path. The
    HAVING filter leaves a tiny winner set (~0.1% of orders at the
    default threshold) that joins into the orders scan; customer names
    attach by a second lookup join."""
    li = read_sf_table(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    thr_e2 = int(round(min_qty * 100))
    partials = li.map_batches(_q18_qty_partial, batch_format="pyarrow",
                              batch_size=65536)
    winners = _having_sums(partials, thr_e2)
    if not winners.num_rows:
        # a Dataset whose blocks are all empty loses its columns in the
        # maps below, so the empty result is built here
        date = clean_schema(f"{sf_dir}/orders.parquet", ["o_orderdate"])
        name = clean_schema(f"{sf_dir}/customer.parquet", ["c_name"])
        return ray.data.from_arrow(pa.schema(
            [name.field(0), ("o_orderkey", pa.int64()), date.field(0),
             ("total_price_e2", pa.int64()), ("sum_qty_e2", pa.int64())]
        ).empty_table())

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "o_custkey": t.column("o_custkey").cast(pa.int64()),
            "o_orderdate": t.column("o_orderdate"),
            "total_price_e2": _e2(t.column("o_totalprice")),
        })

    orders = read_sf_table(sf_dir, "orders",
                           ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    picked = lookup_join(orders.map_batches(project, batch_format="pyarrow",
                                            batch_size=65536),
                         ray.data.from_arrow(winners), on=("o_orderkey",), right_on=("l_orderkey",),
                         join_type="inner", num_partitions=num_partitions)
    out = lookup_join(picked,
                      read_sf_table(sf_dir, "customer", ["c_custkey", "c_name"]),
                      on=("o_custkey",), right_on=("c_custkey",),
                      join_type="inner", num_partitions=num_partitions)
    return out.select_columns(
        ["c_name", "o_orderkey", "o_orderdate", "total_price_e2", "sum_qty_e2"])


# ---------------------------------------------------------------------------
# Q22 shape: global scalar subquery + anti-join
# ---------------------------------------------------------------------------

def cust_idle_q22(sf_dir: str, since: str = "2000-01-01",
                  num_partitions: int = 8):
    """TPC-H Q22 shape: "rich but idle" customers — account balance
    above the global average of positive balances (scalar subquery) AND
    no order since ``since`` (anti-join), grouped into custkey-mod
    buckets (this schema's stand-in for Q22's phone country code).

    Exactness: ``acctbal > sum/cnt  ⇔  acct_e2·cnt > sum_e2`` clears
    the rational average to int64. The scalar folds from per-batch
    partials with ``Dataset.sum`` (no shuffle); the anti side is the
    distinct recent-order custkey set, a ``left_anti`` lookup join."""
    cust = read_sf_table(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def scalar_partial(t: pa.Table) -> pa.Table:
        a = _e2(t.column("c_acctbal"))
        pos = pc.greater(a, pa.scalar(0, pa.int64()))
        return pa.table({
            "p_s": pa.array([pc.sum(pc.if_else(pos, a, pa.scalar(0, pa.int64()))).as_py() or 0], pa.int64()),
            "p_c": pa.array([pc.sum(pc.cast(pos, pa.int64())).as_py() or 0], pa.int64()),
        })

    sc = cust.map_batches(scalar_partial, batch_format="pyarrow",
                          batch_size=65536).sum(["p_s", "p_c"])
    ss, cc = int(sc["sum(p_s)"]), int(sc["sum(p_c)"])

    def rich(t: pa.Table) -> pa.Table:
        a = _e2(t.column("c_acctbal"))
        mask = pc.greater(pc.multiply(a, pa.scalar(cc, pa.int64())),
                          pa.scalar(ss, pa.int64()))
        t = t.filter(mask)
        return pa.table({"c_custkey": t.column("c_custkey").cast(pa.int64()),
                         "acct_e2": _e2(t.column("c_acctbal"))})

    rich_ds = cust.map_batches(rich, batch_format="pyarrow",
                               batch_size=65536)

    orders = read_sf_table(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    lo = _TS(since)

    def recent_keys_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("o_orderdate"), lo))
        return pa.table({"o_custkey": pa.array(
            np.unique(t.column("o_custkey").to_numpy()), pa.int64())})

    idle = lookup_join(rich_ds,
                       orders.map_batches(recent_keys_partial, batch_format="pyarrow"),
                       on=("c_custkey",), right_on=("o_custkey",),
                       join_type="left_anti", num_partitions=num_partitions)

    def bucket_partial(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.bit_wise_and(t.column("c_custkey"), pa.scalar(7, pa.int64())), pa.int64())
        g = pa.table({"cgroup": b, "a": t.column("acct_e2"),
                      "one": pa.array(np.ones(t.num_rows, np.int64))})
        agg = pa.TableGroupBy(g, "cgroup").aggregate(
            [("one", "sum"), ("a", "sum")])
        return agg.rename_columns(["cgroup", "p_n", "p_a"])

    out = (idle.map_batches(bucket_partial, batch_format="pyarrow")
           .groupby("cgroup").aggregate(Sum("p_n", alias_name="n_cust"),
                                        Sum("p_a", alias_name="total_acct_e2")))
    layout = pa.schema([(c, pa.int64()) for c in ("cgroup", "n_cust", "total_acct_e2")])
    typed = out.map_batches(lambda t: t.select(layout.names).cast(layout),
                            batch_format="pyarrow")
    # a map over no rows emits no block, so with no idle customer the
    # Dataset alone has no schema; the empty table keeps the columns
    return typed.union(ray.data.from_arrow(layout.empty_table()))


# ---------------------------------------------------------------------------
# Q21 shape: double-correlated EXISTS / NOT EXISTS on the same fact
# ---------------------------------------------------------------------------

def waiting_supplier_q21(sf_dir: str, num_partitions: int = 8, k: int = 10):
    """TPC-H Q21 shape: suppliers who were the SOLE problem in
    multi-supplier finished orders. A lineitem is a "problem" when
    ``l_returnflag = 'R'`` (this schema's stand-in for Q21's
    receiptdate > commitdate); an order qualifies when o_orderstatus =
    'F', it involves ≥2 distinct suppliers (the EXISTS), and exactly
    ONE of them has a problem line (the NOT EXISTS). Count qualifying
    orders per problem supplier; top-k by (numwait desc, s_name asc).

    Decorrelation is pure aggregation — no per-group Python:

    1. per-batch combiner + ``groupby((orderkey, suppkey)).max(p)``
       reduces lines to one row per order-supplier with its
       any-problem flag;
    2. per-batch combiner + ``groupby(orderkey)`` computes
       ``n_supp = count``, ``n_prob = Σp`` and ``s_dot = Σ suppkey·p``
       — when ``n_prob = 1``, ``s_dot`` IS the sole problem supplier
       (the arithmetic argmax that replaces the correlated NOT
       EXISTS);
    3. filter ``n_prob = 1 AND n_supp ≥ 2``, then a supplier-dimension
       ``groupby(suppkey).sum`` and a tiny driver top-k fold.

    The 'F'-status order filter is a lookup join of lineitem against
    the distinct 'F' orderkeys."""
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_returnflag"])
    orders = read_sf_table(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])

    def f_keys_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("o_orderstatus"), "F"))
        return pa.table({"o_orderkey": pa.array(
            np.unique(t.column("o_orderkey").to_numpy()), pa.int64())})

    def pair_partial(t: pa.Table) -> pa.Table:
        """(orderkey, suppkey) → any-problem flag, batch-local."""
        g = pa.table({
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "p": pc.cast(pc.equal(t.column("l_returnflag"), "R"), pa.int64()),
        })
        agg = pa.TableGroupBy(g, ["l_orderkey", "l_suppkey"]).aggregate(
            [("p", "max")])
        return agg.rename_columns(["l_orderkey", "l_suppkey", "p"])

    pair_src = lookup_join(
        li, orders.map_batches(f_keys_partial, batch_format="pyarrow"),
        on=("l_orderkey",), right_on=("o_orderkey",), join_type="inner",
        num_partitions=num_partitions
    ).map_batches(pair_partial, batch_format="pyarrow", batch_size=65536)

    # ONE orderkey-bucket shuffle does the whole decorrelation: inside
    # a bucket every order's pair-rows are complete, so both levels
    # ((order,supp) max-flag, then per-order count/Σp/Σ suppkey·p) are
    # single vectorized `pa.Table.group_by` calls, and only per-bucket
    # WINNER partials (≤ suppliers-per-bucket rows) leave. Measured
    # 10.6 s (two sort-shuffle groupbys) → ~4 s at sf0.1/32 cpus.
    from ..stages.hashagg import grouped_reduce

    def bucket_reduce(t: pa.Table) -> pa.Table:
        pairs = (t.group_by(["l_orderkey", "l_suppkey"])
                 .aggregate([("p", "max")])
                 .rename_columns(["l_orderkey", "l_suppkey", "p"]))
        g = pa.table({
            "l_orderkey": pairs.column("l_orderkey"),
            "one": pa.array(np.ones(pairs.num_rows, np.int64)),
            "p": pairs.column("p").cast(pa.int64()),
            "sp": pc.multiply(pairs.column("l_suppkey").cast(pa.int64()),
                              pairs.column("p").cast(pa.int64())),
        })
        po = (pa.TableGroupBy(g, "l_orderkey")
              .aggregate([("one", "sum"), ("p", "sum"), ("sp", "sum")])
              .rename_columns(["l_orderkey", "n_supp", "n_prob", "s_dot"]))
        po = po.filter(pc.and_(
            pc.equal(po.column("n_prob"), pa.scalar(1, pa.int64())),
            pc.greater_equal(po.column("n_supp"), pa.scalar(2, pa.int64()))))
        w = pa.table({"s_suppkey": po.column("s_dot").cast(pa.int64()),
                      "one": pa.array(np.ones(po.num_rows, np.int64))})
        agg = pa.TableGroupBy(w, "s_suppkey").aggregate([("one", "sum")])
        return agg.rename_columns(["s_suppkey", "p_w"])

    win_partials = grouped_reduce(pair_src, "l_orderkey", bucket_reduce)

    # supplier dimension is tiny relative to the facts: fold + name + top-k
    wdf = (win_partials.to_pandas().groupby("s_suppkey", as_index=False)
           .agg(numwait=("p_w", "sum")))
    sdf = read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = wdf.merge(sdf, on="s_suppkey")
    out["numwait"] = out["numwait"].astype("int64")
    out = (out.sort_values(["numwait", "s_name"], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return out[["s_name", "numwait"]]


# ---------------------------------------------------------------------------
# Q10 shape: returned-item revenue top-k join
# ---------------------------------------------------------------------------

def returned_top_customers_q10(sf_dir: str, quarter: str = "1996-01-01",
                               num_partitions: int = 8,
                               k: int = 20):
    """TPC-H Q10 shape: revenue lost to returns per customer over one
    quarter, top-k by (revenue desc, custkey asc), with customer and
    nation display columns.

    Revenue is exact int64 e4 (``price_e2 · (100 − disc_e2)``). Plan:
    returned-lineitem partial sums per orderkey (combiner, no shuffle)
    → order window filter maps orderkey→custkey (lookup join) →
    ``groupby(custkey).sum`` (one narrow shuffle) → ``collect.top_k`` →
    the winners' customer rows and the nation table attach on the driver."""
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])
    lo, hi = _TS(quarter), _TS(
        str(pd.Timestamp(quarter) + pd.DateOffset(months=3)))

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        g = pa.table({"l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                      "r": _rev_e4(t)})
        agg = pa.TableGroupBy(g, "l_orderkey").aggregate([("r", "sum")])
        return agg.rename_columns(["l_orderkey", "p_r"])

    li_sums = li.map_batches(rev_partial, batch_format="pyarrow",
                             batch_size=65536)

    orders = read_sf_table(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"])

    def window_orders(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        t = t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "o_custkey": t.column("o_custkey").cast(pa.int64()),
        })

    joined = lookup_join(li_sums, orders.map_batches(window_orders, batch_format="pyarrow"),
                         on=("l_orderkey",), right_on=("o_orderkey",),
                         join_type="inner", num_partitions=num_partitions)
    by_cust_src = joined.map_batches(
        lambda t: pa.table({"c_custkey": t.column("o_custkey").cast(pa.int64()),
                            "p_r": t.column("p_r")}),
        batch_format="pyarrow")

    by_cust = by_cust_src.groupby("c_custkey").aggregate(
        Sum("p_r", alias_name="revenue_e4"))

    # Customer is NOT a bounded dimension at 100×: never fold the full
    # per-customer aggregate, nor collect the customer table.
    # (revenue_e4 desc, c_custkey asc) is a total order over exactly the
    # folded columns, so the block-local top-k is exact.
    top = top_k(by_cust, [("revenue_e4", "descending"), ("c_custkey", "ascending")],
                k, None)
    wanted = top.column("c_custkey").combine_chunks()  # ≤ k keys: ship inline

    def winners(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("c_custkey"), value_set=wanted))

    cust_cols = ["c_custkey", "c_name", "c_nationkey"]
    names = collect_table(
        read_sf_table(sf_dir, "customer", cust_cols).map_batches(
            winners, batch_format="pyarrow"),
        clean_schema(os.path.join(sf_dir, "customer.parquet"), cust_cols))
    nation = read_sf_table(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    # inner merges keep the left (ranked) row order
    out = (top.select(["c_custkey", "revenue_e4"]).to_pandas()
           .merge(names.to_pandas(), on="c_custkey")
           .merge(nation, left_on="c_nationkey", right_on="n_nationkey"))
    return out[["c_custkey", "c_name", "n_name", "revenue_e4"]]


# ---------------------------------------------------------------------------
# Full-outer-join shape: union-tagged aggregates (no join operator)
# ---------------------------------------------------------------------------

def cust_year_orders_fullouter(sf_dir: str, y1: str = "1996", y2: str = "1997"):
    """FULL OUTER JOIN of two keyed aggregates — per-customer order
    counts in two years, keeping customers present in EITHER year
    (missing side = 0) → (c_custkey, n_y1, n_y2).

    The engine expresses the full outer of two ALREADY-KEYED row
    streams as union + one grouped sum of side-tagged partials
    ((key, n, 0) ∪ (key, 0, n) → groupby(key).sum) — the same
    union-reduce that powers `stages/repgrams.py`; no join operator,
    no null handling, and the single shuffle is the unavoidable
    co-location of the two sides. Counts are exact int64."""
    orders = read_sf_table(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    lo1, hi1 = _TS(f"{y1}-01-01"), _TS(f"{int(y1) + 1}-01-01")
    lo2, hi2 = _TS(f"{y2}-01-01"), _TS(f"{int(y2) + 1}-01-01")

    def tagged_partial(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        out = []
        for lo, hi, side in ((lo1, hi1, 0), (lo2, hi2, 1)):
            f = t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
            g = pa.TableGroupBy(f.select(["o_custkey"]), "o_custkey").aggregate(
                [([], "count_all")]).rename_columns(["c_custkey", "n"])
            n = g.column("n").cast(pa.int64())
            zero = pa.nulls(g.num_rows, pa.int64()).fill_null(0)
            out.append(pa.table({
                "c_custkey": g.column("c_custkey").cast(pa.int64()),
                "p_1": n if side == 0 else zero,
                "p_2": zero if side == 0 else n,
            }))
        return pa.concat_tables(out)

    from ..stages.hashagg import grouped_aggregate

    summed = grouped_aggregate(
        orders.map_batches(tagged_partial, batch_format="pyarrow",
                           batch_size=65536),
        "c_custkey",
        [("p_1", "sum", "n_y1"), ("p_2", "sum", "n_y2")])
    return summed.map_batches(
        lambda t: pa.table({"c_custkey": t.column("c_custkey"),
                            "n_y1": t.column("n_y1").cast(pa.int64()),
                            "n_y2": t.column("n_y2").cast(pa.int64())}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Grouped moments: integer-exact per-group mean/variance inputs
# ---------------------------------------------------------------------------

def doc_lang_moments(sf_dir: str):
    """Per-language length moments — (lang, n_docs, sum_len, sumsq_len)
    in exact int64 (mean and variance derive exactly as rationals; the
    integer sums are the mergeable sufficient statistics, the form a
    distributed engine should ship between stages). One combiner pass →
    a languages-cardinality groupby."""
    docs = read_sf_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def moment_partial(t: pa.Table) -> pa.Table:
        x = t.column("n_chars").cast(pa.int64())
        g = pa.table({
            "lang": t.column("lang"),
            "one": pa.nulls(t.num_rows, pa.int64()).fill_null(1),
            "x": x,
            "xx": pc.multiply(x, x),
        })
        agg = pa.TableGroupBy(g, "lang").aggregate(
            [("one", "sum"), ("x", "sum"), ("xx", "sum")])
        return agg.rename_columns(["lang", "p_n", "p_s", "p_ss"])

    out = (docs.map_batches(moment_partial, batch_format="pyarrow",
                            batch_size=65536)
           .groupby("lang").aggregate(Sum("p_n", alias_name="n_docs"),
                                      Sum("p_s", alias_name="sum_len"),
                                      Sum("p_ss", alias_name="sumsq_len")))
    return out.map_batches(
        lambda t: pa.table({
            "lang": t.column("lang"),
            "n_docs": t.column("n_docs").cast(pa.int64()),
            "sum_len": t.column("sum_len").cast(pa.int64()),
            "sumsq_len": t.column("sumsq_len").cast(pa.int64()),
        }), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q19 shape: disjunctive multi-predicate join
# ---------------------------------------------------------------------------

#: (brand, size_lo, size_hi, qty_lo, qty_hi) predicate bundles — the
#: OR-of-ANDs Q19 ships to the join.
Q19_BUNDLES = (
    ("Brand#1", 1, 10, 1, 15),
    ("Brand#2", 5, 25, 10, 30),
    ("Brand#3", 20, 50, 20, 40),
)


def disjunctive_revenue_q19(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q19 shape: revenue over an OR of (brand, size-range,
    quantity-range) predicate bundles — the disjunctive join predicate
    that defeats naive pushdown.

    lineitem joins the part attributes every bundle needs (brand, size)
    and the whole disjunction evaluates VECTORIZED per batch (brand →
    bundle index with one ``index_in`` kernel, then numpy boolean
    algebra), so the OR costs three mask ANDs and one OR per batch — no
    per-bundle scans. Exact e4 integer revenue."""
    joined = lookup_join(
        read_sf_table(sf_dir, "lineitem",
                      ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]),
        read_sf_table(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
        on=("l_partkey",), right_on=("p_partkey",), join_type="inner",
        num_partitions=num_partitions)
    bundle_brands = pa.array([b for b, *_ in Q19_BUNDLES], pa.string())

    def rev_partial(t: pa.Table) -> pa.Table:
        # -1 for parts outside every bundle
        bid = pc.index_in(t.column("p_brand"),
                          value_set=bundle_brands).fill_null(-1)
        bid = bid.to_numpy(zero_copy_only=False).astype(np.int64)
        size = t.column("p_size").to_numpy().astype(np.int64)
        qty_e2 = _e2(t.column("l_quantity")).to_numpy()
        m = np.zeros(len(bid), dtype=bool)
        for i, (_, slo, shi, qlo, qhi) in enumerate(Q19_BUNDLES):
            m |= ((bid == i) & (size >= slo) & (size <= shi)
                  & (qty_e2 >= qlo * 100) & (qty_e2 <= qhi * 100))
        rev = _rev_e4(t).to_numpy()
        return pa.table({"p_r": pa.array([int(rev[m].sum())], pa.int64())})

    total = joined.map_batches(rev_partial, batch_format="pyarrow",
                               batch_size=65536).sum("p_r") or 0
    return pa.table({"revenue_e4": pa.array([int(total)], pa.int64())})


# ---------------------------------------------------------------------------
# Q16 shape: grouped distinct-count with an anti-set
# ---------------------------------------------------------------------------

def supplier_cnt_q16(sf_dir: str, excl_brand: str = "Brand#5",
                     num_partitions: int = 8):
    """TPC-H Q16 shape: distinct suppliers per (brand, type) over the
    part↔supplier incidence (lineitem as the partsupp stand-in),
    excluding one brand (the NOT IN anti-set) →
    (p_brand, p_type, supplier_cnt).

    Distinct (partkey, suppkey) pairs reduce through a per-batch
    combiner; part attributes attach by a lookup join; the final
    distinct-per-group is a second combiner + a (brand, type, supp)
    bucketed reduce whose cardinality is groups × suppliers —
    dimension-sized."""
    li = read_sf_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def pair_partial(t: pa.Table) -> pa.Table:
        return (t.select(["l_partkey", "l_suppkey"])
                .group_by(["l_partkey", "l_suppkey"]).aggregate([]))

    # batch-local distinct only: the (brand, type, supp) groupby below
    # dedups across batches anyway, so a global pair-distinct would be
    # a second full shuffle for nothing (measured 11.6 s → 1.5 s).
    pairs = li.map_batches(pair_partial, batch_format="pyarrow",
                           batch_size=65536)
    joined = lookup_join(
        pairs, read_sf_table(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]),
        on=("l_partkey",), right_on=("p_partkey",), join_type="inner",
        num_partitions=num_partitions)

    def triples(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t.column("p_brand"), excl_brand))
        return (t.select(["p_brand", "p_type", "l_suppkey"])
                .group_by(["p_brand", "p_type", "l_suppkey"]).aggregate([]))

    # ONE brand-bucket shuffle: all triples of a (brand, type) land in
    # one bucket, where nunique per group is a single vectorized call
    # (was two chained sort-groupbys: 11.6 s → ~1.5 s at sf0.01).
    from ..stages.hashagg import grouped_reduce

    def count_bucket(g):
        out = (g.groupby(["p_brand", "p_type"])["l_suppkey"]
               .nunique().reset_index(name="supplier_cnt"))
        out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
        return out

    return grouped_reduce(joined.map_batches(triples, batch_format="pyarrow"),
                          "p_brand", count_bucket, batch_format="pandas")


# ---------------------------------------------------------------------------
# Q11 shape: group aggregate vs global-scalar threshold
# ---------------------------------------------------------------------------

def important_parts_q11(sf_dir: str, frac_den: int = 1500):
    """TPC-H Q11 shape: parts whose total extended-price value exceeds
    1/``frac_den`` of the GLOBAL total → (l_partkey, value_e2).

    The group filter clears the fraction to integers
    (``value·frac_den > total``); per-part sums go through the
    bucketed hash aggregate (partkey cardinality ~ corpus), the global
    total folds from the SAME partials via ``Dataset.sum`` — one
    combiner pass feeds both sides."""
    from ..stages.hashagg import grouped_aggregate

    li = read_sf_table(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

    def val_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                      "v": _e2(t.column("l_extendedprice"))})
        agg = pa.TableGroupBy(g, "l_partkey").aggregate([("v", "sum")])
        return agg.rename_columns(["l_partkey", "p_v"])

    partials = li.map_batches(val_partial, batch_format="pyarrow",
                              batch_size=65536).materialize()
    total = int(partials.sum("p_v") or 0)
    sums = grouped_aggregate(partials, "l_partkey",
                             [("p_v", "sum", "value_e2")])

    def keep(t: pa.Table) -> pa.Table:
        v = t.column("value_e2").cast(pa.int64())
        m = pc.greater(pc.multiply(v, pa.scalar(frac_den, pa.int64())),
                       pa.scalar(total, pa.int64()))
        t = t.filter(m)
        return pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                         "value_e2": t.column("value_e2").cast(pa.int64())})

    return sums.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q2 shape: argmin-per-group + join-back
# ---------------------------------------------------------------------------

def min_cost_supplier_q2(sf_dir: str, p_type: str = "ECONOMY",
                         max_size: int = 15, num_partitions: int = 8):
    """TPC-H Q2 shape: for every qualifying part (type/size filter),
    the supplier(s) achieving the MINIMUM cost — the correlated
    min-subquery join-back (here cost = min extended price per part
    over lineitem, the partsupp stand-in) →
    (l_partkey, s_suppkey, s_name, cost_e2), ALL ties kept.

    Decorrelation: lineitem semi-joins the qualifying part keys, then
    per-part min via combiner + bucketed hash aggregate (partkey
    cardinality ~ corpus); the min map joins back into the SAME fact
    scan to emit the achieving rows."""
    from ..stages.hashagg import grouped_aggregate

    def part_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.equal(t.column("p_type"), p_type),
                             pc.less(t.column("p_size"), max_size)))
        return t.select(["p_partkey"])

    def li_proj(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "cost": _e2(t.column("l_extendedprice")),
        })

    li = read_sf_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_extendedprice"]
                       ).map_batches(li_proj, batch_format="pyarrow")
    part = read_sf_table(sf_dir, "part", ["p_partkey", "p_type", "p_size"])

    def cost_partial(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t.select(["l_partkey", "cost"]), "l_partkey"
                              ).aggregate([("cost", "min")])
        return agg.rename_columns(["l_partkey", "p_c"])

    filtered = lookup_join(
        li, part.map_batches(part_keys, batch_format="pyarrow"),
        on=("l_partkey",), right_on=("p_partkey",), join_type="inner",
        num_partitions=num_partitions
    ).map_batches(cost_partial, batch_format="pyarrow", batch_size=65536).materialize()
    mins = grouped_aggregate(filtered, "l_partkey",
                             [("p_c", "min", "cost_e2")])
    j = lookup_join(li, mins, on=("l_partkey",), right_on=("l_partkey",),
                    join_type="inner", num_partitions=num_partitions)

    def eq_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("cost"), t.column("cost_e2")))
        g = pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
            "cost_e2": t.column("cost_e2").cast(pa.int64()),
        })
        return g.group_by(["l_partkey", "s_suppkey", "cost_e2"]).aggregate([])

    rows = (j.map_batches(eq_filter, batch_format="pyarrow", batch_size=65536)
            .groupby(["l_partkey", "s_suppkey", "cost_e2"]).count()
            .select_columns(["l_partkey", "s_suppkey", "cost_e2"]))

    sdf = read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = rows.to_pandas().merge(sdf, on="s_suppkey")
    return out[["l_partkey", "s_suppkey", "s_name", "cost_e2"]]


# ---------------------------------------------------------------------------
# Q8 shape: market share (conditional / total revenue per year)
# ---------------------------------------------------------------------------

def market_share_q8(sf_dir: str, brand: str = "Brand#1",
                    num_partitions: int = 8):
    """TPC-H Q8 shape: per order-year, the focal brand's share of
    revenue — emitted as the EXACT integer pair (num_e4, den_e4)
    rather than a rounded ratio (share = num/den; the rational form is
    the mergeable, hash-comparable one) → (o_year, num_e4, den_e4).

    Both legs reduce in ONE lineitem pass: the brand flag (lineitem ⋈
    part, left outer) gates the numerator inside the same combiner that
    sums the denominator; orderkey → year is a second lookup join."""
    li = lookup_join(
        read_sf_table(sf_dir, "lineitem",
                      ["l_orderkey", "l_partkey", "l_extendedprice", "l_discount"]),
        read_sf_table(sf_dir, "part", ["p_partkey", "p_brand"]),
        on=("l_partkey",), right_on=("p_partkey",), join_type="left_outer",
        num_partitions=num_partitions)

    def leg_partial(t: pa.Table) -> pa.Table:
        is_brand = pc.fill_null(pc.equal(t.column("p_brand"), brand), False)
        rev = _rev_e4(t)
        g = pa.table({
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "num": pc.if_else(is_brand, rev, pa.scalar(0, pa.int64())),
            "den": rev,
        })
        agg = pa.TableGroupBy(g, "l_orderkey").aggregate(
            [("num", "sum"), ("den", "sum")])
        return agg.rename_columns(["l_orderkey", "p_num", "p_den"])

    def year_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"o_year": t.column("o_year"),
                      "num": t.column("p_num"), "den": t.column("p_den")})
        agg = pa.TableGroupBy(g, "o_year").aggregate(
            [("num", "sum"), ("den", "sum")])
        return agg.rename_columns(["o_year", "p_num", "p_den"])

    joined = lookup_join(
        li.map_batches(leg_partial, batch_format="pyarrow", batch_size=65536),
        _orders_year(sf_dir, ["o_orderkey"]),
        on=("l_orderkey",), right_on=("o_orderkey",), join_type="inner",
        num_partitions=num_partitions)
    out = (joined.map_batches(year_partial, batch_format="pyarrow")
           .groupby("o_year").aggregate(Sum("p_num", alias_name="num_e4"),
                                        Sum("p_den", alias_name="den_e4")))
    return out.map_batches(
        lambda t: pa.table({"o_year": t.column("o_year").cast(pa.int64()),
                            "num_e4": t.column("num_e4").cast(pa.int64()),
                            "den_e4": t.column("den_e4").cast(pa.int64())}),
        batch_format="pyarrow")


def _orders_year(sf_dir: str, columns: list[str]):
    """orders → ``columns`` cast to int64, plus ``o_year``."""

    def proj(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c).cast(pa.int64()) for c in columns}
        cols["o_year"] = pc.year(t.column("o_orderdate")).cast(pa.int64())
        return pa.table(cols)

    return read_sf_table(sf_dir, "orders", columns + ["o_orderdate"]
                         ).map_batches(proj, batch_format="pyarrow", batch_size=65536)


def _part_keys_named(sf_dir: str, name_sub: str):
    """Keys of the parts whose name contains ``name_sub``."""

    def keys(t: pa.Table) -> pa.Table:
        m = pc.match_substring(t.column("p_name"), name_sub)
        return pa.table({"p_partkey": t.filter(m).column("p_partkey").cast(pa.int64())})

    return read_sf_table(sf_dir, "part", ["p_partkey", "p_name"]
                         ).map_batches(keys, batch_format="pyarrow", batch_size=65536)


# ---------------------------------------------------------------------------
# Q7 shape: two-dimension-pair volume (supp nation × cust nation × year)
# ---------------------------------------------------------------------------

def nation_volume_q7(sf_dir: str, nation_a: int = 3, nation_b: int = 8,
                     num_partitions: int = 8):
    """TPC-H Q7 shape: shipped revenue between two nations in both
    directions, per year → (supp_nation, cust_nation, o_year, rev_e4).

    lineitem joins supplier (suppkey → nation), orders (orderkey →
    custkey, year) and customer (custkey → nation); the nation-pair
    filter and the per-batch combiner run after the joins. With every
    build side under the cap this is ONE fused lineitem pass."""
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    li = lookup_join(li, read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
                     on=("l_suppkey",), right_on=("s_suppkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, _orders_year(sf_dir, ["o_orderkey", "o_custkey"]),
                     on=("l_orderkey",), right_on=("o_orderkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, read_sf_table(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
                     on=("o_custkey",), right_on=("c_custkey",),
                     join_type="inner", num_partitions=num_partitions)

    def pair_partial(t: pa.Table) -> pa.Table:
        ns = t.column("s_nationkey").to_numpy().astype(np.int64)
        nc = t.column("c_nationkey").to_numpy().astype(np.int64)
        m = pa.array(((ns == nation_a) & (nc == nation_b))
                     | ((ns == nation_b) & (nc == nation_a)))
        g = pa.table({
            "supp_nation": pa.array(ns, pa.int64()).filter(m),
            "cust_nation": pa.array(nc, pa.int64()).filter(m),
            "o_year": t.column("o_year").filter(m),
            "r": _rev_e4(t).filter(m),
        })
        agg = pa.TableGroupBy(g, ["supp_nation", "cust_nation", "o_year"]
                              ).aggregate([("r", "sum")])
        return agg.rename_columns(
            ["supp_nation", "cust_nation", "o_year", "p_r"])

    out = (li.map_batches(pair_partial, batch_format="pyarrow", batch_size=65536)
           .groupby(["supp_nation", "cust_nation", "o_year"])
           .aggregate(Sum("p_r", alias_name="rev_e4")))
    return out.map_batches(
        lambda t: pa.table({
            "supp_nation": t.column("supp_nation").cast(pa.int64()),
            "cust_nation": t.column("cust_nation").cast(pa.int64()),
            "o_year": t.column("o_year").cast(pa.int64()),
            "rev_e4": t.column("rev_e4").cast(pa.int64()),
        }), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q9 shape: profit rollup by supplier nation × year with a name filter
# ---------------------------------------------------------------------------

def nation_profit_q9(sf_dir: str, name_sub: str = "bolt",
                     num_partitions: int = 8):
    """TPC-H Q9 shape: revenue of parts whose NAME contains a substring
    (the LIKE '%...%' filter), rolled up by supplier nation × order
    year → (n_name, o_year, rev_e4). lineitem joins supplier ⋈ nation
    (suppkey → nation name), the name-filtered part keys (a semi-join)
    and orders (orderkey → year), then the per-batch combiner."""
    supp = lookup_join(
        read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        read_sf_table(sf_dir, "nation", ["n_nationkey", "n_name"]),
        on=("s_nationkey",), right_on=("n_nationkey",), join_type="inner",
        num_partitions=num_partitions)
    li = read_sf_table(sf_dir, "lineitem",
                       ["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])
    li = lookup_join(li, supp, on=("l_suppkey",), right_on=("s_suppkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, _part_keys_named(sf_dir, name_sub),
                     on=("l_partkey",), right_on=("p_partkey",),
                     join_type="inner", num_partitions=num_partitions)
    li = lookup_join(li, _orders_year(sf_dir, ["o_orderkey"]),
                     on=("l_orderkey",), right_on=("o_orderkey",),
                     join_type="inner", num_partitions=num_partitions)

    def rollup(t: pa.Table) -> pa.Table:
        g = pa.table({"n_name": t.column("n_name"), "o_year": t.column("o_year"),
                      "r": _rev_e4(t)})
        agg = pa.TableGroupBy(g, ["n_name", "o_year"]).aggregate([("r", "sum")])
        return agg.rename_columns(["n_name", "o_year", "p_r"])

    out = (li.map_batches(rollup, batch_format="pyarrow", batch_size=65536)
           .groupby(["n_name", "o_year"])
           .aggregate(Sum("p_r", alias_name="rev_e4")))
    return out.map_batches(
        lambda t: pa.table({
            "n_name": t.column("n_name"),
            "o_year": t.column("o_year").cast(pa.int64()),
            "rev_e4": t.column("rev_e4").cast(pa.int64()),
        }), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q20 shape: nested semi-join chain (parts → concentrated pairs → suppliers)
# ---------------------------------------------------------------------------

def concentrated_suppliers_q20(sf_dir: str, name_sub: str = "bolt",
                               pct_num: int = 1, pct_den: int = 10):
    """TPC-H Q20 shape: suppliers who CONCENTRATE a filtered part's
    flow — a (part, supplier) pair qualifies when its shipped quantity
    exceeds ``pct_num/pct_den`` of the part's total (the availqty >
    0.5·sum correlated subquery, integer-cleared:
    ``pair_qty·den > part_qty·num``); a supplier qualifies when ANY of
    its pairs does (the nested EXISTS chain) → (s_suppkey, s_name).

    lineitem semi-joins the name-filtered part keys, then one (part,
    supp) combiner + ONE partkey-bucket shuffle: inside a bucket every
    part's pairs are complete, so the part total, the concentration test
    and the supplier projection are three vectorized steps; only
    qualifying supplier keys leave the bucket."""
    from ..stages.hashagg import grouped_reduce

    li = read_sf_table(sf_dir, "lineitem",
                       ["l_partkey", "l_suppkey", "l_quantity"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                      "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                      "q": _e2(t.column("l_quantity"))})
        agg = pa.TableGroupBy(g, ["l_partkey", "l_suppkey"]).aggregate(
            [("q", "sum")])
        return agg.rename_columns(["l_partkey", "l_suppkey", "p_q"])

    pairs = lookup_join(li, _part_keys_named(sf_dir, name_sub),
                        on=("l_partkey",), right_on=("p_partkey",),
                        join_type="inner", num_partitions=8
                        ).map_batches(pair_partial, batch_format="pyarrow",
                                      batch_size=65536)

    def bucket_filter(g):
        import pandas as pd

        s = g.groupby(["l_partkey", "l_suppkey"], as_index=False)["p_q"].sum()
        tot = s.groupby("l_partkey")["p_q"].transform("sum")
        win = s.loc[s["p_q"] * pct_den > tot * pct_num, ["l_suppkey"]]
        return win.drop_duplicates()

    supp_keys = (grouped_reduce(pairs, "l_partkey", bucket_filter,
                                batch_format="pandas")
                 .groupby("l_suppkey").count()
                 .select_columns(["l_suppkey"]))
    sdf = read_sf_table(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = (supp_keys.to_pandas()
           .rename(columns={"l_suppkey": "s_suppkey"})
           .merge(sdf, on="s_suppkey")
           .sort_values("s_suppkey").reset_index(drop=True))
    return out[["s_suppkey", "s_name"]]
