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

Join/broadcast planning reuses the size-aware planner from
``pipelines/analytics.py`` (``_join_plan``): most ops carry a
``broadcast`` plan (``ray.put`` sorted-array lookup probed inside the
stream — zero join shuffles) and a ``partitioned`` plan
(hash-partitioned ``Dataset.join`` — the 100-TB path), chosen by
comparing the build tables' parquet-footer row counts with
``BROADCAST_BUILD_MAX_ROWS``. The tests lower that cap to run the
partitioned plan and compare it row for row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Sum

from ..functions.collect import collect_table, collect_tables, fold_capped
from .analytics import (
    BROADCAST_BUILD_MAX_ROWS,
    _join_plan,
    _probe,
    _sorted_lookup,
    _tbl,
    safe_join,
)

_TS = lambda s: pa.scalar(pd.Timestamp(s))  # noqa: E731


def _e2(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """round(x*100) → int64 — the exact fixed-point projection."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


# ---------------------------------------------------------------------------
# Q4 shape: EXISTS semi-join
# ---------------------------------------------------------------------------

def orders_exists_q4(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q4 shape: count 1996 orders per priority where EXISTS a
    returned lineitem (``l_returnflag = 'R'``; this schema has no
    commitdate/receiptdate, so the returned flag plays the "late"
    predicate role).

    Decorrelation: the EXISTS side is reduced to its distinct orderkey
    set first, so the semi-join is an inner join against a deduped
    build side. ``broadcast``: per-batch-unique partials are folded to
    one sorted key array on the driver (bounded by the planner — the
    distinct set is ≤ |orders| rows) and probed inside the orders
    scan; ``partitioned``: distributed distinct (groupby) + hash join.
    """
    plan = _join_plan(sf_dir, ["orders"])
    li = _tbl(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def returned_partial(t: pa.Table) -> pa.Table:
        keys = t.filter(pc.equal(t.column("l_returnflag"), "R")).column("l_orderkey")
        return pa.table({"l_orderkey": pa.array(
            np.unique(keys.to_numpy()), pa.int64())})

    orders = _tbl(sf_dir, "orders",
                  ["o_orderkey", "o_orderpriority", "o_orderdate"])
    lo, hi = _TS("1996-01-01"), _TS("1997-01-01")

    def in_window(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        return t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))

    orders = orders.map_batches(in_window, batch_format="pyarrow")

    def count_by_priority(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t.select(["o_orderpriority"]),
                              "o_orderpriority").aggregate([([], "count_all")])
        return agg.rename_columns(["o_orderpriority", "p_n"])

    if plan == "broadcast":
        parts = collect_tables(
            li.map_batches(returned_partial, batch_format="pyarrow"))
        keys = (np.unique(np.concatenate(
            [t.column("l_orderkey").to_numpy() for t in parts]))
            if parts else np.empty(0, np.int64))
        assert keys.size <= BROADCAST_BUILD_MAX_ROWS, "guard: use partitioned"
        kref = ray.put(keys)

        def semi(t: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            mask, _ = _probe(ks, ks, t.column("o_orderkey").to_numpy())
            return count_by_priority(t.filter(pa.array(mask)))

        partials = orders.map_batches(semi, batch_format="pyarrow",
                                      batch_size=65536)
    else:
        returned = (li.map_batches(returned_partial, batch_format="pyarrow")
                    .groupby("l_orderkey").count().select_columns(["l_orderkey"]))
        joined = safe_join(orders, returned, join_type="inner",
                           num_partitions=num_partitions,
                           on=("o_orderkey",), right_on=("l_orderkey",))
        partials = joined.map_batches(count_by_priority,
                                      batch_format="pyarrow")

    out = partials.groupby("o_orderpriority").aggregate(
        Sum("p_n", alias_name="order_count"))
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("order_count"),
                               "order_count",
                               t.column("order_count").cast(pa.int64())),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q15 shape: argmax over an aggregate
# ---------------------------------------------------------------------------

def top_supplier_q15(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q15 shape: per-supplier revenue over one quarter, return
    the supplier(s) achieving the GLOBAL max (the view + scalar-max
    subquery, decorrelated to aggregate → tiny max fold → filter →
    name join).

    Revenue is exact int64 e4 fixed point (``price_e2 × (100 −
    disc_e2)``), so the argmax is well-defined and bit-equal to the
    oracle — no float-sum tie hazard. The per-supplier aggregate is one
    narrow shuffle (supplier-dimension cardinality); the max is folded
    from that aggregate's blocks on the driver (tiny); names join by
    the size-aware planner."""
    plan = _join_plan(sf_dir, ["supplier"])
    li = _tbl(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"])
    lo, hi = _TS("1996-01-01"), _TS("1996-04-01")

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("l_shipdate")
        t = t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        rev_e4 = pc.multiply(
            _e2(t.column("l_extendedprice")),
            pc.subtract(pa.scalar(100, pa.int64()), _e2(t.column("l_discount"))))
        g = pa.table({"l_suppkey": t.column("l_suppkey"), "rev": rev_e4})
        agg = pa.TableGroupBy(g, "l_suppkey").aggregate([("rev", "sum")])
        return agg.rename_columns(["l_suppkey", "p_rev"])

    per_supp = (li.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536)
                .groupby("l_suppkey")
                .aggregate(Sum("p_rev", alias_name="total_revenue_e4")))

    best = per_supp.max("total_revenue_e4")
    winners = per_supp.filter(
        expr=f"total_revenue_e4 == {int(best)}")

    if plan == "broadcast":
        sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
        nref = ray.put(_sorted_lookup(sdf, "s_suppkey", "s_name"))

        def add_name(t: pa.Table) -> pa.Table:
            keys, names = ray.get(nref)
            _, nm = _probe(keys, names,
                           t.column("l_suppkey").to_numpy().astype(np.int64))
            return pa.table({
                "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "s_name": pa.array(nm.astype(str)),
                "total_revenue_e4": t.column("total_revenue_e4").cast(pa.int64()),
            })

        return winners.map_batches(add_name, batch_format="pyarrow")

    supp = _tbl(sf_dir, "supplier", ["s_suppkey", "s_name"])
    joined = winners.join(supp, join_type="inner",
                          num_partitions=num_partitions,
                          on=("l_suppkey",), right_on=("s_suppkey",))
    return joined.map_batches(
        lambda t: pa.table({
            "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
            "s_name": t.column("s_name"),
            "total_revenue_e4": t.column("total_revenue_e4").cast(pa.int64()),
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
    The per-part (sum, n) table is one narrow shuffle, then broadcast —
    its cardinality is |parts of one brand|, planner-bounded."""
    plan = _join_plan(sf_dir, ["part"])
    li = _tbl(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice"])

    def project(t: pa.Table, mask) -> pa.Table:
        t = t.filter(mask)
        return pa.table({
            "l_partkey": t.column("l_partkey").cast(pa.int64()),
            "qty_e2": _e2(t.column("l_quantity")),
            "price_e2": _e2(t.column("l_extendedprice")),
        })

    if plan == "broadcast":
        pdf = _tbl(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
        bkeys = np.sort(pdf.loc[pdf["p_brand"] == brand, "p_partkey"]
                        .to_numpy(np.int64))
        bref = ray.put(bkeys)

        def brand_filter(t: pa.Table) -> pa.Table:
            ks = ray.get(bref)
            mask, _ = _probe(ks, ks, t.column("l_partkey").to_numpy())
            return project(t, pa.array(mask))

        subset = li.map_batches(brand_filter, batch_format="pyarrow",
                                batch_size=65536)
    else:
        bparts = (_tbl(sf_dir, "part", ["p_partkey", "p_brand"])
                  .filter(expr=f"p_brand == '{brand}'")
                  .select_columns(["p_partkey"]))
        joined = safe_join(li, bparts, join_type="inner",
                           num_partitions=num_partitions,
                           on=("l_partkey",), right_on=("p_partkey",))
        subset = joined.map_batches(
            lambda t: project(t, pa.array(np.ones(t.num_rows, bool))),
            batch_format="pyarrow")

    subset = subset.materialize()  # scanned twice; see docstring

    stats = (subset.groupby("l_partkey")
             .aggregate(Sum("qty_e2", alias_name="sum_q"),
                        Count(alias_name="n_q")))
    sdf = stats.to_pandas().sort_values("l_partkey")
    sref = ray.put((sdf["l_partkey"].to_numpy(np.int64),
                    sdf["sum_q"].to_numpy(np.int64),
                    sdf["n_q"].to_numpy(np.int64)))

    def compare(t: pa.Table) -> pa.Table:
        keys, sums, ns = ray.get(sref)
        idx = np.searchsorted(keys, t.column("l_partkey").to_numpy())
        qty = t.column("qty_e2").to_numpy()
        # qty < 0.2·avg  ⇔  5·qty_e2·n < sum_e2 (int64 exact)
        mask = 5 * qty * ns[idx] < sums[idx]
        price = t.column("price_e2").to_numpy()
        return pa.table({
            "p_price": pa.array([int(price[mask].sum())], pa.int64()),
            "p_n": pa.array([int(mask.sum())], pa.int64()),
        })

    partials = subset.map_batches(compare, batch_format="pyarrow",
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


def _having_sums(partials, thr_e2: int) -> tuple[np.ndarray, np.ndarray]:
    """(l_orderkey, p_q) partials → the HAVING-filtered (orderkeys,
    sums), sorted by key. Driver fold under :data:`HAVING_FOLD_MAX_KEYS`,
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
                                  pa.scalar(thr_e2, pa.int64()))).sort_by("l_orderkey")
    return (kept.column("l_orderkey").to_numpy().astype(np.int64),
            kept.column("p_q").to_numpy().astype(np.int64))


def big_orders_q18(sf_dir: str, min_qty: float = 300.0,
                   num_partitions: int = 8):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds
    ``min_qty``, joined back to orders + customer for display columns —
    the GROUP BY … HAVING subquery feeding an IN filter.

    The per-order quantity sums reduce through the combiner, then —
    because the winner set must reach the driver for the broadcast
    anyway — the partials are FOLDED incrementally on the driver
    (``functions/collect.fold_capped``), skipping the distributed
    groupby entirely: measured 9.9 s (plain sort-shuffle groupby) →
    4.2 s (bucketed hash agg) → ~2 s (driver fold) at sf0.1. Past the
    cap it falls back to the bucketed hash aggregate
    (``stages/hashagg.grouped_aggregate``) — the 100-TB path. The
    HAVING filter leaves a tiny winner set (~0.1% of orders at the
    default threshold) broadcast into the orders scan with zero join
    shuffles; customer names attach by the size-aware planner."""
    plan = _join_plan(sf_dir, ["customer"])
    li = _tbl(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    thr_e2 = int(round(min_qty * 100))
    partials = li.map_batches(_q18_qty_partial, batch_format="pyarrow",
                              batch_size=65536)
    wref = ray.put(_having_sums(partials, thr_e2))

    orders = _tbl(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def pick_orders(t: pa.Table) -> pa.Table:
        keys, q = ray.get(wref)
        mask, qv = _probe(keys, q, t.column("o_orderkey").to_numpy())
        t = t.filter(pa.array(mask))
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "o_custkey": t.column("o_custkey").cast(pa.int64()),
            "o_orderdate": t.column("o_orderdate"),
            "total_price_e2": _e2(t.column("o_totalprice")),
            "sum_qty_e2": pa.array(qv[mask], pa.int64()),
        })

    picked = orders.map_batches(pick_orders, batch_format="pyarrow",
                                batch_size=65536)

    if plan == "broadcast":
        cdf = _tbl(sf_dir, "customer", ["c_custkey", "c_name"]).to_pandas()
        nref = ray.put(_sorted_lookup(cdf, "c_custkey", "c_name"))

        def add_name(t: pa.Table) -> pa.Table:
            keys, names = ray.get(nref)
            _, nm = _probe(keys, names,
                           t.column("o_custkey").to_numpy().astype(np.int64))
            return t.append_column("c_name", pa.array(nm.astype(str)))

        out = picked.map_batches(add_name, batch_format="pyarrow")
    else:
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_name"])
        out = safe_join(picked, cust, join_type="inner",
                        num_partitions=num_partitions,
                        on=("o_custkey",), right_on=("c_custkey",))

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
    distinct recent-order custkey set — broadcast-probed (``~mask``) or
    a native ``left_anti`` hash join by the planner."""
    plan = _join_plan(sf_dir, ["orders"])
    cust = _tbl(sf_dir, "customer", ["c_custkey", "c_acctbal"])

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

    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    lo = _TS(since)

    def recent_keys_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("o_orderdate"), lo))
        return pa.table({"o_custkey": pa.array(
            np.unique(t.column("o_custkey").to_numpy()), pa.int64())})

    recent = orders.map_batches(recent_keys_partial, batch_format="pyarrow")

    if plan == "broadcast":
        parts = collect_tables(recent)
        keys = (np.unique(np.concatenate(
            [t.column("o_custkey").to_numpy() for t in parts]))
            if parts else np.empty(0, np.int64))
        assert keys.size <= BROADCAST_BUILD_MAX_ROWS, "guard: use partitioned"
        kref = ray.put(keys)

        def anti(t: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            mask, _ = _probe(ks, ks, t.column("c_custkey").to_numpy())
            return t.filter(pa.array(~mask))

        idle = rich_ds.map_batches(anti, batch_format="pyarrow")
    else:
        recent_d = (recent.groupby("o_custkey").count()
                    .select_columns(["o_custkey"]))
        idle = safe_join(rich_ds, recent_d, join_type="left_anti",
                         num_partitions=num_partitions,
                         on=("c_custkey",), right_on=("o_custkey",))

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
    return out.map_batches(
        lambda t: pa.table({
            "cgroup": t.column("cgroup").cast(pa.int64()),
            "n_cust": t.column("n_cust").cast(pa.int64()),
            "total_acct_e2": t.column("total_acct_e2").cast(pa.int64()),
        }), batch_format="pyarrow")


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

    The 'F'-status order filter follows the size-aware planner:
    broadcast sorted-key probe inside the lineitem scan, or a
    partitioned hash join."""
    plan = _join_plan(sf_dir, ["orders"])
    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_returnflag"])
    orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])

    def f_keys_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("o_orderstatus"), "F"))
        return pa.table({"o_orderkey": pa.array(
            np.unique(t.column("o_orderkey").to_numpy()), pa.int64())})

    fkeys = orders.map_batches(f_keys_partial, batch_format="pyarrow")

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

    if plan == "broadcast":
        parts = collect_tables(fkeys)
        keys = (np.unique(np.concatenate(
            [t.column("o_orderkey").to_numpy() for t in parts]))
            if parts else np.empty(0, np.int64))
        assert keys.size <= BROADCAST_BUILD_MAX_ROWS, "guard: use partitioned"
        kref = ray.put(keys)

        def pair_in_f(t: pa.Table) -> pa.Table:
            ks = ray.get(kref)
            mask, _ = _probe(ks, ks, t.column("l_orderkey").to_numpy())
            return pair_partial(t.filter(pa.array(mask)))

        pair_src = li.map_batches(pair_in_f, batch_format="pyarrow",
                                  batch_size=65536)
    else:
        f_ds = fkeys.groupby("o_orderkey").count().select_columns(["o_orderkey"])
        joined = li.join(f_ds, join_type="inner",
                         num_partitions=num_partitions,
                         on=("l_orderkey",), right_on=("o_orderkey",))
        pair_src = joined.map_batches(pair_partial, batch_format="pyarrow")

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
    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
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
    → order window filter maps orderkey→custkey (broadcast probe or
    hash join by the planner) → ``groupby(custkey).sum`` (one narrow
    shuffle) → tiny top-k fold → broadcast name/nation attach."""
    plan = _join_plan(sf_dir, ["orders"])
    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])
    lo, hi = _TS(quarter), _TS(
        str(pd.Timestamp(quarter) + pd.DateOffset(months=3)))

    def rev_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        rev = pc.multiply(
            _e2(t.column("l_extendedprice")),
            pc.subtract(pa.scalar(100, pa.int64()),
                        _e2(t.column("l_discount"))))
        g = pa.table({"l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                      "r": rev})
        agg = pa.TableGroupBy(g, "l_orderkey").aggregate([("r", "sum")])
        return agg.rename_columns(["l_orderkey", "p_r"])

    li_sums = li.map_batches(rev_partial, batch_format="pyarrow",
                             batch_size=65536)

    orders = _tbl(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"])

    def window_orders(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        t = t.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "o_custkey": t.column("o_custkey").cast(pa.int64()),
        })

    win = orders.map_batches(window_orders, batch_format="pyarrow")

    if plan == "broadcast":
        parts = collect_tables(win)
        ok = (pa.concat_tables(parts) if parts
              else pa.table({"o_orderkey": pa.array([], pa.int64()),
                             "o_custkey": pa.array([], pa.int64())}))
        odf = ok.to_pandas().sort_values("o_orderkey")
        assert len(odf) <= BROADCAST_BUILD_MAX_ROWS, "guard: use partitioned"
        oref = ray.put((odf["o_orderkey"].to_numpy(np.int64),
                        odf["o_custkey"].to_numpy(np.int64)))

        def to_cust(t: pa.Table) -> pa.Table:
            keys, ck = ray.get(oref)
            mask, cv = _probe(keys, ck, t.column("l_orderkey").to_numpy())
            t = t.filter(pa.array(mask))
            return pa.table({"c_custkey": pa.array(cv[mask], pa.int64()),
                             "p_r": t.column("p_r")})

        by_cust_src = li_sums.map_batches(to_cust, batch_format="pyarrow")
    else:
        joined = safe_join(li_sums, win, join_type="inner",
                           num_partitions=num_partitions,
                           on=("l_orderkey",), right_on=("o_orderkey",))
        by_cust_src = joined.map_batches(
            lambda t: pa.table({"c_custkey": t.column("o_custkey").cast(pa.int64()),
                                "p_r": t.column("p_r")}),
            batch_format="pyarrow")

    by_cust = by_cust_src.groupby("c_custkey").aggregate(
        Sum("p_r", alias_name="revenue_e4"))

    # Customer is NOT a bounded dimension at 100×: never fold the full
    # per-customer aggregate. (revenue_e4 desc, c_custkey asc) is a
    # total order over exactly the folded columns, so per-block partial
    # top-k is exact — only k rows per block reach the driver.
    def topk_partial(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("revenue_e4", "descending"),
                                            ("c_custkey", "ascending")])
        return t.take(idx[:k])

    parts = collect_tables(
        by_cust.map_batches(topk_partial, batch_format="pyarrow"))
    cdf = (pa.concat_tables(parts).to_pandas() if parts
           else pd.DataFrame({"c_custkey": pd.Series(dtype="int64"),
                              "revenue_e4": pd.Series(dtype="int64")}))
    cdf["revenue_e4"] = cdf["revenue_e4"].astype("int64")
    cdf = (cdf.sort_values(["revenue_e4", "c_custkey"],
                           ascending=[False, True]).head(k))
    names = _tbl(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_nationkey"]).to_pandas()
    nation = _tbl(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    out = (cdf.merge(names, on="c_custkey")
           .merge(nation, left_on="c_nationkey", right_on="n_nationkey"))
    out = out.sort_values(["revenue_e4", "c_custkey"],
                          ascending=[False, True]).reset_index(drop=True)
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
    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_orderdate"])
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
    from ..sources.tables import read_sf_table

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

    The part attributes needed by EVERY bundle (brand id, size) are
    broadcast as a sorted-key attribute table; the whole disjunction
    evaluates VECTORIZED inside the lineitem scan (numpy boolean
    algebra over the gathered attributes), so the OR costs three mask
    ANDs and one OR per batch — no per-bundle scans, no join shuffle
    on the broadcast plan. The partitioned plan ships the same
    evaluation after a hash join. Exact e4 integer revenue."""
    plan = _join_plan(sf_dir, ["part"])
    li = _tbl(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    part = _tbl(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    bundle_brands = pa.array([b for b, *_ in Q19_BUNDLES], pa.string())

    def part_attrs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pdf = part.to_pandas().sort_values("p_partkey")
        keys = pdf["p_partkey"].to_numpy(np.int64)
        # brand → bundle index via the Arrow index_in kernel (vectorized
        # hash probe; brands are distinct so first-match == dict lookup),
        # -1 for parts outside every bundle — no per-row Python on the
        # corpus-sized part table.
        bid = pc.index_in(pa.array(pdf["p_brand"], pa.string()),
                          value_set=bundle_brands).fill_null(-1)
        bid = bid.to_numpy(zero_copy_only=False).astype(np.int64)
        size = pdf["p_size"].to_numpy(np.int64)
        return keys, bid, size

    def eval_bundles(bid, size, qty_e2):
        m = np.zeros(len(bid), dtype=bool)
        for i, (_, slo, shi, qlo, qhi) in enumerate(Q19_BUNDLES):
            m |= ((bid == i) & (size >= slo) & (size <= shi)
                  & (qty_e2 >= qlo * 100) & (qty_e2 <= qhi * 100))
        return m

    if plan == "broadcast":
        aref = ray.put(part_attrs())

        def rev_partial(t: pa.Table) -> pa.Table:
            keys, bid, size = ray.get(aref)
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            idx = np.searchsorted(keys, pk)
            idx = np.clip(idx, 0, len(keys) - 1)
            hit = keys[idx] == pk
            qty_e2 = _e2(t.column("l_quantity")).to_numpy()
            m = hit & eval_bundles(bid[idx], size[idx], qty_e2)
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            return pa.table({"p_r": pa.array([int(rev[m].sum())], pa.int64())})

        partials = li.map_batches(rev_partial, batch_format="pyarrow",
                                  batch_size=65536)
    else:
        joined = li.join(part, join_type="inner",
                         num_partitions=num_partitions,
                         on=("l_partkey",), right_on=("p_partkey",))

        def rev_partial_j(t: pa.Table) -> pa.Table:
            bid = pc.index_in(t.column("p_brand"),
                              value_set=bundle_brands).fill_null(-1)
            bid = bid.to_numpy(zero_copy_only=False).astype(np.int64)
            size = t.column("p_size").to_numpy().astype(np.int64)
            qty_e2 = _e2(t.column("l_quantity")).to_numpy()
            m = eval_bundles(bid, size, qty_e2)
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            return pa.table({"p_r": pa.array([int(rev[m].sum())], pa.int64())})

        partials = joined.map_batches(rev_partial_j, batch_format="pyarrow")

    total = partials.sum("p_r") or 0
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
    combiner + one pair groupby; part attributes broadcast; the final
    distinct-per-group is a second combiner + a (brand, type, supp)
    groupby whose cardinality is groups × suppliers — dimension-sized."""
    li = _tbl(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    part = _tbl(sf_dir, "part", ["p_partkey", "p_brand", "p_type"])

    def pair_partial(t: pa.Table) -> pa.Table:
        return (t.select(["l_partkey", "l_suppkey"])
                .group_by(["l_partkey", "l_suppkey"]).aggregate([]))

    # batch-local distinct only: the (brand, type, supp) groupby below
    # dedups across batches anyway, so a global pair-distinct would be
    # a second full shuffle for nothing (measured 11.6 s → 1.5 s).
    pairs = li.map_batches(pair_partial, batch_format="pyarrow",
                           batch_size=65536)

    pdf = part.to_pandas().sort_values("p_partkey")
    keep = pdf["p_brand"] != excl_brand
    pdf = pdf[keep]
    aref = ray.put((pdf["p_partkey"].to_numpy(np.int64),
                    np.array(pdf["p_brand"].tolist(), object),
                    np.array(pdf["p_type"].tolist(), object)))

    def attach(t: pa.Table) -> pa.Table:
        keys, brands, types = ray.get(aref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        idx = np.searchsorted(keys, pk)
        idx = np.clip(idx, 0, max(len(keys) - 1, 0))
        hit = (keys[idx] == pk) if len(keys) else np.zeros(len(pk), bool)
        g = pa.table({
            "p_brand": pa.array(brands[idx][hit].tolist(), pa.string()),
            "p_type": pa.array(types[idx][hit].tolist(), pa.string()),
            "l_suppkey": pa.array(
                t.column("l_suppkey").to_numpy().astype(np.int64)[hit],
                pa.int64()),
        })
        return g.group_by(["p_brand", "p_type", "l_suppkey"]).aggregate([])

    # ONE brand-bucket shuffle: all triples of a (brand, type) land in
    # one bucket, where nunique per group is a single vectorized call
    # (was two chained sort-groupbys: 11.6 s → ~1.5 s at sf0.01).
    from ..stages.hashagg import grouped_reduce

    def count_bucket(g):
        out = (g.groupby(["p_brand", "p_type"])["l_suppkey"]
               .nunique().reset_index(name="supplier_cnt"))
        out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
        return out

    triples = pairs.map_batches(attach, batch_format="pyarrow")
    return grouped_reduce(triples, "p_brand", count_bucket,
                          batch_format="pandas")


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

    li = _tbl(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])

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

    Decorrelation: per-part min via combiner + bucketed hash aggregate
    (partkey cardinality ~ corpus); the min map broadcasts (sorted-key
    probe) back into the SAME fact scan to emit the achieving rows —
    at 100× the min map exceeds the broadcast cap and the join-back
    becomes the partitioned hash join (planner-gated like every other
    op here)."""
    from ..stages.hashagg import grouped_aggregate

    plan = _join_plan(sf_dir, ["part"])
    part = _tbl(sf_dir, "part", ["p_partkey", "p_type", "p_size"])
    pdf = part.to_pandas()
    keys = np.sort(pdf.loc[(pdf["p_type"] == p_type)
                           & (pdf["p_size"] < max_size),
                           "p_partkey"].to_numpy(np.int64))
    kref = ray.put(keys)

    li = _tbl(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_extendedprice"])

    def cost_partial(t: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        idx = np.clip(np.searchsorted(ks, pk), 0, max(len(ks) - 1, 0))
        hit = (ks[idx] == pk) if len(ks) else np.zeros(len(pk), bool)
        t = t.filter(pa.array(hit))
        g = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                      "c": _e2(t.column("l_extendedprice"))})
        agg = pa.TableGroupBy(g, "l_partkey").aggregate([("c", "min")])
        return agg.rename_columns(["l_partkey", "p_c"])

    filtered = li.map_batches(cost_partial, batch_format="pyarrow",
                              batch_size=65536).materialize()
    mins = grouped_aggregate(filtered, "l_partkey",
                             [("p_c", "min", "cost_e2")])

    if plan == "broadcast":
        mdf = mins.to_pandas().sort_values("l_partkey")
        assert len(mdf) <= BROADCAST_BUILD_MAX_ROWS, "guard: use partitioned"
        mref = ray.put((mdf["l_partkey"].to_numpy(np.int64),
                        mdf["cost_e2"].to_numpy(np.int64)))

        def achievers(t: pa.Table) -> pa.Table:
            mk, mc = ray.get(mref)
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            idx = np.clip(np.searchsorted(mk, pk), 0, max(len(mk) - 1, 0))
            hit = (mk[idx] == pk) if len(mk) else np.zeros(len(pk), bool)
            cost = _e2(t.column("l_extendedprice")).to_numpy()
            m = hit & (cost == mc[np.clip(idx, 0, max(len(mk) - 1, 0))])
            g = pa.table({
                "l_partkey": pa.array(pk[m], pa.int64()),
                "s_suppkey": pa.array(
                    t.column("l_suppkey").to_numpy().astype(np.int64)[m],
                    pa.int64()),
                "cost_e2": pa.array(cost[m], pa.int64()),
            })
            return g.group_by(["l_partkey", "s_suppkey", "cost_e2"]).aggregate([])

        achieved = li.map_batches(achievers, batch_format="pyarrow",
                                  batch_size=65536)
    else:
        # min map is partkey-cardinality (corpus-sized at 100×): the
        # join-back is a hash join on partkey, equality filter after.
        def li_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_partkey": t.column("l_partkey").cast(pa.int64()),
                "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "cost": _e2(t.column("l_extendedprice")),
            })

        j = (li.map_batches(li_proj, batch_format="pyarrow")
             .join(mins, join_type="inner", num_partitions=num_partitions,
                   on=("l_partkey",), right_on=("l_partkey",)))

        def eq_filter(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("cost"), t.column("cost_e2")))
            g = pa.table({
                "l_partkey": t.column("l_partkey").cast(pa.int64()),
                "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
                "cost_e2": t.column("cost_e2").cast(pa.int64()),
            })
            return g.group_by(["l_partkey", "s_suppkey", "cost_e2"]).aggregate([])

        achieved = j.map_batches(eq_filter, batch_format="pyarrow")

    rows = (achieved
            .groupby(["l_partkey", "s_suppkey", "cost_e2"]).count()
            .select_columns(["l_partkey", "s_suppkey", "cost_e2"]))

    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
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

    Both legs reduce in ONE lineitem pass: the brand flag gates the
    numerator inside the same combiner that sums the denominator.
    Orderkey→year maps by broadcast probe or hash join (planner)."""
    plan = _join_plan(sf_dir, ["orders"])
    part = _tbl(sf_dir, "part", ["p_partkey", "p_brand"])
    pdf = part.to_pandas().sort_values("p_partkey")
    pref = ray.put((pdf["p_partkey"].to_numpy(np.int64),
                    (pdf["p_brand"] == brand).to_numpy()))

    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_extendedprice", "l_discount"])

    def leg_partial(t: pa.Table) -> pa.Table:
        pk_keys, pk_brand = ray.get(pref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        idx = np.clip(np.searchsorted(pk_keys, pk), 0, len(pk_keys) - 1)
        hit = pk_keys[idx] == pk
        is_brand = hit & pk_brand[idx]
        rev = pc.multiply(
            _e2(t.column("l_extendedprice")),
            pc.subtract(pa.scalar(100, pa.int64()),
                        _e2(t.column("l_discount")))).to_numpy()
        g = pa.table({
            "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
            "num": pa.array(np.where(is_brand, rev, 0), pa.int64()),
            "den": pa.array(rev, pa.int64()),
        })
        agg = pa.TableGroupBy(g, "l_orderkey").aggregate(
            [("num", "sum"), ("den", "sum")])
        return agg.rename_columns(["l_orderkey", "p_num", "p_den"])

    per_order = li.map_batches(leg_partial, batch_format="pyarrow",
                               batch_size=65536)

    orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    if plan == "broadcast":
        odf = orders.to_pandas().sort_values("o_orderkey")
        years = odf["o_orderdate"].dt.year.to_numpy(np.int64)
        oref = ray.put((odf["o_orderkey"].to_numpy(np.int64), years))

        def year_partial(t: pa.Table) -> pa.Table:
            ok, yr = ray.get(oref)
            k = t.column("l_orderkey").to_numpy()
            idx = np.clip(np.searchsorted(ok, k), 0, len(ok) - 1)
            hit = ok[idx] == k
            g = pa.table({
                "o_year": pa.array(yr[idx][hit], pa.int64()),
                "num": t.column("p_num").filter(pa.array(hit)),
                "den": t.column("p_den").filter(pa.array(hit)),
            })
            agg = pa.TableGroupBy(g, "o_year").aggregate(
                [("num", "sum"), ("den", "sum")])
            return agg.rename_columns(["o_year", "p_num", "p_den"])

        partials = per_order.map_batches(year_partial, batch_format="pyarrow")
    else:
        def with_year(t: pa.Table) -> pa.Table:
            yr = pc.year(t.column("o_orderdate")).cast(pa.int64())
            return pa.table({"o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                             "o_year": yr})

        joined = per_order.join(
            orders.map_batches(with_year, batch_format="pyarrow"),
            join_type="inner", num_partitions=num_partitions,
            on=("l_orderkey",), right_on=("o_orderkey",))

        def year_partial_j(t: pa.Table) -> pa.Table:
            g = pa.table({"o_year": t.column("o_year"),
                          "num": t.column("p_num"), "den": t.column("p_den")})
            agg = pa.TableGroupBy(g, "o_year").aggregate(
                [("num", "sum"), ("den", "sum")])
            return agg.rename_columns(["o_year", "p_num", "p_den"])

        partials = joined.map_batches(year_partial_j, batch_format="pyarrow")

    out = partials.groupby("o_year").aggregate(
        Sum("p_num", alias_name="num_e4"), Sum("p_den", alias_name="den_e4"))
    return out.map_batches(
        lambda t: pa.table({"o_year": t.column("o_year").cast(pa.int64()),
                            "num_e4": t.column("num_e4").cast(pa.int64()),
                            "den_e4": t.column("den_e4").cast(pa.int64())}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q7 shape: two-dimension-pair volume (supp nation × cust nation × year)
# ---------------------------------------------------------------------------

def nation_volume_q7(sf_dir: str, nation_a: int = 3, nation_b: int = 8,
                     num_partitions: int = 8):
    """TPC-H Q7 shape: shipped revenue between two nations in both
    directions, per year → (supp_nation, cust_nation, o_year, rev_e4).

    Supplier→nation is a true bounded dimension (capped broadcast on
    both plans); orders and customer are FACTS — the broadcast plan
    (planner-gated by the orders row count) evaluates everything in
    ONE lineitem pass, the partitioned plan routes them through two
    hash joins (lineitem→orders on orderkey, →customer on custkey)
    with the supplier-nation prefilter shrinking the left side first.
    Plans are row-identical (tested)."""
    plan = _join_plan(sf_dir, ["orders"])
    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    assert len(sdf) <= BROADCAST_BUILD_MAX_ROWS, "supplier dim over cap"
    sdf = sdf.sort_values("s_suppkey")
    sref = ray.put((sdf["s_suppkey"].to_numpy(np.int64),
                    sdf["s_nationkey"].to_numpy(np.int64)))

    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    if plan == "broadcast":
        cdf = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
        cdf = cdf.sort_values("c_custkey")
        cref = ray.put((cdf["c_custkey"].to_numpy(np.int64),
                        cdf["c_nationkey"].to_numpy(np.int64)))
        odf = _tbl(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).to_pandas()
        odf = odf.sort_values("o_orderkey")
        oref = ray.put((odf["o_orderkey"].to_numpy(np.int64),
                        odf["o_custkey"].to_numpy(np.int64),
                        odf["o_orderdate"].dt.year.to_numpy(np.int64)))

        def vol_partial(t: pa.Table) -> pa.Table:
            sk, sn = ray.get(sref)
            ck, cn = ray.get(cref)
            ok, oc, oy = ray.get(oref)
            lsk = t.column("l_suppkey").to_numpy().astype(np.int64)
            lok = t.column("l_orderkey").to_numpy().astype(np.int64)
            si = np.clip(np.searchsorted(sk, lsk), 0, len(sk) - 1)
            oi = np.clip(np.searchsorted(ok, lok), 0, len(ok) - 1)
            hit = (sk[si] == lsk) & (ok[oi] == lok)
            cust = oc[oi]
            ci = np.clip(np.searchsorted(ck, cust), 0, len(ck) - 1)
            hit &= ck[ci] == cust
            ns, nc = sn[si], cn[ci]
            m = hit & (((ns == nation_a) & (nc == nation_b))
                       | ((ns == nation_b) & (nc == nation_a)))
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            g = pa.table({
                "supp_nation": pa.array(ns[m], pa.int64()),
                "cust_nation": pa.array(nc[m], pa.int64()),
                "o_year": pa.array(oy[oi][m], pa.int64()),
                "r": pa.array(rev[m], pa.int64()),
            })
            agg = pa.TableGroupBy(g, ["supp_nation", "cust_nation", "o_year"]
                                  ).aggregate([("r", "sum")])
            return agg.rename_columns(
                ["supp_nation", "cust_nation", "o_year", "p_r"])

        partials = li.map_batches(vol_partial, batch_format="pyarrow",
                                  batch_size=65536)
    else:
        # supplier-nation prefilter shrinks the fact stream before the
        # two hash joins; everything shipped is a narrow projection.
        def left_partial(t: pa.Table) -> pa.Table:
            sk, sn = ray.get(sref)
            lsk = t.column("l_suppkey").to_numpy().astype(np.int64)
            si = np.clip(np.searchsorted(sk, lsk), 0, len(sk) - 1)
            ns = sn[si]
            m = (sk[si] == lsk) & ((ns == nation_a) | (ns == nation_b))
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            return pa.table({
                "l_orderkey": pa.array(
                    t.column("l_orderkey").to_numpy().astype(np.int64)[m],
                    pa.int64()),
                "supp_nation": pa.array(ns[m], pa.int64()),
                "r": pa.array(rev[m], pa.int64()),
            })

        left = li.map_batches(left_partial, batch_format="pyarrow",
                              batch_size=65536)
        orders = _tbl(sf_dir, "orders",
                      ["o_orderkey", "o_custkey", "o_orderdate"])

        def ord_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "o_year": pc.year(t.column("o_orderdate")).cast(pa.int64()),
            })

        j1 = safe_join(left, orders.map_batches(ord_proj, batch_format="pyarrow"),
                       join_type="inner", num_partitions=num_partitions,
                       on=("l_orderkey",), right_on=("o_orderkey",))
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"])

        def cust_proj(t: pa.Table) -> pa.Table:
            nk = t.column("c_nationkey").cast(pa.int64())
            m = pc.or_(pc.equal(nk, pa.scalar(nation_a, pa.int64())),
                       pc.equal(nk, pa.scalar(nation_b, pa.int64())))
            t = t.filter(m)
            return pa.table({"c_custkey": t.column("c_custkey").cast(pa.int64()),
                             "cust_nation": t.column("c_nationkey").cast(pa.int64())})

        j2 = safe_join(j1, cust.map_batches(cust_proj, batch_format="pyarrow"),
                       join_type="inner", num_partitions=num_partitions,
                       on=("o_custkey",), right_on=("c_custkey",))

        def pair_partial(t: pa.Table) -> pa.Table:
            ns = t.column("supp_nation").to_numpy()
            nc = t.column("cust_nation").to_numpy()
            m = (((ns == nation_a) & (nc == nation_b))
                 | ((ns == nation_b) & (nc == nation_a)))
            g = pa.table({
                "supp_nation": pa.array(ns[m], pa.int64()),
                "cust_nation": pa.array(nc[m], pa.int64()),
                "o_year": pa.array(t.column("o_year").to_numpy()[m], pa.int64()),
                "r": pa.array(t.column("r").to_numpy()[m], pa.int64()),
            })
            agg = pa.TableGroupBy(g, ["supp_nation", "cust_nation", "o_year"]
                                  ).aggregate([("r", "sum")])
            return agg.rename_columns(
                ["supp_nation", "cust_nation", "o_year", "p_r"])

        partials = j2.map_batches(pair_partial, batch_format="pyarrow")

    out = (partials
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
    year → (n_name, o_year, rev_e4). Supplier→nation(→name) is a
    bounded dimension composite (capped broadcast on both plans). The
    part-name predicate and the orders year map are FACT-sized: the
    broadcast plan (planner-gated on orders) pushes both as broadcast
    lookups into one lineitem pass; the partitioned plan routes them
    through two hash joins (lineitem→filtered-part-keys on partkey,
    →orders on orderkey). Plans row-identical (tested)."""
    plan = _join_plan(sf_dir, ["orders"])
    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    assert len(sdf) <= BROADCAST_BUILD_MAX_ROWS, "supplier dim over cap"
    sdf = sdf.sort_values("s_suppkey")
    ndf = _tbl(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nmap = dict(zip(ndf["n_nationkey"], ndf["n_name"]))
    sname = np.array([nmap[k] for k in sdf["s_nationkey"]], object)
    sref = ray.put((sdf["s_suppkey"].to_numpy(np.int64), sname))

    li = _tbl(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_suppkey",
               "l_extendedprice", "l_discount"])

    def rollup(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t, ["n_name", "o_year"]).aggregate([("r", "sum")])
        return agg.rename_columns(["n_name", "o_year", "p_r"])

    if plan == "broadcast":
        pdf = _tbl(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
        keys = np.sort(pdf.loc[pdf["p_name"].str.contains(name_sub, regex=False),
                               "p_partkey"].to_numpy(np.int64))
        pref = ray.put(keys)
        odf = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).to_pandas()
        odf = odf.sort_values("o_orderkey")
        oref = ray.put((odf["o_orderkey"].to_numpy(np.int64),
                        odf["o_orderdate"].dt.year.to_numpy(np.int64)))

        def profit_partial(t: pa.Table) -> pa.Table:
            pk = ray.get(pref)
            sk, sn = ray.get(sref)
            ok, oy = ray.get(oref)
            lpk = t.column("l_partkey").to_numpy().astype(np.int64)
            pi = np.clip(np.searchsorted(pk, lpk), 0, max(len(pk) - 1, 0))
            m = (pk[pi] == lpk) if len(pk) else np.zeros(len(lpk), bool)
            lsk = t.column("l_suppkey").to_numpy().astype(np.int64)
            lok = t.column("l_orderkey").to_numpy().astype(np.int64)
            si = np.clip(np.searchsorted(sk, lsk), 0, len(sk) - 1)
            oi = np.clip(np.searchsorted(ok, lok), 0, len(ok) - 1)
            m &= (sk[si] == lsk) & (ok[oi] == lok)
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            return rollup(pa.table({
                "n_name": pa.array(sn[si][m].tolist(), pa.string()),
                "o_year": pa.array(oy[oi][m], pa.int64()),
                "r": pa.array(rev[m], pa.int64()),
            }))

        partials = li.map_batches(profit_partial, batch_format="pyarrow",
                                  batch_size=65536)
    else:
        def left_partial(t: pa.Table) -> pa.Table:
            sk, sn = ray.get(sref)
            lsk = t.column("l_suppkey").to_numpy().astype(np.int64)
            si = np.clip(np.searchsorted(sk, lsk), 0, len(sk) - 1)
            m = sk[si] == lsk
            rev = pc.multiply(
                _e2(t.column("l_extendedprice")),
                pc.subtract(pa.scalar(100, pa.int64()),
                            _e2(t.column("l_discount")))).to_numpy()
            return pa.table({
                "l_partkey": pa.array(
                    t.column("l_partkey").to_numpy().astype(np.int64)[m],
                    pa.int64()),
                "l_orderkey": pa.array(
                    t.column("l_orderkey").to_numpy().astype(np.int64)[m],
                    pa.int64()),
                "n_name": pa.array(sn[si][m].tolist(), pa.string()),
                "r": pa.array(rev[m], pa.int64()),
            })

        left = li.map_batches(left_partial, batch_format="pyarrow",
                              batch_size=65536)
        part = _tbl(sf_dir, "part", ["p_partkey", "p_name"])

        def part_keys(t: pa.Table) -> pa.Table:
            m = pc.match_substring(t.column("p_name"), name_sub)
            return pa.table({"p_partkey":
                             t.filter(m).column("p_partkey").cast(pa.int64())})

        j1 = safe_join(left, part.map_batches(part_keys, batch_format="pyarrow"),
                       join_type="inner", num_partitions=num_partitions,
                       on=("l_partkey",), right_on=("p_partkey",))
        orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

        def ord_proj(t: pa.Table) -> pa.Table:
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_year": pc.year(t.column("o_orderdate")).cast(pa.int64()),
            })

        j2 = safe_join(j1, orders.map_batches(ord_proj, batch_format="pyarrow"),
                       join_type="inner", num_partitions=num_partitions,
                       on=("l_orderkey",), right_on=("o_orderkey",))
        partials = j2.map_batches(
            lambda t: rollup(t.select(["n_name", "o_year", "r"])),
            batch_format="pyarrow")

    out = (partials
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

    One (part, supp) combiner + ONE partkey-bucket shuffle: inside a
    bucket every part's pairs are complete, so the part total, the
    concentration test and the supplier projection are three vectorized
    steps; only qualifying supplier keys leave the bucket."""
    from ..stages.hashagg import grouped_reduce

    pdf = _tbl(sf_dir, "part", ["p_partkey", "p_name"]).to_pandas()
    keys = np.sort(pdf.loc[pdf["p_name"].str.contains(name_sub, regex=False),
                           "p_partkey"].to_numpy(np.int64))
    pref = ray.put(keys)

    li = _tbl(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_quantity"])

    def pair_partial(t: pa.Table) -> pa.Table:
        ks = ray.get(pref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        idx = np.clip(np.searchsorted(ks, pk), 0, max(len(ks) - 1, 0))
        hit = (ks[idx] == pk) if len(ks) else np.zeros(len(pk), bool)
        t = t.filter(pa.array(hit))
        g = pa.table({"l_partkey": t.column("l_partkey").cast(pa.int64()),
                      "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                      "q": _e2(t.column("l_quantity"))})
        agg = pa.TableGroupBy(g, ["l_partkey", "l_suppkey"]).aggregate(
            [("q", "sum")])
        return agg.rename_columns(["l_partkey", "l_suppkey", "p_q"])

    pairs = li.map_batches(pair_partial, batch_format="pyarrow",
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
    sdf = _tbl(sf_dir, "supplier", ["s_suppkey", "s_name"]).to_pandas()
    out = (supp_keys.to_pandas()
           .rename(columns={"l_suppkey": "s_suppkey"})
           .merge(sdf, on="s_suppkey")
           .sort_values("s_suppkey").reset_index(drop=True))
    return out[["s_suppkey", "s_name"]]
