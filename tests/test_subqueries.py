"""Decorrelated-subquery pipelines (pipelines/subqueries.py): the
broadcast and partitioned plans of each op must agree row-for-row
(same contract, and same lowered cap, as tests/test_analytics_plans.py), and the exactness
rewrites (rational-average clearing, int64 fixed point) must hold on
hand-built cases."""

from __future__ import annotations

import pandas as pd
import pytest

from horizon_ocr_python_ray.pipelines import subqueries
from horizon_ocr_python_ray.stages import joins

SF = "/root/testdata/sf0.001"


def _df(res) -> pd.DataFrame:
    df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
    return df.sort_values(df.columns.tolist()).reset_index(drop=True)


@pytest.mark.parametrize("fn", [
    subqueries.orders_exists_q4,
    subqueries.top_supplier_q15,
    subqueries.part_small_qty_q17,
    subqueries.big_orders_q18,
    subqueries.cust_idle_q22,
    subqueries.waiting_supplier_q21,
    subqueries.returned_top_customers_q10,
    subqueries.disjunctive_revenue_q19,
    subqueries.market_share_q8,
    subqueries.nation_volume_q7,
    subqueries.nation_profit_q9,
    subqueries.min_cost_supplier_q2,
])
def test_plans_agree(ray_session, monkeypatch, fn):
    a = _df(fn(SF))  # broadcast: the sf0.001 build sides fit the cap
    # lookup_join reads the cap from stages/joins, where it is defined
    monkeypatch.setattr(joins, "BROADCAST_BUILD_MAX_ROWS", 0)
    # num_partitions=2: one aggregator actor per partition; the 4-cpu
    # test session can't host 8.
    b = _df(fn(SF, num_partitions=2))
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        assert a[c].tolist() == b[c].tolist(), c


def test_q4_semi_join_counts_each_order_once(ray_session):
    """EXISTS must not multiply-count orders with several returned
    lines: total order_count ≤ orders in the window."""
    out = _df(subqueries.orders_exists_q4(SF))
    assert out["order_count"].sum() > 0
    import pyarrow.parquet as pq

    orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderdate"])
    df = orders.to_pandas()
    window = ((df["o_orderdate"] >= "1996-01-01")
              & (df["o_orderdate"] < "1997-01-01")).sum()
    assert out["order_count"].sum() <= window


def test_q15_single_exact_max(ray_session):
    out = _df(subqueries.top_supplier_q15(SF))
    assert len(out) >= 1
    assert out["total_revenue_e4"].nunique() == 1  # all rows share the max


def test_q15_fold_cap_trips(ray_session, monkeypatch, udf_calls):
    """The revenue partials fold once (lineitem scanned once per batch);
    past HAVING_FOLD_MAX_KEYS a groupby over the partial blocks the fold
    produced gives the same winners without re-running the combiner."""
    calls = udf_calls(subqueries, "_q15_rev_partial")
    fold = _df(subqueries.top_supplier_q15(SF))
    n = calls()
    assert n > 0 and len(fold) > 0
    monkeypatch.setattr(subqueries, "HAVING_FOLD_MAX_KEYS", 0)
    assert _df(subqueries.top_supplier_q15(SF)).equals(fold)
    assert calls() == n


def test_q17_integer_rewrite_matches_float_semantics(ray_session):
    """5·qty_e2·n < sum_e2 must equal qty < 0.2·avg on the real data."""
    import numpy as np
    import pyarrow.parquet as pq

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_partkey", "l_quantity", "l_extendedprice"]).to_pandas()
    part = pq.read_table(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_brand"]).to_pandas()
    keys = set(part.loc[part["p_brand"] == "Brand#1", "p_partkey"])
    sub = li[li["l_partkey"].isin(keys)].copy()
    avg = sub.groupby("l_partkey")["l_quantity"].transform("mean")
    expect_n = int((sub["l_quantity"] < 0.2 * avg).sum())
    out = _df(subqueries.part_small_qty_q17(SF))
    assert int(out["n_lines"].iloc[0]) == expect_n


def test_q18_threshold_filters(ray_session):
    out = _df(subqueries.big_orders_q18(SF))
    assert (out["sum_qty_e2"] > 30000).all()
    assert out["o_orderkey"].is_unique


def test_q18_having_fold_cap_trips(ray_session, monkeypatch, udf_calls):
    """Past HAVING_FOLD_MAX_KEYS the bucketed hash aggregate runs over
    the quantity partials the driver fold already produced: same rows,
    and the lineitem combiner runs once per batch."""
    calls = udf_calls(subqueries, "_q18_qty_partial")
    fold = _df(subqueries.big_orders_q18(SF, min_qty=150.0))
    n = calls()
    assert n > 0 and len(fold) > 0
    monkeypatch.setattr(subqueries, "HAVING_FOLD_MAX_KEYS", 0)
    assert _df(subqueries.big_orders_q18(SF, min_qty=150.0)).equals(fold)
    assert calls() == n


@pytest.mark.parametrize("cap", [None, 0])
def test_q18_empty_having_set(ray_session, monkeypatch, cap):
    """No order passes the HAVING threshold: zero rows with Q18's five
    columns, with the join cap at its default or lowered to 0."""
    if cap is not None:
        monkeypatch.setattr(joins, "BROADCAST_BUILD_MAX_ROWS", cap)
    out = subqueries.big_orders_q18(SF, min_qty=1e9, num_partitions=2)
    assert out.count() == 0
    assert out.schema().names == ["c_name", "o_orderkey", "o_orderdate",
                                  "total_price_e2", "sum_qty_e2"]


def test_q21_sole_problem_supplier_semantics(ray_session):
    """Brute-force replay: an order counts for supplier s iff s is the
    ONLY supplier with a returned line and the order has ≥2 suppliers
    and status 'F'."""
    import pyarrow.parquet as pq

    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_suppkey", "l_returnflag"]).to_pandas()
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_orderstatus"]).to_pandas()
    fset = set(orders.loc[orders.o_orderstatus == "F", "o_orderkey"])
    li = li[li.l_orderkey.isin(fset)]
    wins: dict[int, int] = {}
    for ok, g in li.groupby("l_orderkey"):
        supps = set(g.l_suppkey)
        prob = set(g.loc[g.l_returnflag == "R", "l_suppkey"])
        if len(prob) == 1 and len(supps) >= 2:
            s = next(iter(prob))
            wins[s] = wins.get(s, 0) + 1
    sup = pq.read_table(f"{SF}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    name = dict(zip(sup.s_suppkey, sup.s_name))
    want = sorted(((wins[s], name[s]) for s in wins),
                  key=lambda t: (-t[0], t[1]))[:10]
    out = subqueries.waiting_supplier_q21(SF)
    got = list(zip(out.numwait, out.s_name))
    assert got == want


def test_q10_revenue_is_exact_integer(ray_session):
    out = subqueries.returned_top_customers_q10(SF)
    assert len(out) <= 20
    assert out.revenue_e4.dtype.kind == "i"
    # sorted by (revenue desc, custkey asc)
    assert (out.revenue_e4.is_monotonic_decreasing
            or len(out.revenue_e4.unique()) < len(out))
    pairs = list(zip(-out.revenue_e4, out.c_custkey))
    assert pairs == sorted(pairs)


def test_q10_collects_only_winning_customers(ray_session, monkeypatch):
    """At most k customer rows reach the driver: the winners' keys
    filter the customer table before it is collected."""
    import ray.data

    seen: list[tuple[list[str], int]] = []  # (columns, rows) per collect
    orig_collect = subqueries.collect_table
    orig_to_pandas = ray.data.Dataset.to_pandas

    def collect_spy(ds, *args, **kwargs):
        t = orig_collect(ds, *args, **kwargs)
        seen.append((t.column_names, t.num_rows))
        return t

    def to_pandas_spy(self, *args, **kwargs):
        df = orig_to_pandas(self, *args, **kwargs)
        seen.append((list(df.columns), len(df)))
        return df

    monkeypatch.setattr(subqueries, "collect_table", collect_spy)
    monkeypatch.setattr(ray.data.Dataset, "to_pandas", to_pandas_spy)
    k = 3
    out = subqueries.returned_top_customers_q10(SF, k=k)
    customer_rows = [n for cols, n in seen if "c_name" in cols]
    assert customer_rows and max(customer_rows) <= k
    monkeypatch.undo()
    full = subqueries.returned_top_customers_q10(SF)
    assert len(out) == k
    assert out.to_dict("records") == full.head(k).to_dict("records")


def test_q2_all_min_ties_kept(ray_session):
    import pyarrow.parquet as pq

    out = subqueries.min_cost_supplier_q2(SF)
    # every (partkey) group shares ONE cost (its min) and every
    # supplier achieving it appears
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_partkey", "l_suppkey",
                                "l_extendedprice"]).to_pandas()
    part = pq.read_table(f"{SF}/part.parquet",
                         columns=["p_partkey", "p_type", "p_size"]).to_pandas()
    keys = set(part.loc[(part.p_type == "ECONOMY") & (part.p_size < 15),
                        "p_partkey"])
    sub = li[li.l_partkey.isin(keys)].copy()
    sub["c"] = (sub.l_extendedprice * 100).round().astype("int64")
    mins = sub.groupby("l_partkey")["c"].min()
    for pk, g in out.groupby("l_partkey"):
        assert (g.cost_e2 == mins[pk]).all()
        want = set(sub.loc[(sub.l_partkey == pk) & (sub.c == mins[pk]),
                           "l_suppkey"])
        assert set(g.s_suppkey) == want


def test_q8_share_bounded(ray_session):
    out = subqueries.market_share_q8(SF).to_pandas()
    assert (out.num_e4 <= out.den_e4).all()
    assert (out.num_e4 >= 0).all() and (out.den_e4 > 0).all()


def test_fullouter_union_keeps_either_side(ray_session):
    import pyarrow.parquet as pq

    out = _df(subqueries.cust_year_orders_fullouter(SF))
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_custkey", "o_orderdate"]).to_pandas()
    y1 = orders[(orders.o_orderdate >= "1996-01-01")
                & (orders.o_orderdate < "1997-01-01")]
    y2 = orders[(orders.o_orderdate >= "1997-01-01")
                & (orders.o_orderdate < "1998-01-01")]
    want_keys = set(y1.o_custkey) | set(y2.o_custkey)
    assert set(out.c_custkey) == want_keys
    m = out.set_index("c_custkey")
    c1, c2 = y1.groupby("o_custkey").size(), y2.groupby("o_custkey").size()
    for k in list(want_keys)[:50]:
        assert m.loc[k, "n_y1"] == c1.get(k, 0)
        assert m.loc[k, "n_y2"] == c2.get(k, 0)
    # either-side-only customers exist and carry a zero
    assert ((m.n_y1 == 0) | (m.n_y2 == 0)).any()


def test_q22_buckets_cover_output(ray_session):
    out = _df(subqueries.cust_idle_q22(SF))
    assert set(out["cgroup"]) <= set(range(8))
    assert (out["n_cust"] > 0).all()


def test_q22_empty_keeps_columns(ray_session):
    """Every customer has an order since 1900: zero rows, still with
    Q22's three int64 columns."""
    import pyarrow as pa

    out = subqueries.cust_idle_q22(SF, since="1900-01-01")
    assert out.count() == 0
    assert out.schema().names == ["cgroup", "n_cust", "total_acct_e2"]
    assert out.schema().types == [pa.int64()] * 3
