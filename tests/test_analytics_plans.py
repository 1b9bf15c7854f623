"""Analytics joins (pipelines/analytics.py) go through
stages/joins.lookup_join: its broadcast and partitioned plans must agree
row-for-row (the partitioned one reached by lowering
BROADCAST_BUILD_MAX_ROWS), and it must pick the plan by the build side's
measured size."""

from __future__ import annotations

import pandas as pd
import pytest

from horizon_ocr_python_ray.pipelines import analytics
from horizon_ocr_python_ray.sources.tables import read_sf_table
from horizon_ocr_python_ray.stages import joins

SF = "/root/testdata/sf0.001"


def _df(res) -> pd.DataFrame:
    df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
    return df.sort_values(df.columns.tolist()).reset_index(drop=True)


@pytest.mark.parametrize("fn,sort_col", [
    (analytics.revenue_by_nation, "n_name"),
    (analytics.orders_per_customer_join, "c_mktsegment"),
    (analytics.revenue_by_region_q5, "r_name"),
    (analytics.promo_revenue_q14, "n_items"),
    (analytics.priority_lines_q12, "l_returnflag"),
    (analytics.cust_order_dist_q13, "c_count"),
])
def test_plans_agree(ray_session, monkeypatch, fn, sort_col):
    a = _df(fn(SF))  # broadcast: the sf0.001 build sides fit the cap
    monkeypatch.setattr(joins, "BROADCAST_BUILD_MAX_ROWS", 0)
    # num_partitions=2: the hash-shuffle join spawns one aggregator actor
    # per partition, and the 4-cpu test session can't host 8.
    b = _df(fn(SF, num_partitions=2))
    assert list(a.columns) == list(b.columns)
    # float sums may differ by partial-order ulps; compare exact ints and
    # near-exact floats the same way the driver compare does post-e2.
    for c in a.columns:
        if a[c].dtype.kind == "f":
            assert (a[c] - b[c]).abs().max() < 1e-6 * (1 + b[c].abs().max())
        else:
            assert a[c].tolist() == b[c].tolist(), c


def test_auto_resolves_by_size(ray_session, monkeypatch):
    """customer fits the cap: a probe, no hash join. Past the cap the
    same call hash-joins through safe_join, with the same rows."""
    hash_joins = []
    safe_join = joins.safe_join
    monkeypatch.setattr(joins, "safe_join",
                        lambda *a, **k: hash_joins.append(k) or safe_join(*a, **k))

    def join():
        return _df(joins.lookup_join(
            read_sf_table(SF, "orders", ["o_orderkey", "o_custkey"]),
            read_sf_table(SF, "customer", ["c_custkey", "c_mktsegment"]),
            on=("o_custkey",), right_on=("c_custkey",), join_type="inner",
            num_partitions=2))

    probed = join()
    assert hash_joins == []
    monkeypatch.setattr(joins, "BROADCAST_BUILD_MAX_ROWS", 0)
    assert join().equals(probed)
    assert len(hash_joins) == 1
