"""Every ``events_*`` driver query against its DuckDB oracle.

Each query in ``__ray_entry__.queries()`` whose name starts with
``events_`` runs on the sf0.001 tables and is compared with
``oracle_sql()[name]`` the way ``tools/driver_mimic.py`` compares them:
row count, column names and the order-insensitive value hash."""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pytest

import __ray_entry__
from test_subqueries import SF  # the sf0.001 tables
from tools.driver_mimic import to_pandas, value_hash

EVENT_QUERIES = sorted(n for n in __ray_entry__.queries()
                       if n.startswith("events_"))


def test_event_family_is_complete():
    assert len(EVENT_QUERIES) == 22


@pytest.fixture(scope="module")
def oracle():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    yield con
    con.close()


@pytest.mark.parametrize("name", EVENT_QUERIES)
def test_event_query_matches_oracle(ray_session, oracle, name):
    got = to_pandas(__ray_entry__.queries()[name](SF))
    want = oracle.execute(__ray_entry__.oracle_sql()[name]).fetchdf()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    assert value_hash(got) == value_hash(want)


@pytest.mark.parametrize("name,value,column,want", [
    ("events_cumsum", 0.125, "cum_value_e2", 13),
    ("events_hourly", 0.00005, "sum_value_e4", 1),
    ("events_sessions", 0.00005, "sum_value_e4", 1),
])
def test_half_unit_rounds_like_oracle(ray_session, tmp_path, name, value,
                                      column, want):
    """A value exactly half a fixed-point unit rounds away from zero, as
    DuckDB ``round`` does in the oracle."""
    import pyarrow.parquet as pq

    one = pq.read_table(f"{SF}/events.parquet").slice(0, 1)
    one = one.set_column(one.schema.get_field_index("value"), "value",
                         pa.array([value], pa.float64()))
    pq.write_table(one, tmp_path / "events.parquet")
    got = to_pandas(__ray_entry__.queries()[name](str(tmp_path)))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    oracle = con.execute(__ray_entry__.oracle_sql()[name]).fetchdf()
    con.close()
    assert got[column].tolist() == [want]
    assert value_hash(got) == value_hash(oracle)
