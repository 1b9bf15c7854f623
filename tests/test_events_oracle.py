"""Every ``events_*`` driver query against its DuckDB oracle.

Each query in ``__ray_entry__.queries()`` whose name starts with
``events_`` runs on the sf0.001 tables and is compared with
``oracle_sql()[name]`` the way ``tools/driver_mimic.py`` compares them:
row count, column names and the order-insensitive value hash."""

from __future__ import annotations

import duckdb
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
