"""The near-duplicate driver queries against their DuckDB oracles.

Each query runs on the sf0.001 tables and is compared with
``oracle_sql()[name]`` the way ``tools/driver_mimic.py`` compares them:
row count, column names and the order-insensitive value hash."""

from __future__ import annotations

import duckdb
import pytest

import __ray_entry__
from test_subqueries import SF  # the sf0.001 tables
from tools.driver_mimic import to_pandas, value_hash

NEAR_DUP_QUERIES = [
    "minhash_near_dup",
    "minhash_dup_clusters",
    "doc_simhash_near_dup",
    "doc_winnow_pairs",
    "doc_winnow_clusters",
    "doc_jaccard_near_dup",
    "doc_incremental_dedup",
    "emb_dup_clusters",
]


@pytest.fixture(scope="module")
def oracle():
    con = duckdb.connect()
    for name in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{SF}/{name}.parquet'")
    yield con
    con.close()


@pytest.mark.parametrize("name", NEAR_DUP_QUERIES)
def test_near_dup_query_matches_oracle(ray_session, oracle, name):
    got = to_pandas(__ray_entry__.queries()[name](SF))
    want = oracle.execute(__ray_entry__.oracle_sql()[name]).fetchdf()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    assert value_hash(got) == value_hash(want)
