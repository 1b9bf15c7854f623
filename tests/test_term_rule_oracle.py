"""Every documents-table driver query whose oracle tokenizes, against its
DuckDB oracle, on a copy of the sf0.001 tables with planted text.

The oracles split terms as ``regexp_split_to_array(lower(text), '\\s+')``:
RE2's ``\\s`` is ``[\\t\\n\\f\\r ]`` and DuckDB ``lower`` is simple case
mapping. The planted documents hold what tells that rule apart from
Python's ``str.split`` / ``str.lower``: U+00A0 and ``\\v`` between words
(not whitespace to RE2), a final-position ``Σ`` (``'σ'`` under simple
mapping, ``'ς'`` under Python's full mapping) and ``İ`` (``'i'`` versus
``'i̇'``). All planted whitespace is interior, so ``trim`` never sees it.
The comparison is the one ``tools/driver_mimic.py`` makes: row count,
column names and the order-insensitive value hash."""

from __future__ import annotations

import shutil
from pathlib import Path

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__
from test_subqueries import SF  # the sf0.001 tables
from tools.driver_mimic import to_pandas, value_hash

#: Appended to each planted document.
PLANT_TAIL = " ΟΔΟΣ İstanbul ΟΔΟΣ"
N_PLANTED = 40

TOKENIZING_QUERIES = sorted(
    name for name, sql in __ray_entry__.oracle_sql().items()
    if "regexp_split_to_array" in sql and "documents" in sql)


def _plant(text: str) -> str:
    """U+00A0 for the first interior space, ``\\v`` for the last, then
    :data:`PLANT_TAIL`."""
    first, last = text.index(" "), text.rindex(" ")
    return (text[:first] + " " + text[first + 1:last] + "\v"
            + text[last + 1:] + PLANT_TAIL)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("sf_planted")
    for f in Path(SF).glob("*.parquet"):
        shutil.copy(f, out / f.name)
    docs = pq.read_table(out / "documents.parquet")
    texts = docs.column("text").to_pylist()
    hits = [i for i, t in enumerate(texts)
            if t and t.count(" ") >= 2 and t == t.strip()][::12][:N_PLANTED]
    assert len(hits) == N_PLANTED
    for i in hits:
        texts[i] = _plant(texts[i])
    docs = docs.set_column(docs.schema.get_field_index("text"), "text",
                           pa.array(texts, pa.string()))
    pq.write_table(docs, out / "documents.parquet")
    con = duckdb.connect()
    for f in out.glob("*.parquet"):
        con.execute(f"CREATE VIEW {f.stem} AS SELECT * FROM '{f}'")
    yield str(out), con
    con.close()


def test_the_query_list_covers_the_tokenizing_oracles():
    assert len(TOKENIZING_QUERIES) == 31


@pytest.mark.parametrize("name", TOKENIZING_QUERIES)
def test_tokenizing_query_matches_oracle_on_planted_text(ray_session, planted, name):
    sf, con = planted
    got = to_pandas(__ray_entry__.queries()[name](sf))
    want = con.execute(__ray_entry__.oracle_sql()[name]).fetchdf()
    assert len(got) == len(want)
    assert sorted(got.columns) == sorted(want.columns)
    assert value_hash(got) == value_hash(want)
