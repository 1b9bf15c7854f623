"""Rewritten DuckDB oracles against the SQL they replace.

An oracle rewrite for speed must return exactly the rows of the plain
SQL it replaces; the plain SQL is kept here as the reference and both run
on a small planted table.
"""

from __future__ import annotations

import duckdb

import __ray_entry__

#: ``minhash_dup_clusters`` as first written: Jaccard over every document
#: pair, far too slow above a few hundred documents.
MINHASH_DUP_CLUSTERS_ALL_PAIRS = r"""
    WITH RECURSIVE t AS (
      SELECT doc_id,
             CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                  ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
      FROM documents
    ), s AS (
      SELECT doc_id,
             CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
                  ELSE list_distinct(list_transform(
                         range(1, len(toks) - least(5, len(toks)) + 2),
                         i -> array_to_string(toks[i : i + least(5, len(toks)) - 1], ' ')
                       )) END AS sh
      FROM t
    ), j AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             len(list_intersect(a.sh, b.sh)) AS i,
             len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS u
      FROM s a JOIN s b ON a.doc_id < b.doc_id
    ), p AS (
      SELECT doc_a, doc_b FROM j
      WHERE CASE WHEN u = 0 THEN 1.0 ELSE i::DOUBLE / u END >= 0.5
    ), edges AS (
      SELECT doc_a AS u, doc_b AS v FROM p
      UNION ALL SELECT doc_b, doc_a FROM p
    ), walk(u, label) AS (
      SELECT u, u FROM (SELECT DISTINCT u FROM edges)
      UNION
      SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
    )
    SELECT u AS doc_id, min(label) AS cluster_id FROM walk GROUP BY u
"""


def _words(lo: int, hi: int) -> str:
    return " ".join(f"w{i}" for i in range(lo, hi))


#: doc_id → text. Ten words make six 5-word shingles; a window shifted by
#: two shares four of them (J = 4/8 = 0.5), by three shares three
#: (J = 3/9 < 0.5).
PLANTED = {
    1: _words(0, 10),
    2: _words(0, 10).upper(),           # exact dup after lower()
    3: _words(2, 12),                   # J(1, 3) = 0.5: a pair
    5: _words(70, 80),
    6: _words(73, 83),                  # J(5, 6) = 3/9: not a pair
    10: _words(20, 30),                 # chain 10 ~ 11 ~ 12, J(10, 12) = 0.2
    11: _words(22, 32),
    12: _words(24, 34),
    20: "",                             # empty texts: u = 0 → J = 1.0
    21: "   ",
    22: "",
    30: "short doc",                    # under five tokens: one shingle
    31: "Short   doc",
    32: "short doc here",
    40: _words(50, 60),                 # no partner
    41: None,
}


def _clusters(sql: str) -> list[tuple]:
    con = duckdb.connect()
    con.execute("CREATE TABLE documents (doc_id BIGINT, text VARCHAR)")
    con.executemany("INSERT INTO documents VALUES (?, ?)", list(PLANTED.items()))
    return sorted(con.execute(sql).fetchall())


def test_minhash_dup_clusters_equals_all_pairs_sql():
    got = _clusters(__ray_entry__.oracle_sql()["minhash_dup_clusters"])
    assert got == _clusters(MINHASH_DUP_CLUSTERS_ALL_PAIRS)
    # the planted shapes land where the Jaccard threshold puts them
    assert got == [(1, 1), (2, 1), (3, 1), (10, 10), (11, 10), (12, 10),
                   (20, 20), (21, 20), (22, 20), (30, 30), (31, 30)]
