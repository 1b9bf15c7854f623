"""Per-url comparison of engine output against a corpus's golden table.

A row fails when it is missing, repeated, or disagrees with golden on
extracted text, spans, route, content hash or error presence. Planted
corrupt docs (golden ``has_error``) are expected errors: they must carry
an error. ``doc_heads`` rows must also match the golden tables and
styles, and have one reconstruction row unless corrupt.
"""

from __future__ import annotations

import os
from collections import defaultdict
from functools import cached_property

import pyarrow as pa
import pyarrow.parquet as pq

_EXTRACT_COLS = ["url", "extracted_text", "route", "content_hash", "spans"]


def read_dir(path: str, columns: list[str] | None = None) -> pa.Table:
    files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
    return pa.concat_tables(pq.read_table(os.path.join(path, f), columns=columns)
                            for f in files)


class Golden:
    """A corpus's golden table; ``heads`` adds the tables and styles
    fixtures."""

    def __init__(self, corpus_dir: str, heads: bool = False) -> None:
        cols = _EXTRACT_COLS + ["has_error"] + ["tables", "styles"] * heads
        self.table = pq.read_table(os.path.join(corpus_dir, "golden.parquet"),
                                   columns=cols)

    def __len__(self) -> int:
        return self.table.num_rows

    @cached_property
    def rows(self) -> dict[str, dict]:
        return {row["url"]: row for row in self.table.to_pylist()}


def _extract_row_ok(row: dict, g: dict) -> bool:
    return (all(row[c] == g[c] for c in _EXTRACT_COLS)
            and (row["error"] is not None) == g["has_error"])


def check_extract(out: pa.Table, golden: Golden) -> set[str]:
    """Urls whose extraction row is missing, repeated or wrong."""
    want = golden.rows
    seen: set[str] = set()
    bad: set[str] = set()
    for row in out.select(_EXTRACT_COLS + ["error"]).to_pylist():
        url = row["url"]
        if url not in want or url in seen or not _extract_row_ok(row, want[url]):
            bad.add(url)
        seen.add(url)
    return bad | (want.keys() - seen)


def check_heads(outs: dict[str, pa.Table], golden: Golden) -> set[str]:
    """``check_extract`` plus the tables, styles and reconstruction heads."""
    bad = check_extract(outs["extract"], golden)

    tables = defaultdict(list)
    for r in outs["tables"].select(["url", "page", "table_idx", "n_rows", "n_cols",
                                    "cells"]).to_pylist():
        tables[r["url"]].append({"page": r["page"], "table_idx": r["table_idx"],
                                 "n_rows": r["n_rows"], "n_cols": r["n_cols"],
                                 "cell_texts": [c["text"] for c in r["cells"]]})
    styles = defaultdict(list)
    for r in outs["styles"].to_pylist():
        styles[r.pop("url")].append(r)
    recon = defaultdict(list)
    for r in outs["reconstruction"].select(["url", "n_tables"]).to_pylist():
        recon[r["url"]].append(r["n_tables"])

    for url, g in golden.rows.items():
        got_tables = sorted(tables.get(url, []), key=lambda t: (t["page"], t["table_idx"]))
        got_styles = sorted(styles.get(url, []), key=lambda s: (s["page"], s["line_idx"]))
        want_recon = [] if g["has_error"] else [len(g["tables"])]
        if (got_tables != g["tables"] or got_styles != g["styles"]
                or recon.get(url, []) != want_recon):
            bad.add(url)
    stray = (tables.keys() | styles.keys() | recon.keys()) - golden.rows.keys()
    return bad | stray
