"""Per-document validation summary over the fused-fields table.

The reference attaches validator results to every fused field and rolls
them up into a document-level summary — counts of total / passed /
failed checks plus the cross-field consistency checks
(``/root/reference/docvision/pipeline/orchestrator.py:1349-1372`` via
``kie/validators.py:495-558``). Here the same G6/G7 semantics run over
the engine's long-format fields table: a per-row validator pass
(vectorized batch map), then a per-url rollup through the bucketed hash
aggregate path (url cardinality ~ corpus size — never one Python call
per document).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..config import CONSISTENCY_AMOUNT_TOLERANCE
from ..functions.validators import FieldTyper, normalize_date, parse_amount

#: Field names participating in the amount-consistency check (G7).
_CONSISTENCY_NAMES = ("total", "subtotal", "tax")
#: Field names participating in the date-order check (G7: due >= invoice).
_DATE_NAMES = ("date", "due_date")


def _parse_unique(series: pd.Series, fn) -> pd.Series:
    """Apply a string parser ONCE per distinct value, then gather: field
    values repeat heavily across documents (amounts, dates), so the
    Python parse runs O(unique) times and the per-row pass is a C-speed
    dict gather."""
    memo = {v: (fn(v) if isinstance(v, str) else None)
            for v in series.dropna().unique()}
    out = series.map(memo)
    # keep object dtype with None nulls (an all-missing column would
    # otherwise become float64 NaN and poison downstream str comparisons)
    return out.astype(object).where(out.notna(), None)


def annotate_checks(batch: pa.Table) -> pa.Table:
    """fields rows → + (n_checks, n_passed) per row."""
    names = batch.column("name").to_pylist()
    values = batch.column("value").to_pylist()
    dts = batch.column("data_type").to_pylist()
    n_checks, n_passed = [], []
    typer = FieldTyper()  # amounts and dates repeat across the batch's rows
    for nm, v, dt in zip(names, values, dts):
        checks = typer.validate_field(nm, v, dt)
        n_checks.append(len(checks))
        n_passed.append(sum(1 for c in checks if c["passed"]))
    return (batch.select(["url", "name", "value", "data_type"])
            .append_column("n_checks", pa.array(n_checks, pa.int64()))
            .append_column("n_passed", pa.array(n_passed, pa.int64())))


def summarize_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Many complete url-groups → one summary row per url (vectorized:
    one C-speed groupby-agg per bucket, never a Python call per group)."""
    work = pd.DataFrame({
        "url": df["url"],
        "is_currency": (df["data_type"] == "currency").astype("int64"),
        "is_date": (df["data_type"] == "date").astype("int64"),
        "n_checks": df["n_checks"],
        "n_passed": df["n_passed"],
    })
    out = (work.groupby("url", sort=True)
           .agg(n_fields=("is_currency", "size"),
                n_currency=("is_currency", "sum"),
                n_date=("is_date", "sum"),
                n_checks=("n_checks", "sum"),
                n_passed=("n_passed", "sum"))
           .reset_index())

    # G7 cross-field check: total ≈ subtotal + tax. parse_amount is a
    # per-VALUE parse over at most 3 rows per document (the reference
    # parses the same three strings, kie/validators.py:495-528).
    cons = df[df["name"].isin(_CONSISTENCY_NAMES)]
    piv = cons.pivot_table(index="url", columns="name", values="value",
                           aggfunc="first")
    for c in _CONSISTENCY_NAMES:
        if c not in piv.columns:
            piv[c] = None
    parsed = {c: _parse_unique(piv[c], parse_amount)
              for c in _CONSISTENCY_NAMES}
    ok_all = (parsed["total"].notna() & parsed["subtotal"].notna()
              & parsed["tax"].notna())
    diff = (parsed["total"] - (parsed["subtotal"] + parsed["tax"])).abs()
    checked = ok_all.astype("int64")
    passed = (ok_all & (diff <= CONSISTENCY_AMOUNT_TOLERANCE)).astype("int64")
    out["consistency_checked"] = (
        out["url"].map(checked).fillna(0).astype("int64"))
    out["consistency_passed"] = (
        out["url"].map(passed).fillna(0).astype("int64"))

    # G7 date order: due_date >= invoice date (ISO strings compare
    # lexically; reference kie/validators.py:541-558)
    dates = df[df["name"].isin(_DATE_NAMES)]
    dpiv = dates.pivot_table(index="url", columns="name", values="value",
                             aggfunc="first")
    for c in _DATE_NAMES:
        if c not in dpiv.columns:
            dpiv[c] = None
    inv = _parse_unique(dpiv["date"], normalize_date)
    due = _parse_unique(dpiv["due_date"], normalize_date)
    d_ok = inv.notna() & due.notna()
    d_checked = d_ok.astype("int64")
    d_passed = (d_ok & (due >= inv)).astype("int64")
    out["date_order_checked"] = (
        out["url"].map(d_checked).fillna(0).astype("int64"))
    out["date_order_passed"] = (
        out["url"].map(d_passed).fillna(0).astype("int64"))
    for c in ("n_fields", "n_currency", "n_date", "n_checks", "n_passed"):
        out[c] = out[c].astype("int64")
    return out


def build_validation_pipeline(fields_ds):
    """fused-fields Dataset → one validation-summary row per url."""
    from .hashagg import grouped_reduce

    annotated = fields_ds.map_batches(annotate_checks, batch_format="pyarrow")
    return grouped_reduce(annotated, "url", summarize_bucket,
                          batch_format="pandas")
