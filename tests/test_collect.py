"""functions/collect.py: driver folds must execute the upstream plan
exactly ONCE. Ray 2.49's ``Dataset.to_arrow_refs`` re-runs a limit-1
plan of the whole pipeline after consumption (schema re-fetch) — the
bug class these helpers exist to kill — so the guard here counts actual
UDF invocations through a Ray counter actor."""
from __future__ import annotations

import pyarrow as pa
import pytest

import ray
import ray.data


@ray.remote
class _Counter:
    def __init__(self) -> None:
        self.n = 0

    def bump(self) -> None:
        self.n += 1

    def get(self) -> int:
        return self.n


def _counted_ds(counter):
    ds = ray.data.from_arrow(
        pa.table({"x": pa.array(range(64), pa.int64())})
    ).repartition(4)

    def fn(t: pa.Table) -> pa.Table:
        ray.get(counter.bump.remote())
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


def test_collect_tables_single_execution():
    from horizon_ocr_python_ray.functions.collect import collect_tables

    counter = _Counter.remote()
    tables = collect_tables(_counted_ds(counter))
    assert sum(t.num_rows for t in tables) == 64
    assert ray.get(counter.get.remote()) == 4  # one call per block, once


def test_collect_block_refs_single_execution_and_arrow_blocks():
    from horizon_ocr_python_ray.functions.collect import collect_block_refs

    counter = _Counter.remote()
    refs = collect_block_refs(_counted_ds(counter))
    blocks = ray.get(refs)
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert sum(b.num_rows for b in blocks) == 64
    assert ray.get(counter.get.remote()) == 4


def test_collect_table_empty_needs_schema():
    from horizon_ocr_python_ray.functions.collect import collect_table

    empty = ray.data.from_arrow(
        pa.table({"x": pa.array([], pa.int64())}))
    schema = pa.schema([("x", pa.int64())])
    out = collect_table(empty, schema=schema)
    assert out.num_rows == 0 and out.schema == schema
    with pytest.raises(ValueError):
        collect_table(empty)


def _keyed_partials(counter):
    """4 blocks of 16 (k, v) rows; the 10 keys repeat across blocks."""
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([i % 10 for i in range(64)], pa.int64()),
        "v": pa.array(range(64), pa.int64()),
    })).repartition(4)

    def fn(t: pa.Table) -> pa.Table:
        ray.get(counter.bump.remote())
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


_KV = pa.schema([("k", pa.int64()), ("v", pa.int64())])


@pytest.mark.parametrize("aggs", [[("v", "sum")], [("v", "max")], []])
@pytest.mark.parametrize("fold_every", [64, 1])
def test_fold_capped_fits_exact(monkeypatch, aggs, fold_every):
    """Under the cap the fold equals one pyarrow group-by over all the
    partials (sum, max and distinct), however often it folds."""
    from horizon_ocr_python_ray.functions import collect

    monkeypatch.setattr(collect, "FOLD_EVERY", fold_every)
    schema = _KV if aggs else pa.schema([("k", pa.int64())])
    counter = _Counter.remote()
    partials = _keyed_partials(counter).select_columns(schema.names)
    out, rest = collect.fold_capped(partials, schema, ["k"], aggs, 10)
    assert rest is None
    whole = pa.table({"k": pa.array([i % 10 for i in range(64)], pa.int64()),
                      "v": pa.array(range(64), pa.int64())})
    want = whole.group_by("k").aggregate(aggs)
    want = want.rename_columns([n.split("_")[0] for n in want.column_names])
    assert out.sort_by("k").to_pylist() == want.select(out.column_names).sort_by("k").to_pylist()
    assert ray.get(counter.get.remote()) == 4


@pytest.mark.parametrize("keys,cap", [(["k"], 5), (None, 20)])
def test_fold_capped_trip_hands_over_every_block(monkeypatch, keys, cap):
    """Past the cap — mid-stream, after the first fold — the result is a
    Dataset over every partial block, pulled or not; consuming it does
    not re-run the upstream map."""
    from horizon_ocr_python_ray.functions import collect

    monkeypatch.setattr(collect, "FOLD_EVERY", 1)
    counter = _Counter.remote()
    out, rest = collect.fold_capped(_keyed_partials(counter), _KV, keys,
                                    [("v", "sum")], cap)
    assert out is None
    got = pa.concat_tables(collect.collect_tables(rest))
    assert got.num_rows == 64
    assert sorted(got.column("v").to_pylist()) == list(range(64))
    assert ray.get(counter.get.remote()) == 4


def test_fold_capped_row_cap_is_inclusive():
    from horizon_ocr_python_ray.functions.collect import fold_capped

    counter = _Counter.remote()
    out, rest = fold_capped(_keyed_partials(counter), _KV, None, None, 64)
    assert rest is None and out.num_rows == 64


def test_fold_capped_empty_dataset():
    from horizon_ocr_python_ray.functions.collect import fold_capped

    empty = ray.data.from_arrow(_KV.empty_table())
    for keys in (["k"], None):
        out, rest = fold_capped(empty, _KV, keys, [("v", "sum")], 0)
        assert rest is None and out.num_rows == 0 and out.schema == _KV
