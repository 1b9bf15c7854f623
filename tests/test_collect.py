"""functions/collect.py: driver folds must execute the upstream plan
exactly ONCE. Ray 2.49's ``Dataset.to_arrow_refs`` re-runs a limit-1
plan of the whole pipeline after consumption (schema re-fetch) — the
bug class these helpers exist to kill — so the guard here counts actual
UDF invocations through a Ray counter actor."""
from __future__ import annotations

import numpy as np
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


# -- top_k ---------------------------------------------------------------------

def _top_k_reference(tbl: pa.Table, order, k: int, group) -> list[dict]:
    """Full sort + ``head(k)`` (per group) in pandas, with a 1-based rank."""
    df = tbl.to_pandas()
    cols = ([group] if group else []) + [c for c, _ in order]
    asc = ([True] if group else []) + [d == "ascending" for _, d in order]
    df = df.sort_values(cols, ascending=asc)
    if group:
        df = df.groupby(group, sort=False).head(k)
        df["rank"] = df.groupby(group, sort=False).cumcount() + 1
    else:
        df = df.head(k)
        df["rank"] = range(1, len(df) + 1)
    return df.to_dict("records")


def _random_table(n: int, seed: int, groups=None) -> pa.Table:
    rng = np.random.default_rng(seed)
    cols = {
        "id": pa.array(rng.permutation(n), pa.int64()),       # unique key
        "score": pa.array(rng.integers(0, 8, n), pa.int64()),  # many ties
        "b": pa.array(rng.integers(0, 3, n), pa.int64()),
        "x": pa.array(rng.random(n), pa.float64()),
    }
    if groups is not None:
        cols["g"] = groups
    return pa.table(cols)


def _blocks(tbl: pa.Table, size: int):
    return ray.data.from_arrow([tbl.slice(i, size)
                                for i in range(0, tbl.num_rows, size)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_k_equals_full_sort_head(seed):
    from horizon_ocr_python_ray.functions.collect import top_k

    tbl = _random_table(400, seed)
    order = [("score", "descending"), ("id", "ascending")]
    got = top_k(_blocks(tbl, 37), order, 25, None)
    assert got.column_names == tbl.column_names + ["rank"]
    assert got.schema.field("rank").type == pa.int64()
    assert got.to_pylist() == _top_k_reference(tbl, order, 25, None)


def test_top_k_mixed_directions():
    from horizon_ocr_python_ray.functions.collect import top_k

    tbl = _random_table(300, 3)
    order = [("b", "ascending"), ("score", "descending"), ("id", "descending")]
    got = top_k(_blocks(tbl, 40), order, 17, None)
    assert got.to_pylist() == _top_k_reference(tbl, order, 17, None)


@pytest.mark.parametrize("as_str", [False, True])
def test_top_k_grouped_uneven_groups(as_str):
    """Groups of 250, 40, 3 and 1 rows with k=5: the small groups keep
    all their rows, every group is ranked from 1."""
    from horizon_ocr_python_ray.functions.collect import top_k

    g = np.repeat([0, 1, 2, 3], [250, 40, 3, 1])
    np.random.default_rng(4).shuffle(g)
    groups = (pa.array([f"q{v}" for v in g], pa.string()) if as_str
              else pa.array(g, pa.int32()))
    tbl = _random_table(len(g), 4, groups)
    order = [("score", "descending"), ("id", "ascending")]
    got = top_k(_blocks(tbl, 30), order, 5, "g")
    want = _top_k_reference(tbl, order, 5, "g")
    assert got.to_pylist() == want
    assert got.num_rows == 5 + 5 + 3 + 1


def test_top_k_k_above_row_count():
    from horizon_ocr_python_ray.functions.collect import top_k

    tbl = _random_table(90, 5)
    order = [("x", "ascending"), ("id", "ascending")]
    got = top_k(_blocks(tbl, 20), order, 1000, None)
    assert got.num_rows == 90
    assert got.to_pylist() == _top_k_reference(tbl, order, 1000, None)


def test_top_k_empty_dataset_is_typed():
    from horizon_ocr_python_ray.functions.collect import top_k

    schema = pa.schema([("g", pa.int32()), ("id", pa.int64()),
                        ("score", pa.float64())])
    order = [("score", "descending"), ("id", "ascending")]
    got = top_k(ray.data.from_arrow(schema.empty_table()), order, 3, "g")
    assert got.num_rows == 0
    assert got.schema == schema.append(pa.field("rank", pa.int64()))
    # a map that never saw a row leaves Ray no schema: the key columns
    # still come back (null-typed), so callers can select them
    mapped = ray.data.from_arrow(schema.empty_table()).map_batches(
        lambda t: t, batch_format="pyarrow")
    got = top_k(mapped, order, 3, "g")
    assert got.num_rows == 0
    assert got.column_names == ["g", "score", "id", "rank"]


def test_top_k_table_input():
    from horizon_ocr_python_ray.functions.collect import top_k

    tbl = _random_table(60, 6)
    order = [("score", "ascending"), ("id", "ascending")]
    assert (top_k(tbl, order, 7, None).to_pylist()
            == _top_k_reference(tbl, order, 7, None))


def test_top_k_driver_folds_every_fold_every_tables(monkeypatch):
    """With more blocks than FOLD_EVERY the driver re-trims as it goes:
    the result is unchanged and no concatenation holds more than
    (FOLD_EVERY + 1) · k rows of one group."""
    from collections import Counter

    from horizon_ocr_python_ray.functions import collect

    monkeypatch.setattr(collect, "FOLD_EVERY", 2)
    k = 4
    groups = pa.array(np.arange(480) % 3, pa.int64())
    tbl = _random_table(480, 7, groups)
    order = [("score", "descending"), ("id", "ascending")]

    concats: list[tuple[int, int]] = []  # (tables, largest group)
    orig = pa.concat_tables

    def spy(tables, *args, **kwargs):
        out = orig(tables, *args, **kwargs)
        if "g" in out.column_names:
            per_group = Counter(out.column("g").to_pylist())
            concats.append((len(tables), max(per_group.values(), default=0)))
        return out

    monkeypatch.setattr(pa, "concat_tables", spy)
    got = collect.top_k(_blocks(tbl, 40), order, k, "g")  # 12 blocks
    assert got.to_pylist() == _top_k_reference(tbl, order, k, "g")
    assert any(n == collect.FOLD_EVERY + 1 for n, _ in concats)
    assert max(m for _, m in concats) <= (collect.FOLD_EVERY + 1) * k
