"""safe_join: empty-block hardening and the fully-empty-side degenerate
plans (round-2 verdict item — a selective filter WILL produce an empty
side at some sf; the join must not crash). lookup_join: the same rows
and columns as safe_join on both sides of its broadcast cap."""

from __future__ import annotations

import sys

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from horizon_ocr_python_ray.stages import joins
from horizon_ocr_python_ray.stages.joins import lookup_join, safe_join


def _left():
    return rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "x": pa.array(["a", "b", "c"], pa.string())}))


def _right(keep_above: int):
    ds = rd.from_arrow(pa.table({
        "rk": pa.array([2, 3, 4], pa.int64()),
        "y": pa.array([20, 30, 40], pa.int64())}))
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t.column("y"), keep_above)),
        batch_format="pyarrow")


def test_inner_with_filtered_but_nonempty_right(ray_session):
    out = safe_join(_left(), _right(25), join_type="inner",
                    num_partitions=2, on=("k",), right_on=("rk",)).take_all()
    assert sorted((r["k"], r["x"], r["y"]) for r in out) == [(3, "c", 30)]


def test_inner_with_fully_empty_right(ray_session):
    out = safe_join(_left(), _right(1000), join_type="inner",
                    num_partitions=2, on=("k",), right_on=("rk",))
    assert out.count() == 0
    assert out.schema().names == ["k", "x", "y"]


def test_left_outer_with_fully_empty_right(ray_session):
    out = safe_join(_left(), _right(1000), join_type="left_outer",
                    num_partitions=2, on=("k",), right_on=("rk",))
    df = out.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(df.columns) == ["k", "x", "y"]
    assert df["k"].tolist() == [1, 2, 3]
    assert df["y"].isna().all()


def test_left_anti_with_fully_empty_right(ray_session):
    out = safe_join(_left(), _right(1000), join_type="left_anti",
                    num_partitions=2, on=("k",), right_on=("rk",))
    assert sorted(r["k"] for r in out.take_all()) == [1, 2, 3]


def test_empty_left_inner_and_outer(ray_session):
    empty_left = _left().map_batches(
        lambda t: t.filter(pc.greater(t.column("k"), 99)),
        batch_format="pyarrow")
    for jt in ("inner", "left_outer"):
        out = safe_join(empty_left, _right(0), join_type=jt,
                        num_partitions=2, on=("k",), right_on=("rk",))
        assert out.count() == 0, jt
        assert out.schema().names == ["k", "x", "y"], jt


def test_both_empty_with_schema_hints(ray_session):
    ls = pa.schema([("k", pa.int64()), ("x", pa.string())])
    rs = pa.schema([("rk", pa.int64()), ("y", pa.int64())])
    out = safe_join(_left().map_batches(lambda t: t.slice(0, 0),
                                        batch_format="pyarrow"),
                    _right(1000), join_type="inner", num_partitions=2,
                    on=("k",), right_on=("rk",),
                    left_schema=ls, right_schema=rs)
    assert out.count() == 0
    assert out.schema().names == ["k", "x", "y"]


def test_unsupported_degenerate_join_type_raises(ray_session):
    with pytest.raises(ValueError, match="no degenerate plan"):
        safe_join(_left(), _right(1000), join_type="full_outer",
                  num_partitions=2, on=("k",), right_on=("rk",))


def test_matches_ray_join_when_nonempty(ray_session):
    got = safe_join(_left(), _right(0), join_type="left_outer",
                    num_partitions=2, on=("k",), right_on=("rk",)).take_all()
    want = _left().join(_right(0), join_type="left_outer", num_partitions=2,
                        on=("k",), right_on=("rk",)).take_all()
    key = lambda r: (r["k"],)
    assert sorted(got, key=key) == sorted(want, key=key)


# The build side's upstream UDF. A lambda, so workers unpickle it by
# value instead of importing this test module.
_build_udf = lambda t: t  # noqa: E731


def _build_side():
    """rk 2, 3, 4 in two blocks (two UDF batches); rk 3 comes twice as
    the same row, which the distinct build side keeps once."""
    blocks = [pa.table({"rk": pa.array(k, pa.int64()), "y": pa.array(y, pa.int64())})
              for k, y in (([2, 3], [20, 30]), ([3, 4], [30, 40]))]
    return rd.from_arrow(blocks).map_batches(_build_udf, batch_format="pyarrow")


def _rows(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df.sort_values(df.columns.tolist()).reset_index(drop=True)


@pytest.mark.parametrize("join_type", ["inner", "left_outer", "left_anti"])
@pytest.mark.parametrize("cap", [None, 0])
def test_lookup_join_matches_safe_join(ray_session, monkeypatch, udf_calls,
                                       join_type, cap):
    calls = udf_calls(sys.modules[__name__], "_build_udf")
    if cap is not None:  # past the cap: the hash join over the partials
        monkeypatch.setattr(joins, "BROADCAST_BUILD_MAX_ROWS", cap)
    got = _rows(lookup_join(_left(), _build_side(), join_type=join_type,
                            num_partitions=2, on=("k",), right_on=("rk",)))
    assert calls() == 2  # once per input batch
    dedup = _build_side().groupby(["rk", "y"]).count().drop_columns(["count()"])
    want = _rows(safe_join(_left(), dedup, join_type=join_type,
                           num_partitions=2, on=("k",), right_on=("rk",)))
    assert list(got.columns) == list(want.columns)
    assert got.equals(want)
    assert len(got) == {"inner": 2, "left_outer": 3, "left_anti": 1}[join_type]


@pytest.mark.parametrize("join_type", ["inner", "left_outer", "left_anti"])
def test_lookup_join_empty_build_side(ray_session, join_type):
    got = lookup_join(_left(), _right(1000), join_type=join_type,
                      num_partitions=2, on=("k",), right_on=("rk",))
    want = safe_join(_left(), _right(1000), join_type=join_type,
                     num_partitions=2, on=("k",), right_on=("rk",))
    assert got.schema().names == want.schema().names
    assert got.count() == want.count() == (0 if join_type == "inner" else 3)
    if join_type == "left_outer":
        assert _rows(got)["y"].isna().all()


def test_lookup_join_duplicate_build_key_raises(ray_session):
    right = rd.from_arrow(pa.table({"rk": pa.array([2, 2], pa.int64()),
                                    "y": pa.array([20, 21], pa.int64())}))
    with pytest.raises(ValueError, match="repeats"):
        lookup_join(_left(), right, join_type="inner", num_partitions=2,
                    on=("k",), right_on=("rk",))
