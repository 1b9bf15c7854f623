"""Salted aggregation and salted joins over the Zipf-skewed hosts."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from horizon_ocr_python_ray import read_pages
from horizon_ocr_python_ray.stages.skew import host_of, host_stats_salted


def test_host_of():
    assert host_of("https://Host001.Example.org/p/1") == "host001.example.org"
    assert host_of("http://a.b/c/d") == "a.b"


def _expected_counts(corpus_dir):
    import collections, glob

    counts = collections.Counter()
    sizes = collections.Counter()
    for f in sorted(glob.glob(corpus_dir + "/pages/*.parquet")):
        t = pq.read_table(f, columns=["url", "html"])
        for u, h in zip(t.column("url").to_pylist(), t.column("html").to_pylist()):
            counts[host_of(u)] += 1
            sizes[host_of(u)] += len(h) if h else 0
    return counts, sizes


def test_host_stats_salted_matches_plain_count(corpus_dir):
    counts, sizes = _expected_counts(corpus_dir)
    got = host_stats_salted(read_pages(corpus_dir)).to_pandas()
    got_counts = dict(zip(got.host, got.n_pages))
    got_bytes = dict(zip(got.host, got.payload_bytes))
    assert got_counts == dict(counts)
    assert got_bytes == dict(sizes)


def test_events_lag_prev_and_gap(ray_session):
    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_lag

    t = pa.table({
        "event_id": pa.array([3, 1, 2, 10], pa.int64()),
        "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        "ts": pa.array([3_000_000, 1_000_000, 2_000_000, 5], pa.timestamp("us")),
    })
    out = events_lag(ray.data.from_arrow(t)).to_pandas().sort_values("event_id")
    rows = {r.event_id: (r.prev_event_id, r.gap_us)
            for r in out.itertuples(index=False)}
    assert rows[1] == (-1, -1)          # first event of user 1
    assert rows[2] == (1, 1_000_000)
    assert rows[3] == (2, 1_000_000)
    assert rows[10] == (-1, -1)         # only event of user 2


def test_events_quantiles_type1_semantics(ray_session):
    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_quantiles

    # 10 values 0.01..0.10 → p50 = 5th smallest = 0.05, p90 = 9th, p99 = 10th
    t = pa.table({
        "event_type": pa.array(["x"] * 10, pa.string()),
        "value": pa.array([k / 100 for k in range(1, 11)], pa.float64()),
    })
    out = events_quantiles(ray.data.from_arrow(t)).to_pandas().iloc[0]
    assert (out["n_events"], out["p50_e2"], out["p90_e2"], out["p99_e2"]) == (10, 5, 9, 10)


def test_events_distinct_users_two_phase(ray_session):
    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_distinct_users

    t = pa.table({
        "event_type": pa.array(["a", "a", "a", "b"], pa.string()),
        "user_id": pa.array([1, 1, 2, 1], pa.int64()),
    })
    out = events_distinct_users(
        ray.data.from_arrow(t).repartition(3)).to_pandas().set_index("event_type")
    assert out.loc["a", "n_users"] == 2
    assert out.loc["b", "n_users"] == 1


def test_host_enrich_join_plans_row_equal(ray_session, corpus_dir, monkeypatch,
                                          udf_calls):
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages import skew
    from horizon_ocr_python_ray.stages.skew import host_enrich_join

    calls = udf_calls(skew, "_host_count_partial")
    b = (host_enrich_join(read_pages(corpus_dir, columns=["url"]))
         .to_pandas().sort_values("url").reset_index(drop=True))
    n = calls()
    assert n > 0
    monkeypatch.setattr(skew, "ENRICH_BROADCAST_MAX_ROWS", 0)  # salted plan
    s = (host_enrich_join(read_pages(corpus_dir, columns=["url"]),
                          num_partitions=2)
         .to_pandas().sort_values("url").reset_index(drop=True))
    assert calls() == n  # the salted build replicates the collected counts
    assert b.equals(s)
    # the count really is the per-host row count
    sizes = b.groupby("host").size()
    assert (b.set_index("url").host_n_pages
            == b.set_index("url").host.map(sizes)).all()
