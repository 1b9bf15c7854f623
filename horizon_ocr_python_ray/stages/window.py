"""Tumbling-window aggregation over the ``events`` stream table.

Ray Data has no event-time windows (SURVEY.md §2.7 — the reference is
strictly batch too); a tumbling window over a bounded log is a grouped
aggregate on ``floor(epoch(ts) / width)``. Partial pre-aggregation inside
``map_batches`` (one row per (key, window) per batch) shrinks the shuffle
to near-distinct-group size before the global ``groupby`` — the
combiner-before-shuffle pattern.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Sum


def _partial(batch: pa.Table, width_s: int) -> pa.Table:
    epoch_us = batch.column("ts").cast(pa.int64())
    win = pc.multiply(
        pc.floor(pc.divide(pc.cast(epoch_us, pa.float64()), float(width_s) * 1e6)).cast(pa.int64()),
        width_s * 1_000_000,
    )
    t = batch.append_column("window_start_us", win)
    agg = pa.TableGroupBy(t, ["event_type", "window_start_us"]).aggregate(
        [("value", "sum"), ("event_id", "count")]
    )
    return agg.rename_columns(["event_type", "window_start_us", "part_sum", "part_n"])


def tumbling_window(events_ds, width_s: int = 3600):
    """events → (event_type, window_start, n_events, sum_value)."""
    from .hashagg import grouped_aggregate

    partials = events_ds.map_batches(
        lambda t: _partial(t, width_s), batch_format="pyarrow", batch_size=8192
    )
    out = grouped_aggregate(
        partials, ["event_type", "window_start_us"],
        [("part_sum", "sum", "sum_value"), ("part_n", "sum", "n_events")],
        bucket_on="window_start_us")

    def finish(t: pa.Table) -> pa.Table:
        ws = t.column("window_start_us").cast(pa.timestamp("us"))
        return pa.Table.from_arrays(
            [t.column("event_type"), ws,
             t.column("n_events").cast(pa.int64()), t.column("sum_value")],
            names=["event_type", "window_start", "n_events", "sum_value"],
        )

    return out.map_batches(finish, batch_format="pyarrow")


def sliding_window(events_ds, width_s: int = 3600, slide_s: int = 900):
    """Sliding event-time windows: each event belongs to ``width/slide``
    overlapping windows. The expansion happens inside ``map_batches``
    (vectorized repeat + arithmetic) and is immediately pre-aggregated per
    (key, window) — the combiner keeps the shuffle at distinct-group size
    even though the raw expansion is ``width/slide``× the input."""
    assert width_s % slide_s == 0, "width must be a multiple of slide"
    k = width_s // slide_s

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np

        epoch_us = batch.column("ts").cast(pa.int64()).to_numpy()
        vals = batch.column("value").to_numpy()
        base = (epoch_us // (slide_s * 1_000_000)) * (slide_s * 1_000_000)
        n = len(epoch_us)
        # event → windows starting at base - j*slide for j in 0..k-1
        starts = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * slide_s * 1_000_000, n
        )
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        t = pa.Table.from_arrays(
            [
                batch.column("event_type").take(idx),
                pa.array(starts, pa.int64()),
                pa.array(np.repeat(vals, k), pa.float64()),
            ],
            names=["event_type", "window_start_us", "value"],
        )
        agg = pa.TableGroupBy(t, ["event_type", "window_start_us"]).aggregate(
            [("value", "sum"), ("value", "count")]
        )
        return agg.rename_columns(["event_type", "window_start_us", "part_sum", "part_n"])

    from .hashagg import grouped_aggregate

    partials = events_ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
    out = grouped_aggregate(
        partials, ["event_type", "window_start_us"],
        [("part_sum", "sum", "sum_value"), ("part_n", "sum", "n_events")],
        bucket_on="window_start_us")

    def finish(t: pa.Table) -> pa.Table:
        ws = t.column("window_start_us").cast(pa.timestamp("us"))
        return pa.Table.from_arrays(
            [t.column("event_type"), ws,
             t.column("n_events").cast(pa.int64()), t.column("sum_value")],
            names=["event_type", "window_start", "n_events", "sum_value"],
        )

    return out.map_batches(finish, batch_format="pyarrow")


def session_window(events_ds, gap_s: int = 1800):
    """Per-user session windows: a session breaks when the gap between
    consecutive events exceeds ``gap_s``. Shuffles once on a coarse
    bucket of ``user_id`` (``stages/hashagg.grouped_reduce`` — one
    Python call per BUCKET, not per user); inside a bucket one global
    sort by ``(user_id, ts, event_id)`` makes user boundaries and gap
    breaks a single vectorized pass — ordering is explicit, never block
    arrival order (SURVEY.md §7.4)."""
    import numpy as np
    import pandas as pd

    from .hashagg import grouped_reduce

    gap_us = gap_s * 1_000_000

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        e = g["ts"].astype("int64").to_numpy()
        uid = pd.factorize(g["user_id"])[0]
        brk = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = ((uid[1:] != uid[:-1]) |
                       (e[1:] - e[:-1] > gap_us)).astype(np.int64)
        g["_sess"] = brk.cumsum()
        out = g.groupby("_sess", sort=True).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
            sum_value=("value", "sum"),
        ).reset_index(drop=True)
        # per-user session index, 0-based in (ts, event_id) order
        out.insert(1, "session_idx", out.groupby("user_id").cumcount())
        return out

    return grouped_reduce(events_ds, "user_id", sessionize_bucket,
                          batch_format="pandas")


def events_gapfill(events_ds, width_s: int = 3600):
    """Dense calendar spine: every (event_type, window) in the global
    hour range, zero-filled — the sparse→dense gap-fill every
    time-series feature store needs before windowed models.

    Sparse counts reduce through the usual combiner + bucketed hash
    aggregate; the spine bounds (global min/max hour) and the type set
    fold from tiny partials. The DENSE result is spine-sized
    (|types| × hours — bounded by the time range, not the corpus), so
    materializing it driver-side for the merge is the honest cost of
    asking for a dense output; windows use integer floor division
    (``epoch_us // width_us``), bit-equal to the SQL replay."""
    import numpy as np
    import pandas as pd
    import ray

    from .hashagg import grouped_aggregate

    width_us = width_s * 1_000_000

    def count_partial(batch: pa.Table) -> pa.Table:
        ep = batch.column("ts").cast(pa.int64())
        win = pc.multiply(
            pc.divide(ep, pa.scalar(width_us, pa.int64())).cast(pa.int64()),
            pa.scalar(width_us, pa.int64()))
        t = pa.table({"event_type": batch.column("event_type"),
                      "window_start_us": win})
        agg = pa.TableGroupBy(t, ["event_type", "window_start_us"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["event_type", "window_start_us", "p_n"])

    counts = grouped_aggregate(
        events_ds.map_batches(count_partial, batch_format="pyarrow",
                              batch_size=65536),
        ["event_type", "window_start_us"],
        [("p_n", "sum", "n_events")],
        bucket_on="window_start_us")

    # dense spine from the folded counts (spine-sized by construction:
    # bounds and types are already in the reduced table)
    cdf = counts.to_pandas()
    if not len(cdf):
        return ray.data.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()),
            "window_start_us": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64())}))
    lo, hi = int(cdf.window_start_us.min()), int(cdf.window_start_us.max())
    hours = np.arange(lo, hi + 1, width_us, dtype=np.int64)
    types = sorted(cdf.event_type.unique())
    spine = pd.DataFrame({
        "event_type": np.repeat(types, len(hours)),
        "window_start_us": np.tile(hours, len(types)),
    })
    out = spine.merge(cdf, on=["event_type", "window_start_us"], how="left")
    out["n_events"] = out["n_events"].fillna(0).astype("int64")
    return ray.data.from_arrow(pa.Table.from_pandas(out, preserve_index=False)
                               .cast(pa.schema([
                                   ("event_type", pa.string()),
                                   ("window_start_us", pa.int64()),
                                   ("n_events", pa.int64())])))


def events_anomaly(events_ds, width_s: int = 3600, trail: int = 24):
    """Streaming anomaly flags: an hourly count is anomalous when it
    deviates from its type's trailing-``trail``-window baseline by more
    than 3σ — evaluated ENTIRELY in integers by clearing denominators:

        z² > 9  ⇔  (W·n − Σ)² > 9·(W·Σx² − Σ²)      (W = trail)

    (population variance over the trailing window, current excluded;
    zero-variance history flags ANY deviation). Only windows with a
    full ``trail`` history emit. Built on the DENSE spine
    (:func:`events_gapfill`) so silent hours count as 0 — a gap IS an
    anomaly signal; the per-type trailing pass is one vectorized
    cumsum over the spine (grouped by type, spine-sized)."""
    import numpy as np
    import pandas as pd

    from .hashagg import grouped_reduce

    dense = events_gapfill(events_ds, width_s=width_s)

    def trail_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for etype, d in g.groupby("event_type", sort=False):
            d = d.sort_values("window_start_us").reset_index(drop=True)
            n = d["n_events"].to_numpy(np.int64)
            cs = np.concatenate([[0], np.cumsum(n)])
            cs2 = np.concatenate([[0], np.cumsum(n * n)])
            i = np.arange(len(n))
            ok = i >= trail
            ts = cs[i] - cs[np.maximum(i - trail, 0)]
            tss = cs2[i] - cs2[np.maximum(i - trail, 0)]
            dev = trail * n - ts
            var_num = trail * tss - ts * ts
            flag = dev * dev > 9 * var_num
            out.append(pd.DataFrame({
                "event_type": etype,
                "window_start_us": d["window_start_us"].to_numpy()[ok],
                "n_events": n[ok],
                "dev24": dev[ok],
                "var_num": var_num[ok],
                "is_anomaly": flag[ok],
            }))
        return (pd.concat(out, ignore_index=True) if out
                else pd.DataFrame({c: pd.Series(dtype=t) for c, t in (
                    ("event_type", "object"), ("window_start_us", "int64"),
                    ("n_events", "int64"), ("dev24", "int64"),
                    ("var_num", "int64"), ("is_anomaly", "bool"))}))

    return grouped_reduce(dense, "event_type", trail_in_bucket,
                          batch_format="pandas")


def events_cumsum(events_ds):
    """Per-user running aggregates: 1-based sequence number and the
    running e2 fixed-point value total in stable ``(ts, event_id)``
    order — the ``SUM() OVER (PARTITION BY … ROWS UNBOUNDED
    PRECEDING)`` window surface.

    Same shape as :func:`events_lag`: one hash shuffle on a coarse
    ``user_id`` bucket, then ONE vectorized sort + segmented cumsum per
    bucket (global cumsum minus the value at each user's segment
    start) — no per-user Python. Value summation is int64 cents, so
    the running totals are order-independent across plans and bit-equal
    to the SQL window replay."""
    import numpy as np
    import pandas as pd

    from .hashagg import grouped_reduce

    def cumsum_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        v = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        uid = pd.factorize(g["user_id"])[0]
        n = len(g)
        # segment starts: first row of each user run
        start = np.zeros(n, dtype=bool)
        if n:
            start[0] = True
            start[1:] = uid[1:] != uid[:-1]
        idx = np.arange(n, dtype=np.int64)
        seg_first = idx[start]
        seg_id = np.cumsum(start) - 1
        seq = idx - seg_first[seg_id] + 1
        cum = np.cumsum(v)
        base = np.where(seg_first > 0, cum[seg_first - 1], 0)
        run = cum - base[seg_id]
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": g["user_id"].to_numpy(),
            "seq": seq,
            "cum_value_e2": run,
        })

    keyed = events_ds.select_columns(["event_id", "user_id", "ts", "value"])
    return grouped_reduce(keyed, "user_id", cumsum_in_bucket,
                          batch_format="pandas")


def events_lag(events_ds):
    """Per-user self AS-OF join: each event gets its user's previous
    event (stable ``(ts, event_id)`` order) and the time gap — the
    "time since last action" feature every behavioral training set
    needs. Semantically the self-variant of an as-of join (latest row
    at-or-before, deterministic tie-break by event_id); against a
    DIMENSION right side the same shape applies: hash-partition both
    sides on the key, per-group sort, vectorized positional lookup.

    One hash shuffle on a coarse ``user_id`` bucket
    (``stages/hashagg.grouped_reduce``); in-bucket work is ONE
    vectorized sort by ``(user_id, ts, event_id)`` + shift masked at
    user boundaries — no per-user Python call. First event per user
    gets ``prev_event_id = -1, gap_us = -1``.
    """
    import numpy as np
    import pandas as pd

    from .hashagg import grouped_reduce

    def lag_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        ts = g["ts"].astype("int64").to_numpy()
        ids = g["event_id"].to_numpy()
        uid = pd.factorize(g["user_id"])[0]
        prev_id = np.full(len(g), -1, dtype=np.int64)
        gap = np.full(len(g), -1, dtype=np.int64)
        if len(g) > 1:
            same = uid[1:] == uid[:-1]
            prev_id[1:] = np.where(same, ids[:-1], -1)
            gap[1:] = np.where(same, ts[1:] - ts[:-1], -1)
        return pd.DataFrame({
            "event_id": ids,
            "user_id": g["user_id"].to_numpy(),
            "prev_event_id": prev_id,
            "gap_us": gap,
        })

    keyed = events_ds.select_columns(["event_id", "user_id", "ts"])
    return grouped_reduce(keyed, "user_id", lag_in_bucket,
                          batch_format="pandas")


def events_quantiles(events_ds, qs=(0.5, 0.9, 0.99)):
    """Exact distributed quantiles per event_type via a VALUE HISTOGRAM:
    batch-local (event_type, value_e2) counts (combiner) → one narrow
    groupby-sum shuffle → per-type quantile walk over the tiny histogram.

    Exactness without a full sort: event values are fixed-point (cents),
    so the histogram cardinality is bounded by the value domain, not the
    row count — the shuffle carries one row per distinct (type, cents)
    per batch. Quantile definition: smallest v with CDF(v) ≥ ⌈q·n⌉
    (type-1 / lower quantile), pinned identically in the SQL oracle via
    a running-sum window — NOT quantile_disc, whose interpolation rules
    differ across engines.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        e2 = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0),
                              round_mode="half_towards_infinity"), pa.int64())
        t2 = pa.Table.from_arrays([t.column("event_type"), e2],
                                  names=["event_type", "value_e2"])
        return pa.TableGroupBy(t2, ["event_type", "value_e2"]).aggregate(
            [([], "count_all")]).rename_columns(
            ["event_type", "value_e2", "n"])

    from .hashagg import grouped_aggregate

    hist = grouped_aggregate(
        events_ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "value_e2"], [("n", "sum", "n")],
        bucket_on="value_e2")

    def quantiles_in_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("value_e2").reset_index(drop=True)
        counts = g["n"].to_numpy(np.int64)
        vals = g["value_e2"].to_numpy(np.int64)
        cdf = counts.cumsum()
        n = int(cdf[-1])
        row = {"event_type": g["event_type"].iloc[0], "n_events": n}
        for q in qs:
            target = max(1, int(np.ceil(q * n)))
            row[f"p{int(q * 100)}_e2"] = int(vals[np.searchsorted(cdf, target)])
        return pd.DataFrame([row])

    return hist.groupby("event_type").map_groups(quantiles_in_type,
                                                 batch_format="pandas")


def events_distinct_users(events_ds):
    """Exact distinct-user count per event_type: batch-local (type, user)
    dedup (combiner) → bucket shuffle on ``user_id`` → in-bucket Arrow
    distinct + per-type partial count → tiny final sum. The shuffle
    carries at most one row per (type, user) per batch, and no stage
    pays a per-(type,user)-group Python call: each user lands in
    exactly one bucket, so bucket-local distinct pairs are globally
    distinct."""
    from ray.data.aggregate import Sum

    from .hashagg import grouped_reduce

    def pairs(t: pa.Table) -> pa.Table:
        t2 = t.select(["event_type", "user_id"])
        return pa.TableGroupBy(t2, ["event_type", "user_id"]).aggregate(
            []).rename_columns(["event_type", "user_id"])

    def count_bucket(t: pa.Table) -> pa.Table:
        d = t.group_by(["event_type", "user_id"]).aggregate([])
        c = d.group_by("event_type").aggregate([([], "count_all")])
        return c.rename_columns(["event_type", "part"])

    parts = grouped_reduce(events_ds.map_batches(pairs, batch_format="pyarrow"),
                           "user_id", count_bucket)
    out = parts.groupby("event_type").aggregate(Sum("part", alias_name="n_users"))
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_users"), "n_users",
                               t.column("n_users").cast(pa.int64())),
        batch_format="pyarrow",
    )


#: Static value-band dimension for the interval join: [lo, hi) cents.
#: A broadcast interval table is the canonical small side of a RANGE
#: JOIN — each probe is a vectorized searchsorted, no shuffle at all.
VALUE_BANDS_E2 = (
    ("micro", 0, 500),
    ("small", 500, 2000),
    ("medium", 2000, 5000),
    ("large", 5000, 10**12),
)


def events_value_bands(events_ds):
    """RANGE JOIN of events against the static value-band dimension:
    assign each event its [lo, hi) band via vectorized ``searchsorted``
    over the broadcast band edges (the general pattern for joining a
    fact table to a small interval dimension — calendar buckets, price
    tiers, latency SLO bands), then aggregate per (event_type, band).

    No shuffle for the join itself; one combiner-backed groupby for the
    rollup."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    names = [b[0] for b in VALUE_BANDS_E2]
    los = np.array([b[1] for b in VALUE_BANDS_E2], dtype=np.int64)

    def assign(t: pa.Table) -> pa.Table:
        e2 = pc.cast(pc.round(pc.multiply(t.column("value"), 100.0),
                              round_mode="half_towards_infinity"),
                     pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(los, e2, side="right") - 1
        idx = np.clip(idx, 0, len(names) - 1)
        band = np.array(names, dtype=object)[idx]
        t2 = pa.Table.from_arrays(
            [t.column("event_type"), pa.array(band.tolist(), pa.string()),
             pa.array(e2, pa.int64())],
            names=["event_type", "band", "value_e2"],
        )
        return pa.TableGroupBy(t2, ["event_type", "band"]).aggregate(
            [("value_e2", "sum"), ([], "count_all")]).rename_columns(
            ["event_type", "band", "sum_e2", "n"])

    out = (events_ds.map_batches(assign, batch_format="pyarrow")
           .groupby(["event_type", "band"])
           .aggregate(Sum("sum_e2", alias_name="sum_value_e2"),
                      Sum("n", alias_name="n_events")))
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("event_type"), t.column("band"),
             t.column("sum_value_e2").cast(pa.int64()),
             t.column("n_events").cast(pa.int64())],
            names=["event_type", "band", "sum_value_e2", "n_events"]),
        batch_format="pyarrow",
    )


def events_props_sum(events_ds):
    """Semi-structured extraction: parse the ``props`` JSON column
    (per-batch, compiled parser warm per worker) and aggregate the
    extracted field per event_type — the schema-on-read pattern every
    crawl pipeline needs for sidecar metadata."""
    import json

    from ray.data.aggregate import Sum

    def parse(t: pa.Table) -> pa.Table:
        ks = []
        for p in t.column("props").to_pylist():
            try:
                ks.append(int(json.loads(p)["k"]))
            except Exception:
                ks.append(0)
        t2 = pa.Table.from_arrays(
            [t.column("event_type"), pa.array(ks, pa.int64())],
            names=["event_type", "k"],
        )
        return pa.TableGroupBy(t2, ["event_type"]).aggregate(
            [("k", "sum"), ([], "count_all")]).rename_columns(
            ["event_type", "k_sum", "n"])

    out = (events_ds.map_batches(parse, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("k_sum", alias_name="k_sum"),
                      Sum("n", alias_name="n_events")))
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("event_type"), t.column("k_sum").cast(pa.int64()),
             t.column("n_events").cast(pa.int64())],
            names=["event_type", "k_sum", "n_events"]),
        batch_format="pyarrow",
    )


#: Sentinel for rolled-up (aggregated-away) rollup dimensions.
ROLLUP_ALL_TYPE = "ALL"
ROLLUP_ALL_WINDOW_US = 0  # 1970-01-01T00:00:00


def events_rollup(events_ds, width_s: int = 3600):
    """``GROUP BY ROLLUP(event_type, window)`` in three levels — (type,
    window), (type, ALL-windows), grand total — with the raw table
    scanned exactly ONCE: the finest aggregate is distinct-group-sized,
    so each coarser level folds from the level below it (the classic
    rollup cascade), never from raw events.

    Exactness: values are fixed-pointed PER EVENT (e4, half away from
    zero — DuckDB ``round`` semantics) before any summing, so every
    level's integer total is independent of partial-sum order and
    byte-equal to the SQL ``ROLLUP`` oracle. Rolled-up dimensions carry
    sentinels (:data:`ROLLUP_ALL_TYPE` / epoch-0 window), not NULLs, so
    the compare surface stays hashable.
    """
    import ray.data

    from .hashagg import grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        epoch = batch.column("ts").cast(pa.int64())
        win = pc.multiply(
            pc.floor(pc.divide(pc.cast(epoch, pa.float64()),
                               float(width_s) * 1e6)).cast(pa.int64()),
            width_s * 1_000_000,
        )
        v = pc.cast(
            pc.round(pc.multiply(batch.column("value"), 10000.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        t = pa.table({"event_type": batch.column("event_type"),
                      "window_start_us": win, "v_e4": v})
        agg = pa.TableGroupBy(t, ["event_type", "window_start_us"]).aggregate(
            [("v_e4", "sum"), ("v_e4", "count")])
        return agg.rename_columns(
            ["event_type", "window_start_us", "part_sum", "part_n"])

    partials = events_ds.map_batches(partial, batch_format="pyarrow",
                                     batch_size=8192)
    finest = grouped_aggregate(
        partials, ["event_type", "window_start_us"],
        [("part_sum", "sum", "sum_value_e4"), ("part_n", "sum", "n_events")],
        bucket_on="window_start_us",
    ).materialize()  # aggregate-sized; three consumers below

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("event_type"),
             t.column("window_start_us").cast(pa.timestamp("us")),
             t.column("n_events").cast(pa.int64()),
             t.column("sum_value_e4").cast(pa.int64())],
            names=["event_type", "window_start", "n_events", "sum_value_e4"],
        )

    level0 = finest.map_batches(finish, batch_format="pyarrow")

    per_type = (finest.groupby("event_type")
                .aggregate(Sum("sum_value_e4", alias_name="sum_value_e4"),
                           Sum("n_events", alias_name="n_events")))

    def finish_type(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.Table.from_arrays(
            [t.column("event_type"),
             pa.array([ROLLUP_ALL_WINDOW_US] * n, pa.int64()).cast(pa.timestamp("us")),
             t.column("n_events").cast(pa.int64()),
             t.column("sum_value_e4").cast(pa.int64())],
            names=["event_type", "window_start", "n_events", "sum_value_e4"],
        )

    level1 = per_type.map_batches(finish_type, batch_format="pyarrow").materialize()

    # grand total folds from level 1 (a handful of rows) on the driver
    rows = level1.take_all()  # bounded: one row per event type
    total = pa.Table.from_arrays(
        [pa.array([ROLLUP_ALL_TYPE], pa.string()),
         pa.array([ROLLUP_ALL_WINDOW_US], pa.int64()).cast(pa.timestamp("us")),
         pa.array([sum(r["n_events"] for r in rows)], pa.int64()),
         pa.array([sum(r["sum_value_e4"] for r in rows)], pa.int64())],
        names=["event_type", "window_start", "n_events", "sum_value_e4"],
    )
    return level0.union(level1).union(ray.data.from_arrow(total))


def events_hourly_users(events_ds, width_s: int = 3600):
    """Exact distinct-user count per (event_type, tumbling window) — the
    windowed composition of :func:`events_distinct_users`: batch-local
    (type, window, user) dedup combiner → bucket shuffle on ``user_id``
    (each user in exactly one bucket ⇒ bucket-local distinct is globally
    distinct) → per-(type, window) partial counts → tiny final sum. The
    shuffle carries at most one narrow row per (type, window, user) per
    batch; no per-group Python anywhere."""
    from .hashagg import grouped_reduce

    def pairs(t: pa.Table) -> pa.Table:
        epoch = t.column("ts").cast(pa.int64())
        win = pc.multiply(
            pc.floor(pc.divide(pc.cast(epoch, pa.float64()),
                               float(width_s) * 1e6)).cast(pa.int64()),
            width_s * 1_000_000,
        )
        t2 = pa.table({"event_type": t.column("event_type"),
                       "window_start_us": win, "user_id": t.column("user_id")})
        return (pa.TableGroupBy(t2, ["event_type", "window_start_us", "user_id"])
                .aggregate([])
                .rename_columns(["event_type", "window_start_us", "user_id"]))

    def count_bucket(t: pa.Table) -> pa.Table:
        d = t.group_by(["event_type", "window_start_us", "user_id"]).aggregate([])
        c = d.group_by(["event_type", "window_start_us"]).aggregate([([], "count_all")])
        return c.rename_columns(["event_type", "window_start_us", "part"])

    parts = grouped_reduce(events_ds.map_batches(pairs, batch_format="pyarrow"),
                           "user_id", count_bucket)
    out = parts.groupby(["event_type", "window_start_us"]).aggregate(
        Sum("part", alias_name="n_users"))
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("event_type"),
             t.column("window_start_us").cast(pa.timestamp("us")),
             t.column("n_users").cast(pa.int64())],
            names=["event_type", "window_start", "n_users"]),
        batch_format="pyarrow",
    )


def events_funnel(events_ds, first: str = "view", then: str = "purchase",
                  gap_s: int = 1800):
    """Per-user session funnel: of each user's gap-based sessions, how
    many CONVERT — contain a ``first`` event strictly before a ``then``
    event (position in the total (ts, event_id) order). The behavioral
    sequence-match every product-analytics pipeline needs, composed from
    the session machinery: one hash shuffle on a coarse ``user_id``
    bucket, then a single vectorized sort + two segment extrema per
    bucket — no per-session Python."""
    import numpy as np
    import pandas as pd

    from .hashagg import grouped_reduce

    gap_us = gap_s * 1_000_000

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        e = g["ts"].astype("int64").to_numpy()
        uid = pd.factorize(g["user_id"])[0]
        brk = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = ((uid[1:] != uid[:-1]) |
                       (e[1:] - e[:-1] > gap_us)).astype(np.int64)
        g["_sess"] = brk.cumsum()
        pos = pd.Series(np.arange(len(g), dtype=np.int64), index=g.index)
        a_pos = pos.where(g["event_type"] == first)
        b_pos = pos.where(g["event_type"] == then)
        per_sess = pd.DataFrame({
            "user_id": g["user_id"],
            "_sess": g["_sess"],
            "a": a_pos,
            "b": b_pos,
        }).groupby(["user_id", "_sess"], sort=True).agg(
            a=("a", "min"), b=("b", "max"))
        conv = (a_pos_notna := per_sess["a"].notna()) & per_sess["b"].notna() \
            & (per_sess["a"] < per_sess["b"])
        out = per_sess.assign(conv=conv.astype("int64")).reset_index()
        return (out.groupby("user_id", sort=True)
                .agg(n_sessions=("_sess", "size"), n_converted=("conv", "sum"))
                .reset_index().astype({"n_sessions": "int64",
                                       "n_converted": "int64"}))

    return grouped_reduce(events_ds, "user_id", funnel_bucket,
                          batch_format="pandas")


def events_retention(events_ds, day_s: int = 86400):
    """Cohort retention matrix: users grouped by first-activity day
    (their cohort), counted as retained on each later day they appear —
    the (cohort_day, day_offset) → distinct-user-count surface every
    product-analytics stack computes, and a self-join shape (events ⋈
    first-event-per-user) the other window ops don't cover.

    ONE user-bucket shuffle does everything: the batch combiner first
    dedups to distinct (user_id, day) pairs (the shuffle never carries
    more than one row per user-day per batch), the bucket reduce then
    derives each user's cohort = min(day) LOCALLY (all of a user's days
    share the bucket) and emits (cohort, offset) partial counts — a
    distinct user-day is by construction one retained user — and a tiny
    ``groupby((cohort, offset)).sum`` finishes. No join operator, no
    second shuffle; the same co-location argument as
    :func:`events_hourly_users`."""
    from .hashagg import grouped_reduce

    day_us = day_s * 1_000_000

    def day_pairs(t: pa.Table) -> pa.Table:
        epoch = t.column("ts").cast(pa.int64())
        day = pc.floor(pc.divide(pc.cast(epoch, pa.float64()),
                                 float(day_us))).cast(pa.int64())
        t2 = pa.table({"user_id": t.column("user_id"), "day": day})
        return (pa.TableGroupBy(t2, ["user_id", "day"]).aggregate([])
                .rename_columns(["user_id", "day"]))

    def bucket_counts(t: pa.Table) -> pa.Table:
        d = t.group_by(["user_id", "day"]).aggregate([])
        cohort = (d.group_by("user_id").aggregate([("day", "min")])
                  .rename_columns(["user_id", "cohort"]))
        j = d.join(cohort, keys="user_id")
        off = pc.subtract(j.column("day"), j.column("cohort"))
        g = pa.table({"cohort_day": j.column("cohort"), "day_offset": off})
        agg = pa.TableGroupBy(g, ["cohort_day", "day_offset"]).aggregate(
            [([], "count_all")])
        return agg.rename_columns(["cohort_day", "day_offset", "part"])

    parts = grouped_reduce(
        events_ds.map_batches(day_pairs, batch_format="pyarrow"),
        "user_id", bucket_counts)
    out = parts.groupby(["cohort_day", "day_offset"]).aggregate(
        Sum("part", alias_name="n_users"))
    return out.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("cohort_day").cast(pa.int64()),
             t.column("day_offset").cast(pa.int64()),
             t.column("n_users").cast(pa.int64())],
            names=["cohort_day", "day_offset", "n_users"]),
        batch_format="pyarrow")


def events_pivot(events_ds):
    """Long→wide pivot: one row per user with a count column per event
    type (the one-hot / feature-table shape model-training pipelines
    feed from event logs). Event types are discovered by a tiny
    distinct pass (sorted, deterministic column order), then each batch
    combines to per-user wide partial counts and ONE high-cardinality
    ``grouped_aggregate`` sum finishes — the pivot itself never
    shuffles strings, only int64 count columns."""
    from .hashagg import grouped_aggregate

    types = sorted(events_ds.select_columns(["event_type"])
                   .unique("event_type"))
    cols = [f"n_{t}" for t in types]

    def widen(t: pa.Table) -> pa.Table:
        import numpy as np

        users = t.column("user_id").to_numpy()
        ets = t.column("event_type").to_pylist()
        uu, inv = np.unique(users, return_inverse=True)
        mat = np.zeros((len(uu), len(types)), np.int64)
        tidx = {et: i for i, et in enumerate(types)}
        np.add.at(mat, (inv, np.fromiter((tidx[e] for e in ets), np.int64,
                                         len(ets))), 1)
        data = {"user_id": pa.array(uu, pa.int64())}
        for i, c in enumerate(cols):
            data[c] = pa.array(mat[:, i], pa.int64())
        return pa.table(data)

    wide = events_ds.select_columns(["user_id", "event_type"]).map_batches(
        widen, batch_format="pyarrow")
    out = grouped_aggregate(wide, "user_id",
                            [(c, "sum", c) for c in cols])
    return out.map_batches(
        lambda t: pa.table(
            {"user_id": t.column("user_id").cast(pa.int64()),
             **{c: t.column(c).cast(pa.int64()) for c in cols}}),
        batch_format="pyarrow")


def events_attribution(events_ds, convert: str = "purchase",
                       touch: str = "view"):
    """Last-touch attribution: each conversion event joined to the most
    recent STRICTLY earlier touch event by the same user — the as-of
    join between two event streams (``events_lag`` is the self-lag
    special case; this is the two-stream form marketing/causal
    pipelines run). Conversions with no prior touch are dropped (inner
    as-of semantics). Ties among equal-timestamp touches resolve to the
    largest event_id (the latest writer wins — pinned and mirrored in
    the oracle).

    ONE user-bucket shuffle: both streams are filtered and projected in
    the batch combiner, co-located by ``hash(user_id)``, and each
    bucket runs a single vectorized ``pd.merge_asof`` (global sort on
    ts + ``by=user_id``, C-speed, no per-user Python)."""
    import pandas as pd

    from .hashagg import grouped_reduce

    def project(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t.column("event_type"),
                        value_set=pa.array([convert, touch]))
        t = t.filter(keep)
        return pa.table({"user_id": t.column("user_id"),
                         "ts": t.column("ts"),
                         "event_id": t.column("event_id"),
                         "event_type": t.column("event_type")})

    def asof_bucket(df: pd.DataFrame) -> pd.DataFrame:
        conv = df[df["event_type"] == convert]
        tch = df[df["event_type"] == touch]
        if conv.empty or tch.empty:
            return pd.DataFrame({
                "purchase_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "purchase_ts": pd.Series([], dtype="datetime64[us]"),
                "view_id": pd.Series([], dtype="int64"),
                "view_ts": pd.Series([], dtype="datetime64[us]"),
            })
        conv = conv.sort_values(["ts", "event_id"], kind="stable")
        tch = tch.sort_values(["ts", "event_id"], kind="stable")
        # merge_asof drops the right join key; carry it as a data column.
        tch = pd.DataFrame({"ts": tch["ts"], "user_id": tch["user_id"],
                            "view_id": tch["event_id"],
                            "view_ts": tch["ts"]})
        j = pd.merge_asof(
            conv, tch, on="ts", by="user_id",
            direction="backward", allow_exact_matches=False,
        )
        # merge_asof keeps the LAST right row at the matched ts — the
        # (ts, event_id) ascending sort makes that the max event_id.
        # Unmatched conversions carry NaN — drop (inner as-of).
        j = j.dropna(subset=["view_id"])
        return pd.DataFrame({
            "purchase_id": j["event_id"].astype("int64"),
            "user_id": j["user_id"].astype("int64"),
            "purchase_ts": j["ts"],
            "view_id": j["view_id"].astype("int64"),
            "view_ts": j["view_ts"],
        })

    return grouped_reduce(
        events_ds.map_batches(project, batch_format="pyarrow"),
        "user_id", asof_bucket, batch_format="pandas")
