"""Event-time queries over the ``events`` stream table, and the kernels
they share.

Ray Data has no event-time windows (SURVEY.md §2.7 — the reference is
strictly batch too); a tumbling window over a bounded log is a grouped
aggregate on ``floor(epoch(ts) / width)``. Partial pre-aggregation inside
``map_batches`` (one row per (key, window) per batch) shrinks the shuffle
to near-distinct-group size before the global ``groupby`` — the
combiner-before-shuffle pattern.

Each event-time decision is made once, here, for every ``events_*``
query, ``stages/asofjoin.py`` and ``stages/rangejoin.py``:

- :func:`window_start_us` — the float-floor window start;
- :func:`fixed_point` — DuckDB ``round`` (half away from zero) to an
  int64 scale;
- :func:`user_runs` — the per-user ``(user_id, ts, event_id)`` order of
  one user bucket and where each user run or gap session starts;
- :func:`tag_roles` + :func:`probe_builds` — the role-tagged ``(user,
  ts)`` probe behind every as-of and range join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Sum

from .hashagg import grouped_aggregate, grouped_reduce


def window_start_us(ts, width_s: int):
    """Start of each timestamp's ``width_s`` tumbling window in epoch µs:
    the float64 floor of ``epoch_us / width``, times the width."""
    epoch = pc.cast(ts.cast(pa.int64()), pa.float64())
    return pc.multiply(
        pc.floor(pc.divide(epoch, float(width_s) * 1e6)).cast(pa.int64()),
        width_s * 1_000_000)


def fixed_point(col, scale: float):
    """``round(col * scale)`` half away from zero (DuckDB ``round``) as
    int64 — exact integer sums in any partial-sum order."""
    return pc.cast(pc.round(pc.multiply(col, scale),
                            round_mode="half_towards_infinity"), pa.int64())


def user_runs(g: pd.DataFrame, gap_us: int | None = None):
    """One user bucket sorted by ``(user_id, ts, event_id)`` — ordering
    is explicit, never block arrival order (SURVEY.md §7.4) — and a bool
    mask of the rows that start a user run; with ``gap_us``, also of the
    rows more than ``gap_us`` after their user's previous event (a new
    session). Every per-user segment is then a vectorized pass."""
    g = g.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    uid = pd.factorize(g["user_id"])[0]
    start = np.ones(len(g), dtype=bool)
    start[1:] = uid[1:] != uid[:-1]
    if gap_us is not None:
        e = g["ts"].astype("int64").to_numpy()
        start[1:] |= e[1:] - e[:-1] > gap_us
    return g, start


#: Role tags of the one union both sides of a probe join ride in.
ROLE_BUILD, ROLE_PROBE = 0, 1


def tag_roles(t: pa.Table, probe_type: str,
              build_type: str | None = None) -> pa.Table:
    """One event batch → its rows of the role-tagged union that carries
    both streams of a probe join through one ``user_id`` shuffle:
    ``(user_id, ts_us, event_id[, value_e2], role)``. ``probe_type``
    events are probes; ``build_type`` events are builds, or, when it is
    ``None``, every event is (a probe-type event then rides twice, once
    per role). ``value_e2`` (cents) rides when the batch has a ``value``
    column."""
    etype = t.column("event_type")
    probe = pc.equal(etype, probe_type)
    rows = {"user_id": t.column("user_id"),
            "ts_us": t.column("ts").cast(pa.int64()),
            "event_id": t.column("event_id")}
    if "value" in t.column_names:
        rows["value_e2"] = fixed_point(t.column("value"), 100.0)
    rows = pa.table(rows)
    builds = (rows if build_type is None else
              rows.filter(pc.and_not(pc.equal(etype, build_type), probe)))
    probes = rows.filter(probe)
    return pa.concat_tables([
        part.append_column("role", pa.array(np.full(part.num_rows, role),
                                            pa.int64()))
        for part, role in ((builds, ROLE_BUILD), (probes, ROLE_PROBE))])


def probe_builds(t: pa.Table, lo_us: int | None, hi_us: int | None,
                 what: str):
    """The one ``(user, ts)`` probe of a role-tagged bucket
    (:func:`tag_roles`). Probe ``i`` matches the same user's build rows at
    ``ts_i + lo_us <= ts < ts_i + hi_us``; ``None`` leaves that side open
    up to the user's first or last build row.

    Returns ``(p, b, lo, hi)``: the probe row indices of ``t``, the build
    row indices sorted by ``(user, ts, event_id)``, and per probe the
    bounds of its matches ``b[lo[i]:hi[i]]``.

    ``(user, ts)`` is one monotone int64 key ``uidx * span + (ts -
    t_min)`` (``uidx`` the bucket-local dense user index). ``span`` pads
    the bucket's timestamp range by the largest offset, so a bounded side
    never leaves its user's key block, and an open side is clamped to
    that block's edges. One lexsort of the builds and one
    ``searchsorted`` per side: O((P + B) log B) per bucket, whatever the
    per-user skew, where a per-user product costs a hot user |events|²
    pairs. A bucket whose key space overflows int64 raises; raise the
    caller's ``num_buckets`` so each bucket holds fewer users."""
    role = t.column("role").to_numpy()
    p = np.flatnonzero(role == ROLE_PROBE)
    b = np.flatnonzero(role == ROLE_BUILD)
    if not len(role):
        return p, b, p, p
    ts = t.column("ts_us").to_numpy()
    uniq, uidx = np.unique(t.column("user_id").to_numpy(), return_inverse=True)
    t_min = int(ts.min())
    span = int(ts.max()) - t_min + max(abs(lo_us or 0), abs(hi_us or 0)) + 2
    if len(uniq) * span >= 2**62:
        raise ValueError(
            f"{what}: bucket key space overflow ({len(uniq)} users x span "
            f"{span}); raise num_buckets so each bucket holds fewer users")
    key = uidx * span + (ts - t_min)
    b = b[np.lexsort((t.column("event_id").to_numpy()[b], key[b]))]
    bkey, pkey, block = key[b], key[p], uidx[p] * span
    lo = np.searchsorted(bkey, block if lo_us is None else pkey + lo_us)
    hi = np.searchsorted(bkey, block + span if hi_us is None else pkey + hi_us)
    return p, b, lo, hi


def _partial(batch: pa.Table, width_s: int) -> pa.Table:
    t = batch.append_column("window_start_us",
                            window_start_us(batch.column("ts"), width_s))
    agg = pa.TableGroupBy(t, ["event_type", "window_start_us"]).aggregate(
        [("value", "sum"), ("event_id", "count")]
    )
    return agg.rename_columns(["event_type", "window_start_us", "part_sum", "part_n"])


def _window_totals(partials):
    """(event_type, window_start_us, part_sum, part_n) partials →
    (event_type, window_start, n_events, sum_value): the tail that
    tumbling and sliding windows share."""
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


def tumbling_window(events_ds, width_s: int = 3600):
    """events → (event_type, window_start, n_events, sum_value)."""
    return _window_totals(events_ds.map_batches(
        lambda t: _partial(t, width_s), batch_format="pyarrow", batch_size=8192))


def sliding_window(events_ds, width_s: int = 3600, slide_s: int = 900):
    """Sliding event-time windows: each event belongs to ``width/slide``
    overlapping windows. The expansion happens inside ``map_batches``
    (vectorized repeat + arithmetic) and is immediately pre-aggregated per
    (key, window) — the combiner keeps the shuffle at distinct-group size
    even though the raw expansion is ``width/slide``× the input."""
    assert width_s % slide_s == 0, "width must be a multiple of slide"
    k = width_s // slide_s

    def partial(batch: pa.Table) -> pa.Table:
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

    return _window_totals(
        events_ds.map_batches(partial, batch_format="pyarrow", batch_size=8192))


def session_window(events_ds, gap_s: int = 1800):
    """Per-user session windows: a session breaks when the gap between
    consecutive events exceeds ``gap_s``. Shuffles once on a coarse
    bucket of ``user_id`` (``stages/hashagg.grouped_reduce`` — one
    Python call per BUCKET, not per user); inside a bucket
    :func:`user_runs` makes user boundaries and gap breaks a single
    vectorized pass."""
    gap_us = gap_s * 1_000_000

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, start = user_runs(g, gap_us)
        g["_sess"] = start.cumsum()
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
    import ray

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

    def cumsum_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, start = user_runs(g)
        v = fixed_point(pa.array(g["value"].to_numpy()), 100.0).to_numpy()
        idx = np.arange(len(g), dtype=np.int64)
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
    vectorized :func:`user_runs` sort + shift masked at user boundaries
    — no per-user Python call. First event per user gets
    ``prev_event_id = -1, gap_us = -1``.
    """

    def lag_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, start = user_runs(g)
        ts = g["ts"].astype("int64").to_numpy()
        ids = g["event_id"].to_numpy()
        prev_id = np.full(len(g), -1, dtype=np.int64)
        gap = np.full(len(g), -1, dtype=np.int64)
        same = ~start[1:]
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

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.Table.from_arrays(
            [t.column("event_type"), fixed_point(t.column("value"), 100.0)],
            names=["event_type", "value_e2"])
        return pa.TableGroupBy(t2, ["event_type", "value_e2"]).aggregate(
            [([], "count_all")]).rename_columns(
            ["event_type", "value_e2", "n"])

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


def _distinct_users(events_ds, keys: list[str], key_columns):
    """Exact distinct-user count per ``keys`` → (*keys, n_users);
    ``key_columns(batch)`` gives the key columns of one event batch.

    Batch-local (keys, user) dedup (combiner) → bucket shuffle on
    ``user_id`` → in-bucket Arrow distinct + per-key partial count →
    tiny final sum. Each user lands in exactly one bucket, so
    bucket-local distinct pairs are globally distinct; the shuffle
    carries at most one row per (keys, user) per batch, and no stage
    pays a per-group Python call."""
    cols = [*keys, "user_id"]

    def pairs(t: pa.Table) -> pa.Table:
        t2 = pa.table({**key_columns(t), "user_id": t.column("user_id")})
        return pa.TableGroupBy(t2, cols).aggregate([]).rename_columns(cols)

    def count_bucket(t: pa.Table) -> pa.Table:
        d = t.group_by(cols).aggregate([])
        c = d.group_by(keys).aggregate([([], "count_all")])
        return c.rename_columns([*keys, "part"])

    parts = grouped_reduce(events_ds.map_batches(pairs, batch_format="pyarrow"),
                           "user_id", count_bucket)
    out = parts.groupby(keys).aggregate(Sum("part", alias_name="n_users"))
    return out.map_batches(
        lambda t: t.set_column(t.column_names.index("n_users"), "n_users",
                               t.column("n_users").cast(pa.int64())),
        batch_format="pyarrow",
    )


def events_distinct_users(events_ds):
    """Exact distinct-user count per event_type (:func:`_distinct_users`)."""
    return _distinct_users(events_ds, ["event_type"],
                           lambda t: {"event_type": t.column("event_type")})


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
    names = [b[0] for b in VALUE_BANDS_E2]
    los = np.array([b[1] for b in VALUE_BANDS_E2], dtype=np.int64)

    def assign(t: pa.Table) -> pa.Table:
        e2 = fixed_point(t.column("value"), 100.0).to_numpy(
            zero_copy_only=False)
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

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch.column("event_type"),
                      "window_start_us": window_start_us(batch.column("ts"),
                                                         width_s),
                      "v_e4": fixed_point(batch.column("value"), 10000.0)})
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
    windowed composition of :func:`events_distinct_users`: the same
    :func:`_distinct_users` plan with the window start as a second key."""
    out = _distinct_users(
        events_ds, ["event_type", "window_start_us"],
        lambda t: {"event_type": t.column("event_type"),
                   "window_start_us": window_start_us(t.column("ts"), width_s)})
    return out.map_batches(
        lambda t: t.set_column(1, "window_start",
                               t.column(1).cast(pa.timestamp("us"))),
        batch_format="pyarrow")


def events_funnel(events_ds, first: str = "view", then: str = "purchase",
                  gap_s: int = 1800):
    """Per-user session funnel: of each user's gap-based sessions, how
    many CONVERT — contain a ``first`` event strictly before a ``then``
    event (position in the total (ts, event_id) order). The behavioral
    sequence-match every product-analytics pipeline needs, composed from
    the session machinery: one hash shuffle on a coarse ``user_id``
    bucket, then a single vectorized :func:`user_runs` sort + two segment
    extrema per bucket — no per-session Python."""
    gap_us = gap_s * 1_000_000

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, start = user_runs(g, gap_us)
        g["_sess"] = start.cumsum()
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
        conv = per_sess["a"].notna() & per_sess["b"].notna() \
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
    :func:`events_hourly_users`. The day is the index of the
    :func:`window_start_us` day window."""
    day_us = day_s * 1_000_000

    def day_pairs(t: pa.Table) -> pa.Table:
        day = pc.divide(window_start_us(t.column("ts"), day_s), day_us)
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
    types = sorted(events_ds.select_columns(["event_type"])
                   .unique("event_type"))
    cols = [f"n_{t}" for t in types]

    def widen(t: pa.Table) -> pa.Table:
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

    The backward as-of probe of ``stages/asofjoin.py`` on integer µs:
    "strictly earlier" is ``ts <= ts_conversion - 1``, so each conversion
    matches the last touch of :func:`probe_builds` below ``hi_us = 0``.
    ONE user-bucket shuffle: both streams are tagged in the batch
    combiner (:func:`tag_roles`) and co-located by ``hash(user_id)``."""

    def attribute_bucket(t: pa.Table) -> pa.Table:
        p, b, lo, hi = probe_builds(t, None, 0, "events_attribution")
        hit = hi > lo
        p, m = p[hit], b[hi[hit] - 1]
        eid = t.column("event_id").to_numpy()
        ts = t.column("ts_us").to_numpy()
        return pa.table({
            "purchase_id": pa.array(eid[p], pa.int64()),
            "user_id": pa.array(t.column("user_id").to_numpy()[p], pa.int64()),
            "purchase_ts": pa.array(ts[p], pa.int64()).cast(pa.timestamp("us")),
            "view_id": pa.array(eid[m], pa.int64()),
            "view_ts": pa.array(ts[m], pa.int64()).cast(pa.timestamp("us")),
        })

    tagged = events_ds.map_batches(lambda t: tag_roles(t, convert, touch),
                                   batch_format="pyarrow")
    return grouped_reduce(tagged, "user_id", attribute_bucket)
