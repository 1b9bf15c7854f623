"""As-of join over event streams — the temporal point join Ray Data has
no operator for (the third member of the custom-join triple next to the
interval join of ``stages/rangejoin.py`` and the windowed aggregates of
``stages/window.py``; reference analog: the nearest-match tolerance
joins of ``ocr/layout.py``, J4 in SURVEY.md §2, restated for the time
axis).

``event_asof_join`` attaches to every LEFT event (e.g. ``purchase``)
the same user's most recent RIGHT event (e.g. ``click``) at
``ts_right <= ts_left`` — the classic backward as-of join (feature
lookup "state as of the conversion", ad last-touch, sensor alignment).
``direction="forward"`` flips it to the earliest right event at
``ts_right >= ts_left`` (next-touch attribution, time-to-next-event),
same plan with the open side of the probe mirrored.

Plan (one narrow shuffle, no inequality expansion, no per-row Python):
both streams ride ONE shuffle co-located by ``hash(user_id)`` as one
role-tagged union (``stages/window.tag_roles``), and each bucket answers
every probe with the shared ``(user, ts)`` probe of
``stages/window.probe_builds`` — O((L+R) log R) per bucket regardless
of per-user skew. Backward is the last build at ``ts <= left.ts``,
forward the first at ``ts >= left.ts``.

Semantics pinned for the oracle (tie-exact, no ambiguity): the match is
the right event with the greatest ``(ts, event_id)`` among
``ts <= left.ts`` — equal timestamps MATCH (DuckDB ``ASOF JOIN``'s
``>=`` convention) and ties on ts break to the larger event_id, which
the SQL replay expresses as ``last_value(... IGNORE NULLS)`` over the
union of both streams ordered by ``(ts, is_left, event_id)``. Left
events with no prior right event are KEPT (left shape) with the
integer sentinels ``match_id = -1, match_ts_us = -1, match_value_e2 =
0, gap_us = -1`` so the compare surface stays null-free int64.

At 100 TB the only exchange is the 4-column int64 shuffle of both
streams; skewed users are safe by construction (searchsorted, never a
per-user product); skewed BUCKETS re-bucket by raising ``num_buckets``
(the key-space trick documented in ``stages/hashagg.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashagg import grouped_reduce
from .window import probe_builds, tag_roles


def event_asof_join(events_ds, left_type: str = "purchase",
                    right_type: str = "click", num_buckets: int = 64,
                    direction: str = "backward"):
    """events (event_id, ts, user_id, event_type, value) → one row per
    ``left_type`` event: (left_id, user_id, ts_us, match_id,
    match_ts_us, match_value_e2, gap_us) where match_* describe the
    same user's nearest ``right_type`` event — most recent at
    ts <= left ts for ``direction="backward"`` (tie: greatest
    (ts, event_id)), earliest at ts >= left ts for ``"forward"``
    (tie: smallest (ts, event_id)); equal timestamps match in both.
    Sentinels -1/-1/0/-1 when the user has no event on that side.
    ``gap_us`` is always the non-negative |ts - match_ts|."""
    if direction not in ("backward", "forward"):
        raise ValueError(
            f"unknown direction {direction!r}; expected backward|forward")
    forward = direction == "forward"

    def asof_bucket(t: pa.Table) -> pa.Table:
        p, b, lo, hi = probe_builds(t, 0 if forward else None,
                                    None if forward else 1,
                                    "event_asof_join")
        # builds sort by (ts, event_id): the first match is the smallest
        # event_id at the earliest ts, the last the greatest at the latest
        matched = hi > lo
        m = b[(lo if forward else hi - 1)[matched]]
        eid = t.column("event_id").to_numpy()
        ts = t.column("ts_us").to_numpy()
        m_id = np.full(len(p), -1, np.int64)
        m_ts = np.full(len(p), -1, np.int64)
        m_val = np.zeros(len(p), np.int64)
        m_id[matched] = eid[m]
        m_ts[matched] = ts[m]
        m_val[matched] = t.column("value_e2").to_numpy()[m]
        gap = np.where(matched, np.abs(ts[p] - m_ts), -1)
        return pa.table({
            "left_id": pa.array(eid[p], pa.int64()),
            "user_id": pa.array(t.column("user_id").to_numpy()[p], pa.int64()),
            "ts_us": pa.array(ts[p], pa.int64()),
            "match_id": pa.array(m_id, pa.int64()),
            "match_ts_us": pa.array(m_ts, pa.int64()),
            "match_value_e2": pa.array(m_val, pa.int64()),
            "gap_us": pa.array(gap, pa.int64()),
        })

    tagged = events_ds.map_batches(
        lambda t: tag_roles(t, left_type, right_type), batch_format="pyarrow")
    return grouped_reduce(tagged, "user_id", asof_bucket,
                          num_buckets=num_buckets)
