"""Interval (range) join over event streams — the inequality-predicate
join Ray Data has no operator for (reference analog: the tolerance /
range matching joins of ``ocr/layout.py``'s spatial pipeline, J3/J4 in
SURVEY.md §2, restated for the time axis).

``purchase_window_join`` joins every conversion event to the SAME
user's events in the trailing window ``[ts - window, ts)`` — the
classic stream-to-stream range join (ad attribution, feature windows,
sessionized context) whose naive form is a per-user cross product.

Plan (one narrow shuffle, no cross product, no per-row Python): every
event is a build row and each conversion also a probe row of one
role-tagged union (``stages/window.tag_roles``), co-located by
``hash(user_id)``; each bucket runs the shared ``(user, ts)`` probe of
``stages/window.probe_builds`` with the window ``[-window, 0)``, and
window sums come from prefix sums over the sorted build rows —
O((E+P) log E) per bucket regardless of per-user skew, where a hot user
costs the naive plan |events|² pairs.

At 100 TB the only exchange is the 3-column int64 shuffle of both
streams; the window math never materializes a pair. Skewed users are
safe by construction (searchsorted, not expansion); skewed BUCKETS
re-bucket by raising ``num_buckets`` (the key-space trick documented in
``stages/hashagg.py``).

Semantics pinned for the oracle (DuckDB inequality join):
prior events satisfy ``ts_e >= ts_p - window AND ts_e < ts_p`` —
strictly-earlier, window-start inclusive; conversions with no prior
events are KEPT with zero counts (left shape).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashagg import grouped_reduce
from .window import probe_builds, tag_roles


def purchase_window_join(events_ds, convert: str = "purchase",
                         window_us: int = 3_600_000_000,
                         num_buckets: int = 64):
    """events (event_id, ts, user_id, event_type, value) →
    (purchase_id, user_id, n_prior, sum_prior_e2): per conversion
    event, the count and e2-fixed-point value sum of the same user's
    events in ``[ts - window, ts)`` (all event types, the conversion's
    own row excluded by strict inequality)."""

    def window_bucket(t: pa.Table) -> pa.Table:
        p, b, lo, hi = probe_builds(t, -int(window_us), 0,
                                    "purchase_window_join")
        cs = np.concatenate([[0], np.cumsum(t.column("value_e2").to_numpy()[b])])
        n = (hi - lo).astype(np.int64)
        s = (cs[hi] - cs[lo]).astype(np.int64)
        return pa.table({
            "purchase_id": pa.array(t.column("event_id").to_numpy()[p], pa.int64()),
            "user_id": pa.array(t.column("user_id").to_numpy()[p], pa.int64()),
            "n_prior": pa.array(n, pa.int64()),
            "sum_prior_e2": pa.array(np.where(n > 0, s, 0), pa.int64()),
        })

    tagged = events_ds.map_batches(lambda t: tag_roles(t, convert),
                                   batch_format="pyarrow")
    return grouped_reduce(tagged, "user_id", window_bucket,
                          num_buckets=num_buckets)
