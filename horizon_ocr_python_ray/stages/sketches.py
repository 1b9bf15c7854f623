"""Mergeable cardinality sketches: HyperLogLog approximate distinct
count per group, built as a pure register-max monoid so the combiner /
shuffle shape is optimal by construction.

Why a sketch when ``events_distinct_users`` is exact: the exact
two-phase distinct must shuffle one row per DISTINCT MEMBER (users ×
groups); the HLL shuffle carries at most ``m`` (=2^p, default 4096)
register rows per group PER BATCH regardless of cardinality — at 100 TB
the difference is the whole game. Register max is commutative and
idempotent, so partials merge in any order, across batches, nodes, or
runs (sketches from yesterday's shards merge with today's).

Determinism contract: the hash is md5-low64 of the stringified member
(``md5_number_lower`` in DuckDB — same construction as
``functions/fasthash.md5_number_lower``), so the REGISTERS themselves are
engine-independent and the driver oracle verifies them exactly
(bucket/rank table digest). The float bias-corrected estimate is
derived downstream (``hll_estimate``) and kept off the exact-compare
surface.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
from ..functions.collect import fold_capped
from ..functions.fasthash import md5_number_lower

#: Register-index bits: m = 2^p registers per group.
DEFAULT_P = 12


def member_register(member: str, p: int = DEFAULT_P) -> tuple[int, int]:
    """(bucket, rank) of one member: top ``p`` hash bits pick the
    register, rank = leading-zero count of the remaining 64-p bits + 1
    (w == 0 ranks 64-p+1, the all-zeros maximum)."""
    h = md5_number_lower(member)
    wbits = 64 - p
    bucket = h >> wbits
    w = h & ((1 << wbits) - 1)
    rank = (wbits + 1) if w == 0 else wbits - w.bit_length() + 1
    return bucket, rank


#: Worker-process-global member → (bucket, rank) cache: members (users)
#: repeat heavily across batches, and Ray reuses task workers, so most
#: md5 computations are amortized away. Bounded to keep worker heaps flat.
_MEMBER_CACHE: dict[tuple[int, str], tuple[int, int]] = {}
_MEMBER_CACHE_MAX = 2_000_000


def _partial_registers(batch: pa.Table, group_col: str, member_col: str,
                       p: int) -> pa.Table:
    """Batch-local register partial: one row per (group, bucket) with the
    batch's max rank — ≤ 2^p rows per group leave the task."""
    cache = _MEMBER_CACHE
    regs: dict[tuple[str, int], int] = {}
    for g, member in zip(batch.column(group_col).to_pylist(),
                         batch.column(member_col).to_pylist()):
        ck = (p, member_str := str(member))
        br = cache.get(ck)
        if br is None:
            br = member_register(member_str, p)
            if len(cache) >= _MEMBER_CACHE_MAX:
                cache.clear()
            cache[ck] = br
        b, r = br
        k = (g, b)
        if r > regs.get(k, 0):
            regs[k] = r
    keys = sorted(regs)
    return pa.Table.from_arrays(
        [pa.array([k[0] for k in keys], pa.string()),
         pa.array([k[1] for k in keys], pa.int64()),
         pa.array([regs[k] for k in keys], pa.int64())],
        names=[group_col, "bucket", "r"],
    )


#: Driver-fold guard: the folded register table holds ≤ 2^p rows per
#: group, so this bounds the GROUP count the fold plan accepts (at p=12
#: and 1M groups that is ~4G rows — far beyond any sensible broadcast);
#: above it the distributed groupby plan runs instead.
FOLD_REGISTER_MAX = 50_000_000


def hll_registers(ds, group_col: str, member_col: str, p: int = DEFAULT_P):
    """events → (group, bucket, r): the merged HLL register table
    (only non-zero registers are materialized).

    The batch partials are already ≤ 2^p rows per group, so the
    max-merge folds on the DRIVER with pyarrow ``group_by`` — no shuffle
    at all (the whole reason to sketch); a register table above
    :data:`FOLD_REGISTER_MAX` (i.e. an enormous group count) falls back
    to the distributed ``groupby((group, bucket)).max`` shuffle. Both
    are merge-order independent by the monoid property (tested
    equal)."""
    import ray.data
    from ray.data.aggregate import Max

    partials = ds.map_batches(_partial_registers, batch_format="pyarrow",
                              fn_kwargs={"group_col": group_col,
                                         "member_col": member_col, "p": p})
    schema = pa.schema([(group_col, pa.string()), ("bucket", pa.int64()),
                        ("r", pa.int64())])
    out, rest = fold_capped(partials, schema, [group_col, "bucket"],
                            [("r", "max")], FOLD_REGISTER_MAX)
    if rest is not None:
        return rest.groupby([group_col, "bucket"]).aggregate(Max("r", alias_name="r"))
    return ray.data.from_arrow(out)


def hll_sketch_summary(ds, group_col: str, member_col: str, p: int = DEFAULT_P):
    """events → one row per group: (group, n_buckets, rank_sum,
    regs_md5) — the exact-compare surface of the sketch. ``regs_md5``
    digests the sorted ``bucket:rank`` register list, so two engines
    agree iff their sketches are bit-identical."""
    import pandas as pd

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket")
        blob = ",".join(f"{int(b)}:{int(r)}"
                        for b, r in zip(df["bucket"], df["r"]))
        return pd.DataFrame({
            group_col: [df[group_col].iloc[0]],
            "n_buckets": pd.array([len(df)], dtype="int64"),
            "rank_sum": pd.array([int(df["r"].sum())], dtype="int64"),
            "regs_md5": [hashlib.md5(blob.encode()).hexdigest()],
        })

    return (hll_registers(ds, group_col, member_col, p)
            .groupby(group_col).map_groups(finish, batch_format="pandas"))


def hll_estimate(registers: "pa.Table", p: int = DEFAULT_P) -> float:
    """Bias-corrected HLL estimate from a (bucket, r) register table of
    ONE group (missing buckets are zero). Flajolet et al. 2007 with the
    standard small-range linear-counting correction."""
    import math

    m = 1 << p
    ranks = dict(zip(registers.column("bucket").to_pylist(),
                     registers.column("r").to_pylist()))
    alpha = 0.7213 / (1 + 1.079 / m)
    s = sum(2.0 ** -ranks.get(j, 0) for j in range(m))
    est = alpha * m * m / s
    zeros = m - len(ranks)
    if est <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return est
