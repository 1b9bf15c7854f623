"""Deterministic corpus sampling primitives for training-data curation.

Three operators a 100-TB pipeline needs constantly:

- ``hash_split``: stable train/eval assignment by content-independent
  key hash (md5 low-64 of the stringified key, mod buckets) — the split
  never moves when the corpus is re-sharded, re-read or appended, and
  any engine (the DuckDB oracle included) recomputes it bit-identically.
  Embarrassingly parallel: a ``map_batches`` projection, zero shuffles.

- ``host_quota``: cap pages per host at ``n`` keeping the earliest
  crawls (politeness / anti-bias sampling — a handful of giant hosts
  must not dominate a training corpus). One hash shuffle on ``host``;
  the per-group sort is bounded by the host's page count, and the
  groupby key is the same host key the skew stage salts, so a hot host
  is a known, bounded cost (quota output per group is ≤ n rows).

- ``stratified_sample``: exactly ``k`` rows per stratum (e.g. per
  language), selected by smallest key hash — the deterministic
  equal-allocation subsample behind balanced training mixes. Same
  min-k-is-distributive combiner as ``host_quota``: each batch forwards
  at most ``k`` rows per stratum to the (tiny — one group per stratum)
  shuffle, so the exchange carries ≤ k × #batches × #strata rows no
  matter how big the corpus is.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.fasthash import md5_number_lower
from .skew import host_of

EVAL_PERMILLE_DEFAULT = 10  # 1% eval split


def hash_split_batch(batch: pa.Table, key: str,
                     eval_permille: int = EVAL_PERMILLE_DEFAULT) -> pa.Table:
    keys = batch.column(key).to_pylist()
    buckets = [md5_number_lower(str(k)) % 1000 for k in keys]
    split = ["eval" if b < eval_permille else "train" for b in buckets]
    return (batch
            .append_column("split_bucket", pa.array(buckets, pa.int64()))
            .append_column("split", pa.array(split, pa.string())))


def hash_split(ds, key: str = "doc_id",
               eval_permille: int = EVAL_PERMILLE_DEFAULT):
    """Append (split_bucket, split) columns — stable under re-sharding."""
    return ds.map_batches(
        lambda t: hash_split_batch(t, key, eval_permille), batch_format="pyarrow"
    )


def host_quota(pages_ds, n: int = 3):
    """pages (url, warc_ts) → at most ``n`` earliest-crawled pages per
    host, with their quota rank. Deterministic tie-break (warc_ts, url).

    Skew-safe: a batch-local COMBINER keeps ≤ ``n`` rows per host per
    batch before the shuffle (min-n is distributive: the global earliest
    n lie within the union of per-batch earliest n), so a Zipf-hot host
    contributes ≤ n rows per upstream batch to its reducer instead of
    its entire page set — the same combiner-before-shuffle rule the
    aggregation stages follow."""

    def add_host(t: pa.Table) -> pa.Table:
        return t.append_column(
            "host", pa.array([host_of(u) for u in t.column("url").to_pylist()],
                             pa.string()))

    def _first_n(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[("warc_ts", "ascending"),
                                                  ("url", "ascending")])
        return group.take(order[:n])

    def local_prune(t: pa.Table) -> pa.Table:
        if t.num_rows <= n:
            return t
        # group batch-locally by host via sort + run boundaries
        order = pc.sort_indices(t, sort_keys=[("host", "ascending"),
                                              ("warc_ts", "ascending"),
                                              ("url", "ascending")])
        st = t.take(order)
        hosts = st.column("host").to_pylist()
        keep = []
        run_start = 0
        for i in range(1, len(hosts) + 1):
            if i == len(hosts) or hosts[i] != hosts[run_start]:
                keep.extend(range(run_start, min(run_start + n, i)))
                run_start = i
        return st.take(pa.array(keep, pa.int64()))

    def keep_first_n(group: pa.Table) -> pa.Table:
        kept = _first_n(group)
        return kept.append_column(
            "quota_rank", pa.array(range(1, kept.num_rows + 1), pa.int64()))

    keyed = pages_ds.map_batches(add_host, batch_format="pyarrow")
    keyed = keyed.select_columns(["host", "url", "warc_ts"])
    pruned = keyed.map_batches(local_prune, batch_format="pyarrow")
    return pruned.groupby("host").map_groups(keep_first_n, batch_format="pyarrow")


def stratified_sample(ds, stratum: str = "lang", key: str = "doc_id",
                      k: int | dict = 50, quota_col: bool = False,
                      carry: tuple = ()):
    """The per-stratum quota rows of each stratum, chosen by smallest
    ``md5_number_lower(key)`` with a total ``(hash, key)`` tie-break — a
    re-shard-stable subsample (``sample_rank`` 1..quota per stratum).
    ``k`` is a flat int (equal allocation) or a per-stratum dict
    (strata absent from the dict get 0 rows — the temperature-mixing
    caller). Output columns: (stratum, key, *carry, sample_hash,
    sample_rank [, quota] when ``quota_col``).

    ``carry`` names payload columns the selected rows keep, so a
    pipeline consumes the sample directly instead of re-joining the
    id list against the corpus. The batch-local combiner prunes to the
    quota BEFORE the exchange, so the carried payload volume through
    the shuffle is quota-bounded, not corpus-bounded.

    Scale shape: batch-local keep-quota-smallest combiner per stratum
    (min-k is distributive, as in :func:`host_quota`), then one tiny
    shuffle with one group per stratum. Strata counts are assumed
    small (languages, routes, source shards); a high-cardinality
    stratum key would need the quota operator's host-style treatment
    instead."""
    fixed_k = k if isinstance(k, int) else None
    quota_of = ((lambda s: fixed_k) if fixed_k is not None
                else (lambda s: k.get(s, 0)))

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [md5_number_lower(str(v)) for v in t.column(key).to_pylist()]
        return (t.select([stratum, key, *carry])
                 .append_column("sample_hash", pa.array(hashes, pa.uint64())))

    def local_prune(t: pa.Table) -> pa.Table:
        if fixed_k is not None and t.num_rows <= fixed_k:
            return t
        order = pc.sort_indices(t, sort_keys=[(stratum, "ascending"),
                                              ("sample_hash", "ascending"),
                                              (key, "ascending")])
        st = t.take(order)
        strata = st.column(stratum).to_pylist()
        keep: list[int] = []
        run_start = 0
        for i in range(1, len(strata) + 1):
            if i == len(strata) or strata[i] != strata[run_start]:
                q = quota_of(strata[run_start])
                keep.extend(range(run_start, min(run_start + q, i)))
                run_start = i
        return st.take(pa.array(keep, pa.int64()))

    def take_k(group: pa.Table) -> pa.Table:
        q = (quota_of(group.column(stratum)[0].as_py())
             if group.num_rows else 0)
        order = pc.sort_indices(group, sort_keys=[("sample_hash", "ascending"),
                                                  (key, "ascending")])
        kept = group.take(order[:q])
        kept = kept.append_column(
            "sample_rank", pa.array(range(1, kept.num_rows + 1), pa.int64()))
        if quota_col:
            kept = kept.append_column(
                "quota", pa.array([q] * kept.num_rows, pa.int64()))
        return kept

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    pruned = hashed.map_batches(local_prune, batch_format="pyarrow")
    return pruned.groupby(stratum).map_groups(take_k, batch_format="pyarrow")


def _stratum_counts(ds, stratum: str) -> dict:
    """Per-stratum row counts via the tiny fold (combiner → one narrow
    groupby, stratum-cardinality rows) — shared by the mix samplers."""
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(t.select([stratum]), stratum).aggregate(
            [([], "count_all")])
        return agg.rename_columns([stratum, "p_n"])

    counts = (ds.map_batches(count_partial, batch_format="pyarrow")
              .groupby(stratum).aggregate(Sum("p_n", alias_name="n")))
    return {r[stratum]: int(r["n"])
            for r in counts.take_all()}  # bounded: one row per stratum


def mix_rebalance(ds, stratum: str = "lang", key: str = "doc_id"):
    """Equal-share class rebalancing: downsample every stratum to the
    MINORITY stratum's count, members chosen by the re-shard-stable
    ``(md5_number_lower(key), key)`` hash order — the deterministic form of
    "balance the language mix before training".

    The quota comes from :func:`_stratum_counts`; the selection then
    reuses :func:`stratified_sample`'s min-k machinery with
    ``k = quota``. Output: (stratum, key, sample_hash, sample_rank),
    exactly ``quota`` rows per stratum."""
    quota = min(_stratum_counts(ds, stratum).values())
    return stratified_sample(ds, stratum=stratum, key=key, k=quota)


def mix_temperature(ds, stratum: str = "lang", key: str = "doc_id",
                    budget_permille: int = 200, carry: tuple = ()):
    """Temperature-weighted mixture sampling — the GPT-3/LLaMA data-mix
    recipe (sample source i with probability ∝ nᵢ^α, α = 1/2 pinned)
    made deterministic and integer-exact:

    1. per-stratum counts from the tiny fold (combiner → one narrow
       groupby, stratum-cardinality rows);
    2. weights ``w6ᵢ = round(sqrt(nᵢ)·1e6)`` — ONE IEEE sqrt per
       stratum (correctly rounded on both engines), everything after
       is integer: budget ``B = Σn · budget_permille // 1000``, base
       quota ``B·w6ᵢ // Σw6``, leftover ``B − Σbase`` distributed by
       LARGEST REMAINDER (``B·w6ᵢ mod Σw6`` desc, stratum asc
       tie-break), capped at ``nᵢ`` (no redistribution past the cap —
       pinned);
    3. members: each stratum's ``quotaᵢ`` smallest ``(md5_number_lower(key),
       key)`` — the re-shard-stable hash order every sampler here uses.

    Sqrt flattens the mix: a 3× larger source gets only √3× the docs.
    Scale shape = :func:`stratified_sample` with per-stratum k: batch-
    local min-quota combiner, then one tiny shuffle with one group per
    stratum. Output: (stratum, key, *carry, sample_rank, quota) —
    ``carry`` columns ride the quota-bounded selection (see
    :func:`stratified_sample`), so the output IS the training-mix
    export, not just an id list."""
    import math

    import ray

    ns = _stratum_counts(ds, stratum)
    if not ns:
        return ray.data.from_arrow(pa.table({
            stratum: pa.array([], pa.string()),
            key: pa.array([], pa.int64()),
            "sample_rank": pa.array([], pa.int64()),
            "quota": pa.array([], pa.int64())}))  # carry moot: no rows
    # integer largest-remainder allocation over e6-scaled sqrt weights
    w6 = {s: int(math.floor(math.sqrt(n) * 1_000_000 + 0.5))
          for s, n in ns.items()}
    tw = sum(w6.values())
    budget = sum(ns.values()) * budget_permille // 1000
    base = {s: budget * w6[s] // tw for s in ns}
    rem = {s: (budget * w6[s]) % tw for s in ns}
    leftover = budget - sum(base.values())
    bonus_order = sorted(ns, key=lambda s: (-rem[s], s))
    quota = {s: min(base[s] + (1 if i < leftover else 0), ns[s])
             for i, s in enumerate(bonus_order)}
    picked = stratified_sample(ds, stratum=stratum, key=key, k=quota,
                               quota_col=True, carry=carry)
    return picked.map_batches(
        lambda t: t.select([stratum, key, *carry, "sample_rank", "quota"]),
        batch_format="pyarrow")


def safe_split(ds, text_col: str = "text", key: str = "doc_id",
               eval_permille: int = EVAL_PERMILLE_DEFAULT):
    """Leakage-safe train/eval split: byte-identical documents (same
    ``md5(text)``) ALWAYS land in the same split — the split key is the
    content group's representative (min ``key``), not the row. A plain
    per-row hash split leaks exact duplicates across the boundary;
    grouping first is the standard eval-hygiene fix.

    One content-hash bucket shuffle (``hashagg.grouped_reduce``); in a
    bucket the representative is a vectorized groupby-min and every
    member inherits ``split(md5_number_lower(str(rep)) % 1000)``. Output:
    (key, content_md5, group_rep, split)."""
    import hashlib as _hl

    import pandas as pd

    from .hashagg import grouped_reduce

    def add_md5(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        hs = [_hl.md5((x or "").encode("utf-8")).hexdigest() for x in texts]
        return pa.table({key: t.column(key).cast(pa.int64()),
                         "content_md5": pa.array(hs, pa.string())})

    def bucket_split(g: pd.DataFrame) -> pd.DataFrame:
        rep = g.groupby("content_md5")[key].transform("min")
        split = [
            "eval" if md5_number_lower(str(r)) % 1000 < eval_permille else "train"
            for r in rep
        ]
        return pd.DataFrame({key: g[key].to_numpy(),
                             "content_md5": g["content_md5"].to_numpy(),
                             "group_rep": rep.to_numpy(),
                             "split": split})

    hashed = ds.map_batches(add_md5, batch_format="pyarrow")
    return grouped_reduce(hashed, "content_md5", bucket_split,
                          batch_format="pandas")


SHUFFLE_SALT = ":shuf"  # appended to the key before hashing (oracle-mirrored)


def shuffle_shards(ds, key: str = "doc_id", nshards: int = 16):
    """Deterministic seeded global shuffle + shard assignment — the
    training-export step (every LM run wants the corpus in a fixed
    pseudo-random order, split into N equal-ish shard files).

    Order key = ``md5_number_lower(str(key) + SHUFFLE_SALT)``: content-free,
    re-shard-stable, and uniform, so ordering by it IS a shuffle; the
    salt decouples this permutation from the ``hash_split`` buckets.
    ``shard = order_key % nshards``; within a shard rows get dense
    positions 0..m-1 by ``(order_key, key)`` (total order — md5
    collisions on stringified keys are broken by the key itself).
    Output: (key, shard, pos).

    Scale shape: one hash shuffle on ``shard``; the per-shard sort is
    bounded by corpus/nshards, so ``nshards`` scales with the corpus.
    This operator is the assignment/audit projection."""

    def add_keys(t: pa.Table) -> pa.Table:
        # shuffle keys are per-row unique (doc ids), so no dedup pass —
        # hash the salted strings directly; the md5 itself is the only
        # per-string Python left, the modulo/order math is vectorized
        hs = np.array([md5_number_lower(str(k) + SHUFFLE_SALT)
                       for k in t.column(key).to_pylist()], dtype=np.uint64)
        return pa.table({
            key: t.column(key),
            "shuffle_hash": pa.array(hs, pa.uint64()),
            "shard": pa.array((hs % np.uint64(nshards)).astype(np.int64),
                              pa.int64()),
        })

    def enumerate_shard(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[
            ("shuffle_hash", "ascending"), (key, "ascending")])
        g = group.take(order)
        return pa.table({
            key: g.column(key),
            "shard": g.column("shard"),
            "pos": pa.array(range(g.num_rows), pa.int64()),
        })

    keyed = ds.map_batches(add_keys, batch_format="pyarrow")
    return keyed.groupby("shard").map_groups(
        enumerate_shard, batch_format="pyarrow")
