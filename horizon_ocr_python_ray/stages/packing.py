"""Sequence packing: assign documents to fixed-token-budget bins
(training context windows) with the greedy NEXT-FIT rule, sharded so
the inherently sequential scan parallelizes.

Why sharded: next-fit packing is a prefix-dependent scan (bin state
carries across documents), which cannot be split mid-stream. Real
packing jobs shard first — documents are hash-partitioned into S
independent streams, each packed sequentially — because bins never
straddle shards anyway (a training shard is the unit a data loader
reads). The scan inside one shard is O(shard) with trivial state.

Scale shape (100 TB): one ``map_batches`` pass computes token counts
(the text itself is dropped before the shuffle — the shuffle carries
(doc_id, shard, n_tokens) only), one ``groupby(shard)`` hash shuffle,
then a vectorized in-group pack. Shard count is the parallelism knob;
skew is impossible by construction (md5 sharding).

Determinism contract: shard = md5-low64(doc_id) mod S (DuckDB
``md5_number_lower``), in-shard order is ascending doc_id, and the
next-fit rule is pinned: a document goes into the current bin iff it
fits the remaining budget; otherwise it OPENS a new bin (a document
larger than the budget occupies a bin alone — packing never splits a
document; chunk oversized docs first with ``stages/chunking``).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from ..functions.fasthash import md5_number_lower
from ..functions.textstats import token_count

DEFAULT_BUDGET = 256
DEFAULT_SHARDS = 8


def _counts_batch(batch: pa.Table, n_shards: int) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()),
         pa.array([md5_number_lower(str(i)) % n_shards for i in ids], pa.int64()),
         pa.array([token_count(t) for t in batch.column("text").to_pylist()],
                  pa.int64())],
        names=["doc_id", "shard", "n_tokens"],
    )


def _pack_shard(df: pd.DataFrame, budget: int) -> pd.DataFrame:
    df = df.sort_values("doc_id").reset_index(drop=True)
    bins, offsets = [], []
    bin_idx, acc = 0, 0
    for n in df["n_tokens"]:
        n = int(n)
        if acc and acc + n > budget:
            bin_idx += 1
            acc = 0
        bins.append(bin_idx)
        offsets.append(acc)
        acc += n
    out = df[["doc_id", "shard", "n_tokens"]].copy()
    out["bin_idx"] = pd.array(bins, dtype="int64")
    out["offset_tokens"] = pd.array(offsets, dtype="int64")
    return out[["doc_id", "shard", "bin_idx", "offset_tokens", "n_tokens"]]


def pack_documents(docs_ds, budget: int = DEFAULT_BUDGET,
                   n_shards: int = DEFAULT_SHARDS):
    """docs (doc_id, text) → one row per doc:
    (doc_id, shard, bin_idx, offset_tokens, n_tokens)."""
    if budget <= 0 or n_shards <= 0:
        raise ValueError("need budget > 0 and n_shards > 0")
    counted = docs_ds.map_batches(_counts_batch, batch_format="pyarrow",
                                  fn_kwargs={"n_shards": n_shards})
    return counted.groupby("shard").map_groups(
        _pack_shard, batch_format="pandas", fn_kwargs={"budget": budget})
