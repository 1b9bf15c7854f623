"""Z-order (Morton) layout keys — multi-dimensional data clustering.

The lakehouse layout optimization (Delta/Iceberg ``OPTIMIZE ZORDER BY``,
and the classic Morton 1966 curve): interleaving the bits of two sort
dimensions yields ONE key whose ranges are simultaneously selective in
BOTH dimensions, so range-partitioned Parquet written in z-key order
lets a reader prune by host AND by crawl time from the same layout —
the 100-TB answer to "we can only sort by one thing".

Dimensions here: ``h16`` = md5-low64 of the page host masked to 16
bits (hash, not lexicographic, so hot TLD prefixes spread), and
``t16`` = the crawl hour index mod 2^16 (epoch_us // 3.6e9 — no
corpus-global min/max pass needed, deterministic at any scale). The
32-bit z-key interleaves them (t even bits, h odd); ``zbucket`` =
top 8 bits = the 256-way write-partition key.

Fully vectorized: hosts are hashed once per DISTINCT host per batch
(np.unique + md5 on the unique set), the bit spread is the standard
numpy magic-mask sequence, and the time dimension is integer kernel
arithmetic. The DuckDB oracle replays the interleave as a generated
16-term bit expression (single source of truth: ``morton_sql_expr``).

Scale shape: stateless ``map_batches`` projection, zero shuffles; a
clustered write sorts by this key and splits the sorted rows into key
ranges exactly like any other sort key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.skew import host_of_array
from .fasthash import md5_number_lower

HOUR_US = 3_600_000_000
MASK16 = 0xFFFF


def spread16(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of ``x`` to the even bit positions of a
    32-bit lane (classic Morton magic masks)."""
    x = x.astype(np.uint32) & np.uint32(MASK16)
    x = (x | (x << np.uint32(8))) & np.uint32(0x00FF00FF)
    x = (x | (x << np.uint32(4))) & np.uint32(0x0F0F0F0F)
    x = (x | (x << np.uint32(2))) & np.uint32(0x33333333)
    x = (x | (x << np.uint32(1))) & np.uint32(0x55555555)
    return x


def morton32(h16: np.ndarray, t16: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit dimensions: t on even bits, h on odd."""
    return (spread16(t16) | (spread16(h16) << np.uint32(1))).astype(np.int64)


def morton_sql_expr(h: str, t: str) -> str:
    """DuckDB expression computing ``morton32(h, t)`` from two integer
    expressions — generated term list, same bit layout as the kernel."""
    terms = []
    for i in range(16):
        terms.append(f"((({t}) >> {i}) & 1) * {1 << (2 * i)}")
        terms.append(f"((({h}) >> {i}) & 1) * {1 << (2 * i + 1)}")
    return "(" + " + ".join(terms) + ")"


def zorder_batch(batch: pa.Table, url_col: str = "url",
                 ts_col: str = "warc_ts") -> pa.Table:
    """(url, warc_ts) → (url, host, zkey, zbucket)."""
    host = host_of_array(batch.column(url_col))
    hs = host.to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(hs, return_inverse=True)
    h16 = (np.array([md5_number_lower(s) for s in uniq], dtype=np.uint64)
           & np.uint64(MASK16))[inv]

    ts_us = batch.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
    t16 = ((ts_us // HOUR_US) % (MASK16 + 1)).astype(np.uint64)

    zkey = morton32(h16, t16)
    return pa.table({
        "url": batch.column(url_col),
        "host": host,
        "zkey": pa.array(zkey, pa.int64()),
        "zbucket": pa.array(zkey >> 24, pa.int64()),
    })
