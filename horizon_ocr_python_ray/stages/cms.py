"""Count-Min sketch: approximate per-key frequency with a fixed-size
mergeable counter matrix (Cormode & Muthukrishnan 2005).

Completes the engine's sketch family (HLL distinct count, Bloom
membership, Misra–Gries heavy hitters): CMS answers "how often did key
x occur" with one-sided error ≤ εN using DEPTH×WIDTH int64 counters —
at 100 TB the alternative is a full ``groupby(key).count()`` shuffle of
every distinct key.

Scale shape (same plan class as ``stages/sketches.py``): each batch
emits a SPARSE partial of its local counter matrix (≤ DEPTH×WIDTH rows
regardless of batch size — the whole point of sketching); elementwise
SUM is a commutative monoid, so partials fold on the driver in any
order with zero shuffles (the dense matrix is 4×1024 int64 = 32 KB).
Probing is a broadcast: estimates for a key set are reads of
``min_r matrix[r][cell(key, r)]``.

Determinism contract: ``cell(key, r) = md5_number_lower(str(key) + ":" + r)
% WIDTH`` — ``md5_number_lower(key || ':' || r) % WIDTH`` in DuckDB —
so the sketch REGISTERS are engine-independent and the oracle replays
the estimates exactly (same construction as the HLL/SimHash oracles).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.fasthash import md5_number_lower
from ..functions.collect import iter_tables

DEPTH = 4
WIDTH = 1024

#: Worker-process-global key → cells cache (keys repeat across batches
#: and Ray reuses worker processes — same pattern as the HLL member
#: cache). Bounded to keep worker heaps flat.
_CELL_CACHE: dict[str, tuple[int, ...]] = {}
_CELL_CACHE_MAX = 2_000_000


def key_cells(key: str) -> tuple[int, ...]:
    """The DEPTH cell indices of one key."""
    cells = _CELL_CACHE.get(key)
    if cells is None:
        cells = tuple(md5_number_lower(f"{key}:{r}") % WIDTH for r in range(DEPTH))
        if len(_CELL_CACHE) >= _CELL_CACHE_MAX:
            _CELL_CACHE.clear()
        _CELL_CACHE[key] = cells
    return cells


def _partial_matrix(batch: pa.Table, key_col: str) -> pa.Table:
    """Batch-local sparse counter partial: (r, cell, v) rows, ≤
    DEPTH×WIDTH of them however large the batch."""
    m = np.zeros((DEPTH, WIDTH), dtype=np.int64)
    for k in batch.column(key_col).to_pylist():
        for r, cell in enumerate(key_cells(str(k))):
            m[r, cell] += 1
    rs, cells = np.nonzero(m)
    return pa.table({"r": pa.array(rs.astype(np.int64), pa.int64()),
                     "cell": pa.array(cells.astype(np.int64), pa.int64()),
                     "v": pa.array(m[rs, cells], pa.int64())})


def cms_matrix(ds, key_col: str) -> np.ndarray:
    """Fold every batch partial into the dense DEPTH×WIDTH matrix on the
    driver — the partials are ≤ 32 KB dense-equivalent each, so the fold
    is trivially driver-safe at ANY corpus size (fixed-size monoid)."""
    import ray

    partials = ds.map_batches(_partial_matrix, batch_format="pyarrow",
                              fn_kwargs={"key_col": key_col})
    m = np.zeros((DEPTH, WIDTH), dtype=np.int64)
    for t in iter_tables(partials):
        np.add.at(m, (t.column("r").to_numpy(), t.column("cell").to_numpy()),
                  t.column("v").to_numpy())
    return m


def _probe_partial(batch: pa.Table, key_col: str, k: int) -> pa.Table:
    # drop_null first: a null key would surface as NaN/None from
    # to_numpy and diverge from the oracle's DISTINCT ... ORDER BY
    # (which never yields NULL among the first k probes)
    col = batch.column(key_col).drop_null()
    u = np.unique(col.to_numpy(zero_copy_only=False))
    return pa.table({key_col: pa.array(np.sort(u)[:k], pa.int64())})


def cms_probe_counts(events_ds, key_col: str = "user_id", k: int = 20):
    """events → (key, est_count) for the ``k`` smallest distinct keys:
    build the sketch in one pass, probe it with a min-k key set folded
    the same zero-shuffle way (min-k is distributive). Returns a pandas
    DataFrame (tiny: k rows)."""
    import pandas as pd
    import ray

    probes_parts = events_ds.map_batches(
        _probe_partial, batch_format="pyarrow",
        fn_kwargs={"key_col": key_col, "k": k})
    seen: set[int] = set()
    for t in iter_tables(probes_parts):
        seen.update(t.column(key_col).to_pylist())
    probes = sorted(seen)[:k]

    m = cms_matrix(events_ds, key_col)
    ests = [int(min(m[r, c] for r, c in enumerate(key_cells(str(p)))))
            for p in probes]
    return pd.DataFrame({key_col: pd.array(probes, dtype="int64"),
                         "est_count": pd.array(ests, dtype="int64")})
