"""Bloom-filter membership: the memory-bounded seen-set primitive — the
scale path for "have we crawled this URL / seen this document before"
when the exact seen-set (``stages/urldedup``, ``stages/dedup``) would
not fit a broadcast.

Monoid shape (same argument as the HLL sketch in ``stages/sketches``):
the filter is a bit-OR of per-batch partials, so it builds with ONE
streaming pass and no shuffle — each batch emits its distinct bit
positions (≤ k × batch rows, deduped), the driver ORs them into an
m-bit array (m = 2^20 is 128 KiB — broadcastable at any corpus size),
and the probe side streams against the broadcast bits. False positives
are inherent and DETERMINISTIC: positions derive from md5 double
hashing (pos_i = (md5_lo + i·md5_hi) mod m — Kirsch–Mitzenmacher), so
the driver oracle reproduces every hit, including the false ones.

Sizing note (documented, not enforced): for n keys and k hashes the FP
rate is ~(1 − e^(−kn/m))^k; at 100 TB pick m per shard or tier filters.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..state.worker import worker_state

DEFAULT_M_BITS = 1 << 18
DEFAULT_K = 4


def bloom_positions(key: str, k: int = DEFAULT_K, m: int = DEFAULT_M_BITS) -> list[int]:
    """k bit positions via md5 double hashing. DuckDB mirror:
    ``(md5_number_lower(key)::HUGEINT + i * md5_number_upper(key)::HUGEINT)
    % m`` for i in 0..k-1."""
    d = hashlib.md5(key.encode("utf-8")).digest()
    lo = int.from_bytes(d[8:], "little")
    hi = int.from_bytes(d[:8], "little")
    return [(lo + i * hi) % m for i in range(k)]


def _partial_positions(batch: pa.Table, key_col: str, k: int, m: int) -> pa.Table:
    pos: set[int] = set()
    for key in batch.column(key_col).to_pylist():
        pos.update(bloom_positions(str(key), k, m))
    return pa.table({"pos": pa.array(sorted(pos), pa.int64())})


def build_bloom_ref(keys_ds, key_col: str = "url", k: int = DEFAULT_K,
                    m: int = DEFAULT_M_BITS):
    """keys → ``ray.put`` handle of the packed m-bit filter (bit-OR fold
    of the batch partials on the driver; the filter is m/8 bytes no
    matter how many keys stream through)."""
    import ray

    bits = np.zeros(m, dtype=bool)
    for t in (keys_ds.map_batches(_partial_positions, batch_format="pyarrow",
                                  fn_kwargs={"key_col": key_col, "k": k, "m": m})
              .iter_batches(batch_format="pyarrow")):
        bits[t.column("pos").to_numpy()] = True
    return ray.put(np.packbits(bits))


def _probe_batch(batch: pa.Table, bloom_ref, key_col: str, k: int, m: int) -> pa.Table:
    import ray

    bits = worker_state("bloom_bits", bloom_ref.hex(),
                        lambda: np.unpackbits(ray.get(bloom_ref)).astype(bool))
    keys = batch.column(key_col).to_pylist()
    hits = [bool(all(bits[p] for p in bloom_positions(str(key), k, m)))
            for key in keys]
    return pa.Table.from_arrays(
        [batch.column(key_col), pa.array(hits, pa.bool_())],
        names=[key_col, "hit"],
    )


def bloom_probe(base_ds, probe_ds, key_col: str = "url", k: int = DEFAULT_K,
                m: int = DEFAULT_M_BITS):
    """(base keys, probe keys) → (key, hit) for every probe row; ``hit``
    is the Bloom answer (no false negatives; false positives at the
    documented rate, deterministic)."""
    ref = build_bloom_ref(base_ds, key_col, k, m)
    return probe_ds.map_batches(
        _probe_batch, batch_format="pyarrow",
        fn_kwargs={"bloom_ref": ref, "key_col": key_col, "k": k, "m": m})
