"""Vectorized 64-bit hashing of Arrow columns — the exchange-key kernel.

Every coarse exchange in the engine (bucketed hash aggregation, salted
repartition, salted joins) needs ``hash(key) % B`` over a string/binary
column. A per-row Python ``zlib.crc32``/``hashlib.sha1`` loop makes the
KEYING of the shuffle cost more than the shuffle itself on gram-sized
keys (round-2 verdict, hottest exchange = ``repgrams``). This module
hashes the whole column with numpy over the raw Arrow buffers:

- bytes are read once from the value buffer (zero-copy ``frombuffer``),
- each byte is weighted by a position-dependent salt (period-16 table,
  so stride-16 permutations are the only structured collisions — fine
  for BUCKETING, where collisions cost balance, never correctness),
- per-row sums come from one cumulative sum + offset gather (exact
  mod 2^64; numpy unsigned arithmetic wraps),
- length is mixed in and the sum finalized with splitmix64.

The hash is a deterministic pure function of the VALUE bytes (chunk
layout / slicing / offset width do not affect it), so any two rows with
equal keys land in the same bucket on any worker — the only property
the exchanges need. It is NOT a cryptographic or identity hash; content
identity in the engine stays md5, and :func:`md5_number_lower` is the
one md5 key hash every reproducible assignment uses.

Reference parity: none — the reference is single-machine and never
keys an exchange (SURVEY.md §4); this kernel exists purely for the
distributed plans.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_U = np.uint64

#: Period-16 odd multipliers (splitmix64 stream of 0xA5A5A5A5, fixed).
_SALTS = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
     0xD6E8FEB86659FD93, 0xA0761D6478BD642F, 0xE7037ED1A0B428DB,
     0x8EBC6AF09C88C6E3, 0x589965CC75374CC3, 0x1D8E4E27C47D124F,
     0xEB44ACCAB455D165, 0x9D3C4F1C8D3E8F2B, 0xC2B2AE3D27D4EB4F,
     0x165667B19E3779F9, 0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63,
     0xFF51AFD7ED558CCD],
    dtype=np.uint64)

_LEN_MIX = _U(0x9E3779B97F4A7C15)


def md5_number_lower(s: str) -> int:
    """DuckDB ``md5_number_lower(s)``: the last 8 md5 digest bytes of the
    UTF-8 string, little-endian. Splits, shards, sketch cells, SimHash
    tokens and checkpoint fragments all key on it, so any SQL engine
    recomputes them bit-identically."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:], "little")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + _U(0x9E3779B97F4A7C15))
    x = (x ^ (x >> _U(30))) * _U(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U(27))) * _U(0x94D049BB133111EB)
    return x ^ (x >> _U(31))


def _var_buffers(col: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64 [n+1], data uint8) of a string/binary array,
    slice-corrected. Offsets are monotone and gap-free in Arrow's
    variable-length layout, so ``data[offsets[0]:offsets[-1]]`` is the
    exact concatenation of all values."""
    large = pa.types.is_large_string(col.type) or pa.types.is_large_binary(col.type)
    odt = np.int64 if large else np.int32
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], dtype=odt,
                            count=col.offset + len(col) + 1)[col.offset:]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, np.uint8))
    return offsets.astype(np.int64, copy=False), data


def hash64_bytes_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 hash per row of a string/binary column; nulls hash to 0."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, np.uint64)
    if pa.types.is_dictionary(col.type):
        col = col.cast(pa.string())
    offsets, data = _var_buffers(col)
    base = offsets[0]
    rel = offsets - base
    region = data[base:offsets[-1]]
    lengths = rel[1:] - rel[:-1]
    if len(region):
        owner_start = np.repeat(rel[:-1], lengths)
        local = np.arange(len(region), dtype=np.int64) - owner_start
        vals = region.astype(np.uint64) * _SALTS[local & 15]
        csum = np.empty(len(region) + 1, np.uint64)
        csum[0] = _U(0)
        np.cumsum(vals, dtype=np.uint64, out=csum[1:])
        sums = csum[rel[1:]] - csum[rel[:-1]]  # wraps: exact mod 2^64
    else:
        sums = np.zeros(n, np.uint64)
    h = _splitmix64(sums ^ (lengths.astype(np.uint64) * _LEN_MIX))
    if col.null_count:
        h[np.asarray(col.is_null())] = _U(0)
    return h


def hash64_int_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 splitmix hash per row of an integer column; nulls → 0."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    x = (pc.fill_null(pc.cast(col, pa.int64()), 0)
         .to_numpy(zero_copy_only=False).astype(np.uint64))
    h = _splitmix64(x)
    if col.null_count:
        h[np.asarray(col.is_null())] = _U(0)
    return h


def hash64_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 hash per row, dispatching on the column type."""
    t = col.type
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_dictionary(t)):
        return hash64_bytes_column(col)
    return hash64_int_column(col)


def bucket_column(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Deterministic ``hash64 % num_buckets`` as an int64 Arrow array."""
    h = hash64_column(col)
    return pa.array((h % _U(num_buckets)).astype(np.int64), pa.int64())
