"""Z-order layout keys (functions/zorder.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from horizon_ocr_python_ray.functions.zorder import (
    morton32,
    morton_sql_expr,
    spread16,
    zorder_batch,
)


def _naive_morton(h: int, t: int) -> int:
    z = 0
    for i in range(16):
        z |= ((t >> i) & 1) << (2 * i)
        z |= ((h >> i) & 1) << (2 * i + 1)
    return z


def test_morton_matches_naive():
    rng = np.random.default_rng(3)
    h = rng.integers(0, 1 << 16, 200).astype(np.uint64)
    t = rng.integers(0, 1 << 16, 200).astype(np.uint64)
    z = morton32(h, t)
    for hi, ti, zi in zip(h, t, z):
        assert zi == _naive_morton(int(hi), int(ti))


def test_morton_locality_property():
    # Adjacent cells in either dimension differ only in low z-bits:
    # the curve preserves 2-d locality in key ranges.
    assert morton32(np.array([0], np.uint64), np.array([0], np.uint64))[0] == 0
    assert morton32(np.array([0], np.uint64), np.array([1], np.uint64))[0] == 1
    assert morton32(np.array([1], np.uint64), np.array([0], np.uint64))[0] == 2
    assert morton32(np.array([0xFFFF], np.uint64),
                    np.array([0xFFFF], np.uint64))[0] == 0xFFFFFFFF


def test_spread16_bits():
    x = np.array([0b1011], np.uint64)
    assert spread16(x)[0] == 0b1000101  # bits land on even positions


def test_sql_expr_matches_kernel():
    import duckdb

    rng = np.random.default_rng(9)
    hs = rng.integers(0, 1 << 16, 50).tolist()
    ts = rng.integers(0, 1 << 16, 50).tolist()
    rows = duckdb.sql(
        f"SELECT {morton_sql_expr('h', 't')} FROM (SELECT unnest({hs}) AS h,"
        f" unnest({ts}) AS t)").fetchall()
    z = morton32(np.array(hs, np.uint64), np.array(ts, np.uint64))
    assert [v for (v,) in rows] == z.tolist()


def test_zorder_batch_shape():
    ts = pa.array([0, 3_600_000_000, 7_200_000_000], pa.timestamp("us"))
    t = pa.table({
        "url": pa.array(["https://a.example.org/1", "https://a.example.org/2",
                         "https://b.example.org/3"], pa.string()),
        "warc_ts": ts,
    })
    out = zorder_batch(t)
    assert out.column_names == ["url", "host", "zkey", "zbucket"]
    zk = out.column("zkey").to_pylist()
    zb = out.column("zbucket").to_pylist()
    assert all(0 <= z < (1 << 32) for z in zk)
    assert zb == [z >> 24 for z in zk]
    # same host, hour 0 vs hour 1: keys differ in the t dimension only
    assert zk[0] != zk[1]


def test_zorder_clustered_write_prunes():
    """Composition: z-keys + a sort split into 8 key ranges give a layout
    where a (host, hour) point lookup touches a bounded file subset using
    only each range's [key_min, key_max] — the pruning property that
    justifies the operator at 100 TB."""
    hosts = [f"h{i:02d}.example.org" for i in range(16)]
    rows = {
        "url": pa.array([f"https://{hosts[i % 16]}/p/{i}" for i in range(2000)],
                        pa.string()),
        "warc_ts": pa.array([(i % 64) * 3_600_000_000 for i in range(2000)],
                            pa.timestamp("us")),
    }
    zk = np.asarray(zorder_batch(pa.table(rows)).column("zkey").to_pylist())
    ranges = [(int(r[0]), int(r[-1])) for r in np.array_split(np.sort(zk), 8)]

    # Disjoint, ordered ranges over the z-key.
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi <= lo

    # Point lookup: every (host-hash, hour) cell maps to ONE z-key, so
    # the ranges prune to at most 2 candidate files (1 + a possible
    # boundary overlap when a cut lands on the key).
    for key in set(zk.tolist()):
        candidates = [i for i, (lo, hi) in enumerate(ranges) if lo <= key <= hi]
        assert 1 <= len(candidates) <= 2
