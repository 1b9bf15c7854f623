"""Partition-level checkpointing, lineage records, and resumable runs.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics". The reference's proxy for this is its
content-addressed response cache (re-runs are cheap because cache hits
skip recompute, ``/root/reference/docvision/azure/response_cache.py``);
the distributed restatement is a **write-then-commit partition manifest**
(SURVEY.md §4 "Checkpoint / resume"):

- The corpus is split into P fragments by a stable key hash (url).
- Each fragment runs as its own bounded Dataset job and writes its output
  parquet into ``out_dir/part=<pid>/`` ATOMICALLY (write to a temp dir,
  rename) — idempotent, partition-named output.
- After a successful write, a lineage record ``(partition_id, rows,
  checksum, wall_s)`` is appended to ``manifest.jsonl`` (commit AFTER
  write — a crash between write and commit re-runs the partition, which
  the atomic rename makes safe → exactly-once output).
- Resume = read the manifest, anti-filter finished partitions, run the
  rest. Fragments are large at scale (e.g. 256 over a corpus) so each
  still streams internally with backpressure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.fasthash import md5_number_lower


def partition_of(url: str, num_partitions: int) -> int:
    """Stable fragment id from the url: md5 low-64 (little-endian) mod P
    — the engine-wide ``md5_number_lower`` convention, so an external
    auditor (the DuckDB oracle included) recomputes the fragment map
    bit-identically: ``md5_number_lower(url) % P``."""
    return md5_number_lower(url) % num_partitions


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.jsonl")


def read_manifest(out_dir: str) -> dict[int, dict]:
    """partition_id → lineage record (last write wins)."""
    path = _manifest_path(out_dir)
    done: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    done[rec["partition_id"]] = rec
    return done


def _append_manifest(out_dir: str, rec: dict) -> None:
    with open(_manifest_path(out_dir), "a") as f:
        f.write(json.dumps(rec, sort_keys=True) + "\n")
        f.flush()
        os.fsync(f.fileno())


def _rows_checksum(result_table: pa.Table, key_col: str = "url") -> str:
    """Order-insensitive checksum of the partition output (XOR of per-row
    key+payload md5s, 128-bit as upper‖lower 64) — cheap lineage
    fingerprint, replayable by any engine as
    ``hex(bit_xor(md5_number_upper(url || chr(31) || text))) ||
    hex(bit_xor(md5_number_lower(...)))`` (the DuckDB spelling the
    manifest oracle uses)."""
    acc = 0
    text_col = (
        result_table.column("extracted_text").to_pylist()
        if "extracted_text" in result_table.column_names
        else [""] * result_table.num_rows
    )
    for key, text in zip(result_table.column(key_col).to_pylist(), text_col):
        d = hashlib.md5(f"{key}\x1f{text}".encode("utf-8")).digest()
        acc ^= (int.from_bytes(d[:8], "little") << 64) | int.from_bytes(
            d[8:], "little")
    return f"{acc:032x}"


def _dataset_rows_checksum(ds) -> tuple[int, str]:
    """Distributed (rows, checksum) over a Dataset: per-batch partial XOR
    + count inside ``map_batches`` (the XOR fingerprint commutes, so
    block order is irrelevant), then a tiny driver fold of the one-row
    partials. The fragment's data never lands on the driver."""

    def partial(t: pa.Table) -> pa.Table:
        acc = int(_rows_checksum(t), 16)
        return pa.Table.from_arrays(
            [pa.array([t.num_rows], pa.int64()),
             pa.array([acc >> 64], pa.uint64()),
             pa.array([acc & ((1 << 64) - 1)], pa.uint64())],
            names=["n", "hi", "lo"],
        )

    rows, acc = 0, 0
    for rec in ds.map_batches(partial, batch_format="pyarrow").take_all():  # bounded: one row per batch
        rows += rec["n"]
        acc ^= (int(rec["hi"]) << 64) | int(rec["lo"])
    return rows, f"{acc:032x}"


def _run_one_partition(pipeline_for_partition, out_dir: str, pid: int) -> dict:
    """Execute one fragment: run its pipeline, publish atomically, return
    the lineage record (NOT yet committed to the manifest).

    Dataset results are written with ``Dataset.write_parquet`` — a
    distributed multi-file write straight from the workers into the
    fragment's temp dir (fragment output never transits driver memory) —
    then the rows/checksum lineage is computed by a distributed pass over
    the WRITTEN files (which doubles as a durability read-back check)
    before the atomic rename publishes the directory.
    """
    t0 = time.monotonic()
    result = pipeline_for_partition(pid)
    part_dir = os.path.join(out_dir, f"part={pid}")
    tmp_dir = part_dir + ".tmp"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    n_rows = 0
    checksum = "0" * 32
    if hasattr(result, "write_parquet"):  # ray.data.Dataset
        import ray.data

        _stub_fsspec_http()
        result.write_parquet(tmp_dir)
        if any(f.endswith(".parquet") for f in os.listdir(tmp_dir)):
            n_rows, checksum = _dataset_rows_checksum(ray.data.read_parquet(tmp_dir))
    else:  # small driver-built pa.Table results
        import pyarrow.parquet as pq

        if result is not None and result.num_rows:
            pq.write_table(result, os.path.join(tmp_dir, "data.parquet"))
            n_rows = result.num_rows
            checksum = _rows_checksum(result)
    if n_rows == 0:
        with open(os.path.join(tmp_dir, "_EMPTY"), "w") as f:
            f.write("")
    if os.path.exists(part_dir):
        shutil.rmtree(part_dir)
    os.replace(tmp_dir, part_dir)  # atomic publish; caller commits after
    return {
        "partition_id": pid,
        "rows": n_rows,
        "checksum": checksum,
        "wall_s": round(time.monotonic() - t0, 3),
    }


def run_partitioned(
    pipeline_for_partition: Callable[[int], "pa.Table | object"],
    out_dir: str,
    num_partitions: int,
    max_partitions: int | None = None,
    max_concurrent: int = 1,
) -> list[int]:
    """Run each unfinished partition's pipeline and commit it.

    ``pipeline_for_partition(pid)`` returns a ``ray.data.Dataset`` (or
    ``pa.Table``) holding ONLY that fragment's output rows. Returns the
    partition ids committed in this invocation. ``max_partitions`` limits
    how many fragments run (used by the kill/resume test).

    ``max_concurrent > 1`` overlaps fragments (each fragment is its own
    Dataset job; per-job ramp/tail would otherwise serialize between
    fragments). Safe because each fragment publishes to its own
    directory and the manifest append is lock-guarded; write-then-commit
    ordering per fragment is preserved.
    """
    os.makedirs(out_dir, exist_ok=True)
    done = read_manifest(out_dir)
    todo = [pid for pid in range(num_partitions) if pid not in done]
    if max_partitions is not None:
        todo = todo[:max_partitions]

    committed: list[int] = []
    if max_concurrent <= 1:
        for pid in todo:
            rec = _run_one_partition(pipeline_for_partition, out_dir, pid)
            _append_manifest(out_dir, rec)
            committed.append(pid)
        return committed

    import threading
    from concurrent.futures import ThreadPoolExecutor, as_completed

    _stub_fsspec_http()
    manifest_lock = threading.Lock()
    with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
        futures = {
            pool.submit(_run_one_partition, pipeline_for_partition, out_dir, pid): pid
            for pid in todo
        }
        for fut in as_completed(futures):
            rec = fut.result()
            with manifest_lock:
                _append_manifest(out_dir, rec)
            committed.append(rec["partition_id"])
    return sorted(committed)


def read_all_output(out_dir: str) -> pa.Table:
    """Concatenate every committed partition's parquet files (each
    fragment dir holds one-or-many files — Ray's distributed write emits
    one per block)."""
    import pyarrow.parquet as pq

    tables = []
    for name in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, name)
        if not (name.startswith("part=") and os.path.isdir(d)):
            continue
        for fname in sorted(os.listdir(d)):
            if fname.endswith(".parquet"):
                tables.append(pq.read_table(os.path.join(d, fname)))
    if not tables:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    return pa.concat_tables(tables)


def filter_to_partition(batch: pa.Table, pid: int, num_partitions: int) -> pa.Table:
    """Predicate used by fragment pipelines: keep rows of one fragment."""
    pids = pa.array(
        [partition_of(u, num_partitions) for u in batch.column("url").to_pylist()],
        pa.int32(),
    )
    return batch.filter(pc.equal(pids, pa.scalar(pid, pa.int32())))


def _stub_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` importable when aiohttp is
    absent. Ray's ``path_util._is_http_filesystem`` retries this import on
    EVERY read (failed imports aren't cached by Python) and catches only
    ``ModuleNotFoundError`` — under concurrent Dataset executions two
    threads can race the partial import and see a bare ``ImportError``
    that Ray doesn't catch. Registering a stub module with a sentinel
    ``HTTPFileSystem`` class makes the import succeed, race-free;
    ``isinstance`` checks against the sentinel are always False, which is
    the correct answer in an aiohttp-less sandbox."""
    import sys
    import types

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return
    except ImportError:
        pass
    mod = sys.modules.get("fsspec.implementations.http")
    if mod is None:
        mod = types.ModuleType("fsspec.implementations.http")
        sys.modules["fsspec.implementations.http"] = mod
    if not hasattr(mod, "HTTPFileSystem"):
        class _NoHTTPFileSystem:  # sentinel — never instantiated
            pass

        mod.HTTPFileSystem = _NoHTTPFileSystem
