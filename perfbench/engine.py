"""Timed runs of each workload on the Ray Data engine, and the
operator-level numbers Ray reports for them in ``Dataset.stats()``.

A job is one closed-loop batch job: the driver submits it and waits for
its output before anything else runs.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import time

#: Checkpoint fragments of the ``resume`` workload; the first invocation
#: commits half of them and "dies".
PARTITIONS = 8

#: Longest Ray session directory name plus its plasma socket path; an
#: AF_UNIX socket path must stay under 108 bytes.
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def start_session(cpus: int, temp_dir: str) -> None:
    """Start Ray with ``cpus`` CPUs. Idle workers are kept: by default Ray
    kills workers beyond one per CPU after a second idle, and a later job
    that needs one more spawns and imports a fresh worker mid-run, which
    made such a job up to 40% slower."""
    import ray

    kwargs = {}
    if len(os.path.abspath(temp_dir)) + _SOCKET_SUFFIX < 108:
        kwargs["_temp_dir"] = os.path.abspath(temp_dir)
    ray.init(num_cpus=cpus, object_store_memory=512 * 2**20, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _system_config={"kill_idle_workers_interval_ms": 0}, **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _process_table() -> dict[int, tuple[int, str]]:
    """pid → (parent pid, state) for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def _descendants() -> set[int]:
    table = _process_table()
    found: set[int] = set()
    frontier = {os.getpid()}
    while frontier:
        frontier = {pid for pid, (ppid, _) in table.items() if ppid in frontier} - found
        found |= frontier
    return found


def _wait_gone(pids: set[int], timeout_s: float) -> list[int]:
    """Wait until none of ``pids`` is running; return those still running
    at the deadline. Exited children that are not yet reaped count as
    gone."""
    deadline = time.monotonic() + timeout_s
    while True:
        table = _process_table()
        alive = [pid for pid in pids if pid in table and table[pid][1] != "Z"]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def stop_session(timeout_s: float = 20.0) -> None:
    """Shut Ray down and wait until every process it started has ended.
    Workers outlive the raylet briefly and are reparented when it exits,
    so they are listed before the shutdown; any left at the deadline are
    killed."""
    import ray

    started = _descendants()
    ray.shutdown()
    for pid in _wait_gone(started, timeout_s):
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    _wait_gone(started, 5.0)


def cold_config(job: int):
    """The default config with the memo cap raised by ``job + 1``. The
    cap is never reached, so extraction is unchanged, but a worker
    rebuilds its extractor, and so empties its content-hash memo,
    whenever the config differs from the last one it ran."""
    from dataclasses import replace

    from horizon_ocr_python_ray.config import DEFAULT_CONFIG as cfg

    return replace(cfg, dedup=replace(
        cfg.dedup, actor_cache_entries=cfg.dedup.actor_cache_entries + job + 1))


def _extract_job(corpus: str, out_dir: str, cfg) -> dict:
    from horizon_ocr_python_ray import build_extract_pipeline, read_pages

    ds = build_extract_pipeline(read_pages(corpus), cfg)
    ds.write_parquet(out_dir)
    return {"datasets": [ds]}


def _heads_job(corpus: str, out_dir: str, cfg) -> dict:
    from horizon_ocr_python_ray import ProcessingOptions, process_pages, read_pages

    opts = ProcessingOptions(run_extract=True, run_tables=True, run_styles=True,
                             run_reconstruction=True)
    outs = process_pages(read_pages(corpus), opts, cfg)
    for name, ds in outs.items():
        ds.write_parquet(os.path.join(out_dir, name))
    return {"datasets": list(outs.values())}


def _resume_job(corpus: str, out_dir: str, cfg) -> dict:
    from horizon_ocr_python_ray import build_extract_pipeline, read_pages
    from horizon_ocr_python_ray.state.checkpoint import (
        filter_to_partition,
        read_all_output,
        read_manifest,
        run_partitioned,
    )

    datasets = []
    ran: list[set[int]] = []  # fragments each run_partitioned call ran

    def fragment(pid: int):
        ran[-1].add(pid)
        pages = read_pages(corpus).map_batches(
            lambda t: filter_to_partition(t, pid, PARTITIONS), batch_format="pyarrow")
        ds = build_extract_pipeline(pages, cfg, dedup=False)
        datasets.append(ds)
        return ds

    for limit in (PARTITIONS // 2, None):
        ran.append(set())
        run_partitioned(fragment, out_dir, PARTITIONS, max_partitions=limit)
    return {"datasets": datasets, "output": read_all_output(out_dir),
            "recomputed": len(ran[0] & ran[1]),
            "partition_walls": [r["wall_s"] for r in read_manifest(out_dir).values()]}


def vcpu_times() -> tuple[float, float]:
    """(run, stolen) seconds summed over all vCPUs since boot, from the
    first line of ``/proc/stat``: time its vCPUs ran anything, and time
    they were ready to run but the hypervisor ran another guest. Both
    are 0 where ``/proc/stat`` is missing."""
    try:
        with open("/proc/stat") as f:
            t = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, _idle, _iowait, irq, softirq, steal = t
    return (user + nice + system + irq + softirq) / hz, steal / hz


class Stopwatch:
    """Wall time of a block, and that wall less what the hypervisor stole.

    A shared host takes vCPU time in bursts (0-58% of two busy vCPUs per
    half second, measured on a 4-vCPU VM), and a job that meets one is
    slower for a reason outside the program. ``unstolen_s`` scales the
    wall by the share of the vCPU time the machine wanted that it got,
    ``run / (run + stolen)``: the wall had nothing been stolen, if steal
    hit the job's processes as often as any other. On that VM, jobs whose
    walls were 2.4-3.9 s read 2.3-2.6 s this way."""

    def __enter__(self) -> "Stopwatch":
        self._vcpu = vcpu_times()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        run, stolen = (b - a for a, b in zip(self._vcpu, vcpu_times()))
        self.steal_s = stolen
        self.unstolen_s = self.wall_s * run / (run + stolen) if run + stolen else self.wall_s


def run_job(workload: str, corpus: str, out_dir: str, cfg) -> dict:
    """Run one job with ``cfg`` and time it (``Stopwatch``). ``resume``
    includes its read-back."""
    job = {"doc_heads": _heads_job, "resume": _resume_job}.get(workload, _extract_job)
    shutil.rmtree(out_dir, ignore_errors=True)
    with Stopwatch() as sw:
        res = job(corpus, out_dir, cfg)
    res.update(wall_s=sw.wall_s, unstolen_s=sw.unstolen_s, steal_s=sw.steal_s)
    res["stats"] = [ds.stats() for ds in res.pop("datasets")]
    return res


def _warm_worker(workload: str, corpus: str, out_dir: str, hold_s: float) -> int:
    """Import the package and replay ``workload`` over ``corpus`` in this
    worker, so the layers' one-time costs (imports, compiled patterns,
    lazily built tables) are paid here and not in a timed job."""
    import horizon_ocr_python_ray.api  # noqa: F401
    import horizon_ocr_python_ray.pipelines.extract  # noqa: F401
    import horizon_ocr_python_ray.state.checkpoint  # noqa: F401
    from perfbench import replay

    replay.replay(workload, corpus, os.path.join(out_dir, str(os.getpid())), False, PARTITIONS)
    time.sleep(hold_s)
    return os.getpid()


def warm_up(workload: str, corpus: str, out_dir: str, cpus: int) -> None:
    """Replay the workload in every worker, then run the workload's job
    on the same small corpus through Ray. A Ray Data map task takes about
    1024 rows, so a small warm-up job alone would reach only one worker,
    and a worker that has not run the package's code pays its one-time
    costs inside a timed job; the replay tasks are held long enough that
    each lands on its own worker. ``resume`` warms on the plain
    extraction job: a partitioned warm-up would spend eight jobs' fixed
    cost per set-up for no extra code warmed."""
    import ray

    if workload == "resume":
        workload = "crawl_mix"
    task = ray.remote(num_cpus=1)(_warm_worker)
    for _ in range(3):
        pids = ray.get([task.remote(workload, corpus, out_dir, 0.3) for _ in range(cpus)])
        if len(set(pids)) == cpus:
            break
    run_job(workload, corpus, out_dir, cold_config(-1))
    shutil.rmtree(out_dir, ignore_errors=True)


# --------------------------------------------------------------------------
# Dataset.stats() parsing
# --------------------------------------------------------------------------

_UNIT_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_TRIPLE = r"([\d.]+)(us|ms|s) min, ([\d.]+)(us|ms|s) max, ([\d.]+)(us|ms|s) mean, ([\d.]+)(us|ms|s) total"
_WALL_RE = re.compile(r"Remote wall time: " + _TRIPLE)
_UDF_RE = re.compile(r"UDF time: " + _TRIPLE)
_HEAP_RE = re.compile(r"Peak heap memory usage \(MiB\): ([\d.]+) min, ([\d.]+) max")
_TASKS_RE = re.compile(r"(\d+) tasks executed")
_SPILL_RE = re.compile(r"Spilled to disk: ([\d.]+)\s*MB")


def _secs(groups: tuple, k: int) -> float:
    return float(groups[2 * k]) * _UNIT_S[groups[2 * k + 1]]


def parse_operators(stats: str) -> list[dict]:
    """One record per operator block of a ``Dataset.stats()`` text, each
    block parsed as a unit so a block without a wall or UDF line cannot
    shift the numbers onto the next operator."""
    ops = []
    for block in re.split(r"(?=^Operator \d+ )", stats, flags=re.M):
        head = re.match(r"Operator \d+ (.+?): ", block)
        tasks = _TASKS_RE.search(block)
        if not head or not tasks:
            continue
        op = {"name": head.group(1), "tasks": int(tasks.group(1)),
              "wall_s": 0.0, "wall_min_s": 0.0, "wall_max_s": 0.0, "udf_s": 0.0,
              "peak_heap_mb": 0.0}
        if w := _WALL_RE.search(block):
            op["wall_min_s"] = _secs(w.groups(), 0)
            op["wall_max_s"] = _secs(w.groups(), 1)
            op["wall_s"] = _secs(w.groups(), 3)
        if u := _UDF_RE.search(block):
            op["udf_s"] = _secs(u.groups(), 3)
        if h := _HEAP_RE.search(block):
            op["peak_heap_mb"] = float(h.group(2))
        ops.append(op)
    return ops


def spilled_mb(stats: str) -> float:
    return max((float(m) for m in _SPILL_RE.findall(stats)), default=0.0)


def summarize_stats(stats: list[str]) -> dict:
    """Operator-level numbers for one job, summed over its Datasets. Read
    operators are the ``ReadParquet`` blocks; every other operator is a
    map. The fused map with the most UDF time gives the task spread."""
    ops = [op for s in stats for op in parse_operators(s)]
    reads = [op for op in ops if op["name"].startswith("ReadParquet")]
    maps = [op for op in ops if not op["name"].startswith("ReadParquet")]
    wall = sum(op["wall_s"] for op in ops)
    udf = sum(op["udf_s"] for op in ops)
    main = max(maps, key=lambda op: op["udf_s"], default=None)
    return {
        "ray.read.wall_s": sum(op["wall_s"] for op in reads),
        "ray.map.wall_s": sum(op["wall_s"] for op in maps),
        "ray.map.udf_s": sum(op["udf_s"] for op in maps),
        "ray.in_udf_share": udf / wall if wall else 0.0,
        "ray.map.task_spread": (main["wall_max_s"] / main["wall_min_s"]
                                if main and main["wall_min_s"] else 0.0),
        "ray.tasks": sum(op["tasks"] for op in ops),
        "ray.map.peak_heap_mb": max((op["peak_heap_mb"] for op in maps), default=0.0),
        "ray.peak_heap_mb": max((op["peak_heap_mb"] for op in ops), default=0.0),
        "ray.spilled_mb": max((spilled_mb(s) for s in stats), default=0.0),
        "ray.fused_ops": [op["name"] for op in maps],
    }
