#!/usr/bin/env python3
"""Extraction benchmark: one workload per invocation.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 5 --trace 0

Workloads (inputs from ``corpora.py``, keyed by ``--seed``):

* ``crawl_mix``: the generator's default mix (70% html, 15% doc, 5% image,
  8% text, 2% dup) through ``build_extract_pipeline`` and
  ``write_parquet``. The html tokenizer does most of the work, the
  content-hash memo almost none.
* ``recrawl_dups``: the same mix where 60% of rows re-crawl an earlier
  row's bytes under a new url. Sniff, hash and the memo do most of the
  work.
* ``doc_heads``: only doc and image rows through ``process_pages`` with
  the extract, tables, styles and reconstruction heads, each written.
  Every head decodes and recognizes each payload again.
* ``resume``: ``run_partitioned`` over eight fragments, stopped after
  four, resumed, then read back with ``read_all_output``. The only
  workload where checkpoint commit and per-fragment re-reads work.

Each run generates its corpora first (untimed, in subprocesses). It
then starts ``SESSIONS`` Ray sessions one after the other, each with
``num_cpus`` = ``CPUS``. A session's set-up warms every worker on a
corpus from a different seed, whose content hashes are checked to be
disjoint from the timed corpus. The session then times closed-loop jobs
of ``JOB_ROWS`` rows on the timed corpus until it has spent its share of
``--seconds``, each with a config that makes every worker start from an
empty extraction memo (``engine.cold_config``), and shuts down. Every
job's output is compared per url with golden.

Times are walls less the vCPU time the hypervisor stole meanwhile
(``engine.Stopwatch``); the raw walls are printed beside them.

``--trace 0`` prints the end-to-end metrics:

* ``docs_per_s`` (docs/s): input rows ÷ job time, median over jobs;
* ``setup_s`` (s): ``ray.init`` plus warm-up, median over sessions;
* ``driver_peak_rss_mb`` (MB): ``ru_maxrss`` of this process after the
  jobs, before the golden check;
* ``worker_peak_heap_mb`` (MiB): largest operator "Peak heap memory
  usage" in ``Dataset.stats()``, median over jobs.

Rows that are missing or disagree with golden are ``failed``, out of
``attempted`` input rows; their ratio is the ``failed_ratio`` the run
prints above the JSON line, beside ``spilled_mb``, the most any job
spilled from Ray's object store. Both are 0 on a healthy run, so
neither is a JSON metric.

``--trace 1`` also replays the workload without Ray (``replay.py``),
once with spans only around the replay's own calls and once with spans
around the package functions too, and prints the per-layer metrics
(``PER_LAYER``); the end-to-end numbers are printed too. ``calib.us_per_iter``
times a fixed loop that imports nothing from the package, before each
session, to show the machine's clock speed apart from code changes.

Counts that must repeat exactly for one seed (``EXACT_COUNTS``) are kept
in ``.perfbench_work/counts``, keyed by workload, seed, size and a hash of
the package's and the benchmark's sources; a later run with the same key
that reads a different count fails its ``correct`` flag. A code change
starts a new record, so a change that lowers a count on purpose is not
flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import corpora, engine, golden, replay  # noqa: E402

WORKLOADS = ("crawl_mix", "recrawl_dups", "doc_heads", "resume")

#: Ray sessions per run. Each session times closed-loop jobs until its
#: share of ``--seconds`` is spent, and at least ``MIN_JOBS_PER_SESSION``.
#: Each job runs with its own ``engine.cold_config`` so it starts with an
#: empty memo.
SESSIONS = 2
MIN_JOBS_PER_SESSION = 2

#: Input rows of one timed job, about 1-3 s of work for one CPU. A
#: ``resume`` job runs 17 Ray datasets, so Ray's fixed cost per dataset
#: is most of it.
JOB_ROWS = {"crawl_mix": 3000, "recrawl_dups": 3000, "doc_heads": 300, "resume": 1600}

#: Ray ``num_cpus``, so one worker runs the job. On a VM that shares its
#: vCPUs with other guests, a job spread over every vCPU waits on
#: whichever vCPU the host stalls: four workers on four vCPUs gave job
#: walls 30-50% apart within one run, one worker under 15%.
CPUS = 1

#: Warm-up corpus rows.
WARM_ROWS = {"crawl_mix": 250, "recrawl_dups": 250, "doc_heads": 64, "resume": 250}

#: Spans-off and spans-on replay pairs in a traced run.
REPLAY_PAIRS = 2

#: The replay's extract time may exceed the fused operator's UDF time by
#: this share before the cross-check warns: the two are timed in
#: different processes minutes apart, and run to run they spread about
#: this much on a shared VM. The check is a warning only, since timings
#: from two processes cannot decide whether the output is correct.
UDF_CHECK_SLACK = 0.1

ROUTES = ("html", "doc", "image", "text")

END_TO_END = {"docs_per_s": "docs/s", "setup_s": "s", "driver_peak_rss_mb": "MB",
              "worker_peak_heap_mb": "MiB"}

PER_LAYER = {
    "ray.read.wall_s": "s", "ray.map.wall_s": "s", "ray.map.udf_s": "s",
    "ray.in_udf_share": "ratio", "ray.map.task_spread": "ratio", "ray.tasks": "count",
    "ray.engine_over_replay": "ratio", "ray.map.peak_heap_mb": "MiB",
    "ray.spilled_mb": "MB", "ray.replay_extract_over_udf": "ratio",
    **{f"route.rows.{r}": "count" for r in ROUTES},
    "route.sniff_us_per_row": "us", "route.hash_us_per_row": "us",
    "extract_stage.self_us_per_row": "us", "extract_stage.memo_hits": "count",
    "extract_stage.memo_hit_ratio": "ratio",
    **{f"extract_core.{r}.{k}": u for r in ROUTES
       for k, u in (("rows", "count"), ("us_per_row", "us"))},
    "extract_core.errors.JSONDecodeError": "count", "extract_core.errors.other": "count",
    "htmltext.us_per_row": "us", "htmltext.us_per_kb": "us/KiB",
    "docformat.decode_us_per_doc": "us", "docformat.decode_calls_per_doc": "count",
    "layout.recognize_us_per_page": "us", "layout.recognize_calls_per_page": "count",
    "layout.native_share": "ratio",
    **{f"heads.{h}.us_per_row": "us" for h in replay.HEADS},
    "sink.write_us_per_row": "us", "sink.bytes_out": "bytes",
    "checkpoint.partition_wall_s": "s", "checkpoint.read_amplification": "ratio",
    "checkpoint.partitions_recomputed": "count",
    "calib.us_per_iter": "us", "trace.overhead_ratio": "ratio",
}

EXACT_COUNTS = (*(f"route.rows.{r}" for r in ROUTES), "extract_stage.memo_hits",
                "docformat.decode_calls_per_doc", "layout.recognize_calls_per_page",
                "checkpoint.read_amplification", "checkpoint.partitions_recomputed")


def calibrate(iters: int = 20_000) -> float:
    """µs per iteration of a fixed SHA-256 plus integer loop."""
    data = b"perfbench-calibration-block" * 32
    acc = 0
    t0 = time.perf_counter()
    for i in range(iters):
        acc = (acc * 31 + hashlib.sha256(data).digest()[i & 31] + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) / iters * 1e6


def _gen(jobs: list[tuple[str, int, int, str, int]]) -> None:
    """Build corpora in parallel subprocesses and wait for all of them."""
    procs = [subprocess.Popen(
        [sys.executable, "-m", "perfbench.corpora", "--workload", w, "--rows", str(n),
         "--seed", str(s), "--out", d, "--min-shards", str(shards)], cwd=ROOT)
        for w, n, s, d, shards in jobs]
    codes = [p.wait() for p in procs]
    if any(codes):
        raise RuntimeError(f"corpus generation failed: exit codes {codes}")


def _hashes(corpus: str) -> set[str]:
    import pyarrow.parquet as pq

    return set(pq.read_table(os.path.join(corpus, "golden.parquet"),
                             columns=["content_hash"]).column(0).to_pylist())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _errors_by_class(out) -> Counter:
    errs = Counter(e.split(":", 1)[0] for e in out.column("error").to_pylist() if e)
    known = errs.pop("JSONDecodeError", 0)
    return Counter({"JSONDecodeError": known, "other": sum(errs.values())})


def layer_metrics(corpus: str, runs: list[dict],
                  shallow: dict, deep: dict, calib: list[float]) -> dict:
    from horizon_ocr_python_ray.functions.docformat import probe_page_count

    tr = deep["tracer"]
    t = tr.totals()
    c = tr.counts

    def ns(name: str, key: str = "ns") -> int:
        return t.get(name, {}).get(key, 0)

    def calls(name: str) -> int:
        return t.get(name, {}).get("calls", 0)

    def per(total_ns: float, n: float) -> float:
        return total_ns / 1e3 / n if n else 0.0

    pages = golden.read_dir(os.path.join(corpus, "pages"), columns=["html"])
    n_rows = pages.num_rows
    n_pages = sum(probe_page_count(p) for p in pages.column("html").to_pylist())
    routes = Counter(deep["output"].column("route").to_pylist())
    heavy = routes["doc"] + routes["image"]
    m: dict[str, float] = {f"route.rows.{r}": routes[r] for r in ROUTES}
    m["route.sniff_us_per_row"] = per(ns("route.sniff"), calls("route.sniff"))
    m["route.hash_us_per_row"] = per(ns("route.hash"), calls("route.hash"))

    rows_in = c["extract_rows_in"]
    payload_calls = sum(calls(f"extract_core.{r}") for r in ROUTES)
    m["extract_stage.self_us_per_row"] = per(ns("extract_stage", "self_ns"), rows_in)
    m["extract_stage.memo_hits"] = rows_in - payload_calls
    m["extract_stage.memo_hit_ratio"] = (rows_in - payload_calls) / rows_in if rows_in else 0.0
    for r in ROUTES:
        m[f"extract_core.{r}.rows"] = calls(f"extract_core.{r}")
        m[f"extract_core.{r}.us_per_row"] = per(ns(f"extract_core.{r}"),
                                                calls(f"extract_core.{r}"))
    for cls, n in _errors_by_class(deep["output"]).items():
        m[f"extract_core.errors.{cls}"] = n

    m["htmltext.us_per_row"] = per(ns("htmltext.extract_html"), calls("htmltext.extract_html"))
    m["htmltext.us_per_kb"] = per(ns("htmltext.extract_html"), c["html_bytes"] / 1024)
    m["docformat.decode_us_per_doc"] = per(ns("docformat.decode"), heavy)
    m["docformat.decode_calls_per_doc"] = calls("docformat.decode") / heavy if heavy else 0.0
    m["layout.recognize_us_per_page"] = per(ns("layout.recognize"), calls("layout.recognize"))
    m["layout.recognize_calls_per_page"] = (calls("layout.recognize") / n_pages
                                            if n_pages else 0.0)
    native_docs = {parent for name, _t0, _t1, parent in tr.spans
                   if name == "layout.native_page"}
    m["layout.native_share"] = len(native_docs) / routes["doc"] if routes["doc"] else 0.0
    for h in replay.HEADS:
        m[f"heads.{h}.us_per_row"] = per(ns(f"heads.{h}"), n_rows)
    m["sink.write_us_per_row"] = per(ns("sink.write"), n_rows)
    m["sink.bytes_out"] = deep["bytes_out"]

    walls = [w for r in runs for w in r.get("partition_walls", [])]
    m["checkpoint.partition_wall_s"] = _median(walls)
    m["checkpoint.read_amplification"] = c["rows_read"] / n_rows
    m["checkpoint.partitions_recomputed"] = max(
        [c["partitions_recomputed"], *(r.get("recomputed", 0) for r in runs)])

    stats = [engine.summarize_stats(r["stats"]) for r in runs]
    for k in ("ray.read.wall_s", "ray.map.wall_s", "ray.map.udf_s", "ray.in_udf_share",
              "ray.map.task_spread", "ray.tasks", "ray.map.peak_heap_mb", "ray.spilled_mb"):
        m[k] = _median([s[k] for s in stats])
    # Ray's scheduling plus Arrow marshalling, less what its extra cores gain.
    m["ray.engine_over_replay"] = _median([r["wall_s"] for r in runs]) / shallow["wall_s"]
    st = shallow["tracer"].totals()
    stage_ns = sum(st.get(n, {}).get("ns", 0) for n in
                   ("extract_stage", "heads.tables", "heads.styles", "heads.reconstruction"))
    udf = m["ray.map.udf_s"]
    m["ray.replay_extract_over_udf"] = stage_ns / 1e9 / udf if udf else 0.0
    m["calib.us_per_iter"] = _median(calib)
    m["trace.overhead_ratio"] = deep["wall_s"] / shallow["wall_s"]
    m["_fused_ops"] = stats[0]["ray.fused_ops"] if stats else []
    return m


def _code_hash() -> str:
    """SHA-256 over the package's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for pkg in ("horizon_ocr_python_ray", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(ROOT, pkg)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(root, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _check_counts(ledger_path: str, counts: dict) -> list[str]:
    """Compare exact counts with the ones an earlier run with the same key
    recorded; record them if there are none yet."""
    if not os.path.exists(ledger_path):
        os.makedirs(os.path.dirname(ledger_path), exist_ok=True)
        with open(ledger_path, "w") as f:
            json.dump(counts, f, sort_keys=True)
        return []
    with open(ledger_path) as f:
        before = json.load(f)
    return [f"{k}: {before.get(k)} then {v}" for k, v in counts.items() if before.get(k) != v]


def run(args) -> dict:
    import horizon_ocr_python_ray  # noqa: F401  (fail before any work without the package)

    w = args.workload
    rows = JOB_ROWS[w]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    # Workers import the package from the checkout, wherever Ray starts them.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    t_start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, w, rows, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, w: str, rows: int, work: str, t_start: float) -> dict:
    ray_tmp = os.path.join(work, "r")
    corpus, warm = os.path.join(work, "corpus"), os.path.join(work, "warm")
    # The warm-up corpus has as many files as the timed one, so a warm-up
    # job runs as many read tasks as a timed job.
    files = len(corpora.shard_sizes(rows))
    _gen([(w, rows, args.seed * 10, corpus, 1),
          (w, WARM_ROWS[w], args.seed * 10 + 9, warm, files)])
    if _hashes(corpus) & _hashes(warm):
        raise RuntimeError("warm-up corpus shares content hashes with the timed corpus")
    gen_s = time.perf_counter() - t_start

    calib, setups, runs = [], [], []
    for _ in range(SESSIONS):
        calib.append(calibrate())
        try:
            with engine.Stopwatch() as sw:
                engine.start_session(CPUS, ray_tmp)
                engine.warm_up(w, warm, os.path.join(work, "warm_out"), CPUS)
            setups.append(sw)
            t_jobs, n_jobs = time.perf_counter(), 0
            while (n_jobs < MIN_JOBS_PER_SESSION
                   or time.perf_counter() - t_jobs < args.seconds / SESSIONS):
                n_jobs += 1
                k = len(runs)
                runs.append(engine.run_job(w, corpus, os.path.join(work, f"out{k}"),
                                           engine.cold_config(k)))
        finally:
            engine.stop_session()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    jobs_s = time.perf_counter() - t_start - gen_s

    gold = golden.Golden(corpus, heads=w == "doc_heads")

    failed: set[str] = set()
    route_counts = []
    for k, r in enumerate(runs):
        out_dir = os.path.join(work, f"out{k}")
        if w == "doc_heads":
            outs = {h: golden.read_dir(os.path.join(out_dir, h)) for h in replay.HEADS}
            bad = golden.check_heads(outs, gold)
            out = outs["extract"]
        else:
            out = r["output"] if w == "resume" else golden.read_dir(out_dir)
            bad = golden.check_extract(out, gold)
        failed |= {f"job{k}:{u}" for u in bad}
        route_counts.append(Counter(out.column("route").to_pylist()))

    n_failed = len(failed)
    attempted = len(gold) * len(runs)
    notes, warnings = [], []
    if any(rc != route_counts[0] for rc in route_counts):
        notes.append(f"route counts differ between jobs: {route_counts}")
    counts = {f"route.rows.{r}": route_counts[0][r] for r in ROUTES}
    recomputed = max(r.get("recomputed", 0) for r in runs)

    metrics = {
        "docs_per_s": _median([len(gold) / r["unstolen_s"] for r in runs]),
        "setup_s": _median([sw.unstolen_s for sw in setups]),
        "driver_peak_rss_mb": rss_mb,
        "worker_peak_heap_mb": _median([engine.summarize_stats(r["stats"])["ray.peak_heap_mb"]
                                        for r in runs]),
    }
    extra = {"failed_ratio": n_failed / attempted,
             "spilled_mb": max(engine.summarize_stats(r["stats"])["ray.spilled_mb"]
                               for r in runs),
             "calib.us_per_iter": _median(calib),
             "rows_per_job": len(gold), "jobs": len(runs), "cpus": CPUS,
             "job_walls_s": [round(r["wall_s"], 3) for r in runs],
             "job_unstolen_s": [round(r["unstolen_s"], 3) for r in runs],
             "job_steal_s": [round(r["steal_s"], 2) for r in runs],
             "setup_walls_s": [round(sw.wall_s, 3) for sw in setups],
             "setup_unstolen_s": [round(sw.unstolen_s, 3) for sw in setups],
             "gen_s": round(gen_s, 2), "cycles_s": round(jobs_s, 2)}

    if args.trace:
        # Replays alternate spans off and on after one discarded warm-up
        # replay, which pays the one-time costs (imports, compiled
        # patterns, page cache); each side reports its median wall.
        reps = [replay.replay(w, corpus, os.path.join(work, f"replay{i}"), i % 2 == 0,
                              engine.PARTITIONS) for i in range(1 + 2 * REPLAY_PAIRS)]
        shallow, deep = reps[-2], reps[-1]
        shallow["wall_s"] = _median([r["wall_s"] for r in reps[1::2]])
        deep["wall_s"] = _median([r["wall_s"] for r in reps[2::2]])
        bad = golden.check_extract(deep["output"], gold)
        if bad:
            notes.append(f"replay output disagrees with golden on {len(bad)} urls")
        layers = layer_metrics(corpus, runs, shallow, deep, calib)
        extra["fused_ops"] = layers.pop("_fused_ops")
        if layers["ray.replay_extract_over_udf"] > 1 + UDF_CHECK_SLACK:
            warnings.append("replay extract time exceeds the fused operator's UDF time")
        for key in (f"route.rows.{r}" for r in ROUTES):
            if layers[key] != counts[key]:
                notes.append(f"{key}: engine {counts[key]}, replay {layers[key]}")
        counts.update({k: layers[k] for k in EXACT_COUNTS})
        recomputed = layers["checkpoint.partitions_recomputed"]
        extra.update(metrics)
        metrics = layers
    if recomputed:
        notes.append(f"resume re-ran {recomputed} already committed fragments")

    ledger = os.path.join(ROOT, ".perfbench_work", "counts",
                          f"{w}-seed{args.seed}-rows{rows}-{_code_hash()}.json")
    drift = _check_counts(ledger, counts)
    notes += [f"count drift {d}" for d in drift]
    extra["total_s"] = round(time.perf_counter() - t_start, 2)
    return {"metrics": metrics, "extra": extra, "attempted": attempted,
            "failed": n_failed, "failed_urls": sorted(failed)[:5], "notes": notes,
            "warnings": warnings}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    res = run(args)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in res["metrics"].items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    for name, value in res["extra"].items():
        print(f"{name:40s} {value}")
    if res["failed"]:
        print(f"failed_urls (first {len(res['failed_urls'])}): {res['failed_urls']}")
    for note in res["notes"]:
        print(f"CHECK FAILED: {note}")
    for warning in res["warnings"]:
        print(f"WARNING: {warning}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["notes"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
