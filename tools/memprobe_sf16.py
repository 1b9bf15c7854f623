#!/usr/bin/env python
"""Memory-pressure evidence run: the flagship extract pipeline over the
sf16 corpus (8M pages, ~11 GB parquet) with object-store spill counters
and ``ds.stats()`` recorded — the BASELINE.md datum showing streaming
backpressure holds (no OOM, bounded object store) at 160× the bench
scale. Usage: ``python tools/memprobe_sf16.py [sf]`` (default sf 16)."""

from __future__ import annotations

import glob
import json
import os
import re
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def _spill_evidence(session_dir: str) -> dict:
    """Scrape object-store spill/restore counters from the raylet log
    (the grpc-backed ``memory_summary`` API is unavailable in this
    container — no ``grpc`` module). The raylet periodically logs
    'Spilled N MiB, M objects' / 'Restored N MiB, M objects' lines;
    absence of both means the pipeline never exceeded the store."""
    out = {"spilled_lines": [], "restored_lines": []}
    for path in glob.glob(os.path.join(session_dir, "logs", "raylet*.out")):
        try:
            with open(path, errors="replace") as f:
                for line in f:
                    if re.search(r"Spilled \d", line):
                        out["spilled_lines"].append(line.strip()[-160:])
                    elif re.search(r"Restored \d", line):
                        out["restored_lines"].append(line.strip()[-160:])
        except OSError:
            pass
    # keep only the LAST line of each (counters are cumulative)
    out["spilled_lines"] = out["spilled_lines"][-2:]
    out["restored_lines"] = out["restored_lines"][-2:]
    return out


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 16.0
    import ray

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages

    corpus = ensure_corpus(sf)
    out_dir = f"/tmp/hopr_memprobe_sf{sf}"
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.monotonic()
    ds = build_extract_pipeline(read_pages(corpus))
    ds.write_parquet(out_dir)
    wall = time.monotonic() - t0
    stats = ds.stats()

    import pyarrow.parquet as pq

    total = 0
    n_files = 0
    for f in os.listdir(out_dir):
        if f.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(out_dir, f)).num_rows
            n_files += 1

    session_dir = ray._private.worker._global_node.get_session_dir_path()
    spill = _spill_evidence(session_dir)

    # peak driver RSS + system-wide memory floor seen during the run
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024

    print(json.dumps({
        "sf": sf,
        "wall_s": round(wall, 1), "rows": total,
        "docs_per_sec": round(total / wall, 1),
        "output_files": n_files,
        "driver_peak_rss_mb": peak_rss_mb,
        "spill": spill,
    }))
    print("---- ds.stats() tail ----")
    print("\n".join(stats.splitlines()[-40:]))
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
