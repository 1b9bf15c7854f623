"""CLI entry point — the ``ray job submit`` surface.

    python -m horizon_ocr_python_ray run \
        --input  /path/to/pages/     # parquet file/dir (url, warc_ts, html, text, lang)
        --output /path/to/out/       # partitioned, resumable output
        [--partitions 64]            # checkpoint fragments
        [--no-resume]                # ignore an existing manifest

A second invocation with the same ``--output`` resumes: finished fragments
are anti-filtered against the manifest (``state/checkpoint.py``). This is
the only module in the library allowed to call ``ray.init`` (guarded — the
driver contract in ``__ray_entry__`` never does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="horizon_ocr_python_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run the extraction pipeline, resumably")
    run.add_argument("--input", required=True, help="pages parquet file/dir")
    run.add_argument("--output", required=True, help="output directory")
    run.add_argument("--partitions", type=int, default=16)
    run.add_argument("--no-resume", action="store_true",
                     help="delete any existing manifest/output first")
    run.add_argument("--concurrent-fragments", type=int, default=4,
                     help="fragments executed concurrently (hides per-job ramp)")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from . import build_extract_pipeline, read_pages
    from .state.checkpoint import filter_to_partition, read_manifest, run_partitioned

    if args.no_resume and os.path.isdir(args.output):
        import shutil

        shutil.rmtree(args.output)

    n_parts = args.partitions

    # Fragment assignment: when the input has at least as many parquet
    # files as fragments, a fragment IS a slice of the file list — each
    # fragment reads ONLY its files (no re-scan). With fewer files than
    # fragments (e.g. one big file), fall back to row-hash filtering,
    # which re-scans the input per fragment (correct, but O(P) reads —
    # lay out big corpora as many files).
    import glob as _glob

    pages_root = args.input
    if os.path.isdir(os.path.join(pages_root, "pages")):
        pages_root = os.path.join(pages_root, "pages")
    files = sorted(_glob.glob(os.path.join(pages_root, "*.parquet"))) \
        if os.path.isdir(pages_root) else []
    file_mode = len(files) >= n_parts

    def fragment(pid: int):
        if file_mode:
            import ray.data

            pages = ray.data.read_parquet(files[pid::n_parts])
        else:
            pages = read_pages(args.input).map_batches(
                lambda t, pid=pid: filter_to_partition(t, pid, n_parts),
                batch_format="pyarrow",
            )
        # Each fragment's memo only sees its own rows; extraction is
        # deterministic, so cross-fragment duplicates still produce
        # identical bytes.
        return build_extract_pipeline(pages)

    t0 = time.monotonic()
    done_before = set(read_manifest(args.output))
    committed = run_partitioned(fragment, args.output, n_parts,
                                max_concurrent=args.concurrent_fragments)
    manifest = read_manifest(args.output)
    summary = {
        "output": args.output,
        "partitions": n_parts,
        "resumed_from": len(done_before),
        "committed_now": len(committed),
        "total_rows": sum(rec["rows"] for rec in manifest.values()),
        "wall_s": round(time.monotonic() - t0, 3),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
