#!/usr/bin/env python
"""Ray-free per-core timer for the doc-route kernels and heads.

    python3 -m perfbench.corpora --workload doc_heads --rows 300 --seed 7 --out DIR
    python3 tools/doc_kernel_us.py DIR [--reps 5] [--baseline OTHER_CHECKOUT]

Reads the corpus's pages, keeps its doc and image rows (``sniff_route``)
whose payload decodes, and times, in this one process:

* ``decode_pages`` per row;
* ``recognize_page``, ``reading_order_rows`` and ``detect_tables`` per
  page, each on inputs prepared outside the timed loop (``detect_tables``
  on the tables head's recognized lines);
* each doc head's row function per row, decode included, as
  ``route.heavy_head_batch`` calls it: ``extract_payload`` for the
  extract head, then ``table_rows``, ``style_rows`` and
  ``reconstruct_rows``.

Each kernel runs over the whole corpus ``--reps`` times; the fastest
pass is reported, so a burst of clock scaling or steal in one pass does
not show. Prints one JSON line of µs per row or page, with
``calib.us_per_iter`` (``perfbench.run.calibrate``) taken beside it.

``--baseline`` names a second checkout (``git archive <rev> | tar -x``)
whose package is imported beside this one. Its passes alternate with
this checkout's, pass by pass, so both see the same clock: each kernel
``k`` also gets ``baseline.k`` (fastest baseline pass) and ``ratio.k``,
the median over reps of this pass ÷ the adjacent baseline pass.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

PACKAGE = "horizon_ocr_python_ray"
HEADS = ("extract", "tables", "styles", "reconstruction")


def _import_baseline(checkout: str) -> str:
    """Import ``checkout``'s package under another name; return the name."""
    name = "baseline_" + PACKAGE
    path = os.path.join(os.path.abspath(checkout), PACKAGE)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def _load_rows(corpus: str) -> tuple[list, int]:
    """(route, payload) of the corpus's decodable doc and image rows, and
    how many heavy rows did not decode."""
    import pyarrow.parquet as pq

    from horizon_ocr_python_ray.functions.extract_core import decode_pages
    from horizon_ocr_python_ray.functions.sniff import sniff_route
    from horizon_ocr_python_ray.stages.route import HEAVY_ROUTES
    from perfbench.replay import _files

    rows, corrupt = [], 0
    for path in _files(corpus):
        for payload in pq.read_table(path, columns=["html"]).column(0).to_pylist():
            route = sniff_route(payload)
            if route not in HEAVY_ROUTES:
                continue
            try:
                decode_pages(route, payload)
            except ValueError:  # the corpus's corrupt bodies; no head gets past decode
                corrupt += 1
                continue
            rows.append((route, payload))
    return rows, corrupt


def _kernels(package: str, rows: list) -> dict[str, tuple]:
    """Kernel name → (function, argument tuples), from ``package``."""
    def mod(name):
        return importlib.import_module(f"{package}.{name}")

    cfg = mod("config").DEFAULT_CONFIG
    core, layout = mod("functions.extract_core"), mod("functions.layout")
    decode_pages, recognize_page = core.decode_pages, layout.recognize_page
    pages = [p for route, payload in rows for p in decode_pages(route, payload)]
    overlap = cfg.doc.reading_order_vertical_overlap

    def head(row_fn):
        return lambda route, payload: row_fn(route, decode_pages(route, payload), cfg)

    return {
        "decode_pages.us_per_row": (decode_pages, rows),
        "recognize_page.us_per_page": (
            recognize_page, [(p["lines"], cfg.doc, p.get("w"), p.get("h")) for p in pages]),
        "reading_order_rows.us_per_page": (
            layout.reading_order_rows, [([ln["bbox"] for ln in p["lines"]], overlap) for p in pages]),
        "detect_tables.us_per_page": (
            mod("functions.tables").detect_tables,
            [(recognize_page(p["lines"], cfg.doc), float(p["w"]), float(p["h"]), cfg.tables)
             for p in pages]),
        "heads.extract.us_per_row": (
            lambda route, payload: core.extract_payload(route, payload, None, cfg), rows),
        "heads.tables.us_per_row": (head(mod("stages.tables_stage").table_rows), rows),
        "heads.styles.us_per_row": (head(mod("stages.style_stage").style_rows), rows),
        "heads.reconstruction.us_per_row": (
            head(mod("stages.reconstruct_stage").reconstruct_rows), rows),
    }


def _pass_us(fn, items) -> float:
    """One pass of ``fn`` over ``items``, in µs per item."""
    t0 = time.perf_counter()
    for item in items:
        fn(*item)
    return (time.perf_counter() - t0) / max(len(items), 1) * 1e6


def measure(corpus: str, reps: int, baseline: str | None = None) -> dict:
    from perfbench.run import calibrate

    rows, corrupt = _load_rows(corpus)
    sides = {"": _kernels(PACKAGE, rows)}
    if baseline:
        sides["baseline."] = _kernels(_import_baseline(baseline), rows)
    out = {"rows": len(rows), "pages": len(sides[""]["recognize_page.us_per_page"][1]),
           "corrupt_rows": corrupt, "reps": reps, "calib.us_per_iter": round(calibrate(), 3)}
    passes = {side: {} for side in sides}
    for name in sides[""]:
        for rep in range(reps):
            for side in (sorted(sides) if rep % 2 else sorted(sides, reverse=True)):
                passes[side].setdefault(name, []).append(_pass_us(*sides[side][name]))
    for side, times in passes.items():
        times["heads.sum.us_per_row"] = [
            sum(times[f"heads.{h}.us_per_row"][rep] for h in HEADS) for rep in range(reps)]
        for name, us in times.items():
            out[side + name] = round(min(us), 2)
    if baseline:
        for name, us in passes[""].items():
            ratios = [a / b for a, b in zip(us, passes["baseline."][name])]
            out["ratio." + name] = round(statistics.median(ratios), 3)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus", help="directory written by perfbench.corpora")
    ap.add_argument("--reps", type=int, default=5, help="passes per kernel; the fastest counts")
    ap.add_argument("--baseline", help="another checkout to time in alternation with this one")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.corpus, args.reps, args.baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
