"""The doc-route measuring instruments still reach the package: the
traced replay's patch targets resolve and see the calls, and the
Ray-free kernel timer runs on a benchmark corpus."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import corpora, replay

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def doc_corpus(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("doc_heads"))
    corpora.write(*corpora.build("doc_heads", 24, 5), out)
    return out


def test_replay_targets_resolve():
    targets = replay._targets(replay.Tracer(deep=True))
    assert targets
    for mod, attr, _name in targets:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_traced_replay_sees_doc_kernels(doc_corpus, tmp_path):
    """Recognition, native lines and payload decodes are looked up through
    the patched names, so ``--trace 1`` counts them."""
    res = replay.replay("doc_heads", doc_corpus, str(tmp_path / "out"), True, 8)
    totals = res["tracer"].totals()
    for name in ("layout.recognize", "layout.native_page", "docformat.decode"):
        assert totals.get(name, {}).get("calls", 0) > 0, name


def test_doc_kernel_timer_smoke(doc_corpus):
    """One JSON line of per-kernel µs; with ``--baseline`` (here this same
    checkout) each kernel also gets the baseline's µs and the ratio."""
    tool = str(ROOT / "tools" / "doc_kernel_us.py")
    kernels = ["decode_pages.us_per_row", "recognize_page.us_per_page",
               "reading_order_rows.us_per_page", "detect_tables.us_per_page",
               *(f"heads.{h}.us_per_row" for h in ("extract", "tables", "styles", "reconstruction")),
               "heads.sum.us_per_row"]
    for extra in ([], ["--baseline", str(ROOT)]):
        out = subprocess.run([sys.executable, tool, doc_corpus, "--reps", "2", *extra],
                             capture_output=True, text=True, check=True, cwd=ROOT, timeout=300)
        lines = out.stdout.strip().splitlines()
        assert len(lines) == 1
        m = json.loads(lines[0])
        assert m["rows"] > 0 and m["pages"] >= m["rows"] and m["calib.us_per_iter"] > 0
        for k in kernels:
            assert m[k] > 0, k
            assert (f"ratio.{k}" in m) == bool(extra) == (f"baseline.{k}" in m), k
            if extra:
                assert m[f"ratio.{k}"] > 0
