"""End-to-end golden byte-identity over Ray (the correctness gate:
byte-identical extracted text per url, FIXTURES.md §2)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pandas as pd

from horizon_ocr_python_ray import build_extract_pipeline, read_pages


def _run(corpus_dir, **kw) -> pd.DataFrame:
    return build_extract_pipeline(read_pages(corpus_dir), **kw).to_pandas()


def _assert_matches_golden(df: pd.DataFrame, golden_map):
    assert len(df) == len(golden_map)
    assert set(df["url"]) == set(golden_map)
    for row in df.itertuples():
        g = golden_map[row.url]
        assert row.extracted_text == g["extracted_text"], row.url
        assert row.route == g["route"], row.url
        assert row.content_hash == g["content_hash"], row.url
        got_spans = [dict(s) for s in row.spans]
        assert got_spans == g["spans"], row.url
        if g["has_error"]:
            # corrupt planted payload: error channel set, empty result
            assert row.error is not None, row.url
            assert row.extracted_text == "", row.url
        else:
            assert row.error is None, row.url


def test_combined_pipeline_byte_identity(corpus_dir, golden_map):
    _assert_matches_golden(_run(corpus_dir), golden_map)


def test_combined_without_dedup_identical(corpus_dir, golden_map):
    _assert_matches_golden(_run(corpus_dir, dedup=False), golden_map)


def test_dedup_propagates_to_duplicate_urls(corpus_dir, golden_map):
    df = _run(corpus_dir)
    by_hash = df.groupby("content_hash")["extracted_text"].nunique()
    assert (by_hash == 1).all()
    # the synthetic corpus contains at least one real duplicate group
    assert (df.groupby("content_hash")["url"].count() > 1).any()


def test_complexity_bands_all_populated(corpus_dir):
    """The synthetic corpus exercises every band and both variants."""
    from horizon_ocr_python_ray.stages.complexity import complexity_batch
    import pyarrow.parquet as pq
    import glob
    import pyarrow as pa

    tabs = [pq.read_table(f, columns=["url", "html"])
            for f in sorted(glob.glob(corpus_dir + "/pages/*.parquet"))]
    scored = complexity_batch(pa.concat_tables(tabs))
    bands = set(scored.column("complexity").to_pylist())
    assert bands == {"simple", "medium", "complex"}
    variants = set(scored.column("extract_variant").to_pylist())
    assert variants == {"combined", "staged"}


_ONE_CPU_RUN = """
import sys

import ray

ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
         include_dashboard=False, logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from horizon_ocr_python_ray import build_extract_pipeline, read_pages

corpus, out_dir, stats_path = sys.argv[1:4]
ds = build_extract_pipeline(read_pages(corpus))
ds.write_parquet(out_dir)
with open(stats_path, "w") as f:
    f.write(ds.stats())
ray.shutdown()
"""

#: Every operator of the extraction plan, as ``ds.stats()`` names them
#: (fused operators join their parts with ``->``).
_PLAN_PARTS = re.compile(
    r"ReadParquet|SplitBlocks\(\d+\)|MapBatches\(sniff_batch\)"
    r"|MapBatches\(extract_batch_task\)|Project|Write")


def test_one_cpu_session_completes_with_task_only_plan(corpus_dir, golden_map, tmp_path):
    """On a 1-CPU session an actor pool holds the only CPU that the read
    task needs, and the pipeline makes no progress. The extraction plan
    must finish there, match golden, and contain only the fused task
    operators: no actor-pool UDF and no all-to-all exchange."""
    out_dir, stats_path = tmp_path / "out", tmp_path / "stats.txt"
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", _ONE_CPU_RUN, corpus_dir, str(out_dir),
                    str(stats_path)], env=env, check=True, timeout=150)

    _assert_matches_golden(pd.read_parquet(out_dir), golden_map)
    names = re.findall(r"^Operator \d+ (.+?): ", stats_path.read_text(), flags=re.M)
    assert names, "no operators parsed from ds.stats()"
    for name in names:
        for part in name.split("->"):
            assert _PLAN_PARTS.fullmatch(part), f"unexpected operator {part!r} in {names}"
