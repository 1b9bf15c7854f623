"""Workload inputs: a pages parquet directory plus its golden table.

Every corpus is a pure function of ``(workload, rows, seed)``. It is
built from the package's own generator (``gen_corpus``), which keys each
row's RNG by ``f"{seed}:{i}"``, so the same arguments give the same
bytes. The engine under test only ever sees the written parquet.

Run as a module to build one corpus in a separate process, which keeps
the generator's memory out of the benchmark driver's peak RSS::

    python3 -m perfbench.corpora --workload crawl_mix --rows 5000 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

#: Share of ``recrawl_dups`` rows that are byte-identical re-crawls of an
#: earlier row under a new url.
RECRAWL_SHARE = 0.6

#: ``doc_heads`` keeps only the doc and image rows of the default mix
#: (about 20% of it), so it generates this many mix rows per kept row,
#: enough to keep exactly the rows asked for.
DOC_HEADS_OVERSAMPLE = 6

_HEAVY = ("doc", "image")


#: Most parquet files in a corpus. Ray Data reads the metadata of more
#: than 24 files in extra half-CPU tasks, which grow a session's worker
#: pool beyond one worker per CPU in the middle of a timed job.
MAX_FILES = 16


def shard_sizes(n_rows: int, min_shards: int = 1) -> list[int]:
    """Row counts of the parquet files ``write`` makes: 250-row files as
    ``ensure_corpus`` writes them, at most ``MAX_FILES``, and at least
    ``min_shards``."""
    n_shards = min(max(1, n_rows), max(min_shards, min(MAX_FILES, n_rows // 250)))
    per = -(-n_rows // n_shards)
    return [min(per, n_rows - s) for s in range(0, n_rows, per)]


def _recrawl(pages: pa.Table, golden: pa.Table, n_rows: int, seed: int, min_shards: int):
    """Interleave ``pages`` with re-crawl copies until there are ``n_rows``
    rows. A copy repeats the payload and text of an earlier row of the
    same parquet file under a fresh url; its golden row is the source
    row's with the url replaced. Keeping each copy in its source's file
    keeps both in one Ray read block, so which copies meet their source
    in a worker's memo does not depend on how tasks are scheduled."""
    rng = random.Random(f"recrawl:{seed}")
    src_idx: list[int] = []
    urls: list[str] = []
    originals = 0
    for size in shard_sizes(n_rows, min_shards):
        shard_src: list[int] = []
        for _ in range(size):
            if shard_src and (originals >= pages.num_rows or rng.random() < RECRAWL_SHARE):
                src_idx.append(shard_src[rng.randrange(len(shard_src))])
                urls.append(f"https://recrawl.example.org/{seed}/{len(urls):08d}")
            else:
                shard_src.append(originals)
                src_idx.append(originals)
                urls.append(pages.column("url")[originals].as_py())
                originals += 1
    take = pa.array(src_idx, pa.int64())
    url_col = pa.array(urls, pa.string())
    pages = pages.take(take).set_column(0, "url", url_col)
    golden = golden.take(take).set_column(0, "url", url_col)
    return pages, golden


def build(workload: str, n_rows: int, seed: int, min_shards: int = 1
          ) -> tuple[pa.Table, pa.Table]:
    """(pages, golden) for one workload corpus, to be written with the
    same ``min_shards``."""
    from horizon_ocr_python_ray import gen_corpus

    if workload in ("crawl_mix", "resume"):
        return gen_corpus(n_rows, seed)
    if workload == "recrawl_dups":
        # Sources to spare, so every file can open with an original row.
        n_src = int(n_rows * (1 - RECRAWL_SHARE) * 1.1) + 64
        return _recrawl(*gen_corpus(n_src, seed), n_rows, seed, min_shards)
    if workload == "doc_heads":
        # Only the first row of each payload is kept, so the memo has no
        # hits here and every head decodes every row.
        pages, golden = gen_corpus(n_rows * DOC_HEADS_OVERSAMPLE, seed)
        seen: set[str] = set()
        keep = []
        for route, h in zip(golden.column("route").to_pylist(),
                            golden.column("content_hash").to_pylist()):
            keep.append(route in _HEAVY and h not in seen and len(seen) < n_rows)
            if keep[-1]:
                seen.add(h)
        keep = pa.array(keep)
        return pages.filter(keep), golden.filter(keep)
    raise ValueError(f"unknown workload {workload!r}")


def write(pages: pa.Table, golden: pa.Table, out_dir: str, min_shards: int = 1) -> None:
    """Shard the pages as ``shard_sizes`` says."""
    os.makedirs(os.path.join(out_dir, "pages"), exist_ok=True)
    start = 0
    for s, size in enumerate(shard_sizes(pages.num_rows, min_shards)):
        pq.write_table(pages.slice(start, size),
                       os.path.join(out_dir, "pages", f"part-{s:04d}.parquet"))
        start += size
    pq.write_table(golden, os.path.join(out_dir, "golden.parquet"))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--min-shards", type=int, default=1)
    args = ap.parse_args()
    write(*build(args.workload, args.rows, args.seed, args.min_shards), args.out,
          args.min_shards)


if __name__ == "__main__":
    main()
