"""Ray-free replay of a workload's layer calls, with optional spans.

The replay runs in the benchmark process. It calls the same package
functions the Ray pipeline runs, in the pipeline's order and batch sizes
(sniff 1024, extract 256, heads 256), one parquet file at a time as Ray
runs one read task per file.

Spans are recorded two ways:

* around each call the replay loop itself makes (read, sniff batch,
  extract batch, head batch, sink write, checkpoint calls), always;
* around calls *inside* the package, only when ``deep`` is set, by
  swapping the name where the caller looks it up (for example
  ``extract_core.extract_html`` or ``tables_stage.decode_doc_payload``)
  for a timing wrapper, and restoring it afterwards.

A span is ``(name, start_ns, end_ns, parent_index)``. A layer's self time
is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SNIFF_BATCH = 1024
EXTRACT_BATCH = 256
HEAD_BATCH = 256
HEADS = ("extract", "tables", "styles", "reconstruction")


class Tracer:
    def __init__(self, deep: bool) -> None:
        self.deep = deep
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def traced(self, fn, name):
        """``fn`` wrapped in a span. ``name`` is a string, or a function
        of the call's arguments returning one."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name if isinstance(name, str) else name(*args), t0, t1, parent)

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap each ``(module, attribute, span name)`` for a traced
        wrapper while the block runs; a shallow tracer swaps nothing."""
        saved = []
        try:
            if self.deep:
                for mod, attr, name in targets:
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self.traced(getattr(mod, attr), name))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total and self time in ns."""
        child = [0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["ns"] += t1 - t0
            rec["self_ns"] += t1 - t0 - child[i]
        return out


def _targets(tr: Tracer) -> list:
    from horizon_ocr_python_ray.functions import extract_core
    from horizon_ocr_python_ray.stages import (
        extract_stage,
        reconstruct_stage,
        route,
        style_stage,
        tables_stage,
    )

    def payload_name(route_name, *_rest):
        return f"extract_core.{route_name}"

    def html_name(html_bytes, *_rest):
        tr.counts["html_bytes"] += len(html_bytes)
        return "htmltext.extract_html"

    targets = [
        (route, "sniff_route", "route.sniff"),
        (route, "content_hash", "route.hash"),
        (extract_stage, "extract_payload", payload_name),
        (extract_core, "extract_html", html_name),
        (extract_core, "native_page_lines", "layout.native_page"),
    ]
    for mod in (extract_core, tables_stage, style_stage, reconstruct_stage):
        targets += [(mod, "decode_doc_payload", "docformat.decode"),
                    (mod, "decode_image_payload", "docformat.decode"),
                    (mod, "recognize_page", "layout.recognize")]
    return targets


def _files(corpus: str) -> list[str]:
    d = os.path.join(corpus, "pages")
    return [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def _batches(table: pa.Table, size: int):
    for s in range(0, table.num_rows, size):
        yield table.slice(s, size)


class _Replay:
    """The pipeline shapes the workloads run, as plain calls."""

    def __init__(self, tr: Tracer, corpus: str, out_dir: str) -> None:
        from horizon_ocr_python_ray.config import DEFAULT_CONFIG
        from horizon_ocr_python_ray.stages.extract_stage import ExtractActor

        self.tr, self.corpus, self.out_dir = tr, corpus, out_dir
        self.cfg = DEFAULT_CONFIG
        self.actor = ExtractActor(self.cfg)
        self.extract_out: list[pa.Table] = []

    def read(self, path: str) -> pa.Table:
        with self.tr.span("read"):
            table = pq.read_table(path)
        self.tr.counts["rows_read"] += table.num_rows
        return table

    def sniff(self, table: pa.Table) -> pa.Table:
        from horizon_ocr_python_ray.stages.route import sniff_batch

        parts = []
        for b in _batches(table, SNIFF_BATCH):
            with self.tr.span("route.sniff_batch"):
                parts.append(sniff_batch(b))
        return pa.concat_tables(parts)

    def extract(self, sniffed: pa.Table) -> pa.Table:
        from horizon_ocr_python_ray.stages.dedup import RESULT_COLS

        parts = []
        for b in _batches(sniffed, EXTRACT_BATCH):
            self.tr.counts["extract_rows_in"] += b.num_rows
            with self.tr.span("extract_stage"):
                parts.append(self.actor(b))
        out = pa.concat_tables(parts).select(RESULT_COLS)
        self.extract_out.append(out)
        return out

    def write(self, table: pa.Table, name: str) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        with self.tr.span("sink.write"):
            pq.write_table(table, os.path.join(self.out_dir, name))

    def extract_pipeline(self) -> None:
        for k, path in enumerate(_files(self.corpus)):
            self.write(self.extract(self.sniff(self.read(path))), f"extract-{k:04d}.parquet")

    def heads(self) -> None:
        """``process_pages`` with the four heads: each head is its own
        pipeline that reads and sniffs the pages again."""
        from horizon_ocr_python_ray.stages.reconstruct_stage import reconstruct_batch
        from horizon_ocr_python_ray.stages.style_stage import styles_batch
        from horizon_ocr_python_ray.stages.tables_stage import tables_batch

        fns = {"tables": tables_batch, "styles": styles_batch,
               "reconstruction": reconstruct_batch}
        for head in HEADS:
            for k, path in enumerate(_files(self.corpus)):
                sniffed = self.sniff(self.read(path))
                if head == "extract":
                    with self.tr.span("heads.extract"):
                        out = self.extract(sniffed)
                else:
                    heavy = sniffed.filter(pc.is_in(sniffed.column("route"),
                                                    value_set=pa.array(["doc", "image"])))
                    parts = []
                    for b in _batches(heavy, HEAD_BATCH):
                        with self.tr.span(f"heads.{head}"):
                            parts.append(fns[head](b, self.cfg))
                    out = pa.concat_tables(parts) if parts else None
                if out is not None:
                    self.write(out, f"{head}-{k:04d}.parquet")

    def resume(self, partitions: int) -> pa.Table:
        """``run_partitioned`` stopped after half the fragments, resumed,
        then read back. Fragments return tables, so checkpoint runs its
        table write path."""
        from horizon_ocr_python_ray.state import checkpoint

        files = _files(self.corpus)
        ran: list[set[int]] = []  # fragments each run_partitioned call ran

        def fragment(pid: int) -> pa.Table:
            ran[-1].add(pid)
            with self.tr.span("checkpoint.fragment"):
                parts = []
                for path in files:
                    with self.tr.span("checkpoint.filter"):
                        table = checkpoint.filter_to_partition(self.read(path), pid, partitions)
                    if table.num_rows:
                        parts.append(self.extract(self.sniff(table)))
                return pa.concat_tables(parts)

        ckpt_dir = os.path.join(self.out_dir, "ckpt")
        with self.tr.patched([(pq, "write_table", "sink.write")]):
            for limit in (partitions // 2, None):
                ran.append(set())
                with self.tr.span("checkpoint.run_partitioned"):
                    checkpoint.run_partitioned(fragment, ckpt_dir, partitions,
                                               max_partitions=limit)
        self.tr.counts["partitions_recomputed"] = len(ran[0] & ran[1])
        with self.tr.span("checkpoint.read_all_output"):
            return checkpoint.read_all_output(ckpt_dir)


def replay(workload: str, corpus: str, out_dir: str, deep: bool, partitions: int) -> dict:
    """Replay one workload over ``corpus``. Returns the wall time, the
    tracer and the extraction output (for the golden and count checks)."""
    tr = Tracer(deep)
    rp = _Replay(tr, corpus, out_dir)
    output = None
    with tr.patched(_targets(tr) if deep else []):
        t0 = time.perf_counter()
        if workload == "doc_heads":
            rp.heads()
        elif workload == "resume":
            output = rp.resume(partitions)
        else:
            rp.extract_pipeline()
        wall = time.perf_counter() - t0
    if output is None:
        output = pa.concat_tables(rp.extract_out)
    bytes_out = sum(os.path.getsize(os.path.join(root, f))
                    for root, _dirs, files in os.walk(out_dir) for f in files
                    if f.endswith(".parquet"))
    return {"wall_s": wall, "tracer": tr, "output": output, "bytes_out": bytes_out}
