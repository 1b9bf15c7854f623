"""Combined extraction stage: one actor-pool ``map_batches`` that
dispatches per row on the ``route`` column.

This is the zero-extra-shuffle path: a document's pages all live in its
payload row, so per-document work (decode → detect → recognize →
reading-order assembly) happens inside the batch function and only the
dedup ``groupby(content_hash)`` shuffles. The fully staged variant with
page fan-out + ``groupby(url)`` fan-in — for corpora with unbounded
page-count documents — lives in ``staged.py``; both produce
byte-identical output (tested).

The class is a callable ACTOR (warm state in ``__init__``, work in
``__call__``) mirroring the reference's lazily-constructed model
singletons (``/root/reference/docvision/pipeline/orchestrator.py:150-199``).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.extract_core import extract_payload
from ..schema import SPAN_TYPE


class ExtractActor:
    """Stateful per-worker extractor. In a real deployment ``__init__``
    loads model weights once per actor (the reference loads ~3 GB of
    weights per process); here the warm state is the config, the compiled
    kernels imported at construction, and a bounded content-addressed
    result memo — the per-worker analog of the reference's SHA-256
    response cache (``/root/reference/docvision/azure/response_cache.py:
    37-273``, 500-entry cap). Duplicate payloads that land on the same
    actor skip recomputation; extraction is deterministic, so duplicates
    that land on different actors still produce identical bytes."""

    def __init__(self, cfg: ExtractConfig | None = None) -> None:
        self.cfg = cfg or DEFAULT_CONFIG
        self._memo: dict[str, tuple[str, list, str | None]] = {}
        self._memo_cap = self.cfg.dedup.actor_cache_entries

    def __call__(self, batch: pa.Table) -> pa.Table:
        routes = batch.column("route").to_pylist()
        payloads = batch.column("html").to_pylist()
        texts = batch.column("text").to_pylist()
        hashes = batch.column("content_hash").to_pylist()
        out_text, out_spans, out_err = [], [], []
        for route, payload, text, h in zip(routes, payloads, texts, hashes):
            hit = self._memo.get(h)
            if hit is None:
                hit = extract_payload(route, payload, text, self.cfg)
                if len(self._memo) >= self._memo_cap:
                    # FIFO eviction (reference evicts oldest beyond cap)
                    self._memo.pop(next(iter(self._memo)))
                self._memo[h] = hit
            extracted, spans, err = hit
            out_text.append(extracted)
            out_spans.append(spans)
            out_err.append(err)
        # Drop the wide binary column as soon as it is consumed
        # (SURVEY.md §7.4 "wide binary rows").
        keep = [c for c in batch.column_names if c not in ("html", "text")]
        result = batch.select(keep)
        result = result.append_column("extracted_text", pa.array(out_text, pa.string()))
        result = result.append_column("spans", pa.array(out_spans, SPAN_TYPE))
        result = result.append_column("error", pa.array(out_err, pa.string()))
        return result


#: Per-worker-process extractor for the task-based stage. Ray REUSES task
#: worker processes across tasks (and across Dataset executions in a
#: session), so this module global gives the same warm-state amortization
#: as an actor — construction, kernel compilation and the content-hash
#: memo all survive between batches — without paying a fresh actor
#: process spawn + import storm per pipeline execution.
_WORKER_EXTRACTOR: ExtractActor | None = None


def extract_batch_task(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    global _WORKER_EXTRACTOR
    if _WORKER_EXTRACTOR is None or _WORKER_EXTRACTOR.cfg != cfg:
        _WORKER_EXTRACTOR = ExtractActor(cfg)
    return _WORKER_EXTRACTOR(batch)


def add_extract_stage(ds, cfg: ExtractConfig | None = None, concurrency: int | None = None,
                      batch_size: int = 256, stateful: bool | None = None,
                      num_gpus: float | None = None,
                      ray_remote_args: dict | None = None):
    """Attach the route-dispatched extraction stage.

    ``stateful=False`` (default): plain-function ``map_batches`` on Ray's
    pre-started, reused task workers — zero actor-spawn cost, scales with
    whatever CPUs the cluster has, warm state via the worker-process
    global above. The right shape when per-worker state is cheap to build
    (compiled kernels, memo cache).

    ``stateful=True``: a CPU-bounded autoscaling ACTOR pool — the shape
    the reference's lazily-constructed model singletons map to
    (``/root/reference/docvision/pipeline/orchestrator.py:150-199``) and
    the right one when ``__init__`` loads seconds-to-minutes of state
    (GB-scale model weights, GPU contexts): spawn cost is amortized and
    ``num_gpus``/placement can be attached. Measured on this kernel the
    actor spawn/import storm costs more than it saves (see BASELINE.md).

    Device placement (reference ``config.py:81-90`` ``device=auto``):
    ``num_gpus`` reserves GPU fractions per actor/task and any extra
    ``ray_remote_args`` (``resources={...}``, ``accelerator_type``,
    ``scheduling_strategy``, ...) pass straight through to
    ``map_batches``, so the heavy stage deploys unchanged on a GPU
    cluster — on this CPU-only test box both default to unset.
    """
    cfg = cfg or DEFAULT_CONFIG
    remote_args = dict(ray_remote_args or {})
    if num_gpus is not None:
        remote_args["num_gpus"] = num_gpus
    if stateful:
        from .dedup import _pool_max

        return ds.map_batches(
            ExtractActor,
            fn_constructor_kwargs={"cfg": cfg},
            batch_format="pyarrow",
            batch_size=batch_size,
            # Autoscaling pool (min 1): never reserves the whole node up
            # front, so read/sniff/write stages aren't starved.
            concurrency=(1, concurrency or _pool_max(cfg.doc.recognize_concurrency)),
            **remote_args,
        )
    return ds.map_batches(
        extract_batch_task,
        fn_kwargs={"cfg": cfg},
        batch_format="pyarrow",
        batch_size=batch_size,
        **remote_args,
    )
