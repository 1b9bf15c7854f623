"""Extraction stage: one task-based ``map_batches`` that dispatches per
row on the ``route`` column.

A document's pages all live in its payload row, so per-document work
(decode → detect → recognize → reading-order assembly) happens inside
the batch function and nothing shuffles. Duplicate payloads are
extracted once per worker by a bounded content-hash memo.

The extractor is a callable class (warm state in ``__init__``, work in
``__call__``) kept once per worker process in the ``extract`` slot of
``state.worker.worker_state``, keyed by the config — the task
form of the reference's lazily-constructed model singletons
(``/root/reference/docvision/pipeline/orchestrator.py:150-199``).
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.extract_core import extract_payload
from ..schema import SPAN_TYPE
from ..state.worker import worker_state


class ExtractActor:
    """Per-worker extractor. In a real deployment ``__init__`` loads
    model weights once per worker process (the reference loads ~3 GB of
    weights per process); here the warm state is the config, the compiled
    kernels imported at construction, and a bounded content-addressed
    result memo — the per-worker analog of the reference's SHA-256
    response cache (``/root/reference/docvision/azure/response_cache.py:
    37-273``, 500-entry cap). Duplicate payloads that land on the same
    worker skip recomputation; extraction is deterministic, so duplicates
    that land on different workers still produce identical bytes."""

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


#: Rows per extraction task batch.
BATCH_SIZE = 256


def extract_batch_task(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    return worker_state("extract", cfg, lambda: ExtractActor(cfg))(batch)


def add_extract_stage(ds, cfg: ExtractConfig | None = None,
                      num_gpus: float | None = None,
                      ray_remote_args: dict | None = None):
    """Attach the route-dispatched extraction stage: a plain-function
    ``map_batches`` on Ray's pre-started, reused task workers, with warm
    state held by ``state.worker.worker_state``.

    Device placement (reference ``config.py:81-90`` ``device=auto``):
    ``num_gpus`` reserves GPU fractions per task and any extra
    ``ray_remote_args`` (``resources={...}``, ``accelerator_type``,
    ``scheduling_strategy``, ...) pass straight through to
    ``map_batches``, so the heavy stage deploys unchanged on a GPU
    cluster — on this CPU-only test box both default to unset.
    """
    cfg = cfg or DEFAULT_CONFIG
    remote_args = dict(ray_remote_args or {})
    if num_gpus is not None:
        remote_args["num_gpus"] = num_gpus
    return ds.map_batches(
        extract_batch_task,
        fn_kwargs={"cfg": cfg},
        batch_format="pyarrow",
        batch_size=BATCH_SIZE,
        **remote_args,
    )
