"""Flagship pipeline: Common-Crawl-style pages → extracted main content.

Ray-native lifecycle (SURVEY.md §3, "Ray-native restatement"):

    read_parquet(pages)                       # url, warc_ts, html, text, lang
      → map_batches(sniff_and_route)          # route + content_hash columns
      → [narrow dup-registry pass]            # groupby over 4 thin columns
        (payload column never shuffles; registry broadcast via ray.put)
      → map_batches(DropDups)                 # skip non-representative dups
      → map_batches(ExtractActor)             # route-dispatched extraction
      → map_batches(FanOut)                   # re-emit dup members' rows
      → write_parquet / downstream stages

``variant`` picks the dedup/extract shape (default from
``DedupConfig.strategy``): ``"combined"`` is one streaming pass with a
per-actor content-hash memo; ``"registry"`` adds the bracketed
dup-registry pre-pass above; ``"grouped"`` uses the reference-shaped
wide ``groupby(content_hash)`` collapse (``stages/dedup.py`` grouped
variant); ``"staged"`` swaps the combined extractor for the
page-fan-out actor pipeline (``stages/staged.py``). All four are
byte-identical.
"""

from __future__ import annotations

import os

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..stages.dedup import (
    RESULT_COLS,
    build_dup_registry,
    dedup_collapse,
    drop_dup_members_stage,
    explode_members,
    fanout_dup_results_stage,
)
from ..stages.extract_stage import add_extract_stage
from ..stages.route import add_sniff_stage
from ..stages.staged import build_staged_pipeline


def read_pages(source: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a pages table. ``source`` is a parquet file/dir (the synthetic
    corpus keeps its pages under ``<dir>/pages``).

    Large inputs are split into ~2k-row blocks, capped at 16 blocks per
    CPU: the extract UDF's per-task wall time varies ~3× with the route
    mix of a block (binary doc payloads vs cheap html rows), and at the
    default ~8k-row blocks that spread costs ~13% of the 32-CPU wall in
    straggler tail (measured at sf4 in BASELINE.md). Small inputs
    (fewer than ~2 blocks per CPU at that sizing) keep Ray's defaults."""
    path = source
    sub = os.path.join(source, "pages")
    if os.path.isdir(sub):
        path = sub
    num_blocks = None
    try:
        import pyarrow.dataset as pads

        rows = pads.dataset(path).count_rows()  # parquet metadata only
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        if rows // 2000 >= cpus * 2:
            num_blocks = min(16 * cpus, rows // 2000)
    except Exception:
        num_blocks = None
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=num_blocks)


def build_extract_pipeline(
    pages: ray.data.Dataset,
    cfg: ExtractConfig | None = None,
    dedup: bool | None = None,
    variant: str | None = None,
) -> ray.data.Dataset:
    """pages dataset → extraction results
    (url, warc_ts, lang, route, content_hash, extracted_text, spans, error).

    ``variant``: ``"combined"`` (single-pass actor-cache dedup — default),
    ``"registry"`` (broadcast dup-registry pre-pass), ``"grouped"`` (wide
    groupby collapse), ``"staged"`` (page fan-out/fan-in actor pipeline).
    All byte-identical; see ``DedupConfig`` for the trade-offs.
    """
    cfg = cfg or DEFAULT_CONFIG
    use_dedup = cfg.dedup.enabled if dedup is None else dedup
    if variant is None:
        variant = {"actor_cache": "combined", "registry": "registry",
                   "grouped": "grouped"}.get(cfg.dedup.strategy, "combined")
    ds = add_sniff_stage(pages, cfg.runtime.sniff_batch_size)
    if variant == "staged":
        # Staged variant extracts every row independently (identical bytes
        # → identical output), demonstrating page fan-out/fan-in.
        return build_staged_pipeline(ds, cfg)
    if variant == "grouped" and use_dedup:
        # Reference-shaped wide collapse: shuffles payloads; fallback for
        # corpora whose dup registry cannot be broadcast.
        ds = dedup_collapse(ds)
        ds = add_extract_stage(ds, cfg)
        return ds.map_batches(explode_members, batch_format="pyarrow")
    if variant == "registry" and use_dedup:
        import ray

        try:
            # Metadata-only count for fresh parquet reads; used to pick the
            # registry discovery path (driver single-pass vs distributed).
            approx_rows = pages.count()
        except Exception:
            approx_rows = None
        drop_urls, fanout = build_dup_registry(ds, approx_rows=approx_rows)
        if drop_urls:
            registry_ref = ray.put((drop_urls, fanout))
            ds = drop_dup_members_stage(ds, registry_ref)
            ds = add_extract_stage(ds, cfg)
            return fanout_dup_results_stage(ds, registry_ref)
    # combined: ONE streaming pass; per-actor content-hash memo handles
    # duplicate recompute (DedupConfig.strategy == "actor_cache").
    ds = add_extract_stage(ds, cfg)
    return ds.select_columns(RESULT_COLS)
