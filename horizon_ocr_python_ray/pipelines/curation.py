"""The curation funnel: one streaming pass from raw crawl to training-
ready document counts.

Composes the engine's curation operators in the order a Common-Crawl
training-data pipeline applies them, and reports the funnel — how many
pages survive each gate:

1. ``extracted``   — pages that produced text (the extraction pipeline);
2. ``url_dedup``   — earliest crawl per canonical URL (tracking-variant
   re-crawls collapse, `functions/urlnorm.py`);
3. ``content_dedup`` — one representative per content hash (byte-dup
   payloads under different URLs collapse; rep = min url);
4. ``lang_en``     — language-ID gate (`functions/textstats.lang_id`);
5. ``quality``     — minimum token count;
6. ``train``       — the stable md5 train split (`stages/sampling.py`).

Scale shape: a single streaming pass with exactly two narrow shuffles
(canonical_url, then content_hash over the url-reps only — each carries
hash/url/ts/flag columns, never payloads). Stage counts ride along as
group sizes folded into the representative rows, so the funnel needs no
re-execution per stage and no driver-side pass: the final 6-row table
comes out of one tiny aggregation.

Both dedup reductions are expressed as hash AGGREGATES, not
``map_groups``: the representative row is argmin by (warc_ts, url)
(then min url for the content stage), which packs into a single
lexicographically-ordered string — zero-padded epoch-micros ++ NUL ++
url ++ NUL ++ payload — so ``Min(packed)`` + ``Count`` computes the rep
and the group size in one combiner-backed exchange. Per-group Python
calls (one per distinct URL — millions at corpus scale) drop out
entirely; pack/unpack are vectorized Arrow kernels.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions.textstats import lang_id, token_count
from ..functions.urlnorm import canonicalize_urls
from ..functions.fasthash import md5_number_lower
from ..stages.sampling import EVAL_PERMILLE_DEFAULT
from .extract import build_extract_pipeline

#: Quality gate: minimum whitespace tokens for a training document.
MIN_TOKENS_DEFAULT = 30


def _enrich(batch: pa.Table, min_tokens: int, eval_permille: int) -> pa.Table:
    texts = batch.column("extracted_text").to_pylist()
    urls = batch.column("url").to_pylist()
    langs = [lang_id(t or "") for t in texts]
    toks = [token_count(t or "") for t in texts]
    train = [md5_number_lower(u) % 1000 >= eval_permille for u in urls]
    return (batch
            .append_column("canonical_url", canonicalize_urls(batch.column("url")))
            .append_column("pred_lang", pa.array(langs, pa.string()))
            .append_column("n_tokens", pa.array(toks, pa.int64()))
            .append_column("is_train", pa.array(train, pa.bool_())))


_SEP = "\x00"  # URLs/hashes/langs cannot contain NUL → prefix-safe packing


def _pack_stage1(batch: pa.Table) -> pa.Table:
    """(enriched row) → (canonical_url, packed) — the 2-column shuffle.

    ``min(packed)`` == argmin by (warc_ts, url): epoch-micros are
    zero-padded to fixed width, and the NUL after the url sorts below
    any url byte, so a prefix url wins ties exactly like the tuple sort.
    """
    ts = pc.utf8_lpad(
        pc.cast(pc.cast(batch.column("warc_ts"), pa.int64()), pa.string()),
        20, padding="0")
    packed = pc.binary_join_element_wise(
        ts, batch.column("url"), batch.column("content_hash"),
        batch.column("pred_lang"),
        pc.cast(batch.column("n_tokens"), pa.string()),
        pc.if_else(batch.column("is_train"), "1", "0"),
        _SEP)
    return pa.table({"canonical_url": batch.column("canonical_url"),
                     "packed": packed})


def _repack_stage2(batch: pa.Table) -> pa.Table:
    """url-rep rows → (content_hash, packed2, n_pages_url): min(packed2)
    == the min-url rep among a content group."""
    parts = pc.split_pattern(batch.column("rep"), _SEP)
    packed2 = pc.binary_join_element_wise(
        pc.list_element(parts, 1),   # url
        pc.list_element(parts, 3),   # pred_lang
        pc.list_element(parts, 4),   # n_tokens
        pc.list_element(parts, 5),   # is_train flag
        _SEP)
    return pa.table({"content_hash": pc.list_element(parts, 2),
                     "packed2": packed2,
                     "n_pages_url": batch.column("n_pages_url")})


def curation_funnel(pages_ds, cfg: ExtractConfig | None = None,
                    min_tokens: int = MIN_TOKENS_DEFAULT,
                    eval_permille: int = EVAL_PERMILLE_DEFAULT):
    """pages → 6-row funnel table (stage, n_rows), single streaming pass."""
    from ..stages.hashagg import grouped_aggregate

    cfg = cfg or DEFAULT_CONFIG
    out = build_extract_pipeline(pages_ds, cfg)
    enriched = out.map_batches(
        lambda t: _enrich(t, min_tokens, eval_permille), batch_format="pyarrow"
    ).select_columns(["url", "warc_ts", "canonical_url", "content_hash",
                      "pred_lang", "n_tokens", "is_train"])

    url_reps = grouped_aggregate(
        enriched.map_batches(_pack_stage1, batch_format="pyarrow"),
        "canonical_url",
        [("packed", "min", "rep"), ("canonical_url", "count", "n_pages_url")])
    content_reps = grouped_aggregate(
        url_reps.map_batches(_repack_stage2, batch_format="pyarrow"),
        "content_hash",
        [("packed2", "min", "rep2"), ("n_pages_url", "sum", "n_pages_total"),
         ("content_hash", "count", "n_url_reps")])

    def funnel_partial(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("rep2"), _SEP)
        lang = pc.list_element(parts, 1)
        ntok = pc.cast(pc.list_element(parts, 2), pa.int64())
        is_train = pc.equal(pc.list_element(parts, 3), "1")
        en = pc.equal(lang, "en")
        qual = pc.and_(en, pc.greater_equal(ntok, min_tokens))
        train = pc.and_(qual, is_train)
        vals = [
            pc.sum(t.column("n_pages_total")).as_py() or 0,
            pc.sum(t.column("n_url_reps")).as_py() or 0,
            t.num_rows,
            pc.sum(pc.cast(en, pa.int64())).as_py() or 0,
            pc.sum(pc.cast(qual, pa.int64())).as_py() or 0,
            pc.sum(pc.cast(train, pa.int64())).as_py() or 0,
        ]
        return pa.Table.from_arrays(
            [pa.array(list(range(1, 7)), pa.int64()),
             pa.array(vals, pa.int64())],
            names=["stage_idx", "partial"],
        )

    partials = content_reps.map_batches(funnel_partial, batch_format="pyarrow")
    from ray.data.aggregate import Sum

    agg = partials.groupby("stage_idx").aggregate(Sum("partial", alias_name="n_rows"))

    _STAGES = ["extracted", "url_dedup", "content_dedup", "lang_en", "quality", "train"]

    def name_stages(t: pa.Table) -> pa.Table:
        idx = t.column("stage_idx").to_pylist()
        return pa.Table.from_arrays(
            [t.column("stage_idx"),
             pa.array([_STAGES[i - 1] for i in idx], pa.string()),
             t.column("n_rows")],
            names=["stage_idx", "stage", "n_rows"],
        )

    return agg.map_batches(name_stages, batch_format="pyarrow")
