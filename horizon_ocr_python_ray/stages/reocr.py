"""Targeted re-OCR over real page rasters: strategy ladder + two-head
content-type routing.

The Ray-Data re-expression of the reference's ``TargetedReOCR``
(``/root/reference/docvision/ocr/targeted_reocr.py``) and its per-line
content-type recognition routing (``ocr/trocr.py:193-200``), operating
on REAL pixels end to end:

1. each binary document payload page is rasterized
   (``functions/raster.py:rasterize_page`` — the PDF-rasterize analog,
   ``io/pdf.py:117-142``);
2. every line is cropped with padding (``targeted_reocr.py:crop_region``
   semantics: pad 8 px, min 10×10) and routed by the PIXEL content-type
   detector (baseline-jitter statistic) to the printed or handwritten
   recognition head — lines are grouped per head and recognized per
   group, mirroring the reference's batch grouping;
3. first-pass confidence is DERIVED from the crop's pixel statistics
   (``crop_features`` → ``confidence_from_features``), never read from
   the payload;
4. lines under the 0.70 threshold are selected worst-first up to 50 per
   page, enhanced with the aggressive preprocess chain
   (upscale 2× → denoise → CLAHE 3.0 → unsharp 2.0 → adaptive binarize
   → 2×2 open; every kernel real, ``functions/imageproc.py``), and
   re-recognized under each strategy of the reference ladder:

   - ``ensemble``      — both engines, pick the best (strict > accept)
   - ``primary_only``  — routed primary head only (TrOCR-only analog)
   - ``secondary_only``— threshold-engine head only (Tesseract analog)
   - ``sequential``    — primary if it clears old + margin, else
     fall back to secondary (strict > accept)

   A line counts as IMPROVED when its accepted confidence gained at
   least the 0.05 margin (``ReOCRConfig.improvement_threshold``) —
   only improved lines update, exactly like ``process_local``.

Ray shape: a stateless vectorized batch fn over payload rows (pure
numpy kernels — no model state to warm, so a task pool beats an actor
pool), emitting per-batch PARTIAL counters per strategy folded by a
tiny 4-key groupby. Per-page work never leaves the task; only the
counter rows shuffle.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

from ..functions.docformat import DOC_MAGIC, decode_doc_payload, decode_glyphs
from ..functions.imageproc import crop_bbox
from ..functions.raster import (
    RASTER_SCALE,
    SCRIPT_JITTER_THRESHOLD,
    confidence_from_features,
    crop_features,
    enhance_crop,
    rasterize_page,
)

#: Reference ``ReOCRConfig`` defaults (targeted_reocr.py:44-77).
CONFIDENCE_THRESHOLD = 0.70
IMPROVEMENT_MARGIN = 0.05
MAX_REOCR_LINES = 50
CROP_PAD = 8
MIN_CROP_H, MIN_CROP_W = 10, 10

STRATEGIES = ("ensemble", "primary_only", "secondary_only", "sequential")

_COUNT_FIELDS = ("n_pages", "n_lines", "n_selected", "n_improved",
                 "n_failed", "improved_primary", "improved_secondary",
                 "sum_gain_e4")

REOCR_SCHEMA = pa.schema(
    [("strategy", pa.string())] + [(f, pa.int64()) for f in _COUNT_FIELDS])


def _line_hypothesis(rec: dict) -> tuple[str, int, int]:
    """(decoded text, n_chars, n_words) — the recognition hypothesis."""
    text = decode_glyphs(rec["g"])
    return text, max(1, len(text)), max(1, len(text.split()))


def _crop(img: np.ndarray, bbox: list[float]) -> np.ndarray | None:
    b = [float(v) * RASTER_SCALE for v in bbox]
    c = crop_bbox(img, b, padding=CROP_PAD)
    if c.shape[0] < MIN_CROP_H or c.shape[1] < MIN_CROP_W:
        return None
    return c


def reocr_page(page: dict, key: str,
               img: np.ndarray | None = None
               ) -> dict[str, list[dict[str, Any]]]:
    """Run the full ladder on one decoded payload page.

    Returns {strategy: [per-line result dicts]} where each dict carries
    ``{"idx", "text", "old_conf", "new_conf", "accepted_engine",
    "improved"}`` for every SELECTED line (reference ``ReOCRResult``
    fields). Non-selected lines are not re-processed. ``img`` lets a
    caller that already rasterized the page (the render dominates
    per-page cost) reuse it instead of paying a second render.
    """
    if img is None:
        img = rasterize_page(page, key)
    lines = page["lines"]

    # -- first pass: crop, extract pixel features ONCE per line, route
    # by the jitter feature to a head, then score per routed group (the
    # trocr.py:193-200 shape: lines batch per head, not per line) --
    crops: list[np.ndarray | None] = []
    heads: list[str] = []
    hyps: list[tuple[str, int, int]] = []
    feats: list[tuple | None] = []
    for rec in lines:
        c = _crop(img, rec["bbox"])
        crops.append(c)
        f = None if c is None else crop_features(c)
        feats.append(f)
        heads.append("printed" if f is None else
                     ("handwritten" if f[3] > SCRIPT_JITTER_THRESHOLD
                      else "printed"))
        hyps.append(_line_hypothesis(rec))
    first_conf: list[float] = [0.0] * len(lines)
    for head in ("printed", "handwritten"):
        for i in (i for i, h in enumerate(heads)
                  if h == head and feats[i] is not None):
            _, nch, nw = hyps[i]
            first_conf[i] = confidence_from_features(feats[i], nch, nw, head)

    # -- selection: worst-first under threshold, per-page cap --
    low = [i for i in range(len(lines))
           if crops[i] is not None and first_conf[i] < CONFIDENCE_THRESHOLD]
    low.sort(key=lambda i: (first_conf[i], i))
    selected = low[:MAX_REOCR_LINES]

    out: dict[str, list[dict[str, Any]]] = {s: [] for s in STRATEGIES}
    for i in selected:
        text, nch, nw = hyps[i]
        old = first_conf[i]
        ef = crop_features(enhance_crop(crops[i]))
        prim = confidence_from_features(ef, nch, nw, heads[i])
        sec = confidence_from_features(ef, nch, nw, "secondary")
        for strat in STRATEGIES:
            new, engine = old, ""
            if strat == "ensemble":
                if prim > new:
                    new, engine = prim, "primary"
                if sec > new:
                    new, engine = sec, "secondary"
            elif strat == "primary_only":
                if prim > old:
                    new, engine = prim, "primary"
            elif strat == "secondary_only":
                if sec > old:
                    new, engine = sec, "secondary"
            else:  # sequential: primary must clear old + margin, else fall back
                if prim > old + IMPROVEMENT_MARGIN:
                    new, engine = prim, "primary"
                elif sec > old:
                    new, engine = sec, "secondary"
            improved = (new - old) >= IMPROVEMENT_MARGIN
            out[strat].append({
                "idx": i, "text": text, "old_conf": old, "new_conf": new,
                "accepted_engine": engine, "improved": improved,
            })
    return out


def _payload_batch_counts(t: pa.Table) -> pa.Table:
    """Batch fn: doc payload rows → per-strategy partial counter rows."""
    agg = {s: dict.fromkeys(_COUNT_FIELDS, 0) for s in STRATEGIES}
    urls = t.column("url").to_pylist()
    payloads = t.column("html").to_pylist()
    for url, payload in zip(urls, payloads):
        if payload is None or not payload.startswith(DOC_MAGIC):
            continue
        try:
            pages = decode_doc_payload(payload)
        except (ValueError, KeyError):
            continue  # corrupt payloads surface via the extract pipeline
        for page in pages:
            key = f"{url}:{page.get('page', 0)}"
            results = reocr_page(page, key)
            n_lines = len(page["lines"])
            for s in STRATEGIES:
                a = agg[s]
                a["n_pages"] += 1
                a["n_lines"] += n_lines
                for r in results[s]:
                    a["n_selected"] += 1
                    if r["improved"]:
                        a["n_improved"] += 1
                        if r["accepted_engine"] == "primary":
                            a["improved_primary"] += 1
                        elif r["accepted_engine"] == "secondary":
                            a["improved_secondary"] += 1
                        a["sum_gain_e4"] += int(round(
                            (r["new_conf"] - r["old_conf"]) * 10_000))
                    else:
                        a["n_failed"] += 1
    cols: dict[str, list] = {"strategy": list(STRATEGIES)}
    for f in _COUNT_FIELDS:
        cols[f] = [agg[s][f] for s in STRATEGIES]
    return pa.Table.from_pydict(cols, schema=REOCR_SCHEMA)


def build_reocr_pipeline(pages_ds) -> pa.Table:
    """pages dataset → per-strategy re-OCR ladder counters (4 rows).

    One streaming pass: the raster/kernel work happens inside the batch
    fn (parallel across payload batches); each batch emits exactly 4
    partial rows, so the final merge is a PROVABLY-SMALL driver fold
    (``functions/collect.fold_capped``: Arrow group-sum, at most one row
    per strategy) — a ``groupby("strategy")`` here would ship 4-row
    partials through the full sort exchange and pay its multi-second
    executor spin-up on what is a 4-key monoid fold."""
    from ..functions.collect import fold_capped

    partials = pages_ds.map_batches(
        _payload_batch_counts, batch_format="pyarrow", batch_size=32)
    merged, _ = fold_capped(partials, REOCR_SCHEMA, ["strategy"],
                            [(f, "sum") for f in _COUNT_FIELDS], len(STRATEGIES))
    return merged.sort_by("strategy")
