"""Deterministic page rasterizer — the PDF-rasterize analog.

The reference rasterizes PDF pages to pixel arrays before OCR
(``/root/reference/docvision/io/pdf.py:117-142``). Our binary document
payloads (``functions/docformat.py``) are vector-like page descriptions
(line records with text, bbox, and a planted print-quality score), so the
sandbox equivalent of "rasterize" is rendering those records to a real
uint8 raster: paper tone with an illumination gradient, per-character
glyph boxes, and per-line degradation (faint ink, blur, specks) driven by
the record's print quality. Everything downstream of this function —
content-type detection, pixel-derived recognition confidence, the
targeted re-OCR ladder (``stages/reocr.py``) — operates on these real
pixels with the real preprocess kernels (``functions/imageproc.py``),
not on planted values.

Print-quality mapping: a record's ``conf`` field is the substrate's
ground truth of how legible the line was printed. The rasterizer consumes
it as a RENDERING parameter (ink darkness / blur / speck density); the
recognition path never reads it — first-pass confidences are re-derived
from the rendered pixels by :func:`crop_features` and
:func:`confidence_from_features`.

Content type: ~1 in 4 lines renders "handwritten" (per-character
baseline jitter + irregular glyph heights), decided by a hash of the
glyph string so it is a property of the line, not of the render call.
The router (:data:`SCRIPT_JITTER_THRESHOLD`) must recover it from pixels.
"""

from __future__ import annotations

import zlib

import numpy as np

from .imageproc import (
    binarize_adaptive,
    clahe,
    median_filter3,
    resize_nearest,
    unsharp_mask,
)

#: Render scale: page coords (1000×1400) → raster pixels. 1.0 keeps a
#: char cell at 8 px so word gaps survive a 3×3 blur — the preprocess
#: chain can genuinely recover mid-degraded lines (a 0.5× render
#: destroys word boundaries beyond what any enhancement can undo).
RASTER_SCALE = 1.0

#: Glyph-string hash bucket that renders as handwritten (~25% of lines).
_HW_BUCKETS = (0,)
_HW_MOD = 4

PAPER = 245


def is_handwritten_line(glyphs: str) -> bool:
    """Deterministic content-type of a line record (hash of its glyph
    string — a property of the line, recoverable from its rendering)."""
    return (zlib.crc32(glyphs.encode("ascii")) % _HW_MOD) in _HW_BUCKETS


def _line_rng(key: str, idx: int) -> np.random.Generator:
    return np.random.default_rng(
        [zlib.crc32(key.encode("utf-8")), zlib.crc32(str(idx).encode()), 7])


def rasterize_page(page: dict, key: str,
                   scale: float = RASTER_SCALE) -> np.ndarray:
    """Render one decoded payload page → HxW uint8 grayscale raster.

    ``page`` is a decoded doc/image payload page
    (``{"w", "h", "lines": [{"g", "bbox", "conf", ...}]}``); ``key``
    seeds the per-page noise deterministically (use url:page_no)."""
    w = max(8, int(round(float(page["w"]) * scale)))
    h = max(8, int(round(float(page["h"]) * scale)))
    rng = _line_rng(key, -1)
    gx, gy = int(rng.integers(0, 5)), int(rng.integers(0, 7))
    col_g = (np.arange(w, dtype=np.int64) * gx) // w
    row_g = (np.arange(h, dtype=np.int64) * gy) // h
    img = np.full((h, w), float(PAPER))
    img -= col_g[None, :]
    img -= row_g[:, None]

    for idx, rec in enumerate(page["lines"]):
        q = float(rec["conf"])
        glyphs = rec["g"]
        x1, y1, x2, y2 = (float(v) * scale for v in rec["bbox"])
        xi1, yi1 = max(0, int(x1)), max(0, int(y1))
        xi2, yi2 = min(w, int(round(x2))), min(h, int(round(y2)))
        if xi2 - xi1 < 2 or yi2 - yi1 < 2:
            continue
        import base64

        n_chars = max(1, len(base64.b64decode(glyphs.encode("ascii"))))
        lrng = _line_rng(key, idx)
        hw = is_handwritten_line(glyphs)
        # legible print is near-black; low print quality renders faint
        ink = 30.0 if q >= 0.85 else min(185.0, 30.0 + (0.9 - q) * 230.0)
        cw = (xi2 - xi1) / n_chars
        gh = max(2, int(round((yi2 - yi1) * 0.55)))
        base_y = yi1 + (yi2 - yi1 - gh) // 2
        gw = max(1, int(round(cw * 0.72)))
        if not hw:
            # printed: one shared baseline — draw all glyph boxes with a
            # single fancy-index assignment (no per-char Python loop)
            starts = xi1 + np.round(np.arange(n_chars) * cw).astype(np.int64)
            cols = (starts[:, None] + np.arange(gw)[None, :]).reshape(-1)
            cols = np.unique(cols[cols < xi2])
            gy1 = max(yi1, min(base_y, yi2 - 2))
            img[gy1:min(yi2, gy1 + gh), cols] = ink
        else:
            for c in range(n_chars):
                cx1 = xi1 + int(round(c * cw))
                cx2 = min(xi2, cx1 + gw)
                if cx2 <= cx1:
                    continue
                gy1 = base_y + int(lrng.integers(-gh // 2 - 1, gh // 2 + 2))
                gh_c = max(2, gh + int(lrng.integers(-gh // 3 - 1, gh // 3 + 2)))
                gy1 = max(yi1, min(gy1, yi2 - 2))
                gy2 = min(yi2, gy1 + gh_c)
                img[gy1:gy2, cx1:cx2] = ink
        if q < 0.70:
            # degraded print: box-blur the line region, then specks.
            # Badly-printed lines (q < 0.5) blur twice and speck ~4×
            # as densely — those stay unrecoverable even under the
            # aggressive re-OCR preprocess chain, so the strategy
            # ladder has genuine failures, not just wins.
            n_blur = 2 if q < 0.5 else 1
            for _ in range(n_blur):
                reg = img[yi1:yi2, xi1:xi2]
                p = np.pad(reg, 1, mode="edge")
                img[yi1:yi2, xi1:xi2] = (
                    p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
                    + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
                    + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]) / 9.0
            n_spk = int((yi2 - yi1) * (xi2 - xi1) * (0.70 - q)
                        * (0.25 if q < 0.5 else 0.06))
            if n_spk:
                sy = lrng.integers(yi1, yi2, n_spk)
                sx = lrng.integers(xi1, xi2, n_spk)
                img[sy, sx] = lrng.integers(40, 220, n_spk)
            if q < 0.45:
                # the worst print additionally carries 2×2 ink BLOBS —
                # structured noise a 2×2 morphological open cannot
                # remove, so these lines stay unrecoverable (genuine
                # re-OCR failures, not just wins)
                n_blob = int((yi2 - yi1) * (xi2 - xi1) * (0.45 - q) * 0.12)
                if n_blob:
                    by = lrng.integers(yi1, max(yi1 + 1, yi2 - 1), n_blob)
                    bx = lrng.integers(xi1, max(xi1 + 1, xi2 - 1), n_blob)
                    v = lrng.integers(30, 120, n_blob)
                    for dy in (0, 1):
                        for dx in (0, 1):
                            img[np.minimum(by + dy, h - 1),
                                np.minimum(bx + dx, w - 1)] = v
    return np.clip(img, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Pixel statistics: confidence + content-type routing
# ---------------------------------------------------------------------------

def crop_features(gray: np.ndarray) -> tuple[float, int, float, float]:
    """One-pass pixel features of a text crop: (sep, runs, iso, jitter).

    - ``sep``: ink separation — (median paper − p10 ink) / 255.
    - ``runs``: count of column ink runs (for the glyph-structure fit).
    - ``iso``: isolated-ink fraction (≤1 eight-neighbour) — speck noise
      that survives preprocessing.
    - ``jitter``: std of per-column ink centroids / crop height — the
      irregular-baseline statistic the content-type router keys on.
    """
    if gray.size == 0 or gray.shape[0] < 3:
        return 0.0, 0, 1.0, 0.0
    g = gray.astype(np.float64)
    lo10, paper = (float(v) for v in np.percentile(g, (10, 50)))
    sep = max(0.0, (paper - lo10) / 255.0)
    mask = g < paper - 40.0
    col_ink = mask.sum(axis=0)
    col = col_ink > 0.12 * mask.shape[0]
    runs = int(np.count_nonzero(col[1:] & ~col[:-1])
               + (1 if col.size and col[0] else 0))
    ink = int(mask.sum())
    if ink == 0:
        return sep, runs, 1.0, 0.0
    m = mask.astype(np.int8)
    p = np.pad(m, 1)
    nb = sum(p[1 + dy:1 + dy + m.shape[0], 1 + dx:1 + dx + m.shape[1]]
             for dy in (-1, 0, 1) for dx in (-1, 0, 1)) - m
    iso = float(((nb <= 1) & mask).sum() / ink)
    cols = col_ink > 0
    jitter = 0.0
    if cols.sum() >= 4:
        rows = np.arange(g.shape[0], dtype=np.float64)[:, None]
        centroid = (mask * rows).sum(axis=0)[cols] / col_ink[cols]
        jitter = float(centroid.std() / g.shape[0])
    return sep, runs, iso, jitter


def match_from_runs(runs: int, n_chars: int, n_words: int) -> float:
    """Phase-free glyph-structure fit: the count of column ink runs must
    land in the plausibility band of the decoded text,
    [word count, 1.25 × char count] (a recognizer's confidence IS how
    well the pixels fit its decoded hypothesis: heavy blur merges words
    into fewer blobs than words, speck noise fragments into more runs
    than characters; both fall outside the band)."""
    lo, hi = max(1, n_words), max(1, n_chars) * 1.25
    if lo <= runs <= hi:
        return 1.0
    if runs < lo:
        return runs / lo
    return max(0.0, 1.0 - (runs - hi) / max(n_chars, 1))


#: Content-type router threshold on the baseline-jitter feature (std of
#: per-column ink centroids / crop height): printed baselines measure
#: ≲0.04, handwritten ≳0.10. Above it a line routes to the handwritten
#: head — the per-line analog of the reference's content classifier that
#: drives two-head recognition batching (``ocr/trocr.py:193-200``).
SCRIPT_JITTER_THRESHOLD = 0.07


def confidence_from_features(feats: tuple[float, int, float, float],
                             n_chars: int, n_words: int,
                             head: str = "printed") -> float:
    """Head confidence from precomputed :func:`crop_features`.

    Heads respond differently to the same pixels (that is what makes
    the ensemble/sequential strategies meaningful):

    - ``printed``: transformer-style primary head; strongest overall,
      but penalized by baseline jitter (trained on straight baselines).
    - ``handwritten``: the primary head's script variant; jitter-blind
      with a flat penalty (harder task).
    - ``secondary``: the thresholding-engine analog (Tesseract);
      thrives on clean bimodal crops, collapses on irregular baselines.
    """
    sep, runs, iso, jitter = feats
    match = match_from_runs(runs, n_chars, n_words)
    base = (sep ** 0.7) * match * max(0.0, 1.0 - 3.0 * iso)
    if head == "secondary":
        conf = ((sep ** 0.5) * (0.3 + 0.7 * match)
                * max(0.0, 1.0 - 3.0 * iso) * max(0.05, 1.0 - 4.0 * jitter))
    elif head == "handwritten":
        conf = base * 0.93
    else:  # printed
        conf = base * max(0.1, 1.0 - 3.0 * jitter)
    return round(float(np.clip(conf, 0.01, 0.999)), 4)


# ---------------------------------------------------------------------------
# Enhanced preprocessing for re-OCR (reference ReOCRConfig defaults)
# ---------------------------------------------------------------------------

def _fast_unsharp(gray: np.ndarray, strength: float = 2.0,
                  sigma: float = 1.0) -> np.ndarray:
    """Vectorized unsharp mask — same kernel/weights as
    ``imageproc.unsharp_mask`` but the separable convolution is a
    shifted-slice sum (no per-row Python loop), ~20× faster on the
    re-OCR hot path. Kept local so the byte-stable goldens that depend
    on ``imageproc``'s summation order are untouched."""
    radius = max(1, int(round(3 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x ** 2) / (2 * sigma ** 2))
    k /= k.sum()
    g = gray.astype(np.float64)
    h, w = g.shape
    p = np.pad(g, ((0, 0), (radius, radius)), mode="edge")
    blur = sum(k[j] * p[:, j:j + w] for j in range(2 * radius + 1))
    p = np.pad(blur, ((radius, radius), (0, 0)), mode="edge")
    blur = sum(k[j] * p[j:j + h, :] for j in range(2 * radius + 1))
    out = g * strength - blur * (strength - 1.0)
    return np.clip(out, 0, 255).astype(np.uint8)


def _morph_open2(gray: np.ndarray) -> np.ndarray:
    """2×2 morphological open (erode then dilate) — speck cleanup."""
    if gray.shape[0] < 2 or gray.shape[1] < 2:
        return gray
    a = gray
    er = np.minimum.reduce([a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]])
    er = np.pad(er, ((0, 1), (0, 1)), mode="edge")
    di = np.maximum.reduce([er[:-1, :-1], er[:-1, 1:], er[1:, :-1], er[1:, 1:]])
    return np.pad(di, ((0, 1), (0, 1)), mode="edge")


def enhance_crop(gray: np.ndarray, scale_factor: float = 2.0,
                 clahe_clip: float = 3.0, sharpen: float = 2.0,
                 binarize: bool = True, morphology: bool = True) -> np.ndarray:
    """The aggressive re-OCR preprocess chain
    (``targeted_reocr.py:apply_enhanced_preprocessing``): upscale →
    denoise → CLAHE(3.0) → unsharp(2.0) → adaptive binarize → 2×2 open.
    Every kernel is the real numpy implementation from
    ``functions/imageproc.py``."""
    out = gray
    if scale_factor > 1.0:
        out = resize_nearest(out, int(out.shape[0] * scale_factor),
                             int(out.shape[1] * scale_factor))
    out = median_filter3(out)
    out = clahe(out, clip_limit=clahe_clip)
    out = _fast_unsharp(out, strength=sharpen)
    if binarize:
        out = binarize_adaptive(out)
    if morphology:
        out = _morph_open2(out)
    return out
