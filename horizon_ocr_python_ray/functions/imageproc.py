"""Real numpy image-preprocessing kernels (no OpenCV in this container).

Re-expresses the reference's preprocess subsystem
(``/root/reference/docvision/preprocess/enhance.py`` and
``preprocess/geometry.py``) as self-contained numpy algorithms with the
reference's published thresholds:

- M1 ``preprocess_for_ocr`` fused chain in the documented order
  dewarp → deskew → denoise → CLAHE → sharpen (``enhance.py:380-385``);
- M2 denoise — 3×3 median filter (the reference uses OpenCV NLM; the
  numpy stand-in plays the same role, documented deviation);
- M3 CLAHE — real contrast-limited adaptive histogram equalization,
  clip 2.0, 8×8 tiles, bilinear interpolation between tile mappings
  (``enhance.py:72-112``);
- M4 unsharp mask ``img·s − blur·(s−1)`` (``enhance.py:115-144``);
- M5 adaptive binarization (mean-of-block via integral image; the
  reference uses the Gaussian variant — documented deviation)
  (``enhance.py:147-190``);
- M6 noise level — Laplacian variance (``enhance.py:193-216``);
- M8 ``assess_readability`` — contrast<30, laplacian-var<100,
  brightness<50/>230, noise>1000, size<500 → good/fair/poor
  (``enhance.py:311-365``);
- M9/M10 page-quad detection + 4-point ordering + perspective warp
  (``geometry.py:22-165``);
- M11 deskew — projection-profile angle search ±15°, skip below 0.1°
  (the reference uses HoughLinesP median angle; same ±15°/0.1°
  thresholds) (``geometry.py:168-282``);
- M12 ``crop_to_content`` — threshold + bounding rect
  (``geometry.py:285-328``).

All kernels take/return uint8 arrays (grayscale ``(H, W)`` or color
``(H, W, C)``) and are deterministic.
"""

from __future__ import annotations

import numpy as np

DESKEW_MAX_ANGLE = 15.0
DESKEW_MIN_ANGLE = 0.1
CLAHE_CLIP_LIMIT = 2.0
CLAHE_TILES = 8
SHARPEN_STRENGTH = 1.5
READABILITY_MIN_CONTRAST = 30.0
READABILITY_MIN_LAPLACIAN_VAR = 100.0
READABILITY_MIN_BRIGHTNESS = 50.0
READABILITY_MAX_BRIGHTNESS = 230.0
READABILITY_MAX_NOISE = 1000.0
READABILITY_MIN_SIZE = 500


def to_gray(img: np.ndarray) -> np.ndarray:
    """BGR → grayscale uint8 (OpenCV luma weights)."""
    if img.ndim == 2:
        return img.astype(np.uint8, copy=False)
    b, g, r = img[..., 0].astype(np.float64), img[..., 1].astype(np.float64), img[..., 2].astype(np.float64)
    return np.clip(0.114 * b + 0.587 * g + 0.299 * r, 0, 255).astype(np.uint8)


def _per_channel(img: np.ndarray, fn) -> np.ndarray:
    if img.ndim == 2:
        return fn(img)
    return np.stack([fn(img[..., c]) for c in range(img.shape[2])], axis=-1)


# -- M2: denoise -------------------------------------------------------------

def median_filter3(img: np.ndarray) -> np.ndarray:
    """3×3 median filter (edge-replicated)."""

    def one(ch: np.ndarray) -> np.ndarray:
        p = np.pad(ch, 1, mode="edge")
        stack = np.stack([p[dy:dy + ch.shape[0], dx:dx + ch.shape[1]]
                          for dy in range(3) for dx in range(3)])
        return np.median(stack, axis=0).astype(np.uint8)

    return _per_channel(img, one)


# -- M3: CLAHE ---------------------------------------------------------------

def clahe(gray: np.ndarray, clip_limit: float = CLAHE_CLIP_LIMIT,
          tiles: int = CLAHE_TILES) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization with bilinear
    interpolation between tile mappings."""
    h, w = gray.shape
    th, tw = -(-h // tiles), -(-w // tiles)
    # per-tile clipped-histogram CDF mappings
    maps = np.empty((tiles, tiles, 256), dtype=np.float64)
    for ty in range(tiles):
        for tx in range(tiles):
            tile = gray[ty * th:(ty + 1) * th, tx * tw:(tx + 1) * tw]
            if tile.size == 0:
                maps[ty, tx] = np.arange(256, dtype=np.float64)
                continue
            hist = np.bincount(tile.reshape(-1), minlength=256).astype(np.float64)
            limit = max(clip_limit * tile.size / 256.0, 1.0)
            excess = np.maximum(hist - limit, 0.0).sum()
            hist = np.minimum(hist, limit) + excess / 256.0
            cdf = np.cumsum(hist)
            cdf = cdf / cdf[-1]
            maps[ty, tx] = cdf * 255.0
    # bilinear interpolation of the four surrounding tile mappings
    ys, xs = np.arange(h), np.arange(w)
    fy = (ys + 0.5) / th - 0.5
    fx = (xs + 0.5) / tw - 0.5
    y0 = np.clip(np.floor(fy).astype(np.int64), 0, tiles - 1)
    x0 = np.clip(np.floor(fx).astype(np.int64), 0, tiles - 1)
    y1 = np.clip(y0 + 1, 0, tiles - 1)
    x1 = np.clip(x0 + 1, 0, tiles - 1)
    wy = np.clip(fy - y0, 0.0, 1.0)[:, None]
    wx = np.clip(fx - x0, 0.0, 1.0)[None, :]
    g = gray.astype(np.int64)
    m00 = maps[y0[:, None], x0[None, :], g]
    m01 = maps[y0[:, None], x1[None, :], g]
    m10 = maps[y1[:, None], x0[None, :], g]
    m11 = maps[y1[:, None], x1[None, :], g]
    out = (m00 * (1 - wy) * (1 - wx) + m01 * (1 - wy) * wx
           + m10 * wy * (1 - wx) + m11 * wy * wx)
    return np.clip(out, 0, 255).astype(np.uint8)


# -- M4: unsharp mask --------------------------------------------------------

def _gaussian_blur(ch: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    radius = max(1, int(round(3 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x ** 2) / (2 * sigma ** 2))
    k /= k.sum()
    padded = np.pad(ch.astype(np.float64), radius, mode="edge")
    tmp = np.apply_along_axis(lambda r: np.convolve(r, k, mode="valid"), 1, padded)
    out = np.apply_along_axis(lambda c: np.convolve(c, k, mode="valid"), 0, tmp)
    return out


def unsharp_mask(img: np.ndarray, strength: float = SHARPEN_STRENGTH,
                 sigma: float = 1.0) -> np.ndarray:
    """``img·s − blur·(s−1)`` (reference addWeighted form)."""

    def one(ch: np.ndarray) -> np.ndarray:
        blur = _gaussian_blur(ch, sigma)
        out = ch.astype(np.float64) * strength - blur * (strength - 1.0)
        return np.clip(out, 0, 255).astype(np.uint8)

    return _per_channel(img, one)


# -- M5: adaptive binarization ----------------------------------------------

def binarize_adaptive(gray: np.ndarray, block: int = 31, c: float = 10.0) -> np.ndarray:
    """Pixel > local-block mean − C → 255 else 0 (mean variant of the
    reference's adaptive Gaussian threshold), via an integral image."""
    h, w = gray.shape
    r = block // 2
    p = np.pad(gray.astype(np.float64), r + 1, mode="edge")
    ii = p.cumsum(axis=0).cumsum(axis=1)
    s = (ii[block:block + h, block:block + w]
         - ii[:h, block:block + w]
         - ii[block:block + h, :w]
         + ii[:h, :w])
    mean = s / float(block * block)
    return np.where(gray.astype(np.float64) > mean - c, 255, 0).astype(np.uint8)


# -- M6: noise level ---------------------------------------------------------

def laplacian(gray: np.ndarray) -> np.ndarray:
    g = gray.astype(np.float64)
    p = np.pad(g, 1, mode="edge")
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * g)


def estimate_noise_level(img: np.ndarray) -> float:
    """Variance of the Laplacian (reference ``estimate_noise_level``)."""
    return float(laplacian(to_gray(img)).var())


# -- M8: readability ---------------------------------------------------------

def assess_readability(img: np.ndarray) -> tuple[str, list[str]]:
    gray = to_gray(img)
    issues: list[str] = []
    if gray.std() < READABILITY_MIN_CONTRAST:
        issues.append("low_contrast")
    if laplacian(gray).var() < READABILITY_MIN_LAPLACIAN_VAR:
        issues.append("blurry")
    mean = gray.mean()
    if mean < READABILITY_MIN_BRIGHTNESS:
        issues.append("too_dark")
    elif mean > READABILITY_MAX_BRIGHTNESS:
        issues.append("too_bright")
    if estimate_noise_level(img) > READABILITY_MAX_NOISE:
        issues.append("high_noise")
    h, w = gray.shape
    if h < READABILITY_MIN_SIZE or w < READABILITY_MIN_SIZE:
        issues.append("low_resolution")
    readability = "good" if not issues else ("fair" if len(issues) <= 2 else "poor")
    return readability, issues


# -- M11: deskew -------------------------------------------------------------

def rotate_nearest(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate about the center (nearest-neighbor, same canvas, background
    filled with the edge median)."""
    theta = np.deg2rad(angle_deg)
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    # inverse map: output pixel ← input coords
    dy, dx = ys - cy, xs - cx
    src_y = np.cos(theta) * dy + np.sin(theta) * dx + cy
    src_x = -np.sin(theta) * dy + np.cos(theta) * dx + cx
    yi = np.round(src_y).astype(np.int64)
    xi = np.round(src_x).astype(np.int64)
    valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
    fill = int(np.median(to_gray(img)[0]))
    if img.ndim == 2:
        out = np.full((h, w), fill, dtype=img.dtype)
        out[valid] = img[yi[valid], xi[valid]]
    else:
        out = np.full(img.shape, fill, dtype=img.dtype)
        out[valid] = img[yi[valid], xi[valid], :]
    return out


def estimate_skew_angle(img: np.ndarray, max_angle: float = DESKEW_MAX_ANGLE,
                        step: float = 0.5) -> float:
    """Projection-profile deskew search: returns the CORRECTIVE rotation
    angle in ±max_angle — the one whose application maximizes the
    variance of row ink-sums (text rows align → peaky profile). A page
    skewed by +α estimates ≈ −α."""
    gray = to_gray(img)
    ink = (gray < 128).astype(np.float64)
    if ink.sum() == 0:
        return 0.0
    best_angle, best_score = 0.0, -1.0
    for angle in np.arange(-max_angle, max_angle + step / 2, step):
        rot = rotate_nearest(ink, float(angle))
        score = float(rot.sum(axis=1).var())
        if score > best_score + 1e-12:
            best_score, best_angle = score, float(angle)
    return best_angle


def deskew_image(img: np.ndarray) -> np.ndarray:
    """Apply the corrective rotation; skip below 0.1° (reference)."""
    angle = estimate_skew_angle(img)
    if abs(angle) < DESKEW_MIN_ANGLE:
        return img
    return rotate_nearest(img, angle)


# -- M9/M10: page quad + perspective ----------------------------------------

def order_points(pts: np.ndarray) -> np.ndarray:
    """4 points → (tl, tr, br, bl) by coordinate sums/diffs (reference
    ``order_points``)."""
    pts = np.asarray(pts, dtype=np.float64)
    s = pts.sum(axis=1)
    d = pts[:, 0] - pts[:, 1]
    tl = pts[np.argmin(s)]
    br = pts[np.argmax(s)]
    tr = pts[np.argmax(d)]
    bl = pts[np.argmin(d)]
    return np.stack([tl, tr, br, bl])


def detect_page_quad(img: np.ndarray, margin_fraction: float = 0.02) -> np.ndarray | None:
    """Extreme-point quad of the dark content mask; None when the content
    already fills the frame (nothing to dewarp)."""
    gray = to_gray(img)
    mask = gray < 128
    ys, xs = np.nonzero(mask)
    if len(ys) < 4:
        return None
    pts = np.stack([xs, ys], axis=1).astype(np.float64)
    s = pts.sum(axis=1)
    d = pts[:, 0] - pts[:, 1]
    quad = order_points(np.stack([pts[np.argmin(s)], pts[np.argmax(d)],
                                  pts[np.argmax(s)], pts[np.argmin(d)]]))
    h, w = gray.shape
    frame = np.array([[0, 0], [w - 1, 0], [w - 1, h - 1], [0, h - 1]], dtype=np.float64)
    if np.abs(quad - frame).max() < margin_fraction * max(h, w):
        return None
    return quad


def _homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3×3 homography mapping src[i] → dst[i] (4 point pairs, DLT solve)."""
    a = []
    for (x, y), (u, v) in zip(src, dst):
        a.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        a.append([0, 0, 0, x, y, 1, -v * x, -v * y, -v])
    a = np.asarray(a, dtype=np.float64)
    _, _, vt = np.linalg.svd(a)
    return vt[-1].reshape(3, 3)


def perspective_warp(img: np.ndarray, quad: np.ndarray,
                     out_w: int, out_h: int) -> np.ndarray:
    """Rectify the (tl, tr, br, bl) quad to an out_w×out_h image
    (nearest-neighbor inverse map — the reference's homography dewarp)."""
    quad = order_points(quad)
    dst = np.array([[0, 0], [out_w - 1, 0], [out_w - 1, out_h - 1],
                    [0, out_h - 1]], dtype=np.float64)
    hmat = _homography(dst, quad)  # output coords → source coords
    ys, xs = np.mgrid[0:out_h, 0:out_w]
    ones = np.ones_like(xs)
    pts = np.stack([xs, ys, ones]).reshape(3, -1).astype(np.float64)
    mapped = hmat @ pts
    sx = mapped[0] / mapped[2]
    sy = mapped[1] / mapped[2]
    xi = np.clip(np.round(sx), 0, img.shape[1] - 1).astype(np.int64)
    yi = np.clip(np.round(sy), 0, img.shape[0] - 1).astype(np.int64)
    if img.ndim == 2:
        return img[yi, xi].reshape(out_h, out_w)
    return img[yi, xi, :].reshape(out_h, out_w, img.shape[2])


# -- M1: fused chain ---------------------------------------------------------

def preprocess_for_ocr(img: np.ndarray, denoise: bool = True,
                       apply_clahe: bool = True, sharpen: bool = True,
                       deskew: bool = True, dewarp: bool = True) -> np.ndarray:
    """The reference's fused order: dewarp → deskew → denoise → CLAHE →
    sharpen (``enhance.py:380-385``), grayscale-first (our CLAHE operates
    on luma; the reference does LAB-L — same role)."""
    result = to_gray(img)
    if dewarp:
        quad = detect_page_quad(result)
        if quad is not None:
            w = int(max(np.linalg.norm(quad[1] - quad[0]),
                        np.linalg.norm(quad[2] - quad[3]))) + 1
            h = int(max(np.linalg.norm(quad[3] - quad[0]),
                        np.linalg.norm(quad[2] - quad[1]))) + 1
            if w > 8 and h > 8:
                result = perspective_warp(result, quad, w, h)
    if deskew:
        result = deskew_image(result)
    if denoise:
        result = median_filter3(result)
    if apply_clahe:
        result = clahe(result)
    if sharpen:
        result = unsharp_mask(result)
    return result


# -- M13: crop kernel (reference ocr/crops.py) ------------------------------

def crop_bbox(img: np.ndarray, bbox: list[float], padding: int = 2,
              min_size: int = 10) -> np.ndarray:
    """Padded bbox crop with min-size enforcement (``crops.py:21-60``)."""
    h, w = img.shape[:2]
    x1 = max(0, int(bbox[0]) - padding)
    y1 = max(0, int(bbox[1]) - padding)
    x2 = min(w, int(bbox[2]) + padding)
    y2 = min(h, int(bbox[3]) + padding)
    if x2 - x1 < min_size:
        cx = (x1 + x2) // 2
        x1 = max(0, cx - min_size // 2)
        x2 = min(w, x1 + min_size)
    if y2 - y1 < min_size:
        cy = (y1 + y2) // 2
        y1 = max(0, cy - min_size // 2)
        y2 = min(h, y1 + min_size)
    return img[y1:y2, x1:x2]


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[:2]
    rows = (np.arange(out_h) * h // out_h).astype(np.int64)
    cols = (np.arange(out_w) * w // out_w).astype(np.int64)
    return img[rows][:, cols]
