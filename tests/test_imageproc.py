"""Numpy image-preprocessing kernels (reference preprocess/enhance.py,
preprocess/geometry.py semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from horizon_ocr_python_ray.functions.imageproc import (
    assess_readability,
    binarize_adaptive,
    clahe,
    deskew_image,
    estimate_noise_level,
    estimate_skew_angle,
    median_filter3,
    order_points,
    perspective_warp,
    preprocess_for_ocr,
    rotate_nearest,
    to_gray,
    unsharp_mask,
)


def _text_bars(h=200, w=300, n_bars=6, bar_h=8, gap=24) -> np.ndarray:
    """White page with horizontal dark text bars."""
    img = np.full((h, w), 255, dtype=np.uint8)
    y = 20
    for _ in range(n_bars):
        img[y:y + bar_h, 20:w - 20] = 20
        y += gap
    return img


def test_to_gray_weights():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[..., 1] = 255  # pure green (BGR)
    g = to_gray(img)
    assert g.shape == (2, 2)
    assert abs(int(g[0, 0]) - int(0.587 * 255)) <= 1


def test_median_filter_removes_salt_noise():
    img = np.full((50, 50), 128, dtype=np.uint8)
    rng = np.random.RandomState(0)
    ys, xs = rng.randint(1, 49, 30), rng.randint(1, 49, 30)
    img[ys, xs] = 255  # isolated salt
    out = median_filter3(img)
    assert (out == 128).all()


def test_clahe_boosts_low_contrast():
    rng = np.random.RandomState(1)
    img = (120 + rng.randint(-6, 7, size=(160, 160))).astype(np.uint8)
    out = clahe(img)
    assert out.shape == img.shape and out.dtype == np.uint8
    assert out.std() > img.std() * 2  # contrast expanded


def test_unsharp_enhances_edges():
    img = np.full((40, 40), 100, dtype=np.uint8)
    img[:, 20:] = 160
    out = unsharp_mask(img)
    grad_in = np.abs(np.diff(img.astype(int), axis=1)).max()
    grad_out = np.abs(np.diff(out.astype(int), axis=1)).max()
    assert grad_out > grad_in  # overshoot at the edge


def test_adaptive_binarize_handles_gradient_background():
    # dark text on an illumination gradient that defeats a global threshold
    w = 200
    grad = np.tile(np.linspace(60, 220, w).astype(np.uint8), (60, 1))
    img = grad.copy()
    img[20:30, 10:50] = 10     # text in the dark region
    img[20:30, 150:190] = 170  # text in the bright region (locally dark)
    out = binarize_adaptive(img)
    assert (out[25, 15:45] == 0).all()
    assert (out[25, 155:185] == 0).all()
    assert (out[5, 15:45] == 255).all()


def test_noise_level_orders():
    flat = np.full((64, 64), 128, dtype=np.uint8)
    noisy = (128 + np.random.RandomState(2).randint(-60, 61, (64, 64))).astype(np.uint8)
    assert estimate_noise_level(flat) == 0.0
    assert estimate_noise_level(noisy) > 1000.0


def test_readability_thresholds():
    good = _text_bars(h=600, w=600)
    r, issues = assess_readability(good)
    assert r in ("good", "fair")
    dark = np.full((600, 600), 10, dtype=np.uint8)
    r2, issues2 = assess_readability(dark)
    assert "too_dark" in issues2 and "low_contrast" in issues2
    assert r2 in ("fair", "poor")
    tiny = np.full((100, 100), 128, dtype=np.uint8)
    assert "low_resolution" in assess_readability(tiny)[1]


def test_deskew_recovers_rotation():
    img = _text_bars()
    rotated = rotate_nearest(img, 6.0)
    est = estimate_skew_angle(rotated)
    assert abs(est - (-6.0)) <= 1.0 or abs(est - 6.0) <= 1.0
    fixed = deskew_image(rotated)
    # row-profile variance of the fixed image ≈ original's (bars realigned)
    def peakiness(a):
        return (to_gray(a) < 128).sum(axis=1).astype(float).var()
    assert peakiness(fixed) > peakiness(rotated) * 2


def test_deskew_skips_tiny_angles():
    img = _text_bars()
    assert deskew_image(img) is img  # < 0.1° → untouched


def test_order_points():
    pts = np.array([[10, 10], [90, 12], [88, 70], [12, 68]], dtype=float)
    shuffled = pts[[2, 0, 3, 1]]
    ordered = order_points(shuffled)
    assert np.allclose(ordered, pts)


def test_perspective_warp_rectifies_quad():
    # a dark rectangle whose corners we warp back to a full frame
    img = np.full((100, 100), 255, dtype=np.uint8)
    img[20:80, 30:70] = 40
    quad = np.array([[30, 20], [69, 20], [69, 79], [30, 79]], dtype=float)
    out = perspective_warp(img, quad, 40, 60)
    assert out.shape == (60, 40)
    assert (out < 128).mean() > 0.95  # almost all content pixels


def test_preprocess_chain_runs_and_keeps_text_dark():
    img = _text_bars()
    out = preprocess_for_ocr(rotate_nearest(img, 4.0))
    assert out.dtype == np.uint8
    assert out.ndim == 2
    # text still darker than background after the full chain
    assert out.min() < 80 and out.max() > 200


if __name__ == "__main__":
    pytest.main([__file__, "-x", "-q"])


def test_crop_bbox_padding_and_min_size():
    from horizon_ocr_python_ray.functions.imageproc import crop_bbox

    img = np.arange(100 * 100, dtype=np.int32).reshape(100, 100)
    c = crop_bbox(img, [10, 20, 30, 40], padding=2)
    assert c.shape == (24, 24)
    tiny = crop_bbox(img, [50, 50, 52, 52], padding=0, min_size=10)
    assert tiny.shape == (10, 10)
