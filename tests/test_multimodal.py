"""Multimodal probe stages: fixtures, error rows, orientation undo,
video motion and the 1-CPU task-only plan. All decodes are real: PNG
images (functions/png.py), RIFF/WAV audio (functions/wav.py), APNG video
(functions/png.py:decode_apng)."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from horizon_ocr_python_ray.stages.multimodal import (
    MEDIA_SCHEMA,
    gen_media_probe_table,
    image_preprocess_probe_batch,
    video_motion_batch,
)


def _kind_rows(t: pa.Table, kind: str) -> pa.Table:
    return t.filter(pc.equal(t.column("kind"), kind))


def test_gen_media_deterministic():
    a = gen_media_probe_table(20, seed=7)
    b = gen_media_probe_table(20, seed=7)
    assert a.equals(b)
    assert gen_media_probe_table(20, seed=8).column("payload").to_pylist() != \
        a.column("payload").to_pylist()


def test_image_resize_kernel():
    from horizon_ocr_python_ray.functions.imageproc import resize_nearest

    img = np.arange(24, dtype=np.uint8).reshape(4, 6, 1)
    small = resize_nearest(img, 2, 3)
    assert small.shape == (2, 3, 1)
    assert small[0, 0, 0] == img[0, 0, 0]


def test_image_error_row_isolated():
    bad = pa.Table.from_arrays(
        [pa.array([99], pa.int64()), pa.array(["image"], pa.string()),
         pa.array([b"not an image"], pa.binary()),
         pa.array([{"width": 8, "height": 8, "channels": 3,
                    "sample_rate": 0, "n_frames": 1}],
                  MEDIA_SCHEMA.field("meta").type)],
        schema=MEDIA_SCHEMA,
    )
    good = _kind_rows(gen_media_probe_table(6), "image")
    out = image_preprocess_probe_batch(pa.concat_tables([good, bad]))
    assert out.num_rows == good.num_rows + 1
    errs = out.column("error").to_pylist()
    assert all(e is None for e in errs[:-1])
    assert errs[-1].startswith("PngError")
    assert out.column("height").to_pylist()[-1] == 0


def test_planted_orientation_is_undone():
    # a tall raster tagged orientation=6 (90° CW to display) must come
    # back upright: decoded dims swap and pixels match np.rot90(img, -1)
    from horizon_ocr_python_ray.functions.png import encode_png
    from horizon_ocr_python_ray.stages.multimodal import (
        _decode_image, _probe_image_pixels)

    grey = _probe_image_pixels(7, 1, 24, 40, 0)
    for o, want in [(1, grey), (3, grey[::-1, ::-1]),
                    (6, np.rot90(grey, -1)), (8, np.rot90(grey, 1)),
                    (5, grey.swapaxes(0, 1))]:
        out = _decode_image(encode_png(grey, orientation=o), {})
        assert out.shape == want.shape, o
        assert (out == want).all(), o


def test_video_motion_stage():
    vid = _kind_rows(gen_media_probe_table(12, seed=11), "video")
    out = video_motion_batch(vid)
    assert out.num_rows == vid.num_rows
    rows = out.to_pylist()
    for r in rows:
        assert r["error"] is None
        assert r["n_frames"] >= 2
        assert r["motion_abs_sum"] > 0       # the pan moves every frame
        assert 0 < r["max_delta"] <= 255
    # deterministic
    again = video_motion_batch(vid)
    assert out.equals(again)
    # a corrupt payload isolates as an error row, not a thrown batch
    bad = pa.Table.from_arrays(
        [pa.array([99], pa.int64()), pa.array(["video"]),
         pa.array([b"not-a-png"], pa.binary()),
         pa.array([{"width": 0, "height": 0, "channels": 1,
                    "sample_rate": 0, "n_frames": 3}],
                  vid.schema.field("meta").type)],
        schema=vid.schema)
    err = video_motion_batch(bad).to_pylist()[0]
    assert err["error"].startswith("PngError")
    assert err["motion_abs_sum"] == 0


_ONE_CPU_MOTION = """
import sys

import ray

ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
         include_dashboard=False, logging_level="ERROR", log_to_driver=False)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from horizon_ocr_python_ray.stages.multimodal import media_motion_probe_for_n

n, out_dir, stats_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
ds = media_motion_probe_for_n(n)
ds.write_parquet(out_dir)
with open(stats_path, "w") as f:
    f.write(ds.stats())
ray.shutdown()
"""

#: Every operator of the media_motion plan, as ``ds.stats()`` names them
#: (fused operators join their parts with ``->``).
_MOTION_PLAN_PARTS = re.compile(
    r"ReadRange|MapBatches\((_gen_probe_batch|<lambda>|video_motion_batch)\)|Write")


def test_media_motion_one_cpu_session_completes(tmp_path):
    """On a 1-CPU session an actor pool holds the only CPU that the
    generate task needs, and the pipeline makes no progress. The
    media_motion pipeline must finish there, match the batch function
    over the driver-side fixture, and run only task operators."""
    n = 9
    out_dir, stats_path = tmp_path / "out", tmp_path / "stats.txt"
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", _ONE_CPU_MOTION, str(n), str(out_dir),
                    str(stats_path)], env=env, check=True, timeout=150)

    got = pq.read_table(out_dir).sort_by("media_id")
    want = video_motion_batch(_kind_rows(gen_media_probe_table(n), "video"))
    assert got.num_rows == 3
    assert got.select(want.column_names).equals(want.sort_by("media_id"))
    stats = stats_path.read_text()
    assert "ActorPool" not in stats
    names = re.findall(r"^Operator \d+ (.+?): ", stats, flags=re.M)
    assert names, "no operators parsed from ds.stats()"
    for name in names:
        for part in name.split("->"):
            assert _MOTION_PLAN_PARTS.fullmatch(part), f"unexpected operator {part!r} in {names}"


def test_audio_energy_probe_roundtrip():
    """The md5-noise probe fixture survives the real WAV container
    round-trip bit-exactly, and the engine's integer features agree
    with a direct recompute from the planted parameters — the Python
    half of the analytic media_audio_energy oracle."""
    import numpy as np

    from horizon_ocr_python_ray.stages.multimodal import (
        audio_energy_batch,
        gen_audio_probe_table,
    )
    from horizon_ocr_python_ray.functions.fasthash import md5_number_lower

    t = gen_audio_probe_table(8)
    got = audio_energy_batch(t).to_pandas()
    for i in range(8):
        n = 256 + md5_number_lower(f"apn:42:{i}") % 1024
        s = np.array([md5_number_lower(f"ap:42:{i}:{k}") % 32768 - 16384
                      for k in range(n)], np.int64)
        row = got[got.media_id == i].iloc[0]
        assert row.n_samples == n
        assert row.sum_sq == int((s * s).sum())
        assert row.peak_abs == int(np.abs(s).max())


def _display_coords(o, y, x, h, w):
    """Sensor (y, x) → display (yy, xx, H, W) under EXIF orientation
    ``o`` — the index-space twin of png.apply_orientation, written
    independently (used to check px_wsum end-to-end)."""
    if o == 1:
        return y, x, h, w
    if o == 2:
        return y, w - 1 - x, h, w
    if o == 3:
        return h - 1 - y, w - 1 - x, h, w
    if o == 4:
        return h - 1 - y, x, h, w
    if o == 5:
        return x, y, w, h
    if o == 6:
        return x, h - 1 - y, w, h
    if o == 7:
        return w - 1 - x, h - 1 - y, w, h
    return w - 1 - x, y, w, h


def test_media_probe_features_match_planted_parameters(ray_session):
    """The probe fixture's features are pure functions of the planted
    md5 parameters (the same identities the analytic SQL oracle
    replays): the engine must recover them through the REAL PNG / WAV /
    APNG codecs. Covers all 8 EXIF orientations via px_wsum and the
    pan-video identities (every frame sum == base sum; motion is
    (nf-1) × one circular-shift delta sum)."""
    import numpy as np

    from horizon_ocr_python_ray.stages.multimodal import (
        _VIDEO_PROBE_HW,
        _probe_image_params,
        _probe_image_pixels,
        _probe_video_base,
        media_features_probe_for_n,
        media_motion_probe_for_n,
    )
    from horizon_ocr_python_ray.functions.fasthash import md5_number_lower

    N = 27  # covers all 8 orientations and all 3 variants
    feat = media_features_probe_for_n(N).to_pandas()
    feat = {(int(r.media_id), r.feature): r.value for r in feat.itertuples()}
    for i in range(N):
        kind = ("image", "audio", "video")[i % 3]
        if kind == "image":
            w, h, v, o = _probe_image_params(42, i)
            px = _probe_image_pixels(42, i, h, w, v).astype(np.int64)
            assert feat[(i, "px_n")] == h * w
            assert feat[(i, "px_sum")] == px.sum()
            assert feat[(i, "px_sumsq")] == (px * px).sum()
            wsum = 0
            for y in range(h):
                for x in range(w):
                    yy, xx, _H, W = _display_coords(o, y, x, h, w)
                    wsum += int(px[y, x]) * (yy * W + xx)
            assert feat[(i, "px_wsum")] == wsum, (i, o)
        elif kind == "audio":
            n = 256 + md5_number_lower(f"mpan:42:{i}") % 1024
            s = np.array([md5_number_lower(f"mpa:42:{i}:{k}") % 32768 - 16384
                          for k in range(n)], np.int64)
            assert feat[(i, "n_samples")] == n
            assert feat[(i, "sum_sq")] == (s * s).sum()
            assert feat[(i, "peak_abs")] == np.abs(s).max()
        else:
            base, nf = _probe_video_base(42, i)
            b = base.astype(np.int64)
            assert feat[(i, "n_frames")] == nf
            assert feat[(i, "px_per_frame")] == _VIDEO_PROBE_HW ** 2
            assert feat[(i, "frames_sum")] == nf * b.sum()
            assert feat[(i, "frames_max")] == b.max()

    mot = media_motion_probe_for_n(N).to_pandas().set_index("media_id")
    for i in range(2, N, 3):
        base, nf = _probe_video_base(42, i)
        b = base.astype(np.int64)
        d = np.abs(np.roll(b, 2, axis=1) - b)
        row = mot.loc[i]
        assert row.n_frames == nf
        assert row.motion_abs_sum == (nf - 1) * d.sum()
        assert row.max_delta == d.max()


def test_media_probe_preprocess_threshold_replay(ray_session):
    """media_preprocess probe: readability flags replayed with the
    SQL-oracle formulas (population variance, clamped-edge Laplacian)
    agree with the engine's assess_readability on the decoded image,
    and the shape-preserving chain's dims follow orientation."""
    import numpy as np

    from horizon_ocr_python_ray.stages.multimodal import (
        _probe_image_params,
        _probe_image_pixels,
        media_preprocess_probe_for_n,
    )

    N = 27
    pre = media_preprocess_probe_for_n(N).to_pandas().set_index("media_id")
    for i in range(0, N, 3):
        w, h, v, o = _probe_image_params(42, i)
        px = _probe_image_pixels(42, i, h, w, v).astype(np.float64)
        H, W = (w, h) if o >= 5 else (h, w)
        row = pre.loc[i]
        assert row.error is None or row.error != row.error
        assert (row.height, row.width) == (H, W)
        assert row.n_pix == h * w
        assert row.pix_sum == px.sum()
        assert row.pix_sumsq == (px * px).sum()
        mean, std = px.mean(), px.std()
        p = np.pad(px, 1, mode="edge")
        lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * px
        lapvar = lap.var()
        issues = []
        if std < 30.0:
            issues.append("low_contrast")
        if lapvar < 100.0:
            issues.append("blurry")
        if mean < 50.0:
            issues.append("too_dark")
        elif mean > 230.0:
            issues.append("too_bright")
        if lapvar > 1000.0:
            issues.append("high_noise")
        if H < 500 or W < 500:
            issues.append("low_resolution")
        assert row.issues == ",".join(issues), (i, v)
        assert row.readability == (
            "good" if not issues else ("fair" if len(issues) <= 2 else "poor"))


def test_media_probe_ds_matches_driver_table(ray_session):
    """Distributed probe generation (ray.data.range → worker-side
    encode) is byte-identical to the driver-side table, both unfiltered
    and per-kind-pruned — so moving generation off the driver cannot
    move the oracle."""
    from horizon_ocr_python_ray.stages.multimodal import (
        gen_media_probe_table,
        media_probe_ds,
    )

    N = 24
    ref = gen_media_probe_table(N).sort_by("media_id")
    got = media_probe_ds(N).take_all()
    got_t = pa.Table.from_pylist(got, schema=ref.schema).sort_by("media_id")
    assert got_t.equals(ref)
    for kind, ordinal in (("image", 0), ("audio", 1), ("video", 2)):
        part = media_probe_ds(N, kind=kind).take_all()
        part_t = pa.Table.from_pylist(
            part, schema=ref.schema).sort_by("media_id")
        want = ref.take([i for i in range(N) if i % 3 == ordinal])
        assert part_t.equals(want), kind
