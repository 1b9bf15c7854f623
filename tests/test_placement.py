"""Device-placement passthrough for the heavy extraction stages.

Reference analog: ``config.py:81-90`` resolves ``device=auto`` → cuda/mps/
cpu per process. The Ray-native counterpart is per-stage resource
reservation: ``num_gpus`` / arbitrary ``ray_remote_args`` must reach the
``map_batches`` call of the extraction stage, so the same pipeline code
deploys on a GPU cluster by flipping one kwarg. The assertion is on the
kwargs Ray receives, not on placement itself, so it needs no GPU.
"""
from __future__ import annotations

import pyarrow as pa
import pytest

import ray.data


def _capture_map_batches(monkeypatch):
    """Patch Dataset.map_batches to record every call's kwargs."""
    calls: list[dict] = []
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, **kwargs):
        calls.append({"fn": fn, **kwargs})
        kwargs.pop("num_gpus", None)        # not satisfiable on this box
        kwargs.pop("resources", None)
        kwargs.pop("accelerator_type", None)
        return orig(self, fn, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    return calls


def _tiny_sniffed():
    t = pa.table({
        "url": pa.array(["http://a/1"], pa.string()),
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "html": pa.array([b"<html><body><p>hello world</p></body></html>"],
                         pa.binary()),
        "text": pa.array([None], pa.string()),
        "lang": pa.array(["en"], pa.string()),
        "route": pa.array(["html"], pa.string()),
        "content_hash": pa.array(["h1"], pa.string()),
    })
    return ray.data.from_arrow(t)


def test_add_extract_stage_forwards_remote_args(monkeypatch):
    from horizon_ocr_python_ray.stages.extract_stage import add_extract_stage

    calls = _capture_map_batches(monkeypatch)
    out = add_extract_stage(
        _tiny_sniffed(), num_gpus=0.25,
        ray_remote_args={"resources": {"ocr_slot": 1}},
    )
    stage = calls[-1]
    assert stage["num_gpus"] == 0.25
    assert stage["resources"] == {"ocr_slot": 1}
    # and the stage still runs once the GPU demand is stripped
    assert out.count() == 1


def test_default_is_unplaced(monkeypatch):
    from horizon_ocr_python_ray.stages.extract_stage import add_extract_stage

    calls = _capture_map_batches(monkeypatch)
    add_extract_stage(_tiny_sniffed())
    assert "num_gpus" not in calls[-1]
