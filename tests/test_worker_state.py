"""The per-process warm-state rule (state/worker.py) and the shard sweeps
that hold their decoded shards through it (stages/ann.py)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pyarrow as pa
import pytest
import ray

from horizon_ocr_python_ray.state import worker
from horizon_ocr_python_ray.state.worker import worker_state


class _Value:
    pass


@pytest.fixture(autouse=True)
def _fresh_slots():
    saved = dict(worker._SLOTS)
    worker._SLOTS.clear()
    yield
    worker._SLOTS.clear()
    worker._SLOTS.update(saved)


def test_build_runs_once_per_key():
    calls = []

    def build():
        calls.append(1)
        return _Value()

    first = worker_state("s", ("ref", 5), build)
    assert worker_state("s", ("ref", 5), build) is first
    assert worker_state("s", ("ref", 5), build) is first
    assert len(calls) == 1


def test_key_change_replaces_and_drops_old_value():
    old = worker_state("s", 1, _Value)
    gone = weakref.ref(old)
    del old
    new = worker_state("s", 2, _Value)
    gc.collect()
    assert gone() is None
    assert worker_state("s", 2, _Value) is new
    # going back to the first key builds afresh: one value per slot
    again = worker_state("s", 1, _Value)
    assert again is not new and worker._SLOTS["s"][0] == 1


def test_slots_are_independent():
    a = worker_state("a", 1, _Value)
    b = worker_state("b", 2, _Value)
    assert a is not b
    assert worker_state("a", 1, _Value) is a
    assert worker_state("b", 2, _Value) is b
    worker_state("b", 3, _Value)
    assert worker_state("a", 1, _Value) is a


def _shard_refs(seed: int, n_shards: int = 3):
    rng = np.random.default_rng(seed)
    refs = []
    for s in range(n_shards):
        ids = np.arange(s * 4, s * 4 + 4, dtype=np.int64)
        emb = rng.normal(size=(4, 8))
        refs.append(ray.put(pa.table({"vec_id": ids,
                                      "embedding": [list(r) for r in emb]})))
    return refs, ray.put(refs)


@pytest.mark.parametrize("decode, slot", [("_shard_matrix", "ann_shards"),
                                          ("_int_shard", "ann_int_shards")])
def test_new_shard_sweep_replaces_the_last_sweeps_shards(decode, slot):
    from horizon_ocr_python_ray.stages import ann

    fn = getattr(ann, decode)
    refs1, sweep1 = _shard_refs(1)
    for ref in refs1:
        ids, _ = fn(sweep1, ref)
        assert fn(sweep1, ref)[0] is ids  # decoded once per sweep
    assert worker._SLOTS[slot][0] == sweep1.hex()
    assert set(worker._SLOTS[slot][1]) == {r.hex() for r in refs1}

    refs2, sweep2 = _shard_refs(2, n_shards=2)
    for ref in refs2:
        fn(sweep2, ref)
    assert worker._SLOTS[slot][0] == sweep2.hex()
    assert set(worker._SLOTS[slot][1]) == {r.hex() for r in refs2}
