"""HyperLogLog sketch (stages/sketches.py)."""

from __future__ import annotations

import pyarrow as pa
import ray

from horizon_ocr_python_ray.stages.sketches import (
    hll_estimate,
    hll_registers,
    hll_sketch_summary,
    member_register,
)


def _events(n_users=600, n_types=2):
    ids, types = [], []
    for u in range(n_users):
        for t in range(n_types):
            # each user appears 1 + (u % 3) times per type (duplicates
            # must not move the registers)
            for _ in range(1 + u % 3):
                ids.append(u)
                types.append(f"t{t}")
    return pa.table({"event_type": types, "user_id": ids})


def test_member_register_bits():
    b, r = member_register("42", p=12)
    assert 0 <= b < 4096 and 1 <= r <= 53
    # deterministic
    assert member_register("42", p=12) == (b, r)


def test_sketch_invariant_under_partitioning():
    t = _events()
    a = (hll_sketch_summary(ray.data.from_arrow(t).repartition(1),
                            "event_type", "user_id").to_pandas()
         .sort_values("event_type").reset_index(drop=True))
    b = (hll_sketch_summary(ray.data.from_arrow(t).repartition(7),
                            "event_type", "user_id").to_pandas()
         .sort_values("event_type").reset_index(drop=True))
    assert a.equals(b)  # register max is order/partition independent


def test_duplicates_do_not_change_sketch():
    base = pa.table({"event_type": ["x"] * 3, "user_id": [1, 2, 3]})
    dup = pa.table({"event_type": ["x"] * 6, "user_id": [1, 2, 3, 1, 2, 3]})
    s1 = hll_sketch_summary(ray.data.from_arrow(base), "event_type",
                            "user_id").to_pandas()
    s2 = hll_sketch_summary(ray.data.from_arrow(dup), "event_type",
                            "user_id").to_pandas()
    assert s1.equals(s2)


def test_fold_and_shuffle_plans_agree(monkeypatch, udf_calls):
    import horizon_ocr_python_ray.stages.sketches as sk

    t = _events(n_users=200, n_types=2)
    ds = ray.data.from_arrow(t).repartition(5).materialize()
    calls = udf_calls(sk, "_partial_registers")

    def run():
        return (hll_registers(ds, "event_type", "user_id").to_pandas()
                .sort_values(["event_type", "bucket"]).reset_index(drop=True))

    a = run()
    assert calls() == ds.num_blocks()
    monkeypatch.setattr(sk, "FOLD_REGISTER_MAX", 0)  # shuffle plan
    assert a.equals(run())
    assert calls() == ds.num_blocks()  # the shuffle reuses the partials


def test_estimate_accuracy():
    t = _events(n_users=600, n_types=1)
    regs = hll_registers(ray.data.from_arrow(t), "event_type", "user_id")
    tbl = pa.Table.from_pandas(regs.to_pandas())
    est = hll_estimate(tbl, p=12)
    # p=12 → σ ≈ 1.04/√4096 ≈ 1.6%; allow 3σ
    assert abs(est - 600) / 600 < 0.05
