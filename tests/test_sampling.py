"""Deterministic sampling primitives (hash split, host quota)."""

from __future__ import annotations

import pyarrow as pa

from horizon_ocr_python_ray.functions.fasthash import md5_number_lower
from horizon_ocr_python_ray.stages.sampling import (
    hash_split,
    hash_split_batch,
    host_quota,
)


def test_hash_split_stable_and_complete():
    t = pa.table({"doc_id": pa.array(list(range(2000)), pa.int64())})
    out = hash_split_batch(t, "doc_id")
    splits = out.column("split").to_pylist()
    buckets = out.column("split_bucket").to_pylist()
    assert all(0 <= b < 1000 for b in buckets)
    assert all((s == "eval") == (b < 10) for s, b in zip(splits, buckets))
    # ~1% eval at permille 10 (binomial bounds, deterministic given ids)
    n_eval = splits.count("eval")
    assert 5 <= n_eval <= 50
    # re-running yields the identical assignment
    again = hash_split_batch(t, "doc_id")
    assert again.column("split").to_pylist() == splits


def test_hash_split_independent_of_sharding(ray_session):
    import ray.data

    t = pa.table({"doc_id": pa.array(list(range(500)), pa.int64())})
    one = hash_split(ray.data.from_arrow(t)).to_pandas().sort_values("doc_id")
    many = hash_split(
        ray.data.from_arrow(t).repartition(7)).to_pandas().sort_values("doc_id")
    assert one["split"].tolist() == many["split"].tolist()


def test_md5_low64_matches_duckdb():
    import duckdb

    for key in ("0", "42", "99999"):
        assert md5_number_lower(key) == duckdb.sql(
            f"SELECT md5_number_lower('{key}')").fetchone()[0]


def test_host_quota_combiner_prunes_but_preserves_result(ray_session):
    # a hot host spread over many blocks: per-batch pruning must not
    # change the global earliest-n
    import ray.data

    rows = [{"url": f"https://hot.com/p/{k:04d}", "warc_ts": 5000 - k}
            for k in range(50)]
    t = pa.table({
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
    })
    out = host_quota(ray.data.from_arrow(t).repartition(10), n=3).to_pandas()
    # earliest ts are the LAST urls (ts decreases with k)
    assert sorted(out["url"]) == [f"https://hot.com/p/{k:04d}" for k in (47, 48, 49)]
    assert len(out) == 3


def test_host_quota_keeps_earliest(ray_session):
    import ray.data

    rows = []
    for h in ("a.com", "b.com"):
        for k in range(5):
            rows.append({"url": f"https://{h}/p/{k}", "warc_ts": 1000 + k})
    t = pa.table({
        "url": pa.array([r["url"] for r in rows], pa.string()),
        "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
    })
    out = host_quota(ray.data.from_arrow(t), n=2).to_pandas()
    assert len(out) == 4
    by_host = out.groupby("host")["url"].apply(sorted).to_dict()
    assert by_host["a.com"] == ["https://a.com/p/0", "https://a.com/p/1"]
    assert by_host["b.com"] == ["https://b.com/p/0", "https://b.com/p/1"]
    assert set(out["quota_rank"]) == {1, 2}


def test_stratified_sample_exact_k_per_stratum(ray_session):
    import ray.data

    from horizon_ocr_python_ray.functions.fasthash import md5_number_lower
    from horizon_ocr_python_ray.stages.sampling import stratified_sample

    t = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "lang": pa.array([("en", "de", "fr")[i % 3] for i in range(100)], pa.string()),
    })
    out = stratified_sample(ray.data.from_arrow(t).repartition(8),
                            stratum="lang", key="doc_id", k=5).to_pandas()
    assert len(out) == 15
    for lang, grp in out.groupby("lang"):
        # the k smallest hashes of that stratum, ranked 1..k
        ids = [i for i in range(100) if ("en", "de", "fr")[i % 3] == lang]
        want = sorted(ids, key=lambda i: (md5_number_lower(str(i)), i))[:5]
        got = grp.sort_values("sample_rank")
        assert list(got["doc_id"]) == want
        assert list(got["sample_rank"]) == [1, 2, 3, 4, 5]
        assert all(got["sample_hash"] == [md5_number_lower(str(i)) for i in want])


def test_stratified_sample_small_stratum_keeps_all(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import stratified_sample

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "lang": pa.array(["en", "en", "rare"], pa.string()),
    })
    out = stratified_sample(ray.data.from_arrow(t), k=10).to_pandas()
    assert len(out) == 3  # strata smaller than k keep every row


def test_shuffle_shards_assignment_and_positions(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import SHUFFLE_SALT, shuffle_shards

    ids = list(range(200))
    t = pa.table({"doc_id": pa.array(ids, pa.int64())})
    out = shuffle_shards(ray.data.from_arrow(t), nshards=16).to_pandas()

    # Every key exactly once; shard is the salted-md5 bucket.
    assert sorted(out["doc_id"]) == ids
    expect_shard = {k: md5_number_lower(str(k) + SHUFFLE_SALT) % 16 for k in ids}
    assert all(expect_shard[k] == s for k, s in zip(out["doc_id"], out["shard"]))

    # Positions are dense 0..m-1 per shard and ordered by the hash.
    for shard, grp in out.groupby("shard"):
        grp = grp.sort_values("pos")
        assert list(grp["pos"]) == list(range(len(grp)))
        hs = [md5_number_lower(str(k) + SHUFFLE_SALT) for k in grp["doc_id"]]
        assert hs == sorted(hs)


def test_shuffle_shards_stable_under_resharding(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import shuffle_shards

    ids = list(range(300))
    one = pa.table({"doc_id": pa.array(ids, pa.int64())})
    rev = pa.table({"doc_id": pa.array(ids[::-1], pa.int64())})
    a = shuffle_shards(ray.data.from_arrow(one), nshards=8).to_pandas()
    b = (shuffle_shards(ray.data.from_arrow(rev).repartition(7), nshards=8)
         .to_pandas())
    key = ["doc_id"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_mix_temperature_quotas_follow_sqrt_largest_remainder(ray_session):
    import math

    import ray.data

    from horizon_ocr_python_ray.stages.sampling import mix_temperature

    ns = {"en": 120, "zh": 30, "fr": 10}
    rows_lang = [l for l, n in ns.items() for _ in range(n)]
    t = pa.table({
        "doc_id": pa.array(list(range(len(rows_lang))), pa.int64()),
        "lang": pa.array(rows_lang, pa.string()),
    })
    out = mix_temperature(ray.data.from_arrow(t).repartition(5),
                          budget_permille=200).to_pandas()
    # replay the pinned integer allocation
    w6 = {s: int(math.floor(math.sqrt(n) * 1_000_000 + 0.5))
          for s, n in ns.items()}
    tw = sum(w6.values())
    budget = sum(ns.values()) * 200 // 1000  # 32
    base = {s: budget * w6[s] // tw for s in ns}
    rem = {s: (budget * w6[s]) % tw for s in ns}
    leftover = budget - sum(base.values())
    for i, s in enumerate(sorted(ns, key=lambda s: (-rem[s], s))):
        base[s] = min(base[s] + (1 if i < leftover else 0), ns[s])
    got = out.groupby("lang").size().to_dict()
    assert got == {s: q for s, q in base.items() if q}
    assert len(out) == budget
    # sqrt flattening: en is 12x fr by count but < 12x by quota
    assert base["en"] / base["fr"] < ns["en"] / ns["fr"]


def test_mix_temperature_quota_caps_at_stratum_count(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import mix_temperature

    # a tiny stratum whose sqrt share exceeds its own count
    t = pa.table({
        "doc_id": pa.array(list(range(101)), pa.int64()),
        "lang": pa.array(["big"] * 100 + ["tiny"], pa.string()),
    })
    out = mix_temperature(ray.data.from_arrow(t).repartition(3),
                          budget_permille=900).to_pandas()
    tiny = out[out.lang == "tiny"]
    assert len(tiny) <= 1
    assert (out[out.lang == "tiny"].quota <= 1).all()


def test_mix_temperature_members_are_hash_order(ray_session):
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import mix_temperature

    t = pa.table({
        "doc_id": pa.array(list(range(50)), pa.int64()),
        "lang": pa.array(["en"] * 50, pa.string()),
    })
    out = (mix_temperature(ray.data.from_arrow(t).repartition(4),
                           budget_permille=200)
           .to_pandas().sort_values("sample_rank"))
    want = sorted(range(50), key=lambda i: (md5_number_lower(str(i)), i))[:10]
    assert list(out["doc_id"]) == want
    assert list(out["sample_rank"]) == list(range(1, 11))


def test_stratified_sample_carry_columns():
    import pyarrow as pa
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import stratified_sample

    t = pa.table({
        "doc_id": pa.array(range(1, 41), pa.int64()),
        "lang": pa.array((["en"] * 30) + (["de"] * 10), pa.string()),
        "n_tokens": pa.array([i * 7 for i in range(1, 41)], pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    plain = stratified_sample(ds, k=5).to_pandas()
    carried = stratified_sample(ds, k=5, carry=("n_tokens",)).to_pandas()
    # same selection, payload attached
    key = ["lang", "doc_id"]
    assert (carried.sort_values(key)["doc_id"].tolist()
            == plain.sort_values(key)["doc_id"].tolist())
    want = dict(zip(t.column("doc_id").to_pylist(),
                    t.column("n_tokens").to_pylist()))
    for r in carried.itertuples():
        assert r.n_tokens == want[r.doc_id]
