"""Boilerplate line removal (stages/linededup.py)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray

from horizon_ocr_python_ray.stages import linededup
from horizon_ocr_python_ray.stages.linededup import boilerplate_line_dedup


def _ds(rows):
    return ray.data.from_arrow(pa.table({
        "url": [r[0] for r in rows],
        "extracted_text": [r[1] for r in rows],
    })).repartition(2)


def test_drops_repeated_lines_keeps_order():
    ds = _ds([
        ("a", "unique alpha\nfooter\nbody a"),
        ("b", "footer\nbody b"),
        ("c", "body c\nfooter"),
        ("d", ""),  # empty text: skipped entirely
    ])
    out = (boilerplate_line_dedup(ds, min_df=3).to_pandas()
           .set_index("url").sort_index())
    assert list(out.index) == ["a", "b", "c"]
    assert out.loc["a", "n_dropped"] == 1 and out.loc["a", "n_kept"] == 2
    assert out.loc["a", "kept_md5"] == hashlib.md5(
        b"unique alpha\nbody a").hexdigest()
    # every doc lost exactly the one "footer" line
    assert (out["n_dropped"] == 1).all()


def test_threshold_respected():
    ds = _ds([("a", "twice\nx"), ("b", "twice\ny"), ("c", "z")])
    out = boilerplate_line_dedup(ds, min_df=3).to_pandas()
    assert (out["n_dropped"] == 0).all()  # df("twice") == 2 < 3
    out2 = boilerplate_line_dedup(ds, min_df=2).to_pandas().set_index("url")
    assert out2.loc["a", "n_dropped"] == 1
    assert out2.loc["b", "n_dropped"] == 1


def test_duplicate_line_within_one_doc_counts_once():
    # "rep" appears twice inside doc a but only 1 distinct doc → df=1
    ds = _ds([("a", "rep\nmid\nrep"), ("b", "other")])
    out = boilerplate_line_dedup(ds, min_df=2).to_pandas()
    assert (out["n_dropped"] == 0).all()


def test_empty_lines_never_dropped():
    ds = _ds([("a", "x\n\ny"), ("b", "p\n\nq"), ("c", "m\n\nn")])
    out = boilerplate_line_dedup(ds, min_df=2).to_pandas()
    assert (out["n_kept"] == 3).all()  # the blank line survives in all


def test_plans_agree(monkeypatch, udf_calls):
    ds = _ds([
        ("a", "unique alpha\nfooter\nbody a"),
        ("b", "footer\nbody b"),
        ("c", "body c\nfooter"),
    ]).materialize()
    calls = udf_calls(linededup, "_partial_line_df")
    fold = (boilerplate_line_dedup(ds, min_df=3).to_pandas()
            .sort_values("url").reset_index(drop=True))
    assert calls() == ds.num_blocks()
    monkeypatch.setattr(linededup, "DRIVER_FOLD_LINE_MAX", 0)
    shuf = (boilerplate_line_dedup(ds, min_df=3).to_pandas()
            .sort_values("url").reset_index(drop=True))
    # the shuffle plan consumes the partials the tripped fold produced
    assert calls() == ds.num_blocks()
    assert fold.equals(shuf)
    assert (fold["n_dropped"] == 1).all()


def test_auto_falls_back_to_shuffle_on_fold_overflow(monkeypatch):
    monkeypatch.setattr(linededup, "DRIVER_FOLD_LINE_MAX", 1)
    ds = _ds([("a", "l1\nl2\nl3"), ("b", "l1\nx"), ("c", "l1\ny")])
    out = boilerplate_line_dedup(ds, min_df=3).to_pandas()
    assert out.set_index("url").loc["a", "n_dropped"] == 1  # "l1" dropped


def test_drop_set_cap(monkeypatch):
    # past DROP_SET_MAX the drop-set is broadcast as hash64, on both the
    # fold and the shuffle DF path, and cleans the same
    ds = _ds([("a", "l1\nl2"), ("b", "l1\nl2\nx"), ("c", "y")])
    want = (boilerplate_line_dedup(ds, min_df=2).to_pandas()
            .sort_values("url").reset_index(drop=True))
    monkeypatch.setattr(linededup, "DROP_SET_MAX", 1)
    for fold_max in (linededup.DRIVER_FOLD_LINE_MAX, 0):
        monkeypatch.setattr(linededup, "DRIVER_FOLD_LINE_MAX", fold_max)
        drop = ray.get(linededup.boilerplate_lines_ref(ds, min_df=2))
        assert isinstance(drop, np.ndarray) and len(drop) == 2
        got = (boilerplate_line_dedup(ds, min_df=2).to_pandas()
               .sort_values("url").reset_index(drop=True))
        assert got.equals(want)
    assert want.n_dropped.tolist() == [2, 2, 0]


def _strings_vs_hash64(monkeypatch, ds, min_df):
    key = "url"
    s = (boilerplate_line_dedup(ds, min_df=min_df)
         .to_pandas().sort_values(key).reset_index(drop=True))
    monkeypatch.setattr(linededup, "DROP_SET_MAX", 0)
    h = (boilerplate_line_dedup(ds, min_df=min_df)
         .to_pandas().sort_values(key).reset_index(drop=True))
    return s, h


def test_hash64_repr_matches_strings_repr(ray_session, monkeypatch):
    ds = _ds([
        ("a", "unique alpha\nfooter\nbody a\n\nx"),
        ("b", "footer\nbody b\n"),
        ("c", "body c\nfooter"),
        ("d", ""),
        ("e", "footer\nfooter\nonly footer doc"),
    ])
    s, h = _strings_vs_hash64(monkeypatch, ds, 3)
    assert s.equals(h)
    assert (s.loc[s.url != "a", "n_dropped"] > 0).any()


def test_hash64_repr_on_real_corpus(ray_session, corpus_dir, monkeypatch):
    from horizon_ocr_python_ray import build_extract_pipeline, read_pages

    docs = build_extract_pipeline(read_pages(corpus_dir)).select_columns(
        ["url", "extracted_text"]).materialize()
    s, h = _strings_vs_hash64(monkeypatch, docs, 5)
    assert len(s) > 0
    assert s.equals(h)


def test_hash64_no_boilerplate_is_noop(ray_session, monkeypatch):
    """No line reaches min_df: the drop-set is empty, and an empty
    hash64 drop-set cleans nothing."""
    ds = _ds([("a", "x\ny"), ("b", "p\nq")])
    monkeypatch.setattr(linededup, "DROP_SET_MAX", 0)
    assert len(ray.get(linededup.boilerplate_lines_ref(ds, min_df=2))) == 0
    ref = ray.put(np.empty(0, np.uint64))
    out = ds.map_batches(linededup._clean_batch, batch_format="pyarrow",
                         fn_kwargs={"drop_ref": ref,
                                    "text_col": "extracted_text"}).to_pandas()
    assert (out.n_dropped == 0).all() and (out.n_kept == 2).all()


def test_hash_cap_enforced(ray_session, monkeypatch):
    monkeypatch.setattr(linededup, "DROP_SET_MAX", 0)
    monkeypatch.setattr(linededup, "DROP_HASH_MAX", 0)
    ds = _ds([("a", "footer\nx"), ("b", "footer\ny"), ("c", "footer")])
    with pytest.raises(ValueError, match="DROP_HASH_MAX"):
        boilerplate_line_dedup(ds, min_df=2).to_pandas()


def test_hash64_drop_set_reuses_line_df(ray_session, monkeypatch, udf_calls):
    """Past DROP_SET_MAX the hash64 drop-set comes from the line DF
    already folded (or shuffled): the documents are mapped once per
    batch, and the array is the sorted hash64 of the boilerplate lines."""
    from horizon_ocr_python_ray.functions.fasthash import hash64_bytes_column

    ds = _ds([("a", "l1\nl2"), ("b", "l1\nl2\nx"), ("c", "y")]).materialize()
    want = np.sort(hash64_bytes_column(pa.array(["l1", "l2"])))
    calls = udf_calls(linededup, "_partial_line_df")
    monkeypatch.setattr(linededup, "DROP_SET_MAX", 1)
    for fold_max in (linededup.DRIVER_FOLD_LINE_MAX, 0):
        monkeypatch.setattr(linededup, "DRIVER_FOLD_LINE_MAX", fold_max)
        drop = ray.get(linededup.boilerplate_lines_ref(ds, min_df=2))
        assert calls() == ds.num_blocks()
        assert drop.dtype == np.uint64
        assert np.array_equal(drop, want)
