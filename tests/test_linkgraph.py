"""Web-graph ops: outlink harvest, host link graph, integer-exact PageRank."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from horizon_ocr_python_ray.functions.links import extract_outlinks, host_of
from horizon_ocr_python_ray.stages.linkgraph import (
    DAMP_DEN,
    DAMP_NUM,
    PAGERANK,
    RANK_BASE,
    RANK_SCALE,
    host_anchor_terms,
    host_link_counts,
    host_pagerank,
    page_outlinks,
    propagate_arrays,
)


def _pagerank_vec(src, dst, n, iters):
    """host_pagerank's update rule on index edges, in numpy."""
    return propagate_arrays(src, dst, n, PAGERANK, iters)


# ---------------------------------------------------------------------------
# extract_outlinks kernel
# ---------------------------------------------------------------------------

def test_extract_outlinks_basic():
    html = (
        b'<p>x <a href="https://a.example/p/1">one link</a> and'
        b" <a href='http://b.example/q'>two</a></p>"
    )
    assert extract_outlinks(html) == [
        ("https://a.example/p/1", "one link"),
        ("http://b.example/q", "two"),
    ]


def test_extract_outlinks_relative_links_excluded():
    html = b'<a href="/s/1">rel</a><a href="https://c.example/x">abs</a>'
    assert extract_outlinks(html) == [("https://c.example/x", "abs")]


def test_extract_outlinks_normalizes_anchor():
    html = b'<a href="https://a.example/x"> <b>bold</b>\n  words &amp; more </a>'
    assert extract_outlinks(html) == [("https://a.example/x", "bold words & more")]


def test_extract_outlinks_empty_and_none():
    assert extract_outlinks(None) == []
    assert extract_outlinks(b"") == []
    assert extract_outlinks(b"<p>no links at all</p>") == []


def test_host_of():
    assert host_of("https://Host01.Example.ORG/p/1") == "host01.example.org"
    assert host_of("http://user@h.example:8080/x") == "h.example"
    assert host_of("not-a-url") == ""


# ---------------------------------------------------------------------------
# PageRank update rule (kernel-level)
# ---------------------------------------------------------------------------

def test_pagerank_two_node_cycle_exact():
    # a <-> b: perfectly symmetric — both must stay at base + d*prev.
    src = np.array([0, 1])
    dst = np.array([1, 0])
    r = _pagerank_vec(src, dst, 2, 1)
    expect = RANK_BASE + (DAMP_NUM * RANK_SCALE) // DAMP_DEN
    assert r.tolist() == [expect, expect]


def test_pagerank_star_sink_accumulates():
    # three sources all pointing at node 3 (a dangling sink).
    src = np.array([0, 1, 2])
    dst = np.array([3, 3, 3])
    r = _pagerank_vec(src, dst, 4, 1)
    contrib = (DAMP_NUM * RANK_SCALE) // (DAMP_DEN * 1)
    assert r[3] == RANK_BASE + 3 * contrib
    # the sources receive nothing
    assert r[0] == r[1] == r[2] == RANK_BASE


def test_pagerank_outdeg_split():
    # node 0 links to 1 and 2: each gets floor(d*r/ (100*2)).
    src = np.array([0, 0])
    dst = np.array([1, 2])
    r = _pagerank_vec(src, dst, 3, 1)
    contrib = (DAMP_NUM * RANK_SCALE) // (DAMP_DEN * 2)
    assert r[1] == r[2] == RANK_BASE + contrib


# ---------------------------------------------------------------------------
# corpus-level (golden parity + plan equality)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pages_ds(ray_session, corpus_dir):
    from horizon_ocr_python_ray import read_pages

    return read_pages(corpus_dir)


def test_outlinks_match_golden(pages_ds, corpus_dir):
    got = page_outlinks(pages_ds).to_pandas()
    g = pq.read_table(
        corpus_dir + "/golden.parquet", columns=["url", "outlinks"]
    ).to_pandas()
    want = sorted(
        (u, o["href"], o["anchor"])
        for u, ols in zip(g.url, g.outlinks)
        for o in ols
    )
    assert sorted(zip(got.url, got.href, got.anchor)) == want
    # host columns derive from url/href by host_of
    assert (got.src_host == got.url.map(host_of)).all()
    assert (got.dst_host == got.href.map(host_of)).all()


def test_link_counts_sum_to_link_rows(pages_ds, corpus_dir):
    from horizon_ocr_python_ray import read_pages

    links = page_outlinks(pages_ds).to_pandas()
    counts = host_link_counts(read_pages(corpus_dir)).to_pandas()
    assert counts.n_links.sum() == len(links)
    grp = links.groupby(["src_host", "dst_host"]).size()
    assert dict(zip(zip(counts.src_host, counts.dst_host), counts.n_links)) == grp.to_dict()


def test_anchor_terms_topk_rank(pages_ds, corpus_dir):
    from horizon_ocr_python_ray import read_pages

    links = page_outlinks(pages_ds).to_pandas()
    got = host_anchor_terms(read_pages(corpus_dir), k=3).to_pandas()
    # recompute expected per-host top-3 with the same total order
    import pandas as pd

    toks = links.assign(term=links.anchor.str.lower().str.split()).explode("term")
    cnt = toks.groupby(["dst_host", "term"]).size().reset_index(name="n")
    cnt = cnt.sort_values(["dst_host", "n", "term"],
                          ascending=[True, False, True])
    cnt["rk"] = cnt.groupby("dst_host").cumcount() + 1
    want = cnt[cnt.rk <= 3].reset_index(drop=True)
    g = got.sort_values(["dst_host", "rk"]).reset_index(drop=True)
    w = want.sort_values(["dst_host", "rk"]).reset_index(drop=True)
    assert (g[["dst_host", "term", "rk"]].values == w[["dst_host", "term", "rk"]].values).all()
    assert (g.n.to_numpy() == w.n.to_numpy()).all()
    assert (g.groupby("dst_host").size() <= 3).all()


def test_components_corpus_labels_valid(corpus_dir):
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.linkgraph import host_components

    out = host_components(read_pages(corpus_dir), sweeps=4).to_pandas()
    hosts = set(out.host)
    # every component label is itself a host, ≤ its members lexicographically
    assert set(out.comp_label) <= hosts
    assert (out.comp_label <= out.host).all()


def test_components_two_islands_limited_sweeps(monkeypatch):
    """Hand-built graph: chain a-b-c-d plus isolated pair x-y. One
    sweep is enough for the pair; the chain needs 3. Both plans, with
    the pages' edge harvest replaced by the hand-built edges."""
    import ray.data

    import horizon_ocr_python_ray.stages.linkgraph as lg
    from horizon_ocr_python_ray.stages.linkgraph import host_components

    edges = pa.table({"src_host": ["b", "c", "d", "x"], "dst_host": ["a", "b", "c", "y"]})
    monkeypatch.setattr(lg, "_edge_partials", lambda pages: ray.data.from_arrow(edges))
    for cap in (lg.BROADCAST_MAX_EDGES, 0):
        monkeypatch.setattr(lg, "BROADCAST_MAX_EDGES", cap)
        got = {sweeps: dict(host_components(None, sweeps=sweeps).to_pandas()
                            .itertuples(index=False, name=None))
               for sweeps in (1, 4)}
        assert got[1] == {"a": "a", "b": "a", "c": "b", "d": "c", "x": "x", "y": "x"}
        assert got[4] == {"a": "a", "b": "a", "c": "a", "d": "a", "x": "x", "y": "x"}


def test_pagerank_plans_bit_identical(corpus_dir, monkeypatch, udf_calls):
    from horizon_ocr_python_ray import read_pages

    import horizon_ocr_python_ray.stages.linkgraph as lg

    calls = udf_calls(lg, "outlinks_batch")  # the harvest map's kernel
    b = (
        host_pagerank(read_pages(corpus_dir))
        .to_pandas().sort_values("host").reset_index(drop=True)
    )
    n = calls()
    assert n > 0
    monkeypatch.setattr(lg, "BROADCAST_MAX_EDGES", 0)  # partitioned plan
    p = (
        host_pagerank(read_pages(corpus_dir))
        .to_pandas().sort_values("host").reset_index(drop=True)
    )
    assert calls() == n  # the partitioned plan reuses the edge partials
    assert b.equals(p)
    assert b.rank_e12.dtype == np.int64
    # Zipf-skewed host pool: the heaviest host must out-rank the tail.
    top = b.sort_values("rank_e12", ascending=False).iloc[0]
    assert top.host == "host000.example.org"


def test_host_components_plans_bit_identical(corpus_dir, monkeypatch, udf_calls):
    """The partitioned fixed-sweep plan (edges stay a Dataset, only the
    per-host label vector broadcasts per sweep) produces exactly the
    driver plan's labels, from the edge partials the fold produced."""
    from horizon_ocr_python_ray import read_pages
    from horizon_ocr_python_ray.stages.linkgraph import host_components

    import horizon_ocr_python_ray.stages.linkgraph as lg

    calls = udf_calls(lg, "outlinks_batch")
    a = (host_components(read_pages(corpus_dir), sweeps=4)
         .to_pandas().sort_values("host").reset_index(drop=True))
    n = calls()
    assert n > 0
    monkeypatch.setattr(lg, "BROADCAST_MAX_EDGES", 0)
    b = (host_components(read_pages(corpus_dir), sweeps=4)
         .to_pandas().sort_values("host").reset_index(drop=True))
    assert calls() == n
    assert a.equals(b)
    assert len(a) > 0
