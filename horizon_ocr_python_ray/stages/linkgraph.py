"""Host-level web-graph ops: outlink harvest → link graph → PageRank.

The classic web-scale trio over the pages corpus:

- :func:`page_outlinks` — per-page absolute-anchor harvest (one
  ``map_batches`` pass over the html-sniffed rows; no shuffle).
- :func:`host_link_counts` — (src_host, dst_host, n_links) frequency
  table: batch-local combiner partials → ONE narrow groupby.
- :func:`host_pagerank` — K fixed iterations of integer-exact PageRank
  over the DISTINCT non-self host edge set. All arithmetic is int64
  (ranks at e12 scale, floor-divided damping contributions), so every
  plan — and the DuckDB oracle replay — produces bit-identical ranks
  regardless of summation order.

Update rule (per node v, damping 85/100, rank scale 1e12):

    r_0(v)   = 1_000_000_000_000
    r_t+1(v) = 150_000_000_000 + Σ_{(u→v)} (85 · r_t(u)) // (100 · outdeg(u))

Dangling mass is NOT redistributed (documented variant — keeps the
update local to in-edges, which is what makes it exactly replayable in
SQL and order-independent across shards).

Scale notes (10^12 pages → ~10^8 hosts): the edge harvest and the
per-(src,dst) combiner stream; the iteration state is ONE row PER HOST
— 4–5 orders of magnitude smaller than the page table.
Up to :data:`BROADCAST_MAX_EDGES` distinct edges the edge list folds to
the driver and the iterations run there in numpy. Past it the
partitioned plan keeps edges distributed and per iteration broadcasts
only the rank vector (two int64/object arrays) into a ``map_batches``
contribution pass followed by one ``groupby(dst_host).sum`` — the rank
vector is the natural broadcast side long before edges are. Past
~10^8 hosts the same loop runs with ranks hash-partitioned by host and
edges co-partitioned by src (documented; not needed below that).

Reference parity: the reference is a single-document OCR engine with no
web-graph surface; these ops belong to the large-scale-training-data
operator set the engine adds (host graph → PageRank is the canonical
example)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Sum

from ..functions.links import outlinks_batch
from ..functions.sniff import sniff_route
from ..functions.collect import collect_tables, fold_capped

#: Fixed-point scale of the rank column (rank_e12 = rank × 1e12).
RANK_SCALE = 1_000_000_000_000
#: Damping 0.85 as an exact integer pair.
DAMP_NUM, DAMP_DEN = 85, 100
#: Base (1 − d) · scale, exact.
RANK_BASE = 150_000_000_000

#: Distinct-edge count above which the edge list is not folded to the
#: driver and the partitioned plan takes over.
BROADCAST_MAX_EDGES = 5_000_000

_EDGE_SCHEMA = pa.schema([("src_host", pa.string()), ("dst_host", pa.string())])


def _html_links(pages: ray.data.Dataset) -> ray.data.Dataset:
    """(url, html) pages → exploded link rows for html-sniffed payloads."""

    def harvest(t: pa.Table) -> pa.Table:
        htmls = t.column("html").to_pylist()
        keep = [i for i, h in enumerate(htmls) if sniff_route(h) == "html"]
        return outlinks_batch(t.take(keep))

    return pages.select_columns(["url", "html"]).map_batches(
        harvest, batch_format="pyarrow"
    )


def page_outlinks(pages: ray.data.Dataset) -> ray.data.Dataset:
    """Per-page absolute-anchor harvest: (url, src_host, href, anchor,
    dst_host), one row per anchor in document order."""
    return _html_links(pages)


def host_link_counts(pages: ray.data.Dataset) -> ray.data.Dataset:
    """(src_host, dst_host, n_links) link-frequency table (self-links
    and duplicate pages included — a frequency surface, not the
    PageRank edge set). Batch-local combiner → one narrow shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            t.select(["src_host", "dst_host"]), ["src_host", "dst_host"]
        ).aggregate([([], "count_all")])
        return g.rename_columns(["src_host", "dst_host", "p_n"])

    return (
        _html_links(pages)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("p_n", alias_name="n_links"))
    )


def host_anchor_terms(pages: ray.data.Dataset, k: int = 3) -> ray.data.Dataset:
    """Top-k anchor terms per DESTINATION host → (dst_host, term, n, rk).

    The classic search-relevance signal: what the web calls a page
    (anchor text) beats what the page calls itself. Terms are
    lowercased whitespace tokens of the anchor text. Batch-local
    (dst_host, term) combiner → one narrow groupby → per-host top-k
    (rank by n desc, term asc — total order, so every plan and the SQL
    replay agree). The per-host group is vocabulary-sized, never
    corpus-sized."""

    def term_partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column("anchor")), r"\s+"
        )
        idx = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        g = pa.table({
            "dst_host": pc.take(t.column("dst_host"), idx),
            "term": flat,
        })
        g = g.filter(pc.not_equal(g.column("term"), pa.scalar("")))
        out = pa.TableGroupBy(g, ["dst_host", "term"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(["dst_host", "term", "p_n"])

    counts = (
        _html_links(pages)
        .map_batches(term_partial, batch_format="pyarrow")
        .groupby(["dst_host", "term"])
        .aggregate(Sum("p_n", alias_name="n"))
    )

    def topk(df):
        df = df.sort_values(["n", "term"], ascending=[False, True]).head(k)
        df = df.reset_index(drop=True)
        df["rk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    return counts.groupby("dst_host").map_groups(topk, batch_format="pandas")


def _edge_partials(pages: ray.data.Dataset) -> ray.data.Dataset:
    """Batch-local distinct (src,dst) pairs, self-loops dropped — the
    combiner in front of the global distinct."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.select(["src_host", "dst_host"])
        t = t.filter(
            pc.invert(pc.equal(t.column("src_host"), t.column("dst_host")))
        )
        return t.group_by(["src_host", "dst_host"]).aggregate([])

    return _html_links(pages).map_batches(partial, batch_format="pyarrow")


def _pagerank_vec(
    src: np.ndarray, dst: np.ndarray, n: int, iters: int
) -> np.ndarray:
    """The update rule, vectorized: one out-degree bincount, then per
    iteration a gather + floor-div + int64 scatter-add (``np.add.at``
    — bincount would round through float64)."""
    outdeg = np.bincount(src, minlength=n).astype(np.int64)
    r = np.full(n, RANK_SCALE, np.int64)
    denom = DAMP_DEN * outdeg[src]  # per-edge, constant across iterations
    for _ in range(iters):
        contrib = (DAMP_NUM * r[src]) // denom
        nxt = np.full(n, RANK_BASE, np.int64)
        np.add.at(nxt, dst, contrib)
        r = nxt
    return r


def _rank_table(hosts: np.ndarray, r: np.ndarray) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {"host": pa.array(hosts.tolist(), pa.string()),
             "rank_e12": pa.array(r, pa.int64())}
        )
    )


def _node_partial(t: pa.Table) -> pa.Table:
    """Distinct hosts of an edge batch, either endpoint."""
    cols = []
    for name in ("src_host", "dst_host"):
        c = t.column(name)
        cols.append(c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c)
    both = pa.table({"host": pa.concat_arrays(cols)})
    return both.group_by("host").aggregate([])


def host_components(pages: ray.data.Dataset, sweeps: int = 4) -> ray.data.Dataset:
    """Weakly-connected host components by FIXED-SWEEP min-label
    propagation → (host, comp_label).

    Each sweep sets ``label(v) = min(label(v), min_{u~v} label(u))``
    over the undirected adjacency (labels start as the host's own name;
    the final label is the lexicographic min reached within ``sweeps``
    hops — a pinned, SQL-replayable semantics; sweeps ≥ graph diameter
    gives true components). Same two plans as :func:`host_pagerank`;
    internally labels are indexes into the SORTED host array, so
    integer min ≡ lexicographic string min. The engine's converged
    variant for arbitrary graphs is `stages/dedup_docs.py`'s
    distributed label propagation (iterate-until-fixpoint); this one
    pins the sweep count so the oracle can replay it exactly."""
    edges, rest = fold_capped(_edge_partials(pages), _EDGE_SCHEMA,
                              ["src_host", "dst_host"], [], BROADCAST_MAX_EDGES)
    if rest is None:
        s = edges.column("src_host").to_numpy(zero_copy_only=False)
        d = edges.column("dst_host").to_numpy(zero_copy_only=False)
        hosts = np.unique(np.concatenate([s, d])) if len(s) else np.array([], object)
        si = np.searchsorted(hosts, s).astype(np.int64)
        di = np.searchsorted(hosts, d).astype(np.int64)
        u = np.concatenate([si, di])  # undirected: both directions
        v = np.concatenate([di, si])
        lab = np.arange(len(hosts), dtype=np.int64)
        for _ in range(sweeps):
            nxt = lab.copy()
            np.minimum.at(nxt, v, lab[u])
            lab = np.minimum(lab, nxt)
        return ray.data.from_arrow(pa.table({
            "host": pa.array(hosts.tolist(), pa.string()),
            "comp_label": pa.array([hosts[i] for i in lab], pa.string()),
        }))

    # Too many edges for the driver. Partitioned plan (bit-identical
    # labels — tested): edges stay a Dataset; per sweep only the
    # PER-HOST label vector is broadcast (ray.put once, read per task)
    # and only per-host incoming minima
    # return — the same O(hosts) driver state host_pagerank's
    # partitioned loop already carries, with synchronous sweep
    # semantics (mins computed from the PREVIOUS sweep's labels).
    from ray.data.aggregate import Min

    edges_ds = (
        rest.groupby(["src_host", "dst_host"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()  # consumed once per sweep + once for the node set
    )

    node_tbls = collect_tables(
        edges_ds.map_batches(_node_partial, batch_format="pyarrow"))
    if not node_tbls:
        return ray.data.from_arrow(pa.table({
            "host": pa.array([], pa.string()),
            "comp_label": pa.array([], pa.string())}))
    hosts = np.unique(
        pa.concat_tables(node_tbls).column("host").to_numpy(zero_copy_only=False))
    hosts_ref = ray.put(hosts)
    lab = np.arange(len(hosts), dtype=np.int64)
    for _ in range(sweeps):
        lab_ref = ray.put(lab)

        def min_partial(t: pa.Table, _l=lab_ref, _h=hosts_ref) -> pa.Table:
            hv, lv = ray.get(_h), ray.get(_l)
            s = t.column("src_host").to_numpy(zero_copy_only=False)
            d = t.column("dst_host").to_numpy(zero_copy_only=False)
            si = np.searchsorted(hv, s)
            di = np.searchsorted(hv, d)
            g = pa.table({
                "host": pa.array(np.concatenate([d, s])),
                "m": pa.array(np.concatenate([lv[si], lv[di]]), pa.int64()),
            })
            return (g.group_by("host").aggregate([("m", "min")])
                    .rename_columns(["host", "p_m"]))

        mins = (edges_ds.map_batches(min_partial, batch_format="pyarrow")
                .groupby("host").aggregate(Min("p_m", alias_name="m")))
        nxt = lab.copy()
        in_tbls = collect_tables(mins)
        if in_tbls:
            it = pa.concat_tables(in_tbls)
            ti = np.searchsorted(
                hosts, it.column("host").to_numpy(zero_copy_only=False))
            np.minimum.at(nxt, ti, it.column("m").to_numpy())
        lab = np.minimum(lab, nxt)
    return ray.data.from_arrow(pa.table({
        "host": pa.array(hosts.tolist(), pa.string()),
        "comp_label": pa.array([hosts[i] for i in lab], pa.string()),
    }))


def host_pagerank(pages: ray.data.Dataset, iters: int = 3) -> ray.data.Dataset:
    """K-iteration integer-exact PageRank → (host, rank_e12).

    Both plans produce bit-identical ranks (integer update rule);
    ``tests/test_linkgraph.py`` asserts it."""
    edges, rest = fold_capped(_edge_partials(pages), _EDGE_SCHEMA,
                              ["src_host", "dst_host"], [], BROADCAST_MAX_EDGES)
    if rest is None:
        s = edges.column("src_host").to_numpy(zero_copy_only=False)
        d = edges.column("dst_host").to_numpy(zero_copy_only=False)
        hosts = np.unique(np.concatenate([s, d])) if len(s) else np.array([], object)
        src = np.searchsorted(hosts, s).astype(np.int64)
        dst = np.searchsorted(hosts, d).astype(np.int64)
        return _rank_table(hosts, _pagerank_vec(src, dst, len(hosts), iters))

    # Too many edges for the driver. Partitioned plan: global distinct
    # via one (src,dst) shuffle keeps edges a Dataset; only per-HOST
    # state ever reaches the driver.
    edges_ds = (
        rest.groupby(["src_host", "dst_host"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
        .materialize()  # consumed once per iteration + twice for degree/nodes
    )

    def deg_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["src_host"]), "src_host").aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["src_host", "p_n"])

    deg_tbls = collect_tables(
        edges_ds.map_batches(deg_partial, batch_format="pyarrow"))

    node_tbls = collect_tables(
        edges_ds.map_batches(_node_partial, batch_format="pyarrow"))
    if not node_tbls:
        return _rank_table(np.array([], object), np.array([], np.int64))
    hosts = np.unique(
        pa.concat_tables(node_tbls).column("host").to_numpy(zero_copy_only=False)
    )
    deg = (
        pa.concat_tables(deg_tbls).group_by("src_host").aggregate([("p_n", "sum")])
        if deg_tbls
        else pa.table({"src_host": pa.array([], pa.string()),
                       "p_n_sum": pa.array([], pa.int64())})
    )
    outdeg = np.zeros(len(hosts), np.int64)
    di = np.searchsorted(hosts, deg.column("src_host").to_numpy(zero_copy_only=False))
    outdeg[di] = deg.column("p_n_sum").to_numpy()

    hosts_ref = ray.put(hosts)
    deg_ref = ray.put(outdeg)
    r = np.full(len(hosts), RANK_SCALE, np.int64)
    for _ in range(iters):
        r_ref = ray.put(r)

        def contrib_partial(
            t: pa.Table, _r=r_ref, _h=hosts_ref, _d=deg_ref
        ) -> pa.Table:
            hv, rv, dv = ray.get(_h), ray.get(_r), ray.get(_d)
            si = np.searchsorted(hv, t.column("src_host").to_numpy(zero_copy_only=False))
            contrib = (DAMP_NUM * rv[si]) // (DAMP_DEN * dv[si])
            g = pa.table({"dst_host": t.column("dst_host"),
                          "c": pa.array(contrib, pa.int64())})
            return (g.group_by("dst_host").aggregate([("c", "sum")])
                    .rename_columns(["dst_host", "p_c"]))

        sums = (
            edges_ds.map_batches(contrib_partial, batch_format="pyarrow")
            .groupby("dst_host").aggregate(Sum("p_c", alias_name="c"))
        )
        nxt = np.full(len(hosts), RANK_BASE, np.int64)
        in_tbls = collect_tables(sums)
        if in_tbls:
            it = pa.concat_tables(in_tbls)
            ti = np.searchsorted(hosts, it.column("dst_host").to_numpy(zero_copy_only=False))
            np.add.at(nxt, ti, it.column("c").to_numpy())
        r = nxt
    return _rank_table(hosts, r)
