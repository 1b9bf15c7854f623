"""Host-level web-graph ops and the one vertex-propagation loop.

Over the pages corpus:

- :func:`page_outlinks` — per-page absolute-anchor harvest (one
  ``map_batches`` pass over the html-sniffed rows; no shuffle).
- :func:`host_link_counts` — (src_host, dst_host, n_links) frequency
  table: batch-local combiner partials → ONE narrow groupby.
- :func:`host_anchor_terms` — top-k anchor terms per destination host.
- :func:`host_pagerank` — K fixed iterations of integer-exact PageRank
  over the DISTINCT non-self host edge set.
- :func:`host_components` — fixed-sweep min-label components over the
  same edges, undirected.

Both graph ops are :func:`propagate`, the package's one loop that
carries a per-node int64 state along an edge list: sum rounds over the
directed edges for PageRank, min rounds over both directions for
components; ``dedup_docs.near_dup_clusters`` runs it to a fixpoint over
doc-id pairs. All arithmetic is integer and every combine is
order-independent, so both of its plans — and the DuckDB oracle replays
— give bit-identical results.

PageRank update rule (per node v, damping 85/100, rank scale 1e12):

    r_0(v)   = 1_000_000_000_000
    r_t+1(v) = 150_000_000_000 + Σ_{(u→v)} (85 · r_t(u)) // (100 · outdeg(u))

Dangling mass is NOT redistributed (documented variant — keeps the
update local to in-edges, which is what makes it exactly replayable in
SQL and order-independent across shards).

Scale notes (10^12 pages → ~10^8 hosts): the edge harvest and the
per-(src,dst) combiner stream; the propagation state is ONE value PER
NODE — 4–5 orders of magnitude smaller than the page table, so past
:data:`BROADCAST_MAX_EDGES` the edges stay distributed and only the
state vector is broadcast per round. Past ~10^8 hosts the same loop
would run with the state hash-partitioned by node (not needed below
that).

Reference parity: the reference is a single-document OCR engine with no
web-graph surface; these ops belong to the large-scale-training-data
operator set the engine adds (host graph → PageRank is the canonical
example)."""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Min, Sum

from ..functions.links import outlinks_batch
from ..functions.sniff import sniff_route
from ..functions.collect import collect_tables, fold_capped
from ..functions.textstats import flat_terms

#: Fixed-point scale of the rank column (rank_e12 = rank × 1e12).
RANK_SCALE = 1_000_000_000_000
#: Damping 0.85 as an exact integer pair.
DAMP_NUM, DAMP_DEN = 85, 100
#: Base (1 − d) · scale, exact.
RANK_BASE = 150_000_000_000

#: Distinct-edge count above which :func:`propagate` does not fold the
#: edge list to the driver and runs its rounds over the distributed edges.
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
        terms, offsets = flat_terms(t.column("anchor"))
        idx = np.repeat(np.arange(t.num_rows), np.diff(offsets))
        g = pa.table({"dst_host": t.column("dst_host").take(idx),
                      "term": terms})
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


class Rule(NamedTuple):
    """What :func:`propagate` carries along the edges. Node values and
    messages are int64; a node is its index into the sorted node array."""

    #: How a node's messages combine: ``"sum"`` or ``"min"``.
    combine: str
    #: ``init(n)`` → the state before the first round.
    init: Callable
    #: ``send(s, d, state, outdeg)`` → (target indexes, messages), from
    #: the edges' endpoint indexes and the previous round's state.
    send: Callable
    #: ``update(state, inbox)`` → the next state; the inbox holds each
    #: node's combined messages (0, or int64 max, where none arrive).
    update: Callable


#: Per combine: the scatter ufunc, the inbox value of a node no message
#: reaches, and the Ray aggregate of the distributed rounds.
_COMBINE = {"sum": (np.add, 0, Sum),
            "min": (np.minimum, np.iinfo(np.int64).max, Min)}


def _rounds(rule: Rule, n: int, messages, rounds):
    """The round loop: ``messages(state)`` yields (targets, messages)
    array pairs; ``rounds`` rounds, or with ``rounds=None`` until the
    state stops changing."""
    ufunc, fill, _ = _COMBINE[rule.combine]
    state = rule.init(n)
    for _ in itertools.count() if rounds is None else range(rounds):
        inbox = np.full(n, fill, np.int64)
        for tgt, msg in messages(state):
            ufunc.at(inbox, tgt, msg)
        nxt = rule.update(state, inbox)
        if rounds is None and np.array_equal(nxt, state):
            break
        state = nxt
    return state


def propagate_arrays(s: np.ndarray, d: np.ndarray, n: int, rule: Rule, rounds):
    """:func:`propagate`'s driver plan: ``rule`` over the distinct edges
    ``s[i] → d[i]`` of nodes ``0..n-1``, in numpy → the final state."""
    outdeg = np.bincount(s, minlength=n).astype(np.int64)
    return _rounds(rule, n, lambda state: [rule.send(s, d, state, outdeg)], rounds)


def _node_degrees(t: pa.Table) -> pa.Table:
    """Node-pass partial over a batch of distinct edges: every endpoint
    with its out-degree within the batch."""
    s, d = (c.combine_chunks() for c in t.columns)
    g = pa.table({
        "node": pa.concat_arrays([s, d]),
        "p_deg": np.concatenate([np.ones(len(s), np.int64),
                                 np.zeros(len(d), np.int64)]),
    })
    return g.group_by("node").aggregate([("p_deg", "sum")]).rename_columns(
        ["node", "p_deg"])


def propagate(partials, schema: pa.Schema, rule: Rule, rounds):
    """Vertex propagation: ``rule`` over the distinct edges of
    ``partials`` for ``rounds`` rounds (``None``: until the state stops
    changing) → ``(nodes, state)``, the sorted node array and each
    node's final int64 value.

    ``partials`` holds batch-local edge partials laid out as ``schema``
    (source column, target column); the nodes are the endpoints. Up to
    :data:`BROADCAST_MAX_EDGES` distinct edges fold to the driver
    (``collect.fold_capped``) and :func:`propagate_arrays` runs the
    rounds in numpy. Past it the edges stay a Dataset: one distinct
    groupby over the partial blocks the fold handed over, one node pass
    for the node array and the out-degrees, then per round the state
    vector is ``ray.put`` once, each batch pre-combines its messages by
    target, and one ``groupby(target)`` Sum/Min returns O(nodes) rows
    that scatter with the same ufunc. Both plans give the same state
    (integer messages, order-independent combines)."""
    src, dst = schema.names
    edges, rest = fold_capped(partials, schema, [src, dst], [],
                              BROADCAST_MAX_EDGES)
    if rest is None:
        s = edges.column(src).to_numpy(zero_copy_only=False)
        d = edges.column(dst).to_numpy(zero_copy_only=False)
        nodes = np.unique(np.concatenate([s, d]))
        return nodes, propagate_arrays(np.searchsorted(nodes, s),
                                       np.searchsorted(nodes, d),
                                       len(nodes), rule, rounds)

    edges = (rest.groupby([src, dst]).aggregate(Count(alias_name="_n"))
             .drop_columns(["_n"])
             .materialize())  # read once per round + once by the node pass
    deg = pa.concat_tables(collect_tables(
        edges.map_batches(_node_degrees, batch_format="pyarrow")
        .groupby("node").aggregate(Sum("p_deg", alias_name="deg"))
    )).sort_by("node")
    nodes = deg.column("node").to_numpy(zero_copy_only=False)
    nodes_ref = ray.put(nodes)
    deg_ref = ray.put(deg.column("deg").to_numpy().astype(np.int64))
    agg = _COMBINE[rule.combine][2]

    def messages(state):
        state_ref = ray.put(state)

        def batch(t: pa.Table) -> pa.Table:
            nv = ray.get(nodes_ref)
            tgt, msg = rule.send(
                np.searchsorted(nv, t.column(src).to_numpy(zero_copy_only=False)),
                np.searchsorted(nv, t.column(dst).to_numpy(zero_copy_only=False)),
                ray.get(state_ref), ray.get(deg_ref))
            g = pa.table({"t": pa.array(tgt, pa.int64()),
                          "m": pa.array(msg, pa.int64())})
            return g.group_by("t").aggregate([("m", rule.combine)]).rename_columns(
                ["t", "m"])

        out = (edges.map_batches(batch, batch_format="pyarrow")
               .groupby("t").aggregate(agg("m", alias_name="m")))
        return [(t.column("t").to_numpy(), t.column("m").to_numpy())
                for t in collect_tables(out)]

    return nodes, _rounds(rule, len(nodes), messages, rounds)


def _min_label_send(s, d, lab, outdeg):
    """Each edge, both directions, sends its source's label to its target."""
    return np.concatenate([d, s]), np.concatenate([lab[s], lab[d]])


#: Synchronous min-label sweeps over the undirected edges; labels start
#: as the node's own index.
MIN_LABEL = Rule("min", lambda n: np.arange(n, dtype=np.int64),
                 _min_label_send, np.minimum)


def host_components(pages: ray.data.Dataset, sweeps: int = 4) -> ray.data.Dataset:
    """Weakly-connected host components by FIXED-SWEEP min-label
    propagation → (host, comp_label).

    Each sweep sets ``label(v) = min(label(v), min_{u~v} label(u))``
    over the undirected distinct host graph, synchronously (from the
    previous sweep's labels): :func:`propagate` with :data:`MIN_LABEL`.
    Labels start as the host's own name and are indexes into the SORTED
    host array inside the loop, so integer min ≡ lexicographic string
    min. The final label is the smallest host within ``sweeps`` hops — a
    pinned, SQL-replayable semantics; sweeps ≥ graph diameter gives true
    components (the converged form over doc ids is
    ``dedup_docs.near_dup_clusters``)."""
    hosts, lab = propagate(_edge_partials(pages), _EDGE_SCHEMA, MIN_LABEL, sweeps)
    return ray.data.from_arrow(pa.table({
        "host": pa.array(hosts, pa.string()),
        "comp_label": pa.array(hosts[lab], pa.string()),
    }))


def _pagerank_send(s, d, r, outdeg):
    """Each edge sends ``(85 · r(src)) // (100 · outdeg(src))`` to dst."""
    return d, (DAMP_NUM * r[s]) // (DAMP_DEN * outdeg[s])


#: The PageRank update rule of the module docstring.
PAGERANK = Rule("sum", lambda n: np.full(n, RANK_SCALE, np.int64),
                _pagerank_send, lambda r, inbox: RANK_BASE + inbox)


def host_pagerank(pages: ray.data.Dataset, iters: int = 3) -> ray.data.Dataset:
    """K-iteration integer-exact PageRank → (host, rank_e12):
    :func:`propagate` with :data:`PAGERANK` for ``iters`` rounds over
    the directed distinct edges. Both plans produce bit-identical ranks
    (integer update rule); ``tests/test_linkgraph.py`` asserts it."""
    hosts, r = propagate(_edge_partials(pages), _EDGE_SCHEMA, PAGERANK, iters)
    return ray.data.from_arrow(pa.table({
        "host": pa.array(hosts, pa.string()),
        "rank_e12": pa.array(r, pa.int64()),
    }))
