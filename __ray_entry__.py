"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init`` / ``ray.shutdown``.

``queries()`` maps operator names from SURVEY.md §2 (+ the training-data
curation ops) to callables over ``sf_dir``; ``oracle_sql()`` provides the
DuckDB-equivalent SQL for every SQL-expressible entry. Column names match
between the two (the driver hash-compares values after sorting columns by
name). Non-SQL-expressible ops (the extraction pipeline over the synthetic
pages corpus, raw MinHash/SimHash sketch values) have no oracle entry →
driver records a rows-only check; their real correctness gate is the
byte-identity pytest suite (tests/test_pipeline_golden.py). The LSH paths
(ann_topk_lsh, emb_near_dup_lsh) and the MinHash near-dup/cluster
pipelines ARE oracled: their banding parameters give effectively-exact
recall, so the SQL ground truth is the exact all-pairs computation.
"""

from __future__ import annotations

import os as _os
from collections.abc import Callable
from typing import Any

#: Round 4: the three media queries have fully ANALYTIC oracles (planted
#: md5 parameters replayed in SQL). Round 5: the re-OCR oracle's expected
#: counters come from tools/reocr_reference.py — an independent from-spec
#: implementation — via data/reocr_expected.json; data/golden/ is empty.
_REOCR_EXPECTED = _os.path.join(_os.path.dirname(_os.path.abspath(__file__)),
                                "data", "reocr_expected.json")


def _reocr_expected_values() -> str:
    """VALUES literal rows (n_rows, strategy, <counters>) from the
    independent re-OCR reference's expected json (one block per
    driver-compare corpus tier, discriminated by the pages row count)."""
    import json as _json

    with open(_REOCR_EXPECTED) as f:
        expected = _json.load(f)
    fields = ("n_pages", "n_lines", "n_selected", "n_improved", "n_failed",
              "improved_primary", "improved_secondary", "sum_gain_e4")
    rows = []
    for n_rows in sorted(expected, key=int):
        for strategy in sorted(expected[n_rows]):
            rec = expected[n_rows][strategy]
            vals = ", ".join(str(int(rec[f])) for f in fields)
            rows.append(f"({n_rows}, '{strategy}', {vals})")
    return ", ".join(rows)


def _probe_pix_sql(id_expr: str, y_expr: str, x_expr: str) -> str:
    """DuckDB expression regenerating one planted image-probe pixel —
    the SQL twin of ``stages/multimodal._probe_image_pixels`` (key
    ``mpx:42:{id}:{y}:{x}``, three variants keyed on the image-row
    ordinal ``id // 3``)."""
    m = (f"md5_number_lower('mpx:42:' || CAST({id_expr} AS VARCHAR) || ':' "
         f"|| CAST({y_expr} AS VARCHAR) || ':' || CAST({x_expr} AS VARCHAR))")
    return (f"(CASE (({id_expr}) // 3) % 3 "
            f"WHEN 0 THEN CAST({m} % 256 AS BIGINT) "
            f"WHEN 1 THEN 120 + CAST({m} % 16 AS BIGINT) "
            f"ELSE CAST({m} % 40 AS BIGINT) END)")


#: Shared CTE prefix for the three media-probe oracles: fixture row ids
#: (media fixture n = max(30, sf*30000) = events*3/100) and the planted
#: image parameters (dims from md5, orientation/variant from the
#: image-row ordinal) — the SQL twin of ``gen_media_probe_table``.
_PROBE_IDS_SQL = """
            ids AS (
              SELECT range AS media_id FROM range(1000000)
              WHERE range < greatest(30, (SELECT (count(*) * 3) // 100
                                          FROM events))
            )"""
_PROBE_IMG_SQL = """
            img AS (
              SELECT media_id,
                     ((media_id // 3) % 8) + 1 AS o,
                     [16, 24, 32][CAST(md5_number_lower(
                         'mpw:42:' || CAST(media_id AS VARCHAR)) % 3
                         AS INTEGER) + 1] AS w,
                     [16, 24][CAST(md5_number_lower(
                         'mph:42:' || CAST(media_id AS VARCHAR)) % 2
                         AS INTEGER) + 1] AS h
              FROM ids WHERE media_id % 3 = 0
            )"""
_PROBE_VID_SQL = """
            vid AS (
              SELECT media_id,
                     2 + CAST(md5_number_lower('mpvn:42:' ||
                         CAST(media_id AS VARCHAR)) % 10 AS BIGINT) AS nf
              FROM ids WHERE media_id % 3 = 2
            )"""


def _sf_table(sf_dir: str, name: str, columns: list[str] | None = None):
    """``read_parquet`` of a driver sf table with a metadata-stripped
    explicit schema — keeps Ray's schema-dedup from logging
    ``Failed to hash the schemas`` on every read (the driver's parquet
    footers carry an unhashable pandas metadata blob)."""
    from horizon_ocr_python_ray.sources.tables import read_sf_table

    return read_sf_table(sf_dir, name, columns)

_EN = "('the','a','of','and','to','is','in','it','that')"
_DE = "('der','die','das','und','ist','nicht','ein','mit')"
_FR = "('le','la','les','et','est','une','dans','pas')"
_ES = "('el','la','los','y','es','una','en','por','que')"


def entry() -> Any:
    """Flagship extraction pipeline on the sf0.001-scale synthetic pages
    corpus: sniff/route → single-pass route-dispatched extraction with
    per-worker content-hash memo dedup (see DedupConfig)."""
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages

    corpus = ensure_corpus(0.001)
    return build_extract_pipeline(read_pages(corpus))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _pages_extract(sf_dir: str):
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    import pyarrow as pa

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))

    def project(t: pa.Table) -> pa.Table:
        import hashlib

        import pyarrow.compute as pc
        n_spans = pc.list_value_length(t.column("spans")).cast(pa.int64())
        text_len = pc.utf8_length(t.column("extracted_text")).cast(pa.int64())
        # full byte-identity surface: md5 of the extracted text, matched
        # against DuckDB md5(extracted_text) over the golden fixtures
        text_md5 = pa.array(
            [hashlib.md5(s.encode("utf-8")).hexdigest()
             for s in t.column("extracted_text").to_pylist()],
            pa.string(),
        )
        return pa.Table.from_arrays(
            [t.column("url"), t.column("route"), t.column("content_hash"),
             text_len, n_spans, text_md5],
            names=["url", "route", "content_hash", "text_len", "n_spans", "text_md5"],
        )

    return out.map_batches(project, batch_format="pyarrow")


def _pages_route_counts(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.route import add_sniff_stage
    from ray.data.aggregate import Count

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    ds = add_sniff_stage(read_pages(corpus))
    return ds.groupby("route").aggregate(Count(alias_name="n_pages"))


def _doc_exact_dedup(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.dedup_docs import exact_dedup_docs

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup_docs(docs)


def _doc_token_stats(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.textstats_stage import token_stats_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(token_stats_batch, batch_format="pyarrow")


def _doc_quality(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.textstats_stage import quality_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(quality_batch, batch_format="pyarrow")


def _doc_lang_id(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.textstats_stage import lang_id_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(lang_id_batch, batch_format="pyarrow")


def _doc_lang_confusion(sf_dir: str):
    """Label-vs-detected language confusion matrix (eval-style corpus
    diagnostic); combiner before a |langs|²-row shuffle."""
    import ray.data
    from horizon_ocr_python_ray.stages.textstats_stage import lang_confusion

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "text", "lang"])
    return lang_confusion(docs)


def _doc_fingerprint(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.textstats_stage import fingerprint_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(fingerprint_batch, batch_format="pyarrow")


def _doc_winnow(sf_dir: str):
    """Winnowing document fingerprints (Schleimer et al. 2003 — the
    MOSS scheme): per-doc distinct window-minimum gram hashes, digested
    as (count, signed-domain XOR). One stateless map_batches pass, zero
    shuffles; the SQL oracle replays gram hashing + window minima with
    md5_number_lower and a ROWS window frame."""
    from horizon_ocr_python_ray.stages.winnow import winnow_fingerprints

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return winnow_fingerprints(docs)


def _doc_winnow_pairs(sf_dir: str):
    """MOSS detection: document pairs sharing >= 2 winnowing
    fingerprints, boilerplate fingerprints (df > 50) excluded. One
    narrow (fp, doc) shuffle; the pairable-fingerprint broadcast is
    sized by the duplicate rate, never the corpus."""
    from horizon_ocr_python_ray.stages.winnow import winnow_shared_pairs

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return winnow_shared_pairs(docs)


def _doc_winnow_clusters(sf_dir: str):
    """Connected components over the MOSS shared-fingerprint pairs
    (cluster_id = min doc_id of the component) — winnow-based near-dup
    grouping, composing the pairs plan with the documented union-find
    fast path (pair set sized by the duplicate rate)."""
    from horizon_ocr_python_ray.stages.dedup_docs import near_dup_clusters
    from horizon_ocr_python_ray.stages.winnow import winnow_shared_pairs

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return near_dup_clusters(winnow_shared_pairs(docs))


def _doc_simhash(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.dedup_docs import simhash_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(simhash_batch, batch_format="pyarrow")


def _doc_simhash_near_dup(sf_dir: str):
    """Exact Hamming-ball near-dup pairs over the 64-bit SimHash
    (pigeonhole banding → XOR-popcount verify; D5–D6 analog)."""
    import ray.data
    from horizon_ocr_python_ray.stages.dedup_docs import simhash_near_dup_pairs

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_near_dup_pairs(docs, max_hamming=3)


def _minhash_near_dup(sf_dir: str):
    import pyarrow as pa
    import ray.data
    from horizon_ocr_python_ray.stages.dedup_docs import minhash_near_dup_verified
    from horizon_ocr_python_ray.stages.window import fixed_point

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    verified = minhash_near_dup_verified(docs, min_est_jaccard=0.5, verify_threshold=0.5)

    # Oracle-comparable projection: exact n-gram Jaccard as fixed-point e6
    # (the MinHash est_jaccard column is signature-derived — not SQL-
    # reproducible — so it is dropped). LSH banding recall at the verify
    # threshold: near-dup pairs sit at j ≥ 0.87 in this corpus, where the
    # 32×4 banding miss probability is < 1e-12 → pair set equals the
    # all-pairs SQL.
    def project(t: "pa.Table") -> "pa.Table":
        return pa.Table.from_arrays(
            [t.column("doc_a"), t.column("doc_b"),
             fixed_point(t.column("jaccard"), 1e6)],
            names=["doc_a", "doc_b", "jaccard_e6"],
        )

    return verified.map_batches(project, batch_format="pyarrow")


def _ann_topk(sf_dir: str):
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import (
        brute_force_topk,
        smallest_id_rows,
    )

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.array(smallest_id_rows(emb, 1).column("embedding").to_pylist()[0],
                 dtype=np.float64)
    out = brute_force_topk(emb, q, k=10)

    def project(t):
        import pyarrow as pa
        import pyarrow.compute as pc
        return pa.Table.from_arrays(
            [t.column("vec_id"), pc.round(t.column("score"), 6), t.column("rank")],
            names=["vec_id", "score", "rank"],
        )

    return project(out)


def _ann_topk_lsh(sf_dir: str):
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import (
        lsh_bucketed_topk,
        smallest_id_rows,
    )

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.array(smallest_id_rows(emb, 1).column("embedding").to_pylist()[0],
                 dtype=np.float64)
    out = lsh_bucketed_topk(emb, q, k=10, dim=len(q))

    def project(t):
        import pyarrow as pa
        import pyarrow.compute as pc
        return pa.Table.from_arrays(
            [t.column("vec_id"), pc.round(t.column("score"), 6), t.column("rank")],
            names=["vec_id", "score", "rank"],
        )

    return project(out)


def _ann_topk_ivf(sf_dir: str):
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import ivf_topk, smallest_id_rows

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.array(smallest_id_rows(emb, 1).column("embedding").to_pylist()[0],
                 dtype=np.float64)
    out = ivf_topk(emb, q, k=10)

    def project(t):
        import pyarrow as pa
        import pyarrow.compute as pc
        return pa.Table.from_arrays(
            [t.column("vec_id"), pc.round(t.column("score"), 6), t.column("rank")],
            names=["vec_id", "score", "rank"],
        )

    return project(out)


def _events_hourly(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import fixed_point, tumbling_window
    import pyarrow as pa

    events = _sf_table(sf_dir, "events",
                                   columns=["event_id", "ts", "event_type", "value"])
    out = tumbling_window(events, width_s=3600)

    def as_e4(t: "pa.Table") -> "pa.Table":
        # Float sums accumulate order-dependent ulps; compare as integer
        # 1e-4 units so the hash is stable vs the DuckDB oracle.
        e4 = fixed_point(t.column("sum_value"), 10000.0)
        return t.set_column(t.column_names.index("sum_value"), "sum_value_e4", e4)

    return out.map_batches(as_e4, batch_format="pyarrow")


def _events_sliding(sf_dir: str):
    import ray.data
    import pyarrow as pa
    from horizon_ocr_python_ray.stages.window import fixed_point, sliding_window

    events = _sf_table(sf_dir, "events",
                                   columns=["event_id", "ts", "event_type", "value"])
    out = sliding_window(events, width_s=3600, slide_s=900)

    def as_e4(t: pa.Table) -> pa.Table:
        e4 = fixed_point(t.column("sum_value"), 10000.0)
        return t.set_column(t.column_names.index("sum_value"), "sum_value_e4", e4)

    return out.map_batches(as_e4, batch_format="pyarrow")


def _events_sessions(sf_dir: str):
    import ray.data
    import pyarrow as pa
    from horizon_ocr_python_ray.stages.window import fixed_point, session_window

    events = _sf_table(sf_dir, "events",
                                   columns=["event_id", "ts", "user_id", "value"])
    out = session_window(events, gap_s=1800)

    def finish(t: pa.Table) -> pa.Table:
        e4 = fixed_point(t.column("sum_value"), 10000.0)
        t = t.set_column(t.column_names.index("sum_value"), "sum_value_e4", e4)
        return t.set_column(t.column_names.index("session_idx"), "session_idx",
                            t.column("session_idx").cast(pa.int64()))

    return out.map_batches(finish, batch_format="pyarrow")


def _events_lag(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_lag

    events = _sf_table(sf_dir, "events",
                                   columns=["event_id", "user_id", "ts"])
    return events_lag(events)


def _events_funnel(sf_dir: str):
    """Per-user session funnel: sessions containing view→purchase in
    order (sequence match inside gap-based sessions)."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_funnel

    events = _sf_table(sf_dir, "events",
        columns=["event_id", "ts", "user_id", "event_type"])
    return events_funnel(events, first="view", then="purchase")


def _events_hourly_users(sf_dir: str):
    """Exact distinct-user count per (event_type, hour window) — the
    windowed two-phase distinct."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_hourly_users

    events = _sf_table(sf_dir, "events",
                                   columns=["ts", "event_type", "user_id"])
    return events_hourly_users(events, width_s=3600)


def _events_attribution(sf_dir: str):
    """Last-touch attribution: two-stream as-of join (purchase ← most
    recent strictly-earlier view by the same user;
    ``stages/window.py:events_attribution``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_attribution

    events = _sf_table(sf_dir, "events",
        columns=["ts", "user_id", "event_id", "event_type"])
    return events_attribution(events)


def _emb_nn_join(sf_dir: str):
    """Exact 1-NN self-join over the embedding table (SemDeDup's
    nearest-neighbor-distance primitive;
    ``stages/ann.py:emb_nn_join``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.ann import emb_nn_join

    emb = _sf_table(sf_dir, "embeddings",
                                columns=["vec_id", "embedding"])
    return emb_nn_join(emb)


def _events_retention(sf_dir: str):
    """Cohort retention matrix: (first-activity day, day offset) →
    distinct retained users; one user-bucket shuffle
    (``stages/window.py:events_retention``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_retention

    events = _sf_table(sf_dir, "events",
                                   columns=["ts", "user_id"])
    return events_retention(events)


def _events_pivot(sf_dir: str):
    """Long→wide pivot: per-user count column per event type
    (``stages/window.py:events_pivot``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_pivot

    events = _sf_table(sf_dir, "events",
                                   columns=["user_id", "event_type"])
    return events_pivot(events)


def _events_rollup(sf_dir: str):
    """Three-level ROLLUP(event_type, hour) — raw table scanned once,
    coarser levels fold from the finest aggregate."""
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_rollup

    events = _sf_table(sf_dir, "events",
                                   columns=["ts", "event_type", "value"])
    return events_rollup(events, width_s=3600)


def _events_quantiles(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_quantiles

    events = _sf_table(sf_dir, "events",
                                   columns=["event_type", "value"])
    return events_quantiles(events)


def _events_distinct_users(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_distinct_users

    events = _sf_table(sf_dir, "events",
                                   columns=["event_type", "user_id"])
    return events_distinct_users(events)


def _events_value_bands(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_value_bands

    events = _sf_table(sf_dir, "events",
                                   columns=["event_type", "value"])
    return events_value_bands(events)


def _events_props_sum(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.window import events_props_sum

    events = _sf_table(sf_dir, "events",
                                   columns=["event_type", "props"])
    return events_props_sum(events)


def _emb_near_dup(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.ann import embedding_near_dup_pairs

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dup_pairs(emb, threshold=0.4)


def _emb_near_dup_lsh(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.ann import embedding_near_dup_pairs_lsh

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = emb.take(1)[0]["embedding"]
    # 32 tables × 2 planes: miss ≈ 1e-7 per true pair at cosine 0.4 →
    # output equals the exact variant (same DuckDB oracle).
    return embedding_near_dup_pairs_lsh(emb, threshold=0.4, dim=len(q))


def _emb_dup_clusters(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.ann import embedding_near_dup_pairs
    from horizon_ocr_python_ray.stages.dedup_docs import near_dup_clusters

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    pairs = embedding_near_dup_pairs(emb, threshold=0.4)
    out = near_dup_clusters(pairs.map_batches(
        lambda t: t.rename_columns(["doc_a", "doc_b", "sim_e6"]),
        batch_format="pyarrow",
    ))
    return out.map_batches(
        lambda t: t.rename_columns(["vec_id", "cluster_id"]), batch_format="pyarrow"
    )


def _pages_fields(sf_dir: str):
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.fields_stage import build_fields_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    fields = build_fields_pipeline(out)
    # Oracle projection: the construction-verifiable columns (the planted
    # fields fixture + strpos anchors). data_type/status/normalized_value
    # are fusion-internal semantics covered by tests/test_fuse.py.
    return fields.map_batches(
        lambda t: t.select(["url", "name", "value", "n_candidates",
                            "confidence", "value_start", "value_end"]),
        batch_format="pyarrow",
    )


def _pages_tables(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.tables_stage import build_tables_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_tables_pipeline(read_pages(corpus))
    return out.map_batches(
        lambda t: t.select(["url", "page", "table_idx", "n_rows", "n_cols",
                            "n_cells", "cells_md5"]),
        batch_format="pyarrow",
    )


def _pages_overlays(sf_dir: str):
    """Layout-overlay draw-records (S11 analog, ``io/artifacts.py:175-256``):
    every rect's kind, color, label and anchored line text verified
    against the golden spans by the oracle."""
    import pyarrow.compute as pc

    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.artifacts import build_overlay_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_overlay_pipeline(read_pages(corpus))
    return out.map_batches(
        lambda t: t.filter(pc.equal(t.column("layer"), "layout"))
                   .select(["url", "idx", "kind", "color", "label", "line_text"]),
        batch_format="pyarrow",
    )


def _pages_table_overlays(sf_dir: str):
    """Table-structure overlay cells (S11 analog, ``io/artifacts.py:
    309-390``): header/body coloring + row-major cell labels vs the
    golden grid fixtures."""
    import pyarrow.compute as pc

    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.artifacts import build_overlay_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_overlay_pipeline(read_pages(corpus))
    return out.map_batches(
        lambda t: t.filter(pc.equal(t.column("layer"), "table"))
                   .select(["url", "page", "kind", "idx", "color", "label"]),
        batch_format="pyarrow",
    )


def _pages_reconstruction(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.reconstruct_stage import build_reconstruction_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_reconstruction_pipeline(read_pages(corpus))
    # Oracle projection: structural counts, all derivable from the golden
    # fixtures (spans per heavy-route doc, planted tables, planted fields).
    # The full reconstruction string is byte-verified against golden
    # renders in tests/test_reconstruct.py.
    return out.map_batches(
        lambda t: t.select(["url", "n_elements", "n_tables", "n_fields"]),
        batch_format="pyarrow",
    )


def _pages_styles(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.style_stage import build_styles_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return build_styles_pipeline(read_pages(corpus))


def _pages_redact(sf_dir: str):
    """PII scrub over extracted text (email / phone / IPv4 masks +
    per-class counts) — the C4/Dolma-style curation pass."""
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.redact import redact_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    return out.map_batches(redact_batch, batch_format="pyarrow")


def _pages_doc_meta(sf_dir: str):
    """S4 metadata probe: header-only page count for binary-doc and
    image payloads — counts the raw ``"page":`` byte markers without
    JSON-parsing or glyph-decoding anything (reference io/pdf.py:144-173
    counts page objects without rasterizing). Column-pruned read, one
    byte scan per row, zero shuffles."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.docformat import probe_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url", "html"])
    return pages.map_batches(probe_batch, batch_format="pyarrow")


def _pages_complexity_route(sf_dir: str):
    """A11 classify-and-route analog: header-only complexity bands
    (page volume + low-confidence alt-record markers) → extraction-
    variant routing table → band counts. Batch-local combiner → 3-row
    groupby; the payload never decodes and never shuffles."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.complexity import complexity_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url", "html"])

    def partial(t: pa.Table) -> pa.Table:
        scored = complexity_batch(t)
        g = pa.TableGroupBy(
            scored.select(["complexity", "extract_variant"]),
            ["complexity", "extract_variant"]).aggregate([([], "count_all")])
        return g.rename_columns(["complexity", "extract_variant", "p_n"])

    return (pages.map_batches(partial, batch_format="pyarrow")
            .groupby(["complexity", "extract_variant"])
            .aggregate(Sum("p_n", alias_name="n")))


def _pages_html_meta(sf_dir: str):
    """CC-index-style metadata harvest: title + anchor/paragraph/heading
    counts for payloads passing the exact ``<!DOCTYPE html`` byte-prefix
    gate. Column-pruned read, one RE2 kernel per field, zero shuffles."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.htmlmeta import html_meta_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url", "html"])
    return pages.map_batches(html_meta_batch, batch_format="pyarrow")


def _pages_blocklist(sf_dir: str):
    """Domain-blocklist URL filter (crawl hygiene): host equality or
    subdomain-suffix match against a broadcast list, first match names
    the rule in ``blocked_by``. Column-pruned read, zero shuffles."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.blocklist import blocklist_filter_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url"])
    return pages.map_batches(blocklist_filter_batch, batch_format="pyarrow")


def _pages_zorder(sf_dir: str):
    """Z-order (Morton) layout keys over (host-hash, crawl-hour): the
    lakehouse OPTIMIZE ZORDER primitive — one key whose ranges prune in
    both dimensions. Stateless projection, zero shuffles; composes with
    the sorted sink for the clustered write."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.zorder import zorder_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url", "warc_ts"])
    return pages.map_batches(zorder_batch, batch_format="pyarrow")


def _pages_c4_filter(sf_dir: str):
    """C4-style heuristic cleaning (Raffel et al. 2020 §2.2): per-line
    terminal-punctuation / min-words / boilerplate-phrase keep rules,
    then per-document drops (code brace, lorem ipsum, <3 kept lines).
    Stateless map_batches, zero shuffles at any scale."""
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.c4filter import c4_filter_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    return out.map_batches(c4_filter_batch, batch_format="pyarrow")


def _pages_line_dedup(sf_dir: str):
    """Corpus-global boilerplate line removal (RefinedWeb-style): lines
    in ≥5 distinct docs dropped everywhere; per-doc digest of the
    cleaned text. The narrow (url, text) projection is materialized so
    the two passes (line-DF, rewrite) don't re-run extraction — at
    scale both passes read the extract sink's parquet instead."""
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linededup import boilerplate_line_dedup

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    narrow = out.select_columns(["url", "extracted_text"]).materialize()
    return boilerplate_line_dedup(narrow, min_df=5)


def _pages_bloom_probe(sf_dir: str):
    """Bloom seen-set probe: filter built over the BASE url split
    (md5-low64 permille >= 100), probed by the held-out split. Hits are
    the Bloom answer — deterministic, false positives included."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.bloom import bloom_probe
    from horizon_ocr_python_ray.functions.fasthash import md5_number_lower

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    pages = read_pages(corpus, columns=["url"])

    def split(keep_probe: bool):
        def f(t):
            import pyarrow as pa

            m = pa.array([(md5_number_lower(u) % 1000) < 100
                          for u in t.column("url").to_pylist()])
            import pyarrow.compute as pc

            return t.filter(m if keep_probe else pc.invert(m))
        return f

    base = pages.map_batches(split(False), batch_format="pyarrow")
    probe = pages.map_batches(split(True), batch_format="pyarrow")
    return bloom_probe(base, probe, key_col="url")


def _pages_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (duplicate-line counts,
    top-token frequency) as exact integers over extracted text."""
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.textstats import repetition_batch

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    return out.map_batches(repetition_batch, batch_format="pyarrow")


def _pages_worst_styles(sf_dir: str):
    """Global worst-k lines by style confidence (K3's corpus-wide form;
    reference worst-first queue ``ocr/targeted_reocr.py:150-178``)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.style_stage import (
        build_styles_pipeline,
        worst_styles_topk,
    )

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    styles = build_styles_pipeline(read_pages(corpus))
    return worst_styles_topk(styles, k=50)


def _pages_validation(sf_dir: str):
    """Per-document validation summary (G6) + cross-field consistency
    (G7) over the fused-fields table."""
    from horizon_ocr_python_ray import (
        build_extract_pipeline,
        ensure_corpus,
        read_pages,
        sf_from_dir,
    )
    from horizon_ocr_python_ray.stages.fields_stage import build_fields_pipeline
    from horizon_ocr_python_ray.stages.validation_stage import build_validation_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    fields = build_fields_pipeline(build_extract_pipeline(read_pages(corpus)))
    return build_validation_pipeline(fields)


def _q6(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import q6_filtered_revenue

    return q6_filtered_revenue(sf_dir)


def _minhash_dup_clusters(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.dedup_docs import (
        minhash_near_dup_verified,
        near_dup_clusters,
    )

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    verified = minhash_near_dup_verified(docs, min_est_jaccard=0.5,
                                         verify_threshold=0.5)
    return near_dup_clusters(verified)


def _doc_top_terms(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.topterms import doc_top_terms

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_top_terms(docs, k=3)


def _doc_decontam(sf_dir: str):
    """Eval-set decontamination: training docs sharing any distinct
    4-gram with the deterministic eval split (doc_id % 41 == 0)."""
    import ray.data
    from horizon_ocr_python_ray.stages.decontam import decontaminate

    import numpy as np
    import pyarrow as pa

    def split(keep_eval: bool):
        def f(t):
            m = (t.column("doc_id").to_numpy(zero_copy_only=False) % 41) == 0
            return t.filter(pa.array(m if keep_eval else ~m))
        return f

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    ev = docs.map_batches(split(True), batch_format="pyarrow")
    train = docs.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(train, ev, n=4)


def _doc_incremental_dedup(sf_dir: str):
    """Incremental cross-corpus near-dup: NEW batch (sources src18/src19)
    probed against the BASE corpus (all other sources) via a broadcast
    exact inverted shingle index — recall exactly 1, zero shuffles."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from horizon_ocr_python_ray.stages.incdedup import incremental_near_dup

    new_sources = pa.array(["src18", "src19"])

    def side(keep_new: bool):
        def f(t):
            m = pc.is_in(t.column("source"), value_set=new_sources)
            return (t.filter(m if keep_new else pc.invert(m))
                    .select(["doc_id", "text"]))
        return f

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "text", "source"])
    base = docs.map_batches(side(False), batch_format="pyarrow")
    new = docs.map_batches(side(True), batch_format="pyarrow")
    return incremental_near_dup(base, new, k_shingle=5, threshold=0.5)


def _events_approx_users(sf_dir: str):
    """HyperLogLog distinct-user sketch per event type: the mergeable
    register-max monoid whose shuffle is O(2^p) rows per group per
    batch, cardinality-independent (the scale path the exact two-phase
    `events_distinct_users` cannot take at 100 TB). Compare surface is
    the registers themselves (exact), not the float estimate."""
    import ray.data
    from horizon_ocr_python_ray.stages.sketches import hll_sketch_summary

    ev = _sf_table(sf_dir, "events",
                               columns=["event_type", "user_id"])
    return hll_sketch_summary(ev, "event_type", "user_id", p=12)


def _doc_repeated_ngrams(sf_dir: str):
    """Per-doc repeated-4-gram stats (Lee et al. substring-dedup
    signal): distinct grams vs grams shared with other documents."""
    import ray.data
    from horizon_ocr_python_ray.stages.repgrams import repeated_ngram_stats

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return repeated_ngram_stats(docs, n=4)


def _events_window_join(sf_dir: str):
    """Stream-to-stream interval join: every purchase event joined to
    the same user's events in the trailing hour (strictly earlier),
    zero-prior purchases kept (left shape). One user-bucket shuffle,
    searchsorted windows — never a per-user cross product
    (``stages/rangejoin.py``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.rangejoin import purchase_window_join

    events = _sf_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id",
                                "event_type", "value"])
    return purchase_window_join(events)


def _events_asof_join(sf_dir: str):
    """Backward as-of join: every purchase event joined to the same
    user's most recent click at ts <= the purchase ts (tie-exact:
    greatest (ts, event_id); no-click purchases kept with -1/0
    sentinels). One user-bucket shuffle, per-bucket lexsort +
    searchsorted — never an inequality expansion
    (``stages/asofjoin.py``)."""
    from horizon_ocr_python_ray.stages.asofjoin import event_asof_join

    events = _sf_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id",
                                "event_type", "value"])
    return event_asof_join(events, left_type="purchase",
                           right_type="click")


def _events_asof_join_fwd(sf_dir: str):
    """Forward as-of join (next-touch): every purchase joined to the
    same user's EARLIEST click at ts >= the purchase ts (tie-exact:
    smallest (ts, event_id)); same one-shuffle searchsorted plan with
    the mirrored side (``stages/asofjoin.py``)."""
    from horizon_ocr_python_ray.stages.asofjoin import event_asof_join

    events = _sf_table(sf_dir, "events",
                       columns=["event_id", "ts", "user_id",
                                "event_type", "value"])
    return event_asof_join(events, left_type="purchase",
                           right_type="click", direction="forward")


def _doc_substring_dedup(sf_dir: str):
    """Exact substring-span dedup (Lee et al. ExactSubstr restated as
    8-token window coverage): token positions inside any corpus-
    duplicated window are removed; emits per-doc token counts, covered
    counts and the cleaned text (``stages/substrdedup.py``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.substrdedup import substring_dedup

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return substring_dedup(docs, n=8)


def _doc_quality_gate(sf_dir: str):
    """Adaptive percentile gate: documents below the exact corpus P10
    of n_chars are flagged dropped (kept=false)."""
    import ray.data
    from horizon_ocr_python_ray.stages.gate import percentile_gate

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "n_chars"])
    return percentile_gate(docs, "n_chars", q=0.1)


def _cust_order_dist(sf_dir: str):
    """Q13-shaped left-outer distribution: customers per order count,
    zero-order customers included."""
    from horizon_ocr_python_ray.pipelines.analytics import cust_order_dist_q13

    return cust_order_dist_q13(sf_dir)


def _doc_normalize(sf_dir: str):
    """Unicode normalization audit: lower → NFC → whitespace collapse,
    digest + before/after lengths per document."""
    import ray.data
    from horizon_ocr_python_ray.functions.normalize import normalize_batch

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(normalize_batch, batch_format="pyarrow")


def _doc_packing(sf_dir: str):
    """Sequence packing: greedy next-fit bin assignment (256-token
    budget) within 8 md5 shards — the context-window packing step."""
    import ray.data
    from horizon_ocr_python_ray.stages.packing import pack_documents

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_documents(docs, budget=256, n_shards=8)


def _doc_chunks(sf_dir: str):
    """Training-window chunking: 64-token windows at stride 48 over each
    document, short tails (<16 tokens) dropped unless only-window."""
    import ray.data
    from horizon_ocr_python_ray.stages.chunking import chunk_documents

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_documents(docs, window=64, stride=48, min_keep=16)


def _doc_split(sf_dir: str):
    import ray.data
    from horizon_ocr_python_ray.stages.sampling import hash_split

    docs = _sf_table(sf_dir, "documents", columns=["doc_id"])
    return hash_split(docs, key="doc_id")


def _emb_centroids(sf_dir: str):
    """Per-label embedding centroid sums, integer fixed-point per
    element so partial-sum order can't shift the compare
    (``stages/vecagg.py``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.vecagg import emb_centroids

    emb = _sf_table(sf_dir, "embeddings",
                                columns=["label", "embedding"])
    return emb_centroids(emb)


def _ann_topk_quantized(sf_dir: str):
    """Top-10 by INTEGER dot product of int8 max-abs codes (the
    quantized column driving the search it exists for): every batch
    scores against the broadcast quantized query and ``collect.top_k``
    merges the block-local top-k on the driver — no sort exchange, no
    float in the compare (``stages/quantize.py:quantized_topk``)."""
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import smallest_id_rows
    from horizon_ocr_python_ray.stages.quantize import quantized_topk

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.array(
        smallest_id_rows(emb, 1).column("embedding").to_pylist()[0],
        dtype=np.float32)
    return quantized_topk(emb, q, k=10)


def _ann_topk_batch(sf_dir: str):
    """Batched-query retrieval: top-10 by exact cosine for EIGHT planted
    queries (the 8 smallest-vec_id vectors, fetched by a ≤8-row monoid
    fold — no sort exchange) in ONE corpus pass: the query matrix
    broadcasts once via ``ray.put`` and every batch scores all queries
    in a single matmul, and ``collect.top_k`` keeps k rows per
    ``query_idx`` (``stages/ann.py:brute_force_topk``)."""
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import (
        brute_force_topk,
        smallest_id_rows,
    )

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qmat = np.array(
        smallest_id_rows(emb, 8).column("embedding").to_pylist(),
        dtype=np.float64)
    out = brute_force_topk(emb, qmat, k=10)

    def project(t):
        import pyarrow as pa
        import pyarrow.compute as pc
        return pa.Table.from_arrays(
            [pc.cast(t.column("query_idx"), pa.int64()),
             t.column("vec_id"),
             pc.round(t.column("score"), 6),
             t.column("rank")],
            names=["query_idx", "vec_id", "score", "rank"],
        )

    return project(out)


def _ann_topk_quantized_batch(sf_dir: str):
    """Batched quantized retrieval: top-10 by INTEGER dot product of
    int8 max-abs codes for FOUR planted queries in one pass — the
    quantized query matrix broadcasts once, per-batch integer matmul,
    ≤Q·k-row driver partials, zero float anywhere in the rank
    (``stages/quantize.py:quantized_topk`` with a query matrix)."""
    import numpy as np
    from horizon_ocr_python_ray.stages.ann import smallest_id_rows
    from horizon_ocr_python_ray.stages.quantize import quantized_topk

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qmat = np.array(
        smallest_id_rows(emb, 4).column("embedding").to_pylist(),
        dtype=np.float32)
    return quantized_topk(emb, qmat, k=10)


def _doc_jaccard_near_dup(sf_dir: str):
    """Exact n-gram Jaccard all-pairs near-dup (AllPairs/PPJoin prefix
    filtering, recall exactly 1 — no LSH probability): pairs with
    distinct-5-gram Jaccard ≥ 1/2, integer (inter, union) evidence
    (``stages/jaccard.py``)."""
    from horizon_ocr_python_ray.stages.jaccard import jaccard_near_dup_pairs

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return jaccard_near_dup_pairs(docs, k_shingle=5, thr_num=1, thr_den=2)


def _emb_quantize(sf_dir: str):
    """Per-vector symmetric int8 quantization digest (codes in
    [-127, 127], scale = max_abs/127): one stateless pass, zero
    shuffles, integer-only compare surface
    (``stages/quantize.py``)."""
    from horizon_ocr_python_ray.stages.quantize import emb_quantize

    emb = _sf_table(sf_dir, "embeddings",
                    columns=["vec_id", "embedding"])
    return emb_quantize(emb)


def _emb_gram(sf_dir: str):
    """Corpus second-moment (gram) matrix of the embedding column —
    the PCA/whitening building block; per-batch Qᵀ·Q int64 partials,
    driver fold, zero shuffles (``stages/vecagg.py:emb_gram``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.vecagg import emb_gram

    emb = _sf_table(sf_dir, "embeddings",
                                columns=["embedding"])
    return emb_gram(emb)


def _emb_kmeans(sf_dir: str):
    """SemDeDup-style k-means cluster assignment: two-iteration
    integer-exact Lloyd (e6 fixed-point elements, int64 squared-L2,
    floor-div centroid update), smallest-vec_id seeds
    (``stages/kmeans.py:emb_kmeans``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.kmeans import emb_kmeans

    emb = _sf_table(sf_dir, "embeddings",
                                columns=["vec_id", "embedding"])
    return emb_kmeans(emb, k=8)


def _doc_stratified_sample(sf_dir: str):
    """Exact k-per-language subsample by smallest doc_id hash
    (``stages/sampling.py:stratified_sample``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.sampling import stratified_sample

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "lang"])
    return stratified_sample(docs, stratum="lang", key="doc_id", k=20)


def _corpus_top_bigrams(sf_dir: str):
    """Exact global top-k adjacent-token bigrams (boilerplate-phrase
    mining); combiner partials + driver fold / shuffle guard."""
    import ray.data
    from horizon_ocr_python_ray.stages.heavyterms import corpus_top_bigrams

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "text"])
    return corpus_top_bigrams(docs, k=30)


def _corpus_postings(sf_dir: str):
    """Inverted-index build: term → (df, md5 of the ascending doc-id
    posting list); one narrow (term, doc_id) shuffle."""
    import ray.data
    from horizon_ocr_python_ray.stages.postings import corpus_postings

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "text"])
    return corpus_postings(docs, min_df=2)


def _corpus_top_terms(sf_dir: str):
    """Exact corpus-level heavy-hitter terms
    (``stages/heavyterms.py:corpus_top_terms``, driver fold of the
    batch combiner partials)."""
    import ray.data
    from horizon_ocr_python_ray.stages.heavyterms import corpus_top_terms

    docs = _sf_table(sf_dir, "documents", columns=["text"])
    return corpus_top_terms(docs, k=50)


def _pages_host_quota(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.sampling import host_quota

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_quota(read_pages(corpus, columns=["url", "warc_ts"]), n=3)


def _pages_curation_funnel(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.pipelines.curation import curation_funnel

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return curation_funnel(read_pages(corpus))


def _pages_url_dedup(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.urldedup import canonical_url_dedup

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    # Column-pruned read: the canonical-dedup key needs url+ts only —
    # payload bytes never leave storage.
    return canonical_url_dedup(read_pages(corpus, columns=["url", "warc_ts"]))


def _pages_url_dedup_windowed(sf_dir: str):
    """Freshness-aware crawl dedup: keep-first per (canonical_url, 7-day
    tumbling window)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.urldedup import canonical_url_dedup_windowed

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    # 10-minute windows here: the synthetic crawl spans ~1.4 h, so this
    # actually splits re-crawl groups (production default is 7 days)
    return canonical_url_dedup_windowed(
        read_pages(corpus, columns=["url", "warc_ts"]), window_s=600)


def _pages_dup_losers(sf_dir: str):
    """Drop-set of the canonical-URL dedup via a distributed ANTI-JOIN
    (native hash-partitioned left_anti) — pages ∖ representatives."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.urldedup import dedup_losers

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return dedup_losers(read_pages(corpus, columns=["url", "warc_ts"]))


def _pages_host_stats(sf_dir: str):
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.skew import host_stats_salted

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_stats_salted(read_pages(corpus))


def _pages_host_lang(sf_dir: str):
    """Grouped mode / argmax: dominant language per host (ties → the
    lexicographically smallest lang; ``stages/skew.py:host_lang_mode``)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.skew import host_lang_mode

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_lang_mode(read_pages(corpus))


def _doc_mean_rank(sf_dir: str):
    """CCNet-style fluency proxy: per-doc sum of corpus frequency ranks
    over token occurrences (integer-exact unigram-LM stand-in;
    ``stages/topterms.py:doc_mean_rank``)."""
    import ray.data
    from horizon_ocr_python_ray.stages.topterms import doc_mean_rank

    docs = _sf_table(sf_dir, "documents",
                                 columns=["doc_id", "text"])
    return doc_mean_rank(docs)


def _pages_metrics(sf_dir: str):
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.metrics import job_metrics

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return job_metrics(build_extract_pipeline(read_pages(corpus)))


def _pages_errors(sf_dir: str):
    """The error CHANNEL: rows whose extraction failed (corrupt planted
    payloads) — per-row error strings, never thrown exceptions."""
    import pyarrow.compute as pc

    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    return out.map_batches(
        lambda t: t.filter(pc.is_valid(t.column("error")))
                   .select(["url", "route"]),
        batch_format="pyarrow")


def _pages_markdown(sf_dir: str):
    from horizon_ocr_python_ray import build_extract_pipeline, ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.functions.markdown import markdown_batch

    import pyarrow.compute as pc

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    out = build_extract_pipeline(read_pages(corpus))
    # Error rows are excluded from the compare: their markdown embeds the
    # exception string, which golden (engine-independent) can't know. The
    # error branch is covered by pytest; the error CHANNEL by pages_errors.
    out = out.map_batches(
        lambda t: t.filter(pc.is_null(t.column("error"))),
        batch_format="pyarrow")
    md = out.map_batches(markdown_batch, batch_format="pyarrow")

    def digest(t):
        import hashlib
        import pyarrow as pa
        hs = [hashlib.md5(m.encode("utf-8")).hexdigest() for m in t.column("markdown").to_pylist()]
        return pa.Table.from_arrays([t.column("url"), pa.array(hs, pa.string())],
                                    names=["url", "markdown_md5"])

    return md.map_batches(digest, batch_format="pyarrow")


def _doc_lang_unique(sf_dir: str):
    import ray.data

    docs = _sf_table(sf_dir, "documents", columns=["lang"])
    # Dataset.unique returns a python list; wrap as a one-column table.
    import pyarrow as pa

    vals = sorted(v for v in docs.unique("lang"))
    return pa.Table.from_arrays([pa.array(vals, pa.string())], names=["lang"])


def _media_features(sf_dir: str):
    """Media decode with a fully ANALYTIC oracle (round-4: replaces the
    builder-written golden parquet): planted md5 pixels/samples/frames
    go through the REAL PNG/WAV/APNG codecs and integer feature monoids;
    DuckDB regenerates the content from the planted parameters. The
    image px_wsum weights pixels by display raveled index, so all 8
    EXIF orientation undos are value-checked."""
    from horizon_ocr_python_ray import sf_from_dir
    from horizon_ocr_python_ray.stages.multimodal import media_features_probe_for_n

    return media_features_probe_for_n(
        min(1_000_000, max(30, int(sf_from_dir(sf_dir) * 30_000))))


def _money_e2(t, cols):
    """Fixed-point projection for money sums: CAST(round(x*100) AS BIGINT)
    on BOTH sides — raw rounded doubles differ from DuckDB's by 1 ulp
    depending on partial-sum order (the repr-compare trap). Rounding mode
    half_towards_infinity matches DuckDB ``round``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    for c in cols:
        e2 = pc.cast(
            pc.round(pc.multiply(t.column(c), 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        t = t.set_column(t.column_names.index(c), f"{c}_e2", e2)
    return t


def _media_audio_energy(sf_dir: str):
    """Media decode with a fully ANALYTIC oracle: WAV payloads carry
    md5-derived int16 samples, the engine recovers them through the real
    RIFF/PCM codec, and DuckDB recomputes n_samples/sum_sq/peak_abs from
    the planted parameters alone — no golden fixture file in the loop."""
    from horizon_ocr_python_ray import sf_from_dir
    from horizon_ocr_python_ray.stages.multimodal import media_audio_energy_for_n

    # min(…, 1M) mirrors the oracle's range(1000000) over-generation
    # ceiling (DuckDB range() can't take a subquery) — reached only past
    # sf≈33, far above any driver scale, but pinned on BOTH sides.
    return media_audio_energy_for_n(
        min(1_000_000, max(30, int(sf_from_dir(sf_dir) * 30_000))))


def _media_preprocess(sf_dir: str):
    """Real PNG decode + orientation undo + readability-threshold replay
    over planted md5 pixels, plus the REAL preprocess chain in its
    shape-preserving configuration (dewarp=False) so the output dims are
    analytic. Round-4: fully analytic oracle, no golden parquet; the
    chain's pixel-level behavior stays pinned by the kernel tests
    (tests/test_imageproc.py)."""
    from horizon_ocr_python_ray import sf_from_dir
    from horizon_ocr_python_ray.stages.multimodal import media_preprocess_probe_for_n

    return media_preprocess_probe_for_n(
        min(1_000_000, max(30, int(sf_from_dir(sf_dir) * 30_000))))


def _media_motion(sf_dir: str):
    """Per-video temporal motion energy over decoded APNG frame stacks —
    integer-exact (sum/max of absolute frame deltas). Round-4: the
    fixture plants md5 base rasters panned by 2px/frame, so the oracle
    recomputes motion analytically ((nf-1) × one circular-shift delta
    sum) instead of reading a golden file; the engine still diffs every
    decoded frame pair for real."""
    from horizon_ocr_python_ray import sf_from_dir
    from horizon_ocr_python_ray.stages.multimodal import media_motion_probe_for_n

    return media_motion_probe_for_n(
        min(1_000_000, max(30, int(sf_from_dir(sf_dir) * 30_000))))


def _q1(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import q1_pricing_summary

    out = q1_pricing_summary(sf_dir)
    cols = ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge")
    return out.map_batches(lambda t: _money_e2(t, cols), batch_format="pyarrow")


def _revenue_by_region(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import revenue_by_region_q5

    out = revenue_by_region_q5(sf_dir)
    return out.map_batches(lambda t: _money_e2(t, ("revenue",)), batch_format="pyarrow")


def _promo_revenue(sf_dir: str):
    import pyarrow as pa
    from horizon_ocr_python_ray.pipelines.analytics import promo_revenue_q14

    t = promo_revenue_q14(sf_dir)
    return _money_e2(t, ("promo_revenue", "total_revenue"))


def _revenue_by_nation(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import revenue_by_nation

    out = revenue_by_nation(sf_dir)
    return out.map_batches(lambda t: _money_e2(t, ("total_revenue",)), batch_format="pyarrow")


def _top_orders(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import top_orders

    return top_orders(sf_dir, k=10)


def _priority_lines(sf_dir: str):
    """Q12-shaped conditional aggregate over the lineitem ⋈ orders
    fact-fact join (urgent/high vs other priority per returnflag)."""
    from horizon_ocr_python_ray.pipelines.analytics import priority_lines_q12

    return priority_lines_q12(sf_dir)


def _orders_by_mktsegment(sf_dir: str):
    from horizon_ocr_python_ray.pipelines.analytics import orders_per_customer_join

    out = orders_per_customer_join(sf_dir)
    return out.map_batches(lambda t: _money_e2(t, ("total_revenue",)), batch_format="pyarrow")


def _orders_exists(sf_dir: str):
    """Q4-shaped EXISTS semi-join (deduped-key inner join / broadcast probe)."""
    from horizon_ocr_python_ray.pipelines.subqueries import orders_exists_q4

    return orders_exists_q4(sf_dir)


def _top_supplier(sf_dir: str):
    """Q15-shaped argmax over an aggregate (int64 e4 revenue, exact argmax)."""
    from horizon_ocr_python_ray.pipelines.subqueries import top_supplier_q15

    return top_supplier_q15(sf_dir)


def _part_small_qty(sf_dir: str):
    """Q17-shaped correlated AVG subquery, decorrelated (5·qty·n < sum)."""
    from horizon_ocr_python_ray.pipelines.subqueries import part_small_qty_q17

    return part_small_qty_q17(sf_dir)


def _big_orders(sf_dir: str):
    """Q18-shaped HAVING group filter + join-back to orders/customer."""
    from horizon_ocr_python_ray.pipelines.subqueries import big_orders_q18

    return big_orders_q18(sf_dir)


def _cust_idle(sf_dir: str):
    """Q22-shaped global scalar subquery + anti-join (rich, no recent orders)."""
    from horizon_ocr_python_ray.pipelines.subqueries import cust_idle_q22

    return cust_idle_q22(sf_dir)


def _doc_lm_score(sf_dir: str):
    """Corpus-trained bigram-LM likelihood score per document (the CCNet
    perplexity-filter analog, integer-exact): one gram-count shuffle →
    broadcast pruned model → vectorized local scoring."""
    from horizon_ocr_python_ray.stages.lmscore import doc_lm_score

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_lm_score(docs)


def _pages_reocr(sf_dir: str):
    """Targeted re-OCR strategy ladder over REAL page rasters: payload
    pages are rasterized (the PDF-rasterize analog), line confidences
    derive from pixel statistics, low-confidence lines are enhanced with
    the aggressive preprocess chain and re-recognized under all four
    reference strategies (ensemble / primary_only / secondary_only /
    sequential) with two content-type-routed heads. Output: per-strategy
    improvement counters (4 rows). Ref: targeted_reocr.py:29-77,
    trocr.py:193-200."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.reocr import build_reocr_pipeline

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return build_reocr_pipeline(read_pages(corpus, columns=["url", "html"]))


def _pages_outlinks(sf_dir: str):
    """Per-page absolute-anchor harvest (web-graph front-end): one
    map_batches pass over html-sniffed payloads, no shuffle."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linkgraph import page_outlinks

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return page_outlinks(read_pages(corpus))


def _host_linkgraph(sf_dir: str):
    """(src_host, dst_host, n_links) link-frequency table — combiner
    partials then one narrow groupby."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linkgraph import host_link_counts

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_link_counts(read_pages(corpus))


def _host_pagerank(sf_dir: str):
    """3-iteration integer-exact PageRank over the distinct non-self
    host edge set (rank_e12 int64; bit-identical across plans and the
    SQL replay)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linkgraph import host_pagerank

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_pagerank(read_pages(corpus))


def _host_anchor_terms(sf_dir: str):
    """Top-3 anchor terms per destination host (search-relevance
    signal): combiner → one narrow groupby → per-host top-k with a
    total-order rank."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linkgraph import host_anchor_terms

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_anchor_terms(read_pages(corpus), k=3)


def _concentrated_suppliers(sf_dir: str):
    """Q20-shaped nested semi-join chain: suppliers concentrating a
    filtered part's flow (integer-cleared fraction test)."""
    from horizon_ocr_python_ray.pipelines.subqueries import concentrated_suppliers_q20

    return concentrated_suppliers_q20(sf_dir)


def _nation_volume(sf_dir: str):
    """Q7-shaped two-nation shipping volume per year (pair filter and
    rollup in one fact pass against three broadcast dimension maps)."""
    from horizon_ocr_python_ray.pipelines.subqueries import nation_volume_q7

    return nation_volume_q7(sf_dir)


def _nation_profit(sf_dir: str):
    """Q9-shaped profit rollup by supplier nation × year with the
    part-name LIKE filter pushed as a broadcast key set."""
    from horizon_ocr_python_ray.pipelines.subqueries import nation_profit_q9

    return nation_profit_q9(sf_dir)


def _min_cost_supplier(sf_dir: str):
    """Q2-shaped argmin-per-group join-back (min-cost supplier per
    qualifying part, all ties kept)."""
    from horizon_ocr_python_ray.pipelines.subqueries import min_cost_supplier_q2

    return min_cost_supplier_q2(sf_dir)


def _market_share(sf_dir: str):
    """Q8-shaped market share per order-year as the exact integer
    (numerator, denominator) rational pair."""
    from horizon_ocr_python_ray.pipelines.subqueries import market_share_q8

    return market_share_q8(sf_dir)


def _disjunctive_revenue(sf_dir: str):
    """Q19-shaped OR-of-ANDs join predicate, evaluated vectorized
    inside the lineitem scan against broadcast part attributes."""
    from horizon_ocr_python_ray.pipelines.subqueries import disjunctive_revenue_q19

    return disjunctive_revenue_q19(sf_dir)


def _supplier_cnt(sf_dir: str):
    """Q16-shaped grouped distinct supplier count with a brand
    anti-set."""
    from horizon_ocr_python_ray.pipelines.subqueries import supplier_cnt_q16

    return supplier_cnt_q16(sf_dir)


def _important_parts(sf_dir: str):
    """Q11-shaped group-vs-global-scalar filter (integer-cleared
    fraction threshold)."""
    from horizon_ocr_python_ray.pipelines.subqueries import important_parts_q11

    return important_parts_q11(sf_dir)


def _events_anomaly(sf_dir: str):
    """Integer-exact 3σ anomaly flags over the dense hourly spine
    (trailing-24 baseline, denominators cleared)."""
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_anomaly

    ev = _sf_table(sf_dir, "events", columns=["event_type", "ts"])
    return events_anomaly(ev)


def _doc_lang_drift(sf_dir: str):
    """Per-language distribution drift: integer TV-distance numerator
    of the slice's hashed-unigram histogram vs the corpus's."""
    import ray.data

    from horizon_ocr_python_ray.stages.dsir import lang_drift

    docs = _sf_table(sf_dir, "documents", columns=["text", "lang"])
    return lang_drift(docs)


def _cust_year_orders(sf_dir: str):
    """FULL OUTER JOIN shape as union-tagged aggregates: per-customer
    order counts in 1996 vs 1997, either-side customers kept."""
    from horizon_ocr_python_ray.pipelines.subqueries import cust_year_orders_fullouter

    return cust_year_orders_fullouter(sf_dir)


def _doc_lang_moments(sf_dir: str):
    """Per-language length moments as exact int64 sufficient statistics
    (n, Σx, Σx²) — the mergeable form of grouped mean/variance."""
    from horizon_ocr_python_ray.pipelines.subqueries import doc_lang_moments

    return doc_lang_moments(sf_dir)


def _corpus_and_search(sf_dir: str):
    """Conjunctive (AND) retrieval for the corpus top-3-DF terms:
    broadcast query set, per-doc containment in the scan, no shuffle."""
    import ray.data

    from horizon_ocr_python_ray.stages.ranking import and_search

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return and_search(docs, n_query=3)


def _pages_host_join(sf_dir: str):
    """Skewed fact-enrichment join: per-host page counts attached back
    onto the page stream (broadcast plan; salted replicate-build plan
    tested row-equal for the hot-key path)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.skew import host_enrich_join

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_enrich_join(read_pages(corpus, columns=["url"]))


def _doc_mix_rebalance(sf_dir: str):
    """Equal-share language rebalancing: per-stratum count fold → quota
    = minority count → hash-order min-k per stratum."""
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import mix_rebalance

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return mix_rebalance(docs)


def _doc_mix_temperature(sf_dir: str):
    """Temperature-weighted mixture sampling (GPT-3/LLaMA mixing,
    α = 1/2): per-language quotas ∝ sqrt(count) via integer
    largest-remainder allocation of a 20%-of-corpus budget, members
    the quota smallest (md5, doc_id) per language
    (``stages/sampling.py:mix_temperature``)."""
    from horizon_ocr_python_ray.stages.sampling import mix_temperature

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return mix_temperature(docs, stratum="lang", key="doc_id",
                           budget_permille=200)


def _pages_checkpoint_manifest(sf_dir: str):
    """Checkpoint/resume AS A DRIVER-VISIBLE SURFACE: run the extract
    pipeline through the write-then-commit partition manifest
    (``state/checkpoint.py:run_partitioned``) with a simulated
    interruption — run 1 commits fragments 0-1 and "dies", run 2
    resumes from the manifest and commits only the remaining 2-3 —
    then emit the lineage records (partition_id, rows, checksum,
    run_idx). The oracle recomputes every field independently from the
    corpus golden fixtures: the fragment map is
    ``md5_number_lower(url) % 4`` and the checksum is the
    order-insensitive XOR of per-row ``md5(url || chr(31) || text)``
    halves, so a wrong row count, a dropped url, a byte-different
    extraction OR a re-run of a committed fragment all break the
    compare."""
    import shutil
    import tempfile

    import pyarrow as pa
    from horizon_ocr_python_ray import (
        build_extract_pipeline,
        ensure_corpus,
        read_pages,
        sf_from_dir,
    )
    from horizon_ocr_python_ray.state.checkpoint import (
        filter_to_partition,
        read_manifest,
        run_partitioned,
    )

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    num_parts = 4

    def fragment(pid: int):
        pages = read_pages(corpus).map_batches(
            lambda t: filter_to_partition(t, pid, num_parts),
            batch_format="pyarrow")
        # each fragment's memo only sees its fragment (deterministic
        # bytes either way); cross-fragment dups extract independently
        return build_extract_pipeline(pages)

    out_dir = tempfile.mkdtemp(prefix="ckpt_manifest_", dir="/tmp")
    try:
        first = run_partitioned(fragment, out_dir, num_parts,
                                max_partitions=2, max_concurrent=2)
        second = run_partitioned(fragment, out_dir, num_parts,
                                 max_concurrent=2)
        manifest = read_manifest(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    run_idx = {**{p: 1 for p in first}, **{p: 2 for p in second}}
    pids = sorted(manifest)
    return pa.table({
        "partition_id": pa.array(pids, pa.int64()),
        "rows": pa.array([manifest[p]["rows"] for p in pids], pa.int64()),
        "checksum": pa.array([manifest[p]["checksum"] for p in pids],
                             pa.string()),
        "run_idx": pa.array([run_idx[p] for p in pids], pa.int64()),
    })


def _doc_mix_export(sf_dir: str):
    """The temperature-mix SAMPLE AS A CONSUMABLE EXPORT: the sampled
    docs carry their token counts through the quota-bounded selection
    (``stratified_sample(carry=...)``) — no re-join of the id list
    against the corpus. One vectorized token-count map, then the same
    sqrt-temperature quota machinery as ``doc_mix_temperature``;
    payload volume through the one tiny shuffle is quota-bounded by
    the batch-local combiner."""
    import pyarrow as pa
    from horizon_ocr_python_ray.functions.textstats import token_count
    from horizon_ocr_python_ray.stages.sampling import mix_temperature

    docs = _sf_table(sf_dir, "documents",
                     columns=["doc_id", "lang", "text"])

    def add_tokens(t: "pa.Table") -> "pa.Table":
        texts = t.column("text").to_pylist()
        return (t.select(["doc_id", "lang"])
                .append_column("n_tokens",
                               pa.array([token_count(x) for x in texts],
                                        pa.int64())))

    keyed = docs.map_batches(add_tokens, batch_format="pyarrow")
    return mix_temperature(keyed, stratum="lang", key="doc_id",
                           budget_permille=200, carry=("n_tokens",))


def _doc_safe_split(sf_dir: str):
    """Leakage-safe split: exact duplicates share a split via their
    content group's min-id representative."""
    import ray.data

    from horizon_ocr_python_ray.stages.sampling import safe_split

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return safe_split(docs, eval_permille=100)


def _events_cms_counts(sf_dir: str):
    """Count-Min sketch per-key frequency estimates (probe = the 20
    smallest user ids): fixed-size counter-matrix monoid, zero shuffles;
    the oracle replays the sketch cells exactly."""
    from horizon_ocr_python_ray.stages.cms import cms_probe_counts

    events = _sf_table(sf_dir, "events", columns=["user_id"])
    return cms_probe_counts(events, key_col="user_id", k=20)


def _doc_shuffle_shards(sf_dir: str):
    """Deterministic seeded global shuffle + shard assignment (the
    training-export order): order key = salted md5 of doc_id, shard =
    key mod 16, dense in-shard positions by (key hash, doc_id)."""
    from horizon_ocr_python_ray.stages.sampling import shuffle_shards

    docs = _sf_table(sf_dir, "documents", columns=["doc_id"])
    return shuffle_shards(docs, key="doc_id", nshards=16)


def _emb_semdedup(sf_dir: str):
    """SemDeDup composite: broadcast k-means model → streaming assign →
    one cluster groupby bounds the quadratic cosine scan."""
    import ray.data

    from horizon_ocr_python_ray.stages.kmeans import emb_semdedup

    emb = _sf_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return emb_semdedup(emb, k=8, threshold=0.4)


def _events_gapfill(sf_dir: str):
    """Dense hourly spine per event_type (sparse→dense gap fill),
    zero-filled; integer floor-div windows."""
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_gapfill

    ev = _sf_table(sf_dir, "events", columns=["event_type", "ts"])
    return events_gapfill(ev)


def _host_components(sf_dir: str):
    """Weakly-connected host components, fixed 4-sweep min-label
    propagation (lexicographic min within 4 hops, pinned)."""
    from horizon_ocr_python_ray import ensure_corpus, read_pages, sf_from_dir
    from horizon_ocr_python_ray.stages.linkgraph import host_components

    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return host_components(read_pages(corpus), sweeps=4)


def _events_cumsum(sf_dir: str):
    """Per-user running totals + sequence numbers (SUM OVER window
    surface): one user-bucket shuffle, segmented vectorized cumsum."""
    import ray.data

    from horizon_ocr_python_ray.stages.window import events_cumsum

    ev = _sf_table(sf_dir, "events",
        columns=["event_id", "user_id", "ts", "value"])
    return events_cumsum(ev)


def _doc_global_rank(sf_dir: str):
    """Exact global rank by (n_tokens desc, doc_id) WITHOUT a global
    sort: histogram fold for value offsets + tie-sized groupby."""
    import ray.data

    from horizon_ocr_python_ray.stages.ranking import doc_global_rank

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return doc_global_rank(docs)


def _corpus_tfidf_topk(sf_dir: str):
    """Integer-exact TF-IDF retrieval: corpus top-3-DF terms as the
    query, idf_e6 floor-div weights, ``collect.top_k`` over the scores."""
    from horizon_ocr_python_ray.stages.ranking import tfidf_topk

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_topk(docs, n_query=3, k=20)


def _waiting_supplier(sf_dir: str):
    """Q21-shaped double-correlated EXISTS/NOT EXISTS, decorrelated to
    pure aggregation (arithmetic argmax for the sole-problem supplier)."""
    from horizon_ocr_python_ray.pipelines.subqueries import waiting_supplier_q21

    return waiting_supplier_q21(sf_dir)


def _returned_top_customers(sf_dir: str):
    """Q10-shaped returned-item revenue per customer, top-20 with
    name/nation display columns."""
    from horizon_ocr_python_ray.pipelines.subqueries import returned_top_customers_q10

    return returned_top_customers_q10(sf_dir)


def _doc_dsir(sf_dir: str):
    """DSIR-style hashed-unigram importance scores (target = lang 'en'):
    fixed-size histogram combiner → driver fold → broadcast weight
    vector → streaming score pass; zero shuffles."""
    import ray.data

    from horizon_ocr_python_ray.stages.dsir import dsir_scores

    docs = _sf_table(sf_dir, "documents", columns=["doc_id", "text", "lang"]
    )
    return dsir_scores(docs, target_lang="en")


def queries() -> dict[str, Callable[[str], Any]]:
    # Registry ordering is rotated each round: the external driver
    # correctness-checks a 50-entry prefix of this dict. After round 4
    # every entry had >=1 driver-green row; the round-5 prefix applies
    # the pinned rotation plan — (a) the 4 queries NEW in round 5,
    # (b) the 3 round-5 kernel/oracle changes on previously-green
    # entries (pages_reocr: oracle replaced by the independent
    # reference; doc_jaccard_near_dup: plan rebuilt; ann_topk_quantized:
    # batched-query generalization), then (c) ALL 43 entries whose last
    # green row was round 2 — the longest-ago-certified block, several
    # of whose kernels were rebuilt since (simhash r4, minhash/ann
    # folds r4, ann fetch r5). Everything past position 50 was
    # driver-green in round 3 or 4 (<= two rounds old).
    return {
        # --- queries new in round 5 ---
        "ann_topk_batch": _ann_topk_batch,
        "ann_topk_quantized_batch": _ann_topk_quantized_batch,
        "doc_mix_export": _doc_mix_export,
        "pages_checkpoint_manifest": _pages_checkpoint_manifest,
        # --- round-5 kernel/oracle changes on green entries ---
        "pages_reocr": _pages_reocr,
        "doc_jaccard_near_dup": _doc_jaccard_near_dup,
        "ann_topk_quantized": _ann_topk_quantized,
        # --- the 43 longest-ago-checked (round-2-certified) entries ---
        "doc_lang_id": _doc_lang_id,
        "doc_lang_confusion": _doc_lang_confusion,
        "doc_fingerprint": _doc_fingerprint,
        "doc_simhash": _doc_simhash,
        "doc_simhash_near_dup": _doc_simhash_near_dup,
        "minhash_near_dup": _minhash_near_dup,
        "ann_topk": _ann_topk,
        "ann_topk_lsh": _ann_topk_lsh,
        "ann_topk_ivf": _ann_topk_ivf,
        "events_hourly": _events_hourly,
        "events_sliding": _events_sliding,
        "events_sessions": _events_sessions,
        "events_funnel": _events_funnel,
        "events_lag": _events_lag,
        "events_hourly_users": _events_hourly_users,
        "events_retention": _events_retention,
        "events_pivot": _events_pivot,
        "events_attribution": _events_attribution,
        "emb_nn_join": _emb_nn_join,
        "events_rollup": _events_rollup,
        "events_quantiles": _events_quantiles,
        "events_distinct_users": _events_distinct_users,
        "events_value_bands": _events_value_bands,
        "events_props_sum": _events_props_sum,
        "emb_near_dup": _emb_near_dup,
        "emb_near_dup_lsh": _emb_near_dup_lsh,
        "emb_dup_clusters": _emb_dup_clusters,
        "pages_fields": _pages_fields,
        "pages_tables": _pages_tables,
        "pages_overlays": _pages_overlays,
        "pages_table_overlays": _pages_table_overlays,
        "pages_styles": _pages_styles,
        "pages_redact": _pages_redact,
        "pages_repetition": _pages_repetition,
        "pages_line_dedup": _pages_line_dedup,
        "pages_bloom_probe": _pages_bloom_probe,
        "pages_worst_styles": _pages_worst_styles,
        "pages_validation": _pages_validation,
        "pages_reconstruction": _pages_reconstruction,
        "doc_top_terms": _doc_top_terms,
        "doc_decontam": _doc_decontam,
        "doc_chunks": _doc_chunks,
        "doc_packing": _doc_packing,
        # ---- end of the 50-entry driver prefix; everything below
        # ---- was driver-green in round 3 or 4 ----
        "pages_outlinks": _pages_outlinks,
        "host_linkgraph": _host_linkgraph,
        "host_pagerank": _host_pagerank,
        "host_anchor_terms": _host_anchor_terms,
        "doc_dsir": _doc_dsir,
        "waiting_supplier": _waiting_supplier,
        "returned_top_customers": _returned_top_customers,
        "events_cumsum": _events_cumsum,
        "doc_global_rank": _doc_global_rank,
        "corpus_tfidf_topk": _corpus_tfidf_topk,
        "events_gapfill": _events_gapfill,
        "host_components": _host_components,
        "emb_semdedup": _emb_semdedup,
        "doc_mix_rebalance": _doc_mix_rebalance,
        "doc_safe_split": _doc_safe_split,
        "pages_host_join": _pages_host_join,
        "corpus_and_search": _corpus_and_search,
        "cust_year_orders": _cust_year_orders,
        "doc_lang_moments": _doc_lang_moments,
        "doc_lang_drift": _doc_lang_drift,
        "events_anomaly": _events_anomaly,
        "disjunctive_revenue": _disjunctive_revenue,
        "supplier_cnt": _supplier_cnt,
        "important_parts": _important_parts,
        "min_cost_supplier": _min_cost_supplier,
        "market_share": _market_share,
        "nation_volume": _nation_volume,
        "nation_profit": _nation_profit,
        "concentrated_suppliers": _concentrated_suppliers,
        "pages_doc_meta": _pages_doc_meta,
        "pages_complexity_route": _pages_complexity_route,
        "media_audio_energy": _media_audio_energy,
        "media_features": _media_features,
        "media_preprocess": _media_preprocess,
        "media_motion": _media_motion,
        "doc_winnow": _doc_winnow,
        "doc_winnow_pairs": _doc_winnow_pairs,
        "doc_winnow_clusters": _doc_winnow_clusters,
        "events_asof_join": _events_asof_join,
        "emb_quantize": _emb_quantize,
        "events_asof_join_fwd": _events_asof_join_fwd,
        "doc_mix_temperature": _doc_mix_temperature,
        "pages_extract": _pages_extract,
        "pages_route_counts": _pages_route_counts,
        "doc_exact_dedup": _doc_exact_dedup,
        "doc_token_stats": _doc_token_stats,
        "doc_quality": _doc_quality,
        "pages_html_meta": _pages_html_meta,
        "pages_blocklist": _pages_blocklist,
        "events_cms_counts": _events_cms_counts,
        "pages_zorder": _pages_zorder,
        "pages_c4_filter": _pages_c4_filter,
        "doc_shuffle_shards": _doc_shuffle_shards,
        "doc_normalize": _doc_normalize,
        "cust_order_dist": _cust_order_dist,
        "doc_quality_gate": _doc_quality_gate,
        "doc_repeated_ngrams": _doc_repeated_ngrams,
        "doc_substring_dedup": _doc_substring_dedup,
        "events_window_join": _events_window_join,
        "events_approx_users": _events_approx_users,
        "doc_incremental_dedup": _doc_incremental_dedup,
        "doc_split": _doc_split,
        "doc_stratified_sample": _doc_stratified_sample,
        "emb_centroids": _emb_centroids,
        "emb_gram": _emb_gram,
        "emb_kmeans": _emb_kmeans,
        "corpus_postings": _corpus_postings,
        "corpus_top_terms": _corpus_top_terms,
        "corpus_top_bigrams": _corpus_top_bigrams,
        "pages_host_quota": _pages_host_quota,
        "pages_url_dedup": _pages_url_dedup,
        "pages_url_dedup_windowed": _pages_url_dedup_windowed,
        "pages_dup_losers": _pages_dup_losers,
        "pages_curation_funnel": _pages_curation_funnel,
        "pages_host_stats": _pages_host_stats,
        "pages_host_lang": _pages_host_lang,
        "doc_mean_rank": _doc_mean_rank,
        "pages_metrics": _pages_metrics,
        "pages_errors": _pages_errors,
        "doc_lang_unique": _doc_lang_unique,
        "pages_markdown": _pages_markdown,
        "lineitem_filtered_revenue": _q6,
        "minhash_dup_clusters": _minhash_dup_clusters,
        "lineitem_pricing_summary": _q1,
        "revenue_by_nation": _revenue_by_nation,
        "revenue_by_region": _revenue_by_region,
        "promo_revenue": _promo_revenue,
        "priority_lines": _priority_lines,
        "top_orders": _top_orders,
        "orders_by_mktsegment": _orders_by_mktsegment,
        "orders_exists": _orders_exists,
        "top_supplier": _top_supplier,
        "part_small_qty": _part_small_qty,
        "big_orders": _big_orders,
        "cust_idle": _cust_idle,
        "doc_lm_score": _doc_lm_score,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB; views pre-registered per table name)
# ---------------------------------------------------------------------------

def _urlnorm_sql_expr() -> str:
    from horizon_ocr_python_ray.functions.urlnorm import oracle_sql_expr

    return oracle_sql_expr("url")


def _morton_sql(h: str, t: str) -> str:
    """Morton-interleave SQL expression from the engine kernel module
    (single source of truth for the bit layout)."""
    from horizon_ocr_python_ray.functions.zorder import morton_sql_expr

    return morton_sql_expr(h, t)


def _blocklist_case() -> str:
    """First-match-wins CASE over the engine's blocklist constant
    (single source of truth for both sides of the compare)."""
    from horizon_ocr_python_ray.functions.blocklist import BLOCKLIST

    whens = "\n".join(
        f"WHEN host = '{d}' OR host LIKE '%.{d}' THEN '{d}'"
        for d in BLOCKLIST)
    return f"CASE {whens} ELSE '' END"


def _redact_pat(name: str) -> str:
    """RE2 pattern of a redaction rule, straight from the engine module
    (single source of truth for both sides of the compare)."""
    from horizon_ocr_python_ray.functions.redact import REDACT_RULES

    return next(p for n, p, _ in REDACT_RULES if n == name)


def oracle_sql() -> dict[str, str]:
    # The pages_tables oracle reads the golden table fixtures of the
    # sf0.01 synthetic corpus (the driver's compare scale) directly from
    # disk — the pages corpus is not among the pre-registered views.
    # Generating the corpus is Ray-free and cached, so ensure it here.
    from horizon_ocr_python_ray import ensure_corpus
    from horizon_ocr_python_ray.functions.docformat import (
        DOC_MAGIC as _DOC_MAGIC,
        IMG_MAGIC as _IMG_MAGIC,
    )

    corpus_sf0_01 = ensure_corpus(0.01)
    golden_sf0_01 = corpus_sf0_01 + "/golden.parquet"
    pages_sf0_01 = corpus_sf0_01 + "/pages/*.parquet"
    tok = "regexp_split_to_array(trim(lower(text)), '\\s+')"
    ntok = "CASE WHEN trim(text) = '' THEN 0 ELSE len(regexp_split_to_array(trim(text), '\\s+')) END"
    return {
        # Extraction projection vs the independent golden fixtures: the
        # driver's hash-compare doubles as a byte-identity check on
        # text length, span counts, routing and content hashes.
        "pages_extract": f"""
            SELECT url, route, content_hash,
                   length(extracted_text) AS text_len,
                   len(spans) AS n_spans,
                   md5(extracted_text) AS text_md5
            FROM read_parquet('{golden_sf0_01}')
        """,
        "pages_route_counts": f"""
            SELECT route, count(*) AS n_pages
            FROM read_parquet('{golden_sf0_01}') GROUP BY route
        """,
        # Per-route job counters vs the golden fixtures: n_errors must
        # equal the planted corrupt-payload count exactly (any engine-side
        # failure beyond the planted ones breaks the hash).
        "pages_metrics": f"""
            SELECT route, count(*) AS n_docs,
                   CAST(sum(CASE WHEN has_error THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_errors,
                   CAST(sum(length(extracted_text)) AS BIGINT) AS text_chars,
                   CAST(sum(len(spans)) AS BIGINT) AS n_spans
            FROM read_parquet('{golden_sf0_01}') GROUP BY route
        """,
        # Non-self-referential media oracle (round 4): every pixel /
        # sample / frame of the probe fixture is an md5-derived integer,
        # so the oracle REGENERATES the content from the planted
        # parameters and recomputes each integer feature analytically —
        # the engine must recover identical content through the real
        # PNG / RIFF-WAV / APNG codecs. px_wsum weights each pixel by
        # its display raveled index (yy*W + xx after the EXIF
        # orientation undo); the video pan structure makes every frame
        # sum equal the base sum.
        "media_features": f"""
            WITH {_PROBE_IDS_SQL},
            {_PROBE_IMG_SQL},
            ipx AS (
              SELECT i.media_id, i.o, i.w, i.h, uy.y AS y, ux.x AS x,
                     {_probe_pix_sql('i.media_id', 'uy.y', 'ux.x')} AS p
              FROM img i,
                   unnest(generate_series(0, i.h - 1)) AS uy(y),
                   unnest(generate_series(0, i.w - 1)) AS ux(x)
            ),
            ifeat AS (
              SELECT media_id,
                     CAST(count(*) AS DOUBLE) AS px_n,
                     CAST(sum(p) AS DOUBLE) AS px_sum,
                     CAST(sum(p * p) AS DOUBLE) AS px_sumsq,
                     CAST(sum(p * (yy * dw + xx)) AS DOUBLE) AS px_wsum
              FROM (
                SELECT media_id, p,
                       CASE WHEN o >= 5 THEN h ELSE w END AS dw,
                       CASE o WHEN 1 THEN y WHEN 2 THEN y
                              WHEN 3 THEN h - 1 - y WHEN 4 THEN h - 1 - y
                              WHEN 5 THEN x WHEN 6 THEN x
                              ELSE w - 1 - x END AS yy,
                       CASE o WHEN 1 THEN x WHEN 2 THEN w - 1 - x
                              WHEN 3 THEN w - 1 - x WHEN 4 THEN x
                              WHEN 5 THEN y WHEN 6 THEN h - 1 - y
                              WHEN 7 THEN h - 1 - y ELSE y END AS xx
                FROM ipx)
              GROUP BY media_id
            ),
            acounts AS (
              SELECT media_id,
                     256 + CAST(md5_number_lower('mpan:42:' ||
                           CAST(media_id AS VARCHAR)) % 1024 AS BIGINT) AS n
              FROM ids WHERE media_id % 3 = 1
            ),
            asamples AS (
              SELECT c.media_id,
                     CAST(md5_number_lower('mpa:42:' ||
                          CAST(c.media_id AS VARCHAR) || ':' ||
                          CAST(k AS VARCHAR)) % 32768 AS BIGINT) - 16384 AS s
              FROM acounts c, unnest(generate_series(0, c.n - 1)) AS u(k)
            ),
            afeat AS (
              SELECT media_id, CAST(count(*) AS DOUBLE) AS n_samples,
                     CAST(sum(s * s) AS DOUBLE) AS sum_sq,
                     CAST(max(abs(s)) AS DOUBLE) AS peak_abs
              FROM asamples GROUP BY media_id
            ),
            {_PROBE_VID_SQL},
            vpx AS (
              SELECT v.media_id, v.nf,
                     CAST(md5_number_lower('mpv:42:' ||
                          CAST(v.media_id AS VARCHAR) || ':' ||
                          CAST(uy.y AS VARCHAR) || ':' ||
                          CAST(ux.x AS VARCHAR)) % 256 AS BIGINT) AS p
              FROM vid v, unnest(generate_series(0, 15)) AS uy(y),
                   unnest(generate_series(0, 15)) AS ux(x)
            ),
            vfeat AS (
              SELECT media_id, CAST(any_value(nf) AS DOUBLE) AS n_frames,
                     256.0 AS px_per_frame,
                     CAST(any_value(nf) * sum(p) AS DOUBLE) AS frames_sum,
                     CAST(max(p) AS DOUBLE) AS frames_max
              FROM vpx GROUP BY media_id
            )
            SELECT media_id, 'px_n' AS feature, px_n AS value FROM ifeat
            UNION ALL SELECT media_id, 'px_sum', px_sum FROM ifeat
            UNION ALL SELECT media_id, 'px_sumsq', px_sumsq FROM ifeat
            UNION ALL SELECT media_id, 'px_wsum', px_wsum FROM ifeat
            UNION ALL SELECT media_id, 'n_samples', n_samples FROM afeat
            UNION ALL SELECT media_id, 'sum_sq', sum_sq FROM afeat
            UNION ALL SELECT media_id, 'peak_abs', peak_abs FROM afeat
            UNION ALL SELECT media_id, 'n_frames', n_frames FROM vfeat
            UNION ALL SELECT media_id, 'px_per_frame', px_per_frame FROM vfeat
            UNION ALL SELECT media_id, 'frames_sum', frames_sum FROM vfeat
            UNION ALL SELECT media_id, 'frames_max', frames_max FROM vfeat
        """,
        # Non-self-referential media oracle: regenerate the planted
        # md5-noise waveform (same md5_number_lower construction as the
        # HLL/CMS oracles) and recompute the integer energy features
        # analytically — the engine must recover the identical samples
        # from the real RIFF/WAV container bytes.
        "media_audio_energy": """
            WITH ids AS (
              -- range() cannot take a subquery: over-generate and filter
              SELECT range AS media_id FROM range(1000000)
              WHERE range < greatest(30, (SELECT (count(*) * 3) // 100
                                          FROM events))
            ),
            counts AS (
              SELECT media_id,
                     256 + CAST(md5_number_lower('apn:42:' ||
                           CAST(media_id AS VARCHAR)) % 1024 AS BIGINT) AS n
              FROM ids
            ),
            samples AS (
              SELECT c.media_id,
                     CAST(md5_number_lower('ap:42:' ||
                          CAST(c.media_id AS VARCHAR) || ':' ||
                          CAST(k AS VARCHAR)) % 32768 AS BIGINT) - 16384 AS s
              FROM counts c, unnest(generate_series(0, c.n - 1)) AS u(k)
            )
            SELECT media_id, COUNT(*) AS n_samples,
                   CAST(SUM(s * s) AS BIGINT) AS sum_sq,
                   CAST(MAX(abs(s)) AS BIGINT) AS peak_abs
            FROM samples GROUP BY media_id
        """,
        # Readability-threshold replay over the regenerated planted
        # pixels (imageproc.assess_readability's published thresholds:
        # contrast<30, laplacian-var<100, brightness<50/>230,
        # noise>1000, size<500) + the shape-preserving preprocess
        # chain's analytic output dims. The three planted variants sit
        # orders of magnitude from every threshold, so numpy-vs-VAR_POP
        # float drift cannot flip a flag.
        "media_preprocess": f"""
            WITH {_PROBE_IDS_SQL},
            {_PROBE_IMG_SQL},
            ipx AS (
              SELECT i.media_id, i.o, i.w, i.h, uy.y AS y, ux.x AS x,
                     {_probe_pix_sql('i.media_id', 'uy.y', 'ux.x')} AS p
              FROM img i,
                   unnest(generate_series(0, i.h - 1)) AS uy(y),
                   unnest(generate_series(0, i.w - 1)) AS ux(x)
            ),
            -- edge-clamped 4-neighbour Laplacian via window functions:
            -- clamping duplicates the edge pixel itself, which is
            -- exactly coalesce(lag/lead(p), p) — ONE md5 per pixel
            -- instead of recomputing the pixel expression 5x
            lap AS (
              SELECT media_id, o, w, h, p,
                     (coalesce(lag(p) OVER wy, p)
                      + coalesce(lead(p) OVER wy, p)
                      + coalesce(lag(p) OVER wx, p)
                      + coalesce(lead(p) OVER wx, p)
                      - 4 * p) AS l
              FROM ipx
              WINDOW wy AS (PARTITION BY media_id, x ORDER BY y),
                     wx AS (PARTITION BY media_id, y ORDER BY x)
            ),
            stat AS (
              SELECT media_id, any_value(o) AS o, any_value(w) AS w,
                     any_value(h) AS h,
                     count(*) AS n_pix, sum(p) AS pix_sum,
                     sum(p * p) AS pix_sumsq,
                     avg(CAST(p AS DOUBLE)) AS mean_p,
                     stddev_pop(CAST(p AS DOUBLE)) AS std_p,
                     var_pop(CAST(l AS DOUBLE)) AS lapvar
              FROM lap GROUP BY media_id
            ),
            flags AS (
              SELECT media_id, n_pix, pix_sum, pix_sumsq,
                     CASE WHEN o >= 5 THEN w ELSE h END AS dh,
                     CASE WHEN o >= 5 THEN h ELSE w END AS dw,
                     CASE WHEN std_p < 30.0 THEN 'low_contrast' END AS f1,
                     CASE WHEN lapvar < 100.0 THEN 'blurry' END AS f2,
                     CASE WHEN mean_p < 50.0 THEN 'too_dark'
                          WHEN mean_p > 230.0 THEN 'too_bright' END AS f3,
                     CASE WHEN lapvar > 1000.0 THEN 'high_noise' END AS f4
              FROM stat
            )
            SELECT media_id,
                   CAST(dh AS INTEGER) AS height,
                   CAST(dw AS INTEGER) AS width,
                   CAST(n_pix AS BIGINT) AS n_pix,
                   CAST(pix_sum AS BIGINT) AS pix_sum,
                   CAST(pix_sumsq AS BIGINT) AS pix_sumsq,
                   CASE WHEN n_iss = 0 THEN 'good'
                        WHEN n_iss <= 2 THEN 'fair'
                        ELSE 'poor' END AS readability,
                   concat_ws(',', f1, f2, f3, f4, f5) AS issues,
                   CAST(NULL AS VARCHAR) AS error
            FROM (SELECT *,
                    CASE WHEN dh < 500 OR dw < 500
                         THEN 'low_resolution' END AS f5,
                    ((f1 IS NOT NULL)::INT + (f2 IS NOT NULL)::INT
                     + (f3 IS NOT NULL)::INT + (f4 IS NOT NULL)::INT
                     + (dh < 500 OR dw < 500)::INT) AS n_iss
                  FROM flags) q
        """,
        # Bigram-LM likelihood score, replayed exactly: same tokenizer
        # (lowercase whitespace split), same pruning (count >= 2), same
        # integer terms (SCALE*c2 // c1 backoff SCALE*c1 // N).
        "doc_lm_score": """
            WITH toks AS (
              SELECT doc_id,
                     generate_subscripts(arr, 1) AS ord,
                     unnest(arr) AS tok
              FROM (SELECT doc_id,
                           regexp_split_to_array(trim(lower(text)), '\\s+') AS arr
                    FROM documents WHERE trim(text) <> '')
            ),
            uni AS (SELECT tok, count(*) AS c1 FROM toks GROUP BY tok),
            tot AS (SELECT count(*) AS n FROM toks),
            big AS (
              SELECT a.doc_id, a.tok AS w1, b.tok AS w2
              FROM toks a JOIN toks b
                ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
            ),
            bmodel AS (
              SELECT w1, w2, count(*) AS c2 FROM big
              GROUP BY w1, w2 HAVING count(*) >= 2
            ),
            terms AS (
              SELECT big.doc_id,
                     CASE WHEN bm.c2 IS NOT NULL
                          THEN (1000000 * bm.c2) // u1.c1
                          ELSE (1000000 * u2.c1) // (SELECT n FROM tot)
                     END AS term
              FROM big
              LEFT JOIN bmodel bm ON bm.w1 = big.w1 AND bm.w2 = big.w2
              JOIN uni u1 ON u1.tok = big.w1
              JOIN uni u2 ON u2.tok = big.w2
            )
            SELECT d.doc_id,
                   CASE WHEN trim(d.text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(lower(d.text)), '\\s+'))
                   END AS n_tokens,
                   CAST(count(t.term) AS BIGINT) AS n_transitions,
                   CAST(coalesce(sum(t.term), 0) AS BIGINT) AS lm_score
            FROM documents d LEFT JOIN terms t ON t.doc_id = d.doc_id
            GROUP BY d.doc_id, d.text
        """,
        # Video motion energy, analytically replayed: frame f of the
        # probe APNG is the md5 base raster rolled 2f columns, so every
        # consecutive |frame delta| has the same value multiset —
        # motion_abs_sum = (nf-1) * Σ|base[y,(x-2) mod 16] - base[y,x]|.
        # The engine diffs every REAL decoded frame pair and must land
        # on the identical integers.
        "media_motion": f"""
            WITH {_PROBE_IDS_SQL},
            {_PROBE_VID_SQL},
            vpx AS (
              SELECT v.media_id, v.nf,
                     CAST(md5_number_lower('mpv:42:' ||
                          CAST(v.media_id AS VARCHAR) || ':' ||
                          CAST(uy.y AS VARCHAR) || ':' ||
                          CAST(ux.x AS VARCHAR)) % 256 AS BIGINT) AS p,
                     CAST(md5_number_lower('mpv:42:' ||
                          CAST(v.media_id AS VARCHAR) || ':' ||
                          CAST(uy.y AS VARCHAR) || ':' ||
                          CAST((ux.x + 14) % 16 AS VARCHAR)) % 256
                          AS BIGINT) AS p2
              FROM vid v, unnest(generate_series(0, 15)) AS uy(y),
                   unnest(generate_series(0, 15)) AS ux(x)
            )
            SELECT media_id,
                   CAST(any_value(nf) AS BIGINT) AS n_frames,
                   CAST(256 AS BIGINT) AS px_per_frame,
                   CAST((any_value(nf) - 1) * sum(abs(p2 - p))
                        AS BIGINT) AS motion_abs_sum,
                   CAST(max(abs(p2 - p)) AS BIGINT) AS max_delta,
                   CAST(NULL AS VARCHAR) AS error
            FROM vpx GROUP BY media_id
        """,
        # Re-OCR strategy ladder vs an INDEPENDENT reference
        # implementation: DuckDB cannot replay the raster / preprocess
        # kernels (the selected lines are exactly the RNG-degraded
        # ones), so the expected counters are computed by
        # tools/reocr_reference.py — a second, from-spec implementation
        # sharing only the input substrate (corpus gen + rasterizer)
        # with the engine — and inlined here as VALUES literals from
        # data/reocr_expected.json. tests/test_reocr.py keeps the
        # differential live. Corpus pages rows = sf·500k = events/2.
        "pages_reocr": f"""
            SELECT strategy,
                   CAST(n_pages AS BIGINT) AS n_pages,
                   CAST(n_lines AS BIGINT) AS n_lines,
                   CAST(n_selected AS BIGINT) AS n_selected,
                   CAST(n_improved AS BIGINT) AS n_improved,
                   CAST(n_failed AS BIGINT) AS n_failed,
                   CAST(improved_primary AS BIGINT) AS improved_primary,
                   CAST(improved_secondary AS BIGINT)
                     AS improved_secondary,
                   CAST(sum_gain_e4 AS BIGINT) AS sum_gain_e4
            FROM (VALUES {_reocr_expected_values()})
                 AS t(n_rows, strategy, n_pages, n_lines, n_selected,
                      n_improved, n_failed, improved_primary,
                      improved_secondary, sum_gain_e4)
            WHERE n_rows = (SELECT count(*) // 2 FROM events)
        """,
        # Incremental cross-corpus near-dup vs brute force: DuckDB cross
        # joins the two sides' exact shingle sets (sharing >=1 shingle is
        # necessary for Jaccard > 0, so the engine's inverted-index probe
        # has recall exactly 1) and emits integer intersection/union.
        "doc_incremental_dedup": r"""
            WITH t AS (
              SELECT doc_id, source,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), s AS (
              SELECT doc_id, source IN ('src18', 'src19') AS is_new,
                     CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
                          ELSE list_distinct(list_transform(
                                 range(1, len(toks) - least(5, len(toks)) + 2),
                                 i -> array_to_string(toks[i : i + least(5, len(toks)) - 1], ' ')
                               )) END AS sh
              FROM t
            ), j AS (
              SELECT b.doc_id AS base_id, n.doc_id AS new_id,
                     len(list_intersect(b.sh, n.sh)) AS i,
                     len(b.sh) + len(n.sh) - len(list_intersect(b.sh, n.sh)) AS u
              FROM s b JOIN s n ON NOT b.is_new AND n.is_new
            )
            SELECT base_id, new_id,
                   CAST(i AS BIGINT) AS n_inter, CAST(u AS BIGINT) AS n_union
            FROM j
            WHERE CASE WHEN u = 0 THEN 1.0 ELSE i::DOUBLE / u END >= 0.5
        """,
        # HyperLogLog registers vs SQL: DuckDB recomputes every member's
        # (bucket, rank) from md5_number_lower — bucket = top 12 hash
        # bits, rank = leading zeros of the low 52 + 1 — maxes per
        # register, and digests the sorted register list. Exact match ⇒
        # bit-identical sketches.
        "events_approx_users": """
            WITH h AS (
              SELECT event_type,
                     md5_number_lower(CAST(user_id AS VARCHAR)) AS h
              FROM events
            ), rb AS (
              SELECT event_type, CAST(h >> 52 AS BIGINT) AS bucket,
                     CASE WHEN (h & 4503599627370495) = 0 THEN 53
                          ELSE 53 - length(ltrim(bin(h & 4503599627370495), '0'))
                     END AS r
              FROM h
            ), regs AS (
              SELECT event_type, bucket, max(r) AS r
              FROM rb GROUP BY event_type, bucket
            )
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_buckets,
                   CAST(sum(r) AS BIGINT) AS rank_sum,
                   md5(string_agg(bucket || ':' || r, ',' ORDER BY bucket))
                       AS regs_md5
            FROM regs GROUP BY event_type
        """,
        # Repeated-n-gram stats: DuckDB rebuilds the distinct 4-gram
        # pairs and counts, per doc, grams with document frequency >= 2.
        "doc_repeated_ngrams": """
            WITH toks AS (
              SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS t
              FROM documents
            ), grams AS (
              SELECT doc_id, unnest(list_distinct(list_transform(
                       range(1, greatest(len(t) - 4 + 2, 1)),
                       i -> array_to_string(t[i:i+3], ' ')))) AS g
              FROM toks WHERE len(t) >= 4
            ), df AS (
              SELECT g, count(DISTINCT doc_id) AS df FROM grams GROUP BY g
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_repeated
            FROM grams JOIN df USING (g)
            GROUP BY doc_id
        """,
        # Trailing-hour interval join: DuckDB replays the inequality
        # join directly; window-start inclusive, end strictly earlier,
        # zero-prior purchases kept via LEFT JOIN.
        "events_window_join": """
            SELECT p.event_id AS purchase_id, p.user_id,
                   CAST(count(e.event_id) AS BIGINT) AS n_prior,
                   CAST(coalesce(sum(CAST(round(e.value * 100) AS BIGINT)),
                                 0) AS BIGINT) AS sum_prior_e2
            FROM events p
            LEFT JOIN events e
              ON e.user_id = p.user_id
             AND e.ts >= p.ts - INTERVAL 1 HOUR
             AND e.ts < p.ts
            WHERE p.event_type = 'purchase'
            GROUP BY 1, 2
        """,
        # Backward as-of join: SQL replay of the pinned tie-exact
        # semantics (match = right event with greatest (ts, event_id)
        # at ts <= left ts, equal ts matches) via last_value(...
        # IGNORE NULLS) over the union of both streams ordered by
        # (ts, is_left, event_id) — right rows sort before an
        # equal-ts left row, so >= inclusion falls out of the order.
        "events_asof_join": """
            WITH streams AS (
              SELECT user_id, ts, event_id,
                     CAST(round(value * 100) AS BIGINT) AS value_e2,
                     CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
                       AS is_left
              FROM events
              WHERE event_type IN ('purchase', 'click')
            ), filled AS (
              SELECT user_id, ts, event_id, is_left,
                     last_value(CASE WHEN is_left = 0 THEN event_id END
                                IGNORE NULLS) OVER w AS m_id,
                     last_value(CASE WHEN is_left = 0
                                     THEN epoch_us(ts) END
                                IGNORE NULLS) OVER w AS m_ts,
                     last_value(CASE WHEN is_left = 0 THEN value_e2 END
                                IGNORE NULLS) OVER w AS m_val
              FROM streams
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY ts, is_left, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND CURRENT ROW)
            )
            SELECT event_id AS left_id, user_id,
                   epoch_us(ts) AS ts_us,
                   CAST(coalesce(m_id, -1) AS BIGINT) AS match_id,
                   CAST(coalesce(m_ts, -1) AS BIGINT) AS match_ts_us,
                   CAST(coalesce(m_val, 0) AS BIGINT) AS match_value_e2,
                   CAST(coalesce(epoch_us(ts) - m_ts, -1) AS BIGINT)
                     AS gap_us
            FROM filled
            WHERE is_left = 1
        """,
        # Forward as-of join: mirrored replay — first_value(... IGNORE
        # NULLS) over (CURRENT ROW .. UNBOUNDED FOLLOWING) ordered by
        # (ts, is_left DESC, event_id): at equal ts the left row sorts
        # BEFORE the rights, so >= inclusion falls out of the order and
        # the first right in the frame is the (min ts, min event_id)
        # match.
        "events_asof_join_fwd": """
            WITH streams AS (
              SELECT user_id, ts, event_id,
                     CAST(round(value * 100) AS BIGINT) AS value_e2,
                     CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END
                       AS is_left
              FROM events
              WHERE event_type IN ('purchase', 'click')
            ), filled AS (
              SELECT user_id, ts, event_id, is_left,
                     first_value(CASE WHEN is_left = 0 THEN event_id END
                                 IGNORE NULLS) OVER w AS m_id,
                     first_value(CASE WHEN is_left = 0
                                      THEN epoch_us(ts) END
                                 IGNORE NULLS) OVER w AS m_ts,
                     first_value(CASE WHEN is_left = 0 THEN value_e2 END
                                 IGNORE NULLS) OVER w AS m_val
              FROM streams
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY ts, is_left DESC, event_id
                           ROWS BETWEEN CURRENT ROW
                                    AND UNBOUNDED FOLLOWING)
            )
            SELECT event_id AS left_id, user_id,
                   epoch_us(ts) AS ts_us,
                   CAST(coalesce(m_id, -1) AS BIGINT) AS match_id,
                   CAST(coalesce(m_ts, -1) AS BIGINT) AS match_ts_us,
                   CAST(coalesce(m_val, 0) AS BIGINT) AS match_value_e2,
                   CAST(coalesce(m_ts - epoch_us(ts), -1) AS BIGINT)
                     AS gap_us
            FROM filled
            WHERE is_left = 1
        """,
        # Exact substring-span dedup: full SQL replay — positional
        # 8-gram instances, total-count >= 2 (multiplicity, like a
        # suffix array), covered positions via generate_series, cleaned
        # text re-joined with the same lower/whitespace tokenization.
        "doc_substring_dedup": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), tl AS (
              SELECT doc_id, t, len(t) AS n_tokens FROM tok
            ), inst AS (
              SELECT doc_id, i AS s, array_to_string(t[i:i+7], ' ') AS g
              FROM tl, unnest(range(1, greatest(n_tokens - 8 + 2, 1))) AS u(i)
              WHERE n_tokens >= 8
            ), dupg AS (
              SELECT g FROM inst GROUP BY g HAVING count(*) >= 2
            ), cov AS (
              SELECT DISTINCT doc_id, p
              FROM (SELECT doc_id, unnest(generate_series(s, s + 7)) AS p
                    FROM inst JOIN dupg USING (g))
            ), toks AS (
              SELECT doc_id, unnest(t) AS tok,
                     unnest(range(1, len(t) + 1)) AS i
              FROM tl
            ), joined AS (
              SELECT toks.doc_id, toks.tok, toks.i,
                     (cov.p IS NOT NULL) AS covered
              FROM toks LEFT JOIN cov
                ON cov.doc_id = toks.doc_id AND cov.p = toks.i
            ), agg AS (
              SELECT doc_id,
                     sum(CASE WHEN covered THEN 1 ELSE 0 END) AS n_covered,
                     string_agg(CASE WHEN NOT covered THEN tok END,
                                ' ' ORDER BY i) AS clean
              FROM joined GROUP BY doc_id
            )
            SELECT tl.doc_id, CAST(tl.n_tokens AS BIGINT) AS n_tokens,
                   CAST(coalesce(agg.n_covered, 0) AS BIGINT) AS n_covered,
                   coalesce(agg.clean, '') AS clean_text
            FROM tl LEFT JOIN agg USING (doc_id)
        """,
        # Adaptive percentile gate: the type-1 P10 threshold (smallest
        # value whose running count reaches ceil(0.1*N)) is re-derived
        # with a window cumsum; the gate is metric >= threshold.
        "doc_quality_gate": """
            WITH h AS (
              SELECT n_chars, count(*) AS c FROM documents GROUP BY n_chars
            ), r AS (
              SELECT n_chars, sum(c) OVER (ORDER BY n_chars) AS cum FROM h
            ), t AS (
              SELECT min(n_chars) AS thr FROM r
              WHERE cum >= ceil(0.1 * (SELECT count(*) FROM documents))
            )
            SELECT doc_id, n_chars,
                   n_chars >= (SELECT thr FROM t) AS kept
            FROM documents
        """,
        # Q13 shape: LEFT OUTER join keeps zero-order customers; DuckDB
        # counts orders per customer through the same outer join.
        "cust_order_dist": """
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM (
              SELECT c.c_custkey, count(o.o_custkey) AS c_count
              FROM customer c LEFT OUTER JOIN orders o
                ON c.c_custkey = o.o_custkey
              GROUP BY c.c_custkey
            )
            GROUP BY c_count
        """,
        # Unicode normalization vs SQL: the rule is pinned as
        # trim(regexp_replace(nfc_normalize(lower(text)), '\s+', ' ', 'g'))
        # on both sides; lengths are code-point counts.
        "doc_normalize": """
            WITH n AS (
              SELECT doc_id, text,
                     trim(regexp_replace(nfc_normalize(lower(coalesce(text, ''))),
                                         '\\s+', ' ', 'g')) AS norm
              FROM documents
            )
            SELECT doc_id,
                   CAST(length(coalesce(text, '')) AS BIGINT) AS n_chars_before,
                   CAST(length(norm) AS BIGINT) AS n_chars_after,
                   md5(norm) AS norm_md5
            FROM n
        """,
        # Sequence packing vs a recursive-CTE replay: DuckDB re-runs the
        # pinned next-fit scan (one recursion step per in-shard row, all
        # shards advance in lockstep) over the same md5 shards and token
        # counts.
        "doc_packing": """
            WITH RECURSIVE base AS (
              SELECT doc_id,
                     CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 8
                          AS BIGINT) AS shard,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE len(regexp_split_to_array(trim(text), '\\s+'))
                     END AS n
              FROM documents
            ), ordered AS (
              SELECT doc_id, shard, n,
                     row_number() OVER (PARTITION BY shard ORDER BY doc_id)
                         AS rn
              FROM base
            ), packed AS (
              SELECT shard, rn, doc_id, n,
                     CAST(0 AS BIGINT) AS bin_idx,
                     CAST(0 AS BIGINT) AS off,
                     n AS acc
              FROM ordered WHERE rn = 1
              UNION ALL
              SELECT d.shard, d.rn, d.doc_id, d.n,
                     CASE WHEN p.acc > 0 AND p.acc + d.n > 256
                          THEN p.bin_idx + 1 ELSE p.bin_idx END,
                     CASE WHEN p.acc > 0 AND p.acc + d.n > 256
                          THEN 0 ELSE p.acc END,
                     CASE WHEN p.acc > 0 AND p.acc + d.n > 256
                          THEN d.n ELSE p.acc + d.n END
              FROM ordered d JOIN packed p
                ON d.shard = p.shard AND d.rn = p.rn + 1
            )
            SELECT doc_id, shard, bin_idx, off AS offset_tokens,
                   CAST(n AS BIGINT) AS n_tokens
            FROM packed
        """,
        # Training-window chunking: DuckDB re-derives the window starts
        # (0, 48, 96, … — the emitted set is a prefix, so chunk_idx is
        # s // stride), slices the token array, and digests the
        # space-rejoined window exactly like the engine.
        "doc_chunks": """
            WITH toks AS (
              SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS t
              FROM documents WHERE trim(text) <> ''
            ), starts AS (
              SELECT doc_id, t, unnest(range(0, len(t), 48)) AS s FROM toks
            )
            SELECT doc_id, s // 48 AS chunk_idx, s AS start_tok,
                   CAST(least(64, len(t) - s) AS BIGINT) AS n_tokens,
                   md5(array_to_string(t[s+1:s+64], ' ')) AS chunk_md5
            FROM starts
            WHERE s = 0 OR (len(t) - s >= 16 AND s < len(t) - 64 + 48)
        """,
        # Eval-set decontamination: DuckDB rebuilds the distinct 4-gram
        # sets of both splits and counts, per training doc, its distinct
        # grams appearing anywhere in the eval split (exact string
        # semantics — the engine counts set-intersection on the same
        # lowered whitespace tokens).
        "doc_decontam": """
            WITH toks AS (
              SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS t
              FROM documents WHERE trim(text) <> ''
            ), grams AS (
              SELECT doc_id, unnest(list_distinct(list_transform(
                       range(1, greatest(len(t) - 4 + 2, 1)),
                       i -> array_to_string(t[i:i+3], ' ')))) AS g
              FROM toks WHERE len(t) >= 4
            ), ev AS (
              SELECT DISTINCT g FROM grams WHERE doc_id % 41 = 0
            )
            SELECT doc_id, count(*) AS matched_grams
            FROM grams JOIN ev USING (g)
            WHERE doc_id % 41 <> 0
            GROUP BY doc_id
        """,
        # Top-k distinctive terms per doc: DuckDB recomputes tf/df and the
        # integer-exact ranking key (tf DESC, df ASC, term ASC) with a
        # window function — no floating-point score in the compare.
        "doc_top_terms": f"""
            WITH tok AS (
              SELECT doc_id, unnest({tok}) AS term
              FROM documents WHERE trim(text) <> ''
            ), tf AS (
              SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term
            ), df AS (
              SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
            ), ranked AS (
              SELECT tf.doc_id, tf.term, tf.tf, df.df,
                     row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY tf.tf DESC, df.df ASC, tf.term ASC
                     ) AS rank
              FROM tf JOIN df USING (term)
            )
            SELECT doc_id, term, tf, df, rank FROM ranked WHERE rank <= 3
        """,
        # Stable hash split: DuckDB recomputes the md5-low64 bucket (same
        # construction as the SimHash oracle's token hash).
        "doc_split": """
            SELECT doc_id,
                   CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 1000 AS BIGINT)
                     AS split_bucket,
                   CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 1000 < 10
                        THEN 'eval' ELSE 'train' END AS split
            FROM documents
        """,
        # Host quota sampling: earliest-n-per-host via a window function.
        "pages_host_quota": f"""
            WITH ranked AS (
              SELECT lower(split_part(split_part(url, '://', 2), '/', 1)) AS host,
                     url, warc_ts,
                     row_number() OVER (
                       PARTITION BY lower(split_part(split_part(url, '://', 2), '/', 1))
                       ORDER BY warc_ts ASC, url ASC
                     ) AS quota_rank
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT host, url, warc_ts, CAST(quota_rank AS BIGINT) AS quota_rank
            FROM ranked WHERE quota_rank <= 3
        """,
        # Quantized top-k: both sides quantize with the emb_quantize
        # expressions (DOUBLE casts against DuckDB's float32 literal
        # arithmetic), then the score is an INTEGER dot product — no
        # float in the rank order at all. Query = min-vec_id vector.
        # Batched-query brute force: same cross-score as ann_topk,
        # partitioned per planted query (8 smallest vec_ids, query_idx
        # = their vec_id rank). rank uses the UNROUNDED score on both
        # engines; only the reported score column rounds to 6dp.
        "ann_topk_batch": """
            WITH q AS (
              SELECT embedding,
                     CAST(row_number() OVER (ORDER BY vec_id) - 1
                          AS BIGINT) AS query_idx
              FROM embeddings ORDER BY vec_id LIMIT 8
            ), s AS (
              SELECT q.query_idx, e.vec_id,
                     list_cosine_similarity(e.embedding::DOUBLE[],
                                            q.embedding::DOUBLE[]) AS sc
              FROM embeddings e, q
            )
            SELECT query_idx, vec_id, round(sc, 6) AS score,
                   CAST(row_number() OVER (
                     PARTITION BY query_idx ORDER BY sc DESC, vec_id
                   ) AS BIGINT) AS rank
            FROM s
            QUALIFY rank <= 10
            ORDER BY query_idx, rank
        """,
        # Batched quantized retrieval: integer code dot products per
        # planted query (4 smallest vec_ids) — the whole compare
        # surface is int64, no float rounding anywhere.
        "ann_topk_quantized_batch": """
            WITH m AS (
              SELECT vec_id, embedding,
                     list_max(list_transform(embedding, x -> abs(x)))
                       AS ma
              FROM embeddings
            ), c AS (
              SELECT vec_id,
                     list_transform(
                       embedding,
                       x -> CAST(round(CASE WHEN ma = 0 THEN 0.0
                                       ELSE CAST(x AS DOUBLE) * 127.0
                                            / CAST(ma AS DOUBLE) END)
                                 AS BIGINT)) AS code
              FROM m
            ), q AS (
              SELECT code AS qcode,
                     CAST(row_number() OVER (ORDER BY vec_id) - 1
                          AS BIGINT) AS query_idx
              FROM c ORDER BY vec_id LIMIT 4
            ), d AS (
              SELECT q.query_idx, c.vec_id,
                     CAST(coalesce(list_sum(list_transform(
                            range(1, len(c.code) + 1),
                            i -> c.code[i] * q.qcode[i])), 0)
                          AS BIGINT) AS score_q
              FROM c, q
            )
            SELECT query_idx, vec_id, score_q,
                   CAST(row_number() OVER (
                     PARTITION BY query_idx
                     ORDER BY score_q DESC, vec_id
                   ) AS BIGINT) AS rank
            FROM d
            QUALIFY rank <= 10
            ORDER BY query_idx, rank
        """,
        "ann_topk_quantized": """
            WITH m AS (
              SELECT vec_id, embedding,
                     list_max(list_transform(embedding, x -> abs(x)))
                       AS ma
              FROM embeddings
            ), c AS (
              SELECT vec_id,
                     list_transform(
                       embedding,
                       x -> CAST(round(CASE WHEN ma = 0 THEN 0.0
                                       ELSE CAST(x AS DOUBLE) * 127.0
                                            / CAST(ma AS DOUBLE) END)
                                 AS BIGINT)) AS code
              FROM m
            ), q AS (
              SELECT code AS qcode FROM c ORDER BY vec_id LIMIT 1
            ), d AS (
              SELECT c.vec_id,
                     CAST(coalesce(list_sum(list_transform(
                            range(1, len(c.code) + 1),
                            i -> c.code[i] * q.qcode[i])), 0)
                          AS BIGINT) AS score_q
              FROM c, q
            )
            SELECT vec_id, score_q,
                   CAST(row_number() OVER (ORDER BY score_q DESC,
                                           vec_id) AS BIGINT) AS rank
            FROM d
            ORDER BY rank
            LIMIT 10
        """,
        # Exact n-gram Jaccard all-pairs: the oracle computes the TRUE
        # answer directly (full distinct-gram self-join + integer
        # threshold predicate); the engine's prefix-filtered plan must
        # reproduce it exactly (recall 1 + exact verify). Tokenization
        # mirrors doc_substring_dedup (lower, \s+ split, empties
        # dropped); 5-grams via inclusive list slicing t[i:i+4].
        "doc_jaccard_near_dup": r"""
            WITH tok AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 x -> x <> '') AS t
              FROM documents
            ), g AS (
              SELECT DISTINCT doc_id,
                     array_to_string(t[i:i+4], ' ') AS gram
              FROM tok,
                   unnest(range(1, greatest(len(t) - 5 + 2, 1))) AS u(i)
              WHERE len(t) >= 5
            ), sz AS (
              SELECT doc_id, count(*) AS n FROM g GROUP BY 1
            ), inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     count(*) AS i
              FROM g a
              JOIN g b ON b.gram = a.gram AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT doc_a, doc_b, CAST(i AS BIGINT) AS n_inter,
                   CAST(sa.n + sb.n - i AS BIGINT) AS n_union
            FROM inter
            JOIN sz sa ON sa.doc_id = inter.doc_a
            JOIN sz sb ON sb.doc_id = inter.doc_b
            WHERE 2 * i >= (sa.n + sb.n - i)
        """,
        # Symmetric int8 quantization digest: float32 abs/max per
        # vector first (bit-equal to the kernel's float32 row max),
        # then the float64 promotion in x * 127.0 / ma; the compare
        # surface is integer-only (code digests + e6-fixed scale).
        # Zero vectors take the same CASE guard as the kernel.
        "emb_quantize": """
            WITH m AS (
              SELECT vec_id, embedding,
                     list_max(list_transform(embedding, x -> abs(x)))
                       AS ma
              FROM embeddings
            ), c AS (
              SELECT vec_id, ma,
                     list_transform(
                       embedding,
                       x -> CAST(round(CASE WHEN ma = 0 THEN 0.0
                                       ELSE CAST(x AS DOUBLE) * 127.0
                                            / CAST(ma AS DOUBLE) END)
                                 AS BIGINT)) AS code
              FROM m
            )
            SELECT vec_id,
                   CAST(coalesce(round(CAST(ma AS DOUBLE) * 1000000.0),
                                 0) AS BIGINT) AS max_abs_e6,
                   CAST(len(code) AS BIGINT) AS n_dims,
                   CAST(coalesce(list_sum(code), 0) AS BIGINT)
                     AS code_sum,
                   CAST(coalesce(list_sum(list_transform(code,
                                                         y -> y * y)),
                                 0) AS BIGINT) AS code_sqsum,
                   CAST(coalesce(list_min(code), 0) AS BIGINT)
                     AS code_min,
                   CAST(coalesce(list_max(code), 0) AS BIGINT)
                     AS code_max
            FROM c
        """,
        # Embedding centroids: each element fixed-pointed BEFORE summing
        # (round half away from zero, e6) so integer addition makes the
        # group sums order-independent — no float in the compare.
        # Gram matrix: same element fixed-pointing as emb_centroids, then
        # an exact integer sum of per-vector products — any partial-sum
        # order on the engine side must reproduce it bit-for-bit.
        "emb_gram": """
            WITH e AS (
              SELECT vec_id, unnest(embedding::DOUBLE[]) AS x,
                     CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                       AS dim
              FROM embeddings
            ), q AS (
              SELECT vec_id, dim, CAST(round(x * 1000) AS BIGINT) AS q
              FROM e
            )
            SELECT a.dim AS dim_i, b.dim AS dim_j,
                   CAST(sum(a.q * b.q) AS BIGINT) AS gram
            FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.dim <= b.dim
            GROUP BY a.dim, b.dim
        """,
        # Full SQL replay of the pinned two-iteration integer Lloyd:
        # e6 elements, int64 squared-L2, ties → smaller centroid id,
        # floor-div centroid update (DuckDB ``//`` truncates toward
        # zero, hence floor()), empty clusters keep their seed.
        "emb_kmeans": """
            WITH e AS (
              SELECT vec_id,
                     list_transform(embedding::DOUBLE[],
                                    x -> CAST(round(x * 1000000) AS BIGINT)) AS v
              FROM embeddings
            ), seeds AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS sid, v
              FROM e ORDER BY vec_id LIMIT 8
            ), a1 AS (
              SELECT e.vec_id, s.sid,
                     CAST(list_sum(list_transform(
                       range(1, len(e.v) + 1),
                       i -> (e.v[i] - s.v[i]) * (e.v[i] - s.v[i]))) AS BIGINT) AS d2
              FROM e CROSS JOIN seeds s
            ), asg1 AS (
              SELECT vec_id, sid FROM a1
              QUALIFY row_number() OVER (PARTITION BY vec_id
                                         ORDER BY d2, sid) = 1
            ), el AS (
              SELECT a.sid, generate_subscripts(e.v, 1) AS i,
                     unnest(e.v) AS x
              FROM asg1 a JOIN e USING (vec_id)
            ), sums AS (
              SELECT sid, i,
                     CAST(floor(sum(x)::DOUBLE / count(*)) AS BIGINT) AS c
              FROM el GROUP BY sid, i
            ), cents AS (
              SELECT s.sid, coalesce(u.v2, s.v) AS v
              FROM seeds s LEFT JOIN (
                SELECT sid, list(c ORDER BY i) AS v2 FROM sums GROUP BY sid
              ) u USING (sid)
            ), a2 AS (
              SELECT e.vec_id, c.sid,
                     CAST(list_sum(list_transform(
                       range(1, len(e.v) + 1),
                       i -> (e.v[i] - c.v[i]) * (e.v[i] - c.v[i]))) AS BIGINT) AS d2
              FROM e CROSS JOIN cents c
            )
            SELECT vec_id, sid AS cluster, d2 AS dist FROM a2
            QUALIFY row_number() OVER (PARTITION BY vec_id
                                       ORDER BY d2, sid) = 1
        """,
        "emb_centroids": """
            WITH e AS (
              SELECT CAST(label AS BIGINT) AS label,
                     unnest(embedding::DOUBLE[]) AS x,
                     CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                       AS dim
              FROM embeddings
            )
            SELECT label, dim,
                   CAST(sum(CAST(round(x * 1000000) AS BIGINT)) AS BIGINT)
                     AS sum_e6,
                   count(*) AS n_vecs
            FROM e GROUP BY label, dim
        """,
        # Stratified sample: DuckDB recomputes the md5-low64 hash order
        # per language stratum with a window function.
        "doc_stratified_sample": """
            WITH h AS (
              SELECT lang, doc_id,
                     md5_number_lower(CAST(doc_id AS VARCHAR)) AS sample_hash
              FROM documents
            ), r AS (
              SELECT *, row_number() OVER (
                       PARTITION BY lang ORDER BY sample_hash, doc_id
                     ) AS sample_rank
              FROM h
            )
            SELECT lang, doc_id, sample_hash,
                   CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r WHERE sample_rank <= 20
        """,
        # Corpus heavy hitters: exact global term counts + integer rank
        # key (n DESC, term ASC) — same tokenizer as doc_top_terms.
        "corpus_top_bigrams": """
            WITH t AS (
              SELECT regexp_split_to_array(trim(lower(text)), '\\s+') AS toks
              FROM documents WHERE trim(text) <> ''
            ), b AS (
              SELECT unnest(CASE WHEN len(toks) < 2 THEN []::VARCHAR[]
                            ELSE list_transform(range(1, len(toks)),
                                                i -> toks[i] || ' ' || toks[i + 1])
                            END) AS term
              FROM t
            ), c AS (
              SELECT term, count(*) AS n FROM b GROUP BY term
            ), r AS (
              SELECT term, n,
                     row_number() OVER (ORDER BY n DESC, term ASC) AS rank
              FROM c
            )
            SELECT term, CAST(n AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 30
        """,
        "corpus_top_terms": """
            WITH tok AS (
              SELECT unnest(regexp_split_to_array(trim(lower(text)), '\\s+'))
                       AS term
              FROM documents WHERE trim(text) <> ''
            ), c AS (
              SELECT term, count(*) AS n FROM tok GROUP BY term
            ), r AS (
              SELECT term, n,
                     row_number() OVER (ORDER BY n DESC, term ASC) AS rank
              FROM c
            )
            SELECT term, CAST(n AS BIGINT) AS n, CAST(rank AS BIGINT) AS rank
            FROM r WHERE rank <= 50
        """,
        # The curation funnel: DuckDB re-derives every gate — window-
        # function dedups (earliest per canonical url, min-url per content
        # hash), the stopword language scorer, the token-count gate and
        # the md5 split — over golden + pages, fully independent of the
        # engine's single-pass folded-count implementation.
        "pages_curation_funnel": f"""
            WITH base AS (
              SELECT g.url, p.warc_ts,
                     {_urlnorm_sql_expr().replace("lower(url)", "lower(g.url)")} AS curl,
                     g.content_hash, g.extracted_text
              FROM read_parquet('{golden_sf0_01}') g
              JOIN read_parquet('{pages_sf0_01}') p USING (url)
            ), r1 AS (
              SELECT *,
                     row_number() OVER (PARTITION BY curl ORDER BY warc_ts, url) AS rn,
                     count(*) OVER (PARTITION BY curl) AS n_in_curl
              FROM base
            ), reps1 AS (SELECT * FROM r1 WHERE rn = 1
            ), r2 AS (
              SELECT *,
                     row_number() OVER (PARTITION BY content_hash ORDER BY url) AS rn2,
                     count(*) OVER (PARTITION BY content_hash) AS n_url_reps,
                     sum(n_in_curl) OVER (PARTITION BY content_hash) AS n_pages_total
              FROM reps1
            ), reps2 AS (SELECT * FROM r2 WHERE rn2 = 1
            ), toks AS (
              SELECT *, CASE WHEN trim(extracted_text) = '' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(extracted_text)), '\\s+')
                        END AS tk
              FROM reps2
            ), scored AS (
              SELECT url, n_pages_total, n_url_reps,
                     len(tk) AS n_tokens,
                     len(list_filter(tk, x -> x IN {_EN}))::DOUBLE AS c_en,
                     len(list_filter(tk, x -> x IN {_DE}))::DOUBLE AS c_de,
                     len(list_filter(tk, x -> x IN {_FR}))::DOUBLE AS c_fr,
                     len(list_filter(tk, x -> x IN {_ES}))::DOUBLE AS c_es,
                     md5_number_lower(url) % 1000 >= 10 AS is_train
              FROM toks
            ), flags AS (
              SELECT *,
                     (CASE WHEN n_tokens = 0 THEN 'unknown'
                           WHEN greatest(c_en, c_de, c_fr, c_es) / n_tokens < 0.03 THEN 'unknown'
                           WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
                           WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
                           WHEN c_es >= c_fr THEN 'es'
                           ELSE 'fr' END) = 'en' AS f_en
              FROM scored
            )
            SELECT 1 AS stage_idx, 'extracted' AS stage,
                   CAST(sum(n_pages_total) AS BIGINT) AS n_rows FROM flags
            UNION ALL SELECT 2, 'url_dedup', CAST(sum(n_url_reps) AS BIGINT) FROM flags
            UNION ALL SELECT 3, 'content_dedup', count(*) FROM flags
            UNION ALL SELECT 4, 'lang_en', count(*) FILTER (WHERE f_en) FROM flags
            UNION ALL SELECT 5, 'quality', count(*) FILTER (WHERE f_en AND n_tokens >= 30) FROM flags
            UNION ALL SELECT 6, 'train',
                   count(*) FILTER (WHERE f_en AND n_tokens >= 30 AND is_train) FROM flags
        """,
        # Canonical-URL dedup vs the same RE2 canonicalization rule in
        # DuckDB (both engines run RE2 — identical regex semantics). The
        # corpus's dup rows carry tracking-param/fragment/session-id URL
        # variants of their source row, so the grouping is non-trivial.
        "pages_url_dedup": f"""
            WITH c AS (
              SELECT {_urlnorm_sql_expr()} AS canonical_url, warc_ts
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT canonical_url, count(*) AS n_pages,
                   min(warc_ts) AS first_ts
            FROM c GROUP BY canonical_url
        """,
        "pages_url_dedup_windowed": f"""
            WITH c AS (
              SELECT {_urlnorm_sql_expr()} AS canonical_url, warc_ts,
                     (epoch_us(warc_ts) // {600 * 1_000_000}) AS w
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT canonical_url,
                   make_timestamp(w * {600 * 1_000_000}) AS window_start,
                   count(*) AS n_pages, min(warc_ts) AS first_ts
            FROM c GROUP BY canonical_url, w
        """,
        # Anti-join drop-set: every crawl row that is NOT its canonical
        # group's (warc_ts, url)-argmin representative — the window-rank
        # restatement of pages ∖ representatives.
        "pages_dup_losers": f"""
            WITH c AS (
              SELECT url, {_urlnorm_sql_expr()} AS canonical_url, warc_ts
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT url, canonical_url FROM c
            QUALIFY row_number() OVER (
              PARTITION BY canonical_url ORDER BY warc_ts, url) > 1
        """,
        # Grouped mode / argmax: dominant language per host, ties to the
        # lexicographically smallest lang (window-rank restatement).
        "pages_host_lang": f"""
            WITH c AS (
              SELECT lower(split_part(split_part(url, '://', 2), '/', 1))
                       AS host,
                     lang, count(*) AS n
              FROM read_parquet('{pages_sf0_01}')
              GROUP BY 1, 2
            )
            SELECT host, lang AS top_lang, CAST(n AS BIGINT) AS n_top,
                   CAST(count(*) OVER (PARTITION BY host) AS BIGINT)
                     AS n_langs
            FROM c
            QUALIFY row_number() OVER (PARTITION BY host
                                       ORDER BY n DESC, lang ASC) = 1
        """,
        # CCNet-style fluency proxy: corpus frequency rank of every
        # token occurrence, summed per doc (rank 1 = most frequent term,
        # ties by term ASC — integer-exact, no ln() in the compare).
        "doc_mean_rank": """
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(trim(lower(text)), '\\s+'))
                       AS term
              FROM documents WHERE trim(text) <> ''
            ), c AS (
              SELECT term, count(*) AS n FROM tok GROUP BY term
            ), r AS (
              SELECT term,
                     row_number() OVER (ORDER BY n DESC, term ASC) AS rank
              FROM c
            ), s AS (
              SELECT tok.doc_id, count(*) AS n_tokens,
                     sum(r.rank) AS rank_sum
              FROM tok JOIN r USING (term) GROUP BY tok.doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(s.rank_sum, 0) AS BIGINT) AS rank_sum
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        # Salted two-phase host aggregation vs a direct SQL groupby over
        # the raw pages table.
        "pages_host_stats": f"""
            SELECT lower(split_part(split_part(url, '://', 2), '/', 1)) AS host,
                   count(*) AS n_pages,
                   CAST(sum(COALESCE(octet_length(html), 0)) AS BIGINT) AS payload_bytes
            FROM read_parquet('{pages_sf0_01}') GROUP BY 1
        """,
        # Table-structure detection vs the generator's golden grid
        # fixtures (cell counts + row-major cell-text hashes). The
        # fixtures are construction knowledge, not extractor output, so
        # this is a true independent oracle.
        "pages_tables": f"""
            WITH g AS (
              SELECT url, unnest(tables) AS t
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT url, t.page AS page, t.table_idx AS table_idx,
                   t.n_rows AS n_rows, t.n_cols AS n_cols,
                   t.n_rows * t.n_cols AS n_cells,
                   md5(array_to_string(t.cell_texts, '|')) AS cells_md5
            FROM g
        """,
        # Layout overlays (S11 analog): DuckDB re-derives every drawn
        # rect — span ordinal, region kind, the reference's BGR→hex
        # color map, and the anchored line text sliced from the golden
        # extracted_text by the span offsets.
        "pages_overlays": f"""
            WITH s AS (
              SELECT url, extracted_text, unnest(spans) AS sp,
                     generate_subscripts(spans, 1) - 1 AS idx
              FROM read_parquet('{golden_sf0_01}')
              WHERE route IN ('doc', 'image')
            )
            SELECT url, idx, sp.kind AS kind,
                   CASE sp.kind
                     WHEN 'header' THEN '#6464ff' WHEN 'footer' THEN '#ff6464'
                     WHEN 'text' THEN '#64ff64' WHEN 'table' THEN '#64ffff'
                     WHEN 'title' THEN '#64c8c8'
                     WHEN 'page_number' THEN '#969696'
                     WHEN 'list_item' THEN '#c8ff64'
                     WHEN 'caption' THEN '#ff64c8'
                     ELSE '#808080' END AS color,
                   sp.kind AS label,
                   substr(extracted_text, sp.start + 1, sp."end" - sp.start)
                     AS line_text
            FROM s
        """,
        # Table-structure overlays: header row yellow / body green over
        # the golden grid fixtures, row-major cell ordinals.
        "pages_table_overlays": f"""
            WITH t AS (
              SELECT url, unnest(tables) AS tb
              FROM read_parquet('{golden_sf0_01}')
            ), c AS (
              SELECT url, tb.page AS page, tb.table_idx AS table_idx,
                     tb.n_cols AS n_cols,
                     unnest(tb.cell_texts) AS cell_text,
                     generate_subscripts(tb.cell_texts, 1) - 1 AS idx
              FROM t
            )
            SELECT url, page, 't' || table_idx AS kind, idx,
                   CASE WHEN idx < n_cols THEN '#ffff00'
                        ELSE '#00c800' END AS color,
                   cell_text AS label
            FROM c
        """,
        # KIE fuse pipeline vs the generator's planted-field fixtures
        # (name/value/candidate-count/winning-confidence are construction
        # knowledge); anchors recomputed independently with strpos over
        # the golden text — first-occurrence semantics on both sides.
        "pages_fields": f"""
            WITH g AS (
              SELECT url, extracted_text, unnest(fields) AS f
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT url, f.name AS name, f.value AS value,
                   f.n_candidates AS n_candidates,
                   f.confidence AS confidence,
                   CASE WHEN strpos(extracted_text, f.value) = 0 THEN -1
                        ELSE strpos(extracted_text, f.value) - 1 END AS value_start,
                   CASE WHEN strpos(extracted_text, f.value) = 0 THEN -1
                        ELSE strpos(extracted_text, f.value) - 1 + length(f.value)
                        END AS value_end
            FROM g
        """,
        # Style extraction vs the generator's per-line style fixtures
        # (native spans are payload truth; estimated styles recomputed
        # arithmetically from the published rules at construction time).
        "pages_styles": f"""
            WITH g AS (
              SELECT url, unnest(styles) AS s
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT url, s.page AS page, s.line_idx AS line_idx,
                   s.kind AS kind, s.text_len AS text_len,
                   s.font_name AS font_name, s.font_size AS font_size,
                   s.bold AS bold, s.italic AS italic,
                   s.style_source AS style_source,
                   s.style_confidence AS style_confidence
            FROM g
        """,
        # PII redaction vs an independent SQL re-run of the SAME RE2 rules
        # (patterns injected from functions/redact.py so the two sides
        # can't drift) over the golden extracted text: per-class counts on
        # the progressively redacted text + md5 of the final masked text.
        "pages_redact": f"""
            WITH g AS (
              SELECT url, extracted_text AS t0
              FROM read_parquet('{golden_sf0_01}')
            ), s1 AS (
              SELECT url,
                     len(regexp_extract_all(t0, '{_redact_pat("email")}')) AS n_emails,
                     regexp_replace(t0, '{_redact_pat("email")}', '<EMAIL>', 'g') AS t1
              FROM g
            ), s2 AS (
              SELECT url, n_emails,
                     len(regexp_extract_all(t1, '{_redact_pat("phone")}')) AS n_phones,
                     regexp_replace(t1, '{_redact_pat("phone")}', '<PHONE>', 'g') AS t2
              FROM s1
            ), s3 AS (
              SELECT url, n_emails, n_phones,
                     len(regexp_extract_all(t2, '{_redact_pat("ip")}')) AS n_ips,
                     regexp_replace(t2, '{_redact_pat("ip")}', '<IP>', 'g') AS t3
              FROM s2
            )
            SELECT url, CAST(n_emails AS BIGINT) AS n_emails,
                   CAST(n_phones AS BIGINT) AS n_phones,
                   CAST(n_ips AS BIGINT) AS n_ips,
                   md5(t3) AS redacted_md5
            FROM s3
        """,
        # Bloom probe vs SQL: DuckDB recomputes every key's k=4 bit
        # positions (Kirsch-Mitzenmacher double hashing on
        # md5_number_lower/upper), the base side's distinct position
        # set, and the all-positions-present probe — reproducing every
        # hit including the false positives.
        "pages_bloom_probe": f"""
            WITH u AS (
              SELECT url, md5_number_lower(url) % 1000 < 100 AS is_probe
              FROM read_parquet('{golden_sf0_01}')
            ), bpos AS (
              SELECT DISTINCT
                     CAST((CAST(md5_number_lower(url) AS HUGEINT)
                           + i * CAST(md5_number_upper(url) AS HUGEINT))
                          % 262144 AS BIGINT) AS pos
              FROM u, unnest(range(0, 4)) AS t(i)
              WHERE NOT is_probe
            ), ppos AS (
              SELECT url,
                     CAST((CAST(md5_number_lower(url) AS HUGEINT)
                           + i * CAST(md5_number_upper(url) AS HUGEINT))
                          % 262144 AS BIGINT) AS pos
              FROM u, unnest(range(0, 4)) AS t(i)
              WHERE is_probe
            )
            SELECT p.url, bool_and(b.pos IS NOT NULL) AS hit
            FROM ppos p LEFT JOIN bpos b USING (pos)
            GROUP BY p.url
        """,
        # Boilerplate line removal vs golden text: DuckDB recomputes the
        # line document-frequency table, the df>=5 drop-set, and the
        # order-preserving rewrite (list_filter keeps original line
        # order), digesting the cleaned text exactly like the engine.
        # Metadata harvest replay over the RAW page payloads: the same
        # exact byte-prefix gate (hex compare — DuckDB has no blob
        # substring) and the same RE2 field kernels.
        # S4 metadata-probe replay: same byte-prefix gates (hex compare),
        # page count = occurrences of the raw '"page":' marker in the
        # ASCII SYNDOC body (json.dumps ensure_ascii) — corrupt DOC_MAGIC
        # payloads contain no marker and probe to 0, images are 1-page.
        # DuckDB's BLOB→VARCHAR cast escapes quotes to the literal text
        # \\x22, so the needle is the escaped marker counted by replace()
        # length arithmetic (regex would re-interpret \\x22 as a hex
        # escape).
        "pages_doc_meta": f"""
            SELECT url, 'doc' AS route,
                   CAST((len(cast(html AS VARCHAR))
                         - len(replace(cast(html AS VARCHAR),
                                       '{{needle}}', '')))
                        // {{needle_len}} AS BIGINT) AS page_count
            FROM read_parquet('{pages_sf0_01}')
            WHERE left(hex(html), {{doc_hex_len}}) = '{{doc_hex}}'
            UNION ALL
            SELECT url, 'image' AS route, CAST(1 AS BIGINT) AS page_count
            FROM read_parquet('{pages_sf0_01}')
            WHERE left(hex(html), {{img_hex_len}}) = '{{img_hex}}'
        """.replace("{needle_len}", str(len(r"\x22page\x22:"))).replace(
            "{needle}", r"\x22page\x22:").replace(
            "{doc_hex_len}", str(2 * len(_DOC_MAGIC))).replace(
            "{doc_hex}", _DOC_MAGIC.hex().upper()).replace(
            "{img_hex_len}", str(2 * len(_IMG_MAGIC))).replace(
            "{img_hex}", _IMG_MAGIC.hex().upper()),
        # A11 routing-table replay: same escaped-needle counts over the
        # raw payload text, same band thresholds (pages>=4 | alts>=6 →
        # complex → staged; pages<=1 & alts=0 → simple; else medium).
        "pages_complexity_route": f"""
            WITH probes AS (
              SELECT CASE
                       WHEN left(hex(html), {{doc_hex_len}}) = '{{doc_hex}}'
                       THEN (len(cast(html AS VARCHAR))
                             - len(replace(cast(html AS VARCHAR),
                                           '{{page_needle}}', '')))
                            // {{needle_len}}
                       ELSE 1 END AS pages,
                     (len(cast(html AS VARCHAR))
                      - len(replace(cast(html AS VARCHAR),
                                    '{{alt_needle}}', '')))
                     // {{alt_needle_len}} AS alts
              FROM read_parquet('{pages_sf0_01}')
              WHERE left(hex(html), {{doc_hex_len}}) = '{{doc_hex}}'
                 OR left(hex(html), {{img_hex_len}}) = '{{img_hex}}'
            ), bands AS (
              SELECT CASE WHEN pages >= 4 OR alts >= 6 THEN 'complex'
                          WHEN pages <= 1 AND alts = 0 THEN 'simple'
                          ELSE 'medium' END AS complexity
              FROM probes
            )
            SELECT complexity,
                   CASE complexity WHEN 'complex' THEN 'staged'
                        ELSE 'combined' END AS extract_variant,
                   COUNT(*) AS n
            FROM bands GROUP BY 1, 2
        """.replace("{needle_len}", str(len(r"\x22page\x22:"))).replace(
            "{page_needle}", r"\x22page\x22:").replace(
            "{alt_needle_len}", str(len(r"\x22alt\x22:"))).replace(
            "{alt_needle}", r"\x22alt\x22:").replace(
            "{doc_hex_len}", str(2 * len(_DOC_MAGIC))).replace(
            "{doc_hex}", _DOC_MAGIC.hex().upper()).replace(
            "{img_hex_len}", str(2 * len(_IMG_MAGIC))).replace(
            "{img_hex}", _IMG_MAGIC.hex().upper()),
        "pages_html_meta": f"""
            WITH h AS (
              SELECT url, cast(html AS VARCHAR) AS s
              FROM read_parquet('{pages_sf0_01}')
              WHERE left(hex(html), 28) = hex('<!DOCTYPE html'::BLOB)
            )
            SELECT url,
                   coalesce(regexp_extract(s, '<title>([^<]*)</title>', 1),
                            '') AS title,
                   CAST(len(regexp_extract_all(s, '<a ')) AS BIGINT)
                     AS n_anchors,
                   CAST(len(regexp_extract_all(s, '<p>')) AS BIGINT)
                     AS n_paragraphs,
                   CAST(len(regexp_extract_all(s, '<h[1-6]>')) AS BIGINT)
                     AS n_headings
            FROM h
        """,
        # Z-order replay: same host hash (md5-low64 mod 2^16), same
        # crawl-hour index, and the interleave as a generated 32-term
        # bit expression from the engine's own kernel module.
        "pages_zorder": f"""
            WITH d AS (
              SELECT url,
                     lower(regexp_extract(url,
                       '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS host,
                     CAST(md5_number_lower(lower(regexp_extract(url,
                       '^https?://(?:[^@/]*@)?([^/:?#]+)', 1))) % 65536
                       AS BIGINT) AS h16,
                     CAST((epoch_us(warc_ts) // 3600000000) % 65536
                       AS BIGINT) AS t16
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT url, host,
                   CAST({_morton_sql('h16', 't16')} AS BIGINT) AS zkey,
                   CAST({_morton_sql('h16', 't16')} // 16777216 AS BIGINT)
                     AS zbucket
            FROM d
        """,
        # Blocklist replay: the engine's standard host SQL idiom + a
        # first-match CASE generated from the SAME module constant.
        "pages_blocklist": f"""
            WITH h AS (
              SELECT url,
                     lower(regexp_extract(url,
                       '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS host
              FROM read_parquet('{pages_sf0_01}')
            )
            SELECT url, host, {_blocklist_case()} AS blocked_by
            FROM h
        """,
        # C4 heuristic cleaning replay: the SAME RE2 line rules
        # (terminal punct, >=5 token runs, boilerplate phrases) as
        # list_filter lambdas, the same doc drops, and the md5 of the
        # order-preserving kept-line reassembly — byte-identical to the
        # engine's Arrow-kernel pass (functions/c4filter.py).
        "pages_c4_filter": f"""
            WITH g AS (
              SELECT url, extracted_text AS t,
                     string_split(extracted_text, chr(10)) AS ls
              FROM read_parquet('{golden_sf0_01}')
            ), k AS (
              SELECT url, t, ls,
                     list_filter(ls, x ->
                        regexp_matches(x, '[.!?"]$')
                        AND len(regexp_extract_all(x, '[^ \t]+')) >= 5
                        AND NOT contains(lower(x), 'javascript')
                        AND NOT contains(lower(x), 'cookie policy')
                        AND NOT contains(lower(x), 'privacy policy')
                        AND NOT contains(lower(x), 'terms of use')
                     ) AS kept
              FROM g
            )
            SELECT url,
                   CAST(len(ls) AS BIGINT) AS n_lines,
                   CAST(len(kept) AS BIGINT) AS n_kept,
                   CAST(coalesce(list_sum(list_transform(kept,
                        x -> len(regexp_extract_all(x, '[^ \t]+')))), 0)
                        AS BIGINT) AS n_tokens_kept,
                   md5(array_to_string(kept, chr(10))) AS clean_md5
            FROM k
            WHERE NOT contains(t, '{{') AND NOT contains(lower(t), 'lorem ipsum')
              AND len(kept) >= 3
        """,
        "pages_line_dedup": f"""
            WITH g AS (
              SELECT url, string_split(extracted_text, chr(10)) AS ls
              FROM read_parquet('{golden_sf0_01}')
              WHERE extracted_text <> ''
            ), lines AS (
              SELECT url, unnest(ls) AS line FROM g
            ), dft AS (
              SELECT line, count(DISTINCT url) AS df
              FROM lines WHERE line <> '' GROUP BY line
            ), drops AS (
              SELECT coalesce(list(line), []) AS dl FROM dft WHERE df >= 5
            )
            SELECT url,
                   CAST(len(list_filter(ls, x -> NOT list_contains(dl, x)))
                        AS BIGINT) AS n_kept,
                   CAST(len(ls) - len(list_filter(ls, x -> NOT list_contains(dl, x)))
                        AS BIGINT) AS n_dropped,
                   md5(array_to_string(
                       list_filter(ls, x -> NOT list_contains(dl, x)),
                       chr(10))) AS kept_md5
            FROM g CROSS JOIN drops
        """,
        # Repetition signals vs golden text: exact integer numerators /
        # denominators (no pre-divided float ratios on the wire); the
        # top-token tie-break (count DESC, token ASC) is pinned on both
        # sides.
        "pages_repetition": f"""
            WITH g AS (
              SELECT url, extracted_text AS t
              FROM read_parquet('{golden_sf0_01}')
            ), l AS (
              SELECT url, unnest(string_split(t, chr(10))) AS line FROM g
            ), lc AS (
              SELECT url, line, count(*) AS cnt, length(line) AS ln
              FROM l GROUP BY url, line
            ), lagg AS (
              SELECT url, CAST(sum(cnt) AS BIGINT) AS n_lines,
                     CAST(sum(CASE WHEN cnt > 1 THEN cnt ELSE 0 END)
                          AS BIGINT) AS dup_lines,
                     CAST(sum(cnt * ln) AS BIGINT) AS line_chars,
                     CAST(sum(CASE WHEN cnt > 1 THEN cnt * ln ELSE 0 END)
                          AS BIGINT) AS dup_line_chars
              FROM lc GROUP BY url
            ), tk AS (
              SELECT url, unnest(CASE WHEN trim(t) = '' THEN []::VARCHAR[]
                                 ELSE regexp_split_to_array(trim(t), '\\s+')
                                 END) AS tok
              FROM g
            ), tc AS (
              SELECT url, tok, count(*) AS n FROM tk GROUP BY url, tok
            ), top AS (
              SELECT url, tok AS top_token, n AS top_token_n,
                     row_number() OVER (
                       PARTITION BY url ORDER BY n DESC, tok) AS rk
              FROM tc
            )
            SELECT lagg.url, n_lines, dup_lines, line_chars, dup_line_chars,
                   COALESCE(top.top_token, '') AS top_token,
                   CAST(COALESCE(top.top_token_n, 0) AS BIGINT) AS top_token_n
            FROM lagg LEFT JOIN (SELECT * FROM top WHERE rk = 1) top
            USING (url)
        """,
        # Global worst-k style lines vs golden: pure ORDER/LIMIT over the
        # style fixtures with the engine's total tie-break; rank pins the
        # full ordering (no arithmetic — stored confidences compared
        # bit-for-bit, like pages_styles).
        "pages_worst_styles": f"""
            WITH g AS (
              SELECT url, unnest(styles) AS s
              FROM read_parquet('{golden_sf0_01}')
            ), ranked AS (
              SELECT url, s.page AS page, s.line_idx AS line_idx,
                     s.kind AS kind,
                     s.style_confidence AS style_confidence,
                     row_number() OVER (
                       ORDER BY s.style_confidence, url, s.page, s.line_idx
                     ) AS rank
              FROM g
            )
            SELECT url, page, line_idx, kind, style_confidence, rank
            FROM ranked WHERE rank <= 50
        """,
        # Validation summary (G6/G7) vs golden fields: data types are
        # construction knowledge (planted names determine them — 'date'
        # parses as a date; subtotal/tax/total/…price as currency;
        # …qty digits as number), every planted amount/date parses, and
        # total = subtotal + tax holds exactly by construction, so
        # n_passed == n_checks and consistency passes wherever all three
        # amounts are present. Any engine-side parse or fuse failure
        # breaks the hash.
        "pages_validation": f"""
            WITH g AS (
              SELECT url, unnest(fields) AS f
              FROM read_parquet('{golden_sf0_01}')
              WHERE len(fields) > 0
            ), typed AS (
              SELECT url, f.name AS name, f.value AS value,
                     CASE WHEN f.name IN ('date', 'due_date') THEN 'date'
                          WHEN f.name IN ('subtotal', 'tax', 'total')
                               OR f.name LIKE '%price' THEN 'currency'
                          WHEN f.name LIKE '%qty' THEN 'number'
                          ELSE 'string' END AS dt
              FROM g
            )
            SELECT url,
                   count(*) AS n_fields,
                   CAST(sum(CASE WHEN dt = 'currency' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_currency,
                   CAST(sum(CASE WHEN dt = 'date' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_date,
                   CAST(sum(CASE WHEN dt IN ('currency', 'date') THEN 1
                            ELSE 0 END) AS BIGINT) AS n_checks,
                   CAST(sum(CASE WHEN dt IN ('currency', 'date') THEN 1
                            ELSE 0 END) AS BIGINT) AS n_passed,
                   CAST(max(CASE WHEN name = 'total' THEN 1 ELSE 0 END)
                        * max(CASE WHEN name = 'subtotal' THEN 1 ELSE 0 END)
                        * max(CASE WHEN name = 'tax' THEN 1 ELSE 0 END)
                        AS BIGINT) AS consistency_checked,
                   CAST(max(CASE WHEN name = 'total' THEN 1 ELSE 0 END)
                        * max(CASE WHEN name = 'subtotal' THEN 1 ELSE 0 END)
                        * max(CASE WHEN name = 'tax' THEN 1 ELSE 0 END)
                        AS BIGINT) AS consistency_passed,
                   CAST(max(CASE WHEN name = 'date' THEN 1 ELSE 0 END)
                        * max(CASE WHEN name = 'due_date' THEN 1 ELSE 0 END)
                        AS BIGINT) AS date_order_checked,
                   CAST(CASE WHEN max(CASE WHEN name = 'date' THEN 1 ELSE 0 END)
                             * max(CASE WHEN name = 'due_date' THEN 1 ELSE 0 END) = 1
                             AND max(CASE WHEN name = 'due_date' THEN value END)
                                 >= max(CASE WHEN name = 'date' THEN value END)
                        THEN 1 ELSE 0 END AS BIGINT) AS date_order_passed
            FROM typed GROUP BY url
        """,
        # Reconstruction structural counts vs golden: elements = one per
        # golden span, tables/fields = the planted fixtures.
        "pages_reconstruction": f"""
            SELECT url, len(spans) AS n_elements,
                   len(tables) AS n_tables,
                   len(fields) AS n_fields
            FROM read_parquet('{golden_sf0_01}')
            WHERE route IN ('doc', 'image') AND NOT has_error
        """,
        "pages_errors": f"""
            SELECT url, route FROM read_parquet('{golden_sf0_01}')
            WHERE has_error
        """,
        # Markdown sink vs a pure-SQL re-render of the golden fixtures:
        # DuckDB rebuilds the exact render (header comment, #/## span
        # prefixes, blank-line separators, trailing-whitespace rstrip)
        # from golden (url, route, extracted_text, spans) and md5s it —
        # fully independent of the engine's renderer. The corpus has no
        # error rows, so the error branch is exercised only in pytest.
        "pages_markdown": f"""
            SELECT url, md5(
              rtrim(
                '<!-- url: ' || url || ' | route: ' || route || ' -->'
                || chr(10) || chr(10) ||
                array_to_string(
                  list_transform(spans, s ->
                    (CASE WHEN s.kind = 'title' THEN '# '
                          WHEN s.kind = 'heading' THEN '## '
                          ELSE '' END)
                    || substr(extracted_text, CAST(s.start AS BIGINT) + 1,
                              CAST(s."end" - s.start AS BIGINT))
                  ), chr(10) || chr(10)),
                ' ' || chr(9) || chr(10) || chr(13) || chr(11) || chr(12)
              ) || chr(10)
            ) AS markdown_md5
            FROM read_parquet('{golden_sf0_01}')
            WHERE NOT has_error
        """,
        "doc_exact_dedup": """
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS rep_doc_id,
                   count(*) AS n_dups
            FROM documents GROUP BY md5(text)
        """,
        "doc_token_stats": f"""
            SELECT doc_id,
                   {ntok} AS n_tokens,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \\t\\n\\r\\f]')) AS n_bpe_tokens,
                   length(text) AS n_chars_computed
            FROM documents
        """,
        "doc_quality": f"""
            WITH t AS (
              SELECT doc_id, text,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE {tok} END AS toks
              FROM documents
            )
            SELECT doc_id,
                   len(toks)::BIGINT AS n_tokens,
                   CASE WHEN length(text) = 0 THEN 0.0
                        ELSE len(regexp_extract_all(text, '[.!?]'))::DOUBLE / length(text) END AS punct_ratio,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE len(list_filter(toks, x -> x IN {_EN}))::DOUBLE / len(toks) END AS stopword_ratio,
                   CASE WHEN len(toks) = 0 THEN 0.0
                        ELSE length(regexp_replace(text, '\\s', '', 'g'))::DOUBLE / len(toks) END AS mean_word_len
            FROM t
        """,
        "doc_lang_id": f"""
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[] ELSE {tok} END AS toks
              FROM documents
            ), s AS (
              SELECT doc_id, len(toks) AS n,
                     len(list_filter(toks, x -> x IN {_EN}))::DOUBLE AS c_en,
                     len(list_filter(toks, x -> x IN {_DE}))::DOUBLE AS c_de,
                     len(list_filter(toks, x -> x IN {_FR}))::DOUBLE AS c_fr,
                     len(list_filter(toks, x -> x IN {_ES}))::DOUBLE AS c_es
              FROM t
            )
            SELECT doc_id,
                   CASE WHEN n = 0 THEN 'unknown'
                        WHEN greatest(c_en, c_de, c_fr, c_es) / n < 0.03 THEN 'unknown'
                        WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
                        WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
                        WHEN c_es >= c_fr THEN 'es'
                        ELSE 'fr' END AS pred_lang
            FROM s
        """,
        # Confusion matrix = the lang_id oracle's scorer joined back to
        # the label column, grouped.
        "doc_lang_confusion": f"""
            WITH t AS (
              SELECT doc_id, lang,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[] ELSE {tok} END AS toks
              FROM documents
            ), s AS (
              SELECT doc_id, lang, len(toks) AS n,
                     len(list_filter(toks, x -> x IN {_EN}))::DOUBLE AS c_en,
                     len(list_filter(toks, x -> x IN {_DE}))::DOUBLE AS c_de,
                     len(list_filter(toks, x -> x IN {_FR}))::DOUBLE AS c_fr,
                     len(list_filter(toks, x -> x IN {_ES}))::DOUBLE AS c_es
              FROM t
            ), p AS (
              SELECT lang,
                     CASE WHEN n = 0 THEN 'unknown'
                          WHEN greatest(c_en, c_de, c_fr, c_es) / n < 0.03 THEN 'unknown'
                          WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
                          WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
                          WHEN c_es >= c_fr THEN 'es'
                          ELSE 'fr' END AS pred_lang
              FROM s
            )
            SELECT lang, pred_lang, count(*) AS n_docs
            FROM p GROUP BY lang, pred_lang
        """,
        # ann_topk_lsh shares ann_topk's oracle: multi-table multi-probe
        # LSH with (32 tables × 2 planes, Hamming-1 probing) has miss
        # probability ~1e-28 per true neighbor, so its top-k equals the
        # brute-force top-k.
        "ann_topk_lsh": """
            WITH q AS (SELECT embedding FROM embeddings ORDER BY vec_id LIMIT 1)
            SELECT e.vec_id,
                   round(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]), 6) AS score,
                   row_number() OVER (
                     ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]) DESC,
                              e.vec_id
                   ) AS rank
            FROM embeddings e, q
            ORDER BY rank LIMIT 10
        """,
        # ann_topk_ivf is EXACT by construction (upper-bound-pruned
        # cluster scan: a cluster is skipped only when q·c + r_c can't
        # beat the kth-best), so the brute-force oracle applies verbatim.
        "ann_topk_ivf": """
            WITH q AS (SELECT embedding FROM embeddings ORDER BY vec_id LIMIT 1)
            SELECT e.vec_id,
                   round(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]), 6) AS score,
                   row_number() OVER (
                     ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]) DESC,
                              e.vec_id
                   ) AS rank
            FROM embeddings e, q
            ORDER BY rank LIMIT 10
        """,
        # Connected components over the verified near-dup pair graph via
        # a recursive min-label walk — the SQL ground truth for the
        # distributed label-propagation clustering. Jaccard is computed
        # only for candidate pairs: docs sharing a shingle (an inverted
        # index), plus every pair of empty-shingle docs (u = 0 → 1.0).
        # Any other pair has J = 0, so the pair set equals the all-pairs
        # one (tests/test_oracles.py keeps that SQL as the reference). p
        # is MATERIALIZED so the recursive walk does not re-evaluate it.
        "minhash_dup_clusters": r"""
            WITH RECURSIVE t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), s AS (
              SELECT doc_id,
                     CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
                          ELSE list_distinct(list_transform(
                                 range(1, len(toks) - least(5, len(toks)) + 2),
                                 i -> array_to_string(toks[i : i + least(5, len(toks)) - 1], ' ')
                               )) END AS sh
              FROM t
            ), g AS (
              SELECT doc_id, unnest(sh) AS shingle FROM s
            ), c AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM g a JOIN g b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
              UNION
              SELECT a.doc_id, b.doc_id
              FROM s a JOIN s b ON a.doc_id < b.doc_id
              WHERE len(a.sh) = 0 AND len(b.sh) = 0
            ), j AS (
              SELECT c.doc_a, c.doc_b,
                     len(list_intersect(a.sh, b.sh)) AS i,
                     len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS u
              FROM c JOIN s a ON a.doc_id = c.doc_a JOIN s b ON b.doc_id = c.doc_b
            ), p AS MATERIALIZED (
              SELECT doc_a, doc_b FROM j
              WHERE CASE WHEN u = 0 THEN 1.0 ELSE i::DOUBLE / u END >= 0.5
            ), edges AS (
              SELECT doc_a AS u, doc_b AS v FROM p
              UNION ALL SELECT doc_b, doc_a FROM p
            ), walk(u, label) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM edges)
              UNION
              SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
            )
            SELECT u AS doc_id, min(label) AS cluster_id FROM walk GROUP BY u
        """,
        "ann_topk": """
            WITH q AS (SELECT embedding FROM embeddings ORDER BY vec_id LIMIT 1)
            SELECT e.vec_id,
                   round(list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]), 6) AS score,
                   row_number() OVER (
                     ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.embedding::DOUBLE[]) DESC,
                              e.vec_id
                   ) AS rank
            FROM embeddings e, q
            ORDER BY rank LIMIT 10
        """,
        # Funnel = the sessions oracle's CTE + per-session first/last
        # positions of the two step types in the same (ts, event_id)
        # total order.
        "events_funnel": """
            WITH o AS (
              SELECT user_id, event_id, ts, event_type,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS row_ord,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                              PARTITION BY user_id ORDER BY ts, event_id
                          ) > 1800000000 THEN 1 ELSE 0 END AS brk
              FROM events
            ), s AS (
              SELECT *, sum(brk) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING
                     ) AS session_idx
              FROM o
            ), f AS (
              SELECT user_id, session_idx,
                     min(CASE WHEN event_type = 'view' THEN row_ord END) AS a_pos,
                     max(CASE WHEN event_type = 'purchase' THEN row_ord END) AS b_pos
              FROM s GROUP BY user_id, session_idx
            )
            SELECT user_id, count(*) AS n_sessions,
                   CAST(sum(CASE WHEN a_pos IS NOT NULL AND b_pos IS NOT NULL
                                 AND a_pos < b_pos THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_converted
            FROM f GROUP BY user_id
        """,
        "events_hourly_users": """
            SELECT event_type,
                   make_timestamp((epoch_us(ts) // 3600000000) * 3600000000) AS window_start,
                   count(DISTINCT user_id) AS n_users
            FROM events
            GROUP BY event_type, (epoch_us(ts) // 3600000000)
        """,
        # ROLLUP cascade vs the native SQL ROLLUP: per-event e4 fixed
        # point BEFORE summing on both sides, sentinel ('ALL', epoch-0)
        # for rolled-up dimensions instead of NULLs.
        # Two-stream as-of join: most recent strictly-earlier view per
        # purchase, equal-ts ties to the largest view event_id.
        "events_attribution": """
            WITH v AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'view'
            ), p AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'purchase'
            )
            SELECT p.event_id AS purchase_id, p.user_id,
                   p.ts AS purchase_ts,
                   v.event_id AS view_id, v.ts AS view_ts
            FROM p JOIN v ON v.user_id = p.user_id AND v.ts < p.ts
            QUALIFY row_number() OVER (
              PARTITION BY p.event_id
              ORDER BY v.ts DESC, v.event_id DESC) = 1
        """,
        # Exact 1-NN self-join: e6 integer squared-L2, ties to the
        # smaller neighbor id.
        "emb_nn_join": """
            WITH e AS (
              SELECT vec_id,
                     list_transform(embedding::DOUBLE[],
                                    x -> CAST(round(x * 1000000) AS BIGINT)) AS v
              FROM embeddings
            ), d AS (
              SELECT a.vec_id, b.vec_id AS nn_id,
                     CAST(list_sum(list_transform(
                       range(1, len(a.v) + 1),
                       i -> (a.v[i] - b.v[i]) * (a.v[i] - b.v[i]))) AS BIGINT)
                       AS dist
              FROM e a JOIN e b ON a.vec_id <> b.vec_id
            )
            SELECT vec_id, nn_id, dist FROM d
            QUALIFY row_number() OVER (PARTITION BY vec_id
                                       ORDER BY dist, nn_id) = 1
        """,
        # Cohort retention: first-activity day per user, distinct
        # user-days per (cohort, offset). DuckDB epoch_us // k (floor
        # per the verify-skill gotcha: epoch() rounds).
        "events_retention": """
            WITH p AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ), f AS (
              SELECT user_id, min(day) AS cohort FROM p GROUP BY user_id
            )
            SELECT f.cohort AS cohort_day,
                   p.day - f.cohort AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p JOIN f USING (user_id)
            GROUP BY 1, 2
        """,
        # Long→wide pivot: FILTER counts per event type, one row per user.
        "events_pivot": """
            SELECT user_id,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        "events_rollup": """
            WITH e AS (
              SELECT event_type, (epoch_us(ts) // 3600000000) AS wh,
                     CAST(round(value * 10000) AS BIGINT) AS v_e4
              FROM events
            )
            SELECT COALESCE(event_type, 'ALL') AS event_type,
                   COALESCE(make_timestamp(wh * 3600000000),
                            TIMESTAMP '1970-01-01') AS window_start,
                   count(*) AS n_events,
                   CAST(sum(v_e4) AS BIGINT) AS sum_value_e4
            FROM e GROUP BY ROLLUP(event_type, wh)
        """,
        "events_hourly": """
            SELECT event_type,
                   make_timestamp((epoch_us(ts) // 3600000000) * 3600000000) AS window_start,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 10000) AS BIGINT) AS sum_value_e4
            FROM events
            GROUP BY event_type, (epoch_us(ts) // 3600000000)
        """,
        "events_sliding": """
            SELECT event_type,
                   make_timestamp(((epoch_us(ts) // 900000000) - k.k) * 900000000) AS window_start,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 10000) AS BIGINT) AS sum_value_e4
            FROM events CROSS JOIN (SELECT unnest([0,1,2,3]) AS k) k
            GROUP BY event_type, ((epoch_us(ts) // 900000000) - k.k)
        """,
        # Exact type-1 quantiles over the cents histogram: the oracle
        # pins the same "smallest v with CDF >= ceil(q*n)" rule with a
        # running-sum window (quantile_disc interpolation varies across
        # engines, so it is NOT used).
        "events_quantiles": """
            WITH h AS (
              SELECT event_type,
                     CAST(round(value * 100) AS BIGINT) AS value_e2,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ), c AS (
              SELECT event_type, value_e2,
                     sum(n) OVER (PARTITION BY event_type ORDER BY value_e2) AS cdf,
                     sum(n) OVER (PARTITION BY event_type) AS total
              FROM h
            )
            SELECT event_type,
                   CAST(any_value(total) AS BIGINT) AS n_events,
                   CAST(min(CASE WHEN cdf >= CAST(ceil(0.5 * total) AS BIGINT)
                            THEN value_e2 END) AS BIGINT) AS p50_e2,
                   CAST(min(CASE WHEN cdf >= CAST(ceil(0.9 * total) AS BIGINT)
                            THEN value_e2 END) AS BIGINT) AS p90_e2,
                   CAST(min(CASE WHEN cdf >= CAST(ceil(0.99 * total) AS BIGINT)
                            THEN value_e2 END) AS BIGINT) AS p99_e2
            FROM c GROUP BY event_type
        """,
        # Range join vs an inline interval dimension (same [lo,hi) cents
        # bands the engine broadcasts).
        "events_value_bands": """
            WITH bands(band, lo, hi) AS (VALUES
              ('micro', 0, 500), ('small', 500, 2000),
              ('medium', 2000, 5000), ('large', 5000, 1000000000000)
            ), e AS (
              SELECT event_type, CAST(round(value * 100) AS BIGINT) AS e2
              FROM events
            )
            SELECT e.event_type, b.band,
                   CAST(sum(e.e2) AS BIGINT) AS sum_value_e2,
                   count(*) AS n_events
            FROM e JOIN bands b ON e.e2 >= b.lo AND e.e2 < b.hi
            GROUP BY 1, 2
        """,
        # Semi-structured sidecar extraction via DuckDB's JSON reader.
        "events_props_sum": """
            SELECT event_type,
                   CAST(sum(COALESCE(json_extract(props, '$.k')::BIGINT, 0)) AS BIGINT)
                     AS k_sum,
                   count(*) AS n_events
            FROM events GROUP BY event_type
        """,
        "events_distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        # Per-user self as-of (previous event + gap): DuckDB re-derives
        # it with window lag over the same stable (ts, event_id) order.
        "events_lag": """
            SELECT event_id, user_id,
                   COALESCE(lag(event_id) OVER w, -1) AS prev_event_id,
                   COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER w, -1) AS gap_us
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "events_sessions": """
            WITH o AS (
              SELECT user_id, event_id, ts, value,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                              PARTITION BY user_id ORDER BY ts, event_id
                          ) > 1800000000 THEN 1 ELSE 0 END AS brk
              FROM events
            ), s AS (
              SELECT *, sum(brk) OVER (
                         PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING
                     ) AS session_idx
              FROM o
            )
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
                   min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 10000) AS BIGINT) AS sum_value_e4
            FROM s GROUP BY user_id, session_idx
        """,
        "emb_near_dup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   CAST(round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) * 1000000) AS BIGINT) AS sim_e6
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
        """,
        # emb_near_dup_lsh shares emb_near_dup's oracle: banded LSH
        # (32 tables × 2 planes) + exact-cosine verify has per-pair miss
        # ~1e-7 at the 0.4 threshold → identical pair set.
        "emb_near_dup_lsh": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   CAST(round(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) * 1000000) AS BIGINT) AS sim_e6
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
        """,
        "doc_lang_unique": """
            SELECT DISTINCT lang FROM documents
        """,
        # Connected components over the exact embedding near-dup graph.
        "emb_dup_clusters": """
            WITH RECURSIVE p AS (
              SELECT a.vec_id AS va, b.vec_id AS vb
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
            ), edges AS (
              SELECT va AS u, vb AS v FROM p UNION ALL SELECT vb, va FROM p
            ), walk(u, label) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM edges)
              UNION
              SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
            )
            SELECT u AS vec_id, min(label) AS cluster_id FROM walk GROUP BY u
        """,
        # Fingerprint = XOR of md5-low64 over distinct rolling 8-token
        # grams; XOR commutes, so DuckDB's bit_xor reproduces it exactly.
        "doc_fingerprint": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(text), '\s+') END AS toks
              FROM documents
            ), g AS (
              SELECT doc_id,
                     unnest(CASE
                        WHEN len(toks) = 0 THEN []::VARCHAR[]
                        WHEN len(toks) <= 8 THEN [array_to_string(toks, ' ')]
                        ELSE list_distinct(list_transform(
                               range(1, len(toks) - 8 + 2),
                               i -> array_to_string(toks[i : i + 7], ' ')))
                     END) AS gram
              FROM t
            ), x AS (
              SELECT doc_id, bit_xor(md5_number_lower(gram)) AS v FROM g GROUP BY doc_id
            )
            SELECT d.doc_id,
                   lower(lpad(to_hex(CAST(COALESCE(x.v, 0) AS UBIGINT)), 16, '0')) AS fingerprint
            FROM documents d LEFT JOIN x ON d.doc_id = x.doc_id
        """,
        # Inverted index vs a pure-SQL inversion: per-doc DISTINCT terms,
        # df + md5 of the comma-joined ascending doc-id posting list.
        "corpus_postings": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), p AS (
              SELECT DISTINCT doc_id, unnest(toks) AS term FROM t
            )
            SELECT term, count(*) AS df,
                   md5(array_to_string(list_sort(list(doc_id)), ',')) AS postings_md5
            FROM p GROUP BY term HAVING count(*) >= 2
        """,
        # SimHash is SQL-reproducible because the token hash is
        # md5_number_lower (DuckDB-native): per-bit strict-majority vote
        # over token hashes, re-signed into int64 domain.
        # Winnowing fingerprints replayed exactly: same tokenizer, same
        # 3-gram join, same 4-window minima (ROWS frame clips at the
        # doc tail; rows past ord = m-w+1 are excluded so short docs
        # emit exactly ONE whole-doc window), distinct-value dedup,
        # XOR digest in the signed domain (the simhash idiom).
        "doc_winnow": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), tok AS (
              SELECT doc_id, generate_subscripts(toks, 1) AS ord,
                     unnest(toks) AS tk
              FROM t
            ), grams AS (
              SELECT a.doc_id, a.ord,
                     md5_number_lower(a.tk || ' ' || b.tk || ' ' || c.tk) AS h
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
            ), wins AS (
              SELECT doc_id, ord,
                     count(*) OVER (PARTITION BY doc_id) AS m,
                     min(h) OVER (PARTITION BY doc_id ORDER BY ord
                                  ROWS BETWEEN CURRENT ROW
                                  AND 3 FOLLOWING) AS wmin
              FROM grams
            ), fp AS (
              SELECT doc_id, any_value(m) AS m,
                     count(DISTINCT wmin) AS n_fp,
                     bit_xor(DISTINCT wmin) AS x
              FROM wins WHERE ord <= greatest(m - 3, 1)
              GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(fp.m, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(fp.n_fp, 0) AS BIGINT) AS n_fp,
                   CAST(CAST(COALESCE(fp.x, 0) AS HUGEINT)
                        - 9223372036854775808 AS BIGINT) AS fp_xor
            FROM documents d LEFT JOIN fp ON d.doc_id = fp.doc_id
        """,
        # MOSS detection pairs: same winnowing CTEs, then distinct
        # (doc, fp), boilerplate drop (df outside [2, 50]), self-join
        # on fp with doc_a < doc_b, shared count >= 2. fp is mapped to
        # the signed domain to match the engine's exploded column.
        "doc_winnow_pairs": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), tok AS (
              SELECT doc_id, generate_subscripts(toks, 1) AS ord,
                     unnest(toks) AS tk
              FROM t
            ), grams AS (
              SELECT a.doc_id, a.ord,
                     md5_number_lower(a.tk || ' ' || b.tk || ' ' || c.tk) AS h
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
            ), wins AS (
              SELECT doc_id, ord,
                     count(*) OVER (PARTITION BY doc_id) AS m,
                     min(h) OVER (PARTITION BY doc_id ORDER BY ord
                                  ROWS BETWEEN CURRENT ROW
                                  AND 3 FOLLOWING) AS wmin
              FROM grams
            ), seld AS (
              SELECT DISTINCT doc_id,
                     CAST(CAST(wmin AS HUGEINT)
                          - 9223372036854775808 AS BIGINT) AS fp
              FROM wins WHERE ord <= greatest(m - 3, 1)
            ), okfp AS (
              SELECT fp FROM seld GROUP BY fp
              HAVING count(*) BETWEEN 2 AND 50
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM seld a
            JOIN seld b ON b.fp = a.fp AND a.doc_id < b.doc_id
            JOIN okfp ON okfp.fp = a.fp
            GROUP BY a.doc_id, b.doc_id
            HAVING count(*) >= 2
        """,
        # Winnow near-dup clusters: the doc_winnow_pairs CTEs feed the
        # same recursive min-label walk as minhash_dup_clusters, with p
        # MATERIALIZED for the same reason.
        "doc_winnow_clusters": r"""
            WITH RECURSIVE t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), tok AS (
              SELECT doc_id, generate_subscripts(toks, 1) AS ord,
                     unnest(toks) AS tk
              FROM t
            ), grams AS (
              SELECT a.doc_id, a.ord,
                     md5_number_lower(a.tk || ' ' || b.tk || ' ' || c.tk) AS h
              FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.ord = a.ord + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.ord = a.ord + 2
            ), wins AS (
              SELECT doc_id, ord,
                     count(*) OVER (PARTITION BY doc_id) AS m,
                     min(h) OVER (PARTITION BY doc_id ORDER BY ord
                                  ROWS BETWEEN CURRENT ROW
                                  AND 3 FOLLOWING) AS wmin
              FROM grams
            ), seld AS (
              SELECT DISTINCT doc_id, wmin AS fp
              FROM wins WHERE ord <= greatest(m - 3, 1)
            ), okfp AS (
              SELECT fp FROM seld GROUP BY fp
              HAVING count(*) BETWEEN 2 AND 50
            ), p AS MATERIALIZED (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM seld a
              JOIN seld b ON b.fp = a.fp AND a.doc_id < b.doc_id
              JOIN okfp ON okfp.fp = a.fp
              GROUP BY a.doc_id, b.doc_id
              HAVING count(*) >= 2
            ), edges AS (
              SELECT doc_a AS u, doc_b AS v FROM p
              UNION ALL SELECT doc_b, doc_a FROM p
            ), walk(u, label) AS (
              SELECT u, u FROM (SELECT DISTINCT u FROM edges)
              UNION
              SELECT e.u, w.label FROM edges e JOIN walk w ON w.u = e.v
            )
            SELECT u AS doc_id, min(label) AS cluster_id FROM walk GROUP BY u
        """,
        "doc_simhash": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), tok AS (
              SELECT doc_id, len(toks) AS n, unnest(toks) AS tk FROM t WHERE len(toks) > 0
            ), bits AS (
              SELECT doc_id, n, b.b AS b,
                     sum(CAST((md5_number_lower(tk) >> CAST(b.b AS INTEGER)) & 1 AS BIGINT)) AS cnt
              FROM tok CROSS JOIN (SELECT unnest(range(64)) AS b) b
              GROUP BY doc_id, n, b.b
            ), sh AS (
              SELECT doc_id,
                     sum(CASE WHEN cnt * 2 > n THEN CAST(1 AS HUGEINT) << CAST(b AS INTEGER)
                              ELSE CAST(0 AS HUGEINT) END) AS u
              FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(sh.u, 0) - CAST(1 AS HUGEINT) * 9223372036854775808 AS BIGINT) AS simhash
            FROM documents d LEFT JOIN sh ON d.doc_id = sh.doc_id
        """,
        # Exact Hamming-ball pairs: the same per-doc SimHash CTE as
        # doc_simhash, then an all-pairs XOR-popcount — SQL ground truth
        # for the banded pipeline (pigeonhole banding has recall exactly
        # 1 for hamming <= max_hamming, so the sets must be EQUAL).
        "doc_simhash_near_dup": r"""
            WITH t AS (
              SELECT doc_id, CASE WHEN trim(text)='' THEN []::VARCHAR[]
                             ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), tok AS (
              SELECT doc_id, len(toks) AS n, unnest(toks) AS tk FROM t WHERE len(toks) > 0
            ), bits AS (
              SELECT doc_id, n, b.b AS b,
                     sum(CAST((md5_number_lower(tk) >> CAST(b.b AS INTEGER)) & 1 AS BIGINT)) AS cnt
              FROM tok CROSS JOIN (SELECT unnest(range(64)) AS b) b
              GROUP BY doc_id, n, b.b
            ), sh AS (
              SELECT doc_id,
                     sum(CASE WHEN cnt * 2 > n THEN CAST(1 AS HUGEINT) << CAST(b AS INTEGER)
                              ELSE CAST(0 AS HUGEINT) END) AS u
              FROM bits GROUP BY doc_id
            ), s AS (
              SELECT d.doc_id,
                     CAST(COALESCE(sh.u, 0) - CAST(1 AS HUGEINT) * 9223372036854775808 AS BIGINT) AS v
              FROM documents d LEFT JOIN sh ON d.doc_id = sh.doc_id
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(bit_count(xor(a.v, b.v)) AS BIGINT) AS hamming
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.v, b.v)) <= 3
        """,
        # Exact 5-token-shingle Jaccard over all pairs — the SQL ground
        # truth for the MinHash+LSH pipeline (banding recall is
        # effectively 1 at this corpus's near-dup similarity levels, and
        # every surviving pair is verified with exact Jaccard).
        "minhash_near_dup": r"""
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                          ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
              FROM documents
            ), s AS (
              SELECT doc_id,
                     CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
                          ELSE list_distinct(list_transform(
                                 range(1, len(toks) - least(5, len(toks)) + 2),
                                 i -> array_to_string(toks[i : i + least(5, len(toks)) - 1], ' ')
                               )) END AS sh
              FROM t
            ), j AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     len(list_intersect(a.sh, b.sh)) AS i,
                     len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS u
              FROM s a JOIN s b ON a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b,
                   CASE WHEN u = 0 THEN 1000000
                        ELSE CAST(round(i::DOUBLE / u * 1000000) AS BIGINT) END AS jaccard_e6
            FROM j
            WHERE CASE WHEN u = 0 THEN 1.0 ELSE i::DOUBLE / u END >= 0.5
        """,
        "lineitem_filtered_revenue": """
            SELECT CAST(round(sum(l_extendedprice * l_discount) * 100) AS BIGINT) AS revenue_e2,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
              AND l_discount >= 0.05 AND l_discount <= 0.07
              AND l_quantity < 24
        """,
        "lineitem_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_e2,
                   CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_base_price_e2,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT) AS sum_disc_price_e2,
                   CAST(round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) * 100) AS BIGINT) AS sum_charge_e2,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        # Q5-style multi-way join (orders⋈customer, lineitem⋈supplier,
        # fact⋈fact on orderkey, same-nation filter, region rollup).
        "priority_lines": """
            SELECT l_returnflag,
                   CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                       THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
                   CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                       THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY l_returnflag
        """,
        "promo_revenue": """
            SELECT CAST(round(sum(CASE WHEN p.p_type = 'PROMO'
                                       THEN l.l_extendedprice * (1 - l.l_discount)
                                       ELSE 0 END) * 100) AS BIGINT) AS promo_revenue_e2,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100)
                        AS BIGINT) AS total_revenue_e2,
                   count(*) AS n_items
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        """,
        "revenue_by_region": """
            SELECT r.r_name,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100)
                        AS BIGINT) AS revenue_e2,
                   count(*) AS n_items
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE c.c_nationkey = s.s_nationkey
            GROUP BY r.r_name
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(round(sum(o.o_totalprice) * 100) AS BIGINT) AS total_revenue_e2,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "top_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice,
                   row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rank
            FROM orders
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 10
        """,
        "orders_by_mktsegment": """
            SELECT c.c_mktsegment,
                   CAST(round(sum(o.o_totalprice) * 100) AS BIGINT) AS total_revenue_e2,
                   count(*) AS n_orders
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        # Q4 shape: EXISTS semi-join (returned lineitem stands in for the
        # missing commitdate/receiptdate "late" predicate).
        "orders_exists": """
            SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
            FROM orders o
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate <  TIMESTAMP '1997-01-01'
              AND EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_returnflag = 'R')
            GROUP BY o_orderpriority
        """,
        # Q15 shape: per-supplier quarter revenue in exact int64 e4 fixed
        # point (price_e2 × (100 − disc_e2)), argmax via scalar subquery.
        "top_supplier": """
            WITH r AS (
              SELECT l_suppkey,
                     sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       AS total_revenue_e4
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate <  TIMESTAMP '1996-04-01'
              GROUP BY l_suppkey
            )
            SELECT s.s_suppkey, s.s_name,
                   CAST(r.total_revenue_e4 AS BIGINT) AS total_revenue_e4
            FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey
            WHERE r.total_revenue_e4 = (SELECT max(total_revenue_e4) FROM r)
        """,
        # Q17 shape: correlated per-part AVG subquery; the comparison is
        # cleared of the rational average (5·qty_e2·n < sum_e2), int64 exact.
        "part_small_qty": """
            WITH sub AS (
              SELECT l.l_partkey,
                     CAST(round(l.l_quantity * 100) AS BIGINT) AS qty_e2,
                     CAST(round(l.l_extendedprice * 100) AS BIGINT) AS price_e2
              FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
              WHERE p.p_brand = 'Brand#1'
            ), st AS (
              SELECT l_partkey, sum(qty_e2) AS sum_q, count(*) AS n_q
              FROM sub GROUP BY l_partkey
            )
            SELECT CAST(coalesce(sum(CASE WHEN 5 * qty_e2 * n_q < sum_q
                                          THEN price_e2 END), 0) AS BIGINT)
                     AS total_price_e2,
                   CAST(count(CASE WHEN 5 * qty_e2 * n_q < sum_q THEN 1 END)
                        AS BIGINT) AS n_lines
            FROM sub JOIN st USING (l_partkey)
        """,
        # Q18 shape: HAVING-filtered per-order quantity sums joined back.
        "big_orders": """
            WITH s AS (
              SELECT l_orderkey,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS sum_q
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 30000
            )
            SELECT c.c_name, o.o_orderkey, o.o_orderdate,
                   CAST(round(o.o_totalprice * 100) AS BIGINT) AS total_price_e2,
                   CAST(s.sum_q AS BIGINT) AS sum_qty_e2
            FROM s
            JOIN orders o ON o.o_orderkey = s.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
        """,
        # Q22 shape: global positive-balance average (acct_e2·cnt > sum_e2
        # clears the rational) + NOT EXISTS recent order, custkey-mod-8
        # buckets standing in for the phone country code.
        "cust_idle": """
            WITH s AS (
              SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS ss,
                     count(*) AS cc
              FROM customer WHERE c_acctbal > 0
            ), rich AS (
              SELECT c_custkey,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS acct_e2
              FROM customer, s
              WHERE CAST(round(c_acctbal * 100) AS BIGINT) * s.cc > s.ss
            ), idle AS (
              SELECT * FROM rich r
              WHERE NOT EXISTS (SELECT 1 FROM orders o
                                WHERE o.o_custkey = r.c_custkey
                                  AND o.o_orderdate >= TIMESTAMP '2000-01-01')
            )
            SELECT c_custkey % 8 AS cgroup,
                   CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(acct_e2) AS BIGINT) AS total_acct_e2
            FROM idle GROUP BY 1
        """,
        # Outlink harvest vs the planted golden anchors (v14 corpus):
        # the generator records every absolute cross-host anchor it
        # writes into the trailing "related" nav block; the engine must
        # recover exactly those (href + normalized anchor text) from
        # the raw bytes. Host = lowercased netloc sans userinfo/port —
        # the same rule as functions/links.py:host_of.
        "pages_outlinks": f"""
            WITH g AS (
              SELECT url, unnest(outlinks) AS l
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT url,
                   lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS src_host,
                   l.href AS href, l.anchor AS anchor,
                   lower(regexp_extract(l.href, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS dst_host
            FROM g
        """,
        # Link-frequency table: plain group-count over the same golden
        # anchor set (self-links and duplicate pages included).
        "host_linkgraph": f"""
            WITH g AS (
              SELECT url, unnest(outlinks) AS l
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS src_host,
                   lower(regexp_extract(l.href, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS dst_host,
                   CAST(count(*) AS BIGINT) AS n_links
            FROM g GROUP BY 1, 2
        """,
        # Integer-exact PageRank replay: 3 chained CTE iterations of
        #   r' = 150e9 + Σ_in (85·r) // (100·outdeg)
        # over the DISTINCT non-self host edge set — floor division on
        # BIGINTs makes every iteration bit-reproducible, so the hash
        # compare proves the engine's distributed iteration EXACTLY
        # (stages/linkgraph.py pins the same rule).
        "host_pagerank": f"""
            WITH raw AS (
              SELECT lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS s,
                     lower(regexp_extract(l.href, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS d
              FROM (SELECT url, unnest(outlinks) AS l
                    FROM read_parquet('{golden_sf0_01}'))
            ), edges AS (
              SELECT DISTINCT s, d FROM raw WHERE s <> d
            ), outdeg AS (
              SELECT s, CAST(count(*) AS BIGINT) AS deg FROM edges GROUP BY 1
            ), nodes AS (
              SELECT s AS h FROM edges UNION SELECT d FROM edges
            ), it0 AS (
              SELECT h, CAST(1000000000000 AS BIGINT) AS r FROM nodes
            ), it1 AS (
              SELECT n.h,
                     CAST(150000000000 + COALESCE(SUM((85 * r.r) // (100 * o.deg)), 0) AS BIGINT) AS r
              FROM nodes n
              LEFT JOIN edges e ON e.d = n.h
              LEFT JOIN it0 r ON r.h = e.s
              LEFT JOIN outdeg o ON o.s = e.s
              GROUP BY n.h
            ), it2 AS (
              SELECT n.h,
                     CAST(150000000000 + COALESCE(SUM((85 * r.r) // (100 * o.deg)), 0) AS BIGINT) AS r
              FROM nodes n
              LEFT JOIN edges e ON e.d = n.h
              LEFT JOIN it1 r ON r.h = e.s
              LEFT JOIN outdeg o ON o.s = e.s
              GROUP BY n.h
            ), it3 AS (
              SELECT n.h,
                     CAST(150000000000 + COALESCE(SUM((85 * r.r) // (100 * o.deg)), 0) AS BIGINT) AS r
              FROM nodes n
              LEFT JOIN edges e ON e.d = n.h
              LEFT JOIN it2 r ON r.h = e.s
              LEFT JOIN outdeg o ON o.s = e.s
              GROUP BY n.h
            )
            SELECT h AS host, r AS rank_e12 FROM it3
        """,
        # Top-3 anchor terms per destination host: whitespace tokens of
        # the golden anchors, ranked by (n desc, term asc) — a total
        # order, so row_number is deterministic on both sides.
        "host_anchor_terms": f"""
            WITH g AS (
              SELECT unnest(outlinks) AS l
              FROM read_parquet('{golden_sf0_01}')
            ), tok AS (
              SELECT lower(regexp_extract(l.href, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS dst_host,
                     unnest(regexp_split_to_array(trim(lower(l.anchor)), '\\s+')) AS term
              FROM g
              WHERE trim(l.anchor) <> ''
            ), cnt AS (
              SELECT dst_host, term, CAST(count(*) AS BIGINT) AS n
              FROM tok GROUP BY 1, 2
            )
            SELECT dst_host, term, n,
                   CAST(row_number() OVER (PARTITION BY dst_host
                                           ORDER BY n DESC, term) AS BIGINT) AS rk
            FROM cnt
            QUALIFY rk <= 3
        """,
        # DSIR importance scores: the SQL replays the exact integer
        # pipeline — md5-low64 unigram buckets (B=4096), add-one
        # smoothed target/raw bucket ratio at e6 (floor division), and
        # the per-doc Σ w[bucket] with multiplicity. Empty docs score 0.
        "doc_dsir": """
            WITH tok AS (
              SELECT doc_id, lang,
                     unnest(regexp_split_to_array(trim(lower(text)), '\\s+')) AS term
              FROM documents WHERE trim(text) <> ''
            ), b AS (
              SELECT doc_id, lang,
                     CAST(md5_number_lower(term) % 4096 AS BIGINT) AS bkt
              FROM tok
            ), nr AS (
              SELECT bkt, count(*) AS n_raw FROM b GROUP BY 1
            ), nt AS (
              SELECT bkt, count(*) AS n_t FROM b WHERE lang = 'en' GROUP BY 1
            ), w AS (
              SELECT nr.bkt,
                     (COALESCE(nt.n_t, 0) + 1) * 1000000 // (nr.n_raw + 1) AS w
              FROM nr LEFT JOIN nt USING (bkt)
            ), s AS (
              SELECT b.doc_id, SUM(w.w) AS sc FROM b JOIN w USING (bkt) GROUP BY 1
            )
            SELECT d.doc_id, CAST(COALESCE(s.sc, 0) AS BIGINT) AS dsir_score_e6
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        # Q21 shape in its CLASSIC correlated form (EXISTS another
        # supplier; NOT EXISTS another problem supplier) — the engine's
        # aggregation decorrelation must reproduce it. One deliberate
        # deviation from TPC-H: numwait counts DISTINCT orders (not
        # problem lineitems), pinned on both sides.
        "waiting_supplier": """
            SELECT s.s_name AS s_name,
                   CAST(count(DISTINCT l1.l_orderkey) AS BIGINT) AS numwait
            FROM supplier s, lineitem l1, orders o
            WHERE s.s_suppkey = l1.l_suppkey
              AND o.o_orderkey = l1.l_orderkey
              AND o.o_orderstatus = 'F'
              AND l1.l_returnflag = 'R'
              AND EXISTS (SELECT 1 FROM lineitem l2
                          WHERE l2.l_orderkey = l1.l_orderkey
                            AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (SELECT 1 FROM lineitem l3
                              WHERE l3.l_orderkey = l1.l_orderkey
                                AND l3.l_suppkey <> l1.l_suppkey
                                AND l3.l_returnflag = 'R')
            GROUP BY s.s_name
            ORDER BY numwait DESC, s_name
            LIMIT 10
        """,
        # Q10 shape: returned-item revenue per customer over one
        # quarter, exact e4 integer revenue, top-20 by a total order.
        "returned_top_customers": """
            SELECT c.c_custkey AS c_custkey, c.c_name AS c_name,
                   n.n_name AS n_name,
                   CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM customer c, orders o, lineitem l, nation n
            WHERE c.c_custkey = o.o_custkey
              AND l.l_orderkey = o.o_orderkey
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1996-04-01'
              AND l.l_returnflag = 'R'
              AND c.c_nationkey = n.n_nationkey
            GROUP BY 1, 2, 3
            ORDER BY revenue_e4 DESC, c_custkey
            LIMIT 20
        """,
        # Running per-user totals: the SQL window replay of the
        # segmented-cumsum bucket kernel (stable (ts, event_id) order,
        # e2 integer values).
        "events_cumsum": """
            SELECT event_id, user_id,
                   CAST(row_number() OVER w AS BIGINT) AS seq,
                   CAST(SUM(CAST(round(value * 100) AS BIGINT))
                        OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_e2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # Exact global rank by (n_tokens desc, doc_id) — the engine
        # computes it sort-free (histogram offsets + tie groupby); the
        # oracle is the plain window row_number over the total order.
        "doc_global_rank": f"""
            WITH t AS (
              SELECT doc_id, {ntok} AS n_tokens FROM documents
            )
            SELECT doc_id, n_tokens,
                   CAST(row_number() OVER (ORDER BY n_tokens DESC, doc_id)
                        AS BIGINT) AS rank
            FROM t
        """,
        # Integer TF-IDF retrieval: query = corpus top-3-DF terms
        # (df desc, term asc), idf_e6 = (N*1e6)//df floor division,
        # score = Σ tf·idf_e6, top-20 by (score desc, doc_id).
        "corpus_tfidf_topk": f"""
            WITH tok AS (
              SELECT doc_id, unnest({tok}) AS term
              FROM documents WHERE trim(text) <> ''
            ), df AS (
              SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
              FROM tok GROUP BY 1
            ), q AS (
              SELECT term, df FROM df
              ORDER BY df DESC, term LIMIT 3
            ), n AS (
              SELECT count(*) AS n_docs FROM documents
            ), tf AS (
              SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
              FROM tok GROUP BY 1, 2
            ), sc AS (
              SELECT tf.doc_id,
                     SUM(tf.tf * ((n.n_docs * 1000000) // q.df)) AS score_e6
              FROM tf JOIN q USING (term), n
              GROUP BY 1
            ), lens AS (
              SELECT doc_id, {ntok} AS n_tokens FROM documents
            )
            SELECT sc.doc_id, CAST(sc.score_e6 AS BIGINT) AS score_e6,
                   lens.n_tokens
            FROM sc JOIN lens USING (doc_id)
            WHERE sc.score_e6 > 0
            ORDER BY sc.score_e6 DESC, sc.doc_id
            LIMIT 20
        """,
        # Dense calendar spine: generate_series over the global hour
        # range × distinct types, zero-filled counts; integer floor-div
        # windows on both sides.
        "events_gapfill": """
            WITH b AS (
              SELECT min(epoch_us(ts) // 3600000000) AS lo,
                     max(epoch_us(ts) // 3600000000) AS hi
              FROM events
            ), types AS (
              SELECT DISTINCT event_type FROM events
            ), spine AS (
              SELECT t.event_type,
                     CAST(3600000000 * u.h AS BIGINT) AS window_start_us
              FROM types t, b, unnest(range(b.lo, b.hi + 1)) AS u(h)
            ), cnt AS (
              SELECT event_type,
                     CAST(3600000000 * (epoch_us(ts) // 3600000000) AS BIGINT) AS w,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            )
            SELECT s.event_type, s.window_start_us,
                   CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
            FROM spine s LEFT JOIN cnt c
              ON c.event_type = s.event_type AND c.w = s.window_start_us
        """,
        # 4-sweep synchronous min-label propagation over the undirected
        # distinct host graph — the SQL replays each sweep as a CTE
        # (label = least(own, min over neighbors), Jacobi update).
        "host_components": f"""
            WITH raw AS (
              SELECT lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS s,
                     lower(regexp_extract(l.href, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS d
              FROM (SELECT url, unnest(outlinks) AS l
                    FROM read_parquet('{golden_sf0_01}'))
            ), edges AS (
              SELECT DISTINCT s, d FROM raw WHERE s <> d
            ), adj AS (
              SELECT s AS u, d AS v FROM edges
              UNION SELECT d AS u, s AS v FROM edges
            ), nodes AS (
              SELECT s AS h FROM edges UNION SELECT d FROM edges
            ), it0 AS (
              SELECT h, h AS l FROM nodes
            ), it1 AS (
              SELECT n.h, least(r.l, COALESCE(MIN(r2.l), r.l)) AS l
              FROM nodes n JOIN it0 r ON r.h = n.h
              LEFT JOIN adj a ON a.u = n.h
              LEFT JOIN it0 r2 ON r2.h = a.v
              GROUP BY n.h, r.l
            ), it2 AS (
              SELECT n.h, least(r.l, COALESCE(MIN(r2.l), r.l)) AS l
              FROM nodes n JOIN it1 r ON r.h = n.h
              LEFT JOIN adj a ON a.u = n.h
              LEFT JOIN it1 r2 ON r2.h = a.v
              GROUP BY n.h, r.l
            ), it3 AS (
              SELECT n.h, least(r.l, COALESCE(MIN(r2.l), r.l)) AS l
              FROM nodes n JOIN it2 r ON r.h = n.h
              LEFT JOIN adj a ON a.u = n.h
              LEFT JOIN it2 r2 ON r2.h = a.v
              GROUP BY n.h, r.l
            ), it4 AS (
              SELECT n.h, least(r.l, COALESCE(MIN(r2.l), r.l)) AS l
              FROM nodes n JOIN it3 r ON r.h = n.h
              LEFT JOIN adj a ON a.u = n.h
              LEFT JOIN it3 r2 ON r2.h = a.v
              GROUP BY n.h, r.l
            )
            SELECT h AS host, l AS comp_label FROM it4
        """,
        # SemDeDup: the emb_kmeans oracle's assignment CTEs + a
        # correlated same-cluster smaller-id cosine probe (θ = 0.4,
        # keep-the-smallest-id rule).
        "emb_semdedup": """
            WITH e AS (
              SELECT vec_id,
                     list_transform(embedding::DOUBLE[],
                                    x -> CAST(round(x * 1000000) AS BIGINT)) AS v
              FROM embeddings
            ), seeds AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS sid, v
              FROM e ORDER BY vec_id LIMIT 8
            ), a1 AS (
              SELECT e.vec_id, s.sid,
                     CAST(list_sum(list_transform(
                       range(1, len(e.v) + 1),
                       i -> (e.v[i] - s.v[i]) * (e.v[i] - s.v[i]))) AS BIGINT) AS d2
              FROM e CROSS JOIN seeds s
            ), asg1 AS (
              SELECT vec_id, sid FROM a1
              QUALIFY row_number() OVER (PARTITION BY vec_id
                                         ORDER BY d2, sid) = 1
            ), el AS (
              SELECT a.sid, generate_subscripts(e.v, 1) AS i,
                     unnest(e.v) AS x
              FROM asg1 a JOIN e USING (vec_id)
            ), sums AS (
              SELECT sid, i,
                     CAST(floor(sum(x)::DOUBLE / count(*)) AS BIGINT) AS c
              FROM el GROUP BY sid, i
            ), cents AS (
              SELECT s.sid, coalesce(u.v2, s.v) AS v
              FROM seeds s LEFT JOIN (
                SELECT sid, list(c ORDER BY i) AS v2 FROM sums GROUP BY sid
              ) u USING (sid)
            ), a2 AS (
              SELECT e.vec_id, c.sid,
                     CAST(list_sum(list_transform(
                       range(1, len(e.v) + 1),
                       i -> (e.v[i] - c.v[i]) * (e.v[i] - c.v[i]))) AS BIGINT) AS d2
              FROM e CROSS JOIN cents c
            ), asg2 AS (
              SELECT vec_id, sid AS cluster FROM a2
              QUALIFY row_number() OVER (PARTITION BY vec_id
                                         ORDER BY d2, sid) = 1
            )
            SELECT a.vec_id, a.cluster,
                   EXISTS (
                     SELECT 1 FROM asg2 b
                     JOIN embeddings eb ON eb.vec_id = b.vec_id
                     WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
                       AND list_cosine_similarity(
                             ea.embedding::DOUBLE[],
                             eb.embedding::DOUBLE[]) >= 0.4
                   ) AS is_dup
            FROM asg2 a JOIN embeddings ea ON ea.vec_id = a.vec_id
        """,
        # Equal-share rebalance: quota = minority-language count; the
        # per-stratum selection replays the md5 hash order.
        "doc_mix_rebalance": """
            WITH q AS (
              SELECT min(n) AS quota FROM (
                SELECT count(*) AS n FROM documents GROUP BY lang)
            ), h AS (
              SELECT lang, doc_id,
                     md5_number_lower(CAST(doc_id AS VARCHAR)) AS sample_hash
              FROM documents
            ), r AS (
              SELECT *, row_number() OVER (
                       PARTITION BY lang ORDER BY sample_hash, doc_id
                     ) AS sample_rank
              FROM h
            )
            SELECT lang, doc_id, sample_hash,
                   CAST(sample_rank AS BIGINT) AS sample_rank
            FROM r, q WHERE sample_rank <= q.quota
        """,
        # Temperature mixing: ONE IEEE sqrt per stratum (correctly
        # rounded on both engines), then pure integer largest-remainder
        # allocation — base = B·w6 // Σw6, leftovers by (remainder
        # DESC, lang ASC), capped at the stratum count; members are the
        # quota smallest (md5, doc_id) per language.
        "doc_mix_temperature": """
            WITH n AS (
              SELECT lang, count(*) AS n FROM documents GROUP BY 1
            ), w AS (
              SELECT lang, n,
                     CAST(round(sqrt(n) * 1000000.0) AS BIGINT) AS w6
              FROM n
            ), t AS (
              SELECT sum(n) AS tn, sum(w6) AS tw FROM w
            ), a AS (
              SELECT lang, n, w6,
                     (t.tn * 200) // 1000 AS b,
                     ((t.tn * 200) // 1000) * w6 // t.tw AS base,
                     (((t.tn * 200) // 1000) * w6) % t.tw AS rem
              FROM w, t
            ), r AS (
              SELECT *,
                     row_number() OVER (ORDER BY rem DESC, lang) AS rr,
                     sum(base) OVER () AS sb
              FROM a
            ), q AS (
              SELECT lang,
                     CAST(least(base + CASE WHEN rr <= b - sb THEN 1
                                       ELSE 0 END, n) AS BIGINT)
                       AS quota
              FROM r
            ), sel AS (
              SELECT d.lang, d.doc_id,
                     row_number() OVER (
                       PARTITION BY d.lang
                       ORDER BY md5_number_lower(
                                  CAST(d.doc_id AS VARCHAR)), d.doc_id
                     ) AS rk
              FROM documents d
            )
            SELECT sel.lang, sel.doc_id,
                   CAST(rk AS BIGINT) AS sample_rank, q.quota
            FROM sel JOIN q USING (lang)
            WHERE rk <= q.quota
        """,
        # Checkpoint-manifest lineage replay: expected per-fragment
        # (rows, checksum) recomputed from the corpus golden fixtures
        # alone — md5-low64 fragment map, XOR-of-md5-halves checksum
        # (order-insensitive), run_idx from the pinned interruption
        # point (fragments 0-1 commit in run 1, 2-3 in the resume).
        "pages_checkpoint_manifest": f"""
            WITH g AS (
              SELECT CAST(md5_number_lower(url) % 4 AS BIGINT)
                       AS partition_id,
                     url, extracted_text
              FROM read_parquet('{golden_sf0_01}')
            )
            SELECT partition_id,
                   count(*) AS rows,
                   lower(lpad(hex(bit_xor(md5_number_upper(
                            url || chr(31) || extracted_text))), 16, '0'))
                   || lower(lpad(hex(bit_xor(md5_number_lower(
                            url || chr(31) || extracted_text))), 16, '0'))
                     AS checksum,
                   CAST(CASE WHEN partition_id <= 1 THEN 1 ELSE 2 END
                        AS BIGINT) AS run_idx
            FROM g
            GROUP BY partition_id
            ORDER BY partition_id
        """,
        # Temperature-mix export: doc_mix_temperature's selection with
        # the token-count payload joined per selected doc — the SQL
        # replays the identical quota CTEs then carries n_tokens.
        "doc_mix_export": r"""
            WITH n AS (
              SELECT lang, count(*) AS n FROM documents GROUP BY 1
            ), w AS (
              SELECT lang, n,
                     CAST(round(sqrt(n) * 1000000.0) AS BIGINT) AS w6
              FROM n
            ), t AS (
              SELECT sum(n) AS tn, sum(w6) AS tw FROM w
            ), a AS (
              SELECT lang, n, w6,
                     (t.tn * 200) // 1000 AS b,
                     ((t.tn * 200) // 1000) * w6 // t.tw AS base,
                     (((t.tn * 200) // 1000) * w6) % t.tw AS rem
              FROM w, t
            ), r AS (
              SELECT *,
                     row_number() OVER (ORDER BY rem DESC, lang) AS rr,
                     sum(base) OVER () AS sb
              FROM a
            ), q AS (
              SELECT lang,
                     CAST(least(base + CASE WHEN rr <= b - sb THEN 1
                                       ELSE 0 END, n) AS BIGINT)
                       AS quota
              FROM r
            ), sel AS (
              SELECT d.lang, d.doc_id,
                     CAST(CASE WHEN trim(d.text) = '' THEN 0
                          ELSE len(regexp_split_to_array(trim(d.text),
                                                         '\s+'))
                          END AS BIGINT) AS n_tokens,
                     row_number() OVER (
                       PARTITION BY d.lang
                       ORDER BY md5_number_lower(
                                  CAST(d.doc_id AS VARCHAR)), d.doc_id
                     ) AS rk
              FROM documents d
            )
            SELECT sel.lang, sel.doc_id, sel.n_tokens,
                   CAST(rk AS BIGINT) AS sample_rank, q.quota
            FROM sel JOIN q USING (lang)
            WHERE rk <= q.quota
        """,
        # Leakage-safe split: the split key is the content group's
        # min-doc_id representative; identical texts always co-split.
        # Count-Min sketch replay: rebuild the SAME 4×1024 counter cells
        # (md5-low64 of key:row mod width) in SQL and take the per-probe
        # min — bit-identical registers, exact estimate compare.
        "events_cms_counts": """
            WITH depth AS (
              SELECT unnest([0, 1, 2, 3]) AS r
            ), cells AS (
              SELECT d.r,
                     md5_number_lower(CAST(e.user_id AS VARCHAR) || ':'
                                      || CAST(d.r AS VARCHAR)) % 1024 AS cell,
                     count(*) AS v
              FROM events e CROSS JOIN depth d
              GROUP BY 1, 2
            ), probes AS (
              SELECT DISTINCT user_id FROM events ORDER BY user_id LIMIT 20
            ), pcells AS (
              SELECT p.user_id, d.r,
                     md5_number_lower(CAST(p.user_id AS VARCHAR) || ':'
                                      || CAST(d.r AS VARCHAR)) % 1024 AS cell
              FROM probes p CROSS JOIN depth d
            )
            SELECT pc.user_id,
                   CAST(min(coalesce(c.v, 0)) AS BIGINT) AS est_count
            FROM pcells pc
            LEFT JOIN cells c ON pc.r = c.r AND pc.cell = c.cell
            GROUP BY pc.user_id
        """,
        # Seeded-shuffle export replay: salted md5 order key, shard =
        # key mod 16, dense in-shard positions by (key, doc_id) — the
        # window row_number reproduces the engine's per-shard sort.
        "doc_shuffle_shards": """
            WITH h AS (
              SELECT doc_id,
                     md5_number_lower(CAST(doc_id AS VARCHAR) || ':shuf') AS hv
              FROM documents
            )
            SELECT doc_id,
                   CAST(hv % 16 AS BIGINT) AS shard,
                   CAST(row_number() OVER (
                          PARTITION BY hv % 16 ORDER BY hv, doc_id) - 1
                        AS BIGINT) AS pos
            FROM h
        """,
        "doc_safe_split": """
            WITH g AS (
              SELECT doc_id, md5(COALESCE(text, '')) AS content_md5
              FROM documents
            ), rep AS (
              SELECT doc_id, content_md5,
                     min(doc_id) OVER (PARTITION BY content_md5) AS group_rep
              FROM g
            )
            SELECT doc_id, content_md5, group_rep,
                   CASE WHEN md5_number_lower(CAST(group_rep AS VARCHAR))
                             % 1000 < 100
                        THEN 'eval' ELSE 'train' END AS split
            FROM rep
        """,
        # Skewed enrichment join: per-host page count attached to every
        # page — the window COUNT() replay of the broadcast/salted join.
        "pages_host_join": f"""
            SELECT url,
                   lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1)) AS host,
                   CAST(count(*) OVER (
                     PARTITION BY lower(regexp_extract(url, '^https?://(?:[^@/]*@)?([^/:?#]+)', 1))
                   ) AS BIGINT) AS host_n_pages
            FROM read_parquet('{golden_sf0_01}')
        """,
        # Conjunctive retrieval: docs containing ALL of the top-3-DF
        # terms (same self-derived query as corpus_tfidf_topk).
        "corpus_and_search": f"""
            WITH tok AS (
              SELECT doc_id, unnest({tok}) AS term
              FROM documents WHERE trim(text) <> ''
            ), df AS (
              SELECT term, count(DISTINCT doc_id) AS df
              FROM tok GROUP BY 1
            ), q AS (
              SELECT term FROM df ORDER BY df DESC, term LIMIT 3
            ), hits AS (
              SELECT t.doc_id
              FROM (SELECT DISTINCT doc_id, term FROM tok) t
              JOIN q USING (term)
              GROUP BY t.doc_id HAVING count(*) = 3
            ), lens AS (
              SELECT doc_id, {ntok} AS n_tokens FROM documents
            )
            SELECT h.doc_id, lens.n_tokens
            FROM hits h JOIN lens USING (doc_id)
        """,
        # Full-outer shape: the engine's union-tagged aggregate must
        # reproduce the literal FULL OUTER JOIN of the two year counts.
        "cust_year_orders": """
            WITH a AS (
              SELECT o_custkey, CAST(count(*) AS BIGINT) AS n
              FROM orders
              WHERE o_orderdate >= TIMESTAMP '1996-01-01'
                AND o_orderdate < TIMESTAMP '1997-01-01'
              GROUP BY 1
            ), b AS (
              SELECT o_custkey, CAST(count(*) AS BIGINT) AS n
              FROM orders
              WHERE o_orderdate >= TIMESTAMP '1997-01-01'
                AND o_orderdate < TIMESTAMP '1998-01-01'
              GROUP BY 1
            )
            SELECT COALESCE(a.o_custkey, b.o_custkey) AS c_custkey,
                   CAST(COALESCE(a.n, 0) AS BIGINT) AS n_y1,
                   CAST(COALESCE(b.n, 0) AS BIGINT) AS n_y2
            FROM a FULL OUTER JOIN b ON a.o_custkey = b.o_custkey
        """,
        # Q20: nested semi-join chain with the integer-cleared
        # concentration subquery.
        "concentrated_suppliers": """
            WITH q AS (
              SELECT p_partkey FROM part WHERE p_name LIKE '%bolt%'
            ), ps AS (
              SELECT l.l_partkey, l.l_suppkey,
                     CAST(SUM(CAST(round(l.l_quantity * 100) AS BIGINT))
                          AS BIGINT) AS q
              FROM lineitem l JOIN q ON q.p_partkey = l.l_partkey
              GROUP BY 1, 2
            ), tot AS (
              SELECT l_partkey, CAST(SUM(q) AS BIGINT) AS t
              FROM ps GROUP BY 1
            ), win AS (
              SELECT DISTINCT ps.l_suppkey
              FROM ps JOIN tot USING (l_partkey)
              WHERE ps.q * 10 > tot.t * 1
            )
            SELECT CAST(w.l_suppkey AS BIGINT) AS s_suppkey, s.s_name
            FROM win w JOIN supplier s ON s.s_suppkey = w.l_suppkey
        """,
        # Q7: both-direction nation pair volume per year.
        "nation_volume": """
            SELECT CAST(s.s_nationkey AS BIGINT) AS supp_nation,
                   CAST(c.c_nationkey AS BIGINT) AS cust_nation,
                   CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS rev_e4
            FROM lineitem l
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE (s.s_nationkey = 3 AND c.c_nationkey = 8)
               OR (s.s_nationkey = 8 AND c.c_nationkey = 3)
            GROUP BY 1, 2, 3
        """,
        # Q9: part-name LIKE filter, rollup by supplier nation × year.
        "nation_profit": """
            SELECT n.n_name, CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS rev_e4
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE p.p_name LIKE '%bolt%'
            GROUP BY 1, 2
        """,
        # Q2: argmin-per-group join-back, ALL ties kept.
        "min_cost_supplier": """
            WITH q AS (
              SELECT p_partkey FROM part
              WHERE p_type = 'ECONOMY' AND p_size < 15
            ), c AS (
              SELECT l.l_partkey,
                     min(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS mc
              FROM lineitem l JOIN q ON q.p_partkey = l.l_partkey
              GROUP BY 1
            )
            SELECT DISTINCT l.l_partkey, CAST(l.l_suppkey AS BIGINT) AS s_suppkey,
                   s.s_name, c.mc AS cost_e2
            FROM lineitem l
            JOIN c ON c.l_partkey = l.l_partkey
              AND CAST(round(l.l_extendedprice * 100) AS BIGINT) = c.mc
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
        """,
        # Q8: per-year brand market share as the exact rational pair.
        "market_share": """
            SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(CASE WHEN p.p_brand = 'Brand#1'
                            THEN CAST(round(l.l_extendedprice * 100) AS BIGINT)
                                 * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                            ELSE 0 END) AS BIGINT) AS num_e4,
                   CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS den_e4
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            GROUP BY 1
        """,
        # Q19: the literal disjunctive join predicate.
        "disjunctive_revenue": """
            SELECT CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE (p.p_brand = 'Brand#1' AND p.p_size BETWEEN 1 AND 10
                   AND CAST(round(l.l_quantity * 100) AS BIGINT) BETWEEN 100 AND 1500)
               OR (p.p_brand = 'Brand#2' AND p.p_size BETWEEN 5 AND 25
                   AND CAST(round(l.l_quantity * 100) AS BIGINT) BETWEEN 1000 AND 3000)
               OR (p.p_brand = 'Brand#3' AND p.p_size BETWEEN 20 AND 50
                   AND CAST(round(l.l_quantity * 100) AS BIGINT) BETWEEN 2000 AND 4000)
        """,
        # Q16: grouped distinct supplier count, one brand excluded.
        "supplier_cnt": """
            SELECT p.p_brand, p.p_type,
                   CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE p.p_brand <> 'Brand#5'
            GROUP BY 1, 2
        """,
        # Q11: group value vs a global-scalar fraction, integer-cleared.
        "important_parts": """
            WITH v AS (
              SELECT l_partkey,
                     CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
                          AS BIGINT) AS value_e2
              FROM lineitem GROUP BY 1
            ), s AS (
              SELECT CAST(SUM(value_e2) AS BIGINT) AS total FROM v
            )
            SELECT v.l_partkey, v.value_e2
            FROM v, s WHERE v.value_e2 * 1500 > s.total
        """,
        # Anomaly flags: window functions replay the trailing-24
        # integer baseline over the SAME dense spine.
        "events_anomaly": """
            WITH b AS (
              SELECT min(epoch_us(ts) // 3600000000) AS lo,
                     max(epoch_us(ts) // 3600000000) AS hi
              FROM events
            ), types AS (
              SELECT DISTINCT event_type FROM events
            ), spine AS (
              SELECT t.event_type,
                     CAST(3600000000 * u.h AS BIGINT) AS window_start_us
              FROM types t, b, unnest(range(b.lo, b.hi + 1)) AS u(h)
            ), cnt AS (
              SELECT event_type,
                     CAST(3600000000 * (epoch_us(ts) // 3600000000) AS BIGINT) AS w,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            ), dense AS (
              SELECT s.event_type, s.window_start_us,
                     CAST(COALESCE(c.n, 0) AS BIGINT) AS n_events
              FROM spine s LEFT JOIN cnt c
                ON c.event_type = s.event_type AND c.w = s.window_start_us
            ), w AS (
              SELECT event_type, window_start_us, n_events,
                     CAST(COALESCE(SUM(n_events) OVER tw, 0) AS BIGINT) AS ts,
                     CAST(COALESCE(SUM(n_events * n_events) OVER tw, 0) AS BIGINT) AS tss,
                     COUNT(*) OVER tw AS m
              FROM dense
              WINDOW tw AS (PARTITION BY event_type ORDER BY window_start_us
                            ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING)
            )
            SELECT event_type, window_start_us, n_events,
                   CAST(24 * n_events - ts AS BIGINT) AS dev24,
                   CAST(24 * tss - ts * ts AS BIGINT) AS var_num,
                   (24 * n_events - ts) * (24 * n_events - ts)
                     > 9 * (24 * tss - ts * ts) AS is_anomaly
            FROM w WHERE m = 24
        """,
        # Distribution drift: per-language TV-distance numerator over
        # md5-hashed unigram buckets (B=4096), cleared of denominators
        # so every term is exact int64 on both sides.
        "doc_lang_drift": """
            WITH tok AS (
              SELECT lang,
                     unnest(regexp_split_to_array(trim(lower(text)), '\\s+')) AS term
              FROM documents WHERE trim(text) <> ''
            ), b AS (
              SELECT lang, CAST(md5_number_lower(term) % 4096 AS BIGINT) AS bkt
              FROM tok
            ), cl AS (
              SELECT lang, bkt, count(*) AS c FROM b GROUP BY 1, 2
            ), ct AS (
              SELECT bkt, count(*) AS c FROM b GROUP BY 1
            ), nl AS (
              SELECT lang, count(*) AS n FROM b GROUP BY 1
            ), nt AS (
              SELECT count(*) AS n FROM b
            ), grid AS (
              SELECT nl.lang, ct.bkt, ct.c AS c_tot, nl.n AS n_lang
              FROM nl CROSS JOIN ct
            ), j AS (
              SELECT g.lang, g.bkt, COALESCE(cl.c, 0) AS c_lang,
                     g.c_tot, g.n_lang
              FROM grid g LEFT JOIN cl ON cl.lang = g.lang AND cl.bkt = g.bkt
            )
            SELECT j.lang, CAST(max(j.n_lang) AS BIGINT) AS n_tokens,
                   CAST(SUM(abs(j.c_lang * nt.n - j.c_tot * j.n_lang))
                        AS BIGINT) AS tv_num
            FROM j, nt GROUP BY 1
        """,
        # Grouped moments: exact integer sufficient statistics.
        "doc_lang_moments": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_len,
                   CAST(sum(n_chars * n_chars) AS BIGINT) AS sumsq_len
            FROM documents GROUP BY 1
        """,
    }
