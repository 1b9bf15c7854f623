"""Dataset executions per driver query, pinned.

Each query in ``__ray_entry__.queries()`` runs on the sf0.001 tables
while ``tools/driver_mimic.py:ExecCounter`` counts its
``StreamingExecutor.execute`` calls, the final ``to_pandas`` included,
as the driver mimic reports them. A count above its pin means some stage
now runs twice; a count below it should lower the pin."""

from __future__ import annotations

from pathlib import Path

import pytest

from test_subqueries import SF  # the sf0.001 tables

ROOT = Path(__file__).resolve().parents[1]

#: Query → Dataset executions at sf0.001, the final ``to_pandas`` included.
EXECUTIONS = {
    "host_pagerank": 2,
    "host_components": 2,
    "minhash_dup_clusters": 4,
    "minhash_near_dup": 3,
    "doc_simhash_near_dup": 2,
    "doc_winnow_pairs": 2,
    "doc_winnow_clusters": 3,
    "doc_jaccard_near_dup": 3,
    "doc_incremental_dedup": 2,
    "emb_dup_clusters": 3,
    "top_supplier": 3,
    "cust_idle": 3,
    "ann_topk": 2,
    "ann_topk_batch": 2,
    "ann_topk_ivf": 6,
    "returned_top_customers": 4,
    "corpus_tfidf_topk": 2,
    "top_orders": 1,
    "events_anomaly": 2,
    "events_approx_users": 2,
    "events_asof_join": 1,
    "events_asof_join_fwd": 1,
    "events_attribution": 1,
    "events_cms_counts": 2,
    "events_cumsum": 1,
    "events_distinct_users": 1,
    "events_funnel": 1,
    "events_gapfill": 2,
    "events_hourly": 1,
    "events_hourly_users": 1,
    "events_lag": 1,
    "events_pivot": 2,
    "events_props_sum": 1,
    "events_quantiles": 1,
    "events_retention": 1,
    "events_rollup": 3,
    "events_sessions": 1,
    "events_sliding": 1,
    "events_value_bands": 1,
    "events_window_join": 1,
}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
def test_query_executions(ray_session, monkeypatch, name):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    monkeypatch.syspath_prepend(str(ROOT))
    # ExecCounter wraps StreamingExecutor.execute; undo that after the test
    monkeypatch.setattr(StreamingExecutor, "execute", StreamingExecutor.execute)
    import __ray_entry__
    from tools.driver_mimic import ExecCounter, to_pandas

    query = __ray_entry__.queries()[name]
    execs = ExecCounter()
    to_pandas(query(SF))
    assert execs.take() == EXECUTIONS[name]
