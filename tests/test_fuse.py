"""Fuser strategies + quality filter (reference ``kie/fuse.py``)."""

import pytest

from horizon_ocr_python_ray.config import FuseConfig
from horizon_ocr_python_ray.functions.fuse import (
    Candidate,
    fuse_fields,
    normalize_field_name,
    quality_filter,
)

CFG = FuseConfig()


def test_normalize_field_name():
    assert normalize_field_name("Invoice Number") == "invoice_number"
    assert normalize_field_name("  Due-Date ") == "due_date"


def test_quality_filter_drops_low_single_source():
    cands = [
        Candidate("note", "x", 0.10, "regex"),      # single source, conf<0.15 → drop
        Candidate("note2", "keep me", 0.10, "regex"),
        Candidate("note2", "keep me", 0.10, "layout"),  # two sources → kept
        Candidate("empty", "  ", 0.99, "regex"),    # empty → drop
        Candidate("total", "not-an-amount", 0.9, "regex"),  # implausible → drop
    ]
    kept = quality_filter(cands, CFG)
    names = [c.name for c in kept]
    assert names == ["note2", "note2"]


def test_weighted_vote_picks_heavier_group():
    cands = [
        Candidate("invoice_number", "INV-1", 0.6, "regex"),    # w 1.0 → 0.6
        Candidate("invoice_number", "INV-2", 0.4, "regex"),
        Candidate("invoice_number", "INV-2", 0.5, "layout"),   # 0.4 + 0.45 = 0.85
    ]
    out = fuse_fields(cands, CFG, run_validators=False)
    assert len(out) == 1
    assert out[0].value == "INV-2"
    assert out[0].n_candidates == 3
    assert out[0].status == "confident"  # two sources agree on winner


def test_consensus_majority():
    cfg = FuseConfig(strategy="consensus")
    cands = [
        Candidate("f", "A", 0.9, "regex"),
        Candidate("f", "B", 0.5, "layout"),
        Candidate("f", "B", 0.5, "fallback"),
    ]
    out = fuse_fields(cands, cfg, run_validators=False)
    assert out[0].value == "B"  # 2 of 3 sources


def test_consensus_max_count_without_majority():
    # Reference accepts any value with max_count > 1 (kie/fuse.py:342-373)
    # — no strict-majority gate.
    cfg = FuseConfig(strategy="consensus")
    cands = [
        Candidate("f", "A", 0.99, "regex"),
        Candidate("f", "B", 0.5, "layout"),
        Candidate("f", "B", 0.5, "fallback"),
        Candidate("f", "C", 0.9, "alt1"),
    ]
    out = fuse_fields(cands, cfg, run_validators=False)
    assert out[0].value == "B"  # 2 of 4 sources — max count wins


def test_validator_priority_prefers_passing_candidate():
    cfg = FuseConfig(strategy="validator_priority")
    cands = [
        Candidate("balance", "oops", 0.95, "regex"),     # fails amount parse
        Candidate("balance", "$50.00", 0.4, "layout"),   # passes validators
    ]
    out = fuse_fields(cands, cfg, run_validators=False)
    assert out[0].value == "$50.00"


def test_unknown_strategy_raises():
    with pytest.raises(ValueError, match="unknown fuse strategy"):
        fuse_fields([Candidate("f", "x", 0.9, "regex")], FuseConfig(strategy="bogus"))


def test_status_confidence_gate():
    # Two sources agree but confidence < 0.5 → uncertain, not confident
    # (reference _determine_status order, kie/fuse.py:375-408).
    cands = [
        Candidate("f", "A", 0.45, "regex"),
        Candidate("f", "A", 0.40, "layout"),
    ]
    out = fuse_fields(cands, CFG, run_validators=False)
    assert out[0].status == "uncertain"
    # ≥0.7 with two sources → confident via the gated branch
    cands2 = [
        Candidate("f", "A", 0.75, "regex"),
        Candidate("f", "A", 0.72, "layout"),
    ]
    out2 = fuse_fields(cands2, CFG, run_validators=False)
    assert out2[0].status == "confident"


def test_highest_confidence():
    cfg = FuseConfig(strategy="highest_confidence")
    cands = [
        Candidate("f", "low", 0.4, "regex"),
        Candidate("f", "high", 0.8, "layout"),
    ]
    out = fuse_fields(cands, cfg, run_validators=False)
    assert out[0].value == "high"


def test_validation_status_and_normalization():
    cands = [
        Candidate("Total", "$110.00", 0.9, "regex"),
        Candidate("Subtotal", "$100.00", 0.9, "regex"),
        Candidate("Tax", "$10.00", 0.9, "regex"),
        Candidate("Date", "15/03/2024", 0.9, "regex"),
    ]
    out = fuse_fields(cands, CFG)
    by_name = {f.name: f for f in out}
    assert by_name["total"].normalized_value == "110.00"
    assert by_name["total"].data_type == "currency"
    assert by_name["total"].status == "validated"
    assert by_name["date"].normalized_value == "2024-03-15"


def test_validation_failure_propagates():
    cands = [
        Candidate("Total", "$120.00", 0.9, "regex"),
        Candidate("Subtotal", "$100.00", 0.9, "regex"),
        Candidate("Tax", "$10.00", 0.9, "regex"),
    ]
    out = fuse_fields(cands, CFG)
    assert all(f.status == "validation_failed" for f in out)


def test_deterministic_tie_break():
    cands = [
        Candidate("f", "A", 0.5, "regex"),
        Candidate("f", "B", 0.5, "layout"),
    ]
    a = fuse_fields(cands, CFG, run_validators=False)
    b = fuse_fields(list(reversed(cands)), CFG, run_validators=False)
    assert a[0].value == b[0].value



# One document whose values repeat across fields and sources ("15 Mar
# 2024" in five fields, "$1,100.00" in two, "100.00" twice), with a
# failing date order and a failing total under some strategies.
_REPEATED = [
    Candidate("Invoice Date", "15 Mar 2024", 0.9, "regex"),
    Candidate("Invoice Date", "15 Mar 2024", 0.8, "layout"),
    Candidate("date", "03/15/2024", 0.9, "regex"),
    Candidate("Due Date", "2024-03-01", 0.95, "regex"),
    Candidate("Due Date", "15 Mar 2024", 0.6, "layout"),
    Candidate("Due Date", "15 Mar 2024", 0.6, "nested"),
    Candidate("Ship Date", "soon", 0.9, "regex"),
    Candidate("Total", "$1,150.00", 0.95, "regex"),
    Candidate("Total", "$1,100.00", 0.6, "layout"),
    Candidate("Total", "$1,100.00", 0.6, "nested"),
    Candidate("Subtotal", "$1,000.00", 0.9, "regex"),
    Candidate("Tax", "100.00", 0.9, "regex"),
    Candidate("Tax", "100.00", 0.8, "layout"),
    Candidate("Amount Due", "n/a", 0.9, "regex"),
    Candidate("Balance", "oops", 0.95, "regex"),
    Candidate("Balance", "$1,100.00", 0.4, "layout"),
    Candidate("Issued", "Mar 32, 2024", 0.9, "regex"),
    Candidate("Issued", "15 Mar 2024", 0.6, "nested"),
    Candidate("Reference", "15 Mar 2024", 0.9, "regex"),
    Candidate("Count", "42", 0.9, "regex"),
    Candidate("Count", "42", 0.8, "layout"),
    Candidate("Notes", "INV-000000", 0.9, "regex"),
    Candidate("Notes", "V0786", 0.85, "nested"),
    Candidate("Notes", "", 0.99, "layout"),
]

# (name, value, normalized_value, data_type, confidence, status,
#  n_candidates, ((validator, passed), ...), (failure messages, ...)),
# as the plain strptime-cascade implementation produced them.
_REPEATED_WANT = {
    "weighted_vote": [
        ('balance', 'oops', 'oops', 'string', 0.95, 'single_source', 2, (), ()),
        ('count', '42', '42.0', 'number', 0.9, 'confident', 2, (), ()),
        ('date', '03/15/2024', '2024-03-15', 'date', 0.9, 'validation_failed', 1, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('due_date', '2024-03-01', '2024-03-01', 'date', 0.95, 'validation_failed', 3, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('invoice_date', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 2, (('date_parse', True),), ()),
        ('issued', 'Mar 32, 2024', 'Mar 32, 2024', 'string', 0.9, 'single_source', 2, (), ()),
        ('notes', 'INV-000000', 'INV-000000', 'string', 0.9, 'single_source', 2, (), ()),
        ('reference', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 1, (('date_parse', True),), ()),
        ('subtotal', '$1,000.00', '1000.00', 'currency', 0.9, 'validation_failed', 1, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('tax', '100.00', '100.00', 'currency', 0.9, 'validation_failed', 2, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('total', '$1,150.00', '1150.00', 'currency', 0.95, 'validation_failed', 3, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
    ],
    "consensus": [
        ('balance', 'oops', 'oops', 'string', 0.95, 'single_source', 2, (), ()),
        ('count', '42', '42.0', 'number', 0.9, 'confident', 2, (), ()),
        ('date', '03/15/2024', '2024-03-15', 'date', 0.9, 'validated', 1, (('date_parse', True), ('due_date_after_invoice_date', True)), ()),
        ('due_date', '15 Mar 2024', '2024-03-15', 'date', 0.6, 'validated', 3, (('date_parse', True), ('due_date_after_invoice_date', True)), ()),
        ('invoice_date', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 2, (('date_parse', True),), ()),
        ('issued', 'Mar 32, 2024', 'Mar 32, 2024', 'string', 0.9, 'single_source', 2, (), ()),
        ('notes', 'INV-000000', 'INV-000000', 'string', 0.9, 'single_source', 2, (), ()),
        ('reference', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 1, (('date_parse', True),), ()),
        ('subtotal', '$1,000.00', '1000.00', 'currency', 0.9, 'validated', 1, (('amount_parse', True), ('total_equals_subtotal_plus_tax', True)), ()),
        ('tax', '100.00', '100.00', 'currency', 0.9, 'validated', 2, (('amount_parse', True), ('total_equals_subtotal_plus_tax', True)), ()),
        ('total', '$1,100.00', '1100.00', 'currency', 0.6, 'validated', 3, (('amount_parse', True), ('total_equals_subtotal_plus_tax', True)), ()),
    ],
    "highest_confidence": [
        ('balance', 'oops', 'oops', 'string', 0.95, 'single_source', 2, (), ()),
        ('count', '42', '42.0', 'number', 0.9, 'confident', 2, (), ()),
        ('date', '03/15/2024', '2024-03-15', 'date', 0.9, 'validation_failed', 1, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('due_date', '2024-03-01', '2024-03-01', 'date', 0.95, 'validation_failed', 3, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('invoice_date', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 2, (('date_parse', True),), ()),
        ('issued', 'Mar 32, 2024', 'Mar 32, 2024', 'string', 0.9, 'single_source', 2, (), ()),
        ('notes', 'INV-000000', 'INV-000000', 'string', 0.9, 'single_source', 2, (), ()),
        ('reference', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 1, (('date_parse', True),), ()),
        ('subtotal', '$1,000.00', '1000.00', 'currency', 0.9, 'validation_failed', 1, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('tax', '100.00', '100.00', 'currency', 0.9, 'validation_failed', 2, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('total', '$1,150.00', '1150.00', 'currency', 0.95, 'validation_failed', 3, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
    ],
    "validator_priority": [
        ('balance', '$1,100.00', '1100.00', 'currency', 0.4, 'validated', 2, (('amount_parse', True),), ()),
        ('count', '42', '42.0', 'number', 0.9, 'confident', 2, (), ()),
        ('date', '03/15/2024', '2024-03-15', 'date', 0.9, 'validation_failed', 1, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('due_date', '2024-03-01', '2024-03-01', 'date', 0.95, 'validation_failed', 3, (('date_parse', True), ('due_date_after_invoice_date', False)), ('due 2024-03-01 < invoice 2024-03-15',)),
        ('invoice_date', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 2, (('date_parse', True),), ()),
        ('issued', '15 Mar 2024', '2024-03-15', 'date', 0.6, 'validated', 2, (('date_parse', True),), ()),
        ('notes', 'INV-000000', 'INV-000000', 'string', 0.9, 'single_source', 2, (), ()),
        ('reference', '15 Mar 2024', '2024-03-15', 'date', 0.9, 'validated', 1, (('date_parse', True),), ()),
        ('subtotal', '$1,000.00', '1000.00', 'currency', 0.9, 'validation_failed', 1, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('tax', '100.00', '100.00', 'currency', 0.9, 'validation_failed', 2, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
        ('total', '$1,150.00', '1150.00', 'currency', 0.95, 'validation_failed', 3, (('amount_parse', True), ('total_equals_subtotal_plus_tax', False)), ('total 1150.0 != subtotal 1000.0 + tax 100.0',)),
    ],
}


def _fused_row(f) -> tuple:
    return (f.name, f.value, f.normalized_value, f.data_type, f.confidence,
            f.status, f.n_candidates,
            tuple((v["name"], v["passed"]) for v in f.validators),
            tuple(v["message"] for v in f.validators if v["message"]))


@pytest.mark.parametrize("strategy", sorted(_REPEATED_WANT))
def test_every_strategy_on_repeated_values(strategy):
    cfg = FuseConfig(strategy=strategy)
    got = [_fused_row(f) for f in fuse_fields(_REPEATED, cfg)]
    assert got == _REPEATED_WANT[strategy]
    # without validators: the same winners and normalizations
    bare = fuse_fields(_REPEATED, cfg, run_validators=False)
    assert [(f.name, f.value, f.normalized_value, f.data_type) for f in bare] == \
        [row[:4] for row in got]
    assert all(f.validators == [] for f in bare)


@pytest.mark.parametrize("strategy", sorted(_REPEATED_WANT))
def test_each_value_parsed_once_per_document(strategy, monkeypatch):
    """Within one fuse_fields call a value goes through the date cascade
    and the amount parser at most once each; a second call parses again
    (nothing is kept across documents)."""
    from horizon_ocr_python_ray.functions import validators

    calls: list[tuple[str, str]] = []

    def counted(fn_name):
        fn = getattr(validators, fn_name)

        def wrapper(value):
            calls.append((fn_name, value))
            return fn(value)
        return wrapper

    for fn_name in ("normalize_date", "parse_amount"):
        monkeypatch.setattr(validators, fn_name, counted(fn_name))
    cfg = FuseConfig(strategy=strategy)
    fuse_fields(_REPEATED, cfg)
    assert calls and len(calls) == len(set(calls))
    first = sorted(calls)
    calls.clear()
    fuse_fields(_REPEATED, cfg)
    assert sorted(calls) == first


class TestWindows:
    def test_sliding_window_covers_each_event_k_times(self):
        import pyarrow as pa
        import ray.data
        from horizon_ocr_python_ray.stages.window import sliding_window, tumbling_window

        ts = [1_704_067_200_000_000 + i * 600_000_000 for i in range(20)]  # every 10 min
        t = pa.Table.from_arrays(
            [pa.array(list(range(20)), pa.int64()),
             pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
             pa.array(["a"] * 20, pa.string()),
             pa.array([1.0] * 20, pa.float64())],
            names=["event_id", "ts", "event_type", "value"],
        )
        ds = ray.data.from_arrow(t)
        out = sliding_window(ds, width_s=3600, slide_s=900).to_pandas()
        # every event lands in exactly width/slide = 4 windows
        assert out["n_events"].sum() == 20 * 4
        tumb = tumbling_window(ds, width_s=3600).to_pandas()
        assert tumb["n_events"].sum() == 20

    def test_session_window_break_on_gap(self):
        import pyarrow as pa
        import ray.data
        from horizon_ocr_python_ray.stages.window import session_window

        base = 1_704_067_200_000_000
        # user 1: two sessions (gap 2h); user 2: one session
        rows = [
            (1, 1, base), (2, 1, base + 60_000_000), (3, 1, base + 7_260_000_000),
            (4, 2, base), (5, 2, base + 1_000_000),
        ]
        t = pa.Table.from_arrays(
            [pa.array([r[0] for r in rows], pa.int64()),
             pa.array([r[2] for r in rows], pa.int64()).cast(pa.timestamp("us")),
             pa.array([r[1] for r in rows], pa.int64()),
             pa.array([1.0] * len(rows), pa.float64())],
            names=["event_id", "ts", "user_id", "value"],
        )
        out = session_window(ray.data.from_arrow(t), gap_s=1800).to_pandas()
        u1 = out[out.user_id == 1].sort_values("session_idx")
        assert list(u1["n_events"]) == [2, 1]
        assert list(out[out.user_id == 2]["n_events"]) == [2]


class TestFieldAnchoring:
    def test_anchor_offsets_point_at_value(self, corpus_dir):
        from horizon_ocr_python_ray import build_extract_pipeline, read_pages
        from horizon_ocr_python_ray.stages.fields_stage import build_fields_pipeline

        out = build_extract_pipeline(read_pages(corpus_dir))
        texts = {r["url"]: r["extracted_text"] for r in
                 out.select_columns(["url", "extracted_text"]).take_all()}
        fields = build_fields_pipeline(out).to_pandas()
        assert len(fields) > 0
        anchored = fields[fields.value_start >= 0]
        # doc-route invoices embed Key: Value lines verbatim → anchored
        assert len(anchored) > 0
        for row in anchored.head(50).itertuples():
            assert texts[row.url][row.value_start:row.value_end] == row.value


class TestRollup:
    def test_rollup_levels_consistent(self):
        import pyarrow as pa
        import ray.data
        from horizon_ocr_python_ray.stages.window import (
            ROLLUP_ALL_TYPE,
            events_rollup,
        )

        base = 1_704_067_200_000_000
        n = 40
        t = pa.Table.from_arrays(
            [pa.array([base + i * 600_000_000 for i in range(n)],
                      pa.int64()).cast(pa.timestamp("us")),
             pa.array(["a" if i % 3 else "b" for i in range(n)], pa.string()),
             pa.array([0.12345 * (i + 1) for i in range(n)], pa.float64())],
            names=["ts", "event_type", "value"],
        )
        out = events_rollup(ray.data.from_arrow(t), width_s=3600).to_pandas()
        sentinel = out["window_start"] == pd_epoch0()
        finest = out[~sentinel]
        typed = out[sentinel & (out["event_type"] != ROLLUP_ALL_TYPE)]
        total = out[out["event_type"] == ROLLUP_ALL_TYPE]
        # each level folds exactly from the one below
        assert len(total) == 1
        assert total["n_events"].iloc[0] == n == finest["n_events"].sum()
        assert typed["n_events"].sum() == n
        assert total["sum_value_e4"].iloc[0] == finest["sum_value_e4"].sum()
        assert (typed.set_index("event_type")["sum_value_e4"]
                == finest.groupby("event_type")["sum_value_e4"].sum()).all()


def pd_epoch0():
    import pandas as pd

    return pd.Timestamp("1970-01-01")


class TestHourlyUsers:
    def test_windowed_distinct_counts(self):
        import pyarrow as pa
        import ray.data
        from horizon_ocr_python_ray.stages.window import events_hourly_users

        base = 1_704_067_200_000_000
        # hour 0: users u0,u1 type a (u0 twice); hour 1: u0 type a, u2 type b
        rows = [(base, "a", "u0"), (base + 60_000_000, "a", "u0"),
                (base + 120_000_000, "a", "u1"),
                (base + 3_700_000_000, "a", "u0"),
                (base + 3_800_000_000, "b", "u2")]
        t = pa.Table.from_arrays(
            [pa.array([r[0] for r in rows], pa.int64()).cast(pa.timestamp("us")),
             pa.array([r[1] for r in rows], pa.string()),
             pa.array([r[2] for r in rows], pa.string())],
            names=["ts", "event_type", "user_id"],
        )
        out = (events_hourly_users(ray.data.from_arrow(t).repartition(2))
               .to_pandas().sort_values(["event_type", "window_start"])
               .reset_index(drop=True))
        assert list(out["n_users"]) == [2, 1, 1]


class TestFunnel:
    def test_session_funnel_ordering_and_gap(self):
        import pyarrow as pa
        import ray.data
        from horizon_ocr_python_ray.stages.window import events_funnel

        base = 1_704_067_200_000_000
        m = 60_000_000
        rows = [
            # u1 session 1: view -> purchase (converts)
            (1, base, "u1", "view"), (2, base + m, "u1", "purchase"),
            # u1 session 2 (after >30min gap): purchase -> view (order wrong)
            (3, base + 100 * m, "u1", "purchase"), (4, base + 101 * m, "u1", "view"),
            # u2 single session: view only (no purchase)
            (5, base, "u2", "view"), (6, base + m, "u2", "click"),
        ]
        t = pa.Table.from_arrays(
            [pa.array([r[0] for r in rows], pa.int64()),
             pa.array([r[1] for r in rows], pa.int64()).cast(pa.timestamp("us")),
             pa.array([r[2] for r in rows], pa.string()),
             pa.array([r[3] for r in rows], pa.string())],
            names=["event_id", "ts", "user_id", "event_type"],
        )
        out = (events_funnel(ray.data.from_arrow(t))
               .to_pandas().set_index("user_id"))
        assert out.loc["u1"]["n_sessions"] == 2
        assert out.loc["u1"]["n_converted"] == 1
        assert out.loc["u2"]["n_sessions"] == 1
        assert out.loc["u2"]["n_converted"] == 0
