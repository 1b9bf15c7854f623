"""Fully staged extraction pipeline: route split → per-route stages →
page fan-out / fan-in for the heavy path → union.

This is the architecture for corpora whose documents can have unbounded
page counts (the reference's serial page loop,
``/root/reference/docvision/pipeline/orchestrator.py:497``, is its biggest
bottleneck — SURVEY.md §7.4): ``flat_map`` pages to one row per page so a
500-page document parallelizes across the cluster, recognize on an actor
pool, then ``groupby(url).map_groups`` reassembles reading order. The
reassembly sorts within the group and never relies on block arrival order.

Trade-off vs the combined stage (``extract_stage.py``): one extra
all-to-all shuffle (``groupby(url)``) + each route branch re-executes the
upstream read/sniff (Ray re-runs lazy lineage per consumer). At production
scale you'd checkpoint the sniffed table partitioned by route between the
two phases (see ``state/checkpoint.py``); both variants produce
byte-identical output (tested in ``tests/test_pipeline_golden.py``).
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..functions import sniff as sniff_mod
from ..functions.extract_core import (
    decode_pages,
    is_digital,
    lines_to_text_spans,
    normalize_plain_text,
    page_lines,
)
from ..functions.htmltext import extract_html
from ..schema import SPAN_TYPE
from .route import HEAVY_ROUTES, route_filter

_ID_COLS = ["url", "warc_ts", "lang", "route", "content_hash"]
_OUT_COLS = _ID_COLS + ["extracted_text", "spans", "error"]


def _result_table(id_batch: pa.Table, texts, spans, errs) -> pa.Table:
    t = id_batch.select(_ID_COLS)
    t = t.append_column("extracted_text", pa.array(texts, pa.string()))
    t = t.append_column("spans", pa.array(spans, SPAN_TYPE))
    t = t.append_column("error", pa.array(errs, pa.string()))
    return t


# -- fast DOM path (stateless tasks) ----------------------------------------

def html_extract_batch(batch: pa.Table, cfg: ExtractConfig) -> pa.Table:
    texts, spans, errs = [], [], []
    for payload in batch.column("html").to_pylist():
        try:
            t, s = extract_html(payload or b"", cfg.html)
            texts.append(t); spans.append(s); errs.append(None)
        except Exception as exc:
            texts.append(""); spans.append([]); errs.append(f"{type(exc).__name__}: {exc}")
    return _result_table(batch, texts, spans, errs)


def text_passthrough_batch(batch: pa.Table) -> pa.Table:
    texts, spans = [], []
    for raw in batch.column("text").to_pylist():
        t, s = normalize_plain_text(raw or "")
        texts.append(t); spans.append(s)
    return _result_table(batch, texts, spans, [None] * batch.num_rows)


def binary_error_batch(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    return _result_table(batch, [""] * n, [[]] * n, ["unsupported_route:binary"] * n)


# -- heavy path: page fan-out → recognize actors → fan-in --------------------

def fan_out_pages(batch: pa.Table) -> pa.Table:
    """One row per (document, page). Line records travel as a JSON string
    column; the wide binary payload is dropped here (decode once, early)."""
    rows = {c: [] for c in _ID_COLS}
    pages_no, lines_json = [], []
    routes = batch.column("route").to_pylist()
    payloads = batch.column("html").to_pylist()
    ids = {c: batch.column(c).to_pylist() for c in _ID_COLS}
    for i, (route, payload) in enumerate(zip(routes, payloads)):
        try:
            pages = decode_pages(route, payload)
            # The digital-vs-scanned rule is DOC-level (total native chars
            # across pages), so decide here and ship the flag per page
            # row — per-page decisions could diverge from the combined
            # pipeline.
            digital = is_digital(route, pages)
            page_list = [
                (p["page"], {"w": p.get("w"), "h": p.get("h"), "lines": p["lines"],
                             "native": p.get("native"), "digital": digital})
                for p in pages
            ]
        except Exception as exc:
            # poison page carrying the SAME error string the combined
            # path's extract_payload would produce — keeps the variants
            # byte-identical for undecodable payloads
            page_list = [(0, {"__error__": f"{type(exc).__name__}: {exc}"})]
        if not page_list:
            # Sentinel page for a payload that decodes to zero pages, so the
            # document still reassembles to one (empty-text) row — keeps the
            # staged variant byte-identical to the combined one.
            page_list = [(0, {"w": None, "h": None, "lines": []})]
        for page_no, page in page_list:
            for c in _ID_COLS:
                rows[c].append(ids[c][i])
            pages_no.append(page_no)
            lines_json.append(json.dumps(page) if page is not None else None)
    arrays = [pa.array(rows["url"], pa.string()), pa.array(rows["warc_ts"], pa.timestamp("us")),
              pa.array(rows["lang"], pa.string()), pa.array(rows["route"], pa.string()),
              pa.array(rows["content_hash"], pa.string()),
              pa.array(pages_no, pa.int32()), pa.array(lines_json, pa.string())]
    return pa.Table.from_arrays(arrays, names=_ID_COLS + ["page", "lines_json"])


class PageRecognizeActor:
    """Actor-pool stage: detect + recognize one page per row (warm state
    once per actor — the TrOCR/CRAFT analog, ``ocr/trocr.py:36-367``)."""

    def __init__(self, cfg: ExtractConfig | None = None) -> None:
        self.cfg = cfg or DEFAULT_CONFIG

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_lines, out_kinds, errs = [], [], []
        for lj in batch.column("lines_json").to_pylist():
            if lj is None:
                out_lines.append([]); out_kinds.append([]); errs.append("undecodable_payload")
                continue
            try:
                page = json.loads(lj)
                if page.get("__error__"):
                    out_lines.append([]); out_kinds.append([])
                    errs.append(page["__error__"])
                    continue
                lines = page_lines(page, page.get("digital"), self.cfg)
                texts = [li["text"] for li in lines]
                kinds = [li["kind"] for li in lines]
                out_lines.append(texts)
                out_kinds.append(kinds)
                errs.append(None)
            except Exception as exc:
                out_lines.append([]); out_kinds.append([]); errs.append(f"{type(exc).__name__}: {exc}")
        t = batch.select(_ID_COLS + ["page"])
        t = t.append_column("line_texts", pa.array(out_lines, pa.list_(pa.string())))
        t = t.append_column("line_kinds", pa.array(out_kinds, pa.list_(pa.string())))
        t = t.append_column("page_error", pa.array(errs, pa.string()))
        return t


def reassemble_group(group: pa.Table) -> pa.Table:
    """All pages of one url → one document row. Sorts by page inside the
    group (never relies on upstream order — SURVEY.md §7.4)."""
    pages = group.column("page").to_pylist()
    line_lists = group.column("line_texts").to_pylist()
    kind_lists = group.column("line_kinds").to_pylist()
    errs = [e for e in group.column("page_error").to_pylist() if e]
    order = sorted(range(len(pages)), key=lambda i: pages[i])
    all_lines: list[str] = []
    all_kinds: list[str] = []
    for i in order:
        all_lines.extend(line_lists[i])
        all_kinds.extend(kind_lists[i])
    text, spans = lines_to_text_spans(all_lines, all_kinds)
    ids = group.select(_ID_COLS).slice(0, 1)
    return _result_table(ids, [text], [spans], [errs[0] if errs else None])


def build_staged_pipeline(sniffed_ds, cfg: ExtractConfig | None = None,
                          num_gpus: float | None = None,
                          ray_remote_args: dict | None = None):
    """sniffed dataset (url, warc_ts, html, text, lang, route, content_hash)
    → extraction results, via per-route branches + union.

    ``num_gpus`` / ``ray_remote_args`` attach device placement to the
    HEAVY branch only (the recognize actor pool — reference
    ``config.py:81-90`` device=auto); the cheap html/text/binary branches
    stay CPU tasks."""
    cfg = cfg or DEFAULT_CONFIG
    remote_args = dict(ray_remote_args or {})
    if num_gpus is not None:
        remote_args["num_gpus"] = num_gpus
    html_ds = (
        sniffed_ds.map_batches(route_filter((sniff_mod.ROUTE_HTML,)), batch_format="pyarrow")
        .map_batches(html_extract_batch, fn_kwargs={"cfg": cfg}, batch_format="pyarrow",
                     batch_size=cfg.runtime.html_batch_size)
    )
    text_ds = (
        sniffed_ds.map_batches(route_filter((sniff_mod.ROUTE_TEXT,)), batch_format="pyarrow")
        .map_batches(text_passthrough_batch, batch_format="pyarrow")
    )
    binary_ds = (
        sniffed_ds.map_batches(route_filter((sniff_mod.ROUTE_BINARY,)), batch_format="pyarrow")
        .map_batches(binary_error_batch, batch_format="pyarrow")
    )
    heavy_ds = (
        sniffed_ds.map_batches(route_filter(HEAVY_ROUTES), batch_format="pyarrow")
        .map_batches(fan_out_pages, batch_format="pyarrow")
        .map_batches(
            PageRecognizeActor,
            fn_constructor_kwargs={"cfg": cfg},
            batch_format="pyarrow",
            batch_size=cfg.doc.recognize_batch_size,
            concurrency=(1, cfg.doc.recognize_concurrency),
            **remote_args,
        )
        .groupby("url")
        .map_groups(reassemble_group, batch_format="pyarrow")
    )
    return html_ds.union(text_ds).union(binary_ds).union(heavy_ds)
