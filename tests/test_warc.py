"""WARC source/sink: lossless round-trip against the synthetic corpus,
record-framing edge cases, and extraction parity (a WARC-read corpus
must extract byte-identically to the parquet-read one)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from horizon_ocr_python_ray.sources import warc as W


@pytest.fixture(scope="module")
def pages_table(corpus_dir):
    return pq.read_table(os.path.join(corpus_dir, "pages"))


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by("url").select(["url", "warc_ts", "html", "text", "lang"])


def test_roundtrip_bytes_identical(pages_table, tmp_path):
    """pages → WARC shards → read_warc → the same five columns,
    byte-for-byte (html None-pattern included)."""
    paths = W.write_warc_dir(pages_table, str(tmp_path / "w"), rows_per_shard=150)
    assert len(paths) == -(-pages_table.num_rows // 150)
    back = W.read_warc(str(tmp_path / "w")).take_all()
    got = _sorted(pa.Table.from_pylist(back, schema=W.PAGES_SCHEMA))
    want = _sorted(pages_table)
    assert got.num_rows == want.num_rows
    for col in ("url", "lang", "text"):
        assert got.column(col).to_pylist() == want.column(col).to_pylist(), col
    assert got.column("warc_ts").cast(pa.int64()).to_pylist() == \
        want.column("warc_ts").cast(pa.int64()).to_pylist()
    assert got.column("html").to_pylist() == want.column("html").to_pylist()


def test_plain_warc_and_leader_skipped(pages_table, tmp_path):
    """Uncompressed .warc parses identically, and the warcinfo leader
    record never becomes a row."""
    small = pages_table.slice(0, 25)
    buf = W.table_to_warc_bytes(small, compress=False)
    assert buf[:5] == b"WARC/"
    t = W.parse_warc_file_bytes(buf)
    assert t.num_rows == 25  # warcinfo skipped
    assert t.column("url").to_pylist() == small.column("url").to_pylist()


def test_gzip_members_parse_individually(pages_table):
    """Per-record gzip members (the Common-Crawl layout) — truncating
    the file at any member boundary yields exactly the records before
    it."""
    small = pages_table.slice(0, 5)
    recs = [W.warcinfo_bytes()] + [
        W._row_record(u, t, h, x, lg)
        for u, t, h, x, lg in zip(
            small.column("url").to_pylist(),
            small.column("warc_ts").cast(pa.int64()).to_pylist(),
            small.column("html").to_pylist(),
            small.column("text").to_pylist(),
            small.column("lang").to_pylist())]
    for cut in range(1, len(recs) + 1):
        t = W.parse_warc_file_bytes(b"".join(recs[:cut]))
        assert t.num_rows == cut - 1


def test_microsecond_dates_roundtrip():
    ts = 1_704_067_200_123_456  # 2024-01-01 00:00:00.123456
    rec = W.record_bytes("https://x.example/a", ts, b"<html></html>",
                         "text/html", "en")
    t = W.parse_warc_file_bytes(rec)
    assert t.column("warc_ts").cast(pa.int64()).to_pylist() == [ts]
    assert t.column("lang").to_pylist() == ["en"]


def test_text_plain_rows_map_to_text_column():
    rec = W.record_bytes("https://x.example/t", 0, "héllo\r\nwörld".encode(),
                         "text/plain; charset=utf-8", None)
    t = W.parse_warc_file_bytes(rec)
    assert t.column("html").to_pylist() == [None]
    assert t.column("text").to_pylist() == ["héllo\r\nwörld"]
    assert t.column("lang").to_pylist() == ["unknown"]


def test_distributed_sink_manifest(pages_table, tmp_path):
    """write_warc: every row lands in exactly one shard; the manifest's
    record counts sum to the input; a re-read sees all rows."""
    import ray.data

    out = str(tmp_path / "sink")
    ds = ray.data.from_arrow(pages_table).repartition(4)
    manifest = W.write_warc(ds, out).take_all()
    assert sum(m["records"] for m in manifest) == pages_table.num_rows
    assert all(os.path.basename(m["path"]).startswith("shard-")
               for m in manifest)
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
    back = W.read_warc(out)
    assert back.count() == pages_table.num_rows


def test_extraction_parity_with_parquet_read(corpus_dir, tmp_path):
    """The flagship pipeline over read_warc equals the pipeline over
    read_parquet, per url, byte-identically — the source format must be
    invisible to extraction."""
    from horizon_ocr_python_ray import build_extract_pipeline, read_pages

    pages = pq.read_table(os.path.join(corpus_dir, "pages")).slice(0, 120)
    W.write_warc_dir(pages, str(tmp_path / "w"), rows_per_shard=40)

    import ray.data

    via_warc = build_extract_pipeline(W.read_warc(str(tmp_path / "w"))) \
        .select_columns(["url", "extracted_text"]).take_all()
    sub = build_extract_pipeline(ray.data.from_arrow(pages)) \
        .select_columns(["url", "extracted_text"]).take_all()
    a = {r["url"]: r["extracted_text"] for r in via_warc}
    b = {r["url"]: r["extracted_text"] for r in sub}
    assert a == b and len(a) == 120


# ---------------------------------------------------------------------------
# property: arbitrary rows round-trip (pure parse kernel, no Ray)
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

# valid-URL alphabet: no raw spaces/controls (invalid in URLs; the
# writer's round-trip contract covers VALID urls), no surrogates
_url = st.text(
    alphabet=st.characters(min_codepoint=0x21, blacklist_characters="%",
                           blacklist_categories=("Cs", "Zs")),
    min_size=1, max_size=60).map(lambda s: "https://h.example/" + s)
_payload = st.one_of(
    st.binary(min_size=0, max_size=300),
    # adversarial: record markers and header text inside the body
    st.just(b"WARC/1.0\r\nWARC-Type: response\r\n\r\nfake"),
    st.just(b"HTTP/1.1 200 OK\r\n\r\nnested"),
    st.just(b"\r\n\r\nContent-Length: 999\r\n\r\n"),
)
_row = st.tuples(
    _url,
    st.integers(min_value=0, max_value=4_102_444_800_000_000),  # ≤ 2100
    _payload,
    st.sampled_from(["en", "de", "fr", "unknown"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_row, min_size=1, max_size=8),
       st.booleans())
def test_property_roundtrip_arbitrary_rows(rows, compress):
    parts = [W.warcinfo_bytes(compress=compress)]
    for url, ts, payload, lang in rows:
        parts.append(W.record_bytes(
            url, ts, payload, "application/octet-stream", lang,
            compress=compress))
    t = W.parse_warc_file_bytes(b"".join(parts))
    assert t.num_rows == len(rows)
    assert t.column("url").to_pylist() == [r[0] for r in rows]
    assert t.column("warc_ts").cast(pa.int64()).to_pylist() == \
        [r[1] for r in rows]
    assert t.column("html").to_pylist() == [r[2] for r in rows]
    assert t.column("lang").to_pylist() == [r[3] for r in rows]


def test_wet_sink_roundtrip(corpus_dir, tmp_path):
    """Extraction output → WET conversion records → read back: url,
    timestamp and extracted text survive byte-identically (the CC WET
    layout for extracted plain text)."""
    import ray.data

    from horizon_ocr_python_ray import build_extract_pipeline

    pages = pq.read_table(os.path.join(corpus_dir, "pages")).slice(0, 80)
    out = build_extract_pipeline(ray.data.from_arrow(pages))
    want = {r["url"]: (r["warc_ts"], r["extracted_text"])
            for r in out.select_columns(
                ["url", "warc_ts", "extracted_text"]).take_all()}

    wet_dir = str(tmp_path / "wet")
    manifest = W.write_wet(
        build_extract_pipeline(ray.data.from_arrow(pages)), wet_dir
    ).take_all()
    assert sum(m["records"] for m in manifest) == 80

    got = {r["url"]: (r["warc_ts"], r["text"])
           for r in W.read_wet(wet_dir).take_all()}
    assert got == want and len(got) == 80


def test_streaming_parse_chunks(pages_table):
    """iter_warc_file_tables yields bounded chunks whose concatenation
    equals the whole-file parse."""
    buf = W.table_to_warc_bytes(pages_table.slice(0, 100))
    chunks = list(W.iter_warc_file_tables(buf, chunk_rows=16))
    assert all(t.num_rows <= 16 for t in chunks)
    assert len(chunks) == -(-100 // 16)
    whole = W.parse_warc_file_bytes(buf)
    assert pa.concat_tables(chunks).equals(whole)
    assert whole.num_rows == 100


def test_corrupt_tail_keeps_parsed_records(pages_table):
    """Garbage or a truncated member after valid members stops the scan
    gracefully — earlier records survive instead of the task failing."""
    small = pages_table.slice(0, 6)
    buf = W.table_to_warc_bytes(small, leader=False)
    assert W.parse_warc_file_bytes(buf + b"\x00garbage\xff" * 8).num_rows == 6
    # cut INSIDE the final member: everything before it still parses
    assert W.parse_warc_file_bytes(buf[:-20]).num_rows == 5


def test_sink_is_idempotent_under_reexecution(pages_table, tmp_path):
    """Shard names are content-derived, so re-running the sink (a task
    retry / second plan execution) overwrites rather than duplicates."""
    import ray.data

    out = str(tmp_path / "sink")
    for _ in range(2):  # same input written twice
        ds = ray.data.from_arrow(pages_table).repartition(4)
        W.write_warc(ds, out).take_all()
    shards = [f for f in os.listdir(out) if f.endswith(".warc.gz")]
    assert len(shards) == 4  # not 8
    assert W.read_warc(out).count() == pages_table.num_rows


def test_read_empty_dir_returns_empty_dataset(tmp_path):
    d = str(tmp_path / "none")
    os.makedirs(d)
    got = W.read_warc(d)
    assert got.count() == 0
    assert set(got.schema().names) == {"url", "warc_ts", "html", "text", "lang"}
    wet = W.read_wet(d)
    assert wet.count() == 0


def _plain_record(url: str, date: bytes = b"2024-01-01T00:00:00Z", *,
                  length: bool = True, body: bytes = b"<html>x</html>") -> bytes:
    """An uncompressed response record with a chosen WARC-Date, with or
    without its Content-Length header."""
    rec = W.record_bytes(url, 0, body, "text/html", compress=False)
    rec = rec.replace(b"WARC-Date: 1970-01-01T00:00:00Z", b"WARC-Date: " + date)
    if not length:
        head, sep, rest = rec.partition(b"\r\n\r\n")
        head = b"\r\n".join(line for line in head.split(b"\r\n")
                            if not line.startswith(b"Content-Length"))
        rec = head + sep + rest
    return rec


@pytest.mark.parametrize("date", [
    b"2024-01-01T00:00:00+00:00",       # offset instead of Z
    b"2024-01-01T00:00:00.123456789Z",  # WARC-1.1 nanosecond fraction
    b"not-a-date",
    "2024-01-01T00:00:00éZ".encode(),  # non-ASCII
])
def test_malformed_warc_date_skips_only_that_record(date):
    """A WARC-Date the reader cannot parse drops its own record; the
    records around it still parse, in plain and gzip framing."""
    recs = [_plain_record("https://x.example/a"),
            _plain_record("https://x.example/bad", date),
            _plain_record("https://x.example/c")]
    for buf in (b"".join(recs), b"".join(W._gzip_member(r) for r in recs)):
        t = W.parse_warc_file_bytes(buf)
        assert t.column("url").to_pylist() == ["https://x.example/a",
                                                "https://x.example/c"]


def test_wet_conversion_with_malformed_date_is_skipped():
    good = (b"WARC/1.0\r\nWARC-Type: conversion\r\nWARC-Target-URI: u\r\n"
            b"WARC-Date: 2024-01-01T00:00:00Z\r\n\r\nhello")
    assert W._parse_conversion(good) == ("u", 1_704_067_200_000_000, "hello")
    assert W._parse_conversion(good.replace(b"00Z", b"00+00:00")) is None


@pytest.mark.parametrize("length_line", [None, b"Content-Length: twelve",
                                         b"Content-Length: -5"])
def test_record_without_content_length_is_skipped(length_line):
    """A body-bearing record whose Content-Length is missing or unusable
    is skipped, never emitted with an empty payload, and text in its body
    that looks like a record start is not read as one."""
    body = b"<html>bodyA WARC/1.0 inside</html>"
    bad = _plain_record("https://x.example/nolen", length=False, body=body)
    if length_line is not None:
        head, sep, rest = bad.partition(b"\r\n\r\n")
        bad = head + b"\r\n" + length_line + sep + rest
    first = _plain_record("https://x.example/a")
    last = _plain_record("https://x.example/c")
    for recs in ([first, bad, last], [first, last, bad]):
        t = W.parse_warc_file_bytes(b"".join(recs))
        assert sorted(t.column("url").to_pylist()) == ["https://x.example/a",
                                                        "https://x.example/c"]
        assert t.column("html").to_pylist() == [b"<html>x</html>"] * 2


def _rows(urls, payloads, langs=None) -> pa.Table:
    n = len(urls)
    return pa.table({
        "url": urls,
        "warc_ts": pa.array([1_704_067_200_000_000] * n, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
        "text": pa.array([""] * n, pa.string()),
        "lang": langs or ["en"] * n,
    }, schema=W.PAGES_SCHEMA)


def test_blocks_with_equal_url_bounds_get_distinct_shards(tmp_path):
    """Two blocks with the same first/last url and row count but
    different payloads must not overwrite each other's shard."""
    import ray.data

    urls = ["https://x.example/a", "https://x.example/b"]
    one = _rows(urls, [b"<html>one-a</html>", b"<html>one-b</html>"])
    two = _rows(urls, [b"<html>two-a</html>", b"<html>two-b</html>"])
    out = str(tmp_path / "sink")
    manifest = W.write_warc(ray.data.from_arrow([one, two]), out).take_all()
    assert len({m["path"] for m in manifest}) == 2
    back = W.read_warc(out).take_all()
    assert sorted(r["html"] for r in back) == sorted(
        one.column("html").to_pylist() + two.column("html").to_pylist())


@pytest.mark.parametrize("compress", [True, False])
def test_header_values_cannot_break_record_framing(compress):
    """A CR/LF in ``lang`` is percent-encoded instead of starting a new
    header line, and a non-ASCII ``lang`` is written as UTF-8 instead of
    failing the write; every record and payload reads back."""
    langs = ["en\r\nWARC-Type: x", "français", "日本語"]
    urls = [f"https://x.example/{i}" for i in range(3)]
    payloads = [f"<html>page {i}</html>".encode() for i in range(3)]
    t = _rows(urls, payloads, langs)
    back = W.parse_warc_file_bytes(W.table_to_warc_bytes(t, compress=compress))
    assert back.column("url").to_pylist() == urls
    assert back.column("html").to_pylist() == payloads
    assert back.column("lang").to_pylist() == ["en%0D%0AWARC-Type: x", "français", "日本語"]
