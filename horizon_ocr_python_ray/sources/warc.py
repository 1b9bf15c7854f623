"""WARC source + sink — the wire format Common Crawl actually ships.

The reference engine ingests loose files from disk
(``/root/reference/docvision/pipeline/orchestrator.py`` batch mode walks
a directory); a trillion-row web corpus instead arrives as WARC: a
stream of individually-gzipped records, each a WARC/1.0 header block
plus (for ``WARC-Type: response``) an HTTP response whose body is the
page payload. This module maps that format onto the engine's canonical
pages schema ``(url, warc_ts, html, text, lang)`` in both directions:

- :func:`read_warc` — a Ray Data source: one read task per ``.warc.gz``
  file (per-member gzip framing means a file must be scanned
  sequentially, so THE FILE is the natural unit of parallelism — the
  same layout real Common Crawl jobs use: ~1 GB/file × ~72k files per
  crawl, one task each). Non-response records (warcinfo / request /
  metadata) are skipped. Output is pages-shaped, so
  ``build_extract_pipeline(read_warc(dir))`` runs unchanged.
- :func:`write_warc` — a distributed sink: each block is written by the
  map task that holds it (one shard per block, write-then-rename), and
  the returned manifest Dataset carries ``(path, records)`` lineage
  rows — the same commit discipline as ``state/checkpoint.py``.
- :func:`table_to_warc_bytes` / :func:`write_warc_dir` — driver-side
  fixture builders for tests (document-scale only).

Column mapping (lossless round-trip, property-tested):

- ``url``     ↔ ``WARC-Target-URI``
- ``warc_ts`` ↔ ``WARC-Date`` (ISO-8601 Zulu; microseconds kept via the
  WARC-1.1 fractional form when nonzero)
- ``lang``    ↔ ``WARC-Identified-Content-Language`` (the real
  Common-Crawl field; absent ↔ ``"unknown"``)
- payload     ↔ HTTP body. The corpus invariant "exactly one of
  html/text is set" maps to the HTTP ``Content-Type``: text rows are
  written as ``text/plain; charset=utf-8`` and read back into ``text``
  (``html`` null); everything else (HTML bytes, PDF and other binary
  docs) rides as its sniffed type and reads back into ``html``
  (``text`` empty) — the same discrimination the corpus encodes with
  its null pattern.

Scale notes: a read task's peak heap is one decompressed file (CC files
are sized ~1 GB for exactly this reason); parse work is
bytes-scan + header split, no per-record Python beyond the record loop
that the format itself forces. At 100 TB, schedule with
``override_num_blocks=None`` (1 task per file) and let streaming
backpressure pace the object store, as with parquet reads.
"""

from __future__ import annotations

import os
import uuid
import zlib
from datetime import datetime, timezone

import pyarrow as pa

_CRLF = b"\r\n"
_GZ_MAGIC = b"\x1f\x8b"

#: schema of every Dataset this module produces or consumes
PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])


# --------------------------------------------------------------------------
# record encode
# --------------------------------------------------------------------------

def _gzip_member(raw: bytes) -> bytes:
    """Compress one record as its own gzip member (the CC framing)."""
    co = zlib.compressobj(6, zlib.DEFLATED, 31)  # 31 → gzip wrapper
    return co.compress(raw) + co.flush()


def _encode_uri(url: str) -> bytes:
    """Raw control chars are invalid in URLs and would be header
    injection; percent-encode them (one-way — a VALID url round-trips
    unchanged)."""
    return "".join(f"%{ord(c):02X}" if ord(c) < 0x20 else c
                   for c in url).encode("utf-8")


def _sniff_content_type(payload: bytes) -> str:
    if payload[:5] == b"%PDF-":
        return "application/pdf"
    if payload[:1] == b"<" or b"<html" in payload[:256].lower():
        return "text/html; charset=utf-8"
    return "application/octet-stream"


def _warc_date(ts_us: int) -> str:
    dt = datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
    if ts_us % 1_000_000:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_warc_date(s: str) -> int | None:
    """``WARC-Date`` in the form ``_warc_date`` writes → epoch µs, or
    None for any other form (e.g. a ``+00:00`` offset or a 9-digit
    fraction), so the caller can skip that one record."""
    s = s.strip()
    if s.endswith("Z"):
        s = s[:-1]
    fmt = "%Y-%m-%dT%H:%M:%S.%f" if "." in s else "%Y-%m-%dT%H:%M:%S"
    try:
        dt = datetime.strptime(s, fmt).replace(tzinfo=timezone.utc)
    except ValueError:
        return None
    return int(dt.timestamp()) * 1_000_000 + dt.microsecond


def record_bytes(url: str, ts_us: int, payload: bytes, content_type: str,
                 lang: str | None = None, *, compress: bool = True) -> bytes:
    """One WARC/1.0 response record (its own gzip member when
    ``compress``): WARC headers + an HTTP/1.1 200 wrapper + payload.
    ``WARC-Record-ID`` is derived from the url so output is
    deterministic."""
    http = (b"HTTP/1.1 200 OK" + _CRLF
            + b"Content-Type: " + content_type.encode("ascii") + _CRLF
            + b"Content-Length: " + str(len(payload)).encode("ascii") + _CRLF
            + _CRLF + payload)
    rec_id = uuid.uuid5(uuid.NAMESPACE_URL, url)
    headers = [
        b"WARC/1.0",
        b"WARC-Type: response",
        b"WARC-Record-ID: <urn:uuid:" + str(rec_id).encode("ascii") + b">",
        b"WARC-Date: " + _warc_date(ts_us).encode("ascii"),
        b"WARC-Target-URI: " + _encode_uri(url),
    ]
    if lang and lang != "unknown":
        headers.append(b"WARC-Identified-Content-Language: "
                       + lang.encode("ascii"))
    headers += [
        b"Content-Type: application/http; msgtype=response",
        b"Content-Length: " + str(len(http)).encode("ascii"),
    ]
    raw = _CRLF.join(headers) + _CRLF + _CRLF + http + _CRLF + _CRLF
    return _gzip_member(raw) if compress else raw


def warcinfo_bytes(*, compress: bool = True) -> bytes:
    """A minimal ``WARC-Type: warcinfo`` leader record (real crawl files
    start with one; readers must skip it)."""
    body = b"software: horizon_ocr_python_ray warc sink\r\n"
    headers = [
        b"WARC/1.0",
        b"WARC-Type: warcinfo",
        b"WARC-Record-ID: <urn:uuid:" + str(
            uuid.uuid5(uuid.NAMESPACE_URL, "warcinfo")).encode() + b">",
        b"WARC-Date: " + _warc_date(0).encode("ascii"),
        b"Content-Type: application/warc-fields",
        b"Content-Length: " + str(len(body)).encode("ascii"),
    ]
    raw = _CRLF.join(headers) + _CRLF + _CRLF + body + _CRLF + _CRLF
    return _gzip_member(raw) if compress else raw


def _row_record(url: str, ts_us: int, html: bytes | None, text: str | None,
                lang: str | None, compress: bool = True) -> bytes:
    if html is None or (not html and text):
        payload = (text or "").encode("utf-8")
        ctype = "text/plain; charset=utf-8"
    else:
        payload = bytes(html)
        ctype = _sniff_content_type(payload)
    return record_bytes(url, ts_us, payload, ctype, lang, compress=compress)


def table_to_warc_bytes(table: pa.Table, *, compress: bool = True,
                        leader: bool = True) -> bytes:
    """Pages-shaped Arrow table → one WARC file's bytes (fixture-scale;
    the distributed path is :func:`write_warc`)."""
    urls = table.column("url").to_pylist()
    ts = table.column("warc_ts").cast(pa.int64()).to_pylist()
    htmls = table.column("html").to_pylist()
    texts = table.column("text").to_pylist()
    langs = table.column("lang").to_pylist()
    parts = [warcinfo_bytes(compress=compress)] if leader else []
    for u, t_us, h, x, lg in zip(urls, ts, htmls, texts, langs):
        parts.append(_row_record(u, t_us, h, x, lg, compress=compress))
    return b"".join(parts)


def write_warc_dir(table: pa.Table, out_dir: str, rows_per_shard: int = 200,
                   *, compress: bool = True) -> list[str]:
    """Driver-side fixture writer: shard a pages table into
    ``part-NNNN.warc[.gz]`` files. Returns the shard paths."""
    os.makedirs(out_dir, exist_ok=True)
    ext = ".warc.gz" if compress else ".warc"
    paths = []
    for s in range(0, max(table.num_rows, 1), rows_per_shard):
        chunk = table.slice(s, rows_per_shard)
        if not chunk.num_rows:
            continue
        p = os.path.join(out_dir, f"part-{s // rows_per_shard:04d}{ext}")
        with open(p, "wb") as f:
            f.write(table_to_warc_bytes(chunk, compress=compress))
        paths.append(p)
    return paths


def _shard_name(t: pa.Table, suffix: str) -> str:
    """Deterministic, content-derived shard name: a Ray task RETRY (or a
    second execution of the lazy plan) re-writes the SAME path via
    ``os.replace`` instead of leaving a duplicate shard — the same
    idempotence the parquet checkpoint sink gets from per-partition
    paths. Derived from the block's url bounds + row count, which
    identify a block of a deterministic pipeline."""
    import hashlib

    urls = t.column("url")
    key = (str(urls[0]) + "\x1f" + str(urls[len(urls) - 1]) + "\x1f"
           + str(t.num_rows))
    return f"shard-{hashlib.md5(key.encode('utf-8')).hexdigest()}{suffix}"


def _commit_shard(out_dir: str, name: str, payload: bytes) -> str:
    """Write-then-rename into ``out_dir`` (created here, IN the task —
    on a multi-node cluster the driver's mkdir ran on another node).
    The tmp name carries a uuid so two concurrent attempts never
    interleave writes; the final name is the deterministic one."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f".{name}.{uuid.uuid4().hex}.tmp")
    final = os.path.join(out_dir, name)
    with open(tmp, "wb") as f:
        f.write(payload)
    os.replace(tmp, final)
    return final


def write_warc(ds, out_dir: str):
    """Distributed WARC sink: each task writes ITS block as one
    ``.warc.gz`` shard (write-then-rename, so a killed run leaves no
    half shard; content-derived names, so retries overwrite instead of
    duplicating) and emits a ``(path, records)`` manifest row. Returns
    the manifest as a small Dataset — materialize it to commit, the
    same pattern as the parquet checkpoint sink."""

    def write_block(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"path": pa.array([], pa.string()),
                             "records": pa.array([], pa.int64())})
        final = _commit_shard(out_dir, _shard_name(t, ".warc.gz"),
                              table_to_warc_bytes(t))
        return pa.table({"path": pa.array([final]),
                         "records": pa.array([t.num_rows], pa.int64())})

    # batch_size=None → one call per BLOCK, so shard count == block count
    return ds.map_batches(write_block, batch_format="pyarrow",
                          batch_size=None)


def conversion_record_bytes(url: str, ts_us: int, text: str,
                            *, compress: bool = True) -> bytes:
    """One ``WARC-Type: conversion`` record — the WET layout Common
    Crawl uses for extracted plain text (no HTTP wrapper; body is the
    UTF-8 text, ``Content-Type: text/plain``)."""
    body = text.encode("utf-8")
    rec_id = uuid.uuid5(uuid.NAMESPACE_URL, "wet:" + url)
    headers = [
        b"WARC/1.0",
        b"WARC-Type: conversion",
        b"WARC-Record-ID: <urn:uuid:" + str(rec_id).encode("ascii") + b">",
        b"WARC-Date: " + _warc_date(ts_us).encode("ascii"),
        b"WARC-Target-URI: " + _encode_uri(url),
        b"Content-Type: text/plain",
        b"Content-Length: " + str(len(body)).encode("ascii"),
    ]
    raw = _CRLF.join(headers) + _CRLF + _CRLF + body + _CRLF + _CRLF
    return _gzip_member(raw) if compress else raw


def write_wet(ds, out_dir: str, *, url_col: str = "url",
              ts_col: str = "warc_ts", text_col: str = "extracted_text"):
    """Distributed WET sink for extraction output: each block becomes
    one ``.warc.wet.gz`` shard of conversion records (write-then-rename
    + ``(path, records)`` manifest rows, as :func:`write_warc`). Feed
    it the flagship pipeline's result Dataset directly."""

    def write_block(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"path": pa.array([], pa.string()),
                             "records": pa.array([], pa.int64())})
        urls = t.column(url_col).to_pylist()
        ts = t.column(ts_col).cast(pa.int64()).to_pylist()
        texts = t.column(text_col).to_pylist()
        parts = [warcinfo_bytes()]
        parts += [conversion_record_bytes(u, t_us, x or "")
                  for u, t_us, x in zip(urls, ts, texts)]
        key = t.select([url_col]).rename_columns(["url"])
        final = _commit_shard(out_dir, _shard_name(key, ".warc.wet.gz"),
                              b"".join(parts))
        return pa.table({"path": pa.array([final]),
                         "records": pa.array([t.num_rows], pa.int64())})

    return ds.map_batches(write_block, batch_format="pyarrow",
                          batch_size=None)


def _resolve_paths(source: str | list[str]) -> list[str]:
    """A ``.warc``/``.warc.gz`` file, a list of them, or a directory
    (scanned non-recursively) → sorted path list. Shared by both
    readers so the filename filter can't drift between them."""
    if isinstance(source, str) and os.path.isdir(source):
        return sorted(
            os.path.join(source, f) for f in os.listdir(source)
            if ".warc" in f and not f.startswith("."))
    if isinstance(source, str):
        return [source]
    return list(source)


def read_wet(source: str | list[str]):
    """Read WET (conversion-record) files back into
    ``(url, warc_ts, text)`` — the verification twin of
    :func:`write_wet`."""
    import ray.data

    paths = _resolve_paths(source)
    if not paths:  # empty sink output → empty dataset, not a read error
        return ray.data.from_arrow(pa.table({
            "url": pa.array([], pa.string()),
            "warc_ts": pa.array([], pa.timestamp("us")),
            "text": pa.array([], pa.string())}))
    files = ray.data.read_binary_files(paths)

    def wet_table(urls, ts, texts) -> pa.Table:
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "text": pa.array(texts, pa.string()),
        })

    def parse(batch: pa.Table):
        # chunked generator, as read_warc's parse
        urls, ts, texts = [], [], []
        any_rows = False
        for b in batch.column("bytes"):
            for raw in _iter_raw_records(b.as_py()):
                rec = _parse_conversion(raw)
                if rec is None:
                    continue
                urls.append(rec[0])
                ts.append(rec[1])
                texts.append(rec[2])
                if len(urls) >= PARSE_CHUNK_ROWS:
                    any_rows = True
                    yield wet_table(urls, ts, texts)
                    urls, ts, texts = [], [], []
        if urls or not any_rows:
            yield wet_table(urls, ts, texts)

    return files.map_batches(parse, batch_format="pyarrow")


def _parse_conversion(raw: bytes):
    hdr_end = raw.find(_CRLF + _CRLF)
    if hdr_end < 0:
        return None
    fields: dict[bytes, bytes] = {}
    for line in raw[:hdr_end].split(_CRLF)[1:]:
        k, _, v = line.partition(b":")
        fields[k.strip().lower()] = v.strip()
    if fields.get(b"warc-type", b"") != b"conversion":
        return None
    url = fields.get(b"warc-target-uri", b"").decode("utf-8", "replace")
    ts_us = _parse_warc_date(
        fields.get(b"warc-date", b"1970-01-01T00:00:00Z").decode("ascii", "replace"))
    if ts_us is None:
        return None
    return url, ts_us, raw[hdr_end + 4:].decode("utf-8", "replace")


# --------------------------------------------------------------------------
# record decode
# --------------------------------------------------------------------------

#: Input feed size for the incremental gzip-member scan. One member is
#: decompressed from fixed-size memoryview windows — never a copy of
#: the whole remaining file — so the scan is O(file), not
#: O(members × file) memcpy.
_INFLATE_CHUNK = 1 << 20


def _iter_raw_records(buf: bytes):
    """Yield decompressed record byte-blocks from a WARC file buffer —
    per-member gzip framing (the Common-Crawl layout), or a plain
    concatenated ``.warc`` when the gzip magic is absent. A corrupt or
    truncated tail stops the scan after the last good member instead of
    failing the records already parsed."""
    if buf[:2] != _GZ_MAGIC:
        # plain: split on record boundaries lazily via header scan
        yield from _split_plain_records(buf)
        return
    view = memoryview(buf)
    pos = 0
    n = len(buf)
    while pos < n:
        if view[pos:pos + 2] != _GZ_MAGIC:
            break  # trailing garbage after the last member
        d = zlib.decompressobj(31)
        out: list[bytes] = []
        try:
            while not d.eof and pos < n:
                window = view[pos:pos + _INFLATE_CHUNK]
                out.append(d.decompress(window))
                # on member end, unused_data is the tail OF THIS WINDOW
                pos += len(window) - len(d.unused_data)
        except zlib.error:
            break  # corrupt member: keep everything before it
        if not d.eof:
            break  # truncated final member
        # one member MAY hold several records (non-CC writers)
        yield from _split_plain_records(b"".join(out))


def _content_length(headers: bytes) -> int | None:
    """The ``Content-Length`` of a record's header block, or None when it
    is missing, unparseable or negative."""
    for line in headers.split(_CRLF)[1:]:
        k, _, v = line.partition(b":")
        if k.strip().lower() == b"content-length":
            try:
                clen = int(v.strip())
            except ValueError:
                return None
            return clen if clen >= 0 else None
    return None


def _split_plain_records(buf: bytes):
    """Raw records of a plain buffer, framed by ``Content-Length``. A
    record without a usable length is skipped: the scan resumes at the
    next record boundary (CRLF CRLF then ``WARC/``), so text inside its
    block is never read as records."""
    pos = 0
    n = len(buf)
    while pos < n:
        start = buf.find(b"WARC/", pos)
        if start < 0:
            return
        hdr_end = buf.find(_CRLF + _CRLF, start)
        if hdr_end < 0:
            return
        body_start = hdr_end + 4
        clen = _content_length(buf[start:hdr_end])
        if clen is None:
            nxt = buf.find(_CRLF + _CRLF + b"WARC/", body_start)
            pos = n if nxt < 0 else nxt + 4
            continue
        yield buf[start:body_start + clen]
        pos = body_start + clen


def _parse_record(raw: bytes):
    """One raw record → (type, url, ts_us, lang, http_ctype, payload) or
    None for records without the response structure."""
    hdr_end = raw.find(_CRLF + _CRLF)
    if hdr_end < 0:
        return None
    fields: dict[bytes, bytes] = {}
    for line in raw[:hdr_end].split(_CRLF)[1:]:
        k, _, v = line.partition(b":")
        fields[k.strip().lower()] = v.strip()
    rtype = fields.get(b"warc-type", b"").decode("ascii", "replace")
    if rtype != "response":
        return ("skip", None, None, None, None, None)
    url = fields.get(b"warc-target-uri", b"").decode("utf-8", "replace")
    ts_us = _parse_warc_date(
        fields.get(b"warc-date", b"1970-01-01T00:00:00Z").decode("ascii", "replace"))
    if ts_us is None:
        return None
    lang = fields.get(b"warc-identified-content-language")
    lang_s = lang.decode("ascii", "replace") if lang else "unknown"
    body = raw[hdr_end + 4:]
    # HTTP wrapper: status line + headers, then payload
    http_hdr_end = body.find(_CRLF + _CRLF)
    ctype = b"application/octet-stream"
    if body[:5] == b"HTTP/" and http_hdr_end >= 0:
        for line in body[:http_hdr_end].split(_CRLF)[1:]:
            k, _, v = line.partition(b":")
            if k.strip().lower() == b"content-type":
                ctype = v.strip()
        payload = body[http_hdr_end + 4:]
    else:
        payload = body
    return ("response", url, ts_us, lang_s,
            ctype.decode("ascii", "replace"), payload)


#: Rows per Arrow table yielded by the streaming file parse — bounds a
#: read task's record-accumulation heap by chunk, not by file size
#: (the gzip-member iterator is already incremental, so peak heap is
#: compressed-file bytes + one chunk of decoded records).
PARSE_CHUNK_ROWS = 4096


def _rows_to_table(urls, ts, htmls, texts, langs) -> pa.Table:
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def iter_warc_file_tables(buf: bytes, chunk_rows: int = PARSE_CHUNK_ROWS):
    """Stream-parse one WARC file's bytes → pages-shaped Arrow tables of
    ≤ ``chunk_rows`` rows each. Record iteration is member-by-member,
    so only one chunk of decoded records is ever held."""
    urls: list[str] = []
    ts: list[int] = []
    htmls: list[bytes | None] = []
    texts: list[str] = []
    langs: list[str] = []
    for raw in _iter_raw_records(buf):
        rec = _parse_record(raw)
        if rec is None or rec[0] != "response":
            continue
        _, url, ts_us, lang, ctype, payload = rec
        urls.append(url)
        ts.append(ts_us)
        if ctype.lower().startswith("text/plain"):
            htmls.append(None)
            texts.append(payload.decode("utf-8", "replace"))
        else:
            htmls.append(payload)
            texts.append("")
        langs.append(lang)
        if len(urls) >= chunk_rows:
            yield _rows_to_table(urls, ts, htmls, texts, langs)
            urls, ts, htmls, texts, langs = [], [], [], [], []
    if urls:
        yield _rows_to_table(urls, ts, htmls, texts, langs)


def parse_warc_file_bytes(buf: bytes) -> pa.Table:
    """Whole-file parse → one pages-shaped Arrow table (test/fixture
    surface; the Ray read path streams via
    :func:`iter_warc_file_tables`)."""
    tables = list(iter_warc_file_tables(buf))
    if not tables:
        return _rows_to_table([], [], [], [], [])
    return pa.concat_tables(tables)


def read_warc(source: str | list[str]):
    """Ray Data WARC source: ``read_binary_files`` (one block per file —
    gzip-member framing forces sequential scan within a file, so the
    file is the parallelism unit) → one vectorized parse per file →
    pages-shaped Dataset ``(url, warc_ts, html, text, lang)``.

    ``source``: a ``.warc``/``.warc.gz`` file, a list of them, or a
    directory (scanned non-recursively for ``*.warc*``)."""
    import ray.data

    paths = _resolve_paths(source)
    if not paths:  # empty sink output → empty dataset, not a read error
        return ray.data.from_arrow(_rows_to_table([], [], [], [], []))
    files = ray.data.read_binary_files(paths)

    def parse(batch: pa.Table):
        # generator UDF: yield bounded chunks so a task's heap is
        # O(compressed file + PARSE_CHUNK_ROWS records), not O(file
        # decompressed) — CC files are ~1 GB gz / 3-5 GB inflated
        any_rows = False
        for b in batch.column("bytes"):
            for t in iter_warc_file_tables(b.as_py()):
                any_rows = True
                yield t
        if not any_rows:
            yield _rows_to_table([], [], [], [], [])

    return files.map_batches(parse, batch_format="pyarrow")
