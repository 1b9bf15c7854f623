"""Corpus-global boilerplate line removal (RefinedWeb / CCNet-style):
drop every line that occurs in ≥ K distinct documents ("Page 1",
copyright footers, nav crumbs) from every document's extracted text.

Scale shape (100 TB):
- Pass 1 (line document-frequency) pre-aggregates INSIDE each batch —
  the shuffle carries one ``(line, partial_df)`` row per distinct line
  per batch (each input row is one whole document, so batch-local doc
  counts are exact partials); ``groupby(line).sum`` finishes it. The
  shuffle is 2 columns wide; payloads never move.
- The DROP-SET (lines with df ≥ K) is small by construction — every
  member needs K distinct documents, so |drop| ≤ total_lines / K, and
  in practice boilerplate is a tiny vocabulary. It is folded to the
  driver as exact strings up to :data:`DROP_SET_MAX` lines, past that
  as sorted 64-bit line hashes (:func:`_drop_set`, hard cap
  :data:`DROP_HASH_MAX`), and broadcast once via ``ray.put``,
  deserialized once per worker process (``worker_state``).
- Pass 2 re-streams the documents and filters lines locally — no
  second shuffle; output is one narrow row per document.

Lines cross the shuffle as STRINGS (not 64-bit hashes): a hash
collision would silently drop an innocent line, and the compare
contract is exact string semantics mirrored in the DuckDB oracle. The
hash representation only runs where the string set is too big to
broadcast.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pyarrow as pa
from ..functions.collect import fold_capped
from ..state.worker import worker_state

#: Default document-frequency threshold: a line present in this many
#: distinct documents is boilerplate.
DEFAULT_MIN_DF = 5

#: Largest drop-set broadcast as Python STRINGS — a 2M-line frozenset
#: is ~100s of MB deserialized per worker process; a bigger one is
#: broadcast in the hash64 representation instead.
DROP_SET_MAX = 2_000_000

#: Cap for the hash64 drop-set representation: a sorted uint64 numpy
#: array costs 8 bytes/line (160 MB at cap) and probes vectorized via
#: ``searchsorted`` — the 100-TB representation.
DROP_HASH_MAX = 20_000_000


def _partial_line_df(batch: pa.Table, text_col: str) -> pa.Table:
    """One output row per distinct non-empty line in the batch, counting
    how many of the batch's documents contain it."""
    counts: Counter = Counter()
    for text in batch.column(text_col).to_pylist():
        if text:
            counts.update({ln for ln in text.split("\n") if ln})
    lines = sorted(counts)
    return pa.Table.from_arrays(
        [pa.array(lines, pa.string()),
         pa.array([counts[ln] for ln in lines], pa.int64())],
        names=["line", "partial_df"],
    )


#: Distinct-line bound for the driver-fold DF plan: above this the line
#: vocabulary is folded through the distributed ``groupby(line)``
#: shuffle instead.
DRIVER_FOLD_LINE_MAX = 5_000_000

_LINE_DF_SCHEMA = pa.schema([("line", pa.string()), ("partial_df", pa.int64())])


def boilerplate_lines_ref(docs_ds, min_df: int = DEFAULT_MIN_DF,
                          text_col: str = "extracted_text"):
    """docs → ``ray.put`` handle of the boilerplate drop-set (df ≥
    min_df), in the representation :func:`_drop_set` picks.

    The line DF folds the combiner partials on the driver (no shuffle;
    measured 8.6 s → ~3 s at sf0.1, where the shuffle dominated) while
    the distinct-line vocabulary fits :data:`DRIVER_FOLD_LINE_MAX`, else
    runs the distributed ``groupby(line).sum`` over the same partials
    and streams only the filtered drop-set. Both produce the identical
    set (tested), and the documents are mapped once either way."""
    import ray

    partials = docs_ds.map_batches(_partial_line_df, batch_format="pyarrow",
                                   fn_kwargs={"text_col": text_col})
    df_tbl, rest = fold_capped(partials, _LINE_DF_SCHEMA, ["line"],
                               [("partial_df", "sum")], DRIVER_FOLD_LINE_MAX)
    if rest is None:
        tables = [df_tbl]
    else:
        from ray.data.aggregate import Sum

        tables = (rest.groupby("line")
                  .aggregate(Sum("partial_df", alias_name="partial_df"))
                  .iter_batches(batch_format="pyarrow"))
    return ray.put(_drop_set(
        t.filter(pa.compute.greater_equal(t.column("partial_df"), min_df))
        .column("line") for t in tables if t.num_rows))


def _drop_set(chunks):
    """Boilerplate lines, streamed as string arrays → the frozenset of
    lines up to :data:`DROP_SET_MAX` lines, else the SORTED uint64 array
    of their hash64 values (``functions/fasthash.py``) — the scale
    representation: 8 bytes/line broadcast, vectorized ``searchsorted``
    probe, capped at :data:`DROP_HASH_MAX`.

    The drop decision becomes hash-based: with |drop| = 2·10⁷ and 64-bit
    hashes the chance ANY innocent corpus line collides into the set is
    ~|corpus|·|drop|/2⁶⁴ (≈ 1e-5 even at 10¹² lines) — documented,
    non-exact; the string set stays the exact representation up to
    :data:`DROP_SET_MAX`."""
    import numpy as np

    from ..functions.fasthash import hash64_bytes_column

    lines: set = set()
    hashes: list = []
    total = 0
    for chunk in chunks:
        total += len(chunk)
        if total > DROP_HASH_MAX:
            raise ValueError(
                f"boilerplate drop-set exceeds DROP_HASH_MAX={DROP_HASH_MAX}: "
                "min_df is too low for this corpus")
        hashes.append(hash64_bytes_column(chunk))
        if total <= DROP_SET_MAX:
            lines.update(chunk.to_pylist())
    if total <= DROP_SET_MAX:
        return frozenset(lines)
    return np.sort(np.concatenate(hashes))


def _clean_batch_hash(batch: pa.Table, drop, text_col: str) -> pa.Table:
    """Hash64 drop-set probe, fully vectorized: split lines with one
    Arrow kernel, hash the FLAT line array, binary-search the sorted
    drop array, reassemble kept lines per doc with ``binary_join``."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.fasthash import hash64_bytes_column

    texts = batch.column(text_col)
    nonempty = pc.and_(pc.is_valid(texts),
                       pc.not_equal(pc.fill_null(texts, ""), ""))
    t = batch.filter(nonempty)
    if t.num_rows == 0:
        return pa.table({"url": pa.array([], pa.string()),
                         "n_kept": pa.array([], pa.int64()),
                         "n_dropped": pa.array([], pa.int64()),
                         "kept_md5": pa.array([], pa.string())})
    lines = pc.split_pattern(t.column(text_col), "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = lines.flatten()
    offsets = np.asarray(lines.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    h = hash64_bytes_column(flat)
    if len(drop):
        idx = np.clip(np.searchsorted(drop, h), 0, len(drop) - 1)
        keep = drop[idx] != h
    else:
        keep = np.ones(len(h), bool)
    n_lines = np.diff(offsets)
    doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), n_lines)
    n_kept = np.bincount(doc_of[keep], minlength=t.num_rows)
    new_off = np.zeros(t.num_rows + 1, np.int64)
    np.cumsum(n_kept, out=new_off[1:])
    kept_list = pa.ListArray.from_arrays(
        pa.array(new_off, pa.int32()), flat.filter(pa.array(keep)))
    joined = pc.binary_join(kept_list, "\n")
    digests = [hashlib.md5(s.encode()).hexdigest()
               for s in joined.to_pylist()]
    return pa.Table.from_arrays(
        [t.column("url"),
         pa.array(n_kept.astype(np.int64), pa.int64()),
         pa.array((n_lines - n_kept).astype(np.int64), pa.int64()),
         pa.array(digests, pa.string())],
        names=["url", "n_kept", "n_dropped", "kept_md5"],
    )


def _clean_batch(batch: pa.Table, drop_ref, text_col: str) -> pa.Table:
    import numpy as np
    import ray

    drop = worker_state("linededup_drop", drop_ref.hex(), lambda: ray.get(drop_ref))
    if isinstance(drop, np.ndarray):
        return _clean_batch_hash(batch, drop, text_col)
    urls, n_kept, n_dropped, digests = [], [], [], []
    for url, text in zip(batch.column("url").to_pylist(),
                         batch.column(text_col).to_pylist()):
        if not text:
            continue
        lines = text.split("\n")
        kept = [ln for ln in lines if ln not in drop]
        urls.append(url)
        n_kept.append(len(kept))
        n_dropped.append(len(lines) - len(kept))
        digests.append(hashlib.md5("\n".join(kept).encode()).hexdigest())
    return pa.Table.from_arrays(
        [pa.array(urls, pa.string()), pa.array(n_kept, pa.int64()),
         pa.array(n_dropped, pa.int64()), pa.array(digests, pa.string())],
        names=["url", "n_kept", "n_dropped", "kept_md5"],
    )


def boilerplate_line_dedup(docs_ds, min_df: int = DEFAULT_MIN_DF,
                           text_col: str = "extracted_text"):
    """docs (url, text) → per-doc (url, n_kept, n_dropped, kept_md5)
    after removing every line present in ≥ min_df distinct documents.

    ``kept_md5`` digests the cleaned text so the full rewrite is
    verifiable without shipping it; a production sink would emit the
    cleaned text column instead (same kernel, different projection).
    Documents whose text is empty are passed over (nothing to clean).
    The drop-set is exact strings up to :data:`DROP_SET_MAX` lines, else
    hash64 (:func:`boilerplate_lines_ref`); both clean identically
    (tested) bar a documented ~2⁻⁶⁴-per-comparison collision."""
    ref = boilerplate_lines_ref(docs_ds, min_df, text_col)
    return docs_ds.map_batches(_clean_batch, batch_format="pyarrow",
                               fn_kwargs={"drop_ref": ref, "text_col": text_col})
