"""Training-window chunking: explode each document into fixed-size
token windows with overlap — the context-window preparation step of an
LLM training pipeline (pack/stride before tokenizer-level packing).

Scale shape (100 TB): a pure per-row explode inside ``map_batches`` —
no shuffle, no state, output streams block-by-block. Chunk text leaves
the stage as an md5 digest in the audit/query surface (the production
sink would project the window text itself; same kernel, one column
swap), so the comparison surface is narrow.

Window rule (pinned, mirrored in the DuckDB oracle): windows start at
token offsets 0, S, 2S, … strictly below the token count; a window
keeps up to W tokens; tail windows shorter than ``min_keep`` are
dropped unless they are the document's ONLY window (a short doc is one
short chunk, never zero).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..functions.textstats import terms

DEFAULT_WINDOW = 64
DEFAULT_STRIDE = 48
DEFAULT_MIN_KEEP = 16


def doc_chunks(text: str, window: int, stride: int, min_keep: int):
    """[(chunk_idx, start_tok, n_tokens, chunk_text)] for one document.

    Tokens are the terms of the shared term rule
    (``functions/textstats.terms``), space-rejoined — chunk text is a
    normalized rendering, not a byte slice of the original.
    """
    toks = terms(text)
    n = len(toks)
    if n == 0:
        return []
    out = []
    idx = 0
    for start in range(0, n, stride):
        win = toks[start:start + window]
        if len(win) < min_keep and start > 0:
            break  # tail too short to train on; earlier window covers it
        out.append((idx, start, len(win), " ".join(win)))
        idx += 1
        if start + window >= n:
            break  # the remaining starts would only re-slice covered tokens
    return out


def chunk_documents(docs_ds, window: int = DEFAULT_WINDOW,
                    stride: int = DEFAULT_STRIDE,
                    min_keep: int = DEFAULT_MIN_KEEP,
                    id_col: str = "doc_id", text_col: str = "text"):
    """docs → one row per training window:
    (doc_id, chunk_idx, start_tok, n_tokens, chunk_md5)."""
    if stride <= 0 or window <= 0 or stride > window:
        raise ValueError("need 0 < stride <= window")

    def explode(batch: pa.Table) -> pa.Table:
        ids, cidx, starts, ns, digests = [], [], [], [], []
        for doc_id, text in zip(batch.column(id_col).to_pylist(),
                                batch.column(text_col).to_pylist()):
            for i, start, n_tok, chunk in doc_chunks(text, window, stride, min_keep):
                ids.append(doc_id)
                cidx.append(i)
                starts.append(start)
                ns.append(n_tok)
                digests.append(hashlib.md5(chunk.encode()).hexdigest())
        return pa.Table.from_arrays(
            [pa.array(ids, pa.int64()), pa.array(cidx, pa.int64()),
             pa.array(starts, pa.int64()), pa.array(ns, pa.int64()),
             pa.array(digests, pa.string())],
            names=["doc_id", "chunk_idx", "start_tok", "n_tokens", "chunk_md5"],
        )

    return docs_ds.map_batches(explode, batch_format="pyarrow")
