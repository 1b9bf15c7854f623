"""Near-duplicate sketches: shingles, MinHash, SimHash, n-gram Jaccard.

Deterministic hashing throughout (no Python ``hash``); numpy-vectorized
per document. These feed the LSH-bucketed dedup pipelines in
``stages/dedup_docs.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .fasthash import md5_number_lower
from .textstats import terms

_MERSENNE_P = (1 << 61) - 1
_MASK64 = (1 << 64) - 1


def _stable_hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


#: Odd multiplier for the polynomial window combine (golden-ratio prime).
_POLY_C = np.uint64(0x9E3779B97F4A7C15)


def token_hashes(toks: list[str], cache: dict[str, int] | None = None) -> np.ndarray:
    """Per-token stable 64-bit hashes; ``cache`` amortizes blake2b across
    documents (natural-language token vocabularies are tiny relative to
    token counts, so a per-worker cache turns hashing ~O(tokens) blake2b
    calls into ~O(vocab))."""
    if cache is None:
        return np.fromiter((_stable_hash64(t) for t in toks), dtype=np.uint64,
                           count=len(toks))
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = _stable_hash64(t)
            cache[t] = h
        out[i] = h
    return out


def shingle_hashes(text: str, k: int = 5, cache: dict[str, int] | None = None) -> np.ndarray:
    """Distinct k-token shingle hashes as uint64 array (sorted).

    Shingle hash = positional polynomial over the window's token hashes
    (``Σ tok_hash[i+j] · C^j`` in wrapping uint64) — vectorized with k
    shifted adds instead of one string-hash per shingle."""
    toks = terms(text)
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = token_hashes(toks, cache)
    k_eff = min(k, len(toks))
    n = len(toks) - k_eff + 1
    acc = np.zeros(n, dtype=np.uint64)
    c = 1  # multiplier chain in Python ints masked to 64 bits — wraparound
    for j in range(k_eff):  # is intended; a np.uint64 scalar multiply warns
        acc += th[j:j + n] * np.uint64(c)
        c = (c * int(_POLY_C)) & _MASK64
    return np.unique(acc)


def minhash_params(num_hashes: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) parameter vectors for x → (a*x + b) mod p."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE_P, size=num_hashes, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE_P, size=num_hashes, dtype=np.uint64)
    return a, b


def _affine_mod_matrix(x: np.ndarray, a0: np.ndarray, a1: np.ndarray,
                       bmod: np.ndarray) -> np.ndarray:
    """(a*x + b) mod p for every (hash, shingle) pair → (m, s) uint64.

    Exact mod-p arithmetic, p = 2^61-1, fully vectorized in uint64 by
    splitting the multiply into <2^62 partial products and reducing with
    the Mersenne identity 2^61 ≡ 1 (mod p). ``x`` must already be < p;
    ``a1``/``a0``/``bmod`` are the (m,1) split/reduced parameter columns.
    """
    p = np.uint64(_MERSENNE_P)
    x1 = x >> np.uint64(31)                                  # < 2^30
    x0 = x & np.uint64(0x7FFFFFFF)                           # < 2^31

    def red(v):  # one folding step: v < 2^64 → < 2^61 + small
        return (v & p) + (v >> np.uint64(61))

    def shl31_mod(v):  # (v * 2^31) mod p for v < 2^62
        v = red(v)
        return red(((v & np.uint64((1 << 30) - 1)) << np.uint64(31)) + (v >> np.uint64(30)))

    hi = a1 * x1[None, :]                                    # < 2^60, × 2^62
    mid = a1 * x0[None, :] + a0 * x1[None, :]                # < 2^62, × 2^31
    lo = a0 * x0[None, :]                                    # < 2^62
    # hi × 2^62 ≡ hi × 2 (mod p)
    acc = red(red(hi << np.uint64(1)) + shl31_mod(mid))
    acc = red(red(acc + red(lo)) + bmod)
    acc = red(acc)
    return np.where(acc >= p, acc - p, acc)


def _split_params(a: np.ndarray, b: np.ndarray):
    a64 = a.astype(np.uint64) % np.uint64(_MERSENNE_P)
    a1 = (a64 >> np.uint64(31))[:, None]                     # (m,1) < 2^30
    a0 = (a64 & np.uint64(0x7FFFFFFF))[:, None]              # (m,1) < 2^31
    bmod = (b.astype(np.uint64) % np.uint64(_MERSENNE_P))[:, None]
    return a0, a1, bmod


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature (uint64[num_hashes]); empty doc → all-max sentinel."""
    m = len(a)
    if shingles.size == 0:
        return np.full(m, _MASK64, dtype=np.uint64)
    a0, a1, bmod = _split_params(a, b)
    x = shingles.astype(np.uint64) % np.uint64(_MERSENNE_P)
    return _affine_mod_matrix(x, a0, a1, bmod).min(axis=1).astype(np.uint64)


#: Shingle-axis chunk for the batched signature kernel. Small on purpose:
#: a (128 × 256) uint64 temporary is 256 KB, so the ~8 temporaries of one
#: chunk stay L2-resident — measured 2.3× faster than 16k chunks (which
#: stream ~16 MB per kernel through DRAM) and 1.7× faster than the
#: per-document kernel (which pays ~10 numpy launches per doc).
_SIG_CHUNK = 256


def minhash_signatures_batch(shingle_arrays: list[np.ndarray], a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Signatures for MANY documents in one set of numpy kernels →
    (n_docs, num_hashes) uint64. Identical values to per-doc
    :func:`minhash_signature` (tested); the win is that the ~10 kernel
    launches amortize over every shingle in the batch instead of firing
    per document — the shingles concatenate into one axis and per-doc
    mins come from ``np.minimum.reduceat`` over segment boundaries."""
    m = len(a)
    n = len(shingle_arrays)
    out = np.full((n, m), _MASK64, dtype=np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((s.size for s in shingle_arrays), dtype=np.int64, count=n)
    nonempty = np.nonzero(lens)[0]
    if nonempty.size == 0:
        return out
    p = np.uint64(_MERSENNE_P)
    x_all = np.concatenate([shingle_arrays[i] for i in nonempty]).astype(np.uint64) % p
    doc_of = np.repeat(nonempty, lens[nonempty])
    a0, a1, bmod = _split_params(a, b)
    pos = 0
    total = x_all.size
    while pos < total:
        end = min(pos + _SIG_CHUNK, total)
        acc = _affine_mod_matrix(x_all[pos:end], a0, a1, bmod)   # (m, chunk)
        didx = doc_of[pos:end]
        starts = np.nonzero(np.r_[True, didx[1:] != didx[:-1]])[0]
        mins = np.minimum.reduceat(acc, starts, axis=1)          # (m, nseg)
        segs = didx[starts]                                      # unique within chunk
        out[segs] = np.minimum(out[segs], mins.T)
        pos = end
    return out


def band_hash_matrix(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """(docs, num_hashes) signatures → (docs, num_bands) uint64 band keys,
    fully vectorized (FNV-1a over the band's rows, folded with the band
    index so identical values in different bands cannot collide)."""
    d, m = sigs.shape
    rows = m // num_bands
    r = sigs[:, : num_bands * rows].reshape(d, num_bands, rows)
    acc = np.full((d, num_bands), 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for j in range(rows):
        acc = (acc ^ r[:, :, j]) * prime
    acc = (acc ^ np.arange(num_bands, dtype=np.uint64)[None, :]) * prime
    return acc


def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


def exact_jaccard(sh_a: np.ndarray, sh_b: np.ndarray) -> float:
    if sh_a.size == 0 and sh_b.size == 0:
        return 1.0
    inter = np.intersect1d(sh_a, sh_b, assume_unique=True).size
    union = sh_a.size + sh_b.size - inter
    return inter / union if union else 0.0


#: Worker-global gram-string → md5-low64 memo shared by every stage
#: that hashes exploded gram columns (winnow, jaccard); grams repeat
#: heavily across batches in boilerplate-rich corpora. Bounded like the
#: simhash token cache.
_GRAM_HASH_CACHE: dict[str, int] = {}


def md5_gram_hashes(grams) -> np.ndarray:
    """md5-low64 (uint64) per gram INSTANCE of an Arrow string array,
    hashing each DISTINCT gram string once (worker-cached dictionary
    encode) — the vectorized batch twin of :func:`md5_number_lower`."""
    de = grams.dictionary_encode()
    uniq = de.dictionary.to_pylist()
    cache = _GRAM_HASH_CACHE
    if len(cache) > 1_000_000:
        cache.clear()
    uh = np.empty(len(uniq), dtype=np.uint64)
    for i, g in enumerate(uniq):
        h = cache.get(g)
        if h is None:
            h = md5_number_lower(g)
            cache[g] = h
        uh[i] = h
    return uh[de.indices.to_numpy(zero_copy_only=False)]


def simhash64(text: str, cache: dict[str, int] | None = None) -> int:
    """64-bit SimHash over md5-low64 token hashes (unweighted), fully
    vectorized: bit matrix via ``np.unpackbits``, strict-majority per
    bit. Deterministic and DuckDB-oracle-reproducible (see
    ``oracle_sql()['doc_simhash']``)."""
    toks = terms(text)
    if not toks:
        return 0
    if cache is None:
        hs = np.fromiter((md5_number_lower(t) for t in toks), dtype=np.uint64, count=len(toks))
    else:
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = cache.get(t)
            if h is None:
                h = md5_number_lower(t)
                cache[t] = h
            out[i] = h
        hs = out
    bits = np.unpackbits(hs.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    maj = (bits.sum(axis=0, dtype=np.int64) * 2) > len(toks)  # strict majority
    return int.from_bytes(
        np.packbits(maj.astype(np.uint8), bitorder="little").tobytes(), "little"
    )


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
