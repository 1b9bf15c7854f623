"""Pure-Python/numpy RIFF/WAV PCM codec — the real audio decode for the
media pipelines.

The sandbox ships no audio libraries, but canonical WAV needs only
``struct`` and numpy: RIFF chunk framing, a PCM ``fmt `` header, and a
``data`` chunk of little-endian int16 samples. This replaces the round-2
byte-tiling stand-in so the audio energy kernel
(``stages/multimodal.py:audio_energy_batch``) operates on real decoded
samples. Reference parity: the reference treats audio as out of scope
(it is a document engine); this codec exists because the 100-TB curation
surface treats media as typed binary columns whose decode stage must be
real (SURVEY.md §7 multimodal commitment).

Supported: PCM (format 1), 16-bit, mono or interleaved multi-channel,
any sample rate. Unknown RIFF chunks are skipped (as the spec requires);
truncated or non-WAV payloads raise :class:`WavError`.
"""

from __future__ import annotations

import struct

import numpy as np


class WavError(ValueError):
    pass


def encode_wav(samples: np.ndarray, sample_rate: int) -> bytes:
    """int16 array ``[n]`` (mono) or ``[n, ch]`` (interleaved) → WAV."""
    s = np.asarray(samples, dtype="<i2")
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim != 2:
        raise WavError(f"unsupported sample shape {samples.shape}")
    n, ch = s.shape
    data = s.reshape(-1).tobytes()
    block_align = ch * 2
    fmt = struct.pack("<HHIIHH", 1, ch, sample_rate,
                      sample_rate * block_align, block_align, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes → (int16 array ``[n]`` mono / ``[n, ch]``, sample rate)."""
    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise WavError("not a RIFF/WAVE payload")
    (riff_size,) = struct.unpack_from("<I", payload, 4)
    if riff_size + 8 > len(payload):
        raise WavError("truncated RIFF payload")
    pos = 12
    ch = rate = None
    data = None
    while pos + 8 <= len(payload):
        tag = payload[pos:pos + 4]
        (length,) = struct.unpack_from("<I", payload, pos + 4)
        body = payload[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise WavError(f"truncated chunk {tag!r}")
        pos += 8 + length + (length & 1)  # chunks are word-aligned
        if tag == b"fmt ":
            if length < 16:
                raise WavError("fmt chunk too short")
            audio_format, ch, rate, _br, _ba, bits = struct.unpack_from(
                "<HHIIHH", body)
            if audio_format != 1:
                raise WavError(f"unsupported WAV format {audio_format}")
            if bits != 16:
                raise WavError(f"unsupported bit depth {bits}")
        elif tag == b"data":
            data = body
    if ch is None:
        raise WavError("missing fmt chunk")
    if data is None:
        raise WavError("missing data chunk")
    s = np.frombuffer(data, dtype="<i2")
    if ch > 1:
        s = s[:len(s) - len(s) % ch].reshape(-1, ch)
    return s, int(rate)
