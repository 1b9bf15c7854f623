"""RIFF/WAV PCM codec: round-trips, chunk handling, error paths, and the
float-waveform media decode (mono probe payloads, stereo downmix)."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from horizon_ocr_python_ray.functions.wav import WavError, decode_wav, encode_wav


def test_mono_roundtrip():
    rng = np.random.default_rng(1)
    s = rng.integers(-32768, 32768, 1234).astype(np.int16)
    out, rate = decode_wav(encode_wav(s, 16000))
    assert rate == 16000
    assert out.dtype == np.int16 and out.shape == (1234,)
    assert (out == s).all()


def test_stereo_roundtrip():
    rng = np.random.default_rng(2)
    s = rng.integers(-32768, 32768, (500, 2)).astype(np.int16)
    out, rate = decode_wav(encode_wav(s, 8000))
    assert rate == 8000
    assert out.shape == (500, 2)
    assert (out == s).all()


def test_unknown_chunks_are_skipped():
    s = np.arange(100, dtype=np.int16)
    wav = encode_wav(s, 8000)
    # splice a LIST chunk (odd length → word-aligned) between fmt and data
    fmt_end = wav.index(b"data")
    extra = b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"
    spliced = wav[:fmt_end] + extra + wav[fmt_end:]
    spliced = spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]
    out, rate = decode_wav(spliced)
    assert (out == s).all() and rate == 8000


def test_error_paths():
    with pytest.raises(WavError):
        decode_wav(b"nope")
    with pytest.raises(WavError):
        decode_wav(b"RIFF\x00\x00\x00\x00WAVX")
    good = encode_wav(np.zeros(10, np.int16), 8000)
    with pytest.raises(WavError):
        decode_wav(good[:20])  # truncated
    # non-PCM format code rejected
    bad = bytearray(good)
    bad[good.index(b"fmt ") + 8] = 3  # format 3 = IEEE float
    with pytest.raises(WavError):
        decode_wav(bytes(bad))


def test_media_audio_payloads_are_real_wav():
    from horizon_ocr_python_ray.stages.multimodal import (
        _decode_audio,
        gen_media_probe_table,
    )

    t = gen_media_probe_table(45, seed=42)
    rows = t.to_pylist()
    auds = [r for r in rows if r["kind"] == "audio"]
    assert auds
    for r in auds:
        s, rate = decode_wav(r["payload"])
        assert rate == r["meta"]["sample_rate"]
        assert s.ndim == 1
        wave = _decode_audio(r["payload"], r["meta"])
        assert wave.ndim == 1 and np.abs(wave).max() <= 1.0
        # the planted md5-noise samples have real energy, not silence
        assert float(np.sqrt((wave ** 2).mean())) > 0.05
    # the probe rows are mono: build a stereo payload to run the downmix
    s2 = np.stack([s, np.roll(s, 7)], 1)
    wave2 = _decode_audio(encode_wav(s2, rate), {})
    assert wave2.ndim == 1 and wave2.dtype == np.float32
    assert np.array_equal(wave2, s2.astype(np.float32).mean(axis=1) / 32768)
    assert not np.array_equal(wave2, s.astype(np.float32) / 32768)
