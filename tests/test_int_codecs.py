"""Per-codec golden + property tests (no Ray needed).

Graft of the reference's unit/property strategy
(siphon/test/Test.hs:49-122 golden cases, 147-177 round-trip
property): every codec must satisfy decode(encode(x)) == x
bit-identically, including the columnar analogs of the escaping edge
cases (FIXTURES.md F2)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from colonnade_ray.codecs import Encoded, int_stats, select_int_codec
from colonnade_ray.codecs.base import (
    pack_uints,
    unpack_uints,
    varint_decode,
    varint_encode,
)
from colonnade_ray.codecs.ints import INT_CODECS

RNG = np.random.default_rng(42)

EDGE_ARRAYS = {
    "empty": np.zeros(0, np.int32),
    "single": np.array([123], np.int64),
    "constant": np.full(1000, 7, np.int32),
    "runs": np.repeat(RNG.integers(0, 10, 100), RNG.integers(1, 50, 100)).astype(np.int32),
    "sorted": np.cumsum(RNG.integers(0, 5, 1000)).astype(np.int64),
    "zipf": (RNG.zipf(1.3, 5000) % 50000).astype(np.int32),
    "uniform_high_entropy": RNG.integers(-(2**31), 2**31 - 1, 5000).astype(np.int64),
    "int32_extremes": np.array([0, 1, -1, 2**31 - 1, -(2**31)], np.int64),
    "negative": RNG.integers(-100, 100, 500).astype(np.int16),
    "uint8_full": np.arange(256, dtype=np.uint8).repeat(3),
    "descending": np.arange(1000, 0, -1).astype(np.int32),
    # uint64 values >= 2^63 with a small range: the FOR/bitpack path
    # must compute residuals natively in uint64 (round-2 ADVICE fix)
    "uint64_high": np.uint64(2**63) + RNG.integers(0, 100, 500).astype(np.uint64),
    "uint64_extremes": np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], np.uint64),
}


@pytest.mark.parametrize("codec_name", sorted(INT_CODECS))
@pytest.mark.parametrize("arr_name", sorted(EDGE_ARRAYS))
def test_roundtrip_edges(codec_name, arr_name):
    arr = EDGE_ARRAYS[arr_name]
    codec = INT_CODECS[codec_name]
    enc = codec.encode(arr)
    payload = enc.pack()
    back = codec.decode(Encoded.unpack(codec_name, enc.meta, payload))
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("codec_name", sorted(INT_CODECS))
def test_encode_deterministic(codec_name):
    """Bit-identical across repeated encodes (Ray task retry safety)."""
    arr = EDGE_ARRAYS["zipf"]
    codec = INT_CODECS[codec_name]
    a = codec.encode(arr)
    b = codec.encode(arr)
    assert a.pack() == b.pack()
    assert a.meta == b.meta


def test_selector_never_loses_much():
    """Auto-selector (sizeColumns graft) picks within 5% of true min."""
    for name, arr in EDGE_ARRAYS.items():
        if arr.size < 100:
            continue
        sel, _, _ = select_int_codec(arr)
        actuals = {c: INT_CODECS[c].encode(arr).nbytes() for c in INT_CODECS}
        best = min(actuals.values())
        assert actuals[sel] <= max(int(best * 1.05), best + 64), (name, sel, actuals)


def test_selector_uint64_high():
    """Auto-selected codec must round-trip uint64 >= 2^63 (the selector
    may legitimately pick for_bitpack / rle on the small range)."""
    from colonnade_ray.codecs.columns import encode_int_stream

    for name in ("uint64_high", "uint64_extremes"):
        arr = EDGE_ARRAYS[name]
        enc = encode_int_stream(arr)
        payload = enc.pack()
        back = INT_CODECS[enc.codec].decode(Encoded.unpack(enc.codec, enc.meta, payload))
        assert back.dtype == arr.dtype and np.array_equal(back, arr), (name, enc.codec)
    # repeated-value variant exercises RLE's inner for_bitpack too
    arr = np.repeat(EDGE_ARRAYS["uint64_high"][:20], 50)
    enc = encode_int_stream(arr)
    back = INT_CODECS[enc.codec].decode(
        Encoded.unpack(enc.codec, enc.meta, enc.pack())
    )
    assert np.array_equal(back, arr)


def test_selector_deterministic_tiebreak():
    arr = np.zeros(100, np.int32)
    assert select_int_codec(arr)[0] == select_int_codec(arr)[0]


@given(
    st_h.lists(st_h.integers(min_value=-(2**62), max_value=2**62), max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_int64(vals):
    arr = np.array(vals, dtype=np.int64)
    for codec_name in ("plain", "for_bitpack", "delta_bitpack", "rle"):
        codec = INT_CODECS[codec_name]
        enc = codec.encode(arr)
        back = codec.decode(Encoded.unpack(codec_name, enc.meta, enc.pack()))
        assert np.array_equal(back, arr), codec_name


@given(st_h.lists(st_h.integers(min_value=0, max_value=2**31 - 1), max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_dicts(vals):
    arr = np.array(vals, dtype=np.int32)
    for codec_name in ("dict_bitpack", "dict_varint"):
        codec = INT_CODECS[codec_name]
        enc = codec.encode(arr)
        back = codec.decode(Encoded.unpack(codec_name, enc.meta, enc.pack()))
        assert np.array_equal(back, arr), codec_name


@pytest.mark.parametrize("width", list(range(1, 65)))
def test_pack_unpack_widths(width):
    """Every width 1..64, at lengths that straddle the shift-or
    kernel's residue period (64/gcd(width,64)): shorter than one
    period, exactly one, one-plus, and a large non-multiple."""
    import math

    period = 64 // math.gcd(width, 64)
    for n in (1, period - 1 or 1, period, period + 1, 1003):
        hi = (1 << width) - 1
        v = RNG.integers(0, min(hi, 2**63 - 1) + 1, n, dtype=np.uint64)
        if width == 64:
            v[0] = 2**64 - 1
        if n > 1:
            v[-1] = hi  # max value in the final (spill-prone) slot
        buf = pack_uints(v, width)
        assert len(buf) == (v.size * width + 7) // 8
        assert np.array_equal(unpack_uints(buf, v.size, width), v), (width, n)


def test_varint_roundtrip():
    v = np.concatenate(
        [
            np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**63], np.uint64),
            RNG.integers(0, 2**62, 5000).astype(np.uint64),
        ]
    )
    buf = varint_encode(v)
    assert np.array_equal(varint_decode(buf, v.size), v)


def test_stats_shapes():
    st = int_stats(EDGE_ARRAYS["sorted"])
    assert st.sorted_run and st.dmin >= 0
    st = int_stats(np.zeros(0, np.int32))
    assert st.n == 0


@pytest.mark.parametrize("codec_name", sorted(INT_CODECS))
def test_torn_frame_never_silent(codec_name):
    """D4 graft: a payload truncated at ANY byte boundary (torn frame)
    must raise, never silently decode short/garbage — the columnar
    analog of the reference's one-byte-per-chunk quote corner cases
    (siphon/test/Test.hs:93-122)."""
    arr = EDGE_ARRAYS["zipf"]
    codec = INT_CODECS[codec_name]
    enc = codec.encode(arr)
    payload = enc.pack()
    for cut in (0, 1, len(payload) // 2, len(payload) - 1):
        if cut >= len(payload):
            continue
        torn = payload[:cut]
        try:
            back = codec.decode(Encoded.unpack(codec_name, dict(enc.meta), torn))
        except (ValueError, IndexError, KeyError):
            continue  # loud failure: correct
        assert np.array_equal(back, arr), (
            f"{codec_name} cut={cut}: decoded WRONG data silently"
        )


def test_torn_frame_column_level():
    """Truncated column payloads (string + list columns) raise."""
    import pyarrow as pa

    from colonnade_ray.codecs import decode_column, encode_column

    cols = {
        "strings": pa.array([f"doc-{i:06d}" for i in range(500)]),
        "tokens": pa.array([[i % 50, i % 7, i % 3] for i in range(400)],
                           pa.list_(pa.int32())),
    }
    for name, arr in cols.items():
        payload, meta = encode_column(arr)
        for cut in (1, len(payload) // 3, len(payload) - 2):
            try:
                back = decode_column(payload[:cut], meta)
            except (ValueError, IndexError, KeyError, pa.lib.ArrowInvalid):
                continue
            assert back.equals(arr), f"{name} cut={cut}: silent wrong decode"


def test_torn_frame_chunk_coordinates():
    """decode_chunk_row wraps torn frames into ChunkDecodeError with
    (fragment, chunk, column) coordinates, accumulated not fail-fast."""
    import json

    import pyarrow as pa

    from colonnade_ray.errors import ChunkDecodeError
    from colonnade_ray.stages.decode import decode_chunk_row
    from colonnade_ray.stages.encode import encode_batch

    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(300)]),
            "tokens": pa.array([[i % 9] * 5 for i in range(300)], pa.list_(pa.int32())),
            "n_tok": pa.array([5] * 300, pa.int32()),
            "source": pa.array(["s"] * 300),
        }
    )
    enc = encode_batch(t)  # dict of single-element lists (one chunk row)
    row = {c: v[0] for c, v in enc.items()}
    names = json.loads(row["plan_json"])
    # tear EVERY column's payload -> all columns must appear in the error
    for i in range(len(names)):
        p = row[f"col{i}_payload"]
        row[f"col{i}_payload"] = p[: max(len(p) // 2 - 1, 0)]
    with pytest.raises(ChunkDecodeError) as e:
        decode_chunk_row(row, verify_checksum=False)
    errd = e.value
    assert errd.fragment == row.get("fragment")
    # n_tok is constant -> RLE payload is 0 bytes, nothing to tear;
    # every column with a non-empty payload must be reported
    torn_cols = {c.column for c in errd.cell_errors}
    assert {"doc_id", "tokens", "source"} <= torn_cols
    assert "truncated" in str(errd) or "corrupt" in str(errd)


def test_delta_for_beats_zigzag_on_jittered_intervals():
    """Round-3: deltas are FOR'd (residual = delta - min_delta), so a
    jittered regular interval packs at bit_width(jitter range), not
    bit_width(2*delta)."""
    codec = INT_CODECS["delta_bitpack"]
    x = np.cumsum(RNG.integers(100, 131, 5000)).astype(np.int64)
    enc = codec.encode(x)
    assert np.array_equal(codec.decode(enc), x)
    assert enc.meta["width"] <= 5  # range 30 -> 5 bits (zigzag paid 9)


@pytest.mark.parametrize("codec_name", ["dict_rans_shared", "dict_rans2_shared"])
def test_shared_dict_codec_extras_and_dtypes(codec_name):
    """shared-dict codecs against a PRE-trained table: chunks with
    values the training sample never saw must roundtrip through the
    per-chunk extras stream, across dtypes."""
    from colonnade_ray.codecs.shared_dict import SharedIntDict, register

    rng = np.random.default_rng(3)
    train = (rng.zipf(1.3, 500_000) % 20_000).astype(np.int32)
    sd = register(SharedIntDict.train(train))  # in-process resolve
    codec = INT_CODECS[codec_name]

    cases = {
        "hits-only": sd.by_rank[:100].astype(np.int32),
        "with-extras": np.concatenate(
            [(rng.zipf(1.3, 50_000) % 20_000),
             rng.integers(30_000, 40_000, 777)]).astype(np.int32),
        "all-miss-int64": rng.integers(10**12, 10**13, 500),
        "uint64-wrap": np.array([0, 1, 2**63, 2**64 - 1], np.uint64),
        "negative": rng.integers(-10**6, 10**6, 2_000).astype(np.int64),
        "empty": np.zeros(0, np.int32),
    }
    for name, arr in cases.items():
        enc = codec.encode_shared(arr, sd)
        payload = enc.pack()
        back = codec.decode(Encoded.unpack(enc.codec, enc.meta, payload))
        assert back.dtype == arr.dtype, name
        assert np.array_equal(back, arr), name
        assert enc.meta["dict"]["ref"] == sd.ref

    # a chunk with extras must be SMALLER than carrying its own dict
    arr = cases["with-extras"]
    assert codec.encode_shared(arr, sd).nbytes() < \
        INT_CODECS["dict_rans"].encode(arr).nbytes()


def test_shared_rans2_beats_escape_layout_on_zipf():
    """The half-octave selector (dict_rans2_shared) exists to remove
    the escape class's flat-W overpay and the within-octave
    non-uniformity; on a Zipf token stream it must never lose to the
    escape layout (the measured win on the flagship chunk profile is
    ~0.05 bits/token — BASELINE.md round 4)."""
    from colonnade_ray.codecs.shared_dict import SharedIntDict, register

    rng = np.random.default_rng(11)
    train = (rng.zipf(1.2, 2_000_000) % 50_000).astype(np.int32)
    sd = register(SharedIntDict.train(train))
    chunk = (rng.zipf(1.2, 400_000) % 50_000).astype(np.int32)
    e1 = INT_CODECS["dict_rans_shared"].encode_shared(chunk, sd)
    e2 = INT_CODECS["dict_rans2_shared"].encode_shared(chunk, sd)
    assert e2.nbytes() < e1.nbytes()
    assert np.array_equal(INT_CODECS["dict_rans2_shared"].decode(e2), chunk)


def test_shared_dict_sidecar_roundtrip(tmp_path):
    """save/load through the engine's own int cascade, hash-verified."""
    from colonnade_ray.codecs import shared_dict as sdmod

    rng = np.random.default_rng(4)
    sd = sdmod.SharedIntDict.train(rng.integers(0, 5_000, 200_000))
    path = sd.save(str(tmp_path))
    assert os.path.getsize(path) < sd.by_rank.nbytes // 3  # compressed
    back = sdmod.SharedIntDict.load(path, expect_ref=sd.ref)
    assert np.array_equal(back.by_rank, sd.by_rank)

    # corrupting the payload must fail the content hash, not decode junk
    raw = bytearray(open(path, "rb").read())
    raw[-3] ^= 0xFF
    bad = str(tmp_path / "bad.bin")
    open(bad, "wb").write(bytes(raw))
    try:
        sdmod.SharedIntDict.load(bad, expect_ref=sd.ref)
        assert False, "corrupt sidecar verified?"
    except Exception:
        pass
