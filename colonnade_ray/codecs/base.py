"""Codec core: the atoms of the engine.

Graft of the reference's column-encoder atom ``OneColonnade h a c``
(reference: colonnade/src/Colonnade/Encode.hs:530-534 — a column is a
(header, cell-encode-function) pair) and its dual decoder ``Siphon``
(reference: siphon/src/Siphon/Types.hs:61-74).  Here the atom is a
*chunk codec*: a named, deterministic pair of

    encode(np.ndarray) -> Encoded(codec, meta, parts)
    decode(Encoded)    -> np.ndarray

over one column chunk, plus an ``estimate(stats) -> int`` used by the
two-pass auto-selector (graft of ``sizeColumns``,
colonnade/src/Colonnade/Encode.hs:177-201).

Determinism contract (bit-identical round-trip across Ray task
retries): every codec must be a pure function of its input buffer —
no floats in any size/route decision, fixed tie-breaks, no wall-clock
or RNG.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

# ---------------------------------------------------------------------------
# Encoded container


@dataclass
class Encoded:
    """One encoded column-chunk stream.

    ``parts`` is an ordered list of raw byte buffers (e.g. bit-packed
    words, run lengths, a dictionary).  ``meta`` is a small
    JSON-serializable dict of codec parameters needed for decode.
    Graft of the reference's cell-with-sideband ``Cell`` (content +
    attributes, blaze-colonnade/src/Text/Blaze/Colonnade.hs:263-300):
    payload bytes travel with their side-band metadata.
    """

    codec: str
    meta: dict
    parts: list = field(default_factory=list)

    def nbytes(self) -> int:
        return sum(len(p) for p in self.parts)

    def pack(self) -> bytes:
        """Frame parts into one buffer (lengths recorded in meta).

        Length-prefix framing is the columnar analog of the reference's
        RFC-4180 quoting (siphon/src/Siphon.hs:297-334): byte-exact
        cell boundaries without escaping.
        """
        self.meta["part_lens"] = [len(p) for p in self.parts]
        return b"".join(bytes(p) for p in self.parts)

    @staticmethod
    def unpack(codec: str, meta: dict, payload: bytes) -> "Encoded":
        lens = meta["part_lens"]
        parts, off = [], 0
        for n in lens:
            parts.append(payload[off : off + n])
            off += n
        return Encoded(codec, meta, parts)


# ---------------------------------------------------------------------------
# Chunk statistics (single vectorized pass; feeds every estimator)


@dataclass
class ChunkStats:
    """One-pass stats over an integer chunk — the measurement half of
    the reference's two-pass ``sizeColumns`` (Encode.hs:156-201)."""

    n: int
    itemsize: int
    vmin: int = 0
    vmax: int = 0
    n_runs: int = 0          # count of value-change boundaries + 1
    ndv_sample: int = 0      # distinct values in the sample
    sample_n: int = 0
    dmin: int = 0            # min of consecutive deltas
    dmax: int = 0            # max of consecutive deltas
    sorted_run: bool = False  # monotone non-decreasing?
    top_counts: Optional[np.ndarray] = None  # sample freq counts desc (for varint est)


def int_stats(arr: np.ndarray, sample: int = 4096) -> ChunkStats:
    n = int(arr.size)
    st = ChunkStats(n=n, itemsize=arr.dtype.itemsize)
    if n == 0:
        st.n_runs = 0
        return st
    a = arr
    st.vmin = int(a.min())
    st.vmax = int(a.max())
    if n > 1:
        d = np.diff(a)
        st.n_runs = int(np.count_nonzero(d)) + 1
        st.dmin = int(d.min())
        st.dmax = int(d.max())
        st.sorted_run = st.dmin >= 0
    else:
        st.n_runs = 1
        st.sorted_run = True
    if n <= sample:
        smp = a
    else:
        step = n // sample
        smp = a[:: step][:sample]
    _, counts = np.unique(smp, return_counts=True)
    st.ndv_sample = int(counts.size)
    st.sample_n = int(smp.size)
    st.top_counts = np.sort(counts)[::-1]
    return st


# ---------------------------------------------------------------------------
# Codec protocol + registry


class Codec:
    """User-extension surface (graft of the reference's whole library
    being the extension surface — users supply per-column encode and
    decode functions, colonnade/src/Colonnade.hs:110-120 +
    siphon/src/Siphon.hs:751-763).  Register subclasses in
    ``registry.CODECS``; the auto-selector consults ``estimate``."""

    name: str = "abstract"

    def estimate(self, stats: ChunkStats) -> Optional[int]:
        """Estimated encoded byte size, or None if inapplicable."""
        raise NotImplementedError

    def encode(self, arr: np.ndarray) -> Encoded:
        raise NotImplementedError

    def decode(self, enc: Encoded) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared low-level kernels


def bit_width(v: int) -> int:
    """Bits needed for unsigned value v (0 -> 0)."""
    return int(v).bit_length()


_PACK_SLICE = 1 << 20  # bound temp memory of the bit matrix


def _lane_bytes(width: int) -> int:
    """Smallest power-of-two byte width holding ``width`` bits."""
    for nb in (1, 2, 4, 8):
        if width <= 8 * nb:
            return nb
    raise ValueError(f"width {width} > 64")


def pack_uints(vals: np.ndarray, width: int) -> bytes:
    """Bit-pack unsigned ints at ``width`` bits each (little bit order).

    Strided shift-or word packer: value i lands at stream bits
    [i*width, (i+1)*width), materialized directly into little-endian
    uint64 words.  The bit offsets cycle with period 64/gcd(width,64),
    so one vectorized shift-or per residue class (<= 64 of them, each a
    column view) packs the whole array — no unpackbits bit MATRIX (the
    previous kernel's 8-32x data expansion dominated page-fault churn
    under multi-worker contention; this one's temps are ~1.25x the
    input).  width 0 packs to b"".
    """
    if width == 0 or vals.size == 0:
        return b""
    n = vals.size
    if width in (8, 16, 32, 64):
        return vals.astype(f"<u{width // 8}", copy=False).tobytes()
    import math

    period = 64 // math.gcd(width, 64)
    wpp = width * period // 64          # whole words per period of values
    rows = -(-n // period)
    vp = np.zeros(rows * period, dtype=np.uint64)
    vp[:n] = vals.astype(np.uint64, copy=False)
    vp = vp.reshape(rows, period)
    out = np.zeros(rows * wpp + 1, dtype="<u8")  # +1: spill room for the
    om = out[: rows * wpp].reshape(rows, wpp)    # last residue's overflow
    for r in range(period):
        start = r * width
        col, off = start >> 6, start & 63
        om[:, col] |= vp[:, r] << np.uint64(off)
        if off + width > 64:
            # spill into the NEXT word; when col+1 == wpp that is the
            # next row's word 0, which the flat stride handles uniformly
            out[col + 1 :: wpp][:rows] |= vp[:, r] >> np.uint64(64 - off)
    return out.tobytes()[: (n * width + 7) // 8]


def unpack_uints(buf: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of pack_uints -> uint64 array of length n.

    Validates the frame length up front: a payload truncated mid-word
    (torn frame) raises instead of silently yielding short/garbage
    output — the columnar analog of the reference's one-byte-per-chunk
    quote corner cases (siphon/test/Test.hs:93-122)."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    need = (n * width + 7) // 8
    if len(buf) < need:
        raise ValueError(
            f"bitpack stream truncated: have {len(buf)} bytes, need {need}"
        )
    if width in (8, 16, 32, 64):
        return np.frombuffer(
            buf, dtype=f"<u{width // 8}", count=n
        ).astype(np.uint64, copy=False)
    import math

    # inverse of the strided shift-or packer: value i spans stream bits
    # [i*width, (i+1)*width); one vectorized shift-mask per residue
    # class of the 64/gcd(width,64) cycle — no unpackbits bit matrix
    # (the previous kernel's 8-32x expansion, same rationale as
    # pack_uints above).
    period = 64 // math.gcd(width, 64)
    wpp = width * period // 64
    rows = -(-n // period)
    wbuf = np.zeros(rows * wpp + 1, dtype="<u8")  # +1: spill room for reads
    wbuf.view(np.uint8)[:need] = np.frombuffer(buf, dtype=np.uint8, count=need)
    wm = wbuf[: rows * wpp].reshape(rows, wpp)
    vp = np.empty((rows, period), dtype=np.uint64)
    mask = np.uint64((1 << width) - 1)
    for r in range(period):
        start = r * width
        col, off = start >> 6, start & 63
        v = wm[:, col] >> np.uint64(off)
        if off + width > 64:
            v = v | (wbuf[col + 1 :: wpp][:rows] << np.uint64(64 - off))
        vp[:, r] = v & mask
    return vp.reshape(-1)[:n]


def varint_encode(vals: np.ndarray) -> bytes:
    """LEB128 varint encode of unsigned ints, fully vectorized."""
    v = vals.astype(np.uint64, copy=False)
    if v.size == 0:
        return b""
    # bytes needed per value: ceil(bit_length/7), min 1
    nb = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        if 7 * k >= 64:
            break
        nb += (v >= np.uint64(1 << (7 * k))).astype(np.int64)
    total = int(nb.sum())
    out = np.empty(total, dtype=np.uint8)
    pos = np.concatenate(([0], np.cumsum(nb)[:-1]))
    maxb = int(nb.max())
    for k in range(maxb):
        mask = nb > k
        byte = ((v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[mask] > k + 1).astype(np.uint8) << 7
        out[pos[mask] + k] = byte | cont
    return out.tobytes()


def varint_decode(buf: bytes, n: int) -> np.ndarray:
    """Inverse of varint_encode -> uint64 array of length n."""
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size == 0:
        raise ValueError("varint stream truncated: empty buffer")
    is_end = (raw & 0x80) == 0
    # group id of each byte = count of terminators strictly before it
    gid = np.concatenate(([0], np.cumsum(is_end)[:-1]))
    if gid[-1] != n - 1 or not is_end[-1]:
        raise ValueError(
            "varint stream corrupt: truncated mid-value or wrong count"
        )
    starts = np.concatenate(([0], np.flatnonzero(is_end)[:-1] + 1))
    k = np.arange(raw.size, dtype=np.int64) - starts[gid]  # byte index within value
    payload = (raw & 0x7F).astype(np.uint64)
    vals = np.zeros(n, dtype=np.uint64)
    # ≤10 byte positions per value; each value owns at most one byte at
    # position kk, so plain fancy-index OR-assign is race-free.
    for kk in range(int(k.max()) + 1):
        m = k == kk
        vals[gid[m]] |= payload[m] << np.uint64(7 * kk)
    return vals


# dtype descriptor helpers -------------------------------------------------

_DTYPES = {
    "i1": np.int8, "i2": np.int16, "i4": np.int32, "i8": np.int64,
    "u1": np.uint8, "u2": np.uint16, "u4": np.uint32, "u8": np.uint64,
    "f4": np.float32, "f8": np.float64, "b1": np.bool_,
}


def dtype_code(dt: np.dtype) -> str:
    dt = np.dtype(dt)
    code = f"{dt.kind}{dt.itemsize}"
    if code not in _DTYPES:
        raise ValueError(f"unsupported dtype {dt}")
    return code


def code_dtype(code: str) -> np.dtype:
    return np.dtype(_DTYPES[code])
