"""Integer-stream codecs: plain, FOR+bitpack, delta+bitpack, RLE,
dict+bitpack, frequency-dict+varint.

Each is the columnar graft of one reference cell-codec shape
(reference: colonnade/src/Colonnade.hs:110-120 constructors compose
into a table encoder; here chunk codecs compose into cascades — RLE
over run values recursively applies FOR+bitpack, dictionary codes are
bit-packed: the `Semigroup` composition of Encode.hs:575-577
re-expressed as codec nesting).

All codecs are deterministic pure functions of the input chunk
(bit-identical round-trip across Ray task retries; ties in the
selector break on codec name order).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import (
    ChunkStats,
    Codec,
    Encoded,
    bit_width,
    code_dtype,
    dtype_code,
    pack_uints,
    unpack_uints,
    varint_decode,
    varint_encode,
)

_META_OVERHEAD = 48  # rough per-chunk metadata cost charged to every codec
_TAIL_SPLIT_MIN = 64  # min dict-tail size worth the sorted-tail split


def _dict_layout(st: "ChunkStats", ndv: int) -> tuple[int, int]:
    """(dict_bytes, escape_payload_width) for the dict_bitlen family:
    rank-ordered head at full range width; past the escape boundary a
    sorted delta-coded tail indexed by the escape payload."""
    wd = bit_width(max(st.vmax - st.vmin, 1))
    T = 1 << 14
    tail = ndv - T
    if tail >= _TAIL_SPLIT_MIN:
        rng = max(st.vmax - st.vmin, 1)
        gap_w = bit_width(max(4 * (rng // max(tail, 1)), 1))
        return (T * wd + tail * min(gap_w, wd) + 7) // 8, bit_width(max(tail - 1, 1))
    return (ndv * wd + 7) // 8, bit_width(max(ndv - 1, 1))

_BINCOUNT_MAX_RANGE = 1 << 22


def _unique_counts(arr: np.ndarray):
    """(uniq sorted, inverse codes, counts) — np.unique semantics, but
    via bincount + lookup-table gather when the value range is small
    (token ids over a bounded vocab): O(n + range) instead of a full
    O(n log n) sort.  Produces byte-identical dictionaries/codes to the
    np.unique path."""
    n = arr.size
    if n == 0:
        return np.zeros(0, arr.dtype), np.zeros(0, np.int64), np.zeros(0, np.int64)
    if arr.dtype.kind in "iu":
        vmin = int(arr.min())
        vmax = int(arr.max())
        rng = vmax - vmin
        if 0 <= rng <= _BINCOUNT_MAX_RANGE:
            if 0 <= vmin and vmax <= _BINCOUNT_MAX_RANGE and arr.dtype != np.uint64:
                # token hot path: non-negative small values need no
                # shift and no int64 copy — bincount the array as-is
                # (one 8B/value pass saved on every dict encode)
                bc = np.bincount(arr, minlength=vmax + 1)
                present = np.flatnonzero(bc)
                uniq = present.astype(arr.dtype)
                counts = bc[present]
                lut = np.zeros(vmax + 1, dtype=np.int32)
                lut[present] = np.arange(present.size, dtype=np.int32)
                return uniq, lut[arr], counts
            if arr.dtype == np.uint64:  # vmin may be >= 2^63
                shifted = (arr - np.uint64(vmin)).astype(np.int64)
            else:
                shifted = (arr.astype(np.int64) - vmin)
            bc = np.bincount(shifted, minlength=rng + 1)
            present = np.flatnonzero(bc)
            if arr.dtype == np.uint64:
                # int64 + big python int would promote to float64 and
                # lose precision above 2^53
                uniq = (present.astype(np.uint64) + np.uint64(vmin)).astype(arr.dtype)
            else:
                uniq = (present + vmin).astype(arr.dtype)
            counts = bc[present]
            lut = np.zeros(rng + 1, dtype=np.int32)
            lut[present] = np.arange(present.size, dtype=np.int32)
            return uniq, lut[shifted], counts
    uniq, inv, counts = np.unique(arr, return_inverse=True, return_counts=True)
    return uniq, inv, counts


_U64_MASK = (1 << 64) - 1


def _to_u64_residuals(arr: np.ndarray, vmin: int) -> np.ndarray:
    """(arr - vmin) as uint64, overflow-safe for the full signed int64
    AND uint64 domains (wraparound subtraction in the uint64 ring is
    exact; vmin >= 2^63 from uint64 columns stays native uint64)."""
    if arr.dtype == np.uint64:
        a = arr
    else:
        a = arr.astype(np.int64, copy=False).view(np.uint64)
    return a - np.uint64(vmin & _U64_MASK)


class PlainCodec(Codec):
    """Raw little-endian buffer — the identity codec; always applicable.

    Graft of the reference's un-escaped passthrough cell
    (siphon/src/Siphon.hs:297-300 fast path)."""

    name = "plain"

    def estimate(self, st: ChunkStats) -> Optional[int]:
        return st.n * st.itemsize + _META_OVERHEAD

    def encode(self, arr: np.ndarray) -> Encoded:
        e = Encoded(self.name, {"dt": dtype_code(arr.dtype), "n": int(arr.size)})
        e.parts = [np.ascontiguousarray(arr).tobytes()]
        return e

    def decode(self, enc: Encoded) -> np.ndarray:
        dt = code_dtype(enc.meta["dt"])
        n = enc.meta["n"]
        need = n * np.dtype(dt).itemsize
        if len(enc.parts[0]) < need:
            raise ValueError(
                f"plain stream truncated: have {len(enc.parts[0])} bytes, need {need}"
            )
        return np.frombuffer(enc.parts[0][:need], dtype=dt)


class ForBitpackCodec(Codec):
    """Frame-of-reference + bit-packing: store min, pack (v - min) at
    the minimal width.  Two-pass measure-then-encode, the direct graft
    of ``sizeColumns`` (colonnade/src/Colonnade/Encode.hs:177-201)."""

    name = "for_bitpack"

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0:
            return _META_OVERHEAD
        rng = st.vmax - st.vmin
        if rng >= 1 << 63:
            return None
        w = bit_width(rng)
        return (st.n * w + 7) // 8 + _META_OVERHEAD

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(vmin=0, width=0)
            return Encoded(self.name, meta, [b""])
        vmin = int(arr.min())
        res = _to_u64_residuals(arr, vmin)
        w = bit_width(int(res.max()))
        meta.update(vmin=vmin, width=w)
        return Encoded(self.name, meta, [pack_uints(res, w)])

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = np.dtype(code_dtype(m["dt"]))
        res = unpack_uints(enc.parts[0], m["n"], m["width"])
        out = res + np.uint64(m["vmin"] & _U64_MASK)  # mirror of encode's ring
        if dt.kind == "u":
            return out.astype(dt)
        return out.view(np.int64).astype(dt)


class DeltaBitpackCodec(Codec):
    """Delta + frame-of-reference on the DELTAS + bit-pack — wins on
    sorted / near-sorted streams (list offsets, monotone ids) AND on
    jittered regular intervals (timestamps: deltas in [100, 130] pack
    at bit_width(30), where a zigzag of the raw deltas would pay
    bit_width(260)).
    Residuals are computed mod 2^64, so wrapped uint64/int64 extremes
    stay exact.  Cascade analog of the reference's combinator
    composition (Encode.hs:575-577)."""

    name = "delta_bitpack"

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0:
            return _META_OVERHEAD
        w = bit_width(st.dmax - st.dmin)  # exact Python ints, no overflow
        return (max(st.n - 1, 0) * w + 7) // 8 + 16 + _META_OVERHEAD

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(first=0, width=0, dbase=0)
            return Encoded(self.name, meta, [b""])
        a = arr.astype(np.int64, copy=False) if arr.dtype != np.int64 else arr
        first = int(a[0])
        with np.errstate(over="ignore"):
            d = np.diff(a)
            dmin = int(d.min()) if d.size else 0
            res = (d - np.int64(dmin)).view(np.uint64)
        w = bit_width(int(res.max())) if res.size else 0
        meta.update(first=first, width=w, dbase=dmin)
        return Encoded(self.name, meta, [pack_uints(res, w)])

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = code_dtype(m["dt"])
        n = m["n"]
        if n == 0:
            return np.zeros(0, dtype=dt)
        raw = unpack_uints(enc.parts[0], n - 1, m["width"])
        with np.errstate(over="ignore"):
            deltas = (raw + np.uint64(m["dbase"] & 0xFFFFFFFFFFFFFFFF)
                      ).view(np.int64)
        out = np.empty(n, dtype=np.int64)
        out[0] = m["first"]
        if n > 1:
            with np.errstate(over="ignore"):
                np.cumsum(deltas, out=out[1:])
                out[1:] += m["first"]
        return out.astype(dt)


class RleCodec(Codec):
    """Run-length encoding: (run values, run lengths), each inner
    stream FOR/bit-packed — the dict→rle→bitpack cascade from
    SURVEY.md §2 T1."""

    name = "rle"

    def __init__(self):
        self._inner = ForBitpackCodec()

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0:
            return _META_OVERHEAD
        if st.vmax - st.vmin >= 1 << 63:
            return None
        wv = bit_width(st.vmax - st.vmin)
        # run lengths unknown exactly; assume avg run length => max len ~ 4x avg
        avg = max(st.n // max(st.n_runs, 1), 1)
        wl = bit_width(4 * avg)
        return (st.n_runs * (wv + wl) + 7) // 8 + 2 * _META_OVERHEAD

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(values={}, lengths={})
            return Encoded(self.name, meta, [b"", b""])
        a = arr
        bound = np.flatnonzero(np.diff(a) != 0) + 1
        starts = np.concatenate(([0], bound))
        ends = np.concatenate((bound, [n]))
        vals = a[starts]
        lens = (ends - starts).astype(np.int64)
        ev = self._inner.encode(vals)
        el = self._inner.encode(lens)
        meta.update(values=ev.meta, lengths=el.meta)
        return Encoded(self.name, meta, [ev.parts[0], el.parts[0]])

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = code_dtype(m["dt"])
        if m["n"] == 0:
            return np.zeros(0, dtype=dt)
        vals = self._inner.decode(Encoded("for_bitpack", m["values"], [enc.parts[0]]))
        lens = self._inner.decode(Encoded("for_bitpack", m["lengths"], [enc.parts[1]]))
        return np.repeat(vals, lens).astype(dt, copy=False)


class DictBitpackCodec(Codec):
    """Sorted-unique dictionary + bit-packed codes; the dictionary
    itself is delta+bitpacked (it is sorted).  Graft of "distinct" as
    dictionary building (SURVEY.md §2.7 set-ops row)."""

    name = "dict_bitpack"

    def __init__(self):
        self._dv = DeltaBitpackCodec()

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0 or st.sample_n == 0:
            return None
        # extrapolate ndv from sample (capped by value range)
        ndv = _extrapolate_ndv(st)
        if ndv >= st.n:  # no repetition benefit
            return None
        w = bit_width(max(ndv - 1, 0))
        est = (st.n * w + 7) // 8 + _dict_store_bytes(st, ndv) + 2 * _META_OVERHEAD
        return est + est // 20  # +5%: ndv extrapolation is the shakiest input

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(ndv=0, width=0, values={})
            return Encoded(self.name, meta, [b"", b""])
        uniq, codes, _ = _unique_counts(arr)
        w = bit_width(int(uniq.size - 1))
        ev = self._dv.encode(uniq)
        meta.update(ndv=int(uniq.size), width=w, values=ev.meta)
        return Encoded(self.name, meta, [pack_uints(codes.astype(np.uint64), w), ev.parts[0]])

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = code_dtype(m["dt"])
        if m["n"] == 0:
            return np.zeros(0, dtype=dt)
        uniq = self._dv.decode(Encoded("delta_bitpack", m["values"], [enc.parts[1]]))
        codes = unpack_uints(enc.parts[0], m["n"], m["width"]).astype(np.int64)
        return uniq[codes].astype(dt, copy=False)


class DictVarintCodec(Codec):
    """Frequency-ordered dictionary + LEB128 varint codes: hot values
    get 1-byte codes — the entropy-ish path for Zipf-distributed token
    ids (FIXTURES.md F1).  Deterministic order: (count desc, value asc)."""

    name = "dict_varint"

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0 or st.sample_n == 0 or st.top_counts is None:
            return None
        ndv = _extrapolate_ndv(st)
        if ndv >= st.n:
            return None
        # code-length distribution from sample frequency ranks; the
        # probability mass of values unseen in the sample follows
        # Good-Turing (≈ singleton fraction) and those land in the rank
        # tail near ndv.
        counts = st.top_counts.astype(np.float64)
        probs = counts / counts.sum()
        ranks = np.arange(probs.size)
        nbytes_per_rank = np.ones(probs.size)
        for k in range(1, 6):
            nbytes_per_rank += (ranks >= (1 << (7 * k))).astype(np.float64)
        avg_seen = float((probs * nbytes_per_rank).sum())
        f1 = float((st.top_counts == 1).sum())
        p_unseen = min(f1 / st.sample_n, 0.9) if st.sample_n < st.n else 0.0
        tail_bytes = max((bit_width(max(ndv - 1, 1)) + 6) // 7, 1)
        avg_bytes = (1 - p_unseen) * avg_seen + p_unseen * tail_bytes
        est = (int(st.n * avg_bytes)
               + _dict_store_bytes(st, ndv, rank_ordered=True) + 2 * _META_OVERHEAD)
        return est + est // 20  # +5% conservative margin, as dict_bitpack

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(ndv=0, values={})
            return Encoded(self.name, meta, [b"", b""])
        uniq, inv, counts = _unique_counts(arr)
        # rank by (count desc, value asc) — deterministic
        order = np.lexsort((np.arange(uniq.size), -counts))
        rank_of = np.empty(uniq.size, dtype=np.int64)
        rank_of[order] = np.arange(uniq.size)
        codes = rank_of[inv]
        # dictionary stored directly in RANK order (by_rank[r] = value
        # with rank r) — no redundant rank permutation stream, same
        # trick as DictBitlenCodec (round-2 cleanup)
        ev = INT_CODECS["for_bitpack"].encode(uniq[order])
        meta.update(ndv=int(uniq.size), values=ev.meta)
        return Encoded(
            self.name, meta,
            [varint_encode(codes.astype(np.uint64)), ev.parts[0]],
        )

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = code_dtype(m["dt"])
        if m["n"] == 0:
            return np.zeros(0, dtype=dt)
        by_rank = INT_CODECS["for_bitpack"].decode(
            Encoded("for_bitpack", m["values"], [enc.parts[1]])
        )
        codes = varint_decode(enc.parts[0], m["n"]).astype(np.int64)
        return by_rank[codes].astype(dt, copy=False)


class DictBitlenCodec(Codec):
    """Frequency-ranked dictionary + bit-length-class coded ranks.

    Gamma-style: a rank r with bit_length b stores a fixed-width class
    selector (4 bits, escape class 15 for b >= 15) plus an implicit-
    leading-one payload of b-1 bits.  Payloads are grouped into one
    fixed-width stream PER CLASS so both directions are pure
    packbits/unpackbits — no per-value bit cursor.  On Zipf-ranked
    token ids this approaches the empirical entropy within ~1 bit
    (measured 0.92 B/token vs 0.86 entropy vs 1.23 varint), which is
    what lets the engine meet/beat parquet-zstd (BASELINE.md) without
    a sequential entropy coder.
    """

    name = "dict_bitlen"
    _SEL_BITS = 4
    _ESCAPE = 15

    def __init__(self):
        self._dv = DeltaBitpackCodec()

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0 or st.sample_n == 0 or st.top_counts is None:
            return None
        ndv = _extrapolate_ndv(st)
        if ndv >= st.n:
            return None
        counts = st.top_counts.astype(np.float64)
        probs = counts / counts.sum()
        ranks = np.arange(1, probs.size + 1)  # pessimistic: rank>=seen rank
        bl = np.ceil(np.log2(ranks + 1)).astype(np.int64)
        dict_bytes, W = _dict_layout(st, ndv)
        payload = np.where(bl >= self._ESCAPE, W, np.maximum(bl - 1, 0))
        bits_seen = float((probs * (self._SEL_BITS + payload)).sum())
        f1 = float((st.top_counts == 1).sum())
        p_unseen = min(f1 / st.sample_n, 0.9) if st.sample_n < st.n else 0.0
        tail_bits = self._SEL_BITS + W
        avg_bits = (1 - p_unseen) * bits_seen + p_unseen * tail_bits
        est = int(st.n * avg_bits) // 8 + dict_bytes + 2 * _META_OVERHEAD
        return est + est // 20

    def encode(self, arr: np.ndarray) -> Encoded:
        n = int(arr.size)
        meta = {"dt": dtype_code(arr.dtype), "n": n}
        if n == 0:
            meta.update(ndv=0, values={}, W=0, class_counts=[])
            return Encoded(self.name, meta, [b"", b""])
        uniq, inv, counts = _unique_counts(arr)
        order = np.lexsort((np.arange(uniq.size), -counts))
        rank_of = np.empty(uniq.size, dtype=np.uint32)  # ndv < 2^32 per chunk
        rank_of[order] = np.arange(uniq.size, dtype=np.uint32)
        ranks = rank_of[inv]
        W = bit_width(int(uniq.size - 1))
        # bit length per UNIQUE value then one gather — avoids an
        # n-sized float64 frexp pass (24B/token of memory traffic on
        # a bandwidth-limited box)
        bl_uniq = np.zeros(uniq.size, dtype=np.uint8)
        nzu = rank_of > 0
        bl_uniq[nzu] = np.frexp(rank_of[nzu].astype(np.float64))[1]
        sel_uniq = np.minimum(bl_uniq, np.uint8(self._ESCAPE))
        sel = sel_uniq[inv]
        sel_meta, parts = self._encode_sel(sel)
        meta.update(sel_meta)
        # ONE stable radix argsort groups ranks by class (original
        # order preserved within a class — the decode contract) instead
        # of 14 full mask+boolean-index passes over the rank stream
        order = np.argsort(sel, kind="stable")
        ranks_sorted = ranks[order]
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(sel, minlength=self._ESCAPE + 1)))
        )
        class_counts = []
        for b in range(2, self._ESCAPE):  # payload width b-1 (classes 0,1 have none)
            seg = ranks_sorted[bounds[b] : bounds[b + 1]]
            class_counts.append(int(seg.size))
            parts.append(pack_uints(seg - np.uint32(1 << (b - 1)), b - 1))
        seg = ranks_sorted[bounds[self._ESCAPE] : bounds[self._ESCAPE + 1]]
        class_counts.append(int(seg.size))
        # dictionary stored directly in RANK order: by_rank[r] = value
        # with rank r.  Cheaper than sorted-delta + a rank permutation
        # (17 vs ~26 bits per unique on token vocabs) and decode needs
        # no inversion.
        by_rank = np.empty(uniq.size, dtype=uniq.dtype)
        by_rank[rank_of] = uniq
        T = 1 << (self._ESCAPE - 1)  # first escape-class rank
        tail_n = int(uniq.size) - T
        if tail_n >= _TAIL_SPLIT_MIN:
            # Escape ranks all cost the same payload width regardless
            # of frequency order, so the tail of the dictionary does
            # not need to be stored rank-ordered: keep the head
            # rank-ordered (FOR) and the tail SORTED (delta-coded, ~3
            # vs 16 bits/unique on token vocabs), with escape payloads
            # indexing the sorted tail.  -0.2 bits/token on the
            # flagship chunk profile.
            tail_sorted = np.sort(by_rank[T:])
            esc_idx = np.searchsorted(tail_sorted, by_rank[seg.astype(np.int64)])
            W = bit_width(max(tail_n - 1, 1))
            parts.append(pack_uints(esc_idx.astype(np.uint64), W))
            ev = INT_CODECS["for_bitpack"].encode(by_rank[:T])
            parts.append(ev.parts[0])
            et = INT_CODECS["delta_bitpack"].encode(tail_sorted)
            parts.append(et.parts[0])
            meta.update(ndv=int(uniq.size), values=ev.meta, tail=et.meta,
                        W=W, class_counts=class_counts)
            return Encoded(self.name, meta, parts)
        parts.append(pack_uints(seg, W))
        ev = INT_CODECS["for_bitpack"].encode(by_rank)
        parts.append(ev.parts[0])
        meta.update(ndv=int(uniq.size), values=ev.meta, W=W,
                    class_counts=class_counts)
        return Encoded(self.name, meta, parts)

    # Selector-stream hooks — dict_rans swaps the flat 4-bit packing
    # for a lane-interleaved entropy coder without touching the
    # payload-class machinery.
    def _encode_sel(self, sel: np.ndarray) -> tuple[dict, list]:
        return {}, [pack_uints(sel, self._SEL_BITS)]

    def _decode_sel(self, enc: Encoded, n: int) -> tuple[np.ndarray, int]:
        return unpack_uints(enc.parts[0], n, self._SEL_BITS).astype(np.uint8), 1

    def decode(self, enc: Encoded) -> np.ndarray:
        m = enc.meta
        dt = code_dtype(m["dt"])
        n = m["n"]
        if n == 0:
            return np.zeros(0, dtype=dt)
        sel, nsel_parts = self._decode_sel(enc, n)
        # mirror of encode: one stable argsort replaces the per-class
        # mask scatters; order slices are each class's positions in
        # first-occurrence order
        order = np.argsort(sel, kind="stable")
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(sel, minlength=self._ESCAPE + 1)))
        )
        ranks = np.zeros(n, dtype=np.uint64)
        ranks[order[bounds[1] : bounds[2]]] = 1
        idx = nsel_parts
        for i, b in enumerate(range(2, self._ESCAPE)):
            cnt = m["class_counts"][i]
            if cnt:
                vals = unpack_uints(enc.parts[idx], cnt, b - 1)
                ranks[order[bounds[b] : bounds[b + 1]]] = vals + (
                    np.uint64(1) << np.uint64(b - 1)
                )
            idx += 1
        cnt = m["class_counts"][-1]
        tail_meta = m.get("tail")
        if cnt:
            esc = unpack_uints(enc.parts[idx], cnt, m["W"])
            if tail_meta is not None:
                # escape payloads index the SORTED dictionary tail,
                # re-homed after the rank-ordered head
                esc = esc + np.uint64(1 << (self._ESCAPE - 1))
            ranks[order[bounds[self._ESCAPE] : bounds[self._ESCAPE + 1]]] = esc
        idx += 1
        by_rank = INT_CODECS["for_bitpack"].decode(
            Encoded("for_bitpack", m["values"], [enc.parts[idx]])
        )
        if tail_meta is not None:
            idx += 1
            tail = INT_CODECS["delta_bitpack"].decode(
                Encoded("delta_bitpack", tail_meta, [enc.parts[idx]])
            )
            by_rank = np.concatenate([by_rank, tail.astype(by_rank.dtype, copy=False)])
        return by_rank[ranks.astype(np.int64)].astype(dt, copy=False)


class DictRansCodec(DictBitlenCodec):
    """dict_bitlen with the 4-bit class-selector stream entropy-coded
    by a lane-interleaved rANS (codecs/rans.py).

    Measured on the flagship token corpus: the class stream carries
    H = 3.53 bits/value of information but the flat nibble packing
    spends 4.0; payload streams are already within 0.07 bits of their
    conditional entropy, so rANS-coding ONLY the 16-symbol selector
    closes most of the gap to the unigram entropy (7.41 -> 6.94
    bits/token on a 1.75M-token chunk) while every payload stream
    stays pure vectorized bit-packing.  Per-chunk overhead: K lane
    states (4K bytes) + a 16-entry quantized frequency table in meta.
    """

    name = "dict_rans"

    def _encode_sel(self, sel: np.ndarray) -> tuple[dict, list]:
        from .rans import pick_lanes, quantize_freqs, rans_encode

        counts = np.bincount(sel, minlength=self._ESCAPE + 1).astype(np.int64)
        freqs = quantize_freqs(counts)
        K = pick_lanes(sel.size)
        rows = (sel.size + K - 1) // K
        pad = rows * K - sel.size
        if pad:
            mps = int(np.argmax(freqs))
            sel = np.concatenate([sel, np.full(pad, mps, dtype=sel.dtype)])
        states, stream = rans_encode(sel, freqs, K)
        return {"sel_freqs": freqs.tolist(), "sel_K": K}, [states, stream]

    def _decode_sel(self, enc: Encoded, n: int) -> tuple[np.ndarray, int]:
        from .rans import rans_decode

        K = int(enc.meta["sel_K"])
        freqs = np.asarray(enc.meta["sel_freqs"], dtype=np.int64)
        rows = (n + K - 1) // K
        sel = rans_decode(enc.parts[0], enc.parts[1], freqs, rows * K, K)
        return sel[:n], 2

    def estimate(self, st: ChunkStats) -> Optional[int]:
        if st.n == 0 or st.sample_n == 0 or st.top_counts is None:
            return None
        ndv = _extrapolate_ndv(st)
        if ndv >= st.n:
            return None
        from .rans import pick_lanes

        counts = st.top_counts.astype(np.float64)
        probs = counts / counts.sum()
        ranks = np.arange(1, probs.size + 1)
        bl = np.ceil(np.log2(ranks + 1)).astype(np.int64)
        dict_bytes, W = _dict_layout(st, ndv)
        cls = np.minimum(bl, self._ESCAPE)
        payload = np.where(cls == self._ESCAPE, W, np.maximum(bl - 1, 0))
        f1 = float((st.top_counts == 1).sum())
        p_unseen = min(f1 / st.sample_n, 0.9) if st.sample_n < st.n else 0.0
        pcls = np.bincount(cls, weights=probs,
                           minlength=self._ESCAPE + 1) * (1 - p_unseen)
        pcls[self._ESCAPE] += p_unseen
        nz = pcls > 0
        h_sel = float(-(pcls[nz] * np.log2(pcls[nz])).sum())
        pay_bits = (1 - p_unseen) * float((probs * payload).sum()) + p_unseen * W
        avg_bits = h_sel + pay_bits
        lane_bytes = 4 * pick_lanes(st.n) + 64  # states + freq table
        est = (int(st.n * avg_bits) // 8 + dict_bytes
               + lane_bytes + 2 * _META_OVERHEAD)
        return est + est // 20


def _dict_store_bytes(st: ChunkStats, ndv: int, rank_ordered: bool = False) -> int:
    """Bytes to store the dictionary: sorted+delta-bitpacked (gap
    widths) or rank-ordered+FOR-bitpacked (full range width).  No rank
    permutation in either layout."""
    rng = max(st.vmax - st.vmin, 1)
    if rank_ordered:
        return (ndv * bit_width(rng) + 7) // 8
    avg_gap = max(rng // max(ndv, 1), 1)
    return (ndv * bit_width(4 * avg_gap) + 7) // 8


class SharedDictRansCodec(DictRansCodec):
    """dict_rans against a PRE-TRAINED corpus-global dictionary
    (codecs/shared_dict.py): chunks store only ranks + per-chunk
    *extras* (values absent from the shared table) — the dictionary
    itself is persisted once per corpus instead of ~45 KB per chunk
    (~0.026 B/token at flagship chunk sizes, the bulk of the gap
    between dict_rans and the corpus order-0 entropy).

    Not selectable through the stats-only selector (``estimate``
    returns None): ``encode_int_stream`` gates it on a provided
    ``SharedIntDict`` plus ``estimate_with`` (which folds in the
    measured dict-miss rate).  Decode resolves the table through the
    content-addressed registry (hash-verified), so a missing or
    corrupt ``_dicts`` sidecar fails loudly with coordinates.
    """

    name = "dict_rans_shared"

    def estimate(self, st: ChunkStats) -> Optional[int]:
        return None  # needs a shared-dict context; see estimate_with

    def estimate_with(self, st: ChunkStats, sd, miss_frac: float) -> Optional[int]:
        """Estimated bytes when encoding against ``sd`` with a
        sampled miss rate ``miss_frac`` — the parent's model with
        dict storage zeroed out, misses routed to the escape class,
        and a worst-case (all-distinct) extras table charged."""
        if st.n == 0 or st.sample_n == 0 or st.top_counts is None:
            return None
        if miss_frac > 0.25 or sd.size == 0:
            return None  # the shared table doesn't describe this chunk
        from .rans import pick_lanes

        counts = st.top_counts.astype(np.float64)
        probs = counts / counts.sum()
        ranks = np.arange(1, probs.size + 1)
        bl = np.ceil(np.log2(ranks + 1)).astype(np.int64)
        W = bit_width(max(sd.size - 1, 1))
        cls = np.minimum(bl, self._ESCAPE)
        payload = np.where(cls == self._ESCAPE, W, np.maximum(bl - 1, 0))
        pcls = np.bincount(cls, weights=probs,
                           minlength=self._ESCAPE + 1) * (1 - miss_frac)
        pcls[self._ESCAPE] += miss_frac
        nz = pcls > 0
        h_sel = float(-(pcls[nz] * np.log2(pcls[nz])).sum())
        pay_bits = (1 - miss_frac) * float((probs * payload).sum()) + miss_frac * W
        extras_bytes = (int(miss_frac * st.n) * 3) + 16  # all-distinct worst case
        lane_bytes = 4 * pick_lanes(st.n) + 64
        est = (int(st.n * (h_sel + pay_bits)) // 8 + extras_bytes
               + lane_bytes + 2 * _META_OVERHEAD)
        return est + est // 20

    def encode(self, arr: np.ndarray) -> Encoded:
        """Protocol-complete standalone form: train a throwaway table
        on the chunk and EMBED it as the final part (no sidecar).
        Never auto-selected (``estimate`` is None) — the pipeline path
        is ``encode_shared`` against the corpus-global table; this
        form exists so the registry-wide roundtrip/fuzz harnesses
        exercise the rank/class machinery."""
        from .shared_dict import SharedIntDict

        sd = SharedIntDict.train(arr) if arr.size else SharedIntDict(
            np.zeros(0, np.int64))
        enc = self.encode_shared(arr, sd, inline=True)
        te = INT_CODECS["for_bitpack"].encode(sd.by_rank)
        te.meta["part_lens"] = [len(p) for p in te.parts]
        enc.meta["dict"] = {"inline": {"codec": te.codec, "meta": te.meta},
                            "m": sd.size}
        enc.parts.extend(te.parts)
        return enc

    def encode_shared(self, arr: np.ndarray, sd, inline: bool = False) -> Encoded:
        n = int(arr.size)
        ref = {"m": sd.size} if inline else {"ref": sd.ref, "m": sd.size,
                                             "p": sd.path}
        meta = {"dt": dtype_code(arr.dtype), "n": n, "dict": ref}
        if n == 0:
            meta.update(W=0, class_counts=[])
            return Encoded(self.name, meta, [b"", b""])
        ranks, miss = sd.ranks_of(arr)
        m = sd.size
        if miss.any():
            missing_vals = arr[miss]
            extras = np.unique(missing_vals)
            ranks[miss] = (m + np.searchsorted(extras, missing_vals)).astype(
                np.uint32)
        else:
            extras = None
        total = m + (int(extras.size) if extras is not None else 0)
        # class per value is one uint8 gather from a table of size
        # `total` (no n-sized float64 frexp pass — same concern as the
        # parent's bit-length-per-unique trick)
        sel_table = np.zeros(total, dtype=np.uint8)
        if total > 1:
            sel_table[1:] = np.minimum(
                np.frexp(np.arange(1, total, dtype=np.float64))[1],
                self._ESCAPE).astype(np.uint8)
        sel = sel_table[ranks]
        sel_meta, parts = self._encode_sel(sel)
        meta.update(sel_meta)
        order = np.argsort(sel, kind="stable")
        ranks_sorted = ranks[order]
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(sel, minlength=self._ESCAPE + 1)))
        )
        class_counts = []
        for b in range(2, self._ESCAPE):
            seg = ranks_sorted[bounds[b] : bounds[b + 1]]
            class_counts.append(int(seg.size))
            parts.append(pack_uints(seg - np.uint32(1 << (b - 1)), b - 1))
        seg = ranks_sorted[bounds[self._ESCAPE] : bounds[self._ESCAPE + 1]]
        class_counts.append(int(seg.size))
        W = bit_width(max(total - 1, 1))
        parts.append(pack_uints(seg, W))
        if extras is not None:
            ee = INT_CODECS["delta_bitpack"].encode(extras)
            parts.append(ee.parts[0])
            meta["extras"] = ee.meta
        meta.update(W=W, class_counts=class_counts)
        return Encoded(self.name, meta, parts)

    def decode(self, enc: Encoded) -> np.ndarray:
        m_ = enc.meta
        dt = code_dtype(m_["dt"])
        n = m_["n"]
        if n == 0:
            return np.zeros(0, dtype=dt)
        d = m_["dict"]
        sel, nsel_parts = self._decode_sel(enc, n)
        order = np.argsort(sel, kind="stable")
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(sel, minlength=self._ESCAPE + 1)))
        )
        ranks = np.zeros(n, dtype=np.uint64)
        ranks[order[bounds[1] : bounds[2]]] = 1
        idx = nsel_parts
        for i, b in enumerate(range(2, self._ESCAPE)):
            cnt = m_["class_counts"][i]
            if cnt:
                vals = unpack_uints(enc.parts[idx], cnt, b - 1)
                ranks[order[bounds[b] : bounds[b + 1]]] = vals + (
                    np.uint64(1) << np.uint64(b - 1)
                )
            idx += 1
        cnt = m_["class_counts"][-1]
        if cnt:
            ranks[order[bounds[self._ESCAPE] : bounds[self._ESCAPE + 1]]] = (
                unpack_uints(enc.parts[idx], cnt, m_["W"])
            )
        idx += 1
        extras = None
        if "extras" in m_:
            extras = INT_CODECS["delta_bitpack"].decode(
                Encoded("delta_bitpack", m_["extras"], [enc.parts[idx]])
            )
            idx += 1
        if "inline" in d:  # standalone form: table embedded as last part(s)
            ie = d["inline"]
            table = INT_CODECS[ie["codec"]].decode(
                Encoded(ie["codec"], ie["meta"], enc.parts[idx:])
            ).astype(np.int64, copy=False)
        else:
            from .shared_dict import resolve

            sd = resolve(d["ref"], d.get("p"))
            if sd.size != d["m"]:
                raise ValueError(
                    f"shared dict {d['ref']} size mismatch: table has "
                    f"{sd.size} entries, chunk encoded against {d['m']}")
            table = sd.by_rank
        if extras is not None:
            table = np.concatenate([table, extras.astype(np.int64, copy=False)])
        return table[ranks.astype(np.int64)].astype(dt, copy=False)


def _hoct_bounds(total: int) -> np.ndarray:
    """Half-octave rank-class boundaries over [0, total): class c
    covers ranks [bs[c], bs[c+1]).  {0} and {1} are singleton classes;
    every octave [2^b, 2^(b+1)) splits at its midpoint.  <= 64 classes
    for uint32 ranks, so class ids fit uint8 and the selector rANS
    (codecs/rans.py, alphabet-agnostic) absorbs the finer alphabet at
    no payload cost."""
    bs = [0, 1]
    b = 1
    while (1 << b) < total:
        lo = 1 << b
        bs.append(lo)
        mid = lo + (lo >> 1)
        if mid < total:
            bs.append(mid)
        b += 1
    bs.append(max(total, 1))
    return np.asarray(bs, dtype=np.int64)


def _hoct_widths(bs: np.ndarray) -> np.ndarray:
    spans = np.diff(bs)
    return np.array(
        [bit_width(int(s) - 1) if s > 1 else 0 for s in spans], dtype=np.int64
    )


class SharedDictRans2Codec(SharedDictRansCodec):
    """dict_rans_shared with HALF-OCTAVE selector classes and no flat
    escape class.

    Measured decomposition on a flagship 10.4M-token chunk (round 4):
    dict_rans_shared codes 6.969 bits/token against a 6.899 order-0
    floor; 0.544 of those bits are the escape class paying a flat
    W=16 bits for every rank >= 2^14 (~1.1 bits over its conditional
    entropy) and the rest of the payload overage is within-octave
    non-uniformity (Zipf falls ~1.5x across an octave but the b-1-bit
    payload is uniform).  Halving every class and covering the whole
    rank range with real classes moves both losses into the
    rANS-coded selector, which codes them at entropy: predicted
    6.909, leaving only the ~0.01-bit lane-state/quantization cost.
    The 4-bit selector ceiling that forced the escape design exists
    only in dict_bitlen's flat nibble packing — the rANS selector
    never had it.

    Shared-dict-only: with no per-chunk dictionary there is no
    sorted-tail storage trick for finer classes to break (see
    DictBitlenCodec.encode), which is why the per-chunk dict_rans
    keeps the escape layout."""

    name = "dict_rans2_shared"

    def estimate_with(self, st: ChunkStats, sd, miss_frac: float) -> Optional[int]:
        if st.n == 0 or st.sample_n == 0 or st.top_counts is None:
            return None
        if miss_frac > 0.25 or sd.size == 0:
            return None
        from .rans import pick_lanes

        counts = st.top_counts.astype(np.float64)
        probs = counts / counts.sum()
        bs = _hoct_bounds(sd.size)
        widths = _hoct_widths(bs)
        ranks = np.arange(1, probs.size + 1)
        cls = np.searchsorted(bs, ranks, side="right") - 1
        cls = np.minimum(cls, widths.size - 1)
        pcls = np.bincount(cls, weights=probs,
                           minlength=widths.size) * (1 - miss_frac)
        pcls[-1] += miss_frac  # misses land in the top classes
        nz = pcls > 0
        h_sel = float(-(pcls[nz] * np.log2(pcls[nz])).sum())
        pay_bits = (1 - miss_frac) * float((probs * widths[cls]).sum()) \
            + miss_frac * widths[-1]
        extras_bytes = (int(miss_frac * st.n) * 3) + 16
        lane_bytes = 4 * pick_lanes(st.n) + 64
        est = (int(st.n * (h_sel + pay_bits)) // 8 + extras_bytes
               + lane_bytes + 2 * _META_OVERHEAD)
        return est + est // 20

    def encode_shared(self, arr: np.ndarray, sd, inline: bool = False) -> Encoded:
        from .rans import pick_lanes, quantize_freqs, rans_encode

        n = int(arr.size)
        ref = {"m": sd.size} if inline else {"ref": sd.ref, "m": sd.size,
                                             "p": sd.path}
        meta = {"dt": dtype_code(arr.dtype), "n": n, "dict": ref}
        if n == 0:
            meta.update(class_counts=[])
            return Encoded(self.name, meta, [b"", b""])
        ranks, miss = sd.ranks_of(arr)
        m = sd.size
        extras = None
        if miss.any():
            missing_vals = arr[miss]
            extras = np.unique(missing_vals)
            ranks[miss] = (m + np.searchsorted(extras, missing_vals)).astype(
                np.uint32)
        total = m + (int(extras.size) if extras is not None else 0)
        bs = _hoct_bounds(total)
        widths = _hoct_widths(bs)
        nc = widths.size
        sel_table = np.repeat(np.arange(nc, dtype=np.uint8),
                              np.diff(bs).astype(np.int64))
        sel = sel_table[ranks]
        counts = np.bincount(sel, minlength=nc).astype(np.int64)
        freqs = quantize_freqs(counts)
        K = pick_lanes(sel.size)
        rows = (sel.size + K - 1) // K
        pad = rows * K - sel.size
        if pad:
            mps = int(np.argmax(freqs))
            sel_p = np.concatenate([sel, np.full(pad, mps, dtype=sel.dtype)])
        else:
            sel_p = sel
        states, stream = rans_encode(sel_p, freqs, K)
        parts = [states, stream]
        meta.update(sel_freqs=freqs.tolist(), sel_K=K)
        order = np.argsort(sel, kind="stable")
        ranks_sorted = ranks[order]
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for c in range(nc):
            if widths[c] > 0 and counts[c]:
                seg = ranks_sorted[bounds[c] : bounds[c + 1]]
                parts.append(pack_uints(seg - np.uint32(bs[c]), int(widths[c])))
            elif widths[c] > 0:
                parts.append(b"")
        if extras is not None:
            ee = INT_CODECS["delta_bitpack"].encode(extras)
            parts.append(ee.parts[0])
            meta["extras"] = ee.meta
        meta.update(class_counts=counts.tolist())
        return Encoded(self.name, meta, parts)

    def decode(self, enc: Encoded) -> np.ndarray:
        from .rans import rans_decode

        m_ = enc.meta
        dt = code_dtype(m_["dt"])
        n = m_["n"]
        if n == 0:
            return np.zeros(0, dtype=dt)
        d = m_["dict"]
        n_extras = int(m_["extras"]["n"]) if "extras" in m_ else 0
        total = int(d["m"]) + n_extras
        bs = _hoct_bounds(total)
        widths = _hoct_widths(bs)
        nc = widths.size
        K = int(m_["sel_K"])
        freqs = np.asarray(m_["sel_freqs"], dtype=np.int64)
        rows = (n + K - 1) // K
        sel = rans_decode(enc.parts[0], enc.parts[1], freqs, rows * K, K)[:n]
        counts = np.asarray(m_["class_counts"], dtype=np.int64)
        order = np.argsort(sel, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(counts)))
        ranks = np.zeros(n, dtype=np.uint64)
        idx = 2
        for c in range(nc):
            cnt = int(counts[c])
            if widths[c] > 0:
                if cnt:
                    vals = unpack_uints(enc.parts[idx], cnt, int(widths[c]))
                    ranks[order[bounds[c] : bounds[c + 1]]] = vals + np.uint64(bs[c])
                idx += 1
            elif cnt and bs[c]:
                ranks[order[bounds[c] : bounds[c + 1]]] = np.uint64(bs[c])
        extras = None
        if "extras" in m_:
            extras = INT_CODECS["delta_bitpack"].decode(
                Encoded("delta_bitpack", m_["extras"], [enc.parts[idx]])
            )
            idx += 1
        if "inline" in d:
            ie = d["inline"]
            table = INT_CODECS[ie["codec"]].decode(
                Encoded(ie["codec"], ie["meta"], enc.parts[idx:])
            ).astype(np.int64, copy=False)
        else:
            from .shared_dict import resolve

            sd = resolve(d["ref"], d.get("p"))
            if sd.size != d["m"]:
                raise ValueError(
                    f"shared dict {d['ref']} size mismatch: table has "
                    f"{sd.size} entries, chunk encoded against {d['m']}")
            table = sd.by_rank
        if extras is not None:
            table = np.concatenate([table, extras.astype(np.int64, copy=False)])
        return table[ranks.astype(np.int64)].astype(dt, copy=False)


def _extrapolate_ndv(st: ChunkStats) -> int:
    """Chao-ish ndv extrapolation from the sample, capped by range+1."""
    if st.sample_n >= st.n:
        ndv = st.ndv_sample
    else:
        frac = st.ndv_sample / st.sample_n
        if frac > 0.98:  # likely all-distinct
            ndv = st.n
        else:
            # birthday-style: assume sample saw most hot values; scale tail
            ndv = min(int(st.ndv_sample * (1 + np.log(st.n / st.sample_n))), st.n)
    rng = st.vmax - st.vmin
    if rng < 1 << 62:
        ndv = min(ndv, rng + 1)
    return max(ndv, 1)


INT_CODECS: dict[str, Codec] = {
    c.name: c
    for c in [
        PlainCodec(),
        ForBitpackCodec(),
        DeltaBitpackCodec(),
        RleCodec(),
        DictBitpackCodec(),
        DictVarintCodec(),
        DictBitlenCodec(),
        DictRansCodec(),
        SharedDictRansCodec(),
        SharedDictRans2Codec(),
    ]
}
