"""Column-chunk encode/decode: Arrow array <-> (payload bytes, meta).

This is the engine's ``OneColonnade``/``Siphon`` pair lifted to
columnar chunks (reference: colonnade/src/Colonnade/Encode.hs:530-534
encoder atom; siphon/src/Siphon/Types.hs:61-74 decoder dual;
round-trip property siphon/test/Test.hs:262-276).  A column chunk is
decomposed into *streams* (validity, lengths/offsets, values, data
bytes), each stream independently routed through the auto-selector
(graft of the two-pass ``sizeColumns`` measure-then-encode,
colonnade/src/Colonnade/Encode.hs:177-201) and the winning codec.

Nullability: validity bitmaps are encoded as their own stream; null
slots are filled with zero/empty before value encode and restored on
decode — graft of ``fromMaybe`` null handling
(colonnade/src/Colonnade.hs:170-172) and ``optional`` decoders
(geolite-csv/src/Geolite/Csv.hs:37,44-57).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import ChunkStats, Encoded, code_dtype, dtype_code, int_stats
from .fsst import FsstCodec, train_merges
from .ints import INT_CODECS

# deterministic candidate order = selector tie-break order
INT_CANDIDATE_ORDER = (
    "for_bitpack", "delta_bitpack", "rle", "dict_rans", "dict_bitlen",
    "dict_varint", "dict_bitpack", "plain",
)

_STR_SAMPLE_BYTES = 1 << 16
_NDV_SAMPLE = 2048


# ---------------------------------------------------------------------------
# Arrow type descriptors (schema metadata that survives the trip)


def type_to_desc(t: pa.DataType) -> dict:
    if pa.types.is_timestamp(t):
        return {"k": "timestamp", "unit": t.unit, "tz": t.tz}
    if pa.types.is_date32(t):
        return {"k": "date32"}
    if pa.types.is_large_string(t):
        return {"k": "large_string"}
    if pa.types.is_string(t):
        return {"k": "string"}
    if pa.types.is_binary(t):
        return {"k": "binary"}
    if pa.types.is_boolean(t):
        return {"k": "bool"}
    if pa.types.is_list(t):
        return {"k": "list", "item": type_to_desc(t.value_type)}
    if pa.types.is_large_list(t):
        return {"k": "large_list", "item": type_to_desc(t.value_type)}
    if pa.types.is_time32(t) or pa.types.is_time64(t):
        return {"k": "time32" if pa.types.is_time32(t) else "time64", "unit": t.unit}
    if pa.types.is_duration(t):
        return {"k": "duration", "unit": t.unit}
    if pa.types.is_decimal128(t):
        return {"k": "decimal128", "precision": t.precision, "scale": t.scale}
    if pa.types.is_decimal(t):
        # decimal256 storage is 32-byte words; the 16-byte (lo, hi)
        # split in _encode_decimal would silently read wrong values.
        raise TypeError(f"unsupported arrow type {t} (only decimal128 is encodable)")
    if pa.types.is_date64(t):
        return {"k": "date64"}
    if pa.types.is_float16(t):
        return {"k": "float16"}
    if pa.types.is_dictionary(t):
        return {"k": "dictionary", "index": type_to_desc(t.index_type),
                "value": type_to_desc(t.value_type), "ordered": bool(t.ordered)}
    if pa.types.is_fixed_size_binary(t):
        return {"k": "fixed_size_binary", "byte_width": t.byte_width}
    if pa.types.is_fixed_size_list(t):
        return {"k": "fixed_size_list", "item": type_to_desc(t.value_type),
                "list_size": t.list_size}
    if pa.types.is_struct(t):
        return {"k": "struct",
                "fields": [[f.name, type_to_desc(f.type)] for f in t]}
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return {"k": str(t)}
    raise TypeError(f"unsupported arrow type {t}")


def desc_to_type(d: dict) -> pa.DataType:
    k = d["k"]
    if k == "timestamp":
        return pa.timestamp(d["unit"], tz=d["tz"])
    if k == "date32":
        return pa.date32()
    if k == "large_string":
        return pa.large_string()
    if k == "string":
        return pa.string()
    if k == "binary":
        return pa.binary()
    if k == "bool":
        return pa.bool_()
    if k == "list":
        return pa.list_(desc_to_type(d["item"]))
    if k == "large_list":
        return pa.large_list(desc_to_type(d["item"]))
    if k == "time32":
        return pa.time32(d["unit"])
    if k == "time64":
        return pa.time64(d["unit"])
    if k == "duration":
        return pa.duration(d["unit"])
    if k == "decimal128":
        return pa.decimal128(d["precision"], d["scale"])
    if k == "date64":
        return pa.date64()
    if k == "float16":
        return pa.float16()
    if k == "dictionary":
        return pa.dictionary(desc_to_type(d["index"]), desc_to_type(d["value"]),
                             ordered=d["ordered"])
    if k == "fixed_size_binary":
        return pa.binary(d["byte_width"])
    if k == "fixed_size_list":
        return pa.list_(desc_to_type(d["item"]), d["list_size"])
    if k == "struct":
        return pa.struct([pa.field(n, desc_to_type(ft)) for n, ft in d["fields"]])
    return pa.type_for_alias(k)


# ---------------------------------------------------------------------------
# Int-stream selection (the auto-selector)


def select_int_codec(arr: np.ndarray, candidates=None) -> tuple[str, int, ChunkStats]:
    """Measure once, estimate every candidate, pick min size.

    Returns (codec_name, estimated_bytes, stats).  First-listed wins
    ties — a fixed, documented tie-break so retries are bit-identical
    (SURVEY.md §7 hard parts)."""
    if candidates is None:
        candidates = INT_CANDIDATE_ORDER  # read at call time: registry may extend it
    st = int_stats(arr)
    best_name, best_est = "plain", None
    for name in candidates:
        est = INT_CODECS[name].estimate(st)
        if est is not None and (best_est is None or est < best_est):
            best_name, best_est = name, est
    return best_name, int(best_est if best_est is not None else 0), st


def encode_int_stream(arr: np.ndarray, forced: Optional[str] = None,
                      shared=None) -> Encoded:
    """``shared``: a ``SharedIntDict`` (codecs/shared_dict.py) this
    stream MAY encode against — it competes with the stats-selected
    codec on estimated size (with the dict-miss rate measured on a
    stride sample), so a chunk the shared table doesn't describe
    falls back to its local best codec."""
    if forced is not None:
        if forced in ("dict_rans_shared", "dict_rans2_shared"):
            if shared is None:
                raise ValueError(f"{forced} forced without a shared dict")
            return INT_CODECS[forced].encode_shared(arr, shared)
        return INT_CODECS[forced].encode(arr)
    name, est, st = select_int_codec(arr)
    if shared is not None and st.n and not (
        arr.dtype.kind == "u" and st.vmax > 1 << 62  # int64 canon overflow
    ):
        smp = arr[:: max(1, arr.size // 4096)][:4096]
        _, miss = shared.ranks_of(smp)
        miss_frac = float(miss.mean()) if smp.size else 1.0
        sh = INT_CODECS["dict_rans2_shared"]
        est_sh = sh.estimate_with(st, shared, miss_frac)
        if est_sh is not None and est_sh < est:
            return sh.encode_shared(arr, shared)
    return INT_CODECS[name].encode(arr)


def decode_int_stream(enc: Encoded) -> np.ndarray:
    return INT_CODECS[enc.codec].decode(enc)


# ---------------------------------------------------------------------------
# Stream plumbing: each stream -> (entry_meta, parts)


def _emit(enc: Encoded) -> tuple[dict, list]:
    payload_parts = list(enc.parts)
    enc.meta["part_lens"] = [len(p) for p in payload_parts]
    return {"codec": enc.codec, "meta": enc.meta}, payload_parts


def _validity_stream(arr: pa.Array) -> tuple[Optional[dict], list]:
    if arr.null_count == 0:
        return None, []
    mask = arr.is_valid().to_numpy(zero_copy_only=False)
    enc = Encoded("bitmap", {"n": int(len(mask))},
                  [np.packbits(mask, bitorder="little").tobytes()])
    return _emit(enc)


def _decode_validity(entry: Optional[dict], parts: list, n: int) -> Optional[np.ndarray]:
    if entry is None:
        return None
    raw = np.frombuffer(parts[0], dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


# ---------------------------------------------------------------------------
# Primitive columns


def _primitive_values(arr: pa.Array) -> np.ndarray:
    """Zero-copy-ish numpy view of a (filled, null-free) primitive array."""
    t = arr.type
    if len(arr) == 0:
        if pa.types.is_timestamp(t) or pa.types.is_date32(t):
            return np.zeros(0, dtype=f"i{t.bit_width // 8}")
        return np.zeros(0, dtype=np.dtype(t.to_pandas_dtype()))
    if pa.types.is_boolean(t):
        np_arr = arr.to_numpy(zero_copy_only=False)  # bool_ -> np.bool_
    elif pa.types.is_date32(t):
        # date32 -> numpy datetime64[D] would need a widening copy;
        # reinterpret the 32-bit day values instead (zero-copy)
        np_arr = arr.view(pa.int32()).to_numpy(zero_copy_only=True)
    else:
        try:
            np_arr = arr.to_numpy(zero_copy_only=True)
        except pa.lib.ArrowInvalid:
            # some upstream representations (e.g. polars-sorted blocks)
            # can't expose a zero-copy view; pay the one copy
            np_arr = arr.to_numpy(zero_copy_only=False)
    if pa.types.is_timestamp(t):
        return np_arr.view(f"i{np_arr.dtype.itemsize}")
    return np_arr


def _fill_nulls(arr: pa.Array) -> pa.Array:
    t = arr.type
    if arr.null_count == 0:
        return arr
    if pa.types.is_timestamp(t):
        zero = pa.scalar(0, pa.int64()).cast(t)
    elif pa.types.is_date32(t):
        # int64->date32 cast is unsupported in Arrow; date32 is
        # day-resolution int32 under the hood
        zero = pa.scalar(0, pa.int32()).cast(t)
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        zero = pa.scalar("", t)
    elif pa.types.is_binary(t):
        zero = pa.scalar(b"", t)
    else:
        zero = pa.scalar(0, t)
    return pc.fill_null(arr, zero)


def _encode_primitive(arr: pa.Array, forced: Optional[str] = None,
                      shared=None) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    vals = _primitive_values(_fill_nulls(arr))
    if vals.dtype.kind in "iub":
        enc = encode_int_stream(vals.astype(np.uint8) if vals.dtype.kind == "b" else vals,
                                forced=forced, shared=shared)
        if vals.dtype.kind == "b":
            enc.meta["dt"] = "b1"
    else:
        enc = _encode_float_stream(vals)
    ventry, parts = _emit(enc)
    meta = {"kind": "primitive", "streams": {"validity": validity, "values": ventry}}
    return meta, vparts + parts


def _encode_decimal(arr: pa.Array, forced: Optional[str] = None) -> tuple[dict, list]:
    """decimal128: split the 16-byte unscaled ints into (lo, hi) int64
    words; when every value sign-extends from its low word (precision
    <= 18 in practice) only the lo stream is stored."""
    validity, vparts = _validity_stream(arr)
    n = len(arr)
    if n == 0:
        lo = np.zeros(0, np.int64)
        hi = None
    else:
        buf = arr.buffers()[1]
        words = np.frombuffer(buf, dtype=np.int64, count=2 * n,
                              offset=arr.offset * 16).reshape(n, 2)
        lo = words[:, 0].copy()
        hi = words[:, 1].copy()
        if arr.null_count:
            nulls = ~arr.is_valid().to_numpy(zero_copy_only=False)
            lo[nulls] = 0
            hi[nulls] = 0
        if np.array_equal(hi, lo >> 63):  # sign-extension only
            hi = None
    lentry, lparts = _emit(encode_int_stream(lo, forced=forced))
    meta = {"kind": "decimal",
            "streams": {"validity": validity, "lo": lentry, "hi": None}}
    parts = list(vparts) + lparts
    if hi is not None:
        hentry, hparts = _emit(encode_int_stream(hi, forced=forced))
        meta["streams"]["hi"] = hentry
        parts += hparts
    return meta, parts


def _decode_decimal(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    lentry = meta["streams"]["lo"]
    k = len(lentry["meta"]["part_lens"])
    lo = decode_int_stream(Encoded(lentry["codec"], lentry["meta"], parts[idx : idx + k])).astype(np.int64)
    idx += k
    hentry = meta["streams"]["hi"]
    if hentry is not None:
        k = len(hentry["meta"]["part_lens"])
        hi = decode_int_stream(Encoded(hentry["codec"], hentry["meta"], parts[idx : idx + k])).astype(np.int64)
    else:
        hi = lo >> 63
    words = np.empty((n, 2), dtype=np.int64)
    words[:, 0] = lo
    words[:, 1] = hi
    vbuf = None
    if vmask is not None:
        vbuf = pa.py_buffer(np.packbits(vmask, bitorder="little"))
    return pa.Array.from_buffers(
        atype, n, [vbuf, pa.py_buffer(np.ascontiguousarray(words))],
        null_count=int((~vmask).sum()) if vmask is not None else 0,
    )


def _validity_bitmap_buffer(vmask: Optional[np.ndarray]):
    if vmask is None:
        return None, 0
    return pa.py_buffer(np.packbits(vmask, bitorder="little")), int((~vmask).sum())


def _encode_dictionary(arr: pa.Array, forced=None) -> tuple[dict, list]:
    """Dictionary-typed input (common from parquet readers): encode the
    index stream and the dictionary values independently so the exact
    dictionary (contents AND order) round-trips."""
    ind = arr.indices
    imeta, iparts = _encode_primitive(ind, forced)
    dmeta, dparts = encode_column_chunk(arr.dictionary)
    return (
        {"kind": "dict_wrap", "indices": imeta, "dictionary": dmeta,
         "dict_n": len(arr.dictionary)},
        iparts + dparts,
    )


def _decode_dictionary(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    imeta = meta["indices"]
    nip = _meta_nparts(imeta)
    ind = _decode_primitive(imeta, parts[:nip], atype.index_type, n)
    dvals = decode_column_chunk(meta["dictionary"], parts[nip:], meta["dict_n"])
    return pa.DictionaryArray.from_arrays(ind, dvals, ordered=atype.ordered)


def _meta_nparts(meta: dict) -> int:
    """Number of payload parts a nested meta consumes (recursive)."""
    kind = meta.get("kind")
    total = 0
    if kind == "primitive":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        total += len(meta["streams"]["values"]["meta"]["part_lens"])
        return total
    if kind == "decimal":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        total += len(meta["streams"]["lo"]["meta"]["part_lens"])
        if meta["streams"]["hi"] is not None:
            total += len(meta["streams"]["hi"]["meta"]["part_lens"])
        return total
    if kind == "string":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        if meta["strategy"] == "pattern":
            return total + len(meta["streams"]["ints"]["meta"]["part_lens"])
        if meta["strategy"] == "dict":
            total += len(meta["streams"]["codes"]["meta"]["part_lens"])
            inner = meta["dict"]
        else:
            inner = meta["raw"]
        total += len(inner["lengths"]["meta"]["part_lens"])
        total += len(inner["data"]["meta"]["part_lens"])
        return total
    if kind == "list":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        total += len(meta["streams"]["lengths"]["meta"]["part_lens"])
        return total + _meta_nparts(meta["child"])
    if kind == "fixed_binary":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        return total + len(meta["streams"]["data"]["meta"]["part_lens"])
    if kind == "fixed_list":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        return total + _meta_nparts(meta["child"])
    if kind == "struct":
        v = meta["streams"]["validity"]
        total += len(v["meta"]["part_lens"]) if v else 0
        return total + sum(_meta_nparts(f) for f in meta["fields"])
    if kind == "dict_wrap":
        return _meta_nparts(meta["indices"]) + _meta_nparts(meta["dictionary"])
    raise ValueError(f"unknown meta kind {kind}")


def _encode_fixed_binary(arr: pa.Array) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    w = arr.type.byte_width
    n = len(arr)
    buf = arr.buffers()[1]
    data = (
        bytes(memoryview(buf)[arr.offset * w : (arr.offset + n) * w]) if n else b""
    )
    denc = Encoded("plain_bytes", {"nbytes": len(data)}, [data])
    dentry, dparts = _emit(denc)
    return (
        {"kind": "fixed_binary", "streams": {"validity": validity, "data": dentry}},
        list(vparts) + dparts,
    )


def _decode_fixed_binary(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    data = parts[idx]
    if len(data) < n * atype.byte_width:
        raise ValueError("fixed_size_binary data stream truncated")
    vbuf, nulls = _validity_bitmap_buffer(vmask)
    return pa.Array.from_buffers(atype, n, [vbuf, pa.py_buffer(data)], null_count=nulls)


def _encode_fixed_list(arr: pa.Array, forced=None) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    size = arr.type.list_size
    child = arr.values
    # values spans [offset*size, (offset+len)*size) of the child
    child = child.slice(arr.offset * size, len(arr) * size)
    cmeta, cparts = encode_column_chunk(child, forced=forced)
    return (
        {"kind": "fixed_list", "streams": {"validity": validity}, "child": cmeta},
        list(vparts) + cparts,
    )


def _decode_fixed_list(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    child = decode_column_chunk(meta["child"], parts[idx:], n * atype.list_size)
    vbuf, nulls = _validity_bitmap_buffer(vmask)
    return pa.Array.from_buffers(atype, n, [vbuf], null_count=nulls, children=[child])


def _encode_struct(arr: pa.Array, forced=None) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    fmetas, parts = [], list(vparts)
    for i in range(arr.type.num_fields):
        fmeta, fparts = encode_column_chunk(arr.field(i), forced=forced)
        fmetas.append(fmeta)
        parts += fparts
    return {"kind": "struct", "streams": {"validity": validity}, "fields": fmetas}, parts


def _decode_struct(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    children = []
    for fmeta in meta["fields"]:
        k = _meta_nparts(fmeta)
        children.append(decode_column_chunk(fmeta, parts[idx : idx + k], n))
        idx += k
    vbuf, nulls = _validity_bitmap_buffer(vmask)
    return pa.Array.from_buffers(atype, n, [vbuf], null_count=nulls, children=children)


_ALP_MAX_EXP = {8: 15, 4: 8}  # 10^e search bound per float width
_ALP_SAFE_INT = float(1 << 53)  # |scaled| bound for exact int64<->f8


def _alp_exponent(vals: np.ndarray, w: int) -> Optional[int]:
    """Smallest e such that round(vals * 10^e) / 10^e reproduces every
    value BIT-exactly (so -0.0, which the division cannot restore,
    rejects itself).  `vals` must be float64 (float32 inputs are
    widened by the caller — widening is exact)."""
    iview = np.dtype(np.uint64) if w == 8 else np.dtype(np.uint32)
    for e in range(_ALP_MAX_EXP[w] + 1):
        p = 10.0 ** e
        scaled = vals * p
        # non-finite values make the comparison False, rejecting e
        with np.errstate(invalid="ignore", over="ignore"):
            r = np.rint(scaled)
            if not (np.abs(r) < _ALP_SAFE_INT).all():
                return None  # larger e only grows magnitude
            # verify through the REAL storage path (int64), not float
            # rint: -0.0 survives `rint(x)/p` but not the int round
            # trip, and must reject here
            recon = r.astype(np.int64).astype(np.float64) / p
        if w == 4:
            recon = recon.astype(np.float32)
            ok = recon.view(np.uint32) == vals.astype(np.float32).view(np.uint32)
        else:
            ok = recon.view(np.uint64) == vals.view(np.uint64)
        if ok.all():
            return e
    return None


def _try_alp(vals: np.ndarray) -> Optional[Encoded]:
    """ALP-style decimal-float path (Afroozeh & Boncz, VLDB'23 — public
    literature): when every value is exactly d / 10^e for integer d,
    store the integers through the int cascade (FOR/delta/dict/bitlen)
    instead of 8 raw bytes.  Probes a stride sample first so random
    mantissas (embeddings) reject in O(sample), then proves the chosen
    exponent on the full chunk — the encode is only taken when the
    reconstruction is verified bit-identical."""
    n = int(vals.size)
    w = vals.dtype.itemsize
    wide = vals.astype(np.float64) if w == 4 else vals
    sample = wide[:: max(1, n // 1024)]
    e = _alp_exponent(sample, w)
    if e is None:
        return None
    if len(sample) < n:
        e = _alp_exponent(wide, w)  # prove on the full chunk
        if e is None:
            return None
    ints = np.rint(wide * (10.0 ** e)).astype(np.int64)
    inner = encode_int_stream(ints)
    if inner.nbytes() >= n * w:  # pathological (e.g. huge spread): planes decide
        return None
    inner.meta["part_lens"] = [len(p) for p in inner.parts]
    meta = {
        "dt": dtype_code(vals.dtype),
        "n": n,
        "e": e,
        "inner": {"codec": inner.codec, "meta": inner.meta},
    }
    return Encoded("alp", meta, list(inner.parts))


def _decode_alp(enc: Encoded) -> np.ndarray:
    m = enc.meta
    ie = m["inner"]
    ints = decode_int_stream(Encoded(ie["codec"], ie["meta"], enc.parts))
    recon = ints.astype(np.float64) / (10.0 ** m["e"])
    return recon.astype(code_dtype(m["dt"]))


def _encode_float_stream(vals: np.ndarray) -> Encoded:
    """Float columns: ALP decimal scaling when the chunk is exactly
    decimal (prices, rounded measurements) — see ``_try_alp`` — else
    byte-plane split (BtrBlocks-style, public literature) — view as
    uint bytes, encode each byte plane through the int selector.
    Sign/exponent planes are low-entropy for real-world value ranges
    even when mantissa planes are random; falls back to plain when
    planes don't pay."""
    n = int(vals.size)
    w = vals.dtype.itemsize
    if n < 64:
        return INT_CODECS["plain"].encode(vals)
    if w in _ALP_MAX_EXP:
        alp = _try_alp(np.ascontiguousarray(vals))
        if alp is not None:
            return alp
    as_bytes = np.ascontiguousarray(vals).view(np.uint8).reshape(n, w)
    plane_encs = []
    total = 0
    for j in range(w):
        pe = encode_int_stream(np.ascontiguousarray(as_bytes[:, j]))
        plane_encs.append(pe)
        total += pe.nbytes()
    if total >= n * w:  # planes don't pay (random floats)
        return INT_CODECS["plain"].encode(vals)
    meta = {
        "dt": dtype_code(vals.dtype),
        "n": n,
        "planes": [{"codec": p.codec, "meta": p.meta} for p in plane_encs],
        "plane_nparts": [len(p.parts) for p in plane_encs],
    }
    parts: list = []
    for p in plane_encs:
        p.meta["part_lens"] = [len(x) for x in p.parts]
        parts.extend(p.parts)
    return Encoded("float_planes", meta, parts)


def _decode_float_stream(enc: Encoded) -> np.ndarray:
    m = enc.meta
    dt = code_dtype(m["dt"])
    n, w = m["n"], np.dtype(dt).itemsize
    out = np.empty((n, w), dtype=np.uint8)
    idx = 0
    for j, (pmeta, k) in enumerate(zip(m["planes"], m["plane_nparts"])):
        pe = Encoded(pmeta["codec"], pmeta["meta"], enc.parts[idx : idx + k])
        out[:, j] = decode_int_stream(pe).astype(np.uint8)
        idx += k
    return out.reshape(-1).view(dt)[:n]


def _decode_primitive(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    ventry = meta["streams"]["values"]
    k = len(ventry["meta"]["part_lens"])
    enc = Encoded(ventry["codec"], ventry["meta"], parts[idx : idx + k])
    if enc.codec == "float_planes":
        vals = _decode_float_stream(enc)
    elif enc.codec == "alp":
        vals = _decode_alp(enc)
    elif ventry["meta"].get("dt") == "b1" and enc.codec != "plain":
        enc.meta = dict(enc.meta, dt="u1")
        vals = decode_int_stream(enc).astype(bool)
    else:
        vals = decode_int_stream(enc)
    if (pa.types.is_timestamp(atype) or pa.types.is_date32(atype)
            or pa.types.is_time32(atype) or pa.types.is_time64(atype)
            or pa.types.is_duration(atype) or pa.types.is_date64(atype)
            or pa.types.is_float16(atype)):
        width = atype.bit_width // 8
        vbuf, nulls = _validity_bitmap_buffer(vmask)
        return pa.Array.from_buffers(
            atype, n,
            [vbuf, pa.py_buffer(np.ascontiguousarray(
                vals.astype(f"i{width}", copy=False)).tobytes())],
            null_count=nulls,
        )
    out = pa.array(vals, type=atype)
    if vmask is not None:
        out = pc.if_else(pa.array(vmask), out, pa.scalar(None, atype))
    return out


# ---------------------------------------------------------------------------
# String / binary columns


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, bytes]:
    """(lengths int64, concatenated data bytes) of a null-free string array."""
    off_dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    if len(arr) == 0 or bufs[1] is None:
        return np.zeros(0, dtype=np.int64), b""
    off = np.frombuffer(bufs[1], dtype=off_dt)[arr.offset : arr.offset + len(arr) + 1]
    data = bufs[2].to_pybytes() if bufs[2] is not None else b""
    lengths = np.diff(off).astype(np.int64)
    data = data[int(off[0]) : int(off[-1])]
    return lengths, data


_PATTERN_MAX_LEN = 64


def _detect_prefix_int_pattern(lengths: np.ndarray, data: bytes):
    """Detect `constant-prefix + fixed-width decimal suffix` strings
    (sequential ids: "doc-0000000042").  Returns (prefix bytes, width,
    int64 values) or None.  Fully vectorized: one reshape + column
    equality scan + one digit dot product."""
    n = lengths.size
    if n < 2:  # a single row is all "constant prefix" — nothing to code
        return None
    L = int(lengths[0])
    if L == 0 or L > _PATTERN_MAX_LEN or not np.all(lengths == L):
        return None
    mat = np.frombuffer(data, dtype=np.uint8).reshape(n, L)
    const_col = (mat == mat[0]).all(axis=0)
    # prefix = longest constant run from position 0
    p = int(np.argmin(const_col)) if not const_col.all() else L
    digits = mat[:, p:] - 48
    W = L - p
    if W == 0 or W > 18:
        return None
    if digits.min() < 0 or digits.max() > 9:
        return None
    powers = (10 ** np.arange(W - 1, -1, -1)).astype(np.int64)
    vals = digits.astype(np.int64) @ powers
    return bytes(mat[0, :p]), W, vals


def _encode_string(arr: pa.Array) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    filled = _fill_nulls(arr)
    n = len(filled)
    # strategy: dict the strings when repetition is high
    smp = filled.slice(0, min(n, _NDV_SAMPLE))
    ndv_sample = len(pc.unique(smp))
    parts: list = list(vparts)
    meta: dict = {"kind": "string", "streams": {"validity": validity}}
    if arr.null_count == 0 and n > 0:
        # prefixed-integer ids (sequential keys): prefix + delta-coded
        # int stream beats both dict and FSST by orders of magnitude
        lengths, data = _string_buffers(filled)
        pat = _detect_prefix_int_pattern(lengths, data)
        if pat is not None:
            import base64

            prefix, width, vals = pat
            ientry, iparts = _emit(encode_int_stream(vals))
            meta["strategy"] = "pattern"
            meta["prefix"] = base64.b64encode(prefix).decode("ascii")
            meta["width"] = width
            meta["streams"]["ints"] = ientry
            return meta, parts + iparts
    if n > 0 and ndv_sample <= 0.5 * len(smp):
        dictized = filled.dictionary_encode()
        codes = dictized.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dict_vals = dictized.dictionary
        centry, cparts = _emit(encode_int_stream(codes))
        dmeta, dparts = _encode_string_raw(dict_vals)
        meta["strategy"] = "dict"
        meta["streams"]["codes"] = centry
        meta["dict"] = dmeta
        return meta, parts + cparts + dparts
    rmeta, rparts = _encode_string_raw(filled)
    meta["strategy"] = "raw"
    meta["raw"] = rmeta
    return meta, parts + rparts


def _encode_string_raw(arr: pa.Array) -> tuple[dict, list]:
    lengths, data = _string_buffers(arr)
    lentry, lparts = _emit(encode_int_stream(lengths))
    sample = data[:_STR_SAMPLE_BYTES]
    # per-chunk table, trained once for both the estimate and the encode
    codec = FsstCodec(train_merges(sample) if len(sample) else None)
    est_fsst = codec.estimate_bytes(sample, len(data))
    if est_fsst < len(data):
        denc = codec.encode(data, sample=sample)
    else:
        denc = Encoded("plain_bytes", {"nbytes": len(data)}, [data])
    dentry, dparts = _emit(denc)
    return {"lengths": lentry, "data": dentry}, lparts + dparts


def _decode_string_raw(meta: dict, parts: list, atype: pa.DataType, n: int) -> tuple[pa.Array, int]:
    idx = 0
    lentry = meta["lengths"]
    k = len(lentry["meta"]["part_lens"])
    lengths = decode_int_stream(Encoded(lentry["codec"], lentry["meta"], parts[idx : idx + k]))
    idx += k
    dentry = meta["data"]
    k = len(dentry["meta"]["part_lens"])
    dparts = parts[idx : idx + k]
    idx += k
    if dentry["codec"] == "fsst":
        data = FsstCodec().decode(Encoded("fsst", dentry["meta"], dparts))
    else:
        data = dparts[0]
    off_t = pa.int64() if pa.types.is_large_string(atype) else pa.int32()
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    if len(data) < int(offsets[-1]):
        raise ValueError(
            f"string data stream truncated: have {len(data)} bytes, "
            f"need {int(offsets[-1])}"
        )
    off_np = offsets.astype(np.int64 if off_t == pa.int64() else np.int32)
    out = pa.Array.from_buffers(
        atype, n, [None, pa.py_buffer(off_np.tobytes()), pa.py_buffer(data)]
    )
    return out, idx


def _decode_string(meta: dict, parts: list, atype: pa.DataType, n: int) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    if meta["strategy"] == "pattern":
        import base64

        ientry = meta["streams"]["ints"]
        k = len(ientry["meta"]["part_lens"])
        vals = decode_int_stream(
            Encoded(ientry["codec"], ientry["meta"], parts[idx : idx + k])
        ).astype(np.int64)
        prefix = base64.b64decode(meta["prefix"])
        W = int(meta["width"])
        L = len(prefix) + W
        mat = np.empty((n, L), dtype=np.uint8)
        if prefix:
            mat[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
        v = vals.copy()
        for w in range(W):  # W <= 18 vectorized passes
            mat[:, L - 1 - w] = (v % 10 + 48).astype(np.uint8)
            v //= 10
        off_t = np.int64 if pa.types.is_large_string(atype) else np.int32
        offsets = (np.arange(n + 1, dtype=np.int64) * L).astype(off_t)
        out = pa.Array.from_buffers(
            atype, n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(mat.tobytes())],
        )
    elif meta["strategy"] == "dict":
        centry = meta["streams"]["codes"]
        k = len(centry["meta"]["part_lens"])
        codes = decode_int_stream(Encoded(centry["codec"], centry["meta"], parts[idx : idx + k]))
        idx += k
        ndict = _count_meta_rows(meta["dict"])
        dict_vals, used = _decode_string_raw(meta["dict"], parts[idx:], atype, ndict)
        out = dict_vals.take(pa.array(codes.astype(np.int64)))
    else:
        out, _ = _decode_string_raw(meta["raw"], parts[idx:], atype, n)
    if vmask is not None:
        out = pc.if_else(pa.array(vmask), out, pa.scalar(None, atype))
    return out


def _count_meta_rows(raw_meta: dict) -> int:
    return raw_meta["lengths"]["meta"]["n"]


# ---------------------------------------------------------------------------
# List columns (tokens: list<int32> — the graft axis, SURVEY.md §1.1)


def _encode_list(arr: pa.Array, forced: Optional[str] = None,
                 shared=None, lengths_ref: Optional[str] = None) -> tuple[dict, list]:
    validity, vparts = _validity_stream(arr)
    child = arr.flatten()  # values of non-null slots, concatenated
    if lengths_ref is not None:
        # Cross-column dedup: another column in the same chunk stores
        # exactly these lengths (caller verified elementwise equality),
        # so the stream is a zero-byte reference resolved at decode
        # from that column's decoded values.
        lentry: dict = {"codec": "ref", "meta": {"col": lengths_ref, "part_lens": []}}
        lparts: list = []
    else:
        lengths = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        lentry, lparts = _emit(encode_int_stream(lengths))
    # the shared dict describes the COLUMN's value stream — for a list
    # column that is the child values, never the lengths
    cmeta, cparts = encode_column_chunk(child, forced=forced, shared_int=shared)
    meta = {
        "kind": "list",
        "streams": {"validity": validity, "lengths": lentry},
        "child": cmeta,
        "child_n": len(child),
    }
    return meta, vparts + lparts + cparts


def _decode_list(meta: dict, parts: list, atype: pa.DataType, n: int,
                 refs: Optional[dict] = None) -> pa.Array:
    idx = 0
    validity = meta["streams"]["validity"]
    vmask = None
    if validity is not None:
        k = len(validity["meta"]["part_lens"])
        vmask = _decode_validity(validity, parts[idx : idx + k], n)
        idx += k
    lentry = meta["streams"]["lengths"]
    if lentry["codec"] == "ref":
        tname = lentry["meta"]["col"]
        if not refs or tname not in refs:
            raise ValueError(
                f"lengths stream references column {tname!r} which was not "
                "provided to the decode (ref targets must be decoded first)")
        ref = refs[tname]
        if isinstance(ref, (pa.Array, pa.ChunkedArray)):
            ref = ref.to_numpy(zero_copy_only=False)
        lengths = np.asarray(ref, dtype=np.int64)
        if lengths.size != n:
            raise ValueError(
                f"lengths ref {tname!r} has {lengths.size} values, chunk has {n} rows")
    else:
        k = len(lentry["meta"]["part_lens"])
        lengths = decode_int_stream(Encoded(lentry["codec"], lentry["meta"], parts[idx : idx + k]))
        idx += k
    child = decode_column_chunk(meta["child"], parts[idx:], meta["child_n"])
    if pa.types.is_large_list(atype):
        offs = pa.array(np.concatenate(([0], np.cumsum(lengths))), pa.int64())
        cls = pa.LargeListArray
    else:
        offs = pa.array(
            np.concatenate(([0], np.cumsum(lengths))).astype(np.int32), pa.int32()
        )
        cls = pa.ListArray
    if vmask is None:
        out = cls.from_arrays(offs, child, type=atype)
    else:
        out = cls.from_arrays(offs, child, type=atype, mask=pa.array(~vmask))
    return out


# ---------------------------------------------------------------------------
# Public chunk API


def encode_column_chunk(arr, forced: Optional[str] = None,
                        shared_int=None,
                        lengths_ref: Optional[str] = None) -> tuple[dict, list]:
    """Arrow array/chunked-array -> (meta dict, ordered payload parts).

    ``forced`` pins the integer-stream codec (graft of a user-chosen
    per-column encoder, bypassing the selector).  ``shared_int``: a
    corpus-global ``SharedIntDict`` candidate for this column's integer
    value stream (primitive values or list-child values).
    ``lengths_ref``: name of a sibling column whose values equal this
    list column's lengths (caller-verified) — the lengths stream is
    stored as a zero-byte reference to it."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        meta, parts = _encode_string(arr)
    elif pa.types.is_list(t) or pa.types.is_large_list(t):
        meta, parts = _encode_list(arr, forced, shared_int, lengths_ref)
    elif (pa.types.is_time32(t) or pa.types.is_time64(t) or pa.types.is_duration(t)
          or pa.types.is_date64(t) or pa.types.is_float16(t)):
        # integer-storage logical types: encode the storage ints, keep
        # the logical type in atype (rebuilt at decode)
        iv = arr.view({16: pa.int16(), 32: pa.int32(), 64: pa.int64()}[t.bit_width])
        meta, parts = _encode_primitive(iv, forced)
    elif pa.types.is_decimal128(t):
        meta, parts = _encode_decimal(arr, forced)
    elif pa.types.is_decimal(t):
        raise TypeError(
            f"unsupported arrow type {t} (only decimal128 is encodable; "
            "decimal256 needs a 4-word path)"
        )
    elif pa.types.is_dictionary(t):
        meta, parts = _encode_dictionary(arr, forced)
    elif pa.types.is_fixed_size_binary(t):
        meta, parts = _encode_fixed_binary(arr)
    elif pa.types.is_fixed_size_list(t):
        meta, parts = _encode_fixed_list(arr, forced)
    elif pa.types.is_struct(t):
        meta, parts = _encode_struct(arr, forced)
    else:
        meta, parts = _encode_primitive(arr, forced, shared_int)
    meta["atype"] = type_to_desc(t)
    meta["n"] = len(arr)
    return meta, parts


def decode_column_chunk(meta: dict, parts: list, n: Optional[int] = None,
                        refs: Optional[dict] = None) -> pa.Array:
    atype = desc_to_type(meta["atype"])
    n = meta["n"] if n is None else n
    if meta["kind"] == "string":
        return _decode_string(meta, parts, atype, n)
    if meta["kind"] == "list":
        return _decode_list(meta, parts, atype, n, refs)
    if meta["kind"] == "decimal":
        return _decode_decimal(meta, parts, atype, n)
    if meta["kind"] == "dict_wrap":
        return _decode_dictionary(meta, parts, atype, n)
    if meta["kind"] == "fixed_binary":
        return _decode_fixed_binary(meta, parts, atype, n)
    if meta["kind"] == "fixed_list":
        return _decode_fixed_list(meta, parts, atype, n)
    if meta["kind"] == "struct":
        return _decode_struct(meta, parts, atype, n)
    return _decode_primitive(meta, parts, atype, n)


def encode_column(arr, forced: Optional[str] = None,
                  shared_int=None,
                  lengths_ref: Optional[str] = None) -> tuple[bytes, dict]:
    """Pack to a single payload buffer + self-describing meta."""
    meta, parts = encode_column_chunk(arr, forced, shared_int, lengths_ref)
    meta["total_lens"] = [len(p) for p in parts]
    return b"".join(bytes(p) for p in parts), meta


def decode_column(payload: bytes, meta: dict, refs: Optional[dict] = None) -> pa.Array:
    parts, off = [], 0
    for ln in meta["total_lens"]:
        parts.append(payload[off : off + ln])
        off += ln
    return decode_column_chunk(meta, parts, refs=refs)
