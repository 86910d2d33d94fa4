"""Per-chunk Bloom filters for point-read pruning.

Zone maps prune range predicates, but an equality predicate on a
high-cardinality column (doc ids, user ids, content hashes) sees
overlapping [min, max] bands in every chunk and prunes nothing.  An
opt-in per-chunk Bloom filter (``encode_corpus(bloom_cols=[...])``)
closes that gap: ``count_where(("doc_id", "==", X))`` and predicated
decodes skip every chunk whose filter proves X absent — at 16 bits
per distinct key / k=4 the false-positive rate is ~0.24%, so a point
lookup over a 100-TB corpus reads ~the one true chunk (plus group
manifests), not the corpus.

Storage: ``stats_json["__bloom__"][col] = {"m": bits, "k": 4,
"b64": ...}`` — riding the existing stats channel means the filter
flows through lineage manifests (GROUP-level pruning probes it too,
killing whole groups driver-side) and through every rewrite that
preserves stats.  Absence is CONSERVATIVE (chunk stays may-match), so
operators that re-encode chunks without re-deriving filters
(update_where) degrade pruning, never correctness.

Hashing: ``pandas.util.hash_array`` (SipHash-1-3 with the library's
fixed default key) — deterministic, vectorized for both integer and
object/string arrays; k positions derive from one 64-bit hash by
double hashing (h1 + i*h2 mod m).
"""

from __future__ import annotations

import base64
from typing import Optional

import numpy as np
import pyarrow as pa

BITS_PER_KEY = 16
K_HASHES = 4
_MIN_BITS = 1 << 10
_MAX_BITS = 1 << 22  # 512 KiB cap: a chunk with more distinct keys
#                      than this/16 shouldn't carry a bloom (opt-in
#                      columns are ids, which are bounded by n_rows)


def _hash_u64(vals: np.ndarray) -> np.ndarray:
    import pandas as pd

    return pd.util.hash_array(vals)


def _prep_values(arr) -> Optional[np.ndarray]:
    """Arrow array -> hashable numpy values, or None when the type has
    no bloom support (floats: equality predicates on floats are not a
    point-lookup workload)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_integer(t):
        try:
            v = arr.drop_null().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
        except pa.ArrowInvalid:
            return None  # uint64 beyond int64: no bloom, stay encodable
        return v.astype(np.int64)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return arr.drop_null().to_numpy(zero_copy_only=False).astype(object)
    return None


def _positions(h: np.ndarray, m: int) -> np.ndarray:
    """(len(h) * K_HASHES,) bit positions via double hashing."""
    h1 = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    h2 = ((h >> np.uint64(32)) | np.uint64(1)).astype(np.uint64)
    i = np.arange(K_HASHES, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) %
            np.uint64(m)).ravel()


def build_bloom(arr) -> Optional[dict]:
    """Chunk column -> bloom entry dict, or None (unsupported type /
    too many distinct keys for the size cap)."""
    vals = _prep_values(arr)
    if vals is None or vals.size == 0:
        return None
    # hash first, dedup on the 64-bit hashes: the filter only sees
    # hashes, and uint64 unique is far cheaper than object unique
    uniq = np.unique(_hash_u64(vals))
    m = _MIN_BITS
    while m < uniq.size * BITS_PER_KEY and m < _MAX_BITS:
        m <<= 1
    if m < uniq.size * (BITS_PER_KEY // 2):
        return None  # would be too dense to prune anything
    bits = np.zeros(m, dtype=bool)
    bits[_positions(uniq, m)] = True
    return {"m": int(m), "k": K_HASHES,
            "b64": base64.b64encode(np.packbits(bits).tobytes()).decode()}


def value_hashes(values) -> Optional[np.ndarray]:
    """Bloom hashes of predicate constants, computed once per query:
    ints hash as int64 and strings as objects, exactly as
    ``build_bloom`` hashed the chunk's values.  None when any value
    can't be probed (bool, float, None, ints outside int64) — such a
    list may always match."""
    ints, strs = [], []
    for v in values:
        if isinstance(v, str):
            strs.append(v)
        elif (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
              and -(1 << 63) <= int(v) < (1 << 63)):
            ints.append(int(v))
        else:
            return None
    parts = [_hash_u64(np.array(ints, dtype=np.int64))] if ints else []
    if strs:
        parts.append(_hash_u64(np.array(strs, dtype=object)))
    return np.concatenate(parts).astype(np.uint64)


def bloom_may_contain(entry: dict, hashes: np.ndarray) -> bool:
    """True when any hashed value MAY be in the chunk's filter, False
    only when every one is provably absent.  Reads the k bits of each
    value straight from the packed filter bytes."""
    m = int(entry["m"])
    packed = np.frombuffer(base64.b64decode(entry["b64"]), dtype=np.uint8)
    pos = _positions(hashes, m).reshape(-1, K_HASHES)
    bits = (packed[pos >> np.uint64(3)]
            >> (np.uint64(7) - (pos & np.uint64(7))).astype(np.uint8)) & 1
    return bool(bits.all(axis=1).any())


def probe_bloom(entry: dict, value) -> bool:
    """True when the value MAY be present (or can't be probed);
    False only when provably absent."""
    h = value_hashes([value])
    return h is None or bloom_may_contain(entry, h)


# ---------------------------------------------------------------------------
# Per-chunk HyperLogLog registers: metadata-only APPROX COUNT(DISTINCT)

HLL_P = 10  # 1024 registers -> ~3.2% relative error, ~1.4 KB b64/chunk


def _rho(w: np.ndarray, width: int) -> np.ndarray:
    """Position (1-based) of the leftmost 1 bit in the top ``width``
    bits of each uint64, ``width + 1`` when they are all zero —
    vectorized as one masked pass per bit (width <= 54 numpy ops on
    the chunk, no per-value Python)."""
    rho = np.full(w.size, width + 1, dtype=np.uint8)
    found = np.zeros(w.size, dtype=bool)
    for bit in range(width):
        m = ~found & (((w >> np.uint64(63 - bit)) & np.uint64(1)) == 1)
        rho[m] = bit + 1
        found |= m
    return rho


def build_hll(arr, p: int = HLL_P) -> Optional[dict]:
    """Chunk column -> HLL entry dict (same value domain as the bloom:
    integers and strings; floats return None)."""
    vals = _prep_values(arr)
    if vals is None:
        return None
    regs = np.zeros(1 << p, dtype=np.uint8)
    if vals.size:
        h = _hash_u64(vals).astype(np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        np.maximum.at(regs, idx, _rho(h << np.uint64(p), 64 - p))
    return {"p": int(p),
            "b64": base64.b64encode(regs.tobytes()).decode()}


def hll_registers(entry: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(entry["b64"]),
                         dtype=np.uint8).copy()


def merge_hll(regs_a: np.ndarray, regs_b: np.ndarray) -> np.ndarray:
    """Register-wise max — the lossless union property that makes the
    sketch shard-parallel: sketch(A ∪ B) == max(sketch(A), sketch(B))."""
    return np.maximum(regs_a, regs_b)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator (Flajolet et al. 2007) with the
    small-range linear-counting correction; no large-range correction
    (64-bit hashes don't saturate)."""
    m = regs.size
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(est)


def hash_into_hll(arr, regs: np.ndarray, p: int = HLL_P) -> np.ndarray:
    """Fold a decoded column's values into existing registers — the
    exact-scan fallback for chunks without a stored sketch (or whose
    rows are delete-masked)."""
    vals = _prep_values(arr)
    if vals is None or vals.size == 0:
        return regs
    h = _hash_u64(vals).astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    np.maximum.at(regs, idx, _rho(h << np.uint64(p), 64 - p))
    return regs


# ---------------------------------------------------------------------------
# Per-chunk quantile grids: APPROX quantile pushdown (round-5)

QUANT_K = 256  # grid points/chunk: merged error ~ 1/K of chunk mass


def build_quant(arr, k: int = QUANT_K) -> Optional[dict]:
    """Chunk integer column -> deterministic k-point quantile grid
    ``{"n": non_null_count, "s": sorted grid values}``: evenly-spaced
    order statistics of the sorted non-null values (s[j] = the
    floor(j*(n-1)/(k-1))-th smallest).  No sampling randomness — the
    grid IS the chunk's exact quantile function evaluated at k points,
    so when k >= n it lists every value and the merged estimate
    becomes EXACT (the oracle-anchored regime).  Floats/strings return
    None (zone bands still bound their range)."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not pa.types.is_integer(arr.type):
        return None
    vals = arr.drop_null().to_numpy(zero_copy_only=False)
    n = int(vals.size)
    if n == 0:
        return None
    vals = np.sort(vals)
    if n <= k:
        grid = vals
    else:
        idx = (np.arange(k, dtype=np.int64) * (n - 1)) // (k - 1)
        grid = vals[idx]
    return {"n": n, "s": [int(v) for v in grid]}


def merge_quant_grids(grids, qs) -> list:
    """Weighted type-1 quantile over per-chunk grids (+ optional exact
    value arrays passed as ``(values, None)`` entries): every grid
    point carries weight n_i / len(s_i); the q-quantile is the
    smallest value whose cumulative weight reaches q * total (the
    ``quantile_disc`` convention — exact when every entry is exact).
    ``grids``: iterable of (np.ndarray values, weight_per_point or
    None for weight 1).  Values sort in int64, so integers above 2^53
    come back exact.  Returns [value per q] (None when empty)."""
    vs, ws = [], []
    for values, w in grids:
        v = np.asarray(values, dtype=np.int64)
        if v.size == 0:
            continue
        vs.append(v)
        ws.append(np.full(v.size, 1.0 if w is None else float(w)))
    if not vs:
        return [None for _ in qs]
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cw = np.cumsum(w)
    total = cw[-1]
    out = []
    for q in qs:
        if q <= 0:
            out.append(int(v[0]))
            continue
        # smallest index with cum weight >= q * total; epsilon guards
        # the float cumsum at exact integer boundaries
        target = q * total - 1e-9
        i = int(np.searchsorted(cw, target, side="left"))
        i = min(i, v.size - 1)
        out.append(int(v[i]))
    return out
