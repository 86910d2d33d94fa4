"""FSST-inspired byte-stream compression (string data buffers).

Public-knowledge basis: "FSST: Fast Random Access String Compression"
(VLDB 2020, see PAPERS.md) — a small symbol table of frequent
substrings replaced by 1-code tokens.  Our from-scratch variant builds
the table by iterative byte-pair merging (so training and application
are fully numpy-vectorized, no per-byte Python loop) and emits
frequency-ranked varint codes.  Graft of the reference's string
escape/unescape pair (siphon/src/Siphon.hs:297-334 /
siphon/src/Siphon/Internal.hs:57-76): a byte-exact, reversible
re-framing of string cell content.

The lengths stream is stored separately (see strings.py), so the data
buffer is compressed as one concatenated blob; merges that happen to
span two strings are harmless because decode reconstructs the whole
blob before re-splitting by lengths.

Determinism: training is a pure function of the sample (ties break on
smaller pair key); encode applies the recorded merge list in order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import ChunkStats, Codec, Encoded, varint_decode, varint_encode

MAX_MERGES = 224        # symbol table size budget (codes 256..256+MAX_MERGES)
MAX_SYMBOL_LEN = 16     # cap expanded symbol length (FSST caps at 8)
_PAIR_SHIFT = np.uint32(16)


def _find_matches(arr: np.ndarray, a: int, b: int) -> np.ndarray:
    """Positions of non-overlapping (a,b) adjacent pairs, greedy-left."""
    p = np.flatnonzero((arr[:-1] == a) & (arr[1:] == b))
    if a == b and p.size > 1:
        # runs like aaaa match at 0,1,2 — keep alternate positions
        newrun = np.concatenate(([True], np.diff(p) > 1))
        runid = np.cumsum(newrun) - 1
        runstart = p[newrun][runid]
        p = p[((p - runstart) % 2) == 0]
    return p


def _apply_one_merge(arr: np.ndarray, a: int, b: int, code: int) -> np.ndarray:
    p = _find_matches(arr, a, b)
    if p.size == 0:
        return arr
    out = arr.copy()
    out[p] = code
    mask = np.ones(arr.size, dtype=bool)
    mask[p + 1] = False
    return out[mask]


def train_merges(sample: bytes, max_merges: int = MAX_MERGES, min_count: int = 4) -> list:
    """Learn an ordered merge list [(a, b), ...] from a byte sample.

    Pure function of the sample; most-frequent pair first, ties broken
    on the smaller packed key so retries are bit-identical.
    """
    arr = np.frombuffer(sample, dtype=np.uint8).astype(np.uint16)
    merges: list[tuple[int, int]] = []
    sym_len = np.ones(256 + max_merges, dtype=np.int64)
    for i in range(max_merges):
        if arr.size < 2:
            break
        keys = (arr[:-1].astype(np.uint32) << _PAIR_SHIFT) | arr[1:].astype(np.uint32)
        uk, counts = np.unique(keys, return_counts=True)
        # mask out pairs whose merged symbol would exceed the length cap
        ka = (uk >> _PAIR_SHIFT).astype(np.int64)
        kb = (uk & np.uint32(0xFFFF)).astype(np.int64)
        ok = (sym_len[ka] + sym_len[kb]) <= MAX_SYMBOL_LEN
        uk, counts, ka, kb = uk[ok], counts[ok], ka[ok], kb[ok]
        if counts.size == 0:
            break
        best = int(np.lexsort((uk, -counts))[0])
        if counts[best] < min_count:
            break
        a, b = int(ka[best]), int(kb[best])
        code = 256 + len(merges)
        sym_len[code] = sym_len[a] + sym_len[b]
        merges.append((a, b))
        arr = _apply_one_merge(arr, a, b, code)
    return merges


def apply_merges(data: bytes, merges: list) -> np.ndarray:
    """Compress a byte blob into a uint16 code stream."""
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    for i, (a, b) in enumerate(merges):
        arr = _apply_one_merge(arr, a, b, 256 + i)
    return arr


def expansion_table(merges: list) -> tuple[np.ndarray, np.ndarray]:
    """(table[ncodes, MAX_SYMBOL_LEN] uint8, lens[ncodes]) for decode."""
    ncodes = 256 + len(merges)
    tab = np.zeros((ncodes, MAX_SYMBOL_LEN), dtype=np.uint8)
    lens = np.zeros(ncodes, dtype=np.int64)
    tab[:256, 0] = np.arange(256, dtype=np.uint8)
    lens[:256] = 1
    for i, (a, b) in enumerate(merges):
        c = 256 + i
        la, lb = int(lens[a]), int(lens[b])
        tab[c, :la] = tab[a, :la]
        tab[c, la : la + lb] = tab[b, :lb]
        lens[c] = la + lb
    return tab, lens


def expand_codes(codes: np.ndarray, merges: list) -> bytes:
    """Vectorized decode: code stream -> original byte blob."""
    if codes.size == 0:
        return b""
    tab, lens = expansion_table(merges)
    cl = lens[codes]
    exp = tab[codes]                       # (n, MAX_SYMBOL_LEN)
    mask = np.arange(MAX_SYMBOL_LEN)[None, :] < cl[:, None]
    return exp[mask].tobytes()


class FsstCodec(Codec):
    """Byte-blob codec: learned merges + frequency-ranked varint codes."""

    name = "fsst"

    def __init__(self, merges: Optional[list] = None):
        # None trains a table on each call's sample
        self.merges = merges

    # byte-stream estimate works on a trial sample, not ChunkStats —
    # see strings.py which calls estimate_bytes directly.
    def estimate(self, st: ChunkStats) -> Optional[int]:
        return None

    def estimate_bytes(self, sample: bytes, total_len: int) -> int:
        if len(sample) == 0:
            return 64
        merges = self.merges or train_merges(sample)
        if not merges:
            return total_len + 64
        codes = apply_merges(sample, merges)
        ratio = max(codes.size / len(sample), 0.05)
        # varint ~1.1 bytes/code after frequency ranking; table ~4B/merge
        return int(total_len * ratio * 1.1) + 4 * len(merges) + 64

    def encode(self, data: bytes, sample: Optional[bytes] = None) -> Encoded:
        merges = self.merges
        if merges is None:
            merges = train_merges(sample if sample is not None else data)
        codes = apply_merges(data, merges)
        # frequency-rank the used codes: hot symbols get 1-byte varints
        used, inv, counts = np.unique(codes, return_inverse=True, return_counts=True)
        order = np.lexsort((used, -counts))
        rank_of = np.empty(used.size, dtype=np.int64)
        rank_of[order] = np.arange(used.size)
        ranked = rank_of[inv]
        code_map = used[order].astype(np.uint16)  # rank -> code
        meta = {
            "nbytes": int(len(data)),
            "ncodes": int(codes.size),
            "merges": [[int(a), int(b)] for a, b in merges],
        }
        return Encoded(
            self.name, meta,
            [varint_encode(ranked.astype(np.uint64)), code_map.tobytes()],
        )

    def decode(self, enc: Encoded) -> bytes:
        m = enc.meta
        if m["ncodes"] == 0:
            return b""
        ranked = varint_decode(enc.parts[0], m["ncodes"]).astype(np.int64)
        code_map = np.frombuffer(enc.parts[1], dtype=np.uint16)
        codes = code_map[ranked].astype(np.int64)
        merges = [(a, b) for a, b in m["merges"]]
        out = expand_codes(codes, merges)
        assert len(out) == m["nbytes"], "fsst round-trip length mismatch"
        return out
