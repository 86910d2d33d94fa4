"""Corpus-global shared integer dictionaries.

The north star's "build and reuse ... dictionaries across batches",
made deterministic (tables are trained once by a pre-pass and pinned,
so every encode task sees the same fixed input) — and the lever
behind the engine's last compression gap: a per-chunk token
dictionary costs ~45 KB per ~1.75M-token chunk (~0.026 B/token,
measured at sf0.1), which is most of the distance between dict_rans
(0.900 B/token on the token stream) and the corpus order-0 entropy
(0.862 B/token).

Mechanics:

* ``SharedIntDict.train(values)`` builds a frequency-rank-ordered
  value table from a deterministic pre-pass sample (same rank rule as
  ``DictBitlenCodec``: descending count, first-seen/ascending-value
  tie-break).
* ``save(out_dir)`` persists it ONCE, content-addressed, under
  ``<out_dir>/_dicts/dict-<ref>.npy`` (atomic tmp+rename, idempotent —
  safe under chaos kills and concurrent commit groups).
* Chunks encoded against it (``dict_rans2_shared`` — half-octave
  selector classes, no escape; ``dict_rans_shared`` kept as the
  escape-layout predecessor, codecs/ints.py) store only ranks +
  per-chunk *extras* (values the sample never saw) and reference the
  table by content hash; the table itself never repeats per chunk.
* Decode resolves the hash through a process-global content-addressed
  cache: in-memory first, then any ``register_dir``-ed output roots,
  then the absolute path hint recorded at encode time.  Loaded tables
  are verified against their content hash, so a corrupt or swapped
  sidecar fails loudly instead of decoding garbage.

Resume/determinism: the dict is a pure function of the sample spec
(file list slice + value cap), persisted before any commit group
encodes — a resumed run reloads the identical table from the manifest
(pipelines.encode_pipeline.train_shared_dicts), so resumed groups are
byte-compatible with the original run's. This is *stronger* than the
FSST actor-state reuse, whose tables are train-on-first-batch.

Reference parity: the reference builds its encoder column set once
and folds it over every row batch (colonnade/src/Colonnade/Encode.hs:
560-566, "encoder built once, folded over many times"); the shared
dictionary is that build-once artifact for the columnar engine.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional

import numpy as np

DICT_DIR = "_dicts"

# lookup-table fast path bound: vocab ranges up to 16M values get an
# O(1) gather; wider ranges fall back to binary search
_LUT_MAX_RANGE = 1 << 24

# process-global content-addressed cache + search roots (decode side)
_CACHE: dict = {}
_CACHE_CAP = 64
_DIRS: list = []

_MAGIC = b"CRSD1\n"


class SharedIntDict:
    """Frequency-rank-ordered value dictionary shared across chunks.

    ``by_rank[r]`` = the value of rank r (hotter = smaller rank),
    canonically int64.  Lookup structures are built lazily so a
    broadcast copy ships only the table itself.
    """

    def __init__(self, by_rank: np.ndarray):
        self.by_rank = np.ascontiguousarray(by_rank, dtype=np.int64)
        h = hashlib.blake2b(digest_size=12)
        h.update(self.by_rank.tobytes())
        self.ref = h.hexdigest()
        self.path: Optional[str] = None  # decode hint (set by save/load)
        self._sorted: Optional[np.ndarray] = None
        self._perm: Optional[np.ndarray] = None
        self._lut: Optional[np.ndarray] = None
        self._vmin = 0

    # -- construction ------------------------------------------------

    @classmethod
    def train(cls, values: np.ndarray, max_size: int = 1 << 22) -> "SharedIntDict":
        """Rank values by sample frequency (desc), ascending-value
        tie-break; truncate to the hottest ``max_size`` (colder values
        ride each chunk's extras stream)."""
        uniq, counts = np.unique(values, return_counts=True)  # uniq ascending
        order = np.lexsort((np.arange(uniq.size), -counts))
        by_rank = uniq[order]
        if by_rank.size > max_size:
            by_rank = by_rank[:max_size]
        return cls(by_rank)

    @property
    def size(self) -> int:
        return int(self.by_rank.size)

    def __reduce__(self):  # broadcast ships the table, not the lookups
        return (SharedIntDict._rebuild, (self.by_rank, self.path))

    @staticmethod
    def _rebuild(by_rank, path):
        sd = SharedIntDict(by_rank)
        sd.path = path
        return sd

    # -- lookup ------------------------------------------------------

    def _ensure_lookup(self) -> None:
        if self._sorted is not None:
            return
        order = np.argsort(self.by_rank, kind="stable")
        self._sorted = self.by_rank[order]
        self._perm = order.astype(np.uint32)
        if self.size:
            self._vmin = int(self._sorted[0])
            rng = int(self._sorted[-1]) - self._vmin + 1
            if rng <= _LUT_MAX_RANGE:
                lut = np.full(rng, self.size, dtype=np.uint32)
                lut[self.by_rank - self._vmin] = np.arange(
                    self.size, dtype=np.uint32)
                self._lut = lut

    def ranks_of(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ranks uint32, miss mask).  Misses carry rank == self.size
        (the caller re-homes them onto its per-chunk extras)."""
        self._ensure_lookup()
        m = np.uint32(self.size)
        if arr.size == 0 or self.size == 0:
            return (np.full(arr.size, m, np.uint32),
                    np.ones(arr.size, dtype=bool))
        if self._lut is not None:
            idx = arr.astype(np.int64, copy=False) - self._vmin
            # fancy indexing copies, so the gather result is writable
            r = self._lut[np.clip(idx, 0, self._lut.size - 1)]
            oob = (idx < 0) | (idx >= self._lut.size)
            if oob.any():
                r[oob] = m
        else:
            a = arr.astype(np.int64, copy=False)
            pos = np.searchsorted(self._sorted, a)
            pos_c = np.minimum(pos, self.size - 1).astype(np.int64)
            r = self._perm[pos_c].copy()
            r[self._sorted[pos_c] != a] = m
        return r, r == m

    # -- persistence (content-addressed, atomic, idempotent) ----------

    def save(self, out_dir: str) -> str:
        """Persist THROUGH the engine's own int cascade (the sidecar
        is itself a column chunk: rank-ordered values, typically
        for_bitpack — ~4x smaller than raw int64), framed as
        magic + json header + payload parts."""
        import json

        from .columns import encode_int_stream

        ddir = os.path.join(out_dir, DICT_DIR)
        os.makedirs(ddir, exist_ok=True)
        path = os.path.join(ddir, f"dict-{self.ref}.bin")
        if not os.path.exists(path):
            enc = encode_int_stream(self.by_rank)
            enc.meta["part_lens"] = [len(p) for p in enc.parts]
            header = json.dumps(
                {"codec": enc.codec, "meta": enc.meta, "ref": self.ref},
                separators=(",", ":")).encode()
            fd, tmp = tempfile.mkstemp(dir=ddir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(_MAGIC)
                    f.write(len(header).to_bytes(4, "little"))
                    f.write(header)
                    for p in enc.parts:
                        f.write(p)
                os.replace(tmp, path)  # atomic; losers overwrite equals
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        self.path = path
        register(self)
        return path

    @classmethod
    def load(cls, path: str, expect_ref: Optional[str] = None) -> "SharedIntDict":
        import json

        from .base import Encoded
        from .columns import decode_int_stream

        with open(path, "rb") as f:
            magic = f.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError(f"not a shared-dict sidecar: {path}")
            hlen = int.from_bytes(f.read(4), "little")
            header = json.loads(f.read(hlen))
            payload = f.read()
        parts, off = [], 0
        for ln in header["meta"]["part_lens"]:
            parts.append(payload[off : off + ln])
            off += ln
        by_rank = decode_int_stream(
            Encoded(header["codec"], header["meta"], parts))
        sd = cls(by_rank)
        if expect_ref is not None and sd.ref != expect_ref:
            raise ValueError(
                f"shared dict content hash mismatch at {path}: "
                f"stored table hashes to {sd.ref}, chunk expects {expect_ref}"
            )
        sd.path = path
        return sd


# ---------------------------------------------------------------------------
# Process-global resolver (decode side)


def register(sd: SharedIntDict) -> SharedIntDict:
    """Cache (content-addressed — same ref IS same table).  Returns
    the cached instance so repeat broadcasts share lookup structures;
    a newer persisted location refreshes the cached path hint."""
    cur = _CACHE.get(sd.ref)
    if cur is not None:
        if sd.path:
            cur.path = sd.path
        return cur
    while len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[sd.ref] = sd
    return sd


def register_dir(out_dir: str) -> None:
    """Add an encode output root to the decode search path (for
    corpora moved since encode — the in-meta path hint covers the
    common same-filesystem case without this)."""
    if out_dir and out_dir not in _DIRS:
        _DIRS.append(out_dir)


def resolve(ref: str, hint_path: Optional[str] = None) -> SharedIntDict:
    if ref in _CACHE:
        return _CACHE[ref]
    candidates = [os.path.join(d, DICT_DIR, f"dict-{ref}.bin") for d in _DIRS]
    if hint_path:
        candidates.append(hint_path)
    for p in candidates:
        if os.path.exists(p):
            return register(SharedIntDict.load(p, expect_ref=ref))
    raise FileNotFoundError(
        f"shared dict {ref} not found (searched {len(candidates)} paths; "
        f"register the encode output dir via shared_dict.register_dir)"
    )


def _clear_cache() -> None:  # test hook
    _CACHE.clear()
    _DIRS.clear()
