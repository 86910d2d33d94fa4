"""Decode stage: encoded chunk rows -> original Arrow rows.

Dual of encode.py — the graft of the reference's ``Siphon`` decode
drivers (``consumeBody``/``uncheckedRun``, siphon/src/Siphon.hs:578-749):
per chunk, apply every column's decoder, validate shape, accumulate
errors with coordinates instead of failing fast.

Stateless: a chunk row is self-describing (meta JSON carries codec
parameters, FSST merges included), so decode tasks are pure and
retry-safe.

Query-shaped decode:
- ``columns=``: PROJECTED decode — only the requested payload streams
  are decoded (and, via ``decode_corpus(columns=...)``, only they are
  even read from storage); integrity drops to per-column checksums
  (``meta["ck"]``) since the chunk checksum covers all payloads.
- predicates: the chunk planner (pipelines/chunk_plan.py) prunes
  chunks whose zone maps or Bloom filters prove no row matches, using
  the classifier below; ``decode_live`` exact-filters the survivors,
  so the result is precise, not approximate.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence, Tuple

import pyarrow as pa

from ..codecs import decode_column
from ..errors import CellError, ChecksumError, ChunkDecodeError

_OPS = {"==", "!=", ">", ">=", "<", "<=", "in", "startswith",
        "endswith", "contains", "is_null", "not_null"}


def _str_upper(v: str):
    """Smallest string greater than every string with prefix ``v`` —
    the exclusive upper bound of the prefix range [v, upper).  None
    when no bound exists (empty prefix / all-max codepoints)."""
    for i in range(len(v) - 1, -1, -1):
        c = ord(v[i])
        if c < 0x10FFFF:
            return v[:i] + chr(c + 1)
    return None


def _predicate_value(v):
    """Normalize a predicate constant to the zone-map's integer repr
    for temporal values (micros / days), passthrough otherwise."""
    import datetime as dt

    if isinstance(v, dt.datetime):
        return int(v.timestamp() * 1_000_000)
    if isinstance(v, dt.date):
        return (v - dt.date(1970, 1, 1)).days
    if isinstance(v, bool):
        return int(v)
    return v


_NODE_OPS = ("and", "or", "not")


def _is_node(p) -> bool:
    return (isinstance(p, (tuple, list)) and len(p) >= 2
            and isinstance(p[0], str) and p[0] in _NODE_OPS)


def _normalize_expr(p):
    """One predicate expression -> validated canonical form.  A leaf
    is ``(col, op, value)``; composition nodes are ``("and", e, ...)``,
    ``("or", e, ...)`` (n-ary, n >= 1) and ``("not", e)``."""
    if _is_node(p):
        op = p[0]
        kids = [_normalize_expr(k) for k in p[1:]]
        if op == "not" and len(kids) != 1:
            raise ValueError(f'("not", expr) takes exactly one operand: {p!r}')
        return (op, *kids)
    if not isinstance(p, (tuple, list)) or len(p) != 3 or p[1] not in _OPS:
        raise ValueError(f"unsupported predicate {p!r}")
    if p[1] == "in":
        vals = list(p[2])
        if not vals:
            raise ValueError(f"empty value list in predicate {p!r}")
        p = (p[0], "in", vals)
    if p[1] in ("startswith", "endswith", "contains") \
            and not isinstance(p[2], str):
        raise ValueError(f"{p[1]} needs a string value: {p!r}")
    if p[1] in ("is_null", "not_null"):
        p = (p[0], p[1], None)  # value is ignored
    return tuple(p)


def normalize_predicates(predicate) -> list:
    """One predicate expression or a sequence of them -> validated
    list (AND semantics across list elements).  None -> [].

    Each element is either a ``(col, op, value)`` clause or a boolean
    composition: ``("or", e1, e2, ...)``, ``("and", e1, ...)``,
    ``("not", e)`` — nested arbitrarily.  Every pushdown consumer
    (count/aggregate/topk/summary/decode/delete) prunes composed
    expressions against the zone + bloom metadata: conservative
    may-match union for disjunctions, complement-of-proven for
    negation (a chunk is all-¬p only when p provably matches no row
    AND the referenced columns are provably null-free — SQL
    three-valued NOT never selects null outcomes)."""
    if predicate is None:
        return []
    if _is_node(predicate) or (
        isinstance(predicate, tuple) and len(predicate) == 3
        and isinstance(predicate[1], str)
    ):
        preds = [predicate]
    else:
        preds = list(predicate)
    return [_normalize_expr(p) for p in preds]


def predicate_columns(preds) -> list:
    """Every column referenced by a predicate expression (or list of
    them), leaves-first order, deduplicated — the projection the
    exact filter needs decoded."""
    if preds is None:
        return []
    if isinstance(preds, tuple) and (
            _is_node(preds) or (len(preds) == 3
                                and isinstance(preds[1], str)
                                and preds[1] in _OPS)):
        preds = [preds]
    out: list = []

    def walk(e):
        if _is_node(e):
            for k in e[1:]:
                walk(k)
        else:
            if e[0] not in out:
                out.append(e[0])

    for p in preds:
        walk(p)
    return out


def predicate_json(preds) -> list:
    """JSON-able form of a normalized predicate list (for lifecycle
    markers / idempotence keys): leaves -> [col, op, value(,list for
    'in')]; nodes -> [op, child, ...]."""

    def enc(e):
        if _is_node(e):
            return [e[0]] + [enc(k) for k in e[1:]]
        return [e[0], e[1], list(e[2]) if e[1] == "in" else e[2]]

    return [enc(p) for p in preds]


def _zero_nulls_proven(stats: dict, cols) -> bool:
    """True only when the chunk PROVES every listed column null-free
    (a present __nulls__ side table; absent column entry = 0 by the
    encode convention)."""
    nt = stats.get("__nulls__")
    if nt is None:
        return False
    return all(not nt.get(c, 0) for c in cols)


def parse_stats(stats_json: Optional[str]) -> dict:
    """A chunk's ``stats_json`` string -> dict ({} when absent)."""
    return json.loads(stats_json) if stats_json else {}


class _Leaf:
    """One ``(col, op, value)`` clause, compiled: an ``==`` / ``in``
    clause hashes its values for the Bloom probe here, once per query,
    instead of once per value per chunk."""

    __slots__ = ("col", "op", "val", "hashes")

    def __init__(self, clause):
        self.col, self.op, self.val = clause
        self.hashes = None
        if self.op in ("==", "in"):
            from .bloomzone import value_hashes

            self.hashes = value_hashes(
                self.val if self.op == "in" else [self.val])


def _compile(e):
    """Predicate expression -> the same tree with compiled leaves."""
    if _is_node(e):
        return (e[0], *[_compile(k) for k in e[1:]])
    return _Leaf(e)


def _leaf_cols(e) -> list:
    if isinstance(e, _Leaf):
        return [e.col]
    return [c for k in e[1:] for c in _leaf_cols(k)]


def _may(stats: dict, e) -> bool:
    """False only when the chunk's [min, max] PROVES no row matches.
    Equality / set-membership predicates additionally probe the
    chunk's per-column Bloom filter when one was recorded
    (``encode_corpus(bloom_cols=...)``, stages/bloomzone.py) — the
    point-read pruner zone bands can't provide on high-cardinality
    columns.  Absence of a filter is conservative (may-match)."""
    if not isinstance(e, _Leaf):
        op = e[0]
        if op == "and":
            return all(_may(stats, k) for k in e[1:])
        if op == "or":
            # conservative union: the chunk survives if ANY branch may
            return any(_may(stats, k) for k in e[1:])
        # not: only an ALL-match proof of the operand excludes ¬p rows
        return not _all(stats, e[1])
    if not stats:
        return True
    col, op, val = e.col, e.op, e.val
    if op == "is_null":
        # provably null-free needs a zone entry (a statable, not
        # all-null column) AND a proven-zero null count
        return not (col in stats and _zero_nulls_proven(stats, [col]))
    if op == "not_null":
        # an all-null column carries no zone entry, so all-null is
        # never provable from stats — stay conservative
        return True
    bent = stats.get("__bloom__", {}).get(col)
    if bent is not None and e.hashes is not None:
        from .bloomzone import bloom_may_contain

        if not bloom_may_contain(bent, e.hashes):
            return False  # provably absent from this chunk
    if col not in stats:
        return True
    lo, hi = stats[col]
    if op == "startswith":
        # rows with prefix v live in [v, _str_upper(v)); the band
        # proves absence when it sits entirely outside that range.
        # lo may be a truncated (lower-bound) prefix — lo >= upper
        # still proves the true min is >= upper, so both prunes are
        # safe.
        if not (isinstance(lo, str) and isinstance(hi, str)
                and isinstance(val, str)):
            return True
        if hi < val:
            return False
        up = _str_upper(val)
        return up is None or lo < up
    numeric = isinstance(lo, (int, float)) and isinstance(hi, (int, float))
    if isinstance(lo, str) and isinstance(hi, str):
        # lexicographic bounds (string ids); only prune when the
        # predicate compares strings too
        vals = val if op == "in" else [val]
        if not all(isinstance(v, str) for v in vals):
            return True
    elif not numeric:
        return True
    if op == "in":
        # OR across the list: the chunk survives if ANY value could be
        # inside [min, max] (set-membership prune for id extractions)
        return any(lo <= _predicate_value(x) <= hi for x in val)
    v = _predicate_value(val)
    if op == "==":
        return lo <= v <= hi
    if op == "!=":
        return not (lo == v == hi)
    if op == ">":
        return hi > v
    if op == ">=":
        return hi >= v
    if op == "<":
        return lo < v
    if op == "<=":
        return lo <= v
    return True


def _all(stats: dict, e) -> bool:
    """True only when the chunk's [min, max] PROVES every row matches
    — the COUNT-pushdown fast path (count n_rows without touching the
    payload).  Requires a zone entry, a comparable bound, and a
    proven-zero null count (nulls never satisfy a comparison, and
    [min, max] is computed over non-nulls; chunks encoded before the
    `__nulls__` side table simply never prove all-match)."""
    if not isinstance(e, _Leaf):
        op = e[0]
        if op == "and":
            return all(_all(stats, k) for k in e[1:])
        if op == "or":
            # sound (not complete): one branch proving every row is
            # enough; cross-branch row-level unions are unprovable
            # from [min, max] alone
            return any(_all(stats, k) for k in e[1:])
        # not: every row must FAIL p with a non-null outcome — p
        # provably matches no row AND its columns are provably
        # null-free (null comparisons are SQL-null, and NOT null is
        # still not TRUE)
        return (bool(stats) and not _may(stats, e[1])
                and _zero_nulls_proven(stats, _leaf_cols(e[1])))
    if not stats:
        return False
    col, op, val = e.col, e.op, e.val
    if op == "is_null":
        return False  # all-null chunks carry no provable entry
    if op == "not_null":
        return col in stats and _zero_nulls_proven(stats, [col])
    if col not in stats:
        return False
    if "__nulls__" not in stats:
        return False  # pre-__nulls__ chunk: zero nulls unprovable
    if stats["__nulls__"].get(col):
        return False
    lo, hi = stats[col]
    if op == "startswith":
        # both endpoints carrying the prefix proves every row between
        # them does too: lo >= v and hi < _str_upper(v) bound the whole
        # band inside the prefix range (truncated lo stays safe — the
        # true min is >= lo and <= hi, both inside the range)
        return (isinstance(lo, str) and isinstance(hi, str)
                and isinstance(val, str) and val != ""
                and lo.startswith(val) and hi.startswith(val))
    numeric = isinstance(lo, (int, float)) and isinstance(hi, (int, float))
    if isinstance(lo, str) and isinstance(hi, str):
        vals = val if op == "in" else [val]
        if not all(isinstance(v, str) for v in vals):
            return False
        # a truncated string MIN is a lower bound, not the true min —
        # good enough for ">=" proofs only when strictly above
    elif not numeric:
        return False
    if op == "in":
        return lo == hi and any(_predicate_value(x) == lo for x in val)
    v = _predicate_value(val)
    if op == "==":
        return lo == v == hi
    if op == "!=":
        return hi < v or lo > v
    if op == ">":
        return lo > v
    if op == ">=":
        return lo >= v
    if op == "<":
        return hi < v
    if op == "<=":
        return hi <= v
    return False


class ChunkClassifier:
    """An AND-list of predicate expressions compiled once per query;
    ``may`` / ``all`` classify one chunk from its parsed stats."""

    def __init__(self, preds):
        self._preds = [_compile(p) for p in preds]

    def may(self, stats: dict) -> bool:
        return all(_may(stats, p) for p in self._preds)

    def all(self, stats: dict) -> bool:
        return all(_all(stats, p) for p in self._preds)


def chunk_may_match(stats_json: Optional[str], predicate) -> bool:
    """:func:`_may` over a raw ``stats_json`` string."""
    return _may(parse_stats(stats_json), _compile(predicate))


def chunk_all_match(stats_json: Optional[str], predicate) -> bool:
    """:func:`_all` over a raw ``stats_json`` string."""
    return _all(parse_stats(stats_json), _compile(predicate))


def decode_chunk_row(row: dict, verify_checksum: bool = True,
                     columns: Optional[Sequence[str]] = None) -> pa.Table:
    """One encoded row (python dict) -> Arrow table of n_rows rows.

    ``columns``: decode only these (projection).  Full decodes verify
    the chunk checksum; projections verify per-column checksums.

    Codec-level failures (torn frames: payload truncated mid-varint /
    mid-bitpack, short string data) are ACCUMULATED across columns and
    re-raised as one ChunkDecodeError with (fragment, chunk, column)
    coordinates — the not-fail-fast error semantics of ``uncheckedRun``
    (siphon/src/Siphon.hs:718-749)."""
    names = json.loads(row["plan_json"])
    want = None if columns is None else set(columns)
    full = want is None or all(f"col{i}_payload" in row for i in range(len(names)))
    if verify_checksum and want is None and full:
        h = hashlib.blake2b(digest_size=16)
        for i in range(len(names)):
            h.update(row[f"col{i}_payload"])
        actual = h.hexdigest()
        if actual != row["checksum"]:
            raise ChecksumError(row.get("fragment", ""), row.get("chunk_id", ""),
                                row["checksum"], actual)
    arrays, fields = [], []
    cell_errors = []
    # Lengths-ref resolution (cross-column dedup, stages/encode.py
    # _lengths_ref_hints): a list column may store its lengths stream
    # as a reference to a sibling int column.  Scan the requested
    # metas for refs, decode the targets first (even when projected
    # out of the result), and hand their values down as ``refs``.
    metas: dict = {}
    for i, name in enumerate(names):
        if want is not None and name not in want:
            continue
        metas[i] = json.loads(row[f"col{i}_meta"])
    ref_targets: list = []
    for meta in metas.values():
        if meta.get("kind") == "list":
            lentry = meta["streams"]["lengths"]
            if lentry["codec"] == "ref" and lentry["meta"]["col"] not in ref_targets:
                ref_targets.append(lentry["meta"]["col"])
    refs: dict = {}
    idx_of = {name: i for i, name in enumerate(names)}

    def _decode_one(i: int, name: str, meta: dict):
        payload = row[f"col{i}_payload"]
        if verify_checksum and want is not None and "ck" in meta:
            actual = hashlib.blake2b(payload, digest_size=8).hexdigest()
            if actual != meta["ck"]:
                raise ChecksumError(row.get("fragment", ""), row.get("chunk_id", ""),
                                    meta["ck"], actual)
        try:
            if "z" in meta:  # generic post-compression layer (stored-
                # byte checksums above already verified integrity)
                zname, orig = meta["z"]
                payload = pa.Codec(zname).decompress(
                    payload, decompressed_size=orig, asbytes=True)
            return decode_column(payload, meta, refs=refs)
        except (ValueError, IndexError, KeyError, OSError,
                pa.lib.ArrowInvalid) as e:
            cell_errors.append(
                CellError(column=name, row=-1,
                          content=f"<{len(payload)} payload bytes>",
                          reason=str(e))
            )
            return None

    for tname in ref_targets:
        ti = idx_of.get(tname)
        if ti is None or f"col{ti}_payload" not in row:
            cell_errors.append(CellError(
                column=tname, row=-1, content="",
                reason="lengths-ref target payload not available in this read"))
            continue
        tmeta = metas.get(ti) or json.loads(row[f"col{ti}_meta"])
        tarr = _decode_one(ti, tname, tmeta)
        if tarr is not None:
            refs[tname] = tarr
    for i, name in enumerate(names):
        if i not in metas:
            continue
        meta = metas[i]
        tname = name if name in refs else None
        arr = refs[name] if tname is not None else _decode_one(i, name, meta)
        if arr is None:
            continue
        arrays.append(arr)
        fields.append(pa.field(name, arr.type))
    if cell_errors:
        raise ChunkDecodeError(row.get("fragment", ""), row.get("chunk_id", ""),
                               cell_errors)
    if want is not None:
        missing = want - {f.name for f in fields}
        if missing:
            raise ChunkDecodeError(
                row.get("fragment", ""), row.get("chunk_id", ""),
                [CellError(column=c, row=-1, content="",
                           reason="column not in encoded plan") for c in sorted(missing)],
            )
    return pa.Table.from_arrays(arrays, schema=pa.schema(fields))


def _mask_3v(t: pa.Table, predicate):
    """SQL three-valued boolean mask (nulls preserved) for a predicate
    expression; None when any referenced column is absent (caller
    decides the open-world default).  Composition uses Kleene logic
    (and_kleene / or_kleene / invert), so NOT over a null comparison
    stays null — and the final WHERE treats it as not-TRUE."""
    import pyarrow.compute as pc

    if _is_node(predicate):
        op = predicate[0]
        kids = [_mask_3v(t, k) for k in predicate[1:]]
        if any(m is None for m in kids):
            return None
        if op == "not":
            return pc.invert(kids[0])
        m = kids[0]
        comb = pc.and_kleene if op == "and" else pc.or_kleene
        for k in kids[1:]:
            m = comb(m, k)
        return m
    col, op, val = predicate
    if col not in t.column_names:
        return None
    c = t[col]
    if op == "is_null":
        return pc.is_null(c)
    if op == "not_null":
        return pc.is_valid(c)
    if op == "in":
        vals = pa.array(list(val)).cast(c.type)
        m = pc.is_in(c, value_set=vals)
        # pc.is_in maps null -> False; restore SQL-null for Kleene
        # composition (NOT (x IN ...) must stay null for null x)
        m = pc.if_else(pc.is_valid(c), m, pa.scalar(None, pa.bool_()))
    elif op == "startswith":
        m = pc.starts_with(c, pattern=val)
    elif op == "endswith":
        m = pc.ends_with(c, pattern=val)
    elif op == "contains":
        m = pc.match_substring(c, pattern=val)
    else:
        v = pa.scalar(val).cast(c.type) if not isinstance(val, pa.Scalar) else val
        fn = {"==": pc.equal, "!=": pc.not_equal, ">": pc.greater,
              ">=": pc.greater_equal, "<": pc.less, "<=": pc.less_equal}[op]
        m = fn(c, v)
    return m


def predicate_mask(t: pa.Table, predicate):
    """Boolean array: predicate is TRUE per row (nulls -> False, the
    SQL three-valued outcome of WHERE / DELETE WHERE).  None when a
    referenced column isn't present (caller decides the open-world
    default).  Accepts composed ("and"/"or"/"not") expressions."""
    import pyarrow.compute as pc

    m = _mask_3v(t, predicate)
    return None if m is None else pc.fill_null(m, False)


def predicates_mask(t: pa.Table, preds):
    """Numpy boolean row mask: every predicate in ``preds`` is TRUE
    (their AND).  A predicate over a column ``t`` lacks matches no
    row — the closed-world default of the write paths (delete and
    update touch only rows they can prove match)."""
    import numpy as np

    m = np.ones(t.num_rows, dtype=bool)
    for p in preds:
        pm = predicate_mask(t, p)
        if pm is None:
            m[:] = False
            continue
        if isinstance(pm, pa.ChunkedArray):
            pm = pm.combine_chunks()
        m &= pm.to_numpy(zero_copy_only=False).astype(bool)
    return m


def _exact_filter(t: pa.Table, predicate: Tuple[str, str, object]) -> pa.Table:
    m = predicate_mask(t, predicate)
    return t if m is None else t.filter(m)


def decode_live(batch: pa.Table, rows, columns, preds, del_masks: dict,
                verify_checksum: bool = False):
    """Yield chunk rows ``rows`` of ``batch`` decoded (projected to
    ``columns``), with deleted rows masked out and every predicate in
    ``preds`` applied exactly.  Chunks deleted whole, or left with no
    rows, yield nothing — the one per-chunk decode loop of the read
    paths."""
    names = batch.column_names
    for r in rows:
        dmask = None
        if del_masks:
            dmask = del_masks.get((batch["fragment"][r].as_py(),
                                   batch["chunk_id"][r].as_py()))
            if isinstance(dmask, str):  # "all": whole chunk deleted
                continue
        row = {c: batch[c][r].as_py() for c in names}
        t = decode_chunk_row(row, verify_checksum, columns)
        if dmask is not None:
            t = t.filter(pa.array(~dmask))
        for p in preds:
            t = _exact_filter(t, p)
        if t.num_rows:
            yield t


def _decode_all(batch: pa.Table, verify_checksum: bool) -> pa.Table:
    """Every chunk row of ``batch`` decoded whole and concatenated; a
    zero-row chunk still contributes its typed zero-row table."""
    tables = [decode_chunk_row(row, verify_checksum)
              for row in batch.to_pylist()]
    return pa.concat_tables(tables) if tables else pa.table({})


def decode_batch(batch: pa.Table) -> pa.Table:
    """An in-memory encoded batch -> its decoded rows, each chunk's
    checksum verified."""
    return _decode_all(batch, True)
