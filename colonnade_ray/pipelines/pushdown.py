"""The ten pushdowns: read-only aggregates over the encoded corpus,
each given to one executor, ``run_pushdown``, as three parts: plan,
answer from metadata, scan the rest once, merge on the driver
(DESIGN.md "One chunk planner").

Metadata answers and scan partials are elements of one monoid, like
the reference's ``rowMonoidal`` fold (colonnade/src/Colonnade/
Encode.hs): a partial may arrive in any order or split across blocks,
and an empty one changes nothing.  The accumulator is answer-sized: a
scalar, a register array, or k rows per group for a top-k.
"""

from __future__ import annotations

import json
import operator
from typing import Callable, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import chunk_plan
from .chunk_plan import single_group
from .encode_pipeline import _group_files, active_groups


def run_pushdown(out_dir: str, *, meta: Callable, columns: Sequence[str],
                 schema: pa.Schema, fold: Callable, merge: Callable,
                 predicate=None, snapshot: Optional[str] = None,
                 concurrency=None) -> tuple:
    """Run one pushdown: plan, answer from metadata, scan what is left
    once, and merge every partial into the accumulator as it streams
    in.  When nothing is left to scan no Ray job starts.

    - ``meta(plan) -> (accumulator, chunks to scan)`` is the driver's
      metadata answer;
    - ``fold(tables) -> partial`` turns one scan task's live tables,
      read from ``columns``, into one table, cast to ``schema``;
    - ``merge(accumulator, partial) -> accumulator`` is associative,
      with the empty partial as identity.

    Returns (accumulator, plan, scanned chunks)."""
    plan = chunk_plan.plan_chunks(out_dir, predicate, snapshot)
    acc, scan = meta(plan)
    if scan:
        def typed_fold(ts) -> pa.Table:
            return fold(ts).cast(schema)

        parts = chunk_plan.scan_chunks(out_dir, plan, scan, columns,
                                       typed_fold, concurrency)
        for part in parts.iter_batches(batch_format="pyarrow",
                                       batch_size=None):
            if part.num_rows:  # the empty partial is the identity
                acc = merge(acc, part)
    return acc, plan, scan


def _schema(**fields) -> pa.Schema:
    return pa.schema(list(fields.items()))


def _skip_none(f):
    """``f`` over two values, skipping None (SQL aggregate semantics)."""
    return lambda a, b: b if a is None else a if b is None else f(a, b)


_lo, _hi, _add = _skip_none(min), _skip_none(max), _skip_none(operator.add)


def _scan_stats(plan, scan) -> dict:
    """Sketch-first pushdowns: chunks in play, answered from a stored
    sketch, and decoded."""
    total = len(plan.proven) + len(plan.maybe)
    return {"chunks_total": total, "chunks_sketched": total - len(scan),
            "chunks_scanned": len({c.key for c in scan})}


def corpus_column_types(out_dir: str) -> dict:
    """Decoded Arrow type of every column, read from ONE chunk's codec
    metadata (plan_json + colN_meta of the first committed chunk with
    rows) — no payload decode.  Lets the pushdowns declare typed partial
    schemas and build TYPED empty results when pruning or predicates
    eliminate every chunk.  Returns {} on an empty corpus."""
    from ..codecs.columns import desc_to_type

    # a group vacuumed to zero rows has no file to read: walk on
    for f in (f for gid in active_groups(out_dir)
              for f in _group_files(out_dir, gid)):
        try:
            pf = pq.ParquetFile(f)
            if not pf.metadata.num_row_groups:
                continue
            meta_cols = [c for c in pf.schema_arrow.names
                         if c == "plan_json" or c.endswith("_meta")]
            head = pf.read_row_group(0, columns=meta_cols)
        except OSError:
            continue
        if "plan_json" in head.column_names and len(head):
            break
    else:
        return {}
    names = json.loads(head["plan_json"][0].as_py())
    out = {}
    for i, name in enumerate(names):
        mcol = f"col{i}_meta"
        if mcol in head.column_names:
            meta = json.loads(head[mcol][0].as_py())
            try:
                out[name] = desc_to_type(meta["atype"])
            except (KeyError, ValueError):
                pass
    return out


def _typed_empty(out_dir: str, cols: Sequence[str]) -> pa.Table:
    """Empty table over ``cols`` with the corpus's decoded dtypes
    (null type only for columns the corpus has never seen)."""
    types = corpus_column_types(out_dir)
    return pa.table({c: pa.array([], type=types.get(c, pa.null()))
                     for c in cols})


_COUNT = _schema(c=pa.int64())


def count_where(out_dir: str, predicate, concurrency=None,
                snapshot: Optional[str] = None) -> int:
    """COUNT(*) pushdown over the encoded corpus: chunks whose zone
    map proves NO row matches cost nothing, chunks proven ALL-match
    (min/max band inside the predicate + proven-zero null count, the
    `__nulls__` stats entry) contribute their live n_rows with ZERO
    payload decode, and only boundary chunks decode — and then only
    the predicate columns.  The aggregate answer ("how many docs pass
    this gate") never materializes a row.  ``snapshot=`` answers as
    of a named snapshot (pipelines/snapshots.py) instead of live."""
    from ..stages.decode import normalize_predicates

    if not normalize_predicates(predicate):
        raise ValueError("count_where needs at least one predicate; "
                         "use corpus_summary()['rows'] for the total")
    n, _, _ = run_pushdown(
        out_dir,
        # every row matches -> deleting d leaves n - d matches: the
        # metadata answer stays EXACT under deletions
        meta=lambda plan: (sum(c.n_live for c in plan.proven), plan.maybe),
        columns=[], schema=_COUNT,
        fold=lambda ts: pa.table([[sum(t.num_rows for t in ts)]],
                                 schema=_COUNT),
        merge=lambda n, p: n + pc.sum(p["c"]).as_py(),
        predicate=predicate, snapshot=snapshot, concurrency=concurrency)
    return n


_JSON_VALUE = _schema(v=pa.string())


def aggregate_where(out_dir: str, agg: str, col: str,
                    predicate=None, concurrency=None,
                    snapshot: Optional[str] = None):
    """MIN / MAX / SUM pushdown over one encoded column, optionally
    under a predicate — the same three-way chunk classification as
    ``count_where``:

    - no-match chunks cost nothing;
    - proven chunks answer from METADATA: min/max read the zone
      bounds (valid with nulls — MIN/MAX ignore nulls, and the bounds
      are computed over non-nulls), SUM reads the exact per-chunk
      ``__sums__`` entry (integer columns; needs the proven-zero null
      count so no null row is inside the matched band);
    - only boundary chunks decode, and only ``col``.

    With no predicate every chunk answers from metadata (old-format
    or float chunks fall back to decode).  Returns None on an empty
    match set.  SQL null semantics throughout (aggregates skip
    nulls).  ``snapshot=`` answers as of a named snapshot."""
    if agg not in ("min", "max", "sum"):
        raise ValueError(f"unsupported agg {agg!r}")
    combine = {"min": _lo, "max": _hi, "sum": _add}[agg]
    fn = {"min": pc.min, "max": pc.max, "sum": pc.sum}[agg]

    def meta(plan):
        acc, scan = None, list(plan.maybe)
        for c in plan.proven:
            st = c.stats
            # a chunk with ANY deleted rows can't answer from metadata:
            # its zone bounds / __sums__ include the deleted rows
            if c.dmask is not None or col not in st:
                a = None
            elif agg != "sum":
                a = st[col][0 if agg == "min" else 1]
            elif plan.preds and st.get("__nulls__", {}).get(col):
                a = None  # a null row may sit inside the band
            else:
                a = st.get("__sums__", {}).get(col)  # None: decode
            if a is None:
                scan.append(c)
            else:
                acc = combine(acc, a)
        return acc, scan

    def fold(ts) -> pa.Table:
        # partials travel as JSON strings: int sums stay exact (no
        # float64 round-trip past 2^53)
        v = None
        for t in ts:
            v = combine(v, fn(t[col]).as_py())
        return pa.table([[] if v is None else [json.dumps(v)]],
                        schema=_JSON_VALUE)

    def merge(acc, p):
        for s in p["v"].to_pylist():
            acc = combine(acc, json.loads(s))
        return acc

    acc, _, _ = run_pushdown(
        out_dir, meta=meta, columns=[col], schema=_JSON_VALUE, fold=fold,
        merge=merge, predicate=predicate, snapshot=snapshot,
        concurrency=concurrency)
    return acc


_SUMMARY = _schema(n=pa.int64(), s=pa.int64(), mn=pa.int64(),
                   mx=pa.int64())


def summary_where(out_dir: str, col: str, predicate=None,
                  concurrency=None, snapshot: Optional[str] = None) -> dict:
    """COUNT / SUM / MIN / MAX of one integer column in ONE pass —
    what would otherwise be count_where + 3 aggregate_where scans.
    Same 3-way chunk classification: no-match chunks free, proven
    all-match chunks contribute n_rows + ``__sums__`` + their zone
    band from metadata, boundary chunks decode col + predicate
    columns only.  Returns {"count", "sum", "min", "max"} with SQL
    null semantics (count counts matching ROWS; sum/min/max skip
    nulls; min/max are None on an empty match set)."""
    def add(acc, n, s, mn, mx):
        return (acc[0] + n, acc[1] + s, _lo(acc[2], mn), _hi(acc[3], mx))

    def meta(plan):
        acc, scan = (0, 0, None, None), list(plan.maybe)
        for c in plan.proven:
            band = c.stats.get(col)
            ssum = c.stats.get("__sums__", {}).get(col)
            if (c.dmask is None and band is not None and ssum is not None
                    and "__nulls__" in c.stats
                    and not c.stats["__nulls__"].get(col)):
                acc = add(acc, c.n_rows, int(ssum), int(band[0]),
                          int(band[1]))
            else:
                scan.append(c)
        return acc, scan

    def fold(ts) -> pa.Table:
        acc = (0, 0, None, None)
        for t in ts:
            mm = pc.min_max(t[col])
            acc = add(acc, t.num_rows, int(pc.sum(t[col]).as_py() or 0),
                      mm["min"].as_py(), mm["max"].as_py())
        return pa.table([[x] for x in acc], schema=_SUMMARY)

    def merge(acc, p):
        for row in zip(*(p[c].to_pylist() for c in _SUMMARY.names)):
            acc = add(acc, *row)
        return acc

    (n, s, mn, mx), _, _ = run_pushdown(
        out_dir, meta=meta, columns=[col], schema=_SUMMARY, fold=fold,
        merge=merge, predicate=predicate, snapshot=snapshot,
        concurrency=concurrency)
    return {"count": int(n), "sum": int(s),
            "min": None if mn is None else int(mn),
            "max": None if mx is None else int(mx)}


def _order(col: str, descending: bool, tie_cols) -> list:
    return [(col, "descending" if descending else "ascending")] + [
        (c, "ascending") for c in tie_cols]


def _band(c, col: str, descending: bool, n_nonnull: int) -> tuple:
    """(far, near, n_nonnull, chunk) of a chunk with a zone band on
    ``col``: far is the bound every row of the chunk passes (its zone
    min when descending), near the best value it can hold."""
    lo, hi = c.stats[col]
    return (lo, hi, n_nonnull, c) if descending else (hi, lo, n_nonnull, c)


def _reaching(cands, k: int, descending: bool) -> tuple:
    """(T, chunks that can still reach the top k).  T bounds the k-th
    value from zone bands alone: walking chunks by their far bound,
    once ``n_nonnull`` rows add up to k, each of them is past that
    chunk's far bound.  None when no bound is provable."""
    T, acc = None, 0
    for far, _near, nn, _c in sorted(cands, key=lambda c: c[0],
                                     reverse=descending):
        acc += nn
        if acc >= k:
            T = far
            break
    return T, [c for _far, near, _nn, c in cands if T is None
               or (near >= T if descending else near <= T)]


def _top(t: pa.Table, k: int, order: list, group_col=None) -> pa.Table:
    """The first k rows of ``t`` under ``order``, per non-null value of
    ``group_col`` when given, sorted by (group, order).  Rows with a
    null in the ranked column never rank."""
    valid = pc.is_valid(t[order[0][0]])
    if group_col is not None:
        valid = pc.and_(valid, pc.is_valid(t[group_col]))
        order = [(group_col, "ascending")] + order
    t = t.filter(valid)
    t = t.take(pc.sort_indices(t, sort_keys=order))
    if group_col is None or t.num_rows <= k:
        return t.slice(0, k)
    g = t[group_col]
    new = np.ones(t.num_rows, dtype=bool)
    new[1:] = pc.not_equal(g[1:], g[:-1]).to_numpy(zero_copy_only=False)
    rank = np.arange(t.num_rows) - np.flatnonzero(new)[np.cumsum(new) - 1]
    return t.filter(pa.array(rank < k))


def _run_topk(out_dir, out_cols, meta, top, predicate, snapshot,
              concurrency) -> pa.Table:
    """Both top-k pushdowns: ``meta(plan)`` names the chunks that can
    reach the answer; every task keeps its local ``top`` and the
    driver a running one, so no more than the answer is held."""
    empty = _typed_empty(out_dir, out_cols)

    def fold(ts) -> pa.Table:
        return top(pa.concat_tables([t.select(out_cols) for t in ts]
                                    or [empty]))

    res, _, _ = run_pushdown(
        out_dir, meta=lambda plan: (empty, meta(plan)), columns=out_cols,
        schema=empty.schema, fold=fold,
        merge=lambda acc, p: top(pa.concat_tables([acc, p])),
        predicate=predicate, snapshot=snapshot, concurrency=concurrency)
    return res


def topk_where(out_dir: str, col: str, k: int = 10,
               columns: Optional[Sequence[str]] = None,
               descending: bool = True, predicate=None,
               tie_cols: Sequence[str] = (), concurrency=None,
               snapshot: Optional[str] = None,
               return_stats: bool = False) -> pa.Table:
    """ORDER BY col LIMIT k pushdown over the encoded corpus: only
    chunks whose zone band can still reach the top-k decode.

    Two phases.  Phase 1 is metadata-only, over the chunk plan
    (chunk-count rows of stats — KBs per group, never payload): sort
    chunks by their zone *min* (descending order; *max* when
    ascending), accumulate live non-null rows until ≥ k — every one
    of those rows is ≥ the last accumulated chunk's min, so that min
    is a valid bound T on the k-th value.  Phase 2 decodes only the
    chunks whose *max* ≥ T, and only ``col`` + ``tie_cols`` +
    ``columns``; each task emits a local top-k partial and the driver
    keeps a running top-k over them.  Ties at rank k resolve by
    ``tie_cols`` (pass them for deterministic output).  Rows with a
    null ``col`` never rank (SQL NULLS LAST ∩ LIMIT semantics).
    ``predicate`` AND-filters rows before ranking (zone-pruned like
    count_where).  ``snapshot=`` answers as of a named snapshot."""
    order = _order(col, descending, tie_cols)
    stats: dict = {}

    def meta(plan):
        banded, bandless = [], []
        for proven, chunks in ((True, plan.proven), (False, plan.maybe)):
            for c in chunks:
                if c.n_live <= 0:
                    continue
                if c.stats.get(col) is None:
                    bandless.append(c)  # old format: always decodes
                    continue
                # Only PROVEN chunks with a known null count add rows to
                # the bound: a may-match chunk's rows need not survive
                # the filter, and counting them would push T past the
                # true k-th passing value.  A column absent from a
                # present __nulls__ table has zero nulls.
                nt = c.stats.get("__nulls__")
                nn = max(0, c.n_live - int(nt.get(col, 0))) \
                    if proven and nt is not None else 0
                banded.append(_band(c, col, descending, nn))
        T, reaching = _reaching(banded, k, descending)
        reaching += bandless
        stats.update(chunks_total=len(banded) + len(bandless),
                     chunks_candidate=len(reaching),
                     groups_total=len(plan.groups),
                     groups_candidate=len({c.gid for c in reaching}),
                     threshold=T)
        return reaching

    out_cols = list(dict.fromkeys([col, *tie_cols, *(columns or [])]))
    res = _run_topk(out_dir, out_cols, meta, lambda t: _top(t, k, order),
                    predicate, snapshot, concurrency)
    return (res, stats) if return_stats else res


def grouped_topk_where(out_dir: str, group_col: str, value_col: str,
                       k: int = 3, columns: Optional[Sequence[str]] = None,
                       descending: bool = True,
                       tie_cols: Sequence[str] = (), concurrency=None,
                       snapshot: Optional[str] = None,
                       return_stats: bool = False):
    """Top-k rows PER GROUP over the encoded corpus — ``topk_where``'s
    bound computed per group key from the manifests.

    Phase 1 walks the chunk plan: chunks proven single-group (group
    band lo == hi, zero group nulls) accumulate per-key live non-null
    rows in zone-min order until ≥ k, bounding that key's k-th value
    T_g; a single-group chunk whose value band can't reach its own T_g
    is pruned.  Mixed-group chunks can't prove which keys they hold,
    so they always decode (and never contribute to any T_g — bounds
    stay true).  On a group-clustered / partitioned layout every chunk
    is single-group and the scan shrinks to ~k rows' worth of chunks
    per key; unaligned layouts degrade to a full decode, never to a
    wrong answer.  Phase 2 decodes candidates, keeps per-(task, group)
    top-k partials, and the driver keeps a running top-k per group
    (k × groups rows).  Deletes subtract/mask; value nulls and null
    groups never rank.  Sorted by (group, value, tie_cols)."""
    order = _order(value_col, descending, tie_cols)
    stats: dict = {}

    def meta(plan):
        single: dict = {}   # key -> [(far, near, n_nonnull, chunk)]
        mixed = []          # always decode
        for c in plan.proven:
            if c.n_live <= 0:
                continue
            g = single_group(c.stats, group_col)
            if g is None or c.stats.get(value_col) is None:
                mixed.append(c)
                continue
            nn = max(0, c.n_live - int(c.stats["__nulls__"].get(value_col, 0)))
            single.setdefault(g, []).append(
                _band(c, value_col, descending, nn))
        cand = mixed + [c for chunks in single.values()
                        for c in _reaching(chunks, k, descending)[1]]
        stats.update(chunks_total=len(mixed) + sum(map(len, single.values())),
                     chunks_candidate=len(cand), chunks_mixed=len(mixed))
        return cand

    out_cols = list(dict.fromkeys(
        [group_col, value_col, *tie_cols, *(columns or [])]))
    res = _run_topk(out_dir, out_cols, meta,
                    lambda t: _top(t, k, order, group_col),
                    None, snapshot, concurrency)
    return (res, stats) if return_stats else res


def approx_distinct(out_dir: str, col: str, predicate=None,
                    concurrency=None, snapshot: Optional[str] = None,
                    return_stats: bool = False):
    """APPROX COUNT(DISTINCT col) over the encoded corpus, sketch-first.

    Chunks that stored an HLL entry (``encode_corpus(hll_cols=[...])``,
    stages/bloomzone.py — 1 KiB of registers per chunk riding the
    stats channel) merge register-wise from the lineage manifests
    alone: at 100 TB the common case answers from group metadata with
    ZERO payload reads, because register max is exactly the sketch of
    the union.  Chunks without a sketch, with delete-masked rows (HLL
    can't subtract), or only may-matching the ``predicate`` fall back
    to decoding ``col`` and folding their live qualifying values into
    the same registers — a distributed scan of just those chunks, so
    a freshly-deleted 1% of the corpus costs 1% of a scan, not a full
    re-read.  Estimator error ~3.2% (p=10, Flajolet et al. 2007).
    ``snapshot=`` answers as of a named snapshot."""
    from ..stages.bloomzone import HLL_P, hash_into_hll, hll_estimate, \
        hll_registers

    schema = _schema(regs=pa.binary())

    def meta(plan):
        regs = np.zeros(1 << HLL_P, dtype=np.uint8)
        scan = list(plan.maybe)
        for c in plan.proven:
            he = c.stats.get("__hll__", {}).get(col)
            if he is not None and he.get("p") == HLL_P and c.dmask is None:
                regs = np.maximum(regs, hll_registers(he))
            else:
                scan.append(c)
        return regs, scan

    def fold(ts) -> pa.Table:
        r = np.zeros(1 << HLL_P, dtype=np.uint8)
        for t in ts:
            r = hash_into_hll(t[col], r)
        return pa.table([[r.tobytes()]], schema=schema)

    def merge(regs, p):
        for b in p["regs"].to_pylist():
            regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
        return regs

    regs, plan, scan = run_pushdown(
        out_dir, meta=meta, columns=[col], schema=schema, fold=fold,
        merge=merge, predicate=predicate, snapshot=snapshot,
        concurrency=concurrency)
    est = float(hll_estimate(regs))
    return (est, _scan_stats(plan, scan)) if return_stats else est


def _quant_grid(qe: dict) -> tuple:
    """A stored ``__quant__`` entry -> (int64 grid, weight per point)."""
    s = np.asarray(qe["s"], dtype=np.int64)
    return s, qe["n"] / len(s)


def _require_int_column(out_dir: str, col: str, op: str) -> None:
    """``op`` merges ``col`` as int64; a float column would be
    truncated, so it is refused."""
    t = corpus_column_types(out_dir).get(col)
    if t is not None and not pa.types.is_integer(t):
        raise ValueError(f"{op} needs an integer column; {col!r} is {t}")


def _quantile_args(out_dir: str, col: str, qs) -> list:
    """``qs`` as a list, checked; quantile grids exist for integer
    columns only."""
    qs = list(qs)
    if any(not (0.0 <= q <= 1.0) for q in qs):
        raise ValueError(f"quantiles must be in [0, 1]: {qs!r}")
    _require_int_column(out_dir, col, "approx quantiles")
    return qs


def _int_values(a) -> np.ndarray:
    return a.to_numpy(zero_copy_only=False).astype(np.int64)


_VALUES = _schema(v=pa.int64())


def approx_quantiles(out_dir: str, col: str, qs=(0.25, 0.5, 0.75),
                     predicate=None, concurrency=None,
                     snapshot: Optional[str] = None,
                     return_stats: bool = False):
    """APPROX quantiles of one integer column over the encoded corpus,
    sketch-first — the quantile member of the pushdown aggregate
    family (count/sum/min/max/distinct/topk/grouped).

    Chunks that stored a quantile grid
    (``encode_corpus(quantile_cols=[...], quantile_k=K)``,
    stages/bloomzone.build_quant — K evenly-spaced order statistics of
    the chunk's sorted non-null values) answer from the lineage
    manifests alone: each grid point carries weight n/K and the merged
    weighted type-1 quantile (the ``quantile_disc`` convention) is
    within ~1/K of chunk mass per chunk.  When K >= chunk rows the
    grid lists EVERY value and the merge is EXACT — the
    oracle-anchored regime (mirroring approx_distinct's
    linear-counting anchor).  Chunks without a grid, with
    delete-masked rows, or only may-matching ``predicate`` fall back
    to decoding ``col`` for just those chunks (exact values, weight
    1).  Rows with null ``col`` never contribute (SQL aggregate
    semantics).  A non-integer ``col`` raises ValueError.  Returns
    [value per q] (None entries when no rows qualify); ``snapshot=``
    answers as of a named snapshot."""
    from ..stages.bloomzone import merge_quant_grids

    qs = _quantile_args(out_dir, col, qs)

    def meta(plan):
        grids, scan = [], list(plan.maybe)  # grids: (values, weight)
        for c in plan.proven:
            qe = c.stats.get("__quant__", {}).get(col)
            if qe is not None and c.dmask is None:
                grids.append(_quant_grid(qe))
            else:
                scan.append(c)
        return grids, scan

    def fold(ts) -> pa.Table:
        return pa.table([pa.chunked_array(
            [_int_values(t[col].drop_null()) for t in ts], pa.int64())],
            schema=_VALUES)

    def merge(grids, p):
        grids.append((_int_values(p["v"]), None))
        return grids

    grids, plan, scan = run_pushdown(
        out_dir, meta=meta, columns=[col], schema=_VALUES, fold=fold,
        merge=merge, predicate=predicate, snapshot=snapshot,
        concurrency=concurrency)
    res = merge_quant_grids(grids, qs)
    return (res, _scan_stats(plan, scan)) if return_stats else res


def grouped_approx_quantiles(out_dir: str, group_col: str, col: str,
                             qs=(0.25, 0.5, 0.75), concurrency=None,
                             snapshot: Optional[str] = None,
                             return_stats: bool = False):
    """Per-GROUP approx quantiles over the encoded corpus — the
    grouped member of the quantile pushdown (``approx_quantiles``'s
    analog of ``group_aggregates``): a chunk proven single-group
    (group band lo == hi, zero group nulls, unmasked) contributes its
    quantile grid to that group's merge with zero payload decode;
    mixed-group, masked or grid-less chunks decode group+value
    columns and contribute exact values.  EXACT when every
    contributing grid is full (quantile_k >= chunk rows) — on a
    group-clustered corpus the whole answer is a manifest scan.
    Returns a pandas frame (group, q, value) sorted by (group, q);
    group keys are stringified like ``group_counts``."""
    import pandas as pd

    from ..stages.bloomzone import merge_quant_grids

    qs = _quantile_args(out_dir, col, qs)
    schema = _schema(g=pa.string(), v=pa.int64())

    def meta(plan):
        grids: dict = {}     # group key (str) -> [(values, weight)]
        scan = []
        for c in plan.proven:
            g = single_group(c.stats, group_col)
            qe = c.stats.get("__quant__", {}).get(col)
            if g is not None and qe is not None and c.dmask is None:
                grids.setdefault(str(g), []).append(_quant_grid(qe))
            else:
                scan.append(c)
        return grids, scan

    def fold(ts) -> pa.Table:
        ts = [t.filter(pc.and_(pc.is_valid(t[group_col]),
                               pc.is_valid(t[col]))) for t in ts]
        return pa.table([
            pa.array([str(g) for t in ts for g in t[group_col].to_pylist()],
                     pa.string()),
            pa.chunked_array([_int_values(t[col]) for t in ts], pa.int64()),
        ], schema=schema)

    def merge(grids, p):
        for g, sub in p.to_pandas().groupby("g"):
            grids.setdefault(g, []).append((sub["v"].to_numpy(), None))
        return grids

    grids, plan, scan = run_pushdown(
        out_dir, meta=meta, columns=[group_col, col], schema=schema,
        fold=fold, merge=merge, snapshot=snapshot, concurrency=concurrency)
    out = pd.DataFrame({group_col: g, "q": float(q), "value": v}
                       for g in sorted(grids)
                       for q, v in zip(qs, merge_quant_grids(grids[g], qs)))
    out = out.reindex(columns=[group_col, "q", "value"])
    out["value"] = out["value"].astype("int64") \
        if out["value"].notna().all() and len(out) else out["value"]
    out = out.sort_values([group_col, "q"]).reset_index(drop=True)
    if return_stats:
        st = _scan_stats(plan, scan)
        return out, {k: st[k] for k in ("chunks_sketched", "chunks_scanned")}
    return out


def _group_by(t: pa.Table, aggs: dict) -> pa.Table:
    """Partial rows of one schema (g, *aggs) re-aggregated per ``g``;
    ``aggs`` maps each column to the Arrow aggregate that merges it."""
    out = t.group_by("g").aggregate([(c, f) for c, f in aggs.items()])
    return pa.table({"g": out["g"],
                     **{c: out[f"{c}_{f}"] for c, f in aggs.items()}})


def _group_fold(ts, group_col: str, value_col: Optional[str],
                aggs: dict, schema: pa.Schema) -> pa.Table:
    """One scan task's per-group row count ``n``, non-null sum ``s``
    (0 when every value is null) and, when ``aggs`` asks, min ``mn``
    and max ``mx``.  Null groups are not counted (the zone
    convention); keys are stringified like the metadata answers."""
    parts = []
    for t in ts:
        t = t.filter(pc.is_valid(t[group_col]))
        if not t.num_rows:
            continue
        v = t[value_col] if value_col else pa.nulls(t.num_rows, pa.int64())
        a = pa.table({"g": t[group_col], "v": v}).group_by("g").aggregate(
            [([], "count_all"), ("v", "sum"), ("v", "min"), ("v", "max")])
        parts.append(pa.table({
            "g": pa.array([str(x) for x in a["g"].to_pylist()], pa.string()),
            "n": a["count_all"], "s": pc.fill_null(a["v_sum"], 0),
            "mn": a["v_min"], "mx": a["v_max"]}).select(schema.names))
    if not parts:
        return schema.empty_table()
    return _group_by(pa.concat_tables(parts).cast(schema), aggs)


def _run_grouped(out_dir, group_col, value_col, aggs, meta_row,
                 snapshot, concurrency):
    """group_counts / group_aggregates: chunks ``meta_row`` answers
    (one partial row, or None) from metadata, the rest decode; the
    merged per-group table as pandas, sorted by group."""
    if value_col is not None:
        _require_int_column(out_dir, value_col, "group sums")
    schema = _schema(g=pa.string(), **{c: pa.int64() for c in aggs})

    def meta(plan):
        rows = {c: [] for c in schema.names}
        scan = []
        for c in plan.proven:
            g = single_group(c.stats, group_col)
            row = None if g is None else meta_row(c)
            if row is None:
                scan.append(c)
                continue
            for col, x in zip(schema.names, (str(g), *row)):
                rows[col].append(x)
        return _group_by(pa.table(rows, schema=schema), aggs), scan

    def fold(ts) -> pa.Table:
        return _group_fold(ts, group_col, value_col, aggs, schema)

    acc, _, _ = run_pushdown(
        out_dir, meta=meta,
        columns=[group_col] + ([value_col] if value_col else []),
        schema=schema, fold=fold,
        merge=lambda acc, p: _group_by(pa.concat_tables([acc, p]), aggs),
        snapshot=snapshot, concurrency=concurrency)
    names = {"g": group_col, "n": "n_rows", "s": f"sum_{value_col}",
             "mn": f"min_{value_col}", "mx": f"max_{value_col}"}
    keep = [c for c in schema.names if value_col or c != "s"]
    out = acc.select(keep).rename_columns([names[c] for c in keep])
    return out.to_pandas().sort_values(group_col).reset_index(drop=True)


def group_counts(out_dir: str, group_col: str,
                 value_col: Optional[str] = None, concurrency=None,
                 snapshot: Optional[str] = None):
    """Per-group row counts (and optional integer-column sums) over
    the encoded corpus, metadata-first: a chunk whose ``group_col``
    zone band has lo == hi provably holds ONE group — its n_rows (and
    exact ``__sums__`` entry) contribute without any payload decode.
    Only mixed-group chunks decode, and only the needed columns.

    On a ``partition_by``/``cluster_by``-aligned corpus every chunk is
    single-group and the whole answer is a lineage scan — the
    partition-aligned aggregate story at 100 TB.  Returns a pandas
    frame (group, n_rows[, sum_<value_col>]) sorted by group; group
    keys are returned as strings (zone bands and decoded values
    unify there), and null-group rows follow the zone convention
    (only non-null groups are counted).  A non-integer ``value_col``
    raises ValueError.  ``snapshot=`` answers as of a named snapshot."""
    def meta_row(c):
        ssum = c.stats.get("__sums__", {}).get(value_col) \
            if value_col else None
        if c.dmask is None and (value_col is None or ssum is not None):
            return c.n_rows, int(ssum or 0)
        if value_col is None:
            # single-group chunk: counts stay metadata-exact under
            # deletions (n_rows - n_deleted); sums must decode
            return c.n_live, 0
        return None

    return _run_grouped(out_dir, group_col, value_col,
                        {"n": "sum", "s": "sum"}, meta_row, snapshot,
                        concurrency)


def group_aggregates(out_dir: str, group_col: str, value_col: str,
                     concurrency=None, snapshot: Optional[str] = None):
    """Per-group COUNT / SUM / MIN / MAX over one integer column of
    the encoded corpus — ``group_counts`` extended with the min/max
    bounds the zone maps already store: a chunk proven single-group
    (group band lo == hi, zero group nulls) and un-masked contributes
    its n_rows, its exact ``__sums__`` entry, AND its value band's
    [lo, hi] as the group's chunk-local min/max, all with zero payload
    decode.  Only mixed-group or delete-masked chunks decode (group +
    value columns only).  Returns a pandas frame (group, n_rows,
    sum_/min_/max_<value_col>) sorted by group; groups are stringified
    like ``group_counts``; value nulls follow SQL semantics (skipped
    by SUM/MIN/MAX, counted by n_rows); a non-integer ``value_col``
    raises ValueError.  ``snapshot=`` as usual."""
    def meta_row(c):
        vband = c.stats.get(value_col)
        ssum = c.stats.get("__sums__", {}).get(value_col)
        if c.dmask is not None or ssum is None or vband is None:
            return None
        return c.n_rows, int(ssum), int(vband[0]), int(vband[1])

    out = _run_grouped(out_dir, group_col, value_col,
                       {"n": "sum", "s": "sum", "mn": "min", "mx": "max"},
                       meta_row, snapshot, concurrency)
    for c in (f"min_{value_col}", f"max_{value_col}"):
        if out[c].notna().all():
            out[c] = out[c].astype("int64")
    return out
