"""Encode stage: Arrow batch -> one encoded chunk row.

The engine's inner loop — the graft of the reference's row/header
traversal kernels (``row``/``rowMonoidal``,
colonnade/src/Colonnade/Encode.hs:107-154): *apply every column's
encode function to the unit of work, fold the results into the output
block*.  Here the unit is a zero-copy Arrow batch and the fold is
column-wise, vectorized.

``encode_batch`` is the one encode stage: a stateless
``map_batches`` task, fused into the read task when no shuffle
precedes it.  Chunk bytes are a function of the chunk's rows and the
pinned shared dictionaries only — FSST symbol tables are trained on a
sample of each chunk (FSST, VLDB 2020), never carried across batches.

Output layout (one row per input chunk):
  fragment, chunk_id, n_rows, n_tokens, bytes_in, bytes_out,
  checksum, plan_json, codecs_json, col{i}_payload, col{i}_meta
The per-chunk metadata row IS the lineage record (SURVEY.md §4
checkpoint/resume row; BASELINE.json north_rule).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

import pyarrow as pa

from ..codecs import encode_column
from ..plan import BoundPlan, CodecPlan, bind_plan

PATH_COL = "path"          # emitted by read_parquet(include_paths=True)
SYS_PREFIX = "__cr_"
FRAG_COL = SYS_PREFIX + "frag"  # int32 fragment ordinal (exchange-cheap
                                # replacement for the per-row path string)


def _fragment_of(batch: pa.Table, fragments: Optional[list] = None) -> str:
    if fragments is not None and FRAG_COL in batch.column_names and len(batch) > 0:
        i = batch[FRAG_COL][0].as_py()
        if i is not None and 0 <= i < len(fragments):
            return fragments[i]
    if PATH_COL in batch.column_names and len(batch) > 0:
        p = batch[PATH_COL][0].as_py()
        return p.rsplit("/", 1)[-1]
    return ""


def _token_count(batch: pa.Table) -> int:
    import pyarrow.compute as pc

    if "n_tok" in batch.column_names:
        v = pc.sum(batch["n_tok"]).as_py()
        return int(v) if v is not None else 0
    for name in batch.column_names:
        if pa.types.is_list(batch.schema.field(name).type):
            v = pc.sum(pc.list_value_length(batch[name])).as_py()
            return int(v) if v is not None else 0
    return 0


_STATS_TYPES = (
    pa.types.is_integer, pa.types.is_floating, pa.types.is_temporal,
    pa.types.is_boolean,
)


_ZONE_STR_CAP = 64


def _zone_stat(arr) -> Optional[list]:
    """JSON-safe [min, max] for orderable columns (zone map entry).
    Temporal values are stored as their underlying integer repr.
    String columns get lexicographic bounds too (id-extraction decodes
    prune on string doc ids): the stored MIN may be truncated to
    _ZONE_STR_CAP chars (a prefix is a valid lower bound), but a
    truncated MAX is unsafe (the prefix sorts BELOW the real value),
    so over-long maxima drop the whole entry."""
    import pyarrow.compute as pc

    t = arr.type
    is_str = pa.types.is_string(t) or pa.types.is_large_string(t)
    if not (is_str or any(chk(t) for chk in _STATS_TYPES)):
        return None
    if len(arr) == 0 or arr.null_count == len(arr):
        return None
    mm = pc.min_max(arr)
    lo, hi = mm["min"], mm["max"]
    if pa.types.is_temporal(t):
        lo, hi = lo.cast(pa.int64()), hi.cast(pa.int64())
    lo, hi = lo.as_py(), hi.as_py()
    if is_str:
        if len(hi) > _ZONE_STR_CAP:
            return None
        lo = lo[:_ZONE_STR_CAP]
    if isinstance(lo, bool):
        lo, hi = int(lo), int(hi)
    return [lo, hi]


def add_zone_stats(stats: dict, name: str, arr) -> None:
    """Record column ``name``'s zone-map entry in chunk ``stats``: its
    [min, max], its null count under ``__nulls__`` and, for integer
    columns, its exact sum under ``__sums__`` (JSON ints are arbitrary
    precision, so SUM pushdown never decodes an all-match chunk)."""
    import pyarrow.compute as pc

    zs = _zone_stat(arr)  # pc.min_max accepts chunked arrays
    if zs is None:
        return
    stats[name] = zs
    if arr.null_count:
        stats["__nulls__"][name] = int(arr.null_count)
    if pa.types.is_integer(arr.type):
        stats["__sums__"][name] = int(pc.sum(arr).as_py() or 0)


def chunk_identity(payloads: list, metas: list) -> tuple:
    """(checksum, chunk_id) of a chunk row from its column payloads
    and ``colN_meta`` JSON strings.

    ``checksum`` covers the payloads alone (decode recomputes it to
    verify integrity).  ``chunk_id`` hashes the checksum AND the
    metas: a constant-encoded column stores its value in colN_meta
    with an EMPTY payload, so two chunks differing only in such a
    value would share a payload checksum — and a deletion mask keyed
    (fragment, chunk_id) for one would silently mask the other (found
    by the round-5 concurrent-merge test: two single-row upserts of
    one key, same fragment basename, v=const)."""
    h = hashlib.blake2b(digest_size=16)
    for p in payloads:
        h.update(p)
    checksum = h.hexdigest()
    idh = hashlib.blake2b(digest_size=8)
    idh.update(checksum.encode())
    for m in metas:
        idh.update(m.encode())
        idh.update(b"\x00")
    return checksum, idh.hexdigest()


def _lengths_ref_hints(batch: pa.Table, bound: BoundPlan) -> dict:
    """list-column name -> sibling int-column name whose values equal
    the list's per-row lengths (e.g. ``n_tok`` == len(``tokens``)).

    Cross-column dedup: the matched list column stores its lengths
    stream as a zero-byte reference instead of re-encoding the same
    integers (measured 0.008 B/token on the flagship corpus, where the
    lengths stream was the largest remaining overhead over the token
    stream's order-0 floor).  Deterministic: columns scanned in plan
    order, first match wins.  Null-free targets only, so the decoded
    target values can be used as lengths verbatim."""
    import pyarrow.compute as pc

    lists, ints = [], []
    for bc in bound.columns:
        t = bc.field.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            lists.append(bc)
        elif pa.types.is_integer(t):
            ints.append(bc)
    if not lists or not ints or len(batch) == 0:
        return {}
    hints: dict = {}
    for lb in lists:
        larr = batch.column(lb.index)
        ln = pc.fill_null(pc.list_value_length(larr), 0).cast(pa.int64())
        for ib in ints:
            iarr = batch.column(ib.index)
            if iarr.null_count:
                continue
            eq = pc.all(pc.equal(ln, iarr.cast(pa.int64()))).as_py()
            if eq:
                hints[lb.field.name] = ib.field.name
                break
    return hints


def encode_chunk(
    batch: pa.Table,
    bound: BoundPlan,
    *,
    fragment: str = "",
    post_compress: Optional[str] = None,
    shared_dicts: Optional[dict] = None,
    bloom_cols: Optional[Sequence[str]] = None,
    hll_cols: Optional[Sequence[str]] = None,
    quantile_cols: Optional[Sequence[str]] = None,
    quantile_k: int = 256,
) -> dict:
    """Encode one Arrow chunk under a bound plan -> dict of columns
    for a one-row encoded table.

    ``post_compress`` ("zstd"/"lz4"): squeeze each column payload with
    a generic codec AFTER the lightweight encode (the parquet layering
    model) — taken per column only when it actually shrinks, recorded
    in meta["z"], transparent at decode.  All checksums cover the
    STORED bytes.

    ``shared_dicts``: column name -> ``SharedIntDict`` — corpus-global
    dictionaries from the encode pre-pass (codecs/shared_dict.py); each
    column's int value stream may encode against its entry, storing
    ranks + extras instead of a per-chunk dictionary."""
    n_rows = len(batch)
    out: dict = {}
    payload_parts: list = []
    codec_summary: list = []
    lengths_refs = _lengths_ref_hints(batch, bound)
    # "__nulls__" is ALWAYS present in new chunks (even when empty):
    # its presence marks the stats format that can PROVE a zero null
    # count, which chunk_all_match's COUNT-pushdown fast path needs —
    # absence means an old chunk where all-match is unprovable.
    stats: dict = {"__nulls__": {}, "__sums__": {}}
    bytes_in = 0
    zcodec = pa.Codec(post_compress) if post_compress else None
    for i, bc in enumerate(bound.columns):
        arr = batch.column(bc.index)
        bytes_in += arr.nbytes
        payload, meta = encode_column(arr, forced=bc.plan.forced_codec,
                                      shared_int=(shared_dicts or {}).get(bc.field.name),
                                      lengths_ref=lengths_refs.get(bc.field.name))
        if zcodec is not None and len(payload) > 64:
            comp = memoryview(zcodec.compress(payload, asbytes=True))
            if len(comp) < len(payload):
                meta["z"] = [post_compress, len(payload)]
                payload = bytes(comp)
        meta["name"] = bc.field.name
        # per-column checksum: lets PROJECTED decodes (subset of
        # columns) verify integrity without every payload
        meta["ck"] = hashlib.blake2b(payload, digest_size=8).hexdigest()
        if bloom_cols and bc.field.name in bloom_cols:
            from .bloomzone import build_bloom

            be = build_bloom(arr)
            if be is not None:
                stats.setdefault("__bloom__", {})[bc.field.name] = be
        if hll_cols and bc.field.name in hll_cols:
            from .bloomzone import build_hll

            he = build_hll(arr)
            if he is not None:
                stats.setdefault("__hll__", {})[bc.field.name] = he
        if quantile_cols and bc.field.name in quantile_cols:
            from .bloomzone import build_quant

            qe = build_quant(arr, k=quantile_k)
            if qe is not None:
                stats.setdefault("__quant__", {})[bc.field.name] = qe
        add_zone_stats(stats, bc.field.name, arr)
        mjson = json.dumps(meta, separators=(",", ":"))
        out[f"col{i}_payload"] = [payload]
        out[f"col{i}_meta"] = [mjson]
        payload_parts.append(payload)
        codec_summary.append(_codec_of(meta))
    metas = [out[f"col{i}_meta"][0] for i in range(len(bound.columns))]
    checksum, chunk_id = chunk_identity(payload_parts, metas)
    bytes_out = sum(len(p) for p in payload_parts) + sum(len(m) for m in metas)
    out_meta = {
        "fragment": [fragment],
        "chunk_id": [chunk_id],
        "n_rows": [n_rows],
        "n_tokens": [_token_count(batch)],
        "bytes_in": [bytes_in],
        "bytes_out": [bytes_out],
        "checksum": [checksum],
        "plan_json": [json.dumps([b.field.name for b in bound.columns])],
        "codecs_json": [json.dumps(codec_summary)],
        # zone maps: per-column [min, max] — chunk-level predicate
        # pushdown at decode; also lands in the lineage manifest
        "stats_json": [json.dumps(stats, separators=(",", ":"), default=str)],
    }
    out_meta.update(out)
    return out_meta


def _codec_of(meta: dict) -> dict:
    """Flatten the per-stream codec choices for the lineage record."""
    res = {}
    kind = meta["kind"]
    if kind == "primitive":
        res["values"] = meta["streams"]["values"]["codec"]
    elif kind == "string":
        res["strategy"] = meta["strategy"]
        if meta["strategy"] == "pattern":
            res["ints"] = meta["streams"]["ints"]["codec"]
        else:
            inner = meta.get("raw") or meta.get("dict")
            res["lengths"] = inner["lengths"]["codec"]
            res["data"] = inner["data"]["codec"]
    elif kind == "list":
        lentry = meta["streams"]["lengths"]
        res["lengths"] = (
            "ref:" + lentry["meta"]["col"] if lentry["codec"] == "ref"
            else lentry["codec"]
        )
        child = meta["child"]
        if child["kind"] == "primitive":
            res["values"] = child["streams"]["values"]["codec"]
    return res


def _resolve_shared_dicts(shared_dicts) -> Optional[dict]:
    """Accept a plain {col: SharedIntDict}, a ray.ObjectRef to one
    (broadcast once with ray.put, fetched plasma-local per worker), or
    None.  Instances route through the process-global content-addressed
    registry so lookup structures build once per worker process, not
    once per task."""
    if shared_dicts is None:
        return None
    import ray

    if isinstance(shared_dicts, ray.ObjectRef):
        shared_dicts = ray.get(shared_dicts)
    from ..codecs.shared_dict import register

    return {k: register(sd) for k, sd in shared_dicts.items()}


def _strip_sys(batch: pa.Table) -> pa.Table:
    drop = [c for c in batch.column_names if c == PATH_COL or c.startswith(SYS_PREFIX)]
    return batch.drop_columns(drop) if drop else batch


def encode_batch(batch: pa.Table, plan_names: Optional[list] = None,
                 fragments: Optional[list] = None,
                 post_compress: Optional[str] = None,
                 shared_dicts=None,
                 bloom_cols: Optional[list] = None,
                 hll_cols: Optional[list] = None,
                 quantile_cols: Optional[list] = None,
                 quantile_k: int = 256) -> dict:
    """One raw batch -> one encoded chunk row.  Strictly deterministic:
    FSST tables are trained per chunk, and ``shared_dicts`` are
    pre-trained fixed inputs, so re-encoding a chunk's rows reproduces
    its bytes (and a retried task its output)."""
    fragment = _fragment_of(batch, fragments)
    data = _strip_sys(batch)
    plan = CodecPlan.by_name(*plan_names) if plan_names else CodecPlan.from_schema(data.schema)
    bound = bind_plan(plan, data.schema)
    return encode_chunk(data, bound, fragment=fragment,
                        post_compress=post_compress,
                        shared_dicts=_resolve_shared_dicts(shared_dicts),
                        bloom_cols=bloom_cols, hll_cols=hll_cols,
                        quantile_cols=quantile_cols,
                        quantile_k=quantile_k)
