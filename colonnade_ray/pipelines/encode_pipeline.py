"""End-to-end encode / decode / verify pipelines with per-partition
lineage and exact resume.

Flagship lifecycle (graft of the reference's top entry points traced
in SURVEY.md §3: encodeCsvStreamUtf8 / decodeHeadedCsvUtf8 — header
once per stream ≙ manifest once per partition; row-coordinate errors
≙ lineage records):

    read_parquet(fragments, include_paths=True)
      -> map_batches(prep) [-> cluster sort]
      -> [optional groupby-on-source + size-aware shuffle]
      -> map_batches(encode_batch, batch_format="pyarrow")
                                              # stateless tasks, fused
                                              #   with the prep map and
                                              #   the write, not with
                                              #   the read
      -> write_parquet(out/data/group=G)      # uncompressed parquet:
                                              #   payload columns carry
                                              #   OUR compression
      -> write lineage manifest (commit marker) -> resume skips G

Resume contract (north_rule "exact resume from checkpoint"): a
fragment group is complete iff its lineage file exists; a data dir
without its lineage marker is a torn write and is re-encoded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.encode import EncodeSpec, encode_batch
from ..stages.skew import (
    DEFAULT_TOKEN_BUDGET,
    PKEY,
    partition_by_source,
    salt_counts,
    source_token_totals,
)
from ..stages.transport import list_transport_spec, pack_list_columns
from ..stages.verify import dataset_digest

LINEAGE_COLS = [
    "fragment", "chunk_id", "n_rows", "n_tokens",
    "bytes_in", "bytes_out", "checksum", "codecs_json",
    "plan_json", "stats_json",  # column plan + zone maps in the manifest
]


# ---------------------------------------------------------------------------
# Shared-dictionary pre-pass (codecs/shared_dict.py)


def _shared_dict_eligible(t: pa.DataType) -> bool:
    """Columns whose value stream can ride a shared int dictionary:
    integer primitives and (large_)list<integer>."""
    if pa.types.is_integer(t):
        return True
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return pa.types.is_integer(t.value_type)
    return False


def _sample_int_columns(path: str, rows: int, cap: int) -> dict:
    """First ``rows`` rows of one parquet file -> {col: (uniq, counts)}
    for eligible columns, values capped at ``cap`` per column.  Runs
    as a Ray task (one per sampled file)."""
    pf = pq.ParquetFile(path)
    schema = pf.schema_arrow
    cols = [f.name for f in schema if _shared_dict_eligible(f.type)]
    if not cols:
        return {}
    batch = next(pf.iter_batches(batch_size=rows, columns=cols), None)
    if batch is None:
        return {}
    out = {}
    import numpy as np

    for name in cols:
        arr = batch.column(batch.schema.get_field_index(name))
        if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
            arr = arr.flatten()
        if arr.null_count:
            arr = arr.drop_null()
        vals = arr.to_numpy(zero_copy_only=False)
        if vals.size > cap:
            vals = vals[:cap]
        uniq, counts = np.unique(vals, return_counts=True)
        out[name] = (uniq.astype(np.int64), counts.astype(np.int64))
    return out


def train_shared_dicts(
    files: Sequence[str],
    out_dir: str,
    max_files: int = 8,
    rows_per_file: int = 16384,
    values_per_file: int = 4_000_000,
    max_size: int = 1 << 22,
) -> dict:
    """Deterministic shared-dictionary pre-pass (the north star's
    "build and reuse ... dictionaries across batches", generalized to
    the stateless fused chain): sample the first rows of evenly-spaced
    input files in parallel, merge per-column value histograms on the
    driver (vocab-sized, not corpus-sized), train a frequency-rank
    table per column where the sample shows real repetition, persist
    each content-addressed under ``<out_dir>/_dicts/`` and pin the set
    in ``_meta/shared_dicts.json`` BEFORE any commit group encodes.

    Resume/determinism: an existing manifest reloads the exact same
    tables, so groups encoded by a resumed run are byte-compatible
    with the original run's.  Returns {column: SharedIntDict}.
    """
    import numpy as np
    import ray

    from ..codecs.shared_dict import SharedIntDict, register

    manifest = os.path.join(_meta_root(out_dir), "shared_dicts.json")
    if os.path.exists(manifest):
        return load_pinned_dicts(out_dir)

    files = list(files)
    sample_files = files[:: max(1, len(files) // max_files)][:max_files]
    task = ray.remote(num_cpus=1)(_sample_int_columns)
    results = ray.get([
        task.remote(p, rows_per_file, values_per_file) for p in sample_files
    ])

    merged: dict = {}
    for res in results:
        for col, (uniq, counts) in res.items():
            merged.setdefault(col, []).append((uniq, counts))
    out = {}
    entries = {}
    for col, pieces in merged.items():
        alluniq = np.concatenate([u for u, _ in pieces])
        allcnt = np.concatenate([c for _, c in pieces])
        uniq, inv = np.unique(alluniq, return_inverse=True)
        counts = np.bincount(inv, weights=allcnt.astype(np.float64)).astype(np.int64)
        n_sampled = int(counts.sum())
        # only train where the sample shows repetition a dict exploits;
        # an unhelpful table would never be selected anyway, but a
        # near-all-distinct one (ids) would just waste a sidecar file
        if uniq.size < 16 or uniq.size > min(max_size, n_sampled // 4):
            continue
        order = np.lexsort((np.arange(uniq.size), -counts))
        sd = SharedIntDict(uniq[order][:max_size])
        sd.save(out_dir)
        out[col] = register(sd)
        entries[col] = {"ref": sd.ref,
                        "file": os.path.relpath(sd.path, out_dir),
                        "sampled_values": n_sampled}
    # manifest is the pin: written only after every table is on disk
    _write_json(manifest, entries, indent=1, sort_keys=True)
    return out


def load_pinned_dicts(out_dir: str) -> Optional[dict]:
    """{column: SharedIntDict} from the pinned manifest, or None when
    the corpus was encoded without shared dictionaries.  Pure file
    reads (no Ray) — safe inside worker UDFs (vacuum re-encode)."""
    from ..codecs.shared_dict import SharedIntDict, register

    manifest = os.path.join(out_dir, "_meta", "shared_dicts.json")
    if not os.path.exists(manifest):
        return None
    with open(manifest) as f:
        pinned = json.load(f)
    out = {}
    for col, ent in pinned.items():
        sd = SharedIntDict.load(os.path.join(out_dir, ent["file"]),
                                expect_ref=ent["ref"])
        out[col] = register(sd)
    return out


def _deletes_dir_of(out_dir: str) -> Optional[str]:
    """out_dir when committed deletion sidecars exist, else None — a
    driver-side check so delete-free corpora (the common case) pay
    zero per-chunk mask lookups in the decode hot loop."""
    from .deletes import committed_deletes

    return out_dir if committed_deletes(out_dir) else None


def _run_groups(work, items, max_concurrent: int = 4) -> list:
    """Run independent per-group rewrite closures, from driver threads
    when there are several (Ray's streaming executor multiplexes
    concurrent Dataset executions — the same pattern as
    ``encode_corpus(max_concurrent_groups > 1)``); groups stay
    individually crash-safe, so a failure mid-list leaves every
    already-committed group readable and a re-run converges."""
    items = list(items)
    if max_concurrent <= 1 or len(items) <= 1:
        return [work(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    _stub_fsspec_http()
    with ThreadPoolExecutor(max_workers=max_concurrent) as ex:
        return list(ex.map(work, items))


def _register_dict_dir(out_dir: str) -> None:
    """Worker-side shared-dict search-root registration (idempotent;
    called at the top of every decode-bearing UDF so chunks encoded
    with shared dictionaries resolve even if the corpus moved)."""
    from ..codecs.shared_dict import register_dir

    register_dir(out_dir)


def shared_dict_bytes(out_dir: str) -> int:
    from ..codecs.shared_dict import DICT_DIR

    ddir = os.path.join(out_dir, DICT_DIR)
    if not os.path.isdir(ddir):
        return 0
    return sum(
        os.path.getsize(os.path.join(ddir, f))
        for f in os.listdir(ddir) if f.startswith("dict-")
    )


def encode_dataset(
    ds,
    spec: EncodeSpec = EncodeSpec(),
    *,
    plan_names: Optional[Sequence[str]] = None,
    transport: Optional[dict] = None,
    fragments: Optional[Sequence[str]] = None,
    shared_dicts=None,
):
    """Dataset of raw rows -> Dataset of encoded chunk rows (lazy),
    ``spec.batch_size`` rows per chunk with the sketches ``spec``
    names.

    One stateless ``encode_batch`` map.  Ray fuses it with the map
    before it and the write after it, but not with the read: the
    logged plan of ``encode_corpus`` is ``ReadParquet ->
    [MapBatches(<lambda>)->MapBatches(_encode)->Write]``.  After the
    skew shuffle it runs as plain tasks over the sorted blocks.  Either
    way a chunk's bytes depend only on its rows.

    ``transport``: spec from ``stages.transport.list_transport_spec``
    when the upstream stage packed list columns for the exchange; the
    encoder widens them back before encoding (bit-transparent).
    ``shared_dicts``: the trained tables, not ``spec.shared_dicts``.
    """
    plan_names = list(plan_names) if plan_names else None
    frag_names = list(fragments) if fragments else None

    def _encode(b: pa.Table) -> dict:
        if transport:
            from ..stages.transport import unpack_list_columns

            b = unpack_list_columns(b, transport)
        return encode_batch(b, spec, plan_names=plan_names,
                            fragments=frag_names, shared_dicts=shared_dicts)

    return ds.map_batches(
        _encode,
        batch_format="pyarrow",
        batch_size=spec.batch_size,
        zero_copy_batch=True,
    )


def decode_dataset(enc_ds, verify_checksum: bool = True):
    """Dataset of encoded chunk rows -> Dataset of original rows (lazy):
    every row decoded whole, its chunk checksum verified unless
    ``verify_checksum`` is False.  Stored corpora are read through
    ``decode_corpus``, which plans, masks and projects."""
    from ..stages.decode import _decode_all
    from ..util import default_concurrency

    return enc_ds.map_batches(
        lambda b: _decode_all(b, verify_checksum),
        batch_format="pyarrow",
        batch_size=1,
        zero_copy_batch=True,
        concurrency=default_concurrency(),
    )


def _stub_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` importable from driver
    threads.  Without aiohttp the real module raises on import; a
    failed import is removed from sys.modules, so concurrent path
    resolutions in Ray race into plain ImportError past Ray's
    ModuleNotFoundError guard.  Since no HTTP filesystem can exist
    without aiohttp, a stub with a never-instantiated HTTPFileSystem
    (only isinstance-checked by Ray) is safe and ends the race."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401

        return
    except Exception:
        pass
    stub = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # pragma: no cover - marker class only
        pass

    stub.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = stub


def _prep_batch(b: pa.Table, spec: dict, frag_idx: dict) -> pa.Table:
    """Fused pre-exchange prep: transport-pack list columns and swap
    the per-row path string for an int32 fragment ordinal."""
    import numpy as np

    from ..stages.encode import FRAG_COL, PATH_COL

    if spec:
        b = pack_list_columns(b, spec)
    if PATH_COL in b.column_names:
        col = b[PATH_COL]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = col.dictionary_encode()
        ords = np.array(
            [frag_idx.get(v, -1) for v in d.dictionary.to_pylist()], dtype=np.int32
        )
        idxs = d.indices.to_numpy(zero_copy_only=False)
        frag = pa.array(ords[idxs], pa.int32())
        i = b.column_names.index(PATH_COL)
        b = b.set_column(i, pa.field(FRAG_COL, pa.int32()), frag)
    return b


def _zorder_sort(t: pa.Table, cols: Sequence[str], bits: int = 16) -> pa.Table:
    """Block-local Z-order (Morton) clustering over 2+ columns: each
    column is rank-normalized within the block to ``bits`` bits
    (robust to scale, skew and type — ranks, not raw values), the bit
    strings are interleaved into one key, and the block is sorted by
    it.  Chunks sliced from the sorted block then carry zone bands
    that are narrow on EVERY clustered column at once, so
    count_where / aggregate_where / selective decode prune on any of
    them — the multi-predicate generalization of the single-column
    ``cluster_by`` (same zero-exchange contract: the sort runs per read
    block; a global Z-order would be an all-to-all and is
    deliberately not this knob)."""
    import numpy as np

    n = len(t)
    if n <= 1:
        return t
    k = len(cols)
    # The interleaved key lives in a single uint64: the highest shift is
    # (bits-1)*k + (k-1) = bits*k - 1, so bits*k must stay <= 64.  numpy
    # uint64 shifts >= 64 are undefined (wrap mod 64 on x86) and would
    # silently scramble the key, so clamp per-column bits to the budget.
    bits = min(bits, 64 // k)
    if bits < 1:
        raise ValueError(
            f"_zorder_sort: cannot interleave {k} columns into a 64-bit "
            f"key (need at least 1 bit per column); reduce cluster_by "
            f"to at most 64 columns")
    key = np.zeros(n, dtype=np.uint64)
    for ci, c in enumerate(cols):
        col = t[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ranks = pc.rank(col, sort_keys="ascending",
                        null_placement="at_end",
                        tiebreaker="first").to_numpy() - 1
        q = ((ranks.astype(np.float64) * ((1 << bits) - 1))
             / max(n - 1, 1)).astype(np.uint64)
        for b in range(bits):
            key |= ((q >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * k + ci)
    return t.take(np.argsort(key, kind="stable"))


# ---------------------------------------------------------------------------
# Corpus-level orchestration with lineage + resume


def _group_id(files: Sequence[str]) -> str:
    """Lineage id of a commit group: hash of the FULL paths plus the
    file count — basenames alone collide across input directories with
    identical shard names (a/part-0 vs b/part-0), which would make
    resume silently skip or clobber the second group."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(len(files)).encode())
    for f in sorted(files):
        h.update(f.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _list_input_files(inputs) -> list:
    if isinstance(inputs, str):
        if os.path.isdir(inputs):
            return sorted(
                os.path.join(inputs, f)
                for f in os.listdir(inputs)
                if f.endswith(".parquet")
            )
        return [inputs]
    return list(inputs)


def encode_corpus(
    inputs,
    out_dir: str,
    plan_names: Optional[Sequence[str]] = None,
    batch_size: Optional[int] = None,
    partition_by: Optional[str] = None,   # "source" enables the skew shuffle
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    group_size: Optional[int] = None,     # fragments per commit group; None = one group
    resume: bool = True,
    max_concurrent_groups: int = 1,
    transport: bool = True,
    append: bool = False,
    cluster_by: Optional[str | Sequence[str]] = None,  # list => Z-order
    shared_dicts: Optional[bool] = None,
    bloom_cols: Optional[Sequence[str] | str] = "auto",
    hll_cols: Optional[Sequence[str]] = None,
    quantile_cols: Optional[Sequence[str]] = None,
    quantile_k: Optional[int] = None,
) -> dict:
    """Encode a parquet corpus to out_dir with lineage + exact resume.

    The layout options ``batch_size`` … ``quantile_k`` form the
    corpus's ``EncodeSpec``, recorded by a fresh encode (unset ones take
    the ``EncodeSpec`` defaults; ``bloom_cols="auto"`` picks
    ``_auto_bloom_cols``).  A continuing encode (``append``, or
    ``resume`` with committed groups) reads it back: an option left
    unset takes the recorded value, one set to another value raises
    ``ValueError``.  ``shared_dicts`` runs the deterministic dictionary
    pre-pass (``train_shared_dicts``; codecs/shared_dict.py).

    Groups are independent pipelines (own read -> shuffle -> encode ->
    write -> commit marker); ``max_concurrent_groups > 1`` runs them
    from driver threads so small commit groups don't serialize the
    cluster (the DESIGN.md scale path — Ray's streaming executor
    multiplexes concurrent Dataset executions).

    Returns a summary dict (chunks, rows, tokens, bytes_in/out).
    """
    import ray.data as rd

    files = _list_input_files(inputs)
    data_root = os.path.join(out_dir, "data")
    lin_root = os.path.join(out_dir, "_lineage")
    os.makedirs(data_root, exist_ok=True)
    os.makedirs(lin_root, exist_ok=True)
    given = {k: v for k, v in (("batch_size", batch_size),
                               ("cluster_by", cluster_by),
                               ("shared_dicts", shared_dicts),
                               ("hll_cols", hll_cols),
                               ("quantile_cols", quantile_cols),
                               ("quantile_k", quantile_k)) if v is not None}
    if bloom_cols != "auto":
        given["bloom_cols"] = bloom_cols
    continuing = append or (resume and bool(completed_groups(out_dir)))
    spec = load_encode_spec(out_dir) if continuing else None
    if spec is None:
        if bloom_cols == "auto":
            # bloom default (round-5 A/B in BASELINE.md): on a CLUSTERED
            # layout the non-cluster columns' zone bands widen to block
            # range — exactly when a point lookup needs the Bloom filter
            # (measured 9 -> 3 may-match chunks at ~0.1% disk, encode
            # wall unchanged); unclustered layouts keep bands narrow on
            # the natural order and stay bloom-free.
            given["bloom_cols"] = (_auto_bloom_cols(files, cluster_by)
                                   if cluster_by is not None and files
                                   else None)
        spec = EncodeSpec(**given)
        _record_encode_spec(out_dir, spec)
    else:
        asked = asdict(replace(spec, **given))
        for name, was in asdict(spec).items():
            if asked[name] != was:
                raise ValueError(
                    f"{name}={asked[name]!r} differs from {was!r}, "
                    f"recorded in {out_dir}/_meta/encode_spec.json")

    if append:
        # Incremental corpus growth: encode ONLY input files no
        # committed group already covers, as their own new group(s).
        # Filtering by FILE (not group id) keeps old group boundaries
        # untouched, so a later full-dir append run never re-chunks —
        # and never duplicates — previously committed data.
        done_files = encoded_input_files(out_dir)
        files = [f for f in files if f not in done_files]
        if not files:
            return corpus_summary(out_dir) | {"groups": 0, "resumed_groups": 0,
                                              "appended_files": 0}

    # dictionary pre-pass BEFORE any group encodes: tables persist
    # under _dicts/ + manifest first, so chunks never reference a
    # table that isn't durable (chaos-kill safe), and a resumed run
    # reloads the identical tables.  Broadcast once via ray.put —
    # every encode task reads it plasma-local, never re-shipped.
    sd_ref = None
    if spec.shared_dicts:
        import ray

        sd_map = train_shared_dicts(files, out_dir)
        if sd_map:
            sd_ref = ray.put(sd_map)

    groups: list[list[str]] = (
        [files]
        if not group_size
        else [files[i : i + group_size] for i in range(0, len(files), group_size)]
    )

    shadowed = shadowed_groups(out_dir) if resume else set()

    def encode_group(g: list) -> bool:
        """True if resumed (already committed)."""
        gid = _group_id(g)
        lin_path = os.path.join(lin_root, f"group-{gid}.parquet")
        gdir = os.path.join(data_root, f"group-{gid}")
        # a gid folded into a committed compaction counts as committed
        # even after its own marker was garbage-collected
        if resume and (os.path.exists(lin_path) or gid in shadowed):
            return True
        # exclusive per-group claim: two writers encoding the SAME
        # group (double-submitted append, racing re-runs) would
        # interleave rmtree/write on one data dir — the second claimant
        # fails fast instead (stale claims from crashed writers break)
        from .concurrency import claim as _claim_f
        from .concurrency import release as _release_f

        claim_path = os.path.join(_meta_root(out_dir), f"group-{gid}.claim")
        _claim_f(claim_path, what=f"encode group {gid}")
        try:
            return _encode_group_claimed(g, gid, lin_path, gdir)
        finally:
            _release_f(claim_path)

    def _encode_group_claimed(g: list, gid: str, lin_path: str,
                              gdir: str) -> bool:
        if os.path.exists(gdir):
            shutil.rmtree(gdir)  # torn write from a previous run
        # one block per file, split only when a file exceeds ~64 MiB:
        # Ray's default split produces ~1 MiB blocks here, which makes
        # the downstream sort pay per-block overhead on thousands of
        # tiny blocks (measured 2x on the whole pipeline).
        total_bytes = sum(os.path.getsize(f) for f in g if os.path.exists(f))
        nblocks = max(len(g), total_bytes // (64 << 20) + 1)
        if partition_by is None:
            # fused stateless chain: read-block count IS the task
            # count, so target enough waves to keep every core busy
            # (but never blocks under ~8 MiB — pure overhead)
            from ..util import effective_cpus

            nblocks = max(
                nblocks,
                min(2 * effective_cpus(), total_bytes // (8 << 20) + 1),
            )
        ds = rd.read_parquet(g, include_paths=True, override_num_blocks=nblocks)
        # Transport narrowing: pack integer list columns to their
        # footer-proven minimal width in the first map after the read,
        # so every shuffle hop moves the narrow form; the encoder task
        # widens back.  Halves exchange bytes on 16-bit vocabs.
        tspec = (
            list_transport_spec(g)
            if transport and plan_names is None  # explicit plans may rename/retype
            else {}
        )
        # One prep map (Ray fuses it with the encode and the write, not
        # with the read): transport narrowing + path string -> int32
        # fragment ordinal, so the exchange never carries a ~50 B/row
        # path column just to label lineage.
        frag_names = [os.path.basename(f) for f in g]
        frag_idx = {f: i for i, f in enumerate(g)}
        ds = ds.map_batches(
            lambda b: _prep_batch(b, tspec, frag_idx),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if spec.cluster_by is not None:
            # Block-local clustering: sort each READ BLOCK by the
            # column before batch_size slices it into chunks — zero
            # exchange (the sort runs in the map after the read), but
            # every chunk's zone band narrows to a block-local value
            # range, which is what makes count_where / aggregate_where
            # / selective decode prove most chunks from metadata.  The
            # classic zone-map layout lever (file-local ORDER BY);
            # a GLOBAL sort would be an all-to-all — deliberately not
            # this knob.  A tuple of column NAMES Z-orders (Morton
            # interleave of block-local ranks — bands narrow on every
            # column at once, see _zorder_sort); a tuple of
            # (name, "ascending"/"descending") pairs sorts
            # lexicographically (pyarrow sort_by form — the layout for
            # hierarchical access like grouped_topk_where, where
            # chunks should be single-GROUP and value-ordered WITHIN
            # the group).
            cb = spec.cluster_by
            if isinstance(cb, str):
                sort_fn = lambda b: b.sort_by(cb)  # noqa: E731
            elif isinstance(cb[0], tuple):
                sort_fn = lambda b: b.sort_by(list(cb))  # noqa: E731
            else:
                sort_fn = lambda b: _zorder_sort(b, cb)  # noqa: E731
            ds = ds.map_batches(
                sort_fn,
                batch_format="pyarrow", batch_size=None,
                zero_copy_batch=True,
            )
        if partition_by == "source":
            totals = source_token_totals(g)
            ds = partition_by_source(ds, salt_counts(totals, token_budget))
            ds = ds.drop_columns([PKEY])
        # Stateless tasks on every path: no actor pool to starve
        # behind read/write tasks, elastic scheduling.  Ray runs the
        # read as its own operator and fuses prep -> encode -> write
        # (see encode_dataset), so each raw block crosses the object
        # store once.
        # Measured on 8 pinned vCPUs the raw kernel runs 72M tok/s
        # 6-way while an actor-pool encode read 32M: the pool was the
        # bottleneck, not the codec.
        enc = encode_dataset(
            ds, spec, plan_names=plan_names, transport=tspec or None,
            fragments=frag_names, shared_dicts=sd_ref,
        )
        enc.write_parquet(gdir, compression="none", row_group_size=1)
        # input-file sidecar first (append mode reads it), THEN the
        # lineage marker — the marker parquet stays the commit point
        with open(os.path.join(_meta_root(out_dir), f"group-{gid}.files.json"), "w") as fh:
            json.dump(sorted(g), fh)
        # commit marker: lineage written only after the data lands.
        # The rename runs under the corpus commit mutex so it
        # serializes with generation-checked lifecycle commits
        # (appends commute with each other — no generation check).
        from .concurrency import commit_lock

        lineage = pq.read_table(gdir, columns=LINEAGE_COLS)
        with commit_lock(out_dir):
            _commit_lineage(lineage, lin_path)
        return False

    done = sum(_run_groups(encode_group, groups, max_concurrent_groups))
    summary = corpus_summary(out_dir) | {"groups": len(groups),
                                         "resumed_groups": int(done)}
    if append:
        summary["appended_files"] = len(files)
    return summary


def _auto_bloom_cols(files, cluster_by) -> Optional[list]:
    """Default Bloom column for a clustered encode: the FIRST
    string/integer column of the schema that is not a cluster column
    (by convention the primary id — doc_id in the flagship corpus).
    Footer-only (one pq.read_schema); None when nothing qualifies."""
    ccols: set = set()
    if isinstance(cluster_by, str):
        ccols = {cluster_by}
    elif cluster_by is not None:
        for c in cluster_by:
            ccols.add(c[0] if isinstance(c, (tuple, list)) else c)
    try:
        schema = pq.read_schema(files[0])
    except (OSError, IndexError):
        return None
    for f in schema:
        if f.name in ccols:
            continue
        if (pa.types.is_string(f.type) or pa.types.is_large_string(f.type)
                or pa.types.is_integer(f.type)):
            return [f.name]
    return None


def _write_json(path: str, obj, **kw) -> None:
    """Write ``obj`` as JSON by tmp+rename: a reader sees the old file
    or the new one, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, **kw)
    os.replace(tmp, path)


def _record_encode_spec(out_dir: str, spec: EncodeSpec) -> None:
    """Record ``spec`` as the corpus's encode spec.  A fresh encode
    calls it before any group commits (the shared-dict manifest's
    rule), so a committed group always has its spec beside it."""
    _write_json(os.path.join(_meta_root(out_dir), "encode_spec.json"),
                asdict(spec), sort_keys=True)


def load_encode_spec(out_dir: str) -> Optional[EncodeSpec]:
    """The corpus's recorded ``EncodeSpec``, or None when none was
    recorded.  A pure file read, safe inside worker UDFs (the lifecycle
    rewriters re-derive sketches from it)."""
    try:
        with open(os.path.join(out_dir, "_meta", "encode_spec.json")) as fh:
            return EncodeSpec(**json.load(fh))
    except FileNotFoundError:
        return None


_LIN_CACHE: dict = {}
_LIN_CACHE_CAP = 1024


def _lineage_entry(out_dir: str, gid: str) -> dict:
    """One group's lineage marker as ``{"table": ...}``, plus whatever
    the readers derive from it (``_ref_targets``), process-cached by
    (path, mtime_ns, size) — a pushdown reads each manifest once per
    query for pruning, once for task sizing, once for projection
    resolution, and the driver repeats that per query; at 1e5 groups
    those re-reads dominate driver time.  The identity key makes the
    cache crash/rewrite-safe for free: markers only ever change by
    tmp+rename (new mtime/size => miss) or by gc removal (stat raises
    => the caller's existence check already skipped it).  LRU-bounded
    (1024 entries) so a 1e5-group corpus doesn't pin every manifest in
    driver heap."""
    path = os.path.join(out_dir, "_lineage", f"group-{gid}.parquet")
    st = os.stat(path)
    key = (os.path.realpath(path), st.st_mtime_ns, st.st_size)
    hit = _LIN_CACHE.get(key)
    if hit is not None:
        _LIN_CACHE[key] = _LIN_CACHE.pop(key)  # mark most-recent
        return hit
    entry = {"table": pq.read_table(path)}
    _LIN_CACHE[key] = entry
    while len(_LIN_CACHE) > _LIN_CACHE_CAP:
        _LIN_CACHE.pop(next(iter(_LIN_CACHE)))
    return entry


def lineage_table(out_dir: str, gid: str) -> pa.Table:
    """One group's lineage marker (cached: ``_lineage_entry``)."""
    return _lineage_entry(out_dir, gid)["table"]


def _ref_targets(out_dir: str, gid: str) -> dict:
    """{plan column index: sibling columns its lengths ref to} over
    every chunk of group ``gid`` (stages/encode.py
    _lengths_ref_hints).  Per-chunk fallback means refs can differ
    across chunks, so this parses every row's ``codecs_json`` — once
    per marker, memoized beside its cached table."""
    entry = _lineage_entry(out_dir, gid)
    if "refs" not in entry:
        refs: dict = {}
        for cj in entry["table"]["codecs_json"].to_pylist():
            for i, e in enumerate(json.loads(cj)):
                lc = e.get("lengths", "")
                if isinstance(lc, str) and lc.startswith("ref:"):
                    refs.setdefault(i, set()).add(lc[4:])
        entry["refs"] = refs
    return entry["refs"]


def _meta_root(out_dir: str) -> str:
    """Sidecar dir (input-file coverage, supersedes lists) — kept OUT
    of _lineage so that directory stays a pure parquet dataset (tools
    and tests read it with pq.read_table(dir))."""
    p = os.path.join(out_dir, "_meta")
    os.makedirs(p, exist_ok=True)
    return p


def _group_files(out_dir: str, gid: str) -> list:
    """Sorted chunk-row parquet files of group ``gid``; empty for a
    group vacuumed to zero rows (its lineage marker only carries a
    supersedes shadow)."""
    gdir = os.path.join(out_dir, "data", f"group-{gid}")
    if not os.path.isdir(gdir):
        return []
    return sorted(os.path.join(gdir, f) for f in os.listdir(gdir)
                  if f.endswith(".parquet"))


def encoded_input_files(out_dir: str) -> set:
    """Input files covered by COMMITTED groups (sidecar + marker both
    present).  Sidecars predating the marker alone don't count — the
    parquet marker stays the single commit point."""
    lin_root = os.path.join(out_dir, "_lineage")
    meta_root = os.path.join(out_dir, "_meta")
    out: set = set()
    if not os.path.isdir(meta_root):
        return out
    for f in os.listdir(meta_root):
        if not f.endswith(".files.json"):
            continue
        marker = os.path.join(lin_root, f[: -len(".files.json")] + ".parquet")
        if os.path.exists(marker):
            with open(os.path.join(meta_root, f)) as fh:
                out.update(json.load(fh))
    return out


def corpus_summary(out_dir: str) -> dict:
    lin_root = os.path.join(out_dir, "_lineage")
    files = [
        os.path.join(lin_root, f"group-{gid}.parquet")
        for gid in active_groups(out_dir)
    ]
    if not files:
        return {"chunks": 0, "rows": 0, "tokens": 0, "bytes_in": 0, "bytes_out": 0}
    t = pa.concat_tables([pq.read_table(f) for f in files])
    import pyarrow.compute as pc

    sd_bytes = shared_dict_bytes(out_dir)
    out = {
        "chunks": t.num_rows,
        "rows": int(pc.sum(t["n_rows"]).as_py() or 0),
        "tokens": int(pc.sum(t["n_tokens"]).as_py() or 0),
        "bytes_in": int(pc.sum(t["bytes_in"]).as_py() or 0),
        # shared dictionary sidecars are part of the compressed form —
        # charged to bytes_out so B/token stays honest
        "bytes_out": int(pc.sum(t["bytes_out"]).as_py() or 0) + sd_bytes,
        "shared_dict_bytes": sd_bytes,
    }
    if _deletes_dir_of(out_dir):
        from .deletes import deleted_row_count

        out["deleted_rows"] = deleted_row_count(out_dir)
        out["live_rows"] = out["rows"] - out["deleted_rows"]
    return out


def completed_groups(out_dir: str) -> list:
    lin_root = os.path.join(out_dir, "_lineage")
    if not os.path.isdir(lin_root):
        return []
    return sorted(
        f[len("group-") : -len(".parquet")]
        for f in os.listdir(lin_root)
        if f.startswith("group-") and f.endswith(".parquet")
    )


def shadowed_groups(out_dir: str) -> set:
    """Gids superseded by a COMMITTED compacted group (the compaction
    commit point is the new group's marker; its .supersedes.json is
    written first, so a committed marker always has its shadow list)."""
    lin_root = os.path.join(out_dir, "_lineage")
    shadowed: set = set()
    for gid in completed_groups(out_dir):
        sup = os.path.join(out_dir, "_meta", f"group-{gid}.supersedes.json")
        if os.path.exists(sup):
            with open(sup) as fh:
                shadowed.update(json.load(fh))
    return shadowed


def active_groups(out_dir: str) -> list:
    """Committed groups minus those shadowed by a committed compaction
    — the single source of truth for every read path."""
    shadowed = shadowed_groups(out_dir)
    return [g for g in completed_groups(out_dir) if g not in shadowed]


def _transitive_supersedes(out_dir: str, gids) -> list:
    """``gids`` plus every group they transitively supersede — the
    shadow list a replacement group must carry.  A rewrite whose gc
    was interrupted by a crash leaves its OWN replaced group on disk,
    shadowed only by its supersedes marker; if the next rewrite of the
    chain recorded only its immediate parent and then gc-removed that
    marker, the grandparent's lineage would resurface and its rows
    would decode TWICE.  Carrying the closure keeps every ancestor
    shadowed by the live head of the chain, and gc (``_gc_group`` over
    this same list) finishes any interrupted ancestor cleanup."""
    out: set = set()
    stack = list(gids)
    roots = set(gids)
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        sup = os.path.join(_meta_root(out_dir), f"group-{g}.supersedes.json")
        if os.path.exists(sup):
            try:
                with open(sup) as fh:
                    stack.extend(json.load(fh))
            except (json.JSONDecodeError, OSError):
                pass  # marker truncated by a crash mid-write: the
                #       group carrying it was never committed, so it
                #       shadows nothing
    # prune ancestors with no artifacts left on disk: a group whose
    # lineage marker is gone can never resurrect, and keeping it would
    # grow the chain (and the gc loop) by one forever
    def _extant(g):
        return (g in roots
                or os.path.exists(os.path.join(out_dir, "_lineage",
                                               f"group-{g}.parquet"))
                or os.path.exists(os.path.join(_meta_root(out_dir),
                                               f"group-{g}.files.json"))
                or os.path.exists(os.path.join(_meta_root(out_dir),
                                               f"group-{g}.supersedes.json"))
                or os.path.isdir(os.path.join(out_dir, "data",
                                              f"group-{g}")))

    return sorted(g for g in out if _extant(g))


def _commit_lineage(table, path: str) -> None:
    """The lineage marker IS a group's commit point, so its write must
    be atomic: parquet to a ``.tmp`` sibling, then a same-directory
    rename.  A real crash mid-write then leaves only the tmp file —
    never a truncated marker that ``completed_groups`` would trust
    (``pq.write_table`` alone creates the destination name first and
    fills it incrementally)."""
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _gc_group(out_dir: str, gid: str) -> None:
    """Remove one superseded group's artifacts; lineage marker FIRST
    (the instant it's gone the group is inactive, so a crash anywhere
    in the rest leaves only invisible garbage).  Groups a committed
    snapshot pins are left untouched — still shadowed, so invisible
    to live readers; reclaimable by sweep_orphans after
    drop_snapshot."""
    from .snapshots import pinned_groups

    if gid in pinned_groups(out_dir):
        return
    lin_root = os.path.join(out_dir, "_lineage")
    for p in (os.path.join(lin_root, f"group-{gid}.parquet"),
              os.path.join(_meta_root(out_dir), f"group-{gid}.files.json"),
              os.path.join(_meta_root(out_dir),
                           f"group-{gid}.supersedes.json")):
        if os.path.exists(p):
            os.remove(p)
    d = os.path.join(out_dir, "data", f"group-{gid}")
    if os.path.isdir(d):
        shutil.rmtree(d, ignore_errors=True)


def _rewrite_group(out_dir: str, session, ngid: str, sources: Sequence[str],
                   rewriter=None, *, files: Optional[Sequence[str]] = None,
                   replaces: Optional[Sequence[str]] = None, keep=(),
                   num_blocks: Optional[int] = None, gc: bool = True,
                   what: str = "rewrite") -> list:
    """The one group-rewrite path of every lifecycle op (add/drop/
    rename columns, update, vacuum, compaction, restore): the chunk
    rows of ``files`` (default: every file of groups ``sources``),
    mapped through ``rewriter`` when given, become committed group
    ``ngid``, which covers the sources' input files and shadows
    ``replaces`` (default ``sources``) and every group they
    transitively supersede, minus ``ngid`` and ``keep``.

    Crash-safe order — each step only after the previous one landed:
    torn ``data/group-<ngid>`` removed -> rows written (one Ray pass)
    -> ``files.json`` (union of the sources' coverage) ->
    ``supersedes.json`` -> lineage marker, the commit point, published
    with the shadow's gc inside ``session.commit``: a writer that
    committed since ``session`` opened fails the op with
    ``ConcurrentWriteError`` before anything becomes visible.  A group
    rewritten to zero chunk rows, or from no files at all, still
    commits (an empty lineage marker typed from the source's chunk
    rows or lineage marker) so its shadow lands.
    Returns the shadow."""
    import ray.data as rd

    if files is None:
        files = [f for g in sources for f in _group_files(out_dir, g)]
    gdir = os.path.join(out_dir, "data", f"group-{ngid}")
    if os.path.exists(gdir):
        shutil.rmtree(gdir)  # torn rewrite from a previous run
    os.makedirs(gdir)
    if files:
        ds = rd.read_parquet(
            files, override_num_blocks=num_blocks or max(1, len(files)))
        if rewriter is not None:
            ds = ds.map_batches(rewriter, batch_format="pyarrow",
                                batch_size=4, zero_copy_batch=True)
        ds.write_parquet(gdir, compression="none", row_group_size=1)
    if any(f.endswith(".parquet") for f in os.listdir(gdir)):
        lineage = pq.read_table(gdir, columns=LINEAGE_COLS)
    else:
        src = pq.read_schema(files[0] if files else os.path.join(
            out_dir, "_lineage", f"group-{sources[0]}.parquet"))
        lineage = pa.table({c: pa.array([], src.field(c).type)
                            for c in LINEAGE_COLS})
    meta = _meta_root(out_dir)
    covered: set = set()
    for g in sources:
        sc = os.path.join(meta, f"group-{g}.files.json")
        if os.path.exists(sc):
            with open(sc) as fh:
                covered.update(json.load(fh))
    with open(os.path.join(meta, f"group-{ngid}.files.json"), "w") as fh:
        json.dump(sorted(covered), fh)
    drop = {ngid, *keep}
    shadow = [g for g in _transitive_supersedes(
        out_dir, sources if replaces is None else replaces) if g not in drop]
    with open(os.path.join(meta, f"group-{ngid}.supersedes.json"), "w") as fh:
        json.dump(shadow, fh)

    def _publish():
        _commit_lineage(lineage,
                        os.path.join(out_dir, "_lineage", f"group-{ngid}.parquet"))
        if gc:
            for g in shadow:
                _gc_group(out_dir, g)

    # gc removals change the generation, so they ride the same
    # critical section as the marker
    session.commit(_publish, what=what)
    return shadow


def compact_corpus(out_dir: str, gc: bool = True,
                   only_smaller_than: Optional[int] = None) -> dict:
    """Merge the committed groups into one consolidated group per
    encoded SCHEMA — the operational counterpart of ``append=True``:
    after many incremental runs the corpus is thousands of small
    groups, and compaction rewrites only the already-encoded chunk
    ROWS (no re-encode, payloads move verbatim) into one directory.

    ``only_smaller_than`` (bytes) makes the pass size-aware — the
    100-TB shape of periodic compaction: only groups whose data dir
    is under the threshold join the merge; consolidated groups above
    it never pay the rewrite again, so repeated compact calls over a
    growing corpus cost O(small tail), not O(corpus).  ``None`` keeps
    the original everything-per-cohort behavior.

    Crash-safe ordering: new data dir -> merged input-file sidecar ->
    .supersedes.json -> lineage marker (the commit point; every read
    path filters shadowed groups via ``active_groups``).  ``gc=True``
    deletes the shadowed groups' markers, sidecars and data after the
    commit; with ``gc=False`` they remain on disk, shadowed."""
    from .concurrency import WriterSession

    # generation captured before the active-set read: a delete/merge
    # landing mid-compaction fails the next cohort commit cleanly
    # (committed cohorts stay readable; a re-run converges)
    session = WriterSession(out_dir)
    olds = active_groups(out_dir)
    if only_smaller_than is not None:
        olds = [g for g in olds
                if sum(map(os.path.getsize, _group_files(out_dir, g)))
                < only_smaller_than]
    # cohorts by encoded schema: groups from different plans carry
    # different colN columns and cannot share one parquet schema.
    # Groups vacuumed to zero rows have no files (their empty lineage
    # marker only carries a supersedes shadow) — folded into the first
    # compacted cohort's shadow below so compaction retires them too.
    cohorts: dict = {}
    empties: list = []
    for gid in olds:
        fs = _group_files(out_dir, gid)
        if not fs:
            empties.append(gid)
            continue
        key = tuple(pq.read_schema(fs[0]).names)
        cohorts.setdefault(key, []).append(gid)
    compacted = 0
    for key, gids in cohorts.items():
        if len(gids) < 2:
            continue
        if empties:
            gids = gids + empties
            empties = []
        h = hashlib.blake2b(digest_size=8)
        for g in gids:
            h.update(g.encode())
            h.update(b"\x00")
        ngid = "c" + h.hexdigest()[:15]
        files = [f for g in gids for f in _group_files(out_dir, g)]
        # verbatim chunk rows, ~8 input files per output block
        _rewrite_group(out_dir, session, ngid, gids, files=files,
                       num_blocks=max(1, len(files) // 8), gc=gc,
                       what=f"compact cohort {ngid}")
        compacted += len(gids)
    return {"compacted_groups": compacted, "cohorts": len(cohorts),
            "active_groups": len(active_groups(out_dir))}


def sweep_orphans(out_dir: str) -> dict:
    """Reclaim storage from ABANDONED rewrites: group data dirs and
    meta sidecars with no lineage marker (a rewrite that crashed and
    was never retried — retries clean their own torn state, so these
    only accumulate when the operation is abandoned), shadowed groups
    a ``gc=False`` rewrite left behind, and delete-sidecar dirs whose
    commit marker never landed.  Everything removed is invisible to
    every read path already (readers trust only lineage markers and
    committed delete markers), so this changes no answer — it frees
    bytes.

    Offline maintenance: must not run concurrently with a writer (an
    in-flight rewrite's uncommitted group dir looks exactly like an
    abandoned one).  The 100-TB operational story is a periodic sweep
    between ingest windows, like any LSM/lakehouse GC."""
    from .deletes import DELETES_DIR, committed_deletes
    from .snapshots import pinned_groups

    completed = set(completed_groups(out_dir))
    shadowed = shadowed_groups(out_dir) - pinned_groups(out_dir)
    removed = {"uncommitted_groups": 0, "shadowed_groups": 0,
               "meta_sidecars": 0, "uncommitted_deletes": 0}
    lin_root = os.path.join(out_dir, "_lineage")
    for gid in sorted(shadowed):
        if os.path.exists(os.path.join(lin_root, f"group-{gid}.parquet")) \
                or os.path.isdir(os.path.join(out_dir, "data",
                                              f"group-{gid}")):
            _gc_group(out_dir, gid)
            removed["shadowed_groups"] += 1
    data_root = os.path.join(out_dir, "data")
    if os.path.isdir(data_root):
        for d in sorted(os.listdir(data_root)):
            if not d.startswith("group-"):
                continue
            gid = d[len("group-"):]
            if gid not in completed:
                shutil.rmtree(os.path.join(data_root, d),
                              ignore_errors=True)
                removed["uncommitted_groups"] += 1
    meta = _meta_root(out_dir)
    if os.path.isdir(meta):
        for f in sorted(os.listdir(meta)):
            for suffix in (".files.json", ".supersedes.json"):
                if f.startswith("group-") and f.endswith(suffix):
                    gid = f[len("group-"):-len(suffix)]
                    if gid not in completed:
                        os.remove(os.path.join(meta, f))
                        removed["meta_sidecars"] += 1
    # stray atomic-commit temporaries (_commit_lineage crashed between
    # the parquet write and the rename; ditto the encode_spec.json
    # write)
    if os.path.isdir(lin_root):
        for f in sorted(os.listdir(lin_root)):
            if f.endswith(".parquet.tmp"):
                os.remove(os.path.join(lin_root, f))
                removed["meta_sidecars"] += 1
    if os.path.isdir(meta):
        for f in sorted(os.listdir(meta)):
            if f.endswith(".json.tmp"):
                os.remove(os.path.join(meta, f))
                removed["meta_sidecars"] += 1
    droot = os.path.join(out_dir, DELETES_DIR)
    if os.path.isdir(droot):
        live = set(committed_deletes(out_dir))
        for d in sorted(os.listdir(droot)):
            if d.startswith("del-") and not d.endswith(".json") \
                    and os.path.isdir(os.path.join(droot, d)) \
                    and d[len("del-"):] not in live:
                shutil.rmtree(os.path.join(droot, d), ignore_errors=True)
                removed["uncommitted_deletes"] += 1
    # torn snapshot creates (staged dir never renamed to its final name)
    from .snapshots import SNAP_DIR
    sroot = os.path.join(out_dir, SNAP_DIR)
    if os.path.isdir(sroot):
        for d in sorted(os.listdir(sroot)):
            if d.endswith(".tmp"):
                shutil.rmtree(os.path.join(sroot, d), ignore_errors=True)
                removed["meta_sidecars"] += 1
    # abandoned CDC stages: an apply_changes that crashed before its
    # merge committed leaves a staged parquet no group covers.  (A
    # covered stage is load-bearing — the append-skip resume contract
    # reads coverage by exact path — and stays.)
    stroot = os.path.join(out_dir, "_staged")
    if os.path.isdir(stroot):
        covered = encoded_input_files(out_dir)
        for f in sorted(os.listdir(stroot)):
            p = os.path.join(stroot, f)
            if f.endswith(".tmp") or (
                    f.endswith(".parquet") and p not in covered):
                os.remove(p)
                removed["meta_sidecars"] += 1
    return removed


def decode_corpus(out_dir: str, verify_checksum: bool = True,
                  columns: Optional[Sequence[str]] = None,
                  predicate: Optional[tuple] = None):
    """Read back only committed groups (lineage present) and decode.

    ``columns=[...]`` makes the decode PROJECTED all the way down to
    storage: the plan is read from the lineage manifest and only the
    selected ``colN_payload``/``colN_meta`` parquet columns are read —
    untouched payload streams never leave disk.  ``predicate`` prunes
    whole groups and chunks by the chunk planner before exact
    filtering; predicate columns outside the projection still decode
    for the exact filter (their payloads join the storage read) and
    are dropped from the result.
    """
    return _decode_scoped(out_dir, None, verify_checksum, columns, predicate)


def _decode_scoped(out_dir: str, snapshot: Optional[str], verify_checksum,
                   columns, predicate):
    """decode_corpus, live or as of a snapshot, as one ``scan_chunks``:
    with a predicate, over the chunks the planner leaves; without one,
    over every chunk in scope, with no per-chunk planning.  A task left
    with no rows yields a typed empty."""
    import ray.data as rd

    from ..stages.decode import normalize_predicates
    from . import chunk_plan
    from .pushdown import _typed_empty

    preds = normalize_predicates(predicate)
    if preds:
        plan = chunk_plan.plan_chunks(out_dir, preds, snapshot)
        chunks = plan.proven + plan.maybe
    else:
        plan = chunk_plan.ChunkPlan([], *_scope(out_dir, snapshot))
        chunks = None
    empty = _typed_empty(out_dir, columns)
    if chunks == []:
        return rd.from_arrow(empty)  # nothing to scan: no read job
    sel = None if columns is None else list(columns)

    def fold(ts) -> pa.Table:
        # drops predicate-only columns the exact filter decoded
        return pa.concat_tables([t if sel is None else t.select(sel)
                                 for t in ts] or [empty])

    parts = chunk_plan.scan_chunks(out_dir, plan, chunks, columns, fold,
                                   verify_checksum)
    # a driver-run scan: one block per would-be task, in plan order
    return rd.from_arrow(parts or [empty]) if isinstance(parts, list) \
        else parts


_CHUNK_FILTER_CAP = 20_000
# One decode task's working set, in tokens: a decode+digest call
# allocates several uint64 temporaries over every token it holds.  It
# caps the chunks a Ray task bundles, and a read that fits it whole
# runs in the driver instead of as a Ray Data job (``map_encoded``).
DECODE_TASK_TOKENS = 4_000_000


@dataclass(frozen=True)
class EncodedRead:
    """What a scan reads, whichever executor runs it: the parquet
    ``files`` of each projection (``columns`` None: every column), the
    ``chunk_id`` filter, chunks per task ``cpt``, the Ray read's
    ``nblocks``, and the ``tokens`` it covers (a chunk counts at least
    one token per row, so a scalar-only corpus is not free)."""

    reads: list  # [(files, columns)]
    filter: Optional[pc.Expression]
    cpt: int
    nblocks: int
    tokens: int


def _read_encoded(out_dir: str, columns: Optional[Sequence[str]] = None,
                  groups: Optional[Sequence[str]] = None,
                  chunk_ids: Optional[set] = None) -> EncodedRead:
    """The ``EncodedRead`` of committed-group encoded chunk rows, with
    the lineage-derived chunks-per-task sizing, for the chunk planner's
    scan (every corpus read) and delete_where.

    ``groups`` names the exact COMMITTED group ids to read instead of
    the active set: the planner passes the groups holding candidate
    chunks, and a snapshot's pinned set may include groups a later
    rewrite superseded (still on disk, shadowed).  Ids whose lineage
    marker is gone are skipped.  ``chunk_ids`` restricts the read to
    those chunks' parquet row groups."""
    from ..util import default_concurrency

    lin_root = os.path.join(out_dir, "_lineage")
    group_files: dict = {}
    scoped = active_groups(out_dir) if groups is None else [
        g for g in groups
        if os.path.exists(os.path.join(lin_root, f"group-{g}.parquet"))
    ]
    for gid in scoped:
        fs = _group_files(out_dir, gid)
        if fs:
            group_files[gid] = fs
        # else: a group vacuumed down to zero rows — its (empty)
        # lineage marker exists only to carry the supersedes shadow;
        # there is nothing to read, and the projection probe must not
        # index into its empty manifest
    if not group_files and not active_groups(out_dir):
        raise FileNotFoundError(f"no committed encode groups under {out_dir}")
    # chunk-level IO pruning: payloads live one chunk per parquet row
    # group, so an isin(chunk_id) filter makes point lookups / top-k /
    # sketch fallbacks read bytes proportional to CANDIDATES, not to
    # the surviving groups.  Capped — a huge isin list costs more to
    # evaluate per row group than the reads it saves.
    ids = None
    if chunk_ids is not None and 0 < len(chunk_ids) <= _CHUNK_FILTER_CAP:
        ids = pa.array(sorted(chunk_ids), pa.string())
    # Size chunks-per-task from the lineage chunk count: keep every
    # core busy (4 task waves per core) but never one task per chunk
    # when chunks vastly outnumber cores (millions of tiny tasks at
    # corpus scale = scheduler-bound decode).  Blocks are split to that
    # granularity at the read, and each map_batches call takes cpt
    # chunk rows; Ray does not fuse the read into the decode task (the
    # logged plan shows ReadParquet and MapBatches as two operators).
    n_chunks = total_tokens = tokens = 0
    for gid in group_files:
        lin = lineage_table(out_dir, gid)  # manifest-sized, cached
        n_chunks += lin.num_rows
        total_tokens += int(pc.sum(lin["n_tokens"]).as_py() or 0)
        hit = lin if ids is None else lin.filter(
            pc.is_in(lin["chunk_id"], value_set=ids))
        tokens += int(pc.sum(pc.max_element_wise(
            hit["n_tokens"], hit["n_rows"])).as_py() or 0)
    cpt = min(8, max(1, n_chunks // (4 * default_concurrency())))
    # cap by tokens-per-task, not just chunk count: the task working
    # set is proportional to tokens bundled.  8 chunks was tuned at
    # sf0.1 (~1.7M-token chunks); at 10x scale the same cpt bundles
    # ~16M tokens (~0.5 GB of temporaries) and concurrent tasks thrash
    # memory: measured 185s -> 37s wall at m10 by capping to ~one
    # flagship chunk per task (BASELINE.md r4).
    if n_chunks:
        avg_tok = max(1, total_tokens // n_chunks)
        cpt = max(1, min(cpt, int(DECODE_TASK_TOKENS // avg_tok) or 1))
    n_files = sum(len(fs) for fs in group_files.values())
    # A filtered read is split by its candidate count, not the groups'
    # chunk count: a split past the rows a file yields leaves empty
    # blocks.
    nblocks = max(n_files, ((n_chunks if ids is None else len(ids))
                            + cpt - 1) // cpt)
    # Resolve requested names -> colN parquet indices PER GROUP: groups
    # encoded from different inputs may order or select columns
    # differently, so the first group's plan cannot speak for the rest.
    # Groups sharing a projection list are read together.
    def _proj(gid: str):
        if columns is None:
            return None
        lt = lineage_table(out_dir, gid)
        plan = json.loads(lt["plan_json"][0].as_py())
        missing = set(columns) - set(plan)
        if missing:
            raise KeyError(
                f"columns not in encoded plan of group {gid}: {sorted(missing)}"
            )
        # A projected list column may carry its lengths as a ref to a
        # sibling column; that sibling's payload must ride along
        # PHYSICALLY even when it isn't in the logical projection.
        refs = _ref_targets(out_dir, gid)
        phys = set(columns).union(*(refs.get(plan.index(c), ())
                                    for c in columns))
        return tuple(
            ["fragment", "chunk_id", "n_rows", "checksum", "plan_json"]
            + [c for i, name in enumerate(plan) if name in phys
               for c in (f"col{i}_payload", f"col{i}_meta")]
        )

    by_proj: dict = {}
    for gid, fs in group_files.items():
        by_proj.setdefault(_proj(gid), []).extend(fs)
    return EncodedRead(
        [(fs, None if proj is None else list(proj))
         for proj, fs in by_proj.items()],
        None if ids is None else pc.field("chunk_id").isin(ids),
        cpt, nblocks, tokens)


def map_encoded(read: EncodedRead, part: Callable):
    """``part`` over slices of ``read`` of at most ``read.cpt`` chunk
    rows.  A read that fits one decode task's token budget runs in the
    driver and returns the list of partials, in read order; a larger
    one is the lazy Dataset of a Ray Data job.  Both executors read
    the same files, columns and row groups."""
    if read.tokens <= DECODE_TASK_TOKENS:
        return _map_in_driver(read, part)
    return _map_on_ray(read, part)


def _map_in_driver(read: EncodedRead, part: Callable) -> list:
    out = []
    for files, cols in read.reads:
        for f in files:  # one file at a time: schemas may differ
            t = pq.read_table(f, columns=cols, filters=read.filter)
            out += [part(t.slice(o, read.cpt))
                    for o in range(0, t.num_rows, read.cpt)]
    return out


def _map_on_ray(read: EncodedRead, part: Callable):
    import ray.data as rd

    from ..util import default_concurrency

    fkw = {"filter": read.filter} if read.filter is not None else {}
    n_files = sum(len(fs) for fs, _ in read.reads)
    dss = [rd.read_parquet(
        fs, columns=cols,
        override_num_blocks=max(1, read.nblocks * len(fs) // n_files), **fkw)
        for fs, cols in read.reads]
    ds = dss[0] if len(dss) == 1 else dss[0].union(*dss[1:])
    return ds.map_batches(part, batch_format="pyarrow",
                          batch_size=read.cpt, zero_copy_batch=True,
                          concurrency=default_concurrency())


def decode_digest_corpus(out_dir: str, columns: Sequence[str],
                         verify_checksum: bool = True) -> tuple:
    """(sum, xor, count) digest of the decoded live corpus with decode
    and digest FUSED into one scan: each task folds its decoded tables
    to one ``batch_digest`` row, summed on the driver, so the decoded
    blocks never enter the object store (343 MB/84M tokens at sf0.1
    otherwise round-trips through plasma between the decode and digest
    operators)."""
    from ..stages.verify import batch_digest
    from . import chunk_plan
    from .pushdown import _typed_empty

    cols = list(columns)
    empty = _typed_empty(out_dir, cols)
    plan = chunk_plan.ChunkPlan([], *_scope(out_dir, None))

    def fold(ts) -> pa.Table:
        return pa.table(batch_digest(pa.concat_tables(list(ts) or [empty]),
                                     cols))

    s, x, n = 0, 0, 0
    for part in chunk_plan.partials(chunk_plan.scan_chunks(
            out_dir, plan, None, None, fold, verify_checksum)):
        for d in part.to_pylist():
            s = (s + (d["h_sum"] & 0xFFFFFFFFFFFFFFFF)) % (1 << 64)
            x ^= d["h_xor"] & 0xFFFFFFFFFFFFFFFF
            n += d["n"]
    return s, x, n


def _scope(out_dir: str, snapshot: Optional[str]):
    """(groups, deletes_dir) a read should honor: the live state when
    ``snapshot`` is None, else the pinned group list + the snapshot's
    own mask copy — one helper so every pushdown answers "as of" the
    same way decode_snapshot does."""
    if snapshot is None:
        return None, _deletes_dir_of(out_dir)
    from .snapshots import _manifest, _snap_dir

    m = _manifest(out_dir, snapshot)
    return m["groups"], (
        _snap_dir(out_dir, snapshot) if m["deletes"] else None)


def roundtrip_verify(original_ds, decoded_ds, columns: Sequence[str]) -> dict:
    """Order-insensitive multiset equality of per-row fingerprints
    (the propIsoStream graft at dataset scale)."""
    a = dataset_digest(original_ds, columns)
    b = dataset_digest(decoded_ds, columns)
    return {
        "match": a == b,
        "original": {"sum": a[0], "xor": a[1], "rows": a[2]},
        "decoded": {"sum": b[0], "xor": b[1], "rows": b[2]},
    }
