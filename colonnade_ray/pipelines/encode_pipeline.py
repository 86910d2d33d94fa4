"""End-to-end encode / decode / verify pipelines with per-partition
lineage and exact resume.

Flagship lifecycle (graft of the reference's top entry points traced
in SURVEY.md §3: encodeCsvStreamUtf8 / decodeHeadedCsvUtf8 — header
once per stream ≙ manifest once per partition; row-coordinate errors
≙ lineage records):

    read_parquet(fragments, include_paths=True)
      -> [optional groupby-on-source + size-aware shuffle]
      -> map_batches(encode_batch, batch_format="pyarrow")
                                              # stateless tasks, fused
                                              #   into the read when
                                              #   there is no shuffle
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
from typing import Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.decode import DecodeBatch
from ..stages.encode import encode_batch
from ..stages.skew import (
    DEFAULT_TOKEN_BUDGET,
    PKEY,
    ensure_hash_shuffle_context,
    partition_by_source,
    salt_counts,
    shuffle_method,
    source_token_totals,
)
from ..stages.transport import list_transport_spec, pack_list_columns
from ..stages.verify import dataset_digest

LINEAGE_COLS = [
    "fragment", "chunk_id", "n_rows", "n_tokens",
    "bytes_in", "bytes_out", "checksum", "codecs_json",
    "plan_json", "stats_json",  # column plan + zone maps in the manifest
]
DEFAULT_BATCH_SIZE = 8192


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
    tmp = manifest + ".tmp"
    with open(tmp, "w") as f:
        json.dump(entries, f, indent=1, sort_keys=True)
    os.replace(tmp, manifest)
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
    plan_names: Optional[Sequence[str]] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    transport: Optional[dict] = None,
    fragments: Optional[Sequence[str]] = None,
    post_compress: Optional[str] = None,
    shared_dicts=None,
    bloom_cols: Optional[Sequence[str]] = None,
    hll_cols: Optional[Sequence[str]] = None,
    quantile_cols: Optional[Sequence[str]] = None,
    quantile_k: int = 256,
):
    """Dataset of raw rows -> Dataset of encoded chunk rows (lazy).

    One stateless ``encode_batch`` map: with no exchange upstream it
    fuses into the read task (read -> prep -> encode -> write is one
    task per read block); after the skew shuffle it runs as plain
    tasks over the sorted blocks.  Either way a chunk's bytes depend
    only on its rows.

    ``transport``: spec from ``stages.transport.list_transport_spec``
    when the upstream stage packed list columns for the exchange; the
    encoder widens them back before encoding (bit-transparent).
    """
    frag_names = list(fragments) if fragments else None

    def _encode(b: pa.Table) -> dict:
        if transport:
            from ..stages.transport import unpack_list_columns

            b = unpack_list_columns(b, transport)
        return encode_batch(
            b, list(plan_names) if plan_names else None, frag_names,
            post_compress=post_compress, shared_dicts=shared_dicts,
            bloom_cols=list(bloom_cols) if bloom_cols else None,
            hll_cols=list(hll_cols) if hll_cols else None,
            quantile_cols=list(quantile_cols) if quantile_cols else None,
            quantile_k=quantile_k,
        )

    return ds.map_batches(
        _encode,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


def decode_dataset(enc_ds, verify_checksum: bool = True, concurrency=None,
                   columns: Optional[Sequence[str]] = None,
                   predicate: Optional[tuple] = None,
                   chunks_per_task: int = 1,
                   dict_dirs: Optional[Sequence[str]] = None,
                   deletes_dir: Optional[str] = None):
    """Dataset of encoded chunk rows -> Dataset of original rows (lazy).

    ``columns``: projected decode (only those payload streams decoded,
    per-column checksum verify).  ``predicate``: one (col, op, value)
    clause or a list of clauses AND'd together — zone-map chunk
    pruning per clause + exact post-filter.  ``chunks_per_task``:
    chunks decoded per Ray task — at millions of chunks one task per
    chunk is pure scheduler overhead; ``decode_corpus`` sizes this from
    the lineage chunk count."""
    if concurrency is None:
        from ..util import default_concurrency

        concurrency = default_concurrency()  # cap concurrent heavy tasks
    kwargs = {"concurrency": concurrency}
    # stateless -> plain tasks; dict_dirs: shared-dict search roots
    # registered in each worker (meta path hints cover the common case)
    fn = DecodeBatch(verify_checksum, columns, predicate, dict_dirs=dict_dirs,
                     deletes_dir=deletes_dir)
    return enc_ds.map_batches(
        lambda b: fn(b),
        batch_format="pyarrow",
        batch_size=max(1, chunks_per_task),
        zero_copy_batch=True,
        **kwargs,
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
    ``cluster_by`` (same zero-exchange contract: the sort fuses into
    the read task; a global Z-order would be an all-to-all and is
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
    batch_size: int = DEFAULT_BATCH_SIZE,
    partition_by: Optional[str] = None,   # "source" enables the skew shuffle
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    group_size: Optional[int] = None,     # fragments per commit group; None = one group
    resume: bool = True,
    max_concurrent_groups: int = 1,
    transport: bool = True,
    append: bool = False,
    post_compress: Optional[str] = None,
    cluster_by: Optional[str | Sequence[str]] = None,  # list => Z-order
    shared_dicts: bool = True,
    bloom_cols: Optional[Sequence[str] | str] = "auto",
    hll_cols: Optional[Sequence[str]] = None,
    quantile_cols: Optional[Sequence[str]] = None,
    quantile_k: int = 256,
) -> dict:
    """Encode a parquet corpus to out_dir with lineage + exact resume.

    ``shared_dicts``: run the deterministic dictionary pre-pass
    (``train_shared_dicts``) and broadcast the tables into every
    encode task — chunks then store ranks + extras instead of a
    per-chunk dictionary (codecs/shared_dict.py).

    Groups are independent pipelines (own read -> shuffle -> encode ->
    write -> commit marker); ``max_concurrent_groups > 1`` runs them
    from driver threads so small commit groups don't serialize the
    cluster (the DESIGN.md scale path — Ray's streaming executor
    multiplexes concurrent Dataset executions).

    Returns a summary dict (chunks, rows, tokens, bytes_in/out).
    """
    import ray.data as rd

    files = _list_input_files(inputs)
    # bloom default (round-5 A/B in BASELINE.md): on a CLUSTERED
    # layout the non-cluster columns' zone bands widen to block range
    # — exactly when a point lookup needs the Bloom filter (measured
    # 9 -> 3 may-match chunks at ~0.1% disk, encode wall unchanged).
    # "auto" = the leading id-like (string/int) non-cluster column
    # when cluster_by is set; unclustered layouts keep bands narrow
    # on the natural order and stay bloom-free by default.
    if isinstance(bloom_cols, str):
        if bloom_cols != "auto":
            raise ValueError(
                f"bloom_cols must be a list of columns, None, or "
                f"'auto' — got {bloom_cols!r}")
        bloom_cols = (_auto_bloom_cols(files, cluster_by)
                      if cluster_by is not None and files else None)
    data_root = os.path.join(out_dir, "data")
    lin_root = os.path.join(out_dir, "_lineage")
    os.makedirs(data_root, exist_ok=True)
    os.makedirs(lin_root, exist_ok=True)
    # Fresh encode (not append, no committed groups to resume) REPLACES
    # the sketch config; append / resume unions so already-committed
    # groups keep their recorded sketches honored.
    _continuing = append or (resume and bool(completed_groups(out_dir)))
    record_sketch_cols(out_dir, bloom_cols, hll_cols,
                       quantile_cols=quantile_cols,
                       quantile_k=quantile_k, union=_continuing)

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
    if shared_dicts:
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
        if partition_by == "source" and shuffle_method() == "hash":
            ensure_hash_shuffle_context()  # must precede read_parquet
        ds = rd.read_parquet(g, include_paths=True, override_num_blocks=nblocks)
        # Transport narrowing: pack integer list columns to their
        # footer-proven minimal width BEFORE anything leaves the read
        # task (the pack map fuses into ReadParquet), so every
        # object-store / shuffle hop moves the narrow form; the encoder
        # task widens back.  Halves exchange bytes on 16-bit vocabs.
        spec = (
            list_transport_spec(g)
            if transport and plan_names is None  # explicit plans may rename/retype
            else {}
        )
        # One fused prep map (runs inside the read task): transport
        # narrowing + path string -> int32 fragment ordinal, so the
        # exchange never carries a ~50 B/row path column just to label
        # lineage.
        frag_names = [os.path.basename(f) for f in g]
        frag_idx = {f: i for i, f in enumerate(g)}
        ds = ds.map_batches(
            lambda b: _prep_batch(b, spec, frag_idx),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if cluster_by is not None:
            # Block-local clustering: sort each READ BLOCK by the
            # column before batch_size slices it into chunks — zero
            # exchange (the sort fuses into the read task), but every
            # chunk's zone band narrows to a block-local value range,
            # which is what makes count_where / aggregate_where /
            # selective decode prove most chunks from metadata.  The
            # classic zone-map layout lever (file-local ORDER BY);
            # a GLOBAL sort would be an all-to-all — deliberately not
            # this knob.  A list of column NAMES Z-orders (Morton
            # interleave of block-local ranks — bands narrow on every
            # column at once, see _zorder_sort); a list of
            # (name, "ascending"/"descending") TUPLES sorts
            # lexicographically (pyarrow sort_by form — the layout for
            # hierarchical access like grouped_topk_where, where
            # chunks should be single-GROUP and value-ordered WITHIN
            # the group).
            if isinstance(cluster_by, str):
                sort_fn = lambda b: b.sort_by(cluster_by)  # noqa: E731
            elif all(isinstance(c, (tuple, list)) for c in cluster_by):
                keys = [tuple(c) for c in cluster_by]
                sort_fn = lambda b: b.sort_by(keys)  # noqa: E731
            elif all(isinstance(c, str) for c in cluster_by):
                zcols = list(cluster_by)
                sort_fn = lambda b: _zorder_sort(b, zcols)  # noqa: E731
            else:
                # Mixed forms would reach _zorder_sort with a tuple as
                # a column name and die in an opaque KeyError — reject
                # up front, naming the offender.
                bad = next(c for c in cluster_by
                           if not isinstance(c, str))
                raise ValueError(
                    "cluster_by must be a column name, a list of column"
                    " names (Z-order), or a list of (name, order)"
                    f" tuples (lexicographic) — got mixed entry {bad!r}"
                    f" in {list(cluster_by)!r}")
            ds = ds.map_batches(
                sort_fn,
                batch_format="pyarrow", batch_size=None,
                zero_copy_batch=True,
            )
        if partition_by == "source":
            totals = source_token_totals(g)
            ds = partition_by_source(ds, salt_counts(totals, token_budget))
            ds = ds.drop_columns([PKEY])
        # Stateless tasks on every path: without an exchange the whole
        # chain read -> prep -> encode -> write fuses into ONE task per
        # read block — no actor pool to starve behind read/write tasks,
        # no object-store hop for the raw rows, elastic scheduling.
        # Measured on 8 pinned vCPUs the raw kernel runs 72M tok/s
        # 6-way while an actor-pool encode read 32M: the pool was the
        # bottleneck, not the codec.
        enc = encode_dataset(
            ds, plan_names, batch_size,
            transport=spec or None, fragments=frag_names,
            post_compress=post_compress, shared_dicts=sd_ref,
            bloom_cols=bloom_cols, hll_cols=hll_cols,
            quantile_cols=quantile_cols, quantile_k=quantile_k,
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


def record_sketch_cols(out_dir: str, bloom_cols, hll_cols,
                       quantile_cols=None, quantile_k: int = 256,
                       union: bool = True) -> None:
    """Persist which columns carry per-chunk Bloom / HLL sketches so
    lifecycle REWRITES (vacuum, update_where) can re-derive them for
    the chunks they re-encode instead of silently dropping them —
    pruning quality then survives the lifecycle instead of decaying.
    Advisory config (tmp+rename; a crash that loses it only degrades
    to the old conservative drop-the-sketch behavior).

    ``union=True`` merges into any existing config (append / resume of
    an in-flight encode — groups already committed with the old
    sketches stay honored).  ``union=False`` REPLACES the config with
    exactly the requested columns — the fresh-encode path, so a reused
    out_dir or a dropped sketch column doesn't leave stale config that
    every future vacuum/update rewrite keeps paying for."""
    cur = sketch_cols(out_dir)
    if union:
        new = {"bloom_cols": sorted(set(cur.get("bloom_cols", []))
                                    | set(bloom_cols or [])),
               "hll_cols": sorted(set(cur.get("hll_cols", []))
                                  | set(hll_cols or [])),
               "quantile_cols": sorted(set(cur.get("quantile_cols", []))
                                       | set(quantile_cols or [])),
               "quantile_k": max(int(cur.get("quantile_k", 0)),
                                 int(quantile_k))}
    else:
        new = {"bloom_cols": sorted(set(bloom_cols or [])),
               "hll_cols": sorted(set(hll_cols or [])),
               "quantile_cols": sorted(set(quantile_cols or [])),
               "quantile_k": int(quantile_k)}
    if not new["quantile_cols"]:
        new.pop("quantile_cols")
        new.pop("quantile_k")
    path = os.path.join(_meta_root(out_dir), "sketch_cols.json")
    if not new.get("bloom_cols") and not new.get("hll_cols") \
            and not new.get("quantile_cols"):
        if not union and cur:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return
    if new == cur:
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(new, fh)
    os.replace(tmp, path)


def sketch_cols(out_dir: str) -> dict:
    path = os.path.join(out_dir, "_meta", "sketch_cols.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


_LIN_CACHE: dict = {}
_LIN_CACHE_CAP = 1024


def lineage_table(out_dir: str, gid: str) -> pa.Table:
    """One group's lineage marker, process-cached by (path, mtime_ns,
    size) — a pushdown reads each manifest once per query for
    pruning, once for task sizing, once for projection resolution,
    and the driver repeats that per query; at 1e5 groups those
    re-reads dominate driver time.  The identity key makes the cache
    crash/rewrite-safe for free: markers only ever change by
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
    t = pq.read_table(path)
    _LIN_CACHE[key] = t
    while len(_LIN_CACHE) > _LIN_CACHE_CAP:
        _LIN_CACHE.pop(next(iter(_LIN_CACHE)))
    return t


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
                   concurrency=None, what: str = "rewrite") -> list:
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
    rewritten to zero chunk rows still commits (an empty lineage
    marker typed from the source schema) so its shadow lands.
    Returns the shadow."""
    import ray.data as rd

    if files is None:
        files = [f for g in sources for f in _group_files(out_dir, g)]
    gdir = os.path.join(out_dir, "data", f"group-{ngid}")
    if os.path.exists(gdir):
        shutil.rmtree(gdir)  # torn rewrite from a previous run
    os.makedirs(gdir)
    ds = rd.read_parquet(files,
                         override_num_blocks=num_blocks or max(1, len(files)))
    if rewriter is not None:
        ds = ds.map_batches(rewriter, batch_format="pyarrow", batch_size=4,
                            zero_copy_batch=True, concurrency=concurrency)
    ds.write_parquet(gdir, compression="none", row_group_size=1)
    if any(f.endswith(".parquet") for f in os.listdir(gdir)):
        lineage = pq.read_table(gdir, columns=LINEAGE_COLS)
    else:
        src = pq.read_schema(files[0])
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
    # the parquet write and the rename; ditto the advisory
    # sketch_cols.json config write)
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


def decode_corpus(out_dir: str, verify_checksum: bool = True, concurrency=None,
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
    return _decode_scoped(out_dir, None, verify_checksum, concurrency,
                          columns, predicate)


def _decode_scoped(out_dir: str, snapshot: Optional[str], verify_checksum,
                   concurrency, columns, predicate):
    """decode_corpus, live or as of a snapshot: with a predicate, only
    the groups and chunks the planner leaves are read."""
    from ..stages.decode import normalize_predicates, predicate_columns

    preds = normalize_predicates(predicate)
    if preds:
        from .chunk_plan import plan_chunks, read_chunks

        read_cols = columns if columns is None else list(dict.fromkeys(
            list(columns) + predicate_columns(preds)))
        plan = plan_chunks(out_dir, preds, snapshot)
        enc, cpt = read_chunks(out_dir, plan, plan.proven + plan.maybe,
                               read_cols, concurrency)
        deletes_dir = plan.deletes_dir
    else:
        groups, deletes_dir = _scope(out_dir, snapshot)
        enc, cpt = _read_encoded(out_dir, columns, concurrency, groups=groups)
    return decode_dataset(enc, verify_checksum=verify_checksum,
                          concurrency=concurrency, columns=columns,
                          predicate=predicate, chunks_per_task=cpt,
                          dict_dirs=[out_dir], deletes_dir=deletes_dir)


_CHUNK_FILTER_CAP = 20_000


def _read_encoded(out_dir: str, columns: Optional[Sequence[str]] = None,
                  concurrency=None, groups: Optional[Sequence[str]] = None,
                  chunk_ids: Optional[set] = None):
    """Committed-group encoded chunk rows as a Dataset, plus the
    lineage-derived chunks-per-task sizing.  Shared by decode_corpus,
    the fused digest path and the chunk planner's scan.

    ``groups`` names the exact COMMITTED group ids to read instead of
    the active set: the planner passes the groups holding candidate
    chunks, and a snapshot's pinned set may include groups a later
    rewrite superseded (still on disk, shadowed).  Ids whose lineage
    marker is gone are skipped.  ``chunk_ids`` restricts the read to
    those chunks' parquet row groups."""
    import ray.data as rd

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
    files = [f for fs in group_files.values() for f in fs]
    if not files:
        if active_groups(out_dir):
            # every group pruned away — or vacuumed to zero rows: a
            # valid empty result, not an error
            return rd.from_items([]), 1
        raise FileNotFoundError(f"no committed encode groups under {out_dir}")
    # Size chunks-per-task from the lineage chunk count: keep every
    # core busy (4 task waves per core) but never one task per chunk
    # when chunks vastly outnumber cores (millions of tiny tasks at
    # corpus scale = scheduler-bound decode).  Blocks are split to that
    # granularity at the READ: Ray fuses read -> decode -> downstream
    # into one task chain, so decode parallelism equals read-block
    # count, not chunk count.
    from ..util import default_concurrency

    n_chunks = 0
    total_tokens = 0
    for gid in group_files:
        lin = lineage_table(out_dir, gid)  # manifest-sized, cached
        n_chunks += lin.num_rows
        total_tokens += int(pc.sum(lin["n_tokens"]).as_py() or 0)
    eff = concurrency if concurrency is not None else default_concurrency()
    cpt = min(8, max(1, n_chunks // (4 * max(eff, 1))))
    # cap by tokens-per-task, not just chunk count: a decode+digest
    # call allocates several uint64 temporaries over every token in
    # the call, so task working set is proportional to tokens bundled.
    # 8 chunks was tuned at sf0.1 (~1.7M-token chunks); at 10x scale
    # the same cpt bundles ~16M tokens (~0.5 GB of temporaries) and
    # concurrent tasks thrash memory: measured 185s -> 37s wall at m10
    # by capping to ~one flagship chunk per task (BASELINE.md r4).
    if n_chunks:
        avg_tok = max(1, total_tokens // n_chunks)
        cpt = max(1, min(cpt, int(4_000_000 // avg_tok) or 1))
    nblocks = max(len(files), (n_chunks + cpt - 1) // cpt)
    # chunk-level IO pruning: payloads live one chunk per parquet row
    # group, so an isin(chunk_id) filter makes point lookups / top-k /
    # sketch fallbacks read bytes proportional to CANDIDATES, not to
    # the surviving groups.  Capped — a huge isin list costs more to
    # evaluate per row group than the reads it saves.
    flt = None
    if chunk_ids is not None and 0 < len(chunk_ids) <= _CHUNK_FILTER_CAP:
        flt = pc.field("chunk_id").isin(sorted(chunk_ids))
    fkw = {"filter": flt} if flt is not None else {}
    if columns is None:
        enc = rd.read_parquet(files, override_num_blocks=nblocks, **fkw)
    else:
        # Resolve requested names -> colN parquet indices PER GROUP:
        # groups encoded from different inputs may order or select
        # columns differently, so the first group's plan cannot speak
        # for the rest.  Groups sharing a projection list are read
        # together; differing plans get their own read, unioned.
        def _proj(gid: str) -> tuple:
            lt = lineage_table(out_dir, gid)
            plan = json.loads(lt["plan_json"][0].as_py())
            missing = set(columns) - set(plan)
            if missing:
                raise KeyError(
                    f"columns not in encoded plan of group {gid}: {sorted(missing)}"
                )
            # A projected list column may carry its lengths as a ref to
            # a sibling column (stages/encode.py _lengths_ref_hints);
            # that sibling's payload must ride along PHYSICALLY even
            # when it isn't in the logical projection.  Per-chunk
            # fallback means refs can differ across chunks of a group,
            # so union the targets over every lineage row (manifest-
            # sized scan, no data read).
            phys = set(columns)
            pos = {name: i for i, name in enumerate(plan)}
            want_idx = {pos[c] for c in columns}
            for cj in lt["codecs_json"].to_pylist():
                for i, entry in enumerate(json.loads(cj)):
                    if i in want_idx:
                        lc = entry.get("lengths", "")
                        if isinstance(lc, str) and lc.startswith("ref:"):
                            phys.add(lc[4:])
            return tuple(
                ["fragment", "chunk_id", "n_rows", "checksum", "plan_json", "stats_json"]
                + [
                    c
                    for i, name in enumerate(plan)
                    if name in phys
                    for c in (f"col{i}_payload", f"col{i}_meta")
                ]
            )

        by_proj: dict = {}
        for gid, fs in group_files.items():
            by_proj.setdefault(_proj(gid), []).extend(fs)
        reads = [
            rd.read_parquet(fs, columns=list(proj),
                            override_num_blocks=max(1, nblocks * len(fs) // len(files)),
                            **fkw)
            for proj, fs in by_proj.items()
        ]
        enc = reads[0] if len(reads) == 1 else reads[0].union(*reads[1:])
    return enc, cpt


def decode_digest_corpus(out_dir: str, columns: Sequence[str],
                         verify_checksum: bool = True, concurrency=None) -> tuple:
    """(sum, xor, count) digest of the decoded corpus with decode and
    digest FUSED into one UDF: the decoded blocks never enter the
    object store (343 MB/84M tokens at sf0.1 otherwise round-trips
    through plasma between the decode and digest operators)."""
    from ..stages.verify import batch_digest
    from ..util import default_concurrency

    enc, cpt = _read_encoded(out_dir, None, concurrency)
    fn = DecodeBatch(verify_checksum, dict_dirs=[out_dir],
                     deletes_dir=_deletes_dir_of(out_dir))
    cols = list(columns)
    if concurrency is None:
        concurrency = default_concurrency()
    digests = enc.map_batches(
        lambda b: batch_digest(fn(b), cols),
        batch_format="pyarrow",
        batch_size=max(1, cpt),
        zero_copy_batch=True,
        concurrency=concurrency,
    ).take_all()
    s, x, n = 0, 0, 0
    for d in digests:
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
    from .chunk_plan import plan_chunks, scan_chunks

    if not normalize_predicates(predicate):
        raise ValueError("count_where needs at least one predicate; "
                         "use corpus_summary()['rows'] for the total")
    plan = plan_chunks(out_dir, predicate, snapshot)
    # every row matches -> deleting d leaves n - d matches: the
    # metadata answer stays EXACT under deletions
    total = sum(c.n_live for c in plan.proven)
    if plan.maybe:
        ds = scan_chunks(out_dir, plan, plan.maybe, [], lambda ts: pa.table(
            {"c": pa.array([sum(t.num_rows for t in ts)], pa.int64())}),
            concurrency)
        total += int(ds.sum("c") or 0)
    return total


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
    from .chunk_plan import plan_chunks, scan_chunks

    if agg not in ("min", "max", "sum"):
        raise ValueError(f"unsupported agg {agg!r}")
    plan = plan_chunks(out_dir, predicate, snapshot)

    def _meta_answer(stats: dict):
        """Metadata answer for a chunk where ALL rows are in scope, or
        None when this chunk must decode."""
        if col not in stats:
            return None
        if agg == "sum":
            if plan.preds and stats.get("__nulls__", {}).get(col):
                return None  # a null row may sit inside the band
            return stats.get("__sums__", {}).get(col)  # None: decode
        lo, hi = stats[col]
        return lo if agg == "min" else hi

    vals, scan = [], list(plan.maybe)
    for c in plan.proven:
        # a chunk with ANY deleted rows can't answer from metadata:
        # its zone bounds / __sums__ include the deleted rows
        a = _meta_answer(c.stats) if c.dmask is None else None
        if a is None:
            scan.append(c)
        else:
            vals.append(a)
    if scan:
        fn = {"min": pc.min, "max": pc.max, "sum": pc.sum}[agg]

        def fold(ts) -> pa.Table:
            # per-chunk partials travel as JSON strings: int sums stay
            # exact (no float64 round-trip past 2^53)
            vs = [fn(t[col]).as_py() for t in ts]
            return pa.table({"v": pa.array(
                [json.dumps(v) for v in vs if v is not None], pa.string())})

        vals += [json.loads(r["v"]) for r in scan_chunks(
            out_dir, plan, scan, [col], fold, concurrency).take_all()]
    if not vals:
        return None
    if agg == "min":
        return min(vals)
    if agg == "max":
        return max(vals)
    return sum(vals)


def corpus_column_types(out_dir: str) -> dict:
    """Decoded Arrow type of every column, read from ONE chunk's codec
    metadata (plan_json + colN_meta of the first committed chunk) —
    no payload decode.  Lets the pushdowns build TYPED empty results
    when pruning or predicates eliminate every chunk, so downstream
    ``pa.concat_tables`` with typed non-empty tables doesn't fail on
    null-typed schemas.  Returns {} on an empty corpus."""
    from ..codecs.columns import desc_to_type

    gids = active_groups(out_dir)
    if not gids:
        return {}
    gdir = os.path.join(out_dir, "data", f"group-{gids[0]}")
    try:
        f = next(os.path.join(gdir, p) for p in sorted(os.listdir(gdir))
                 if p.endswith(".parquet"))
        pf = pq.ParquetFile(f)
        meta_cols = [c for c in pf.schema_arrow.names
                     if c == "plan_json" or c.endswith("_meta")]
        head = pf.read_row_group(0, columns=meta_cols)
    except (StopIteration, OSError, IndexError):
        return {}
    if "plan_json" not in head.column_names or len(head) == 0:
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
    ``columns``; each task emits a local top-k partial and the ≤ k ×
    tasks survivor rows merge on the driver.  Ties at rank k resolve
    by ``tie_cols`` (pass them for deterministic output).  Rows with a
    null ``col`` never rank (SQL NULLS LAST ∩ LIMIT semantics).
    ``predicate`` AND-filters rows before ranking (zone-pruned like
    count_where).  ``snapshot=`` answers as of a named snapshot."""
    from .chunk_plan import plan_chunks, scan_chunks

    plan = plan_chunks(out_dir, predicate, snapshot)
    out_cols = list(dict.fromkeys([col, *tie_cols, *(columns or [])]))
    # phase 1: bound T on the k-th value from zone bands alone
    cands = []  # (far_bound, near_bound, n_live_nonnull, chunk)
    for proven, chunks in ((True, plan.proven), (False, plan.maybe)):
        for c in chunks:
            n_live = c.n_live
            if n_live <= 0:
                continue
            band = c.stats.get(col)
            if band is None:
                # no zone band (old format): must always decode
                cands.append((None, None, 0, c))
                continue
            # unknown null count: contribute 0 to the accumulation
            # (conservative — keeps T a true lower bound); the chunk
            # still decodes if its band reaches T.  Only PROVEN chunks
            # may contribute — a may-match chunk's rows aren't
            # guaranteed to survive the filter, so counting them would
            # overstate acc and push T past the true k-th passing
            # value.  A column absent from a present __nulls__ table
            # has zero nulls (decode.py convention).
            nt = c.stats.get("__nulls__")
            n_nonnull = max(0, n_live - int(nt.get(col, 0))) \
                if proven and nt is not None else 0
            lo, hi = band
            near, far = (hi, lo) if descending else (lo, hi)
            cands.append((far, near, n_nonnull, c))
    if not cands:
        empty = _typed_empty(out_dir, out_cols)
        if return_stats:
            return empty, {"chunks_total": 0, "chunks_candidate": 0,
                           "groups_total": len(plan.groups),
                           "groups_candidate": 0, "threshold": None}
        return empty

    banded = sorted((c for c in cands if c[0] is not None),
                    key=lambda c: c[0], reverse=descending)
    T = None
    acc = 0
    for far, _near, nn, _c in banded:
        acc += nn
        if acc >= k:
            T = far  # k rows each ≥ (≤) this chunk's far bound
            break

    def reaches(c):
        if c[1] is None or T is None:
            return True  # bandless chunk / no bound provable: decode
        return (c[1] >= T) if descending else (c[1] <= T)

    reaching = [c[3] for c in cands if reaches(c)]
    stats_out = {"chunks_total": len(cands),
                 "chunks_candidate": len(reaching),
                 "groups_total": len(plan.groups),
                 "groups_candidate": len({c.gid for c in reaching}),
                 "threshold": T}
    order = [(col, "descending" if descending else "ascending")] + [
        (c, "ascending") for c in tie_cols
    ]
    empty_block = _typed_empty(out_dir, out_cols)

    def fold(ts) -> pa.Table:
        parts = [t.filter(pc.is_valid(t[col])).select(out_cols) for t in ts]
        parts = [t for t in parts if t.num_rows]
        if not parts:
            return empty_block
        t = pa.concat_tables(parts)
        return t.take(pc.sort_indices(t, sort_keys=order)[:k])

    ds = scan_chunks(out_dir, plan, reaching, out_cols, fold, concurrency)
    # ≤ k rows per decode task survive; merge them Arrow-native so
    # dtypes round-trip exactly (take_all's dict rows would re-infer)
    blocks = [b for b in ds.iter_batches(batch_format="pyarrow",
                                         batch_size=None)
              if b.num_columns and b.num_rows]
    if not blocks:
        empty = _typed_empty(out_dir, out_cols)
        return (empty, stats_out) if return_stats else empty
    merged = pa.concat_tables(blocks, promote_options="default")
    res = merged.take(pc.sort_indices(merged, sort_keys=order)[:k])
    return (res, stats_out) if return_stats else res


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
    import base64

    import numpy as np

    from ..stages.bloomzone import (
        HLL_P,
        hash_into_hll,
        hll_estimate,
        hll_registers,
    )
    from .chunk_plan import plan_chunks, scan_chunks

    plan = plan_chunks(out_dir, predicate, snapshot)
    regs = np.zeros(1 << HLL_P, dtype=np.uint8)
    scan = list(plan.maybe)
    for c in plan.proven:
        he = c.stats.get("__hll__", {}).get(col)
        if he is not None and he.get("p") == HLL_P and c.dmask is None:
            regs = np.maximum(regs, hll_registers(he))
        else:
            scan.append(c)
    n_sketched = len(plan.proven) + len(plan.maybe) - len(scan)

    if scan:
        def fold(ts) -> pa.Table:
            r = np.zeros(1 << HLL_P, dtype=np.uint8)
            for t in ts:
                r = hash_into_hll(t[col], r)
            return pa.table({"regs": pa.array(
                [base64.b64encode(r.tobytes()).decode()])})

        for d in scan_chunks(out_dir, plan, scan, [col], fold,
                             concurrency).take_all():
            regs = np.maximum(regs, np.frombuffer(
                base64.b64decode(d["regs"]), dtype=np.uint8))

    est = float(hll_estimate(regs))
    if return_stats:
        return est, {"chunks_total": len(plan.proven) + len(plan.maybe),
                     "chunks_sketched": n_sketched,
                     "chunks_scanned": len({c.key for c in scan})}
    return est


def _quant_grid(qe: dict) -> tuple:
    """A stored ``__quant__`` entry -> (int64 grid, weight per point)."""
    import numpy as np

    s = np.asarray(qe["s"], dtype=np.int64)
    return s, qe["n"] / len(s)


def _require_int_column(out_dir: str, col: str) -> None:
    """Quantile grids exist for integer columns only; a float column
    would be truncated by the int64 merge, so it is refused."""
    t = corpus_column_types(out_dir).get(col)
    if t is not None and not pa.types.is_integer(t):
        raise ValueError(
            f"approx quantiles need an integer column; {col!r} is {t}")


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
    import numpy as np

    from ..stages.bloomzone import merge_quant_grids
    from .chunk_plan import plan_chunks, scan_chunks

    qs = list(qs)
    if any(not (0.0 <= q <= 1.0) for q in qs):
        raise ValueError(f"quantiles must be in [0, 1]: {qs!r}")
    _require_int_column(out_dir, col)
    plan = plan_chunks(out_dir, predicate, snapshot)
    grids = []          # (np values, weight per point)
    scan = list(plan.maybe)
    for c in plan.proven:
        qe = c.stats.get("__quant__", {}).get(col)
        if qe is not None and c.dmask is None:
            grids.append(_quant_grid(qe))
        else:
            scan.append(c)
    n_sketched = len(grids)

    if scan:
        def fold(ts) -> pa.Table:
            vals = [t[col].drop_null().to_numpy(zero_copy_only=False)
                    for t in ts]
            out = (np.concatenate(vals).astype(np.int64)
                   if vals else np.zeros(0, np.int64))
            return pa.table({"v": pa.array(out, pa.int64())})

        for b in scan_chunks(out_dir, plan, scan, [col], fold, concurrency
                             ).iter_batches(batch_format="pyarrow",
                                            batch_size=None):
            if b.num_rows:
                grids.append((b["v"].to_numpy(zero_copy_only=False), None))

    res = merge_quant_grids(grids, qs)
    if return_stats:
        return res, {"chunks_total": len(plan.proven) + len(plan.maybe),
                     "chunks_sketched": n_sketched,
                     "chunks_scanned": len({c.key for c in scan})}
    return res


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
    import numpy as np
    import pandas as pd

    from ..stages.bloomzone import merge_quant_grids
    from .chunk_plan import plan_chunks, scan_chunks, single_group

    qs = list(qs)
    if any(not (0.0 <= q <= 1.0) for q in qs):
        raise ValueError(f"quantiles must be in [0, 1]: {qs!r}")
    _require_int_column(out_dir, col)
    plan = plan_chunks(out_dir, None, snapshot)
    grids: dict = {}     # group key (str) -> [(values, weight)]
    scan = []
    for c in plan.proven:
        g = single_group(c.stats, group_col)
        qe = c.stats.get("__quant__", {}).get(col)
        if g is not None and qe is not None and c.dmask is None:
            grids.setdefault(str(g), []).append(_quant_grid(qe))
        else:
            scan.append(c)
    n_sketched = len(plan.proven) - len(scan)

    if scan:
        def fold(ts) -> pa.Table:
            gs, vs = [], []
            for t in ts:
                t = t.filter(pc.and_(pc.is_valid(t[group_col]),
                                     pc.is_valid(t[col])))
                if t.num_rows:
                    gs += [str(x) for x in t[group_col].to_pylist()]
                    vs.append(t[col].to_numpy(zero_copy_only=False)
                              .astype(np.int64))
            return pa.table({
                "g": pa.array(gs, pa.string()),
                "v": pa.array(np.concatenate(vs) if vs
                              else np.zeros(0, np.int64), pa.int64()),
            })

        df = scan_chunks(out_dir, plan, scan, [group_col, col], fold,
                         concurrency).to_pandas()
        if not df.empty:
            for g, sub in df.groupby("g"):
                grids.setdefault(str(g), []).append(
                    (sub["v"].to_numpy(), None))

    rows = {"q": [], "value": [], group_col: []}
    for g in sorted(grids):
        vals = merge_quant_grids(grids[g], qs)
        for q, v in zip(qs, vals):
            rows[group_col].append(g)
            rows["q"].append(float(q))
            rows["value"].append(v)
    out = pd.DataFrame(rows)[[group_col, "q", "value"]]
    out["value"] = out["value"].astype("int64") \
        if out["value"].notna().all() and len(out) else out["value"]
    out = out.sort_values([group_col, "q"]).reset_index(drop=True)
    if return_stats:
        return out, {"chunks_sketched": n_sketched,
                     "chunks_scanned": len({c.key for c in scan})}
    return out


def _group_partials(meta: dict, scan, max_driver_groups: int, aggs):
    """Per-group partial rows of a grouped pushdown as one pandas
    frame: the metadata answers (``meta``: column -> list, computed on
    the driver) plus the scan's per-task partials.  Driver-small scan
    results (≤ max_driver_groups partial rows ≈ tasks × groups) come
    over as they are; above the guard they are pre-merged by a
    distributed Ray groupby over the partials Dataset (never the
    corpus) — mirroring relational._lattice_levels_distributed — so
    the driver only receives groups-sized frames.  The caller folds
    the result with one pandas groupby."""
    import pandas as pd

    frames = [pa.table(meta).to_pandas()]
    if scan is not None:
        scan = scan.materialize()
        if scan.count() > max_driver_groups:
            frames.append(scan.groupby("g").aggregate(*aggs).to_pandas())
        else:
            frames.append(scan.to_pandas())
    return pd.concat([f for f in frames if len(f)] or frames[:1],
                     ignore_index=True)


def group_counts(out_dir: str, group_col: str,
                 value_col: Optional[str] = None, concurrency=None,
                 snapshot: Optional[str] = None,
                 max_driver_groups: int = 100_000):
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
    (only non-null groups are counted).  ``snapshot=`` answers as of
    a named snapshot."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .chunk_plan import plan_chunks, scan_chunks, single_group

    cols = [group_col] + ([value_col] if value_col else [])
    plan = plan_chunks(out_dir, None, snapshot)
    meta = {"g": [], "n": [], "s": []}
    scan = []
    for c in plan.proven:
        g = single_group(c.stats, group_col)
        ssum = c.stats.get("__sums__", {}).get(value_col) \
            if value_col else None
        if g is not None and c.dmask is None and \
                (value_col is None or ssum is not None):
            n, s = c.n_rows, int(ssum or 0)
        elif g is not None and value_col is None:
            # single-group chunk: counts stay metadata-exact under
            # deletions (n_rows - n_deleted); sums must decode
            n, s = c.n_live, 0
        else:
            scan.append(c)
            continue
        meta["g"].append(str(g))
        meta["n"].append(n)
        meta["s"].append(s)
    meta = {"g": pa.array(meta["g"], pa.string()),
            "n": pa.array(meta["n"], pa.int64()),
            "s": pa.array(meta["s"], pa.int64())}

    def fold(ts) -> pa.Table:
        agg: dict = {}
        for t in ts:
            gv = t[group_col].to_pandas()
            if value_col:
                vv = pd.Series(t[value_col].to_pandas()).fillna(0)
                sums = vv.groupby(gv).sum()
                counts = gv.groupby(gv).size()
                for g in counts.index:
                    cur = agg.setdefault(g, [0, 0])
                    cur[0] += int(counts[g])
                    cur[1] += int(sums[g])
            else:
                for g, n in gv.value_counts().items():
                    agg.setdefault(g, [0, 0])[0] += int(n)
        ks = sorted(agg)
        return pa.table({
            "g": pa.array([str(k) for k in ks], pa.string()),
            "n": pa.array([agg[k][0] for k in ks], pa.int64()),
            "s": pa.array([agg[k][1] for k in ks], pa.int64()),
        })

    df = _group_partials(
        meta, scan_chunks(out_dir, plan, scan, cols, fold, concurrency)
        if scan else None, max_driver_groups,
        [Sum("n", alias_name="n"), Sum("s", alias_name="s")])
    out = df.groupby("g", as_index=False).agg(n_rows=("n", "sum"),
                                              s=("s", "sum"))
    out = out.rename(columns={"g": group_col})
    if value_col:
        out = out.rename(columns={"s": f"sum_{value_col}"})
    else:
        out = out.drop(columns=["s"])
    return out.sort_values(group_col).reset_index(drop=True)


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
    from .chunk_plan import plan_chunks, scan_chunks

    plan = plan_chunks(out_dir, predicate, snapshot)
    n = s = 0
    mns, mxs = [], []
    scan = list(plan.maybe)
    for c in plan.proven:
        band = c.stats.get(col)
        ssum = c.stats.get("__sums__", {}).get(col)
        if (c.dmask is None and band is not None and ssum is not None
                and "__nulls__" in c.stats
                and not c.stats["__nulls__"].get(col)):
            n += c.n_rows
            s += int(ssum)
            mns.append(int(band[0]))
            mxs.append(int(band[1]))
        else:
            scan.append(c)

    def fold(ts) -> pa.Table:
        n = s = 0
        mn = mx = None
        for t in ts:
            n += t.num_rows
            v = t[col]
            s += int(pc.sum(v).as_py() or 0)
            mm = pc.min_max(v)
            vlo, vhi = mm["min"].as_py(), mm["max"].as_py()
            if vlo is not None:
                mn = vlo if mn is None else min(mn, vlo)
                mx = vhi if mx is None else max(mx, vhi)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "s": pa.array([s], pa.int64()),
                         "mn": pa.array([mn], pa.int64()),
                         "mx": pa.array([mx], pa.int64())})

    if scan:
        for p in scan_chunks(out_dir, plan, scan, [col], fold,
                             concurrency).take_all():
            n += p["n"]
            s += p["s"]
            if p["mn"] is not None:
                mns.append(p["mn"])
                mxs.append(p["mx"])
    return {"count": int(n), "sum": int(s),
            "min": int(min(mns)) if mns else None,
            "max": int(max(mxs)) if mxs else None}


def grouped_topk_where(out_dir: str, group_col: str, value_col: str,
                       k: int = 3, columns: Optional[Sequence[str]] = None,
                       descending: bool = True,
                       tie_cols: Sequence[str] = (), concurrency=None,
                       snapshot: Optional[str] = None,
                       return_stats: bool = False,
                       max_driver_groups: int = 100_000):
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
    top-k partials, and merges ≤ k × groups × tasks rows on the
    driver.  Deletes subtract/mask; value nulls never rank."""
    from .chunk_plan import plan_chunks, scan_chunks, single_group

    plan = plan_chunks(out_dir, None, snapshot)
    single: dict = {}   # key -> [(far, near, n_nonnull, chunk)]
    mixed = []          # always decode
    for c in plan.proven:
        n_live = c.n_live
        if n_live <= 0:
            continue
        g = single_group(c.stats, group_col)
        vband = c.stats.get(value_col)
        if g is None or vband is None:
            mixed.append(c)
            continue
        n_nonnull = max(0, n_live - int(
            c.stats["__nulls__"].get(value_col, 0)))
        lo, hi = vband
        near, far = (hi, lo) if descending else (lo, hi)
        single.setdefault(g, []).append((far, near, n_nonnull, c))

    cand = list(mixed)
    for chunks in single.values():
        chunks.sort(key=lambda x: x[0], reverse=descending)
        T = None
        acc = 0
        for far, _near, nn, _c in chunks:
            acc += nn
            if acc >= k:
                T = far
                break
        cand += [c for _far, near, _nn, c in chunks
                 if T is None or ((near >= T) if descending else (near <= T))]

    out_cols = list(dict.fromkeys(
        [group_col, value_col, *tie_cols, *(columns or [])]))
    stats_out = {"chunks_total": len(mixed) + sum(map(len, single.values())),
                 "chunks_candidate": len(cand),
                 "chunks_mixed": len(mixed)}
    if not cand:
        empty = _typed_empty(out_dir, out_cols)
        return (empty, stats_out) if return_stats else empty

    order = [(value_col, "descending" if descending else "ascending")] + [
        (c, "ascending") for c in tie_cols
    ]
    # typed empty for all-pruned tasks, so Ray never sees a
    # schema-less RefBundle and the distributed-merge groupby works
    empty_block = _typed_empty(out_dir, out_cols)

    def _topk_per_group(t: pa.Table) -> pa.Table:
        df = t.select(out_cols).to_pandas()
        df = df[df[value_col].notna()]
        df = df.sort_values(
            [value_col, *tie_cols],
            ascending=[not descending] + [True] * len(tie_cols))
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False).head(k),
            preserve_index=False)

    def fold(ts) -> pa.Table:
        parts = [t.select(out_cols) for t in ts]
        return _topk_per_group(pa.concat_tables(parts)) if parts \
            else empty_block

    ds = scan_chunks(out_dir, plan, cand, out_cols, fold, concurrency)
    # Merge the ≤ k-per-(group, task) survivors.  Driver-small merges
    # concat + one pandas top-k; above max_driver_groups survivor rows
    # the per-group head runs as a distributed Ray groupby over the
    # partials (never the corpus) — same guard as group_counts.
    ds = ds.materialize()
    n_partial = ds.count()
    if n_partial == 0:
        empty = _typed_empty(out_dir, out_cols)
        return (empty, stats_out) if return_stats else empty
    if n_partial > max_driver_groups:
        import pandas as pd

        asc = [not descending] + [True] * len(tie_cols)

        def _head_df(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df[value_col].notna()]
            df = df.sort_values([value_col, *tie_cols], ascending=asc,
                                kind="mergesort")
            return df.head(k)

        merged = pa.Table.from_pandas(
            ds.groupby(group_col).map_groups(
                _head_df, batch_format="pandas").to_pandas(),
            preserve_index=False).select(out_cols)
    else:
        blocks = [b for b in ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None)
                  if b.num_columns and b.num_rows]
        merged = _topk_per_group(
            pa.concat_tables(blocks, promote_options="default"))
    merged = merged.take(pc.sort_indices(
        merged, sort_keys=[(group_col, "ascending")] + order))
    return (merged, stats_out) if return_stats else merged


def group_aggregates(out_dir: str, group_col: str, value_col: str,
                     concurrency=None, snapshot: Optional[str] = None,
                     max_driver_groups: int = 100_000):
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
    by SUM/MIN/MAX, counted by n_rows).  ``snapshot=`` as usual."""
    import pandas as pd
    from ray.data.aggregate import Max, Min, Sum

    from .chunk_plan import plan_chunks, scan_chunks, single_group

    plan = plan_chunks(out_dir, None, snapshot)
    meta = {"g": [], "n": [], "s": [], "mn": [], "mx": []}
    scan = []
    for c in plan.proven:
        g = single_group(c.stats, group_col)
        vband = c.stats.get(value_col)
        ssum = c.stats.get("__sums__", {}).get(value_col)
        if g is None or c.dmask is not None or ssum is None \
                or vband is None:
            scan.append(c)
            continue
        for k, v in zip(meta, (str(g), c.n_rows, int(ssum),
                               int(vband[0]), int(vband[1]))):
            meta[k].append(v)
    meta = {k: pa.array(v, pa.string() if k == "g" else pa.int64())
            for k, v in meta.items()}

    def fold(ts) -> pa.Table:
        agg: dict = {}  # g -> [n, s, mn, mx]
        for t in ts:
            gv = t[group_col].to_pandas()
            vv = pd.Series(t[value_col].to_pandas())
            grp = vv.groupby(gv)
            counts = gv.groupby(gv).size()
            sums, mns, mxs = grp.sum(), grp.min(), grp.max()
            for g in counts.index:
                cur = agg.setdefault(g, [0, 0, None, None])
                cur[0] += int(counts[g])
                cur[1] += 0 if pd.isna(sums.get(g)) else int(sums[g])
                mn, mx = mns.get(g), mxs.get(g)
                if not pd.isna(mn):
                    cur[2] = int(mn) if cur[2] is None else min(cur[2], int(mn))
                if not pd.isna(mx):
                    cur[3] = int(mx) if cur[3] is None else max(cur[3], int(mx))
        ks = sorted(agg)
        return pa.table({
            "g": pa.array([str(k) for k in ks], pa.string()),
            "n": pa.array([agg[k][0] for k in ks], pa.int64()),
            "s": pa.array([agg[k][1] for k in ks], pa.int64()),
            "mn": pa.array([agg[k][2] for k in ks], pa.int64()),
            "mx": pa.array([agg[k][3] for k in ks], pa.int64()),
        })

    df = _group_partials(
        meta, scan_chunks(out_dir, plan, scan, [group_col, value_col],
                          fold, concurrency) if scan else None,
        max_driver_groups,
        [Sum("n", alias_name="n"), Sum("s", alias_name="s"),
         Min("mn", alias_name="mn"), Max("mx", alias_name="mx")])
    out = df.groupby("g", as_index=False).agg(
        n_rows=("n", "sum"), s=("s", "sum"),
        mn=("mn", "min"), mx=("mx", "max"))
    out = out.rename(columns={"g": group_col,
                              "s": f"sum_{value_col}",
                              "mn": f"min_{value_col}",
                              "mx": f"max_{value_col}"})
    for c in (f"min_{value_col}", f"max_{value_col}"):
        if out[c].notna().all():
            out[c] = out[c].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)


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
