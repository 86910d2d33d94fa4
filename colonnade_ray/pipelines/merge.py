"""Keyed MERGE (upsert) over encoded corpora.

``merge_rows(out_dir, inputs, key=...)`` gives the corpus lifecycle
its missing write primitive: every incoming row REPLACES the corpus
row carrying the same key (update), and rows with unseen keys are
plain inserts.  It composes the two existing crash-safe primitives —
append-encode (new committed group) and merge-on-read deletion
vectors (``delete_where``) — so no new commit machinery is invented:

1. append-encode the merge batch (``encode_corpus(append=True)``);
   the group's lineage marker is commit point A,
2. mask ``key IN (incoming keys)`` in every OTHER active group
   (``delete_where(..., exclude_covering=<merge input files>)``);
   the delete sidecar marker is commit point B.

Reference parity: the reference's closest analogs are incremental
encoder composition (``mappend``/``<>`` over colonnades,
colonnade/src/Colonnade.hs:189-215) plus predicate rewriting
(``replaceWhen``, Colonnade.hs:236-248); merge_rows is that pair
lifted to corpus lifecycle — "append this encoder's rows, replacing
what they shadow".

Crash contract (append-first, duplicates over data loss): a crash
between commit A and commit B leaves BOTH versions of an updated key
visible; no committed row is ever invisible.  Re-running the same
``merge_rows`` call converges — the append step skips files a
committed group already covers, and the delete step re-derives its
scope from the merge batch's input files, so it never masks the
appended rows.  ``tests/test_merge.py`` drives this window with
crash injection.

Ordering constraint (documented, asserted nowhere): don't run
``compact_corpus`` between a merge's two commits (i.e. while a
crashed merge awaits its re-run) — compaction unions coverage
sidecars, which would widen the delete-scope exclusion to rows that
still need masking.  Completed merges compose with compaction and
vacuum freely: both carry files.json forward per group.

Scale notes (100 TB): a merge batch is incremental by definition —
its key column is read on the driver (batch-sized, not corpus-sized)
and ships inside the delete predicate once per delete task.  The
corpus-side cost is ``delete_where``'s: zone-map + Bloom pruned, so
a clustered / bloom-indexed key column touches only the chunks that
can contain the merged keys.  Payload bytes of untouched rows never
move; the appended group is the only new data written.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .deletes import delete_where
from .encode_pipeline import (
    _list_input_files,
    encode_corpus,
    encoded_input_files,
)


def _already(out_dir: str) -> set:
    return encoded_input_files(out_dir) if os.path.isdir(
        os.path.join(out_dir, "_lineage")) else set()


def merge_rows(out_dir: str, inputs, key: str,
               **encode_kwargs) -> dict:
    """Upsert the parquet files in ``inputs`` into the encoded corpus
    at ``out_dir``: rows whose ``key`` matches an existing corpus row
    supersede it; new keys append.  The merge batch must be
    key-unique (an upsert with two versions of one key is ambiguous —
    raises ``ValueError``).

    Concurrent merges on one corpus SERIALIZE on an op-level mutex
    (``_meta/merge.lock``): with two in-flight upserts of one key,
    optimistic per-commit retries alone would let each merge's
    key-delete mask the OTHER's appended version (the key vanishes);
    the mutex makes it last-writer-wins instead.  A waiter that can't
    acquire within the timeout gets ``ConcurrentWriteError`` — a
    clean abort, since nothing is committed before the lock."""
    from .concurrency import commit_lock

    with commit_lock(out_dir, name="merge",
                     timeout_s=300.0, stale_s=1800.0):
        return _merge_rows_unlocked(out_dir, inputs, key, **encode_kwargs)


def _merge_rows_unlocked(out_dir: str, inputs, key: str,
                         **encode_kwargs) -> dict:
    """Body of ``merge_rows``; caller holds the merge mutex.

    ``encode_kwargs`` pass through to ``encode_corpus`` for the
    append step (``cluster_by=``, ``bloom_cols=``, ``plan_names=`` …
    must match how the corpus was built if schema compatibility
    matters to downstream projected reads).

    Returns ``{"appended_rows", "matched_keys", "masked_rows",
    "delete_id"}`` — ``masked_rows`` counts corpus rows the key-delete
    masked (0 when every incoming key was new).
    """
    files = _list_input_files(inputs)
    if not files:
        raise ValueError("merge_rows needs at least one input file")
    keys: list = []
    n_in = 0
    for f in files:
        t = pq.read_table(f, columns=[key])
        n_in += t.num_rows
        col = t[key]
        if col.null_count:
            raise ValueError(f"merge key {key!r} has nulls in {f}")
        keys.extend(col.to_pylist())
    uniq = sorted(set(keys))
    if len(uniq) != len(keys):
        raise ValueError(
            f"merge batch is not key-unique on {key!r}: "
            f"{len(keys)} rows, {len(uniq)} distinct keys"
        )

    already = _already(out_dir)
    fresh = [f for f in files if f not in already]
    # commit point A: the appended group's lineage marker
    encode_corpus(files, out_dir, append=True, **encode_kwargs)

    # commit point B: mask the superseded versions everywhere EXCEPT
    # the group(s) covering the merge batch itself.  Scope comes from
    # input files (stable across crash-retries), not a captured gid.
    res = delete_where(out_dir, (key, "in", uniq),
                       exclude_covering=set(files))
    return {
        "appended_rows": n_in if fresh else 0,
        "appended_files": len(fresh),
        "matched_keys": len(uniq),
        "masked_rows": res["rows_deleted"],
        "delete_id": res["delete_id"],
    }


def apply_changes(out_dir: str, inputs, key: str, op_col: str = "op",
                  **encode_kwargs) -> dict:
    """CDC apply: each row of ``inputs`` carries ``op_col`` with
    ``"upsert"`` (replace-or-insert the row, ``op_col`` stripped) or
    ``"delete"`` (remove the key; the row's other columns are
    ignored).  One key per batch — a key appearing twice (even as
    upsert+delete) is ambiguous and raises.

    Composed from the same two commits as ``merge_rows``: the upsert
    half stages an op-stripped parquet under ``_staged/`` (atomic
    tmp+rename, content-addressed by the input file list, so a
    crash-retry reuses it and the append-skip still holds) and
    merges it; the delete half is one more ``delete_where(key IN
    delete-keys)`` scoped away from the staged file.  Crash contract
    and convergence follow merge_rows: re-run to converge; windows
    show stale versions (upserts) or not-yet-deleted rows, never
    missing committed data."""
    files = _list_input_files(inputs)
    if not files:
        raise ValueError("apply_changes needs at least one input file")
    tables = [pq.read_table(f) for f in files]
    batch = pa.concat_tables(tables)
    if op_col not in batch.column_names:
        raise ValueError(f"op column {op_col!r} not in change batch")
    ops = set(batch[op_col].to_pylist())
    if not ops <= {"upsert", "delete"}:
        raise ValueError(
            f"unsupported ops {sorted(ops - {'upsert', 'delete'})!r}")
    kcol = batch[key]
    if kcol.null_count:
        raise ValueError(f"change key {key!r} has nulls")
    keys = kcol.to_pylist()
    if len(set(keys)) != len(keys):
        raise ValueError(
            f"change batch is not key-unique on {key!r}: a key must "
            "appear once with its final op")

    is_upsert = pc.equal(batch[op_col], "upsert")
    ups = batch.filter(is_upsert).drop_columns([op_col])
    del_keys = sorted(batch.filter(pc.invert(is_upsert))[key].to_pylist())

    res = {"upserts": ups.num_rows, "deletes": len(del_keys),
           "masked_rows_upsert": 0, "masked_rows_delete": 0}
    staged = None
    from .concurrency import commit_lock

    # same op-level mutex as merge_rows (CDC batches ARE merges);
    # acquired here and the unlocked merge body called directly —
    # the mutex is not reentrant
    with commit_lock(out_dir, name="merge",
                     timeout_s=300.0, stale_s=1800.0):
        if ups.num_rows:
            import hashlib

            h = hashlib.blake2b(digest_size=10)
            for f in files:
                h.update(os.path.realpath(f).encode() + b"\x00")
            sdir = os.path.join(out_dir, "_staged")
            os.makedirs(sdir, exist_ok=True)
            staged = os.path.join(sdir, f"cdc-{h.hexdigest()}.parquet")
            if staged not in _already(out_dir):
                tmp = staged + ".tmp"
                pq.write_table(ups, tmp)
                os.replace(tmp, staged)
            m = _merge_rows_unlocked(out_dir, staged, key=key,
                                     **encode_kwargs)
            res["masked_rows_upsert"] = m["masked_rows"]
        if del_keys:
            d = delete_where(out_dir, (key, "in", del_keys),
                             exclude_covering={staged} if staged else None)
            res["masked_rows_delete"] = d["rows_deleted"]
    return res
