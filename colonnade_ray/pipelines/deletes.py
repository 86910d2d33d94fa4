"""Merge-on-read row deletion for encoded corpora (deletion vectors).

``delete_where(out_dir, predicate)`` marks matching rows deleted
WITHOUT rewriting a single payload byte: per-chunk packed bitmasks
land as content-addressed sidecar directories under ``_deletes/``,
committed by a JSON marker written last (the same marker-is-the-
commit-point discipline as encode groups).  Every read path —
``decode_corpus``, ``decode_digest_corpus``, ``count_where``,
``aggregate_where``, ``group_counts`` — masks deleted rows out;
``vacuum_deletes`` re-encodes ONLY the groups that carry deletions
and retires the sidecars.

Reference parity: the reference's closest analog is predicate-driven
row rewriting (``modifyWhen``/``replaceWhen``,
colonnade/src/Colonnade.hs:217-248) — this module is that combinator
lifted to corpus lifecycle: the "rewrite" is a logical drop recorded
beside immutable data.

Scale notes (100 TB):

- ``delete_where`` is zone-map-pruned like any pushdown: groups and
  chunks whose stats PROVE no row matches are never read, never
  decoded, and cost zero sidecar bytes.  All-match chunks (band inside
  the predicate, proven-zero nulls) store a 0-byte ``all`` marker —
  no decode, no bitmap.  Only boundary chunks decode, and only the
  predicate columns.
- Sidecar volume is proportional to TOUCHED boundary chunks
  (n_rows/8 bytes each), not to corpus size; the common 100-TB delete
  (a contaminated source / date band on a clustered layout) touches a
  vanishing fraction of chunks and resolves mostly to ``all`` markers.
- Readers load masks once per WORKER PROCESS through a content-keyed
  cache (the driver ships only the corpus path); a mask set too large
  for one process heap means the predicate deleted scattered rows
  across most of a 100-TB corpus — at that point ``vacuum_deletes``
  (a group-parallel re-encode) is the right tool, and the docstring
  contract is that masks are a BRIDGE to the next vacuum, not a
  permanent 1:1 shadow of the corpus.
- Deletes compose with ``compact_corpus``: compaction moves chunk rows
  verbatim (chunk_id is content-derived and travels with the row), so
  masks keyed by (fragment, chunk_id) stay valid across it.
- ``vacuum_deletes`` rewrites per chunk INSIDE one task (decode ->
  filter -> re-encode, fused, no exchange), reuses the corpus's pinned
  shared dictionaries so rewritten chunks stay byte-compatible with
  untouched groups, and commits group-by-group with supersedes
  markers — a crash mid-vacuum leaves every group readable (old or
  new, never both) and a re-run converges.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DELETES_DIR = "_deletes"

# (realpath(out_dir), tuple(committed ids)) -> {(fragment, chunk_id):
#  np.bool_ deleted-mask | "all"} — per-process, content-keyed: a new
# committed delete changes the key, so stale entries are never served.
_MASK_CACHE: dict = {}


def _deletes_root(out_dir: str) -> str:
    return os.path.join(out_dir, DELETES_DIR)


def committed_deletes(out_dir: str) -> list:
    """Delete-operation ids whose data dir AND commit marker exist."""
    root = _deletes_root(out_dir)
    if not os.path.isdir(root):
        return []
    out = []
    for f in sorted(os.listdir(root)):
        if f.startswith("del-") and f.endswith(".json"):
            did = f[len("del-"):-len(".json")]
            if os.path.isdir(os.path.join(root, f"del-{did}")):
                out.append(did)
    return out


def load_delete_masks(out_dir: str) -> dict:
    """(fragment, chunk_id) -> boolean np array (True = deleted) or
    the string ``"all"``.  Stacked delete operations OR together.
    Process-cached by the committed-id set."""
    ids = committed_deletes(out_dir)
    if not ids:
        return {}
    key = (os.path.realpath(out_dir), tuple(ids))
    hit = _MASK_CACHE.get(key)
    if hit is not None:
        return hit
    masks: dict = {}
    root = _deletes_root(out_dir)
    for did in ids:
        t = pq.read_table(os.path.join(root, f"del-{did}"))
        for frag, cid, n_rows, kind, bm in zip(
            t["fragment"].to_pylist(), t["chunk_id"].to_pylist(),
            t["n_rows"].to_pylist(), t["kind"].to_pylist(),
            t["bitmap"].to_pylist(),
        ):
            k = (frag, cid)
            prev = masks.get(k)
            if kind == "all" or isinstance(prev, str):
                masks[k] = "all"
                continue
            new = np.unpackbits(
                np.frombuffer(bm, dtype=np.uint8), count=n_rows
            ).astype(bool)
            masks[k] = new if prev is None else (prev | new)
    for k, v in masks.items():
        if not isinstance(v, str) and v.all():
            masks[k] = "all"
    # one live entry per corpus: stale commit-set generations (prior
    # delete/vacuum states) would otherwise accumulate for the life of
    # a long-running worker process
    for old in [k for k in _MASK_CACHE if k[0] == key[0]]:
        del _MASK_CACHE[old]
    _MASK_CACHE[key] = masks
    return masks


def deleted_row_count(out_dir: str) -> int:
    masks = load_delete_masks(out_dir)
    if not masks:
        return 0
    # "all" entries need the chunk's n_rows — a manifest-sized scan
    need_all = {k for k, v in masks.items() if isinstance(v, str)}
    total = sum(int(v.sum()) for v in masks.values()
                if not isinstance(v, str))
    if need_all:
        from ..state.lineage import load_lineage

        lin = load_lineage(out_dir)
        for frag, cid, n in zip(lin["fragment"].to_pylist(),
                                lin["chunk_id"].to_pylist(),
                                lin["n_rows"].to_pylist()):
            if (frag, cid) in need_all:
                total += int(n)
    return total


def delete_where(out_dir: str, predicate,
                 exclude_covering: Optional[set] = None,
                 max_retries: int = 2) -> dict:
    """Mark every row matching ``predicate`` (TRUE rows only — SQL
    DELETE three-valued semantics, nulls survive) as deleted.

    Concurrent-writer safe: the sidecar id and mask base derive from
    the committed set observed at START, and the marker commit is a
    generation-checked CAS (``pipelines/concurrency.py``) — if another
    writer (delete / vacuum / merge) commits in between, this op
    RETRIES from scratch against the new state (masks OR together, so
    the recomputation converges) up to ``max_retries`` times before
    surfacing ``ConcurrentWriteError``.

    Distributed: one zone-pruned pass over the encoded chunks; only
    boundary chunks decode their predicate columns.  The sidecar is
    committed atomically (data dir, then marker).

    ``exclude_covering``: a set of input-file paths — active groups
    whose coverage sidecar intersects it are left untouched.  This is
    ``merge_rows``'s scoping hook: the upsert's key-delete must never
    mask the rows it just appended, and the exclusion is derived from
    the merge batch's input files (stable across crash-retries and
    vacuum rewrites, which carry files.json forward) rather than from
    a group id captured in driver memory."""
    from .concurrency import ConcurrentWriteError

    last: Exception | None = None
    for _ in range(max_retries + 1):
        try:
            return _delete_where_once(out_dir, predicate, exclude_covering)
        except ConcurrentWriteError as e:
            last = e
    raise last


def _delete_rows(rows: list) -> pa.Table:
    """Sidecar rows (fragment, chunk_id, n_rows, kind, n_deleted,
    bitmap) -> their table."""
    names = ("fragment", "chunk_id", "n_rows", "kind", "n_deleted", "bitmap")
    types = (pa.string(), pa.string(), pa.int64(), pa.string(), pa.int64(),
             pa.binary())
    cols = list(zip(*rows)) if rows else [[] for _ in names]
    return pa.table({n: pa.array(list(c), t)
                     for n, c, t in zip(names, cols, types)})


def _delete_where_once(out_dir: str, predicate,
                       exclude_covering: Optional[set] = None) -> dict:
    from ..stages.decode import (
        decode_chunk_row,
        normalize_predicates,
        predicate_columns,
        predicate_json,
        predicates_mask,
    )
    from ..util import default_concurrency
    from .chunk_plan import _plan, read_chunks
    from .encode_pipeline import _meta_root, _register_dict_dir, active_groups

    from .concurrency import WriterSession

    # capture the committed-set generation BEFORE reading any state
    # the sidecar derives from (committed_deletes, active groups)
    session = WriterSession(out_dir)
    preds = normalize_predicates(predicate)
    if not preds:
        raise ValueError("delete_where needs at least one predicate")
    cols = sorted(predicate_columns(preds))
    groups = None
    if exclude_covering:
        excl = {os.path.realpath(p) for p in exclude_covering}
        groups = []
        for gid in active_groups(out_dir):
            sc = os.path.join(_meta_root(out_dir), f"group-{gid}.files.json")
            covered: set = set()
            if os.path.exists(sc):
                with open(sc) as fh:
                    covered = {os.path.realpath(p) for p in json.load(fh)}
            if not (covered & excl):
                groups.append(gid)
    did = hashlib.blake2b(
        (json.dumps(predicate_json(preds), sort_keys=True, default=str)
         + "|" + ",".join(committed_deletes(out_dir))
         + ("|scope:" + ",".join(groups) if groups is not None else "")
         ).encode(),
        digest_size=10,
    ).hexdigest()
    root = _deletes_root(out_dir)
    ddir = os.path.join(root, f"del-{did}")
    marker = os.path.join(root, f"del-{did}.json")
    if os.path.exists(ddir):
        shutil.rmtree(ddir)  # torn write from a previous run
    if os.path.exists(marker):
        os.remove(marker)

    # masks are not consulted: stacked deletes OR together, so this
    # sidecar records every matching row, deleted before or not
    plan = _plan(out_dir, preds, groups, None)
    if plan.maybe:
        keys = {c.key for c in plan.maybe}
        enc, cpt = read_chunks(out_dir, plan, plan.maybe, cols)

        def part(batch: pa.Table) -> pa.Table:
            _register_dict_dir(out_dir)
            out = []
            names = batch.column_names
            for r in range(len(batch)):
                key = (batch["fragment"][r].as_py(),
                       batch["chunk_id"][r].as_py())
                if key not in keys:
                    continue
                row = {c: batch[c][r].as_py() for c in names}
                t = decode_chunk_row(row, verify_checksum=False,
                                     columns=cols)
                m = predicates_mask(t, preds)
                nd = int(m.sum())
                if nd == 0:
                    continue
                kind, bm = ("all", b"") if nd == t.num_rows \
                    else ("bitmap", np.packbits(m).tobytes())
                out.append((*key, t.num_rows, kind, nd, bm))
            return _delete_rows(out)

        os.makedirs(root, exist_ok=True)
        enc.map_batches(
            part, batch_format="pyarrow", batch_size=max(1, cpt),
            zero_copy_batch=True,
            concurrency=default_concurrency(),
        ).write_parquet(ddir, compression="zstd")
    # proven chunks: every row matches -> a 0-byte "all" marker
    os.makedirs(ddir, exist_ok=True)
    pq.write_table(_delete_rows([(c.fragment, c.chunk_id, c.n_rows, "all",
                                  c.n_rows, b"") for c in plan.proven]),
                   os.path.join(ddir, "part-0.parquet"), compression="zstd")
    t = pq.read_table(ddir, columns=["n_deleted"])
    chunks = t.num_rows
    rows_deleted = int(sum(t["n_deleted"].to_pylist())) if chunks else 0
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump({
            "predicate": predicate_json(preds),
            "chunks_touched": chunks,
            "rows_deleted": rows_deleted,
        }, f, indent=1, default=str)
    # the commit point: generation-checked CAS — a writer that
    # committed since our capture fails here (cleanly, marker never
    # lands) and the caller retries against the new state
    session.commit(lambda: os.replace(tmp, marker), what="delete_where")
    return {"delete_id": did, "chunks_touched": chunks,
            "rows_deleted": rows_deleted}


class _ReencodeChunks:
    """The one re-encoding chunk-row rewriter (update, vacuum and
    restore).  ``edit(key, decode)`` decides each chunk, keyed by
    ``(fragment, chunk_id)``: None copies the row VERBATIM (no decode,
    no re-encode — only the edited chunks of a group pay); a table —
    typically derived from ``decode()``, the chunk's verified full
    decode — replaces its rows, re-encoded under the chunk's own plan,
    the corpus's pinned shared dictionaries (so rewritten chunks stay
    byte-compatible with untouched ones) and the sketches of its
    recorded ``EncodeSpec`` (a stale bloom/HLL must never survive a
    rewrite); an empty table drops the chunk."""

    def __init__(self, out_dir: str, edit):
        self.out_dir = out_dir
        self.edit = edit

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs.shared_dict import register_dir
        from ..plan import CodecPlan, bind_plan
        from ..stages.decode import decode_chunk_row
        from ..stages.encode import EncodeSpec, encode_chunk
        from .encode_pipeline import load_encode_spec, load_pinned_dicts

        register_dir(self.out_dir)
        shared = load_pinned_dicts(self.out_dir)
        spec = load_encode_spec(self.out_dir) or EncodeSpec()
        names = batch.column_names
        out_tables = []
        for r in range(len(batch)):
            frag = batch["fragment"][r].as_py()
            t = self.edit(
                (frag, batch["chunk_id"][r].as_py()),
                lambda r=r: decode_chunk_row(
                    {c: batch[c][r].as_py() for c in names},
                    verify_checksum=True))
            if t is None:
                out_tables.append(batch.slice(r, 1))
                continue
            if t.num_rows == 0:
                continue
            plan = CodecPlan.by_name(*json.loads(batch["plan_json"][r].as_py()))
            enc = encode_chunk(t, bind_plan(plan, t.schema), spec,
                               fragment=frag, shared_dicts=shared)
            # force the INPUT's column order so blocks concat cleanly
            out_tables.append(pa.table(enc).select(names))
        return pa.concat_tables(out_tables) if out_tables \
            else batch.slice(0, 0)


class _DropDeleted:
    """``_ReencodeChunks`` edit: drop the rows the deletion masks under
    ``masks_dir`` mark — the corpus's live ``_deletes`` for vacuum, a
    snapshot's mask copy for restore."""

    def __init__(self, masks_dir: str):
        self.masks_dir = masks_dir
        self.masks = None  # loaded once, at the first chunk

    def __call__(self, key, decode):
        if self.masks is None:
            self.masks = load_delete_masks(self.masks_dir)
        dmask = self.masks.get(key)
        if dmask is None:
            return None
        if isinstance(dmask, str):  # "all": the whole chunk is deleted
            return pa.table({})
        return decode().filter(pa.array(~dmask))


def vacuum_deletes(out_dir: str, gc: bool = True,
                   max_concurrent_groups: int = 4) -> dict:
    """Materialize pending deletions: re-encode ONLY the groups whose
    chunks carry masks (group-parallel, decode->filter->re-encode
    fused per task, zero exchange), commit each replacement with a
    supersedes marker, then retire every consumed sidecar.

    Crash-safe: per group, data dir -> files.json -> supersedes.json
    -> lineage marker (the commit point); sidecars are removed only
    after every affected group committed.  Orphaned masks (a crash
    between a group commit and sidecar removal) reference chunk_ids
    that no longer exist in any active group — harmless, and the next
    vacuum call sweeps them."""
    from .concurrency import WriterSession
    from .encode_pipeline import _rewrite_group, _run_groups, active_groups

    # generation captured BEFORE loading the masks this rewrite bakes
    # in: a delete committing mid-vacuum fails our next group commit
    # (clean abort; committed groups + surviving sidecars stay a
    # consistent merge-on-read state, and a re-run converges)
    session = WriterSession(out_dir)
    ids = committed_deletes(out_dir)
    if not ids:
        return {"vacuumed_groups": 0, "rows_dropped": 0,
                "retired_deletes": 0}
    masks = load_delete_masks(out_dir)
    rows_dropped = deleted_row_count(out_dir)
    lin_root = os.path.join(out_dir, "_lineage")
    affected = []
    for gid in active_groups(out_dir):
        lin = pq.read_table(os.path.join(lin_root, f"group-{gid}.parquet"),
                            columns=["fragment", "chunk_id"])
        keys = set(zip(lin["fragment"].to_pylist(),
                       lin["chunk_id"].to_pylist()))
        if keys & masks.keys():
            affected.append(gid)

    def _one(gid: str) -> None:
        h = hashlib.blake2b(digest_size=8)
        h.update(gid.encode())
        for did in ids:
            h.update(b"\x00" + did.encode())
        _rewrite_group(out_dir, session, "v" + h.hexdigest()[:15], [gid],
                       _ReencodeChunks(out_dir, _DropDeleted(out_dir)),
                       gc=gc, what=f"vacuum group {gid}")

    _run_groups(_one, affected, max_concurrent_groups)

    # every affected active group is committed -> retire the sidecars
    def _retire():
        root = _deletes_root(out_dir)
        for did in ids:
            mp = os.path.join(root, f"del-{did}.json")
            if os.path.exists(mp):
                os.remove(mp)
            shutil.rmtree(os.path.join(root, f"del-{did}"),
                          ignore_errors=True)

    session.commit(_retire, what="vacuum retire sidecars")
    return {"vacuumed_groups": len(affected), "rows_dropped": rows_dropped,
            "retired_deletes": len(ids)}
