"""Named snapshots: time-travel reads over encoded corpora.

``create_snapshot(out_dir, tag)`` pins the corpus's CURRENT visible
state — the active group set plus the committed deletion masks — so
that ``decode_snapshot(out_dir, tag)`` reproduces today's answers
after any amount of later lifecycle (deletes, vacuum, updates,
schema evolution, compaction, merges).  The design reuses the two
facts that make the lifecycle crash-safe in the first place:

- group DATA is immutable — a rewrite supersedes a group, it never
  edits it — so pinning a group costs zero bytes: the snapshot just
  stops GC from reclaiming it (``_gc_group`` skips pinned gids; the
  group stays on disk, shadowed, invisible to live readers),
- deletion masks are small (bitmap bytes over touched chunks), so the
  snapshot COPIES them into its own directory at create time and the
  live sidecars stay free to be retired by the next vacuum.

On-disk layout: ``_snapshots/snap-<tag>/manifest.json`` (the commit
point — the whole directory is staged as ``.tmp`` and renamed) plus a
``_deletes/`` mirror of the then-committed sidecars, in the exact
live layout so ``load_delete_masks`` reads it unchanged.

Reference parity: the reference's encoders are immutable values a
caller can hold and replay at any time (colonnade/src/Colonnade.hs:
189-215 — build once, fold many); a snapshot is that property lifted
to corpus state under mutation.

Scale notes (100 TB): a snapshot is O(manifest) — one JSON of group
ids plus mask bytes proportional to then-pending deletes; no data
copies, no read amplification on live paths (the pin check is a
driver-side set lookup at GC time only).  Storage cost is deferred
GC: superseded groups a snapshot references stay on disk until
``drop_snapshot`` + ``sweep_orphans``, the same retention trade
every lakehouse time-travel makes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Optional, Sequence

SNAP_DIR = "_snapshots"
_TAG_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _snap_root(out_dir: str) -> str:
    return os.path.join(out_dir, SNAP_DIR)


def _snap_dir(out_dir: str, tag: str) -> str:
    return os.path.join(_snap_root(out_dir), f"snap-{tag}")


def create_snapshot(out_dir: str, tag: str) -> dict:
    """Pin the current visible corpus state under ``tag``.  Atomic:
    the snapshot directory is staged as ``.tmp`` and renamed; a crash
    mid-create leaves only an ignorable temp dir (re-run converges).
    Raises if ``tag`` already exists (snapshots are immutable —
    drop and re-create to retag)."""
    from .deletes import DELETES_DIR, committed_deletes
    from .encode_pipeline import active_groups

    from .concurrency import WriterSession

    if not _TAG_RE.match(tag or ""):
        raise ValueError(f"snapshot tag must match {_TAG_RE.pattern}: {tag!r}")
    final = _snap_dir(out_dir, tag)
    if os.path.isdir(final):
        raise ValueError(f"snapshot {tag!r} already exists")
    # generation captured before reading the state being pinned: a
    # writer committing mid-create fails the manifest CAS instead of
    # leaving a snapshot whose group list and mask copy disagree
    session = WriterSession(out_dir)
    groups = active_groups(out_dir)
    if not groups:
        raise FileNotFoundError(f"no committed encode groups under {out_dir}")
    dels = committed_deletes(out_dir)
    tmp = final + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)  # torn create from a previous run
    os.makedirs(tmp)
    if dels:
        droot_src = os.path.join(out_dir, DELETES_DIR)
        droot_dst = os.path.join(tmp, DELETES_DIR)
        os.makedirs(droot_dst)
        for did in dels:
            shutil.copytree(os.path.join(droot_src, f"del-{did}"),
                            os.path.join(droot_dst, f"del-{did}"))
            shutil.copy2(os.path.join(droot_src, f"del-{did}.json"),
                         os.path.join(droot_dst, f"del-{did}.json"))
    with open(os.path.join(tmp, "manifest.json"), "w") as fh:
        json.dump({"tag": tag, "groups": sorted(groups),
                   "deletes": sorted(dels)}, fh, indent=1)
    # the commit point (generation-checked CAS)
    session.commit(lambda: os.replace(tmp, final),
                   what=f"create_snapshot {tag}")
    return {"tag": tag, "groups": len(groups), "deletes": len(dels)}


def _manifest(out_dir: str, tag: str) -> dict:
    p = os.path.join(_snap_dir(out_dir, tag), "manifest.json")
    if not os.path.exists(p):
        raise FileNotFoundError(f"no snapshot {tag!r} under {out_dir}")
    with open(p) as fh:
        return json.load(fh)


def list_snapshots(out_dir: str) -> list:
    """Committed snapshot manifests, sorted by tag."""
    root = _snap_root(out_dir)
    if not os.path.isdir(root):
        return []
    out = []
    for d in sorted(os.listdir(root)):
        if d.startswith("snap-") and not d.endswith(".tmp"):
            p = os.path.join(root, d, "manifest.json")
            if os.path.exists(p):
                with open(p) as fh:
                    out.append(json.load(fh))
    return out


def drop_snapshot(out_dir: str, tag: str) -> None:
    """Unpin ``tag``.  Groups only it referenced become reclaimable
    by the next ``sweep_orphans`` (they stay on disk, shadowed, until
    then — dropping a snapshot never touches live state)."""
    d = _snap_dir(out_dir, tag)
    if not os.path.isdir(d):
        raise FileNotFoundError(f"no snapshot {tag!r} under {out_dir}")
    shutil.rmtree(d)


def pinned_groups(out_dir: str) -> set:
    """Group ids any committed snapshot references — the set GC must
    never reclaim.  Driver-side, manifest-sized."""
    return {g for m in list_snapshots(out_dir) for g in m["groups"]}


def restore_snapshot(out_dir: str, tag: str, gc: bool = True) -> dict:
    """Roll the LIVE corpus back to snapshot ``tag``: materialize the
    pinned groups (with the snapshot's masks applied — the restored
    state needs no sidecars) as new committed groups that supersede
    everything currently active.  The snapshot itself survives, so a
    restore can be restored from again.

    One commit per schema cohort of the snapshot (groups encoded under
    different plans can't share a parquet schema).  Single-plan
    corpora — the normal case — restore in ONE atomic commit; for
    multi-cohort snapshots a crash between cohort commits hides the
    not-yet-restored cohorts' rows until the re-run converges
    (deterministic restore gids, torn dirs rebuilt).  Refuses while
    live deletion masks are pending (they key on chunk ids the
    restore abandons): vacuum or drop them first.

    ``gc=True`` reclaims the superseded groups (snapshot-pinned ones
    are spared by ``_gc_group`` as always)."""
    import hashlib

    import pyarrow.parquet as pq

    from .concurrency import WriterSession
    from .deletes import _DropDeleted, _ReencodeChunks, committed_deletes
    from .encode_pipeline import (
        _group_files,
        _rewrite_group,
        active_groups,
        completed_groups,
        shadowed_groups,
    )

    session = WriterSession(out_dir)  # before the no-pending-masks check
    m = _manifest(out_dir, tag)
    if committed_deletes(out_dir):
        raise ValueError(
            "restore_snapshot with pending live deletion masks would "
            "orphan them: run vacuum_deletes(out_dir) first")
    current = active_groups(out_dir)
    if sorted(current) == sorted(m["groups"]) and not m["deletes"]:
        return {"restored_cohorts": 0, "superseded_groups": 0}
    # cohorts by encoded schema, as in compact_corpus
    cohorts: dict = {}
    for gid in m["groups"]:
        fs = _group_files(out_dir, gid)
        if not fs:
            continue  # pinned group vacuumed to zero rows pre-snapshot
        key = tuple(pq.read_schema(fs[0]).names)
        cohorts.setdefault(key, []).extend(fs)
    if not cohorts:
        # every pinned group was vacuumed to zero rows: one empty cohort
        # still commits, and its shadow rolls the live corpus back
        cohorts[()] = []

    def _ngid(i: int, k: int) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(f"restore:{tag}:{i}".encode())
        for g in sorted(m["groups"]):
            h.update(b"\x00" + g.encode())
        if k:
            h.update(f"\x00{k}".encode())
        return "r" + h.hexdigest()[:15]

    # one deterministic gid per cohort, so a crash-retry finds the
    # cohorts it already committed ACTIVE and skips them.  A gid an
    # earlier restore of this snapshot committed is taken: the cohort
    # moves to the next fresh gid, so a restored group never sits
    # inside a shadow chain
    taken = set(completed_groups(out_dir)) | shadowed_groups(out_dir)

    def _targets(resume: bool) -> list:
        out = []
        for i in range(len(cohorts)):
            k = 0
            while _ngid(i, k) in taken and not (
                    resume and _ngid(i, k) in current):
                k += 1
            out.append(_ngid(i, k))
        return out

    # a retry resumes only while every active group is one of its
    # cohorts (the first cohort commit shadows everything else); an
    # active target beside other groups (say, an append after an
    # earlier restore) was committed by that earlier restore, and the
    # live corpus must still roll back past it
    targets = _targets(resume=True)
    if not set(current) <= set(targets):
        targets = _targets(resume=False)
    # the shadow must never include the restore groups themselves: on
    # a crash-retry a committed restore group IS active, and a shadow
    # derived naively from the current active set would gc the very
    # data the retry is converging to
    roots = [g for g in current if g not in targets]
    rewriter = _ReencodeChunks(out_dir,
                               _DropDeleted(_snap_dir(out_dir, tag)))
    shadow: set = set()
    restored = 0
    for (key, files), ngid in zip(sorted(cohorts.items()), targets):
        if ngid in current:
            continue  # this cohort committed before a crash
        # generation-checked: a writer (delete/vacuum/merge) landing
        # mid-restore aborts the restore cleanly instead of being
        # silently superseded
        shadow.update(_rewrite_group(
            out_dir, session, ngid, m["groups"], rewriter, files=files,
            replaces=roots, keep=targets, gc=gc,
            what=f"restore cohort {ngid}"))
        restored += 1
    return {"restored_cohorts": restored,
            "superseded_groups": len(shadow)}


def decode_snapshot(out_dir: str, tag: str, verify_checksum: bool = True,
                    columns: Optional[Sequence[str]] = None,
                    predicate: Optional[tuple] = None):
    """``decode_corpus`` as of snapshot ``tag``: reads exactly the
    pinned groups and applies exactly the masks committed at create
    time (later deletes are invisible; masks retired by a later
    vacuum still apply from the snapshot's copy)."""
    from .encode_pipeline import _decode_scoped

    return _decode_scoped(out_dir, tag, verify_checksum, columns, predicate)
