"""Crash-point injection over the lifecycle commit protocols.

Every lifecycle operation commits through a driver-side choreography
of filesystem mutations (write data dir -> files.json ->
supersedes.json -> lineage marker; sidecar dir -> marker).  This sweep
simulates a process death at EVERY such mutation in turn: the Nth
driver-side mutation raises, every later one is suppressed (a dead
process performs no further writes), the corpus must still decode to a
consistent state, and re-running the operation must converge to the
same final state a crash-free run produces.

The per-op torn-write tests pin individual crash points; this sweep is
exhaustive over the real mutation sequence, so a reordering of the
choreography that breaks marker-last discipline fails here even if no
hand-written case covers it.

Worker-side writes (Ray tasks writing chunk parquet) are out of scope
on purpose: they land in fresh group directories that are invisible
until the driver-side marker commits, which is exactly the property
this sweep verifies.
"""

import json
import os
import shutil
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_rows
from colonnade_ray.pipelines import (
    add_columns,
    compact_corpus,
    count_where,
    decode_corpus,
    delete_where,
    encode_corpus,
    replace_where,
    vacuum_deletes,
)
from colonnade_ray.pipelines.deletes import committed_deletes

BASE_COLS = ["doc_id", "tokens", "n_tok", "source"]


class CrashPoint(RuntimeError):
    pass


class _Injector:
    """Patch driver-side mutators; the ``fire_at``-th call from
    colonnade_ray code raises, and every subsequent colonnade_ray call
    keeps raising (sticky — a crashed process writes nothing more).
    Calls from other code (Ray internals, the test itself) pass
    through untouched."""

    TARGETS = [
        (os, "replace"), (os, "remove"), (shutil, "rmtree"),
        (pq, "write_table"), (json, "dump"),
    ]

    def __init__(self, fire_at: int):
        self.fire_at = fire_at
        self.count = 0
        self.fired = False
        self._lock = threading.Lock()
        self._orig = []

    def _wrap(self, fn):
        def wrapped(*a, **kw):
            mod = sys._getframe(1).f_globals.get("__name__", "")
            if mod.startswith("colonnade_ray"):
                with self._lock:
                    if self.fired:
                        raise CrashPoint("write after crash suppressed")
                    self.count += 1
                    if self.count == self.fire_at:
                        self.fired = True
                        raise CrashPoint(
                            f"injected at mutation #{self.count}")
            return fn(*a, **kw)
        return wrapped

    def __enter__(self):
        for mod, attr in self.TARGETS:
            fn = getattr(mod, attr)
            self._orig.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in self._orig:
            setattr(mod, attr, fn)
        return False


def crash_sweep(op, invariant, max_points=300):
    """Run ``op`` with the crash injected at mutation 1, 2, 3, ... —
    checking ``invariant`` after every crash — until an attempt
    completes with the injection never reached (= every remaining
    mutation point was covered; a convergent retry may legitimately
    have FEWER points than a fresh run, e.g. a vacuum whose groups all
    committed before the crash only retires sidecars).  Returns the
    number of crash points exercised."""
    for k in range(1, max_points + 1):
        inj = _Injector(k)
        crashed = False
        with inj:
            try:
                op()
            except CrashPoint:
                crashed = True
        invariant()
        if not crashed and not inj.fired:
            return k - 1
    raise AssertionError("crash sweep did not terminate")


def _setup(tmp_path, n_rows=200, files=2):
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    os.makedirs(inp, exist_ok=True)
    per = n_rows // files
    tabs = []
    for i in range(files):
        t = synth_rows(per, seed=3000 + i, start_id=i * per)
        pq.write_table(t, os.path.join(inp, f"part-{i:03d}.parquet"))
        tabs.append(t)
    encode_corpus(inp, out, batch_size=64, resume=False, group_size=1)
    return out, pa.concat_tables(tabs)


def _live(out, columns=None):
    df = decode_corpus(out, verify_checksum=True,
                       columns=columns).to_pandas()
    assert df["doc_id"].is_unique
    return df.sort_values("doc_id").reset_index(drop=True)


def test_crash_sweep_delete_where(ray_session, tmp_path):
    out, orig = _setup(tmp_path)
    nt = dict(zip(orig["doc_id"].to_pylist(), orig["n_tok"].to_pylist()))
    med = int(np.median(orig["n_tok"].to_numpy()))
    matched = {d for d, n in nt.items() if n >= med}

    def invariant():
        df = _live(out, columns=["doc_id", "n_tok"])
        got = set(df["doc_id"])
        # only matched docs may be missing; values never change
        assert set(nt) - got <= matched
        assert all(nt[d] == n for d, n in zip(df["doc_id"], df["n_tok"]))

    n = crash_sweep(lambda: delete_where(out, ("n_tok", ">=", med)),
                    invariant)
    assert n >= 2  # at least sidecar write + marker rename crash points
    assert set(_live(out, columns=["doc_id"])["doc_id"]) == \
        set(nt) - matched


def test_crash_sweep_vacuum(ray_session, tmp_path):
    out, orig = _setup(tmp_path)
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    keep = {d for d, n in zip(orig["doc_id"].to_pylist(),
                              orig["n_tok"].to_pylist()) if n < med}

    def invariant():
        # the live set is invariant under vacuum at EVERY crash point
        assert set(_live(out, columns=["doc_id"])["doc_id"]) == keep

    n = crash_sweep(
        lambda: vacuum_deletes(out, max_concurrent_groups=1), invariant)
    assert n >= 2  # group commit choreography + sidecar retirement
    assert committed_deletes(out) == []  # sidecars retired
    assert count_where(out, ("n_tok", ">=", med)) == 0


def test_crash_sweep_replace_where(ray_session, tmp_path):
    out, orig = _setup(tmp_path)
    srcs = orig["source"].to_pylist()
    victim = sorted(set(srcs))[0]
    want = {d: ("redacted" if s == victim else s)
            for d, s in zip(orig["doc_id"].to_pylist(), srcs)}

    def invariant():
        df = _live(out, columns=["doc_id", "source"])
        assert len(df) == len(want)
        for d, s in zip(df["doc_id"], df["source"]):
            # victims are either rewritten or not yet; others untouched
            assert s in ({victim, "redacted"} if want[d] == "redacted"
                         else {want[d]})

    crash_sweep(
        lambda: replace_where(out, ("source", "==", victim),
                              {"source": "redacted"}), invariant)
    df = _live(out, columns=["doc_id", "source"])
    assert all(want[d] == s for d, s in zip(df["doc_id"], df["source"]))


def test_crash_sweep_compact(ray_session, tmp_path):
    out, orig = _setup(tmp_path, files=3)
    want = sorted(orig["doc_id"].to_pylist())

    def invariant():
        assert sorted(_live(out, columns=["doc_id"])["doc_id"]) == want

    crash_sweep(lambda: compact_corpus(out), invariant)
    from colonnade_ray.pipelines.encode_pipeline import active_groups
    assert len(active_groups(out)) == 1


def test_crash_sweep_add_columns(ray_session, tmp_path):
    out, orig = _setup(tmp_path)
    want_n = {d: n for d, n in zip(orig["doc_id"].to_pylist(),
                                   orig["n_tok"].to_pylist())}

    def bucket_fn(t):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        return {"tok_bucket": _pc.divide(t["n_tok"], 100).cast(_pa.int64())}

    def invariant():
        # mid-crash the corpus may be partially augmented; the ORIGINAL
        # columns must stay fully readable and unchanged throughout
        df = _live(out, columns=["doc_id", "n_tok"])
        assert len(df) == len(want_n)
        assert all(want_n[d] == n
                   for d, n in zip(df["doc_id"], df["n_tok"]))

    crash_sweep(
        lambda: add_columns(out, bucket_fn, ["n_tok"],
                            names=["tok_bucket"],
                            max_concurrent_groups=1), invariant)
    df = _live(out)
    assert all(df["tok_bucket"] == df["n_tok"] // 100)


def test_crash_sweep_encode_resume(ray_session, tmp_path):
    """encode_corpus with resume=True converges through crashes in the
    dict pre-pass and the per-group commit choreography; committed
    groups decode consistently at every intermediate point."""
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    os.makedirs(inp, exist_ok=True)
    tabs = []
    for i in range(2):
        t = synth_rows(100, seed=4000 + i, start_id=i * 100)
        pq.write_table(t, os.path.join(inp, f"part-{i:03d}.parquet"))
        tabs.append(t)
    orig = pa.concat_tables(tabs)
    want_n = dict(zip(orig["doc_id"].to_pylist(),
                      orig["n_tok"].to_pylist()))

    def invariant():
        # whatever subset of groups committed must decode exactly
        from colonnade_ray.pipelines.encode_pipeline import active_groups
        if not active_groups(out):
            return
        df = _live(out, columns=["doc_id", "n_tok"])
        assert all(want_n[d] == n
                   for d, n in zip(df["doc_id"], df["n_tok"]))

    crash_sweep(
        lambda: encode_corpus(inp, out, batch_size=64, resume=True,
                              group_size=1), invariant)
    df = _live(out, columns=["doc_id", "n_tok"])
    assert set(df["doc_id"]) == set(want_n)
    # resumed groups reference the SAME deterministic shared dicts:
    # a full verified decode of every column round-trips
    full = decode_corpus(out, verify_checksum=True).to_pandas()
    got_tok = dict(zip(full["doc_id"], full["tokens"]))
    for d, tk in zip(orig["doc_id"].to_pylist(),
                     orig["tokens"].to_pylist()):
        assert list(got_tok[d]) == list(tk)


def test_crash_sweep_rename(ray_session, tmp_path):
    """rename_columns through crashes: the unaffected columns stay
    readable at every point (a group is either renamed or not), and
    the re-run converges to the fully renamed schema."""
    from colonnade_ray.pipelines import rename_columns

    out, orig = _setup(tmp_path)
    want = sorted(orig["doc_id"].to_pylist())

    def invariant():
        df = _live(out, columns=["doc_id"])
        assert sorted(df["doc_id"]) == want

    crash_sweep(lambda: rename_columns(out, {"n_tok": "tok_count"}),
                invariant)
    dec = decode_corpus(out, verify_checksum=True)
    names = set(dec.schema().names)
    assert "tok_count" in names and "n_tok" not in names
    df = dec.to_pandas()
    assert sorted(df["tok_count"]) == sorted(orig["n_tok"].to_pylist())


def test_crash_sweep_merge_rows(ray_session, tmp_path):
    """merge_rows through crashes at every driver-side mutation: no
    committed row ever disappears (the documented duplicates-over-
    data-loss window), untouched rows never change, and the re-run
    converges to anti-join + union."""
    from colonnade_ray.pipelines import merge_rows

    out, orig = _setup(tmp_path)
    upd = orig.slice(0, 40)
    batch = pa.table({
        "doc_id": upd["doc_id"],
        "tokens": pa.array([[7] * 3] * 40, pa.list_(pa.int32())),
        "n_tok": pa.array([3] * 40, pa.int32()),
        "source": pa.array(["merged"] * 40, pa.string()),
    })
    bdir = tmp_path / "batch"
    bdir.mkdir()
    bp = str(bdir / "b0.parquet")
    pq.write_table(batch, bp)
    updated = set(upd["doc_id"].to_pylist())
    old_src = dict(zip(orig["doc_id"].to_pylist(),
                       orig["source"].to_pylist()))

    def invariant():
        df = decode_corpus(out, verify_checksum=True,
                           columns=["doc_id", "source"]).to_pandas()
        seen: dict = {}
        for d, s in zip(df["doc_id"], df["source"]):
            seen.setdefault(d, set()).add(s)
        # every original key stays visible in SOME version
        assert set(old_src) <= set(seen)
        for d, versions in seen.items():
            if d in updated:
                # old, new, or (mid-window) both — never neither
                assert versions <= {old_src[d], "merged"}
            else:
                assert versions == {old_src[d]}

    n = crash_sweep(lambda: merge_rows(out, bp, key="doc_id",
                                       batch_size=64), invariant)
    assert n >= 3  # append commit choreography + delete sidecar+marker
    df = decode_corpus(out).to_pandas()
    assert df["doc_id"].is_unique and len(df) == orig.num_rows
    got = dict(zip(df["doc_id"], df["source"]))
    assert all(got[d] == ("merged" if d in updated else s)
               for d, s in old_src.items())


def test_crash_sweep_create_snapshot(ray_session, tmp_path):
    """create_snapshot through crashes: the snapshot is atomically
    absent or fully readable (mask copy included) at every point; a
    committed create makes the retry's 'already exists' refusal the
    convergence signal."""
    from colonnade_ray.pipelines import (
        create_snapshot,
        decode_snapshot,
        delete_where,
        list_snapshots,
    )

    out, orig = _setup(tmp_path)
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))  # masks ride the snapshot
    kept = sorted(d for d, n in zip(orig["doc_id"].to_pylist(),
                                    orig["n_tok"].to_pylist()) if n < med)

    def op():
        try:
            create_snapshot(out, "s")
        except ValueError as e:
            if "exists" not in str(e):
                raise

    def invariant():
        tags = [m["tag"] for m in list_snapshots(out)]
        assert tags in ([], ["s"])
        if tags:
            snap = decode_snapshot(out, "s", columns=["doc_id"])
            assert sorted(r["doc_id"] for r in snap.take_all()) == kept

    crash_sweep(op, invariant)
    assert [m["tag"] for m in list_snapshots(out)] == ["s"]


def test_crash_sweep_restore_snapshot(ray_session, tmp_path):
    """restore_snapshot on a single-cohort corpus is one commit: at
    every crash point the live state is EITHER fully pre-restore or
    fully post-restore, never a mix; the snapshot itself stays
    readable; the re-run converges."""
    from colonnade_ray.pipelines import (
        create_snapshot,
        decode_snapshot,
        restore_snapshot,
    )

    out, orig = _setup(tmp_path)
    create_snapshot(out, "t0")
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    vacuum_deletes(out)
    all_ids = sorted(orig["doc_id"].to_pylist())
    kept = sorted(d for d, n in zip(orig["doc_id"].to_pylist(),
                                    orig["n_tok"].to_pylist()) if n < med)

    def invariant():
        ids = sorted(_live(out, columns=["doc_id"])["doc_id"])
        assert ids in (all_ids, kept)  # atomically one state or the other
        snap = decode_snapshot(out, "t0", columns=["doc_id"])
        assert sorted(r["doc_id"] for r in snap.take_all()) == all_ids

    crash_sweep(lambda: restore_snapshot(out, "t0"), invariant)
    assert sorted(_live(out, columns=["doc_id"])["doc_id"]) == all_ids


def test_crash_sweep_restore_masked_snapshot(ray_session, tmp_path):
    """restore_snapshot of a snapshot taken WITH masks pending: the
    restore re-encodes the masked chunks under the snapshot's mask
    copy.  At every crash point the live state is the pre-restore
    state or the snapshot's, and the re-run converges."""
    from colonnade_ray.pipelines import create_snapshot, restore_snapshot

    out, orig = _setup(tmp_path)
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    create_snapshot(out, "masked")
    vacuum_deletes(out)
    delete_where(out, ("n_tok", "<", med // 2))
    vacuum_deletes(out)
    nt = dict(zip(orig["doc_id"].to_pylist(), orig["n_tok"].to_pylist()))
    snap = sorted(d for d, n in nt.items() if n < med)
    now = sorted(d for d in snap if nt[d] >= med // 2)

    def invariant():
        df = _live(out, columns=["doc_id", "n_tok"])
        assert sorted(df["doc_id"]) in (now, snap)
        assert all(nt[d] == n for d, n in zip(df["doc_id"], df["n_tok"]))

    crash_sweep(lambda: restore_snapshot(out, "masked"), invariant)
    assert sorted(_live(out, columns=["doc_id"])["doc_id"]) == snap
    assert committed_deletes(out) == []


def test_sweep_orphans_reclaims_abandoned_state(ray_session, tmp_path):
    """Abandoned crash states (never retried) are invisible to readers
    but hold bytes; sweep_orphans reclaims exactly them."""
    from colonnade_ray.pipelines import sweep_orphans
    from colonnade_ray.pipelines.encode_pipeline import active_groups

    out, orig = _setup(tmp_path)
    want = sorted(orig["doc_id"].to_pylist())
    med = int(np.median(orig["n_tok"].to_numpy()))

    # abandon a delete mid-commit (sidecar dir written, marker not)
    try:
        with _Injector(1):
            delete_where(out, ("n_tok", ">=", med))
    except CrashPoint:
        pass
    # abandon a replace mid-commit at a few different points
    for k in (1, 3):
        try:
            with _Injector(k):
                replace_where(out, ("source", "==", "src0"),
                              {"source": "x"})
        except CrashPoint:
            pass
    # a gc=False rewrite leaves the old groups shadowed on disk
    def bump(m):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        cols = {n: m[n] for n in m.column_names}
        cols["n_tok"] = _pc.add(m["n_tok"], _pa.scalar(0, _pa.int32()))
        return _pa.table(cols)
    from colonnade_ray.pipelines import update_where
    update_where(out, ("n_tok", ">=", 0), bump, gc=False)

    before = sorted(_live(out, columns=["doc_id"])["doc_id"])
    assert before == want
    res = sweep_orphans(out)
    assert res["shadowed_groups"] >= 1
    assert res["uncommitted_groups"] + res["meta_sidecars"] >= 1
    assert res["uncommitted_deletes"] == 1
    # answers unchanged; a second sweep finds nothing
    assert sorted(_live(out, columns=["doc_id"])["doc_id"]) == want
    assert sweep_orphans(out) == {
        "uncommitted_groups": 0, "shadowed_groups": 0,
        "meta_sidecars": 0, "uncommitted_deletes": 0}
    # on-disk state is now exactly the active groups
    import os as _os
    data = sorted(_os.listdir(_os.path.join(out, "data")))
    assert data == [f"group-{g}" for g in sorted(active_groups(out))]
