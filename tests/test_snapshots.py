"""Named snapshots (pipelines/snapshots.py): time-travel reads pin
the visible state — active groups + committed masks — against any
later lifecycle; GC spares pinned groups until drop_snapshot."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_corpus
from colonnade_ray.pipelines import (
    aggregate_where,
    compact_corpus,
    count_where,
    create_snapshot,
    decode_corpus,
    decode_snapshot,
    delete_where,
    drop_snapshot,
    encode_corpus,
    group_counts,
    list_snapshots,
    merge_rows,
    pinned_groups,
    replace_where,
    sweep_orphans,
    vacuum_deletes,
)
from colonnade_ray.pipelines.encode_pipeline import active_groups


def _setup(tmp_path, n_rows=400, **enc_kwargs):
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    synth_corpus(inp, n_rows, seed=23, rows_per_file=200)
    encode_corpus(inp, out, batch_size=64, resume=False, **enc_kwargs)
    return inp, out, pq.read_table(inp)


def _ids(ds):
    return sorted(r["doc_id"] for r in ds.select_columns(["doc_id"]).take_all())


def test_snapshot_survives_delete_and_vacuum(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    create_snapshot(out, "t0")
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    # a snapshot taken WITH pending masks must reproduce the masked
    # state even after vacuum retires the live sidecars
    create_snapshot(out, "t1")
    vacuum_deletes(out)
    keep = sorted(
        d for d, n in zip(orig["doc_id"].to_pylist(),
                          orig["n_tok"].to_pylist()) if n < med)
    assert _ids(decode_corpus(out)) == keep
    assert _ids(decode_snapshot(out, "t0")) == \
        sorted(orig["doc_id"].to_pylist())
    assert _ids(decode_snapshot(out, "t1")) == keep
    # projected + predicated snapshot decode composes
    lo = int(np.percentile(orig["n_tok"].to_numpy(), 30))
    got = decode_snapshot(out, "t0", columns=["doc_id", "n_tok"],
                          predicate=("n_tok", ">=", lo))
    want = orig.filter(pa.compute.greater_equal(orig["n_tok"], lo))
    assert _ids(got) == sorted(want["doc_id"].to_pylist())
    # pushdowns answer "as of" too: count/sum/group over t0 see every
    # row, over t1 (and live) only the survivors
    nt = orig["n_tok"].to_numpy()
    assert count_where(out, ("n_tok", ">=", lo), snapshot="t0") == \
        int((nt >= lo).sum())
    assert aggregate_where(out, "sum", "n_tok", snapshot="t0") == \
        int(nt.sum())
    assert aggregate_where(out, "sum", "n_tok", snapshot="t1") == \
        int(nt[nt < med].sum()) == aggregate_where(out, "sum", "n_tok")
    gc_snap = group_counts(out, "source", snapshot="t0")
    want_src = orig.to_pandas()["source"].value_counts()
    assert {s: int(n) for s, n in zip(gc_snap["source"],
                                      gc_snap["n_rows"])} == \
        {s: int(n) for s, n in want_src.items()}


def test_snapshot_survives_rewrites_and_merge(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    create_snapshot(out, "before")
    victim = sorted(set(orig["source"].to_pylist()))[0]
    replace_where(out, ("source", "==", victim), {"source": "redacted"})
    batch = pa.table({
        "doc_id": orig["doc_id"].slice(0, 25),
        "tokens": pa.array([[1, 2]] * 25, pa.list_(pa.int32())),
        "n_tok": pa.array([2] * 25, pa.int32()),
        "source": pa.array(["merged"] * 25, pa.string()),
    })
    bdir = tmp_path / "b"
    bdir.mkdir()
    bp = str(bdir / "b0.parquet")
    pq.write_table(batch, bp)
    merge_rows(out, bp, key="doc_id")
    snap = decode_snapshot(out, "before").to_pandas()
    snap["tokens"] = snap["tokens"].map(tuple)
    exp = orig.to_pandas()
    exp["tokens"] = exp["tokens"].map(lambda x: tuple(int(v) for v in x))
    snap = snap.sort_values("doc_id").reset_index(drop=True)
    exp = exp.sort_values("doc_id").reset_index(drop=True)[snap.columns]
    assert snap.equals(exp)
    # live state DID change
    live = decode_corpus(out).to_pandas()
    assert (live["source"] == "merged").sum() == 25
    assert (live["source"] == victim).sum() == 0


def test_snapshot_pins_groups_against_gc(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    g0 = set(active_groups(out))
    create_snapshot(out, "pin")
    # rewrites with gc=True supersede every group; the pin keeps the
    # originals on disk, shadowed
    replace_where(out, ("n_tok", ">=", 0), {"source": "rewritten"})
    compact_corpus(out)
    assert pinned_groups(out) == g0
    assert g0 <= set(os.listdir(os.path.join(out, "data"))
                     and {d[len("group-"):]
                          for d in os.listdir(os.path.join(out, "data"))})
    assert not (g0 & set(active_groups(out)))  # shadowed, not active
    # sweep spares pinned groups
    sweep_orphans(out)
    assert _ids(decode_snapshot(out, "pin")) == \
        sorted(orig["doc_id"].to_pylist())
    snap_df = decode_snapshot(out, "pin").to_pandas()
    assert (snap_df["source"] == "rewritten").sum() == 0
    # drop + sweep reclaims them
    drop_snapshot(out, "pin")
    sweep_orphans(out)
    on_disk = {d[len("group-"):]
               for d in os.listdir(os.path.join(out, "data"))}
    assert not (g0 & on_disk)
    with pytest.raises(FileNotFoundError):
        decode_snapshot(out, "pin")
    # live reads unaffected throughout
    assert len(_ids(decode_corpus(out))) == orig.num_rows


def test_restore_snapshot_rolls_back(ray_session, tmp_path):
    from colonnade_ray.pipelines import restore_snapshot

    inp, out, orig = _setup(tmp_path)
    create_snapshot(out, "t0")
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    # refuses while masks are pending
    with pytest.raises(ValueError, match="vacuum_deletes"):
        restore_snapshot(out, "t0")
    vacuum_deletes(out)
    replace_where(out, ("n_tok", ">=", 0), {"source": "rewritten"})
    res = restore_snapshot(out, "t0")
    assert res["restored_cohorts"] >= 1
    live = decode_corpus(out, verify_checksum=True).to_pandas()
    exp = orig.to_pandas()
    live["tokens"] = live["tokens"].map(tuple)
    exp["tokens"] = exp["tokens"].map(lambda x: tuple(int(v) for v in x))
    live = live.sort_values("doc_id").reset_index(drop=True)
    exp = exp.sort_values("doc_id").reset_index(drop=True)[live.columns]
    assert live.equals(exp)
    # idempotent: a re-run (or crash-retry) finds its cohorts committed
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 0
    # the snapshot survives its own restore
    assert _ids(decode_snapshot(out, "t0")) == \
        sorted(orig["doc_id"].to_pylist())
    # pushdowns answer on the restored state
    assert count_where(out, ("n_tok", ">=", med)) == \
        int((orig["n_tok"].to_numpy() >= med).sum())


def test_restore_snapshot_with_pending_mask_snapshot(ray_session, tmp_path):
    """A snapshot taken WITH masks pending restores to the masked
    state, materialized (no sidecars in the restored corpus)."""
    from colonnade_ray.pipelines import restore_snapshot
    from colonnade_ray.pipelines.deletes import committed_deletes

    inp, out, orig = _setup(tmp_path)
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    create_snapshot(out, "masked")
    vacuum_deletes(out)
    batch = pa.table({
        "doc_id": pa.array(["doc-x1", "doc-x2"], pa.string()),
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": pa.array(["m", "m"], pa.string()),
    })
    bdir = tmp_path / "rb"
    bdir.mkdir()
    bp = str(bdir / "b0.parquet")
    pq.write_table(batch, bp)
    merge_rows(out, bp, key="doc_id")
    vacuum_deletes(out)  # merge's keyed masks: none matched, but retire
    restore_snapshot(out, "masked")
    keep = sorted(
        d for d, n in zip(orig["doc_id"].to_pylist(),
                          orig["n_tok"].to_pylist()) if n < med)
    assert _ids(decode_corpus(out)) == keep
    assert committed_deletes(out) == []


def test_restore_snapshot_of_fully_deleted_corpus(ray_session, tmp_path):
    """A snapshot whose masks delete every row restores to an empty
    live corpus: the rewrite writes no chunk rows, and the restore
    still commits (an empty lineage marker carrying the shadow)."""
    from colonnade_ray.pipelines import restore_snapshot

    inp, out, orig = _setup(tmp_path, n_rows=600)
    delete_where(out, ("n_tok", ">=", 0))
    create_snapshot(out, "empty")
    vacuum_deletes(out)
    assert restore_snapshot(out, "empty")["restored_cohorts"] == 1
    assert _ids(decode_corpus(out)) == []
    assert count_where(out, ("n_tok", ">=", 0)) == 0
    assert _ids(decode_snapshot(out, "empty")) == []


def test_restore_snapshot_of_emptied_corpus(ray_session, tmp_path):
    """A snapshot taken after every row was deleted AND vacuumed pins
    only groups without data files.  Restoring it after an append must
    still roll the live corpus back to zero rows: one empty restore
    group commits and shadows the rest."""
    from colonnade_ray.pipelines import restore_snapshot

    inp, out, orig = _setup(tmp_path, n_rows=200)
    delete_where(out, ("n_tok", ">=", 0))
    vacuum_deletes(out)
    create_snapshot(out, "empty")
    inp2 = str(tmp_path / "inp2")
    synth_corpus(inp2, 100, seed=29, rows_per_file=100)
    encode_corpus([os.path.join(inp2, f) for f in sorted(os.listdir(inp2))
                   if f.endswith(".parquet")],
                  out, batch_size=64, append=True)
    assert decode_corpus(out).count() == 100
    assert restore_snapshot(out, "empty")["restored_cohorts"] == 1
    assert _ids(decode_corpus(out)) == []
    assert count_where(out, ("n_tok", ">=", 0)) == 0
    assert _ids(decode_snapshot(out, "empty")) == []
    assert restore_snapshot(out, "empty")["restored_cohorts"] == 0


def test_restore_snapshot_again_after_pinned_rewrite(ray_session, tmp_path):
    """Restoring a snapshot a second time, after a rewrite superseded
    the first restore's group and a later snapshot pinned both groups:
    the live corpus must return to the snapshot again.  The second
    restore cannot reuse the first restore group (still committed,
    shadowed) and commits a fresh one."""
    from colonnade_ray.pipelines import restore_snapshot

    inp, out, orig = _setup(tmp_path, n_rows=200)
    create_snapshot(out, "t0")
    replace_where(out, ("n_tok", ">=", 0), {"source": "first"})
    restore_snapshot(out, "t0")
    create_snapshot(out, "t1")      # pins the first restore group
    replace_where(out, ("n_tok", ">=", 0), {"source": "second"})
    create_snapshot(out, "t2")      # pins the group that superseded it
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 1
    want = sorted(orig["source"].to_pylist())
    got = decode_corpus(out, columns=["source"]).to_pandas()
    assert sorted(got["source"]) == want
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 0
    assert sorted(r["source"] for r in decode_snapshot(
        out, "t2", columns=["source"]).take_all()) == ["second"] * 200


def test_restore_snapshot_again_after_append(ray_session, tmp_path):
    """Restore, append, restore the same snapshot again: the first
    restore group is still ACTIVE beside the appended group, so the
    second restore must not mistake it for a committed crash-retry
    cohort — it commits a fresh group that shadows both."""
    from colonnade_ray.pipelines import restore_snapshot

    inp, out, orig = _setup(tmp_path, n_rows=200)
    create_snapshot(out, "t0")
    replace_where(out, ("n_tok", ">=", 0), {"source": "first"})
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 1
    inp2 = str(tmp_path / "inp2")
    synth_corpus(inp2, 100, seed=29, rows_per_file=100)
    encode_corpus([os.path.join(inp2, f) for f in sorted(os.listdir(inp2))
                   if f.endswith(".parquet")],
                  out, batch_size=64, append=True)
    assert decode_corpus(out).count() == 300
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 1
    got = decode_corpus(out, columns=["doc_id", "source"]).to_pandas()
    assert len(got) == 200
    assert sorted(got["doc_id"]) == sorted(orig["doc_id"].to_pylist())
    assert sorted(got["source"]) == sorted(orig["source"].to_pylist())
    assert len(active_groups(out)) == 1
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 0


def test_restore_snapshot_brings_back_its_encode_spec(ray_session,
                                                      tmp_path):
    """The encode spec is part of a snapshot: restoring one taken
    before a rename of the cluster column brings back the old column
    name AND the spec that names it, so a later merge clusters and
    sketches the columns the restored rows have."""
    from colonnade_ray.pipelines import rename_columns, restore_snapshot
    from colonnade_ray.pipelines.encode_pipeline import load_encode_spec

    inp, out, orig = _setup(tmp_path, n_rows=200, cluster_by="n_tok",
                            hll_cols=["doc_id"])
    spec = load_encode_spec(out)
    create_snapshot(out, "t0")
    rename_columns(out, {"n_tok": "tok_count"})
    assert load_encode_spec(out).cluster_by == "tok_count"
    assert restore_snapshot(out, "t0")["restored_cohorts"] == 1
    assert load_encode_spec(out) == spec
    batch = pa.table({
        "doc_id": orig["doc_id"].slice(0, 10),
        "tokens": pa.array([[1, 2]] * 10, pa.list_(pa.int32())),
        "n_tok": pa.array([2] * 10, pa.int32()),
        "source": pa.array(["merged"] * 10, pa.string()),
    })
    bdir = tmp_path / "b"
    bdir.mkdir()
    bp = str(bdir / "b0.parquet")
    pq.write_table(batch, bp)
    merge_rows(out, bp, key="doc_id")
    live = decode_corpus(out, columns=["doc_id", "n_tok", "source"]) \
        .to_pandas()
    assert sorted(live["doc_id"]) == sorted(orig["doc_id"].to_pylist())
    assert (live["source"] == "merged").sum() == 10
    assert count_where(out, ("n_tok", "==", 2)) == \
        10 + int((orig["n_tok"].to_numpy()[10:] == 2).sum())


def test_snapshot_validation_and_torn_create(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path, n_rows=200)
    with pytest.raises(ValueError, match="tag"):
        create_snapshot(out, "bad/tag")
    create_snapshot(out, "a")
    with pytest.raises(ValueError, match="exists"):
        create_snapshot(out, "a")
    with pytest.raises(FileNotFoundError):
        drop_snapshot(out, "nope")
    # torn create: a staged .tmp dir is invisible and swept
    os.makedirs(os.path.join(out, "_snapshots", "snap-torn.tmp"))
    assert [m["tag"] for m in list_snapshots(out)] == ["a"]
    sweep_orphans(out)
    assert not os.path.exists(
        os.path.join(out, "_snapshots", "snap-torn.tmp"))
    # re-create over a torn stage converges
    os.makedirs(os.path.join(out, "_snapshots", "snap-b.tmp"))
    create_snapshot(out, "b")
    assert [m["tag"] for m in list_snapshots(out)] == ["a", "b"]
    assert _ids(decode_snapshot(out, "b")) == \
        sorted(orig["doc_id"].to_pylist())
