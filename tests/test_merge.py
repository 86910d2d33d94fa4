"""Keyed MERGE / upsert (pipelines/merge.py): incoming rows replace
same-key corpus rows and insert new keys.  Semantics twin: SQL
  anti-join corpus on incoming keys  UNION ALL  incoming.
Crash contract: append commit then delete commit; the window shows
duplicates (never missing rows) and a re-run converges."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_corpus
from colonnade_ray.pipelines import (
    count_where,
    decode_corpus,
    delete_where,
    deleted_row_count,
    encode_corpus,
    group_counts,
    merge_rows,
    vacuum_deletes,
)
from colonnade_ray.pipelines.encode_pipeline import active_groups


def _setup(tmp_path, n_rows=600, **enc_kwargs):
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    synth_corpus(inp, n_rows, seed=11, rows_per_file=200)
    encode_corpus(inp, out, batch_size=64, resume=False, **enc_kwargs)
    return inp, out, pq.read_table(inp)


def _merge_batch(tmp_path, orig, n_update=80, n_insert=40, tag="m1"):
    """Updated versions of the first ``n_update`` corpus rows (tokens
    reversed, source retagged) plus ``n_insert`` brand-new keys."""
    upd = orig.slice(0, n_update)
    rows = {
        "doc_id": upd["doc_id"].to_pylist()
        + [f"doc-new-{tag}-{i:05d}" for i in range(n_insert)],
        "tokens": [list(reversed(v)) for v in upd["tokens"].to_pylist()]
        + [[i, i + 1, i + 2] for i in range(n_insert)],
        "n_tok": upd["n_tok"].to_pylist() + [3] * n_insert,
        "source": [tag] * (n_update + n_insert),
    }
    t = pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.string()),
        "tokens": pa.array(rows["tokens"], pa.list_(pa.int32())),
        "n_tok": pa.array(rows["n_tok"], pa.int32()),
        "source": pa.array(rows["source"], pa.string()),
    })
    d = tmp_path / f"batch-{tag}"
    d.mkdir(exist_ok=True)
    p = str(d / "batch-0.parquet")
    pq.write_table(t, p)
    return p, t


def _visible(out):
    """doc_id -> (tokens, source) over the decoded corpus."""
    rows = decode_corpus(out).take_all()
    got = {}
    for r in rows:
        assert r["doc_id"] not in got, f"duplicate visible: {r['doc_id']}"
        got[r["doc_id"]] = (list(r["tokens"]), r["source"])
    return got


def _expected(orig, batch):
    keys = set(batch["doc_id"].to_pylist())
    exp = {
        d: (list(t), s)
        for d, t, s in zip(orig["doc_id"].to_pylist(),
                           orig["tokens"].to_pylist(),
                           orig["source"].to_pylist())
        if d not in keys
    }
    for d, t, s in zip(batch["doc_id"].to_pylist(),
                       batch["tokens"].to_pylist(),
                       batch["source"].to_pylist()):
        exp[d] = (list(t), s)
    return exp


def test_merge_updates_and_inserts(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    p, batch = _merge_batch(tmp_path, orig)
    res = merge_rows(out, p, key="doc_id")
    assert res["matched_keys"] == batch.num_rows
    assert res["appended_rows"] == batch.num_rows
    assert res["masked_rows"] == 80  # only the updated keys existed
    assert _visible(out) == _expected(orig, batch)


def test_merge_rerun_converges(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    p, batch = _merge_batch(tmp_path, orig)
    merge_rows(out, p, key="doc_id")
    before = _visible(out)
    res2 = merge_rows(out, p, key="doc_id")
    assert res2["appended_files"] == 0  # covered -> append skipped
    assert _visible(out) == before == _expected(orig, batch)


def test_merge_crash_window_shows_duplicates_then_converges(
        ray_session, tmp_path):
    """Simulate a crash after commit A (append) and before commit B
    (key-delete): both versions of an updated key are visible — never
    a missing row — and re-running the merge converges."""
    inp, out, orig = _setup(tmp_path)
    p, batch = _merge_batch(tmp_path, orig, n_insert=0)
    # commit A only — exactly what a crash inside merge_rows between
    # the two commits leaves behind
    encode_corpus(p, out, append=True, batch_size=64)
    rows = decode_corpus(out).take_all()
    ids = [r["doc_id"] for r in rows]
    assert len(ids) == orig.num_rows + batch.num_rows  # duplicates live
    assert len(set(ids)) == orig.num_rows
    # re-run the full merge: append skips, delete masks the old rows
    merge_rows(out, p, key="doc_id")
    assert _visible(out) == _expected(orig, batch)


def test_merge_validation(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path, n_rows=200)
    d = tmp_path / "bad"
    d.mkdir()
    dup = str(d / "dup.parquet")
    pq.write_table(pa.table({
        "doc_id": ["a", "a"],
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": ["x", "x"],
    }), dup)
    with pytest.raises(ValueError, match="not key-unique"):
        merge_rows(out, dup, key="doc_id")
    nul = str(d / "nul.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(["a", None], pa.string()),
        "tokens": pa.array([[1], [2]], pa.list_(pa.int32())),
        "n_tok": pa.array([1, 1], pa.int32()),
        "source": ["x", "x"],
    }), nul)
    with pytest.raises(ValueError, match="nulls"):
        merge_rows(out, nul, key="doc_id")


def test_writes_after_encode_keep_its_spec(ray_session, tmp_path):
    """merge_rows, vacuum_deletes and replace_where write chunks under
    the corpus's recorded EncodeSpec: every chunk carries the same
    Bloom and HLL column sets, and the merged rows are chunked at the
    recorded batch size and sorted on the cluster column."""
    import json

    from colonnade_ray.pipelines import replace_where
    from colonnade_ray.stages.decode import decode_chunk_row
    from colonnade_ray.state.lineage import load_lineage

    inp, out, orig = _setup(tmp_path, cluster_by="n_tok",
                            bloom_cols=["doc_id"], hll_cols=["doc_id", "n_tok"])
    p, batch = _merge_batch(tmp_path, orig)  # 120 rows, one file

    def same_sketches():
        for sj in load_lineage(out)["stats_json"].to_pylist():
            stats = json.loads(sj)
            assert set(stats.get("__bloom__", {})) == {"doc_id"}
            assert set(stats.get("__hll__", {})) == {"doc_id", "n_tok"}

    merge_rows(out, p, key="doc_id")
    same_sketches()
    vacuum_deletes(out)
    same_sketches()
    replace_where(out, ("source", "==", "m1"), {"source": "m2"})
    same_sketches()
    merged = []
    for gid in active_groups(out):
        with open(os.path.join(out, "_meta", f"group-{gid}.files.json")) as f:
            if p in json.load(f):
                gdir = os.path.join(out, "data", f"group-{gid}")
                merged += pq.read_table(gdir).to_pylist()
    assert sum(r["n_rows"] for r in merged) == batch.num_rows
    for row in merged:
        assert row["n_rows"] <= 64
        n_tok = decode_chunk_row(row, columns=["n_tok"])["n_tok"].to_pylist()
        assert n_tok == sorted(n_tok)


def test_merge_then_vacuum_and_pushdowns(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path, cluster_by="n_tok")
    p, batch = _merge_batch(tmp_path, orig)
    merge_rows(out, p, key="doc_id")
    exp = _expected(orig, batch)
    n_m1 = count_where(out, ("source", "==", "m1"))
    assert n_m1 == sum(1 for v in exp.values() if v[1] == "m1")
    gc = group_counts(out, "source").set_index("source")["n_rows"]
    assert int(gc["m1"]) == n_m1
    assert deleted_row_count(out) > 0
    vacuum_deletes(out)
    assert deleted_row_count(out) == 0
    assert _visible(out) == exp
    assert count_where(out, ("source", "==", "m1")) == n_m1


def test_second_merge_overwrites_first(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    p1, b1 = _merge_batch(tmp_path, orig, n_update=60, n_insert=20, tag="m1")
    merge_rows(out, p1, key="doc_id")
    # batch 2 re-touches 30 of batch 1's updated keys, one of its
    # inserted keys, and 30 untouched corpus keys
    after1 = _expected(orig, b1)
    keys2 = (b1["doc_id"].to_pylist()[:30]
             + ["doc-new-m1-00000"]
             + orig["doc_id"].to_pylist()[200:230])
    t2 = pa.table({
        "doc_id": pa.array(keys2, pa.string()),
        "tokens": pa.array([[9, 9]] * len(keys2), pa.list_(pa.int32())),
        "n_tok": pa.array([2] * len(keys2), pa.int32()),
        "source": pa.array(["m2"] * len(keys2), pa.string()),
    })
    d = tmp_path / "batch-m2"
    d.mkdir()
    p2 = str(d / "batch-0.parquet")
    pq.write_table(t2, p2)
    merge_rows(out, p2, key="doc_id")
    exp = dict(after1)
    for k in keys2:
        exp[k] = ([9, 9], "m2")
    assert _visible(out) == exp


def test_delete_scope_excludes_covering_groups(ray_session, tmp_path):
    """exclude_covering leaves key-matching rows of the excluded
    group alive — the primitive merge_rows builds on."""
    inp, out, orig = _setup(tmp_path, n_rows=200)
    some = sorted(orig["doc_id"].to_pylist()[:10])
    pre = len(active_groups(out))
    res = delete_where(out, ("doc_id", "in", some),
                       exclude_covering={
                           os.path.join(inp, f)
                           for f in os.listdir(inp)
                           if f.endswith(".parquet")})
    assert len(active_groups(out)) == pre
    assert res["rows_deleted"] == 0  # every group excluded
    got = decode_corpus(out).take_all()
    assert len(got) == orig.num_rows


def _write_changes(tmp_path, rows, tag):
    t = pa.table({
        "doc_id": pa.array(rows["doc_id"], pa.string()),
        "tokens": pa.array(rows["tokens"], pa.list_(pa.int32())),
        "n_tok": pa.array(rows["n_tok"], pa.int32()),
        "source": pa.array(rows["source"], pa.string()),
        "op": pa.array(rows["op"], pa.string()),
    })
    d = tmp_path / f"cdc-{tag}"
    d.mkdir(exist_ok=True)
    p = str(d / "changes-0.parquet")
    pq.write_table(t, p)
    return p, t


def test_apply_changes_upserts_and_deletes(ray_session, tmp_path):
    from colonnade_ray.pipelines import apply_changes

    inp, out, orig = _setup(tmp_path)
    ids = orig["doc_id"].to_pylist()
    upd, dele, new = ids[:30], ids[100:140], [f"doc-cdc-{i}" for i in range(10)]
    p, _ = _write_changes(tmp_path, {
        "doc_id": upd + new + dele,
        "tokens": [[5]] * (len(upd) + len(new)) + [[0]] * len(dele),
        "n_tok": [1] * (len(upd) + len(new) + len(dele)),
        "source": ["cdc"] * (len(upd) + len(new) + len(dele)),
        "op": ["upsert"] * (len(upd) + len(new)) + ["delete"] * len(dele),
    }, "a")
    res = apply_changes(out, p, key="doc_id")
    assert res["upserts"] == 40 and res["deletes"] == 40
    assert res["masked_rows_upsert"] == 30  # new keys masked nothing
    assert res["masked_rows_delete"] == 40
    got = _visible(out)
    exp = {d: (list(t), s) for d, t, s in zip(
        orig["doc_id"].to_pylist(), orig["tokens"].to_pylist(),
        orig["source"].to_pylist()) if d not in set(upd) | set(dele)}
    for d in upd + new:
        exp[d] = ([5], "cdc")
    assert got == exp
    # re-run converges (append skipped, masks re-OR)
    apply_changes(out, p, key="doc_id")
    assert _visible(out) == exp
    # vacuum composes
    vacuum_deletes(out)
    assert _visible(out) == exp


def test_apply_changes_validation(ray_session, tmp_path):
    from colonnade_ray.pipelines import apply_changes

    inp, out, orig = _setup(tmp_path, n_rows=200)
    base = {"tokens": [[1], [2]], "n_tok": [1, 1], "source": ["x", "x"]}
    p, _ = _write_changes(tmp_path, {
        "doc_id": ["a", "a"], "op": ["upsert", "delete"], **base}, "dup")
    with pytest.raises(ValueError, match="not key-unique"):
        apply_changes(out, p, key="doc_id")
    p, _ = _write_changes(tmp_path, {
        "doc_id": ["a", "b"], "op": ["upsert", "truncate"], **base}, "op")
    with pytest.raises(ValueError, match="unsupported ops"):
        apply_changes(out, p, key="doc_id")
    # delete-only batch works (no staged file, no append)
    victims = orig["doc_id"].to_pylist()[:5]
    p, _ = _write_changes(tmp_path, {
        "doc_id": victims, "tokens": [[0]] * 5, "n_tok": [0] * 5,
        "source": ["-"] * 5, "op": ["delete"] * 5}, "del")
    res = apply_changes(out, p, key="doc_id")
    assert res["upserts"] == 0 and res["masked_rows_delete"] == 5
    assert len(_visible(out)) == orig.num_rows - 5


def test_sweep_reclaims_abandoned_cdc_stage(ray_session, tmp_path):
    """An apply_changes crash before its merge commit leaves an
    uncovered staged parquet; sweep_orphans reclaims exactly it and
    leaves covered (load-bearing) stages alone."""
    from colonnade_ray.pipelines import apply_changes, sweep_orphans

    inp, out, orig = _setup(tmp_path, n_rows=200)
    p, _ = _write_changes(tmp_path, {
        "doc_id": ["doc-z1"], "tokens": [[1]], "n_tok": [1],
        "source": ["cdc"], "op": ["upsert"]}, "live")
    apply_changes(out, p, key="doc_id")
    staged_dir = os.path.join(out, "_staged")
    covered_stage = sorted(os.listdir(staged_dir))
    # fabricate an abandoned stage (crash before merge committed)
    orphan = os.path.join(staged_dir, "cdc-deadbeef.parquet")
    pq.write_table(pa.table({"doc_id": ["x"]}), orphan)
    open(os.path.join(staged_dir, "cdc-torn.parquet.tmp"), "w").close()
    sweep_orphans(out)
    assert sorted(os.listdir(staged_dir)) == covered_stage
    # the live corpus is untouched, and the CDC row survives
    assert "doc-z1" in _visible(out)
