"""Schema evolution (pipelines/evolve.py): add_columns attaches
derived columns with old payloads copied verbatim; new columns are
first-class for decode, projection, and zone-map pushdown."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_corpus
from colonnade_ray.pipelines import (
    add_columns,
    aggregate_where,
    count_where,
    decode_corpus,
    delete_where,
    encode_corpus,
    vacuum_deletes,
)


def _tok_bucket_fn():
    # defined as a LOCAL closure so cloudpickle ships it by value —
    # Ray workers cannot import the tests package
    def _tok_bucket(t):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        return {"tok_bucket": _pc.divide(t["n_tok"], 100).cast(_pa.int64())}
    return _tok_bucket


def _setup(tmp_path, n_rows=600, **enc):
    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    synth_corpus(inp, n_rows, seed=23, rows_per_file=200)
    encode_corpus(inp, out, batch_size=64, resume=False, **enc)
    return inp, out, pq.read_table(inp)


def test_add_columns_roundtrip_and_pushdown(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    res = add_columns(out, _tok_bucket_fn(), ["n_tok"])
    assert res["columns"] == ["tok_bucket"] and res["augmented_groups"] >= 1
    dec = decode_corpus(out)
    assert set(dec.schema().names) == set(orig.column_names) | {"tok_bucket"}
    rows = dec.take_all()
    want = {d: n // 100 for d, n in zip(orig["doc_id"].to_pylist(),
                                        orig["n_tok"].to_pylist())}
    assert all(r["tok_bucket"] == want[r["doc_id"]] for r in rows)
    # untouched columns decode bit-identically
    got_tok = {r["doc_id"]: r["tokens"] for r in rows}
    for d, tk in zip(orig["doc_id"].to_pylist(), orig["tokens"].to_pylist()):
        assert list(got_tok[d]) == list(tk)
    # the new column is pushdown-capable: zone maps + __sums__ exist
    nb = np.asarray(orig["n_tok"].to_pylist()) // 100
    assert count_where(out, ("tok_bucket", ">=", 4)) == int((nb >= 4).sum())
    assert aggregate_where(out, "sum", "tok_bucket") == int(nb.sum())
    # projected decode of ONLY the new column
    proj = decode_corpus(out, columns=["tok_bucket"])
    assert proj.schema().names == ["tok_bucket"]
    assert sorted(r["tok_bucket"] for r in proj.take_all()) == \
        sorted(nb.tolist())


def test_add_columns_idempotent_and_append(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    add_columns(out, _tok_bucket_fn(), ["n_tok"])
    res2 = add_columns(out, _tok_bucket_fn(), ["n_tok"])
    assert res2["augmented_groups"] == 0 and res2["skipped_groups"] >= 1
    # append new data (new group WITHOUT the column), re-run augments
    # only the new group
    inp2 = str(tmp_path / "inp2")
    synth_corpus(inp2, 200, seed=29, rows_per_file=200)
    encode_corpus([os.path.join(inp2, f) for f in sorted(os.listdir(inp2))
                   if f.endswith(".parquet")],
                  out, batch_size=64, append=True)
    res3 = add_columns(out, _tok_bucket_fn(), ["n_tok"])
    assert res3["augmented_groups"] == 1
    dec = decode_corpus(out)
    assert dec.count() == len(orig) + 200
    assert "tok_bucket" in dec.schema().names


def test_add_columns_refuses_pending_deletes(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path)
    med = int(np.median(orig["n_tok"].to_numpy()))
    delete_where(out, ("n_tok", ">=", med))
    with pytest.raises(ValueError, match="vacuum_deletes"):
        add_columns(out, _tok_bucket_fn(), ["n_tok"])
    vacuum_deletes(out)
    add_columns(out, _tok_bucket_fn(), ["n_tok"])
    live = orig.filter(pc.less(orig["n_tok"], med))
    nb = np.asarray(live["n_tok"].to_pylist()) // 100
    assert count_where(out, ("tok_bucket", ">=", 3)) == int((nb >= 3).sum())


def test_add_columns_name_clash(ray_session, tmp_path):
    inp, out, orig = _setup(tmp_path, n_rows=200)
    with pytest.raises(ValueError, match="already exist"):
        add_columns(out, lambda t: {"n_tok": t["n_tok"]}, ["n_tok"])


def test_add_columns_checksums_and_verify(ray_session, tmp_path):
    """Full-chunk checksum is recomputed over old + new payloads —
    verified full decode still passes, and a corrupted new payload is
    caught."""
    inp, out, orig = _setup(tmp_path, n_rows=200)
    add_columns(out, _tok_bucket_fn(), ["n_tok"])
    assert decode_corpus(out, verify_checksum=True).count() == len(orig)
    # chunk ids were re-derived from content — the meta-inclusive
    # identity (blake2b over payload checksum + every colN_meta, see
    # stages/encode.py), NOT the old payload-only checksum prefix
    import hashlib
    import pyarrow.parquet as pq_

    gdirs = [os.path.join(out, "data", d)
             for d in os.listdir(os.path.join(out, "data"))]
    seen = 0
    for gdir in gdirs:
        for f in sorted(os.listdir(gdir)):
            if not f.endswith(".parquet"):
                continue
            t = pq_.read_table(os.path.join(gdir, f))
            for r in range(t.num_rows):
                plan = json.loads(t["plan_json"][r].as_py())
                idh = hashlib.blake2b(digest_size=8)
                idh.update(t["checksum"][r].as_py().encode())
                for i in range(len(plan)):
                    idh.update(t[f"col{i}_meta"][r].as_py().encode())
                    idh.update(b"\x00")
                assert t["chunk_id"][r].as_py() == idh.hexdigest()
                seen += 1
    assert seen > 0


def test_drop_columns_reclaims_and_guards_refs(ray_session, tmp_path):
    from colonnade_ray.pipelines import corpus_summary, drop_columns

    inp, out, orig = _setup(tmp_path)
    before = corpus_summary(out)["bytes_out"]
    # n_tok stores the lengths of tokens (cross-column dedup ref):
    # dropping it alone must refuse while tokens survives
    with pytest.raises(ValueError, match="lengths"):
        drop_columns(out, ["n_tok"])
    res = drop_columns(out, ["source"])
    assert res["rewritten_groups"] >= 1
    dec = decode_corpus(out, verify_checksum=True)
    assert set(dec.schema().names) == {"doc_id", "tokens", "n_tok"}
    assert dec.count() == len(orig)
    assert corpus_summary(out)["bytes_out"] < before
    # surviving columns still decode bit-identically + pushdown works
    nt = np.asarray(orig["n_tok"].to_pylist())
    assert count_where(out, ("n_tok", ">=", int(np.median(nt)))) == \
        int((nt >= int(np.median(nt))).sum())
    # dropping the list and its ref target TOGETHER is fine
    drop_columns(out, ["tokens", "n_tok"])
    assert decode_corpus(out).schema().names == ["doc_id"]


def test_rename_columns_follows_refs_and_stats(ray_session, tmp_path):
    from colonnade_ray.pipelines import rename_columns

    inp, out, orig = _setup(tmp_path)
    with pytest.raises(ValueError, match="already exist"):
        rename_columns(out, {"n_tok": "source"})
    res = rename_columns(out, {"n_tok": "length", "source": "origin"})
    assert res["rewritten_groups"] >= 1
    dec = decode_corpus(out, verify_checksum=True)
    assert set(dec.schema().names) == {"doc_id", "tokens", "length",
                                       "origin"}
    # tokens still decodes through the RENAMED lengths-ref target
    rows = dec.take_all()
    want_tok = {d: list(tk) for d, tk in zip(orig["doc_id"].to_pylist(),
                                             orig["tokens"].to_pylist())}
    assert all(list(r["tokens"]) == want_tok[r["doc_id"]] for r in rows)
    # zone maps moved with the rename: pushdown on the new name
    nt = np.asarray(orig["n_tok"].to_pylist())
    med = int(np.median(nt))
    assert count_where(out, ("length", ">=", med)) == int((nt >= med).sum())
    from colonnade_ray.pipelines import aggregate_where as aggw

    assert aggw(out, "sum", "length") == int(nt.sum())


def test_rename_and_drop_carry_the_encode_spec(ray_session, tmp_path):
    """The recorded EncodeSpec and every chunk's sketches follow a
    rename and a drop, so later writes cluster and sketch columns that
    exist under their current names."""
    from colonnade_ray.pipelines import drop_columns, rename_columns
    from colonnade_ray.pipelines.encode_pipeline import load_encode_spec
    from colonnade_ray.state.lineage import load_lineage

    inp, out, orig = _setup(tmp_path, n_rows=200, cluster_by="n_tok",
                            bloom_cols=["doc_id"], hll_cols=["n_tok"])
    rename_columns(out, {"n_tok": "length", "doc_id": "id"})
    spec = load_encode_spec(out)
    assert (spec.cluster_by, spec.bloom_cols, spec.hll_cols) == \
        ("length", ("id",), ("length",))
    for sj in load_lineage(out)["stats_json"].to_pylist():
        stats = json.loads(sj)
        assert set(stats["__bloom__"]) == {"id"}
        assert set(stats["__hll__"]) == {"length"}
    drop_columns(out, ["tokens", "length"])
    spec = load_encode_spec(out)
    assert (spec.cluster_by, spec.bloom_cols, spec.hll_cols) == \
        (None, ("id",), ())
    for sj in load_lineage(out)["stats_json"].to_pylist():
        assert "length" not in json.loads(sj).get("__hll__", {})


def test_schema_rewrite_refuses_pending_deletes(ray_session, tmp_path):
    from colonnade_ray.pipelines import drop_columns, rename_columns

    inp, out, orig = _setup(tmp_path, n_rows=200)
    delete_where(out, ("n_tok", ">=", int(np.median(orig["n_tok"].to_numpy()))))
    with pytest.raises(ValueError, match="vacuum_deletes"):
        drop_columns(out, ["source"])
    with pytest.raises(ValueError, match="vacuum_deletes"):
        rename_columns(out, {"source": "origin"})


def test_update_where_modifies_matching_rows(ray_session, tmp_path):
    """modifyWhen at corpus scale: matching rows rewrite through fn,
    everything else (rows AND zone-proven chunks) moves verbatim."""
    from colonnade_ray.pipelines import update_where

    inp, out, orig = _setup(tmp_path, cluster_by="n_tok")
    nt = orig["n_tok"].to_numpy()
    med = int(np.median(nt))

    def double_ntok(matched):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        cols = {n: matched[n] for n in matched.column_names}
        cols["n_tok"] = _pc.multiply(matched["n_tok"],
                                     _pa.scalar(2, _pa.int64()))
        return _pa.table(cols)

    res = update_where(out, ("n_tok", ">=", med), double_ntok)
    assert res["updated_groups"] >= 1
    dec = decode_corpus(out, verify_checksum=True)
    got = {r["doc_id"]: r["n_tok"] for r in dec.take_all()}
    for d, n in zip(orig["doc_id"].to_pylist(), orig["n_tok"].to_pylist()):
        assert got[d] == (2 * n if n >= med else n)
    # zone maps refreshed: pushdown sees the NEW values
    want = np.where(nt >= med, 2 * nt, nt)
    assert count_where(out, ("n_tok", ">=", 2 * med)) == \
        int((want >= 2 * med).sum())
    assert aggregate_where(out, "sum", "n_tok") == int(want.sum())


def test_replace_where_constant_and_untouched_tokens(ray_session, tmp_path):
    """replaceWhen: constant assignment; the untouched list column
    still round-trips bit-identically through the rewrite."""
    from colonnade_ray.pipelines import replace_where

    inp, out, orig = _setup(tmp_path)
    srcs = sorted(set(orig["source"].to_pylist()))
    victim = srcs[0]
    res = replace_where(out, ("source", "==", victim),
                        {"source": "redacted"})
    assert res["updated_groups"] >= 1
    dec = decode_corpus(out, verify_checksum=True)
    rows = dec.take_all()
    want_src = {d: ("redacted" if s == victim else s)
                for d, s in zip(orig["doc_id"].to_pylist(),
                                orig["source"].to_pylist())}
    want_tok = {d: list(tk) for d, tk in zip(orig["doc_id"].to_pylist(),
                                             orig["tokens"].to_pylist())}
    assert all(r["source"] == want_src[r["doc_id"]] for r in rows)
    assert all(list(r["tokens"]) == want_tok[r["doc_id"]] for r in rows)


def test_update_where_schema_guard_and_deletes_guard(ray_session, tmp_path):
    from colonnade_ray.pipelines import update_where

    inp, out, orig = _setup(tmp_path, n_rows=200)

    def bad_fn(matched):
        return matched.drop_columns(["source"])

    with pytest.raises(Exception, match="schema"):
        update_where(out, ("n_tok", ">=", 0), bad_fn)
    # corpus must be unchanged after the failed pass (old groups active)
    assert decode_corpus(out).count() == len(orig)
    delete_where(out, ("n_tok", ">=",
                       int(np.median(orig["n_tok"].to_numpy()))))
    with pytest.raises(ValueError, match="vacuum_deletes"):
        update_where(out, ("n_tok", ">=", 0), lambda t: t)
