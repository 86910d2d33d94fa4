"""The scan's two executors give the same answers.  A read that fits
one decode task's token budget runs in the driver; a larger one is a
Ray Data job (pipelines/encode_pipeline.map_encoded).  One small
corpus, with proven, maybe and mixed-group chunks, a partial delete
mask and a snapshot, runs every pushdown and corpus read under both.
"""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from colonnade_ray.pipelines import (
    aggregate_where,
    approx_distinct,
    approx_quantiles,
    count_where,
    create_snapshot,
    decode_corpus,
    decode_digest_corpus,
    decode_snapshot,
    delete_where,
    encode_corpus,
    encode_pipeline,
    group_aggregates,
    group_counts,
    grouped_approx_quantiles,
    grouped_topk_where,
    summary_where,
    topk_where,
)
from colonnade_ray.pipelines.chunk_plan import plan_chunks

N = 512
BAND = [("n_tok", ">=", 100), ("n_tok", "<", 400)]
GONE_AFTER_SNAPSHOT = 64  # rows n_tok < 64: chunk 0, deleted whole


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    """16 chunks of 32 rows clustered by n_tok; g = (n_tok + 16) // 64
    makes every other chunk span two groups, and n_tok == len(tokens)
    makes tokens store its lengths as a ref to n_tok.  Two rows are
    deleted before the snapshot, chunk 0 after it."""
    v = np.arange(N)
    t = pa.table({"doc_id": pa.array([f"d{i:05d}" for i in v]),
                  "n_tok": pa.array(v, pa.int64()),
                  "g": pa.array((v + 16) // 64, pa.int64()),
                  "tokens": pa.array([[int(i) % 7] * int(i) for i in v],
                                     pa.list_(pa.int32()))})
    base = tmp_path_factory.mktemp("executors")
    src = base / "in"
    src.mkdir()
    pq.write_table(t.take(np.random.default_rng(11).permutation(N)),
                   src / "p0.parquet")
    out = str(base / "enc")
    encode_corpus(str(src), out, batch_size=32, cluster_by="n_tok",
                  hll_cols=["doc_id"], quantile_cols=["n_tok"],
                  quantile_k=64)
    delete_where(out, ("n_tok", "in", [150, 301]))
    create_snapshot(out, "snap")
    delete_where(out, ("n_tok", "<", GONE_AFTER_SNAPSHOT))
    return out, t


def _rows(ds) -> list:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                         promote_options="default")
    return sorted(t.to_pylist(), key=repr)


def _plain(x):
    if isinstance(x, tuple):
        return tuple(_plain(e) for e in x)
    if isinstance(x, pa.Table):
        return x.to_pylist()
    if hasattr(x, "to_dict"):  # a pandas frame
        return x.to_dict("list")
    return x


READS = {
    "count_where": lambda o: count_where(o, BAND),
    "count_where_snapshot": lambda o: count_where(o, BAND, snapshot="snap"),
    "aggregate_where": lambda o: [aggregate_where(o, a, "n_tok", BAND)
                                  for a in ("sum", "min", "max")],
    "summary_where": lambda o: summary_where(o, "n_tok", BAND),
    "topk_where": lambda o: topk_where(o, "n_tok", k=10, predicate=BAND,
                                       tie_cols=["doc_id"], columns=["g"],
                                       return_stats=True),
    "grouped_topk_where": lambda o: grouped_topk_where(
        o, "g", "n_tok", k=3, tie_cols=["doc_id"], return_stats=True),
    "approx_distinct": lambda o: approx_distinct(o, "doc_id", predicate=BAND,
                                                 return_stats=True),
    "approx_quantiles": lambda o: approx_quantiles(
        o, "n_tok", [0.1, 0.5, 0.9], predicate=BAND, return_stats=True),
    "grouped_approx_quantiles": lambda o: grouped_approx_quantiles(
        o, "g", "n_tok", [0.5], return_stats=True),
    "group_counts": lambda o: group_counts(o, "g", "n_tok"),
    "group_aggregates": lambda o: group_aggregates(o, "g", "n_tok"),
    "decode_corpus": lambda o: _rows(decode_corpus(o, verify_checksum=True)),
    "decode_corpus_projected": lambda o: _rows(decode_corpus(
        o, verify_checksum=True, columns=["doc_id", "tokens"])),
    "decode_corpus_predicated": lambda o: _rows(decode_corpus(
        o, verify_checksum=True, columns=["doc_id"], predicate=BAND)),
    "decode_snapshot": lambda o: _rows(decode_snapshot(
        o, "snap", verify_checksum=True)),
    "decode_digest_corpus": lambda o: decode_digest_corpus(
        o, ["doc_id", "n_tok", "g", "tokens"], verify_checksum=True),
}


def test_executors_agree(corpus, monkeypatch):
    """Every pushdown and corpus read answers the same in the driver
    (the default budget, with Ray Data's read patched to raise, so no
    job starts) and as a Ray Data job (budget 0)."""
    import ray.data as rd

    out, t = corpus
    plan = plan_chunks(out, BAND)
    assert plan.proven and plan.maybe
    assert any(c.dmask is not None for c in plan.proven + plan.maybe)

    def refuse(*a, **k):
        raise AssertionError("a Ray Data read job started")

    with monkeypatch.context() as mp:
        mp.setattr(rd, "read_parquet", refuse)
        driver = {name: _plain(fn(out)) for name, fn in READS.items()}
    with monkeypatch.context() as mp:
        mp.setattr(encode_pipeline, "DECODE_TASK_TOKENS", 0)
        ray_job = {name: _plain(fn(out)) for name, fn in READS.items()}
    for name in READS:
        assert driver[name] == ray_job[name], name

    n = t["n_tok"]
    live = t.filter(pc.and_(
        pc.invert(pc.is_in(n, pa.array([150, 301], pa.int64()))),
        pc.greater_equal(n, GONE_AFTER_SNAPSHOT)))
    in_band = pc.and_(pc.greater_equal(live["n_tok"], 100),
                      pc.less(live["n_tok"], 400))
    assert driver["count_where"] == pc.sum(in_band.cast(pa.int64())).as_py()
    assert driver["decode_corpus"] == sorted(live.to_pylist(), key=repr)
    assert len(driver["decode_snapshot"]) == N - 2


def test_projected_read_parses_codecs_json_once(corpus, monkeypatch):
    """A projected read resolves lengths refs from every lineage row's
    ``codecs_json`` once per marker: a second projected decode of the
    unchanged corpus parses none of them."""
    from colonnade_ray.state.lineage import load_lineage

    out, _ = corpus
    codecs = set(load_lineage(out)["codecs_json"].to_pylist())
    parsed = []
    real = json.loads

    def loads(s, *a, **k):
        if isinstance(s, str) and s in codecs:
            parsed.append(s)
        return real(s, *a, **k)

    monkeypatch.setattr(encode_pipeline, "_LIN_CACHE", {})
    monkeypatch.setattr(json, "loads", loads)
    cols = ["doc_id", "tokens"]
    first = _rows(decode_corpus(out, columns=cols))
    assert parsed  # a cold cache parses every row once
    parsed.clear()
    assert _rows(decode_corpus(out, columns=cols)) == first
    assert parsed == []


def test_delete_where_sidecar_same_under_both_executors(corpus, tmp_path,
                                                        monkeypatch):
    """``delete_where`` marks through the same executors: on two copies
    of the corpus, a band with proven and partial chunks writes the
    same sidecar rows in the driver (one ``pq.write_table``) as a Ray
    job's ``write_parquet`` does."""
    from colonnade_ray.pipelines.deletes import _deletes_root

    out, _ = corpus
    band = [("n_tok", ">=", 90), ("n_tok", "<", 200)]
    got = {}
    for name, budget in (("driver", encode_pipeline.DECODE_TASK_TOKENS),
                         ("ray", 0)):
        copy = str(tmp_path / name)
        shutil.copytree(out, copy)
        with monkeypatch.context() as mp:
            mp.setattr(encode_pipeline, "DECODE_TASK_TOKENS", budget)
            res = delete_where(copy, band)
        t = pq.read_table(os.path.join(_deletes_root(copy),
                                       f"del-{res['delete_id']}"))
        got[name] = (res, sorted(t.to_pylist(), key=repr))
    assert got["driver"] == got["ray"]
    kinds = {r["kind"] for r in got["driver"][1]}
    assert kinds == {"all", "bitmap"}, kinds
