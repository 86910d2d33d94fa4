"""Per-chunk Bloom filters (stages/bloomzone.py): point-read pruning
on high-cardinality columns where zone bands overlap and prune
nothing."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.pipelines import count_where, decode_corpus, encode_corpus
from colonnade_ray.stages.bloomzone import build_bloom, probe_bloom
from colonnade_ray.stages.decode import chunk_may_match


def test_build_probe_roundtrip_kernel():
    rng = np.random.default_rng(7)
    ids = [f"id-{v:08x}" for v in rng.integers(0, 1 << 32, 500)]
    ent = build_bloom(pa.array(ids))
    assert all(probe_bloom(ent, x) for x in ids)  # no false negatives
    absent = [f"id-{v:08x}" for v in rng.integers(1 << 33, 1 << 34, 2000)]
    fp = sum(probe_bloom(ent, x) for x in absent) / len(absent)
    assert fp < 0.02  # 16 bits/key, k=4 -> ~0.24% expected
    # ints too
    vals = rng.integers(0, 1 << 40, 500)
    ent2 = build_bloom(pa.array(vals, pa.int64()))
    assert all(probe_bloom(ent2, int(v)) for v in vals)
    # unsupported types degrade to None (conservative)
    assert build_bloom(pa.array([1.5, 2.5])) is None


def _shuffled_corpus(tmp_path, n=800):
    """Rows with SHUFFLED string ids: every chunk's zone band spans
    the whole id range, so only the bloom can prune equality."""
    rng = np.random.default_rng(13)
    ids = [f"u-{v:010x}" for v in rng.permutation(n) * 2654435761 % (1 << 40)]
    inp = str(tmp_path / "inp")
    os.makedirs(inp)
    t = pa.table({
        "uid": pa.array(ids),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    pq.write_table(t, os.path.join(inp, "part-0.parquet"))
    return inp, t


def test_bloom_point_lookup_prunes_and_answers(ray_session, tmp_path):
    inp, t = _shuffled_corpus(tmp_path)
    out = str(tmp_path / "out")
    encode_corpus(inp, out, batch_size=64, resume=False,
                  bloom_cols=["uid"])
    target = t["uid"][17].as_py()
    assert count_where(out, ("uid", "==", target)) == 1
    assert count_where(out, ("uid", "==", "u-nonexistent")) == 0
    # pruning evidence: with the bloom, only ~1 chunk may match; with
    # the bloom stripped, every chunk's zone band admits the id
    from colonnade_ray.state.lineage import load_lineage

    lin = load_lineage(out)
    sj = lin["stats_json"].to_pylist()
    with_bloom = sum(
        chunk_may_match(s, ("uid", "==", target)) for s in sj)
    stripped = []
    for s in sj:
        d = json.loads(s)
        d.pop("__bloom__", None)
        stripped.append(json.dumps(d))
    without = sum(
        chunk_may_match(s, ("uid", "==", target)) for s in stripped)
    assert without == len(sj)  # zone bands alone prune nothing
    assert with_bloom <= max(2, len(sj) // 4)  # bloom kills ~all chunks
    # set-membership probes every value
    two = [t["uid"][3].as_py(), t["uid"][500].as_py()]
    assert count_where(out, ("uid", "in", two)) == 2
    # predicated decode takes the same pruned path
    got = decode_corpus(out, predicate=("uid", "==", target)).take_all()
    assert len(got) == 1 and got[0]["v"] == t["v"][17].as_py()


def test_bloom_absent_is_conservative(ray_session, tmp_path):
    """Corpora encoded WITHOUT bloom_cols behave exactly as before."""
    inp, t = _shuffled_corpus(tmp_path, n=200)
    out = str(tmp_path / "out")
    encode_corpus(inp, out, batch_size=64, resume=False)
    target = t["uid"][5].as_py()
    assert count_where(out, ("uid", "==", target)) == 1
    from colonnade_ray.state.lineage import load_lineage

    lin = load_lineage(out)
    assert all("__bloom__" not in json.loads(s)
               for s in lin["stats_json"].to_pylist())


def test_bloom_not_stale_after_update(ray_session, tmp_path):
    """A rewrite that changes values in a bloom-indexed column must not
    carry the old filter forward: re-encoded chunks RE-DERIVE their
    blooms over the new values (the sketches of the corpus's recorded
    `EncodeSpec`), so a point lookup for a value that only
    exists POST-update both finds it and stays prunable."""
    from colonnade_ray.pipelines import update_where
    from colonnade_ray.state.lineage import load_lineage

    inp, t = _shuffled_corpus(tmp_path, n=400)
    out = str(tmp_path / "out")
    encode_corpus(inp, out, batch_size=64, resume=False,
                  bloom_cols=["uid"])
    victim = t["uid"][42].as_py()
    fresh = "u-freshly-minted"
    assert count_where(out, ("uid", "==", fresh)) == 0

    def swap(matched):
        import pyarrow as _pa

        cols = {n: matched[n] for n in matched.column_names}
        cols["uid"] = _pa.array([fresh] * matched.num_rows, _pa.string())
        return _pa.table(cols)

    update_where(out, ("uid", "==", victim), swap)
    # the new value is found (a stale bloom would prune every chunk)
    assert count_where(out, ("uid", "==", fresh)) == 1
    assert count_where(out, ("uid", "==", victim)) == 0
    # EVERY chunk carries a filter again: untouched ones kept theirs,
    # rewritten ones re-derived over the post-update values
    sj = [json.loads(s) for s in
          load_lineage(out)["stats_json"].to_pylist()]
    kept = sum("__bloom__" in s for s in sj)
    assert kept == len(sj)
    # the re-derived filter is FRESH: exactly the chunks that may hold
    # `fresh` admit it, and the victim's old value probes absent in
    # chunks that were rewritten
    may_fresh = sum(chunk_may_match(json.dumps(s), ("uid", "==", fresh))
                    for s in sj)
    assert may_fresh >= 1
    assert sum(chunk_may_match(json.dumps(s), ("uid", "==", victim))
               for s in sj) < len(sj)
    # and the kept filters still prune: some chunk proves fresh absent
    pruned = sum(
        not chunk_may_match(json.dumps(s), ("uid", "==", fresh))
        for s in sj)
    assert pruned > 0


# ---------------------------------------------------------------------------
# HyperLogLog sketches (approx COUNT DISTINCT pushdown)


def test_hll_kernel_accuracy_and_merge():
    from colonnade_ray.stages.bloomzone import (
        build_hll,
        hll_estimate,
        hll_registers,
        merge_hll,
    )

    # error stays inside ~4 sigma of the p=10 bound across 4 decades
    for n in (50, 500, 5_000, 50_000):
        arr = pa.array([f"v{i}" for i in range(n)])
        est = hll_estimate(hll_registers(build_hll(arr)))
        assert abs(est - n) / n < 0.13, (n, est)
    # register max IS the union sketch (what makes shards mergeable)
    a = pa.array([f"v{i}" for i in range(0, 3000)])
    b = pa.array([f"v{i}" for i in range(1500, 5000)])
    u = pa.array([f"v{i}" for i in range(5000)])
    merged = merge_hll(hll_registers(build_hll(a)),
                       hll_registers(build_hll(b)))
    assert (merged == hll_registers(build_hll(u))).all()
    # int and string hash domains are independent but both supported
    assert build_hll(pa.array([1, 2, 3], pa.int64())) is not None
    # floats are not sketchable (same contract as the bloom)
    assert build_hll(pa.array([1.5, 2.5])) is None
    # nulls don't count as a value
    e = hll_estimate(hll_registers(build_hll(
        pa.array(["x", None, "x", None]))))
    assert abs(e - 1) < 0.2


def test_approx_distinct_sketch_first(ray_session, tmp_path):
    """encode(hll_cols=[...]) answers approx_distinct from lineage
    metadata alone; deletes/predicates scan only the affected chunks;
    estimates track the exact answer on every path."""
    from colonnade_ray.pipelines import approx_distinct, delete_where

    rng = np.random.default_rng(17)
    n = 16_000
    vals = rng.integers(0, 4_000, n)
    g = rng.integers(0, 4, n)
    t = pa.table({"doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
                  "u": pa.array(vals, pa.int64()),
                  "g": pa.array(g, pa.int64())})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "enc")
    # clustered on g so predicate chunks prove all-match -> sketch path
    encode_corpus(str(src), out, batch_size=512, cluster_by="g",
                  hll_cols=["u", "doc_id"])

    truth = len(np.unique(vals))
    est, st = approx_distinct(out, "u", return_stats=True)
    assert st["chunks_scanned"] == 0 and st["chunks_sketched"] > 0, st
    assert abs(est - truth) / truth < 0.10, (est, truth)

    est_id, st_id = approx_distinct(out, "doc_id", return_stats=True)
    assert st_id["chunks_scanned"] == 0
    assert abs(est_id - n) / n < 0.10

    # predicate on the clustered column: interior chunks prove
    # all-match and keep the sketch path; only boundary chunks scan
    tp = len(np.unique(vals[g >= 2]))
    estp, stp = approx_distinct(out, "u", predicate=("g", ">=", 2),
                                return_stats=True)
    assert stp["chunks_sketched"] > 0, stp
    assert stp["chunks_scanned"] <= 4, stp  # g-boundary chunks only
    assert abs(estp - tp) / tp < 0.10

    # a delete masks some chunks: those scan (HLL can't subtract),
    # untouched chunks keep answering from their sketch
    delete_where(out, ("g", "==", 0))
    live_truth = len(np.unique(vals[g != 0]))
    estd, std = approx_distinct(out, "u", return_stats=True)
    assert std["chunks_sketched"] > 0 and std["chunks_scanned"] > 0, std
    assert abs(estd - live_truth) / live_truth < 0.10

    # vacuum re-derives sketches over the surviving rows (recorded
    # sketch config): the corpus answers sketch-only again
    from colonnade_ray.pipelines import vacuum_deletes

    vacuum_deletes(out)
    estv, stv = approx_distinct(out, "u", return_stats=True)
    assert stv["chunks_scanned"] == 0, stv
    assert abs(estv - live_truth) / live_truth < 0.10

    # corpus encoded WITHOUT sketches: pure-scan fallback still answers
    out2 = str(tmp_path / "plain")
    encode_corpus(str(src), out2, batch_size=512)
    est2, st2 = approx_distinct(out2, "u", return_stats=True)
    assert st2["chunks_sketched"] == 0 and st2["chunks_scanned"] > 0
    assert abs(est2 - truth) / truth < 0.10


def test_auto_bloom_default_on_clustered(tmp_path, ray_session):
    """cluster_by encodes default the leading id-like non-cluster
    column into per-chunk Blooms (round-5 A/B decision): point
    lookups prune where the widened zone bands can't; unclustered
    encodes stay bloom-free; explicit bloom_cols=[] opts out."""
    import json as _json

    from colonnade_ray.pipelines import count_where, encode_corpus
    from colonnade_ray.pipelines.encode_pipeline import load_encode_spec
    from colonnade_ray.stages.decode import chunk_may_match

    rng = np.random.default_rng(61)
    n = 4000
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in rng.permutation(n)]),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")

    out_c = str(tmp_path / "clustered")
    encode_corpus(str(src), out_c, batch_size=256, cluster_by="v")
    assert list(load_encode_spec(out_c).bloom_cols) == ["doc_id"]
    lin = os.path.join(out_c, "_lineage")
    sj = []
    for f in os.listdir(lin):
        if f.endswith(".parquet"):
            sj += pq.read_table(os.path.join(lin, f),
                                columns=["stats_json"])["stats_json"].to_pylist()
    assert any("__bloom__" in _json.loads(s) for s in sj)
    probe = ("doc_id", "==", "d001234")
    may = sum(1 for s in sj if chunk_may_match(s, probe))
    assert may <= max(1, len(sj) // 4), (may, len(sj))
    assert count_where(out_c, probe) == 1

    out_p = str(tmp_path / "plain")
    encode_corpus(str(src), out_p, batch_size=256)
    assert not load_encode_spec(out_p).bloom_cols

    out_o = str(tmp_path / "optout")
    encode_corpus(str(src), out_o, batch_size=256, cluster_by="v",
                  bloom_cols=[])
    assert not load_encode_spec(out_o).bloom_cols
    lin = os.path.join(out_o, "_lineage")
    sj = []
    for f in os.listdir(lin):
        if f.endswith(".parquet"):
            sj += pq.read_table(os.path.join(lin, f),
                                columns=["stats_json"])["stats_json"].to_pylist()
    assert not any("__bloom__" in _json.loads(s) for s in sj)


def test_approx_quantiles_pushdown(tmp_path, ray_session):
    """Quantile pushdown over per-chunk grids: EXACT (== DuckDB
    quantile_disc) when quantile_k >= chunk rows, metadata-only on the
    sketched path, exact via fallback scan under deletes and for
    unsketched corpora, bounded rank error at small k, and grids
    re-derived by vacuum (the recorded EncodeSpec's sketches)."""
    import duckdb

    from colonnade_ray.pipelines import (
        approx_quantiles,
        delete_where,
        encode_corpus,
        vacuum_deletes,
    )

    rng = np.random.default_rng(67)
    n = 6000
    vals = rng.integers(-500, 100_000, n).astype(object)
    vals[::113] = None  # SQL aggregate null semantics
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "v": pa.array(list(vals), pa.int64()),
        "g": pa.array(rng.integers(0, 4, n), pa.int64()),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    df = t.to_pandas()
    qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]

    def truth(frame, qlist=qs):
        sql = "SELECT " + ", ".join(
            f"quantile_disc(v, {q})" for q in qlist) + " FROM frame"
        return list(duckdb.sql(sql).fetchone())

    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=256,
                  quantile_cols=["v"], quantile_k=256)
    got, st = approx_quantiles(out, "v", qs, return_stats=True)
    assert got == truth(df)
    assert st["chunks_scanned"] == 0 and st["chunks_sketched"] > 0

    # predicate routes only proven chunks through the sketch
    got_p = approx_quantiles(out, "v", [0.5], predicate=("g", "==", 2))
    assert got_p == truth(df[df.g == 2], [0.5])

    # unsketched corpus: full fallback, still exact
    plain = str(tmp_path / "plain")
    encode_corpus(str(src), plain, batch_size=256)
    got_u, st_u = approx_quantiles(plain, "v", qs, return_stats=True)
    assert got_u == truth(df)
    assert st_u["chunks_sketched"] == 0 and st_u["chunks_scanned"] > 0

    # deletes: masked chunks fall back, answers track the live rows;
    # vacuum re-derives the grids (sketch config survival) and the
    # corpus answers sketch-only again
    delete_where(out, ("v", ">=", 90_000))
    live = df[~(df.v >= 90_000)]
    assert approx_quantiles(out, "v", qs) == truth(live)
    vacuum_deletes(out)
    got_v, st_v = approx_quantiles(out, "v", qs, return_stats=True)
    assert got_v == truth(live)
    assert st_v["chunks_scanned"] == 0, st_v

    # small-k approx: bounded rank error, zero decode
    out2 = str(tmp_path / "approx")
    encode_corpus(str(src), out2, batch_size=2048,
                  quantile_cols=["v"], quantile_k=32)
    got_a, st_a = approx_quantiles(out2, "v", [0.5], return_stats=True)
    assert st_a["chunks_scanned"] == 0
    sv = np.sort(df.v.dropna().to_numpy())
    err = abs(np.searchsorted(sv, got_a[0]) / sv.size - 0.5)
    assert err < 0.05, err

    with pytest.raises(ValueError):
        approx_quantiles(out, "v", [1.5])


def test_approx_quantiles_exact_above_2_53(tmp_path, ray_session):
    """int64 values above 2^53 (where float64 has gaps of 2) come back
    exact from full grids (quantile_k >= chunk rows) and from the
    decode fallback alike; a float column is refused, not truncated."""
    from colonnade_ray.pipelines import approx_quantiles, encode_corpus

    n = 200
    v = (1 << 60) + np.arange(n, dtype=np.int64) * 3 + 1
    t = pa.table({"v": pa.array(v, pa.int64()),
                  "f": pa.array(np.linspace(0.5, 9.5, n))})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    want = [int(v[max(0, int(np.ceil(q * n)) - 1)]) for q in qs]
    sketched = str(tmp_path / "sketched")
    encode_corpus(str(src), sketched, batch_size=64,
                  quantile_cols=["v"], quantile_k=64)
    got, st = approx_quantiles(sketched, "v", qs, return_stats=True)
    assert got == want and st["chunks_scanned"] == 0, st
    plain = str(tmp_path / "plain")
    encode_corpus(str(src), plain, batch_size=64)
    assert approx_quantiles(plain, "v", qs) == want
    with pytest.raises(ValueError, match="integer"):
        approx_quantiles(plain, "f", qs)


def test_grouped_approx_quantiles_pushdown(tmp_path, ray_session):
    """Per-group quantiles: metadata-only on a group-clustered layout
    with full grids (== DuckDB quantile_disc GROUP BY), exact via
    decode fallback on mixed layouts and under deletes."""
    import duckdb
    import pandas as pd

    from colonnade_ray.pipelines import (
        delete_where,
        encode_corpus,
        grouped_approx_quantiles,
    )

    rng = np.random.default_rng(71)
    n = 6000
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "src": pa.array([f"s{x}" for x in rng.integers(0, 5, n)]),
        "v": pa.array(rng.integers(0, 50_000, n), pa.int64()),
    })
    src_dir = tmp_path / "in"
    src_dir.mkdir()
    pq.write_table(t, src_dir / "p0.parquet")
    df = t.to_pandas()
    qs = [0.25, 0.5, 0.9]

    def truth(frame):
        parts = [duckdb.sql(
            f"SELECT src, {q} AS q, CAST(quantile_disc(v, {q}) AS "
            "BIGINT) AS value FROM frame GROUP BY src").df()
            for q in qs]
        return pd.concat(parts).sort_values(["src", "q"]) \
            .reset_index(drop=True)[["src", "q", "value"]]

    out = str(tmp_path / "clustered")
    encode_corpus(str(src_dir), out, batch_size=256, cluster_by="src",
                  quantile_cols=["v"], quantile_k=256)
    got, st = grouped_approx_quantiles(out, "src", "v", qs,
                                       return_stats=True)
    pd.testing.assert_frame_equal(got, truth(df))
    assert st["chunks_sketched"] > st["chunks_scanned"], st

    plain = str(tmp_path / "plain")
    encode_corpus(str(src_dir), plain, batch_size=256)
    pd.testing.assert_frame_equal(
        grouped_approx_quantiles(plain, "src", "v", qs), truth(df))

    delete_where(out, ("v", ">=", 45_000))
    pd.testing.assert_frame_equal(
        grouped_approx_quantiles(out, "src", "v", qs),
        truth(df[df.v < 45_000]))
