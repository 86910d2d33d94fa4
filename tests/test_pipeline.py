"""End-to-end Ray pipeline tests: encode_corpus -> decode_corpus ->
bit-identical round-trip, lineage, resume, skew partitioning.

Graft of the reference's corpus conformance harness
(geolite-csv/test/Spec.hs:56-80: stream the corpus, any decode error
fails) plus the round-trip property at dataset scale."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from colonnade_ray.corpus import synth_rows
from colonnade_ray.pipelines import (
    corpus_summary,
    decode_corpus,
    encode_corpus,
    roundtrip_verify,
)

F1_COLS = ["doc_id", "tokens", "n_tok", "source"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("corpus")
    for i in range(3):
        t = synth_rows(400, seed=100 + i, start_id=i * 400)
        pq.write_table(t, d / f"part-{i:03d}.parquet")
    return str(d)


def test_encode_decode_roundtrip(corpus_dir, tmp_path, ray_session):
    import ray.data as rd

    out = str(tmp_path / "enc")
    summary = encode_corpus(corpus_dir, out, batch_size=256)
    assert summary["rows"] == 1200
    assert summary["chunks"] >= 3
    assert 0 < summary["bytes_out"] < summary["bytes_in"]

    decoded = decode_corpus(out)
    original = rd.read_parquet(corpus_dir)
    res = roundtrip_verify(original, decoded, F1_COLS)
    assert res["match"], res
    assert res["original"]["rows"] == 1200


def test_compression_beats_plain(corpus_dir, tmp_path, ray_session):
    out = str(tmp_path / "enc")
    s = encode_corpus(corpus_dir, out, batch_size=512)
    # strictly below the raw arrow bytes AND below 4 B/token plain
    assert s["bytes_out"] < s["bytes_in"]
    assert s["bytes_out"] < 4 * s["tokens"]


def test_lineage_records(corpus_dir, tmp_path, ray_session):
    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    lin = pq.read_table(os.path.join(out, "_lineage"))
    assert set(lin.column_names) >= {
        "fragment", "chunk_id", "n_rows", "n_tokens",
        "bytes_in", "bytes_out", "checksum", "codecs_json",
    }
    # per-partition codec choices recorded
    codecs = json.loads(lin["codecs_json"][0].as_py())
    assert len(codecs) == 4
    # fragments attribute back to input files (no shuffle in this run)
    frags = set(lin["fragment"].to_pylist())
    assert all(f.startswith("part-") for f in frags)


def test_exact_resume(corpus_dir, tmp_path, ray_session):
    out = str(tmp_path / "enc")
    s1 = encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    assert s1["resumed_groups"] == 0
    s2 = encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    assert s2["resumed_groups"] == 3  # nothing re-encoded
    assert s2["chunks"] == s1["chunks"]


def test_torn_write_reencoded(corpus_dir, tmp_path, ray_session):
    import shutil

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    # simulate a torn write: remove one lineage marker, keep data dir
    lin_root = os.path.join(out, "_lineage")
    victim = sorted(os.listdir(lin_root))[0]
    os.remove(os.path.join(lin_root, victim))
    s = encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    assert s["resumed_groups"] == 2
    import ray.data as rd

    decoded = decode_corpus(out)
    res = roundtrip_verify(rd.read_parquet(corpus_dir), decoded, F1_COLS)
    assert res["match"]


def _text_corpus(d, files: int = 3, rows: int = 400) -> str:
    """F1 shards plus a free-text column of 12 Zipf-drawn words, so
    every chunk's string column is FSST-coded with its own table."""
    rng = np.random.default_rng(5)
    vocab = ["".join(rng.choice(list("etaoinshrdlucmfw"), size=k))
             for k in rng.integers(3, 10, size=2000)]
    os.makedirs(d, exist_ok=True)
    for i in range(files):
        t = synth_rows(rows, seed=100 + i, start_id=i * rows)
        words = (rng.zipf(1.3, size=(rows, 12)) - 1) % len(vocab)
        text = [" ".join(vocab[w] for w in r) for r in words]
        pq.write_table(t.append_column("text", pa.array(text)),
                       os.path.join(d, f"part-{i:03d}.parquet"))
    return str(d)


def test_source_partitioned_encode(tmp_path, ray_session):
    """The mandated groupby-on-source + size-aware shuffle path, and
    the determinism contract on it: every committed chunk's bytes are
    a function of its own rows, so decoding a chunk and re-encoding
    it with ``encode_batch`` reproduces its lineage checksum."""
    import ray.data as rd

    from colonnade_ray.pipelines.encode_pipeline import load_pinned_dicts
    from colonnade_ray.stages.decode import decode_chunk_row
    from colonnade_ray.stages.encode import encode_batch

    src = _text_corpus(tmp_path / "src")
    out = str(tmp_path / "enc")
    encode_corpus(
        src, out, batch_size=128,
        partition_by="source", token_budget=50_000,
    )
    decoded = decode_corpus(out)
    res = roundtrip_verify(rd.read_parquet(src), decoded, F1_COLS + ["text"])
    assert res["match"], res

    lineage = pq.read_table(os.path.join(out, "_lineage"))
    dicts = load_pinned_dicts(out)
    stored, again = [], []
    for root, _, names in os.walk(os.path.join(out, "data")):
        for name in sorted(n for n in names if n.endswith(".parquet")):
            for row in pq.read_table(os.path.join(root, name)).to_pylist():
                rows = decode_chunk_row(row)
                enc = encode_batch(rows, shared_dicts=dicts)
                stored.append(row["checksum"])
                again.append(enc["checksum"][0])
    assert len(stored) == lineage.num_rows > 3
    assert sorted(stored) == sorted(lineage["checksum"].to_pylist())
    bad = sum(a != b for a, b in zip(stored, again))
    assert bad == 0, f"{bad} of {len(stored)} chunks do not re-encode to their checksum"


_ONE_CPU_CHILD = r"""
import os, sys
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from colonnade_ray.corpus import synth_rows
from colonnade_ray.pipelines import decode_corpus, encode_corpus, roundtrip_verify
src, out = sys.argv[1], sys.argv[2]
os.makedirs(src)
for i in range(2):
    pq.write_table(synth_rows(200, seed=7 + i, start_id=i * 200),
                   os.path.join(src, f"part-{i}.parquet"))
s = encode_corpus(src, out, batch_size=128, partition_by="source",
                  token_budget=20_000)
res = roundtrip_verify(rd.read_parquet(src), decode_corpus(out),
                       ["doc_id", "tokens", "n_tok", "source"])
print("RESULT", s["rows"], res["match"])
ray.shutdown()
"""


def test_source_partitioned_encode_one_cpu(tmp_path):
    """The partitioned encode completes on a one-CPU Ray cluster: no
    fixed encode pool may hold the only CPU while the read and sort
    tasks it waits on starve.  Own subprocess and Ray session (the
    suite's session has 4 CPUs); the whole process group, raylet
    included, is killed if it overruns."""
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    p = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, str(tmp_path / "src"),
         str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("partitioned encode did not finish within 120 s "
                    "on one CPU")
    assert p.returncode == 0, stderr[-3000:]
    assert "RESULT 400 True" in stdout, stdout[-2000:]


def test_no_op_takes_a_concurrency_parameter():
    """Parallelism is decided in one place (``util.default_concurrency``):
    no public callable of the pipelines, functions or sources modules
    (nor ``tokenized_documents``) takes a per-call ``concurrency``
    knob."""
    import importlib
    import inspect
    import pkgutil

    import colonnade_ray.functions
    import colonnade_ray.pipelines
    import colonnade_ray.sources

    mods = [importlib.import_module("colonnade_ray.corpus")]
    for pkg in (colonnade_ray.pipelines, colonnade_ray.functions,
                colonnade_ray.sources):
        mods += [importlib.import_module(f"{pkg.__name__}.{info.name}")
                 for info in pkgutil.iter_modules(pkg.__path__)]
    found = {f"{mod.__name__}.{n}": f
             for mod in mods for n, f in vars(mod).items()
             if callable(f) and not n.startswith("_")
             and getattr(f, "__module__", None) == mod.__name__}
    bad = []
    for name, f in found.items():
        try:
            params = inspect.signature(f).parameters
        except (TypeError, ValueError):
            continue
        if "concurrency" in params:
            bad.append(name)
    assert len(found) > 100
    assert bad == []


def test_checksum_detects_corruption(corpus_dir, tmp_path, ray_session):
    from colonnade_ray.errors import ChecksumError
    from colonnade_ray.stages.decode import decode_chunk_row
    from colonnade_ray.stages.encode import encode_batch

    t = synth_rows(50, seed=7, start_id=0)
    enc = pa.table(encode_batch(t))
    row = {c: enc[c][0].as_py() for c in enc.column_names}
    assert decode_chunk_row(row).num_rows == 50
    bad = dict(row)
    p = bytearray(bad["col1_payload"])
    p[len(p) // 2] ^= 0xFF
    bad["col1_payload"] = bytes(p)
    with pytest.raises(ChecksumError):
        decode_chunk_row(bad)


def test_csv_conformance_sink(corpus_dir, tmp_path, ray_session):
    """S3/S4 graft: one decoded plan -> CSV sink; re-read matches
    (scalar columns; CSV has no list type, as in the reference's
    scalar-only CSV world)."""
    import ray.data as rd

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)
    decoded = decode_corpus(out)
    csv_dir = str(tmp_path / "csv")
    decoded.select_columns(["doc_id", "n_tok", "source"]).write_csv(csv_dir)
    back = rd.read_csv(csv_dir)
    orig = rd.read_parquet(corpus_dir)
    from colonnade_ray.pipelines import roundtrip_verify

    res = roundtrip_verify(orig, back, ["doc_id", "n_tok", "source"])
    assert res["match"], res


def test_concurrent_group_encode(corpus_dir, tmp_path, ray_session):
    """DESIGN.md scale path: independent commit groups run from driver
    threads; correctness identical to sequential."""
    import ray.data as rd

    out = str(tmp_path / "enc")
    s = encode_corpus(
        corpus_dir, out, batch_size=256, group_size=1,
        max_concurrent_groups=3,
    )
    assert s["groups"] == 3 and s["resumed_groups"] == 0
    decoded = decode_corpus(out)
    res = roundtrip_verify(rd.read_parquet(corpus_dir), decoded, F1_COLS)
    assert res["match"], res
    # second run resumes all three concurrently
    s2 = encode_corpus(
        corpus_dir, out, batch_size=256, group_size=1, max_concurrent_groups=3
    )
    assert s2["resumed_groups"] == 3


def test_plan_names_subset_encoding(corpus_dir, tmp_path, ray_session):
    """A declared plan encodes ONLY its columns (lmap projection at the
    pipeline level); decode returns exactly that schema."""
    out = str(tmp_path / "enc")
    s = encode_corpus(corpus_dir, out, batch_size=256,
                      plan_names=["doc_id", "n_tok"])
    decoded = decode_corpus(out)
    schema = decoded.schema()
    assert schema.names == ["doc_id", "n_tok"]
    assert decoded.count() == 1200


def test_synth_corpus_deterministic(tmp_path, ray_session):
    from colonnade_ray.corpus import synth_corpus, synth_rows

    a = synth_rows(100, seed=5, start_id=0)
    b = synth_rows(100, seed=5, start_id=0)
    assert a.equals(b)
    d = str(tmp_path / "c")
    synth_corpus(d, 300, seed=7, rows_per_file=100)
    # idempotent: marker short-circuits
    import os

    files = sorted(os.listdir(d))
    synth_corpus(d, 300, seed=7, rows_per_file=100)
    assert sorted(os.listdir(d)) == files


def test_group_id_distinguishes_same_basenames():
    """Commit groups from different directories with identical shard
    basenames must never share a lineage marker (round-2 ADVICE fix)."""
    from colonnade_ray.pipelines.encode_pipeline import _group_id

    a = _group_id(["/in/a/part-0.parquet", "/in/a/part-1.parquet"])
    b = _group_id(["/in/b/part-0.parquet", "/in/b/part-1.parquet"])
    assert a != b
    # order-insensitive within a group, sensitive to membership
    assert _group_id(["/x/1.parquet", "/x/2.parquet"]) == _group_id(
        ["/x/2.parquet", "/x/1.parquet"]
    )
    assert _group_id(["/x/1.parquet"]) != _group_id(["/x/1.parquet", "/x/2.parquet"])


def test_projected_decode_and_zone_map_pushdown(ray_session, tmp_path):
    """Round-2 query-shaped decode: projection reads/decodes only the
    requested streams (per-column checksums), and a predicate prunes
    chunks via lineage zone maps before exact filtering."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import decode_corpus, encode_corpus

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    tokenized_documents("/root/testdata/sf0.001").write_parquet(inp)
    encode_corpus(inp, out, batch_size=128, partition_by="source", resume=False)
    orig = pq.read_table(inp)

    proj = pa.Table.from_pylist(
        decode_corpus(out, columns=["doc_id", "n_tok"]).take_all()
    )
    assert sorted(proj.column_names) == ["doc_id", "n_tok"]
    assert sorted(proj["doc_id"].to_pylist()) == sorted(orig["doc_id"].to_pylist())

    got = decode_corpus(out, predicate=("n_tok", "<", 50)).take_all()
    exp = sum(1 for v in orig["n_tok"].to_pylist() if v < 50)
    assert len(got) == exp
    both = decode_corpus(out, columns=["doc_id", "n_tok"],
                         predicate=("n_tok", ">=", 50)).take_all()
    assert len(both) == len(orig) - exp

    with pytest.raises(KeyError):
        decode_corpus(out, columns=["nope"])

    # conjunction: list of clauses AND'd, each pruning via zone maps
    band = decode_corpus(
        out, predicate=[("n_tok", ">=", 30), ("n_tok", "<", 50)]
    ).take_all()
    exp_band = sum(1 for v in orig["n_tok"].to_pylist() if 30 <= v < 50)
    assert len(band) == exp_band and exp_band > 0

    with pytest.raises(ValueError):
        decode_corpus(out, predicate=[("n_tok", "between", 3)]).take_all()


def test_zone_map_chunk_skip_logic():
    import json

    from colonnade_ray.stages.decode import chunk_may_match

    sj = json.dumps({"n_tok": [10, 99]})
    assert chunk_may_match(sj, ("n_tok", ">=", 50))
    assert not chunk_may_match(sj, ("n_tok", ">=", 100))
    assert not chunk_may_match(sj, ("n_tok", ">", 99))
    assert chunk_may_match(sj, ("n_tok", "<=", 10))
    assert not chunk_may_match(sj, ("n_tok", "<", 10))
    assert chunk_may_match(sj, ("n_tok", "==", 55))
    assert not chunk_may_match(sj, ("n_tok", "==", 9))
    assert chunk_may_match(sj, ("other_col", "==", 1))  # no stats -> keep
    assert chunk_may_match(None, ("n_tok", "==", 1))
    assert not chunk_may_match(json.dumps({"x": [7, 7]}), ("x", "!=", 7))


def test_projected_decode_detects_column_corruption(ray_session, tmp_path):
    """Per-column checksum: corrupting ONE payload stream must fail a
    projected decode of that column but not the chunk checksum path
    (which a projection cannot compute)."""
    import glob

    import pyarrow.parquet as pq

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import decode_corpus, encode_corpus

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    tokenized_documents("/root/testdata/sf0.001").write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, partition_by=None, resume=False)
    [f] = glob.glob(out + "/data/group-*/*.parquet")
    t = pq.read_table(f)
    names = __import__("json").loads(t["plan_json"][0].as_py())
    i = names.index("n_tok")
    col = f"col{i}_payload"
    corrupted = t.set_column(
        t.column_names.index(col), col,
        pa.array([b"\x00" + t[col][r].as_py()[1:] for r in range(len(t))], pa.binary()),
    )
    pq.write_table(corrupted, f, compression="none")
    from colonnade_ray.errors import ChecksumError

    from colonnade_ray.pipelines import decode_digest_corpus

    reads = {
        "projected": lambda v: decode_corpus(
            out, v, columns=["n_tok"]).take_all(),
        "full": lambda v: decode_corpus(out, v).take_all(),
        "predicated": lambda v: decode_corpus(
            out, v, predicate=("n_tok", ">=", 0)).take_all(),
        "digest": lambda v: decode_digest_corpus(out, names, v),
    }
    for name, read in reads.items():
        with pytest.raises(Exception) as e:
            read(True)
        assert "Checksum" in str(type(e.value).__name__) \
            or "checksum" in str(e.value).lower(), name
        read(False)  # the pushdowns' unverified scan reads the same bytes


def test_incremental_append_new_fragments(ray_session, tmp_path):
    """Growing-corpus workflow: re-running encode_corpus with
    group_size after new fragments land only encodes the NEW groups;
    decode sees the union."""
    import pyarrow.parquet as pq

    from colonnade_ray.corpus import synth_rows
    from colonnade_ray.pipelines import (
        completed_groups,
        decode_corpus,
        encode_corpus,
    )

    inp = tmp_path / "inp"
    inp.mkdir()
    out = str(tmp_path / "out")
    for i in range(2):
        pq.write_table(synth_rows(200, seed=i, start_id=i * 200), str(inp / f"f{i}.parquet"))
    s1 = encode_corpus(str(inp), out, batch_size=128, group_size=1, resume=True)
    assert s1["groups"] == 2 and s1["resumed_groups"] == 0
    # two new fragments arrive
    for i in range(2, 4):
        pq.write_table(synth_rows(200, seed=i, start_id=i * 200), str(inp / f"f{i}.parquet"))
    s2 = encode_corpus(str(inp), out, batch_size=128, group_size=1, resume=True)
    assert s2["groups"] == 4 and s2["resumed_groups"] == 2  # old groups skipped
    assert len(completed_groups(out)) == 4
    assert decode_corpus(out).count() == 800


def test_projected_decode_heterogeneous_group_plans(ray_session, tmp_path):
    """Round-2 ADVICE fix: groups encoded from inputs with different
    column ORDERS must each resolve their own colN projection — the
    first group's plan cannot speak for the rest."""
    import numpy as np
    import pyarrow.parquet as pq

    from colonnade_ray.pipelines import decode_corpus, encode_corpus

    def _tbl(ids, reorder):
        toks = pa.array([[i, i + 1] for i in ids], pa.list_(pa.int32()))
        cols = {
            "doc_id": pa.array([f"d{i}" for i in ids]),
            "tokens": toks,
            "n_tok": pa.array(np.full(len(ids), 2, np.int32)),
            "source": pa.array(["s"] * len(ids)),
        }
        names = list(cols)[::-1] if reorder else list(cols)
        return pa.table({n: cols[n] for n in names})

    in_a = str(tmp_path / "a"); in_b = str(tmp_path / "b")
    for d in (in_a, in_b):
        __import__("os").makedirs(d)
    pq.write_table(_tbl(range(0, 40), reorder=False), in_a + "/part-0.parquet")
    pq.write_table(_tbl(range(40, 90), reorder=True), in_b + "/part-0.parquet")
    out = str(tmp_path / "out")
    encode_corpus(in_a, out, batch_size=64, resume=True, transport=False)
    encode_corpus(in_b, out, batch_size=64, resume=True, transport=False)

    proj = pa.Table.from_pylist(
        decode_corpus(out, columns=["doc_id", "n_tok"]).take_all()
    )
    assert sorted(proj.column_names) == ["doc_id", "n_tok"]
    assert sorted(proj["doc_id"].to_pylist()) == sorted(f"d{i}" for i in range(90))
    assert proj["n_tok"].to_pylist() == [2] * 90


def test_in_predicate_zone_and_exact(ray_session, tmp_path):
    """'in' predicate: zone maps prune chunks whose [min,max] excludes
    every listed value; survivors exact-filter to set membership; the
    CLI parser accepts 'col in a,b,c'."""
    import json

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import decode_corpus, encode_corpus
    from colonnade_ray.stages.decode import chunk_may_match
    from tools.decode_job import parse_predicate

    sj = json.dumps({"n_tok": [10, 99]})
    assert chunk_may_match(sj, ("n_tok", "in", [5, 50]))
    assert not chunk_may_match(sj, ("n_tok", "in", [5, 100]))

    assert parse_predicate("doc_id in 3,5,8") == ("doc_id", "in", [3, 5, 8])
    assert parse_predicate("src in a, b") == ("src", "in", ["a", "b"])

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    tokenized_documents("/root/testdata/sf0.001").write_parquet(inp)
    encode_corpus(inp, out, batch_size=128, partition_by=None, resume=False)
    # tokenized doc_id is a STRING column; int list casts to match
    ids = [3, 250, 499]
    got = decode_corpus(out, columns=["doc_id", "n_tok"],
                        predicate=[("doc_id", "in", ids)]).to_pandas()
    assert sorted(got["doc_id"].tolist(), key=int) == [str(i) for i in ids]
    # int zone maps actually prune: n_tok membership hits a subset
    got2 = decode_corpus(out, columns=["doc_id", "n_tok"],
                         predicate=[("n_tok", "in", [77])]).to_pandas()
    assert (got2["n_tok"] == 77).all() and len(got2) > 0


def test_append_mode_encodes_only_new_files(ray_session, tmp_path):
    """append=True: a second run over a grown input dir encodes only
    the new files (old groups untouched on disk), and the decoded
    corpus equals a from-scratch encode of everything."""
    import glob
    import os

    import ray.data as rd

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import decode_corpus, encode_corpus
    from colonnade_ray.pipelines.encode_pipeline import (
        dataset_digest,
        encoded_input_files,
    )

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    full = tokenized_documents("/root/testdata/sf0.001")
    cols = full.schema().names
    full.repartition(4).write_parquet(inp)
    parts = sorted(glob.glob(inp + "/*.parquet"))
    assert len(parts) >= 2, "need multiple fragments for the append split"
    half = parts[: len(parts) // 2]

    s1 = encode_corpus(half, out, batch_size=512, partition_by=None,
                       group_size=1)
    assert set(encoded_input_files(out)) == set(half)
    mtimes = {f: os.path.getmtime(f)
              for f in glob.glob(out + "/data/group-*/*.parquet")}

    s2 = encode_corpus(inp, out, batch_size=512, partition_by=None,
                       group_size=1, append=True)
    assert s2["appended_files"] == len(parts) - len(half)
    for f, m in mtimes.items():  # old group files untouched
        assert os.path.getmtime(f) == m
    # idempotent: a third append run encodes nothing
    s3 = encode_corpus(inp, out, batch_size=512, partition_by=None,
                       group_size=1, append=True)
    assert s3["appended_files"] == 0 and s3["groups"] == 0

    dec = decode_corpus(out)
    assert dataset_digest(dec, cols) == dataset_digest(
        rd.read_parquet(inp), cols)


def test_compact_corpus_merges_groups_without_reencode(ray_session, tmp_path):
    """Compaction folds many committed groups into one, moving chunk
    rows verbatim; decode digest is unchanged, summaries don't double
    count, append still skips covered files, and gc=False leaves the
    old groups shadowed but intact."""
    import glob

    import ray.data as rd

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import (
        active_groups,
        compact_corpus,
        corpus_summary,
        decode_corpus,
        encode_corpus,
    )
    from colonnade_ray.pipelines.encode_pipeline import dataset_digest

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    tokenized_documents("/root/testdata/sf0.001").repartition(4).write_parquet(inp)
    cols = rd.read_parquet(inp).schema().names
    s = encode_corpus(inp, out, batch_size=512, partition_by=None, group_size=1)
    assert s["groups"] >= 4
    before = dataset_digest(decode_corpus(out), cols)
    sum_before = corpus_summary(out)

    r = compact_corpus(out, gc=False)
    assert r["compacted_groups"] >= 4 and r["active_groups"] == 1
    assert dataset_digest(decode_corpus(out), cols) == before
    sum_after = corpus_summary(out)
    assert sum_after["rows"] == sum_before["rows"]
    assert sum_after["tokens"] == sum_before["tokens"]

    # append over the same dir: nothing to add (merged sidecar covers all)
    s2 = encode_corpus(inp, out, batch_size=512, partition_by=None,
                       group_size=1, append=True)
    assert s2["appended_files"] == 0

    # resume-mode re-run: shadowed gids count as committed
    s3 = encode_corpus(inp, out, batch_size=512, partition_by=None, group_size=1)
    assert s3["resumed_groups"] == 4

    # gc pass removes the shadowed groups from disk
    compact_corpus(out, gc=True)  # no-op merge (1 active), but idempotent
    assert len(active_groups(out)) == 1
    assert dataset_digest(decode_corpus(out), cols) == before


def test_compact_corpus_keeps_plan_cohorts_separate(ray_session, tmp_path):
    """Groups encoded with different column plans have different
    parquet schemas: compaction must merge within a cohort only, and
    projected decode keeps working per cohort."""
    import ray.data as rd

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import (
        active_groups,
        compact_corpus,
        decode_corpus,
        encode_corpus,
    )

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    tokenized_documents("/root/testdata/sf0.001").repartition(4).write_parquet(inp)
    import glob

    parts = sorted(glob.glob(inp + "/*.parquet"))
    # 2 groups with the full plan, 2 with a projected plan
    encode_corpus(parts[:2], out, batch_size=512, partition_by=None, group_size=1)
    encode_corpus(parts[2:], out, batch_size=512, partition_by=None, group_size=1,
                  plan_names=["doc_id", "n_tok"])
    assert len(active_groups(out)) == 4
    r = compact_corpus(out)
    assert r["cohorts"] == 2 and len(active_groups(out)) == 2
    got = decode_corpus(out, columns=["doc_id", "n_tok"]).to_pandas()
    assert len(got) == rd.read_parquet(inp).count()


def test_string_zone_maps_prune_and_stay_correct(ray_session, tmp_path):
    """String columns now carry lexicographic [min,max] zone bounds:
    chunk_may_match prunes string predicates, over-long maxima drop the
    entry (a truncated max would under-bound), and id-extraction decode
    stays exact."""
    import json

    from colonnade_ray.stages.decode import chunk_may_match
    from colonnade_ray.stages.encode import _zone_stat

    sj = json.dumps({"doc_id": ["100", "399"]})
    assert chunk_may_match(sj, ("doc_id", "==", "250"))
    assert not chunk_may_match(sj, ("doc_id", "==", "500"))
    assert not chunk_may_match(sj, ("doc_id", "in", ["5", "99"]))
    assert chunk_may_match(sj, ("doc_id", "in", ["5", "25"]))   # "25" in range
    assert chunk_may_match(sj, ("doc_id", "==", 250))           # non-str: keep
    assert chunk_may_match(sj, ("doc_id", ">=", "399"))
    assert not chunk_may_match(sj, ("doc_id", ">", "399"))

    assert _zone_stat(pa.array(["b", "a", "c"])) == ["a", "c"]
    assert _zone_stat(pa.array(["a", "z" * 100])) is None  # unsafe max
    long_min = pa.array(["m" * 100, "z"])
    assert _zone_stat(long_min) == ["m" * 64, "z"]  # truncated min is safe


def test_group_level_zone_pruning(ray_session, tmp_path):
    """A predicate that excludes every chunk of a group drops that
    group's files from the read list entirely; a predicate excluding
    ALL groups returns an empty (not error) result."""
    import pyarrow.parquet as pq

    from colonnade_ray.corpus import synth_rows
    from colonnade_ray.pipelines import decode_corpus, encode_corpus

    d = tmp_path / "in"
    d.mkdir()
    # two fragments with DISJOINT n_tok ranges -> two groups with
    # disjoint zone maps
    lo = synth_rows(200, seed=1, start_id=0)
    hi = synth_rows(200, seed=2, start_id=200)
    import numpy as np
    import pyarrow as pa

    def force_ntok(t, lo_v, hi_v):
        n = (np.arange(len(t)) % (hi_v - lo_v) + lo_v).astype(np.int32)
        return t.set_column(t.column_names.index("n_tok"), "n_tok",
                            pa.array(n, pa.int32()))

    pq.write_table(force_ntok(lo, 10, 50), d / "a.parquet")
    pq.write_table(force_ntok(hi, 1000, 1050), d / "b.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(d), out, batch_size=512, partition_by=None, group_size=1)
    got = decode_corpus(out, columns=["doc_id", "n_tok"],
                        predicate=[("n_tok", ">=", 1000)]).to_pandas()
    assert len(got) == 200 and (got["n_tok"] >= 1000).all()
    empty = decode_corpus(out, columns=["doc_id", "n_tok"],
                          predicate=[("n_tok", ">", 5000)]).to_pandas()
    assert len(empty) == 0


def test_count_where_pushdown_matches_decode(corpus_dir, tmp_path, ray_session):
    """count_where == the decoded-filter count for every operator, and
    the metadata-only fast path (all-match chunks contribute n_rows
    without decode) is exercised: a predicate the WHOLE corpus
    satisfies must touch zero payloads."""
    from colonnade_ray.pipelines import count_where, decode_corpus
    from colonnade_ray.stages.decode import chunk_all_match

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)
    full = decode_corpus(out, columns=["n_tok"]).to_pandas()["n_tok"]

    for pred in [("n_tok", ">=", int(full.median())),
                 ("n_tok", "<", 100),
                 ("n_tok", "==", int(full.iloc[0])),
                 ("n_tok", ">=", -1)]:          # everything matches
        assert count_where(out, pred) == int(
            (_exact_mask(full, pred)).sum()), pred
    # AND of two clauses
    two = [("n_tok", ">=", 10), ("n_tok", "<", 400)]
    assert count_where(out, two) == int(
        (_exact_mask(full, two[0]) & _exact_mask(full, two[1])).sum())

    # the everything-matches predicate must be provable from stats
    # alone on every chunk (all values >= -1, column has no nulls)
    import pyarrow.parquet as pq2
    lin_dir = os.path.join(out, "_lineage")
    sj = []
    for f in os.listdir(lin_dir):
        if f.endswith(".parquet"):
            sj += pq2.read_table(
                os.path.join(lin_dir, f), columns=["stats_json"]
            )["stats_json"].to_pylist()
    assert sj and all(chunk_all_match(s, ("n_tok", ">=", -1)) for s in sj)


def _exact_mask(s, pred):
    col, op, v = pred
    import operator as _op

    return {"==": _op.eq, "!=": _op.ne, ">": _op.gt, ">=": _op.ge,
            "<": _op.lt, "<=": _op.le}[op](s, v)


def test_aggregate_where_pushdown(corpus_dir, tmp_path, ray_session):
    """min/max/sum pushdown equals the decoded ground truth, with and
    without predicates; the no-predicate path answers min/max purely
    from zone bounds and sum from stored chunk sums."""
    from colonnade_ray.pipelines import aggregate_where, decode_corpus

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)
    full = decode_corpus(out, columns=["n_tok"]).to_pandas()["n_tok"]

    assert aggregate_where(out, "min", "n_tok") == int(full.min())
    assert aggregate_where(out, "max", "n_tok") == int(full.max())
    assert aggregate_where(out, "sum", "n_tok") == int(full.sum())

    med = int(full.median())
    sel = full[full >= med]
    pred = ("n_tok", ">=", med)
    assert aggregate_where(out, "min", "n_tok", pred) == int(sel.min())
    assert aggregate_where(out, "max", "n_tok", pred) == int(sel.max())
    assert aggregate_where(out, "sum", "n_tok", pred) == int(sel.sum())
    # empty match set
    assert aggregate_where(out, "sum", "n_tok", ("n_tok", "<", -5)) is None


def test_zone_proof_properties():
    """Hypothesis: for any int column (with nulls) and any predicate,
    chunk_all_match=True implies EVERY non-null row matches and zero
    nulls; chunk_may_match=False implies NO row matches.  The
    metadata proofs must never mis-count.  An ``in`` list mixing
    probeable (int) and unprobeable (bool, float) values, against the
    chunk's Bloom filter, classifies exactly as the per-value probe
    says."""
    import json as _json

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from colonnade_ray.stages.bloomzone import build_bloom, probe_bloom
    from colonnade_ray.stages.decode import (
        ChunkClassifier,
        chunk_all_match,
        chunk_may_match,
    )

    vals_s = st.lists(st.one_of(st.integers(-50, 50), st.none()),
                      min_size=1, max_size=30)
    op_s = st.sampled_from(["==", "!=", ">", ">=", "<", "<=", "in"])
    mixed_s = st.lists(st.one_of(st.integers(-55, 55), st.booleans(),
                                 st.floats(-55, 55)),
                       min_size=1, max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(vals_s, op_s, st.integers(-55, 55),
           st.lists(st.integers(-55, 55), min_size=1, max_size=4), mixed_s)
    def prop(vals, op, v, vset, mixed):
        nn = [x for x in vals if x is not None]
        if not nn:
            return
        stats = {"__nulls__": {}, "__sums__": {"c": sum(nn)},
                 "c": [min(nn), max(nn)]}
        n_null = len(vals) - len(nn)
        if n_null:
            stats["__nulls__"]["c"] = n_null
        sj = _json.dumps(stats)
        pred = ("c", "in", vset) if op == "in" else ("c", op, v)

        def row_match(x):
            if op == "in":
                return x in vset
            return {"==": x == v, "!=": x != v, ">": x > v,
                    ">=": x >= v, "<": x < v, "<=": x <= v}[op]

        matches = [row_match(x) for x in nn]
        if chunk_all_match(sj, pred):
            assert all(matches) and n_null == 0, (vals, pred)
        if not chunk_may_match(sj, pred):
            assert not any(matches), (vals, pred)

        ent = build_bloom(pa.array(nn, pa.int64()))
        bloomed = dict(stats, __bloom__={"c": ent})
        mpred = ("c", "in", mixed)
        may = ChunkClassifier([mpred]).may(bloomed)
        assert may == (chunk_may_match(sj, mpred)
                       and any(probe_bloom(ent, x) for x in mixed)), \
            (vals, mixed)
        if not may:
            assert not any(x == y for x in nn for y in mixed), (vals, mixed)

    prop()


def test_chunk_planner_closed_form(tmp_path, ray_session, monkeypatch):
    """n_tok = 0..1023 clustered into 16 chunks of 64 rows, so chunk j
    holds exactly [64j, 64j + 63] and group g = n_tok // 128 spans two
    whole chunks.  The plan's labels, the metadata-only answers and
    the return_stats dicts all follow in closed form."""
    from colonnade_ray.pipelines import (
        aggregate_where,
        approx_distinct,
        approx_quantiles,
        count_where,
        delete_where,
        grouped_approx_quantiles,
        grouped_topk_where,
        summary_where,
        topk_where,
    )
    from colonnade_ray.pipelines import chunk_plan
    from colonnade_ray.pipelines.chunk_plan import plan_chunks

    n = 1024
    v = np.arange(n)
    t = pa.table({"doc_id": pa.array([f"d{i:05d}" for i in v]),
                  "n_tok": pa.array(v, pa.int64()),
                  "g": pa.array(v // 128, pa.int64())})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t.take(np.random.default_rng(3).permutation(n)),
                   src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=64, cluster_by="n_tok",
                  hll_cols=["doc_id"], quantile_cols=["n_tok"],
                  quantile_k=64)

    band = [("n_tok", ">=", 100), ("n_tok", "<", 600)]
    plan = plan_chunks(out, band)
    # chunks 2..8 lie inside the band, 1 and 9 straddle an edge
    assert (plan.n_none, len(plan.proven), len(plan.maybe)) == (7, 7, 2)
    assert sorted(c.stats["n_tok"][0] for c in plan.maybe) == [64, 576]

    # chunk-aligned band: every chunk none or proven -> no payload read
    aligned = [("n_tok", ">=", 128), ("n_tok", "<", 576)]
    plan = plan_chunks(out, aligned)
    assert (plan.n_none, len(plan.proven), len(plan.maybe)) == (9, 7, 0)

    def no_scan(*a, **k):
        raise AssertionError("payload read on a metadata-only plan")

    with monkeypatch.context() as mp:
        mp.setattr(chunk_plan, "scan_chunks", no_scan)
        mp.setattr(chunk_plan, "_read_encoded", no_scan)
        want = v[(v >= 128) & (v < 576)]
        assert count_where(out, aligned) == want.size
        assert aggregate_where(out, "sum", "n_tok", aligned) == want.sum()
        assert aggregate_where(out, "min", "n_tok", aligned) == 128
        assert aggregate_where(out, "max", "n_tok", aligned) == 575
        assert summary_where(out, "n_tok", aligned) == {
            "count": want.size, "sum": int(want.sum()),
            "min": 128, "max": 575}

    groups = len(plan.groups)
    res, st = topk_where(out, "n_tok", k=10, return_stats=True)
    assert res["n_tok"].to_pylist() == list(range(1023, 1013, -1))
    assert st == {"chunks_total": 16, "chunks_candidate": 1,
                  "groups_total": groups, "groups_candidate": 1,
                  "threshold": 960}
    # only proven chunks bound T: maybe chunk 9 reaches past it
    res, st = topk_where(out, "n_tok", k=10, predicate=("n_tok", "<", 600),
                         return_stats=True)
    assert res["n_tok"].to_pylist() == list(range(599, 589, -1))
    assert st == {"chunks_total": 10, "chunks_candidate": 2,
                  "groups_total": groups, "groups_candidate": 1,
                  "threshold": 512}

    est, st = approx_distinct(out, "doc_id", predicate=band,
                              return_stats=True)
    assert abs(est - 500) <= 0.1 * 500
    assert st == {"chunks_total": 9, "chunks_sketched": 7,
                  "chunks_scanned": 2}
    got, st = approx_quantiles(out, "n_tok", [0.5], predicate=band,
                               return_stats=True)
    assert got == [349]  # quantile_disc of 100..599
    assert st == {"chunks_total": 9, "chunks_sketched": 7,
                  "chunks_scanned": 2}
    got, st = grouped_approx_quantiles(out, "g", "n_tok", [0.5],
                                       return_stats=True)
    assert got["value"].tolist() == [128 * g + 63 for g in range(8)]
    assert st == {"chunks_sketched": 16, "chunks_scanned": 0}
    got, st = grouped_topk_where(out, "g", "n_tok", k=3, return_stats=True)
    assert got["n_tok"].to_pylist() == [
        x for g in range(8) for x in (128 * g + 127, 128 * g + 126,
                                      128 * g + 125)]
    assert st == {"chunks_total": 16, "chunks_candidate": 8,
                  "chunks_mixed": 0}

    # a chunk deleted whole folds into none; a partial mask rides along
    delete_where(out, ("n_tok", "<", 64))
    delete_where(out, ("n_tok", "==", 70))
    plan = plan_chunks(out, None)
    assert (plan.n_none, len(plan.proven), len(plan.maybe)) == (1, 15, 0)
    assert sorted(c.n_live for c in plan.proven)[:2] == [63, 64]


def test_pushdowns_scan_once_through_one_consumer(tmp_path, ray_session,
                                                  monkeypatch):
    """Every pushdown plans, scans at most once and consumes that scan
    through one streaming read: with every other Dataset consumer
    patched to raise (no ``sum``'s aggregate plan, no schema probe, no
    ``materialize`` + ``count``, no distributed ``groupby``), all ten
    still answer like a pyarrow oracle over the live rows.  The corpus
    has proven chunks, maybe chunks, mixed-group chunks and partial
    delete masks, so metadata answers and scan partials both merge."""
    import ray.data as rd

    from colonnade_ray.pipelines import (
        aggregate_where,
        approx_distinct,
        approx_quantiles,
        chunk_plan,
        count_where,
        delete_where,
        group_aggregates,
        group_counts,
        grouped_approx_quantiles,
        grouped_topk_where,
        summary_where,
        topk_where,
    )

    n = 1024
    v = np.arange(n)
    # 16 chunks of 64 rows; g = (v + 32) // 128 makes every other
    # chunk span two groups
    t = pa.table({"doc_id": pa.array([f"d{i:05d}" for i in v]),
                  "n_tok": pa.array(v, pa.int64()),
                  "g": pa.array((v + 32) // 128, pa.int64())})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t.take(np.random.default_rng(5).permutation(n)),
                   src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=64, cluster_by="n_tok",
                  hll_cols=["doc_id"], quantile_cols=["n_tok"],
                  quantile_k=64)
    gone = [70, 300, 301, 900]
    delete_where(out, ("n_tok", "in", gone))
    live = t.filter(pa.compute.invert(pa.compute.is_in(
        t["n_tok"], pa.array(gone, pa.int64())))).to_pandas()
    band = [("n_tok", ">=", 100), ("n_tok", "<", 600)]
    sub = live[(live.n_tok >= 100) & (live.n_tok < 600)]
    vals = np.sort(sub.n_tok.to_numpy())

    def disc(x, q):  # quantile_disc of sorted x
        return int(x[max(0, int(np.ceil(q * x.size)) - 1)])

    def refuse(name):
        def consumer(*a, **k):
            raise AssertionError(f"pushdown consumed a Dataset via {name}")
        return consumer

    scans, consumed = [], []
    real_scan, real_iter = chunk_plan.scan_chunks, rd.Dataset.iter_batches

    def scan_chunks(*a, **k):
        scans.append(real_scan(*a, **k))
        return scans[-1]

    def iter_batches(self, *a, **k):
        consumed.append(self)
        return real_iter(self, *a, **k)

    def run(fn, *a, **k):
        scans.clear()
        consumed.clear()
        res = fn(*a, **k)
        assert len(scans) <= 1, fn.__name__
        assert [id(d) for d in consumed] == [id(d) for d in scans], \
            fn.__name__
        return res

    with monkeypatch.context() as mp:
        for name in ("sum", "min", "max", "aggregate", "take", "take_all",
                     "take_batch", "count", "materialize", "to_pandas",
                     "to_arrow_refs", "groupby", "iter_rows", "schema"):
            mp.setattr(rd.Dataset, name, refuse(name))
        mp.setattr(rd.Dataset, "iter_batches", iter_batches)
        mp.setattr(chunk_plan, "scan_chunks", scan_chunks)

        assert run(count_where, out, band) == len(sub)
        assert len(scans) == 1  # the two boundary chunks decode
        for agg in ("sum", "min", "max"):
            assert run(aggregate_where, out, agg, "n_tok", band) == \
                getattr(sub.n_tok, agg)()
        assert run(summary_where, out, "n_tok", band) == {
            "count": len(sub), "sum": int(sub.n_tok.sum()),
            "min": int(sub.n_tok.min()), "max": int(sub.n_tok.max())}
        got = run(topk_where, out, "n_tok", k=10, predicate=band,
                  tie_cols=["doc_id"], columns=["g"]).to_pandas()
        want = sub.sort_values("n_tok", ascending=False).head(10)
        pd.testing.assert_frame_equal(
            got, want[["n_tok", "doc_id", "g"]].reset_index(drop=True))
        est = run(approx_distinct, out, "doc_id", predicate=band)
        assert abs(est - len(sub)) <= 0.1 * len(sub)
        qs = [0.1, 0.5, 0.9]
        assert run(approx_quantiles, out, "n_tok", qs, predicate=band) == \
            [disc(vals, q) for q in qs]
        got = run(grouped_approx_quantiles, out, "g", "n_tok", [0.5])
        assert got["value"].tolist() == [
            disc(np.sort(x.to_numpy()), 0.5)
            for _, x in live.groupby("g").n_tok]
        by_g = live.groupby("g").n_tok
        want = pd.DataFrame({"g": [str(g) for g in by_g.size().index],
                             "n_rows": by_g.size().to_numpy(),
                             "sum_n_tok": by_g.sum().to_numpy(),
                             "min_n_tok": by_g.min().to_numpy(),
                             "max_n_tok": by_g.max().to_numpy()})
        pd.testing.assert_frame_equal(
            run(group_counts, out, "g", "n_tok"),
            want[["g", "n_rows", "sum_n_tok"]])
        pd.testing.assert_frame_equal(run(group_aggregates, out, "g",
                                          "n_tok"), want)
        got = run(grouped_topk_where, out, "g", "n_tok", k=3,
                  tie_cols=["doc_id"]).to_pandas()
        want = live.sort_values(["g", "n_tok"], ascending=[True, False]) \
            .groupby("g").head(3)
        pd.testing.assert_frame_equal(
            got, want[["g", "n_tok", "doc_id"]].reset_index(drop=True))


def test_corpus_reads_scan_once(tmp_path, ray_session, monkeypatch):
    """Every corpus read is one ``chunk_plan.scan_chunks``: full,
    projected and predicated ``decode_corpus``, ``decode_snapshot`` and
    ``decode_digest_corpus`` each call it exactly once and equal
    pyarrow over the live rows.  The corpus has a whole-chunk delete,
    a partial mask and a snapshot taken before a later delete.  The
    unpredicated reads do no per-chunk planning, so they succeed with
    the stats parser patched to raise; a read whose tasks are all
    masked or filtered away still yields typed blocks."""
    import ray

    from colonnade_ray.pipelines import (
        chunk_plan,
        create_snapshot,
        decode_digest_corpus,
        decode_snapshot,
        delete_where,
    )
    from colonnade_ray.stages import decode as decode_stage
    from colonnade_ray.stages.verify import batch_digest

    n = 512
    v = np.arange(n)
    t = pa.table({"doc_id": pa.array([f"d{i:05d}" for i in v]),
                  "n_tok": pa.array(v, pa.int64()),
                  "tokens": pa.array([[int(i), int(i) % 7] for i in v],
                                     pa.list_(pa.int32()))})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t.take(np.random.default_rng(7).permutation(n)),
                   src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=64, cluster_by="n_tok")
    delete_where(out, ("n_tok", "<", 64))   # chunk 0 deleted whole
    delete_where(out, ("n_tok", "==", 70))  # a partial mask
    create_snapshot(out, "before")
    delete_where(out, ("n_tok", "in", [200, 201]))

    def drop(tbl, gone):
        keep = pa.compute.invert(pa.compute.is_in(
            tbl["n_tok"], pa.array(gone, pa.int64())))
        return tbl.filter(keep).sort_by("n_tok")

    snap = drop(t, [*range(64), 70])
    live = drop(snap, [200, 201])

    scans = []
    real_scan = chunk_plan.scan_chunks

    def scan_chunks(*a, **k):
        scans.append(1)
        return real_scan(*a, **k)

    def blocks(ds):
        return ray.get(ds.materialize().to_arrow_refs())

    def rows(ds, sort=True):
        got = pa.concat_tables(blocks(ds))
        return got.sort_by("n_tok") if sort else got

    def once(fn, *a, **k):
        scans.clear()
        res = fn(*a, **k)
        assert len(scans) == 1, (fn.__name__, a, k)
        return res

    cols = ["doc_id", "n_tok", "tokens"]
    with monkeypatch.context() as mp:
        mp.setattr(chunk_plan, "scan_chunks", scan_chunks)
        assert rows(once(decode_corpus, out)).equals(live)
        assert rows(once(decode_corpus, out, columns=["n_tok", "doc_id"])
                    ).equals(live.select(["n_tok", "doc_id"]))
        got = rows(once(decode_corpus, out, columns=["doc_id"],
                        predicate=("n_tok", ">=", 100)), sort=False)
        assert got.column_names == ["doc_id"]  # predicate column dropped
        assert sorted(got["doc_id"].to_pylist()) == \
            live.filter(pa.compute.greater_equal(live["n_tok"], 100)
                        )["doc_id"].to_pylist()
        assert rows(once(decode_snapshot, out, "before")).equals(snap)
        want = batch_digest(live, cols)
        assert once(decode_digest_corpus, out, cols) == (
            want["h_sum"][0] & 0xFFFFFFFFFFFFFFFF,
            want["h_xor"][0] & 0xFFFFFFFFFFFFFFFF, live.num_rows)
        # the one candidate chunk's only match is masked: typed empties
        gone = once(decode_corpus, out, columns=["doc_id", "n_tok"],
                    predicate=("n_tok", "==", 70))
        typed = live.select(["doc_id", "n_tok"]).schema
        assert blocks(gone) and all(b.num_rows == 0 and b.schema == typed
                                    for b in blocks(gone))
        # nothing left to scan: one typed empty block and no read job
        scans.clear()
        none = decode_corpus(out, columns=["doc_id", "n_tok"],
                             predicate=("n_tok", ">", 10 ** 6))
        assert not scans
        assert [(b.num_rows, b.schema) for b in blocks(none)] == \
            [(0, typed)]

    def no_stats(*a, **k):
        raise AssertionError("unpredicated read parsed chunk stats")

    with monkeypatch.context() as mp:
        mp.setattr(decode_stage, "parse_stats", no_stats)
        assert rows(decode_corpus(out)).equals(live)
        assert rows(decode_corpus(out, columns=["n_tok"])).equals(
            live.select(["n_tok"]))
        assert rows(decode_snapshot(out, "before")).equals(snap)
        assert decode_digest_corpus(out, cols)[2] == live.num_rows


def test_pushdowns_after_vacuum_empties_first_group(tmp_path, ray_session,
                                                    monkeypatch):
    """A vacuum that drops every row of one group leaves it active with
    no data file.  When that group sorts first, the pushdowns must
    still type their partials from a group that has rows: the top-k
    pushdowns answer like pandas over the live rows, and a float
    ``value_col`` is refused with ValueError rather than truncated.
    Group ids hash the input paths, so which group sorts first varies
    from run to run; the pushdown module's group order is patched to
    put the empty group first."""
    from colonnade_ray.pipelines import (
        delete_where,
        group_counts,
        grouped_topk_where,
        pushdown,
        topk_where,
        vacuum_deletes,
    )
    from colonnade_ray.pipelines.encode_pipeline import _group_files, \
        active_groups

    def rows(lo):
        v = np.arange(lo, lo + 200)
        return pa.table({"doc_id": pa.array([f"d{i:05d}" for i in v]),
                         "n_tok": pa.array(v, pa.int64()),
                         "g": pa.array(v % 7, pa.int64()),
                         "x": pa.array(v / 4.0)})

    out = str(tmp_path / "enc")
    for name, lo, append in (("a", 0, False), ("b", 1000, True)):
        (tmp_path / name).mkdir()
        pq.write_table(rows(lo), tmp_path / name / "p0.parquet")
        encode_corpus([str(tmp_path / name / "p0.parquet")], out,
                      batch_size=64, append=append)
    delete_where(out, ("n_tok", "<", 200))   # every row of group a
    delete_where(out, ("n_tok", ">=", 1150))  # part of group b
    vacuum_deletes(out)
    gids = sorted(active_groups(out),
                  key=lambda g: bool(_group_files(out, g)))
    assert len(gids) == 2 and _group_files(out, gids[0]) == []
    monkeypatch.setattr(pushdown, "active_groups", lambda _: gids)
    live = rows(1000).to_pandas().query("n_tok < 1150")

    got = topk_where(out, "n_tok", k=5, columns=["doc_id"]).to_pandas()
    want = live.sort_values("n_tok", ascending=False).head(5)
    pd.testing.assert_frame_equal(
        got, want[["n_tok", "doc_id"]].reset_index(drop=True))
    got = grouped_topk_where(out, "g", "n_tok", k=2,
                             columns=["doc_id"]).to_pandas()
    want = live.sort_values(["g", "n_tok"], ascending=[True, False]) \
        .groupby("g").head(2)
    pd.testing.assert_frame_equal(
        got, want[["g", "n_tok", "doc_id"]].reset_index(drop=True))
    with pytest.raises(ValueError, match="integer column"):
        group_counts(out, "g", "x")


def test_cluster_by_narrows_zone_bands(corpus_dir, tmp_path, ray_session):
    """cluster_by sorts each read block before chunking: round-trip
    stays bit-identical (multiset), and a band predicate becomes
    provable from metadata for most chunks — vs almost none on the
    unclustered layout."""
    import ray.data as rd

    from colonnade_ray.pipelines import count_where, decode_corpus
    from colonnade_ray.stages.decode import chunk_all_match, chunk_may_match

    plain = str(tmp_path / "plain")
    clus = str(tmp_path / "clustered")
    encode_corpus(corpus_dir, plain, batch_size=128)
    encode_corpus(corpus_dir, clus, batch_size=128, cluster_by="n_tok")

    original = rd.read_parquet(corpus_dir)
    res = roundtrip_verify(original, decode_corpus(clus), F1_COLS)
    assert res["match"], res

    full = decode_corpus(plain, columns=["n_tok"]).to_pandas()["n_tok"]
    med = int(full.median())
    pred = ("n_tok", ">=", med)
    assert count_where(clus, pred) == int((full >= med).sum())

    def proof_rate(out):
        lin = os.path.join(out, "_lineage")
        sj = []
        for f in os.listdir(lin):
            if f.endswith(".parquet"):
                sj += pq.read_table(os.path.join(lin, f),
                                    columns=["stats_json"]
                                    )["stats_json"].to_pylist()
        proven = sum(1 for s in sj
                     if chunk_all_match(s, pred) or not chunk_may_match(s, pred))
        return proven / len(sj), len(sj)

    r_clus, n_clus = proof_rate(clus)
    r_plain, _ = proof_rate(plain)
    assert n_clus >= 8                      # enough chunks to mean anything
    assert r_clus >= 0.6, (r_clus, n_clus)  # most chunks metadata-provable
    assert r_clus > r_plain                 # clustering strictly helps


def test_topk_where_pushdown(tmp_path, ray_session):
    """ORDER BY col LIMIT k over the encoded corpus: exact on every
    layout, deletes and predicates honored, and on a clustered layout
    the zone-band threshold proves most chunks can't reach the top-k
    (only those decode)."""
    from colonnade_ray.pipelines import delete_where, topk_where

    rng = np.random.default_rng(9)
    n = 4096
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "v": pa.array(rng.integers(0, 1_000_000, n), pa.int64()),
        "g": pa.array(rng.integers(0, 5, n), pa.int64()),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    df = t.to_pandas()

    for name, cb in [("plain", None), ("clustered", "v")]:
        out = str(tmp_path / name)
        encode_corpus(str(src), out, batch_size=128, cluster_by=cb)

        want = df.sort_values(["v", "doc_id"],
                              ascending=[False, True]).head(10)
        got, st = topk_where(out, "v", k=10, tie_cols=["doc_id"],
                             columns=["g"], return_stats=True)
        got = got.to_pandas()
        pd.testing.assert_frame_equal(
            got[["v", "doc_id", "g"]].reset_index(drop=True),
            want[["v", "doc_id", "g"]].reset_index(drop=True))
        if cb == "v":
            # clustered: the k-th bound kills almost every chunk
            assert st["chunks_candidate"] <= st["chunks_total"] // 4, st

        want_asc = df.sort_values(["v", "doc_id"]).head(7)
        got_asc = topk_where(out, "v", k=7, descending=False,
                             tie_cols=["doc_id"]).to_pandas()
        pd.testing.assert_frame_equal(
            got_asc[["v", "doc_id"]].reset_index(drop=True),
            want_asc[["v", "doc_id"]].reset_index(drop=True))

        # deletes + predicate: deleted rows never rank, filter is exact
        delete_where(out, ("g", "==", 2))
        live = df[df.g != 2]
        want_p = live[live.g >= 3].sort_values(
            ["v", "doc_id"], ascending=[False, True]).head(5)
        got_p = topk_where(out, "v", k=5, predicate=("g", ">=", 3),
                           tie_cols=["doc_id"]).to_pandas()
        pd.testing.assert_frame_equal(
            got_p[["v", "doc_id"]].reset_index(drop=True),
            want_p[["v", "doc_id"]].reset_index(drop=True))

    # k larger than the corpus: returns every live row, still exact
    out = str(tmp_path / "clustered")
    allv = topk_where(out, "v", k=10_000, tie_cols=["doc_id"]).to_pandas()
    assert len(allv) == len(df[df.g != 2])


def test_zorder_cluster_prunes_both_columns(tmp_path, ray_session):
    """cluster_by=[x, y] Z-orders each read block (Morton interleave of
    block-local ranks): round-trip stays bit-identical, answers are
    layout-invariant, and band predicates on EITHER column become
    metadata-provable for most chunks — where the single-column sort
    only helps its own column."""
    import ray.data as rd

    from colonnade_ray.pipelines import count_where, decode_corpus
    from colonnade_ray.stages.decode import chunk_all_match, chunk_may_match

    rng = np.random.default_rng(5)
    n = 2048
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "x": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        "y": pa.array(rng.integers(0, 10_000, n), pa.int64()),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "part-000.parquet")

    layouts = {}
    for name, cb in [("plain", None), ("xsort", "x"), ("zorder", ["x", "y"])]:
        out = str(tmp_path / name)
        encode_corpus(str(src), out, batch_size=128, cluster_by=cb)
        layouts[name] = out

    original = rd.read_parquet(str(src))
    res = roundtrip_verify(original, decode_corpus(layouts["zorder"]),
                           ["doc_id", "x", "y"])
    assert res["match"], res

    med_x = int(np.median(t["x"].to_numpy()))
    med_y = int(np.median(t["y"].to_numpy()))
    truth_x = int((t["x"].to_numpy() >= med_x).sum())
    truth_y = int((t["y"].to_numpy() >= med_y).sum())

    def proof_rate(out, pred):
        lin = os.path.join(out, "_lineage")
        sj = []
        for f in os.listdir(lin):
            if f.endswith(".parquet"):
                sj += pq.read_table(os.path.join(lin, f),
                                    columns=["stats_json"]
                                    )["stats_json"].to_pylist()
        proven = sum(1 for s in sj
                     if chunk_all_match(s, pred) or not chunk_may_match(s, pred))
        return proven / len(sj)

    px, py = ("x", ">=", med_x), ("y", ">=", med_y)
    for name, out in layouts.items():
        assert count_where(out, px) == truth_x, name
        assert count_where(out, py) == truth_y, name

    zx, zy = proof_rate(layouts["zorder"], px), proof_rate(layouts["zorder"], py)
    assert zx >= 0.5 and zy >= 0.5, (zx, zy)
    assert zy > proof_rate(layouts["xsort"], py)   # x-sort can't prune y
    assert zx > proof_rate(layouts["plain"], px)
    assert zy > proof_rate(layouts["plain"], py)


def test_group_aggregates_pushdown(tmp_path, ray_session):
    """Per-group COUNT/SUM/MIN/MAX over the encoded corpus equals
    pandas truth on plain, group-clustered, and delete-masked layouts
    (single-group chunks answer count+sum+min+max from metadata)."""
    from colonnade_ray.pipelines import delete_where, group_aggregates

    rng = np.random.default_rng(21)
    n = 5000
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "src": pa.array([f"s{x}" for x in rng.integers(0, 6, n)]),
        "v": pa.array(rng.integers(-50, 10_000, n), pa.int64()),
    })
    src_dir = tmp_path / "in"
    src_dir.mkdir()
    pq.write_table(t, src_dir / "p0.parquet")
    df = t.to_pandas()

    def truth(frame):
        return (frame.groupby("src", as_index=False)
                .agg(n_rows=("v", "size"), sum_v=("v", "sum"),
                     min_v=("v", "min"), max_v=("v", "max"))
                .sort_values("src").reset_index(drop=True))

    for cb in (None, "src"):
        out = str(tmp_path / f"enc-{cb}")
        encode_corpus(str(src_dir), out, batch_size=256, cluster_by=cb)
        got = group_aggregates(out, "src", "v").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, truth(df))

    out = str(tmp_path / "enc-del")
    encode_corpus(str(src_dir), out, batch_size=256, cluster_by="src")
    delete_where(out, ("v", ">=", 9000))
    got = group_aggregates(out, "src", "v").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, truth(df[df.v < 9000]))


def test_startswith_predicate_pushdown(tmp_path, ray_session):
    """Prefix predicates prune via the lexicographic zone bands
    ([v, _str_upper(v)) range logic): counts and predicated decodes
    match truth, clustered layouts prove most chunks from metadata,
    and boundary conditions (empty prefix, prefix above all values,
    truncated-min safety) hold."""
    from colonnade_ray.pipelines import count_where, decode_corpus
    from colonnade_ray.stages.decode import (
        _str_upper,
        chunk_all_match,
        chunk_may_match,
    )

    assert _str_upper("ab") == "ac"
    assert _str_upper("a" + chr(0x10FFFF)) == "b"
    assert _str_upper(chr(0x10FFFF)) is None and _str_upper("") is None

    rng = np.random.default_rng(13)
    n = 4000
    ids = [f"{'abc'[int(x)]}{i:05d}" for i, x in
           enumerate(rng.integers(0, 3, n))]
    t = pa.table({"sid": pa.array(ids),
                  "v": pa.array(rng.integers(0, 100, n), pa.int64())})
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=256, cluster_by="sid")

    for pre in ("a", "b", "b0", "c39", "zz", ""):
        want = sum(1 for s in ids if s.startswith(pre))
        assert count_where(out, ("sid", "startswith", pre)) == want, pre
    got = decode_corpus(out, columns=["sid"],
                        predicate=("sid", "startswith", "b0")).to_pandas()
    assert sorted(got.sid) == sorted(s for s in ids if s.startswith("b0"))

    # metadata proof rates on the clustered layout: interior chunks of
    # each letter prove all-match, other letters prove no-match
    lin = os.path.join(out, "_lineage")
    sj = []
    for f in os.listdir(lin):
        if f.endswith(".parquet"):
            sj += pq.read_table(os.path.join(lin, f),
                                columns=["stats_json"]
                                )["stats_json"].to_pylist()
    pred = ("sid", "startswith", "b")
    proven = sum(1 for s in sj
                 if chunk_all_match(s, pred) or not chunk_may_match(s, pred))
    assert proven / len(sj) >= 0.8, (proven, len(sj))

    # truncated-min safety: a 100-char min truncates to 64 chars in
    # the band; prefix proofs must stay correct
    long_ids = ["x" * 100 + f"{i:03d}" for i in range(50)] + ["y1", "y2"]
    t2 = pa.table({"sid": pa.array(long_ids),
                   "v": pa.array(range(52), pa.int64())})
    src2 = tmp_path / "in2"
    src2.mkdir()
    pq.write_table(t2, src2 / "p0.parquet")
    out2 = str(tmp_path / "enc2")
    encode_corpus(str(src2), out2, batch_size=512)
    assert count_where(out2, ("sid", "startswith", "x" * 70)) == 50
    assert count_where(out2, ("sid", "startswith", "y")) == 2
    assert count_where(out2, ("sid", "startswith", "z")) == 0

    # endswith / contains: exact masks, conservative (never-pruning)
    # metadata behavior
    want_end = sum(1 for s in ids if s.endswith("7"))
    assert count_where(out, ("sid", "endswith", "7")) == want_end
    want_sub = sum(1 for s in ids if "00" in s)
    assert count_where(out, ("sid", "contains", "00")) == want_sub
    for op in ("endswith", "contains"):
        assert all(chunk_may_match(s, ("sid", op, "7")) for s in sj)
        assert not any(chunk_all_match(s, ("sid", op, "7")) for s in sj)
    with pytest.raises(ValueError):
        count_where(out, ("sid", "contains", 7))


def test_summary_where_single_pass(tmp_path, ray_session):
    """COUNT/SUM/MIN/MAX in one pass equals four separate pushdowns
    and pandas truth — plain, predicated, empty-match, and
    delete-masked; negatives and nulls included."""
    from colonnade_ray.pipelines import (
        aggregate_where,
        count_where,
        delete_where,
        summary_where,
    )

    rng = np.random.default_rng(23)
    n = 5000
    vals = rng.integers(-100, 10_000, n).astype(object)
    vals[::97] = None  # sprinkle nulls
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "v": pa.array(list(vals), pa.int64()),
        "g": pa.array(rng.integers(0, 4, n), pa.int64()),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=256, cluster_by="v")
    df = t.to_pandas()

    def truth(frame):
        nn = frame.v.dropna()
        return {"count": len(frame), "sum": int(nn.sum()),
                "min": int(nn.min()) if len(nn) else None,
                "max": int(nn.max()) if len(nn) else None}

    assert summary_where(out, "v") == truth(df)
    pred = ("v", ">=", 5000)
    got = summary_where(out, "v", pred)
    assert got == truth(df[df.v >= 5000])
    # agrees with the single-agg pushdowns
    assert got["count"] == count_where(out, pred)
    assert got["sum"] == aggregate_where(out, "sum", "v", pred)
    assert got["min"] == aggregate_where(out, "min", "v", pred)
    assert got["max"] == aggregate_where(out, "max", "v", pred)
    # empty match set
    assert summary_where(out, "v", ("v", ">", 10**7)) == \
        {"count": 0, "sum": 0, "min": None, "max": None}
    # deletes
    delete_where(out, ("g", "==", 1))
    assert summary_where(out, "v") == truth(df[df.g != 1])


def test_grouped_topk_where_pushdown(tmp_path, ray_session):
    """Top-k per group over the encoded corpus: exact on every layout
    (mixed chunks always decode), and a lexicographic (group, value)
    cluster prunes to ~k rows' worth of chunks per key."""
    from colonnade_ray.pipelines import delete_where, grouped_topk_where

    rng = np.random.default_rng(31)
    n = 8000
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "src": pa.array([f"s{x}" for x in rng.integers(0, 6, n)]),
        "v": pa.array(rng.integers(0, 100_000, n), pa.int64()),
    })
    src_dir = tmp_path / "in"
    src_dir.mkdir()
    pq.write_table(t, src_dir / "p0.parquet")
    df = t.to_pandas()

    def truth(frame, k=3, asc=False):
        x = frame.sort_values(["v", "doc_id"], ascending=[asc, True])
        return (x.groupby("src", sort=False).head(k)
                .sort_values(["src", "v", "doc_id"],
                             ascending=[True, asc, True])
                .reset_index(drop=True))[["src", "v", "doc_id"]]

    layouts = {"plain": None, "bysrc": "src",
               "lex": [("src", "ascending"), ("v", "descending")]}
    for name, cb in layouts.items():
        out = str(tmp_path / name)
        encode_corpus(str(src_dir), out, batch_size=256, cluster_by=cb)
        got, st = grouped_topk_where(out, "src", "v", k=3,
                                     tie_cols=["doc_id"],
                                     return_stats=True)
        g = got.to_pandas()[["src", "v", "doc_id"]].reset_index(drop=True)
        pd.testing.assert_frame_equal(g, truth(df))
        if name == "lex":
            # single-group AND value-ordered chunks: per-key thresholds
            # kill the interior — only ~1 chunk per key + boundaries
            assert st["chunks_candidate"] <= st["chunks_total"] // 2, st

    out = str(tmp_path / "bysrc")
    delete_where(out, ("v", ">=", 90_000))
    live = df[df.v < 90_000]
    got = grouped_topk_where(out, "src", "v", k=2, descending=False,
                             tie_cols=["doc_id"]).to_pandas()
    pd.testing.assert_frame_equal(
        got[["src", "v", "doc_id"]].reset_index(drop=True),
        truth(live, k=2, asc=True))


def test_group_counts_metadata_first(corpus_dir, tmp_path, ray_session):
    """group_counts equals the decoded ground truth on both layouts;
    on the source-partitioned corpus the per-source chunks are
    single-group, so counts and sums come from metadata."""
    from colonnade_ray.pipelines import decode_corpus, group_counts

    plain = str(tmp_path / "p")
    part = str(tmp_path / "s")
    encode_corpus(corpus_dir, plain, batch_size=256)
    encode_corpus(corpus_dir, part, batch_size=256, partition_by="source")

    truth = decode_corpus(plain, columns=["source", "n_tok"]).to_pandas()
    want = truth.groupby("source").agg(n_rows=("n_tok", "size"),
                                       sum_n_tok=("n_tok", "sum"))
    for out in (plain, part):
        got = group_counts(out, "source", "n_tok").set_index("source")
        assert got["n_rows"].to_dict() == want["n_rows"].to_dict(), out
        assert got["sum_n_tok"].to_dict() == want["sum_n_tok"].to_dict(), out
    counts_only = group_counts(plain, "source")
    assert counts_only["n_rows"].sum() == len(truth)
    assert "sum_n_tok" not in counts_only.columns


def test_aggregate_where_string_and_in_predicate(corpus_dir, tmp_path, ray_session):
    """min/max over a STRING column and count under an 'in' predicate
    both match decoded ground truth through the pushdown path."""
    from colonnade_ray.pipelines import aggregate_where, count_where, decode_corpus

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)
    full = decode_corpus(out, columns=["source", "n_tok"]).to_pandas()

    assert aggregate_where(out, "min", "source") == full["source"].min()
    assert aggregate_where(out, "max", "source") == full["source"].max()
    srcs = sorted(full["source"].unique())[:2]
    pred = ("source", "in", srcs)
    assert count_where(out, pred) == int(full["source"].isin(srcs).sum())
    assert aggregate_where(out, "sum", "n_tok", pred) == int(
        full.loc[full["source"].isin(srcs), "n_tok"].sum())


def test_segmented_token_hash_equals_dense():
    """hash_token_lists segments large columns on row boundaries; the
    segmented result must be bit-equal to the one-shot kernel for any
    mix of nulls, empties and non-zero slice offsets."""
    import colonnade_ray.stages.verify as V

    rng = np.random.default_rng(7)
    lens = rng.integers(0, 60, size=500)
    vals = rng.integers(-(2**31), 2**31, size=int(lens.sum()),
                        dtype=np.int64).astype(np.int32)
    offs = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    mask = rng.random(500) < 0.07
    arr = pa.ListArray.from_arrays(pa.array(offs), pa.array(vals),
                                   mask=pa.array(mask))
    for candidate in (arr, arr.slice(13, 400)):
        dense = V._hash_token_lists_dense(candidate)
        old = V._SEG_VALUES
        try:
            V._SEG_VALUES = 101  # force many segments
            seg = V.hash_token_lists(candidate)
        finally:
            V._SEG_VALUES = old
        assert np.array_equal(dense, seg)


# ---------------------------------------------------------------------------
# Shared dictionaries (codecs/shared_dict.py): the north star's
# "build and reuse ... dictionaries across batches" — the table is
# trained once per corpus in a deterministic pre-pass, persisted under
# _dicts/, and chunks store ranks + extras instead of inline tables.


def test_shared_dict_corpus_roundtrip_and_wins(corpus_dir, tmp_path, ray_session):
    out = str(tmp_path / "enc_sd")
    out2 = str(tmp_path / "enc_nosd")
    s = encode_corpus(corpus_dir, out, batch_size=256)
    s2 = encode_corpus(corpus_dir, out2, batch_size=256, shared_dicts=False)

    # the sidecar + manifest exist and the tokens stream rode the table
    assert os.path.isdir(os.path.join(out, "_dicts"))
    with open(os.path.join(out, "_meta", "shared_dicts.json")) as f:
        manifest = json.load(f)
    assert "tokens" in manifest
    lin = pq.read_table(os.path.join(out, "_lineage"))
    used = {
        c.get("values")
        for row in lin["codecs_json"].to_pylist()
        for c in json.loads(row)
    }
    assert used & {"dict_rans_shared", "dict_rans2_shared"}
    assert s.get("shared_dict_bytes", 0) > 0

    # smaller than per-chunk dictionaries EVEN counting the sidecar
    assert s["bytes_out"] < s2["bytes_out"]

    # bit-identical roundtrip
    import ray.data as rd

    report = roundtrip_verify(rd.read_parquet(corpus_dir),
                              decode_corpus(out), F1_COLS)
    assert report["match"], report


def test_shared_dict_resume_reuses_pinned_tables(corpus_dir, tmp_path, ray_session):
    """A resumed run must reload the SAME tables from the manifest so
    re-encoded groups are byte-compatible with committed ones."""
    import shutil as _sh

    import ray.data as rd

    from colonnade_ray.stages.verify import dataset_digest

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256, group_size=1)
    with open(os.path.join(out, "_meta", "shared_dicts.json")) as f:
        before = json.load(f)

    # tear one committed group down to a torn write
    lin_root = os.path.join(out, "_lineage")
    victim = sorted(os.listdir(lin_root))[0]
    gid = victim[len("group-"):-len(".parquet")]
    os.unlink(os.path.join(lin_root, victim))
    _sh.rmtree(os.path.join(out, "data", f"group-{gid}"), ignore_errors=True)

    encode_corpus(corpus_dir, out, batch_size=256, group_size=1)  # resume
    with open(os.path.join(out, "_meta", "shared_dicts.json")) as f:
        after = json.load(f)
    assert after == before  # pinned, not retrained

    dd = dataset_digest(decode_corpus(out), F1_COLS)
    od = dataset_digest(rd.read_parquet(corpus_dir), F1_COLS)
    assert dd == od


def test_shared_dict_missing_sidecar_fails_loudly(corpus_dir, tmp_path, ray_session):
    import shutil as _sh

    from colonnade_ray.codecs import shared_dict as sdmod
    from colonnade_ray.stages.decode import decode_chunk_row

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)
    data_root = os.path.join(out, "data")
    gdir = os.path.join(data_root, sorted(os.listdir(data_root))[0])
    f = os.path.join(gdir, sorted(os.listdir(gdir))[0])
    t = pq.read_table(f)
    row = {c: t[c][0].as_py() for c in t.column_names}

    _sh.rmtree(os.path.join(out, "_dicts"))
    sdmod._clear_cache()  # decode may not lean on in-process state
    with pytest.raises(Exception) as ei:
        decode_chunk_row(row)
    assert "shared dict" in str(ei.value)


def test_shared_dict_moved_corpus_resolves_via_registration(
        corpus_dir, tmp_path, ray_session):
    """Hint paths go stale when the corpus moves; register_dir must
    recover, and the loaded table is hash-verified."""
    import shutil as _sh

    from colonnade_ray.codecs import shared_dict as sdmod
    from colonnade_ray.stages.decode import decode_chunk_row

    out = str(tmp_path / "enc")
    moved = str(tmp_path / "enc_moved")
    encode_corpus(corpus_dir, out, batch_size=256)
    _sh.move(out, moved)

    data_root = os.path.join(moved, "data")
    gdir = os.path.join(data_root, sorted(os.listdir(data_root))[0])
    f = os.path.join(gdir, sorted(os.listdir(gdir))[0])
    t = pq.read_table(f)
    row = {c: t[c][0].as_py() for c in t.column_names}

    sdmod._clear_cache()
    sdmod.register_dir(moved)
    back = decode_chunk_row(row)
    assert back.num_rows == int(t["n_rows"][0].as_py())


def test_shared_dict_append_reuses_manifest(tmp_path, ray_session):
    """`append=True` must reuse the pinned tables (no retrain) and the
    drifted new files must roundtrip via the extras stream."""
    import ray.data as rd

    from colonnade_ray.stages.verify import dataset_digest

    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(2):
        pq.write_table(synth_rows(300, seed=70 + i, start_id=i * 300),
                       d / f"part-{i:03d}.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(d / "part-000.parquet"), out, batch_size=128)
    with open(os.path.join(out, "_meta", "shared_dicts.json")) as f:
        before = json.load(f)

    s = encode_corpus(str(d), out, batch_size=128, append=True)
    assert s["appended_files"] == 1
    with open(os.path.join(out, "_meta", "shared_dicts.json")) as f:
        assert json.load(f) == before  # pinned across appends

    dd = dataset_digest(decode_corpus(out), F1_COLS)
    od = dataset_digest(rd.read_parquet(str(d)), F1_COLS)
    assert dd == od


def test_continuing_encode_refuses_a_different_spec(tmp_path, ray_session):
    """Append and resume read the recorded EncodeSpec back: a layout
    option set to another value raises naming the option, the same
    explicit values (or none) are accepted."""
    from colonnade_ray.pipelines.encode_pipeline import load_encode_spec

    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(2):
        pq.write_table(synth_rows(100, seed=90 + i, start_id=i * 100),
                       d / f"part-{i:03d}.parquet")
    out = str(tmp_path / "enc")
    layout = dict(batch_size=64, cluster_by="n_tok", bloom_cols=["doc_id"])
    encode_corpus(str(d / "part-000.parquet"), out, **layout)
    spec = load_encode_spec(out)
    assert (spec.batch_size, spec.cluster_by, spec.bloom_cols) == \
        (64, "n_tok", ("doc_id",))
    for name, other in (("batch_size", 128), ("cluster_by", "doc_id"),
                        ("bloom_cols", ["source"])):
        with pytest.raises(ValueError, match=name):
            encode_corpus(str(d), out, append=True, **{name: other})
        with pytest.raises(ValueError, match=name):
            encode_corpus(str(d / "part-000.parquet"), out, resume=True,
                          **{name: other})
    s = encode_corpus(str(d), out, append=True, **layout)
    assert s["appended_files"] == 1 and s["rows"] == 200
    assert load_encode_spec(out) == spec


def test_lengths_ref_projected_decode_corpus(corpus_dir, tmp_path, ray_session):
    """End-to-end lengths-ref through storage: the F1 corpus has
    n_tok == len(tokens), so every chunk stores tokens' lengths as a
    ref.  A PROJECTED decode of ["doc_id", "tokens"] must make the ref
    target's payload ride the physical read (pipelines._read_encoded
    _proj) without surfacing n_tok in the logical result."""
    import ray.data as rd

    out = str(tmp_path / "enc")
    encode_corpus(corpus_dir, out, batch_size=256)

    # the corpus really did take the ref (lineage summary says so)
    from colonnade_ray.state.lineage import load_lineage

    lin = load_lineage(out)
    summaries = [json.loads(c) for c in lin["codecs_json"].to_pylist()]
    tok_entries = [next(e for e in s if "values" in e and "lengths" in e)
                   for s in summaries]
    assert all(e["lengths"] == "ref:n_tok" for e in tok_entries), tok_entries[:2]

    dec = decode_corpus(out, columns=["doc_id", "tokens"])
    got = dec.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got.columns) == ["doc_id", "tokens"]
    exp = (
        rd.read_parquet(corpus_dir)
        .select_columns(["doc_id", "tokens"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) == 1200
    assert (got["doc_id"] == exp["doc_id"]).all()
    assert all(
        np.array_equal(a, b) for a, b in zip(got["tokens"], exp["tokens"])
    )


def test_grouped_pushdowns_match_pandas_oracle(tmp_path, ray_session,
                                               monkeypatch):
    """group_counts, group_aggregates and grouped_topk_where under a
    delete mask match pandas over the live rows, descending and
    ascending, with tie_cols and a ``columns=`` projection.  Six
    encoded files make the driver merge more than two scan partials."""
    import ray.data as rd

    from colonnade_ray.pipelines import (
        delete_where,
        group_aggregates,
        group_counts,
        grouped_topk_where,
    )

    rng = np.random.default_rng(47)
    n = 6000
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "src": pa.array([f"s{x}" for x in rng.integers(0, 8, n)]),
        "v": pa.array(rng.integers(-100, 50_000, n), pa.int64()),
    })
    src_dir = tmp_path / "in"
    src_dir.mkdir()
    for i in range(6):  # one scan task per encoded file
        pq.write_table(t.slice(1000 * i, 1000), src_dir / f"p{i}.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src_dir), out, batch_size=128, cluster_by="src")
    delete_where(out, ("v", ">=", 48_000))  # exercise masked chunks
    live = t.to_pandas()
    live = live[live.v < 48_000]

    partials = []
    real_iter = rd.Dataset.iter_batches

    def iter_batches(self, *a, **k):
        for b in real_iter(self, *a, **k):
            partials.append(len(b))
            yield b

    monkeypatch.setattr(rd.Dataset, "iter_batches", iter_batches)

    def merged(res):
        assert sum(1 for p in partials if p) > 2, partials
        partials.clear()
        return res

    by = live.groupby("src").v
    want = pd.DataFrame({"src": by.size().index.astype(object),
                         "n_rows": by.size().to_numpy(),
                         "sum_v": by.sum().to_numpy(),
                         "min_v": by.min().to_numpy(),
                         "max_v": by.max().to_numpy()})
    pd.testing.assert_frame_equal(merged(group_counts(out, "src", "v")),
                                  want[["src", "n_rows", "sum_v"]])
    pd.testing.assert_frame_equal(merged(group_aggregates(out, "src", "v")),
                                  want)

    tk = merged(grouped_topk_where(out, "src", "v", k=3,
                                   tie_cols=["doc_id"])).to_pandas()
    exp = live.sort_values(["src", "v", "doc_id"],
                           ascending=[True, False, True]) \
        .groupby("src").head(3)
    pd.testing.assert_frame_equal(
        tk, exp[["src", "v", "doc_id"]].reset_index(drop=True))

    # ascending + explicit column projection
    tk2 = merged(grouped_topk_where(
        out, "src", "v", k=2, descending=False, tie_cols=["doc_id"],
        columns=["doc_id"])).to_pandas()
    exp2 = live.sort_values(["src", "v", "doc_id"]).groupby("src").head(2)
    pd.testing.assert_frame_equal(
        tk2, exp2[["src", "v", "doc_id"]].reset_index(drop=True))


def test_predicate_or_not_composition(tmp_path, ray_session):
    """OR / NOT / nested predicate expressions flow through every
    pushdown (count/aggregate/summary/topk/decode/delete) with exact
    SQL three-valued semantics, and the zone metadata PRUNES composed
    expressions: disjunctions via conservative may-match union,
    negation via complement-of-proven."""
    from colonnade_ray.pipelines import (
        aggregate_where,
        count_where,
        decode_corpus,
        delete_where,
        summary_where,
        topk_where,
    )
    from colonnade_ray.stages.decode import chunk_all_match, chunk_may_match

    rng = np.random.default_rng(53)
    n = 6000
    vals = rng.integers(0, 10_000, n).astype(object)
    vals[::101] = None  # exercise three-valued NOT
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "v": pa.array(list(vals), pa.int64()),
        "s": pa.array([f"s{x}" for x in rng.integers(0, 5, n)]),
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=256, cluster_by="v",
                  bloom_cols=["doc_id"])
    df = t.to_pandas()

    def sql_count(mask3v):
        # pandas NaN comparisons are False == SQL not-TRUE
        return int(mask3v.sum())

    p_or = ("or", ("v", "<", 1000), ("v", ">", 9000))
    assert count_where(out, p_or) == sql_count((df.v < 1000) | (df.v > 9000))
    p_not = ("not", ("v", ">=", 5000))
    # NOT over null v is null -> not counted (df.v < 5000 is False for NaN)
    assert count_where(out, p_not) == sql_count(df.v < 5000)
    p_nested = ("and", ("not", ("v", "<", 2000)),
                ("or", ("s", "==", "s1"), ("s", "==", "s3")))
    assert count_where(out, p_nested) == sql_count(
        (df.v >= 2000) & df.s.isin(["s1", "s3"]))

    # bloom OR: disjunction of point lookups still probes the filter
    ids = ["d000123", "d004567"]
    p_bloom = ("or", ("doc_id", "==", ids[0]), ("doc_id", "==", ids[1]))
    assert count_where(out, p_bloom) == 2

    # pruning: on the v-clustered layout both OR arms and the NOT
    # complement are mostly provable from zone bands alone
    lin = os.path.join(out, "_lineage")
    sj = []
    for f in os.listdir(lin):
        if f.endswith(".parquet"):
            sj += pq.read_table(os.path.join(lin, f),
                                columns=["stats_json"])["stats_json"].to_pylist()

    def proof_rate(pred):
        proven = sum(1 for s in sj if chunk_all_match(s, pred)
                     or not chunk_may_match(s, pred))
        return proven / len(sj)

    assert proof_rate(p_or) >= 0.8, proof_rate(p_or)
    assert proof_rate(p_not) >= 0.8, proof_rate(p_not)

    # aggregate / summary / topk / decode agree with pandas truth
    live = df[(df.v < 1000) | (df.v > 9000)]
    assert aggregate_where(out, "sum", "v", p_or) == int(live.v.sum())
    sm = summary_where(out, "v", p_not)
    nn = df[df.v < 5000].v
    assert sm == {"count": int((df.v < 5000).sum()), "sum": int(nn.sum()),
                  "min": int(nn.min()), "max": int(nn.max())}
    got_k = topk_where(out, "v", k=5, predicate=p_or,
                       tie_cols=["doc_id"]).to_pandas()
    want_k = live.dropna(subset=["v"]).sort_values(
        ["v", "doc_id"], ascending=[False, True]).head(5)
    assert [int(x) for x in got_k.v] == [int(x) for x in want_k.v]
    dec = decode_corpus(out, columns=["doc_id"], predicate=p_nested).to_pandas()
    want_ids = df[(df.v >= 2000) & df.s.isin(["s1", "s3"])].doc_id
    assert sorted(dec.doc_id) == sorted(want_ids)

    # delete with a composed predicate, then re-verify
    delete_where(out, ("or", ("v", ">", 9500), ("not", ("v", ">=", 100))))
    keep = df[~((df.v > 9500) | (df.v < 100))]
    rest = decode_corpus(out, columns=["doc_id", "v"]).to_pandas()
    assert len(rest) == len(keep)
    assert count_where(out, ("not", ("v", "<", 0))) == \
        int(keep.v.notna().sum())


def test_is_null_not_null_predicates(tmp_path, ray_session):
    """IS NULL / IS NOT NULL predicate leaves across the pushdown
    family: exact SQL semantics, metadata proofs (null-free chunks
    prove all-not-null and prune is_null entirely), composition with
    NOT (NOT(v IS NULL) == v IS NOT NULL by Kleene invert of a
    non-null mask), and delete interplay."""
    from colonnade_ray.pipelines import (
        count_where,
        decode_corpus,
        delete_where,
        summary_where,
    )
    from colonnade_ray.stages.decode import chunk_all_match, chunk_may_match

    rng = np.random.default_rng(83)
    n = 5000
    vals = rng.integers(0, 10_000, n).astype(object)
    vals[::7] = None  # ~14% nulls, scattered
    t = pa.table({
        "doc_id": pa.array([f"d{i:06d}" for i in range(n)]),
        "v": pa.array(list(vals), pa.int64()),
        "w": pa.array(rng.integers(0, 100, n), pa.int64()),  # null-free
    })
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, src / "p0.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(src), out, batch_size=256)
    df = t.to_pandas()
    n_null = int(df.v.isna().sum())

    assert count_where(out, ("v", "is_null", None)) == n_null
    assert count_where(out, ("v", "not_null", None)) == n - n_null
    # null-free column: metadata proves everything
    assert count_where(out, ("w", "is_null", None)) == 0
    assert count_where(out, ("w", "not_null", None)) == n
    lin = os.path.join(out, "_lineage")
    sj = []
    for f in os.listdir(lin):
        if f.endswith(".parquet"):
            sj += pq.read_table(os.path.join(lin, f),
                                columns=["stats_json"])["stats_json"].to_pylist()
    assert all(not chunk_may_match(s, ("w", "is_null", None)) for s in sj)
    assert all(chunk_all_match(s, ("w", "not_null", None)) for s in sj)
    # composition: NOT(IS NULL) == NOT NULL
    assert count_where(out, ("not", ("v", "is_null", None))) == n - n_null
    assert count_where(out, ("or", ("v", "is_null", None),
                             ("v", ">=", 9000))) == \
        int((df.v.isna() | (df.v >= 9000)).sum())
    # decode + summary under the predicate
    ids = decode_corpus(out, columns=["doc_id"],
                        predicate=("v", "is_null", None)).to_pandas()
    assert sorted(ids.doc_id) == sorted(df[df.v.isna()].doc_id)
    sm = summary_where(out, "w", ("v", "not_null", None))
    sub = df[df.v.notna()]
    assert sm == {"count": len(sub), "sum": int(sub.w.sum()),
                  "min": int(sub.w.min()), "max": int(sub.w.max())}
    # delete all null-v rows, verify they are gone
    delete_where(out, ("v", "is_null", None))
    assert count_where(out, ("v", "is_null", None)) == 0
    assert decode_corpus(out, columns=["v"]).to_pandas().v.notna().all()
