"""Benchmark harness (driver-run per round; BASELINE.md companion).

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N, ...extras}

Headline = wall seconds to encode the synthetic F1 token corpus
(FIXTURES.md) at the given scale through the flagship pipeline
(read -> groupby-on-source size-aware shuffle -> encoder actor pool ->
uncompressed parquet + lineage).  Extras report tokens/sec,
bytes/token, and the operational "reference compressed size"
competitors (plain/zstd parquet of the identical table, BASELINE.md).

--scaling: re-runs this script in fresh CPU-affinity-pinned processes
at N and 4N vCPUs (default 2 and 8) on the same 8x-size input and
reports both throughputs + scaling efficiency (sandbox evidence for
the N->4N cluster criterion).  taskset confines each level to exactly
N physical vCPUs so the low level is a faithful small node instead of
one actor backed by the idle 32-vCPU box (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# Keep freed large buffers in the process heap instead of
# munmap/re-mmap churn: this Firecracker VM spends ~50% of cycles in
# kernel page-fault handling under 32-way numpy load without it
# (measured +41% aggregate codec throughput).  Must be set BEFORE
# ray.init so worker processes inherit it at exec time.
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 30))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1 << 30))
# This VM thrashes superlinearly beyond ~16 concurrent memory-heavy
# tasks (BASELINE.md); clamp per-stage parallelism accordingly.
os.environ.setdefault("COLONNADE_EFFECTIVE_CPUS", "16")


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def competitor_sizes(corpus_dir: str, cache: str) -> dict:
    """Parquet snappy/zstd bytes for the identical table (cached)."""
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    import pyarrow.parquet as pq

    import ray

    @ray.remote
    def one(path: str) -> tuple:
        t = pq.read_table(path)
        out = {}
        for comp in ("snappy", "zstd"):
            tmp = f"{path}.{comp}.tmp"
            pq.write_table(t, tmp, compression=comp)
            out[comp] = os.path.getsize(tmp)
            os.remove(tmp)
        return out["snappy"], out["zstd"]

    shards = [
        os.path.join(corpus_dir, f)
        for f in sorted(os.listdir(corpus_dir))
        if f.endswith(".parquet")
    ]
    res = ray.get([one.remote(p) for p in shards])
    sizes = {
        "parquet_snappy_bytes": sum(r[0] for r in res),
        "parquet_zstd_bytes": sum(r[1] for r in res),
    }
    with open(cache, "w") as f:
        json.dump(sizes, f)
    return sizes


def run_bench() -> dict:
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    sf = _sf_of(sf_dir)

    import ray

    ray.init(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # partitioning only needs co-location, not global order; the hash
    # shuffle strategy is measurably faster than the pull-based sort
    # here (GRAFT_SHUFFLE_STRATEGY overrides for A/B)
    try:
        ctx.shuffle_strategy = os.environ.get("GRAFT_SHUFFLE_STRATEGY", "hash_shuffle")
    except Exception:
        pass

    import ray.data as rd

    from colonnade_ray.corpus import synth_corpus
    from colonnade_ray.pipelines import (
        decode_digest_corpus,
        encode_corpus,
        roundtrip_verify,
    )
    from colonnade_ray.stages.verify import dataset_digest

    mult = int(os.environ.get("GRAFT_BENCH_SCALE_MULT", "1"))
    n_rows = max(int(2_000_000 * sf), 2_000) * mult
    corpus_dir = f"/tmp/colonnade_bench/corpus-sf{sf}-m{mult}"
    synth_corpus(corpus_dir, n_rows, seed=42, rows_per_file=25_000)

    # warm the page cache so we measure compute+shuffle, not cold disk
    rd.read_parquet(corpus_dir).map_batches(
        lambda b: {"n": [b.num_rows]}, batch_format="pyarrow"
    ).count()
    # heap prewarm: fault ~256 MB of arena in every worker process.
    # On this Firecracker VM, first-touch page backing runs at only
    # ~250 MB/s, and the malloc thresholds above mean each worker pays
    # it exactly once — without this stage that cost smears across the
    # first ~5 timed encode calls (measured 8.5 -> 2.1 s convergence;
    # with the prewarm, rep 0 starts at steady state ~1.2-2.0 s).
    # 64 tasks at num_cpus=0.5 so more workers than the 32 logical
    # slots get touched (Ray routes later encode tasks to any of them).
    def _touch(_):
        import numpy as np

        a = np.empty(256 << 20, dtype=np.uint8)
        a[::4096] = 1
        del a
        return {"ok": [1]}

    if os.environ.get("GRAFT_BENCH_NO_PREWARM") != "1":
        rd.range(64, override_num_blocks=64).map_batches(
            _touch, batch_size=None, num_cpus=0.5
        ).count()
    # untimed warm-up encode of a slice: spins up the worker pool and
    # faults its memory so the timed run measures steady state
    shards = sorted(
        os.path.join(corpus_dir, f)
        for f in os.listdir(corpus_dir)
        if f.endswith(".parquet")
    )
    warm_dir = f"/tmp/colonnade_bench/warm-sf{sf}-m{mult}-cpus{cpus}"
    shutil.rmtree(warm_dir, ignore_errors=True)
    # warm on the FULL corpus at sf<=0.1: a 2-shard slice only spins up
    # a couple of encoder actors, leaving the rest to fault their heaps
    # inside timed rep 1 (measured: reps converge 8.5 -> 2.1 s over 5
    # draws with slice warm-up, vs near-flat after one full pass); at
    # larger mult keep the slice to bound warm-up cost
    warm_inputs = corpus_dir if mult <= 1 else shards[: max(2, len(shards) // 8)]
    warm_passes = int(os.environ.get("GRAFT_BENCH_WARM_PASSES", "1"))
    for _ in range(warm_passes):
        shutil.rmtree(warm_dir, ignore_errors=True)
        encode_corpus(warm_inputs, warm_dir, batch_size=8192, resume=False)
    encode_only = os.environ.get("GRAFT_BENCH_ENCODE_ONLY") == "1"
    if not encode_only:
        # untimed decode warm-up: decode tasks run in the DEFAULT worker
        # pool (encode actors are separate processes), so the first
        # timed decode otherwise pays ~16 workers x first-touch heap
        # page faults — measured 3-5x on rep1 vs rep3 on this VM
        decode_digest_corpus(warm_dir, ["doc_id", "tokens", "n_tok", "source"])

    out_dir = f"/tmp/colonnade_bench/enc-sf{sf}-m{mult}-cpus{cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # best-of-N: this VM's throughput swings up to 4x run-to-run
    # (hypervisor mood); 3 repeats at sf0.1 cost ~15 s total
    repeats = int(os.environ.get("GRAFT_BENCH_REPEAT", "3"))

    timings: dict = {}
    encode_reps: list = []
    dec_reps: list = []
    # encode/decode repeats INTERLEAVED (enc, dec, enc, dec, ...) so
    # the decode-vs-encode parity comparison samples the same VM
    # phases — this box swings 2-4x on a minutes scale, and running
    # all encodes before all decodes lets phase drift masquerade as a
    # pipeline asymmetry
    for rep in range(repeats):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        # Flagship = NO global exchange (round-3 A/B at sf0.1/32cpus:
        # shuffled 7.3 s / 0.9721 B/token vs unshuffled 4.0 s / 0.9677 —
        # the all-to-all buys nothing here because per-chunk FSST
        # training recovers source locality, and at 100 TB an
        # avoidable full-corpus exchange is the #1 scale-killer).
        # GRAFT_BENCH_SHUFFLE=1 re-enables the size-aware source
        # shuffle for A/B.
        summary = encode_corpus(
            corpus_dir, out_dir, batch_size=8192,
            partition_by="source" if os.environ.get("GRAFT_BENCH_SHUFFLE") == "1" else None,
            resume=False,
            transport=os.environ.get("GRAFT_BENCH_NO_TRANSPORT") != "1",
        )
        encode_reps.append(round(time.time() - t0, 3))
        if not encode_only:
            t0 = time.time()
            dec_digest = decode_digest_corpus(
                out_dir, ["doc_id", "tokens", "n_tok", "source"]
            )
            dec_reps.append(round(time.time() - t0, 3))
    timings["encode"] = min(encode_reps)

    if encode_only:
        match = None
        comp = {"parquet_snappy_bytes": 0, "parquet_zstd_bytes": 0}
    else:
        # same estimator as encode (min-of-N, repeats interleaved):
        # this VM swings 4x run to run, and mixing min-for-encode with
        # median-for-decode would skew the decode-vs-encode parity
        # comparison; both full repeat lists are published below
        timings["decode_digest"] = min(dec_reps)

        t0 = time.time()
        orig_digest = dataset_digest(
            rd.read_parquet(corpus_dir), ["doc_id", "tokens", "n_tok", "source"]
        )
        timings["orig_digest"] = round(time.time() - t0, 3)
        match = dec_digest == orig_digest

        # query-shaped decode: 2-column projection + zone-map predicate
        # (the "extract these columns where X" workload) — exercises
        # projected payload reads and chunk pruning end to end
        from colonnade_ray.pipelines import decode_corpus

        t0 = time.time()
        sel_rows = decode_corpus(
            out_dir, columns=["doc_id", "n_tok"],
            predicate=[("n_tok", ">=", 400)],
        ).count()
        timings["selective_decode"] = round(time.time() - t0, 3)

        # COUNT(*) pushdown: same predicate answered from zone maps +
        # boundary-chunk decodes only — no row ever materializes
        from colonnade_ray.pipelines import count_where

        t0 = time.time()
        cw_rows = count_where(out_dir, ("n_tok", ">=", 400))
        timings["count_where"] = round(time.time() - t0, 3)
        assert cw_rows == sel_rows, (cw_rows, sel_rows)

        from colonnade_ray.pipelines import topk_where

        t0 = time.time()
        tk = topk_where(out_dir, "n_tok", k=10, tie_cols=["doc_id"])
        timings["topk_where"] = round(time.time() - t0, 3)
        assert len(tk) == 10

        comp = competitor_sizes(
            corpus_dir, f"/tmp/colonnade_bench/comp-sf{sf}-m{mult}.json"
        )

        # lifecycle ops on the (fresh, already-verified) encoded
        # corpus — mutates out_dir, so this stays the LAST stage.
        # Guarded: a lifecycle failure must not sink the headline.
        try:
            from colonnade_ray.pipelines import (
                delete_where,
                replace_where,
                vacuum_deletes,
            )

            t0 = time.time()
            delete_where(out_dir, ("n_tok", ">=", 600))
            timings["delete_where"] = round(time.time() - t0, 3)
            t0 = time.time()
            vacuum_deletes(out_dir)
            timings["vacuum_deletes"] = round(time.time() - t0, 3)
            t0 = time.time()
            replace_where(out_dir, ("n_tok", ">=", 500),
                          {"source": "capped"})
            timings["replace_where"] = round(time.time() - t0, 3)

            # merge + snapshot, the session-7 lifecycle surface
            import pyarrow as _pa
            import pyarrow.parquet as _pq

            from colonnade_ray.pipelines import (
                create_snapshot,
                decode_snapshot,
                merge_rows,
            )

            dec1 = decode_corpus(out_dir, columns=["doc_id"])
            some = [r["doc_id"] for r in dec1.take(2_000)]
            n = len(some) + 500
            batch = _pa.table({
                "doc_id": _pa.array(
                    some + [f"doc-m-{i:07d}" for i in range(500)]),
                "tokens": _pa.array([[1, 2, 3]] * n, _pa.list_(_pa.int32())),
                "n_tok": _pa.array([3] * n, _pa.int32()),
                "source": _pa.array(["merged"] * n),
            })
            bdir = f"/tmp/colonnade_bench/merge-sf{sf}-m{mult}"
            os.makedirs(bdir, exist_ok=True)
            bp = os.path.join(bdir, "batch-0.parquet")
            _pq.write_table(batch, bp)
            t0 = time.time()
            merge_rows(out_dir, bp, key="doc_id")
            timings["merge_rows"] = round(time.time() - t0, 3)
            t0 = time.time()
            create_snapshot(out_dir, "bench")
            timings["create_snapshot"] = round(time.time() - t0, 3)
            t0 = time.time()
            n_snap = decode_snapshot(out_dir, "bench",
                                     columns=["n_tok"]).count()
            timings["decode_snapshot"] = round(time.time() - t0, 3)
            assert n_snap > 0
        except Exception as exc:  # pragma: no cover
            timings["lifecycle_error"] = str(exc)[:200]

    tokens = summary["tokens"]
    result = {
        "metric": "flagship encode wall sec (synthetic F1 tokens corpus)",
        "value": timings["encode"],
        "unit": "sec",
        "queries": dict(timings),
        "sf": sf,
        "num_cpus": cpus,
        "rows": summary["rows"],
        "tokens": tokens,
        "tokens_per_sec": round(tokens / timings["encode"]),
        "bytes_out": summary["bytes_out"],
        "bytes_in": summary["bytes_in"],
        "bytes_per_token": round(summary["bytes_out"] / max(tokens, 1), 4),
        "encode_repeats_sec": encode_reps,
        "decode_repeats_sec": [] if encode_only else dec_reps,
        "roundtrip_match": None if match is None else bool(match),
        "selective_decode_rows": None if encode_only else int(sel_rows),
        "parquet_snappy_bytes": comp["parquet_snappy_bytes"],
        "parquet_zstd_bytes": comp["parquet_zstd_bytes"],
        "beats_snappy": summary["bytes_out"] < comp["parquet_snappy_bytes"],
        "beats_zstd": summary["bytes_out"] < comp["parquet_zstd_bytes"],
    }
    ray.shutdown()
    return result


def _scaling_run(n: int, shuffled: bool = False) -> dict:
    mult = os.environ.get("GRAFT_SCALING_MULT", "8")
    env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_BENCH_SCALE_MULT=mult,
               GRAFT_BENCH_ENCODE_ONLY="1", GRAFT_BENCH_REPEAT="1")
    if shuffled:
        env["GRAFT_BENCH_SHUFFLE"] = "1"
    cmd = [sys.executable, os.path.abspath(__file__)]
    if os.environ.get("GRAFT_SCALING_PIN", "1") == "1":
        # Confine the ENTIRE process tree (driver, raylet, workers) to n
        # physical vCPUs so an "n-CPU node" really is n vCPUs.  Without
        # this the low level runs one actor with the whole 32-vCPU
        # box's cache/memory system behind it — an artificially fast
        # small "cluster" that understates scaling (round-2 verdict).
        # Affinity-pinned levels are the standard single-box proxy for
        # node counts.
        cmd = ["taskset", "-ac", f"0-{n - 1}"] + cmd
    out = subprocess.run(
        cmd,
        env=env, capture_output=True, text=True, check=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _median(xs: list) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def run_scaling() -> dict:
    """Same job at N and 4N CPUs, fresh processes per measurement,
    8x-size input (so compute dominates fixed per-job costs).

    REPEATED: GRAFT_SCALING_REPEATS (default 5) interleaved lo/hi
    pairs; the reported efficiency is the MEDIAN of per-pair
    efficiencies (the round-1 verdict asked for median-of-repeats, not
    best-of, against the >=0.8 bar)."""
    # N -> 4N. Default pair 2->8: with the round-2 build, BOTH levels
    # sit below this VM's ~27M tok/s full-pipeline ceiling (the 16-CPU
    # level is ceiling-bound, so 4->16 measures the hypervisor, not the
    # pipeline — BASELINE.md decomposition).  GRAFT_SCALING_PAIR
    # overrides, e.g. "4,16".
    pair = os.environ.get("GRAFT_SCALING_PAIR", "2,8")
    lo, hi = (int(x) for x in pair.split(","))
    reps = int(os.environ.get("GRAFT_SCALING_REPEATS", "5"))
    shuf_reps = int(os.environ.get("GRAFT_SCALING_SHUFFLED_REPEATS", "1"))
    effs, lo_tps, hi_tps = [], [], []
    for _ in range(reps):
        # interleave lo/hi within each pair so slow drift (page cache,
        # thermal) hits both levels equally
        r_lo = _scaling_run(lo)
        r_hi = _scaling_run(hi)
        lo_tps.append(r_lo["tokens_per_sec"])
        hi_tps.append(r_hi["tokens_per_sec"])
        effs.append((r_hi["tokens_per_sec"] / r_lo["tokens_per_sec"]) / (hi / lo))
    # secondary decomposition: the OPTIONAL size-aware source exchange
    # (partition_by="source") measured on the same pair, so the
    # all-to-all's scaling is reported separately from the flagship
    shuf_effs, shuf_lo, shuf_hi = [], [], []
    for _ in range(shuf_reps):
        r_lo = _scaling_run(lo, shuffled=True)
        r_hi = _scaling_run(hi, shuffled=True)
        shuf_lo.append(r_lo["tokens_per_sec"])
        shuf_hi.append(r_hi["tokens_per_sec"])
        shuf_effs.append((r_hi["tokens_per_sec"] / r_lo["tokens_per_sec"]) / (hi / lo))
    median_eff = _median(effs)
    return {
        "metric": f"scaling efficiency (tokens/sec, {lo} -> {hi} CPUs, CPU-affinity-pinned fresh processes, 8x input, median of {reps})",
        "value": round(median_eff, 3),
        "unit": "efficiency",
        "scaling_efficiency": round(median_eff, 3),
        "efficiency_per_repeat": [round(e, 3) for e in effs],
        f"tokens_per_sec_{lo}": lo_tps,
        f"tokens_per_sec_{hi}": hi_tps,
        "shuffled_variant_efficiency_median": round(_median(shuf_effs), 3) if shuf_effs else None,
        f"shuffled_variant_tokens_per_sec_{lo}": shuf_lo,
        f"shuffled_variant_tokens_per_sec_{hi}": shuf_hi,
        "note": (
            "Each level's ENTIRE process tree (driver, raylet, workers) is "
            "taskset-pinned to exactly N physical vCPUs, so an N-CPU level is a "
            "faithful N-vCPU node and the low level cannot borrow the idle box's "
            "cache/memory system (round-2 verdict measurement-design fix). "
            "Flagship = no-global-exchange encode (read -> fused prep -> "
            "encode -> write, one task per read block); shuffled_variant_* = the optional "
            "partition_by='source' all-to-all on the same pair."
        ),
        "sf": r_lo["sf"],
        "tokens": r_lo["tokens"],
    }


def run_ops() -> dict:
    """Wall seconds for the heavyweight driver queries over
    $GRAFT_SF_DIR — the reproducible source of BASELINE.md's operator
    table (one warm Ray session, queries in a fixed order)."""
    import importlib.util

    import pandas as pd
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, ignore_reinit_error=True)
    here = os.path.dirname(os.path.abspath(__file__))
    spec = importlib.util.spec_from_file_location(
        "re_", os.path.join(here, "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    q = m.queries()
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    names = [n for n in (
        "near_dup_pairs", "jaccard_pairs_exact", "dup_groups", "dedup_keep",
        "dup_gram_stats", "dedup_spans", "embedding_near_dups_lsh",
        "similarity_topk", "tfidf_topk", "lm_commonness", "shuffle_export",
        "chunk_sequences", "collocations", "temperature_mix", "bloom_probe",
        "local_supplier_volume", "retention", "funnel", "curation_v2",
        "winsorize", "bpe_merges", "vocab_drift", "mode_lang",
        "active_customers", "encoded_count_where", "encoded_topk",
        "encoded_zorder_pushdown", "range_join_events",
    ) if n in q]
    out = {}
    for name in names:
        t0 = time.time()
        r = q[name](sf_dir)
        if isinstance(r, pd.DataFrame):
            n = len(r)
        elif hasattr(r, "count"):
            n = r.count()
        else:
            n = r.num_rows
        out[name] = {"sec": round(time.time() - t0, 1), "rows": int(n)}
    ray.shutdown()
    return {"metric": "operator wall sec", "unit": "sec",
            "sf": _sf_of(sf_dir), "ops": out}


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--ops" in sys.argv:
        print(json.dumps(run_ops()))
    else:
        print(json.dumps(run_bench()))
