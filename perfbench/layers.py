"""Per-layer metrics of a traced run.

Sources: the spans of trace.py; the encoded output itself (bits per
value, codec choices); a replay of chunk classification over the lineage
manifest; Ray Data's Dataset stats; and a no-op ``ray.data`` job.  A
layer the workload does not use reports 0.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import trace

CODEC_COLS = ["doc_id", "tokens", "n_tok", "source"]
CODECS = ["plain", "for_bitpack", "delta_bitpack", "rle", "dict_bitpack",
          "dict_varint", "dict_bitlen", "dict_rans", "dict_rans_shared",
          "dict_rans2_shared", "fsst"]
OPS = ["encode_corpus", "decode_digest_corpus", "count_where", "aggregate_where",
       "topk_where", "approx_quantiles", "approx_distinct", "decode_corpus",
       "delete_where", "replace_where", "merge_rows", "vacuum_deletes",
       "compact_corpus"]
DEDUP_OPS = ["near_dup_pairs", "dedup_keep"]
PRUNE = [("topk_where", "chunks_total"), ("topk_where", "chunks_candidate"),
         ("approx_quantiles", "chunks_sketched"), ("approx_quantiles", "chunks_scanned"),
         ("approx_distinct", "chunks_sketched"), ("approx_distinct", "chunks_scanned")]
STAGES = ["stages.transport.pack_list_columns", "stages.encode.encode_chunk",
          "stages.bloomzone.build", "stages.decode.decode_chunk_row",
          "stages.verify.batch_digest"]
STATS_DATASETS = ["decode_corpus", "encode_dataset"]


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for kind in ("encode_column", "decode_column"):
        for c in CODEC_COLS:
            out += [(f"codecs.{kind}.{c}.busy_s", "s", "lower"),
                    (f"codecs.{kind}.{c}.mb_s", "MB/s", "higher")]
    out += [(f"codecs.{c}.bits_per_value", "bit", "lower") for c in CODEC_COLS]
    out += [(f"codecs.selected.{c}.chunks", "count", "higher") for c in CODECS]
    out += [(f"{s}.busy_s", "s", "lower") for s in STAGES]
    out += [("stages.transport.narrow_ratio", "ratio", "lower"),
            ("stages.decode.classify.us_per_chunk", "us", "lower"),
            ("stages.decode.classify.chunks", "count", "lower"),
            ("stages.decode.classify.proven_frac", "ratio", "higher"),
            ("stages.decode.classify.pruned_frac", "ratio", "higher"),
            ("stages.decode.classify.decoded_frac", "ratio", "lower")]
    for op in OPS:
        out += [(f"pipelines.{op}.wall_ms", "ms", "lower"),
                (f"pipelines.{op}.calls", "count", "higher")]
    out += [("pipelines.train_shared_dicts.busy_s", "s", "lower")]
    out += [(f"pipelines.{op}.{k}", "count", "lower") for op, k in PRUNE]
    out += [("pipelines.load_delete_masks.ms", "ms", "lower"),
            ("pipelines.committed_deletes.count", "count", "lower"),
            ("lifecycle.bytes_rewritten_per_live_byte", "ratio", "lower")]
    out += [("raydata.job_floor_ms", "ms", "lower")]
    for ds in STATS_DATASETS:
        for kind in ("read", "map"):
            out += [(f"raydata.{ds}.{kind}.wall_s", "s", "lower"),
                    (f"raydata.{ds}.{kind}.udf_s", "s", "lower")]
    for op in DEDUP_OPS:
        out += [(f"functions.dedup.{op}.wall_s", "s", "lower"),
                (f"functions.dedup.{op}.calls", "count", "higher")]
    out += [("functions.dedup.verified_per_candidate", "ratio", "higher")]
    out += [(f"trace.{layer}.self_s", "s", "lower")
            for layer in trace.LAYERS + ("bench",)]
    out += [("trace.residual_s", "s", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("trace.spans", "count", "lower"),
            ("bench.requests", "count", "higher"),
            ("bench.classify_share_of_request", "ratio", "lower"),
            ("bench.job_floor_share_of_request", "ratio", "lower")]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def from_spans(spans: list) -> dict:
    m: dict = {}
    busy: dict = {}
    nbytes: dict = {}
    for s in spans:
        dur = s["end"] - s["start"]
        key = s["name"]
        if key.startswith("codecs.") and s.get("col"):
            key = f"{key}.{s['col']}"
            nbytes[key] = nbytes.get(key, 0) + s.get("bytes", 0)
        busy[key] = busy.get(key, 0.0) + dur
    for kind in ("encode_column", "decode_column"):
        for c in CODEC_COLS:
            k = f"codecs.{kind}.{c}"
            m[f"{k}.busy_s"] = busy.get(k, 0.0)
            m[f"{k}.mb_s"] = _ratio(nbytes.get(k, 0) / 1e6, busy.get(k, 0.0))
    for st in STAGES:
        m[f"{st}.busy_s"] = busy.get(st, 0.0)
    m["pipelines.train_shared_dicts.busy_s"] = busy.get("pipelines.train_shared_dicts", 0.0)
    packs = [s for s in spans if s["name"] == "stages.transport.pack_list_columns"]
    m["stages.transport.narrow_ratio"] = _ratio(
        sum(s.get("bytes_out", 0) for s in packs), sum(s.get("bytes_in", 0) for s in packs))
    ver = [s for s in spans if s["name"] == "functions.dedup.verify"]
    m["functions.dedup.verified_per_candidate"] = _ratio(
        sum(s.get("rows_out", 0) for s in ver), sum(s.get("rows_in", 0) for s in ver))
    for layer, v in trace.self_times(spans).items():
        m[f"trace.{layer}.self_s"] = v
    m["trace.spans"] = len(spans)
    return m


def from_output(corpus: str) -> dict:
    """Bits per stored value (payload and codec meta) and codec choices
    of the encoded corpus."""
    from colonnade_ray.pipelines import active_groups

    files = [f for g in active_groups(corpus)
             for f in glob.glob(os.path.join(corpus, "data", f"group-{g}", "*.parquet"))]
    payload = {c: 0 for c in CODEC_COLS}
    rows = tokens = 0
    chosen = {c: 0 for c in CODECS}
    for f in files:
        t = pq.read_table(f)
        rows += pc.sum(t["n_rows"]).as_py() or 0
        tokens += pc.sum(t["n_tokens"]).as_py() or 0
        for codecs in t["codecs_json"].to_pylist():
            used = {v for col in json.loads(codecs) for v in col.values()}
            for c in CODECS:
                chosen[c] += c in used
        names = json.loads(t["plan_json"][0].as_py()) if t.num_rows else []
        for i, name in enumerate(names):
            if name in payload:  # constant streams live in the meta alone
                for part in ("payload", "meta"):
                    payload[name] += pc.sum(pc.binary_length(
                        t[f"col{i}_{part}"])).as_py() or 0
    m = {}
    for c in CODEC_COLS:
        values = tokens if c == "tokens" else rows
        m[f"codecs.{c}.bits_per_value"] = _ratio(8.0 * payload[c], values)
    for c in CODECS:
        m[f"codecs.selected.{c}.chunks"] = chosen[c]
    return m


def classify_replay(corpus: str, predicates: list) -> dict:
    """Replay chunk_may_match / chunk_all_match over every manifest row
    for each predicate: pruned (no row can match), proven (every row
    matches, answered from metadata) or decoded."""
    from colonnade_ray.pipelines import active_groups
    from colonnade_ray.pipelines.encode_pipeline import lineage_table
    from colonnade_ray.stages.decode import (
        chunk_all_match,
        chunk_may_match,
        normalize_predicates,
    )

    stats = [sj for g in active_groups(corpus)
             for sj in lineage_table(corpus, g)["stats_json"].to_pylist()]
    n = pruned = proven = 0
    t0 = time.perf_counter()
    for pred in predicates:
        preds = normalize_predicates(pred)
        for sj in stats:
            n += 1
            if not all(chunk_may_match(sj, p) for p in preds):
                pruned += 1
            elif all(chunk_all_match(sj, p) for p in preds):
                proven += 1
    dt = time.perf_counter() - t0
    return {"stages.decode.classify.us_per_chunk": _ratio(dt * 1e6, n),
            "stages.decode.classify.chunks": len(stats) if predicates else 0,
            "stages.decode.classify.proven_frac": _ratio(proven, n),
            "stages.decode.classify.pruned_frac": _ratio(pruned, n),
            "stages.decode.classify.decoded_frac": _ratio(n - pruned - proven, n)}


_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _total_s(line: str) -> float:
    m = re.search(r"([\d.]+)(us|ms|s) total", line)
    return float(m.group(1)) * _UNIT[m.group(2)] if m else 0.0


def dataset_stats(name: str, text: str) -> dict:
    """Remote wall and UDF seconds per operator kind (read / map) from
    ``Dataset.stats()`` text."""
    m = {f"raydata.{name}.{k}.{x}": 0.0 for k in ("read", "map") for x in ("wall_s", "udf_s")}
    kind = None
    for line in text.splitlines():
        op = re.match(r"\s*Operator \d+ (\S+)", line)
        if op:
            kind = "read" if op.group(1).startswith("Read") else "map"
        elif kind and "Remote wall time" in line:
            m[f"raydata.{name}.{kind}.wall_s"] += _total_s(line)
        elif kind and "UDF time" in line:
            m[f"raydata.{name}.{kind}.udf_s"] += _total_s(line)
    return m


def ray_data_layer(corpus: str, src: str) -> dict:
    """Dataset stats of a full decode_corpus and an encode_dataset over
    the workload's corpus, and the median of five no-op jobs."""
    import ray.data as rd

    from colonnade_ray.pipelines import decode_corpus, encode_dataset

    m = {}
    ds = decode_corpus(corpus).materialize()
    m.update(dataset_stats("decode_corpus", ds.stats()))
    ds = encode_dataset(rd.read_parquet(src)).materialize()
    m.update(dataset_stats("encode_dataset", ds.stats()))
    floor = []
    for _ in range(6):
        t0 = time.perf_counter()
        rd.range(1).map_batches(lambda b: b).take_all()
        floor.append((time.perf_counter() - t0) * 1e3)
    m["raydata.job_floor_ms"] = statistics.median(floor[1:])
    return m
