"""Corpus construction: the F1 tokens table (FIXTURES.md) two ways.

1. ``tokenized_documents(sf_dir)`` — derive the BASELINE.json
   input_hint shape (doc_id:string, tokens:list<int32>, n_tok:int32,
   source:string) from the driver's documents.parquet via the
   deterministic hash tokenizer.  Used by entry()/queries().
2. ``synth_corpus(out_dir, n_rows, seed)`` — synthesize F1 directly at
   bench scale (Zipf token ids over 50k vocab, log-normal lengths with
   a heavy tail, skewed source mix: one source ≈ 60% of rows), written
   as multi-file parquet so reads parallelize.  Deterministic in
   (n_rows, seed); generation itself fans out as Ray tasks.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .functions.text import HashTokenizer

TOKENS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)


def tokenized_documents(sf_dir: str):
    """documents.parquet -> Dataset in the F1/token-corpus shape."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    from .util import default_concurrency

    return ds.map_batches(
        HashTokenizer, batch_format="pyarrow", batch_size=2048,
        concurrency=default_concurrency(),
    )


# ---------------------------------------------------------------------------
# Synthetic F1 generator (seeded, shard-parallel)

_SOURCES = [f"src{i}" for i in range(8)]
# one hot source at 60%, rest share the tail (FIXTURES.md F1 skew driver)
_SOURCE_P = np.array([0.60, 0.12, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02])


def synth_rows(n_rows: int, seed: int, start_id: int, vocab: int = 50_000) -> pa.Table:
    """One deterministic shard of the F1 corpus."""
    rng = np.random.default_rng(seed)
    lens = np.clip(rng.lognormal(mean=5.545, sigma=1.0, size=n_rows), 1, 65_536).astype(np.int64)
    total = int(lens.sum())
    tok = (rng.zipf(1.3, total) % vocab).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    if offsets[-1] < 2**31:
        offsets = offsets.astype(np.int32)
        tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(tok))
    else:
        tokens = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), pa.array(tok))
    src_idx = rng.choice(len(_SOURCES), size=n_rows, p=_SOURCE_P)
    return pa.table(
        {
            "doc_id": pa.array([f"doc-{start_id + i:010d}" for i in range(n_rows)]),
            "tokens": tokens,
            "n_tok": pa.array(lens.astype(np.int32)),
            "source": pa.array(np.array(_SOURCES, dtype=object)[src_idx]),
        }
    )


def synth_corpus(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    rows_per_file: int = 50_000,
    overwrite: bool = False,
) -> str:
    """Materialize the synthetic corpus as sharded parquet; idempotent
    (skips if the directory already holds the expected shards)."""
    import ray

    marker = os.path.join(out_dir, f"_complete-{n_rows}-{seed}")
    if os.path.exists(marker) and not overwrite:
        return out_dir
    os.makedirs(out_dir, exist_ok=True)

    @ray.remote
    def _write_shard(i: int, rows: int, start: int) -> str:
        t = synth_rows(rows, seed=seed * 1_000_003 + i, start_id=start)
        path = os.path.join(out_dir, f"part-{i:05d}.parquet")
        pq.write_table(t, path)
        return path

    shards = []
    start = 0
    i = 0
    while start < n_rows:
        rows = min(rows_per_file, n_rows - start)
        shards.append(_write_shard.remote(i, rows, start))
        start += rows
        i += 1
    ray.get(shards)
    with open(marker, "w") as f:
        f.write("ok")
    return out_dir
