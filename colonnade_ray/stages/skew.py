"""Skew handling: groupby-on-source + size-aware shuffle.

Mandated by BASELINE.json north_rule ("explicitly repartitions with a
groupby-on-source + size-aware shuffle to defuse skew from long-tail
token arrays").  The reference is sequential so this is pure design
(SURVEY.md §4 skew row):

1. A cheap pruned aggregation pass reads ONLY (source, n_tok) and
   computes tokens per source (``ds.groupby("source").aggregate(Sum)``
   over per-batch partials — the partial+final pattern of
   ``annotateFinely``, colonnade/src/Colonnade/Encode.hs:330-340).
2. Each source gets ceil(tokens/budget) salt buckets; rows are salted
   by a deterministic doc_id hash.  Hot sources (one source can be 60%
   of rows, FIXTURES.md F1) split into many buckets; cold sources stay
   in one.
3. One range-partition shuffle on the salted key (``ds.sort``) makes
   every downstream encoder batch single-source and size-bounded, so
   each chunk's own FSST table and dictionaries see one source's
   vocabulary and no block dwarfs its peers.

Partitioning assumption documented per SURVEY.md: downstream stages
rely on batches being runs of a single (source, salt) bucket; they
remain CORRECT without it (codecs are chunk-local), only less
compressed/balanced.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

PKEY = "__cr_pkey"
DEFAULT_TOKEN_BUDGET = 4_000_000  # tokens per partition bucket (~1 encode chunk)


def source_token_totals(paths, token_col: str = "n_tok", source_col: str = "source"):
    """Pruned-read aggregation: tokens per source (small result).

    Partial-per-batch + driver combine (the annotateFinely step/finish
    pattern, colonnade/src/Colonnade/Encode.hs:330-340): one row per
    (batch, source) leaves the workers — no groupby shuffle, no
    full-row movement; a bare groupby().aggregate() here measured
    ~3.5s of fixed overhead regardless of CPUs.

    Small inputs (< 1 GiB of the two pruned columns, estimated from
    file sizes) skip Ray entirely: a threaded pyarrow read of two thin
    columns costs ~0.3s where a Ray job floor is ~1.5s.  Large inputs
    take the distributed path."""
    import os

    path_list = [paths] if isinstance(paths, str) else list(paths)
    if all(isinstance(p, str) and os.path.isfile(p) for p in path_list):
        # size the PRUNED columns, not the files: one footer read gives
        # exact per-column chunk bytes; extrapolate over shards.  The
        # old whole-file guard sent a 5 GB corpus (whose two thin
        # columns are ~2% of it) down the Ray path and paid ~3.4 s of
        # driver-serial job floor inside the timed encode — a direct
        # Amdahl hit on scaling efficiency.
        import pyarrow.parquet as pq

        try:
            md = pq.ParquetFile(path_list[0]).metadata
            per_file = 0
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                for ci in range(g.num_columns):
                    col = g.column(ci)
                    if col.path_in_schema in (source_col, token_col):
                        per_file += col.total_compressed_size
            pruned_bytes = per_file * len(path_list)
        except Exception:
            pruned_bytes = sum(os.path.getsize(p) for p in path_list)
        if pruned_bytes < (1 << 30):
            import pyarrow.dataset as pads

            t = pads.dataset(path_list).to_table(columns=[source_col, token_col])
            agg = pa.table(
                {source_col: t[source_col], "t": pc.cast(t[token_col], pa.int64())}
            ).group_by(source_col).aggregate([("t", "sum")])
            return {
                s: int(v)
                for s, v in zip(agg[source_col].to_pylist(), agg["t_sum"].to_pylist())
            }

    import ray.data as rd

    def partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {source_col: b[source_col], "t": pc.cast(b[token_col], pa.int64())}
        ).group_by(source_col).aggregate([("t", "sum")])

    ds = rd.read_parquet(paths, columns=[source_col, token_col])
    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    totals: dict = {}
    for r in rows:
        totals[r[source_col]] = totals.get(r[source_col], 0) + int(r["t_sum"])
    return totals


def salt_counts(totals: dict, token_budget: int = DEFAULT_TOKEN_BUDGET) -> dict:
    return {s: max(1, math.ceil(t / token_budget)) for s, t in totals.items()}


class AddPartitionKey:
    """map_batches callable: adds the salted partition key column.

    salt = siphash(doc_id) % nsalt(source) — deterministic across
    retries/processes (pandas hash_array uses a fixed key)."""

    def __init__(self, nsalts: dict, id_col: str = "doc_id", source_col: str = "source"):
        self.nsalts = nsalts
        self.id_col = id_col
        self.source_col = source_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        src = batch[self.source_col].to_pylist() if self.source_col in batch.column_names else [""] * n
        nsalt = np.array([self.nsalts.get(s, 1) for s in src], dtype=np.uint64)
        if self.id_col in batch.column_names:
            ids = batch[self.id_col].to_pandas().to_numpy(dtype=object)
            h = pd.util.hash_array(ids, categorize=False).astype(np.uint64)
        else:
            h = np.arange(n, dtype=np.uint64)
        salt = (h % np.maximum(nsalt, 1)).astype(np.int64)
        # int64 sort key (source ordinal * 2^16 + salt): cheaper to
        # range-partition than strings
        ordinals = {s: i for i, s in enumerate(sorted(self.nsalts))}
        src_ord = np.array([ordinals.get(s, len(ordinals)) for s in src], dtype=np.int64)
        key = pa.array(src_ord * (1 << 16) + salt, pa.int64())
        return batch.append_column(PKEY, key)


def partition_by_source(
    ds,
    nsalts: dict,
    id_col: str = "doc_id",
    source_col: str = "source",
):
    """The explicit shuffle: salt, then one global range partition on
    (source, salt) (``ds.sort``).

    This is the ONE mandated all-to-all in the encode pipeline
    (SURVEY.md §7 "shuffles and their keys"); everything else streams.
    It is the only exchange because it measured fastest: at 673M
    tokens on 16 CPUs (interleaved repeats) the range sort took 28-35 s
    against 72-92 s for a hash repartition with per-partition sort, as
    Ray 2.49's hash-shuffle operator pays heavy per-partition
    finalization here; and a session switched to hash shuffling once
    stalled a 550-row keyed antijoin for ~9 minutes.
    """
    keyed = ds.map_batches(
        AddPartitionKey(nsalts, id_col, source_col), batch_format="pyarrow"
    )
    return keyed.sort(PKEY)
