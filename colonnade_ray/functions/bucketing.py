"""One bucketed exchange: the only hash-bucket shuffle in ``functions/``.

Ray Data's sort-based groupby invokes Python once PER GROUP; at
millions of small groups (candidate pairs, fingerprints, band
buckets, label-propagation nodes) that overhead dominates wall time
(measured ~60 s for 2M rows / 250k groups on 8 cpus vs ~2 s for the
same rows in 64 bucket groups).  The fix is one level of indirection,
and every keyed exchange of the functions layer goes through it,
``bucketed_group_apply(ds, key_cols, fn)``:

- **Key co-location.**  Rows shuffle on ``hash(key_cols) % BUCKETS``,
  so every row of one key lands in one bucket and a bucket-local
  answer (merge, dedup, count, min, sort) is the global one.  A
  caller that needs finer routing puts it in the key: ``range_join``
  buckets on ``[key, time bin]``.
- **One constant bucket count.**  ``BUCKETS`` is the only setting;
  no caller picks its own.  Sizing it to the input is a change here.
- **Arrow bucket map.**  The bucket column is computed in one
  ``batch_format="pyarrow"`` map: only the key columns go to pandas,
  for ``pd.util.hash_pandas_object(keys, index=False) % BUCKETS``, and
  the map returns the input Arrow table plus ``__b``.  The exchanged
  rows never round-trip through pandas before the shuffle.  The map
  drops the table's schema metadata: pandas metadata is a dict, and
  Ray's schema dedup cannot hash a schema that carries one.
- **Pandas per-bucket kernels.**  ``fn`` gets one whole bucket as a
  pandas DataFrame (``__b`` dropped) and does the per-key work
  vectorized, so Python runs O(BUCKETS) times, not O(distinct keys),
  while the shuffle volume stays that of a keyed groupby.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa

BUCKETS = 64


def add_bucket_column(batch: pa.Table,
                      key_cols: Union[str, Sequence[str]]) -> pa.Table:
    """``batch`` plus an int64 ``__b`` = hash of its key columns mod
    ``BUCKETS``, without the schema metadata."""
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    batch = batch.replace_schema_metadata(None)
    if batch.num_rows == 0:
        return batch.append_column("__b", pa.array([], pa.int64()))
    h = pd.util.hash_pandas_object(batch.select(keys).to_pandas(), index=False)
    return batch.append_column(
        "__b", pa.array((h.to_numpy() % np.uint64(BUCKETS)).astype(np.int64)))


def bucketed_group_apply(ds, key_cols: Union[str, Sequence[str]],
                         fn: Callable[[pd.DataFrame], pd.DataFrame]):
    """groupby-equivalent with O(BUCKETS) Python invocations.

    ``fn`` receives one BUCKET (all rows of every key hashing to it,
    ``__b`` column already dropped) and must itself handle the
    per-key logic vectorized (pandas merge / groupby / sort)."""
    bucketed = ds.map_batches(
        lambda b: add_bucket_column(b, key_cols), batch_format="pyarrow",
    )
    return bucketed.groupby("__b").map_groups(
        lambda g: fn(g.drop(columns="__b")), batch_format="pandas"
    )
