"""Relational lookups for training-data pipelines.

The reference has no data joins (SURVEY.md §2.7: ``headedToIndexed``
is a plan-time name lookup, kept plan-time in `plan.py`); these are
the engine additions a corpus pipeline needs, built on the two
patterns from the Ray guide:

- broadcast join: the small side travels once via ``ray.put`` and is
  probed per batch with a vectorized pandas merge — no shuffle;
- hash join: ``Dataset.join`` (hash-partitioned on the key) when both
  sides are large.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import bucketed_group_apply


class BroadcastJoin:
    """map_batches callable: probe a broadcast dimension table.

    The dimension is fetched once per actor in __init__ — and, as
    important, the probe structure is BUILT once there too: the small
    side's keys are sorted and its value columns aligned, so each
    batch is one vectorized searchsorted + take.  (The previous
    pandas ``merge`` per batch silently re-hashed the whole small
    side for every batch — measured 333 ms per 16k-row batch against
    a 100k-row dimension, 123 s of UDF time across one 6M-row
    lineitem pass; the probe form is ~1 ms.)  Duplicate-keyed or
    null-keyed inputs fall back to a pandas join against an index
    that is also prebuilt once."""

    def __init__(self, small_ref, on: str, how: str = "inner"):
        import ray

        if how not in ("inner", "left"):
            raise ValueError(f"BroadcastJoin supports inner/left, got {how!r}")
        small = ray.get(small_ref)
        tbl = (pa.Table.from_pandas(small, preserve_index=False)
               if isinstance(small, pd.DataFrame) else small)
        self.on, self.how = on, how
        self.key_type = tbl.schema.field(on).type
        key_col = tbl[on].combine_chunks()
        keys = key_col.to_numpy(zero_copy_only=False)
        self.val_names = [c for c in tbl.column_names if c != on]
        self.unique = (key_col.null_count == 0
                       and len(np.unique(keys)) == len(keys))
        if self.unique:
            order = np.argsort(keys, kind="stable")
            self.keys = keys[order]
            take = pa.array(order)
            self.vals = {c: tbl[c].combine_chunks().take(take)
                         for c in self.val_names}
        else:
            # one-to-many / null keys: index built ONCE, joined per batch
            self.indexed = tbl.to_pandas().set_index(on)

    def __call__(self, batch: pa.Table) -> pa.Table:
        probe_col = batch[self.on]
        if probe_col.type != self.key_type:
            probe_col = pc.cast(probe_col, self.key_type)
        if not self.unique or probe_col.null_count:
            df = batch.to_pandas()
            out = df.join(self.indexed, on=self.on, how=self.how)
            return pa.Table.from_pandas(out.reset_index(drop=True),
                                        preserve_index=False)
        probe = probe_col.combine_chunks().to_numpy(zero_copy_only=False)
        if self.keys.size == 0:
            match = np.zeros(len(batch), dtype=bool)
            idx = np.zeros(len(batch), dtype=np.int64)
        else:
            idx = np.searchsorted(self.keys, probe)
            idx = np.minimum(idx, self.keys.size - 1)
            match = self.keys[idx] == probe
        if self.how == "inner":
            out = batch.filter(pa.array(match))
            take = pa.array(idx[match])
        else:  # left: unmatched probe rows keep nulls in the new columns
            out = batch
            take = pa.array(idx, mask=~match)
        for c in self.val_names:
            out = out.append_column(c, self.vals[c].take(take))
        return out


def broadcast_join(ds, small_table, on: str, how: str = "inner"):
    """Join ``ds`` against a small in-memory side (pa.Table/DataFrame).

    ray.put once; every actor reads the same object — never re-shipped
    per batch (the guide's small-side rule)."""
    import ray

    from ..util import default_concurrency

    ref = ray.put(small_table)
    return ds.map_batches(
        BroadcastJoin,
        fn_constructor_kwargs={"small_ref": ref, "on": on, "how": how},
        batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
    )


def hash_join(left, right, on: Sequence[str], join_type: str = "inner",
              num_partitions: Optional[int] = None):
    """Large-large join: Ray's hash-partitioned Dataset.join."""
    from ..util import default_concurrency

    if num_partitions is None:
        num_partitions = max(2, default_concurrency())
    return left.join(right, join_type=join_type, num_partitions=num_partitions,
                     on=tuple(on))


def _empty_typed_df(schema: Sequence[tuple]) -> pd.DataFrame:
    """Empty frame whose pandas dtypes survive Ray's pandas->Arrow
    block conversion with the DECLARED types.  The bucketed group
    closures previously returned object-dtype empties, which convert
    to null-typed Arrow columns and make Ray warn about schema-less /
    mismatched RefBundles on every empty bucket (round-4 ask #5).
    ``schema``: (name, arrow_type) pairs."""

    def dt(t: pa.DataType):
        if pa.types.is_timestamp(t):
            # preserve the unit (pandas 2 keeps us/ms/s) so empty and
            # populated buckets convert to the same Arrow timestamp
            return (f"datetime64[{t.unit}, {t.tz}]" if t.tz
                    else f"datetime64[{t.unit}]")
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return "string"
        if pa.types.is_boolean(t):
            return "bool"
        try:
            return t.to_pandas_dtype()
        except NotImplementedError:
            return object
    return pd.DataFrame({c: pd.Series([], dtype=dt(t)) for c, t in schema})


def _unread_fill(n: int, t: pa.DataType) -> pa.Array:
    """A tag-union column for the side that never reads it.  Integers
    are zero-filled, not null-filled: nulls would turn the whole column
    float64 inside the pandas bucket, and int64 values above 2**53
    would come back rounded."""
    if pa.types.is_integer(t):
        return pa.array(np.zeros(n, np.int64), type=t)
    return pa.nulls(n, t)


def field_type(ds, name: str):
    """Arrow type of a Dataset column, tolerant of pandas-backed
    schemas (PandasBlockSchema has numpy dtypes, not pa fields)."""
    import numpy as np
    import pyarrow as pa

    sch = ds.schema()
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base.field(name).type
    dt = dict(zip(base.names, base.types))[name]
    if isinstance(dt, pa.DataType):
        return dt
    if dt == np.dtype("O"):
        return pa.string()
    return pa.from_numpy_dtype(dt)


def keyed_attach(pairs_ds, docs_ds, key_from: str, out_col: str,
                 carry: Sequence[tuple], id_col: str = "doc_id",
                 text_col: str = "text", fill=None,
                 dedup_on: Optional[Sequence[str]] = None):
    """Attach one column of ``docs_ds`` to every row of ``pairs_ds``
    whose ``key_from`` column matches ``id_col`` — a hash join
    expressed as tag-union + ONE groupby(key) shuffle.

    Used instead of ``Dataset.join`` where a side can have EMPTY hash
    partitions (ray 2.49's join aggregator builds ``pa.table({})`` for
    those and Arrow rejects the keyed join — e.g. a tiny candidate-pair
    set against a large corpus).  ``carry`` lists (name, arrow_type) of
    pair columns to carry through.

    ``dedup_on``: column names (must include ``key_from``, renamed
    ``__key`` internally) on which the pairs side is globally
    drop_duplicated INSIDE the join bucket — valid because bucketing
    on the key co-locates every copy of a (key, ...) row, so a
    per-bucket dedup IS a global dedup.  Fuses what would otherwise
    be a separate distinct() exchange into this one."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    carry = list(carry)
    carry_names = [c for c, _ in carry]
    val_type = field_type(docs_ds, text_col)
    # native-typed join key (round-2 What's-wrong #3 fix): casting both
    # sides to string made the ONE shuffle this operator exists to
    # minimize move string keys at 2-3x int64 bytes; the docs id type
    # is authoritative and the pairs side casts to it (no-op when equal)
    key_type = field_type(docs_ds, id_col)

    def tag_pairs(b: pa.Table) -> pa.Table:
        cols = {"__key": pc.cast(b[key_from], key_type)}
        for c, t in carry:
            cols[c] = pc.cast(b[c], t) if c in b.column_names else pa.nulls(len(b), t)
        cols["__val"] = _unread_fill(len(b), val_type)
        cols["__is_doc"] = pa.array(np.zeros(len(b), dtype=bool))
        return pa.table(cols)

    def tag_docs(b: pa.Table) -> pa.Table:
        cols = {"__key": pc.cast(b[id_col], key_type)}
        for c, t in carry:
            cols[c] = _unread_fill(len(b), t)
        cols["__val"] = b[text_col]
        cols["__is_doc"] = pa.array(np.ones(len(b), dtype=bool))
        return pa.table(cols)

    tagged = pairs_ds.map_batches(tag_pairs, batch_format="pyarrow").union(
        docs_ds.map_batches(tag_docs, batch_format="pyarrow")
    )
    int_val = pa.types.is_integer(val_type)

    dedup_cols = None
    if dedup_on is not None:
        if key_from not in dedup_on:
            raise ValueError("dedup_on must include the join key "
                             f"{key_from!r} for per-bucket dedup to be global")
        dedup_cols = ["__key" if c == key_from else c for c in dedup_on]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pandas merge per BUCKET of keys (bucketing.py
        # rationale: O(buckets) Python calls, not O(distinct keys))
        docs = g[g["__is_doc"]][["__key", "__val"]].drop_duplicates("__key")
        if int_val:
            # nullable, so an unmatched key cannot turn the column float
            docs = docs.astype({"__val": "Int64"})
        p = g[~g["__is_doc"]]
        if dedup_cols is not None:
            p = p.drop_duplicates(dedup_cols)
        out_cols = carry_names + [out_col]
        if p.empty:
            return _empty_typed_df(carry + [(out_col, val_type)])
        merged = p[["__key"] + carry_names].merge(docs, on="__key", how="left")
        merged = merged.rename(columns={"__val": out_col})[out_cols]
        if fill is not None:
            # LEFT-JOIN-with-default semantics: unmatched keys get ``fill``
            merged[out_col] = merged[out_col].fillna(fill)
        if int_val and not merged[out_col].hasnans:
            merged[out_col] = merged[out_col].astype("int64")
        if pa.types.is_string(val_type) or pa.types.is_large_string(val_type):
            merged[out_col] = merged[out_col].fillna("")
        return merged

    return bucketed_group_apply(tagged, "__key", per_bucket)


def keyed_antijoin(left_ds, drop_ds, on: str, carry: Sequence[tuple]):
    """Rows of ``left_ds`` whose ``on`` key does NOT appear in
    ``drop_ds[on]`` — the dedup keep-set shape (corpus minus the
    non-canonical duplicate ids).

    Same tag-union + ONE bucketed groupby shuffle as ``keyed_attach``:
    neither side is broadcast or materialized, so a drop set of any
    size (up to half the corpus for a heavily duplicated crawl) moves
    through the exchange exactly once.  ``carry`` lists
    (name, arrow_type) of left columns to keep in the output."""
    return _keyed_membership(left_ds, drop_ds, on, carry,
                             keep_if_present=False)


def keyed_semijoin(left_ds, probe_ds, on: str, carry: Sequence[tuple]):
    """Rows of ``left_ds`` whose ``on`` key DOES appear in
    ``probe_ds[on]`` — the EXISTS / semi-join shape (e.g. customers
    with at least one qualifying order), same exchange contract as
    ``keyed_antijoin``."""
    return _keyed_membership(left_ds, probe_ds, on, carry,
                             keep_if_present=True)


def _keyed_membership(left_ds, right_ds, on: str, carry: Sequence[tuple],
                      keep_if_present: bool):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if any(c == on for c, _ in carry):
        # the key returns as ``on``; carrying it too would duplicate
        # the column label (downstream Arrow blocks reject that)
        raise ValueError(f"carry must not repeat the key column {on!r}")

    carry = list(carry)
    carry_names = [c for c, _ in carry]
    key_type = field_type(left_ds, on)

    def tag_left(b: pa.Table) -> pa.Table:
        cols = {"__key": pc.cast(b[on], key_type)}
        for c, t in carry:
            cols[c] = pc.cast(b[c], t)
        cols["__is_left"] = pa.array(np.ones(len(b), dtype=bool))
        return pa.table(cols)

    def tag_drop(b: pa.Table) -> pa.Table:
        cols = {"__key": pc.cast(b[on], key_type)}
        for c, t in carry:
            cols[c] = _unread_fill(len(b), t)
        cols["__is_left"] = pa.array(np.zeros(len(b), dtype=bool))
        return pa.table(cols)

    tagged = left_ds.map_batches(tag_left, batch_format="pyarrow").union(
        right_ds.map_batches(tag_drop, batch_format="pyarrow")
    )
    out_cols = [on] + [c for c in carry_names if c != on]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty or "__key" not in g.columns:
            # empty inputs can reach the group pass schema-less
            return _empty_typed_df([(on, key_type)] + carry)
        present = g.loc[~g["__is_left"], "__key"]
        member = g["__key"].isin(present)
        keep = g[g["__is_left"] & (member if keep_if_present else ~member)]
        return keep.rename(columns={"__key": on})[out_cols]

    return bucketed_group_apply(tagged, "__key", per_bucket)


def sessionize(events_ds, key_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: int = 30):
    """Session windows: per key, a new session starts when the gap to
    the previous event exceeds ``gap_minutes``.

    Shuffles on a HASH BUCKET of the key (co-locating each key's rows)
    and sessionizes a whole bucket in one vectorized pandas pass —
    sort by (key, ts), boundary mask, cumsum — instead of one Python
    map_groups call per key (Ray's per-group overhead dominates at
    many small keys; same lesson as dedup.distinct_pairs).

    Returns (key, session_id, n_events, session_start) with
    session_id = running count per key starting at 1.
    """
    import numpy as np

    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        new_key = g[key_col].ne(g[key_col].shift())
        new_session = new_key | (g[ts_col].diff() > gap)
        sid_global = new_session.cumsum()
        first_of_key = sid_global.where(new_key).ffill()
        sid = (sid_global - first_of_key + 1).astype(np.int64)
        out = g.assign(session_id=sid).groupby(
            [key_col, "session_id"], as_index=False, sort=False
        ).agg(n_events=(ts_col, "size"), session_start=(ts_col, "min"))
        return out[[key_col, "session_id", "n_events", "session_start"]]

    return bucketed_group_apply(events_ds, key_col, per_bucket)


def asof_join(left, right, on: str, ts_col: str = "ts",
              right_suffix: str = "_right"):
    """As-of join: for each left row, the latest right row with the
    same key and ts <= left ts (inclusive) — the brief's custom-
    operator example, composed from Dataset primitives: tag-union both
    sides, one shuffle on a hash bucket of the key, one vectorized
    pd.merge_asof(by=key) per bucket.

    Partitioning assumption (documented per SURVEY.md): correctness
    requires all rows of one key in one bucket — guaranteed by hashing
    the key; within-bucket ordering is established locally by sort,
    and merge_asof's ``by=`` gives per-key semantics inside the
    bucket.  Bucketing (vs groupby(key) directly) avoids one Python
    call per key.  Returns all left columns plus right columns
    suffixed.
    """
    lschema = left.schema().base_schema
    rschema = right.schema().base_schema
    lcols = [f.name for f in lschema if f.name not in (on, ts_col)]
    rcols = [f.name for f in rschema if f.name not in (on, ts_col)]
    ltypes = {f.name: f.type for f in lschema}
    rtypes = {f.name: f.type for f in rschema}

    def tag(side: str, other_cols, other_types):
        def fn(b: pa.Table) -> pa.Table:
            t = b.append_column("__side", pa.array([side] * len(b)))
            for c in other_cols:
                # per_bucket splits by __side before touching these
                t = t.append_column(c, _unread_fill(len(b), other_types[c]))
            return t

        return fn

    tagged = left.map_batches(tag("L", rcols, rtypes), batch_format="pyarrow").union(
        right.map_batches(tag("R", lcols, ltypes), batch_format="pyarrow")
    )

    # output dtype contract: unmatched left rows carry nulls in right
    # columns; integer columns must stay integral (pandas nullable Int*)
    _PD_INT = {pa.int8(): "Int8", pa.int16(): "Int16", pa.int32(): "Int32",
               pa.int64(): "Int64", pa.uint8(): "UInt8", pa.uint16(): "UInt16",
               pa.uint32(): "UInt32", pa.uint64(): "UInt64"}
    out_int_dtypes = {}
    for c in lcols:
        if ltypes[c] in _PD_INT:
            out_int_dtypes[c] = _PD_INT[ltypes[c]]
    for c in rcols:
        if rtypes[c] in _PD_INT:
            out_int_dtypes[c + right_suffix] = _PD_INT[rtypes[c]]

    def _fix_dtypes(df: pd.DataFrame) -> pd.DataFrame:
        for c, dt in out_int_dtypes.items():
            if c in df.columns and str(df[c].dtype) != dt:
                df[c] = pd.array(df[c], dtype=dt)
        return df

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized merge_asof(by=key) over the whole bucket —
        # per-key semantics without one Python call per key
        lg = g[g["__side"] == "L"].sort_values(ts_col, kind="mergesort")
        rg = g[g["__side"] == "R"].sort_values(ts_col, kind="mergesort")
        lg = lg[[on, ts_col] + lcols]
        # nullable ints before the merge: a left row with no match
        # would turn an int64 right column float64 and round it
        rg = _fix_dtypes(rg[[on, ts_col] + rcols].rename(
            columns={c: c + right_suffix for c in rcols}
        ))
        cols_out = [on, ts_col] + lcols + [ts_col + right_suffix] + [
            c + right_suffix for c in rcols
        ]
        if lg.empty:
            return _empty_typed_df(
                [(on, ltypes[on]), (ts_col, ltypes[ts_col])]
                + [(c, ltypes[c]) for c in lcols]
                + [(ts_col + right_suffix, rtypes[ts_col])]
                + [(c + right_suffix, rtypes[c]) for c in rcols])
        if rg.empty:
            for c in rcols:
                lg[c + right_suffix] = None
            lg[ts_col + right_suffix] = pd.NaT
            return _fix_dtypes(lg[cols_out])
        merged = pd.merge_asof(
            lg, rg.rename(columns={ts_col: ts_col + right_suffix}),
            left_on=ts_col, right_on=ts_col + right_suffix,
            by=on, direction="backward", allow_exact_matches=True,
        )
        return _fix_dtypes(merged[cols_out])

    return bucketed_group_apply(tagged, on, per_bucket)


def range_join(left, right, on: str, ts_col: str = "ts",
               lo_col: str = "lo", hi_col: str = "hi",
               right_suffix: str = "_right",
               time_bin_s: Optional[float] = None):
    """Keyed range (interval-overlap) join: every (left, right) pair
    with equal key and ``lo <= left.ts < hi`` — the brief's remaining
    custom-operator example (as-of join and windowed aggregates are
    ``asof_join`` / ``hopping_windows``; the broadcast non-overlapping
    variant is ``interval_join``).  Both sides may be arbitrarily
    large Datasets and windows may OVERLAP: a left row matching k
    windows yields k output rows (inner-join semantics).

    Composition (Dataset primitives only): tag-union both sides, one
    bucketed exchange on ``[key, time bin]`` (the bin is 0 without
    ``time_bin_s``), one vectorized pandas merge on ``[key, bin]`` +
    interval mask per bucket.

    Partitioning assumptions (documented per SURVEY.md §2 contract):

    - all rows of one (key, bin) co-locate in one bucket (hash on both);
    - the per-bucket work is the per-key events × windows product.  A
      hot key with many events AND many windows is defused by
      ``time_bin_s``: left rows route to exactly one ``(key, bin)``
      bucket while windows replicate to every bin they overlap, so the
      product is bounded per bin and each matching pair still appears
      exactly once (only the window copy in the event's own bin can
      match it).  Keep window length ≲ a few bins or replication
      itself becomes the cost.
    """
    ls, rs = left.schema(), right.schema()
    lcols = [n for n in ls.names if n != on]
    rcols = [n for n in rs.names if n != on]
    ltypes = dict(zip(ls.names, ls.types))
    rtypes = dict(zip(rs.names, rs.types))
    ren = {c: c + right_suffix for c in rcols}

    def _ns(ser: pd.Series) -> np.ndarray:
        # normalize numeric or datetime to int64 ns for binning.
        # Numeric timestamps are assumed to be SECONDS; integer dtypes
        # scale exactly in int64 (no float64 round-trip — float
        # rounding near bin edges would route an event and its window
        # into different time bins and silently drop the match), and
        # magnitudes that would overflow int64 ns raise instead of
        # wrapping (e.g. a microsecond/nanosecond-scale epoch passed
        # where seconds were expected).
        if np.issubdtype(ser.dtype, np.datetime64):
            return ser.astype("datetime64[ns]").astype("int64").to_numpy()
        if pd.api.types.is_integer_dtype(ser.dtype):
            a = ser.to_numpy().astype(np.int64, copy=False)
            lim = (2**63 - 1) // 1_000_000_000
            if a.size and (a.max() > lim or a.min() < -lim):
                raise ValueError(
                    "range_join: integer timestamp magnitude exceeds "
                    "int64-nanosecond range when scaled from seconds; "
                    "pass datetime64 values or pre-scale to seconds")
            return a * 1_000_000_000
        return (ser.to_numpy(dtype=np.float64) * 1e9).astype(np.int64)

    bin_ns = int(time_bin_s * 1e9) if time_bin_s else None

    def tag(side: str, other_cols, other_types):
        def fn(b: pa.Table) -> pa.Table:
            t = b.append_column("__side", pa.array([side] * len(b)))
            for c in other_cols:
                # per_bucket filters by __side before touching these
                t = t.append_column(c, _unread_fill(len(b), other_types[c]))
            if bin_ns is None:
                return t.append_column("__tb", pa.array(np.zeros(len(b), np.int64)))
            if side == "L":
                tb = _ns(b[ts_col].to_pandas()) // bin_ns
                return t.append_column("__tb", pa.array(tb))
            # windows replicate to every bin they overlap
            lo = _ns(b[lo_col].to_pandas())
            hi = _ns(b[hi_col].to_pandas())
            first = lo // bin_ns
            last = np.maximum((hi - 1) // bin_ns, first)
            reps = (last - first + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(b)), reps)
            # bin offset within each repeated run
            offs = np.arange(reps.sum(), dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            t = t.take(idx)
            return t.append_column("__tb", pa.array(np.repeat(first, reps) + offs))

        return fn

    tagged = left.map_batches(tag("L", rcols, rtypes), batch_format="pyarrow").union(
        right.map_batches(tag("R", lcols, ltypes), batch_format="pyarrow")
    )

    out_cols = [on] + lcols + [ren[c] for c in rcols]
    # the tag-union leaves typed nulls in the other side's columns, so
    # an int64 column reaches pandas as float64/object inside the group;
    # inner-join survivors are null-free, so cast back to the Arrow type
    _NP_INT = {pa.int8(): np.int8, pa.int16(): np.int16, pa.int32(): np.int32,
               pa.int64(): np.int64, pa.uint8(): np.uint8, pa.uint16(): np.uint16,
               pa.uint32(): np.uint32, pa.uint64(): np.uint64}
    out_int = {c: _NP_INT[ltypes[c]] for c in [on] + lcols if ltypes.get(c) in _NP_INT}
    out_int.update({ren[c]: _NP_INT[rtypes[c]] for c in rcols if rtypes[c] in _NP_INT})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a bucket holds several (key, bin) pairs: merging on both keeps
        # each event to the one window copy in its own bin
        lg = g[g["__side"] == "L"][[on, "__tb"] + lcols]
        rg = g[g["__side"] == "R"][[on, "__tb"] + rcols].rename(columns=ren)
        if lg.empty or rg.empty:
            out = _empty_typed_df(
                [(on, ltypes[on])] + [(c, ltypes[c]) for c in lcols]
                + [(ren[c], rtypes[c]) for c in rcols])
        else:
            m = lg.merge(rg, on=[on, "__tb"])
            keep = (m[ren[lo_col]] <= m[ts_col]) & (m[ts_col] < m[ren[hi_col]])
            out = m.loc[keep, out_cols]
        for c, dt in out_int.items():
            if str(out[c].dtype) != np.dtype(dt).name:
                out[c] = out[c].astype(dt)
        return out

    return bucketed_group_apply(tagged, [on, "__tb"], per_bucket)


# ---------------------------------------------------------------------------
# Hopping (sliding) windows


def hopping_windows(ds, ts_col: str = "ts", key_cols: Sequence[str] = ("event_type",),
                    length_minutes: int = 60, hop_minutes: int = 30):
    """Hopping-window counts: each event lands in length/hop
    overlapping windows (window starts aligned to hop boundaries).
    Completes the streaming-window family next to the tumbling
    (events_hourly) and session (sessionize) operators.

    Vectorized window fan-out inside map_batches (one floor_temporal +
    nwin column-slice emits, no per-row work) followed by ONE groupby
    exchange over the pre-thinned (keys, win_ts) tuples."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Count

    if length_minutes % hop_minutes:
        raise ValueError("length_minutes must be a multiple of hop_minutes")
    nwin = length_minutes // hop_minutes
    keys = list(key_cols)

    def expand(b: pa.Table) -> pa.Table:
        base = pc.floor_temporal(b[ts_col], multiple=hop_minutes, unit="minute")
        outs = []
        for i in range(nwin):
            off = pa.scalar(i * hop_minutes * 60_000_000, pa.duration("us"))
            outs.append(
                pa.table({**{k: b[k] for k in keys}, "win_ts": pc.subtract(base, off)})
            )
        return pa.concat_tables(outs)

    return (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby(keys + ["win_ts"])
        .aggregate(Count(alias_name="n_events"))
    )


# ---------------------------------------------------------------------------
# Grouped top-k


def grouped_topk(ds, group_cols: Sequence[str], order_col: str, k: int = 3,
                 descending: bool = True, tie_cols: Sequence[str] = ()):
    """Top-k rows per group (e.g. each customer's k priciest orders).

    Two-level: a per-batch partial top-k first shrinks every batch to
    <= k rows per key it contains (vectorized sort + groupby.head), so
    the ONE bucket shuffle moves at most k rows per (key, batch) — at
    100 TB the exchange is bounded by k * distinct_keys, not corpus
    rows.  Bucketed final pass keeps Python invocations at
    O(buckets) regardless of key cardinality (see bucketing.py).

    Deterministic: ties broken by ``tie_cols`` ascending."""
    groups = list(group_cols)
    ties = list(tie_cols)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.sort_values([order_col] + ties,
                            ascending=[not descending] + [True] * len(ties))
        return df.groupby(groups, sort=False).head(k)

    partial = ds.map_batches(topk, batch_format="pandas")
    return bucketed_group_apply(partial, groups, topk)


# ---------------------------------------------------------------------------
# Broadcast interval (range) join


def interval_join(ds, intervals: "pa.Table", value_col: str,
                  lo_col: str = "lo", hi_col: str = "hi",
                  label_col: str = "label", out_col: str = "label"):
    """Non-equi join of rows to [lo, hi) intervals — the broadcast
    range-join (calendar tables, size/price bands, IP ranges).

    The interval table must be small, sorted by ``lo`` and
    non-overlapping; it travels once (ray.put) and each batch is ONE
    vectorized searchsorted probe — no shuffle, rows outside every
    interval get a null label (left join semantics)."""
    import numpy as np

    import ray

    from ..util import default_concurrency

    t = intervals if isinstance(intervals, pa.Table) else pa.table(intervals)
    los = t[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
    his = t[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
    if not (np.all(np.diff(los) > 0) and np.all(los < his)
            and np.all(his[:-1] <= los[1:])):
        raise ValueError("intervals must be sorted by lo and non-overlapping")
    labels = t[label_col].to_pylist()
    ref = ray.put((los, his, labels))

    class Probe:
        def __init__(self):
            self.los, self.his, self.labels = ray.get(ref)
            self.labels_arr = np.asarray(self.labels, dtype=object)

        def __call__(self, batch: pa.Table) -> pa.Table:
            v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            idx = np.searchsorted(self.los, v, side="right") - 1
            inside = (idx >= 0) & (v < self.his[np.clip(idx, 0, None)])
            out = np.full(v.size, None, dtype=object)
            out[inside] = self.labels_arr[idx[inside]]
            return batch.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(
        Probe, batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
    )


# ---------------------------------------------------------------------------
# Exact grouped quantiles + per-key rolling windows


def grouped_quantiles(ds, group_cols: Sequence[str], value_col: str,
                      qs: Sequence[float] = (0.25, 0.5, 0.75)):
    """EXACT per-group quantiles with percentile_disc semantics: the
    smallest group value whose 1-based rank >= ceil(q * n) — always an
    EXISTING value, so results are bit-identical to SQL's
    percentile_disc (no interpolation arithmetic to drift).

    One bucket shuffle (all of a key's rows land in one bucket); the
    per-bucket pass is a single vectorized sort + offset gather, no
    per-key Python.  Exact quantiles are irreducibly all-to-all in the
    value rows — for sketch-sized exchanges at 100 TB sample first
    (functions/sampling) and document the error, or keep groups
    partition-aligned so the shuffle is local."""
    import numpy as np

    groups = list(group_cols)
    qlist = [float(q) for q in qs]
    if not all(0.0 < q <= 1.0 for q in qlist):
        raise ValueError("quantiles must be in (0, 1]")

    return bucketed_group_apply(
        ds, groups,
        lambda df: quantiles_in_bucket(df, groups, value_col, qlist),
    )


def quantiles_in_bucket(df: pd.DataFrame, groups: list, value_col: str,
                        qlist: list) -> pd.DataFrame:
    """Pure per-bucket kernel of grouped_quantiles (unit-testable):
    one sort, then an offset gather per quantile."""
    import numpy as np

    if df.empty:
        # typed empty (dtypes inherited from the incoming frame) so
        # Ray's block conversion never sees null-typed columns
        out = {g2: pd.Series([], dtype=df[g2].dtype)
               if g2 in df.columns else pd.Series([], dtype=object)
               for g2 in groups}
        out["q"] = pd.Series([], dtype="float64")
        out[value_col] = pd.Series(
            [], dtype=df[value_col].dtype
            if value_col in df.columns else "float64")
        return pd.DataFrame(out)
    df = df.sort_values(groups + [value_col], kind="mergesort")
    sizes = df.groupby(groups, sort=False).size().to_numpy()
    starts = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    vals = df[value_col].to_numpy()
    out = {g: [] for g in groups}
    out["q"] = []
    out[value_col] = []
    heads = df.iloc[starts]
    for q in qlist:
        idx = starts + np.ceil(q * sizes).astype(np.int64) - 1
        for g in groups:
            out[g].extend(heads[g].tolist())
        out["q"].extend([q] * sizes.size)
        out[value_col].extend(vals[idx].tolist())
    return pd.DataFrame(out)


def rolling_sum(ds, key_col: str, order_cols: Sequence[str], value_col: str,
                window: int, out_col: str = "rolling_sum"):
    """Per-key rolling-window sum over the last ``window`` rows in
    ``order_cols`` order (SQL: SUM(v) OVER (PARTITION BY key ORDER BY
    ... ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)).

    Integer-exact: computed as cumsum minus its window-lagged self
    within each key, so int64 inputs reproduce the SQL window sum
    bit-for-bit (use scaled-integer values for money-like doubles).
    One bucket shuffle on the key; per-bucket work is vectorized
    (sort + groupby cumsum/shift, no per-key Python)."""
    order = list(order_cols)

    return bucketed_group_apply(
        ds, [key_col],
        lambda df: rolling_in_bucket(df, key_col, order, value_col, window, out_col),
    )


def rolling_in_bucket(df: pd.DataFrame, key_col: str, order: list,
                      value_col: str, window: int, out_col: str) -> pd.DataFrame:
    """Pure per-bucket kernel of rolling_sum (unit-testable)."""
    if df.empty:
        return df.assign(**{out_col: pd.Series([], dtype="int64")})
    df = df.sort_values([key_col] + order, kind="mergesort")
    g = df.groupby(key_col, sort=False)[value_col]
    cs = g.cumsum()
    lag = cs.groupby(df[key_col], sort=False).shift(window)
    df[out_col] = (cs - lag.fillna(0)).astype(df[value_col].dtype)
    return df


def _lattice_levels_distributed(fine_ds, dims: list, level_keeps: list,
                                sentinel: str):
    """Shared distributed lattice derivation for rollup/cube above the
    driver-size guard: ``fine_ds`` is the MATERIALIZED finest-level
    (dims, n) aggregate; each coarser level is its own distributed
    re-aggregate of that groups-sized Dataset (never the corpus), the
    sentinel columns are stamped in map_batches, and the union is
    sorted distributed.  Nothing lattice-sized ever lands on the
    driver — the global-total level is the one scalar that does."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def stamp(keep: tuple):
        rolled = [d for d in dims if d not in keep]

        def fn(b: pa.Table) -> pa.Table:
            n = pc.cast(b["n"], pa.int64())
            cols = {d: (b[d] if d in keep
                        else pa.array([sentinel] * len(b), pa.string()))
                    for d in dims}
            cols["n"] = n
            return pa.table(cols)

        return fn

    parts = []
    for keep in level_keeps:
        if len(keep) == len(dims):
            lvl = fine_ds
        elif keep:
            lvl = fine_ds.groupby(list(keep)).aggregate(
                Sum("n", alias_name="n"))
        else:
            total = int(fine_ds.sum("n"))
            parts.append(rd.from_arrow(pa.table(
                {**{d: pa.array([sentinel], pa.string()) for d in dims},
                 "n": pa.array([total], pa.int64())})))
            continue
        parts.append(lvl.map_batches(stamp(tuple(keep)),
                                     batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out.sort(dims)


# Fine-group count above which rollup_counts / cube_counts derive the
# lattice as distributed aggregates instead of on the driver.
MAX_DRIVER_GROUPS = 100_000


def rollup_counts(ds, dims: Sequence[str], sentinel: str = "(all)"):
    """GROUP BY ROLLUP(dims...) row counts: one DISTRIBUTED aggregate
    at the finest level, then every coarser level derived from that
    group-level result — on the driver while the fine result is
    provably driver-small (≤ ``MAX_DRIVER_GROUPS`` groups, the same
    argument as broadcast-join small sides; returns pandas), else via
    a second round of DISTRIBUTED aggregates over the materialized
    fine Dataset (returns a sorted Dataset — an unbounded-cardinality
    dims list never materializes driver-side).  Rolled-up dimensions
    carry ``sentinel`` (dims are assumed non-null; a null-bearing dim
    would need a distinguishing marker)."""
    from ray.data.aggregate import Count

    dims = list(dims)
    fine_ds = ds.groupby(dims).aggregate(Count(alias_name="n")).materialize()
    level_keeps = [tuple(dims[:lvl]) for lvl in range(len(dims), -1, -1)]
    if fine_ds.count() > MAX_DRIVER_GROUPS:
        return _lattice_levels_distributed(fine_ds, dims, level_keeps,
                                           sentinel)
    fine = fine_ds.to_pandas()
    frames = [fine]
    for lvl in range(len(dims) - 1, -1, -1):
        keep = dims[:lvl]
        if keep:
            g = fine.groupby(keep, as_index=False)["n"].sum()
        else:
            g = pd.DataFrame({"n": [int(fine["n"].sum())]})
        for d in dims[lvl:]:
            g[d] = sentinel
        frames.append(g[dims + ["n"]])
    out = pd.concat(frames, ignore_index=True)[dims + ["n"]]
    out["n"] = out["n"].astype("int64")
    return out.sort_values(dims, kind="mergesort").reset_index(drop=True)


def funnel_counts(ds, stages: Sequence[str],
                  user_col: str = "user_id", type_col: str = "event_type",
                  ts_col: str = "ts") -> pd.DataFrame:
    """Sequential funnel: how many users reached stage k — i.e. have
    events matching stages[0..k] at non-decreasing timestamps (each
    stage's clock starts at the user's earliest qualifying time for
    the previous stage).  Returns (stage_idx, stage, n_users).

    Scale shape: rows are pre-filtered to funnel event types and
    projected to 3 columns before the ONE user-bucketed exchange;
    inside each bucket the per-stage thresholds are pure vectorized
    merges (no per-user Python); only |stages| count rows per bucket
    come back."""
    stages = list(stages)

    def keep(batch: pa.Table) -> pa.Table:
        t = batch[type_col].to_pandas().to_numpy(dtype=object)
        mask = np.isin(t, stages)
        return pa.table({
            user_col: batch[user_col].filter(pa.array(mask)),
            type_col: batch[type_col].filter(pa.array(mask)),
            ts_col: batch[ts_col].filter(pa.array(mask)),
        })

    slim = ds.map_batches(keep, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        reached = None  # DataFrame(user, t): earliest time stage k met
        counts = []
        for s in stages:
            ev = g[g[type_col] == s][[user_col, ts_col]]
            if reached is None:
                reached = ev.groupby(user_col, as_index=False)[ts_col].min()
            else:
                m = ev.merge(reached.rename(columns={ts_col: "__prev"}),
                             on=user_col, how="inner")
                m = m[m[ts_col] >= m["__prev"]]
                reached = m.groupby(user_col, as_index=False)[ts_col].min()
            counts.append(len(reached))
        return pd.DataFrame({"stage_idx": np.arange(len(stages),
                                                    dtype=np.int64),
                             "stage": stages,
                             "n_users": np.asarray(counts, dtype=np.int64)})

    parts = bucketed_group_apply(slim, user_col, per_bucket).to_pandas()
    out = parts.groupby(["stage_idx", "stage"], as_index=False)["n_users"] \
               .sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("stage_idx", kind="mergesort") \
              .reset_index(drop=True)


def grouped_mode(ds, group_col: str, value_col: str):
    """Most frequent ``value_col`` per group (ties -> smallest value):
    one (group, value)-bounded count exchange, then a bucketed
    arg-max (sort + drop_duplicates per bucket, no per-group Python).
    Returns (group, mode value, n)."""
    from ray.data.aggregate import Count

    counts = ds.groupby([group_col, value_col]).aggregate(
        Count(alias_name="n"))

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, "n", value_col],
                          ascending=[True, False, True], kind="mergesort")
        return g.drop_duplicates(group_col)

    return bucketed_group_apply(counts, group_col, argmax)


_WEEK_US = 604_800_000_000  # 7 * 86400 * 1e6


def retention_counts(ds, cohort_type: str = "signup",
                     user_col: str = "user_id",
                     type_col: str = "event_type", ts_col: str = "ts"):
    """Cohort retention: users bucketed by the epoch-week of their
    FIRST ``cohort_type`` event; a user is retained in week-offset k
    if ANY event of theirs lands k weeks after the cohort week.
    Returns (cohort_week, week_offset, n_users) — the classic
    retention triangle.  Weeks are integer epoch-microsecond floor
    divisions (no calendar/timezone arithmetic), bit-identical in
    numpy and SQL.

    Scale shape: (1) cohort table = one Min aggregate over
    cohort-type rows only; (2) activity = per-batch DISTINCT
    (user, week) partials, deduped again in the one user-keyed
    keyed_attach exchange that pins the cohort week on; (3) the
    triangle count is a (cohorts x offsets)-bounded groupby.  Nothing
    user-sized is broadcast or driver-held."""
    from ray.data.aggregate import Count, Min

    def weeks(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy()
        return pa.table({
            user_col: batch[user_col],
            type_col: batch[type_col],
            "week": pa.array(ts // _WEEK_US),
        })

    slim = ds.map_batches(weeks, batch_format="pyarrow")

    def only_cohort(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b[type_col], cohort_type))

    cohort = slim.map_batches(only_cohort, batch_format="pyarrow") \
        .groupby(user_col).aggregate(Min("week", alias_name="cweek"))

    def distinct_user_week(b: pa.Table) -> pa.Table:
        df = pa.table({user_col: b[user_col],
                       "week": b["week"]}).to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    active = slim.map_batches(distinct_user_week, batch_format="pyarrow")
    joined = keyed_attach(
        active, cohort, key_from=user_col, out_col="cweek",
        carry=[(user_col, pa.int64()), ("week", pa.int64())],
        id_col=user_col, text_col="cweek", fill=-1)

    def offsets(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df = df[df["cweek"] >= 0]  # users with no cohort event drop
        df["week_offset"] = (df["week"] - df["cweek"]).astype("int64")
        df = df[df["week_offset"] >= 0]
        return pa.Table.from_pandas(
            df[[user_col, "cweek", "week_offset"]].rename(
                columns={"cweek": "cohort_week"}),
            preserve_index=False)

    cells = joined.map_batches(offsets, batch_format="pyarrow")
    # per-batch distinct above is only a pre-shrink: the same
    # (user, week) survives in several batches, so the user-level
    # dedup must be the first global groupby
    dedup = cells.groupby([user_col, "cohort_week", "week_offset"]) \
        .aggregate(Count(alias_name="__d"))
    out = dedup.groupby(["cohort_week", "week_offset"]).aggregate(
        Count(alias_name="n_users"))
    return out.sort(["cohort_week", "week_offset"])


def cube_counts(ds, dims: Sequence[str], sentinel: str = "(all)"):
    """GROUP BY CUBE(dims...) row counts: the same one-distributed-
    fine-pass optimization as ``rollup_counts``, but EVERY subset of
    dims is derived from the groups-sized fine result (2^|dims|
    subsets — dims lists are short by construction).  Above
    ``MAX_DRIVER_GROUPS`` fine groups the subsets are derived as
    distributed aggregates and a sorted Dataset is returned (same
    guard as rollup_counts)."""
    from itertools import combinations

    from ray.data.aggregate import Count

    dims = list(dims)
    fine_ds = ds.groupby(dims).aggregate(Count(alias_name="n")).materialize()
    if fine_ds.count() > MAX_DRIVER_GROUPS:
        level_keeps = [keep for r in range(len(dims), -1, -1)
                       for keep in combinations(dims, r)]
        return _lattice_levels_distributed(fine_ds, dims, level_keeps,
                                           sentinel)
    fine = fine_ds.to_pandas()
    frames = []
    for r in range(len(dims), -1, -1):
        for keep in combinations(dims, r):
            if len(keep) == len(dims):
                g = fine.copy()
            elif keep:
                g = fine.groupby(list(keep), as_index=False)["n"].sum()
            else:
                g = pd.DataFrame({"n": [int(fine["n"].sum())]})
            for d in dims:
                if d not in keep:
                    g[d] = sentinel
            frames.append(g[dims + ["n"]])
    out = pd.concat(frames, ignore_index=True)[dims + ["n"]]
    out["n"] = out["n"].astype("int64")
    return out.sort_values(dims, kind="mergesort").reset_index(drop=True)
