"""Driver contract for the colonnade_ray engine.

Ray is initialised by the driver BEFORE this module is imported; no
ray.init()/shutdown() here or in the library (see package docstring).

``queries()`` covers the operator inventory of SURVEY.md §2 (the
DuckDB-checkable analogs: projection/lmap T2, predicated rewrite
T8/T9, conditional cell C8, grouped render S9, sizing aggregates
A1/A3, set-op graft, sort/limit) plus the brief-mandated
training-data operators (dedup, similarity search, text analysis) and
the flagship encode->decode->verify pipeline.  Column names match
``oracle_sql()`` exactly (driver hashes values under sorted column
names).  Float-valued aggregates are avoided or made bit-deterministic
(integral sums, FLOOR(x*100+0.5) cents) so Ray and DuckDB hash
identically.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Largest build side the adaptive joins will broadcast instead of
# hash-exchanging (~80 MB of 2x int64 — object-store cheap).  Module
# level so tests can force the bucketed fallback plan.
_BCAST_MAX_ROWS = 5_000_000


def _read_split(path, columns=None, **kw):
    """read_parquet with the read itself parallelized.  Ray's default
    plan for a single file under target_max_block_size is ONE read
    task followed by SplitBlocks — an 8 s serial read gating the whole
    pipeline at the 10x bench scale.  One row group per read task
    (capped at 32) keeps the read wide without fragmenting small
    inputs; multi-file 100-TB layouts already parallelize per
    fragment, so this only changes the single-file bench shape."""
    import pyarrow.parquet as pq
    import ray.data as rd

    try:
        n_rg = pq.ParquetFile(path).metadata.num_row_groups
    except Exception:
        n_rg = 1
    if n_rg > 1:
        kw.setdefault("override_num_blocks", min(32, n_rg))
    return rd.read_parquet(path, columns=columns, **kw)


def _lineitem(sf_dir, columns):
    return _read_split(os.path.join(sf_dir, "lineitem.parquet"), columns=columns)


def _tbl(sf_dir, name, columns=None):
    return _read_split(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# SQL-checkable operator analogs


def q_projection_revenue(sf_dir: str):
    """lmap/projection graft (SURVEY.md T2): computed column, pruned read."""
    ds = _lineitem(sf_dir, ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])

    def fn(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table(
            {"l_orderkey": b["l_orderkey"], "l_linenumber": b["l_linenumber"], "revenue": rev}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def q_filter_recent(sf_dir: str):
    """Row filter (blank-line-skip graft, SURVEY.md §2.7), pushed INTO
    the read: the predicate rides `read_parquet(filter=...)` down to
    the pyarrow scanner, so non-matching row groups never leave
    storage (the "prune at the read" rule) — the exact row filter then
    runs on what's left."""
    import os

    import pyarrow.dataset as pds
    import ray.data as rd

    cutoff = np.datetime64("1995-09-01", "us")
    return _read_split(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_shipdate", "l_discount",
                 "l_quantity"],
        filter=(pds.field("l_shipdate") >= cutoff)
        & (pds.field("l_discount") > 0.05),
    )


def q_groupby_pricing(sf_dir: str):
    """sizeColumns/annotateFinely graft (A1/A3): per-batch PARTIAL
    aggregation, then a small groupby over partials — the step/finish
    pair of Encode.hs:330-340 as Ray Data partial+final."""
    from ray.data.aggregate import Sum

    ds = _lineitem(sf_dir, ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        qty = pc.cast(b["l_quantity"], pa.int64())
        cents = pc.cast(pc.floor(pc.add(pc.multiply(b["l_extendedprice"], pa.scalar(100.0)),
                                        pa.scalar(0.5))), pa.int64())
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "q": qty,
                "c": cents,
                "one": pa.array(np.ones(len(b), dtype=np.int64)),
            }
        )
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("q", "sum"), ("c", "sum"), ("one", "sum")]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("q_sum", alias_name="sum_qty"),
        Sum("c_sum", alias_name="sum_price_cents"),
        Sum("one_sum", alias_name="n_rows"),
    )


def q_predicated_rewrite(sf_dir: str):
    """modifyWhen/replaceWhen graft (T8/T9): conditional cell rewrite."""
    ds = _tbl(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def fn(b: pa.Table) -> pa.Table:
        flag = pc.if_else(
            pc.greater(b["o_totalprice"], pa.scalar(150000.0)),
            pa.scalar("HIGH"), b["o_orderpriority"],
        )
        return pa.table({"o_orderkey": b["o_orderkey"], "priority_class": flag})

    return ds.map_batches(fn, batch_format="pyarrow")


def q_topk_orders(sf_dir: str):
    """sort + limit (deterministic tie-break on key)."""
    ds = _tbl(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_distinct_sources(sf_dir: str):
    """Set-op graft: distinct as dictionary building (SURVEY.md §2.7)."""
    vals = sorted(_tbl(sf_dir, "documents", ["source"]).unique("source"))
    return pa.table({"source": pa.array(vals)})


def q_sectioned_doc_stats(sf_dir: str):
    """sectioned graft (S9, lucid-colonnade/src/Lucid/Colonnade.hs:269-292):
    the reference's one true group-by -> grouped aggregate."""
    from ray.data.aggregate import Count, Sum

    ds = _tbl(sf_dir, "documents", ["source", "n_chars"])
    return ds.groupby("source").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars")
    )


def q_token_count(sf_dir: str):
    from colonnade_ray.functions.text import token_count_batch

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda b: token_count_batch(b).select(["doc_id", "token_count"]),
        batch_format="pyarrow",
    )


def q_quality_scores(sf_dir: str):
    from colonnade_ray.functions.text import QualityScorer
    from colonnade_ray.util import default_concurrency

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    scored = ds.map_batches(
        QualityScorer, batch_format="pyarrow", concurrency=default_concurrency()
    )
    return scored.select_columns(
        ["doc_id", "q_chars", "q_alpha", "q_digit", "q_space", "q_punct", "q_stopwords"]
    )


def q_lang_share(sf_dir: str):
    from ray.data.aggregate import Count

    return (
        _tbl(sf_dir, "documents", ["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"))
    )


def q_events_hourly(sf_dir: str):
    """Streaming-shaped workload: tumbling 1h window as groupby on the
    truncated event time (ray_guide streaming pattern)."""
    from ray.data.aggregate import Count

    ds = _tbl(sf_dir, "events", ["ts", "event_type"])

    def fn(b: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(b["ts"], unit="hour")
        return pa.table({"event_type": b["event_type"], "hour_ts": hour})

    return ds.map_batches(fn, batch_format="pyarrow").groupby(
        ["event_type", "hour_ts"]
    ).aggregate(Count(alias_name="n_events"))


def q_broadcast_join(sf_dir: str):
    """Small-side broadcast join (guide pattern: ray.put once, probe
    per batch) -> grouped integer aggregate."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Count, Sum

    from colonnade_ray.functions.relational import broadcast_join

    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["o_custkey", "c_mktsegment"])
    joined = broadcast_join(orders, cust, on="o_custkey")

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.floor(pc.add(pc.multiply(b["o_totalprice"], pa.scalar(100.0)),
                                    pa.scalar(0.5))), pa.int64())
        return pa.table({"c_mktsegment": b["c_mktsegment"], "price_cents": c})

    return joined.map_batches(cents, batch_format="pyarrow").groupby(
        "c_mktsegment"
    ).aggregate(Count(alias_name="n_orders"), Sum("price_cents", alias_name="sum_cents"))


def q_hash_join(sf_dir: str):
    """Large-large hash-partitioned join (Dataset.join) -> aggregate."""
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.functions.relational import hash_join

    li = _lineitem(sf_dir, ["l_orderkey", "l_quantity"]).map_batches(
        lambda b: pa.table(
            {"l_orderkey": b["l_orderkey"], "qty": pc.cast(b["l_quantity"], pa.int64())}
        ),
        batch_format="pyarrow",
    )
    orders = _tbl(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda b: pa.table(
            {"l_orderkey": b["o_orderkey"], "o_orderpriority": b["o_orderpriority"]}
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(li, orders, on=["l_orderkey"])
    return joined.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_items"), Sum("qty", alias_name="sum_qty")
    )


def q_sessions(sf_dir: str):
    """Session windows (30-min gap) per user over the events stream."""
    from colonnade_ray.functions.relational import sessionize

    ev = _tbl(sf_dir, "events", ["user_id", "ts"])
    return sessionize(ev, key_col="user_id", ts_col="ts", gap_minutes=30)


def q_asof_clicks(sf_dir: str):
    """As-of join: each purchase matched to the user's latest prior
    click (custom operator; one groupby shuffle + merge_asof/group)."""
    from colonnade_ray.functions.relational import asof_join

    ev = _tbl(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").drop_columns(["event_type"]).map_batches(
        lambda b: b.rename_columns(["purchase_id", "ts", "user_id"]), batch_format="pyarrow"
    )
    clicks = ev.filter(expr="event_type == 'click'").drop_columns(["event_type"]).map_batches(
        lambda b: b.rename_columns(["click_id", "ts", "user_id"]), batch_format="pyarrow"
    )
    joined = asof_join(purchases, clicks, on="user_id", ts_col="ts")
    return joined.select_columns(["purchase_id", "user_id", "click_id_right"]).map_batches(
        lambda b: b.rename_columns(["purchase_id", "user_id", "click_id"]),
        batch_format="pyarrow",
    )


def q_range_join_events(sf_dir: str):
    """Keyed range join (custom operator, SURVEY §2.7): every event
    inside the 2-hour window after a purchase by the same user —
    overlapping windows, multi-match inner semantics, one key-hash ×
    day-bin shuffle, vectorized merge+mask per bucket
    (relational.range_join; window replication exercises the hot-key
    time-binning path)."""
    from colonnade_ray.functions.relational import range_join

    ev = _tbl(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def mk_windows(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "purchase"))
        hi = pc.add(t["ts"], pa.scalar(2 * 3600 * 1_000_000, pa.duration("us")))
        return pa.table({"window_id": t["event_id"], "user_id": t["user_id"],
                         "lo": t["ts"], "hi": hi})

    win = ev.map_batches(mk_windows, batch_format="pyarrow")
    joined = range_join(ev, win, on="user_id", ts_col="ts",
                        time_bin_s=86400.0)

    def finish(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["event_id"], b["window_id_right"]))
        return pa.table({"event_id": t["event_id"], "event_type": t["event_type"],
                         "user_id": t["user_id"], "window_id": t["window_id_right"]})

    return joined.map_batches(finish, batch_format="pyarrow")


def q_dedup_exact(sf_dir: str):
    from colonnade_ray.functions.dedup import exact_dedup

    return exact_dedup(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def q_similarity_topk(sf_dir: str):
    from colonnade_ray.functions.similarity import brute_force_topk

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    qt = emb.filter(expr="vec_id < 3").sort("vec_id").to_pandas()
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in qt.embedding])
    out = brute_force_topk(emb, queries, k=5)
    return out.select(["query_id", "vec_id", "rank"])


# ---------------------------------------------------------------------------
# Non-SQL (rows-only) pipelines


def _run_dir(sf_dir: str, tag: str) -> str:
    return tempfile.mkdtemp(prefix=f"colonnade_{tag}_")


def q_media_features(sf_dir: str):
    """Multimodal pipeline end-to-end (rows-only — media decode has
    no SQL twin): a deterministic synthetic corpus of REAL WAV, PPM,
    PNG and JPEG payloads flows through the actor-pool stages —
    stdlib_decoder feature extraction for the images, spectral
    features for the audio — and the result is one typed table of
    per-row feature summaries.  Every decoder is the from-scratch
    stdlib implementation (functions/multimodal.py, functions/
    jpeg.py); nothing is faked."""
    import ray.data as rd

    from colonnade_ray.functions.jpeg import encode_jpeg
    from colonnade_ray.functions.multimodal import (
        decode_ppm,
        encode_png,
        extract_audio_features,
        extract_media_features,
        stdlib_decoder,
        synth_ppm_payload,
        synth_wav_payload,
    )

    img_rows, wav_rows = [], []
    for i in range(24):
        pix = decode_ppm(synth_ppm_payload(1000 + i, w=24, h=16))
        kind = i % 3
        if kind == 0:
            payload, mt = synth_ppm_payload(1000 + i, w=24, h=16), \
                "image/x-portable-pixmap"
        elif kind == 1:
            payload, mt = encode_png(pix, filters=[i % 5] * 16), \
                "image/png"
        else:
            payload, mt = encode_jpeg(pix, quality=90,
                                      subsample=(i % 2 == 0)), \
                "image/jpeg"
        img_rows.append({"media_id": f"img-{i:04d}", "payload": payload,
                         "media_type": mt, "width": 24, "height": 16,
                         "duration_ms": 0})
    for i in range(12):
        wav_rows.append({"media_id": f"wav-{i:04d}",
                         "payload": synth_wav_payload(i),
                         "media_type": "audio/wav", "width": 0,
                         "height": 0, "duration_ms": 50})
    imgs = extract_media_features(
        rd.from_items(img_rows), decoder=stdlib_decoder,
        batch_size=8).to_pandas()
    wavs = extract_audio_features(
        rd.from_items(wav_rows), n_bands=16, batch_size=4).to_pandas()
    import pandas as pd

    out = pd.DataFrame({
        "media_id": list(imgs.media_id) + list(wavs.media_id),
        "kind": (["image"] * len(imgs)) + (["audio"] * len(wavs)),
        "n_features": ([len(f) for f in imgs.features]
                       + [len(f) for f in wavs.features]),
        "feat_mean": ([float(np.mean(f)) for f in imgs.features]
                      + [float(np.mean(f)) for f in wavs.features]),
    }).sort_values("media_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_encode_roundtrip(sf_dir: str):
    """Flagship: tokenize -> skew-partitioned encode (stateless tasks) ->
    decode -> order-free bit-identical verify; returns the summary +
    verification row."""
    import ray.data as rd

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.pipelines import (
        decode_corpus,
        encode_corpus,
        roundtrip_verify,
    )

    work = _run_dir(sf_dir, "flagship")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    tokenized_documents(sf_dir).write_parquet(inp)
    summary = encode_corpus(
        inp, out, batch_size=2048, partition_by="source", resume=False
    )
    decoded = decode_corpus(out)
    res = roundtrip_verify(
        rd.read_parquet(inp), decoded, ["doc_id", "tokens", "n_tok", "source"]
    )
    # SQL-oracle'd since round 3: rows and tokens are independently
    # recomputable from the documents table (the tokenizer's word
    # regex), and roundtrip_match is pinned to TRUE — the SQL analog of
    # the reference's propIsoStream (siphon/test/Test.hs:147-177):
    # decode . encode == id, externally checked.
    return pa.table(
        {
            "n_rows": pa.array([summary["rows"]], pa.int64()),
            "n_tokens": pa.array([summary["tokens"]], pa.int64()),
            "roundtrip_match": pa.array([bool(res["match"])], pa.bool_()),
        }
    )


def q_near_dup_pairs(sf_dir: str):
    from colonnade_ray.functions.dedup import near_dup_pairs

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pairs = near_dup_pairs(ds, threshold=0.8)
    return pairs.select_columns(["id_a", "id_b"]).sort(["id_a", "id_b"])


def q_winnow_gram_counts(sf_dir: str):
    """Winnowing fingerprint stage, SQL-checkable part: per-doc word
    k-gram counts (k=5; docs with 0<words<k fold into ONE gram) plus
    the density invariant 1 <= n_fp <= n_grams checked Ray-side —
    the rolling-hash gram machinery every Jaccard/MinHash op builds
    on, validated against an independent SQL word count."""
    from colonnade_ray.functions.dedup import winnow_fingerprints

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    fps = winnow_fingerprints(ds, k=5, w=4)

    def check(b: pa.Table) -> pa.Table:
        nfp = b["n_fp"].to_numpy(zero_copy_only=False)
        ng = b["n_grams"].to_numpy(zero_copy_only=False)
        assert (nfp <= ng).all() and (nfp[ng > 0] >= 1).all()
        return b.select(["doc_id", "n_grams"])

    return fps.map_batches(check, batch_format="pyarrow")


def q_winnow_overlap(sf_dir: str):
    """Partial-overlap pairs via shared winnowing fingerprints (>=2
    shared; plagiarism-style long-substring detection).

    SQL-oracle'd since round 3 via the md5 word-hash twin: the md5
    gram fold (FNV-prime polynomial mod 2^64, HUGEINT in DuckDB), the
    rightmost-min window selection (min over a (hash<<32 | ~pos) key),
    the short-doc leftmost-min fallback, and the shared-fingerprint
    pair counts are ALL recomputed independently in SQL — the full
    Schleimer-Wilkerson-Aiken selection externally checked, not just
    row counts.  The fast vectorized hash stays the production path
    (same selection code, property-tested in test_winnow_*)."""
    from colonnade_ray.functions.dedup import winnow_overlap_pairs

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return winnow_overlap_pairs(ds, min_shared=2, hash_fn="md5").sort(
        ["id_a", "id_b"]
    )


def q_simhash(sf_dir: str):
    """64-bit SimHash signatures, SQL-oracle'd since round 3: with the
    md5 word hash (bit-identical to DuckDB's md5) the full tf-weighted
    vote math is reproduced in SQL — every signature bit checked, not
    just row counts.  The fast vectorized default hash is the
    production path (same vote code, property-tested)."""
    from colonnade_ray.functions.dedup import simhash_signatures

    return simhash_signatures(
        _tbl(sf_dir, "documents", ["doc_id", "text"]), hash_fn="md5"
    )


def q_simhash_near_dups(sf_dir: str):
    """SimHash hamming-ball pairs (pigeonhole banding + exact verify);
    SQL-oracle'd via the md5 signature twin: DuckDB recomputes every
    signature and takes bit_count(xor(a,b)) <= 3 over all pairs, so
    both banding recall AND the popcount verify are externally
    checked."""
    from colonnade_ray.functions.dedup import simhash_candidates

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return simhash_candidates(ds, max_hamming=3, hash_fn="md5").sort(
        ["id_a", "id_b"]
    )


def q_ann_ivf_topk(sf_dir: str):
    from colonnade_ray.functions.similarity import ivf_topk

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    # expression filter (vectorized Arrow predicate), not a per-row
    # Python lambda — round-4 ask #6
    qt = emb.filter(expr="vec_id < 3").sort("vec_id").to_pandas()
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in qt.embedding])
    out = ivf_topk(emb, queries, k=5, n_cells=8, n_probe=3)
    return out.select(["query_id", "vec_id", "rank"])


def q_ann_ivf_exhaustive(sf_dir: str):
    """IVF top-k with every cell probed: must equal brute force exactly
    — the SQL-checkable correctness anchor for the IVF machinery (the
    pruned n_probe<n_cells variant stays rows-only)."""
    from colonnade_ray.functions.similarity import ivf_topk

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    # expression filter (vectorized Arrow predicate), not a per-row
    # Python lambda — round-4 ask #6
    qt = emb.filter(expr="vec_id < 3").sort("vec_id").to_pandas()
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in qt.embedding])
    out = ivf_topk(emb, queries, k=5, n_cells=8, n_probe=8)
    return out.select(["query_id", "vec_id", "rank"])


def q_ann_ivf_index(sf_dir: str):
    """Materialized IVF index (round-3): build writes the corpus as
    Hive-partitioned cell=K/ parquet + a centroid sidecar ONCE; the
    probe reads only probed cell directories.  Oracle-anchored in its
    exhaustive configuration (n_probe = n_cells: every cell probed =
    exact top-k, the same SQL as ann_ivf_exhaustive); the pruned-probe
    speed path is covered by test_ivf_index_build_and_probe and the
    BASELINE.md pruning measurements (11% rows read, recall 1.0)."""
    import shutil
    import tempfile

    from colonnade_ray.functions.similarity import build_ivf_index, ivf_index_topk

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    # expression filter (vectorized Arrow predicate), not a per-row
    # Python lambda — round-4 ask #6
    qt = emb.filter(expr="vec_id < 3").sort("vec_id").to_pandas()
    queries = np.stack([np.asarray(v, dtype=np.float64)
                        for v in qt.embedding])
    idx = tempfile.mkdtemp(prefix="ivf_index_", dir="/tmp")
    try:
        cents = build_ivf_index(emb, idx, n_cells=8)
        out = ivf_index_topk(idx, queries, k=5, n_probe=len(cents))
        return out.select(["query_id", "vec_id", "rank"])
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def q_word_freq_topk(sf_dir: str):
    """Top-50 word frequencies: per-batch partial counts -> one small
    groupby exchange -> sort+limit (the shuffle-minimized wide
    aggregate pattern)."""
    from colonnade_ray.functions.text import word_freq

    return word_freq(_tbl(sf_dir, "documents", ["text"]), k=50)


def q_events_sliding(sf_dir: str):
    """Hopping windows (1h length, 30m hop): each event counted in two
    overlapping windows."""
    from colonnade_ray.functions.relational import hopping_windows

    ev = _tbl(sf_dir, "events", ["ts", "event_type"])
    return hopping_windows(ev, ts_col="ts", key_cols=("event_type",),
                           length_minutes=60, hop_minutes=30)


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-style macro pipeline: broadcast-join the customer
    segment filter into orders, hash-join lineitem, grouped revenue in
    integer cents, top-10 — exercises operator COMPOSITION (filter ->
    broadcast join -> hash join -> partial agg -> sort/limit)."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    from colonnade_ray.functions.relational import broadcast_join, hash_join

    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"), pa.timestamp("us"))
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    cust = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING")).select(["c_custkey"]).rename_columns(["o_custkey"])
    import pyarrow.dataset as pds
    import ray.data as rd

    # date filter pushed into the read (row-group pruning at storage)
    orders = _read_split(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pds.field("o_orderdate") < np.datetime64("1995-03-15", "us"),
    )
    o_build = broadcast_join(orders, cust, on="o_custkey").map_batches(
        lambda b: b.select(["o_orderkey", "o_orderdate"]), batch_format="pyarrow"
    )
    def li_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], cutoff))
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(rev, pa.scalar(100.0)), pa.scalar(0.5))),
            pa.int64(),
        )
        return pa.table({"o_orderkey": b["l_orderkey"], "rev_cents": cents})

    li = _lineitem(
        sf_dir, ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_prep, batch_format="pyarrow")
    joined = hash_join(li, o_build, on=["o_orderkey"])
    agg = joined.groupby(["o_orderkey", "o_orderdate"]).aggregate(
        Sum("rev_cents", alias_name="revenue_cents")
    )
    return agg.sort(["revenue_cents", "o_orderkey"], descending=[True, False]).limit(10)


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5-shaped macro pipeline (local supplier volume, ASIA,
    1995): region/nation resolved driver-side (rows-bounded tiny),
    supplier nation BROADCAST into lineitem (ray.put once), customer
    nation attached to the date-pruned orders, and the c_nat == s_nat
    locality filter before a nations-sized aggregate, revenue in
    integer cents (the shipping_priority convention) so the twin
    hashes exactly.

    Adaptive join planning: the date x region filter keeps ~3% of
    orders, so the (o_orderkey -> c_nat) map usually fits the object
    store — it is materialized, counted, and if under
    ``_BCAST_MAX_ROWS`` broadcast into lineitem (most-selective join
    FIRST), meaning the 60M-row fact side never crosses an exchange
    at all.  Above the threshold (true-100TB order counts) both
    attaches fall back to the bucketed keyed_attach hash join.  The
    same guard governs the customer side."""
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq
    import ray.data as rd

    from ray.data.aggregate import Sum

    from colonnade_ray.functions.relational import broadcast_join, keyed_attach

    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"][0].as_py()
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    nat = nation.filter(pc.equal(nation["n_regionkey"], rkey))
    asia_keys = np.fromiter(set(nat["n_nationkey"].to_pylist()), np.int64)
    nat_names = dict(zip(nat["n_nationkey"].to_pylist(),
                         nat["n_name"].to_pylist()))

    lo = np.datetime64("1995-01-01", "us")
    hi = np.datetime64("1996-01-01", "us")
    orders = _read_split(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi),
    ).map_batches(lambda b: b.select(["o_orderkey", "o_custkey"]),
                  batch_format="pyarrow")

    cust_path = os.path.join(sf_dir, "customer.parquet")
    if pq.ParquetFile(cust_path).metadata.num_rows <= _BCAST_MAX_ROWS:
        cust_tbl = pq.read_table(cust_path, columns=["c_custkey", "c_nationkey"]) \
            .rename_columns(["o_custkey", "c_nat"])
        o_nat = broadcast_join(orders, cust_tbl, on="o_custkey")
    else:
        cust = _tbl(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        o_nat = keyed_attach(
            orders, cust, key_from="o_custkey", out_col="c_nat",
            carry=[("o_orderkey", pa.int64())],
            id_col="c_custkey", text_col="c_nationkey", fill=-1)

    def keep_asia_cust(b: pa.Table) -> pa.Table:
        mask = np.isin(pc.cast(b["c_nat"], pa.int64()).to_numpy(), asia_keys)
        return b.filter(pa.array(mask)).select(["o_orderkey", "c_nat"])

    o_nat = o_nat.map_batches(keep_asia_cust, batch_format="pyarrow") \
        .materialize()

    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"]) \
        .rename_columns(["l_suppkey", "s_nat"])
    li = _lineitem(sf_dir, ["l_orderkey", "l_suppkey",
                            "l_extendedprice", "l_discount"])

    def rev_local(b: pa.Table) -> pa.Table:
        import pandas as pd

        b = b.filter(pc.equal(pc.cast(b["s_nat"], pa.int64()),
                              pc.cast(b["c_nat"], pa.int64())))
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(rev, pa.scalar(100.0)),
                            pa.scalar(0.5))), pa.int64())
        names = pd.Series(pc.cast(b["s_nat"], pa.int64()).to_numpy()) \
            .map(nat_names).to_numpy(dtype=object)
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "rev_cents": cents})

    if o_nat.count() <= _BCAST_MAX_ROWS:
        # broadcast plan: lineitem crosses ZERO exchanges.  Inner
        # probe against the ~3%-selective order map first, then the
        # supplier dimension; locality (s_nat == c_nat, c_nat ASIA)
        # subsumes the supplier-region filter.
        import ray

        onat_tbl = pa.concat_tables(ray.get(o_nat.to_arrow_refs())) \
            .rename_columns(["l_orderkey", "c_nat"])
        li = broadcast_join(li, onat_tbl, on="l_orderkey")
        li = broadcast_join(li, supp, on="l_suppkey")
        agg = li.map_batches(rev_local, batch_format="pyarrow")
    else:
        li = broadcast_join(li, supp, on="l_suppkey")

        def li_prep(b: pa.Table) -> pa.Table:
            mask = np.isin(b["s_nat"].to_numpy(), asia_keys)
            b = b.filter(pa.array(mask))
            return pa.table({"l_orderkey": b["l_orderkey"],
                             "s_nat": pc.cast(b["s_nat"], pa.int64()),
                             "l_extendedprice": b["l_extendedprice"],
                             "l_discount": b["l_discount"]})

        li = li.map_batches(li_prep, batch_format="pyarrow")
        joined = keyed_attach(
            li, o_nat, key_from="l_orderkey", out_col="c_nat",
            carry=[("s_nat", pa.int64()),
                   ("l_extendedprice", pa.float64()),
                   ("l_discount", pa.float64())],
            id_col="o_orderkey", text_col="c_nat", fill=-1)
        agg = joined.map_batches(rev_local, batch_format="pyarrow")

    agg = agg.groupby("n_name").aggregate(Sum("rev_cents",
                                              alias_name="revenue_cents"))
    return agg.sort(["revenue_cents", "n_name"], descending=[True, False])


def q_mode_lang(sf_dir: str):
    """Most frequent lang per source (ties -> smallest lang): one
    bounded count exchange + bucketed arg-max."""
    from colonnade_ray.functions.relational import grouped_mode

    ds = _tbl(sf_dir, "documents", ["source", "lang"])
    return grouped_mode(ds, "source", "lang").sort("source")


def q_winsorize(sf_dir: str):
    """Per-type winsorization of event values into the exact
    [p5, p95] percentile_disc band (thresholds broadcast, clamp is a
    pure row pass — bit-exact against LEAST/GREATEST in SQL)."""
    from colonnade_ray.functions.curation import winsorize

    ds = _tbl(sf_dir, "events", ["event_id", "event_type", "value"])
    return winsorize(ds, "event_type", "value",
                     q_lo=0.05, q_hi=0.95, out_col="value_w") \
        .sort("event_id")


def q_active_customers(sf_dir: str):
    """EXISTS / semi-join: BUILDING customers with at least one 1995
    order — keyed_semijoin's tag-union + one bucketed exchange, the
    date filter pushed into the orders read."""
    import pyarrow.dataset as pds
    import ray.data as rd

    from colonnade_ray.functions.relational import keyed_semijoin

    cust = _tbl(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b["c_mktsegment"], "BUILDING")),
            batch_format="pyarrow")
    lo = np.datetime64("1995-01-01", "us")
    hi = np.datetime64("1996-01-01", "us")
    orders = _read_split(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate"],
        filter=(pds.field("o_orderdate") >= lo) & (pds.field("o_orderdate") < hi),
    ).map_batches(
        lambda b: pa.table({"c_custkey": b["o_custkey"]}),
        batch_format="pyarrow")
    out = keyed_semijoin(cust, orders, on="c_custkey",
                         carry=[("c_mktsegment", pa.string())])
    return out.sort("c_custkey")


def q_curation_v2(sf_dir: str):
    """Second composed curation flow, chaining the final-wave ops:
    length gate -> temperature_mix (alpha=.5, md5-deterministic) ->
    exact dedup keeping the ARG-MIN doc per fingerprint (row_number
    twin) -> per-source doc + token totals.  Only (fingerprint, id,
    source, token_count) rows cross the one dedup exchange."""
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.functions.bucketing import bucketed_group_apply
    from colonnade_ray.functions.sampling import temperature_mix
    from colonnade_ray.functions.text import fingerprint_batch, token_count_batch

    ds = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])

    def gate(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(pc.utf8_length(b["text"]),
                                         pa.scalar(200)))

    gated = ds.map_batches(gate, batch_format="pyarrow")
    mixed = temperature_mix(gated, group_col="source", alpha=0.5, seed=13)

    def fp(b: pa.Table) -> pa.Table:
        b = token_count_batch(fingerprint_batch(b))
        return b.select(["doc_id", "source", "fingerprint", "token_count"])

    keyed = mixed.map_batches(fp, batch_format="pyarrow")

    def argmin_doc(g):
        g = g.sort_values(["fingerprint", "doc_id"], kind="mergesort")
        return g.drop_duplicates("fingerprint")

    kept = bucketed_group_apply(keyed, "fingerprint", argmin_doc)
    agg = kept.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("token_count", alias_name="sum_tokens"))
    return agg.sort("source")


def q_encoded_count_where(sf_dir: str):
    """Pushdown correctness IN the gate: encode the documents table
    (clustered on n_chars so most chunks prove from metadata), then
    answer COUNT(n_chars >= 600) via count_where and the per-source
    rollup via group_counts — both compared against plain SQL over
    the RAW table.  The encoded corpus is an implementation detail;
    the answers must be invariant to it."""
    from colonnade_ray.pipelines import count_where, encode_corpus, group_counts

    work = _run_dir(sf_dir, "pushdown")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    n = count_where(out, ("n_chars", ">=", 600))
    gc = group_counts(out, "source")
    gc = gc.rename(columns={"n_rows": "n_docs"})
    gc.insert(0, "n_ge_600", np.int64(n))
    return pa.Table.from_pandas(gc[["source", "n_docs", "n_ge_600"]],
                                preserve_index=False)


def q_encoded_count_where_or(sf_dir: str):
    """OR / NOT predicate composition IN the gate: encode the
    documents table clustered on n_chars, then answer disjunctive,
    negated, and nested WHERE counts via count_where — the zone maps
    prune composed expressions (may-match union for OR,
    complement-of-proven for NOT) and the answers must match plain
    SQL over the raw table."""
    from colonnade_ray.pipelines import count_where, encode_corpus

    work = _run_dir(sf_dir, "pushdown_or")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    n_or = count_where(out, ("or", ("n_chars", "<", 200),
                             ("n_chars", ">=", 900)))
    n_not = count_where(out, ("not", ("n_chars", ">=", 600)))
    n_nested = count_where(
        out, ("and", ("not", ("n_chars", "<", 300)),
              ("or", ("source", "==", "src1"), ("source", "==", "src3"))))
    return pa.table({
        "n_or": pa.array([n_or], pa.int64()),
        "n_not": pa.array([n_not], pa.int64()),
        "n_nested": pa.array([n_nested], pa.int64()),
    })


def q_encoded_quantiles(sf_dir: str):
    """Quantile pushdown IN the gate: encode the documents table with
    per-chunk quantile grids at quantile_k >= chunk rows — the grids
    then list every value, the merged weighted type-1 quantile is
    EXACT, and the answer must equal DuckDB's quantile_disc over the
    raw table (the same exact-regime anchor as approx_distinct's
    linear-counting)."""
    from colonnade_ray.pipelines import approx_quantiles, encode_corpus

    work = _run_dir(sf_dir, "quantiles")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  quantile_cols=["n_chars"], quantile_k=512)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    vals = approx_quantiles(out, "n_chars", qs)
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([int(v) for v in vals], pa.int64()),
    })


def q_encoded_grouped_quantiles(sf_dir: str):
    """Per-group quantile pushdown IN the gate: documents encoded
    group-clustered on source with full quantile grids — single-group
    chunks answer from the manifests, boundary chunks decode, and the
    merged per-group discrete quantiles must equal DuckDB's
    quantile_disc GROUP BY over the raw table."""
    from colonnade_ray.pipelines import (
        encode_corpus,
        grouped_approx_quantiles,
    )

    work = _run_dir(sf_dir, "gquantiles")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="source",
                  quantile_cols=["n_chars"], quantile_k=512)
    df = grouped_approx_quantiles(out, "source", "n_chars",
                                  [0.25, 0.5, 0.9])
    return pa.Table.from_pandas(df, preserve_index=False)


def q_encoded_zorder_pushdown(sf_dir: str):
    """Z-order layout IN the gate: encode the documents table clustered
    on (n_chars, doc_id) — block-local Morton interleave of ranks, so
    zone bands narrow on BOTH columns — then answer band-predicate
    counts on each column and on their conjunction via count_where.
    The layout is an implementation detail; answers must match plain
    SQL over the raw table."""
    from colonnade_ray.pipelines import count_where, encode_corpus

    work = _run_dir(sf_dir, "zorder")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by=["n_chars", "doc_id"])
    n_chars_hi = count_where(out, ("n_chars", ">=", 600))
    doc_lo = count_where(out, ("doc_id", "<", 100))
    both = count_where(out, [("n_chars", ">=", 600), ("doc_id", ">=", 100)])
    return pa.table({"n_chars_ge_600": pa.array([n_chars_hi], pa.int64()),
                     "doc_id_lt_100": pa.array([doc_lo], pa.int64()),
                     "both": pa.array([both], pa.int64())})


def q_encoded_topk(sf_dir: str):
    """ORDER BY ... LIMIT k pushdown IN the gate: encode the documents
    table clustered on n_chars, then answer the top-12 longest docs
    (and the top-8 under a source predicate) via topk_where — zone
    bands bound the k-th value so only reachable chunks decode; the
    answer must match plain SQL over the raw table."""
    from colonnade_ray.pipelines import encode_corpus, topk_where

    work = _run_dir(sf_dir, "topk")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    top = topk_where(out, "n_chars", k=12, tie_cols=["doc_id"],
                     columns=["source"])
    sub = topk_where(out, "n_chars", k=8, tie_cols=["doc_id"],
                     predicate=("source", "==", "src7"))
    sub = sub.append_column("part", pa.array(["src7"] * len(sub)))
    top = top.select(["doc_id", "n_chars"]).append_column(
        "part", pa.array(["all"] * len(top)))
    return pa.concat_tables([top, sub.select(["doc_id", "n_chars", "part"])])


def q_encoded_group_aggs(sf_dir: str):
    """Per-group COUNT/SUM/MIN/MAX pushdown IN the gate: encode the
    documents table clustered on source so chunks are single-group and
    all four aggregates answer from zone bands + __sums__ metadata;
    hash-compared to plain SQL GROUP BY over the raw table."""
    from colonnade_ray.pipelines import encode_corpus, group_aggregates

    work = _run_dir(sf_dir, "gaggs")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="source")
    df = group_aggregates(out, "source", "n_chars")
    return pa.Table.from_pandas(df, preserve_index=False)


def q_encoded_prefix_count(sf_dir: str):
    """startswith predicate pushdown IN the gate: encode documents
    clustered on source (string zone bands), answer prefix counts via
    count_where's [v, _str_upper(v)) band logic — vs SQL LIKE 'v%'."""
    from colonnade_ray.pipelines import count_where, encode_corpus

    work = _run_dir(sf_dir, "prefix")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "source"]).write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="source")
    return pa.table({
        "src1_like": pa.array([count_where(out, ("source", "startswith",
                                                 "src1"))], pa.int64()),
        "src_like": pa.array([count_where(out, ("source", "startswith",
                                                "src"))], pa.int64()),
        "src19_like": pa.array([count_where(out, ("source", "startswith",
                                                  "src19"))], pa.int64()),
    })


def q_encoded_grouped_topk(sf_dir: str):
    """Top-k per group pushdown IN the gate: encode documents
    lexicographically clustered on (source, n_chars desc) so chunks
    are single-group and value-ordered, answer the 3 longest docs per
    source via grouped_topk_where — vs a SQL row_number() twin."""
    from colonnade_ray.pipelines import encode_corpus, grouped_topk_where

    work = _run_dir(sf_dir, "gtopk")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by=[("source", "ascending"),
                              ("n_chars", "descending")])
    return grouped_topk_where(out, "source", "n_chars", k=3,
                              tie_cols=["doc_id"])


def q_encoded_summary(sf_dir: str):
    """Single-pass COUNT/SUM/MIN/MAX pushdown IN the gate
    (pipelines.summary_where): one scan answers all four under a
    predicate — vs plain SQL over the raw table."""
    from colonnade_ray.pipelines import encode_corpus, summary_where

    work = _run_dir(sf_dir, "summary")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    s = summary_where(out, "n_chars", ("n_chars", ">=", 300))
    return pa.table({
        "n": pa.array([s["count"]], pa.int64()),
        "sum_chars": pa.array([s["sum"]], pa.int64()),
        "min_chars": pa.array([s["min"]], pa.int64()),
        "max_chars": pa.array([s["max"]], pa.int64()),
    })


def q_approx_distinct(sf_dir: str):
    """HLL sketch pushdown IN the gate: encode the documents table with
    per-chunk HyperLogLog registers on (lang, source, doc_id), then
    answer APPROX COUNT(DISTINCT) from lineage metadata alone.  Small
    cardinalities sit in the linear-counting regime where the estimate
    rounds to the exact answer (compared to SQL COUNT(DISTINCT)); the
    high-cardinality doc_id is asserted as est/exact rounded to 10/10
    (i.e. within 5%), which the deterministic hashes make stable."""
    from colonnade_ray.pipelines import approx_distinct, encode_corpus

    work = _run_dir(sf_dir, "hll")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    docs = _tbl(sf_dir, "documents", ["doc_id", "lang", "source"])
    n_exact = docs.count()  # doc_id is unique in the table
    docs.write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  hll_cols=["doc_id", "lang", "source"])
    est_lang, st = approx_distinct(out, "lang", return_stats=True)
    assert st["chunks_scanned"] == 0, st  # metadata-only
    est_src = approx_distinct(out, "source")
    est_doc = approx_distinct(out, "doc_id")
    return pa.table({
        "lang_distinct": pa.array([int(round(est_lang))], pa.int64()),
        "source_distinct": pa.array([int(round(est_src))], pa.int64()),
        "doc_ratio_x10": pa.array([int(round(est_doc / n_exact * 10))],
                                  pa.int64()),
    })


def q_delete_where_count(sf_dir: str):
    """Merge-on-read deletion vectors IN the gate
    (pipelines/deletes.py): encode the documents table, DELETE WHERE
    lang = 'de' (logical — per-chunk bitmap sidecars, zero payload
    rewrite), answer the per-source live counts and
    COUNT(n_chars >= 600) from the encoded corpus, then
    vacuum_deletes (materialize, retire sidecars) and re-answer —
    masked and materialized must agree, and both must equal plain SQL
    over the raw table minus the deleted rows."""
    from colonnade_ray.pipelines import (
        count_where,
        delete_where,
        encode_corpus,
        group_counts,
        vacuum_deletes,
    )

    work = _run_dir(sf_dir, "deletes")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "lang", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    delete_where(out, ("lang", "==", "de"))
    n = count_where(out, ("n_chars", ">=", 600))
    gc = group_counts(out, "source")
    vacuum_deletes(out)
    assert count_where(out, ("n_chars", ">=", 600)) == n
    gc2 = group_counts(out, "source")
    assert gc2.equals(gc), "vacuum changed an answer"
    gc = gc.rename(columns={"n_rows": "n_docs"})
    gc.insert(0, "n_ge_600", np.int64(n))
    return pa.Table.from_pandas(gc[["source", "n_docs", "n_ge_600"]],
                                preserve_index=False)


def q_evolve_add_column(sf_dir: str):
    """Schema evolution IN the gate (pipelines/evolve.py): encode the
    documents table, attach a derived chars_bucket column WITHOUT
    re-encoding existing payloads, then answer count/sum/max pushdowns
    ON THE NEW COLUMN (it gets its own zone maps + __sums__) — all
    compared against plain SQL computing the same derivation."""
    from colonnade_ray.pipelines import (
        add_columns,
        aggregate_where,
        count_where,
        encode_corpus,
    )

    def bucketize(t):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        return {"chars_bucket": _pc.divide(t["n_chars"], 200).cast(_pa.int64())}

    work = _run_dir(sf_dir, "evolve")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  cluster_by="n_chars")
    add_columns(out, bucketize, ["n_chars"])
    n = count_where(out, ("chars_bucket", ">=", 3))
    s = aggregate_where(out, "sum", "chars_bucket")
    mx = aggregate_where(out, "max", "chars_bucket")
    return pa.table({
        "n_ge_3": pa.array([n], pa.int64()),
        "sum_bucket": pa.array([s], pa.int64()),
        "max_bucket": pa.array([mx], pa.int64()),
    })


def q_replace_where_rewrite(sf_dir: str):
    """UPDATE-in-place at corpus scale (pipelines/evolve.py
    update_where/replace_where — the reference's modifyWhen/replaceWhen
    lifted to lifecycle): encode documents, SET source = 'redacted'
    WHERE lang = 'de', and answer the per-source counts from the
    rewritten corpus vs SQL computing the same CASE rewrite."""
    from colonnade_ray.pipelines import (
        encode_corpus,
        group_counts,
        replace_where,
    )

    work = _run_dir(sf_dir, "updatewhere")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "lang", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False)
    replace_where(out, ("lang", "==", "de"), {"source": "redacted"})
    gc = group_counts(out, "source").rename(columns={"n_rows": "n_docs"})
    return pa.Table.from_pandas(gc[["source", "n_docs"]],
                                preserve_index=False)


def q_merge_rows_upsert(sf_dir: str):
    """Keyed MERGE / upsert IN the gate (pipelines/merge.py): encode
    the documents table, upsert a batch of UPDATED rows (doc_id % 7
    == 0 — n_chars bumped by 1000, source retagged 'merged') plus
    brand-new keys (doc_id + 10M for doc_id % 97 == 0, source
    'fresh'), then answer per-source counts + n_chars sums from the
    merged corpus — must equal SQL's anti-join + UNION ALL."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.pipelines import (
        decode_corpus,
        encode_corpus,
        merge_rows,
    )

    work = _run_dir(sf_dir, "merge")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    cols = ["doc_id", "n_chars", "lang", "source"]
    _tbl(sf_dir, "documents", cols).write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False)

    # the merge batch is incremental by definition — driver-built here
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=cols)
    ids = t["doc_id"].to_numpy()
    upd = t.filter(pa.array(ids % 7 == 0))
    ins = t.filter(pa.array(ids % 97 == 0))
    batch = pa.concat_tables([
        pa.table({"doc_id": upd["doc_id"],
                  "n_chars": pc.add(upd["n_chars"], 1000),
                  "lang": upd["lang"],
                  "source": pa.array(["merged"] * upd.num_rows)}),
        pa.table({"doc_id": pc.add(ins["doc_id"], 10_000_000),
                  "n_chars": ins["n_chars"],
                  "lang": ins["lang"],
                  "source": pa.array(["fresh"] * ins.num_rows)}),
    ])
    bdir = os.path.join(work, "batch")
    os.makedirs(bdir, exist_ok=True)
    bp = os.path.join(bdir, "batch-0.parquet")
    pq.write_table(batch, bp)
    merge_rows(out, bp, key="doc_id")

    agg = decode_corpus(out, columns=["source", "n_chars"]) \
        .groupby("source").aggregate(Count(), Sum("n_chars")) \
        .to_pandas()
    agg = agg.rename(columns={"count()": "n_docs",
                              "sum(n_chars)": "sum_chars"})
    agg["n_docs"] = agg["n_docs"].astype("int64")
    agg["sum_chars"] = agg["sum_chars"].astype("int64")
    return pa.Table.from_pandas(
        agg[["source", "n_docs", "sum_chars"]], preserve_index=False)


def q_cdc_apply_changes(sf_dir: str):
    """CDC apply IN the gate (pipelines/merge.py apply_changes):
    encode documents, apply one change batch carrying upserts
    (doc_id % 11 == 0 — n_chars bumped 500, source 'upd') and deletes
    (doc_id % 13 == 0, not also an upsert), answer per-source counts
    + sums — must equal SQL's anti-join + filtered union."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.pipelines import (
        apply_changes,
        decode_corpus,
        encode_corpus,
    )

    work = _run_dir(sf_dir, "cdc")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    cols = ["doc_id", "n_chars", "lang", "source"]
    _tbl(sf_dir, "documents", cols).write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False)

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=cols)
    ids = t["doc_id"].to_numpy()
    upd = t.filter(pa.array(ids % 11 == 0))
    dele = t.filter(pa.array((ids % 13 == 0) & (ids % 11 != 0)))
    batch = pa.concat_tables([
        pa.table({"doc_id": upd["doc_id"],
                  "n_chars": pc.add(upd["n_chars"], 500),
                  "lang": upd["lang"],
                  "source": pa.array(["upd"] * upd.num_rows),
                  "op": pa.array(["upsert"] * upd.num_rows)}),
        pa.table({"doc_id": dele["doc_id"],
                  "n_chars": dele["n_chars"],
                  "lang": dele["lang"],
                  "source": dele["source"],
                  "op": pa.array(["delete"] * dele.num_rows)}),
    ])
    bdir = os.path.join(work, "changes")
    os.makedirs(bdir, exist_ok=True)
    bp = os.path.join(bdir, "changes-0.parquet")
    pq.write_table(batch, bp)
    apply_changes(out, bp, key="doc_id")

    agg = decode_corpus(out, columns=["source", "n_chars"]) \
        .groupby("source").aggregate(Count(), Sum("n_chars")) \
        .to_pandas()
    agg = agg.rename(columns={"count()": "n_docs",
                              "sum(n_chars)": "sum_chars"})
    agg["n_docs"] = agg["n_docs"].astype("int64")
    agg["sum_chars"] = agg["sum_chars"].astype("int64")
    return pa.Table.from_pandas(
        agg[["source", "n_docs", "sum_chars"]], preserve_index=False)


def q_snapshot_time_travel(sf_dir: str):
    """Time travel IN the gate (pipelines/snapshots.py): encode the
    documents table, snapshot, DELETE WHERE lang = 'de', vacuum (the
    live sidecars retire; the snapshot holds its own copy), then
    answer per-source counts from BOTH the live corpus and the
    snapshot — the snapshot must still see every row."""
    from ray.data.aggregate import Count

    from colonnade_ray.pipelines import (
        create_snapshot,
        decode_snapshot,
        delete_where,
        encode_corpus,
        group_counts,
        vacuum_deletes,
    )

    work = _run_dir(sf_dir, "snapshot")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "lang", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False)
    create_snapshot(out, "t0")
    delete_where(out, ("lang", "==", "de"))
    vacuum_deletes(out)
    snap = decode_snapshot(out, "t0", columns=["source"]) \
        .groupby("source").aggregate(Count()).to_pandas() \
        .rename(columns={"count()": "n_snap"})
    live = group_counts(out, "source").rename(columns={"n_rows": "n_live"})
    df = snap.merge(live, on="source", how="left")
    df["n_live"] = df["n_live"].fillna(0).astype("int64")
    df["n_snap"] = df["n_snap"].astype("int64")
    return pa.Table.from_pandas(df[["source", "n_live", "n_snap"]],
                                preserve_index=False)


def q_restore_snapshot(sf_dir: str):
    """Rollback IN the gate (pipelines/snapshots.py restore_snapshot):
    encode documents, DELETE lang='de' + vacuum, snapshot, then WRECK
    the live state (every source rewritten) and roll back — the
    per-source counts must equal the snapshot state (documents minus
    the 'de' rows), while the wrecked state is gone."""
    from colonnade_ray.pipelines import (
        create_snapshot,
        delete_where,
        encode_corpus,
        group_counts,
        replace_where,
        restore_snapshot,
        vacuum_deletes,
    )

    work = _run_dir(sf_dir, "restore")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "lang", "source"]) \
        .write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False)
    delete_where(out, ("lang", "==", "de"))
    vacuum_deletes(out)
    create_snapshot(out, "keep")
    replace_where(out, ("doc_id", ">=", 0), {"source": "wrecked"})
    restore_snapshot(out, "keep")
    gc = group_counts(out, "source").rename(columns={"n_rows": "n_docs"})
    assert "wrecked" not in set(gc["source"])
    return pa.Table.from_pandas(gc[["source", "n_docs"]],
                                preserve_index=False)


def q_bloom_point_lookup(sf_dir: str):
    """Per-chunk Bloom filters IN the gate (stages/bloomzone.py):
    encode documents with bloom_cols=["doc_id"], then answer point
    lookups (hit, miss, and a predicated SUM) through count_where /
    aggregate_where — the bloom prunes chunks the zone bands can't,
    and the answers must equal plain SQL."""
    from colonnade_ray.pipelines import (
        aggregate_where,
        count_where,
        encode_corpus,
    )

    work = _run_dir(sf_dir, "bloom")
    inp = os.path.join(work, "input")
    out = os.path.join(work, "out")
    _tbl(sf_dir, "documents", ["doc_id", "n_chars"]).write_parquet(inp)
    encode_corpus(inp, out, batch_size=512, resume=False,
                  bloom_cols=["doc_id"])
    n_hit = count_where(out, ("doc_id", "==", 123))
    n_miss = count_where(out, ("doc_id", "==", -7))
    s = aggregate_where(out, "sum", "n_chars",
                        predicate=("doc_id", "==", 123))
    return pa.table({
        "n_hit": pa.array([n_hit], pa.int64()),
        "n_miss": pa.array([n_miss], pa.int64()),
        "sum_hit": pa.array([int(s or 0)], pa.int64()),
    })


def q_user_event_seq(sf_dir: str):
    """Per-key running sequence number (row_number window): bucketed
    per-user cumcount over ts-ordered events."""
    from colonnade_ray.functions.bucketing import bucketed_group_apply

    ev = _tbl(sf_dir, "events", ["event_id", "user_id", "ts"])

    def seq(g):
        g = g.sort_values(["user_id", "ts", "event_id"])
        g["seq"] = g.groupby("user_id", sort=False).cumcount() + 1
        return g[["event_id", "user_id", "seq"]]

    return bucketed_group_apply(ev, "user_id", seq)


def q_grouped_quantiles(sf_dir: str):
    """Exact per-group quantiles (percentile_disc semantics — always
    an existing value, so doubles compare bit-identical to SQL): one
    bucket shuffle, vectorized per-bucket sort + offset gather."""
    from colonnade_ray.functions.relational import grouped_quantiles

    ev = _tbl(sf_dir, "events", ["event_type", "value"])
    out = grouped_quantiles(ev, ["event_type"], "value", qs=(0.25, 0.5, 0.9))
    return out.sort(["event_type", "q"])


def q_rolling_value(sf_dir: str):
    """Per-user rolling 5-row sum of event value in integer cents
    (cumsum minus window-lagged cumsum inside one bucket shuffle) —
    the moving-window aggregate, integer-exact vs the SQL window."""
    from colonnade_ray.functions.relational import rolling_sum

    ev = _tbl(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    cents = ev.map_batches(
        lambda b: pa.table(
            {
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "ts": b["ts"],
                "cents": pc.cast(pc.round(pc.multiply(b["value"], 100.0)), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    out = rolling_sum(cents, "user_id", ["ts", "event_id"], "cents",
                      window=5, out_col="roll_cents")
    return out.map_batches(
        lambda df: df[["event_id", "roll_cents"]], batch_format="pandas"
    ).sort("event_id")


def q_contamination(sf_dir: str):
    """Decontamination stage: per-doc distinct 5-gram shingles vs a
    held-out set's shingles (test set = every 50th doc), broadcast
    membership probe, no shuffle."""
    from colonnade_ray.functions.curation import contamination_check

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    # vectorized batch filter (modulo isn't in the expr grammar):
    # doc_id % 50 == 0 as doc_id - (doc_id // 50) * 50 == 0
    test = docs.map_batches(
        lambda b: b.filter(pc.equal(
            pc.subtract(b["doc_id"],
                        pc.multiply(pc.divide(b["doc_id"], 50), 50)), 0)),
        batch_format="pyarrow", zero_copy_batch=True)
    return contamination_check(docs, test)


def q_repetition(sf_dir: str):
    """Gopher-style repetition signal: total vs distinct word bigrams
    per doc (integer outputs)."""
    from colonnade_ray.functions.curation import repetition_stats

    return repetition_stats(_tbl(sf_dir, "documents", ["doc_id", "text"]))


def q_redact(sf_dir: str):
    """Denylist scrubbing: redact two blocklisted terms, count hits
    per doc (vectorized RE2 rewrite — the cell-content twin of
    modifyWhen/replaceWhen)."""
    from colonnade_ray.functions.curation import redact_terms

    docs = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return redact_terms(docs, r"\b(customer|spark)\b", "<X>")


def q_price_bands(sf_dir: str):
    """Broadcast interval (range) join: lineitem prices binned into
    [lo, hi) bands via one searchsorted probe per batch, then a grouped
    integer aggregate."""
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.functions.relational import interval_join

    bands = pa.table(
        {
            "lo": [0.0, 10_000.0, 40_000.0],
            "hi": [10_000.0, 40_000.0, 1e9],
            "label": ["low", "mid", "high"],
        }
    )
    li = _lineitem(sf_dir, ["l_orderkey", "l_extendedprice"])
    joined = interval_join(li, bands, value_col="l_extendedprice", out_col="band")

    def cents(b: pa.Table) -> pa.Table:
        c = pc.cast(pc.floor(pc.add(pc.multiply(b["l_extendedprice"], pa.scalar(100.0)),
                                    pa.scalar(0.5))), pa.int64())
        return pa.table({"band": b["band"], "price_cents": c})

    return joined.map_batches(cents, batch_format="pyarrow").groupby("band").aggregate(
        Count(alias_name="n_items"), Sum("price_cents", alias_name="sum_cents")
    )


def q_grouped_topk(sf_dir: str):
    """Each customer's 3 priciest orders: two-level top-k (per-batch
    partial shrink -> one bucket shuffle), deterministic tie-break."""
    from colonnade_ray.functions.relational import grouped_topk

    orders = _tbl(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    out = grouped_topk(orders, ["o_custkey"], "o_totalprice", k=3,
                       descending=True, tie_cols=["o_orderkey"])
    return out.select_columns(["o_custkey", "o_orderkey"])


def q_stratified_sample(sf_dir: str):
    """Per-source stratified sample (5 docs per source, deterministic
    order) — grouped_topk reused as group-wise sampling."""
    from colonnade_ray.functions.relational import grouped_topk

    docs = _tbl(sf_dir, "documents", ["doc_id", "source"])
    out = grouped_topk(docs, ["source"], "doc_id", k=5, descending=False)
    return out.select_columns(["source", "doc_id"])


def q_doc_sample(sf_dir: str):
    """Deterministic 1-in-20 systematic sample (mod_sample): pure row
    filter, reproducible across retries/cluster sizes — the
    SQL-checkable twin of functions/sampling.hash_sample."""
    from colonnade_ray.functions.sampling import mod_sample

    ds = _tbl(sf_dir, "documents", ["doc_id", "n_chars"])
    return mod_sample(ds, key_col="doc_id", mod=20, keep=0)


def q_quality_filter(sf_dir: str):
    """Composed pipeline: quality scoring -> integer-threshold filter
    -> id projection (the scoring->filtering step of a training-data
    prep flow)."""
    from colonnade_ray.functions.text import QualityScorer
    from colonnade_ray.util import default_concurrency

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    scored = ds.map_batches(
        QualityScorer, batch_format="pyarrow", concurrency=default_concurrency()
    )

    def keep(b: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(b["q_chars"], pa.scalar(200)),
                    pc.greater_equal(b["q_stopwords"], pa.scalar(5))),
            pc.less_equal(pc.multiply(b["q_digit"], pa.scalar(5)), b["q_chars"]),
        )
        return b.filter(mask).select(["doc_id", "q_chars", "q_stopwords"])

    return scored.map_batches(keep, batch_format="pyarrow")


def q_truncate_conservation(sf_dir: str):
    """Truncation invariant: sum of n_tok after truncating every doc to
    128 tokens == SUM(LEAST(token_count, 128)) — SQL-checkable over the
    raw documents table."""
    from ray.data.aggregate import Sum

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.functions.sequences import truncate_tokens_batch

    tok = tokenized_documents(sf_dir)
    trunc = tok.map_batches(
        lambda b: truncate_tokens_batch(b, 128), batch_format="pyarrow"
    )
    total = trunc.aggregate(Sum("n_tok", alias_name="total_tokens"))
    return pa.table({"total_tokens": pa.array([int(total["total_tokens"])], pa.int64())})


def q_curation_pipeline(sf_dir: str):
    """Composed LLM-curation flow in ONE pipeline: quality scoring ->
    integer-threshold filter -> exact dedup (min id per distinct text)
    -> token counting -> corpus token budget (+1 EOS per kept doc).
    Texts never leave the map stage — the only shuffle moves
    (fingerprint, doc_id, token_count) rows; the SQL oracle reproduces
    the whole chain."""
    from ray.data.aggregate import Sum

    from colonnade_ray.functions.bucketing import bucketed_group_apply
    from colonnade_ray.functions.text import (
        QualityScorer,
        fingerprint_batch,
        token_count_batch,
    )

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    score = QualityScorer()

    def prep(b: pa.Table) -> pa.Table:
        b = score(b)
        mask = pc.and_(
            pc.and_(pc.greater_equal(b["q_chars"], pa.scalar(200)),
                    pc.greater_equal(b["q_stopwords"], pa.scalar(5))),
            pc.less_equal(pc.multiply(b["q_digit"], pa.scalar(5)), b["q_chars"]),
        )
        b = token_count_batch(fingerprint_batch(b.filter(mask)))
        return b.select(["doc_id", "fingerprint", "token_count"])

    fp = ds.map_batches(prep, batch_format="pyarrow")
    kept = bucketed_group_apply(
        fp, "fingerprint",
        lambda g: g.groupby("fingerprint", as_index=False, sort=False)[
            ["doc_id", "token_count"]
        ].min(),
    )
    total = kept.map_batches(
        lambda b: pa.table({"t": pa.array(
            [int(pc.sum(b["token_count"]).as_py() or 0) + b.num_rows], pa.int64()
        )}),
        batch_format="pyarrow",
    ).aggregate(Sum("t", alias_name="total_tokens"))
    return pa.table(
        {"total_tokens": pa.array([int(total["total_tokens"] or 0)], pa.int64())}
    )


def q_cosine_near_dups(sf_dir: str):
    """Exact embedding-cosine near-dup pairs (SQL-checkable)."""
    from colonnade_ray.functions.similarity import cosine_pairs_exact

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_pairs_exact(emb, threshold=0.42)


def q_cosine_near_dups_blocked(sf_dir: str):
    """Blocked exact-cosine near-dup pairs — the low-threshold scale
    path (round-4): block-pair BLAS tasks over spilled (id, embedding)
    parquet blocks, per-task temporaries chunked to ~32 MB.  Exact by
    construction, so it shares the all-pairs SQL oracle; at 20k x 64
    it replaces a 30+ min exploded-candidate LSH run with ~37 s."""
    from colonnade_ray.functions.similarity import cosine_pairs_blocked

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    return cosine_pairs_blocked(emb, threshold=0.42, block_rows=512)


def q_embedding_lsh_candidates(sf_dir: str):
    """Candidate-recall membership check (round-2 verdict ask): every
    TRUE near-dup pair must appear in the LSH candidate set.  Ray side
    = exact pairs SEMI-JOINed against the candidates (one shuffle on
    pair keys, nothing on the driver); oracle = the exact all-pairs
    SQL.  Green iff candidates ⊇ true pairs — a superset/recall oracle
    on the raw candidate stage, upstream of the cosine verify that
    embedding_near_dups_lsh checks."""
    import pandas as pd

    from colonnade_ray.functions.bucketing import bucketed_group_apply
    from colonnade_ray.functions.similarity import (
        cosine_pairs_exact,
        embedding_near_dup_candidates,
    )

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    # recall-shaped bands (same guarantee regime as near_dups_lsh:
    # miss ~1e-14 at cos 0.41); the pruning-shaped parameterization is
    # covered by tests/test_similarity.py
    cands = embedding_near_dup_candidates(emb, bands=64, bits_per_band=2)
    exact = cosine_pairs_exact(emb, threshold=0.42)
    tagged = cands.map_batches(
        lambda b: pa.table(
            {"id_a": b["id_a"], "id_b": b["id_b"],
             "is_exact": pa.array(np.zeros(b.num_rows, bool))}
        ),
        batch_format="pyarrow",
    ).union(
        exact.map_batches(
            lambda b: pa.table(
                {"id_a": b["id_a"], "id_b": b["id_b"],
                 "is_exact": pa.array(np.ones(b.num_rows, bool))}
            ),
            batch_format="pyarrow",
        )
    )

    def keep_exact_in_cands(g: pd.DataFrame) -> pd.DataFrame:
        gb = g.groupby(["id_a", "id_b"], as_index=False, sort=False).agg(
            n=("is_exact", "size"), ex=("is_exact", "any")
        )
        hit = gb[gb["ex"] & (gb["n"] > 1)]
        return hit[["id_a", "id_b"]]

    out = bucketed_group_apply(
        tagged.map_batches(
            lambda b: b.append_column(
                "__pair",
                pc.add(
                    pc.multiply(pc.cast(b["id_a"], pa.int64()), pa.scalar(1 << 32, pa.int64())),
                    pc.cast(b["id_b"], pa.int64()),
                ),
            ),
            batch_format="pyarrow",
        ),
        "__pair",
        keep_exact_in_cands,
    )
    return out.sort(["id_a", "id_b"])


def q_dup_groups(sf_dir: str):
    """Connected components over near-dup pairs (rows-only)."""
    from colonnade_ray.functions.dedup import dup_groups, near_dup_pairs

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    pairs = near_dup_pairs(ds, threshold=0.8)
    return dup_groups(pairs.select_columns(["id_a", "id_b"]))


def q_dedup_keep(sf_dir: str):
    """The deduplicated corpus itself: docs in no near-dup component
    plus each component's min-id representative, via ONE bucketed
    anti-join exchange (no broadcast of the drop set)."""
    from colonnade_ray.functions.dedup import dedup_keep, near_dup_pairs

    ds = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    pairs = near_dup_pairs(
        ds.select_columns(["doc_id", "text"]), threshold=0.8
    )
    kept = dedup_keep(
        ds.select_columns(["doc_id", "source"]),
        pairs.select_columns(["id_a", "id_b"]),
        carry=[("source", pa.string())],
    )
    return kept.sort("doc_id")


def q_shuffle_export(sf_dir: str):
    """Deterministic seeded global shuffle into training shards:
    (doc_id, shard, pos) as a pure function of (seed, id).  The md5
    key mode is the SQL-twin; production default is vectorized
    splitmix64 (pytest-verified same permutation semantics)."""
    from colonnade_ray.functions.sampling import shuffle_export

    ds = _tbl(sf_dir, "documents", ["doc_id"])
    return shuffle_export(ds, seed=7, num_shards=8, hash_fn="md5").sort(
        ["shard", "pos"]
    )


def q_bigram_topk(sf_dir: str):
    """Distributed word-bigram counting: per-batch partial counts,
    one small groupby — the n-gram statistics behind contamination /
    repetition / LM-overlap analyses."""
    from colonnade_ray.functions.text import ngram_freq

    ds = _tbl(sf_dir, "documents", ["text"])
    return ngram_freq(ds, n=2, k=40)


def q_tfidf_topk(sf_dir: str):
    """Top-3 distinctive terms per doc by linear-idf tf-idf (the
    score's one multiply + one IEEE division is bit-identical in
    numpy and DuckDB, making the full ranking hash-checkable)."""
    from colonnade_ray.functions.text import tfidf_topk

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_topk(ds, k=3).sort(["doc_id", "word"])


def q_quality_percentile_gate(sf_dir: str):
    """Composed curation gate: per-SOURCE median q_chars (exact
    percentile_disc, broadcast small side) -> keep docs at/above their
    own source's median -> per-source kept counts."""
    from ray.data.aggregate import Count

    from colonnade_ray.functions.curation import percentile_gate
    from colonnade_ray.functions.text import QualityScorer
    from colonnade_ray.util import default_concurrency

    ds = _tbl(sf_dir, "documents", ["doc_id", "text", "source"])
    scored = ds.map_batches(
        QualityScorer, batch_format="pyarrow", concurrency=default_concurrency()
    ).select_columns(["doc_id", "source", "q_chars"])
    gated = percentile_gate(scored, "source", "q_chars", q=0.5)
    return gated.groupby("source").aggregate(Count(alias_name="n_kept")) \
        .sort("source")


def q_dup_gram_stats(sf_dir: str):
    """Span-dedup counting core (Lee et al. 2022): per doc, how many
    k-gram positions carry a gram occurring >1 time corpus-wide."""
    from colonnade_ray.functions.dedup import dup_gram_stats

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return dup_gram_stats(ds, k=5, hash_fn="md5").sort("doc_id")


def q_left_join_histogram(sf_dir: str):
    """TPC-H Q13 shape: per-customer event count INCLUDING the
    zero-event customers (left join with default via keyed_attach's
    fill), then the count-of-counts histogram."""
    from ray.data.aggregate import Count

    from colonnade_ray.functions.relational import keyed_attach

    cust = _tbl(sf_dir, "customer", ["c_custkey"])
    ev = _tbl(sf_dir, "events", ["user_id"])
    counts = ev.groupby("user_id").aggregate(Count(alias_name="n_events"))
    per_cust = keyed_attach(
        cust, counts, key_from="c_custkey", out_col="n_events",
        carry=[("c_custkey", pa.int64())], id_col="user_id",
        text_col="n_events", fill=0,
    )
    return per_cust.groupby("n_events").aggregate(
        Count(alias_name="n_cust")
    ).sort("n_events")


def q_hll_vocab(sf_dir: str):
    """Per-source HyperLogLog registers over distinct words: the
    sketch STATE is deterministic given the md5-twin hash, so the full
    register table hash-matches a DuckDB bit-op twin (the derived
    estimate is pytest-checked against exact counts)."""
    from colonnade_ray.functions.sketches import hll_word_registers

    ds = _tbl(sf_dir, "documents", ["source", "text"])
    return hll_word_registers(ds).sort(["source", "reg"])


def q_cms_word_counts(sf_dir: str):
    """Count-Min sketch registers over corpus word occurrences: like
    hll_vocab, the sketch STATE is a pure function of the md5-twin
    hash, so the full (d, j, c) counter table hash-matches DuckDB;
    the min-over-rows point-estimate property is pytest-checked."""
    from colonnade_ray.functions.sketches import cms_word_registers

    ds = _tbl(sf_dir, "documents", ["text"])
    return cms_word_registers(ds).sort(["d", "j"])


def q_bloom_bits(sf_dir: str):
    """Bloom filter STATE (sorted set-bit positions) over the distinct
    words of the doc_id % 97 == 0 reference slice — the membership
    member of the sketch family; state is a pure function of the
    md5-twin hash so the full bit set hash-matches DuckDB (the
    no-false-negative / FPR guarantees are pytest-checked)."""
    from colonnade_ray.functions.sketches import bloom_word_bits

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0)),
        batch_format="pyarrow")
    return bloom_word_bits(ds)


def q_bloom_probe(sf_dir: str):
    """Probe every document against the bloom_bits filter: per doc,
    distinct words and how many probe positive (the cheap membership
    pre-filter ahead of exact contamination joins).  Probing is a
    broadcast 512-byte mask + one vectorized row pass — no shuffle."""
    from colonnade_ray.functions.sketches import (
        bloom_bitmask, bloom_probe, bloom_word_bits,
    )

    seen = _tbl(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pa.array(
            b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0)),
        batch_format="pyarrow")
    mask = bloom_bitmask(bloom_word_bits(seen).to_pandas())
    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return bloom_probe(ds, mask).sort("doc_id")


def q_posting_lists(sf_dir: str):
    """Inverted index build: word -> (df, sorted posting list).  The
    exchange ships DISTINCT (word, doc) pairs only; posting
    construction is parallel across word buckets (the shard layout a
    100-TB index build writes)."""
    from colonnade_ray.functions.text import posting_lists

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return posting_lists(ds, min_df=2)


def q_chunk_sequences(sf_dir: str):
    """Context-window chunking layout: split tokenized docs into
    512-token windows every 384 tokens (128-token overlap).  The
    window geometry (doc, ordinal, start, length, source) is
    SQL-exact; token contents are pinned by pytest slices +
    the n_tok formula itself."""
    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.functions.sequences import chunk_sequences

    ch = chunk_sequences(tokenized_documents(sf_dir), max_len=512, stride=384)

    def layout(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "win_idx": b["win_idx"],
            "start": b["start"],
            "n_tok": b["n_tok"],
            "source": b["source"],
        })

    return ch.map_batches(layout, batch_format="pyarrow").sort(["doc_id", "win_idx"])


def q_dedup_spans(sf_dir: str):
    """Span-level dedup rewrite (Lee et al.): word positions covered
    by a 5-gram whose canonical (min (doc_id, pos)) occurrence is
    elsewhere get removed; outputs the cleaned text per doc."""
    from colonnade_ray.functions.dedup import dedup_spans

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return dedup_spans(ds, hash_fn="md5").sort("doc_id")


def q_lm_commonness(sf_dir: str):
    """Perplexity-proxy quality score: mean corpus bigram frequency
    per document (integer sums + ONE IEEE division -> bit-exact SQL
    twin)."""
    from colonnade_ray.functions.text import lm_commonness

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return lm_commonness(ds).sort("doc_id")


def q_rollup_counts(sf_dir: str):
    """GROUP BY ROLLUP(source, lang): one distributed fine aggregate,
    coarser levels derived from the groups-sized result."""
    from colonnade_ray.functions.relational import rollup_counts

    ds = _tbl(sf_dir, "documents", ["source", "lang"])
    return rollup_counts(ds, ["source", "lang"])


def q_funnel(sf_dir: str):
    """Sequential view->click->purchase funnel over events: rows are
    type-filtered + 3-column-projected before the one user-bucketed
    exchange; per-stage thresholds are vectorized merges in-bucket."""
    from colonnade_ray.functions.relational import funnel_counts

    ds = _tbl(sf_dir, "events", ["user_id", "event_type", "ts"])
    return funnel_counts(ds, ["view", "click", "purchase"])


def q_retention(sf_dir: str):
    """Weekly retention triangle: signup-week cohorts x week offsets,
    integer epoch-week arithmetic (bit-identical in numpy and SQL)."""
    from colonnade_ray.functions.relational import retention_counts

    ds = _tbl(sf_dir, "events", ["user_id", "event_type", "ts"])
    return retention_counts(ds)


def q_cube_counts(sf_dir: str):
    """GROUP BY CUBE(source, lang): every dim subset derived from the
    same one distributed fine aggregate (rollup_counts' optimization
    over the full 2^|dims| lattice)."""
    from colonnade_ray.functions.relational import cube_counts

    ds = _tbl(sf_dir, "documents", ["source", "lang"])
    return cube_counts(ds, ["source", "lang"])


def q_group_moments(sf_dir: str):
    """Algebraic aggregate partials: per-flag lineitem quantity moments
    (n, sum, sum of squares) — the mergeable-statistics shape behind
    variance/corr, integer-exact so the SQL twin hashes identically."""
    from ray.data.aggregate import Count, Sum

    ds = _tbl(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        return pa.table({
            "l_returnflag": b["l_returnflag"],
            "q": q,
            "q2": pc.multiply(q, q),
        })

    keyed = ds.map_batches(partial, batch_format="pyarrow")
    return keyed.groupby("l_returnflag").aggregate(
        Count(alias_name="n"),
        Sum("q", alias_name="sum_q"),
        Sum("q2", alias_name="sum_q2"),
    ).sort("l_returnflag")


def q_build_vocab(sf_dir: str):
    """Frequency-ranked vocabulary (the build step ahead of the
    remap_tokens broadcast LUT); contiguous ids by (count desc, word)."""
    from colonnade_ray.functions.text import build_vocab

    ds = _tbl(sf_dir, "documents", ["text"])
    return build_vocab(ds)


def q_json_props_stats(sf_dir: str):
    """Typed extraction from the events JSON props bag (vectorized
    regex, regexp_extract twin semantics) folded into per-type sums."""
    from ray.data.aggregate import Count, Sum

    from colonnade_ray.functions.structured import extract_json_int

    ds = _tbl(sf_dir, "events", ["event_type", "props"])
    withk = extract_json_int(ds, col="props", field="k", out_col="k")
    return withk.groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("k", alias_name="sum_k"),
    ).sort("event_type")


def q_pivot_lang_counts(sf_dir: str):
    """Long->wide pivot: source x lang document-count matrix (one
    bounded groupby exchange + a groups-sized reshape block)."""
    from colonnade_ray.functions.structured import pivot_counts

    ds = _tbl(sf_dir, "documents", ["source", "lang"])
    return pivot_counts(ds, "source", "lang")


def q_vocab_drift(sf_dir: str):
    """Keyness between the src0 slice and the rest of the corpus:
    integer cross-product score |n_a*N_b - n_b*N_a| — exact int64,
    ranking AND score hash-match SQL."""
    from colonnade_ray.functions.text import vocab_drift

    ds = _tbl(sf_dir, "documents", ["text", "source"])
    return vocab_drift(ds, "source", "src0", k=50, min_count=5)


def q_collocations(sf_dir: str):
    """Top collocations by lift (monotone PMI): two vocab-bounded
    count exchanges + two keyed_attach joins; score = two exact int64
    products and ONE IEEE division, so ranking AND score hash-match
    SQL (the tfidf linear-idf convention)."""
    from colonnade_ray.functions.text import collocations_topk

    ds = _tbl(sf_dir, "documents", ["text"])
    return collocations_topk(ds, k=50, min_count=5)


def q_vocab_coverage(sf_dir: str):
    """Ranked-vocabulary prefix covering 90% of token occurrences
    (the vocab-truncation costing pass): word, count, running cum."""
    from colonnade_ray.functions.text import vocab_coverage

    ds = _tbl(sf_dir, "documents", ["text"])
    return vocab_coverage(ds, coverage=0.9)


def q_bpe_pair_counts(sf_dir: str):
    """BPE iteration 0: adjacent character-pair frequencies over word
    occurrences (overlap-counted, Sennrich get_stats semantics) —
    per-batch (pair, n) partials, one small groupby exchange."""
    from colonnade_ray.functions.bpe import char_pair_counts

    ds = _tbl(sf_dir, "documents", ["text"])
    return char_pair_counts(ds, k=100)


def q_bpe_merges(sf_dir: str):
    """Learned BPE merge table (50 greedy merges over the word-type
    frequency table; deterministic lexicographic tie-break).  Fully
    oracled: the merge loop has a DuckDB recursive-CTE twin (weighted
    pair counting + leftmost-first replace over a doubled-delimiter
    segmentation rendering); the trainer is additionally hand-check +
    replay-property tested (tests/test_bpe.py)."""
    from colonnade_ray.functions.bpe import bpe_train_corpus

    ds = _tbl(sf_dir, "documents", ["text"])
    return bpe_train_corpus(ds, num_merges=50)


def q_cap_source_share(sf_dir: str):
    """Domain balancing: deterministically downsample every source
    above 3% of the corpus to ~that share (md5-keyed keep set; exact
    power-of-two threshold scaling makes the SQL twin bit-identical)."""
    from colonnade_ray.functions.sampling import cap_source_share

    ds = _tbl(sf_dir, "documents", ["doc_id", "source"])
    return cap_source_share(ds, cap_fraction=0.03, seed=9).sort("doc_id")


def q_temperature_mix(sf_dir: str):
    """Temperature source mixing at alpha=0.5: keep rate
    sqrt(n_min/n_group) per source (rarest source untouched), md5-keyed
    deterministic keep set; sqrt+division are IEEE-correctly-rounded
    in both numpy and DuckDB so the twin is bit-identical."""
    from colonnade_ray.functions.sampling import temperature_mix

    ds = _tbl(sf_dir, "documents", ["doc_id", "source"])
    return temperature_mix(ds, alpha=0.5, seed=11).sort("doc_id")


def q_pack_sequences(sf_dir: str):
    """LLM data prep: tokenize -> pack into fixed 512-token training
    examples (EOS-separated).

    SQL-oracle'd layout form (round-2 verdict ask): docs are sorted by
    doc_id and packed in one deterministic stream, so a window-function
    SQL over the documents table reproduces every example's ordinal,
    length and owning source exactly.  (The production operator stays
    chunk-local/retry-safe — pack_conservation checks that form; this
    query pins the packing MATH on a deterministic layout.)"""
    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.functions.sequences import pack_sequences

    # repartition(1) after the sort: the streaming executor does NOT
    # preserve order by default, so a large-batch bundler downstream of
    # sort can coalesce blocks out of doc_id order — one block = one
    # deterministic pack task (oracle-scale corpora only; production
    # packing is the chunk-local operator above).
    tok = (
        tokenized_documents(sf_dir)
        # HashTokenizer stringifies doc_id; sort NUMERICALLY to match
        # the SQL layout ("10" < "2" lexicographically)
        .map_batches(
            lambda b: b.set_column(
                b.column_names.index("doc_id"),
                "doc_id",
                pc.cast(b["doc_id"], pa.int64()),
            ),
            batch_format="pyarrow",
        )
        .sort("doc_id")
        .repartition(1)
    )
    packed = pack_sequences(tok, seq_len=512, batch_size=1 << 22)

    def ordinal(b: pa.Table) -> pa.Table:
        # low 31 bits of example_id = in-batch ordinal; single batch by
        # construction (batch_size >> corpus rows at oracle scale)
        rank = pc.bit_wise_and(b["example_id"], pa.scalar((1 << 31) - 1, pa.int64()))
        return pa.table({"rank": rank, "n_tok": pc.cast(b["n_tok"], pa.int64()),
                         "source": b["source"]})

    return packed.map_batches(ordinal, batch_format="pyarrow").sort("rank")


def q_jaccard_pairs_exact(sf_dir: str):
    """EXACT word-5-gram Jaccard near-dup pairs (no LSH): distinct
    shingle explode -> shingle groupby pair counts -> size attach ->
    threshold.  DuckDB oracle reproduces it with a shingle-unnest
    self-join."""
    from colonnade_ray.functions.dedup import jaccard_pairs_exact

    ds = _tbl(sf_dir, "documents", ["doc_id", "text"])
    return jaccard_pairs_exact(ds, threshold=0.8).sort(["id_a", "id_b"])


def q_pack_conservation(sf_dir: str):
    """Token-conservation invariant of sequence packing: with
    keep_remainder=True, sum of packed n_tok == sum(doc tokens) +
    one EOS per doc — SQL-checkable against the documents table."""
    from ray.data.aggregate import Sum

    from colonnade_ray.corpus import tokenized_documents
    from colonnade_ray.functions.sequences import pack_sequences

    packed = pack_sequences(tokenized_documents(sf_dir), seq_len=512,
                            keep_remainder=True)
    total = packed.aggregate(Sum("n_tok", alias_name="total_tokens"))
    return pa.table({"total_tokens": pa.array([int(total["total_tokens"])], pa.int64())})


def q_embedding_near_dups_lsh(sf_dir: str):
    """Scale-shaped near-dup pipeline with exact precision: sign-LSH
    candidates -> exact cosine verify.  Oracle = the exact all-pairs
    SQL; green iff the LSH bands recall every true pair.

    Band shape note: the synthetic corpus's near-dups sit at cos
    0.41-0.51 over a ~0.35 background, far below the cos>=0.9 regime
    where sign-LSH prunes; 64 bands x 2 bits guarantees recall
    (miss ~1e-14 at cos 0.41) at the cost of weak pruning here.  The
    pruning-shaped parameters live in embedding_lsh_candidates."""
    from colonnade_ray.functions.similarity import lsh_verified_near_dups

    emb = _tbl(sf_dir, "embeddings", ["vec_id", "embedding"])
    return lsh_verified_near_dups(emb, threshold=0.42, bands=64, bits_per_band=2)


def q_codec_selection_report(sf_dir: str):
    """A1/A4 graft: measured stats + selected codec per column chunk.

    SQL-oracle'd invariant form (round-2 verdict ask): per column the
    plan KIND (schema-driven selection), the value count, and the
    encoded-never-exceeds-raw guarantee — each independently stated in
    SQL.  The raw byte counts live in the lineage manifests and
    BENCH_r*.json."""
    from colonnade_ray.codecs import encode_column

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "lineitem.parquet"))
    rows = {"column": [], "kind": [], "n_values": [], "encoded_leq_raw": []}
    for name in t.column_names:
        payload, meta = encode_column(t[name])
        rows["column"].append(name)
        rows["kind"].append(meta["kind"])
        rows["n_values"].append(len(t[name]))
        rows["encoded_leq_raw"].append(len(payload) <= int(t[name].nbytes))
    return pa.table(
        {
            "column": pa.array(rows["column"]),
            "kind": pa.array(rows["kind"]),
            "n_values": pa.array(rows["n_values"], pa.int64()),
            "encoded_leq_raw": pa.array(rows["encoded_leq_raw"], pa.bool_()),
        }
    )


# ---------------------------------------------------------------------------
# Driver contract


def entry() -> Any:
    """Flagship pipeline on sf0.001 (driver smoke check).  The
    contract allows Dataset | DataFrame here (queries() may also
    return pyarrow) — convert the arrow result to pandas."""
    out = q_encode_roundtrip("/root/testdata/sf0.001")
    return out.to_pandas() if isinstance(out, pa.Table) else out


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "projection_revenue": q_projection_revenue,
        "filter_recent": q_filter_recent,
        "groupby_pricing": q_groupby_pricing,
        "predicated_rewrite": q_predicated_rewrite,
        "topk_orders": q_topk_orders,
        "distinct_sources": q_distinct_sources,
        "sectioned_doc_stats": q_sectioned_doc_stats,
        "token_count": q_token_count,
        "quality_scores": q_quality_scores,
        "lang_share": q_lang_share,
        "events_hourly": q_events_hourly,
        "broadcast_join": q_broadcast_join,
        "hash_join": q_hash_join,
        "left_join_histogram": q_left_join_histogram,
        "rollup_counts": q_rollup_counts,
        "cube_counts": q_cube_counts,
        "funnel": q_funnel,
        "retention": q_retention,
        "local_supplier_volume": q_local_supplier_volume,
        "curation_v2": q_curation_v2,
        "active_customers": q_active_customers,
        "encoded_count_where": q_encoded_count_where,
        "encoded_count_where_or": q_encoded_count_where_or,
        "encoded_quantiles": q_encoded_quantiles,
        "encoded_grouped_quantiles": q_encoded_grouped_quantiles,
        "encoded_zorder_pushdown": q_encoded_zorder_pushdown,
        "encoded_topk": q_encoded_topk,
        "approx_distinct": q_approx_distinct,
        "encoded_group_aggs": q_encoded_group_aggs,
        "encoded_prefix_count": q_encoded_prefix_count,
        "encoded_grouped_topk": q_encoded_grouped_topk,
        "encoded_summary": q_encoded_summary,
        "delete_where_count": q_delete_where_count,
        "evolve_add_column": q_evolve_add_column,
        "replace_where_rewrite": q_replace_where_rewrite,
        "merge_rows_upsert": q_merge_rows_upsert,
        "snapshot_time_travel": q_snapshot_time_travel,
        "restore_snapshot": q_restore_snapshot,
        "cdc_apply_changes": q_cdc_apply_changes,
        "bloom_point_lookup": q_bloom_point_lookup,
        "winsorize": q_winsorize,
        "mode_lang": q_mode_lang,
        "group_moments": q_group_moments,
        "build_vocab": q_build_vocab,
        "vocab_coverage": q_vocab_coverage,
        "collocations": q_collocations,
        "vocab_drift": q_vocab_drift,
        "json_props_stats": q_json_props_stats,
        "pivot_lang_counts": q_pivot_lang_counts,
        "bpe_pair_counts": q_bpe_pair_counts,
        "bpe_merges": q_bpe_merges,
        "cap_source_share": q_cap_source_share,
        "temperature_mix": q_temperature_mix,
        "sessions": q_sessions,
        "asof_clicks": q_asof_clicks,
        "range_join_events": q_range_join_events,
        "dedup_exact": q_dedup_exact,
        "similarity_topk": q_similarity_topk,
        "cosine_near_dups": q_cosine_near_dups,
        "cosine_near_dups_blocked": q_cosine_near_dups_blocked,
        "jaccard_pairs_exact": q_jaccard_pairs_exact,
        "pack_conservation": q_pack_conservation,
        "embedding_near_dups_lsh": q_embedding_near_dups_lsh,
        "ann_ivf_exhaustive": q_ann_ivf_exhaustive,
        "ann_ivf_index": q_ann_ivf_index,
        "word_freq_topk": q_word_freq_topk,
        "events_sliding": q_events_sliding,
        "shipping_priority": q_shipping_priority,
        "user_event_seq": q_user_event_seq,
        "grouped_quantiles": q_grouped_quantiles,
        "rolling_value": q_rolling_value,
        "contamination": q_contamination,
        "repetition": q_repetition,
        "redact": q_redact,
        "price_bands": q_price_bands,
        "grouped_topk": q_grouped_topk,
        "stratified_sample": q_stratified_sample,
        "doc_sample": q_doc_sample,
        "quality_filter": q_quality_filter,
        "truncate_conservation": q_truncate_conservation,
        "curation_pipeline": q_curation_pipeline,
        "near_dup_pairs": q_near_dup_pairs,
        "dup_groups": q_dup_groups,
        "dedup_keep": q_dedup_keep,
        "dup_gram_stats": q_dup_gram_stats,
        "shuffle_export": q_shuffle_export,
        "bigram_topk": q_bigram_topk,
        "tfidf_topk": q_tfidf_topk,
        "quality_percentile_gate": q_quality_percentile_gate,
        "hll_vocab": q_hll_vocab,
        "cms_word_counts": q_cms_word_counts,
        "bloom_bits": q_bloom_bits,
        "bloom_probe": q_bloom_probe,
        "posting_lists": q_posting_lists,
        "lm_commonness": q_lm_commonness,
        "dedup_spans": q_dedup_spans,
        "chunk_sequences": q_chunk_sequences,
        "winnow_gram_counts": q_winnow_gram_counts,
        "encode_roundtrip": q_encode_roundtrip,
        "embedding_lsh_candidates": q_embedding_lsh_candidates,
        "pack_sequences": q_pack_sequences,
        "codec_selection_report": q_codec_selection_report,
        "simhash_signatures": q_simhash,
        "simhash_near_dups": q_simhash_near_dups,
        "winnow_overlap": q_winnow_overlap,
        # rows-only (intrinsically approximate: pruned IVF probe)
        "ann_ivf_topk": q_ann_ivf_topk,
        # rows-only (media decode has no SQL twin)
        "media_features": q_media_features,
    }


_STOP_SQL = "the|a|an|and|or|of|to|in|is|are|was|for|on|with|as|by|at|from|this|that"

# Full SQL SimHash twin (validated bit-identical to the engine's md5
# variant): word hash = first 8 bytes of md5 (big-endian), tf-weighted
# +-1 votes per bit, sign -> signature, uint64 -> int64 view.  Empty /
# whitespace-only docs sign to 0 (matching the vectorized vote code).
_SIMHASH_CTES = (
    "toks AS (SELECT doc_id, unnest(str_split_regex(trim(text), '\\s+')) AS tok "
    "FROM documents WHERE len(trim(COALESCE(text,''))) > 0), "
    "th AS (SELECT doc_id, ('0x' || substr(md5(tok), 1, 16))::UBIGINT AS h FROM toks), "
    "bits AS (SELECT doc_id, b, "
    "SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v "
    "FROM th, (SELECT unnest(range(0, 64)) AS b) GROUP BY doc_id, b), "
    "rawsig AS (SELECT doc_id, SUM(CASE WHEN v > 0 THEN CAST(1 AS HUGEINT) << b "
    "ELSE CAST(0 AS HUGEINT) END) AS s FROM bits GROUP BY doc_id), "
    "sig AS (SELECT d.doc_id, CAST(CASE WHEN s IS NULL THEN 0 "
    "WHEN s >= CAST(1 AS HUGEINT) << 63 THEN s - (CAST(1 AS HUGEINT) << 64) "
    "ELSE s END AS BIGINT) AS simhash "
    "FROM documents d LEFT JOIN rawsig USING (doc_id))"
)

# Full SQL winnowing twin (k=5, w=4; validated pair-for-pair against
# the engine's md5 variant): md5 word hashes folded into gram hashes
# by the engine's FNV prime mod 2^64 (HUGEINT arithmetic), then the
# Schleimer-Wilkerson-Aiken selection — rightmost minimum of every
# 4-gram window via min over a (hash * 2^32 + (2^32-1-pos)) composite
# key, leftmost single minimum for docs with fewer than 4 grams, and
# docs with 0 < words < 5 folding to ONE whole-doc gram (matching
# _flat_shingles' short-doc semantics, dedup.py).
# words + per-position gram-hash CTEs (the md5/FNV gram twin), shared
# by the winnowing chain and dup_gram_stats
_GRAMS_CTES = (
    "words AS (SELECT doc_id, str_split_regex(trim(text), '\\s+') AS ws "
    "FROM documents WHERE len(trim(COALESCE(text, ''))) > 0), "
    "grams AS (SELECT doc_id, CAST(i AS HUGEINT) AS gpos, "
    "CAST(greatest(len(ws) - 4, 1) AS HUGEINT) AS ng, "
    "list_reduce(list_transform(ws[i:least(i + 4, len(ws))], "
    "w -> CAST(('0x' || substr(md5(w), 1, 16))::UBIGINT AS HUGEINT)), "
    "(a, b) -> (a * 1099511628211 + b) % 18446744073709551616) AS gh "
    "FROM (SELECT doc_id, ws, "
    "unnest(range(1, greatest(len(ws) - 4, 1) + 1)) AS i FROM words))"
)

_WINNOW_CTES = (
    _GRAMS_CTES + ", "
    "wsel AS (SELECT doc_id, wkey // 4294967296 AS gh FROM ("
    "SELECT doc_id, gpos, ng, "
    "min(gh * 4294967296 + (4294967295 - gpos)) OVER "
    "(PARTITION BY doc_id ORDER BY gpos "
    "ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wkey "
    "FROM grams WHERE ng >= 4) WHERE gpos <= ng - 3), "
    "ssel AS (SELECT doc_id, MIN(gh * 4294967296 + gpos) // 4294967296 AS gh "
    "FROM grams WHERE ng < 4 GROUP BY doc_id), "
    "wfp AS (SELECT DISTINCT doc_id, gh "
    "FROM (SELECT * FROM wsel UNION ALL SELECT * FROM ssel))"
)

# Shared CTE chain: exact word-5-gram Jaccard near-dup pairs at 0.8
# (docs with 1-4 words fold to one whole-doc gram, matching the
# engine's shingling).  Reused by jaccard_pairs_exact, near_dup_pairs
# (LSH candidates + exact verify must equal the exact pair set) and
# dup_groups (recursive transitive closure over the same pairs).
_SHINGLE_CTES = (
    "d AS (SELECT doc_id, str_split_regex(trim(text), '\\s+') AS ws "
    "FROM documents WHERE len(trim(text)) > 0), "
    "g AS (SELECT doc_id, array_to_string(ws[i:i+4], ' ') AS gram "
    "FROM d, UNNEST(range(1, len(ws) - 3)) AS t(i) WHERE len(ws) >= 5 "
    "UNION ALL SELECT doc_id, array_to_string(ws, ' ') FROM d "
    "WHERE len(ws) BETWEEN 1 AND 4), "
    "gs AS (SELECT DISTINCT doc_id, gram FROM g)"
)

_JACCARD_CTES = (
    _SHINGLE_CTES + ", "
    "sz AS (SELECT doc_id, COUNT(*) AS n FROM gs GROUP BY doc_id), "
    "inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS c "
    "FROM gs a JOIN gs b ON a.gram = b.gram AND a.doc_id < b.doc_id "
    "GROUP BY a.doc_id, b.doc_id), "
    "pairs AS (SELECT id_a, id_b FROM inter "
    "JOIN sz sa ON sa.doc_id = id_a JOIN sz sb ON sb.doc_id = id_b "
    "WHERE c >= 0.8 * (sa.n + sb.n - c))"
)


def oracle_sql() -> dict[str, str]:
    return {
        "projection_revenue": (
            "SELECT l_orderkey, l_linenumber, "
            "l_extendedprice * (1 - l_discount) AS revenue FROM lineitem"
        ),
        "filter_recent": (
            "SELECT l_orderkey, l_linenumber, l_shipdate, l_discount, l_quantity "
            "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1995-09-01' "
            "AND l_discount > 0.05"
        ),
        # NB: DuckDB SUM(BIGINT) returns HUGEINT (int128) — every
        # aggregate sum is CAST back to BIGINT so the driver hashes the
        # same int64 values the Ray side emits (round-1 hash_match fix).
        "groupby_pricing": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
            "CAST(SUM(CAST(FLOOR(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) "
            "AS sum_price_cents, "
            "COUNT(*) AS n_rows "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "predicated_rewrite": (
            "SELECT o_orderkey, CASE WHEN o_totalprice > 150000 THEN 'HIGH' "
            "ELSE o_orderpriority END AS priority_class FROM orders"
        ),
        "topk_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
        ),
        "distinct_sources": "SELECT DISTINCT source FROM documents",
        "sectioned_doc_stats": (
            "SELECT source, COUNT(*) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM documents GROUP BY source"
        ),
        "token_count": (
            "SELECT doc_id, CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) "
            "AS token_count FROM documents"
        ),
        "quality_scores": (
            "SELECT doc_id, "
            "CAST(length(text) AS BIGINT) AS q_chars, "
            "CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS q_alpha, "
            "CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS q_digit, "
            "CAST(len(regexp_extract_all(text, '[ ]')) AS BIGINT) AS q_space, "
            "CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS q_punct, "
            f"CAST(len(regexp_extract_all(text, '\\b({_STOP_SQL})\\b')) AS BIGINT) "
            "AS q_stopwords FROM documents"
        ),
        "lang_share": "SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY lang",
        "events_hourly": (
            "SELECT event_type, date_trunc('hour', ts) AS hour_ts, "
            "COUNT(*) AS n_events FROM events GROUP BY event_type, date_trunc('hour', ts)"
        ),
        "broadcast_join": (
            "SELECT c.c_mktsegment, COUNT(*) AS n_orders, "
            "CAST(SUM(CAST(FLOOR(o.o_totalprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) "
            "AS sum_cents "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
            "GROUP BY c.c_mktsegment"
        ),
        "hash_join": (
            "SELECT o.o_orderpriority, COUNT(*) AS n_items, "
            "CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty "
            "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "GROUP BY o.o_orderpriority"
        ),
        "sessions": (
            "WITH d AS (SELECT user_id, ts, "
            "CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL "
            "OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "THEN 1 ELSE 0 END AS is_new FROM events), "
            "s AS (SELECT user_id, ts, CAST(SUM(is_new) OVER (PARTITION BY user_id "
            "ORDER BY ts ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id FROM d) "
            "SELECT user_id, session_id, COUNT(*) AS n_events, MIN(ts) AS session_start "
            "FROM s GROUP BY user_id, session_id"
        ),
        "asof_clicks": (
            "SELECT p.event_id AS purchase_id, p.user_id, c.event_id AS click_id "
            "FROM (SELECT * FROM events WHERE event_type='purchase') p "
            "ASOF LEFT JOIN (SELECT * FROM events WHERE event_type='click') c "
            "ON p.user_id = c.user_id AND p.ts >= c.ts"
        ),
        "range_join_events": (
            "SELECT e.event_id, e.event_type, e.user_id, w.event_id AS window_id "
            "FROM events e JOIN events w ON e.user_id = w.user_id "
            "AND w.event_type = 'purchase' "
            "AND e.ts >= w.ts AND e.ts < w.ts + INTERVAL 2 HOUR "
            "AND e.event_id <> w.event_id"
        ),
        "dedup_exact": "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text",
        "similarity_topk": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
            "WHERE vec_id < 3), "
            "s AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(q.qe, e.embedding) AS score "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) "
            "AS rank FROM s) "
            "SELECT query_id, vec_id, rank FROM r WHERE rank <= 5"
        ),
        "cosine_near_dups": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42"
        ),
        "embedding_near_dups_lsh": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42"
        ),
        "cosine_near_dups_blocked": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42"
        ),
        "pack_conservation": (
            "SELECT CAST(SUM(len(regexp_extract_all(text, '[A-Za-z0-9]+'))) "
            "+ COUNT(*) AS BIGINT) AS total_tokens FROM documents"
        ),
        # decode(encode(corpus)) == corpus, externally pinned: rows and
        # token totals recomputed from raw text, roundtrip_match must
        # be TRUE (propIsoStream analog, siphon/test/Test.hs:147-177)
        "encode_roundtrip": (
            "SELECT COUNT(*) AS n_rows, "
            "CAST(COALESCE(SUM(len(regexp_extract_all(text, '[A-Za-z0-9]+'))), 0) "
            "AS BIGINT) AS n_tokens, TRUE AS roundtrip_match FROM documents"
        ),
        # recall-superset oracle: every exact near-dup pair must appear
        # in the LSH candidate set, so exact-pairs SEMI JOIN candidates
        # == exact pairs (a candidate miss shows as a missing row)
        "embedding_lsh_candidates": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.42 "
            "ORDER BY id_a, id_b"
        ),
        # deterministic-layout packing: docs ordered by doc_id, each
        # contributing (words + 1 EOS) stream slots, re-sliced into
        # 512-token examples; rank/length/owning-source of every
        # example reproduced with window cumsums
        "pack_sequences": (
            "WITH docs AS (SELECT doc_id, source, "
            "len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n FROM documents), "
            "cum AS (SELECT doc_id, source, n, "
            "CAST(COALESCE(SUM(n + 1) OVER (ORDER BY doc_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s0, "
            "CAST(SUM(n + 1) OVER (ORDER BY doc_id) AS BIGINT) AS s1 FROM docs), "
            "ex AS (SELECT CAST(unnest(range(0, "
            "(SELECT CAST(SUM(n + 1) AS BIGINT) // 512 FROM docs))) AS BIGINT) AS rank) "
            "SELECT e.rank, CAST(512 AS BIGINT) AS n_tok, c.source "
            "FROM ex e JOIN cum c ON c.s0 <= e.rank * 512 AND e.rank * 512 < c.s1 "
            "ORDER BY e.rank"
        ),
        # every signature bit recomputed in SQL (md5 word-hash twin)
        "simhash_signatures": (
            f"WITH {_SIMHASH_CTES} SELECT doc_id, simhash FROM sig"
        ),
        # banding recall + popcount verify vs an all-pairs SQL scan
        "simhash_near_dups": (
            f"WITH {_SIMHASH_CTES} "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming "
            "FROM sig a JOIN sig b ON a.doc_id < b.doc_id "
            "WHERE bit_count(xor(a.simhash, b.simhash)) <= 3 "
            "ORDER BY id_a, id_b"
        ),
        # schema-driven codec-plan selection + the encoded<=raw
        # guarantee, stated independently of the engine
        "codec_selection_report": (
            "SELECT v.column_name AS \"column\", v.kind, "
            "(SELECT COUNT(*) FROM lineitem) AS n_values, TRUE AS encoded_leq_raw "
            "FROM (VALUES "
            "('l_orderkey', 'primitive'), ('l_partkey', 'primitive'), "
            "('l_suppkey', 'primitive'), ('l_linenumber', 'primitive'), "
            "('l_quantity', 'primitive'), ('l_extendedprice', 'primitive'), "
            "('l_discount', 'primitive'), ('l_tax', 'primitive'), "
            "('l_returnflag', 'string'), ('l_linestatus', 'string'), "
            "('l_shipdate', 'primitive')) AS v(column_name, kind)"
        ),
        # the full winnowing selection recomputed in SQL (md5 twin):
        # pairs sharing >= 2 selected fingerprints, with counts
        "winnow_overlap": (
            f"WITH {_WINNOW_CTES} "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "CAST(COUNT(*) AS BIGINT) AS n_shared "
            "FROM wfp a JOIN wfp b ON a.gh = b.gh AND a.doc_id < b.doc_id "
            "GROUP BY 1, 2 HAVING COUNT(*) >= 2 ORDER BY id_a, id_b"
        ),
        "jaccard_pairs_exact": (
            f"WITH {_JACCARD_CTES} "
            "SELECT id_a, id_b FROM pairs ORDER BY id_a, id_b"
        ),
        # The LSH pipeline (MinHash bands -> candidates -> exact
        # Jaccard verify) must reproduce the exact pair set — a recall
        # oracle, not just a row count.
        "near_dup_pairs": (
            f"WITH {_JACCARD_CTES} "
            "SELECT id_a, id_b FROM pairs ORDER BY id_a, id_b"
        ),
        # Connected components over the same pairs: recursive
        # transitive closure; group_id = min doc id of the component.
        "dup_groups": (
            f"WITH RECURSIVE {_JACCARD_CTES}, "
            "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
            "UNION SELECT id_b, id_a FROM pairs), "
            "reach AS (SELECT a, b FROM edges "
            "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a) "
            "SELECT a AS doc_id, LEAST(a, MIN(b)) AS group_id "
            "FROM reach GROUP BY a"
        ),
        "dedup_keep": (
            f"WITH RECURSIVE {_JACCARD_CTES}, "
            "edges AS (SELECT id_a AS a, id_b AS b FROM pairs "
            "UNION SELECT id_b, id_a FROM pairs), "
            "reach AS (SELECT a, b FROM edges "
            "UNION SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a), "
            "grp AS (SELECT a AS doc_id, LEAST(a, MIN(b)) AS group_id "
            "FROM reach GROUP BY a) "
            "SELECT d.doc_id, d.source FROM documents d "
            "WHERE d.doc_id NOT IN "
            "(SELECT doc_id FROM grp WHERE doc_id <> group_id) "
            "ORDER BY d.doc_id"
        ),
        "shuffle_export": (
            "WITH h AS (SELECT doc_id, ('0x' || "
            "substr(md5('7:' || CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT AS k "
            "FROM documents) "
            "SELECT doc_id, CAST(k % 8 AS BIGINT) AS shard, "
            "CAST(row_number() OVER (PARTITION BY k % 8 ORDER BY k, doc_id) - 1 "
            "AS BIGINT) AS pos FROM h"
        ),
        # Winnowing gram machinery vs an independent SQL word count
        # (the hash/window selection itself is property-tested; this
        # pins the shingle counting all Jaccard/MinHash ops build on).
        "winnow_gram_counts": (
            "SELECT doc_id, CAST(CASE WHEN w >= 5 THEN w - 4 "
            "WHEN w > 0 THEN 1 ELSE 0 END AS BIGINT) AS n_grams FROM ("
            "SELECT doc_id, CASE WHEN len(trim(COALESCE(text, ''))) = 0 THEN 0 "
            "ELSE len(str_split_regex(trim(COALESCE(text, '')), '\\s+')) END AS w "
            "FROM documents)"
        ),
        "ann_ivf_exhaustive": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
            "WHERE vec_id < 3), "
            "s AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(q.qe, e.embedding) AS score "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) "
            "AS rank FROM s) "
            "SELECT query_id, vec_id, rank FROM r WHERE rank <= 5"
        ),
        # exhaustive probe of the materialized index == exact top-k
        "ann_ivf_index": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings "
            "WHERE vec_id < 3), "
            "s AS (SELECT q.query_id, e.vec_id, "
            "list_cosine_similarity(q.qe, e.embedding) AS score "
            "FROM q CROSS JOIN embeddings e), "
            "r AS (SELECT query_id, vec_id, "
            "row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) "
            "AS rank FROM s) "
            "SELECT query_id, vec_id, rank FROM r WHERE rank <= 5"
        ),
        "word_freq_topk": (
            "SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word "
            "FROM documents) GROUP BY word ORDER BY n DESC, word LIMIT 50"
        ),
        "bigram_topk": (
            "WITH a AS (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ws "
            "FROM documents), "
            "b AS (SELECT ws, unnest(range(1, len(ws))) AS i FROM a), "
            "g AS (SELECT ws[i] || ' ' || ws[i+1] AS gram FROM b) "
            "SELECT gram, CAST(COUNT(*) AS BIGINT) AS n FROM g "
            "GROUP BY gram ORDER BY n DESC, gram LIMIT 40"
        ),
        "tfidf_topk": (
            "WITH tc AS (SELECT doc_id, word, CAST(COUNT(*) AS BIGINT) AS tf "
            "FROM (SELECT doc_id, unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word FROM documents) GROUP BY doc_id, word), "
            "dfq AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS df FROM tc "
            "GROUP BY word), "
            "nq AS (SELECT COUNT(*) AS nn FROM documents), "
            "s AS (SELECT doc_id, word, tf, df, "
            "CAST(tf * nn AS DOUBLE) / df AS score "
            "FROM tc JOIN dfq USING (word) CROSS JOIN nq), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, word) AS rk FROM s) "
            "SELECT doc_id, word, tf, df, score FROM r WHERE rk <= 3"
        ),
        "quality_percentile_gate": (
            "WITH s AS (SELECT doc_id, source, "
            "CAST(length(COALESCE(text, '')) AS BIGINT) AS q_chars "
            "FROM documents), "
            "m AS (SELECT source, percentile_disc(0.5) WITHIN GROUP "
            "(ORDER BY q_chars) AS med FROM s GROUP BY source) "
            "SELECT s.source, CAST(COUNT(*) AS BIGINT) AS n_kept "
            "FROM s JOIN m USING (source) WHERE s.q_chars >= m.med "
            "GROUP BY s.source ORDER BY s.source"
        ),
        "dup_gram_stats": (
            f"WITH {_GRAMS_CTES}, "
            "tot AS (SELECT gh, COUNT(*) AS c FROM grams GROUP BY gh) "
            "SELECT g.doc_id, "
            "CAST(SUM(CASE WHEN t.c > 1 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_dup_grams, CAST(COUNT(*) AS BIGINT) AS n_grams "
            "FROM grams g JOIN tot t USING (gh) "
            "GROUP BY g.doc_id ORDER BY g.doc_id"
        ),
        "left_join_histogram": (
            "WITH ec AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n "
            "FROM events GROUP BY user_id), "
            "cc AS (SELECT c.c_custkey, COALESCE(ec.n, 0) AS n_events "
            "FROM customer c LEFT JOIN ec ON ec.user_id = c.c_custkey) "
            "SELECT n_events, CAST(COUNT(*) AS BIGINT) AS n_cust FROM cc "
            "GROUP BY n_events ORDER BY n_events"
        ),
        "hll_vocab": (
            "WITH w AS (SELECT DISTINCT source, word FROM ("
            "SELECT source, unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word FROM documents)), "
            "h AS (SELECT source, "
            "('0x' || substr(md5(word), 1, 16))::UBIGINT AS hv FROM w), "
            "rr AS (SELECT source, CAST(hv >> 58 AS BIGINT) AS reg, "
            "CASE WHEN (hv & 288230376151711743) = 0 THEN 59 "
            "ELSE 58 - length(bin(hv & 288230376151711743)) + 1 END AS rho "
            "FROM h) "
            "SELECT source, reg, CAST(MAX(rho) AS BIGINT) AS r FROM rr "
            "GROUP BY source, reg ORDER BY source, reg"
        ),
        "chunk_sequences": (
            "WITH docs AS (SELECT doc_id, source, "
            "len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n "
            "FROM documents), "
            "w AS (SELECT doc_id, source, n, "
            "unnest(range(0, (n + 383) // 384)) AS win_idx "
            "FROM docs WHERE n > 0) "
            "SELECT doc_id, CAST(win_idx AS BIGINT) AS win_idx, "
            "CAST(win_idx * 384 AS BIGINT) AS start, "
            "CAST(least(512, n - win_idx * 384) AS BIGINT) AS n_tok, "
            "source FROM w ORDER BY doc_id, win_idx"
        ),
        "dedup_spans": (
            f"WITH {_GRAMS_CTES}, "
            "tot AS (SELECT gh, COUNT(*) AS c, MIN(doc_id) AS cdoc "
            "FROM grams GROUP BY gh), "
            "canon AS (SELECT gh, cdoc, MIN(gpos) AS cpos FROM ("
            "SELECT g.gh, t.cdoc, g.gpos FROM grams g "
            "JOIN tot t ON g.gh = t.gh AND g.doc_id = t.cdoc "
            "WHERE t.c > 1) GROUP BY gh, cdoc), "
            "red AS (SELECT g.doc_id, g.gpos FROM grams g "
            "JOIN canon cn USING (gh) "
            "WHERE NOT (g.doc_id = cn.cdoc AND g.gpos = cn.cpos)), "
            "cov AS (SELECT DISTINCT r.doc_id, r.gpos + o AS pos "
            "FROM red r, (SELECT unnest(range(0, 5)) AS o)), "
            "wpos AS (SELECT doc_id, unnest(ws) AS word, "
            "unnest(range(1, len(ws) + 1)) AS pos FROM words), "
            "keptw AS (SELECT w.doc_id, w.pos, w.word FROM wpos w "
            "ANTI JOIN cov c ON w.doc_id = c.doc_id AND w.pos = c.pos), "
            "ka AS (SELECT doc_id, string_agg(word, ' ' ORDER BY pos) AS "
            "kept_text, COUNT(*) AS n_kept FROM keptw GROUP BY doc_id), "
            "nw AS (SELECT doc_id, len(ws) AS n_words FROM words) "
            "SELECT d.doc_id, CAST(COALESCE(n.n_words, 0) AS BIGINT) AS "
            "n_words, CAST(COALESCE(n.n_words, 0) - COALESCE(k.n_kept, 0) "
            "AS BIGINT) AS n_removed, COALESCE(k.kept_text, '') AS kept_text "
            "FROM documents d LEFT JOIN nw n USING (doc_id) "
            "LEFT JOIN ka k USING (doc_id) ORDER BY d.doc_id"
        ),
        "lm_commonness": (
            "WITH a AS (SELECT doc_id, regexp_extract_all(lower(text), "
            "'[a-z0-9]+') AS ws FROM documents), "
            "b AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS gram FROM "
            "(SELECT doc_id, ws, unnest(range(1, len(ws))) AS i FROM a)), "
            "c AS (SELECT gram, CAST(COUNT(*) AS BIGINT) AS c FROM b "
            "GROUP BY gram), "
            "d AS (SELECT b.doc_id, CAST(SUM(c.c) AS BIGINT) AS w, "
            "CAST(COUNT(*) AS BIGINT) AS nb FROM b JOIN c USING (gram) "
            "GROUP BY b.doc_id) "
            "SELECT doc_id, CAST(w AS DOUBLE) / CAST(nb AS DOUBLE) AS "
            "commonness FROM d ORDER BY doc_id"
        ),
        "posting_lists": (
            "WITH pairs AS (SELECT DISTINCT doc_id, word FROM ("
            "SELECT doc_id, unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word FROM documents)) "
            "SELECT word, CAST(COUNT(*) AS BIGINT) AS df, "
            "string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) "
            "AS postings "
            "FROM pairs GROUP BY word HAVING COUNT(*) >= 2 ORDER BY word"
        ),
        "cms_word_counts": (
            "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word FROM documents), "
            "cells AS (SELECT d, ('0x' || substr(md5(word), "
            "CAST(1 + 8 * d AS INTEGER), 8))::UBIGINT % 512 AS j "
            "FROM toks, (SELECT unnest(range(0, 4)) AS d)) "
            "SELECT CAST(d AS BIGINT) AS d, CAST(j AS BIGINT) AS j, "
            "CAST(COUNT(*) AS BIGINT) AS c FROM cells "
            "GROUP BY d, j ORDER BY d, j"
        ),
        "bloom_bits": (
            "WITH seen AS (SELECT DISTINCT unnest(regexp_extract_all("
            "lower(text), '[a-z0-9]+')) AS w FROM documents "
            "WHERE doc_id % 97 = 0) "
            "SELECT DISTINCT CAST(('0x' || substr(md5(w), "
            "CAST(1 + 8 * d AS INTEGER), 8))::UBIGINT % 4096 AS BIGINT) "
            "AS bit FROM seen, (SELECT unnest(range(0, 3)) AS d) "
            "ORDER BY bit"
        ),
        "bloom_probe": (
            "WITH seen AS (SELECT DISTINCT unnest(regexp_extract_all("
            "lower(text), '[a-z0-9]+')) AS w FROM documents "
            "WHERE doc_id % 97 = 0), "
            "bits AS (SELECT DISTINCT ('0x' || substr(md5(w), "
            "CAST(1 + 8 * d AS INTEGER), 8))::UBIGINT % 4096 AS bit "
            "FROM seen, (SELECT unnest(range(0, 3)) AS d)), "
            "dw AS (SELECT DISTINCT doc_id, w FROM (SELECT doc_id, "
            "unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w "
            "FROM documents)), "
            "hit AS (SELECT dw.doc_id, dw.w FROM dw, "
            "(SELECT unnest(range(0, 3)) AS d) t "
            "JOIN bits ON bits.bit = ('0x' || substr(md5(dw.w), "
            "CAST(1 + 8 * t.d AS INTEGER), 8))::UBIGINT % 4096 "
            "GROUP BY dw.doc_id, dw.w HAVING COUNT(*) = 3) "
            "SELECT dw.doc_id, CAST(COUNT(*) AS BIGINT) AS n_distinct, "
            "CAST(COUNT(hit.w) AS BIGINT) AS n_maybe_seen "
            "FROM dw LEFT JOIN hit ON hit.doc_id = dw.doc_id "
            "AND hit.w = dw.w "
            "GROUP BY dw.doc_id ORDER BY dw.doc_id"
        ),
        "rollup_counts": (
            "SELECT COALESCE(source, '(all)') AS source, "
            "COALESCE(lang, '(all)') AS lang, "
            "CAST(COUNT(*) AS BIGINT) AS n "
            "FROM documents GROUP BY ROLLUP(source, lang) "
            "ORDER BY source, lang"
        ),
        "cube_counts": (
            "SELECT COALESCE(source, '(all)') AS source, "
            "COALESCE(lang, '(all)') AS lang, "
            "CAST(COUNT(*) AS BIGINT) AS n "
            "FROM documents GROUP BY CUBE(source, lang) "
            "ORDER BY source, lang"
        ),
        "mode_lang": (
            "SELECT source, lang, n FROM ("
            "SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n, "
            "row_number() OVER (PARTITION BY source "
            "ORDER BY COUNT(*) DESC, lang) AS rn "
            "FROM documents GROUP BY source, lang) WHERE rn = 1 "
            "ORDER BY source"
        ),
        "encoded_count_where": (
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "(SELECT CAST(COUNT(*) AS BIGINT) FROM documents "
            "WHERE n_chars >= 600) AS n_ge_600 "
            "FROM documents GROUP BY source ORDER BY source"
        ),
        "encoded_quantiles": (
            " UNION ALL ".join(
                f"SELECT CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value "
                "FROM documents"
                for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99))
            + " ORDER BY q"
        ),
        "encoded_grouped_quantiles": (
            "SELECT source, q, value FROM ("
            + " UNION ALL ".join(
                f"SELECT source, CAST({q} AS DOUBLE) AS q, "
                f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS value "
                "FROM documents GROUP BY source"
                for q in (0.25, 0.5, 0.9))
            + ") ORDER BY source, q"
        ),
        "encoded_count_where_or": (
            "SELECT CAST(COUNT(*) FILTER (n_chars < 200 OR n_chars >= 900)"
            " AS BIGINT) AS n_or, "
            "CAST(COUNT(*) FILTER (NOT (n_chars >= 600)) AS BIGINT) "
            "AS n_not, "
            "CAST(COUNT(*) FILTER (NOT (n_chars < 300) AND "
            "(source = 'src1' OR source = 'src3')) AS BIGINT) AS n_nested "
            "FROM documents"
        ),
        "encoded_summary": (
            "SELECT CAST(COUNT(*) AS BIGINT) AS n, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars, "
            "CAST(MIN(n_chars) AS BIGINT) AS min_chars, "
            "CAST(MAX(n_chars) AS BIGINT) AS max_chars "
            "FROM documents WHERE n_chars >= 300"
        ),
        "encoded_grouped_topk": (
            "SELECT source, n_chars, doc_id FROM ("
            "SELECT source, n_chars, doc_id, row_number() OVER ("
            "PARTITION BY source ORDER BY n_chars DESC, doc_id) AS rn "
            "FROM documents) WHERE rn <= 3 "
            "ORDER BY source, n_chars DESC, doc_id"
        ),
        "encoded_prefix_count": (
            "SELECT CAST(COUNT(*) FILTER (source LIKE 'src1%') AS BIGINT) "
            "AS src1_like, "
            "CAST(COUNT(*) FILTER (source LIKE 'src%') AS BIGINT) "
            "AS src_like, "
            "CAST(COUNT(*) FILTER (source LIKE 'src19%') AS BIGINT) "
            "AS src19_like FROM documents"
        ),
        "encoded_group_aggs": (
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_n_chars, "
            "CAST(MIN(n_chars) AS BIGINT) AS min_n_chars, "
            "CAST(MAX(n_chars) AS BIGINT) AS max_n_chars "
            "FROM documents GROUP BY source ORDER BY source"
        ),
        "approx_distinct": (
            "SELECT CAST(COUNT(DISTINCT lang) AS BIGINT) AS lang_distinct, "
            "CAST(COUNT(DISTINCT source) AS BIGINT) AS source_distinct, "
            "CAST(10 AS BIGINT) AS doc_ratio_x10 FROM documents"
        ),
        "encoded_topk": (
            "(SELECT doc_id, n_chars, 'all' AS part FROM documents "
            "ORDER BY n_chars DESC, doc_id LIMIT 12) "
            "UNION ALL "
            "(SELECT doc_id, n_chars, 'src7' AS part FROM documents "
            "WHERE source = 'src7' ORDER BY n_chars DESC, doc_id LIMIT 8)"
        ),
        "encoded_zorder_pushdown": (
            "SELECT CAST(COUNT(*) FILTER (n_chars >= 600) AS BIGINT) "
            "AS n_chars_ge_600, "
            "CAST(COUNT(*) FILTER (doc_id < 100) AS BIGINT) AS doc_id_lt_100, "
            "CAST(COUNT(*) FILTER (n_chars >= 600 AND doc_id >= 100) AS BIGINT) "
            "AS both FROM documents"
        ),
        "delete_where_count": (
            # DELETE WHERE p removes only p = TRUE rows (nulls survive)
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "(SELECT CAST(COUNT(*) AS BIGINT) FROM documents "
            "WHERE (lang = 'de') IS NOT TRUE AND n_chars >= 600) "
            "AS n_ge_600 "
            "FROM documents WHERE (lang = 'de') IS NOT TRUE "
            "GROUP BY source ORDER BY source"
        ),
        "evolve_add_column": (
            "SELECT CAST(COUNT(*) FILTER (n_chars // 200 >= 3) AS BIGINT) "
            "AS n_ge_3, "
            "CAST(SUM(n_chars // 200) AS BIGINT) AS sum_bucket, "
            "CAST(MAX(n_chars // 200) AS BIGINT) AS max_bucket "
            "FROM documents"
        ),
        "replace_where_rewrite": (
            "SELECT CASE WHEN lang = 'de' THEN 'redacted' ELSE source "
            "END AS source, CAST(COUNT(*) AS BIGINT) AS n_docs "
            "FROM documents GROUP BY 1 ORDER BY 1"
        ),
        "restore_snapshot": (
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs "
            "FROM documents WHERE (lang = 'de') IS NOT TRUE "
            "GROUP BY source ORDER BY source"
        ),
        "cdc_apply_changes": (
            "WITH changes AS ("
            "SELECT doc_id, n_chars + 500 AS n_chars, 'upd' AS source, "
            "'upsert' AS op FROM documents WHERE doc_id % 11 = 0 "
            "UNION ALL "
            "SELECT doc_id, n_chars, source, 'delete' "
            "FROM documents WHERE doc_id % 13 = 0 AND doc_id % 11 <> 0), "
            "final AS ("
            "SELECT doc_id, n_chars, source FROM documents "
            "WHERE doc_id NOT IN (SELECT doc_id FROM changes) "
            "UNION ALL SELECT doc_id, n_chars, source FROM changes "
            "WHERE op = 'upsert') "
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM final GROUP BY source ORDER BY source"
        ),
        "snapshot_time_travel": (
            "SELECT source, "
            "CAST(COUNT(*) FILTER ((lang = 'de') IS NOT TRUE) AS BIGINT) "
            "AS n_live, "
            "CAST(COUNT(*) AS BIGINT) AS n_snap "
            "FROM documents GROUP BY source ORDER BY source"
        ),
        "merge_rows_upsert": (
            "WITH incoming AS ("
            "SELECT doc_id, n_chars + 1000 AS n_chars, 'merged' AS source "
            "FROM documents WHERE doc_id % 7 = 0 "
            "UNION ALL "
            "SELECT doc_id + 10000000, n_chars, 'fresh' "
            "FROM documents WHERE doc_id % 97 = 0), "
            "merged AS ("
            "SELECT doc_id, n_chars, source FROM documents "
            "WHERE doc_id NOT IN (SELECT doc_id FROM incoming) "
            "UNION ALL SELECT * FROM incoming) "
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(n_chars) AS BIGINT) AS sum_chars "
            "FROM merged GROUP BY source ORDER BY source"
        ),
        "bloom_point_lookup": (
            "SELECT CAST(COUNT(*) FILTER (doc_id = 123) AS BIGINT) "
            "AS n_hit, "
            "CAST(COUNT(*) FILTER (doc_id = -7) AS BIGINT) AS n_miss, "
            "CAST(COALESCE(SUM(n_chars) FILTER (doc_id = 123), 0) "
            "AS BIGINT) AS sum_hit FROM documents"
        ),
        "active_customers": (
            "SELECT c_custkey, c_mktsegment FROM customer c "
            "WHERE c_mktsegment = 'BUILDING' AND EXISTS ("
            "SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
            "AND o.o_orderdate >= TIMESTAMP '1995-01-01' "
            "AND o.o_orderdate < TIMESTAMP '1996-01-01') "
            "ORDER BY c_custkey"
        ),
        "winsorize": (
            "WITH t AS (SELECT event_type, "
            "percentile_disc(0.05) WITHIN GROUP (ORDER BY value) AS lo, "
            "percentile_disc(0.95) WITHIN GROUP (ORDER BY value) AS hi "
            "FROM events GROUP BY event_type) "
            "SELECT e.event_id, e.event_type, e.value, "
            "LEAST(GREATEST(e.value, t.lo), t.hi) AS value_w "
            "FROM events e JOIN t USING (event_type) ORDER BY e.event_id"
        ),
        "curation_v2": (
            "WITH gated AS (SELECT doc_id, text, source FROM documents "
            "WHERE length(text) >= 200), "
            "g AS (SELECT source, COUNT(*) AS ng FROM gated GROUP BY source), "
            "m AS (SELECT MIN(ng) AS nmin FROM g), "
            "mix AS (SELECT d.doc_id, d.text, d.source FROM gated d "
            "JOIN g USING (source) CROSS JOIN m "
            "WHERE g.ng = m.nmin OR "
            "('0x' || substr(md5('13:' || CAST(d.doc_id AS VARCHAR)), 1, 16))"
            "::UBIGINT < CAST(floor(sqrt(CAST(m.nmin AS DOUBLE) / g.ng) * "
            "18446744073709551616.0) AS UBIGINT)), "
            "dd AS (SELECT doc_id, text, source FROM mix "
            "QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1) "
            "SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs, "
            "CAST(SUM(len(regexp_extract_all(text, '[A-Za-z0-9]+'))) AS BIGINT) "
            "AS sum_tokens FROM dd GROUP BY source ORDER BY source"
        ),
        "local_supplier_volume": (
            "SELECT n.n_name AS n_name, "
            "CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount) "
            "* 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "JOIN nation n ON s.s_nationkey = n.n_nationkey "
            "JOIN region r ON n.n_regionkey = r.r_regionkey "
            "WHERE r.r_name = 'ASIA' "
            "AND c.c_nationkey = s.s_nationkey "
            "AND o.o_orderdate >= TIMESTAMP '1995-01-01' "
            "AND o.o_orderdate < TIMESTAMP '1996-01-01' "
            "GROUP BY n.n_name ORDER BY revenue_cents DESC, n_name"
        ),
        "retention": (
            "WITH ev AS (SELECT user_id, event_type, "
            "epoch_us(ts) // 604800000000 AS week FROM events), "
            "c AS (SELECT user_id, MIN(week) AS cweek FROM ev "
            "WHERE event_type = 'signup' GROUP BY user_id), "
            "uw AS (SELECT DISTINCT user_id, week FROM ev), "
            "cells AS (SELECT DISTINCT uw.user_id, c.cweek AS cohort_week, "
            "uw.week - c.cweek AS week_offset "
            "FROM uw JOIN c USING (user_id) WHERE uw.week >= c.cweek) "
            "SELECT CAST(cohort_week AS BIGINT) AS cohort_week, "
            "CAST(week_offset AS BIGINT) AS week_offset, "
            "CAST(COUNT(*) AS BIGINT) AS n_users FROM cells "
            "GROUP BY cohort_week, week_offset "
            "ORDER BY cohort_week, week_offset"
        ),
        "funnel": (
            "WITH t1 AS (SELECT user_id, MIN(ts) AS t FROM events "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "t2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e "
            "JOIN t1 ON e.user_id = t1.user_id AND e.ts >= t1.t "
            "WHERE e.event_type = 'click' GROUP BY e.user_id), "
            "t3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e "
            "JOIN t2 ON e.user_id = t2.user_id AND e.ts >= t2.t "
            "WHERE e.event_type = 'purchase' GROUP BY e.user_id) "
            "SELECT * FROM (VALUES "
            "(CAST(0 AS BIGINT), 'view', "
            "(SELECT CAST(COUNT(*) AS BIGINT) FROM t1)), "
            "(CAST(1 AS BIGINT), 'click', "
            "(SELECT CAST(COUNT(*) AS BIGINT) FROM t2)), "
            "(CAST(2 AS BIGINT), 'purchase', "
            "(SELECT CAST(COUNT(*) AS BIGINT) FROM t3))"
            ") AS f(stage_idx, stage, n_users) ORDER BY stage_idx"
        ),
        "group_moments": (
            "SELECT l_returnflag, COUNT(*) AS n, "
            "CAST(SUM(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_q, "
            "CAST(SUM(CAST(round(l_quantity) AS BIGINT) * "
            "CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_q2 "
            "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"
        ),
        "build_vocab": (
            "WITH f AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
            "AS word FROM documents) GROUP BY word) "
            "SELECT word, n, CAST(row_number() OVER "
            "(ORDER BY n DESC, word) - 1 AS BIGINT) AS token_id FROM f"
        ),
        "json_props_stats": (
            "SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n, "
            "CAST(SUM(CAST(regexp_extract(props, "
            "'\"k\"\\s*:\\s*(-?\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "pivot_lang_counts": (
            "SELECT source, "
            "CAST(COUNT(*) FILTER (lang = 'de') AS BIGINT) AS de, "
            "CAST(COUNT(*) FILTER (lang = 'en') AS BIGINT) AS en, "
            "CAST(COUNT(*) FILTER (lang = 'es') AS BIGINT) AS es, "
            "CAST(COUNT(*) FILTER (lang = 'fr') AS BIGINT) AS fr, "
            "CAST(COUNT(*) FILTER (lang = 'zh') AS BIGINT) AS zh "
            "FROM documents GROUP BY source ORDER BY source"
        ),
        "vocab_drift": (
            "WITH w AS (SELECT unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word, source = 'src0' AS a FROM documents), "
            "f AS (SELECT word, "
            "CAST(COUNT(*) FILTER (a) AS BIGINT) AS n_a, "
            "CAST(COUNT(*) FILTER (NOT a) AS BIGINT) AS n_b "
            "FROM w GROUP BY word), "
            "t AS (SELECT SUM(n_a) AS ta, SUM(n_b) AS tb FROM f) "
            "SELECT word, n_a, n_b, "
            "CAST(abs(n_a * t.tb - n_b * t.ta) AS BIGINT) AS d "
            "FROM f CROSS JOIN t WHERE n_a + n_b >= 5 "
            "ORDER BY d DESC, word LIMIT 50"
        ),
        "collocations": (
            "WITH a AS (SELECT regexp_extract_all(lower(text), "
            "'[a-z0-9]+') AS ws FROM documents), "
            "b AS (SELECT ws, unnest(range(1, len(ws))) AS i FROM a), "
            "bg AS (SELECT ws[i] AS w1, ws[i+1] AS w2 FROM b), "
            "bc AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS n_ab "
            "FROM bg GROUP BY w1, w2), "
            "tq AS (SELECT COUNT(*) AS t FROM bg), "
            "uc AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
            "AS word FROM documents) GROUP BY word) "
            "SELECT bc.w1, bc.w2, bc.n_ab, "
            "CAST(tq.t * bc.n_ab AS DOUBLE) / "
            "CAST(u1.n * u2.n AS DOUBLE) AS lift "
            "FROM bc CROSS JOIN tq "
            "JOIN uc u1 ON u1.word = bc.w1 "
            "JOIN uc u2 ON u2.word = bc.w2 "
            "WHERE bc.n_ab >= 5 "
            "ORDER BY lift DESC, bc.w1, bc.w2 LIMIT 50"
        ),
        "vocab_coverage": (
            "WITH f AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
            "AS word FROM documents) GROUP BY word), "
            "r AS (SELECT word, n, "
            "SUM(n) OVER (ORDER BY n DESC, word "
            "ROWS UNBOUNDED PRECEDING) AS cum, "
            "SUM(n) OVER () AS tot FROM f) "
            "SELECT word, n, CAST(cum AS BIGINT) AS cum FROM r "
            "WHERE cum <= 0.9 * tot ORDER BY cum"
        ),
        "bpe_pair_counts": (
            "WITH w AS (SELECT unnest(regexp_extract_all(lower(text), "
            "'[a-z0-9]+')) AS word FROM documents), "
            "wf AS (SELECT word, COUNT(*) AS n FROM w GROUP BY word), "
            "e AS (SELECT word, n, unnest(range(1, length(word))) AS i "
            "FROM wf) "
            "SELECT substring(word, CAST(i AS INT), 2) AS pair, "
            "CAST(SUM(n) AS BIGINT) AS n FROM e "
            "GROUP BY pair ORDER BY n DESC, pair LIMIT 100"
        ),
        # Iterative greedy BPE as a recursive CTE.  State rows carry the
        # per-word-type segmentation (space-joined symbols); each step
        # counts weighted adjacent pairs, picks the (count DESC, left,
        # right) winner, and applies it leftmost-first-non-overlapping
        # via plain string replace over a DOUBLED-delimiter rendering
        # (' a  a ' -> ' aa '): doubling leaves one space on each side
        # after a match is consumed, so adjacent matches in a same-symbol
        # run still fire with exactly the floor(n/2) leftmost parity the
        # engine's _collapse computes.  Merge rows ride along (kind='m')
        # and the final SELECT takes them from the deepest iteration.
        "bpe_merges": (
            "WITH RECURSIVE "
            "wf AS (SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) "
            "AS word FROM documents) GROUP BY word), "
            "st AS ("
            "SELECT 0 AS iter, 'w' AS kind, "
            "trim(regexp_replace(word, '(.)', '\\1 ', 'g')) AS seg, n, "
            "CAST(NULL AS BIGINT) AS rank, CAST(NULL AS VARCHAR) AS l_s, "
            "CAST(NULL AS VARCHAR) AS r_s, CAST(NULL AS VARCHAR) AS m_s, "
            "CAST(NULL AS BIGINT) AS pn FROM wf "
            "UNION ALL ("
            "WITH cur AS (SELECT * FROM st), "
            "best AS (SELECT l[CAST(i AS INT)] AS ls, "
            "l[CAST(i AS INT) + 1] AS rs, CAST(SUM(n) AS BIGINT) AS cnt "
            "FROM (SELECT string_split(seg, ' ') AS l, n, "
            "unnest(range(1, len(string_split(seg, ' ')))) AS i "
            "FROM cur WHERE kind = 'w') GROUP BY ls, rs "
            "ORDER BY cnt DESC, ls, rs LIMIT 1) "
            "SELECT c.iter + 1 AS iter, c.kind, "
            "CASE WHEN c.kind = 'w' THEN trim(replace(replace("
            "' ' || replace(c.seg, ' ', '  ') || ' ', "
            "' ' || b.ls || '  ' || b.rs || ' ', "
            "' ' || b.ls || b.rs || ' '), '  ', ' ')) ELSE c.seg END AS seg, "
            "c.n, c.rank, c.l_s, c.r_s, c.m_s, c.pn "
            "FROM cur c CROSS JOIN best b WHERE c.iter < 50 AND b.cnt >= 2 "
            "UNION ALL "
            "SELECT c.iter + 1, 'm', NULL, NULL, c.iter, b.ls, b.rs, "
            "b.ls || b.rs, b.cnt "
            "FROM (SELECT DISTINCT iter FROM st) c CROSS JOIN ("
            "SELECT l[CAST(i AS INT)] AS ls, l[CAST(i AS INT) + 1] AS rs, "
            "CAST(SUM(n) AS BIGINT) AS cnt "
            "FROM (SELECT string_split(seg, ' ') AS l, n, "
            "unnest(range(1, len(string_split(seg, ' ')))) AS i "
            "FROM st WHERE kind = 'w') GROUP BY ls, rs "
            "ORDER BY cnt DESC, ls, rs LIMIT 1) b "
            "WHERE c.iter < 50 AND b.cnt >= 2)) "
            "SELECT rank, l_s AS \"left\", r_s AS \"right\", m_s AS merged, "
            "pn AS pair_n FROM st "
            "WHERE kind = 'm' AND iter = (SELECT MAX(iter) FROM st) "
            "ORDER BY rank"
        ),
        "cap_source_share": (
            "WITH nq AS (SELECT COUNT(*) AS total FROM documents), "
            "g AS (SELECT source, COUNT(*) AS ng FROM documents GROUP BY source), "
            "h AS (SELECT doc_id, source, "
            "('0x' || substr(md5('9:' || CAST(doc_id AS VARCHAR)), 1, 16))"
            "::UBIGINT AS hv FROM documents) "
            "SELECT h.doc_id, h.source FROM h "
            "JOIN g USING (source) CROSS JOIN nq "
            "WHERE (0.03 * nq.total / g.ng) >= 1 "
            "OR hv < CAST(floor((0.03 * nq.total / g.ng) * "
            "18446744073709551616.0) AS UBIGINT) "
            "ORDER BY h.doc_id"
        ),
        "temperature_mix": (
            "WITH g AS (SELECT source, COUNT(*) AS ng FROM documents "
            "GROUP BY source), "
            "m AS (SELECT MIN(ng) AS nmin FROM g), "
            "h AS (SELECT doc_id, source, "
            "('0x' || substr(md5('11:' || CAST(doc_id AS VARCHAR)), 1, 16))"
            "::UBIGINT AS hv FROM documents) "
            "SELECT h.doc_id, h.source FROM h "
            "JOIN g USING (source) CROSS JOIN m "
            "WHERE g.ng = m.nmin "
            "OR hv < CAST(floor(sqrt(CAST(m.nmin AS DOUBLE) / g.ng) * "
            "18446744073709551616.0) AS UBIGINT) "
            "ORDER BY h.doc_id"
        ),
        "shipping_priority": (
            "SELECT l.l_orderkey AS o_orderkey, o.o_orderdate, "
            "CAST(SUM(CAST(FLOOR(l.l_extendedprice * (1 - l.l_discount) * 100.0 "
            "+ 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents "
            "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
            "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            "WHERE c.c_mktsegment = 'BUILDING' "
            "AND o.o_orderdate < TIMESTAMP '1995-03-15' "
            "AND l.l_shipdate > TIMESTAMP '1995-03-15' "
            "GROUP BY l.l_orderkey, o.o_orderdate "
            "ORDER BY revenue_cents DESC, l.l_orderkey LIMIT 10"
        ),
        "user_event_seq": (
            "SELECT event_id, user_id, CAST(row_number() OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS seq "
            "FROM events"
        ),
        # percentile_disc = the existing value at rank ceil(q*n): no
        # interpolation, so doubles hash bit-identical
        "grouped_quantiles": (
            "SELECT event_type, 0.25 AS q, "
            "percentile_disc(0.25) WITHIN GROUP (ORDER BY value) AS value "
            "FROM events GROUP BY event_type UNION ALL "
            "SELECT event_type, 0.5, "
            "percentile_disc(0.5) WITHIN GROUP (ORDER BY value) "
            "FROM events GROUP BY event_type UNION ALL "
            "SELECT event_type, 0.9, "
            "percentile_disc(0.9) WITHIN GROUP (ORDER BY value) "
            "FROM events GROUP BY event_type "
            "ORDER BY event_type, q"
        ),
        # integer-cents window sum: exact on both sides
        "rolling_value": (
            "SELECT event_id, CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll_cents "
            "FROM events ORDER BY event_id"
        ),
        "contamination": (
            f"WITH {_SHINGLE_CTES}, "
            "test AS (SELECT DISTINCT gram FROM gs WHERE doc_id % 50 = 0) "
            "SELECT gs.doc_id, COUNT(*) AS n_shingles, "
            "CAST(SUM(CASE WHEN t.gram IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_contaminated "
            "FROM gs LEFT JOIN test t ON gs.gram = t.gram GROUP BY gs.doc_id"
        ),
        "repetition": (
            "WITH d AS (SELECT doc_id, str_split_regex(trim(text), '\\s+') AS ws "
            "FROM documents WHERE len(trim(text)) > 0), "
            "g2 AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS gram "
            "FROM d, UNNEST(range(1, len(ws))) AS t(i) WHERE len(ws) >= 2) "
            "SELECT doc_id, COUNT(*) AS n_grams, "
            "CAST(COUNT(DISTINCT gram) AS BIGINT) AS n_distinct "
            "FROM g2 GROUP BY doc_id"
        ),
        "redact": (
            "SELECT doc_id, "
            "regexp_replace(COALESCE(text, ''), '\\b(customer|spark)\\b', '<X>', 'g') "
            "AS clean, "
            "CAST(len(regexp_extract_all(COALESCE(text, ''), "
            "'\\b(customer|spark)\\b')) AS BIGINT) AS n_hits FROM documents"
        ),
        "price_bands": (
            "WITH bands(lo, hi, label) AS (VALUES "
            "(0.0, 10000.0, 'low'), (10000.0, 40000.0, 'mid'), "
            "(40000.0, 1000000000.0, 'high')) "
            "SELECT b.label AS band, COUNT(*) AS n_items, "
            "CAST(SUM(CAST(FLOOR(l.l_extendedprice * 100.0 + 0.5) AS BIGINT)) "
            "AS BIGINT) AS sum_cents "
            "FROM lineitem l JOIN bands b "
            "ON l.l_extendedprice >= b.lo AND l.l_extendedprice < b.hi "
            "GROUP BY b.label"
        ),
        "grouped_topk": (
            "SELECT o_custkey, o_orderkey FROM ("
            "SELECT o_custkey, o_orderkey, row_number() OVER ("
            "PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) AS rn "
            "FROM orders) WHERE rn <= 3"
        ),
        "stratified_sample": (
            "SELECT source, doc_id FROM (SELECT source, doc_id, "
            "row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn "
            "FROM documents) WHERE rn <= 5"
        ),
        "doc_sample": (
            "SELECT doc_id, n_chars FROM documents WHERE doc_id % 20 = 0"
        ),
        "quality_filter": (
            "WITH q AS (SELECT doc_id, "
            "CAST(length(text) AS BIGINT) AS q_chars, "
            "CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS q_digit, "
            f"CAST(len(regexp_extract_all(text, '\\b({_STOP_SQL})\\b')) AS BIGINT) "
            "AS q_stopwords FROM documents) "
            "SELECT doc_id, q_chars, q_stopwords FROM q "
            "WHERE q_chars >= 200 AND q_stopwords >= 5 AND q_digit * 5 <= q_chars"
        ),
        "truncate_conservation": (
            "SELECT CAST(SUM(LEAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')), 128)) "
            "AS BIGINT) AS total_tokens FROM documents"
        ),
        "curation_pipeline": (
            "WITH q AS (SELECT doc_id, text, "
            "CAST(length(text) AS BIGINT) AS q_chars, "
            "CAST(len(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS q_digit, "
            f"CAST(len(regexp_extract_all(text, '\\b({_STOP_SQL})\\b')) AS BIGINT) "
            "AS q_stopwords FROM documents), "
            "kept AS (SELECT doc_id, text FROM q "
            "WHERE q_chars >= 200 AND q_stopwords >= 5 AND q_digit * 5 <= q_chars), "
            "dd AS (SELECT MIN(doc_id) AS doc_id, ANY_VALUE(text) AS text "
            "FROM kept GROUP BY text) "
            "SELECT CAST(SUM(len(regexp_extract_all(text, '[A-Za-z0-9]+')) + 1) "
            "AS BIGINT) AS total_tokens FROM dd"
        ),
        "events_sliding": (
            "SELECT event_type, win_ts, COUNT(*) AS n_events FROM ("
            "SELECT event_type, time_bucket(INTERVAL '30 minutes', ts) AS win_ts "
            "FROM events UNION ALL "
            "SELECT event_type, time_bucket(INTERVAL '30 minutes', ts) "
            "- INTERVAL '30 minutes' FROM events"
            ") GROUP BY event_type, win_ts"
        ),
    }
