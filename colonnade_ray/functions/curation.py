"""Corpus curation signals: test-set contamination and intra-document
repetition — the decontamination / Gopher-rule stages of an LLM data
pipeline, vectorized per batch on the shared flat-shingle machinery
(functions/dedup._flat_shingles).

Scale notes:
- Contamination broadcasts the TEST set's distinct shingle hashes
  (test/eval sets are small by construction — that is the point of a
  held-out set); the train corpus streams through one membership probe
  per batch (sorted-array searchsorted).  No shuffle.
- Repetition is per-document arithmetic: zero data movement beyond the
  text read.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import _flat_shingles


def _per_doc_distinct(grams: np.ndarray, counts: np.ndarray):
    """First-occurrence mask of (doc, gram) pairs.

    Returns (doc_index_per_gram, distinct_mask) — both aligned with
    ``grams``; vectorized lexsort + neighbor compare."""
    doc_rep = np.repeat(np.arange(counts.size), counts)
    if grams.size == 0:
        return doc_rep, np.zeros(0, dtype=bool)
    order = np.lexsort((grams, doc_rep))
    sd, sg = doc_rep[order], grams[order]
    first = np.empty(grams.size, dtype=bool)
    first[0] = True
    first[1:] = (sd[1:] != sd[:-1]) | (sg[1:] != sg[:-1])
    mask = np.empty(grams.size, dtype=bool)
    mask[order] = first
    return doc_rep, mask


def collect_test_shingles(test_ds, text_col: str = "text", shingle_k: int = 5) -> np.ndarray:
    """Distinct shingle hashes of the held-out set (sorted uint64).

    Per-batch distinct first (map side), then one driver-side unique of
    the small partials — the held-out set is small by construction."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h, _ = _flat_shingles(df[text_col], k=shingle_k)
        u = np.unique(h)
        return pd.DataFrame({"h": u.view(np.int64)})

    parts = test_ds.map_batches(partial, batch_format="pandas").take_all()
    if not parts:
        return np.zeros(0, np.uint64)
    return np.unique(np.array([r["h"] for r in parts], np.int64).view(np.uint64))


def contamination_check(ds, test_ds, text_col: str = "text", id_col: str = "doc_id",
                        shingle_k: int = 5):
    """Per-doc overlap with a held-out set's k-gram shingles.

    Output: (id_col, n_shingles, n_contaminated) — distinct shingles
    per document and how many of them appear in the test set.  Docs
    with no shingles (empty text) are omitted.  Integer outputs only
    (oracle-hash safe)."""
    import ray

    from ..util import default_concurrency

    ref = ray.put(np.sort(collect_test_shingles(test_ds, text_col, shingle_k)))

    class Contaminate:
        def __init__(self):
            self.test = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            texts = batch[text_col].to_pandas()
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            h, counts = _flat_shingles(texts, k=shingle_k)
            doc_rep, distinct = _per_doc_distinct(h, counts)
            n = len(batch)
            n_shingles = np.bincount(doc_rep[distinct], minlength=n)
            if self.test.size and h.size:
                pos = np.searchsorted(self.test, h)
                hit = (pos < self.test.size) & (self.test[np.clip(pos, 0, self.test.size - 1)] == h)
                n_bad = np.bincount(doc_rep[distinct & hit], minlength=n)
            else:
                n_bad = np.zeros(n, np.int64)
            keep = n_shingles > 0
            return pa.table(
                {
                    id_col: pa.array(ids[keep]),
                    "n_shingles": pa.array(n_shingles[keep].astype(np.int64)),
                    "n_contaminated": pa.array(n_bad[keep].astype(np.int64)),
                }
            )

    return ds.map_batches(
        Contaminate, batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
    )


def redact_terms(ds, pattern: str, replacement: str = "<REDACTED>",
                 text_col: str = "text", id_col: str = "doc_id"):
    """Denylist / canary-string scrubbing: replace every match of an
    RE2 ``pattern`` in ``text_col`` and count the hits per document —
    the PII/canary-removal stage of a training-data pipeline (the
    predicated-rewrite T8/T9 semantics applied inside cell content
    rather than across cells, colonnade/src/Colonnade.hs:217-236).

    Fully vectorized (pyarrow.compute regex kernels, RE2 — the same
    engine DuckDB uses, so the oracle is exact); no shuffle, streams.
    Output: (id_col, clean, n_hits)."""
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        # cast first: an all-null block arrives as type null, which the
        # regex kernels reject even under coalesce
        txt = pc.coalesce(pc.cast(batch[text_col], pa.string()), "")
        hits = pc.count_substring_regex(txt, pattern)
        clean = pc.replace_substring_regex(txt, pattern, replacement)
        return pa.table(
            {
                id_col: batch[id_col],
                "clean": clean,
                "n_hits": pc.cast(hits, pa.int64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def repetition_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                     gram_k: int = 2):
    """Gopher-style repetition signal: per doc, total vs distinct word
    k-grams (high duplicate fraction flags boilerplate/spam).

    Output: (id_col, n_grams, n_distinct) for docs with >= k words;
    integer outputs only."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pandas()
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        words = texts.fillna("").str.split()
        wlens = words.str.len().to_numpy().astype(np.int64)
        h, counts = _flat_shingles(texts, k=gram_k)
        doc_rep, distinct = _per_doc_distinct(h, counts)
        n = len(batch)
        n_grams = np.bincount(doc_rep, minlength=n)
        n_distinct = np.bincount(doc_rep[distinct], minlength=n)
        keep = wlens >= gram_k  # short docs use the whole-doc gram fold; exclude
        return pa.table(
            {
                id_col: pa.array(ids[keep]),
                "n_grams": pa.array(n_grams[keep].astype(np.int64)),
                "n_distinct": pa.array(n_distinct[keep].astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def percentile_gate(ds, group_col: str, value_col: str, q: float = 0.5,
                    keep: str = "ge"):
    """Keep rows at-or-above (``keep="ge"``) or strictly below their
    GROUP's q-th percentile of ``value_col`` — the per-domain quality
    gate of a curation flow ("drop the bottom half of every source"),
    self-calibrating per group instead of one global threshold.

    Thresholds come from ``grouped_quantiles`` (exact percentile_disc,
    bit-identical to SQL) and are BROADCAST: the threshold table is one
    row per group — domains/sources, not documents — so pulling it to
    the driver and shipping it into every filter task is the correct
    small-side pattern even at 100 TB (same rationale as
    broadcast_join's small side)."""
    import numpy as np
    import pyarrow as pa

    from .relational import grouped_quantiles

    med = grouped_quantiles(
        ds.select_columns([group_col, value_col]), [group_col], value_col,
        qs=(q,),
    ).to_pandas()
    thresholds = dict(zip(med[group_col], med[value_col]))

    def gate(b: pa.Table) -> pa.Table:
        g = b[group_col].to_pandas()
        thr = g.map(thresholds).to_numpy()
        v = b[value_col].to_numpy(zero_copy_only=False)
        mask = v >= thr if keep == "ge" else v < thr
        # groups unseen at threshold time (can't happen for a
        # same-dataset gate; possible when ds grew): keep the row
        mask = np.where(np.isnan(thr.astype(np.float64)), True, mask)
        return b.filter(pa.array(mask.astype(bool)))

    return ds.map_batches(gate, batch_format="pyarrow")


def winsorize(ds, group_col: str, value_col: str,
              q_lo: float = 0.05, q_hi: float = 0.95,
              out_col: str | None = None):
    """Per-group winsorization: clamp ``value_col`` into its group's
    [q_lo, q_hi] percentile band — the outlier-taming pass ahead of
    scale-sensitive statistics.  Thresholds are exact percentile_disc
    values (``grouped_quantiles``: an existing value at the rank, so
    the clamp is BIT-EXACT against SQL — no interpolation float).
    Like percentile_gate, the two-rows-per-group threshold table
    broadcasts; the clamp is one vectorized row pass, no shuffle."""
    import numpy as np
    import pyarrow as pa

    from .relational import grouped_quantiles

    out = out_col or f"{value_col}_w"
    qt = grouped_quantiles(
        ds.select_columns([group_col, value_col]), [group_col], value_col,
        qs=(q_lo, q_hi),
    ).to_pandas()
    lo = dict(zip(qt[qt["q"] == q_lo][group_col],
                  qt[qt["q"] == q_lo][value_col]))
    hi = dict(zip(qt[qt["q"] == q_hi][group_col],
                  qt[qt["q"] == q_hi][value_col]))

    def clamp(b: pa.Table) -> pa.Table:
        g = b[group_col].to_pandas()
        v = b[value_col].to_numpy(zero_copy_only=False)
        lo_t = g.map(lo).to_numpy(dtype=np.float64)
        hi_t = g.map(hi).to_numpy(dtype=np.float64)
        w = np.minimum(np.maximum(v, lo_t), hi_t)
        return b.append_column(out, pa.array(w.astype(v.dtype)))

    return ds.map_batches(clamp, batch_format="pyarrow")
