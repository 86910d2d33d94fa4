"""Sequence operators for training-data preparation: truncation,
vocabulary remapping, and fixed-length example packing.

These act on the engine's graft axis — the tokens:list<int32> column
(SURVEY.md §1.1) — with pure Arrow-offsets arithmetic: no per-row
Python in any hot path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _list_parts(arr: pa.Array):
    lens = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    vals = arr.flatten().to_numpy(zero_copy_only=False)
    return lens, vals


def truncate_tokens_batch(batch: pa.Table, max_len: int,
                          tokens_col: str = "tokens") -> pa.Table:
    """Clip every sequence to max_len tokens (offsets arithmetic)."""
    arr = batch[tokens_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lens, vals = _list_parts(arr)
    new_lens = np.minimum(lens, max_len)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    keep = np.zeros(vals.size, dtype=bool)
    for_runs = np.flatnonzero(new_lens)  # small loop over ROWS only
    # vectorized keep-mask: mark [start, start+new_len) per row
    marks = np.zeros(vals.size + 1, dtype=np.int8)
    np.add.at(marks, starts[for_runs], 1)
    np.add.at(marks, (starts + new_lens)[for_runs], -1)
    keep = np.cumsum(marks[:-1]) > 0
    new_vals = vals[keep]
    offsets = np.concatenate(([0], np.cumsum(new_lens))).astype(np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                      pa.array(new_vals.astype(np.int32)))
    out = batch.set_column(
        batch.column_names.index(tokens_col), tokens_col, tokens
    )
    if "n_tok" in batch.column_names:
        out = out.set_column(
            out.column_names.index("n_tok"), "n_tok",
            pa.array(new_lens.astype(np.int32)),
        )
    return out


class RemapTokens:
    """Broadcast vocabulary remap: token id -> new id via a LUT fetched
    once per actor (ray.put pattern); unknown ids -> unk_id."""

    def __init__(self, lut_ref, unk_id: int = 0, tokens_col: str = "tokens"):
        import ray

        lut = ray.get(lut_ref) if not isinstance(lut_ref, np.ndarray) else lut_ref
        self.lut = np.asarray(lut, dtype=np.int32)
        self.unk_id = unk_id
        self.tokens_col = tokens_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        arr = batch[self.tokens_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        lens, vals = _list_parts(arr)
        v = vals.astype(np.int64)
        ok = (v >= 0) & (v < self.lut.size)
        mapped = np.full(v.size, self.unk_id, dtype=np.int32)
        mapped[ok] = self.lut[v[ok]]
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(mapped))
        return batch.set_column(
            batch.column_names.index(self.tokens_col), self.tokens_col, tokens
        )


def remap_tokens(ds, lut: np.ndarray, unk_id: int = 0, tokens_col: str = "tokens"):
    import ray

    from ..util import default_concurrency

    ref = ray.put(np.asarray(lut, dtype=np.int32))
    return ds.map_batches(
        RemapTokens,
        fn_constructor_kwargs=dict(lut_ref=ref, unk_id=unk_id, tokens_col=tokens_col),
        batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
    )


class PackSequences:
    """Fixed-length example packing: concatenate documents (with an EOS
    separator) and re-slice into seq_len-token training examples — the
    classic LLM data-prep step.

    Chunk-local BY DESIGN (no state across batches): each batch's token
    stream packs independently, which keeps every task a pure,
    retry-safe function of its batch — an actor carrying remainders
    across __call__s would make output depend on Ray's batch->actor
    routing and break bit-identical retries.  The cost is bounded and
    documented: with ``keep_remainder=False`` up to seq_len-1 tokens
    are dropped PER BATCH (not per corpus) — size batches >> seq_len or
    pass keep_remainder=True (emits the tail as a short example, exact
    conservation: sum(n_tok)+n_docs EOS = sum of example n_tok).

    Identity/provenance contract (round-1 What's-wrong #2 fix):
    ``example_id`` = (blake2b(batch token stream) 31-bit salt << 31) | k
    — globally unique across batches (modulo truly identical batches,
    which pack identically); ``source`` is the true first-contributing
    document's source per example, read off the packed offsets.
    """

    def __init__(self, seq_len: int = 2048, eos_id: int = 0,
                 tokens_col: str = "tokens", keep_remainder: bool = False):
        self.seq_len = seq_len
        self.eos_id = eos_id
        self.tokens_col = tokens_col
        self.keep_remainder = keep_remainder

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        arr = batch[self.tokens_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        lens, vals = _list_parts(arr)
        n = len(batch)
        # interleave an EOS after each doc: build via offsets scatter
        total = int(lens.sum()) + n
        stream = np.full(total, self.eos_id, dtype=np.int32)
        ends = np.cumsum(lens + 1)
        starts = ends - (lens + 1)
        # positions of doc tokens inside the stream
        marks = np.zeros(total, dtype=np.int8)
        marks[starts[lens > 0]] += 1
        marks[(starts + lens)[lens > 0]] -= 1
        tok_mask = np.cumsum(marks) > 0
        stream[tok_mask] = vals.astype(np.int32)
        n_full = total // self.seq_len
        examples = stream[: n_full * self.seq_len].reshape(n_full, self.seq_len)
        ex_lens = [self.seq_len] * n_full
        flat = [examples.reshape(-1)]
        if self.keep_remainder and total % self.seq_len:
            tail = stream[n_full * self.seq_len :]
            flat.append(tail)
            ex_lens.append(tail.size)
        flat_v = np.concatenate(flat) if flat else np.zeros(0, np.int32)
        offsets = np.concatenate(([0], np.cumsum(ex_lens))).astype(np.int32)
        out_tokens = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(flat_v.astype(np.int32))
        )
        k = len(ex_lens)
        # per-example provenance: source of the doc contributing the
        # example's FIRST token (stream position -> owning doc via the
        # doc start offsets)
        if "source" in batch.column_names and k:
            src = batch["source"]
            if isinstance(src, pa.ChunkedArray):
                src = src.combine_chunks()
            ex_starts = np.arange(k, dtype=np.int64) * self.seq_len
            owner = np.searchsorted(starts, ex_starts, side="right") - 1
            sources = pc.fill_null(src.take(pa.array(owner)), "")
        else:
            sources = pa.array([""] * k)
        # deterministic 31-bit batch salt -> globally unique example ids
        salt = int.from_bytes(
            hashlib.blake2b(stream.tobytes(), digest_size=4).digest(), "big"
        ) & 0x7FFFFFFF
        ex_ids = (np.int64(salt) << np.int64(31)) | np.arange(k, dtype=np.int64)
        return pa.table(
            {
                "example_id": pa.array(ex_ids),
                "tokens": out_tokens,
                "n_tok": pa.array(np.asarray(ex_lens, dtype=np.int32)),
                "source": sources,
            }
        )


def pack_sequences(ds, seq_len: int = 2048, eos_id: int = 0,
                   keep_remainder: bool = False, batch_size=None):
    from ..util import default_concurrency

    kwargs = {} if batch_size is None else {"batch_size": batch_size}
    return ds.map_batches(
        PackSequences,
        fn_constructor_kwargs=dict(seq_len=seq_len, eos_id=eos_id,
                                   keep_remainder=keep_remainder),
        batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
        **kwargs,
    )


def chunk_sequences_batch(batch: pa.Table, max_len: int = 512,
                          stride: int | None = None,
                          tokens_col: str = "tokens",
                          id_col: str = "doc_id") -> pa.Table:
    """Context-window chunking: split each token sequence into windows
    of ``max_len`` starting every ``stride`` tokens (overlap =
    max_len - stride for stride < max_len), the long-document prep
    step upstream of packing.  Chunk-local and exchange-free: every
    window is a pure function of its own row, so tasks are retry-safe
    and the operator composes with any partitioning.

    Windows per doc: ceil(n / stride); window w covers
    [w*stride, min(w*stride + max_len, n)).  Empty docs emit nothing.
    Output: (doc_id, win_idx, start, n_tok, tokens) + every other
    input column repeated per window."""
    if stride is None:
        stride = max_len
    if stride <= 0 or max_len <= 0:
        raise ValueError("max_len and stride must be positive")
    arr = batch[tokens_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lens, vals = _list_parts(arr)
    starts_doc = np.concatenate(([0], np.cumsum(lens)))[:-1]
    nw = -(-lens // stride)  # ceil; 0 for empty docs
    total_w = int(nw.sum())
    woff = np.concatenate(([0], np.cumsum(nw)))[:-1]
    # per-window doc index and in-doc window ordinal, fully vectorized
    wdoc = np.repeat(np.arange(lens.size), nw)
    widx = np.arange(total_w) - np.repeat(woff, nw)
    wstart = widx * stride
    wlen = np.minimum(lens[wdoc] - wstart, max_len)
    # gather: flat output index -> source value index
    out_total = int(wlen.sum())
    ooff = np.concatenate(([0], np.cumsum(wlen)))[:-1]
    within = np.arange(out_total) - np.repeat(ooff, wlen)
    src = np.repeat(starts_doc[wdoc] + wstart, wlen) + within
    offsets = np.concatenate(([0], np.cumsum(wlen))).astype(np.int64)
    tokens = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pa.array(vals[src].astype(np.int32))
    ) if out_total > (1 << 30) else pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()),
        pa.array(vals[src].astype(np.int32)),
    )
    cols = {}
    for name in batch.column_names:
        if name == tokens_col or name == "n_tok":
            continue
        col = batch[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        cols[name] = col.take(pa.array(wdoc, pa.int64()))
    cols["win_idx"] = pa.array(widx.astype(np.int64))
    cols["start"] = pa.array(wstart.astype(np.int64))
    cols["n_tok"] = pa.array(wlen.astype(np.int64))
    cols[tokens_col] = tokens
    return pa.table(cols)


def chunk_sequences(ds, max_len: int = 512, stride: int | None = None,
                    tokens_col: str = "tokens", id_col: str = "doc_id"):
    """Dataset form of ``chunk_sequences_batch`` (one stateless
    map_batches — Ray fuses it into the read chain)."""
    return ds.map_batches(
        lambda b: chunk_sequences_batch(b, max_len, stride,
                                        tokens_col, id_col),
        batch_format="pyarrow",
    )
