"""Byte-pair-encoding subword machinery over the documents corpus.

Public algorithm: Sennrich, Haddow & Birch, "Neural Machine
Translation of Rare Words with Subword Units" (ACL 2016).  The
reference engine has no subword trainer — this is part of the
tokens-axis extension the build brief mandates (training-data
pipeline operations), not a reference-parity port.

Distributed shape
-----------------
BPE trains on the WORD-TYPE frequency table, not the token stream:
the only corpus-sized pass is word-frequency counting, which reuses
``text.build_vocab``'s partial-counts exchange (each batch ships its
distinct words, not its tokens).  The merge loop then runs fully
vectorized on the vocab-sized table — a flat int64 symbol array plus
a word-id array, one ``np.unique`` + ``np.bincount`` per iteration —
which is block-sized at web scale (millions of word types vs
billions of tokens; the same "vocabulary is block-sized" convention
as ``build_vocab``/``pack_sequences``).  Segmenting the corpus with
the learned merges broadcasts the (tiny) merge table and applies one
vectorized collapse pass per merge over each batch's UNIQUE words,
so per-batch work scales with distinct types, not occurrences.

Pair counting counts OVERLAPPING occurrences ("aaa" contributes
("a","a") twice), matching the published reference implementation's
``get_stats``; a merge pass applies leftmost-first, so one "aaa"
yields exactly one merged "aa" + "a".
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .text import _WORD_LOWER_RE


# ---------------------------------------------------------------- pairs

def char_pair_counts(ds, text_col: str = "text", k: int = 100):
    """Top-k adjacent character-pair frequencies over word occurrences
    — iteration 0 of the BPE trainer, exposed as its own (fully
    SQL-twinnable) operator.  Per batch: one value_counts over the
    batch's words, then a by-POSITION vectorized slice loop (max word
    length iterations, not row iterations) emits (pair, count)
    partials; ONE small groupby exchange merges them."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    empty = pa.table({"pair": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        if not words.str.len().sum():
            return empty
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words if len(w)])
        vc = pd.Series(flat).value_counts()
        uw = pd.Series(vc.index)
        wn = vc.to_numpy()
        lens = uw.str.len().to_numpy()
        frames = []
        for i in range(int(lens.max()) - 1):
            sel = lens > i + 1
            if not sel.any():
                break
            frames.append(pd.DataFrame(
                {"pair": uw[sel].str.slice(i, i + 2).to_numpy(),
                 "n": wn[sel]}))
        if not frames:
            return empty
        agg = pd.concat(frames).groupby("pair", sort=False)["n"].sum()
        return pa.table({"pair": pa.array(agg.index.to_numpy(dtype=object),
                                          pa.string()),
                         "n": pa.array(agg.to_numpy().astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("pair").aggregate(Sum("n", alias_name="n"))
    return agg.sort(["n", "pair"], descending=[True, False]).limit(k)


# ------------------------------------------------------------- trainer

def _initial_state(words, sym_id: dict):
    """Flat symbol-id array + word-id array for a list of [a-z0-9]+
    word types.  Characters map through ``sym_id`` (extended in
    place for unseen chars) — one frombuffer pass, no per-char
    Python."""
    joined = "".join(words)
    cs = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    for c in np.unique(cs):
        ch = chr(c)
        if ch not in sym_id:
            sym_id[ch] = len(sym_id)
    lut = np.zeros(256, dtype=np.int64)
    for ch, i in sym_id.items():
        if len(ch) == 1 and ord(ch) < 256:
            lut[ord(ch)] = i
    flat = lut[cs]
    lens = np.fromiter((len(w) for w in words), dtype=np.int64,
                       count=len(words))
    wid = np.repeat(np.arange(len(words), dtype=np.int64), lens)
    return flat, wid


def _collapse(flat: np.ndarray, wid: np.ndarray, l: int, r: int,
              new_id: int):
    """Replace every non-overlapping leftmost-first (l, r) adjacency
    (within a word) by new_id.  Overlap only occurs for l == r runs;
    the parity-of-offset-within-run trick resolves those without a
    scan."""
    if flat.size < 2:
        return flat, wid, 0
    m = (flat[:-1] == l) & (flat[1:] == r) & (wid[:-1] == wid[1:])
    idx = np.flatnonzero(m)
    if idx.size == 0:
        return flat, wid, 0
    if l == r:
        starts = np.ones(idx.size, dtype=bool)
        starts[1:] = np.diff(idx) > 1
        run_start = idx[starts][np.cumsum(starts) - 1]
        idx = idx[((idx - run_start) % 2) == 0]
    flat = flat.copy()
    flat[idx] = new_id
    drop = np.zeros(flat.size, dtype=bool)
    drop[idx + 1] = True
    return flat[~drop], wid[~drop], int(idx.size)


def bpe_train(word_counts: pd.DataFrame, num_merges: int = 100,
              min_pair_count: int = 2) -> pa.Table:
    """Greedy BPE merge learning over a (word, n) frequency table.
    Deterministic: ties on pair count break lexicographically on
    (left, right).  Returns the ordered merge table
    (rank, left, right, merged, pair_n)."""
    words = [str(w) for w in word_counts["word"]]
    freqs = word_counts["n"].to_numpy().astype(np.float64)
    sym_id: dict = {}
    flat, wid = _initial_state(words, sym_id)
    symtab = [None] * len(sym_id)
    for ch, i in sym_id.items():
        symtab[i] = ch

    out = {"rank": [], "left": [], "right": [], "merged": [], "pair_n": []}
    for rank in range(num_merges):
        if flat.size < 2:
            break
        valid = wid[:-1] == wid[1:]
        if not valid.any():
            break
        keys = (flat[:-1][valid] << np.int64(32)) | flat[1:][valid]
        uk, inv = np.unique(keys, return_inverse=True)
        cnt = np.bincount(inv, weights=freqs[wid[:-1][valid]])
        best = cnt.max()
        if best < min_pair_count:
            break
        cands = uk[cnt == best]
        pairs = sorted((symtab[int(c) >> 32], symtab[int(c) & 0xFFFFFFFF])
                       for c in cands)
        l_str, r_str = pairs[0]
        merged = l_str + r_str
        new_id = len(symtab)
        symtab.append(merged)
        sym_id[merged] = new_id
        flat, wid, _ = _collapse(flat, wid, sym_id[l_str], sym_id[r_str],
                                 new_id)
        out["rank"].append(rank)
        out["left"].append(l_str)
        out["right"].append(r_str)
        out["merged"].append(merged)
        out["pair_n"].append(int(best))
    return pa.table({
        "rank": pa.array(out["rank"], pa.int64()),
        "left": pa.array(out["left"], pa.string()),
        "right": pa.array(out["right"], pa.string()),
        "merged": pa.array(out["merged"], pa.string()),
        "pair_n": pa.array(out["pair_n"], pa.int64()),
    })


def bpe_train_corpus(ds, num_merges: int = 100, text_col: str = "text",
                     min_count: int = 1,
                     min_pair_count: int = 2) -> pa.Table:
    """End-to-end trainer: distributed word counting (build_vocab's
    partial-counts exchange) feeding the vocab-sized merge loop."""
    from .text import build_vocab

    wc = build_vocab(ds, text_col=text_col, min_count=min_count).to_pandas()
    return bpe_train(wc[["word", "n"]], num_merges=num_merges,
                     min_pair_count=min_pair_count)


# ------------------------------------------------------------- encoder

def encode_word_types(words, merges: pa.Table) -> list:
    """Segment each word type by replaying the learned merges in rank
    order (reproduces the trainer's final segmentation exactly —
    both apply leftmost-first in the same order).  One vectorized
    collapse pass per merge over ALL words at once.  Returns a list
    of subword-string lists."""
    sym_id: dict = {}
    flat, wid = _initial_state(words, sym_id)
    symtab = [None] * len(sym_id)
    for ch, i in sym_id.items():
        symtab[i] = ch
    for l_str, r_str, merged in zip(merges["left"].to_pylist(),
                                    merges["right"].to_pylist(),
                                    merges["merged"].to_pylist()):
        li = sym_id.get(l_str)
        ri = sym_id.get(r_str)
        if merged not in sym_id:
            sym_id[merged] = len(symtab)
            symtab.append(merged)
        if li is None or ri is None:
            continue
        flat, wid, _ = _collapse(flat, wid, li, ri, sym_id[merged])
    # split flat back into per-word symbol lists without a row loop
    order_breaks = np.flatnonzero(np.diff(wid)) + 1
    pieces = np.split(flat, order_breaks)
    present = np.unique(wid)
    out = [[] for _ in words]
    for w_idx, piece in zip(present, pieces):
        out[int(w_idx)] = [symtab[int(s)] for s in piece]
    return out


class BpeSegment:
    """Actor-pool corpus segmenter: merges are built once per actor
    (__init__), each batch segments only its UNIQUE words (cached
    across batches) and emits per-doc subword counts."""

    def __init__(self, merges: pa.Table, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.merges = merges
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = pc.utf8_lower(pc.coalesce(batch[self.text_col], ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        new = sorted({w for ws in words for w in ws} - self._cache.keys())
        if new:
            for w, segs in zip(new, encode_word_types(new, self.merges)):
                self._cache[w] = len(segs)
        n_words = words.str.len().to_numpy().astype(np.int64)
        if n_words.sum():
            flatw = np.concatenate(
                [np.asarray(w, dtype=object) for w in words])
            per_word = pd.Series(flatw).map(self._cache) \
                         .to_numpy(dtype=np.int64)
            doc_idx = np.repeat(np.arange(len(words)), n_words)
            n_sub = np.bincount(doc_idx, weights=per_word,
                                minlength=len(words)).astype(np.int64)
        else:
            n_sub = np.zeros(len(words), dtype=np.int64)
        return pa.table({self.id_col: batch[self.id_col],
                         "n_words": pa.array(n_words),
                         "n_subwords": pa.array(n_sub)})


def bpe_segment(ds, merges: pa.Table, text_col: str = "text",
                id_col: str = "doc_id"):
    """Corpus segmentation stats under a learned merge table — the
    "how many subword tokens is this corpus" costing pass.  Merge
    table is tiny (num_merges rows): closure capture, no shuffle."""
    from ..util import default_concurrency

    return ds.map_batches(
        BpeSegment, fn_constructor_args=(merges, text_col, id_col),
        batch_format="pyarrow", concurrency=(1, default_concurrency()))
