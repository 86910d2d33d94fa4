"""Text analysis kernels for training-data pipelines (brief-mandated):
tokenization, language-ID heuristic, quality scoring, token counting,
document fingerprinting.  All vectorized per batch; no per-row Python
in hot paths.

These generalize the reference's per-cell scalar functions
(parse/print/escape, siphon/src/Siphon.hs:297-334 and test parsers
siphon/test/Test.hs:330-368) to corpus-scale text columns.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

VOCAB_SIZE = 50_000
_WORD_RE = r"[A-Za-z0-9]+"  # BPE-ish word pieces; \p classes kept ASCII for determinism


class HashTokenizer:
    """Actor-pool friendly tokenizer: compile once, run per batch."""

    def __init__(self, text_col: str = "text", vocab: int = VOCAB_SIZE,
                 id_col: str = "doc_id", source_col: str = "source"):
        self.text_col = text_col
        self.vocab = vocab
        self.id_col = id_col
        self.source_col = source_col
        self.word_re = re.compile(_WORD_RE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pandas().fillna("")
        # findall per row is C-speed in pandas; explode to hash in one pass
        words = texts.str.findall(self.word_re)
        lens = words.str.len().to_numpy().astype(np.int64)
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words]) if lens.sum() else np.zeros(0, object)
        if flat.size:
            h = pd.util.hash_array(flat, categorize=False).astype(np.uint64)
            tok = (h % np.uint64(self.vocab)).astype(np.int32)
        else:
            tok = np.zeros(0, np.int32)
        offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(tok, pa.int32()))
        doc_id = batch[self.id_col]
        if not pa.types.is_string(doc_id.type):
            doc_id = pc.cast(doc_id, pa.string())
        cols = {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": pa.array(lens.astype(np.int32)),
            "source": batch[self.source_col],
        }
        return pa.table(cols)


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace+regex token counting (count_substring_regex kernel)."""
    n = pc.count_substring_regex(pc.coalesce(batch[text_col], ""), _WORD_RE)
    return batch.append_column("token_count", pc.cast(n, pa.int64()))


_STOPWORDS = (
    "the a an and or of to in is are was for on with as by at from this that".split()
)
# tiny per-language stopword sets for the n-gram/stopword language heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "is"},
    "de": {"der", "die", "und", "das", "ist"},
    "fr": {"le", "la", "et", "les", "des"},
    "es": {"el", "la", "los", "que", "de"},
}


class QualityScorer:
    """Quality metrics per doc: lengths, alpha/digit/space/punct counts,
    stopword hits.  Integer outputs only (oracle-hash safe)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch[self.text_col], "")
        out = batch
        out = out.append_column("q_chars", pc.cast(pc.utf8_length(txt), pa.int64()))
        for name, pat in [
            ("q_alpha", "[A-Za-z]"),
            ("q_digit", "[0-9]"),
            ("q_space", "[ ]"),
            ("q_punct", r"[.,;:!?]"),
        ]:
            out = out.append_column(
                name, pc.cast(pc.count_substring_regex(txt, pat), pa.int64())
            )
        stop_pat = r"\b(" + "|".join(_STOPWORDS) + r")\b"
        out = out.append_column(
            "q_stopwords", pc.cast(pc.count_substring_regex(txt, stop_pat), pa.int64())
        )
        return out


class LanguageId:
    """Stopword-marker language scorer (n-gram heuristic class).

    Emits lang_guess:string — argmax of per-language marker hits, "und"
    (undetermined) when nothing matches."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.pats = {
            lang: r"\b(" + "|".join(sorted(m)) + r")\b" for lang, m in _LANG_MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch[self.text_col], "")
        lowered = pc.utf8_lower(txt)
        scores = np.stack(
            [
                pc.count_substring_regex(lowered, p).to_numpy(zero_copy_only=False)
                for p in self.pats.values()
            ]
        )
        langs = np.array(list(self.pats.keys()) + ["und"])
        best = np.argmax(scores, axis=0)
        best = np.where(scores.max(axis=0) == 0, len(self.pats), best)
        return batch.append_column("lang_guess", pa.array(langs[best]))


_WORD_LOWER_RE = re.compile(r"[a-z0-9]+")


def word_freq(ds, text_col: str = "text", k: int = 50):
    """Top-k word frequencies over a text column — the canonical
    shuffle-minimized wide aggregate: each batch emits its own
    (word, count) partials (vectorized explode + value_counts), so the
    ONE groupby exchange moves distinct-words-per-batch, not tokens;
    a final sort by (count desc, word asc) + limit is tiny.

    At 100 TB the partial pass reduces exchange volume by the mean
    within-batch word multiplicity (~10-100x on natural text)."""
    from ray.data.aggregate import Sum

    empty = pa.table({"word": pa.array([], pa.string()), "n": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):  # a block of only missing texts
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        if lens.sum():
            flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
            vc = pd.Series(flat).value_counts()
            return pa.table(
                {"word": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
                 "n": pa.array(vc.to_numpy().astype(np.int64))}
            )
        return empty

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("word").aggregate(Sum("n", alias_name="n"))
    return agg.sort(["n", "word"], descending=[True, False]).limit(k)


def ngram_freq(ds, n: int = 2, text_col: str = "text", k: int = 50):
    """Top-k word n-gram frequencies — same shuffle-minimized shape as
    ``word_freq`` (per-batch partial counts, ONE small groupby), with
    the gram construction fully vectorized: one flat word explode per
    batch, grams formed by n strided views masked at doc boundaries,
    no per-doc Python.  N-gram statistics drive contamination checks,
    Gopher-style repetition filters and LM-overlap analyses, so this
    is a first-class corpus operator, not a convenience."""
    from ray.data.aggregate import Sum

    if n < 2:
        return word_freq(ds, text_col=text_col, k=k)
    empty = pa.table({"gram": pa.array([], pa.string()), "n": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        total = int(lens.sum())
        if total < n:
            return empty
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words if len(w)]
        )
        doc_of = np.repeat(np.arange(lens.size), lens)
        # gram starting at i is valid iff i..i+n-1 stay in one doc
        valid = doc_of[: total - n + 1] == doc_of[n - 1 :]
        if not valid.any():
            return empty
        grams = pd.Series(flat[: total - n + 1][valid])
        for j in range(1, n):
            grams = grams + " " + pd.Series(flat[j : total - n + 1 + j][valid])
        vc = grams.value_counts()
        return pa.table(
            {"gram": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             "n": pa.array(vc.to_numpy().astype(np.int64))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("gram").aggregate(Sum("n", alias_name="n"))
    return agg.sort(["n", "gram"], descending=[True, False]).limit(k)


def tfidf_topk(ds, text_col: str = "text", id_col: str = "doc_id",
               k: int = 3, n_docs: int = None):
    """Top-k distinctive terms per document by tf-idf with a LINEAR
    idf (score = tf * N / df): linear idf keeps the score one integer
    multiply + one IEEE double division, which both numpy and any SQL
    engine round identically — so the whole ranking is bit-exactly
    SQL-checkable (log idf is a one-line swap where checkability is
    not needed; the ranking differs only in idf monotonicity edge
    cases).

    Exchanges (each bounded): (1) df = groupby-sum over per-batch
    distinct (word, count) partials — moves vocab-per-batch rows;
    (2) df attached back to term rows via the keyed_attach bucketed
    hash join — term rows move once; (3) per-doc top-k via
    grouped_topk's partial-shrink (<= k rows per (doc, batch) cross
    the wire).  The term-count stage is recomputed by consumers (1)
    and (2) instead of materialized — streaming re-read beats pinning
    a corpus-sized intermediate in the object store."""
    from .relational import grouped_topk, keyed_attach

    n = int(n_docs if n_docs is not None else ds.count())
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "word": pa.array([], pa.string()),
                      "tf": pa.array([], pa.int64())})

    def term_counts(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        if not lens.sum():
            return empty
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        d = pd.DataFrame({
            id_col: np.repeat(ids, lens),
            "word": np.concatenate(
                [np.asarray(w, dtype=object) for w in words if len(w)]),
        })
        vc = d.value_counts(sort=False).reset_index(name="tf")
        return pa.table({
            id_col: pa.array(vc[id_col].to_numpy().astype(np.int64)),
            "word": pa.array(vc["word"].to_numpy(dtype=object), pa.string()),
            "tf": pa.array(vc["tf"].to_numpy().astype(np.int64)),
        })

    tc = ds.map_batches(term_counts, batch_format="pyarrow")

    # df: (word, doc) rows are distinct within a doc by construction,
    # so per-batch word value_counts are exact df partials
    from ray.data.aggregate import Sum

    def df_partial(b: pa.Table) -> pa.Table:
        vc = b["word"].to_pandas().value_counts()
        return pa.table({
            "word": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
            "df": pa.array(vc.to_numpy().astype(np.int64)),
        })

    dfreq = tc.map_batches(df_partial, batch_format="pyarrow") \
              .groupby("word").aggregate(Sum("df", alias_name="df"))

    # carry the key itself ("word"): keyed_attach emits carry+out only
    scored = keyed_attach(
        tc, dfreq, key_from="word", out_col="df",
        carry=[(id_col, pa.int64()), ("word", pa.string()), ("tf", pa.int64())],
        id_col="word", text_col="df",
    )

    def add_score(b: pa.Table) -> pa.Table:
        tf = b["tf"].to_numpy(zero_copy_only=False)
        df = b["df"].to_numpy(zero_copy_only=False)
        score = (tf * n).astype(np.float64) / df
        # restore the word column name dropped by the attach carry
        return pa.table({id_col: b[id_col], "word": b["word"],
                         "tf": b["tf"], "df": b["df"],
                         "score": pa.array(score)})

    scored = scored.map_batches(add_score, batch_format="pyarrow")
    return grouped_topk(scored, [id_col], "score", k=k, tie_cols=["word"])


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit document fingerprint (SipHash of full text — the
    rolling-hash fingerprint class; exact-dup key)."""
    txt = pc.coalesce(batch[text_col], "").to_pandas().to_numpy(dtype=object)
    h = pd.util.hash_array(txt, categorize=False).astype(np.uint64).view(np.int64)
    return batch.append_column("fingerprint", pa.array(h))


def build_vocab(ds, text_col: str = "text", min_count: int = 1):
    """Frequency-ranked vocabulary (word -> contiguous id by count
    desc, word asc): the build step ahead of ``remap_tokens``'s
    broadcast LUT.  Same partial-counts exchange as word_freq; the
    final rank pass runs on ONE block because a vocabulary is
    vocab-sized (millions of rows at web scale — block-sized, not
    corpus-sized; the deterministic-layout convention of
    pack_sequences)."""
    from ray.data.aggregate import Sum

    empty = pa.table({"word": pa.array([], pa.string()),
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
        return pa.table(
            {"word": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             "n": pa.array(vc.to_numpy().astype(np.int64))})

    freq = ds.map_batches(partial, batch_format="pyarrow") \
             .groupby("word").aggregate(Sum("n", alias_name="n"))
    if min_count > 1:
        freq = freq.filter(expr=f"n >= {min_count}")

    def rank(b: pa.Table) -> pa.Table:
        idx = pa.table({"word": b["word"], "n": b["n"]}).to_pandas()
        idx = idx.sort_values(["n", "word"], ascending=[False, True],
                              kind="mergesort")
        idx["token_id"] = np.arange(len(idx), dtype=np.int64)
        return pa.Table.from_pandas(idx, preserve_index=False)

    return freq.sort(["n", "word"], descending=[True, False]) \
               .repartition(1).map_batches(rank, batch_format="pyarrow")


def word_count_table(ds, text_col: str = "text"):
    """Full (word, n) occurrence counts — the shared distributed pass
    under build_vocab / vocab_coverage / collocations: per-batch
    value_counts partials, ONE vocab-bounded groupby exchange."""
    from ray.data.aggregate import Sum

    empty = pa.table({"word": pa.array([], pa.string()),
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
        return pa.table(
            {"word": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
             "n": pa.array(vc.to_numpy().astype(np.int64))})

    return ds.map_batches(partial, batch_format="pyarrow") \
             .groupby("word").aggregate(Sum("n", alias_name="n"))


def vocab_drift(ds, split_col: str, split_value, text_col: str = "text",
                k: int = 50, min_count: int = 5):
    """Keyness / vocabulary drift between two corpus slices (slice A =
    rows where split_col == split_value, slice B = the rest): the
    corpus-comparison pass that flags which words over/under-index in
    a new crawl vs the old one.

    Score d = |n_a * N_b - n_b * N_a| (N_* = slice token totals) —
    the cross-product difference is |relfreq_a - relfreq_b| scaled by
    N_a * N_b, a monotone keyness ranking that stays in EXACT int64
    arithmetic (counts x totals ~ 1e11 at sf0.1), so ranking AND
    score hash-match SQL with zero float ops.  (Dunning's LLR ranks
    near-identically but needs logs — not hash-exact; swap in where
    checkability is not required.)

    Scale shape: ONE corpus pass emits (word, n_a, n_b) partials
    (two value_counts per batch), one vocab-bounded groupby merges,
    totals are two scalars broadcast into the vocab-sized score pass;
    the final sort is k-limited."""
    from ray.data.aggregate import Sum

    empty = pa.table({"word": pa.array([], pa.string()),
                      "n_a": pa.array([], pa.int64()),
                      "n_b": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        in_a = pc.equal(batch[split_col], split_value)
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        if not lens.sum():
            return empty
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words if len(w)])
        a_mask = np.repeat(in_a.to_pandas().fillna(False).to_numpy(), lens)
        d = pd.DataFrame({"w": flat, "a": a_mask})
        g = d.groupby(["w", "a"], sort=False).size().unstack(fill_value=0)
        return pa.table({
            "word": pa.array(g.index.to_numpy(dtype=object), pa.string()),
            "n_a": pa.array(g[True].to_numpy().astype(np.int64)
                            if True in g.columns else
                            np.zeros(len(g), np.int64)),
            "n_b": pa.array(g[False].to_numpy().astype(np.int64)
                            if False in g.columns else
                            np.zeros(len(g), np.int64)),
        })

    freq = ds.map_batches(partial, batch_format="pyarrow") \
             .groupby("word").aggregate(Sum("n_a", alias_name="n_a"),
                                        Sum("n_b", alias_name="n_b")) \
             .materialize()
    tot_a = int(freq.sum("n_a") or 0)
    tot_b = int(freq.sum("n_b") or 0)

    def score(b: pa.Table) -> pa.Table:
        n_a = b["n_a"].to_numpy()
        n_b = b["n_b"].to_numpy()
        keep = (n_a + n_b) >= min_count
        d = np.abs(n_a * tot_b - n_b * tot_a)
        return pa.table({"word": b["word"], "n_a": b["n_a"],
                         "n_b": b["n_b"],
                         "d": pa.array(d.astype(np.int64))}) \
            .filter(pa.array(keep))

    return freq.map_batches(score, batch_format="pyarrow") \
               .sort(["d", "word"], descending=[True, False]).limit(k)


def collocations_topk(ds, text_col: str = "text", k: int = 50,
                      min_count: int = 5):
    """Top-k word collocations by LIFT — lift(a,b) = (T * c_ab) /
    (c_a * c_b) with T the total bigram occurrences (PMI = log(lift);
    log is monotone, so ranking by lift gives the PMI ranking while
    avoiding the not-correctly-rounded transcendental — the tfidf
    linear-idf convention, making both the ranking AND the stored
    score hash-match SQL: two exact int64 products, one IEEE
    division).

    Scale shape: ONE corpus pass emits both the unigram and bigram
    partials (unigram rows tagged w2 = '' — the word regex never
    yields an empty word), one vocabulary-bounded groupby merges them,
    and the result is pinned once (it's aggregate-sized, the
    dup_groups lesson); unigram counts attach to the
    min_count-filtered bigram rows via two keyed_attach hash joins
    (nothing corpus-sized moves, no broadcast of the vocabulary); the
    final sort is k-limited.  Counts convert exactly to float64 below
    2^53 — past ~9e15 tokens the lift twin needs big-int
    arithmetic."""
    from ray.data.aggregate import Sum

    from .relational import keyed_attach

    empty = pa.table({"w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "n_ab": pa.array([], pa.int64())})

    def gram_partial(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        if not lens.sum():
            return empty
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words if len(w)])
        vc = pd.Series(flat).value_counts()
        parts = [pd.DataFrame({"w1": vc.index.to_numpy(dtype=object),
                               "w2": "", "n_ab": vc.to_numpy()})]
        doc_of = np.repeat(np.arange(lens.size), lens)
        valid = doc_of[:-1] == doc_of[1:]
        if valid.any():
            d = pd.DataFrame({"w1": flat[:-1][valid], "w2": flat[1:][valid]})
            parts.append(d.groupby(["w1", "w2"], sort=False).size()
                          .reset_index(name="n_ab"))
        g = pd.concat(parts, ignore_index=True)
        return pa.table({"w1": pa.array(g["w1"].to_numpy(dtype=object),
                                        pa.string()),
                         "w2": pa.array(g["w2"].to_numpy(dtype=object),
                                        pa.string()),
                         "n_ab": pa.array(g["n_ab"].to_numpy()
                                          .astype(np.int64))})

    comb = ds.map_batches(gram_partial, batch_format="pyarrow") \
             .groupby(["w1", "w2"]).aggregate(Sum("n_ab", alias_name="n_ab")) \
             .materialize()

    def bigram_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(pc.equal(b["w2"], "")))

    def unigram_rows(b: pa.Table) -> pa.Table:
        u = b.filter(pc.equal(b["w2"], ""))
        return pa.table({"word": u["w1"], "n": u["n_ab"]})

    big_all = comb.map_batches(bigram_rows, batch_format="pyarrow")
    total_bigrams = int(big_all.sum("n_ab") or 0)
    if total_bigrams == 0:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
            "n_ab": pa.array([], pa.int64()),
            "lift": pa.array([], pa.float64())}))
    big = big_all.filter(expr=f"n_ab >= {min_count}")
    uni = comb.map_batches(unigram_rows, batch_format="pyarrow")

    with_a = keyed_attach(
        big, uni, key_from="w1", out_col="n_a",
        carry=[("w1", pa.string()), ("w2", pa.string()),
               ("n_ab", pa.int64())],
        id_col="word", text_col="n")
    with_ab = keyed_attach(
        with_a, uni, key_from="w2", out_col="n_b",
        carry=[("w1", pa.string()), ("w2", pa.string()),
               ("n_ab", pa.int64()), ("n_a", pa.int64())],
        id_col="word", text_col="n")

    T = total_bigrams

    def score(b: pa.Table) -> pa.Table:
        n_ab = b["n_ab"].to_numpy()
        n_a = b["n_a"].to_numpy()
        n_b = b["n_b"].to_numpy()
        lift = (T * n_ab).astype(np.float64) / \
            (n_a * n_b).astype(np.float64)
        return pa.table({"w1": b["w1"], "w2": b["w2"],
                         "n_ab": b["n_ab"],
                         "lift": pa.array(lift)})

    scored = with_ab.map_batches(score, batch_format="pyarrow")
    return scored.sort(["lift", "w1", "w2"],
                       descending=[True, False, False]).limit(k)


def vocab_coverage(ds, text_col: str = "text", coverage: float = 0.9):
    """The ranked-vocabulary prefix covering ``coverage`` of token
    occurrences (word, n, cum): the vocab-truncation costing pass —
    how small can the vocabulary be before the <unk> rate exceeds
    1 - coverage.  Same partial-counts exchange as word_freq; the
    cumsum + cut runs on ONE vocab-sized block (the build_vocab
    convention).  The threshold compare is one IEEE multiply
    (coverage * total), bit-identical in numpy and SQL."""
    freq = word_count_table(ds, text_col)

    def cut(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(["n", "word"],
                                       ascending=[False, True],
                                       kind="mergesort")
        cum = df["n"].to_numpy().cumsum()
        keep = cum <= coverage * float(cum[-1]) if len(df) else \
            np.zeros(0, dtype=bool)
        df = df.iloc[: int(keep.sum())]
        df["cum"] = cum[: len(df)].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    return freq.sort(["n", "word"], descending=[True, False]) \
               .repartition(1).map_batches(cut, batch_format="pyarrow")


def posting_lists(ds, text_col: str = "text", id_col: str = "doc_id",
                  min_df: int = 1):
    """Inverted index over the corpus: one row per distinct word with
    its document frequency and the SORTED posting list of doc ids
    (comma-joined — a hashable scalar for the SQL string_agg twin).

    Shape: per-batch explode to DISTINCT (word, doc) pairs (dedup
    before the exchange, so a word repeated k times in a doc ships
    once), then one word-keyed bucket shuffle; each bucket builds its
    words' postings vectorized (one sort + groupby-agg per bucket).
    The exchange is bounded by the corpus's distinct (word, doc) pair
    count — the index's own size — and posting construction is
    embarrassingly parallel across word buckets, which is the
    partitioning a 100-TB index build needs (each bucket writes its
    own shard).
    """
    import pandas as pd

    from .bucketing import bucketed_group_apply

    def explode(b: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(pc.coalesce(b[text_col], "")).to_pandas()
        words = txt.str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        ids = b[id_col].to_pandas().to_numpy()
        if not lens.sum():
            return pa.table({"word": pa.array([], pa.string()),
                             id_col: pa.array([], pa.from_numpy_dtype(ids.dtype)
                                              if ids.dtype != object else pa.string())})
        flat_ids = np.repeat(ids, lens)
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words if len(w)])
        d = pd.DataFrame({"word": flat, id_col: flat_ids}).drop_duplicates()
        return pa.Table.from_pandas(d, preserve_index=False)

    pairs = ds.map_batches(explode, batch_format="pyarrow")

    def build(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values(["word", id_col], kind="mergesort")
        g = bucket.groupby("word", sort=False)[id_col]
        out = pd.DataFrame({
            "word": g.size().index,
            "df": g.size().to_numpy().astype(np.int64),
            "postings": g.agg(lambda s: ",".join(map(str, s))).to_numpy(),
        })
        if min_df > 1:
            out = out[out["df"] >= min_df]
        return out.reset_index(drop=True)

    return bucketed_group_apply(pairs, "word", build)


def lm_commonness(ds, text_col: str = "text", id_col: str = "doc_id",
                  n: int = 2):
    """Perplexity-proxy document quality score (the CCNet-style
    corpus-LM signal, made integer-exact): mean corpus frequency of
    the document's word n-grams — SUM(count(gram)) over the doc's gram
    occurrences, divided ONCE by the doc's gram count, so the float
    hash-matches a SQL twin bit-for-bit.  Rare-gram docs (gibberish,
    OCR noise) score low; boilerplate/template docs score high — gate
    on either tail.

    ONE gram-keyed exchange does all the global work: bucketing on
    hash(gram) co-locates every occurrence of a gram, so the bucket
    can compute the GLOBAL count c(gram) (a transform-size over its
    own rows) and immediately fold it into per-doc partials
    (doc, w=SUM c, nb=rows) — no separate counts aggregate, no
    gram-keyed join back.  A second small bucketed exchange sums the
    <= BUCKETS partials per doc.  (The previous 3-barrier form —
    Ray-native groupby over millions of distinct gram strings, then a
    keyed attach, then a doc groupby — spent its wall time on
    per-group sort overhead: 171 s at the 10x bench scale vs ~20 s
    for this one.)  Exchanges carry (doc, gram) occurrence rows and
    integer partials — never document texts.  Docs with fewer than n
    words produce no grams and are absent (same as the twin's inner
    join).  All sums are int64-exact and order-independent, so the
    single final division is float64-bit-equal to a single-process
    reference.
    """
    from .bucketing import bucketed_group_apply
    from .relational import field_type

    id_type = field_type(ds, id_col)
    empty = pa.table({id_col: pa.array([], id_type),
                      "gram": pa.array([], pa.string())})

    def doc_grams(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if pa.types.is_null(col.type):
            return empty
        txt = pc.utf8_lower(pc.coalesce(col, ""))
        words = txt.to_pandas().str.findall(_WORD_LOWER_RE)
        lens = words.str.len().to_numpy().astype(np.int64)
        total = int(lens.sum())
        if total < n:
            return empty
        flat = np.concatenate(
            [np.asarray(w, dtype=object) for w in words if len(w)])
        doc_of = np.repeat(np.arange(lens.size), lens)
        valid = doc_of[: total - n + 1] == doc_of[n - 1 :]
        if not valid.any():
            return empty
        grams = pd.Series(flat[: total - n + 1][valid])
        for j in range(1, n):
            grams = grams + " " + pd.Series(flat[j : total - n + 1 + j][valid])
        ids = batch[id_col].to_pandas().to_numpy()
        gid = ids[doc_of[: total - n + 1][valid]]
        return pa.table({
            id_col: pa.array(gid, id_type),
            "gram": pa.array(grams.to_numpy(dtype=object), pa.string()),
        })

    tg = ds.map_batches(doc_grams, batch_format="pyarrow")

    def per_gram_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # every occurrence of each gram is in THIS bucket -> the
        # per-row transform-size IS the global corpus count c(gram)
        c = g.groupby("gram", sort=False)["gram"].transform("size")
        part = pd.DataFrame({id_col: g[id_col],
                             "w": c.to_numpy().astype(np.int64)})
        out = part.groupby(id_col, sort=False, as_index=False).agg(
            w=("w", "sum"), nb=("w", "size"))
        out["w"] = out["w"].astype(np.int64)
        out["nb"] = out["nb"].astype(np.int64)
        return out

    partials = bucketed_group_apply(tg, "gram", per_gram_bucket)

    def finish_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(id_col, sort=False, as_index=False).agg(
            w=("w", "sum"), nb=("nb", "sum"))
        return pd.DataFrame({
            id_col: s[id_col],
            "commonness": s["w"].to_numpy().astype(np.int64)
            / s["nb"].to_numpy().astype(np.int64),
        })

    return bucketed_group_apply(partials, id_col, finish_bucket)
