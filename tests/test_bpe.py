"""BPE trainer / segmenter: hand-checked merges (Sennrich ACL'16
worked example), overlap semantics, segmentation replay consistency,
and the distributed pair-count / train / segment surfaces."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from colonnade_ray.functions.bpe import (
    BpeSegment,
    bpe_segment,
    bpe_train,
    bpe_train_corpus,
    char_pair_counts,
    encode_word_types,
)


def _wc(d: dict) -> pd.DataFrame:
    return pd.DataFrame({"word": list(d.keys()), "n": list(d.values())})


def test_bpe_train_classic_example():
    """The ACL'16 worked vocabulary: first merges are es, est, lo, low
    (with the (e,s)/(s,t) count-9 tie broken lexicographically)."""
    m = bpe_train(_wc({"low": 5, "lower": 2, "newest": 6, "widest": 3}),
                  num_merges=4)
    got = list(zip(m["left"].to_pylist(), m["right"].to_pylist()))
    assert got == [("e", "s"), ("es", "t"), ("l", "o"), ("lo", "w")]
    assert m["pair_n"].to_pylist() == [9, 9, 7, 7]
    assert m["merged"].to_pylist() == ["es", "est", "lo", "low"]


def test_bpe_overlap_leftmost_first():
    """'aaaa' under merge (a,a): overlapping pairs count 3, but the
    collapse applies leftmost-first -> [aa, aa]; a second round merges
    to [aaaa]."""
    m = bpe_train(_wc({"aaaa": 1}), num_merges=2, min_pair_count=1)
    assert m["merged"].to_pylist() == ["aa", "aaaa"]
    assert m["pair_n"].to_pylist()[0] == 3  # overlap-counted, as published
    segs = encode_word_types(["aaaa", "aaa", "aa"], m)
    assert segs == [["aaaa"], ["aa", "a"], ["aa"]]


def test_encode_replays_training_segmentation():
    """Applying merges in rank order reproduces the trainer's final
    segmentation; concatenation always round-trips the word."""
    vocab = {"low": 5, "lower": 2, "newest": 6, "widest": 3, "wide": 1}
    m = bpe_train(_wc(vocab), num_merges=10, min_pair_count=1)
    words = list(vocab) + ["slowest", "zzz"]  # unseen word + unseen char
    for w, segs in zip(words, encode_word_types(words, m)):
        assert "".join(segs) == w
        assert all(len(s) >= 1 for s in segs)
    # trained words compress below character count
    segs = encode_word_types(["newest"], m)[0]
    assert len(segs) < len("newest")


def test_char_pair_counts_matches_manual(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "text": pa.array(["ab ab abc", "Ab! cd", None]),
    })).repartition(2)
    out = char_pair_counts(ds, k=10).to_pandas()
    # occurrences: ab x3 + abc -> pair ab 4; bc 1; cd 1
    got = dict(zip(out["pair"], out["n"]))
    assert got == {"ab": 4, "bc": 1, "cd": 1}
    assert out["pair"].tolist()[0] == "ab"  # sorted by n desc


def test_bpe_corpus_train_and_segment(ray_session):
    import ray.data as rd

    texts = ["low lower low", "newest widest newest", "low newest"] * 3
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(list(range(9)), pa.int64()),
        "text": pa.array(texts),
    })).repartition(2)
    merges = bpe_train_corpus(ds, num_merges=6, min_pair_count=1)
    assert merges.num_rows >= 4
    seg = bpe_segment(ds, merges).to_pandas().sort_values("doc_id")
    assert len(seg) == 9
    # every doc: 1 <= n_subwords <= n_chars, and n_subwords >= n_words
    assert (seg["n_subwords"] >= seg["n_words"]).all()
    first = seg.iloc[0]
    assert first["n_words"] == 3
    # segmentation counts agree with a direct replay
    uw = ["low", "lower"]
    direct = {w: len(s) for w, s in zip(uw, encode_word_types(uw, merges))}
    assert first["n_subwords"] == 2 * direct["low"] + direct["lower"]


_TWO_CPU_CHILD = r"""
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from colonnade_ray.functions.bpe import bpe_segment, bpe_train_corpus
texts = ["low lower low", "newest widest newest", "low newest"] * 3
ds = rd.from_arrow(pa.table({
    "doc_id": pa.array(list(range(9)), pa.int64()),
    "text": pa.array(texts),
})).repartition(2)
merges = bpe_train_corpus(ds, num_merges=6, min_pair_count=1)
print("RESULT", bpe_segment(ds, merges).count())
ray.shutdown()
"""


def test_bpe_segment_default_pool_two_cpus():
    """``bpe_segment`` with its default pool finishes on a two-CPU Ray
    session: no actor pool may wait for more actors than the cluster
    can place.  Own subprocess and Ray session; the whole process
    group, raylet included, is killed if it overruns."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    p = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_CHILD],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("bpe_segment did not finish within 120 s on two CPUs")
    assert p.returncode == 0, stderr[-3000:]
    assert "RESULT 9" in stdout, stdout[-2000:]


def test_bpe_roundtrip_property():
    """Hypothesis: for any small corpus, (a) every trained merge has
    pair_n >= min_pair_count, (b) replaying merges over any word list
    round-trips the words, (c) segment counts are within [1, len]."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    word = st.text(alphabet="abc", min_size=1, max_size=8)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(word, st.integers(1, 9), min_size=1,
                           max_size=12),
           st.lists(word, min_size=1, max_size=6))
    def prop(vocab, probe_words):
        m = bpe_train(_wc(vocab), num_merges=8, min_pair_count=1)
        assert all(c >= 1 for c in m["pair_n"].to_pylist())
        for w, segs in zip(probe_words,
                           encode_word_types(probe_words, m)):
            assert "".join(segs) == w
            assert 1 <= len(segs) <= len(w)

    prop()


def test_bpe_segment_cache_is_per_actor():
    """The word->n_subwords cache fills once per unique word."""
    m = bpe_train(_wc({"ab": 3}), num_merges=1, min_pair_count=1)
    seg = BpeSegment(m)
    b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["ab ab", "ab cd"])})
    out = seg(b)
    assert out["n_subwords"].to_pylist() == [2, 3]  # ab=1 subword, cd=2
    assert set(seg._cache) == {"ab", "cd"}
