"""Whole-table fuzzing of the encode->decode round trip — the
propIsoStream graft (siphon/test/Test.hs:262-276) at table granularity
with hypothesis-driven shapes: random mixes of column types, null
densities, list lengths, string alphabets (incl. the escape-analog
edge alphabet of commas/quotes/newlines/unicode from
siphon/test/Test.hs:157-177)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from colonnade_ray.stages.decode import decode_batch
from colonnade_ray.stages.encode import encode_batch

EDGE_ALPHABET = ["", ",", '"', "\n", "\r\n", "a,b", 'say "hi"', "日本語", "x" * 300]


@st.composite
def arrow_tables(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = {}
    if draw(st.booleans()):
        cols["ints"] = pa.array(
            [None if rng.random() < 0.2 else int(v)
             for v in rng.integers(-(2**40), 2**40, n)],
            pa.int64(),
        )
    if draw(st.booleans()):
        cols["small"] = pa.array(rng.integers(0, 50, n).astype(np.int32))
    if draw(st.booleans()):
        cols["floats"] = pa.array(
            [None if rng.random() < 0.1 else float(v) for v in rng.normal(size=n)],
            pa.float64(),
        )
    if draw(st.booleans()):
        idx = rng.integers(0, len(EDGE_ALPHABET), n)
        cols["strs"] = pa.array(
            [None if rng.random() < 0.15 else EDGE_ALPHABET[i] for i in idx],
            pa.string(),
        )
    # always include a tokens-like list column (the graft axis)
    lens = rng.integers(0, 40, n)
    cols["tokens"] = pa.array(
        [
            None if rng.random() < 0.1 else list(rng.integers(0, 5000, int(l)).astype(np.int32))
            for l in lens
        ],
        pa.list_(pa.int32()),
    )
    cols["bools"] = pa.array([bool(b) for b in rng.integers(0, 2, n)], pa.bool_())
    return pa.table(cols)


@given(arrow_tables())
@settings(max_examples=40, deadline=None)
def test_fuzz_table_roundtrip(t):
    enc = pa.table(encode_batch(t))
    back = decode_batch(enc)
    assert back.num_rows == t.num_rows
    for c in t.column_names:
        a, b = t[c].combine_chunks(), back[c].combine_chunks()
        if pa.types.is_floating(a.type):
            # bit-pattern equality (NaN-safe)
            av = a.to_numpy(zero_copy_only=False)
            bv = b.to_numpy(zero_copy_only=False)
            assert np.array_equal(
                np.nan_to_num(av, nan=-1.5), np.nan_to_num(bv, nan=-1.5)
            ) and np.array_equal(np.isnan(av), np.isnan(bv))
        else:
            assert b.equals(a), c


@given(
    st.integers(0, 6),                       # decimal digits e
    st.integers(64, 400),                    # n values
    st.integers(0, 2**32),                   # seed
    st.booleans(),                           # poison one value?
)
@settings(max_examples=60, deadline=None)
def test_alp_property_bit_exact_or_rejected(e, n, seed, poison):
    """Any decimal column round-trips BIT-exactly through the column
    encoder; if a non-decimal (or -0.0 / non-finite) value is present
    the ALP path must reject itself and the fallback still round-trips."""
    rng = np.random.default_rng(seed)
    vals = np.round(rng.uniform(-1e6, 1e6, n), e)
    vals = np.where(vals == 0.0, 1.0, vals)  # avoid rounded -0.0
    if poison:
        vals[n // 2] = [np.pi, -0.0, np.nan, np.inf][seed % 4]
    arr = pa.array(vals, pa.float64())
    from colonnade_ray.codecs.columns import decode_column, encode_column

    payload, meta = encode_column(arr)
    back = decode_column(payload, meta).to_numpy(zero_copy_only=False)
    assert np.array_equal(vals.view(np.uint64), back.view(np.uint64))
    if poison:
        assert meta["streams"]["values"]["codec"] != "alp"


@given(
    st.lists(st.integers(0, 400), min_size=0, max_size=120, unique=True),
    st.lists(st.integers(0, 400), min_size=0, max_size=120, unique=True),
)
@settings(max_examples=25, deadline=None)
def test_keyed_antijoin_property(left_ids, drop_ids):
    """keyed_antijoin == set difference, any overlap shape; an int64
    carry above 2**53 comes back exact."""
    import ray.data as rd

    from colonnade_ray.functions.relational import keyed_antijoin

    left = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(left_ids), pa.int64()),
        "tag": pa.array([f"t{i}" for i in sorted(left_ids)]),
        "big": pa.array([2**60 + i for i in sorted(left_ids)], pa.int64()),
    }))
    drop = rd.from_arrow(pa.table({"doc_id": pa.array(sorted(drop_ids), pa.int64())}))
    got = keyed_antijoin(left, drop, on="doc_id",
                         carry=[("tag", pa.string()),
                                ("big", pa.int64())]).to_pandas()
    expect = sorted(set(left_ids) - set(drop_ids))
    if not expect:
        # an all-empty result may come back schema-less from Ray
        assert len(got) == 0
    else:
        assert sorted(got["doc_id"].tolist()) == expect
        assert sorted(got["big"].tolist()) == [2**60 + i for i in expect]
