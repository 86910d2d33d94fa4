"""Registry (user-extension surface) + lineage inspection + forced
codec tests."""

import numpy as np
import pyarrow as pa
import pytest

from colonnade_ray.codecs import Encoded, encode_column, decode_column
from colonnade_ray.codecs.base import Codec, ChunkStats, code_dtype, dtype_code
from colonnade_ray.codecs.registry import (
    register_int_codec,
    registered_codecs,
    unregister_int_codec,
)


class XorCodec(Codec):
    """Toy user codec: xor with a constant, stored plain."""

    name = "user_xor"

    def estimate(self, st: ChunkStats):
        return st.n * st.itemsize  # never actually wins vs real codecs

    def encode(self, arr):
        v = arr.astype(np.int64) ^ 0x55
        return Encoded(self.name, {"dt": dtype_code(arr.dtype), "n": int(arr.size)},
                       [v.tobytes()])

    def decode(self, enc):
        v = np.frombuffer(enc.parts[0], dtype=np.int64) ^ 0x55
        return v.astype(code_dtype(enc.meta["dt"]))


def test_register_and_force_user_codec():
    register_int_codec(XorCodec())
    try:
        assert "user_xor" in registered_codecs()
        arr = pa.array(np.arange(100, dtype=np.int32))
        payload, meta = encode_column(arr, forced="user_xor")
        assert meta["streams"]["values"]["codec"] == "user_xor"
        assert decode_column(payload, meta).equals(arr)
    finally:
        unregister_int_codec("user_xor")
    assert "user_xor" not in registered_codecs()


def test_register_duplicate_rejected():
    with pytest.raises(ValueError):
        register_int_codec(type("P", (Codec,), {"name": "plain"})())


def test_forced_codec_via_plan():
    from colonnade_ray.plan import CodecPlan, ColumnPlan, bind_plan
    from colonnade_ray.stages.decode import decode_batch
    from colonnade_ray.stages.encode import encode_chunk

    t = pa.table({"a": pa.array(np.arange(50, dtype=np.int64))})
    plan = CodecPlan((ColumnPlan(name="a", forced_codec="plain"),))
    enc = pa.table(encode_chunk(t, bind_plan(plan, t.schema)))
    import json

    assert json.loads(enc["codecs_json"][0].as_py())[0]["values"] == "plain"
    assert decode_batch(enc).equals(t)


def test_lineage_report(tmp_path, ray_session):
    import pyarrow.parquet as pq

    from colonnade_ray.corpus import synth_rows
    from colonnade_ray.pipelines import encode_corpus
    from colonnade_ray.state.lineage import (
        codec_choice_histogram,
        lineage_report,
        load_lineage,
    )

    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(synth_rows(300, seed=3, start_id=0), d / "p.parquet")
    out = str(tmp_path / "enc")
    encode_corpus(str(d), out, batch_size=128)
    lin = load_lineage(out)
    assert lin.num_rows >= 2
    hist = codec_choice_histogram(out)
    assert any(k.startswith("values=") for k in hist)
    rep = lineage_report(out)
    assert "B/token" in rep and "codec wins" in rep and "+" in rep
    assert "encode spec: EncodeSpec(batch_size=128," in rep


def test_compact_only_smaller_than(ray_session, tmp_path):
    """Size-aware compaction merges only the small tail: big groups
    never pay the rewrite again, and answers are unchanged."""
    import os

    import pyarrow.parquet as pq

    from colonnade_ray.corpus import synth_rows
    from colonnade_ray.pipelines import (
        compact_corpus,
        decode_corpus,
        encode_corpus,
    )
    from colonnade_ray.pipelines.encode_pipeline import active_groups

    inp = str(tmp_path / "inp")
    out = str(tmp_path / "out")
    os.makedirs(inp)
    # one big file + four small ones, each its own commit group
    sizes = [2000, 60, 60, 60, 60]
    start = 0
    for i, n in enumerate(sizes):
        pq.write_table(synth_rows(n, seed=7000 + i, start_id=start),
                       os.path.join(inp, f"part-{i:03d}.parquet"))
        start += n
    encode_corpus(inp, out, batch_size=64, resume=False, group_size=1)
    assert len(active_groups(out)) == 5
    data_root = os.path.join(out, "data")

    def gsize(gid):
        d = os.path.join(data_root, f"group-{gid}")
        return sum(os.path.getsize(os.path.join(d, f))
                   for f in os.listdir(d))

    big = max(active_groups(out), key=gsize)
    thresh = gsize(big)  # strictly-under keeps exactly the big one out
    n_before = decode_corpus(out).count()
    res = compact_corpus(out, only_smaller_than=thresh)
    assert res["compacted_groups"] == 4
    after = active_groups(out)
    assert big in after and len(after) == 2  # big untouched + 1 merged
    assert decode_corpus(out, verify_checksum=True).count() == n_before
    # a second size-aware pass has only ONE small group left (the
    # merged one) — nothing to pair, so it's a no-op
    assert compact_corpus(out, only_smaller_than=thresh)[
        "compacted_groups"] == 0
    assert len(active_groups(out)) == 2
