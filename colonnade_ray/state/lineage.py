"""Lineage inspection: the per-partition records every encode task
emits — (fragment, chunk, codec choices, checksum, bytes in/out) —
are the engine's ledger for resume, audit, and human diagnostics.

Graft of the reference's error/diagnostic rendering
(``humanizeSiphonError`` and friends, siphon/src/Siphon.hs:474-544):
machine records first, a human renderer on top.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def load_lineage(out_dir: str) -> pa.Table:
    """Lineage records of the ACTIVE committed groups (compaction-
    shadowed groups excluded, matching what decode reads)."""
    from ..pipelines.encode_pipeline import active_groups

    lin_root = os.path.join(out_dir, "_lineage")
    files = [
        os.path.join(lin_root, f"group-{gid}.parquet")
        for gid in active_groups(out_dir)
    ]
    if not files:
        return pa.table(
            {c: [] for c in ["fragment", "chunk_id", "n_rows", "n_tokens",
                             "bytes_in", "bytes_out", "checksum", "codecs_json"]}
        )
    return pa.concat_tables([pq.read_table(f) for f in files])


def codec_choice_histogram(out_dir: str) -> dict:
    """How often each codec won per (column, stream) — the A4
    read-back of the selector's decisions (Encode.hs:403-406)."""
    t = load_lineage(out_dir)
    hist: dict = {}
    for row in t["codecs_json"].to_pylist():
        for col in json.loads(row):
            for stream, codec in col.items():
                key = f"{stream}={codec}"
                hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))

def lineage_report(out_dir: str, limit: int = 20) -> str:
    """Human-readable lineage summary (humanizeSiphonError graft),
    with the corpus's recorded ``EncodeSpec`` — how it was built."""
    from ..pipelines.encode_pipeline import load_encode_spec
    from ..render import ascii_table

    t = load_lineage(out_dir)
    if t.num_rows == 0:
        return "(no committed lineage)"
    total_in = int(pc.sum(t["bytes_in"]).as_py() or 0)
    total_out = int(pc.sum(t["bytes_out"]).as_py() or 0)
    tokens = int(pc.sum(t["n_tokens"]).as_py() or 0)
    head = [
        f"chunks: {t.num_rows}   rows: {int(pc.sum(t['n_rows']).as_py() or 0)}"
        f"   tokens: {tokens}",
        f"bytes: {total_in} -> {total_out} "
        f"(ratio {total_out / max(total_in, 1):.3f}, "
        f"{total_out / max(tokens, 1):.3f} B/token)",
        f"codec wins: {codec_choice_histogram(out_dir)}",
        f"encode spec: {load_encode_spec(out_dir) or '(none recorded)'}",
    ]
    view = t.select(["fragment", "chunk_id", "n_rows", "n_tokens", "bytes_out"])
    return "\n".join(head) + "\n" + ascii_table(view, limit=limit)
