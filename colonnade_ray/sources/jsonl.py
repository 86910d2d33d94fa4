"""Typed JSONL (NDJSON) source — the CSV typed layer over a second
wire format.

``ray.data.read_json`` handles the lexing (one JSON object per line,
schema unification across blocks); this module reapplies the SAME
declared-column contract as ``typed_csv``: name binding with
accumulated missing/duplicate diagnostics (SchemaBindError), per-cell
parse/validate with (row, column, content) coordinates
(ChunkDecodeError), and declared nullability enforcement — the
``decodeHeadedCsvUtf8`` semantics (siphon/src/Siphon.hs:92-111)
independent of the container format.

Reuse note: JSON values arrive typed (int64/double/bool/string); the
decoder canonicalizes through strings so ONE parser/validator path
(TypedCsvDecoder) serves both sources — ingest correctness over ingest
micro-speed, which is the right trade for a validation layer.
"""

from __future__ import annotations

from .typed_csv import CsvColumn, TypedCsvDecoder

__all__ = ["CsvColumn", "read_typed_jsonl"]


def read_typed_jsonl(paths, columns: list):
    """ray.data.read_json -> typed validated Dataset (declared
    ``CsvColumn`` list, same contract as read_typed_csv; gzip/zstd
    inputs inferred from extension)."""
    import ray.data as rd

    from ..util import default_concurrency

    from .typed_csv import compression_read_args

    ds = rd.read_json(paths, **compression_read_args(paths))
    return ds.map_batches(
        TypedCsvDecoder,
        fn_constructor_kwargs={"columns": columns},
        batch_format="pyarrow",
        concurrency=(1, default_concurrency()),
    )
