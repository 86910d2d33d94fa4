"""Encode the flagship corpus and print the hash of its chunk checksums.

The flagship corpus is the synthetic F1 token corpus of ``bench.py``:
seed 42, 200,000 rows in 8 files of 25,000, encoded with the
``encode_corpus`` defaults (8192-row chunks) on a 4-CPU local Ray with
``COLONNADE_EFFECTIVE_CPUS=16``.  The printed hash is

    blake2b(repr(sorted(checksums)).encode(), digest_size=16)

over the ``checksum`` column of the corpus's ``_lineage``.  Two trees
that print the same hash wrote the same payload bytes; a change that
must keep encode output byte-identical cites this command.

Usage: python tools/flagship_hash.py   (encodes under a temporary
directory that is removed afterwards)
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
os.environ["COLONNADE_EFFECTIVE_CPUS"] = "16"


def main() -> int:
    import ray

    from colonnade_ray.corpus import synth_corpus
    from colonnade_ray.pipelines import encode_corpus
    from colonnade_ray.state.lineage import load_lineage

    work = tempfile.mkdtemp(prefix="flagship-")
    src, out = os.path.join(work, "src"), os.path.join(work, "enc")
    ray.init(num_cpus=4, include_dashboard=False, log_to_driver=False)
    try:
        synth_corpus(src, 200_000, seed=42, rows_per_file=25_000)
        summary = encode_corpus(src, out, resume=False)
        checksums = load_lineage(out)["checksum"].to_pylist()
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    digest = hashlib.blake2b(repr(sorted(checksums)).encode(), digest_size=16)
    print(f"chunks={len(checksums)} bytes_out={summary['bytes_out']}",
          file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
