"""Cluster job entry point for the flagship encode pipeline.

This is the script the north rule's ``ray job submit`` launch targets
on a real multi-node cluster:

    ray job submit --working-dir /path/to/repo -- \
        python tools/encode_job.py --input s3://corpus/tokens \
        --output s3://corpus/encoded --partition-by source --resume

On the cluster, ``ray.init(address="auto")`` attaches to the running
Ray instance the job server provides; standalone (no cluster) it
starts a local one, so the same script is the single-node CLI too.
Exit code 0 only when every group committed AND (with --verify) the
decode digest matches the input bit-identically.

Resume semantics: groups with a lineage marker are skipped, so
re-submitting the identical job after a partial failure only encodes
the missing groups (see pipelines/encode_pipeline.py commit markers).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
os.environ.setdefault(
    "PYTHONPATH", os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)  # Ray workers don't inherit driver sys.path mutations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="colonnade_ray corpus encode job")
    ap.add_argument("--input", required=True, help="parquet corpus dir (or file)")
    ap.add_argument("--output", required=True, help="encode output root")
    ap.add_argument("--partition-by", default="source", choices=["source", "none"],
                    help="skew shuffle key ('none' disables the exchange)")
    ap.add_argument("--batch-size", type=int, default=None,
                    help="rows per chunk (default 8192; an append or "
                    "resume takes the corpus's recorded value)")
    ap.add_argument("--token-budget", type=int, default=4_000_000,
                    help="tokens per partition bucket (salt granularity)")
    ap.add_argument("--group-size", type=int, default=None,
                    help="input fragments per commit group (resume granularity)")
    ap.add_argument("--concurrent-groups", type=int, default=1)
    ap.add_argument("--resume", action="store_true",
                    help="skip groups whose lineage marker exists")
    ap.add_argument("--append", action="store_true",
                    help="encode only input files no committed group covers")
    ap.add_argument("--compact", action="store_true",
                    help="fold committed groups into one after encoding")
    ap.add_argument("--no-transport", action="store_true",
                    help="disable shuffle-transport narrowing")
    ap.add_argument("--verify", action="store_true",
                    help="decode everything back and compare digests")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():  # job server / driver may have init'd already
        ray.init(address="auto" if _on_cluster() else "local",
                 include_dashboard=False, ignore_reinit_error=True)

    from colonnade_ray.pipelines import decode_corpus, encode_corpus, roundtrip_verify

    t0 = time.time()
    summary = encode_corpus(
        args.input,
        args.output,
        batch_size=args.batch_size,
        partition_by=None if args.partition_by == "none" else args.partition_by,
        token_budget=args.token_budget,
        group_size=args.group_size,
        max_concurrent_groups=args.concurrent_groups,
        resume=args.resume,
        transport=not args.no_transport,
        append=args.append,
    )
    if args.compact:
        from colonnade_ray.pipelines import compact_corpus

        summary |= compact_corpus(args.output)
    summary["encode_sec"] = round(time.time() - t0, 3)

    if args.verify:
        import ray.data as rd

        t0 = time.time()
        decoded = decode_corpus(args.output)
        cols = [c for c in decoded.schema().names]
        res = roundtrip_verify(rd.read_parquet(args.input), decoded, cols)
        summary["verify_sec"] = round(time.time() - t0, 3)
        summary["roundtrip_match"] = bool(res["match"])
        if not res["match"]:
            print(json.dumps(summary))
            return 2

    print(json.dumps(summary))
    return 0


def _on_cluster() -> bool:
    import os

    return bool(os.environ.get("RAY_ADDRESS") and os.environ["RAY_ADDRESS"] != "local")


if __name__ == "__main__":
    sys.exit(main())
