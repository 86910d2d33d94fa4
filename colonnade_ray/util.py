"""Small shared helpers (no Ray session ownership here — see
__ray_entry__ contract)."""

from __future__ import annotations


def effective_cpus() -> int:
    """Cluster CPUs, clamped by COLONNADE_EFFECTIVE_CPUS when set.

    The bench harness sets the clamp to 16 on this sandbox VM: beyond
    ~16 concurrent memory-heavy tasks the hypervisor thrashes
    superlinearly (measured 23s -> 1.8s on the decode stage by capping
    32 -> 12 concurrent tasks; BASELINE.md).  Unset on real hardware.
    """
    import os

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    cap = os.environ.get("COLONNADE_EFFECTIVE_CPUS")
    return min(cpus, int(cap)) if cap else cpus


def default_concurrency() -> int:
    """The one concurrency rule: 3/4 of effective CPUs, at least 1.
    No engine op takes a per-call worker count; each ``map_batches``
    site derives its cap from this value, by stage kind:

    - engine task maps (the chunk scan, delete marking, decode and
      verify) and the ``tokenized_documents`` tokenizer pool:
      ``concurrency=default_concurrency()``, never more than the CPUs;
    - functions-layer and typed-source actor stages: an autoscaling
      pool ``(1, default_concurrency())``, which starts with one actor,
      so a small session never waits on a pool larger than its CPUs
      (a fixed pool of 4 hung ``bpe_segment`` on 2 CPUs);
    - encode and the group rewriter: no cap (encode tasks fuse into
      the read; lifecycle ops bound how many groups rewrite at once
      with ``max_concurrent_groups``).

    3/4 leaves proportional headroom for the read/shuffle/write stages
    the capped stage feeds on.  Proportional (not CPUs-minus-constant)
    so that scaling runs at different CPU counts give every stage the
    same resource SHARE — constant headroom makes small-CPU runs
    under-provision the pool and distorts measured scaling
    efficiency."""
    return max(1, (3 * effective_cpus()) // 4)
