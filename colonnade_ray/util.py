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


def default_concurrency(floor: int = 1) -> int:
    """Cap on concurrent tasks (or actors) of one heavy map stage —
    decode, verify and the functions layer: ~3/4 of effective CPUs,
    leaving proportional headroom for the read/shuffle/write stages.
    Encode sets no cap (its tasks fuse into the read).  Proportional (not
    CPUs-minus-constant) so that scaling runs at different CPU counts
    give every stage the same resource SHARE — constant headroom makes
    small-CPU runs under-provision the pool and distorts measured
    scaling efficiency."""
    return max(floor, (3 * effective_cpus()) // 4)
