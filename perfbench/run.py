"""Benchmark of colonnade_ray, run from the root of a checkout:

    python3 perfbench/run.py --workload {ingest,query,lifecycle,dedup} \\
        --seed N --seconds S --trace {0,1}

One client thread drives a closed loop of requests into the engine's
public API for S seconds against a local Ray sized to this process's CPU
affinity set.  Inputs come from the seed only; every answer is checked
against an oracle, and a wrong answer or a raise counts as failed
without stopping the run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` the run times an
untraced half and a traced half and reports the per-layer ones
(layers.py).  Everything else -- Ray's logs and a detail record with
the machine, versions, input sizes and per-call timings -- goes to
stderr, and the detail record also to ``report.json`` in the run
directory under ``.perfbench_out/``.

The measuring happens in a child process; if Ray aborts it, the run is
measured once more and the lost attempt counts as a failed request.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, trace  # noqa: E402
from perfbench.measure import Client, RssSampler, median, pct  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OBJECT_STORE_BYTES = 512 << 20
ATTEMPT_ENV = "PERFBENCH_ATTEMPT"   # set in the child that measures
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# about 62 characters below its temp dir.
MAX_RAY_TEMP_DIR = 44


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return 0


def _init_ray(ray_tmp: str, ncpu: int, trace_on: bool) -> None:
    import ray

    kw = dict(address="local", num_cpus=ncpu, include_dashboard=False,
              logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES)
    if len(ray_tmp) <= MAX_RAY_TEMP_DIR:
        kw["_temp_dir"] = ray_tmp
    else:
        print(f"perfbench: checkout path too long for Ray's sockets; "
              f"Ray uses its default temp dir", file=sys.stderr)
    if trace_on:
        kw["runtime_env"] = {"worker_process_setup_hook": "perfbench.trace.install"}
    ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _ops_detail(client) -> dict:
    out = {}
    for op, calls in sorted(client.calls.items()):
        xs = [dt * 1e3 for dt in calls]
        out[op] = {"p50_ms": median(xs), "p90_ms": pct(xs, 0.9), "samples": len(xs)}
    return out


def _end_to_end(wl, client, rss, setup_s: list) -> dict:
    return {
        "setup_s": (median(setup_s), "s"),
        "mix_p50_ms": (median(client.mix["untraced"]) * 1e3, "ms"),
        "bytes_per_token": (wl.bytes_per_token(), "B/token"),
        "peak_rss_mb": (rss.total_mb(), "MB"),
    }


def _per_layer(wl, client, trace_dir: str, traced_wall: float,
               mix_p50_ms: float) -> dict:
    spans = trace.load_spans(trace_dir)
    trace.link_workers(spans, os.getpid())
    m = layers.from_spans(spans)
    m.update(layers.from_output(wl.corpus))
    m.update(layers.classify_replay(wl.corpus, wl.predicates))
    m.update(layers.ray_data_layer(wl.corpus, wl.src))
    for op in layers.OPS:
        xs = [dt * 1e3 for dt in client.calls.get(op, [])]
        m[f"pipelines.{op}.wall_ms"] = median(xs)
        m[f"pipelines.{op}.calls"] = len(xs)
    for op in layers.DEDUP_OPS:
        xs = client.calls.get(f"functions.dedup.{op}", [])
        m[f"functions.dedup.{op}.wall_s"] = median(xs)
        m[f"functions.dedup.{op}.calls"] = len(xs)
    for op, k in layers.PRUNE:
        m[f"pipelines.{op}.{k}"] = client.op_stats.get(op, {}).get(k, 0)
    m.update(wl.layer_metrics())
    calls = [(s["start"], s["end"]) for s in spans if s["pid"] == os.getpid()
             and trace.layer_of(s["name"]) in ("pipelines", "functions")
             and s["parent"] is not None]
    m["trace.residual_s"] = traced_wall - trace.covered(calls, float("-inf"), float("inf"))
    untraced = median(client.mix["untraced"])
    m["trace.overhead_frac"] = (median(client.mix["traced"]) / untraced - 1
                                if untraced else 0.0)
    m["bench.requests"] = client.attempted
    # Shares of the median request: the mix's median divided evenly
    # over the requests of one cycle.
    request_ms = mix_p50_ms / wl.cycle
    classify_ms = (m["stages.decode.classify.us_per_chunk"]
                   * m["stages.decode.classify.chunks"] / 1e3)
    m["bench.classify_share_of_request"] = (
        classify_ms / request_ms if request_ms else 0.0)
    m["bench.job_floor_share_of_request"] = (
        m["raydata.job_floor_ms"] / request_ms if request_ms else 0.0)
    return {name: (m.get(name, 0.0), unit) for name, unit, _ in layers.per_layer_spec()}


def run(args) -> dict:
    import pyarrow
    import ray

    workload_id = f"{args.workload}-{args.seed}"
    out_root = os.path.join(ROOT, ".perfbench_out")
    run_dir = os.path.join(out_root, f"{workload_id}-{os.getpid()}")
    ray_tmp = os.path.join(out_root, f"r{os.getpid()}")
    trace_dir = os.path.join(run_dir, "trace")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    # Ray workers start in their own directory: they find the package
    # (and the tracing hook) through PYTHONPATH, inherited from here.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ[trace.WORKLOAD_ENV] = workload_id
    if args.trace:
        os.environ[trace.TRACE_DIR_ENV] = trace_dir
    ncpu = len(os.sched_getaffinity(0))
    _init_ray(ray_tmp, ncpu, bool(args.trace))
    try:
        rec = trace.SpanRecorder(trace_dir, workload_id, flush_each_top=False)
        if args.trace:
            trace.patch(rec)
        client = Client(rec)
        rss = RssSampler()
        rss.start()
        wl = WORKLOADS[args.workload](run_dir, args.seed, client)
        setup_s = []
        for i in range(wl.setup_repeats):
            d = os.path.join(run_dir, f"setup-{i}")
            # A traced run reports no setup_s; it traces the last set-up
            # so set-up work (the query corpus's sketches) shows per layer.
            rec.set(bool(args.trace) and i == wl.setup_repeats - 1)
            t0 = time.perf_counter()
            wl.setup(d)
            setup_s.append(time.perf_counter() - t0)
            rec.set(False)
            if i:
                shutil.rmtree(os.path.join(run_dir, f"setup-{i - 1}"))
        wl.prepare()
        requests = wl.requests()
        client.phase = "warmup"
        for _ in range(wl.warmup):
            client.request(*next(requests))
        client.phase = "untraced"
        if args.trace:
            client.loop(requests, args.seconds / 2, wl.cycle)
            rec.set(True)
            client.phase = "traced"
            traced_wall = client.loop(requests, args.seconds / 2, wl.cycle)
            rec.set(False)
            rec.flush()
        else:
            client.loop(requests, args.seconds, wl.cycle)
        rss.stop()
        e2e = _end_to_end(wl, client, rss, setup_s)
        metrics = e2e
        if args.trace:
            metrics = _per_layer(wl, client, trace_dir, traced_wall,
                                 e2e["mix_p50_ms"][0])
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": _nproc(), "affinity_cpus": ncpu,
            "ray_num_cpus": ray.cluster_resources().get("CPU"),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "sizes": wl.sizes, "setup_s": setup_s,
            "request_ms": {p: [round(x * 1e3, 1) for x in xs]
                           for p, xs in client.latency.items()},
            "mix_ms": {p: [round(x * 1e3, 1) for x in xs]
                       for p, xs in client.mix.items()},
            "ops": _ops_detail(client), "failures": client.failures,
            "failed_ops_frac": client.failed / max(client.attempted, 1),
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
        }
    finally:
        ray.shutdown()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    with open(os.path.join(run_dir, "report.json"), "w") as f:
        json.dump(detail, f, indent=1, default=str)
    print(json.dumps(detail, default=str), file=sys.stderr)
    for d in os.listdir(run_dir):
        if d not in ("report.json", "trace"):
            shutil.rmtree(os.path.join(run_dir, d), ignore_errors=True)
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _attempt(args) -> int:
    # Only the result goes to the real stdout: everything else written to
    # fd 1 -- by this process, Ray or its workers -- lands on stderr.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        import colonnade_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import colonnade_ray from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


def _stop_session(driver_pid: int) -> None:
    """Kill what is left of the Ray session an aborted attempt started:
    every process whose command line names that session (Ray names it
    after the driver's pid), then wait until they have ended."""
    tag = f"_{driver_pid}/".encode()
    pids = []
    for d in os.listdir("/proc"):
        try:
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read()
        except (OSError, ValueError):
            continue
        if b"session_" in cmd and tag in cmd:
            pids.append(int(d))
            os.kill(int(d), signal.SIGKILL)
    deadline = time.monotonic() + 10
    while pids and time.monotonic() < deadline:
        time.sleep(0.1)
        pids = [p for p in pids if _alive(p)]
    shutil.rmtree(os.path.join(ROOT, ".perfbench_out", f"r{driver_pid}"),
                  ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _supervise(argv: list) -> int:
    """Measure in a child process, and once more if the child dies
    without a result: Ray's core worker can abort the driver process
    (a failed internal check when Ray Data cancels tasks).  A lost
    attempt counts as one failed request, so the result says so."""
    lost = 0
    for _ in range(2):
        child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                                 env=dict(os.environ, **{ATTEMPT_ENV: "1"}),
                                 stdout=subprocess.PIPE, text=True)
        out, _ = child.communicate()
        lines = out.strip().splitlines()
        if child.returncode == 0 and lines:
            result = json.loads(lines[-1])
            break
        if child.returncode == 2:      # bad arguments or no package: final
            return 2
        lost += 1
        print(f"perfbench: attempt exited with {child.returncode} and no "
              f"result; starting a fresh one", file=sys.stderr)
        _stop_session(child.pid)
    else:
        return 1
    result["attempted"] += lost
    result["failed"] += lost
    result["correct"] = result["correct"] and not lost
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _args(argv)
    if os.environ.get(ATTEMPT_ENV):
        return _attempt(args)
    return _supervise(argv)


if __name__ == "__main__":
    sys.exit(main())
