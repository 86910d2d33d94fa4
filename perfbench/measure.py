"""The closed-loop request driver, timings and process memory."""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
import traceback

from .trace import SpanRecorder


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q: float):
    """q-quantile of ``xs``, or None unless ten samples lie beyond it."""
    if len(xs) * (1 - q) < 10:
        return None
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


def _proc_tree() -> dict:
    """pid -> parent pid for every process visible in /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                # comm may contain spaces; the fields after it do not
                out[int(d)] = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # the process just exited
            continue
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        return 0


_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


class RssSampler:
    """Peak over time of the resident memory summed over the driver and
    its live Ray worker processes, sampled by a background thread."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        me = os.getpid()
        kids: dict = {}
        for pid, ppid in _proc_tree().items():
            kids.setdefault(ppid, []).append(pid)
        todo, seen = [me], set()
        while todo:
            pid = todo.pop()
            if pid not in seen:
                seen.add(pid)
                todo.extend(kids.get(pid, []))
        total = sum(_rss_kb(pid) for pid in seen if pid == me or _is_ray_worker(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def total_mb(self) -> float:
        return self.peak_kb / 1024.0


class Client:
    """One client thread in a closed loop: each request starts when the
    previous one has returned.  ``call`` times one public-API call; a
    request's latency is the sum of its calls, so the benchmark's own
    answer checks are not counted in it."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.latency: dict = {"warmup": [], "untraced": [], "traced": []}
        self.mix: dict = {"warmup": [], "untraced": [], "traced": []}  # cycle sums
        self.calls: dict = {}      # op -> [seconds], warm-up excluded
        self.phase = "untraced"
        self.failures: list = []
        self.op_stats: dict = {}   # op -> summed pruning counts (traced)
        self._req_s = 0.0

    def call(self, op: str, fn, *args, **kwargs):
        layer = "functions" if op.startswith("functions.") else "pipelines"
        name = op if layer == "functions" else f"pipelines.{op}"
        with self.rec.span(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        self._req_s += dt
        if self.phase != "warmup":
            self.calls.setdefault(op, []).append(dt)
        return out

    def request(self, kind: str, fn) -> bool:
        """Run one request; ``fn()`` makes calls and returns whether every
        answer was right.  A raise or a wrong answer counts as failed and
        the loop goes on."""
        self.attempted += 1
        self._req_s = 0.0
        ok = False
        with self.rec.span("request", kind=kind):
            try:
                ok = bool(fn())
            except Exception:
                traceback.print_exc(file=sys.stderr)
            if not ok:
                self.failed += 1
                self.failures.append(kind)
                print(f"perfbench: request {kind} failed", file=sys.stderr)
        self.latency[self.phase].append(self._req_s)
        return ok

    def loop(self, requests, seconds: float, cycle: int) -> float:
        """Issue requests from the endless iterator in whole cycles of
        ``cycle`` requests until ``seconds`` have passed; returns wall s."""
        t0 = time.perf_counter()
        n = 0
        while n % cycle or not n or time.perf_counter() - t0 < seconds:
            self.request(*next(requests))
            n += 1
            if n % cycle == 0:
                self.mix[self.phase].append(sum(self.latency[self.phase][-cycle:]))
        return time.perf_counter() - t0
