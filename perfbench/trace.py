"""Spans at colonnade_ray's layer boundaries, recorded from the benchmark.

The driver records a span around every request and every public-API
call it makes (the ``pipelines`` and ``functions`` layers).  In a traced
run, ``patch`` wraps the stage and codec entry points in ``TARGETS`` so
each call records a span: name, start, end, parent span, process and
workload.  The driver calls it directly; every Ray worker calls it at
start-up through ``install`` (Ray's ``worker_process_setup_hook``).  The
program's own code is not edited; the wrappers replace module attributes
in the running process only.

Wrapped calls record only while the flag file ``<trace_dir>/on`` exists,
so one traced run can time an untraced half and a traced half and report
the tracing overhead.  Spans stay in memory; a worker appends its spans
to ``spans-<pid>.jsonl`` when its outermost wrapped call returns (Ray can
kill a worker without running exit handlers), and the driver writes its
own at the end of the run.

Clock: ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by all
processes of the machine, so worker spans line up with driver spans.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
WORKLOAD_ENV = "PERFBENCH_WORKLOAD"

# (module, attribute, span name).  Several attributes may share a span
# name: the three sketch builders are one "bloomzone.build" boundary.
TARGETS = [
    ("colonnade_ray.codecs.columns", "encode_column", "codecs.encode_column"),
    ("colonnade_ray.codecs.columns", "decode_column", "codecs.decode_column"),
    ("colonnade_ray.stages.transport", "pack_list_columns",
     "stages.transport.pack_list_columns"),
    ("colonnade_ray.stages.encode", "encode_chunk", "stages.encode.encode_chunk"),
    ("colonnade_ray.stages.bloomzone", "build_bloom", "stages.bloomzone.build"),
    ("colonnade_ray.stages.bloomzone", "build_hll", "stages.bloomzone.build"),
    ("colonnade_ray.stages.bloomzone", "build_quant", "stages.bloomzone.build"),
    ("colonnade_ray.stages.decode", "decode_chunk_row",
     "stages.decode.decode_chunk_row"),
    ("colonnade_ray.stages.verify", "batch_digest", "stages.verify.batch_digest"),
    ("colonnade_ray.pipelines.encode_pipeline", "train_shared_dicts",
     "pipelines.train_shared_dicts"),
    ("colonnade_ray.functions.dedup", "JaccardVerifyTexts.__call__",
     "functions.dedup.verify"),
]

# Modules whose `from x import f` aliases must be re-pointed too.
_ALIAS_MODULES = [
    "colonnade_ray.codecs", "colonnade_ray.stages", "colonnade_ray.pipelines",
    "colonnade_ray.pipelines.deletes", "colonnade_ray.pipelines.evolve",
    "colonnade_ray.pipelines.merge", "colonnade_ray.functions.dedup",
]

LAYERS = ("pipelines", "functions", "stages", "codecs")


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0) or 0)


class SpanRecorder:
    """Spans of one process, kept in memory until ``flush``."""

    def __init__(self, trace_dir: str, workload: str, flush_each_top: bool):
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self.flag = os.path.join(trace_dir, "on")
        self.workload = workload
        self.flush_each_top = flush_each_top
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []      # (span id, name) of open spans
        self.encode_cols: list = []  # columns of the traced encode_chunk
        self._ids = itertools.count()

    def on(self) -> bool:
        return os.path.exists(self.flag)

    def set(self, on: bool) -> None:
        if on:
            open(self.flag, "w").close()
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def begin(self, name: str) -> tuple:
        sid = f"{self.pid}-{next(self._ids)}"
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def end(self, token: tuple, name: str, attrs: dict) -> None:
        sid, parent, t0 = token
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": t0, "end": t1, "pid": self.pid,
                           "workload": self.workload, **attrs})
        if self.flush_each_top and not self.stack:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Driver-side span; records only while tracing is on."""
        if not self.stack and not self.on():
            yield attrs
            return
        token = self.begin(name)
        try:
            yield attrs
        finally:
            self.end(token, name, attrs)

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.path, "a") as f:
            f.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans.clear()


def _attrs_before(rec: SpanRecorder, name: str, args, kwargs) -> dict:
    if name == "codecs.encode_column":
        attrs = {"bytes": _nbytes(args[0] if args else kwargs.get("arr"))}
        if rec.stack and rec.stack[-1][1] == "stages.encode.encode_chunk" \
                and rec.encode_cols:
            attrs["col"] = rec.encode_cols.pop(0)
        return attrs
    if name == "stages.encode.encode_chunk":
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        rec.encode_cols = [bc.field.name for bc in bound.columns]
        return {}
    if name == "stages.transport.pack_list_columns":
        return {"bytes_in": _nbytes(args[0] if args else kwargs.get("batch"))}
    if name == "functions.dedup.verify":
        return {"rows_in": len(args[1])}
    return {}


def _attrs_after(name: str, args, kwargs, result, attrs: dict) -> None:
    if name == "codecs.decode_column":
        meta = args[1] if len(args) > 1 else kwargs.get("meta") or {}
        attrs["col"] = meta.get("name")
        attrs["bytes"] = _nbytes(result)
    elif name == "stages.transport.pack_list_columns":
        attrs["bytes_out"] = _nbytes(result)
    elif name == "functions.dedup.verify":
        attrs["rows_out"] = len(result)


def _wrap(rec: SpanRecorder, orig, name: str):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        if not rec.stack and not rec.on():
            return orig(*args, **kwargs)
        attrs = _attrs_before(rec, name, args, kwargs)
        token = rec.begin(name)
        try:
            result = orig(*args, **kwargs)
            _attrs_after(name, args, kwargs, result, attrs)
            return result
        finally:
            rec.end(token, name, attrs)

    return traced


def patch(rec: SpanRecorder) -> None:
    """Wrap every TARGETS entry point (and its import aliases) in this
    process so calls record spans into ``rec``."""
    for mod in [t[0] for t in TARGETS] + _ALIAS_MODULES:
        importlib.import_module(mod)
    loaded = [m for n, m in list(sys.modules.items())
              if n.startswith("colonnade_ray") and m is not None]
    for mod_name, attr, name in TARGETS:
        owner = sys.modules[mod_name]
        *cls_path, leaf = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        wrapped = _wrap(rec, orig, name)
        setattr(owner, leaf, wrapped)
        if cls_path:
            continue
        for m in loaded:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapped)


def install():
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        patch(SpanRecorder(trace_dir, os.environ.get(WORKLOAD_ENV, ""),
                           flush_each_top=True))


# ---------------------------------------------------------------------------
# Analysis


def load_spans(trace_dir: str) -> list:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def link_workers(spans: list, driver_pid: int) -> None:
    """Give each outermost worker span the driver call span whose
    interval contains its start (one client, so calls never overlap)."""
    calls = sorted((s for s in spans if s["pid"] == driver_pid
                    and layer_of(s["name"]) in ("pipelines", "functions")
                    and s["parent"] is not None),
                   key=lambda s: s["start"])
    starts = [c["start"] for c in calls]
    for s in spans:
        if s["pid"] == driver_pid or s["parent"] is not None:
            continue
        i = bisect.bisect_right(starts, s["start"]) - 1
        if i >= 0 and calls[i]["end"] >= s["start"]:
            s["parent"] = calls[i]["id"]


def self_times(spans: list) -> dict:
    """Per layer: sum over its spans of duration minus the part of the
    span's interval that its child spans cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {layer: 0.0 for layer in LAYERS}
    out["bench"] = 0.0
    for s in spans:
        layer = layer_of(s["name"])
        if layer == "request":
            layer = "bench"
        if layer not in out:
            continue
        dur = s["end"] - s["start"]
        out[layer] += dur - covered(children.get(s["id"], []), s["start"], s["end"])
    return out
