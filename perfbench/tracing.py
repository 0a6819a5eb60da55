"""Per-layer tracing from outside the program, for the traced run only.

The benchmark wraps the program's public functions where their callers
look them up: a module-level function is replaced in its defining module
*and* in every ``repro`` module that imported it by name (for example
``repro.serve.service`` holds its own ``execute_batch`` and
``prepare_entry``, ``repro.amc.ops`` its own ``inv_eigenvalue_margin``);
a method is replaced on its class. Each wrapped call records a span
(name, start, end, parent span, attributes such as the request seed);
hot inner calls (factorizations, eigen analyses, ranging reruns) only
count, and their counts ride on the enclosing span's record.

Spans stay in memory and are written out when the run ends. Worker
processes forked after the wrappers went in (net-tier shards, campaign
pool workers) leave through ``os._exit``, which skips exit handlers, so
in a forked child each record is appended to ``spans-<pid>.jsonl`` as it
finishes. A target the program no longer has is reported absent; the
run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, qualified name, attribute extractor or kind).
# Kinds: "span" (timed, attrs from the extractor), "count" (count only),
# "lookup" (cache lookup: records hit or miss), "runner" (wraps the
# returned batched runner's ``run``), "executor" (unit hand-off to the pool).


def _seed(args, kwargs, result):
    return {"seed": int(args[1].seed)}


def _batch(args, kwargs, result):
    seeds = args[2] if len(args) > 2 else kwargs["seeds"]
    return {"seeds": [int(s) for s in seeds]}


def _rhs_count(args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs_batch"]
    return {"n": len(rhs)}


def _frame(args, kwargs, result):
    header = args[0]
    blobs = args[1] if len(args) > 1 else kwargs.get("blobs", ())
    return {"bytes": len(result), "type": header.get("type"), "blobs": len(blobs)}


def _unit(args, kwargs, result):
    return {"unit": args[1].key}


TARGETS = (
    ("serve.service.submit_request", "repro.serve.service", "SolverService.submit_request", _seed),
    ("serve.service.metrics", "repro.serve.service", "SolverService.metrics", None),
    ("serve.batching.execute_batch", "repro.serve.batching", "execute_batch", _batch),
    ("serve.cache.prepare_entry", "repro.serve.cache", "prepare_entry", None),
    ("serve.cache.get_or_prepare", "repro.serve.cache", "PreparedSolverCache.get_or_prepare", "lookup"),
    ("serve.metrics.record_done", "repro.serve.metrics", "MetricsRecorder.record_done", None),
    ("core.blockamc.prepare", "repro.core.blockamc", "BlockAMCSolver.prepare", None),
    ("core.multistage.prepare", "repro.core.multistage", "MultiStageSolver.prepare", None),
    ("core.original.prepare", "repro.core.original", "OriginalAMCSolver.prepare", None),
    ("core.blockamc.solve", "repro.core.blockamc", "PreparedBlockAMC.solve", None),
    ("core.multistage.solve", "repro.core.multistage", "PreparedMultiStage.solve", None),
    ("core.blockamc.solve_many", "repro.core.blockamc", "PreparedBlockAMC.solve_many", _rhs_count),
    ("core.multistage.solve_many", "repro.core.multistage", "PreparedMultiStage.solve_many", _rhs_count),
    ("core.common.factorization", "repro.core.common", "FactoredSystem.__init__", "count"),
    ("core.common.ranging_rescale", "repro.core.common", "ranging_rescale", "count"),
    ("circuits.dynamics.eig_analysis", "repro.circuits.dynamics", "inv_eigenvalue_margin", "count"),
    ("serve.net.client.submit_request", "repro.serve.net.client", "NetClient.submit_request", _seed),
    ("serve.net.protocol.encode_frame", "repro.serve.net.protocol", "encode_frame", _frame),
    ("serve.net.protocol.decode_frame", "repro.serve.net.protocol", "decode_frame", None),
    ("serve.net.workers.submit", "repro.serve.net.workers", "ProcessWorkerPool.submit", None),
    ("serve.net.transport.publish_block", "repro.serve.net.transport", "publish_block", None),
    ("serve.net.transport.attach", "repro.serve.net.transport", "AttachedBlock.__init__", None),
    ("serve.net.transport.row", "repro.serve.net.transport", "AttachedBlock.row", None),
    ("campaigns.execute_unit", "repro.campaigns.runner", "execute_unit", _unit),
    ("campaigns.dispatch", "repro.campaigns.runner", "ProcessPoolExecutor", "executor"),
    ("campaigns.store.write_unit", "repro.campaigns.store", "ArtifactStore.write_unit", None),
    ("analysis.accuracy.batched_run", "repro.analysis.accuracy", "make_batched_runner", "runner"),
    ("analysis.accuracy.fallback_solve", "repro.core.multistage", "MultiStageSolver.solve", None),
)


class SpanLog:
    """In-memory span records of one process (appended per span once forked)."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.records: list = []
        self.pid = os.getpid()
        self.child = False
        self._file = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.records = []
        self.pid = os.getpid()
        self.child = True
        self._file = None
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = {}
        return local

    def count(self, name: str) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + 1

    def emit(self, name, span_id, parent, start, end, attrs) -> None:
        state = self._state()
        record = {
            "name": name,
            "id": span_id,
            "parent": parent,
            "start": start,
            "end": end,
            "pid": self.pid,
        }
        if attrs:
            record["attrs"] = attrs
        if state.counts:
            record["counts"], state.counts = state.counts, {}
        if not self.child:
            self.records.append(record)
            return
        if self._file is None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._file = open(self.trace_dir / f"spans-{self.pid}.jsonl", "a")
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def new_id(self) -> str:
        return f"{self.pid}.{next(self._ids)}"

    def dump(self) -> None:
        """Write this process's in-memory spans (the parent, at run end)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
        self.records = []


def _span_wrapper(log: SpanLog, name: str, fn, extract):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = log._state().stack
        parent = stack[-1] if stack else None
        span_id = log.new_id()
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = extract(args, kwargs, result) if extract is not None and result is not None else None
            log.emit(name, span_id, parent, start, end, attrs)

    return traced


def _count_wrapper(log: SpanLog, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        log.count(name)
        return fn(*args, **kwargs)

    return counted


def _lookup_wrapper(log: SpanLog, name: str, fn):
    @functools.wraps(fn)
    def lookup(self, *args, **kwargs):
        misses = self.stats.misses
        start = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            log.emit(
                name, log.new_id(), None, start, time.perf_counter(),
                {"hit": self.stats.misses == misses},
            )

    return lookup


def _runner_wrapper(log: SpanLog, name: str, fn):
    def extract(args, kwargs, result):
        return {"n": len(args[0])}

    @functools.wraps(fn)
    def make(*args, **kwargs):
        runner = fn(*args, **kwargs)
        if runner is not None:
            runner.run = _span_wrapper(log, name, runner.run, extract)
        return runner

    return make


def _executor_class(log: SpanLog, name: str, base):
    class TracedExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            if len(args) > 1 and hasattr(args[1], "key"):
                now = time.perf_counter()
                log.emit(name, log.new_id(), None, now, now, {"unit": args[1].key})
            return super().submit(fn, *args, **kwargs)

    return TracedExecutor


def resolve(module_name: str, qualname: str):
    """``(owner, attribute, object)`` of a target, or ``None`` when absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def replace_everywhere(owner, attribute: str, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` wherever callers look it up."""
    if isinstance(owner, type):
        setattr(owner, attribute, replacement)
        return
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def install(log: SpanLog, targets=TARGETS) -> list[str]:
    """Wrap every target; returns the names of targets the program lacks."""
    absent = []
    for name, module_name, qualname, kind in targets:
        found = resolve(module_name, qualname)
        if found is None:
            absent.append(name)
            continue
        owner, attribute, original = found
        if kind == "count":
            wrapper = _count_wrapper(log, name, original)
        elif kind == "lookup":
            wrapper = _lookup_wrapper(log, name, original)
        elif kind == "runner":
            wrapper = _runner_wrapper(log, name, original)
        elif kind == "executor":
            wrapper = _executor_class(log, name, original)
        else:
            wrapper = _span_wrapper(log, name, original, kind)
        replace_everywhere(owner, attribute, original, wrapper)
    return absent


def parse_delay(text: str) -> tuple[str, str, float]:
    """``module:qualname=seconds`` -> ``(module, qualname, seconds)``."""
    target, _, seconds = text.partition("=")
    module_name, _, qualname = target.partition(":")
    return module_name, qualname, float(seconds)


def install_delay(module_name: str, qualname: str, seconds: float) -> list[int]:
    """Add a fixed delay before every call of one target (sensitivity check).

    The delay spins rather than sleeps: it keeps a core busy and competes
    for the interpreter lock, as slower code in the layer would, where a
    sleep would release the lock outright. Returns a one-element list
    counting the delayed calls made in this process (forked children
    count in their own copy).
    """
    found = resolve(module_name, qualname)
    if found is None:
        raise SystemExit(f"sensitivity target {module_name}.{qualname} is absent")
    owner, attribute, original = found
    calls = [0]

    @functools.wraps(original)
    def delayed(*args, **kwargs):
        calls[0] += 1
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    replace_everywhere(owner, attribute, original, delayed)
    return calls


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "serve.service.submit_us_p50": "us",
    "serve.service.queue_wait_ms_p50": "ms",
    "serve.cache.prepare_calls": "count",
    "serve.cache.prepare_ms_p50": "ms",
    "serve.cache.program_ms_p50": "ms",
    "serve.cache.warmup_ms_p50": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.batching.batch_size_mean": "solves",
    "serve.batching.exec_ms_per_solve": "ms",
    "serve.batching.worker_busy_ratio": "ratio",
    "core.blockamc.solve_many_ms_per_solve": "ms",
    "core.multistage.solve_many_ms_per_solve": "ms",
    "core.scalar_solves": "count",
    "core.scalar_solve_ms_p50": "ms",
    "core.common.factorizations_per_solve": "1/solve",
    "circuits.dynamics.eig_analyses_per_solve": "1/solve",
    "core.common.ranging_reruns_per_solve": "1/solve",
    "serve.metrics.record_us_p50": "us",
    "serve.metrics.snapshot_ms_p50": "ms",
    "serve.net.client.submit_us_p50": "us",
    "serve.net.protocol.encode_us_p50": "us",
    "serve.net.protocol.decode_us_p50": "us",
    "serve.net.protocol.bytes_per_solve": "B/solve",
    "serve.net.workers.dispatch_us_p50": "us",
    "serve.net.transport.publish_us_p50": "us",
    "serve.net.transport.copyout_us_p50": "us",
    "serve.net.overhead_ms_p50": "ms",
    "serve.net.resends": "count",
    "campaigns.unit_ms_p50": "ms",
    "campaigns.dispatch_wait_ms_p50": "ms",
    "campaigns.store.commit_ms_p50": "ms",
    "analysis.accuracy.batched_ms_per_trial": "ms",
    "analysis.accuracy.fallback_ms_per_trial": "ms",
    "trace.overhead_pct": "%",
}

#: Which wrapped targets each per-layer metric reads (absent -> reported).
LAYER_SOURCES = {
    "serve.service.submit_us_p50": ("serve.service.submit_request",),
    "serve.service.queue_wait_ms_p50": ("serve.service.submit_request", "serve.batching.execute_batch"),
    "serve.cache.prepare_calls": ("serve.cache.prepare_entry",),
    "serve.cache.prepare_ms_p50": ("serve.cache.prepare_entry",),
    "serve.cache.program_ms_p50": ("serve.cache.prepare_entry", "core.blockamc.prepare", "core.multistage.prepare"),
    "serve.cache.warmup_ms_p50": ("serve.cache.prepare_entry", "core.blockamc.solve", "core.multistage.solve"),
    "serve.cache.hit_ratio": ("serve.cache.get_or_prepare",),
    "serve.batching.batch_size_mean": ("serve.batching.execute_batch",),
    "serve.batching.exec_ms_per_solve": ("serve.batching.execute_batch",),
    "serve.batching.worker_busy_ratio": ("serve.batching.execute_batch", "serve.cache.prepare_entry"),
    "core.blockamc.solve_many_ms_per_solve": ("core.blockamc.solve_many",),
    "core.multistage.solve_many_ms_per_solve": ("core.multistage.solve_many",),
    "core.scalar_solves": ("core.blockamc.solve", "core.multistage.solve"),
    "core.scalar_solve_ms_p50": ("core.blockamc.solve", "core.multistage.solve"),
    "core.common.factorizations_per_solve": ("core.common.factorization",),
    "circuits.dynamics.eig_analyses_per_solve": ("circuits.dynamics.eig_analysis",),
    "core.common.ranging_reruns_per_solve": ("core.common.ranging_rescale",),
    "serve.metrics.record_us_p50": ("serve.metrics.record_done",),
    "serve.metrics.snapshot_ms_p50": ("serve.service.metrics",),
    "serve.net.client.submit_us_p50": ("serve.net.client.submit_request",),
    "serve.net.protocol.encode_us_p50": ("serve.net.protocol.encode_frame",),
    "serve.net.protocol.decode_us_p50": ("serve.net.protocol.decode_frame",),
    "serve.net.protocol.bytes_per_solve": ("serve.net.protocol.encode_frame",),
    "serve.net.workers.dispatch_us_p50": ("serve.net.workers.submit",),
    "serve.net.transport.publish_us_p50": ("serve.net.transport.publish_block",),
    "serve.net.transport.copyout_us_p50": ("serve.net.transport.attach", "serve.net.transport.row"),
    "serve.net.overhead_ms_p50": ("serve.batching.execute_batch",),
    "serve.net.resends": ("serve.net.protocol.encode_frame",),
    "campaigns.unit_ms_p50": ("campaigns.execute_unit",),
    "campaigns.dispatch_wait_ms_p50": ("campaigns.dispatch", "campaigns.execute_unit"),
    "campaigns.store.commit_ms_p50": ("campaigns.store.write_unit",),
    "analysis.accuracy.batched_ms_per_trial": ("analysis.accuracy.batched_run",),
    "analysis.accuracy.fallback_ms_per_trial": ("analysis.accuracy.fallback_solve",),
    "trace.overhead_pct": (),
}


def load_spans(trace_dir) -> list[dict]:
    """Every span record written under ``trace_dir`` (all processes)."""
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def _p50(values, scale: float) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _match_waits(submit_ends: dict, batch_starts: dict) -> list[float]:
    """Pair each submit (by seed, in time order) with the next batch carrying it."""
    waits = []
    for seed, ends in submit_ends.items():
        starts = sorted(batch_starts.get(seed, ()))
        j = 0
        for end in sorted(ends):
            while j < len(starts) and starts[j] < end:
                j += 1
            if j == len(starts):
                break
            waits.append(starts[j] - end)
            j += 1
    return waits


def layer_metrics(spans, window, solves: int, workers: int, requests=()) -> dict:
    """Per-layer metrics of one traced run.

    ``window`` is the timed phase ``(start, end)`` on the shared
    monotonic clock; ``requests`` holds ``(seed, submitted, answered)``
    of the client's requests (net tier: request latency minus the
    execution time of the batch that carried it).
    """
    t0, t1 = window
    timed = defaultdict(list)
    every = defaultdict(list)
    counts: dict = defaultdict(int)
    by_id = {}
    for span in spans:
        every[span["name"]].append(span)
        by_id[span["id"]] = span
        if t0 <= span["start"] <= t1:
            timed[span["name"]].append(span)
            for name, value in span.get("counts", {}).items():
                counts[name] += value

    def durations(name, pool=timed):
        return [s["end"] - s["start"] for s in pool[name]]

    def per(name, unit_scale=1e3):
        spans_ = timed[name]
        total = sum(s["attrs"]["n"] for s in spans_ if "attrs" in s)
        return sum(durations(name)) / total * unit_scale if total else 0.0

    def nested_in_prepare(names):
        return [
            s["end"] - s["start"]
            for name in names
            for s in every[name]
            if by_id.get(s["parent"], {}).get("name") == "serve.cache.prepare_entry"
        ]

    per_solve = (lambda count: count / solves) if solves else (lambda count: 0.0)
    batches = [s for s in timed["serve.batching.execute_batch"] if "attrs" in s]
    batch_solves = sum(len(s["attrs"]["seeds"]) for s in batches)
    exec_time = sum(s["end"] - s["start"] for s in batches)
    prepare_time = sum(durations("serve.cache.prepare_entry"))
    lookups = timed["serve.cache.get_or_prepare"]
    scalar = timed["core.blockamc.solve"] + timed["core.multistage.solve"]
    frames = [s for s in timed["serve.net.protocol.encode_frame"] if "attrs" in s]

    submit_ends = defaultdict(list)
    for s in timed["serve.service.submit_request"]:
        if "attrs" in s:
            submit_ends[s["attrs"]["seed"]].append(s["end"])
    batch_starts = defaultdict(list)
    batch_of = {}
    for s in batches:
        for seed in s["attrs"]["seeds"]:
            batch_starts[seed].append(s["start"])
            batch_of[seed] = s["end"] - s["start"]
    # Net tier only: the thread tier's latency is mostly its queue wait.
    overhead = [
        (answered - submitted) - batch_of[seed]
        for seed, submitted, answered in requests
        if seed in batch_of and timed["serve.net.client.submit_request"]
    ]
    dispatched = {
        s["attrs"]["unit"]: s["start"] for s in every["campaigns.dispatch"] if "attrs" in s
    }
    dispatch_waits = [
        s["start"] - dispatched[s["attrs"]["unit"]]
        for s in timed["campaigns.execute_unit"]
        if "attrs" in s and s["attrs"]["unit"] in dispatched
    ]
    fallback = durations("analysis.accuracy.fallback_solve")
    wall = max(t1 - t0, 1e-9)

    return {
        "serve.service.submit_us_p50": _p50(durations("serve.service.submit_request"), 1e6),
        "serve.service.queue_wait_ms_p50": _p50(_match_waits(submit_ends, batch_starts), 1e3),
        "serve.cache.prepare_calls": float(len(timed["serve.cache.prepare_entry"])),
        "serve.cache.prepare_ms_p50": _p50(durations("serve.cache.prepare_entry", every), 1e3),
        "serve.cache.program_ms_p50": _p50(
            nested_in_prepare(("core.blockamc.prepare", "core.multistage.prepare")), 1e3
        ),
        "serve.cache.warmup_ms_p50": _p50(
            nested_in_prepare(("core.blockamc.solve", "core.multistage.solve")), 1e3
        ),
        "serve.cache.hit_ratio": (
            sum(1 for s in lookups if s["attrs"]["hit"]) / len(lookups) if lookups else 0.0
        ),
        "serve.batching.batch_size_mean": batch_solves / len(batches) if batches else 0.0,
        "serve.batching.exec_ms_per_solve": exec_time / batch_solves * 1e3 if batch_solves else 0.0,
        "serve.batching.worker_busy_ratio": (
            (exec_time + prepare_time) / (wall * workers) if batches else 0.0
        ),
        "core.blockamc.solve_many_ms_per_solve": per("core.blockamc.solve_many"),
        "core.multistage.solve_many_ms_per_solve": per("core.multistage.solve_many"),
        "core.scalar_solves": float(len(scalar)),
        "core.scalar_solve_ms_p50": _p50([s["end"] - s["start"] for s in scalar], 1e3),
        "core.common.factorizations_per_solve": per_solve(counts["core.common.factorization"]),
        "circuits.dynamics.eig_analyses_per_solve": per_solve(counts["circuits.dynamics.eig_analysis"]),
        "core.common.ranging_reruns_per_solve": per_solve(counts["core.common.ranging_rescale"]),
        "serve.metrics.record_us_p50": _p50(durations("serve.metrics.record_done"), 1e6),
        "serve.metrics.snapshot_ms_p50": _p50(durations("serve.service.metrics"), 1e3),
        "serve.net.client.submit_us_p50": _p50(durations("serve.net.client.submit_request"), 1e6),
        "serve.net.protocol.encode_us_p50": _p50(durations("serve.net.protocol.encode_frame"), 1e6),
        "serve.net.protocol.decode_us_p50": _p50(durations("serve.net.protocol.decode_frame"), 1e6),
        "serve.net.protocol.bytes_per_solve": per_solve(sum(s["attrs"]["bytes"] for s in frames)),
        "serve.net.workers.dispatch_us_p50": _p50(durations("serve.net.workers.submit"), 1e6),
        "serve.net.transport.publish_us_p50": _p50(durations("serve.net.transport.publish_block"), 1e6),
        "serve.net.transport.copyout_us_p50": _p50(
            durations("serve.net.transport.attach") + durations("serve.net.transport.row"), 1e6
        ),
        "serve.net.overhead_ms_p50": _p50(overhead, 1e3),
        "serve.net.resends": float(
            sum(1 for s in frames if s["attrs"]["type"] == "solve" and s["attrs"]["blobs"] > 1)
        ),
        "campaigns.unit_ms_p50": _p50(durations("campaigns.execute_unit"), 1e3),
        "campaigns.dispatch_wait_ms_p50": _p50(dispatch_waits, 1e3),
        "campaigns.store.commit_ms_p50": _p50(durations("campaigns.store.write_unit"), 1e3),
        "analysis.accuracy.batched_ms_per_trial": per("analysis.accuracy.batched_run"),
        "analysis.accuracy.fallback_ms_per_trial": (
            sum(fallback) / len(fallback) * 1e3 if fallback else 0.0
        ),
    }
