"""Service telemetry: throughput, latency quantiles, batching, caching.

A :class:`MetricsRecorder` accumulates counters from the submit path and
the shard workers; :meth:`MetricsRecorder.snapshot` folds in the shard
cache stats and freezes everything into a :class:`ServiceMetrics` —
machine-readable via :meth:`ServiceMetrics.as_dict`, human-readable via
:meth:`ServiceMetrics.table` (rendered with
:func:`repro.analysis.reporting.format_table`, like every other bench
artifact in this repo).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.serve.cache import CacheStats

__all__ = ["CountLog", "MetricsRecorder", "ServiceMetrics"]


@dataclass(frozen=True)
class ServiceMetrics:
    """Immutable snapshot of service telemetry."""

    requests_submitted: int
    requests_completed: int
    requests_failed: int
    requests_rejected: int
    requests_shed: int
    deadline_misses: int
    retries: int
    breaker_transitions: int
    degraded: int
    shard_crashes: int
    batches_executed: int
    batch_size_histogram: dict[int, int]
    mean_batch_size: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    throughput_rps: float
    wall_s: float
    cache: CacheStats
    prepare_s: float
    #: Per-stage latency breakdown fed from tracing spans (``repro.obs``):
    #: stage name → ``{count, total_s, mean_s, p95_s, max_s}``. Empty
    #: when tracing is disabled — stages are observed, never synthesized.
    stages: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat, JSON-serializable view (cache counters inlined)."""
        out = {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_rejected": self.requests_rejected,
            "requests_shed": self.requests_shed,
            "deadline_misses": self.deadline_misses,
            "retries": self.retries,
            "breaker_transitions": self.breaker_transitions,
            "degraded": self.degraded,
            "shard_crashes": self.shard_crashes,
            "batches_executed": self.batches_executed,
            "batch_size_histogram": dict(sorted(self.batch_size_histogram.items())),
            "mean_batch_size": self.mean_batch_size,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_max_s": self.latency_max_s,
            "throughput_rps": self.throughput_rps,
            "wall_s": self.wall_s,
            "prepare_s": self.prepare_s,
            "stages": {name: dict(stats) for name, stats in sorted(self.stages.items())},
        }
        for name, value in self.cache.as_dict().items():
            out[f"cache_{name}"] = value
        return out

    def as_json(self) -> str:
        """JSON encoding of :meth:`as_dict` (histogram keys stringified).

        This is the canonical serialized form: the network metrics
        response, the bench artifacts, and the status CLI all consume
        it instead of reaching into recorder internals.
        """
        data = self.as_dict()
        data["batch_size_histogram"] = {
            str(size): count for size, count in data["batch_size_histogram"].items()
        }
        return json.dumps(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceMetrics":
        """Rebuild a snapshot from its :meth:`as_dict`/:meth:`as_json` form."""
        return cls(
            requests_submitted=data["requests_submitted"],
            requests_completed=data["requests_completed"],
            requests_failed=data["requests_failed"],
            requests_rejected=data["requests_rejected"],
            requests_shed=data["requests_shed"],
            deadline_misses=data["deadline_misses"],
            retries=data["retries"],
            breaker_transitions=data["breaker_transitions"],
            degraded=data["degraded"],
            shard_crashes=data["shard_crashes"],
            batches_executed=data["batches_executed"],
            batch_size_histogram={
                int(size): count
                for size, count in data["batch_size_histogram"].items()
            },
            mean_batch_size=data["mean_batch_size"],
            latency_p50_s=data["latency_p50_s"],
            latency_p95_s=data["latency_p95_s"],
            latency_p99_s=data["latency_p99_s"],
            latency_mean_s=data["latency_mean_s"],
            latency_max_s=data["latency_max_s"],
            throughput_rps=data["throughput_rps"],
            wall_s=data["wall_s"],
            cache=CacheStats(
                hits=data["cache_hits"],
                misses=data["cache_misses"],
                evictions=data["cache_evictions"],
            ),
            prepare_s=data["prepare_s"],
            # .get: payloads predating the tracing stages survive round-trip.
            stages={
                name: dict(stats) for name, stats in data.get("stages", {}).items()
            },
        )

    @classmethod
    def from_json(cls, payload: str) -> "ServiceMetrics":
        """Rebuild a snapshot from its :meth:`as_json` string."""
        return cls.from_dict(json.loads(payload))

    def table(self, title: str = "solver service metrics") -> str:
        """ASCII table of the headline numbers."""
        histogram = " ".join(
            f"{size}x{count}" for size, count in sorted(self.batch_size_histogram.items())
        )
        rows = [
            ["requests completed", f"{self.requests_completed}/{self.requests_submitted}"],
            ["requests failed", str(self.requests_failed)],
            ["requests rejected", str(self.requests_rejected)],
            ["requests shed", str(self.requests_shed)],
            ["deadline misses", str(self.deadline_misses)],
            ["isolation retries", str(self.retries)],
            ["breaker transitions", str(self.breaker_transitions)],
            ["degraded (fallback)", str(self.degraded)],
            ["shard crashes", str(self.shard_crashes)],
            ["throughput (solve/s)", f"{self.throughput_rps:.1f}"],
            ["latency p50 (ms)", f"{self.latency_p50_s * 1e3:.2f}"],
            ["latency p95 (ms)", f"{self.latency_p95_s * 1e3:.2f}"],
            ["latency p99 (ms)", f"{self.latency_p99_s * 1e3:.2f}"],
            ["latency mean (ms)", f"{self.latency_mean_s * 1e3:.2f}"],
            ["latency max (ms)", f"{self.latency_max_s * 1e3:.2f}"],
            ["wall clock (s)", f"{self.wall_s:.3f}"],
            ["batches executed", str(self.batches_executed)],
            ["mean batch size", f"{self.mean_batch_size:.2f}"],
            ["batch-size histogram", histogram or "-"],
            ["cache hit rate", f"{self.cache.hit_rate * 100:.1f}%"],
            ["cache hits/misses/evictions",
             f"{self.cache.hits}/{self.cache.misses}/{self.cache.evictions}"],
            ["prepare time (s)", f"{self.prepare_s:.3f}"],
        ]
        for name, stats in sorted(self.stages.items()):
            rows.append(
                [
                    f"stage {name} (ms)",
                    f"mean {stats['mean_s'] * 1e3:.2f}, p95 {stats['p95_s'] * 1e3:.2f}"
                    f", n={stats['count']}",
                ]
            )
        return format_table(["metric", "value"], rows, title=title)


@dataclass
class MetricsRecorder:
    """Thread-safe accumulator behind :class:`ServiceMetrics`."""

    _lock: threading.Lock = field(default_factory=threading.Lock)
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    shed: int = 0
    deadline_misses: int = 0
    retries: int = 0
    breaker_transitions: int = 0
    degraded: int = 0
    shard_crashes: int = 0
    batch_sizes: Counter = field(default_factory=Counter)
    latencies: list = field(default_factory=list)
    prepare_s: float = 0.0
    first_submit_t: float | None = None
    last_done_t: float | None = None
    #: Stage name → per-occurrence durations (fed by the tracing hook).
    stage_s: dict = field(default_factory=dict)

    def record_submit(self) -> None:
        """Count one accepted request (stamps the throughput window start)."""
        with self._lock:
            self.submitted += 1
            if self.first_submit_t is None:
                self.first_submit_t = time.perf_counter()

    def record_rejected(self) -> None:
        """Count one request refused at submit (backpressure or open breaker)."""
        with self._lock:
            self.rejected += 1

    def record_shed(self) -> None:
        """Count one request refused by latency-aware load shedding."""
        with self._lock:
            self.shed += 1

    def record_deadline_miss(self) -> None:
        """Count one request whose deadline expired before execution."""
        with self._lock:
            self.deadline_misses += 1

    def record_retry(self) -> None:
        """Count one blast-radius re-execution of a failed batch's slice."""
        with self._lock:
            self.retries += 1

    def record_breaker_transition(self) -> None:
        """Count one circuit-breaker state change (trip, probe, close)."""
        with self._lock:
            self.breaker_transitions += 1

    def record_degraded(self) -> None:
        """Count one request answered by the digital fallback ladder."""
        with self._lock:
            self.degraded += 1

    def record_shard_crash(self) -> None:
        """Count one shard worker crash (caught by the last-resort handler)."""
        with self._lock:
            self.shard_crashes += 1

    def record_batch(self, size: int) -> None:
        """Count one executed batch of ``size`` requests."""
        with self._lock:
            self.batch_sizes[size] += 1

    def record_prepare(self, seconds: float) -> None:
        """Accumulate time spent programming macros (cache misses)."""
        with self._lock:
            self.prepare_s += seconds

    def record_stage(self, stage: str, seconds: float) -> None:
        """Accumulate one per-stage duration (queue, prepare, execute, ...).

        Fed by the :mod:`repro.obs` span-finish hook the service
        registers when tracing is enabled; with tracing off no stage
        data exists and the snapshot's ``stages`` stays empty.
        """
        with self._lock:
            self.stage_s.setdefault(stage, []).append(seconds)

    def record_done(self, latency_s: float, *, failed: bool = False) -> None:
        """Count one finished request and its submit-to-done latency."""
        with self._lock:
            if failed:
                self.failed += 1
            else:
                self.completed += 1
            self.latencies.append(latency_s)
            self.last_done_t = time.perf_counter()

    def replay(self, calls) -> None:
        """Apply counts a :class:`CountLog` kept, in order."""
        for name, args in calls:
            getattr(self, name)(*args)

    def snapshot(self, cache: CacheStats) -> ServiceMetrics:
        """Freeze current counters (plus aggregated cache stats)."""
        with self._lock:
            latencies = np.asarray(self.latencies, dtype=float)
            sizes = dict(self.batch_sizes)
            batches = sum(sizes.values())
            coalesced = sum(size * count for size, count in sizes.items())
            wall = (
                self.last_done_t - self.first_submit_t
                if self.first_submit_t is not None and self.last_done_t is not None
                else 0.0
            )
            stages = {}
            for stage, values in sorted(self.stage_s.items()):
                arr = np.asarray(values, dtype=float)
                stages[stage] = {
                    "count": int(arr.size),
                    "total_s": float(arr.sum()),
                    "mean_s": float(arr.mean()),
                    "p95_s": float(np.quantile(arr, 0.95)),
                    "max_s": float(arr.max()),
                }
            return ServiceMetrics(
                requests_submitted=self.submitted,
                requests_completed=self.completed,
                requests_failed=self.failed,
                requests_rejected=self.rejected,
                requests_shed=self.shed,
                deadline_misses=self.deadline_misses,
                retries=self.retries,
                breaker_transitions=self.breaker_transitions,
                degraded=self.degraded,
                shard_crashes=self.shard_crashes,
                batches_executed=batches,
                batch_size_histogram=sizes,
                mean_batch_size=coalesced / batches if batches else 0.0,
                latency_p50_s=float(np.quantile(latencies, 0.5)) if latencies.size else 0.0,
                latency_p95_s=float(np.quantile(latencies, 0.95)) if latencies.size else 0.0,
                latency_p99_s=float(np.quantile(latencies, 0.99)) if latencies.size else 0.0,
                latency_mean_s=float(latencies.mean()) if latencies.size else 0.0,
                latency_max_s=float(latencies.max()) if latencies.size else 0.0,
                throughput_rps=self.completed / wall if wall > 0.0 else 0.0,
                wall_s=wall,
                cache=cache,
                prepare_s=self.prepare_s,
                stages=stages,
            )


class CountLog:
    """Counts made under :class:`MetricsRecorder`'s ``record_*`` names, kept as calls.

    A process-tier worker counts into one, ships :meth:`drain` with each
    response message, and the front end applies the calls to its own
    recorder with :meth:`MetricsRecorder.replay`.
    """

    def __init__(self):
        self.calls: list = []

    def __getattr__(self, name: str):
        if not name.startswith("record_") or not hasattr(MetricsRecorder, name):
            raise AttributeError(name)

        def record(*args) -> None:
            self.calls.append((name, args))

        return record

    def drain(self) -> list:
        """The calls kept since the previous drain."""
        calls, self.calls = self.calls, []
        return calls
