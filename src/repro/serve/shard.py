"""The shard engine: one shard's batching, caching and failure ladder.

Both serving tiers run the same loop step per shard — the thread tier
(:class:`~repro.serve.service.SolverService`) on a worker thread, the
process tier (:mod:`repro.serve.net.workers`) in a worker process — and
:class:`ShardEngine` is that step, written once: breaker gate →
prepared entry (``serve.prepare``) → work-conserving linger → deadline
expiry → :func:`~repro.serve.batching.execute_batch` → bisecting
isolation → digital fallback or typed failure. A tier subclasses it and
supplies only what differs by transport: :meth:`ShardEngine._pull`
admits the next message from its queue, and :meth:`ShardEngine._deliver`
hands finished ``(job, outcome, status)`` triples to the caller (a
future, or a response-queue message); it may also replace or wrap the
kernel call, :meth:`ShardEngine._run_kernel`. Counts go through
:class:`~repro.serve.metrics.MetricsRecorder`'s method names, so failure
semantics and metrics are identical across tiers by construction.

A *job* is whatever the tier queues; the engine reads its ``key``,
``hardware``, ``matrix``, ``b``, ``seed``, ``deadline_at``
(``time.perf_counter()`` instant or ``None``), ``submitted_at`` (start
of its queue stage, ``perf_counter``) and ``span`` (the tier's request
span, parent of the lifecycle stages).
"""

from __future__ import annotations

import threading
import time
from itertools import repeat

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.obs import tracer as obs
from repro.serve.batching import MicroBatcher, execute_batch
from repro.serve.cache import PreparedKey, PreparedSolverCache, prepare_entry
from repro.serve.requests import SolveRequest
from repro.serve.resilience import (
    DEGRADABLE_ERRORS,
    CircuitBreaker,
    digital_fallback,
    prune_breakers,
)

__all__ = ["POLL_S", "ShardEngine", "stage_metrics_hook"]

#: Statuses of a successful outcome (:mod:`repro.serve.net.protocol`
#: answers with these); a failed outcome has status ``None`` and the
#: exception as its outcome.
OK = "ok"
DEGRADED = "degraded"

#: Idle-poll period of the shard loops (shutdown latency bound).
POLL_S = 0.02

#: Lifecycle span name → metrics stage name: these spans feed the
#: per-stage latency breakdown in :class:`~repro.serve.metrics.ServiceMetrics`.
_STAGE_SPANS = {
    "serve.queue": "queue",
    "serve.prepare": "prepare",
    "serve.execute": "execute",
    "serve.assemble": "assemble",
    "serve.kernel": "kernel",
}


def stage_metrics_hook(recorder):
    """Span-finish hook feeding stage durations into ``recorder``."""

    def hook(record: dict) -> None:
        stage = _STAGE_SPANS.get(record["name"])
        if stage is not None:
            recorder.record_stage(stage, record["duration_s"])

    return hook


class ShardEngine:
    """One shard's batcher, prepared cache, breakers and isolation ladder.

    ``recorder`` receives the engine's counts (batches, prepares,
    retries, breaker transitions, deadline misses, degraded answers).
    The owning tier fills the batcher through :meth:`_pull`, calls
    :meth:`drain` and :meth:`step` from its one loop thread, and
    receives every outcome through :meth:`_deliver`.
    """

    #: Set by a tier that takes no further requests: ends a linger.
    closed = False

    def __init__(self, config, recorder):
        self.config = config
        self.recorder = recorder
        self.cache = PreparedSolverCache(config.cache_capacity)
        self.batcher = MicroBatcher(config.max_batch_size)
        #: Circuit breakers by PreparedKey (created lazily by the loop; the
        #: thread tier's submit reads them under the lock from other threads).
        self.breakers: dict[PreparedKey, CircuitBreaker] = {}
        self.breaker_lock = threading.Lock()
        #: Jobs of the batch currently executing, and the ``(job, outcome,
        #: status)`` triples its isolation has settled so far (crash-rescue
        #: lists: a tier's crash handler answers the triples, fails the rest).
        self.inflight: list = []
        self.finished: list = []
        #: EWMA of per-request service time; drives load-shedding estimates.
        self.service_ewma_s = 0.0

    # ------------------------------------------------------------------
    # what a tier supplies
    # ------------------------------------------------------------------
    def _pull(self, timeout: float) -> bool:
        """Admit the next message of the tier's queue into the batcher.

        Waits up to ``timeout`` seconds (``0``: not at all); returns
        whether a message arrived.
        """
        raise NotImplementedError

    def _deliver(self, finished: list) -> None:
        """Hand ``(job, outcome, status)`` triples to their callers."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # the loop step
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Admit what is already queued, up to ``queue_depth`` held jobs.

        The batcher backlog is bounded like the queue, so at most ~2x
        ``queue_depth`` requests are in flight per shard and
        backpressure engages instead of the backlog growing unbounded.
        """
        while len(self.batcher) < self.config.queue_depth and self._pull(0):
            pass

    def step(self) -> None:
        """Execute (or fail) the pending group of the next key."""
        key = self.batcher.next_key()
        if key is None:
            return
        breaker = self._breaker(key)
        if breaker is not None and not breaker.allow():
            self._fail_key(
                key,
                CircuitOpenError(
                    f"circuit breaker open for prepared solver {key.solver!r} "
                    f"on matrix {key.matrix_digest[:12]}",
                    retry_after_s=breaker.retry_after_s(),
                ),
            )
            return
        entry = self._entry(key, breaker)
        if entry is None:
            return
        if entry.coalescible and self.config.max_linger_s > 0.0:
            self._linger(key)
        batch = self._expire(self.batcher.take(key))
        if batch:
            self.cache.credit_hits(len(batch) - 1)
            self._execute(entry, batch, breaker)

    def _linger(self, key: PreparedKey) -> None:
        """Hold a lone key's batch open briefly, hoping to coalesce stragglers.

        Work-conserving: the wait lasts only while the batcher holds
        nothing but ``key``, so a request for another key ends it, and so
        does a closed tier (the wait runs in ``POLL_S`` slices to notice).
        """
        batcher = self.batcher
        limit = min(self.config.max_batch_size, self.config.queue_depth)
        deadline = time.perf_counter() + self.config.max_linger_s
        while len(batcher) == batcher.pending_for(key) < limit:
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0 or self.closed:
                return
            self._pull(min(remaining, POLL_S))

    def _breaker(self, key: PreparedKey) -> CircuitBreaker | None:
        """The key's circuit breaker, created lazily (None when disabled)."""
        policy = self.config.resilience
        if policy.breaker_threshold < 1:
            return None
        with self.breaker_lock:
            breaker = self.breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    policy.breaker_threshold,
                    policy.breaker_reset_s,
                    on_transition=self.recorder.record_breaker_transition,
                )
                self.breakers[key] = breaker
                prune_breakers(self.breakers, self.cache, keep=key)
            return breaker

    def _record_failure(self, key: PreparedKey, breaker: CircuitBreaker | None) -> None:
        """Count one failure against the key's breaker; trip → drop the entry.

        Invalidating on trip makes the eventual half-open probe
        re-prepare from scratch instead of re-trying a possibly corrupt
        programmed macro.
        """
        if breaker is not None and breaker.record_failure():
            self.cache.invalidate(key)

    def _entry(self, key: PreparedKey, breaker: CircuitBreaker | None):
        """The key's prepared entry; on a preparation failure, fail its group."""
        head = self.batcher.peek(key)

        def factory():
            entry = prepare_entry(key, head.matrix, head.hardware)
            self.recorder.record_prepare(entry.prepare_seconds)
            if self.config.entry_transform is not None:
                entry = self.config.entry_transform(entry)
            tracer = obs.active()
            if tracer.enabled:
                # Retroactive: bounds come from the measured prepare time,
                # so the untraced path performs no extra timing calls.
                now = time.perf_counter()
                tracer.record_span(
                    "serve.prepare",
                    parent=head.span,
                    start_s=now - entry.prepare_seconds,
                    end_s=now,
                    attributes={"solver": key.solver, "digest": key.matrix_digest[:12]},
                )
            return entry

        try:
            return self.cache.get_or_prepare(key, factory)
        except Exception as exc:  # fail the whole group, keep the loop alive
            self._record_failure(key, breaker)
            self._fail_key(key, exc)
            return None

    def _expire(self, batch: list) -> list:
        """Fail jobs whose deadline passed; return the live remainder."""
        live, expired = [], []
        now = time.perf_counter()
        for job in batch:
            if job.deadline_at is not None and now >= job.deadline_at:
                self.recorder.record_deadline_miss()
                error = DeadlineExceededError(
                    "deadline expired before the request reached execution"
                )
                expired.append((job, error, None))
            else:
                live.append(job)
        if expired:
            self._deliver(expired)
        return live

    def _execute(self, entry, batch: list, breaker: CircuitBreaker | None) -> None:
        self.inflight = batch
        self.recorder.record_batch(len(batch))
        start = time.perf_counter()
        tracer = obs.active()
        if not tracer.enabled:
            self._solve(entry, batch, breaker)
            self._note_service_time(start, len(batch))
            self._deliver(self.finished)
            # Normal-path bookkeeping only: on a loop crash (BaseException)
            # both lists must survive for the tier's rescue.
            self.inflight, self.finished = [], []
            return
        # Queue stages are retroactive (queued stamp → now), so the
        # untraced path stays untouched; the batch span links its member
        # requests by span id.
        for job in batch:
            tracer.record_span(
                "serve.queue", parent=job.span, start_s=job.submitted_at, end_s=start
            )
        batch_span = tracer.start_span(
            "serve.batch",
            attributes={
                "size": len(batch),
                "solver": entry.key.solver,
                "coalescible": entry.coalescible,
                "members": [job.span.span_id for job in batch],
            },
            start_s=start,
        )
        # Activation (not a `with Span`): kernel spans nest under the
        # batch, which ends later, after assembly.
        with tracer.use_span(batch_span):
            self._solve(entry, batch, breaker)
        solved = self._note_service_time(start, len(batch))
        for job, outcome, status in self.finished:
            if status:
                tracer.record_span(
                    "serve.execute",
                    parent=job.span,
                    start_s=start,
                    end_s=solved,
                    attributes={
                        "batch_span": batch_span.span_id,
                        "analog_time_s": float(getattr(outcome, "analog_time_s", 0.0)),
                    },
                )
        self._deliver(self.finished)
        tracer.record_span(
            "serve.assemble", parent=batch_span, start_s=solved, end_s=time.perf_counter()
        )
        batch_span.end()
        self.inflight, self.finished = [], []

    def _note_service_time(self, start: float, size: int) -> float:
        """Fold one batch's per-request time into the EWMA; returns now."""
        now = time.perf_counter()
        per_request = (now - start) / size
        self.service_ewma_s = (
            per_request
            if self.service_ewma_s == 0.0
            else 0.8 * self.service_ewma_s + 0.2 * per_request
        )
        return now

    def _run_kernel(self, entry, jobs: list) -> list:
        """The canonical kernel over ``jobs`` (a tier may replace or wrap it)."""
        return execute_batch(
            entry,
            [job.b for job in jobs],
            [job.seed for job in jobs],
            lean=self.config.lean_results,
        )

    def _solve(self, entry, batch: list, breaker) -> None:
        """Run the batch, bisecting on failure, into :attr:`finished`."""
        try:
            results = self._run_kernel(entry, batch)
        except Exception:
            self._isolate(entry, batch, breaker)
        else:
            self.finished.extend(zip(batch, results, repeat(OK)))
            if breaker is not None:
                breaker.record_success()

    def _isolate(self, entry, jobs: list, breaker) -> None:
        """Bisect a failed batch so only the culprit request(s) fail.

        Every re-execution restarts from each request's own seed through
        the same canonical kernel, so surviving results are bit-identical
        to the sequential reference by construction — isolation can
        never perturb a success, only rescue it.
        """
        mid = len(jobs) // 2
        for part in (jobs,) if len(jobs) == 1 else (jobs[:mid], jobs[mid:]):
            self.recorder.record_retry()
            try:
                results = self._run_kernel(entry, part)
            except Exception as exc:
                if len(jobs) == 1:
                    self._degrade_or_fail(entry, jobs[0], exc, breaker)
                else:
                    self._isolate(entry, part, breaker)
            else:
                self.finished.extend(zip(part, results, repeat(OK)))
                if breaker is not None:
                    breaker.record_success()

    def _degrade_or_fail(self, entry, job, exc, breaker) -> None:
        """Bottom of the ladder: digital fallback if allowed, else fail."""
        self._record_failure(entry.key, breaker)
        if self.config.resilience.fallback == "digital" and isinstance(
            exc, DEGRADABLE_ERRORS
        ):
            request = SolveRequest(
                matrix=job.matrix, b=job.b, digest=entry.key.matrix_digest
            )
            try:
                result = digital_fallback(request, lean=self.config.lean_results)
            except Exception as fallback_exc:
                self.finished.append((job, fallback_exc, None))
                return
            self.recorder.record_degraded()
            self.finished.append((job, result, DEGRADED))
            return
        self.finished.append((job, exc, None))

    def _fail_key(self, key: PreparedKey, error) -> None:
        """Fail every job pending for ``key`` with ``error``."""
        failed = []
        while group := self.batcher.take(key):
            failed.extend((job, error, None) for job in group)
        self._deliver(failed)
