"""The solver service: sharded workers, bounded queues, micro-batching.

:class:`SolverService` accepts concurrent solve requests and executes
them at engine speed:

- requests are hash-sharded by **matrix digest** onto worker threads, so
  each prepared macro lives in exactly one shard's
  :class:`~repro.serve.cache.PreparedSolverCache` and is never touched
  by two threads at once;
- each worker coalesces queued requests that target the same prepared
  solver into one multi-RHS ``solve_many`` call (up to
  ``max_batch_size``, lingering up to ``max_linger_s`` for stragglers);
- queues are bounded: the ``block`` backpressure policy stalls
  submitters when a shard is saturated, ``reject`` raises
  :class:`~repro.errors.ServiceOverloadedError` immediately.

Failure story (knobs on :class:`~repro.serve.resilience.ResiliencePolicy`):

- per-request **deadlines** propagate submit → queue → batch; expired
  tickets fail fast with :class:`~repro.errors.DeadlineExceededError`
  instead of occupying a batch slot;
- latency-aware **load shedding** refuses submits whose estimated wait
  (shard backlog x recent per-request service time) exceeds the
  threshold, with a retry-after hint
  (:class:`~repro.errors.OverloadedError`);
- a per-:class:`~repro.serve.cache.PreparedKey` **circuit breaker**
  stops a key whose preparation or solves keep failing from dragging
  down its shard (tripping invalidates the cached entry, so the
  half-open probe re-prepares);
- **blast-radius isolation**: a failed coalesced batch is bisected and
  re-executed so only the culprit request fails; re-execution restarts
  from each request's own seed through the same canonical kernel, so
  surviving results stay bit-identical to the sequential reference;
- an opt-in **degradation ladder** (``fallback="digital"``) answers
  analog failures with the digital reference solve, tagged
  ``degraded=True``;
- the worker loop is **crash-proof**: a last-resort handler fails
  in-flight tickets with :class:`~repro.errors.ShardFailedError` and
  restarts the loop, up to ``max_shard_restarts`` times, after which
  the shard is marked dead and submits to it fail fast.

Determinism: every execution goes through the canonical kernel
(:func:`repro.serve.batching.execute_batch`) against entries whose
random draws were fixed at preparation time, so results are bit-identical
to :func:`run_sequential` over the same requests — regardless of worker
count, queue timing, how batches happened to form, or how many faulted
batches were bisected along the way.

This class is the **in-process, thread-sharded** tier (the engines are
NumPy-bound and release the GIL inside BLAS). The network tier —
:mod:`repro.serve.net` — serves the same requests over TCP through
**process-based** workers that escape the GIL entirely, reusing this
module's building blocks (:func:`resolve_request`, the prepared cache,
the micro-batcher, and :func:`~repro.serve.batching.execute_batch`), so
both tiers answer with identical bits.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.amc.config import HardwareConfig
from repro.core.backend import get_backend
from repro.core.solution import SolveResult
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.obs import tracer as obs
from repro.serve.batching import MicroBatcher, execute_batch
from repro.serve.cache import (
    SOLVER_KINDS,
    CacheStats,
    PreparedKey,
    PreparedSolverCache,
    prepare_entry,
)
from repro.serve.metrics import MetricsRecorder, ServiceMetrics
from repro.serve.requests import SolveRequest
from repro.serve.resilience import (
    DEGRADABLE_ERRORS,
    CircuitBreaker,
    ResiliencePolicy,
    digital_fallback,
    prune_breakers,
)

__all__ = [
    "ServiceConfig",
    "SolveTicket",
    "SolverService",
    "resolve_request",
    "run_sequential",
]

#: Idle-poll period of the worker loops (shutdown latency bound).
_POLL_S = 0.02

#: Lifecycle span name → metrics stage name: these spans feed the
#: per-stage latency breakdown in :class:`ServiceMetrics`.
_STAGE_SPANS = {
    "serve.queue": "queue",
    "serve.prepare": "prepare",
    "serve.execute": "execute",
    "serve.assemble": "assemble",
    "serve.kernel": "kernel",
}


def _stage_metrics_hook(recorder: MetricsRecorder):
    """Span-finish hook feeding stage durations into the recorder."""

    def hook(record: dict) -> None:
        stage = _STAGE_SPANS.get(record["name"])
        if stage is not None:
            recorder.record_stage(stage, record["duration_s"])

    return hook


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`SolverService`.

    Parameters
    ----------
    workers:
        Worker threads; also the shard count of the cache/queue fabric.
    max_batch_size:
        Most requests one coalesced ``solve_many`` call may carry.
    max_linger_s:
        How long a worker holds a formable batch open waiting for more
        requests to the same prepared solver. ``0`` disables lingering
        (batches still coalesce whatever is already queued).
    queue_depth:
        Bound of each shard's request queue. The owning worker holds at
        most another ``queue_depth`` of drained-but-unexecuted requests,
        so per-shard in-flight work is bounded by ~2x this value.
    backpressure:
        ``"block"`` stalls submitters while a shard queue is full;
        ``"reject"`` raises :class:`ServiceOverloadedError` instead.
    cache_capacity:
        Prepared solvers retained per shard (LRU beyond that).
    lean_results:
        Serve :class:`~repro.core.solution.LeanSolveResult` payloads
        (no per-step OpResult telemetry; same solution bits). Result
        assembly dominates service-side time at scale, so lean mode is
        the high-throughput setting; the default stays full-telemetry
        for interactive use.
    resilience:
        The failure-handling policy
        (:class:`~repro.serve.resilience.ResiliencePolicy`): deadlines,
        load shedding, circuit breakers, the digital fallback ladder,
        and the shard-restart budget.
    entry_transform:
        Optional hook applied to every freshly prepared
        :class:`~repro.serve.cache.PreparedEntry` before it enters the
        shard cache. This is the fault-injection seam
        (:func:`repro.testing.chaos.chaos_entry_transform` wraps the
        prepared solver); production configs leave it ``None``.
    trace_dir:
        Enables :mod:`repro.obs` tracing with spans exported to this
        directory. Process-global (the service configures the module
        tracer), inherited by ``repro.serve.net`` worker processes via
        this very config. ``None`` (default) leaves tracing untouched —
        hot paths pay one attribute lookup. Tracing never perturbs
        results: solves are bit-identical either way.
    backend:
        Array backend / precision tier for the *default* hardware
        (``"numpy"``, ``"numpy-f32"``, ``"torch"`` — see
        :mod:`repro.core.backend`). ``None`` keeps whatever tier
        ``default_hardware`` already carries. Requests that bring their
        own :class:`HardwareConfig` are unaffected: their config's own
        ``backend`` field wins.
    default_solver, default_hardware, default_prep_seed:
        Applied to requests that leave the corresponding field unset.
    """

    workers: int = 2
    max_batch_size: int = 16
    max_linger_s: float = 0.002
    queue_depth: int = 256
    backpressure: str = "block"
    cache_capacity: int = 32
    lean_results: bool = False
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    entry_transform: Callable | None = None
    trace_dir: str | None = None
    backend: str | None = None
    default_solver: str = "blockamc-1stage"
    default_hardware: HardwareConfig = field(
        default_factory=HardwareConfig.paper_variation
    )
    default_prep_seed: int = 0

    def __post_init__(self):
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch_size < 1:
            raise ServeError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_linger_s < 0.0:
            raise ServeError(f"max_linger_s must be >= 0, got {self.max_linger_s}")
        if self.queue_depth < 1:
            raise ServeError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.backpressure not in ("block", "reject"):
            raise ServeError(
                f"backpressure must be 'block' or 'reject', got {self.backpressure!r}"
            )
        if self.cache_capacity < 1:
            raise ServeError(f"cache_capacity must be >= 1, got {self.cache_capacity}")
        if not isinstance(self.resilience, ResiliencePolicy):
            raise ServeError(
                f"resilience must be a ResiliencePolicy, got {self.resilience!r}"
            )
        if self.entry_transform is not None and not callable(self.entry_transform):
            raise ServeError("entry_transform must be callable or None")
        if self.trace_dir is not None and not isinstance(
            self.trace_dir, (str, os.PathLike)
        ):
            raise ServeError(
                f"trace_dir must be a path or None, got {self.trace_dir!r}"
            )
        if self.default_solver not in SOLVER_KINDS:
            raise ServeError(
                f"unknown default_solver {self.default_solver!r}; "
                f"available: {sorted(SOLVER_KINDS)}"
            )
        if self.backend is not None:
            get_backend(self.backend)  # fail fast on unknown/unavailable tiers
            object.__setattr__(
                self,
                "default_hardware",
                self.default_hardware.with_(backend=self.backend),
            )


def resolve_request(
    request: SolveRequest, config: ServiceConfig
) -> tuple[PreparedKey, HardwareConfig]:
    """Apply service defaults and derive the request's cache identity.

    Shared by the thread service, the sequential reference, and the
    ``repro.serve.net`` process workers, so "which prepared macro
    answers this request" is one definition across every serving tier.
    """
    hardware = request.hardware if request.hardware is not None else config.default_hardware
    solver = request.solver if request.solver is not None else config.default_solver
    if solver not in SOLVER_KINDS:
        raise ServeError(f"unknown solver kind {solver!r}; available: {sorted(SOLVER_KINDS)}")
    prep_seed = (
        request.prep_seed if request.prep_seed is not None else config.default_prep_seed
    )
    key = PreparedKey(
        request.digest,
        hardware.cache_key(),
        solver,
        prep_seed,
        backend=hardware.backend,
    )
    return key, hardware


#: Backward-compatible private alias (pre-net internal name).
_resolve = resolve_request


class SolveTicket:
    """Handle to one submitted request (a thin Future wrapper)."""

    def __init__(
        self,
        request: SolveRequest,
        key: PreparedKey,
        hardware: HardwareConfig,
        deadline_s: float | None = None,
    ):
        self.request = request
        self.key = key
        self.hardware = hardware
        self.submitted_at = time.perf_counter()
        #: Effective deadline (request override or policy default).
        self.deadline_s = deadline_s
        self.deadline_at = (
            None if deadline_s is None else self.submitted_at + deadline_s
        )
        #: Root tracing span of this request (no-op when tracing is off).
        self.span = obs.NOOP_SPAN
        self._future: Future = Future()

    def result(self, timeout: float | None = None) -> SolveResult:
        """Block until the solve finishes; re-raises execution errors."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The execution error, or ``None`` on success (blocks like result)."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """True once a result or error is set."""
        return self._future.done()


class _Shard:
    """One worker's queue, cache, batcher, and failure-domain state."""

    def __init__(self, index: int, config: ServiceConfig):
        self.index = index
        self.queue: queue.Queue = queue.Queue(maxsize=config.queue_depth)
        self.cache = PreparedSolverCache(config.cache_capacity)
        self.batcher = MicroBatcher(config.max_batch_size)
        self.thread: threading.Thread | None = None
        #: Circuit breakers by PreparedKey (created lazily by the worker).
        self.breakers: dict[PreparedKey, CircuitBreaker] = {}
        self.breaker_lock = threading.Lock()
        #: Tickets of the batch currently executing (crash-rescue list).
        self.inflight: list[SolveTicket] = []
        #: EWMA of per-request service time; drives load-shedding estimates.
        self.service_ewma_s = 0.0
        #: Worker-loop crash count (bounded by max_shard_restarts).
        self.restarts = 0
        #: Set (under the submit lock) when the shard stops serving.
        self.dead = False

    def backlog(self) -> int:
        """Approximate in-flight request count (queue + batcher + executing)."""
        return self.queue.qsize() + len(self.batcher) + len(self.inflight)


class SolverService:
    """A batching, caching solve service over the AMC engines.

    Use as a context manager (or call :meth:`close`)::

        with SolverService(ServiceConfig(workers=2)) as service:
            tickets = [service.submit(matrix, b, seed=i) for i, b in enumerate(batch)]
            results = [t.result() for t in tickets]
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._metrics = MetricsRecorder()
        if self.config.trace_dir is not None:
            obs.configure(trace_dir=self.config.trace_dir)
        # With tracing on, finished stage spans feed the per-stage
        # latency breakdown in ServiceMetrics (removed again at close).
        self._obs_hook = None
        if obs.active().enabled:
            self._obs_hook = _stage_metrics_hook(self._metrics)
            obs.active().add_finish_hook(self._obs_hook)
        self._closed = threading.Event()
        self._abort = threading.Event()
        # Serializes the closed-check against queue puts: close() flips
        # the flag under this lock, so once close() returns no submit can
        # slip a ticket into a queue its worker has already abandoned.
        # The dead flag of a crashed-out shard follows the same protocol.
        self._submit_lock = threading.Lock()
        self._shards = [_Shard(i, self.config) for i in range(self.config.workers)]
        for shard in self._shards:
            shard.thread = threading.Thread(
                target=self._worker_main,
                args=(shard,),
                name=f"repro-serve-{shard.index}",
                daemon=True,
            )
            shard.thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, matrix, b, **kwargs) -> SolveTicket:
        """Build a :class:`SolveRequest` and submit it.

        Keyword arguments pass through to :class:`SolveRequest`
        (``solver``, ``hardware``, ``seed``, ``prep_seed``,
        ``deadline_s``, ``digest``).
        """
        return self.submit_request(SolveRequest(matrix=matrix, b=b, **kwargs))

    def submit_request(self, request: SolveRequest) -> SolveTicket:
        """Queue one request; returns immediately with a ticket.

        Raises :class:`ServiceClosedError` after :meth:`close`;
        :class:`ServiceOverloadedError` when the owning shard's queue is
        full under the ``reject`` backpressure policy (under ``block``
        the call stalls until the shard drains);
        :class:`~repro.errors.OverloadedError` when latency-aware
        shedding refuses the request (with a retry-after hint);
        :class:`~repro.errors.CircuitOpenError` when the request's
        prepared solver is failing fast; and
        :class:`~repro.errors.ShardFailedError` when the owning shard
        has crashed out of its restart budget.
        """
        policy = self.config.resilience
        key, hardware = _resolve(request, self.config)
        deadline_s = (
            request.deadline_s if request.deadline_s is not None else policy.deadline_s
        )
        ticket = SolveTicket(request, key, hardware, deadline_s=deadline_s)
        shard = self._shards[key.shard(len(self._shards))]
        if shard.dead:
            raise ShardFailedError(
                f"shard {shard.index} is dead (crashed {shard.restarts} times); "
                "request refused"
            )
        with shard.breaker_lock:
            breaker = shard.breakers.get(key)
        if breaker is not None and breaker.is_open():
            self._metrics.record_rejected()
            raise CircuitOpenError(
                f"circuit breaker open for prepared solver {key.solver!r} "
                f"on matrix {key.matrix_digest[:12]}",
                retry_after_s=breaker.retry_after_s(),
            )
        if policy.shed_latency_s is not None:
            estimate = shard.backlog() * shard.service_ewma_s
            if estimate > policy.shed_latency_s:
                self._metrics.record_shed()
                raise OverloadedError(
                    f"shard {shard.index} estimated wait {estimate:.3f}s exceeds "
                    f"shed threshold {policy.shed_latency_s:.3f}s",
                    retry_after_s=estimate,
                )
        tracer = obs.active()
        if tracer.enabled:
            # Root of this request's span tree; lifecycle stages (queue
            # wait, prepare, execute, assemble) attach as children. The
            # span is backdated to the ticket's submit stamp so queue
            # wait is measured from the caller's perspective.
            ticket.span = tracer.start_span(
                "serve.request",
                attributes={
                    "digest": request.digest[:12],
                    "solver": key.solver,
                    "seed": request.seed,
                    "shard": shard.index,
                    "n": request.size,
                },
                start_s=ticket.submitted_at,
            )
        while True:
            with self._submit_lock:
                if self._closed.is_set():
                    error = ServiceClosedError(
                        "service is closed; no further requests accepted"
                    )
                    ticket.span.fail(error)
                    raise error
                try:
                    shard.queue.put_nowait(ticket)
                    break
                except queue.Full:
                    if self.config.backpressure == "reject":
                        self._metrics.record_rejected()
                        error = ServiceOverloadedError(
                            f"shard {shard.index} queue is full "
                            f"({self.config.queue_depth} requests pending)"
                        )
                        ticket.span.fail(error)
                        raise error from None
            # ``block`` policy: wait on the queue itself, outside the
            # lock, so the submitter wakes the moment the worker drains
            # a slot and close()/other shards' submitters stay live; the
            # timeout only bounds how often the closed flag is re-read.
            try:
                shard.queue.put(ticket, timeout=_POLL_S)
            except queue.Full:
                continue
            if self._closed.is_set():
                # This put bypassed the lock, so it may have landed after
                # the worker's final drain; wait the worker out and
                # rescue anything it can no longer see.
                if shard.thread is not None:
                    shard.thread.join()
                self._fail_pending(shard)
            break
        if shard.dead:
            # The worker may have crashed out between our put and its
            # final drain; wait it out and rescue stranded tickets.
            if shard.thread is not None:
                shard.thread.join()
            self._fail_pending(
                shard, ShardFailedError(f"shard {shard.index} died before execution")
            )
        self._metrics.record_submit()
        return ticket

    def solve_all(self, requests) -> list[SolveResult]:
        """Submit every request, then gather results in request order.

        If a submit fails partway (backpressure rejection, load
        shedding, an open breaker, a dead shard), the already-submitted
        tickets are waited out before the error re-raises, so no ticket
        leaks mid-flight; their individual outcomes are discarded.
        Callers who need partial results should submit and gather
        tickets themselves.
        """
        tickets: list[SolveTicket] = []
        try:
            for request in requests:
                tickets.append(self.submit_request(request))
        except BaseException:
            for ticket in tickets:
                ticket.exception()
            raise
        return [ticket.result() for ticket in tickets]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics(self) -> ServiceMetrics:
        """Snapshot of service telemetry (aggregated across shards)."""
        cache = CacheStats()
        for shard in self._shards:
            cache = cache.merge(shard.cache.stats)
        return self._metrics.snapshot(cache)

    def cached_solvers(self) -> list[PreparedKey]:
        """Keys of every resident prepared solver, across all shards."""
        return [key for shard in self._shards for key in shard.cache.keys()]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the workers down.

        ``wait=True`` (default) lets workers drain everything already
        queued; ``wait=False`` aborts, failing still-pending tickets
        with :class:`ServiceClosedError`.
        """
        with self._submit_lock:
            self._closed.set()
        if not wait:
            self._abort.set()
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join()
        if self._obs_hook is not None:
            obs.active().remove_finish_hook(self._obs_hook)
            self._obs_hook = None

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=exc_info[0] is None)

    # ------------------------------------------------------------------
    # worker internals
    # ------------------------------------------------------------------
    def _worker_main(self, shard: _Shard) -> None:
        """Crash-proof wrapper: restart the loop, bounded; then die loudly.

        Any exception escaping :meth:`_worker_loop` — including
        ``BaseException``s that bypass the per-batch ``except Exception``
        handlers — fails the in-flight batch with
        :class:`~repro.errors.ShardFailedError` and re-enters the loop
        on this same thread (so :meth:`close` can still join it). After
        ``max_shard_restarts`` crashes the shard is marked dead: its
        pending tickets fail, and submits to it fail fast.
        """
        while True:
            try:
                self._worker_loop(shard)
                return
            except BaseException:
                self._metrics.record_shard_crash()
                error = ShardFailedError(
                    f"shard {shard.index} worker crashed while this request "
                    "was in flight"
                )
                inflight, shard.inflight = shard.inflight, []
                for ticket in inflight:
                    self._fail_ticket(ticket, error)
                shard.restarts += 1
                if (
                    self._closed.is_set()
                    or shard.restarts > self.config.resilience.max_shard_restarts
                ):
                    with self._submit_lock:
                        shard.dead = True
                    self._fail_pending(shard, error)
                    return

    def _worker_loop(self, shard: _Shard) -> None:
        batcher = shard.batcher
        while True:
            if self._abort.is_set():
                self._fail_pending(shard)
                return
            if not len(batcher):
                try:
                    batcher.add(shard.queue.get(timeout=_POLL_S))
                except queue.Empty:
                    if self._closed.is_set():
                        # Closed is flipped under the submit lock, so no
                        # put can follow it — but one may have raced the
                        # empty check above. Drain once more and only
                        # exit if truly nothing is left.
                        self._drain_queue(shard)
                        if not len(batcher):
                            return
                    continue
            self._drain_queue(shard)
            key = batcher.next_key()
            breaker = self._breaker_for(shard, key)
            if breaker is not None and not breaker.allow():
                self._fail_key_group(
                    shard,
                    key,
                    CircuitOpenError(
                        f"circuit breaker open for prepared solver {key.solver!r} "
                        f"on matrix {key.matrix_digest[:12]}",
                        retry_after_s=breaker.retry_after_s(),
                    ),
                )
                continue
            entry = self._entry_for(shard, key, breaker)
            if entry is None:
                continue
            if (
                entry.coalescible
                and self.config.max_linger_s > 0.0
                and batcher.pending_for(key) < self.config.max_batch_size
            ):
                self._linger(shard, key)
            batch = self._expire(batcher.take(key))
            if batch:
                shard.cache.credit_hits(len(batch) - 1)
                self._execute(shard, entry, batch, breaker)

    def _drain_queue(self, shard: _Shard) -> None:
        # The batcher backlog is bounded like the queue: once the worker
        # holds a full queue's worth it stops pulling, so ``queue_depth``
        # genuinely limits in-flight work (at most ~2x queue_depth per
        # shard between queue and batcher) and backpressure engages
        # instead of the backlog growing without bound.
        while len(shard.batcher) < self.config.queue_depth:
            try:
                shard.batcher.add(shard.queue.get_nowait())
            except queue.Empty:
                return

    def _linger(self, shard: _Shard, key: PreparedKey) -> None:
        """Hold the batch open briefly, hoping to coalesce stragglers."""
        deadline = time.perf_counter() + self.config.max_linger_s
        while (
            shard.batcher.pending_for(key) < self.config.max_batch_size
            and len(shard.batcher) < self.config.queue_depth
        ):
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0 or self._abort.is_set():
                return
            try:
                shard.batcher.add(shard.queue.get(timeout=remaining))
            except queue.Empty:
                return

    def _breaker_for(self, shard: _Shard, key: PreparedKey) -> CircuitBreaker | None:
        """The key's circuit breaker, created lazily (None when disabled)."""
        policy = self.config.resilience
        if policy.breaker_threshold < 1:
            return None
        with shard.breaker_lock:
            breaker = shard.breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    policy.breaker_threshold,
                    policy.breaker_reset_s,
                    on_transition=self._metrics.record_breaker_transition,
                )
                shard.breakers[key] = breaker
                prune_breakers(shard.breakers, shard.cache, keep=key)
            return breaker

    def _record_key_failure(
        self, shard: _Shard, key: PreparedKey, breaker: CircuitBreaker | None
    ) -> None:
        """Count one failure against the key's breaker; trip → drop the entry.

        Invalidating on trip makes the eventual half-open probe
        re-prepare from scratch instead of re-trying a possibly corrupt
        programmed macro.
        """
        if breaker is not None and breaker.record_failure():
            shard.cache.invalidate(key)

    def _entry_for(
        self, shard: _Shard, key: PreparedKey, breaker: CircuitBreaker | None = None
    ):
        head = shard.batcher.peek(key)

        def factory():
            entry = prepare_entry(key, head.request.matrix, head.hardware)
            self._metrics.record_prepare(entry.prepare_seconds)
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
                    attributes={
                        "solver": key.solver,
                        "digest": key.matrix_digest[:12],
                    },
                )
            return entry

        try:
            return shard.cache.get_or_prepare(key, factory)
        except Exception as exc:  # fail the whole group, keep the worker alive
            self._record_key_failure(shard, key, breaker)
            self._fail_key_group(shard, key, exc)
            return None

    def _expire(self, batch: list[SolveTicket]) -> list[SolveTicket]:
        """Fail tickets whose deadline passed; return the live remainder."""
        live = []
        now = time.perf_counter()
        for ticket in batch:
            if ticket.deadline_at is not None and now >= ticket.deadline_at:
                self._metrics.record_deadline_miss()
                self._fail_ticket(
                    ticket,
                    DeadlineExceededError(
                        f"deadline of {ticket.deadline_s:.3f}s expired "
                        "before the request reached execution"
                    ),
                    now,
                )
            else:
                live.append(ticket)
        return live

    def _execute(
        self,
        shard: _Shard,
        entry,
        batch: list[SolveTicket],
        breaker: CircuitBreaker | None = None,
    ) -> None:
        shard.inflight = batch
        self._metrics.record_batch(len(batch))
        start = time.perf_counter()
        tracer = obs.active()
        batch_span = obs.NOOP_SPAN
        if tracer.enabled:
            # Queue-wait stages are retroactive (submit stamp → now), so
            # the untraced submit path stays untouched; the batch span
            # links its member requests by span id.
            for ticket in batch:
                tracer.record_span(
                    "serve.queue",
                    parent=ticket.span,
                    start_s=ticket.submitted_at,
                    end_s=start,
                )
            batch_span = tracer.start_span(
                "serve.batch",
                attributes={
                    "size": len(batch),
                    "solver": entry.key.solver,
                    "shard": shard.index,
                    "coalescible": entry.coalescible,
                    "members": [t.span.span_id for t in batch],
                },
                start_s=start,
            )
        try:
            if tracer.enabled:
                # Activation (not a `with Span`): the kernel span nests
                # under the batch, which ends later, after assembly.
                with tracer.use_span(batch_span):
                    results = execute_batch(
                        entry,
                        [t.request.b for t in batch],
                        [t.request.seed for t in batch],
                        lean=self.config.lean_results,
                    )
            else:
                results = execute_batch(
                    entry,
                    [t.request.b for t in batch],
                    [t.request.seed for t in batch],
                    lean=self.config.lean_results,
                )
        except Exception as exc:
            batch_span.fail(exc)
            self._isolate(shard, entry, batch, breaker)
        else:
            solved = time.perf_counter()
            now = time.perf_counter()
            for ticket, result in zip(batch, results):
                self._finish_ticket(ticket, result, now)
            if breaker is not None:
                breaker.record_success()
            if tracer.enabled:
                for ticket, result in zip(batch, results):
                    tracer.record_span(
                        "serve.execute",
                        parent=ticket.span,
                        start_s=start,
                        end_s=solved,
                        attributes={
                            "batch_span": batch_span.span_id,
                            "analog_time_s": float(
                                getattr(result, "analog_time_s", 0.0)
                            ),
                        },
                    )
                tracer.record_span(
                    "serve.assemble",
                    parent=batch_span,
                    start_s=solved,
                    end_s=time.perf_counter(),
                )
                batch_span.end()
        # Normal-path bookkeeping only: on a worker crash (BaseException)
        # the inflight list must survive for _worker_main's rescue.
        per_request = (time.perf_counter() - start) / len(batch)
        shard.service_ewma_s = (
            per_request
            if shard.service_ewma_s == 0.0
            else 0.8 * shard.service_ewma_s + 0.2 * per_request
        )
        shard.inflight = []

    def _isolate(
        self,
        shard: _Shard,
        entry,
        tickets: list[SolveTicket],
        breaker: CircuitBreaker | None,
    ) -> None:
        """Bisect a failed batch so only the culprit request(s) fail.

        Every re-execution restarts from each request's own seed through
        the same canonical kernel, so surviving results are bit-identical
        to the sequential reference by construction — isolation can
        never perturb a success, only rescue it.
        """
        if len(tickets) == 1:
            ticket = tickets[0]
            self._metrics.record_retry()
            try:
                result = execute_batch(
                    entry,
                    [ticket.request.b],
                    [ticket.request.seed],
                    lean=self.config.lean_results,
                )[0]
            except Exception as exc:
                self._degrade_or_fail(shard, entry, ticket, exc, breaker)
            else:
                self._finish_ticket(ticket, result)
                if breaker is not None:
                    breaker.record_success()
            return
        mid = len(tickets) // 2
        for half in (tickets[:mid], tickets[mid:]):
            self._metrics.record_retry()
            try:
                results = execute_batch(
                    entry,
                    [t.request.b for t in half],
                    [t.request.seed for t in half],
                    lean=self.config.lean_results,
                )
            except Exception:
                self._isolate(shard, entry, half, breaker)
            else:
                now = time.perf_counter()
                for ticket, result in zip(half, results):
                    self._finish_ticket(ticket, result, now)
                if breaker is not None:
                    breaker.record_success()

    def _degrade_or_fail(
        self,
        shard: _Shard,
        entry,
        ticket: SolveTicket,
        exc: Exception,
        breaker: CircuitBreaker | None,
    ) -> None:
        """Bottom of the ladder: digital fallback if allowed, else fail."""
        self._record_key_failure(shard, entry.key, breaker)
        policy = self.config.resilience
        if policy.fallback == "digital" and isinstance(exc, DEGRADABLE_ERRORS):
            try:
                result = digital_fallback(
                    ticket.request, lean=self.config.lean_results
                )
            except Exception as fallback_exc:
                self._fail_ticket(ticket, fallback_exc)
                return
            self._metrics.record_degraded()
            self._finish_ticket(ticket, result)
            return
        self._fail_ticket(ticket, exc)

    def _fail_key_group(self, shard: _Shard, key: PreparedKey, error) -> None:
        """Fail every ticket pending for ``key`` with ``error``."""
        while True:
            group = shard.batcher.take(key)
            if not group:
                return
            now = time.perf_counter()
            for ticket in group:
                self._fail_ticket(ticket, error, now)

    def _finish_ticket(self, ticket: SolveTicket, result, now=None) -> None:
        if ticket._future.done():
            return
        ticket._future.set_result(result)
        ticket.span.end()
        self._metrics.record_done(
            (now if now is not None else time.perf_counter()) - ticket.submitted_at
        )

    def _fail_ticket(self, ticket: SolveTicket, error, now=None) -> None:
        if ticket._future.done():
            return
        ticket._future.set_exception(error)
        ticket.span.fail(error)
        self._metrics.record_done(
            (now if now is not None else time.perf_counter()) - ticket.submitted_at,
            failed=True,
        )

    def _fail_pending(self, shard: _Shard, error=None) -> None:
        if error is None:
            error = ServiceClosedError("service aborted before this request executed")
        while True:
            # Unbounded drain: after abort/death no submits can add work,
            # so this terminates; every stranded ticket must resolve.
            try:
                shard.batcher.add(shard.queue.get_nowait())
            except queue.Empty:
                pass
            pending = shard.batcher.drain()
            if not pending and shard.queue.empty():
                return
            now = time.perf_counter()
            for ticket in pending:
                self._fail_ticket(ticket, error, now)


def run_sequential(
    requests, config: ServiceConfig | None = None
) -> tuple[list[SolveResult], ServiceMetrics]:
    """Sequential reference executor for the service's semantics.

    Runs the requests one at a time, in order, through the *same*
    prepared-solver cache and canonical execution kernel the service
    uses — no queues, no threads, no coalescing, and no resilience
    machinery (deadlines, breakers, and fallbacks are service policies,
    not part of the solve semantics). Service results are bit-identical
    to this reference for any scheduling outcome, which is what the
    service tests and ``benchmarks/bench_serving.py`` assert.
    Returns ``(results, metrics)``; the metrics cover cache behaviour
    and throughput of the loop itself.
    """
    config = config or ServiceConfig()
    cache = PreparedSolverCache(config.cache_capacity)
    recorder = MetricsRecorder()
    results: list[SolveResult] = []
    for request in requests:
        key, hardware = _resolve(request, config)
        recorder.record_submit()
        start = time.perf_counter()

        def factory(key=key, request=request, hardware=hardware):
            entry = prepare_entry(key, request.matrix, hardware)
            recorder.record_prepare(entry.prepare_seconds)
            return entry

        entry = cache.get_or_prepare(key, factory)
        recorder.record_batch(1)
        results.append(
            execute_batch(
                entry, [request.b], [request.seed], lean=config.lean_results
            )[0]
        )
        recorder.record_done(time.perf_counter() - start)
    return results, recorder.snapshot(cache.stats)
