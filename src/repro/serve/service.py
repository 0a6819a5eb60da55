"""The solver service: sharded workers, bounded queues, micro-batching.

:class:`SolverService` accepts concurrent solve requests and executes
them at engine speed:

- requests are hash-sharded by **matrix digest** onto worker threads, so
  each prepared macro lives in exactly one shard's
  :class:`~repro.serve.cache.PreparedSolverCache` and is never touched
  by two threads at once;
- each worker coalesces queued requests that target the same prepared
  solver into one multi-RHS ``solve_many`` call (up to
  ``max_batch_size``, lingering up to ``max_linger_s`` for stragglers
  while no other key's request waits on the shard);
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
**process-based** workers that escape the GIL entirely. Both tiers run
each shard on one :class:`~repro.serve.shard.ShardEngine` (batching,
caching, breakers, deadline expiry, isolation and fallback, written
once) and differ only in how jobs arrive and how outcomes leave: here a
shard's engine reads a bounded queue of :class:`SolveTicket` and resolves
their futures. Both tiers resolve requests with :func:`resolve_request`,
so they answer with identical bits and identical failure semantics.
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
    OverloadedError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.obs import tracer as obs
from repro.serve.batching import execute_batch
from repro.serve.cache import (
    SOLVER_KINDS,
    CacheStats,
    PreparedKey,
    PreparedSolverCache,
    prepare_entry,
)
from repro.serve.metrics import MetricsRecorder, ServiceMetrics
from repro.serve.requests import SolveRequest
from repro.serve.resilience import ResiliencePolicy
from repro.serve.shard import POLL_S, ShardEngine, stage_metrics_hook

__all__ = [
    "ServiceConfig",
    "SolveTicket",
    "SolverService",
    "resolve_request",
    "run_sequential",
]

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
        requests to the same prepared solver. It lingers only while no
        other key's request waits on its shard, and stops as soon as one
        arrives. ``0`` disables lingering (batches still coalesce
        whatever is already queued).
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
        (``"numpy"`` or ``"numpy-f32"`` — see
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
            get_backend(self.backend)  # fail fast on unknown tiers
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
        #: The system, as the shard engine reads it.
        self.matrix, self.b, self.seed = request.matrix, request.b, request.seed
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


class _Shard(ShardEngine):
    """One worker thread's bounded queue and crash state around its engine."""

    def __init__(self, index: int, service: "SolverService"):
        super().__init__(service.config, service._metrics)
        self.index = index
        self.service = service
        self.queue: queue.Queue = queue.Queue(maxsize=service.config.queue_depth)
        self.thread: threading.Thread | None = None
        #: Worker-loop crash count (bounded by max_shard_restarts).
        self.restarts = 0
        #: Set (under the submit lock) when the shard stops serving.
        self.dead = False

    @property
    def closed(self) -> bool:
        """A closed service accepts no stragglers, so a linger ends."""
        return self.service._closed.is_set()

    def backlog(self) -> int:
        """Approximate in-flight request count (queue + batcher + executing)."""
        return self.queue.qsize() + len(self.batcher) + len(self.inflight)

    def _pull(self, timeout: float) -> bool:
        try:
            ticket = self.queue.get(timeout=timeout) if timeout else self.queue.get_nowait()
        except queue.Empty:
            return False
        self.batcher.add(ticket)
        return True

    def _run_kernel(self, entry, jobs: list) -> list:
        """The canonical kernel, looked up in this module at call time.

        :func:`run_sequential` calls the same name, so rebinding
        ``repro.serve.service.execute_batch`` reroutes every thread-tier
        execution and the reference alike.
        """
        return execute_batch(
            entry,
            [job.b for job in jobs],
            [job.seed for job in jobs],
            lean=self.config.lean_results,
        )

    def _deliver(self, finished: list) -> None:
        """Resolve each ticket's future (once) and count it done."""
        now = time.perf_counter()
        for ticket, outcome, status in finished:
            future = ticket._future
            if future.done():
                continue
            if status:
                ticket.span.end(status=status)
                future.set_result(outcome)
            else:
                ticket.span.fail(outcome)
                future.set_exception(outcome)
            self.recorder.record_done(now - ticket.submitted_at, failed=not status)


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
            self._obs_hook = stage_metrics_hook(self._metrics)
            obs.active().add_finish_hook(self._obs_hook)
        self._closed = threading.Event()
        self._abort = threading.Event()
        # Serializes the closed-check against queue puts: close() flips
        # the flag under this lock, so once close() returns no submit can
        # slip a ticket into a queue its worker has already abandoned.
        # The dead flag of a crashed-out shard follows the same protocol.
        self._submit_lock = threading.Lock()
        self._shards = [_Shard(i, self) for i in range(self.config.workers)]
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
        key, hardware = resolve_request(request, self.config)
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
                shard.queue.put(ticket, timeout=POLL_S)
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
        handlers — answers what the in-flight batch's isolation already
        settled, fails the rest of it with
        :class:`~repro.errors.ShardFailedError`, and re-enters the loop
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
                # Answer what the batch's isolation already settled, then
                # fail the rest (_deliver skips tickets already resolved).
                settled, shard.finished = shard.finished, []
                inflight, shard.inflight = shard.inflight, []
                shard._deliver(settled + [(ticket, error, None) for ticket in inflight])
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
            if not len(batcher) and not shard._pull(POLL_S):
                if self._closed.is_set():
                    # Closed is flipped under the submit lock, so no put can
                    # follow it — but one may have raced the empty check
                    # above. Drain once more and only exit if truly nothing
                    # is left.
                    shard.drain()
                    if not len(batcher):
                        return
                continue
            shard.drain()
            shard.step()

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
            shard._deliver([(ticket, error, None) for ticket in pending])


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
        key, hardware = resolve_request(request, config)
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
