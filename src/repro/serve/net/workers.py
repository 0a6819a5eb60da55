"""Process-based service workers behind the network front-end.

The in-process :class:`~repro.serve.service.SolverService` shards onto
*threads*; this pool shards the same way onto *processes*, so heavy
solves scale past the GIL on multi-core hosts. Each worker process owns
exactly what a thread shard owns — a warm
:class:`~repro.serve.cache.PreparedSolverCache`, a
:class:`~repro.serve.batching.MicroBatcher`, per-key circuit breakers —
and executes every batch through the same canonical kernel
(:func:`~repro.serve.batching.execute_batch`), so results are
bit-identical to :func:`~repro.serve.service.run_sequential` regardless
of process count or scheduling.

Plumbing per shard: an unbounded request queue in (small
:class:`WorkItem` messages — the rhs vector, plus the matrix payload
only the first time a digest is seen), a response queue out (tiny
descriptors), and the actual ``(batch, n)`` solution blocks crossing via
:mod:`repro.serve.net.transport` shared memory. A **pump thread** in the
front-end process drains each shard's responses, copies result rows out
of shared memory, and fires the completion callbacks.

Failure story:

- the parent detects worker death (the pump notices ``is_alive()`` went
  false), fails every in-flight request of that shard with
  :class:`~repro.errors.ShardFailedError` (retryable), and restarts the
  worker with **fresh queues** up to the policy's
  ``max_shard_restarts`` — fresh queues make "which requests died with
  the worker" exact: everything in flight did, nothing else;
- a restart empties the worker's matrix table, so digest-only traffic
  may answer :class:`~repro.errors.UnknownDigestError`; the parent
  forgets the digest and the network client transparently re-sends the
  payload;
- deadlines are absolute wall-clock (``time.time()``) instants, valid
  across the process boundary on one host; expired items fail with
  :class:`~repro.errors.DeadlineExceededError` before occupying a
  batch slot;
- chaos (``REPRO_CHAOS``) injects inside the worker: solve failures and
  slow calls exercise bisection/breakers/fallback, and
  :class:`~repro.testing.chaos.WorkerKillChaos` escalates to a genuine
  ``SIGKILL`` of the worker process (budgeted through the plan's
  ``state_dir`` markers, so a resubmitted request cannot kill every
  restart forever).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownDigestError,
    error_to_wire,
)
from repro.obs import tracer as obs
from repro.serve.batching import MicroBatcher, execute_batch
from repro.serve.cache import PreparedKey, PreparedSolverCache, prepare_entry
from repro.serve.metrics import MetricsRecorder
from repro.serve.net.protocol import (
    STATUS_BREAKER_OPEN,
    STATUS_CLOSED,
    STATUS_DEADLINE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHARD_FAILED,
    STATUS_UNKNOWN_DIGEST,
)
from repro.serve.net.transport import AttachedBlock, BlockRef, publish_block
from repro.serve.requests import SolveRequest
from repro.serve.resilience import (
    DEGRADABLE_ERRORS,
    CircuitBreaker,
    digital_fallback,
    prune_breakers,
)
from repro.serve.service import ServiceConfig, resolve_request
from repro.testing.chaos import WorkerKillChaos, chaos_entry_transform, plan_from_env

__all__ = ["ProcessWorkerPool", "WorkDone", "WorkFailed", "WorkItem", "WorkOutcome"]

#: Idle-poll period of worker loops and pump threads.
_POLL_S = 0.02

#: Non-failure statuses (the outcome carries result arrays).
_SUCCESS_STATUSES = (STATUS_OK, STATUS_DEGRADED)

_ERROR_STATUS = {
    "DeadlineExceededError": STATUS_DEADLINE,
    "CircuitOpenError": STATUS_BREAKER_OPEN,
    "UnknownDigestError": STATUS_UNKNOWN_DIGEST,
    "ShardFailedError": STATUS_SHARD_FAILED,
    "ServiceClosedError": STATUS_CLOSED,
}


def status_for_error(exc: BaseException) -> str:
    """Typed wire status for a request-level failure."""
    return _ERROR_STATUS.get(type(exc).__name__, STATUS_FAILED)


# ----------------------------------------------------------------------
# queue messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkItem:
    """One request crossing the request queue (parent → worker)."""

    id: int
    digest: str
    b: np.ndarray
    #: Matrix payload; ``None`` once the worker is known to hold the digest.
    matrix: np.ndarray | None = None
    solver: str | None = None
    prep_seed: int | None = None
    seed: int = 0
    #: Absolute wall-clock (``time.time()``) expiry, or ``None``.
    deadline_at: float | None = None
    #: Propagated trace context (:meth:`repro.obs.Span.context` of the
    #: server-side span), or ``None``; stitches the cross-process tree.
    trace: dict | None = None


@dataclass(frozen=True)
class WorkDone:
    """Successful response descriptor (worker → parent)."""

    id: int
    status: str
    block: BlockRef
    row: int
    telemetry: dict
    #: Counter deltas since the worker's previous message.
    counters: dict
    #: Cumulative (hits, misses, evictions, prepare_s) of the worker cache.
    cache: tuple


@dataclass(frozen=True)
class WorkFailed:
    """Failure response (worker → parent); the error is wire-encoded."""

    id: int
    status: str
    error: dict
    digest: str
    counters: dict
    cache: tuple


@dataclass(frozen=True)
class WorkOutcome:
    """What the pool delivers to a completion callback."""

    id: int
    status: str
    x: np.ndarray | None = None
    reference: np.ndarray | None = None
    telemetry: dict = field(default_factory=dict)
    error: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the outcome carries result arrays."""
        return self.status in _SUCCESS_STATUSES


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


class _Job:
    """A :class:`WorkItem` resolved to its cache identity (batcher item)."""

    __slots__ = ("item", "key", "hardware", "span", "admitted_at")

    def __init__(self, item: WorkItem, key: PreparedKey, hardware):
        self.item = item
        self.key = key
        self.hardware = hardware
        #: Worker-side request span (NOOP when tracing is disabled).
        self.span = obs.NOOP_SPAN
        self.admitted_at = 0.0


class _RequestView:
    """Duck-typed stand-in for :class:`SolveRequest` in ``resolve_request``.

    Carries only the identity fields — the matrix may be absent (digest
    known to the worker), which a real ``SolveRequest`` cannot express.
    """

    __slots__ = ("digest", "solver", "hardware", "prep_seed")

    def __init__(self, digest: str, solver: str | None, prep_seed: int | None):
        self.digest = digest
        self.solver = solver
        self.hardware = None  # net requests always use the service default
        self.prep_seed = prep_seed


class _WorkerState:
    """Everything one worker process owns (mirrors a thread ``_Shard``)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache = PreparedSolverCache(config.cache_capacity)
        self.batcher = MicroBatcher(config.max_batch_size)
        self.breakers: dict[PreparedKey, CircuitBreaker] = {}
        #: digest → matrix, bounded LRU (evictions answer UnknownDigestError).
        self.matrices: OrderedDict[str, np.ndarray] = OrderedDict()
        self.matrix_capacity = max(64, 4 * config.cache_capacity)
        self.plan = plan_from_env()
        self.entry_transform = config.entry_transform
        if self.entry_transform is None and self.plan is not None:
            self.entry_transform = chaos_entry_transform(self.plan)
        self.prepare_s = 0.0
        self.counters = {"retries": 0, "breaker_transitions": 0, "batch_sizes": []}

    def drain_counters(self) -> dict:
        out = {k: v for k, v in self.counters.items() if v}
        self.counters = {"retries": 0, "breaker_transitions": 0, "batch_sizes": []}
        return out

    def cache_snapshot(self) -> tuple:
        stats = self.cache.stats
        return (stats.hits, stats.misses, stats.evictions, self.prepare_s)


def _worker_main(config: ServiceConfig, request_q, response_q) -> None:
    """Entry point of one worker process (module-level for picklability)."""
    if config.trace_dir is not None:
        # Fresh tracer in the child: own lock, own spans-<pid>.jsonl.
        obs.configure(trace_dir=config.trace_dir)
    state = _WorkerState(config)
    while True:
        if not len(state.batcher):
            try:
                item = request_q.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            if item is None:
                return
            _admit(state, item, response_q)
        _drain(state, request_q, response_q)
        key = state.batcher.next_key()
        if key is None:
            continue
        _serve_key(state, key, request_q, response_q)


def _drain(state: _WorkerState, request_q, response_q) -> None:
    while len(state.batcher) < state.config.queue_depth:
        try:
            item = request_q.get_nowait()
        except queue.Empty:
            return
        if item is None:
            # Keep draining until exit so close() never strands a put.
            raise SystemExit(0)
        _admit(state, item, response_q)


def _admit(state: _WorkerState, item: WorkItem, response_q) -> None:
    """Resolve one item to its cache identity; fail it typed if impossible."""
    if item.matrix is not None:
        state.matrices[item.digest] = item.matrix
    elif item.digest not in state.matrices:
        _respond_failure(
            state,
            response_q,
            item,
            UnknownDigestError(
                f"worker holds no matrix for digest {item.digest[:12]} "
                "(restarted or evicted); re-send with the payload"
            ),
        )
        return
    # A payload or a reference both make the digest most recently used;
    # evict only after, so the digest being admitted always survives.
    state.matrices.move_to_end(item.digest)
    while len(state.matrices) > state.matrix_capacity:
        state.matrices.popitem(last=False)
    try:
        key, hardware = resolve_request(
            _RequestView(item.digest, item.solver, item.prep_seed), state.config
        )
    except Exception as exc:
        _respond_failure(state, response_q, item, exc)
        return
    job = _Job(item, key, hardware)
    tracer = obs.active()
    if tracer.enabled:
        # item.trace stitches this span under the server-side request
        # span even though we are in a different process.
        job.span = tracer.start_span(
            "shard.request",
            trace=item.trace,
            attributes={
                "digest": item.digest[:12],
                "seed": item.seed,
                "pid": os.getpid(),
            },
        )
        job.admitted_at = time.perf_counter()
    state.batcher.add(job)


def _serve_key(state: _WorkerState, key: PreparedKey, request_q, response_q) -> None:
    """Execute (or fail) the pending group for one prepared key."""
    config = state.config
    breaker = _breaker_for(state, key)
    if breaker is not None and not breaker.allow():
        _fail_key_group(
            state,
            key,
            response_q,
            CircuitOpenError(
                f"circuit breaker open for prepared solver {key.solver!r} "
                f"on matrix {key.matrix_digest[:12]}",
                retry_after_s=breaker.retry_after_s(),
            ),
        )
        return
    entry = _entry_for(state, key, breaker, response_q)
    if entry is None:
        return
    if (
        entry.coalescible
        and config.max_linger_s > 0.0
        and state.batcher.pending_for(key) < config.max_batch_size
    ):
        _linger(state, key, request_q, response_q)
    batch = _expire(state, state.batcher.take(key), response_q)
    if not batch:
        return
    state.cache.credit_hits(len(batch) - 1)
    state.counters["batch_sizes"].append(len(batch))
    start = time.perf_counter()
    tracer = obs.active()
    batch_span = obs.NOOP_SPAN
    if tracer.enabled:
        for job in batch:
            # Retroactive: admit → execution-start gap, no extra clock
            # reads on the untraced path.
            tracer.record_span(
                "shard.queue",
                parent=job.span,
                start_s=job.admitted_at,
                end_s=start,
            )
        batch_span = tracer.start_span(
            "shard.batch",
            attributes={
                "size": len(batch),
                "solver": key.solver,
                "pid": os.getpid(),
                "members": [job.span.span_id for job in batch],
            },
            start_s=start,
        )
    finished: list[tuple[_Job, object, str]] = []
    if tracer.enabled:
        with tracer.use_span(batch_span):
            _execute(state, entry, batch, breaker, finished)
    else:
        _execute(state, entry, batch, breaker, finished)
    per_request = (time.perf_counter() - start) / len(batch)
    if tracer.enabled:
        solved = time.perf_counter()
        for job, result, status in finished:
            if status:
                tracer.record_span(
                    "shard.solve",
                    parent=job.span,
                    start_s=start,
                    end_s=solved,
                    attributes={
                        "batch_span": batch_span.span_id,
                        "analog_time_s": float(
                            getattr(result, "analog_time_s", 0.0)
                        ),
                    },
                )
        batch_span.end()
    _publish(state, finished, response_q, per_request)


def _breaker_for(state: _WorkerState, key: PreparedKey) -> CircuitBreaker | None:
    policy = state.config.resilience
    if policy.breaker_threshold < 1:
        return None
    breaker = state.breakers.get(key)
    if breaker is None:

        def count():
            state.counters["breaker_transitions"] += 1

        breaker = CircuitBreaker(
            policy.breaker_threshold, policy.breaker_reset_s, on_transition=count
        )
        state.breakers[key] = breaker
        prune_breakers(state.breakers, state.cache, keep=key)
    return breaker


def _record_key_failure(
    state: _WorkerState, key: PreparedKey, breaker: CircuitBreaker | None
) -> None:
    if breaker is not None and breaker.record_failure():
        state.cache.invalidate(key)


def _entry_for(state: _WorkerState, key: PreparedKey, breaker, response_q):
    head = state.batcher.peek(key)
    matrix = state.matrices.get(head.item.digest)
    if matrix is None:
        _fail_key_group(
            state,
            key,
            response_q,
            UnknownDigestError(
                f"worker evicted the matrix for digest {key.matrix_digest[:12]}; "
                "re-send with the payload"
            ),
        )
        return None

    def factory():
        entry = prepare_entry(key, matrix, head.hardware)
        state.prepare_s += entry.prepare_seconds
        if state.entry_transform is not None:
            entry = state.entry_transform(entry)
        return entry

    try:
        return state.cache.get_or_prepare(key, factory)
    except Exception as exc:
        _record_key_failure(state, key, breaker)
        _fail_key_group(state, key, response_q, exc)
        return None


def _linger(state: _WorkerState, key: PreparedKey, request_q, response_q) -> None:
    deadline = time.perf_counter() + state.config.max_linger_s
    while (
        state.batcher.pending_for(key) < state.config.max_batch_size
        and len(state.batcher) < state.config.queue_depth
    ):
        remaining = deadline - time.perf_counter()
        if remaining <= 0.0:
            return
        try:
            item = request_q.get(timeout=remaining)
        except queue.Empty:
            return
        if item is None:
            raise SystemExit(0)
        _admit(state, item, response_q)


def _expire(state: _WorkerState, batch: list[_Job], response_q) -> list[_Job]:
    live = []
    now = time.time()
    for job in batch:
        if job.item.deadline_at is not None and now >= job.item.deadline_at:
            error = DeadlineExceededError(
                "deadline expired before the request reached execution"
            )
            job.span.fail(error)
            _respond_failure(state, response_q, job.item, error)
        else:
            live.append(job)
    return live


def _run_kernel(state: _WorkerState, entry, jobs: list[_Job]):
    """``execute_batch`` with the chaos-kill escalation seam.

    :class:`WorkerKillChaos` becomes a genuine ``SIGKILL`` of this
    process — unless the plan's ``state_dir`` kill budget for the
    triggering rhs is exhausted, in which case the batch re-executes
    clean (the chaos wrapper kills each tag at most once per process).
    """
    while True:
        try:
            return execute_batch(
                entry,
                [j.item.b for j in jobs],
                [j.item.seed for j in jobs],
                lean=True,
            )
        except WorkerKillChaos as chaos:
            plan = state.plan
            tag = getattr(chaos, "tag", "")
            if (
                plan is not None
                and plan.state_dir is not None
                and not plan._consume_budget("kill", tag, plan.max_kills_per_unit)
            ):
                continue
            os.kill(os.getpid(), signal.SIGKILL)
            raise  # pragma: no cover - unreachable


def _execute(state, entry, jobs: list[_Job], breaker, finished: list) -> None:
    try:
        results = _run_kernel(state, entry, jobs)
    except Exception:
        _isolate(state, entry, jobs, breaker, finished)
    else:
        finished.extend((job, result, STATUS_OK) for job, result in zip(jobs, results))
        if breaker is not None:
            breaker.record_success()


def _isolate(state, entry, jobs: list[_Job], breaker, finished: list) -> None:
    """Bisect a failed batch; same blast-radius semantics as the thread tier."""
    if len(jobs) == 1:
        job = jobs[0]
        state.counters["retries"] += 1
        try:
            result = _run_kernel(state, entry, jobs)[0]
        except Exception as exc:
            _degrade_or_fail(state, entry, job, exc, breaker, finished)
        else:
            finished.append((job, result, STATUS_OK))
            if breaker is not None:
                breaker.record_success()
        return
    mid = len(jobs) // 2
    for half in (jobs[:mid], jobs[mid:]):
        state.counters["retries"] += 1
        try:
            results = _run_kernel(state, entry, half)
        except Exception:
            _isolate(state, entry, half, breaker, finished)
        else:
            finished.extend(
                (job, result, STATUS_OK) for job, result in zip(half, results)
            )
            if breaker is not None:
                breaker.record_success()


def _degrade_or_fail(state, entry, job: _Job, exc, breaker, finished: list) -> None:
    _record_key_failure(state, entry.key, breaker)
    policy = state.config.resilience
    if policy.fallback == "digital" and isinstance(exc, DEGRADABLE_ERRORS):
        matrix = state.matrices.get(job.item.digest)
        if matrix is not None:
            try:
                result = digital_fallback(
                    SolveRequest(matrix=matrix, b=job.item.b, digest=job.item.digest),
                    lean=True,
                )
            except Exception as fallback_exc:
                finished.append((job, fallback_exc, None))
                return
            finished.append((job, result, STATUS_DEGRADED))
            return
    finished.append((job, exc, None))


def _publish(state, finished: list, response_q, per_request_s: float) -> None:
    """Ship one batch's outcomes: one shm block, one message per request."""
    successes = [(job, result, status) for job, result, status in finished if status]
    failures = [(job, result) for job, result, status in finished if status is None]
    counters = state.drain_counters()
    counters["service_per_request_s"] = per_request_s
    cache = state.cache_snapshot()
    # Group by solution dtype before stacking: a float32-tier batch may
    # carry a float64 degraded-fallback row, and np.stack across the mix
    # would silently upcast the analog rows. One group (one block) in
    # the common case.
    groups: dict[str, list] = {}
    for job, result, status in successes:
        groups.setdefault(np.asarray(result.x).dtype.name, []).append(
            (job, result, status)
        )
    for group in groups.values():
        block = publish_block(
            np.stack([result.x for _, result, _ in group]),
            np.stack([result.reference for _, result, _ in group]),
        )
        for row, (job, result, status) in enumerate(group):
            job.span.end(status="ok" if status == STATUS_OK else "degraded")
            response_q.put(
                WorkDone(
                    id=job.item.id,
                    status=status,
                    block=block,
                    row=row,
                    telemetry=_telemetry(result, len(finished)),
                    counters=counters,
                    cache=cache,
                )
            )
            counters = {}
    for job, exc in failures:
        job.span.fail(exc)
        response_q.put(
            WorkFailed(
                id=job.item.id,
                status=status_for_error(exc),
                error=error_to_wire(exc),
                digest=job.item.digest,
                counters=counters,
                cache=cache,
            )
        )
        counters = {}


def _telemetry(result, batch: int) -> dict:
    metadata = {
        key: (float(value) if isinstance(value, (int, float, np.floating)) else value)
        for key, value in result.metadata.items()
        if isinstance(value, (str, bool, int, float, np.floating))
    }
    return {
        "solver": result.solver,
        "saturated": bool(result.saturated),
        "analog_time_s": float(result.analog_time_s),
        "batch": batch,
        "metadata": metadata,
    }


def _respond_failure(state: _WorkerState, response_q, item: WorkItem, exc) -> None:
    response_q.put(
        WorkFailed(
            id=item.id,
            status=status_for_error(exc),
            error=error_to_wire(exc),
            digest=item.digest,
            counters=state.drain_counters(),
            cache=state.cache_snapshot(),
        )
    )


def _fail_key_group(state: _WorkerState, key: PreparedKey, response_q, exc) -> None:
    while True:
        group = state.batcher.take(key)
        if not group:
            return
        for job in group:
            job.span.fail(exc)
            _respond_failure(state, response_q, job.item, exc)


# ----------------------------------------------------------------------
# front-end pool
# ----------------------------------------------------------------------


class _Pending:
    """One in-flight request as the front end tracks it."""

    __slots__ = ("callback", "submitted_at")

    def __init__(self, callback: Callable[[WorkOutcome], None], submitted_at: float):
        self.callback = callback
        self.submitted_at = submitted_at


class _ProcShard:
    """One worker process plus the parent-side state that shadows it."""

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.Lock()
        self.generation = 0
        self.process = None
        self.request_q = None
        self.response_q = None
        self.pump: threading.Thread | None = None
        #: id → _Pending of requests handed to the current incarnation.
        self.inflight: dict[int, _Pending] = {}
        #: Digests the current worker incarnation holds matrices for.
        self.known_digests: set[str] = set()
        #: Attached (partially consumed) shm blocks, by segment name.
        self.blocks: dict[str, AttachedBlock] = {}
        self.service_ewma_s = 0.0
        self.restarts = 0
        self.closing = False
        self.dead = False
        #: True between a death being handled and the fresh queues being
        #: live; submits in that window are refused (retryable) instead
        #: of landing on the orphaned incarnation's queue.
        self.restarting = False
        #: Cache counters carried over from dead incarnations.
        self.cache_base = (0, 0, 0, 0.0)
        self.cache_latest = (0, 0, 0, 0.0)

    def backlog(self) -> int:
        return len(self.inflight)

    def cache_totals(self) -> tuple:
        return tuple(a + b for a, b in zip(self.cache_base, self.cache_latest))


class ProcessWorkerPool:
    """Digest-sharded pool of worker processes with shared-memory results.

    The network server submits with a completion callback; the shard's
    pump thread invokes it with a :class:`WorkOutcome` once the worker
    answers (or the shard dies). Thread-safe; one pump thread per shard
    incarnation.
    """

    def __init__(self, config: ServiceConfig, recorder: MetricsRecorder | None = None):
        self.config = config
        self.recorder = recorder or MetricsRecorder()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._closed = False
        self._shards = [_ProcShard(i) for i in range(config.workers)]
        for shard in self._shards:
            self._start_shard(shard)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_shard(self, shard: _ProcShard) -> None:
        """Launch a (fresh) worker incarnation. Caller holds no locks."""
        shard.request_q = self._ctx.Queue()
        shard.response_q = self._ctx.Queue()
        shard.known_digests = set()
        shard.generation += 1
        shard.process = self._ctx.Process(
            target=_worker_main,
            args=(self.config, shard.request_q, shard.response_q),
            name=f"repro-net-worker-{shard.index}",
            daemon=True,
        )
        shard.process.start()
        shard.pump = threading.Thread(
            target=self._pump,
            args=(shard, shard.generation),
            name=f"repro-net-pump-{shard.index}.{shard.generation}",
            daemon=True,
        )
        shard.pump.start()
        with shard.lock:
            shard.restarting = False

    @staticmethod
    def _retire_queues(*queues) -> None:
        """Release queue resources for a finished/killed incarnation.

        ``cancel_join_thread`` matters: multiprocessing joins every
        queue's feeder thread at interpreter exit, and a feeder holding
        data for a SIGKILLed reader never drains — without this the
        parent process completes all work and then hangs on exit.
        """
        for q in queues:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Stop the workers; fail anything still in flight as closed."""
        self._closed = True
        for shard in self._shards:
            with shard.lock:
                shard.closing = True
                request_q = shard.request_q
            try:
                request_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for shard in self._shards:
            process, pump = shard.process, shard.pump
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.kill()
                    process.join(timeout=5.0)
            if pump is not None:
                pump.join(timeout=5.0)
            self._fail_inflight(
                shard,
                ServiceClosedError("service closed while this request was in flight"),
            )
            self._retire_queues(shard.request_q, shard.response_q)
            with shard.lock:
                for block in shard.blocks.values():
                    block.release()
                shard.blocks.clear()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def shard_index(self, digest: str) -> int:
        """Stable digest → shard routing (same scheme as the cache key)."""
        return int(digest[:16], 16) % len(self._shards)

    def estimated_wait_s(self, digest: str) -> float:
        """Backlog × recent service time of the owning shard (shed input)."""
        shard = self._shards[self.shard_index(digest)]
        with shard.lock:
            return shard.backlog() * shard.service_ewma_s

    def submit(
        self,
        *,
        request_id: int,
        digest: str,
        b: np.ndarray,
        matrix: np.ndarray | None,
        solver: str | None,
        prep_seed: int | None,
        seed: int,
        deadline_at: float | None,
        callback: Callable[[WorkOutcome], None],
        trace: dict | None = None,
    ) -> None:
        """Hand one request to its shard; ``callback`` fires exactly once.

        Raises typed errors for conditions known before dispatch: a dead
        shard (:class:`ShardFailedError`), a full shard
        (:class:`ServiceOverloadedError` — the network tier always
        rejects rather than blocking the event loop), and a digest-only
        request whose matrix this worker incarnation has never seen
        (:class:`UnknownDigestError` — decided parent-side, saving the
        round trip).
        """
        if self._closed:
            raise ServiceClosedError("service is closed; no further requests accepted")
        shard = self._shards[self.shard_index(digest)]
        with shard.lock:
            if shard.dead:
                raise ShardFailedError(
                    f"shard {shard.index} is dead (crashed {shard.restarts} times); "
                    "request refused"
                )
            if shard.restarting:
                raise ShardFailedError(
                    f"shard {shard.index} is restarting after a crash; retry shortly"
                )
            if len(shard.inflight) >= self.config.queue_depth:
                raise ServiceOverloadedError(
                    f"shard {shard.index} has {len(shard.inflight)} requests "
                    "in flight (queue_depth reached)"
                )
            if matrix is None and digest not in shard.known_digests:
                raise UnknownDigestError(
                    f"server holds no matrix for digest {digest[:12]}; "
                    "re-send with the payload"
                )
            shard.inflight[request_id] = _Pending(callback, time.perf_counter())
            if matrix is not None:
                shard.known_digests.add(digest)
            shard.request_q.put(
                WorkItem(
                    id=request_id,
                    digest=digest,
                    b=b,
                    matrix=matrix,
                    solver=solver,
                    prep_seed=prep_seed,
                    seed=seed,
                    deadline_at=deadline_at,
                    trace=trace,
                )
            )
        self.recorder.record_submit()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def cache_stats(self):
        """Aggregated prepared-cache stats across shards (all incarnations)."""
        from repro.serve.cache import CacheStats

        totals = [shard.cache_totals() for shard in self._shards]
        return CacheStats(
            hits=sum(t[0] for t in totals),
            misses=sum(t[1] for t in totals),
            evictions=sum(t[2] for t in totals),
        )

    def alive_workers(self) -> int:
        """How many shards currently have a live worker process."""
        return sum(
            1
            for shard in self._shards
            if shard.process is not None and shard.process.is_alive()
        )

    # ------------------------------------------------------------------
    # pump (parent side of each shard)
    # ------------------------------------------------------------------
    def _pump(self, shard: _ProcShard, generation: int) -> None:
        while True:
            try:
                msg = shard.response_q.get(timeout=_POLL_S)
            except queue.Empty:
                with shard.lock:
                    if shard.generation != generation:
                        return
                    process = shard.process
                if process is None or not process.is_alive():
                    self._handle_death(shard, generation)
                    return
                continue
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                return
            self._handle_message(shard, msg)

    def _handle_message(self, shard: _ProcShard, msg) -> None:
        now = time.perf_counter()
        self._absorb_counters(shard, msg.counters, msg.cache)
        with shard.lock:
            pending = shard.inflight.pop(msg.id, None)
        if isinstance(msg, WorkDone):
            x, reference = self._consume_row(shard, msg.block, msg.row)
            outcome = WorkOutcome(
                id=msg.id,
                status=msg.status,
                x=x,
                reference=reference,
                telemetry=msg.telemetry,
            )
            if msg.status == STATUS_DEGRADED:
                self.recorder.record_degraded()
        else:
            if msg.status == STATUS_UNKNOWN_DIGEST:
                with shard.lock:
                    shard.known_digests.discard(msg.digest)
            if msg.status == STATUS_DEADLINE:
                self.recorder.record_deadline_miss()
            outcome = WorkOutcome(id=msg.id, status=msg.status, error=msg.error)
        if pending is None:  # pragma: no cover - defensive (stale response)
            return
        self.recorder.record_done(
            now - pending.submitted_at, failed=not outcome.ok
        )
        pending.callback(outcome)

    def _consume_row(self, shard: _ProcShard, ref: BlockRef, row: int):
        if ref.inline:
            return AttachedBlock(ref).row(row)
        with shard.lock:
            block = shard.blocks.get(ref.name)
            if block is None:
                block = AttachedBlock(ref)
                shard.blocks[ref.name] = block
            x, reference = block.row(row)
            if block.released:
                shard.blocks.pop(ref.name, None)
        return x, reference

    def _absorb_counters(self, shard: _ProcShard, counters: dict, cache: tuple) -> None:
        for _ in range(counters.get("retries", 0)):
            self.recorder.record_retry()
        for _ in range(counters.get("breaker_transitions", 0)):
            self.recorder.record_breaker_transition()
        for size in counters.get("batch_sizes", ()):
            self.recorder.record_batch(size)
        per_request = counters.get("service_per_request_s")
        with shard.lock:
            prepare_delta = max(0.0, cache[3] - shard.cache_latest[3])
            shard.cache_latest = cache
            if per_request is not None:
                shard.service_ewma_s = (
                    per_request
                    if shard.service_ewma_s == 0.0
                    else 0.8 * shard.service_ewma_s + 0.2 * per_request
                )
        if prepare_delta:
            self.recorder.record_prepare(prepare_delta)

    def _handle_death(self, shard: _ProcShard, generation: int) -> None:
        """A worker incarnation died: deliver stragglers, fail the rest."""
        # Drain whatever the worker managed to answer before dying.
        while True:
            try:
                msg = shard.response_q.get_nowait()
            except (queue.Empty, OSError, ValueError):
                break
            self._handle_message(shard, msg)
        with shard.lock:
            if shard.generation != generation:  # pragma: no cover - defensive
                return
            closing = shard.closing
            shard.restarting = True
            for block in shard.blocks.values():
                block.release()
            shard.blocks.clear()
        self._retire_queues(shard.request_q, shard.response_q)
        if closing:
            self._fail_inflight(
                shard,
                ServiceClosedError("service closed while this request was in flight"),
            )
            return
        self.recorder.record_shard_crash()
        self._fail_inflight(
            shard,
            ShardFailedError(
                f"shard {shard.index} worker died while this request was in flight"
            ),
        )
        with shard.lock:
            # Fold the dead incarnation's cache counters into the base so
            # pool-level totals survive restarts.
            shard.cache_base = shard.cache_totals()
            shard.cache_latest = (0, 0, 0, 0.0)
            shard.restarts += 1
            if shard.restarts > self.config.resilience.max_shard_restarts:
                shard.dead = True
                return
        self._start_shard(shard)

    def _fail_inflight(self, shard: _ProcShard, error) -> None:
        with shard.lock:
            pending, shard.inflight = shard.inflight, {}
        payload = error_to_wire(error)
        status = status_for_error(error)
        now = time.perf_counter()
        for request_id, entry in pending.items():
            self.recorder.record_done(now - entry.submitted_at, failed=True)
            entry.callback(
                WorkOutcome(id=request_id, status=status, error=payload)
            )
