"""Process-based service workers behind the network front-end.

The in-process :class:`~repro.serve.service.SolverService` shards onto
*threads*; this pool shards the same way onto *processes*, so heavy
solves scale past the GIL on multi-core hosts. Each worker process owns
one :class:`~repro.serve.shard.ShardEngine`, the same step a thread
shard runs — a warm :class:`~repro.serve.cache.PreparedSolverCache`, a
:class:`~repro.serve.batching.MicroBatcher`, per-key circuit breakers,
deadline expiry, bisecting isolation and the fallback ladder — so
results are bit-identical to :func:`~repro.serve.service.run_sequential`
regardless of process count or scheduling, and failures are those of a
thread shard. The worker adds only its transport: it admits request
messages, keeps the matrix stash, and answers on the response queue.

Plumbing per shard: an unbounded request queue in and a response queue
out, each message carrying whatever was ready when it was sent. A
request message is a list of :class:`WorkItem` (the rhs vector, plus the
matrix payload only the first time a digest is seen): every request
submitted to the shard in one event-loop iteration leaves as one
message, which the worker admits in order. A response message is one
:class:`WorkReplies` per executed batch, one :class:`WorkDone` or
:class:`WorkFailed` row per request, each row's solution and reference
pickled at their own dtypes (so the bits cross unchanged). Nothing waits
for a message to fill: no timer, no size threshold. A **pump thread** in
the front-end process drains each shard's responses and fires the
completion callbacks. The counts the worker's engine makes (batches,
retries, breaker transitions, deadline misses, degraded answers,
prepare time and, while tracing, stage durations) travel with each
response message and are replayed into the front end's recorder.

Failure story:

- the parent detects worker death (the pump notices ``is_alive()`` went
  false), fails every in-flight request of that shard with
  :class:`~repro.errors.ShardFailedError` (retryable), and restarts the
  worker with **fresh queues** and an empty outbox up to the policy's
  ``max_shard_restarts`` — fresh queues make "which requests died with
  the worker" exact: everything in flight did (requests still waiting in
  the outbox included), nothing else;
- a restart empties the worker's matrix table, so digest-only traffic
  may answer :class:`~repro.errors.UnknownDigestError`; the parent
  forgets the digest and the network client transparently re-sends the
  payload;
- deadlines are absolute ``time.perf_counter()`` instants
  (``CLOCK_MONOTONIC`` on Linux, one clock for every process on the
  host, so a wall-clock step neither expires nor extends one); expired
  items fail with :class:`~repro.errors.DeadlineExceededError` before
  occupying a batch slot;
- a worker whose front-end process died (its parent pid changed) exits
  on its next idle poll instead of polling an orphaned queue for ever;
- chaos (``REPRO_CHAOS``) injects inside the worker: solve failures and
  slow calls exercise bisection/breakers/fallback, and
  :class:`~repro.testing.chaos.WorkerKillChaos` escalates to a genuine
  ``SIGKILL`` of the worker process (budgeted through the plan's
  ``state_dir`` markers, so a resubmitted request cannot kill every
  restart forever).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import parent_process
from typing import Callable

import numpy as np

from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownDigestError,
    error_to_wire,
)
from repro.obs import tracer as obs
from repro.serve.cache import CacheStats, PreparedKey
from repro.serve.metrics import CountLog, MetricsRecorder
from repro.serve.net.protocol import (
    STATUS_BREAKER_OPEN,
    STATUS_CLOSED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_SHARD_FAILED,
    STATUS_UNKNOWN_DIGEST,
)
from repro.serve.service import ServiceConfig, resolve_request
from repro.serve.shard import POLL_S, ShardEngine, stage_metrics_hook
from repro.testing.chaos import WorkerKillChaos, chaos_entry_transform, plan_from_env

__all__ = [
    "ProcessWorkerPool",
    "WorkDone",
    "WorkFailed",
    "WorkItem",
    "WorkOutcome",
    "WorkReplies",
]

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
    """One request in a request-queue message (parent → worker)."""

    id: int
    digest: str
    b: np.ndarray
    #: Matrix payload; ``None`` once the worker is known to hold the digest.
    matrix: np.ndarray | None = None
    solver: str | None = None
    prep_seed: int | None = None
    seed: int = 0
    #: Absolute ``time.perf_counter()`` expiry (``CLOCK_MONOTONIC``, one
    #: clock for every process on the host), or ``None``.
    deadline_at: float | None = None
    #: Propagated trace context (:meth:`repro.obs.Span.context` of the
    #: server-side span), or ``None``; stitches the cross-process tree.
    trace: dict | None = None
    #: Not a field: net requests always use the service's default hardware
    #: (read by :func:`~repro.serve.service.resolve_request`).
    hardware = None


@dataclass(frozen=True)
class WorkDone:
    """Successful response row carrying the row's own arrays."""

    id: int
    status: str
    #: Solution at the worker's dtype (float32 on that tier).
    x: np.ndarray
    #: Digital reference (always float64).
    reference: np.ndarray
    telemetry: dict
    #: Not a field: the row carries result arrays.
    ok = True


@dataclass(frozen=True)
class WorkFailed:
    """Failure response row; the error is wire-encoded."""

    id: int
    status: str
    error: dict
    #: The request's digest (read back on ``unknown-digest``).
    digest: str = ""
    #: Not a field: the row carries no result arrays.
    ok = False


@dataclass(frozen=True)
class WorkReplies:
    """One response-queue message (worker → parent): rows answered together."""

    #: :class:`WorkDone`/:class:`WorkFailed` rows, in answer order.
    rows: list
    #: :class:`~repro.serve.metrics.CountLog` calls since the worker's
    #: previous message (replayed into the front end's recorder).
    counters: list
    #: Cumulative (hits, misses, evictions) of the worker cache.
    cache: tuple
    #: The worker engine's per-request service-time EWMA (shed input).
    service_ewma_s: float


#: What the pool delivers to a completion callback: the response row.
WorkOutcome = WorkDone | WorkFailed


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


class _Job:
    """A :class:`WorkItem` resolved to its cache identity (batcher item)."""

    __slots__ = (
        "item", "key", "hardware", "matrix", "b", "seed", "deadline_at",
        "span", "submitted_at",
    )

    def __init__(self, item: WorkItem, key: PreparedKey, hardware, matrix):
        self.item = item
        self.key = key
        self.hardware = hardware
        self.matrix = matrix
        self.b = item.b
        self.seed = item.seed
        self.deadline_at = item.deadline_at
        #: Worker-side request span (NOOP when tracing is disabled).
        self.span = obs.NOOP_SPAN
        #: Admission stamp, the start of the queue stage (set while tracing).
        self.submitted_at = 0.0


class _Worker(ShardEngine):
    """One worker process: its shard engine plus the queue transport."""

    def __init__(self, config: ServiceConfig, request_q, response_q):
        self.plan = plan_from_env()
        if config.entry_transform is None and self.plan is not None:
            config = replace(config, entry_transform=chaos_entry_transform(self.plan))
        super().__init__(replace(config, lean_results=True), CountLog())
        self.request_q = request_q
        self.response_q = response_q
        #: digest → matrix, bounded LRU (evictions answer UnknownDigestError).
        self.matrices: OrderedDict[str, np.ndarray] = OrderedDict()
        self.matrix_capacity = max(64, 4 * config.cache_capacity)
        #: The front end's pid, recorded by it before the fork (a front end
        #: that died before this line ran is no longer the parent pid
        #: here); a changed parent pid means the front end died.
        parent = parent_process()
        self.parent = os.getppid() if parent is None else parent.pid

    def run(self) -> None:
        """Serve until the close sentinel, or until the front end is gone."""
        while True:
            if not len(self.batcher) and not self._pull(POLL_S):
                if os.getppid() != self.parent:
                    # Orphaned: nothing will read our answers, so exit
                    # without flushing them into a pipe no one drains.
                    self.response_q.cancel_join_thread()
                    return
                continue
            self.drain()
            self.step()

    def _pull(self, timeout: float) -> bool:
        try:
            if timeout:
                message = self.request_q.get(timeout=timeout)
            else:
                message = self.request_q.get_nowait()
        except queue.Empty:
            return False
        if message is None:
            # Keep draining until exit so close() never strands a put.
            raise SystemExit(0)
        for item in message:
            self._admit(item)
        return True

    def _admit(self, item: WorkItem) -> None:
        """Resolve one item to its cache identity; fail it typed if impossible."""
        if item.matrix is not None:
            self.matrices[item.digest] = item.matrix
        elif item.digest not in self.matrices:
            error = UnknownDigestError(
                f"worker holds no matrix for digest {item.digest[:12]} "
                "(restarted or evicted); re-send with the payload"
            )
            self._reply([_failed_row(item, error)])
            return
        # A payload or a reference both make the digest most recently used;
        # evict only after, so the digest being admitted always survives.
        self.matrices.move_to_end(item.digest)
        matrix = self.matrices[item.digest]
        while len(self.matrices) > self.matrix_capacity:
            self.matrices.popitem(last=False)
        try:
            key, hardware = resolve_request(item, self.config)
        except Exception as exc:
            self._reply([_failed_row(item, exc)])
            return
        job = _Job(item, key, hardware, matrix)
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
            job.submitted_at = time.perf_counter()
        self.batcher.add(job)

    def _run_kernel(self, entry, jobs: list):
        """The engine's kernel call with the chaos-kill escalation seam.

        :class:`WorkerKillChaos` becomes a genuine ``SIGKILL`` of this
        process — unless the plan's ``state_dir`` kill budget for the
        triggering rhs is exhausted, in which case the batch re-executes
        clean (the chaos wrapper kills each tag at most once per process).
        """
        while True:
            try:
                return super()._run_kernel(entry, jobs)
            except WorkerKillChaos as chaos:
                plan = self.plan
                tag = getattr(chaos, "tag", "")
                if (
                    plan is not None
                    and plan.state_dir is not None
                    and not plan._consume_budget("kill", tag, plan.max_kills_per_unit)
                ):
                    continue
                os.kill(os.getpid(), signal.SIGKILL)
                raise  # pragma: no cover - unreachable

    def _deliver(self, finished: list) -> None:
        """Answer outcomes as one message, one row per request.

        Each row carries its own arrays, so a float64 degraded row next to
        float32 analog rows keeps every row's dtype.
        """
        rows = []
        for job, outcome, status in finished:
            if status:
                job.span.end(status=status)
                rows.append(
                    WorkDone(
                        id=job.item.id,
                        status=status,
                        x=outcome.x,
                        reference=outcome.reference,
                        telemetry=_telemetry(outcome, len(finished)),
                    )
                )
            else:
                job.span.fail(outcome)
                rows.append(_failed_row(job.item, outcome))
        self._reply(rows)

    def _reply(self, rows: list) -> None:
        """Put ``rows`` on the response queue as one message (none if empty)."""
        if rows:
            stats = self.cache.stats
            self.response_q.put(
                WorkReplies(
                    rows,
                    self.recorder.drain(),
                    (stats.hits, stats.misses, stats.evictions),
                    self.service_ewma_s,
                )
            )


def _worker_main(config: ServiceConfig, request_q, response_q) -> None:
    """Entry point of one worker process (module-level for picklability)."""
    if config.trace_dir is not None:
        # Fresh tracer in the child: own lock, own spans-<pid>.jsonl.
        obs.configure(trace_dir=config.trace_dir)
    worker = _Worker(config, request_q, response_q)
    # While tracing, stage durations ride the counts to the front end.
    obs.active().add_finish_hook(stage_metrics_hook(worker.recorder))
    worker.run()


def _telemetry(result, batch: int) -> dict:
    metadata = {
        key: (
            float(value)
            if isinstance(value, (int, float, np.floating))
            and not isinstance(value, bool)
            else value
        )
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


def _failed_row(item: WorkItem, exc) -> WorkFailed:
    return WorkFailed(
        id=item.id,
        status=status_for_error(exc),
        error=error_to_wire(exc),
        digest=item.digest,
    )


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
        #: Submitted items not yet put on the request queue; they leave as
        #: one message when the pool flushes the shard.
        self.outbox: list[WorkItem] = []
        #: Digests the current worker incarnation holds matrices for.
        self.known_digests: set[str] = set()
        #: The worker engine's service-time EWMA, from its latest message.
        self.service_ewma_s = 0.0
        self.restarts = 0
        self.closing = False
        self.dead = False
        #: True between a death being handled and the fresh queues being
        #: live; submits in that window are refused (retryable) instead
        #: of landing on the orphaned incarnation's queue.
        self.restarting = False
        #: Cache counters carried over from dead incarnations.
        self.cache_base = (0, 0, 0)
        self.cache_latest = (0, 0, 0)

    def backlog(self) -> int:
        return len(self.inflight)

    def cache_totals(self) -> tuple:
        return tuple(a + b for a, b in zip(self.cache_base, self.cache_latest))


class ProcessWorkerPool:
    """Digest-sharded pool of worker processes.

    The network server submits with a completion callback; the shard's
    pump thread invokes it with the request's :class:`WorkDone` or
    :class:`WorkFailed` row once the worker answers (or the shard dies).
    A submit appends its :class:`WorkItem` to the shard's outbox, and the
    first item in an empty outbox schedules one flush that puts the whole
    outbox on the request queue as one message. Submitted on a running
    event loop (the server's), the flush runs once the loop has run the
    callbacks it had ready, so everything submitted to a shard in one
    loop iteration leaves together; submitted from a plain thread, it
    runs at once. Results come back on each shard's response queue, one
    :class:`WorkReplies` message per executed batch. Thread-safe; one
    pump thread per shard incarnation.
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
            try:
                self._flush(shard)
                shard.request_q.put(None)
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

        ``deadline_at`` is a ``time.perf_counter()`` instant (or ``None``).
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
            shard.outbox.append(
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
            first = len(shard.outbox) == 1
        if first:
            self._schedule_flush(shard)
        self.recorder.record_submit()

    def _schedule_flush(self, shard: _ProcShard) -> None:
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._flush(shard)
        else:
            # Runs after the callbacks the loop already holds, e.g. after
            # the reader coroutine has dispatched every buffered frame.
            loop.call_soon(self._flush, shard)

    def _flush(self, shard: _ProcShard) -> None:
        """Put the shard's outbox on its request queue as one message."""
        with shard.lock:
            items, shard.outbox = shard.outbox, []
            if items:
                shard.request_q.put(items)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Aggregated prepared-cache stats across shards (all incarnations)."""
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
                msg = shard.response_q.get(timeout=POLL_S)
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

    def _handle_message(self, shard: _ProcShard, msg: WorkReplies) -> None:
        now = time.perf_counter()
        self.recorder.replay(msg.counters)
        with shard.lock:
            shard.cache_latest = msg.cache
            shard.service_ewma_s = msg.service_ewma_s
            pending = [shard.inflight.pop(row.id, None) for row in msg.rows]
            for row in msg.rows:
                if row.status == STATUS_UNKNOWN_DIGEST:
                    shard.known_digests.discard(row.digest)
        for row, entry in zip(msg.rows, pending):
            if entry is None:  # pragma: no cover - defensive (stale response)
                continue
            self.recorder.record_done(now - entry.submitted_at, failed=not row.ok)
            entry.callback(row)

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
            # Items still in the outbox are in flight: they fail with this
            # incarnation below and never reach the next one.
            shard.outbox = []
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
            shard.cache_latest = (0, 0, 0)
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
            entry.callback(WorkFailed(id=request_id, status=status, error=payload))
