"""The TCP front-end: asyncio acceptor over the process worker pool.

:class:`NetServer` binds a host/port, runs an asyncio event loop on a
background thread, and serves the :mod:`repro.serve.net.protocol` frame
vocabulary. Per connection it keeps one reader coroutine (decode frames,
admit requests) and one writer task draining an outbound queue — so
responses go out **as workers finish them**, out of order, and one slow
solve never convoys the connection.

Admission control runs in policy order on the event-loop thread, each
refusal a typed wire error with its own status:

1. **tenant quota** (token bucket) → ``overloaded`` with a retry-after
   hint (:class:`~repro.errors.QuotaExceededError`);
2. **load shedding** (backlog × recent service time vs the policy's
   ``shed_latency_s``) → ``shed`` with the estimate as retry-after;
3. **backpressure** (shard in-flight bound) → ``overloaded``
   (:class:`~repro.errors.ServiceOverloadedError`; the network tier
   always rejects — blocking the event loop is not an option);
4. dispatch to the owning worker process. The request joins its shard's
   outbox, and the outbox leaves as one request-queue message once the
   loop has dispatched every frame already read; the worker answers
   each executed batch as one response message. Completion callbacks
   run on a pump thread and append their response frames to a ready
   list; only a frame that finds the list empty wakes the loop
   (``call_soon_threadsafe``), and that one wake-up moves every ready
   frame to its connection's queue. The writer sends every frame queued
   for its connection with one socket write. Each hop sends what is
   ready and never waits for more.

Deadlines arrive as ``deadline_ms`` (client-relative), are converted to
an absolute ``time.perf_counter()`` instant on receipt
(``CLOCK_MONOTONIC`` on Linux, the same clock in every process on the
host, so a wall-clock step neither expires nor extends one), and
propagate into the worker process, whose shard engine drops expired
items before execution, as a thread shard does.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    OverloadedError,
    ReproError,
    ServeError,
    WireProtocolError,
    error_to_wire,
)
from repro.obs import tracer as obs
from repro.serve.metrics import MetricsRecorder
from repro.serve.net.protocol import (
    STATUS_FAILED,
    STATUS_OVERLOADED,
    STATUS_SHED,
    array_dtype_name,
    array_from_bytes,
    array_to_bytes,
    encode_frame,
    read_frame,
)
from repro.serve.net.quotas import QuotaPolicy, TenantQuotas
from repro.serve.net.workers import ProcessWorkerPool, WorkOutcome, status_for_error
from repro.serve.requests import matrix_digest
from repro.serve.service import ServiceConfig

__all__ = ["NetServer", "NetServerConfig"]


@dataclass(frozen=True)
class NetServerConfig:
    """Tuning knobs of one :class:`NetServer`.

    ``service`` carries the per-worker engine knobs (batching, cache,
    resilience policy) shared with the in-process tier; ``quota``
    enables per-tenant token buckets when set. ``port=0`` binds an
    ephemeral port (the bound address is ``server.address`` after
    :meth:`NetServer.start`).
    """

    host: str = "127.0.0.1"
    port: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    quota: QuotaPolicy | None = None


class NetServer:
    """Serve solve traffic over TCP through process workers.

    Use as a context manager::

        with NetServer(NetServerConfig(port=0)) as server:
            host, port = server.address
            ...
    """

    def __init__(self, config: NetServerConfig | None = None):
        self.config = config or NetServerConfig()
        self.recorder = MetricsRecorder()
        self._quotas = (
            TenantQuotas(self.config.quota) if self.config.quota is not None else None
        )
        self._pool: ProcessWorkerPool | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] | None = None
        #: Monotonically increasing server-side request ids (loop thread only).
        self._next_id = 0
        #: (connection queue, frame) pairs answered by pump threads and not
        #: yet handed to the loop.
        self._ready: list[tuple[asyncio.Queue, bytes]] = []
        self._ready_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "NetServer":
        """Spawn the worker pool and the event-loop thread; bind the port."""
        if self._thread is not None:
            raise ServeError("server already started")
        if self.config.service.trace_dir is not None:
            # Front-end spans; each worker process configures its own
            # tracer against the same directory after the fork.
            obs.configure(trace_dir=self.config.service.trace_dir)
        self._pool = ProcessWorkerPool(self.config.service, self.recorder)
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-net-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self.close()
            raise self._startup_error
        return self

    def close(self) -> None:
        """Stop accepting, tear down the loop, shut the workers down."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection, self.config.host, self.config.port
                )
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        except BaseException as exc:  # pragma: no cover - bind failure
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            # Cancel still-open connection handlers before closing the
            # loop (otherwise asyncio logs destroyed-pending-task noise).
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        out_q: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._drain_responses(out_q, writer))
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except WireProtocolError as exc:
                    # Framing is broken — answer typed, then hang up (the
                    # byte stream can no longer be trusted).
                    out_q.put_nowait(
                        encode_frame(
                            {
                                "type": "error",
                                "id": None,
                                "status": STATUS_FAILED,
                                "error": error_to_wire(exc),
                            }
                        )
                    )
                    break
                if frame is None:
                    break
                header, blobs = frame
                self._dispatch(header, blobs, out_q)
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass
        finally:
            out_q.put_nowait(None)
            try:
                await writer_task
            except (Exception, asyncio.CancelledError):
                # Peer vanished mid-write, or the loop is shutting down
                # and cancelled the writer under us.
                pass
            writer.close()

    async def _drain_responses(self, out_q: asyncio.Queue, writer) -> None:
        """Write every frame queued for the connection with one write."""
        while True:
            frames = [await out_q.get()]
            while not out_q.empty():
                frames.append(out_q.get_nowait())
            closing = None in frames
            if closing:
                frames = frames[: frames.index(None)]
            if frames:
                writer.write(b"".join(frames))
                await writer.drain()
            if closing:
                return

    def _post(self, out_q: asyncio.Queue, frame: bytes) -> None:
        """Queue a response frame from a pump thread; wake the loop once."""
        with self._ready_lock:
            self._ready.append((out_q, frame))
            first = len(self._ready) == 1
        if first:
            try:
                self._loop.call_soon_threadsafe(self._deliver_ready)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    def _deliver_ready(self) -> None:
        """Move every ready frame to its connection's queue (loop thread)."""
        with self._ready_lock:
            ready, self._ready = self._ready, []
        for out_q, frame in ready:
            out_q.put_nowait(frame)

    # ------------------------------------------------------------------
    # request dispatch (event-loop thread)
    # ------------------------------------------------------------------
    def _dispatch(self, header: dict, blobs, out_q: asyncio.Queue) -> None:
        kind = header.get("type")
        request_id = header.get("id")
        if kind == "ping":
            out_q.put_nowait(encode_frame({"type": "pong", "id": request_id}))
        elif kind == "metrics":
            metrics = self.recorder.snapshot(self._pool.cache_stats())
            out_q.put_nowait(
                encode_frame(
                    {
                        "type": "metrics",
                        "id": request_id,
                        "metrics": metrics.as_dict()
                        | {
                            "batch_size_histogram": {
                                str(k): v
                                for k, v in metrics.batch_size_histogram.items()
                            }
                        },
                        "alive_workers": self._pool.alive_workers(),
                    }
                )
            )
        elif kind == "solve":
            self._dispatch_solve(header, blobs, out_q)
        else:
            out_q.put_nowait(
                self._error_frame(
                    request_id,
                    WireProtocolError(f"unknown message type {kind!r}"),
                )
            )

    def _dispatch_solve(self, header: dict, blobs, out_q: asyncio.Queue) -> None:
        request_id = header.get("id")
        span = obs.NOOP_SPAN
        try:
            digest, b, matrix = self._parse_solve(header, blobs)
            tracer = obs.active()
            if tracer.enabled:
                # header["trace"] (when the client traces too) parents
                # this span under the client-side request span.
                span = tracer.start_span(
                    "server.request",
                    trace=header.get("trace"),
                    attributes={
                        "digest": digest[:12],
                        "seed": int(header.get("seed", 0)),
                        "n": header.get("n"),
                    },
                )
            if self._quotas is not None:
                self._charge_quota(header.get("tenant"))
            policy = self.config.service.resilience
            if policy.shed_latency_s is not None:
                estimate = self._pool.estimated_wait_s(digest)
                if estimate > policy.shed_latency_s:
                    raise OverloadedError(
                        f"estimated wait {estimate:.3f}s exceeds shed "
                        f"threshold {policy.shed_latency_s:.3f}s",
                        retry_after_s=estimate,
                    )
            deadline_ms = header.get("deadline_ms")
            deadline_s = (
                deadline_ms * 1e-3 if deadline_ms is not None else policy.deadline_s
            )
            self._next_id += 1
            server_id = self._next_id

            def callback(outcome: WorkOutcome) -> None:
                if outcome.ok:
                    span.end(status=outcome.status)
                else:
                    message = (outcome.error or {}).get("message", "")
                    span.end(
                        status="error",
                        error=f"{outcome.status}: {message}" if message
                        else outcome.status,
                    )
                self._post(out_q, self._outcome_frame(request_id, outcome))

            self._pool.submit(
                request_id=server_id,
                digest=digest,
                b=b,
                matrix=matrix,
                solver=header.get("solver"),
                prep_seed=header.get("prep_seed"),
                seed=int(header.get("seed", 0)),
                deadline_at=(
                    time.perf_counter() + deadline_s if deadline_s is not None else None
                ),
                callback=callback,
                trace=span.context() if span.enabled else None,
            )
        except Exception as exc:
            span.fail(exc)
            self._record_refusal(exc)
            out_q.put_nowait(self._error_frame(request_id, exc))

    def _parse_solve(self, header: dict, blobs):
        if not blobs:
            raise WireProtocolError("solve request carries no right-hand side blob")
        n = header.get("n")
        if not isinstance(n, int) or n < 1:
            raise WireProtocolError(f"solve request needs a positive integer n, got {n!r}")
        # Per-blob dtypes; absent/short list means float64 (old clients).
        dtypes = header.get("dtypes") or []
        if not isinstance(dtypes, list):
            raise WireProtocolError(f"dtypes must be a list, got {dtypes!r}")
        dtypes = dtypes + ["float64"] * (len(blobs) - len(dtypes))
        b = array_from_bytes(blobs[0], (n,), dtypes[0])
        matrix = (
            array_from_bytes(blobs[1], (n, n), dtypes[1]) if len(blobs) > 1 else None
        )
        digest = header.get("digest")
        if digest is None:
            if matrix is None:
                raise WireProtocolError(
                    "solve request needs a digest or a matrix payload"
                )
            digest = matrix_digest(matrix)
        elif not isinstance(digest, str) or not digest:
            raise WireProtocolError(f"invalid digest {digest!r}")
        return digest, b, matrix

    def _charge_quota(self, tenant) -> None:
        if tenant is not None and not isinstance(tenant, str):
            raise WireProtocolError(f"tenant must be a string, got {tenant!r}")
        self._quotas.acquire(tenant)

    def _record_refusal(self, exc: Exception) -> None:
        """Meter a refusal: shedding counts as shed, the rest as rejected."""
        if isinstance(exc, OverloadedError) and type(exc) is OverloadedError:
            self.recorder.record_shed()
        else:
            self.recorder.record_rejected()

    # ------------------------------------------------------------------
    # response frames
    # ------------------------------------------------------------------
    def _outcome_frame(self, request_id, outcome: WorkOutcome) -> bytes:
        if outcome.ok:
            return encode_frame(
                {
                    "type": "result",
                    "id": request_id,
                    "status": outcome.status,
                    "telemetry": outcome.telemetry,
                    # Dtype-tagged blobs: a float32-tier x rides next to
                    # its float64 digital reference without upcasting.
                    "dtypes": [
                        array_dtype_name(outcome.x),
                        array_dtype_name(outcome.reference),
                    ],
                },
                [array_to_bytes(outcome.x), array_to_bytes(outcome.reference)],
            )
        return encode_frame(
            {
                "type": "error",
                "id": request_id,
                "status": outcome.status,
                "error": outcome.error,
            }
        )

    def _error_frame(self, request_id, exc: Exception) -> bytes:
        if not isinstance(exc, ReproError):  # pragma: no cover - defensive
            exc = ServeError(f"internal error: {exc}")
        status = status_for_error(exc)
        if isinstance(exc, OverloadedError):
            status = STATUS_SHED if type(exc) is OverloadedError else STATUS_OVERLOADED
        return encode_frame(
            {
                "type": "error",
                "id": request_id,
                "status": status,
                "error": error_to_wire(exc),
            }
        )
