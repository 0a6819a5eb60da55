"""The tracer core: monotonic-clock spans, ring buffer, JSONL export.

A :class:`Span` is one timed operation — ``trace_id`` groups the spans
of one request's journey, ``parent_id`` links a span to the span that
caused it, and ``attributes`` carry small JSON-serializable facts
(digest, batch size, ``analog_time_s``). A :class:`Tracer` hands out
spans and collects the finished records into a lock-protected in-memory
ring buffer; when configured with a ``trace_dir`` it also appends every
finished span to ``spans-<pid>.jsonl`` (one flushed line per span, so a
SIGKILLed worker loses only its *unfinished* spans — everything that
completed is already on disk).

Zero-perturbation contract
--------------------------

Tracing must never change solve results:

- span ids come from :func:`os.urandom`, never from a NumPy generator,
  so no RNG stream the solvers consume is ever advanced;
- when disabled (the default), the module-level singleton is a
  :class:`_DisabledTracer` whose ``start_span`` returns the shared
  no-op span — hot paths pay one attribute lookup (``tracer.enabled``)
  and nothing else;
- spans only *observe*: no code path branches on whether tracing is on
  (``tests/test_obs.py`` asserts solves are bit-identical traced vs.
  untraced, against the same golden records the kernel-equivalence
  suite uses).

Cross-process stitching
-----------------------

``Span.context()`` is a small dict (``trace_id`` + ``span_id``) that
travels in the wire-protocol header and in worker-queue envelopes;
``start_span(trace=ctx)`` on the far side parents a new span under it.
Timestamps are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux —
comparable across processes on one host), plus one wall-clock stamp per
span for human-readable correlation.

Worker processes call :func:`configure` themselves (a fresh tracer with
its own lock and its own ``spans-<pid>.jsonl``); forked children that
merely inherit an enabled tracer get a fresh output file automatically
— the writer reopens whenever ``os.getpid()`` changes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "DISABLED_TRACER",
    "NOOP_SPAN",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "active",
    "configure",
    "configure_from_env",
    "disable",
    "record_span",
    "start_span",
]

#: Environment variable naming the trace directory; exporting it enables
#: tracing in campaign workers (mirrors ``REPRO_CHAOS``).
TRACE_ENV = "REPRO_TRACE_DIR"

#: Default ring-buffer capacity (finished spans retained in memory).
DEFAULT_CAPACITY = 8192


def _new_id(nbytes: int) -> str:
    # os.urandom, deliberately: ids must never touch a NumPy RNG stream
    # the solvers might consume (the zero-perturbation contract).
    return os.urandom(nbytes).hex()


def _json_safe(value):
    """Best-effort JSON coercion for attribute values (never raises)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    try:  # numpy scalars and anything else float-like
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    enabled = False
    trace_id = None
    span_id = None
    parent_id = None

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def context(self) -> None:
        return None

    def end(self, **kwargs) -> None:
        pass

    def fail(self, error) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed operation; finish with :meth:`end`/:meth:`fail` or ``with``.

    Used as a context manager the span becomes the tracer's *current*
    span for the calling thread (new spans started without an explicit
    parent nest under it) and ends on exit — ``status="error"`` with the
    exception recorded if the block raised.
    """

    __slots__ = (
        "_tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "wall_time_s",
        "attributes",
        "status",
        "error",
        "end_s",
        "_finished",
    )

    enabled = True

    def __init__(self, tracer, name, trace_id, span_id, parent_id, start_s, attributes):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.wall_time_s = time.time()
        self.attributes = attributes
        self.status = "ok"
        self.error = None
        self.end_s = None
        self._finished = False

    def set(self, **attributes) -> "Span":
        """Attach attributes (JSON-coerced at export time); returns self."""
        self.attributes.update(attributes)
        return self

    def context(self) -> dict:
        """The propagation context: put this in a wire header or envelope."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def end(self, *, status: str = "ok", error=None, end_s: float | None = None) -> None:
        """Finish the span (idempotent); the record enters the ring/file."""
        if self._finished:
            return
        self._finished = True
        self.end_s = end_s if end_s is not None else time.perf_counter()
        self.status = status
        if error is not None:
            self.error = (
                f"{type(error).__name__}: {error}"
                if isinstance(error, BaseException)
                else str(error)
            )
        self._tracer._finish(self)

    def fail(self, error) -> None:
        """Finish with ``status="error"`` and the error recorded."""
        self.end(status="error", error=error)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self)
        if exc is not None:
            self.fail(exc)
        else:
            self.end()
        return False


class Tracer:
    """Collects finished spans into a ring buffer and optional JSONL files.

    Thread-safe. ``trace_dir`` (optional) receives one append-only
    ``spans-<pid>.jsonl`` per writing process; each finished span is one
    flushed line, so crashed processes lose only unfinished spans.
    Finish hooks (see :meth:`add_finish_hook`) observe every finished
    record — the service uses one to feed per-stage latency metrics.
    """

    enabled = True

    def __init__(
        self,
        trace_dir: str | os.PathLike | None = None,
        capacity: int = DEFAULT_CAPACITY,
        service: str = "repro",
    ):
        self.trace_dir = None if trace_dir is None else Path(trace_dir)
        self.service = service
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=max(1, capacity))
        self._hooks: list = []
        self._local = threading.local()
        self._file = None
        self._file_pid = None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        *,
        parent=None,
        trace: dict | None = None,
        attributes: dict | None = None,
        start_s: float | None = None,
    ) -> Span:
        """Open a span.

        ``parent`` (a live :class:`Span`) or ``trace`` (a propagated
        :meth:`Span.context` dict) set the lineage; with neither, the
        calling thread's current span (innermost ``with`` block) is the
        implicit parent, and a new trace starts when there is none.
        ``start_s`` backdates the span (retroactive stages measured
        after the fact).
        """
        if parent is not None and not getattr(parent, "enabled", False):
            parent = None
        if parent is None and trace is None:
            parent = self._current()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif trace is not None and trace.get("trace_id"):
            trace_id, parent_id = trace["trace_id"], trace.get("span_id")
        else:
            trace_id, parent_id = _new_id(16), None
        return Span(
            self,
            name,
            trace_id,
            _new_id(8),
            parent_id,
            start_s if start_s is not None else time.perf_counter(),
            dict(attributes) if attributes else {},
        )

    def record_span(
        self,
        name: str,
        *,
        start_s: float,
        end_s: float | None = None,
        parent=None,
        trace: dict | None = None,
        attributes: dict | None = None,
        status: str = "ok",
        error=None,
    ) -> Span:
        """Open and immediately finish a retroactive span (measured stage)."""
        span = self.start_span(
            name, parent=parent, trace=trace, attributes=attributes, start_s=start_s
        )
        span.end(status=status, error=error, end_s=end_s)
        return span

    # ------------------------------------------------------------------
    # implicit (thread-local) span context
    # ------------------------------------------------------------------
    def _current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def use_span(self, span: Span):
        """Make ``span`` the current span for the block without ending it."""
        self._push(span)
        try:
            yield span
        finally:
            self._pop(span)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        record = {
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "service": self.service,
            "pid": os.getpid(),
            "start_s": span.start_s,
            "end_s": span.end_s,
            "duration_s": span.end_s - span.start_s,
            "wall_time_s": span.wall_time_s,
            "status": span.status,
            "error": span.error,
            "attributes": _json_safe(span.attributes),
        }
        with self._lock:
            self._ring.append(record)
            self._write(record)
        for hook in self._hooks:
            hook(record)

    def _write(self, record: dict) -> None:
        if self.trace_dir is None:
            return
        pid = os.getpid()
        if self._file is None or self._file_pid != pid:
            # Reopen after a fork: the child appends to its own file, so
            # two processes never interleave lines in one JSONL.
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - inherited handle
                    pass
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._file = open(
                self.trace_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8"
            )
            self._file_pid = pid
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def spans(self) -> list[dict]:
        """Snapshot of the ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    def export(self, path: str | os.PathLike) -> int:
        """Dump the ring buffer as JSONL; returns the span count."""
        records = self.spans()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return len(records)

    def reset(self) -> None:
        """Drop the ring buffer (files on disk are untouched)."""
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Close the output file handle (the tracer stays usable)."""
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:  # pragma: no cover - already gone
                    pass
                self._file = None
                self._file_pid = None

    # ------------------------------------------------------------------
    # finish hooks
    # ------------------------------------------------------------------
    def add_finish_hook(self, hook) -> None:
        """Call ``hook(record)`` for every finished span (must not raise)."""
        self._hooks.append(hook)

    def remove_finish_hook(self, hook) -> None:
        """Detach a finish hook (no-op when absent)."""
        try:
            self._hooks.remove(hook)
        except ValueError:
            pass


class _DisabledTracer:
    """The no-op singleton active by default; every method costs nothing."""

    enabled = False
    trace_dir = None

    def start_span(self, name, **kwargs):
        return NOOP_SPAN

    def record_span(self, name, **kwargs):
        return NOOP_SPAN

    @contextmanager
    def use_span(self, span):
        yield span

    def spans(self):
        return []

    def export(self, path):
        return 0

    def reset(self):
        pass

    def close(self):
        pass

    def add_finish_hook(self, hook):
        pass

    def remove_finish_hook(self, hook):
        pass


DISABLED_TRACER = _DisabledTracer()

#: The process-wide active tracer (the disabled singleton by default).
_ACTIVE = DISABLED_TRACER

#: Pid that configured the active tracer (fork detection for workers).
_ACTIVE_PID: int | None = None


def active():
    """The process-wide tracer; check ``.enabled`` before building spans."""
    return _ACTIVE


def configure(
    *,
    trace_dir: str | os.PathLike | None = None,
    capacity: int = DEFAULT_CAPACITY,
    service: str = "repro",
) -> Tracer:
    """Enable tracing process-wide; returns the fresh :class:`Tracer`.

    ``trace_dir=None`` collects into the ring buffer only (export with
    :meth:`Tracer.export`); with a directory every finished span is also
    appended to ``spans-<pid>.jsonl`` there.
    """
    global _ACTIVE, _ACTIVE_PID
    _close_own_tracer()
    _ACTIVE = Tracer(trace_dir=trace_dir, capacity=capacity, service=service)
    _ACTIVE_PID = os.getpid()
    return _ACTIVE


def _close_own_tracer() -> None:
    """Close the active tracer if this process configured it.

    A tracer inherited across ``fork`` is dropped, never closed: its lock
    may have been held by a parent thread at the moment of the fork, and
    that thread does not exist in the child to release it.
    """
    if _ACTIVE.enabled and _ACTIVE_PID == os.getpid():
        _ACTIVE.close()


def disable() -> None:
    """Return to the no-op singleton (in-memory spans are dropped)."""
    global _ACTIVE, _ACTIVE_PID
    _close_own_tracer()
    _ACTIVE = DISABLED_TRACER
    _ACTIVE_PID = None


def configure_from_env(environ=None):
    """Enable tracing when ``REPRO_TRACE_DIR`` is exported; returns the tracer.

    Idempotent for an already-enabled tracer in the same process; a
    forked worker that inherited the parent's tracer reconfigures so it
    owns a fresh lock and its own output file. This is the campaign
    workers' enablement path (mirrors how ``REPRO_CHAOS`` travels).
    """
    env = environ if environ is not None else os.environ
    path = env.get(TRACE_ENV)
    if not path:
        return _ACTIVE
    if _ACTIVE.enabled and _ACTIVE_PID == os.getpid():
        return _ACTIVE
    return configure(trace_dir=path, service="repro")


def start_span(name: str, **kwargs):
    """Module-level convenience for :meth:`Tracer.start_span`."""
    return _ACTIVE.start_span(name, **kwargs)


def record_span(name: str, **kwargs):
    """Module-level convenience for :meth:`Tracer.record_span`."""
    return _ACTIVE.record_span(name, **kwargs)
