"""Resilience policy for the solver service: deadlines, shedding, breakers.

The serving layer's throughput story (coalesced multi-RHS batching) is
only useful if one bad request cannot take its neighbours down with it.
This module holds the pieces :class:`~repro.serve.service.SolverService`
composes into its failure story:

- :class:`ResiliencePolicy` — the per-service knobs: a default
  per-request deadline, a latency-aware load-shedding threshold, the
  circuit-breaker trip/reset parameters, the degradation ladder
  (``fallback="digital"``), and the shard-restart budget;
- :class:`CircuitBreaker` — a classic closed → open → half-open state
  machine, one per :class:`~repro.serve.cache.PreparedKey`, so a matrix
  or configuration whose preparation or solves keep failing stops
  occupying its shard (and its cached entry is invalidated, forcing the
  half-open probe to re-prepare from scratch);
- :func:`digital_fallback` — the bottom rung of the degradation ladder:
  answer an analog failure with the digital reference solve (the same
  LAPACK binding the engines use for their ``reference`` field), tagged
  ``degraded=True`` so callers can tell a full-fidelity analog answer
  from a served-anyway digital one.

Everything here is deterministic: the breaker takes an injectable clock
(tests drive it with a fake), and the fallback is a pure function of the
request — resilience never perturbs the bit-identity of the success
path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.common import solve_columns
from repro.core.solution import LeanSolveResult, SolveResult
from repro.errors import ConvergenceError, ProgrammingError, ServeError, SolverError
from repro.serve.requests import SolveRequest

__all__ = [
    "DEGRADABLE_ERRORS",
    "CircuitBreaker",
    "ResiliencePolicy",
    "digital_fallback",
]

#: Analog failures the ``fallback="digital"`` ladder may answer with the
#: digital reference solve. Anything else (validation errors, singular
#: systems, service lifecycle errors) fails the request as-is: a
#: singular matrix is just as singular digitally, and policy errors must
#: surface, not be papered over.
DEGRADABLE_ERRORS = (ConvergenceError, ProgrammingError, SolverError)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Failure-handling knobs of one :class:`~repro.serve.service.SolverService`.

    Parameters
    ----------
    deadline_s:
        Default per-request deadline (submit to execution start). A
        request whose deadline expired while queued fails fast with
        :class:`~repro.errors.DeadlineExceededError` instead of
        occupying a batch slot. ``None`` disables; a request's own
        ``deadline_s`` always wins over this default.
    shed_latency_s:
        Latency-aware load shedding: a submit whose estimated wait
        (shard backlog x recent per-request service time) exceeds this
        is refused with :class:`~repro.errors.OverloadedError` carrying
        the estimate as ``retry_after_s``. ``None`` disables. This sits
        *on top of* queue-depth backpressure: backpressure bounds
        memory, shedding bounds latency.
    breaker_threshold:
        Consecutive failures (preparation or solve) of one
        :class:`~repro.serve.cache.PreparedKey` that trip its circuit
        breaker. ``0`` disables breakers entirely.
    breaker_reset_s:
        How long a tripped breaker stays open before admitting one
        half-open probe (which re-prepares the entry — the cached one is
        invalidated on trip).
    fallback:
        ``"none"`` fails analog errors to the caller; ``"digital"``
        answers :data:`DEGRADABLE_ERRORS` with
        :func:`digital_fallback`, tagged ``degraded=True``.
    max_shard_restarts:
        How many times a crashed shard worker loop restarts before the
        shard is marked dead (subsequent submits to it raise
        :class:`~repro.errors.ShardFailedError`).
    """

    deadline_s: float | None = None
    shed_latency_s: float | None = None
    breaker_threshold: int = 5
    breaker_reset_s: float = 5.0
    fallback: str = "none"
    max_shard_restarts: int = 3

    def __post_init__(self):
        if self.deadline_s is not None and not self.deadline_s > 0.0:
            raise ServeError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.shed_latency_s is not None and not self.shed_latency_s > 0.0:
            raise ServeError(f"shed_latency_s must be > 0, got {self.shed_latency_s}")
        if self.breaker_threshold < 0:
            raise ServeError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if not self.breaker_reset_s > 0.0:
            raise ServeError(f"breaker_reset_s must be > 0, got {self.breaker_reset_s}")
        if self.fallback not in ("none", "digital"):
            raise ServeError(
                f"fallback must be 'none' or 'digital', got {self.fallback!r}"
            )
        if self.max_shard_restarts < 0:
            raise ServeError(
                f"max_shard_restarts must be >= 0, got {self.max_shard_restarts}"
            )


class CircuitBreaker:
    """Closed → open → half-open breaker for one prepared solver.

    ``record_failure`` counts consecutive failures; at ``threshold`` the
    breaker opens and :meth:`allow` refuses execution until ``reset_s``
    elapsed, after which one half-open probe is admitted: success closes
    the breaker, failure re-opens it (and restarts the reset clock).

    ``clock`` is injectable so tests can step time deterministically;
    ``on_transition`` fires once per state change (the service counts
    these into its metrics).
    """

    def __init__(
        self,
        threshold: int,
        reset_s: float,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[], None] | None = None,
    ):
        if threshold < 1:
            raise ServeError(f"breaker threshold must be >= 1, got {threshold}")
        if not reset_s > 0.0:
            raise ServeError(f"breaker reset_s must be > 0, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"``, or ``"half_open"``."""
        with self._lock:
            return self._state

    def _transition(self, state: str) -> None:
        # Caller holds the lock.
        self._state = state
        if self._on_transition is not None:
            self._on_transition()

    def allow(self) -> bool:
        """Whether an execution attempt may proceed right now.

        While open, returns ``False`` until ``reset_s`` elapsed, then
        transitions to half-open and admits the probe. (The owning
        shard worker is single-threaded, so at most one probe is in
        flight before its outcome is recorded.)
        """
        with self._lock:
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_s:
                    return False
                self._transition("half_open")
            return True

    def is_open(self) -> bool:
        """Non-mutating open check for the submit fast-fail path."""
        with self._lock:
            return (
                self._state == "open"
                and self._clock() - self._opened_at < self.reset_s
            )

    def retry_after_s(self) -> float:
        """Time until the breaker admits a half-open probe (0 if not open)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(0.0, self.reset_s - (self._clock() - self._opened_at))

    def record_success(self) -> None:
        """Note one successful execution (closes a half-open breaker)."""
        with self._lock:
            self._failures = 0
            if self._state != "closed":
                self._transition("closed")

    def record_failure(self) -> bool:
        """Note one failed execution; returns True when the breaker tripped open."""
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or (
                self._state == "closed" and self._failures >= self.threshold
            ):
                self._opened_at = self._clock()
                self._transition("open")
                return True
            return False


def prune_breakers(breakers: dict, cache, keep) -> None:
    """Bound a shard's breaker map by its prepared-solver cache.

    Called when ``keep`` — the key about to be served — gets a new
    breaker. Once the map outgrows the cache capacity, every *closed*
    breaker whose key is not cached is dropped; so is the closed breaker
    of the least recently used entry when the cache is full, since
    preparing ``keep`` evicts it. Open and half-open breakers stay
    whatever the cache holds (their state is what a breaker exists to
    remember), so the map never exceeds ``cache.capacity`` plus the
    non-closed breakers however many distinct keys a shard sees. A
    dropped closed breaker loses at most a count of consecutive
    failures below the threshold.
    """
    if len(breakers) <= cache.capacity:
        return
    resident = cache.keys()  # least recently used first
    if len(resident) >= cache.capacity:
        resident = resident[1:]
    keep_keys = set(resident) | {keep}
    stale = [
        key
        for key, breaker in breakers.items()
        if key not in keep_keys and breaker.state == "closed"
    ]
    for key in stale:
        del breakers[key]


def digital_fallback(
    request: SolveRequest, *, lean: bool = False
) -> SolveResult | LeanSolveResult:
    """Answer one request with the digital reference solve, tagged degraded.

    Uses the same LAPACK factor/solve binding
    (:func:`repro.core.common.solve_columns`) the analog engines use to
    compute their ``reference`` field, so a degraded answer equals what
    the failed analog solve's reference would have been —
    ``relative_error`` is exactly 0 and ``x is reference`` by
    construction.
    """
    x = solve_columns(request.matrix, request.b, what="system matrix")
    metadata = {"degraded": True, "fallback": "digital"}
    if lean:
        return LeanSolveResult(
            x=x, reference=x, solver="digital-fallback", metadata=metadata
        )
    return SolveResult(x=x, reference=x, solver="digital-fallback", metadata=metadata)
