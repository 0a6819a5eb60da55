"""Tests for the serving failure story (``repro.serve.resilience``).

The load-bearing guarantees:

- **typed, classified failures** — every fault surfaces as a
  :class:`~repro.errors.ReproError` subclass with a ``retryable`` flag;
- **deadlines** — a request whose deadline expires while queued fails
  fast with :class:`~repro.errors.DeadlineExceededError` instead of
  occupying a batch slot;
- **load shedding** — a submit whose estimated wait exceeds the
  threshold is refused with a retry-after hint;
- **circuit breakers** — a prepared solver that keeps failing stops
  occupying its shard, its cached entry is invalidated on trip, and the
  half-open probe re-prepares;
- **blast-radius isolation** — one poisoned request in a coalesced
  batch fails alone; every surviving result is bit-identical to the
  sequential reference;
- **degradation ladder** — ``fallback="digital"`` answers analog
  failures with the digital reference solve, tagged ``degraded``;
- **crash-proof workers** — a ``BaseException`` escaping a batch fails
  only the in-flight tickets, the shard restarts (bounded), and a
  crashed-out shard fails fast instead of hanging;
- **no hung tickets** — ``close(wait=False)`` under a deep backlog and
  ``solve_all`` hitting a mid-list rejection both resolve every ticket.

Deadlines, breakers, isolation and the fallback ladder run on both
serving tiers through the ``serve`` fixture: the thread tier, and the
process tier (a :class:`~repro.serve.net.NetServer` behind a
:class:`~repro.serve.net.NetClient`) whose shard workers run as threads
of this process, so test solver kinds that block on a
:class:`threading.Event` drive the same engine a worker process runs.
Each case asserts the same ``retries``, ``breaker_transitions``,
``degraded`` and ``deadline_misses`` on both tiers. One admission
difference stays: an open breaker raises :class:`CircuitOpenError` at
submit on the thread tier, while on the process tier the shard answers
the request with it.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.solution import LeanSolveResult
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
    SolverError,
    ValidationError,
)
from repro.serve import (
    SOLVER_KINDS,
    CircuitBreaker,
    ResiliencePolicy,
    ServiceConfig,
    SolveRequest,
    SolverService,
    digital_fallback,
    run_sequential,
)
from repro.serve.net import NetClient, NetServer, NetServerConfig, workers
from repro.testing import ChaosPlan, chaos_entry_transform, rhs_tag
from repro.workloads.matrices import random_vector, wishart_matrix
from repro.workloads.traffic import mixed_traffic


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _identical(a, b) -> bool:
    return np.array_equal(a.x, b.x) and a.relative_error == b.relative_error


def _counts(metrics) -> dict:
    """The counts the shard engine makes, which both tiers must agree on."""
    return {
        "retries": metrics.retries,
        "breaker_transitions": metrics.breaker_transitions,
        "degraded": metrics.degraded,
        "deadline_misses": metrics.deadline_misses,
    }


def _expected(retries=0, breaker_transitions=0, degraded=0, deadline_misses=0):
    return {
        "retries": retries,
        "breaker_transitions": breaker_transitions,
        "degraded": degraded,
        "deadline_misses": deadline_misses,
    }


class _ThreadTier(SolverService):
    """The thread tier, with its first shard's engine at hand."""

    @property
    def engine(self):
        return self._shards[0]


class _ThreadWorkers:
    """A multiprocessing context whose worker processes are threads here."""

    class Queue(queue.Queue):
        def cancel_join_thread(self) -> None:
            pass

        def close(self) -> None:
            pass

    def __init__(self):
        self.workers = []

    def Process(self, target, args, name, daemon):
        worker = workers._Worker(*args)
        self.workers.append(worker)

        def run():
            try:
                worker.run()
            except SystemExit:  # the close sentinel ends a worker this way
                pass

        return threading.Thread(target=run, name=name, daemon=daemon)


class _ProcessTier:
    """The process tier behind a client, its shard workers run as threads."""

    def __init__(self, config: ServiceConfig, monkeypatch):
        self.context = _ThreadWorkers()
        monkeypatch.setattr(
            workers,
            "multiprocessing",
            SimpleNamespace(get_context=lambda method: self.context),
        )
        self.server = NetServer(NetServerConfig(service=config)).start()
        self.client = NetClient(*self.server.address, timeout_s=60.0)

    @property
    def engine(self):
        """The engine of the first shard's current worker."""
        return self.context.workers[0]

    def submit(self, matrix, b, **kwargs):
        return self.client.submit(matrix, b, **kwargs)

    def submit_request(self, request):
        return self.client.submit_request(request)

    def solve_all(self, requests):
        return self.client.solve_all(requests)

    def metrics(self):
        return self.client.metrics()

    def cached_solvers(self):
        return self.engine.cache.keys()

    def close(self) -> None:
        self.client.close()
        self.server.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture(params=["thread", "process"])
def serve(request, monkeypatch):
    """Start a service of the parametrized tier: ``serve(config)``."""

    def start(config: ServiceConfig):
        if request.param == "thread":
            return _ThreadTier(config)
        return _ProcessTier(config, monkeypatch)

    start.tier = request.param
    return start


def _wait_submitted(service, count: int) -> None:
    """Wait until ``count`` submits reached the shards' queues.

    A thread-tier submit is queued when it returns; a process-tier one
    once the server counted it, which the metrics round trip observes
    after the outbox flush that put it on the worker's queue.
    """
    deadline = time.monotonic() + 30.0
    while service.metrics().requests_submitted < count:
        assert time.monotonic() < deadline, "submits never reached the shard"
        time.sleep(0.01)


def _bisection_retries(poisoned: list) -> int:
    """Re-executions isolating the poisoned members of one failed batch."""
    if len(poisoned) == 1:
        return 1
    mid = len(poisoned) // 2
    return sum(
        1 + (_bisection_retries(half) if any(half) else 0)
        for half in (poisoned[:mid], poisoned[mid:])
    )


@pytest.fixture
def slow_kind():
    """A solver kind whose prepare blocks until released (deterministic
    way to wedge a worker while tickets pile up behind it)."""
    started = threading.Event()
    release = threading.Event()

    class _SlowPrepared:
        def __init__(self, n):
            self.n = n

        def solve(self, b, rng=None):
            return LeanSolveResult(
                x=np.zeros(self.n), reference=np.ones(self.n), solver="slow-test"
            )

        def solve_many(self, rhs_batch, rng=None, *, lean=False):
            return tuple(self.solve(b, rng) for b in rhs_batch)

    class _SlowSolver:
        def __init__(self, config):
            pass

        def prepare(self, matrix, rng=None):
            started.set()
            assert release.wait(timeout=30)
            return _SlowPrepared(matrix.shape[0])

    SOLVER_KINDS["slow-test"] = lambda config: _SlowSolver(config)
    try:
        yield started, release
    finally:
        release.set()
        SOLVER_KINDS.pop("slow-test", None)


@pytest.fixture
def flaky_kind():
    """A solver kind whose solves fail while the flag is set (prepare and
    the warm-up solve succeed whenever the flag is clear)."""
    fail = threading.Event()

    class _FlakyPrepared:
        def __init__(self, n):
            self.n = n

        def solve(self, b, rng=None):
            if fail.is_set():
                raise SolverError("flaky-test: injected solve failure")
            return LeanSolveResult(
                x=np.zeros(self.n), reference=np.ones(self.n), solver="flaky-test"
            )

        def solve_many(self, rhs_batch, rng=None, *, lean=False):
            return tuple(self.solve(b, rng) for b in rhs_batch)

    class _FlakySolver:
        def __init__(self, config):
            pass

        def prepare(self, matrix, rng=None):
            if fail.is_set():
                raise SolverError("flaky-test: injected prepare failure")
            return _FlakyPrepared(matrix.shape[0])

    SOLVER_KINDS["flaky-test"] = lambda config: _FlakySolver(config)
    try:
        yield fail
    finally:
        SOLVER_KINDS.pop("flaky-test", None)


# ----------------------------------------------------------------------
# policy and breaker units
# ----------------------------------------------------------------------


class TestResiliencePolicy:
    def test_defaults_valid(self):
        policy = ResiliencePolicy()
        assert policy.deadline_s is None
        assert policy.fallback == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"shed_latency_s": 0.0},
            {"breaker_threshold": -1},
            {"breaker_reset_s": 0.0},
            {"fallback": "prayer"},
            {"max_shard_restarts": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            ResiliencePolicy(**kwargs)

    def test_config_rejects_non_policy(self):
        with pytest.raises(ServeError):
            ServiceConfig(resilience="none")
        with pytest.raises(ServeError):
            ServiceConfig(entry_transform="not-callable")


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(3, 1.0, clock=_FakeClock())
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow() and not breaker.is_open()

    def test_trips_at_threshold(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(3, 1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.record_failure()  # the trip
        assert breaker.state == "open"
        assert breaker.is_open() and not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(1.0)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(3, 1.0, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 2.0, clock=clock)
        assert breaker.record_failure()
        clock.t = 2.5
        assert not breaker.is_open()  # reset window elapsed
        assert breaker.allow()  # admits the probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 2.0, clock=clock)
        breaker.record_failure()
        clock.t = 2.5
        assert breaker.allow()
        assert breaker.record_failure()  # probe failed: re-trip
        assert breaker.state == "open"
        # The reset clock restarted at the re-trip.
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.t = 4.0
        assert not breaker.allow()
        clock.t = 4.6
        assert breaker.allow()

    def test_transitions_counted(self):
        clock = _FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            1, 1.0, clock=clock, on_transition=lambda: transitions.append(1)
        )
        breaker.record_failure()  # closed -> open
        clock.t = 1.5
        breaker.allow()  # open -> half_open
        breaker.record_success()  # half_open -> closed
        assert len(transitions) == 3

    def test_validation(self):
        with pytest.raises(ServeError):
            CircuitBreaker(0, 1.0)
        with pytest.raises(ServeError):
            CircuitBreaker(1, 0.0)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_request_deadline_validation(self):
        matrix = wishart_matrix(8, rng=0)
        with pytest.raises(ValidationError):
            SolveRequest(matrix=matrix, b=np.ones(8), deadline_s=0.0)
        with pytest.raises(ValidationError):
            SolveRequest(matrix=matrix, b=np.ones(8), deadline_s=-1.0)

    def test_expired_request_fails_fast(self, slow_kind, serve):
        started, release = slow_kind
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        with serve(config) as service:
            blocker = service.submit(
                wishart_matrix(8, rng=0), np.ones(8), solver="slow-test"
            )
            assert started.wait(timeout=30)
            doomed = service.submit(
                wishart_matrix(8, rng=1), np.ones(8), deadline_s=0.001
            )
            time.sleep(0.05)  # let the deadline expire while queued
            release.set()
            assert isinstance(doomed.exception(timeout=30), DeadlineExceededError)
            blocker.result(timeout=30)
            metrics = service.metrics()
        assert _counts(metrics) == _expected(deadline_misses=1)
        assert metrics.requests_failed >= 1

    def test_policy_default_deadline_applies(self, slow_kind, serve):
        started, release = slow_kind
        config = ServiceConfig(
            workers=1,
            max_linger_s=0.0,
            resilience=ResiliencePolicy(deadline_s=0.001),
        )
        with serve(config) as service:
            # The blocker's generous per-request deadline overrides the
            # policy default; the defaulted request expires behind it.
            blocker = service.submit(
                wishart_matrix(8, rng=0), np.ones(8),
                solver="slow-test", deadline_s=60.0,
            )
            assert started.wait(timeout=30)
            doomed = service.submit(wishart_matrix(8, rng=1), np.ones(8))
            if serve.tier == "thread":  # the process tier applies it server-side
                assert doomed.deadline_s == 0.001
                assert blocker.deadline_s == 60.0
            time.sleep(0.05)
            release.set()
            assert isinstance(doomed.exception(timeout=30), DeadlineExceededError)
            blocker.result(timeout=30)
            metrics = service.metrics()
        assert _counts(metrics) == _expected(deadline_misses=1)

    def test_generous_deadline_does_not_interfere(self, serve):
        requests = mixed_traffic(
            8, unique_matrices=2, sizes=(8, 12), deadline_s=60.0, seed=4
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with serve(ServiceConfig(workers=2)) as service:
            results = service.solve_all(requests)
            metrics = service.metrics()
        for a, b in zip(reference, results):
            assert _identical(a, b)
        assert metrics.deadline_misses == 0

    def test_deadlined_traffic_same_bits_as_plain(self):
        plain = mixed_traffic(6, unique_matrices=2, sizes=(8,), seed=9)
        deadlined = mixed_traffic(
            6, unique_matrices=2, sizes=(8,), deadline_s=1.0, seed=9
        )
        for a, b in zip(plain, deadlined):
            assert a.digest == b.digest
            assert np.array_equal(a.b, b.b)
            assert a.seed == b.seed
            assert b.deadline_s == 1.0 and a.deadline_s is None


# ----------------------------------------------------------------------
# load shedding
# ----------------------------------------------------------------------


class TestLoadShedding:
    def test_sheds_when_estimated_wait_exceeds_threshold(self, slow_kind):
        started, release = slow_kind
        config = ServiceConfig(
            workers=1,
            max_linger_s=0.0,
            resilience=ResiliencePolicy(shed_latency_s=0.5),
        )
        with SolverService(config) as service:
            blocker = service.submit(
                wishart_matrix(8, rng=0), np.ones(8), solver="slow-test"
            )
            assert started.wait(timeout=30)
            # White-box: force the learned service time high so the
            # one-deep backlog alone exceeds the threshold.
            for shard in service._shards:
                shard.service_ewma_s = 10.0
            with pytest.raises(OverloadedError) as info:
                service.submit(wishart_matrix(8, rng=1), np.ones(8))
            assert info.value.retry_after_s >= 0.5
            assert info.value.retryable
            release.set()
            blocker.result(timeout=30)
            metrics = service.metrics()
        assert metrics.requests_shed == 1

    def test_no_shedding_when_disabled_or_idle(self):
        config = ServiceConfig(workers=1)  # shed_latency_s=None
        with SolverService(config) as service:
            ticket = service.submit(wishart_matrix(8, rng=0), np.ones(8))
            ticket.result(timeout=30)
            assert service.metrics().requests_shed == 0


# ----------------------------------------------------------------------
# circuit breaker, end to end
# ----------------------------------------------------------------------


class TestBreakerEndToEnd:
    def test_trip_invalidate_probe_recover(self, flaky_kind, serve):
        fail = flaky_kind
        config = ServiceConfig(
            workers=1,
            max_linger_s=0.0,
            resilience=ResiliencePolicy(breaker_threshold=2, breaker_reset_s=0.1),
        )
        matrix = wishart_matrix(8, rng=0)
        with serve(config) as service:
            # Healthy prepare + solve populates the cache.
            service.submit(matrix, np.ones(8), solver="flaky-test").result(timeout=30)
            assert len(service.cached_solvers()) == 1

            fail.set()
            for _ in range(2):  # two consecutive failing requests trip it
                ticket = service.submit(matrix, np.ones(8), solver="flaky-test")
                assert isinstance(ticket.exception(timeout=30), SolverError)

            # Tripped: fails fast without executing, entry evicted. The
            # thread tier refuses at submit; the process tier's shard
            # answers with the same typed error.
            if serve.tier == "thread":
                with pytest.raises(CircuitOpenError) as info:
                    service.submit(matrix, np.ones(8), solver="flaky-test")
                error = info.value
            else:
                ticket = service.submit(matrix, np.ones(8), solver="flaky-test")
                error = ticket.exception(timeout=30)
                assert isinstance(error, CircuitOpenError)
            assert error.retry_after_s > 0.0
            assert error.retryable
            assert len(service.cached_solvers()) == 0

            # Recovery: heal the solver, wait out the reset window, and
            # the half-open probe re-prepares from scratch.
            fail.clear()
            time.sleep(0.15)
            recovered = service.submit(matrix, np.ones(8), solver="flaky-test")
            assert recovered.result(timeout=30).x.shape == (8,)
            metrics = service.metrics()
        assert metrics.cache.misses == 2  # initial prepare + post-trip re-prepare
        assert metrics.cache.evictions >= 1
        # closed -> open -> half_open -> closed, after one retry per failure
        assert _counts(metrics) == _expected(retries=2, breaker_transitions=3)
        if serve.tier == "thread":
            assert metrics.requests_rejected >= 1

    def test_breaker_map_stays_bounded_by_the_cache(self, flaky_kind, serve):
        """3 x capacity distinct keys through one shard: closed breakers of
        evicted keys are dropped, the open one (tripped by a failed
        preparation) is kept."""
        capacity = 4
        config = ServiceConfig(
            workers=1,
            max_linger_s=0.0,
            cache_capacity=capacity,
            resilience=ResiliencePolicy(breaker_threshold=1, breaker_reset_s=60.0),
        )
        flaky = wishart_matrix(6, rng=0)
        with serve(config) as service:
            flaky_kind.set()
            failed = service.submit(flaky, np.ones(6), solver="flaky-test")
            assert isinstance(failed.exception(timeout=30), SolverError)
            flaky_kind.clear()
            for i in range(3 * capacity):
                matrix = wishart_matrix(6, rng=100 + i)
                service.submit(matrix, np.ones(6)).result(timeout=30)
            breakers = dict(service.engine.breakers)
            metrics = service.metrics()
        states = [breaker.state for breaker in breakers.values()]
        assert states.count("open") == 1
        non_closed = sum(state != "closed" for state in states)
        assert len(breakers) <= capacity + non_closed
        assert _counts(metrics) == _expected(breaker_transitions=1)

    def test_breaker_disabled_never_rejects(self, flaky_kind, serve):
        fail = flaky_kind
        config = ServiceConfig(
            workers=1,
            max_linger_s=0.0,
            resilience=ResiliencePolicy(breaker_threshold=0),
        )
        matrix = wishart_matrix(8, rng=0)
        with serve(config) as service:
            service.submit(matrix, np.ones(8), solver="flaky-test").result(timeout=30)
            fail.set()
            for _ in range(8):  # far past any default threshold
                ticket = service.submit(matrix, np.ones(8), solver="flaky-test")
                assert isinstance(ticket.exception(timeout=30), SolverError)
            metrics = service.metrics()
        assert _counts(metrics) == _expected(retries=8)
        assert metrics.requests_rejected == 0


# ----------------------------------------------------------------------
# blast-radius isolation
# ----------------------------------------------------------------------


def _plan_poisoning_some(tags, rate, kind="fail", lo=1):
    """A chaos seed that poisons some but not all of ``tags``."""
    for seed in range(500):
        plan = ChaosPlan(seed=seed, solve_failure_rate=rate)
        hit = sum(plan.decides(kind, rate, tag) for tag in tags)
        if lo <= hit < len(tags):
            return plan
    raise AssertionError("no poisoning seed found in 500 tries")


class TestIsolation:
    def test_one_poisoned_request_fails_alone(self, slow_kind, serve):
        started, release = slow_kind
        matrix = wishart_matrix(12, rng=0)
        bs = [random_vector(12, rng=i) for i in range(10)]
        requests = [
            SolveRequest(matrix=matrix, b=b, seed=i) for i, b in enumerate(bs)
        ]
        plan = _plan_poisoning_some([rhs_tag(b) for b in bs], rate=0.2)
        poisoned = {
            i for i, b in enumerate(bs)
            if plan.decides("fail", plan.solve_failure_rate, rhs_tag(b))
        }
        config = ServiceConfig(
            workers=1,
            max_batch_size=10,
            max_linger_s=0.005,
            resilience=ResiliencePolicy(breaker_threshold=0),
            entry_transform=chaos_entry_transform(plan),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with serve(config) as service:
            # Wedge the shard so all ten requests queue up and execute as
            # one batch of ten, whatever the timing.
            blocker = service.submit(
                wishart_matrix(8, rng=1), np.ones(8), solver="slow-test"
            )
            assert started.wait(timeout=30)
            tickets = [service.submit_request(r) for r in requests]
            _wait_submitted(service, len(requests) + 1)
            release.set()
            blocker.result(timeout=60)
            outcomes = [t.exception(timeout=60) for t in tickets]
            metrics = service.metrics()
        for i, (ticket, outcome) in enumerate(zip(tickets, outcomes)):
            if i in poisoned:
                assert isinstance(outcome, SolverError), i
            else:
                assert outcome is None, (i, outcome)
                assert _identical(ticket.result(), reference[i]), i
        assert metrics.batch_size_histogram == {1: 1, len(bs): 1}
        retries = _bisection_retries([i in poisoned for i in range(len(bs))])
        assert _counts(metrics) == _expected(retries=retries)
        assert metrics.requests_failed == len(poisoned)
        assert metrics.requests_completed == len(bs) - len(poisoned) + 1

    def test_mixed_traffic_survivors_bit_identical(self, serve):
        requests = mixed_traffic(24, unique_matrices=3, sizes=(8, 12), seed=11)
        plan = _plan_poisoning_some(
            [rhs_tag(r.b) for r in requests], rate=0.25, lo=2
        )
        config = ServiceConfig(
            workers=2,
            max_batch_size=6,
            resilience=ResiliencePolicy(breaker_threshold=0),
            entry_transform=chaos_entry_transform(plan),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with serve(config) as service:
            tickets = [service.submit_request(r) for r in requests]
            outcomes = [t.exception(timeout=60) for t in tickets]
            metrics = service.metrics()
        # Retries depend on how batches formed; the other counts do not.
        assert _counts(metrics) == _expected(retries=metrics.retries)
        for i, (request, outcome) in enumerate(zip(requests, outcomes)):
            doomed = plan.decides(
                "fail", plan.solve_failure_rate, rhs_tag(request.b)
            )
            if doomed:
                assert isinstance(outcome, SolverError)
            else:
                assert outcome is None
                assert _identical(tickets[i].result(), reference[i])


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------


class TestDigitalFallback:
    def test_fallback_result_is_reference_exact(self):
        matrix = wishart_matrix(10, rng=3)
        b = random_vector(10, rng=4)
        request = SolveRequest(matrix=matrix, b=b)
        result = digital_fallback(request)
        assert result.solver == "digital-fallback"
        assert result.metadata["degraded"] is True
        assert np.array_equal(result.x, result.reference)
        assert result.relative_error == 0.0
        assert np.allclose(result.x, np.linalg.solve(matrix, b))
        lean = digital_fallback(request, lean=True)
        assert np.array_equal(lean.x, result.x)
        assert lean.operations == ()

    def test_service_degrades_instead_of_failing(self, serve):
        matrix = wishart_matrix(10, rng=0)
        bs = [random_vector(10, rng=i) for i in range(5)]
        plan = ChaosPlan(seed=0, solve_failure_rate=1.0)  # every solve fails
        config = ServiceConfig(
            workers=1,
            resilience=ResiliencePolicy(breaker_threshold=0, fallback="digital"),
            entry_transform=chaos_entry_transform(plan),
        )
        with serve(config) as service:
            results = [
                service.submit(matrix, b, seed=i).result(timeout=60)
                for i, b in enumerate(bs)
            ]
            metrics = service.metrics()
        for b, result in zip(bs, results):
            assert result.solver == "digital-fallback"
            assert result.metadata["degraded"] is True
            assert result.relative_error == 0.0
            assert np.allclose(result.x, np.linalg.solve(matrix, b))
        assert _counts(metrics) == _expected(retries=len(bs), degraded=len(bs))
        assert metrics.requests_failed == 0

    def test_fallback_none_fails_as_before(self, serve):
        matrix = wishart_matrix(10, rng=0)
        plan = ChaosPlan(seed=0, solve_failure_rate=1.0)
        config = ServiceConfig(
            workers=1,
            resilience=ResiliencePolicy(breaker_threshold=0),
            entry_transform=chaos_entry_transform(plan),
        )
        with serve(config) as service:
            ticket = service.submit(matrix, np.ones(10))
            assert isinstance(ticket.exception(timeout=60), SolverError)
            assert _counts(service.metrics()) == _expected(retries=1)


# ----------------------------------------------------------------------
# crash-proof workers
# ----------------------------------------------------------------------


class TestWorkerCrashes:
    def test_crash_fails_inflight_and_shard_recovers(self):
        matrix = wishart_matrix(10, rng=0)
        b = random_vector(10, rng=1)
        plan = ChaosPlan(seed=0, worker_kill_rate=1.0)  # kill every tag, once
        config = ServiceConfig(
            workers=1,
            resilience=ResiliencePolicy(breaker_threshold=0),
            entry_transform=chaos_entry_transform(plan),
        )
        reference, _ = run_sequential(
            [SolveRequest(matrix=matrix, b=b, seed=7)], ServiceConfig(workers=1)
        )
        with SolverService(config) as service:
            first = service.submit(matrix, b, seed=7)
            assert isinstance(first.exception(timeout=30), ShardFailedError)
            assert first.exception().retryable
            # The chaos wrapper kills each tag once; the resubmitted
            # request executes on the restarted loop, bit-identically.
            second = service.submit(matrix, b, seed=7)
            assert _identical(second.result(timeout=30), reference[0])
            metrics = service.metrics()
        assert metrics.shard_crashes == 1
        assert metrics.requests_failed == 1
        assert metrics.requests_completed == 1

    def test_crash_mid_isolation_answers_what_isolation_settled(self, slow_kind):
        # One batch of four: the second request is poisoned, the third
        # kills the worker. Bisection settles the first half (the clean
        # request answered, the poisoned one failed) before the second
        # half's kill, so only the second half fails with the crash.
        started, release = slow_kind
        plan = ChaosPlan(seed=0, solve_failure_rate=0.3, worker_kill_rate=0.3)

        def faults(b):
            tag = rhs_tag(b)
            return (
                plan.decides("fail", plan.solve_failure_rate, tag),
                plan.decides("kill", plan.worker_kill_rate, tag),
            )

        candidates = [random_vector(12, rng=i) for i in range(64)]
        clean = [b for b in candidates if faults(b) == (False, False)]
        poisoned = next(b for b in candidates if faults(b) == (True, False))
        killer = next(b for b in candidates if faults(b) == (False, True))
        blocker_b = next(
            b for b in (random_vector(8, rng=i) for i in range(64))
            if faults(b) == (False, False)
        )
        matrix = wishart_matrix(12, rng=0)
        requests = [
            SolveRequest(matrix=matrix, b=b, seed=i)
            for i, b in enumerate([clean[0], poisoned, killer, clean[1]])
        ]
        config = ServiceConfig(
            workers=1,
            max_batch_size=len(requests),
            max_linger_s=0.0,
            resilience=ResiliencePolicy(breaker_threshold=0),
            entry_transform=chaos_entry_transform(plan),
        )
        reference, _ = run_sequential(requests[:1], ServiceConfig(workers=1))
        with SolverService(config) as service:
            # Wedge the shard so the four requests execute as one batch.
            blocker = service.submit(
                wishart_matrix(8, rng=1), blocker_b, solver="slow-test"
            )
            assert started.wait(timeout=30)
            tickets = [service.submit_request(r) for r in requests]
            release.set()
            blocker.result(timeout=60)
            outcomes = [t.exception(timeout=60) for t in tickets]
            metrics = service.metrics()
        assert outcomes[0] is None
        assert _identical(tickets[0].result(), reference[0])
        assert isinstance(outcomes[1], SolverError)
        assert all(isinstance(outcome, ShardFailedError) for outcome in outcomes[2:])
        assert metrics.batch_size_histogram == {1: 1, len(requests): 1}
        assert metrics.shard_crashes == 1
        assert metrics.requests_failed == 3
        assert metrics.requests_completed == 2

    def test_shard_dies_after_restart_budget(self):
        matrix = wishart_matrix(10, rng=0)
        plan = ChaosPlan(seed=0, worker_kill_rate=1.0)
        config = ServiceConfig(
            workers=1,
            resilience=ResiliencePolicy(
                breaker_threshold=0, max_shard_restarts=0
            ),
            entry_transform=chaos_entry_transform(plan),
        )
        service = SolverService(config)
        try:
            first = service.submit(matrix, random_vector(10, rng=1))
            assert isinstance(first.exception(timeout=30), ShardFailedError)
            # The crash handler flips the dead flag right after failing
            # the in-flight batch; wait for it, then submits fail fast.
            deadline = time.monotonic() + 10.0
            while not service._shards[0].dead and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service._shards[0].dead
            with pytest.raises(ShardFailedError):
                service.submit(matrix, random_vector(10, rng=2))
        finally:
            service.close(wait=False)


# ----------------------------------------------------------------------
# no hung tickets (lifecycle satellites)
# ----------------------------------------------------------------------


class TestNoHungTickets:
    def test_close_nowait_resolves_deep_backlog(self, slow_kind):
        started, release = slow_kind
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        service = SolverService(config)
        matrix = wishart_matrix(8, rng=0)
        blocker = service.submit(matrix, np.ones(8), solver="slow-test")
        assert started.wait(timeout=30)
        backlog = [
            service.submit(matrix, random_vector(8, rng=i), solver="slow-test")
            for i in range(30)
        ]
        closer = threading.Thread(target=service.close, kwargs={"wait": False})
        closer.start()
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # Every ticket resolves: the wedged one may have executed, every
        # stranded one fails with ServiceClosedError. None may hang.
        assert blocker.exception(timeout=30) is None or isinstance(
            blocker.exception(), ServiceClosedError
        )
        for ticket in backlog:
            outcome = ticket.exception(timeout=30)
            assert outcome is None or isinstance(outcome, ServiceClosedError)
            assert ticket.done()

    def test_solve_all_waits_out_tickets_on_midlist_rejection(self, slow_kind):
        started, release = slow_kind
        config = ServiceConfig(
            workers=1, queue_depth=1, backpressure="reject", max_linger_s=0.0
        )
        matrix = wishart_matrix(8, rng=0)
        requests = [
            SolveRequest(matrix=matrix, b=np.ones(8), solver="slow-test", seed=i)
            for i in range(3)
        ]
        with SolverService(config) as service:
            with ThreadPoolExecutor(max_workers=1) as pool:
                call = pool.submit(service.solve_all, requests)
                assert started.wait(timeout=30)
                # The third submit was rejected (queue depth 1); solve_all
                # must now be *waiting out* the two submitted tickets, not
                # raising with them still in flight.
                time.sleep(0.05)
                assert not call.done()
                release.set()
                with pytest.raises(ServiceOverloadedError):
                    call.result(timeout=30)
            metrics = service.metrics()
        # Every submitted ticket was resolved before solve_all re-raised.
        # (Whether 1 or 2 got in before the rejection depends on how fast
        # the worker drained the depth-1 queue.)
        assert metrics.requests_rejected == 1
        assert 1 <= metrics.requests_submitted <= 2
        assert (
            metrics.requests_completed + metrics.requests_failed
            == metrics.requests_submitted
        )


# ----------------------------------------------------------------------
# metrics surface
# ----------------------------------------------------------------------


class TestResilienceMetrics:
    def test_new_fields_in_dict_and_table(self):
        requests = mixed_traffic(8, unique_matrices=2, sizes=(8,), seed=2)
        with SolverService(ServiceConfig(workers=1)) as service:
            service.solve_all(requests)
            metrics = service.metrics()
        payload = metrics.as_dict()
        for field in (
            "requests_shed",
            "deadline_misses",
            "retries",
            "breaker_transitions",
            "degraded",
            "shard_crashes",
            "latency_p99_s",
        ):
            assert field in payload
        assert payload["latency_p99_s"] >= payload["latency_p95_s"]
        table = metrics.table()
        for row in (
            "requests shed",
            "deadline misses",
            "isolation retries",
            "breaker transitions",
            "degraded (fallback)",
            "shard crashes",
            "latency p99 (ms)",
        ):
            assert row in table
