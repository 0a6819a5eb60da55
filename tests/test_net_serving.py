"""Tests for ``repro.serve.net`` — the TCP front-end over process workers.

The load-bearing guarantees, mirroring the acceptance criteria:

- **bit-exact wire transport** — frames carry raw float64 bytes; a
  network round-trip returns the server's exact bits;
- **bit-identity under concurrency** — results served over TCP through
  process workers equal :func:`repro.serve.run_sequential`, including
  under chaos (worker SIGKILL + slow-call storms);
- **typed failures** — every refusal and fault surfaces as a typed
  :class:`~repro.errors.ReproError` subclass over the wire, never a
  bare traceback or a hung ticket;
- **admission control** — per-tenant token buckets and deadline
  propagation act before work reaches a worker.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np
import pytest

from repro.core.solution import LeanSolveResult
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ReproError,
    ServeError,
    SolverError,
    ValidationError,
    WireProtocolError,
    error_from_wire,
    error_to_wire,
    is_retryable,
)
from repro.serve import ResiliencePolicy, ServiceConfig, run_sequential
from repro.serve.net import (
    NetClient,
    NetServer,
    NetServerConfig,
    QuotaPolicy,
    TenantQuotas,
    TokenBucket,
)
from repro.serve.net.protocol import (
    MAX_FRAME_BYTES,
    STATUS_UNKNOWN_DIGEST,
    array_from_bytes,
    array_to_bytes,
    decode_frame,
    encode_frame,
    recv_frame,
)
from repro.serve.net.quotas import ANONYMOUS_TENANT
from repro.testing.chaos import CHAOS_ENV, ChaosPlan
from repro.workloads.traffic import drive_network, mixed_traffic


def _requests(n=16, unique=3, sizes=(12, 16), seed=0, **kwargs):
    return mixed_traffic(n, unique_matrices=unique, sizes=sizes, seed=seed, **kwargs)


def _server_config(**kwargs):
    service = kwargs.pop("service", None) or ServiceConfig(
        workers=kwargs.pop("workers", 2), max_batch_size=8
    )
    return NetServerConfig(service=service, **kwargs)


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_frame_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(37)
        m = rng.standard_normal((7, 7)) * 1e-308  # denormal-adjacent bits
        header = {"type": "solve", "id": 3, "n": 37, "tenant": "t"}
        frame = encode_frame(header, [array_to_bytes(x), array_to_bytes(m)])
        decoded, blobs = decode_frame(frame[4:])
        assert decoded["type"] == "solve" and decoded["id"] == 3
        assert decoded["blobs"] == [37 * 8, 49 * 8]
        assert np.array_equal(array_from_bytes(blobs[0], (37,)), x)
        assert np.array_equal(array_from_bytes(blobs[1], (7, 7)), m)

    def test_encode_rewrites_stale_blob_lengths(self):
        # A desynchronized header cannot poison the frame: lengths are
        # always derived from the actual payload.
        frame = encode_frame({"type": "x", "blobs": [999]}, [b"abcd"])
        header, blobs = decode_frame(frame[4:])
        assert header["blobs"] == [4]
        assert bytes(blobs[0]) == b"abcd"

    def test_decode_rejects_malformed_frames(self):
        with pytest.raises(WireProtocolError, match="no header length"):
            decode_frame(b"\x00")
        with pytest.raises(WireProtocolError, match="overruns"):
            decode_frame(b"\x00\x00\x00\xff{}")
        with pytest.raises(WireProtocolError, match="not valid JSON"):
            decode_frame(b"\x00\x00\x00\x03nah")
        with pytest.raises(WireProtocolError, match="must be an object"):
            decode_frame(b"\x00\x00\x00\x02[]")
        # blob lengths overrunning the body
        bad = encode_frame({"type": "x"}, [b"abcd"])[4:-2]
        with pytest.raises(WireProtocolError, match="overrun"):
            decode_frame(bad)
        # trailing bytes not covered by any declared blob
        with pytest.raises(WireProtocolError, match="trailing"):
            decode_frame(encode_frame({"type": "x"})[4:] + b"zz")

    def test_array_from_bytes_validates_byte_count(self):
        with pytest.raises(WireProtocolError, match="expected"):
            array_from_bytes(b"\x00" * 24, (4,))

    def test_recv_frame_rejects_hostile_length_prefix(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(WireProtocolError, match="MAX_FRAME_BYTES"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_recv_frame_clean_eof_is_none(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": "ping", "id": 1}))
            a.close()
            assert recv_frame(b) is not None
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_wire_error_codec_round_trips_types(self):
        exc = QuotaExceededError("too chatty", retry_after_s=1.5)
        rebuilt = error_from_wire(error_to_wire(exc))
        assert isinstance(rebuilt, QuotaExceededError)
        assert rebuilt.retry_after_s == 1.5
        assert is_retryable(rebuilt)
        plain = error_from_wire(error_to_wire(SolverError("diverged")))
        assert isinstance(plain, SolverError)
        assert not is_retryable(plain)
        unknown = error_from_wire({"code": "NoSuchError", "message": "?"})
        assert isinstance(unknown, ServeError)


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------


class TestTokenBuckets:
    def test_burst_then_dry_with_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(QuotaPolicy(rate_per_s=2.0, burst=3), clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(QuotaPolicy(rate_per_s=10.0, burst=2), clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaPolicy(rate_per_s=1.0, burst=1), clock)
        quotas.acquire("a")
        with pytest.raises(QuotaExceededError) as info:
            quotas.acquire("a")
        assert info.value.retry_after_s == pytest.approx(1.0)
        assert isinstance(info.value, OverloadedError)  # typed as overload
        quotas.acquire("b")  # unaffected by a's exhaustion
        assert quotas.tokens("a") == pytest.approx(0.0)

    def test_anonymous_tenant_shares_one_bucket(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaPolicy(rate_per_s=1.0, burst=1), clock)
        quotas.acquire(None)
        with pytest.raises(QuotaExceededError, match=ANONYMOUS_TENANT):
            quotas.acquire(None)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            QuotaPolicy(rate_per_s=0.0, burst=4)
        with pytest.raises(ValidationError):
            QuotaPolicy(rate_per_s=1.0, burst=0.5)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# end-to-end serving
# ----------------------------------------------------------------------


class TestNetServing:
    def test_round_trip_bit_identical_to_sequential(self):
        requests = _requests(n=20, unique=4)
        config = _server_config(workers=2)
        reference, _ = run_sequential(requests, config.service)
        with NetServer(config) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                results = client.solve_all(requests, timeout=120.0)
                metrics = client.metrics()
                assert client.ping()
                alive = client.alive_workers()
        for res, ref in zip(results, reference):
            assert isinstance(res, LeanSolveResult)
            assert np.array_equal(res.x, ref.x)
            assert np.array_equal(res.reference, ref.reference)
            assert res.relative_error == ref.relative_error
        assert metrics.requests_completed == len(requests)
        assert metrics.requests_failed == 0
        assert metrics.batches_executed >= 1
        assert alive == 2

    def test_ticket_telemetry_and_status(self):
        requests = _requests(n=4, unique=1)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                tickets = [client.submit_request(r) for r in requests]
                for ticket in tickets:
                    result = ticket.result(60.0)
                    assert ticket.status == "ok"
                    assert ticket.telemetry["solver"] == result.solver
                    assert ticket.telemetry["batch"] >= 1

    def test_deadline_propagates_over_the_wire(self):
        requests = _requests(n=3, unique=1, deadline_s=1e-5)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                for request in requests:
                    exc = client.submit_request(request).exception(60.0)
                    assert isinstance(exc, DeadlineExceededError)
                metrics = client.metrics()
        assert metrics.deadline_misses == len(requests)

    def test_wall_clock_step_neither_expires_nor_extends_a_deadline(
        self, monkeypatch
    ):
        """Deadlines are stamped and checked on ``perf_counter``: a worker
        whose wall clock reads an hour ahead of the server's still
        answers a request stamped 60 s out."""
        import os
        import time

        server_pid = os.getpid()
        wall = time.time
        # Inherited by the forked worker, where it steps 1 h forward.
        monkeypatch.setattr(
            time, "time", lambda: wall() + (0.0 if os.getpid() == server_pid else 3600.0)
        )
        requests = _requests(n=2, unique=1, deadline_s=60.0)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                for request in requests:
                    result = client.submit_request(request).result(60.0)
                    assert isinstance(result, LeanSolveResult)
                metrics = client.metrics()
        assert metrics.deadline_misses == 0

    def test_quota_enforced_per_tenant(self):
        quota = QuotaPolicy(rate_per_s=0.001, burst=2)
        with NetServer(_server_config(workers=1, quota=quota)) as server:
            host, port = server.address
            matrix = _requests(n=1)[0].matrix
            n = matrix.shape[0]
            with NetClient(host, port, tenant="chatty") as client:
                first = [
                    client.submit(matrix, np.ones(n), seed=i) for i in range(2)
                ]
                for ticket in first:
                    ticket.result(60.0)
                exc = client.submit(matrix, np.ones(n), seed=9).exception(60.0)
                assert isinstance(exc, QuotaExceededError)
                assert exc.retry_after_s is not None and exc.retry_after_s > 0.0
                # another tenant still has its full burst
                other = client.submit(
                    matrix, np.ones(n), seed=3, tenant="quiet"
                )
                assert other.result(60.0) is not None

    def test_unknown_digest_without_payload_is_typed(self):
        # Digest-only submit for a matrix the worker has never seen: the
        # wire answers with the typed coherency status (the client
        # normally reacts by re-sending the payload).
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                header = {
                    "type": "solve",
                    "id": 1,
                    "n": 8,
                    "digest": "f" * 64,
                    "seed": 0,
                }
                sock.sendall(encode_frame(header, [array_to_bytes(np.ones(8))]))
                response, _ = recv_frame(sock)
                assert response["type"] == "error"
                assert response["status"] == STATUS_UNKNOWN_DIGEST
                assert is_retryable(error_from_wire(response["error"]))
            finally:
                sock.close()

    def test_malformed_solve_is_typed_not_fatal(self):
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                sock.sendall(encode_frame({"type": "solve", "id": 7, "n": -2}))
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] == 7
                assert isinstance(
                    error_from_wire(response["error"]), WireProtocolError
                )
                # the connection survived the bad request
                sock.sendall(encode_frame({"type": "ping", "id": 8}))
                response, _ = recv_frame(sock)
                assert response["type"] == "pong" and response["id"] == 8
            finally:
                sock.close()

    def test_broken_framing_answers_typed_then_hangs_up(self):
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                # Declared frame length smaller than the actual header
                # region — undecodable, the byte stream is toast.
                sock.sendall(b"\x00\x00\x00\x05\x00\x00\x00\xffgarbage")
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] is None
                assert recv_frame(sock) is None  # server hung up
            finally:
                sock.close()

    def test_metrics_json_round_trip_over_wire(self):
        requests = _requests(n=6, unique=2)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                client.solve_all(requests, timeout=120.0)
                metrics = client.metrics()
        from repro.serve import ServiceMetrics

        assert ServiceMetrics.from_json(metrics.as_json()) == metrics
        assert metrics.requests_submitted == len(requests)

    def test_drive_network_validation(self):
        with pytest.raises(ValidationError):
            drive_network(None, [], max_rounds=0)
        with pytest.raises(ValidationError):
            drive_network(None, [], backoff_s=-1.0)


# ----------------------------------------------------------------------
# chaos: worker kills + slow storms over the wire
# ----------------------------------------------------------------------


class TestNetChaos:
    def test_storm_failures_typed_and_successes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion: mixed traffic under worker SIGKILL +
        slow-call storm + injected solve failures. Every outcome must be
        a result or a typed error, and every success must be
        bit-identical to the sequential reference."""
        plan = ChaosPlan(
            seed=7,
            solve_failure_rate=0.15,
            slow_call_rate=0.2,
            slow_call_s=0.02,
            worker_kill_rate=0.08,
            state_dir=str(tmp_path),
        )
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        requests = _requests(n=40, unique=4, sizes=(12, 16), seed=1)
        service = ServiceConfig(
            workers=2,
            max_batch_size=8,
            resilience=ResiliencePolicy(breaker_threshold=0, max_shard_restarts=10),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=2))
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=120.0) as client:
                outcomes = drive_network(
                    client, requests, max_rounds=8, timeout_s=120.0
                )
                metrics = client.metrics()
        monkeypatch.delenv(CHAOS_ENV)

        assert len(outcomes) == len(requests)
        successes = 0
        for outcome, ref in zip(outcomes, reference):
            if isinstance(outcome, LeanSolveResult):
                successes += 1
                assert np.array_equal(outcome.x, ref.x)
                assert np.array_equal(outcome.reference, ref.reference)
            else:
                # every failure is a typed library error, never a bare
                # traceback, and only deterministic solver faults
                # survive the retry rounds
                assert isinstance(outcome, ReproError)
                assert isinstance(outcome, SolverError)
                assert not is_retryable(outcome)
        assert successes >= len(requests) // 2  # the storm didn't take the service down
        # the plan genuinely fired kills, and the pool rode them out
        assert plan.injected("kill") >= 1
        assert metrics.shard_crashes >= 1

    def test_worker_restart_keeps_serving(self, tmp_path, monkeypatch):
        """A kill storm on a single-worker pool: the shard restarts and
        later requests (including transparent matrix re-sends) succeed."""
        plan = ChaosPlan(seed=3, worker_kill_rate=1.0, state_dir=str(tmp_path))
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        requests = _requests(n=6, unique=1, sizes=(12,), seed=4)
        service = ServiceConfig(
            workers=1,
            max_batch_size=4,
            resilience=ResiliencePolicy(max_shard_restarts=20),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=120.0) as client:
                outcomes = drive_network(
                    client, requests, max_rounds=10, timeout_s=120.0
                )
                metrics = client.metrics()
        monkeypatch.delenv(CHAOS_ENV)
        assert all(isinstance(o, LeanSolveResult) for o in outcomes)
        for outcome, ref in zip(outcomes, reference):
            assert np.array_equal(outcome.x, ref.x)
        assert metrics.shard_crashes >= 1
        assert plan.injected("kill") >= 1


# ----------------------------------------------------------------------
# worker state, driven in-process
# ----------------------------------------------------------------------


class TestWorkerState:
    """The worker's per-process state, driven in-process (no fork)."""

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads /proc/<pid>/status"
    )
    def test_worker_exits_when_its_front_end_dies(self):
        """A worker whose front-end process was SIGKILLed exits on its next
        idle poll instead of polling an orphaned queue for ever, even when
        the front end died before the worker had started up."""
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        # The worker's constructor waits, so the front end is killed before
        # the worker has looked at its parent.
        script = (
            "import time\n"
            "from repro.serve import ServiceConfig\n"
            "from repro.serve.net import workers\n"
            "init = workers._Worker.__init__\n"
            "def slow_init(self, *args):\n"
            "    time.sleep(0.5)\n"
            "    init(self, *args)\n"
            "workers._Worker.__init__ = slow_init\n"
            "pool = workers.ProcessWorkerPool(ServiceConfig(workers=1))\n"
            "print(pool._shards[0].process.pid, flush=True)\n"
            "time.sleep(120)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        front = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            worker = int(front.stdout.readline())
        finally:
            front.kill()
            front.wait(timeout=30)
            front.stdout.close()

        def state():
            try:
                with open(f"/proc/{worker}/status") as status:
                    for line in status:
                        if line.startswith("State:"):
                            return line.split()[1]
            except FileNotFoundError:
                return None

        deadline = time.monotonic() + 2.0
        while state() not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.02)
        orphaned = state() not in (None, "Z")
        if orphaned:
            os.kill(worker, signal.SIGKILL)  # leave no process behind
        assert not orphaned, f"orphaned worker {worker} still running"

    def test_hot_digest_survives_cold_inserts(self):
        """The matrix stash is LRU: naming a resident digest refreshes it."""
        import queue

        from repro.serve.net.workers import WorkItem, _Worker

        responses = queue.Queue()
        worker = _Worker(ServiceConfig(), queue.Queue(), responses)
        hot = np.eye(4)
        worker._admit(WorkItem(0, "hot", np.ones(4), matrix=hot))
        for i in range(worker.matrix_capacity + 1):
            worker._admit(WorkItem(2 * i + 1, f"cold{i}", np.ones(4), matrix=hot))
            worker._admit(WorkItem(2 * i + 2, "hot", np.ones(4)))
        assert "hot" in worker.matrices
        assert "cold0" not in worker.matrices
        assert len(worker.matrices) == worker.matrix_capacity
        # A re-sent payload refreshes recency too.
        worker._admit(WorkItem(-1, "cold5", np.ones(4), matrix=hot))
        assert next(reversed(worker.matrices)) == "cold5"
        assert responses.empty()  # nothing was refused


# ----------------------------------------------------------------------
# each process-tier hop sends what is ready as one message
# ----------------------------------------------------------------------


class _Outcomes:
    """Completion callback that records every outcome it is handed."""

    def __init__(self, expected: int):
        self.by_id: dict[int, list] = {}
        self.expected = expected
        self.done = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, outcome) -> None:
        with self._lock:
            self.by_id.setdefault(outcome.id, []).append(outcome)
            if len(self.by_id) >= self.expected:
                self.done.set()

    def only(self, request_id: int):
        """The one outcome of ``request_id`` (it must have fired once)."""
        (outcome,) = self.by_id[request_id]
        return outcome


def _record_puts(target) -> list:
    """Record every message put on ``target`` (still delivering it)."""
    puts = []
    put = target.put

    def record(message, *args, **kwargs):
        puts.append(message)
        put(message, *args, **kwargs)

    target.put = record
    return puts


def _split_frames(stream: bytes) -> list[bytes]:
    """Cut a byte stream at the wire's own length prefixes."""
    import struct

    frames, offset = [], 0
    while offset < len(stream):
        (length,) = struct.unpack(">I", stream[offset : offset + 4])
        frames.append(stream[offset : offset + 4 + length])
        offset += 4 + length
    return frames


class TestCoalescedHops:
    """Requests, rows and frames that are ready together travel together:
    one request message per shard flush, one response message per
    executed batch, one loop wake-up per ready-list drain and one socket
    write per writer drain, with the failure semantics unchanged.

    Pool cases submit from a coroutine, as the server does: the flush
    waits until the loop runs its next callbacks, so blocking the
    coroutine holds requests in the outbox."""

    @staticmethod
    def _submit(pool, request_id, request, callback) -> None:
        pool.submit(
            request_id=request_id,
            digest=request.digest,
            b=request.b,
            matrix=request.matrix,
            solver=request.solver,
            prep_seed=request.prep_seed,
            seed=request.seed,
            deadline_at=None,
            callback=callback,
        )

    def _submit_in_one_iteration(self, pool, requests, outcomes) -> list:
        """Submit every request in one loop iteration; the puts it made."""
        import asyncio

        puts = _record_puts(pool._shards[0].request_q)

        async def submit_all():
            for i, request in enumerate(requests):
                self._submit(pool, i, request, outcomes)
            assert puts == []  # nothing leaves before the loop runs the flush
            await asyncio.sleep(0)

        asyncio.run(submit_all())
        return puts

    def test_submits_reach_the_worker_as_one_message_in_order(self):
        from repro.serve.net.workers import ProcessWorkerPool

        requests = _requests(n=4, unique=1, sizes=(12,), seed=7)
        config = ServiceConfig(workers=1, max_batch_size=8, max_linger_s=0.0)
        reference, _ = run_sequential(requests, config)
        outcomes = _Outcomes(len(requests))
        with ProcessWorkerPool(config) as pool:
            puts = self._submit_in_one_iteration(pool, requests, outcomes)
            assert len(puts) == 1
            assert [item.id for item in puts[0]] == list(range(len(requests)))
            assert outcomes.done.wait(60.0)
        for i, ref in enumerate(reference):
            outcome = outcomes.only(i)
            assert outcome.ok and np.array_equal(outcome.x, ref.x)

    def test_each_executed_batch_answers_as_one_response_message(self):
        from repro.serve.net.workers import ProcessWorkerPool

        requests = _requests(n=4, unique=1, sizes=(12,), seed=8)
        config = ServiceConfig(
            workers=1, max_batch_size=len(requests), max_linger_s=0.0
        )
        reference, _ = run_sequential(requests, config)
        outcomes = _Outcomes(len(requests))
        with ProcessWorkerPool(config) as pool:
            replies = []
            handle = pool._handle_message

            def record(shard, message):
                replies.append([row.id for row in message.rows])
                handle(shard, message)

            pool._handle_message = record
            self._submit_in_one_iteration(pool, requests, outcomes)
            assert outcomes.done.wait(60.0)
        assert replies == [list(range(len(requests)))]  # one batch, one message
        for i, ref in enumerate(reference):
            outcome = outcomes.only(i)
            assert outcome.telemetry["batch"] == len(requests)
            assert np.array_equal(outcome.x, ref.x)
            assert np.array_equal(outcome.reference, ref.reference)

    def test_outbox_requests_die_with_their_incarnation(self):
        """A shard killed while requests sit in its outbox fails them typed;
        the flush that follows delivers none of them to the restarted
        worker, which then serves new traffic normally."""
        import asyncio
        import time

        from repro.errors import ShardFailedError
        from repro.serve.net.protocol import STATUS_SHARD_FAILED
        from repro.serve.net.workers import ProcessWorkerPool

        requests = _requests(n=4, unique=1, sizes=(12,), seed=9)
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        reference, _ = run_sequential(requests, config)
        doomed = len(requests) - 1
        outcomes, probe = _Outcomes(doomed), _Outcomes(1)
        with ProcessWorkerPool(config) as pool:
            shard = pool._shards[0]

            async def scenario():
                for i, request in enumerate(requests[:doomed]):
                    self._submit(pool, i, request, outcomes)
                # Block the loop: the scheduled flush cannot run yet.
                shard.process.kill()
                assert outcomes.done.wait(30.0)  # failed by the pump
                deadline = time.monotonic() + 30.0
                while shard.generation < 2 or shard.restarting:
                    assert time.monotonic() < deadline, "shard never restarted"
                    time.sleep(0.01)
                puts = _record_puts(shard.request_q)
                await asyncio.sleep(0)  # the flush runs now
                assert puts == []  # nothing reached the next incarnation
                self._submit(pool, doomed, requests[doomed], probe)
                await asyncio.sleep(0)
                assert [[item.id for item in message] for message in puts] == [
                    [doomed]
                ]

            asyncio.run(scenario())
            assert probe.done.wait(60.0)
        for i in range(doomed):
            outcome = outcomes.only(i)
            assert outcome.status == STATUS_SHARD_FAILED
            assert isinstance(error_from_wire(outcome.error), ShardFailedError)
        assert set(probe.by_id) == {doomed}
        assert np.array_equal(probe.only(doomed).x, reference[doomed].x)

    def test_close_flushes_before_its_sentinel_and_answers_every_ticket(self):
        import asyncio

        from repro.serve.net.protocol import STATUS_CLOSED, STATUS_OK
        from repro.serve.net.workers import ProcessWorkerPool

        requests = _requests(n=3, unique=1, sizes=(12,), seed=10)
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        outcomes = _Outcomes(len(requests))
        pool = ProcessWorkerPool(config)
        puts = _record_puts(pool._shards[0].request_q)

        async def submit_then_close():
            for i, request in enumerate(requests):
                self._submit(pool, i, request, outcomes)
            pool.close()  # before the loop runs the scheduled flush

        asyncio.run(submit_then_close())
        assert [
            None if message is None else [item.id for item in message]
            for message in puts
        ] == [[0, 1, 2], None]
        assert outcomes.done.is_set()  # no ticket hung
        for i in range(len(requests)):
            assert outcomes.only(i).status in (STATUS_OK, STATUS_CLOSED)

    def test_pipelined_frames_reach_the_worker_as_one_message(self):
        """Frames read together are dispatched in one loop iteration, so
        their requests leave for the worker as one message, in order, and
        come back bit-identical."""
        requests = _requests(n=3, unique=1, sizes=(12,), seed=11)
        service = ServiceConfig(workers=1, max_batch_size=8)
        reference, _ = run_sequential(requests, service)
        frames = [
            encode_frame(
                {
                    "type": "solve",
                    "id": i,
                    "n": request.size,
                    "solver": request.solver,
                    "prep_seed": request.prep_seed,
                    "seed": request.seed,
                },
                [array_to_bytes(request.b), array_to_bytes(request.matrix)],
            )
            for i, request in enumerate(requests)
        ]
        with NetServer(NetServerConfig(service=service)) as server:
            puts = _record_puts(server._pool._shards[0].request_q)
            with socket.create_connection(server.address, timeout=60.0) as sock:
                sock.sendall(b"".join(frames))
                answers = {}
                for _ in requests:
                    header, blobs = recv_frame(sock)
                    i = header["id"]
                    answers[i] = array_from_bytes(
                        blobs[0], (requests[i].size,), header["dtypes"][0]
                    )
            # Server-side ids count from 1 in arrival order.
            assert [[item.id for item in message] for message in puts] == [[1, 2, 3]]
        for i, ref in enumerate(reference):
            assert np.array_equal(answers[i], ref.x)

    def test_pump_answers_wake_the_loop_once_per_drain(self):
        """Completions that find frames already waiting add to them
        instead of waking the loop again; the one wake-up moves every
        ready frame to its connection's queue in order."""
        import asyncio

        from repro.serve.net.protocol import STATUS_OK
        from repro.serve.net.workers import WorkDone

        class Loop:
            def __init__(self):
                self.wakeups = []

            def call_soon_threadsafe(self, callback, *args):
                self.wakeups.append((callback, args))

        class Pool:
            def __init__(self):
                self.callbacks = []

            def submit(self, *, request_id, callback, **fields):
                self.callbacks.append((request_id, callback))

        server = NetServer()
        server._loop, server._pool = Loop(), Pool()
        queues = [asyncio.Queue(), asyncio.Queue()]
        b = np.arange(3.0)
        for i in range(4):
            header = {"type": "solve", "id": 100 + i, "n": 3, "digest": "d" * 16}
            server._dispatch_solve(header, [array_to_bytes(b)], queues[i % 2])
        assert all(q.empty() for q in queues)

        def answer(callbacks):
            for request_id, callback in callbacks:
                callback(
                    WorkDone(
                        id=request_id, status=STATUS_OK, x=b, reference=b, telemetry={}
                    )
                )

        pump = threading.Thread(target=answer, args=(server._pool.callbacks[:3],))
        pump.start()
        pump.join()
        assert len(server._loop.wakeups) == 1
        callback, args = server._loop.wakeups.pop()
        callback(*args)
        ids = [
            [decode_frame(q.get_nowait()[4:])[0]["id"] for _ in range(q.qsize())]
            for q in queues
        ]
        assert ids == [[100, 102], [101]]
        answer(server._pool.callbacks[3:])  # the list is empty again: wake
        assert len(server._loop.wakeups) == 1

    def test_concurrent_pumps_lose_no_frame(self):
        """Stress: pump threads post while the loop drains the ready list;
        every frame arrives exactly once, in its pump's order, and none is
        stranded without a wake-up."""
        import asyncio
        import sys

        server = NetServer()
        loop = asyncio.new_event_loop()
        runner = threading.Thread(target=loop.run_forever, daemon=True)
        runner.start()
        server._loop = loop
        pumps, frames_each = 4, 2000
        queues = [asyncio.Queue() for _ in range(pumps)]

        def pump(k):
            for j in range(frames_each):
                server._post(queues[k], b"%d:%d" % (k, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pump, args=(k,)) for k in range(pumps)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            # Runs after every wake-up the pumps scheduled.
            drained = threading.Event()
            loop.call_soon_threadsafe(drained.set)
            assert drained.wait(30.0)
        finally:
            sys.setswitchinterval(interval)
            loop.call_soon_threadsafe(loop.stop)
            runner.join(timeout=30.0)
            loop.close()
        assert not runner.is_alive()
        assert server._ready == []
        for k, frames in enumerate(queues):
            got = [frames.get_nowait() for _ in range(frames.qsize())]
            assert got == [b"%d:%d" % (k, j) for j in range(frames_each)]

    def test_ready_frames_leave_a_connection_in_one_write(self):
        import asyncio

        frames = [
            encode_frame(
                {"type": "result", "id": i}, [array_to_bytes(np.arange(i + 1.0))]
            )
            for i in range(3)
        ]
        late = encode_frame({"type": "pong", "id": 9})

        class Writer:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))

            async def drain(self):
                await asyncio.sleep(0)

        async def run():
            out_q, writer = asyncio.Queue(), Writer()
            for frame in frames:
                out_q.put_nowait(frame)
            task = asyncio.ensure_future(NetServer()._drain_responses(out_q, writer))
            while not writer.writes:
                await asyncio.sleep(0)
            for item in (late, None, encode_frame({"type": "pong", "id": 10})):
                out_q.put_nowait(item)
            await task
            return writer.writes

        writes = asyncio.run(run())
        assert writes == [b"".join(frames), late]  # nothing after the close
        assert _split_frames(writes[0]) == frames


# ----------------------------------------------------------------------
# precision tiers on the response queue and the wire
# ----------------------------------------------------------------------


class TestWireDtypes:
    """Regression: the codec carried raw bytes but decoded every blob as
    float64 — a float32 solution either crashed reshape (half the bytes)
    or, when sizes collided, silently reinterpreted bit patterns."""

    def test_f32_round_trip_preserves_dtype_and_bits(self):
        from repro.serve.net.protocol import array_dtype_name

        x = np.random.default_rng(0).standard_normal(9).astype(np.float32)
        blob = array_to_bytes(x)
        assert len(blob) == 9 * 4
        assert array_dtype_name(x) == "float32"
        decoded = array_from_bytes(blob, (9,), "float32")
        assert decoded.dtype == np.float32
        assert np.array_equal(decoded, x)

    def test_missing_dtype_defaults_to_float64(self):
        # old-peer interop: pre-tier peers never send the dtypes list
        x = np.random.default_rng(1).standard_normal(5)
        assert np.array_equal(array_from_bytes(array_to_bytes(x), (5,)), x)

    def test_unknown_dtype_name_is_typed(self):
        with pytest.raises(WireProtocolError, match="unknown wire dtype"):
            array_from_bytes(b"\x00" * 8, (2,), "float16")

    def test_size_mismatch_is_typed_per_dtype(self):
        blob = np.zeros(4, dtype=np.float32).tobytes()
        # correct under f32, a typed refusal under the f64 default
        assert array_from_bytes(blob, (4,), "float32").dtype == np.float32
        with pytest.raises(WireProtocolError, match="expected"):
            array_from_bytes(blob, (4,))

    def test_exotic_dtypes_canonicalize_to_f64_on_the_wire(self):
        from repro.serve.net.protocol import array_dtype_name

        ints = np.arange(4)
        assert array_dtype_name(ints) == "float64"
        decoded = array_from_bytes(array_to_bytes(ints), (4,))
        assert decoded.dtype == np.float64 and np.array_equal(decoded, ints)


class TestProcessTierRowDtypes:
    """Each result row crosses the response queue pickled at its own dtype."""

    @staticmethod
    def _serve_in_process(config, requests):
        """One worker step over ``requests`` (a single key), in-process.

        The requests arrive as one request message, the way the pool
        flushes a shard's outbox. Returns the one response message the
        batch answers with, pickled and unpickled the way a process
        queue carries it.
        """
        import queue
        from multiprocessing.reduction import ForkingPickler

        from repro.serve.net.workers import WorkItem, WorkReplies, _Worker

        inbox, responses = queue.Queue(), queue.Queue()
        worker = _Worker(config, inbox, responses)
        inbox.put(
            [
                WorkItem(
                    i,
                    request.digest,
                    request.b,
                    matrix=request.matrix,
                    solver=request.solver,
                    prep_seed=request.prep_seed,
                    seed=request.seed,
                )
                for i, request in enumerate(requests)
            ]
        )
        worker.drain()
        assert len(worker.batcher) == len(requests)  # one message, all admitted
        worker.step()
        assert not len(worker.batcher)
        replies = ForkingPickler.loads(ForkingPickler.dumps(responses.get_nowait()))
        assert responses.empty()  # the executed batch answers as one message
        assert isinstance(replies, WorkReplies)
        return replies

    @staticmethod
    def _rows(replies) -> dict:
        """id → row of one response message (each id answered once)."""
        rows = {row.id: row for row in replies.rows}
        assert len(rows) == len(replies.rows)
        return rows

    @staticmethod
    def _poison_one(requests, monkeypatch) -> int:
        """Set a chaos plan that fails exactly one request; its index."""
        from repro.testing.chaos import rhs_tag

        # A failure rate between the two smallest decision values
        # poisons exactly one request.
        fractions = [
            ChaosPlan(seed=11).fraction("fail", rhs_tag(r.b)) for r in requests
        ]
        lowest, second = sorted(fractions)[:2]
        plan = ChaosPlan(seed=11, solve_failure_rate=(lowest + second) / 2)
        monkeypatch.setenv(CHAOS_ENV, plan.chaos_env()[CHAOS_ENV])
        return fractions.index(lowest)

    def _assert_rows_match(self, rows, reference, batch, x_dtype):
        from repro.serve.net.protocol import STATUS_OK
        from repro.serve.net.workers import WorkDone

        assert sorted(rows) == list(range(len(reference)))
        for i, ref in enumerate(reference):
            row = rows[i]
            assert isinstance(row, WorkDone) and row.status == STATUS_OK
            assert row.telemetry["batch"] == batch
            assert row.x.dtype == x_dtype
            assert row.reference.dtype == np.float64
            assert np.array_equal(row.x, ref.x)
            assert np.array_equal(row.reference, ref.reference)

    def test_rows_round_trip_bit_exact(self):
        """One message per batch, one row per request; each row carries
        run_sequential's bits."""
        requests = _requests(n=3, unique=1, sizes=(12,), seed=1)
        config = ServiceConfig(max_batch_size=len(requests), max_linger_s=0.0)
        reference, _ = run_sequential(requests, config)
        rows = self._rows(self._serve_in_process(config, requests))
        self._assert_rows_match(rows, reference, len(requests), np.float64)

    def test_single_row_batch(self):
        requests = _requests(n=1, unique=1, sizes=(12,), seed=2)
        config = ServiceConfig(max_linger_s=0.0)
        reference, _ = run_sequential(requests, config)
        rows = self._rows(self._serve_in_process(config, requests))
        self._assert_rows_match(rows, reference, 1, np.float64)

    def test_f32_rows_round_trip_at_f32(self):
        """Float32-tier solutions are not upcast next to float64 references."""
        requests = _requests(n=2, unique=1, sizes=(12,), seed=3)
        config = ServiceConfig(
            max_batch_size=len(requests), max_linger_s=0.0, backend="numpy-f32"
        )
        reference, _ = run_sequential(requests, config)
        rows = self._rows(self._serve_in_process(config, requests))
        self._assert_rows_match(rows, reference, len(requests), np.float32)

    def test_each_message_carries_only_its_row(self):
        """Each row of a batch's message pickles that row's two arrays,
        not the batch's: emptying one row's arrays shrinks the message
        by at most their own bytes."""
        from dataclasses import replace
        from multiprocessing.reduction import ForkingPickler

        n = 64
        requests = _requests(n=4, unique=1, sizes=(n,), seed=4)
        config = ServiceConfig(max_batch_size=len(requests), max_linger_s=0.0)
        replies = self._serve_in_process(config, requests)
        assert len(replies.rows) == len(requests)
        size = len(ForkingPickler.dumps(replies))
        for i, row in enumerate(replies.rows):
            assert row.x.shape == row.reference.shape == (n,)
            emptied = replace(row, x=row.x[:0], reference=row.reference[:0])
            rows = replies.rows[:i] + [emptied] + replies.rows[i + 1 :]
            arrays = size - len(ForkingPickler.dumps(replace(replies, rows=rows)))
            assert arrays <= row.x.nbytes + row.reference.nbytes + 64

    def test_failed_row_leaves_its_neighbours_intact(self, monkeypatch):
        """Without a fallback the poisoned request fails typed on its own
        row of the batch's message; the other rows keep their dtypes and
        bits."""
        from repro.serve.net.workers import WorkFailed

        requests = _requests(n=4, unique=1, sizes=(12,), seed=5)
        config = ServiceConfig(
            max_batch_size=len(requests), max_linger_s=0.0, backend="numpy-f32"
        )
        reference, _ = run_sequential(requests, config)
        poisoned = self._poison_one(requests, monkeypatch)
        rows = self._rows(self._serve_in_process(config, requests))
        failed = rows.pop(poisoned)
        assert isinstance(failed, WorkFailed)
        assert isinstance(error_from_wire(failed.error), SolverError)
        del reference[poisoned]
        assert sorted(rows) == [i for i in range(len(requests)) if i != poisoned]
        rows = dict(enumerate(rows[i] for i in sorted(rows)))
        self._assert_rows_match(rows, reference, len(requests), np.float32)

    def test_f32_batch_with_degraded_row_keeps_row_dtypes_and_bits(
        self, monkeypatch
    ):
        """A float32-tier batch in which chaos poisons one request: under
        the digital fallback that row comes back float64, the analog rows
        float32, and every row carries run_sequential's bits."""
        import threading

        from repro.serve.net.protocol import STATUS_DEGRADED, STATUS_OK
        from repro.serve.net.workers import ProcessWorkerPool

        requests = _requests(n=4, unique=1, sizes=(12,), seed=6)
        config = ServiceConfig(
            workers=1,
            max_batch_size=len(requests),
            max_linger_s=5.0,
            backend="numpy-f32",
            resilience=ResiliencePolicy(fallback="digital"),
        )
        reference, _ = run_sequential(requests, config)
        poisoned = self._poison_one(requests, monkeypatch)

        outcomes = {}
        all_done = threading.Event()

        def collect(outcome):
            outcomes[outcome.id] = outcome
            if len(outcomes) == len(requests):
                all_done.set()

        with ProcessWorkerPool(config) as pool:
            for i, request in enumerate(requests):
                pool.submit(
                    request_id=i,
                    digest=request.digest,
                    b=request.b,
                    matrix=request.matrix,
                    solver=request.solver,
                    prep_seed=request.prep_seed,
                    seed=request.seed,
                    deadline_at=None,
                    callback=collect,
                )
            assert all_done.wait(120.0)

        for i, ref in enumerate(reference):
            outcome = outcomes[i]
            # One lone key, lingered until the batch filled.
            assert outcome.telemetry["batch"] == len(requests)
            assert outcome.reference.dtype == np.float64
            assert np.array_equal(outcome.reference, ref.reference)
            if i == poisoned:
                assert outcome.status == STATUS_DEGRADED
                assert outcome.x.dtype == np.float64
                assert np.array_equal(outcome.x, ref.reference)
            else:
                assert outcome.status == STATUS_OK
                assert outcome.x.dtype == np.float32
                assert np.array_equal(outcome.x, ref.x)


class TestNetServingPrecisionTiers:
    def test_f32_tier_round_trips_over_real_sockets(self):
        from repro.core.backend import F32_TOLERANCE

        requests = _requests(n=8, unique=2, sizes=(12,), seed=2)
        f64_config = _server_config(workers=2)
        f32_service = ServiceConfig(workers=2, max_batch_size=8, backend="numpy-f32")
        reference, _ = run_sequential(requests, f64_config.service)
        with NetServer(NetServerConfig(service=f32_service)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                results = client.solve_all(requests, timeout=120.0)
        for res, ref in zip(results, reference):
            assert res.x.dtype == np.float32  # survived TCP at its tier
            assert res.reference.dtype == np.float64
            assert np.array_equal(res.reference, ref.reference)
            assert F32_TOLERANCE.admits(res.x, ref.x)

    def test_f64_tier_unchanged_headers_carry_dtypes(self):
        # the default tier still answers float64, now with explicit
        # dtype names in the result header
        requests = _requests(n=4, unique=1, sizes=(12,), seed=5)
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                results = client.solve_all(requests, timeout=120.0)
        for res, ref in zip(results, reference):
            assert res.x.dtype == np.float64
            assert np.array_equal(res.x, ref.x)
