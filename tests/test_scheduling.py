"""The shard loops' scheduling rule, pinned once over both serving tiers.

A shard keeps a coalescible batch open for stragglers only while its
micro-batcher holds nothing but the key it is serving: with another
key's request waiting, the batch goes out at once, and a linger already
in progress ends when one arrives. A lone key still lingers, so a
straggler can still coalesce.

Each case drives one shard engine in-process, one loop step at a time:
the thread tier through a :class:`SolverService` shard, the process tier
through a worker with :class:`queue.Queue` plumbing. Requests
put together reach the process worker as one request message, the way
the pool flushes a shard's outbox, and each executed batch must answer
as one response message. The linger window is 5 s, so timing cannot
pass a case by accident: a shard that waited the window out fails the
``< PROMPT_S`` checks.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    ServiceConfig,
    SolveRequest,
    SolverService,
    SolveTicket,
    matrix_digest,
)
from repro.serve.net.workers import WorkDone, WorkItem, WorkReplies, _Worker
from repro.serve.service import _Shard, resolve_request

LINGER_S = 5.0
#: Well inside the linger window: a shard that waited it out is slower.
PROMPT_S = LINGER_S / 2
#: When a straggler arrives, counted from the start of the loop step.
ARRIVAL_S = 0.1


def _matrix(index: int, n: int = 6) -> np.ndarray:
    return np.eye(n) + 0.1 * np.random.default_rng(index).random((n, n))


def _config(max_batch_size: int) -> ServiceConfig:
    return ServiceConfig(workers=1, max_batch_size=max_batch_size, max_linger_s=LINGER_S)


class _ThreadTier:
    """One :class:`SolverService` shard, stepped from the test thread."""

    def __init__(self, max_batch_size: int):
        self.service = SolverService(_config(max_batch_size))
        # A shard of this service that no worker thread serves.
        self.shard = _Shard(0, self.service)
        self.tickets: list[SolveTicket] = []

    def request(self, matrix: np.ndarray) -> SolveTicket:
        request = SolveRequest(matrix=matrix, b=np.ones(len(matrix)))
        ticket = SolveTicket(request, *resolve_request(request, self.service.config))
        self.tickets.append(ticket)
        return ticket

    def put(self, *items) -> None:
        for item in items:
            self.shard.queue.put(item)

    def step(self) -> int:
        """One loop iteration: drain, serve the next key; returns answers."""
        before = self._answered()
        self.shard.drain()
        self.shard.step()
        return self._answered() - before

    def _answered(self) -> int:
        done = [ticket for ticket in self.tickets if ticket.done()]
        assert all(ticket.exception() is None for ticket in done)
        return len(done)

    def pending(self) -> int:
        return len(self.shard.batcher)

    def close(self) -> None:
        self.service.close()


class _ProcessTier:
    """One process worker, stepped in-process (no fork)."""

    def __init__(self, max_batch_size: int):
        self.requests: queue.Queue = queue.Queue()
        self.responses: queue.Queue = queue.Queue()
        self.worker = _Worker(_config(max_batch_size), self.requests, self.responses)
        self.ids = itertools.count()

    def request(self, matrix: np.ndarray) -> WorkItem:
        return WorkItem(
            next(self.ids), matrix_digest(matrix), np.ones(len(matrix)), matrix=matrix
        )

    def put(self, *items) -> None:
        """Put ``items`` as one request message."""
        self.requests.put(list(items))

    def step(self) -> int:
        """One loop iteration: drain, serve the next key; returns answers."""
        self.worker.drain()
        self.worker.step()
        messages = []
        while not self.responses.empty():
            messages.append(self.responses.get())
        assert len(messages) <= 1  # the one executed batch, one message
        rows = [row for message in messages for row in message.rows]
        assert all(isinstance(m, WorkReplies) for m in messages)
        assert all(isinstance(row, WorkDone) for row in rows)
        return len(rows)

    def pending(self) -> int:
        return len(self.worker.batcher)

    def close(self) -> None:
        pass


@pytest.fixture(params=[_ThreadTier, _ProcessTier], ids=["thread", "process"])
def make_tier(request):
    made = []

    def make(max_batch_size: int = 16):
        made.append(request.param(max_batch_size))
        return made[-1]

    yield make
    for tier in made:
        tier.close()


def _timed_step(tier, arrival=None) -> tuple[int, float]:
    """Step the shard, putting ``arrival`` on its queue ARRIVAL_S in.

    The clock starts before the timer does, so a straggler can never
    land less than ARRIVAL_S after ``start``, however late the step
    itself begins.
    """
    start = time.perf_counter()
    timer = None
    if arrival is not None:
        timer = threading.Timer(ARRIVAL_S, tier.put, (arrival,))
        timer.start()
    try:
        answered = tier.step()
    finally:
        if timer is not None:
            timer.join()
    return answered, time.perf_counter() - start


def test_two_keys_queued_first_batch_goes_out_without_waiting(make_tier):
    tier = make_tier()
    tier.put(tier.request(_matrix(1)), tier.request(_matrix(2)))
    answered, elapsed = _timed_step(tier)
    assert answered == 1
    assert elapsed < PROMPT_S
    assert tier.pending() == 1  # the other key waits for its own turn


def test_lone_key_lingers_and_coalesces_a_straggler(make_tier):
    tier = make_tier(max_batch_size=2)
    matrix = _matrix(1)
    tier.put(tier.request(matrix))
    answered, elapsed = _timed_step(tier, arrival=tier.request(matrix))
    assert answered == 2  # one batch of two
    assert ARRIVAL_S <= elapsed < PROMPT_S
    assert tier.pending() == 0


def test_linger_ends_when_another_keys_request_arrives(make_tier):
    tier = make_tier()
    tier.put(tier.request(_matrix(1)))
    answered, elapsed = _timed_step(tier, arrival=tier.request(_matrix(2)))
    assert answered == 1
    assert ARRIVAL_S <= elapsed < PROMPT_S
    assert tier.pending() == 1


def test_full_lone_key_batch_goes_out_without_waiting(make_tier):
    tier = make_tier(max_batch_size=2)
    matrix = _matrix(1)
    tier.put(tier.request(matrix), tier.request(matrix))
    answered, elapsed = _timed_step(tier)
    assert answered == 2  # nothing left to wait for: the batch is full
    assert elapsed < PROMPT_S
    assert tier.pending() == 0


def test_queued_group_goes_out_whole_while_another_key_waits(make_tier):
    tier = make_tier()
    matrix = _matrix(1)
    tier.put(tier.request(matrix), tier.request(matrix), tier.request(_matrix(2)))
    answered, elapsed = _timed_step(tier)
    assert answered == 2  # no linger, but what was already queued coalesces
    assert elapsed < PROMPT_S
    assert tier.pending() == 1


def test_partial_take_yields_to_the_waiting_key(make_tier):
    tier = make_tier(max_batch_size=2)
    hot = _matrix(1)
    tier.put(*(tier.request(hot) for _ in range(3)), tier.request(_matrix(2)))
    answered, elapsed = _timed_step(tier)
    assert answered == 2 and elapsed < PROMPT_S
    # Round-robin: the hot key's remainder rotated behind the other key,
    # which goes out next, still without waiting.
    answered, elapsed = _timed_step(tier)
    assert answered == 1 and elapsed < PROMPT_S
    assert tier.pending() == 1


def test_close_ends_a_thread_shard_linger():
    """A closed service takes no stragglers, so ``close()`` does not wait
    out a lone key's linger window: the batch goes out and is answered."""
    service = SolverService(_config(max_batch_size=2))
    matrix = _matrix(1)
    b = np.ones(len(matrix))
    try:
        # Warm the key with a full batch, which does not linger.
        for ticket in [service.submit(matrix, b) for _ in range(2)]:
            ticket.result(timeout=PROMPT_S)
        ticket = service.submit(matrix, b)
        start = time.perf_counter()
    finally:
        service.close()
    assert time.perf_counter() - start < PROMPT_S
    assert ticket.exception(timeout=0) is None
    assert np.all(np.isfinite(ticket.result(timeout=0).x))
