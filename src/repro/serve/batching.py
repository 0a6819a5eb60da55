"""Micro-batching: coalescing queued requests into multi-RHS solves.

Two pieces live here:

- :func:`execute_batch` — the **canonical execution kernel**. Every
  solve the service performs (and the sequential reference in
  :func:`repro.serve.service.run_sequential`) goes through this one
  function, so a request's result is a pure function of (prepared entry,
  ``b``, ``seed``) and never of how the scheduler happened to group it.
  Coalescible entries run the multi-RHS ``solve_many`` pipeline, whose
  per-column results are bitwise invariant to batch composition and
  order *by construction*: the shared kernel
  (:mod:`repro.core.common`) factors each INV system once but
  back-substitutes one column at a time, so no BLAS call ever sees the
  batch size (``tests/test_serve.py`` enforces the invariance).
- :class:`MicroBatcher` — per-worker bookkeeping that groups queued
  items by prepared key and hands out batches of at most
  ``max_batch_size``, serving the groups round-robin.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Sequence

import numpy as np

from repro.core.solution import SolveResult
from repro.errors import ServeError
from repro.obs import tracer as obs
from repro.serve.cache import PreparedEntry

__all__ = ["MicroBatcher", "execute_batch"]


def execute_batch(
    entry: PreparedEntry,
    bs: Sequence[np.ndarray],
    seeds: Sequence[int],
    *,
    lean: bool = False,
) -> list[SolveResult]:
    """Execute one batch of right-hand sides against a prepared entry.

    Coalescible entries run the batched solver tree once for the whole
    batch (one factorization per INV array); the generator argument is
    vestigial there — offsets were warmed at preparation — so a fixed
    seed keeps the call deterministic by construction. Other entries
    (per-operation noise) execute per request as a batch of one, each
    consuming its own ``default_rng(seed)`` so results do not depend on
    batch composition.

    ``lean=True`` returns :class:`~repro.core.solution.LeanSolveResult`
    payloads — identical ``x``/``reference``/``relative_error`` bits,
    no per-step OpResult telemetry (whose construction dominates
    service-side time at scale).

    When tracing (:mod:`repro.obs`) is enabled, every call emits a
    ``serve.kernel`` span carrying the batch size and the summed
    ``analog_time_s`` of its results — latency attribution bottoms out
    at the paper's per-operation analog timing. Tracing observes only:
    the solve path and its random draws are identical either way.
    """
    if len(bs) != len(seeds):
        raise ServeError(f"got {len(bs)} right-hand sides but {len(seeds)} seeds")
    if not bs:
        return []
    tracer = obs.active()
    if not tracer.enabled:
        return _execute(entry, bs, seeds, lean)
    with tracer.start_span(
        "serve.kernel",
        attributes={
            "batch": len(bs),
            "solver": entry.key.solver,
            "digest": entry.key.matrix_digest[:12],
            "coalescible": entry.coalescible,
            "lean": lean,
        },
    ) as span:
        results = _execute(entry, bs, seeds, lean)
        span.set(
            analog_time_s=float(sum(r.analog_time_s for r in results))
        )
        return results


def _execute(entry, bs, seeds, lean):
    solve_many = entry.prepared.solve_many
    if entry.coalescible:
        return list(solve_many(list(bs), np.random.default_rng(0), lean=lean))
    return [
        solve_many([b], np.random.default_rng(seed), lean=lean)[0]
        for b, seed in zip(bs, seeds)
    ]


class MicroBatcher:
    """Per-worker grouping of queued items by prepared key.

    Items are anything exposing a ``key`` attribute. Within a group,
    arrival order is preserved; across groups :meth:`next_key` serves
    round-robin — a newly seen key joins the back, and a group that
    still has items after a partial :meth:`take` rotates to the back —
    so one hot matrix cannot starve traffic for the others.
    """

    def __init__(self, max_batch_size: int):
        if max_batch_size < 1:
            raise ServeError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.max_batch_size = max_batch_size
        self._groups: OrderedDict = OrderedDict()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, item) -> None:
        """Queue one item under its prepared key."""
        group = self._groups.get(item.key)
        if group is None:
            group = deque()
            self._groups[item.key] = group
        group.append(item)
        self._count += 1

    def next_key(self):
        """Key of the group to serve next (``None`` when empty)."""
        return next(iter(self._groups), None)

    def pending_for(self, key) -> int:
        """Number of queued items under ``key``."""
        group = self._groups.get(key)
        return len(group) if group is not None else 0

    def peek(self, key):
        """Head item of ``key``'s group without removing it (or ``None``)."""
        group = self._groups.get(key)
        return group[0] if group else None

    def take(self, key) -> list:
        """Remove and return up to ``max_batch_size`` items of ``key``."""
        group = self._groups.get(key)
        if not group:
            return []
        batch = []
        while group and len(batch) < self.max_batch_size:
            batch.append(group.popleft())
        if not group:
            del self._groups[key]
        else:
            # Partial take: rotate the group to the back so a hot key
            # that refills faster than it drains cannot starve the
            # other keys on this shard.
            self._groups.move_to_end(key)
        self._count -= len(batch)
        return batch

    def drain(self) -> list:
        """Remove and return every queued item (for shutdown paths)."""
        items = [item for group in self._groups.values() for item in group]
        self._groups.clear()
        self._count = 0
        return items
