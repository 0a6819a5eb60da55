"""Content-addressed LRU cache of prepared (programmed) solvers.

Programming a macro — normalization, Schur preprocessing, the variation
draw, parasitic extraction — dominates the cost of a one-shot solve.
The service therefore prepares each distinct
``(matrix digest, hardware digest, solver kind, prep seed)`` combination
**once per process** and replays solves against the cached macro.

Determinism contract (the foundation of the service's bit-identical
guarantee, enforced by ``tests/test_serve.py``):

- preparation consumes ``default_rng(prep_seed)`` only, and the op-amp
  offset draw — normally deferred to the first solve — is forced at
  preparation time with the same generator (:func:`prepare_entry` runs
  one warm-up solve). A cached entry is therefore a pure function of its
  key, independent of which request happened to arrive first;
- after warm-up, solvers without per-operation noise are rng-independent
  (offsets are quasi-static and cached per op-amp column; MNA routing
  draws nothing else), so replayed solves are deterministic no matter
  how requests are scheduled.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.amc.config import HardwareConfig
from repro.core.blockamc import BlockAMCSolver, has_per_operation_randomness
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.errors import ServeError

__all__ = [
    "SOLVER_KINDS",
    "CacheStats",
    "PreparedEntry",
    "PreparedKey",
    "PreparedSolverCache",
    "prepare_entry",
]

#: Solver kinds the service can prepare, mapped to prepared-solver factories.
SOLVER_KINDS: dict[str, Callable] = {
    "blockamc-1stage": lambda config: BlockAMCSolver(config),
    "blockamc-2stage": lambda config: MultiStageSolver(config, stages=2),
    "original-amc": lambda config: OriginalAMCSolver(config),
}


@dataclass(frozen=True)
class PreparedKey:
    """Cache identity of one programmed solver.

    ``backend`` names the precision tier the solver's kernel runs at
    (belt-and-braces with ``config_key``, which already covers the
    hardware's backend field, and with ``matrix_digest``, which hashes
    the canonical dtype: the tier is explicit in the key so two tiers
    can never alias even if a future config digest drops the field).
    """

    matrix_digest: str
    config_key: str
    solver: str
    prep_seed: int
    backend: str = "numpy"

    def shard(self, shards: int) -> int:
        """Owning shard index: hash of the *matrix* digest only.

        All traffic for one matrix lands on one worker, so a prepared
        macro lives in exactly one shard cache and is never programmed
        (or solved) concurrently from two threads.
        """
        return int(self.matrix_digest[:16], 16) % shards


@dataclass(frozen=True)
class PreparedEntry:
    """A cached programmed solver plus its execution traits.

    ``coalescible`` marks entries whose queued requests may be merged
    into one multi-RHS ``solve_many`` call: every solver kind on
    hardware without per-operation noise (MNA routing included) —
    exactly the configurations whose batched solver trees are bitwise
    invariant to batch composition. Noisy entries execute request by
    request, each with its own generator, against the same cached
    programming.
    """

    key: PreparedKey
    prepared: object
    coalescible: bool
    size: int
    prepare_seconds: float


def prepare_entry(
    key: PreparedKey, matrix: np.ndarray, hardware: HardwareConfig
) -> PreparedEntry:
    """Program a solver for ``matrix`` and warm its deferred draws.

    The warm-up solve forces every lazily-drawn quasi-static non-ideality
    (op-amp offsets across the whole solver tree) to consume the
    *preparation* generator, so the entry's behaviour is fixed at
    preparation time rather than by the first request scheduled onto it.
    """
    if key.solver not in SOLVER_KINDS:
        raise ServeError(
            f"unknown solver kind {key.solver!r}; available: {sorted(SOLVER_KINDS)}"
        )
    start = time.perf_counter()
    rng = np.random.default_rng(key.prep_seed)
    prepared = SOLVER_KINDS[key.solver](hardware).prepare(matrix, rng)
    prepared.solve(np.ones(matrix.shape[0]), rng)
    return PreparedEntry(
        key=key,
        prepared=prepared,
        # The predicate the solvers' own solve_many fallbacks use, so
        # "coalescible" and "actually batches" cannot drift.
        coalescible=not has_per_operation_randomness(hardware),
        size=matrix.shape[0],
        prepare_seconds=time.perf_counter() - start,
    )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache (or an aggregate)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum (for aggregating shard caches)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def as_dict(self) -> dict:
        """Machine-readable counters including the derived hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class PreparedSolverCache:
    """Thread-safe LRU cache of :class:`PreparedEntry` objects.

    ``capacity`` bounds the number of resident programmed solvers (each
    holds the four crossbar arrays plus factorization caches, so memory
    scales with ``capacity * n^2``). Eviction is least-recently-used on
    lookups and insertions.
    """

    capacity: int = 32
    _entries: OrderedDict = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PreparedKey) -> bool:
        with self._lock:
            return key in self._entries

    def get_or_prepare(
        self, key: PreparedKey, factory: Callable[[], PreparedEntry]
    ) -> PreparedEntry:
        """Return the cached entry for ``key``, preparing it on a miss.

        The factory runs outside the lock only in the sense that each
        shard cache is owned by a single worker; a standalone shared
        cache accepts the (idempotent) cost of a duplicate prepare under
        a race rather than serializing all solvers behind one lock.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        entry = factory()
        if entry.key != key:
            raise ServeError(
                f"factory produced entry for {entry.key}, expected {key}"
            )
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def credit_hits(self, count: int) -> None:
        """Count ``count`` extra hits.

        The service performs one physical lookup per *coalesced batch*;
        crediting the other ``batch - 1`` requests keeps the hit rate
        meaning "fraction of requests served from cached programming"
        whether or not batching happened to group them.
        """
        if count <= 0:
            return
        with self._lock:
            self.stats.hits += count

    def invalidate(self, key: PreparedKey) -> bool:
        """Drop one entry if resident; returns whether it was.

        Used by the circuit breaker: tripping open evicts the (possibly
        corrupt) programmed solver, so the half-open probe re-prepares
        from scratch instead of re-trying the same broken macro.
        Counts as an eviction; a later re-prepare is an ordinary miss.
        """
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self.stats.evictions += 1
            return True

    def keys(self) -> list[PreparedKey]:
        """Resident keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
