"""Seeded inputs of the benchmark, generated apart from the program.

Everything here is plain NumPy: the systems, right-hand sides and
per-request seeds never come from ``repro.workloads``, so no change to
the program can alter what is measured. Each draw takes its own
generator keyed by ``(seed, purpose, index...)``, so an input depends on
the seed and its index alone, never on how many inputs a run consumed
before it (a faster program visits more systems, but system ``i`` is the
same system on every machine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Purpose tags that keep the generator streams of one seed apart.
_SYSTEM, _RHS, _STREAM, _PREP = 1, 2, 3, 4

#: Largest condition number of a generated Toeplitz system.
CONDITION_CAP = 300.0

#: Seed of the hot workloads' operator set (fixed; see :func:`hot_set`).
HOT_SET_SEED = 0


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one ``(seed, purpose, index...)`` key."""
    return np.random.default_rng([int(seed), *(int(k) for k in key)])


def wishart(n: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart ``XᵀX`` with ``X`` of shape ``(2n, n)`` (paper Figs. 7/9)."""
    x = rng.standard_normal((2 * n, n))
    return x.T @ x


def toeplitz(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric decaying Toeplitz (paper Figs. 7/9).

    First row ``a_0 = 1``, ``a_k = 0.5 u_k / (k + 1)^0.75`` with
    ``u_k ~ U(0.5, 1.5)``. The off-diagonal mass grows with ``n``, so a
    diagonal shift keeps the system positive definite with condition
    number at most 300 (every INV circuit then has a stable equilibrium).
    """
    k = np.arange(1, n)
    row = np.concatenate(([1.0], 0.5 * rng.uniform(0.5, 1.5, n - 1) / (k + 1) ** 0.75))
    index = np.arange(n)
    matrix = row[np.abs(index[:, None] - index[None, :])]
    low, high = np.linalg.eigvalsh(matrix)[[0, -1]]
    if high > CONDITION_CAP * low:
        matrix += np.eye(n) * (high - CONDITION_CAP * low) / (CONDITION_CAP - 1)
    return matrix


FAMILIES = {"wishart": wishart, "toeplitz": toeplitz}


def rhs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Right-hand side uniform in ``[-1, 1)``."""
    return rng.uniform(-1.0, 1.0, n)


@dataclass(frozen=True)
class System:
    """One generated linear system and the solver that serves it."""

    index: int
    family: str
    n: int
    solver: str
    prep_seed: int
    matrix: np.ndarray
    rhs: tuple


def make_system(
    seed: int, index: int, family: str, n: int, solver: str, rhs_count: int,
    rhs_seed: int | None = None,
) -> System:
    """System ``index``: matrix and prep seed from ``seed``, right-hand sides from ``rhs_seed``."""
    matrix = FAMILIES[family](n, rng_for(seed, _SYSTEM, index))
    rhs_seed = seed if rhs_seed is None else rhs_seed
    vectors = tuple(rhs(n, rng_for(rhs_seed, _RHS, index, j)) for j in range(rhs_count))
    prep_seed = int(rng_for(seed, _PREP, index).integers(0, 2**31 - 1))
    return System(index, family, n, solver, prep_seed, matrix, vectors)


def hot_set(seed: int, layout, rhs_count: int) -> list[System]:
    """The working set of a hot workload, one system per ``(family, n, solver)``.

    The operators and their programming draws are the same for every
    seed (:data:`HOT_SET_SEED`), as a deployed service's hot set would
    be; the seed draws the right-hand sides and the traffic. With the
    operators drawn per seed, the error percentiles of a two-dozen
    system set follow its one or two worst-conditioned draws (p95
    varied by 17-32% between seeds).
    """
    return [
        make_system(HOT_SET_SEED, i, family, n, solver, rhs_count, rhs_seed=seed)
        for i, (family, n, solver) in enumerate(layout)
    ]


def request_stream(seed: int, systems: int, rhs_count: int, length: int):
    """``(system, rhs)`` index pairs of a hot request stream, uniform over both."""
    rng = rng_for(seed, _STREAM)
    return (
        rng.integers(0, systems, length),
        rng.integers(0, rhs_count, length),
    )


def campaign_seed(seed: int, round_index: int) -> int:
    """Root seed of one campaign round (a fresh Fig. 9 sweep per round)."""
    return int(rng_for(seed, _STREAM, round_index).integers(0, 2**31 - 1))
