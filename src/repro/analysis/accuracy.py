"""Monte-Carlo accuracy sweeps (the engine behind Figs. 6c, 7, 8d, 9).

``run_trials`` evaluates a set of solvers on the same random systems
(paired comparison, as the paper does when overlaying original AMC and
BlockAMC curves) and returns flat records; ``accuracy_sweep`` aggregates
them into per-size mean/std series ready for tabulation.

``run_trials_batched`` produces the *same records* through the
trial-batched engine of :mod:`repro.core.batched`: per size, all trials
are stacked into ``(trials, n, n)`` tensors and run as one batch through
the solver trees. Each trial consumes its own hardware generator in the
sequential order and every step runs the same kernel, so records are
bit-identical (``==``) to ``run_trials`` within a precision tier;
solvers or configurations the engine cannot batch fall back to the
sequential path transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batched import make_batched_runner, solve_per_trial
from repro.utils.rng import RngStream
from repro.workloads.matrices import random_vector


@dataclass(frozen=True)
class AccuracyRecord:
    """One (solver, size, trial) accuracy measurement."""

    solver: str
    size: int
    trial: int
    relative_error: float
    saturated: bool
    analog_time_s: float


def run_trials(
    solver_factories: dict[str, Callable[[], object]],
    matrix_factory: Callable[[int, np.random.Generator], np.ndarray],
    sizes,
    trials: int,
    seed=None,
    *,
    vector_factory: Callable[[int, np.random.Generator], np.ndarray] = random_vector,
) -> list[AccuracyRecord]:
    """Run the Monte-Carlo sweep.

    Parameters
    ----------
    solver_factories:
        ``{name: factory}`` where ``factory()`` builds a solver exposing
        ``solve(matrix, b, rng) -> SolveResult``. A fresh solver is built
        per trial so stateless factories are fine.
    matrix_factory:
        ``(size, rng) -> matrix``.
    sizes:
        Iterable of matrix sizes.
    trials:
        Trials per size; every solver sees the same (matrix, b, variation
        seed) triple within a trial.
    seed:
        Root seed for full reproducibility.
    vector_factory:
        ``(size, rng) -> b``.
    """
    stream = RngStream(seed)
    records: list[AccuracyRecord] = []
    for size in sizes:
        for trial in range(trials):
            rng_matrix = stream.child()
            rng_vector = stream.child()
            matrix = matrix_factory(size, rng_matrix)
            b = vector_factory(size, rng_vector)
            hardware_seed = stream.child().integers(0, 2**63 - 1)
            for name, factory in solver_factories.items():
                solver = factory()
                result = solver.solve(matrix, b, rng=np.random.default_rng(hardware_seed))
                records.append(
                    AccuracyRecord(
                        solver=name,
                        size=int(size),
                        trial=trial,
                        relative_error=result.relative_error,
                        saturated=result.saturated,
                        analog_time_s=result.analog_time_s,
                    )
                )
    return records


def run_trials_batched(
    solvers: dict[str, object],
    matrix_factory: Callable[[int, np.random.Generator], np.ndarray],
    sizes,
    trials: int,
    seed=None,
    *,
    vector_factory: Callable[[int, np.random.Generator], np.ndarray] = random_vector,
) -> list[AccuracyRecord]:
    """Run the Monte-Carlo sweep through the trial-batched engine.

    Produces the same records as :func:`run_trials` (``==``, within a
    precision tier) at a fraction of the wall clock: per (size, solver)
    all trials execute as one batch through a stacked solver tree
    instead of ``trials`` sequential pipeline runs.

    Parameters
    ----------
    solvers:
        ``{name: solver}`` — solver *instances* (solvers are stateless
        across solves). Instances the batched engine supports
        (:class:`~repro.core.original.OriginalAMCSolver`,
        :class:`~repro.core.blockamc.BlockAMCSolver` and
        :class:`~repro.core.multistage.MultiStageSolver`, each with a
        batchable config — see
        :func:`repro.core.batched.is_batchable_config`) run batched;
        anything else falls back to per-trial ``solver.solve`` with the
        identical RNG layout.
    matrix_factory, sizes, trials, seed, vector_factory:
        As in :func:`run_trials`. The per-trial derivation of matrix,
        right-hand side, and hardware seed from ``seed`` is unchanged,
        so paired comparisons against :func:`run_trials` results hold.
    """
    stream = RngStream(seed)
    records: list[AccuracyRecord] = []
    runners = {name: make_batched_runner(solver) for name, solver in solvers.items()}
    for size in sizes:
        matrices = []
        vectors = []
        seeds = []
        for _ in range(trials):
            rng_matrix = stream.child()
            rng_vector = stream.child()
            matrices.append(matrix_factory(size, rng_matrix))
            vectors.append(vector_factory(size, rng_vector))
            seeds.append(stream.child().integers(0, 2**63 - 1))
        matrix_stack = np.stack(matrices) if trials else np.empty((0, size, size))
        vector_stack = np.stack(vectors) if trials else np.empty((0, size))
        per_solver: dict[str, list[AccuracyRecord]] = {}
        for name, solver in solvers.items():
            runner = runners[name]
            if runner is not None:
                outcomes = runner.run(matrix_stack, vector_stack, seeds)
            else:
                outcomes = solve_per_trial(solver, matrix_stack, vector_stack, seeds)
            per_solver[name] = [
                AccuracyRecord(name, int(size), trial, **outcome._asdict())
                for trial, outcome in enumerate(outcomes)
            ]
        # Emit trial-major (trial, then solver), matching run_trials, so
        # positional consumers can pair the two outputs record for record.
        for trial in range(trials):
            for name in solvers:
                records.append(per_solver[name][trial])
    return records


def _group(records: list[AccuracyRecord]) -> dict[str, dict[int, list[float]]]:
    table: dict[str, dict[int, list[float]]] = {}
    for record in records:
        table.setdefault(record.solver, {}).setdefault(record.size, []).append(
            record.relative_error
        )
    return table


def accuracy_sweep(records: list[AccuracyRecord]) -> dict[str, dict[int, tuple[float, float]]]:
    """Aggregate records into ``{solver: {size: (mean, std)}}``."""
    return {
        solver: {
            size: (float(np.mean(errors)), float(np.std(errors)))
            for size, errors in sorted(by_size.items())
        }
        for solver, by_size in _group(records).items()
    }


def accuracy_quantiles(
    records: list[AccuracyRecord],
    quantiles: tuple[float, ...] = (0.5, 0.9),
) -> dict[str, dict[int, tuple[float, ...]]]:
    """Aggregate records into per-(solver, size) error quantiles.

    Relative-error distributions under heavy non-idealities are
    long-tailed (a near-singular draw ruins one trial); quantiles convey
    the typical behaviour where the mean would be dominated by the tail.
    """
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantiles must lie in [0, 1], got {q}")
    return {
        solver: {
            size: tuple(float(np.quantile(errors, q)) for q in quantiles)
            for size, errors in sorted(by_size.items())
        }
        for solver, by_size in _group(records).items()
    }
