"""The benchmark's own checks of the program's answers.

Nothing here imports the program. Every bound comes from the numerical
method, not from a recording of today's outputs:

- a returned ``reference`` is the program's float64 direct solve, so it
  must agree with the benchmark's own ``numpy.linalg.solve`` within the
  forward-error bound of LU with partial pivoting, ``c · n · eps · κ₁(A)``;
- a reported ``relative_error`` is paper Eq. 6 of the returned ``x``
  against the returned ``reference``; recomputing it may differ only by
  summation order, ``c · n · eps`` relative;
- a request that recurs must return the same bits (the serving tiers
  promise results that are a pure function of the prepared solver, the
  right-hand side and the request seed);
- ideal hardware computes the exact Schur-complement solution in float64,
  so its answer must meet the same ``c · n · eps · κ₁(A)`` form.

Analog answers have no such bound: under 5% programming variation a
system with ``κ ≈ 300`` can be perturbed into one far from it, or into
an INV circuit with no stable equilibrium, so a few answers per thousand
come out worse than ``x = 0`` (Eq. 6 error above :data:`SANE_ERROR`), on
some seeds and not others. They are counted and printed beside the
result, not failed, so the failed share stays the same for every seed.

An answer is checked when its request is first seen, against the
benchmark's own solutions of the generated system (:func:`own_solutions`,
computed as the inputs are generated, outside the program's calls).
Only a fixed-size record of it is kept (a hash of its bits, the reported
error, the verdict, the Eq. 6 error and a count), and a recurrence is
compared with that hash on the spot, so the benchmark's own memory does
not grow with the vectors the program returns.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: LU forward-error factor for two independent float64 direct solves.
REFERENCE_FACTOR = 8.0
#: Summation-order factor for recomputing Eq. 6.
SUMMATION_FACTOR = 4.0
#: Forward-error factor for ideal-hardware BlockAMC (a few chained
#: block solves and products, each backward stable).
IDEAL_FACTOR = 64.0
#: Eq. 6 error of ``x = 0``; analog answers above it are counted for the reader.
SANE_ERROR = 1.0


def eq6(x: np.ndarray, x_ref: np.ndarray) -> float:
    """Paper Eq. 6: ``sum|x - x_ref| / sum|x_ref|``."""
    return float(np.sum(np.abs(np.asarray(x) - x_ref)) / np.sum(np.abs(x_ref)))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``; NaN if there are none."""
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else math.nan


def own_solutions(matrix: np.ndarray, rhs) -> list[tuple[np.ndarray, float]]:
    """The benchmark's own problem of each right-hand side in ``rhs``.

    Each is ``(x_ref, scale)``: the float64 solve of ``matrix @ x = b``
    and the forward-error scale ``n · eps · κ₁(matrix)`` of the checks.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    scale = matrix.shape[0] * EPS * float(np.linalg.cond(matrix, 1))
    solutions = np.linalg.solve(matrix, np.column_stack(rhs))
    return [(solutions[:, j].copy(), scale) for j in range(solutions.shape[1])]


def _digest(x: np.ndarray, reference: np.ndarray) -> bytes:
    h = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16)
    h.update(np.ascontiguousarray(reference).tobytes())
    return h.digest()


class _Answer:
    __slots__ = ("digest", "reported", "reason", "error", "count", "mismatches")

    def __init__(self, digest, reported, reason, error):
        self.digest = digest
        self.reported = reported
        self.reason = reason
        self.error = error
        self.count = 1
        self.mismatches = 0


class Ledger:
    """The answers of one run, keyed by request identity.

    ``key`` names a request's identity (system, right-hand side, and the
    seed where the hardware consumes it); ``problem`` is the benchmark's
    own ``(x_ref, scale)`` for it (:func:`own_solutions`). With
    ``accuracy_factor`` set, every answer must also meet the ideal
    forward-error bound ``accuracy_factor · scale``.
    """

    def __init__(self, accuracy_factor: float | None = None):
        self.accuracy_factor = accuracy_factor
        self.answers: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        #: Eq. 6 errors vs the benchmark's own solve, one per passing answer.
        self.errors: list[float] = []

    def record(self, key, problem, x, reference, reported) -> None:
        """Check one answer when its request is first seen; compare a recurrence's bits."""
        self.attempted += 1
        x, reference = np.asarray(x), np.asarray(reference)
        digest = _digest(x, reference)
        answer = self.answers.get(key)
        if answer is None:
            reason, error = self._check(problem, x, reference, reported)
            self.answers[key] = _Answer(digest, reported, reason, error)
            return
        answer.count += 1
        if digest != answer.digest or not reported == answer.reported:
            answer.mismatches += 1

    def _check(self, problem, x, reference, reported) -> tuple[str | None, float]:
        x_ref, scale = problem
        if x.shape != x_ref.shape or not np.all(np.isfinite(x)):
            return "x not finite or misshapen", math.nan
        if reference.shape != x_ref.shape or not (
            eq6(reference, x_ref) <= REFERENCE_FACTOR * scale
        ):
            return "reference differs from own float64 solve", math.nan
        recomputed = eq6(x, reference)
        if not abs(reported - recomputed) <= SUMMATION_FACTOR * x.size * EPS * recomputed:
            return "reported relative_error is not Eq. 6 of x", math.nan
        error = eq6(x, x_ref)
        if self.accuracy_factor is not None and not error <= self.accuracy_factor * scale:
            return "ideal-hardware answer outside forward-error bound", math.nan
        return None, error

    def verify(self) -> None:
        """Count the failed answers and collect the errors of the passing ones."""
        for answer in self.answers.values():
            if answer.reason is not None:
                self.failed += answer.count
                self.reasons[answer.reason] += answer.count
                continue
            if answer.mismatches:
                self.failed += answer.mismatches
                self.reasons["recurring request returned different bits"] += (
                    answer.mismatches
                )
            self.errors.extend([answer.error] * (answer.count - answer.mismatches))


def check_campaign_round(arrays_by_key: dict, unit_keys, shape) -> tuple[int, Counter]:
    """Failed solves of one campaign round's store.

    ``arrays_by_key`` maps committed unit keys to their arrays; every
    expected unit must be there with a finite ``relative_error`` array of
    ``shape`` (solvers x trials). A missing or malformed unit fails all
    of its solves; a non-finite error fails that solve.
    """
    solves = int(np.prod(shape))
    failed = 0
    reasons: Counter = Counter()
    for key in unit_keys:
        arrays = arrays_by_key.get(key)
        errors = None if arrays is None else arrays.get("relative_error")
        if errors is None or np.shape(errors) != tuple(shape):
            failed += solves
            reasons["campaign unit missing or malformed"] += solves
            continue
        bad = int(np.count_nonzero(~np.isfinite(errors)))
        if bad:
            failed += bad
            reasons["campaign error not finite"] += bad
    return failed, reasons


def fig9_order_holds(one_stage_errors, original_errors) -> bool:
    """Paper Figs. 7/9: one-stage BlockAMC beats original AMC in median error."""
    if not one_stage_errors or not original_errors:
        return False
    return float(np.median(one_stage_errors)) < float(np.median(original_errors))

