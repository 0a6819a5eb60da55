"""Solver result containers shared by all solvers.

:class:`SolveResult` is the full-telemetry container (per-operation
:class:`~repro.amc.ops.OpResult` tuples, step-output metadata).
:class:`LeanSolveResult` is the serving-mode container: the same
solution payload (``x``/``reference`` are bitwise identical to the full
result's) with per-step telemetry reduced to the scalars the serving
and campaign layers actually consume — constructing the five OpResults
and their step-output dicts dominates service-side time at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amc.ops import OpResult
from repro.analysis.metrics import paper_relative_error


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solving ``A x = b`` with one of the solvers.

    Attributes
    ----------
    x:
        The solver's solution.
    reference:
        Exact digital solution of ``A x = b``. The analog solvers take
        it from one ``getrf`` of ``A``, made once per prepared solver
        and kept, and one ``getrs`` per right-hand side
        (:class:`~repro.core.common.FactoredSystem`).
    solver:
        Human-readable solver name.
    operations:
        Telemetry of every analog operation executed (empty for digital
        solvers).
    metadata:
        Solver-specific extras (scales, per-step references, resource
        counts, conversion counts, ...).
    """

    x: np.ndarray
    reference: np.ndarray
    solver: str
    operations: tuple[OpResult, ...] = ()
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Dimension of the solved system."""
        return self.x.size

    @property
    def relative_error(self) -> float:
        """The paper's Eq. 6 relative error vs. the digital reference."""
        return paper_relative_error(self.reference, self.x)

    @property
    def analog_time_s(self) -> float:
        """Sum of analog settling times over all operations."""
        return float(sum(op.settling_time_s for op in self.operations))

    @property
    def operation_counts(self) -> dict[str, int]:
        """Number of analog ops by kind (``{"inv": ..., "mvm": ...}``)."""
        counts: dict[str, int] = {}
        for op in self.operations:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    @property
    def saturated(self) -> bool:
        """True when any analog op clipped at the op-amp rails."""
        return any(op.saturated for op in self.operations)


@dataclass(frozen=True)
class LeanSolveResult:
    """Serving-mode outcome of one solve: payload without step telemetry.

    Carries exactly what :class:`repro.serve` responses and campaign
    records read from a result — the solution, the digital reference,
    and the scalar telemetry aggregates — while skipping the per-step
    :class:`~repro.amc.ops.OpResult` construction. ``x``, ``reference``,
    ``relative_error``, ``saturated``, and ``analog_time_s`` are
    bit-identical to the corresponding full :class:`SolveResult` fields
    for the same solve.
    """

    x: np.ndarray
    reference: np.ndarray
    solver: str
    saturated: bool = False
    analog_time_s: float = 0.0
    metadata: dict = field(default_factory=dict)
    #: Lean results carry no per-operation telemetry by design.
    operations: tuple = ()

    @property
    def size(self) -> int:
        """Dimension of the solved system."""
        return self.x.size

    @property
    def relative_error(self) -> float:
        """The paper's Eq. 6 relative error vs. the digital reference."""
        return paper_relative_error(self.reference, self.x)
