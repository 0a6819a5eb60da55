"""First-order settling-time models for the AMC circuits.

The paper states (Sec. II) that the MVM circuit's computing time is
"linearly dependent on the maximal sum of conductance along a row in the
array, also controlled by the feedback conductance and gain-bandwidth
product (GBWP) of TIAs" [22], and that the INV circuit's settling is
"related to the minimal eigenvalue of an associated matrix and the GBWP of
OPAs" [23]. We implement exactly those first-order models; they feed the
latency/energy accounting of the macro model and the cost benches.

Model sketch (single-pole op-amp with unity-gain bandwidth ``f_GBW``):

- MVM row ``i`` behaves as a first-order system with closed-loop time
  constant ``tau_i = (1 + (G0 + sum_j G_ij) / G0) / (2 pi f_GBW)``; the
  computation settles within ``ln(1/eps)`` time constants.
- INV settles with the slowest mode ``tau = (1 + 1/lambda_min) /
  (2 pi f_GBW)`` where ``lambda_min`` is the smallest eigenvalue real part
  of the normalized matrix; the circuit is stable only if every
  eigenvalue has positive real part.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.utils.validation import check_matrix, check_positive, check_square_matrix

#: Default settling accuracy target (fraction of final value).
DEFAULT_EPSILON = 1e-4


def mvm_settling_time(
    g: np.ndarray,
    g_feedback: float,
    gbwp_hz: float,
    epsilon: float = DEFAULT_EPSILON,
):
    """Settling time (seconds) of the MVM circuit.

    Parameters
    ----------
    g:
        Total conductance array loading the TIAs (siemens) — for a dual
        array pair pass ``g_pos + g_neg``. A ``(trials, rows, cols)``
        stack gives one time per trial (an array); a single array a float.
    g_feedback:
        TIA feedback conductance (``G0``).
    gbwp_hz:
        Op-amp gain-bandwidth product in hertz.
    epsilon:
        Settling target: output within ``epsilon`` of its final value.
    """
    g = check_matrix(g, "g") if np.ndim(g) == 2 else np.asarray(g, dtype=float)
    check_positive(g_feedback, "g_feedback")
    check_positive(gbwp_hz, "gbwp_hz")
    check_positive(epsilon, "epsilon")
    max_row_sum = np.max(g.sum(axis=-1), axis=-1)
    noise_gain = 1.0 + (g_feedback + max_row_sum) / g_feedback
    tau = noise_gain / (2.0 * np.pi * gbwp_hz)
    return _scalar_or_stack(np.log(1.0 / epsilon) * tau)


def inv_eigenvalue_margin(matrix: np.ndarray):
    """Smallest real part among the eigenvalues of the normalized matrix.

    Positive margin means the INV feedback loop has a stable equilibrium
    (all poles in the left half-plane for the single-pole op-amp model).
    A ``(trials, n, n)`` stack gives one margin per trial (an array, from
    one stacked ``eigvals`` call); a single matrix a float.
    """
    if np.ndim(matrix) == 2:
        matrix = check_square_matrix(matrix)
    eigenvalues = np.linalg.eigvals(matrix)
    return _scalar_or_stack(np.min(eigenvalues.real, axis=-1))


def is_inv_stable(matrix: np.ndarray, margin: float = 0.0) -> bool:
    """True when the INV circuit converges for this normalized matrix."""
    return inv_eigenvalue_margin(matrix) > margin


def inv_settling_time(
    matrix: np.ndarray,
    gbwp_hz: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    margin: float | None = None,
) -> float:
    """Settling time (seconds) of the INV circuit for a normalized matrix.

    Parameters
    ----------
    margin:
        Precomputed :func:`inv_eigenvalue_margin` of ``matrix``; pass it
        when the caller already ran the stability check so the (dominant)
        ``eigvals`` call is not repeated.

    Raises
    ------
    ConvergenceError
        If the circuit is unstable (an eigenvalue with non-positive real
        part), in which case the analog solver never settles.
    """
    check_positive(gbwp_hz, "gbwp_hz")
    check_positive(epsilon, "epsilon")
    if margin is None:
        margin = inv_eigenvalue_margin(matrix)
    if margin <= 0.0:
        raise ConvergenceError(
            f"INV circuit unstable: smallest eigenvalue real part {margin:.3g} <= 0"
        )
    return _inv_time(margin, gbwp_hz, epsilon)


def inv_settling_or_inf(
    matrix: np.ndarray, gbwp_hz: float, epsilon: float = DEFAULT_EPSILON
):
    """INV settling time as the simulated operations report it.

    Like :func:`inv_settling_time`, but an array with no stable
    equilibrium (margin ``<= 0``) reports ``inf`` instead of raising: the
    solvers still return the algebraic equilibrium and flag the time.
    A ``(trials, n, n)`` stack gives one time per trial.
    """
    check_positive(gbwp_hz, "gbwp_hz")
    check_positive(epsilon, "epsilon")
    return _inv_time(inv_eigenvalue_margin(matrix), gbwp_hz, epsilon)


def _inv_time(margin, gbwp_hz: float, epsilon: float):
    """``ln(1/eps) (1 + 1/margin) / (2 pi f_GBW)``; ``inf`` where margin <= 0."""
    margin = np.asarray(margin, dtype=float)
    with np.errstate(divide="ignore"):
        tau = (1.0 + 1.0 / margin) / (2.0 * np.pi * gbwp_hz)
    return _scalar_or_stack(np.where(margin <= 0.0, np.inf, np.log(1.0 / epsilon) * tau))


def _scalar_or_stack(values: np.ndarray):
    """A Python float for one array's result; the per-trial array for a stack."""
    return float(values) if np.ndim(values) == 0 else values
