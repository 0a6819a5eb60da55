"""Flexible GMRES with an analog (AMC) preconditioner.

The paper frames AMC as "equivalently a preconditioner" for digital
iterative methods. A noisy, run-to-run-varying preconditioner breaks
standard preconditioned Krylov methods (they assume a *fixed* linear
operator), but **flexible GMRES** (Saad 1993 — the paper's own ref. [1]
author) tolerates a preconditioner that changes every application,
which is exactly what analog hardware with per-solve noise is.

``fgmres`` applies the user-supplied ``preconditioner(r) -> z`` (e.g. a
prepared BlockAMC solver) inside the Arnoldi loop, storing the
preconditioned vectors so the final update is exact regardless of the
preconditioner's variability.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import get_backend
from repro.core.digital import BREAKDOWN_TOL, DEFAULT_TOL, IterativeResult
from repro.errors import SolverError
from repro.utils.validation import check_square_matrix, check_vector


def fgmres(
    matrix: np.ndarray,
    b: np.ndarray,
    preconditioner,
    x0: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    restart: int = 30,
    backend=None,
) -> IterativeResult:
    """Flexible GMRES: right preconditioning with a varying operator.

    Parameters
    ----------
    matrix, b:
        The system ``A x = b``.
    preconditioner:
        Callable ``z = M(r)`` approximating ``A^-1 r``; may be noisy and
        different on every call (an analog solver qualifies). ``z`` must
        have ``r``'s shape ``(n,)``; any other raises :class:`SolverError`.
    x0:
        Optional warm start.
    tol:
        Relative-residual target.
    max_iter:
        Total matrix-vector product budget (default ``10 n``).
    restart:
        Krylov subspace dimension between restarts.
    backend:
        Optional precision tier (a :mod:`repro.core.backend` name):
        ``matrix``/``b``/``x0`` are cast to the backend dtype on entry.
        ``None`` (default) leaves the float64 path untouched.

    Returns
    -------
    IterativeResult
        With ``method="fgmres"``; ``iterations`` counts products with
        ``A`` (each also costs one preconditioner application).
    """
    matrix = check_square_matrix(matrix)
    b = check_vector(b, "b", size=matrix.shape[0])
    if backend is not None:
        bk = get_backend(backend)
        matrix, b = bk.cast(matrix), bk.cast(b)
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise SolverError("b must be non-zero")
    if restart < 1:
        raise SolverError(f"restart must be >= 1, got {restart}")
    if max_iter is None:
        max_iter = 10 * n

    x = np.zeros_like(b) if x0 is None else check_vector(x0, "x0", size=n).copy()
    if backend is not None:
        x = get_backend(backend).cast(x)
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "fgmres")

    total = 0
    while total < max_iter:
        r = b - matrix @ x
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= tol:
            return IterativeResult(x, total, tuple(residuals), True, "fgmres")
        m = min(restart, max_iter - total)
        q = np.zeros((n, m + 1))
        z = np.zeros((n, m))  # preconditioned vectors (flexible part)
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        q[:, 0] = r / beta

        k_done = 0
        for k in range(m):
            z_k = np.asarray(preconditioner(q[:, k]), dtype=float)
            # A scalar or length-1 output would broadcast into the
            # column silently; anything but one vector per call is misuse.
            if z_k.shape != (n,):
                raise SolverError(
                    f"preconditioner must return shape ({n},), got {z_k.shape}"
                )
            z[:, k] = z_k
            w = matrix @ z[:, k]
            total += 1
            for i in range(k + 1):
                h[i, k] = float(q[:, i] @ w)
                w = w - h[i, k] * q[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            # Happy breakdown: the (preconditioned) Krylov space is
            # exhausted — terminate the cycle instead of iterating on a
            # zero basis vector (which would also hand the *next*
            # preconditioner application an all-zero input; an analog
            # preconditioner rejects that outright). Same rule as
            # :func:`repro.core.digital.gmres`.
            breakdown = h[k + 1, k] <= BREAKDOWN_TOL
            if not breakdown:
                q[:, k + 1] = w / h[k + 1, k]
            for i in range(k):
                temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                h[i, k] = temp
            denom = float(np.hypot(h[k, k], h[k + 1, k]))
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k], sn[k] = h[k, k] / denom, h[k + 1, k] / denom
            h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            residuals.append(abs(float(g[k + 1])) / b_norm)
            if residuals[-1] <= tol or breakdown:
                break

        # Least-squares guards against a breakdown column (e.g. a
        # degenerate preconditioner returning zero vectors).
        y, *_ = np.linalg.lstsq(h[:k_done, :k_done], g[:k_done], rcond=None)
        # Flexible update: combine the *preconditioned* basis vectors.
        x = x + z[:, :k_done] @ y
        true_res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals[-1] = true_res
        if true_res <= tol:
            return IterativeResult(x, total, tuple(residuals), True, "fgmres")

    return IterativeResult(x, total, tuple(residuals), False, "fgmres")


def amc_preconditioner(prepared, rng=None):
    """Wrap a prepared analog solver as an FGMRES preconditioner.

    Parameters
    ----------
    prepared:
        Object with ``solve(rhs, rng) -> SolveResult`` bound to the
        system matrix (``BlockAMCSolver.prepare(...)`` output).
    rng:
        Generator driving the per-application hardware noise.

    Returns
    -------
    callable
        ``z = M(r)`` suitable for :func:`fgmres`.
    """
    generator = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    def apply(r: np.ndarray) -> np.ndarray:
        return prepared.solve(r, rng=generator).x

    return apply
