"""Digital reference solvers.

The paper positions AMC as "a seed solution (or equivalently as a
preconditioner) for digital computers, to speed up the convergence of
iterative algorithms" (Sec. IV). These are the digital algorithms that
consume such seeds: a direct LU solver (the accuracy reference used by
every experiment) and the classic stationary/Krylov iterative methods,
all accepting a warm-start ``x0``.

All iterative routines are implemented directly (no scipy black boxes) so
iteration counts are well-defined and comparable across methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import get_backend
from repro.core.solution import SolveResult
from repro.errors import ConvergenceError, SolverError
from repro.utils.validation import check_square_matrix, check_vector

DEFAULT_TOL = 1e-10

#: Arnoldi happy-breakdown threshold: a new Krylov vector with norm at or
#: below this is treated as zero — the Krylov space is exhausted and the
#: current least-squares solution is exact (up to rounding), so the cycle
#: terminates instead of iterating on a zero basis vector.
BREAKDOWN_TOL = 1e-14


@dataclass(frozen=True)
class IterativeResult:
    """Outcome of an iterative solve.

    ``iterations`` counts matrix-vector products with ``A`` (the standard
    cost unit); ``residuals`` holds the relative residual after each
    iteration, starting with the initial guess's residual.
    """

    x: np.ndarray
    iterations: int
    residuals: tuple[float, ...]
    converged: bool
    method: str

    @property
    def final_residual(self) -> float:
        """Relative residual of the returned solution."""
        return self.residuals[-1]


class DigitalDirectSolver:
    """LU-based exact solver with the common :class:`SolveResult` shape."""

    name = "digital-lu"

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` with ``numpy.linalg.solve``."""
        matrix = check_square_matrix(matrix)
        b = check_vector(b, "b", size=matrix.shape[0])
        try:
            x = np.linalg.solve(matrix, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"matrix is singular: {exc}") from exc
        return SolveResult(x=x, reference=x.copy(), solver=self.name)


def _setup(matrix, b, x0, backend=None):
    matrix = check_square_matrix(matrix)
    b = check_vector(b, "b", size=matrix.shape[0])
    if x0 is None:
        x = np.zeros_like(b)
    else:
        x = check_vector(x0, "x0", size=b.size).copy()
    if backend is not None:
        # Opt-in precision tier: iterate at the backend dtype. The
        # default (backend=None) path is untouched — no cast, float64.
        bk = get_backend(backend)
        matrix, b, x = bk.cast(matrix), bk.cast(b), bk.cast(x)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise SolverError("b must be non-zero")
    return matrix, b, x, b_norm


def jacobi(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=10_000, backend=None) -> IterativeResult:
    """Jacobi iteration ``x <- D^-1 (b - (A - D) x)``.

    Converges for strictly diagonally dominant matrices; may diverge
    otherwise (reported via ``converged=False`` once the budget runs out,
    or :class:`ConvergenceError` on numerical blow-up).
    """
    matrix, b, x, b_norm = _setup(matrix, b, x0, backend)
    diag = np.diag(matrix)
    if np.any(diag == 0.0):
        raise SolverError("Jacobi requires a zero-free diagonal")
    off = matrix - np.diag(diag)
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "jacobi")
    for iteration in range(1, max_iter + 1):
        x = (b - off @ x) / diag
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Jacobi diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "jacobi")
    return IterativeResult(x, max_iter, tuple(residuals), False, "jacobi")


def gauss_seidel(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=10_000, backend=None) -> IterativeResult:
    """Gauss-Seidel iteration (forward sweep)."""
    matrix, b, x, b_norm = _setup(matrix, b, x0, backend)
    n = b.size
    diag = np.diag(matrix)
    if np.any(diag == 0.0):
        raise SolverError("Gauss-Seidel requires a zero-free diagonal")
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "gauss-seidel")
    for iteration in range(1, max_iter + 1):
        for i in range(n):
            sigma = matrix[i, :] @ x - matrix[i, i] * x[i]
            x[i] = (b[i] - sigma) / matrix[i, i]
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Gauss-Seidel diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "gauss-seidel")
    return IterativeResult(x, max_iter, tuple(residuals), False, "gauss-seidel")


def richardson(matrix, b, x0=None, omega=None, tol=DEFAULT_TOL, max_iter=10_000, backend=None) -> IterativeResult:
    """Richardson iteration ``x <- x + omega (b - A x)``.

    ``omega=None`` picks the optimal step ``2 / (lambda_min + lambda_max)``
    for symmetric positive definite matrices.
    """
    matrix, b, x, b_norm = _setup(matrix, b, x0, backend)
    if omega is None:
        eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
        lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
        if lo <= 0.0:
            raise SolverError("automatic omega requires a positive definite symmetric part")
        omega = 2.0 / (lo + hi)
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "richardson")
    for iteration in range(1, max_iter + 1):
        r = b - matrix @ x
        x = x + omega * r
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Richardson diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "richardson")
    return IterativeResult(x, max_iter, tuple(residuals), False, "richardson")


def conjugate_gradient(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=None, backend=None) -> IterativeResult:
    """Conjugate gradients for symmetric positive definite systems."""
    matrix, b, x, b_norm = _setup(matrix, b, x0, backend)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    r = b - matrix @ x
    p = r.copy()
    rs = float(r @ r)
    residuals = [float(np.sqrt(rs)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "cg")
    for iteration in range(1, max_iter + 1):
        ap = matrix @ p
        denom = float(p @ ap)
        if denom <= 0.0:
            raise ConvergenceError("CG breakdown: matrix is not positive definite")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        res = float(np.sqrt(rs_new)) / b_norm
        residuals.append(res)
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "cg")
        p = r + (rs_new / rs) * p
        rs = rs_new
    return IterativeResult(x, max_iter, tuple(residuals), False, "cg")


def gmres(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=None, restart=None, backend=None) -> IterativeResult:
    """GMRES with optional restarts (plain Arnoldi + Givens rotations)."""
    matrix, b, x, b_norm = _setup(matrix, b, x0, backend)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if restart is None:
        restart = min(n, 50)

    total_iters = 0
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "gmres")

    while total_iters < max_iter:
        r = b - matrix @ x
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= tol:
            return IterativeResult(x, total_iters, tuple(residuals), True, "gmres")
        m = min(restart, max_iter - total_iters)
        q = np.zeros((n, m + 1))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        q[:, 0] = r / beta

        k_done = 0
        for k in range(m):
            w = matrix @ q[:, k]
            total_iters += 1
            for i in range(k + 1):
                h[i, k] = float(q[:, i] @ w)
                w = w - h[i, k] * q[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            # Happy breakdown: the Krylov space is exhausted, so the
            # least-squares solution over the current basis is already
            # exact (up to rounding). The cycle must terminate here —
            # iterating on would orthogonalize against a zero basis
            # vector, stalling the residual and eventually handing the
            # triangular solve a singular (zero) column.
            breakdown = h[k + 1, k] <= BREAKDOWN_TOL
            if not breakdown:
                q[:, k + 1] = w / h[k + 1, k]
            # Apply previous Givens rotations to the new column.
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

        y = np.linalg.solve(h[:k_done, :k_done], g[:k_done])
        x = x + q[:, :k_done] @ y
        true_res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals[-1] = true_res
        if true_res <= tol:
            return IterativeResult(x, total_iters, tuple(residuals), True, "gmres")

    return IterativeResult(x, total_iters, tuple(residuals), False, "gmres")
