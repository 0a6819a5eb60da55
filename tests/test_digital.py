"""Tests for the digital reference solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digital import (
    DigitalDirectSolver,
    conjugate_gradient,
    gauss_seidel,
    gmres,
    jacobi,
    richardson,
)
from repro.core.preconditioned import fgmres
from repro.errors import ConvergenceError, SolverError, ValidationError
from repro.workloads.matrices import (
    diagonally_dominant_matrix,
    random_vector,
    wishart_matrix,
)


@pytest.fixture
def spd_system():
    rng = np.random.default_rng(0)
    a = wishart_matrix(12, rng)
    b = random_vector(12, rng)
    return a, b, np.linalg.solve(a, b)


@pytest.fixture
def dominant_system():
    rng = np.random.default_rng(1)
    a = diagonally_dominant_matrix(10, rng, margin=1.5)
    b = random_vector(10, rng)
    return a, b, np.linalg.solve(a, b)


class TestDirect:
    def test_exact(self, spd_system):
        a, b, x = spd_system
        result = DigitalDirectSolver().solve(a, b)
        np.testing.assert_allclose(result.x, x)
        assert result.relative_error == 0.0

    def test_singular_raises(self):
        with pytest.raises(SolverError):
            DigitalDirectSolver().solve(np.ones((3, 3)), np.ones(3))


class TestStationaryMethods:
    def test_jacobi_converges_on_dominant(self, dominant_system):
        a, b, x = dominant_system
        result = jacobi(a, b, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x, rtol=1e-8)

    def test_gauss_seidel_converges_on_dominant(self, dominant_system):
        a, b, x = dominant_system
        result = gauss_seidel(a, b, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x, rtol=1e-8)

    def test_gauss_seidel_fewer_iterations_than_jacobi(self, dominant_system):
        a, b, _ = dominant_system
        assert gauss_seidel(a, b).iterations <= jacobi(a, b).iterations

    def test_richardson_on_spd(self, spd_system):
        a, b, x = spd_system
        result = richardson(a, b, tol=1e-10, max_iter=100_000)
        assert result.converged
        np.testing.assert_allclose(result.x, x, rtol=1e-6)

    def test_richardson_rejects_indefinite_auto_omega(self):
        with pytest.raises(SolverError):
            richardson(np.diag([1.0, -1.0]), np.ones(2))

    def test_jacobi_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError):
            jacobi(a, np.ones(2))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_jacobi_divergence_reported(self):
        # Strongly non-dominant: Jacobi blows up -> ConvergenceError on
        # non-finite, or converged=False within budget. (The overflow on
        # the way to inf is the expected mechanism, hence the filter.)
        a = np.array([[1.0, 10.0], [10.0, 1.0]])
        try:
            result = jacobi(a, np.ones(2), max_iter=500)
            assert not result.converged
        except ConvergenceError:
            pass

    def test_residual_history_monotone_for_dominant_jacobi(self, dominant_system):
        a, b, _ = dominant_system
        result = jacobi(a, b, tol=1e-12)
        residuals = np.asarray(result.residuals)
        assert np.all(np.diff(residuals) <= 1e-12)


class TestKrylov:
    def test_cg_converges_fast_on_spd(self, spd_system):
        a, b, x = spd_system
        result = conjugate_gradient(a, b, tol=1e-12)
        assert result.converged
        assert result.iterations <= a.shape[0] + 2
        np.testing.assert_allclose(result.x, x, rtol=1e-8)

    def test_cg_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(ConvergenceError):
            conjugate_gradient(a, np.ones(2))

    def test_gmres_on_nonsymmetric(self, dominant_system):
        a, b, x = dominant_system
        a = a.copy()
        a[0, -1] += 0.5  # break symmetry
        result = gmres(a, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-6)

    def test_gmres_with_restart(self, dominant_system):
        a, b, _ = dominant_system
        result = gmres(a, b, tol=1e-10, restart=3)
        assert result.converged

    def test_warm_start_reduces_iterations(self):
        """The paper's motivation: a good seed accelerates convergence.

        Needs a system where CG converges before the exact-termination
        bound of n iterations, i.e. large and well conditioned.
        """
        rng = np.random.default_rng(10)
        a = wishart_matrix(64, rng, aspect=8.0)
        b = random_vector(64, rng)
        x = np.linalg.solve(a, b)
        cold = conjugate_gradient(a, b, tol=1e-10)
        warm = conjugate_gradient(a, b, x0=x * (1.0 + 1e-4), tol=1e-10)
        assert warm.iterations < cold.iterations


class TestGmresHappyBreakdown:
    """Regression: Arnoldi happy breakdown must terminate the cycle.

    Before the fix, ``h[k+1, k] <= 1e-14`` only skipped the basis-vector
    update: the loop kept orthogonalizing against a zero vector, the
    rotated-residual estimate cascaded to an exact 0.0 that defeated the
    tolerance check, and the triangular solve received a singular
    (zero-column) system — ``numpy.linalg.LinAlgError`` on any system
    whose Krylov space is exhausted before ``tol`` is reached.
    """

    def _low_degree_system(self, seed=0, n=12, distinct=(1.0, 3.0)):
        """SPD matrix with ``len(distinct)`` eigenvalues: the minimal
        polynomial degree — and the exact-termination iteration count —
        equals ``len(distinct)``."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        values = np.array(
            [distinct[i * len(distinct) // n] for i in range(n)]
        )
        return (q * values) @ q.T, random_vector(n, rng)

    def test_converges_at_minimal_polynomial_degree(self):
        a, b = self._low_degree_system(distinct=(1.0, 3.0))
        result = gmres(a, b, tol=1e-13)
        assert result.converged
        assert result.iterations <= 2  # minimal polynomial degree

    def test_three_eigenvalue_system(self):
        a, b = self._low_degree_system(distinct=(1.0, 2.0, 5.0))
        result = gmres(a, b, tol=1e-13)
        assert result.converged
        assert result.iterations <= 3

    def test_unreachable_tolerance_terminates_without_crash(self):
        """tol below rounding: every cycle hits the breakdown; the old
        code raised LinAlgError from a singular triangular solve."""
        a, b = self._low_degree_system()
        result = gmres(a, b, tol=0.0, max_iter=40)
        assert not result.converged
        assert result.iterations == 40  # budget honoured, no crash
        # The returned solution is still exact to rounding.
        assert result.final_residual < 1e-12

    def test_breakdown_solution_is_exact(self):
        a, b = self._low_degree_system(seed=3)
        result = gmres(a, b, tol=1e-13)
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-9)


class TestCommonGuards:
    def test_zero_b_rejected(self):
        with pytest.raises(SolverError):
            conjugate_gradient(np.eye(2), np.zeros(2))

    def test_final_residual_property(self, dominant_system):
        a, b, _ = dominant_system
        result = jacobi(a, b, tol=1e-10)
        assert result.final_residual == result.residuals[-1]
        assert result.final_residual <= 1e-10


# ----------------------------------------------------------------------
# the IterativeResult contract, over every iterative solver
# ----------------------------------------------------------------------


def _diagonal_fgmres(matrix, b, **kwargs):
    """FGMRES with a fixed diagonal (Jacobi) preconditioner."""
    diag = np.diag(np.asarray(matrix, dtype=float))
    return fgmres(matrix, b, lambda r: r / diag, **kwargs)


#: result ``method`` -> (solver, a matrix family it converges on, kwargs).
ITERATIVE = {
    "jacobi": (jacobi, diagonally_dominant_matrix, {"max_iter": 200}),
    "gauss-seidel": (gauss_seidel, diagonally_dominant_matrix, {"max_iter": 200}),
    "richardson": (richardson, wishart_matrix, {"max_iter": 400}),
    "cg": (conjugate_gradient, wishart_matrix, {"max_iter": 60}),
    "gmres": (gmres, diagonally_dominant_matrix, {"max_iter": 60, "restart": 5}),
    "fgmres": (_diagonal_fgmres, diagonally_dominant_matrix, {"max_iter": 60, "restart": 5}),
}


def _iterative_system(method, n, seed):
    solver, family, kwargs = ITERATIVE[method]
    rng = np.random.default_rng(seed)
    return solver, family(n, rng), random_vector(n, rng), rng, kwargs


class TestIterativeContract:
    """What every iterative solver promises through ``IterativeResult``.

    The budget is always explicit, so a run that misses ``tol`` (``0.0``
    is unreachable) must spend exactly that many products with ``A``.
    """

    @pytest.mark.parametrize("method", sorted(ITERATIVE))
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        tol=st.sampled_from([1e-6, 1e-10, 0.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_result_contract(self, method, n, seed, tol):
        solver, a, b, _, kwargs = _iterative_system(method, n, seed)
        result = solver(a, b, tol=tol, **kwargs)
        assert result.method == method
        assert result.x.shape == (n,) and result.x.dtype == np.float64
        # the initial guess's residual, then one per product with A
        assert len(result.residuals) == result.iterations + 1
        assert result.converged == (result.final_residual <= tol)
        if not result.converged:
            assert result.iterations == kwargs["max_iter"]
        true = np.linalg.norm(b - a @ result.x) / np.linalg.norm(b)
        assert abs(result.final_residual - true) <= 1e-12

    @pytest.mark.parametrize("method", sorted(ITERATIVE))
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        exponent=st.sampled_from([-30, 30]),
        warm=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_scale_free(self, method, n, seed, exponent, warm):
        """Scaling ``b`` (and ``x0``) by a power of two scales ``x`` by it
        exactly and leaves the iteration count and the relative-residual
        history untouched: the tolerance is relative, and no step of the
        iteration depends on the magnitude of ``b``."""
        solver, a, b, rng, kwargs = _iterative_system(method, n, seed)
        x0 = 0.1 * random_vector(n, rng) if warm else None
        scale = 2.0**exponent
        base = solver(a, b, x0=x0, **kwargs)
        scaled = solver(a, scale * b, x0=None if x0 is None else scale * x0, **kwargs)
        assert np.array_equal(scaled.x, scale * base.x)
        assert scaled.iterations == base.iterations
        assert scaled.residuals == base.residuals
        assert scaled.converged == base.converged

    @pytest.mark.parametrize("method", sorted(ITERATIVE))
    def test_exact_seed_converges_immediately(self, method):
        """A seed that already meets ``tol`` is returned after no product with ``A``."""
        solver, a, b, _, kwargs = _iterative_system(method, 8, seed=2)
        x0 = np.linalg.solve(a, b)
        result = solver(a, b, x0=x0, tol=1e-9, **kwargs)
        assert result.iterations == 0
        assert result.converged and len(result.residuals) == 1
        assert np.array_equal(result.x, x0) and not np.shares_memory(result.x, x0)

    @pytest.mark.parametrize("method", sorted(ITERATIVE))
    def test_inputs_not_mutated(self, method):
        solver, a, b, rng, kwargs = _iterative_system(method, 8, seed=4)
        x0 = 0.1 * random_vector(8, rng)
        inputs = (a, b, x0)
        copies = tuple(arr.copy() for arr in inputs)
        result = solver(a, b, x0=x0, **kwargs)
        for arr, copy in zip(inputs, copies):
            assert np.array_equal(arr, copy)
            assert not np.shares_memory(result.x, arr)

    @pytest.mark.parametrize("method", sorted(ITERATIVE))
    def test_malformed_input_rejected(self, method):
        solver, a, b, _, kwargs = _iterative_system(method, 4, seed=0)
        with pytest.raises(ValidationError):
            solver(a, np.ones(5), **kwargs)  # b of the wrong length
        with pytest.raises(ValidationError):
            solver(a, b, x0=np.ones(3), **kwargs)  # x0 of the wrong length
        with pytest.raises(ValidationError):
            solver(a[:, :3], b, **kwargs)  # not square
        with pytest.raises(ValidationError):
            solver(a, np.full(4, np.nan), **kwargs)  # not finite
        with pytest.raises(SolverError):
            solver(a, np.zeros(4), **kwargs)
