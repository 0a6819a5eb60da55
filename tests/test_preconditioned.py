"""Tests for flexible GMRES with (noisy) analog preconditioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amc.config import HardwareConfig
from repro.core.blockamc import BlockAMCSolver
from repro.core.digital import gmres
from repro.core.preconditioned import amc_preconditioner, fgmres
from repro.errors import SolverError
from repro.workloads.matrices import random_vector, toeplitz_matrix, wishart_matrix


@pytest.fixture
def system():
    rng = np.random.default_rng(0)
    a = wishart_matrix(24, rng)
    b = random_vector(24, rng)
    return a, b


class TestFGMRES:
    def test_exact_preconditioner_converges_immediately(self, system):
        a, b = system
        result = fgmres(a, b, lambda r: np.linalg.solve(a, r), tol=1e-10)
        assert result.converged
        assert result.iterations <= 2
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-8)

    def test_identity_preconditioner_reduces_to_gmres(self, system):
        a, b = system
        flexible = fgmres(a, b, lambda r: r, tol=1e-10)
        plain = gmres(a, b, tol=1e-10)
        assert flexible.converged and plain.converged
        np.testing.assert_allclose(flexible.x, plain.x, rtol=1e-6)

    def test_noisy_preconditioner_still_converges(self, system):
        """The flexible formulation absorbs a preconditioner that is
        different on every application — plain PCG/PGMRES would not."""
        a, b = system
        rng = np.random.default_rng(1)

        def noisy(r):
            z = np.linalg.solve(a, r)
            return z * (1.0 + rng.normal(0.0, 0.05, size=z.shape))

        result = fgmres(a, b, noisy, tol=1e-10)
        assert result.converged
        assert result.iterations < 24  # far fewer than unpreconditioned
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-7)

    def test_noisy_preconditioner_beats_no_preconditioner(self, system):
        a, b = system
        rng = np.random.default_rng(2)

        def noisy(r):
            z = np.linalg.solve(a, r)
            return z * (1.0 + rng.normal(0.0, 0.05, size=z.shape))

        plain = gmres(a, b, tol=1e-10)
        flexible = fgmres(a, b, noisy, tol=1e-10)
        assert flexible.iterations < plain.iterations

    def test_restart_path(self, system):
        a, b = system
        rng = np.random.default_rng(3)

        def weak(r):
            z = np.linalg.solve(a, r)
            return z * (1.0 + rng.normal(0.0, 0.4, size=z.shape))

        result = fgmres(a, b, weak, tol=1e-10, restart=4)
        assert result.converged

    def test_budget_exhaustion_reported(self, system):
        a, b = system
        result = fgmres(a, b, lambda r: np.zeros_like(r), tol=1e-12, max_iter=6)
        assert not result.converged
        assert result.iterations == 6

    def test_zero_b_rejected(self):
        with pytest.raises(SolverError):
            fgmres(np.eye(3), np.zeros(3), lambda r: r)

    def test_bad_restart_rejected(self, system):
        a, b = system
        with pytest.raises(SolverError):
            fgmres(a, b, lambda r: r, restart=0)

    def test_warm_start(self, system):
        a, b = system
        x = np.linalg.solve(a, b)
        result = fgmres(a, b, lambda r: r, x0=x, tol=1e-9)
        assert result.converged
        assert result.iterations == 0

    @pytest.mark.parametrize(
        "output",
        [
            pytest.param(lambda r: r[:3], id="short"),
            pytest.param(lambda r: r[:1], id="length-one"),
            pytest.param(lambda r: 1.0, id="scalar"),
            pytest.param(lambda r: r[:, None], id="column"),
        ],
    )
    def test_misshapen_preconditioner_output_rejected(self, system, output):
        """Only one ``(n,)`` vector per call is accepted; a scalar or a
        length-1 output would otherwise broadcast into the column."""
        a, b = system
        with pytest.raises(SolverError, match=r"preconditioner must return shape \(24,\)"):
            fgmres(a, b, output, tol=1e-10)


class TestAMCPreconditioner:
    def test_end_to_end_with_analog_hardware(self):
        """The deployment the paper argues for: a 5%-accurate analog
        preconditioner drives FGMRES to 1e-10 in a handful of steps."""
        rng = np.random.default_rng(4)
        a = toeplitz_matrix(32, rng)
        b = random_vector(32, rng)
        prepared = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(a, rng=5)
        preconditioner = amc_preconditioner(prepared, rng=6)
        result = fgmres(a, b, preconditioner, tol=1e-10)
        plain = gmres(a, b, tol=1e-10)
        assert result.converged
        assert result.iterations < plain.iterations
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-6)

    def test_accepts_generator(self, system):
        a, b = system
        prepared = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(a, rng=7)
        preconditioner = amc_preconditioner(prepared, rng=np.random.default_rng(8))
        z = preconditioner(b)
        assert z.shape == b.shape

    @given(n=st.integers(6, 14), seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_seeded_noise_reproduces_bit_for_bit(self, n, seed):
        """The same prepared solver and noise seed give the same solve,
        whether the seed arrives as an int or as a Generator."""
        rng = np.random.default_rng(seed)
        a = wishart_matrix(n, rng)
        b = random_vector(n, rng)
        prepared = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(a, rng=5)
        runs = [
            fgmres(a, b, amc_preconditioner(prepared, rng=noise), tol=1e-11, restart=6)
            for noise in (0, 0, np.random.default_rng(0))
        ]
        for again in runs[1:]:
            assert np.array_equal(again.x, runs[0].x)
            assert again.iterations == runs[0].iterations
            assert again.residuals == runs[0].residuals
        assert runs[0].converged


class TestFgmresHappyBreakdown:
    """Regression: a breakdown column must end its cycle (like gmres).

    A degenerate preconditioner that collapses every residual onto one
    direction exhausts the preconditioned Krylov space after two steps.
    Before the fix the loop kept iterating with a zero basis vector —
    and the *next* preconditioner application received that all-zero
    vector, which an analog preconditioner (``prepared.solve``
    validates its input) rejects outright, crashing the solve.
    """

    def _degenerate(self, n):
        direction = np.ones(n)

        def precondition(r):
            r = np.asarray(r, dtype=float)
            if not np.any(r):
                raise AssertionError(
                    "preconditioner received an all-zero vector "
                    "(zero Krylov column leaked past the breakdown)"
                )
            return direction.copy()

        return precondition

    def test_scalar_breakdown_terminates_cycle(self):
        rng = np.random.default_rng(1)
        a = wishart_matrix(8, rng)
        b = random_vector(8, rng)
        result = fgmres(a, b, self._degenerate(8), tol=0.0, max_iter=12)
        assert not result.converged
        assert result.iterations == 12  # budget honoured, no crash

    @pytest.mark.parametrize("column", [0, 1])
    def test_analog_preconditioner_survives_breakdown(self, column):
        """The original crash vector: an analog preconditioner rejects
        all-zero inputs; post-fix the zero column never reaches it."""
        rng = np.random.default_rng(3)
        a = wishart_matrix(8, rng)
        bs = [random_vector(8, rng) for _ in range(2)]
        prepared = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(a, rng=5)
        result = fgmres(
            a, bs[column], amc_preconditioner(prepared, rng=0), tol=0.0, max_iter=10
        )
        assert result.iterations == 10
        assert result.final_residual < 1e-9  # solution exact to rounding
