"""Tests for the monolithic original-AMC baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amc.config import HardwareConfig
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.errors import SolverError, ValidationError
from repro.workloads.matrices import (
    diagonally_dominant_matrix,
    random_vector,
    wishart_matrix,
)


class TestIdealExactness:
    def test_matches_numpy_solve(self):
        matrix = wishart_matrix(8, rng=0)
        b = random_vector(8, rng=1)
        result = OriginalAMCSolver(HardwareConfig.ideal()).solve(matrix, b, rng=2)
        np.testing.assert_allclose(result.x, result.reference, rtol=1e-9, atol=1e-11)

    @given(n=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        matrix = diagonally_dominant_matrix(n, rng)
        b = random_vector(n, rng)
        result = OriginalAMCSolver(HardwareConfig.ideal()).solve(matrix, b, rng=seed)
        np.testing.assert_allclose(result.x, result.reference, rtol=1e-7, atol=1e-9)


class TestTelemetry:
    def test_single_inv_operation(self):
        matrix = wishart_matrix(6, rng=3)
        result = OriginalAMCSolver(HardwareConfig.ideal()).solve(
            matrix, random_vector(6, rng=4), rng=5
        )
        assert result.operation_counts == {"inv": 1}
        assert result.operations[0].rows == 6
        assert result.operations[0].label == "INV(A)"

    def test_full_size_periphery(self):
        """The baseline needs n of every periphery component — the cost
        the macro halves."""
        matrix = wishart_matrix(6, rng=6)
        result = OriginalAMCSolver(HardwareConfig.ideal()).solve(
            matrix, random_vector(6, rng=7), rng=8
        )
        assert result.metadata["opa_count"] == 6
        assert result.metadata["dac_count"] == 6
        assert result.metadata["adc_count"] == 6
        assert result.metadata["device_count"] == 72  # 2 * 36

    def test_solver_name(self):
        matrix = wishart_matrix(4, rng=9)
        result = OriginalAMCSolver(HardwareConfig.ideal()).solve(
            matrix, random_vector(4, rng=10), rng=11
        )
        assert result.solver == "original-amc"


class TestPrepared:
    def test_reuse(self):
        matrix = wishart_matrix(6, rng=12)
        prepared = OriginalAMCSolver(HardwareConfig.paper_variation()).prepare(
            matrix, rng=13
        )
        r1 = prepared.solve(random_vector(6, rng=14))
        r2 = prepared.solve(random_vector(6, rng=15))
        assert r1.relative_error < 1.0
        assert not np.allclose(r1.x, r2.x)

    def test_variation_held_fixed_across_solves(self):
        """Programming noise is drawn at prepare time, not per solve."""
        matrix = wishart_matrix(6, rng=16)
        prepared = OriginalAMCSolver(HardwareConfig.paper_variation()).prepare(
            matrix, rng=17
        )
        b = random_vector(6, rng=18)
        r1 = prepared.solve(b, rng=19)
        r2 = prepared.solve(b, rng=19)
        np.testing.assert_array_equal(r1.x, r2.x)


class TestSingularArrays:
    """A singular programmed array fails at ``prepare``, where its INV
    system is factored once, not at the first solve."""

    def test_original_amc(self):
        with pytest.raises(SolverError, match="singular"):
            OriginalAMCSolver(HardwareConfig.ideal()).prepare(np.ones((4, 4)), rng=0)

    def test_one_stage_schur_block(self):
        # A1 = I is fine; the Schur complement [[1, 1], [1, 1]] is not.
        matrix = np.eye(4)
        matrix[2:, 2:] = 1.0
        with pytest.raises(SolverError, match="singular"):
            BlockAMCSolver(HardwareConfig.ideal()).prepare(matrix, rng=0)


@pytest.mark.parametrize("solver_type", [OriginalAMCSolver, BlockAMCSolver, MultiStageSolver])
def test_input_fraction_outside_unit_interval_rejected(solver_type):
    matrix = wishart_matrix(8, rng=1)
    solver = solver_type(HardwareConfig.ideal(), input_fraction=1.5)
    with pytest.raises(ValidationError, match="fraction"):
        solver.solve(matrix, np.ones(8), rng=0)
