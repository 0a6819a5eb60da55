"""Tests for the one-stage BlockAMC macro (five-step schedule, Fig. 4).

The schedule runs here through the scalar oracle's macro walk
(:func:`oracles.scalar.solve_macro`), so these tests hold the oracle
itself to exact algebra and to the paper's step signs.
"""

import numpy as np
import pytest

from oracles.scalar import solve_macro
from repro.amc.config import HardwareConfig
from repro.amc.macro import BlockAMCMacro, MacroArrays
from repro.core.partition import PartitionSpec, build_macro_arrays, prepare_blocks
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import normalize_matrix
from repro.errors import SolverError
from repro.workloads.matrices import diagonally_dominant_matrix, random_vector, wishart_matrix


def _macro(matrix, config=None, split=None, rng=0):
    normalized, scale = normalize_matrix(matrix)
    blocks = prepare_blocks(normalized, PartitionSpec(split))
    arrays = build_macro_arrays(blocks, config or HardwareConfig.ideal(), rng)
    return BlockAMCMacro(arrays, config or HardwareConfig.ideal()), normalized, blocks


class TestMacroArraysValidation:
    def test_a1_must_be_square(self):
        a = CrossbarArray.program(np.ones((2, 3)) * 0.1, rng=0, pre_normalized=True)
        sq = CrossbarArray.program(np.eye(3) * 0.5, rng=0, pre_normalized=True)
        with pytest.raises(SolverError):
            MacroArrays(a1=a, a2=a, a3=a, a4s=sq)

    def test_block_shape_consistency(self):
        a1 = CrossbarArray.program(np.eye(2) * 0.5, rng=0, pre_normalized=True)
        a4 = CrossbarArray.program(np.eye(3) * 0.5, rng=0, pre_normalized=True)
        a2_bad = CrossbarArray.program(np.ones((3, 3)) * 0.1, rng=0, pre_normalized=True)
        a3_good = CrossbarArray.program(np.ones((3, 2)) * 0.1, rng=0, pre_normalized=True)
        with pytest.raises(SolverError, match="A2"):
            MacroArrays(a1=a1, a2=a2_bad, a3=a3_good, a4s=a4)

    def test_invalid_schur_scale(self):
        a1 = CrossbarArray.program(np.eye(2) * 0.5, rng=0, pre_normalized=True)
        a2 = CrossbarArray.program(np.ones((2, 2)) * 0.1, rng=0, pre_normalized=True)
        with pytest.raises(SolverError, match="schur_input_scale"):
            MacroArrays(a1=a1, a2=a2, a3=a2, a4s=a1, schur_input_scale=0.0)

    def test_sizes(self):
        macro, _, _ = _macro(wishart_matrix(6, rng=0))
        assert macro.arrays.size == 6
        assert macro.arrays.upper_size == 3
        assert macro.arrays.lower_size == 3


class TestFiveStepAlgorithm:
    def test_solves_system_exactly_with_ideal_hardware(self):
        matrix = wishart_matrix(8, rng=1)
        macro, normalized, _ = _macro(matrix)
        b = random_vector(8, rng=2) * 0.4
        result = solve_macro(macro, b[:4], b[4:], rng=3)
        expected = np.linalg.solve(normalized, b)
        np.testing.assert_allclose(result.solution, expected, rtol=1e-9, atol=1e-11)

    def test_step_signs_follow_paper(self):
        """step1 = -y_t, step2 = +g_t, step3 = z, step4 = -f_t, step5 = -y."""
        matrix = diagonally_dominant_matrix(6, np.random.default_rng(4))
        macro, normalized, blocks = _macro(matrix)
        b = random_vector(6, rng=5) * 0.3
        f, g = b[:3], b[3:]
        result = solve_macro(macro, f, g, rng=6)

        y_t = np.linalg.solve(blocks.a1, f)
        g_t = blocks.a3 @ y_t
        z = np.linalg.solve(blocks.a4s, g - g_t)
        f_t = blocks.a2 @ z
        y = np.linalg.solve(blocks.a1, f - f_t)

        outputs = {s.label: s.output for s in result.steps}
        np.testing.assert_allclose(outputs["step1:INV(A1)"], -y_t, atol=1e-10)
        np.testing.assert_allclose(outputs["step2:MVM(A3)"], g_t, atol=1e-10)
        np.testing.assert_allclose(outputs["step3:INV(A4s)"], z, atol=1e-10)
        np.testing.assert_allclose(outputs["step4:MVM(A2)"], -f_t, atol=1e-10)
        np.testing.assert_allclose(outputs["step5:INV(A1)"], -y, atol=1e-10)

    def test_reference_steps_match_actual_for_ideal_hardware(self):
        matrix = wishart_matrix(6, rng=7)
        macro, _, _ = _macro(matrix)
        b = random_vector(6, rng=8) * 0.3
        result = solve_macro(macro, b[:3], b[3:], rng=9)
        for step, reference in result.reference_steps.items():
            actual = next(s.output for s in result.steps if s.label.startswith(step))
            np.testing.assert_allclose(actual, reference, atol=1e-9)

    def test_asymmetric_split(self):
        matrix = wishart_matrix(7, rng=10)
        macro, normalized, _ = _macro(matrix, split=2)
        b = random_vector(7, rng=11) * 0.3
        result = solve_macro(macro, b[:2], b[2:], rng=12)
        np.testing.assert_allclose(
            result.solution, np.linalg.solve(normalized, b), rtol=1e-8, atol=1e-10
        )

    def test_schur_scale_compensated(self):
        """A matrix whose Schur complement exceeds 1 must still solve."""
        matrix = np.array(
            [
                [0.2, 0.0, 0.9, 0.0],
                [0.0, 0.2, 0.0, 0.9],
                [-0.9, 0.0, 0.3, 0.0],
                [0.0, -0.9, 0.0, 0.3],
            ]
        )
        _, scale = normalize_matrix(matrix)
        blocks = prepare_blocks(matrix / scale, PartitionSpec())
        assert blocks.schur_scale > 1.0
        macro, normalized, _ = _macro(matrix)
        b = np.array([0.1, -0.2, 0.3, 0.15])
        result = solve_macro(macro, b[:2], b[2:], rng=0)
        np.testing.assert_allclose(
            result.solution, np.linalg.solve(normalized, b), rtol=1e-9, atol=1e-11
        )


class TestTelemetryAndResources:
    def test_five_steps_recorded(self):
        macro, _, _ = _macro(wishart_matrix(6, rng=13))
        result = solve_macro(macro, np.full(3, 0.2), np.full(3, 0.1), rng=14)
        assert len(result.steps) == 5
        kinds = [s.kind for s in result.steps]
        assert kinds == ["inv", "mvm", "inv", "mvm", "inv"]

    def test_opa_count_is_half_for_even_split(self):
        macro, _, _ = _macro(wishart_matrix(8, rng=15))
        assert macro.opa_count == 4
        assert macro.dac_count == 4
        assert macro.adc_count == 4

    def test_device_count(self):
        macro, _, _ = _macro(wishart_matrix(8, rng=16))
        # four 4x4 block pairs = 4 * 2 * 16 cells
        assert macro.device_count == 128

    def test_analog_time_positive(self):
        macro, _, _ = _macro(wishart_matrix(6, rng=17))
        result = solve_macro(macro, np.full(3, 0.2), np.full(3, 0.1), rng=18)
        assert result.analog_time_s > 0.0

    def test_input_size_validated(self):
        macro, _, _ = _macro(wishart_matrix(6, rng=19))
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            solve_macro(macro, np.zeros(2), np.zeros(3))
