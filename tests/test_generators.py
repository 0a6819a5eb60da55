"""Tests for the MVM/INV crossbar netlist generators (Fig. 1 circuits)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import netlist as oracle
from repro.circuits.generators import build_inv_circuit, build_mvm_circuit
from repro.circuits.mna import solve_dc
from repro.crossbar.mapping import map_to_conductances
from repro.errors import CircuitError
from repro.workloads.matrices import diagonally_dominant_matrix

G0 = 100e-6


def _conductances(matrix):
    mapped = map_to_conductances(matrix, G0, pre_normalized=True)
    return mapped.g_pos, mapped.g_neg


class TestMVMCircuit:
    def test_ideal_mvm_matches_matrix_product(self):
        matrix = np.array([[0.5, -0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.4, -0.2])
        circuit, outputs = build_mvm_circuit(g_pos, g_neg, v, G0)
        sol = solve_dc(circuit)
        np.testing.assert_allclose(sol.voltages(outputs), -matrix @ v, atol=1e-12)

    def test_rectangular_array(self):
        matrix = np.array([[0.5, -0.3, 0.1], [0.2, 0.8, -0.6]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.1, 0.2, 0.3])
        circuit, outputs = build_mvm_circuit(g_pos, g_neg, v, G0)
        sol = solve_dc(circuit)
        np.testing.assert_allclose(sol.voltages(outputs), -matrix @ v, atol=1e-12)

    def test_wire_resistance_degrades_output(self):
        matrix = np.array([[0.5, 0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.4, 0.4])
        _, outputs = build_mvm_circuit(g_pos, g_neg, v, G0)
        ideal = solve_dc(build_mvm_circuit(g_pos, g_neg, v, G0)[0]).voltages(outputs)
        wired = solve_dc(build_mvm_circuit(g_pos, g_neg, v, G0, r_wire=50.0)[0]).voltages(outputs)
        assert np.all(np.abs(wired) < np.abs(ideal))

    def test_finite_gain_scales_output(self):
        matrix = np.array([[0.5, 0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.4, 0.4])
        exact = -matrix @ v
        out = solve_dc(
            build_mvm_circuit(g_pos, g_neg, v, G0, opamp_gain=100.0)[0]
        ).voltages([f"out_{i}" for i in range(2)])
        assert np.all(np.abs(out) < np.abs(exact))
        np.testing.assert_allclose(out, exact, rtol=0.1)

    def test_offsets_shift_output(self):
        matrix = np.array([[0.5, 0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.zeros(2)
        offsets = np.array([1e-3, -1e-3])
        out = solve_dc(
            build_mvm_circuit(g_pos, g_neg, v, G0, offsets=offsets)[0]
        ).voltages([f"out_{i}" for i in range(2)])
        # With zero input the output is the offset times the noise gain.
        noise_gain = 1.0 + np.sum(np.abs(matrix), axis=1)
        np.testing.assert_allclose(out, noise_gain * offsets, rtol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CircuitError):
            build_mvm_circuit(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(2), G0)


class TestINVCircuit:
    def test_ideal_inv_solves_system(self):
        matrix = np.array([[1.0, -0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.3, -0.1])
        circuit, outputs = build_inv_circuit(g_pos, g_neg, v, G0)
        sol = solve_dc(circuit)
        np.testing.assert_allclose(
            sol.voltages(outputs), -np.linalg.solve(matrix, v), atol=1e-10
        )

    def test_larger_system(self):
        rng = np.random.default_rng(0)
        matrix = diagonally_dominant_matrix(5, rng)
        matrix = matrix / np.max(np.abs(matrix))
        g_pos, g_neg = _conductances(matrix)
        v = rng.uniform(-0.3, 0.3, 5)
        circuit, outputs = build_inv_circuit(g_pos, g_neg, v, G0)
        sol = solve_dc(circuit)
        np.testing.assert_allclose(
            sol.voltages(outputs), -np.linalg.solve(matrix, v), atol=1e-9
        )

    def test_input_conductance_scaling(self):
        """g_input = G0 / s solves the system scaled by s (the Schur
        renormalization trick)."""
        matrix = np.array([[1.0, -0.3], [0.2, 0.8]])
        scale = 2.5
        g_pos, g_neg = _conductances(matrix / scale)
        v = np.array([0.3, -0.1])
        circuit, outputs = build_inv_circuit(g_pos, g_neg, v, G0 / scale)
        sol = solve_dc(circuit)
        np.testing.assert_allclose(
            sol.voltages(outputs), -np.linalg.solve(matrix, v), atol=1e-10
        )

    def test_requires_square(self):
        with pytest.raises(CircuitError, match="square"):
            build_inv_circuit(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), G0)

    def test_finite_gain_converges_to_ideal(self):
        matrix = np.array([[1.0, -0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.3, -0.1])
        exact = -np.linalg.solve(matrix, v)

        def run(gain):
            c, outs = build_inv_circuit(g_pos, g_neg, v, G0, opamp_gain=gain)
            return solve_dc(c).voltages(outs)

        err_low = np.max(np.abs(run(1e2) - exact))
        err_high = np.max(np.abs(run(1e6) - exact))
        assert err_high < err_low
        assert err_high < 1e-4

    def test_wire_resistance_perturbs_solution(self):
        matrix = np.array([[1.0, -0.3], [0.2, 0.8]])
        g_pos, g_neg = _conductances(matrix)
        v = np.array([0.3, -0.1])
        c, outs = build_inv_circuit(g_pos, g_neg, v, G0, r_wire=20.0)
        out = solve_dc(c).voltages(outs)
        exact = -np.linalg.solve(matrix, v)
        assert 0.0 < np.max(np.abs(out - exact)) < 0.5 * np.max(np.abs(exact))


class TestBulkAssemblyEquivalence:
    """The bulk-append assembly path must produce the reference netlist."""

    @pytest.mark.parametrize("r_wire", [0.0, 1.0])
    @pytest.mark.parametrize("builder", [build_mvm_circuit, build_inv_circuit])
    def test_identical_netlists(self, builder, r_wire):
        reference = getattr(oracle, builder.__name__)
        rng = np.random.default_rng(17)
        n = 9
        g_pos = rng.uniform(0.0, 1e-4, size=(n, n))
        g_neg = rng.uniform(0.0, 1e-4, size=(n, n))
        g_pos[g_pos < 3e-5] = 0.0  # exercise the sparse-cell mask
        g_neg[g_neg < 3e-5] = 0.0
        v_in = rng.uniform(-1.0, 1.0, size=n)
        offsets = rng.normal(0.0, 1e-3, size=n)
        bulk_c, bulk_out = builder(
            g_pos, g_neg, v_in, 1e-4,
            r_wire=r_wire, opamp_gain=1e4, offsets=offsets,
        )
        loop_c, loop_out = reference(
            g_pos, g_neg, v_in, 1e-4,
            r_wire=r_wire, opamp_gain=1e4, offsets=offsets,
        )
        assert bulk_out == loop_out
        assert bulk_c.elements == loop_c.elements  # values, names, and order
        assert bulk_c.nodes() == loop_c.nodes()

    @pytest.mark.parametrize("builder", [build_mvm_circuit, build_inv_circuit])
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        r_wire=st.sampled_from([0.0, 0.5, 3.0]),
        opamp_gain=st.sampled_from([None, 1e4]),
        with_offsets=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_identical_netlists_property(
        self, builder, rows, cols, r_wire, opamp_gain, with_offsets, seed
    ):
        """Every shape, wire and op-amp option, against the oracle: the
        bulk builders reuse cached per-shape name templates, so shapes
        seen in any order must still index their cells correctly."""
        if builder is build_inv_circuit:
            cols = rows  # the INV circuit needs a square array
        reference = getattr(oracle, builder.__name__)
        rng = np.random.default_rng(seed)
        g_pos = rng.uniform(0.0, 1e-4, size=(rows, cols))
        g_neg = rng.uniform(0.0, 1e-4, size=(rows, cols))
        g_pos[g_pos < 3e-5] = 0.0
        g_neg[g_neg < 3e-5] = 0.0
        v_in = rng.uniform(-1.0, 1.0, size=cols if builder is build_mvm_circuit else rows)
        kwargs = {
            "r_wire": r_wire,
            "opamp_gain": opamp_gain,
            "offsets": rng.normal(0.0, 1e-3, size=rows) if with_offsets else None,
        }
        bulk_c, bulk_out = builder(g_pos, g_neg, v_in, 1e-4, **kwargs)
        loop_c, loop_out = reference(g_pos, g_neg, v_in, 1e-4, **kwargs)
        assert bulk_out == loop_out
        assert bulk_c.elements == loop_c.elements
        assert bulk_c.nodes() == loop_c.nodes()
