"""Equivalence tests for the batched/cached perf engine.

Every optimized path in the engine keeps its pre-optimization reference
implementation alive; these tests pin the new paths to those references:

- vectorized vs. cell-by-cell ladder assembly (exact matrix equality);
- Schur / multi-RHS-LU exact extraction vs. the column-loop reference;
- the LRU :class:`ParasiticExtractor` vs. fresh extraction (Hypothesis);
- ``solve_dc_many`` / ``AssembledMNA`` vs. repeated ``solve_dc``;
- batched variation draws vs. sequential draws from the same generator
  (bit-exact stream splitting);
- ``run_trials_batched`` vs. ``run_trials`` (1e-10 on every record);
- ``PreparedBlockAMC.solve_many`` vs. a loop of scalar oracle solves
  (:mod:`oracles.scalar`).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scalar import oracle_solve
from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import run_trials, run_trials_batched
from repro.circuits.generators import build_inv_circuit, build_mvm_circuit
from repro.circuits.mna import assemble_mna, solve_dc, solve_dc_many
from repro.circuits.netlist import Circuit
from repro.core.batched import is_batchable_config, make_batched_runner
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.crossbar.parasitics import (
    ParasiticExtractor,
    _ladder_system,
    _ladder_system_loop,
    exact_effective_matrix,
)
from repro.devices.variations import (
    GaussianVariation,
    LognormalVariation,
    NoVariation,
    RelativeGaussianVariation,
)
from repro.errors import CircuitError
from repro.workloads.matrices import random_vector, wishart_matrix

G0 = 100e-6


def _random_g(shape, seed, zero_fraction=0.3):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 1e-4, size=shape)
    g[rng.random(shape) < zero_fraction] = 0.0
    return g


class TestLadderAssembly:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (8, 8), (16, 4)])
    def test_vectorized_assembly_matches_loop_exactly(self, shape):
        g = _random_g(shape, seed=1)
        vec = _ladder_system(g, 1.0)[0].toarray()
        loop = _ladder_system_loop(g, 1.0)[0].toarray()
        assert np.array_equal(vec, loop)

    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        r_wire=st.sampled_from([0.25, 1.0, 3.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_assembly_equality_property(self, rows, cols, r_wire, seed):
        g = _random_g((rows, cols), seed=seed)
        vec = _ladder_system(g, r_wire)[0].toarray()
        loop = _ladder_system_loop(g, r_wire)[0].toarray()
        assert np.array_equal(vec, loop)


class TestExactMethods:
    @pytest.mark.parametrize("shape", [(1, 3), (5, 1), (2, 2), (8, 8), (12, 7), (7, 12)])
    @pytest.mark.parametrize("method", ["auto", "schur", "lu"])
    def test_methods_match_loop_reference(self, shape, method):
        g = _random_g(shape, seed=3)
        reference = exact_effective_matrix(g, 1.0, method="loop")
        fast = exact_effective_matrix(g, 1.0, method=method)
        assert np.max(np.abs(fast - reference)) < 1e-10

    def test_r_wire_variants(self):
        g = _random_g((9, 6), seed=4)
        for r_wire in (0.25, 1.0, 17.0):
            reference = exact_effective_matrix(g, r_wire, method="loop")
            fast = exact_effective_matrix(g, r_wire)
            assert np.max(np.abs(fast - reference)) < 1e-10

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            exact_effective_matrix(np.ones((2, 2)), 1.0, method="magic")

    def test_zero_wire_returns_copy(self):
        g = _random_g((3, 3), seed=5)
        out = exact_effective_matrix(g, 0.0)
        assert np.array_equal(out, g)
        assert out is not g


class TestParasiticExtractor:
    def test_cache_hit_returns_same_values(self):
        extractor = ParasiticExtractor()
        g = _random_g((6, 6), seed=6)
        first = extractor.extract(g, 1.0)
        second = extractor.extract(g, 1.0)
        assert np.array_equal(first, second)
        assert extractor.hits == 1 and extractor.misses == 1

    def test_returns_copies(self):
        extractor = ParasiticExtractor()
        g = _random_g((4, 4), seed=7)
        first = extractor.extract(g, 1.0)
        first[0, 0] = 1e9
        assert extractor.extract(g, 1.0)[0, 0] != 1e9

    def test_lru_eviction(self):
        extractor = ParasiticExtractor(maxsize=2)
        gs = [_random_g((3, 3), seed=s) for s in range(4)]
        for g in gs:
            extractor.extract(g, 1.0)
        extractor.extract(gs[-1], 1.0)
        assert extractor.hits == 1
        extractor.extract(gs[0], 1.0)  # evicted: recomputed
        assert extractor.misses == 5

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        r_wire=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_cached_matches_fresh_extraction(self, rows, cols, r_wire, seed):
        extractor = ParasiticExtractor()
        g = _random_g((rows, cols), seed=seed)
        cached = extractor.extract(g, r_wire)
        cached_again = extractor.extract(g, r_wire)
        fresh = exact_effective_matrix(g, r_wire)
        assert np.array_equal(cached, cached_again)
        assert np.array_equal(cached, fresh)


class TestSolveDcMany:
    def _divider(self):
        c = Circuit("divider")
        c.vsource("in", "0", 2.0, "Vs")
        c.resistor("in", "mid", 1e3, "R1")
        c.resistor("mid", "0", 1e3, "R2")
        return c

    def test_matches_repeated_solve_dc(self):
        c = self._divider()
        values = [0.5, 1.0, 2.0, -3.0]
        many = solve_dc_many(c, [{"Vs": v} for v in values])
        for v, solution in zip(values, many):
            rebuilt = Circuit("d")
            rebuilt.vsource("in", "0", v, "Vs")
            rebuilt.resistor("in", "mid", 1e3, "R1")
            rebuilt.resistor("mid", "0", 1e3, "R2")
            expected = solve_dc(rebuilt)
            assert solution.voltage("mid") == pytest.approx(expected.voltage("mid"), abs=1e-14)

    def test_empty_batch(self):
        assert solve_dc_many(self._divider(), []) == []

    def test_unknown_source_rejected(self):
        with pytest.raises(CircuitError, match="independent source"):
            solve_dc_many(self._divider(), [{"nope": 1.0}])

    def test_current_source_override(self):
        c = Circuit("isrc")
        c.isource("n", "0", 1e-3, "I1")
        c.resistor("n", "0", 1e3, "R1")
        base, doubled = solve_dc_many(c, [{}, {"I1": 2e-3}])
        reference = solve_dc(c).voltage("n")
        assert base.voltage("n") == pytest.approx(reference)
        assert doubled.voltage("n") == pytest.approx(2.0 * reference)

    def test_mvm_circuit_source_updates(self):
        g_pos = _random_g((3, 3), seed=8, zero_fraction=0.0) + 1e-5
        g_neg = _random_g((3, 3), seed=9, zero_fraction=0.0) + 1e-5
        v1 = np.array([0.1, -0.2, 0.3])
        v2 = np.array([-0.4, 0.5, 0.6])
        circuit, outputs = build_mvm_circuit(g_pos, g_neg, v1, G0)
        assembled = assemble_mna(circuit)
        first = assembled.solve().voltages(outputs)
        overrides = {}
        for j, v in enumerate(v2):
            overrides[f"Vp_{j}"] = float(v)
            overrides[f"Vn_{j}"] = float(-v)
        second = assembled.solve(overrides).voltages(outputs)
        direct = solve_dc(build_mvm_circuit(g_pos, g_neg, v2, G0)[0]).voltages(
            build_mvm_circuit(g_pos, g_neg, v2, G0)[1]
        )
        assert np.allclose(first, -(g_pos - g_neg) @ v1 / G0, atol=1e-9)
        assert np.max(np.abs(second - direct)) < 1e-12

    def test_inv_circuit_source_updates(self):
        rng = np.random.default_rng(10)
        matrix = np.eye(3) * 3e-5 + rng.uniform(0, 1e-5, (3, 3))
        g_pos = np.clip(matrix, 0, None)
        g_neg = np.clip(-matrix, 0, None)
        v1 = np.array([0.2, 0.1, -0.1])
        v2 = np.array([-0.3, 0.4, 0.2])
        circuit, outputs = build_inv_circuit(g_pos, g_neg, v1, G0)
        assembled = assemble_mna(circuit)
        assembled.solve()
        updated = assembled.solve(
            {f"Vin_{i}": float(v) for i, v in enumerate(v2)}
        ).voltages(outputs)
        direct_c, direct_o = build_inv_circuit(g_pos, g_neg, v2, G0)
        direct = solve_dc(direct_c).voltages(direct_o)
        assert np.max(np.abs(updated - direct)) < 1e-12


class TestDCSolutionVectorized:
    def test_voltages_and_power(self):
        c = Circuit("net")
        c.vsource("a", "0", 1.0, "V1")
        c.resistor("a", "b", 1e3, "R1")
        c.resistor("b", "0", 3e3, "R2")
        sol = solve_dc(c)
        v = sol.voltages(["a", "b", "0", "gnd"])
        assert v == pytest.approx([1.0, 0.75, 0.0, 0.0])
        manual = sum(
            (sol.voltage(e.a) - sol.voltage(e.b)) ** 2 / e.resistance
            for e in c.elements
            if e.name.startswith("R")
        )
        assert sol.resistor_power() == pytest.approx(manual)

    def test_unknown_node_raises(self):
        c = Circuit("net")
        c.vsource("a", "0", 1.0, "V1")
        c.resistor("a", "0", 1e3, "R1")
        with pytest.raises(CircuitError, match="unknown node"):
            solve_dc(c).voltages(["a", "bogus"])


class TestBatchedVariationDraws:
    @pytest.mark.parametrize(
        "model",
        [
            NoVariation(),
            GaussianVariation(5e-6),
            RelativeGaussianVariation(0.05),
            LognormalVariation(0.05),
        ],
    )
    def test_batch_matches_sequential_stream(self, model):
        target = np.abs(_random_g((5, 4), seed=11))
        batched = model.apply_batch(target, 6, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        sequential = np.stack([model.apply(target, rng) for _ in range(6)])
        assert np.array_equal(batched, sequential)

    def test_zero_trials(self):
        out = GaussianVariation(1e-6).apply_batch(np.ones((2, 2)), 0, 0)
        assert out.shape == (0, 2, 2)

    def test_generic_fallback_draws_independent_trials(self):
        class Doubler(LognormalVariation):
            """Subclass without its own apply_batch: uses the generic loop."""

            def apply_batch(self, target, trials, rng=None):
                return super(LognormalVariation, self).apply_batch(target, trials, rng)

        target = np.full((3, 3), 1e-5)
        batch = Doubler(0.1).apply_batch(target, 4, rng=42)
        # An int seed must still produce *independent* trials (the rng is
        # coerced once, not re-seeded per apply call).
        assert not np.array_equal(batch[0], batch[1])

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            NoVariation().apply_batch(np.ones((2, 2)), -1)


class TestBatchedSweep:
    @pytest.mark.parametrize(
        "config",
        [
            HardwareConfig.paper_variation(),
            HardwareConfig.paper_interconnect(),
            HardwareConfig.paper_ideal_mapping(),
        ],
        ids=["variation", "interconnect", "ideal_mapping"],
    )
    def test_records_match_run_trials(self, config):
        sizes, trials = (8, 13, 16), 3
        seq = run_trials(
            {
                "orig": lambda: OriginalAMCSolver(config),
                "block": lambda: BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )
        bat = run_trials_batched(
            {
                "orig": OriginalAMCSolver(config),
                "block": BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )
        seq_by_key = {(r.solver, r.size, r.trial): r for r in seq}
        bat_by_key = {(r.solver, r.size, r.trial): r for r in bat}
        assert set(seq_by_key) == set(bat_by_key)
        for key, s in seq_by_key.items():
            b = bat_by_key[key]
            assert abs(s.relative_error - b.relative_error) < 1e-10, key
            assert s.saturated == b.saturated, key
            assert abs(s.analog_time_s - b.analog_time_s) <= 1e-10 * max(
                1.0, abs(s.analog_time_s)
            ), key

    def test_record_order_matches_run_trials(self):
        config = HardwareConfig.paper_variation()
        seq = run_trials(
            {
                "orig": lambda: OriginalAMCSolver(config),
                "block": lambda: BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            (8, 16),
            3,
            seed=1,
        )
        bat = run_trials_batched(
            {
                "orig": OriginalAMCSolver(config),
                "block": BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            (8, 16),
            3,
            seed=1,
        )
        assert [(r.solver, r.size, r.trial) for r in seq] == [
            (r.solver, r.size, r.trial) for r in bat
        ]

    def test_unbatchable_solver_falls_back(self):
        config = HardwareConfig.paper_variation()
        assert make_batched_runner(MultiStageSolver(config, stages=2)) is None
        seq = run_trials(
            {"ms": lambda: MultiStageSolver(config, stages=2)},
            lambda n, rng: wishart_matrix(n, rng),
            (8,),
            2,
            seed=70,
        )
        bat = run_trials_batched(
            {"ms": MultiStageSolver(config, stages=2)},
            lambda n, rng: wishart_matrix(n, rng),
            (8,),
            2,
            seed=70,
        )
        for s, b in zip(seq, bat):
            assert s.relative_error == pytest.approx(b.relative_error, abs=1e-12)

    def test_unbatchable_configs_detected(self):
        assert is_batchable_config(HardwareConfig.paper_variation())
        # Exact parasitic extraction is batchable since the batched Schur
        # engine (exact_effective_matrix_batch) landed.
        assert is_batchable_config(HardwareConfig.paper_interconnect(fidelity="exact"))
        assert not is_batchable_config(
            HardwareConfig.paper_variation().with_(use_mna=True)
        )
        base = HardwareConfig.paper_variation()
        write_verify = replace(base.programming, use_write_verify=True)
        assert not is_batchable_config(base.with_(programming=write_verify))
        quantized = replace(base.programming, quantize=True)
        assert not is_batchable_config(base.with_(programming=quantized))


class TestSolveMany:
    @pytest.mark.parametrize(
        "config",
        [HardwareConfig.paper_variation(), HardwareConfig.ideal()],
        ids=["variation", "ideal"],
    )
    def test_matches_sequential_loop(self, config):
        matrix = wishart_matrix(17, rng=0)
        rhs = [random_vector(17, rng=i + 1) for i in range(5)]
        sequential_prep = BlockAMCSolver(config).prepare(matrix, rng=5)
        gen = np.random.default_rng(9)
        sequential = [oracle_solve(sequential_prep, b, gen) for b in rhs]
        batched_prep = BlockAMCSolver(config).prepare(matrix, rng=5)
        batched = batched_prep.solve_many(rhs, np.random.default_rng(9))
        for s, b in zip(sequential, batched):
            assert np.max(np.abs(s.x - b.x)) < 1e-10
            assert s.saturated == b.saturated
            assert s.analog_time_s == pytest.approx(b.analog_time_s, rel=1e-12)
            assert s.metadata["input_scale"] == pytest.approx(
                b.metadata["input_scale"], rel=1e-12
            )
            for op_s, op_b in zip(s.operations, b.operations):
                assert op_s.label == op_b.label and op_s.kind == op_b.kind
                assert np.max(np.abs(op_s.output - op_b.output)) < 1e-10
                assert np.max(np.abs(op_s.ideal_output - op_b.ideal_output)) < 1e-10

    def test_empty_batch_rejected(self):
        prep = BlockAMCSolver(HardwareConfig.ideal()).prepare(wishart_matrix(8, rng=0), rng=1)
        with pytest.raises(Exception, match="at least one"):
            prep.solve_many([])

    def test_multistage_solve_many_reuses_tree(self):
        config = HardwareConfig.paper_variation()
        prep = MultiStageSolver(config, stages=2).prepare(wishart_matrix(16, rng=3), rng=4)
        results = prep.solve_many(
            [random_vector(16, rng=7), random_vector(16, rng=8)], rng=9
        )
        assert len(results) == 2
        for result in results:
            assert result.relative_error < 1.0
