"""Prepared solves vs the scalar oracle, bit for bit.

Every prepared solve — ``solve(b)`` is ``solve_many([b])[0]`` — runs on
the cached multi-RHS engines: :class:`~repro.core.blockamc.BatchedFiveStep`
for one-stage macros and macro nodes, and the multi-stage tree's tile
and direct-INV nodes. :mod:`oracles.scalar` keeps the one-vector walk
of the same programmed arrays through the public one-operation
primitives. This suite holds the engines to that oracle with
``np.array_equal`` / ``==`` (never a tolerance) on the configurations
the engines once could not batch — per-operation output and
sample-and-hold noise, and MNA routing — for one-stage, two-stage, and
direct-INV terminal trees, at the float64 and float32 tiers, through
gain-ranging reruns and the first (offset-drawing) solve.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles.scalar import oracle_solve
from repro.amc.config import ConverterConfig, HardwareConfig
from repro.core import common
from repro.core.blockamc import BlockAMCSolver, has_per_operation_randomness
from repro.core.multistage import MultiStageSolver
from repro.serve.cache import PreparedKey, prepare_entry
from repro.workloads.matrices import (
    diagonally_dominant_matrix,
    random_vector,
    wishart_matrix,
)


def _noisy(base: HardwareConfig, output=5e-4, snh=2e-4, **changes) -> HardwareConfig:
    return base.with_(
        opamp=dataclasses.replace(base.opamp, output_noise_sigma_v=output),
        sample_hold=dataclasses.replace(
            base.sample_hold, gain_error=0.005, noise_sigma_v=snh
        ),
        **changes,
    )


_VARIATION = HardwareConfig.paper_variation()

#: Configurations with per-operation randomness or MNA routing, plus one
#: noise-free control.
CONFIGS = {
    "variation": _VARIATION,
    "output_noise": _noisy(_VARIATION, snh=0.0),
    "snh_noise": _noisy(_VARIATION, output=0.0),
    "noisy_interconnect": _noisy(HardwareConfig.paper_interconnect()),
    "mna": _VARIATION.with_(use_mna=True),
    "noisy_mna": _noisy(_VARIATION, use_mna=True),
    # Unquantized converters: a float32 tier's DAC outputs are not exact
    # float32 values, so every ideal output must see the float64 input.
    "noisy_ideal_converters": _noisy(_VARIATION, converters=ConverterConfig.ideal()),
}
TIERS = ("numpy", "numpy-f32")

#: (stages, matrix): one-stage, two-stage, and a three-stage tree whose
#: 1x1 leaves are direct-INV terminals. Odd sizes split unevenly, so each
#: op-amp column's two offset sizes are drawn at distinct stream
#: positions, between the per-operation noise draws.
TREES = {
    "1stage": (1, lambda: wishart_matrix(13, rng=3)),
    "2stage": (2, lambda: wishart_matrix(13, rng=4)),
    "direct_inv": (3, lambda: diagonally_dominant_matrix(5, np.random.default_rng(8))),
}


def _solver(config: HardwareConfig, stages: int):
    if stages == 1:
        return BlockAMCSolver(config)
    return MultiStageSolver(config, stages=stages)


def _twins(config, stages, matrix, prep_seed=5):
    """Two identically programmed solvers: one for the oracle, one for the engine."""
    return tuple(
        _solver(config, stages).prepare(matrix, rng=prep_seed) for _ in range(2)
    )


def assert_results_identical(oracle, engine) -> None:
    """Every field of two SolveResults, bit for bit (dtypes included)."""
    assert oracle.solver == engine.solver
    assert oracle.x.dtype == engine.x.dtype
    assert np.array_equal(oracle.x, engine.x)
    assert np.array_equal(oracle.reference, engine.reference)
    assert oracle.relative_error == engine.relative_error
    assert oracle.saturated == engine.saturated
    assert oracle.analog_time_s == engine.analog_time_s
    assert len(oracle.operations) == len(engine.operations)
    for op_o, op_e in zip(oracle.operations, engine.operations):
        assert (op_o.label, op_o.kind) == (op_e.label, op_e.kind)
        assert op_o.output.dtype == op_e.output.dtype, op_o.label
        assert np.array_equal(op_o.output, op_e.output), op_o.label
        assert np.array_equal(op_o.ideal_output, op_e.ideal_output), op_o.label
        assert op_o.saturated == op_e.saturated, op_o.label
        assert op_o.settling_time_s == op_e.settling_time_s, op_o.label
        assert (op_o.rows, op_o.cols, op_o.opa_count, op_o.device_count) == (
            op_e.rows, op_e.cols, op_e.opa_count, op_e.device_count
        )
    assert set(oracle.metadata) == set(engine.metadata)
    for key, value in oracle.metadata.items():
        if isinstance(value, dict):
            assert set(value) == set(engine.metadata[key]), key
            for name, array in value.items():
                assert np.array_equal(array, engine.metadata[key][name]), (key, name)
        else:
            assert value == engine.metadata[key], key


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("tree", sorted(TREES))
class TestSolveMatchesOracle:
    def test_solve_sequence(self, tree, config_name, tier):
        """Fresh solvers: the first solve draws the offsets, later ones reuse them."""
        stages, make = TREES[tree]
        config = CONFIGS[config_name].with_(backend=tier)
        matrix = make()
        rhs = [random_vector(matrix.shape[0], rng=i) for i in range(3)]
        for_oracle, for_engine = _twins(config, stages, matrix)
        gen_o, gen_e = np.random.default_rng(9), np.random.default_rng(9)
        for b in rhs:
            assert_results_identical(
                oracle_solve(for_oracle, b, gen_o), for_engine.solve(b, gen_e)
            )
        # Same draws, in the same order: the generators end in one state.
        assert gen_o.bit_generator.state == gen_e.bit_generator.state

    def test_solve_many_keeps_sequential_meaning(self, tree, config_name, tier):
        """One shared generator over a batch == the oracle loop over it."""
        stages, make = TREES[tree]
        config = CONFIGS[config_name].with_(backend=tier)
        matrix = make()
        rhs = [random_vector(matrix.shape[0], rng=10 + i) for i in range(3)]
        for_oracle, for_engine = _twins(config, stages, matrix)
        gen = np.random.default_rng(2)
        expected = [oracle_solve(for_oracle, b, gen) for b in rhs]
        got = for_engine.solve_many(rhs, np.random.default_rng(2))
        for oracle, engine in zip(expected, got):
            assert_results_identical(oracle, engine)


def _graded(n: int, rng) -> np.ndarray:
    """SPD, eigenvalues 0.8**k: INV outputs clip, so ranging reruns."""
    q, _ = np.linalg.qr(np.random.default_rng(rng).standard_normal((n, n)))
    return (q * 0.8 ** np.arange(n)) @ q.T


class TestRangingReruns:
    @pytest.mark.parametrize("config_name", ["noisy_interconnect", "noisy_mna"])
    @pytest.mark.parametrize("stages", [1, 2])
    def test_reruns_redraw_noise_like_the_oracle(self, monkeypatch, config_name, stages):
        config = CONFIGS[config_name]
        matrix = _graded(13, rng=6)
        rhs = [random_vector(13, rng=i) for i in range(3)]
        for_oracle, for_engine = _twins(config, stages, matrix)
        gen_o, gen_e = np.random.default_rng(4), np.random.default_rng(4)
        expected = [oracle_solve(for_oracle, b, gen_o) for b in rhs]

        rescales = []
        original = common.ranging_rescale

        def counting(*args):
            rescales.append(args)
            return original(*args)

        monkeypatch.setattr(common, "ranging_rescale", counting)
        got = [for_engine.solve(b, gen_e) for b in rhs]
        assert rescales, "workload must exercise the rerun path"
        for oracle, engine in zip(expected, got):
            assert_results_identical(oracle, engine)
        assert gen_o.bit_generator.state == gen_e.bit_generator.state


class TestPerColumnGenerators:
    """The engines draw each column's noise from that column's generator."""

    @pytest.mark.parametrize("tree", sorted(TREES))
    def test_batch_with_own_generators_equals_oracle_loop(self, tree):
        stages, make = TREES[tree]
        config = CONFIGS["noisy_interconnect"]
        matrix = make()
        n = matrix.shape[0]
        bs = np.stack([random_vector(n, rng=20 + i) for i in range(4)])
        for_oracle, for_engine = _twins(config, stages, matrix)
        expected = [
            oracle_solve(for_oracle, b, np.random.default_rng(100 + c))
            for c, b in enumerate(bs)
        ]
        rngs = [np.random.default_rng(100 + c) for c in range(len(bs))]
        got = for_engine._solve_block(bs, rngs, lean=False)
        for oracle, engine in zip(expected, got):
            assert_results_identical(oracle, engine)


class TestWarmUp:
    """``serve.cache.prepare_entry``'s warm-up draws, pinned to the oracle."""

    @pytest.mark.parametrize("solver", ["blockamc-1stage", "blockamc-2stage"])
    @pytest.mark.parametrize("config_name", ["noisy_interconnect", "noisy_mna"])
    def test_prepare_entry_matches_oracle_warm_up(self, solver, config_name):
        config = CONFIGS[config_name]
        matrix = wishart_matrix(13, rng=7)
        key = PreparedKey("digest", "config", solver, prep_seed=11)
        entry = prepare_entry(key, matrix, config)

        stages = 1 if solver == "blockamc-1stage" else 2
        rng = np.random.default_rng(11)
        for_oracle = _solver(config, stages).prepare(matrix, rng)
        oracle_solve(for_oracle, np.ones(13), rng)

        b = random_vector(13, rng=3)
        assert_results_identical(
            oracle_solve(for_oracle, b, np.random.default_rng(5)),
            entry.prepared.solve(b, np.random.default_rng(5)),
        )
        assert entry.coalescible == (not has_per_operation_randomness(config))

    def test_mna_entries_coalesce(self):
        key = PreparedKey("digest", "config", "blockamc-2stage", prep_seed=1)
        entry = prepare_entry(key, wishart_matrix(8, rng=1), CONFIGS["mna"])
        assert entry.coalescible
