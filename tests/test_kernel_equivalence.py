"""Property-based equivalence suite for the consolidated analog kernel.

``repro.core.common`` is the single implementation of the analog solve
physics; three call-path shapes consume it:

- **scalar** — ``AMCOperations`` (one vector at a time), and the
  scalar oracle of the prepared solvers built on it
  (:mod:`oracles.scalar`, including the one-macro five-step walk);
- **trial-batched** — ``repro.core.batched`` (stacked ``(trials, n, n)``
  Monte-Carlo tensors run through the solver trees on stacked stages);
- **multi-RHS** — ``solve_many`` of the three prepared solvers
  (original AMC, one-stage and multi-stage: one programmed tree,
  row-stacked right-hand sides); a prepared ``solve`` is a batch of one.

This suite *proves* the consolidation: for every configuration the
batched engines support, the three shapes must produce **bit-identical**
payloads — not merely close. Assertions here use ``==`` and
``np.array_equal``, never tolerances. A reintroduced per-path copy of
the physics (a second ranging margin, a ``@`` where the kernel uses
``einsum``, an ``nrhs > 1`` LAPACK call) breaks these tests on the first
affected sample; the drift-guard tests at the bottom demonstrate that
detection explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batched as batched_module
import repro.core.multistage as multistage_module
from oracles.scalar import OracleSolver, oracle_solve
from repro.amc.config import (
    ConverterConfig,
    HardwareConfig,
    OpAmpConfig,
    SampleHoldConfig,
)
from repro.analysis.accuracy import run_trials, run_trials_batched
from repro.circuits.columnar import ColumnarCircuit
from repro.circuits.generators import build_inv_circuit, build_mvm_circuit
from repro.circuits.mna import assemble_mna, solve_dc
from repro.circuits.netlist import Circuit
from repro.core.batched import make_batched_runner
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    MAX_RANGING_ATTEMPTS,
    QUANTIZATION_MARGIN,
    RANGING_HEADROOM,
    FactoredSystem,
    auto_range,
    auto_range_many,
    contract,
    draw_offsets,
    draw_offsets_batch,
    input_voltage_scale,
    input_voltage_scale_many,
    inv_raw,
    mvm_raw,
    ranging_rescale,
    saturate,
    snh_cascade,
    solve_columns,
    solve_slices,
)
from repro.core.original import OriginalAMCSolver
from repro.crossbar import parasitics as parasitics_module
from repro.crossbar.array import ProgrammingConfig
from repro.crossbar.parasitics import (
    exact_effective_matrix,
    exact_effective_matrix_batch,
)
from repro.devices.variations import (
    GaussianVariation,
    LognormalVariation,
    NoVariation,
    RelativeGaussianVariation,
)
from repro.errors import (
    MappingError,
    PartitionError,
    SolverError,
    ValidationError,
)
from repro.workloads.matrices import (
    diagonally_dominant_matrix,
    random_vector,
    wishart_matrix,
)

# ----------------------------------------------------------------------
# workload generators: sizes, condition numbers, rhs counts
# ----------------------------------------------------------------------


def graded_matrix(n: int, decay: float, rng) -> np.ndarray:
    """SPD matrix with eigenvalues ``decay ** k`` — condition knob.

    ``decay`` close to 1 is benign; smaller values grow the inverse's
    norm until INV outputs clip converter full scale and the
    gain-ranging rerun path executes.
    """
    rng = np.random.default_rng(rng)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = decay ** np.arange(n)
    return (q * s) @ q.T


MATRIX_FAMILIES = {
    "wishart": lambda n, rng: wishart_matrix(n, rng),
    "dominant": lambda n, rng: diagonally_dominant_matrix(n, rng),
    # Ill-conditioned enough that gain ranging reruns on most draws.
    "graded": lambda n, rng: graded_matrix(n, 0.8, rng),
}


def _config_variants():
    """HardwareConfig grid: noise on/off, quantization, saturation."""
    return {
        "ideal": HardwareConfig.ideal(),
        "ideal_mapping": HardwareConfig.paper_ideal_mapping(),
        "variation": HardwareConfig.paper_variation(),
        "interconnect": HardwareConfig.paper_interconnect(),
        # Exact parasitic extraction routes through the batched Schur
        # engine (exact_effective_matrix_batch), bit-identical per trial.
        "exact_parasitics": HardwareConfig.paper_interconnect(fidelity="exact"),
        "abs_gaussian": HardwareConfig.paper_variation().with_(
            programming=ProgrammingConfig(variation=GaussianVariation(2e-6))
        ),
        "lognormal": HardwareConfig.paper_variation().with_(
            programming=ProgrammingConfig(variation=LognormalVariation(0.05))
        ),
        "coarse_quant": HardwareConfig.paper_variation().with_(
            converters=ConverterConfig(dac_bits=6, adc_bits=6)
        ),
        "saturating": HardwareConfig.paper_variation().with_(
            opamp=OpAmpConfig(v_sat=0.7)
        ),
        "snh_gain_error": HardwareConfig.paper_variation().with_(
            sample_hold=SampleHoldConfig(gain_error=0.01)
        ),
        # Per-operation fresh-noise configurations: the batched engine
        # draws output and S&H noise per trial, per op, per ranging
        # attempt in exact scalar stream order (PR 4 coverage).
        "output_noise": HardwareConfig.paper_variation().with_(
            opamp=OpAmpConfig(output_noise_sigma_v=5e-4)
        ),
        "snh_noise": HardwareConfig.paper_variation().with_(
            sample_hold=SampleHoldConfig(gain_error=0.005, noise_sigma_v=2e-4)
        ),
        "noisy_saturating": HardwareConfig.paper_interconnect().with_(
            opamp=OpAmpConfig(output_noise_sigma_v=5e-4, v_sat=0.8),
            sample_hold=SampleHoldConfig(gain_error=0.005, noise_sigma_v=2e-4),
        ),
    }


CONFIGS = _config_variants()


def _records_exactly_equal(seq, bat):
    assert [(r.solver, r.size, r.trial) for r in seq] == [
        (r.solver, r.size, r.trial) for r in bat
    ]
    for s, b in zip(seq, bat):
        key = (s.solver, s.size, s.trial)
        assert s.relative_error == b.relative_error, key
        assert s.saturated == b.saturated, key
        assert s.analog_time_s == b.analog_time_s, key


def _results_exactly_equal(s, b):
    """Full SolveResult payload comparison, bit-for-bit."""
    assert np.array_equal(s.x, b.x)
    assert np.array_equal(s.reference, b.reference)
    assert s.relative_error == b.relative_error
    assert s.saturated == b.saturated
    assert s.analog_time_s == b.analog_time_s
    assert s.metadata["input_scale"] == b.metadata["input_scale"]
    assert len(s.operations) == len(b.operations)
    for op_s, op_b in zip(s.operations, b.operations):
        assert op_s.label == op_b.label and op_s.kind == op_b.kind
        assert np.array_equal(op_s.output, op_b.output), op_s.label
        assert np.array_equal(op_s.ideal_output, op_b.ideal_output), op_s.label
        assert op_s.settling_time_s == op_b.settling_time_s
        assert op_s.saturated == op_b.saturated
    ref_s = s.metadata["reference_steps"]
    ref_b = b.metadata["reference_steps"]
    assert set(ref_s) == set(ref_b)
    for name in ref_s:
        assert np.array_equal(ref_s[name], ref_b[name]), name


# ----------------------------------------------------------------------
# kernel-level shape stability (hypothesis)
# ----------------------------------------------------------------------


def _random_stage(n, trials, seed, with_offsets=True):
    rng = np.random.default_rng(seed)
    effective = rng.standard_normal((trials, n, n)) + 3.0 * n * np.eye(n)
    loads = rng.uniform(0.0, 4.0, size=(trials, n))
    v_in = rng.uniform(-1.0, 1.0, size=(trials, n))
    offsets = rng.normal(0.0, 1e-3, size=(trials, n)) if with_offsets else None
    scales = rng.uniform(0.2, 1.0, size=trials)
    return effective, loads, v_in, offsets, scales


class TestKernelShapeStability:
    """The kernel's three shapes are the same bits, by construction."""

    @given(
        n=st.integers(1, 9),
        rows=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        a0=st.sampled_from([np.inf, 1e4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_inv_raw_multi_rhs_matches_scalar(self, n, rows, seed, a0):
        effective, loads, v_in, offsets, _ = _random_stage(n, rows, seed)
        shared_eff, shared_load = effective[0], loads[0]
        shared_off = offsets[0]
        stacked = inv_raw(shared_eff, shared_load, v_in, shared_off, 0.5, a0)
        for r in range(rows):
            scalar = inv_raw(shared_eff, shared_load, v_in[r], shared_off, 0.5, a0)
            assert np.array_equal(stacked[r], scalar)

    @given(
        n=st.integers(1, 9),
        rows=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        a0=st.sampled_from([np.inf, 1e4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_mvm_raw_shapes_match(self, n, rows, seed, a0):
        effective, loads, v_in, offsets, _ = _random_stage(n, rows, seed)
        # trial-batched vs scalar
        stacked = mvm_raw(effective, loads, v_in, offsets, a0)
        for t in range(rows):
            assert np.array_equal(
                stacked[t], mvm_raw(effective[t], loads[t], v_in[t], offsets[t], a0)
            )
        # multi-RHS (shared matrix) vs scalar
        multi = mvm_raw(effective[0], loads[0], v_in, offsets[0], a0)
        for r in range(rows):
            assert np.array_equal(
                multi[r], mvm_raw(effective[0], loads[0], v_in[r], offsets[0], a0)
            )

    @given(n=st.integers(1, 10), rows=st.integers(1, 7), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_factored_system_matches_per_column(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, n)) + 3.0 * n * np.eye(n)
        rhs = rng.standard_normal((rows, n))
        fact = FactoredSystem(matrix)
        block = fact.solve(rhs)
        for r in range(rows):
            assert np.array_equal(block[r], fact.solve(rhs[r]))
            assert np.array_equal(block[r], solve_columns(matrix, rhs[r]))
        # the stacked-slices entry point is the same calls per trial
        matrices = np.broadcast_to(matrix, (rows, n, n))
        assert np.array_equal(solve_slices(matrices, rhs), block)

    @given(n=st.integers(1, 9), rows=st.integers(1, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_contract_rows_match_scalar(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, n))
        v = rng.standard_normal((rows, n))
        multi = contract(matrix, v)
        for r in range(rows):
            assert np.array_equal(multi[r], contract(matrix, v[r]))

    def test_factored_system_rejects_singular(self):
        singular = np.zeros((3, 3))
        singular[0, 0] = 1.0
        with pytest.raises(SolverError, match="singular"):
            FactoredSystem(singular)
        with pytest.raises(SolverError, match="effective block matrix is singular"):
            solve_slices(singular[None], np.ones((1, 3)))
        with pytest.raises(SolverError, match="ideal block matrix is singular"):
            solve_columns(singular, np.ones(3), what="ideal block matrix")

    def test_saturate_shapes(self):
        raw = np.array([[0.5, -2.0], [0.1, 0.2]])
        clipped, sat = saturate(raw, 1.0)
        assert np.array_equal(sat, [True, False])
        assert clipped.max() <= 1.0 and clipped.min() >= -1.0
        scalar_out, scalar_sat = saturate(raw[0], 1.0)
        assert np.array_equal(scalar_out, clipped[0]) and bool(scalar_sat) is True
        no_out, no_sat = saturate(raw, np.inf)
        assert no_out is raw and not no_sat.any()

    def test_snh_cascade_matches_two_transfers(self):
        v = np.array([0.25, -0.5, 1.0])
        gain_error = 0.013
        # Two successive products, never (1 + e) ** 2: the scalar macro
        # runs two physical SampleHold stages.
        expected = (v * (1.0 + gain_error)) * (1.0 + gain_error)
        assert np.array_equal(snh_cascade(v, gain_error), expected)


class TestOffsetStreamExactness:
    """Batched offset draws replay the scalar per-trial streams exactly."""

    @given(
        sigma=st.sampled_from([1e-4, 0.25e-3]),
        trials=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_draw_offsets_batch_matches_sequential(self, sigma, trials, seed):
        rngs = [np.random.default_rng(seed + t) for t in range(trials)]
        # One size per call, in first-use order (as LazyOffsets draws them).
        batch = {size: draw_offsets_batch(sigma, size, rngs) for size in (4, 7)}
        fresh = [np.random.default_rng(seed + t) for t in range(trials)]
        for t, rng in enumerate(fresh):
            for size in (4, 7):
                assert np.array_equal(batch[size][t], draw_offsets(sigma, size, rng))

    def test_zero_sigma_is_none(self):
        assert draw_offsets_batch(0.0, 3, []) is None
        assert draw_offsets(0.0, 4, rng=0) is None

    def test_scalar_draw_matches_generator_stream(self):
        drawn = draw_offsets(1e-3, 5, rng=42)
        expected = np.random.default_rng(42).normal(0.0, 1e-3, size=5)
        assert np.array_equal(drawn, expected)


class TestVariationStreamExactness:
    """``apply_batch`` consumes generators exactly like sequential apply."""

    @pytest.mark.parametrize(
        "model",
        [
            NoVariation(),
            GaussianVariation(5e-6),
            RelativeGaussianVariation(0.05),
            LognormalVariation(0.05),
        ],
        ids=lambda m: type(m).__name__,
    )
    @given(trials=st.integers(1, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_batch_equals_sequential_stream(self, model, trials, seed):
        target = np.abs(np.random.default_rng(seed).uniform(0.0, 1e-4, size=(4, 3)))
        batched = model.apply_batch(target, trials, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        sequential = np.stack([model.apply(target, rng) for _ in range(trials)])
        assert np.array_equal(batched, sequential)


# ----------------------------------------------------------------------
# end-to-end: scalar vs trial-batched engine
# ----------------------------------------------------------------------


def _trial_solvers(config, stages=(2,)):
    """``(factories for run_trials, instances for run_trials_batched)``."""
    factories = {
        "orig": lambda: OriginalAMCSolver(config),
        "block": lambda: BlockAMCSolver(config),
    }
    for depth in stages:
        factories[f"stage{depth}"] = lambda depth=depth: MultiStageSolver(config, stages=depth)
    return factories, {name: factory() for name, factory in factories.items()}


class _ZeroTileFactory:
    """Dominant matrices, some with an all-zero two-stage ``A2`` tile.

    ``zero_every=1`` zeroes the tile in every matrix (the trials agree,
    and the stacked tree skips the tile); ``zero_every=2`` in every other
    one (the trials of a size disagree). Stateful, so build a fresh one
    per sweep: both sweeps call it in the same order.
    """

    def __init__(self, zero_every: int):
        self.zero_every = zero_every
        self.calls = 0

    def __call__(self, n, rng):
        matrix = diagonally_dominant_matrix(n, rng)
        if self.calls % self.zero_every == 0:
            tile = (n + 3) // 4  # terminal tile size of a two-stage tree
            matrix[:tile, (n + 1) // 2 : (n + 1) // 2 + tile] = 0.0
        self.calls += 1
        return matrix


class TestScalarVsTrialBatched:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
    def test_records_bit_identical(self, config_name, family):
        factories, solvers = _trial_solvers(CONFIGS[config_name])
        factory = MATRIX_FAMILIES[family]
        sizes, trials = (6, 9, 12), 3
        seq = run_trials(factories, factory, sizes, trials, seed=70)
        bat = run_trials_batched(solvers, factory, sizes, trials, seed=70)
        _records_exactly_equal(seq, bat)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
    def test_three_stage_records_bit_identical(self, config_name, family):
        """A three-stage tree: glue nodes over glue nodes, odd splits."""
        config = CONFIGS[config_name]
        factory = MATRIX_FAMILIES[family]
        seq = run_trials(
            {"stage3": lambda: MultiStageSolver(config, stages=3)}, factory, (16, 19), 2,
            seed=72,
        )
        bat = run_trials_batched(
            {"stage3": MultiStageSolver(config, stages=3)}, factory, (16, 19), 2, seed=72
        )
        _records_exactly_equal(seq, bat)

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_solver_runs_batched_not_fallback(self, config_name):
        """Every solver of the grid has a trials runner — otherwise the
        equivalence tests above would compare the fallback with itself."""
        _, solvers = _trial_solvers(CONFIGS[config_name], stages=(1, 2, 3))
        for name, solver in solvers.items():
            assert make_batched_runner(solver) is not None, name

    @pytest.mark.parametrize("zero_every", [1, 2], ids=["trials-agree", "trials-differ"])
    def test_zero_tiles_bit_identical(self, zero_every):
        """All-zero tiles make no programming draw. Trials that agree on
        them run stacked; trials that disagree run per trial."""
        config = CONFIGS["variation"]
        factories, solvers = _trial_solvers(config)
        seq = run_trials(factories, _ZeroTileFactory(zero_every), (8, 12), 3, seed=8)
        bat = run_trials_batched(solvers, _ZeroTileFactory(zero_every), (8, 12), 3, seed=8)
        _records_exactly_equal(seq, bat)

    def test_noise_configs_run_batched_not_fallback(self):
        """The noise configs exercise the batched engine, not the scalar
        fallback — otherwise their equivalence tests would be vacuous."""
        from repro.core.batched import is_batchable_config

        for name in ("output_noise", "snh_noise", "noisy_saturating"):
            config = CONFIGS[name]
            assert is_batchable_config(config), name
            assert make_batched_runner(OriginalAMCSolver(config)) is not None, name
            assert make_batched_runner(BlockAMCSolver(config)) is not None, name

    def test_exact_parasitics_config_runs_batched_not_fallback(self):
        """Exact extraction is batchable (ISSUE-8) — its equivalence
        tests above must exercise the batched engine, not the scalar
        fallback."""
        from repro.core.batched import is_batchable_config

        config = CONFIGS["exact_parasitics"]
        assert config.parasitics.fidelity == "exact"
        assert is_batchable_config(config)
        assert make_batched_runner(OriginalAMCSolver(config)) is not None
        assert make_batched_runner(BlockAMCSolver(config)) is not None

    def test_noise_configs_bit_identical_under_ranging_reruns(self):
        """Fresh noise redraws per ranging attempt, exactly like scalar."""
        factories, solvers = _trial_solvers(CONFIGS["noisy_saturating"])
        factory = MATRIX_FAMILIES["graded"]
        seq = run_trials(factories, factory, (10, 12), 3, seed=11)
        bat = run_trials_batched(solvers, factory, (10, 12), 3, seed=11)
        _records_exactly_equal(seq, bat)

    @pytest.mark.parametrize(
        "matrix, error",
        [
            (np.zeros((8, 8)), {"orig": MappingError, "block": MappingError,
                                "stage2": MappingError}),
            # A1 = 0: the partitioned solvers cannot split it.
            (np.eye(8)[::-1].copy(), {"orig": None, "block": PartitionError,
                                      "stage2": PartitionError}),
        ],
        ids=["all-zero", "singular-a1"],
    )
    def test_bad_matrix_fails_like_per_trial(self, matrix, error):
        """A system the solvers cannot map or partition fails with the same
        exception class whether or not the solver batches."""

        def outcome(sweep, solver):
            try:
                return sweep({"s": solver}, lambda n, rng: matrix, (8,), 2, seed=1)
            except Exception as exc:  # noqa: BLE001 - the class is the result
                return type(exc)

        factories, solvers = _trial_solvers(CONFIGS["variation"])
        for name, solver in solvers.items():
            seq = outcome(run_trials, factories[name])
            bat = outcome(run_trials_batched, solver)
            if error[name] is None:
                _records_exactly_equal(seq, bat)
            else:
                assert seq is bat is error[name], name

    def test_unsupported_solver_has_no_runner(self):
        assert make_batched_runner(object()) is None

    def test_zero_trials_give_no_records(self):
        factories, solvers = _trial_solvers(CONFIGS["variation"])
        factory = MATRIX_FAMILIES["wishart"]
        assert run_trials(factories, factory, (8,), 0, seed=1) == []
        assert run_trials_batched(solvers, factory, (8,), 0, seed=1) == []

    def test_graded_family_actually_reran_ranging(self):
        """The ill-conditioned family exercises the rerun path (sanity)."""
        config = CONFIGS["variation"]
        matrix = graded_matrix(12, 0.8, rng=3)
        b = random_vector(12, rng=4)
        result = OriginalAMCSolver(config).solve(matrix, b, rng=7)
        k0 = input_voltage_scale(b, config.converters.v_fs)
        assert result.metadata["input_scale"] != k0


# ----------------------------------------------------------------------
# end-to-end: scalar oracle loop vs multi-RHS solve_many
# ----------------------------------------------------------------------


class TestScalarVsMultiRHS:
    @pytest.mark.parametrize(
        "config_name",
        ["ideal", "variation", "coarse_quant", "saturating", "snh_gain_error"],
    )
    @pytest.mark.parametrize("rhs_count", [1, 2, 5])
    def test_solve_many_bit_identical(self, config_name, rhs_count):
        config = CONFIGS[config_name]
        matrix = wishart_matrix(17, rng=0)
        rhs = [random_vector(17, rng=i + 1) for i in range(rhs_count)]
        sequential_prep = BlockAMCSolver(config).prepare(matrix, rng=5)
        gen = np.random.default_rng(9)
        sequential = [oracle_solve(sequential_prep, b, gen) for b in rhs]
        batched_prep = BlockAMCSolver(config).prepare(matrix, rng=5)
        batched = batched_prep.solve_many(rhs, np.random.default_rng(9))
        for s, b in zip(sequential, batched):
            _results_exactly_equal(s, b)

    def test_solve_many_with_ranging_rerun(self):
        """Clipping right-hand sides rerun per column, like scalar calls."""
        config = CONFIGS["variation"]
        matrix = graded_matrix(14, 0.8, rng=6)
        rhs = [random_vector(14, rng=i) for i in range(4)]
        prep_a = BlockAMCSolver(config).prepare(matrix, rng=5)
        gen = np.random.default_rng(9)
        sequential = [oracle_solve(prep_a, b, gen) for b in rhs]
        prep_b = BlockAMCSolver(config).prepare(matrix, rng=5)
        batched = prep_b.solve_many(rhs, np.random.default_rng(9))
        k0 = input_voltage_scale_many(np.stack(rhs), config.converters.v_fs)
        reran = [
            r.metadata["input_scale"] != k for r, k in zip(batched, k0)
        ]
        assert any(reran), "workload must exercise the rerun path"
        for s, b in zip(sequential, batched):
            _results_exactly_equal(s, b)

    def test_batch_composition_invariance(self):
        """A column's bits never depend on its batch neighbours."""
        config = CONFIGS["variation"]
        matrix = wishart_matrix(16, rng=2)
        rhs = [random_vector(16, rng=i) for i in range(6)]
        prep = BlockAMCSolver(config).prepare(matrix, rng=5)
        full = prep.solve_many(rhs, np.random.default_rng(0))
        prefix = prep.solve_many(rhs[:2], np.random.default_rng(0))
        for a, b in zip(prefix, full[:2]):
            _results_exactly_equal(a, b)
        # reversed order: each result only depends on its own column
        swapped = prep.solve_many(list(reversed(rhs)), np.random.default_rng(0))
        for a, b in zip(reversed(swapped), full):
            _results_exactly_equal(a, b)


# ----------------------------------------------------------------------
# end-to-end: multi-stage solve_many vs the scalar oracle loop
# ----------------------------------------------------------------------


def _multistage_results_exactly_equal(s, b):
    """Full multi-stage SolveResult comparison, bit-for-bit."""
    assert np.array_equal(s.x, b.x)
    assert np.array_equal(s.reference, b.reference)
    assert s.relative_error == b.relative_error
    assert s.saturated == b.saturated
    assert s.analog_time_s == b.analog_time_s
    assert s.solver == b.solver
    assert s.metadata == b.metadata
    assert len(s.operations) == len(b.operations)
    for op_s, op_b in zip(s.operations, b.operations):
        assert op_s.label == op_b.label and op_s.kind == op_b.kind
        assert np.array_equal(op_s.output, op_b.output), op_s.label
        assert np.array_equal(op_s.ideal_output, op_b.ideal_output), op_s.label
        assert op_s.settling_time_s == op_b.settling_time_s
        assert op_s.saturated == op_b.saturated
        assert (op_s.rows, op_s.cols, op_s.opa_count, op_s.device_count) == (
            op_b.rows, op_b.cols, op_b.opa_count, op_b.device_count
        )


#: Configurations the multi-stage recursion batches across columns,
#: plus the fresh-noise ones it runs batch-of-1 per column (one shared
#: generator must replay the sequential stream).
MULTISTAGE_BATCHED_CONFIGS = [
    "ideal", "variation", "interconnect", "exact_parasitics",
    "coarse_quant", "saturating", "snh_gain_error",
]
MULTISTAGE_FALLBACK_CONFIGS = ["output_noise", "snh_noise"]


class TestScalarVsMultiStageMany:
    def _compare(self, config, matrix, rhs_count, stages=2, prep_seed=5, solve_seed=9):
        n = matrix.shape[0]
        rhs = [random_vector(n, rng=i + 1) for i in range(rhs_count)]
        sequential_prep = MultiStageSolver(config, stages=stages).prepare(
            matrix, rng=prep_seed
        )
        gen = np.random.default_rng(solve_seed)
        sequential = [oracle_solve(sequential_prep, b, gen) for b in rhs]
        batched_prep = MultiStageSolver(config, stages=stages).prepare(
            matrix, rng=prep_seed
        )
        batched = batched_prep.solve_many(rhs, np.random.default_rng(solve_seed))
        for s, b in zip(sequential, batched):
            _multistage_results_exactly_equal(s, b)
        return batched

    @pytest.mark.parametrize("config_name", MULTISTAGE_BATCHED_CONFIGS)
    @pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
    def test_solve_many_bit_identical(self, config_name, family):
        matrix = MATRIX_FAMILIES[family](16, np.random.default_rng(0))
        self._compare(CONFIGS[config_name], matrix, rhs_count=4)

    @pytest.mark.parametrize("config_name", MULTISTAGE_FALLBACK_CONFIGS)
    def test_noise_configs_fall_back_bit_identical(self, config_name):
        """Per-operation-noise configs run the engine batch-of-1 per
        column with the shared generator — bit-identical to the loop."""
        matrix = MATRIX_FAMILIES["wishart"](12, np.random.default_rng(2))
        self._compare(CONFIGS[config_name], matrix, rhs_count=3)

    def test_mna_config_falls_back_bit_identical(self):
        """MNA configs batch too: each column solves the assembled netlist."""
        config = HardwareConfig.paper_variation().with_(use_mna=True)
        matrix = MATRIX_FAMILIES["dominant"](8, np.random.default_rng(4))
        self._compare(config, matrix, rhs_count=2)

    def test_non_power_of_two_and_deeper_recursion(self):
        config = CONFIGS["variation"]
        matrix = MATRIX_FAMILIES["dominant"](11, np.random.default_rng(6))
        self._compare(config, matrix, rhs_count=3)
        matrix3 = MATRIX_FAMILIES["wishart"](12, np.random.default_rng(7))
        self._compare(config, matrix3, rhs_count=3, stages=3)

    def test_direct_inv_fallback_nodes(self):
        """Deep partitioning of a tiny system reaches the 1x1 direct-INV
        terminal nodes in both the oracle and the batched recursion."""
        config = CONFIGS["variation"]
        matrix = MATRIX_FAMILIES["dominant"](4, np.random.default_rng(8))
        self._compare(config, matrix, rhs_count=3, stages=3)

    def test_lean_fallback_path(self):
        """lean=True composes with the per-column noise loop."""
        config = CONFIGS["output_noise"]
        matrix = MATRIX_FAMILIES["wishart"](12, np.random.default_rng(5))
        rhs = [random_vector(12, rng=i) for i in range(3)]
        prep = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)
        full = prep.solve_many(rhs, np.random.default_rng(0))
        prep2 = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)
        lean = prep2.solve_many(rhs, np.random.default_rng(0), lean=True)
        for f, l in zip(full, lean):
            assert np.array_equal(f.x, l.x)
            assert f.saturated == l.saturated

    def test_empty_batch_and_bad_stage_count(self):
        prep = MultiStageSolver(CONFIGS["ideal"], stages=2).prepare(
            MATRIX_FAMILIES["wishart"](8, np.random.default_rng(0)), rng=1
        )
        with pytest.raises(ValidationError, match="at least one"):
            prep.solve_many([])
        with pytest.raises(SolverError):
            MultiStageSolver(stages=0)
        assert MultiStageSolver(stages=2).name == "blockamc-2stage"

    def test_ranging_rerun_columns_match(self):
        """Ill-conditioned blocks rerun gain ranging per column."""
        matrix = graded_matrix(14, 0.8, rng=6)
        self._compare(CONFIGS["variation"], matrix, rhs_count=4)

    def test_32_rhs_batch_bit_identical(self):
        """The acceptance-criterion batch size, asserted exactly."""
        matrix = MATRIX_FAMILIES["wishart"](16, np.random.default_rng(1))
        batched = self._compare(CONFIGS["variation"], matrix, rhs_count=32)
        assert len(batched) == 32

    def test_batch_composition_invariance(self):
        """A column's bits never depend on its batch neighbours."""
        config = CONFIGS["variation"]
        matrix = MATRIX_FAMILIES["wishart"](16, np.random.default_rng(3))
        rhs = [random_vector(16, rng=i) for i in range(6)]
        prep = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)
        full = prep.solve_many(rhs, np.random.default_rng(0))
        prefix = prep.solve_many(rhs[:2], np.random.default_rng(0))
        for a, b in zip(prefix, full[:2]):
            _multistage_results_exactly_equal(a, b)
        swapped = prep.solve_many(list(reversed(rhs)), np.random.default_rng(0))
        for a, b in zip(reversed(swapped), full):
            _multistage_results_exactly_equal(a, b)

    def test_lean_mode_same_solution_bits(self):
        config = CONFIGS["variation"]
        matrix = MATRIX_FAMILIES["wishart"](16, np.random.default_rng(8))
        rhs = [random_vector(16, rng=i) for i in range(5)]
        prep = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)
        full = prep.solve_many(rhs, np.random.default_rng(0))
        lean = prep.solve_many(rhs, np.random.default_rng(0), lean=True)
        for f, l in zip(full, lean):
            assert np.array_equal(f.x, l.x)
            assert np.array_equal(f.reference, l.reference)
            assert f.relative_error == l.relative_error
            assert f.saturated == l.saturated
            assert f.analog_time_s == l.analog_time_s
            assert l.operations == ()
            assert l.metadata == {}

    def test_interleaved_scalar_and_batched_share_offsets(self):
        """Quasi-static offsets drawn by the oracle are the tree's own:
        later engine solves see them, exactly like repeated solves."""
        config = CONFIGS["variation"]
        matrix = MATRIX_FAMILIES["wishart"](16, np.random.default_rng(9))
        b = random_vector(16, rng=1)
        prep = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)
        warm = oracle_solve(prep, b, np.random.default_rng(0))  # draws all offsets
        (batched,) = prep.solve_many([b], np.random.default_rng(123))
        again = prep.solve(b, np.random.default_rng(456))
        assert np.array_equal(warm.x, batched.x)
        assert np.array_equal(batched.x, again.x)


# ----------------------------------------------------------------------
# input scaling and gain-ranging edge cases
# ----------------------------------------------------------------------


class TestInputScaling:
    def test_zero_b_rejected_scalar(self):
        with pytest.raises(ValidationError, match="non-zero"):
            input_voltage_scale(np.zeros(4), 1.0)

    def test_zero_row_rejected_batched(self):
        bs = np.ones((3, 4))
        bs[1] = 0.0
        with pytest.raises(ValidationError, match="non-zero"):
            input_voltage_scale_many(bs, 1.0)

    def test_near_zero_b_scales_finite_and_matches(self):
        b = np.full(4, 1e-300)
        scalar = input_voltage_scale(b, 1.0)
        assert np.isfinite(scalar) and scalar > 0.0
        many = input_voltage_scale_many(np.stack([b, b * 2.0]), 1.0)
        assert many[0] == scalar

    @pytest.mark.parametrize("scale", [input_voltage_scale, input_voltage_scale_many])
    def test_fraction_bounds_enforced(self, scale):
        with pytest.raises(ValidationError):
            scale(np.ones(3), 1.0, fraction=0.0)
        with pytest.raises(ValidationError):
            scale(np.ones(3), 1.0, fraction=1.0)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_batched_scale_matches_scalar_rows(self, seed, rows):
        bs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(rows, 5))
        bs[np.all(bs == 0.0, axis=1)] = 1.0
        many = input_voltage_scale_many(bs, 1.0)
        for r in range(rows):
            assert many[r] == input_voltage_scale(bs[r], 1.0)


class TestGainRangingEdgeCases:
    V_FS = 1.0

    def _linear_run(self, gain):
        """An analog stage whose peak is ``gain * k`` (linear, like INV)."""
        calls = []

        def run(k):
            calls.append(k)
            return gain * k, {"k_seen": k}

        return run, calls

    def test_accepts_first_attempt_when_within_headroom(self):
        run, calls = self._linear_run(gain=1.0)
        payload, k = auto_range(run, 0.5, self.V_FS)
        assert len(calls) == 1 and k == 0.5
        assert payload["k_seen"] == 0.5

    def test_clipping_rerun_rescales_with_margin(self):
        run, calls = self._linear_run(gain=4.0)
        payload, k = auto_range(run, 0.5, self.V_FS)
        # first attempt peaks at 2.0 > 0.9: one corrective rerun lands
        # exactly on the ranging_rescale target
        expected = ranging_rescale(0.5, 2.0, self.V_FS)
        assert len(calls) == 2
        assert k == expected == 0.5 * (RANGING_HEADROOM / 2.0) * QUANTIZATION_MARGIN
        assert payload["k_seen"] == expected

    def test_exhaustion_returns_last_attempt(self):
        """A stage that always clips still returns after MAX attempts."""
        calls = []

        def run(k):
            calls.append(k)
            return 10.0 * self.V_FS, {"k_seen": k}  # never within headroom

        payload, k = auto_range(run, 1.0, self.V_FS)
        assert len(calls) == MAX_RANGING_ATTEMPTS
        assert k == calls[-1] and payload["k_seen"] == calls[-1]
        # every rescale applied the single policy step
        for before, after in zip(calls, calls[1:]):
            assert after == ranging_rescale(before, 10.0 * self.V_FS, self.V_FS)

    def test_auto_range_many_matches_scalar_elementwise(self):
        """The vectorized loop is the scalar loop, trial by trial."""
        gains = np.array([0.5, 3.0, 8.0, 40.0])

        def run_many(k, indices):
            peaks = gains[indices] * k
            return peaks, {"k_seen": k.copy()}

        k0 = np.full(gains.size, 0.6)
        final, final_k = auto_range_many(run_many, k0, self.V_FS)
        for t, gain in enumerate(gains):
            run, _ = self._linear_run(gain)
            payload, k = auto_range(run, 0.6, self.V_FS)
            assert final_k[t] == k
            assert final["k_seen"][t] == payload["k_seen"]

    def test_auto_range_many_exhaustion_subset(self):
        """Trials that never settle take all attempts; others exit early."""
        attempts_seen = {"count": 0}

        def run_many(k, indices):
            attempts_seen["count"] += 1
            peaks = np.where(indices == 1, 10.0, 0.5 * self.V_FS)
            return peaks, {"k_seen": k.copy()}

        k0 = np.array([0.4, 0.4])
        final, final_k = auto_range_many(run_many, k0, self.V_FS)
        assert attempts_seen["count"] == MAX_RANGING_ATTEMPTS
        assert final_k[0] == 0.4  # accepted on attempt 0
        assert final_k[1] != 0.4  # rescaled every attempt
        assert final["k_seen"][1] == final_k[1]


# ----------------------------------------------------------------------
# float32 precision tier: the documented tolerance contract, on the grid
# ----------------------------------------------------------------------


def _f32(config: HardwareConfig) -> HardwareConfig:
    return config.with_(backend="numpy-f32")


class TestFloat32Tier:
    """``numpy-f32`` satisfies :data:`repro.core.backend.F32_TOLERANCE`.

    Bit-identity to float64 is meaningless at this tier (converter code
    flips at LSB boundaries); the contract is the relative-L1 bound the
    backend declares, checked on the full config x matrix-family grid.
    Within the tier, however, the kernel's shape-equivalence guarantees
    still hold bit-exactly — scalar and batched float32 runs produce the
    same float32 bits.
    """

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
    def test_solution_within_contract(self, config_name, family):
        from repro.core.backend import get_backend

        config = CONFIGS[config_name]
        matrix = MATRIX_FAMILIES[family](12, np.random.default_rng(0))
        b = random_vector(12, rng=1)
        ref = BlockAMCSolver(config).solve(matrix, b, rng=7)
        f32 = BlockAMCSolver(_f32(config)).solve(matrix, b, rng=7)
        tolerance = get_backend("numpy-f32").tolerance
        assert f32.x.dtype == np.float32
        assert ref.x.dtype == np.float64
        assert tolerance.admits(f32.x, ref.x), (
            f"deviation {tolerance.deviation(f32.x, ref.x):.3e} exceeds "
            f"the f32 tier contract for {config_name}/{family}"
        )
        # The digital reference is precision-tier-independent: always
        # float64, bit-identical across tiers.
        assert f32.reference.dtype == np.float64
        assert np.array_equal(f32.reference, ref.reference)

    @pytest.mark.parametrize(
        "config_name", ["ideal", "variation", "output_noise", "exact_parasitics"]
    )
    def test_scalar_vs_batched_bit_identical_within_tier(self, config_name):
        """Tier changes precision, not the shape-equivalence contract."""
        factories, solvers = _trial_solvers(_f32(CONFIGS[config_name]))
        factory = MATRIX_FAMILIES["wishart"]
        seq = run_trials(factories, factory, (6, 10), 3, seed=70)
        bat = run_trials_batched(solvers, factory, (6, 10), 3, seed=70)
        _records_exactly_equal(seq, bat)

    def test_snh_noise_trials_bit_identical_within_tier(self):
        """Noisy S&H hands float64 voltages to the next op, which casts
        them to the tier — the trial-batched engine must do the same
        (casting the held voltages back first rounds twice)."""
        config = _f32(CONFIGS["snh_noise"])
        factory = MATRIX_FAMILIES["wishart"]
        seq = run_trials(
            {"block": lambda: BlockAMCSolver(config),
             "stage2": lambda: MultiStageSolver(config)},
            factory, (6, 10, 16), 4, seed=70,
        )
        bat = run_trials_batched(
            {"block": BlockAMCSolver(config), "stage2": MultiStageSolver(config)},
            factory, (6, 10, 16), 4, seed=70,
        )
        _records_exactly_equal(seq, bat)

    def test_solve_many_bit_identical_within_tier(self):
        config = _f32(CONFIGS["variation"])
        matrix = wishart_matrix(12, rng=0)
        rhs = [random_vector(12, rng=i + 1) for i in range(4)]
        prep_seq = BlockAMCSolver(config).prepare(matrix, rng=5)
        gen = np.random.default_rng(9)
        sequential = [oracle_solve(prep_seq, b, gen) for b in rhs]
        prep_many = BlockAMCSolver(config).prepare(matrix, rng=5)
        batched = prep_many.solve_many(rhs, np.random.default_rng(9))
        for s, b in zip(sequential, batched):
            assert s.x.dtype == np.float32 and b.x.dtype == np.float32
            _results_exactly_equal(s, b)

    def test_multistage_f32_within_contract(self):
        config = CONFIGS["variation"]
        matrix = wishart_matrix(16, np.random.default_rng(4))
        b = random_vector(16, rng=2)
        ref = MultiStageSolver(config, stages=2).prepare(matrix, rng=5).solve(
            b, np.random.default_rng(9)
        )
        f32 = MultiStageSolver(_f32(config), stages=2).prepare(matrix, rng=5).solve(
            b, np.random.default_rng(9)
        )
        from repro.core.backend import F32_TOLERANCE

        assert f32.x.dtype == np.float32
        assert F32_TOLERANCE.admits(f32.x, ref.x)

    def test_relative_error_stays_small_at_f32(self):
        """The paper's Eq. 6 metric barely moves at the f32 tier — the
        analog nonidealities dominate float32 rounding by orders of
        magnitude."""
        config = CONFIGS["variation"]
        matrix = wishart_matrix(12, np.random.default_rng(1))
        b = random_vector(12, rng=3)
        ref = OriginalAMCSolver(config).solve(matrix, b, rng=7)
        f32 = OriginalAMCSolver(_f32(config)).solve(matrix, b, rng=7)
        assert abs(f32.relative_error - ref.relative_error) < 5e-3


# ----------------------------------------------------------------------
# drift guards: a skewed copy of the physics fails this suite
# ----------------------------------------------------------------------


class TestMarginDriftGuard:
    """The 0.95 quantization margin exists exactly once.

    These tests demonstrate the suite's detection power: reintroducing a
    private ranging margin in one path (simulated by patching only the
    solver-tree nodes' view of ``auto_range_many`` — what the prepared
    and trial-batched original AMC run on) makes the equivalence
    assertions fail on a ranging-heavy workload. The sequential side is
    the scalar oracle, whose ranging loop is ``auto_range``.
    """

    def _sweep(self, config):
        factory = MATRIX_FAMILIES["graded"]
        seq = run_trials(
            {"orig": lambda: OracleSolver(OriginalAMCSolver(config))},
            factory, (10, 12), 3, seed=11,
        )
        bat = run_trials_batched(
            {"orig": OriginalAMCSolver(config)}, factory, (10, 12), 3, seed=11
        )
        return seq, bat

    def test_unskewed_paths_agree(self):
        seq, bat = self._sweep(CONFIGS["variation"])
        _records_exactly_equal(seq, bat)

    def test_skewed_margin_in_one_path_is_detected(self, monkeypatch):
        """A drifted margin in the batched path breaks bit-equality."""

        def skewed_auto_range_many(run, k0, v_fs):
            count = k0.size
            k = k0.copy()
            active = np.arange(count)
            final: dict[str, np.ndarray] = {}
            final_k = k0.copy()
            for attempt in range(MAX_RANGING_ATTEMPTS):
                peaks, payload = run(k[active], active)
                if attempt == MAX_RANGING_ATTEMPTS - 1:
                    accept = np.ones_like(peaks, dtype=bool)
                else:
                    accept = peaks <= RANGING_HEADROOM * v_fs
                accepted = active[accept]
                for key, values in payload.items():
                    if key not in final:
                        final[key] = np.zeros(
                            (count, *values.shape[1:]), dtype=values.dtype
                        )
                    final[key][accepted] = values[accept]
                final_k[accepted] = k[active][accept]
                if np.all(accept):
                    return final, final_k
                rescale = ~accept
                # The drift under test: 0.90 instead of QUANTIZATION_MARGIN.
                k[active[rescale]] = (
                    k[active[rescale]]
                    * (RANGING_HEADROOM * v_fs / peaks[rescale])
                    * 0.90
                )
                active = active[rescale]
            return final, final_k

        monkeypatch.setattr(
            multistage_module, "auto_range_many", skewed_auto_range_many
        )
        seq, bat = self._sweep(CONFIGS["variation"])
        diverged = any(
            s.relative_error != b.relative_error for s, b in zip(seq, bat)
        )
        assert diverged, (
            "a skewed ranging margin in one path must break bit-equality "
            "(did the workload stop exercising gain ranging?)"
        )

    def test_margin_literal_not_duplicated_in_call_paths(self):
        """No call path re-states the 0.95 margin (single-source check)."""
        import inspect

        import repro.amc.ops as ops_module
        import repro.core.blockamc as blockamc_module
        import repro.core.original as original_module

        assert QUANTIZATION_MARGIN == 0.95
        for module in (
            batched_module,
            blockamc_module,
            multistage_module,
            ops_module,
            original_module,
        ):
            source = inspect.getsource(module)
            assert "0.95" not in source, (
                f"{module.__name__} re-states the ranging margin; use "
                "repro.core.common.ranging_rescale instead"
            )


# ----------------------------------------------------------------------
# columnar netlist vs object netlist: bit-identical AssembledMNA systems
# ----------------------------------------------------------------------


def _assert_identical_systems(reference, columnar):
    """Bitwise comparison of two assembled MNA systems."""
    ref = assemble_mna(reference)
    new = assemble_mna(columnar)
    assert isinstance(columnar, ColumnarCircuit)
    assert new.node_index == ref.node_index
    assert new.branch_index == ref.branch_index
    assert new.dense == ref.dense
    if ref.dense:
        assert new.matrix.tobytes() == ref.matrix.tobytes()
    else:
        assert new.matrix.data.tobytes() == ref.matrix.data.tobytes()
        assert new.matrix.indices.tobytes() == ref.matrix.indices.tobytes()
        assert new.matrix.indptr.tobytes() == ref.matrix.indptr.tobytes()
    assert new._source_rows == ref._source_rows
    assert new._base_values == ref._base_values
    return ref, new


#: Node pool for the property test: ground under every accepted spelling
#: plus a handful of regular nodes, so drawn elements hit the interning
#: and canonicalization paths in arbitrary mixtures.
_NODE_POOL = ("0", "gnd", "GND", "n1", "n2", "n3", "n4")

_ELEMENT_KINDS = ("R", "C", "L", "V", "I", "E", "U")


@st.composite
def _netlists(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for i in range(count):
        kind = draw(st.sampled_from(_ELEMENT_KINDS))
        nodes = [
            draw(st.sampled_from(_NODE_POOL))
            for _ in range(4 if kind == "E" else 3 if kind == "U" else 2)
        ]
        value = draw(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
        )
        specs.append((kind, nodes, value))
    return specs


def _build_object_netlist(specs) -> Circuit:
    circuit = Circuit()
    for i, (kind, nodes, value) in enumerate(specs):
        name = f"X{i}"
        if kind == "R":
            circuit.resistor(nodes[0], nodes[1], value, name)
        elif kind == "C":
            circuit.capacitor(nodes[0], nodes[1], value, name)
        elif kind == "L":
            circuit.inductor(nodes[0], nodes[1], value, name)
        elif kind == "V":
            circuit.vsource(nodes[0], nodes[1], value, name)
        elif kind == "I":
            circuit.isource(nodes[0], nodes[1], value, name)
        elif kind == "E":
            circuit.vcvs(nodes[0], nodes[1], nodes[2], nodes[3], value, name)
        else:
            circuit.opamp(nodes[0], nodes[1], nodes[2], name=name)
    return circuit


class TestColumnarVsObjectNetlist:
    @settings(max_examples=60, deadline=None)
    @given(specs=_netlists())
    def test_random_netlists_assemble_identically(self, specs):
        reference = _build_object_netlist(specs)
        columnar = ColumnarCircuit.from_circuit(reference)
        assert columnar.nodes() == reference.nodes()
        try:
            ref = assemble_mna(reference)
        except (ValidationError, Exception) as exc:
            # Netlists with no unknowns raise in both representations.
            with pytest.raises(type(exc)):
                assemble_mna(columnar)
            return
        _assert_identical_systems(reference, columnar)

    def test_multi_element_runs_match_per_element_stamping(self):
        """A bulk run's element-major COO emission equals per-element
        stamping — the ordering rule that keeps duplicate accumulation
        (and therefore every low bit) identical."""
        reference = Circuit()
        reference.resistors(
            ["a", "a", "b"], ["b", "0", "c"], [1.0, 2.0, 3.0],
            ["R0", "R1", "R2"],
        )
        reference.vsources(["a", "c"], ["0", "0"], [1.0, -2.0], ["V0", "V1"])
        reference.conductors(["b"], ["c"], [0.25], ["G0"])

        columnar = ColumnarCircuit()
        columnar.resistors(
            ["a", "a", "b"], ["b", "0", "c"], [1.0, 2.0, 3.0],
            ["R0", "R1", "R2"],
        )
        columnar.vsources(["a", "c"], ["0", "0"], [1.0, -2.0], ["V0", "V1"])
        columnar.conductors(["b"], ["c"], [0.25], ["G0"])
        _assert_identical_systems(reference, columnar)

    MVM_KWARGS = {
        "plain": {},
        "ladder": {"r_wire": 1.0},
        "finite_gain": {"opamp_gain": 2e4},
        "offsets": {"offsets": True},
        "everything": {"r_wire": 0.5, "opamp_gain": 1e5, "offsets": True},
    }

    @staticmethod
    def _mvm_args(rows, cols, sparse=False):
        rng = np.random.default_rng(17)
        g_pos = rng.uniform(1e-6, 1e-4, size=(rows, cols))
        g_neg = rng.uniform(1e-6, 1e-4, size=(rows, cols))
        if sparse:
            g_pos[rng.random((rows, cols)) < 0.4] = 0.0
            g_neg[rng.random((rows, cols)) < 0.4] = 0.0
        v_in = rng.uniform(-1.0, 1.0, size=cols)
        return g_pos, g_neg, v_in

    def _resolve(self, kwargs, rows):
        kwargs = dict(kwargs)
        if kwargs.pop("offsets", False):
            kwargs["offsets"] = np.linspace(-1e-3, 1e-3, rows)
        return kwargs

    @pytest.mark.parametrize("case", sorted(MVM_KWARGS))
    def test_mvm_generator_columnar_path(self, case):
        rows, cols = 5, 4
        g_pos, g_neg, v_in = self._mvm_args(rows, cols, sparse=True)
        kwargs = self._resolve(self.MVM_KWARGS[case], rows)
        ref_c, ref_out = build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, **kwargs)
        col_c, col_out = build_mvm_circuit(
            g_pos, g_neg, v_in, 1e-4, columnar=True, **kwargs
        )
        assert col_out == ref_out
        _assert_identical_systems(ref_c, col_c)
        ref_sol = solve_dc(ref_c)
        col_sol = solve_dc(col_c)
        assert np.array_equal(
            col_sol.voltages(col_out), ref_sol.voltages(ref_out)
        )
        assert np.array_equal(
            col_sol.resistor_power(), ref_sol.resistor_power()
        )

    @pytest.mark.parametrize("case", sorted(MVM_KWARGS))
    def test_inv_generator_columnar_path(self, case):
        n = 5
        g_pos, g_neg, v_in = self._mvm_args(n, n)
        kwargs = self._resolve(self.MVM_KWARGS[case], n)
        ref_c, ref_out = build_inv_circuit(g_pos, g_neg, v_in, 1e-4, **kwargs)
        col_c, col_out = build_inv_circuit(
            g_pos, g_neg, v_in, 1e-4, columnar=True, **kwargs
        )
        assert col_out == ref_out
        _assert_identical_systems(ref_c, col_c)
        ref_sol = solve_dc(ref_c)
        col_sol = solve_dc(col_c)
        assert np.array_equal(
            col_sol.voltages(col_out), ref_sol.voltages(ref_out)
        )

    def test_columnar_enforces_object_netlist_invariants(self):
        """The columnar container rejects exactly what the object
        netlist rejects — so equivalence can never be voided by one
        representation accepting a netlist the other refuses."""
        from repro.errors import CircuitError

        col = ColumnarCircuit()
        obj = Circuit()
        cases = [
            (lambda c: c.resistors(["a"], ["0"], [0.0], ["R1"]),),
            (lambda c: c.conductors(["a"], ["0"], [-1.0], ["G1"]),),
            (lambda c: c.resistors(["a", "b"], ["0"], [1.0], ["R1"]),),
            (lambda c: c.resistors([""], ["0"], [1.0], ["R1"]),),
            (lambda c: c.resistors(["a", "b"], ["0", "0"], [1.0, 1.0], ["R1", "R1"]),),
        ]
        for (call,) in cases:
            with pytest.raises(CircuitError):
                call(col)
            with pytest.raises(CircuitError):
                call(obj)
        # Columnar-only guard rails: ids out of range, unnamed branch
        # kinds, complex gains (AC is object-netlist territory).
        with pytest.raises(CircuitError, match="out of range"):
            col.resistors(
                np.array([9], dtype=np.intp), np.array([-1], dtype=np.intp), [1.0]
            )
        with pytest.raises(CircuitError, match="names"):
            col._append("V", None, 1, a=np.zeros(1, np.intp))
        with pytest.raises(CircuitError, match="real"):
            col.vcvs(["o"], ["0"], ["x"], ["y"], [1j], ["E1"])
        with pytest.raises(CircuitError, match="empty"):
            assemble_mna(ColumnarCircuit())
        grounded = ColumnarCircuit()
        grounded.resistors(["gnd"], ["GND"], [1.0])
        with pytest.raises(CircuitError, match="unknowns"):
            assemble_mna(grounded)
        # Duplicate-name collision across runs, like the object netlist.
        col2 = ColumnarCircuit()
        col2.vsources(["a"], ["0"], [1.0], ["V1"])
        with pytest.raises(CircuitError, match="duplicate"):
            col2.isources(["a"], ["0"], [1.0], ["V1"])

    def test_mvm_ladder_sparse_system_identical(self):
        """A ladder big enough to assemble sparse (csc path, not dense)."""
        rows = cols = 24
        g_pos, g_neg, v_in = self._mvm_args(rows, cols)
        ref_c, _ = build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0)
        col_c, _ = build_mvm_circuit(
            g_pos, g_neg, v_in, 1e-4, r_wire=1.0, columnar=True
        )
        ref, new = _assert_identical_systems(ref_c, col_c)
        assert not ref.dense


# ----------------------------------------------------------------------
# batched exact parasitics vs the scalar Schur engine
# ----------------------------------------------------------------------


class TestExactParasiticsBatchVsScalar:
    """``exact_effective_matrix_batch`` must be bit-identical per trial
    to ``exact_effective_matrix`` — same Schur assembly per element,
    same per-trial LAPACK sweep, same fallbacks."""

    @staticmethod
    def _stack(trials, rows, cols, seed, zero_frac=0.0):
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.0, 1e-4, size=(trials, rows, cols))
        if zero_frac:
            g[rng.random(g.shape) < zero_frac] = 0.0
        return g

    @staticmethod
    def _assert_bit_identical(g, r_wire):
        batch = exact_effective_matrix_batch(g, r_wire)
        for t in range(g.shape[0]):
            scalar = exact_effective_matrix(g[t], r_wire)
            assert batch[t].tobytes() == scalar.tobytes(), f"trial {t}"
        return batch

    @pytest.mark.parametrize(
        "shape", [(5, 8, 8), (4, 6, 10), (4, 10, 6), (3, 7, 1), (3, 1, 7), (2, 1, 1)]
    )
    def test_bit_identical_across_shapes(self, shape):
        self._assert_bit_identical(self._stack(*shape, seed=3), r_wire=1.0)

    @pytest.mark.parametrize("r_wire", [0.5, 2.0])
    def test_bit_identical_across_wire_resistance(self, r_wire):
        self._assert_bit_identical(self._stack(4, 6, 6, seed=5), r_wire)

    def test_zero_cells(self):
        self._assert_bit_identical(
            self._stack(4, 6, 6, seed=7, zero_frac=0.5), r_wire=1.0
        )

    def test_r_wire_zero_returns_copy(self):
        g = self._stack(3, 4, 4, seed=9)
        out = exact_effective_matrix_batch(g, 0.0)
        assert np.array_equal(out, g)
        assert out is not g

    def test_underflow_trials_reroute_to_lu_bit_identically(self):
        """A mixed stack: normal trials take the batched Schur path,
        extreme-chain trials reroute per trial to sparse LU exactly like
        the scalar auto-dispatch (including rows > cols orientation)."""
        g = self._stack(3, 40, 20, seed=11)
        g[1] = 1e9  # log-scan underflow: the scalar engine returns None
        self._assert_bit_identical(g, r_wire=1.0)

    def test_memory_limit_dispatches_to_scalar_loop(self, monkeypatch):
        """Over-budget shapes must match the scalar engine under the
        same budget (which then auto-dispatches to sparse LU)."""
        g = self._stack(3, 8, 8, seed=13)
        monkeypatch.setattr(parasitics_module, "_SCHUR_MEMORY_LIMIT_BYTES", 64)
        self._assert_bit_identical(g, 1.0)

    def test_chunking_does_not_change_bits(self, monkeypatch):
        g = self._stack(7, 6, 6, seed=15)
        reference = exact_effective_matrix_batch(g, 1.0)
        monkeypatch.setattr(parasitics_module, "_SCHUR_BATCH_CHUNK_BYTES", 1)
        chunked = exact_effective_matrix_batch(g, 1.0)
        assert chunked.tobytes() == reference.tobytes()

    def test_validation(self):
        good = self._stack(2, 4, 4, seed=17)
        with pytest.raises(ValidationError, match="3-D"):
            exact_effective_matrix_batch(good[0], 1.0)
        with pytest.raises(ValidationError, match="non-empty"):
            exact_effective_matrix_batch(np.empty((0, 4, 4)), 1.0)
        with pytest.raises(ValidationError, match="non-finite"):
            bad = good.copy()
            bad[0, 0, 0] = np.nan
            exact_effective_matrix_batch(bad, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            exact_effective_matrix_batch(-good, 1.0)
        with pytest.raises(ValueError, match="r_wire"):
            exact_effective_matrix_batch(good, -1.0)
