"""One-stage BlockAMC solver (the paper's main design, Figs. 2-4).

:class:`BlockAMCSolver` normalizes the matrix, runs the digital Schur
preprocessing, programs the four arrays of a
:class:`~repro.amc.macro.BlockAMCMacro`, executes the five-step analog
schedule, and recovers the digital solution.

Typical use::

    solver = BlockAMCSolver(HardwareConfig.paper_variation())
    result = solver.solve(matrix, b, rng=0)
    print(result.relative_error)

``prepare`` / ``PreparedBlockAMC.solve`` split programming from
execution for workloads that solve many right-hand sides against one
matrix (programming — and its variation draw — happens once).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import quantize_voltages
from repro.amc.macro import BlockAMCMacro, reference_schedule
from repro.amc.ops import AMCOperations, OpResult
from repro.amc.scheduler import ScheduleResult, simulate_schedule
from repro.circuits.dynamics import mvm_settling_time
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    FactoredSystem,
    LazyOffsets,
    NoiseDraws,
    auto_range_many,
    ideal_inv,
    ideal_mvm,
    input_voltage_scale_many,
    inv_loading,
    inv_rhs,
    inv_system,
    mvm_raw,
    saturate,
    solve_columns,
)
from repro.core.partition import PartitionSpec, build_macro_arrays, prepare_blocks
from repro.core.solution import LeanSolveResult, SolveResult
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import normalize_matrix
from repro.errors import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix, check_vector


def has_per_operation_randomness(config: HardwareConfig) -> bool:
    """True when a configuration draws fresh randomness per analog op.

    Op-amp output noise and sample-and-hold noise consume the generator
    once per operation (and per gain-ranging attempt). With one shared
    generator, a batch must therefore run column by column to replay
    the sequential stream: :meth:`PreparedBlockAMC.solve_many` and
    :meth:`~repro.core.multistage.PreparedMultiStage.solve_many` then
    run the cached engines batch-of-1 per right-hand side, and the
    serve layer (:mod:`repro.serve.cache`) does not coalesce such
    entries. MNA routing draws nothing per operation (its quasi-static
    offsets are drawn once, like the algebraic path's), so it batches.
    Keep these sites in agreement by keeping them on this function.
    """
    return (
        config.opamp.output_noise_sigma_v > 0.0
        or config.sample_hold.noise_sigma_v > 0.0
    )


@dataclass(frozen=True)
class BatchedOpSpec:
    """One analog operation's telemetry, stacked over a batch.

    The batched engines compute whole-batch outputs; result assembly
    slices per-column :class:`~repro.amc.ops.OpResult` objects out of
    these specs so a batched solve reports exactly the telemetry a
    scalar solve would.
    """

    label: str
    kind: str
    outputs: np.ndarray  # (batch, rows)
    ideal: np.ndarray  # (batch, rows)
    settling_time_s: float
    saturated: np.ndarray  # (batch,)
    rows: int
    cols: int
    device_count: int

    @classmethod
    def from_stage(cls, label: str, stage, outputs, inputs, saturated) -> "BatchedOpSpec":
        """One stage's accepted outputs; ideal outputs from its ``inputs``."""
        rows, cols = stage.array.shape
        return cls(
            label=label,
            kind=stage.kind,
            outputs=outputs,
            ideal=stage.ideal(inputs),
            settling_time_s=stage.settle,
            saturated=saturated,
            rows=rows,
            cols=cols,
            device_count=stage.array.device_count,
        )

    def op_result(self, c: int) -> OpResult:
        """The column-``c`` slice as a scalar-shaped :class:`OpResult`."""
        return OpResult(
            kind=self.kind,
            label=self.label,
            output=self.outputs[c],
            ideal_output=self.ideal[c],
            settling_time_s=self.settling_time_s,
            saturated=bool(self.saturated[c]),
            rows=self.rows,
            cols=self.cols,
            opa_count=self.rows,
            device_count=self.device_count,
        )


class _Stage:
    """One programmed array's batch-invariant state for row-stacked ops.

    The multi-RHS form of one :class:`~repro.amc.ops.AMCOperations` op:
    :meth:`op` runs it on the active columns in the scalar op's order —
    node equations (or, with MNA routing, each column's netlist solve
    through the ops' assembled-system cache), then the fresh
    output-noise draw, then saturation.
    """

    kind = ""

    def __init__(self, ops: AMCOperations, array: CrossbarArray):
        config = ops.config
        self.ops, self.array = ops, array
        self.mna = config.use_mna
        self.cast = config.resolve_backend().cast
        self.v_sat = config.opamp.v_sat

    def raw(self, v_in: np.ndarray, offsets: np.ndarray | None) -> np.ndarray:
        """Pre-noise, pre-saturation outputs for row-stacked inputs."""
        raise NotImplementedError

    def per_column(self, solve, v_in: np.ndarray) -> np.ndarray:
        """MNA routing: ``solve(array, v)`` per column, at float64."""
        return np.stack([solve(self.array, v) for v in np.asarray(v_in, dtype=np.float64)])

    def op(self, v_in, offsets, noise: NoiseDraws, indices):
        """``(outputs, saturated)`` of one operation on the active columns."""
        return saturate(noise.output(indices, self.raw(v_in, offsets)), self.v_sat)


class InvStage(_Stage):
    """An INV array: settling analysis and finite-gain system, factored once.

    The system ``M + diag(s + L) / A0`` is factored once and
    back-substituted per column, so each column is bit-identical to a
    scalar op; the ideal matrix is factored on first need (for the
    perfect-circuit outputs) and kept.
    """

    kind = "inv"

    def __init__(self, ops: AMCOperations, array: CrossbarArray, input_scale: float = 1.0):
        super().__init__(ops, array)
        self.input_scale = input_scale
        config = ops.config
        effective = array.effective_matrix(config.parasitics)
        # Settling runs on the float64 matrix: timing is tier-independent.
        self.settle = ops._inv_settle(effective)
        self._ideal_system: FactoredSystem | None = None
        if not self.mna:
            self.loading = inv_loading(self.cast(array.load_row_sums()), input_scale)
            self.system = FactoredSystem(
                inv_system(self.cast(effective), self.loading, config.opamp.open_loop_gain)
            )

    def raw(self, v_in, offsets):
        if self.mna:
            return self.per_column(
                lambda array, v: self.ops._inv_mna(array, v, self.input_scale, offsets),
                v_in,
            )
        rhs = inv_rhs(self.cast(v_in), self.loading, self.cast(offsets), self.input_scale)
        return self.system.solve(rhs)

    @property
    def ideal_system(self) -> FactoredSystem:
        """The ideal matrix, factored once on first use."""
        if self._ideal_system is None:
            self._ideal_system = FactoredSystem(
                self.ops._ideal_matrix(self.array), what="ideal block matrix"
            )
        return self._ideal_system

    def ideal(self, v_in: np.ndarray) -> np.ndarray:
        """Perfect-circuit outputs for inputs as the scalar op sees them (float64)."""
        return ideal_inv(self.ideal_system, np.asarray(v_in, dtype=np.float64), self.input_scale)


class MvmStage(_Stage):
    """An MVM array: effective matrix, row loads, and settling analysis."""

    kind = "mvm"

    def __init__(self, ops: AMCOperations, array: CrossbarArray):
        super().__init__(ops, array)
        config = ops.config
        self.a0 = config.opamp.open_loop_gain
        if not self.mna:
            self.effective = self.cast(array.effective_matrix(config.parasitics))
            self.loads = self.cast(array.load_row_sums())
        self.settle = mvm_settling_time(
            np.asarray(array.g_pos) + np.asarray(array.g_neg),
            array.g_unit,
            config.opamp.gbwp_hz,
        )

    def raw(self, v_in, offsets):
        if self.mna:
            return self.per_column(
                lambda array, v: self.ops._mvm_mna(array, v, offsets), v_in
            )
        return mvm_raw(self.effective, self.loads, self.cast(v_in), self.cast(offsets), self.a0)

    @property
    def ideal_matrix(self) -> np.ndarray:
        """The normalized target matrix (cheap to rebuild; not held)."""
        return self.ops._ideal_matrix(self.array)

    def ideal(self, v_in: np.ndarray) -> np.ndarray:
        """Perfect-circuit outputs for inputs as the scalar op sees them (float64)."""
        return ideal_mvm(self.ideal_matrix, np.asarray(v_in, dtype=np.float64))


def macro_offsets(ops: AMCOperations, rngs) -> LazyOffsets:
    """A programmed column's quasi-static offsets, drawn at first use.

    They live in ``ops``' own cache (one physical op-amp column, shared
    by every right-hand side and every later batch). The first ranging
    attempt covers every column, so column 0's generator draws them at
    the stream position a scalar solve of that column would.
    """
    return LazyOffsets(lambda size: ops._draw_offsets(size, rngs[0]))


class BatchedFiveStep:
    """The five-step schedule with matrix-valued intermediates.

    Bound to one programmed :class:`~repro.amc.macro.BlockAMCMacro`,
    this engine holds everything batch-invariant about the schedule —
    the four arrays' :class:`InvStage`/:class:`MvmStage` state
    (effective matrices, INV factorizations, settling analysis, ideal
    factorizations) — and executes a whole ``(batch, n)`` block of
    right-hand sides per :meth:`run` call, gain-ranging each column
    independently. Quasi-static op-amp offsets come from the macro's
    own cache, drawn at first use; output and S&H noise are drawn per
    active column and per ranging attempt from that column's generator.
    Every step goes through the shared kernel of
    :mod:`repro.core.common`, so column ``c`` of a batch is bit-identical
    to a scalar :meth:`BlockAMCMacro.solve` of the same vector with
    ``rngs[c]``.

    Every prepared solve delegates here: :meth:`PreparedBlockAMC.solve`
    and ``solve_many``, and the multi-stage solver's macro nodes
    (:mod:`repro.core.multistage`).
    """

    def __init__(self, macro: BlockAMCMacro):
        self.macro = macro
        self.config = macro.config
        arrays = macro.arrays
        self.ops = ops = macro.ops
        self.inv1 = InvStage(ops, arrays.a1)
        self.mvm3 = MvmStage(ops, arrays.a3)
        self.inv4 = InvStage(ops, arrays.a4s, arrays.schur_input_scale)
        self.mvm2 = MvmStage(ops, arrays.a2)
        #: (label, stage) of steps 1..5, in schedule order.
        self.steps = (
            ("step1:INV(A1)", self.inv1),
            ("step2:MVM(A3)", self.mvm3),
            ("step3:INV(A4s)", self.inv4),
            ("step4:MVM(A2)", self.mvm2),
            ("step5:INV(A1)", self.inv1),
        )
        self.split = arrays.upper_size
        self.lower = arrays.lower_size
        self.s_in = arrays.schur_input_scale
        self.conv = self.config.converters
        self.backend = self.config.resolve_backend()
        self._schur_reference: FactoredSystem | None = None

    def digitize(self, voltages: np.ndarray) -> np.ndarray:
        """ADC model (the shared shape-generic converter)."""
        return quantize_voltages(voltages, self.conv.adc_bits, self.conv.v_fs)

    def run(self, bs: np.ndarray, input_fraction: float, rngs):
        """Execute the schedule for row-stacked ``bs``; gain-range per column.

        ``rngs[c]`` is column ``c``'s generator (per-operation noise
        draws; column 0's also draws any offsets not yet drawn).
        Returns ``(final, final_k)`` from
        :func:`repro.core.common.auto_range_many`: the accepted step
        outputs/inputs (``s1``..``s5``, ``in1``..``in5``, ``f``, ``g``,
        ``sat``) and the accepted per-column input scales.
        """
        v_fs, dac_bits = self.conv.v_fs, self.conv.dac_bits
        split = self.split
        cast = self.backend.cast
        noise = NoiseDraws(rngs, self.config)
        offsets = macro_offsets(self.ops, rngs)

        def run_subset(k, indices):
            def op(stage, v_in, off):
                return stage.op(v_in, off, noise, indices)

            f = k[:, None] * bs[indices, :split]
            g = k[:, None] * bs[indices, split:]
            # DAC outputs enter the analog tier: cast to backend dtype
            # (identity on float64). ``f``/``g`` stay float64 for the
            # exact per-step references.
            v_f = cast(quantize_voltages(f, dac_bits, v_fs))
            v_g = cast(quantize_voltages(g, dac_bits, v_fs))
            # Stream order per column matches the scalar schedule:
            # offsets(k), noise1, S&H x2, offsets(m), noise2, S&H x2, ...
            off_k = offsets.take(split, indices)
            s1, sat1 = op(self.inv1, v_f, off_k)
            h1 = noise.snh_pair(indices, s1)
            off_m = offsets.take(self.lower, indices)
            s2, sat2 = op(self.mvm3, h1, off_m)
            h2 = noise.snh_pair(indices, s2)
            in3 = h2 - v_g
            s3, sat3 = op(self.inv4, in3, off_m)
            h3 = noise.snh_pair(indices, s3)
            s4, sat4 = op(self.mvm2, h3, off_k)
            h4 = noise.snh_pair(indices, s4)
            in5 = v_f + h4
            s5, sat5 = op(self.inv1, in5, off_k)
            outs = np.concatenate([s1, s2, s3, s4, s5], axis=1)
            peaks = np.max(np.abs(outs), axis=1)
            payload = {
                "s1": s1, "s2": s2, "s3": s3, "s4": s4, "s5": s5,
                "in1": v_f, "in2": h1, "in3": in3, "in4": h3, "in5": in5,
                "f": f, "g": g,
                "sat": np.stack([sat1, sat2, sat3, sat4, sat5], axis=1),
            }
            return peaks, payload

        k0 = input_voltage_scale_many(bs, v_fs, input_fraction)
        return auto_range_many(run_subset, k0, v_fs)

    def solution(self, final: dict, final_k: np.ndarray, scale: float) -> np.ndarray:
        """Digital solutions ``x`` of the accepted attempt, row-stacked.

        The divisor takes the outputs' dtype, like the scalar
        ``solution / (k * scale)`` whose Python float adopts it.
        """
        solution = np.concatenate(
            [-self.digitize(final["s5"]), self.digitize(final["s3"])], axis=1
        )
        return solution / (final_k * scale).astype(solution.dtype, copy=False)[:, None]

    def reference(self, final: dict) -> dict[str, np.ndarray]:
        """Exact-arithmetic per-step references (Fig. 6a curves), batched."""
        if self._schur_reference is None:
            self._schur_reference = FactoredSystem(
                self.ops._ideal_matrix(self.inv4.array) / self.s_in,
                what="Schur block",
            )
        return reference_schedule(
            self.inv1.ideal_system, self.mvm2.ideal_matrix, self.mvm3.ideal_matrix,
            self._schur_reference, final["f"], final["g"],
        )

    def step_specs(self, final: dict) -> tuple[BatchedOpSpec, ...]:
        """Per-step batched telemetry for the accepted attempt.

        Ideal (perfect-circuit) outputs are computed from the accepted
        inputs, exactly as the scalar ops record them.
        """
        sat = final["sat"]
        return tuple(
            BatchedOpSpec.from_stage(
                label, stage, final[f"s{num}"], final[f"in{num}"], sat[:, num - 1]
            )
            for num, (label, stage) in enumerate(self.steps, start=1)
        )


def solve_in_blocks(solve_block, rhs_batch, n: int, config, rng, lean: bool) -> tuple:
    """The shared front half of the prepared solvers' ``solve_many``.

    Validates the right-hand sides, then runs ``solve_block(bs, rngs,
    lean)`` once over the whole batch — or, when the configuration
    draws per-operation noise from the one shared generator, once per
    right-hand side (batch-of-1 on the same cached engines), which is
    what keeps the stream in sequential-loop order.
    """
    rhs_list = [np.asarray(b, dtype=float) for b in rhs_batch]
    if not rhs_list:
        raise ValidationError("rhs_batch must contain at least one vector")
    bs = np.stack([check_vector(b, "b", size=n) for b in rhs_list])
    rng = as_generator(rng)
    if has_per_operation_randomness(config):
        return tuple(
            result
            for c in range(len(bs))
            for result in solve_block(bs[c : c + 1], [rng], lean)
        )
    return solve_block(bs, [rng] * len(bs), lean)


@dataclass(frozen=True)
class PreparedBlockAMC:
    """A programmed one-stage solver bound to one matrix."""

    matrix: np.ndarray
    scale: float
    macro: BlockAMCMacro
    split: int
    schur_scale: float
    input_fraction: float

    @property
    def _engine(self) -> BatchedFiveStep:
        """The macro's five-step engine, built on first use and cached.

        Pure derived state (stored outside the frozen fields): offsets
        live in the macro's own quasi-static cache, so caching the
        engine changes no random stream.
        """
        engine = self.__dict__.get("_five_step")
        if engine is None:
            engine = BatchedFiveStep(self.macro)
            object.__setattr__(self, "_five_step", engine)
        return engine

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` for a new right-hand side on the programmed arrays.

        Exactly ``solve_many([b], rng)[0]``: a batch of one on the cached
        engine. Uses analog gain ranging: if any step's output approaches
        the converter full scale, the input scale is reduced and the
        analog pipeline rerun (see :func:`repro.core.common.auto_range`).
        """
        b = check_vector(b, "b", size=self.matrix.shape[0])
        return self.solve_many([b], rng)[0]

    def solve_many(
        self, rhs_batch, rng=None, *, lean: bool = False
    ) -> tuple[SolveResult, ...]:
        """Solve many right-hand sides with shared per-step factorizations.

        The programmed arrays, their effective matrices, and the
        eigenvalue/settling analysis are fixed across right-hand sides,
        so the five-step schedule runs once with *matrix-valued*
        intermediates: each INV step is one factorization for the whole
        batch (cached across batches) and each MVM step one contraction.
        Gain ranging still operates per right-hand side (columns rerun
        independently, exactly like sequential :meth:`solve` calls).

        Results are **bit-identical** to a sequential loop of
        :meth:`solve` calls: every step goes through the shared kernel
        of :mod:`repro.core.common`, whose multi-RHS solves factor once
        but back-substitute one column at a time (see
        :class:`repro.core.common.FactoredSystem`) and whose
        contractions are shape-stable. Configurations that draw fresh
        noise per operation consume the one generator in sequential
        order, so they run batch-of-1 per right-hand side on the same
        cached engine (see :func:`has_per_operation_randomness`).

        With ``lean=True`` the per-result payload is a
        :class:`~repro.core.solution.LeanSolveResult`: the solution and
        reference are the same bits, but the five per-step
        :class:`~repro.amc.ops.OpResult` objects, their ideal outputs,
        and the step-output metadata dicts are never constructed —
        result assembly dominates service-side time at scale (see
        ``BENCH_serving.json``).
        """
        return solve_in_blocks(
            self._solve_block, rhs_batch, self.matrix.shape[0], self.macro.config, rng, lean
        )

    def _solve_block(self, bs: np.ndarray, rngs, lean: bool) -> tuple:
        """One engine pass over row-stacked ``bs`` (``rngs[c]`` per column)."""
        macro = self.macro
        batch = bs.shape[0]
        engine = self._engine
        final, final_k = engine.run(bs, self.input_fraction, rngs)
        final_sat = final["sat"]
        x = engine.solution(final, final_k, self.scale)
        # The digital reference always stays float64.
        references = solve_columns(self.matrix, bs, what="system matrix")

        if lean:
            # Same summation order as SolveResult.analog_time_s (left
            # fold from 0 over steps 1..5) so the scalar is bit-identical.
            analog_total = sum(stage.settle for _, stage in engine.steps)
            return tuple(
                LeanSolveResult(
                    x=x[c],
                    reference=references[c],
                    solver="blockamc-1stage",
                    saturated=bool(final_sat[c].any()),
                    analog_time_s=float(analog_total),
                    metadata={"input_scale": float(final_k[c])},
                )
                for c in range(batch)
            )

        reference = engine.reference(final)
        # Per-step invariants resolve once inside the specs: OpResult
        # construction runs batch x 5 times and dominates assembly time
        # if the macro properties are recomputed per result.
        specs = engine.step_specs(final)
        metadata_common = {
            "scale": self.scale,
            "split": self.split,
            "schur_scale": self.schur_scale,
            "opa_count": macro.opa_count,
            "dac_count": macro.dac_count,
            "adc_count": macro.adc_count,
            "device_count": macro.device_count,
            "dac_conversions": 2,
            "adc_conversions": 2,
        }
        results = []
        for c in range(batch):
            steps = tuple(spec.op_result(c) for spec in specs)
            reference_steps = {name: rows[c] for name, rows in reference.items()}
            results.append(
                SolveResult(
                    x=x[c],
                    reference=references[c],
                    solver="blockamc-1stage",
                    operations=steps,
                    metadata={
                        **metadata_common,
                        "input_scale": float(final_k[c]),
                        "reference_steps": reference_steps,
                        "step_outputs": {
                            step.label: step.output for step in steps
                        },
                    },
                )
            )
        return tuple(results)

    def solve_batch(
        self,
        rhs_batch,
        rng=None,
        *,
        pipelined: bool = True,
        t_dac_s: float = 50e-9,
        t_adc_s: float = 100e-9,
        t_snh_s: float = 5e-9,
    ) -> "BatchResult":
        """Solve a batch of right-hand sides and model the macro timeline.

        The paper's double-buffered S&H banks let consecutive problems
        pipeline: while problem ``p`` converts its outputs, problem
        ``p+1`` already occupies the analog arrays. This method solves
        every system (exact results, fresh hardware noise per solve) and
        runs the discrete-event schedule for the whole batch, so both
        numerical quality and throughput come from one call.

        Parameters
        ----------
        rhs_batch:
            Iterable of right-hand-side vectors.
        rng:
            Seed or generator (shared stream across the batch).
        pipelined:
            Enable the double-buffered S&H overlap (False = single
            buffered, every stage serializes).
        t_dac_s, t_adc_s, t_snh_s:
            Converter and sample-and-hold timing assumptions.
        """
        rhs_batch = list(rhs_batch)
        if not rhs_batch:
            raise ValidationError("rhs_batch must contain at least one vector")
        rng = as_generator(rng)
        results = self.solve_many(rhs_batch, rng)
        # All solves share the macro, so the op-time profile of the first
        # result describes every pipeline slot.
        op_times = [op.settling_time_s for op in results[0].operations]
        schedule = simulate_schedule(
            op_times,
            t_dac=t_dac_s,
            t_adc=t_adc_s,
            t_snh=t_snh_s,
            n_problems=len(rhs_batch),
            pipelined=pipelined,
        )
        return BatchResult(results=results, schedule=schedule)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a pipelined batch solve.

    ``results`` holds the per-system solutions; ``schedule`` the
    discrete-event timeline of the macro (op-amp bank, DAC, ADC) for the
    whole batch, from which latency and throughput derive.
    """

    results: tuple[SolveResult, ...]
    schedule: ScheduleResult

    @property
    def throughput_solves_per_s(self) -> float:
        """Steady-state solve rate over the batch."""
        return self.schedule.throughput

    @property
    def worst_relative_error(self) -> float:
        """Largest relative error across the batch."""
        return max(result.relative_error for result in self.results)


class BlockAMCSolver:
    """Solve linear systems with a one-stage BlockAMC macro."""

    name = "blockamc-1stage"

    def __init__(
        self,
        config: HardwareConfig | None = None,
        partition: PartitionSpec | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        self.config = config or HardwareConfig.ideal()
        self.partition = partition or PartitionSpec()
        self.input_fraction = input_fraction

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedBlockAMC:
        """Normalize, preprocess, and program the macro for ``matrix``.

        The variation draw (if any) happens here, once; call
        :meth:`PreparedBlockAMC.solve` repeatedly for multiple ``b``.
        """
        matrix = check_square_matrix(matrix)
        rng = as_generator(rng)
        normalized, scale = normalize_matrix(matrix)
        blocks = prepare_blocks(normalized, self.partition)
        arrays = build_macro_arrays(blocks, self.config, rng)
        macro = BlockAMCMacro(arrays, self.config)
        return PreparedBlockAMC(
            matrix=matrix,
            scale=scale,
            macro=macro,
            split=blocks.split,
            schur_scale=blocks.schur_scale,
            input_fraction=self.input_fraction,
        )

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the arrays and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
