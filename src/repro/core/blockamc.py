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
:class:`PreparedTree` is the front all three prepared solvers share
(original AMC, one-stage and multi-stage BlockAMC): one programmed
solver tree, many right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    the sequential stream: :meth:`PreparedTree.solve_many` then runs
    the cached engines batch-of-1 per right-hand side, and the serve
    layer (:mod:`repro.serve.cache`) does not coalesce such entries.
    MNA routing draws nothing per operation (its quasi-static offsets
    are drawn once, like the algebraic path's), so it batches.
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
    """One array of the five-step schedule: ``kind``, ``settle`` and one op.

    The schedule is written once against this protocol, with two kinds
    of stage: a *shared* stage (:class:`InvStage`, :class:`MvmStage`)
    is one programmed array that every active row runs through, and a
    *stacked* stage (:mod:`repro.core.batched`) holds one array per
    Monte-Carlo trial, so active row ``i`` runs through trial
    ``indices[i]``'s array. :meth:`op` runs one operation on the active
    rows in the scalar op's order: node equations, then the fresh
    output-noise draw, then saturation.
    """

    kind = ""

    def __init__(self, config: HardwareConfig):
        self.cast = config.resolve_backend().cast
        self.v_sat = config.opamp.v_sat

    def raw(self, v_in: np.ndarray, offsets, indices) -> np.ndarray:
        """Pre-noise, pre-saturation outputs for row-stacked inputs."""
        raise NotImplementedError

    def op(self, v_in, offsets, noise: NoiseDraws, indices):
        """``(outputs, saturated)`` of one operation on the active rows."""
        return saturate(noise.output(indices, self.raw(v_in, offsets, indices)), self.v_sat)


def _per_column(solve, array: CrossbarArray, v_in: np.ndarray) -> np.ndarray:
    """MNA routing: ``solve(array, v)`` per column, at float64."""
    return np.stack([solve(array, v) for v in np.asarray(v_in, dtype=np.float64)])


class InvStage(_Stage):
    """A shared INV array: settling analysis and finite-gain system, factored once.

    The system ``M + diag(s + L) / A0`` is factored once and
    back-substituted per column, so each column is bit-identical to a
    scalar op; the ideal matrix is factored on first need (for the
    perfect-circuit outputs) and kept. With MNA routing each column
    solves its netlist through the ops' assembled-system cache.
    """

    kind = "inv"

    def __init__(self, ops: AMCOperations, array: CrossbarArray, input_scale: float = 1.0):
        config = ops.config
        super().__init__(config)
        self.ops, self.array = ops, array
        self.mna = config.use_mna
        self.input_scale = input_scale
        effective = array.effective_matrix(config.parasitics)
        # Settling runs on the float64 matrix: timing is tier-independent.
        self.settle = ops._inv_settle(effective)
        self._ideal_system: FactoredSystem | None = None
        if not self.mna:
            self.loading = inv_loading(self.cast(array.load_row_sums()), input_scale)
            self.system = FactoredSystem(
                inv_system(self.cast(effective), self.loading, config.opamp.open_loop_gain)
            )

    def raw(self, v_in, offsets, indices):
        if self.mna:
            return _per_column(
                lambda array, v: self.ops._inv_mna(array, v, self.input_scale, offsets),
                self.array,
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
    """A shared MVM array: effective matrix, row loads, and settling analysis."""

    kind = "mvm"

    def __init__(self, ops: AMCOperations, array: CrossbarArray):
        config = ops.config
        super().__init__(config)
        self.ops, self.array = ops, array
        self.mna = config.use_mna
        self.a0 = config.opamp.open_loop_gain
        if not self.mna:
            self.effective = self.cast(array.effective_matrix(config.parasitics))
            self.loads = self.cast(array.load_row_sums())
        self.settle = mvm_settling_time(
            np.asarray(array.g_pos) + np.asarray(array.g_neg),
            array.g_unit,
            config.opamp.gbwp_hz,
        )

    def raw(self, v_in, offsets, indices):
        if self.mna:
            return _per_column(
                lambda array, v: self.ops._mvm_mna(array, v, offsets), self.array, v_in
            )
        return mvm_raw(self.effective, self.loads, self.cast(v_in), self.cast(offsets), self.a0)

    @property
    def ideal_matrix(self) -> np.ndarray:
        """The normalized target matrix (cheap to rebuild; not held)."""
        return self.ops._ideal_matrix(self.array)

    def ideal(self, v_in: np.ndarray) -> np.ndarray:
        """Perfect-circuit outputs for inputs as the scalar op sees them (float64)."""
        return ideal_mvm(self.ideal_matrix, np.asarray(v_in, dtype=np.float64))


@dataclass
class OpTally:
    """Whole-batch op telemetry of one solve pass, in execution order.

    Engines hand every accepted operation to a tally's ``record`` and
    bump its conversion counters. This tally keeps a
    :class:`BatchedOpSpec` per operation, for full
    :class:`~repro.core.solution.SolveResult` assembly.
    """

    specs: list[BatchedOpSpec] = field(default_factory=list)
    dac_conversions: int = 0
    adc_conversions: int = 0
    #: Per-row accepted input scales of the last terminal node that ran
    #: (a one-terminal tree's DAC scaling, reported as ``input_scale``).
    input_scale: np.ndarray | None = None

    def record(self, label: str, stage, outputs, inputs, saturated) -> None:
        """One operation's accepted outputs; ideal outputs from its ``inputs``."""
        rows, cols = stage.array.shape
        self.specs.append(
            BatchedOpSpec(
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
        )


class SumTally:
    """Per-row saturation and summed settling time, accumulated in op order.

    The tally of lean results and Monte-Carlo records: no per-op
    telemetry and no ideal outputs. Settling times add left to right
    from zero, exactly like ``SolveResult.analog_time_s``.
    """

    def __init__(self, rows: int):
        self.saturated = np.zeros(rows, dtype=bool)
        self.analog_time_s = np.zeros(rows)
        self.dac_conversions = self.adc_conversions = 0
        self.input_scale: np.ndarray | None = None  # as in OpTally

    def record(self, label, stage, outputs, inputs, saturated) -> None:
        self.saturated |= saturated
        self.analog_time_s = self.analog_time_s + stage.settle


class Programming:
    """Programs one matrix's arrays from one generator: shared stages.

    The solver trees (:mod:`repro.core.multistage`) are built against
    this protocol — normalize, Schur-preprocess, program an array, skip
    an all-zero tile, make INV/MVM stages and an offset source, program
    a macro — so one tree body serves the prepared solvers (this class)
    and the trials engine, whose
    :class:`~repro.core.batched.StackedProgramming` programs every
    trial at once.
    """

    def __init__(self, config: HardwareConfig, rng):
        self.config = config
        self.rng = rng

    normalize = staticmethod(normalize_matrix)
    prepare = staticmethod(prepare_blocks)
    inv = staticmethod(InvStage)
    mvm = staticmethod(MvmStage)

    def program(self, block: np.ndarray) -> CrossbarArray:
        """One pre-normalized array pair (positive array drawn first)."""
        return CrossbarArray.program(
            block, self.config.programming, self.rng,
            g_unit=self.config.g_unit, pre_normalized=True,
        )

    @staticmethod
    def nonzero(tile: np.ndarray) -> bool:
        """False for an all-zero tile, which needs no array."""
        return bool(np.any(tile))

    @staticmethod
    def offsets(ops: AMCOperations):
        """``rngs -> LazyOffsets`` of one programmed op-amp column.

        The offsets live in ``ops``' own cache (one physical column,
        shared by every right-hand side and every later batch). The
        first ranging attempt covers every row, so row 0's generator
        draws them at the stream position a scalar solve of that row
        would.
        """
        return lambda rngs: LazyOffsets(lambda size: ops._draw_offsets(size, rngs[0]))

    def macro(self, blocks) -> tuple[BlockAMCMacro, "BatchedFiveStep"]:
        """Program a macro's four arrays and bind its five-step engine."""
        macro = BlockAMCMacro(build_macro_arrays(blocks, self.config, self.rng), self.config)
        return macro, BatchedFiveStep.of_macro(macro)


class BatchedFiveStep:
    """The five-step schedule with matrix-valued intermediates.

    Holds the four stages of one macro — ``A1``/``A4s`` INV and
    ``A3``/``A2`` MVM, made by ``programming`` from its arrays: shared
    (one programmed :class:`~repro.amc.macro.BlockAMCMacro`, many
    right-hand sides) or stacked (one macro per Monte-Carlo trial) — and
    executes a whole ``(batch, n)`` block of rows per :meth:`run` call,
    gain-ranging each row independently. Quasi-static op-amp offsets
    come from the engine's offset source, drawn at first use; output
    and S&H noise are drawn per active row and per ranging attempt from
    that row's generator. Every step goes through the shared kernel of
    :mod:`repro.core.common`, so row ``c`` is bit-identical to walking
    the same vector through the same arrays one
    :class:`~repro.amc.ops.AMCOperations` op at a time with ``rngs[c]``.

    This is the schedule's only body: every macro node of a solver tree
    (:mod:`repro.core.multistage`) runs here — the root of a prepared
    one-stage solver, the terminals of a multi-stage one, and through
    them the trials engine (:mod:`repro.core.batched`).
    """

    def __init__(self, programming, ops, a1, a2, a3, a4s, schur_input_scale):
        self.inv1 = programming.inv(ops, a1)
        self.mvm3 = programming.mvm(ops, a3)
        self.inv4 = programming.inv(ops, a4s, schur_input_scale)
        self.mvm2 = programming.mvm(ops, a2)
        #: (label, stage) of steps 1..5, in schedule order.
        self.steps = (
            ("step1:INV(A1)", self.inv1),
            ("step2:MVM(A3)", self.mvm3),
            ("step3:INV(A4s)", self.inv4),
            ("step4:MVM(A2)", self.mvm2),
            ("step5:INV(A1)", self.inv1),
        )
        self.offsets = programming.offsets(ops)
        self.split, self.lower = a2.shape
        self.config = config = programming.config
        self.conv = config.converters
        self.backend = config.resolve_backend()
        self._schur_reference: FactoredSystem | None = None

    @classmethod
    def of_macro(cls, macro: BlockAMCMacro) -> "BatchedFiveStep":
        """The shared-stage engine of one programmed macro."""
        arrays = macro.arrays
        return cls(
            Programming(macro.config, None), macro.ops,
            arrays.a1, arrays.a2, arrays.a3, arrays.a4s, arrays.schur_input_scale,
        )

    def digitize(self, voltages: np.ndarray) -> np.ndarray:
        """ADC model (the shared shape-generic converter)."""
        return quantize_voltages(voltages, self.conv.adc_bits, self.conv.v_fs)

    def run(self, bs: np.ndarray, input_fraction: float, rngs):
        """Execute the schedule for row-stacked ``bs``; gain-range per row.

        ``rngs[c]`` is row ``c``'s generator (per-operation noise
        draws; offsets come from the engine's source). Returns
        ``(final, final_k)`` from
        :func:`repro.core.common.auto_range_many`: the accepted step
        outputs/inputs (``s1``..``s5``, ``in1``..``in5``, ``sat``) and
        the accepted per-row input scales.
        """
        v_fs, dac_bits = self.conv.v_fs, self.conv.dac_bits
        split = self.split
        cast = self.backend.cast
        noise = NoiseDraws(rngs, self.config)
        offsets = self.offsets(rngs)

        def run_subset(k, indices):
            def op(stage, v_in, off):
                return stage.op(v_in, off, noise, indices)

            # DAC outputs enter the analog tier: cast to backend dtype
            # (identity on float64).
            v_f = cast(quantize_voltages(k[:, None] * bs[indices, :split], dac_bits, v_fs))
            v_g = cast(quantize_voltages(k[:, None] * bs[indices, split:], dac_bits, v_fs))
            # Stream order per row matches the scalar schedule:
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
                "sat": np.stack([sat1, sat2, sat3, sat4, sat5], axis=1),
            }
            return peaks, payload

        k0 = input_voltage_scale_many(bs, v_fs, input_fraction)
        return auto_range_many(run_subset, k0, v_fs)

    def solution(self, final: dict, final_k: np.ndarray, scale) -> np.ndarray:
        """Digital solutions ``x`` of the accepted attempt, row-stacked.

        ``scale`` is the matrix normalization: a float for a shared
        macro, one entry per row for stacked trials. The divisor takes
        the outputs' dtype, like the scalar ``solution / (k * scale)``
        whose Python float adopts it.
        """
        solution = np.concatenate(
            [-self.digitize(final["s5"]), self.digitize(final["s3"])], axis=1
        )
        return solution / (final_k * scale).astype(solution.dtype, copy=False)[:, None]

    def record(self, final: dict, tally) -> None:
        """Hand the accepted attempt's five operations to ``tally``, in order."""
        sat = final["sat"]
        for num, (label, stage) in enumerate(self.steps, start=1):
            tally.record(label, stage, final[f"s{num}"], final[f"in{num}"], sat[:, num - 1])

    def reference(self, bs: np.ndarray, final_k: np.ndarray) -> dict[str, np.ndarray]:
        """Exact-arithmetic per-step references (Fig. 6a curves), batched.

        Computed from each row's accepted pre-DAC inputs ``k * b`` (the
        products the schedule formed). Shared stages only: the
        references come from the programmed arrays' targets.
        """
        if self._schur_reference is None:
            inv4 = self.inv4
            self._schur_reference = FactoredSystem(
                inv4.ops._ideal_matrix(inv4.array) / inv4.input_scale,
                what="Schur block",
            )
        v_b = final_k[:, None] * bs
        return reference_schedule(
            self.inv1.ideal_system, self.mvm2.ideal_matrix, self.mvm3.ideal_matrix,
            self._schur_reference, v_b[:, : self.split], v_b[:, self.split :],
        )


@dataclass(frozen=True)
class PreparedTree:
    """A programmed solver tree bound to one matrix: the prepared solvers' front.

    ``root`` is the tree the solver's ``build`` made from
    :class:`Programming` — a direct-INV node (original AMC), a macro
    node (one-stage BlockAMC) or the multi-stage recursion — and every
    solve runs through it. Subclasses differ only in result assembly:
    the reported ``solver`` name and :meth:`_metadata`. Every solver
    kind's digital references come from one LU of ``matrix``, made at
    the first solve and kept (:attr:`_system`).
    """

    matrix: np.ndarray
    root: object

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` for a new right-hand side on the programmed arrays.

        Exactly ``solve_many([b], rng)[0]``: a batch of one on the cached
        engines. Uses analog gain ranging: if any step's output approaches
        the converter full scale, the input scale is reduced and the
        analog pipeline rerun (see :func:`repro.core.common.auto_range_many`).
        """
        b = check_vector(b, "b", size=self.matrix.shape[0])
        return self.solve_many([b], rng)[0]

    def solve_many(
        self, rhs_batch, rng=None, *, lean: bool = False
    ) -> tuple[SolveResult, ...]:
        """Solve many right-hand sides with shared per-step factorizations.

        Programming, the effective matrices, and the eigenvalue/settling
        analysis happened once, at preparation; the tree runs once per
        batch with *matrix-valued* intermediates: each INV step is one
        factorization for the whole batch (cached across batches) and
        each MVM step one contraction. Gain ranging still operates per
        right-hand side (columns rerun independently, exactly like
        sequential :meth:`solve` calls).

        Results are **bit-identical** to a sequential loop of
        :meth:`solve` calls: every step goes through the shared kernel
        of :mod:`repro.core.common`, whose multi-RHS solves factor once
        but back-substitute one column at a time (see
        :class:`repro.core.common.FactoredSystem`) and whose
        contractions are shape-stable. Configurations that draw fresh
        noise per operation consume the one generator in sequential
        order, so they run batch-of-1 per right-hand side on the same
        cached engines (see :func:`has_per_operation_randomness`).

        With ``lean=True`` the per-result payload is a
        :class:`~repro.core.solution.LeanSolveResult`: the solution and
        reference are the same bits, but the per-step
        :class:`~repro.amc.ops.OpResult` objects, their ideal outputs,
        and the step-output metadata dicts are never constructed —
        result assembly dominates service-side time at scale (see
        ``BENCH_serving.json``).
        """
        n = self.matrix.shape[0]
        rhs_list = [np.asarray(b, dtype=float) for b in rhs_batch]
        if not rhs_list:
            raise ValidationError("rhs_batch must contain at least one vector")
        bs = np.stack([check_vector(b, "b", size=n) for b in rhs_list])
        rng = as_generator(rng)
        if has_per_operation_randomness(self.root.config):
            # One shared generator: batch-of-1 per right-hand side keeps
            # its stream in sequential-loop order.
            return tuple(
                result
                for c in range(len(bs))
                for result in self._solve_block(bs[c : c + 1], [rng], lean)
            )
        return self._solve_block(bs, [rng] * len(bs), lean)

    def _solve_block(self, bs: np.ndarray, rngs, lean: bool) -> tuple:
        """One pass of the tree over row-stacked ``bs`` (``rngs[c]`` per row)."""
        batch = bs.shape[0]
        tally = SumTally(batch) if lean else OpTally()
        x = self.root.solve_many(bs, tally, rngs)
        references = self._system.solve(bs)
        if lean:
            return tuple(
                LeanSolveResult(
                    x=x[c],
                    reference=references[c],
                    solver=self.solver,
                    saturated=bool(tally.saturated[c]),
                    analog_time_s=float(tally.analog_time_s[c]),
                    metadata=self._lean_metadata(tally, c),
                )
                for c in range(batch)
            )
        metadata = self._metadata(bs, tally)
        return tuple(
            SolveResult(
                x=x[c],
                reference=references[c],
                solver=self.solver,
                operations=tuple(spec.op_result(c) for spec in tally.specs),
                metadata=metadata[c],
            )
            for c in range(batch)
        )

    @cached_property
    def _system(self) -> FactoredSystem:
        """The system matrix's one ``getrf``, made at first use and kept.

        Every result's exact float64 reference is per-column ``getrs``
        on it. A served entry's first use is its warm-up solve, so no
        batch pays for the factorization.
        """
        return FactoredSystem(self.matrix, what="system matrix")

    def _lean_metadata(self, tally, c: int) -> dict:
        """A lean result's metadata: the root's accepted input scale."""
        return {"input_scale": float(tally.input_scale[c])}

    def _metadata(self, bs: np.ndarray, tally: OpTally) -> list[dict]:
        """Each full result's metadata, row by row."""
        raise NotImplementedError


def _from_root(name: str, doc: str) -> property:
    """A prepared solver's attribute, read off its tree's root."""
    return property(lambda self: getattr(self.root, name), doc=doc)


class PreparedBlockAMC(PreparedTree):
    """A programmed one-stage solver bound to one matrix (a macro root)."""

    solver = "blockamc-1stage"
    scale = _from_root("scale", "Normalization scale of the matrix.")
    macro = _from_root("macro", "The programmed :class:`~repro.amc.macro.BlockAMCMacro`.")
    split = _from_root("split", "Size of the leading block ``A1``.")
    schur_scale = _from_root("schur_scale", "Private normalization of ``A4s``.")
    input_fraction = _from_root("fraction", "DAC full-scale fraction of the largest input.")

    def _metadata(self, bs, tally):
        macro, scales = self.macro, tally.input_scale
        reference = self.root.engine.reference(bs, scales)
        common = {
            "scale": self.scale,
            "split": self.split,
            "schur_scale": self.schur_scale,
            "opa_count": macro.opa_count,
            "dac_count": macro.dac_count,
            "adc_count": macro.adc_count,
            "device_count": macro.device_count,
            "dac_conversions": tally.dac_conversions,
            "adc_conversions": tally.adc_conversions,
        }
        return [
            {
                **common,
                "input_scale": float(scales[c]),
                "reference_steps": {name: rows[c] for name, rows in reference.items()},
                "step_outputs": {spec.label: spec.outputs[c] for spec in tally.specs},
            }
            for c in range(bs.shape[0])
        ]

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

    def build(self, matrix: np.ndarray, programming):
        """The solver tree: one macro node over the whole matrix."""
        from repro.core.multistage import _MacroNode  # multistage imports this module

        return _MacroNode(matrix, programming, self.partition, self.input_fraction)

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedBlockAMC:
        """Normalize, preprocess, and program the macro for ``matrix``.

        The variation draw (if any) happens here, once; call
        :meth:`PreparedBlockAMC.solve` repeatedly for multiple ``b``.
        """
        matrix = check_square_matrix(matrix)
        root = self.build(matrix, Programming(self.config, as_generator(rng)))
        return PreparedBlockAMC(matrix=matrix, root=root)

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the arrays and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
