"""One-vector-at-a-time reference solves for the prepared AMC solvers.

Production runs every prepared solve through the cached multi-RHS
engines (:class:`~repro.core.blockamc.BatchedFiveStep` and the solver
tree's ``solve_many`` methods — original AMC is one direct-INV node);
a single right-hand side is simply a batch of one. This module keeps
the scalar reference those engines must reproduce bit for bit: it
walks the same programmed arrays through the public one-operation
primitives — :meth:`~repro.amc.ops.AMCOperations.inv`/``mvm``, the
DAC/ADC and S&H models and :func:`~repro.core.common.auto_range` —
redoing the settling analysis and every factorization per operation,
exactly as a naive circuit simulation would. :func:`solve_macro` is the one-macro
five-step walk (paper Fig. 4) the solvers build on.

The oracle draws from the node's own :class:`~repro.amc.ops.AMCOperations`
offset cache, like the engines do, so it must run on a *separately
prepared* copy (same preparation seed) when the two are compared.

Use :func:`oracle_solve` for any prepared type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amc.interfaces import ADC, DAC, SampleHold
from repro.amc.macro import BlockAMCMacro, reference_schedule
from repro.amc.ops import OpResult
from repro.core.blockamc import PreparedBlockAMC
from repro.core.common import auto_range, input_voltage_scale, solve_columns
from repro.core.multistage import (
    PreparedMultiStage,
    _DigitalGlueNode,
    _DirectInvNode,
    _MacroNode,
    _ResourceCount,
    _TiledMVM,
)
from repro.core.original import PreparedOriginalAMC
from repro.core.solution import SolveResult
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector

__all__ = [
    "MacroResult",
    "OracleSolver",
    "oracle_solve",
    "solve_macro",
    "solve_multistage",
    "solve_one_stage",
    "solve_original",
]


def oracle_solve(prepared, b, rng=None) -> SolveResult:
    """Scalar reference solve of ``A x = b`` on any prepared AMC solver."""
    if isinstance(prepared, PreparedOriginalAMC):
        return solve_original(prepared, b, rng)
    if isinstance(prepared, PreparedBlockAMC):
        return solve_one_stage(prepared, b, rng)
    if isinstance(prepared, PreparedMultiStage):
        return solve_multistage(prepared, b, rng)
    raise TypeError(f"no scalar oracle for {type(prepared).__name__}")


class OracleSolver:
    """A solver whose one-call ``solve`` walks the scalar oracle.

    ``solve(matrix, b, rng)`` prepares ``solver`` as usual and then solves
    through :func:`oracle_solve` instead of the cached engines — the
    factory shape :func:`repro.analysis.accuracy.run_trials` takes.
    """

    def __init__(self, solver):
        self.solver = solver

    def solve(self, matrix, b, rng=None) -> SolveResult:
        rng = as_generator(rng)
        return oracle_solve(self.solver.prepare(matrix, rng), b, rng)


# ----------------------------------------------------------------------
# one macro: the five-step schedule, one operation at a time
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MacroResult:
    """Outcome of one macro walk.

    ``x_upper`` / ``x_lower`` are the digital solution halves (ADC
    output, sign-corrected). ``steps`` holds per-operation telemetry;
    ``reference_steps`` holds the exact-arithmetic value of each step's
    output (the paper's "numerical" curves of Fig. 6a), computed from the
    pre-DAC inputs.
    """

    x_upper: np.ndarray
    x_lower: np.ndarray
    steps: tuple[OpResult, ...]
    reference_steps: dict[str, np.ndarray]

    @property
    def solution(self) -> np.ndarray:
        """Concatenated solution vector."""
        return np.concatenate([self.x_upper, self.x_lower])

    @property
    def analog_time_s(self) -> float:
        """Sum of all analog settling times (serial schedule)."""
        return float(sum(step.settling_time_s for step in self.steps))


def solve_macro(macro: BlockAMCMacro, f, g, rng=None) -> MacroResult:
    """Run the five-step schedule on ``macro`` for voltage-domain ``f``, ``g``.

    ``f`` and ``g`` are the upper/lower halves of the known vector,
    already scaled into DAC full scale by the caller. Every operation
    goes through :class:`~repro.amc.ops.AMCOperations` on the macro's
    own op-amp column, and every intermediate through two S&H banks.
    """
    arrays, ops, config = macro.arrays, macro.ops, macro.config
    f = check_vector(f, "f", size=arrays.upper_size)
    g = check_vector(g, "g", size=arrays.lower_size)
    rng = as_generator(rng)
    dac, adc = DAC(config.converters), ADC(config.converters)
    snh_out, snh_in = SampleHold(config.sample_hold), SampleHold(config.sample_hold)

    def held(op):
        return snh_in.transfer(snh_out.transfer(op.output, rng), rng)

    reference = reference_schedule(
        arrays.a1.target.reconstruct_normalized(),
        arrays.a2.target.reconstruct_normalized(),
        arrays.a3.target.reconstruct_normalized(),
        arrays.a4s.target.reconstruct_normalized() / arrays.schur_input_scale,
        f,
        g,
    )
    # DAC outputs enter the analog voltage domain at the backend tier
    # (identity on float64), so in-analog sums like ``h2 - v_g`` happen
    # at the tier's precision.
    cast = config.resolve_backend().cast
    v_f = cast(dac.convert(f))
    v_g = cast(dac.convert(g))
    # Step 1: INV(A1, f) -> -y_t.
    s1 = ops.inv(arrays.a1, v_f, label="step1:INV(A1)", rng=rng)
    # Step 2: MVM(A3, -y_t) -> g_t (the circuit's inversion removes the sign).
    s2 = ops.mvm(arrays.a3, held(s1), label="step2:MVM(A3)", rng=rng)
    # Step 3: INV(A4s, g_t - g); the sum happens at the input conductances.
    s3 = ops.inv(
        arrays.a4s, held(s2) - v_g, label="step3:INV(A4s)",
        input_scale=arrays.schur_input_scale, rng=rng,
    )
    # Step 4: MVM(A2, z) -> -f_t.
    s4 = ops.mvm(arrays.a2, held(s3), label="step4:MVM(A2)", rng=rng)
    # Step 5: INV(A1, f - f_t) -> -y.
    s5 = ops.inv(arrays.a1, v_f + held(s4), label="step5:INV(A1)", rng=rng)
    return MacroResult(
        x_upper=-adc.convert(s5.output),
        x_lower=adc.convert(s3.output),
        steps=(s1, s2, s3, s4, s5),
        reference_steps=reference,
    )


# ----------------------------------------------------------------------
# original AMC: one full-size INV
# ----------------------------------------------------------------------


def solve_original(prepared: PreparedOriginalAMC, b, rng=None) -> SolveResult:
    """Scalar reference for :meth:`PreparedOriginalAMC.solve`."""
    n = prepared.matrix.shape[0]
    b = check_vector(b, "b", size=n)
    tally = _Tally()
    x = _solve_direct(prepared.root, b, tally, as_generator(rng))
    return SolveResult(
        x=x,
        reference=solve_columns(prepared.matrix, b, what="system matrix"),
        solver="original-amc",
        operations=tuple(tally.operations),
        metadata={
            "scale": prepared.scale,
            "input_scale": tally.input_scale,
            "opa_count": n,
            "dac_count": n,
            "adc_count": n,
            "device_count": prepared.array.device_count,
            "dac_conversions": tally.dac_conversions,
            "adc_conversions": tally.adc_conversions,
        },
    )


# ----------------------------------------------------------------------
# one stage
# ----------------------------------------------------------------------


def solve_one_stage(prepared: PreparedBlockAMC, b, rng=None) -> SolveResult:
    """Scalar reference for :meth:`PreparedBlockAMC.solve`."""
    n = prepared.matrix.shape[0]
    b = check_vector(b, "b", size=n)
    rng = as_generator(rng)
    macro = prepared.macro
    v_fs = macro.config.converters.v_fs

    def run(k):
        v_b = k * b
        result = solve_macro(macro, v_b[: prepared.split], v_b[prepared.split :], rng)
        peak = max(float(np.max(np.abs(step.output))) for step in result.steps)
        return peak, result

    k0 = input_voltage_scale(b, v_fs, prepared.input_fraction)
    macro_result, k = auto_range(run, k0, v_fs)
    return SolveResult(
        x=macro_result.solution / (k * prepared.scale),
        reference=solve_columns(prepared.matrix, b, what="system matrix"),
        solver="blockamc-1stage",
        operations=macro_result.steps,
        metadata={
            "scale": prepared.scale,
            "input_scale": k,
            "split": prepared.split,
            "schur_scale": prepared.schur_scale,
            "opa_count": macro.opa_count,
            "dac_count": macro.dac_count,
            "adc_count": macro.adc_count,
            "device_count": macro.device_count,
            "dac_conversions": 2,
            "adc_conversions": 2,
            "reference_steps": macro_result.reference_steps,
            "step_outputs": {step.label: step.output for step in macro_result.steps},
        },
    )


# ----------------------------------------------------------------------
# multi stage: the node tree, one vector at a time
# ----------------------------------------------------------------------


@dataclass
class _Tally:
    operations: list = field(default_factory=list)
    dac_conversions: int = 0
    adc_conversions: int = 0
    input_scale: float | None = None  # the last direct-INV node's


def solve_multistage(prepared: PreparedMultiStage, b, rng=None) -> SolveResult:
    """Scalar reference for :meth:`PreparedMultiStage.solve`."""
    n = prepared.matrix.shape[0]
    b = check_vector(b, "b", size=n)
    rng = as_generator(rng)
    tally = _Tally()
    x = _solve_node(prepared.root, b, tally, rng)
    counts = _ResourceCount()
    prepared.root.count_resources(counts)
    return SolveResult(
        x=x,
        reference=solve_columns(prepared.matrix, b, what="system matrix"),
        solver=f"blockamc-{prepared.stages}stage",
        operations=tuple(tally.operations),
        metadata={
            "stages": prepared.stages,
            "macro_count": counts.macro_count,
            "array_count": counts.array_count,
            "device_count": counts.device_count,
            "dac_conversions": tally.dac_conversions,
            "adc_conversions": tally.adc_conversions,
        },
    )


def _solve_node(node, rhs, tally: _Tally, rng) -> np.ndarray:
    if isinstance(node, _MacroNode):
        return _solve_macro(node, rhs, tally, rng)
    if isinstance(node, _DirectInvNode):
        return _solve_direct(node, rhs, tally, rng)
    if isinstance(node, _DigitalGlueNode):
        return _solve_glue(node, rhs, tally, rng)
    raise TypeError(f"unknown solver node {type(node).__name__}")


def _solve_macro(node: _MacroNode, rhs, tally: _Tally, rng) -> np.ndarray:
    """A terminal one-stage macro, with its own gain ranging."""
    v_fs = node.config.converters.v_fs

    def run(k):
        v_b = k * rhs
        result = solve_macro(node.macro, v_b[: node.split], v_b[node.split :], rng)
        peak = max(float(np.max(np.abs(step.output))) for step in result.steps)
        return peak, result

    k0 = input_voltage_scale(rhs, v_fs, node.fraction)
    result, k = auto_range(run, k0, v_fs)
    tally.operations.extend(result.steps)
    tally.dac_conversions += 2
    tally.adc_conversions += 2
    return result.solution / (k * node.scale)


def _solve_direct(node: _DirectInvNode, rhs, tally: _Tally, rng) -> np.ndarray:
    """One INV operation over the node's whole block (a 1x1 leaf, or original AMC)."""
    dac = DAC(node.config.converters)
    adc = ADC(node.config.converters)
    v_fs = node.config.converters.v_fs

    def run(k):
        op = node.ops.inv(node.array, dac.convert(k * rhs), label=node.label, rng=rng)
        return float(np.max(np.abs(op.output))), op

    k0 = input_voltage_scale(rhs, v_fs, node.fraction)
    op, k = auto_range(run, k0, v_fs)
    tally.operations.append(op)
    tally.input_scale = k
    tally.dac_conversions += 1
    tally.adc_conversions += 1
    return -adc.convert(op.output) / (k * node.scale)


def _solve_glue(node: _DigitalGlueNode, rhs, tally: _Tally, rng) -> np.ndarray:
    """The five-step schedule with digital glue between child solvers."""
    rhs_n = np.asarray(rhs, dtype=float) / node.scale
    f = rhs_n[: node.split]
    g = rhs_n[node.split :]
    y_t = _solve_node(node.upper, f, tally, rng)
    g_t = _apply_tiles(node.tiles_a3, y_t, node.fraction, tally, rng)
    z = _solve_node(node.lower, g - g_t, tally, rng)
    f_t = _apply_tiles(node.tiles_a2, z, node.fraction, tally, rng)
    y = _solve_node(node.upper, f - f_t, tally, rng)
    return np.concatenate([y, z])


def _apply_tiles(tiled: _TiledMVM, v, fraction, tally: _Tally, rng) -> np.ndarray:
    """``block @ v`` over the terminal-size tiles, with gain ranging."""
    v = check_vector(v, "v", size=tiled.cols)
    dac = DAC(tiled.config.converters)
    adc = ADC(tiled.config.converters)
    v_fs = tiled.config.converters.v_fs
    tile_cols = len(tiled.col_starts)
    col_ends = tiled.col_starts[1:] + [tiled.cols]
    row_ends = tiled.row_starts[1:] + [tiled.rows]

    def run(k):
        v_chunks = [dac.convert(k * v[c0:c1]) for c0, c1 in zip(tiled.col_starts, col_ends)]
        out = np.zeros(tiled.rows)
        ops = []
        peak = 0.0
        for ri, (r0, r1) in enumerate(zip(tiled.row_starts, row_ends)):
            acc = np.zeros(r1 - r0)
            for ci in range(tile_cols):
                if (ri, ci) not in tiled.arrays:
                    continue  # all-zero tile: partial product is zero
                op = tiled.ops.mvm(
                    tiled.arrays[(ri, ci)], v_chunks[ci],
                    label=f"tile-mvm[{ri},{ci}]", rng=rng,
                )
                ops.append(op)
                peak = max(peak, float(np.max(np.abs(op.output))))
                acc = acc - adc.convert(op.output)
            out[r0:r1] = acc
        return peak, (out, ops)

    k0 = input_voltage_scale(v, v_fs, fraction)
    (out, ops), k = auto_range(run, k0, v_fs)
    tally.operations.extend(ops)
    tally.dac_conversions += tile_cols
    tally.adc_conversions += len(ops)
    return out / k
