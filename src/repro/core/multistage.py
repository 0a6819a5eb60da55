"""Multi-stage BlockAMC solver (the paper's two-stage design, Fig. 5).

For matrices whose half-size blocks still exceed the feasible array size,
the partition is applied recursively. Following the paper's architecture:

- every *first-stage* INV operation (on ``A1`` and ``A4s``) is executed
  by its own one-stage BlockAMC macro (analog inside);
- every *first-stage* MVM operation (on ``A2`` and ``A3``) is tiled over
  terminal-size arrays, with partial products digitized and summed;
- intermediates between macros round-trip through ADC -> main memory ->
  DAC ("The output results in every one-stage BlockAMC macro are
  converted and stored in the main memory", Sec. III-C), so each glue
  level adds converter quantization — an effect the ablation benches
  quantify.

``stages=2`` reproduces the paper's two-stage solver (a 256x256 system
becomes 16 arrays of 64x64); larger depths extend the same recursion, the
paper's "partitioned stage by stage" scaling argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import quantize_voltages
from repro.amc.macro import BlockAMCMacro
from repro.amc.ops import AMCOperations
from repro.core.blockamc import (
    BatchedFiveStep,
    BatchedOpSpec,
    InvStage,
    MvmStage,
    macro_offsets,
    solve_in_blocks,
)
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    NoiseDraws,
    auto_range_many,
    input_voltage_scale_many,
)
from repro.core.partition import PartitionSpec, build_macro_arrays, prepare_blocks
from repro.core.solution import LeanSolveResult, SolveResult
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import normalize_matrix
from repro.errors import SolverError
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix, check_vector


@dataclass
class _ResourceCount:
    """Hardware inventory of a solver tree (batch-invariant)."""

    macro_count: int = 0
    array_count: int = 0
    device_count: int = 0


@dataclass
class _BatchTally:
    """Per-batch telemetry of one pass through the solver tree.

    Collects whole-batch :class:`~repro.core.blockamc.BatchedOpSpec`
    telemetry in tree-execution order — the order a one-vector walk of
    the tree performs its operations — plus the per-solve conversion
    counts (batch-invariant by construction).
    """

    specs: list[BatchedOpSpec] = field(default_factory=list)
    dac_conversions: int = 0
    adc_conversions: int = 0


class _TiledMVM:
    """A (possibly rectangular) block tiled over terminal-size arrays.

    ``apply_many`` computes ``block @ v`` per row by running one analog
    MVM per tile, digitizing each partial product, and summing
    digitally.
    """

    def __init__(self, block: np.ndarray, tile: int, config: HardwareConfig, rng):
        if tile < 1:
            raise SolverError(f"tile size must be >= 1, got {tile}")
        self.config = config
        self.ops = AMCOperations(config)
        self.rows, self.cols = block.shape
        self.row_starts = list(range(0, self.rows, tile))
        self.col_starts = list(range(0, self.cols, tile))
        self.arrays: dict[tuple[int, int], CrossbarArray] = {}
        self.skipped_tiles = 0
        self._stages: list | None = None
        for ri, r0 in enumerate(self.row_starts):
            for ci, c0 in enumerate(self.col_starts):
                sub = block[r0 : r0 + tile, c0 : c0 + tile]
                if not np.any(sub):
                    # An all-zero tile needs no array at all (e.g. the
                    # off-diagonal blocks of triangular or banded
                    # systems) — the partial product is exactly zero.
                    self.skipped_tiles += 1
                    continue
                self.arrays[(ri, ci)] = CrossbarArray.program(
                    sub,
                    config.programming,
                    rng,
                    g_unit=config.g_unit,
                    pre_normalized=True,
                )

    @property
    def array_count(self) -> int:
        """Number of tile array pairs."""
        return len(self.arrays)

    @property
    def device_count(self) -> int:
        """Total RRAM cells across all tiles."""
        return sum(a.device_count for a in self.arrays.values())

    def apply_many(
        self, v_rows: np.ndarray, fraction: float, tally: _BatchTally, rngs
    ) -> np.ndarray:
        """``block @ v`` per row (digital in, digital out), ranged per row.

        Each tile's MVM runs once for the whole batch through the
        shared multi-RHS kernel, in row-major tile order — the order in
        which the node's op-amp column draws each tile size's offsets
        at first use and each operation draws its output noise.
        """
        conv = self.config.converters
        v_fs = conv.v_fs
        # Digital inputs arrive as float64, whatever tier produced them.
        v_rows = np.asarray(v_rows, dtype=np.float64)
        col_bounds = list(zip(self.col_starts, self.col_starts[1:] + [self.cols]))
        if self._stages is None:
            # Batch-invariant per-tile state (effective matrices, load
            # sums, settling analysis), built once per node.
            row_bounds = list(zip(self.row_starts, self.row_starts[1:] + [self.rows]))
            self._stages = [
                (ri, ci, r0, r1, MvmStage(self.ops, array))
                for ri, (r0, r1) in enumerate(row_bounds)
                for ci in range(len(col_bounds))
                # all-zero tiles have no array: partial product is zero
                if (array := self.arrays.get((ri, ci))) is not None
            ]
        stages = self._stages
        noise = NoiseDraws(rngs, self.config)
        offsets = macro_offsets(self.ops, rngs)

        def run_subset(k, indices):
            # DAC outputs stay float64 here (each stage casts its own
            # input), so the ideal products see what the scalar op sees.
            chunks = [
                quantize_voltages(k[:, None] * v_rows[indices, c0:c1], conv.dac_bits, v_fs)
                for c0, c1 in col_bounds
            ]
            out = np.zeros((indices.size, self.rows))
            payload = {}
            peaks = np.zeros(indices.size)
            for ti, (ri, ci, r0, r1, stage) in enumerate(stages):
                off = offsets.take(stage.array.shape[0], indices)
                clipped, sat = stage.op(chunks[ci], off, noise, indices)
                payload[f"tile{ti}"] = clipped
                payload[f"tsat{ti}"] = sat
                peaks = np.maximum(peaks, np.max(np.abs(clipped), axis=1))
                # Each partial product is digitized before the digital
                # sum (circuit sign removed digitally).
                out[:, r0:r1] -= quantize_voltages(clipped, conv.adc_bits, v_fs)
            for ci, chunk in enumerate(chunks):
                payload[f"chunk{ci}"] = chunk
            payload["out"] = out
            return peaks, payload

        k0 = input_voltage_scale_many(v_rows, v_fs, fraction)
        final, final_k = auto_range_many(run_subset, k0, v_fs)
        for ti, (ri, ci, r0, r1, stage) in enumerate(stages):
            tally.specs.append(
                BatchedOpSpec.from_stage(
                    f"tile-mvm[{ri},{ci}]",
                    stage,
                    final[f"tile{ti}"],
                    final[f"chunk{ci}"],
                    final[f"tsat{ti}"],
                )
            )
        tally.dac_conversions += len(col_bounds)
        tally.adc_conversions += len(stages)
        return final["out"] / final_k[:, None]


class _MacroNode:
    """Terminal solver node: a one-stage BlockAMC macro for one block."""

    def __init__(
        self,
        block: np.ndarray,
        config: HardwareConfig,
        partition: PartitionSpec,
        fraction: float,
        rng,
    ):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        blocks = prepare_blocks(normalized, partition)
        self.split = blocks.split
        arrays = build_macro_arrays(blocks, config, rng)
        self.macro = BlockAMCMacro(arrays, config)
        self._engine: BatchedFiveStep | None = None

    @property
    def device_count(self) -> int:
        return self.macro.device_count

    def count_resources(self, counts: _ResourceCount) -> None:
        counts.macro_count += 1
        counts.array_count += 4
        counts.device_count += self.macro.device_count

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rngs
    ) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row through the five-step engine.

        One :class:`~repro.core.blockamc.BatchedFiveStep` is built per
        node (factorizations and settling analysis shared), then reused
        by every batch — including the two visits the glue recursion
        pays this node per solve.
        """
        if self._engine is None:
            self._engine = BatchedFiveStep(self.macro)
        engine = self._engine
        final, final_k = engine.run(rhs_rows, self.fraction, rngs)
        tally.specs.extend(engine.step_specs(final))
        tally.dac_conversions += 2
        tally.adc_conversions += 2
        return engine.solution(final, final_k, self.scale)


class _DirectInvNode:
    """Terminal node for blocks too small to partition (n < 2): one INV."""

    def __init__(self, block: np.ndarray, config: HardwareConfig, fraction: float, rng):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        self.array = CrossbarArray.program(
            normalized, config.programming, rng, g_unit=config.g_unit, pre_normalized=True
        )
        self.ops = AMCOperations(config)
        self._stage: InvStage | None = None

    def count_resources(self, counts: _ResourceCount) -> None:
        counts.array_count += 1
        counts.device_count += self.array.device_count

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rngs
    ) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row: one INV factorization, many columns."""
        config = self.config
        conv = config.converters
        v_fs = conv.v_fs
        if self._stage is None:
            self._stage = InvStage(self.ops, self.array)
        stage = self._stage
        noise = NoiseDraws(rngs, config)
        offsets = macro_offsets(self.ops, rngs)

        def run_subset(k, indices):
            # The DAC output stays float64 (the stage casts its input),
            # so the ideal output sees what the scalar op sees.
            v_in = quantize_voltages(k[:, None] * rhs_rows[indices], conv.dac_bits, v_fs)
            off = offsets.take(self.array.shape[0], indices)
            clipped, sat = stage.op(v_in, off, noise, indices)
            peaks = np.max(np.abs(clipped), axis=1)
            return peaks, {"out": clipped, "v_in": v_in, "sat": sat}

        k0 = input_voltage_scale_many(rhs_rows, v_fs, self.fraction)
        final, final_k = auto_range_many(run_subset, k0, v_fs)
        tally.specs.append(
            BatchedOpSpec.from_stage(
                "direct-inv", stage, final["out"], final["v_in"], final["sat"]
            )
        )
        tally.dac_conversions += 1
        tally.adc_conversions += 1
        digitized = quantize_voltages(final["out"], conv.adc_bits, v_fs)
        divisor = (final_k * self.scale).astype(digitized.dtype, copy=False)
        return -digitized / divisor[:, None]


class _DigitalGlueNode:
    """Non-terminal node: the five-step algorithm with digital glue."""

    def __init__(
        self,
        block: np.ndarray,
        depth_remaining: int,
        config: HardwareConfig,
        partition: PartitionSpec,
        fraction: float,
        rng,
    ):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        blocks = prepare_blocks(normalized, partition)
        self.split = blocks.split
        self.blocks = blocks
        n = normalized.shape[0]
        # Terminal arrays are the size the deepest partition produces.
        tile = max(1, (n + (1 << depth_remaining) - 1) >> depth_remaining)
        self.upper = _build_node(
            blocks.a1, depth_remaining - 1, config, partition, fraction, rng
        )
        self.lower = _build_node(
            blocks.a4s, depth_remaining - 1, config, partition, fraction, rng
        )
        self.tiles_a2 = _TiledMVM(blocks.a2, tile, config, rng)
        self.tiles_a3 = _TiledMVM(blocks.a3, tile, config, rng)

    def count_resources(self, counts: _ResourceCount) -> None:
        self.upper.count_resources(counts)
        self.lower.count_resources(counts)
        counts.array_count += self.tiles_a2.array_count + self.tiles_a3.array_count
        counts.device_count += self.tiles_a2.device_count + self.tiles_a3.device_count

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rngs
    ) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row; the recursion stays matrix-valued.

        The five-step glue schedule runs once with ``(batch, n)``
        blocks flowing between child nodes — every digital combination
        is element-wise (bitwise batch-stable) and every analog stage
        delegates to the shared multi-RHS kernel, so row ``c`` is
        bit-identical to a one-vector walk of the tree for ``rhs_rows[c]``.
        """
        rhs_n = np.asarray(rhs_rows, dtype=float) / self.scale
        f = rhs_n[:, : self.split]
        g = rhs_n[:, self.split :]

        y_t = self.upper.solve_many(f, tally, rngs)
        g_t = self.tiles_a3.apply_many(y_t, self.fraction, tally, rngs)
        z = self.lower.solve_many(g - g_t, tally, rngs)
        f_t = self.tiles_a2.apply_many(z, self.fraction, tally, rngs)
        y = self.upper.solve_many(f - f_t, tally, rngs)
        return np.concatenate([y, z], axis=1)


def _build_node(block, depth_remaining, config, partition, fraction, rng):
    block = np.asarray(block, dtype=float)
    if block.shape[0] < 2:
        return _DirectInvNode(block, config, fraction, rng)
    if depth_remaining <= 1:
        return _MacroNode(block, config, partition, fraction, rng)
    return _DigitalGlueNode(block, depth_remaining, config, partition, fraction, rng)


@dataclass(frozen=True)
class PreparedMultiStage:
    """A programmed multi-stage solver bound to one matrix."""

    matrix: np.ndarray
    root: object
    stages: int

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` on the programmed solver tree.

        Exactly ``solve_many([b], rng)[0]``: a batch of one through the
        tree's cached engines.
        """
        b = check_vector(b, "b", size=self.matrix.shape[0])
        return self.solve_many([b], rng)[0]

    def solve_many(
        self, rhs_batch, rng=None, *, lean: bool = False
    ) -> tuple[SolveResult, ...]:
        """Solve a batch of right-hand sides on the programmed tree.

        Programming the whole solver tree — including every tile array's
        variation draw and parasitic extraction — happened once in
        :meth:`MultiStageSolver.prepare`; this method amortizes that
        setup across the batch *and* runs the recursion matrix-valued:
        ``(batch, n)`` blocks flow through the digital glue, every
        macro node executes the five-step schedule once per batch
        through :class:`~repro.core.blockamc.BatchedFiveStep` (factor
        once, per-column ``getrs``), and tile MVMs run the shared
        multi-RHS kernel. Results are **bit-identical** to a sequential
        loop of :meth:`solve` calls — the same contract as
        :meth:`~repro.core.blockamc.PreparedBlockAMC.solve_many`,
        including its rule for configurations with per-operation noise
        (batch-of-1 per right-hand side, sharing the one generator).

        With ``lean=True`` the per-result payload is a
        :class:`~repro.core.solution.LeanSolveResult` (same solution
        bits, no per-operation OpResult construction).
        """
        return solve_in_blocks(
            self._solve_block, rhs_batch, self.matrix.shape[0], self.root.config, rng, lean
        )

    def _solve_block(self, bs: np.ndarray, rngs, lean: bool) -> tuple:
        """One pass of the tree over row-stacked ``bs`` (``rngs[c]`` per row)."""
        batch = bs.shape[0]
        tally = _BatchTally()
        x = self.root.solve_many(bs, tally, rngs)
        counts = _ResourceCount()
        self.root.count_resources(counts)
        # Per-column exact references through np.linalg.solve, one
        # vector at a time (the reference's bits never see the batch).
        references = np.stack(
            [np.linalg.solve(self.matrix, bs[c]) for c in range(batch)]
        )
        solver = f"blockamc-{self.stages}stage"

        if lean:
            # Same left-fold summation order as SolveResult.analog_time_s.
            analog_total = float(
                sum(spec.settling_time_s for spec in tally.specs)
            )
            saturated = np.zeros(batch, dtype=bool)
            for spec in tally.specs:
                saturated |= spec.saturated
            return tuple(
                LeanSolveResult(
                    x=x[c],
                    reference=references[c],
                    solver=solver,
                    saturated=bool(saturated[c]),
                    analog_time_s=analog_total,
                    metadata={},
                )
                for c in range(batch)
            )

        metadata = {
            "stages": self.stages,
            "macro_count": counts.macro_count,
            "array_count": counts.array_count,
            "device_count": counts.device_count,
            "dac_conversions": tally.dac_conversions,
            "adc_conversions": tally.adc_conversions,
        }
        return tuple(
            SolveResult(
                x=x[c],
                reference=references[c],
                solver=solver,
                operations=tuple(spec.op_result(c) for spec in tally.specs),
                metadata=dict(metadata),
            )
            for c in range(batch)
        )


class MultiStageSolver:
    """Recursive BlockAMC: ``stages`` levels of divide-and-conquer.

    ``stages=1`` is the one-stage solver (a single macro); ``stages=2``
    reproduces the paper's two-stage architecture.
    """

    def __init__(
        self,
        config: HardwareConfig | None = None,
        stages: int = 2,
        partition: PartitionSpec | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        if stages < 1:
            raise SolverError(f"stages must be >= 1, got {stages}")
        self.config = config or HardwareConfig.ideal()
        self.stages = stages
        self.partition = partition or PartitionSpec()
        self.input_fraction = input_fraction

    @property
    def name(self) -> str:
        """Solver identifier used in reports."""
        return f"blockamc-{self.stages}stage"

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedMultiStage:
        """Preprocess and program the whole solver tree for ``matrix``."""
        matrix = check_square_matrix(matrix)
        rng = as_generator(rng)
        root = _build_node(
            matrix, self.stages, self.config, self.partition, self.input_fraction, rng
        )
        return PreparedMultiStage(matrix=matrix, root=root, stages=self.stages)

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the solver tree and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
