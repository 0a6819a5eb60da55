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

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import quantize_voltages
from repro.amc.ops import AMCOperations
from repro.core.blockamc import PreparedTree, Programming
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    NoiseDraws,
    auto_range_many,
    input_voltage_scale_many,
)
from repro.core.partition import PartitionSpec
from repro.core.solution import SolveResult
from repro.errors import SolverError
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix


@dataclass
class _ResourceCount:
    """Hardware inventory of a solver tree (batch-invariant)."""

    macro_count: int = 0
    array_count: int = 0
    device_count: int = 0


class _TiledMVM:
    """A (possibly rectangular) block tiled over terminal-size arrays.

    ``apply_many`` computes ``block @ v`` per row by running one analog
    MVM per tile, digitizing each partial product, and summing
    digitally. An all-zero tile gets no array (and makes no
    programming draw).
    """

    def __init__(self, block: np.ndarray, tile: int, programming):
        if tile < 1:
            raise SolverError(f"tile size must be >= 1, got {tile}")
        self.config = config = programming.config
        self.ops = AMCOperations(config)
        self.rows, self.cols = block.shape[-2:]
        self.row_starts = list(range(0, self.rows, tile))
        self.col_starts = list(range(0, self.cols, tile))
        self.arrays: dict[tuple[int, int], object] = {}
        for ri, r0 in enumerate(self.row_starts):
            for ci, c0 in enumerate(self.col_starts):
                sub = block[..., r0 : r0 + tile, c0 : c0 + tile]
                # An all-zero tile needs no array at all (e.g. the
                # off-diagonal blocks of triangular or banded systems)
                # — the partial product is exactly zero.
                if programming.nonzero(sub):
                    self.arrays[(ri, ci)] = programming.program(sub)
        self.col_bounds = list(zip(self.col_starts, self.col_starts[1:] + [self.cols]))
        row_bounds = list(zip(self.row_starts, self.row_starts[1:] + [self.rows]))
        #: (label, column chunk, row span, stage) per tile, row-major.
        self.stages = [
            (f"tile-mvm[{ri},{ci}]", ci, r0, r1, programming.mvm(self.ops, array))
            for ri, (r0, r1) in enumerate(row_bounds)
            for ci in range(len(self.col_bounds))
            if (array := self.arrays.get((ri, ci))) is not None
        ]
        self.offsets = programming.offsets(self.ops)

    @property
    def array_count(self) -> int:
        """Number of tile array pairs."""
        return len(self.arrays)

    @property
    def device_count(self) -> int:
        """Total RRAM cells across all tiles."""
        return sum(a.device_count for a in self.arrays.values())

    def apply_many(self, v_rows: np.ndarray, fraction: float, tally, rngs) -> np.ndarray:
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
        col_bounds, stages = self.col_bounds, self.stages
        noise = NoiseDraws(rngs, self.config)
        offsets = self.offsets(rngs)

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
            for ti, (_, ci, r0, r1, stage) in enumerate(stages):
                clipped, sat = stage.op(chunks[ci], offsets.take(r1 - r0, indices), noise, indices)
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
        for ti, (label, ci, _, _, stage) in enumerate(stages):
            tally.record(label, stage, final[f"tile{ti}"], final[f"chunk{ci}"], final[f"tsat{ti}"])
        tally.dac_conversions += len(col_bounds)
        tally.adc_conversions += len(stages)
        return final["out"] / final_k[:, None]


class _MacroNode:
    """Terminal solver node: a one-stage BlockAMC macro for one block."""

    def __init__(self, block: np.ndarray, programming, partition: PartitionSpec, fraction: float):
        self.config = programming.config
        self.fraction = fraction
        normalized, self.scale = programming.normalize(block)
        blocks = programming.prepare(normalized, partition)
        self.split, self.schur_scale = blocks.split, blocks.schur_scale
        # The macro itself exists for shared programming only (resource
        # counts, result metadata, the scalar oracle); the engine exists
        # for both.
        self.macro, self.engine = programming.macro(blocks)

    @property
    def device_count(self) -> int:
        return self.macro.device_count

    def count_resources(self, counts: _ResourceCount) -> None:
        counts.macro_count += 1
        counts.array_count += 4
        counts.device_count += self.macro.device_count

    def solve_many(self, rhs_rows: np.ndarray, tally, rngs) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row through the five-step engine.

        The node's :class:`~repro.core.blockamc.BatchedFiveStep` holds
        the factorizations, settling analysis and offsets, so every
        batch reuses them — including the two visits the glue recursion
        pays this node per solve.
        """
        engine = self.engine
        final, final_k = engine.run(rhs_rows, self.fraction, rngs)
        engine.record(final, tally)
        tally.input_scale = final_k
        tally.dac_conversions += 2
        tally.adc_conversions += 2
        return engine.solution(final, final_k, self.scale)


class _DirectInvNode:
    """Terminal node that runs one INV over its whole block.

    Blocks too small to partition (n < 2) end the recursion here; over
    a full matrix it is the original (monolithic) AMC solver, whose
    operation carries the ``label`` ``"INV(A)"``.
    """

    def __init__(
        self, block: np.ndarray, programming, fraction: float, label: str = "direct-inv"
    ):
        self.config = config = programming.config
        self.fraction = fraction
        self.label = label
        normalized, self.scale = programming.normalize(block)
        self.size = normalized.shape[-1]
        self.array = programming.program(normalized)
        self.ops = AMCOperations(config)
        self.stage = programming.inv(self.ops, self.array)
        self.offsets = programming.offsets(self.ops)

    def count_resources(self, counts: _ResourceCount) -> None:
        counts.array_count += 1
        counts.device_count += self.array.device_count

    def solve_many(self, rhs_rows: np.ndarray, tally, rngs) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row: one INV factorization, many columns."""
        conv = self.config.converters
        v_fs = conv.v_fs
        stage = self.stage
        noise = NoiseDraws(rngs, self.config)
        offsets = self.offsets(rngs)

        def run_subset(k, indices):
            # The DAC output stays float64 (the stage casts its input),
            # so the ideal output sees what the scalar op sees.
            v_in = quantize_voltages(k[:, None] * rhs_rows[indices], conv.dac_bits, v_fs)
            clipped, sat = stage.op(v_in, offsets.take(self.size, indices), noise, indices)
            peaks = np.max(np.abs(clipped), axis=1)
            return peaks, {"out": clipped, "v_in": v_in, "sat": sat}

        k0 = input_voltage_scale_many(rhs_rows, v_fs, self.fraction)
        final, final_k = auto_range_many(run_subset, k0, v_fs)
        tally.record(self.label, stage, final["out"], final["v_in"], final["sat"])
        tally.input_scale = final_k
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
        programming,
        partition: PartitionSpec,
        fraction: float,
    ):
        self.config = programming.config
        self.fraction = fraction
        normalized, self.scale = programming.normalize(block)
        # Rows divide by their own matrix's scale (one per stacked trial).
        self._row_scale = np.expand_dims(self.scale, -1)
        blocks = programming.prepare(normalized, partition)
        self.split = blocks.split
        n = normalized.shape[-1]
        # Terminal arrays are the size the deepest partition produces.
        tile = max(1, (n + (1 << depth_remaining) - 1) >> depth_remaining)
        # Programming order: the upper child's arrays, the lower
        # child's, then the A2 and A3 tiles.
        self.upper = _build_node(blocks.a1, depth_remaining - 1, programming, partition, fraction)
        self.lower = _build_node(blocks.a4s, depth_remaining - 1, programming, partition, fraction)
        self.tiles_a2 = _TiledMVM(blocks.a2, tile, programming)
        self.tiles_a3 = _TiledMVM(blocks.a3, tile, programming)

    def count_resources(self, counts: _ResourceCount) -> None:
        self.upper.count_resources(counts)
        self.lower.count_resources(counts)
        counts.array_count += self.tiles_a2.array_count + self.tiles_a3.array_count
        counts.device_count += self.tiles_a2.device_count + self.tiles_a3.device_count

    def solve_many(self, rhs_rows: np.ndarray, tally, rngs) -> np.ndarray:
        """Solve ``block @ x = rhs`` per row; the recursion stays matrix-valued.

        The five-step glue schedule runs once with ``(batch, n)``
        blocks flowing between child nodes — every digital combination
        is element-wise (bitwise batch-stable) and every analog stage
        delegates to the shared multi-RHS kernel, so row ``c`` is
        bit-identical to a one-vector walk of the tree for ``rhs_rows[c]``.
        """
        rhs_n = np.asarray(rhs_rows, dtype=float) / self._row_scale
        f = rhs_n[:, : self.split]
        g = rhs_n[:, self.split :]

        y_t = self.upper.solve_many(f, tally, rngs)
        g_t = self.tiles_a3.apply_many(y_t, self.fraction, tally, rngs)
        z = self.lower.solve_many(g - g_t, tally, rngs)
        f_t = self.tiles_a2.apply_many(z, self.fraction, tally, rngs)
        y = self.upper.solve_many(f - f_t, tally, rngs)
        return np.concatenate([y, z], axis=1)


def _build_node(block, depth_remaining, programming, partition, fraction):
    """The solver tree for ``block`` (one matrix, or a stack of trials)."""
    block = np.asarray(block, dtype=float)
    if block.shape[-1] < 2:
        return _DirectInvNode(block, programming, fraction)
    if depth_remaining <= 1:
        return _MacroNode(block, programming, partition, fraction)
    return _DigitalGlueNode(block, depth_remaining, programming, partition, fraction)


@dataclass(frozen=True)
class PreparedMultiStage(PreparedTree):
    """A programmed multi-stage solver bound to one matrix.

    ``solve_many`` runs the recursion matrix-valued: ``(batch, n)``
    blocks flow through the digital glue, every macro node executes the
    five-step schedule once per batch, and tile MVMs run the shared
    multi-RHS kernel.
    """

    stages: int

    @property
    def solver(self) -> str:
        return f"blockamc-{self.stages}stage"

    def _lean_metadata(self, tally, c: int) -> dict:
        return {}  # the tree ranges per node: no one input scale

    def _metadata(self, bs, tally):
        counts = _ResourceCount()
        self.root.count_resources(counts)
        metadata = {
            "stages": self.stages,
            "macro_count": counts.macro_count,
            "array_count": counts.array_count,
            "device_count": counts.device_count,
            "dac_conversions": tally.dac_conversions,
            "adc_conversions": tally.adc_conversions,
        }
        return [dict(metadata) for _ in range(bs.shape[0])]


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

    def build(self, matrix: np.ndarray, programming):
        """The solver tree: ``stages`` levels of divide-and-conquer."""
        return _build_node(
            matrix, self.stages, programming, self.partition, self.input_fraction
        )

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedMultiStage:
        """Preprocess and program the whole solver tree for ``matrix``."""
        matrix = check_square_matrix(matrix)
        root = self.build(matrix, Programming(self.config, as_generator(rng)))
        return PreparedMultiStage(matrix=matrix, root=root, stages=self.stages)

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the solver tree and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
