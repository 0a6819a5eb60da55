"""Baseline: the original (monolithic) AMC solver.

One large INV circuit (Fig. 1b) holding the whole matrix in a single
array pair — the design BlockAMC is compared against throughout the
paper's evaluation. Subject to exactly the same non-idealities, but at
full array size, which is what degrades its accuracy and inflates its
periphery cost. Its solver tree is a single direct-INV node: the
divide-and-conquer of :mod:`repro.core.multistage` applied zero times.
"""

from __future__ import annotations

import numpy as np

from repro.amc.config import HardwareConfig
from repro.core.blockamc import PreparedTree, Programming, _from_root
from repro.core.common import DEFAULT_INPUT_FRACTION
from repro.core.multistage import _DirectInvNode
from repro.core.solution import SolveResult
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix


class PreparedOriginalAMC(PreparedTree):
    """A programmed monolithic INV solver bound to one matrix (a direct-INV root)."""

    solver = "original-amc"
    scale = _from_root("scale", "Normalization scale of the matrix.")
    array = _from_root("array", "The programmed full-size array pair.")
    ops = _from_root("ops", "The op-amp column's :class:`~repro.amc.ops.AMCOperations`.")
    input_fraction = _from_root("fraction", "DAC full-scale fraction of the largest input.")

    def _metadata(self, bs, tally):
        n = self.matrix.shape[0]
        return [
            {
                "scale": self.scale,
                "input_scale": float(k),
                "opa_count": n,
                "dac_count": n,
                "adc_count": n,
                "device_count": self.array.device_count,
                "dac_conversions": tally.dac_conversions,
                "adc_conversions": tally.adc_conversions,
            }
            for k in tally.input_scale
        ]


class OriginalAMCSolver:
    """Solve linear systems with a single full-size INV circuit."""

    name = "original-amc"

    def __init__(
        self,
        config: HardwareConfig | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        self.config = config or HardwareConfig.ideal()
        self.input_fraction = input_fraction

    def build(self, matrix: np.ndarray, programming):
        """The solver tree: one direct-INV node over the whole matrix."""
        return _DirectInvNode(matrix, programming, self.input_fraction, label="INV(A)")

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedOriginalAMC:
        """Normalize and program the full matrix into one array pair."""
        matrix = check_square_matrix(matrix)
        root = self.build(matrix, Programming(self.config, as_generator(rng)))
        return PreparedOriginalAMC(matrix=matrix, root=root)

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the array and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
