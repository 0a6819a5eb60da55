"""The reconfigurable BlockAMC macro.

A :class:`BlockAMCMacro` owns the four crossbar arrays of one partition
level (``A1``, ``A2``, ``A3``, ``A4s``) and one shared op-amp column
(:class:`~repro.amc.ops.AMCOperations`, whose offsets every step
shares). The paper's five-step schedule runs in the analog voltage
domain, cascading intermediates through two S&H banks exactly as
Fig. 4 describes:

    step 1  INV(A1,  f)          -> -y_t        (S&H)
    step 2  MVM(A3, -y_t)        ->  g_t        (S&H)
    step 3  INV(A4s, g_t - g)    ->  z          (ADC: bottom half)
    step 4  MVM(A2,  z)          -> -f_t        (S&H)
    step 5  INV(A1,  f - f_t)    -> -y          (ADC: upper half, negated)

Inputs ``f`` and ``g`` arrive through the DAC; only the step-3 and step-5
outputs leave through the ADC. All sign bookkeeping follows the paper.
The schedule's one body is :class:`repro.core.blockamc.BatchedFiveStep`;
:func:`reference_schedule` gives its exact-arithmetic step outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.ops import AMCOperations
from repro.core.common import contract, factored
from repro.crossbar.array import CrossbarArray
from repro.errors import SolverError


@dataclass(frozen=True)
class MacroArrays:
    """The four programmed arrays of one partition level.

    ``schur_input_scale`` is ``g_input / G0`` of the ``A4s`` INV stage; it
    cancels the Schur complement's private normalization in-analog (see
    :mod:`repro.amc.ops`).
    """

    a1: CrossbarArray
    a2: CrossbarArray
    a3: CrossbarArray
    a4s: CrossbarArray
    schur_input_scale: float = 1.0

    def __post_init__(self):
        k = self.a1.shape[0]
        m = self.a4s.shape[0]
        if self.a1.shape != (k, k):
            raise SolverError(f"A1 must be square, got {self.a1.shape}")
        if self.a4s.shape != (m, m):
            raise SolverError(f"A4s must be square, got {self.a4s.shape}")
        if self.a2.shape != (k, m):
            raise SolverError(f"A2 must be {k}x{m}, got {self.a2.shape}")
        if self.a3.shape != (m, k):
            raise SolverError(f"A3 must be {m}x{k}, got {self.a3.shape}")
        if self.schur_input_scale <= 0.0:
            raise SolverError(f"schur_input_scale must be > 0, got {self.schur_input_scale}")

    @property
    def upper_size(self) -> int:
        """Rows of the leading block (length of ``f``)."""
        return self.a1.shape[0]

    @property
    def lower_size(self) -> int:
        """Rows of the trailing block (length of ``g``)."""
        return self.a4s.shape[0]

    @property
    def size(self) -> int:
        """Size of the original system this level solves."""
        return self.upper_size + self.lower_size

    @property
    def device_count(self) -> int:
        """Total RRAM cells across the four array pairs."""
        return (
            self.a1.device_count
            + self.a2.device_count
            + self.a3.device_count
            + self.a4s.device_count
        )


def reference_schedule(
    a1,
    a2: np.ndarray,
    a3: np.ndarray,
    a4s_normalized,
    f: np.ndarray,
    g: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact-arithmetic outputs of the five-step schedule (Fig. 6a).

    Shape-generic over the kernel conventions: ``f``/``g`` may be single
    vectors or row-stacked ``(rhs, n)`` batches, and the batch results
    are bit-identical per row to the scalar calls (solves go one column
    at a time through :class:`repro.core.common.FactoredSystem`,
    contractions through :func:`repro.core.common.contract`).
    ``a4s_normalized`` is the Schur block *after* undoing its private
    array scale (``A4s / schur_input_scale``). The two solved blocks may
    be passed pre-factored (an engine factors them once, not per call).
    """
    a1 = factored(a1, what="A1 block")
    y_t = a1.solve(f)
    g_t = contract(a3, y_t)
    z = factored(a4s_normalized, what="Schur block").solve(g - g_t)
    f_t = contract(a2, z)
    y = a1.solve(f - f_t)
    return {
        "step1": -y_t,
        "step2": g_t,
        "step3": z,
        "step4": -f_t,
        "step5": -y,
    }


class BlockAMCMacro:
    """One-stage BlockAMC macro: four arrays sharing one op-amp column."""

    def __init__(self, arrays: MacroArrays, config: HardwareConfig | None = None):
        self.arrays = arrays
        self.config = config or HardwareConfig.ideal()
        self.ops = AMCOperations(self.config)

    # ------------------------------------------------------------------
    # resource inventory (for the cost model)
    # ------------------------------------------------------------------
    @property
    def opa_count(self) -> int:
        """Shared op-amp column size: the largest block row count."""
        return max(self.arrays.upper_size, self.arrays.lower_size)

    @property
    def dac_count(self) -> int:
        """DAC channels: inputs are at most the larger block's length."""
        return self.opa_count

    @property
    def adc_count(self) -> int:
        """ADC channels: outputs are at most the larger block's length."""
        return self.opa_count

    @property
    def device_count(self) -> int:
        """RRAM cells across all arrays."""
        return self.arrays.device_count
