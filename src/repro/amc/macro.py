"""The reconfigurable BlockAMC macro.

A :class:`BlockAMCMacro` owns the four crossbar arrays of one partition
level (``A1``, ``A2``, ``A3``, ``A4s``), one shared op-amp column, the
DAC/ADC interfaces, and two S&H banks. :meth:`BlockAMCMacro.solve` runs
the paper's five-step schedule in the analog voltage domain, cascading
intermediates through the S&H banks exactly as Fig. 4 describes:

    step 1  INV(A1,  f)          -> -y_t        (S&H)
    step 2  MVM(A3, -y_t)        ->  g_t        (S&H)
    step 3  INV(A4s, g_t - g)    ->  z          (ADC: bottom half)
    step 4  MVM(A2,  z)          -> -f_t        (S&H)
    step 5  INV(A1,  f - f_t)    -> -y          (ADC: upper half, negated)

Inputs ``f`` and ``g`` arrive through the DAC; only the step-3 and step-5
outputs leave through the ADC. All sign bookkeeping follows the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import ADC, DAC, SampleHold
from repro.amc.ops import AMCOperations, OpResult
from repro.amc.scheduler import default_program
from repro.core.common import contract, factored
from repro.crossbar.array import CrossbarArray
from repro.errors import SolverError
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector


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


@dataclass(frozen=True)
class MacroResult:
    """Outcome of one macro execution.

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

    @property
    def saturated(self) -> bool:
        """True when any step clipped at the op-amp rails."""
        return any(step.saturated for step in self.steps)


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
        self.dac = DAC(self.config.converters)
        self.adc = ADC(self.config.converters)
        self.snh_out = SampleHold(self.config.sample_hold)
        self.snh_in = SampleHold(self.config.sample_hold)
        self.program = default_program()

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

    # ------------------------------------------------------------------
    # exact-arithmetic reference of every step (Fig. 6a "numerical")
    # ------------------------------------------------------------------
    def reference_steps(self, f: np.ndarray, g: np.ndarray) -> dict[str, np.ndarray]:
        """Exact step outputs for inputs ``f``, ``g`` (with circuit signs)."""
        return reference_schedule(
            self.arrays.a1.target.reconstruct_normalized(),
            self.arrays.a2.target.reconstruct_normalized(),
            self.arrays.a3.target.reconstruct_normalized(),
            self.arrays.a4s.target.reconstruct_normalized()
            / self.arrays.schur_input_scale,
            f,
            g,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def solve(self, f: np.ndarray, g: np.ndarray, rng=None) -> MacroResult:
        """Run the five-step BlockAMC schedule for inputs ``f`` and ``g``.

        ``f`` and ``g`` are the upper/lower halves of the known vector in
        the analog voltage domain (the caller scales the digital ``b``
        into DAC full scale). Returns the digital solution halves plus
        full telemetry.
        """
        f = check_vector(f, "f", size=self.arrays.upper_size)
        g = check_vector(g, "g", size=self.arrays.lower_size)
        rng = as_generator(rng)

        reference = self.reference_steps(f, g)

        # DAC outputs enter the analog voltage domain: cast to the
        # backend tier (identity on float64) so in-analog sums like
        # ``h2 - v_g`` happen at the tier's precision, exactly like the
        # batched engines.
        cast = self.config.resolve_backend().cast
        v_f = cast(self.dac.convert(f))
        v_g = cast(self.dac.convert(g))

        # Step 1: INV with A1 and f -> -y_t.
        s1 = self.ops.inv(self.arrays.a1, v_f, label="step1:INV(A1)", rng=rng)
        h1 = self.snh_in.transfer(self.snh_out.transfer(s1.output, rng), rng)

        # Step 2: MVM with A3 and -y_t -> g_t (the minus sign is removed
        # by the MVM circuit's own inversion).
        s2 = self.ops.mvm(self.arrays.a3, h1, label="step2:MVM(A3)", rng=rng)
        h2 = self.snh_in.transfer(self.snh_out.transfer(s2.output, rng), rng)

        # Step 3: INV with A4s and (g_t - g); the summation of -g (DAC)
        # and g_t (S&H) happens at the INV input conductances.
        s3 = self.ops.inv(
            self.arrays.a4s,
            h2 - v_g,
            label="step3:INV(A4s)",
            input_scale=self.arrays.schur_input_scale,
            rng=rng,
        )
        h3 = self.snh_in.transfer(self.snh_out.transfer(s3.output, rng), rng)

        # Step 4: MVM with A2 and z -> -f_t.
        s4 = self.ops.mvm(self.arrays.a2, h3, label="step4:MVM(A2)", rng=rng)
        h4 = self.snh_in.transfer(self.snh_out.transfer(s4.output, rng), rng)

        # Step 5: INV with A1 and (f - f_t) -> -y.
        s5 = self.ops.inv(self.arrays.a1, v_f + h4, label="step5:INV(A1)", rng=rng)

        x_lower = self.adc.convert(s3.output)
        x_upper = -self.adc.convert(s5.output)

        return MacroResult(
            x_upper=x_upper,
            x_lower=x_lower,
            steps=(s1, s2, s3, s4, s5),
            reference_steps=reference,
        )
