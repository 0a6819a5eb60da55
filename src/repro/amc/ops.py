"""The two AMC primitives: one-step MVM and one-step INV.

Both primitives reduce, at DC, to linear-algebra on the *effective*
operator the crossbar implements (programmed conductances corrected by
the interconnect model). Deriving the finite-gain equations from KCL at
the op-amp summing nodes (single-pole op-amp, inverting input at
``v = -v_out / A0``):

**MVM** (Fig. 1a, feedback conductance ``G0``)::

    v_out_i = (-(M v_in)_i + (1 + L_i) vos_i) / (1 + (1 + L_i) / A0)

**INV** (Fig. 1b, input conductance ``G0 * s`` with input scale ``s``)::

    (M + D / A0) v_out = -s * v_in + (s + L) * vos,   D = diag(s + L_i)

where ``M`` is the normalized effective matrix, ``L_i`` the total
normalized conductance loading row ``i`` (both arrays of the pair load the
node regardless of sign), ``A0`` the open-loop gain, and ``vos_i`` the
random input-referred offset of amplifier ``i`` (multiplied by its noise
gain ``1 + L_i`` — the term that makes accuracy degrade with array size
even under ideal mapping). As ``A0 -> inf`` and ``vos -> 0`` these
collapse to the paper's ideal relations ``v_out = -M v_in`` and
``v_out = -M^-1 v_in``.

The ``input scale`` deserves a note: when a block (typically the Schur
complement) needs its own normalization ``s < 1`` to fit the conductance
window, the INV input conductance is scaled by the same factor
(``G0 -> s * G0``), which cancels the array scale *inside the analog
domain* — no digital fix-up of cascaded intermediates is needed.

Every call returns an :class:`OpResult` carrying the actual and ideal
outputs (for the paper's scatter plots), the settling time, and resource
counts for the cost model. With ``HardwareConfig.use_mna`` the same
operations are routed through full MNA netlists
(:mod:`repro.circuits.generators`) instead of the algebraic model; tests
verify the two paths agree.

The algebraic physics itself lives in :mod:`repro.core.common` — the
shared shape-generic kernel also driving the trial-batched and
multi-RHS engines — so this module only owns the scalar call shape:
per-operation telemetry, quasi-static offset caching, output noise, and
the MNA routing.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.circuits.dynamics import inv_settling_or_inf, mvm_settling_time
from repro.circuits.generators import build_inv_circuit, build_mvm_circuit
from repro.circuits.mna import assemble_mna
from repro.core.common import (
    draw_offsets,
    ideal_inv,
    ideal_mvm,
    inv_raw,
    mvm_raw,
    saturate,
)
from repro.crossbar.array import CrossbarArray
from repro.errors import SolverError
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive, check_vector


@dataclass(frozen=True)
class OpResult:
    """Telemetry of one analog operation.

    Attributes
    ----------
    kind:
        ``"mvm"`` or ``"inv"``.
    label:
        Free-form tag (e.g. ``"step1:INV(A1)"``) used by reports.
    output:
        Actual circuit output voltages (includes the hardware minus sign).
    ideal_output:
        What a perfect circuit would have produced for the same input
        (also carries the minus sign) — the paper's "numerical" reference
        for the per-step scatter plots of Fig. 6(a).
    settling_time_s:
        First-order settling-time estimate for this operation.
    saturated:
        True when any output clipped at the op-amp saturation voltage.
    rows, cols:
        Array dimensions used.
    opa_count:
        Op-amps engaged by the operation.
    device_count:
        RRAM cells engaged (both arrays of the pair).
    """

    kind: str
    label: str
    output: np.ndarray
    ideal_output: np.ndarray
    settling_time_s: float
    saturated: bool
    rows: int
    cols: int
    opa_count: int
    device_count: int

    @property
    def error_vector(self) -> np.ndarray:
        """Element-wise deviation of the actual output from ideal."""
        return self.output - self.ideal_output


class AMCOperations:
    """Executes MVM/INV primitives under one :class:`HardwareConfig`.

    One instance models one physical op-amp column: input offsets are
    drawn once per column size on first use and then held fixed (real
    offsets are quasi-static device mismatch), so the five steps of a
    macro — which share the column through the transmission gates — see
    the *same* offsets. Output noise, by contrast, is fresh per
    operation.
    """

    def __init__(self, config: HardwareConfig | None = None):
        self.config = config or HardwareConfig.ideal()
        self._offsets_by_rows: dict[int, np.ndarray] = {}
        # Assembled (stamped + factorizable) MNA systems per array. Input
        # voltages enter MNA purely through the RHS, so one assembly and
        # one LU factorization serve every operation on the same array —
        # the five-step schedule (and its gain-ranging reruns) factor each
        # array's circuit once per programming, not once per op.
        self._assembled: "weakref.WeakKeyDictionary[CrossbarArray, dict]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _ideal_matrix(self, array: CrossbarArray) -> np.ndarray:
        """Normalized matrix a perfect array would implement."""
        if array.target is not None:
            return array.target.reconstruct_normalized()
        return (np.asarray(array.g_pos) - np.asarray(array.g_neg)) / array.g_unit

    def _saturate(self, v_out: np.ndarray) -> tuple[np.ndarray, bool]:
        clipped, saturated = saturate(v_out, self.config.opamp.v_sat)
        return clipped, bool(saturated)

    def _draw_offsets(self, rows: int, rng) -> np.ndarray | None:
        """Input-referred offsets of the shared op-amp column.

        Drawn once per column size and cached: offsets are device
        mismatch, fixed for the life of the hardware (until re-drawn by
        a new :class:`AMCOperations`, i.e. a new physical instance).
        """
        sigma = self.config.opamp.input_offset_sigma_v
        if sigma == 0.0:
            return None
        cached = self._offsets_by_rows.get(rows)
        if cached is None:
            cached = draw_offsets(sigma, rows, rng)
            self._offsets_by_rows[rows] = cached
        return cached

    def _add_output_noise(self, raw: np.ndarray, rng) -> np.ndarray:
        """Per-operation output-referred noise (fresh sample each op).

        Draws are always float64 (identical generator stream across
        precision tiers); the sum is cast back to the operating dtype.
        """
        sigma = self.config.opamp.output_noise_sigma_v
        if sigma == 0.0:
            return raw
        noisy = raw + as_generator(rng).normal(0.0, sigma, size=raw.shape)
        return noisy.astype(raw.dtype, copy=False)

    # ------------------------------------------------------------------
    # MVM
    # ------------------------------------------------------------------
    def mvm(
        self,
        array: CrossbarArray,
        v_in: np.ndarray,
        label: str = "mvm",
        rng=None,
    ) -> OpResult:
        """One-step analog MVM: ``v_out ~ -(M v_in)``.

        Parameters
        ----------
        array:
            Programmed crossbar pair implementing the matrix.
        v_in:
            BL drive voltages (one per column).
        label:
            Telemetry tag.
        rng:
            Seed or generator driving the op-amp offset draw.
        """
        rows, cols = array.shape
        v_in = check_vector(v_in, "v_in", size=cols)

        ideal = ideal_mvm(self._ideal_matrix(array), v_in)
        offsets = self._draw_offsets(rows, rng)

        if self.config.use_mna:
            # MNA routing always solves the netlist at float64.
            raw = self._mvm_mna(array, v_in, offsets)
        else:
            bk = self.config.resolve_backend()
            raw = mvm_raw(
                bk.cast(array.effective_matrix(self.config.parasitics)),
                bk.cast(array.load_row_sums()),
                bk.cast(v_in),
                bk.cast(offsets),
                self.config.opamp.open_loop_gain,
            )

        raw = self._add_output_noise(raw, rng)
        output, saturated = self._saturate(raw)
        g_total = np.asarray(array.g_pos) + np.asarray(array.g_neg)
        settle = mvm_settling_time(g_total, array.g_unit, self.config.opamp.gbwp_hz)
        return OpResult(
            kind="mvm",
            label=label,
            output=output,
            ideal_output=ideal,
            settling_time_s=settle,
            saturated=saturated,
            rows=rows,
            cols=cols,
            opa_count=rows,
            device_count=array.device_count,
        )

    def _cached_assembly(self, array: CrossbarArray, key: tuple, build):
        """Assembled MNA system for ``array``, built at most once per key."""
        per_array = self._assembled.get(array)
        if per_array is None:
            per_array = {}
            self._assembled[array] = per_array
        entry = per_array.get(key)
        if entry is None:
            circuit, outputs = build()
            entry = (assemble_mna(circuit), outputs)
            per_array[key] = entry
        return entry

    def _mvm_mna(
        self, array: CrossbarArray, v_in: np.ndarray, offsets: np.ndarray | None
    ) -> np.ndarray:
        gain = self.config.opamp.open_loop_gain

        def build():
            return build_mvm_circuit(
                array.g_pos,
                array.g_neg,
                np.zeros_like(v_in),
                g_feedback=array.g_unit,
                r_wire=self.config.parasitics.r_wire
                if not self.config.parasitics.is_ideal
                else 0.0,
                opamp_gain=None if math.isinf(gain) else gain,
                offsets=offsets,
                columnar=True,
            )

        assembled, outputs = self._cached_assembly(array, ("mvm", id(offsets)), build)
        overrides: dict[str, float] = {}
        for j, v in enumerate(v_in):
            overrides[f"Vp_{j}"] = float(v)
            overrides[f"Vn_{j}"] = float(-v)
        return assembled.solve(overrides).voltages(outputs)

    # ------------------------------------------------------------------
    # INV
    # ------------------------------------------------------------------
    def inv(
        self,
        array: CrossbarArray,
        v_in: np.ndarray,
        label: str = "inv",
        input_scale: float = 1.0,
        rng=None,
    ) -> OpResult:
        """One-step analog linear-system solution: ``v_out ~ -(M^-1 v_in)``.

        Parameters
        ----------
        array:
            Programmed square crossbar pair.
        v_in:
            Input voltages conveyed through the input conductances.
        label:
            Telemetry tag.
        input_scale:
            Ratio ``g_input / G0``; used to cancel a block's private array
            scale in-analog (see module docstring).
        rng:
            Seed or generator driving the op-amp offset draw.
        """
        rows, cols = array.shape
        if rows != cols:
            raise SolverError(f"INV requires a square array, got {array.shape}")
        v_in = check_vector(v_in, "v_in", size=rows)
        check_positive(input_scale, "input_scale")

        ideal = ideal_inv(self._ideal_matrix(array), v_in, input_scale)

        offsets = self._draw_offsets(rows, rng)
        effective = array.effective_matrix(self.config.parasitics)
        if self.config.use_mna:
            # MNA routing always solves the netlist at float64.
            raw = self._inv_mna(array, v_in, input_scale, offsets)
        else:
            bk = self.config.resolve_backend()
            raw = inv_raw(
                bk.cast(effective),
                bk.cast(array.load_row_sums()),
                bk.cast(v_in),
                bk.cast(offsets),
                input_scale,
                self.config.opamp.open_loop_gain,
            )

        raw = self._add_output_noise(raw, rng)
        output, saturated = self._saturate(raw)
        settle = self._inv_settle(effective)
        return OpResult(
            kind="inv",
            label=label,
            output=output,
            ideal_output=ideal,
            settling_time_s=settle,
            saturated=saturated,
            rows=rows,
            cols=cols,
            opa_count=rows,
            device_count=array.device_count,
        )

    def _inv_settle(self, effective: np.ndarray) -> float:
        """Settling estimate; unstable circuits report infinite time."""
        return inv_settling_or_inf(effective, self.config.opamp.gbwp_hz)

    def _inv_mna(
        self,
        array: CrossbarArray,
        v_in: np.ndarray,
        input_scale: float,
        offsets: np.ndarray | None,
    ) -> np.ndarray:
        gain = self.config.opamp.open_loop_gain

        def build():
            return build_inv_circuit(
                array.g_pos,
                array.g_neg,
                np.zeros_like(v_in),
                g_input=input_scale * array.g_unit,
                r_wire=self.config.parasitics.r_wire
                if not self.config.parasitics.is_ideal
                else 0.0,
                opamp_gain=None if math.isinf(gain) else gain,
                offsets=offsets,
                columnar=True,
            )

        assembled, outputs = self._cached_assembly(
            array, ("inv", float(input_scale), id(offsets)), build
        )
        overrides = {f"Vin_{i}": float(v) for i, v in enumerate(v_in)}
        return assembled.solve(overrides).voltages(outputs)
