"""Trial-batched Monte-Carlo execution of the AMC solvers.

The paper's headline results (Figs. 6-9) re-run the full analog pipeline
for every (size, trial, solver) triple. Per trial the pipeline is a
handful of small dense linear-algebra operations, so the sequential sweep
is dominated by Python and LAPACK call overhead, not arithmetic. This
module stacks all trials of one size into ``(trials, n, n)`` tensors and
runs the *entire* pipeline — normalization, Schur preprocessing,
programming variation, the five-step schedule with gain ranging,
converter quantization, settling-time eigenvalue analysis, and the
digital reference solve — through NumPy's batched linalg.

Equivalence contract (enforced by tests):

- every trial consumes its own ``default_rng(hardware_seed)`` in exactly
  the order the sequential path does (programming draws, then op-amp
  offset draws at each column size's first use, then per-operation
  output-noise and sample-and-hold noise draws in schedule order —
  fresh per gain-ranging attempt, exactly like the scalar reruns), so
  all random samples are **bit-identical** to
  :func:`repro.analysis.accuracy.run_trials`;
- the physics itself is the shared kernel of :mod:`repro.core.common`
  (the same functions the scalar path calls, evaluated per-slice through
  shape-stable contractions and stacked LAPACK), so results are
  **bit-identical** to the sequential path — not merely close
  (``tests/test_kernel_equivalence.py`` asserts exact equality).

All three parasitic fidelities are supported: ideal and first-order
models are shape-generic, and exact extraction routes through
:func:`repro.crossbar.parasitics.exact_effective_matrix_batch`, whose
per-trial results are bit-identical to the scalar Schur engine.
Configurations the batched engine cannot express (MNA routing,
write-and-verify programming, quantized targets, stuck-at faults) are
detected by :func:`make_batched_runner` returning ``None``; callers
fall back to the sequential path.
"""

from __future__ import annotations

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import quantize_voltages
from repro.circuits.dynamics import DEFAULT_EPSILON
from repro.core.blockamc import BlockAMCSolver
from repro.core.common import (
    LazyOffsets,
    NoiseDraws,
    auto_range_many,
    draw_offsets_batch,
    input_voltage_scale_many,
    inv_raw,
    mvm_raw,
    saturate,
    solve_slices,
)
from repro.core.original import OriginalAMCSolver
from repro.crossbar.parasitics import (
    exact_effective_matrix_batch,
    first_order_effective_matrix,
)
from repro.devices.variations import GaussianVariation, RelativeGaussianVariation
from repro.errors import PartitionError, ValidationError

__all__ = ["TrialOutcome", "make_batched_runner", "is_batchable_config"]


class TrialOutcome:
    """Per-trial scalar outcomes of one batched solve.

    Mirrors the fields :class:`repro.analysis.accuracy.AccuracyRecord`
    needs from a :class:`~repro.core.solution.SolveResult`.
    """

    __slots__ = ("relative_error", "saturated", "analog_time_s")

    def __init__(self, relative_error: float, saturated: bool, analog_time_s: float):
        self.relative_error = relative_error
        self.saturated = saturated
        self.analog_time_s = analog_time_s


def is_batchable_config(config: HardwareConfig) -> bool:
    """True when the batched engine reproduces this configuration exactly.

    Output-referred op-amp noise and sample-and-hold noise are covered:
    the batched path draws them per trial, per operation, per ranging
    attempt from each trial's own generator in schedule order — the
    exact stream the scalar path consumes (see
    :class:`repro.core.common.NoiseDraws`).
    """
    programming = config.programming
    return (
        not config.use_mna
        and not programming.use_write_verify
        and not programming.quantize
        and programming.faults.is_trivial
    )


def make_batched_runner(solver):
    """Return a batched runner for ``solver``, or ``None`` if unsupported.

    Supported solvers are :class:`~repro.core.original.OriginalAMCSolver`
    and one-stage :class:`~repro.core.blockamc.BlockAMCSolver` with a
    batchable :class:`~repro.amc.config.HardwareConfig`. The runner
    exposes ``run(matrices, bs, hardware_seeds) -> list[TrialOutcome]``.
    """
    if isinstance(solver, OriginalAMCSolver) and is_batchable_config(solver.config):
        return _BatchedOriginalAMC(solver)
    if isinstance(solver, BlockAMCSolver) and is_batchable_config(solver.config):
        return _BatchedBlockAMC(solver)
    return None


# ----------------------------------------------------------------------
# shared batched building blocks
# ----------------------------------------------------------------------


def _normalize_batch(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`repro.crossbar.mapping.normalize_matrix`."""
    scale = np.max(np.abs(matrices), axis=(1, 2))
    if np.any(scale == 0.0):
        raise ValidationError("cannot normalize an all-zero matrix")
    return matrices / scale[:, None, None], scale


def _program_batch(blocks: np.ndarray, config: HardwareConfig, rngs) -> tuple:
    """Batched programming pipeline for one block position.

    ``blocks`` is ``(trials, r, c)`` of pre-normalized targets. Per trial
    the variation model draws from that trial's own generator, in the
    same (positive array, then negative array) order as
    :meth:`repro.crossbar.array.CrossbarArray.program`, so the samples
    are bit-identical to the sequential path. For the built-in Gaussian
    family only the *noise* is drawn per trial (one generator call per
    array, same stream consumption); the where/clip arithmetic runs once
    over the whole stack.
    """
    g_unit = config.g_unit
    device = config.programming.device
    variation = config.programming.variation
    target_pos = device.clip(np.clip(blocks, 0.0, None) * g_unit)
    target_neg = device.clip(np.clip(-blocks, 0.0, None) * g_unit)
    shape = blocks.shape[1:]

    if isinstance(variation, (GaussianVariation, RelativeGaussianVariation)):
        sigma = (
            variation.sigma
            if isinstance(variation, GaussianVariation)
            else variation.sigma_rel
        )
        noise_pos = np.empty_like(target_pos)
        noise_neg = np.empty_like(target_neg)
        for t, rng in enumerate(rngs):
            noise_pos[t] = rng.normal(0.0, sigma, size=shape)
            noise_neg[t] = rng.normal(0.0, sigma, size=shape)
        if isinstance(variation, GaussianVariation):
            g_pos = np.where(target_pos > 0.0, target_pos + noise_pos, target_pos)
            g_neg = np.where(target_neg > 0.0, target_neg + noise_neg, target_neg)
        else:
            g_pos = np.where(
                target_pos > 0.0, target_pos * (1.0 + noise_pos), target_pos
            )
            g_neg = np.where(
                target_neg > 0.0, target_neg * (1.0 + noise_neg), target_neg
            )
        return np.clip(g_pos, 0.0, None), np.clip(g_neg, 0.0, None)

    g_pos = np.empty_like(target_pos)
    g_neg = np.empty_like(target_neg)
    for t, rng in enumerate(rngs):
        g_pos[t] = variation.apply(target_pos[t], rng)
        g_neg[t] = variation.apply(target_neg[t], rng)
    return g_pos, g_neg


class _ArrayBatch:
    """The batched analog of one :class:`CrossbarArray` across trials."""

    def __init__(self, blocks: np.ndarray, config: HardwareConfig, rngs):
        self.config = config
        g_pos, g_neg = _program_batch(blocks, config, rngs)
        g_unit = config.g_unit
        parasitics = config.parasitics
        if parasitics.is_ideal:
            eff_pos, eff_neg = g_pos, g_neg
        elif parasitics.fidelity == "first_order":
            # The scalar model is shape-generic over a leading trials axis.
            eff_pos = first_order_effective_matrix(
                g_pos, parasitics.r_wire, parasitics.alpha
            )
            eff_neg = first_order_effective_matrix(
                g_neg, parasitics.r_wire, parasitics.alpha
            )
        else:  # exact: batched Schur, bit-identical per trial to the
            # scalar engine (positive array first, like CrossbarArray).
            eff_pos = exact_effective_matrix_batch(g_pos, parasitics.r_wire)
            eff_neg = exact_effective_matrix_batch(g_neg, parasitics.r_wire)
        # Backend cast (identity on the default float64 tier): the
        # programming/parasitics pipeline above always computes float64;
        # only the assembled analog operands drop to the tier dtype.
        bk = config.resolve_backend()
        # Settling analysis stays on the float64 effectives (like the
        # scalar ops, which analyze before casting) so timing metadata
        # is tier-independent.
        self._settle_effective = (eff_pos - eff_neg) / g_unit  # (T, r, c)
        self.effective = bk.cast(self._settle_effective)
        g_total = g_pos + g_neg
        self.load_row_sums = bk.cast(g_total.sum(axis=2) / g_unit)  # (T, r)
        self.max_row_total = g_total.sum(axis=2).max(axis=1)  # (T,)
        self.rows = blocks.shape[1]
        self.cols = blocks.shape[2]

    def mvm_settle(self) -> np.ndarray:
        """Batched :func:`repro.circuits.dynamics.mvm_settling_time`."""
        g_fb = self.config.g_unit
        gbwp = self.config.opamp.gbwp_hz
        noise_gain = 1.0 + (g_fb + self.max_row_total) / g_fb
        tau = noise_gain / (2.0 * np.pi * gbwp)
        return np.log(1.0 / DEFAULT_EPSILON) * tau

    def inv_settle(self) -> np.ndarray:
        """Batched INV settling times (one stacked ``eigvals`` call)."""
        gbwp = self.config.opamp.gbwp_hz
        margins = np.min(np.linalg.eigvals(self._settle_effective).real, axis=1)
        with np.errstate(divide="ignore"):
            tau = (1.0 + 1.0 / margins) / (2.0 * np.pi * gbwp)
        return np.where(margins <= 0.0, np.inf, np.log(1.0 / DEFAULT_EPSILON) * tau)


#: The converter model is shape-generic; reuse the single implementation
#: from amc.interfaces so the quantizer has exactly one definition.
_quantize_batch = quantize_voltages


class _OpAccumulator:
    """Per-trial step telemetry (peaks, saturation flags, settle sums).

    Gain-ranging reruns re-execute individual trials, and only the
    accepted attempt's telemetry survives in the sequential path, so
    :meth:`begin` resets the rerun trials before their steps re-register
    through :meth:`add_for`.
    """

    def __init__(self, trials: int, v_sat: float):
        self.saturated = np.zeros(trials, dtype=bool)
        self.settle = np.zeros(trials)
        self.v_sat = v_sat

    def begin(self, indices: np.ndarray) -> None:
        """Start a (re)run attempt for the trial subset ``indices``."""
        self.saturated[indices] = False
        self.settle[indices] = 0.0

    def add_for(self, indices: np.ndarray, raw: np.ndarray, settle) -> np.ndarray:
        """Register one step's raw outputs; returns the (clipped) outputs."""
        out, clipped = saturate(raw, self.v_sat)
        self.saturated[indices] |= clipped
        self.settle[indices] = self.settle[indices] + settle
        return out


def _per_trial_offsets(sigma: float, rngs) -> LazyOffsets:
    """Each trial's own offset columns, drawn from its generator at first use.

    The first ranging attempt covers all trials, so each size's draw
    happens exactly once per trial, at the stream position where the
    scalar schedule first uses that column size.
    """
    return LazyOffsets(lambda size: draw_offsets_batch(sigma, [size], rngs)[size])


def _relative_errors(
    matrices: np.ndarray, bs: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Batched paper Eq. 6 error against the digital reference solve.

    References go through the kernel's per-slice solve so each trial's
    reference is bit-identical to the scalar path's.
    """
    reference = solve_slices(matrices, bs, what="system matrix")
    return np.sum(np.abs(xs - reference), axis=1) / np.sum(np.abs(reference), axis=1)


# ----------------------------------------------------------------------
# solver-specific runners
# ----------------------------------------------------------------------


class _BatchedOriginalAMC:
    """All trials of the monolithic INV solver in stacked linalg."""

    def __init__(self, solver: OriginalAMCSolver):
        self.config = solver.config
        self.input_fraction = solver.input_fraction

    def run(self, matrices: np.ndarray, bs: np.ndarray, hardware_seeds) -> list:
        config = self.config
        rngs = [np.random.default_rng(seed) for seed in hardware_seeds]
        trials, n = bs.shape
        normalized, scale = _normalize_batch(matrices)
        array = _ArrayBatch(normalized, config, rngs)
        offsets = _per_trial_offsets(config.opamp.input_offset_sigma_v, rngs)
        noise = NoiseDraws(rngs, config)
        inv_settle = array.inv_settle()

        conv = config.converters
        v_fs = conv.v_fs
        v_sat = config.opamp.v_sat
        acc = _OpAccumulator(trials, v_sat)
        a0 = config.opamp.open_loop_gain
        cast = config.resolve_backend().cast

        def run_subset(k, indices):
            acc.begin(indices)
            sub = _ArrayView(array, indices)
            v_in = cast(_quantize_batch(k[:, None] * bs[indices], conv.dac_bits, v_fs))
            raw = noise.output(
                indices,
                inv_raw(
                    sub.effective,
                    sub.load_row_sums,
                    v_in,
                    cast(offsets.take(n, indices)),
                    1.0,
                    a0,
                ),
            )
            out = acc.add_for(indices, raw, inv_settle[indices])
            peaks = np.max(np.abs(out), axis=1)
            return peaks, {"out": out}

        k0 = input_voltage_scale_many(bs, v_fs, self.input_fraction)
        final, k = auto_range_many(run_subset, k0, v_fs)

        x = -_quantize_batch(final["out"], conv.adc_bits, v_fs) / cast(k * scale)[:, None]
        errors = _relative_errors(matrices, bs, x)
        return [
            TrialOutcome(float(errors[t]), bool(acc.saturated[t]), float(acc.settle[t]))
            for t in range(trials)
        ]


class _BatchedBlockAMC:
    """All trials of the one-stage BlockAMC schedule in stacked linalg."""

    def __init__(self, solver: BlockAMCSolver):
        self.config = solver.config
        self.partition = solver.partition
        self.input_fraction = solver.input_fraction

    def run(self, matrices: np.ndarray, bs: np.ndarray, hardware_seeds) -> list:
        config = self.config
        rngs = [np.random.default_rng(seed) for seed in hardware_seeds]
        trials, n = bs.shape
        normalized, scale = _normalize_batch(matrices)

        # Digital Schur preprocessing (prepare_blocks, batched).
        split = self.partition.resolve(n)
        a1 = normalized[:, :split, :split]
        a2 = normalized[:, :split, split:]
        a3 = normalized[:, split:, :split]
        a4 = normalized[:, split:, split:]
        try:
            a4s = a4 - a3 @ np.linalg.solve(a1, a2)
        except np.linalg.LinAlgError as exc:
            raise PartitionError(f"leading block A1 is singular: {exc}") from exc
        peak_a4s = np.max(np.abs(a4s), axis=(1, 2))
        if np.any(peak_a4s == 0.0):
            raise PartitionError("Schur complement is identically zero")
        schur_scale = np.maximum(1.0, peak_a4s)
        schur_input_scale = 1.0 / schur_scale

        # Programming order matches build_macro_arrays: a1, a2, a3, a4s.
        arr1 = _ArrayBatch(a1, config, rngs)
        arr2 = _ArrayBatch(a2, config, rngs)
        arr3 = _ArrayBatch(a3, config, rngs)
        arr4s = _ArrayBatch(a4s / schur_scale[:, None, None], config, rngs)

        k_size, m_size = split, n - split
        # Offsets draw lazily in first-use order — step 1 (size k),
        # step 2 (size m) — so per-operation noise draws interleave at
        # the same stream positions as the scalar schedule.
        offsets = _per_trial_offsets(config.opamp.input_offset_sigma_v, rngs)
        noise = NoiseDraws(rngs, config)

        settle1 = arr1.inv_settle()
        settle2 = arr3.mvm_settle()
        settle3 = arr4s.inv_settle()
        settle4 = arr2.mvm_settle()

        conv = config.converters
        v_fs = conv.v_fs
        v_sat = config.opamp.v_sat
        acc = _OpAccumulator(trials, v_sat)
        a0 = config.opamp.open_loop_gain
        cast = config.resolve_backend().cast

        def run_subset(k, indices):
            acc.begin(indices)
            f = k[:, None] * bs[indices, :split]
            g = k[:, None] * bs[indices, split:]
            v_f = cast(_quantize_batch(f, conv.dac_bits, v_fs))
            v_g = cast(_quantize_batch(g, conv.dac_bits, v_fs))

            def view(arr):
                return _ArrayView(arr, indices)

            a1, a2, a3, a4s = view(arr1), view(arr2), view(arr3), view(arr4s)
            # Stream order per trial matches the scalar schedule exactly:
            # offsets(k), noise1, S&H x2, offsets(m), noise2, S&H x2, ...
            # Every op input is cast to the tier like the scalar ops do
            # (noisy S&H hands back float64 there too).
            off_k = cast(offsets.take(k_size, indices))
            s1 = acc.add_for(
                indices,
                noise.output(
                    indices,
                    inv_raw(a1.effective, a1.load_row_sums, v_f, off_k, 1.0, a0),
                ),
                settle1[indices],
            )
            h1 = noise.snh_pair(indices, s1)
            off_m = cast(offsets.take(m_size, indices))
            s2 = acc.add_for(
                indices,
                noise.output(
                    indices,
                    mvm_raw(a3.effective, a3.load_row_sums, cast(h1), off_m, a0),
                ),
                settle2[indices],
            )
            h2 = noise.snh_pair(indices, s2)
            s3 = acc.add_for(
                indices,
                noise.output(
                    indices,
                    inv_raw(
                        a4s.effective,
                        a4s.load_row_sums,
                        cast(h2 - v_g),
                        off_m,
                        schur_input_scale[indices],
                        a0,
                    ),
                ),
                settle3[indices],
            )
            h3 = noise.snh_pair(indices, s3)
            s4 = acc.add_for(
                indices,
                noise.output(
                    indices,
                    mvm_raw(a2.effective, a2.load_row_sums, cast(h3), off_k, a0),
                ),
                settle4[indices],
            )
            h4 = noise.snh_pair(indices, s4)
            s5 = acc.add_for(
                indices,
                noise.output(
                    indices,
                    inv_raw(
                        a1.effective, a1.load_row_sums, cast(v_f + h4), off_k, 1.0, a0
                    ),
                ),
                settle1[indices],
            )
            peaks = np.max(
                np.abs(np.concatenate([s1, s2, s3, s4, s5], axis=1)), axis=1
            )
            x_lower = _quantize_batch(s3, conv.adc_bits, v_fs)
            x_upper = -_quantize_batch(s5, conv.adc_bits, v_fs)
            return peaks, {"x": np.concatenate([x_upper, x_lower], axis=1)}

        k0 = input_voltage_scale_many(bs, v_fs, self.input_fraction)
        final, k = auto_range_many(run_subset, k0, v_fs)

        x = final["x"] / cast(k * scale)[:, None]
        errors = _relative_errors(matrices, bs, x)
        return [
            TrialOutcome(float(errors[t]), bool(acc.saturated[t]), float(acc.settle[t]))
            for t in range(trials)
        ]


# ----------------------------------------------------------------------
# subset plumbing for gain-ranging reruns
# ----------------------------------------------------------------------


class _ArrayView:
    """Trial-subset view of an :class:`_ArrayBatch` (no copies of math)."""

    def __init__(self, array: _ArrayBatch, indices: np.ndarray):
        self.effective = array.effective[indices]
        self.load_row_sums = array.load_row_sums[indices]
