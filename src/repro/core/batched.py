"""Trial-batched Monte-Carlo execution of the AMC solvers.

The paper's headline results (Figs. 6-9) re-run the full analog pipeline
for every (size, trial, solver) triple. Per trial the pipeline is a
handful of small dense linear-algebra operations, so the sequential sweep
is dominated by Python and LAPACK call overhead, not arithmetic. This
module runs all trials of one size as one batch, with no schedule of its
own: :class:`StackedProgramming` programs every trial's arrays at once
into *stacked* stages (row ``i`` runs through trial ``indices[i]``'s own
array), and the solver trees of :mod:`repro.core.multistage` — with the
one five-step body, :class:`~repro.core.blockamc.BatchedFiveStep` — run
on them. Original AMC is one direct-INV node over the whole matrix,
one-stage BlockAMC one macro node, and multi-stage BlockAMC the full tree.

Equivalence contract (enforced by tests): every trial consumes its own
``default_rng(hardware_seed)`` in exactly the sequential order —
programming draws in tree-build order, op-amp offsets at each node's
first use of a column size, then output and sample-and-hold noise per
operation and per gain-ranging attempt — and every step runs the shared
kernel of :mod:`repro.core.common` per slice, so each record is
**bit-identical** to :func:`repro.analysis.accuracy.run_trials` within a
precision tier.

All three parasitic fidelities are supported (exact extraction through
:func:`repro.crossbar.parasitics.exact_effective_matrix_batch`).
Configurations the engine cannot express (MNA routing, write-and-verify
programming, quantized targets, stuck-at faults) make
:func:`make_batched_runner` return ``None``; callers fall back to the
sequential path. A unit whose trials disagree on which tiles are all
zero (a zero tile gets no array and makes no programming draw) runs per
trial.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.amc.config import HardwareConfig
from repro.circuits.dynamics import inv_settling_or_inf, mvm_settling_time
from repro.core.blockamc import BatchedFiveStep, SumTally, _Stage
from repro.core.common import (
    FactoredSystem,
    LazyOffsets,
    draw_offsets_batch,
    inv_loading,
    inv_rhs,
    inv_system,
    mvm_raw,
    solve_slices,
)
from repro.core.partition import PreparedBlocks
from repro.crossbar.parasitics import (
    exact_effective_matrix_batch,
    first_order_effective_matrix,
)
from repro.devices.variations import GaussianVariation, RelativeGaussianVariation
from repro.errors import MappingError, PartitionError

__all__ = ["TrialOutcome", "is_batchable_config", "make_batched_runner", "solve_per_trial"]


class TrialOutcome(NamedTuple):
    """What :class:`repro.analysis.accuracy.AccuracyRecord` needs of one trial."""

    relative_error: float
    saturated: bool
    analog_time_s: float


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

    Supported solvers build a solver tree — ``solver.build(matrix,
    programming)``: :class:`~repro.core.original.OriginalAMCSolver`,
    :class:`~repro.core.blockamc.BlockAMCSolver` and
    :class:`~repro.core.multistage.MultiStageSolver` (any depth) — each
    with a batchable :class:`~repro.amc.config.HardwareConfig`. The
    runner builds that tree from :class:`StackedProgramming` and exposes
    ``run(matrices, bs, hardware_seeds) -> list[TrialOutcome]``.
    """
    if not hasattr(solver, "build") or not is_batchable_config(solver.config):
        return None
    return _TrialsRunner(solver)


# ----------------------------------------------------------------------
# stacked programming
# ----------------------------------------------------------------------


def _normalize_batch(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`repro.crossbar.mapping.normalize_matrix`."""
    scale = np.max(np.abs(matrices), axis=(1, 2))
    if np.any(scale == 0.0):
        raise MappingError("cannot normalize an all-zero matrix")
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
        self.settle_effective = (eff_pos - eff_neg) / g_unit  # (T, r, c)
        self.effective = bk.cast(self.settle_effective)
        self.g_total = g_pos + g_neg
        self.load_row_sums = bk.cast(self.g_total.sum(axis=2) / g_unit)  # (T, r)
        self.shape = blocks.shape[1:]


def _rows(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The active trials' slices (the whole stack, uncopied, when all are)."""
    return values if indices.size == values.shape[0] else values[indices]


class StackedInvStage(_Stage):
    """An INV array per trial: per-trial settling times and factorizations.

    Each trial's finite-gain system is factored once and solved for that
    trial's rows only, through the same :class:`FactoredSystem` calls a
    scalar op makes; ``input_scale`` is a float or a per-trial vector
    (the Schur block's private normalization).
    """

    kind = "inv"

    def __init__(self, array: _ArrayBatch, config: HardwareConfig, input_scale=1.0):
        super().__init__(config)
        self.array = array
        self.settle = inv_settling_or_inf(array.settle_effective, config.opamp.gbwp_hz)
        trials = self.settle.shape[0]
        self.input_scale = np.broadcast_to(np.asarray(input_scale, dtype=float), (trials,))
        self.loading = inv_loading(array.load_row_sums, self.input_scale)
        systems = inv_system(array.effective, self.loading, config.opamp.open_loop_gain)
        self.systems = [FactoredSystem(system) for system in systems]

    def raw(self, v_in, offsets, indices):
        rhs = inv_rhs(
            self.cast(v_in),
            _rows(self.loading, indices),
            self.cast(offsets),
            _rows(self.input_scale, indices),
        )
        out = np.empty_like(rhs)
        for row, t in enumerate(indices):
            out[row] = self.systems[t].solve(rhs[row])
        return out


class StackedMvmStage(_Stage):
    """An MVM array per trial: stacked effective matrices and row loads."""

    kind = "mvm"

    def __init__(self, array: _ArrayBatch, config: HardwareConfig):
        super().__init__(config)
        self.array = array
        self.a0 = config.opamp.open_loop_gain
        self.settle = mvm_settling_time(array.g_total, config.g_unit, config.opamp.gbwp_hz)

    def raw(self, v_in, offsets, indices):
        array = self.array
        return mvm_raw(
            _rows(array.effective, indices),
            _rows(array.load_row_sums, indices),
            self.cast(v_in),
            self.cast(offsets),
            self.a0,
        )


class _ZeroTilesDiffer(Exception):
    """The trials disagree on which tiles are all zero (run them per trial)."""


class StackedProgramming:
    """Programs every trial's solver tree at once: stacked stages.

    The stacked implementation of the programming protocol of
    :class:`repro.core.blockamc.Programming`. Blocks are ``(trials, r,
    c)`` stacks; normalization and the Schur preprocessing run per
    slice with the scalar arithmetic; each array position is programmed
    for every trial from that trial's own generator, in tree-build
    order; and each node's op-amp offsets are drawn per trial at the
    node's first use of a column size and kept across its visits.
    """

    def __init__(self, config: HardwareConfig, rngs):
        self.config = config
        self.rngs = rngs

    normalize = staticmethod(_normalize_batch)

    @staticmethod
    def prepare(normalized: np.ndarray, partition) -> PreparedBlocks:
        """Batched :func:`repro.core.partition.prepare_blocks`."""
        split = partition.resolve(normalized.shape[-1])
        a1 = normalized[:, :split, :split]
        a2 = normalized[:, :split, split:]
        a3 = normalized[:, split:, :split]
        a4 = normalized[:, split:, split:]
        try:
            a4s = a4 - a3 @ np.linalg.solve(a1, a2)
        except np.linalg.LinAlgError as exc:
            raise PartitionError(
                "leading block A1 is singular; choose another split"
            ) from exc
        peak = np.max(np.abs(a4s), axis=(1, 2))
        if np.any(peak == 0.0):
            raise PartitionError("Schur complement is identically zero; system is singular")
        return PreparedBlocks(
            a1=a1, a2=a2, a3=a3, a4s=a4s, split=split, schur_scale=np.maximum(1.0, peak)
        )

    def program(self, blocks: np.ndarray) -> _ArrayBatch:
        return _ArrayBatch(blocks, self.config, self.rngs)

    @staticmethod
    def nonzero(tiles: np.ndarray) -> bool:
        """True when every trial's tile is non-zero, False when none is.

        Trials that disagree raise :class:`_ZeroTilesDiffer`: a zero
        tile makes no programming draw, so their streams diverge.
        """
        per_trial = np.any(tiles, axis=(1, 2))
        if per_trial.all() or not per_trial.any():
            return bool(per_trial.all())
        raise _ZeroTilesDiffer

    def inv(self, ops, array: _ArrayBatch, input_scale=1.0) -> StackedInvStage:
        return StackedInvStage(array, self.config, input_scale)

    def mvm(self, ops, array: _ArrayBatch) -> StackedMvmStage:
        return StackedMvmStage(array, self.config)

    def offsets(self, ops):
        """``rngs -> LazyOffsets``: one node's per-trial offset columns.

        The node keeps them across its visits. The first ranging attempt
        covers all trials, so each size's draw happens exactly once per
        trial, where the scalar schedule first uses that column size.
        """
        sigma, rngs = self.config.opamp.input_offset_sigma_v, self.rngs
        columns = LazyOffsets(lambda size: draw_offsets_batch(sigma, size, rngs))
        return lambda _rngs: columns

    def macro(self, blocks: PreparedBlocks) -> tuple[None, BatchedFiveStep]:
        """Program a macro's four arrays (a1, a2, a3, a4s) per trial."""
        schur_scale = blocks.schur_scale
        arrays = [self.program(block) for block in (blocks.a1, blocks.a2, blocks.a3)]
        a4s = self.program(blocks.a4s / schur_scale[:, None, None])
        return None, BatchedFiveStep(self, None, *arrays, a4s, 1.0 / schur_scale)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class _TrialsRunner:
    """All trials of one size through one stacked solver tree."""

    def __init__(self, solver):
        self.solver = solver
        self.config = solver.config

    def run(self, matrices: np.ndarray, bs: np.ndarray, hardware_seeds) -> list:
        if not len(hardware_seeds):
            return []  # no trials: nothing to program (empty stacks cannot be)
        rngs = [np.random.default_rng(seed) for seed in hardware_seeds]
        try:
            root = self.solver.build(matrices, StackedProgramming(self.config, rngs))
        except _ZeroTilesDiffer:
            return solve_per_trial(self.solver, matrices, bs, hardware_seeds)
        tally = SumTally(len(rngs))
        x = root.solve_many(bs, tally, rngs)
        reference = self._references(matrices, bs)
        # Paper Eq. 6, per trial.
        errors = np.sum(np.abs(x - reference), axis=1) / np.sum(np.abs(reference), axis=1)
        return [
            TrialOutcome(
                float(errors[t]), bool(tally.saturated[t]), float(tally.analog_time_s[t])
            )
            for t in range(len(rngs))
        ]

    def _references(self, matrices: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Each trial's digital reference, bit-identical to its scalar solve's.

        Every solver kind's reference is one ``getrf`` of the trial's
        matrix and ``getrs`` on its column, as a prepared solver's
        cached factorization gives (:attr:`~repro.core.blockamc.PreparedTree._system`).
        """
        return solve_slices(matrices, bs, what="system matrix")


def solve_per_trial(solver, matrices, bs, hardware_seeds) -> list[TrialOutcome]:
    """The sequential path: ``solver.solve`` per trial, with its own generator."""
    outcomes = []
    for matrix, b, seed in zip(matrices, bs, hardware_seeds):
        result = solver.solve(matrix, b, rng=np.random.default_rng(seed))
        outcomes.append(
            TrialOutcome(result.relative_error, result.saturated, result.analog_time_s)
        )
    return outcomes
