"""Golden-record regression fixtures: outputs pinned bit-for-bit.

The equivalence suite (``test_kernel_equivalence.py``) proves the three
kernel shapes agree with *each other*; these tests pin them against
*committed history*, so a change that drifts all paths in lockstep — a
reordered reduction, a new margin, an "equivalent" formula — still
trips CI. The records pinned include:

- the tier-1-scale Fig. 7 accuracy sweep through
  ``run_trials_batched`` (which the equivalence suite ties bit-for-bit
  to the scalar path, so this fixture transitively pins both);
- one ``repro.serve`` mixed-traffic run through the canonical service
  kernel (``run_sequential``, bit-identical to concurrent
  ``SolverService`` execution by the service's determinism contract);
- one noisy mixed 1-/2-stage serve run (op-amp output and S&H noise,
  plus an MNA slice), which pins the per-request noise streams, the
  warm-up draws of fresh cache entries, and gain-ranging reruns.

Intentional numerical changes regenerate the fixtures with::

    PYTHONPATH=src python -m pytest tests/test_golden_records.py --regen-goldens

then commit the updated ``tests/goldens/*.npz`` alongside the change
that explains them.

The fixtures are platform-pinned: bit-exact floats are only promised on
one BLAS/LAPACK stack, so the comparison tolerates nothing on CI's
pinned environment but documents a relaxed fallback (1e-10) for other
platforms via ``GOLDEN_STRICT``.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import run_trials_batched
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.serve.service import ServiceConfig, run_sequential
from repro.workloads.matrices import random_vector, wishart_matrix
from repro.workloads.traffic import mixed_traffic

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Set GOLDEN_STRICT=0 to compare with 1e-10 tolerance instead of
#: bit-for-bit (for running the suite on a different BLAS stack).
STRICT = os.environ.get("GOLDEN_STRICT", "1") != "0"

#: Tier-1-scale Fig. 7 configuration (matches benchmarks/bench_perf_engine).
FIG7_SIZES = (8, 16, 32)
FIG7_TRIALS = 3
FIG7_SEED = 70

#: Mixed-traffic serve run: enough requests to hit every matrix family,
#: repeated hot keys (cache hits), and multi-request coalescing.
TRAFFIC_REQUESTS = 24
TRAFFIC_SEED = 123

#: Two-stage sweep: one prepared tree per size, a multi-RHS batch each
#: (pins the matrix-valued recursion of ``PreparedMultiStage.solve_many``).
TWOSTAGE_SIZES = (8, 11, 16)
TWOSTAGE_RHS = 4
TWOSTAGE_SEED = 35

#: Noisy serve run: per-operation op-amp output noise and S&H noise
#: (volts, against a 1 V full scale) on top of ``paper_variation``.
NOISE_V = 2e-4


def _assert_float_match(actual: np.ndarray, golden: np.ndarray, label: str):
    if STRICT:
        assert np.array_equal(actual, golden), f"{label} drifted from golden record"
    else:
        assert np.max(np.abs(actual - golden)) < 1e-10, label


def _fig7_payload() -> dict[str, np.ndarray]:
    config = HardwareConfig.paper_variation()
    records = run_trials_batched(
        {
            "original-amc": OriginalAMCSolver(config),
            "blockamc-1stage": BlockAMCSolver(config),
        },
        lambda n, rng: wishart_matrix(n, rng),
        FIG7_SIZES,
        FIG7_TRIALS,
        seed=FIG7_SEED,
    )
    return {
        "solver": np.array([r.solver for r in records]),
        "size": np.array([r.size for r in records]),
        "trial": np.array([r.trial for r in records]),
        "relative_error": np.array([r.relative_error for r in records]),
        "saturated": np.array([r.saturated for r in records]),
        "analog_time_s": np.array([r.analog_time_s for r in records]),
    }


def _serve_payload() -> dict[str, np.ndarray]:
    requests = mixed_traffic(TRAFFIC_REQUESTS, seed=TRAFFIC_SEED)
    results, metrics = run_sequential(requests, ServiceConfig())
    lengths = np.array([r.x.size for r in results])
    return {
        "lengths": lengths,
        "x": np.concatenate([r.x for r in results]),
        "reference": np.concatenate([r.reference for r in results]),
        "relative_error": np.array([r.relative_error for r in results]),
        "input_scale": np.array([r.metadata["input_scale"] for r in results]),
        "saturated": np.array([r.saturated for r in results]),
    }


def _check_or_regen(payload: dict, path: Path, regen: bool):
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        np.savez(path, **payload)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden record {path}; run with --regen-goldens to create it"
    )
    golden = np.load(path, allow_pickle=False)
    assert sorted(golden.files) == sorted(payload), "golden record schema changed"
    for key, actual in payload.items():
        recorded = golden[key]
        assert actual.shape == recorded.shape, key
        if actual.dtype.kind == "f":
            _assert_float_match(actual, recorded, key)
        else:
            assert np.array_equal(actual, recorded), key


def _twostage_payload() -> dict[str, np.ndarray]:
    config = HardwareConfig.paper_variation()
    solver = MultiStageSolver(config, stages=2)
    lengths, xs, refs, rel, sat, times = [], [], [], [], [], []
    for size in TWOSTAGE_SIZES:
        matrix = wishart_matrix(size, rng=TWOSTAGE_SEED + size)
        rhs = [random_vector(size, rng=100 * size + i) for i in range(TWOSTAGE_RHS)]
        prepared = solver.prepare(matrix, rng=TWOSTAGE_SEED)
        for result in prepared.solve_many(rhs, np.random.default_rng(9)):
            lengths.append(result.x.size)
            xs.append(result.x)
            refs.append(result.reference)
            rel.append(result.relative_error)
            sat.append(result.saturated)
            times.append(result.analog_time_s)
    return {
        "lengths": np.array(lengths),
        "x": np.concatenate(xs),
        "reference": np.concatenate(refs),
        "relative_error": np.array(rel),
        "saturated": np.array(sat),
        "analog_time_s": np.array(times),
    }


def _serve_multistage_payload() -> dict[str, np.ndarray]:
    """A coalesced mixed 1-/2-stage serve run through the canonical kernel."""
    requests = mixed_traffic(
        TRAFFIC_REQUESTS,
        unique_matrices=4,
        sizes=(12, 16),
        solvers=("blockamc-1stage", "blockamc-2stage"),
        seed=TRAFFIC_SEED + 1,
    )
    results, _ = run_sequential(requests, ServiceConfig())
    return {
        "solver": np.array([r.solver for r in results]),
        "lengths": np.array([r.x.size for r in results]),
        "x": np.concatenate([r.x for r in results]),
        "reference": np.concatenate([r.reference for r in results]),
        "relative_error": np.array([r.relative_error for r in results]),
        "saturated": np.array([r.saturated for r in results]),
    }


def _noisy_hardware(**changes) -> HardwareConfig:
    base = HardwareConfig.paper_variation()
    return base.with_(
        opamp=dataclasses.replace(base.opamp, output_noise_sigma_v=NOISE_V),
        sample_hold=dataclasses.replace(base.sample_hold, noise_sigma_v=NOISE_V),
        **changes,
    )


def _serve_noisy_payload() -> dict[str, np.ndarray]:
    """Mixed 1-/2-stage traffic on noisy hardware, with an MNA slice.

    Every working-set matrix starts as a fresh cache entry, so the
    warm-up solve's offset and noise draws are pinned along with the
    per-request noise streams and any gain-ranging reruns.
    """
    solvers = ("blockamc-1stage", "blockamc-2stage")
    # Odd sizes split unevenly, so the upper and lower op-amp columns
    # (and the tile rows of a two-stage tree) draw their offsets at
    # different stream positions, between per-operation noise draws.
    noisy = mixed_traffic(
        16, unique_matrices=4, sizes=(13, 22, 31), solvers=solvers,
        seed=TRAFFIC_SEED + 2,
    )
    mna = mixed_traffic(
        8, unique_matrices=2, sizes=(13, 15), solvers=solvers,
        seed=TRAFFIC_SEED + 3,
    )
    requests = [
        dataclasses.replace(r, hardware=_noisy_hardware()) for r in noisy
    ] + [dataclasses.replace(r, hardware=_noisy_hardware(use_mna=True)) for r in mna]
    results, _ = run_sequential(requests, ServiceConfig())
    return {
        "solver": np.array([r.solver for r in results]),
        "lengths": np.array([r.x.size for r in results]),
        "x": np.concatenate([r.x for r in results]),
        "reference": np.concatenate([r.reference for r in results]),
        "relative_error": np.array([r.relative_error for r in results]),
        # One-stage results only: the multi-stage tree ranges per node.
        "input_scale": np.array(
            [r.metadata["input_scale"] for r in results if "input_scale" in r.metadata]
        ),
        "saturated": np.array([r.saturated for r in results]),
    }


class TestFig7Golden:
    def test_sweep_matches_golden(self, regen_goldens):
        _check_or_regen(
            _fig7_payload(), GOLDEN_DIR / "fig7_sweep.npz", regen_goldens
        )

    def test_sweep_is_deterministic(self):
        """The payload is a pure function of its seed (golden soundness)."""
        a = _fig7_payload()
        b = _fig7_payload()
        for key in a:
            assert np.array_equal(a[key], b[key]), key


class TestServeTrafficGolden:
    def test_mixed_traffic_matches_golden(self, regen_goldens):
        _check_or_regen(
            _serve_payload(), GOLDEN_DIR / "serve_mixed_traffic.npz", regen_goldens
        )


class TestTwoStageGolden:
    def test_sweep_matches_golden(self, regen_goldens):
        _check_or_regen(
            _twostage_payload(), GOLDEN_DIR / "twostage_sweep.npz", regen_goldens
        )

    def test_sweep_is_deterministic(self):
        """The payload is a pure function of its seeds (golden soundness)."""
        a = _twostage_payload()
        b = _twostage_payload()
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_coalesced_serve_matches_golden(self, regen_goldens):
        _check_or_regen(
            _serve_multistage_payload(),
            GOLDEN_DIR / "serve_multistage_traffic.npz",
            regen_goldens,
        )


class TestServeNoisyGolden:
    def test_noisy_traffic_matches_golden(self, regen_goldens):
        _check_or_regen(
            _serve_noisy_payload(),
            GOLDEN_DIR / "serve_noisy_traffic.npz",
            regen_goldens,
        )
