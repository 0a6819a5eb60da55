"""Tests of the benchmark's own checks and input generator.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

The first group needs NumPy only. The second drives real workloads for
a second each, with a fault slipped into the program from outside, and
asserts that the run reports failed operations.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    IDEAL_FACTOR,
    Ledger,
    check_campaign_round,
    eq6,
    own_solutions,
)


def _answer(seed=0, n=16):
    rng = np.random.default_rng(seed)
    matrix = inputs.wishart(n, rng)
    b = inputs.rhs(n, rng)
    reference = np.linalg.solve(matrix, b)
    x = reference * (1.0 + 0.05 * rng.standard_normal(n))
    return own_solutions(matrix, [b])[0], x, reference, eq6(x, reference)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def test_same_seed_same_inputs():
    for family in inputs.FAMILIES:
        a = inputs.make_system(7, 3, family, 24, "blockamc-1stage", 4)
        b = inputs.make_system(7, 3, family, 24, "blockamc-1stage", 4)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.rhs, b.rhs))
        assert a.prep_seed == b.prep_seed
    first = inputs.request_stream(7, 8, 32, 1000)
    second = inputs.request_stream(7, 8, 32, 1000)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert inputs.campaign_seed(7, 2) == inputs.campaign_seed(7, 2)


def test_other_seed_other_inputs():
    a = inputs.make_system(7, 3, "wishart", 24, "blockamc-1stage", 1)
    b = inputs.make_system(8, 3, "wishart", 24, "blockamc-1stage", 1)
    assert not np.array_equal(a.matrix, b.matrix)
    assert inputs.campaign_seed(7, 0) != inputs.campaign_seed(8, 0)


def test_hot_set_keeps_its_operators_and_redraws_the_traffic():
    layout = workloads.HOT_LAYOUT[:4]
    a, b = inputs.hot_set(7, layout, 2), inputs.hot_set(8, layout, 2)
    assert all(x.matrix.tobytes() == y.matrix.tobytes() for x, y in zip(a, b))
    assert all(x.prep_seed == y.prep_seed for x, y in zip(a, b))
    assert not np.array_equal(a[0].rhs[0], b[0].rhs[0])
    assert not np.array_equal(inputs.request_stream(7, 4, 2, 64)[0],
                              inputs.request_stream(8, 4, 2, 64)[0])


def test_toeplitz_is_symmetric_positive_definite_and_capped():
    matrix = inputs.toeplitz(128, np.random.default_rng(0))
    assert np.array_equal(matrix, matrix.T)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues[0] > 0
    assert eigenvalues[-1] / eigenvalues[0] <= inputs.CONDITION_CAP * (1 + 1e-9)


# ----------------------------------------------------------------------
# ledger checks
# ----------------------------------------------------------------------


def test_clean_answers_pass():
    ledger = Ledger()
    problem, x, reference, error = _answer()
    ledger.record("k", problem, x, reference, error)
    ledger.record("k", problem, x.copy(), reference.copy(), error)
    ledger.verify()
    assert (ledger.attempted, ledger.failed) == (2, 0)
    assert ledger.errors == [pytest.approx(error)] * 2


def test_ledger_keeps_no_returned_vectors():
    # A record per distinct request stays fixed in size, so the client's
    # memory does not grow with the vectors of the answers it has seen.
    ledger = Ledger()
    problem, x, reference, error = _answer()
    ledger.record("k", problem, x, reference, error)
    answer = ledger.answers["k"]
    assert not any(isinstance(getattr(answer, slot), np.ndarray) for slot in answer.__slots__)


def test_perturbed_x_fails():
    ledger = Ledger()
    problem, x, reference, error = _answer()
    x = x.copy()
    x[0] += 1e-3
    ledger.record("k", problem, x, reference, error)
    ledger.verify()
    assert ledger.failed == 1


def test_wrong_relative_error_fails():
    ledger = Ledger()
    problem, x, reference, error = _answer()
    ledger.record("k", problem, x, reference, error * (1 + 1e-9))
    ledger.verify()
    assert ledger.failed == 1


def test_wrong_reference_fails():
    ledger = Ledger()
    problem, x, reference, _ = _answer()
    reference = reference * (1 + 1e-8)
    ledger.record("k", problem, x, reference, eq6(x, reference))
    ledger.verify()
    assert ledger.failed == 1


def test_recurring_request_with_other_bits_fails():
    ledger = Ledger()
    problem, x, reference, error = _answer()
    ledger.record("k", problem, x, reference, error)
    other = x.copy()
    other[3] = np.nextafter(other[3], np.inf)
    ledger.record("k", problem, other, reference, error)
    ledger.verify()
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_non_finite_x_fails():
    ledger = Ledger()
    problem, x, reference, error = _answer()
    x = x.copy()
    x[1] = np.nan
    ledger.record("k", problem, x, reference, error)
    ledger.verify()
    assert ledger.failed == 1


def test_ideal_bound_rejects_an_analog_answer():
    ledger = Ledger(accuracy_factor=IDEAL_FACTOR)
    problem, x, reference, error = _answer()
    ledger.record("k", problem, x, reference, error)
    ledger.verify()
    assert ledger.failed == 1


def test_missing_or_non_finite_campaign_unit_fails():
    shape = (3, 4)
    good = {"relative_error": np.full(shape, 0.1)}
    bad = {"relative_error": np.full(shape, 0.1)}
    bad["relative_error"][1, 2] = np.inf
    failed, reasons = check_campaign_round({"a": good, "b": bad}, ["a", "b", "c"], shape)
    assert failed == 12 + 1
    assert sum(reasons.values()) == failed
    assert check_campaign_round({"a": good}, ["a"], shape)[0] == 0


def test_benchmark_json_names_the_metrics_the_command_prints():
    import json

    import run
    import tracing

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert set(tracing.LAYER_SOURCES) == set(tracing.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


# ----------------------------------------------------------------------
# faults slipped into the running program
# ----------------------------------------------------------------------

needs_program = pytest.mark.skipif(
    importlib.util.find_spec("repro") is None, reason="needs PYTHONPATH=src"
)


def _run(workload_cls, tmp_path, seconds=1.0):
    workload = workload_cls(5, 2, tmp_path)
    workload.prepare_inputs()
    workload.setup()
    try:
        workload.run(seconds)
        workload.post_check()
    finally:
        workload.teardown()
    workload.errors()
    return workload.counts()


def _patch_execute_batch(monkeypatch, transform):
    """Rewrite every served result through ``transform`` where callers look it up."""
    import repro.serve.batching
    import repro.serve.service

    original = repro.serve.batching.execute_batch

    def faulty(entry, bs, seeds, **kwargs):
        return [transform(r, seed) for r, seed in zip(original(entry, bs, seeds, **kwargs), seeds)]

    monkeypatch.setattr(repro.serve.service, "execute_batch", faulty)


@needs_program
def test_serve_run_reports_perturbed_x(monkeypatch, tmp_path):
    # The full result recomputes relative_error from the perturbed x, so
    # the analog answers stay self-consistent; the ideal-hardware
    # requests after the timed phase catch the perturbation.
    def perturb(result, seed):
        x = result.x.copy()
        x[0] += 1e-6
        return dataclasses.replace(result, x=x)

    _patch_execute_batch(monkeypatch, perturb)
    attempted, failed, reasons = _run(workloads.ServeHot, tmp_path)
    assert failed > 0
    assert "ideal-hardware answer outside forward-error bound" in reasons


@needs_program
def test_serve_run_reports_wrong_relative_error(monkeypatch, tmp_path):
    class Misreported:
        def __init__(self, result):
            self.x, self.reference = result.x, result.reference
            self.relative_error = result.relative_error * 1.01

    _patch_execute_batch(monkeypatch, lambda result, seed: Misreported(result))
    attempted, failed, reasons = _run(workloads.ServeHot, tmp_path)
    assert failed == attempted > 0


@needs_program
def test_serve_run_reports_recurring_request_with_other_bits(monkeypatch, tmp_path):
    def drift(result, seed):
        if seed % 2:
            return result
        x = result.x.copy()
        x[-1] = np.nextafter(x[-1], np.inf)
        return dataclasses.replace(result, x=x)

    _patch_execute_batch(monkeypatch, drift)
    attempted, failed, reasons = _run(workloads.ServeHot, tmp_path)
    assert 0 < failed < attempted
    assert any("different bits" in reason or "Eq. 6" in reason for reason in reasons)


@needs_program
@pytest.mark.parametrize("fault", ["missing", "non-finite"])
def test_campaign_run_reports_bad_units(monkeypatch, tmp_path, fault):
    from repro.campaigns.store import ArtifactStore

    original = ArtifactStore.write_unit

    def faulty(self, key, arrays, meta):
        if meta["unit"]["size"] != 16:
            return original(self, key, arrays, meta)
        if fault == "missing":
            return None
        arrays = dict(arrays, relative_error=np.full_like(arrays["relative_error"], np.nan))
        return original(self, key, arrays, meta)

    monkeypatch.setattr(ArtifactStore, "write_unit", faulty)
    attempted, failed, reasons = _run(workloads.CampaignFig9, tmp_path, seconds=0.5)
    units_per_round = len(workloads.FIG9_FAMILIES) * len(workloads.FIG9_SIZES)
    per_unit = len(workloads.FIG9_SOLVERS) * workloads.FIG9_TRIALS
    rounds = attempted // (units_per_round * per_unit)
    assert failed == rounds * len(workloads.FIG9_FAMILIES) * per_unit
