"""Tests for ``repro.campaigns`` — specs, store, runner, aggregation.

The load-bearing guarantees:

- **declarative specs** — JSON round-trip, stable content digests,
  dotted-path hardware overrides (including the variation-model codec);
- **checkpointing store** — atomic unit records, manifest pinning,
  bit-level store comparison;
- **determinism at orchestration scale** — a campaign's artifact store
  is bit-identical for 1 vs 4 process workers, and across a
  kill-then-resume boundary (both a controlled ``max_units``
  interruption and a literal ``SIGKILL`` of a CLI run);
- **legacy equivalence** — ``mode="trials"`` campaign records replay
  the hand-rolled ``run_trials`` sweeps bit-exactly (Fig. 7 acceptance
  criterion).
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import run_trials
from repro.campaigns import (
    ArtifactStore,
    CampaignSpec,
    HardwareVariant,
    RetryPolicy,
    apply_overrides,
    campaign_records,
    campaign_report,
    campaign_status,
    campaign_tables,
    execute_unit,
    expand,
    get_campaign,
    list_campaigns,
    records_to_campaign_csv,
    run_campaign,
    store_diff,
    stores_equal,
    unit_seed_sequence,
)
from repro.campaigns.registry import QUICK_SIZES, QUICK_TRIALS
from repro.core.backend import BACKEND_NAMES, get_backend
from repro.core.blockamc import BlockAMCSolver
from repro.core.original import OriginalAMCSolver
from repro.devices.variations import GaussianVariation, RelativeGaussianVariation
from repro.errors import CampaignError
from repro.testing import ChaosPlan
from repro.testing.chaos import CHAOS_ENV
from repro.workloads.matrices import toeplitz_matrix, wishart_matrix

#: A tiny spec most tests share: 2 families x 2 sizes = 4 units, fast.
TINY = CampaignSpec(
    name="tiny",
    title="test campaign",
    solvers=("original-amc", "blockamc-1stage"),
    families=("wishart", "toeplitz"),
    sizes=(6, 9),
    trials=2,
    seed=70,
    hardware="variation",
)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------


class TestSpec:
    def test_json_round_trip_preserves_digest(self):
        for name in list_campaigns():
            spec = get_campaign(name)
            clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone == spec
            assert clone.digest() == spec.digest()

    def test_digest_changes_with_any_parameter(self):
        base = TINY.digest()
        import dataclasses

        for change in (
            {"seed": 71},
            {"trials": 3},
            {"sizes": (6, 10)},
            {"solvers": ("blockamc-1stage",)},
            {"hardware": "interconnect"},
            {"variants": (HardwareVariant("x", {"opamp.open_loop_gain": 1e5}),)},
        ):
            assert dataclasses.replace(TINY, **change).digest() != base

    #: ``TINY``'s digest per tier, as committed before aliases were
    #: folded into their tier's name.
    TIER_DIGESTS = {
        "numpy": "263d10cd338c44004369a1ae7f000cc3f7b0d835ad4b089a00021cdb9123eb2d",
        "numpy-f32": "59ab5d2ab69beecd6efac6d1d6007502abf87d5337964727201a15a4f38f1f12",
    }

    def test_every_tier_spelling_shares_one_digest(self):
        import dataclasses

        assert TINY.digest() == self.TIER_DIGESTS["numpy"]
        for alias in BACKEND_NAMES:
            tier = get_backend(alias).name
            spec = dataclasses.replace(TINY, backend=alias)
            assert spec.backend == tier
            assert spec.digest() == self.TIER_DIGESTS[tier]

    def test_expand_is_stable_and_content_addressed(self):
        units_a = expand(TINY)
        units_b = expand(TINY)
        assert [u.key for u in units_a] == [u.key for u in units_b]
        assert len({u.key for u in units_a}) == len(units_a)
        # keys depend on the spec digest
        other = expand(get_campaign("fig7-variation"))
        assert {u.key for u in units_a}.isdisjoint({u.key for u in other})

    def test_validation_errors(self):
        with pytest.raises(CampaignError, match="unknown solver"):
            CampaignSpec(name="x", solvers=("nope",))
        with pytest.raises(CampaignError, match="unknown family"):
            CampaignSpec(name="x", families=("nope",))
        with pytest.raises(CampaignError, match="mode"):
            CampaignSpec(name="x", mode="nope")
        with pytest.raises(CampaignError, match="base hardware"):
            CampaignSpec(name="x", hardware="nope")
        with pytest.raises(CampaignError, match="trials"):
            CampaignSpec(name="x", trials=0)
        with pytest.raises(CampaignError, match="unique"):
            CampaignSpec(
                name="x",
                variants=(HardwareVariant("a"), HardwareVariant("a")),
            )
        with pytest.raises(CampaignError, match="unknown campaign"):
            get_campaign("nope")

    def test_apply_overrides_nested(self):
        config = HardwareConfig.paper_variation()
        out = apply_overrides(
            config,
            {
                "opamp.open_loop_gain": 1e5,
                "converters.dac_bits": 6,
                "parasitics.r_wire": 2.0,
            },
        )
        assert out.opamp.open_loop_gain == 1e5
        assert out.converters.dac_bits == 6
        assert out.parasitics.r_wire == 2.0
        # untouched fields keep their values
        assert out.opamp.input_offset_sigma_v == config.opamp.input_offset_sigma_v

    def test_apply_overrides_variation_codec(self):
        config = HardwareConfig.paper_ideal_mapping()
        rel = apply_overrides(
            config,
            {"programming.variation": {"kind": "relative_gaussian", "sigma_rel": 0.07}},
        )
        assert isinstance(rel.programming.variation, RelativeGaussianVariation)
        assert rel.programming.variation.sigma_rel == 0.07
        absolute = apply_overrides(
            config, {"programming.variation": {"kind": "gaussian", "sigma": 3e-6}}
        )
        assert isinstance(absolute.programming.variation, GaussianVariation)

    def test_apply_overrides_bad_path_and_codec(self):
        config = HardwareConfig.ideal()
        with pytest.raises(CampaignError, match="does not resolve"):
            apply_overrides(config, {"opamp.nope": 1.0})
        with pytest.raises(CampaignError, match="does not resolve"):
            apply_overrides(config, {"nope": 1.0})
        with pytest.raises(CampaignError, match="variation"):
            apply_overrides(config, {"programming.variation": 5.0})
        with pytest.raises(CampaignError, match="unknown variation kind"):
            apply_overrides(config, {"programming.variation": {"kind": "nope"}})

    def test_infinite_gain_survives_json_round_trip(self):
        spec = get_campaign("ablation-gain")
        clone = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        labels = {v.label: v for v in clone.variants}
        gain = labels["ideal-gain-offset-0.25mV"].overrides["opamp.open_loop_gain"]
        assert math.isinf(gain)
        assert clone.digest() == spec.digest()

    def test_unit_seed_sequence_matches_run_trials_stream(self):
        """Children after the skip equal the legacy stream's children."""
        trials = 2
        reference = np.random.SeedSequence(70)
        ref_children = reference.spawn(3 * trials * 2)  # two sizes' worth
        seq = unit_seed_sequence(70, size_index=1, trials=trials)
        unit_children = seq.spawn(3 * trials)
        for a, b in zip(ref_children[3 * trials:], unit_children):
            assert np.random.default_rng(a).integers(0, 2**63) == (
                np.random.default_rng(b).integers(0, 2**63)
            )


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


class TestArtifactStore:
    def test_unit_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = {"relative_error": np.arange(6.0).reshape(2, 3)}
        meta = {"unit": {"key": "abc"}, "runtime": {"elapsed_s": 1.0}}
        store.write_unit("abc", arrays, meta)
        assert store.has("abc")
        assert store.completed_keys() == {"abc"}
        loaded, loaded_meta = store.load_unit("abc")
        assert np.array_equal(loaded["relative_error"], arrays["relative_error"])
        assert loaded_meta == meta

    def test_missing_unit_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="no completed unit"):
            ArtifactStore(tmp_path).load_unit("missing")

    def test_read_meta_skips_arrays(self, tmp_path):
        store = ArtifactStore(tmp_path)
        meta = {"unit": {"key": "abc"}, "runtime": {"elapsed_s": 2.5}}
        store.write_unit("abc", {"x": np.ones(3)}, meta)
        assert store.read_meta("abc") == meta
        assert store.read_meta("missing") is None
        # an orphaned npz (sidecar never landed) is not completed
        store.write_unit("orphan", {"x": np.ones(3)}, {"unit": {}})
        (store.units_dir / "orphan.json").unlink()
        assert store.read_meta("orphan") is None

    def test_manifest_pins_spec_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_manifest(TINY)
        store.write_manifest(TINY)  # idempotent
        import dataclasses

        other = dataclasses.replace(TINY, seed=99)
        with pytest.raises(CampaignError, match="holds campaign"):
            store.write_manifest(other)

    def test_status_rejects_mismatched_store(self, tmp_path):
        """A scale/store mix-up reads as a digest error, not 'all pending'."""
        import dataclasses

        store = ArtifactStore(tmp_path)
        store.write_manifest(TINY)
        other = dataclasses.replace(TINY, trials=3)
        with pytest.raises(CampaignError, match="holds campaign"):
            campaign_status(other, store)
        with pytest.raises(CampaignError, match="holds campaign"):
            campaign_records(other, store)
        # a fresh (manifest-less) directory still reports plain status
        fresh = campaign_status(TINY, ArtifactStore(tmp_path / "fresh"))
        assert fresh.completed_units == 0

    def test_stores_equal_and_diff(self, tmp_path):
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        a.write_manifest(TINY)
        b.write_manifest(TINY)
        arrays = {"x": np.ones(3)}
        meta = {"unit": {"key": "u1"}, "runtime": {"pid": 1}}
        a.write_unit("u1", arrays, meta)
        b.write_unit("u1", arrays, {"unit": {"key": "u1"}, "runtime": {"pid": 999}})
        assert stores_equal(a, b)  # runtime metadata is excluded
        b.write_unit("u2", arrays, meta)
        assert not stores_equal(a, b)
        assert any("only in" in line for line in store_diff(a, b))
        a.write_unit("u2", {"x": np.zeros(3)}, meta)
        assert any("differs" in line for line in store_diff(a, b))


# ----------------------------------------------------------------------
# runner determinism
# ----------------------------------------------------------------------


class TestCampaignDeterminism:
    def test_bit_identical_to_legacy_run_trials(self, tmp_path):
        """The Fig. 7 acceptance criterion, at test scale: campaign
        records equal the legacy sequential sweep record for record."""
        run_campaign(TINY, tmp_path, workers=0)
        grouped = campaign_records(TINY, ArtifactStore(tmp_path))
        for family, factory in (
            ("wishart", wishart_matrix),
            ("toeplitz", toeplitz_matrix),
        ):
            legacy = run_trials(
                {
                    "original-amc": lambda: OriginalAMCSolver(
                        HardwareConfig.paper_variation()
                    ),
                    "blockamc-1stage": lambda: BlockAMCSolver(
                        HardwareConfig.paper_variation()
                    ),
                },
                lambda n, rng: factory(n, rng),
                TINY.sizes,
                TINY.trials,
                seed=TINY.seed,
            )
            campaign = grouped[("base", family)]
            key = lambda r: (r.size, r.trial, r.solver)
            assert sorted(map(key, legacy)) == sorted(map(key, campaign))
            by_key_campaign = {key(r): r for r in campaign}
            for record in legacy:
                match = by_key_campaign[key(record)]
                assert record.relative_error == match.relative_error, key(record)
                assert record.saturated == match.saturated
                assert record.analog_time_s == match.analog_time_s

    def test_fig9_shape_bit_identical_to_run_trials(self, tmp_path):
        """All three Fig. 9 solvers, two-stage included, run trial-batched
        in a campaign and still equal the per-trial sweep record for record."""
        from repro.serve.cache import SOLVER_KINDS

        spec = CampaignSpec(
            name="fig9-shape",
            solvers=("original-amc", "blockamc-1stage", "blockamc-2stage"),
            families=("wishart", "toeplitz"),
            sizes=QUICK_SIZES,
            trials=QUICK_TRIALS,
            seed=90,
            hardware="interconnect",
        )
        run_campaign(spec, tmp_path, workers=0)
        grouped = campaign_records(spec, ArtifactStore(tmp_path))
        hardware = spec.resolve_hardware(0)
        for family, factory in (
            ("wishart", wishart_matrix),
            ("toeplitz", toeplitz_matrix),
        ):
            legacy = run_trials(
                {
                    name: lambda name=name: SOLVER_KINDS[name](hardware)
                    for name in spec.solvers
                },
                lambda n, rng: factory(n, rng),
                spec.sizes,
                spec.trials,
                seed=spec.seed,
            )
            key = lambda r: (r.size, r.trial, r.solver)
            campaign = {key(r): r for r in grouped[("base", family)]}
            assert sorted(campaign) == sorted(map(key, legacy))
            for record in legacy:
                match = campaign[key(record)]
                assert record.relative_error == match.relative_error, key(record)
                assert record.saturated == match.saturated
                assert record.analog_time_s == match.analog_time_s

    def test_one_vs_four_workers_bit_identical(self, tmp_path):
        run_campaign(TINY, tmp_path / "w1", workers=1)
        run_campaign(TINY, tmp_path / "w4", workers=4)
        a, b = ArtifactStore(tmp_path / "w1"), ArtifactStore(tmp_path / "w4")
        assert stores_equal(a, b), store_diff(a, b)

    def test_interrupt_then_resume_bit_identical(self, tmp_path):
        reference = tmp_path / "ref"
        run_campaign(TINY, reference, workers=0)

        resumable = tmp_path / "resumable"
        partial = run_campaign(TINY, resumable, workers=0, max_units=1)
        assert partial.completed_units == 1 and not partial.finished
        status = campaign_status(TINY, ArtifactStore(resumable))
        assert status.completed_units == 1 and len(status.pending) == 3

        resumed = run_campaign(TINY, resumable, workers=2)
        assert resumed.finished
        assert resumed.skipped_units == 1  # no recomputation
        assert resumed.completed_units == 3
        assert stores_equal(ArtifactStore(reference), ArtifactStore(resumable))

    def test_status_progress_rate_and_eta(self, tmp_path):
        """Progress/rate/ETA derive from the completed units' sidecars."""
        partial = run_campaign(TINY, tmp_path, workers=0, max_units=2)
        assert partial.completed_units == 2
        status = campaign_status(TINY, ArtifactStore(tmp_path))
        assert status.progress_percent == pytest.approx(50.0)
        assert status.completed_elapsed_s > 0.0
        assert status.units_per_s > 0.0
        # ETA = remaining units x mean completed unit time.
        mean_unit_s = status.completed_elapsed_s / status.completed_units
        assert status.eta_s == pytest.approx(2 * mean_unit_s)

        run_campaign(TINY, tmp_path, workers=0)
        done = campaign_status(TINY, ArtifactStore(tmp_path))
        assert done.progress_percent == pytest.approx(100.0)
        assert done.eta_s == pytest.approx(0.0)

    def test_status_estimates_before_any_unit_completed(self, tmp_path):
        status = campaign_status(TINY, ArtifactStore(tmp_path))
        assert status.progress_percent == 0.0
        assert status.units_per_s == 0.0
        assert status.eta_s is None  # no basis for an estimate yet

    def test_rerun_of_finished_campaign_is_noop(self, tmp_path):
        run_campaign(TINY, tmp_path, workers=0)
        again = run_campaign(TINY, tmp_path, workers=0)
        assert again.finished
        assert again.completed_units == 0
        assert again.skipped_units == again.total_units

    def test_rhs_mode_deterministic_across_workers(self, tmp_path):
        spec = get_campaign("serving-rhs")
        run_campaign(spec, tmp_path / "a", workers=0)
        run_campaign(spec, tmp_path / "b", workers=2)
        assert stores_equal(ArtifactStore(tmp_path / "a"), ArtifactStore(tmp_path / "b"))

    def test_rhs_mode_matches_direct_prepared_solve(self, tmp_path):
        """rhs units go through the real prepared-cache multi-RHS path."""
        spec = CampaignSpec(
            name="rhs-tiny",
            mode="rhs",
            solvers=("blockamc-1stage",),
            families=("wishart",),
            sizes=(8,),
            trials=3,
            seed=7,
            hardware="variation",
        )
        (unit,) = expand(spec)
        arrays, meta = execute_unit(spec, unit)
        assert arrays["relative_error"].shape == (1, 3)
        # reproduce by hand with the same derivation
        from repro.workloads.matrices import random_vector

        seq = np.random.SeedSequence(7, spawn_key=(0, 0, 0))
        children = seq.spawn(4)
        matrix = wishart_matrix(8, np.random.default_rng(children[0]))
        bs = [random_vector(8, np.random.default_rng(children[1 + t])) for t in range(3)]
        gen = np.random.default_rng(7)  # prepare_entry's single prep stream
        prep = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(matrix, gen)
        prep.solve(np.ones(8), gen)  # the warm-up solve continues that stream
        results = prep.solve_many(bs, np.random.default_rng(0), lean=True)
        for t, result in enumerate(results):
            assert arrays["relative_error"][0, t] == result.relative_error

    def test_rhs_mode_two_stage_matches_direct_prepared_solve(self, tmp_path):
        """Multi-stage rhs units drive the coalesced solve_many path."""
        from repro.core.multistage import MultiStageSolver
        from repro.workloads.matrices import random_vector

        spec = CampaignSpec(
            name="rhs-2stage-tiny",
            mode="rhs",
            solvers=("blockamc-2stage",),
            families=("wishart",),
            sizes=(12,),
            trials=3,
            seed=13,
            hardware="variation",
        )
        (unit,) = expand(spec)
        arrays, meta = execute_unit(spec, unit)
        assert arrays["relative_error"].shape == (1, 3)
        seq = np.random.SeedSequence(13, spawn_key=(0, 0, 0))
        children = seq.spawn(4)
        matrix = wishart_matrix(12, np.random.default_rng(children[0]))
        bs = [
            random_vector(12, np.random.default_rng(children[1 + t]))
            for t in range(3)
        ]
        gen = np.random.default_rng(13)  # prepare_entry's single prep stream
        prep = MultiStageSolver(HardwareConfig.paper_variation(), stages=2).prepare(
            matrix, gen
        )
        prep.solve(np.ones(12), gen)  # the warm-up solve continues that stream
        results = prep.solve_many(bs, np.random.default_rng(0), lean=True)
        for t, result in enumerate(results):
            assert arrays["relative_error"][0, t] == result.relative_error

    def test_two_stage_rhs_campaign_registered(self):
        spec = get_campaign("serving-rhs-2stage")
        assert spec.mode == "rhs"
        assert "blockamc-2stage" in spec.solvers
        assert len(expand(spec)) == len(spec.variants) * len(spec.families) * len(
            spec.sizes
        )

    def test_worker_failure_propagates(self, tmp_path):
        """A unit that cannot execute fails the run, not silently."""
        bad = CampaignSpec(
            name="bad",
            solvers=("blockamc-1stage",),
            families=("poisson",),
            sizes=(3,),  # poisson_1d needs n >= 1; size 3 fine — use singular trick
            trials=1,
            seed=0,
            hardware="variation",
            variants=(
                # zero-size DAC? use an invalid override instead: negative bits
                HardwareVariant("bad-bits", {"converters.dac_bits": -4}),
            ),
        )
        with pytest.raises(Exception):
            run_campaign(bad, tmp_path, workers=0)


class TestSigkillResume:
    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """A literally killed campaign process resumes to the same bits."""
        # Six units of all three Fig. 9 solvers: the run is still going
        # when the first unit commits, which is when the kill lands.
        spec_name = "fig9-interconnect"
        reference = tmp_path / "ref"
        run_campaign(get_campaign(spec_name), reference, workers=0)

        killed_root = tmp_path / "killed"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run", spec_name,
                "--store", str(killed_root),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill as soon as the first unit commits.
        units_dir = killed_root / "units"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            if units_dir.exists() and any(units_dir.glob("*.json")):
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.005)
        proc.wait(timeout=60.0)
        # The test means nothing unless the kill landed mid-run.
        assert proc.returncode == -signal.SIGKILL
        spec = get_campaign(spec_name)
        assert not campaign_status(spec, ArtifactStore(killed_root)).finished

        resumed = run_campaign(spec, killed_root, workers=0)
        assert resumed.finished
        assert stores_equal(ArtifactStore(reference), ArtifactStore(killed_root)), (
            store_diff(ArtifactStore(reference), ArtifactStore(killed_root))
        )


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


class TestAggregation:
    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("campaign")
        run_campaign(TINY, root, workers=0)
        return ArtifactStore(root)

    def test_strict_requires_completion(self, tmp_path):
        run_campaign(TINY, tmp_path, workers=0, max_units=1)
        store = ArtifactStore(tmp_path)
        with pytest.raises(CampaignError, match="incomplete"):
            campaign_records(TINY, store)
        partial = campaign_records(TINY, store, strict=False)
        assert sum(len(v) for v in partial.values()) == 1 * TINY.trials * 2

    def test_records_shape_and_order(self, finished):
        grouped = campaign_records(TINY, finished)
        assert set(grouped) == {("base", "wishart"), ("base", "toeplitz")}
        records = grouped[("base", "wishart")]
        assert len(records) == len(TINY.sizes) * TINY.trials * len(TINY.solvers)
        sizes = sorted({r.size for r in records})
        assert sizes == sorted(TINY.sizes)

    def test_tables_report_csv(self, finished, tmp_path):
        tables = campaign_tables(TINY, finished)
        assert "tiny [base] wishart" in tables
        report = campaign_report(TINY, finished)
        assert report.startswith("# Campaign report: tiny")
        assert "| size |" in report
        written = records_to_campaign_csv(TINY, finished, tmp_path / "records.csv")
        assert len(written) == 2  # one per (variant, family)
        for path in written:
            assert path.exists()
            assert "relative_error" in path.read_text().splitlines()[0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig7-variation" in out and "ablation-gain" in out

    def test_run_status_report_diff(self, tmp_path, capsys):
        from repro.cli import main

        store_a = str(tmp_path / "a")
        store_b = str(tmp_path / "b")
        assert main(["campaign", "run", "fig7-variation", "--store", store_a,
                     "--max-units", "2"]) == 0
        assert main(["campaign", "status", "fig7-variation", "--store", store_a]) == 1
        assert "pending" in capsys.readouterr().out
        assert main(["campaign", "resume", "fig7-variation", "--store", store_a,
                     "--workers", "2"]) == 0
        assert main(["campaign", "status", "fig7-variation", "--store", store_a]) == 0
        capsys.readouterr()
        out_md = tmp_path / "report.md"
        assert main(["campaign", "report", "fig7-variation", "--store", store_a,
                     "--out", str(out_md)]) == 0
        assert out_md.exists()
        assert "fig7-variation" in capsys.readouterr().out
        assert main(["campaign", "run", "fig7-variation", "--store", store_b]) == 0
        capsys.readouterr()
        assert main(["campaign", "diff", store_a, store_b]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_diff_detects_divergence(self, tmp_path, capsys):
        from repro.cli import main

        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        store_a.write_manifest(TINY)
        store_b.write_manifest(TINY)
        store_a.write_unit("u", {"x": np.ones(2)}, {"unit": {}})
        store_b.write_unit("u", {"x": np.zeros(2)}, {"unit": {}})
        assert main(["campaign", "diff", str(store_a.root), str(store_b.root)]) == 1
        assert "differs" in capsys.readouterr().out


# ----------------------------------------------------------------------
# retry, quarantine, and chaos
# ----------------------------------------------------------------------

#: A hardware override that fails at unit execution (negative DAC bits),
#: while the spec itself constructs and expands fine — a poison unit.
_BAD = HardwareVariant("bad-bits", {"converters.dac_bits": -4})


def _poison_spec(name, variants):
    return CampaignSpec(
        name=name,
        solvers=("blockamc-1stage",),
        families=("wishart",),
        sizes=(6,),
        trials=1,
        seed=0,
        hardware="variation",
        variants=variants,
    )


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.1, backoff_multiplier=2.0, max_backoff_s=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"max_backoff_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(CampaignError):
            RetryPolicy(**kwargs)


class TestQuarantine:
    def test_poison_unit_quarantined_instead_of_aborting(self, tmp_path):
        spec = _poison_spec("poison", (_BAD,))
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0)
        run = run_campaign(spec, tmp_path, workers=0, retry=retry)
        assert run.quarantined_units == 1
        assert run.completed_units == 0
        assert not run.finished  # quarantined units keep the campaign open
        store = ArtifactStore(tmp_path)
        (record,) = store.quarantined().values()
        assert record["attempts"] == 2
        assert record["variant"] == "bad-bits"
        assert "error" in record
        status = campaign_status(spec, store)
        assert len(status.quarantined) == 1
        assert status.quarantined[0].variant_label == "bad-bits"
        assert not status.pending  # quarantined is not pending
        assert not status.finished

    def test_rerun_skips_quarantined_units(self, tmp_path):
        spec = _poison_spec("poison", (_BAD,))
        retry = RetryPolicy(max_attempts=1, backoff_s=0.0)
        run_campaign(spec, tmp_path, workers=0, retry=retry)
        again = run_campaign(spec, tmp_path, workers=0, retry=retry)
        # Nothing attempted: the poison unit stays parked in quarantine.
        assert again.quarantined_units == 0
        assert again.completed_units == 0
        assert not again.finished

    def test_requeue_quarantined_retries_again(self, tmp_path):
        spec = _poison_spec("poison", (_BAD,))
        retry = RetryPolicy(max_attempts=1, backoff_s=0.0)
        run_campaign(spec, tmp_path, workers=0, retry=retry)
        again = run_campaign(
            spec, tmp_path, workers=0, retry=retry, requeue_quarantined=True
        )
        # Re-attempted (still poison), re-quarantined.
        assert again.quarantined_units == 1

    def test_mixed_good_and_poison_units(self, tmp_path):
        spec = _poison_spec("mixed", (HardwareVariant("ok", {}), _BAD))
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0)
        run = run_campaign(spec, tmp_path, workers=0, retry=retry)
        assert run.completed_units == 1
        assert run.quarantined_units == 1
        store = ArtifactStore(tmp_path)
        assert len(store.completed_keys()) == 1
        assert len(store.quarantined_keys()) == 1

    def test_quarantine_excluded_from_store_equality(self, tmp_path):
        spec = _poison_spec("mixed", (HardwareVariant("ok", {}), _BAD))
        retry = RetryPolicy(max_attempts=1, backoff_s=0.0)
        run_campaign(spec, tmp_path / "a", workers=0, retry=retry)
        run_campaign(spec, tmp_path / "b", workers=0, retry=retry)
        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        assert stores_equal(store_a, store_b)
        # Quarantine records are runner bookkeeping, not results.
        store_b.clear_quarantine()
        assert stores_equal(store_a, store_b)

    def test_without_retry_first_failure_still_propagates(self, tmp_path):
        spec = _poison_spec("poison", (_BAD,))
        with pytest.raises(Exception):
            run_campaign(spec, tmp_path, workers=0)
        assert ArtifactStore(tmp_path).quarantined_keys() == set()


class TestPoolCrashRetryResume:
    """SIGKILLed pool workers: retry to convergence, resume with zero
    recompute, and bit-identical artifacts (the chaos acceptance test)."""

    def test_kill_without_retry_breaks_the_run(self, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=1, worker_kill_rate=1.0, state_dir=str(tmp_path / "chaos")
        )
        monkeypatch.setenv(CHAOS_ENV, plan.chaos_env()[CHAOS_ENV])
        with pytest.raises(BrokenExecutor):
            run_campaign(TINY, tmp_path / "store", workers=2)

    def test_sigkill_storm_retries_to_bitidentical_store(
        self, tmp_path, monkeypatch
    ):
        reference = tmp_path / "ref"
        run_campaign(TINY, reference, workers=0)

        plan = ChaosPlan(
            seed=1, worker_kill_rate=1.0, state_dir=str(tmp_path / "chaos")
        )
        monkeypatch.setenv(CHAOS_ENV, plan.chaos_env()[CHAOS_ENV])
        chaotic = tmp_path / "chaotic"
        run = run_campaign(
            TINY,
            chaotic,
            workers=2,
            retry=RetryPolicy(max_attempts=10, backoff_s=0.01, max_backoff_s=0.05),
        )
        assert run.finished
        assert run.quarantined_units == 0
        assert run.completed_units == run.total_units
        # Every unit's worker really was SIGKILLed once before committing.
        assert plan.injected("kill") == run.total_units >= 2

        # Fault history never shows in the artifacts.
        assert stores_equal(ArtifactStore(reference), ArtifactStore(chaotic))

        # Resume after the chaos run: zero recompute.
        monkeypatch.delenv(CHAOS_ENV)
        resumed = run_campaign(TINY, chaotic, workers=0)
        assert resumed.completed_units == 0
        assert resumed.skipped_units == resumed.total_units

    def test_torn_writes_retry_to_bitidentical_store(self, tmp_path, monkeypatch):
        reference = tmp_path / "ref"
        run_campaign(TINY, reference, workers=0)

        plan = ChaosPlan(
            seed=2, torn_write_rate=1.0, state_dir=str(tmp_path / "chaos")
        )
        monkeypatch.setenv(CHAOS_ENV, plan.chaos_env()[CHAOS_ENV])
        chaotic = tmp_path / "chaotic"
        run = run_campaign(
            TINY,
            chaotic,
            workers=0,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        assert run.finished and run.quarantined_units == 0
        assert plan.injected("torn") == run.total_units
        assert stores_equal(ArtifactStore(reference), ArtifactStore(chaotic))

    def test_inline_chaos_never_kills_the_driver(self, tmp_path, monkeypatch):
        plan = ChaosPlan(
            seed=3, worker_kill_rate=1.0, state_dir=str(tmp_path / "chaos")
        )
        monkeypatch.setenv(CHAOS_ENV, plan.chaos_env()[CHAOS_ENV])
        # Inline execution happens in this very process; the driver-pid
        # guard must skip every kill or this test dies with the run.
        run = run_campaign(TINY, tmp_path / "store", workers=0)
        assert run.finished
        assert plan.injected("kill") == 0
