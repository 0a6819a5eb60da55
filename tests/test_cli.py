"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99-nope"])

    @pytest.mark.parametrize(
        "command", [["serve"], ["campaign", "run", "ablation-variation"]]
    )
    def test_unknown_backend_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, "--backend", "cuda"])
        assert info.value.code == 2
        assert "invalid choice: 'cuda'" in capsys.readouterr().err
        assert build_parser().parse_args([*command, "--backend", "f32"]).backend == "f32"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7-wishart" in out
        assert "Fig. 7(a)" in out

    def test_costs(self, capsys):
        assert main(["costs", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "48.8% area" in out
        assert "40.0% power" in out

    def test_solve_one_stage(self, capsys):
        assert main(["solve", "--size", "12", "--hardware", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "blockamc-1stage" in out
        assert "relative error" in out

    def test_solve_two_stage(self, capsys):
        assert main(["solve", "--size", "12", "--stages", "2", "--hardware", "ideal"]) == 0
        assert "blockamc-2stage" in capsys.readouterr().out

    def test_check_healthy_system(self, capsys):
        assert main(["check", "--size", "16", "--family", "wishart"]) == 0
        out = capsys.readouterr().out
        assert "feasibility: OK" in out
        assert "stability margin" in out

    def test_check_poisson_family(self, capsys):
        code = main(["check", "--size", "32", "--family", "poisson"])
        out = capsys.readouterr().out
        assert "findings:" in out
        assert code in (0, 1)

    def test_check_recommends_stages(self, capsys):
        assert main(["check", "--size", "64", "--max-array", "16"]) == 0
        assert "recommended stages: 2" in capsys.readouterr().out

    def test_run_quick_with_csv(self, tmp_path, capsys, monkeypatch):
        # Shrink the quick suite further for CI speed by monkeypatching
        # the suite registry sizes via a tiny custom run.
        csv_path = tmp_path / "series.csv"
        assert main(["run", "fig7-wishart", "--quick", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "fig7-wishart" in out
        assert csv_path.exists()
        assert (tmp_path / "series.csv.raw.csv").exists()


class TestServeCommands:
    def test_serve_with_check(self, capsys):
        assert main([
            "serve", "--requests", "10", "--unique-matrices", "2",
            "--sizes", "8", "12", "--workers", "2", "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "service metrics" in out
        assert "bit-identical to sequential reference: True" in out

    def test_serve_hardware_and_solver_choices(self, capsys):
        assert main([
            "serve", "--requests", "6", "--unique-matrices", "2",
            "--sizes", "8", "--hardware", "ideal-mapping",
            "--solver", "blockamc-1stage", "--workers", "1",
        ]) == 0
        assert "requests completed" in capsys.readouterr().out

    def test_submit(self, capsys):
        assert main(["submit", "--size", "12", "--rhs", "4", "--hardware", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "blockamc-1stage" in out
        assert "mean rel. error" in out
        assert "cache hit rate" in out

    def test_submit_rejects_unknown_solver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--solver", "nope"])

    def test_submit_metrics_json(self, capsys):
        assert main([
            "submit", "--size", "12", "--rhs", "3", "--hardware", "ideal",
            "--metrics-json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["requests_completed"] == 3
        assert data["requests_failed"] == 0
        assert "latency_mean_s" in data
        assert "stages" in data


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        # `serve --trace-dir` configures the process-wide tracer; don't
        # leak it into later tests.
        yield
        from repro.obs import tracer as obs

        obs.disable()

    def test_serve_trace_dir_and_trace_commands(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main([
            "serve", "--requests", "8", "--unique-matrices", "2",
            "--sizes", "8", "12", "--workers", "2", "--check",
            "--trace-dir", str(trace_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to sequential reference: True" in out
        assert "stage queue (ms)" in out  # spans fed the metrics table

        assert main(["trace", "summary", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "serve.kernel" in out

        assert main(["trace", "slowest", str(trace_dir), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "*" in out  # critical-path marks

        export = tmp_path / "merged.jsonl"
        assert main(["trace", "export", str(trace_dir), "--out", str(export)]) == 0
        lines = export.read_text().splitlines()
        assert lines
        assert all(json.loads(line)["span_id"] for line in lines)

    def test_trace_summary_empty_dir(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_campaign_status_json(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main([
            "campaign", "run", "fig7-variation", "--store", str(store),
            "--workers", "0", "--max-units", "1",
        ]) == 0  # controlled interruption (--max-units) is not an error
        capsys.readouterr()
        code = main([
            "campaign", "status", "fig7-variation", "--store", str(store), "--json",
        ])
        assert code == 1  # unfinished
        status = json.loads(capsys.readouterr().out)
        assert status["name"] == "fig7-variation"
        assert status["completed_units"] == 1
        assert status["finished"] is False
        assert isinstance(status["pending"], list)
        assert status["total_units"] == status["completed_units"] + len(
            status["pending"]
        ) + len(status["quarantined"])
