"""Tests for the markdown report generator."""

import pytest

from repro.analysis.reporting import generate_report, write_report


@pytest.fixture(scope="module")
def quick_report():
    # One small suite keeps the test fast while exercising the whole
    # rendering path.
    return generate_report(quick=True, seed=0, suites=["fig7-wishart"])


class TestGenerateReport:
    def test_contains_title_and_suite(self, quick_report):
        assert quick_report.startswith("# BlockAMC reproduction report")
        assert "fig7-wishart" in quick_report
        assert "Fig. 7(a)" in quick_report

    def test_contains_cost_section(self, quick_report):
        assert "fig10-costs" in quick_report
        assert "48.8%" in quick_report

    def test_markdown_tables_well_formed(self, quick_report):
        lines = [l for l in quick_report.splitlines() if l.startswith("|")]
        assert lines, "report must contain markdown tables"
        for line in lines:
            assert line.endswith("|")

    def test_deterministic(self):
        a = generate_report(quick=True, seed=3, suites=["fig7-wishart"])
        b = generate_report(quick=True, seed=3, suites=["fig7-wishart"])
        assert a == b

    def test_seed_changes_numbers(self):
        a = generate_report(quick=True, seed=1, suites=["fig7-wishart"])
        b = generate_report(quick=True, seed=2, suites=["fig7-wishart"])
        assert a != b


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(
            tmp_path / "out" / "report.md", quick=True, suites=["fig7-wishart"]
        )
        assert path.exists()
        assert "# BlockAMC reproduction report" in path.read_text()


class TestCliReport:
    def test_cli_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli_report.md"
        code = main(
            ["report", "--quick", "--out", str(out), "--suite", "fig7-wishart"]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out
