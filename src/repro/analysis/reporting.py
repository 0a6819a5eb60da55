"""Reporting: ASCII/markdown tables and the one-command experiment report.

This module is the single reporting entry point of the analysis layer:

- :func:`format_table` — fixed-width ASCII tables in the row/series
  shape of the paper's tables and figure legends (used by every bench);
- :func:`markdown_table` — the same rows as GitHub-flavoured markdown;
- :func:`generate_report` / :func:`write_report` — run every registered
  figure suite (quick or paper scale), the cost model, and the headline
  claims, and render a single markdown document. Exposed on the CLI as
  ``python -m repro report``; campaign aggregation
  (:mod:`repro.campaigns.aggregate`) renders through the same helpers.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ValidationError

__all__ = ["format_table", "markdown_table", "generate_report", "write_report"]


def _render_cell(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Render a fixed-width ASCII table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Row value lists; floats are formatted compactly.
    title:
        Optional title line above the table.
    """
    if not headers:
        raise ValidationError("headers must not be empty")
    for row in rows:
        if len(row) != len(headers):
            raise ValidationError(
                f"row length {len(row)} does not match header count {len(headers)}"
            )
    rendered = [[_render_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def markdown_table(headers: list[str], rows: list[list]) -> str:
    """Render a GitHub-flavoured markdown table (same row shape as
    :func:`format_table`; floats pass through ``str`` unformatted so
    callers control precision)."""
    if not headers:
        raise ValidationError("headers must not be empty")
    for row in rows:
        if len(row) != len(headers):
            raise ValidationError(
                f"row length {len(row)} does not match header count {len(headers)}"
            )
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _solver_factories(hardware_factory, include_two_stage: bool):
    from repro.core.blockamc import BlockAMCSolver
    from repro.core.multistage import MultiStageSolver
    from repro.core.original import OriginalAMCSolver

    factories = {
        "original-amc": lambda: OriginalAMCSolver(hardware_factory()),
        "blockamc-1stage": lambda: BlockAMCSolver(hardware_factory()),
    }
    if include_two_stage:
        factories["blockamc-2stage"] = lambda: MultiStageSolver(
            hardware_factory(), stages=2
        )
    return factories


def generate_report(
    *,
    quick: bool = True,
    seed: int = 0,
    suites: list[str] | None = None,
) -> str:
    """Run the experiment suites and render a markdown report.

    Parameters
    ----------
    quick:
        Use CI-size sweeps (True) or the paper's full sizes (False).
    seed:
        Root seed; the whole report is deterministic given it.
    suites:
        Subset of suite names (default: all registered).
    """
    # Imported here: the table formatters must stay importable without
    # pulling the whole solver stack (serve.metrics imports this module).
    from repro.analysis.accuracy import accuracy_quantiles, accuracy_sweep, run_trials
    from repro.analysis.costmodel import savings_vs_original, solver_cost_breakdown
    from repro.workloads.suites import get_suite, list_suites

    names = suites if suites is not None else list_suites(quick)
    sections = [
        "# BlockAMC reproduction report",
        "",
        f"Scale: {'quick' if quick else 'paper'} | seed: {seed}",
        "",
    ]

    for name in names:
        suite = get_suite(name, quick=quick)
        two_stage = "fig8" in name or "fig9" in name
        records = run_trials(
            _solver_factories(suite.hardware_factory, two_stage),
            suite.matrix_factory,
            suite.sizes,
            suite.trials,
            seed=seed,
        )
        means = accuracy_sweep(records)
        medians = accuracy_quantiles(records, (0.5,))
        solvers = sorted(means)
        headers = ["size"] + [f"{s} (mean/med)" for s in solvers]
        rows = []
        for size in suite.sizes:
            row = [str(size)]
            for solver in solvers:
                row.append(
                    f"{means[solver][size][0]:.4f}/{medians[solver][size][0]:.4f}"
                )
            rows.append(row)
        sections.append(f"## {suite.name} ({suite.figure})")
        sections.append("")
        sections.append(
            f"{suite.trials} trials per size; relative error (paper Eq. 6)."
        )
        sections.append("")
        sections.append(markdown_table(headers, rows))
        sections.append("")

    # Fig. 10 cost model.
    sections.append("## fig10-costs (Fig. 10)")
    sections.append("")
    rows = []
    for arch in ("original", "blockamc-1stage", "blockamc-2stage"):
        breakdown = solver_cost_breakdown(arch, 512)
        rows.append(
            [
                arch,
                f"{breakdown.total_area_mm2:.5f}",
                f"{breakdown.total_power_w * 1e3:.1f}",
            ]
        )
    sections.append(markdown_table(["solver", "area mm^2", "power mW"], rows))
    savings = savings_vs_original(512)
    sections.append("")
    sections.append(
        f"One-stage saves {savings['blockamc-1stage']['area']:.1%} area / "
        f"{savings['blockamc-1stage']['power']:.1%} power; two-stage "
        f"{savings['blockamc-2stage']['area']:.1%} / "
        f"{savings['blockamc-2stage']['power']:.1%} "
        "(paper: 48.83%/40% and 12.3%/37.4%)."
    )
    sections.append("")
    return "\n".join(sections)


def write_report(path, **kwargs) -> Path:
    """Render :func:`generate_report` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(**kwargs))
    return path
