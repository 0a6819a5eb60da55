"""The oracles under ``tests/oracles/`` stay independent of what they check.

Production must not import the oracles, and the cell-by-cell netlist
and ladder references must not borrow the production assembly helpers
they are compared against: an oracle that reuses the checked code
shares its mistakes. Checked on the source text (AST), so nothing is
imported or run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src" / "repro"

#: Production helpers the structure oracles are compared against.
CHECKED_HELPERS = {"_add_array", "_array_strings", "_ladder_structure", "_ladder_system"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Absolute module names imported anywhere in ``tree``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module)
    return modules


def _borrowed_names(tree: ast.AST) -> set[str]:
    """Names taken from other modules: imported names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_production_imports_no_oracle():
    sources = sorted(SRC_DIR.rglob("*.py"))
    assert sources, f"no sources under {SRC_DIR}"
    importers = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        roots = {name.split(".", 1)[0] for name in _imported_modules(tree)}
        if roots & {"tests", "oracles"}:
            importers.append(str(path.relative_to(SRC_DIR)))
    assert importers == [], f"production modules import the test oracles: {importers}"


@pytest.mark.parametrize("name", ["netlist.py", "ladder.py"])
def test_oracle_shares_no_checked_helper(name):
    path = TESTS_DIR / "oracles" / name
    borrowed = _borrowed_names(ast.parse(path.read_text(), filename=str(path)))
    shared = sorted(borrowed & CHECKED_HELPERS)
    assert shared == [], f"oracles/{name} reuses the code it checks: {shared}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from tests.oracles import ladder", "tests.oracles"),
        ("import oracles.netlist as oracle", "oracles.netlist"),
    ],
)
def test_import_walk_sees_oracle_imports(source, flagged):
    assert flagged in _imported_modules(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "from repro.circuits.generators import _add_array",
        "from repro.circuits.generators import _array_strings as strings",
        "import repro.crossbar.parasitics as p\np._ladder_system(g, 1.0)",
        "from repro.crossbar import parasitics\nparasitics._ladder_structure(3, 3)",
    ],
)
def test_name_walk_sees_borrowed_helpers(source):
    """Each way of reaching a checked helper — imported under its own
    name or an alias, or read off a module — is caught."""
    assert _borrowed_names(ast.parse(source)) & CHECKED_HELPERS
