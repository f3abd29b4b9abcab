"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

from conftest import run_python

import triplelines


def _package_nodes():
    for path in sorted(Path(triplelines.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_package():
    # invariants must raise explicitly: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_numpy_imports_in_package():
    # the package runs on the standard library alone
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             for module in _imported_modules(node) if module.split(".")[0] == "numpy"]
    assert found == []


def test_only_constraints_reads_the_scenario_recipes():
    # other modules reach a scenario's geometry through its public functions,
    # so the recipe format can change inside constraints.py alone
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.ImportFrom) and node.module == "constraints"
             and any(alias.name.startswith("_") for alias in node.names)]
    assert found == []


def _opens_a_file(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "open"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "open")


def test_only_cli_reads_or_writes_files():
    # the file formats (JSON reports, arrangement files, CSV tables) live in
    # cli.py, so no workload imports or compiles them
    found = sorted({name for name, node in _package_nodes()
                    if "json" in _imported_modules(node) or _opens_a_file(node)})
    assert found == ["cli.py"]


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_hand_raised_assertion_errors_in_package():
    # broken invariants raise RuntimeError; AssertionError belongs to tests
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert found == []


@pytest.mark.parametrize("module", ["triplelines", "triplelines.cli"])
def test_import_leaves_the_process_pool_unloaded(module):
    # records are named tuples, so no run pays for building dataclasses or for
    # the inspect module they load; a search forks its workers itself, so not
    # even a pool search loads multiprocessing or concurrent.futures
    out = run_python(
        f"import sys, {module}\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
        "print(*loaded('multiprocessing', 'concurrent', 'dataclasses', 'inspect'))\n"
        "from triplelines.field import make_field\n"
        "from triplelines.search import SearchConfig, max_triple_search\n"
        "print(max_triple_search(SearchConfig(field=make_field(5), s=8, threads=2)).best)\n"
        "print(*loaded('multiprocessing', 'concurrent'))\n")
    assert out.split("\n") == ["", "7", "", ""]


def test_search_import_loads_only_what_a_search_uses():
    # the package re-exports nothing, so a search loads no scenario systems,
    # polynomials, certificates or torsion model, and only a search with more
    # than one worker loads the fork pool
    out = run_python("import sys, triplelines.search; "
                     "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'triplelines'))")
    assert out.split() == ["triplelines"] + [f"triplelines.{name}" for name in (
        "bounds", "errors", "field", "incidence", "projective", "search")]
