"""The package runs on the standard library alone (``dependencies = []``),
its command line starts without the exact-arithmetic modules, each
subcommand loads only the modules it runs, and the package's modules import
each other without a cycle."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import thetaquad.cli
top = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"thetaquad", "__main__"})))
print(json.dumps(sorted(top & {"fractions", "decimal"})))
"""


def probe(code: str, *args: str) -> list:
    """The JSON lines ``code`` prints in a fresh interpreter, given SRC and args."""
    # -S skips site, so no site-packages directory is on the path at all.
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC), *args],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def cli_import_probe() -> list[list[str]]:
    return probe(PROBE)


def test_cli_imports_only_the_standard_library():
    assert cli_import_probe()[0] == []


def test_cli_start_up_skips_exact_arithmetic():
    # fractions (which imports decimal) costs milliseconds; only the exact
    # kernel cross-check needs it, and it imports it when it runs.
    assert cli_import_probe()[1] == []


LOADED = """
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("thetaquad."))
"""

LAZY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
""" + LOADED + """
import thetaquad
print(json.dumps(loaded()))
print(json.dumps(sorted(set(thetaquad.__all__) - set(dir(thetaquad)))))
try:
    thetaquad.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), loaded()]))
print(json.dumps([thetaquad.kernel is sys.modules["thetaquad.kernel"], loaded()]))
print(json.dumps([thetaquad.certify.__module__, loaded()]))
"""


def test_a_bare_import_loads_no_module():
    assert probe(LAZY_PROBE)[0] == []


def test_names_resolve_on_first_read():
    _, unlisted, unknown, kernel, certify = probe(LAZY_PROBE)
    assert unlisted == []  # dir() lists every export before any is read
    assert unknown == ["module 'thetaquad' has no attribute 'no_such_name'", []]
    assert kernel == [True, ["errors", "kernel"]]
    assert certify == ["thetaquad.bounds", ["bounds", "errors", "kernel"]]


SUBCOMMAND_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
""" + LOADED + """
from thetaquad.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    code = run_cli(sys.argv[2:])
print(json.dumps([code, loaded()]))
"""

RULE = ["--n", "2", "--theta", "0.5", "--a", "0", "--b", "1"]


@pytest.mark.parametrize("flags", [[], ["--brute-force"]])
def test_kernel_loads_only_the_kernel_and_its_bounds(flags):
    assert probe(SUBCOMMAND_PROBE, "kernel", *RULE, *flags) == [
        [0, ["bounds", "cli", "errors", "kernel"]]]


@pytest.mark.parametrize("argv, unloaded", [
    (["bound", "--f", "exp", "--bound", "l2", *RULE], "integrate"),
    (["sharpness", "--end-to-end", *RULE], "functions"),
])
def test_a_subcommand_skips_the_modules_it_does_not_run(argv, unloaded):
    [[code, modules]] = probe(SUBCOMMAND_PROBE, *argv)
    assert code == 0 and "cli" in modules and unloaded not in modules


def package_imports(package: Path) -> dict[str, set[str]]:
    """Module -> the package modules it imports relatively, at any level of
    its body (deferred imports inside functions included)."""
    graph = {}
    for path in sorted(package.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import name
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module.partition(".")[0])
        graph[path.stem] = targets
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as [m0, m1, ..., m0], or None; depth-first search."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        for target in sorted(graph.get(module, ())):
            cycle = visit(target, path + [module])
            if cycle is not None:
                return cycle
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle is not None:
            return cycle
    return None


def test_find_cycle_reports_the_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_package_import_graph_has_no_cycle():
    graph = package_imports(SRC / "thetaquad")
    assert {"bounds", "integrate", "rules", "cli"} <= graph.keys()
    assert "bounds" in graph["integrate"]  # the walk sees real edges
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)
