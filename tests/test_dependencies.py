"""The package runs on the standard library alone (``dependencies = []``),
its command line starts without the exact-arithmetic modules, and its
modules import each other without a cycle."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import thetaquad.cli
top = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(top - set(sys.stdlib_module_names) - {"thetaquad", "__main__"})))
print(json.dumps(sorted(top & {"fractions", "decimal"})))
"""


def cli_import_probe() -> list[list[str]]:
    # -S skips site, so no site-packages directory is on the path at all.
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_cli_imports_only_the_standard_library():
    assert cli_import_probe()[0] == []


def test_cli_start_up_skips_exact_arithmetic():
    # fractions (which imports decimal) costs milliseconds; only the exact
    # kernel cross-check needs it, and it imports it when it runs.
    assert cli_import_probe()[1] == []


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
