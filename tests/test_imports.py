"""The import graph inside the package is acyclic, and the package needs
nothing outside the standard library.

Every `from .x import ...` and `from . import x` in `src/mirhecke/*.py` is an
edge, including imports made inside functions.
"""

import ast
import sys
from pathlib import Path

import mirhecke

PACKAGE = Path(mirhecke.__file__).resolve().parent


def import_graph() -> dict:
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def find_cycle(graph: dict):
    """A list of modules forming a cycle, or None when the graph is acyclic."""
    state = {}  # module -> "open" while on the search path, "done" after
    path = []

    def visit(mod):
        state[mod] = "open"
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        state[mod] = "done"
        return None

    for mod in sorted(graph):
        if mod not in state:
            cycle = visit(mod)
            if cycle:
                return cycle
    return None


def test_graph_sees_function_level_imports():
    graph = import_graph()
    modules = {"ring", "combinatorics", "symfun", "characters", "tensorrep", "checks", "cli"}
    assert modules <= set(graph)
    # characters imports tensorrep inside class_polynomials only
    assert "tensorrep" in graph["characters"]
    # cli reaches algebra and tensorrep only through the check registry
    assert "checks" in graph["cli"]
    assert {"algebra", "characters", "symfun", "tensorrep"} <= graph["checks"]


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_package_imports_are_acyclic():
    assert find_cycle(import_graph()) is None


def test_runtime_imports_only_stdlib():
    # test-only tools such as sympy and hypothesis must never reach the package
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != PACKAGE.name:
                    outside.add((path.name, name))
    assert not outside


def test_exports_resolve():
    # the export list must not keep a name the package no longer defines
    missing = [name for name in mirhecke.__all__ if not hasattr(mirhecke, name)]
    assert not missing
