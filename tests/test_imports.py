"""The import graph inside the package is acyclic, and the package needs
nothing outside the standard library.

Every `from .x import ...` and `from . import x` in `src/mirhecke/*.py` is an
edge, including imports made inside functions.
"""

import ast
import importlib
import json
import subprocess
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


def test_ring_keeps_no_memo():
    # callers own their caches: `characters._class_map` caches what it derives
    # from a table's adjugate, so `ring` itself stays stateless
    memos = [name for name, value in vars(mirhecke.ring).items() if hasattr(value, "cache_info")]
    assert not memos, memos


MEMOS = {
    "algebra._basis_data",
    "algebra._head_data",
    "algebra._layout",
    "algebra._tail_data",
    "characters._class_map",
    "characters._default_rows",
    "characters._table",
    "cli._parser",
    "combinatorics.kostka",
    "combinatorics.partitions_of",
    "symfun._m_monomials",
    "symfun._strip_coeff",
    "symfun._strips",
    "tensorrep._block",
    "tensorrep._pattern_contents",
    "tensorrep._rotated_letters",
    "tensorrep.basis_trace",
}


def test_memo_census():
    # every module-level functools memo of the package, by name: adding or
    # keeping one is an edit to this set
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"mirhecke.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.add(f"{path.stem}.{name}")
    assert found == MEMOS


PACKED_FORMAT = {"pack", "unpack", "slot_bits"}


def packed_format_importers() -> dict:
    """{module: names} of the packed-format helpers each module takes from `.ring`."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ring":
                names = PACKED_FORMAT & {alias.name for alias in node.names}
                if names:
                    found.setdefault(path.stem, set()).update(names)
    return found


def test_packed_format_stays_in_the_kernels():
    # checks and cli compare values, never packed ints
    found = packed_format_importers()
    assert set(found) <= {"ring", "algebra", "tensorrep", "characters"}, found
    # the reader does see the kernels' own imports
    assert {"algebra", "tensorrep", "characters"} <= set(found)


# public algebra and symfun API that no module of the package calls itself
LIBRARY_API = {
    "gen_T", "t0_element", "iota_embed", "rho", "star", "all_basis_elements", "clear_caches",
    "m_sym",
}


def unreferenced_definitions() -> list:
    """Top-level functions and classes of the package that nothing in the package uses.

    A definition counts as used when a name or attribute elsewhere in the
    package refers to it; a use inside its own body (recursion) does not count.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    uses = []  # (top-level statement, names it refers to)
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            uses.append((stmt, names))
    unused = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(stmt.name in names for other, names in uses if other is not stmt):
                unused.append(f"{mod}.{stmt.name}")
    return unused


def test_every_definition_is_used_or_public():
    # code that only tests run belongs in tests/, next to the tests that use it
    unused = unreferenced_definitions()
    public = set(mirhecke.__all__) | LIBRARY_API
    stray = [name for name in unused if name.split(".")[1] not in public]
    assert not stray, stray
    # every name of the set is still a definition that nothing in the package uses
    assert LIBRARY_API <= {name.split(".")[1] for name in unused}


# stdlib modules that no computation needs at import: `dataclasses` pulls in
# `inspect` (with `ast` and `dis`), `fractions` pulls in `decimal`
COLD_START_EXCLUDED = ("dataclasses", "inspect", "fractions", "decimal")

COLD_START_PROBE = """
import json, sys
import mirhecke, mirhecke.cli
loaded = [m for m in %r if m in sys.modules]
from mirhecke.ring import QINV, LaurentScalar, rank_over_q
half = QINV.specialize(2)
third = LaurentScalar({-1: 1}).specialize(9, 3)
rank = rank_over_q([{0: 2, 1: 1}, {0: 4, 1: 2}, {1: 3}])
print(json.dumps({
    "loaded": loaded,
    "values": [type(x).__module__ + "." + type(x).__name__ for x in (half, third)],
    "equal": [half * 2 == 1, third * 3 == 1],
    "rank": rank,
    "after": "fractions" in sys.modules,
}))
""" % (COLD_START_EXCLUDED,)


def test_cold_start_skips_dataclasses_and_fractions():
    # a fresh process, so that nothing a test imported is already loaded
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE], capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    # the Q-specializations still compute over Fraction, imported where they run
    assert got["values"] == ["fractions.Fraction"] * 2
    assert got["equal"] == [True, True]
    assert got["rank"] == 2  # (4, 2) = 2 (2, 1): reduced to zero through the pivot 1/2
    assert got["after"]
