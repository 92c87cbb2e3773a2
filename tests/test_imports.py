"""The package's imports point one way: the module-level imports between
pg2q's modules form an acyclic graph, every sibling import sits at the top
of its module but for two stated kinds, and the geometry layers load without
the search engine.

The two kinds of sibling import kept inside a function:
- a `cmd_*` command of cli.py imports a layer that importing pg2q.cli does
  not load, so a command pays only for the layers it uses;
- tangency.secant_bound_check imports search, which imports tangency.
"""

import ast
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "pg2q"


def _siblings(node: ast.AST) -> list[str]:
    """The pg2q modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.level == 0 and node.module and node.module.startswith("pg2q"):
            return [node.module.partition(".")[2]] if "." in node.module else [a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.partition(".")[2] for a in node.names if a.name.startswith("pg2q.")]
    return []


def _imports(path: Path):
    """(the siblings imported at module level, [(function, sibling)] for
    each sibling imported inside a function)."""
    top, local = set(), []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            for name in _siblings(child):
                if func:
                    local.append((func, name))
                else:
                    top.add(name)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            walk(child, inner)

    walk(ast.parse(path.read_text(), str(path)), None)
    return top, local


IMPORTS = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_by(module: str) -> set[str]:
    """The modules that importing pg2q.<module> loads: the package's
    __init__, the module, and what they import at module level."""
    seen, stack = set(), ["__init__", module]
    while stack:
        m = stack.pop()
        if m not in seen:
            seen.add(m)
            stack += IMPORTS[m][0]
    return seen


def test_module_level_imports_are_acyclic():
    graph = {m: top for m, (top, _) in IMPORTS.items()}
    assert set().union(*graph.values()) <= set(graph)
    order = list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert order.index("exterior") < order.index("search")


def test_only_stated_imports_are_inside_functions():
    local = {(m, func, name) for m, (_, pairs) in IMPORTS.items() for func, name in pairs}
    cli_at_start = _loaded_by("cli")
    commands = {(m, func, name) for m, func, name in local if m == "cli"}
    for _, func, name in commands:
        assert func.startswith("cmd_"), func
        assert name not in cli_at_start, f"cli.{func} imports {name}, which pg2q.cli loads anyway"
    assert local - commands == {("tangency", "secant_bound_check", "search")}


def test_geometry_layers_load_without_search():
    script = (
        "import sys\n"
        "import pg2q.exterior, pg2q.constructions\n"
        "assert 'pg2q.search' not in sys.modules, 'pg2q.search was loaded'\n"
    )
    r = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
