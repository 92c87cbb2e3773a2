"""Every definition in the package is reached: each top-level function and
class, and each method that is not a dunder, in src/pg2q is named by code
that runs, outside its own definition.

Code that runs is the module-level code of the package, the console script
of pyproject.toml, everything under perfbench/, and tests/test_acceptance.py,
and then the body of every definition that such code names, to a fixed
point.  A name used only inside an unreached definition does not count.
Names are matched bare, so two definitions with one name are reached
together: a function or class by a load of `f` or of `x.f`, a method by a
load of `x.f` only, so a local variable does not reach a method of its name.
An import, an annotation or a string is not a use, nor is `x.f` where `x` is
a name that the file binds by `import` to a module outside pg2q: `json.load`
reaches no method named `load`.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pg2q"
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _foreign_modules(tree) -> set[str]:
    """The names that a file binds by `import` to a module outside pg2q."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.partition(".")[0] != "pg2q"}


def _uses(nodes, foreign: set[str]) -> set[str]:
    """The names loaded in the given nodes: `f`, and `.f` for the attribute
    of `x.f` unless `x` is one of the `foreign` module names.  Annotations
    are skipped: they name types, they run nothing."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                out.add("." + node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]
    return out


def _definitions(path: Path):
    """(label, the names that reach it, the names its body uses) for each
    top-level function and class and each non-dunder method of a module, and
    the names its module-level code uses."""
    tree = ast.parse(path.read_text(), str(path))
    foreign = _foreign_modules(tree)
    defs, top = [], []
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defined):
            top.append(node)
            continue
        top += node.decorator_list
        label = f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            top += node.bases
            body = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    top += item.decorator_list
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        uses = _uses(item.body + [item.args], foreign)
                        defs.append((f"{label}.{item.name}", {"." + item.name}, uses))
                        continue
                body.append(item)
            defs.append((label, {node.name, "." + node.name}, _uses(body, foreign)))
        else:
            defs.append((label, {node.name, "." + node.name}, _uses(node.body + [node.args], foreign)))
    return defs, _uses(top, foreign)


def unreached() -> list[str]:
    defs, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        d, top = _definitions(path)
        defs += d
        used |= top
    for path in CALLERS:
        tree = ast.parse(path.read_text(), str(path))
        used |= _uses([tree], _foreign_modules(tree))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used |= {target.rpartition(":")[2] for target in scripts.values()}
    pending = list(defs)
    while True:
        reached = [d for d in pending if d[1] & used]
        if not reached:
            return sorted(label for label, _, _ in pending)
        for d in reached:
            pending.remove(d)
            used |= d[2]


def test_every_definition_in_the_package_is_reached():
    assert unreached() == []
