"""Static checks over the package's modules, read with the standard
library's ``ast``: every imported name is used, and ``__all__`` lists
only names the module defines, so no module re-exports another's."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polydist"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _defined(body) -> set:
    """The names a module's top-level statements bind, imports aside."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.If, ast.Try)):
            names |= _defined(node.body + node.orelse + getattr(node, "finalbody", []))
            names |= {n for h in getattr(node, "handlers", []) for n in _defined(h.body)}
    return names


def test_every_module_is_checked():
    assert {"commgen.py", "isets.py", "scop.py", "simrt.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_used_and_all_defined(module):
    tree = ast.parse((SRC / module).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{module} imports names it does not use: {', '.join(unused)}"
    listed = [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]
    foreign = sorted(set(listed) - _defined(tree.body))
    assert not foreign, f"{module} lists names in __all__ that it does not define: {', '.join(foreign)}"


def test_private_names_read():
    # a top-level name with one leading underscore is read somewhere in the
    # package outside its own definition, so no private helper is left dead
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

    def reads(node) -> list:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)]

    every = Counter(name for tree in trees.values() for name in reads(tree))
    dead = sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined([node])
        if name.startswith("_") and not name.startswith("__") and every[name] == reads(node).count(name)
    )
    assert not dead, f"private names never read: {', '.join(dead)}"
