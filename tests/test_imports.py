"""No package module keeps an import it never reads, and no private helper
that no package module calls; the project has no linter dependency, so
these tests are the check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bcns"


def _unused_imports(path):
    """``(line, name)`` of each name the module imports but never references;
    an import line marked ``# noqa: F401`` is kept on purpose."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return out


def test_every_imported_name_is_referenced():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: _unused_imports(p) for p in modules}
    assert {name: u for name, u in unused.items() if u} == {}


def _private_definitions(tree):
    """Names of the module-level private functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree):
    """Every name the module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) >= 9
    used = set().union(*map(_references, trees.values()))
    orphans = {name: sorted(_private_definitions(tree) - used)
               for name, tree in trees.items()}
    assert {name: o for name, o in orphans.items() if o} == {}
