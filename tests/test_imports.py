"""No package module keeps an import it never reads; the project has no
linter dependency, so this test is the check."""

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
