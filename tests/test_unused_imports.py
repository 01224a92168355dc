"""Stale-import guard: no package or test module imports a name it never uses.

The package ``__init__`` is exempt, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "phi4lab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_name():
    source = (
        "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(sep)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 3: path"]


def test_no_module_imports_a_name_it_never_uses():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    stale = {
        f"{path.parent.name}/{path.name}": names
        for path in modules
        if (names := unused_imports(path.read_text()))
    }
    assert stale == {}
