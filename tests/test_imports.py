"""Every module, demo and tool reads each name it imports.

No linter runs on this repository, so this test makes one of a linter's
checks: an imported name the module never uses. src/gsmloc/__init__.py is
left out, because its imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    *sorted(p for p in (ROOT / "src" / "gsmloc").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
]

# (module file name, imported name) pairs imported on purpose without a use.
EXEMPT = {
    # The benchmark's traced run wraps it as a cli global (perfbench/workloads.py).
    ("cli.py", "subtract_baseline"),
}


def unused_imports(tree: ast.Module) -> list[str]:
    """The names tree imports, outside `from __future__`, that no Name node reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    unused = [name for name in unused_imports(ast.parse(path.read_text())) if (path.name, name) not in EXEMPT]
    assert unused == []

