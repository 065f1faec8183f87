"""Every module, demo and tool reads each name it imports, and every
package module reads each private name it defines and names the encoding
of each text file it opens.

No linter runs on this repository, so this test makes three of a linter's
checks: an imported name the module never uses, a module-level private
name (``_x``) its own module never reads, as a deleted code path leaves
its constants behind, and a text file opened in the locale's encoding,
which differs between machines. src/gsmloc/__init__.py is left out of the
first, because its imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = sorted((ROOT / "src" / "gsmloc").glob("*.py"))
MODULES = [
    *(p for p in PACKAGE_MODULES if p.name != "__init__.py"),
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


def unread_private_names(tree: ast.Module) -> list[str]:
    """The private names (one leading underscore) tree assigns, defines or
    imports at module level that no Name node reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_read(path):
    assert unread_private_names(ast.parse(path.read_text())) == []


TEXT_IO = {"open", "read_text", "write_text"}


def text_io_without_encoding(tree: ast.Module) -> list[int]:
    """The lines of tree's open, read_text and write_text calls that pass no
    encoding= and open no binary mode (a mode string with "b" in it)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name not in TEXT_IO or any(keyword.arg == "encoding" for keyword in node.keywords):
            continue
        # The mode is open()'s second argument and Path.open()'s first.
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[isinstance(func, ast.Name) :][:1]
        if name == "open" and any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes):
            continue
        lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_text_file_names_its_encoding(path):
    assert text_io_without_encoding(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_text_io_check_flags_a_locale_encoded_call():
    source = """
open(p)
open("b.txt")
open(p, "rb")
open(p, mode="wb")
open(p, encoding="utf-8")
path.open("r")
path.open("rb")
path.read_text()
path.read_text(encoding="utf-8")
path.write_text(text)
path.write_text(text, encoding="utf-8")
path.read_bytes()
"""
    assert text_io_without_encoding(ast.parse(source)) == [2, 3, 7, 9, 11]
