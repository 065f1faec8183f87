"""Count each module's file lines and code lines, then their totals.

    python3 tools/code_lines.py [paths...]      # default: src/gsmloc

A path is a .py file or a directory, whose .py files are counted
recursively, in sorted order; a path that does not exist is a usage error
(exit 2). A code line is a physical line that holds part of a token other
than a comment, an indent, a dedent or a line end, and is not part of a
docstring: the string a module, class or function body starts with. So
blank, comment and docstring lines are left out, and every line of a
statement that spans several, or of a string that does, is counted.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The source's file lines and code lines."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def _modules(paths: list[Path]) -> list[Path]:
    return [module for path in paths for module in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/gsmloc")])
    args = parser.parse_args(argv)
    for path in args.paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
    rows = [(str(module), *count(module.read_text(encoding="utf-8"))) for module in _modules(args.paths)]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'file':>6}  {'code':>6}")
    for name, file_lines, code_lines in rows:
        print(f"{name:<{width}}  {file_lines:>6}  {code_lines:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
