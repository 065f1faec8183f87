"""tools/code_lines.py on a small source, on a package and on a missing path."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts


class Circle:
    """A class docstring."""

    # a comment alone
    def area(self, r):
        """A function docstring
        over two lines."""
        return math.pi * (
            r
            * r
        )

    label = """not a docstring,
    so both its lines count"""
'''


def test_counts_leave_out_blank_comment_and_docstring_lines():
    # Code: import, class, def, the 4-line return, and the 2-line string after the def.
    assert code_lines.count(SOURCE) == (len(SOURCE.splitlines()), 1 + 1 + 1 + 4 + 2)


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n# one\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "file", "code"]
    assert [row[1:] for row in rows[1:]] == [["3", "1"], ["20", "9"], ["23", "10"]]
    assert [Path(row[0]).name for row in rows[1:3]] == ["a.py", "b.py"]
    assert rows[3][0] == "total"


def test_rejects_a_path_that_does_not_exist(tmp_path, capsys):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exit_info:
        code_lines.main([str(missing)])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert err.count("error:") == 1 and err.endswith(f"error: no such file or directory: {missing}\n")
