"""The counting rule of ``tools/code_lines.py``, the code-line figure of
the project's simplicity claims, pinned on small fixtures."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

PYTHON = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line counted

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        with a blank line."""
        text = """a string that
spans three lines,
not a docstring"""
        return (x +
                math.pi)
'''

C = '''/* A header comment
   over two lines */
#include <math.h>

// a line comment
static double f(double x) /* a trailing comment */
{
    const char *s = "/* not a comment */";
    /* a comment
       that ends on a code line */ return x + (double)(s[0] == '/');
}
'''


def test_python_rule():
    # import, class, def, the three lines of the string, return and its
    # continuation
    assert code_lines.python_lines(PYTHON) == 8


def test_c_rule():
    # include, the signature, both braces, the string line and the return
    assert code_lines.c_lines(C) == 6


def test_main_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(PYTHON)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.c").write_text(C)
    (tmp_path / "notes.txt").write_text("not counted\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["8", str(tmp_path / "a.py")], ["6", str(tmp_path / "sub" / "b.c")], ["14", "total"]]
