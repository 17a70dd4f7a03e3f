"""Count code lines: the lines of a source file that hold code, outside
comments and docstrings.

A Python line counts when a token other than a comment, a line break or
an indent lies on it, a docstring's lines excluded; a string that spans
lines counts every line it spans. A C line counts when something other
than white space is left on it once its comments are removed. Prints
each ``.py`` and ``.c`` file under the given paths, files or
directories searched recursively, with its count, then the total.

    python3 tools/code_lines.py src/evgesture
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
# C comments and the literals in which their markers are plain text
_C_TOKENS = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def python_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def c_lines(source: str) -> int:
    def strip(match: re.Match) -> str:  # a comment keeps only its line breaks
        text = match.group()
        return text if text[0] in "\"'" else "\n" * text.count("\n")
    return sum(1 for line in _C_TOKENS.sub(strip, source).splitlines() if line.strip())


def count(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    return python_lines(source) if path.suffix == ".py" else c_lines(source)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv:
        root = Path(arg)
        files += [root] if root.is_file() else sorted(
            f for f in root.rglob("*") if f.suffix in (".py", ".c") and f.is_file())
    total = 0
    for f in files:
        n = count(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
