"""Count the code lines of each module of a Python package.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: the repo's src/cvbench)

A code line is a physical line that holds at least one token other than a
comment, a docstring or layout. Layout is the tokens NEWLINE, NL, INDENT,
DEDENT and ENDMARKER, which blank lines, line ends and indentation make. A
docstring is the string that opens a module, class or function body, as
``ast.get_docstring`` finds it; it is matched to its STRING token by start
position. A token spanning several lines, such as a multi-line string that
is not a docstring, counts on every line it spans. So a line holding only a
comment, part of a docstring or nothing does not count, and a line holding
code and a trailing comment counts once.

Prints one line per module, sorted by path, and the total last. Exits 0
whatever the count: the number is reported, not gated. The default package
is found from this file's own place in the repo, not from the working
directory. A directory that holds no ``.py`` file, or none at all, prints
one ``error:`` line and exits 2 rather than a total of 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: the package this tool counts by default: src/cvbench of the repo it lives in
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cvbench"

SKIPPED = {  # comments and layout
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each docstring of a module's source starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token other than a comment, docstring or layout."""
    docstrings = docstring_starts(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: {package} holds no .py file", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
