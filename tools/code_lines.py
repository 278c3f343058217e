"""Count the code lines of Python files: no comments, docstrings or blanks.

    python3 tools/code_lines.py [FILE ...]

With no FILE, counts ``src/avdtotal/*.py``. A line counts when a token
other than a comment or a line break starts on it or spans it, unless that
token is a docstring: the string that opens a module, class or function
body, as ``ast`` finds it. Prints one count per file and a total line.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or (token.type == tokenize.STRING
                                     and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to count (default src/avdtotal/*.py)")
    paths = parser.parse_args(argv).files or sorted((ROOT / "src" / "avdtotal").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
