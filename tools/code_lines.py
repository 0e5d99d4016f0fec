"""Count the code lines of Python files.

    python3 tools/code_lines.py [FILE ...]

A code line is a non-blank line that holds a token other than a comment and
lies outside module, class and function docstrings (found with `ast`). A
line of a multi-line expression or of a string that is not a docstring
counts; a comment-only line, a blank line and a docstring line do not.
Prints one `<count> <file>` line per file, then `<total> total`. With no
file given it counts every module of `src/staleburner`.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) (line, character column) of every module, class and
    function docstring; ast gives columns in UTF-8 bytes."""
    text = source.splitlines()

    def char_col(line: int, byte_col: int) -> int:
        return len(text[line - 1].encode()[:byte_col].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                d = first.value
                spans.append(((d.lineno, char_col(d.lineno, d.col_offset)),
                              (d.end_lineno, char_col(d.end_lineno, d.end_col_offset))))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = _docstring_spans(source)
    text = source.splitlines()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NON_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b
                                               for a, b in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for ln in lines if text[ln - 1].strip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="*", help="default: src/staleburner/*.py")
    args = p.parse_args(argv)
    files = args.files or sorted(str(f.relative_to(ROOT))
                                 for f in (ROOT / "src" / "staleburner").glob("*.py"))
    total = 0
    for name in files:
        count = code_lines((ROOT / name).read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
