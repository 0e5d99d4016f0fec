"""`tools/code_lines.py` counts code lines: non-blank, not comment-only,
outside module, class and function docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring: Â·X."""
        # comment
        s = """a string that is no docstring

# not a comment"""
        return (x +
                1)


def g(): """one-line body"""
'''


def test_counts_code_lines_of_a_snippet():
    # import, class, def f, the two lines of s that are not blank, the two
    # lines of the return, and def g, whose docstring shares its line
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_one_line_per_file_and_a_total(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(SNIPPET, encoding="utf-8")
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8 {path}", f"     8 {path}", "    16 total"]
