"""scripts/src_lines.py: raw and code-only line counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

#: 17 lines; code on lines 4, 9, 12-14 (a string that is assigned), 16 and 17.
MODULE = '''"""Module docstring
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """One-line docstring."""
    # an indented comment
    text = """a string
assigned over
three lines"""
    "a bare string statement"
    return (x +
            1)
'''


def test_counts_of_a_made_up_module():
    assert src_lines.line_counts(MODULE) == (17, 7)


def test_empty_and_comment_only_modules():
    assert src_lines.line_counts("") == (0, 0)
    assert src_lines.line_counts("# only a comment\n\n") == (2, 0)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pkg/a.py raw=17 code=7",
        "pkg/b.py raw=2 code=1",
        "total raw=19 code=8",
    ]
