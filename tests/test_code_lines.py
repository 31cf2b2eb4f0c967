"""tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_tool)

# A module with docstrings at every level, comments and blank lines, and
# the same code without them, every line of which is a code line.
FULL = '''\
"""Module docstring,
over two lines."""

# a comment
import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        return os.sep   # a trailing comment


async def build():
    """Function docstring
    on two lines."""
    label = "a string, not a docstring"

    "a bare string after the first statement"
    total = (1 +
             2 +
             3)
    return label, total
'''

BARE = '''\
import os
class Thing:
    def method(self):
        return os.sep
async def build():
    label = "a string, not a docstring"
    "a bare string after the first statement"
    total = (1 +
             2 +
             3)
    return label, total
'''


def count(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return code_lines_tool.code_lines(path)


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    assert count(tmp_path, BARE) == len(BARE.splitlines()) == 11
    assert count(tmp_path, FULL) == 11


@pytest.mark.parametrize("source,expected", [
    ('x = 1\n"not the module docstring"\n', 2),
    ('def f():\n    x = 1\n    """not the docstring of f"""\n', 3),
    ('text = """one\ntwo\nthree"""\n', 3),
    ('"""module docstring"""\ntext = """one\ntwo"""\n', 2),
])
def test_a_string_that_is_not_a_docstring_counts(tmp_path, source, expected):
    assert count(tmp_path, source) == expected


@pytest.mark.parametrize("source,expected", [
    ("total = (1 +\n         2 +\n         3)\n", 3),
    ("call(a,\n     b)  # comment\n", 2),
    ("x = 1; y = 2\n", 1),
    ("value = [\n\n    1,\n    # a comment inside the brackets\n    2,\n]\n", 4),
])
def test_an_expression_counts_once_per_line(tmp_path, source, expected):
    assert count(tmp_path, source) == expected


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(BARE)
    (tmp_path / "pkg" / "b.py").write_text(FULL)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines_tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ("    11  a.py\n"
                                       "    11  pkg/b.py\n"
                                       "    22  total\n")
