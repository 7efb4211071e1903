"""The code-line counter in tools/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class Box:
    """A class docstring."""

    size: int = 1
    "an attribute docstring"

    def total(self, items):
        """A function docstring,

        with a blank line inside."""
        return sum(
            item
            for item in items
        )


TEXT = """a string
that is not a docstring"""
print("a call", "on one line")
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path):
    code_lines = load_counter()
    source = tmp_path / "sample.py"
    source.write_text(SAMPLE)
    # import, class, size, def, the four lines of return, TEXT's two, print
    assert code_lines.code_lines(source) == 11


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    code_lines = load_counter()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text('"""doc"""\n# note\nz = 3\n')
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].split() == ["3", "total"]
