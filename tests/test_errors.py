"""Error classes against README's exit-code table; no assert in the package source."""

import ast
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

import jurybayes
from jurybayes.errors import JuryBayesError

# Every error class must exist before the table is checked, wherever it
# is defined, and the package loads its modules only on first use.
for _module in pkgutil.iter_modules(jurybayes.__path__):
    import_module(f"jurybayes.{_module.name}")

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "jurybayes"

_ROW = re.compile(r"\| (\d+)(–\d+)? \| (.*) \|")
_CLASS_NAME = re.compile(r"`([A-Z]\w*)`")
_NAME_AND_CODE = re.compile(r"\b([A-Z]\w*) (\d+)\b")


def error_classes() -> list[type]:
    """Every subclass of JuryBayesError, however deep."""
    found, pending = [], [JuryBayesError]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return found


def readme_exit_codes() -> list[tuple[str, int]]:
    """(class name, code) for every class README's exit-code table names.

    A single-code row names its class in backticks; the range row lists
    ``Name code`` pairs.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Exit codes\n\n", 1)[1].split("\n\n", 1)[0]
    named = []
    for line in table.splitlines():
        row = _ROW.fullmatch(line)
        if row is None:
            continue
        code, is_range, meaning = row.groups()
        if is_range:
            named += [(name, int(value)) for name, value in _NAME_AND_CODE.findall(meaning)]
        else:
            named += [(name, int(code)) for name in _CLASS_NAME.findall(meaning)]
    return named


class TestExitCodeTable:
    @pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
    def test_every_error_class_declares_its_own_code(self, cls):
        assert "exit_code" in vars(cls)

    def test_each_code_equals_its_readme_row(self):
        named = dict(readme_exit_codes())
        assert {cls.__name__: cls.exit_code for cls in error_classes()} == named

    def test_no_two_classes_share_a_code(self):
        codes = [cls.exit_code for cls in error_classes()]
        assert len(set(codes)) == len(codes)

    def test_readme_names_only_existing_classes_once_each(self):
        names = [name for name, _ in readme_exit_codes()]
        assert len(set(names)) == len(names)
        assert set(names) <= {cls.__name__ for cls in error_classes()}


def test_no_assert_in_package_source():
    """Invariants raise InvariantViolation, so they still hold under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
