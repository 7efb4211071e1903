"""Count the code lines of Python sources.

    python3 tools/code_lines.py [PATH ...]

A code line holds at least one token that is not a comment, a docstring
or layout (blank lines, line breaks, indentation); a statement that spans
several lines counts each of them.  A docstring is a string literal that
is a statement on its own line, as at the top of a module, class or
function body.  Each PATH is a file or a directory searched for ``*.py``;
the default is ``src``.  Prints each file's count, then the total.
Uses the standard library's ``tokenize`` only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of one logical line
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        rows.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str]) -> int:
    total = 0
    for path in python_files(argv or ["src"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
