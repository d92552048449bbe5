"""Count the raw and the code lines of each module under ``src/``.

A code line is a line that holds a token of a statement. One ``tokenize``
pass finds them, so these lines do not count: blank lines, comment lines,
and the lines of a statement that is only a string literal (a docstring,
or a string left standing as a comment). Every line of any other
statement counts, the lines inside its strings and brackets included.

It prints one line per module, raw lines, code lines and the path from
the repository root, then the totals. Usage:

    python3 scripts/src_lines.py
"""
from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[1]

# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def count_lines(source: str) -> Tuple[int, int]:
    """The raw and the code lines of a module's source."""
    code, statement = set(), []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        if token.type != tokenize.NEWLINE:
            statement.append(token)
            continue
        if any(t.type != tokenize.STRING for t in statement):
            for t in statement:
                code.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(source.splitlines()), len(code)


def main() -> int:
    # no options: this parses only so that --help and a stray argument do
    # not start the count
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    total_raw = total_code = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        raw, code = count_lines(path.read_text())
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path.relative_to(ROOT)}")
    print(f"{total_raw:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
