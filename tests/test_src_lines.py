import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

SAMPLE = '''"""Module docstring,
on two lines."""
import os  # a comment after code

# a comment line


def f(x):
    """One-line docstring."""
    "a string left standing"
    text = """a string
in code"""
    return (x +
            len(text))
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # code: the import, the def, the two lines of the assignment and the
    # two of the return
    assert module.count_lines(SAMPLE) == (14, 6)
    assert module.count_lines("") == (0, 0)
