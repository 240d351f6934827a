"""tools/code_lines.py counts lines without docstrings, comments or blanks."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment counts as code

# a comment line


class Thing:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """not a docstring,
        but a string on two lines"""
        return math.sqrt(x), text
'''


def test_counts_code_lines_and_total(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    run = subprocess.run([sys.executable, str(TOOL), str(path), str(path)],
                         capture_output=True, text=True, check=True)
    counts = [line.split()[0] for line in run.stdout.splitlines()]
    # import, class, def, the two lines of the string, return.
    assert counts == ["6", "6", "12"]


def test_no_file_prints_usage():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True)
    assert run.returncode == 2
    assert "Usage" in run.stderr


def test_reader_closing_early_leaves_no_traceback(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # Far more output than a pipe holds, so the tool is still writing
    # when the reader closes.
    child = subprocess.Popen([sys.executable, str(TOOL), *[str(path)] * 3000],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.wait()
    assert first == f"     6  {path}\n"
    assert err == ""
