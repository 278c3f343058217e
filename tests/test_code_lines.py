"""The code line counter, ``tools/code_lines.py``, on a small fixture."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 9 code lines: the import, the decorator, the def and the class, the two
# lines of the call around its comment, the two-line string that is code,
# and the return; the docstrings, comments and blank lines do not count
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import functools


@functools.cache
def f(x):  # a trailing comment
    """Function docstring."""

    y = max(x,
            # inside the call
            1)
    s = """text
    that is code"""
    return y


class C:
    "One-line class docstring."
'''


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_alone(counter):
    assert counter.code_lines(FIXTURE) == 9


def test_main_prints_each_file_and_the_total(counter, tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert counter.main([str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"     9 {path}", f"     9 {path}", "    18 total"]


def test_default_counts_the_package(counter, capsys):
    assert counter.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(list((ROOT / "src" / "avdtotal").glob("*.py"))) + 1
    assert lines[-1].endswith(" total")
