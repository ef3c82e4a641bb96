"""tools/code_lines.py counts what the ROADMAP's code-line figures quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


def f(x):
    """Docstring."""
    s = ("a"
         "b")
    return math.sqrt(x) + len(s)
'''


def test_skips_blank_comment_and_docstring_lines():
    # counted: the import, def, the two lines of s and the return
    assert sorted(_tool().code_lines(SOURCE)) == [4, 9, 11, 12, 13]


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["5", "1", "6"]
    assert out[-1].split()[1] == "total"
