"""The line counts of tools/src_lines.py, which measures the src/ size."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _path)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math


def f(x):
    """Function docstring

    with a blank line inside it."""
    # a comment line
    return math.sqrt(x)
'''


def test_count_lines_by_kind():
    # docstring: lines 1-2 and 8-10; comment: 11; code: 4, 7, 12; blank: 3, 5, 6
    assert src_lines.count_lines(SOURCE) == {"code": 3, "docstring": 5,
                                             "comment": 1, "blank": 3}


def test_total_row_sums_the_file_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert src_lines.main([str(tmp_path)]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", "lines", *src_lines.KINDS]
    counts = [[int(v) for v in row.split()[1:]] for row in rows]
    assert counts == [[12, 3, 5, 1, 3], [4, 2, 0, 1, 1]]
    assert total.split() == ["total"] + [str(sum(col)) for col in zip(*counts)]
