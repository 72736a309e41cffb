"""Count the lines of Python source files by kind: code, docstring, comment
and blank.

A line that belongs to a statement-level string (a module, class or
function docstring, or any other bare string statement) counts as
docstring, blank lines inside it included. Of the remaining lines, an
empty one is blank, one whose first non-space character is ``#`` is a
comment, and every other line is code.

Usage: python tools/src_lines.py [path ...]   (default: src)

A path is a file or a directory searched for ``*.py``. Prints one row per
file and a total row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict:
    """Line counts by kind for one file's source."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def _files(paths) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<32} {'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in _files(paths):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(path):<32} {sum(counts.values()):>6} "
              + " ".join(f"{counts[k]:>9}" for k in KINDS))
    print(f"{'total':<32} {sum(total.values()):>6} "
          + " ".join(f"{total[k]:>9}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
