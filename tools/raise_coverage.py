"""List the ``raise`` statements of ``src/efce/`` that no quick test reaches.

Runs the tier-1 tests not marked ``slow`` (``tests/`` and ``bench/``) in
this process, under a ``sys.settrace`` line tracer that records only the
lines of ``src/efce/``, then prints every ``raise`` statement whose line
never ran, sorted, as ``file:line  source``.  It uses the standard
library and pytest only, and passes ``-p no:cacheprovider``, so it leaves
nothing in the repository.  Tracing makes the tests several times slower
(about a minute on a 2-core machine).  The exit status is pytest's.

Run it from the repository root::

    python3 tools/raise_coverage.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "efce"


def raise_lines(path):
    """Line numbers of the ``raise`` statements in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in ran else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-m", "not slow", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests"), str(ROOT / "bench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in raise_lines(path):
            if line not in ran[name]:
                print(f"{path.relative_to(ROOT / 'src')}:{line}  {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
