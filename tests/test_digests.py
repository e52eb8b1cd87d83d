"""Byte guard: a fixed subset of the log and parser digest protocols keeps its outputs.

The protocols are those of ``tools/log_digests.py`` and
``tools/parse_digests.py``; the expected lines are under ``tests/digests/``.
A change that moves logged or parsed bytes on purpose regenerates them with::

    PYTHONPATH=src python3 tests/test_digests.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import log_digests  # noqa: E402
import parse_digests  # noqa: E402

_DIR = Path(__file__).resolve().parent / "digests"


def log_lines():
    """Every 8th run of the log protocol, plus every run on the wide and mixed-level games.

    Those games are the protocol's only ones with infosets of 4 or more
    actions; the mixed-level game pads narrower ones to them.
    """
    runs = log_digests.protocol()
    return [f"{label} {log_digests.digest(make, seed, rounds, gap_every)}"
            for k, (label, make, seed, rounds, gap_every) in enumerate(runs)
            if k % 8 == 0 or label.startswith(("wide-", "mixed-level"))]


def parse_lines():
    """Every 8th input of the parser protocol."""
    return [f"{label} {name} {parse_digests.outcome(text)}"
            for k, (label, name, text) in enumerate(parse_digests.protocol()) if k % 8 == 0]


def _moved(name, lines):
    want = (_DIR / name).read_text().splitlines()
    assert len(lines) == len(want)
    return [got for got, line in zip(lines, want) if got != line]


def test_log_digests_do_not_move():
    assert _moved("log.txt", log_lines()) == []


def test_parse_digests_do_not_move():
    assert _moved("parse.txt", parse_lines()) == []


if __name__ == "__main__":
    _DIR.mkdir(exist_ok=True)
    (_DIR / "log.txt").write_text("\n".join(log_lines()) + "\n")
    (_DIR / "parse.txt").write_text("\n".join(parse_lines()) + "\n")
