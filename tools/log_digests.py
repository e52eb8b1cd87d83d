"""Print one digest per self-play run of a fixed protocol, to spot moved logs.

Each line is ``label sha256`` with the sha256 of the run's ``log.csv`` text
followed by its ``summary.txt`` text, or ``label <exception type>`` for a
run that raises.  The protocol is 266 runs:

- ``kuhn3`` at run seeds 0-63, 256 rounds, a gap checkpoint every 2 rounds;
- random-tree 0-63 at run seeds 0, 7 and 42, 32 rounds, a gap every round;
- fig1 at game seeds 0-4 and run seeds 0 and 7, 64 rounds, a gap every 4.

Run it from the repository root on two trees and diff the outputs::

    PYTHONPATH=src python3 tools/log_digests.py > after.txt
"""

from __future__ import annotations

import hashlib
import sys

from efce import builtin_game, run


def protocol():
    """(label, game factory, run seed, rounds, gap every) per run."""
    runs = [(f"kuhn3 seed={seed}", lambda: builtin_game("kuhn3"), seed, 256, 2)
            for seed in range(64)]
    for gs in range(64):
        for seed in (0, 7, 42):
            runs.append((f"random-tree-s{gs} seed={seed}",
                         lambda gs=gs: builtin_game("random-tree", seed=gs), seed, 32, 1))
    for gs in range(5):
        for seed in (0, 7):
            runs.append((f"fig1-s{gs} seed={seed}",
                         lambda gs=gs: builtin_game("fig1", seed=gs), seed, 64, 4))
    return runs


def digest(make, seed, rounds, gap_every):
    """sha256 of a run's log.csv and summary.txt text, or the type of what it raised."""
    try:
        log = run(make(), rounds, seed, gap_every=gap_every)
    except Exception as exc:  # the type is the result
        return type(exc).__name__
    return hashlib.sha256((log.csv_text() + log.summary_text()).encode()).hexdigest()


def main():
    for label, make, seed, rounds, gap_every in protocol():
        print(label, digest(make, seed, rounds, gap_every), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
