"""Cost guard: ceilings on the deterministic call counts of self-play rounds.

``tools/call_count.py`` counts, with ``sys.setprofile``, the C calls per
round, the C calls inside ``efce_gap`` per checkpoint, and the
``fixed_point`` calls per round.  The counts depend on the code, the Python
version and the numpy version, not on the host's speed, so a change that
adds work to the loop fails here whatever the machine.  The ceilings were
taken on Python 3.11 and numpy 2.4: a numpy or Python upgrade may move the
counts, and the failure message names both versions.

Each C-call ceiling is the count at the time plus 0.5 calls, so one more
array method call per round fails (what counts as a C call is said in
``tools/call_count.py``).  Each ``fixed_point`` ceiling is the solves
at the time plus half a solve, so losing the reuse of a repeated deviation
fails.  A change that raises a ceiling says so, and why, in CHANGES.md.
"""

import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import efce

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from call_count import count  # noqa: E402

# name: (runs of (game factory, run seed, rounds, gap every), C calls per round,
# C calls in efce_gap per checkpoint, fixed_point calls, rounds), as counted.
COUNTED = {
    "kuhn3": ([(lambda: efce.builtin_game("kuhn3"), 0, 128, 2)], 104.09, 10.0, 127, 128),
    "random-trees": ([(lambda s=s: efce.builtin_game("random-tree", seed=s), 0, 32, 1)
                      for s in range(16)], 61.75, 10.375, 94, 512),
    "fig1": ([(lambda s=s: efce.builtin_game("fig1", seed=s), 0, 512, 64)
              for s in range(2)], 41.60, 10.0, 5, 1024),
}


@pytest.mark.parametrize("name", list(COUNTED))
def test_round_costs_stay_under_their_ceilings(name):
    runs, calls, gap_calls, solves, rounds = COUNTED[name]
    got = count(efce, runs)[:3]
    ceilings = (calls + 0.5, gap_calls + 0.5, (solves + 0.5) / rounds)
    versions = f"numpy {np.__version__}, Python {platform.python_version()}"
    for what, n, ceiling in zip(("C calls per round", "C calls in efce_gap per checkpoint",
                                 "fixed_point calls per round"), got, ceilings):
        assert n <= ceiling, f"{name}: {n:.4f} {what}, ceiling {ceiling:.4f} ({versions})"
