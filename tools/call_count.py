"""Count the C calls and fixed-point solves of self-play rounds with ``sys.setprofile``.

:func:`count` plays a list of runs of one imported ``efce`` package and
returns its costs per round.  The counts are deterministic: they depend on
the code, the Python version and the numpy version, not on the host's
speed.  A C call is what ``sys.setprofile`` reports as one: a call of a
built-in function or method, such as ``arr.take``, ``np.add.reduceat`` or
``len``.  A ufunc call (``np.maximum``, or an operator such as ``a * b``)
and a call of a dispatched numpy function (``np.bincount``) are none, so
they go uncounted; a numpy function written in Python counts the C calls
it makes.  ``tools/round_ab.py`` prints them for two trees, and
``tests/test_costs.py`` holds them under ceilings.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path


def count(efce, runs):
    """(C calls per round, C calls in ``efce_gap`` per checkpoint,
    ``fixed_point`` calls per round, the ten callers making most C calls)
    over ``runs``, a list of (game factory, run seed, rounds, gap every).

    Counted over the runs only: each game first plays one round
    unprofiled, which builds its plan and scorer tables, so the count is
    of the rounds' own work.  A C call counts as ``efce_gap``'s when that
    function is on the stack, whoever makes it.  A caller is a Python
    function, named by its file and qualified name
    (``trigger.HullMinimizer.next_element``), and listed with its C calls
    per round.
    """
    callers = Counter()
    rounds = 0
    gap_code = efce.dynamics.efce_gap.__code__
    solve_code = efce.deviations.fixed_point.__code__
    gap = {"depth": 0, "calls": 0, "checkpoints": 0}
    solves = 0

    def profile(frame, event, arg):
        nonlocal solves
        if event == "c_call":
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name)
            callers[f"{Path(code.co_filename).stem}.{name}"] += 1
            gap["calls"] += gap["depth"] > 0
        elif frame.f_code is solve_code:
            solves += event == "call"
        elif frame.f_code is gap_code:
            if event == "call":
                gap["depth"] += 1
                gap["checkpoints"] += 1
            elif event == "return":
                gap["depth"] -= 1

    for make, seed, n, gap_every in runs:
        game = make()
        efce.run(game, 1, seed)
        sys.setprofile(profile)
        try:
            efce.run(game, n, seed, gap_every=gap_every)
        finally:
            sys.setprofile(None)
        rounds += n
    return (sum(callers.values()) / rounds, gap["calls"] / gap["checkpoints"], solves / rounds,
            [(name, n / rounds) for name, n in callers.most_common(10)])
