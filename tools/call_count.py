"""Count the C calls, opcodes and fixed-point solves of self-play rounds.

:func:`count` plays a list of runs of one imported ``efce`` package and
returns its costs per round.  The counts are deterministic: they depend on
the code, the Python version and the numpy version, not on the host's
speed.  A C call is what ``sys.setprofile`` reports as one: a call of a
built-in function or method, such as ``arr.take``, ``np.add.reduceat`` or
``len``.  A ufunc call (``np.maximum``, or an operator such as ``a * b``)
and a call of a dispatched numpy function (``np.bincount``) are none, so
they go uncounted; a numpy function written in Python counts the C calls
it makes.  The opcodes are those that ``sys.settrace`` reports, with
``f_trace_opcodes``, in the frames of the package's own files: each ufunc
call and operator costs at least one there, so they see what the C calls
miss.  ``tools/round_ab.py`` prints them for two trees, and
``tests/test_costs.py`` holds them under ceilings.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path


def count(efce, runs):
    """(C calls per round, C calls in ``efce_gap`` per checkpoint,
    ``fixed_point`` calls per round, opcodes per round, the ten callers
    making most C calls) over ``runs``, a list of (game factory, run seed,
    rounds, gap every).

    Counted over the runs only: each game first plays one round
    uncounted, which builds its plan and scorer tables, so the count is
    of the rounds' own work.  A C call counts as ``efce_gap``'s when that
    function is on the stack, whoever makes it.  A caller is a Python
    function, named by its file and qualified name
    (``trigger.HullMinimizer.next_element``), and listed with its C calls
    per round.  An opcode counts when a frame of a file of ``efce``'s
    package directory runs it.
    """
    callers = Counter()
    rounds = 0
    gap_code = efce.dynamics.efce_gap.__code__
    solve_code = efce.deviations.fixed_point.__code__
    gap = {"depth": 0, "calls": 0, "checkpoints": 0}
    solves = opcodes = 0
    package = str(Path(efce.__file__).resolve().parent)
    ours = {}
    tracer = sys.gettrace()

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

    def opcode(frame, event, arg):
        nonlocal opcodes
        opcodes += event == "opcode"
        return opcode

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = str(Path(name).resolve().parent) == package
        if not mine:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    for make, seed, n, gap_every in runs:
        game = make()
        efce.run(game, 1, seed)
        # The profiler starts last and stops first, so it sees neither settrace
        # call; a tracer that was set before, such as a coverage tool's, is put back.
        sys.settrace(trace)
        sys.setprofile(profile)
        try:
            efce.run(game, n, seed, gap_every=gap_every)
        finally:
            sys.setprofile(None)
            sys.settrace(tracer)
        rounds += n
    return (sum(callers.values()) / rounds, gap["calls"] / gap["checkpoints"], solves / rounds,
            opcodes / rounds, [(name, n / rounds) for name, n in callers.most_common(10)])
