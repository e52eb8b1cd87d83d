"""Count two trees' C calls per self-play round, on the benchmark's workloads.

Loads the ``efce`` package of each ``src`` directory under its own module
name, then runs one pass of each workload per tree:

- ``kuhn3``: the built-in three-card Kuhn poker at run seeds 0, 16, 32 and
  48, 256 rounds each, a gap checkpoint every 2 rounds;
- ``random-trees``: each random-tree game of seeds 0-63 that completes on
  every run seed (the benchmark's timed games), parsed afresh before its
  run, at run seed 0, 32 rounds, a gap checkpoint every round.

Per workload and tree it prints the C calls per round, counted with
``sys.setprofile`` after each game's plan is built, the C calls made while
``efce_gap`` runs, per gap checkpoint (the call the benchmark's
``gap_ms_*`` metrics time), the ``fixed_point`` calls per round (the
learner solves each distinct deviation once, so this is the share of
rounds whose deviation changed), and the ten Python functions of that tree
that make the most C calls, each with its C calls per round.  The count is
deterministic, so one pass per tree is enough.
It times nothing: the host's speed swings by more than a small change's
effect, so timing claims come from ``bench/run.py``'s alternating runs.

Run it from the repository root::

    python3 tools/round_ab.py PARENT_SRC CHANGE_SRC
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

KUHN_SEEDS = (0, 16, 32, 48)
# The random-tree games that fail on some run seed, left out as the benchmark does.
RANDOM_TREE_FAILING = frozenset({21, 34, 51, 53, 54})


def load(src, name):
    """The ``efce`` package under ``src``, imported as module ``name``."""
    root = Path(src) / "efce"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def runs(efce, workload):
    """(game factory, run seed, rounds, gap every) per run of one pass."""
    if workload == "kuhn3":
        game = efce.builtin_game("kuhn3")
        return [(lambda: game, seed, 256, 2) for seed in KUHN_SEEDS]
    return [(lambda s=s: efce.builtin_game("random-tree", seed=s), 0, 32, 1)
            for s in range(64) if s not in RANDOM_TREE_FAILING]


def calls_per_round(efce, workload):
    """(C calls per round, C calls in ``efce_gap`` per checkpoint,
    ``fixed_point`` calls per round, the ten callers making most C calls)
    of one pass.

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
            callers[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1
            gap["calls"] += gap["depth"] > 0
        elif frame.f_code is solve_code:
            solves += event == "call"
        elif frame.f_code is gap_code:
            if event == "call":
                gap["depth"] += 1
                gap["checkpoints"] += 1
            elif event == "return":
                gap["depth"] -= 1

    for make, seed, n, gap_every in runs(efce, workload):
        game = make()
        efce.run(game, 1, seed)
        sys.setprofile(profile)
        try:
            efce.run(game, n, seed, gap_every=gap_every)
        finally:
            sys.setprofile(None)
        rounds += n
    return (callers.total() / rounds, gap["calls"] / gap["checkpoints"], solves / rounds,
            [(name, n / rounds) for name, n in callers.most_common(10)])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    trees = {"parent": load(argv[1], "efce_parent"), "change": load(argv[2], "efce_change")}
    for workload in ("kuhn3", "random-trees"):
        counted = {name: calls_per_round(efce, workload) for name, efce in trees.items()}
        print(f"{workload} C calls/round parent {counted['parent'][0]:.2f} "
              f"change {counted['change'][0]:.2f}", flush=True)
        print(f"{workload} C calls in efce_gap/checkpoint parent {counted['parent'][1]:.2f} "
              f"change {counted['change'][1]:.2f}", flush=True)
        print(f"{workload} fixed_point calls/round parent {counted['parent'][2]:.4f} "
              f"change {counted['change'][2]:.4f}", flush=True)
        for name, (*_, top) in counted.items():
            print(f"{workload} {name} top C callers per round: "
                  + ", ".join(f"{caller} {n:.2f}" for caller, n in top), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
