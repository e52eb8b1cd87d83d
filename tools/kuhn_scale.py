"""Print the set-up, plan memory and round time of N-card Kuhn poker and the wide game.

One line per N = 24, 96 and 192 (``bench/kuhn.py``), with a
``kuhn96-comment`` line after N = 96 for the same text with `` #c`` and a
line end after the first decision's node id, so that a comment inside a
statement shows in ``parse_s``; then one per wide game of m = 4, 5 and 6
actions at every infoset (``wide_text`` in ``tools/log_digests.py``), with
the joint sequence count, the rounds of each timed run, and:

- ``parse_s``: wall seconds of ``parse_game`` on the game text, the median
  of three calls (the first call on a fresh heap can read half again as
  long);
- ``parse_peak_mb``: the tracemalloc peak, in MB, of another
  ``parse_game`` call on the same text;
- ``plan_peak_mb``: the tracemalloc peak, in MB, of building the players'
  group plan (``player_plan((0, 1))``) on the parsed game;
- ``ms_per_round``: wall ms per self-play round, the median of five
  ``run()`` calls at run seed 0 with one gap checkpoint at the end, after
  a 10-round warm-up run.  Each call runs ``ROUNDS[N]`` (``WIDE_ROUNDS[m]``)
  rounds, about a second on a 2-core host, so that the median can tell
  two trees apart.

Run it from the repository root::

    PYTHONPATH=src python3 tools/kuhn_scale.py
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from efce import parse_game, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from kuhn import kuhn_text  # noqa: E402
from log_digests import wide_text  # noqa: E402

ROUNDS = {24: 1600, 96: 500, 192: 200}
WIDE_ROUNDS = {4: 1000, 5: 800, 6: 600}
WARMUP = 10


def measure(text, rounds):
    """(joint sequences, parse seconds, parse and plan peak MB, ms per round) of one game."""
    parse_peak = traced_peak(parse_game, text)
    parse_times = []
    for _ in range(3):
        game = None  # free the last game outside the timed call
        start = time.perf_counter()
        game = parse_game(text)
        parse_times.append(time.perf_counter() - start)
    plan_peak = traced_peak(game.player_plan, (0, 1))
    plan = game.player_plan((0, 1))
    run(game, WARMUP, 0, gap_every=WARMUP)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        run(game, rounds, 0, gap_every=rounds)
        times.append((time.perf_counter() - start) * 1e3 / rounds)
    return (plan.owner.size, statistics.median(parse_times), parse_peak, plan_peak,
            statistics.median(times))


def commented(text):
    """``text`` with ' #c' and a line end after the first decision's node id."""
    at = text.index(" ", text.index("\ndecision ") + len("\ndecision "))
    return text[:at] + " #c\n" + text[at:]


def traced_peak(fn, arg):
    """The tracemalloc peak, in MB, of the call ``fn(arg)``."""
    tracemalloc.start()
    try:
        fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def main():
    games = [(f"kuhn{n}", lambda n=n: kuhn_text(n), rounds) for n, rounds in ROUNDS.items()]
    games.insert(2, ("kuhn96-comment", lambda: commented(kuhn_text(96)), ROUNDS[96]))
    games += [(f"wide-m{m}", lambda m=m: wide_text(m), rounds) for m, rounds in WIDE_ROUNDS.items()]
    for label, make_text, rounds in games:
        n, parse_s, parse_mb, plan_mb, ms = measure(make_text(), rounds)
        print(f"{label} sequences={n} parse_s={parse_s:.2f} parse_peak_mb={parse_mb:.2f} "
              f"plan_peak_mb={plan_mb:.2f} rounds={rounds} ms_per_round={ms:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
