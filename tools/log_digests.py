"""Print one digest per self-play run of a fixed protocol, to spot moved logs.

Each line is ``label sha256 sha256``: the sha256 of the run's ``log.csv``
text followed by its ``summary.txt`` text, then the sha256 of the final gap
report's ``argmax`` and of each player's witness (its trigger and its
:func:`~efce.format_strategy` text), which the report builds on first
read.  A run that raises gives ``label <exception type>``.  The protocol is
274 runs:

- ``kuhn3`` at run seeds 0-63, 256 rounds, a gap checkpoint every 2 rounds;
- random-tree 0-63 at run seeds 0, 7 and 42, 32 rounds, a gap every round;
- fig1 at game seeds 0-4 and run seeds 0 and 7, 64 rounds, a gap every 4;
- the wide game (:func:`wide_text`) at m = 4, 5 and 6, and the one-player
  game of :data:`MIXED_LEVEL` (infosets of 1 to 5 actions on one level), at
  run seeds 0 and 7, 64 rounds, a gap every 4.

Run it from the repository root on two trees and diff the outputs::

    PYTHONPATH=src python3 tools/log_digests.py > after.txt

It digests the ``efce`` package on the path, so the same script can digest
another tree's ``src`` as well.
"""

from __future__ import annotations

import hashlib
import random
import sys

from efce import builtin_game, format_strategy, parse_game, run

#: One player; under a 5-action root, one infoset each of 1 to 5 actions.
MIXED_LEVEL = """players 1; root r
decision r player 1 infoset R { a -> n1 ; b -> n2 ; c -> n3 ; d -> n4 ; e -> n5 }
decision n1 player 1 infoset A1 { a1 -> z1 }
decision n2 player 1 infoset A2 { b1 -> z2 ; b2 -> z3 }
decision n3 player 1 infoset A3 { c1 -> z4 ; c2 -> z5 ; c3 -> z6 }
decision n4 player 1 infoset A4 { d1 -> z7 ; d2 -> z8 ; d3 -> z9 ; d4 -> z10 }
decision n5 player 1 infoset A5 { e1 -> z11 ; e2 -> z12 ; e3 -> z13 ; e4 -> z14 ; e5 -> z15 }
leaf z1 {1}; leaf z2 {2}; leaf z3 {3}; leaf z4 {4}; leaf z5 {5}
leaf z6 {6}; leaf z7 {7}; leaf z8 {8}; leaf z9 {9}; leaf z10 {10}
leaf z11 {3}; leaf z12 {7}; leaf z13 {1}; leaf z14 {9}; leaf z15 {5}
"""


def wide_text(m):
    """Text of the wide game, with m actions at every infoset.

    Player 1 has a root infoset, player 2 one infoset (blind to player 1's
    action), then player 1 one infoset per (own action, player 2 action).
    The payoffs are drawn from ``random.Random(m)``, to 3 decimals.
    """
    rng = random.Random(m)
    lines = [f"game wide-m{m}", "players 2", "root r",
             "decision r player 1 infoset R { "
             + " ; ".join(f"a{i} -> q{i}" for i in range(m)) + " }"]
    for i in range(m):
        lines.append(f"decision q{i} player 2 infoset Q {{ "
                     + " ; ".join(f"b{j} -> d{i}_{j}" for j in range(m)) + " }")
        for j in range(m):
            lines.append(f"decision d{i}_{j} player 1 infoset I{i}_{j} {{ "
                         + " ; ".join(f"c{k} -> z{i}_{j}_{k}" for k in range(m)) + " }")
            lines += [f"leaf z{i}_{j}_{k} {{ {rng.uniform(-1, 1):.3f} {rng.uniform(-1, 1):.3f} }}"
                      for k in range(m)]
    return "\n".join(lines) + "\n"


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
    texts = [(f"wide-m{m}", wide_text(m)) for m in (4, 5, 6)] + [("mixed-level", MIXED_LEVEL)]
    for name, text in texts:
        for seed in (0, 7):
            runs.append((f"{name} seed={seed}", lambda text=text: parse_game(text), seed, 64, 4))
    return runs


def digest(make, seed, rounds, gap_every):
    """sha256 of a run's logs and of its final witnesses, or the type of what it raised."""
    try:
        game = make()
        log = run(game, rounds, seed, gap_every=gap_every)
    except Exception as exc:  # the type is the result
        return type(exc).__name__
    final = log.final
    witnesses = [f"{w[0]} {format_strategy(game, w[1])}" if w else "None"
                 for w in final.witnesses]
    return " ".join(hashlib.sha256(text.encode()).hexdigest() for text in (
        log.csv_text() + log.summary_text(), "\n".join([repr(final.argmax)] + witnesses)))


def main():
    for label, make, seed, rounds, gap_every in protocol():
        print(label, digest(make, seed, rounds, gap_every), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
