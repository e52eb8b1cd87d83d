"""Command-line interface.

Two subcommands: ``validate`` parses a game file and reports its shape, and
``run`` executes uncoupled self-play, writing a CSV log and a text summary.
Exit codes: 0 success, 2 usage error, 3 invalid input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .deviations import NumericalError
from .dynamics import run
from .game import builtin_game, parse_game

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="efce",
        description="No-regret learning dynamics for extensive-form "
        "correlated equilibrium.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="parse a game file and report its shape")
    val.add_argument("path", nargs="?", help="game file to validate")
    val.add_argument("--builtin", help="validate a built-in game instead of a file")
    val.add_argument("--builtin-seed", type=int, default=None,
                     help="seed for randomized built-in games")

    runp = sub.add_parser("run", help="run uncoupled self-play and log progress")
    runp.add_argument("--game", help="game file to load")
    runp.add_argument("--builtin", help="built-in game name")
    runp.add_argument("--builtin-seed", type=int, default=None,
                      help="seed for randomized built-in games")
    runp.add_argument("--iterations", type=int, required=True,
                      help="number of self-play rounds")
    runp.add_argument("--seed", type=int, default=0,
                      help="master seed for the players' random streams")
    runp.add_argument("--gap-every", type=int, default=100,
                      help="evaluate the equilibrium gap every this many rounds")
    runp.add_argument("--delta", type=float, default=0.01,
                      help="confidence parameter of the logged gap bound")
    runp.add_argument("--fp-tol", type=float, default=1e-10,
                      help="fixed-point residual tolerance")
    runp.add_argument("--out", default=".",
                      help="directory for log.csv and summary.txt")
    runp.add_argument("--threads", type=int, default=1,
                      help="accepted for compatibility; output and speed do not "
                      "depend on it")
    return parser


def _load_game(args, parser):
    if args.builtin is not None and getattr(args, "path", None) is not None:
        parser.error("give either a file or --builtin, not both")
    if args.builtin is not None and getattr(args, "game", None) is not None:
        parser.error("give either --game or --builtin, not both")
    if args.builtin is not None:
        return builtin_game(args.builtin, seed=args.builtin_seed)
    path = getattr(args, "path", None) or getattr(args, "game", None)
    if path is None:
        parser.error("a game file or --builtin is required")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_game(text)


def _cmd_validate(args, parser):
    game = _load_game(args, parser)
    print(f"game: {game.name}")
    print(f"players: {game.n_players}")
    print(f"nodes: {game.n_nodes}")
    print(f"terminals: {game.n_terminals}")
    print("perfect recall: ok")
    for i in range(game.n_players):
        n = game.num_sequences(i)
        print(f"player {i + 1}: infosets={len(game.player_infosets(i))} "
              f"sequences={n} (nonempty {n - 1})")
    return EXIT_OK


def _cmd_run(args, parser):
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    if args.gap_every < 1:
        parser.error("--gap-every must be at least 1")
    if not 0.0 < args.delta < 1.0:
        parser.error("--delta must lie strictly between 0 and 1")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if not 0.0 < args.fp_tol < math.inf:
        parser.error("--fp-tol must be positive and finite")
    game = _load_game(args, parser)
    log = run(
        game,
        iterations=args.iterations,
        seed=args.seed,
        gap_every=args.gap_every,
        delta=args.delta,
        fp_tol=args.fp_tol,
        threads=args.threads,
    )
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "log.csv").write_text(log.csv_text())
        (out / "summary.txt").write_text(log.summary_text())
    except OSError as exc:
        raise ValueError(f"cannot write results to {out}: {exc}") from exc
    print(f"wrote {out / 'log.csv'} and {out / 'summary.txt'}")
    print(f"final efce gap: {log.final.eps:.12g}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "validate":
            return _cmd_validate(args, parser)
        return _cmd_run(args, parser)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
