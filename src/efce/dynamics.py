"""Self-play dynamics, empirical play frequencies, and the equilibrium gap.

All players run the pure trigger-regret minimizer in uncoupled self-play.
The empirical distribution of the sampled joint strategies is summarized by
per-trigger tables, held for all players by one regret meter; the trigger
gap of that distribution (how much any player could gain by committing to a
single trigger deviation in hindsight) is each player's metered regret over
the rounds, and doubles as the distance from correlated-equilibrium
behavior.

For small games the distinct sampled profiles are kept with their counts
so an exhaustive checker can enumerate every deviation directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .deviations import _check_tol
from .game import EMPTY_SEQ
from .strategies import (SequenceFormStrategy, UtilityVector, _check_finite, _check_shape,
                         _joint, _score)
from .trigger import PhiRegretMeter, PureTriggerMinimizer, _complete, _Memo, split_rngs

_PROFILE_KEEP_LIMIT = 200


class EmpiricalFrequency:
    """Running summary of a sequence of sampled deterministic profiles.

    Holds one :class:`PhiRegretMeter` for all players (``meter``), fed the
    players' utility vectors and played points each round.  For every
    non-empty sequence s, ``tables[i][s]`` holds the summed utility
    coefficient vectors of the rounds in which player i actually played s,
    restricted to the subtree of s's infoset, and ``follow[i][s]`` the summed
    realized utility mass at or below s.  ``tables`` is built from the
    meter's state on each access; ``follow[i]`` is a view of player i's
    block of the meter's joint array.  ``utility`` holds the last profile's
    utility vectors concatenated in the order of the meter's plan, the form
    a group learner takes them in; it is read-only.

    A round's utility and meter increments are a function of the joint
    profile alone, so each distinct profile is scored once: a store keyed
    by the joint point's bytes keeps them, and a repeat adds the kept
    arrays again.  The store holds at most ``efce.trigger._MEMO_BYTES`` (4
    MiB) of keys and arrays; past that it takes no new profile, and one it
    lacks is scored afresh each time it is played.  Games with at most 200
    joint deterministic profiles also keep the raw samples, in the same
    store and past its budget: ``profiles`` lists one ``[values, count]``
    entry per distinct joint profile, in the order first played, ``values``
    holding read-only per-player arrays.  Other games' ``profiles`` is None.
    """

    def __init__(self, game):
        self.game = game
        self.t = 0
        self.meter = PhiRegretMeter(game, tuple(range(game.n_players)))
        self._spans = [(span, game.payoff_range(span[0])) for span in self.meter.plan.spans]
        self.utility = None
        self._small = game.joint_profile_count() <= _PROFILE_KEEP_LIMIT
        # Per joint point's bytes: [(utility, follow, tables), times played]; a
        # small game's profile past the budget keeps None for the three arrays.
        self._store = _Memo()

    @property
    def profiles(self):
        if not self._small:
            return None
        return [[[np.frombuffer(key)[a:b] for (_, a, b), _ in self._spans], count]
                for key, (_, count) in self._store.items()]

    @property
    def tables(self):
        tables = self.meter.tables
        return [tables[a:b, a:b] for _, a, b in self.meter.plan.spans]

    @property
    def follow(self):
        return [self.meter.follow[a:b] for _, a, b in self.meter.plan.spans]

    def accumulate(self, profile):
        """Fold one joint profile into the summary; return each player's utility vector.

        ``profile`` holds one full-tree strategy per player, in player order,
        with values within 1e-9 of [0, 1]; any other profile, or one whose
        utility overflows, raises ValueError and leaves the summary unchanged.
        Each vector's coefficients are a read-only view of its player's block
        of ``utility``, which the store may hand out again on a repeat.
        """
        played = _joint(self.game, profile)
        key = played.tobytes()
        entry = self._store.get(key)
        score = None if entry is None else entry[0]
        if score is None:
            utility = _score(self.game, played)
            _check_finite(utility, "utility")
            utility.flags.writeable = False
            follow, tables = self.meter._increments(utility, played)
            score = utility, follow, tables
            if entry is None:
                entry = [score, 0]
                nbytes = played.nbytes + utility.nbytes + follow.nbytes + tables.nbytes
                if not self._store.keep(key, entry, nbytes) and self._small:
                    self._store[key] = entry = [None, 0]
        utility, follow, tables = score
        self.meter._add(follow, tables)
        self.t += 1
        self.utility = utility
        entry[1] += 1
        return [UtilityVector(i, utility[a:b], r) for (i, a, b), r in self._spans]


@dataclass
class GapReport:
    """Trigger gap of an empirical distribution.

    ``per_player[i]`` is the best gain per round player i could get from a
    single trigger deviation; ``eps`` is the maximum over players.
    ``trigger_gaps[i][s]`` breaks the gain down per trigger sequence (minus
    infinity at the empty sequence).  ``witnesses[i]`` is the player's best
    (trigger, continuation) pair, None for a player without triggers, and
    ``argmax`` names the player and trigger achieving ``eps``.  Both are
    built on first read, from the completed tables of the pass the gaps
    came from (``source``: the game, its plan and those tables), so a
    report read later still gives the witnesses of its own round.  A report
    without a source, such as :func:`efce_gap_brute`'s, has no witnesses.
    """

    per_player: list[float]
    eps: float
    trigger_gaps: list[np.ndarray]
    source: tuple | None = field(default=None, repr=False)
    _witnesses: list | None = field(default=None, init=False, repr=False)

    @property
    def witnesses(self) -> list[tuple[int, SequenceFormStrategy] | None]:
        if self._witnesses is None:
            witnesses = [None] * len(self.per_player)
            if self.source is not None:
                game, plan, completed = self.source
                for (i, a, b), own in zip(plan.spans, self.trigger_gaps):
                    if b - a > 1:
                        sid = int(own.argmax())
                        gid = int(game.seq_infoset(i)[sid])
                        vertex = np.zeros(b - a)
                        mine = plan.pair_trigger == a + sid
                        column = dict(zip((plan.pair_seq[mine] - a).tolist(),
                                          completed[mine].tolist()))
                        _walk_best(game, i, column, gid, vertex)
                        witnesses[i] = (sid, SequenceFormStrategy(i, vertex, gid))
            self._witnesses = witnesses
        return self._witnesses

    @property
    def argmax(self) -> tuple[int, int] | None:
        top = self.per_player.index(self.eps)
        witness = self.witnesses[top]
        return None if witness is None else (top, witness[0])


def _walk_best(game, player, completed, root, values):
    """Mark the first best action, by ``completed[s]``, of each scope infoset the vertex reaches."""
    for gid in game.scope_infosets(player, root):
        js = game.infosets[gid]
        if gid == root or values[js.parent_seq] != 0.0:
            values[max(js.seq_ids, key=completed.__getitem__)] = 1.0


def subtree_best_response(game, player, coeffs, root=None):
    """Best deterministic strategy against a coefficient vector.

    Runs the bottom-up dynamic program over the infoset forest (or the
    subtree of ``root``), breaking ties toward the lowest action index, and
    returns the optimal value, the vertex's, together with an optimal vertex.
    """
    plan = game.player_plan(player)
    coeffs = _check_shape(np.asarray(coeffs, dtype=float), plan.owner.size, "coefficients")
    _check_finite(coeffs, "coefficients")
    # Every pair holds its sequence's coefficient, so pair (s, s) completes s.
    completed = coeffs.take(plan.pair_seq)
    _complete(plan, completed)
    values = np.zeros(game.num_sequences(player))
    if root is None:
        values[EMPTY_SEQ] = 1.0
    _walk_best(game, player, np.append(completed, 0.0).take(plan.own), root, values)
    return float(coeffs @ values), SequenceFormStrategy(player, values, root)


def efce_gap(freq):
    """Trigger gap of the accumulated empirical distribution.

    The meter's cached pass (:meth:`~efce.trigger.PhiRegretMeter.best_pass`)
    over the t rounds: each trigger's regret / t, and each player's largest
    / t, the logged regret's own rule.  The report keeps the pass's completed
    tables, off which it reads the witness continuation of each player's
    worst trigger top-down when first asked.
    """
    t = freq.t
    if t == 0:
        raise ValueError("no profiles accumulated yet")
    plan = freq.meter.plan
    regrets, largest, completed = freq.meter.best_pass()
    gaps = regrets / t
    per_player = [x / t for x in largest]
    trigger_gaps = [gaps[a:b] for _, a, b in plan.spans]
    return GapReport(per_player, max(per_player), trigger_gaps, (freq.game, plan, completed))


def efce_gap_brute(freq):
    """Exhaustive gap evaluation from the raw sample multiset.

    Enumerates every pure continuation at every trigger and evaluates the
    defining inequalities of the equilibrium directly on the stored samples,
    each weighted by how often it was played, walking terminals.  Only
    available when the game was small enough for the frequency object to
    keep its samples.
    """
    from .strategies import enumerate_pure

    game = freq.game
    if freq.profiles is None:
        raise ValueError("raw samples were not kept for this game")
    if freq.t == 0:
        raise ValueError("no profiles accumulated yet")
    per_player = []
    trigger_gaps = []
    for i in range(game.n_players):
        n = game.num_sequences(i)
        desc = game.descendant_mask(i)
        gaps = np.full(n, -np.inf)
        for sid in range(1, n):
            gid = int(game.seq_infoset(i)[sid])
            term_i = game.term_seq[:, i]
            below_trigger = desc[sid][term_i]
            below_iset = game.subtree_seq_mask(gid)[term_i]
            follow = 0.0
            triggered_alpha = np.zeros(game.n_terminals)
            for sample, count in freq.profiles:
                others = count * game.term_chance
                for j in range(game.n_players):
                    if j != i:
                        others *= sample[j][game.term_seq[:, j]]
                alpha = game.term_payoffs[:, i] * others
                follow += float((alpha * sample[i][term_i])[below_trigger].sum())
                triggered_alpha += sample[i][sid] * alpha
            best = None
            for cand in enumerate_pure(game, i, root=gid):
                val = float((triggered_alpha * cand.values[term_i])[below_iset].sum())
                if best is None or val > best:
                    best = val
            gaps[sid] = (best - follow) / freq.t
        per_player.append(float(gaps[1:].max()) if n > 1 else 0.0)
        trigger_gaps.append(gaps)
    eps = max(per_player)
    return GapReport(per_player, float(eps), trigger_gaps)


@dataclass
class RunLog:
    """Complete record of one self-play run.

    ``rows`` holds one entry per iteration per player: (t, player number,
    measured trigger regret, regret bound, gap, gap bound), with the gap
    fields None except at checkpoints.  ``final`` is the gap report at the
    last iteration.
    """

    game_name: str
    iterations: int
    seed: int
    gap_every: int
    delta: float
    meta: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    final: GapReport | None = None

    CSV_HEADER = "t,player,phi_regret,phi_regret_bound,efce_gap,gap_bound"

    def csv_text(self):
        def fmt(x):
            return "" if x is None else f"{x:.12g}"

        lines = [self.CSV_HEADER]
        for t, player, regret, bound, gap, gap_bound in self.rows:
            lines.append(
                f"{t},{player},{fmt(regret)},{fmt(bound)},{fmt(gap)},{fmt(gap_bound)}"
            )
        return "\n".join(lines) + "\n"

    def summary_text(self):
        n = len(self.meta["sequence_counts"])
        out = [
            f"game: {self.game_name}",
            f"players: {n}",
            f"iterations: {self.iterations}",
            f"seed: {self.seed}",
            f"gap-every: {self.gap_every}",
            f"delta: {self.delta:.12g}",
            f"nodes: {self.meta['nodes']}",
            f"final efce gap: {self.final.eps:.12g}",
            f"final gap bound: {self.meta['final_gap_bound']:.12g}",
            "gap bound satisfied: "
            + ("yes" if self.final.eps <= self.meta["final_gap_bound"] else "no"),
        ]
        for i in range(n):
            regret = self.meta["final_regrets"][i]
            bound = self.meta["final_regret_bounds"][i]
            out.append(
                f"player {i + 1}: sequences={self.meta['sequence_counts'][i]} "
                f"payoff-range={self.meta['payoff_ranges'][i]:.12g} "
                f"final-phi-regret={regret:.12g} regret-bound={bound:.12g} "
                f"regret-bound-satisfied={'yes' if regret <= bound else 'no'} "
                f"final-gap={self.final.per_player[i]:.12g}"
            )
        return "\n".join(out) + "\n"


def check_run_args(iterations, gap_every, delta, fp_tol):
    """Raise ValueError unless the arguments of :func:`run` are valid.

    Each message starts with the argument's command-line name.  A bool is
    not a round count.
    """
    for value, name in ((iterations, "iterations"), (gap_every, "gap-every")):
        if type(value) is bool or not (isinstance(value, Integral) and value >= 1):
            raise ValueError(f"{name} must be an integer of at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    _check_tol(fp_tol, "fp-tol")


def run(game, iterations, seed, gap_every=100, delta=0.01, fp_tol=1e-10):
    """Run uncoupled self-play for a number of rounds and log its progress.

    Every player independently runs the pure trigger-regret minimizer, with
    per-player random streams split deterministically from ``seed``; the
    players' minimizers advance together as one group learner.  The
    trigger gap of the empirical play distribution is evaluated every
    ``gap_every`` rounds and at the end; ``delta`` sets the confidence level
    of the logged high-probability gap bound.  Raises ValueError when the
    payoffs are so large that a logged bound, or a regret sum over
    ``iterations`` rounds, would overflow.
    """
    check_run_args(iterations, gap_every, delta, fp_tol)

    n = game.n_players
    d_max = max(game.payoff_range(i) for i in range(n))
    gap_factor = d_max * (2.0 * game.n_nodes + math.sqrt(8.0 * math.log(n / delta)))
    regret_factor = [2.0 * game.payoff_range(i) * game.num_sequences(i)
                     for i in range(n)]
    # Every regret sum adds at most iterations x |payoff| per sequence: fail
    # here rather than log inf and nan bounds.
    scale = np.abs(game.term_payoffs).max(axis=0, initial=0.0).tolist()
    for i in range(n):
        if not (math.isfinite(gap_factor) and math.isfinite(regret_factor[i])
                and math.isfinite(iterations * scale[i] * game.num_sequences(i))):
            raise ValueError(f"payoffs of player {i + 1} are too large: the regret sums "
                             f"or bounds of {iterations} rounds overflow")

    learner = PureTriggerMinimizer(game, tuple(range(n)), split_rngs(seed, n), fp_tol)
    freq = EmpiricalFrequency(game)

    log = RunLog(
        game_name=game.name,
        iterations=iterations,
        seed=seed,
        gap_every=gap_every,
        delta=delta,
        meta={
            "nodes": game.n_nodes,
            "sequence_counts": [game.num_sequences(i) for i in range(n)],
            "payoff_ranges": [game.payoff_range(i) for i in range(n)],
        },
    )

    report = None
    for t in range(1, iterations + 1):
        freq.accumulate(learner.next_element())
        learner.observe_utility(freq.utility)

        gaps = None
        gap_bound = None
        if t % gap_every == 0 or t == iterations:
            report = efce_gap(freq)
            gaps = report.per_player
            gap_bound = gap_factor / math.sqrt(t)
        sqrt_t = math.sqrt(t)
        for i, regret in enumerate(freq.meter.regret()):
            log.rows.append((
                t, i + 1, regret, regret_factor[i] * sqrt_t,
                None if gaps is None else gaps[i], gap_bound,
            ))

    log.final = report
    log.meta["final_gap_bound"] = gap_factor / math.sqrt(iterations)
    log.meta["final_regrets"] = freq.meter.regret()
    log.meta["final_regret_bounds"] = [
        regret_factor[i] * math.sqrt(iterations) for i in range(n)
    ]
    return log
