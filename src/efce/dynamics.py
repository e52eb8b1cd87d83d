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

import numpy as np

from .game import EMPTY_SEQ
from .strategies import SequenceFormStrategy, utility_vector
from .trigger import PhiRegretMeter, PureTriggerMinimizer, _complete, split_rngs

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
    a group learner takes them in.  Games with at most 200 joint
    deterministic profiles also keep the raw samples: ``profiles`` holds one
    ``[values, count]`` entry per distinct joint profile.
    """

    def __init__(self, game):
        self.game = game
        self.t = 0
        self.meter = PhiRegretMeter(game, tuple(range(game.n_players)))
        # (player, root, shape) of each entry of a valid profile
        self._profile_form = [(i, None, (b - a,)) for i, a, b in self.meter.plan.spans]
        self.utility = None
        small = game.joint_profile_count() <= _PROFILE_KEEP_LIMIT
        self.profiles: list[list] | None = [] if small else None
        self._profile_index: dict[bytes, list] = {}

    @property
    def tables(self):
        tables = self.meter.tables
        return [tables[a:b, a:b] for _, a, b in self.meter.plan.spans]

    @property
    def follow(self):
        return [self.meter.follow[a:b] for _, a, b in self.meter.plan.spans]

    def accumulate(self, profile):
        """Fold one joint profile into the summary; return each player's utility vector.

        ``profile`` holds one full-tree strategy per player, in player order;
        any other profile raises ValueError and leaves the summary unchanged.
        """
        game = self.game
        if [(p.player, p.root, p.values.shape) for p in profile] != self._profile_form:
            raise ValueError("profile must hold one full-tree strategy per player, "
                             "in player order")
        self.t += 1
        if self.profiles is not None:
            key = b"".join(p.values.tobytes() for p in profile)
            entry = self._profile_index.get(key)
            if entry is None:
                entry = [[p.values.copy() for p in profile], 0]
                self._profile_index[key] = entry
                self.profiles.append(entry)
            entry[1] += 1
        utils = [utility_vector(game, i, profile) for i in range(game.n_players)]
        self.utility = np.concatenate([u.coefficients for u in utils])
        self.meter.record(self.utility, np.concatenate([p.values for p in profile]))
        return utils


@dataclass
class GapReport:
    """Trigger gap of an empirical distribution.

    ``per_player[i]`` is the best gain per round player i could get from a
    single trigger deviation; ``eps`` is the maximum over players.
    ``trigger_gaps[i][s]`` breaks the gain down per trigger sequence (minus
    infinity at the empty sequence).  ``witnesses[i]`` is the player's best
    (trigger, continuation) pair, and ``argmax`` names the player and trigger
    achieving ``eps``.
    """

    per_player: list[float]
    eps: float
    trigger_gaps: list[np.ndarray]
    witnesses: list[tuple[int, SequenceFormStrategy] | None]
    argmax: tuple[int, int] | None


def _walk_best(game, player, completed, root, values):
    """Mark the first best action of each infoset of the scope that the vertex reaches."""
    for gid in game.scope_infosets(player, root):
        js = game.infosets[gid]
        if gid == root or values[js.parent_seq] != 0.0:
            values[max(js.seq_ids, key=completed.__getitem__)] = 1.0


def subtree_best_response(game, player, coeffs, root=None):
    """Best deterministic strategy against a coefficient vector.

    Runs the bottom-up dynamic program over the infoset forest (or the
    subtree of ``root``), breaking ties toward the lowest action index, and
    returns the optimal value together with an optimal vertex.
    """
    plan = game.player_plan(player)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != plan.rank.shape or not np.isfinite(coeffs).all():
        raise ValueError(f"coefficients must be {plan.rank.size} finite numbers")
    completed = coeffs.take(plan.order)[:, None]
    _complete(plan, completed)
    completed = completed[plan.rank, 0]
    values = np.zeros(game.num_sequences(player))
    if root is None:
        values[EMPTY_SEQ] = 1.0
    _walk_best(game, player, completed, root, values)
    top = [EMPTY_SEQ] if root is None else list(game.infosets[root].seq_ids)
    return float(completed[top].max()), SequenceFormStrategy(player, values, root)


def efce_gap(freq):
    """Trigger gap of the accumulated empirical distribution.

    Reads the meter's cached pass: the gap of trigger s is (best
    continuation value - follow value) / t, and the witness continuation is
    read top-down off the completed table column of the player's worst
    trigger.
    """
    game = freq.game
    if freq.t == 0:
        raise ValueError("no profiles accumulated yet")
    meter = freq.meter
    best, completed = meter.best_pass()
    gaps = (best - meter.follow) / freq.t
    gaps[meter.plan.offsets] = -np.inf
    per_player = []
    trigger_gaps = []
    witnesses = []
    for i, a, b in meter.plan.spans:
        own = gaps[a:b]
        witness = None
        eps_i = 0.0
        if b - a > 1:
            # The witness needs the argmax, so it also gives the player's gap.
            sid = int(own.argmax())
            eps_i = float(own[sid])
            gid = int(game.seq_infoset(i)[sid])
            vertex = np.zeros(b - a)
            _walk_best(game, i, completed[:, a + sid][meter.plan.rank[a:b]], gid, vertex)
            witness = (sid, SequenceFormStrategy(i, vertex, gid))
        per_player.append(eps_i)
        trigger_gaps.append(own)
        witnesses.append(witness)
    eps = max(per_player)
    top = per_player.index(eps)
    argmax = (top, witnesses[top][0]) if witnesses[top] is not None else None
    return GapReport(per_player, eps, trigger_gaps, witnesses, argmax)


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
    return GapReport(per_player, float(eps), trigger_gaps,
                     [None] * game.n_players, None)


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

    Each message starts with the argument's command-line name.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if gap_every < 1:
        raise ValueError("gap-every must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if not 0.0 < fp_tol < math.inf:
        raise ValueError("fp-tol must be positive and finite")


def run(game, iterations, seed, gap_every=100, delta=0.01, fp_tol=1e-10):
    """Run uncoupled self-play for a number of rounds and log its progress.

    Every player independently runs the pure trigger-regret minimizer, with
    per-player random streams split deterministically from ``seed``; the
    players' minimizers advance together as one group learner.  The
    trigger gap of the empirical play distribution is evaluated every
    ``gap_every`` rounds and at the end; ``delta`` sets the confidence level
    of the logged high-probability gap bound.
    """
    check_run_args(iterations, gap_every, delta, fp_tol)

    n = game.n_players
    learner = PureTriggerMinimizer(game, tuple(range(n)), split_rngs(seed, n), fp_tol)
    freq = EmpiricalFrequency(game)
    checkpoints = set(range(gap_every, iterations + 1, gap_every))
    checkpoints.add(iterations)

    d_max = max(game.payoff_range(i) for i in range(n))
    gap_factor = d_max * (2.0 * game.n_nodes + math.sqrt(8.0 * math.log(n / delta)))
    regret_factor = [2.0 * game.payoff_range(i) * game.num_sequences(i)
                     for i in range(n)]

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
        if t in checkpoints:
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
