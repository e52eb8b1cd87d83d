"""Regret minimization against trigger deviations.

The composite minimizer is a regret circuit: one counterfactual-regret
learner per trigger learns continuations on that trigger's subtree (all of
them held in one regret array), regret matching over the triggers learns the
mixture weights, and the combination yields a convex trigger deviation per
round.  Taking that deviation's fixed point turns deviation-space regret into
trigger regret over the strategy polytope, and sampling the fixed point gives
a deterministic strategy per round whose trigger regret concentrates around
the mixed one.

Utilities are fed back as rank-one functionals: a linear utility evaluated at
the image of the round's fixed point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .deviations import ConvexTriggerDeviation, fixed_point
from .regret import CallOrderError
from .strategies import sample_pure


@dataclass
class RankOneFunctional:
    """Utility on deviations: phi maps to ell . phi(q), kept in factored form."""

    player: int
    ell: np.ndarray
    q: np.ndarray

    def matrix(self):
        """Dense coefficient matrix, for tests: entry (r, c) is ell[r] * q[c]."""
        return np.outer(self.ell, self.q)


class HullMinimizer:
    """Plays convex combinations of one-trigger deviations.

    Regret matching over the non-empty sequences picks the mixture, and per
    trigger a counterfactual-regret learner on the trigger infoset's subtree
    picks the continuation.  The learners are held flat: row t - 1 of
    ``regrets`` is trigger t's, masked to its subtree, and both steps run a
    few array operations per level of the infoset forest.  Observing a
    rank-one functional updates every row with the utility scaled by the
    weight the played point put on its trigger, and feeds the mixture the
    value each pure-trigger deviation would have obtained.
    """

    def __init__(self, game, player):
        self.game = game
        self.player = player
        n = game.num_sequences(player)
        self.regrets = np.zeros((n - 1, n))
        self.mixer_regrets = np.zeros(n - 1)
        self._plan = game.player_plan(player)
        self._uniform = np.tile(self._plan.uniform, (n - 1, 1))
        self._below = game.descendant_mask(player)[1:].astype(float)
        self._local = None
        self._phi = None

    def next_element(self):
        if self._phi is not None:
            raise CallOrderError("next_element called again before observe_utility")
        n = self.game.num_sequences(self.player)
        if n == 1:
            self._phi = ConvexTriggerDeviation(self.player, [])
            return self._phi
        plan = self._plan
        pos = np.maximum(self.regrets, 0.0)
        tot = pos @ plan.infoset_sum
        local = np.divide(pos, tot, out=self._uniform.copy(), where=tot > 0.0)
        # Compose top-down; each row starts with mass 1 at its trigger's infoset.
        conts = np.zeros((n, n))
        rows = conts[1:]
        for lev in plan.levels:
            mass = rows[:, lev.parents] + plan.roots[:, lev.seqs]
            rows[:, lev.seqs] = local[:, lev.seqs] * mass
        mpos = np.maximum(self.mixer_regrets, 0.0)
        s = mpos.sum()
        lam = np.zeros(n)
        lam[1:] = mpos / s if s > 0.0 else 1.0 / (n - 1)
        self._local = local
        self._phi = ConvexTriggerDeviation.from_arrays(self.player, lam, conts)
        return self._phi

    def observe_utility(self, func):
        phi, self._phi = self._phi, None
        if phi is None:
            raise CallOrderError("observe_utility called before next_element")
        if phi.lam.size == 0:
            return
        plan = self._plan
        ell, q = func.ell, func.q
        # Counterfactual values, completed bottom-up with child infoset values.
        vals = q[1:, None] * ell * plan.subtree
        iset_vals = np.zeros_like(vals)
        for lev in reversed(plan.levels):
            here = (vals[:, lev.seqs] * self._local[:, lev.seqs]) @ lev.incidence
            iset_vals[:, lev.seqs] = here @ lev.incidence.T
            vals += here @ lev.lift
        self.regrets += (vals - iset_vals) * plan.subtree

        lq = ell * q
        follow = float(lq.sum()) - self._below @ lq
        values = follow + q[1:] * (phi.C[1:] @ ell)
        self.mixer_regrets += values - float(values @ phi.lam[1:])


class MixedTriggerMinimizer:
    """Trigger-regret minimizer emitting mixed sequence-form strategies.

    Each round plays the fixed point of the hull's deviation, so the value a
    deviation assigns to the played point equals the played point's own
    utility, and the hull's deviation-space regret transfers unchanged.
    """

    def __init__(self, game, player, fp_tol=1e-10):
        self.game = game
        self.player = player
        self.fp_tol = fp_tol
        self.hull = HullMinimizer(game, player)
        self.last_q = None
        self._awaiting = False

    def next_element(self):
        if self._awaiting:
            raise CallOrderError("next_element called again before observe_utility")
        phi = self.hull.next_element()
        self.last_q = fixed_point(self.game, phi, self.fp_tol)
        self._awaiting = True
        return self.last_q

    def observe_utility(self, util):
        if not self._awaiting:
            raise CallOrderError("observe_utility called before next_element")
        coeffs = np.asarray(getattr(util, "coefficients", util), dtype=float)
        self.hull.observe_utility(
            RankOneFunctional(self.player, coeffs, self.last_q.values)
        )
        self._awaiting = False


class PureTriggerMinimizer:
    """Mixed trigger minimizer plus per-round sampling of a pure strategy."""

    def __init__(self, game, player, rng, fp_tol=1e-10):
        self.game = game
        self.player = player
        self.rng = rng
        self.mixed = MixedTriggerMinimizer(game, player, fp_tol)
        self.last_mixed = None
        self.last_pure = None

    def next_element(self):
        self.last_mixed = self.mixed.next_element()
        self.last_pure = sample_pure(self.game, self.last_mixed, self.rng)
        return self.last_pure

    def observe_utility(self, util):
        self.mixed.observe_utility(util)


def best_values(plan, vals, trigger_values=None):
    """Complete a rows x sequences value matrix bottom-up over the infoset forest.

    One pass over ``plan.levels``, deepest first: each level's infosets take
    the best of their sequences' completed values, and add it to their
    parent sequences.  Entry (r, s) of the result is then row r's value of
    s plus the best deterministic continuation below s.  When the rows are
    indexed by sequence (one row per sequence, as in the meter's tables),
    ``trigger_values[s]`` receives row s's best value at the infoset of s.
    """
    completed = vals.copy()
    for lev in reversed(plan.levels):
        best = np.maximum.reduceat(completed.take(lev.seqs, axis=1), lev.starts, axis=1)
        if trigger_values is not None:
            trigger_values[lev.seqs] = best.take(lev.own)
        completed += best.dot(lev.lift)
    return completed


class PhiRegretMeter:
    """Running trigger regret of an observed play sequence.

    Accumulates, per trigger, the utility mass at or below the trigger under
    the played points (``follow``) and the utility vectors scaled by the
    played trigger weight, masked to the trigger's subtree (row s of
    ``tables``, row 0 unused).  The regret against the best fixed one-trigger
    deviation is then a max over triggers of (best continuation value -
    follow value), the best values coming from one :func:`best_values` pass
    that is kept until the next :meth:`record`.
    """

    def __init__(self, game, player):
        self.game = game
        self.player = player
        n = game.num_sequences(player)
        self.tables = np.zeros((n, n))
        self.follow = np.zeros(n)
        self.rounds = 0
        self._plan = game.player_plan(player)
        self._below = game.descendant_mask(player).astype(float)
        self._pass = None

    def record(self, ell, played):
        ell = np.asarray(ell, dtype=float)
        played = np.asarray(played, dtype=float)
        self.follow += self._below.dot(ell * played)
        self.tables[1:] += played[1:, None] * ell * self._plan.subtree
        self.rounds += 1
        self._pass = None

    def best_pass(self):
        """(best continuation value per trigger, completed tables), cached."""
        if self._pass is None:
            values = np.zeros(self.tables.shape[0])
            completed = best_values(self._plan, self.tables, values)
            self._pass = (values, completed)
        return self._pass

    def regret(self):
        """Cumulative regret against the best fixed one-trigger deviation."""
        if self.tables.shape[0] == 1:
            return 0.0
        values, _ = self.best_pass()
        return float((values[1:] - self.follow[1:]).max())


def split_rngs(seed, n):
    """Independent deterministic random streams, one per player."""
    return [random.Random(f"{seed}/player{i}") for i in range(n)]
