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
from numbers import Integral

import numpy as np

from .deviations import ConvexTriggerDeviation, fixed_point
from .regret import CallOrderError
from .strategies import SequenceFormStrategy, sample_pure


def _check_round(n, ell, x, name):
    """Raise ValueError unless the utility ``ell`` and the point ``x`` are finite n-vectors."""
    if ell.shape != (n,) or x.shape != (n,):
        raise ValueError(f"utility and {name} have shapes {ell.shape} and {x.shape}, "
                         f"expected ({n},)")
    # On vectors this short, count_nonzero costs about half of what .all() does.
    if np.count_nonzero(np.isfinite(ell)) + np.count_nonzero(np.isfinite(x)) != 2 * n:
        raise ValueError(f"utility or {name} has a non-finite entry")


class HullMinimizer:
    """Plays convex combinations of one-trigger deviations.

    Regret matching over the non-empty sequences picks the mixture, and per
    trigger a counterfactual-regret learner on the trigger infoset's subtree
    picks the continuation.  The learners are held flat: row t of
    ``regrets`` is trigger t's, masked to its subtree (the rows of empty
    sequences stay zero), and both steps run a few array operations per
    level of the infoset forest, on sequences x triggers arrays in the
    plan's level layout.  Observing a rank-one functional updates every row
    with the utility scaled by the weight the played point put on its
    trigger, and feeds the mixture the value each pure-trigger deviation
    would have obtained.

    ``player`` is one player, or a tuple of players whose minimizers
    advance together on the index of their :class:`~efce.game.PlayerPlan`.
    The players share no entry, so each one's iterates are those of its
    own one-player minimizer.
    """

    def __init__(self, game, player):
        self.game = game
        self.player = player
        self.plan = plan = game.player_plan(player)
        n = plan.rank.size
        # Level layout: entry (j, t) belongs to sequence plan.order[j] and trigger t.
        self._regrets = np.zeros((n, n))
        # Entry t is trigger t's; the entries of empty sequences stay zero.
        self.mixer_regrets = np.zeros(n)
        # The uniform mixture: 1 / (number of triggers) on each player's triggers.
        triggers = plan.sizes - 1
        self._even = np.divide(1.0, triggers, out=np.zeros(triggers.size),
                               where=triggers > 0)[plan.owner]
        self._even[plan.offsets] = 0.0
        self._local = None
        self._phi = None

    @property
    def regrets(self):
        """Triggers x sequences regrets, row t trigger t's (a copy)."""
        return self._regrets[self.plan.rank].T

    def next_element(self):
        if self._phi is not None:
            raise CallOrderError("next_element called again before observe_utility")
        plan = self.plan
        n = plan.rank.size
        pos = np.maximum(self._regrets, 0.0)
        local = plan.level_uniform.copy()
        # Compose top-down: a sequence's mass is its parent's, plus 1 at the
        # trigger's own infoset, times its local probability.
        conts = plan.level_own.copy()
        for lev in plan.levels:
            for start, sids, _ in lev.blocks:
                k, m = sids.shape
                rows = slice(lev.lo + start, lev.lo + start + k * m)
                here = pos[rows].reshape(k, m, n)
                tot = here.sum(axis=1, keepdims=True)
                np.divide(here, tot, out=local[rows].reshape(k, m, n), where=tot > 0.0)
            here = conts[lev.lo:lev.hi]
            here += conts.take(lev.parent_rows, axis=0)
            here *= local[lev.lo:lev.hi]
        mpos = np.maximum(self.mixer_regrets, 0.0)
        s = np.add.reduceat(mpos, plan.offsets).take(plan.owner)
        lam = np.divide(mpos, s, out=self._even.copy(), where=s > 0.0)
        self._local = local
        self._phi = ConvexTriggerDeviation.from_arrays(
            self.player, lam, conts.take(plan.rank, axis=0).T, plan.offsets)
        return self._phi

    def observe_utility(self, ell, q):
        """Observe the rank-one utility ell ⊗ q: a deviation phi earns ell . phi(q).

        ``ell`` is the utility vector over the player's sequences and ``q``
        the point the round's deviation was applied to.  Both must be
        finite; a bad pair raises ValueError and leaves the round open.
        """
        if self._phi is None:
            raise CallOrderError("observe_utility called before next_element")
        plan = self.plan
        ell = np.asarray(ell, dtype=float)
        q = np.asarray(q, dtype=float)
        _check_round(plan.rank.size, ell, q, "point")
        phi, self._phi = self._phi, None
        # Counterfactual values, completed bottom-up with child infoset values.
        vals = np.multiply.outer(ell.take(plan.order), q)
        vals *= plan.level_subtree
        vals -= _complete(plan, vals, self._local)
        vals *= plan.level_subtree
        self._regrets += vals

        lq = ell * q
        values = np.add.reduceat(lq, plan.offsets).take(plan.owner) - plan.below @ lq
        values += q * (phi.C @ ell)
        values -= np.add.reduceat(values * phi.lam, plan.offsets).take(plan.owner)
        values[plan.offsets] = 0.0
        self.mixer_regrets += values


class MixedTriggerMinimizer:
    """Trigger-regret minimizer emitting mixed sequence-form strategies.

    Each round plays the fixed point of the hull's deviation, so the value a
    deviation assigns to the played point equals the played point's own
    utility, and the hull's deviation-space regret transfers unchanged.
    The hull enforces that next and observe calls alternate.

    For one player, :meth:`next_element` returns a strategy and
    :meth:`observe_utility` takes one utility vector.  For a tuple of
    players, :meth:`next_element` returns a list of per-player strategies,
    views of the joint fixed point, and :meth:`observe_utility` takes the
    players' utility vectors concatenated in the order of the group's plan
    (as :attr:`efce.dynamics.EmpiricalFrequency.utility` holds them).
    ``last_mixed`` is what :meth:`next_element` last returned.
    """

    def __init__(self, game, player, fp_tol=1e-10):
        self.game = game
        self.player = player
        self.fp_tol = fp_tol
        self.hull = HullMinimizer(game, player)
        self.last_mixed = None
        self._point = None

    def next_element(self):
        point = fixed_point(self.game, self.hull.next_element(), self.fp_tol)
        self._point = getattr(point, "values", point)
        self.last_mixed = point if isinstance(self.player, Integral) else [
            SequenceFormStrategy(p, point[a:b], None) for p, a, b in self.hull.plan.spans]
        return self.last_mixed

    def observe_utility(self, util):
        # Before the first round there is no point; the hull raises CallOrderError.
        self.hull.observe_utility(getattr(util, "coefficients", util), self._point)


class PureTriggerMinimizer(MixedTriggerMinimizer):
    """Mixed trigger minimizer plus per-round sampling of a pure strategy.

    ``rng`` is one random stream, or one per player of a tuple ``player``;
    each player's pure strategy is drawn from its own stream, in player order.
    """

    def __init__(self, game, player, rng, fp_tol=1e-10):
        super().__init__(game, player, fp_tol)
        self.rng = rng
        self.last_pure = None

    def next_element(self):
        mixed = super().next_element()
        if isinstance(self.player, Integral):
            self.last_pure = sample_pure(self.game, mixed, self.rng)
        else:
            self.last_pure = [sample_pure(self.game, m, rng) for m, rng in zip(mixed, self.rng)]
        return self.last_pure


def _complete(plan, vals, local=None):
    """Complete a level-layout array bottom-up in place; return its infoset values.

    One pass over ``plan.levels``, deepest first: each level's infosets take
    the max of their sequences' completed entries, or with ``local`` (local
    strategies in the same layout) their mean under it, and add it to their
    parent sequences' rows.  Row j of the returned array holds, per column,
    the value of the infoset of sequence ``plan.order[j]``; the rows of the
    empty sequences are zero.
    """
    cols = vals.shape[1]
    iset = np.zeros(vals.shape)
    for lev in reversed(plan.levels):
        here = np.empty((lev.up_rel.size, cols))
        k0 = 0
        for start, sids, _ in lev.blocks:
            k, m = sids.shape
            rows = slice(lev.lo + start, lev.lo + start + k * m)
            out = here[k0:k0 + k]
            if local is None:
                vals[rows].reshape(k, m, cols).max(axis=1, out=out)
            else:
                (vals[rows] * local[rows]).reshape(k, m, cols).sum(axis=1, out=out)
            iset[rows].reshape(k, m, cols)[...] = out[:, None]
            k0 += k
        lev.lift(vals, here)
    return iset


class PhiRegretMeter:
    """Running trigger regret of an observed play sequence.

    Accumulates, per trigger, the utility mass at or below the trigger under
    the played points (``follow``) and the utility vectors scaled by the
    played trigger weight, masked to the trigger's subtree (held in the
    plan's level layout; ``tables`` is a triggers x sequences copy whose
    rows of empty sequences are zero).  The regret against the best fixed
    one-trigger deviation is then a max over triggers of (best continuation
    value - follow value), the best values coming from one bottom-up pass
    that is kept until the next :meth:`record`.

    ``player`` is one player, or a tuple of players metered together on the
    index of their :class:`~efce.game.PlayerPlan`; ``record`` then takes the
    players' vectors concatenated in that order.
    """

    def __init__(self, game, player):
        self.game = game
        self.player = player
        self.plan = plan = game.player_plan(player)
        n = plan.rank.size
        self._tables = np.zeros((n, n))
        self.follow = np.zeros(n)
        self._pass = None

    @property
    def tables(self):
        """Triggers x sequences tables, row t trigger t's (a copy)."""
        return self._tables[self.plan.rank].T

    def record(self, ell, played):
        """Add one round: the utility vector and the played point, both finite."""
        ell = np.asarray(ell, dtype=float)
        played = np.asarray(played, dtype=float)
        _check_round(self.follow.size, ell, played, "played point")
        self.follow += self.plan.below.dot(ell * played)
        update = np.multiply.outer(ell.take(self.plan.order), played)
        update *= self.plan.level_subtree
        self._tables += update
        self._pass = None

    def best_pass(self):
        """(best continuation value per trigger, completed tables in level layout), cached."""
        if self._pass is None:
            completed = self._tables.copy()
            iset = _complete(self.plan, completed)
            self._pass = (iset[self.plan.rank, np.arange(completed.shape[1])], completed)
        return self._pass

    def regret(self):
        """Cumulative regret against the best fixed one-trigger deviation.

        A float for one player; for a tuple of players, a list with one
        float per player.  A player without triggers has regret 0.
        """
        plan = self.plan
        values, _ = self.best_pass()
        gaps = values - self.follow
        gaps[plan.offsets] = -np.inf
        out = np.maximum.reduceat(gaps, plan.offsets)
        out[plan.sizes == 1] = 0.0
        return float(out[0]) if isinstance(self.player, Integral) else out.tolist()


def split_rngs(seed, n):
    """Independent deterministic random streams, one per player."""
    return [random.Random(f"{seed}/player{i}") for i in range(n)]
