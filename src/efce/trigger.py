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

from .deviations import ConvexTriggerDeviation, _check_tol, fixed_point
from .regret import CallOrderError
from .strategies import SequenceFormStrategy, _check_shape, sample_pure

_ZERO = np.zeros(1)

# The bytes each memo may hold: a frequency's store of scored profiles, or a
# hull's increments under its current deviation.  Past it a memo takes no new
# entry, and each round it misses is computed afresh.
_MEMO_BYTES = 1 << 22


class _Memo(dict):
    """A dict of a round's kept results by byte key, its entries' bytes counted in ``nbytes``."""

    nbytes = 0

    def keep(self, key, value, nbytes):
        """Hold ``value`` under ``key`` and return True, unless ``nbytes`` more would pass
        ``_MEMO_BYTES``; then return False."""
        if self.nbytes + nbytes > _MEMO_BYTES:
            return False
        self[key] = value
        self.nbytes += nbytes
        return True


def _check_round(n, ell, x, name):
    """Raise ValueError unless ``ell`` is a finite n-vector and ``x`` one within 1e-9 of [0, 1]."""
    _check_shape(ell, n, "utility")
    _check_shape(x, n, name)
    # On vectors this short, count_nonzero costs about half of what .all() does.
    # NaN and inf fail the range test; it runs before any product can overflow.
    if (np.count_nonzero(np.isfinite(ell))
            + np.count_nonzero(np.abs(x - 0.5) <= 0.5 + 1e-9) != 2 * n):
        raise ValueError(f"utility has a non-finite entry or {name} an entry outside [0, 1]")


class HullMinimizer:
    """Plays convex combinations of one-trigger deviations.

    Regret matching over the non-empty sequences picks the mixture, and per
    trigger a counterfactual-regret learner on the trigger infoset's subtree
    picks the continuation.  The learners are held flat, in the plan's pair
    layout (see :class:`~efce.game.PlayerPlan`): one regret per (trigger,
    sequence) pair, and both steps run a few array operations per level of
    the infoset forest.  Observing a rank-one functional updates every
    pair with the utility scaled by the weight the played point put on its
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
        self._regrets = np.zeros(plan.pair_seq.size)
        # Entry t is trigger t's; the entries of empty sequences stay zero.
        self.mixer_regrets = np.zeros(plan.owner.size)
        # The uniform mixture: 1 / (number of triggers) on each player's triggers.
        triggers = plan.sizes - 1
        self._even = np.divide(1.0, triggers, out=np.zeros(triggers.size),
                               where=triggers > 0)[plan.owner]
        self._even[plan.offsets] = 0.0
        # The uniform local strategy: 1/m on each pair of an m-action infoset.
        self._uniform = 1.0 / np.bincount(plan.segment).take(plan.segment)
        self._local = None
        self._phi = None
        # The bytes of the positive parts the last built deviation came from, and that deviation.
        self._key = self._last = None
        # The (pair, mixer) increments of observed (ell, q) bytes under that deviation.
        self._memo = _Memo()

    @property
    def regrets(self):
        """Triggers x sequences regrets, row t trigger t's (a copy)."""
        return self.plan.dense(self._regrets)

    def next_element(self):
        """The round's deviation, unchecked, since it is valid by construction.

        The deviation is a function of the positive parts of the two regret
        arrays alone; while both are unchanged, byte for byte, the last
        deviation is returned again, the same object.  Its ``lam`` and
        ``conts`` are read-only, so that object cannot change under a caller
        that kept it.  A non-finite regret, which only an overflow makes, gives
        a deviation that ``fixed_point`` rejects.  CallOrderError if the last
        one was not observed.
        """
        if self._phi is not None:
            raise CallOrderError("next_element called again before observe_utility")
        plan = self.plan
        pos = np.maximum(self._regrets, 0.0)
        mpos = np.maximum(self.mixer_regrets, 0.0)
        key = (pos.tobytes(), mpos.tobytes())
        if key == self._key:
            self._phi = self._last
            return self._phi
        tot = np.bincount(plan.segment, pos).take(plan.segment)
        local = np.divide(pos, tot, out=self._uniform.copy(), where=tot > 0.0)
        # Compose top-down: a pair's mass is its parent pair's (1 in the root
        # slot, for a trigger at its own infoset) times its local probability.
        conts = np.ones(pos.size + 1)
        for lev in plan.levels:
            np.multiply(conts.take(lev.up), local[lev.lo:lev.hi], out=conts[lev.lo:lev.hi])
        s = np.add.reduceat(mpos, plan.offsets).take(plan.owner)
        lam = np.divide(mpos, s, out=self._even.copy(), where=s > 0.0)
        conts = conts[:-1]
        lam.flags.writeable = conts.flags.writeable = False
        self._local = local
        self._phi = ConvexTriggerDeviation._of_pairs(self.player, lam, conts, plan)
        self._key, self._last = key, self._phi
        self._memo = _Memo()
        return self._phi

    def observe_utility(self, ell, q):
        """Observe the rank-one utility ell ⊗ q: a deviation phi earns ell . phi(q).

        ``ell`` is the utility vector over the player's sequences and ``q``
        the point the round's deviation was applied to.  ``ell`` must be
        finite and every entry of ``q`` within 1e-9 of [0, 1]; a bad pair
        raises ValueError and leaves the round open.  The increments are a
        function of the deviation, ``ell`` and ``q``, so they are computed
        once per (deviation, ``ell``, ``q``) bytes within the memo's budget,
        and a repeat adds the kept arrays again.
        """
        if self._phi is None:
            raise CallOrderError("observe_utility called before next_element")
        plan = self.plan
        ell = np.asarray(ell, dtype=float)
        q = np.asarray(q, dtype=float)
        n = plan.owner.size
        _check_round(n, ell, q, "point")
        phi, self._phi = self._phi, None
        key = (ell.tobytes(), q.tobytes())
        step = self._memo.get(key)
        if step is None:
            # Counterfactual values, completed bottom-up with child infoset values.
            ell_pairs = ell.take(plan.pair_seq)
            vals = ell_pairs * q.take(plan.pair_trigger)
            vals -= _complete(plan, vals, self._local).take(plan.segment)

            lq = ell * q
            values = np.add.reduceat(lq, plan.offsets).take(plan.owner) - plan.sum_below(lq)
            values += q * np.bincount(plan.pair_trigger, phi.conts * ell_pairs, n)
            values -= np.add.reduceat(values * phi.lam, plan.offsets).take(plan.owner)
            values[plan.offsets] = 0.0
            step = vals, values
            self._memo.keep(key, step, ell.nbytes + q.nbytes + vals.nbytes + values.nbytes)
        self._regrets += step[0]
        self.mixer_regrets += step[1]


class MixedTriggerMinimizer:
    """Trigger-regret minimizer emitting mixed sequence-form strategies.

    Each round plays the fixed point of the hull's deviation, so the value a
    deviation assigns to the played point equals the played point's own
    utility, and the hull's deviation-space regret transfers unchanged.
    The hull enforces that next and observe calls alternate.  A repeated
    deviation is the hull's same read-only object, and its fixed point is
    solved once: the point is kept, and each round hands callers a copy.

    For one player, :meth:`next_element` returns a strategy and
    :meth:`observe_utility` takes one utility vector.  For a tuple of
    players, :meth:`next_element` returns a list of per-player strategies,
    views of the joint fixed point, and :meth:`observe_utility` takes the
    players' utility vectors concatenated in the order of the group's plan
    (as :attr:`efce.dynamics.EmpiricalFrequency.utility` holds them).
    ``last_mixed`` is what :meth:`next_element` last returned.  An
    ``fp_tol`` that is not positive and finite raises ValueError.
    """

    def __init__(self, game, player, fp_tol=1e-10):
        self.game = game
        self.player = player
        self.fp_tol = _check_tol(fp_tol, "fp_tol")
        self.hull = HullMinimizer(game, player)
        self._spans = None if isinstance(player, Integral) else self.hull.plan.spans
        self.last_mixed = None
        # The last deviation solved, and its fixed point's values.
        self._solved = self._values = None

    def next_element(self):
        phi = self.hull.next_element()
        if phi is not self._solved:
            self._solved = None  # a solve that raises leaves nothing cached
            try:
                point = fixed_point(self.game, phi, self.fp_tol)
            except BaseException:
                # and closes the hull's round: no utility is observed against an unsolved
                # deviation, and the next call solves it again.
                self.hull._phi = None
                raise
            self._solved, self._values = phi, point.values if self._spans is None else point
        point = self._values.copy()
        self.last_mixed = (SequenceFormStrategy(self.player, point, None) if self._spans is None
                           else [SequenceFormStrategy(p, point[a:b], None) for p, a, b in self._spans])
        return self.last_mixed

    def observe_utility(self, util):
        """Observe the round's utility; another player's
        :class:`~efce.strategies.UtilityVector` raises ValueError and leaves the round open."""
        player = getattr(util, "player", self.player)
        if player != self.player:
            raise ValueError(f"utility vector is player {player + 1}'s, not this learner's")
        # The hull is fed the kept point, not the copy handed out, which a caller may
        # have written to.  Before the first round there is none; the hull raises
        # CallOrderError.
        self.hull.observe_utility(getattr(util, "coefficients", util), self._values)


class PureTriggerMinimizer(MixedTriggerMinimizer):
    """Mixed trigger minimizer plus per-round sampling of a pure strategy.

    ``rng`` is one random stream (an object with a callable ``random``), or
    a list or tuple of one per player of a group ``player``; each player's
    pure strategy is drawn from its own stream, in player order.  A stream
    without a callable ``random``, or a group with another number of
    streams, raises ValueError.
    """

    def __init__(self, game, player, rng, fp_tol=1e-10):
        super().__init__(game, player, fp_tol)
        if self._spans is not None and not (isinstance(rng, (list, tuple))
                                            and len(rng) == len(self._spans)):
            raise ValueError(f"a group of {len(self._spans)} players needs one random "
                             f"stream per player, in a list or tuple")
        for stream in [rng] if self._spans is None else rng:
            if not callable(getattr(stream, "random", None)):
                raise ValueError(f"rng must be a random stream with a random() method, "
                                 f"not {stream!r}")
        self.rng = rng
        self.last_pure = None

    def next_element(self):
        mixed = super().next_element()
        if self._spans is None:
            self.last_pure = sample_pure(self.game, mixed, self.rng)
        else:
            self.last_pure = [sample_pure(self.game, m, rng) for m, rng in zip(mixed, self.rng)]
        return self.last_pure


def _complete(plan, vals, local=None):
    """Complete a pair-layout array bottom-up in place; return its segment values.

    One pass over ``plan.levels``, deepest first: each (infoset, trigger)
    segment takes the max of its pairs' completed entries, or with
    ``local`` (local strategies in the same layout) their mean under it,
    and adds it to its parent pair.  Returns the segments' values in the
    plan's segment order, then a 0 (an empty sequence's ``own_segment``).
    """
    segs = [_ZERO]
    levels = plan.levels
    for i in range(len(levels) - 1, -1, -1):
        lev = levels[i]
        here = vals[lev.lo:lev.hi]
        if local is None:
            seg = np.maximum.reduceat(here, lev.starts)
        else:
            # bincount adds each segment's pairs in order, as a row sum would.
            seg = np.bincount(lev.segment, here * local[lev.lo:lev.hi])
        segs.append(seg)
        if i:
            # The last slot collects the root segments, which have no parent.
            up = levels[i - 1]
            vals[up.lo:up.hi] += np.bincount(lev.parents, seg, up.hi - up.lo + 1)[:-1]
    return np.concatenate(segs[::-1])


class PhiRegretMeter:
    """Running trigger regret of an observed play sequence.

    Accumulates, per trigger, the utility mass at or below the trigger under
    the played points (``follow``) and the utility vectors scaled by the
    played trigger weight, on the trigger's subtree (held in the plan's
    pair layout; ``tables`` is a triggers x sequences copy whose rows of
    empty sequences are zero).  The regret against the best fixed
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
        self._tables = np.zeros(plan.pair_seq.size)
        self.follow = np.zeros(plan.owner.size)
        self._pass = None

    @property
    def tables(self):
        """Triggers x sequences tables, row t trigger t's (a copy)."""
        return self.plan.dense(self._tables)

    def record(self, ell, played):
        """Add one round: a finite utility vector, and a played point within 1e-9 of [0, 1]."""
        ell = np.asarray(ell, dtype=float)
        played = np.asarray(played, dtype=float)
        _check_round(self.follow.size, ell, played, "played point")
        self._add(*self._increments(ell, played))

    def _increments(self, ell, played):
        """The (follow, tables) that one round adds, from float arrays that passed
        :meth:`record`'s checks: its rule, which the frequency's store keeps too."""
        plan = self.plan
        tables = ell.take(plan.pair_seq) * played.take(plan.pair_trigger)
        return plan.sum_below(ell * played), tables

    def _add(self, follow, tables):
        """Add one round's :meth:`_increments`."""
        self.follow += follow
        self._tables += tables
        self._pass = None

    def best_pass(self):
        """Per trigger, its regret (best continuation value, its own segment's, minus
        follow value; -inf at an empty sequence), each player's largest as floats (0
        without triggers), and the completed tables in pair layout; cached until the
        next :meth:`record`."""
        if self._pass is None:
            plan = self.plan
            completed = self._tables.copy()
            regrets = _complete(plan, completed).take(plan.own_segment)
            regrets -= self.follow
            regrets[plan.offsets] = -np.inf
            largest = np.maximum.reduceat(regrets, plan.offsets)
            largest[plan.triggerless] = 0.0
            self._pass = (regrets, largest.tolist(), completed)
        return self._pass

    def regret(self):
        """Cumulative regret against the best fixed one-trigger deviation.

        A float for one player; for a tuple of players, a list with one
        float per player.  A player without triggers has regret 0.
        """
        largest = self.best_pass()[1]
        return largest[0] if isinstance(self.player, Integral) else largest[:]


def split_rngs(seed, n):
    """Independent deterministic random streams, one per player."""
    return [random.Random(f"{seed}/player{i}") for i in range(n)]
