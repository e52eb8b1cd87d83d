"""Regret minimizers over the simplex and over sequence-form polytopes.

Both minimizers follow the same two-call protocol: ``next_element`` commits to
a point, then ``observe_utility`` reveals the linear utility for that round.
The calls must strictly alternate, starting with ``next_element``; violations
raise :class:`CallOrderError`.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .strategies import _check_finite, _check_shape, sequence_from_behavioral


class CallOrderError(RuntimeError):
    """next_element/observe_utility were not called in strict alternation."""


class RegretMatching:
    """Regret matching over the m-action simplex.

    Plays the positive part of the cumulative regret vector, normalized, or
    the uniform distribution while no action has positive regret.
    """

    __slots__ = ("regrets", "_last")

    def __init__(self, m):
        if type(m) is bool or not isinstance(m, Integral):  # a bool is not a count
            raise ValueError(f"action count {m!r} is not an integer")
        if m < 0:
            raise ValueError("action count must be nonnegative")
        self.regrets = np.zeros(m)
        self._last = None

    def next_element(self):
        if self._last is not None:
            raise CallOrderError("next_element called again before observe_utility")
        m = self.regrets.shape[0]
        if m == 0:
            out = np.zeros(0)
        else:
            pos = np.maximum(self.regrets, 0.0)
            s = pos.sum()
            out = pos / s if s > 0.0 else np.full(m, 1.0 / m)
        self._last = out
        return out

    def observe_utility(self, utility):
        """Observe the round's utility, a finite m-vector; a bad one raises
        ValueError and leaves the round open."""
        if self._last is None:
            raise CallOrderError("observe_utility called before next_element")
        u = _check_shape(np.asarray(utility, dtype=float), self.regrets.size, "utility")
        _check_finite(u, "utility")
        self.regrets += u - float(u @ self._last)
        self._last = None


class CfrMinimizer:
    """External-regret minimizer over a sequence-form polytope.

    Runs one :class:`RegretMatching` instance per information set.  The next
    element composes the local distributions top-down into sequence form; the
    observed utility vector is pushed bottom-up, each local minimizer seeing
    its actions' counterfactual values.  Scope is the full tree when ``root``
    is None, otherwise the subtree of that information set.
    """

    def __init__(self, game, player, root=None):
        self.game = game
        self.player = player
        self.root = root
        self._isets = game.scope_infosets(player, root)
        self._seq_ids = {gid: np.asarray(game.infosets[gid].seq_ids, dtype=np.int64)
                         for gid in self._isets}
        self._children = {
            sid: game.child_infosets(player, sid)
            for gid in self._isets
            for sid in game.infosets[gid].seq_ids
        }
        self._local = {gid: RegretMatching(len(game.infosets[gid].actions))
                       for gid in self._isets}
        self._last_dists = None

    def next_element(self):
        if self._last_dists is not None:
            raise CallOrderError("next_element called again before observe_utility")
        self._last_dists = {gid: self._local[gid].next_element() for gid in self._isets}
        return sequence_from_behavioral(self.game, self.player, self._last_dists, self.root)

    def observe_utility(self, coeffs):
        """Observe the round's utility, a finite vector over all of the
        player's sequences; a bad one raises ValueError and leaves the round open."""
        if self._last_dists is None:
            raise CallOrderError("observe_utility called before next_element")
        coeffs = _check_shape(np.asarray(coeffs, dtype=float),
                              self.game.num_sequences(self.player), "utility")
        _check_finite(coeffs, "utility")
        value = {}
        for gid in reversed(self._isets):
            sids = self._seq_ids[gid]
            local = coeffs[sids].copy()
            for k, sid in enumerate(sids):
                for child in self._children[sid]:
                    local[k] += value[child]
            value[gid] = float(local @ self._last_dists[gid])
            self._local[gid].observe_utility(local)
        self._last_dists = None
