"""Sequence-form strategies, utility vectors, and sampling.

A sequence-form strategy is a flat nonnegative vector over one player's
sequences.  Full-tree strategies put mass 1 on the empty sequence and satisfy
flow conservation at every information set; subtree strategies are scoped to
one information set's subtree, distribute mass 1 over its actions, and are
zero everywhere else (including the empty sequence).  Deterministic strategies
are the 0/1 members of these polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import EMPTY_SEQ

_FLOW_TOL = 1e-9


def _check_shape(v, n, what):
    """``v``; ValueError, naming it ``what``, unless the array ``v`` has shape (n,)."""
    if v.shape != (n,):
        raise ValueError(f"{what} has shape {v.shape}, expected ({n},)")
    return v


def _check_finite(v, what):
    """Raise ValueError, naming ``v`` ``what``, unless every entry of the array ``v`` is finite."""
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise ValueError(f"{what} has a non-finite entry")


@dataclass
class SequenceFormStrategy:
    """One player's sequence-form strategy.

    ``values`` always has one entry per sequence of the player, empty sequence
    included.  ``root`` is None for a full-tree strategy, or the global id of
    the information set whose subtree the strategy lives on.
    """

    player: int
    values: np.ndarray
    root: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def copy(self):
        return SequenceFormStrategy(self.player, self.values.copy(), self.root)

    def is_deterministic(self):
        v = self.values
        return bool(np.all((v == 0.0) | (v == 1.0)))


@dataclass
class UtilityVector:
    """Linear payoff functional over one player's sequences.

    ``range_bound`` is a valid bound on the spread of the induced expected
    utility over the player's strategy set.
    """

    player: int
    coefficients: np.ndarray
    range_bound: float

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)


def validate_strategy(game, strat, tol=_FLOW_TOL):
    """Raise ValueError unless ``strat``'s player is the game's and it lies in its polytope."""
    i = game._player(strat.player)
    v = _check_shape(strat.values, game.num_sequences(i), "strategy")
    if not np.all((v >= -tol) & (v <= 1.0 + tol)):
        raise ValueError("strategy entries must lie in [0, 1]")

    isets = game.scope_infosets(i, strat.root)
    if strat.root is None:
        if not abs(v[EMPTY_SEQ] - 1.0) <= tol:
            raise ValueError("full-tree strategy must put mass 1 on the empty sequence")
    elif np.any(v[~game.subtree_seq_mask(strat.root)] != 0.0):
        raise ValueError("subtree strategy must be zero outside its subtree")

    for gid in isets:
        js = game.infosets[gid]
        total = float(v[list(js.seq_ids)].sum())
        incoming = 1.0 if gid == strat.root else float(v[js.parent_seq])
        if not abs(total - incoming) <= tol:
            raise ValueError(
                f"flow conservation fails at information set '{js.label}' of "
                f"player {i + 1}: {total!r} outgoing vs {incoming!r} incoming"
            )


def is_valid_strategy(game, strat, tol=_FLOW_TOL):
    try:
        validate_strategy(game, strat, tol)
    except ValueError:
        return False
    return True


def sequence_from_behavioral(game, player, local, root=None):
    """Compose per-infoset action distributions into sequence form.

    ``local`` maps each global infoset id of the scope to its action
    probabilities, one per action (else ValueError); the result is scoped
    to ``root`` when given, full-tree otherwise.
    """
    isets = game.scope_infosets(player, root)
    values = np.zeros(game.num_sequences(player))
    if root is None:
        values[EMPTY_SEQ] = 1.0
    for gid in isets:
        js = game.infosets[gid]
        mass = 1.0 if gid == root else values[js.parent_seq]
        try:
            dist = np.asarray(local[gid], dtype=float)
        except KeyError:
            raise ValueError(f"information set '{js.label}' has no action distribution") from None
        if dist.shape != (len(js.seq_ids),):
            raise ValueError(f"information set '{js.label}' needs one probability per action")
        values[list(js.seq_ids)] = mass * dist
    return SequenceFormStrategy(player, values, root)


def uniform_strategy(game, player, root=None):
    """Uniform behavioral strategy in sequence form."""
    local = {
        gid: np.full(len(game.infosets[gid].actions),
                     1.0 / len(game.infosets[gid].actions))
        for gid in game.scope_infosets(player, root)
    }
    return sequence_from_behavioral(game, player, local, root)


def sample_pure(game, strat, rng):
    """Sample a deterministic strategy whose expectation is ``strat``.

    Walks the infoset forest top-down, picking one action per reached infoset
    with probability proportional to the sequence weights, with one
    ``rng.random()`` draw at each reached infoset whose parent has mass.
    Subtrees the sample does not reach, and subtrees where ``strat`` itself
    has no mass, are left all-zero.  A reached infoset whose parent mass is
    nan, or positive with no action of positive mass, raises ValueError.
    """
    if strat.root is not None:
        raise ValueError("can only sample from full-tree strategies")
    i = strat.player
    n = game.num_sequences(i)
    q = _check_shape(strat.values, n, "strategy").tolist()
    values = [0.0] * n
    values[EMPTY_SEQ] = 1.0
    for gid in game.player_infosets(i):
        js = game.infosets[gid]
        denom = q[js.parent_seq]
        if values[js.parent_seq] == 0.0 or denom <= 0.0:
            continue
        x = rng.random() * denom
        acc = 0.0
        chosen = None
        for sid in js.seq_ids:
            if q[sid] > 0.0:
                chosen = sid
                acc += q[sid]
                if x < acc:
                    break
        else:  # x is past every positive mass by rounding, or there is none, or x is nan
            if not 0.0 < acc <= x:
                raise ValueError(f"information set '{js.label}' of player {i + 1} is reached, "
                                 f"but its weights are nan or give no action to sample")
        values[chosen] = 1.0
    return SequenceFormStrategy(i, values, None)


def enumerate_pure(game, player, root=None):
    """Iterator over every deterministic strategy of the given scope.

    The scope is checked at the call, before the first strategy is drawn.
    """
    order = game.scope_infosets(player, root)
    values = np.zeros(game.num_sequences(player))
    if root is None:
        values[EMPTY_SEQ] = 1.0

    def walk():
        stack = []  # (position in order, action index) of each reached infoset
        k = 0
        while True:
            for k in range(k, len(order)):
                js = game.infosets[order[k]]
                if js.index == root or values[js.parent_seq] != 0.0:
                    values[js.seq_ids[0]] = 1.0
                    stack.append((k, 0))
            yield SequenceFormStrategy(player, values.copy(), root)
            # The deepest reached infoset with an action left moves on to it.
            while stack:
                k, a = stack.pop()
                sids = game.infosets[order[k]].seq_ids
                values[sids[a]] = 0.0
                if a + 1 < len(sids):
                    values[sids[a + 1]] = 1.0
                    stack.append((k, a + 1))
                    k += 1
                    break
            else:
                return

    return walk()


def _joint(game, profile):
    """The joint point of ``profile``: its players' values end to end, in a new array.

    Raises ValueError unless ``profile`` holds one full-tree strategy per
    player, in player order, with values within 1e-9 of [0, 1].
    """
    if [(p.player, p.root, p.values.shape) for p in profile] != game._scorer_tables[0]:
        raise ValueError("profile must hold one full-tree strategy per player, in player order")
    played = np.concatenate([p.values for p in profile])
    # Checked before the scorer's products, where 0 x inf or 1e200 x 1e200 would warn first.
    if np.count_nonzero(np.abs(played - 0.5) <= 0.5 + 1e-9) != played.size:
        raise ValueError("profile has a non-finite entry or one outside [0, 1]")
    return played


def _score(game, played):
    """Every player's utility coefficients at the joint point ``played``, end to end.

    ``played`` is a checked :func:`_joint` point.  One gather reads the
    other players' weights at each terminal; they multiply into chance
    reach in player order, then into the payoff, and one bincount adds the
    products per sequence, in terminal order.
    """
    _, keys, others = game._scorer_tables
    reach = game.term_chance
    for f in played.take(others):
        reach = reach * f  # not in place: reach starts as the tree's own array
    return np.bincount(keys.ravel(), (reach * game.term_payoffs.T).ravel(), played.size)


def utility_vector(game, player, profile):
    """Coefficients of one player's expected utility, given the others.

    Entry s collects, over terminals whose last sequence of ``player`` is s,
    the payoff weighted by chance reach and the other players' realization
    weights.  ``profile`` holds one full-tree strategy per player, in player
    order, with values within 1e-9 of [0, 1] (else ValueError); the values
    of ``player``'s own are otherwise ignored.
    """
    n = game.num_sequences(player)  # checks player before the blocks in front of it
    start = sum(map(game.num_sequences, range(player)))
    coeffs = _score(game, _joint(game, profile))[start:start + n]
    return UtilityVector(player, coeffs, game.payoff_range(player))


def evaluate(util, strat):
    """Value of a utility vector at a full-tree strategy."""
    if util.player != strat.player:
        raise ValueError("utility vector and strategy belong to different players")
    if strat.root is not None:
        raise ValueError("utility vector is scoped to the full tree")
    if util.coefficients.shape != strat.values.shape:
        raise ValueError("utility vector and strategy have different lengths")
    return float(util.coefficients @ strat.values)


def format_strategy(game, strat):
    """Labeled rendering of a strategy vector; ValueError unless it has one entry per sequence."""
    i = strat.player
    n = game.num_sequences(i)
    _check_shape(strat.values, n, "strategy")
    parts = [
        f"{game.sequence_name(i, sid)}: {strat.values[sid]:g}"
        for sid in range(n)
    ]
    return "[" + ", ".join(parts) + "]"
