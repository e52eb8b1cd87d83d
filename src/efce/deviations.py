"""Trigger deviations and fixed points of their convex combinations.

A trigger deviation is keyed by a non-empty sequence (the trigger) and a
continuation strategy on the trigger infoset's subtree: strategies that never
play the trigger pass through unchanged, and strategies that play it are
rewritten below the trigger's information set according to the continuation.
Convex combinations of such deviations admit a closed-form linear action and,
by construction, a fixed point inside the sequence-form polytope.  The fixed
point is grown top-down, one level of the player's infoset forest at a time;
every infoset solves for a stationary distribution of a small
column-stochastic matrix, batched over the infosets of a level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import EMPTY_SEQ
from .strategies import SequenceFormStrategy, validate_strategy

_WEIGHT_TOL = 1e-9
# Flat indices into a 3 x 3 matrix for each state a = 0, 1, 2 and its two
# other states c < d: entries (a, c), (a, d), (c, d) and (d, c).
_AC = np.array([1, 3, 6])
_AD = np.array([2, 5, 7])
_CD = np.array([5, 2, 1])
_DC = np.array([7, 6, 3])


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its required tolerance."""


@dataclass(frozen=True)
class TriggerDeviation:
    """A single trigger deviation.

    ``trigger`` is a non-empty sequence id of ``player``; ``continuation`` is
    a full-length vector supported on the trigger infoset's subtree.
    """

    player: int
    trigger: int
    continuation: np.ndarray


class ConvexTriggerDeviation:
    """Convex combination of trigger deviations for one player.

    ``entries`` holds (trigger sequence id, weight, continuation vector)
    triples.  Weights must be nonnegative and sum to 1; zero-weight entries
    are dropped.  An empty combination is allowed for players without any
    non-empty sequences and acts as the identity.

    The combination is held densely: ``lam[s]`` is the weight of trigger s
    and row s of ``C`` its continuation, supported on the subtree of the
    trigger's infoset (zero rows for sequences that are not triggers).  Both
    are empty for the empty combination.
    """

    __slots__ = ("player", "lam", "C")

    def __init__(self, player, entries):
        entries = [(int(sid), float(w), np.asarray(c, dtype=float)) for sid, w, c in entries]
        n = max((len(c) for _, _, c in entries), default=0)
        lam = np.zeros(n)
        cont = np.zeros((n, n))
        for sid, weight, c in entries:
            if sid == EMPTY_SEQ:
                raise ValueError("the empty sequence cannot be a trigger")
            if not weight >= 0.0:
                raise ValueError("deviation weights must be nonnegative")
            if weight > 0.0:
                # A repeated trigger keeps the weighted mean of its continuations.
                old = lam[sid]
                cont[sid] = c if old == 0.0 else (old * cont[sid] + weight * c) / (old + weight)
                lam[sid] = old + weight
        self._init(player, lam, cont)

    @classmethod
    def from_arrays(cls, player, lam, C):
        """Wrap dense weights and continuation rows, with the same weight checks."""
        phi = cls.__new__(cls)
        phi._init(player, lam, C)
        return phi

    def _init(self, player, lam, C):
        if lam.size and (lam[EMPTY_SEQ] != 0.0 or not lam.min() >= 0.0):
            raise ValueError("deviation weights must be nonnegative and off the empty sequence")
        total = float(lam.sum())
        if total != 0.0 and not abs(total - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"deviation weights sum to {total!r}, not 1")
        self.player = player
        self.lam = lam
        self.C = C

    @property
    def terms(self):
        """(trigger, weight, continuation) triples of the positive weights."""
        return [(int(s), float(self.lam[s]), self.C[s]) for s in np.flatnonzero(self.lam)]


def _arrays(game, phi):
    """The weights and continuation matrix of ``phi``, sized to its player."""
    n = game.num_sequences(phi.player)
    if phi.lam.size == 0:
        return np.zeros(n), np.zeros((n, n))
    if phi.lam.size != n:
        raise ValueError(f"deviation has {phi.lam.size} sequences, expected {n}")
    return phi.lam, phi.C


def validate_deviation(game, phi):
    """Raise ValueError unless every continuation lies in its subtree polytope."""
    for sid, _, cont in phi.terms:
        gid = int(game.seq_infoset(phi.player)[sid])
        validate_strategy(game, SequenceFormStrategy(phi.player, cont, gid))


def build_matrix(game, dev):
    """Dense matrix of a single trigger deviation (testing and debugging only).

    Row/column indices are the player's sequence ids.  Columns not at or below
    the trigger are unit columns; the trigger's own column carries the
    continuation on the subtree of the trigger's infoset; columns strictly
    below the trigger are zero.
    """
    i = dev.player
    n = game.num_sequences(i)
    gid = int(game.seq_infoset(i)[dev.trigger])
    sub = game.subtree_sequences(gid)
    desc = game.descendant_mask(i)
    m = np.zeros((n, n))
    for col in range(n):
        if not desc[dev.trigger, col]:
            m[col, col] = 1.0
    m[sub, dev.trigger] = dev.continuation[sub]
    return m


def apply_trigger(game, dev, x):
    """Apply one trigger deviation's matrix to a vector, without the matrix."""
    i = dev.player
    x = np.asarray(x, dtype=float)
    gid = int(game.seq_infoset(i)[dev.trigger])
    out = np.where(game.descendant_mask(i)[dev.trigger], 0.0, x)
    sub = game.subtree_sequences(gid)
    out[sub] += x[dev.trigger] * dev.continuation[sub]
    return out


def cumulative_weights(game, phi):
    """For each sequence, the total deviation weight at or above it."""
    lam, _ = _arrays(game, phi)
    return lam @ game.player_plan(phi.player).below


def apply_deviation(game, phi, x, cum=None):
    """Closed-form action of a convex trigger combination on a vector.

    Entry s keeps a (1 - total weight at or above s) share of x[s], plus, for
    every trigger on the path to s, that trigger's continuation at s scaled by
    the weight and by x at the trigger.
    """
    lam, C = _arrays(game, phi)
    x = np.asarray(x, dtype=float)
    if cum is None:
        cum = cumulative_weights(game, phi)
    out = (1.0 - cum) * x + (lam * x) @ C
    out[EMPTY_SEQ] = x[EMPTY_SEQ]
    return out


def stationary_distribution(w, tol=1e-10):
    """Probability vector b with w @ b = b, for column-stochastic w.

    Finds the closed communicating classes of the chain by reachability and
    solves each one's irreducible system by state reduction (Grassmann,
    Taksar & Heyman), which never subtracts and so stays accurate on nearly
    decoupled chains.  A chain with several closed classes gets their
    stationary distributions in equal shares.  Raises :class:`NumericalError`
    if the result leaves a residual above ``tol``.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    m = w.shape[0]
    if m == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix entries must be finite")
    if np.any(w < -1e-12):
        raise ValueError("matrix entries must be nonnegative")
    colsums = w.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > 1e-9):
        raise ValueError("matrix columns must sum to 1")
    if m == 1:
        return np.ones(1)
    # Rescale away the (validated) column-sum drift: a true fixed point's
    # residual is floored at that drift, which may exceed tol.
    w = np.maximum(w, 0.0) / colsums

    # reach[a, c]: state a can be reached from state c.
    reach = (w > 0.0) | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    # A state is recurrent when every state it reaches leads back to it; its
    # closed class is then everything it reaches.
    classes = []
    seen = np.zeros(m, dtype=bool)
    for c in range(m):
        if not seen[c] and np.all(reach[c] >= reach[:, c]):
            members = np.flatnonzero(reach[:, c])
            seen[members] = True
            classes.append(members)
    b = np.zeros(m)
    for members in classes:
        b[members] += _reduce_states(w[np.ix_(members, members)]) / len(classes)
    resid = float(np.max(np.abs(w @ b - b)))
    if not resid <= tol:
        raise NumericalError(f"stationary distribution residual {resid:g} exceeds tolerance")
    return b


def _reduce_states(w):
    """Stationary distribution of an irreducible column-stochastic matrix."""
    p = w.T.copy()  # p[i, j]: probability of moving from i to j
    m = p.shape[0]
    for k in range(m - 1, 0, -1):
        out = p[k, :k].sum()
        if not out > 0.0:
            raise NumericalError("stationary distribution underflowed")
        p[:k, k] /= out
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    b = np.zeros(m)
    b[0] = 1.0
    for k in range(1, m):
        b[k] = b[:k] @ p[:k, k]
    return b / b.sum()


def is_trunk(game, player, trunk):
    """Whether ``trunk`` is predecessor closed in the player's infoset forest."""
    seq_infoset = game.seq_infoset(player)
    for gid in trunk:
        js = game.infosets[gid]
        if js.player != player:
            return False
        if js.parent_seq != EMPTY_SEQ and int(seq_infoset[js.parent_seq]) not in trunk:
            return False
    return True


def _extend_block(sids, xp, r, lam, C, cum, fp_tol):
    """Fixed-point values at k infosets of m actions each, as a (k, m) array.

    Row j is infoset j's parent mass ``xp[j]`` times the stationary
    distribution of its extension matrix: ``r[j] / xp[j]`` (the mass that
    triggers above the infoset send to its sequences) in every column, plus
    the infoset's own triggers' continuations and the (1 - cum) share each
    sequence keeps.  m = 2 and m = 3 are solved in closed form by the Markov
    chain tree theorem; larger or degenerate chains fall back to
    :func:`stationary_distribution`.
    """
    k, m = sids.shape
    # A parent without mass leaves its children at zero; dividing its row by
    # 1 instead of 0 keeps that row's chain finite.
    scale = xp + (xp == 0.0)
    # w[j, a, c]: the share of sequence c's mass that infoset j's chain moves to a.
    w = C[sids[:, None, :], sids[:, :, None]] * lam[sids][:, None, :]
    w.reshape(k, m * m)[:, ::m + 1] += 1.0 - cum[sids]
    w += (r / scale[:, None])[:, :, None]
    # Columns of w sum to 1 exactly in real arithmetic; rounding from earlier
    # levels leaves a small absolute drift that the division by a possibly
    # tiny xp would blow up, so rescale here.  A column whose mass rounded
    # away entirely is made a self-loop instead of being divided by zero.
    sums = w.sum(axis=1)
    if (np.abs(sums - 1.0) * xp[:, None]).max() > 1e-9:
        raise NumericalError("extension matrix lost mass conservation")
    if w.min() < -1e-12:
        raise ValueError("extension matrix entries must be nonnegative")
    if sums.min() <= 0.0:
        rows, cols = np.nonzero(sums <= 0.0)
        w[rows, :, cols] = 0.0
        w[rows, cols, cols] = 1.0
        sums[rows, cols] = 1.0
    w = np.maximum(w, 0.0, out=w) / sums[:, None, :]

    if m == 1:
        b = np.ones((k, 1))
    elif m == 2:
        b = w.reshape(k, 4)[:, 1:3].copy()  # (w[0, 1], w[1, 0])
    elif m == 3:
        # Spanning trees into each state a, with c, d the other two states:
        # w[a, c] * (w[a, d] + w[c, d]) + w[d, c] * w[a, d].
        flat = w.reshape(k, 9)
        w_ad = flat[:, _AD]
        b = flat[:, _AC] * (w_ad + flat[:, _CD]) + flat[:, _DC] * w_ad
    else:
        b = np.zeros((k, m))
    total = b.sum(axis=1)
    if not total.min() > 0.0:
        for row in np.flatnonzero(~(total > 0.0)):
            b[row] = stationary_distribution(w[row], tol=fp_tol)
            total[row] = 1.0
    return b * (xp / total)[:, None]


def extend(game, phi, trunk, j_star, x, fp_tol=1e-10):
    """Grow a partial fixed point of ``phi`` by one information set.

    ``trunk`` must be predecessor closed, must not contain ``j_star``, and
    must contain the infoset owning ``j_star``'s parent sequence (when there
    is one).  ``x`` is a partial fixed point over the trunk; the returned
    vector extends it with values at ``j_star``'s sequences, every other
    coordinate untouched.
    """
    i = phi.player
    if not 0 <= j_star < len(game.infosets):
        raise ValueError(f"no information set with id {j_star}")
    js = game.infosets[j_star]
    if js.player != i:
        raise ValueError("information set belongs to a different player")
    if j_star in trunk:
        raise ValueError(f"information set '{js.label}' is already in the trunk")
    if not is_trunk(game, i, trunk):
        raise ValueError("trunk is not predecessor closed")
    if js.parent_seq != EMPTY_SEQ:
        pred = int(game.seq_infoset(i)[js.parent_seq])
        if pred not in trunk:
            raise ValueError(
                f"the trunk must contain '{game.infosets[pred].label}', the "
                f"immediate predecessor of '{js.label}'"
            )
    lam, C = _arrays(game, phi)
    cum = cumulative_weights(game, phi)
    sids = np.array([js.seq_ids], dtype=np.int64)
    out = np.array(x, dtype=float)
    # Only triggers above the infoset send mass into it; its own sequences'
    # current values are not part of the trunk.
    above = out.copy()
    above[sids] = 0.0
    r = (lam * above) @ C[:, sids[0]]
    out[sids] = _extend_block(sids, out[[js.parent_seq]], r[None, :], lam, C, cum, fp_tol)
    return out


def fixed_point(game, phi, fp_tol=1e-10):
    """Sequence-form fixed point q = phi(q) of a convex trigger combination.

    Starts from the vector with mass only on the empty sequence and extends
    it one level of the player's infoset forest at a time.  An infoset's
    incoming mass depends only on shallower entries, so a whole level's is
    one product, and its infosets are solved together per action count.  The
    result is checked against the closed-form action; residuals above
    10 * fp_tol raise :class:`NumericalError`.
    """
    i = phi.player
    lam, C = _arrays(game, phi)
    cum = cumulative_weights(game, phi)
    x = np.zeros(len(lam))
    x[EMPTY_SEQ] = 1.0
    for level in game.player_plan(i).levels:
        r = (lam * x) @ C[:, level.seqs]
        for start, sids, parents in level.blocks:
            incoming = r[start:start + sids.size].reshape(sids.shape)
            x[sids] = _extend_block(sids, x[parents], incoming, lam, C, cum, fp_tol)
    resid = float(np.max(np.abs(apply_deviation(game, phi, x, cum) - x)))
    if not resid <= 10.0 * fp_tol:
        raise NumericalError(f"fixed point residual {resid:g} exceeds tolerance")
    return SequenceFormStrategy(i, x, None)
