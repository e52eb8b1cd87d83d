"""Trigger deviations and fixed points of their convex combinations.

A trigger deviation is keyed by a non-empty sequence (the trigger) and a
continuation strategy on the trigger infoset's subtree: strategies that never
play the trigger pass through unchanged, and strategies that play it are
rewritten below the trigger's information set according to the continuation.
Convex combinations of such deviations admit a closed-form linear action and,
by construction, a fixed point inside the sequence-form polytope.  The fixed
point is grown top-down, one level of the player's infoset forest at a time;
every infoset solves for a stationary distribution of a small
column-stochastic matrix.  Each level is one kernel call: its infosets are
padded to the widest of them with dummy states, which send all their mass
to action 0 and receive none.  A chain of at most 3 real states is solved
in closed form; the others (several closed classes, an underflow, or 4 or
more real states) go to one batched solver, the one
:func:`stationary_distribution` also calls, where a dummy state is
transient and so gets 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .game import EMPTY_SEQ
from .strategies import SequenceFormStrategy, _check_finite, _check_shape, validate_strategy

# Flat indices into a 3 x 3 matrix for each state a = 0, 1, 2 (columns) and
# its two other states c < d: entries (a, c), (a, d), (c, d) and (d, c) (rows).
_TREE = np.array([[1, 3, 6], [2, 5, 7], [5, 2, 1], [7, 6, 3]])


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
    """Convex combination of trigger deviations for one player, or one per player of a group.

    ``entries`` holds (trigger sequence id, weight, continuation vector)
    triples: integer non-empty sequence ids, nonnegative weights that sum
    to 1 and 1-D continuations of one length; zero-weight entries are dropped.
    The empty combination, allowed for a player without non-empty
    sequences, acts as the identity.

    ``lam[s]`` is the weight of trigger s, and ``conts`` the continuations
    in a plan's pair layout (see :class:`~efce.game.PlayerPlan`), the one
    the hull learns them in and the fixed point reads: entry p is trigger
    t's continuation at sequence s, for the pair p = (t, s).  Only the hull
    builds a combination in that layout (:meth:`_of_pairs`), read with its
    own plan only.  One built from entries has ``conts`` None and is laid
    out for each use, which raises ValueError unless every continuation is
    finite, nonnegative and zero off its trigger infoset's subtree; no use
    changes a combination.  ``C``, with row s trigger s's continuation, is
    a triggers x sequences copy, empty like ``lam`` for the empty
    combination.  A group's (hull) combination is indexed by the group's
    plan: every player's weights sum to 1, or to 0 for a player without
    triggers, and ``C`` is block diagonal.
    """

    __slots__ = ("player", "lam", "conts", "_plan", "_rows")

    def __init__(self, player, entries):
        entries = [(sid, float(w), np.asarray(c, dtype=float)) for sid, w, c in entries]
        for _, _, c in entries:
            if c.ndim != 1:
                raise ValueError(f"continuation has shape {c.shape}, expected a vector")
        n = max((len(c) for _, _, c in entries), default=0)
        lam = np.zeros(n)
        rows = {}
        for sid, weight, c in entries:
            try:
                sid = operator.index(sid)
            except TypeError:
                raise ValueError(f"trigger {sid!r} is not an integer") from None
            if len(c) != n:
                raise ValueError(f"continuations have {len(c)} and {n} entries, not one length")
            if sid == EMPTY_SEQ:
                raise ValueError("the empty sequence cannot be a trigger")
            if not 0 < sid < n:
                raise ValueError(f"trigger {sid} is not a sequence id between 1 and {n - 1}")
            if not weight >= 0.0:
                raise ValueError("deviation weights must be nonnegative")
            if weight > 0.0:
                # A repeated trigger keeps the weighted mean of its continuations.
                old = lam[sid]
                rows[sid] = c if old == 0.0 else (old * rows[sid] + weight * c) / (old + weight)
                lam[sid] = old + weight
        total = float(np.add.reduceat(lam, [0])[0]) if n else 0.0
        if total != 0.0 and not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"deviation weights sum to {total!r}, not 1")
        self.player, self.lam, self.conts, self._plan, self._rows = player, lam, None, None, rows

    @classmethod
    def _of_pairs(cls, player, lam, conts, plan):
        """The hull's combination of ``lam`` and ``conts`` in ``plan``'s pairs, unchecked."""
        phi = cls.__new__(cls)
        phi.player, phi.lam, phi.conts, phi._plan, phi._rows = player, lam, conts, plan, None
        return phi

    @property
    def C(self):
        """Triggers x sequences continuations, row s trigger s's (a copy)."""
        if self._rows is None:
            return self._plan.dense(self.conts)
        C = np.zeros((self.lam.size, self.lam.size))
        for sid, c in self._rows.items():
            C[sid] = c
        return C

    @property
    def terms(self):
        """(trigger, weight, continuation) triples of the positive weights."""
        C = self.C
        return [(int(s), float(self.lam[s]), C[s]) for s in np.flatnonzero(self.lam)]


def _arrays(plan, phi):
    """``phi``'s weights and continuations in ``plan``'s pairs: a hull deviation's own
    arrays, or an entries one's laid out anew, with nothing stored (see the class)."""
    if phi._plan is plan:
        return phi.lam, phi.conts
    n = _check_size(plan, phi)
    if phi.lam.size == 0:
        return np.zeros(n), np.zeros(plan.pair_seq.size)
    if phi._rows is None:
        raise ValueError("deviation was laid out in pairs for another plan")
    C = phi.C
    conts = C[plan.pair_trigger, plan.pair_seq]
    C[plan.pair_trigger, plan.pair_seq] = 0.0
    # The pair layout has no slot for an entry off the trigger infoset's subtree.
    if C.any() or not (conts.min(initial=0.0) >= 0.0 and conts.max(initial=0.0) < np.inf):
        raise ValueError("continuations must be finite, nonnegative and zero off "
                         "the subtree of their trigger's information set")
    return phi.lam, conts


def _check_size(plan, phi):
    """``plan``'s sequence count; ValueError unless ``phi`` is empty or has that many."""
    n = plan.owner.size
    if phi.lam.size not in (0, n):
        raise ValueError(f"deviation has {phi.lam.size} sequences, expected {n}")
    return n


def validate_deviation(game, phi):
    """Raise ValueError unless every continuation lies in its subtree polytope.

    A deviation with another number of sequences than the plan's raises
    before any is read.  A group's deviation is checked block by block of
    its plan: each trigger's continuation on the block of the trigger's
    player.
    """
    plan = game.player_plan(phi.player)
    _check_size(plan, phi)
    for sid, _, cont in phi.terms:
        i, a, b = plan.spans[plan.owner[sid]]
        gid = int(game.seq_infoset(i)[sid - a])
        validate_strategy(game, SequenceFormStrategy(i, cont[a:b], gid))


def _trigger(game, dev):
    """``dev``'s trigger, its infoset's subtree and its continuation, all checked (ValueError)."""
    t = game._sequence(dev.player, dev.trigger)
    if t == EMPTY_SEQ:
        raise ValueError("the empty sequence cannot be a trigger")
    cont = _check_shape(np.asarray(dev.continuation, dtype=float),
                        game.num_sequences(dev.player), "continuation")
    return t, game.subtree_sequences(int(game.seq_infoset(dev.player)[t])), cont


def build_matrix(game, dev):
    """Dense matrix of a single trigger deviation (testing and debugging only).

    Row/column indices are the player's sequence ids.  Columns not at or below
    the trigger are unit columns; the trigger's own column carries the
    continuation on the subtree of the trigger's infoset; columns strictly
    below the trigger are zero.
    """
    t, sub, cont = _trigger(game, dev)
    m = np.diag(np.where(game.descendant_mask(dev.player)[t], 0.0, 1.0))
    m[sub, t] = cont[sub]
    return m


def apply_trigger(game, dev, x):
    """Apply one trigger deviation's matrix to a vector, without the matrix."""
    t, sub, cont = _trigger(game, dev)
    x = _check_shape(np.asarray(x, dtype=float), cont.size, "x")
    out = np.where(game.descendant_mask(dev.player)[t], 0.0, x)
    out[sub] += x[t] * cont[sub]
    return out


def cumulative_weights(game, phi):
    """For each sequence, the total deviation weight at or above it."""
    plan = game.player_plan(phi.player)
    return plan.sum_above(_arrays(plan, phi)[0])


def apply_deviation(game, phi, x):
    """Closed-form action of a convex trigger combination on a vector.

    Entry s keeps a (1 - total weight at or above s) share of x[s], plus, for
    every trigger on the path to s, that trigger's continuation at s scaled by
    the weight and by x at the trigger.
    """
    plan = game.player_plan(phi.player)
    _, _, moved, keep = _parts(plan, phi)
    return _act(plan, moved, keep, _check_shape(np.asarray(x, dtype=float), plan.owner.size, "x"))


def _act(plan, moved, keep, x):
    """``apply_deviation`` on a float vector, from the ``moved`` and ``keep`` of :func:`_parts`."""
    out = keep * x + np.bincount(plan.pair_seq, moved * x.take(plan.pair_trigger), x.size)
    out[plan.offsets] = x[plan.offsets]
    return out


def _check_tol(tol, name):
    """``tol``; ValueError, naming it ``name``, unless it is positive and finite."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return tol


def stationary_distribution(w, tol=1e-10):
    """Probability vector b with w @ b = b, for column-stochastic w.

    The chain's closed classes share the mass equally, and its transient
    states get 0; the fixed point's kernel solves its chains the same way,
    with :func:`_stationary`.  Raises ValueError unless w is square,
    non-empty, finite and nonnegative with columns that sum to 1 (within
    1e-9), and :class:`NumericalError` if the solve underflows or leaves a
    residual above ``tol``, and ValueError unless ``tol`` is positive and
    finite.
    """
    _check_tol(tol, "tol")
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if w.shape[0] == 0:
        raise ValueError("matrix must be non-empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix entries must be finite")
    if np.any(w < -1e-12):
        raise ValueError("matrix entries must be nonnegative")
    if np.any(np.abs(w.sum(axis=0) - 1.0) > 1e-9):
        raise ValueError("matrix columns must sum to 1")
    return _stationary(w[None], tol)[0]


def _stationary(w, tol):
    """Stationary distributions of k finite column-stochastic chains, as a (k, m) array.

    Row j's chain is ``w[j]``.  The closed communicating classes, found by
    reachability, share the mass equally, and the transient states get 0.
    Each class is solved by state reduction (Grassmann, Taksar & Heyman),
    which never subtracts and so stays accurate on nearly decoupled chains.
    A chain padded with dummy states, each with column e_0 (all its mass
    to state 0) and row 0 (no mass in), comes out as it does alone, bit for
    bit: a dummy state is transient and gets 0.  Raises
    :class:`NumericalError` if the reduction underflows or a residual
    exceeds ``tol``.
    """
    m = w.shape[1]
    sums = w.sum(axis=1)
    # Rescale away the column-sum drift: a true fixed point's residual is
    # floored at that drift, which may exceed tol.
    w = np.maximum(w, 0.0) / sums[:, None, :]

    # reach[j, a, c]: state a can be reached from state c.
    reach = (w > 0.0) | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    # A state is recurrent when every state it reaches leads back to it; its
    # closed class is then everything it reaches, and its root the lowest.
    recurrent = (reach.transpose(0, 2, 1) >= reach).all(axis=1)
    root = reach.argmax(axis=1)
    roots = recurrent & (root == np.arange(m))
    b = roots.astype(float)
    if (roots != recurrent).any():  # a class of one state needs no reduction
        same = recurrent[:, :, None] & recurrent[:, None, :] & (root[:, :, None] == root[:, None, :])
        p = (w * same).transpose(0, 2, 1).copy()  # p[j, a, c]: moving from a to c, in a class
        for s in range(m - 1, 0, -1):
            out = p[:, s, :s].sum(axis=1)
            cut = recurrent[:, s] & ~roots[:, s]
            if not out[cut].min(initial=1.0) > 0.0:
                raise NumericalError("stationary distribution underflowed")
            p[:, :s, s] /= np.where(cut, out, 1.0)[:, None]
            p[:, :s, :s] += p[:, :s, s, None] * p[:, None, s, :s]
        for s in range(1, m):
            b[:, s] += (b[:, :s] * p[:, :s, s]).sum(axis=1)
        # A division, since multiplying by the reciprocal moves bits.
        b /= np.where(same, b[:, :, None], 0.0).sum(axis=1) + ~recurrent
    b /= roots.sum(axis=1)[:, None]
    resid = float(np.abs((w * b[:, None, :]).sum(axis=2) - b).max())
    if not resid <= tol:
        raise NumericalError(f"stationary distribution residual {resid:g} exceeds tolerance")
    return b


def is_trunk(game, player, trunk):
    """Whether ``trunk`` is predecessor closed in the player's infoset forest."""
    seq_infoset = game.seq_infoset(player)
    for gid in trunk:
        js = game._infoset(gid)
        if js.player != player:
            return False
        if js.parent_seq != EMPTY_SEQ and int(seq_infoset[js.parent_seq]) not in trunk:
            return False
    return True


def _parts(plan, phi):
    """The inputs of the chains that do not depend on x.

    Returns the weights and continuations of ``phi`` in the pair layout,
    each pair's continuation weighted by its trigger's weight, and the share
    each sequence keeps: 1 minus the weight at or above it.
    """
    lam, conts = _arrays(plan, phi)
    moved = conts * lam.take(plan.pair_trigger)
    # A zero weight times a negative continuation is -0.0; adding 0.0 makes it
    # 0.0, as adding the incoming mass does below the roots.
    moved += 0.0
    return lam, conts, moved, 1.0 - plan.sum_above(lam)


def _trees(w):
    """Per row of flattened 3 x 3 chains, the spanning trees into each state a, with c, d
    the other two: w[a, c] * (w[a, d] + w[c, d]) + w[d, c] * w[a, d]."""
    t = w[:, _TREE]
    return t[:, 0] * (t[:, 1] + t[:, 2]) + t[:, 3] * t[:, 1]


def _solve(w0, r, xp, mask, fp_tol):
    """Fixed-point values of k infosets padded to m states each, as a (k, m) array.

    Row j is infoset j's parent mass ``xp[j]`` times the stationary
    distribution of its extension matrix: ``w0[j]`` (its chain's gather of
    :meth:`~efce.game.PlayerPlan.chain_entries`) plus ``r[j] / xp[j]`` (the
    mass that triggers above the infoset send to its sequences, 0 at a
    dummy state; ``r`` is None for none) in every real column, those where
    ``mask`` (None for all) is 1.  A dummy column sends all its mass to
    action 0 and receives none, so the closed form of m states (by the
    Markov chain tree theorem, for m = 2 and 3), and :func:`_stationary`,
    give the answer of fewer real states bit for bit; for m of 4 or more,
    a row of at most 3 real states takes the closed form of its first 3.
    A column whose sum, weighted by its parent mass, is not 1 raises
    :class:`NumericalError`, and a nan entry or one below -1e-12
    ValueError, whatever the number of states; the other negative entries
    are clipped to 0.  A row whose parent has no mass is 0.  The other
    rows whose closed form does not sum to a positive total, every row of
    4 or more real states among them, are solved together by
    :func:`_stationary`; a non-finite entry in one of them raises
    ValueError.
    """
    k, m, _ = w0.shape
    w = w0
    # A parent without mass leaves its children at zero: dividing its row by 1
    # instead of 0 keeps that row's chain finite, and adding 1 to its total
    # keeps the total positive.
    massless = xp == 0.0
    if r is not None:
        rx = (r / (xp + massless)[:, None])[:, :, None]
        w = w0 + (rx if mask is None else rx * mask)
    sums = np.add.reduce(w, axis=1)
    # Counted entry by entry, which costs less than .any() or .min() here: a nan
    # passes no comparison, and a nan row does not hide another row's loss.
    if np.count_nonzero(np.abs(sums - 1.0) * xp[:, None] > 1e-9):
        raise NumericalError("extension matrix lost mass conservation")
    if np.count_nonzero(w >= 0.0) != w.size:
        if np.count_nonzero(w >= -1e-12) != w.size:  # a nan, or an entry below -1e-12
            raise ValueError("extension matrix entries must be finite and nonnegative")
        w = np.maximum(w, 0.0)
    # Columns of w sum to 1 exactly in real arithmetic; rounding from earlier
    # levels leaves a small absolute drift that the division by a possibly
    # tiny xp would blow up, so rescale here.  A column whose mass rounded
    # away entirely is made a self-loop instead of being divided by zero.
    if np.count_nonzero(sums > 0.0) != sums.size:  # a nan sum must not hide a zero one
        rows, cols = np.nonzero(sums <= 0.0)
        w = w.copy()  # w may be the static part
        w[rows, :, cols] = 0.0
        w[rows, cols, cols] = 1.0
        sums[rows, cols] = 1.0
    w = w / sums[:, None, :]
    if m == 1:
        b = np.ones((k, 1))
    elif m == 2:
        b = w.reshape(k, 4)[:, 1:3].copy()  # (w[0, 1], w[1, 0])
    elif m == 3:
        b = _trees(w.reshape(k, 9))
    else:
        b = np.zeros((k, m))
        if mask is not None:  # a row with a dummy state 3 has at most 3 real states
            narrow = mask[:, 0, 3] == 0.0
            b[narrow, :3] = _trees(w[narrow, :3, :3].reshape(-1, 9))
    total = np.add.reduce(b, axis=1) + massless
    if np.count_nonzero(total > 0.0) != k:
        rows = np.flatnonzero(~(total > 0.0))
        w = w[rows]
        if not np.isfinite(w).all():
            raise ValueError("extension matrix entries must be finite")
        b[rows] = _stationary(w, fp_tol)
        total[rows] = 1.0
    return b * (xp / total)[:, None]


def extend(game, phi, trunk, j_star, x, fp_tol=1e-10):
    """Grow a partial fixed point of ``phi`` by one information set.

    ``trunk`` must be predecessor closed, must not contain ``j_star``, and
    must contain the infoset owning ``j_star``'s parent sequence (when there
    is one).  ``x`` is a partial fixed point over the trunk; the returned
    vector extends it with values at ``j_star``'s sequences, every other
    coordinate untouched; its inflow is summed per sequence over all pairs.
    ``phi`` is one player's: a group's combination raises ValueError, as
    do an ``x`` that is not finite and an ``fp_tol`` that is not positive and
    finite.
    """
    _check_tol(fp_tol, "fp_tol")
    i = phi.player
    if not isinstance(i, Integral):
        raise ValueError("extend takes one player's deviation, not a group's")
    js = game._infoset(j_star)
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
    plan = game.player_plan(i)
    out = _check_shape(np.array(x, dtype=float), plan.owner.size, "x")  # a copy, written below
    _check_finite(out, "x")
    lam, conts, moved, keep = _parts(plan, phi)
    sids = np.array(js.seq_ids, dtype=np.int64)
    # Only triggers above the infoset send mass into it; its own sequences'
    # current values are not part of the trunk.
    above = out.copy()
    above[sids] = 0.0
    inflow = conts * (lam * above).take(plan.pair_trigger)
    r = np.bincount(plan.pair_seq, inflow, out.size)[sids]
    w0 = plan.chain_entries(moved, keep).take(plan.infoset_gather(sids))
    out[sids] = _solve(w0, r[None], out[[js.parent_seq]], None, fp_tol)[0]
    return out


def fixed_point(game, phi, fp_tol=1e-10):
    """Sequence-form fixed point q = phi(q) of a convex trigger combination.

    Starts from the vector with mass only on the empty sequence (of every
    player of a group's combination) and extends it one level of the infoset
    forests at a time.  The parts of all levels' chains that do not depend
    on x are one gather, up front, of which each level reads a view.  An
    infoset's incoming mass depends only on shallower entries, so a whole
    level's is one product over its pairs, summed per sequence as
    :func:`extend` sums it, and read at the level's states (a dummy reads
    the 0 past the sequences).  One kernel call solves each level, its
    infosets padded to the widest.  The result is checked against the
    closed-form action; residuals above 10 * fp_tol raise
    :class:`NumericalError`, as does an extension matrix column that does
    not sum to 1, and a tolerance that is not positive and finite
    ValueError.

    Returns one player's :class:`~efce.strategies.SequenceFormStrategy`, or
    for a group's combination the joint values array on the group's plan.
    """
    _check_tol(fp_tol, "fp_tol")
    plan = game.player_plan(phi.player)
    lam, conts, moved, keep = _parts(plan, phi)
    static = plan.chain_entries(moved, keep).take(plan.gather)
    # The slot past the sequences takes the dummy states' values, all 0.
    x = np.zeros(lam.size + 1)
    x[plan.offsets] = 1.0
    xv = x[:-1]
    done = 0  # the entries of static that earlier levels read
    for level in plan.levels:
        r = None  # nothing sends mass into the roots
        if level.lo:
            pairs = slice(level.lo, level.hi)
            inflow = conts[pairs] * (lam * xv).take(plan.pair_trigger[pairs])
            r = np.bincount(plan.pair_seq[pairs], inflow, x.size).take(level.sids)
        k, m = level.sids.shape
        x[level.sids] = _solve(static[done:done + k * m * m].reshape(k, m, m), r,
                               x.take(level.parent_seq), level.mask, fp_tol)
        done += k * m * m
    x = xv
    resid = np.maximum.reduce(np.abs(_act(plan, moved, keep, x) - x))
    if not resid <= 10.0 * fp_tol:
        raise NumericalError(f"fixed point residual {resid:g} exceeds tolerance")
    if isinstance(phi.player, Integral):
        return SequenceFormStrategy(phi.player, x, None)
    return x
