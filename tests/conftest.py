"""Shared helpers for the test suite."""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import efce
from efce.dynamics import _walk_best
from efce.game import CHANCE, LEAF

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from log_digests import MIXED_LEVEL, wide_text  # noqa: E402


def brute_expected_payoffs(game, strategies):
    """Expected payoff vector by walking the raw node tree.

    Independent of the package's terminal tables: recurses over nodes,
    multiplying chance probabilities along the way and looking up each
    player's last sequence weight at the leaves.
    """
    out = np.zeros(game.n_players)

    def walk(k, pc, last):
        kind = game.node_kind[k]
        if kind == LEAF:
            w = pc
            for i in range(game.n_players):
                w *= strategies[i].values[last[i]]
            for i in range(game.n_players):
                out[i] += game.leaf_payoffs[k][i] * w
            return
        if kind == CHANCE:
            for p, c in zip(game.chance_probs[k], game.node_children[k]):
                walk(c, pc * p, last)
            return
        i = game.node_player[k]
        gid = game.node_infoset[k]
        for sid, c in zip(game.infosets[gid].seq_ids, game.node_children[k]):
            nxt = list(last)
            nxt[i] = sid
            walk(c, pc, nxt)

    walk(game.root, 1.0, [efce.EMPTY_SEQ] * game.n_players)
    return out


def random_behavioral(game, player, rng, root=None):
    """Random point of the sequence-form polytope via random local simplices."""
    local = {}
    for gid in game.scope_infosets(player, root):
        m = len(game.infosets[gid].actions)
        raw = np.array([rng.random() + 1e-3 for _ in range(m)])
        local[gid] = raw / raw.sum()
    return efce.sequence_from_behavioral(game, player, local, root=root)


def random_deviation(game, player, rng, max_triggers=None):
    """Random convex combination of trigger deviations for one player."""
    n = game.num_sequences(player)
    sids = list(range(1, n))
    if not sids:
        return efce.ConvexTriggerDeviation(player, [])
    rng.shuffle(sids)
    if max_triggers is not None:
        sids = sids[:max_triggers]
    k = rng.randint(1, len(sids))
    chosen = sids[:k]
    raw = np.array([rng.random() + 1e-3 for _ in chosen])
    weights = raw / raw.sum()
    entries = []
    for sid, w in zip(chosen, weights):
        gid = int(game.seq_infoset(player)[sid])
        cont = random_behavioral(game, player, rng, root=gid)
        entries.append((sid, float(w), cont.values))
    return efce.ConvexTriggerDeviation(player, entries)


def fig1_deviations(game):
    """The three worked trigger deviations on the running example game."""
    n = game.num_sequences(0)
    ya = np.zeros(n)
    ya[2] = 1.0
    ya[7] = 1.0
    yb = np.zeros(n)
    yb[1] = 1.0
    yb[3] = 1.0
    yb[5] = 1.0
    yc = np.zeros(n)
    yc[4] = 1.0
    return [
        efce.TriggerDeviation(0, 1, ya),
        efce.TriggerDeviation(0, 2, yb),
        efce.TriggerDeviation(0, 3, yc),
    ]


def reference_games():
    """fig1 at game seeds 0-4, kuhn3 and random-tree 0-63 (1 to 3 players)."""
    games = [efce.builtin_game("fig1", seed=s) for s in range(5)]
    games.append(efce.builtin_game("kuhn3"))
    return games + [efce.builtin_game("random-tree", seed=s) for s in range(64)]


def kernel_games():
    """kuhn3, random-tree 0-63, the wide game at m = 4, 5 and 6, and the MIXED_LEVEL game."""
    games = [efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    return games + [efce.parse_game(wide_text(m)) for m in (4, 5, 6)] + [
        efce.parse_game(MIXED_LEVEL)]


def reference_complete(plan, vals, local=None):
    """The per-pair bottom-up pass: the reference for ``efce.trigger._complete``.

    Completes ``vals`` in place as ``_complete`` does, in its max mode or,
    with ``local``, its local-mean mode, and returns per pair the value of
    the pair's segment.
    """
    iset = np.empty(vals.size)
    levels = plan.levels
    for i in range(len(levels) - 1, -1, -1):
        lev = levels[i]
        here = vals[lev.lo:lev.hi]
        if local is None:
            seg = np.maximum.reduceat(here, lev.starts)
        else:
            seg = np.bincount(lev.segment, here * local[lev.lo:lev.hi])
        iset[lev.lo:lev.hi] = seg.take(lev.segment)
        if i:
            up = levels[i - 1]
            vals[up.lo:up.hi] += np.bincount(lev.parents, seg, up.hi - up.lo + 1)[:-1]
    return iset


def mixed_point(game, player, rng):
    """Random full-tree point whose infosets give their first action zero mass 30% of the time."""
    local = {}
    for gid in game.player_infosets(player):
        raw = np.array([rng.random() + 1e-3 for _ in game.infosets[gid].actions])
        if rng.random() < 0.3:
            raw[0] = 0.0
        local[gid] = raw / raw.sum()
    return efce.sequence_from_behavioral(game, player, local)


def reference_sample_pure(game, strat, rng):
    """The per-infoset sampler walk over numpy scalars: the reference for ``sample_pure``.

    Raises ValueError where no action is chosen at an infoset it reaches
    with positive or nan parent mass.
    """
    q = strat.values
    values = np.zeros_like(q)
    values[efce.EMPTY_SEQ] = 1.0
    for gid in game.player_infosets(strat.player):
        js = game.infosets[gid]
        if values[js.parent_seq] == 0.0:
            continue
        denom = q[js.parent_seq]
        if denom <= 0.0:
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
        if chosen is None or np.isnan(x):
            raise ValueError(f"no action to sample at information set '{js.label}'")
        values[chosen] = 1.0
    return values


def reference_utility_vector(game, player, profile):
    """One player's utility coefficients by one ``np.add.at``: the reference scorer."""
    reach = game.term_chance.copy()
    for j in range(game.n_players):
        if j != player:
            reach *= profile[j].values[game.term_seq[:, j]]
    coeffs = np.zeros(game.num_sequences(player))
    np.add.at(coeffs, game.term_seq[:, player], game.term_payoffs[:, player] * reach)
    return coeffs


def reference_gap(freq):
    """The gap report with every witness built at once: the reference for ``efce_gap``.

    Returns a namespace with the report's ``per_player``, ``eps``,
    ``trigger_gaps``, ``witnesses`` and ``argmax``; each player's gap is
    read at the argmax of its trigger gaps, off which its witness is walked.
    """
    game = freq.game
    meter = freq.meter
    regrets, _, completed = meter.best_pass()
    gaps = regrets / freq.t
    per_player = []
    trigger_gaps = []
    witnesses = []
    for i, a, b in meter.plan.spans:
        own = gaps[a:b]
        witness = None
        eps_i = 0.0
        if b - a > 1:
            sid = int(own.argmax())
            eps_i = float(own[sid])
            gid = int(game.seq_infoset(i)[sid])
            vertex = np.zeros(b - a)
            mine = meter.plan.pair_trigger == a + sid
            column = dict(zip((meter.plan.pair_seq[mine] - a).tolist(), completed[mine].tolist()))
            _walk_best(game, i, column, gid, vertex)
            witness = (sid, efce.SequenceFormStrategy(i, vertex, gid))
        per_player.append(eps_i)
        trigger_gaps.append(own)
        witnesses.append(witness)
    eps = max(per_player)
    top = per_player.index(eps)
    argmax = (top, witnesses[top][0]) if witnesses[top] is not None else None
    return SimpleNamespace(per_player=per_player, eps=eps, trigger_gaps=trigger_gaps,
                           witnesses=witnesses, argmax=argmax)


def exact_stationary(w):
    """The stationary distribution of a column-stochastic chain of Fractions, exactly.

    ``w[a][c]`` is the chance of moving from state c to state a.  The closed
    classes, found by reachability, share the mass equally; each is solved
    by a Fraction linear solve, and the transient states get 0.  Returns
    the distribution as Fractions and the closed classes as sorted lists.
    """
    m = len(w)
    # reach[a][c]: state a can be reached from state c
    reach = [[a == c or w[a][c] != 0 for c in range(m)] for a in range(m)]
    for k in range(m):
        for c in range(m):
            if reach[k][c]:
                for a in range(m):
                    reach[a][c] = reach[a][c] or reach[a][k]
    classes = []
    for c in range(m):
        out = [a for a in range(m) if reach[a][c]]
        # c is recurrent when every state it reaches leads back to it, and
        # its class, everything it reaches, is counted at its lowest state.
        if out[0] == c and all(reach[c][a] for a in out):
            classes.append(out)
    b = [Fraction(0)] * m
    for cls in classes:
        # (w - I) b = 0 on the class, its last equation replaced by sum(b) = 1.
        rows = [[w[a][c] - (a == c) for c in cls] + [Fraction(0)] for a in cls]
        rows[-1] = [Fraction(1)] * (len(cls) + 1)
        for col in range(len(cls)):
            pivot = next(r for r in range(col, len(cls)) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            rows[col] = [v / rows[col][col] for v in rows[col]]
            for r in range(len(cls)):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [v - f * u for v, u in zip(rows[r], rows[col])]
        for a, row in zip(cls, rows):
            b[a] = row[-1] / len(classes)
    return b, classes
