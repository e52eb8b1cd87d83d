import random

import numpy as np
import pytest

import efce
from conftest import random_behavioral


def test_split_rngs_deterministic_and_independent():
    a = efce.split_rngs(42, 3)
    b = efce.split_rngs(42, 3)
    seqs_a = [[r.random() for _ in range(5)] for r in a]
    seqs_b = [[r.random() for _ in range(5)] for r in b]
    assert seqs_a == seqs_b
    assert seqs_a[0] != seqs_a[1]
    c = efce.split_rngs(43, 3)
    assert [r.random() for r in c] != [seqs_a[i][0] for i in range(3)]


def test_hull_first_deviation_is_uniform_mixture():
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    phi = hull.next_element()
    weights = {sid: w for sid, w, _ in phi.terms}
    assert set(weights) == set(range(1, 9))
    for w in weights.values():
        assert w == pytest.approx(1 / 8)
    efce.validate_deviation(g, phi)


def test_hull_rejects_player_without_sequences():
    g = efce.parse_game("players 2; root a\n"
                        "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                        "leaf z1 {1 0}; leaf z2 {0 1}")
    hull = efce.HullMinimizer(g, 1)
    phi = hull.next_element()
    assert phi.terms == []


def test_per_trigger_state_unmoved_until_triggered():
    # row 3 of the hull (trigger sequence 3) learns only when 3 is played
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    first = hull.next_element().C[3].copy()
    ell = np.arange(9.0)
    q = np.zeros(9)
    q[0] = 1.0
    q[2] = 1.0
    q[7] = 1.0  # never reaches sequence 3
    for _ in range(5):
        hull.observe_utility(ell, q)
        nxt = hull.next_element().C[3]
        assert np.allclose(nxt, first)
        assert not hull.regrets[3].any()


def test_per_trigger_state_reacts_once_triggered():
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    hull.next_element()
    ell = np.zeros(9)
    ell[3] = 5.0
    ell[4] = -5.0
    q = np.zeros(9)
    q[0] = q[1] = q[3] = 1.0
    hull.observe_utility(ell, q)
    nxt = hull.next_element().C[3]
    assert nxt[3] == pytest.approx(1.0)
    assert nxt[4] == pytest.approx(0.0)


def test_hull_alternation_enforced():
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    ell = q = np.zeros(9)
    with pytest.raises(efce.CallOrderError):
        hull.observe_utility(ell, q)
    hull.next_element()
    with pytest.raises(efce.CallOrderError):
        hull.next_element()
    hull.observe_utility(ell, q)
    hull.next_element()


class _ReferenceHull:
    """The hull built from objects: one subtree CFR learner per trigger plus
    a regret-matching mixer, fed the same rank-one functionals."""

    def __init__(self, game, player):
        n = game.num_sequences(player)
        self.desc = game.descendant_mask(player)
        self.learners = [
            efce.CfrMinimizer(game, player, root=int(game.seq_infoset(player)[t]))
            for t in range(1, n)
        ]
        self.subs = [game.subtree_sequences(c.root) for c in self.learners]
        self.mixer = efce.RegretMatching(n - 1)

    def next_element(self):
        self.conts = np.stack([c.next_element().values for c in self.learners])
        self.lam = self.mixer.next_element()
        return self.lam, self.conts

    def observe_utility(self, ell, q):
        values = []
        lq = ell * q
        ondesc = self.desc @ lq
        for t, (learner, sub) in enumerate(zip(self.learners, self.subs), 1):
            gvec = np.zeros(len(ell))
            gvec[sub] = ell[sub] * q[t]
            learner.observe_utility(gvec)
            cont = self.conts[t - 1]
            values.append(lq.sum() - ondesc[t] + q[t] * (ell[sub] @ cont[sub]))
        self.mixer.observe_utility(np.array(values))


def test_flat_hull_matches_per_trigger_learners():
    games = [efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(8)]
    rng = random.Random(31)
    compared = 0
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            if n == 1:
                continue
            hull = efce.HullMinimizer(g, i)
            ref = _ReferenceHull(g, i)
            for _ in range(200):
                phi = hull.next_element()
                lam, conts = ref.next_element()
                assert np.abs(phi.lam[1:] - lam).max() <= 1e-12
                assert np.abs(phi.C[1:] - conts).max() <= 1e-12
                ell = np.array([rng.uniform(-1, 1) for _ in range(n)])
                q = random_behavioral(g, i, rng).values
                hull.observe_utility(ell, q)
                ref.observe_utility(ell, q)
            compared += 1
    assert compared >= 12


def test_mixed_iterates_are_deviation_fixed_points():
    g = efce.builtin_game("fig1", seed=0)
    rng = random.Random(3)
    mixed = efce.MixedTriggerMinimizer(g, 0)
    for _ in range(30):
        q = mixed.next_element()
        efce.validate_strategy(g, q)
        ell = np.array([rng.uniform(-1, 1) for _ in range(9)])
        mixed.observe_utility(ell)


def test_mixed_alternation_enforced():
    g = efce.builtin_game("fig1", seed=0)
    mixed = efce.MixedTriggerMinimizer(g, 0)
    with pytest.raises(efce.CallOrderError):
        mixed.observe_utility(np.zeros(9))
    mixed.next_element()
    with pytest.raises(efce.CallOrderError):
        mixed.next_element()


def test_mixed_accepts_utility_vector_objects():
    g = efce.builtin_game("fig1", seed=0)
    mixed = efce.MixedTriggerMinimizer(g, 0)
    mixed.next_element()
    profile = [efce.uniform_strategy(g, i) for i in range(2)]
    mixed.observe_utility(efce.utility_vector(g, 0, profile))
    q = mixed.next_element()
    efce.validate_strategy(g, q)


def test_pure_minimizer_plays_vertices():
    g = efce.builtin_game("kuhn3")
    rng = random.Random(1)
    pure = efce.PureTriggerMinimizer(g, 0, rng)
    for _ in range(20):
        pi = pure.next_element()
        assert pi.is_deterministic()
        efce.validate_strategy(g, pi)
        assert efce.is_valid_strategy(g, pure.last_mixed)
        ell = np.array([rng.uniform(-1, 1) for _ in range(13)])
        pure.observe_utility(ell)


def test_meter_single_round_matches_hand_computation():
    g = efce.builtin_game("fig1", seed=0)
    meter = efce.PhiRegretMeter(g, 0)
    played = np.zeros(9)
    played[0] = played[1] = played[3] = 1.0
    ell = np.zeros(9)
    ell[3] = 1.0
    ell[4] = 2.0
    ell[7] = 5.0
    meter.record(ell, played)
    # trigger 1: play seq 4 instead of 3 gains 2 - 1 = 1; trigger 3: 2 - 1 = 1;
    # switching at the root to sequence 2 then 7 earns 5 against 1 followed
    assert meter.regret() == pytest.approx(4.0)


def test_meter_accumulates_over_rounds():
    g = efce.builtin_game("fig1", seed=0)
    meter = efce.PhiRegretMeter(g, 0)
    played = np.zeros(9)
    played[0] = played[2] = played[8] = 1.0
    ell = np.zeros(9)
    ell[8] = -1.0
    ell[7] = 3.0
    for t in range(1, 4):
        meter.record(ell, played)
        # trigger 8 rethreads nothing; trigger 2 or 8's parent: moving to 7
        assert meter.regret() == pytest.approx(4.0 * t)


def test_meter_no_infosets_zero():
    g = efce.parse_game("players 1; root z; leaf z {3}")
    meter = efce.PhiRegretMeter(g, 0)
    assert meter.regret() == 0.0


def test_meter_handles_mixed_played_vectors():
    g = efce.builtin_game("fig1", seed=0)
    rng = random.Random(5)
    meter = efce.PhiRegretMeter(g, 0)
    q = random_behavioral(g, 0, rng)
    ell = np.array([rng.uniform(-1, 1) for _ in range(9)])
    meter.record(ell, q.values)
    assert np.isfinite(meter.regret())


def _reference_subtree_best(game, player, vec, gid):
    """The meter's former recursive walk: best continuation value below gid."""
    best = None
    for sid in game.infosets[gid].seq_ids:
        v = float(vec[sid])
        for child in game.child_infosets(player, sid):
            v += _reference_subtree_best(game, player, vec, child)
        if best is None or v > best:
            best = v
    return best


def test_meter_pass_matches_recursive_reference():
    games = [efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(16)]
    assert {g.n_players for g in games} == {1, 2, 3}
    rng = random.Random(11)
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            if n == 1:
                continue
            meter = efce.PhiRegretMeter(g, i)
            for _ in range(50):
                played = random_behavioral(g, i, rng).values
                ell = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
                meter.record(ell, played)
                values, _ = meter.best_pass()
                want = np.zeros(n)
                for sid in range(1, n):
                    gid = int(g.seq_infoset(i)[sid])
                    want[sid] = _reference_subtree_best(g, i, meter.tables[sid], gid)
                assert np.abs(values[1:] - want[1:]).max() <= 1e-12
                want_regret = float(np.max(want[1:] - meter.follow[1:]))
                assert abs(meter.regret() - want_regret) <= 1e-12


def test_hull_rejects_bad_utility_and_point():
    # a NaN utility once made every regret NaN, and every later round uniform
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    hull.next_element()
    q = efce.uniform_strategy(g, 0).values
    ell = np.arange(9.0)
    for bad_ell, bad_q in [(np.full(9, np.nan), q), (ell, np.full(9, np.inf)),
                           (np.zeros(8), q), (ell, np.zeros(10))]:
        with pytest.raises(ValueError):
            hull.observe_utility(bad_ell, bad_q)
    # the round stays open, and the state untouched
    assert not hull.regrets.any()
    hull.observe_utility(ell, q)
    assert np.isfinite(hull.regrets).all()
    hull.next_element()


def test_meter_rejects_bad_utility_and_played_point():
    # an inf utility once made regret() NaN
    g = efce.builtin_game("fig1", seed=0)
    meter = efce.PhiRegretMeter(g, 0)
    played = efce.uniform_strategy(g, 0).values
    ell = np.arange(9.0)
    bad_ell = ell.copy()
    bad_ell[4] = np.inf
    bad_played = played.copy()
    bad_played[2] = np.nan
    for args in [(bad_ell, played), (ell, bad_played), (ell[:8], played), (ell, played[:8])]:
        with pytest.raises(ValueError):
            meter.record(*args)
    assert not meter.tables.any()
    meter.record(ell, played)
    assert np.isfinite(meter.regret())


def test_group_mixed_deals_in_per_player_strategies_and_joint_utility():
    g = efce.builtin_game("fig1", seed=0)
    mixed = efce.MixedTriggerMinimizer(g, (0, 1))
    n0, n1 = g.num_sequences(0), g.num_sequences(1)
    for _ in range(3):
        points = mixed.next_element()
        assert points is mixed.last_mixed
        assert [p.player for p in points] == [0, 1]
        for p in points:
            efce.validate_strategy(g, p)
        with pytest.raises(ValueError):
            mixed.observe_utility(np.zeros(n0 + n1 - 1))
        with pytest.raises(ValueError):
            mixed.observe_utility([np.zeros(n0), np.zeros(n1 + 1)])
        mixed.observe_utility(np.arange(n0 + n1, dtype=float))


def _group_reference_games():
    games = [efce.builtin_game("fig1", seed=s) for s in range(5)]
    games.append(efce.builtin_game("kuhn3"))
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    return games


def test_group_learner_matches_one_player_learners():
    # The players' learners share no entry, so stepping them as one group
    # must give each player the iterates of its own one-player learner.
    for g in _group_reference_games():
        n = g.n_players
        players = tuple(range(n))
        group = efce.PureTriggerMinimizer(g, players, efce.split_rngs(0, n))
        singles = [efce.PureTriggerMinimizer(g, i, rng)
                   for i, rng in enumerate(efce.split_rngs(0, n))]
        freq = efce.EmpiricalFrequency(g)
        meters = [efce.PhiRegretMeter(g, i) for i in players]
        for t in range(1, 65):
            profile = group.next_element()
            for i in players:
                pure = singles[i].next_element()
                assert np.array_equal(profile[i].values, pure.values), (g.name, t, i)
                assert np.abs(group.last_mixed[i].values
                              - singles[i].last_mixed.values).max() <= 1e-12
            utils = freq.accumulate(profile)
            group.observe_utility(freq.utility)
            for i in players:
                singles[i].observe_utility(utils[i])
                meters[i].record(utils[i].coefficients, profile[i].values)
            regrets = freq.meter.regret()
            assert len(regrets) == n
            for i in players:
                assert abs(regrets[i] - meters[i].regret()) <= 1e-9
            report = efce.efce_gap(freq)
            for i in players:
                best, _ = meters[i].best_pass()
                gaps = (best - meters[i].follow) / t
                assert np.abs(report.trigger_gaps[i][1:] - gaps[1:]).max(initial=0.0) <= 1e-9
                want = float(gaps[1:].max()) if gaps.size > 1 else 0.0
                assert abs(report.per_player[i] - want) <= 1e-9
