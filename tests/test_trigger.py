import random
from collections import Counter

import numpy as np
import pytest

import efce
from conftest import kernel_games, random_behavioral, reference_complete
from efce.trigger import _complete


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
    # random trees 8-63 run 32 rounds each, to hold the runtime
    games = [(efce.builtin_game("fig1", seed=0), 200), (efce.builtin_game("kuhn3"), 200)]
    games += [(efce.builtin_game("random-tree", seed=s), 200 if s < 8 else 32)
              for s in range(64)]
    rng = random.Random(31)
    compared = 0
    for g, rounds in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            if n == 1:
                continue
            hull = efce.HullMinimizer(g, i)
            ref = _ReferenceHull(g, i)
            for _ in range(rounds):
                phi = hull.next_element()
                lam, conts = ref.next_element()
                assert np.abs(phi.lam[1:] - lam).max() <= 1e-12
                assert np.abs(phi.C[1:] - conts).max() <= 1e-12
                ell = np.array([rng.uniform(-1, 1) for _ in range(n)])
                q = random_behavioral(g, i, rng).values
                hull.observe_utility(ell, q)
                ref.observe_utility(ell, q)
            compared += 1
    assert compared >= 100


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


def test_mixed_rejects_another_players_utility_vector():
    # on kuhn3 both players have 13 sequences, so player 2's vector was
    # once taken by player 1's learner
    g = efce.builtin_game("kuhn3")
    mixed = efce.MixedTriggerMinimizer(g, 0)
    mixed.next_element()
    profile = [efce.uniform_strategy(g, i) for i in range(2)]
    with pytest.raises(ValueError, match="player 2"):
        mixed.observe_utility(efce.utility_vector(g, 1, profile))
    # the round stays open, and the state untouched
    assert not mixed.hull.regrets.any()
    mixed.observe_utility(efce.utility_vector(g, 0, profile))
    mixed.next_element()


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


def test_group_pure_minimizer_needs_one_stream_per_player():
    # A single stream once raised TypeError only at the first next_element,
    # one stream in a list gave a one-strategy profile, and three streams
    # for two players went unnoticed.
    g = efce.builtin_game("kuhn3")
    for rng in (random.Random(0), efce.split_rngs(0, 1), efce.split_rngs(0, 3)):
        with pytest.raises(ValueError, match="one random stream per player"):
            efce.PureTriggerMinimizer(g, (0, 1), rng)
    # Groups given as lists keep working, as do streams given as a tuple.
    pure = efce.PureTriggerMinimizer(g, [0, 1], tuple(efce.split_rngs(0, 2)))
    assert [p.player for p in pure.next_element()] == [0, 1]


def test_one_player_pure_minimizer_needs_a_random_stream():
    # These were accepted and raised AttributeError at the first next_element.
    g = efce.builtin_game("kuhn3")
    for rng in ([random.Random(0)], None, 5, object()):
        with pytest.raises(ValueError, match="random stream"):
            efce.PureTriggerMinimizer(g, 0, rng)
    assert efce.PureTriggerMinimizer(g, 1, random.Random(0)).next_element().player == 1


def test_group_pure_minimizer_needs_random_streams():
    # [1, 2] once built a learner whose first next_element raised
    # AttributeError after the hull had advanced, and every later call
    # CallOrderError.
    g = efce.builtin_game("fig1", seed=0)
    for rng in ([1, 2], (random.Random(0), None), [object(), random.Random(1)]):
        with pytest.raises(ValueError, match="random stream with a random"):
            efce.PureTriggerMinimizer(g, (0, 1), rng)


def test_self_play_deviations_are_valid_by_construction(monkeypatch):
    # The hull builds its deviations unchecked, since its arrays are valid by
    # construction; every one of them must be.
    hull_next = efce.HullMinimizer.next_element
    checked = []

    def next_checked(hull):
        phi = hull_next(hull)
        plan = hull.plan
        assert np.isfinite(phi.conts).all() and phi.conts.min(initial=0.0) >= 0.0
        assert phi.lam.min() >= 0.0 and not phi.lam[plan.offsets].any()
        totals = np.add.reduceat(phi.lam, plan.offsets)
        assert np.where(plan.sizes > 1, np.abs(totals - 1.0) <= 1e-9, totals == 0.0).all()
        checked.append(phi)
        return phi

    monkeypatch.setattr(efce.HullMinimizer, "next_element", next_checked)
    games = kernel_games()
    for g in games:
        efce.run(g, 32, 0)
    assert len(checked) == 32 * len(games)


def test_non_finite_hull_state_still_raises_in_fixed_point():
    # next_element once rejected the deviation of an overflowed hull;
    # unchecked, it must still be rejected by fixed_point.
    g = efce.builtin_game("kuhn3")
    for player in (0, (0, 1)):
        for name in ("_regrets", "mixer_regrets"):
            for entries in (slice(None), slice(1, 2)):
                mixed = efce.MixedTriggerMinimizer(g, player)
                for _ in range(2):
                    mixed.next_element()
                    mixed.observe_utility(np.ones(mixed.hull.plan.owner.size))
                getattr(mixed.hull, name)[entries] = np.inf
                with np.errstate(invalid="ignore"):
                    phi = mixed.hull.next_element()
                    with pytest.raises(ValueError, match="must be finite"):
                        efce.fixed_point(g, phi)
                    mixed.hull._phi = None
                    with pytest.raises(ValueError, match="must be finite"):
                        mixed.next_element()


def test_a_failed_solve_closes_the_hulls_round(monkeypatch):
    # A fixed_point that raised once left the hull's round open, so
    # observe_utility took the next utility against the last solved point,
    # not the fixed point of the open round's deviation.
    g = efce.builtin_game("fig1", seed=0)
    ell = np.array([random.Random(3).uniform(-1, 1) for _ in range(9)])
    clean, failed = efce.MixedTriggerMinimizer(g, 0), efce.MixedTriggerMinimizer(g, 0)
    for learner in (clean, failed):
        learner.next_element()
        learner.observe_utility(ell)
    solve = efce.trigger.fixed_point

    def fail(game, phi, fp_tol=1e-10):
        raise efce.NumericalError("fixed point missed its tolerance")

    monkeypatch.setattr(efce.trigger, "fixed_point", fail)
    with pytest.raises(efce.NumericalError):
        failed.next_element()
    assert failed._solved is None
    with pytest.raises(efce.CallOrderError):
        failed.observe_utility(ell)
    monkeypatch.setattr(efce.trigger, "fixed_point", solve)
    # The deviation is tried again, and the rounds go on as if nothing failed.
    for _ in range(3):
        want, got = clean.next_element(), failed.next_element()
        assert np.array_equal(want.values, got.values)
        clean.observe_utility(ell)
        failed.observe_utility(ell)
        assert np.array_equal(clean.hull._regrets, failed.hull._regrets)
        assert np.array_equal(clean.hull.mixer_regrets, failed.hull.mixer_regrets)


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
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
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
                regrets, _, _ = meter.best_pass()
                want = np.zeros(n)
                for sid in range(1, n):
                    gid = int(g.seq_infoset(i)[sid])
                    want[sid] = _reference_subtree_best(g, i, meter.tables[sid], gid)
                assert regrets[0] == -np.inf
                assert np.abs(regrets[1:] - (want[1:] - meter.follow[1:])).max() <= 1e-12
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


def test_played_points_are_fixed_points_and_most_rounds_reuse_one(monkeypatch):
    # Every round plays its deviation's fixed point bit for bit, whether
    # solved that round or kept from the round that built the deviation; on
    # fig1 and the random trees most rounds repeat the last deviation.
    played = []
    solves = Counter()
    step = efce.trigger.MixedTriggerMinimizer.next_element
    solve = efce.trigger.fixed_point

    def spy_step(learner):
        out = step(learner)
        played.append((learner.game, learner.hull._phi, learner._values.copy()))
        return out

    def spy_solve(game, phi, fp_tol=1e-10):
        solves[game] += 1
        return solve(game, phi, fp_tol)

    monkeypatch.setattr(efce.trigger.MixedTriggerMinimizer, "next_element", spy_step)
    monkeypatch.setattr(efce.trigger, "fixed_point", spy_solve)
    workloads = {"fig1": ([efce.builtin_game("fig1", seed=s) for s in range(5)], 512),
                 "random-trees": ([efce.builtin_game("random-tree", seed=s)
                                   for s in range(64)], 32),
                 "kuhn3": ([efce.builtin_game("kuhn3")], 64)}
    for name, (games, rounds) in workloads.items():
        played.clear()
        for g in games:
            efce.run(g, rounds, 0, gap_every=rounds)
        assert len(played) == rounds * len(games)
        for g, phi, point in played:
            assert np.array_equal(point, efce.fixed_point(g, phi))
        n_solves = sum(solves[g] for g in games)
        assert 0 < n_solves <= len(played)
        if name != "kuhn3":
            assert n_solves < len(played) / 2, name


def test_hull_repeats_its_deviation_while_positive_regrets_are_unchanged():
    g = efce.builtin_game("fig1", seed=0)
    hull = efce.HullMinimizer(g, 0)
    rng = random.Random(7)
    q = efce.uniform_strategy(g, 0).values
    zero = np.zeros(9)
    for _ in range(6):
        hull.next_element()
        hull.observe_utility(np.array([rng.uniform(-1, 1) for _ in range(9)]), q)
    phi = hull.next_element()
    for regrets in (hull._regrets, hull.mixer_regrets):
        assert (regrets > 0.0).any() and (regrets < 0.0).any()
    # A zero utility moves no regret.
    hull.observe_utility(zero, q)
    assert hull.next_element() is phi
    # Negative regrets pushed further down leave every positive part as it was.
    hull.observe_utility(zero, q)
    hull._regrets[hull._regrets < 0.0] *= 2.0
    hull.mixer_regrets[hull.mixer_regrets < 0.0] -= 1.0
    assert hull.next_element() is phi
    # Making a negative regret of either array positive builds a new deviation.
    for regrets in (hull._regrets, hull.mixer_regrets):
        hull.observe_utility(zero, q)
        regrets[np.argmin(regrets)] = regrets.max()
        new = hull.next_element()
        assert new is not phi
        phi = new


def test_hull_deviations_are_read_only():
    # The hull hands out the same object while its deviation repeats, so no
    # caller may change it.
    g = efce.builtin_game("kuhn3")
    for player in (0, (0, 1)):
        phi = efce.HullMinimizer(g, player).next_element()
        for arr in (phi.lam, phi.conts):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0


def test_changing_last_mixed_does_not_change_a_later_round():
    # A repeated deviation's fixed point is kept, and each round hands out a
    # copy of it: writing to the returned strategy, before or after the round
    # is observed, cannot reach the hull or a later round.  The hull was once
    # fed the copy itself: a 7.0 written into it raised at observe_utility,
    # and a 0.5 moved the regrets.
    g = efce.builtin_game("fig1", seed=0)
    rng = random.Random(5)
    for player in (0, (0, 1)):
        clean, scribbled = (efce.MixedTriggerMinimizer(g, player) for _ in range(2))
        n = clean.hull.plan.owner.size
        repeats, last = 0, None
        for r in range(20):
            want, got = clean.next_element(), scribbled.next_element()
            want, got = ([want], [got]) if player == 0 else (want, got)
            for w, p in zip(want, got):
                assert np.array_equal(w.values, p.values)
            repeats += scribbled.hull._phi is last
            last = scribbled.hull._phi
            # Every other utility is zero, which repeats the deviation.
            ell = np.zeros(n) if r % 2 else np.array([rng.uniform(-1, 1) for _ in range(n)])
            for p in got:
                p.values[:] = 7.0 if r % 2 else 0.5
            clean.observe_utility(ell)
            scribbled.observe_utility(ell)
            assert np.array_equal(clean.hull._regrets, scribbled.hull._regrets)
            assert np.array_equal(clean.hull.mixer_regrets, scribbled.hull.mixer_regrets)
            for p in got:
                p.values[:] = 7.0
        assert repeats >= 9


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
                gaps = meters[i].best_pass()[0] / t
                assert np.abs(report.trigger_gaps[i][1:] - gaps[1:]).max(initial=0.0) <= 1e-9
                want = float(gaps[1:].max()) if gaps.size > 1 else 0.0
                assert abs(report.per_player[i] - want) <= 1e-9


def test_per_trigger_state_holds_one_entry_per_pair():
    # One entry per (trigger, sequence at or below the trigger's infoset):
    # on kuhn3's group plan 60 entries, not the 26 x 26 of a dense array.
    def sizes(g):
        players = tuple(range(g.n_players))
        hull = efce.HullMinimizer(g, players)
        phi = hull.next_element()
        return hull._regrets.size, efce.PhiRegretMeter(g, players)._tables.size, phi.conts.size

    assert sizes(efce.builtin_game("kuhn3")) == (60, 60, 60)
    totals = np.sum([sizes(efce.builtin_game("random-tree", seed=s)) for s in range(64)], axis=0)
    assert totals.tolist() == [3511] * 3


def test_segment_values_match_per_pair_reference():
    # _complete returns one value per (infoset, trigger) segment and a
    # trailing 0; taken at each pair's segment, they are the per-pair
    # values the reference scatters, bit for bit, in both modes.
    rng = np.random.default_rng(7)
    for g in kernel_games():
        plan = g.player_plan(tuple(range(g.n_players)))
        n_segments = plan.segment[-1] + 1 if plan.segment.size else 0
        for _ in range(3):
            vals = rng.normal(size=plan.pair_seq.size)
            local = rng.uniform(size=plan.pair_seq.size)
            for mode in (None, local):
                got_vals, want_vals = vals.copy(), vals.copy()
                segs = _complete(plan, got_vals, mode)
                want = reference_complete(plan, want_vals, mode)
                assert segs.shape == (n_segments + 1,) and segs[-1] == 0.0
                assert np.array_equal(segs.take(plan.segment), want)
                assert np.array_equal(got_vals, want_vals)


def test_best_pass_matches_per_pair_reference():
    # The meter reads each trigger's value at its own segment; the former
    # pass read it at the pair (s, s) of the per-pair values.
    rng = random.Random(3)
    for g in kernel_games():
        players = tuple(range(g.n_players))
        plan = g.player_plan(players)
        meter = efce.PhiRegretMeter(g, players)
        n = plan.owner.size
        for _ in range(4):
            played = np.concatenate([random_behavioral(g, i, rng).values for i in players])
            meter.record(np.array([rng.uniform(-1.0, 1.0) for _ in range(n)]), played)
            regrets, largest, completed = meter.best_pass()
            want_completed = meter._tables.copy()
            want = np.append(reference_complete(plan, want_completed), 0.0).take(plan.own)
            want -= meter.follow
            want[plan.offsets] = -np.inf
            assert np.array_equal(regrets, want)
            assert largest == [float(want[a + 1:b].max()) if b - a > 1 else 0.0
                               for _, a, b in plan.spans]
            assert np.array_equal(completed, want_completed)
