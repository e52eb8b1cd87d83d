import random

import numpy as np
import pytest

import efce
from conftest import (brute_expected_payoffs, mixed_point, random_behavioral, reference_games,
                      reference_sample_pure, reference_utility_vector)


def test_uniform_full_tree():
    g = efce.builtin_game("fig1", seed=0)
    u = efce.uniform_strategy(g, 0)
    assert np.allclose(u.values, [1, .5, .5, .25, .25, .25, .25, .25, .25])
    efce.validate_strategy(g, u)
    u2 = efce.uniform_strategy(g, 1)
    assert np.allclose(u2.values, [1, .5, .5, .5, .5])


def test_uniform_subtree():
    g = efce.builtin_game("fig1", seed=0)
    B = g.infoset(0, "B").index
    u = efce.uniform_strategy(g, 0, root=B)
    want = np.zeros(9)
    want[3] = want[4] = 0.5
    assert np.allclose(u.values, want)
    efce.validate_strategy(g, u)
    assert u.root == B


def test_uniform_no_infosets():
    g = efce.parse_game("players 1; root z; leaf z {0}")
    u = efce.uniform_strategy(g, 0)
    assert np.allclose(u.values, [1.0])
    efce.validate_strategy(g, u)


def test_sequence_from_behavioral():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    C = g.infoset(0, "C").index
    D = g.infoset(0, "D").index
    local = {
        A: np.array([1 / 3, 2 / 3]),
        B: np.array([1.0, 0.0]),
        C: np.array([0.2, 0.8]),
        D: np.array([0.0, 1.0]),
    }
    q = efce.sequence_from_behavioral(g, 0, local)
    want = [1, 1 / 3, 2 / 3, 1 / 3, 0, 1 / 3 * 0.2, 1 / 3 * 0.8, 0, 2 / 3]
    assert np.allclose(q.values, want)
    efce.validate_strategy(g, q)


def test_sequence_from_behavioral_checks_each_distribution_length():
    # On fig1, one entry per infoset was broadcast to every action, which gave
    # every sequence the value 1.0 and no error.
    g = efce.builtin_game("fig1", seed=0)
    isets = g.player_infosets(0)
    good = {gid: np.full(len(g.infosets[gid].actions), 0.5) for gid in isets}
    efce.validate_strategy(g, efce.sequence_from_behavioral(g, 0, good))
    for bad in ([1.0], [0.2, 0.3, 0.5], 1.0, [[0.5, 0.5]]):
        local = dict(good)
        local[isets[-1]] = bad
        label = g.infosets[isets[-1]].label
        with pytest.raises(ValueError, match=f"information set '{label}' needs one probability"):
            efce.sequence_from_behavioral(g, 0, local)


def test_mixed_strategy_example_is_valid():
    g = efce.builtin_game("fig1", seed=0)
    q = efce.SequenceFormStrategy(0, np.array([1, .5, .5, .25, .25, .1, .4, 0, .5]), None)
    efce.validate_strategy(g, q)
    # conditional action probabilities at each infoset
    assert q.values[3] / q.values[1] == pytest.approx(0.5)
    assert q.values[5] / q.values[1] == pytest.approx(0.2)
    assert q.values[6] / q.values[1] == pytest.approx(0.8)
    assert q.values[7] / q.values[2] == pytest.approx(0.0)
    assert q.values[8] / q.values[2] == pytest.approx(1.0)


def test_validate_rejects_bad_vectors():
    g = efce.builtin_game("fig1", seed=0)
    bad_mass = np.array([0.9, .5, .4, .25, .25, .25, .25, .25, .25])
    with pytest.raises(ValueError):
        efce.validate_strategy(g, efce.SequenceFormStrategy(0, bad_mass, None))
    bad_flow = np.array([1, .5, .5, .3, .3, .25, .25, .25, .25])
    with pytest.raises(ValueError):
        efce.validate_strategy(g, efce.SequenceFormStrategy(0, bad_flow, None))
    negative = np.array([1, 1.5, -.5, .75, .75, .75, .75, -.25, -.25])
    with pytest.raises(ValueError):
        efce.validate_strategy(g, efce.SequenceFormStrategy(0, negative, None))
    outside = np.zeros(9)
    outside[3] = outside[4] = 0.5
    outside[7] = 0.1
    B = g.infoset(0, "B").index
    with pytest.raises(ValueError):
        efce.validate_strategy(g, efce.SequenceFormStrategy(0, outside, B))
    not_a_number = efce.uniform_strategy(g, 0).values
    not_a_number[3] = np.nan
    with pytest.raises(ValueError):
        efce.validate_strategy(g, efce.SequenceFormStrategy(0, not_a_number, None))
    assert not efce.is_valid_strategy(g, efce.SequenceFormStrategy(0, bad_flow, None))


def test_validate_reports_wrong_shape():
    g = efce.builtin_game("fig1", seed=0)
    scalar = efce.SequenceFormStrategy(0, 1.0, None)
    with pytest.raises(ValueError, match=r"shape \(\), expected \(9,\)"):
        efce.validate_strategy(g, scalar)
    assert not efce.is_valid_strategy(g, scalar)
    square = efce.SequenceFormStrategy(0, np.eye(9), None)
    with pytest.raises(ValueError, match=r"shape \(9, 9\), expected \(9,\)"):
        efce.validate_strategy(g, square)
    assert not efce.is_valid_strategy(g, square)


def test_subtree_root_of_another_player_rejected():
    g = efce.builtin_game("fig1", seed=0)
    R = g.infoset(1, "R").index
    calls = [
        lambda: efce.subtree_best_response(g, 0, np.arange(9.0), root=R),
        lambda: efce.uniform_strategy(g, 0, root=R),
        lambda: list(efce.enumerate_pure(g, 0, root=R)),
        lambda: efce.enumerate_pure(g, 0, root=R),  # checked before the first draw
        lambda: efce.sequence_from_behavioral(g, 0, {R: [.5, .5]}, root=R),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different player"):
            call()


def test_enumerate_pure_matches_counts():
    for name, seed in [("fig1", 0), ("kuhn3", None)]:
        g = efce.builtin_game(name, seed=seed)
        for i in range(g.n_players):
            pures = list(efce.enumerate_pure(g, i))
            assert len(pures) == g.pure_count(i)
            seen = {tuple(p.values) for p in pures}
            assert len(seen) == len(pures)
            for p in pures:
                assert p.is_deterministic()
                efce.validate_strategy(g, p)


def test_enumerate_pure_subtree():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    assert len(list(efce.enumerate_pure(g, 0, root=A))) == 6
    subs = list(efce.enumerate_pure(g, 0, root=B))
    assert len(subs) == 2
    for p in subs:
        efce.validate_strategy(g, p)
        assert p.values[efce.EMPTY_SEQ] == 0.0


def test_sampling_is_unbiased_and_consistent():
    g = efce.builtin_game("fig1", seed=0)
    q = np.array([1, .5, .5, .25, .25, .1, .4, 0, .5])
    strat = efce.SequenceFormStrategy(0, q.copy(), None)
    rng = random.Random(11)
    acc = np.zeros(9)
    n = 4000
    for _ in range(n):
        pi = efce.sample_pure(g, strat, rng)
        assert pi.is_deterministic()
        efce.validate_strategy(g, pi)
        acc += pi.values
    freq = acc / n
    tol = 5 * np.sqrt(q * (1 - q) / n) + 1e-12
    assert (np.abs(freq - q) <= tol).all()
    assert acc[7] == 0.0


def test_sampling_is_unbiased_on_random_trees():
    # About 30% of infosets give their first action probability 0, so each
    # game mixes interior and zero-mass sequences.
    rng = random.Random(17)
    n = 2000
    zero_mass = 0
    for s in range(64):
        g = efce.builtin_game("random-tree", seed=s)
        for i in range(g.n_players):
            if g.num_sequences(i) == 1:
                continue
            local = {}
            for gid in g.player_infosets(i):
                raw = np.array([rng.random() + 1e-3 for _ in g.infosets[gid].actions])
                if rng.random() < 0.3:
                    raw[0] = 0.0
                local[gid] = raw / raw.sum()
            q = efce.sequence_from_behavioral(g, i, local).values
            acc = np.zeros_like(q)
            for _ in range(n):
                acc += efce.sample_pure(g, efce.SequenceFormStrategy(i, q, None), rng).values
            tol = 5 * np.sqrt(q * (1 - q) / n) + 1e-12
            assert (np.abs(acc / n - q) <= tol).all()
            assert (acc[q == 0.0] == 0.0).all()
            zero_mass += int((q == 0.0).sum())
    assert zero_mass > 0


def test_sampling_requires_full_scope():
    g = efce.builtin_game("fig1", seed=0)
    B = g.infoset(0, "B").index
    scoped = efce.uniform_strategy(g, 0, root=B)
    with pytest.raises(ValueError):
        efce.sample_pure(g, scoped, random.Random(0))


def test_sampling_deterministic_strategy_is_identity():
    g = efce.builtin_game("fig1", seed=0)
    rng = random.Random(5)
    for p in efce.enumerate_pure(g, 0):
        out = efce.sample_pure(g, p, rng)
        assert np.array_equal(out.values, p.values)


def test_sampling_matches_reference_walk():
    # Same vectors and the same draws as the per-infoset walk, also on points
    # off the polytope: an infoset whose actions all lack mass (both raise
    # where a draw reaches it), a scaled point, and one without mass on the
    # empty sequence.
    rng = random.Random(23)
    raised = 0
    for g in reference_games():
        for i in range(g.n_players):
            points = [mixed_point(g, i, rng).values for _ in range(4)]
            isets = g.player_infosets(i)
            if isets:
                points.append(points[0].copy())
                points[-1][list(g.infosets[rng.choice(isets)].seq_ids)] = 0.0
            points += [0.5 * points[1], points[2].copy()]
            points[-1][efce.EMPTY_SEQ] = 0.0
            for k, q in enumerate(points):
                strat = efce.SequenceFormStrategy(i, q)
                got_rng, want_rng = random.Random(k), random.Random(k)
                for _ in range(3):
                    try:
                        want = reference_sample_pure(g, strat, want_rng)
                    except ValueError:
                        with pytest.raises(ValueError, match="give no action to sample"):
                            efce.sample_pure(g, strat, got_rng)
                        raised += 1
                    else:
                        assert np.array_equal(efce.sample_pure(g, strat, got_rng).values, want)
                    assert got_rng.getstate() == want_rng.getstate()
    assert raised


def test_sampling_rejects_a_reached_infoset_without_a_choice():
    # Player 1's uniform kuhn3 strategy with nan actions at an infoset below
    # the root: a draw that reached it played no action there and returned a
    # strategy off the polytope.  A nan on the empty sequence sampled from
    # the remaining masses.  Each draw now raises, or gives a valid strategy.
    g = efce.builtin_game("kuhn3")
    uniform = efce.uniform_strategy(g, 0)
    deep = next(gid for gid in g.player_infosets(0) if g.infosets[gid].parent_seq)
    label = g.infosets[deep].label
    q = uniform.values.copy()
    q[list(g.infosets[deep].seq_ids)] = np.nan
    raised = 0
    for seed in range(50):
        try:
            out = efce.sample_pure(g, efce.SequenceFormStrategy(0, q), random.Random(seed))
        except ValueError as exc:
            assert f"information set '{label}' of player 1 is reached" in str(exc)
            raised += 1
        else:
            assert efce.is_valid_strategy(g, out)
    assert 0 < raised < 50
    root = uniform.values.copy()
    root[efce.EMPTY_SEQ] = np.nan
    with pytest.raises(ValueError, match="weights are nan or give no action to sample"):
        efce.sample_pure(g, efce.SequenceFormStrategy(0, root), random.Random(0))
    # A parent without mass still leaves its subtree at zero.
    zero = uniform.values.copy()
    zero[g.infosets[deep].parent_seq] = 0.0
    zero[list(g.infosets[deep].seq_ids)] = 0.0
    for seed in range(20):
        out = efce.sample_pure(g, efce.SequenceFormStrategy(0, zero), random.Random(seed))
        assert not out.values[list(g.infosets[deep].seq_ids)].any()


def test_sampling_rejects_bad_lengths_and_players():
    # A short vector raised IndexError, and a long one was sampled by its head.
    g = efce.builtin_game("fig1", seed=0)
    rng = random.Random(0)
    for bad in (np.full(4, 0.5), np.full(12, 0.5), np.ones((1, 9))):
        with pytest.raises(ValueError, match=r"expected \(9,\)"):
            efce.sample_pure(g, efce.SequenceFormStrategy(0, bad), rng)
    for p in (-1, 2):
        with pytest.raises(ValueError, match=f"player {p} is not one of players 0 to 1"):
            efce.sample_pure(g, efce.SequenceFormStrategy(p, np.ones(9)), rng)


def test_utility_vector_matches_reference_scorer():
    rng = random.Random(29)
    for g in reference_games():
        for _ in range(3):
            profile = [mixed_point(g, i, rng) for i in range(g.n_players)]
            for i in range(g.n_players):
                want = reference_utility_vector(g, i, profile)
                assert np.array_equal(efce.utility_vector(g, i, profile).coefficients, want)


def test_utility_vector_rejects_bad_profiles():
    # A swapped profile once scored player 1 against player 1's own strategy.
    g = efce.builtin_game("fig1", seed=0)
    p1, p2 = efce.uniform_strategy(g, 0), efce.uniform_strategy(g, 1)
    scoped = efce.uniform_strategy(g, 0, root=g.infoset(0, "B").index)
    short = efce.SequenceFormStrategy(0, np.ones(5))
    for bad in ([p2, p1], [p1], [p1, p2, p2], [scoped, p2], [short, p2], [p1, short]):
        for player in (0, 1):
            with pytest.raises(ValueError, match="one full-tree strategy per player"):
                efce.utility_vector(g, player, bad)


def test_utility_vector_matches_tree_walk():
    rng = random.Random(2)
    games = [efce.builtin_game("fig1", seed=1), efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(6)]
    for g in games:
        for _ in range(3):
            profile = [random_behavioral(g, i, rng) for i in range(g.n_players)]
            expected = brute_expected_payoffs(g, profile)
            for i in range(g.n_players):
                util = efce.utility_vector(g, i, profile)
                got = efce.evaluate(util, profile[i])
                assert got == pytest.approx(expected[i], abs=1e-12)
                assert util.range_bound == g.payoff_range(i)


def test_utility_vector_ignores_own_strategy():
    g = efce.builtin_game("fig1", seed=3)
    rng = random.Random(9)
    other = random_behavioral(g, 1, rng)
    mine_a = random_behavioral(g, 0, rng)
    mine_b = random_behavioral(g, 0, rng)
    ua = efce.utility_vector(g, 0, [mine_a, other])
    ub = efce.utility_vector(g, 0, [mine_b, other])
    assert np.allclose(ua.coefficients, ub.coefficients)


def test_evaluate_rejects_mismatches():
    g = efce.builtin_game("fig1", seed=0)
    profile = [efce.uniform_strategy(g, i) for i in range(2)]
    util = efce.utility_vector(g, 0, profile)
    with pytest.raises(ValueError):
        efce.evaluate(util, profile[1])
    B = g.infoset(0, "B").index
    with pytest.raises(ValueError):
        efce.evaluate(util, efce.uniform_strategy(g, 0, root=B))
    with pytest.raises(ValueError, match="different lengths"):
        efce.evaluate(efce.UtilityVector(0, np.ones(5), 1.0), profile[0])


def test_format_strategy_mentions_sequences():
    g = efce.builtin_game("fig1", seed=0)
    text = efce.format_strategy(g, efce.uniform_strategy(g, 0))
    assert "A:1" in text and "D:8" in text


def test_sequence_from_behavioral_names_a_missing_infoset():
    # {0: [0.5, 0.5]} on fig1 raised a bare KeyError: 3.
    g = efce.builtin_game("fig1", seed=0)
    A, B = g.player_infosets(0)[:2]
    with pytest.raises(ValueError, match=f"'{g.infosets[B].label}' has no action distribution"):
        efce.sequence_from_behavioral(g, 0, {A: [0.5, 0.5]})


def test_format_strategy_checks_the_shape_of_the_values():
    # On fig1, 12 entries rendered the first 9 silently, and 3 raised IndexError.
    g = efce.builtin_game("fig1", seed=0)
    for bad in (np.zeros(12), np.zeros(3), np.zeros((9, 1))):
        with pytest.raises(ValueError, match=r"strategy has shape .*, expected \(9,\)"):
            efce.format_strategy(g, efce.SequenceFormStrategy(0, bad, None))
    assert efce.format_strategy(g, efce.uniform_strategy(g, 0)).startswith("[(empty): 1, A:1: 0.5")
