import functools
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import efce
from conftest import (exact_stationary, fig1_deviations, kernel_games, random_behavioral,
                      random_deviation)
from efce.deviations import _parts
from efce.game import _gather


def _vertex(n, *sids):
    v = np.zeros(n)
    v[0] = 1.0
    for s in sids:
        v[s] = 1.0
    return v


# Trigger matrices for the three worked deviations, written out entry by
# entry.  Rows and columns follow sequence ids 0..8.
EXPECTED_MA = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
], dtype=float)

EXPECTED_MB = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
], dtype=float)

EXPECTED_MC = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
], dtype=float)


def test_trigger_matrices_match_worked_examples():
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    assert np.array_equal(efce.build_matrix(g, da), EXPECTED_MA)
    assert np.array_equal(efce.build_matrix(g, db), EXPECTED_MB)
    assert np.array_equal(efce.build_matrix(g, dc), EXPECTED_MC)


def test_trigger_matrices_map_known_vertices():
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    q135 = _vertex(9, 1, 3, 5)
    q136 = _vertex(9, 1, 3, 6)
    q145 = _vertex(9, 1, 4, 5)
    q27 = _vertex(9, 2, 7)
    q28 = _vertex(9, 2, 8)
    for x in (q135, q136, q145):
        assert np.array_equal(efce.apply_trigger(g, da, x), q27)
    assert np.array_equal(efce.apply_trigger(g, da, q27), q27)
    assert np.array_equal(efce.apply_trigger(g, da, q28), q28)
    for x in (q27, q28):
        assert np.array_equal(efce.apply_trigger(g, db, x), q135)
    assert np.array_equal(efce.apply_trigger(g, db, q136), q136)
    assert np.array_equal(efce.apply_trigger(g, db, q145), q145)
    assert np.array_equal(efce.apply_trigger(g, dc, q135), q145)
    assert np.array_equal(efce.apply_trigger(g, dc, q145), q145)


def test_apply_trigger_matches_matrix_action():
    rng = random.Random(6)
    games = [efce.builtin_game("fig1", seed=0)]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(6)]
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            for sid in range(1, n):
                gid = int(g.seq_infoset(i)[sid])
                cont = random_behavioral(g, i, rng, root=gid)
                dev = efce.TriggerDeviation(i, sid, cont.values)
                m = efce.build_matrix(g, dev)
                x = random_behavioral(g, i, rng)
                assert np.allclose(m @ x.values,
                                   efce.apply_trigger(g, dev, x.values))


def test_untriggered_pure_strategy_is_unchanged():
    g = efce.builtin_game("fig1", seed=0)
    pures = list(efce.enumerate_pure(g, 0))
    for sid in range(1, 9):
        gid = int(g.seq_infoset(0)[sid])
        for cont in efce.enumerate_pure(g, 0, root=gid):
            dev = efce.TriggerDeviation(0, sid, cont.values)
            for p in pures:
                out = efce.apply_trigger(g, dev, p.values)
                if p.values[sid] == 0.0:
                    assert np.array_equal(out, p.values)
                else:
                    sub = g.subtree_seq_mask(gid)
                    assert np.array_equal(out[sub], cont.values[sub])
                    assert np.array_equal(out[~sub], p.values[~sub])


def test_deviation_output_stays_in_polytope():
    rng = random.Random(8)
    games = [efce.builtin_game("fig1", seed=0),
             efce.builtin_game("kuhn3")]
    for g in games:
        for i in range(g.n_players):
            for _ in range(5):
                phi = random_deviation(g, i, rng)
                x = random_behavioral(g, i, rng)
                out = efce.apply_deviation(g, phi, x.values)
                efce.validate_strategy(g, efce.SequenceFormStrategy(i, out, None))


def test_convex_deviation_validation():
    g = efce.builtin_game("fig1", seed=0)
    cont = np.zeros(9)
    cont[1] = cont[3] = cont[5] = 1.0
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(efce.EMPTY_SEQ, 1.0, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(1, -0.5, cont), (2, 1.5, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(1, 0.4, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(3, 1.0, cont), (4, np.nan, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(3, np.nan, cont)])
    # trigger ids must be non-empty sequence ids: -1 once wrapped to 8
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(-1, 1.0, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(g, 0, [(9, 1.0, cont)])
    empty = efce.ConvexTriggerDeviation(g, 0, [])
    assert empty.terms == []
    x = efce.uniform_strategy(g, 0)
    assert np.allclose(efce.apply_deviation(g, empty, x.values), x.values)


def test_entries_trigger_ids_must_be_integers_and_continuations_one_length():
    # 1.7 and "1" were both read as trigger 1, and a 5-entry continuation
    # beside 13-entry ones failed only in fixed_point, with numpy's message.
    # Every continuation has the plan's length, checked as it is built.
    g = efce.builtin_game("kuhn3")
    cont = efce.uniform_strategy(g, 0, root=int(g.seq_infoset(0)[1])).values
    for sid in (1.7, "1", 1.0, None):
        with pytest.raises(ValueError, match="not an integer"):
            efce.ConvexTriggerDeviation(g, 0, [(sid, 1.0, cont)])
    for sid in (True, np.int64(1)):
        phi = efce.ConvexTriggerDeviation(g, 0, [(sid, 1.0, cont)])
        assert phi.lam.tolist() == [0, 1] + [0] * 11
    with pytest.raises(ValueError, match="empty sequence"):
        efce.ConvexTriggerDeviation(g, 0, [(False, 1.0, cont)])
    for entries in ([(1, 0.5, cont), (2, 0.5, np.zeros(5))],
                    [(1, 0.5, np.zeros(5)), (2, 0.5, cont)], [(1, 1.0, np.zeros(5))]):
        with pytest.raises(ValueError, match=r"^continuation has shape \(5,\), expected \(13,\)$"):
            efce.ConvexTriggerDeviation(g, 0, entries)


def test_entries_deviation_is_not_changed_by_use():
    # An entries deviation was once laid out in pairs on its first use with
    # each plan, and kept that layout and plan; later it was laid out anew
    # for each use, in the plan of whichever game was passed.  It is laid
    # out once, read-only, in its own game's plan, and another parse's plan
    # refuses it.
    g, other = (efce.builtin_game("fig1", seed=0) for _ in range(2))
    assert g.player_plan(0) is not other.player_plan(0)
    phi = _worked_phi(g)
    lam, conts = phi.lam.copy(), phi.conts.copy()
    x = efce.fixed_point(g, phi).values
    root = g.player_infosets(0)[0]
    uses = [lambda h: efce.fixed_point(h, phi), lambda h: efce.apply_deviation(h, phi, x),
            lambda h: efce.extend(h, phi, set(), root, x),
            lambda h: efce.cumulative_weights(h, phi), lambda h: efce.validate_deviation(h, phi)]
    for use in uses:
        use(g)
        with pytest.raises(ValueError, match="^deviation was built on another game's plan$"):
            use(other)
    assert phi._plan is g.player_plan(0)
    assert not (phi.lam.flags.writeable or phi.conts.flags.writeable)
    assert np.array_equal(phi.lam, lam) and np.array_equal(phi.conts, conts)


def test_apply_deviation_and_extend_check_the_shape_of_x():
    # On fig1, x of shape (9, 1) gave a (9, 9) result and (1, 9) a (1, 9)
    # one; on kuhn3 a one-entry x raised IndexError, and extend raised
    # numpy's broadcast message for 5 or 14 entries.
    for g in (efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")):
        x = efce.uniform_strategy(g, 0).values
        n = x.size
        phi = random_deviation(g, 0, random.Random(3))
        root = g.player_infosets(0)[0]
        for bad in (x[:, None], x[None], x[:1], np.ones(5), np.ones(n + 5), x[0]):
            with pytest.raises(ValueError, match=rf"x has shape .*, expected \({n},\)"):
                efce.apply_deviation(g, phi, bad)
            with pytest.raises(ValueError, match=rf"x has shape .*, expected \({n},\)"):
                efce.extend(g, phi, set(), root, bad)
        assert efce.apply_deviation(g, phi, list(x)).shape == (n,)


def test_apply_trigger_checks_the_shape_of_x():
    # On fig1, x of 14 entries or of shape (9, 1) raised numpy's "operands
    # could not be broadcast together".
    g = efce.builtin_game("fig1", seed=0)
    da, _, _ = fig1_deviations(g)
    x = efce.uniform_strategy(g, 0).values
    for bad in (np.ones(14), x[:, None], x[None], x[:5], x[0]):
        with pytest.raises(ValueError, match=r"x has shape .*, expected \(9,\)"):
            efce.apply_trigger(g, da, bad)
    assert np.array_equal(efce.apply_trigger(g, da, list(x)), efce.apply_trigger(g, da, x))


def test_entries_continuations_must_be_vectors():
    # On fig1, a (9, 2) continuation built a deviation whose C and fixed
    # point raised numpy's broadcast error, and a scalar one raised TypeError;
    # every continuation must have the plan's shape (9,).
    g = efce.builtin_game("fig1", seed=0)
    da, _, _ = fig1_deviations(g)
    wide = np.stack([da.continuation] * 2, axis=1)
    for bad in (wide, wide.T, 0.5, [da.continuation]):
        for entries in ([(1, 1.0, bad)], [(1, 0.5, da.continuation), (2, 0.5, bad)]):
            with pytest.raises(ValueError, match=r"^continuation has shape .*, expected \(9,\)$"):
                efce.ConvexTriggerDeviation(g, 0, entries)


def test_apply_trigger_and_build_matrix_check_their_deviation():
    # On fig1, trigger 0 raised "no information set with id -1", trigger 1.5
    # IndexError, and a 3-entry continuation IndexError.
    g = efce.builtin_game("fig1", seed=0)
    x = efce.uniform_strategy(g, 0).values
    da, _, _ = fig1_deviations(g)
    cases = [(efce.EMPTY_SEQ, da.continuation, "empty sequence"),
             (1.5, da.continuation, "sequence ids 0 to 8"),
             (9, da.continuation, "sequence ids 0 to 8"),
             (1, da.continuation[:3], r"shape \(3,\), expected \(9,\)"),
             (1, np.append(da.continuation, 0.0), r"shape \(10,\), expected \(9,\)")]
    for trigger, cont, match in cases:
        dev = efce.TriggerDeviation(0, trigger, cont)
        with pytest.raises(ValueError, match=match):
            efce.apply_trigger(g, dev, x)
        with pytest.raises(ValueError, match=match):
            efce.build_matrix(g, dev)
    for trigger in (np.int64(1), True):
        dev = efce.TriggerDeviation(0, trigger, da.continuation)
        assert np.array_equal(efce.build_matrix(g, dev), efce.build_matrix(g, da))
        assert np.array_equal(efce.apply_trigger(g, dev, x), efce.apply_trigger(g, da, x))


def test_validate_deviation_checks_continuations():
    g = efce.builtin_game("fig1", seed=0)
    bad = np.zeros(9)
    bad[2] = 0.7  # flow broken below
    phi = efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, bad)])
    with pytest.raises(ValueError):
        efce.validate_deviation(g, phi)
    nan_cont = np.zeros(9)
    nan_cont[1] = nan_cont[3] = 1.0
    nan_cont[5] = np.nan
    # A nan raises as the deviation is built, before validate_deviation could see it.
    with pytest.raises(ValueError, match="finite, nonnegative"):
        efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, nan_cont)])
    da, db, dc = fig1_deviations(g)
    good = efce.ConvexTriggerDeviation(
        g, 0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
               (3, 1 / 6, dc.continuation)])
    efce.validate_deviation(g, good)


def test_validate_deviation_checks_the_number_of_sequences_first():
    # A trigger past fig1's 9 sequences once raised IndexError from the
    # plan's arrays.  A continuation of another length raises as the
    # deviation is built, before its trigger is read, and a deviation built
    # on a game of another size is refused before any of its arrays is read.
    g = efce.builtin_game("fig1", seed=0)
    for sid, n in ((10, 12), (3, 5)):
        with pytest.raises(ValueError, match=rf"^continuation has shape \({n},\), expected"):
            efce.ConvexTriggerDeviation(g, 0, [(sid, 1.0, np.zeros(n))])
    phi = random_deviation(efce.builtin_game("kuhn3"), 0, random.Random(0))
    for check in (efce.validate_deviation, efce.fixed_point):
        with pytest.raises(ValueError, match="^deviation was built on another game's plan$"):
            check(g, phi)


def test_validate_deviation_checks_group_deviations_block_by_block():
    # Every group deviation once raised "player (0, 1) is not one of players
    # 0 to 1", though fixed_point, apply_deviation and cumulative_weights
    # take it.
    games = [efce.builtin_game("kuhn3")] + [efce.builtin_game("random-tree", seed=s)
                                            for s in (0, 1, 2)]
    for g in games:
        players = tuple(range(g.n_players))
        hull = efce.HullMinimizer(g, players)
        freq = efce.EmpiricalFrequency(g)
        for rng in efce.split_rngs(0, 6):
            phi = hull.next_element()
            efce.validate_deviation(g, phi)
            q = efce.fixed_point(g, phi)
            freq.accumulate([efce.sample_pure(g, efce.SequenceFormStrategy(i, q[a:b]), rng)
                             for i, a, b in hull.plan.spans])
            hull.observe_utility(freq.utility, q)
    # Flow broken at a trigger's own infoset, in player 2's block of kuhn3.
    g = games[0]
    phi = efce.HullMinimizer(g, (0, 1)).next_element()
    plan = g.player_plan((0, 1))
    own = np.flatnonzero((plan.owner[plan.pair_trigger] == 1)
                         & (plan.pair_trigger == plan.pair_seq))[0]
    conts = phi.conts.copy()
    conts[own] *= 0.5
    bad = efce.ConvexTriggerDeviation._of_pairs(phi.player, phi.lam, conts, plan)
    with pytest.raises(ValueError, match="flow conservation fails .* of player 2"):
        efce.validate_deviation(g, bad)


def test_continuations_off_their_subtree_fail_fast():
    # Bad continuations now raise while the deviation is built (the test
    # below); valid ones of two triggers pass, and their fixed point is one.
    g = efce.builtin_game("fig1", seed=0)
    below_a = efce.uniform_strategy(g, 0).values
    below_a[efce.EMPTY_SEQ] = 0.0  # a valid continuation for trigger 1
    y = np.zeros(9)
    y[3] = y[4] = 0.5
    phi = efce.ConvexTriggerDeviation(g, 0, [(1, 0.5, below_a), (3, 0.5, y)])
    fp = efce.fixed_point(g, phi)
    assert np.abs(efce.apply_deviation(g, phi, fp.values) - fp.values).max() <= 1e-12


def test_bad_continuations_raise_while_the_deviation_is_built():
    # These entries built a deviation without a word, and only a use of it
    # raised; a zero-weight entry, or two entries of one trigger whose mean
    # is a valid continuation, raised nowhere.  On fig1, trigger 3's infoset
    # B holds sequences 3 and 4.  Before that, mass on 7 next to a valid
    # trigger 1 made fixed_point raise NumericalError and apply_deviation use
    # it, -0.5 raised "lost mass conservation" and inf a RuntimeWarning; and
    # trigger 1's nan, inf or -0.5 at sequence 5 raised a non-finite matrix
    # entry or lost mass conservation deep in fixed_point.
    g = efce.builtin_game("fig1", seed=0)
    below_a = efce.uniform_strategy(g, 0).values
    below_a[efce.EMPTY_SEQ] = 0.0  # a valid continuation for trigger 1

    def cont(b3, b4, s7=0.0):
        """A continuation of trigger 3: b3 and b4 on B's sequences, and s7 off B's subtree."""
        y = np.zeros(9)
        y[[3, 4, 7]] = b3, b4, s7
        return y

    valid = cont(0.5, 0.5)
    cases = [[(3, 1.0, cont(1.0, 0.0, 1.0))], [(3, 1.0, cont(1.5, -0.5))],
             [(3, 1.0, cont(1.0, np.inf))], [(3, 1.0, cont(1.0, np.nan))],
             [(3, 1.0, valid), (4, 0.0, cont(1.0, 0.0, 1.0))],
             [(3, 0.5, cont(1.5, -0.5)), (3, 0.5, cont(-0.5, 1.5))]]
    cases += [[(1, 0.5, below_a), (3, 0.5, y)]
              for y in (cont(0.0, 0.0, 1.0), cont(1.5, -0.5), cont(1.0, np.inf), cont(1.0, np.nan))]
    for value in (np.nan, np.inf, -0.5):
        y = np.zeros(9)
        y[[1, 3, 5]] = 1.0, 1.0, value
        cases.append([(1, 1.0, y)])
    for entries in cases:
        with pytest.raises(ValueError, match="^continuations must be finite, nonnegative and "
                                             "zero off the subtree"):
            efce.ConvexTriggerDeviation(g, 0, entries)
    # The empty sequence of a group's second player is no trigger either.
    with pytest.raises(ValueError, match="^the empty sequence cannot be a trigger$"):
        efce.ConvexTriggerDeviation(g, (0, 1), [(9, 1.0, np.zeros(14))])
    phi = efce.ConvexTriggerDeviation(g, 0, [(3, 1.0, valid)])
    assert phi.terms[0][0] == 3 and np.array_equal(phi.terms[0][2], valid)


def test_entries_deviation_weights_and_continuations_are_read_only():
    # The worked fig1 combination's weights could be rewritten in place to
    # 0.25 and 0.25, which fixed_point then solved without a word.
    g = efce.builtin_game("fig1", seed=0)
    phi = _worked_phi(g)
    fp = efce.fixed_point(g, phi).values.tolist()
    for arr, at in ((phi.lam, [1, 2]), (phi.conts, [0])):
        with pytest.raises(ValueError, match="read-only"):
            arr[at] = 0.25
    assert efce.fixed_point(g, phi).values.tolist() == fp


def test_a_deviation_is_read_only_in_the_pair_layout_of_its_plan():
    # random-tree 2 and 55 both give player 0 six sequences and 13 pairs:
    # 2's hull deviation was once read in 55's pair layout, and fixed_point
    # returned [1, 1/3, 1/3, 1/3, 0.5, 0.5] without a word.  One built from
    # entries was then laid out anew in the other game's pairs: of the 232
    # pairs of seeds 0-63 whose player 0 has triggers and as many sequences,
    # 95 returned a point and 137 raised.  Both kinds are refused now.
    games = [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    games.append(efce.builtin_game("random-tree", seed=2))  # a second parse
    checked = 0
    for a in games:
        phi = efce.HullMinimizer(a, 0).next_element()
        entries = efce.ConvexTriggerDeviation(a, 0, phi.terms)
        fp = efce.fixed_point(a, phi).values.tolist()
        assert efce.fixed_point(a, entries).values.tolist() == fp
        for b in games:
            if b is a or b.num_sequences(0) != a.num_sequences(0):
                continue
            for dev in (phi, entries):
                with pytest.raises(ValueError, match="^deviation was built on another game"):
                    efce.fixed_point(b, dev)
            checked += 1
    # The 232, 20 pairs whose player 0 has no trigger, and 12 with the second parse.
    assert checked == 264


def test_cumulative_weights_worked_example():
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    phi = efce.ConvexTriggerDeviation(
        g, 0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
               (3, 1 / 6, dc.continuation)])
    cum = efce.cumulative_weights(g, phi)
    assert np.allclose(cum, [0, .5, 1 / 3, .5 + 1 / 6, .5, .5, .5, 1 / 3, 1 / 3])


def test_stationary_distribution_known_cases():
    b = efce.stationary_distribution(np.array([[0.5, 1 / 3], [0.5, 2 / 3]]))
    assert np.allclose(b, [0.4, 0.6], atol=1e-10)
    assert np.allclose(efce.stationary_distribution(np.eye(3)), np.full(3, 1 / 3))
    b = efce.stationary_distribution(np.array([[1.0, 1 / 3], [0.0, 2 / 3]]))
    assert np.allclose(b, [1.0, 0.0], atol=1e-10)
    # periodic chain
    b = efce.stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(b, [0.5, 0.5], atol=1e-9)
    assert np.allclose(efce.stationary_distribution(np.ones((1, 1))), [1.0])


def test_stationary_distribution_random_chains():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        w = rng.random((m, m)) + 1e-3
        w /= w.sum(axis=0, keepdims=True)
        b = efce.stationary_distribution(w)
        assert (b >= -1e-12).all()
        assert b.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(w @ b - b).max() <= 1e-9


def test_stationary_distribution_rejects_non_finite_input():
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.array([[np.nan, 0.5], [np.nan, 0.5]]))
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_stationary_distribution_reducible_chain_is_fast():
    # two closed classes ({0} and {2}) with state 1 draining slowly into 0:
    # the full linear system is singular, and iteration mixes very slowly
    w = np.array([[1.0, 2.569245931734661e-07, 0.0],
                  [0.0, 9.999997430754068e-01, 0.0],
                  [0.0, 0.0, 1.0]])
    t0 = time.perf_counter()
    b = efce.stationary_distribution(w)
    assert time.perf_counter() - t0 < 0.05
    assert np.abs(w @ b - b).max() <= 1e-10
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    assert (b >= 0.0).all()


def test_stationary_distribution_input_validation():
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.ones((2, 3)))
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.array([[0.5, -0.1], [0.5, 1.1]]))
    with pytest.raises(ValueError):
        efce.stationary_distribution(np.array([[0.5, 0.5], [0.4, 0.5]]))


def test_stationary_distribution_matches_exact_reference():
    # Sparse chains with rational entries, solved exactly in Fractions: the
    # solver is compared with an independent reference, not with itself.
    rng = random.Random(2027)
    several = transient = 0
    for _ in range(2000):
        m = rng.randint(2, 8)
        w = [[Fraction(0)] * m for _ in range(m)]
        for c in range(m):
            weights = [rng.randint(1, 9) if rng.random() < 0.25 else 0 for _ in range(m)]
            weights[rng.randrange(m)] += rng.randint(1, 9)
            for a in range(m):
                w[a][c] = Fraction(weights[a], sum(weights))
        exact, classes = exact_stationary(w)
        got = efce.stationary_distribution(np.array(w, dtype=float))
        assert np.abs(got - np.array(exact, dtype=float)).max() <= 1e-12
        several += len(classes) > 1
        transient += sum(map(len, classes)) < m
    assert several >= 100 and transient >= 100


def _reducible_chain(rng, d):
    """A random d-state chain with 1 to 3 closed classes, and each state's class or -1."""
    n = int(rng.integers(1, min(3, d) + 1))
    label = rng.integers(-1, n, d)
    label[rng.permutation(d)[:n]] = np.arange(n)
    w = np.zeros((d, d))
    for c in range(d):
        if label[c] >= 0:
            to = np.flatnonzero(label == label[c])
            v = rng.random(to.size) * (rng.random(to.size) < 0.6)
            v[(np.flatnonzero(to == c)[0] + 1) % to.size] += 0.1  # a cycle through the class
        else:
            to = np.arange(d)
            v = rng.random(d) * (rng.random(d) < 0.6)
            v[rng.choice(np.flatnonzero(label >= 0))] += 0.1  # a way out
        w[to, c] = v / v.sum()
    return w, label


def test_stationary_batch_rows_match_chains_solved_alone():
    # Every row of one batch is its chain solved alone, bit for bit, padded
    # or not: the kernel's dummy states (column e_0, row 0) get 0.
    rng = np.random.default_rng(31)
    rows = 0
    for _ in range(300):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, 8))
        w = np.zeros((k, m, m))
        chains = []
        for j in range(k):
            d = int(rng.integers(1, m + 1))
            chain, label = _reducible_chain(rng, d)
            w[j, :d, :d] = chain
            w[j, 0, d:] = 1.0
            chains.append((chain, label))
        padded = efce.deviations._stationary(w, 1e-10)
        for j, (chain, label) in enumerate(chains):
            d = len(chain)
            alone = efce.stationary_distribution(chain)
            assert np.array_equal(padded[j, :d], alone) and not padded[j, d:].any()
            assert not alone[label < 0].any()
            n = label.max() + 1
            for c in range(n):
                assert alone[label == c].sum() == pytest.approx(1.0 / n, abs=1e-14)
            rows += 1
    assert rows > 1000


def test_stationary_distribution_underflow_raises():
    # An irreducible chain (0 -> 1 -> 2 -> 0) on which eliminating state 2
    # leaves state 1 a flow of 2e-200 * 1e-200 to state 0, which underflows.
    w = np.array([[0.5, 0.0, 1e-200],
                  [0.5, 1.0, 0.5],
                  [0.0, 1e-200, 0.5]])
    with pytest.raises(efce.NumericalError, match="underflowed"):
        efce.stationary_distribution(w)
    with pytest.raises(efce.NumericalError, match="underflowed"):
        efce.deviations._stationary(np.stack([np.eye(3), w]), 1e-10)
    # A residual above the tolerance raises too; this chain's is about 6e-17.
    w = np.random.default_rng(0).random((3, 3))
    with pytest.raises(efce.NumericalError, match="residual .* exceeds tolerance"):
        efce.stationary_distribution(w / w.sum(axis=0), tol=1e-300)


def test_is_trunk_classification():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    C = g.infoset(0, "C").index
    D = g.infoset(0, "D").index
    for trunk in [set(), {A}, {A, B}, {A, C}, {A, D}, {A, B, D}, {A, C, D},
                  {A, B, C, D}]:
        assert efce.is_trunk(g, 0, trunk)
    assert not efce.is_trunk(g, 0, {B})
    assert not efce.is_trunk(g, 0, {B, C, D})
    assert not efce.is_trunk(g, 0, {g.infoset(1, "R").index})


def _worked_phi(g):
    da, db, dc = fig1_deviations(g)
    return efce.ConvexTriggerDeviation(
        g, 0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
               (3, 1 / 6, dc.continuation)])


def test_extend_worked_example():
    g = efce.builtin_game("fig1", seed=0)
    phi = _worked_phi(g)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    C = g.infoset(0, "C").index
    D = g.infoset(0, "D").index
    x0 = np.zeros(9)
    x0[efce.EMPTY_SEQ] = 1.0
    x1 = efce.extend(g, phi, set(), A, x0)
    assert np.allclose(x1, [1, .4, .6, 0, 0, 0, 0, 0, 0], atol=1e-12)
    # extend the other branch first: D hangs below sequence 2
    xd = efce.extend(g, phi, {A}, D, x1)
    assert np.allclose(xd, [1, .4, .6, 0, 0, 0, 0, .6, 0], atol=1e-12)
    x2 = efce.extend(g, phi, {A}, B, x1)
    assert np.allclose(x2, [1, .4, .6, .3, .1, 0, 0, 0, 0], atol=1e-12)
    x3 = efce.extend(g, phi, {A, B}, C, x2)
    assert np.allclose(x3, [1, .4, .6, .3, .1, .4, 0, 0, 0], atol=1e-12)
    x4 = efce.extend(g, phi, {A, B, C}, D, x3)
    assert np.allclose(x4, [1, .4, .6, .3, .1, .4, 0, .6, 0], atol=1e-12)


def test_extend_precondition_errors():
    g = efce.builtin_game("fig1", seed=0)
    phi = _worked_phi(g)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    x0 = np.zeros(9)
    x0[efce.EMPTY_SEQ] = 1.0
    with pytest.raises(ValueError):
        efce.extend(g, phi, set(), B, x0)  # predecessor A missing
    with pytest.raises(ValueError):
        efce.extend(g, phi, {B}, A, x0)  # trunk is not downward closed
    x1 = efce.extend(g, phi, set(), A, x0)
    with pytest.raises(ValueError):
        efce.extend(g, phi, {A}, A, x1)  # already in the trunk
    phi2 = efce.ConvexTriggerDeviation(g, 1, [])
    with pytest.raises(ValueError):
        efce.extend(g, phi2, set(), A, x0)  # player mismatch
    # A group's deviation is refused as such, not blamed on an infoset of one
    # of its players.
    group = efce.HullMinimizer(g, (0, 1)).next_element()
    root1 = next(j.index for j in g.infosets if j.player == 1 and j.parent_seq == efce.EMPTY_SEQ)
    with pytest.raises(ValueError, match="^extend takes one player's deviation"):
        efce.extend(g, group, set(), root1, x0)


def test_tolerances_must_be_positive_and_finite():
    # A tolerance of -1 once failed only at the fixed point's residual check,
    # "residual 0 exceeds tolerance"; nan raised NumericalError from
    # stationary_distribution, and extend returned a vector for 0.  A string
    # or None raised TypeError ("'<' not supported"), and an array numpy's
    # "truth value ... is ambiguous".
    g = efce.builtin_game("fig1", seed=0)
    phi = _worked_phi(g)
    x0 = np.zeros(9)
    x0[efce.EMPTY_SEQ] = 1.0
    A = g.infoset(0, "A").index
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf, "x", "1e-10", None,
                np.array([1e-10, 1e-10]), np.array([1e-10])):
        for name, call in (
                ("fp_tol", lambda: efce.fixed_point(g, phi, bad)),
                ("fp_tol", lambda: efce.extend(g, phi, set(), A, x0, fp_tol=bad)),
                ("tol", lambda: efce.stationary_distribution(np.eye(2), tol=bad)),
                ("fp_tol", lambda: efce.MixedTriggerMinimizer(g, 0, bad)),
                ("fp_tol", lambda: efce.PureTriggerMinimizer(g, 0, random.Random(0), bad))):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
                call()
    # Real numbers of other types pass.
    for good in (np.float64(1e-10), np.float32(1e-6), 1):
        efce.fixed_point(g, phi, good)


def test_extend_zero_mass_parent_gives_zero_children():
    g = efce.builtin_game("fig1", seed=0)
    n = g.num_sequences(0)
    y = np.zeros(n)
    y[2] = 1.0
    y[8] = 1.0
    phi = efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, y)])
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    x0 = np.zeros(n)
    x0[efce.EMPTY_SEQ] = 1.0
    x1 = efce.extend(g, phi, set(), A, x0)
    assert x1[1] == 0.0  # triggering sequence gets no mass at the fixed point
    x2 = efce.extend(g, phi, {A}, B, x1)
    assert x2[3] == 0.0 and x2[4] == 0.0


def test_extend_rounding_residue_parent_mass():
    # x[1] is a rounding residue of an exact zero, and trigger 1 carries all
    # the weight above B while sending nothing into B: both columns of B's
    # extension matrix lose their mass entirely
    g = efce.builtin_game("fig1", seed=0)
    y = np.zeros(9)
    y[2] = y[8] = 1.0
    phi = efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, y)])
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    x = np.zeros(9)
    x[0] = 1.0
    x[1] = 7.8e-11
    x[2] = 1.0 - x[1]
    out = efce.extend(g, phi, {A}, B, x)
    assert np.isfinite(out).all()
    assert (out[3:5] >= 0.0).all()
    assert out[3] + out[4] == pytest.approx(x[1], abs=1e-20)


def test_fixed_point_worked_example():
    g = efce.builtin_game("fig1", seed=0)
    phi = _worked_phi(g)
    fp = efce.fixed_point(g, phi)
    want = [1, 2 / 5, 3 / 5, 3 / 10, 1 / 10, 2 / 5, 0, 3 / 5, 0]
    assert np.allclose(fp.values, want, atol=1e-12)
    assert np.abs(efce.apply_deviation(g, phi, fp.values) - fp.values).max() <= 1e-10


def test_fixed_point_of_empty_deviation():
    g = efce.builtin_game("fig1", seed=0)
    phi = efce.ConvexTriggerDeviation(g, 0, [])
    fp = efce.fixed_point(g, phi)
    efce.validate_strategy(g, fp)
    assert np.abs(efce.apply_deviation(g, phi, fp.values) - fp.values).max() == 0.0
    # every infoset's chain moves no mass, so each gets the equal shares
    # stationary_distribution gives an identity chain, 2 and 3 actions alike
    for g in [g] + [efce.builtin_game("random-tree", seed=s) for s in range(8)]:
        for i in range(g.n_players):
            fp = efce.fixed_point(g, efce.ConvexTriggerDeviation(g, i, []))
            assert np.array_equal(fp.values, efce.uniform_strategy(g, i).values)
    for m in (2, 3):
        assert np.array_equal(efce.stationary_distribution(np.eye(m)), np.full(m, 1.0 / m))


def test_fixed_point_random_deviations():
    rng = random.Random(13)
    games = [efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")]
    for g in games:
        for i in range(g.n_players):
            for _ in range(10):
                phi = random_deviation(g, i, rng)
                fp = efce.fixed_point(g, phi)
                efce.validate_strategy(g, fp)
                resid = np.abs(
                    efce.apply_deviation(g, phi, fp.values) - fp.values).max()
                assert resid <= 1e-9


def test_fixed_point_pure_trigger_deviation():
    # full-weight trigger: the fixed point avoids the triggering sequence,
    # and anything below the untouched branch is then left alone
    g = efce.builtin_game("fig1", seed=0)
    n = g.num_sequences(0)
    y = np.zeros(n)
    y[2] = 1.0
    y[7] = 1.0
    phi = efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, y)])
    fp = efce.fixed_point(g, phi)
    efce.validate_strategy(g, fp)
    assert fp.values[1] == 0.0
    assert fp.values[2] == pytest.approx(1.0)
    resid = np.abs(efce.apply_deviation(g, phi, fp.values) - fp.values).max()
    assert resid <= 1e-10


def test_fixed_point_equals_chain_of_extends():
    rng = random.Random(2024)
    checked = 0
    for seed in range(40):
        g = efce.builtin_game("random-tree", seed=seed)
        for i in range(g.n_players):
            if g.num_sequences(i) == 1:
                continue
            phi = random_deviation(g, i, rng)
            x = np.zeros(g.num_sequences(i))
            x[efce.EMPTY_SEQ] = 1.0
            trunk = set()
            for gid in g.player_infosets(i):
                x = efce.extend(g, phi, trunk, gid, x)
                trunk.add(gid)
            fp = efce.fixed_point(g, phi)
            assert np.abs(fp.values - x).max() <= 1e-12
            checked += 1
    assert checked >= 40


@functools.cache
def _one_infoset_game(m):
    acts = " ; ".join(f"a{k} -> z{k}" for k in range(m))
    leaves = "; ".join(f"leaf z{k} {{{k}}}" for k in range(m))
    return efce.parse_game(f"players 1; root r\n"
                           f"decision r player 1 infoset A {{ {acts} }}\n{leaves}")


def _one_infoset_fixed_point(lam, conts):
    """Fixed point of a one-infoset game, and the chain it solves.

    ``conts[c]`` is trigger c's continuation over the infoset's actions, and
    ``col[a, c] = lam[c] * conts[c, a] + (1 - lam[c]) * [a == c]``.
    """
    m = len(lam)
    col = conts.T * lam
    col[np.diag_indices(m)] += 1.0 - lam
    entries = [(c + 1, lam[c], np.concatenate([[0.0], conts[c]])) for c in range(m)]
    g = _one_infoset_game(m)
    fp = efce.fixed_point(g, efce.ConvexTriggerDeviation(g, 0, entries))
    return fp.values[1:], col


def test_fixed_point_closed_forms_match_general_solver():
    # one infoset of m actions: the fixed point is the stationary distribution
    # of col[a, c] = lam[c] * cont_c[a] + (1 - lam[c]) * [a == c], which the
    # fixed point solves in closed form for m = 2 and m = 3 (m = 4 takes the
    # general solver's path)
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        g = _one_infoset_game(m)
        for _ in range(200):
            lam = rng.random(m) * (rng.random(m) < 0.8)
            if not lam.any():
                continue
            lam /= lam.sum()
            entries = []
            col = np.diag(1.0 - lam)
            for c in range(m):
                cont = rng.random(m) * (rng.random(m) < 0.6)
                cont[rng.integers(m)] += 1e-3
                cont /= cont.sum()
                entries.append((c + 1, lam[c], np.concatenate([[0.0], cont])))
                col[:, c] += lam[c] * cont
            phi = efce.ConvexTriggerDeviation(g, 0, entries)
            fp = efce.fixed_point(g, phi)
            assert np.abs(fp.values[1:] - efce.stationary_distribution(col)).max() <= 1e-12

    # A chain with several closed classes has no spanning tree, so the closed
    # forms sum to 0.  The fixed point then gives the general solver's answer
    # bit for bit: equal shares of the classes, and a closed pair split by
    # its two crossing entries.
    def split(states):
        cont = np.zeros(3)
        cont[states] = rng.random(len(states)) + 1e-3
        return cont / cont.sum()

    chains = [np.eye(2), np.eye(3)]  # identity chains
    for _ in range(1500):
        a, b, t = rng.permutation(3)
        # two absorbing states, and a transient one that leaks into one or both
        into = [a, b] if rng.random() < 0.5 else [a]
        chains.append(np.stack([split([c] if c != t else into + [t] * (rng.random() < 0.5))
                                for c in range(3)]))
        # one absorbing state beside a closed pair
        chains.append(np.stack([split([c] if c == a else [b, t] if rng.random() < 0.5
                                      else [b + t - c]) for c in range(3)]))
    drifted = 0
    for k, conts in enumerate(chains):
        lam = rng.random(len(conts)) + 1e-3
        lam /= lam.sum()
        col = conts.T * lam
        col[np.diag_indices(len(lam))] += 1.0 - lam
        # The fixed point rescales col's columns by their sums before it
        # solves, and stationary_distribution rescales them once more.  Keep
        # every chain on which the second rescaling moves a bit, and a few more.
        col /= col.sum(axis=0)
        drift = (col.sum(axis=0) != 1.0).any()
        if k >= 200 and not drift:
            continue
        values, _ = _one_infoset_fixed_point(lam, conts)
        assert np.array_equal(values, efce.stationary_distribution(col))
        drifted += bool(drift)
    assert drifted >= 5

    # an infoset below a parent without mass comes out exactly 0
    g = efce.builtin_game("fig1", seed=0)
    y = np.zeros(9)
    y[2] = y[7] = 1.0
    fp = efce.fixed_point(g, efce.ConvexTriggerDeviation(g, 0, [(1, 1.0, y)]))
    assert fp.values[1] == 0.0
    assert np.array_equal(fp.values[3:7], np.zeros(4))
    assert not np.signbit(fp.values[3:7]).any()


def _spy_stationary(monkeypatch):
    """Record every (chains, real-state mask, answer) that ``_stationary`` sees.

    The mask comes from the rows' level, not from the padded chains: it is
    the calling ``_solve``'s ``mask`` at the ``rows`` it hands over, or None
    when every state is real.
    """
    calls = []
    solve = efce.deviations._stationary

    def spy(w, tol):
        b = solve(w, tol)
        caller = sys._getframe(1).f_locals
        mask = caller.get("mask")
        calls.append((w.copy(), None if mask is None else mask[caller["rows"], 0] > 0.0, b))
        return b

    monkeypatch.setattr(efce.deviations, "_stationary", spy)
    return calls


def _equal_shares(w, b):
    """Whether ``b`` gives w's absorbing states equal shares and its other states 0."""
    absorbing = ~((w > 0.0) & ~np.eye(len(w), dtype=bool)).any(axis=0)
    return np.array_equal(b, absorbing / absorbing.sum())


def test_fixed_point_underflowed_closed_form_reaches_general_solver(monkeypatch):
    # every pair of states communicates, so the chain has one closed class,
    # but its spanning-tree products (about 1e-341) underflow to 0
    calls = _spy_stationary(monkeypatch)
    solve = efce.stationary_distribution
    lam = np.array([0.25, 0.5, 0.25])
    conts = np.full((3, 3), 1e-170)
    conts[np.diag_indices(3)] = 1.0
    conts /= conts.sum(axis=1, keepdims=True)
    values, col = _one_infoset_fixed_point(lam, conts)
    (w, real, _), = calls
    assert w.shape == (1, 3, 3) and real is None
    assert np.array_equal(values, solve(w[0]))
    assert np.abs(values - solve(col)).max() <= 1e-12
    assert values.min() > 0.0 and values.sum() == pytest.approx(1.0)


def test_fixed_point_calls_general_solver_only_for_four_or_more_actions(monkeypatch):
    # In self-play of kuhn3 and the random trees, the closed forms settle
    # every chain with one closed class; the solver sees only chains whose
    # closed classes are absorbing states, which take no state reduction.
    calls = _spy_stationary(monkeypatch)
    efce.run(efce.builtin_game("kuhn3"), 256, 0, gap_every=64)
    for seed in range(64):
        efce.run(efce.builtin_game("random-tree", seed=seed), 32, 0, gap_every=32)
    rows = 0
    for w, real, b in calls:
        for j in range(len(w)):
            d = w.shape[1] if real is None else int(real[j].sum())
            assert _equal_shares(w[j, :d, :d], b[j, :d]) and not b[j, d:].any()
            rows += 1
    assert rows
    # no closed form covers an infoset of four actions
    calls.clear()
    efce.run(_one_infoset_game(4), 8, 0, gap_every=8)
    assert calls and {w.shape for w, _, _ in calls} == {(1, 4, 4)}


def _chained_extends(game, phi):
    """A one-player deviation's fixed point grown one infoset at a time with extend."""
    x = np.zeros(game.num_sequences(phi.player))
    x[efce.EMPTY_SEQ] = 1.0
    trunk = set()
    for gid in game.player_infosets(phi.player):
        x = efce.extend(game, phi, trunk, gid, x)
        trunk.add(gid)
    return x


def _player_part(game, phi, i, a, b):
    """Player i's part (block a:b) of a group's deviation, on the player's own plan."""
    one = game.player_plan(i)
    conts = phi.C[a:b, a:b][one.pair_trigger, one.pair_seq]
    return efce.ConvexTriggerDeviation._of_pairs(i, phi.lam[a:b].copy(), conts, one)


def test_self_play_fixed_points_equal_chained_extends(monkeypatch):
    # Every round's group deviation of 32 self-play rounds: the point the
    # learner plays, the fixed point batched by level and padded to the
    # level's widest infoset (or a repeated deviation's kept one), equals bit
    # for bit each player's part grown one infoset at a time.
    seen = []
    step = efce.trigger.MixedTriggerMinimizer.next_element

    def spy(learner):
        out = step(learner)
        seen.append((learner.game, learner.hull._phi, learner._values.copy()))
        return out

    monkeypatch.setattr(efce.trigger.MixedTriggerMinimizer, "next_element", spy)
    games = [efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    for g in games:
        efce.run(g, 32, 0, gap_every=32)
    assert len(seen) == 32 * len(games)
    checked = 0
    for g, phi, out in seen:
        for i, a, b in g.player_plan(phi.player).spans:
            if b - a > 1:
                assert np.array_equal(out[a:b], _chained_extends(g, _player_part(g, phi, i, a, b)))
                checked += 1
    assert checked >= 3000


# Infosets of 1, 2, 3 and 4 actions at depth 1.
_MIXED_LEVEL_GAME = """players 1; root r
decision r player 1 infoset R { a -> n1 ; b -> n2 ; c -> n3 ; d -> n4 }
decision n1 player 1 infoset A1 { a1 -> z1 }
decision n2 player 1 infoset A2 { b1 -> z2 ; b2 -> z3 }
decision n3 player 1 infoset A3 { c1 -> z4 ; c2 -> z5 ; c3 -> z6 }
decision n4 player 1 infoset A4 { d1 -> z7 ; d2 -> z8 ; d3 -> z9 ; d4 -> z10 }
leaf z1 {1}; leaf z2 {2}; leaf z3 {3}; leaf z4 {4}; leaf z5 {5}
leaf z6 {6}; leaf z7 {7}; leaf z8 {8}; leaf z9 {9}; leaf z10 {10}
"""


def test_fixed_point_on_a_level_of_mixed_action_counts(monkeypatch):
    g = efce.parse_game(_MIXED_LEVEL_GAME)
    plan = g.player_plan(0)
    level = plan.levels[1]
    # A1 to A4, in increasing action count, padded to 4 states
    assert (level.sids < plan.owner.size).sum(axis=1).tolist() == [1, 2, 3, 4]
    calls = _spy_stationary(monkeypatch)
    rng = random.Random(11)
    phis = [random_deviation(g, 0, rng) for _ in range(40)]
    fps = [efce.fixed_point(g, phi).values for phi in phis]
    efce.run(g, 16, 0, gap_every=16)
    monkeypatch.undo()  # extend and stationary_distribution below call _stationary
    for phi, fp in zip(phis, fps):
        assert np.abs(efce.apply_deviation(g, phi, fp) - fp).max() <= 1e-10
        assert np.array_equal(fp, _chained_extends(g, phi))
    # The solver sees R, then A4 and the degenerate narrow rows padded to
    # A4's 4 states; each row comes out as its real states alone would.
    widths = set()
    for w, real, b in calls:
        for j in range(len(w)):
            d = w.shape[1] if real is None else int(real[j].sum())
            assert np.array_equal(b[j, :d], efce.stationary_distribution(w[j, :d, :d]))
            assert not b[j, d:].any()
            widths.add((w.shape[1], d))
    assert widths == {(4, 2), (4, 3), (4, 4)}


# _MIXED_LEVEL_GAME plus a 5-action infoset at depth 1.
_TWO_WIDE_INFOSETS_GAME = _MIXED_LEVEL_GAME.replace("d -> n4 }", "d -> n4 ; e -> n5 }") + (
    "decision n5 player 1 infoset A5 "
    "{ e1 -> z11 ; e2 -> z12 ; e3 -> z13 ; e4 -> z14 ; e5 -> z15 }\n"
    "leaf z11 {3}; leaf z12 {7}; leaf z13 {1}; leaf z14 {9}; leaf z15 {5}\n")


def test_fixed_point_on_a_level_of_two_wide_infosets(monkeypatch):
    # A4 is padded to A5's 5 states, beside the narrow infosets.
    g = efce.parse_game(_TWO_WIDE_INFOSETS_GAME)
    plan = g.player_plan(0)
    assert (plan.levels[1].sids < plan.owner.size).sum(axis=1).tolist() == [1, 2, 3, 4, 5]
    calls = _spy_stationary(monkeypatch)
    rng = random.Random(5)
    phis = [random_deviation(g, 0, rng) for _ in range(40)]
    fps = [efce.fixed_point(g, phi).values for phi in phis]
    monkeypatch.undo()
    for phi, fp in zip(phis, fps):
        assert np.array_equal(fp, _chained_extends(g, phi))
    # At most one solver call per level: R (5 actions) alone, then A4 and A5
    # together, with any degenerate narrow rows, when their parents have mass.
    wide = [tuple(d for d in ([w.shape[1]] * len(w) if real is None else real.sum(axis=1).tolist())
                  if d >= 4) for w, real, _ in calls]
    assert len(calls) <= 2 * len(phis) and (4, 5) in wide
    assert set(wide) <= {(), (4,), (5,), (4, 5)}


def _closed_classes(w):
    """The number of closed communicating classes of a column-stochastic chain."""
    reach = (w > 0.0) | np.eye(len(w), dtype=bool)  # reach[a, c]: a is reached from c
    for _ in range(len(w)):
        reach = (reach.astype(np.int64) @ reach) > 0
    recurrent = (reach.T >= reach).all(axis=0)
    return len({frozenset(np.flatnonzero(reach[:, c]).tolist())
                for c in np.flatnonzero(recurrent)})


def test_fixed_point_solves_each_level_in_one_kernel_call(monkeypatch):
    # On both mixed games, every fixed point makes one _solve call per level.
    # Only the rows of 4 or more real states reach the general solver, and
    # the narrow rows without a positive closed form: those of several closed
    # classes, such as the identity chains below a trigger whose continuation
    # sends nothing into them.
    shapes = []
    solve = efce.deviations._solve

    def spy(w0, *args):
        shapes.append(w0.shape)
        return solve(w0, *args)

    monkeypatch.setattr(efce.deviations, "_solve", spy)
    calls = _spy_stationary(monkeypatch)
    for text, seed in ((_MIXED_LEVEL_GAME, 11), (_TWO_WIDE_INFOSETS_GAME, 5)):
        g = efce.parse_game(text)
        plan = g.player_plan(0)
        a = g.infoset(0, "R").seq_ids[0]
        cont = np.zeros(g.num_sequences(0))
        cont[[a, *g.infoset(0, "A1").seq_ids]] = 1.0
        rng = random.Random(seed)
        phis = [efce.ConvexTriggerDeviation(g, 0, [(a, 1.0, cont)])]
        phis += [random_deviation(g, 0, rng) for _ in range(100)]
        for phi in phis:
            shapes.clear()
            efce.fixed_point(g, phi)
            assert len(shapes) == len(plan.levels)
            assert shapes == [(k, m, m) for k, m in (lev.sids.shape for lev in plan.levels)]
    narrow = 0
    for w, real, _ in calls:
        for j in range(len(w)):
            d = w.shape[1] if real is None else int(real[j].sum())
            if d <= 3:
                assert d > 1 and _closed_classes(w[j, :d, :d]) >= 2
                narrow += 1
    assert narrow >= 4  # A2 and A3 of the identity chains, in each game


def test_degenerate_rows_of_self_play_match_general_solver(monkeypatch):
    # Every zero-total row that self-play hands to the solver, in a batch of
    # padded rows, comes out as stationary_distribution's answer on its real
    # states alone, bit for bit.  Some of these chains have flow between
    # their states and several closed classes: two absorbing states, or one
    # that nothing enters.
    calls = _spy_stationary(monkeypatch)
    for seed in range(64):
        efce.run(efce.builtin_game("random-tree", seed=seed), 32, 0, gap_every=32)
    rows = []
    for w, real, b in calls:
        for r in range(len(w)):
            d = w.shape[1] if real is None else int(real[r].sum())
            rows.append((w[r, :d, :d], b[r]))
    several = 0
    for w, b in rows:
        assert np.array_equal(b[:len(w)], efce.stationary_distribution(w))
        assert not b[len(w):].any()
        moves = (w > 0.0) & ~np.eye(len(w), dtype=bool)
        absorbing = ~moves.any(axis=0)
        several += moves.any() and (absorbing.sum() >= 2 or (absorbing & ~moves.any(axis=1)).any())
    assert several


def test_massless_parent_with_closed_pair_needs_no_solver(monkeypatch):
    # A's trigger x moves all its mass to y, so B's parent has none; B's own
    # chain is a closed pair {q, s} beside an absorbing p.  B stays exactly 0
    # and nothing reaches the general solver.
    g = efce.parse_game("""players 1; root r
        decision r player 1 infoset A { x -> b ; y -> z0 }
        decision b player 1 infoset B { p -> z1 ; q -> z2 ; s -> z3 }
        leaf z0 {0}; leaf z1 {1}; leaf z2 {2}; leaf z3 {3}""")
    x, y = g.infoset(0, "A").seq_ids
    p, q, s = g.infoset(0, "B").seq_ids

    def cont(*sids):
        c = np.zeros(g.num_sequences(0))
        c[list(sids)] = 1.0
        return c

    calls = _spy_stationary(monkeypatch)
    phi = efce.ConvexTriggerDeviation(g, 0, [(x, 0.9, cont(y)), (q, 0.05, cont(s)),
                                             (s, 0.05, cont(q))])
    fp = efce.fixed_point(g, phi)
    assert fp.values[x] == 0.0 and fp.values[y] == 1.0
    assert np.array_equal(fp.values[[p, q, s]], np.zeros(3))
    assert not np.signbit(fp.values).any()
    assert calls == []


def test_fixed_point_residual_above_tolerance_raises(monkeypatch):
    # Each level's values scaled by 1 + 1e-6 leave a residual of about 3e-8.
    g = efce.builtin_game("fig1", seed=0)
    phi = random_deviation(g, 0, random.Random(1))
    solve = efce.deviations._solve
    monkeypatch.setattr(efce.deviations, "_solve", lambda *args: solve(*args) * (1.0 + 1e-6))
    with pytest.raises(efce.NumericalError, match="fixed point residual .* exceeds tolerance"):
        efce.fixed_point(g, phi)


def test_extend_rejects_an_infinite_inflow_below_a_massless_parent():
    # numpy's default error state warns of an invalid value and carries on,
    # and this input then reaches the chain's finiteness check; the suite's
    # warnings-as-errors stop it at the warning, so the test silences it.
    # The pair layout is unchecked, so an infinite continuation gets there;
    # an infinite x no longer does (see the next test).
    g = efce.builtin_game("fig1", seed=0)
    plan = g.player_plan(0)
    A, B = g.infoset(0, "A"), g.infoset(0, "B")
    lam = np.zeros(9)
    lam[2] = 1.0
    conts = 1.0 / np.bincount(plan.segment).take(plan.segment)
    # trigger 2 sends inf into B, whose parent sequence 1 has no mass
    conts[(plan.pair_trigger == 2) & np.isin(plan.pair_seq, B.seq_ids)] = np.inf
    phi = efce.ConvexTriggerDeviation._of_pairs(0, lam, conts, plan)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^extension matrix entries must be finite$"):
            efce.extend(g, phi, {A.index}, B.index, _vertex(9, 2))


def test_extend_rejects_a_non_finite_x():
    # An inf at trigger 2, whose continuation sends mass into B below the
    # massless sequence 1, once reached the chain, where numpy warned of an
    # invalid product before the chain's own check raised.
    g = efce.builtin_game("fig1", seed=0)
    A, B = g.infoset(0, "A"), g.infoset(0, "B")
    cont = efce.uniform_strategy(g, 0, root=A.index).values
    phi = efce.ConvexTriggerDeviation(g, 0, [(2, 1.0, cont)])
    for bad in (np.inf, -np.inf, np.nan):
        x = _vertex(9)
        x[2] = bad
        with pytest.raises(ValueError, match="^x has a non-finite entry$"):
            efce.extend(g, phi, {A.index}, B.index, x)


def test_fixed_point_checks_raise_their_types():
    # A deviation in the pair layout is unchecked; the extension matrix checks
    # catch a bad continuation in it, in fixed_point and extend alike.
    g = efce.builtin_game("fig1", seed=0)
    plan = g.player_plan(0)
    A = g.infoset(0, "A")
    lam = np.zeros(plan.owner.size)
    lam[A.seq_ids[0]] = 1.0
    uniform = 1.0 / np.bincount(plan.segment).take(plan.segment)
    bad = {}
    # mass conservation: a continuation that sums to 2
    bad[efce.NumericalError] = uniform * 2.0
    # a negative entry, with the sum kept at 1
    seg = plan.segment[plan.own[A.seq_ids[0]]]
    at = np.flatnonzero(plan.segment == seg)
    neg = uniform.copy()
    neg[at] = [1.5, -0.5]
    bad[ValueError] = neg
    x0 = np.zeros(plan.owner.size)
    x0[efce.EMPTY_SEQ] = 1.0
    for error, conts in bad.items():
        phi = efce.ConvexTriggerDeviation._of_pairs(0, lam, conts, plan)
        with pytest.raises(error):
            efce.fixed_point(g, phi)
        with pytest.raises(error):
            efce.extend(g, phi, set(), A.index, x0)


def test_fixed_point_checks_raise_their_types_at_every_action_count():
    # On a level of 1-, 2-, 3- and 4-action infosets, a fault in any one of
    # them raises its own type, and a nan in one infoset does not hide
    # another's lost mass.
    g = efce.parse_game(_MIXED_LEVEL_GAME)
    plan = g.player_plan(0)
    R = g.infoset(0, "R")
    isets = [g.infoset(0, label) for label in ("A1", "A2", "A3", "A4")]
    uniform = 1.0 / np.bincount(plan.segment).take(plan.segment)

    def own(js):
        # Pairs of the segment of js's first sequence's own trigger.
        return np.flatnonzero(plan.segment == plan.segment[plan.own[js.seq_ids[0]]])

    def deviation(conts, *isets_):
        lam = np.zeros(plan.owner.size)
        lam[[js.seq_ids[0] for js in isets_]] = 1.0 / len(isets_)
        return efce.ConvexTriggerDeviation._of_pairs(0, lam, conts, plan)

    x0 = np.zeros(plan.owner.size)
    x0[efce.EMPTY_SEQ] = 1.0
    cases = []
    for js in isets:
        lost = uniform.copy()
        lost[own(js)] *= 2.0
        cases.append((efce.NumericalError, deviation(lost, js), js))
        if len(js.seq_ids) > 1:
            neg = uniform.copy()
            neg[own(js)[:2]] = [1.5, -0.5]
            neg[own(js)[2:]] = 0.0
            cases.append((ValueError, deviation(neg, js), js))
    both = uniform.copy()
    both[own(isets[1])[0]] = np.nan
    both[own(isets[2])] *= 2.0
    cases.append((efce.NumericalError, deviation(both, isets[1], isets[2]), None))
    for error, phi, js in cases:
        with pytest.raises(error):
            efce.fixed_point(g, phi)
        if js is not None:
            x = efce.extend(g, phi, set(), R.index, x0)
            with pytest.raises(error):
                efce.extend(g, phi, {R.index}, js.index, x)


def test_nan_continuation_on_a_one_action_infoset_raises():
    # A 1-action infoset solved alone (by extend, or on a level of 1-action
    # infosets only) has the answer 1 whatever its chain holds, so a nan
    # chain once passed there and gave the parent's mass.
    one_action_level = """players 1; root r
decision r player 1 infoset R { a -> n1 ; b -> n2 }
decision n1 player 1 infoset A1 { a1 -> z1 }
decision n2 player 1 infoset B1 { b1 -> z2 }
leaf z1 {1}; leaf z2 {2}
"""
    for text in (_MIXED_LEVEL_GAME, one_action_level):
        g = efce.parse_game(text)
        plan = g.player_plan(0)
        R, A1 = g.infoset(0, "R"), g.infoset(0, "A1")
        trigger = A1.seq_ids[0]
        lam = np.zeros(plan.owner.size)
        lam[trigger] = 1.0
        conts = 1.0 / np.bincount(plan.segment).take(plan.segment)
        conts[plan.pair_trigger == trigger] = np.nan
        phi = efce.ConvexTriggerDeviation._of_pairs(0, lam, conts, plan)
        with pytest.raises(ValueError, match="extension matrix entries"):
            efce.fixed_point(g, phi)
        x0 = np.zeros(plan.owner.size)
        x0[efce.EMPTY_SEQ] = 1.0
        x = efce.extend(g, phi, set(), R.index, x0)
        with pytest.raises(ValueError, match="extension matrix entries"):
            efce.extend(g, phi, {R.index}, A1.index, x)


def test_level_chains_are_views_of_one_gather_and_match_a_per_level_gather():
    # fixed_point gathers every level's static chains at once; each level's
    # (k, m, m) view holds, bit for bit, the moved mass of the pair
    # (sids[c], sids[a]) plus the kept share on the diagonal, 1 where a
    # dummy column meets action 0, and 0 elsewhere.  A level's own gather,
    # and extend's gather of each of its infosets, read the same entries.
    rng = random.Random(13)
    for g in kernel_games():
        players = tuple(range(g.n_players))
        plan = g.player_plan(players)
        n = plan.owner.size
        index = {pair: p for p, pair in enumerate(zip(plan.pair_trigger.tolist(),
                                                      plan.pair_seq.tolist()))}
        hull = efce.HullMinimizer(g, players)
        for _ in range(3):
            phi = hull.next_element()
            _, _, moved, keep = _parts(plan, phi)
            entries = plan.chain_entries(moved, keep)
            static = entries.take(plan.gather)
            done = 0
            for level in plan.levels:
                k, m = level.sids.shape
                want = np.zeros((k, m, m))
                for j, row in enumerate(level.sids.tolist()):
                    for a in range(m):
                        for c in range(m):
                            if row[a] < n and row[c] < n:
                                want[j, a, c] = moved[index[row[c], row[a]]]
                                if a == c:
                                    want[j, a, c] += keep[row[a]]
                            elif a == 0:
                                want[j, a, c] = 1.0
                got = static[done:done + k * m * m].reshape(k, m, m)
                assert np.shares_memory(got, static) and np.array_equal(got, want)
                gather = _gather(level.sids, plan.own, plan.pair_seq.size)
                assert np.array_equal(entries.take(gather), want)
                for j, row in enumerate(level.sids.tolist()):
                    d = sum(s < n for s in row)
                    assert np.array_equal(entries.take(plan.infoset_gather(row[:d])),
                                          want[j:j + 1, :d, :d])
                done += k * m * m
            assert done == plan.gather.size == static.size
            q = np.array([rng.random() for _ in range(n)])
            hull.observe_utility(np.array([rng.uniform(-1.0, 1.0) for _ in range(n)]), q)
