import random
import time

import numpy as np
import pytest

import efce
from conftest import fig1_deviations, random_behavioral, random_deviation


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
        efce.ConvexTriggerDeviation(0, [(efce.EMPTY_SEQ, 1.0, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(1, -0.5, cont), (2, 1.5, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(1, 0.4, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(3, 1.0, cont), (4, np.nan, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(3, np.nan, cont)])
    lam = np.zeros(9)
    lam[3] = np.nan
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation.from_arrays(0, lam, np.zeros((9, 9)))
    # trigger ids must be non-empty sequence ids: -1 once wrapped to 8
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(-1, 1.0, cont)])
    with pytest.raises(ValueError):
        efce.ConvexTriggerDeviation(0, [(9, 1.0, cont)])
    empty = efce.ConvexTriggerDeviation(0, [])
    assert empty.terms == []
    x = efce.uniform_strategy(g, 0)
    assert np.allclose(efce.apply_deviation(g, empty, x.values), x.values)


def test_validate_deviation_checks_continuations():
    g = efce.builtin_game("fig1", seed=0)
    bad = np.zeros(9)
    bad[2] = 0.7  # flow broken below
    phi = efce.ConvexTriggerDeviation(0, [(1, 1.0, bad)])
    with pytest.raises(ValueError):
        efce.validate_deviation(g, phi)
    nan_cont = np.zeros(9)
    nan_cont[1] = nan_cont[3] = 1.0
    nan_cont[5] = np.nan
    phi = efce.ConvexTriggerDeviation(0, [(1, 1.0, nan_cont)])
    with pytest.raises(ValueError):
        efce.validate_deviation(g, phi)
    da, db, dc = fig1_deviations(g)
    good = efce.ConvexTriggerDeviation(
        0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
            (3, 1 / 6, dc.continuation)])
    efce.validate_deviation(g, good)


def test_cumulative_weights_worked_example():
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    phi = efce.ConvexTriggerDeviation(
        0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
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


def _worked_phi(g):
    da, db, dc = fig1_deviations(g)
    return efce.ConvexTriggerDeviation(
        0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
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
    phi2 = efce.ConvexTriggerDeviation(1, [])
    with pytest.raises(ValueError):
        efce.extend(g, phi2, set(), A, x0)  # player mismatch


def test_extend_zero_mass_parent_gives_zero_children():
    g = efce.builtin_game("fig1", seed=0)
    n = g.num_sequences(0)
    y = np.zeros(n)
    y[2] = 1.0
    y[8] = 1.0
    phi = efce.ConvexTriggerDeviation(0, [(1, 1.0, y)])
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
    phi = efce.ConvexTriggerDeviation(0, [(1, 1.0, y)])
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
    phi = efce.ConvexTriggerDeviation(0, [])
    fp = efce.fixed_point(g, phi)
    efce.validate_strategy(g, fp)
    assert np.abs(efce.apply_deviation(g, phi, fp.values) - fp.values).max() == 0.0
    # every infoset's chain moves no mass, so each gets the equal shares
    # stationary_distribution gives an identity chain, 2 and 3 actions alike
    for g in [g] + [efce.builtin_game("random-tree", seed=s) for s in range(8)]:
        for i in range(g.n_players):
            fp = efce.fixed_point(g, efce.ConvexTriggerDeviation(i, []))
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
    phi = efce.ConvexTriggerDeviation(0, [(1, 1.0, y)])
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


def test_fixed_point_closed_forms_match_general_solver():
    # one infoset of m actions: the fixed point is the stationary distribution
    # of col[a, c] = lam[c] * cont_c[a] + (1 - lam[c]) * [a == c], which the
    # fixed point solves in closed form for m = 2 and m = 3 (m = 4 takes the
    # general solver's path)
    rng = np.random.default_rng(4)
    for m in (2, 3, 4):
        acts = " ; ".join(f"a{k} -> z{k}" for k in range(m))
        leaves = "; ".join(f"leaf z{k} {{{k}}}" for k in range(m))
        g = efce.parse_game(f"players 1; root r\n"
                            f"decision r player 1 infoset A {{ {acts} }}\n{leaves}")
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
            phi = efce.ConvexTriggerDeviation(0, entries)
            fp = efce.fixed_point(g, phi)
            assert np.abs(fp.values[1:] - efce.stationary_distribution(col)).max() <= 1e-12
