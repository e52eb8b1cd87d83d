import random

import numpy as np
import pytest

import efce
from efce.dynamics import subtree_best_response


def test_first_distribution_is_uniform():
    rm = efce.RegretMatching(4)
    assert np.allclose(rm.next_element(), np.full(4, 0.25))


def test_known_update_sequence():
    rm = efce.RegretMatching(2)
    assert np.allclose(rm.next_element(), [0.5, 0.5])
    rm.observe_utility(np.array([1.0, 0.0]))
    assert np.allclose(rm.regrets, [0.5, -0.5])
    assert np.allclose(rm.next_element(), [1.0, 0.0])
    rm.observe_utility(np.array([0.0, 1.0]))
    # regret update adds u - <u, last> = (0,1) - 0 = (0,1)
    assert np.allclose(rm.regrets, [0.5, 0.5])
    assert np.allclose(rm.next_element(), [0.5, 0.5])


def test_negative_part_projection():
    rm = efce.RegretMatching(3)
    rm.regrets = np.array([2.0, 1.0, 0.0])
    assert np.allclose(rm.next_element(), [2 / 3, 1 / 3, 0.0])
    rm2 = efce.RegretMatching(3)
    rm2.regrets = np.array([-1.0, -2.0, -0.5])
    assert np.allclose(rm2.next_element(), np.full(3, 1 / 3))


def test_alternation_enforced():
    rm = efce.RegretMatching(2)
    with pytest.raises(efce.CallOrderError):
        rm.observe_utility(np.zeros(2))
    rm.next_element()
    with pytest.raises(efce.CallOrderError):
        rm.next_element()
    rm.observe_utility(np.zeros(2))
    rm.next_element()


def test_matching_takes_an_integer_action_count():
    # With numpy 2.4, 2.5 and True raised numpy's TypeError "expected a
    # sequence of integers or a single integer", and "3" "'<' not supported".
    for bad in (2.5, True, "3", None, -1):
        with pytest.raises(ValueError, match="action count"):
            efce.RegretMatching(bad)
    assert efce.RegretMatching(np.int64(2)).next_element().tolist() == [0.5, 0.5]
    empty = efce.RegretMatching(0)
    for _ in range(2):
        assert empty.next_element().shape == (0,)
        empty.observe_utility([])


def test_matching_rejects_bad_utility():
    # a NaN once made every regret NaN, and every later round uniform
    rm = efce.RegretMatching(2)
    rm.next_element()
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            rm.observe_utility(np.array(bad))
    # the round stays open, and the state untouched
    assert not rm.regrets.any()
    rm.observe_utility(np.array([1.0, 0.0]))
    assert np.allclose(rm.next_element(), [1.0, 0.0])


def test_matching_external_regret_bound():
    rng = random.Random(0)
    m, T = 5, 1000
    rm = efce.RegretMatching(m)
    total = np.zeros(m)
    earned = 0.0
    for _ in range(T):
        x = rm.next_element()
        u = np.array([rng.uniform(-1, 1) for _ in range(m)])
        earned += float(u @ x)
        total += u
        rm.observe_utility(u)
    regret = float(total.max()) - earned
    assert regret <= 2.0 * np.sqrt(m * T)


def test_cfr_iterates_stay_in_polytope():
    rng = random.Random(1)
    for name, seed in [("fig1", 0), ("kuhn3", None), ("random-tree", 4)]:
        g = efce.builtin_game(name, seed=seed)
        for i in range(g.n_players):
            if g.num_sequences(i) == 1:
                continue
            cfr = efce.CfrMinimizer(g, i)
            for _ in range(40):
                q = cfr.next_element()
                efce.validate_strategy(g, q)
                ell = np.array([rng.uniform(-1, 1)
                                for _ in range(g.num_sequences(i))])
                cfr.observe_utility(ell)


def test_cfr_alternation_enforced():
    g = efce.builtin_game("fig1", seed=0)
    cfr = efce.CfrMinimizer(g, 0)
    with pytest.raises(efce.CallOrderError):
        cfr.observe_utility(np.zeros(9))
    cfr.next_element()
    with pytest.raises(efce.CallOrderError):
        cfr.next_element()


def test_cfr_first_iterate_uniform():
    g = efce.builtin_game("fig1", seed=0)
    cfr = efce.CfrMinimizer(g, 0)
    q = cfr.next_element()
    assert np.allclose(q.values, efce.uniform_strategy(g, 0).values)


def test_cfr_external_regret_bound():
    rng = random.Random(3)
    for name, seed in [("fig1", 2), ("kuhn3", None)]:
        g = efce.builtin_game(name, seed=seed)
        n = g.num_sequences(0)
        cfr = efce.CfrMinimizer(g, 0)
        T = 800
        total = np.zeros(n)
        earned = 0.0
        d = 0.0
        for _ in range(T):
            q = cfr.next_element()
            ell = np.array([rng.uniform(-1, 1) for _ in range(n)])
            hi, _ = subtree_best_response(g, 0, ell)
            lo, _ = subtree_best_response(g, 0, -ell)
            d = max(d, hi + lo)
            earned += float(ell @ q.values)
            total += ell
            cfr.observe_utility(ell)
        best, _ = subtree_best_response(g, 0, total)
        assert best - earned <= d * n * np.sqrt(T)


def test_cfr_converges_against_fixed_loss():
    # with a constant utility vector the average strategy approaches a best response
    g = efce.builtin_game("kuhn3")
    n = g.num_sequences(0)
    rng = np.random.default_rng(8)
    ell = rng.uniform(-1, 1, size=n)
    cfr = efce.CfrMinimizer(g, 0)
    T = 2000
    acc = np.zeros(n)
    for _ in range(T):
        q = cfr.next_element()
        acc += q.values
        cfr.observe_utility(ell)
    avg = acc / T
    best, _ = subtree_best_response(g, 0, ell)
    assert float(ell @ avg) >= best - 0.05 * max(1.0, abs(best))


def test_cfr_rejects_bad_utility():
    # a 20-entry and an all-NaN vector were once taken silently, and a
    # 5-entry one raised IndexError
    g = efce.builtin_game("kuhn3")
    n = g.num_sequences(1)
    cfr = efce.CfrMinimizer(g, 1)
    first = cfr.next_element().values
    for bad in (np.zeros(20), np.zeros(5), np.full(n, np.nan), np.zeros((1, n))):
        with pytest.raises(ValueError):
            cfr.observe_utility(bad)
    # the round stays open, and the state untouched
    assert all(not rm.regrets.any() for rm in cfr._local.values())
    cfr.observe_utility(np.zeros(n))
    assert np.array_equal(cfr.next_element().values, first)


def test_cfr_subtree_scope():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    cfr = efce.CfrMinimizer(g, 0, root=A)
    rng = random.Random(4)
    T = 400
    total = np.zeros(9)
    earned = 0.0
    for _ in range(T):
        q = cfr.next_element()
        efce.validate_strategy(g, q)
        assert q.root == A
        ell = np.array([rng.uniform(-1, 1) for _ in range(9)])
        earned += float(ell @ q.values)
        total += ell
        cfr.observe_utility(ell)
    best, _ = subtree_best_response(g, 0, total, root=A)
    assert best - earned <= 4.0 * 9 * np.sqrt(T)
