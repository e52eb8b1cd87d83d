import inspect
import random
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import efce
import efce.cli as cli
from efce.dynamics import EmpiricalFrequency
from conftest import (brute_expected_payoffs, mixed_point, random_behavioral, random_deviation,
                      reference_games, reference_gap, reference_utility_vector)


def _pure(game, player, *sids):
    v = np.zeros(game.num_sequences(player))
    v[efce.EMPTY_SEQ] = 1.0
    for s in sids:
        v[s] = 1.0
    return efce.SequenceFormStrategy(player, v, None)


def test_best_response_ties_prefer_lowest_action():
    g = efce.builtin_game("fig1", seed=0)
    val, pi = efce.subtree_best_response(g, 0, np.zeros(9))
    assert val == 0.0
    assert pi.is_deterministic()
    # all-zero coefficients: the first action everywhere
    assert pi.values[1] == 1.0 and pi.values[3] == 1.0 and pi.values[5] == 1.0
    assert pi.values[2] == 0.0 and pi.values[7] == 0.0


def test_best_response_matches_enumeration():
    rng = np.random.default_rng(3)
    games = [efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(5)]
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            for _ in range(4):
                coeffs = rng.uniform(-2, 2, size=n)
                val, pi = efce.subtree_best_response(g, i, coeffs)
                efce.validate_strategy(g, pi)
                want = max(float(coeffs @ p.values)
                           for p in efce.enumerate_pure(g, i))
                assert val == pytest.approx(want, abs=1e-12)
                assert float(coeffs @ pi.values) == pytest.approx(val, abs=1e-12)


def test_best_response_subtree_scope():
    g = efce.builtin_game("fig1", seed=0)
    B = g.infoset(0, "B").index
    coeffs = np.zeros(9)
    coeffs[3] = -1.0
    coeffs[4] = 2.0
    val, pi = efce.subtree_best_response(g, 0, coeffs, root=B)
    assert val == 2.0
    assert pi.values[4] == 1.0 and pi.values[3] == 0.0
    assert pi.values[efce.EMPTY_SEQ] == 0.0


def test_subtree_best_response_matches_enumeration_per_root():
    rng = np.random.default_rng(8)
    games = [efce.builtin_game("fig1", seed=0), efce.builtin_game("kuhn3")]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(5)]
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            coeffs = rng.uniform(-2, 2, size=n)
            for gid in g.player_infosets(i):
                val, pi = efce.subtree_best_response(g, i, coeffs, root=gid)
                efce.validate_strategy(g, pi)
                want = max(float(coeffs @ p.values)
                           for p in efce.enumerate_pure(g, i, root=gid))
                assert val == pytest.approx(want, abs=1e-12)
                assert float(coeffs @ pi.values) == pytest.approx(val, abs=1e-12)


def test_subtree_best_response_ties_prefer_lowest_action_per_root():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    val, pi = efce.subtree_best_response(g, 0, np.zeros(9), root=A)
    assert val == 0.0
    # the first action at A, then the first action at both infosets below it
    assert np.flatnonzero(pi.values).tolist() == [1, 3, 5]
    D = g.infoset(0, "D").index
    val, pi = efce.subtree_best_response(g, 0, np.zeros(9), root=D)
    assert np.flatnonzero(pi.values).tolist() == [7]


def test_subtree_best_response_rejects_bad_coefficients():
    # a 12-entry vector once returned 4.0, a 4-entry one raised IndexError,
    # and an all-NaN one returned the value nan
    g = efce.builtin_game("fig1", seed=0)
    B = g.infoset(0, "B").index
    inf = np.zeros(9)
    inf[4] = np.inf
    for bad in (np.ones(12), np.ones(4), np.full(9, np.nan), inf, np.ones((1, 9))):
        for root in (None, B):
            with pytest.raises(ValueError):
                efce.subtree_best_response(g, 0, bad, root=root)


def test_accumulate_rejects_bad_profiles():
    # the swapped profile was once accepted and metered each player against
    # the other's strategy; a one-entry profile raised IndexError
    g = efce.builtin_game("kuhn3")
    p1, p2 = efce.uniform_strategy(g, 0), efce.uniform_strategy(g, 1)
    scoped = efce.uniform_strategy(g, 0, root=g.player_infosets(0)[0])
    short = efce.SequenceFormStrategy(0, np.ones(12))
    freq = EmpiricalFrequency(g)
    for bad in ([p2, p1], [p1], [p1, p2, p2], [scoped, p2], [short, p2]):
        with pytest.raises(ValueError):
            freq.accumulate(bad)
    assert freq.t == 0 and freq.utility is None
    assert not freq.meter.tables.any()
    freq.accumulate([p1, p2])
    assert freq.t == 1


def test_accumulate_rejects_non_finite_profile_unchanged():
    # A NaN entry once raised only after the round was counted and its
    # profile and utility stored, so the gap divided by the wrong t.
    g = efce.builtin_game("fig1", seed=0)
    freq = EmpiricalFrequency(g)
    p1, p2 = _pure(g, 0, 1, 3, 5), _pure(g, 1, 1, 3)
    bad = p1.copy()
    bad.values[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        freq.accumulate([bad, p2])
    assert freq.t == 0 and freq.utility is None and freq.profiles == []
    assert not freq.meter.tables.any() and not freq.meter.follow.any()
    freq.accumulate([p1, p2])
    fresh = EmpiricalFrequency(g)
    fresh.accumulate([p1, p2])
    assert freq.t == 1 and efce.efce_gap(freq).per_player == efce.efce_gap(fresh).per_player


def test_utility_that_overflows_raises_unchanged():
    # Both leaves pay the largest double, and the chance weights sum past 1.
    g = efce.parse_game("players 1; root c\n"
                        "chance c { a=0.5000000001 -> z1 ; b=0.5 -> z2 }\n"
                        "leaf z1 { 1.7976931348623157e308 }\n"
                        "leaf z2 { 1.7976931348623157e308 }")
    freq = EmpiricalFrequency(g)
    with pytest.raises(ValueError, match="^no profiles accumulated yet$"):
        efce.efce_gap_brute(freq)
    with pytest.raises(ValueError, match="^utility has a non-finite entry$"):
        freq.accumulate([efce.uniform_strategy(g, 0)])
    assert freq.t == 0 and freq.utility is None and freq.profiles == []


def test_inf_profile_raises_value_error_before_any_product():
    # An inf entry once reached the scorer's products, where 0 x inf warned
    # "invalid value encountered in multiply" before any ValueError, so under
    # warnings-as-errors the caller got the warning instead.
    g = efce.builtin_game("fig1", seed=0)
    freq = EmpiricalFrequency(g)
    p1, p2 = _pure(g, 0, 1, 3, 5), _pure(g, 1, 1, 3)
    bad1, bad2 = p1.copy(), p2.copy()
    bad1.values[3] = bad2.values[3] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite"):
            freq.accumulate([bad1, p2])
        with pytest.raises(ValueError, match="non-finite"):
            efce.utility_vector(g, 0, [p1, bad2])
    assert freq.t == 0 and freq.utility is None and freq.profiles == []
    assert not freq.meter.tables.any() and not freq.meter.follow.any()


def test_points_outside_unit_interval_raise_before_any_product():
    # Entries of 1e200 once overflowed in the meter's products: accumulate
    # counted the round with inf in meter.follow (under warnings-as-errors it
    # raised the overflow warning instead), and the hull kept non-finite
    # regrets.  A point is a realization plan, so its entries lie in [0, 1].
    g = efce.builtin_game("fig1", seed=0)
    big = [efce.SequenceFormStrategy(i, np.full(g.num_sequences(i), 1e200), None)
           for i in range(2)]
    p1, p2 = _pure(g, 0, 1, 3, 5), _pure(g, 1, 1, 3)
    below, above = p1.copy(), p2.copy()
    below.values[3] = -1e-6
    above.values[1] = 1.0 + 1e-6
    freq = EmpiricalFrequency(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (big, [below, p2], [p1, above]):
            with pytest.raises(ValueError, match="outside"):
                freq.accumulate(bad)
            with pytest.raises(ValueError, match="outside"):
                efce.utility_vector(g, 0, bad)
        hull = efce.HullMinimizer(g, 0)
        hull.next_element()
        with pytest.raises(ValueError, match="outside"):
            hull.observe_utility(np.full(9, 1e200), np.full(9, 1e200))
        meter = efce.PhiRegretMeter(g, 0)
        with pytest.raises(ValueError, match="outside"):
            meter.record(np.ones(9), np.full(9, 2.0))
    assert freq.t == 0 and freq.utility is None and freq.profiles == []
    assert not freq.meter.tables.any() and not freq.meter.follow.any()
    assert not hull.regrets.any() and not meter.tables.any()
    # within 1e-9 of [0, 1] passes
    near = p1.copy()
    near.values[3] = 1.0 + 1e-10
    near.values[2] = -1e-10
    freq.accumulate([near, p2])
    hull.observe_utility(np.ones(9), near.values)
    meter.record(np.ones(9), near.values)
    assert freq.t == 1 and np.isfinite(hull.regrets).all()


def test_accumulate_matches_reference_scorer():
    rng = random.Random(31)
    for g in reference_games():
        freq = EmpiricalFrequency(g)
        for _ in range(3):
            profile = [mixed_point(g, i, rng) for i in range(g.n_players)]
            utils = freq.accumulate(profile)
            for i, util in enumerate(utils):
                assert util.player == i and util.range_bound == g.payoff_range(i)
                assert np.array_equal(util.coefficients, reference_utility_vector(g, i, profile))
                assert np.shares_memory(util.coefficients, freq.utility)


def test_frequency_accumulates_tables_and_follow():
    g = efce.builtin_game("fig1", seed=0)
    freq = EmpiricalFrequency(g)
    p1 = _pure(g, 0, 1, 3, 5)
    p2 = _pure(g, 1, 1, 3)  # left at both of the other player's infosets
    freq.accumulate([p1, p2])
    assert freq.t == 1
    assert freq.profiles is not None and len(freq.profiles) == 1
    # coefficient vector seen by player 1 on this round
    coeff = efce.utility_vector(g, 0, [p1, p2]).coefficients
    for sid in (1, 3, 5):
        gid = int(g.seq_infoset(0)[sid])
        sub = g.subtree_sequences(gid)
        assert np.allclose(freq.tables[0][sid, sub], coeff[sub])
    assert np.allclose(freq.tables[0][2], 0.0)
    desc = g.descendant_mask(0)
    assert np.allclose(freq.follow[0], desc @ (coeff * p1.values))


def test_accumulate_returns_each_players_utility_vector():
    g = efce.builtin_game("kuhn3")
    rng = random.Random(2)
    pures = [list(efce.enumerate_pure(g, i)) for i in range(2)]
    freq = EmpiricalFrequency(g)
    prof = [rng.choice(pures[0]), rng.choice(pures[1])]
    utils = freq.accumulate(prof)
    for i in range(2):
        assert utils[i].player == i
        want = efce.utility_vector(g, i, prof).coefficients
        assert np.array_equal(utils[i].coefficients, want)
        assert np.shares_memory(freq.follow[i], freq.meter.follow)
    assert np.array_equal(freq.utility, np.concatenate([u.coefficients for u in utils]))


def test_frequency_keeps_one_entry_per_distinct_profile():
    g = efce.builtin_game("fig1", seed=0)
    a = [_pure(g, 0, 1, 3, 5), _pure(g, 1, 1, 3)]
    b = [_pure(g, 0, 2, 7), _pure(g, 1, 2, 4)]
    freq = EmpiricalFrequency(g)
    for t in range(10_000):
        freq.accumulate(a if t % 3 else b)
    assert freq.t == 10_000
    assert len(freq.profiles) == 2
    assert sorted(count for _, count in freq.profiles) == [3334, 6666]
    fast = efce.efce_gap(freq)
    slow = efce.efce_gap_brute(freq)
    assert abs(fast.eps - slow.eps) <= 1e-9
    for i in range(2):
        assert np.abs(fast.trigger_gaps[i][1:] - slow.trigger_gaps[i][1:]).max() <= 1e-9


def test_frequency_skips_profile_storage_for_large_games():
    g = efce.builtin_game("kuhn3")
    assert g.joint_profile_count() > 200
    freq = EmpiricalFrequency(g)
    assert freq.profiles is None
    rng = random.Random(0)
    pures = [list(efce.enumerate_pure(g, i)) for i in range(2)]
    freq.accumulate([rng.choice(pures[0]), rng.choice(pures[1])])
    with pytest.raises(ValueError):
        efce.efce_gap_brute(freq)


def _traced_runs(monkeypatch, games, rounds, gap_every, budget=None):
    """Self-play each game with the memos' byte budget set to ``budget`` (unless None).

    Returns the runs' logged rows, the bytes of the hull's two regret
    arrays and of the meter's two arrays after every round, the runs'
    frequencies (each with ``sizes``, its store's entries after each
    round, and ``seen``, the distinct profiles it was fed), the calls of
    the scorer and of the hull's completion pass, and the most bytes a
    hull memo held.
    """
    states, freqs, calls, memo = [], [], Counter(), [0]
    observe = efce.trigger.HullMinimizer.observe_utility
    regret = efce.trigger.PhiRegretMeter.regret
    score, complete = efce.dynamics._score, efce.trigger._complete

    def spy_observe(hull, ell, q):
        observe(hull, ell, q)
        states.append((hull._regrets.tobytes(), hull.mixer_regrets.tobytes()))
        memo[0] = max(memo[0], hull._memo.nbytes)

    def spy_regret(meter):
        states.append((meter.follow.tobytes(), meter._tables.tobytes()))
        return regret(meter)

    def spy_score(game, played):
        calls["score"] += 1
        return score(game, played)

    def spy_complete(plan, vals, local=None):
        calls["hull"] += local is not None
        return complete(plan, vals, local)

    class Recording(EmpiricalFrequency):
        def __init__(self, game):
            super().__init__(game)
            self.sizes, self.seen = [], set()
            freqs.append(self)

        def accumulate(self, profile):
            out = super().accumulate(profile)
            self.sizes.append(len(self._store))
            self.seen.add(b"".join(p.values.tobytes() for p in profile))
            return out

    with monkeypatch.context() as m:
        m.setattr(efce.trigger.HullMinimizer, "observe_utility", spy_observe)
        m.setattr(efce.trigger.PhiRegretMeter, "regret", spy_regret)
        m.setattr(efce.dynamics, "_score", spy_score)
        m.setattr(efce.trigger, "_complete", spy_complete)
        m.setattr(efce.dynamics, "EmpiricalFrequency", Recording)
        if budget is not None:
            m.setattr(efce.trigger, "_MEMO_BYTES", budget)
        rows = [efce.run(g, rounds, 0, gap_every=gap_every).rows for g in games]
    return rows, states, freqs, calls, memo[0]


@pytest.mark.parametrize("name, games, rounds", [
    ("fig1", [("fig1", s) for s in range(5)], 512),
    ("kuhn3", [("kuhn3", None)], 256),
    ("random-trees", [("random-tree", s) for s in range(16)], 32),
])
def test_memos_move_no_bit_of_any_round(monkeypatch, name, games, rounds):
    # A round's score and meter increments are a function of the joint
    # profile, and the hull's increments of (deviation, utility, point), so
    # adding kept arrays must give every bit that computing them afresh does.
    games = [efce.builtin_game(game, seed=s) for game, s in games]
    on = _traced_runs(monkeypatch, games, rounds, 16)
    off = _traced_runs(monkeypatch, games, rounds, 16, budget=0)
    assert repr(on[0]) == repr(off[0])
    assert len(on[1]) == len(off[1]) >= 2 * rounds * len(games)
    assert on[1] == off[1]
    # Memos off, every round scores and completes; on, a repeat does neither.
    played = rounds * len(games)
    assert off[3]["score"] == off[3]["hull"] == played
    assert all(f._store.nbytes == 0 for f in off[2]) and off[4] == 0
    assert on[3]["score"] == sum(len(f.seen) for f in on[2]) < played
    assert 0 < on[3]["hull"] < played, name


def test_kept_utility_is_read_only():
    # A repeated profile hands out its kept utility again, so a caller that
    # writes into it must fail, not change a later round.
    for g, budget in ((efce.builtin_game("fig1", seed=0), None), (efce.builtin_game("kuhn3"), 0)):
        rng = random.Random(4)
        pures = [list(efce.enumerate_pure(g, i)) for i in range(2)]
        profile = [rng.choice(pures[0]), rng.choice(pures[1])]
        freq, fresh = EmpiricalFrequency(g), EmpiricalFrequency(g)
        with pytest.MonkeyPatch.context() as m:
            if budget is not None:
                m.setattr(efce.trigger, "_MEMO_BYTES", budget)
            utils = freq.accumulate(profile)
            want = freq.utility.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                freq.utility[1] = 5.0
            for util in utils:
                with pytest.raises(ValueError, match="read-only"):
                    util.coefficients[:] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    util.coefficients *= 2.0
            again = freq.accumulate(profile)
            for _ in range(2):
                fresh.accumulate(profile)
        assert freq.utility.tobytes() == fresh.utility.tobytes() == want
        assert ([u.coefficients.tobytes() for u in again]
                == [u.coefficients.tobytes() for u in utils])
        assert freq.meter.follow.tobytes() == fresh.meter.follow.tobytes()
        assert freq.meter._tables.tobytes() == fresh.meter._tables.tobytes()


def test_store_stops_growing_at_its_budget(monkeypatch):
    # Kuhn N = 24 self-play plays mostly new profiles: the store fills to its
    # byte budget, then takes none more, and the rounds are those of no memo.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from kuhn import kuhn_text

    g = efce.parse_game(kuhn_text(24))
    budget = 100_000
    on = _traced_runs(monkeypatch, [g], 200, 50, budget=budget)
    off = _traced_runs(monkeypatch, [g], 200, 50, budget=0)
    assert repr(on[0]) == repr(off[0]) and on[1] == off[1]
    freq = on[2][0]
    store = freq._store
    entry = store.nbytes // len(store)
    assert store.nbytes == entry * len(store) <= budget < store.nbytes + entry
    full = freq.sizes.index(len(store))
    assert full < 100 and freq.sizes[full:] == [len(store)] * (200 - full)
    assert len(freq.seen) > 2 * len(store)
    assert 0 < on[4] <= budget


def test_gap_requires_samples():
    g = efce.builtin_game("fig1", seed=0)
    with pytest.raises(ValueError):
        efce.efce_gap(EmpiricalFrequency(g))


def test_gap_point_mass_single_player():
    # one decision, payoffs 0 and 1: always playing the 0 branch leaves a
    # full point of regret on the trigger
    g = efce.parse_game("players 1; root a\n"
                        "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                        "leaf z1 {0}; leaf z2 {1}")
    freq = EmpiricalFrequency(g)
    freq.accumulate([_pure(g, 0, 1)])
    report = efce.efce_gap(freq)
    assert report.eps == pytest.approx(1.0)
    assert report.per_player == [pytest.approx(1.0)]
    assert report.argmax == (0, 1)
    sid, witness = report.witnesses[0]
    assert sid == 1
    assert witness.values[2] == 1.0
    brute = efce.efce_gap_brute(freq)
    assert brute.eps == pytest.approx(1.0)


def test_gap_alternating_play_single_player():
    g = efce.parse_game("players 1; root a\n"
                        "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                        "leaf z1 {0}; leaf z2 {1}")
    freq = EmpiricalFrequency(g)
    freq.accumulate([_pure(g, 0, 1)])
    freq.accumulate([_pure(g, 0, 2)])
    report = efce.efce_gap(freq)
    # deviating on the zero branch gains 1 on half the rounds
    assert report.per_player[0] == pytest.approx(0.5)
    brute = efce.efce_gap_brute(freq)
    assert brute.per_player[0] == pytest.approx(0.5)
    assert np.allclose(report.trigger_gaps[0][1:], brute.trigger_gaps[0][1:])


def test_gap_fast_matches_brute_on_random_play():
    rng = random.Random(17)
    games = [efce.builtin_game("fig1", seed=s) for s in range(3)]
    games += [g for g in (efce.builtin_game("random-tree", seed=s)
                          for s in range(12))
              if g.joint_profile_count() <= 200]
    assert len(games) > 4
    for g in games:
        pures = [list(efce.enumerate_pure(g, i)) for i in range(g.n_players)]
        freq = EmpiricalFrequency(g)
        for _ in range(25):
            freq.accumulate([rng.choice(pures[i]) for i in range(g.n_players)])
        fast = efce.efce_gap(freq)
        slow = efce.efce_gap_brute(freq)
        assert fast.eps == pytest.approx(slow.eps, abs=1e-9)
        for i in range(g.n_players):
            assert fast.per_player[i] == pytest.approx(slow.per_player[i], abs=1e-9)
            if g.num_sequences(i) > 1:
                assert np.allclose(fast.trigger_gaps[i][1:],
                                   slow.trigger_gaps[i][1:], atol=1e-9)


def test_brute_oracle_walks_a_chain_deeper_than_the_recursion_limit():
    # enumerate_pure once recursed per infoset, and raised RecursionError
    # at its first draw on a scope of more than about 1000 infosets.
    depth = 1200
    lines = ["players 1", "root d0"]
    lines += [f"decision d{k} player 1 infoset I{k} {{ x -> d{k + 1} }}" for k in range(depth)]
    lines.append(f"leaf d{depth} {{ 1 }}")
    g = efce.parse_game("\n".join(lines))
    pures = list(efce.enumerate_pure(g, 0))
    assert len(pures) == 1
    freq = EmpiricalFrequency(g)
    freq.accumulate(pures)
    assert abs(efce.efce_gap_brute(freq).eps - efce.efce_gap(freq).eps) <= 1e-9


def test_gap_brute_matches_fast_on_mixed_profiles():
    # the library quick start: the brute oracle weights a stored mixed
    # profile by its played mass at the trigger, as the trigger's linear
    # action does
    g = efce.builtin_game("fig1", seed=0)
    freq = EmpiricalFrequency(g)
    profile = [efce.uniform_strategy(g, i) for i in range(g.n_players)]
    for _ in range(5):
        freq.accumulate(profile)
    fast = efce.efce_gap(freq)
    slow = efce.efce_gap_brute(freq)
    assert fast.eps == pytest.approx(slow.eps, abs=1e-9)
    for i in range(g.n_players):
        assert np.allclose(fast.trigger_gaps[i][1:], slow.trigger_gaps[i][1:],
                           rtol=0.0, atol=1e-9)


def test_gap_witness_achieves_reported_value():
    # The random trees add 3-player games and players without triggers.
    games = [efce.builtin_game("fig1", seed=2)]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    rng = random.Random(4)
    for g in games:
        n = g.n_players
        pures = [list(efce.enumerate_pure(g, i)) for i in range(n)]
        freq = EmpiricalFrequency(g)
        for _ in range(30):
            freq.accumulate([rng.choice(pures[i]) for i in range(n)])
        report = efce.efce_gap(freq)
        for i in range(n):
            if g.num_sequences(i) == 1:
                assert report.witnesses[i] is None and report.per_player[i] == 0.0
                continue
            sid, witness = report.witnesses[i]
            efce.validate_strategy(g, witness)
            gid = int(g.seq_infoset(i)[sid])
            assert witness.root == gid
            sub = g.subtree_sequences(gid)
            value = float(freq.tables[i][sid, sub] @ witness.values[sub])
            gap = (value - float(freq.follow[i][sid])) / freq.t
            assert gap == pytest.approx(report.per_player[i], abs=1e-12), (g.name, i)



def _same_witnesses(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is None and y is None
            continue
        assert x[0] == y[0]
        assert np.array_equal(x[1].values, y[1].values) and x[1].root == y[1].root


def test_gap_report_matches_eager_reference():
    # Play with zero-mass first actions, so that ties between triggers and
    # between actions come up.
    rng = random.Random(9)
    for g in reference_games():
        n = g.n_players
        freq = EmpiricalFrequency(g)
        for t in range(1, 25):
            points = [mixed_point(g, i, rng) for i in range(n)]
            freq.accumulate([efce.sample_pure(g, p, rng) for p in points])
            if t not in (1, 3, 8, 24):
                continue
            report = efce.efce_gap(freq)
            ref = reference_gap(freq)
            assert report.per_player == ref.per_player and report.eps == ref.eps, g.name
            assert all(np.array_equal(a, b)
                       for a, b in zip(report.trigger_gaps, ref.trigger_gaps, strict=True))
            _same_witnesses(report.witnesses, ref.witnesses)
            assert report.argmax == ref.argmax


def _spy_walk_best(monkeypatch):
    calls = []
    walk = efce.dynamics._walk_best

    def spy(*args):
        calls.append(args[1])
        return walk(*args)

    monkeypatch.setattr(efce.dynamics, "_walk_best", spy)
    return calls


def test_run_builds_no_witness_until_one_is_read(monkeypatch):
    calls = _spy_walk_best(monkeypatch)
    log = efce.run(efce.builtin_game("kuhn3"), 64, 0, gap_every=2)
    assert calls == []
    assert log.final.argmax is not None
    assert calls == [0, 1]
    log.final.witnesses
    assert calls == [0, 1]  # built once


def test_report_read_late_gives_its_own_rounds_witnesses(monkeypatch):
    g = efce.builtin_game("kuhn3")
    rng = random.Random(5)
    freq = EmpiricalFrequency(g)

    def play(rounds):
        for _ in range(rounds):
            freq.accumulate([efce.sample_pure(g, mixed_point(g, i, rng), rng)
                             for i in range(g.n_players)])

    play(20)
    first = efce.efce_gap(freq).witnesses
    calls = _spy_walk_best(monkeypatch)
    second = efce.efce_gap(freq)
    play(10)
    assert calls == []
    _same_witnesses(second.witnesses, first)
    assert calls == [0, 1]
    # The later rounds do move the witnesses.
    assert any(not np.array_equal(a[1].values, b[1].values) or a[0] != b[0]
               for a, b in zip(efce.efce_gap(freq).witnesses, first))


def test_run_reaches_the_names_the_benchmark_times(monkeypatch):
    # bench/run.py times each round at EmpiricalFrequency.accumulate and each
    # checkpoint at the module's efce_gap, both looked up at call time, and
    # reads the run's tables off accumulate's first argument.
    accumulate, efce_gap = EmpiricalFrequency.accumulate, efce.dynamics.efce_gap
    freqs, checkpoints = [], []

    def spy_accumulate(freq, profile):
        freqs.append(freq)
        return accumulate(freq, profile)

    def spy_gap(freq):
        checkpoints.append(freq.t)
        return efce_gap(freq)

    monkeypatch.setattr(EmpiricalFrequency, "accumulate", spy_accumulate)
    monkeypatch.setattr(efce.dynamics, "efce_gap", spy_gap)
    # bench/tracer.py also hooks the learner's per-round steps at these names.
    calls = Counter()

    def spy(owner, name):
        target = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return target(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((efce.trigger.HullMinimizer, "next_element"),
                        (efce.trigger.HullMinimizer, "observe_utility"),
                        (efce.trigger, "fixed_point"), (efce.trigger, "sample_pure")):
        spy(owner, name)
    log = efce.run(efce.builtin_game("kuhn3"), 10, 0, gap_every=3)
    assert len(freqs) == 10 and isinstance(freqs[0], EmpiricalFrequency)
    assert all(f is freqs[0] for f in freqs) and freqs[0].t == 10
    assert checkpoints == [3, 6, 9, 10]
    assert [row[4] is not None for row in log.rows[::2]] == [t in (3, 6, 9, 10)
                                                            for t in range(1, 11)]
    # The hull steps once per round, fixed_point runs once per distinct
    # deviation (each of kuhn3's first 10 rounds changes it), and sample_pure
    # once per player per round.
    assert calls == {"next_element": 10, "observe_utility": 10, "fixed_point": 10,
                     "sample_pure": 20}


def test_run_logs_the_same_bytes_with_a_list_of_players(monkeypatch):
    # run() builds its learner on a tuple of players; a list must act alike.
    g = efce.builtin_game("kuhn3")
    want = efce.run(g, 16, 3, gap_every=4).csv_text()
    pure = efce.dynamics.PureTriggerMinimizer
    built = []

    def with_list(game, players, *rest):
        built.append(pure(game, list(players), *rest))
        return built[-1]

    monkeypatch.setattr(efce.dynamics, "PureTriggerMinimizer", with_list)
    assert efce.run(g, 16, 3, gap_every=4).csv_text() == want
    assert built[0].player == [0, 1]


def test_run_log_row_layout():
    g = efce.builtin_game("fig1", seed=0)
    log = efce.run(g, iterations=30, seed=2, gap_every=10)
    assert len(log.rows) == 30 * 2
    for k, (t, player, regret, bound, gap, gap_bound) in enumerate(log.rows):
        assert t == k // 2 + 1
        assert player == k % 2 + 1
        assert np.isfinite(regret)
        assert bound == pytest.approx(
            2.0 * g.payoff_range(player - 1) * g.num_sequences(player - 1)
            * np.sqrt(t))
        if t % 10 == 0 or t == 30:
            assert gap is not None and gap_bound is not None
        else:
            assert gap is None and gap_bound is None
    assert log.final is not None
    assert log.final.eps == max(r[4] for r in log.rows if r[0] == 30)


def test_run_csv_format():
    g = efce.builtin_game("fig1", seed=0)
    log = efce.run(g, iterations=5, seed=0, gap_every=5)
    lines = log.csv_text().splitlines()
    assert lines[0] == "t,player,phi_regret,phi_regret_bound,efce_gap,gap_bound"
    assert len(lines) == 1 + 5 * 2
    empty_gap = lines[1].split(",")
    assert empty_gap[4] == "" and empty_gap[5] == ""
    final = lines[-1].split(",")
    assert final[0] == "5" and final[1] == "2"
    assert final[4] != "" and final[5] != ""


def test_run_regret_matches_gap_identity():
    g = efce.builtin_game("fig1", seed=1)
    log = efce.run(g, iterations=200, seed=3, gap_every=50)
    for t, player, regret, _, gap, _ in log.rows:
        if gap is None:
            continue
        d = g.payoff_range(player - 1)
        assert abs(regret / t - gap) <= 1e-9 * max(1.0, d)


def test_run_checkpoint_gap_is_regret_over_t_exactly():
    for g, seed in [(efce.builtin_game("fig1", seed=1), 3),
                    (efce.builtin_game("kuhn3"), 7),
                    (efce.builtin_game("random-tree", seed=5), 2)]:
        log = efce.run(g, iterations=96, seed=seed, gap_every=8)
        checked = 0
        for t, _, regret, _, gap, _ in log.rows:
            if gap is not None:
                assert gap == regret / t
                checked += 1
        assert checked == 12 * g.n_players


def test_run_deterministic():
    g = efce.builtin_game("fig1", seed=0)
    a = efce.run(g, iterations=64, seed=9, gap_every=16)
    b = efce.run(g, iterations=64, seed=9, gap_every=16)
    assert a.csv_text() == b.csv_text()
    assert a.summary_text() == b.summary_text()


def test_run_handles_player_without_choices():
    g = efce.parse_game("players 2; root a\n"
                        "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                        "leaf z1 {1 0}; leaf z2 {0 1}")
    log = efce.run(g, iterations=40, seed=0, gap_every=20)
    p2 = [r for r in log.rows if r[1] == 2]
    assert all(r[2] == 0.0 for r in p2)
    assert log.final.per_player[1] == 0.0
    assert np.isfinite(log.final.eps)


def test_run_single_node_game():
    g = efce.parse_game("players 1; root z; leaf z {2}")
    log = efce.run(g, iterations=5, seed=0)
    assert log.final.eps == 0.0
    assert all(r[2] == 0.0 for r in log.rows)


def test_run_rejects_bad_arguments():
    g = efce.builtin_game("fig1", seed=0)
    with pytest.raises(ValueError):
        efce.run(g, iterations=0, seed=0)
    with pytest.raises(ValueError):
        efce.run(g, iterations=5, seed=0, gap_every=0)
    with pytest.raises(ValueError):
        efce.run(g, iterations=5, seed=0, delta=0.0)
    with pytest.raises(ValueError):
        efce.run(g, iterations=5, seed=0, delta=1.0)
    # 3.5 once failed in range with TypeError, and 1.5 ran, logging "gap-every: 1.5"
    with pytest.raises(ValueError, match="^iterations"):
        efce.run(g, iterations=3.5, seed=0)
    with pytest.raises(ValueError, match="^gap-every"):
        efce.run(g, iterations=5, seed=0, gap_every=1.5)


def test_run_rejects_bool_round_counts():
    # True once ran one round, its summary saying "iterations: True"
    g = efce.builtin_game("fig1", seed=0)
    with pytest.raises(ValueError, match="^iterations must be an integer of at least 1$"):
        efce.run(g, True, 0)
    with pytest.raises(ValueError, match="^gap-every must be an integer of at least 1$"):
        efce.run(g, iterations=5, seed=0, gap_every=True)


def test_run_rejects_bad_fp_tol():
    g = efce.builtin_game("fig1", seed=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^fp-tol must be positive and finite$"):
            efce.run(g, iterations=5, seed=0, fp_tol=bad)


def test_run_survives_rounding_residue_parent_mass():
    # game 53, run seed 0 reaches an infoset whose parent mass is a rounding
    # residue of zero with every sequence's weight fully above it: the
    # extension matrix then has zero column sums
    g = efce.builtin_game("random-tree", seed=53)
    log = efce.run(g, iterations=32, seed=0, gap_every=1)
    for t, player, regret, bound, gap, _ in log.rows:
        d = max(1.0, g.payoff_range(player - 1))
        assert abs(regret / t - gap) <= 1e-6 * d
        assert regret <= bound
    assert np.isfinite(log.final.eps)


# Player 1's infoset B has a single action.
_ONE_ACTION_GAME = """players 2; root a
decision a player 1 infoset A { x -> p ; y -> z1 }
decision p player 2 infoset P { l -> b ; r -> z2 }
decision b player 1 infoset B { only -> d }
decision d player 2 infoset D { l -> z3 ; r -> z4 }
leaf z1 {1 0}; leaf z2 {0 2}; leaf z3 {3 -1}; leaf z4 {-2 1}
"""


def test_one_action_infoset():
    g = efce.parse_game(_ONE_ACTION_GAME)
    assert g.joint_profile_count() == 6
    rng = random.Random(12)
    for _ in range(50):
        phi = random_deviation(g, 0, rng)
        q = efce.fixed_point(g, phi).values
        assert np.max(np.abs(efce.apply_deviation(g, phi, q) - q)) <= 1e-9

    log = efce.run(g, iterations=64, seed=3, gap_every=4)
    for t, _, regret, _, gap, _ in log.rows:
        if gap is not None:
            assert gap == regret / t

    freq = EmpiricalFrequency(g)
    pures = [list(efce.enumerate_pure(g, i)) for i in range(2)]
    for _ in range(30):
        freq.accumulate([rng.choice(pures[i]) for i in range(2)])
    fast = efce.efce_gap(freq)
    slow = efce.efce_gap_brute(freq)
    for i in range(2):
        assert np.allclose(fast.trigger_gaps[i][1:], slow.trigger_gaps[i][1:],
                           rtol=0.0, atol=1e-9)


def test_random_tree_sweep(monkeypatch):
    # games 0-63 cover 1-, 2- and 3-player games, players without decisions,
    # and games 21, 34, 51, 53 and 54, which once built NaN extension matrices
    made = []

    class Recording(EmpiricalFrequency):
        def __init__(self, game):
            super().__init__(game)
            made.append(self)

    monkeypatch.setattr(efce.dynamics, "EmpiricalFrequency", Recording)
    brute_checked = 0
    for s in range(64):
        g = efce.builtin_game("random-tree", seed=s)
        log = efce.run(g, iterations=64, seed=0, gap_every=8)
        checkpoints = 0
        for t, _, regret, bound, gap, _ in log.rows:
            assert regret <= bound, s
            if gap is not None:
                assert gap == regret / t, s
                checkpoints += 1
        assert checkpoints == 8 * g.n_players
        freq = made.pop()
        if freq.profiles is not None:
            slow = efce.efce_gap_brute(freq)
            assert log.final.per_player == pytest.approx(slow.per_player, abs=1e-9), s
            brute_checked += 1
    assert brute_checked > 0


# Player 1 opens with 4 actions and, after a and player 2's l or r, meets a
# second 4-action infoset: 7 x 3 = 21 joint pure profiles.
_WIDE_BRUTE_GAME = """players 2; root r
decision r player 1 infoset A { a -> na ; b -> nb ; c -> nc ; d -> nd }
decision na player 2 infoset R { l -> la ; m -> za ; r -> ra }
decision nb player 2 infoset R { l -> zb0 ; m -> zb1 ; r -> zb2 }
decision nc player 2 infoset R { l -> zc0 ; m -> zc1 ; r -> zc2 }
decision nd player 2 infoset R { l -> zd0 ; m -> zd1 ; r -> zd2 }
decision la player 1 infoset B { p -> z0 ; q -> z1 ; s -> z2 ; t -> z3 }
decision ra player 1 infoset B { p -> z4 ; q -> z5 ; s -> z6 ; t -> z7 }
leaf za {0 2}; leaf zb0 {3 -1}; leaf zb1 {-2 1}; leaf zb2 {1 0}
leaf zc0 {-1 2}; leaf zc1 {2 -2}; leaf zc2 {0 1}
leaf zd0 {1 1}; leaf zd1 {-3 2}; leaf zd2 {2 -1}
leaf z0 {4 -2}; leaf z1 {-1 3}; leaf z2 {0 0}; leaf z3 {2 1}
leaf z4 {-2 2}; leaf z5 {3 -3}; leaf z6 {1 2}; leaf z7 {-1 0}
"""


def test_gap_equals_brute_oracle_with_four_action_infosets(monkeypatch):
    made = []

    class Recording(EmpiricalFrequency):
        def __init__(self, game):
            super().__init__(game)
            made.append(self)

    monkeypatch.setattr(efce.dynamics, "EmpiricalFrequency", Recording)
    g = efce.parse_game(_WIDE_BRUTE_GAME)
    assert g.joint_profile_count() <= 200
    assert sorted(len(js.actions) for js in g.infosets) == [3, 4, 4]
    log = efce.run(g, iterations=60, seed=3, gap_every=1)
    assert all(gap is not None for *_, gap, _ in log.rows)
    (freq,) = made
    slow = efce.efce_gap_brute(freq)
    assert abs(log.final.eps - slow.eps) <= 1e-9
    for i in range(g.n_players):
        assert abs(log.final.per_player[i] - slow.per_player[i]) <= 1e-9
        assert np.abs(log.final.trigger_gaps[i][1:] - slow.trigger_gaps[i][1:]).max() <= 1e-9


def test_summary_mentions_key_facts():
    g = efce.builtin_game("kuhn3")
    log = efce.run(g, iterations=20, seed=7, gap_every=10)
    text = log.summary_text()
    assert "game: kuhn3" in text
    assert "iterations: 20" in text
    assert "seed: 7" in text
    assert "final efce gap:" in text
    assert "player 2:" in text


def test_empirical_payoffs_consistent_with_tree_walk():
    # follow value at the root-most sequences reproduces realized utility
    g = efce.builtin_game("fig1", seed=4)
    rng = random.Random(6)
    freq = EmpiricalFrequency(g)
    pures = [list(efce.enumerate_pure(g, i)) for i in range(2)]
    total = np.zeros(2)
    for _ in range(10):
        prof = [rng.choice(pures[i]) for i in range(2)]
        freq.accumulate(prof)
        total += brute_expected_payoffs(g, prof)
    for i in range(2):
        roots = [g.infosets[gid] for gid in g.player_infosets(i)
                 if g.infosets[gid].parent_seq == efce.EMPTY_SEQ]
        got = sum(float(freq.follow[i][s]) for js in roots for s in js.seq_ids)
        # terminals where the player never acts are missed by per-sequence
        # follow sums, so only check when every terminal sits below an infoset
        if all(int(g.term_seq[z, i]) != efce.EMPTY_SEQ
               for z in range(g.n_terminals)):
            assert got == pytest.approx(total[i], abs=1e-9)


def test_random_behavioral_helper_is_valid():
    rng = random.Random(0)
    g = efce.builtin_game("kuhn3")
    for i in range(2):
        q = random_behavioral(g, i, rng)
        efce.validate_strategy(g, q)


_OVERFLOW_GAME = """players 2; root a
decision a player 1 infoset A { x -> b ; y -> c }
decision b player 2 infoset B { l -> z1 ; r -> z2 }
decision c player 2 infoset B { l -> z3 ; r -> z4 }
leaf z1 {%s %s}; leaf z2 {0 0}; leaf z3 {0 0}; leaf z4 {1 -1}
"""


def test_payoff_overflow_fails_fast(tmp_path, capsys):
    # 1e308 once overflowed the regret sums with a RuntimeWarning, logged inf
    # bounds and a nan gap, and exited 0
    text = _OVERFLOW_GAME % ("1e308", "-1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large"):
            efce.run(efce.parse_game(text), 50, 0)
        p = tmp_path / "overflow.game"
        p.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", "--game", str(p), "--iterations", "50", "--out", str(out)]) == 3
        assert "too large" in capsys.readouterr().err
        assert not out.exists()
        # the number of rounds counts: 1e306 x 5 sequences overflows over 1000
        # rounds, not over 10
        g = efce.parse_game(_OVERFLOW_GAME % ("1e306", "-1e306"))
        with pytest.raises(ValueError, match="too large"):
            efce.run(g, 1000, 0)
        log = efce.run(g, 10, 0, gap_every=5)
        # one player's payoffs spanning more than the float range
        g = efce.parse_game((_OVERFLOW_GAME % ("1e308", "0")).replace("{1 -1}", "{-1e308 0}"))
        assert g.payoff_range(0) == np.inf
        with pytest.raises(ValueError, match="too large"):
            efce.run(g, 1, 0)
    assert np.isfinite(log.final.eps)
    assert all(np.isfinite(b) for b in log.meta["final_regret_bounds"])


def test_readme_round_phases_name_functions_of_the_package():
    # The README's map of a round must not name a function that is gone.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z ]+) \| `([\w.]+)` \| `([\w/.]+)` \|", readme, re.M)
    assert [phase for phase, _, _ in rows] == [
        "hull next", "fixed point", "sample", "score", "meter update", "hull observe",
        "meter regret", "gap"]
    root = Path(efce.__file__).resolve().parents[2]
    for _, name, path in rows:
        obj = efce
        for part in name.split("."):
            obj = getattr(obj, part)
        assert Path(inspect.getsourcefile(obj)).resolve() == root / path
