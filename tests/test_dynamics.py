import random

import numpy as np
import pytest

import efce
from efce.dynamics import EmpiricalFrequency
from conftest import brute_expected_payoffs, random_behavioral, random_deviation


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


def test_run_rejects_bad_fp_tol():
    g = efce.builtin_game("fig1", seed=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
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
