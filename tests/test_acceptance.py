"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance, guards its
own runtime, and prints a PASS line with the measured numbers on success.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

import efce
import efce.cli as cli
from efce.dynamics import EmpiricalFrequency
from conftest import fig1_deviations, random_deviation


def _guard(t0, limit, label):
    el = time.monotonic() - t0
    assert el < limit, f"{label} took {el:.1f}s, budget {limit}s"
    return el


def _vertex(n, *sids):
    v = np.zeros(n)
    v[0] = 1.0
    for s in sids:
        v[s] = 1.0
    return v


def test_criterion_1_trigger_matrices_exact():
    t0 = time.monotonic()
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    ma = np.zeros((9, 9))
    for r, c in [(0, 0), (2, 2), (7, 7), (8, 8), (2, 1), (7, 1)]:
        ma[r, c] = 1.0
    mb = np.zeros((9, 9))
    for r, c in [(0, 0), (1, 1), (3, 3), (4, 4), (5, 5), (6, 6),
                 (1, 2), (3, 2), (5, 2)]:
        mb[r, c] = 1.0
    mc = np.eye(9)
    mc[3, 3] = 0.0
    mc[4, 3] = 1.0
    assert np.array_equal(efce.build_matrix(g, da), ma)
    assert np.array_equal(efce.build_matrix(g, db), mb)
    assert np.array_equal(efce.build_matrix(g, dc), mc)
    el = _guard(t0, 1.0, "criterion 1")
    print(f"PASS criterion 1: three worked trigger matrices exact ({el:.2f}s)")


def test_criterion_2_extension_worked_values():
    t0 = time.monotonic()
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    phi = efce.ConvexTriggerDeviation(
        g, 0, [(1, 0.5, da.continuation), (2, 1 / 3, db.continuation),
               (3, 1 / 6, dc.continuation)])
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    C = g.infoset(0, "C").index
    D = g.infoset(0, "D").index
    x = np.zeros(9)
    x[efce.EMPTY_SEQ] = 1.0
    x = efce.extend(g, phi, set(), A, x)
    assert np.abs(x - [1, .4, .6, 0, 0, 0, 0, 0, 0]).max() <= 1e-12
    xd = efce.extend(g, phi, {A}, D, x)
    assert np.abs(xd - [1, .4, .6, 0, 0, 0, 0, .6, 0]).max() <= 1e-12
    x = efce.extend(g, phi, {A}, B, x)
    assert np.abs(x - [1, .4, .6, .3, .1, 0, 0, 0, 0]).max() <= 1e-12
    x = efce.extend(g, phi, {A, B}, C, x)
    x = efce.extend(g, phi, {A, B, C}, D, x)
    want = [1, .4, .6, .3, .1, .4, 0, .6, 0]
    assert np.abs(x - want).max() <= 1e-12
    fp = efce.fixed_point(g, phi)
    assert np.abs(fp.values - want).max() <= 1e-12
    el = _guard(t0, 1.0, "criterion 2")
    print(f"PASS criterion 2: extension chain and full fixed point within 1e-12 ({el:.2f}s)")


def test_criterion_3_vertex_mapping_relations():
    t0 = time.monotonic()
    g = efce.builtin_game("fig1", seed=0)
    da, db, dc = fig1_deviations(g)
    q135 = _vertex(9, 1, 3, 5)
    q136 = _vertex(9, 1, 3, 6)
    q145 = _vertex(9, 1, 4, 5)
    q27 = _vertex(9, 2, 7)
    q28 = _vertex(9, 2, 8)
    relations = [
        (da, q135, q27), (da, q136, q27), (da, q145, q27),
        (da, q27, q27), (da, q28, q28),
        (db, q27, q135), (db, q28, q135), (db, q136, q136), (db, q145, q145),
        (dc, q135, q145), (dc, q145, q145),
    ]
    for dev, x, want in relations:
        assert np.array_equal(efce.apply_trigger(g, dev, x), want)
        assert np.array_equal(efce.build_matrix(g, dev) @ x, want)
    el = _guard(t0, 1.0, "criterion 3")
    print(f"PASS criterion 3: {len(relations)} vertex mapping relations exact ({el:.2f}s)")


def test_criterion_4_pure_strategy_transformation_rules():
    t0 = time.monotonic()
    games = [efce.builtin_game("fig1", seed=0)]
    seed = 0
    while len(games) < 21 and seed < 500:
        g = efce.builtin_game("random-tree", seed=seed)
        seed += 1
        if all(g.pure_count(i) <= 200 for i in range(g.n_players)):
            games.append(g)
    assert len(games) == 21
    checked = 0
    for g in games:
        for i in range(g.n_players):
            pures = list(efce.enumerate_pure(g, i))
            if not pures:
                continue
            P = np.stack([p.values for p in pures], axis=1)
            for sid in range(1, g.num_sequences(i)):
                gid = int(g.seq_infoset(i)[sid])
                sub = g.subtree_seq_mask(gid)
                for cont in efce.enumerate_pure(g, i, root=gid):
                    dev = efce.TriggerDeviation(i, sid, cont.values)
                    m = efce.build_matrix(g, dev)
                    out = m @ P
                    expected = P.copy()
                    trig = P[sid] == 1.0
                    expected[np.ix_(sub, trig)] = cont.values[sub, None]
                    assert np.array_equal(out, expected)
                    checked += out.shape[1]
    el = _guard(t0, 30.0, "criterion 4")
    print(f"PASS criterion 4: transformation rules on {len(games)} games, "
          f"{checked} (strategy, deviation) pairs exact ({el:.1f}s)")


def test_criterion_5_fixed_points_of_random_deviations():
    t0 = time.monotonic()
    rng = random.Random(2024)
    target = 1000
    done = 0
    seed = 0
    worst = 0.0
    while done < target:
        g = efce.builtin_game("random-tree", seed=seed)
        seed += 1
        players = [i for i in range(g.n_players) if g.num_sequences(i) > 1]
        if not players:
            continue
        for _ in range(min(25, target - done)):
            i = rng.choice(players)
            phi = random_deviation(g, i, rng)
            fp = efce.fixed_point(g, phi)
            efce.validate_strategy(g, fp)
            resid = np.abs(
                efce.apply_deviation(g, phi, fp.values) - fp.values).max()
            worst = max(worst, resid)
            assert resid <= 1e-9
            done += 1
    el = _guard(t0, 60.0, "criterion 5")
    print(f"PASS criterion 5: {done} random deviation fixed points over "
          f"{seed} games, worst residual {worst:.2e} ({el:.1f}s)")


def test_criterion_6_regret_bounds_under_adversarial_losses():
    t0 = time.monotonic()
    T = 4096
    rng = np.random.default_rng(7)

    # plain matching over a 5-action simplex
    m = 5
    rm = efce.RegretMatching(m)
    total = np.zeros(m)
    earned = 0.0
    for _ in range(T):
        x = rm.next_element()
        u = rng.uniform(-1.0, 1.0, size=m)
        earned += float(u @ x)
        total += u
        rm.observe_utility(u)
    rm_regret = float(total.max()) - earned
    rm_bound = 2.0 * math.sqrt(m * T)
    assert rm_regret <= rm_bound

    g = efce.builtin_game("kuhn3")
    n = g.num_sequences(0)

    cfr = efce.CfrMinimizer(g, 0)
    total = np.zeros(n)
    earned = 0.0
    d = 0.0
    for _ in range(T):
        q = cfr.next_element()
        ell = rng.uniform(-1.0, 1.0, size=n)
        hi, _ = efce.subtree_best_response(g, 0, ell)
        lo, _ = efce.subtree_best_response(g, 0, -ell)
        d = max(d, hi + lo)
        earned += float(ell @ q.values)
        total += ell
        cfr.observe_utility(ell)
    best, _ = efce.subtree_best_response(g, 0, total)
    cfr_regret = best - earned
    cfr_bound = d * n * math.sqrt(T)
    assert cfr_regret <= cfr_bound

    mixed = efce.MixedTriggerMinimizer(g, 0)
    meter = efce.PhiRegretMeter(g, 0)
    d = 0.0
    for _ in range(T):
        q = mixed.next_element()
        ell = rng.uniform(-1.0, 1.0, size=n)
        hi, _ = efce.subtree_best_response(g, 0, ell)
        lo, _ = efce.subtree_best_response(g, 0, -ell)
        d = max(d, hi + lo)
        meter.record(ell, q.values)
        mixed.observe_utility(ell)
    mixed_regret = meter.regret()
    mixed_bound = 2.0 * d * n * math.sqrt(T)
    assert mixed_regret <= mixed_bound

    el = _guard(t0, 120.0, "criterion 6")
    print(f"PASS criterion 6: T={T} adversarial regrets "
          f"matching {rm_regret:.1f}<={rm_bound:.0f}, "
          f"cfr {cfr_regret:.1f}<={cfr_bound:.0f}, "
          f"trigger {mixed_regret:.1f}<={mixed_bound:.0f} ({el:.1f}s)")


def test_criterion_7_regret_gap_identity():
    t0 = time.monotonic()
    runs = [(efce.builtin_game("fig1", seed=s), s) for s in range(5)]
    runs.append((efce.builtin_game("kuhn3"), 0))
    checked = 0
    worst = 0.0
    for g, seed in runs:
        log = efce.run(g, iterations=512, seed=seed, gap_every=64)
        for t, player, regret, _, gap, _ in log.rows:
            if gap is None:
                continue
            d = max(1.0, g.payoff_range(player - 1))
            err = abs(regret / t - gap)
            worst = max(worst, err / d)
            assert err <= 1e-6 * d
            checked += 1
    el = _guard(t0, 120.0, "criterion 7")
    print(f"PASS criterion 7: regret/time equals measured gap at {checked} "
          f"checkpoints, worst scaled error {worst:.2e} ({el:.1f}s)")


@pytest.mark.slow
def test_criterion_8_gap_convergence_with_bound():
    t0 = time.monotonic()
    T = 4096
    marks = (256, 1024, 4096)
    delta = 0.01
    for name, gseed in [("fig1", 0), ("kuhn3", None)]:
        g = efce.builtin_game(name, seed=gseed)
        d_max = max(g.payoff_range(i) for i in range(g.n_players))
        factor = d_max * (2.0 * g.n_nodes
                          + math.sqrt(8.0 * math.log(g.n_players / delta)))
        hits = {t: 0 for t in marks}
        gaps = {t: [] for t in marks}
        for seed in range(20):
            log = efce.run(g, iterations=T, seed=seed, gap_every=256,
                           delta=delta)
            by_t = {}
            for t, _, _, _, gap, _ in log.rows:
                if gap is not None and t in marks:
                    by_t.setdefault(t, []).append(gap)
            for t in marks:
                eps = max(by_t[t])
                gaps[t].append(eps)
                if eps <= factor / math.sqrt(t):
                    hits[t] += 1
        for t in marks:
            assert hits[t] >= 19, f"{name}: bound held only {hits[t]}/20 at t={t}"
        med_early = statistics.median(gaps[256])
        med_late = statistics.median(gaps[4096])
        assert med_late < med_early, (
            f"{name}: median gap did not shrink ({med_early} -> {med_late})")
        print(f"  {name}: bound held 20/20 at t={marks}, median gap "
              f"{med_early:.4f} -> {med_late:.4f}")
    el = _guard(t0, 600.0, "criterion 8")
    print(f"PASS criterion 8: gap under the high-probability bound and "
          f"shrinking on both games ({el:.1f}s)")


def test_criterion_9_sampling_frequencies():
    t0 = time.monotonic()
    g = efce.builtin_game("fig1", seed=0)
    q = np.array([1, .5, .5, .25, .25, .1, .4, 0, .5])
    strat = efce.SequenceFormStrategy(0, q.copy(), None)
    rng = random.Random(2)
    n = 100_000
    acc = np.zeros(9)
    for _ in range(n):
        acc += efce.sample_pure(g, strat, rng).values
    freq = acc / n
    tol = 4.0 * np.sqrt(q * (1.0 - q) / n)
    dev = np.abs(freq - q)
    assert (dev <= tol + 1e-15).all(), (freq, tol)
    el = _guard(t0, 10.0, "criterion 9")
    print(f"PASS criterion 9: {n} samples, per-sequence frequencies within "
          f"four standard deviations, max |dev| {dev.max():.2e} ({el:.1f}s)")


def test_criterion_10_gap_oracle_agreement():
    t0 = time.monotonic()
    rng = random.Random(99)
    games = [efce.builtin_game("fig1", seed=s) for s in range(3)]
    seed = 0
    while len(games) < 11 and seed < 300:
        g = efce.builtin_game("random-tree", seed=seed)
        seed += 1
        if g.joint_profile_count() <= 200:
            games.append(g)
    assert len(games) == 11
    compared = 0
    for g in games:
        pures = [list(efce.enumerate_pure(g, i)) for i in range(g.n_players)]
        freq = EmpiricalFrequency(g)
        for _ in range(40):
            freq.accumulate([rng.choice(pures[i]) for i in range(g.n_players)])
        fast = efce.efce_gap(freq)
        slow = efce.efce_gap_brute(freq)
        assert abs(fast.eps - slow.eps) <= 1e-9
        for i in range(g.n_players):
            assert abs(fast.per_player[i] - slow.per_player[i]) <= 1e-9
            if g.num_sequences(i) > 1:
                assert np.abs(fast.trigger_gaps[i][1:]
                              - slow.trigger_gaps[i][1:]).max() <= 1e-9
                compared += g.num_sequences(i) - 1

    # same comparison on genuine self-play instead of random profiles
    g = efce.builtin_game("fig1", seed=1)
    rngs = efce.split_rngs(5, 2)
    states = [efce.PureTriggerMinimizer(g, i, rngs[i]) for i in range(2)]
    freq = EmpiricalFrequency(g)
    for _ in range(100):
        profile = [s.next_element() for s in states]
        freq.accumulate(profile)
        for i in range(2):
            states[i].observe_utility(efce.utility_vector(g, i, profile))
    fast = efce.efce_gap(freq)
    slow = efce.efce_gap_brute(freq)
    assert abs(fast.eps - slow.eps) <= 1e-9
    for i in range(2):
        assert np.abs(fast.trigger_gaps[i][1:]
                      - slow.trigger_gaps[i][1:]).max() <= 1e-9
    el = _guard(t0, 60.0, "criterion 10")
    print(f"PASS criterion 10: dynamic-programming gap equals exhaustive "
          f"evaluation on {len(games)} games, {compared} triggers ({el:.1f}s)")


def test_criterion_11_cli_reruns_byte_identical(tmp_path, capsys):
    t0 = time.monotonic()
    header = "t,player,phi_regret,phi_regret_bound,efce_gap,gap_bound"
    combos = [
        (["--builtin", "fig1", "--builtin-seed", "0"], 3, []),
        (["--builtin", "fig1", "--builtin-seed", "0"], 7, ["--threads", "2"]),
        (["--builtin", "kuhn3"], 3, []),
        (["--builtin", "kuhn3"], 7, []),
    ]
    for k, (gargs, seed, extra) in enumerate(combos):
        outs = []
        for rep in range(2):
            out = tmp_path / f"c{k}r{rep}"
            code = cli.main(["run", *gargs, "--iterations", "1024",
                             "--seed", str(seed), "--gap-every", "256",
                             "--out", str(out), *extra])
            assert code == 0
            csv = (out / "log.csv").read_bytes()
            assert csv.decode().splitlines()[0] == header
            outs.append((csv, (out / "summary.txt").read_bytes()))
        assert outs[0][0] == outs[1][0], f"combo {k}: csv differs between reruns"
        assert outs[0][1] == outs[1][1], f"combo {k}: summary differs between reruns"
    capsys.readouterr()
    el = _guard(t0, 600.0, "criterion 11")
    print(f"PASS criterion 11: {len(combos)} configurations rerun "
          f"byte-identical with exact header ({el:.1f}s)")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
