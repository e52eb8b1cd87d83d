import sys

import numpy as np
import pytest

import efce
import efce.cli as cli


def test_fig1_structure():
    g = efce.builtin_game("fig1", seed=0)
    assert g.name == "fig1-s0"
    assert g.n_players == 2
    assert g.n_nodes == 15
    assert g.n_terminals == 8
    assert g.num_sequences(0) == 9
    assert g.num_sequences(1) == 5
    assert g.num_infosets(0) == 4
    assert g.num_infosets(1) == 2
    names = [g.sequence_name(0, s) for s in range(9)]
    assert names == ["(empty)", "A:1", "A:2", "B:3", "B:4", "C:5", "C:6",
                     "D:7", "D:8"]
    assert [g.sequence_name(1, s) for s in range(5)] == [
        "(empty)", "R:l", "R:r", "S:l", "S:r"]


def test_fig1_payoffs_depend_on_seed_only():
    a = efce.builtin_game("fig1", seed=3)
    b = efce.builtin_game("fig1", seed=3)
    c = efce.builtin_game("fig1", seed=4)
    assert np.array_equal(a.term_payoffs, b.term_payoffs)
    assert not np.array_equal(a.term_payoffs, c.term_payoffs)
    assert set(np.unique(a.term_payoffs)) <= {-1.0, 0.0, 1.0}


def test_kuhn3_structure():
    g = efce.builtin_game("kuhn3")
    assert g.n_players == 2
    assert g.n_nodes == 55
    assert g.n_terminals == 30
    for i in range(2):
        assert g.num_sequences(i) == 13
        assert g.num_infosets(i) == 6
        assert g.payoff_range(i) == 4.0
    # zero-sum payoffs
    assert np.allclose(g.term_payoffs.sum(axis=1), 0.0)


def test_single_leaf_game():
    g = efce.parse_game("players 1; root z; leaf z {0}")
    assert g.n_nodes == 1
    assert g.n_terminals == 1
    assert g.num_sequences(0) == 1
    assert g.num_infosets(0) == 0
    assert g.joint_profile_count() == 1
    assert g.payoff_range(0) == 0.0


def test_game_line_optional_and_semicolons():
    g = efce.parse_game("players 1; root z; leaf z {0}")
    assert g.name == "game"
    h = efce.parse_game("game tiny\nplayers 1\nroot z\nleaf z { 4 }")
    assert h.name == "tiny"


def test_comments_ignored():
    g = efce.parse_game("# header\nplayers 1 # trailing\nroot z\nleaf z {0}")
    assert g.n_nodes == 1


def test_parse_error_reports_position():
    with pytest.raises(efce.GameFormatError) as e:
        efce.parse_game("players 1\nroot a\ndecision a player x infoset A { l -> z }\nleaf z {0}")
    assert e.value.line == 3
    assert "line 3" in str(e.value)
    assert e.value.col is not None


def test_non_finite_payoffs_rejected_with_position():
    for bad in ("nan", "inf", "-inf", "1e999"):
        text = ("players 1; root a\n"
                "decision a player 1 infoset A { x -> z1 ; y -> z2 }\n"
                f"leaf z1 {{0}}; leaf z2 {{ {bad} }}")
        with pytest.raises(efce.GameFormatError, match="finite") as e:
            efce.parse_game(text)
        assert (e.value.line, e.value.col) == (3, 24)


def test_duplicate_node_rejected():
    text = "players 1; root a\ndecision a player 1 infoset A { x -> b ; y -> c }\nleaf b {0}; leaf b {1}; leaf c {0}"
    with pytest.raises(ValueError, match="duplicate"):
        efce.parse_game(text)


def test_undeclared_child_rejected():
    text = "players 1; root a\ndecision a player 1 infoset A { x -> b ; y -> ghost }\nleaf b {0}"
    with pytest.raises(efce.GameValidationError, match="undeclared"):
        efce.parse_game(text)


def test_two_parents_rejected():
    text = ("players 1; root a\n"
            "decision a player 1 infoset A { x -> b ; y -> b }\n"
            "leaf b {0}")
    with pytest.raises(efce.GameValidationError, match="parent"):
        efce.parse_game(text)


def test_unreachable_node_rejected():
    text = "players 1; root a; leaf a {0}; leaf b {1}"
    with pytest.raises(efce.GameValidationError, match="unreachable|not reachable"):
        efce.parse_game(text)


def test_chance_probabilities_must_sum_to_one():
    text = ("players 1; root c\n"
            "chance c { h=0.5 -> a ; t=0.4 -> b }\n"
            "leaf a {0}; leaf b {1}")
    with pytest.raises(efce.GameValidationError, match="sum"):
        efce.parse_game(text)


def test_chance_probability_must_be_positive():
    text = ("players 1; root c\n"
            "chance c { h=1.0 -> a ; t=0.0 -> b }\n"
            "leaf a {0}; leaf b {1}")
    with pytest.raises(efce.GameValidationError, match="positive"):
        efce.parse_game(text)


def test_payoff_count_must_match_players():
    text = "players 2; root z; leaf z {0}"
    with pytest.raises(efce.GameValidationError, match="payoff"):
        efce.parse_game(text)


def test_infoset_action_sets_must_match():
    text = ("players 1; root c\n"
            "chance c { h=0.5 -> a ; t=0.5 -> b }\n"
            "decision a player 1 infoset J { x -> z1 ; y -> z2 }\n"
            "decision b player 1 infoset J { x -> z3 ; w -> z4 }\n"
            "leaf z1 {0}; leaf z2 {0}; leaf z3 {0}; leaf z4 {0}")
    with pytest.raises(efce.GameValidationError, match="action"):
        efce.parse_game(text)


@pytest.mark.parametrize("text, match", [
    ("players 0; root z; leaf z {}", "at least 1"),
    ("players 2; root a; decision a player 3 infoset A { x -> z }; leaf z {0 0}",
     "player 3"),
    ("players 1; root r; leaf z {0}", "root node 'r' is not declared"),
    ("players 1; root a; decision a player 1 infoset A { x -> a }", "appears as a child"),
    ("players 1; root a; decision a player 1 infoset A { x -> y ; x -> z }\n"
     "leaf y {0}; leaf z {0}", "repeats an action"),
    ("players 1; root c; chance c { h=0.5 -> y ; h=0.5 -> z }\n"
     "leaf y {0}; leaf z {0}", "repeats an action"),
    ("players 1; root a; decision a player 1 infoset A { }", "no actions"),
])
def test_structural_errors_rejected(text, match):
    with pytest.raises(efce.GameValidationError, match=match):
        efce.parse_game(text)


@pytest.mark.parametrize("text, match, line, col", [
    ("players 1; root a\ndecision a player 1 infoset A {", "unexpected end of input",
     2, 32),
    ("players 1; root z\nleaf z 0", "expected '{'", 2, 8),
    ("players 1; root c\nchance c { h=half -> z }", "probability", 2, 14),
    ("game g; game h; players 1; root z; leaf z {0}", "repeated 'game'", 1, 9),
    ("players 1; players 1; root z; leaf z {0}", "repeated 'players'", 1, 12),
    ("players 1; root z; root z; leaf z {0}", "repeated 'root'", 1, 20),
    ("root z; leaf z {0}", "missing 'players'", 1, 1),
    ("players 1; leaf z {0}", "missing 'root'", 1, 1),
    ("players 1; root z\nnode z {0}", "statement keyword", 2, 1),
])
def test_format_errors_report_position(text, match, line, col):
    with pytest.raises(efce.GameFormatError, match=match) as e:
        efce.parse_game(text)
    assert (e.value.line, e.value.col) == (line, col)


def test_perfect_recall_violation_rejected():
    # both children of the player's own choice land in one infoset
    text = ("players 1; root a\n"
            "decision a player 1 infoset A { x -> b ; y -> c }\n"
            "decision b player 1 infoset B { l -> z1 ; r -> z2 }\n"
            "decision c player 1 infoset B { l -> z3 ; r -> z4 }\n"
            "leaf z1 {0}; leaf z2 {0}; leaf z3 {0}; leaf z4 {0}")
    with pytest.raises(efce.GameValidationError, match="recall"):
        efce.parse_game(text)


def test_forgetting_across_chance_rejected():
    # the player acts, chance moves, and the infoset forgets the player's action
    text = ("players 1; root a\n"
            "decision a player 1 infoset A { x -> c1 ; y -> c2 }\n"
            "chance c1 { h=1.0 -> b1 }\n"
            "chance c2 { h=1.0 -> b2 }\n"
            "decision b1 player 1 infoset B { l -> z1 ; r -> z2 }\n"
            "decision b2 player 1 infoset B { l -> z3 ; r -> z4 }\n"
            "leaf z1 {0}; leaf z2 {0}; leaf z3 {0}; leaf z4 {0}")
    with pytest.raises(efce.GameValidationError, match="recall"):
        efce.parse_game(text)


def test_same_infoset_grouping_allowed_across_chance():
    # chance hides its outcome: grouping is legal
    text = ("players 1; root c\n"
            "chance c { h=0.5 -> a ; t=0.5 -> b }\n"
            "decision a player 1 infoset J { x -> z1 ; y -> z2 }\n"
            "decision b player 1 infoset J { x -> z3 ; y -> z4 }\n"
            "leaf z1 {1}; leaf z2 {0}; leaf z3 {0}; leaf z4 {1}")
    g = efce.parse_game(text)
    assert g.num_infosets(0) == 1
    assert g.num_sequences(0) == 3


def test_sequence_ids_follow_infoset_discovery_order():
    g = efce.builtin_game("fig1", seed=0)
    assert g.sequence_id(0, "A", "1") == 1
    assert g.sequence_id(0, "A", "2") == 2
    assert g.sequence_id(0, "B", "3") == 3
    assert g.sequence_id(0, "D", "8") == 8
    assert g.sequence_id(1, "S", "r") == 4
    assert g.seq_parent(0)[3] == 1
    assert g.seq_parent(0)[7] == 2
    assert g.seq_parent(0)[1] == efce.EMPTY_SEQ


def test_sequence_precedes():
    g = efce.builtin_game("fig1", seed=0)
    assert efce.sequence_precedes(g, (0, 1), (0, 3))
    assert efce.sequence_precedes(g, (0, 2), (0, 7))
    assert not efce.sequence_precedes(g, (0, 3), (0, 1))
    assert not efce.sequence_precedes(g, (0, 1), (0, 1))
    assert not efce.sequence_precedes(g, (0, 1), (0, 7))
    assert efce.sequence_precedes(g, (0, efce.EMPTY_SEQ), (0, 5))
    with pytest.raises(ValueError):
        efce.sequence_precedes(g, (0, 1), (1, 1))


def test_sequences_at_or_below():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    D = g.infoset(0, "D").index
    assert sorted(efce.sequences_at_or_below(g, A)) == list(range(1, 9))
    assert sorted(efce.sequences_at_or_below(g, B)) == [3, 4]
    assert sorted(efce.sequences_at_or_below(g, D)) == [7, 8]


def test_descendant_mask():
    g = efce.builtin_game("fig1", seed=0)
    desc = g.descendant_mask(0)
    assert desc[efce.EMPTY_SEQ].all()
    assert set(np.flatnonzero(desc[1])) == {1, 3, 4, 5, 6}
    assert set(np.flatnonzero(desc[2])) == {2, 7, 8}
    assert set(np.flatnonzero(desc[3])) == {3}


def test_plan_matches_independent_ancestry():
    # Ancestry rebuilt by walking seq_parent upward, subtrees from the
    # infoset forest; neither reads the plan.
    games = [efce.builtin_game("kuhn3"), efce.builtin_game("fig1", seed=0)]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    for g in games:
        for i in range(g.n_players):
            n = g.num_sequences(i)
            parent = g.seq_parent(i)
            below = np.zeros((n, n))
            for t in range(n):
                s = t
                while s != efce.EMPTY_SEQ:
                    below[s, t] = 1.0
                    s = parent[s]
                below[efce.EMPTY_SEQ, t] = 1.0
            subtree = np.zeros((n, n))
            for gid in g.player_infosets(i):
                sub = {sid for g2 in g.subtree_infosets(gid)
                       for sid in g.infosets[g2].seq_ids}
                assert set(g.subtree_sequences(gid).tolist()) == sub
                subtree[np.ix_(g.infosets[gid].seq_ids, sorted(sub))] = 1.0
            plan = g.player_plan(i)
            assert np.array_equal(plan.below, below)
            assert np.array_equal(plan.subtree, subtree)
            for a in range(n):
                for b in range(n):
                    want = a != b and below[a, b] == 1.0
                    assert efce.sequence_precedes(g, (i, a), (i, b)) == want


def test_group_plan_stacks_one_player_plans():
    games = [efce.builtin_game("kuhn3"), efce.builtin_game("fig1", seed=0)]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    for g in games:
        players = tuple(range(g.n_players))
        plan = g.player_plan(players)
        assert g.player_plan(players) is plan
        n = plan.rank.size
        assert n == sum(g.num_sequences(i) for i in players)
        mask = np.zeros((n, n), dtype=bool)
        own = np.zeros((n, n))
        uniform = np.ones(n)
        for k, (i, a, b) in enumerate(plan.spans):
            one = g.player_plan(i)
            assert (i, a) == (players[k], plan.offsets[k])
            assert (plan.owner[a:b] == k).all()
            for name in ("subtree", "below"):
                assert np.array_equal(getattr(plan, name)[a:b, a:b], getattr(one, name))
            mask[a:b, a:b] = True
            for gid in g.player_infosets(i):
                sids = [a + s for s in g.infosets[gid].seq_ids]
                own[np.ix_(sids, sids)] = 1.0
                uniform[sids] = 1.0 / len(sids)
        for name in ("subtree", "below"):
            assert not getattr(plan, name)[~mask].any()
        # the level-layout masks: row j is sequence order[j], column t trigger t
        assert np.array_equal(plan.level_subtree, plan.subtree.T[plan.order])
        assert np.array_equal(plan.level_own, own[plan.order])
        assert np.array_equal(plan.level_uniform, np.tile(uniform[plan.order, None], (1, n)))
        # the level layout visits every sequence once, each level's in order
        assert sorted(plan.order.tolist()) == list(range(n))
        assert np.array_equal(plan.order[plan.rank], np.arange(n))
        assert plan.order[:len(players)].tolist() == plan.offsets.tolist()
        for lev in plan.levels:
            assert np.array_equal(plan.order[lev.lo:lev.hi], lev.seqs)
            for s, row in zip(lev.seqs, lev.parent_rows):
                i, a, _ = plan.spans[plan.owner[s]]
                assert plan.order[row] == a + g.seq_parent(i)[s - a]


def test_player_plan_rejects_bad_players():
    # -1 once built player 2's plan labelled -1, 2 raised IndexError, and
    # (0, 0) stacked player 0 twice
    g = efce.builtin_game("fig1", seed=0)
    for bad in (-1, 2, (0, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            g.player_plan(bad)
    for make in (lambda: efce.HullMinimizer(g, -1),
                 lambda: efce.PhiRegretMeter(g, -1),
                 lambda: efce.subtree_best_response(g, -1, np.ones(5)),
                 lambda: efce.fixed_point(g, efce.ConvexTriggerDeviation(-1, []))):
        with pytest.raises(ValueError):
            make()
    assert g.player_plan((1, 0)).sizes.tolist() == [5, 9]


def test_pure_strategy_counts():
    g = efce.builtin_game("fig1", seed=0)
    assert g.pure_count(0) == 6
    assert g.pure_count(1) == 4
    assert g.joint_profile_count() == 24
    k = efce.builtin_game("kuhn3")
    assert k.pure_count(0) == 27
    assert k.pure_count(1) == 64


def test_deep_chain_parses_without_recursion(tmp_path, capsys):
    # One infoset per level, nested deeper than the interpreter's recursion limit.
    depth = sys.getrecursionlimit() + 100
    lines = ["players 1", "root d0"]
    for k in range(depth):
        nxt = f"d{k + 1}" if k + 1 < depth else f"y{k}"
        lines.append(f"decision d{k} player 1 infoset I{k} {{ x -> z{k} ; y -> {nxt} }}")
        lines.append(f"leaf z{k} {{ {k} }}")
    lines.append(f"leaf y{depth - 1} {{ -1 }}")
    text = "\n".join(lines) + "\n"
    g = efce.parse_game(text)
    assert g.pure_count(0) == depth + 1
    assert list(g.player_infosets(0)) == [g.infoset(0, f"I{k}").index for k in range(depth)]
    path = tmp_path / "chain.game"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 0
    assert f"player 1: infosets={depth} sequences={2 * depth + 1}" in capsys.readouterr().out


def test_sequence_count_bounded_by_nodes():
    for name, seed in [("fig1", 0), ("kuhn3", None)] + [
            ("random-tree", s) for s in range(10)]:
        g = efce.builtin_game(name, seed=seed)
        for i in range(g.n_players):
            assert g.num_sequences(i) <= g.n_nodes


def test_serialize_roundtrip():
    for name, seed in [("fig1", 7), ("kuhn3", None)] + [
            ("random-tree", s) for s in range(8)]:
        g = efce.builtin_game(name, seed=seed)
        h = efce.parse_game(efce.serialize_game(g))
        assert g.same_structure(h)
        assert np.array_equal(g.term_payoffs, h.term_payoffs)
        assert np.allclose(g.term_chance, h.term_chance)


def test_random_trees_are_valid_and_varied():
    player_counts = set()
    for s in range(25):
        g = efce.builtin_game("random-tree", seed=s)
        player_counts.add(g.n_players)
        assert g.n_terminals >= 1
        assert (g.term_chance > 0).all()
        assert (g.term_chance <= 1 + 1e-12).all()
    assert len(player_counts) >= 2


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="builtin"):
        efce.builtin_game("nope")
    for name in ("fig1", "random-tree"):
        with pytest.raises(ValueError, match="requires"):
            efce.builtin_game(name)


def test_infoset_lookup():
    g = efce.builtin_game("fig1", seed=0)
    js = g.infoset(0, "D")
    assert js.actions == ("7", "8")
    assert js.parent_seq == 2
    assert len(js.nodes) == 2
    assert g.infoset_label(js.index) == "D"
    with pytest.raises(KeyError):
        g.infoset(0, "nope")
