import hashlib
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

import efce
import efce.cli as cli
from conftest import MIXED_LEVEL
from efce.game import GameTree, _fig1_text, _kuhn3_text, _random_tree_text


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
    cases = [
        ("players 1; root a; leaf a {0}; leaf b {1}", "b"),
        # a cycle of two decision nodes that nothing else reaches
        ("players 1; root a; leaf a {0}\n"
         "decision b player 1 infoset B { x -> c }\n"
         "decision c player 1 infoset C { y -> b }", "b"),
        # an unreachable decision node alone in its infoset
        ("players 1; root r\n"
         "decision r player 1 infoset R { x -> z1 }\n"
         "leaf z1 {0}\n"
         "decision u player 1 infoset U { y -> z2 }\n"
         "leaf z2 {1}", "u"),
    ]
    for text, first in cases:
        with pytest.raises(efce.GameValidationError,
                           match=f"^node '{first}' is not reachable from the root$"):
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
    ("players 1; root z\r\nleaf z 0", "expected '{'", 2, 8),
    ("players 1; root z\rleaf z 0", "expected '{'", 2, 8),
    ("players 1; root z\fleaf z 0", "expected '{'", 2, 8),
    ("players 1; root z\nleaf z {0}#c\nnode z", "statement keyword, found 'node'", 3, 1),
    ("players 1; root a\ndecision a player 1 infoset A { a#b -> z }\nleaf z {0}",
     "expected '->', found 'leaf'", 3, 1),
    ("node z {0}", "statement keyword", 1, 1),
    ("players 1; root c\nchance c { h=0.5 -> z",
     "end of input, expected chance entry or '}'", 2, 22),
    ("players 1; root a\ndecision a player 1 infoset A { x -> z",
     "end of input, expected action entry or '}'", 2, 39),
    ("players 1; root z\nleaf z { 0", "end of input, expected payoff or '}'", 2, 11),
    ("players 1; root a\ndecision a player", "end of input, expected player number", 2, 18),
    # The bad statement follows statements that the statement reader reads.
    ("players 1; root a\nleaf z {0}\ndecision a player 1 infoset A { x -> z # }\nleaf y {1}",
     "expected '->', found 'y'", 4, 6),
    ("players 1; root a\nleaf z {0}\ndecision a player 1 # c\ninfoset A { x -> z }\nnode y",
     "statement keyword, found 'node'", 5, 1),
    ("players 1; root z\nleaf y {1}\nleaf z { 0 ; }", "expected a payoff, found ';'", 3, 12),
    ("game g\nroot z\nleaf z {0 0}\nplayers 2x", "expected player count, found '2x'", 4, 9),
    ("players 1; root z\nleaf y {1}\nleaf z { 1e999 }", "payoff must be finite", 3, 10),
    ("players 1; root z\nleaf z {0}\nleaf z {1}", "duplicate node id 'z'", 3, 6),
    ("players 1\nroot z\nleaf z {0}\nroot z", "repeated 'root'", 4, 1),
    ("players 1\r\nroot z\r\nleaf y {1}\r\nleaf z 0", "expected '{'", 4, 8),
    ("players 1\u2028root z\u2028leaf y {1}\u2028leaf z 0", "expected '{'", 4, 8),
    # A name is a word: the token reader once took punctuation as a name, and
    # each of these parsed.
    ("players 1; root {; leaf { { 1 }", "expected root node id, found '{'", 1, 17),
    ("players 1; root ->; leaf -> { 1 }", "expected root node id, found '->'", 1, 17),
    ("game ;\nplayers 1; root z; leaf z {0}", "expected game name, found ';'", 1, 6),
    ("players 1; root a\ndecision a player 1 infoset = { x -> z }\nleaf z {0}",
     "expected infoset label, found '='", 2, 29),
    ("players 1; root a\ndecision a player 1 infoset A { = -> z }\nleaf z {0}",
     "expected action entry or '}', found '='", 2, 33),
    ("players 1; root c\nchance c { -> = 1 -> z }\nleaf z {0}",
     "expected chance entry or '}', found '->'", 2, 12),
    ("players 1; root z; leaf } {0}", "expected node id, found '}'", 1, 25),
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


def test_sequence_precedes_checks_each_player_before_comparing_them():
    # On kuhn3, (5, 1) against (0, 1) once raised "cannot compare sequences
    # of players 6 and 1", naming a player the game lacks.
    g = efce.builtin_game("kuhn3")
    for bad in (5, 1.5, -1, 2):
        message = re.escape(f"player {bad} is not one of players 0 to 1")
        for a, b in (((bad, 1), (0, 1)), ((0, 1), (bad, 1))):
            with pytest.raises(ValueError, match=message):
                efce.sequence_precedes(g, a, b)
    with pytest.raises(ValueError, match="cannot compare sequences of players 1 and 2"):
        efce.sequence_precedes(g, (0, 1), (1, 1))


def test_sequences_at_or_below():
    g = efce.builtin_game("fig1", seed=0)
    A = g.infoset(0, "A").index
    B = g.infoset(0, "B").index
    D = g.infoset(0, "D").index
    assert sorted(efce.sequences_at_or_below(g, A)) == list(range(1, 9))
    assert sorted(efce.sequences_at_or_below(g, B)) == [3, 4]
    assert sorted(efce.sequences_at_or_below(g, D)) == [7, 8]


def test_ancestry_queries_reject_ids_out_of_range():
    # A negative id once wrapped around: (0, -2) read as sequence 7, and
    # infoset -1 as D, whose subtree is [7, 8].  A sequence 1.5 once
    # preceded nothing, and infoset 1.5 raised TypeError.
    g = efce.builtin_game("fig1", seed=0)
    for a, b in [(0, -2), (-1, 3), (1, 9), (9, 1), (1.5, 3), (0, 2.0)]:
        with pytest.raises(ValueError, match="player 1 has sequence ids 0 to 8, not"):
            efce.sequence_precedes(g, (0, a), (0, b))
    for gid in (-1, len(g.infosets), 1.5):
        for query in (lambda: efce.sequences_at_or_below(g, gid),
                      lambda: g.subtree_infosets(gid),
                      lambda: g.subtree_seq_mask(gid)):
            with pytest.raises(ValueError, match=f"no information set with id {gid}"):
                query()


def test_player_queries_reject_ids_out_of_range():
    # -1 once answered for player 2, 2 raised IndexError, 1.5 raised
    # TypeError, and utility_vector named player 2 for players 3 and 5.
    g = efce.builtin_game("fig1", seed=0)
    profile = [efce.uniform_strategy(g, i) for i in range(2)]
    for bad in (-1, 2, 3, 5, 1.5):
        for query in (g.num_sequences, g.num_infosets, g.player_infosets, g.seq_infoset,
                      g.seq_parent, g.descendant_mask, g.payoff_range, g.pure_count,
                      g.scope_infosets, lambda p: g.child_infosets(p, 0),
                      lambda p: g.sequence_name(p, 0), lambda p: g.infoset(p, "A"),
                      lambda p: efce.utility_vector(g, p, profile),
                      lambda p: efce.sequence_precedes(g, (p, 1), (p, 3))):
            with pytest.raises(ValueError, match=f"player {bad} is not one of players 0 to 1"):
                query(bad)


def test_lookups_reject_ids_out_of_range():
    # Sequence -1 once read as 'D:8' and had no child infosets, sequence 1.5
    # raised IndexError, infoset 99 raised IndexError, infoset -1 read as D,
    # and an unknown action raised "tuple.index(x): x not in tuple".
    g = efce.builtin_game("fig1", seed=0)
    for sid in (-1, 9, 99, 1.5):
        for query in (lambda: g.sequence_name(0, sid), lambda: g.child_infosets(0, sid)):
            with pytest.raises(ValueError, match=f"player 1 has sequence ids 0 to 8, not {sid}$"):
                query()
    for gid in (-1, 99, 1.5):
        for query in (lambda: g.scope_infosets(1, gid), lambda: g.infoset_label(gid),
                      lambda: efce.uniform_strategy(g, 0, root=gid),
                      lambda: efce.validate_strategy(
                          g, efce.SequenceFormStrategy(0, np.zeros(9), gid)),
                      lambda: efce.enumerate_pure(g, 0, root=gid),
                      lambda: efce.CfrMinimizer(g, 1, root=gid),
                      lambda: efce.is_trunk(g, 0, [gid])):
            with pytest.raises(ValueError, match=f"no information set with id {gid}"):
                query()
    with pytest.raises(KeyError, match="information set 'A' of player 1 has no action 'zz'"):
        g.sequence_id(0, "A", "zz")


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
            assert np.array_equal(g.descendant_mask(i), below == 1.0)
            # the ancestry is the layout's pairs (t, s) with s at or below
            # trigger t, in pair order, then (empty sequence, s) for every s
            pairs = list(zip(plan.pair_trigger.tolist(), plan.pair_seq.tolist()))
            want = [p for p in pairs if below[p] == 1.0]
            want += [(efce.EMPTY_SEQ, s) for s in range(n)]
            assert list(zip(*plan.ancestry.tolist())) == want
            assert len(want) == below.sum()
            assert np.array_equal(plan.dense(1.0), subtree)
            # the sums over it are the products with the ancestry
            v = np.arange(1.0, n + 1.0)
            assert np.allclose(plan.sum_below(v), below @ v)
            assert np.allclose(plan.sum_above(v), v @ below)
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
        n = plan.owner.size
        assert n == sum(g.num_sequences(i) for i in players)
        mask = np.zeros((n, n), dtype=bool)
        # (trigger, sequence) -> the trigger's parent sequence, over every subtree entry
        want = {}
        # (sequence, sequence at or below it), walked up seq_parent
        ancestry = set()
        v = np.arange(1.0, n + 1.0)
        for k, (i, a, b) in enumerate(plan.spans):
            one = g.player_plan(i)
            assert (i, a) == (players[k], plan.offsets[k])
            assert (plan.owner[a:b] == k).all()
            assert np.array_equal(plan.dense(1.0)[a:b, a:b], one.dense(1.0))
            assert np.array_equal(plan.sum_below(v)[a:b], one.sum_below(v[a:b]))
            assert np.array_equal(plan.sum_above(v)[a:b], one.sum_above(v[a:b]))
            mask[a:b, a:b] = True
            for gid in g.player_infosets(i):
                for t in g.infosets[gid].seq_ids:
                    for g2 in g.subtree_infosets(gid):
                        for s in g.infosets[g2].seq_ids:
                            want[a + t, a + s] = a + g.infosets[g2].parent_seq
            parent = g.seq_parent(i)
            for s in range(b - a):
                t = s
                while t != -1:
                    ancestry.add((a + t, a + s))
                    t = parent[t]
        assert not plan.dense(1.0)[~mask].any()
        anc = list(zip(*plan.ancestry.tolist()))
        assert len(anc) == len(ancestry) and set(anc) == ancestry
        # every pair's sequence lies in its trigger's subtree, and every
        # subtree entry has exactly one pair
        pairs = list(zip(plan.pair_trigger.tolist(), plan.pair_seq.tolist()))
        assert len(set(pairs)) == len(pairs) == len(want)
        assert set(pairs) == set(want)
        # each pair's parent is (t, parent sequence), or the root slot when
        # t is at the pair's own infoset
        P = len(pairs)
        assert [lev.lo for lev in plan.levels] + [P] == [0] + [lev.hi for lev in plan.levels]
        for lev in plan.levels:
            for p, up in zip(range(lev.lo, lev.hi), lev.up.tolist()):
                t, s = pairs[p]
                i, a, _ = plan.spans[plan.owner[s]]
                if g.seq_infoset(i)[t - a] == g.seq_infoset(i)[s - a]:
                    assert up == P
                else:
                    assert pairs[up] == (t, want[t, s])
        for t in range(n):
            assert plan.own[t] == (P if t in plan.offsets else pairs.index((t, t)))
        # each (infoset, trigger) segment is one run of pairs, in action order
        starts = np.flatnonzero(np.diff(plan.segment, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [P]):
            t, s = pairs[lo]
            i, a, _ = plan.spans[plan.owner[s]]
            sids = g.infosets[g.seq_infoset(i)[s - a]].seq_ids
            assert pairs[lo:hi] == [(t, a + x) for x in sids]


def test_level_batch_holds_each_infoset_once_widest_last():
    games = [efce.builtin_game("kuhn3"), efce.builtin_game("fig1", seed=0)]
    games += [efce.builtin_game("random-tree", seed=s) for s in range(64)]
    games.append(efce.parse_game(MIXED_LEVEL))
    masks = set()
    for g in games:
        plan = g.player_plan(tuple(range(g.n_players)))
        n = plan.owner.size
        # depth -> (joint sequence ids, joint parent sequence) of its infosets
        want = {}
        for i, a, _ in plan.spans:
            depth = {}
            for gid in g.player_infosets(i):
                js = g.infosets[gid]
                d = depth[int(g.seq_infoset(i)[js.parent_seq])] + 1 if js.parent_seq else 0
                depth[gid] = d
                want.setdefault(d, []).append((tuple(a + s for s in js.seq_ids),
                                               a + js.parent_seq))
        assert len(plan.levels) == len(want)
        for d, level in enumerate(plan.levels):
            got = [(tuple(s for s in row if s < n), parent)
                   for row, parent in zip(level.sids.tolist(), level.parent_seq.tolist())]
            assert sorted(got) == sorted(want[d])
            # real states first, in increasing action count, padded to the widest, the last
            real = level.sids < n
            counts = real.sum(axis=1)
            assert np.array_equal(real, np.arange(real.shape[1]) < counts[:, None])
            assert counts.tolist() == sorted(counts.tolist()) and counts[-1] == real.shape[1]
            # masked exactly where padded
            masks.add(level.mask is None)
            if real.all():
                assert level.mask is None
            else:
                assert np.array_equal(level.mask, real[:, None, :] * 1.0)
            # the level's pairs' sequences are its real states, each once
            grid = level.sids.ravel()
            assert np.array_equal(np.sort(grid[grid < n]),
                                  np.unique(plan.pair_seq[level.lo:level.hi]))
    assert masks == {True, False}


def _deals_game(k):
    """A chance root over k deals; per deal, player 1 then player 2 pick one of two actions."""
    p = repr(1.0 / k)
    deals = " ; ".join(f"c{d}={p} -> a{d}" for d in range(k))
    lines = ["game deals", "players 2", "root r", f"chance r {{ {deals} }}"]
    for d in range(k):
        lines.append(f"decision a{d} player 1 infoset A{d} {{ x -> b{d}x ; y -> b{d}y }}")
        for x in "xy":
            lines.append(f"decision b{d}{x} player 2 infoset B{d}{x} "
                         f"{{ x -> l{d}{x}x ; y -> l{d}{x}y }}")
            lines += [f"leaf l{d}{x}{y} {{ 1 -1 }}" for y in "xy"]
    return "\n".join(lines) + "\n"


def test_plan_holds_no_quadratic_array():
    # The plan once held the n x n ancestry matrix: 8 n^2 bytes.
    g = efce.parse_game(_deals_game(170))
    n = g.num_sequences(0) + g.num_sequences(1)
    assert n >= 1000
    tracemalloc.start()
    try:
        plan = g.player_plan((0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.owner.size == n
    assert peak < n * n * 8 / 4


def _kuhn_game(n):
    """N-card Kuhn poker: a chance deal, then check or bet, and call or fold a bet."""
    cards = [f"r{k:02d}" for k in range(n)]
    deals = [(a, b) for a in cards for b in cards if a != b]
    p = repr(1.0 / len(deals))
    entries = " ; ".join(f"{a}{b}={p} -> d{a}{b}" for a, b in deals)
    lines = ["players 2", "root deal", f"chance deal {{ {entries} }}"]
    for a, b in deals:
        d, win = f"d{a}{b}", 1 if a > b else -1
        lines += [f"decision {d} player 1 infoset {a} {{ check -> {d}c ; bet -> {d}b }}",
                  f"decision {d}c player 2 infoset {b}c {{ check -> {d}cc ; bet -> {d}cb }}",
                  f"decision {d}b player 2 infoset {b}b {{ call -> {d}bc ; fold -> {d}bf }}",
                  f"decision {d}cb player 1 infoset {a}cb {{ call -> {d}cbc ; fold -> {d}cbf }}",
                  f"leaf {d}cc {{ {win} {-win} }}", f"leaf {d}cbc {{ {2 * win} {-2 * win} }}",
                  f"leaf {d}cbf {{ -1 1 }}", f"leaf {d}bc {{ {2 * win} {-2 * win} }}",
                  f"leaf {d}bf {{ 1 -1 }}"]
    return "\n".join(lines) + "\n"


_NODE_LISTS = ("node_kind", "node_label", "node_player", "node_infoset", "node_actions",
               "node_children", "chance_probs", "leaf_payoffs")


def _read_outcome(text):
    """What GameTree._read makes of ``text``: the node lists, name and player
    count, or the exception's type, message, line and column."""
    g = GameTree.__new__(GameTree)
    try:
        ids, root = g._read(text)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return ids, root, g.name, g.n_players, [getattr(g, name) for name in _NODE_LISTS]


def _mutants(text, rng, count):
    """``count`` seeded mutations of ``text``: cuts, deletions, insertions,
    glued comments and line-end swaps, one or two to a mutant."""
    words = ("{", "}", ";", "=", "->", ">", "-", "#c", "leaf", "decision", "player", "x",
             "0", "1e999", "nan", "2x", "a->b", "a=b")
    ends = ("\r", "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028")
    out = []
    for _ in range(count):
        t = text
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(t) + 1)
            kind = rng.randrange(5)
            if kind == 0:
                t = t[:at]
            elif kind == 1:
                t = t[:at] + t[at + rng.randint(1, 4):]
            elif kind in (2, 3):
                # at the end of the token that ends at or after the offset
                while at < len(t) and not t[at].isspace():
                    at += 1
                pad = rng.choice(("", " "))
                word = pad + rng.choice(words) + pad if kind == 2 else "#c"
                t = t[:at] + word + t[at:]
            else:
                end = rng.choice(ends)
                t = t.replace("\n", end) if rng.random() < 0.5 else t.replace("\n", end, 1)
        out.append(t)
    return out


def _commented(text):
    """Two commented copies of ``text``: ' #c' and a line end after the first
    node statement's id, and '# x' and a line end after the first '{' and
    the first ' -> '."""
    at = re.search(r"^(?:leaf|chance|decision) \S+", text, re.M).end()
    return [text[:at] + " #c\n" + text[at:],
            text.replace("{", "{# x\n", 1).replace(" -> ", " -> # x\n", 1)]


def test_statement_reader_agrees_with_token_reader(monkeypatch):
    # The statement reader hands each statement it cannot read, and
    # everything after it, to the token reader; both must accept the same
    # language, with the same errors at the same places.  Comments are
    # blanked before either reader runs, so a comment inside a statement
    # does not stop the statement reader.
    texts = [_fig1_text(s) for s in range(5)] + [_kuhn3_text()]
    texts += [_random_tree_text(s) for s in range(64)]
    commented = [c for t in texts for c in _commented(t)]
    rng = random.Random(20)
    mutants = [m for t in texts for m in _mutants(t, rng, 6)]
    big = _kuhn_game(24)
    # Words next to '>' and '->', and entries that no space separates.
    edges = ["players 1; root z>y; leaf z {0}", "players 1; root z->y; leaf z {0}",
             "game g>h\nplayers 1\nroot z\nleaf z {0}",
             "players 1; root a\ndecision a player 1 infoset A {x->z;y-->w}leaf z{0}leaf w-{1}",
             "players 1; root a\ndecision a player 1 infoset A { x -> zy -> w }\nleaf zy {0}",
             "players 1; root a\ndecision a player 1 infoset A { x>y -> z }\nleaf z {0}",
             "players 1; root c\nchance c {h=1.0->z;;}leaf z{0}",
             "players 1; root c\nchance c { h=1.0->zt=0->y }\nleaf z {0}",
             "players 1; root z; leaf z {0;1}"]
    cases = texts + [big] + commented + edges + mutants + _mutants(big, rng, 4)
    stops = []
    read_statements = GameTree._read_statements

    def spy(self, text, header, ids):
        stop = read_statements(self, text, header, ids)
        stops.append(stop / max(len(text), 1))
        return stop

    with monkeypatch.context() as m:
        m.setattr(GameTree, "_read_statements", spy)
        fast = [_read_outcome(t) for t in cases]
    with monkeypatch.context() as m:
        m.setattr(GameTree, "_read_statements", lambda self, text, header, ids: 0)
        slow = [_read_outcome(t) for t in cases]
    for text, a, b in zip(cases, fast, slow):
        assert a == b, repr(text[:200])
    # the unmutated and commented texts are read by statement to the end;
    # many mutants switch readers part way
    whole = len(texts) + 1 + len(commented)
    assert stops[:whole] == [1.0] * whole
    for text, copies in zip(texts, zip(*[iter(commented)] * 2)):
        plain = efce.serialize_game(efce.parse_game(text))
        assert [efce.serialize_game(efce.parse_game(c)) for c in copies] == [plain] * 2
    assert sum(0.1 < s < 1.0 for s in stops) >= len(mutants) // 4
    assert sum(isinstance(o[0], type) for o in fast) >= len(mutants) // 4


def test_parse_keeps_no_second_copy_of_the_nodes():
    # The parser once handed GameTree a list of per-node records, which
    # peaked at twice the memory the tree keeps.
    text = _kuhn_game(24)
    tracemalloc.start()
    try:
        g = efce.parse_game(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_nodes == 24 * 23 * 9 + 1
    assert peak <= 1.5 * kept


def test_player_plan_rejects_bad_players():
    # -1 once built player 2's plan labelled -1, 2 raised IndexError,
    # (0, 0) stacked player 0 twice, () built an empty plan and (0, 1.5)
    # raised TypeError, as did 1.5 and None
    g = efce.builtin_game("fig1", seed=0)
    for bad in (-1, 2, (0, 0), (0, 2), (-1, 0), (), (0, 1.5), 1.5, None):
        with pytest.raises(ValueError):
            g.player_plan(bad)
    for make in (lambda: efce.HullMinimizer(g, -1),
                 lambda: efce.MixedTriggerMinimizer(g, ()),
                 lambda: efce.PhiRegretMeter(g, -1),
                 lambda: efce.subtree_best_response(g, -1, np.ones(5)),
                 lambda: efce.fixed_point(g, efce.ConvexTriggerDeviation(-1, []))):
        with pytest.raises(ValueError):
            make()
    assert g.player_plan((1, 0)).sizes.tolist() == [5, 9]


def test_player_plan_checks_a_key_equal_to_a_built_one():
    # (1.0,) compares equal to (1,), so once player 1's plan was built it
    # was answered from the cache, where before it raised ValueError.
    g = efce.builtin_game("kuhn3")
    one, both = g.player_plan(1), g.player_plan((0, 1))
    for bad in ((1.0,), (0, 1.0), (0.0, 1.0), [1.0], (complex(1),)):
        with pytest.raises(ValueError):
            g.player_plan(bad)
    assert g.player_plan((1,)) is g.player_plan(np.int64(1)) is g.player_plan((True,)) is one
    assert g.player_plan([0, 1]) is g.player_plan((np.int64(0), 1)) is both
    with pytest.raises(ValueError):
        g.player_plan((1.0,))


def test_bool_ids_are_read_as_the_ints_0_and_1():
    # True reached numpy as a mask: utility_vector and payoff_range raised
    # "only 0-dimensional arrays can be converted", sequence_name a TypeError.
    g = efce.builtin_game("fig1", seed=0)
    profile = [efce.uniform_strategy(g, i) for i in range(g.n_players)]
    assert np.array_equal(efce.utility_vector(g, True, profile).coefficients,
                          efce.utility_vector(g, 1, profile).coefficients)
    assert g.payoff_range(True) == g.payoff_range(1) and g.payoff_range(False) == g.payoff_range(0)
    assert g.sequence_name(0, True) == g.sequence_name(0, 1) != g.sequence_name(0, 0)
    assert g.sequence_name(True, np.int64(2)) == g.sequence_name(1, 2)
    assert type(g._player(True)) is type(g._sequence(0, np.int64(2))) is int


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
        text = efce.serialize_game(g)
        h = efce.parse_game(text)
        assert efce.serialize_game(h) == text
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


def test_builtin_texts_are_pinned():
    # The generators' bytes feed every built-in game, so a changed draw order
    # or format shows here, not only in an offline digest diff.
    def digest(texts):
        return hashlib.sha256("".join(texts).encode()).hexdigest()

    assert digest(_fig1_text(s) for s in range(5)) == (
        "766830c0673dca0f7cc6bda3360fa134e6b7b5ff005ed09803b28bcbe125ef6f")
    assert digest([_kuhn3_text()]) == (
        "2ff15385f28d08c7bbd29c1fec9fb5b51d9d6226ab86131c7c5f689331915570")
    assert digest(_random_tree_text(s) for s in range(64)) == (
        "3a42a64dbc2899028433d59831c5631f4d313c46a2460e0e106733725a9cb22e")


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
