"""Extensive-form game trees with sequence-form indexing.

A game is stored as an arena of nodes (chance, decision, leaf) plus per-player
tables describing information sets and sequences.  A sequence is an
(information set, action) pair; index 0 of every player's sequence table is
reserved for the empty sequence.  Hot-path consumers work with flat numpy
arrays indexed by these dense ids, so the tree itself is only walked during
construction.

Games are read and written in a small text format::

    game <name>
    players <n>
    root <node-id>
    chance <node-id> { <action>=<prob> -> <child-id> ; ... }
    decision <node-id> player <i> infoset <label> { <action> -> <child-id> ; ... }
    leaf <node-id> { <u1> ... <un> }

``#`` starts a comment.  Tokens are whitespace separated and ``;`` may also
separate whole statements, so a game can be written on one line.  Information
set identity is the (player, label) pair.  Chance probabilities must be
positive and sum to 1 within 1e-9; the parser rejects rather than
renormalizes.  Perfect recall is validated on every parse.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

CHANCE = "chance"
DECISION = "decision"
LEAF = "leaf"

#: Index of the empty sequence in every player's sequence table.
EMPTY_SEQ = 0

_CHANCE_PROB_TOL = 1e-9


class GameFormatError(ValueError):
    """Malformed game text.  Carries the offending line and column."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class GameValidationError(ValueError):
    """Structurally well-formed game text that violates a model invariant."""


@dataclass(frozen=True)
class InfoSet:
    """One information set: where it sits in the tree and what can be done there.

    ``index`` is the global id (document order of first appearance),
    ``parent_seq`` the owning player's sequence leading to the set, and
    ``seq_ids[k]`` the sequence id of playing ``actions[k]`` here.
    """

    index: int
    player: int
    label: str
    actions: tuple[str, ...]
    nodes: tuple[int, ...]
    parent_seq: int
    seq_ids: tuple[int, ...]


# The slots after the pair array in a plan's chain entries: the empty
# sequences' kept shares (read by no chain), then a 0 and a 1.
_SLOTS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Level:
    """The information sets at one depth of a plan's infoset forests, and their pairs.

    The level's k infosets are solved in one kernel call, in increasing
    action count, each padded to the m states of the widest: ``sids[j]``
    holds its sequence ids, then N (the plan's sequence count) for each
    dummy state, so a vector that takes values at ``sids`` needs one slot
    past its N entries (a 0, for the dummies to read), and
    ``parent_seq[j]`` its parent sequence.  Their chains are a run of the
    plan's ``gather``, in which a dummy state's column is e_0 (all its
    mass to action 0) and its row is 0.  ``mask`` is the (k, 1, m) column
    mask, 1 at a real state and 0 at a dummy, or None when no infoset is
    padded.  The level's pairs are ``lo`` to ``hi`` of the plan's pair
    layout: per infoset, one segment of m pairs (one per action) for each
    trigger covering it.  Per pair, ``segment`` is its segment (counted
    from 0 in the level), and ``up`` its parent pair (t, parent sequence),
    or P, the root slot, when t is one of the infoset's own sequences.  ``starts``
    holds each segment's first pair, from ``lo``, and ``parents`` each
    segment's parent pair, from the level above's ``lo`` (the level above's
    pair count for the root slot).
    """

    sids: np.ndarray
    parent_seq: np.ndarray
    mask: np.ndarray | None
    lo: int
    hi: int
    segment: np.ndarray
    up: np.ndarray
    starts: np.ndarray
    parents: np.ndarray


@dataclass(frozen=True)
class PlayerPlan:
    """Static arrays of the batched hot path and the regret meters, for a group of players.

    The players' sequences share one index: the k-th player's block
    ``spans[k] = (player, start, stop)`` begins at ``offsets[k]`` with its
    empty sequence and holds its ``sizes[k]`` sequences in their own order;
    ``owner[s]`` is the slot k of sequence s, and ``triggerless[k]`` is set
    when the k-th player has no triggers (``sizes[k]`` is 1).  ``levels``
    runs from the roots of the infoset forests down, merging the players'
    infosets by depth.  ``gather`` holds, level after level, each level's
    (k, m, m) chains as indices into :meth:`chain_entries`:
    ``gather[j, a, c]`` is the pair (``sids[j, c]``, ``sids[j, a]``) when
    both states are real, the 1 slot (P + 2) where a dummy column c meets
    a = 0, and the 0 slot (P + 1) elsewhere.

    All per-trigger state is held in the pair layout: one entry per pair
    (t, s) of a trigger t (a non-empty sequence) and a sequence s at or
    below t's infoset.  Pair p is (``pair_trigger[p]``, ``pair_seq[p]``).
    The P pairs run by level, then by infoset in ``sids`` order, then by
    trigger (the parent sequence's infoset's triggers, then the infoset's
    own), then by action, so each (infoset, trigger) segment of m pairs is
    contiguous; ``segment[p]`` numbers p's segment, and the S segments run
    in the same order.  ``own[s]`` is the pair (s, s), and P for an empty
    sequence; ``own_segment[s]`` is that pair's segment, and S for an
    empty sequence.  ``ancestry`` (2 x A) holds the sequence ancestry: the
    ancestor pairs (t, s), those whose sequence is at or below the trigger
    itself, in pair order, then (empty sequence of s's block, s) for every
    s.  :meth:`dense` gives triggers x sequences copies.
    """

    spans: tuple[tuple[int, int, int], ...]
    offsets: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray
    triggerless: np.ndarray
    levels: tuple[Level, ...]
    gather: np.ndarray
    pair_seq: np.ndarray
    pair_trigger: np.ndarray
    segment: np.ndarray
    own: np.ndarray
    own_segment: np.ndarray
    ancestry: np.ndarray

    def sum_above(self, v):
        """Per sequence s, the sum of ``v`` over the sequences at or above s."""
        return np.bincount(self.ancestry[1], v.take(self.ancestry[0]), self.owner.size)

    def sum_below(self, v):
        """Per sequence s, the sum of ``v`` over the sequences at or below s."""
        return np.bincount(self.ancestry[0], v.take(self.ancestry[1]), self.owner.size)

    def dense(self, pairs):
        """Triggers x sequences array holding ``pairs`` (one entry per pair), zero elsewhere."""
        out = np.zeros((self.owner.size, self.owner.size))
        out[self.pair_trigger, self.pair_seq] = pairs
        return out

    def chain_entries(self, moved, keep):
        """What ``gather`` reads: per pair its ``moved`` mass (its continuation
        times its trigger's weight), plus ``keep[s]`` (s's kept share) at the pair (s, s),
        then the three slots."""
        entries = np.concatenate((moved, _SLOTS))
        entries[self.own] += keep
        return entries

    def infoset_gather(self, sids):
        """The (1, m, m) gather of one infoset's chain, from its m sequence ids."""
        return _gather(np.array([sids], dtype=np.int64), self.own, self.pair_seq.size)


def _gather(sids, own, n_pairs):
    """The (k, m, m) gather of the chains of k infosets padded to ``sids``' (k, m) states."""
    real = sids < own.size
    a = np.arange(sids.shape[1])
    gather = np.full(sids.shape + sids.shape[1:], n_pairs + 1, dtype=np.int64)
    # Between real states: the pair (c, c), moved a - c actions on in its segment.
    np.copyto(gather, own.take(sids, mode="clip")[:, None, :] + (a[:, None] - a),
              where=real[:, :, None] & real[:, None, :])
    gather[:, 0][~real] = n_pairs + 2
    return gather


class GameTree:
    """Immutable n-player perfect-recall game in extensive form.

    ``GameTree(text)`` reads and validates game text, raising what
    :func:`parse_game` documents.  Nodes are indexed densely in document
    order.  Player indices are 0-based internally; the text format and all
    user-facing output use 1-based ids.
    """

    def __init__(self, text):
        ids, root_label = self._read(text)
        n_players = self.n_players
        if n_players < 1:
            raise GameValidationError("player count must be at least 1")
        if root_label not in ids:
            raise GameValidationError(f"root node '{root_label}' is not declared")
        n = self.n_nodes = len(ids)
        self.root = ids[root_label]
        parent = [-1] * n
        for k, kind in enumerate(self.node_kind):
            label = self.node_label[k]
            if kind == LEAF:
                if len(self.leaf_payoffs[k]) != n_players:
                    raise GameValidationError(f"leaf '{label}' has {len(self.leaf_payoffs[k])} "
                                              f"payoffs, expected {n_players}")
                continue
            actions = self.node_actions[k]
            if kind == CHANCE:
                probs = self.chance_probs[k]
                for a, p in zip(actions, probs):
                    if not p > 0.0:
                        raise GameValidationError(f"chance probability for action '{a}' of "
                                                  f"node '{label}' must be positive")
                if abs(sum(probs) - 1.0) > _CHANCE_PROB_TOL:
                    raise GameValidationError(
                        f"chance probabilities at node '{label}' sum to {sum(probs)!r}, not 1")
            elif not 0 <= self.node_player[k] < n_players:
                raise GameValidationError(
                    f"node '{label}' belongs to player {self.node_player[k] + 1}, "
                    f"but the game has {n_players} players")
            if len(set(actions)) != len(actions):
                raise GameValidationError(f"node '{label}' repeats an action name")
            if not actions:
                raise GameValidationError(f"node '{label}' has no actions")
            kids = []
            for child_label in self.node_children[k]:
                c = ids.get(child_label)
                if c is None:
                    raise GameValidationError(
                        f"node '{label}' references undeclared child '{child_label}'")
                if c == self.root:
                    raise GameValidationError(
                        f"root node '{child_label}' appears as a child of '{label}'")
                if parent[c] != -1:
                    raise GameValidationError(f"node '{child_label}' has more than one parent")
                parent[c] = k
                kids.append(c)
            self.node_children[k] = tuple(kids)

        self._walk_and_index(self._group_infosets())
        self._build_orders()

    def _read(self, text):
        """Read game text into the node lists; returns (node id -> index, root node id).

        Each comment is first blanked to as many spaces: no word holds '#' and
        no comment a line end, so every offset, line and column stays.  Raises
        only :class:`GameFormatError`.  Until linking, ``node_children`` holds
        each node's child ids as text, and ``node_infoset`` each decision
        node's infoset label.  The one node id -> index dict is both the
        duplicate-id check and the child lookup of linking, which then checks
        the nodes one by one in document order.
        """
        header = {}
        ids: dict[str, int] = {}
        self.node_kind, self.node_label, self.node_player, self.node_infoset = [], [], [], []
        self.node_actions, self.node_children, self.chance_probs, self.leaf_payoffs = [], [], [], []
        text = _COMMENT.sub(lambda m: " " * len(m[0]), text)
        cur = _Cursor(text, self._read_statements(text, header, ids))
        while cur.next is not None:
            kw = cur.take()
            if kw == ";":
                continue
            if kw in _HEADER:
                if kw in header:
                    raise cur.error(f"repeated '{kw}' statement")
                header[kw] = cur.take(_HEADER[kw], ())
                if kw == "players":
                    header[kw] = cur.number(header[kw], "player count", int)
                continue
            kind = _KINDS.get(kw)
            if kind is None:
                raise cur.error(f"expected a statement keyword, found '{kw}'")
            label = cur.take("node id", ())
            if label in ids:
                raise cur.error(f"duplicate node id '{label}'")
            player, iset, actions, probs, children, payoffs = -1, -1, [], [], [], None
            if kind == DECISION:
                cur.expect("player")
                player = cur.number(cur.take("player number"), "a player number", int) - 1
                cur.expect("infoset")
                iset = cur.take("infoset label", ())
            cur.expect("{")
            if kind == LEAF:
                payoffs = []
                while (t := cur.take("payoff or '}'")) != "}":
                    payoffs.append(cur.number(t, "a payoff"))
                    if not math.isfinite(payoffs[-1]):
                        raise cur.error(f"payoff must be finite, found '{t}'")
                payoffs = tuple(payoffs)
            else:
                what = "chance entry or '}'" if kind == CHANCE else "action entry or '}'"
                while (t := cur.take(what, ("}", ";"))) != "}":
                    if t != ";":
                        actions.append(t)
                        if kind == CHANCE:
                            cur.expect("=")
                            probs.append(cur.number(cur.take("probability"), "a probability"))
                        cur.expect("->")
                        children.append(cur.take("child node id", ()))
            self._add_node(ids, kind, label, player, iset, tuple(actions), tuple(children),
                           tuple(probs), payoffs)

        for kw in ("players", "root"):
            if kw not in header:
                raise GameFormatError(f"missing '{kw}' statement", 1, 1)
        self.name = header.get("game", "game")
        self.n_players = header["players"]
        return ids, header["root"]

    def _read_statements(self, text, header, ids):
        """Read statements up to the first that it cannot read as the token reader would.

        Returns that statement's offset and never raises: a statement the token
        reader would reject stops it, so that reader reports the error there; on
        valid text only a word holding '>' stops it.  :data:`_STATEMENT` matches
        empty too, so each match starts where the last one ended.
        """
        for m in _STATEMENT.finditer(text):
            key, value, kind, label, player, iset, body = m.groups()
            try:
                if key and key not in header:
                    header[key] = int(value) if key == "players" else value
                elif kind == LEAF and player is None and label not in ids:
                    payoffs = tuple(map(float, body.split()))
                    if not all(map(math.isfinite, payoffs)):
                        break
                    self._add_node(ids, LEAF, label, -1, -1, (), (), (), payoffs)
                elif (kind in _BODY and (player is None) == (kind == CHANCE)
                      and label not in ids and _BODY[kind].fullmatch(body)):
                    words = body.replace("->", " ").replace("=", " ").replace(";", " ").split()
                    if kind == CHANCE:
                        self._add_node(ids, CHANCE, label, -1, -1, tuple(words[::3]),
                                       tuple(words[2::3]), tuple(map(float, words[1::3])), None)
                    else:
                        self._add_node(ids, DECISION, label, int(player) - 1, iset,
                                       tuple(words[::2]), tuple(words[1::2]), (), None)
                elif key or kind or m.end() == m.start():
                    break
            except ValueError:
                break
        return m.start()

    def _add_node(self, ids, kind, label, player, iset, actions, children, probs, payoffs):
        """Append one node to the node lists, under node id ``label``."""
        ids[label] = len(ids)
        self.node_kind.append(kind)
        self.node_label.append(label)
        self.node_player.append(player)
        self.node_infoset.append(iset)
        self.node_actions.append(actions)
        self.node_children.append(children)
        self.chance_probs.append(probs)
        self.leaf_payoffs.append(payoffs)

    # -- construction helpers ------------------------------------------------

    def _group_infosets(self):
        """Replace each decision node's infoset label by its infoset id; returns each id's nodes."""
        self._iset_lookup: dict[tuple[int, str], int] = {}
        members: list[list[int]] = []
        for k, kind in enumerate(self.node_kind):
            if kind != DECISION:
                continue
            key = (self.node_player[k], self.node_infoset[k])
            gid = self._iset_lookup.setdefault(key, len(members))
            if gid == len(members):
                members.append([k])
            else:
                first = members[gid][0]
                if self.node_actions[first] != self.node_actions[k]:
                    raise GameValidationError(
                        f"information set '{key[1]}' of player {key[0] + 1} has "
                        f"mismatched action sets at nodes "
                        f"'{self.node_label[first]}' and '{self.node_label[k]}'"
                    )
                members[gid].append(k)
            self.node_infoset[k] = gid
        return members

    def _walk_and_index(self, members):
        n_players = self.n_players
        # The lookup's keys are (player, label) in id order.
        labels = [label for _, label in self._iset_lookup]
        # Dense per-player sequence ids: 0 is the empty sequence, then one id
        # per (infoset, action) in document order of the infoset.
        n_seq = [1] * n_players
        iset_seq_ids = []
        for nodes in members:
            p = self.node_player[nodes[0]]
            m = len(self.node_actions[nodes[0]])
            iset_seq_ids.append(tuple(range(n_seq[p], n_seq[p] + m)))
            n_seq[p] += m
        self._n_seq = n_seq

        # Each node carries every player's last own sequence.  Perfect recall
        # means all nodes of an infoset share the owner's last sequence; by
        # induction over infosets they then share the owner's whole history.
        parent_of: dict[int, int] = {}
        term_nodes: list[int] = []
        term_pc: list[float] = []
        term_seq: list[tuple[int, ...]] = []

        seen = [False] * self.n_nodes
        stack = [(self.root, (EMPTY_SEQ,) * n_players, 1.0)]
        while stack:
            k, last, pc = stack.pop()
            seen[k] = True
            kind = self.node_kind[k]
            if kind == LEAF:
                term_nodes.append(k)
                term_pc.append(pc)
                term_seq.append(last)
                continue
            if kind == DECISION:
                p = self.node_player[k]
                gid = self.node_infoset[k]
                if parent_of.setdefault(gid, last[p]) != last[p]:
                    raise GameValidationError(
                        f"perfect recall violated at information set '{labels[gid]}' of "
                        f"player {p + 1}: its nodes are reached with different "
                        f"histories of that player's own actions"
                    )
                for sid, c in zip(iset_seq_ids[gid], self.node_children[k]):
                    new = list(last)
                    new[p] = sid
                    stack.append((c, tuple(new), pc))
            else:
                for prob, c in zip(self.chance_probs[k], self.node_children[k]):
                    stack.append((c, last, pc * prob))
        if not all(seen):
            raise GameValidationError(
                f"node '{self.node_label[seen.index(False)]}' is not reachable from the root")

        self._seq_infoset = [np.full(n_seq[i], -1, dtype=np.int64) for i in range(n_players)]
        self._seq_parent = [np.full(n_seq[i], -1, dtype=np.int64) for i in range(n_players)]

        finished = []
        for gid, nodes in enumerate(members):
            first = nodes[0]
            p = self.node_player[first]
            parent_seq = parent_of[gid]
            finished.append(InfoSet(gid, p, labels[gid], self.node_actions[first], tuple(nodes),
                                    parent_seq, iset_seq_ids[gid]))
            for sid in iset_seq_ids[gid]:
                self._seq_infoset[p][sid] = gid
                self._seq_parent[p][sid] = parent_seq
        self.infosets = finished

        # A finite tree has a leaf, so each array has one row per terminal.
        self.n_terminals = len(term_nodes)
        self.term_chance = np.asarray(term_pc, dtype=float)
        self.term_payoffs = np.array([self.leaf_payoffs[k] for k in term_nodes])
        self.term_seq = np.array(term_seq, dtype=np.int64)
        # A spread beyond the float range is inf, which run() rejects.
        with np.errstate(over="ignore"):
            self._payoff_range = self.term_payoffs.max(axis=0) - self.term_payoffs.min(axis=0)

    def _build_orders(self):
        n_players = self.n_players
        # Child infosets hanging below each sequence, in document order.
        self._seq_child_isets: list[list[list[int]]] = [
            [[] for _ in range(self._n_seq[i])] for i in range(n_players)
        ]
        for js in self.infosets:
            if js.parent_seq != EMPTY_SEQ:
                self._seq_child_isets[js.player][js.parent_seq].append(js.index)

        self._player_isets: list[tuple[int, ...]] = []
        self._pre_index = [0] * len(self.infosets)
        self._subtree_end = [0] * len(self.infosets)
        for i in range(n_players):
            roots = [js.index for js in self.infosets
                     if js.player == i and js.parent_seq == EMPTY_SEQ]
            order: list[int] = []
            # Depth-first pre-order without recursion, so depth is unbounded;
            # ~gid on the stack closes the subtree of gid.
            stack = roots[::-1]
            while stack:
                gid = stack.pop()
                if gid < 0:
                    self._subtree_end[~gid] = len(order)
                    continue
                self._pre_index[gid] = len(order)
                order.append(gid)
                stack.append(~gid)
                for sid in reversed(self.infosets[gid].seq_ids):
                    stack.extend(reversed(self._seq_child_isets[i][sid]))
            self._player_isets.append(tuple(order))

        self._plan_cache: dict[tuple[int, ...], PlayerPlan] = {}

    # -- counts and lookups --------------------------------------------------

    def infoset_label(self, gid):
        return self._infoset(gid).label

    def infoset(self, player, label):
        """Return the :class:`InfoSet` with the given owner and label."""
        gid = self._iset_lookup.get((self._player(player), label))
        if gid is None:
            raise KeyError(f"player {player + 1} has no information set '{label}'")
        return self.infosets[gid]

    def _player(self, player):
        """``player`` as an int; ValueError unless it is an integer from 0 to ``n_players - 1``."""
        # An exact int, what the per-round callers pass, skips the ABC check and the copy.
        if not ((type(player) is int or isinstance(player, Integral))
                and 0 <= player < self.n_players):
            raise ValueError(f"player {player} is not one of players 0 to {self.n_players - 1}")
        return player if type(player) is int else int(player)

    def player_infosets(self, player):
        """Global infoset ids of one player, parents before children."""
        return self._player_isets[self._player(player)]

    def num_infosets(self, player):
        return len(self.player_infosets(player))

    def num_sequences(self, player):
        """Number of sequences including the empty one."""
        return self._n_seq[self._player(player)]

    def _sequence(self, player, sid):
        """``sid`` as an int; ValueError unless it is an integer sequence id of ``player``."""
        n = self.num_sequences(player)
        if not (isinstance(sid, Integral) and 0 <= sid < n):
            raise ValueError(f"player {player + 1} has sequence ids 0 to {n - 1}, not {sid}")
        return sid if type(sid) is int else int(sid)

    def sequence_id(self, player, label, action):
        js = self.infoset(player, label)
        if action not in js.actions:
            raise KeyError(f"information set '{label}' of player {player + 1} "
                           f"has no action '{action}'")
        return js.seq_ids[js.actions.index(action)]

    def sequence_name(self, player, sid):
        sid = self._sequence(player, sid)
        if sid == EMPTY_SEQ:
            return "(empty)"
        js = self.infosets[self._seq_infoset[player][sid]]
        return f"{js.label}:{js.actions[sid - js.seq_ids[0]]}"

    def seq_infoset(self, player):
        return self._seq_infoset[self._player(player)]

    def seq_parent(self, player):
        return self._seq_parent[self._player(player)]

    def child_infosets(self, player, sid):
        """Infosets of ``player`` whose parent sequence is ``sid``."""
        sid = self._sequence(player, sid)
        return self._seq_child_isets[player][sid]

    def _infoset(self, gid):
        """The :class:`InfoSet` with id ``gid``; ValueError for no such integer id."""
        if not (isinstance(gid, Integral) and 0 <= gid < len(self.infosets)):
            raise ValueError(f"no information set with id {gid}")
        return self.infosets[gid]

    def subtree_infosets(self, gid):
        """Infosets at or below ``gid`` in the owner's infoset forest; ValueError for no such id."""
        i = self._infoset(gid).player
        return self._player_isets[i][self._pre_index[gid]:self._subtree_end[gid]]

    def subtree_seq_mask(self, gid):
        """Boolean array over the owner's sequences marking the subtree of ``gid``."""
        isets = self.subtree_infosets(gid)
        mask = np.zeros(self._n_seq[self.infosets[gid].player], dtype=bool)
        mask[[s for g in isets for s in self.infosets[g].seq_ids]] = True
        return mask

    def scope_infosets(self, player, root=None):
        """Infosets of a strategy scope, parents first.

        The scope is the player's whole forest when ``root`` is None, else the
        subtree of infoset ``root``, which must belong to ``player``.
        """
        if root is None:
            return self.player_infosets(player)
        if self._infoset(root).player != self._player(player):
            raise ValueError("subtree root belongs to a different player")
        return self.subtree_infosets(root)

    def subtree_sequences(self, gid):
        """Sequence ids at or below infoset ``gid``, in increasing order."""
        return np.flatnonzero(self.subtree_seq_mask(gid))

    def descendant_mask(self, player):
        """Matrix D with D[s, t] true iff sequence t is at or below sequence s, built on each read."""
        mask = np.eye(self.num_sequences(player), dtype=bool)
        for gid in self._player_isets[player]:  # parents first
            mask[:, self.infosets[gid].seq_ids] |= mask[:, [self.infosets[gid].parent_seq]]
        return mask

    @cached_property
    def _scorer_tables(self):
        """The utility scorer's tables (form, joint, others), built on first use.

        ``form`` is the (player, root, shape) of each strategy of a valid
        profile.  Row i of ``joint`` holds player i's sequence at each
        terminal as a joint id (the players' id blocks end to end), and
        ``others[k]`` the joint ids of the k-th other player, in player order.
        """
        form = [(i, None, (n,)) for i, n in enumerate(self._n_seq)]
        ends = np.cumsum(self._n_seq)
        joint = np.ascontiguousarray((self.term_seq + (ends - self._n_seq)).T)
        # Column i of k: the players other than i, in increasing order.
        k = np.arange(self.n_players - 1)[:, None]
        k = k + (k >= np.arange(self.n_players))
        return form, joint, joint[k]

    def player_plan(self, players):
        """The :class:`PlayerPlan` of one player or a tuple of distinct players, built on first use.

        Cached under the players as ints.  Raises ValueError for an empty tuple, a
        player that is not an integer from 0 to ``n_players - 1``, or a repeated player.
        """
        try:
            key = tuple(map(self._player, players if np.iterable(players) else (players,)))
        except ValueError:  # no player: the empty key, which raises below
            key = ()
        plan = self._plan_cache.get(key)
        if plan is None:
            if not key or len(set(key)) != len(key):
                raise ValueError(f"players {players!r} are not one or more distinct players "
                                 f"0 to {self.n_players - 1}")
            plan = self._plan_cache[key] = self._build_plan(key)
        return plan

    def _build_plan(self, players):
        sizes = np.array([self._n_seq[p] for p in players], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        # depth -> (joint sequence ids, joint parent sequence) per infoset
        by_depth: dict[int, list] = {}
        seq_depth = {}  # non-empty sequence -> the depth of its infoset
        for player, off in zip(players, offsets.tolist()):
            # Pre-order visits a parent sequence's infoset before its children's.
            for gid in self._player_isets[player]:
                js = self.infosets[gid]
                sids = [off + s for s in js.seq_ids]
                parent = off + js.parent_seq
                depth = seq_depth.get(parent, -1) + 1
                seq_depth.update(dict.fromkeys(sids, depth))
                by_depth.setdefault(depth, []).append((sids, parent))

        pair_seq, pair_trigger, segment, up, ancestor = [], [], [], [], []
        own = np.zeros(n, dtype=np.int64)
        own_segment = np.zeros(n, dtype=np.int64)
        # sequence -> (first pair of its infoset, the infoset's triggers, m, action)
        home = {}
        ranges, n_segments = [], 0
        for depth in sorted(by_depth):
            lo = len(pair_seq)
            # By action count, so the last infoset is the widest.
            group = sorted(by_depth[depth], key=lambda g: len(g[0]))
            for sids, parent in group:
                m = len(sids)
                # The triggers covering an infoset: its parent's infoset's, then its own.
                first, covers, pm, pa = home.get(parent, (0, (), 0, 0))
                triggers = covers + tuple(sids)
                base = len(pair_seq)
                for q, t in enumerate(triggers):
                    pair_trigger += [t] * m
                    up += [first + q * pm + pa if q < len(covers) else -1] * m
                    # (t, s) is an ancestor pair when s = t or its parent pair is one.
                    ancestor += [ancestor[up[-1]] if q < len(covers) else s == t for s in sids]
                    segment += [n_segments] * m
                    n_segments += 1
                pair_seq += sids * len(triggers)
                for a, s in enumerate(sids):
                    home[s] = (base, triggers, m, a)
                    own[s] = base + (len(covers) + a) * m + a
                    own_segment[s] = n_segments - m + a
            ranges.append((lo, len(pair_seq), group))
        n_pairs = len(pair_seq)
        own[offsets] = n_pairs
        own_segment[offsets] = n_segments
        pair_seq = np.array(pair_seq, dtype=np.int64)
        pair_trigger = np.array(pair_trigger, dtype=np.int64)
        ancestry = np.hstack((np.stack((pair_trigger, pair_seq))[:, np.array(ancestor, dtype=bool)],
                              [np.repeat(offsets, sizes), np.arange(n)]))
        segment = np.array(segment, dtype=np.int64)
        up = np.array(up, dtype=np.int64)
        up[up < 0] = n_pairs
        levels = []
        above = 0
        for lo, hi, group in ranges:
            sids = np.full((len(group), len(group[-1][0])), n, dtype=np.int64)
            for j, (seqs, _) in enumerate(group):
                sids[j, :len(seqs)] = seqs
            real = sids < n
            rel = segment[lo:hi] - segment[lo]
            starts = np.flatnonzero(np.diff(rel, prepend=-1))
            heads = up[lo + starts]
            levels.append(Level(sids, np.array([p for _, p in group], dtype=np.int64),
                                None if real.all() else real[:, None, :] * 1.0, lo, hi, rel,
                                up[lo:hi], starts, np.where(heads == n_pairs, lo, heads) - above))
            above = lo
        gather = np.concatenate([np.empty(0, dtype=np.int64)] + [
            _gather(level.sids, own, n_pairs).ravel() for level in levels])
        spans = tuple((p, a, a + k)
                      for p, a, k in zip(players, offsets.tolist(), sizes.tolist()))
        return PlayerPlan(spans, offsets, sizes,
                          np.repeat(np.arange(len(players)), sizes), sizes == 1, tuple(levels),
                          gather, pair_seq, pair_trigger, segment, own, own_segment, ancestry)

    def payoff_range(self, player):
        """Spread between the best and worst terminal payoff of one player."""
        return float(self._payoff_range[self._player(player)])

    def pure_count(self, player):
        """Number of deterministic sequence-form strategies of one player."""
        order = self.player_infosets(player)
        count: dict[int, int] = {}
        # Reverse pre-order counts every child infoset before its parent.
        for gid in reversed(order):
            count[gid] = sum(
                math.prod(count[c] for c in self._seq_child_isets[player][sid])
                for sid in self.infosets[gid].seq_ids
            )
        return math.prod(count[gid] for gid in order
                         if self.infosets[gid].parent_seq == EMPTY_SEQ)

    def joint_profile_count(self):
        total = 1
        for i in range(self.n_players):
            total *= self.pure_count(i)
        return total


# -- precedence and subtree queries -----------------------------------------


def sequence_precedes(game, seq_a, seq_b):
    """Whether sequence ``seq_a`` strictly precedes ``seq_b``.

    Sequences are (player, sequence id) pairs and must belong to the same
    player.  The empty sequence precedes every non-empty one; a sequence never
    precedes itself.  A sequence id out of range raises ValueError.
    """
    (pa, sa), (pb, sb) = seq_a, seq_b
    if game._player(pa) != game._player(pb):
        raise ValueError(f"cannot compare sequences of players {pa + 1} and {pb + 1}")
    sa, sb = game._sequence(pa, sa), game._sequence(pb, sb)
    parent = game.seq_parent(pa)
    while sb > EMPTY_SEQ and parent[sb] != sa:
        sb = parent[sb]
    return bool(sb > EMPTY_SEQ)


def sequences_at_or_below(game, gid):
    """Sequence ids of the infoset's owner at or below infoset ``gid``."""
    return list(game.subtree_sequences(gid))


# -- text format -------------------------------------------------------------

# A comment runs to the next line end (the ends str.splitlines knows).
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_TOKEN = re.compile(r"->|[{}=;]|(?:(?!->)[^{}\s=;])+")
_HEADER = {"game": "game name", "players": "player count", "root": "root node id"}
# The tokens that are no word: no name is one of them.
_PUNCT = frozenset(("{", "}", "=", ";", "->"))
# The statement reader's words hold no '>'.  Each one below ends where a
# token word ends: before a character no word holds, or before '->'.
_WORD = r"[^{}\s=;>]+"
# One statement of such words, or none; then the ';' and spaces up to the
# next statement.  Chance and decision bodies are checked apart.
_STATEMENT = re.compile(
    rf"(?:(game|players|root)\s+({_WORD})(?![^{{}}\s=;])|(leaf|chance|decision)\s+({_WORD})"
    rf"(?:\s+player\s+({_WORD})\s+infoset\s+({_WORD}))?\s*\{{([^{{}}]*)\}})?[\s;]*")
_BODY = {kind: re.compile(rf"[\s;]*(?:{entry}(?:[\s;]+{entry})*[\s;]*)?")
         for kind, entry in ((CHANCE, rf"{_WORD}\s*=\s*{_WORD}\s*->\s*{_WORD}"),
                             (DECISION, rf"{_WORD}\s*->\s*{_WORD}"))}
# Statement keyword -> node kind, so that a node keeps the constant, not the token.
_KINDS = {kind: kind for kind in (CHANCE, DECISION, LEAF)}


class _Cursor:
    """The tokens of a game text, read in one pass with one token of lookahead.

    Only the offsets of the last token read are kept.  An error's line and
    column are computed from them when it is raised.
    """

    def __init__(self, text, start=0):
        self.text = text
        self.tokens = _TOKEN.finditer(text, start)
        self.next = next(self.tokens, None)
        self.start = self.end = start

    def take(self, what="token", allow=_PUNCT):
        """The next token; a punctuation token not in ``allow`` raises, so
        ``allow=()`` takes a name."""
        m = self.next
        if m is None:
            self.start = self.end
            raise self.error(f"unexpected end of input, expected {what}")
        self.start, self.end = m.span()
        self.next = next(self.tokens, None)
        tok = m[0]
        if tok in _PUNCT and tok not in allow:
            raise self.error(f"expected {what}, found '{tok}'")
        return tok

    def expect(self, text):
        tok = self.take(f"'{text}'")
        if tok != text:
            raise self.error(f"expected '{text}', found '{tok}'")

    def number(self, tok, what, kind=float):
        try:
            return kind(tok)
        except ValueError:
            raise self.error(f"expected {what}, found '{tok}'") from None

    def error(self, message):
        """A GameFormatError at the last token read, or at line 1, column 1."""
        lines = (self.text[:self.start] + "^").splitlines()
        return GameFormatError(message, len(lines), len(lines[-1]))


def parse_game(text):
    """Parse game text into a validated :class:`GameTree`.

    Raises :class:`GameFormatError` for syntax problems and duplicate node
    ids (with line and column), and :class:`GameValidationError` for
    structural ones: dangling child ids, non-tree topology, infoset action
    mismatches, perfect recall violations, and bad chance probabilities.
    Every format error in the text wins over any structural one.
    """
    return GameTree(text)


def serialize_game(game):
    """Write a game back to its text form, nodes in document order."""
    out = [f"game {game.name}", f"players {game.n_players}",
           f"root {game.node_label[game.root]}"]
    for k in range(game.n_nodes):
        kind = game.node_kind[k]
        label = game.node_label[k]
        if kind == LEAF:
            pay = " ".join(repr(u) for u in game.leaf_payoffs[k])
            out.append(f"leaf {label} {{ {pay} }}")
        elif kind == CHANCE:
            body = " ; ".join(
                f"{a}={p!r} -> {game.node_label[c]}"
                for a, p, c in zip(game.node_actions[k], game.chance_probs[k],
                                   game.node_children[k])
            )
            out.append(f"chance {label} {{ {body} }}")
        else:
            js = game.infosets[game.node_infoset[k]]
            body = " ; ".join(
                f"{a} -> {game.node_label[c]}"
                for a, c in zip(game.node_actions[k], game.node_children[k])
            )
            out.append(
                f"decision {label} player {game.node_player[k] + 1} "
                f"infoset {js.label} {{ {body} }}"
            )
    return "\n".join(out) + "\n"


# -- built-in games ----------------------------------------------------------


def _fig1_text(seed):
    rng = random.Random(seed)
    lines = [
        f"game fig1-s{seed}",
        "players 2",
        "root A",
        "decision A player 1 infoset A { 1 -> X ; 2 -> Y }",
        "decision X player 2 infoset R { l -> B ; r -> C }",
        "decision Y player 2 infoset S { l -> D1 ; r -> D2 }",
        "decision B player 1 infoset B { 3 -> z1 ; 4 -> z2 }",
        "decision C player 1 infoset C { 5 -> z3 ; 6 -> z4 }",
        "decision D1 player 1 infoset D { 7 -> z5 ; 8 -> z6 }",
        "decision D2 player 1 infoset D { 7 -> z7 ; 8 -> z8 }",
    ]
    for z in range(1, 9):
        u1 = rng.randrange(-1, 2)
        u2 = rng.randrange(-1, 2)
        lines.append(f"leaf z{z} {{ {u1} {u2} }}")
    return "\n".join(lines) + "\n"


_KUHN_CARDS = ("J", "Q", "K")


def _kuhn3_text():
    deals = [(a, b) for a in _KUHN_CARDS for b in _KUHN_CARDS if a != b]
    p = repr(1.0 / 6.0)
    entries = " ; ".join(f"{a}{b}={p} -> d{a}{b}" for a, b in deals)
    lines = ["game kuhn3", "players 2", "root deal", f"chance deal {{ {entries} }}"]
    for c1, c2 in deals:
        d = f"d{c1}{c2}"
        win = 1 if _KUHN_CARDS.index(c1) > _KUHN_CARDS.index(c2) else -1
        lines += [
            f"decision {d} player 1 infoset {c1} {{ check -> {d}c ; bet -> {d}b }}",
            f"decision {d}c player 2 infoset {c2}c {{ check -> {d}cc ; bet -> {d}cb }}",
            f"decision {d}b player 2 infoset {c2}b {{ call -> {d}bc ; fold -> {d}bf }}",
            f"decision {d}cb player 1 infoset {c1}cb {{ call -> {d}cbc ; fold -> {d}cbf }}",
            f"leaf {d}cc {{ {win} {-win} }}",
            f"leaf {d}cbc {{ {2 * win} {-2 * win} }}",
            f"leaf {d}cbf {{ -1 1 }}",
            f"leaf {d}bc {{ {2 * win} {-2 * win} }}",
            f"leaf {d}bf {{ 1 -1 }}",
        ]
    return "\n".join(lines) + "\n"


def _random_tree_text(seed):
    rng = random.Random(seed)
    n_players = rng.choice((1, 2, 2, 3))
    max_depth = rng.randint(2, 4)
    counter = [0]
    # Decision nodes by depth, in creation order (a pre-order of the tree).
    levels: dict[int, list[dict]] = {}

    def build(depth, paths):
        label = f"n{counter[0]}"
        counter[0] += 1
        if depth == max_depth or (depth > 0 and rng.random() < 0.3):
            return {"kind": LEAF, "label": label,
                    "pay": [rng.randrange(-3, 4) for _ in range(n_players)]}
        if rng.random() < 0.2:
            m = rng.randint(2, 3)
            weights = [rng.randint(1, 4) for _ in range(m)]
            node = {"kind": CHANCE, "label": label, "weights": weights}
            below = [paths] * m
        else:
            m = rng.randint(2, 3)
            p = rng.randrange(n_players)
            # "hist": the owner's own (node, action) moves on the path to the node.
            node = {"kind": DECISION, "label": label, "player": p, "m": m, "hist": paths[p]}
            levels.setdefault(depth, []).append(node)
            below = [paths[:p] + (paths[p] + ((node, idx),),) + paths[p + 1:] for idx in range(m)]
        node["children"] = [build(depth + 1, kid_paths) for kid_paths in below]
        return node

    root = build(0, ((),) * n_players)

    # Group decision nodes into information sets, level by level.  Nodes may
    # share a set only when the owner reaches them with the same history of
    # own (infoset, action) moves, which preserves perfect recall.  A node's
    # own history refers to infosets at strictly smaller depth, so labels are
    # always assigned before they are needed as grouping keys.
    iset_counter = [0]
    for depth in range(max_depth + 1):
        groups: dict[tuple, list[dict]] = {}
        for node in levels.get(depth, []):
            hist = tuple((owner["iset"], idx) for owner, idx in node["hist"])
            key = (node["player"], hist, node["m"])
            groups.setdefault(key, []).append(node)
        for key, members in groups.items():
            while members:
                k = rng.randint(1, len(members))
                chunk, members = members[:k], members[k:]
                label = f"p{key[0] + 1}i{iset_counter[0]}"
                iset_counter[0] += 1
                for node in chunk:
                    node["iset"] = label

    lines = [f"game random-tree-s{seed}", f"players {n_players}",
             f"root {root['label']}"]

    def emit(node):
        if node["kind"] == LEAF:
            pay = " ".join(str(u) for u in node["pay"])
            lines.append(f"leaf {node['label']} {{ {pay} }}")
            return
        kids = node["children"]
        if node["kind"] == CHANCE:
            total = sum(node["weights"])
            body = " ; ".join(
                f"c{i}={w / total!r} -> {c['label']}"
                for i, (w, c) in enumerate(zip(node["weights"], kids))
            )
            lines.append(f"chance {node['label']} {{ {body} }}")
        else:
            body = " ; ".join(f"a{i} -> {c['label']}" for i, c in enumerate(kids))
            lines.append(
                f"decision {node['label']} player {node['player'] + 1} "
                f"infoset {node['iset']} {{ {body} }}"
            )
        for c in kids:
            emit(c)

    emit(root)
    return "\n".join(lines) + "\n"


def builtin_game(name, seed=None):
    """Construct one of the bundled games.

    ``fig1`` is a small two-player game whose eight terminal payoffs are drawn
    from a seeded uniform over {-1, 0, 1}; the seed becomes part of the game
    name so serialized copies stay reproducible.  ``kuhn3`` is three-card Kuhn
    poker.  ``random-tree`` grows a seeded random game of depth at most 4.
    """
    if name == "fig1":
        if seed is None:
            raise ValueError("builtin 'fig1' requires a payoff seed")
        return parse_game(_fig1_text(seed))
    if name == "kuhn3":
        return parse_game(_kuhn3_text())
    if name == "random-tree":
        if seed is None:
            raise ValueError("builtin 'random-tree' requires a seed")
        return parse_game(_random_tree_text(seed))
    raise ValueError(f"unknown builtin game '{name}'")
