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
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Level:
    """The information sets at one depth of a plan's infoset forests.

    ``seqs`` lists the level's sequences, grouped by action count.
    ``blocks`` holds one (offset into ``seqs``, sequence ids (k, m), parent
    sequences (k,)) triple per action count m; each infoset's sequences are
    contiguous.  In the plan's level layout the level's sequences are rows
    ``lo`` to ``hi``, in ``seqs`` order, and ``parent_rows`` holds the row
    of each one's parent sequence.
    The level's infosets hang below rows ``up_lo`` to ``up_hi``: infoset k
    below row ``up_lo + up_rel[k]``.
    """

    seqs: np.ndarray
    blocks: tuple
    lo: int
    hi: int
    parent_rows: np.ndarray
    up_lo: int
    up_hi: int
    up_rel: np.ndarray
    # Column count -> bincount index of lift(); filled on first use.
    _lift_index: dict = field(default_factory=dict, compare=False, repr=False)

    def lift(self, into, here):
        """Add row k of ``here`` (level infosets x columns) to ``into``'s row of k's parent.

        ``into`` is in the plan's level layout.  One bincount sums the
        infosets that share a parent, in infoset order.
        """
        cols = here.shape[1]
        index = self._lift_index.get(cols)
        if index is None:
            index = (self.up_rel[:, None] * cols + np.arange(cols)).ravel()
            self._lift_index[cols] = index
        width = self.up_hi - self.up_lo
        sums = np.bincount(index, here.ravel(), width * cols)
        into[self.up_lo:self.up_hi] += sums.reshape(width, cols)


@dataclass(frozen=True)
class PlayerPlan:
    """Static arrays of the batched hot path and the regret meters, for a group of players.

    The players' sequences share one index: the k-th player's block
    ``spans[k] = (player, start, stop)`` begins at ``offsets[k]`` with its
    empty sequence and holds its ``sizes[k]`` sequences in their own order;
    ``owner[s]`` is the slot k of sequence s.  ``levels`` runs from the roots
    of the infoset forests down, merging the players' infosets by depth.
    ``subtree`` and ``below`` are N x N, indexed (sequence, sequence) and
    block diagonal.  Row t of ``subtree`` is 1 on the sequences at or below
    trigger t's infoset; the rows of the empty sequences are zero.
    ``below[s, t]`` is 1 when sequence t is at or below sequence s (every t
    of the block when s is its empty sequence).

    The level layout orders sequences by level: row j is sequence
    ``order[j]`` (the empty sequences first, then each level's ``seqs``),
    and ``rank[s]`` is the row of sequence s.  All per-trigger state is
    held in it as sequences x triggers arrays, so every level is a run of
    contiguous rows.  Column t of ``level_subtree`` is row t of ``subtree``,
    of ``level_own`` is 1 on trigger t's infoset, and of ``level_uniform``
    is 1/m on each m-action infoset (1 on the empty sequences).
    """

    spans: tuple[tuple[int, int, int], ...]
    offsets: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray
    levels: tuple[Level, ...]
    subtree: np.ndarray
    below: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    level_subtree: np.ndarray
    level_own: np.ndarray
    level_uniform: np.ndarray


class GameTree:
    """Immutable n-player perfect-recall game in extensive form.

    Nodes are indexed densely in document order.  Player indices are 0-based
    internally; the text format and all user-facing output use 1-based ids.
    """

    def __init__(self, name, n_players, records, root_label):
        # records: (kind, label, payload) in document order.  Payloads:
        #   chance   -> [(action, prob, child_label), ...]
        #   decision -> (player_1based, infoset_label, [(action, child_label), ...])
        #   leaf     -> [payoff, ...]
        if n_players < 1:
            raise GameValidationError("player count must be at least 1")
        self.name = name
        self.n_players = n_players

        label_to_id: dict[str, int] = {}
        for k, (_, label, _) in enumerate(records):
            if label in label_to_id:
                raise GameValidationError(f"duplicate node id '{label}'")
            label_to_id[label] = k
        if root_label not in label_to_id:
            raise GameValidationError(f"root node '{root_label}' is not declared")

        n = len(records)
        self.n_nodes = n
        self.root = label_to_id[root_label]
        self.node_kind = [r[0] for r in records]
        self.node_label = [r[1] for r in records]
        self.node_children: list[tuple[int, ...]] = [()] * n
        self.node_actions: list[tuple[str, ...]] = [()] * n
        self.node_player = [-1] * n
        self.node_infoset = [-1] * n
        self.chance_probs: list[tuple[float, ...]] = [()] * n
        self.leaf_payoffs: list[tuple[float, ...] | None] = [None] * n
        parent = [-1] * n
        iset_label_of_node = [None] * n

        for k, (kind, label, payload) in enumerate(records):
            if kind == LEAF:
                if len(payload) != n_players:
                    raise GameValidationError(
                        f"leaf '{label}' has {len(payload)} payoffs, expected {n_players}"
                    )
                self.leaf_payoffs[k] = tuple(float(u) for u in payload)
                continue
            if kind == CHANCE:
                entry_list = payload
                probs = [float(p) for _, p, _ in entry_list]
                for (a, _, _), p in zip(entry_list, probs):
                    if not p > 0.0:
                        raise GameValidationError(
                            f"chance probability for action '{a}' of node '{label}' must be positive"
                        )
                if abs(sum(probs) - 1.0) > _CHANCE_PROB_TOL:
                    raise GameValidationError(
                        f"chance probabilities at node '{label}' sum to {sum(probs)!r}, not 1"
                    )
                self.chance_probs[k] = tuple(probs)
            else:
                player_1b, iset_label, entry_list = payload
                if not 1 <= player_1b <= n_players:
                    raise GameValidationError(
                        f"node '{label}' belongs to player {player_1b}, but the game has {n_players} players"
                    )
                self.node_player[k] = player_1b - 1
                iset_label_of_node[k] = iset_label
            actions = [e[0] for e in entry_list]
            if len(set(actions)) != len(actions):
                raise GameValidationError(f"node '{label}' repeats an action name")
            if not actions:
                raise GameValidationError(f"node '{label}' has no actions")
            self.node_actions[k] = tuple(actions)
            kids = []
            for e in entry_list:
                child_label = e[-1]
                if child_label not in label_to_id:
                    raise GameValidationError(
                        f"node '{label}' references undeclared child '{child_label}'"
                    )
                c = label_to_id[child_label]
                if c == self.root:
                    raise GameValidationError(
                        f"root node '{child_label}' appears as a child of '{label}'"
                    )
                if parent[c] != -1:
                    raise GameValidationError(
                        f"node '{child_label}' has more than one parent"
                    )
                parent[c] = k
                kids.append(c)
            self.node_children[k] = tuple(kids)

        self._check_reachable()
        self._group_infosets(iset_label_of_node)
        self._walk_and_index()
        self._build_orders()

    # -- construction helpers ------------------------------------------------

    def _check_reachable(self):
        seen = [False] * self.n_nodes
        stack = [self.root]
        seen[self.root] = True
        while stack:
            k = stack.pop()
            for c in self.node_children[k]:
                seen[c] = True
                stack.append(c)
        for k, ok in enumerate(seen):
            if not ok:
                raise GameValidationError(
                    f"node '{self.node_label[k]}' is not reachable from the root"
                )

    def _group_infosets(self, iset_label_of_node):
        self.infosets: list[InfoSet] = []
        self._iset_lookup: dict[tuple[int, str], int] = {}
        self._iset_labels: list[str] = []
        members: list[list[int]] = []
        for k in range(self.n_nodes):
            if self.node_kind[k] != DECISION:
                continue
            key = (self.node_player[k], iset_label_of_node[k])
            gid = self._iset_lookup.get(key)
            if gid is None:
                gid = len(members)
                self._iset_lookup[key] = gid
                self._iset_labels.append(key[1])
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
        self._iset_members = members

    def _walk_and_index(self):
        n_players = self.n_players
        # Dense per-player sequence ids: 0 is the empty sequence, then one id
        # per (infoset, action) in document order of the infoset.
        n_seq = [1] * n_players
        iset_seq_ids = []
        for nodes in self._iset_members:
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

        stack = [(self.root, (EMPTY_SEQ,) * n_players, 1.0)]
        while stack:
            k, last, pc = stack.pop()
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
                    lab = self.infoset_label(gid)
                    raise GameValidationError(
                        f"perfect recall violated at information set '{lab}' of "
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

        self._seq_infoset = [np.full(n_seq[i], -1, dtype=np.int64) for i in range(n_players)]
        self._seq_action = [np.full(n_seq[i], -1, dtype=np.int64) for i in range(n_players)]
        self._seq_parent = [np.full(n_seq[i], -1, dtype=np.int64) for i in range(n_players)]

        finished = []
        for gid, nodes in enumerate(self._iset_members):
            first = nodes[0]
            p = self.node_player[first]
            parent_seq = parent_of[gid]
            finished.append(
                InfoSet(
                    index=gid,
                    player=p,
                    label=self.infoset_label(gid),
                    actions=self.node_actions[first],
                    nodes=tuple(nodes),
                    parent_seq=parent_seq,
                    seq_ids=iset_seq_ids[gid],
                )
            )
            for a_idx, sid in enumerate(iset_seq_ids[gid]):
                self._seq_infoset[p][sid] = gid
                self._seq_action[p][sid] = a_idx
                self._seq_parent[p][sid] = parent_seq
        self.infosets = finished

        self.terminals = term_nodes
        z = len(term_nodes)
        self.term_chance = np.asarray(term_pc, dtype=float)
        self.term_payoffs = np.zeros((z, n_players))
        self.term_seq = np.array(term_seq, dtype=np.int64).reshape(z, n_players)
        for row, k in enumerate(term_nodes):
            self.term_payoffs[row] = self.leaf_payoffs[k]
        self.n_terminals = z
        if z:
            self._payoff_range = self.term_payoffs.max(axis=0) - self.term_payoffs.min(axis=0)
        else:
            self._payoff_range = np.zeros(n_players)

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
        return self._iset_labels[gid]

    def infoset(self, player, label):
        """Return the :class:`InfoSet` with the given owner and label."""
        gid = self._iset_lookup.get((player, label))
        if gid is None:
            raise KeyError(f"player {player + 1} has no information set '{label}'")
        return self.infosets[gid]

    def player_infosets(self, player):
        """Global infoset ids of one player, parents before children."""
        return self._player_isets[player]

    def num_infosets(self, player):
        return len(self._player_isets[player])

    def num_sequences(self, player):
        """Number of sequences including the empty one."""
        return self._n_seq[player]

    def sequence_id(self, player, label, action):
        js = self.infoset(player, label)
        return js.seq_ids[js.actions.index(action)]

    def sequence_name(self, player, sid):
        if sid == EMPTY_SEQ:
            return "(empty)"
        js = self.infosets[self._seq_infoset[player][sid]]
        return f"{js.label}:{js.actions[self._seq_action[player][sid]]}"

    def seq_infoset(self, player):
        return self._seq_infoset[player]

    def seq_parent(self, player):
        return self._seq_parent[player]

    def child_infosets(self, player, sid):
        """Infosets of ``player`` whose parent sequence is ``sid``."""
        return self._seq_child_isets[player][sid]

    def subtree_infosets(self, gid):
        """Infosets at or below ``gid`` in the owner's infoset forest."""
        i = self.infosets[gid].player
        start = self._pre_index[gid]
        return self._player_isets[i][start:self._subtree_end[gid]]

    def subtree_seq_mask(self, gid):
        """Boolean array over the owner's sequences marking the subtree of ``gid``."""
        js = self.infosets[gid]
        return self.player_plan(js.player).subtree[js.seq_ids[0]] > 0.0

    def scope_infosets(self, player, root=None):
        """Infosets of a strategy scope, parents first.

        The scope is the player's whole forest when ``root`` is None, else the
        subtree of infoset ``root``, which must belong to ``player``.
        """
        if root is None:
            return self._player_isets[player]
        if self.infosets[root].player != player:
            raise ValueError("subtree root belongs to a different player")
        return self.subtree_infosets(root)

    def subtree_sequences(self, gid):
        """Sequence ids at or below infoset ``gid``, in increasing order."""
        return np.flatnonzero(self.subtree_seq_mask(gid))

    def descendant_mask(self, player):
        """Matrix D with D[s, t] true iff sequence t is at or below sequence s."""
        return self.player_plan(player).below > 0.0

    def player_plan(self, players):
        """The :class:`PlayerPlan` of one player or a tuple of distinct players, built on first use.

        Raises ValueError for a player outside 0 to ``n_players - 1`` or a
        repeated player.
        """
        key = (int(players),) if isinstance(players, Integral) else tuple(players)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(set(key)) != len(key) or not all(0 <= p < self.n_players for p in key):
                raise ValueError(f"players {key} are not distinct players "
                                 f"0 to {self.n_players - 1}")
            plan = self._build_plan(key)
            self._plan_cache[key] = plan
        return plan

    def _build_plan(self, players):
        sizes = np.array([self._n_seq[p] for p in players], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        # depth -> action count -> (joint sequence ids, joint parent sequence) per infoset
        by_depth: dict[int, dict[int, list]] = {}
        infoset_sum = np.zeros((n, n))
        below = np.zeros((n, n))
        below[offsets, offsets] = 1.0
        uniform = np.ones(n)
        for player, off in zip(players, offsets.tolist()):
            # Pre-order visits a parent sequence's infoset before its children's,
            # so each infoset's columns can copy their parent sequence's column.
            for gid in self._player_isets[player]:
                js = self.infosets[gid]
                sids = [off + s for s in js.seq_ids]
                parent = off + js.parent_seq
                below[:, sids] = below[:, [parent]]
                below[sids, sids] = 1.0
                depth = int(below[:, parent].sum()) - 1
                by_depth.setdefault(depth, {}).setdefault(len(sids), []).append((sids, parent))
                infoset_sum[np.ix_(sids, sids)] = 1.0
                uniform[sids] = 1.0 / len(sids)
        # 0/1, because the sequences of one infoset have disjoint descendants.
        subtree = infoset_sum @ below

        order = offsets.tolist()
        rank = np.zeros(n, dtype=np.int64)
        rank[offsets] = np.arange(len(players))
        levels = []
        for depth in sorted(by_depth):
            lo = len(order)
            blocks, seqs, members = [], [], []
            for m, group in sorted(by_depth[depth].items()):
                sids = np.array([s for s, _ in group], dtype=np.int64)
                pars = np.array([p for _, p in group], dtype=np.int64)
                blocks.append((len(seqs), sids, pars))
                seqs.extend(sids.ravel().tolist())
                members.extend(group)
            order.extend(seqs)
            rank[seqs] = np.arange(lo, len(order))
            sizes_here = [len(s) for s, _ in members]
            up_rows = rank[[p for _, p in members]]
            up_lo = int(up_rows.min())
            levels.append(Level(
                np.array(seqs, dtype=np.int64), tuple(blocks),
                lo, len(order), np.repeat(up_rows, sizes_here),
                up_lo, int(up_rows.max()) + 1, up_rows - up_lo))
        spans = tuple((p, a, a + k)
                      for p, a, k in zip(players, offsets.tolist(), sizes.tolist()))
        order = np.array(order, dtype=np.int64)
        return PlayerPlan(spans, offsets, sizes,
                          np.repeat(np.arange(len(players)), sizes), tuple(levels),
                          subtree, below, order, rank, subtree.T[order],
                          infoset_sum.T[order], np.tile(uniform[order, None], (1, n)))

    def payoff_range(self, player):
        """Spread between the best and worst terminal payoff of one player."""
        return float(self._payoff_range[player])

    def pure_count(self, player):
        """Number of deterministic sequence-form strategies of one player."""
        order = self._player_isets[player]
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

    def same_structure(self, other):
        """Exact structural equality, used by round-trip checks."""
        return (
            self.name == other.name
            and self.n_players == other.n_players
            and self.root == other.root
            and self.node_kind == other.node_kind
            and self.node_label == other.node_label
            and self.node_children == other.node_children
            and self.node_actions == other.node_actions
            and self.node_player == other.node_player
            and self.node_infoset == other.node_infoset
            and self.chance_probs == other.chance_probs
            and self.leaf_payoffs == other.leaf_payoffs
            and [js.label for js in self.infosets] == [js.label for js in other.infosets]
        )


# -- precedence and subtree queries -----------------------------------------


def sequence_precedes(game, seq_a, seq_b):
    """Whether sequence ``seq_a`` strictly precedes ``seq_b``.

    Sequences are (player, sequence id) pairs and must belong to the same
    player.  The empty sequence precedes every non-empty one; a sequence never
    precedes itself.
    """
    pa, sa = seq_a
    pb, sb = seq_b
    if pa != pb:
        raise ValueError(f"cannot compare sequences of players {pa + 1} and {pb + 1}")
    return sa != sb and bool(game.player_plan(pa).below[sa, sb] > 0.0)


def sequences_at_or_below(game, gid):
    """Sequence ids of the infoset's owner at or below infoset ``gid``."""
    return list(game.subtree_sequences(gid))


# -- text format -------------------------------------------------------------

_TOKEN = re.compile(r"->|[{}=;]|(?:(?!->)[^{}\s=;#])+")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text):
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            toks.append(_Tok(m.group(), ln, m.start() + 1))
    return toks


class _Cursor:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, what="token"):
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise GameFormatError(
                f"unexpected end of input, expected {what}",
                last.line if last else 1,
                (last.col + len(last.text)) if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.take(f"'{text}'")
        if tok.text != text:
            raise GameFormatError(f"expected '{text}', found '{tok.text}'", tok.line, tok.col)
        return tok


def _parse_number(tok, what):
    try:
        return float(tok.text)
    except ValueError:
        raise GameFormatError(f"expected {what}, found '{tok.text}'", tok.line, tok.col) from None


def _parse_int(tok, what):
    try:
        return int(tok.text)
    except ValueError:
        raise GameFormatError(f"expected {what}, found '{tok.text}'", tok.line, tok.col) from None


def parse_game(text):
    """Parse game text into a validated :class:`GameTree`.

    Raises :class:`GameFormatError` for syntax problems (with line and column)
    and :class:`GameValidationError` for structural ones: dangling child ids,
    duplicate node ids, non-tree topology, infoset action mismatches, perfect
    recall violations, and bad chance probabilities.
    """
    cur = _Cursor(_tokenize(text))
    name = None
    n_players = None
    root_label = None
    records = []
    seen_labels = {}

    def node_label(tok):
        if tok.text in seen_labels:
            raise GameFormatError(f"duplicate node id '{tok.text}'", tok.line, tok.col)
        seen_labels[tok.text] = tok
        return tok.text

    while True:
        tok = cur.peek()
        if tok is None:
            break
        if tok.text == ";":
            cur.take()
            continue
        if tok.text == "game":
            cur.take()
            if name is not None:
                raise GameFormatError("repeated 'game' statement", tok.line, tok.col)
            name = cur.take("game name").text
        elif tok.text == "players":
            cur.take()
            if n_players is not None:
                raise GameFormatError("repeated 'players' statement", tok.line, tok.col)
            n_players = _parse_int(cur.take("player count"), "player count")
        elif tok.text == "root":
            cur.take()
            if root_label is not None:
                raise GameFormatError("repeated 'root' statement", tok.line, tok.col)
            root_label = cur.take("root node id").text
        elif tok.text == "chance":
            cur.take()
            label = node_label(cur.take("node id"))
            cur.expect("{")
            entries = []
            while True:
                t = cur.take("chance entry or '}'")
                if t.text == "}":
                    break
                if t.text == ";":
                    continue
                action = t.text
                cur.expect("=")
                prob = _parse_number(cur.take("probability"), "a probability")
                cur.expect("->")
                child = cur.take("child node id").text
                entries.append((action, prob, child))
            records.append((CHANCE, label, entries))
        elif tok.text == "decision":
            cur.take()
            label = node_label(cur.take("node id"))
            cur.expect("player")
            player = _parse_int(cur.take("player number"), "a player number")
            cur.expect("infoset")
            iset = cur.take("infoset label").text
            cur.expect("{")
            entries = []
            while True:
                t = cur.take("action entry or '}'")
                if t.text == "}":
                    break
                if t.text == ";":
                    continue
                action = t.text
                cur.expect("->")
                child = cur.take("child node id").text
                entries.append((action, child))
            records.append((DECISION, label, (player, iset, entries)))
        elif tok.text == "leaf":
            cur.take()
            label = node_label(cur.take("node id"))
            cur.expect("{")
            payoffs = []
            while True:
                t = cur.take("payoff or '}'")
                if t.text == "}":
                    break
                payoff = _parse_number(t, "a payoff")
                if not math.isfinite(payoff):
                    raise GameFormatError(f"payoff must be finite, found '{t.text}'",
                                          t.line, t.col)
                payoffs.append(payoff)
            records.append((LEAF, label, payoffs))
        else:
            raise GameFormatError(
                f"expected a statement keyword, found '{tok.text}'", tok.line, tok.col
            )

    if n_players is None:
        raise GameFormatError("missing 'players' statement", 1, 1)
    if root_label is None:
        raise GameFormatError("missing 'root' statement", 1, 1)
    return GameTree(name or "game", n_players, records, root_label)


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

    def build(depth):
        label = f"n{counter[0]}"
        counter[0] += 1
        if depth == max_depth or (depth > 0 and rng.random() < 0.3):
            return {"kind": LEAF, "label": label,
                    "pay": [rng.randrange(-3, 4) for _ in range(n_players)]}
        if rng.random() < 0.2:
            m = rng.randint(2, 3)
            weights = [rng.randint(1, 4) for _ in range(m)]
            node = {"kind": CHANCE, "label": label, "weights": weights}
        else:
            m = rng.randint(2, 3)
            node = {"kind": DECISION, "label": label,
                    "player": rng.randrange(n_players), "m": m}
        node["children"] = [build(depth + 1) for _ in range(m)]
        return node

    root = build(0)

    # Group decision nodes into information sets, level by level.  Nodes may
    # share a set only when the owner reaches them with the same history of
    # own (infoset, action) moves, which preserves perfect recall.  A node's
    # own history refers to infosets at strictly smaller depth, so labels are
    # always assigned before they are needed as grouping keys.
    levels: dict[int, list[dict]] = {}

    def collect(node, depth, paths):
        node["paths"] = paths
        if node["kind"] == DECISION:
            levels.setdefault(depth, []).append(node)
        for idx, child in enumerate(node.get("children", ())):
            if node["kind"] == DECISION:
                p = node["player"]
                new = list(paths)
                new[p] = paths[p] + ((node, idx),)
                collect(child, depth + 1, tuple(new))
            else:
                collect(child, depth + 1, paths)

    collect(root, 0, tuple(() for _ in range(n_players)))
    iset_counter = [0]
    for depth in range(max_depth + 1):
        groups: dict[tuple, list[dict]] = {}
        for node in levels.get(depth, []):
            p = node["player"]
            hist = tuple((owner["iset"], idx) for owner, idx in node["paths"][p])
            key = (p, hist, node["m"])
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
