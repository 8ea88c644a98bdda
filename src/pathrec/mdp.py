"""Path-walking MDP over a knowledge graph.

A state is the path walked so far from a start user; actions are a
self-loop plus moves along edges to unvisited neighbors; transitions are
deterministic. Rewards are terminal-only and come in two flavors: a
pattern-gated score normalized by the user's best item score, and a binary
hit test on the user's training interactions.

Walks run on a ``Frontier``: many paths held as (P, t+1) entity and
(P, t) relation/direction arrays. ``Frontier.slates`` builds every row's
slate in one pass over the graph's CSR arrays and ``Frontier.encode``
every row's live state prefix in one gather; beam search and rollouts use
only these. A row with more moves than the action cap keeps its top
moves by selection: one ``np.partition`` finds each such row's cut
score, and ties at the cut go to the moves earliest in canonical order,
which is the scalar tie-break. The scalar per-state functions
``valid_actions``, ``step`` and ``encode_state`` define the same
semantics one state at a time; they remain the public per-state API and
the oracles the batched kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (BudgetExhausted, EmptyCandidates, IncompletePath,
                     InvalidAction, MissingEmbedding, SchemaViolation)
from .embeddings import EmbeddingTable, score_tails
from .graph import FORWARD, INVERSE, KnowledgeGraph

SELF_LOOP = -1  # sentinel relation id for the stay-in-place action

MAX_ACTIONS_DEFAULT = 250


class Action(NamedTuple):
    relation: int  # SELF_LOOP or a relation id
    target: int    # entity id reached (current entity for self-loops)
    direction: int

    @property
    def is_self_loop(self) -> bool:
        return self.relation == SELF_LOOP


@dataclass(frozen=True)
class PathState:
    """Immutable walk state: entities visited and the edges between them.

    ``relations[i]`` is the (relation, direction) pair that led from
    ``entities[i]`` to ``entities[i+1]``; self-loop steps use
    (SELF_LOOP, FORWARD). ``visited`` blocks revisits; self-loops do not
    add to it.
    """

    user: int
    entities: tuple[int, ...]
    relations: tuple[tuple[int, int], ...]
    visited: frozenset[int]
    self_loops: int
    budget: int

    @classmethod
    def start(cls, user: int, budget: int) -> "PathState":
        return cls(user=user, entities=(user,), relations=(),
                   visited=frozenset((user,)), self_loops=0, budget=budget)

    @property
    def current(self) -> int:
        return self.entities[-1]

    @property
    def hops(self) -> int:
        return len(self.relations)

    @property
    def is_complete(self) -> bool:
        return self.hops == self.budget

    @property
    def terminal(self) -> int:
        return self.entities[-1]


def step(state: PathState, action: Action, graph: KnowledgeGraph) -> PathState:
    """Apply one action; deterministic. Raises on budget or validity violations."""
    if state.is_complete:
        raise BudgetExhausted(f"hop budget {state.budget} already spent")
    if action.is_self_loop:
        if action.target != state.current:
            raise InvalidAction("self-loop must stay at the current entity")
        return PathState(state.user, state.entities + (state.current,),
                         state.relations + ((SELF_LOOP, FORWARD),),
                         state.visited, state.self_loops + 1, state.budget)
    if action.target in state.visited:
        raise InvalidAction(f"entity {action.target} was already visited")
    if action.direction == FORWARD:
        ok = graph.has_triplet(state.current, action.relation, action.target)
    else:
        ok = graph.has_triplet(action.target, action.relation, state.current)
    if not ok:
        raise InvalidAction(
            f"no edge ({state.current}, {action.relation}, {action.target}, dir={action.direction})"
        )
    return PathState(state.user, state.entities + (action.target,),
                     state.relations + ((action.relation, action.direction),),
                     state.visited | {action.target}, state.self_loops, state.budget)


def valid_actions(state: PathState, graph: KnowledgeGraph, table: EmbeddingTable | None = None,
                  max_actions: int = MAX_ACTIONS_DEFAULT,
                  user_scores: np.ndarray | None = None) -> list[Action]:
    """Self-loop plus moves to unvisited neighbors, in canonical order.

    When more than ``max_actions`` moves exist, the highest scoring ones
    against the episode's start user are kept (f under the interaction
    relation); ``user_scores`` may supply those scores precomputed over all
    entity ids. The surviving moves are re-sorted canonically so slot
    semantics stay stable.
    """
    if state.is_complete:
        raise BudgetExhausted(f"hop budget {state.budget} already spent")
    moves = [Action(r, n, d) for r, n, d in graph.neighbors(state.current)
             if n not in state.visited]
    if len(moves) > max_actions:
        if user_scores is not None:
            scores = user_scores[[m.target for m in moves]]
        elif table is not None:
            targets = np.asarray([m.target for m in moves], dtype=np.intp)
            scores = score_tails(table, state.user, graph.interaction_relation, targets)
        else:
            raise MissingEmbedding("action truncation needs an embedding table or scores")
        ranked = sorted(zip(moves, scores.tolist()),
                        key=lambda ms: (-ms[1], ms[0].relation, ms[0].target, ms[0].direction))
        moves = sorted(m for m, _ in ranked[:max_actions])
    return [Action(SELF_LOOP, state.current, FORWARD)] + moves


def encode_state(state: PathState, table: EmbeddingTable) -> np.ndarray:
    """Fixed-width state vector: user slot plus (relation, entity) per hop.

    1 + 2*budget slots of dim d, zero-padded beyond the hops taken.
    Self-loop steps use the table's null-relation vector.
    """
    d = table.dim
    out = np.zeros((1 + 2 * state.budget) * d)
    out[:d] = table.entity_vec(state.user)
    for i, ((rel, _), ent) in enumerate(zip(state.relations, state.entities[1:])):
        rel_vec = table.self_loop_vec if rel == SELF_LOOP else table.relation_vec(rel)
        out[(1 + 2 * i) * d:(2 + 2 * i) * d] = rel_vec
        out[(2 + 2 * i) * d:(3 + 2 * i) * d] = table.entity_vec(ent)
    return out


class Slates(NamedTuple):
    """Every frontier row's slate, padded to a common width S.

    Row b holds ``sizes[b]`` valid slots: slot 0 is the self-loop
    (SELF_LOOP, current entity, FORWARD), the rest are the kept moves in
    canonical order. Slots at or beyond ``sizes[b]`` are padding.
    """

    relation: np.ndarray  # (P, S)
    target: np.ndarray    # (P, S)
    direction: np.ndarray  # (P, S)
    sizes: np.ndarray     # (P,)


@dataclass(frozen=True, eq=False)
class Frontier:
    """P paths from their start entities, walked in lockstep.

    ``entities[b]`` is row b's path (start first); ``relations[b, i]`` and
    ``directions[b, i]`` are the edge from ``entities[b, i]`` to
    ``entities[b, i + 1]``, (SELF_LOOP, FORWARD) for self-loops, exactly
    as in ``PathState``. Self-loops repeat an entity already on the path,
    so a row's visited set is the set of its entities.
    """

    entities: np.ndarray    # (P, t+1)
    relations: np.ndarray   # (P, t)
    directions: np.ndarray  # (P, t)

    @classmethod
    def start(cls, starts: Sequence[int]) -> "Frontier":
        empty = np.zeros((len(starts), 0), dtype=np.intp)
        return cls(np.asarray(starts, dtype=np.intp).reshape(-1, 1), empty, empty)

    def __len__(self) -> int:
        return self.entities.shape[0]

    @property
    def hops(self) -> int:
        return self.relations.shape[1]

    def slates(self, graph: KnowledgeGraph, max_actions: int,
               user_scores: np.ndarray, score_rows: np.ndarray) -> Slates:
        """Every row's ``valid_actions`` slate at once.

        ``user_scores[score_rows[b]]`` holds f(start user, . | interaction)
        over all entity ids for row b; it ranks moves when a row has more
        than ``max_actions`` of them. The top ``max_actions`` by
        (-score, relation, target, direction) are kept, as in the scalar
        function, then left in canonical order. No sort is needed for
        that: one ``np.partition`` over the over-cap rows' padded scores
        gives each row's ``max_actions``-th best score, the cut; moves
        scoring above it are kept, then the earliest moves scoring exactly
        the cut until the row holds ``max_actions``. A row's moves are in
        canonical CSR order, so earliest is the (relation, target,
        direction) tie-break.
        """
        adj = graph.csr()
        P = len(self)
        current = self.entities[:, -1]
        first = adj.indptr[current]
        degree = adj.indptr[current + 1] - first
        row = np.repeat(np.arange(P), degree)
        offset = np.cumsum(degree) - degree
        edge = np.arange(len(row)) + np.repeat(first - offset, degree)
        # unvisited targets only; a row's visited set is its entities
        target = adj.nbr[edge]
        fresh = np.ones(len(row), dtype=bool)
        for visited in self.entities.T:
            fresh &= visited[row] != target
        row, edge, target = row[fresh], edge[fresh], target[fresh]
        counts = np.bincount(row, minlength=P)
        is_over = counts > max_actions
        if is_over.any():
            over_rows = np.nonzero(is_over)[0]
            over = np.nonzero(is_over[row])[0]
            n = counts[over_rows]
            local = np.repeat(np.arange(len(over_rows)), n)
            pos = np.arange(len(over)) - np.repeat(np.cumsum(n) - n, n)
            score = user_scores[score_rows[row[over]], target[over]]
            padded = np.full((len(over_rows), int(n.max())), -np.inf)
            padded[local, pos] = score
            kth = padded.shape[1] - max_actions
            cut = (np.partition(padded, kth, axis=1)[:, kth] if max_actions > 0
                   else np.full(len(over_rows), np.inf))
            kept = score > cut[local]
            # ties at the cut fill each row up to max_actions, earliest first
            tie = np.nonzero(score == cut[local])[0]
            tie_local = local[tie]
            tie_rank = np.arange(len(tie)) - np.searchsorted(tie_local, tie_local)
            need = max_actions - np.bincount(local[kept], minlength=len(over_rows))
            kept[tie[tie_rank < need[tie_local]]] = True
            keep = np.ones(len(row), dtype=bool)
            keep[over[~kept]] = False
            row, edge, target = row[keep], edge[keep], target[keep]
            counts = np.minimum(counts, max_actions)
        sizes = counts + 1
        width = int(sizes.max()) if P else 1
        slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        out = []
        for moves, loop in ((adj.rel[edge], SELF_LOOP), (target, current),
                            (adj.dir[edge], FORWARD)):
            a = np.zeros((P, width), dtype=np.intp)
            a[:, 0] = loop
            a[row, slot] = moves
            out.append(a)
        return Slates(*out, sizes)

    def encode(self, table: EmbeddingTable) -> np.ndarray:
        """Every row's live state prefix, gathered in one pass.

        At hop t only the first (1 + 2t)·d columns of an ``encode_state``
        vector can be nonzero: the start user, then a relation block and
        an entity block per hop taken. Those columns are returned, shape
        (P, (1 + 2t)·d); ``PolicyModel.forward`` supplies the zero blocks
        up to the hop budget where it needs them. Relation rows come from
        the relation table extended by the self-loop vector, which
        SELF_LOOP (-1) indexes as its last row.
        """
        if self.entities.size and self.entities.max() >= table.entity_count:
            raise MissingEmbedding("a frontier entity has no embedding row")
        P, t = len(self), self.hops
        out = np.empty((P, 1 + 2 * t, table.dim))
        out[:, 0] = table.entity_vecs[self.entities[:, 0]]
        if t:
            rel_rows = np.vstack([table.relation_vecs, table.self_loop_vec])
            out[:, 1::2] = rel_rows[self.relations]
            out[:, 2::2] = table.entity_vecs[self.entities[:, 1:]]
        return out.reshape(P, -1)

    def advance(self, slates: Slates, parent: np.ndarray, slot: np.ndarray) -> "Frontier":
        """The frontier whose row i extends row ``parent[i]`` by its slate's
        action ``slot[i]``."""
        def grow(have, slate_column):
            return np.concatenate([have[parent], slate_column[parent, slot][:, None]], axis=1)

        return Frontier(grow(self.entities, slates.target),
                        grow(self.relations, slates.relation),
                        grow(self.directions, slates.direction))

    def states(self, budget: int) -> list[PathState]:
        """One ``PathState`` per row, equal to the one ``step`` would build."""
        out = []
        for ents, rels, dirs in zip(self.entities.tolist(), self.relations.tolist(),
                                    self.directions.tolist()):
            out.append(PathState(ents[0], tuple(ents), tuple(zip(rels, dirs)),
                                 frozenset(ents), rels.count(SELF_LOOP), budget))
        return out


# -- patterns -----------------------------------------------------------------

Signature = tuple  # (type, (rel, dir), type, ..., type) with names resolved to ids


@dataclass(frozen=True)
class PathPattern:
    """Compiled semantic path: entity type indices and directed relation steps."""

    types: tuple[str, ...]
    steps: tuple[tuple[int, int], ...]

    @property
    def hops(self) -> int:
        return len(self.steps)

    def signature(self) -> Signature:
        sig: list = [self.types[0]]
        for (rel, d), t in zip(self.steps, self.types[1:]):
            sig.append((rel, d))
            sig.append(t)
        return tuple(sig)


def compile_pattern(tokens: Sequence[str], graph: KnowledgeGraph) -> PathPattern:
    """Compile a schema pattern token list against a concrete graph."""
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise SchemaViolation(f"pattern {tokens} must alternate type, relation, type")
    types = tuple(tokens[0::2])
    steps = []
    for tok in tokens[1::2]:
        inverse = tok.startswith("~")
        rel = graph.relation_id(tok[1:] if inverse else tok)
        steps.append((rel, INVERSE if inverse else FORWARD))
    return PathPattern(types=types, steps=tuple(steps))


def compile_patterns(graph: KnowledgeGraph) -> tuple[PathPattern, ...]:
    return tuple(compile_pattern(p, graph) for p in graph.schema.path_patterns)


def path_signature(state: PathState, graph: KnowledgeGraph,
                   collapse_trailing_self_loops: bool = True) -> Signature:
    """Type/relation signature of a path; trailing self-loops are dropped."""
    entities = list(state.entities)
    relations = list(state.relations)
    if collapse_trailing_self_loops:
        while relations and relations[-1][0] == SELF_LOOP:
            relations.pop()
            entities.pop()
    sig: list = [graph.entity_type(entities[0])]
    for (rel, d), ent in zip(relations, entities[1:]):
        sig.append((rel, d))
        sig.append(graph.entity_type(ent))
    return tuple(sig)


def signature_label(sig: Signature, graph: KnowledgeGraph) -> str:
    """Human-readable signature used in pattern reports."""
    parts = [str(sig[0])]
    for i in range(1, len(sig), 2):
        rel, d = sig[i]
        name = "<self-loop>" if rel == SELF_LOOP else graph.relation_name(rel)
        arrow = f"-{name}->" if d == FORWARD else f"<-{name}-"
        parts.append(arrow)
        parts.append(str(sig[i + 1]))
    return " ".join(parts)


def match_pattern(state: PathState, patterns: Iterable[PathPattern],
                  graph: KnowledgeGraph) -> bool:
    """True when the path (trailing self-loops collapsed) equals a pattern."""
    if not state.is_complete:
        raise IncompletePath(f"path has {state.hops} of {state.budget} hops")
    sig = path_signature(state, graph)
    return any(sig == p.signature() for p in patterns)


# -- rewards ------------------------------------------------------------------

def normalized_interaction_score(score: float, item_max: float) -> float:
    """Normalize f(u, e_T) by the user's best item score, clipped to [0, 1].

    The raw ratio can leave [0, 1] when scores are negative; the clip keeps
    the reward a proper score, and the argmax item always earns 1.0.
    """
    if item_max > 0:
        return min(max(score / item_max, 0.0), 1.0)
    return 1.0 if score >= item_max else 0.0


def max_item_score(table: EmbeddingTable, graph: KnowledgeGraph, user: int) -> float:
    """max over items of f(u, i | interaction relation)."""
    items = np.asarray(graph.items(), dtype=np.intp)
    if len(items) == 0:
        raise EmptyCandidates("graph has no items to normalize against")
    return float(score_tails(table, user, graph.interaction_relation, items).max())


def reward_pattern(state: PathState, graph: KnowledgeGraph, table: EmbeddingTable,
                   patterns: Iterable[PathPattern], item_max: float) -> float:
    """Pattern-gated terminal reward: normalized f(u, e_T) or 0."""
    if not state.is_complete:
        raise IncompletePath(f"path has {state.hops} of {state.budget} hops")
    if not graph.is_item(state.terminal):
        return 0.0
    if not match_pattern(state, patterns, graph):
        return 0.0
    score = float(score_tails(table, state.user, graph.interaction_relation,
                              np.asarray([state.terminal], dtype=np.intp))[0])
    reward = normalized_interaction_score(score, item_max)
    assert reward <= 1.0
    return reward


def reward_binary(state: PathState, train_items: frozenset[int]) -> float:
    """1 iff the terminal entity is a training interaction of the user and
    fewer than budget-1 self-loops were taken, else 0."""
    if not state.is_complete:
        raise IncompletePath(f"path has {state.hops} of {state.budget} hops")
    if state.terminal in train_items and state.self_loops < state.budget - 1:
        return 1.0
    return 0.0


@dataclass
class RewardSpec:
    """Terminal reward bound to a training graph.

    ``pgpr`` gates on path patterns and normalizes by a per-user max item
    score (precomputed once, since embeddings are frozen during agent
    training); ``upgpr`` is the binary hit test.
    """

    mode: str
    graph: KnowledgeGraph
    table: EmbeddingTable | None = None
    patterns: tuple[PathPattern, ...] = ()
    item_max: dict[int, float] | None = None
    interactions: dict[int, frozenset[int]] | None = None

    @classmethod
    def binary(cls, graph: KnowledgeGraph) -> "RewardSpec":
        inter = {u: frozenset(items) for u, items in graph.interactions_by_user().items()}
        return cls(mode="upgpr", graph=graph, interactions=inter)

    @classmethod
    def pattern(cls, graph: KnowledgeGraph, table: EmbeddingTable) -> "RewardSpec":
        patterns = compile_patterns(graph)
        if not patterns:
            raise SchemaViolation("pattern reward requires path_patterns in the schema")
        items = np.asarray(graph.items(), dtype=np.intp)
        rel = graph.interaction_relation
        item_max = {u: float(score_tails(table, u, rel, items).max())
                    for u in graph.users()}
        return cls(mode="pgpr", graph=graph, table=table, patterns=patterns,
                   item_max=item_max)

    def terminal_reward(self, state: PathState) -> float:
        if self.mode == "upgpr":
            return reward_binary(state, self.interactions.get(state.user, frozenset()))
        return reward_pattern(state, self.graph, self.table, self.patterns,
                              self.item_max[state.user])
