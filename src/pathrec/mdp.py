"""Path-walking MDP over a knowledge graph.

A state is the path walked so far from a start user; actions are a
self-loop plus moves along edges to unvisited neighbors; transitions are
deterministic. Rewards are terminal-only and come in two flavors: a
pattern-gated score normalized by the user's best item score, and a binary
hit test on the user's training interactions.

Walks run on a ``Frontier``: many paths held as (P, t+1) entity and
(P, t) relation/direction arrays, walked hop by hop by one loop,
``policy.walk``. ``Frontier.slates`` builds every row's slate in one
pass over the graph's CSR arrays, kept compact: the kept moves of all
rows as one run of CSR edge ids and targets, plus a per-row offset and
size; ``Slates.actions`` reads the (relation, target, direction) of any
(row, slot) pairs, which ``Frontier.advance`` appends.
``Frontier.encode`` gathers the entity block every row's last hop
reached: a hop's entity block is multiplied, and its relation block is
folded by the policy (``PolicyModel.fold``). ``RewardSpec.terminal_reward``
scores every row in one call. A row with more moves than the action cap
keeps its top moves by selection: one ``np.partition`` of the row's own
contiguous scores finds its cut score, and ties at the cut go to the
moves earliest in canonical order. ``PathState`` is one walked path as an
immutable value, built by ``Frontier.states`` only for the rows a caller
reads out of a frontier (the served paths of a ranking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import MissingEmbedding, SchemaViolation
from .embeddings import EmbeddingTable, score_all_tails, score_tails
from .graph import FORWARD, CSRAdjacency, KnowledgeGraph

SELF_LOOP = -1  # sentinel relation id for the stay-in-place action

MAX_ACTIONS_DEFAULT = 250


@dataclass(frozen=True)
class PathState:
    """Immutable walk state: entities visited and the edges between them.

    ``relations[i]`` is the (relation, direction) pair that led from
    ``entities[i]`` to ``entities[i+1]``; self-loop steps use
    (SELF_LOOP, FORWARD). ``visited`` blocks revisits; a self-loop repeats
    an entity, so it adds nothing to it.
    """

    entities: tuple[int, ...]
    relations: tuple[tuple[int, int], ...]
    budget: int

    @classmethod
    def start(cls, user: int, budget: int) -> "PathState":
        return cls(entities=(user,), relations=(), budget=budget)

    @property
    def user(self) -> int:
        return self.entities[0]

    @property
    def visited(self) -> frozenset[int]:
        return frozenset(self.entities)

    @property
    def self_loops(self) -> int:
        return sum(rel == SELF_LOOP for rel, _ in self.relations)

    @property
    def current(self) -> int:
        return self.entities[-1]

    @property
    def hops(self) -> int:
        return len(self.relations)

    @property
    def terminal(self) -> int:
        return self.entities[-1]


class Slates(NamedTuple):
    """Every frontier row's slate: its kept moves, compacted row by row.

    Row b holds ``sizes[b]`` slots. Slot 0 is the self-loop
    (SELF_LOOP, current entity, FORWARD); slot s >= 1 is move
    ``offset[b] + s - 1``, a CSR edge id and its target. A row's moves are
    contiguous and in canonical order. ``actions`` reads any slots.
    """

    edge: np.ndarray     # (M,) CSR edge id per kept move
    target: np.ndarray   # (M,)
    offset: np.ndarray   # (P,) row b's first move
    sizes: np.ndarray    # (P,)
    current: np.ndarray  # (P,) row b's current entity, the self-loop target
    adj: CSRAdjacency

    def actions(self, rows: np.ndarray, slots: np.ndarray):
        """(relation, target, direction) of slot ``slots[i]`` of row ``rows[i]``."""
        relation = np.full(len(rows), SELF_LOOP, dtype=np.intp)
        direction = np.full(len(rows), FORWARD, dtype=np.intp)
        target = self.current[rows]
        is_move = np.flatnonzero(slots)
        move = self.offset[rows[is_move]] + slots[is_move] - 1
        edge = self.edge[move]
        relation[is_move] = self.adj.rel[edge]
        target[is_move] = self.target[move]
        direction[is_move] = self.adj.dir[edge]
        return relation, target, direction


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
        """Every row's slate: the self-loop, then its moves to unvisited
        neighbors in canonical (relation, target, direction) order, kept
        compact (``Slates``).

        ``user_scores[score_rows[b]]`` holds f(start user, . | interaction)
        over all entity ids for row b; it ranks moves when a row has more
        than ``max_actions`` of them. The top ``max_actions`` by
        (-score, relation, target, direction) are kept, then left in
        canonical order. No sort is needed for that: an over-cap row's
        moves are one contiguous segment, and one ``np.partition`` of its
        scores gives the row's ``max_actions``-th best score, the cut;
        moves scoring above it are kept, then the earliest moves scoring
        exactly the cut until the row holds ``max_actions``. A row's moves
        are in canonical CSR order, so earliest is the (relation, target,
        direction) tie-break. The work follows the over-cap rows' own
        degrees, not the widest hub's.
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
        over = np.flatnonzero(counts > max_actions)
        if len(over):
            first_move = np.cumsum(counts) - counts
            keep = np.ones(len(target), dtype=bool)
            for b, lo, n in zip(over.tolist(), first_move[over].tolist(), counts[over].tolist()):
                scores = user_scores[score_rows[b]].take(target[lo:lo + n])
                cut = np.partition(scores, n - max_actions)[n - max_actions]
                kept = keep[lo:lo + n]
                np.greater_equal(scores, cut, out=kept)
                extra = np.count_nonzero(kept) - max_actions
                if extra:  # ties at the cut fill the row earliest first: drop the last
                    kept[np.flatnonzero(scores == cut)[-extra:]] = False
            edge, target = edge[keep], target[keep]
            counts = np.minimum(counts, max_actions)
        return Slates(edge, target, np.cumsum(counts) - counts, counts + 1, current, adj)

    def encode(self, table: EmbeddingTable) -> np.ndarray:
        """The entity block the last hop reached in every row, (P, d), the
        start user's at hop 0: the block the policy multiplies."""
        entity = self.entities[:, -1]
        if entity.size and entity.max() >= table.entity_count:
            raise MissingEmbedding("a frontier entity has no embedding row")
        return table.entity_vecs[entity]

    def advance(self, parent: np.ndarray, relation: np.ndarray, target: np.ndarray,
                direction: np.ndarray) -> "Frontier":
        """The frontier whose row i extends row ``parent[i]`` by the action
        (``relation[i]``, ``target[i]``, ``direction[i]``), as read from a
        slate by ``Slates.actions``."""
        def grow(have, column):
            return np.concatenate([have[parent], column[:, None]], axis=1)

        return Frontier(grow(self.entities, target), grow(self.relations, relation),
                        grow(self.directions, direction))

    def states(self, budget: int, rows=slice(None)) -> list[PathState]:
        """One ``PathState`` per row (of those ``rows`` selects), walked under
        a budget of ``budget`` hops."""
        return [PathState(tuple(ents), tuple(zip(rels, dirs)), budget)
                for ents, rels, dirs in zip(self.entities[rows].tolist(),
                                            self.relations[rows].tolist(),
                                            self.directions[rows].tolist())]


def start_scores(graph: KnowledgeGraph, table: EmbeddingTable, starts: Sequence[int]) -> np.ndarray:
    """f(start, . | interaction) over all entity ids, one ``score_all_tails``
    row per start: the ``user_scores`` of ``Frontier.slates``."""
    rows = [score_all_tails(table, start, graph.interaction_relation) for start in starts]
    return np.array(rows).reshape(len(starts), table.entity_count)


# -- signatures ---------------------------------------------------------------

Signature = tuple  # (type, (rel, dir), type, ..., type) with names resolved to ids


def path_signature(state: PathState, graph: KnowledgeGraph) -> Signature:
    """Type/relation signature of a path; trailing self-loops are dropped."""
    entities = list(state.entities)
    relations = list(state.relations)
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


# -- rewards ------------------------------------------------------------------

@dataclass
class RewardSpec:
    """Terminal reward of every row of a walked frontier, bound to a
    training graph; a frontier's hop count is the walk's budget.

    ``upgpr`` is the binary hit test: 1 where the terminal is a training
    interaction of the start user and fewer than hops - 1 steps were
    self-loops. ``pgpr`` gates on path patterns: a row whose terminal is
    an item and whose walk, trailing self-loops dropped, equals one of the
    schema's ``pattern_steps`` earns f(u, e_T | interaction) over the
    user's best item score, clipped to [0, 1] (at or above a best score
    <= 0 it earns 1). ``item_max`` holds that best score per user id,
    computed once, since embeddings are frozen during agent training.
    """

    mode: str
    graph: KnowledgeGraph
    table: EmbeddingTable | None = None
    item_max: np.ndarray | None = None

    @classmethod
    def binary(cls, graph: KnowledgeGraph) -> "RewardSpec":
        return cls(mode="upgpr", graph=graph)

    @classmethod
    def pattern(cls, graph: KnowledgeGraph, table: EmbeddingTable) -> "RewardSpec":
        if not graph.schema.pattern_steps:
            raise SchemaViolation("pattern reward requires path_patterns in the schema")
        items = np.asarray(graph.items(), dtype=np.intp)
        item_max = np.full(graph.entity_count, np.nan)
        for u in graph.users():
            item_max[u] = score_tails(table, u, graph.interaction_relation, items).max()
        return cls(mode="pgpr", graph=graph, table=table, item_max=item_max)

    def terminal_reward(self, frontier: Frontier) -> np.ndarray:
        g, ents, rels = self.graph, frontier.entities, frontier.relations
        start, terminal = ents[:, 0], ents[:, -1]
        loop = rels == SELF_LOOP
        if self.mode == "upgpr":
            hit = g.has_triplets(start, np.full_like(start, g.interaction_relation), terminal)
            return (hit & (loop.sum(axis=1) < frontier.hops - 1)).astype(float)
        # a row's live length: its hops before the trailing self-loops; a
        # row matches a pattern step by step over it (the schema types every
        # relation, so the steps fix the entity types along the path)
        live = np.max(np.where(loop, 0, np.arange(1, frontier.hops + 1)), axis=1, initial=0)
        ok = np.zeros(len(frontier), dtype=bool)
        for steps in (p for p in g.schema.pattern_steps if len(p) <= frontier.hops):
            match = live == len(steps)
            for i, (rel, d) in enumerate(steps):
                match &= (rels[:, i] == rel) & (frontier.directions[:, i] == d)
            ok |= match
        rows = np.flatnonzero(ok & g.has_type(terminal, g.schema.item_type))
        t, E = terminal[rows], self.table.entity_vecs
        q = E[start[rows]] + self.table.relation_vecs[g.interaction_relation]
        # one (1, d) @ (d, 1) product per row sums in the order of a one-tail
        # ``score_tails``; a row of ``score_all_tails`` can differ in the last bits
        score = (E[t][:, None, :] @ q[:, :, None])[:, 0, 0] + self.table.entity_bias[t]
        best = self.item_max[start[rows]]
        out = np.zeros(len(frontier))
        out[rows] = np.where(best > 0, np.clip(score / np.where(best > 0, best, 1.0), 0.0, 1.0),
                             score >= best)
        return out
