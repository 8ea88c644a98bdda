"""Beam search over the policy and ranking of terminal items.

The beam expands breadth-wise with a per-hop branching width: at hop t
each surviving partial path keeps its ``widths[t]`` most probable
continuations, so widths that cover the whole slate make the search
exhaustive. Complete paths are ranked by cumulative log probability and
deduplicated per terminal item, keeping the best path as the explanation.

The beam is an array frontier (``mdp.Frontier``) plus one log-probability
per row, kept in the order a path-by-path search would produce: one
policy forward per hop over all rows, one batched slate build, one
lexsort for the per-row top-``width``. ``PathState``/``ScoredPath``
objects are built only for the final frontier. The user's scores over
all entities, which truncate over-cap slates by selection, are computed
once per search from the embedding table in place
(``embeddings.score_all_tails``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable, score_all_tails, score_tails
from .errors import InvalidSpec, UnknownUser
from .graph import FORWARD, KnowledgeGraph
from .mdp import SELF_LOOP, Frontier, PathState
from .policy import PolicyModel, check_walk


@dataclass(frozen=True)
class ScoredPath:
    state: PathState
    logprob: float

    @property
    def terminal(self) -> int:
        return self.state.terminal


def beam_search(user: int, policy: PolicyModel, graph: KnowledgeGraph,
                table: EmbeddingTable, widths: Sequence[int],
                max_actions: int | None = None) -> list[ScoredPath]:
    """All complete len(widths)-hop paths explored from ``user``.

    Per-hop, each partial path keeps its widths[t] most probable actions
    (ties broken by target entity id, then relation, then direction).
    Deterministic for a fixed policy. ``max_actions`` may narrow the
    policy's slate but not widen it.
    """
    if not graph.is_user(user):
        raise UnknownUser(f"entity {user} is not of type {graph.schema.user_type}")
    if any(w < 1 for w in widths):
        raise InvalidSpec("beam widths must be >= 1")
    cap = policy.config.max_actions if max_actions is None else max_actions
    budget = len(widths)
    check_walk(policy, graph, table, budget, cap)
    user_scores = score_all_tails(table, user, graph.interaction_relation)[None, :]
    frontier = Frontier.start([user])
    logprob = np.zeros(1)
    for width in widths:
        P = len(frontier)
        slates = frontier.slates(graph, cap, user_scores, np.zeros(P, dtype=np.intp))
        probs, _, _ = policy.forward(frontier.encode(table), slates.sizes)
        S = slates.target.shape[1]
        valid = np.arange(S) < slates.sizes[:, None]
        p = np.where(valid, probs[:, :S], -1.0)
        # Candidates: valid slots at least as probable as the row's
        # width-th best, so ties at the cut stay in; one lexsort then
        # orders them by (row, -p, target, relation, direction).
        if width < S:
            cut = -np.partition(-p, width - 1, axis=1)[:, width - 1]
            rows, slots = np.nonzero(valid & (p >= cut[:, None]))
        else:
            rows, slots = np.nonzero(valid)
        order = np.lexsort((slates.direction[rows, slots], slates.relation[rows, slots],
                            slates.target[rows, slots], -p[rows, slots], rows))
        rows, slots = rows[order], slots[order]
        take = np.arange(len(rows)) - np.searchsorted(rows, rows) < width
        rows, slots = rows[take], slots[take]
        logprob = logprob[rows] + np.log(p[rows, slots])
        frontier = frontier.advance(slates, rows, slots)
    return [ScoredPath(state, lp) for state, lp in
            zip(frontier.states(budget), logprob.tolist())]


@dataclass(frozen=True)
class Recommendation:
    item: int
    rank: int
    logprob: float
    path: ScoredPath


@dataclass(frozen=True)
class RecommendationList:
    user: int
    entries: tuple[Recommendation, ...]

    def items(self) -> list[int]:
        return [e.item for e in self.entries]


def rank_recommendations(paths: Sequence[ScoredPath], graph: KnowledgeGraph,
                         table: EmbeddingTable, user: int, k: int) -> RecommendationList:
    """Top-k items from complete paths, one best path per item.

    Paths not ending at an item and items the user already interacted with
    in training are dropped. Items are ordered by path log probability,
    ties by f(u, i | interaction), then item id.
    """
    if any(p.state.user != user for p in paths):
        raise UnknownUser("all paths must start at the requested user")
    seen = graph.user_items(user)
    best: dict[int, ScoredPath] = {}
    for p in sorted(paths, key=lambda p: (-p.logprob, p.state.entities, p.state.relations)):
        t = p.terminal
        if not graph.is_item(t) or t in seen:
            continue
        if t not in best:  # first hit is the best path for this item
            best[t] = p
    if not best:
        return RecommendationList(user=user, entries=())
    items = np.asarray(sorted(best), dtype=np.intp)
    fscores = score_tails(table, user, graph.interaction_relation, items)
    f_by_item = dict(zip(items.tolist(), fscores.tolist()))
    ranked = sorted(best, key=lambda i: (-best[i].logprob, -f_by_item[i], i))[:k]
    entries = tuple(Recommendation(item=i, rank=r + 1, logprob=best[i].logprob,
                                   path=best[i]) for r, i in enumerate(ranked))
    return RecommendationList(user=user, entries=entries)


@dataclass(frozen=True)
class ExplanationHop:
    head: str
    relation: str
    direction: int
    tail: str


@dataclass(frozen=True)
class Explanation:
    """Readable path with self-loops elided; keeps raw ids for a lossless
    round trip back to the graph."""

    user_key: str
    hops: tuple[ExplanationHop, ...]
    entity_ids: tuple[int, ...]
    relation_ids: tuple[tuple[int, int], ...]
    no_recommendation: bool

    def to_text(self) -> str:
        if self.no_recommendation:
            return f"{self.user_key}: no recommendation (path never left the user)"
        parts = []
        for hop in self.hops:
            if hop.direction == FORWARD:
                parts.append(f"{hop.head} -[{hop.relation}]-> {hop.tail}")
            else:
                parts.append(f"{hop.head} <-[{hop.relation}]- {hop.tail}")
        return "; ".join(parts)


def explain(path: ScoredPath | PathState, graph: KnowledgeGraph) -> Explanation:
    """Render a path as readable hops; self-loop steps are skipped."""
    state = path.state if isinstance(path, ScoredPath) else path
    hops = []
    for (rel, d), head, tail in zip(state.relations, state.entities, state.entities[1:]):
        if rel == SELF_LOOP:
            continue
        hops.append(ExplanationHop(head=graph.entity_key(head),
                                   relation=graph.relation_name(rel),
                                   direction=d, tail=graph.entity_key(tail)))
    return Explanation(
        user_key=graph.entity_key(state.user),
        hops=tuple(hops),
        entity_ids=state.entities,
        relation_ids=state.relations,
        no_recommendation=not hops,
    )
