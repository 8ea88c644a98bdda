"""Beam search over the policy and ranking of terminal items.

The beam expands breadth-wise with a per-hop branching width: at hop t
each surviving partial path keeps its ``widths[t]`` most probable
continuations, so widths that cover the whole slate make the search
exhaustive. Complete paths are ranked by cumulative log probability and
deduplicated per terminal item, keeping the best path as the explanation.

The beam is an array frontier (``mdp.Frontier``) plus one log-probability
per row, kept in the order a path-by-path search would produce. It is
walked by ``policy.walk``, the loop rollouts take too: one batched slate
build and one policy forward per hop over all rows, each row carrying
its parent's first-layer sum. The search is only its chooser: one
``Slates.actions`` read and one lexsort per hop for the per-row
top-``width``, whose moves it hands to the walk, and the log-probability
sums. The search returns the final frontier as a ``Beam``, its two
arrays and nothing else; ranking sorts, filters and deduplicates its
rows on the arrays, and ``PathState``/``ScoredPath`` objects are built,
in one ``Frontier.states`` call, only for the at most k served paths.
The user's scores over all entities, which truncate over-cap slates by
selection, are computed once per search (``mdp.start_scores``).

A served path has one format, the record ``path_record`` builds and
``recs/recommendations.jsonl`` stores; ``explain`` renders a record as
text without the graph, so a stored path explains itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable, score_tails
from .errors import InvalidSpec, UnknownUser, is_int
from .graph import INVERSE, KnowledgeGraph
from .mdp import SELF_LOOP, Frontier, PathState, path_signature, signature_label
from .policy import PolicyModel, walk


@dataclass(frozen=True)
class ScoredPath:
    state: PathState
    logprob: float


@dataclass(frozen=True, eq=False)
class Beam:
    """The complete paths of one beam search: its final frontier and each
    row's log probability."""

    frontier: Frontier
    logprob: np.ndarray

    def __len__(self) -> int:
        return len(self.frontier)


def beam_search(user: int, policy: PolicyModel, graph: KnowledgeGraph,
                table: EmbeddingTable, widths: Sequence[int],
                max_actions: int | None = None) -> Beam:
    """All complete paths explored from ``user``, one width per hop of
    the policy's hop budget.

    Per-hop, each partial path keeps its widths[t] most probable actions
    (ties broken by target entity id, then relation, then direction).
    Deterministic for a fixed policy. ``max_actions`` may narrow the
    policy's slate but not widen it. Widths and ``max_actions`` must be
    ints (not bools) >= 1.
    """
    if not graph.is_user(user):
        raise UnknownUser(f"entity {user} is not of type {graph.schema.user_type}")
    if not all(is_int(w) and w >= 1 for w in widths):
        raise InvalidSpec(f"beam widths must be ints >= 1, got {list(widths)}")
    if len(widths) != policy.config.hop_budget:
        raise InvalidSpec(f"{len(widths)}-hop walks over {table.dim}-dim embeddings meet a policy "
                          f"of {policy.config.hop_budget} hops over {policy.dim}-dim embeddings")
    cap = policy.config.max_actions if max_actions is None else max_actions
    hop_widths, logprob = iter(widths), np.zeros(1)

    def keep_most_probable(slates, probs, values, cache):
        nonlocal logprob
        width, S = next(hop_widths), int(slates.sizes.max())
        valid = np.arange(S) < slates.sizes[:, None]
        p = probs[:, :S]
        # Candidates: valid slots at least as probable as the row's
        # width-th best, so ties at the cut stay in; one lexsort then
        # orders them by (row, -p, target, relation, direction). p is 0
        # beyond a slate and >= 0 inside it, so a row with fewer than
        # width valid slots gets a cut of 0 and all of them.
        if width < S:
            cut = p.max(axis=1) if width == 1 else np.partition(p, S - width, axis=1)[:, S - width]
            rows, slots = np.nonzero(valid & (p >= cut[:, None]))
        else:
            rows, slots = np.nonzero(valid)
        relation, target, direction = slates.actions(rows, slots)
        order = np.lexsort((direction, relation, target, -p[rows, slots], rows))
        ranked = rows[order]
        order = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) < width]
        rows = rows[order]
        logprob = logprob[rows] + np.log(p[rows, slots[order]])
        return rows, (relation[order], target[order], direction[order])

    frontier = walk(policy, graph, table, [user], cap, keep_most_probable)
    return Beam(frontier, logprob)


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


def rank_recommendations(beam: Beam, graph: KnowledgeGraph, table: EmbeddingTable,
                         user: int, k: int) -> RecommendationList:
    """Top-k items from a beam's complete paths, one best path per item.

    Paths not ending at an item, at the user itself (when users are the
    item type) or at an item the user already interacted with in training
    are dropped. An item's path is its first in the order
    (-log probability, entities, relations). Items are ordered by path log
    probability, ties by f(u, i | interaction), then item id. The beam's
    rows are ranked on its arrays, and only the served ones are built as
    ``ScoredPath`` objects.
    """
    if not is_int(k):
        raise InvalidSpec(f"k must be an int, got {k!r}")
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    walks = beam.frontier
    if (walks.entities[:, 0] != user).any():
        raise UnknownUser("all paths must start at the requested user")
    # the tuple order of (-logprob, entities, relations): lexsort's last key
    # is its first, and a relation step compares as (relation, direction)
    steps = [column for i in reversed(range(walks.hops))
             for column in (walks.directions[:, i], walks.relations[:, i])]
    order = np.lexsort([*steps, *walks.entities.T[::-1], -beam.logprob])
    terminal = walks.entities[order, -1]
    seen = np.fromiter(graph.user_items(user), dtype=np.intp)
    keep = (graph.has_type(terminal, graph.schema.item_type) & (terminal != user)
            & (terminal[:, None] != seen).all(axis=1))
    items, first = np.unique(terminal[keep], return_index=True)
    if not len(items):
        return RecommendationList(user=user, entries=())
    best = order[keep][first]  # each item's first path in that order
    fscores = score_tails(table, user, graph.interaction_relation, items)
    served = best[np.lexsort((items, -fscores, -beam.logprob[best]))[:k]]
    return RecommendationList(user=user, entries=tuple(
        Recommendation(item=state.terminal, rank=r + 1, logprob=lp,
                       path=ScoredPath(state, lp))
        for r, (state, lp) in enumerate(zip(walks.states(walks.hops, served),
                                            beam.logprob[served].tolist()))))


def path_record(state: PathState, graph: KnowledgeGraph) -> dict:
    """A path as ``recs/recommendations.jsonl`` stores it: its entity keys,
    its steps as ``{"name", "direction"}`` (a self-loop named
    ``self_loop``) and its pattern label."""
    keys = graph.entity_keys()
    return {
        "entities": [keys[e] for e in state.entities],
        "relations": [{"name": "self_loop" if rel == SELF_LOOP else graph.relation_name(rel),
                       "direction": "inverse" if d == INVERSE else "forward"}
                      for rel, d in state.relations],
        "pattern": signature_label(path_signature(state, graph), graph),
    }


def explain(record: dict) -> str:
    """A path record rendered as readable hops, ``a -[r]-> b`` or
    ``a <-[r]- b`` joined by ``; ``; self-loop steps are skipped."""
    entities = record["entities"]
    hops = [f"{head} -[{rel['name']}]-> {tail}" if rel["direction"] == "forward"
            else f"{head} <-[{rel['name']}]- {tail}"
            for rel, head, tail in zip(record["relations"], entities, entities[1:])
            if rel["name"] != "self_loop"]
    if not hops:
        return f"{entities[0]}: no recommendation (path never left the user)"
    return "; ".join(hops)
