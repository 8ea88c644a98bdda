"""Ranking and cold-start metrics.

All functions work on hashable item keys (the pipeline passes names), with
binary relevance. POPB normalizes each user's recommended popularity mass
by the best achievable mass for that user, i.e. the K most popular items
the user has not already interacted with in training; a pure popularity
recommender therefore scores exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import EmptyColdSet, InvalidSpec
from .graph import KnowledgeGraph


def ndcg_at_k(recommended: Sequence[Hashable], relevant: set, k: int) -> float:
    """Binary-relevance nDCG@k with 1/log2(rank+1) discounts."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    if not relevant:
        return 0.0
    dcg = sum(1.0 / math.log2(rank + 1)
              for rank, item in enumerate(recommended[:k], start=1)
              if item in relevant)
    ideal = sum(1.0 / math.log2(rank + 1)
                for rank in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def hit_at_k(recommended: Sequence[Hashable], relevant: set, k: int) -> float:
    """1.0 if any of the top-k items is relevant, else 0.0."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    return 1.0 if any(item in relevant for item in recommended[:k]) else 0.0


def train_popularity(train_graph: KnowledgeGraph) -> dict[str, int]:
    """Item name -> number of training interactions, in item id order."""
    items = train_graph.items()
    counts = train_graph.interaction_counts()[items].tolist()
    return {train_graph.entity_name(i): n for i, n in zip(items, counts)}


def _best_mass(ordered: Sequence[Hashable], popularity: Mapping[Hashable, int],
               k: int, exclude: set) -> float:
    """Mass of the first k items of ``ordered`` (most popular first) that
    are not excluded."""
    mass, taken = 0, 0
    for item in ordered:
        if taken == k:
            break
        if item not in exclude:
            mass += popularity[item]
            taken += 1
    return float(mass)


def popb_at_k(recs_per_user: Mapping[Hashable, Sequence[Hashable]],
              popularity: Mapping[Hashable, int], k: int,
              exclude_per_user: Mapping[Hashable, set] | None = None,
              ordered: Sequence[Hashable] | None = None) -> float:
    """Mean per-user popularity mass of the top-k, normalized per user by
    the mass of the k most popular items outside that user's training set.

    Users whose normalizer is zero contribute 0 (their numerator is then
    zero too). Items unseen in training count zero popularity. ``ordered``
    is ``popularity``'s items most popular first, ties by item (a
    ``PopBaseline``'s ``ordered_items``); it is sorted here when not given.
    """
    if not recs_per_user:
        return 0.0
    if ordered is None:
        ordered = sorted(popularity, key=lambda it: (-popularity[it], it))
    total = 0.0
    for user, recs in recs_per_user.items():
        exclude = exclude_per_user.get(user, set()) if exclude_per_user is not None else set()
        denom = _best_mass(ordered, popularity, k, exclude)
        num = float(sum(popularity.get(item, 0) for item in recs[:k]))
        total += num / denom if denom > 0 else 0.0
    return total / len(recs_per_user)


def cold_item_coverage(recs_per_user: Mapping[Hashable, Sequence[Hashable]],
                       cold_items: set, k: int) -> float:
    """Fraction of cold items that appear in at least one top-k list."""
    if not cold_items:
        raise EmptyColdSet("coverage is undefined for an empty cold-item set")
    seen = set()
    for recs in recs_per_user.values():
        seen.update(item for item in recs[:k] if item in cold_items)
    return len(seen) / len(cold_items)


def cold_item_proportion(recs_per_user: Mapping[Hashable, Sequence[Hashable]],
                         cold_items: set, k: int) -> float:
    """Mean per-user fraction of the top-k occupied by cold items.

    The divisor is k even when a list is shorter, so sparse lists are not
    rewarded."""
    if not cold_items:
        raise EmptyColdSet("proportion is undefined for an empty cold-item set")
    if not recs_per_user:
        return 0.0
    total = sum(sum(1 for item in recs[:k] if item in cold_items) / k
                for recs in recs_per_user.values())
    return total / len(recs_per_user)


class _TrainItems(Mapping):
    """User name -> names of the user's training items, read from the graph
    at a user's first lookup and kept; the keys are the graph's users."""

    def __init__(self, graph: KnowledgeGraph):
        self._graph = graph
        self._read: dict[Hashable, frozenset] = {}

    def __getitem__(self, user: Hashable) -> frozenset:
        items = self._read.get(user)
        if items is None:
            g = self._graph
            if not g.has_entity(g.schema.user_type, user):
                raise KeyError(user)
            ids = g.user_items(g.entity_id(g.schema.user_type, user))
            items = self._read[user] = frozenset(g.entity_name(i) for i in ids)
        return items

    def __iter__(self) -> Iterator[str]:
        return (self._graph.entity_name(u) for u in self._graph.users())

    def __len__(self) -> int:
        return len(self._graph.users())


@dataclass(frozen=True)
class PopBaseline:
    """Pure popularity recommender with per-user filtering of training items.

    ``popularity`` holds the training counts most popular first, the order
    of ``ordered_items``; ``train_items`` reads a user's items from the
    graph only when that user is asked for, so building and querying the
    baseline costs O(items + users asked for), not O(training users).
    """

    ordered_items: tuple[Hashable, ...]
    popularity: Mapping[Hashable, int]
    train_items: Mapping[Hashable, frozenset]
    k: int

    def recommend(self, user: Hashable) -> list[Hashable]:
        seen = self.train_items.get(user, set())
        out = []
        for item in self.ordered_items:
            if item not in seen:
                out.append(item)
                if len(out) == self.k:
                    break
        return out


def pop_baseline(train_graph: KnowledgeGraph, k: int) -> PopBaseline:
    counts = train_popularity(train_graph)
    ordered = tuple(sorted(counts, key=lambda it: (-counts[it], it)))
    return PopBaseline(ordered_items=ordered, popularity={it: counts[it] for it in ordered},
                       train_items=_TrainItems(train_graph), k=k)


def pattern_report(signature_labels: Iterable[str]) -> list[tuple[str, float]]:
    """Percentage histogram over chosen-path signatures, descending.

    Percentages sum to 100 (within float error) whenever any path exists.
    """
    counts: dict[str, int] = {}
    total = 0
    for label in signature_labels:
        counts[label] = counts.get(label, 0) + 1
        total += 1
    if total == 0:
        return []
    return sorted(((label, 100.0 * c / total) for label, c in counts.items()),
                  key=lambda kv: (-kv[1], kv[0]))
