"""Cold-entity integration without retraining.

A cold entity arrives as a profile of declared (relation, existing-entity)
edges. ``augment_graph`` resolves the profiles in order and adds all
their triplets to a mutable clone of the training graph in one batch.
``integrate_cold_entities`` also synthesizes each entity's embedding from
its neighbors: the AverageTranslation strategy averages (e_tail -
e_relation) over the triplets headed at the entity; the Null strategy is
an all-zeros vector. The rows are computed from the triplet arrays,
without building the graph's CSR. Warm embeddings, biases and the policy
are never touched. These two batch calls are the only way to integrate;
a single profile is a batch of one. ``recommend_cold`` serves any user,
warm or cold.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import atomic_open
from .embeddings import EmbeddingTable
from .errors import (DuplicateEntity, EmptyProfile, MissingEmbedding,
                     MissingNeighborEmbedding, ParseError, SchemaViolation)
from .graph import KnowledgeGraph, parse_entity_token
from .inference import RecommendationList, beam_search, rank_recommendations
from .policy import PolicyModel

log = logging.getLogger(__name__)


class ColdStrategy(str, Enum):
    AVERAGE_TRANSLATION = "average_translation"
    NULL = "null"


@dataclass(frozen=True)
class ColdDeclaration:
    relation: str
    target_type: str
    target_name: str


@dataclass(frozen=True)
class ColdProfile:
    """Declared edges of an entity that was never seen in training.

    Declarations are stored head-at-cold-entity, so each relation's head
    type must equal the profile's entity type and interaction relations
    are not allowed.
    """

    name: str
    entity_type: str
    declarations: tuple[ColdDeclaration, ...]

    def validate(self, schema) -> None:
        if not self.declarations:
            raise EmptyProfile(f"profile {self.name!r} declares no relations")
        for d in self.declarations:
            spec = schema.relation(d.relation)
            if spec.interaction:
                raise SchemaViolation(
                    f"profile {self.name!r} declares interaction relation {d.relation!r}"
                )
            if spec.head_type != self.entity_type:
                raise SchemaViolation(
                    f"profile {self.name!r}: relation {d.relation!r} heads at "
                    f"{spec.head_type!r}, not {self.entity_type!r}"
                )
            if spec.tail_type != d.target_type:
                raise SchemaViolation(
                    f"profile {self.name!r}: relation {d.relation!r} targets "
                    f"{spec.tail_type!r}, not {d.target_type!r}"
                )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.entity_type,
            "relations": [
                {"relation": d.relation, "target": f"{d.target_type}:{d.target_name}"}
                for d in self.declarations
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColdProfile":
        decls = tuple(ColdDeclaration(r["relation"], *parse_entity_token(r["target"]))
                      for r in data["relations"])
        return cls(name=data["name"], entity_type=data["type"], declarations=decls)


def write_profiles(profiles: Sequence[ColdProfile], path: str):
    with atomic_open(path) as fh:
        for p in profiles:
            fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


def read_profiles(path: str) -> list[ColdProfile]:
    """The profiles of a jsonl file; a malformed target raises ParseError
    naming the file and line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    out.append(ColdProfile.from_json(json.loads(line)))
                except ParseError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return out


def _resolve(graph: KnowledgeGraph, profile: ColdProfile,
             taken: Mapping[str, int]) -> tuple[int, list[int], list[int]]:
    """Register a cold entity; returns it with its declared (relation,
    target) ids, which the caller stores as triplets headed at it.

    A profile whose entity is already in the graph, or whose name is
    ``taken`` by an entity of any type, raises DuplicateEntity.
    Declarations whose target is not in the graph are dropped with a log
    line; if none survive the profile is unusable and EmptyProfile is
    raised (an entity related to nothing cannot be reached or embedded).
    """
    profile.validate(graph.schema)
    key = (profile.entity_type, profile.name)
    e = graph.entity_id(*key) if graph.has_entity(*key) else taken.get(profile.name)
    if e is not None:
        raise DuplicateEntity(f"profile {profile.name!r} names existing entity "
                              f"{e} ({graph.entity_key(e)})")
    resolvable = [d for d in profile.declarations
                  if graph.has_entity(d.target_type, d.target_name)]
    dropped = len(profile.declarations) - len(resolvable)
    if dropped:
        log.info("profile %s: dropped %d declarations with unknown targets",
                 profile.name, dropped)
    if not resolvable:
        raise EmptyProfile(f"profile {profile.name!r} has no known targets")
    e = graph.add_entity(profile.entity_type, profile.name)
    return (e, [graph.relation_id(d.relation) for d in resolvable],
            [graph.entity_id(d.target_type, d.target_name) for d in resolvable])


def _cold_rows(table: EmbeddingTable, graph: KnowledgeGraph, entities: Sequence[int],
               strategy: ColdStrategy) -> np.ndarray:
    """Rows for integrated cold entities, read from the graph's triplet
    arrays (no CSR is built) and checked, without touching the table.
    ``entities`` must be the ids right after the table's last row, in
    order; a neighbor may be any other entity of the same batch, as long
    as the batch's edges among themselves form no cycle."""
    base, dim = table.entity_count, table.dim
    ents = np.asarray(entities, dtype=np.intp).reshape(-1)
    heads, rels, tails = graph.triplet_arrays()
    sel = np.flatnonzero(np.isin(heads, ents))
    # each entity's forward edges in canonical (relation, neighbor) order
    sel = sel[np.lexsort((tails[sel], rels[sel], heads[sel]))]
    by_id = np.argsort(ents, kind="stable")
    pos = by_id[np.searchsorted(ents[by_id], heads[sel])]  # batch position of each edge
    rel, nbr = rels[sel], tails[sel]
    counts = np.bincount(pos, minlength=len(ents))
    # the first failing entity decides the error
    bad = counts == 0
    outside = (nbr >= base) & ~np.isin(nbr, ents)  # neither warm nor in the batch
    if strategy != ColdStrategy.NULL:
        bad[pos[outside]] = True
    if bad.any():
        i = int(np.argmax(bad))
        if counts[i] == 0:
            raise EmptyProfile(f"entity {ents[i]} has no outgoing triplets to average")
        n = nbr[(pos == i) & outside][0]
        raise MissingNeighborEmbedding(
            f"neighbor {n} of cold entity {ents[i]} has no embedding row")
    if ents.tolist() != list(range(base, base + len(ents))):
        raise MissingEmbedding(f"entity rows must be appended in id order, from {base}")
    rows = np.zeros((len(ents), dim))
    if strategy == ColdStrategy.NULL:
        return rows
    # Rows are filled in waves: a row is summed once every batch row it
    # leans on is final. Within a wave, the j-th edges of all rows are
    # added in one step, so each row is the sequential sum over its edges
    # in canonical order, term for term as a one-by-one pass adds them.
    first = np.cumsum(counts) - counts  # each row's first edge
    in_batch = nbr >= base
    done = np.zeros(len(ents), dtype=bool)
    while not done.all():
        waiting = in_batch & ~done[np.where(in_batch, nbr - base, 0)]
        ready = np.flatnonzero(~done & (np.bincount(pos[waiting], minlength=len(ents)) == 0))
        if not len(ready):
            raise MissingNeighborEmbedding(
                f"cold entities {ents[~done].tolist()} lean on each other in a cycle")
        ready = ready[np.argsort(-counts[ready], kind="stable")]  # most edges first
        n_edges = counts[ready]
        acc = np.zeros((len(ready), dim))
        for j in range(int(n_edges[0])):
            live = int(np.count_nonzero(n_edges > j))  # a prefix of ``ready``
            edge = first[ready[:live]] + j
            nb = nbr[edge]
            warm = nb < base
            vecs = np.empty((live, dim))
            vecs[warm] = table.entity_vecs[nb[warm]]
            vecs[~warm] = rows[nb[~warm] - base]
            acc[:live] += vecs - table.relation_vecs[rel[edge]]
        rows[ready] = acc / n_edges[:, None]
        done[ready] = True
    return rows


def augment_graph(train_graph: KnowledgeGraph, profiles: Iterable[ColdProfile],
                  interactions: Mapping[str, Sequence[str]] | None = None):
    """Clone the training graph and integrate every profile into the clone.

    Profiles are validated and resolved one by one, in order, so a profile
    may target an entity integrated before it. Their declarations, then
    the ``interactions`` (cold user name -> item names, each pair added
    when both ends are in the graph), go into the clone in one batch.

    Returns (augmented graph frozen, name -> id map). A profile with no
    known target, naming an entity already in the graph, or repeating the
    name of an earlier profile's entity is skipped and omitted from the
    map; the training graph is left untouched.
    """
    aug = train_graph.clone()
    ids: dict[str, int] = {}
    heads: list[int] = []
    relations: list[int] = []
    tails: list[int] = []
    for profile in profiles:
        try:
            e, rels, targets = _resolve(aug, profile, ids)
        except (EmptyProfile, DuplicateEntity) as exc:
            log.info("profile %s skipped: %s", profile.name, exc)
            continue
        ids[profile.name] = e
        heads += [e] * len(rels)
        relations += rels
        tails += targets
    item_type, interaction = aug.schema.item_type, aug.interaction_relation
    for user, items in (interactions or {}).items():
        if user in ids and aug.is_user(ids[user]):
            for item in items:
                if aug.has_entity(item_type, item):
                    heads.append(ids[user])
                    relations.append(interaction)
                    tails.append(aug.entity_id(item_type, item))
    aug.add_triplets(heads, relations, tails)
    aug.freeze()
    return aug, ids


def integrate_cold_entities(train_graph: KnowledgeGraph, table: EmbeddingTable,
                            profiles: Iterable[ColdProfile],
                            strategy: ColdStrategy,
                            interactions: Mapping[str, Sequence[str]] | None = None):
    """``augment_graph`` plus the table extended by the integrated entities'
    rows (the table itself is left untouched); returns (graph, table, ids)."""
    aug, ids = augment_graph(train_graph, profiles, interactions)
    rows = _cold_rows(table, aug, list(ids.values()), strategy)  # insertion order == id order
    return aug, table.extended(rows), ids


def recommend_cold(user: int, policy: PolicyModel, graph: KnowledgeGraph,
                   table: EmbeddingTable, k: int, widths: Sequence[int],
                   max_actions: int | None = None) -> RecommendationList:
    """Top-k recommendation for any user, warm or cold: beam search, then
    ranking."""
    paths = beam_search(user, policy, graph, table, widths, max_actions=max_actions)
    return rank_recommendations(paths, graph, table, user, k)
