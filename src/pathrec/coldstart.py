"""Cold-entity integration without retraining.

A cold entity arrives as a profile of declared (relation, existing-entity)
edges. Integration adds the entity and its triplets to a mutable clone of
the training graph, then an embedding is synthesized from its neighbors:
the AverageTranslation strategy averages (e_tail - e_relation) over the
triplets headed at the entity; the Null strategy is an all-zeros vector.
Warm embeddings, biases and the policy are never touched.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import (EmptyProfile, MissingEmbedding, MissingNeighborEmbedding,
                     SchemaViolation, UnknownEntity, UnknownUser)
from .graph import FORWARD, KnowledgeGraph
from .inference import RecommendationList, beam_search, rank_recommendations
from .mdp import SELF_LOOP
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
        decls = []
        for r in data["relations"]:
            ttype, _, tname = r["target"].partition(":")
            decls.append(ColdDeclaration(r["relation"], ttype, tname))
        return cls(name=data["name"], entity_type=data["type"], declarations=tuple(decls))


def write_profiles(profiles: Sequence[ColdProfile], path: str):
    with open(path, "w") as fh:
        for p in profiles:
            fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


def read_profiles(path: str) -> list[ColdProfile]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(ColdProfile.from_json(json.loads(line)))
    return out


def integrate_entity(graph: KnowledgeGraph, profile: ColdProfile) -> int:
    """Add a cold entity and its declared triplets to a mutable graph.

    Declarations whose target is not in the graph are dropped with a log
    line; if none survive the profile is unusable and EmptyProfile is
    raised (an entity related to nothing cannot be reached or embedded).
    """
    profile.validate(graph.schema)
    resolvable = [d for d in profile.declarations
                  if graph.has_entity(d.target_type, d.target_name)]
    dropped = len(profile.declarations) - len(resolvable)
    if dropped:
        log.info("profile %s: dropped %d declarations with unknown targets",
                 profile.name, dropped)
    if not resolvable:
        raise EmptyProfile(f"profile {profile.name!r} has no known targets")
    e = graph.add_entity(profile.entity_type, profile.name)
    for d in resolvable:
        graph.add_triplet(e, graph.relation_id(d.relation),
                          graph.entity_id(d.target_type, d.target_name))
    return e


def cold_embedding(table: EmbeddingTable, graph: KnowledgeGraph, entity: int,
                   strategy: ColdStrategy) -> np.ndarray:
    """Synthesize and append an embedding row for an integrated cold entity."""
    return append_cold_embeddings(table, graph, [entity], strategy)[0]


def append_cold_embeddings(table: EmbeddingTable, graph: KnowledgeGraph,
                           entities: Sequence[int], strategy: ColdStrategy) -> np.ndarray:
    """Synthesize rows for integrated cold entities and append them.

    AverageTranslation: mean of (e_tail - e_relation) over the triplets
    headed at the entity. Null: zeros. The bias is 0 either way, and
    existing rows are never modified. ``entities`` must be the ids right
    after the table's last row, in order; a neighbor may be an earlier
    entity of the same batch. All rows are computed first and appended in
    one copy. Returns the new rows.
    """
    base = table.entity_count
    rows = np.zeros((len(entities), table.dim))
    for i, entity in enumerate(entities):
        forward = [(r, n) for r, n, d in graph.neighbors(entity) if d == FORWARD]
        if not forward:
            raise EmptyProfile(f"entity {entity} has no outgoing triplets to average")
        if strategy == ColdStrategy.NULL:
            continue
        acc = np.zeros(table.dim)
        for r, n in forward:
            if n < base:
                neighbor = table.entity_vecs[n]
            elif n < base + i:  # an earlier row of this batch (ids checked below)
                neighbor = rows[n - base]
            else:
                raise MissingNeighborEmbedding(
                    f"neighbor {n} of cold entity {entity} has no embedding row"
                )
            acc += neighbor - table.relation_vecs[r]
        rows[i] = acc / len(forward)
    if list(entities) != list(range(base, base + len(entities))):
        raise MissingEmbedding(f"entity rows must be appended in id order, from {base}")
    table.append_entities(base, rows, np.zeros(len(entities)))
    return rows


def integrate_cold_entities(train_graph: KnowledgeGraph, table: EmbeddingTable,
                            profiles: Iterable[ColdProfile],
                            strategy: ColdStrategy):
    """Clone the training graph, integrate every profile, extend the table.

    Returns (augmented graph frozen, extended table, name -> id map).
    Profiles that cannot be integrated are skipped and omitted from the
    map; the originals are left untouched.
    """
    aug = train_graph.clone()
    ext = table.copy()
    ids: dict[str, int] = {}
    for profile in profiles:
        try:
            ids[profile.name] = integrate_entity(aug, profile)
        except EmptyProfile:
            log.info("profile %s skipped: no usable declarations", profile.name)
    aug.freeze()
    append_cold_embeddings(ext, aug, list(ids.values()), strategy)  # insertion order == id order
    return aug, ext, ids


def recommend_cold(user: int, policy: PolicyModel, graph: KnowledgeGraph,
                   table: EmbeddingTable, k: int, widths: Sequence[int],
                   max_actions: int | None = None) -> RecommendationList:
    """Top-k recommendation for a cold user on the augmented graph.

    Identical machinery to warm users; with no interaction edges, every
    returned path necessarily starts through a declared profile relation.
    """
    if not graph.is_user(user):
        raise UnknownUser(f"entity {user} is not of type {graph.schema.user_type}")
    paths = beam_search(user, policy, graph, table, widths, max_actions=max_actions)
    recs = rank_recommendations(paths, graph, table, user, k)
    if not graph.user_items(user):
        interaction = graph.interaction_relation
        for entry in recs.entries:
            first_real = next((r for r, _ in entry.path.state.relations if r != SELF_LOOP), None)
            assert first_real != interaction, "cold user paths cannot start with an interaction"
    return recs
