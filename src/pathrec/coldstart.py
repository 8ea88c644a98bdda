"""Cold-entity integration without retraining.

A cold entity arrives as a profile of declared (relation, existing-entity)
edges. ``augment_graph`` integrates a batch of profiles in one pass: each
kind of declaration is validated once, each target is one lookup, and the
accepted entities and all their triplets go into one ``extended`` call,
which returns a new graph and leaves the training graph as it is.
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
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import atomic_open, decode_text, read_bytes
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
    def from_json(cls, data) -> "ColdProfile":
        """The profile ``to_json`` wrote; a value of another shape raises
        ParseError."""
        if not isinstance(data, dict):
            raise ParseError("not a JSON object")
        for key in ("name", "type"):
            if not isinstance(data.get(key), str):
                raise ParseError(f"no string {key}")
        rels = data.get("relations")
        if not (isinstance(rels, list) and all(
                isinstance(r, dict) and isinstance(r.get("relation"), str)
                and isinstance(r.get("target"), str) for r in rels)):
            raise ParseError("relations is not a list of {relation, target} string objects")
        decls = tuple(ColdDeclaration(r["relation"], *parse_entity_token(r["target"]))
                      for r in rels)
        return cls(name=data["name"], entity_type=data["type"], declarations=decls)


def write_profiles(profiles: Sequence[ColdProfile], path: str):
    with atomic_open(path) as fh:
        for p in profiles:
            fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


def read_profiles(path: str) -> list[ColdProfile]:
    """The profiles of a jsonl file; a malformed target raises ParseError
    naming the file and line."""
    return parse_profiles(path, read_bytes(path))


def parse_profiles(path: str, data: bytes) -> list[ColdProfile]:
    """The profiles of a jsonl file's bytes, read as a text-mode ``open``
    reads them (``decode_text``). A line that is no profile object raises
    ParseError naming the file and line."""
    out = []
    for lineno, line in enumerate(decode_text(path, data).split("\n"), start=1):
        line = line.strip()
        if line:
            try:
                out.append(ColdProfile.from_json(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not JSON: {exc}") from exc
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return out


def _declarable(schema, etype: str, relation: str, target_type: str) -> bool:
    """Whether ``ColdProfile.validate`` accepts declarations of this kind."""
    try:
        ColdProfile("", etype, (ColdDeclaration(relation, target_type, ""),)).validate(schema)
    except SchemaViolation:
        return False
    return True


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
            cold = nb >= base
            # a batch neighbor's slot reads warm row 0, then its own row; row
            # 0 exists, since without warm rows no batch row could be summed
            vecs = table.entity_vecs[np.where(cold, 0, nb)]
            if cold.any():
                vecs[cold] = rows[nb[cold] - base]
            vecs -= table.relation_vecs[rel[edge]]
            acc[:live] += vecs
        rows[ready] = acc / n_edges[:, None]
        done[ready] = True
    return rows


def augment_graph(train_graph: KnowledgeGraph, profiles: Iterable[ColdProfile],
                  interactions: Mapping[str, Sequence[str]] | None = None):
    """The training graph extended by every profile it accepts.

    The declarations of all profiles are read as flat arrays first: each
    distinct (entity type, relation, target type) is validated once
    (``_declarable``), and every target is looked up in the training keys.
    One pass over the profiles, in order, then accepts or skips each one;
    an accepted profile's entity takes the next id, and a target missing
    from the training keys is looked up among the profiles accepted before
    it. The accepted entities, their declarations, then the
    ``interactions`` (cold user name -> item names, each pair added when
    both ends are in the graph), go into one ``extended`` call.

    Returns (augmented graph, name -> id map). A profile with no
    known target, naming an entity already in the graph, or repeating the
    name of an earlier profile's entity is skipped and omitted from the
    map; declarations whose target is not in the graph are dropped. Both
    are logged. The first profile that breaks the schema raises the
    SchemaViolation of ``ColdProfile.validate``. The training graph is
    left untouched.
    """
    schema, warm, base = train_graph.schema, train_graph.entity_index(), train_graph.entity_count
    profiles = list(profiles)
    counts = [len(p.declarations) for p in profiles]
    first = list(accumulate(counts, initial=0))  # each profile's first declaration
    bad_kinds = {kind for kind in {(p.entity_type, d.relation, d.target_type)
                                   for p in profiles for d in p.declarations}
                 if not _declarable(schema, *kind)}
    relations = np.fromiter((schema.relation_ids.get(d.relation, -1)
                             for p in profiles for d in p.declarations), np.intp, first[-1])
    targets = np.fromiter((warm.get((d.target_type, d.target_name), -1)
                           for p in profiles for d in p.declarations), np.intp, first[-1])
    # profiles with a target outside the training graph
    short = np.zeros(len(profiles), dtype=bool)
    short[np.repeat(np.arange(len(profiles)), counts)[targets < 0]] = True

    ids: dict[str, int] = {}  # accepted names in id order
    types: list[str] = []  # their entity types

    def in_batch(etype: str, name: str) -> int:
        """The id of an accepted profile's entity, or -1; the names of
        accepted profiles are distinct across types."""
        e = ids.get(name, -1)
        return e if e >= 0 and types[e - base] == etype else -1

    owner = [-1] * len(profiles)  # each profile's entity; -1 when skipped
    own = map(warm.get, ((p.entity_type, p.name) for p in profiles))
    for j, (profile, e, check) in enumerate(zip(profiles, own, short.tolist())):
        etype, name, decls = profile.entity_type, profile.name, profile.declarations
        try:
            if not decls or bad_kinds and any((etype, d.relation, d.target_type) in bad_kinds
                                              for d in decls):
                profile.validate(schema)  # raises EmptyProfile or SchemaViolation
            e = ids.get(name) if e is None else e
            if e is not None:
                raise DuplicateEntity(f"profile {name!r} names existing entity {e} "
                                      f"({types[e - base] if e >= base else etype}:{name})")
            if check:
                found = targets[first[j]:first[j + 1]]  # a view, completed in place
                for i in np.flatnonzero(found < 0).tolist():
                    found[i] = in_batch(decls[i].target_type, decls[i].target_name)
                dropped = int(np.count_nonzero(found < 0))
                if dropped:
                    log.info("profile %s: dropped %d declarations with unknown targets",
                             name, dropped)
                if dropped == len(decls):
                    raise EmptyProfile(f"profile {name!r} has no known targets")
        except (EmptyProfile, DuplicateEntity) as exc:
            log.info("profile %s skipped: %s", name, exc)
            continue
        owner[j] = ids[name] = base + len(types)
        types.append(etype)
    heads = np.repeat(np.asarray(owner, dtype=np.intp), counts)
    keep = (heads >= 0) & (targets >= 0)
    moved: list[tuple[int, int]] = []  # (cold user, item) interactions
    item_type = schema.item_type
    for user, items in (interactions or {}).items():
        e = ids.get(user)
        if e is not None and types[e - base] == schema.user_type:
            for item in items:
                i = warm.get((item_type, item))
                i = in_batch(item_type, item) if i is None else i
                if i >= 0:
                    moved.append((e, i))
    pairs = np.asarray(moved, dtype=np.intp).reshape(-1, 2)
    aug = train_graph.extended(
        types, list(ids), np.concatenate([heads[keep], pairs[:, 0]]),
        np.concatenate([relations[keep], np.full(len(pairs), train_graph.interaction_relation)]),
        np.concatenate([targets[keep], pairs[:, 1]]))
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
