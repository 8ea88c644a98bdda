"""Typed knowledge-graph store with implicit inverse edges.

Entities and relations are interned to dense integer ids; the entity
registry (names, types, key -> id) is the only per-entity Python state.
Triplets live in int arrays in insertion order, with one sorted array of
their keys for duplicate checks and ``has_triplets``. Every stored
triplet is navigable in both directions: the tail side sees the same
relation id with an inverse direction flag, so no separate inverse
relation is materialized.

A graph is an immutable value. ``KnowledgeGraph.build`` checks a whole
batch of entities and triplets with array operations and makes a graph
of them; ``extended`` does the same on top of an existing graph and
returns a new one whose new ids follow the old graph's, which is how
derived relations and cold entities are added. Nothing is ever written
into a graph, so one graph can be shared by every stage and thread that
reads it. ``entity_index`` is a read-only view of the key -> id map, for
callers that look up many keys.

The adjacency is the CSR form that ``csr()`` returns: entity ``e``'s
edges are positions ``indptr[e]:indptr[e + 1]`` of the parallel ``rel``,
``nbr`` and ``dir`` arrays, in canonical (relation, neighbor, direction)
order. ``neighbors``, ``degree``, ``user_items`` and ``users_items`` read
it. Like the interaction counts, ``entity_keys()`` and ``fingerprint()``,
it is computed at first use and kept.

Serialization uses a tab-separated triplet file (one triplet per line,
``head_type:head_name<TAB>relation<TAB>tail_type:tail_name``) plus a JSON
schema file. Entities that appear in no triplet are not serialized.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .artifacts import atomic_open, decode_text, read_bytes, write_json
from .errors import (DuplicateEntity, InvalidSpec, ParseError, SchemaViolation,
                     UnknownEntity, is_names)

log = logging.getLogger(__name__)

FORWARD = 0
INVERSE = 1


@dataclass(frozen=True)
class DerivationRule:
    """Join rule: derived(u, x) holds iff interaction(u, i) and via(i, x)."""

    interaction: str
    via: str


@dataclass(frozen=True)
class RelationSpec:
    name: str
    head_type: str
    tail_type: str
    interaction: bool = False
    cold_integration: bool = False
    derived_from: Optional[DerivationRule] = None


@dataclass(frozen=True)
class KGSchema:
    """Entity types, relation signatures and the single interaction relation.

    ``path_patterns`` are raw token sequences alternating entity types and
    relation names; a ``~`` prefix on a relation marks inverse traversal.

    The schema is compiled as it is checked, once; every module reads its
    tables: ``type_ids`` and ``relation_ids`` (name -> id, in id order),
    each relation's head and tail type ids and flags as read-only arrays,
    ``interaction_id``, and each pattern's (relation id, direction) steps.
    """

    entity_types: tuple[str, ...]
    relations: tuple[RelationSpec, ...]
    path_patterns: tuple[tuple[str, ...], ...] = ()
    type_ids: Mapping[str, int] = field(init=False, repr=False, compare=False)
    relation_ids: Mapping[str, int] = field(init=False, repr=False, compare=False)
    relation_head: np.ndarray = field(init=False, repr=False, compare=False)
    relation_tail: np.ndarray = field(init=False, repr=False, compare=False)
    derived_mask: np.ndarray = field(init=False, repr=False, compare=False)
    cold_mask: np.ndarray = field(init=False, repr=False, compare=False)
    interaction_id: int = field(init=False, repr=False, compare=False)
    pattern_steps: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False,
                                                                   compare=False)

    def __post_init__(self):
        type_ids = {t: i for i, t in enumerate(self.entity_types)}
        if len(type_ids) != len(self.entity_types):
            raise SchemaViolation("duplicate entity type names")
        relation_ids = {r.name: i for i, r in enumerate(self.relations)}
        if len(relation_ids) != len(self.relations):
            raise SchemaViolation("duplicate relation names")
        if "self_loop" in relation_ids:  # a stored path record names its self-loop steps so
            raise SchemaViolation("relation name 'self_loop' is reserved")
        interactions = [i for i, r in enumerate(self.relations) if r.interaction]
        if len(interactions) != 1:
            raise SchemaViolation(
                f"schema must declare exactly one interaction relation, got {len(interactions)}"
            )
        inter = self.relations[interactions[0]]
        for r in self.relations:
            if r.head_type not in type_ids or r.tail_type not in type_ids:
                raise SchemaViolation(f"relation {r.name} references unknown entity type")
            if r.derived_from is not None:
                rule = r.derived_from
                if rule.interaction != inter.name:
                    raise SchemaViolation(
                        f"derivation of {r.name} must join the interaction relation"
                    )
                if rule.via not in relation_ids:
                    raise SchemaViolation(f"derivation of {r.name} references unknown relation {rule.via}")
                via = self.relations[relation_ids[rule.via]]
                if r.head_type != inter.head_type or via.head_type != inter.tail_type or r.tail_type != via.tail_type:
                    raise SchemaViolation(f"derivation of {r.name} is not type-consistent")

        tables = dict(
            type_ids=MappingProxyType(type_ids), relation_ids=MappingProxyType(relation_ids),
            relation_head=np.asarray([type_ids[r.head_type] for r in self.relations], np.intp),
            relation_tail=np.asarray([type_ids[r.tail_type] for r in self.relations], np.intp),
            derived_mask=np.asarray([r.derived_from is not None for r in self.relations], bool),
            cold_mask=np.asarray([r.cold_integration for r in self.relations], bool),
            interaction_id=interactions[0])
        for name, value in tables.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "pattern_steps",
                           tuple(map(self._check_pattern, self.path_patterns)))

    def __reduce__(self):  # the tables are rebuilt, not pickled
        return type(self), (self.entity_types, self.relations, self.path_patterns)

    def _check_pattern(self, tokens: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
        """The (relation id, direction) steps of a pattern; one that does
        not walk the schema from the user type raises SchemaViolation."""
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise SchemaViolation(f"pattern {tokens} must alternate type, relation, type")
        if tokens[0] != self.user_type:
            raise SchemaViolation(f"pattern {tokens} must start at the user type")
        steps = []
        for i in range(0, len(tokens) - 2, 2):
            src, rel_tok, dst = tokens[i], tokens[i + 1], tokens[i + 2]
            if src not in self.type_ids or dst not in self.type_ids:
                raise SchemaViolation(f"pattern {tokens} uses unknown entity type")
            inverse = rel_tok.startswith("~")
            rel_id = self.relation_ids.get(rel_tok[1:] if inverse else rel_tok)
            if rel_id is None:
                raise SchemaViolation(f"pattern {tokens} uses unknown relation {rel_tok}")
            rel = self.relations[rel_id]
            want = (rel.tail_type, rel.head_type) if inverse else (rel.head_type, rel.tail_type)
            if (src, dst) != want:
                raise SchemaViolation(f"pattern {tokens} traverses {rel.name} against its schema")
            steps.append((rel_id, INVERSE if inverse else FORWARD))
        return tuple(steps)

    @property
    def interaction_relation(self) -> RelationSpec:
        return self.relations[self.interaction_id]

    @property
    def user_type(self) -> str:
        return self.interaction_relation.head_type

    @property
    def item_type(self) -> str:
        return self.interaction_relation.tail_type

    def relation(self, name: str) -> RelationSpec:
        if name not in self.relation_ids:
            raise SchemaViolation(f"unknown relation {name!r}")
        return self.relations[self.relation_ids[name]]

    def to_json(self) -> dict:
        rels = []
        for r in self.relations:
            d = {"name": r.name, "head": r.head_type, "tail": r.tail_type}
            if r.interaction:
                d["interaction"] = True
            if r.cold_integration:
                d["cold_integration"] = True
            if r.derived_from is not None:
                d["derived_from"] = {"interaction": r.derived_from.interaction, "via": r.derived_from.via}
            rels.append(d)
        return {
            "entity_types": list(self.entity_types),
            "relations": rels,
            "path_patterns": [list(p) for p in self.path_patterns],
        }

    @classmethod
    def from_json(cls, data, where: str = "schema") -> "KGSchema":
        """The schema of its JSON form, named ``where`` in errors: a name,
        type or pattern token that is not a string, a flag that is not a
        JSON boolean, or a key the form does not have, raises ParseError
        naming the field or the key."""
        def need(ok: bool, what: str, kind: str):
            if not ok:
                raise ParseError(f"{where}: {what} must be {kind}")

        def known(obj: dict, keys: tuple[str, ...], at: str = ""):
            for key in (k for k in obj if k not in keys):
                raise ParseError(f"{where}: {at}unknown key {key!r}")

        need(isinstance(data, dict), "the top level", "a JSON object")
        known(data, ("entity_types", "relations", "path_patterns"))
        need(is_names(data.get("entity_types")), "entity_types", "a list of strings")
        need(isinstance(data.get("relations"), list), "relations", "a list")
        patterns = data.get("path_patterns", [])
        need(isinstance(patterns, list), "path_patterns", "a list")
        for k, pattern in enumerate(patterns):
            need(is_names(pattern), f"path_patterns[{k}]", "a list of strings")
        rels = []
        for k, r in enumerate(data["relations"]):
            need(isinstance(r, dict) and isinstance(r.get("name"), str), f"relations[{k}]",
                 "an object with a string name")
            at, rule = f"relation {r['name']!r}:", r.get("derived_from")
            known(r, ("name", "head", "tail", "interaction", "cold_integration", "derived_from"),
                  f"{at} ")
            for key, kind, text in (("head", str, "a string"), ("tail", str, "a string"),
                                    ("interaction", bool, "a JSON boolean"),
                                    ("cold_integration", bool, "a JSON boolean")):
                need(isinstance(r.get(key, False), kind), f"{at} {key}", text)
            need(rule is None or isinstance(rule, dict), f"{at} derived_from", "an object")
            known(rule or {}, ("interaction", "via"), f"{at} derived_from: ")
            for key in ("interaction", "via") if rule is not None else ():
                need(isinstance(rule.get(key), str), f"{at} derived_from.{key}", "a string")
            rels.append(RelationSpec(r["name"], r["head"], r["tail"], r.get("interaction", False),
                                     r.get("cold_integration", False),
                                     rule and DerivationRule(rule["interaction"], rule["via"])))
        return cls(entity_types=tuple(data["entity_types"]), relations=tuple(rels),
                   path_patterns=tuple(map(tuple, patterns)))

    def save(self, path: str):
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "KGSchema":
        return cls.parse(path, read_bytes(path))

    @classmethod
    def parse(cls, path: str, data: bytes) -> "KGSchema":
        """The schema of a schema file's bytes; ``path`` names the file in
        errors, a failed schema check's too."""
        try:
            return cls.from_json(json.loads(decode_text(path, data)), path)
        except json.JSONDecodeError as exc:
            raise ParseError(f"schema {path} is not valid JSON: {exc}") from exc
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}: {exc}") from exc


class CSRAdjacency(NamedTuple):
    """Every entity's edges as (relation, neighbor, direction) rows; entity
    ``e`` owns rows ``indptr[e]:indptr[e + 1]``, canonically sorted."""

    indptr: np.ndarray
    rel: np.ndarray
    nbr: np.ndarray
    dir: np.ndarray


class KnowledgeGraph:
    """Immutable array-backed triplet store over a fixed schema.

    ``KnowledgeGraph(schema)`` is the empty graph; ``build`` makes one from
    entity and triplet arrays and ``extended`` returns a new graph with
    more of both. Neighbor lists are canonically ordered (relation id,
    neighbor id, direction) so traversal order never depends on insertion
    order.
    """

    def __init__(self, schema: KGSchema):
        self.schema = schema
        self._names: list[str] = []
        self._by_key: dict[tuple[str, str], int] = {}
        self._types = np.zeros(0, dtype=np.intp)  # entity -> type index
        self._spo = np.zeros((3, 0), dtype=np.intp)  # head/relation/tail rows, insertion order
        self._spo.flags.writeable = False
        self._keys = np.zeros(0, dtype=np.int64)  # sorted _encode keys of the stored triplets
        self._dup_warned = False
        self._csr: CSRAdjacency | None = None
        self._tail_interactions: np.ndarray | None = None
        self._fingerprint: str | None = None
        self._entity_keys: tuple[str, ...] | None = None

    @classmethod
    def build(cls, schema: KGSchema, types: Sequence[str], names: Sequence[str],
              heads, relations, tails) -> "KnowledgeGraph":
        """The graph of the entities (types[k], names[k]), with id k, and
        the triplets (heads, relations, tails) over them; checked as
        ``extended`` checks."""
        return cls(schema).extended(types, names, heads, relations, tails)

    def extended(self, types: Sequence[str], names: Sequence[str],
                 heads, relations, tails) -> "KnowledgeGraph":
        """A new graph: this graph's entities and triplets, then the
        entities (types[k], names[k]) with ids from ``entity_count`` on, in
        order, then the triplets (heads, relations, tails) over all of
        them, in order. This graph is left as it is.

        Everything is checked before the new graph is made: an unknown
        entity type, or a key already registered or repeated in the batch,
        raises; so do unregistered ids, unknown relation ids and schema
        violations, with the error of the first offending triplet. A
        triplet already stored, or repeated earlier in the batch, is
        dropped; a graph logs one duplicate warning at most, counting the
        warnings of the graphs it extends.
        """
        if len(types) != len(names):
            raise InvalidSpec("types and names must have equal lengths")
        h, r, t = (np.asarray(a, dtype=np.intp).reshape(-1) for a in (heads, relations, tails))
        if not len(h) == len(r) == len(t):
            raise InvalidSpec("heads, relations and tails must have equal lengths")
        type_index = self.schema.type_ids
        if not type_index.keys() >= set(types):
            unknown = next(etype for etype in types if etype not in type_index)
            raise SchemaViolation(f"unknown entity type {unknown!r}")
        n, m = len(self._names), len(self._names) + len(names)
        keys = list(zip(types, names))
        new = dict(zip(keys, range(n, m)))
        if len(new) < len(keys) or not self._by_key.keys().isdisjoint(new):
            etype, name = next(key for e, key in enumerate(keys, start=n)
                               if new[key] != e or key in self._by_key)
            raise DuplicateEntity(f"{etype}:{name} is registered twice")
        g = KnowledgeGraph(self.schema)
        g._names = self._names + list(names)
        g._by_key = {**self._by_key, **new}
        g._types = np.concatenate([self._types, np.fromiter(map(type_index.__getitem__, types),
                                                             np.intp, len(types))])
        bad = (h < 0) | (h >= m) | (t < 0) | (t >= m) | (r < 0) | (r >= len(self.schema.relations))
        ok = ~bad
        bad[ok] = ((g._types[h[ok]] != self.schema.relation_head[r[ok]])
                   | (g._types[t[ok]] != self.schema.relation_tail[r[ok]]))
        if bad.any():
            i = int(np.argmax(bad))
            g._check_triplet(int(h[i]), int(r[i]), int(t[i]))
        codes = self._encode(h, r, t)
        uniq, first = np.unique(codes, return_index=True)
        fresh = ~self.has_triplets(h[first], r[first], t[first])
        kept = np.sort(first[fresh])
        g._dup_warned = self._dup_warned
        if len(kept) < len(codes) and not g._dup_warned:
            dup = np.ones(len(codes), dtype=bool)
            dup[kept] = False
            i = int(np.argmax(dup))
            log.warning("duplicate triplet %s dropped (warning once per graph)",
                        (int(h[i]), int(r[i]), int(t[i])))
            g._dup_warned = True
        g._spo = np.concatenate([self._spo, np.stack([h[kept], r[kept], t[kept]])], axis=1)
        g._spo.flags.writeable = False
        g._keys = np.insert(self._keys, np.searchsorted(self._keys, uniq[fresh]), uniq[fresh])
        return g

    # -- registry ---------------------------------------------------------

    @property
    def entity_count(self) -> int:
        return len(self._names)

    @property
    def relation_count(self) -> int:
        return len(self.schema.relations)

    @property
    def triplet_count(self) -> int:
        return self._spo.shape[1]

    @property
    def interaction_relation(self) -> int:
        return self.schema.interaction_id

    def relation_id(self, name: str) -> int:
        self.schema.relation(name)  # an unknown name raises SchemaViolation
        return self.schema.relation_ids[name]

    def relation_name(self, relation: int) -> str:
        return self.schema.relations[relation].name

    def entity_id(self, etype: str, name: str) -> int:
        try:
            return self._by_key[(etype, name)]
        except KeyError:
            raise UnknownEntity(f"{etype}:{name} is not registered") from None

    def has_entity(self, etype: str, name: str) -> bool:
        return (etype, name) in self._by_key

    def entity_index(self) -> Mapping[tuple[str, str], int]:
        """Read-only (type, name) -> id map of the registered entities, for
        callers that look up many keys."""
        return MappingProxyType(self._by_key)

    def _check_entity(self, e: int):
        if not 0 <= e < len(self._names):
            raise UnknownEntity(f"entity id {e} is not registered")

    def entity_name(self, e: int) -> str:
        self._check_entity(e)
        return self._names[e]

    def entity_names(self, entities: Sequence[int]) -> list[str]:
        """``entity_name`` of each of ``entities``, read at once."""
        if entities and not 0 <= min(entities) <= max(entities) < len(self._names):
            raise UnknownEntity(f"entity ids {min(entities)}..{max(entities)} are not all "
                                "registered")
        return list(map(self._names.__getitem__, entities))

    def entity_type(self, e: int) -> str:
        self._check_entity(e)
        return self.schema.entity_types[self._types.item(e)]

    def entity_key(self, e: int) -> str:
        return f"{self.entity_type(e)}:{self.entity_name(e)}"

    def entity_keys(self) -> tuple[str, ...]:
        """The ``type:name`` key of every entity, by id; computed at first
        use and kept."""
        if self._entity_keys is None:
            types = self.schema.entity_types
            self._entity_keys = tuple(f"{types[t]}:{name}"
                                      for t, name in zip(self._types.tolist(), self._names))
        return self._entity_keys

    def entities_of_type(self, etype: str) -> list[int]:
        if etype not in self.schema.type_ids:
            raise SchemaViolation(f"unknown entity type {etype!r}")
        return np.flatnonzero(self._types == self.schema.type_ids[etype]).tolist()

    def users(self) -> list[int]:
        return self.entities_of_type(self.schema.user_type)

    def items(self) -> list[int]:
        return self.entities_of_type(self.schema.item_type)

    def is_user(self, e: int) -> bool:
        return self.entity_type(e) == self.schema.user_type

    def has_type(self, entities: np.ndarray, etype: str) -> np.ndarray:
        """Whether each entity id in an array is of type ``etype``; an
        unregistered id raises UnknownEntity."""
        bad = (entities < 0) | (entities >= len(self._names))
        if bad.any():
            self._check_entity(int(entities[bad][0]))
        return self._types[entities] == self.schema.type_ids[etype]

    # -- triplets ---------------------------------------------------------

    def _check_triplet(self, head: int, relation: int, tail: int):
        """Raise the error ``extended`` reports for an invalid triplet."""
        self._check_entity(head)
        self._check_entity(tail)
        if not 0 <= relation < len(self.schema.relations):
            raise SchemaViolation(f"unknown relation id {relation}")
        spec = self.schema.relations[relation]
        if self.entity_type(head) != spec.head_type or self.entity_type(tail) != spec.tail_type:
            raise SchemaViolation(
                f"({self.entity_key(head)}, {spec.name}, {self.entity_key(tail)}) "
                f"violates schema ({spec.head_type} -> {spec.tail_type})"
            )

    def _encode(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        # registered ids and relation ids only; unique while tails < 2**32
        return ((heads * len(self.schema.relations) + relations) << 32) | tails

    def triplet_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (heads, relations, tails) of the stored triplets, in
        insertion order."""
        return tuple(self._spo)

    def has_triplets(self, heads, relations, tails) -> np.ndarray:
        """Membership of each (head, relation, tail) as a bool array."""
        h, r, t = (np.asarray(a, dtype=np.intp).reshape(-1) for a in (heads, relations, tails))
        n = len(self._names)
        ok = (h >= 0) & (h < n) & (t >= 0) & (t < n) & (r >= 0) & (r < len(self.schema.relations))
        found = np.zeros(len(h), dtype=bool)
        if len(self._keys):  # a probe past the last key reads the last key
            keys = self._encode(h[ok], r[ok], t[ok])
            at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            found[ok] = self._keys[at] == keys
        return found

    def has_triplet(self, head: int, relation: int, tail: int) -> bool:
        return bool(self.has_triplets([head], [relation], [tail])[0])

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        """Stored triplets in insertion order."""
        return zip(*(row.tolist() for row in self._spo))

    def neighbors(self, e: int, relation: int | None = None) -> list[tuple[int, int, int]]:
        """Edges at ``e`` as (relation, neighbor, direction), canonically sorted."""
        self._check_entity(e)
        adj = self.csr()
        lo, hi = adj.indptr.item(e), adj.indptr.item(e + 1)
        if relation is not None:
            a, b = np.searchsorted(adj.rel[lo:hi], (relation, relation + 1))
            lo, hi = lo + int(a), lo + int(b)
        return list(zip(adj.rel[lo:hi].tolist(), adj.nbr[lo:hi].tolist(),
                        adj.dir[lo:hi].tolist()))

    def csr(self) -> CSRAdjacency:
        """The adjacency as CSR arrays, built at first use and kept."""
        if self._csr is None:
            n, m = len(self._names), self.triplet_count
            h, r, t = self._spo
            owner = np.concatenate([h, t])
            rel = np.concatenate([r, r])
            nbr = np.concatenate([t, h])
            direction = np.repeat(np.asarray([FORWARD, INVERSE], dtype=np.intp), m)
            order = np.lexsort((direction, nbr, rel, owner))
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
            self._csr = CSRAdjacency(indptr, rel[order], nbr[order], direction[order])
        return self._csr

    def interaction_counts(self) -> np.ndarray:
        """Read-only number of interaction triplets with each entity as tail,
        indexed by entity id (0 for every non-item); built at first use and
        kept."""
        if self._tail_interactions is None:
            _, r, t = self._spo
            counts = np.bincount(t[r == self.interaction_relation], minlength=len(self._names))
            counts.flags.writeable = False
            self._tail_interactions = counts
        return self._tail_interactions

    def interactions_by_user(self) -> dict[int, list[int]]:
        """Per-user interacted items in insertion (chronological) order;
        users in order of their first interaction."""
        h, r, t = self._spo
        sel = r == self.interaction_relation
        users, items = h[sel], t[sel]
        order = np.argsort(users, kind="stable")
        uniq, start = np.unique(users[order], return_index=True)
        uniq, items = uniq.tolist(), items[order].tolist()
        bounds = np.append(start, len(items)).tolist()
        # order[start] is each user's first interaction
        return {uniq[k]: items[bounds[k]:bounds[k + 1]]
                for k in np.argsort(order[start]).tolist()}

    def user_items(self, user: int) -> frozenset[int]:
        self._check_entity(user)
        adj = self.csr()
        lo, hi = adj.indptr.item(user), adj.indptr.item(user + 1)
        sel = (adj.rel[lo:hi] == self.interaction_relation) & (adj.dir[lo:hi] == FORWARD)
        return frozenset(adj.nbr[lo:hi][sel].tolist())

    def users_items(self, users: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``user_items`` of many users at once, as (row, item) arrays that
        pair each item with the row of its user in ``users``."""
        users = np.asarray(users, dtype=np.intp)
        if len(users) and not 0 <= users.min() <= users.max() < len(self._names):
            raise UnknownEntity(f"entity ids {users.min()}..{users.max()} are not all registered")
        adj = self.csr()
        lo = adj.indptr[users]
        sizes = adj.indptr[users + 1] - lo
        rows = np.repeat(np.arange(len(users)), sizes)
        at = np.arange(int(sizes.sum())) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        sel = (adj.rel[at] == self.interaction_relation) & (adj.dir[at] == FORWARD)
        return rows[sel], adj.nbr[at[sel]]

    # -- serialization ----------------------------------------------------

    def _triplet_lines(self, include_derived: bool = True) -> list[str]:
        """Stored triplets as triplet-file lines, in insertion order."""
        keys, names = self.entity_keys(), list(self.schema.relation_ids)
        derived = self.schema.derived_mask.tolist()
        return [f"{keys[h]}\t{names[r]}\t{keys[t]}" for h, r, t in self.triplets()
                if include_derived or not derived[r]]

    def write_triplets(self, path: str, include_derived: bool = False):
        """Write triplets in insertion order; derived edges are recomputable."""
        with atomic_open(path) as fh:
            fh.writelines(line + "\n" for line in self._triplet_lines(include_derived))

    def fingerprint(self) -> str:
        """sha256 of the schema and the sorted triplet lines, computed at
        first use and kept."""
        if self._fingerprint is None:
            lines = sorted(self._triplet_lines())
            blob = json.dumps(self.schema.to_json(), sort_keys=True) + "\n" + "\n".join(lines)
            self._fingerprint = hashlib.sha256(blob.encode()).hexdigest()
        return self._fingerprint


def parse_entity_token(token: str) -> tuple[str, str]:
    """Split ``type:name``; the name may itself contain colons."""
    etype, sep, name = token.partition(":")
    if not sep or not etype or not name:
        raise ParseError(f"malformed entity token {token!r}")
    return etype, name


def read_triplet_rows(path: str, text: str | None = None) -> list[tuple[int, list[str]]]:
    """(line number, tab-separated fields) of every triplet line, unchecked:
    of ``text`` when given, else of the file at ``path``.

    Blank lines and lines starting with ``#`` are skipped.
    """
    if text is None:
        with open(path) as fh:
            text = fh.read()
    lines = text.split("\n")
    return [(lineno, line.split("\t")) for lineno, line in enumerate(lines, start=1)
            if line and not line.startswith("#")]


def check_triplet_row(path: str, lineno: int, fields: list[str]) -> tuple[str, str, str, str, str]:
    """(head_type, head_name, relation, tail_type, tail_name) of one row."""
    if len(fields) != 3:
        raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
    try:
        ht, hn = parse_entity_token(fields[0])
        tt, tn = parse_entity_token(fields[2])
    except ParseError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return ht, hn, fields[1], tt, tn
