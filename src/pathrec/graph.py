"""Typed knowledge-graph store with implicit inverse edges.

Entities and relations are interned to dense integer ids. Every stored
triplet is navigable in both directions: the tail side sees the same
relation id with an inverse direction flag, so no separate inverse
relation is materialized. After ``freeze()`` a graph is immutable and can
be shared across threads; ``clone()`` returns a mutable copy with the same
ids, which is how cold entities are integrated without touching the
original.

For array-native walking, ``csr()`` returns the adjacency in compressed
sparse row form: entity ``e``'s edges are positions
``indptr[e]:indptr[e + 1]`` of the parallel ``rel``, ``nbr`` and ``dir``
arrays, in the same canonical (relation, neighbor, direction) order as
``neighbors(e)``. A frozen graph builds the arrays on first use and caches
them, so frozen clones that are never walked pay nothing; a mutable graph
rebuilds them on every call, so later mutation can never leave them stale.

Serialization uses a tab-separated triplet file (one triplet per line,
``head_type:head_name<TAB>relation<TAB>tail_type:tail_name``) plus a JSON
schema file. Entities that appear in no triplet are not serialized.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import NotAnItem, ParseError, SchemaViolation, UnknownEntity

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
    They are compiled against a concrete graph by the MDP layer.
    """

    entity_types: tuple[str, ...]
    relations: tuple[RelationSpec, ...]
    path_patterns: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if len(set(self.entity_types)) != len(self.entity_types):
            raise SchemaViolation("duplicate entity type names")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SchemaViolation("duplicate relation names")
        interactions = [r for r in self.relations if r.interaction]
        if len(interactions) != 1:
            raise SchemaViolation(
                f"schema must declare exactly one interaction relation, got {len(interactions)}"
            )
        types = set(self.entity_types)
        by_name = {r.name: r for r in self.relations}
        inter = interactions[0]
        for r in self.relations:
            if r.head_type not in types or r.tail_type not in types:
                raise SchemaViolation(f"relation {r.name} references unknown entity type")
            if r.derived_from is not None:
                rule = r.derived_from
                if rule.interaction != inter.name:
                    raise SchemaViolation(
                        f"derivation of {r.name} must join the interaction relation"
                    )
                via = by_name.get(rule.via)
                if via is None:
                    raise SchemaViolation(f"derivation of {r.name} references unknown relation {rule.via}")
                if r.head_type != inter.head_type or via.head_type != inter.tail_type or r.tail_type != via.tail_type:
                    raise SchemaViolation(f"derivation of {r.name} is not type-consistent")
        for pat in self.path_patterns:
            self._check_pattern(pat, by_name, types)

    def _check_pattern(self, tokens: tuple[str, ...], by_name, types):
        if len(tokens) < 3 or len(tokens) % 2 == 0:
            raise SchemaViolation(f"pattern {tokens} must alternate type, relation, type")
        if tokens[0] != self.user_type:
            raise SchemaViolation(f"pattern {tokens} must start at the user type")
        for i in range(0, len(tokens) - 2, 2):
            src, rel_tok, dst = tokens[i], tokens[i + 1], tokens[i + 2]
            if src not in types or dst not in types:
                raise SchemaViolation(f"pattern {tokens} uses unknown entity type")
            inverse = rel_tok.startswith("~")
            rel = by_name.get(rel_tok[1:] if inverse else rel_tok)
            if rel is None:
                raise SchemaViolation(f"pattern {tokens} uses unknown relation {rel_tok}")
            want = (rel.tail_type, rel.head_type) if inverse else (rel.head_type, rel.tail_type)
            if (src, dst) != want:
                raise SchemaViolation(f"pattern {tokens} traverses {rel.name} against its schema")

    @property
    def interaction_relation(self) -> RelationSpec:
        return next(r for r in self.relations if r.interaction)

    @property
    def user_type(self) -> str:
        return self.interaction_relation.head_type

    @property
    def item_type(self) -> str:
        return self.interaction_relation.tail_type

    def relation(self, name: str) -> RelationSpec:
        for r in self.relations:
            if r.name == name:
                return r
        raise SchemaViolation(f"unknown relation {name!r}")

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
    def from_json(cls, data: dict) -> "KGSchema":
        try:
            rels = tuple(
                RelationSpec(
                    name=r["name"],
                    head_type=r["head"],
                    tail_type=r["tail"],
                    interaction=bool(r.get("interaction", False)),
                    cold_integration=bool(r.get("cold_integration", False)),
                    derived_from=(
                        DerivationRule(r["derived_from"]["interaction"], r["derived_from"]["via"])
                        if r.get("derived_from")
                        else None
                    ),
                )
                for r in data["relations"]
            )
            return cls(
                entity_types=tuple(data["entity_types"]),
                relations=rels,
                path_patterns=tuple(tuple(p) for p in data.get("path_patterns", [])),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed schema: {exc}") from exc

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "KGSchema":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"schema {path} is not valid JSON: {exc}") from exc
        return cls.from_json(data)


class CSRAdjacency(NamedTuple):
    """Every entity's edges as (relation, neighbor, direction) rows; entity
    ``e`` owns rows ``indptr[e]:indptr[e + 1]``, canonically sorted."""

    indptr: np.ndarray
    rel: np.ndarray
    nbr: np.ndarray
    dir: np.ndarray


class KnowledgeGraph:
    """Adjacency-indexed triplet store over a fixed schema.

    Neighbor lists are canonically ordered (relation id, neighbor id,
    direction) so traversal order never depends on insertion order.
    Duplicate triplets are dropped with a warn-once log.
    """

    def __init__(self, schema: KGSchema):
        self.schema = schema
        self._type_index = {t: i for i, t in enumerate(schema.entity_types)}
        self._rel_index = {r.name: i for i, r in enumerate(schema.relations)}
        self._names: list[str] = []
        self._types: list[int] = []
        self._by_key: dict[tuple[str, str], int] = {}
        self._adj: list[list[tuple[int, int, int]]] = []
        self._triplets: set[tuple[int, int, int]] = set()
        self._triplet_log: list[tuple[int, int, int]] = []
        self._interaction_log: list[tuple[int, int]] = []
        self._tail_interactions: list[int] = []
        self._frozen = False
        self._dup_warned = False
        self._sorted = True
        self._csr: CSRAdjacency | None = None

    # -- registry ---------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def entity_count(self) -> int:
        return len(self._names)

    @property
    def relation_count(self) -> int:
        return len(self.schema.relations)

    @property
    def triplet_count(self) -> int:
        return len(self._triplets)

    @property
    def interaction_relation(self) -> int:
        return self._rel_index[self.schema.interaction_relation.name]

    def relation_id(self, name: str) -> int:
        try:
            return self._rel_index[name]
        except KeyError:
            raise SchemaViolation(f"unknown relation {name!r}") from None

    def relation_spec(self, relation: int) -> RelationSpec:
        return self.schema.relations[relation]

    def relation_name(self, relation: int) -> str:
        return self.schema.relations[relation].name

    def add_entity(self, etype: str, name: str) -> int:
        """Intern (type, name); returns the existing id on repeat calls."""
        key = (etype, name)
        eid = self._by_key.get(key)
        if eid is not None:
            return eid
        self._check_mutable()
        if etype not in self._type_index:
            raise SchemaViolation(f"unknown entity type {etype!r}")
        eid = len(self._names)
        self._names.append(name)
        self._types.append(self._type_index[etype])
        self._by_key[key] = eid
        self._adj.append([])
        self._tail_interactions.append(0)
        return eid

    def entity_id(self, etype: str, name: str) -> int:
        try:
            return self._by_key[(etype, name)]
        except KeyError:
            raise UnknownEntity(f"{etype}:{name} is not registered") from None

    def has_entity(self, etype: str, name: str) -> bool:
        return (etype, name) in self._by_key

    def _check_entity(self, e: int):
        if not 0 <= e < len(self._names):
            raise UnknownEntity(f"entity id {e} is not registered")

    def entity_name(self, e: int) -> str:
        self._check_entity(e)
        return self._names[e]

    def entity_type(self, e: int) -> str:
        self._check_entity(e)
        return self.schema.entity_types[self._types[e]]

    def entity_key(self, e: int) -> str:
        return f"{self.entity_type(e)}:{self.entity_name(e)}"

    def entities_of_type(self, etype: str) -> list[int]:
        if etype not in self._type_index:
            raise SchemaViolation(f"unknown entity type {etype!r}")
        ti = self._type_index[etype]
        return [e for e, t in enumerate(self._types) if t == ti]

    def users(self) -> list[int]:
        return self.entities_of_type(self.schema.user_type)

    def items(self) -> list[int]:
        return self.entities_of_type(self.schema.item_type)

    def is_item(self, e: int) -> bool:
        return self.entity_type(e) == self.schema.item_type

    def is_user(self, e: int) -> bool:
        return self.entity_type(e) == self.schema.user_type

    # -- triplets ---------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise SchemaViolation("graph is frozen")

    def add_triplet(self, head: int, relation: int, tail: int):
        """Insert one triplet; both endpoints must already be registered."""
        self._check_mutable()
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
        key = (head, relation, tail)
        if key in self._triplets:
            if not self._dup_warned:
                log.warning("duplicate triplet %s dropped (warning once per graph)", key)
                self._dup_warned = True
            return
        self._triplets.add(key)
        self._triplet_log.append(key)
        self._adj[head].append((relation, tail, FORWARD))
        self._adj[tail].append((relation, head, INVERSE))
        self._sorted = False
        if spec.interaction:
            self._interaction_log.append((head, tail))
            self._tail_interactions[tail] += 1

    def has_triplet(self, head: int, relation: int, tail: int) -> bool:
        return (head, relation, tail) in self._triplets

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        """Stored triplets in insertion order."""
        return iter(self._triplet_log)

    def neighbors(self, e: int, relation: int | None = None) -> list[tuple[int, int, int]]:
        """Edges at ``e`` as (relation, neighbor, direction), canonically sorted."""
        self._check_entity(e)
        edges = self._adj[e]
        if not self._sorted:
            edges = sorted(edges)
        if relation is not None:
            edges = [x for x in edges if x[0] == relation]
        return list(edges)

    def csr(self) -> CSRAdjacency:
        """The adjacency as CSR arrays; cached only once the graph is frozen."""
        if self._csr is not None:
            return self._csr
        n = len(self._names)
        h, r, t = np.asarray(self._triplet_log, dtype=np.intp).reshape(-1, 3).T
        m = len(h)
        owner = np.concatenate([h, t])
        rel = np.concatenate([r, r])
        nbr = np.concatenate([t, h])
        direction = np.repeat(np.asarray([FORWARD, INVERSE], dtype=np.intp), m)
        order = np.lexsort((direction, nbr, rel, owner))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
        adj = CSRAdjacency(indptr, rel[order], nbr[order], direction[order])
        if self._frozen:
            self._csr = adj
        return adj

    def degree(self, e: int) -> int:
        self._check_entity(e)
        return len(self._adj[e])

    def interaction_count(self, item: int) -> int:
        """Number of interaction triplets with ``item`` as tail."""
        self._check_entity(item)
        if not self.is_item(item):
            raise NotAnItem(f"{self.entity_key(item)} is not of type {self.schema.item_type}")
        return self._tail_interactions[item]

    def interactions_by_user(self) -> dict[int, list[int]]:
        """Per-user interacted items in insertion (chronological) order."""
        out: dict[int, list[int]] = {}
        for u, i in self._interaction_log:
            out.setdefault(u, []).append(i)
        return out

    def user_items(self, user: int) -> frozenset[int]:
        rel = self.interaction_relation
        return frozenset(n for r, n, d in self._adj[user] if r == rel and d == FORWARD)

    # -- lifecycle --------------------------------------------------------

    def freeze(self) -> "KnowledgeGraph":
        """Sort adjacency into canonical order and make the graph immutable."""
        if not self._frozen:
            for i, edges in enumerate(self._adj):
                edges.sort()
            self._sorted = True
            self._frozen = True
        return self

    def clone(self) -> "KnowledgeGraph":
        """Mutable copy sharing no state; entity and relation ids are preserved."""
        g = KnowledgeGraph(self.schema)
        g._names = list(self._names)
        g._types = list(self._types)
        g._by_key = dict(self._by_key)
        g._adj = [list(edges) for edges in self._adj]
        g._triplets = set(self._triplets)
        g._triplet_log = list(self._triplet_log)
        g._interaction_log = list(self._interaction_log)
        g._tail_interactions = list(self._tail_interactions)
        g._sorted = self._sorted
        return g

    # -- serialization ----------------------------------------------------

    def triplet_line(self, head: int, relation: int, tail: int) -> str:
        return f"{self.entity_key(head)}\t{self.relation_name(relation)}\t{self.entity_key(tail)}"

    def write_triplets(self, path: str, include_derived: bool = False):
        """Write triplets in insertion order; derived edges are recomputable."""
        with open(path, "w") as fh:
            for h, r, t in self._triplet_log:
                if not include_derived and self.schema.relations[r].derived_from is not None:
                    continue
                fh.write(self.triplet_line(h, r, t) + "\n")

    def fingerprint(self) -> str:
        import hashlib

        lines = sorted(self.triplet_line(*t) for t in self._triplet_log)
        blob = json.dumps(self.schema.to_json(), sort_keys=True) + "\n" + "\n".join(lines)
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_entity_token(token: str) -> tuple[str, str]:
    """Split ``type:name``; the name may itself contain colons."""
    etype, sep, name = token.partition(":")
    if not sep or not etype or not name:
        raise ParseError(f"malformed entity token {token!r}")
    return etype, name


def read_triplet_file(path: str) -> Iterator[tuple[str, str, str, str, str]]:
    """Yield (head_type, head_name, relation, tail_type, tail_name) per line.

    Blank lines and lines starting with ``#`` are skipped.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            ht, hn = parse_entity_token(parts[0])
            tt, tn = parse_entity_token(parts[2])
            yield ht, hn, parts[1], tt, tn
