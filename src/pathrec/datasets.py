"""Dataset loading, the evaluation split, and a planted-preference generator.

The split carves out a fraction of users and items as strict cold start:
no training triplet touches them. Warm users keep a per-user chronological
prefix split of their interactions; cold users are hidden entirely and
half go to validation, half to test. Cold users get capped relation
profiles derived from their hidden interactions; cold items keep their
native attribute profiles uncapped. Derived relations are recomputed from
training interactions only, so the training graph leaks nothing.

Graphs are built once from arrays: ``load_dataset`` parses a whole
triplet file into one ``KnowledgeGraph.build`` call, the split builds the
training graph the same way, and ``derive_relations`` returns the graph
extended by its derived edges. ``load_dataset`` and ``DatasetSplit.read``
parse once per content (``artifacts.parse_once``): each keeps the value of
the last bytes it parsed, so the stages of one process that read the same
split share one split and one graph.
"""

from __future__ import annotations

import functools
import logging
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .artifacts import (atomic_open, canonical_json, decode_text, parse_json, parse_once,
                        read_bytes, write_json)
from .coldstart import ColdDeclaration, ColdProfile, parse_profiles, write_profiles
from .embeddings import rng_for
from .errors import (EmptyUser, InvalidSpec, ParseError, SchemaViolation, check_field_types,
                     config_from_json, is_int, is_names)
from .graph import (KGSchema, KnowledgeGraph, check_triplet_row,
                    read_triplet_rows)

log = logging.getLogger(__name__)


def load_dataset(triplet_path: str, schema_path: str | KGSchema) -> KnowledgeGraph:
    """Build the graph of a triplet file, deriving declared relations.

    Derived relations must not appear in the file; they are joined from the
    interactions it contains. The file's bytes are read once and parsed as
    a text-mode ``open`` would read them. A triplet file is parsed once per
    content in a process: loading the bytes that the last parse read,
    under the same schema and from any path, returns that parse's graph
    itself; so the duplicate-triplet warning is logged when a file is
    parsed, not when its graph is returned again. A faulty file raises the
    error a line-by-line load would raise at its first faulty line, and is
    never kept.
    """
    schema = schema_path if isinstance(schema_path, KGSchema) else KGSchema.load(schema_path)
    return _triplet_graph(triplet_path, read_bytes(triplet_path), schema)


def _triplet_graph(path: str, data: bytes, schema: KGSchema) -> KnowledgeGraph:
    """``load_dataset`` of a triplet file's bytes."""
    return parse_once("triplets", (canonical_json(schema.to_json()).encode(), data),
                      lambda: _parse_triplets(path, decode_text(path, data), schema))


def _triplet_tokens(text: str) -> list[str] | None:
    """The fields of the triplet lines of ``text`` in order, three per line,
    or None when a line has another number of tab-separated fields. Lines
    are those ``read_triplet_rows`` keeps."""
    if text[:1] in "#\n" or "\n\n" in text or "\n#" in text:
        text = "\n".join(line for line in text.split("\n") if line and line[0] != "#")
    text = text.removesuffix("\n")
    if not text:
        return []
    # in UTF-8 a tab or newline byte is always that character
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = codes[(codes == 9) | (codes == 10)]  # tabs and newlines, in order
    n_lines = text.count("\n") + 1
    if len(seps) != 3 * n_lines - 1 or not (seps[2::3] == 10).all():
        return None
    return text.replace("\n", "\t").split("\t")


def _parse_triplets(path: str, text: str, schema: KGSchema) -> KnowledgeGraph:
    """The graph of a triplet file's text; ``path`` names the file in
    errors. The text is split into tokens at once; only a text that fails
    its checks is scanned row by row, to find the first faulty line."""
    types, rel_ids, derived = schema.type_ids, schema.relation_ids, schema.derived_mask

    def stored(relation: str) -> bool:  # a triplet file holds no derived relation
        return relation in rel_ids and not derived[rel_ids[relation]]

    def entity_key(token: str) -> tuple[str, str] | None:
        etype, sep, name = token.partition(":")
        return (etype, name) if sep and etype and name and etype in types else None

    def entity_keys(tokens: list[str]) -> dict[str, tuple[str, str] | None]:
        # each distinct head and tail token in order of first appearance,
        # head before tail
        ends = tokens[:]
        del ends[1::3]
        return {tok: entity_key(tok) for tok in dict.fromkeys(ends)}

    tokens = _triplet_tokens(text)
    keys = entity_keys(tokens) if tokens is not None else {}
    fault = None
    if tokens is None or None in keys.values() or not all(map(stored, set(tokens[1::3]))):
        rows = read_triplet_rows(path, text)
        k = next(k for k, (_, f) in enumerate(rows)
                 if len(f) != 3 or not stored(f[1])
                 or entity_key(f[0]) is None or entity_key(f[2]) is None)
        fault = rows[k]
        tokens = list(chain.from_iterable(f for _, f in rows[:k]))
        keys = entity_keys(tokens)
    n = len(tokens) // 3
    ids = dict(zip(keys, range(len(keys))))  # distinct tokens are distinct keys

    def column(i: int, index: Mapping[str, int]) -> np.ndarray:
        return np.fromiter(map(index.__getitem__, tokens[i::3]), np.intp, n)

    # schema violations before the first faulty line raise here, as they
    # would have line by line
    graph = KnowledgeGraph.build(schema, [t for t, _ in keys.values()],
                                 [name for _, name in keys.values()],
                                 column(0, ids), column(1, rel_ids), column(2, ids))
    if fault is not None:
        lineno, f = fault
        ht, hn, rel, tt, tn = check_triplet_row(path, lineno, f)
        if rel in rel_ids and derived[rel_ids[rel]]:
            raise ParseError(f"{path}: derived relation {rel!r} may not appear in a triplet file")
        for etype in (ht, tt):
            if etype not in types:
                raise SchemaViolation(f"unknown entity type {etype!r}")
        raise SchemaViolation(f"unknown relation {rel!r}")
    return derive_relations(graph)


def _forward_join(graph: KnowledgeGraph, relation: int,
                  heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every stored (heads[j], relation, x) triplet as parallel arrays
    (j, x), ordered by j, then by x within each j."""
    h, r, t = graph.triplet_arrays()
    sel = r == relation
    rel_heads, rel_tails = h[sel], t[sel]
    rel_tails = rel_tails[np.lexsort((rel_tails, rel_heads))]
    # each entity's run in the head-sorted relation: its offset and length
    count = np.bincount(rel_heads, minlength=graph.entity_count)
    n = count[heads]
    lo = (np.cumsum(count) - count)[heads]
    at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
    return np.repeat(np.arange(len(heads)), n), rel_tails[at]


def derive_relations(graph: KnowledgeGraph) -> KnowledgeGraph:
    """The graph extended by its derived relations, each joined from the
    interactions and the relation's via relation. Idempotent; the same pair
    may be joined through many items.

    Derived triplets follow the graph's, relation by relation in schema
    order, each in the order of a user-by-user walk: users by id, each
    user's items in interaction order, each item's via targets by id,
    keeping the first occurrence of every new pair.
    """
    heads, rels, tails = graph.triplet_arrays()
    inter = rels == graph.interaction_relation
    order = np.argsort(heads[inter], kind="stable")
    users, items = heads[inter][order], tails[inter][order]
    derived = [np.zeros((3, 0), dtype=np.intp)]
    for rel_id in np.flatnonzero(graph.schema.derived_mask).tolist():
        via = graph.relation_id(graph.schema.relations[rel_id].derived_from.via)
        at, x = _forward_join(graph, via, items)
        u = users[at]
        _, first = np.unique(u * graph.entity_count + x, return_index=True)
        first.sort()
        new = first[~graph.has_triplets(u[first], np.full(len(first), rel_id), x[first])]
        derived.append(np.stack([u[new], np.full(len(new), rel_id), x[new]]))
    return graph.extended((), (), *np.concatenate(derived, axis=1))


@dataclass(frozen=True)
class SplitConfig:
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1
    cold_frac: float = 0.2
    cap_low: int = 1
    cap_high: int = 10

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        fr = [Fraction(str(f)) for f in (self.train_frac, self.val_frac, self.test_frac)]
        if any(f < 0 for f in fr) or sum(fr) != 1:
            raise InvalidSpec("train/val/test fractions must be >= 0 and sum to 1")
        if not 0 < Fraction(str(self.cold_frac)) < 1:
            raise InvalidSpec("cold_frac must be in (0, 1)")
        if self.cap_low < 1 or self.cap_high < self.cap_low:
            raise InvalidSpec("cap range must satisfy 1 <= low <= high")


@functools.lru_cache(maxsize=32)
def _ratio(value: float) -> tuple[int, int]:
    """The fraction a config float is written as, as (numerator,
    denominator): 0.1 is 1/10. Cached, as ``prefix_shares`` asks for the
    same two values once per user."""
    return Fraction(str(value)).as_integer_ratio()


def prefix_shares(n: int, config: SplitConfig) -> tuple[int, int, int]:
    """Chronological share sizes: ceil for train, then ceil for val on what
    remains, remainder to test. Exact rational arithmetic, no float drift."""
    (t_num, t_den), (v_num, v_den) = _ratio(config.train_frac), _ratio(config.val_frac)
    tr = min(n, -(-t_num * n // t_den))
    va = min(n - tr, -(-v_num * n // v_den))
    return tr, va, n - tr - va


@dataclass(frozen=True)
class RelationTargets:
    """Ranked candidate targets of one profile relation: (type, name, source
    entity id, frequency), sorted by descending frequency then entity id."""

    relation: str
    target_type: str
    targets: tuple[tuple[str, int, int], ...]  # (name, source_id, freq)


def cap_cold_relations(name: str, entity_type: str,
                       relation_targets: list[RelationTargets],
                       rng: np.random.Generator | None,
                       cap_low: int = 1, cap_high: int = 10,
                       fixed_k: int | None = None) -> ColdProfile:
    """Cap each relation's targets to its k most frequent (ties by entity id).

    k is drawn uniformly from {cap_low..cap_high} per relation, or pinned
    with ``fixed_k``. Relations with no targets are omitted.
    """
    decls = []
    for rt in relation_targets:
        if not rt.targets:
            continue
        k = fixed_k if fixed_k is not None else int(rng.integers(cap_low, cap_high + 1))
        for tname, _, _ in rt.targets[:k]:
            decls.append(ColdDeclaration(rt.relation, rt.target_type, tname))
    return ColdProfile(name=name, entity_type=entity_type, declarations=tuple(decls))


def _ranked_targets(value) -> bool:
    """Whether a manifest value is a JSON list of a cold user's ranked
    targets: objects of a string ``relation`` and ``target_type`` whose
    ``targets`` are [name, source id, frequency] lists."""
    return isinstance(value, list) and all(
        isinstance(rt, dict) and isinstance(rt.get("relation"), str)
        and isinstance(rt.get("target_type"), str) and isinstance(rt.get("targets"), list)
        and all(isinstance(t, list) and len(t) == 3 and isinstance(t[0], str)
                and is_int(t[1]) and is_int(t[2]) for t in rt["targets"])
        for rt in value)


# the files a split is written to and read from
SPLIT_FILES = ("schema.json", "train.tsv", "profiles.jsonl", "manifest.json")
# the cohorts a run scores; a user is in at most one of them
COHORTS = ("warm_test", "cold_val", "cold_test")


@dataclass(frozen=True)
class DatasetSplit:
    """A split is never changed once made: the stages of one process that
    read the same split files share one ``DatasetSplit``."""

    schema: KGSchema
    config: SplitConfig
    train_graph: KnowledgeGraph
    warm_val: dict[str, list[str]]
    warm_test: dict[str, list[str]]
    cold_val: dict[str, list[str]]
    cold_test: dict[str, list[str]]
    cold_items: list[str]
    user_profiles: list[ColdProfile]
    item_profiles: list[ColdProfile]
    cold_user_targets: dict[str, list[RelationTargets]]

    @property
    def profiles(self) -> list[ColdProfile]:
        return self.user_profiles + self.item_profiles

    def manifest(self) -> dict:
        return {
            "config": asdict(self.config),
            "warm_val": self.warm_val,
            "warm_test": self.warm_test,
            "cold_val": self.cold_val,
            "cold_test": self.cold_test,
            "cold_items": self.cold_items,
            "cold_user_targets": {
                u: [{"relation": rt.relation, "target_type": rt.target_type,
                     "targets": [[n, i, f] for n, i, f in rt.targets]}
                    for rt in rts]
                for u, rts in self.cold_user_targets.items()
            },
        }

    def write(self, out_dir: str, config_hash: str = "", seed: int = 0):
        self.schema.save(os.path.join(out_dir, "schema.json"))
        self.train_graph.write_triplets(os.path.join(out_dir, "train.tsv"))
        write_profiles(self.profiles, os.path.join(out_dir, "profiles.jsonl"))
        write_json(os.path.join(out_dir, "manifest.json"),
                   {**self.manifest(), "train_fingerprint": self.train_graph.fingerprint(),
                    "config_hash": config_hash, "seed": seed})

    @classmethod
    def read(cls, out_dir: str, manifest: bytes | None = None) -> "DatasetSplit":
        """The split written to ``out_dir``; ``manifest`` is the bytes of its
        manifest.json when the caller has read them already.

        A split is parsed once per content in a process: reading the bytes
        of its ``SPLIT_FILES`` that the last parse read, from any
        directory, returns that parse's split itself, and its train graph
        is ``load_dataset``'s. A manifest that is no JSON object, or that
        lacks a field or holds one of the wrong JSON type, or that names
        a user in two of the ``COHORTS``, raises ParseError; a faulty split
        is never kept. Checks against a run (stamps, train fingerprint)
        are the caller's, on every read.
        """
        data = {name: manifest if name == "manifest.json" and manifest is not None
                else read_bytes(os.path.join(out_dir, name)) for name in SPLIT_FILES}
        return parse_once("split", tuple(data.values()), lambda: _parse_split(out_dir, data))


def _parse_split(out_dir: str, data: dict[str, bytes]) -> DatasetSplit:
    """The split of the bytes of its files, keyed by file name; ``out_dir``
    names the files in errors."""
    path = functools.partial(os.path.join, out_dir)
    schema = KGSchema.parse(path("schema.json"), data["schema.json"])
    train_graph = _triplet_graph(path("train.tsv"), data["train.tsv"], schema)
    where = path("manifest.json")
    m = parse_json(where, data["manifest.json"])
    if not isinstance(m, dict):
        raise ParseError(f"{where} is not a JSON object")
    for key in ("config", "warm_val", "warm_test", "cold_val", "cold_test", "cold_items",
                "cold_user_targets"):
        if key not in m:
            raise ParseError(f"{where}: no {key}")
    for key in ("warm_val", "warm_test", "cold_val", "cold_test"):
        if not (isinstance(m[key], dict) and all(map(is_names, m[key].values()))):
            raise ParseError(f"{where}: {key} is not an object of name -> list of names")
    scored: dict[str, str] = {}
    for cohort in COHORTS:
        for user in m[cohort]:
            if scored.setdefault(user, cohort) != cohort:
                raise ParseError(f"{where}: user {user!r} is scored in both "
                                 f"{scored[user]} and {cohort}")
    if not is_names(m["cold_items"]):
        raise ParseError(f"{where}: cold_items is not a list of names")
    if not (isinstance(m["cold_user_targets"], dict)
            and all(map(_ranked_targets, m["cold_user_targets"].values()))):
        raise ParseError(f"{where}: cold_user_targets is not an object of name -> list of "
                         "{relation, target_type, targets: [[name, source id, frequency]]}")
    profiles = parse_profiles(path("profiles.jsonl"), data["profiles.jsonl"])
    user_type = schema.user_type
    targets = {
        u: [RelationTargets(rt["relation"], rt["target_type"],
                            tuple((n, i, f) for n, i, f in rt["targets"]))
            for rt in rts]
        for u, rts in m["cold_user_targets"].items()
    }
    return DatasetSplit(
        schema=schema, config=config_from_json(SplitConfig, m["config"], f"{where}: config"),
        train_graph=train_graph,
        warm_val=m["warm_val"], warm_test=m["warm_test"],
        cold_val=m["cold_val"], cold_test=m["cold_test"],
        cold_items=m["cold_items"],
        user_profiles=[p for p in profiles if p.entity_type == user_type],
        item_profiles=[p for p in profiles if p.entity_type != user_type],
        cold_user_targets=targets,
    )


def _cold_selection(ids: list[int], frac: Fraction, rng: np.random.Generator) -> list[int]:
    n_cold = int(frac * len(ids))
    order = rng.permutation(len(ids))
    return [ids[i] for i in order[:n_cold]]


def _user_relation_targets(graph: KnowledgeGraph, users: list[int],
                           hidden: list[list[int]]) -> list[list[RelationTargets]]:
    """Candidate profile targets of each cold user from their hidden history.

    A derived relation's target x counts the hidden items i with a
    (i, via, x) triplet; a stored one counts the user's own triplets.
    Targets rank by count, then id. One grouped join per relation serves
    every user.
    """
    heads = np.asarray(users, dtype=np.intp)
    owner = np.repeat(np.arange(len(users)), [len(h) for h in hidden])
    items = np.asarray([i for h in hidden for i in h], dtype=np.intp)
    out: list[list[RelationTargets]] = [[] for _ in users]
    n = graph.entity_count
    for rel_id, spec in enumerate(graph.schema.relations):
        if not spec.cold_integration or spec.head_type != graph.schema.user_type:
            continue
        if spec.derived_from is not None:
            at, x = _forward_join(graph, graph.relation_id(spec.derived_from.via), items)
            at = owner[at]
        else:
            at, x = _forward_join(graph, rel_id, heads)
        pairs, freq = np.unique(at * n + x, return_counts=True)
        at, x = pairs // n, pairs % n
        ranked = np.lexsort((x, -freq, at))
        bounds = np.searchsorted(at[ranked], np.arange(len(users) + 1)).tolist()
        x, freq = x[ranked].tolist(), freq[ranked].tolist()
        for j in range(len(users)):
            row = range(bounds[j], bounds[j + 1])
            out[j].append(RelationTargets(
                relation=spec.name, target_type=spec.tail_type,
                targets=tuple((graph.entity_name(x[k]), x[k], freq[k]) for k in row)))
    return out


def _item_profiles(graph: KnowledgeGraph, items: list[int]) -> list[ColdProfile]:
    """Native attribute declarations of each cold item, uncapped: relation
    by relation in schema order, targets by id."""
    heads = np.asarray(items, dtype=np.intp)
    decls: list[list[ColdDeclaration]] = [[] for _ in items]
    for rel_id, spec in enumerate(graph.schema.relations):
        if not spec.cold_integration or spec.head_type != graph.schema.item_type:
            continue
        at, x = _forward_join(graph, rel_id, heads)
        for j, target in zip(at.tolist(), x.tolist()):
            decls[j].append(ColdDeclaration(spec.name, spec.tail_type,
                                            graph.entity_name(target)))
    return [ColdProfile(name=graph.entity_name(i), entity_type=graph.schema.item_type,
                        declarations=tuple(d)) for i, d in zip(items, decls)]


def _train_graph(graph: KnowledgeGraph, cold: list[int],
                 train_pairs: set[tuple[int, int]]) -> KnowledgeGraph:
    """The stored (non-derived) triplets that touch no cold entity, with
    interactions limited to ``train_pairs``, then derivations recomputed.

    Entities get new ids in order of first appearance along the triplets,
    head before tail, and triplets keep their order.
    """
    n = graph.entity_count
    heads, rels, tails = graph.triplet_arrays()
    derived = graph.schema.derived_mask
    is_cold = np.zeros(n, dtype=bool)
    is_cold[cold] = True
    pairs = np.asarray(sorted(u * n + i for u, i in train_pairs), dtype=np.intp)
    keep = ~derived[rels] & ~is_cold[heads] & ~is_cold[tails]
    keep &= ((rels != graph.interaction_relation)
             | np.isin(heads * n + tails, pairs))
    heads, rels, tails = heads[keep], rels[keep], tails[keep]
    ends = np.stack([heads, tails], axis=1).reshape(-1)
    seen, first = np.unique(ends, return_index=True)
    new_id = np.full(n, -1, dtype=np.intp)
    kept = seen[np.argsort(first)].tolist()
    new_id[kept] = range(len(kept))
    return derive_relations(KnowledgeGraph.build(
        graph.schema, [graph.entity_type(e) for e in kept], [graph.entity_name(e) for e in kept],
        new_id[heads], rels, new_id[tails]))


def split_dataset(graph: KnowledgeGraph, config: SplitConfig, seed: int = 0) -> DatasetSplit:
    """Carve cold cohorts and chronological shares out of a loaded graph.

    Interactions partition exactly into train / val / test: warm users
    follow the prefix rule with any train-positioned interaction on a cold
    item reassigned to that user's test list; cold users are hidden
    entirely. Deterministic given ``seed``; a rerun is byte-identical.
    """
    by_user = graph.interactions_by_user()
    users = graph.users()
    for u in users:
        if not by_user.get(u):
            raise EmptyUser(f"user {graph.entity_key(u)} has no interactions")
    items = graph.items()

    rng = rng_for(seed, "split")
    cold_frac = Fraction(str(config.cold_frac))
    cold_users = _cold_selection(users, cold_frac, rng)
    cold_items = _cold_selection(items, cold_frac, rng)
    cold_user_set, cold_item_set = set(cold_users), set(cold_items)
    half = len(cold_users) // 2
    cold_val_users, cold_test_users = cold_users[:half], cold_users[half:]

    warm_val: dict[str, list[str]] = {}
    warm_test: dict[str, list[str]] = {}
    train_pairs: set[tuple[int, int]] = set()
    for u in users:
        if u in cold_user_set:
            continue
        seq = by_user[u]
        n_tr, n_va, _ = prefix_shares(len(seq), config)
        val_list, test_list = [], []
        for idx, i in enumerate(seq):
            if idx < n_tr:
                if i in cold_item_set:
                    test_list.append(i)  # cannot train on a cold item
                else:
                    train_pairs.add((u, i))
            elif idx < n_tr + n_va:
                val_list.append(i)
            else:
                test_list.append(i)
        uname = graph.entity_name(u)
        if val_list:
            warm_val[uname] = [graph.entity_name(i) for i in val_list]
        if test_list:
            warm_test[uname] = [graph.entity_name(i) for i in test_list]

    cold_val = {graph.entity_name(u): [graph.entity_name(i) for i in by_user[u]]
                for u in sorted(cold_val_users)}
    cold_test = {graph.entity_name(u): [graph.entity_name(i) for i in by_user[u]]
                 for u in sorted(cold_test_users)}

    train_graph = _train_graph(graph, cold_users + cold_items, train_pairs)

    cold_user_targets: dict[str, list[RelationTargets]] = {}
    user_profiles = []
    by_name = sorted(cold_users, key=graph.entity_name)
    for u, targets in zip(by_name, _user_relation_targets(graph, by_name,
                                                          [by_user[u] for u in by_name])):
        uname = graph.entity_name(u)
        cold_user_targets[uname] = targets
        user_profiles.append(cap_cold_relations(
            uname, graph.schema.user_type, targets, rng,
            config.cap_low, config.cap_high))
    item_profiles = _item_profiles(graph, sorted(cold_items, key=graph.entity_name))

    return DatasetSplit(
        schema=graph.schema, config=config, train_graph=train_graph,
        warm_val=warm_val, warm_test=warm_test,
        cold_val=cold_val, cold_test=cold_test,
        cold_items=sorted(graph.entity_name(i) for i in cold_items),
        user_profiles=user_profiles, item_profiles=item_profiles,
        cold_user_targets=cold_user_targets,
    )


# -- synthetic generator -------------------------------------------------------

SYNTHETIC_TYPES = ("user", "item", "brand", "category")


def synthetic_schema() -> KGSchema:
    return KGSchema.from_json({
        "entity_types": list(SYNTHETIC_TYPES),
        "relations": [
            {"name": "purchase", "head": "user", "tail": "item", "interaction": True},
            {"name": "produced_by", "head": "item", "tail": "brand", "cold_integration": True},
            {"name": "belong_to", "head": "item", "tail": "category", "cold_integration": True},
            {"name": "like", "head": "user", "tail": "brand", "cold_integration": True,
             "derived_from": {"interaction": "purchase", "via": "produced_by"}},
            {"name": "interested_in", "head": "user", "tail": "category", "cold_integration": True,
             "derived_from": {"interaction": "purchase", "via": "belong_to"}},
        ],
        "path_patterns": [
            ["user", "interested_in", "category", "~belong_to", "item"],
            ["user", "like", "brand", "~produced_by", "item"],
            ["user", "purchase", "item", "belong_to", "category", "~belong_to", "item"],
            ["user", "purchase", "item", "produced_by", "brand", "~produced_by", "item"],
            ["user", "purchase", "item", "~purchase", "user", "purchase", "item"],
        ],
    })


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-preference world: each user prefers one (brand, category)
    cell and purchases from it with probability ``p_pref``, else uniformly."""

    users: int = 500
    items: int = 300
    brands: int = 10
    categories: int = 8
    interactions_per_user: int = 10
    p_pref: float = 0.9
    seed: int = 0

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if min(self.users, self.items, self.brands, self.categories) < 1:
            raise InvalidSpec("entity counts must be >= 1")
        if not 1 <= self.interactions_per_user <= self.items:
            raise InvalidSpec("interactions_per_user must be in [1, items]")
        if not 0.0 <= self.p_pref <= 1.0:
            raise InvalidSpec("p_pref must be in [0, 1]")
        if self.seed < 0:
            raise InvalidSpec(f"the catalog seed must be >= 0, got {self.seed}")


# raw words a _RawDraws takes from its bit generator at a time
_RAW_CHUNK = 1024


class _RawDraws:
    """``Generator.random()`` and ``Generator.integers(0, n)`` of a PCG64
    generator, replayed from its raw 64-bit words taken in chunks.

    ``random()`` is a word's top 53 bits times 2**-53. ``integers(n)`` is
    numpy's bounded 32-bit draw (Lemire's method) for 1 <= n <= 2**32: a
    32-bit value is the low half of a new word, or the high half the last
    word left, as numpy keeps it in ``has_uint32``/``uinteger``; a value x
    is rejected while (x*n) mod 2**32 < (2**32 - n) % n, and the draw is
    (x*n) >> 32. ``n == 1`` reads nothing. The replay starts from the
    generator's state when it is made; the generator is left past the
    draws, at the end of the last chunk, so it must not be drawn from
    after the replay's first draw.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = chain.from_iterable(
            iter(lambda: bitgen.random_raw(_RAW_CHUNK).tolist(), None))

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        while True:
            if self._half is None:
                word = next(self._words)
                x, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                x, self._half = self._half, None
            m = x * n
            if m & 0xFFFFFFFF >= (0x100000000 - n) % n:
                return m >> 32


def generate_synthetic(spec: SyntheticSpec, out_dir: str) -> tuple[str, str]:
    """Write triplets.tsv, schema.json and a prefs.json ground-truth sidecar.

    Purchases are sampled without replacement per user (mixture draws are
    retried, capped at 50 per requested interaction), so each (user, item)
    pair appears at most once and file order is the chronological order.
    User preferences are drawn over the non-empty (brand, category) cells
    realized by the item assignment.

    The purchase loop's draws are ``Generator.random()`` and
    ``Generator.integers(0, n)``, replayed by ``_RawDraws`` from raw PCG64
    words taken in chunks: a scalar call costs about a microsecond of call
    overhead, and the default catalog makes 64 draw pairs per user. The
    values are those of the scalar calls; tests pin the replay against the
    real calls and the files against the scalar loop.
    """
    rng = rng_for(spec.seed, "synth")
    u_w = max(4, len(str(spec.users)))
    i_w = max(4, len(str(spec.items)))
    users = [f"u{i:0{u_w}d}" for i in range(spec.users)]
    items = [f"i{i:0{i_w}d}" for i in range(spec.items)]
    brands = [f"b{i:02d}" for i in range(spec.brands)]
    cats = [f"c{i:02d}" for i in range(spec.categories)]

    item_brand = rng.integers(0, spec.brands, size=spec.items)
    item_cat = rng.integers(0, spec.categories, size=spec.items)
    cells: dict[tuple[int, int], list[int]] = {}
    for i in range(spec.items):
        cells.setdefault((int(item_brand[i]), int(item_cat[i])), []).append(i)
    cell_keys = sorted(cells)
    pref_idx = rng.integers(0, len(cell_keys), size=spec.users)
    prefs = {users[u]: [brands[cell_keys[pref_idx[u]][0]], cats[cell_keys[pref_idx[u]][1]]]
             for u in range(spec.users)}

    triplet_path = os.path.join(out_dir, "triplets.tsv")
    schema_path = os.path.join(out_dir, "schema.json")
    draws = _RawDraws(rng)
    with atomic_open(triplet_path) as fh:
        for i in range(spec.items):
            fh.write(f"item:{items[i]}\tproduced_by\tbrand:{brands[item_brand[i]]}\n")
            fh.write(f"item:{items[i]}\tbelong_to\tcategory:{cats[item_cat[i]]}\n")
        for u in range(spec.users):
            cell = cells[cell_keys[pref_idx[u]]]
            chosen: list[int] = []
            held = set()
            budget = 50 * spec.interactions_per_user
            while len(chosen) < spec.interactions_per_user and budget > 0:
                budget -= 1
                if draws.random() < spec.p_pref:
                    i = cell[draws.integers(len(cell))]
                else:
                    i = draws.integers(spec.items)
                if i not in held:
                    held.add(i)
                    chosen.append(i)
            for i in chosen:
                fh.write(f"user:{users[u]}\tpurchase\titem:{items[i]}\n")
    synthetic_schema().save(schema_path)
    write_json(os.path.join(out_dir, "prefs.json"), {"spec": asdict(spec), "prefs": prefs})
    return triplet_path, schema_path
