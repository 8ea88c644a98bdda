"""Reference implementations the optimized code is tested against.

The scalar path-walking MDP: one state, one action at a time.

``pathrec.mdp.Frontier`` walks many paths at once on arrays; these
per-state functions define the same semantics one state at a time and are
the oracles the batched kernels are tested against; ``step`` raises
``InvalidAction`` for a move the state does not offer. ``valid_actions`` is
a row of ``Frontier.slates``, ``step`` a row of ``Frontier.advance`` and
``encode_state`` the whole zero-padded decision state whose last blocks
(the last hop's relation and entity, or the user at hop 0) are a row of
``encode_pair``, and whose last block is a row of ``Frontier.encode``.
``encode_pair`` is the encoder of the two-block forward, which multiplied
a hop's (relation, entity) pair; ``pair_blocks`` reads a walked
frontier's state as those blocks, hop by hop. ``frontier_of`` stacks
scalar states into the frontier the array calls take, ``beam_of`` stacks
scored paths into the ``Beam`` that ranking takes, and ``beam_paths``
reads every row of a beam back as a ``ScoredPath``.

``reference_compile_pattern`` compiles a schema pattern against a
graph's relation ids, as the MDP layer did before the schema compiled its
own patterns; ``reference_schema_tables`` works out every name -> id
table of a schema by linear scans of its type and relation lists, as
each reader once did for itself.

The scalar evaluation path: ``train_popularity``, ``popb_at_k``,
``cold_item_proportion`` and the popularity baseline (``pop_baseline``,
``PopBaseline``) score one user's list of item names at a time, as
``metrics`` did before its array kernels. Each float sum runs left to
right (a loop or ``reduce``, never the built-in ``sum``, which Python
3.12 made compensated), so a kernel's value equals its oracle's with
``==``.
``reference_evaluate_run`` is evaluation as it was first written, on
those functions and at the cost of the catalog: popularity is built per
call and the popularity baseline names every training user's items up
front.

``evaluate_mean_reward`` is the mean terminal reward of stochastic
rollouts (``policy.rollout_batch``) of a policy or of the uniform walk,
the measure of the agent's lift over uniform; ``UniformPolicy`` is the
uniform walk as a policy that ``policy.walk`` drives.

``GraphWriter`` grows a graph one call at a time, as tests and the
references below write graphs: each scalar ``add_*`` call extends the
graph it holds.

``reference_augment_graph`` is cold integration as it was first written:
profiles validated, checked and registered one at a time, each entity
with its own ``add_entity`` call; ``reference_cold_rows`` sums each cold
entity's embedding row on its own.

``reference_forward_join`` finds each head's run in the head-sorted
relation with two binary searches; ``reference_purchases`` is the
synthetic generator with one scalar ``Generator`` call per draw.

``reference_accumulate_batch`` is the embedding batch gradient with every
batch-sized array allocated per call, as it was before the kernels wrote
into a reused scratch.

``reference_init`` draws a fresh policy's four matrices as they were
drawn when W1 also held the rows of a finished walk's last pair.
``reference_forward`` is the policy forward with the actor head and its
softmax over every column for every row, and ``reference_slates`` cuts
over-cap rows on one grid padded to the widest row's degree, as both were
before rows took a head and a cut of their own width.
``reference_relation_terms`` is ``PolicyModel.relation_terms`` as it
was first written: every hop's terms at once, in one tuple, hop 1 first.
``reference_beam_search`` is beam search as it was before a hop's
relation block was folded (``PolicyModel.fold``): each hop's forward
(``reference_forward``) multiplies the full blocks the hop added
(``encode_pair``), and each row picks its continuations with a sort of
its own. ``reference_episode_gradients`` is ``policy.episode_gradients``
on the same two-block forward, with each hop's pair as its backward block.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import reduce
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from pathrec import metrics
from pathrec.artifacts import atomic_open, write_json
from pathrec.coldstart import ColdStrategy
from pathrec.coldstart import log as coldstart_log
from pathrec.datasets import SyntheticSpec, synthetic_schema
from pathrec.embeddings import EmbeddingTable, rng_for, score_tails
from pathrec.errors import (DuplicateEntity, EmptyColdSet, EmptyProfile, InvalidSpec,
                            MissingEmbedding, PathRecError, SchemaViolation)
from pathrec.graph import FORWARD, INVERSE, KGSchema, KnowledgeGraph
from pathrec.inference import Beam, ScoredPath
from pathrec.mdp import (MAX_ACTIONS_DEFAULT, SELF_LOOP, Frontier, PathState, RewardSpec,
                         Slates, start_scores)
from pathrec.pipeline import COHORTS
from pathrec.policy import (K_BLOCK, ForwardCache, PolicyModel, _matmul, _sample_rows,
                            rollout_batch)


class GraphWriter:
    """A graph grown by scalar calls: each ``add_*`` call replaces
    ``graph`` by its ``extended`` graph, so an error raises at the call
    that causes it and leaves ``graph`` as it was. Other attributes read
    the current graph."""

    def __init__(self, start: KGSchema | KnowledgeGraph):
        self.graph = start if isinstance(start, KnowledgeGraph) else KnowledgeGraph(start)

    def __getattr__(self, name):
        return getattr(self.graph, name)

    def add_entities(self, types, names) -> list[int]:
        """The ids of the keys (types[k], names[k]); a key already
        registered, or repeated in the call, keeps its first id."""
        keys = list(zip(types, names))
        new = [key for key in dict.fromkeys(keys) if not self.graph.has_entity(*key)]
        if new:
            self.graph = self.graph.extended([t for t, _ in new], [n for _, n in new], (), (), ())
        return [self.graph.entity_id(*key) for key in keys]

    def add_entity(self, etype: str, name: str) -> int:
        return self.add_entities([etype], [name])[0]

    def add_triplets(self, heads, relations, tails):
        self.graph = self.graph.extended((), (), heads, relations, tails)

    def add_triplet(self, head: int, relation: int, tail: int):
        self.add_triplets([head], [relation], [tail])


class BudgetExhausted(PathRecError):
    """The hop budget of a path state is already spent."""


class InvalidAction(PathRecError):
    """An action is not valid in the current path state."""


def is_complete(state: PathState) -> bool:
    return state.hops == state.budget


class Action(NamedTuple):
    relation: int  # SELF_LOOP or a relation id
    target: int    # entity id reached (current entity for self-loops)
    direction: int

    @property
    def is_self_loop(self) -> bool:
        return self.relation == SELF_LOOP


def step(state: PathState, action: Action, graph: KnowledgeGraph) -> PathState:
    """Apply one action; deterministic. Raises on budget or validity violations."""
    if is_complete(state):
        raise BudgetExhausted(f"hop budget {state.budget} already spent")
    if action.is_self_loop:
        if action.target != state.current:
            raise InvalidAction("self-loop must stay at the current entity")
        return PathState(state.entities + (state.current,),
                         state.relations + ((SELF_LOOP, FORWARD),), state.budget)
    if action.target in state.visited:
        raise InvalidAction(f"entity {action.target} was already visited")
    if action.direction == FORWARD:
        ok = graph.has_triplet(state.current, action.relation, action.target)
    else:
        ok = graph.has_triplet(action.target, action.relation, state.current)
    if not ok:
        raise InvalidAction(
            f"no edge ({state.current}, {action.relation}, {action.target}, dir={action.direction})"
        )
    return PathState(state.entities + (action.target,),
                     state.relations + ((action.relation, action.direction),), state.budget)


def valid_actions(state: PathState, graph: KnowledgeGraph, table: EmbeddingTable | None = None,
                  max_actions: int = MAX_ACTIONS_DEFAULT,
                  user_scores: np.ndarray | None = None) -> list[Action]:
    """Self-loop plus moves to unvisited neighbors, in canonical order.

    When more than ``max_actions`` moves exist, the highest scoring ones
    against the episode's start user are kept (f under the interaction
    relation); ``user_scores`` may supply those scores precomputed over all
    entity ids. The surviving moves are re-sorted canonically so slot
    semantics stay stable.
    """
    if is_complete(state):
        raise BudgetExhausted(f"hop budget {state.budget} already spent")
    moves = [Action(r, n, d) for r, n, d in graph.neighbors(state.current)
             if n not in state.visited]
    if len(moves) > max_actions:
        if user_scores is not None:
            scores = user_scores[[m.target for m in moves]]
        elif table is not None:
            targets = np.asarray([m.target for m in moves], dtype=np.intp)
            scores = score_tails(table, state.user, graph.interaction_relation, targets)
        else:
            raise MissingEmbedding("action truncation needs an embedding table or scores")
        ranked = sorted(zip(moves, scores.tolist()),
                        key=lambda ms: (-ms[1], ms[0].relation, ms[0].target, ms[0].direction))
        moves = sorted(m for m, _ in ranked[:max_actions])
    return [Action(SELF_LOOP, state.current, FORWARD)] + moves


def encode_state(state: PathState, table: EmbeddingTable) -> np.ndarray:
    """Fixed-width decision state: user slot plus (relation, entity) per hop.

    2*budget - 1 slots of dim d, zero-padded beyond the hops taken: the
    state of a walk with a hop left, one row per column of the policy's
    W1. A finished walk, whose last pair no decision reads, raises
    ValueError. Self-loop steps use the table's null-relation vector.
    Passed to ``PolicyModel.forward`` without a carry, it reads from W1's
    row 0.
    """
    if state.hops >= state.budget:
        raise ValueError(f"a walk of {state.hops} hops has no decision left")
    d = table.dim
    out = np.zeros((2 * state.budget - 1) * d)
    out[:d] = table.entity_vec(state.user)
    for i, ((rel, _), ent) in enumerate(zip(state.relations, state.entities[1:])):
        rel_vec = table.self_loop_vec if rel == SELF_LOOP else table.relation_vec(rel)
        out[(1 + 2 * i) * d:(2 + 2 * i) * d] = rel_vec
        out[(2 + 2 * i) * d:(3 + 2 * i) * d] = table.entity_vec(ent)
    return out


def encode_pair(frontier: Frontier, table: EmbeddingTable) -> np.ndarray:
    """The state blocks the last hop added to every row: the start user's
    block at hop 0, (P, d), after it the last hop's (relation, entity)
    pair, (P, 2d). Relation rows come from the relation table and the
    self-loop vector, which SELF_LOOP indexes."""
    entity = table.entity_vecs[frontier.entities[:, -1]]
    if not frontier.hops:
        return entity
    rel_rows = np.vstack([table.relation_vecs, table.self_loop_vec])
    return np.hstack([rel_rows[frontier.relations[:, -1]], entity])


def pair_blocks(frontier: Frontier, table: EmbeddingTable) -> list[np.ndarray]:
    """``encode_pair`` of each hop of a walked frontier, hop 0 first: the
    blocks that together are every row's live state."""
    return [encode_pair(Frontier(frontier.entities[:, :t + 1], frontier.relations[:, :t],
                                 frontier.directions[:, :t]), table)
            for t in range(frontier.hops + 1)]


def frontier_of(states: list[PathState]) -> Frontier:
    """The frontier whose rows are ``states``, which share one hop count."""
    hops = {s.hops for s in states}
    if len(hops) > 1:
        raise InvalidSpec(f"paths of {sorted(hops)} hops do not stack into one frontier")
    P, t = len(states), hops.pop() if hops else 0
    steps = np.asarray([s.relations for s in states], dtype=np.intp).reshape(P, t, 2)
    return Frontier(np.asarray([s.entities for s in states], dtype=np.intp).reshape(P, t + 1),
                    steps[:, :, 0], steps[:, :, 1])


def beam_of(paths: list[ScoredPath]) -> Beam:
    """``paths``, which share one hop count, stacked into a Beam."""
    return Beam(frontier_of([p.state for p in paths]),
                np.asarray([p.logprob for p in paths], dtype=float))


def beam_paths(beam: Beam) -> list[ScoredPath]:
    """Every row of ``beam`` as a ``ScoredPath``, in row order."""
    states = beam.frontier.states(beam.frontier.hops)
    return [ScoredPath(s, lp) for s, lp in zip(states, beam.logprob.tolist())]


def reference_compile_pattern(tokens, graph: KnowledgeGraph) -> tuple[tuple[int, int], ...]:
    """The (relation id, direction) steps of a schema pattern token list,
    compiled against a concrete graph."""
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise SchemaViolation(f"pattern {tokens} must alternate type, relation, type")
    steps = []
    for tok in tokens[1::2]:
        inverse = tok.startswith("~")
        rel = graph.relation_id(tok[1:] if inverse else tok)
        steps.append((rel, INVERSE if inverse else FORWARD))
    return tuple(steps)


def reference_schema_tables(schema: KGSchema) -> dict:
    """The name -> id tables, per-relation type ids and flags, and the
    interaction id of a schema, each found by a linear scan."""
    def type_id(etype):
        return next(i for i, t in enumerate(schema.entity_types) if t == etype)

    def relation_id(name):
        return next(i for i, r in enumerate(schema.relations) if r.name == name)

    return {
        "type_ids": {t: type_id(t) for t in schema.entity_types},
        "relation_ids": {r.name: relation_id(r.name) for r in schema.relations},
        "relation_head": [type_id(r.head_type) for r in schema.relations],
        "relation_tail": [type_id(r.tail_type) for r in schema.relations],
        "derived_mask": [r.derived_from is not None for r in schema.relations],
        "cold_mask": [r.cold_integration for r in schema.relations],
        "interaction_id": next(i for i, r in enumerate(schema.relations) if r.interaction),
    }


def train_popularity(train_graph: KnowledgeGraph) -> dict[str, int]:
    """Item name -> number of training interactions, in item id order."""
    items = train_graph.items()
    counts = train_graph.interaction_counts()[items].tolist()
    return dict(zip(train_graph.entity_names(items), counts))


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
              exclude_per_user: Mapping[Hashable, set] | None = None) -> float:
    """Mean per-user popularity mass of the top-k, normalized per user by
    the mass of the k most popular items outside that user's training set.

    Users whose normalizer is zero contribute 0 (their numerator is then
    zero too). Items unseen in training count zero popularity.
    """
    if not recs_per_user:
        return 0.0
    ordered = sorted(popularity, key=lambda it: (-popularity[it], it))
    total = 0.0
    for user, recs in recs_per_user.items():
        exclude = exclude_per_user.get(user, set()) if exclude_per_user is not None else set()
        denom = _best_mass(ordered, popularity, k, exclude)
        num = float(sum(popularity.get(item, 0) for item in recs[:k]))  # ints: exact
        total += num / denom if denom > 0 else 0.0
    return total / len(recs_per_user)


def cold_item_proportion(recs_per_user: Mapping[Hashable, Sequence[Hashable]],
                         cold_items: set, k: int) -> float:
    """Mean per-user fraction of the top-k occupied by cold items.

    The divisor is k even when a list is shorter, so sparse lists are not
    rewarded."""
    if not cold_items:
        raise EmptyColdSet("proportion is undefined for an empty cold-item set")
    if not recs_per_user:
        return 0.0
    total = reduce(operator.add, (sum(1 for item in recs[:k] if item in cold_items) / k
                                  for recs in recs_per_user.values()), 0.0)
    return total / len(recs_per_user)


@dataclass(frozen=True)
class PopBaseline:
    """Pure popularity recommender with per-user filtering of training items.

    ``popularity`` holds the training counts most popular first, the order
    of ``ordered_items``; ``train_items`` maps each training user to the
    items they interacted with.
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
    g = train_graph
    counts = train_popularity(g)
    ordered = tuple(sorted(counts, key=lambda it: (-counts[it], it)))
    by_user = g.interactions_by_user()
    train_items = {g.entity_name(u): frozenset(g.entity_name(i) for i in by_user.get(u, ()))
                   for u in g.users()}
    return PopBaseline(ordered_items=ordered, popularity={it: counts[it] for it in ordered},
                       train_items=train_items, k=k)


def reference_evaluate_run(config, split, records):
    """``pipeline.evaluate_run``'s (rows, patterns, per_user), computed over
    every item and every training user as the first implementation did."""
    k = config.inference.topk
    g = split.train_graph
    counts = g.interaction_counts()
    popularity = {g.entity_name(i): int(counts[i]) for i in g.items()}
    ordered = sorted(popularity, key=lambda it: (-popularity[it], it))
    by_user = g.interactions_by_user()
    train_items_by_user = {g.entity_name(u): {g.entity_name(i) for i in by_user.get(u, ())}
                           for u in g.users()}

    def pop_recommend(user):
        seen = train_items_by_user.get(user, set())
        return [item for item in ordered if item not in seen][:k]

    recs_by_cohort, patterns_by_cohort = {}, {}
    for rec in records:
        cohort = rec["cohort"]
        recs_by_cohort.setdefault(cohort, {})[rec["user"]] = [
            it["item"] for it in rec["items"]]
        patterns_by_cohort.setdefault(cohort, []).extend(
            it["path"]["pattern"] for it in rec["items"])

    rows, per_user = [], {}
    test_recs = {"grecs": {}, "pop": {}}
    for cohort in COHORTS:
        relevant = {u: set(items) for u, items in getattr(split, cohort).items()}
        if not relevant:
            continue
        grecs = {u: recs_by_cohort.get(cohort, {}).get(u, []) for u in relevant}
        pop_recs = {u: pop_recommend(u) for u in relevant}
        exclude = {u: train_items_by_user.get(u, set()) for u in relevant}
        for model, recs in (("grecs", grecs), ("pop", pop_recs)):
            ndcg = [metrics.ndcg_at_k(recs[u], relevant[u], k) for u in relevant]
            hit = [metrics.hit_at_k(recs[u], relevant[u], k) for u in relevant]
            for metric, value in (("ndcg", np.mean(ndcg)), ("hr", np.mean(hit)),
                                  ("popb", popb_at_k(recs, popularity, k, exclude))):
                rows.append({"model": model, "cohort": cohort, "metric": f"{metric}@{k}",
                             "value": float(value), "n_users": len(relevant)})
            if model == "grecs":
                per_user[cohort] = {u: {"hit": h, "ndcg": n}
                                    for u, h, n in sorted(zip(relevant, hit, ndcg))}
        if cohort != "cold_val":
            test_recs["grecs"].update(grecs)
            test_recs["pop"].update(pop_recs)

    cold_items = set(split.cold_items)
    if cold_items:
        test_users = set(split.warm_test) | set(split.cold_test)
        for model, recs in test_recs.items():
            for metric, share in (("coverage", metrics.cold_item_coverage),
                                  ("proportion", cold_item_proportion)):
                rows.append({"model": model, "cohort": "test", "metric": f"{metric}@{k}",
                             "value": share(recs, cold_items, k), "n_users": len(test_users)})

    patterns = {cohort: metrics.pattern_report(labels)
                for cohort, labels in sorted(patterns_by_cohort.items())}
    return rows, patterns, per_user


def _resolve(graph: GraphWriter, profile, taken) -> tuple[int, list[int], list[int]]:
    """Register one cold entity; returns it with its declared (relation,
    target) ids. Raises DuplicateEntity or EmptyProfile to skip it."""
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
        coldstart_log.info("profile %s: dropped %d declarations with unknown targets",
                           profile.name, dropped)
    if not resolvable:
        raise EmptyProfile(f"profile {profile.name!r} has no known targets")
    e = graph.add_entity(profile.entity_type, profile.name)
    return (e, [graph.relation_id(d.relation) for d in resolvable],
            [graph.entity_id(d.target_type, d.target_name) for d in resolvable])


def reference_augment_graph(train_graph: KnowledgeGraph, profiles, interactions=None):
    """``coldstart.augment_graph``'s (graph, ids) and log lines, one profile
    at a time: each is validated, checked against the entities registered
    so far and registered on its own."""
    aug = GraphWriter(train_graph)
    ids: dict[str, int] = {}
    heads: list[int] = []
    relations: list[int] = []
    tails: list[int] = []
    for profile in profiles:
        try:
            e, rels, targets = _resolve(aug, profile, ids)
        except (EmptyProfile, DuplicateEntity) as exc:
            coldstart_log.info("profile %s skipped: %s", profile.name, exc)
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
    return aug.graph, ids


def reference_cold_rows(table, graph, entities, strategy):
    """The entity-by-entity mean of (e_tail - e_relation) over forward edges."""
    base = table.entity_count
    rows = np.zeros((len(entities), table.dim))
    for i, e in enumerate(entities):
        forward = [(r, n) for r, n, d in graph.neighbors(e) if d == FORWARD]
        assert forward
        if strategy == ColdStrategy.NULL:
            continue
        acc = np.zeros(table.dim)
        for r, n in forward:
            acc += (table.entity_vecs[n] if n < base else rows[n - base]) - table.relation_vecs[r]
        rows[i] = acc / len(forward)
    return rows


def reference_forward_join(graph: KnowledgeGraph, relation: int,
                           heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``datasets._forward_join``: each head's run found by searching the
    head-sorted relation for its left and right ends."""
    h, r, t = graph.triplet_arrays()
    sel = r == relation
    by_head = np.lexsort((t[sel], h[sel]))
    rel_heads, rel_tails = h[sel][by_head], t[sel][by_head]
    lo = np.searchsorted(rel_heads, heads, side="left")
    n = np.searchsorted(rel_heads, heads, side="right") - lo
    at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
    return np.repeat(np.arange(len(heads)), n), rel_tails[at]


def reference_purchases(spec: SyntheticSpec, out_dir: str) -> list[list[int]]:
    """``datasets.generate_synthetic`` with a scalar ``rng.random()`` and
    ``rng.integers(0, n)`` call per draw: writes the same triplets.tsv,
    schema.json and prefs.json to ``out_dir`` and returns each user's
    purchased item indices in file order."""
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

    purchases = []
    with atomic_open(os.path.join(out_dir, "triplets.tsv")) as fh:
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
                if rng.random() < spec.p_pref:
                    i = cell[int(rng.integers(0, len(cell)))]
                else:
                    i = int(rng.integers(0, spec.items))
                if i not in held:
                    held.add(i)
                    chosen.append(i)
            for i in chosen:
                fh.write(f"user:{users[u]}\tpurchase\titem:{items[i]}\n")
            purchases.append(chosen)
    synthetic_schema().save(os.path.join(out_dir, "schema.json"))
    write_json(os.path.join(out_dir, "prefs.json"), {"spec": asdict(spec), "prefs": prefs})
    return purchases


def reference_accumulate_batch(table, grads, heads, rels, cand_ids, cand_mask, true_col, scale):
    """``embeddings._accumulate_batch`` as first written: every (B, d) and
    (B, C, d) array allocated per call, rows scattered with 2-D
    ``np.add.at``. Same arguments, without the scratch."""
    query = table.entity_vecs[heads] + table.relation_vecs[rels]      # (B, d)
    cand_vecs = table.entity_vecs[cand_ids]                            # (B, C, d)
    scores = np.einsum("bcd,bd->bc", cand_vecs, query) + table.entity_bias[cand_ids]
    scores = np.where(cand_mask, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(len(heads)), true_col]).sum() * scale

    dscores = probs * scale
    dscores[np.arange(len(heads)), true_col] -= scale
    dquery = np.einsum("bc,bcd->bd", dscores, cand_vecs)
    np.add.at(grads["entity_vecs"], heads, dquery)
    np.add.at(grads["relation_vecs"], rels, dquery)
    dcand = dscores[:, :, None] * query[:, None, :]
    np.add.at(grads["entity_vecs"], cand_ids.ravel(), dcand.reshape(-1, dcand.shape[2]))
    np.add.at(grads["entity_bias"], cand_ids.ravel(), dscores.ravel())
    return loss


def reference_init(dim: int, config, seed: int = 0) -> list[np.ndarray]:
    """W1, W2, W3 and Wv of a fresh policy as drawn when W1 held a row
    per column of a finished walk's state, (2*hop_budget + 1)*dim rows:
    He initialization over each matrix's fan-in rows, in that order."""
    h1, h2 = config.hidden
    rng = rng_for(seed, "policy-init")
    return [rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
            for shape in (((1 + 2 * config.hop_budget) * dim, h1), (h1, h2),
                          (h2, 1 + config.max_actions), (h2,))]


def reference_forward(policy: PolicyModel, X, slate_sizes, carry=None):
    """``PolicyModel.forward`` (same arguments and results) with the actor
    head and softmax computed at the full padded width for every row."""
    sum1, start = carry or (None, 0)
    d = policy.dim
    for col in range(0, X.shape[1], d):
        sum1 = _matmul(X[:, col:col + d], policy.W1[start + col:start + col + d], sum1)
    h1 = sum1 + policy.b1
    np.maximum(h1, 0.0, out=h1)
    h2 = _matmul(h1, policy.W2)
    h2 += policy.b2
    np.maximum(h2, 0.0, out=h2)
    logits = _matmul(h2, policy._W3)[:, :policy.slate_size]
    logits += policy.b3
    logits[np.arange(policy.slate_size) >= slate_sizes[:, None]] = -np.inf
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=1, keepdims=True)
    values = _matmul(h2, policy.Wv) + policy.bv[0]
    return probs, values, ForwardCache(sum1, start + X.shape[1], X, h1, h2)


def reference_slates(frontier: Frontier, graph: KnowledgeGraph, max_actions: int,
                     user_scores, score_rows) -> Slates:
    """``Frontier.slates`` with every over-cap row's scores laid out as one
    row of a grid padded with -inf to the widest such row, and one
    ``np.partition`` over the whole grid."""
    adj = graph.csr()
    P = len(frontier)
    current = frontier.entities[:, -1]
    first = adj.indptr[current]
    degree = adj.indptr[current + 1] - first
    row = np.repeat(np.arange(P), degree)
    offset = np.cumsum(degree) - degree
    edge = np.arange(len(row)) + np.repeat(first - offset, degree)
    target = adj.nbr[edge]
    fresh = np.ones(len(row), dtype=bool)
    for visited in frontier.entities.T:
        fresh &= visited[row] != target
    row, edge, target = row[fresh], edge[fresh], target[fresh]
    counts = np.bincount(row, minlength=P)
    is_over = counts > max_actions
    if is_over.any():
        over_rows = np.flatnonzero(is_over)
        n = counts[over_rows]
        cell = np.arange(n.max())
        real = cell < n[:, None]
        at = np.where(real, (np.cumsum(counts) - counts)[over_rows, None] + cell, 0)
        grid = np.where(real, user_scores[score_rows[over_rows, None], target[at]], -np.inf)
        kth = grid.shape[1] - max_actions
        cut = np.partition(grid, kth, axis=1)[:, kth, None]
        above, tie = grid > cut, grid == cut
        need = max_actions - above.sum(axis=1, keepdims=True)
        kept = above | (tie & (np.cumsum(tie, axis=1) <= need))
        keep = np.ones(len(target), dtype=bool)
        keep[at[real & ~kept]] = False
        edge, target = edge[keep], target[keep]
        counts = np.minimum(counts, max_actions)
    return Slates(edge, target, np.cumsum(counts) - counts, counts + 1, current, adj)


def reference_relation_terms(policy: PolicyModel, table: EmbeddingTable) -> tuple:
    """Every hop's ``policy.relation_terms(table, hop)``, hop 1 first,
    computed in one pass over the W1 rows of the hops' relation blocks."""
    d, B = table.dim, policy.config.hop_budget
    rows = np.vstack([table.relation_vecs, table.self_loop_vec])
    return tuple(np.stack([rows[:, k:k + K_BLOCK] @ policy.W1[start:start + d][k:k + K_BLOCK]
                           for k in range(0, d, K_BLOCK)])
                 for start in range(d, (2 * B - 1) * d, 2 * d))


def reference_beam_search(user: int, policy: PolicyModel, graph: KnowledgeGraph,
                          table: EmbeddingTable, widths, cap: int) -> Beam:
    """``inference.beam_search(user, policy, graph, table, widths, cap)``
    on full (P, 2d) blocks: no relation terms, one forward per hop."""
    user_scores = start_scores(graph, table, [user])
    frontier, logprob, carry = Frontier.start([user]), np.zeros(1), None
    for width in widths:
        slates = frontier.slates(graph, cap, user_scores, np.zeros(len(frontier), dtype=np.intp))
        probs, _, cache = reference_forward(policy, encode_pair(frontier, table), slates.sizes,
                                            carry)
        rows, slots = [], []
        for row, size in enumerate(slates.sizes.tolist()):
            slot = np.arange(size)
            relation, target, direction = slates.actions(np.full(size, row), slot)
            keep = np.lexsort((direction, relation, target, -probs[row, :size]))[:width]
            rows += [row] * len(keep)
            slots += slot[keep].tolist()
        rows, slots = np.asarray(rows, dtype=np.intp), np.asarray(slots, dtype=np.intp)
        logprob = logprob[rows] + np.log(probs[rows, slots])
        carry = cache.sum1[rows], cache.end
        frontier = frontier.advance(rows, *slates.actions(rows, slots))
    return Beam(frontier, logprob)


def reference_episode_gradients(policy: PolicyModel, graph: KnowledgeGraph,
                                table: EmbeddingTable, users, user_scores, config,
                                reward_spec, rng, grads=None):
    """``policy.episode_gradients`` (same arguments and results) on the
    two-block forward: each hop multiplies its (relation, entity) pair
    (``encode_pair``, ``reference_forward``) after its parent's carry,
    and the backward reads each hop's pair as its block."""
    frontier, rows, carry, hops = Frontier.start(users), np.arange(len(users)), None, []
    for _ in range(config.hop_budget):
        slates = frontier.slates(graph, config.max_actions, user_scores, rows)
        probs, values, cache = reference_forward(policy, encode_pair(frontier, table),
                                                 slates.sizes, carry)
        carry = cache[:2]
        chosen = np.minimum(_sample_rows(probs, rng), slates.sizes - 1)
        hops.append((cache, probs, values, chosen))
        frontier = frontier.advance(rows, *slates.actions(rows, chosen))
    rewards = reward_spec.terminal_reward(frontier)
    grads = policy.zero_grads(grads)
    B, T = len(rewards), len(hops)
    entropy_sum = 0.0
    for t, (cache, p, values, chosen) in enumerate(hops):
        adv = rewards * config.gamma ** (T - 1 - t) - values
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
        H = -(p * logp).sum(axis=1)
        entropy_sum += H.sum()
        dlogits = p * adv[:, None]
        dlogits[np.arange(B), chosen] -= adv
        dlogits += config.entropy_coef * p * (logp + H[:, None])
        dlogits /= B
        policy.backward(cache, [c.X for c, *_ in hops[:t + 1]], dlogits, -2.0 * adv / B, grads)
    return grads, rewards, entropy_sum / (B * T)


class UniformPolicy:
    """The uniform walk as a policy ``policy.walk`` drives: every slot of a
    slate equally probable, values zero and no sums carried. It has the
    ``config`` (hop budget, action cap) and ``dim`` a walk checks, so
    ``rollout_batch`` with it walks the uniform baseline: one
    ``rng.random`` row per hop over the probabilities ``mask / sizes``,
    as wide as the widest slate."""

    def __init__(self, dim: int, hop_budget: int, max_actions: int):
        self.dim = dim
        self.config = SimpleNamespace(hop_budget=hop_budget, max_actions=max_actions)

    def fold(self, carry, relations, table):
        return carry

    def forward(self, X, slate_sizes, carry=None):
        probs = (np.arange(max(slate_sizes.max(), 1)) < slate_sizes[:, None]) / slate_sizes[:, None]
        return probs, np.zeros(len(X)), ForwardCache(np.zeros((len(X), 0)), 0, None, None, None)


def evaluate_mean_reward(policy: PolicyModel | None, graph: KnowledgeGraph,
                         table: EmbeddingTable, users: list[int],
                         hop_budget: int, max_actions: int,
                         reward_spec: RewardSpec, seed: int,
                         episodes: int = 1) -> float:
    """Mean terminal reward of stochastic rollouts; ``policy=None`` is the
    uniform-random baseline (``UniformPolicy``). The rollout seed stream
    depends only on ``seed``, so two policies can be measured on the same
    episode draws."""
    if episodes < 1:
        raise InvalidSpec(f"episodes must be >= 1, got {episodes}")
    if policy is None:
        policy = UniformPolicy(table.dim, hop_budget, max_actions)
    rng = rng_for(seed, "reward-eval")
    scores = start_scores(graph, table, users)
    total = 0.0
    for _ in range(episodes):
        _, rewards, _ = rollout_batch(policy, graph, table, users, scores, hop_budget,
                                      max_actions, reward_spec, rng)
        total += rewards.mean()
    return total / episodes
