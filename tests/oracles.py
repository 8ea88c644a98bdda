"""Reference implementations the optimized code is tested against.

The scalar path-walking MDP: one state, one action at a time.

``pathrec.mdp.Frontier`` walks many paths at once on arrays; these
per-state functions define the same semantics one state at a time and are
the oracles the batched kernels are tested against. ``valid_actions`` is
a row of ``Frontier.slates``, ``step`` a row of ``Frontier.advance`` and
``encode_state`` the whole zero-padded state whose last blocks (the last
hop's relation and entity, or the user at hop 0) are a row of
``Frontier.encode``; ``Frontier.of`` stacks scalar states into the
frontier the array calls take.

``reference_evaluate_run`` is evaluation as it was first written, at the
cost of the catalog: popularity is built per call and the popularity
baseline names every training user's items up front.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from pathrec import metrics
from pathrec.embeddings import EmbeddingTable, score_tails
from pathrec.errors import InvalidAction, MissingEmbedding, PathRecError
from pathrec.graph import FORWARD, KnowledgeGraph
from pathrec.mdp import MAX_ACTIONS_DEFAULT, SELF_LOOP, PathState
from pathrec.pipeline import COHORTS


class BudgetExhausted(PathRecError):
    """The hop budget of a path state is already spent."""


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
        return PathState(state.user, state.entities + (state.current,),
                         state.relations + ((SELF_LOOP, FORWARD),),
                         state.visited, state.self_loops + 1, state.budget)
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
    return PathState(state.user, state.entities + (action.target,),
                     state.relations + ((action.relation, action.direction),),
                     state.visited | {action.target}, state.self_loops, state.budget)


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
    """Fixed-width state vector: user slot plus (relation, entity) per hop.

    1 + 2*budget slots of dim d, zero-padded beyond the hops taken.
    Self-loop steps use the table's null-relation vector. Passed to
    ``PolicyModel.forward`` without a carry, it reads from W1's row 0.
    """
    d = table.dim
    out = np.zeros((1 + 2 * state.budget) * d)
    out[:d] = table.entity_vec(state.user)
    for i, ((rel, _), ent) in enumerate(zip(state.relations, state.entities[1:])):
        rel_vec = table.self_loop_vec if rel == SELF_LOOP else table.relation_vec(rel)
        out[(1 + 2 * i) * d:(2 + 2 * i) * d] = rel_vec
        out[(2 + 2 * i) * d:(3 + 2 * i) * d] = table.entity_vec(ent)
    return out


def reference_evaluate_run(config, split, records):
    """``pipeline.evaluate_run``'s (rows, patterns, per_user), computed over
    every item and every training user as the first implementation did."""
    k = config.inference.topk
    g = split.train_graph
    popularity = {g.entity_name(i): g.interaction_count(i) for i in g.items()}
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
                                  ("popb", metrics.popb_at_k(recs, popularity, k, exclude))):
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
                                  ("proportion", metrics.cold_item_proportion)):
                rows.append({"model": model, "cohort": "test", "metric": f"{metric}@{k}",
                             "value": share(recs, cold_items, k), "n_users": len(test_users)})

    patterns = {cohort: metrics.pattern_report(labels)
                for cohort, labels in sorted(patterns_by_cohort.items())}
    return rows, patterns, per_user
