"""Output checks, the output digest and quality numbers for served lists.

A served list is a record in the ``recs/recommendations.jsonl`` format:
``{"user", "cohort", "served", "items": [{"item", "rank", "logprob",
"path": {"entities", "relations", "pattern"}}]}``. The workloads that
serve users themselves build the same records, so one set of checks covers
every workload.
"""

from __future__ import annotations

import hashlib
import json

from pathrec import graph as kg
from pathrec import mdp, metrics
from pathrec.errors import PathRecError

COLD_COHORTS = ("cold_val", "cold_test")


def path_record(state: mdp.PathState, g: kg.KnowledgeGraph) -> dict:
    """A path in the recommendations.jsonl format."""
    rels = [{"name": "self_loop" if rel == mdp.SELF_LOOP else g.relation_name(rel),
             "direction": "inverse" if d == kg.INVERSE else "forward"}
            for rel, d in state.relations]
    return {"entities": [g.entity_key(e) for e in state.entities],
            "relations": rels,
            "pattern": mdp.signature_label(mdp.path_signature(state, g), g)}


def served_record(name: str, cohort: str, recs, g: kg.KnowledgeGraph) -> dict:
    return {"user": name, "cohort": cohort, "served": True, "items": [
        {"item": g.entity_name(e.item), "rank": e.rank, "logprob": e.logprob,
         "path": path_record(e.path.state, g)} for e in recs.entries]}


def _entity(g: kg.KnowledgeGraph, key: str) -> int:
    etype, _, name = key.partition(":")
    return g.entity_id(etype, name)


def list_problems(rec: dict, g: kg.KnowledgeGraph, k: int) -> list[str]:
    """Every violated output rule of one served list, checked against the
    augmented graph ``g`` the list was served from."""
    user_type, item_type = g.schema.user_type, g.schema.item_type
    user_key = f"{user_type}:{rec['user']}"
    uid = g.entity_id(user_type, rec["user"])
    seen = {g.entity_name(i) for i in g.user_items(uid)}
    entries = rec["items"]
    names = [it["item"] for it in entries]
    out = []
    if len(names) > k:
        out.append(f"{len(names)} items for k={k}")
    if len(set(names)) != len(names):
        out.append("repeated items")
    if seen.intersection(names):
        out.append("recommends a training item")
    logprobs = [it["logprob"] for it in entries]
    if any(b > a for a, b in zip(logprobs, logprobs[1:])):
        out.append("logprobs increase down the list")
    interaction = g.relation_name(g.interaction_relation)
    for it in entries:
        ents, rels = it["path"]["entities"], it["path"]["relations"]
        if ents[0] != user_key or ents[-1] != f"{item_type}:{it['item']}":
            out.append(f"path for {it['item']} does not run user -> item")
        if len(rels) != len(ents) - 1:
            out.append(f"path for {it['item']} has {len(rels)} relations for {len(ents)} entities")
            continue
        for head, rel, tail in zip(ents, rels, ents[1:]):
            try:
                h, t = _entity(g, head), _entity(g, tail)
                if rel["name"] == "self_loop":
                    ok = h == t
                elif rel["direction"] == "forward":
                    ok = g.has_triplet(h, g.relation_id(rel["name"]), t)
                else:
                    ok = g.has_triplet(t, g.relation_id(rel["name"]), h)
            except PathRecError:  # an entity or relation the graph does not know
                ok = False
            if not ok:
                out.append(f"path edge {head} {rel['name']} {tail} is not in the graph")
        if rec["cohort"] in COLD_COHORTS:
            first = next((r["name"] for r in rels if r["name"] != "self_loop"), None)
            if first == interaction:
                out.append("cold user path opens with the interaction relation")
    return out


def check_lists(records: list[dict], g: kg.KnowledgeGraph, k: int) -> tuple[int, list[str]]:
    """(number of failed lists, messages); an unserved user is a failed list."""
    failed, messages = 0, []
    for rec in records:
        problems = (["user was not served"] if not rec["served"]
                    else list_problems(rec, g, k))
        if problems:
            failed += 1
            messages.append(f"{rec['cohort']}/{rec['user']}: " + "; ".join(problems))
    return failed, messages


def pattern_problems(patterns: dict[str, list]) -> list[str]:
    """Pattern shares of each cohort that served any path must sum to 100."""
    out = []
    for cohort, report in patterns.items():
        total = sum(pct for _, pct in report)
        if report and abs(total - 100.0) > 1e-6:
            out.append(f"{cohort}: pattern shares sum to {total!r}")
    return out


def digest(records: list[dict]) -> str:
    """sha256 of the served lists and their paths; log probabilities are
    left out so that a float reordering alone does not change it."""
    blob = [[rec.get("round", 0), rec["cohort"], rec["user"], rec["served"],
             [[it["item"], it["path"]["entities"],
               [[r["name"], r["direction"]] for r in it["path"]["relations"]]]
              for it in rec["items"]]]
            for rec in records]
    return hashlib.sha256(json.dumps(blob, separators=(",", ":")).encode()).hexdigest()


def quality(records: list[dict], split, k: int) -> dict[str, float]:
    """NDCG/HR over the served users of each cohort and cold-item coverage
    over every served list (a user served twice counts twice)."""
    relevant = {"warm_test": split.warm_test, "cold_val": split.cold_val,
                "cold_test": split.cold_test}
    warm, cold_ndcg, cold_hr = [], [], []
    lists = {}
    for i, rec in enumerate(records):
        if not rec["served"]:
            continue
        items = [it["item"] for it in rec["items"]]
        lists[i] = items
        rel = set(relevant[rec["cohort"]][rec["user"]])
        if rec["cohort"] == "warm_test":
            warm.append(metrics.ndcg_at_k(items, rel, k))
        else:
            cold_ndcg.append(metrics.ndcg_at_k(items, rel, k))
            cold_hr.append(metrics.hit_at_k(items, rel, k))

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    return {"ndcg10_warm": mean(warm), "ndcg10_cold": mean(cold_ndcg),
            "hr10_cold": mean(cold_hr),
            "cold_coverage10": metrics.cold_item_coverage(lists, set(split.cold_items), k),
            "users_warm": len(warm), "users_cold": len(cold_ndcg)}
