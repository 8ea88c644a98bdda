"""End-to-end acceptance checks.

Each test covers one numbered claim about the system, from closed-form
oracles on the scoring primitives up to behavioral claims on the planted
synthetic world. Criteria 6-10 share one set of three full pipeline runs
built by the module fixture; everything is deterministic, so a failure
here reproduces exactly.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from pathrec import metrics
from pathrec.coldstart import (ColdDeclaration, ColdProfile, ColdStrategy,
                               integrate_cold_entities)
from pathrec.datasets import DatasetSplit, SplitConfig, split_dataset
from pathrec.embeddings import (EmbedTrainConfig, conditional_prob,
                                init_table, load_table, rng_for, score_tails,
                                score_triplet)
from pathrec.graph import INVERSE
from pathrec.inference import beam_search, rank_recommendations
from pathrec.mdp import SELF_LOOP, PathState, RewardSpec
from pathrec.metrics import cold_item_coverage, hit_at_k, ndcg_at_k
from pathrec.pipeline import (RunConfig, RunPaths, build_augmented,
                              read_recommendations, run_pipeline, sweep,
                              _recommend_users)
from pathrec.policy import AgentConfig, PolicyModel, training_users

from conftest import build_shop_graph
from oracles import (UniformPolicy, cold_item_proportion, encode_state, evaluate_mean_reward,
                     frontier_of, is_complete, pop_baseline, popb_at_k, step, train_popularity,
                     valid_actions)
from test_datasets import assert_split_invariants

SEEDS = (1, 2, 3)
MAJORITY = 2

PLANTED = {
    "dataset": {"synthetic": {"users": 500, "items": 300, "brands": 10,
                              "categories": 8, "interactions_per_user": 10,
                              "p_pref": 0.9}},
    "split": {},
    "embed": {},
    "agent": {"max_actions": 25},
    "inference": {"widths": [25, 5, 1], "topk": 10},
}


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    base = tmp_path_factory.mktemp("planted")
    runs = {}
    for seed in SEEDS:
        raw = json.loads(json.dumps(PLANTED))
        raw["seed"] = seed
        raw["workdir"] = os.path.join(str(base), f"seed_{seed}")
        config = RunConfig.from_json(raw)
        t0 = time.monotonic()
        run_pipeline(config)
        wall = time.monotonic() - t0
        paths = RunPaths(config.workdir)
        with open(paths.report_json) as fh:
            report = json.load(fh)
        runs[seed] = {"config": config, "paths": paths, "wall": wall,
                      "report": report}
    return runs


def load_artifacts(run):
    split = DatasetSplit.read(run["paths"].split_dir)
    table = load_table(run["paths"].embed_file, split.train_graph)
    agent = PolicyModel.load(run["paths"].policy_file)
    return split, table, agent


def cohort_rows(report, metric, cohorts, model):
    picked = [r for r in report["rows"]
              if r["metric"] == metric and r["model"] == model
              and r["cohort"] in cohorts]
    total = sum(r["n_users"] for r in picked)
    return sum(r["value"] * r["n_users"] for r in picked) / total


def test_criterion_1_scoring_primitives_match_brute_force(schema):
    """Triplet score, conditional probability and cold embedding against
    order-independent float computations, 1000 instances each."""
    t0 = time.monotonic()
    schema_graph = build_shop_graph(schema, n_users=12, n_items=20,
                                    n_brands=4, n_categories=3,
                                    interactions=5, seed=42)
    table = init_table(schema_graph, EmbedTrainConfig(dim=16), seed=7)
    rng = rng_for(1000, "criterion-1")
    n_ent = schema_graph.entity_count
    n_rel = len(schema_graph.schema.relations)

    for _ in range(1000):
        h, t = int(rng.integers(0, n_ent)), int(rng.integers(0, n_ent))
        r = int(rng.integers(0, n_rel))
        got = score_triplet(table, h, r, t)
        want = math.fsum((table.entity_vecs[h][i] + table.relation_vecs[r][i])
                         * table.entity_vecs[t][i] for i in range(table.dim))
        want += float(table.entity_bias[t])
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    for _ in range(1000):
        h = int(rng.integers(0, n_ent))
        r = int(rng.integers(0, n_rel))
        size = int(rng.integers(2, 12))
        cands = [int(c) for c in rng.choice(n_ent, size=size, replace=False)]
        tail = cands[int(rng.integers(0, size))]
        got = conditional_prob(table, h, r, tail, cands)
        scores = {c: math.fsum((table.entity_vecs[h][i] + table.relation_vecs[r][i])
                               * table.entity_vecs[c][i] for i in range(table.dim))
                  + float(table.entity_bias[c]) for c in cands}
        m = max(scores.values())
        denom = math.fsum(math.exp(s - m) for s in scores.values())
        want = math.exp(scores[tail] - m) / denom
        assert got == pytest.approx(want, rel=1e-10)

    brands = [f"b{i}" for i in range(4)]
    cats = [f"c{i}" for i in range(3)]
    for trial in range(1000):
        decls = []
        n_b = int(rng.integers(1, 4))
        for b in rng.choice(brands, size=n_b, replace=False):
            decls.append(("produced_by", "brand", str(b)))
        if rng.random() < 0.5:
            decls.append(("belong_to", "category", str(rng.choice(cats))))
        prof = ColdProfile(name=f"cold{trial}", entity_type="item",
                           declarations=tuple(ColdDeclaration(*d) for d in decls))
        g, ext, ids = integrate_cold_entities(schema_graph, table, [prof],
                                              ColdStrategy.AVERAGE_TRANSLATION)
        vec = ext.entity_vecs[ids[prof.name]]
        want = [math.fsum(table.entity_vecs[g.entity_id(tt, tn)][i]
                          - table.relation_vecs[g.relation_id(rel)][i]
                          for rel, tt, tn in decls) / len(decls)
                for i in range(table.dim)]
        np.testing.assert_allclose(vec, want, rtol=1e-10, atol=1e-14)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 3x1000 scoring/probability/cold-embedding "
          f"instances within 1e-10 of brute force in {elapsed:.1f}s")


def test_criterion_2_rewards_match_direct_formula_on_every_path(schema):
    """Every complete 3-hop path of a small world, both reward modes."""
    t0 = time.monotonic()
    g = build_shop_graph(schema, n_users=5, n_items=12, n_brands=2,
                         n_categories=2, interactions=4, seed=0)
    assert g.entity_count <= 30
    table = init_table(g, EmbedTrainConfig(dim=8), seed=1)
    binary = RewardSpec.binary(g)
    pattern = RewardSpec.pattern(g, table)
    raw_patterns = {tuple(p) for p in g.schema.path_patterns}
    interaction = g.interaction_relation
    items = g.items()
    by_user = g.interactions_by_user()

    def direct_binary(state):
        return 1.0 if (state.terminal in set(by_user.get(state.user, []))
                       and state.self_loops < state.budget - 1) else 0.0

    def direct_pattern(state, item_max):
        if g.entity_type(state.terminal) != g.schema.item_type:
            return 0.0
        ents, rels = list(state.entities), list(state.relations)
        while rels and rels[-1][0] == SELF_LOOP:
            rels.pop()
            ents.pop()
        tokens = [g.entity_type(ents[0])]
        for (rel, d), e in zip(rels, ents[1:]):
            if rel == SELF_LOOP:
                return 0.0
            name = g.relation_name(rel)
            tokens.append(f"~{name}" if d == INVERSE else name)
            tokens.append(g.entity_type(e))
        if tuple(tokens) not in raw_patterns:
            return 0.0
        score = float(np.dot(table.entity_vecs[state.user]
                             + table.relation_vecs[interaction],
                             table.entity_vecs[state.terminal])
                      + table.entity_bias[state.terminal])
        if item_max > 0:
            return min(max(score / item_max, 0.0), 1.0)
        return 1.0 if score >= item_max else 0.0

    n_paths = 0
    for user in g.users():
        item_max = max(float(np.dot(table.entity_vecs[user]
                                    + table.relation_vecs[interaction],
                                    table.entity_vecs[i])
                             + table.entity_bias[i]) for i in items)
        stack, complete = [PathState.start(user, 3)], []
        while stack:
            state = stack.pop()
            if is_complete(state):
                complete.append(state)
                continue
            for action in valid_actions(state, g, max_actions=10_000):
                stack.append(step(state, action, g))
        # one reward call per mode scores every complete path of the user
        walked = frontier_of(complete)
        for state, got_binary, got in zip(complete, binary.terminal_reward(walked).tolist(),
                                          pattern.terminal_reward(walked).tolist()):
            n_paths += 1
            assert got_binary == direct_binary(state)
            want = direct_pattern(state, item_max)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: binary and pattern rewards match the direct "
          f"formulas on all {n_paths} complete 3-hop paths in {elapsed:.1f}s")


def test_criterion_3_wide_beam_equals_exhaustive_ranking(schema):
    """Beam widths covering every slate reproduce the full enumeration."""
    t0 = time.monotonic()
    checked_users = 0
    for trial in range(20):
        g = build_shop_graph(schema, n_users=5 + trial % 3,
                             n_items=8 + trial % 5, n_brands=2 + trial % 2,
                             n_categories=2, interactions=3 + trial % 3,
                             seed=300 + trial)
        assert g.entity_count <= 200
        width = 1 + max(len(list(g.neighbors(e))) for e in range(g.entity_count))
        table = init_table(g, EmbedTrainConfig(dim=6), seed=trial)
        policy = PolicyModel(table.dim,
                             AgentConfig(hop_budget=3, max_actions=width,
                                         hidden=(16, 8)), seed=trial)
        all_ids = np.arange(g.entity_count, dtype=np.intp)
        for user in g.users():
            scores = score_tails(table, user, g.interaction_relation, all_ids)
            best: dict[int, float] = {}

            def dfs(state, logprob):
                if is_complete(state):
                    t = state.terminal
                    if g.entity_type(t) == g.schema.item_type and t not in g.user_items(state.user):
                        if t not in best or logprob > best[t]:
                            best[t] = logprob
                    return
                slate = valid_actions(state, g, max_actions=width,
                                      user_scores=scores)
                X = encode_state(state, table)[None, :]
                probs, _, _ = policy.forward(X, np.asarray([len(slate)]))
                for i, action in enumerate(slate):
                    dfs(step(state, action, g),
                        logprob + float(np.log(probs[0, i])))

            dfs(PathState.start(user, 3), 0.0)
            f_by = {}
            if best:
                cand = np.asarray(sorted(best), dtype=np.intp)
                fs = score_tails(table, user, g.interaction_relation, cand)
                f_by = dict(zip(cand.tolist(), fs.tolist()))
            want = sorted(best, key=lambda i: (-best[i], -f_by[i], i))[:10]

            paths = beam_search(user, policy, g, table, [width] * 3,
                                max_actions=width)
            got = rank_recommendations(paths, g, table, user, 10)
            assert got.items() == want
            checked_users += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 3 PASS: beam at full width equals exhaustive ranking "
          f"for {checked_users} users across 20 graphs in {elapsed:.1f}s")


def row_set(columns, width: int) -> metrics.ColumnSets:
    """The ColumnSets of one row holding ``columns``, each below ``width``."""
    columns = np.asarray(list(columns), dtype=np.intp)
    return metrics.ColumnSets(np.zeros(len(columns), dtype=np.intp), columns, 1, width)


def test_criterion_4_metric_oracles_and_pop_normalization(schema):
    """Brute-force values of every report metric, asserted against the
    array kernels ``evaluate_run`` scores with and against the scalar
    oracles; the popularity baseline scores POPB exactly 1.0."""
    rng = rng_for(4, "criterion-4")
    for _ in range(500):
        n_items = int(rng.integers(2, 30))
        items = [f"i{j}" for j in range(n_items)]
        k = int(rng.integers(1, 12))
        recs = list(rng.choice(items, size=int(rng.integers(0, n_items)),
                               replace=False))
        relevant = {i for i in items if rng.random() < 0.3}
        column = {it: j for j, it in enumerate(items)}
        matrix = metrics.column_matrix([[column[i] for i in recs[:k]]], k)
        rel = row_set(map(column.get, relevant), n_items)
        hits = rel.contains(matrix)
        dcg = sum(1.0 / math.log2(r + 2) for r, it in enumerate(recs[:k])
                  if it in relevant)
        ideal = sum(1.0 / math.log2(r + 2)
                    for r in range(min(k, len(relevant))))
        want_ndcg = dcg / ideal if relevant else 0.0
        ndcg = metrics.ndcg_rows(hits, rel.sizes)[0]
        assert ndcg == pytest.approx(want_ndcg, abs=1e-12)
        assert ndcg == ndcg_at_k(recs, relevant, k)
        want_hit = 1.0 if set(recs[:k]) & relevant else 0.0
        assert metrics.hit_rows(hits)[0] == hit_at_k(recs, relevant, k) == want_hit

        popularity = {i: int(rng.integers(0, 7)) for i in items}
        exclude = {i for i in items if rng.random() < 0.2}
        pool = sorted((i for i in items if i not in exclude),
                      key=lambda it: (-popularity[it], it))[:k]
        denom = sum(popularity[i] for i in pool)
        num = sum(popularity[i] for i in recs[:k])
        want_popb = (num / denom) if denom else 0.0
        counts = np.asarray([popularity[i] for i in items])
        order = metrics.popularity_order(items, counts)
        excluded = row_set(map(column.get, exclude), n_items)
        best = metrics.mass_rows(metrics.first_outside(order, k, excluded), counts)
        got = metrics.popb_mean(metrics.mass_rows(matrix, counts), best)
        assert got == pytest.approx(want_popb, abs=1e-12)
        assert got == popb_at_k({"u": recs}, popularity, k, exclude_per_user={"u": exclude})

        cold = {i for i in items if rng.random() < 0.25} or {items[0]}
        is_cold = np.asarray([i in cold for i in items])
        want_cov = len({i for i in recs[:k] if i in cold}) / len(cold)
        want_prop = sum(1 for i in recs[:k] if i in cold) / k
        coverage = metrics.cold_coverage(matrix, is_cold, len(cold))
        assert coverage == pytest.approx(want_cov, abs=1e-12)
        assert coverage == cold_item_coverage({"u": recs}, cold, k)
        proportion = metrics.cold_proportion(matrix, is_cold)
        assert proportion == pytest.approx(want_prop, abs=1e-12)
        assert proportion == cold_item_proportion({"u": recs}, cold, k)

    for seed in range(5):
        g = build_shop_graph(schema, n_users=9 + seed, n_items=13 + seed,
                             interactions=4, seed=600 + seed)
        items, users = np.asarray(g.items(), dtype=np.intp), g.users()
        names = g.entity_names(items.tolist())
        counts = g.interaction_counts()[items]
        pair_rows, bought = g.users_items(users)
        exclude = metrics.ColumnSets(pair_rows, np.searchsorted(items, bought), len(users),
                                     len(items))
        pop = metrics.first_outside(metrics.popularity_order(names, counts), 5, exclude)
        baseline = pop_baseline(g, 5)
        user_names = g.entity_names(users)
        assert [[names[c] for c in row if c >= 0] for row in pop.tolist()] == [
            baseline.recommend(u) for u in user_names]
        mass = metrics.mass_rows(pop, counts)
        score = popb_at_k({u: baseline.recommend(u) for u in user_names},
                          train_popularity(g), 5, exclude_per_user=baseline.train_items)
        assert metrics.popb_mean(mass, mass) == score == 1.0
    print("criterion 4 PASS: 500 random metric instances within 1e-12 of "
          "brute force, kernels equal to the scalar oracles; popularity "
          "recommender scores POPB exactly 1.0")


def test_criterion_5_split_partition_oracle_and_determinism(schema, tmp_path):
    for trial in range(50):
        g = build_shop_graph(schema, n_users=8 + trial % 9,
                             n_items=10 + trial % 12, n_brands=2 + trial % 3,
                             n_categories=2 + trial % 2,
                             interactions=3 + trial % 5, seed=5000 + trial)
        config = SplitConfig()
        split = split_dataset(g, config, seed=trial)
        assert_split_invariants(g, split, config)
        for prof in split.user_profiles:
            per_rel: dict[str, int] = {}
            for d in prof.declarations:
                per_rel[d.relation] = per_rel.get(d.relation, 0) + 1
            assert all(1 <= n <= 10 for n in per_rel.values())

    g = build_shop_graph(schema, n_users=15, n_items=20, seed=77)
    for sub in ("a", "b"):
        split_dataset(g, SplitConfig(), seed=9).write(
            str(tmp_path / sub), config_hash="fixed")
    for fname in ("schema.json", "train.tsv", "profiles.jsonl", "manifest.json"):
        with open(tmp_path / "a" / fname, "rb") as fa, \
             open(tmp_path / "b" / fname, "rb") as fb:
            assert fa.read() == fb.read(), fname
    print("criterion 5 PASS: 50 random datasets partition exactly under the "
          "re-derivation oracle; caps in [1,10]; reruns byte-identical")


def test_criterion_6_agent_lift_and_runtime(planted):
    ratios = {}
    hits = 0
    for seed in SEEDS:
        run = planted[seed]
        assert run["wall"] < 900.0, f"seed {seed} took {run['wall']:.0f}s"
        split, table, agent = load_artifacts(run)
        spec = RewardSpec.binary(split.train_graph)
        users = training_users(split.train_graph)
        cfg = run["config"].agent
        trained = evaluate_mean_reward(agent, split.train_graph, table, users,
                                       cfg.max_actions, spec, seed=777, episodes=2)
        uniform = evaluate_mean_reward(UniformPolicy(table.dim, cfg.hop_budget, cfg.max_actions),
                                       split.train_graph, table, users,
                                       cfg.max_actions, spec, seed=777, episodes=2)
        ratios[seed] = float(trained / uniform) if uniform > 0 else float("inf")
        if ratios[seed] >= 3.0:
            hits += 1
    assert hits >= MAJORITY, f"lift ratios {ratios}"
    walls = {s: round(planted[s]["wall"], 1) for s in SEEDS}
    print(f"criterion 6 PASS: trained/uniform reward ratios "
          f"{ {s: round(r, 2) for s, r in ratios.items()} } "
          f"(>=3x on {hits}/3 seeds); pipeline seconds per seed {walls}")


def test_criterion_7_cold_users_beat_popularity(planted):
    wins = 0
    evidence = {}
    for seed in SEEDS:
        report = planted[seed]["report"]
        k = report["k"]
        grecs = cohort_rows(report, f"hr@{k}", ("cold_val", "cold_test"), "grecs")
        pop = cohort_rows(report, f"hr@{k}", ("cold_val", "cold_test"), "pop")
        evidence[seed] = (round(grecs, 3), round(pop, 3))
        if grecs > pop:
            wins += 1
    assert wins >= MAJORITY, f"cold HR (grecs, pop) by seed: {evidence}"
    print(f"criterion 7 PASS: strict-cold HR@10 grecs vs pop {evidence}; "
          f"grecs strictly ahead on {wins}/3 seeds")


def test_criterion_8_average_translation_covers_cold_items(planted):
    wins = 0
    evidence = {}
    for seed in SEEDS:
        run = planted[seed]
        split, table, agent = load_artifacts(run)
        cold_items = set(split.cold_items)
        k = run["config"].inference.topk
        coverage = {}
        for strategy in (ColdStrategy.AVERAGE_TRANSLATION, ColdStrategy.NULL):
            aug, ext, _, _ = build_augmented(split, table, strategy)
            cohorts = {"warm_test": sorted(split.warm_test),
                       "cold_test": sorted(split.cold_test)}
            records = _recommend_users(aug, ext, agent, run["config"], cohorts)
            recs = {r["user"]: [it["item"] for it in r["items"]]
                    for r in records}
            coverage[strategy.value] = cold_item_coverage(recs, cold_items, k)
        evidence[seed] = {name: round(v, 4) for name, v in coverage.items()}
        if coverage["average_translation"] > coverage["null"]:
            wins += 1
    assert wins >= MAJORITY, f"coverage by seed: {evidence}"
    print(f"criterion 8 PASS: cold-item coverage {evidence}; "
          f"average_translation strictly above null on {wins}/3 seeds")


def test_criterion_9_interaction_sweep_monotone(planted):
    wins = 0
    evidence = {}
    for seed in SEEDS:
        run = planted[seed]
        rows = sweep(run["config"], "interactions", [0, 1])
        k = run["config"].inference.topk
        combined = {}
        for value in (0, 1):
            picked = [r for r in rows if r["value"] == value
                      and r["metric"] == f"hr@{k}"]
            total = sum(r["n_users"] for r in picked)
            combined[value] = sum(r["result"] * r["n_users"]
                                  for r in picked) / total
        evidence[seed] = (round(combined[0], 3), round(combined[1], 3))
        if combined[1] >= combined[0]:
            wins += 1
    assert wins >= MAJORITY, f"cold HR at 0 vs 1 moved interactions: {evidence}"
    print(f"criterion 9 PASS: cold HR@10 from 0 to 1 integrated interactions "
          f"{evidence}; non-decreasing on {wins}/3 seeds")


def test_criterion_10_cold_paths_avoid_interaction_relations(planted):
    total_entries = 0
    for seed in SEEDS:
        run = planted[seed]
        _, records = read_recommendations(run["paths"].recs_file)
        violations = 0
        entries = 0
        for rec in records:
            if rec["cohort"] not in ("cold_val", "cold_test"):
                continue
            for entry in rec["items"]:
                entries += 1
                first = next((r["name"] for r in entry["path"]["relations"]
                              if r["name"] != "self_loop"), None)
                if first == "purchase":
                    violations += 1
        assert entries > 0, f"seed {seed} served no cold users"
        assert violations == 0, f"seed {seed}: {violations}/{entries} cold paths open with an interaction"
        total_entries += entries
        for cohort, report in run["report"]["patterns"].items():
            total = sum(pct for _, pct in report)
            assert total == pytest.approx(100.0, abs=0.01), cohort
    print(f"criterion 10 PASS: 0% of {total_entries} cold-cohort paths open "
          f"with an interaction edge; pattern shares sum to 100 +- 0.01")
