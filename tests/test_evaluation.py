"""Evaluation at the cost of the scored users.

``evaluate_run`` is checked against the catalog-wide reference it
replaced, its graph reads are counted against the number of training
users, and the graph reads it relies on (``users_items``, ``user_items``,
``interaction_counts``, ``train_popularity``) are pinned against their
per-element definitions.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from pathrec.datasets import DatasetSplit, synthetic_schema
from pathrec.embeddings import rng_for
from pathrec.errors import UnknownEntity
from pathrec.graph import KnowledgeGraph
from pathrec.pipeline import (COHORTS, RunConfig, RunPaths, evaluate_run, read_recommendations,
                              run_pipeline)

from conftest import build_multi_edge_graph, build_shop_graph
from oracles import GraphWriter, pop_baseline, popb_at_k, reference_evaluate_run, train_popularity
from test_pipeline import tiny_config


@pytest.fixture(scope="module")
def tiny_eval(tmp_path_factory):
    config = tiny_config(str(tmp_path_factory.mktemp("eval") / "run"))
    run_pipeline(config)
    paths = RunPaths(config.workdir)
    return config, DatasetSplit.read(paths.split_dir), read_recommendations(paths.recs_file)[1]


def assert_matches_reference(config, split, records):
    got = evaluate_run(config, split, records)
    assert got == reference_evaluate_run(config, split, records)
    return got


class TestEvaluateRunOracle:
    def test_tiny_run(self, tiny_eval):
        rows, _, per_user = assert_matches_reference(*tiny_eval)
        assert {r["model"] for r in rows} == {"grecs", "pop"}
        assert set(per_user) == {"warm_test", "cold_val", "cold_test"}

    def test_scored_cold_users_absent_from_train_graph(self, tiny_eval):
        config, split, records = tiny_eval
        g = split.train_graph
        cold = [*split.cold_val, *split.cold_test]
        assert cold and not any(g.has_entity(g.schema.user_type, u) for u in cold)
        only_cold = dataclasses.replace(split, warm_test={})
        rows, _, _ = assert_matches_reference(config, only_cold, records)
        assert {r["cohort"] for r in rows} == {"cold_val", "cold_test", "test"}

    def test_empty_served_lists(self, tiny_eval):
        config, split, records = tiny_eval
        empty = [{**r, "served": False, "items": []} for r in records]
        _, patterns, _ = assert_matches_reference(config, split, empty)
        assert all(report == [] for report in patterns.values())
        half = [r if i % 2 else {**r, "items": []} for i, r in enumerate(records)]
        assert_matches_reference(config, split, half)

    def test_user_who_bought_the_most_popular_items(self, tiny_eval):
        config, split, records = tiny_eval
        k = config.inference.topk
        g = GraphWriter(split.train_graph)
        top = pop_baseline(g.graph, k).ordered_items[:k]
        fan = g.add_entity(g.schema.user_type, "fan")
        g.add_triplets([fan] * k, [g.interaction_relation] * k,
                       [g.entity_id(g.schema.item_type, i) for i in top])
        g = g.graph
        rest = [name for name in pop_baseline(g, 2 * k).ordered_items if name not in top]
        scored = dataclasses.replace(split, train_graph=g,
                                     warm_test={**split.warm_test, "fan": rest[:2]})
        fan_record = {"user": "fan", "cohort": "warm_test", "served": True, "items": []}
        assert_matches_reference(config, scored, [*records, fan_record])
        assert not set(pop_baseline(g, k).recommend("fan")) & set(top)

    def test_recommended_names_unknown_to_popularity(self, tiny_eval):
        config, split, records = tiny_eval
        ghosts = [{**r, "items": [{"item": f"ghost-{j}", "path": {"pattern": "ghost"}}
                                  for j in range(3)] + r["items"]} for r in records]
        rows, patterns, _ = assert_matches_reference(config, split, ghosts)
        assert all("ghost" in dict(p) for p in patterns.values())
        assert any(r["metric"].startswith("popb") for r in rows)

    @pytest.mark.parametrize("k", [1, 4, 10, 40])
    def test_seeded_random_records(self, tiny_eval, k):
        """Random lists over training items, cold items and names outside
        the catalog, one of which is also relevant; empty, missing and
        short lists; and a user who bought the k most popular items. At k
        40 every list, the pop lists included, is shorter than k."""
        config, split, _ = tiny_eval
        config = dataclasses.replace(
            config, inference=dataclasses.replace(config.inference, topk=k))
        g = GraphWriter(split.train_graph)
        top = pop_baseline(g.graph, k).ordered_items[:k]
        fan = g.add_entity(g.schema.user_type, "fan")
        g.add_triplets([fan] * len(top), [g.interaction_relation] * len(top),
                       [g.entity_id(g.schema.item_type, i) for i in top])
        ghost = "ghost-0"
        catalog = [*train_popularity(g.graph), *split.cold_items, ghost, "ghost-1", "ghost-2"]
        rng = rng_for(28, f"eval-records-{k}")
        cohorts = {c: dict(getattr(split, c)) for c in COHORTS}
        first = next(iter(cohorts["warm_test"]))
        cohorts["warm_test"][first] = [*cohorts["warm_test"][first], ghost]
        cohorts["warm_test"]["fan"] = [str(x) for x in rng.choice(catalog, 3, replace=False)]
        # every name is relevant to "keen", whose list of 10 all hit: a DCG of 8 or
        # more terms, whose bits depend on the order of the sum
        cohorts["warm_test"]["keen"] = catalog
        records = []
        for cohort, users in cohorts.items():
            for j, user in enumerate(users):
                if j == 1:
                    continue  # no record: scored as an empty list
                n = int(rng.integers(0, min(k + 3, 12) + 1))
                names = [str(x) for x in rng.choice(catalog, size=n, replace=False)]
                if user == first:
                    names = [ghost, *(x for x in names if x != ghost)]
                elif user == "keen":
                    names = catalog[:10]
                records.append({"user": user, "cohort": cohort, "served": True,
                                "items": [{"item": x, "path": {"pattern": "p"}} for x in names]})
        scored = dataclasses.replace(split, train_graph=g.graph, **cohorts)
        rows, _, per_user = assert_matches_reference(config, scored, records)
        assert per_user["warm_test"][first]["hit"] == 1.0
        lengths = {len(r["items"]) for r in records}
        assert 0 in lengths and (k == 1 or any(0 < n < k for n in lengths))
        assert any(r["metric"] == f"coverage@{k}" and r["value"] > 0 for r in rows)

    def test_sweep_shape(self, tiny_eval):
        config, split, records = tiny_eval
        cold = [r for r in records if r["cohort"] != "warm_test"]
        rows, _, per_user = assert_matches_reference(
            config, dataclasses.replace(split, warm_test={}), cold)
        assert "warm_test" not in per_user
        assert rows


def _counted_reads(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        raw = getattr(KnowledgeGraph, name)

        def counted(self, *args, _raw=raw, _name=name, **kwargs):
            counts[_name] += 1
            return _raw(self, *args, **kwargs)

        monkeypatch.setattr(KnowledgeGraph, name, counted)
    return counts


def _catalog_with_users(n_unscored: int) -> KnowledgeGraph:
    """Two scored users and ``n_unscored`` others over one 30-item catalog."""
    g = GraphWriter(synthetic_schema())
    items = [g.add_entity("item", f"i{j}") for j in range(30)]
    rng = rng_for(4, "eval-cost")
    heads, tails = [], []
    for name in ["s0", "s1", *(f"other{j}" for j in range(n_unscored))]:
        user = g.add_entity("user", name)
        bought = rng.choice(len(items), size=4, replace=False)
        heads += [user] * len(bought)
        tails += [items[int(j)] for j in bought]
    g.add_triplets(heads, [g.interaction_relation] * len(heads), tails)
    return g.graph


def test_graph_reads_follow_the_scored_users(monkeypatch):
    config = RunConfig()
    records = [{"user": u, "cohort": "warm_test", "served": True,
                "items": [{"item": "i3", "path": {"pattern": "p"}}]} for u in ("s0", "s1")]
    reads = ("entity_name", "interaction_counts", "user_items", "interactions_by_user")
    seen = []
    for n_unscored in (50, 5000):
        split = SimpleNamespace(train_graph=_catalog_with_users(n_unscored),
                                warm_test={"s0": ["i1", "i2"], "s1": ["i5"]},
                                cold_val={}, cold_test={}, cold_items=[])
        counts = _counted_reads(monkeypatch, reads)
        evaluate_run(config, split, records)
        seen.append(counts)
        monkeypatch.undo()
    assert seen[0] == seen[1]
    assert seen[0]["interactions_by_user"] == 0


def test_training_items_read_for_the_scored_users_only(monkeypatch):
    """``evaluate_run`` reads training items through ``users_items``, for
    the scored users in the graph and no one else."""
    config = RunConfig()
    asked = []
    read = KnowledgeGraph.users_items

    def recording(self, users):
        asked.append([self.entity_name(u) for u in users])
        return read(self, users)

    monkeypatch.setattr(KnowledgeGraph, "users_items", recording)
    split = SimpleNamespace(train_graph=_catalog_with_users(300),
                            warm_test={"s1": ["i1"], "s0": ["i2"], "cold": ["i3"]},
                            cold_val={}, cold_test={}, cold_items=[])
    evaluate_run(config, split, [])
    assert asked == [["s1", "s0"]]


def test_popularity_sorted_once_per_run(monkeypatch, tiny_eval):
    """``evaluate_run`` orders the popularity table once, with
    ``metrics.popularity_order``; every cohort's pop lists and popb
    normalizers read that order instead of sorting the table again."""
    from pathrec import metrics

    tables = []
    order = metrics.popularity_order

    def counting_order(names, counts):
        tables.append(len(names))
        return order(names, counts)

    monkeypatch.setattr(metrics, "popularity_order", counting_order)
    config, split, records = tiny_eval
    rows, _, _ = evaluate_run(config, split, records)
    assert sum(r["metric"].startswith("popb") for r in rows) >= 4
    assert tables == [len(train_popularity(split.train_graph))]


def test_popb_equals_its_definition():
    """Each user's top-k popularity mass over the k largest popularities
    outside the user's excluded items, averaged over users."""
    def definition(recs, popularity, k, exclude):
        total = 0.0
        for user, items in recs.items():
            best = sum(sorted((n for i, n in popularity.items() if i not in exclude[user]),
                              reverse=True)[:k])
            total += sum(popularity.get(i, 0) for i in items[:k]) / best if best else 0.0
        return total / len(recs)

    rng = rng_for(15, "popb-ordered")
    for _ in range(200):
        popularity = {f"i{j}": int(rng.integers(0, 5)) for j in range(int(rng.integers(1, 12)))}
        items = list(popularity) + ["unseen"]
        recs = {f"u{j}": [str(x) for x in rng.choice(items, size=int(rng.integers(0, 5)))]
                for j in range(3)}
        exclude = {u: {i for i in popularity if rng.random() < 0.3} for u in recs}
        k = int(rng.integers(1, 6))
        assert popb_at_k(recs, popularity, k, exclude) == definition(recs, popularity, k, exclude)


def _random_graphs():
    """Shop graphs (derived user edges: inverse and non-interaction) and
    multi-edge graphs, each extended by users without edges and items
    without interactions."""
    for seed in range(4):
        for base in (build_shop_graph(synthetic_schema(), n_users=3 + seed, n_items=5 + 2 * seed,
                                      interactions=2 + seed % 3, seed=70 + seed),
                     build_multi_edge_graph(n_users=2 + seed, n_items=6 + seed, seed=seed)):
            g = GraphWriter(base)
            g.add_entity(g.schema.user_type, "lonely")
            idle = g.add_entity(g.schema.item_type, "idle")
            rel = next(r for r, spec in enumerate(g.schema.relations)
                       if spec.head_type == g.schema.item_type)
            g.add_triplet(idle, rel, g.entities_of_type(g.schema.relations[rel].tail_type)[0])
            yield g.graph


class TestGraphReadsPinned:
    def test_user_items_is_the_forward_interaction_set(self):
        for g in _random_graphs():
            triplets = list(g.triplets())
            for e in range(g.entity_count):
                want = {t for h, r, t in triplets if h == e and r == g.interaction_relation}
                got = g.user_items(e)
                assert isinstance(got, frozenset) and got == want
            with pytest.raises(UnknownEntity):
                g.user_items(g.entity_count)

    def test_users_items_is_user_items_of_each_user(self):
        for g in _random_graphs():
            users = [*range(g.entity_count - 1, -1, -1), 0]  # any order, one repeated
            rows, items = g.users_items(users)
            for row, e in enumerate(users):
                assert set(items[rows == row].tolist()) == g.user_items(e)
            assert len(items) == sum(len(g.user_items(e)) for e in users)
            assert [len(a) for a in g.users_items([])] == [0, 0]
            with pytest.raises(UnknownEntity):
                g.users_items([g.entity_count])

    def test_interaction_counts_and_train_popularity(self):
        for g in _random_graphs():
            triplets = list(g.triplets())
            want = [sum(1 for _, r, t in triplets if r == g.interaction_relation and t == e)
                    for e in range(g.entity_count)]
            counts = g.interaction_counts()
            assert counts.tolist() == want and not counts.flags.writeable
            assert train_popularity(g) == {g.entity_name(i): want[i] for i in g.items()}
            assert 0 in train_popularity(g).values()

    def test_pop_baseline_train_items(self):
        for g in _random_graphs():
            by_user = g.interactions_by_user()
            want = {g.entity_name(u): {g.entity_name(i) for i in by_user.get(u, ())}
                    for u in g.users()}
            train_items = pop_baseline(g, 3).train_items
            assert dict(train_items) == want and len(train_items) == len(want)
            assert train_items.get("no-such-user") is None

    def test_counts_follow_writes_on_a_mutable_graph(self, tiny_graph):
        g = GraphWriter(tiny_graph)
        i2 = g.entity_id("item", "i2")
        assert g.interaction_counts()[i2] == 1
        g.add_triplet(g.entity_id("user", "u0"), g.interaction_relation, i2)
        assert g.interaction_counts()[i2] == 2 and g.interaction_counts().sum() == 4  # purchases
        assert g.user_items(g.entity_id("user", "u0")) == {
            g.entity_id("item", n) for n in ("i0", "i1", "i2")}
