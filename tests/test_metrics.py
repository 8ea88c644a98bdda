import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.embeddings import rng_for
from pathrec.errors import EmptyColdSet, InvalidSpec
from pathrec.metrics import cold_item_coverage, hit_at_k, ndcg_at_k, ndcg_rows, pattern_report

from oracles import cold_item_proportion, pop_baseline, popb_at_k, train_popularity


def brute_ndcg(recommended, relevant, k):
    dcg = 0.0
    for rank, item in enumerate(recommended[:k]):
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 2)
    ideal = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(relevant))))
    return dcg / ideal if relevant else 0.0


class TestRankingMetrics:
    def test_random_instances_against_oracle(self):
        rng = rng_for(21, "metric-oracle")
        for _ in range(500):
            n_items = int(rng.integers(1, 40))
            items = [f"i{j}" for j in range(n_items)]
            rec_len = int(rng.integers(0, n_items + 1))
            recommended = list(rng.choice(items, size=rec_len, replace=False))
            relevant = {i for i in items if rng.random() < 0.3}
            k = int(rng.integers(1, 15))
            assert ndcg_at_k(recommended, relevant, k) == pytest.approx(
                brute_ndcg(recommended, relevant, k), abs=1e-12)
            want_hit = 1.0 if set(recommended[:k]) & relevant else 0.0
            assert hit_at_k(recommended, relevant, k) == want_hit

    def test_known_values(self):
        assert ndcg_at_k(["a", "b"], {"a"}, 10) == 1.0
        # a hit at rank 2 of an ideal single hit: log2(2)/log2(3)
        assert ndcg_at_k(["x", "a"], {"a"}, 10) == pytest.approx(
            math.log2(2) / math.log2(3))
        assert ndcg_at_k(["x"], {"a"}, 10) == 0.0
        assert ndcg_at_k([], set(), 5) == 0.0
        assert hit_at_k(["x", "a"], {"a"}, 1) == 0.0
        assert hit_at_k(["x", "a"], {"a"}, 2) == 1.0

    def test_ndcg_where_the_naive_sum_is_not_fsum(self):
        """Hits at ranks 1, 2, 3 and 6 of a list of 6, with 6 relevant
        items: the left-to-right sums of the discounts, for the DCG and
        the ideal DCG, both differ from the exact ``math.fsum``, which a
        compensated sum (Python 3.12's built-in ``sum``) can reach.
        ``ndcg_at_k`` adds left to right on every Python version, so it
        still equals ``ndcg_rows`` bit for bit."""
        discounts = [1.0 / math.log2(rank + 1) for rank in range(1, 7)]
        dcg_terms = [discounts[rank - 1] for rank in (1, 2, 3, 6)]
        for terms in (dcg_terms, discounts):
            assert reduce(operator.add, terms, 0.0) != math.fsum(terms)
        recommended = ["a", "b", "c", "x", "y", "d"]
        relevant = {"a", "b", "c", "d", "e", "f"}
        got = ndcg_at_k(recommended, relevant, 6)
        hits = np.asarray([[item in relevant for item in recommended]])
        assert got == ndcg_rows(hits, np.asarray([len(relevant)]))[0]
        assert got == reduce(operator.add, dcg_terms, 0.0) / reduce(operator.add, discounts, 0.0)

    def test_k_validation(self):
        with pytest.raises(InvalidSpec):
            ndcg_at_k(["a"], {"a"}, 0)
        with pytest.raises(InvalidSpec):
            hit_at_k(["a"], {"a"}, 0)

    @given(st.lists(st.integers(0, 50), max_size=30, unique=True),
           st.sets(st.integers(0, 50), max_size=30),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_ndcg_bounds_and_monotone_k(self, recommended, relevant, k):
        v = ndcg_at_k(recommended, relevant, k)
        assert 0.0 <= v <= 1.0
        assert hit_at_k(recommended, relevant, k) in (0.0, 1.0)
        if k > 1:
            assert hit_at_k(recommended, relevant, k) >= \
                hit_at_k(recommended, relevant, k - 1)


class TestPopularity:
    def test_train_popularity_counts(self, tiny_graph):
        pop = train_popularity(tiny_graph)
        assert pop == {"i0": 1, "i1": 1, "i2": 1}

    def test_popb_oracle_random(self):
        rng = rng_for(8, "popb-oracle")
        for _ in range(500):
            items = [f"i{j}" for j in range(int(rng.integers(3, 25)))]
            popularity = {i: int(rng.integers(0, 9)) for i in items}
            users = [f"u{j}" for j in range(int(rng.integers(1, 6)))]
            k = int(rng.integers(1, 8))
            recs, excl = {}, {}
            for u in users:
                n = int(rng.integers(0, len(items) + 1))
                recs[u] = list(rng.choice(items, size=n, replace=False))
                excl[u] = {i for i in items if rng.random() < 0.2}
            want = 0.0
            for u in users:
                pool = sorted((i for i in items if i not in excl[u]),
                              key=lambda it: (-popularity[it], it))[:k]
                denom = sum(popularity[i] for i in pool)
                num = sum(popularity[i] for i in recs[u][:k])
                want += (num / denom) if denom else 0.0
            want /= len(users)
            got = popb_at_k(recs, popularity, k, exclude_per_user=excl)
            assert got == pytest.approx(want, abs=1e-12)

    def test_pop_recommender_scores_exactly_one(self, make_graph):
        for seed in (0, 1, 2):
            g = make_graph(n_users=10, n_items=14, interactions=4, seed=seed)
            k = 5
            baseline = pop_baseline(g, k)
            popularity = train_popularity(g)
            users = [g.entity_name(u) for u in g.users()]
            recs = {u: baseline.recommend(u) for u in users}
            score = popb_at_k(recs, popularity, k,
                              exclude_per_user=baseline.train_items)
            assert score == 1.0

    def test_popb_empty_and_zero_denominator(self):
        assert popb_at_k({}, {"i0": 3}, 5) == 0.0
        # everything excluded: denominator 0 contributes 0
        got = popb_at_k({"u": ["i0"]}, {"i0": 3}, 1,
                        exclude_per_user={"u": {"i0"}})
        assert got == 0.0

    def test_pop_baseline_filters_and_truncates(self, tiny_graph):
        baseline = pop_baseline(tiny_graph, 2)
        # ties broken by name: i0, i1, i2 all have one purchase
        assert baseline.recommend("u0") == ["i2"]  # u0 bought i0 and i1
        assert baseline.recommend("u1") == ["i0", "i1"]
        assert baseline.recommend("unknown-user") == ["i0", "i1"]


class TestColdMetrics:
    def test_coverage_and_proportion_oracle(self):
        rng = rng_for(31, "cold-oracle")
        for _ in range(500):
            items = [f"i{j}" for j in range(int(rng.integers(4, 30)))]
            cold = {i for i in items if rng.random() < 0.3} or {items[0]}
            users = [f"u{j}" for j in range(int(rng.integers(1, 7)))]
            k = int(rng.integers(1, 9))
            recs = {u: list(rng.choice(items, size=int(rng.integers(0, len(items))),
                                       replace=False)) for u in users}
            seen = set()
            prop = 0.0
            for u in users:
                top = recs[u][:k]
                seen.update(i for i in top if i in cold)
                prop += sum(1 for i in top if i in cold) / k
            assert cold_item_coverage(recs, cold, k) == pytest.approx(
                len(seen) / len(cold), abs=1e-12)
            assert cold_item_proportion(recs, cold, k) == pytest.approx(
                prop / len(users), abs=1e-12)

    def test_empty_cold_set_rejected(self):
        with pytest.raises(EmptyColdSet):
            cold_item_coverage({"u": ["i0"]}, set(), 5)
        with pytest.raises(EmptyColdSet):
            cold_item_proportion({"u": ["i0"]}, set(), 5)

    def test_proportion_divides_by_k_not_list_length(self):
        got = cold_item_proportion({"u": ["c"]}, {"c"}, 4)
        assert got == 0.25


class TestPatternReport:
    def test_percentages_and_order(self):
        labels = ["A"] * 3 + ["B"] * 6 + ["C"]
        report = pattern_report(labels)
        assert report == [("B", 60.0), ("A", 30.0), ("C", 10.0)]
        assert sum(p for _, p in report) == pytest.approx(100.0, abs=1e-9)

    def test_tie_breaks_alphabetical(self):
        report = pattern_report(["B", "A"])
        assert report == [("A", 50.0), ("B", 50.0)]

    def test_empty(self):
        assert pattern_report([]) == []

    @given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_hundred(self, labels):
        report = pattern_report(labels)
        assert sum(p for _, p in report) == pytest.approx(100.0, abs=1e-9)
        assert {lab for lab, _ in report} == set(labels)
