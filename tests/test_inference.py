import json
import os

import numpy as np
import pytest

from pathrec import coldstart
from pathrec.datasets import DatasetSplit
from pathrec.embeddings import (EmbedTrainConfig, EmbeddingTable, init_table, load_table,
                                score_tails)
from pathrec.errors import InvalidSpec, MissingEmbedding, UnknownUser
from pathrec.graph import FORWARD, INVERSE, parse_entity_token
from pathrec.inference import (ScoredPath, beam_search, explain, path_record,
                               rank_recommendations)
from pathrec.mdp import SELF_LOOP, PathState
from pathrec.pipeline import RunConfig, RunPaths, _ordered_profiles, run_pipeline
from pathrec.policy import AgentConfig, PolicyModel

from conftest import build_multi_edge_graph
from oracles import (Action, GraphWriter, beam_of, beam_paths, encode_state, is_complete,
                     reference_beam_search, step, valid_actions)
from test_pipeline import tiny_config


def fresh_policy(table, hop_budget, max_actions=50, seed=7):
    cfg = AgentConfig(hop_budget=hop_budget, max_actions=max_actions, hidden=(16, 8))
    return PolicyModel(table.dim, cfg, seed=seed)


def enumerate_paths(user, policy, graph, table, budget, cap):
    """Brute-force DFS over every legal action sequence with per-prefix
    probabilities composed through independent forward calls."""
    all_ids = np.arange(graph.entity_count, dtype=np.intp)
    scores = score_tails(table, user, graph.interaction_relation, all_ids)
    out = {}

    def walk(state, logprob):
        if is_complete(state):
            out[(state.entities, state.relations)] = logprob
            return
        slate = valid_actions(state, graph, max_actions=cap, user_scores=scores)
        X = encode_state(state, table)[None, :]
        probs, _, _ = policy.forward(X, np.asarray([len(slate)]))
        for i, action in enumerate(slate):
            walk(step(state, action, graph), logprob + float(np.log(probs[0, i])))

    walk(PathState.start(user, budget), 0.0)
    return out


def reference_beam(user, policy, graph, table, widths, cap):
    """Path-by-path beam search built from the scalar MDP functions; each
    path carries its first-layer sum to its children, and each hop encodes
    the blocks it added: the scalar state's last ones."""
    all_ids = np.arange(graph.entity_count, dtype=np.intp)
    scores = score_tails(table, user, graph.interaction_relation, all_ids)
    frontier = [(PathState.start(user, len(widths)), 0.0, None)]
    for width in widths:
        slates = [valid_actions(s, graph, max_actions=cap, user_scores=scores)
                  for s, _, _ in frontier]
        end = (1 + 2 * frontier[0][0].hops) * table.dim
        start = max(end - 2 * table.dim, 0)
        X = np.stack([encode_state(s, table)[start:end] for s, _, _ in frontier])
        carry = None
        if frontier[0][2] is not None:
            carry = np.stack([c for _, _, c in frontier]), start
        probs, _, cache = policy.forward(X, np.asarray([len(sl) for sl in slates]), carry)
        grown = []
        for row, ((state, lp, _), slate, p) in enumerate(zip(frontier, slates, probs)):
            order = sorted(range(len(slate)),
                           key=lambda i: (-p[i], slate[i].target, slate[i].relation,
                                          slate[i].direction))
            own = cache.sum1[row]
            for i in order[:width]:
                grown.append((step(state, slate[i], graph), lp + float(np.log(p[i])), own))
        frontier = grown
    return [(state, lp) for state, lp, _ in frontier]


def reference_rank(paths, graph, table, user, k):
    """Ranking by Python sorts over path objects: each item's first path
    in (-logprob, entities, relations) order, items by (-logprob, -f, id);
    returns (item, rank, logprob, path) per entry."""
    seen = graph.user_items(user)
    best = {}
    for p in sorted(paths, key=lambda p: (-p.logprob, p.state.entities, p.state.relations)):
        t = p.state.terminal
        if graph.entity_type(t) == graph.schema.item_type and t not in seen and t not in best:
            best[t] = p
    items = np.asarray(sorted(best), dtype=np.intp)
    f = dict(zip(items.tolist(),
                 score_tails(table, user, graph.interaction_relation, items).tolist()))
    ranked = sorted(best, key=lambda i: (-best[i].logprob, -f[i], i))[:k]
    return [(i, r + 1, best[i].logprob, best[i]) for r, i in enumerate(ranked)]


class TestBeamSearch:
    def test_rejects_non_user_and_bad_widths(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 2)
        item = tiny_graph.entity_id("item", "i0")
        with pytest.raises(UnknownUser):
            beam_search(item, policy, tiny_graph, small_table, [2, 2])
        user = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec):
            beam_search(user, policy, tiny_graph, small_table, [2, 0])

    def test_table_of_another_dim_rejected(self, tiny_graph, small_table):
        narrow = init_table(tiny_graph, EmbedTrainConfig(dim=4), seed=3)
        policy = fresh_policy(small_table, 3)  # 8-dim blocks; narrow's are 4-dim
        user = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="over 4-dim embeddings meet a policy of 3 hops "
                                              "over 8-dim"):
            beam_search(user, policy, tiny_graph, narrow, [2, 2, 2])

    def test_widths_other_than_the_hop_budget_rejected(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 3)
        user = tiny_graph.entity_id("user", "u0")
        for widths in ([2, 2], [2, 2, 2, 2]):
            with pytest.raises(InvalidSpec, match="3 hops"):
                beam_search(user, policy, tiny_graph, small_table, widths)

    def test_wide_beam_is_exhaustive(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        found = beam_search(u0, policy, tiny_graph, small_table, [50, 50])
        want = enumerate_paths(u0, policy, tiny_graph, small_table, 2, cap=50)
        got = {(p.state.entities, p.state.relations): p.logprob for p in beam_paths(found)}
        assert got.keys() == want.keys()
        for key, lp in want.items():
            assert got[key] == pytest.approx(lp, rel=1e-12)

    def test_wide_beam_exhaustive_three_hops(self, make_graph):
        g = make_graph(n_users=5, n_items=8, n_brands=2, n_categories=2,
                       interactions=3, seed=6)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=1)
        policy = fresh_policy(table, 3, max_actions=60, seed=2)
        user = g.entity_id("user", "u1")
        found = beam_search(user, policy, g, table, [60, 60, 60])
        want = enumerate_paths(user, policy, g, table, 3, cap=60)
        got = {(p.state.entities, p.state.relations): p.logprob for p in beam_paths(found)}
        assert got.keys() == want.keys()
        for key, lp in want.items():
            assert got[key] == pytest.approx(lp, rel=1e-12)

    def test_greedy_beam_follows_argmax(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 3)
        u0 = tiny_graph.entity_id("user", "u0")
        found = beam_search(u0, policy, tiny_graph, small_table, [1, 1, 1])
        assert len(found) == 1
        all_ids = np.arange(tiny_graph.entity_count, dtype=np.intp)
        scores = score_tails(small_table, u0, tiny_graph.interaction_relation,
                             all_ids)
        state = PathState.start(u0, 3)
        expect_lp = 0.0
        for _ in range(3):
            slate = valid_actions(state, tiny_graph, max_actions=50,
                                  user_scores=scores)
            X = encode_state(state, small_table)[None, :]
            probs, _, _ = policy.forward(X, np.asarray([len(slate)]))
            best = min(range(len(slate)),
                       key=lambda i: (-probs[0, i], slate[i].target,
                                      slate[i].relation, slate[i].direction))
            expect_lp += float(np.log(probs[0, best]))
            state = step(state, slate[best], tiny_graph)
        path = beam_paths(found)[0]
        assert path.state.entities == state.entities
        assert path.state.relations == state.relations
        assert path.logprob == pytest.approx(expect_lp, rel=1e-12)

    @pytest.mark.parametrize("seed,widths,cap", [
        (0, [25, 5, 1], 6), (1, [3, 3, 2], 60), (2, [4, 2], 3), (3, [1, 7, 3], 12)])
    def test_equals_scalar_reference_beam(self, make_graph, seed, widths, cap):
        g = make_graph(n_users=6, n_items=25, n_brands=2, n_categories=2,
                       interactions=9, seed=seed)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=seed)
        policy = fresh_policy(table, len(widths), max_actions=60, seed=seed)
        for user in g.users():
            got = beam_search(user, policy, g, table, widths, max_actions=cap)
            want = reference_beam(user, policy, g, table, widths, cap)
            assert [p.state for p in beam_paths(got)] == [s for s, _ in want]
            assert [p.logprob for p in beam_paths(got)] == [lp for _, lp in want]

    def test_tied_probabilities_follow_reference_order(self, make_graph):
        g = make_graph(n_users=4, n_items=12, interactions=6, seed=4)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        policy = fresh_policy(table, 3, max_actions=30)
        for param in policy.params:  # uniform slates: every choice is a tie
            param[...] = 0.0
        user = g.users()[1]
        got = beam_search(user, policy, g, table, [4, 3, 2])
        want = reference_beam(user, policy, g, table, [4, 3, 2], 30)
        assert [p.state for p in beam_paths(got)] == [s for s, _ in want]
        assert [p.logprob for p in beam_paths(got)] == [lp for _, lp in want]

    def test_multi_edge_ties_follow_reference_order(self):
        g = build_multi_edge_graph(seed=1)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        policy = fresh_policy(table, 3, max_actions=30)
        for param in policy.params:
            param[...] = 0.0
        for user in g.users():
            for cap in (3, 30):
                got = beam_search(user, policy, g, table, [5, 3, 2], max_actions=cap)
                want = reference_beam(user, policy, g, table, [5, 3, 2], cap)
                assert [p.state for p in beam_paths(got)] == [s for s, _ in want]
                assert [p.logprob for p in beam_paths(got)] == [lp for _, lp in want]

    def test_cap_above_policy_slate_rejected(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 2, max_actions=5)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="exceeds"):
            beam_search(u0, policy, tiny_graph, small_table, [2, 2], max_actions=6)
        assert len(beam_search(u0, policy, tiny_graph, small_table, [2, 2],
                               max_actions=5)) == 4

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, tiny_graph, small_table, cap):
        policy = fresh_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="max_actions must be >= 1"):
            beam_search(u0, policy, tiny_graph, small_table, [2, 2], max_actions=cap)

    @pytest.mark.parametrize("widths, cap", [([2.0, 2], None), ([True, 2], None),
                                             ((2, np.float64(2)), None), ([2, 2], 5.0),
                                             ([2, 2], True)])
    def test_bool_or_non_integer_widths_and_cap_rejected(self, tiny_graph, small_table,
                                                         widths, cap):
        policy = fresh_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="widths must be ints|max_actions must be an int"):
            beam_search(u0, policy, tiny_graph, small_table, widths, max_actions=cap)

    def test_table_short_of_graph_rejected(self, tiny_graph, small_table):
        short = EmbeddingTable(small_table.entity_vecs[:-1], small_table.entity_bias[:-1],
                               small_table.relation_vecs, small_table.self_loop_vec)
        policy = fresh_policy(short, 1)
        u0 = tiny_graph.entity_id("user", "u0")
        # one hop encodes only the start user, so no later lookup would fail
        with pytest.raises(MissingEmbedding):
            beam_search(u0, policy, tiny_graph, short, [2])

    def test_frontier_sizes_multiply(self, tiny_graph, small_table):
        policy = fresh_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        found = beam_search(u0, policy, tiny_graph, small_table, [2, 2])
        assert len(found) == 4


@pytest.fixture
def forwards(monkeypatch):
    """(rows, columns, carried) of every ``PolicyModel.forward`` call."""
    seen, forward = [], PolicyModel.forward

    def counting(policy, X, sizes, carry=None):
        seen.append((len(X), X.shape[1], carry is not None))
        return forward(policy, X, sizes, carry)

    monkeypatch.setattr(PolicyModel, "forward", counting)
    return seen


def assert_same_beam(got, want):
    for a, b in ((got.frontier.entities, want.frontier.entities),
                 (got.frontier.relations, want.frontier.relations),
                 (got.frontier.directions, want.frontier.directions),
                 (got.logprob, want.logprob)):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def served_runs(tmp_path_factory):
    """The TINY run and the default run at seed 1, as the recommend stage
    read them: (config, graph, cold table, policy, served users)."""
    base = tmp_path_factory.mktemp("served")
    runs = []
    for config in (tiny_config(str(base / "tiny")),
                   RunConfig.from_json({"seed": 1, "workdir": str(base / "default")})):
        run_pipeline(config)
        paths = RunPaths(config.workdir)
        split = DatasetSplit.read(paths.split_dir)
        aug, _ = coldstart.augment_graph(split.train_graph, _ordered_profiles(split))
        with open(paths.recs_file) as fh:
            users = [aug.entity_id(aug.schema.user_type, rec["user"])
                     for rec in map(json.loads, fh) if rec.get("served")]
        runs.append((config, aug, load_table(paths.cold_table_file, aug),
                     PolicyModel.load(paths.policy_file), users))
    return runs


class TestRelationTerms:
    """Beam search reads each hop's relation block product from the
    policy's relation terms; its beams are the full-block beam's bits."""

    def test_served_beams_equal_the_full_block_beam(self, served_runs, forwards):
        for config, graph, table, policy, users in served_runs:
            assert users
            widths, cap = config.inference.widths, config.agent.max_actions
            forwards.clear()
            for user in users:
                assert_same_beam(beam_search(user, policy, graph, table, widths, max_actions=cap),
                                 reference_beam_search(user, policy, graph, table, widths, cap))
            # every hop after the first reads the entity block alone
            carried = [(rows, cols) for rows, cols, carry in forwards if carry]
            assert all(cols == table.dim for _, cols in carried)
            assert any(rows > 1 for rows, _ in carried)

    def test_one_row_hops_fold(self, make_graph, forwards):
        """A hop of one row reads its relation block's product from the
        terms too, as a hop of many rows does."""
        g = make_graph(n_users=5, n_items=20, n_brands=2, n_categories=2,
                       interactions=6, seed=3)
        writer = GraphWriter(g)
        lonely = writer.add_entity("user", "lonely")  # its only move is the self-loop
        g = writer.graph
        table = init_table(g, EmbedTrainConfig(dim=6), seed=3)
        policy = fresh_policy(table, 3, max_actions=30).freeze()
        for user, widths in ((g.users()[0], (1, 4, 3)), (g.users()[1], (1, 1, 5)),
                             (lonely, (25, 5, 1))):
            forwards.clear()
            got = beam_search(user, policy, g, table, widths)
            assert_same_beam(got, reference_beam_search(user, policy, g, table, widths, 30))
            assert forwards[1] == (1, table.dim, True)
        assert got.frontier.relations.tolist() == [[SELF_LOOP] * 3]

    def test_blocks_wider_than_one_product_fold_by_parts(self, make_graph, forwards):
        """With d over ``K_BLOCK`` a block's product sums in parts, and
        each part's term is added in turn, as ``forward`` adds them."""
        g = make_graph(n_users=3, n_items=10, interactions=4, seed=5)
        rng = np.random.default_rng(5)  # unit rows: a rounding step reaches the logprobs
        table = EmbeddingTable(rng.normal(size=(g.entity_count, 300)),
                               np.zeros(g.entity_count),
                               rng.normal(size=(len(g.schema.relations), 300)),
                               rng.normal(size=300))
        policy = fresh_policy(table, 3, max_actions=30).freeze()
        R = len(g.schema.relations)
        assert [policy.relation_terms(table, hop).shape for hop in (1, 2)] == [(2, R + 1, 16)] * 2
        for user in g.users():
            assert_same_beam(beam_search(user, policy, g, table, (4, 3, 2)),
                             reference_beam_search(user, policy, g, table, (4, 3, 2), 30))
        assert any(rows > 1 and cols == 300 and carried for rows, cols, carried in forwards)

    def test_writable_policy_follows_an_edit_of_w1(self, make_graph):
        g = make_graph(n_users=4, n_items=15, interactions=5, seed=2)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=2)
        policy = fresh_policy(table, 3, max_actions=30)
        user = g.users()[0]
        first = beam_search(user, policy, g, table, (4, 3, 2))
        for hop in (1, 2):
            assert policy.relation_terms(table, hop) is not policy.relation_terms(table, hop)
        d = table.dim
        policy.W1[d:2 * d] *= 3.0    # hop 1's relation block
        policy.W1[3 * d:4 * d] = 0.0  # hop 2's
        again = beam_search(user, policy, g, table, (4, 3, 2))
        assert_same_beam(again, reference_beam_search(user, policy, g, table, (4, 3, 2), 30))
        assert not np.array_equal(again.logprob, first.logprob)

    def test_changed_relation_rows_get_fresh_terms(self, make_graph):
        g = make_graph(n_users=4, n_items=15, interactions=5, seed=2)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=2)
        policy = fresh_policy(table, 3, max_actions=30).freeze()
        terms = [policy.relation_terms(table, hop) for hop in (1, 2)]
        for hop in (1, 2):  # same rows, kept, each hop's own
            assert policy.relation_terms(table.copy(), hop) is terms[hop - 1]
        for name in ("relation_vecs", "self_loop_vec"):
            other = table.copy()
            getattr(other, name)[0] += 0.5
            for hop in (1, 2):
                assert policy.relation_terms(other, hop) is not terms[hop - 1]
            for user in g.users():
                for t in (other, table):
                    assert_same_beam(beam_search(user, policy, g, t, (4, 3, 2)),
                                     reference_beam_search(user, policy, g, t, (4, 3, 2), 30))

    def test_a_loaded_policy_computes_its_terms_once(self, served_runs, monkeypatch):
        config, graph, table, _, users = served_runs[0]
        policy = PolicyModel.load(RunPaths(config.workdir).policy_file)
        got, relation_terms = [], PolicyModel.relation_terms
        monkeypatch.setattr(PolicyModel, "relation_terms", lambda self, t, hop: got.append(
            (hop, relation_terms(self, t, hop))) or got[-1][1])
        for t in (table, table.copy()):
            beam_search(users[0], policy, graph, t, config.inference.widths)
        # one fold per hop after the first, each on its hop's terms computed once
        hops = list(range(1, len(config.inference.widths)))
        assert [hop for hop, _ in got] == hops * 2
        first = dict(got[:len(hops)])
        assert all(terms is first[hop] for hop, terms in got)
        assert first[1] is not first[2]


class TestRanking:
    @pytest.fixture
    def brand_graph(self, schema):
        """u0 bought i0; i0..i3 share brand b0, so i1..i3 are reachable and
        recommendable through the brand in three hops."""
        g = GraphWriter(schema)
        u0 = g.add_entity("user", "u0")
        items = [g.add_entity("item", f"i{n}") for n in range(4)]
        b0 = g.add_entity("brand", "b0")
        pb = g.relation_id("produced_by")
        for it in items:
            g.add_triplet(it, pb, b0)
        g.add_triplet(u0, g.relation_id("purchase"), items[0])
        return g.graph

    def path_to(self, g, item_name, budget=3):
        u0 = g.entity_id("user", "u0")
        i0 = g.entity_id("item", "i0")
        b0 = g.entity_id("brand", "b0")
        target = g.entity_id("item", item_name)
        s = PathState.start(u0, budget)
        s = step(s, Action(g.relation_id("purchase"), i0, FORWARD), g)
        s = step(s, Action(g.relation_id("produced_by"), b0, FORWARD), g)
        s = step(s, Action(g.relation_id("produced_by"), target, INVERSE), g)
        return s

    def test_order_dedup_and_filtering(self, brand_graph):
        g = brand_graph
        table = init_table(g, EmbedTrainConfig(dim=8), seed=2)
        u0 = g.entity_id("user", "u0")
        b0 = g.entity_id("brand", "b0")
        to_brand = PathState.start(u0, 3)
        to_brand = step(to_brand, Action(g.relation_id("purchase"),
                                         g.entity_id("item", "i0"), FORWARD), g)
        to_brand = step(to_brand, Action(g.relation_id("produced_by"), b0,
                                         FORWARD), g)
        to_brand = step(to_brand, Action(SELF_LOOP, b0, FORWARD), g)
        i0 = g.entity_id("item", "i0")
        to_seen = PathState.start(u0, 3)
        to_seen = step(to_seen, Action(g.relation_id("purchase"), i0, FORWARD), g)
        to_seen = step(to_seen, Action(SELF_LOOP, i0, FORWARD), g)
        to_seen = step(to_seen, Action(SELF_LOOP, i0, FORWARD), g)

        paths = [
            ScoredPath(self.path_to(g, "i3"), -0.5),
            ScoredPath(self.path_to(g, "i1"), -1.0),
            ScoredPath(self.path_to(g, "i2"), -1.0),
            ScoredPath(self.path_to(g, "i1"), -2.0),  # dominated duplicate
            ScoredPath(to_brand, -0.1),               # not an item
            ScoredPath(to_seen, -0.05),               # already purchased
        ]
        ids = {n: g.entity_id("item", n) for n in ("i1", "i2", "i3")}
        f = score_tails(table, u0, g.interaction_relation,
                        np.asarray([ids["i1"], ids["i2"]], dtype=np.intp))
        tie = sorted(["i1", "i2"],
                     key=lambda n: (-f[0 if n == "i1" else 1], ids[n]))

        full = rank_recommendations(beam_of(paths), g, table, u0, k=10)
        assert full.items() == [ids["i3"], ids[tie[0]], ids[tie[1]]]
        assert [e.rank for e in full.entries] == [1, 2, 3]
        by_item = {e.item: e for e in full.entries}
        assert by_item[ids["i1"]].logprob == -1.0  # dedup kept the better path

        top2 = rank_recommendations(beam_of(paths), g, table, u0, k=2)
        assert top2.items() == full.items()[:2]

    @pytest.mark.parametrize("zero_table", [False, True])
    @pytest.mark.parametrize("kind", ["shop", "multi-edge"])
    def test_beam_ranks_like_its_paths_and_the_sorted_reference(self, make_graph, kind,
                                                                zero_table):
        """Tie-heavy beams: a zeroed policy ties the log probabilities of
        equally wide slates, the multi-edge graph ties paths on entities
        (two relations to one item), and a zeroed table ties f, leaving
        the item id."""
        g = (build_multi_edge_graph(seed=1) if kind == "multi-edge" else
             make_graph(n_users=4, n_items=12, interactions=6, seed=4))
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        if zero_table:
            table.entity_vecs[:] = 0.0
        policy = fresh_policy(table, 3, max_actions=30)
        for param in policy.params:
            param[...] = 0.0
        rng = np.random.default_rng(0)
        served = 0
        for user in g.users():
            beam = beam_search(user, policy, g, table, [5, 3, 2])
            paths = beam_paths(beam)
            got = rank_recommendations(beam, g, table, user, k=4)
            assert got == rank_recommendations(beam_of(paths), g, table, user, k=4)
            # shuffled, so that no tie is settled by the beam's own row order
            shuffled = [paths[i] for i in rng.permutation(len(paths))]
            assert got == rank_recommendations(beam_of(shuffled), g, table, user, k=4)
            assert ([(e.item, e.rank, e.logprob, e.path) for e in got.entries]
                    == reference_rank(paths, g, table, user, 4))
            served += len(got.entries)
        assert served

    def test_paths_of_different_hop_counts_rejected(self, tiny_graph, small_table):
        u0 = tiny_graph.entity_id("user", "u0")
        i0 = tiny_graph.entity_id("item", "i0")
        one = step(PathState.start(u0, 2), Action(tiny_graph.relation_id("purchase"), i0,
                                                  FORWARD), tiny_graph)
        paths = [ScoredPath(one, -1.0), ScoredPath(PathState.start(u0, 2), 0.0)]
        with pytest.raises(InvalidSpec, match="hops"):
            rank_recommendations(beam_of(paths), tiny_graph, small_table, u0, k=5)

    def test_foreign_user_rejected(self, tiny_graph, small_table):
        u0 = tiny_graph.entity_id("user", "u0")
        u1 = tiny_graph.entity_id("user", "u1")
        stray = ScoredPath(PathState.start(u1, 1), 0.0)
        with pytest.raises(UnknownUser):
            rank_recommendations(beam_of([stray]), tiny_graph, small_table, u0, k=5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, brand_graph, k):
        g = brand_graph
        table = init_table(g, EmbedTrainConfig(dim=8), seed=2)
        u0 = g.entity_id("user", "u0")
        beam = beam_of([ScoredPath(self.path_to(g, name), -1.0) for name in ("i1", "i2", "i3")])
        assert len(rank_recommendations(beam, g, table, u0, k=1).entries) == 1
        with pytest.raises(InvalidSpec, match="k must be >= 1"):
            rank_recommendations(beam, g, table, u0, k=k)

    @pytest.mark.parametrize("k", [10.0, True, "3"])
    def test_bool_or_non_integer_k_rejected(self, brand_graph, k):
        g = brand_graph
        table = init_table(g, EmbedTrainConfig(dim=8), seed=2)
        u0 = g.entity_id("user", "u0")
        beam = beam_of([ScoredPath(self.path_to(g, name), -1.0) for name in ("i1", "i2", "i3")])
        with pytest.raises(InvalidSpec, match="k must be an int"):
            rank_recommendations(beam, g, table, u0, k=k)

    def test_no_candidates_gives_empty_list(self, tiny_graph, small_table):
        u0 = tiny_graph.entity_id("user", "u0")
        out = rank_recommendations(beam_of([]), tiny_graph, small_table, u0, k=5)
        assert out.entries == ()
        assert out.items() == []


def record_ids(record, g):
    """A path record's entities and (relation, direction) steps, as ids."""
    entities = tuple(g.entity_id(*parse_entity_token(key)) for key in record["entities"])
    steps = tuple((SELF_LOOP if r["name"] == "self_loop" else g.relation_id(r["name"]),
                   FORWARD if r["direction"] == "forward" else INVERSE)
                  for r in record["relations"])
    return entities, steps


class TestExplanations:
    def test_self_loops_elided_and_round_trip(self, tiny_graph):
        g = tiny_graph
        u0 = g.entity_id("user", "u0")
        i0 = g.entity_id("item", "i0")
        s = PathState.start(u0, 3)
        s = step(s, Action(g.relation_id("purchase"), i0, FORWARD), g)
        s = step(s, Action(SELF_LOOP, i0, FORWARD), g)
        s = step(s, Action(SELF_LOOP, i0, FORWARD), g)
        record = path_record(s, g)
        assert explain(record) == "user:u0 -[purchase]-> item:i0"
        assert record_ids(record, g) == (s.entities, s.relations)

    def test_inverse_hop_rendering(self, tiny_graph):
        g = tiny_graph
        u0 = g.entity_id("user", "u0")
        i0 = g.entity_id("item", "i0")
        b0 = g.entity_id("brand", "b0")
        i1 = g.entity_id("item", "i1")
        s = PathState.start(u0, 3)
        s = step(s, Action(g.relation_id("purchase"), i0, FORWARD), g)
        s = step(s, Action(g.relation_id("produced_by"), b0, FORWARD), g)
        s = step(s, Action(g.relation_id("produced_by"), i1, INVERSE), g)
        record = path_record(s, g)
        assert explain(record) == ("user:u0 -[purchase]-> item:i0; "
                                   "item:i0 -[produced_by]-> brand:b0; "
                                   "brand:b0 <-[produced_by]- item:i1")
        assert record_ids(record, g) == (s.entities, s.relations)

    def test_all_self_loops_is_no_recommendation(self, tiny_graph):
        g = tiny_graph
        u0 = g.entity_id("user", "u0")
        s = PathState.start(u0, 2)
        s = step(s, Action(SELF_LOOP, u0, FORWARD), g)
        s = step(s, Action(SELF_LOOP, u0, FORWARD), g)
        assert explain(path_record(s, g)) == (
            "user:u0: no recommendation (path never left the user)")
