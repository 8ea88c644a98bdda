import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.embeddings import (EmbedTrainConfig, init_table, score_all_tails, score_tails,
                                score_triplet)
from pathrec.errors import MissingEmbedding
from pathrec.graph import FORWARD, INVERSE
from pathrec.mdp import (SELF_LOOP, Frontier, PathState, RewardSpec, path_signature,
                         signature_label)

from conftest import build_multi_edge_graph, build_shop_graph
from oracles import (Action, BudgetExhausted, GraphWriter, InvalidAction, encode_pair,
                     encode_state, frontier_of, is_complete, reference_slates, step, valid_actions)


def walk(graph, state, actions):
    for a in actions:
        state = step(state, a, graph)
    return state


@pytest.fixture
def u0_start(tiny_graph):
    return PathState.start(tiny_graph.entity_id("user", "u0"), 3)


class TestStep:
    def test_forward_move(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        s = step(u0_start, Action(pu, i0, FORWARD), tiny_graph)
        assert s.current == i0
        assert s.hops == 1 and s.budget == 3
        assert s.visited == frozenset((u0_start.user, i0))
        assert s.relations == ((pu, FORWARD),)

    def test_inverse_move(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        u1 = tiny_graph.entity_id("user", "u1")
        i2 = tiny_graph.entity_id("item", "i2")
        s = walk(tiny_graph, u0_start, [
            Action(pu, i0, FORWARD),
        ])
        # i0 was bought only by u0, so the inverse edge back is blocked (visited)
        with pytest.raises(InvalidAction, match="visited"):
            step(s, Action(pu, u0_start.user, INVERSE), tiny_graph)
        # from i2, the inverse interaction reaches u1
        s2 = PathState.start(i2, 2)
        s2 = step(s2, Action(pu, u1, INVERSE), tiny_graph)
        assert s2.current == u1

    def test_self_loop(self, tiny_graph, u0_start):
        s = step(u0_start, Action(SELF_LOOP, u0_start.user, FORWARD), tiny_graph)
        assert s.current == u0_start.user
        assert s.self_loops == 1
        assert s.visited == u0_start.visited  # loops do not extend visited
        with pytest.raises(InvalidAction, match="self-loop"):
            step(s, Action(SELF_LOOP, 99, FORWARD), tiny_graph)

    def test_missing_edge_rejected(self, tiny_graph, u0_start):
        b0 = tiny_graph.entity_id("brand", "b0")
        pu = tiny_graph.relation_id("purchase")
        with pytest.raises(InvalidAction, match="no edge"):
            step(u0_start, Action(pu, b0, FORWARD), tiny_graph)

    def test_budget_exhausted(self, tiny_graph, u0_start):
        loop = Action(SELF_LOOP, u0_start.user, FORWARD)
        s = walk(tiny_graph, u0_start, [loop, loop, loop])
        assert is_complete(s)
        with pytest.raises(BudgetExhausted):
            step(s, loop, tiny_graph)
        with pytest.raises(BudgetExhausted):
            valid_actions(s, tiny_graph)


class TestValidActions:
    def test_self_loop_first_and_canonical_order(self, tiny_graph, u0_start):
        acts = valid_actions(u0_start, tiny_graph)
        assert acts[0] == Action(SELF_LOOP, u0_start.user, FORWARD)
        moves = acts[1:]
        assert moves == sorted(moves)
        assert all(a.target != u0_start.user for a in moves)

    def test_visited_excluded(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        s = step(u0_start, Action(pu, i0, FORWARD), tiny_graph)
        targets = {a.target for a in valid_actions(s, tiny_graph)[1:]}
        assert u0_start.user not in targets

    def test_truncation_full_sort_oracle(self, make_graph):
        g = make_graph(n_users=6, n_items=20, n_brands=3, n_categories=2,
                       interactions=10, seed=3)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        u = g.users()[0]
        state = PathState.start(u, 3)
        cap = 4
        got = valid_actions(state, g, table=table, max_actions=cap)
        full = [Action(r, n, d) for r, n, d in g.neighbors(u) if n != u]
        assert len(full) > cap
        rel = g.interaction_relation
        scored = [(float(score_tails(table, u, rel, np.asarray([a.target]))[0]), a)
                  for a in full]
        keep = sorted(scored, key=lambda sa: (-sa[0], sa[1].relation, sa[1].target,
                                              sa[1].direction))[:cap]
        want = [Action(SELF_LOOP, u, FORWARD)] + sorted(a for _, a in keep)
        assert got == want

    def test_truncation_via_user_scores(self, make_graph):
        g = make_graph(n_users=6, n_items=20, n_brands=3, n_categories=2,
                       interactions=10, seed=3)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        u = g.users()[0]
        state = PathState.start(u, 3)
        rel = g.interaction_relation
        scores = score_tails(table, u, rel, np.arange(g.entity_count, dtype=np.intp))
        a = valid_actions(state, g, table=table, max_actions=4)
        b = valid_actions(state, g, max_actions=4, user_scores=scores)
        assert a == b

    def test_truncation_without_scores_rejected(self, make_graph):
        g = make_graph(n_users=6, n_items=20, n_brands=3, n_categories=2,
                       interactions=10, seed=3)
        state = PathState.start(g.users()[0], 3)
        with pytest.raises(MissingEmbedding):
            valid_actions(state, g, max_actions=4)

    def test_no_truncation_when_slate_fits(self, tiny_graph, u0_start):
        # small slates never need an embedding table
        acts = valid_actions(u0_start, tiny_graph, max_actions=250)
        assert len(acts) >= 2


class TestEncodeState:
    def test_layout_and_padding(self, tiny_graph, small_table, u0_start):
        d = small_table.dim
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        s = step(u0_start, Action(pu, i0, FORWARD), tiny_graph)
        x = encode_state(s, small_table)
        assert x.shape == (5 * d,)
        np.testing.assert_array_equal(x[:d], small_table.entity_vec(s.user))
        np.testing.assert_array_equal(x[d:2 * d], small_table.relation_vec(pu))
        np.testing.assert_array_equal(x[2 * d:3 * d], small_table.entity_vec(i0))
        assert np.all(x[3 * d:] == 0.0)

    def test_self_loop_uses_null_relation_vector(self, tiny_graph, small_table, u0_start):
        d = small_table.dim
        s = step(u0_start, Action(SELF_LOOP, u0_start.user, FORWARD), tiny_graph)
        x = encode_state(s, small_table)
        np.testing.assert_array_equal(x[d:2 * d], small_table.self_loop_vec)
        np.testing.assert_array_equal(x[2 * d:3 * d], small_table.entity_vec(s.user))


class TestSignatures:
    def test_trailing_self_loops_collapse(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        loop_i0 = Action(SELF_LOOP, i0, FORWARD)
        s = walk(tiny_graph, u0_start, [Action(pu, i0, FORWARD), loop_i0, loop_i0])
        sig = path_signature(s, tiny_graph)
        assert sig == ("user", (pu, FORWARD), "item")
        raw = (tiny_graph.entity_type(s.entities[0]),
               *(x for rel, ent in zip(s.relations, s.entities[1:])
                 for x in (rel, tiny_graph.entity_type(ent))))
        assert len(raw) == 7

    def test_leading_self_loop_kept(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        loop_u = Action(SELF_LOOP, u0_start.user, FORWARD)
        s = walk(tiny_graph, u0_start, [loop_u, Action(pu, i0, FORWARD)])
        sig = path_signature(s, tiny_graph)
        assert sig == ("user", (SELF_LOOP, FORWARD), "user", (pu, FORWARD), "item")

    def test_label_format(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        pb = tiny_graph.relation_id("produced_by")
        i0 = tiny_graph.entity_id("item", "i0")
        b0 = tiny_graph.entity_id("brand", "b0")
        i1 = tiny_graph.entity_id("item", "i1")
        s = walk(tiny_graph, u0_start, [Action(pu, i0, FORWARD),
                                        Action(pb, b0, FORWARD),
                                        Action(pb, i1, INVERSE)])
        label = signature_label(path_signature(s, tiny_graph), tiny_graph)
        assert label == "user -purchase-> item -produced_by-> brand <-produced_by- item"


def flat_pattern_spec(graph):
    """The pattern reward under a table that scores every item 1.0, so a
    row earns exactly 1.0 iff its walk matches a pattern at an item."""
    table = init_table(graph, EmbedTrainConfig(dim=4), seed=0)
    table.entity_vecs[:] = 0.0
    table.entity_bias[:] = 1.0
    return RewardSpec.pattern(graph, table)


class TestPatterns:
    def test_schema_patterns_compile_and_match(self, tiny_graph, u0_start):
        patterns = tiny_graph.schema.pattern_steps
        assert len(patterns) == len(tiny_graph.schema.path_patterns)
        like = tiny_graph.relation_id("like")
        pb = tiny_graph.relation_id("produced_by")
        b0 = tiny_graph.entity_id("brand", "b0")
        i1 = tiny_graph.entity_id("item", "i1")
        i0 = tiny_graph.entity_id("item", "i0")
        s = walk(tiny_graph, u0_start, [Action(like, b0, FORWARD),
                                        Action(pb, i1, INVERSE),
                                        Action(SELF_LOOP, i1, FORWARD)])
        # the shared-brand pattern needs all three hops
        pu = tiny_graph.relation_id("purchase")
        s2 = walk(tiny_graph, u0_start, [Action(pu, i0, FORWARD),
                                         Action(pb, b0, FORWARD),
                                         Action(pb, i1, INVERSE)])
        rewards = flat_pattern_spec(tiny_graph).terminal_reward(frontier_of([s, s2]))
        assert rewards.tolist() == [1.0, 1.0]

    def test_pattern_steps_inverse_tokens(self, tiny_graph):
        schema = dataclasses.replace(tiny_graph.schema, path_patterns=(
            ("user", "interested_in", "category", "~belong_to", "item"),))
        assert schema.pattern_steps == (((tiny_graph.relation_id("interested_in"), FORWARD),
                                         (tiny_graph.relation_id("belong_to"), INVERSE)),)


def direct_binary(graph, state):
    """1 iff the terminal is a training item of the start user and fewer
    than hops - 1 steps were self-loops."""
    return float(state.terminal in graph.user_items(state.user)
                 and state.self_loops < state.hops - 1)


def direct_gate(graph, state):
    """The terminal is an item and the path, trailing self-loops dropped,
    spells a schema pattern."""
    ents, rels = list(state.entities), list(state.relations)
    while rels and rels[-1][0] == SELF_LOOP:
        rels.pop()
        ents.pop()
    tokens = [graph.entity_type(ents[0])]
    for (rel, d), e in zip(rels, ents[1:]):
        name = "<self-loop>" if rel == SELF_LOOP else graph.relation_name(rel)
        tokens += [f"~{name}" if d == INVERSE else name, graph.entity_type(e)]
    return (graph.entity_type(state.terminal) == graph.schema.item_type
            and tokens in map(list, graph.schema.path_patterns))


def direct_pattern(graph, table, state, item_max):
    """f(u, e_T) / item_max clipped to [0, 1] (1 at or above an item_max
    <= 0) where ``direct_gate`` passes; 0 otherwise."""
    if not direct_gate(graph, state):
        return 0.0
    score = float(score_tails(table, state.user, graph.interaction_relation,
                              np.asarray([state.terminal], dtype=np.intp))[0])
    if item_max > 0:
        return min(max(score / item_max, 0.0), 1.0)
    return 1.0 if score >= item_max else 0.0


class TestRewards:
    def test_normalized_score_clipping(self, tiny_graph, u0_start):
        """Item scores set through the bias alone (zero vectors) and a
        chosen best score per case."""
        like = tiny_graph.relation_id("like")
        pb = tiny_graph.relation_id("produced_by")
        b0 = tiny_graph.entity_id("brand", "b0")
        i1 = tiny_graph.entity_id("item", "i1")
        s = walk(tiny_graph, u0_start, [Action(like, b0, FORWARD),
                                        Action(pb, i1, INVERSE),
                                        Action(SELF_LOOP, i1, FORWARD)])
        spec = flat_pattern_spec(tiny_graph)

        def reward(score, item_max):
            spec.table.entity_bias[i1] = score
            spec.item_max[s.user] = item_max
            return spec.terminal_reward(frontier_of([s]))[0]

        assert reward(0.5, 2.0) == 0.25
        assert reward(-0.5, 2.0) == 0.0
        assert reward(3.0, 2.0) == 1.0
        assert reward(-1.0, -2.0) == 1.0  # above a negative max
        assert reward(-3.0, -2.0) == 0.0

    def test_reward_binary_cases(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        pb = tiny_graph.relation_id("produced_by")
        bt = tiny_graph.relation_id("belong_to")
        like = tiny_graph.relation_id("like")
        interested = tiny_graph.relation_id("interested_in")
        i0 = tiny_graph.entity_id("item", "i0")
        i1 = tiny_graph.entity_id("item", "i1")
        i2 = tiny_graph.entity_id("item", "i2")
        b0 = tiny_graph.entity_id("brand", "b0")
        c0 = tiny_graph.entity_id("category", "c0")
        loop_i0 = Action(SELF_LOOP, i0, FORWARD)
        binary = RewardSpec.binary(tiny_graph)

        def reward(actions):
            return binary.terminal_reward(frontier_of([walk(tiny_graph, u0_start,
                                                            actions)]))[0]

        # a single effective hop (budget-1 self-loops) earns nothing
        assert reward([Action(pu, i0, FORWARD), loop_i0, loop_i0]) == 0.0
        loop_u = Action(SELF_LOOP, u0_start.user, FORWARD)
        assert reward([loop_u, Action(pu, i0, FORWARD), loop_i0]) == 0.0
        # two effective hops and a hit
        assert reward([Action(like, b0, FORWARD), Action(pb, i0, INVERSE),
                       Action(SELF_LOOP, i0, FORWARD)]) == 1.0
        assert reward([Action(pu, i0, FORWARD), Action(pb, b0, FORWARD),
                       Action(pb, i1, INVERSE)]) == 1.0
        # two effective hops to an item u0 never bought
        assert reward([Action(interested, c0, FORWARD), Action(bt, i2, INVERSE),
                       Action(SELF_LOOP, i2, FORWARD)]) == 0.0

    def test_reward_pattern_manual(self, tiny_graph, small_table, u0_start):
        rel = tiny_graph.interaction_relation
        items = np.asarray(tiny_graph.items(), dtype=np.intp)
        item_max = float(score_tails(small_table, u0_start.user, rel, items).max())
        like = tiny_graph.relation_id("like")
        pb = tiny_graph.relation_id("produced_by")
        b0 = tiny_graph.entity_id("brand", "b0")
        i1 = tiny_graph.entity_id("item", "i1")
        s = walk(tiny_graph, u0_start, [Action(like, b0, FORWARD),
                                        Action(pb, i1, INVERSE),
                                        Action(SELF_LOOP, i1, FORWARD)])
        spec = RewardSpec.pattern(tiny_graph, small_table)
        got = spec.terminal_reward(frontier_of([s]))[0]
        raw = score_triplet(small_table, u0_start.user, rel, i1)
        want = min(max(raw / item_max, 0.0), 1.0) if item_max > 0 else float(raw >= item_max)
        assert got == pytest.approx(want, rel=1e-12)

    def test_reward_pattern_gates(self, tiny_graph, small_table, u0_start):
        spec = RewardSpec.pattern(tiny_graph, small_table)
        like = tiny_graph.relation_id("like")
        b0 = tiny_graph.entity_id("brand", "b0")
        loop_b = Action(SELF_LOOP, b0, FORWARD)
        s = walk(tiny_graph, u0_start, [Action(like, b0, FORWARD), loop_b, loop_b])
        assert spec.terminal_reward(frontier_of([s]))[0] == 0.0

    def test_reward_spec_matches_direct(self, tiny_graph, small_table, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        loop_u = Action(SELF_LOOP, u0_start.user, FORWARD)
        s = walk(tiny_graph, u0_start, [loop_u, Action(pu, i0, FORWARD),
                                        Action(SELF_LOOP, i0, FORWARD)])
        binary = RewardSpec.binary(tiny_graph)
        assert binary.terminal_reward(frontier_of([s]))[0] == direct_binary(tiny_graph, s)
        pattern = RewardSpec.pattern(tiny_graph, small_table)
        items = np.asarray(tiny_graph.items(), dtype=np.intp)
        item_max = float(score_tails(small_table, s.user, tiny_graph.interaction_relation,
                                     items).max())
        want = direct_pattern(tiny_graph, small_table, s, item_max)
        assert pattern.terminal_reward(frontier_of([s]))[0] == want

    @pytest.mark.parametrize("seed", range(3))
    def test_terminal_reward_bitwise_on_random_frontiers(self, schema, seed):
        """Both modes, 1-4 hops, against the direct formulas bit for bit.

        The schema gains a pattern that ends at a user, which the item gate
        must still refuse. Item biases are -1 except one at 0, so most
        users' best item score is near 0 on either side; one user's query
        is exactly zero (best score 0.0) and one user's points at the
        0-bias item (best score > 0)."""
        to_user = ("user", "purchase", "item", "~purchase", "user")
        g = build_shop_graph(dataclasses.replace(
            schema, path_patterns=schema.path_patterns + (to_user,)),
            n_users=6, n_items=12, n_brands=2, n_categories=2, interactions=4, seed=seed)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=seed)
        rel = g.interaction_relation
        items = np.asarray(g.items(), dtype=np.intp)
        table.entity_bias[items] = -1.0
        table.entity_bias[items[0]] = 0.0
        zero_user, pos_user = g.users()[:2]
        table.entity_vecs[zero_user] = -table.relation_vecs[rel]
        table.entity_vecs[pos_user] = 50.0 * table.entity_vecs[items[0]] - table.relation_vecs[rel]
        item_max = {u: float(score_tails(table, u, rel, items).max()) for u in g.users()}
        assert item_max[zero_user] == 0.0 and item_max[pos_user] > 0.0
        binary, pattern = RewardSpec.binary(g), RewardSpec.pattern(g, table)
        to_user_sig = ("user", (rel, FORWARD), "item", (rel, INVERSE), "user")
        rng = np.random.default_rng(seed)
        seen = dict.fromkeys(("internal loop", "trailing loop", "non-item terminal",
                              "pattern to a user", "gated nonzero", "gated at best <= 0"),
                             False)
        for hops in range(1, 5):
            states = random_states(g, rng, 150, hops, budget=hops, loop_share=0.3)
            walked = frontier_of(states)
            got_binary = binary.terminal_reward(walked)
            got_pattern = pattern.terminal_reward(walked)
            want_binary = np.asarray([direct_binary(g, s) for s in states])
            want_pattern = np.asarray([direct_pattern(g, table, s, item_max[s.user])
                                       for s in states])
            assert got_binary.dtype == got_pattern.dtype == np.float64
            np.testing.assert_array_equal(got_binary.view(np.int64), want_binary.view(np.int64))
            np.testing.assert_array_equal(got_pattern.view(np.int64),
                                          want_pattern.view(np.int64))
            for s, r in zip(states, want_pattern.tolist()):
                loops = [rel_ == SELF_LOOP for rel_, _ in s.relations]
                seen["internal loop"] |= any(loops[:-1]) and not all(loops)
                seen["trailing loop"] |= loops[-1] and not all(loops)
                seen["non-item terminal"] |= g.entity_type(s.terminal) != g.schema.item_type
                seen["pattern to a user"] |= path_signature(s, g) == to_user_sig
                seen["gated nonzero"] |= r != 0.0
                seen["gated at best <= 0"] |= direct_gate(g, s) and item_max[s.user] <= 0.0
        assert all(seen.values()), seen


class TestWalkProperties:
    @given(seed=st.integers(0, 5_000), budget=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_walks_keep_invariants(self, seed, budget):
        from pathrec.datasets import synthetic_schema

        g = build_shop_graph(synthetic_schema(), n_users=4, n_items=8,
                             n_brands=3, n_categories=2, interactions=3,
                             seed=seed % 7)
        rng = np.random.default_rng(seed)
        state = PathState.start(g.users()[int(rng.integers(len(g.users())))], budget)
        while not is_complete(state):
            acts = valid_actions(state, g)
            assert acts[0].is_self_loop
            # every offered move is a real unvisited edge
            for a in acts[1:]:
                assert a.target not in state.visited
            state = step(state, acts[int(rng.integers(len(acts)))], g)
        assert state.hops == budget
        assert len(state.entities) == budget + 1
        non_loop = sum(1 for r, _ in state.relations if r != SELF_LOOP)
        assert non_loop + state.self_loops == budget
        assert len(state.visited) == non_loop + 1


def random_states(graph, rng, n, hops, budget, loop_share=0.3):
    """Scalar random walks of ``hops`` steps from random users; each step
    is a self-loop with probability ``loop_share``, else a random move."""
    users = graph.users()
    out = []
    for _ in range(n):
        state = PathState.start(users[int(rng.integers(len(users)))], budget)
        for _ in range(hops):
            acts = valid_actions(state, graph, max_actions=10_000)
            if len(acts) == 1 or rng.random() < loop_share:
                act = acts[0]
            else:
                act = acts[1 + int(rng.integers(len(acts) - 1))]
            state = step(state, act, graph)
        out.append(state)
    return out


def slate_rows(slates):
    """Each row's valid slots as Action lists, read through ``Slates.actions``."""
    out = []
    for b, n in enumerate(slates.sizes.tolist()):
        columns = slates.actions(np.full(n, b), np.arange(n))
        out.append([Action(*a) for a in zip(*(c.tolist() for c in columns))])
    return out


class TestFrontier:
    """The batched kernels against the scalar per-state functions."""

    @pytest.mark.parametrize("seed", range(6))
    def test_slates_equal_valid_actions(self, seed):
        from pathrec.datasets import synthetic_schema

        g = build_shop_graph(synthetic_schema(), n_users=8, n_items=30,
                             n_brands=2, n_categories=2, interactions=8, seed=seed)
        rng = np.random.default_rng(seed)
        # few distinct score values: truncation must break many exact ties
        scores = np.round(rng.random((3, g.entity_count)), 1)
        for hops in range(3):
            states = random_states(g, rng, 12, hops, budget=3)
            score_rows = rng.integers(0, 3, size=len(states))
            for cap in (1, 3, 7, 250):
                got = frontier_of(states).slates(g, cap, scores, score_rows)
                want = [valid_actions(s, g, max_actions=cap, user_scores=scores[r])
                        for s, r in zip(states, score_rows)]
                assert slate_rows(got) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_edge_ties_equal_valid_actions(self, seed):
        g = build_multi_edge_graph(seed=seed)
        rng = np.random.default_rng(seed)
        scores = np.zeros((1, g.entity_count))  # ties reach relation and direction
        for hops in range(3):
            states = random_states(g, rng, 10, hops, budget=3)
            rows = np.zeros(len(states), dtype=np.intp)
            for cap in (1, 2, 5, 250):
                got = frontier_of(states).slates(g, cap, scores, rows)
                want = [valid_actions(s, g, max_actions=cap, user_scores=scores[0])
                        for s in states]
                assert slate_rows(got) == want

    def test_truncation_path_is_exercised(self, make_graph):
        g = make_graph(n_users=6, n_items=20, n_brands=3, n_categories=2,
                       interactions=10, seed=3)
        u = g.users()[0]
        scores = np.zeros((1, g.entity_count))  # every move ties
        got = Frontier.start([u]).slates(g, 4, scores, np.zeros(1, dtype=np.intp))
        want = valid_actions(PathState.start(u, 3), g, max_actions=4,
                             user_scores=scores[0])
        assert len(g.neighbors(u)) > 4
        assert slate_rows(got) == [want]
        assert got.sizes.tolist() == [5]

    def test_visited_entities_and_self_loop_prefix(self, tiny_graph, u0_start):
        pu = tiny_graph.relation_id("purchase")
        i0 = tiny_graph.entity_id("item", "i0")
        loop = Action(SELF_LOOP, u0_start.user, FORWARD)
        states = [walk(tiny_graph, u0_start, [loop, Action(pu, i0, FORWARD)]),
                  walk(tiny_graph, u0_start, [loop, loop])]
        scores = np.zeros((1, tiny_graph.entity_count))
        got = frontier_of(states).slates(tiny_graph, 250, scores,
                                         np.zeros(2, dtype=np.intp))
        rows = slate_rows(got)
        assert rows == [valid_actions(s, tiny_graph) for s in states]
        assert u0_start.user not in {a.target for a in rows[0][1:]}
        assert rows[0][0] == Action(SELF_LOOP, i0, FORWARD)

    def test_encode_equals_scalar_stack(self, make_graph):
        """The pair encoder returns the blocks the last hop added to the
        scalar state: its first d columns at hop 0, the (relation, entity)
        pair ending at column (1 + 2t)·d at hop t; the scalar row is zero
        beyond them. encode returns the last d of those columns, the entity
        block the policy multiplies."""
        g = make_graph(n_users=6, n_items=12, seed=1)
        table = init_table(g, EmbedTrainConfig(dim=5), seed=4)
        d = table.dim
        rng = np.random.default_rng(8)
        for hops in range(4):
            states = random_states(g, rng, 9, hops, budget=4, loop_share=0.5)
            frontier = frontier_of(states)
            if hops:  # both kinds of last step are encoded
                last = frontier.relations[:, -1]
                assert (last == SELF_LOOP).any() and (last != SELF_LOOP).any()
            want = np.stack([encode_state(s, table) for s in states])
            end = (1 + 2 * hops) * d
            got = encode_pair(frontier, table)
            assert got.shape == (9, 2 * d if hops else d)
            np.testing.assert_array_equal(got, want[:, end - got.shape[1]:end])
            assert np.all(want[:, end:] == 0.0)
            entity = frontier.encode(table)
            assert entity.shape == (9, d)
            np.testing.assert_array_equal(entity, want[:, end - d:end])

    def test_encode_rejects_rowless_entity(self, tiny_graph, small_table):
        f = Frontier.start([small_table.entity_count])
        with pytest.raises(MissingEmbedding):
            f.encode(small_table)

    def test_advance_and_states_equal_step(self, make_graph):
        g = make_graph(n_users=5, n_items=10, seed=2)
        rng = np.random.default_rng(3)
        scores = np.zeros((1, g.entity_count))
        states = random_states(g, rng, 7, 1, budget=3)
        frontier = frontier_of(states)
        slates = frontier.slates(g, 250, scores, np.zeros(len(states), dtype=np.intp))
        parent = np.asarray([0, 0, 3, 6, 2], dtype=np.intp)
        slot = np.asarray([rng.integers(slates.sizes[p]) for p in parent], dtype=np.intp)
        grown = frontier.advance(parent, *slates.actions(parent, slot)).states(3)
        rows = slate_rows(slates)
        assert grown == [step(states[p], rows[p][k], g) for p, k in zip(parent, slot)]
        assert frontier.states(3) == states

    def test_unfrozen_graph_slates_see_new_triplets(self, tiny_graph):
        g = GraphWriter(tiny_graph)
        u0 = g.entity_id("user", "u0")
        i2 = g.entity_id("item", "i2")
        start = Frontier.start([u0])
        scores = np.zeros((1, g.entity_count))
        rows = np.zeros(1, dtype=np.intp)
        before = slate_rows(start.slates(g.graph, 250, scores, rows))[0]
        g.add_triplet(u0, g.relation_id("purchase"), i2)
        after = slate_rows(start.slates(g.graph, 250, scores, rows))[0]
        assert after == valid_actions(PathState.start(u0, 3), g.graph)
        assert set(after) - set(before) == {Action(g.relation_id("purchase"), i2, FORWARD)}


def hub_states(graph, budget=3):
    """One-hop states from each user to each brand or category it likes or
    is interested in: the walk then stands on a high-degree hub."""
    out = []
    for u in graph.users():
        for rel, x, d in graph.neighbors(u):
            if d == FORWARD and graph.entity_type(x) != graph.schema.item_type:
                out.append(step(PathState.start(u, budget), Action(rel, x, d), graph))
    return out


def fresh_count(state, graph):
    return len(valid_actions(state, graph, max_actions=10**9)) - 1


class TestSlateSelection:
    """Over-cap rows keep their top ``max_actions`` moves by a cut score
    plus the earliest ties; every case is checked against ``valid_actions``."""

    @pytest.fixture
    def hub_graph(self, make_graph):
        return make_graph(n_users=10, n_items=24, n_brands=2, n_categories=3,
                          interactions=8, seed=5)

    def test_score_all_tails_bitwise_equals_score_tails(self, hub_graph):
        table = init_table(hub_graph, EmbedTrainConfig(dim=7), seed=2)
        table.entity_bias[:] = np.random.default_rng(0).normal(size=table.entity_count)
        table = table.extended(np.ones((2, 7)))
        all_ids = np.arange(table.entity_count, dtype=np.intp)
        for head in range(0, table.entity_count, 3):
            for rel in range(hub_graph.relation_count):
                got = score_all_tails(table, head, rel)
                want = score_tails(table, head, rel, all_ids)
                assert got.tobytes() == want.tobytes()

    def test_ties_straddle_cut_under_null_table(self, hub_graph):
        """A table of NULL-strategy rows (all zeros) scores every move 0.0,
        so every cut falls inside one run of ties."""
        table = init_table(hub_graph, EmbedTrainConfig(dim=6), seed=1)
        table.entity_vecs[:] = 0.0
        states = hub_states(hub_graph)
        users = sorted({s.user for s in states})
        scores = np.stack([score_all_tails(table, u, hub_graph.interaction_relation)
                           for u in users])
        assert not scores.any()
        rows = np.asarray([users.index(s.user) for s in states], dtype=np.intp)
        for cap in (1, 2, 5, 9):
            got = frontier_of(states).slates(hub_graph, cap, scores, rows)
            want = [valid_actions(s, hub_graph, table, max_actions=cap) for s in states]
            assert slate_rows(got) == want
            assert any(fresh_count(s, hub_graph) > cap for s in states)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_straddle_cut_with_scores_above(self, hub_graph, seed):
        """Three score levels: some moves beat the cut, a run of ties spans it."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 3, size=(1, hub_graph.entity_count)).astype(float)
        states = hub_states(hub_graph)
        rows = np.zeros(len(states), dtype=np.intp)
        for cap in (1, 2, 4, 7):
            got = frontier_of(states).slates(hub_graph, cap, scores, rows)
            want = [valid_actions(s, hub_graph, max_actions=cap, user_scores=scores[0])
                    for s in states]
            assert slate_rows(got) == want

    def test_visited_entity_among_top_scores(self, hub_graph):
        """The start user and the hub it came from score highest; neither may
        take a slot, and the slate still fills to the cap."""
        pu = hub_graph.relation_id("purchase")
        states = []
        for u in hub_graph.users():
            item = next(x for r, x, d in hub_graph.neighbors(u) if r == pu)
            at_item = step(PathState.start(u, 3), Action(pu, item, FORWARD), hub_graph)
            hub = next(x for r, x, d in hub_graph.neighbors(item) if d == FORWARD)
            rel = next(r for r, x, d in hub_graph.neighbors(item) if x == hub)
            states.append(step(at_item, Action(rel, hub, FORWARD), hub_graph))
        scores = np.zeros((1, hub_graph.entity_count))
        for s in states:
            scores[0, list(s.entities)] = 1e6
        rows = np.zeros(len(states), dtype=np.intp)
        cap = 3
        got = slate_rows(frontier_of(states).slates(hub_graph, cap, scores, rows))
        for s, slate in zip(states, got):
            assert fresh_count(s, hub_graph) > cap
            assert slate == valid_actions(s, hub_graph, max_actions=cap,
                                          user_scores=scores[0])
            assert len(slate) == cap + 1
            assert not {a.target for a in slate[1:]} & s.visited

    def test_cap_one_and_one_below_fresh_count(self, hub_graph):
        rng = np.random.default_rng(4)
        scores = np.round(rng.random((1, hub_graph.entity_count)), 1)
        states = hub_states(hub_graph)
        rows = np.zeros(len(states), dtype=np.intp)
        got = frontier_of(states).slates(hub_graph, 1, scores, rows)
        assert slate_rows(got) == [valid_actions(s, hub_graph, max_actions=1,
                                                 user_scores=scores[0]) for s in states]
        assert got.sizes.tolist() == [2] * len(states)
        for s in states:
            cap = fresh_count(s, hub_graph) - 1
            assert cap >= 1
            got = frontier_of([s]).slates(hub_graph, cap, scores, rows[:1])
            assert slate_rows(got) == [valid_actions(s, hub_graph, max_actions=cap,
                                                     user_scores=scores[0])]
            assert got.sizes.tolist() == [cap + 1]

    def test_over_cap_rows_at_different_hubs_in_one_batch(self, hub_graph):
        """Rows over the cap at distinct hubs, each scored for its own user,
        mixed with rows under it."""
        pu = hub_graph.relation_id("purchase")
        at_items = [step(PathState.start(u, 3), Action(pu, hub_graph.neighbors(u, pu)[0][1],
                                                       FORWARD), hub_graph)
                    for u in hub_graph.users()[:3]]
        states = hub_states(hub_graph)
        states = states[:4] + at_items + states[4:]
        users = sorted({s.user for s in states})
        rng = np.random.default_rng(9)
        scores = np.round(rng.normal(size=(len(users), hub_graph.entity_count)), 1)
        rows = np.asarray([users.index(s.user) for s in states], dtype=np.intp)
        cap = 6
        over = [s for s in states if fresh_count(s, hub_graph) > cap]
        assert len({s.current for s in over}) >= 3
        assert any(fresh_count(s, hub_graph) <= cap for s in states)
        got = frontier_of(states).slates(hub_graph, cap, scores, rows)
        want = [valid_actions(s, hub_graph, max_actions=cap, user_scores=scores[r])
                for s, r in zip(states, rows)]
        assert slate_rows(got) == want


def straddling_rows(frontier, graph, cap, scores, rows):
    """Rows over ``cap`` whose cap-th best score ties a move that misses the cut."""
    uncut = frontier.slates(graph, 10**9, scores, rows)
    out = 0
    for b, (lo, n) in enumerate(zip(uncut.offset.tolist(), (uncut.sizes - 1).tolist())):
        row = np.sort(scores[rows[b], uncut.target[lo:lo + n]])[::-1]
        if n > cap and row[cap - 1] == row[cap]:
            out += 1
    return out


class TestPerRowCut:
    """``Frontier.slates`` cuts each over-cap row on its own segment; the
    grid of ``reference_slates`` pads every such row to the widest one."""

    @pytest.mark.parametrize("seed", range(4))
    def test_slates_bitwise_equal_the_grid_cut(self, seed):
        from pathrec.datasets import synthetic_schema

        g = build_shop_graph(synthetic_schema(), n_users=12, n_items=60, n_brands=2,
                             n_categories=3, interactions=12, seed=seed)
        rng = np.random.default_rng(seed)
        # few score levels, so runs of ties straddle the cuts
        scores = rng.integers(0, 4, size=(3, g.entity_count)).astype(float)
        straddled = 0
        for hops in range(3):
            frontier = frontier_of(random_states(g, rng, 40, hops, budget=3, loop_share=0.1))
            rows = rng.integers(0, 3, size=len(frontier))
            for cap in (1, 2, 3, 7, 15):
                got = frontier.slates(g, cap, scores, rows)
                want = reference_slates(frontier, g, cap, scores, rows)
                for a, b in zip(got[:5], want[:5]):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
                straddled += straddling_rows(frontier, g, cap, scores, rows)
        assert straddled > 10
