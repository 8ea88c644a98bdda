import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from pathrec import embeddings
from pathrec.coldstart import (ColdDeclaration, ColdProfile, ColdStrategy,
                               integrate_cold_entities)
from pathrec.embeddings import (BatchScratch, EmbedTrainConfig, EmbeddingTable,
                                conditional_prob, init_table, load_table, rng_for,
                                sampled_softmax_grads, save_table,
                                score_tails, score_triplet, train_embeddings,
                                _accumulate_batch, _scatter_rows, _type_pools,
                                _zero_grads)
from pathrec.errors import (EmptyCandidates, EmptyGraph, InvalidSpec,
                            MissingEmbedding)

from oracles import GraphWriter, reference_accumulate_batch


class TestRngStreams:
    def test_tagged_streams_are_independent_and_stable(self):
        a1 = rng_for(7, "alpha").random(4)
        a2 = rng_for(7, "alpha").random(4)
        b = rng_for(7, "beta").random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestInit:
    def test_ranges_and_shapes(self, tiny_graph):
        cfg = EmbedTrainConfig(dim=10)
        t = init_table(tiny_graph, cfg, seed=5)
        half = 0.5 / 10
        for arr in (t.entity_vecs, t.relation_vecs, t.self_loop_vec):
            assert np.all(np.abs(arr) <= half)
        assert t.entity_vecs.shape == (tiny_graph.entity_count, 10)
        assert t.relation_vecs.shape == (tiny_graph.relation_count, 10)
        assert np.all(t.entity_bias == 0.0)

    def test_deterministic(self, tiny_graph):
        cfg = EmbedTrainConfig(dim=6)
        a, b = init_table(tiny_graph, cfg, seed=2), init_table(tiny_graph, cfg, seed=2)
        assert np.array_equal(a.entity_vecs, b.entity_vecs)
        assert np.array_equal(a.self_loop_vec, b.self_loop_vec)

    def test_append_entity_enforces_id_order(self, tiny_graph, small_table):
        # rows land at the ids after the table's last row: a table one row
        # ahead of the graph cannot take the graph's next entity
        n, d = small_table.entity_count, small_table.dim
        ahead = small_table.extended(np.zeros((1, d)))
        cold = ColdProfile("i9", "item", (ColdDeclaration("produced_by", "brand", "b0"),))
        with pytest.raises(MissingEmbedding, match="id order"):
            integrate_cold_entities(tiny_graph, ahead, [cold], ColdStrategy.NULL)
        with pytest.raises(InvalidSpec):
            small_table.extended(np.zeros((1, d + 1)))
        ext = small_table.extended(np.ones((1, d)))
        assert ext.entity_count == n + 1
        assert ext.bias(n) == 0.0

    def test_append_entities_in_one_copy(self, tiny_graph, small_table):
        n, d = small_table.entity_count, small_table.dim
        vecs = np.arange(3 * d, dtype=float).reshape(3, d)
        ahead = small_table.extended(vecs[:1])
        cold = ColdProfile("i9", "item", (ColdDeclaration("produced_by", "brand", "b0"),))
        with pytest.raises(MissingEmbedding, match="id order"):
            integrate_cold_entities(tiny_graph, ahead, [cold], ColdStrategy.NULL)
        with pytest.raises(InvalidSpec):
            small_table.extended(vecs[:, 1:])
        with pytest.raises(InvalidSpec):
            small_table.extended(vecs[0])
        ext = small_table.extended(vecs)
        assert ext.entity_count == n + 3
        np.testing.assert_array_equal(ext.entity_vecs[n:], vecs)
        assert ext.bias(n + 2) == 0.0
        assert small_table.entity_count == n


class TestScoring:
    def test_score_matches_manual(self, tiny_graph, small_table):
        t = small_table
        for h, r, tail in tiny_graph.triplets():
            manual = float((t.entity_vecs[h] + t.relation_vecs[r]) @ t.entity_vecs[tail]
                           + t.entity_bias[tail])
            assert score_triplet(t, h, r, tail) == pytest.approx(manual, rel=1e-15)

    def test_score_tails_matches_loop(self, tiny_graph, small_table):
        tails = np.arange(tiny_graph.entity_count, dtype=np.intp)
        vec = score_tails(small_table, 0, 0, tails)
        loop = [score_triplet(small_table, 0, 0, int(i)) for i in tails]
        np.testing.assert_allclose(vec, loop, rtol=1e-15)

    def test_conditional_prob_vs_mpmath(self, tiny_graph, small_table):
        mpmath.mp.dps = 50
        items = tiny_graph.items()
        u0 = tiny_graph.entity_id("user", "u0")
        rel = tiny_graph.interaction_relation
        scores = [score_triplet(small_table, u0, rel, i) for i in items]
        exps = [mpmath.e ** mpmath.mpf(s) for s in scores]
        total = sum(exps)
        for i, item in enumerate(items):
            want = float(exps[i] / total)
            got = conditional_prob(small_table, u0, rel, item, items)
            assert got == pytest.approx(want, rel=1e-12)

    def test_conditional_prob_order_invariant(self, tiny_graph, small_table):
        items = tiny_graph.items()
        u0 = tiny_graph.entity_id("user", "u0")
        rel = tiny_graph.interaction_relation
        a = conditional_prob(small_table, u0, rel, items[0], items)
        b = conditional_prob(small_table, u0, rel, items[0], list(reversed(items)))
        assert a == b

    def test_conditional_prob_errors(self, tiny_graph, small_table):
        u0 = tiny_graph.entity_id("user", "u0")
        rel = tiny_graph.interaction_relation
        with pytest.raises(EmptyCandidates):
            conditional_prob(small_table, u0, rel, 0, [])
        with pytest.raises(InvalidSpec, match="member"):
            conditional_prob(small_table, u0, rel, 0, tiny_graph.items())


def finite_difference_check(tiny_graph, loss_and_grads, h=1e-6, rtol=1e-5):
    """Central-difference check of every parameter array the loss touches."""
    table = init_table(tiny_graph, EmbedTrainConfig(dim=4), seed=9)
    _, grads = loss_and_grads(table)
    for name in ("entity_vecs", "relation_vecs", "entity_bias"):
        arr = getattr(table, name)
        analytic = grads[name]
        flat = arr.ravel()
        idx = np.nonzero(np.abs(analytic.ravel()) > 1e-12)[0]
        assert len(idx) > 0
        for j in idx[:: max(1, len(idx) // 40)]:
            orig = flat[j]
            flat[j] = orig + h
            up, _ = loss_and_grads(table)
            flat[j] = orig - h
            down, _ = loss_and_grads(table)
            flat[j] = orig
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(analytic.ravel()[j], rel=rtol, abs=1e-10), name


class TestGradients:
    def test_sampled_softmax_gradient(self, tiny_graph):
        triplets = np.asarray(list(tiny_graph.triplets()), dtype=np.intp)
        pools = _type_pools(tiny_graph)

        def loss_and_grads(table):
            # fresh stream per call: same negatives for every evaluation
            return sampled_softmax_grads(table, tiny_graph, triplets, pools,
                                         negatives=3, rng=rng_for(1, "fd"))

        finite_difference_check(tiny_graph, loss_and_grads)

    def test_flat_scatter_bitwise_equals_2d_add_at(self):
        rng = np.random.default_rng(5)
        for rows, entities, d in ((3072, 820, 100), (40, 3, 6), (7, 1, 1)):
            idx = rng.integers(0, entities, size=rows)  # heavily repeated
            vals = rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
            base = rng.normal(size=(entities, d))
            want = base.copy()
            np.add.at(want, idx, vals)
            got = base.copy()
            _scatter_rows(got, idx, vals)
            np.testing.assert_array_equal(got, want)

    def test_reused_buffers_equal_fresh_over_two_batches(self, tiny_graph):
        table = init_table(tiny_graph, EmbedTrainConfig(dim=6), seed=2)
        triplets = np.asarray(list(tiny_graph.triplets()), dtype=np.intp)
        pools = _type_pools(tiny_graph)
        fresh_rng, reused_rng = rng_for(3, "batches"), rng_for(3, "batches")
        buffers = None
        for batch in (triplets[:5], triplets[2:]):
            fresh = sampled_softmax_grads(table, tiny_graph, batch, pools, 3, fresh_rng)
            reused = sampled_softmax_grads(table, tiny_graph, batch, pools, 3,
                                           reused_rng, grads=buffers)
            assert buffers is None or reused[1] is buffers
            buffers = reused[1]
            assert reused[0] == fresh[0]
            for name in fresh[1]:
                np.testing.assert_array_equal(reused[1][name], fresh[1][name])


def _reference_kernel(monkeypatch):
    """Route the batch kernels through ``reference_accumulate_batch``."""
    monkeypatch.setattr(embeddings, "_accumulate_batch",
                        lambda *args: reference_accumulate_batch(*args[:7]))


def _assert_same_grads(got, want):
    for name in ("entity_vecs", "relation_vecs", "entity_bias"):
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestScratchKernels:
    """The scratch kernels against the allocating reference, bit for bit."""

    # (rows, candidates per row) of successive batches: shrink, grow, shrink
    SHAPES = ((40, 6), (3, 2), (64, 9), (1, 6), (17, 30), (64, 9), (5, 1))

    def test_accumulate_equals_reference_over_shrinking_and_growing_batches(self):
        rng = np.random.default_rng(11)
        d = 7
        table = EmbeddingTable(rng.normal(size=(23, d)), rng.normal(size=23),
                               rng.normal(size=(4, d)), rng.normal(size=d))
        got, want = _zero_grads(table), _zero_grads(table)
        scratch = BatchScratch()
        for B, C in self.SHAPES:
            heads = rng.integers(0, 5, size=B)         # few heads: repeated rows
            rels = rng.integers(0, 4, size=B)
            cand_ids = rng.integers(0, 9, size=(B, C))  # repeated within and across rows
            mask = rng.random((B, C)) < 0.7
            mask[:, 0] = True  # the true tail
            loss = _accumulate_batch(table, got, heads, rels, cand_ids, mask, 1.0 / B, scratch)
            ref = reference_accumulate_batch(table, want, heads, rels, cand_ids, mask, 1.0 / B)
            assert loss == ref
            _assert_same_grads(got, want)

    def test_modes_equal_reference_with_one_scratch(self, make_graph, monkeypatch):
        graph = make_graph(n_users=9, n_items=14, n_brands=3, n_categories=2,
                           interactions=4, seed=6)
        table = init_table(graph, EmbedTrainConfig(dim=5), seed=8)
        triplets = np.stack(graph.triplet_arrays(), axis=1)
        pools = _type_pools(graph)
        pick = np.random.default_rng(2)
        batches = [triplets[pick.integers(0, len(triplets), size=n)]  # repeated triplets
                   for n in (31, 4, 57, 1, 20)]

        def run(scratch):
            rng, grads, out = rng_for(4, "batches"), None, []
            for batch in batches:
                loss, grads = sampled_softmax_grads(table, graph, batch, pools, 3, rng,
                                                    grads, scratch)
                out.append((loss, {k: v.copy() for k, v in grads.items()}))
            return out

        got = run(BatchScratch())
        _reference_kernel(monkeypatch)
        for (loss, grads), (ref_loss, ref_grads) in zip(got, run(None)):
            assert loss == ref_loss
            _assert_same_grads(grads, ref_grads)

    def test_training_equals_reference_with_a_short_last_batch(self, make_graph,
                                                               monkeypatch):
        graph = make_graph(n_users=9, n_items=14, interactions=4, seed=6)
        cfg = EmbedTrainConfig(dim=5, epochs=2, batch_size=7, negatives=3)
        assert graph.triplet_count % cfg.batch_size != 0
        got = train_embeddings(graph, cfg, seed=5)
        _reference_kernel(monkeypatch)
        want = train_embeddings(graph, cfg, seed=5)
        for name in ("entity_vecs", "relation_vecs", "entity_bias"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_warm_batch_allocates_no_batch_sized_array(self, tiny_graph):
        B, negatives, d = 512, 5, 100
        table = init_table(tiny_graph, EmbedTrainConfig(dim=d), seed=1)
        triplets = np.stack(tiny_graph.triplet_arrays(), axis=1)
        batch = triplets[np.random.default_rng(0).integers(0, len(triplets), size=B)]
        pools = _type_pools(tiny_graph)
        rng, grads, scratch = rng_for(1, "alloc"), _zero_grads(table), BatchScratch()
        sampled_softmax_grads(table, tiny_graph, batch, pools, negatives, rng, grads, scratch)
        tracemalloc.start()
        try:
            sampled_softmax_grads(table, tiny_graph, batch, pools, negatives, rng, grads,
                                  scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_cand_array = B * (negatives + 1) * d * 8
        assert peak < one_cand_array / 4, peak


class TestMalformedBatches:
    def _call(self, graph, batch, table=None):
        table = init_table(graph, EmbedTrainConfig(dim=4), seed=1) if table is None else table
        return sampled_softmax_grads(table, graph, batch, _type_pools(graph), 2,
                                     rng_for(1, "bad"))

    def test_empty_batch_rejected(self, tiny_graph):
        with pytest.raises(InvalidSpec, match="non-empty"):
            self._call(tiny_graph, np.empty((0, 3), dtype=np.intp))

    @pytest.mark.parametrize("column, value", [(0, 8), (0, -1), (1, 99), (1, -1),
                                               (2, 8), (2, -3)])
    def test_id_outside_table_rejected(self, tiny_graph, column, value):
        batch = np.stack(tiny_graph.triplet_arrays(), axis=1)[:3].copy()
        batch[1, column] = value
        with pytest.raises(MissingEmbedding, match=f"id {value} "):
            self._call(tiny_graph, batch)

    def test_candidate_outside_table_rejected(self, tiny_graph):
        full_table = init_table(tiny_graph, EmbedTrainConfig(dim=4), seed=1)
        items = tiny_graph.items()
        keep = max(items)  # the last item has no row
        table = EmbeddingTable(full_table.entity_vecs[:keep], full_table.entity_bias[:keep],
                               full_table.relation_vecs, full_table.self_loop_vec)
        rel = tiny_graph.interaction_relation
        batch = np.asarray([[tiny_graph.entity_id("user", "u0"), rel, min(items)]] * 40)
        with pytest.raises(MissingEmbedding, match="candidate"):
            self._call(tiny_graph, batch, table=table)


class TestTraining:
    def test_zero_epochs_returns_init(self, tiny_graph):
        cfg = EmbedTrainConfig(dim=6, epochs=0)
        trained = train_embeddings(tiny_graph, cfg, seed=4)
        init = init_table(tiny_graph, cfg, seed=4)
        assert np.array_equal(trained.entity_vecs, init.entity_vecs)
        assert np.array_equal(trained.entity_bias, init.entity_bias)

    def test_training_reduces_sampled_softmax_loss(self, tiny_graph):
        cfg = EmbedTrainConfig(dim=8, epochs=60, learning_rate=0.05)
        triplets = np.asarray(list(tiny_graph.triplets()), dtype=np.intp)
        pools = _type_pools(tiny_graph)

        def loss(table):
            # one fixed negative stream: both tables are scored on the same slates
            return sampled_softmax_grads(table, tiny_graph, triplets, pools, cfg.negatives,
                                         rng_for(1, "loss"))[0]

        before = loss(init_table(tiny_graph, cfg, seed=1))
        after = loss(train_embeddings(tiny_graph, cfg, seed=1))
        assert after < before

    @pytest.mark.parametrize("seed", range(5))
    def test_purchases_outscore_non_purchases(self, tiny_graph, seed):
        cfg = EmbedTrainConfig(dim=8, epochs=200, learning_rate=0.05)
        table = train_embeddings(tiny_graph, cfg, seed=seed)
        rel = tiny_graph.interaction_relation
        for uname, bought, other in (("u0", ("i0", "i1"), "i2"),
                                     ("u1", ("i2",), "i0")):
            u = tiny_graph.entity_id("user", uname)
            worst_hit = min(score_triplet(table, u, rel, tiny_graph.entity_id("item", b))
                            for b in bought)
            miss = score_triplet(table, u, rel, tiny_graph.entity_id("item", other))
            assert worst_hit > miss

    def test_retrain_is_bit_identical(self, tiny_graph):
        cfg = EmbedTrainConfig(dim=6, epochs=5)
        a = train_embeddings(tiny_graph, cfg, seed=7)
        b = train_embeddings(tiny_graph, cfg, seed=7)
        assert np.array_equal(a.entity_vecs, b.entity_vecs)
        assert np.array_equal(a.relation_vecs, b.relation_vecs)
        assert np.array_equal(a.entity_bias, b.entity_bias)

    def test_empty_graph_rejected(self, schema):
        g = GraphWriter(schema)
        g.add_entity("user", "u0")
        with pytest.raises(EmptyGraph):
            train_embeddings(g.graph, EmbedTrainConfig(dim=4))


class TestSnapshots:
    def test_round_trip_bit_exact(self, tiny_graph, tmp_path):
        table = train_embeddings(tiny_graph, EmbedTrainConfig(dim=6, epochs=2), seed=3)
        path = str(tmp_path / "emb.npz")
        save_table(table, tiny_graph, path, config_hash="abc", seed=3)
        again = load_table(path, tiny_graph)
        assert np.array_equal(table.entity_vecs, again.entity_vecs)
        assert np.array_equal(table.entity_bias, again.entity_bias)
        assert np.array_equal(table.relation_vecs, again.relation_vecs)
        assert np.array_equal(table.self_loop_vec, again.self_loop_vec)
        with np.load(path) as data:
            assert (str(data["config_hash"]), int(data["seed"])) == ("abc", 3)

    @pytest.mark.parametrize("name, cut", [
        ("self_loop_vec", lambda a: a[:3]),
        ("relation_vecs", lambda a: a[:, :3]),
        ("relation_vecs", lambda a: a[1:]),
        ("entity_bias", lambda a: a[1:]),
        ("entity_vecs", lambda a: a[:, :3]),
        ("entity_vecs", lambda a: a[:, 0]),
    ], ids=["self-loop-short", "relation-dim", "relation-rows", "bias-rows", "entity-dim",
            "entity-flat"])
    def test_array_of_the_wrong_shape_rejected(self, tiny_graph, tmp_path, name, cut):
        path = str(tmp_path / "emb.npz")
        save_table(init_table(tiny_graph, EmbedTrainConfig(dim=8)), tiny_graph, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = cut(arrays[name])
        np.savez(path, **arrays)
        with pytest.raises(MissingEmbedding, match=rf"^snapshot {re.escape(path)}: "):
            load_table(path, tiny_graph)

    def test_graph_mismatch_rejected(self, tiny_graph, make_graph, tmp_path):
        table = init_table(tiny_graph, EmbedTrainConfig(dim=4))
        path = str(tmp_path / "emb.npz")
        save_table(table, tiny_graph, path)
        other = make_graph(n_users=3, n_items=3, seed=99)
        with pytest.raises(MissingEmbedding, match="does not match"):
            load_table(path, other)

    def test_extended_table_loads_against_base_graph(self, tiny_graph, tmp_path):
        # a cold-extended snapshot still serves the warm graph's ids
        g2 = GraphWriter(tiny_graph)
        extra = g2.add_entity("item", "i_new")
        table = init_table(tiny_graph, EmbedTrainConfig(dim=4))
        table = table.extended(np.zeros((1, 4)))
        assert extra == tiny_graph.entity_count
        path = str(tmp_path / "emb.npz")
        save_table(table, g2.graph, path)
        again = load_table(path, tiny_graph)
        assert again.entity_count == tiny_graph.entity_count + 1
