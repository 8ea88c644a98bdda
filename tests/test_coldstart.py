import json
import re

import numpy as np
import pytest

from pathrec.coldstart import (ColdDeclaration, ColdProfile, ColdStrategy,
                               _cold_rows, augment_graph, integrate_cold_entities,
                               read_profiles, recommend_cold, write_profiles)
from pathrec.datasets import synthetic_schema
from pathrec.embeddings import EmbedTrainConfig, init_table, rng_for
from pathrec.errors import (DuplicateEntity, EmptyProfile, InvalidSpec, MissingEmbedding,
                            MissingNeighborEmbedding, ParseError, SchemaViolation,
                            UnknownUser)
from pathrec.graph import FORWARD, INVERSE, KGSchema, KnowledgeGraph, RelationSpec
from pathrec.inference import beam_search, rank_recommendations
from pathrec.policy import AgentConfig, PolicyModel

from conftest import build_shop_graph
from oracles import GraphWriter, reference_augment_graph, reference_cold_rows


def profile(name, entity_type, *decls):
    return ColdProfile(name=name, entity_type=entity_type,
                       declarations=tuple(ColdDeclaration(*d) for d in decls))


def skip_reason(caplog, name):
    """The exception ``augment_graph`` logged when it skipped profile ``name``."""
    return next(r.args[1] for r in caplog.records
                if r.msg == "profile %s skipped: %s" and r.args[0] == name)


class TestProfileValidation:
    def test_interaction_relation_rejected(self, schema):
        p = profile("u9", "user", ("purchase", "item", "i0"))
        with pytest.raises(SchemaViolation):
            p.validate(schema)

    def test_head_type_must_match(self, schema):
        p = profile("u9", "user", ("produced_by", "brand", "b0"))
        with pytest.raises(SchemaViolation):
            p.validate(schema)

    def test_target_type_must_match(self, schema):
        p = profile("i9", "item", ("produced_by", "category", "c0"))
        with pytest.raises(SchemaViolation):
            p.validate(schema)

    def test_empty_profile_rejected(self, schema):
        with pytest.raises(EmptyProfile):
            profile("u9", "user").validate(schema)

    def test_valid_profiles_pass(self, schema):
        profile("u9", "user", ("like", "brand", "b0"),
                ("interested_in", "category", "c0")).validate(schema)
        profile("i9", "item", ("produced_by", "brand", "b0"),
                ("belong_to", "category", "c0")).validate(schema)


class TestIntegration:
    def test_adds_entity_and_triplets(self, tiny_graph):
        p = profile("i9", "item", ("produced_by", "brand", "b0"),
                    ("belong_to", "category", "c0"))
        g, ids = augment_graph(tiny_graph, [p])
        e = ids["i9"]
        assert g.entity_key(e) == "item:i9"
        hops = {(r, n, d) for r, n, d in g.neighbors(e)}
        assert (g.relation_id("produced_by"),
                g.entity_id("brand", "b0"), FORWARD) in hops
        assert (g.relation_id("belong_to"),
                g.entity_id("category", "c0"), FORWARD) in hops

    def test_unresolvable_targets_dropped(self, tiny_graph, caplog):
        p = profile("i9", "item", ("produced_by", "brand", "b0"),
                    ("belong_to", "category", "zz"))
        with caplog.at_level("INFO", logger="pathrec.coldstart"):
            g, ids = augment_graph(tiny_graph, [p])
        e = ids["i9"]
        assert len(list(g.neighbors(e))) == 1
        assert "dropped 1" in caplog.text

    def test_no_resolvable_targets_raises(self, tiny_graph, caplog):
        p = profile("i9", "item", ("produced_by", "brand", "zz"))
        with caplog.at_level("INFO", logger="pathrec.coldstart"):
            g, ids = augment_graph(tiny_graph, [p])
        assert isinstance(skip_reason(caplog, "i9"), EmptyProfile)
        assert ids == {} and g.entity_count == tiny_graph.entity_count

    def test_round_trip_jsonl(self, tmp_path, schema):
        items = [profile("i9", "item", ("produced_by", "brand", "b0")),
                 profile("u9", "user", ("like", "brand", "b1"),
                         ("interested_in", "category", "c0"))]
        path = str(tmp_path / "profiles.jsonl")
        write_profiles(items, path)
        again = read_profiles(path)
        assert again == items

    @pytest.mark.parametrize("target", ["brand:", "brandb00", ":b0"])
    def test_malformed_target_names_file_and_line(self, tmp_path, target):
        path = str(tmp_path / "profiles.jsonl")
        write_profiles([profile("i9", "item", ("produced_by", "brand", "b0")),
                        profile("u9", "user", ("like", "brand", "b1"))], path)
        with open(path) as fh:
            lines = fh.readlines()
        lines[1] = lines[1].replace('"brand:b1"', json.dumps(target))
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ParseError, match=rf"^{re.escape(path)}:2: malformed entity token"):
            read_profiles(path)


class TestColdEmbedding:
    def strategies(self):
        return (ColdStrategy.AVERAGE_TRANSLATION, ColdStrategy.NULL)

    def test_average_translation_oracle(self, tiny_graph, small_table):
        """Brute-force mean of (e_tail - e_rel) over 1000 random profiles."""
        rng = rng_for(99, "cold-oracle")
        brands = ["b0", "b1"]
        cats = ["c0"]
        for trial in range(1000):
            n_b = int(rng.integers(1, len(brands) + 1))
            decls = [("produced_by", "brand", b)
                     for b in rng.choice(brands, size=n_b, replace=False)]
            if rng.random() < 0.5:
                decls.append(("belong_to", "category", cats[0]))
            p = profile(f"fresh{trial}", "item", *decls)
            g, table, ids = integrate_cold_entities(tiny_graph, small_table, [p],
                                                    ColdStrategy.AVERAGE_TRANSLATION)
            e = ids[p.name]
            vec = table.entity_vecs[e]
            acc = np.zeros(small_table.dim)
            for rel, ttype, tname in decls:
                acc += (small_table.entity_vecs[g.entity_id(ttype, tname)]
                        - small_table.relation_vecs[g.relation_id(rel)])
            want = acc / len(decls)
            np.testing.assert_allclose(vec, want, rtol=1e-10, atol=1e-14)
            np.testing.assert_array_equal(table.entity_vecs[e], vec)
            assert table.entity_bias[e] == 0.0

    def test_null_strategy_is_zeros(self, tiny_graph, small_table):
        _, table, ids = integrate_cold_entities(
            tiny_graph, small_table, [profile("i9", "item", ("produced_by", "brand", "b0"))],
            ColdStrategy.NULL)
        e = ids["i9"]
        vec = table.entity_vecs[e]
        assert np.all(vec == 0.0)
        assert table.entity_bias[e] == 0.0

    def test_warm_rows_untouched(self, tiny_graph, small_table):
        for strategy in self.strategies():
            before_vecs = small_table.entity_vecs.copy()
            before_bias = small_table.entity_bias.copy()
            _, table, _ = integrate_cold_entities(
                tiny_graph, small_table, [profile("u9", "user", ("like", "brand", "b0"))],
                strategy)
            np.testing.assert_array_equal(table.entity_vecs[:-1], before_vecs)
            np.testing.assert_array_equal(table.entity_bias[:-1], before_bias)
            np.testing.assert_array_equal(table.relation_vecs,
                                          small_table.relation_vecs)

    def test_entity_without_forward_edges_rejected(self, tiny_graph, small_table):
        # augment_graph never integrates such an entity; _cold_rows
        # still refuses one rather than divide by zero
        g = GraphWriter(tiny_graph)
        e = g.add_entity("item", "island")
        with pytest.raises(EmptyProfile):
            _cold_rows(small_table, g.graph, [e], ColdStrategy.NULL)

    def test_cycle_rejected(self):
        # two cold items similar to each other: neither row can be summed first
        from conftest import build_multi_edge_graph

        base = build_multi_edge_graph()
        table = init_table(base, EmbedTrainConfig(dim=8), seed=3)
        g = GraphWriter(base)
        a, b = g.add_entity("item", "a"), g.add_entity("item", "b")
        sim = g.relation_id("similar")
        g.add_triplets([a, b], [sim, sim], [b, a])
        with pytest.raises(MissingNeighborEmbedding, match="cycle"):
            _cold_rows(table, g.graph, [a, b], ColdStrategy.AVERAGE_TRANSLATION)
        assert _cold_rows(table, g.graph, [a, b], ColdStrategy.NULL).shape == (2, 8)

    def test_neighbor_without_row_rejected(self, tiny_graph, small_table):
        # the cold entity leans on brand b9, whose row was never added
        g = GraphWriter(tiny_graph)
        g.add_entity("brand", "b9")
        with pytest.raises(MissingNeighborEmbedding):
            integrate_cold_entities(g.graph, small_table,
                                    [profile("i9", "item", ("produced_by", "brand", "b9"))],
                                    ColdStrategy.AVERAGE_TRANSLATION)


class TestBatchedAppend:
    # Cold item i9 (brand b0) and cold user u9 who bought it and likes b1:
    # u9 also leans on i9, an earlier entity of the same batch.
    I9 = profile("i9", "item", ("produced_by", "brand", "b0"),
                 ("belong_to", "category", "c0"))
    U9 = profile("u9", "user", ("like", "brand", "b1"))
    BOUGHT = {"u9": ["i9"]}

    def test_equals_one_row_at_a_time(self, tiny_graph, small_table):
        for strategy in ColdStrategy:
            g1, t1, _ = integrate_cold_entities(tiny_graph, small_table, [self.I9], strategy)
            _, one_by_one, _ = integrate_cold_entities(g1, t1, [self.U9], strategy,
                                                       self.BOUGHT)
            _, batched, got = integrate_cold_entities(tiny_graph, small_table,
                                                      [self.I9, self.U9], strategy,
                                                      self.BOUGHT)
            ids = list(got.values())
            rows = batched.entity_vecs[small_table.entity_count:]
            np.testing.assert_array_equal(batched.entity_vecs, one_by_one.entity_vecs)
            np.testing.assert_array_equal(batched.entity_bias, one_by_one.entity_bias)
            np.testing.assert_array_equal(rows, one_by_one.entity_vecs[ids])

    def test_out_of_order_ids_rejected(self, tiny_graph, small_table):
        table = small_table.copy()
        # a cold user may lean on a cold item listed after it: rows follow
        # the batch's dependencies, not its order
        for strategy in ColdStrategy:
            _, t1, ids1 = integrate_cold_entities(tiny_graph, table, [self.U9, self.I9],
                                                  strategy, self.BOUGHT)
            _, t2, ids2 = integrate_cold_entities(tiny_graph, table, [self.I9, self.U9],
                                                  strategy, self.BOUGHT)
            assert ids1["u9"] < ids1["i9"] and ids2["i9"] < ids2["u9"]
            for name in ("u9", "i9"):
                np.testing.assert_array_equal(t1.entity_vecs[ids1[name]],
                                              t2.entity_vecs[ids2[name]])
        # a table one row behind the graph: u9's row would land at i9's id
        g1, _ = augment_graph(tiny_graph, [self.I9])
        with pytest.raises(MissingEmbedding, match="id order"):
            integrate_cold_entities(g1, table, [self.U9], ColdStrategy.NULL, self.BOUGHT)
        assert table.entity_count == small_table.entity_count


class TestBatchIntegration:
    def make_profiles(self):
        return [
            profile("i9", "item", ("produced_by", "brand", "b0")),
            profile("u9", "user", ("like", "brand", "b1")),
            profile("u8", "user", ("interested_in", "category", "nope")),
        ]

    def test_integrates_and_extends(self, tiny_graph, small_table):
        aug, ext, ids = integrate_cold_entities(
            tiny_graph, small_table, self.make_profiles(),
            ColdStrategy.AVERAGE_TRANSLATION)
        assert set(ids) == {"i9", "u9"}  # u8's only target is unknown
        assert aug.entity_count == tiny_graph.entity_count + 2
        assert ext.entity_count == small_table.entity_count + 2
        assert small_table.entity_count == tiny_graph.entity_count
        for name, e in ids.items():
            assert e >= tiny_graph.entity_count

    def test_originals_untouched(self, tiny_graph, small_table):
        vecs = small_table.entity_vecs.copy()
        n = tiny_graph.entity_count
        integrate_cold_entities(tiny_graph, small_table, self.make_profiles(),
                                ColdStrategy.NULL)
        assert tiny_graph.entity_count == n
        np.testing.assert_array_equal(small_table.entity_vecs, vecs)

    def test_augment_graph_is_the_graph_half(self, tiny_graph, small_table):
        profs = self.make_profiles()
        aug, ids = augment_graph(tiny_graph, profs)
        full, _, full_ids = integrate_cold_entities(tiny_graph, small_table, profs,
                                                    ColdStrategy.NULL)
        assert ids == full_ids
        assert aug.entity_count == full.entity_count
        assert aug.fingerprint() == full.fingerprint()

    def test_profile_of_existing_entity_skipped(self, make_graph, caplog):
        g = make_graph()
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        u0 = g.entity_id("user", "u0")
        like, b1 = g.relation_id("like"), g.entity_id("brand", "b1")
        had_edge = g.has_triplet(u0, like, b1)
        profs = [profile("newbie", "user", ("like", "brand", "b0")),
                 profile("u0", "user", ("like", "brand", "b1")),
                 profile("newbie", "user", ("like", "brand", "b1"))]
        aug, ext, ids = integrate_cold_entities(g, table, profs,
                                                ColdStrategy.AVERAGE_TRANSLATION)
        assert ids == {"newbie": g.entity_count}
        assert aug.entity_count == g.entity_count + 1
        assert aug.has_triplet(u0, like, b1) == had_edge
        assert not aug.has_triplet(ids["newbie"], like, b1)
        assert ext.entity_count == table.entity_count + 1
        np.testing.assert_array_equal(ext.entity_vecs[u0], table.entity_vecs[u0])
        assert ext.entity_bias[u0] == table.entity_bias[u0]
        with caplog.at_level("INFO", logger="pathrec.coldstart"):
            augment_graph(g, profs[1:2])
        reason = skip_reason(caplog, "u0")
        assert isinstance(reason, DuplicateEntity) and "u0" in str(reason)

    def test_name_taken_by_other_type_skipped(self, caplog):
        # ids is keyed by name: a cold user named like an earlier cold item
        # is skipped, so the item keeps the name and the batch integrates
        g = build_shop_graph(synthetic_schema())
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        profs = [ColdProfile("x", "item", (ColdDeclaration("produced_by", "brand", "b0"),)),
                 ColdProfile("x", "user", (ColdDeclaration("like", "brand", "b0"),))]
        for bought in (None, {"x": ["i0"]}):
            with caplog.at_level("INFO", logger="pathrec.coldstart"):
                aug, ext, ids = integrate_cold_entities(
                    g, table, profs, ColdStrategy.AVERAGE_TRANSLATION, bought)
            assert ids == {"x": g.entity_count}
            assert aug.entity_key(ids["x"]) == "item:x"
            assert not aug.has_entity("user", "x")
            assert aug.triplet_count == g.triplet_count + 1
            assert ext.entity_count == table.entity_count + 1
            assert isinstance(skip_reason(caplog, "x"), DuplicateEntity)

    def test_strategies_differ_only_in_cold_rows(self, tiny_graph, small_table):
        profs = self.make_profiles()
        _, avg, _ = integrate_cold_entities(tiny_graph, small_table, profs,
                                            ColdStrategy.AVERAGE_TRANSLATION)
        _, null, _ = integrate_cold_entities(tiny_graph, small_table, profs,
                                             ColdStrategy.NULL)
        n = small_table.entity_count
        np.testing.assert_array_equal(avg.entity_vecs[:n], null.entity_vecs[:n])
        assert np.all(null.entity_vecs[n:] == 0.0)
        assert np.any(avg.entity_vecs[n:] != 0.0)


# A schema in which cold entities of every type can target each other:
# cold users may watch cold items, cold items may be bought with cold items
# and cold brands may be owned by cold brands.
BATCH_SCHEMA = KGSchema(entity_types=("user", "item", "brand"), relations=(
    RelationSpec("purchase", "user", "item", interaction=True),
    RelationSpec("like", "user", "brand", cold_integration=True),
    RelationSpec("watches", "user", "item", cold_integration=True),
    RelationSpec("produced_by", "item", "brand", cold_integration=True),
    RelationSpec("also_bought", "item", "item", cold_integration=True),
    RelationSpec("owned_by", "brand", "brand", cold_integration=True)))
WARM_NAMES = {"user": ["u0", "u1", "u2"], "item": ["i0", "i1", "i2", "i3"],
              "brand": ["b0", "b1"]}
# cold names: fresh ones, repeated within and across types, and warm names
COLD_NAMES = ["n0", "n1", "n2", "n3", "n4", "u0", "i1", "b0"]


def batch_warm_graph() -> KnowledgeGraph:
    g = GraphWriter(BATCH_SCHEMA)
    ids = {(t, n): g.add_entity(t, n) for t, names in WARM_NAMES.items() for n in names}
    rel = g.relation_id
    g.add_triplets(
        [ids["item", "i0"], ids["item", "i1"], ids["item", "i2"], ids["item", "i3"],
         ids["user", "u0"], ids["user", "u1"], ids["user", "u2"], ids["user", "u0"]],
        [rel("produced_by")] * 4 + [rel("purchase")] * 3 + [rel("like")],
        [ids["brand", "b0"], ids["brand", "b1"], ids["brand", "b0"], ids["brand", "b1"],
         ids["item", "i0"], ids["item", "i2"], ids["item", "i3"], ids["brand", "b1"]])
    return g.graph


def random_batch(seed: int):
    """Profiles and moved interactions drawn so that a batch mixes every
    case integration tells apart: empty profiles, names repeated within
    and across types or taken by warm entities, unknown targets, profiles
    with no known target, targets that are earlier or later batch
    entities, repeated declarations and interactions naming unknowns."""
    rng = np.random.default_rng([seed, 15])
    profiles = []
    for _ in range(int(rng.integers(3, 12))):
        etype = str(rng.choice(list(WARM_NAMES)))
        decls = []
        for _ in range(int(rng.integers(0, 5))):
            spec = rng.choice([r for r in BATCH_SCHEMA.relations
                               if r.cold_integration and r.head_type == etype])
            pool = WARM_NAMES[spec.tail_type] + COLD_NAMES + ["zz"]
            decls.append((spec.name, spec.tail_type, str(rng.choice(pool))))
        profiles.append(profile(str(rng.choice(COLD_NAMES)), etype, *decls))
    names = COLD_NAMES + WARM_NAMES["item"] + ["nobody"]
    interactions = {str(rng.choice(names)): [str(x) for x in rng.choice(names, size=3)]
                    for _ in range(3)}
    return profiles, interactions


def logged(caplog) -> list[tuple]:
    """Every captured record as (logger, level, message, args), exceptions
    among the args as (type, text)."""
    return [(r.name, r.levelname, r.msg,
             tuple((type(a), str(a)) if isinstance(a, Exception) else a for a in r.args))
            for r in caplog.records]


def run_logged(fn, caplog, *args):
    caplog.clear()
    with caplog.at_level("INFO", logger="pathrec"):
        result = fn(*args)
    return result, logged(caplog)


class TestBatchAgainstReference:
    """``augment_graph`` against ``reference_augment_graph``, the
    one-profile-at-a-time pass it replaced."""

    def test_random_batches_equal_one_at_a_time(self, caplog):
        g = batch_warm_graph()
        seen = {"empty": 0, "dropped": 0, "no known target": 0, "taken by warm": 0,
                "taken in batch": 0, "batch target": 0, "interaction": 0, "duplicate": 0}
        for seed in range(300):
            profiles, interactions = random_batch(seed)
            (aug, ids), logs = run_logged(augment_graph, caplog, g, profiles, interactions)
            (ref, ref_ids), ref_logs = run_logged(reference_augment_graph, caplog,
                                                  g, profiles, interactions)
            assert list(ids.items()) == list(ref_ids.items()), seed
            assert ([aug.entity_key(e) for e in range(aug.entity_count)]
                    == [ref.entity_key(e) for e in range(ref.entity_count)])
            for got, want in zip(aug.triplet_arrays(), ref.triplet_arrays()):
                np.testing.assert_array_equal(got, want)
            assert logs == ref_logs, seed
            text = "\n".join(r.getMessage() for r in caplog.records)
            seen["empty"] += text.count("declares no relations")
            seen["dropped"] += text.count("dropped")
            seen["no known target"] += text.count("has no known targets")
            seen["taken by warm"] += sum(f"existing entity {e} " in text
                                         for e in range(g.entity_count))
            seen["taken in batch"] += sum(f"existing entity {e} " in text for e in ids.values())
            heads, rels, tails = aug.triplet_arrays()
            seen["batch target"] += int(np.count_nonzero(
                (heads >= g.entity_count) & (tails >= g.entity_count)))
            seen["interaction"] += int(np.count_nonzero(
                (heads >= g.entity_count) & (rels == aug.interaction_relation)))
            seen["duplicate"] += text.count("duplicate triplet")
        assert all(seen.values()), seen

    def test_cross_type_repeats_and_batch_targets(self, caplog):
        g = batch_warm_graph()
        profiles = [profile("n0", "item", ("also_bought", "item", "n1")),  # n1 comes later
                    profile("n1", "item", ("produced_by", "brand", "b0")),
                    profile("n1", "brand", ("owned_by", "brand", "b0")),  # name taken by an item
                    profile("n2", "user", ("watches", "item", "n1"), ("like", "brand", "n1")),
                    profile("i1", "brand", ("owned_by", "brand", "b1")),  # warm name, other type
                    profile("i1", "item", ("produced_by", "brand", "b0"))]  # taken twice
        (aug, ids), logs = run_logged(augment_graph, caplog, g, profiles, {"n2": ["n1"]})
        (ref, ref_ids), ref_logs = run_logged(reference_augment_graph, caplog, g, profiles,
                                              {"n2": ["n1"]})
        base = g.entity_count
        assert ids == ref_ids == {"n1": base, "n2": base + 1, "i1": base + 2}
        assert logs == ref_logs
        assert skip_reason(caplog, "n0").args[0] == "profile 'n0' has no known targets"
        for got, want in zip(aug.triplet_arrays(), ref.triplet_arrays()):
            np.testing.assert_array_equal(got, want)
        # n2 watches and bought item n1; its like of brand "n1" is dropped
        assert aug.neighbors(base + 1) == [
            (aug.relation_id("purchase"), base, FORWARD),
            (aug.relation_id("watches"), base, FORWARD)]

    @pytest.mark.parametrize("bad", [("produced_by", "brand", "b0"),  # heads at item
                                     ("purchase", "item", "i0"),  # interaction
                                     ("like", "item", "i0"),  # targets brand
                                     ("follows", "user", "u1")])  # unknown relation
    def test_schema_violation_raised_as_one_at_a_time(self, caplog, bad):
        g = batch_warm_graph()
        profiles = [profile("n0", "user", ("like", "brand", "zz")),
                    profile("n1", "user", ("like", "brand", "b0"), bad),
                    profile("n2", "user", ("like", "brand", "b1"))]
        errors, logs = [], []
        for fn in (augment_graph, reference_augment_graph):
            caplog.clear()
            with caplog.at_level("INFO", logger="pathrec"), \
                    pytest.raises(SchemaViolation) as exc:
                fn(g, profiles)
            errors.append(str(exc.value))
            logs.append(logged(caplog))
        assert errors[0] == errors[1] and logs[0] == logs[1]
        assert len(logs[0]) == 2  # n0 was dropped and skipped before n1 raised

    def test_cold_rows_equal_one_at_a_time(self):
        g = batch_warm_graph()
        table = init_table(g, EmbedTrainConfig(dim=6), seed=1)
        for seed in range(40):
            profiles, interactions = random_batch(seed)
            aug, ext, ids = integrate_cold_entities(g, table, profiles,
                                                    ColdStrategy.AVERAGE_TRANSLATION,
                                                    interactions)
            want = reference_cold_rows(table, aug, list(ids.values()),
                                       ColdStrategy.AVERAGE_TRANSLATION)
            assert ext.entity_vecs[table.entity_count:].tobytes() == want.tobytes()

    def test_cost_is_one_check_per_kind_and_one_registry_write(self, make_graph,
                                                               monkeypatch):
        g = make_graph(n_users=6, n_items=8, seed=1)
        rng = np.random.default_rng(7)
        targets = {"brand": ["b0", "b1"], "category": ["c0", "c1"]}
        relations = {"item": [("produced_by", "brand"), ("belong_to", "category")],
                     "user": [("like", "brand"), ("interested_in", "category")]}
        profiles = [profile(f"cold{j}", etype,
                            *[(rel, ttype, str(rng.choice(targets[ttype])))
                              for rel, ttype in relations[etype]])
                    for j, etype in enumerate(rng.choice(["item", "user"], size=60))]
        kinds = {(p.entity_type, d.relation, d.target_type)
                 for p in profiles for d in p.declarations}
        calls = {"validate": 0, "extended": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(cls, name, call)

        counted(ColdProfile, "validate")
        counted(KnowledgeGraph, "extended")
        aug, ids = augment_graph(g, profiles)
        assert len(ids) == len(profiles) == 60 and len(kinds) == 4
        assert calls == {"validate": len(kinds), "extended": 1}


class TestColdRecommendation:
    def test_cold_user_gets_items_through_profile(self, make_graph):
        g = make_graph(n_users=6, n_items=10, n_brands=2, n_categories=2,
                       interactions=4, seed=3)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        cold = profile("newbie", "user", ("like", "brand", "b0"),
                       ("interested_in", "category", "c1"))
        aug, ext, ids = integrate_cold_entities(g, table, [cold],
                                                ColdStrategy.AVERAGE_TRANSLATION)
        cfg = AgentConfig(hop_budget=3, max_actions=40, hidden=(16, 8))
        policy = PolicyModel(ext.dim, cfg, seed=4)
        recs = recommend_cold(ids["newbie"], policy, aug, ext, k=10,
                              widths=[40, 40, 40])
        assert recs.entries, "wide beam must reach items through the profile"
        interaction = aug.interaction_relation
        for entry in recs.entries:
            first = next(r for r, _ in entry.path.state.relations
                         if r != -1)
            assert first != interaction

    def test_inverse_interaction_of_one_type_serves(self):
        """Users buy users: cold ``u``'s only interaction edge is the
        inverse of ``v``'s purchase of it, and a path may open with it."""
        schema = KGSchema(entity_types=("user", "brand"), relations=(
            RelationSpec("purchase", "user", "user", interaction=True),
            RelationSpec("like", "user", "brand", cold_integration=True)))
        g = GraphWriter(schema)
        w = [g.add_entity("user", f"w{i}") for i in range(3)]
        b = [g.add_entity("brand", f"b{i}") for i in range(2)]
        pu, lk = g.relation_id("purchase"), g.relation_id("like")
        g.add_triplets([w[0], w[1], w[0], w[1], w[2]], [pu, pu, lk, lk, lk],
                       [w[1], w[2], b[0], b[1], b[0]])
        g = g.graph
        table = init_table(g, EmbedTrainConfig(dim=4), seed=0)
        aug, ext, ids = integrate_cold_entities(
            g, table, [profile("u", "user", ("like", "brand", "b0")),
                       profile("v", "user", ("like", "brand", "b1"))],
            ColdStrategy.AVERAGE_TRANSLATION, interactions={"v": ["u"]})
        assert aug.user_items(ids["u"]) == set()
        policy = PolicyModel(ext.dim,
                             AgentConfig(hop_budget=3, max_actions=16, hidden=(8, 8)), seed=0)
        recs = recommend_cold(ids["u"], policy, aug, ext, k=5, widths=[16, 16, 16])
        assert (pu, INVERSE) in [e.path.state.relations[0] for e in recs.entries]
        # an all-self-loop path ends at u itself, which is never served to u
        assert ids["u"] not in [e.item for e in recs.entries]

    def test_warm_user_served_by_beam_then_rank(self, make_graph):
        g = make_graph(n_users=6, n_items=10, interactions=4, seed=3)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        policy = PolicyModel(table.dim,
                             AgentConfig(hop_budget=3, max_actions=40, hidden=(16, 8)), seed=4)
        for name in ("u0", "u1"):
            u = g.entity_id("user", name)
            want = rank_recommendations(beam_search(u, policy, g, table, [8, 4, 2]),
                                        g, table, u, 5)
            assert recommend_cold(u, policy, g, table, k=5, widths=[8, 4, 2]) == want

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, make_graph, k):
        g = make_graph(n_users=6, n_items=10, interactions=4, seed=3)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        policy = PolicyModel(table.dim,
                             AgentConfig(hop_budget=3, max_actions=40, hidden=(16, 8)), seed=4)
        with pytest.raises(InvalidSpec, match="k must be >= 1"):
            recommend_cold(g.entity_id("user", "u0"), policy, g, table, k=k, widths=[8, 4, 2])

    def test_non_user_rejected(self, tiny_graph, small_table):
        policy = PolicyModel(small_table.dim,
                             AgentConfig(hop_budget=2, max_actions=10,
                                         hidden=(16, 8)))
        with pytest.raises(UnknownUser):
            recommend_cold(tiny_graph.entity_id("item", "i0"), policy,
                           tiny_graph, small_table, k=5, widths=[10, 10])
