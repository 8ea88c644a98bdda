import json
import pickle
import re
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrec.errors import (DuplicateEntity, InvalidSpec, ParseError, SchemaViolation,
                            UnknownEntity)
from pathrec.graph import (FORWARD, INVERSE, DerivationRule, KGSchema,
                           KnowledgeGraph, RelationSpec, check_triplet_row,
                           parse_entity_token, read_triplet_rows)

from conftest import build_multi_edge_graph, build_shop_graph
from oracles import GraphWriter, reference_compile_pattern, reference_schema_tables


def minimal_schema(**overrides):
    data = {
        "entity_types": ["user", "item", "brand"],
        "relations": [
            {"name": "purchase", "head": "user", "tail": "item", "interaction": True},
            {"name": "produced_by", "head": "item", "tail": "brand"},
        ],
    }
    data.update(overrides)
    return data


class TestSchema:
    def test_round_trip(self, schema, tmp_path):
        schema.save(tmp_path / "schema.json")
        again = KGSchema.load(str(tmp_path / "schema.json"))
        assert again == schema

    def test_exactly_one_interaction(self):
        data = minimal_schema()
        data["relations"][1]["interaction"] = True
        with pytest.raises(SchemaViolation, match="exactly one interaction"):
            KGSchema.from_json(data)
        data = minimal_schema()
        data["relations"][0].pop("interaction")
        with pytest.raises(SchemaViolation, match="exactly one interaction"):
            KGSchema.from_json(data)

    def test_self_loop_name_reserved(self):
        data = minimal_schema()
        data["relations"][1]["name"] = "self_loop"
        with pytest.raises(SchemaViolation, match="'self_loop' is reserved"):
            KGSchema.from_json(data)

    def test_unknown_type_in_relation(self):
        data = minimal_schema()
        data["relations"][1]["tail"] = "vendor"
        with pytest.raises(SchemaViolation, match="unknown entity type"):
            KGSchema.from_json(data)

    def test_derivation_must_be_type_consistent(self):
        spec = RelationSpec("like", "user", "item", derived_from=DerivationRule("purchase", "produced_by"))
        with pytest.raises(SchemaViolation, match="not type-consistent"):
            KGSchema(
                entity_types=("user", "item", "brand"),
                relations=(
                    RelationSpec("purchase", "user", "item", interaction=True),
                    RelationSpec("produced_by", "item", "brand"),
                    spec,
                ),
            )

    def test_derivation_must_join_the_interaction(self):
        with pytest.raises(SchemaViolation, match="must join the interaction"):
            KGSchema(
                entity_types=("user", "item", "brand"),
                relations=(
                    RelationSpec("purchase", "user", "item", interaction=True),
                    RelationSpec("produced_by", "item", "brand"),
                    RelationSpec("like", "user", "brand",
                                 derived_from=DerivationRule("produced_by", "produced_by")),
                ),
            )

    def test_pattern_validation(self):
        bad_start = minimal_schema(path_patterns=[["item", "~purchase", "user"]])
        with pytest.raises(SchemaViolation, match="start at the user type"):
            KGSchema.from_json(bad_start)
        bad_dir = minimal_schema(path_patterns=[["user", "~purchase", "item"]])
        with pytest.raises(SchemaViolation, match="against its schema"):
            KGSchema.from_json(bad_dir)
        bad_arity = minimal_schema(path_patterns=[["user", "purchase"]])
        with pytest.raises(SchemaViolation, match="alternate"):
            KGSchema.from_json(bad_arity)

    def test_interaction_derived_types(self, schema):
        assert schema.user_type == "user"
        assert schema.item_type == "item"
        assert schema.interaction_relation.name == "purchase"

    def test_relation_lookup(self, schema):
        assert schema.relation("belong_to") is schema.relations[2]
        with pytest.raises(SchemaViolation, match="unknown relation 'owns'"):
            schema.relation("owns")

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["relations"][0].update(cold_integration="false"),
         "relation 'purchase': cold_integration must be a JSON boolean"),
        (lambda d: d["relations"][0].update(interaction=1),
         "relation 'purchase': interaction must be a JSON boolean"),
        (lambda d: d["relations"][1].update(name=5), "relations[1] must be an object"),
        (lambda d: d["relations"].append(["like", "user", "brand"]),
         "relations[2] must be an object"),
        (lambda d: d["relations"][1].update(head=None), "relation 'produced_by': head"),
        (lambda d: d["relations"][1].pop("tail"), "relation 'produced_by': tail"),
        (lambda d: d.update(entity_types=["user", "item", 3]), "entity_types"),
        (lambda d: d.update(entity_types="user"), "entity_types"),
        (lambda d: d.update(relations={"purchase": {}}), "relations must be a list"),
        (lambda d: d["relations"].append({"name": "like", "head": "user", "tail": "brand",
                                          "derived_from": "purchase"}),
         "relation 'like': derived_from must be an object"),
        (lambda d: d["relations"].append({"name": "like", "head": "user", "tail": "brand",
                                          "derived_from": {"interaction": "purchase", "via": 2}}),
         "relation 'like': derived_from.via must be a string"),
        (lambda d: d.update(path_patterns=[["user", "purchase", "item"],
                                           ["user", 5, "brand", "~produced_by", "item"]]),
         "path_patterns[1] must be a list of strings"),
        (lambda d: d.update(path_patterns=["user purchase item"]),
         "path_patterns[0] must be a list of strings"),
        (lambda d: d.update(path_patterns={"user": "purchase"}), "path_patterns must be a list"),
    ])
    def test_malformed_field_is_named(self, edit, field):
        """A schema whose names, types or pattern tokens are not strings,
        or whose flags are not JSON booleans, raises ParseError naming the
        field; none is read as something else."""
        data = minimal_schema()
        edit(data)
        with pytest.raises(ParseError, match="^" + re.escape(f"schema.json: {field}")):
            KGSchema.from_json(data, "schema.json")

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(path_pattern=[["user", "purchase", "item"]]),
         "unknown key 'path_pattern'"),
        (lambda d: d["relations"][1].update(cold_integraton=True),
         "relation 'produced_by': unknown key 'cold_integraton'"),
        (lambda d: d["relations"].append({"name": "like", "head": "user", "tail": "brand",
                                          "derived_from": {"interaction": "purchase",
                                                           "via": "produced_by", "hops": 2}}),
         "relation 'like': derived_from: unknown key 'hops'"),
    ])
    def test_unknown_key_is_named(self, edit, field):
        """A misspelt key raises ParseError naming it, rather than loading
        the schema as if the key were absent."""
        data = minimal_schema()
        edit(data)
        with pytest.raises(ParseError, match="^" + re.escape(f"schema.json: {field}") + "$"):
            KGSchema.from_json(data, "schema.json")

    def test_schema_file_violation_names_the_file(self):
        data = minimal_schema(path_patterns=[["user", "bogus", "item"]])
        with pytest.raises(SchemaViolation, match="uses unknown relation bogus"):
            KGSchema.from_json(data)
        with pytest.raises(SchemaViolation, match="^" + re.escape(
                "run/split/schema.json: pattern ('user', 'bogus', 'item') "
                "uses unknown relation bogus") + "$"):
            KGSchema.parse("run/split/schema.json", json.dumps(data).encode())

    def test_json_booleans_and_null_derivation_load(self):
        data = minimal_schema()
        data["relations"][1].update(cold_integration=False, derived_from=None)
        schema = KGSchema.from_json(data)
        assert schema.relations[1] == RelationSpec("produced_by", "item", "brand")
        assert schema.cold_mask.tolist() == [False, False]


# types out of their order of use, the interaction relation not first, a
# user-user relation walked both ways and a derived one walked back
HAND_SCHEMA = {
    "entity_types": ["tag", "item", "user"],
    "relations": [
        {"name": "tagged", "head": "item", "tail": "tag", "cold_integration": True},
        {"name": "follows", "head": "user", "tail": "user", "cold_integration": True},
        {"name": "buy", "head": "user", "tail": "item", "interaction": True},
        {"name": "likes_tag", "head": "user", "tail": "tag", "cold_integration": True,
         "derived_from": {"interaction": "buy", "via": "tagged"}},
    ],
    "path_patterns": [
        ["user", "follows", "user", "buy", "item"],
        ["user", "~follows", "user", "buy", "item"],
        ["user", "likes_tag", "tag", "~tagged", "item"],
        ["user", "buy", "item", "~buy", "user", "buy", "item"],
    ],
}


class TestCompiledSchema:
    @pytest.fixture(params=["synthetic", "hand"])
    def compiled(self, request, schema):
        """A schema and a graph with two entities of each type and one
        triplet of each relation, between entities of its head and tail
        types."""
        if request.param == "hand":
            schema = KGSchema.from_json(HAND_SCHEMA)
        types = [t for t in schema.entity_types for _ in range(2)]
        names = [f"{t}{k}" for t in schema.entity_types for k in range(2)]
        heads = [types.index(r.head_type) for r in schema.relations]
        tails = [types.index(r.tail_type) + 1 for r in schema.relations]
        graph = KnowledgeGraph.build(schema, types, names, heads,
                                     range(len(schema.relations)), tails)
        return schema, graph

    def test_tables_equal_the_linear_scans(self, compiled):
        schema, graph = compiled
        want = reference_schema_tables(schema)
        assert dict(schema.type_ids) == want["type_ids"]
        assert dict(schema.relation_ids) == want["relation_ids"]
        assert list(schema.relation_ids) == [r.name for r in schema.relations]
        assert schema.relation_head.tolist() == want["relation_head"]
        assert schema.relation_tail.tolist() == want["relation_tail"]
        assert schema.derived_mask.tolist() == want["derived_mask"]
        assert schema.cold_mask.tolist() == want["cold_mask"]
        assert schema.interaction_id == want["interaction_id"] == graph.interaction_relation

    def test_tables_agree_with_the_graph(self, compiled):
        schema, graph = compiled
        assert [graph.relation_id(r.name) for r in schema.relations] == list(
            range(len(schema.relations)))
        for (h, r, t) in graph.triplets():
            assert graph.entity_type(h) == schema.entity_types[schema.relation_head[r]]
            assert graph.entity_type(t) == schema.entity_types[schema.relation_tail[r]]
        for etype, type_id in schema.type_ids.items():
            assert [graph.entity_type(e) for e in graph.entities_of_type(etype)] == [etype] * 2
            assert schema.entity_types[type_id] == etype

    def test_pattern_steps_equal_the_reference_compiler(self, compiled):
        schema, graph = compiled
        assert len(schema.pattern_steps) == len(schema.path_patterns) > 0
        assert schema.pattern_steps == tuple(reference_compile_pattern(p, graph)
                                             for p in schema.path_patterns)
        assert any(d == INVERSE for steps in schema.pattern_steps for _, d in steps)

    def test_tables_are_read_only(self, compiled):
        schema, _ = compiled
        for array in (schema.relation_head, schema.relation_tail, schema.derived_mask,
                      schema.cold_mask):
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            schema.relation_ids["extra"] = 0
        with pytest.raises(TypeError):
            schema.type_ids["extra"] = 0

    def test_hand_schema_steps(self):
        """Ids follow the schema's lists, not the order of use."""
        schema = KGSchema.from_json(HAND_SCHEMA)
        tagged, follows, buy, likes_tag = range(4)
        assert dict(schema.type_ids) == {"tag": 0, "item": 1, "user": 2}
        assert schema.relation_head.tolist() == [1, 2, 2, 2]
        assert schema.relation_tail.tolist() == [0, 2, 1, 0]
        assert schema.derived_mask.tolist() == [False, False, False, True]
        assert schema.pattern_steps == (
            ((follows, FORWARD), (buy, FORWARD)),
            ((follows, INVERSE), (buy, FORWARD)),
            ((likes_tag, FORWARD), (tagged, INVERSE)),
            ((buy, FORWARD), (buy, INVERSE), (buy, FORWARD)),
        )

    def test_compiled_schema_compares_hashes_and_pickles_by_its_declaration(self, compiled):
        schema, _ = compiled
        again = KGSchema.from_json(schema.to_json())
        assert again == schema and hash(again) == hash(schema)
        assert again.relation_head is not schema.relation_head
        for copy in (pickle.loads(pickle.dumps(schema)), deepcopy(schema)):
            assert copy == schema and copy.pattern_steps == schema.pattern_steps
            assert dict(copy.relation_ids) == dict(schema.relation_ids)


class TestGraphRegistry:
    def test_interning_is_idempotent(self, schema):
        g = GraphWriter(schema)
        a = g.add_entity("user", "u0")
        assert g.add_entity("user", "u0") == a
        assert g.entity_id("user", "u0") == a
        assert g.entity_key(a) == "user:u0"
        assert g.entity_count == 1

    def test_same_name_different_type(self, schema):
        g = GraphWriter(schema)
        a = g.add_entity("user", "x")
        b = g.add_entity("item", "x")
        assert a != b
        assert g.entity_type(a) == "user" and g.entity_type(b) == "item"

    def test_unknown_lookups(self, schema):
        g = GraphWriter(schema)
        with pytest.raises(UnknownEntity):
            g.entity_id("user", "nope")
        with pytest.raises(UnknownEntity):
            g.entity_name(0)
        with pytest.raises(SchemaViolation):
            g.add_entity("vendor", "v0")
        with pytest.raises(SchemaViolation):
            g.relation_id("nope")

    def test_batch_interning_equals_one_by_one(self, schema):
        keys = [("user", "u0"), ("item", "x"), ("user", "x"), ("item", "x"),
                ("brand", "b0"), ("user", "u0"), ("item", "i1")]
        one = GraphWriter(schema)
        one.add_entity("item", "i1")
        batch = GraphWriter(one.graph)
        want = [one.add_entity(*key) for key in keys]
        got = batch.add_entities([t for t, _ in keys], [n for _, n in keys])
        assert got == want == [1, 2, 3, 2, 4, 1, 0]
        assert ([batch.entity_key(e) for e in range(batch.entity_count)]
                == [one.entity_key(e) for e in range(one.entity_count)])
        assert batch.items() == one.items() and batch.users() == one.users()
        assert batch.add_entities([], []) == []

    def test_batch_interning_is_all_or_nothing(self, schema):
        g = GraphWriter(schema)
        with pytest.raises(SchemaViolation, match="vendor"):
            g.add_entities(["user", "vendor"], ["u0", "v0"])
        assert g.entity_count == 0 and not g.has_entity("user", "u0")
        with pytest.raises(InvalidSpec):
            g.extended(["user"], ["u0", "u1"], [], [], [])

    def test_growth_past_capacity(self, schema):
        g = GraphWriter(schema)
        g.add_entities(["user"] * 10, [f"u{i}" for i in range(10)])
        ids = g.add_entities(["item"] * 40, [f"i{i}" for i in range(40)])
        assert ids == list(range(10, 50))
        assert g.users() == list(range(10)) and g.items() == ids

    def test_entity_index_is_a_read_only_view(self, schema):
        g = GraphWriter(schema)
        g.add_entity("user", "u0")
        index = g.entity_index()
        assert dict(index) == {("user", "u0"): 0}
        with pytest.raises(TypeError):
            index[("user", "u1")] = 1


class TestTriplets:
    def test_schema_enforced(self, schema):
        g = GraphWriter(schema)
        u = g.add_entity("user", "u0")
        b = g.add_entity("brand", "b0")
        with pytest.raises(SchemaViolation, match="violates schema"):
            g.add_triplet(u, g.relation_id("purchase"), b)

    def test_duplicates_dropped(self, schema):
        g = GraphWriter(schema)
        u = g.add_entity("user", "u0")
        i = g.add_entity("item", "i0")
        pu = g.relation_id("purchase")
        g.add_triplet(u, pu, i)
        g.add_triplet(u, pu, i)
        assert g.triplet_count == 1
        assert g.interactions_by_user() == {u: [i]}

    def test_neighbors_canonical_order(self, tiny_graph):
        g = tiny_graph
        i0 = g.entity_id("item", "i0")
        got = g.neighbors(i0)
        assert got == sorted(got)
        # i0 is purchased by u0 (inverse), produced by b0, in c0 (forward)
        rels = {(g.relation_name(r), d) for r, _, d in got}
        assert rels == {("purchase", INVERSE), ("produced_by", FORWARD),
                        ("belong_to", FORWARD)}

    def test_neighbors_filter_by_relation(self, tiny_graph):
        g = tiny_graph
        u0 = g.entity_id("user", "u0")
        pu = g.relation_id("purchase")
        got = g.neighbors(u0, pu)
        assert [g.entity_name(n) for _, n, _ in got] == ["i0", "i1"]
        assert all(r == pu and d == FORWARD for r, _, d in got)

    def test_interactions_chronological(self, schema):
        g = GraphWriter(schema)
        u = g.add_entity("user", "u0")
        items = [g.add_entity("item", f"i{k}") for k in (3, 1, 2)]
        pu = g.relation_id("purchase")
        for i in items:
            g.add_triplet(u, pu, i)
        assert g.interactions_by_user()[u] == items  # insertion order, not id order
        assert g.user_items(u) == frozenset(items)

    def test_interaction_count(self, tiny_graph):
        g = tiny_graph
        assert g.interaction_counts()[g.entity_id("item", "i0")] == 1
        assert g.interaction_counts()[g.entity_id("brand", "b0")] == 0  # not an item

    def test_derived_edges_present(self, tiny_graph):
        g = tiny_graph
        u0 = g.entity_id("user", "u0")
        like = g.relation_id("like")
        assert g.has_triplet(u0, like, g.entity_id("brand", "b0"))
        assert not g.has_triplet(u0, like, g.entity_id("brand", "b1"))


class TestBuild:
    def test_extended_leaves_the_base_as_it_was(self, tiny_graph):
        csr, counts = tiny_graph.csr(), tiny_graph.interaction_counts()
        fingerprint, n = tiny_graph.fingerprint(), tiny_graph.entity_count
        pu, i2 = tiny_graph.relation_id("purchase"), tiny_graph.entity_id("item", "i2")
        g = tiny_graph.extended(["user"], ["u9"], [n, 0], [pu, pu], [i2, i2])
        assert g.entity_id("user", "u9") == n and g.entity_count == n + 1
        assert g.triplet_count == tiny_graph.triplet_count + 2
        assert g.neighbors(n) == [(pu, i2, FORWARD)]
        assert g.interaction_counts()[i2] == 3 and g.fingerprint() != fingerprint
        assert tiny_graph.csr() is csr and tiny_graph.interaction_counts() is counts
        assert tiny_graph.fingerprint() == fingerprint and tiny_graph.entity_count == n
        assert not tiny_graph.has_entity("user", "u9") and tiny_graph.interaction_counts()[i2] == 1

    def test_extended_rejects_a_key_twice(self, tiny_graph):
        with pytest.raises(DuplicateEntity, match="user:u0"):
            tiny_graph.extended(["item", "user"], ["i9", "u0"], [], [], [])
        with pytest.raises(DuplicateEntity, match="item:i9"):
            tiny_graph.extended(["item", "user", "item"], ["i9", "i9", "i9"], [], [], [])
        with pytest.raises(InvalidSpec):
            tiny_graph.extended([], [], [0], [0], [])

    def test_has_type_rejects_unregistered_ids(self, schema):
        g = KnowledgeGraph.build(schema, ["item", "user"], ["i0", "u0"], [], [], [])
        assert g.has_type(np.array([1, 0]), "user").tolist() == [True, False]
        for bad in (5, -1, 2):
            with pytest.raises(UnknownEntity, match=f"entity id {bad} "):
                g.has_type(np.array([1, bad]), "user")


class TestLifecycle:
    def test_fingerprint_insensitive_to_insertion_order(self, schema):
        def build(order):
            g = GraphWriter(schema)
            u = g.add_entity("user", "u0")
            items = {n: g.add_entity("item", n) for n in ("i0", "i1")}
            pu = g.relation_id("purchase")
            for n in order:
                g.add_triplet(u, pu, items[n])
            return g.fingerprint()

        assert build(["i0", "i1"]) == build(["i1", "i0"])


class TestSerialization:
    def test_round_trip(self, tiny_graph, tmp_path):
        from pathrec.datasets import load_dataset

        path = tmp_path / "g.tsv"
        tiny_graph.write_triplets(str(path))
        again = load_dataset(str(path), tiny_graph.schema)
        assert again.fingerprint() == tiny_graph.fingerprint()

    def test_derived_excluded_by_default(self, tiny_graph, tmp_path):
        path = tmp_path / "g.tsv"
        tiny_graph.write_triplets(str(path))
        rels = {line.split("\t")[1] for line in path.read_text().splitlines()}
        assert "like" not in rels and "interested_in" not in rels
        tiny_graph.write_triplets(str(path), include_derived=True)
        rels = {line.split("\t")[1] for line in path.read_text().splitlines()}
        assert "like" in rels

    def test_parse_entity_token(self):
        assert parse_entity_token("item:a:b") == ("item", "a:b")
        for bad in ("item", ":name", "item:"):
            with pytest.raises(ParseError):
                parse_entity_token(bad)

    def test_read_triplet_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# comment\n\nuser:u0\tpurchase\titem:i0\n")
        assert [check_triplet_row(str(p), lineno, fields)
                for lineno, fields in read_triplet_rows(str(p))] == [
            ("user", "u0", "purchase", "item", "i0")]
        p.write_text("user:u0 purchase item:i0\n")
        with pytest.raises(ParseError, match="3 tab-separated"):
            check_triplet_row(str(p), *read_triplet_rows(str(p))[0])


class TestProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_edges_visible_from_both_sides(self, seed):
        from pathrec.datasets import synthetic_schema

        g = build_shop_graph(synthetic_schema(), n_users=5, n_items=8,
                             n_brands=3, n_categories=2, interactions=4, seed=seed)
        for h, r, t in g.triplets():
            assert (r, t, FORWARD) in g.neighbors(h)
            assert (r, h, INVERSE) in g.neighbors(t)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_degree_sums_to_twice_triplets(self, seed):
        from pathrec.datasets import synthetic_schema

        g = build_shop_graph(synthetic_schema(), n_users=5, n_items=8,
                             n_brands=3, n_categories=2, interactions=4, seed=seed)
        assert sum(len(g.neighbors(e)) for e in range(g.entity_count)) == 2 * g.triplet_count


class TestCSR:
    def test_rows_equal_neighbors(self, make_graph):
        for g in (make_graph(n_users=7, n_items=15, n_brands=3, n_categories=2,
                             interactions=5, seed=5),
                  build_multi_edge_graph(seed=2)):
            adj = g.csr()
            assert adj.indptr[0] == 0 and adj.indptr[-1] == 2 * g.triplet_count
            for e in range(g.entity_count):
                lo, hi = adj.indptr[e], adj.indptr[e + 1]
                rows = list(zip(adj.rel[lo:hi].tolist(), adj.nbr[lo:hi].tolist(),
                                adj.dir[lo:hi].tolist()))
                assert rows == g.neighbors(e)

    def test_mutable_graph_reflects_later_triplets(self, tiny_graph):
        g = GraphWriter(tiny_graph)
        u0 = g.entity_id("user", "u0")
        i2 = g.entity_id("item", "i2")
        pu = g.relation_id("purchase")
        before = g.csr()
        g.add_triplet(u0, pu, i2)
        after = g.csr()
        lo, hi = after.indptr[u0], after.indptr[u0 + 1]
        assert hi - lo == before.indptr[u0 + 1] - before.indptr[u0] + 1
        assert (pu, i2, FORWARD) in zip(after.rel[lo:hi].tolist(),
                                        after.nbr[lo:hi].tolist(),
                                        after.dir[lo:hi].tolist())

    def test_entities_without_edges_have_empty_rows(self, schema):
        g = GraphWriter(schema)
        g.add_entity("user", "u0")
        g.add_entity("item", "i0")
        adj = g.graph.csr()
        assert adj.indptr.tolist() == [0, 0, 0]
        assert len(adj.rel) == len(adj.nbr) == len(adj.dir) == 0
