"""The array store and its bulk ingest paths against per-triplet references.

``ReferenceGraph`` is the Python-container store the array store replaced:
a triplet set, an insertion log and per-entity adjacency lists sorted on
read. ``reference_load`` and ``reference_derive`` are the line-by-line
loader and the interaction-by-interaction join; ``oracles.reference_cold_rows``
is the entity-by-entity embedding loop. Every comparison is exact.
"""

import hashlib
import json
import logging

import numpy as np
import pytest

from pathrec.coldstart import (ColdDeclaration, ColdProfile, ColdStrategy,
                               integrate_cold_entities)
from pathrec.datasets import (SplitConfig, SyntheticSpec, derive_relations,
                              generate_synthetic, load_dataset, split_dataset)
from pathrec.embeddings import EmbedTrainConfig, init_table, rng_for
from pathrec.errors import ParseError, SchemaViolation, UnknownEntity
from pathrec.graph import (FORWARD, INVERSE, KGSchema, KnowledgeGraph,
                           RelationSpec, check_triplet_row, read_triplet_rows)
from pathrec.pipeline import build_augmented

from conftest import build_multi_edge_graph, build_shop_graph
from oracles import GraphWriter, reference_cold_rows


class ReferenceGraph:
    """Per-triplet Python containers, checked like ``add_triplet``."""

    def __init__(self, schema):
        self.schema = schema
        self.names, self.types, self.by_key = [], [], {}
        self.adj, self.log, self.set = [], [], set()
        self.inter_log, self.tail_count = [], []
        self.rel_index = {r.name: i for i, r in enumerate(schema.relations)}

    def add_entity(self, etype, name):
        if (etype, name) in self.by_key:
            return self.by_key[(etype, name)]
        if etype not in self.schema.entity_types:
            raise SchemaViolation(f"unknown entity type {etype!r}")
        self.by_key[(etype, name)] = len(self.names)
        self.names.append(name)
        self.types.append(etype)
        self.adj.append([])
        self.tail_count.append(0)
        return len(self.names) - 1

    def relation_id(self, name):
        if name not in self.rel_index:
            raise SchemaViolation(f"unknown relation {name!r}")
        return self.rel_index[name]

    def add_triplet(self, h, r, t):
        for e in (h, t):
            if not 0 <= e < len(self.names):
                raise UnknownEntity(f"entity id {e} is not registered")
        if not 0 <= r < len(self.schema.relations):
            raise SchemaViolation(f"unknown relation id {r}")
        spec = self.schema.relations[r]
        if (self.types[h], self.types[t]) != (spec.head_type, spec.tail_type):
            raise SchemaViolation(f"({self.key(h)}, {spec.name}, {self.key(t)}) "
                                  f"violates schema ({spec.head_type} -> {spec.tail_type})")
        if (h, r, t) in self.set:
            return
        self.set.add((h, r, t))
        self.log.append((h, r, t))
        self.adj[h].append((r, t, FORWARD))
        self.adj[t].append((r, h, INVERSE))
        if spec.interaction:
            self.inter_log.append((h, t))
            self.tail_count[t] += 1

    def neighbors(self, e, relation=None):
        return [x for x in sorted(self.adj[e]) if relation is None or x[0] == relation]

    def interactions_by_user(self):
        out = {}
        for u, i in self.inter_log:
            out.setdefault(u, []).append(i)
        return out

    def key(self, e):
        return f"{self.types[e]}:{self.names[e]}"

    def fingerprint(self):
        lines = sorted(f"{self.key(h)}\t{self.schema.relations[r].name}\t{self.key(t)}"
                       for h, r, t in self.log)
        blob = json.dumps(self.schema.to_json(), sort_keys=True) + "\n" + "\n".join(lines)
        return hashlib.sha256(blob.encode()).hexdigest()


def reference_of(graph):
    """A ReferenceGraph holding ``graph``'s entities and triplets."""
    ref = ReferenceGraph(graph.schema)
    for e in range(graph.entity_count):
        ref.add_entity(graph.entity_type(e), graph.entity_name(e))
    for h, r, t in graph.triplets():
        ref.add_triplet(h, r, t)
    return ref


def assert_same_store(g: KnowledgeGraph, ref: ReferenceGraph):
    n = len(ref.names)
    assert g.entity_count == n
    assert [g.entity_key(e) for e in range(n)] == [ref.key(e) for e in range(n)]
    assert g.triplet_count == len(ref.log)
    assert list(g.triplets()) == ref.log
    heads, rels, tails = g.triplet_arrays()
    assert list(zip(heads.tolist(), rels.tolist(), tails.tolist())) == ref.log
    adj = g.csr()
    assert adj.indptr.tolist() == np.cumsum([0] + [len(a) for a in ref.adj]).tolist()
    for e in range(n):
        want = ref.neighbors(e)
        assert g.neighbors(e) == want
        lo, hi = adj.indptr[e], adj.indptr[e + 1]
        assert list(zip(adj.rel[lo:hi].tolist(), adj.nbr[lo:hi].tolist(),
                        adj.dir[lo:hi].tolist())) == want
        for r in range(g.relation_count):
            assert g.neighbors(e, r) == ref.neighbors(e, r)
        assert hi - lo == len(ref.adj[e])
    for h, r, t in ref.log:
        assert g.has_triplet(h, r, t)
    rng = np.random.default_rng(n)
    for h, r, t in rng.integers(0, max(n, 1), size=(50, 3)):
        r = int(r) % g.relation_count
        assert g.has_triplet(int(h), r, int(t)) == ((int(h), r, int(t)) in ref.set)
    inter = g.interaction_relation
    for u in g.users():
        assert g.user_items(u) == frozenset(
            x for r, x, d in ref.adj[u] if r == inter and d == FORWARD)
    assert list(g.interactions_by_user().items()) == list(ref.interactions_by_user().items())
    for i in g.items():
        assert g.interaction_counts()[i] == ref.tail_count[i]
    assert g.fingerprint() == ref.fingerprint()


def random_triplets(schema, n_entities, n, seed):
    """``n`` schema-valid triplets over ``n_entities`` entities of each type,
    with many repeats."""
    rng = rng_for(seed, "store-oracle")
    types = schema.entity_types
    out = []
    for _ in range(n):
        spec = schema.relations[int(rng.integers(len(schema.relations)))]
        h = types.index(spec.head_type) * n_entities + int(rng.integers(n_entities))
        t = types.index(spec.tail_type) * n_entities + int(rng.integers(n_entities))
        out.append((h, schema.relations.index(spec), t))
    return out


def registered(schema, n_entities):
    g = GraphWriter(schema)
    for etype in schema.entity_types:
        for k in range(n_entities):
            g.add_entity(etype, f"{etype[0]}{k}")
    return g


class TestBulkStore:
    @pytest.mark.parametrize("seed", range(5))
    def test_batches_equal_edge_by_edge(self, schema, seed):
        triplets = random_triplets(schema, 6, 160, seed)
        edge_by_edge = registered(schema, 6)
        for tr in triplets:
            edge_by_edge.add_triplet(*tr)
        ref = reference_of(registered(schema, 6))
        for tr in triplets:
            ref.add_triplet(*tr)
        bulk = registered(schema, 6)
        cuts = sorted(rng_for(seed, "cuts").choice(len(triplets), size=4, replace=False))
        for batch in np.split(np.asarray(triplets), cuts):
            bulk.add_triplets(batch[:, 0], batch[:, 1], batch[:, 2])
        assert len(ref.log) < len(triplets)  # repeats inside and across batches
        assert_same_store(edge_by_edge, ref)
        assert_same_store(bulk, ref)
        assert_same_store(bulk.graph, ref)

    def test_shop_and_multi_edge_graphs(self, schema):
        for g in (build_shop_graph(schema, n_users=7, n_items=12, interactions=5, seed=4),
                  build_multi_edge_graph(seed=3)):
            ref = reference_of(g)
            assert_same_store(g, ref)
            bulk = GraphWriter(g.schema)
            for e in range(g.entity_count):
                bulk.add_entity(g.entity_type(e), g.entity_name(e))
            spo = np.asarray(list(g.triplets()))
            bulk.add_triplets(*np.concatenate([spo, spo[::3]]).T)
            assert_same_store(bulk.graph, ref)

    def test_clone_gains_edges_original_unchanged(self, schema):
        g = build_shop_graph(schema, n_users=5, n_items=8, interactions=3, seed=2)
        before = reference_of(g)
        g.csr()  # a cached CSR must not leak into the extended graphs
        c = GraphWriter(g)
        cref = reference_of(g)
        u = c.add_entity("user", "new")
        e = cref.add_entity("user", "new")
        assert u == e
        adds = [(u, c.relation_id("purchase"), i) for i in c.items()[:4]]
        adds += [(0, c.relation_id("like"), b) for b in c.entities_of_type("brand")]
        c.add_triplets(*np.asarray(adds).T)
        for tr in adds:
            cref.add_triplet(*tr)
        assert_same_store(c, cref)
        assert_same_store(g, before)

    def test_mutable_original_and_clone_grow_apart(self, schema):
        g = registered(schema, 5)
        for batch in np.split(np.asarray(random_triplets(schema, 5, 40, 6)), [30]):
            g.add_triplets(*batch.T)  # the second batch leaves spare capacity
        c = GraphWriter(g.graph)
        ref, cref = reference_of(g), reference_of(c)
        batches = np.array_split(np.asarray(random_triplets(schema, 5, 60, 7)), 20)
        for k, batch in enumerate(batches):  # small interleaved batches
            for graph, reference in ((g, ref), (c, cref)):
                batch = batch[::-1]
                graph.add_triplets(*batch.T)
                for tr in batch.tolist():
                    reference.add_triplet(*tr)
        assert_same_store(g, ref)
        assert_same_store(c, cref)

    def test_interaction_between_entities_of_one_type(self):
        """Users follow users: interaction edges reach a user from both
        sides, and only the forward ones are its items."""
        schema = KGSchema(entity_types=("user",),
                          relations=(RelationSpec("follows", "user", "user", interaction=True),))
        triplets = random_triplets(schema, 8, 40, 3)
        g = registered(schema, 8)
        g.add_triplets(*np.asarray(triplets).T)
        ref = reference_of(registered(schema, 8))
        for tr in triplets:
            ref.add_triplet(*tr)
        assert_same_store(g.graph, ref)

    def test_one_duplicate_warning(self, schema, caplog):
        g = registered(schema, 3)
        pu = g.relation_id("purchase")
        with caplog.at_level(logging.WARNING, logger="pathrec.graph"):
            g.add_triplets([0, 0, 1], [pu, pu, pu], [3, 3, 4])
            g.add_triplet(1, pu, 4)
        dups = [r for r in caplog.records if "duplicate triplet" in r.getMessage()]
        assert len(dups) == 1 and "(0, 0, 3)" in dups[0].getMessage()
        assert g.triplet_count == 2

    def test_invalid_batch_raises_first_error_and_adds_nothing(self, schema):
        g = registered(schema, 3)
        pu, pb = g.relation_id("purchase"), g.relation_id("produced_by")
        cases = [
            ([0, 99], [pu, pu], [3, 3], UnknownEntity, "99"),
            ([0, 0], [pu, 42], [3, 3], SchemaViolation, "relation id 42"),
            ([0, 0, 3], [pu, pb, pu], [3, 6, 99], SchemaViolation, "violates schema"),
            ([0, 0], [pu, pu], [3, -1], UnknownEntity, "-1"),
        ]
        for heads, rels, tails, exc, text in cases:
            with pytest.raises(exc, match=text):
                g.add_triplets(heads, rels, tails)
            assert g.triplet_count == 0

    def test_key_index_edge_cases(self, schema):
        g = registered(schema, 3)  # users 0-2, items 3-5, no triplets yet
        pu, n, n_rel = g.relation_id("purchase"), g.entity_count, g.relation_count
        # in range, then a negative or out-of-range head, tail or relation id
        heads = [1, -1, n, 1, 1, 1, 1]
        rels = [pu, pu, pu, -1, n_rel, pu, pu]
        tails = [4, 4, 4, 4, 4, -1, n]
        empty = np.asarray([], dtype=np.intp)
        for stored in ([], [(0, pu, 3)], [(0, pu, 3), (1, pu, 4), (2, pu, 5)]):
            g = registered(schema, 3)
            g.add_triplets(*np.asarray(stored, dtype=np.intp).reshape(-1, 3).T)
            before = reference_of(g)
            got = g.has_triplets(heads, rels, tails)
            assert got.dtype == bool
            assert got.tolist() == [(1, pu, 4) in stored] + [False] * 6
            # keys below the smallest and above the largest stored key
            assert g.has_triplets([0, 2], [pu, pu], [4, 5]).tolist() == [False, (2, pu, 5) in stored]
            assert g.has_triplets(empty, empty, empty).shape == (0,)
            g.add_triplets([], [], [])
            g.add_triplets(empty, empty, empty)
            assert_same_store(g, before)
            assert [g.has_triplet(*tr) for tr in stored] == [True] * len(stored)


# -- loading ---------------------------------------------------------------


def reference_derive(ref: ReferenceGraph):
    interactions = [(u, i) for u, items in sorted(ref.interactions_by_user().items())
                    for i in items]
    for rel_id, spec in enumerate(ref.schema.relations):
        if spec.derived_from is None:
            continue
        via = ref.relation_id(spec.derived_from.via)
        for u, i in interactions:
            for _, x, d in ref.neighbors(i, via):
                if d == FORWARD and (u, rel_id, x) not in ref.set:
                    ref.add_triplet(u, rel_id, x)


def reference_load(path, schema) -> ReferenceGraph:
    derived = {r.name for r in schema.relations if r.derived_from is not None}
    ref = ReferenceGraph(schema)
    for lineno, fields in read_triplet_rows(path):
        ht, hn, rel, tt, tn = check_triplet_row(path, lineno, fields)
        if rel in derived:
            raise ParseError(f"{path}: derived relation {rel!r} may not appear in a triplet file")
        h = ref.add_entity(ht, hn)
        t = ref.add_entity(tt, tn)
        ref.add_triplet(h, ref.relation_id(rel), t)
    reference_derive(ref)
    return ref


def outcome(load, path, schema):
    try:
        load(path, schema)
    except Exception as exc:  # the exception type and message are what is compared
        return type(exc), str(exc)
    return None


class TestBulkLoad:
    def test_file_quirks_equal_line_by_line(self, schema, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(
            "# header comment\n"
            "item:i:1\tproduced_by\tbrand:b:x\n"
            "\n"
            "item:i:1\tbelong_to\tcategory:c0\n"
            "item:i2\tproduced_by\tbrand:b:x\n"
            "#item:i9\tproduced_by\tbrand:b9\n"
            "item:i2\tbelong_to\tcategory:c1\n"
            "user:u:a\tpurchase\titem:i2\n"
            "user:u:a\tpurchase\titem:i:1\n"
            "user:u:a\tpurchase\titem:i2\n"
            "user:u0\tpurchase\titem:i2\n"
            "item:i2\tbelong_to\tcategory:c1\n"
            "user:u0\tpurchase\titem:i3\n"
        )
        g = load_dataset(str(path), schema)
        assert g.has_entity("item", "i:1") and g.has_entity("user", "u:a")
        assert_same_store(g, reference_load(str(path), schema))

    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_file_equals_line_by_line(self, tmp_path, seed):
        triplets, schema_path = generate_synthetic(
            SyntheticSpec(users=40, items=25, brands=4, categories=3,
                          interactions_per_user=4, seed=seed), str(tmp_path))
        schema = KGSchema.load(schema_path)
        g = load_dataset(triplets, schema_path)
        assert_same_store(g, reference_load(triplets, schema))

    FAULTS = {
        "malformed line": "user:u0 purchase item:i0\n",
        "malformed token": "user:\tpurchase\titem:i0\n",
        "derived relation": "user:u0\tlike\tbrand:b0\n",
        "unknown type": "vendor:v0\tpurchase\titem:i0\n",
        "unknown relation": "user:u0\treturns\titem:i0\n",
        "schema violation": "user:u0\tproduced_by\tbrand:b0\n",
        # one tab, then three: the file's tab count is that of two good lines,
        # and its fields in order would make two good triplets
        "short then long": "user:u0\tpurchase\nitem:i0\tuser:u0\tpurchase\titem:i1\n",
    }
    GOOD = "item:i0\tproduced_by\tbrand:b0\nuser:u0\tpurchase\titem:i0\n"

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_raises_as_line_by_line(self, schema, tmp_path, fault):
        path = tmp_path / "t.tsv"
        path.write_text(self.GOOD + self.FAULTS[fault] + self.GOOD)
        want = outcome(reference_load, str(path), schema)
        assert want is not None
        assert outcome(load_dataset, str(path), schema) == want

    @pytest.mark.parametrize("first", sorted(FAULTS))
    @pytest.mark.parametrize("second", sorted(FAULTS))
    def test_first_faulty_line_decides(self, schema, tmp_path, first, second):
        path = tmp_path / "t.tsv"
        path.write_text(self.GOOD + self.FAULTS[first] + self.GOOD + self.FAULTS[second])
        assert outcome(load_dataset, str(path), schema) == outcome(
            reference_load, str(path), schema)

    @pytest.mark.parametrize("fault", [None, *sorted(FAULTS)])
    def test_crlf_and_lone_cr_read_as_text_mode(self, schema, tmp_path, fault):
        """Bytes are parsed as a text-mode ``open`` reads them: CRLF and a
        lone CR end lines, so line numbers in errors agree too."""
        text = "# crlf\n" + self.GOOD + "\n" + self.FAULTS.get(fault, "") + self.GOOD
        path = tmp_path / "t.tsv"
        path.write_bytes(text.replace("\n", "\r\n").replace(
            "\r\nuser:u0\tpurchase\titem:i0\r\n", "\ruser:u0\tpurchase\titem:i0\r", 1).encode())
        assert b"\r\n" in path.read_bytes() and b"\ru" in path.read_bytes()
        want = outcome(reference_load, str(path), schema)
        assert outcome(load_dataset, str(path), schema) == want
        if fault is None:
            assert want is None
            assert_same_store(load_dataset(str(path), schema), reference_load(str(path), schema))

    @pytest.mark.parametrize("fault", [None, *sorted(FAULTS)])
    def test_last_line_without_newline(self, schema, tmp_path, fault):
        path = tmp_path / "t.tsv"
        path.write_text((self.GOOD + self.FAULTS.get(fault, "")).rstrip("\n"))
        want = outcome(reference_load, str(path), schema)
        assert outcome(load_dataset, str(path), schema) == want
        if fault is None:
            assert_same_store(load_dataset(str(path), schema), reference_load(str(path), schema))

    def test_derive_equals_reference_join(self, schema):
        g = build_shop_graph(schema, n_users=9, n_items=10, n_brands=3,
                             n_categories=2, interactions=6, seed=8, derive=False)
        ref = reference_of(g)
        c = derive_relations(g)
        c = derive_relations(c)  # idempotent
        reference_derive(ref)
        assert_same_store(c, ref)

    def test_split_train_graph_equals_reference(self, tmp_path):
        triplets, schema_path = generate_synthetic(
            SyntheticSpec(users=50, items=30, brands=4, categories=3,
                          interactions_per_user=5, seed=4), str(tmp_path))
        graph = load_dataset(triplets, schema_path)
        split = split_dataset(graph, SplitConfig(), seed=4)
        # the train graph written out and loaded line by line is the same store
        path = tmp_path / "train.tsv"
        split.train_graph.write_triplets(str(path))
        assert_same_store(split.train_graph, reference_load(str(path), graph.schema))


    def test_split_profiles_equal_walk_reference(self, schema, monkeypatch):
        """Cold-user targets and cold-item profiles against the per-user,
        per-item neighbor walk; the split itself calls no ``neighbors``.
        A stored (not derived) user relation covers the other join, and
        items in several categories fix the declaration order."""
        spec = schema.to_json()
        spec["relations"].append({"name": "follows", "head": "user", "tail": "brand",
                                  "cold_integration": True})
        schema = KGSchema.from_json(spec)
        g = build_shop_graph(schema, n_users=30, n_items=24, n_brands=4,
                             n_categories=3, interactions=6, seed=11)
        g = GraphWriter(g)
        rng = np.random.default_rng(2)
        users, brands = g.entities_of_type("user"), g.entities_of_type("brand")
        follows = rng.choice(len(users) * len(brands), size=40, replace=False)
        g.add_triplets(np.asarray(users)[follows // len(brands)],
                       np.full(40, g.relation_id("follows")),
                       np.asarray(brands)[follows % len(brands)])
        items = np.asarray(g.entities_of_type("item"))[::2]
        cats = np.asarray(g.entities_of_type("category"))
        g.add_triplets(items, np.full(len(items), g.relation_id("belong_to")),
                       cats[np.arange(len(items)) % len(cats)])
        g = g.graph

        def no_walk(*args, **kwargs):
            raise AssertionError("split_dataset walked graph.neighbors")

        monkeypatch.setattr(KnowledgeGraph, "neighbors", no_walk)
        split = split_dataset(g, SplitConfig(cold_frac=0.3), seed=5)
        monkeypatch.undo()

        by_user = g.interactions_by_user()
        for uname, got in split.cold_user_targets.items():
            u = g.entity_id("user", uname)
            want = []
            for rs in schema.relations:
                if not rs.cold_integration or rs.head_type != "user":
                    continue
                freq: dict[int, int] = {}
                walks = ([(i, rs.derived_from.via) for i in by_user[u]]
                         if rs.derived_from else [(u, rs.name)])
                for e, rel in walks:
                    for _, x, d in g.neighbors(e, g.relation_id(rel)):
                        if d == FORWARD:
                            freq[x] = freq.get(x, 0) + 1
                ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
                want.append((rs.name, rs.tail_type,
                             tuple((g.entity_name(x), x, f) for x, f in ranked)))
            assert [(rt.relation, rt.target_type, rt.targets) for rt in got] == want
        assert any(rt.targets for rts in split.cold_user_targets.values()
                   for rt in rts if rt.relation == "follows")
        assert any(sum(d.relation == "belong_to" for d in prof.declarations) > 1
                   for prof in split.item_profiles)
        for prof in split.item_profiles:
            item = g.entity_id("item", prof.name)
            want = [ColdDeclaration(rs.name, rs.tail_type, g.entity_name(x))
                    for rs in schema.relations
                    if rs.cold_integration and rs.head_type == "item"
                    for _, x, d in g.neighbors(item, g.relation_id(rs.name))
                    if d == FORWARD]
            assert list(prof.declarations) == want


# -- cold integration ------------------------------------------------------------


def reference_integrate(train_graph, table, profiles, strategy, interactions=None):
    """One profile at a time, each entity and triplet registered on its own,
    then each moved interaction on its own."""
    aug = GraphWriter(train_graph)
    ids = {}
    for p in profiles:
        known = [d for d in p.declarations if aug.has_entity(d.target_type, d.target_name)]
        if not known or p.name in ids or aug.has_entity(p.entity_type, p.name):
            continue
        ids[p.name] = e = aug.add_entity(p.entity_type, p.name)
        for d in known:
            aug.add_triplet(e, aug.relation_id(d.relation),
                            aug.entity_id(d.target_type, d.target_name))
    for user, items in (interactions or {}).items():
        for item in items:
            if (user in ids and aug.is_user(ids[user])
                    and aug.has_entity(aug.schema.item_type, item)):
                aug.add_triplet(ids[user], aug.interaction_relation,
                                aug.entity_id(aug.schema.item_type, item))
    aug = aug.graph
    rows = reference_cold_rows(table, aug, list(ids.values()), strategy)
    return (aug, np.concatenate([table.entity_vecs, rows]),
            np.concatenate([table.entity_bias, np.zeros(len(rows))]), ids)


def assert_same_integration(got, want):
    aug, ext, ids = got
    ref_aug, ref_vecs, ref_bias, ref_ids = want
    assert ids == ref_ids
    assert_same_store(aug, reference_of(ref_aug))
    assert ext.entity_vecs.tobytes() == ref_vecs.tobytes()
    assert ext.entity_bias.tobytes() == ref_bias.tobytes()


def profile(name, entity_type, *decls):
    return ColdProfile(name=name, entity_type=entity_type,
                       declarations=tuple(ColdDeclaration(*d) for d in decls))


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("oracle-split"))
    triplets, schema_path = generate_synthetic(
        SyntheticSpec(users=60, items=40, brands=5, categories=4,
                      interactions_per_user=5, seed=2), out)
    split = split_dataset(load_dataset(triplets, schema_path), SplitConfig(), seed=2)
    table = init_table(split.train_graph, EmbedTrainConfig(dim=12), seed=2)
    return split, table


class TestBulkColdIntegration:
    @pytest.mark.parametrize("strategy", list(ColdStrategy))
    def test_split_profiles_equal_one_at_a_time(self, small_split, strategy):
        split, table = small_split
        skipped = profile("ghost", "user", ("like", "brand", "no-such-brand"))
        profiles = split.item_profiles + [skipped] + split.user_profiles
        got = integrate_cold_entities(split.train_graph, table, profiles, strategy)
        assert "ghost" not in got[2]
        assert_same_integration(got, reference_integrate(split.train_graph, table,
                                                         profiles, strategy))

    @pytest.mark.parametrize("moved", [0, 1, 3])
    def test_build_augmented_equals_one_at_a_time(self, small_split, moved):
        split, table = small_split
        hidden = {**split.cold_val, **split.cold_test}
        take = {u: hidden[u][:moved] for u in sorted(hidden)} if moved else {}
        aug, ext, ids, got_moved = build_augmented(
            split, table, ColdStrategy.AVERAGE_TRANSLATION, interactions_per_cold_user=moved)
        want = reference_integrate(split.train_graph, table,
                                   split.item_profiles + split.user_profiles,
                                   ColdStrategy.AVERAGE_TRANSLATION, take)
        assert_same_integration((aug, ext, ids), want)
        assert got_moved == {u: items for u, items in take.items() if u in ids}
        if moved:  # cold users now lean on cold items of the same batch
            base = table.entity_count
            assert any(n >= base for u in got_moved for _, n, _ in
                       aug.neighbors(ids[u], aug.interaction_relation))

    def test_chains_inside_one_batch(self):
        """A cold user viewing a cold item that is similar to an earlier cold
        item: three rows, each leaning on the one before; a profile that
        names a later entity drops that declaration."""
        g = build_multi_edge_graph(seed=5)
        table = init_table(g, EmbedTrainConfig(dim=7), seed=5)
        profiles = [
            profile("uEarly", "user", ("view", "item", "iB"), ("view", "item", "i0")),
            profile("iA", "item", ("similar", "item", "i1"), ("similar", "item", "i2")),
            profile("iB", "item", ("similar", "item", "iA"), ("similar", "item", "i3"),
                    ("similar", "item", "iA")),
            profile("uC", "user", ("view", "item", "iB"), ("view", "item", "i4")),
            profile("lost", "user", ("view", "item", "nowhere")),
        ]
        for strategy in ColdStrategy:
            got = integrate_cold_entities(g, table, profiles, strategy)
            assert list(got[2]) == ["uEarly", "iA", "iB", "uC"]
            assert_same_integration(got, reference_integrate(g, table, profiles, strategy))
