import numpy as np
import pytest

from pathrec import artifacts
from pathrec.datasets import derive_relations, synthetic_schema
from pathrec.embeddings import EmbedTrainConfig, init_table, rng_for

from oracles import GraphWriter


@pytest.fixture(autouse=True)
def nothing_parsed(monkeypatch):
    """Each test starts with no artifact parsed, so none depends on the
    values an earlier test left in ``artifacts.parse_once``'s memo."""
    monkeypatch.setattr(artifacts, "_parsed", {})


@pytest.fixture(scope="session")
def schema():
    return synthetic_schema()


def build_shop_graph(schema, n_users=4, n_items=6, n_brands=2, n_categories=2,
                     interactions=3, seed=0, derive=True):
    """Random purchase graph; every item gets one brand and one category."""
    g = GraphWriter(schema)
    rng = rng_for(seed, "test-graph")
    users = [g.add_entity("user", f"u{i}") for i in range(n_users)]
    items = [g.add_entity("item", f"i{i}") for i in range(n_items)]
    brands = [g.add_entity("brand", f"b{i}") for i in range(n_brands)]
    cats = [g.add_entity("category", f"c{i}") for i in range(n_categories)]
    pb = g.relation_id("produced_by")
    bt = g.relation_id("belong_to")
    pu = g.relation_id("purchase")
    for it in items:
        g.add_triplet(it, pb, brands[int(rng.integers(n_brands))])
        g.add_triplet(it, bt, cats[int(rng.integers(n_categories))])
    for u in users:
        k = min(n_items, interactions)
        for it in rng.choice(n_items, size=k, replace=False):
            g.add_triplet(u, pu, items[int(it)])
    return derive_relations(g.graph) if derive else g.graph


@pytest.fixture
def make_graph(schema):
    def build(**kwargs):
        return build_shop_graph(schema, **kwargs)
    return build


@pytest.fixture
def tiny_graph(schema):
    """Fixed 8-entity graph for exact assertions.

    u0 buys i0 and i1 (both brand b0), u1 buys i2 (brand b1); every item
    sits in category c0. Derived: u0 like b0, u1 like b1, both
    interested_in c0.
    """
    g = GraphWriter(schema)
    u0 = g.add_entity("user", "u0")
    u1 = g.add_entity("user", "u1")
    i0 = g.add_entity("item", "i0")
    i1 = g.add_entity("item", "i1")
    i2 = g.add_entity("item", "i2")
    b0 = g.add_entity("brand", "b0")
    b1 = g.add_entity("brand", "b1")
    c0 = g.add_entity("category", "c0")
    pb = g.relation_id("produced_by")
    bt = g.relation_id("belong_to")
    pu = g.relation_id("purchase")
    for i, b in ((i0, b0), (i1, b0), (i2, b1)):
        g.add_triplet(i, pb, b)
    for i in (i0, i1, i2):
        g.add_triplet(i, bt, c0)
    g.add_triplet(u0, pu, i0)
    g.add_triplet(u0, pu, i1)
    g.add_triplet(u1, pu, i2)
    return derive_relations(g.graph)


@pytest.fixture
def small_table(tiny_graph):
    return init_table(tiny_graph, EmbedTrainConfig(dim=8), seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def build_multi_edge_graph(n_users=4, n_items=10, seed=0):
    """Graph whose nodes meet their neighbors through several edges.

    Users both ``view`` and ``purchase`` items (two relations to one
    target) and items are ``similar`` to each other in both directions
    (one relation to one target, forward and inverse), so slate and beam
    tie-breaks on relation and direction are exercised.
    """
    from pathrec.graph import KGSchema, RelationSpec

    schema = KGSchema(entity_types=("user", "item"), relations=(
        RelationSpec("purchase", "user", "item", interaction=True),
        RelationSpec("view", "user", "item"),
        RelationSpec("similar", "item", "item"),
    ))
    g = GraphWriter(schema)
    rng = rng_for(seed, "multi-edge-graph")
    users = [g.add_entity("user", f"u{i}") for i in range(n_users)]
    items = [g.add_entity("item", f"i{i}") for i in range(n_items)]
    pu, view, sim = (g.relation_id(r) for r in ("purchase", "view", "similar"))
    for u in users:
        for it in rng.choice(n_items, size=min(4, n_items), replace=False):
            g.add_triplet(u, pu, items[int(it)])
            g.add_triplet(u, view, items[int(it)])
    for a in range(n_items):
        for b in rng.choice(n_items, size=3, replace=False):
            if int(b) != a:
                g.add_triplet(items[a], sim, items[int(b)])
                g.add_triplet(items[int(b)], sim, items[a])
    return g.graph
