import dataclasses
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from pathrec import artifacts, datasets
from pathrec.coldstart import ColdDeclaration
from pathrec.datasets import (DatasetSplit, RelationTargets, SplitConfig,
                              SyntheticSpec, cap_cold_relations,
                              derive_relations, generate_synthetic, load_dataset, prefix_shares,
                              split_dataset, synthetic_schema)
from pathrec.embeddings import rng_for
from pathrec.errors import EmptyUser, InvalidSpec, ParseError
from pathrec.graph import FORWARD, KGSchema, KnowledgeGraph

from conftest import build_shop_graph
from oracles import GraphWriter, reference_forward_join, reference_purchases


class TestLoadDataset:
    def test_round_trip_via_file(self, tmp_path, make_graph):
        g = make_graph(seed=8)
        path = str(tmp_path / "train.tsv")
        g.write_triplets(path)
        again = load_dataset(path, g.schema)
        assert again.fingerprint() == g.fingerprint()

    def test_derived_relation_in_file_rejected(self, tmp_path, schema):
        path = tmp_path / "bad.tsv"
        path.write_text("user:u0\tlike\tbrand:b0\n")
        with pytest.raises(ParseError):
            load_dataset(str(path), schema)

    def test_derived_log_equals_reference_join(self, schema):
        """Many users share few items, and some items carry two brands; the
        derived triplets and their order equal a join written from the log."""
        base = build_shop_graph(schema, n_users=30, n_items=8, n_brands=3,
                                n_categories=2, interactions=5, seed=4, derive=False)
        base = GraphWriter(base)
        pb = base.relation_id("produced_by")
        for item in base.items()[:4]:
            for brand in base.entities_of_type("brand"):
                if not base.has_triplet(item, pb, brand):
                    base.add_triplet(item, pb, brand)
                    break
        log = list(base.triplets())
        want, seen = list(log), set(log)
        for rel, spec in enumerate(schema.relations):
            if spec.derived_from is None:
                continue
            via = base.relation_id(spec.derived_from.via)
            for u, items in sorted(base.interactions_by_user().items()):
                for i in items:
                    for x in sorted(t for h, r, t in log if h == i and r == via):
                        if (u, rel, x) not in seen:
                            seen.add((u, rel, x))
                            want.append((u, rel, x))
        got = derive_relations(base.graph)
        assert list(got.triplets()) == want
        assert len(want) > len(log)
        got = derive_relations(got)  # idempotent
        assert list(got.triplets()) == want


class TestParsedOnce:
    """``load_dataset`` keeps the graph of the last file it parsed, keyed by
    the sha256 of the schema and the file's bytes (``artifacts.parse_once``)."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths ``load_dataset`` parses."""
        seen = []
        parse = datasets._parse_triplets

        def counting(path, text, schema):
            seen.append(path)
            return parse(path, text, schema)

        monkeypatch.setattr(datasets, "_parse_triplets", counting)
        return seen

    def test_same_bytes_parsed_once(self, tmp_path, make_graph, parses, monkeypatch):
        g = make_graph(seed=3)
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        g.write_triplets(a)
        g.write_triplets(b)
        want = g.fingerprint()
        first = load_dataset(a, g.schema)
        assert load_dataset(a, g.schema) is first
        assert load_dataset(b, g.schema) is first  # the bytes are the key, not the path
        assert parses == [a]
        computed = []
        lines = KnowledgeGraph._triplet_lines
        monkeypatch.setattr(KnowledgeGraph, "_triplet_lines",
                            lambda self, *args: computed.append(self) or lines(self, *args))
        assert [load_dataset(a, g.schema).fingerprint() for _ in range(3)] == [want] * 3
        assert computed == [first]
        other = first.extended((), (), (), (), ())
        assert other.fingerprint() == other.fingerprint() == want
        assert computed == [first, other]  # each graph computes it once

    def test_other_schema_other_graph(self, tmp_path, make_graph, parses):
        g = make_graph(seed=3)
        path = str(tmp_path / "t.tsv")
        g.write_triplets(path)
        raw = g.schema.to_json()
        raw["path_patterns"] = raw["path_patterns"][:1]
        other = KGSchema.from_json(raw)
        first, second = load_dataset(path, g.schema), load_dataset(path, other)
        assert second is not first
        assert (first.schema, second.schema) == (g.schema, other)
        assert second.fingerprint() != first.fingerprint()
        assert parses == [path, path]

    def test_one_graph_kept(self, tmp_path, make_graph, schema, parses):
        a, b, bad = (str(tmp_path / name) for name in ("a.tsv", "b.tsv", "bad.tsv"))
        make_graph(seed=1).write_triplets(a)
        make_graph(seed=2).write_triplets(b)
        with open(bad, "w") as fh:
            fh.write("user:u0\tlike\tbrand:b0\n")
        first = load_dataset(a, schema)
        assert load_dataset(b, schema) is not first
        again = load_dataset(a, schema)  # b took the one place
        assert again is not first
        with pytest.raises(ParseError):
            load_dataset(bad, schema)
        assert load_dataset(a, schema) is again  # a failed parse keeps nothing
        assert parses == [a, b, a, bad]
        assert artifacts._parsed["triplets"][1] is again


class TestSplitParsedOnce:
    """``DatasetSplit.read`` keeps the split of the last bytes it parsed,
    keyed by the sha256 of its four files."""

    @pytest.fixture
    def written(self, tmp_path, schema):
        out = str(tmp_path / "split")
        split_dataset(build_shop_graph(schema, n_users=10, n_items=14, seed=9),
                      SplitConfig(), seed=2).write(out, config_hash="abc123", seed=2)
        return out

    @pytest.fixture
    def parses(self, monkeypatch):
        """The parsers ``DatasetSplit.read`` ran, by name."""
        seen = []

        def counting(name, fn):
            return lambda *args: seen.append(name) or fn(*args)

        for name in ("_parse_split", "_parse_triplets", "parse_profiles"):
            monkeypatch.setattr(datasets, name, counting(name, getattr(datasets, name)))
        monkeypatch.setattr(artifacts.json, "loads", counting("json", json.loads))
        parse = KGSchema.parse.__func__
        monkeypatch.setattr(KGSchema, "parse", classmethod(
            lambda cls, *args: seen.append("schema") or parse(cls, *args)))
        return seen

    def test_same_bytes_parsed_once(self, tmp_path, written, parses):
        first = DatasetSplit.read(written)
        assert set(parses) == {"_parse_split", "_parse_triplets", "json", "parse_profiles",
                               "schema"}
        parses.clear()
        copy = str(tmp_path / "copy")
        shutil.copytree(written, copy)
        assert DatasetSplit.read(written) is first
        assert DatasetSplit.read(copy) is first  # the bytes are the key, not the path
        assert parses == []

    @pytest.mark.parametrize("name", datasets.SPLIT_FILES)
    def test_rewritten_file_parsed_again(self, written, parses, name):
        first = DatasetSplit.read(written)
        with open(os.path.join(written, name), "ab") as fh:
            fh.write(b"\n")  # other bytes, the same split
        parses.clear()
        again = DatasetSplit.read(written)
        assert again is not first
        assert again.manifest() == first.manifest()
        assert again.profiles == first.profiles
        assert parses.count("_parse_split") == 1
        # the triplet graph is keyed by the schema's value, not its bytes
        assert ("_parse_triplets" in parses) == (name == "train.tsv")

    @pytest.mark.parametrize("edit, match", [
        *((lambda m, key=key: {k: v for k, v in m.items() if k != key},
           rf"manifest\.json: no {key}$") for key in ("config", "warm_val", "cold_user_targets")),
        (list, r"manifest\.json is not a JSON object$"),
        (lambda m: "manifest", r"manifest\.json is not a JSON object$"),
    ], ids=["no-config", "no-warm_val", "no-cold_user_targets", "list", "string"])
    def test_manifest_without_a_field_rejected(self, written, edit, match):
        path = os.path.join(written, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        with open(path, "w") as fh:
            json.dump(edit(manifest), fh)
        with pytest.raises(ParseError, match=match):
            DatasetSplit.read(written)

    def test_split_is_frozen(self, written):
        split = DatasetSplit.read(written)
        with pytest.raises(dataclasses.FrozenInstanceError):
            split.cold_items = []

    @pytest.mark.parametrize("targets", [
        [{"relation": "like", "target_type": "brand", "targets": [[5, "x", None]]}],
        [{"relation": 1, "target_type": "brand", "targets": []}],
        [{"relation": "like", "target_type": None, "targets": []}],
        [{"relation": "like", "target_type": "brand", "targets": [["b0", 1]]}],
        [{"relation": "like", "target_type": "brand", "targets": [["b0", True, 2]]}],
        [{"relation": "like", "target_type": "brand", "targets": {"b0": 1}}],
        [["like", "brand", []]],
        {"relation": "like"},
    ])
    def test_malformed_cold_user_targets_rejected(self, written, targets):
        path = os.path.join(written, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["cold_user_targets"][next(iter(manifest["cold_user_targets"]))] = targets
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ParseError, match="cold_user_targets"):
            DatasetSplit.read(written)


class TestPrefixShares:
    @pytest.mark.parametrize("config", [
        SplitConfig(),
        SplitConfig(train_frac=0.6, val_frac=0.2, test_frac=0.2),
        SplitConfig(train_frac=0.5, val_frac=0.0, test_frac=0.5),
        SplitConfig(train_frac=0.7, val_frac=0.15, test_frac=0.15),
    ])
    def test_fraction_oracle(self, config):
        tf = Fraction(str(config.train_frac))
        vf = Fraction(str(config.val_frac))
        for n in range(0, 2001):
            tr, va, te = prefix_shares(n, config)
            assert tr == min(n, math.ceil(tf * n))
            assert va == min(n - tr, math.ceil(vf * n))
            assert tr + va + te == n
            assert min(tr, va, te) >= 0

    def test_config_validation(self):
        with pytest.raises(InvalidSpec):
            SplitConfig(train_frac=0.8, val_frac=0.3, test_frac=0.1)
        with pytest.raises(InvalidSpec):
            SplitConfig(cold_frac=0.0)
        with pytest.raises(InvalidSpec):
            SplitConfig(cold_frac=1.0)
        with pytest.raises(InvalidSpec):
            SplitConfig(cap_low=0)
        with pytest.raises(InvalidSpec):
            SplitConfig(cap_low=5, cap_high=4)


class TestCapping:
    def ranked(self, *pairs):
        return tuple((name, sid, freq) for name, sid, freq in pairs)

    def test_fixed_k_truncates_ranked_targets(self):
        rt = RelationTargets("like", "brand",
                             self.ranked(("b2", 7, 5), ("b0", 3, 2), ("b1", 4, 2)))
        prof = cap_cold_relations("u9", "user", [rt], rng=None, fixed_k=2)
        assert prof.declarations == (ColdDeclaration("like", "brand", "b2"),
                                     ColdDeclaration("like", "brand", "b0"))

    def test_empty_relations_omitted(self):
        rts = [RelationTargets("like", "brand", ()),
               RelationTargets("interested_in", "category",
                               self.ranked(("c0", 1, 3)))]
        prof = cap_cold_relations("u9", "user", rts, rng=None, fixed_k=5)
        assert [d.relation for d in prof.declarations] == ["interested_in"]

    def test_random_caps_uniform_over_range(self):
        """Draw lengths are uniform on {low..high}: chi-square on 4000 draws."""
        targets = self.ranked(*((f"b{i}", i, 20 - i) for i in range(12)))
        rng = rng_for(5, "cap-uniform")
        counts = np.zeros(10, dtype=int)
        for _ in range(4000):
            prof = cap_cold_relations("u", "user",
                                      [RelationTargets("like", "brand", targets)],
                                      rng, cap_low=1, cap_high=10)
            counts[len(prof.declarations) - 1] += 1
        assert counts.sum() == 4000
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_cap_respects_available_targets(self):
        rt = RelationTargets("like", "brand", self.ranked(("b0", 1, 1)))
        prof = cap_cold_relations("u", "user", [rt], rng=None, fixed_k=10)
        assert len(prof.declarations) == 1


def assert_split_invariants(graph, split, config):
    """Re-derive the whole partition from the graph and the cold choices."""
    by_user = graph.interactions_by_user()
    name = graph.entity_name
    cold_users = set(split.cold_val) | set(split.cold_test)
    cold_items = set(split.cold_items)
    n_cold_u = int(Fraction(str(config.cold_frac)) * len(graph.users()))
    n_cold_i = int(Fraction(str(config.cold_frac)) * len(graph.items()))
    assert len(cold_users) == n_cold_u
    assert len(cold_items) == n_cold_i
    assert len(split.cold_val) == n_cold_u // 2

    train = split.train_graph
    for e in list(cold_users) + list(cold_items):
        for etype in ("user", "item"):
            assert not train.has_entity(etype, e)

    train_by_user = {train.entity_name(u): [train.entity_name(i) for i in items]
                     for u, items in train.interactions_by_user().items()}
    for u, seq in by_user.items():
        uname = name(u)
        seq_names = [name(i) for i in seq]
        if uname in cold_users:
            hidden = split.cold_val.get(uname, split.cold_test.get(uname))
            assert hidden == seq_names
            assert uname not in train_by_user
            continue
        n_tr, n_va, _ = prefix_shares(len(seq), config)
        expect_train = [i for i in seq_names[:n_tr] if i not in cold_items]
        expect_test = ([i for i in seq_names[:n_tr] if i in cold_items]
                       + seq_names[n_tr + n_va:])
        expect_val = seq_names[n_tr:n_tr + n_va]
        assert sorted(train_by_user.get(uname, [])) == sorted(expect_train)
        assert split.warm_val.get(uname, []) == expect_val
        assert split.warm_test.get(uname, []) == expect_test

    # derived training relations follow from training interactions alone
    schema = graph.schema
    for spec in schema.relations:
        if spec.derived_from is None:
            continue
        via = train.relation_id(spec.derived_from.via)
        rel = train.relation_id(spec.name)
        want = set()
        for u, items in train.interactions_by_user().items():
            for i in items:
                for _, x, d in train.neighbors(i, via):
                    if d == FORWARD:
                        want.add((u, x))
        got = {(h, t) for h, r, t in train.triplets() if r == rel}
        assert got == want

    # capped user profiles stay inside the cap range and rank by frequency
    for prof in split.user_profiles:
        per_rel: dict[str, list[str]] = {}
        for d in prof.declarations:
            per_rel.setdefault(d.relation, []).append(d.target_name)
        targets = {rt.relation: rt for rt in split.cold_user_targets[prof.name]}
        for rel_name, names in per_rel.items():
            assert config.cap_low <= len(names) <= config.cap_high
            ranked = [n for n, _, _ in targets[rel_name].targets]
            assert names == ranked[:len(names)]

    # cold item profiles carry the full native attribute set
    for prof in split.item_profiles:
        item = graph.entity_id("item", prof.name)
        want = set()
        for spec in schema.relations:
            if spec.cold_integration and spec.head_type == "item":
                for _, x, d in graph.neighbors(item, graph.relation_id(spec.name)):
                    if d == FORWARD:
                        want.add((spec.name, name(x)))
        got = {(d.relation, d.target_name) for d in prof.declarations}
        assert got == want


class TestSplit:
    def test_invariants_over_random_graphs(self, schema):
        for trial in range(10):
            g = build_shop_graph(schema, n_users=8 + trial, n_items=12 + trial,
                                 n_brands=2 + trial % 3, n_categories=2,
                                 interactions=3 + trial % 4, seed=100 + trial)
            config = SplitConfig()
            split = split_dataset(g, config, seed=trial)
            assert_split_invariants(g, split, config)

    def test_deterministic_and_seed_sensitive(self, schema):
        g = build_shop_graph(schema, n_users=14, n_items=18, seed=5)
        a = split_dataset(g, SplitConfig(), seed=3)
        b = split_dataset(g, SplitConfig(), seed=3)
        c = split_dataset(g, SplitConfig(), seed=4)
        assert a.manifest() == b.manifest()
        assert a.train_graph.fingerprint() == b.train_graph.fingerprint()
        assert a.manifest() != c.manifest()

    def test_user_without_interactions_rejected(self, schema):
        g = GraphWriter(schema)
        u0 = g.add_entity("user", "u0")
        i0 = g.add_entity("item", "i0")
        g.add_triplet(u0, g.relation_id("purchase"), i0)
        g.add_entity("user", "lurker")
        with pytest.raises(EmptyUser):
            split_dataset(g.graph, SplitConfig())

    def test_write_read_round_trip(self, tmp_path, schema):
        g = build_shop_graph(schema, n_users=10, n_items=14, seed=9)
        split = split_dataset(g, SplitConfig(), seed=2)
        out = str(tmp_path / "split")
        split.write(out, config_hash="abc123", seed=2)
        with open(os.path.join(out, "manifest.json")) as fh:
            stored = json.load(fh)
        assert (stored["config_hash"], stored["seed"]) == ("abc123", 2)
        assert "seed" not in stored["config"]
        again = DatasetSplit.read(out)
        assert again.manifest() == split.manifest()
        assert again.config == split.config
        assert again.train_graph.fingerprint() == split.train_graph.fingerprint()
        assert again.user_profiles == split.user_profiles
        assert again.item_profiles == split.item_profiles

    def test_rerun_writes_identical_bytes(self, tmp_path, schema):
        g = build_shop_graph(schema, n_users=10, n_items=14, seed=9)
        outs = []
        for sub in ("a", "b"):
            split = split_dataset(g, SplitConfig(), seed=7)
            out = str(tmp_path / sub)
            split.write(out, config_hash="x")
            outs.append(out)
        for fname in ("schema.json", "train.tsv", "profiles.jsonl", "manifest.json"):
            with open(os.path.join(outs[0], fname), "rb") as fa, \
                 open(os.path.join(outs[1], fname), "rb") as fb:
                assert fa.read() == fb.read(), fname

    def test_target_ranking_by_frequency(self, schema):
        """All users share one history, so any cold user's ranked targets
        are known: b0 appears twice, b1 once."""
        g = GraphWriter(schema)
        items = []
        brands = [g.add_entity("brand", "b0"), g.add_entity("brand", "b1")]
        c0 = g.add_entity("category", "c0")
        pb, bt = g.relation_id("produced_by"), g.relation_id("belong_to")
        for n, b in (("i0", 0), ("i1", 0), ("i2", 1)):
            it = g.add_entity("item", n)
            g.add_triplet(it, pb, brands[b])
            g.add_triplet(it, bt, c0)
            items.append(it)
        pu = g.relation_id("purchase")
        for n in range(4):
            u = g.add_entity("user", f"u{n}")
            for it in items:
                g.add_triplet(u, pu, it)
        split = split_dataset(derive_relations(g.graph), SplitConfig(cold_frac=0.5), seed=1)
        for uname, rts in split.cold_user_targets.items():
            by_rel = {rt.relation: rt for rt in rts}
            assert [(n, f) for n, _, f in by_rel["like"].targets] == \
                [("b0", 2), ("b1", 1)]
            assert [(n, f) for n, _, f in by_rel["interested_in"].targets] == \
                [("c0", 3)]


class TestSynthetic:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(users=0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(items=5, interactions_per_user=6)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(p_pref=1.5)

    def test_deterministic_output(self, tmp_path):
        spec = SyntheticSpec(users=30, items=40, brands=3, categories=2,
                             interactions_per_user=5, seed=6)
        bytes_seen = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            tpath, spath = generate_synthetic(spec, out)
            with open(tpath, "rb") as fh:
                bytes_seen.append(fh.read())
            assert os.path.exists(spath)
        assert bytes_seen[0] == bytes_seen[1]

    def test_counts_and_uniqueness(self, tmp_path):
        spec = SyntheticSpec(users=40, items=60, brands=4, categories=3,
                             interactions_per_user=6, seed=2)
        tpath, spath = generate_synthetic(spec, str(tmp_path))
        g = load_dataset(tpath, spath)
        assert len(g.users()) == 40
        assert len(g.items()) == 60
        by_user = g.interactions_by_user()
        for u, items in by_user.items():
            assert len(items) == 6
            assert len(set(items)) == 6
        for i in g.items():
            kinds = {g.relation_name(r) for r, _, d in g.neighbors(i) if d == FORWARD}
            assert {"produced_by", "belong_to"} <= kinds

    def test_planted_preference_rate(self, tmp_path):
        """Big cells so the no-replacement retry barely distorts the rate:
        expected in-cell share is p + (1-p) * cell_mass ~= 0.925."""
        spec = SyntheticSpec(users=200, items=400, brands=2, categories=2,
                             interactions_per_user=10, p_pref=0.9, seed=4)
        tpath, _ = generate_synthetic(spec, str(tmp_path))
        with open(os.path.join(str(tmp_path), "prefs.json")) as fh:
            prefs = json.load(fh)["prefs"]
        attr: dict[str, list[str]] = {}
        purchases: list[tuple[str, str]] = []
        with open(tpath) as fh:
            for line in fh:
                h, rel, t = line.rstrip("\n").split("\t")
                if rel == "produced_by":
                    attr.setdefault(h.split(":")[1], ["", ""])[0] = t.split(":")[1]
                elif rel == "belong_to":
                    attr.setdefault(h.split(":")[1], ["", ""])[1] = t.split(":")[1]
                else:
                    purchases.append((h.split(":")[1], t.split(":")[1]))
        hits = sum(attr[i] == prefs[u] for u, i in purchases)
        rate = hits / len(purchases)
        assert rate == pytest.approx(0.925, abs=0.03)

    def test_prefs_cover_all_users(self, tmp_path):
        spec = SyntheticSpec(users=25, items=30, brands=2, categories=2,
                             interactions_per_user=4, seed=9)
        generate_synthetic(spec, str(tmp_path))
        with open(os.path.join(str(tmp_path), "prefs.json")) as fh:
            data = json.load(fh)
        assert data["spec"] == dataclasses.asdict(spec)
        assert len(data["prefs"]) == 25


# PCG64's 128-bit LCG multiplier: a step takes state s to s*M + inc
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def replay_and_calls(rng_state: dict, calls: list[int | None]) -> tuple[list, list]:
    """The values of ``calls`` (None for ``random()``, n for ``integers(0,
    n)``) replayed from raw words and made by the real calls, both from
    ``rng_state``."""
    replay_rng, real = np.random.default_rng(), np.random.default_rng()
    replay_rng.bit_generator.state = real.bit_generator.state = rng_state
    draws = datasets._RawDraws(replay_rng)
    replayed = [draws.random() if n is None else draws.integers(n) for n in calls]
    made = [real.random() if n is None else int(real.integers(0, n)) for n in calls]
    return replayed, made


class TestRawDraws:
    BOUNDS = [None, None, 1, 2, 3, 7, 38, 300, 1500, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("halves", [0, 1, 2, 5])
    def test_replay_equals_calls(self, seed, halves):
        """Mixed calls, started with and without a buffered 32-bit half (an
        odd number of 32-bit array draws leaves one); the chunk boundary is
        crossed, and 2**31 + 1 and 3 * 2**30 reject often."""
        rng = rng_for(seed, "raw-draws")
        rng.integers(0, 5, size=halves)
        start = rng.bit_generator.state
        assert start["has_uint32"] == halves % 2
        calls = [self.BOUNDS[k] for k in rng.integers(0, len(self.BOUNDS), size=3000)]
        replayed, made = replay_and_calls(start, calls)
        assert replayed == made
        assert all(type(v) is (float if n is None else int) for v, n in zip(replayed, calls))

    def test_one_value_range_reads_no_word(self):
        rng = rng_for(3, "raw-draws")
        rng.integers(0, 5, size=1)
        start = rng.bit_generator.state
        draws = datasets._RawDraws(rng)
        assert [draws.integers(1) for _ in range(50)] == [0] * 50
        assert rng.bit_generator.state == start
        assert draws.integers(2**32) == start["uinteger"]  # the buffered half

    def test_lemire_rejection(self):
        """A state whose next word has a zero low half: x = 0 gives
        (0 * 3) mod 2**32 = 0 < (2**32 - 3) % 3 = 1, so integers(0, 3)
        rejects it and draws again from the word's high half."""
        real = np.random.default_rng(0)
        inc = real.bit_generator.state["state"]["inc"]
        hi = 0x0123456789ABCDEF  # top 6 bits zero: XSL-RR rotates by 0
        nxt = (hi << 64) | (hi ^ (0xFFFFFFFF << 32))  # hi ^ lo = 0xFFFFFFFF << 32
        prior = (nxt - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128
        state = {"bit_generator": "PCG64", "state": {"state": prior, "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
        probe = np.random.default_rng()
        probe.bit_generator.state = state
        assert int(probe.bit_generator.random_raw()) == 0xFFFFFFFF << 32
        replayed, made = replay_and_calls(state, [3, 3, None, 5])
        assert replayed == made
        assert replayed[0] == 2  # (0xFFFFFFFF * 3) >> 32, after the rejected 0


class TestSyntheticAgainstScalarCalls:
    """generate_synthetic's files equal the scalar-call generator's."""

    SPECS = {
        "default-0": SyntheticSpec(seed=0),
        "default-1": SyntheticSpec(seed=1),
        "default-7": SyntheticSpec(seed=7),
        "5x": SyntheticSpec(users=2500, items=1500, seed=1),
        "uniform": SyntheticSpec(p_pref=0.0, seed=2),
        "all-in-cell": SyntheticSpec(p_pref=1.0, seed=3),
        "cell-starved": SyntheticSpec(users=30, items=40, interactions_per_user=8,
                                      p_pref=1.0, seed=4),
        "buffered-half": SyntheticSpec(users=25, items=30, brands=2, categories=2,
                                       interactions_per_user=4, seed=9),
        "buffered-half-2": SyntheticSpec(users=101, items=60, brands=3, categories=5,
                                         interactions_per_user=12, p_pref=0.5, seed=11),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_files_equal_scalar_generator(self, name, tmp_path, monkeypatch):
        spec = self.SPECS[name]
        made = []

        class Spy(datasets._RawDraws):
            def __init__(self, rng):
                super().__init__(rng)
                self.buffered = self._half is not None
                self.ones = 0
                made.append(self)

            def integers(self, n):
                self.ones += n == 1
                return super().integers(n)

        monkeypatch.setattr(datasets, "_RawDraws", Spy)
        got, want = tmp_path / "got", tmp_path / "want"
        got.mkdir()
        want.mkdir()
        generate_synthetic(spec, str(got))
        purchases = reference_purchases(spec, str(want))
        by_user: dict[str, list[int]] = {}
        for line in (got / "triplets.tsv").read_text().splitlines():
            head, rel, tail = line.split("\t")
            if rel == "purchase":
                by_user.setdefault(head, []).append(int(tail.removeprefix("item:i")))
        assert [p for p in purchases if p] == list(by_user.values())
        for fname in ("triplets.tsv", "prefs.json", "schema.json"):
            assert (got / fname).read_bytes() == (want / fname).read_bytes(), fname
        # each spec reaches the case it is named for
        (draws,) = made
        if name.startswith("default"):
            assert draws.ones > 0  # one-item cells: the no-word path
        if name.startswith("buffered-half"):
            assert draws.buffered
        if name == "cell-starved":
            assert min(map(len, purchases)) < spec.interactions_per_user
        if name == "default-0":
            assert draws.ones == 5593


class TestForwardJoin:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_binary_search_join(self, make_graph, seed):
        """Heads drawn with repeats from every entity, so many have no
        triplet of the relation, and some relations are empty."""
        g = make_graph(n_users=3 + seed, n_items=5 + 2 * seed, n_brands=1 + seed % 3,
                       n_categories=2, interactions=1 + seed % 4, seed=seed,
                       derive=seed % 2 == 0)
        rng = rng_for(seed, "forward-join")
        for size in (0, 1, 7, 3 * g.entity_count):
            heads = rng.integers(0, g.entity_count, size=size).astype(np.intp)
            for rel in range(len(g.schema.relations)):
                at, x = datasets._forward_join(g, rel, heads)
                want_at, want_x = reference_forward_join(g, rel, heads)
                np.testing.assert_array_equal(at, want_at)
                np.testing.assert_array_equal(x, want_x)
