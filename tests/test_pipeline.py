import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from pathrec import cli, datasets
from pathrec.artifacts import atomic_open, write_json
from pathrec.coldstart import ColdStrategy, integrate_cold_entities
from pathrec.datasets import DatasetSplit, SplitConfig, SyntheticSpec
from pathrec.embeddings import EmbedTrainConfig, load_table, save_table
from pathrec.errors import InvalidAxisValue, InvalidSpec, ParseError, PathRecError, StageError
from pathrec.inference import explain
from pathrec.pipeline import (STAGES, InferenceConfig, RunConfig, RunPaths,
                              _ordered_profiles, read_recommendations, run_pipeline,
                              run_seeds, stage_cold_integrate, stage_eval, stage_recommend,
                              stage_split, stage_train_agent, stage_train_embed, sweep,
                              write_aggregate)
from pathrec.policy import AgentConfig, PolicyModel

TINY = {
    "seed": 1,
    "dataset": {"synthetic": {"users": 20, "items": 15, "brands": 2,
                              "categories": 2, "interactions_per_user": 5,
                              "p_pref": 0.8}},
    "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2},
    "embed": {"dim": 8, "epochs": 3, "batch_size": 32},
    "agent": {"hop_budget": 3, "max_actions": 12, "hidden": [16, 8],
              "epochs": 2, "batch_size": 8},
    "inference": {"widths": [4, 3, 2], "topk": 5},
}


def tiny_config(workdir, seed=1, **extra):
    raw = json.loads(json.dumps(TINY))
    raw["workdir"] = workdir
    raw["seed"] = seed
    for key, value in extra.items():
        raw[key] = value
    return RunConfig.from_json(raw)


def tree_hashes(root, skip=()):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel in skip:
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("tiny") / "run")
    config = tiny_config(workdir)
    rows, patterns = run_pipeline(config)
    return config, rows, patterns


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_config(str(tmp_path))
        again = RunConfig.from_json(config.to_json())
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_hash_ignores_seed_and_workdir(self, tmp_path):
        config = tiny_config(str(tmp_path))
        other = dataclasses.replace(config, seed=99, workdir=str(tmp_path / "elsewhere"))
        stamped = other.to_json()
        assert stamped["seed"] == 99
        assert not any("seed" in stamped[s] for s in ("split", "embed", "agent", "inference"))
        assert other.config_hash() == config.config_hash()
        different = tiny_config(str(tmp_path), inference={"widths": [4, 3, 2],
                                                          "topk": 7})
        assert different.config_hash() != config.config_hash()

    def test_widths_must_match_hop_budget(self, tmp_path):
        with pytest.raises(InvalidSpec):
            tiny_config(str(tmp_path), inference={"widths": [4, 3], "topk": 5})

    @pytest.mark.parametrize("section, raw", [
        ("extra", {"x": 1}),
        ("dataset", {"synthetic": {}, "triplets": "t.tsv"}),
        ("dataset", {"synthetic": {"users": True}}),
        ("split", {"cold_frac": "0.2"}),
        ("embed", {"epochs": 2.0}),
        ("agent", {"hidden": [16, "8"]}),
        ("agent", {"hidden": 16}),
        ("inference", {"widths": [4, 3, 2], "topk": None}),
        ("cold", {"strategy": ["null"]}),
        ("seed", "1"),
        ("agent", {"hidden": [300, 100]}),
    ])
    def test_bad_keys_and_types_rejected(self, tmp_path, section, raw):
        with pytest.raises(InvalidSpec):
            tiny_config(str(tmp_path), **{section: raw})

    def test_config_hashes_pinned(self, tmp_path):
        # a serializer change that moves these renames every existing workdir
        assert RunConfig().config_hash() == "2d4f07b0eb37f13c"
        assert tiny_config(str(tmp_path)).config_hash() == "6a0bb7e6b3f032b4"
        files = RunConfig(seed=3, synthetic=None, triplets="data/kg.tsv",
                          schema="data/schema.json",
                          split=SplitConfig(cold_frac=0.25),
                          agent=AgentConfig(hop_budget=2),
                          inference=InferenceConfig(widths=(10, 2), topk=5))
        assert files.config_hash() == "c2db3927ef5cc1c0"

    def test_dataset_needs_both_file_paths(self):
        with pytest.raises(InvalidSpec):
            RunConfig.from_json({"dataset": {"triplets": "x.tsv",
                                             "schema": None}})

    def test_dataset_is_synthetic_or_files_not_both(self):
        with pytest.raises(InvalidSpec, match="one dataset"):
            RunConfig(triplets="data/kg.tsv", schema="data/schema.json")

    def test_every_field_round_trips(self):
        """No config field is hidden from, or overridden by, the JSON."""
        synthetic = RunConfig(
            seed=4, workdir="elsewhere",
            synthetic=SyntheticSpec(users=30, items=20, brands=3, categories=4,
                                    interactions_per_user=6, p_pref=0.7, seed=9),
            split=SplitConfig(train_frac=0.6, val_frac=0.25, test_frac=0.15, cold_frac=0.3,
                              cap_low=2, cap_high=5),
            embed=EmbedTrainConfig(dim=12, epochs=4, learning_rate=0.01, batch_size=64,
                                   negatives=3, full_softmax=True),
            agent=AgentConfig(hop_budget=2, max_actions=20, hidden=(32, 16), epochs=5,
                              learning_rate=0.01, batch_size=16, episodes_per_user=2,
                              gamma=0.9, entropy_coef=0.01, reward="pgpr"),
            cold_strategy=ColdStrategy.NULL,
            inference=InferenceConfig(widths=(6, 2), topk=7))
        files = dataclasses.replace(synthetic, synthetic=None, triplets="kg.tsv",
                                    schema="schema.json")
        assert fields_at_default(synthetic) == ["triplets", "schema"]
        assert fields_at_default(files) == []
        for config in (synthetic, files):
            assert RunConfig.from_json(config.to_json()) == config


def fields_at_default(config, prefix=""):
    """Dotted names of the fields of ``config`` and its sections that hold
    their default value."""
    names = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            names += fields_at_default(value, f"{prefix}{f.name}.")
        elif value == (f.default_factory() if f.default is dataclasses.MISSING else f.default):
            names.append(prefix + f.name)
    return names


class TestRunSeed:
    """``RunConfig.seed`` is the run's only seed, so a config built in Python
    or re-seeded with ``dataclasses.replace`` runs every stage."""

    def test_direct_and_replaced_configs_equal_the_loaded_one(self, tmp_path):
        want = tiny_config(str(tmp_path / "loaded"), seed=5)
        direct = RunConfig(seed=5, workdir=str(tmp_path / "direct"),
                           synthetic=SyntheticSpec(**TINY["dataset"]["synthetic"]),
                           split=SplitConfig(**TINY["split"]),
                           embed=EmbedTrainConfig(**TINY["embed"]),
                           agent=AgentConfig(**{**TINY["agent"], "hidden": (16, 8)}),
                           inference=InferenceConfig(widths=(4, 3, 2), topk=5))
        replaced = dataclasses.replace(tiny_config(str(tmp_path / "replaced")), seed=5)
        for config in (want, direct, replaced):
            run_pipeline(config)
        expected = tree_hashes(want.workdir, skip=("run.json",))
        assert len(expected) > 10
        for config in (direct, replaced):
            assert config == dataclasses.replace(want, workdir=config.workdir)
            assert tree_hashes(config.workdir, skip=("run.json",)) == expected
            # run.json differs only where it names the workdir
            metas = []
            for run in (want, config):
                with open(RunPaths(run.workdir).run_meta) as fh:
                    meta = json.load(fh)
                assert meta["config"].pop("workdir") == run.workdir
                metas.append(meta)
            assert metas[0] == metas[1]
            assert metas[1]["seed"] == 5


@pytest.mark.parametrize("cls, fields, message", [
    (AgentConfig, {"max_actions": 250.0}, "AgentConfig.max_actions must be int, got 250.0"),
    (AgentConfig, {"hidden": (512.0, 256)},
     "AgentConfig.hidden must be a list of ints, got (512.0, 256)"),
    (InferenceConfig, {"topk": 10.0}, "InferenceConfig.topk must be int, got 10.0"),
    (InferenceConfig, {"topk": True}, "InferenceConfig.topk must be int, got True"),
    (InferenceConfig, {"widths": (True, 5, 1)},
     "InferenceConfig.widths must be a list of ints, got (True, 5, 1)"),
    (EmbedTrainConfig, {"dim": 8.0}, "EmbedTrainConfig.dim must be int, got 8.0"),
    (EmbedTrainConfig, {"full_softmax": 1}, "EmbedTrainConfig.full_softmax must be bool, got 1"),
    (SplitConfig, {"cap_high": True}, "SplitConfig.cap_high must be int, got True"),
    (SyntheticSpec, {"users": 20.0}, "SyntheticSpec.users must be int, got 20.0"),
    (RunConfig, {"seed": 1.0}, "seed must be an integer and workdir a string, got 1.0 and"),
    (RunConfig, {"seed": True}, "seed must be an integer and workdir a string, got True and"),
])
def test_python_built_config_of_a_wrong_type_is_refused(cls, fields, message):
    """A config built in Python meets the type check a JSON config meets,
    as it is built."""
    with pytest.raises(InvalidSpec) as raised:
        cls(**fields)
    assert str(raised.value).startswith(message)


class TestPipelineArtifacts:
    def test_all_artifacts_written(self, tiny_run):
        config, rows, patterns = tiny_run
        paths = RunPaths(config.workdir)
        for path in (paths.run_meta, paths.embed_file, paths.policy_file,
                     paths.curve_file, paths.cold_table_file,
                     paths.cold_meta_file, paths.recs_file, paths.report_csv,
                     paths.report_json, paths.patterns_csv):
            assert os.path.exists(path), path
        assert rows
        with open(paths.report_csv) as fh:
            header = fh.readline()
        assert header.startswith(f"# config={config.config_hash()} seed=1")

    def test_recommendations_shape(self, tiny_run):
        config, _, _ = tiny_run
        meta, records = read_recommendations(RunPaths(config.workdir).recs_file)
        assert meta["config_hash"] == config.config_hash()
        assert meta["seed"] == config.seed
        cohorts = {r["cohort"] for r in records}
        assert cohorts <= {"warm_test", "cold_val", "cold_test"}
        for r in records:
            if not r["served"]:
                assert r["items"] == []
                continue
            assert len(r["items"]) <= config.inference.topk
            for entry in r["items"]:
                assert entry["rank"] >= 1
                assert entry["path"]["entities"][0] == f"user:{r['user']}"
                assert isinstance(entry["path"]["pattern"], str)

    def test_pop_baseline_popb_is_one(self, tiny_run):
        _, rows, _ = tiny_run
        pop_rows = [r for r in rows if r["model"] == "pop"
                    and r["metric"].startswith("popb")]
        assert pop_rows
        for r in pop_rows:
            assert r["value"] == 1.0

    def test_cold_cohorts_present(self, tiny_run):
        _, rows, _ = tiny_run
        cohorts = {r["cohort"] for r in rows}
        assert {"cold_val", "cold_test", "test"} <= cohorts
        metrics_seen = {r["metric"].split("@")[0] for r in rows}
        assert {"ndcg", "hr", "popb", "coverage", "proportion"} <= metrics_seen

    def test_pattern_percentages_sum_to_hundred(self, tiny_run):
        _, _, patterns = tiny_run
        assert patterns
        for cohort, report in patterns.items():
            assert sum(p for _, p in report) == pytest.approx(100.0, abs=0.01)

    def test_rerun_is_byte_identical(self, tiny_run):
        config, _, _ = tiny_run
        before = tree_hashes(config.workdir)
        run_pipeline(config)
        after = tree_hashes(config.workdir)
        assert before == after

    def test_stage_gating(self, tmp_path):
        from pathrec.pipeline import stage_eval, stage_recommend
        config = tiny_config(str(tmp_path / "empty"))
        with pytest.raises(StageError, match="split"):
            stage_recommend(config)
        with pytest.raises(StageError, match="split"):
            stage_eval(config)

    def test_foreign_workdir_rejected(self, tiny_run):
        config, _, _ = tiny_run
        from pathrec.pipeline import stage_synth
        with pytest.raises(StageError, match="different config"):
            stage_synth(dataclasses.replace(config, seed=2))


def copy_run(config, workdir):
    shutil.copytree(config.workdir, workdir)
    return dataclasses.replace(config, workdir=workdir), RunPaths(workdir)


def test_split_manifest_parsed_once(tiny_run, monkeypatch):
    """A stage reads the split's manifest once for its stamp, the split
    and the train fingerprint, and checks all three."""
    import builtins

    from pathrec.pipeline import _Stage

    config, _, _ = tiny_run
    paths = RunPaths(config.workdir)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    with _Stage("train-embed", config) as run:
        split = run.split()
    monkeypatch.undo()
    assert opened.count(paths.manifest) == 1
    want = DatasetSplit.read(paths.split_dir)
    assert split.manifest() == want.manifest()
    assert split.train_graph.fingerprint() == want.train_graph.fingerprint()


def test_rewritten_train_file_is_parsed_again(tiny_run, tmp_path, monkeypatch):
    """Stages in one process parse the split's train.tsv once; other bytes
    of the same length written between two stages are parsed again, and
    the next stage finds them unlike the manifest's train fingerprint."""
    from pathrec.pipeline import _Stage

    config, _, _ = tiny_run
    copy, paths = copy_run(config, str(tmp_path / "run"))
    train_file = os.path.join(paths.split_dir, "train.tsv")
    parses = []
    parse = datasets._parse_triplets
    monkeypatch.setattr(datasets, "_parse_triplets",
                        lambda path, *args: parses.append(path) or parse(path, *args))
    with _Stage("train-embed", copy) as run:
        first = run.split().train_graph
    with _Stage("train-agent", copy) as run:
        assert run.split().train_graph is first
    assert parses == [train_file]

    with open(train_file) as fh:
        text = fh.read()
    line = next(line for line in text.split("\n") if "\tproduced_by\t" in line)
    other = line.replace("b00", "b01") if "b00" in line else line.replace("b01", "b00")
    rewritten = text.replace(line + "\n", other + "\n", 1)
    assert len(rewritten) == len(text) and rewritten != text
    with open(train_file, "w") as fh:
        fh.write(rewritten)
    with pytest.raises(StageError, match=r"^\[train-agent\] .*train.tsv and manifest differ"):
        stage_train_agent(copy)
    assert parses == [train_file, train_file]


def test_two_runs_in_one_process_write_identical_trees(tmp_path, capsys):
    """The second run finds every split parse of the first in the memo and
    still writes the first run's bytes; run.json differs only by its
    workdir."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY))
    roots = [str(tmp_path / name) for name in ("a", "b")]
    for root in roots:
        assert cli.main(["run", "-c", str(config_path), "--workdir", root]) == 0
    first, second = (tree_hashes(root, skip=("run.json",)) for root in roots)
    assert first == second
    metas = []
    for root in roots:
        with open(os.path.join(root, "run.json")) as fh:
            meta = json.load(fh)
        assert meta["config"].pop("workdir") == root
        metas.append(meta)
    assert metas[0] == metas[1]


def test_json_artifacts_are_one_line(tiny_run):
    """Every json artifact is its value's key-sorted compact JSON on one
    line, ending in one newline."""
    config, _, _ = tiny_run
    found = []
    for dirpath, _, files in os.walk(config.workdir):
        for name in files:
            if name.endswith(".json"):
                with open(os.path.join(dirpath, name)) as fh:
                    text = fh.read()
                value = json.loads(text)
                assert text == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
                found.append(os.path.relpath(os.path.join(dirpath, name), config.workdir))
    assert sorted(found) == ["cold/integration.json", "data/prefs.json", "data/schema.json",
                             "report/metrics.json", "run.json", "split/manifest.json",
                             "split/schema.json"]


class TestRecommendStage:
    def test_reads_only_the_cold_table(self, tiny_run, tmp_path):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        os.remove(paths.embed_file)
        os.remove(paths.recs_file)
        stage_recommend(copy)
        assert tree_hashes(copy.workdir) == tree_hashes(config.workdir, skip=(
            os.path.relpath(paths.embed_file, copy.workdir),))

    def test_stored_paths_render_as_explanations(self, tiny_run):
        config, _, _ = tiny_run
        _, records = read_recommendations(RunPaths(config.workdir).recs_file)
        served = [(rec["user"], it) for rec in records for it in rec["items"]]
        assert served
        for user, it in served:
            text = explain(it["path"])
            hops = [r for r in it["path"]["relations"] if r["name"] != "self_loop"]
            assert text.startswith(f"user:{user} ")
            assert text.endswith(f" item:{it['item']}")
            assert len(text.split("; ")) == len(hops)

    def test_warm_table_as_cold_table_rejected(self, tiny_run, tmp_path):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        shutil.copyfile(paths.embed_file, paths.cold_table_file)
        with pytest.raises(StageError, match=r"\[recommend\]"):
            stage_recommend(copy)

    def test_other_seeds_cold_table_rejected(self, tiny_run, tmp_path):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        other = dataclasses.replace(config, seed=2, workdir=str(tmp_path / "seed2"))
        run_pipeline(other)
        shutil.copyfile(RunPaths(other.workdir).cold_table_file, paths.cold_table_file)
        with pytest.raises(StageError, match=r"\[recommend\]"):
            stage_recommend(copy)

    def test_cold_table_with_extra_rows_rejected(self, tiny_run, tmp_path):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        split = DatasetSplit.read(paths.split_dir)
        table = load_table(paths.embed_file, split.train_graph)
        extra = dataclasses.replace(split.user_profiles[0], name="one-more")
        aug, ext, ids = integrate_cold_entities(
            split.train_graph, table, _ordered_profiles(split) + [extra],
            config.cold_strategy)
        assert "one-more" in ids
        save_table(ext, aug, paths.cold_table_file, config_hash=config.config_hash(),
                   seed=config.seed)
        with pytest.raises(StageError, match="does not match the augmented graph"):
            stage_recommend(copy)


@pytest.fixture(scope="module")
def seed2_run(tmp_path_factory):
    config = tiny_config(str(tmp_path_factory.mktemp("seed2") / "run"), seed=2)
    run_pipeline(config)
    return config


STAGE_CALLS = {
    "split": stage_split,
    "train-embed": stage_train_embed,
    "train-agent": stage_train_agent,
    "cold-integrate": stage_cold_integrate,
    "recommend": stage_recommend,
    "eval": stage_eval,
    "sweep": lambda config: sweep(config, "interactions", [0]),
}


def truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


def cut_lines(path):
    """Keep the first half of the file's lines, each of them whole."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    with open(path, "wb") as fh:
        fh.writelines(lines[:len(lines) // 2])


def bad_target(path):
    """Cut the name off the first declared target; every line still decodes."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    target = lines[0]["relations"][0]["target"]
    lines[0]["relations"][0]["target"] = target[:target.index(":") + 1]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in lines)


def drop_items(path):
    """Remove ``items`` from the first user record; every line still decodes."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    del lines[1]["items"]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in lines)


def repeat_item(path):
    """List the first served user's first item a second time, at the end
    of the list; every line still decodes and the stamp still matches."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    rec = next(r for r in lines if r.get("items"))
    rec["items"].append({**rec["items"][0], "rank": len(rec["items"]) + 1})
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in lines)


def first_line(line):
    """A fault writer that replaces the file's first line by ``line(record)``,
    ``record`` being that line's JSON value."""
    def write(path):
        with open(path, "rb") as fh:
            lines = fh.readlines()
        lines[0] = line(json.loads(lines[0])) + b"\n"
        with open(path, "wb") as fh:
            fh.writelines(lines)
    return write


def bad_byte(path):
    """Put a byte that decodes as no UTF-8 text into the middle of the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])


def list_cohort(path):
    """Store the manifest's warm_test cohort as a JSON list of its user
    names; the file still decodes and its stamp still matches the run."""
    with open(path) as fh:
        data = json.load(fh)
    data["warm_test"] = list(data["warm_test"])
    write_json(path, data)


def shared_user(path):
    """Copy the first cold_test user, with its items, into warm_test, so two
    scored cohorts share it; the file still decodes and its stamp still
    matches the run. Returns the user's name."""
    with open(path) as fh:
        data = json.load(fh)
    user = min(data["cold_test"])
    data["warm_test"][user] = data["cold_test"][user]
    write_json(path, data)
    return user


def bad_targets(path):
    """Store every cold user's ranked targets as one [5, "x", null] entry;
    the manifest still decodes and its stamp still matches the run."""
    with open(path) as fh:
        data = json.load(fh)
    for rts in data["cold_user_targets"].values():
        for rt in rts:
            rt["targets"] = [[5, "x", None]]
    write_json(path, data)


def rewrite_schema(path, edit):
    """Rewrite a schema file as ``edit(schema)`` leaves its JSON value."""
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    write_json(path, data)


def bad_pattern(path):
    """Put an int where the first path pattern names its first relation."""
    rewrite_schema(path, lambda schema: schema["path_patterns"][0].__setitem__(1, 5))


def string_flag(path):
    """Flag the interaction relation as cold-integration with the string
    "false", which a truth test reads as true."""
    rewrite_schema(path, lambda schema: schema["relations"][0].update(cold_integration="false"))


def unknown_key(path):
    """Misspell the top-level ``path_patterns`` key, which a reader that
    ignores unknown keys reads as no patterns."""
    rewrite_schema(path, lambda schema: schema.update(path_pattern=schema.pop("path_patterns")))


def misspelt_flag(path):
    """Misspell ``cold_integration`` on ``produced_by``, which a reader
    that ignores unknown keys reads as not cold-integrated."""
    rewrite_schema(path, lambda schema: schema["relations"][1].update(
        cold_integraton=schema["relations"][1].pop("cold_integration")))


def bogus_relation(path):
    """Name an unknown relation in the first path pattern."""
    rewrite_schema(path, lambda schema: schema["path_patterns"][0].__setitem__(1, "bogus"))


def rewrite_npz(path, edit):
    """Rewrite an npz artifact's arrays as ``edit(arrays)`` leaves them."""
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(path, **arrays)


def param_shape(path):
    """Store the policy's b1 as one value, which a broadcast would spread
    over every unit; the stamp still matches the run."""
    rewrite_npz(path, lambda arrays: arrays.update(b1=arrays["b1"][:1]))


def state_dim_format(path):
    """Store the policy in the format written before W1 lost the rows of
    a finished walk's last pair: a ``state_dim`` member in place of
    ``dim`` and W1 two blocks taller. The stamp still matches the run."""
    def widen(arrays):
        d = int(arrays.pop("dim"))
        W1 = arrays["W1"]
        arrays["W1"] = np.vstack([W1, np.zeros((2 * d, W1.shape[1]))])
        arrays["state_dim"] = np.asarray(len(arrays["W1"]))
    rewrite_npz(path, widen)


def short_self_loop(path):
    """Cut the table's self-loop vector to 3 values; the stamp still
    matches the run."""
    rewrite_npz(path, lambda arrays: arrays.update(self_loop_vec=arrays["self_loop_vec"][:3]))


def drop_cohort(path):
    """Remove the warm_val cohort from the manifest; the file still
    decodes and its stamp still matches the run."""
    with open(path) as fh:
        data = json.load(fh)
    del data["warm_val"]
    write_json(path, data)


def rewrite_config(path, edit):
    """Rewrite the config stored in a split manifest (json) or a policy
    (npz) as ``edit(config, artifact)`` leaves it, where ``artifact`` is
    the manifest's object or the policy's arrays."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        edit(data["config"], data)
        write_json(path, data)
        return
    def edit_stored(arrays):
        config = json.loads(str(arrays["config"]))
        edit(config, arrays)
        arrays["config"] = np.asarray(json.dumps(config, sort_keys=True))
    rewrite_npz(path, edit_stored)


def seed_in_config(path):
    """Write the seed into the stored config, the layout of earlier versions:
    a split manifest kept its seed only there, a policy also kept a copy
    there. The (config hash, seed) stamp still matches the run."""
    def move_seed(config, artifact):
        config["seed"] = int(artifact.pop("seed") if path.endswith(".json") else artifact["seed"])
    rewrite_config(path, move_seed)


def config_type(path):
    """Store the split config's train_frac as a string; the stamp still
    matches the run."""
    rewrite_config(path, lambda config, _: config.update(train_frac="bogus"))


def config_key(path):
    """Add an unknown key to the stored config; the stamp still matches
    the run."""
    rewrite_config(path, lambda config, _: config.update(bogus=1))


FAULTS = [
    *(("truncate", artifact, stage) for artifact, stage in (
        ("data/triplets.tsv", "split"),
        ("split/manifest.json", "train-embed"),
        ("split/profiles.jsonl", "train-embed"),  # cut at a line boundary
        ("split/train.tsv", "train-embed"),
        ("split/schema.json", "train-embed"),
        ("embed/embeddings.npz", "train-agent"),
        ("embed/embeddings.npz", "cold-integrate"),
        ("embed/embeddings.npz", "sweep"),
        ("agent/policy.npz", "recommend"),
        ("agent/policy.npz", "sweep"),
        ("cold/embeddings.npz", "recommend"),
        ("recs/recommendations.jsonl", "eval"),
        ("run.json", "eval"),
    )),
    *(("seed2", artifact, stage) for artifact, stage in (
        ("split/manifest.json", "train-embed"),
        ("split/profiles.jsonl", "train-embed"),
        ("split/train.tsv", "train-embed"),
        ("embed/embeddings.npz", "train-agent"),
        ("embed/embeddings.npz", "sweep"),
        ("agent/policy.npz", "recommend"),
        ("agent/policy.npz", "sweep"),
        ("cold/embeddings.npz", "recommend"),
        ("recs/recommendations.jsonl", "eval"),
    )),
    *(("delete", "run.json", stage) for stage in STAGES[1:] + ("sweep",)),
    ("cut-lines", "recs/recommendations.jsonl", "eval"),  # every kept record decodes
    ("drop-items", "recs/recommendations.jsonl", "eval"),
    ("repeat-item", "recs/recommendations.jsonl", "eval"),
    ("bad-byte", "recs/recommendations.jsonl", "eval"),
    ("bad-target", "split/profiles.jsonl", "train-embed"),
    ("bad-target", "split/profiles.jsonl", "cold-integrate"),
    ("seed-in-config", "split/manifest.json", "train-embed"),
    ("list-cohort", "split/manifest.json", "eval"),
    ("shared-user", "split/manifest.json", "eval"),
    ("bad-targets", "split/manifest.json", "sweep"),
    ("seed-in-config", "agent/policy.npz", "recommend"),
    ("seed-in-config", "agent/policy.npz", "sweep"),
    ("config-type", "split/manifest.json", "train-embed"),
    ("config-key", "split/manifest.json", "train-embed"),
    ("config-key", "agent/policy.npz", "recommend"),
    ("param-shape", "agent/policy.npz", "recommend"),
    ("param-shape", "agent/policy.npz", "sweep"),
    ("state-dim-format", "agent/policy.npz", "recommend"),
    ("state-dim-format", "agent/policy.npz", "sweep"),
    ("short-self-loop", "embed/embeddings.npz", "cold-integrate"),
    ("short-self-loop", "cold/embeddings.npz", "recommend"),
    ("drop-cohort", "split/manifest.json", "train-embed"),
    ("int-name", "split/profiles.jsonl", "train-embed"),
    ("no-relations", "split/profiles.jsonl", "train-embed"),
    ("list-line", "split/profiles.jsonl", "train-embed"),
    ("not-json", "split/profiles.jsonl", "train-embed"),
    *(("bad-byte", f"split/{name}", "train-embed")
      for name in ("profiles.jsonl", "train.tsv", "schema.json", "manifest.json")),
    # data/schema.json is read as a file dataset's schema is
    *((fault, artifact, stage)
      for fault in ("bad-pattern", "string-flag", "unknown-key", "misspelt-flag", "bogus-relation")
      for artifact, stage in (("data/schema.json", "split"), ("split/schema.json", "train-embed"))),
]


FAULT_WRITERS = {"truncate": truncate, "cut-lines": cut_lines, "drop-items": drop_items,
                 "repeat-item": repeat_item,
                 "bad-target": bad_target, "bad-targets": bad_targets,
                 "seed-in-config": seed_in_config, "list-cohort": list_cohort,
                 "shared-user": shared_user,
                 "config-type": config_type, "config-key": config_key,
                 "param-shape": param_shape, "state-dim-format": state_dim_format,
                 "short-self-loop": short_self_loop,
                 "drop-cohort": drop_cohort, "delete": os.remove,
                 "int-name": first_line(lambda rec: json.dumps({**rec, "name": 7}).encode()),
                 "no-relations": first_line(lambda rec: json.dumps(
                     {k: v for k, v in rec.items() if k != "relations"}).encode()),
                 "list-line": first_line(lambda rec: b"[1, 2]"),
                 "not-json": first_line(lambda rec: b"{not json"),
                 "bad-byte": bad_byte, "bad-pattern": bad_pattern, "string-flag": string_flag,
                 "unknown-key": unknown_key, "misspelt-flag": misspelt_flag,
                 "bogus-relation": bogus_relation}


def damage(copy, seed2_run, fault, artifact):
    """Apply one of FAULTS to the copied run ``copy``."""
    path = os.path.join(copy.workdir, artifact)
    if fault == "seed2":
        shutil.copyfile(os.path.join(seed2_run.workdir, artifact), path)
    else:
        FAULT_WRITERS[fault](path)


class TestDamagedArtifacts:
    @pytest.mark.parametrize("fault, artifact, stage", FAULTS)
    def test_fault_ends_in_stage_error(self, tiny_run, seed2_run, tmp_path, capsys,
                                       fault, artifact, stage):
        config, _, _ = tiny_run
        copy, _ = copy_run(config, str(tmp_path / "run"))
        damage(copy, seed2_run, fault, artifact)
        with pytest.raises(StageError, match=rf"^\[{stage}\] ") as err:
            STAGE_CALLS[stage](copy)
        assert err.value.stage == stage
        # the damaged file is named, and its content is not echoed
        assert os.path.basename(artifact) in str(err.value) and len(str(err.value)) < 500
        config_path = str(tmp_path / "config.json")
        write_json(config_path, copy.to_json())
        extra = ["--axis", "interactions", "--values", "0"] if stage == "sweep" else []
        assert cli.main([stage, "-c", config_path, *extra]) == 2
        assert capsys.readouterr().err.startswith(f"[{stage}] ")

    @pytest.mark.parametrize("fault, artifact, stage", FAULTS)
    def test_fault_after_clean_read_ends_in_stage_error(self, tiny_run, seed2_run, tmp_path,
                                                       fault, artifact, stage):
        """A stage that has read the undamaged run in this process keeps
        no parse that hides the fault from its next read."""
        config, _, _ = tiny_run
        copy, _ = copy_run(config, str(tmp_path / "run"))
        STAGE_CALLS[stage](copy)
        damage(copy, seed2_run, fault, artifact)
        with pytest.raises(StageError, match=rf"^\[{stage}\] "):
            STAGE_CALLS[stage](copy)

    def test_user_in_two_scored_cohorts_is_named_with_both(self, tiny_run, tmp_path):
        """A split whose warm_test and cold_test share a user is refused by
        the stages that score it, not served and scored as warm."""
        config, _, _ = tiny_run
        copy, _ = copy_run(config, str(tmp_path / "run"))
        manifest = os.path.join(copy.workdir, "split", "manifest.json")
        user = shared_user(manifest)
        for stage in ("recommend", "eval"):
            with pytest.raises(StageError, match=rf"^\[{stage}\] {re.escape(manifest)}: user "
                                                 rf"'{user}' is scored in both warm_test "
                                                 r"and cold_test$"):
                STAGE_CALLS[stage](copy)

    @pytest.mark.parametrize("stage", ["recommend", "sweep"])
    def test_policy_of_the_state_dim_format_names_the_missing_dim(self, tiny_run, tmp_path,
                                                                  stage):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        state_dim_format(paths.policy_file)
        with np.load(paths.policy_file) as data:
            assert "dim" not in data.files and data["W1"].shape == (56, 16)
        with pytest.raises(StageError, match=rf"^\[{stage}\] {re.escape(paths.policy_file)}: "
                                             r"no dim stored$"):
            STAGE_CALLS[stage](copy)

    @pytest.mark.parametrize("fault, field", [
        ("bad-pattern", "path_patterns[0] must be a list of strings"),
        ("string-flag", "relation 'purchase': cold_integration must be a JSON boolean"),
        ("unknown-key", "unknown key 'path_pattern'"),
        ("misspelt-flag", "relation 'produced_by': unknown key 'cold_integraton'"),
        ("bogus-relation", "pattern ('user', 'bogus', 'category', '~belong_to', 'item') "
                           "uses unknown relation bogus"),
    ])
    def test_file_dataset_schema_fault_exits_2(self, tiny_run, tmp_path, capsys, fault, field):
        """``pathrec run`` on a file dataset whose schema is malformed ends
        in exit 2 naming the file and the field, not in a traceback or a
        run that reads the field as something else."""
        config, _, _ = tiny_run
        for name in ("triplets.tsv", "schema.json"):
            shutil.copyfile(os.path.join(config.workdir, "data", name), tmp_path / name)
        schema = str(tmp_path / "schema.json")
        FAULT_WRITERS[fault](schema)
        raw = config.to_json()
        raw.update(workdir=str(tmp_path / "run"),
                   dataset={"triplets": str(tmp_path / "triplets.tsv"), "schema": schema})
        write_json(str(tmp_path / "config.json"), raw)
        assert cli.main(["run", "-c", str(tmp_path / "config.json")]) == 2
        assert capsys.readouterr().err == f"[split] {schema}: {field}\n"

    @pytest.mark.parametrize("fault, artifact", [
        ("config-type", "split/manifest.json"),
        ("config-key", "split/manifest.json"),
        ("config-key", "agent/policy.npz"),
    ])
    def test_stored_config_read_directly_fails_as_path_rec_error(self, tiny_run, tmp_path,
                                                                 fault, artifact):
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        FAULT_WRITERS[fault](os.path.join(copy.workdir, artifact))
        with pytest.raises(PathRecError, match=r"manifest\.json: config|policy\.npz: config"):
            if artifact.startswith("split/"):
                DatasetSplit.read(paths.split_dir)
            else:
                PolicyModel.load(paths.policy_file)

    @pytest.mark.parametrize("fault, name, where", [
        ("int-name", "profiles.jsonl", ":1: no string name"),
        ("no-relations", "profiles.jsonl", ":1: relations is not a list"),
        ("list-line", "profiles.jsonl", ":1: not a JSON object"),
        ("not-json", "profiles.jsonl", ":1: not JSON"),
        *(("bad-byte", name, ": byte ") for name in ("profiles.jsonl", "train.tsv",
                                                    "schema.json", "manifest.json")),
        ("bad-pattern", "schema.json", ": path_patterns[0] must be a list of strings"),
        ("string-flag", "schema.json",
         ": relation 'purchase': cold_integration must be a JSON boolean"),
    ])
    def test_damaged_split_file_read_directly_is_named(self, tiny_run, tmp_path,
                                                       fault, name, where):
        """``DatasetSplit.read`` names the damaged file (and line) in a
        ParseError; a byte that does not decode is reported by its offset,
        and the file's content is not echoed."""
        config, _, _ = tiny_run
        copy, paths = copy_run(config, str(tmp_path / "run"))
        path = os.path.join(paths.split_dir, name)
        FAULT_WRITERS[fault](path)
        with pytest.raises(ParseError) as err:
            DatasetSplit.read(paths.split_dir)
        message = str(err.value)
        assert message.startswith(path + where) and len(message) < 200, message

    def test_write_json_is_compact(self, tmp_path):
        path = str(tmp_path / "a.json")
        value = {"b": [1, 2.5, "x\u00e9"], "a": {"z": None, "y": True}}
        write_json(path, value)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == b'{"a":{"y":true,"z":null},"b":[1,2.5,"x\\u00e9"]}\n'
        assert json.loads(data) == value

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = str(tmp_path / "out" / "a.json")
        write_json(path, {"a": 1})
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})  # fails after "a" is written
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path / "out") == ["a.json"]


class TestSweep:
    def test_axis_validation(self, tiny_run):
        config, _, _ = tiny_run
        with pytest.raises(InvalidAxisValue):
            sweep(config, "volume", [1])
        with pytest.raises(InvalidAxisValue):
            sweep(config, "interactions", [])
        with pytest.raises(InvalidAxisValue):
            sweep(config, "interactions", [0, -1])
        with pytest.raises(InvalidAxisValue):
            sweep(config, "interactions", [0.5])
        with pytest.raises(InvalidAxisValue):
            sweep(config, "interactions", [True])
        with pytest.raises(InvalidAxisValue, match="^sweep relations value 1 is repeated$"):
            sweep(config, "relations", [1, 1])

    def test_repeated_value_rejected_by_cli(self, tiny_run, tmp_path, capsys):
        config, _, _ = tiny_run
        path = RunPaths(config.workdir).sweep_csv
        before = open(path).read() if os.path.exists(path) else None
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY))
        code = cli.main(["sweep", "-c", str(config_path), "--workdir", config.workdir,
                         "--seed", "1", "--axis", "relations", "--values", "2,1,2"])
        assert code == 2
        out = capsys.readouterr()
        assert out.err == "error: sweep relations value 2 is repeated\n"
        assert out.out == ""
        assert (open(path).read() if os.path.exists(path) else None) == before

    def test_interaction_sweep_rows(self, tiny_run):
        config, _, _ = tiny_run
        rows = sweep(config, "interactions", [0, 1])
        values = {r["value"] for r in rows}
        assert values == {0, 1}
        cohorts = {r["cohort"] for r in rows}
        assert cohorts == {"cold_val", "cold_test"}
        for r in rows:
            assert 0.0 <= r["result"] <= 1.0
        assert os.path.exists(RunPaths(config.workdir).sweep_csv)

    def test_relation_sweep_rows(self, tiny_run):
        config, _, _ = tiny_run
        rows = sweep(config, "relations", [1, 3])
        assert {r["value"] for r in rows} == {1, 3}
        # user count never changes on this axis: no interactions move
        n_users = {r["n_users"] for r in rows if r["cohort"] == "cold_val"}
        assert len(n_users) == 1

    def test_value_leaving_no_one_to_score_rejected(self, tiny_run, tmp_path, capsys):
        # moving every hidden item into the graph once wrote a header-only sweep.csv
        config, _, _ = tiny_run
        path = RunPaths(config.workdir).sweep_csv
        sweep(config, "relations", [1])
        with open(path) as fh:
            before = fh.read()
        message = "sweep interactions value 100 leaves no cold user with a hidden item to score"
        for values in ([100], [0, 100]):
            with pytest.raises(InvalidAxisValue, match=message):
                sweep(config, "interactions", values)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY))
        code = cli.main(["sweep", "-c", str(config_path), "--workdir", config.workdir,
                         "--seed", "1", "--axis", "interactions", "--values", "0,100"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        with open(path) as fh:
            assert fh.read() == before

    def test_foreign_config_or_seed_rejected(self, tiny_run):
        config, _, _ = tiny_run
        def sweep_csv():
            path = RunPaths(config.workdir).sweep_csv
            return open(path).read() if os.path.exists(path) else None

        before = sweep_csv()
        other = dataclasses.replace(config, agent=dataclasses.replace(config.agent, epochs=1))
        for foreign in (other, dataclasses.replace(config, seed=2)):
            with pytest.raises(StageError, match="different config"):
                sweep(foreign, "relations", [1])
        assert sweep_csv() == before


@pytest.fixture(scope="module")
def multi_seed_run(tmp_path_factory):
    config = tiny_config(str(tmp_path_factory.mktemp("multi-seed") / "runs"))
    run_seeds(config, [1, 2])
    return config


class TestMultiSeed:
    def test_run_seeds_aggregate_oracle(self, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("multi") / "runs")
        config = tiny_config(workdir)
        out_rows = run_seeds(config, [1, 2])
        per_seed = {}
        for seed in (1, 2):
            with open(os.path.join(workdir, f"seed_{seed}", "report",
                                   "metrics.json")) as fh:
                per_seed[seed] = json.load(fh)["rows"]
            with open(os.path.join(workdir, f"seed_{seed}", "run.json")) as fh:
                assert json.load(fh)["seed"] == seed
        by_key = {}
        for seed in (1, 2):
            for r in per_seed[seed]:
                by_key.setdefault((r["model"], r["cohort"], r["metric"]),
                                  []).append(r["value"])
        assert len(out_rows) == len(by_key)
        for row in out_rows:
            vals = np.asarray(by_key[(row["model"], row["cohort"], row["metric"])])
            assert row["mean"] == pytest.approx(float(vals.mean()), abs=1e-15)
            assert row["std"] == pytest.approx(float(vals.std()), abs=1e-15)
            assert row["n_seeds"] == 2
        assert os.path.exists(os.path.join(workdir, "aggregate.csv"))
        assert os.path.exists(os.path.join(workdir, "aggregate.json"))

    def test_aggregate_rejects_foreign_report(self, tmp_path):
        config = tiny_config(str(tmp_path / "runs"))
        run_seeds(config, [1, 2])
        report = os.path.join(config.workdir, "seed_2", "report", "metrics.json")
        with open(report) as fh:
            data = json.load(fh)
        data["config_hash"] = "0" * 16
        with open(report, "w") as fh:
            json.dump(data, fh)
        with pytest.raises(StageError, match=r"\[report\].*seed_2"):
            write_aggregate(config, [1, 2])

    def test_aggregate_requires_reports(self, tmp_path):
        config = tiny_config(str(tmp_path))
        with pytest.raises(StageError):
            write_aggregate(config, [1, 2])

    @pytest.mark.parametrize("rows", [[1], "no value"])
    def test_aggregate_rejects_malformed_rows(self, multi_seed_run, tmp_path, capsys, rows):
        config = multi_seed_run
        copy = dataclasses.replace(config, workdir=str(tmp_path / "runs"))
        shutil.copytree(config.workdir, copy.workdir)
        report = os.path.join(copy.workdir, "seed_2", "report", "metrics.json")
        with open(report) as fh:
            data = json.load(fh)
        if rows == "no value":
            del data["rows"][0]["value"]
        else:
            data["rows"] = rows
        write_json(report, data)
        with pytest.raises(StageError, match=r"^\[report\] .*seed_2"):
            write_aggregate(copy, [1, 2])
        config_path = str(tmp_path / "config.json")
        write_json(config_path, copy.to_json())
        assert cli.main(["report", "-c", config_path, "--seeds", "1,2"]) == 2
        assert capsys.readouterr().err.startswith("[report] ")


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    workdir = str(base / "run")
    raw = json.loads(json.dumps(TINY))
    raw["dataset"]["synthetic"].update(users=12, items=10,
                                       interactions_per_user=5)
    raw["embed"]["epochs"] = 2
    raw["agent"]["epochs"] = 1
    config_path = str(base / "config.json")
    with open(config_path, "w") as fh:
        json.dump(raw, fh)
    return config_path, workdir


class TestCli:
    def test_stage_by_stage(self, cli_env, capsys):
        config_path, workdir = cli_env
        for command in ("synth", "split", "train-embed", "train-agent",
                        "cold-integrate", "recommend", "eval"):
            code = cli.main([command, "-c", config_path, "--workdir", workdir,
                             "--seed", "1"])
            assert code == 0, command
        out = capsys.readouterr().out
        assert "grecs" in out and "pop" in out

    def test_sweep_and_report_commands(self, cli_env, capsys):
        config_path, workdir = cli_env
        code = cli.main(["sweep", "-c", config_path, "--workdir", workdir,
                         "--seed", "1", "--axis", "interactions",
                         "--values", "0,1"])
        assert code == 0
        multi = workdir + "-seeds"
        assert cli.main(["run", "-c", config_path, "--workdir", multi,
                         "--seeds", "1,2"]) == 0
        assert cli.main(["report", "-c", config_path, "--workdir", multi,
                         "--seeds", "1,2"]) == 0
        assert "interactions" in capsys.readouterr().out

    def test_missing_stage_returns_error_code(self, tmp_path, cli_env, capsys):
        config_path, _ = cli_env
        code = cli.main(["eval", "-c", config_path,
                         "--workdir", str(tmp_path / "nothing")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[eval]" in err

    def test_set_override_changes_config(self, cli_env, tmp_path, capsys):
        config_path, _ = cli_env
        workdir = str(tmp_path / "override")
        code = cli.main(["synth", "-c", config_path, "--workdir", workdir,
                         "--set", "dataset.synthetic.users=7"])
        assert code == 0
        with open(os.path.join(workdir, "run.json")) as fh:
            meta = json.load(fh)
        assert meta["config"]["dataset"]["synthetic"]["users"] == 7

    @pytest.mark.parametrize("override, message", [
        ("agent.foo=1", "unknown key(s) in agent: foo"),
        ('inference.topk="x"', "inference.topk must be int"),
        ('cold.strategy="nul"', "unknown cold.strategy 'nul'; expected one of "
                                "['average_translation', 'null']"),
        ("seed=-1", "seed must be >= 0, got -1"),
        ("dataset.synthetic.seed=-1", "the catalog seed must be >= 0, got -1"),
        ("agent.batch_size=0", "batch_size and episodes_per_user must be >= 1"),
        ("agent.episodes_per_user=0", "batch_size and episodes_per_user must be >= 1"),
        ("agent.learning_rate=-1", "learning_rate must be positive"),
        ("agent.learning_rate=0", "learning_rate must be positive"),
    ])
    def test_bad_override_exits_2(self, cli_env, tmp_path, capsys, override, message):
        config_path, _ = cli_env
        code = cli.main(["synth", "-c", config_path, "--workdir", str(tmp_path / "bad"),
                         "--set", override])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "bad").exists()

    QUOTED = " e.g. --set 'cold.strategy=\"null\"'"

    @pytest.mark.parametrize("override, message", [
        ("cold.strategy=null", "cold.strategy must be a JSON string, got JSON null; "
                               "a string needs JSON quotes," + QUOTED),
        ("cold.strategy=3", "cold.strategy must be a JSON string, got JSON number 3; "
                            "a string needs JSON quotes," + QUOTED),
        ("cold.strategy=[1]", "cold.strategy must be a JSON string, got JSON array [1]; "
                              "a string needs JSON quotes," + QUOTED),
        ("cold_strategy=null", "unknown key(s) in config: cold_strategy; the cold strategy "
                               "is the key cold.strategy," + QUOTED),
        ('cold_strategy="null"', "unknown key(s) in config: cold_strategy; the cold strategy "
                                 "is the key cold.strategy," + QUOTED),
    ])
    def test_cold_strategy_override_names_the_fix(self, cli_env, tmp_path, capsys, override,
                                                  message):
        """``--set cold.strategy=null`` parses JSON null, and the dataclass
        field's name is no config key: each message names what was read
        and shows the override that works, which does."""
        config_path, _ = cli_env
        code = cli.main(["synth", "-c", config_path, "--workdir", str(tmp_path / "bad"),
                         "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        workdir = tmp_path / "good"
        assert cli.main(["synth", "-c", config_path, "--workdir", str(workdir),
                         "--set", 'cold.strategy="null"']) == 0
        with open(workdir / "run.json") as fh:
            assert json.load(fh)["config"]["cold"] == {"strategy": "null"}

    @pytest.mark.parametrize("text", [None, '{"seed": 1,', "[1]"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["synth", "-c", str(path), "--workdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {path}")

    def test_bad_set_syntax_exits(self, cli_env, tmp_path, capsys):
        config_path, _ = cli_env
        code = cli.main(["synth", "-c", config_path, "--workdir", str(tmp_path / "bad"),
                         "--set", "no-equals-sign"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --set expects key=value, got 'no-equals-sign'\n"
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--axis", "interactions", "--values", "1,x"],
         "--values expects comma separated ints, got '1,x'"),
        (["run", "--seeds", "1,x"], "--seeds expects comma separated ints, got '1,x'"),
        (["report"], "report needs --seeds"),
        (["synth", "--set", "seed.x=1"], "--set path 'seed.x' crosses a non-object value"),
        (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--seeds", "1,1"], "seeds must be distinct non-negative integers, got [1, 1]"),
        (["run", "--seeds", ","], "seeds must be distinct non-negative integers, got []"),
        (["run", "--seeds", "2,-1"], "seeds must be distinct non-negative integers, got [2, -1]"),
        (["report", "--seeds", "1,2,1"],
         "seeds must be distinct non-negative integers, got [1, 2, 1]"),
        (["report", "--seeds", ","], "seeds must be distinct non-negative integers, got []"),
    ])
    def test_bad_arguments_exit_2_with_one_line(self, cli_env, tmp_path, capsys, argv,
                                                message):
        config_path, _ = cli_env
        code = cli.main([*argv, "-c", config_path, "--workdir", str(tmp_path / "bad")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bad").exists()


def test_every_exported_name_resolves():
    # a stale export of a deleted name fails here, not at a caller's import *
    import pathrec

    assert [name for name in pathrec.__all__ if not hasattr(pathrec, name)] == []
    assert len(set(pathrec.__all__)) == len(pathrec.__all__)
