"""End-to-end runs: staged artifacts, evaluation, seed aggregation, sweeps.

Every stage reads its inputs from the run directory and writes its outputs
there, so stages can be re-run individually. All artifacts embed the
config hash and seed, and a second run with the same config and seed is
byte-identical. The training stages run once; cold integration, sweeps
and evaluation only ever extend clones, never retrain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import coldstart, datasets, inference, metrics
from .coldstart import ColdProfile, ColdStrategy
from .datasets import DatasetSplit, SplitConfig, SyntheticSpec, cap_cold_relations
from .embeddings import EmbedTrainConfig, EmbeddingTable, load_table, save_table, train_embeddings
from .errors import InvalidAxisValue, InvalidSpec, MissingEmbedding, PathRecError, StageError
from .graph import INVERSE, KnowledgeGraph
from .mdp import SELF_LOOP, RewardSpec, path_signature, signature_label
from .policy import AgentConfig, PolicyModel, train_agent, write_history

log = logging.getLogger(__name__)

STAGES = ("synth", "split", "train-embed", "train-agent", "cold-integrate",
          "recommend", "eval")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class InferenceConfig:
    widths: tuple[int, ...] = (25, 5, 1)
    topk: int = 10

    def validate(self):
        if not self.widths or any(w < 1 for w in self.widths):
            raise InvalidSpec("beam widths must be a non-empty list of ints >= 1")
        if self.topk < 1:
            raise InvalidSpec("topk must be >= 1")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(section, allowed: tuple[str, ...], where: str):
    if not isinstance(section, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise InvalidSpec(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _sub_config(cls, section, where: str, **fixed):
    """A config dataclass from its JSON object; each value must have the
    type of the field's default (an int may stand for a float, a list for a
    tuple of ints). ``fixed`` values override the object's."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(section, tuple(fields), where)
    values = {**section, **fixed}
    for name, value in values.items():
        default = fields[name].default
        if isinstance(default, tuple) and isinstance(value, (list, tuple)):
            value = values[name] = tuple(value)
            ok = all(_is_int(v) for v in value)
        elif isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = _is_int(value)
        elif isinstance(default, float):
            ok = _is_int(value) or isinstance(value, float)
        else:
            ok = isinstance(value, type(default))
        if not ok:
            kind = "a list of ints" if isinstance(default, tuple) else type(default).__name__
            raise InvalidSpec(f"{where}.{name} must be {kind}, got {value!r}")
    return cls(**values)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    workdir: str = "run"
    synthetic: SyntheticSpec | None = field(default_factory=SyntheticSpec)
    triplets: str | None = None
    schema: str | None = None
    split: SplitConfig = field(default_factory=SplitConfig)
    embed: EmbedTrainConfig = field(default_factory=EmbedTrainConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    cold_strategy: ColdStrategy = ColdStrategy.AVERAGE_TRANSLATION
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def validate(self):
        if (self.triplets is None) != (self.schema is None):
            raise InvalidSpec("a file dataset needs both triplets and schema paths")
        if self.triplets is None and self.synthetic is None:
            raise InvalidSpec("config must name a dataset (synthetic or files)")
        if self.synthetic is not None:
            self.synthetic.validate()
        self.split.validate()
        self.embed.validate()
        self.agent.validate()
        self.inference.validate()
        if self.agent.hop_budget != len(self.inference.widths):
            raise InvalidSpec("len(inference.widths) must equal agent.hop_budget")

    def to_json(self) -> dict:
        # sub-config seeds copy the top-level seed and are dropped, so the config
        # hash stays constant across seeds of a run; the catalog's own seed is kept
        def section(cfg):
            return {k: v for k, v in dataclasses.asdict(cfg).items() if k != "seed"}

        return {
            "seed": self.seed,
            "workdir": self.workdir,
            "dataset": ({"synthetic": dataclasses.asdict(self.synthetic)} if self.triplets is None
                        else {"triplets": self.triplets, "schema": self.schema}),
            "split": section(self.split),
            "embed": section(self.embed),
            "agent": section(self.agent),
            "cold": {"strategy": self.cold_strategy.value},
            "inference": section(self.inference),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """Parse a run config; unknown keys, values of the wrong type and
        unknown cold strategies raise InvalidSpec."""
        _check_keys(data, ("seed", "workdir", "dataset", "split", "embed", "agent", "cold",
                           "inference"), "config")
        seed = data.get("seed", 0)
        workdir = data.get("workdir", "run")
        if not _is_int(seed) or not isinstance(workdir, str):
            raise InvalidSpec("seed must be an integer and workdir a string")
        dataset = data.get("dataset", {"synthetic": {}})
        synthetic = triplets = schema = None
        if isinstance(dataset, dict) and "synthetic" in dataset:
            _check_keys(dataset, ("synthetic",), "dataset")
            synthetic = _sub_config(SyntheticSpec, dataset["synthetic"], "dataset.synthetic")
        else:
            _check_keys(dataset, ("triplets", "schema"), "dataset")
            triplets, schema = dataset.get("triplets"), dataset.get("schema")
            if not all(p is None or isinstance(p, str) for p in (triplets, schema)):
                raise InvalidSpec("dataset.triplets and dataset.schema must be paths")
        cold = data.get("cold", {})
        _check_keys(cold, ("strategy",), "cold")
        strategy = cold.get("strategy", ColdStrategy.AVERAGE_TRANSLATION.value)
        names = [s.value for s in ColdStrategy]
        if strategy not in names:
            raise InvalidSpec(f"unknown cold.strategy {strategy!r}; expected one of {names}")
        cfg = cls(seed=seed, workdir=workdir, synthetic=synthetic,
                  triplets=triplets, schema=schema,
                  split=_sub_config(SplitConfig, data.get("split", {}), "split", seed=seed),
                  embed=_sub_config(EmbedTrainConfig, data.get("embed", {}), "embed", seed=seed),
                  agent=_sub_config(AgentConfig, data.get("agent", {}), "agent", seed=seed),
                  cold_strategy=ColdStrategy(strategy),
                  inference=_sub_config(InferenceConfig, data.get("inference", {}), "inference"))
        cfg.validate()
        return cfg

    def with_seed(self, seed: int, workdir: str | None = None) -> "RunConfig":
        return replace(self, seed=seed,
                       workdir=self.workdir if workdir is None else workdir,
                       split=replace(self.split, seed=seed),
                       embed=replace(self.embed, seed=seed),
                       agent=replace(self.agent, seed=seed))

    def config_hash(self) -> str:
        ident = {k: v for k, v in self.to_json().items() if k not in ("workdir", "seed")}
        return hashlib.sha256(canonical_json(ident).encode()).hexdigest()[:16]


class RunPaths:
    def __init__(self, root: str):
        self.root = root
        self.run_meta = os.path.join(root, "run.json")
        self.data_dir = os.path.join(root, "data")
        self.split_dir = os.path.join(root, "split")
        self.embed_file = os.path.join(root, "embed", "embeddings.npz")
        self.policy_file = os.path.join(root, "agent", "policy.npz")
        self.curve_file = os.path.join(root, "agent", "curve.csv")
        self.cold_table_file = os.path.join(root, "cold", "embeddings.npz")
        self.cold_meta_file = os.path.join(root, "cold", "integration.json")
        self.recs_file = os.path.join(root, "recs", "recommendations.jsonl")
        self.report_csv = os.path.join(root, "report", "metrics.csv")
        self.report_json = os.path.join(root, "report", "metrics.json")
        self.patterns_csv = os.path.join(root, "report", "patterns.csv")
        self.sweep_csv = os.path.join(root, "report", "sweep.csv")


def _require(stage: str, path: str, producer: str):
    if not os.path.exists(path):
        raise StageError(stage, f"missing {path}; run the {producer!r} stage first")


def _write_run_meta(config: RunConfig, paths: RunPaths):
    os.makedirs(paths.root, exist_ok=True)
    meta = {"config": config.to_json(), "config_hash": config.config_hash(),
            "seed": config.seed}
    with open(paths.run_meta, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_run_meta(stage: str, config: RunConfig, paths: RunPaths):
    if os.path.exists(paths.run_meta):
        with open(paths.run_meta) as fh:
            meta = json.load(fh)
        if meta.get("config_hash") != config.config_hash() or meta.get("seed") != config.seed:
            raise StageError(stage, f"{paths.root} holds artifacts of a different config/seed")


# -- stages ---------------------------------------------------------------------


def stage_synth(config: RunConfig) -> RunPaths:
    paths = RunPaths(config.workdir)
    _check_run_meta("synth", config, paths)
    _write_run_meta(config, paths)
    if config.synthetic is not None:
        datasets.generate_synthetic(config.synthetic, paths.data_dir)
    else:
        for p in (config.triplets, config.schema):
            if not os.path.exists(p):
                raise StageError("synth", f"dataset file {p} does not exist")
        os.makedirs(paths.data_dir, exist_ok=True)
        with open(os.path.join(paths.data_dir, "source.json"), "w") as fh:
            json.dump({"triplets": config.triplets, "schema": config.schema,
                       "config_hash": config.config_hash(), "seed": config.seed},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return paths


def _dataset_files(config: RunConfig, paths: RunPaths) -> tuple[str, str]:
    if config.synthetic is not None:
        return (os.path.join(paths.data_dir, "triplets.tsv"),
                os.path.join(paths.data_dir, "schema.json"))
    return config.triplets, config.schema


def stage_split(config: RunConfig) -> DatasetSplit:
    paths = RunPaths(config.workdir)
    _check_run_meta("split", config, paths)
    triplets, schema = _dataset_files(config, paths)
    _require("split", triplets, "synth")
    try:
        graph = datasets.load_dataset(triplets, schema)
        split = datasets.split_dataset(graph, config.split)
    except PathRecError as exc:
        raise StageError("split", str(exc)) from exc
    split.write(paths.split_dir, config_hash=config.config_hash())
    return split


def _load_split(stage: str, paths: RunPaths) -> DatasetSplit:
    _require(stage, os.path.join(paths.split_dir, "manifest.json"), "split")
    return DatasetSplit.read(paths.split_dir)


def stage_train_embed(config: RunConfig) -> EmbeddingTable:
    paths = RunPaths(config.workdir)
    _check_run_meta("train-embed", config, paths)
    split = _load_split("train-embed", paths)
    try:
        table = train_embeddings(split.train_graph, config.embed)
    except PathRecError as exc:
        raise StageError("train-embed", str(exc)) from exc
    os.makedirs(os.path.dirname(paths.embed_file), exist_ok=True)
    save_table(table, split.train_graph, paths.embed_file,
               config_hash=config.config_hash())
    return table


def stage_train_agent(config: RunConfig) -> PolicyModel:
    paths = RunPaths(config.workdir)
    _check_run_meta("train-agent", config, paths)
    split = _load_split("train-agent", paths)
    _require("train-agent", paths.embed_file, "train-embed")
    table = load_table(paths.embed_file, split.train_graph)
    try:
        if config.agent.reward == "pgpr":
            reward = RewardSpec.pattern(split.train_graph, table)
        else:
            reward = RewardSpec.binary(split.train_graph)
        agent, history = train_agent(split.train_graph, table, reward, config.agent)
    except PathRecError as exc:
        raise StageError("train-agent", str(exc)) from exc
    os.makedirs(os.path.dirname(paths.policy_file), exist_ok=True)
    agent.save(paths.policy_file, config_hash=config.config_hash())
    write_history(history, paths.curve_file, config_hash=config.config_hash(),
                  seed=config.seed)
    return agent


def _ordered_profiles(split: DatasetSplit) -> list[ColdProfile]:
    # items first: a cold user integrated later may gain edges to cold items
    # (interaction sweeps), and embedding rows are appended in id order.
    return split.item_profiles + split.user_profiles


def build_augmented(split: DatasetSplit, table: EmbeddingTable,
                    strategy: ColdStrategy,
                    interactions_per_cold_user: int = 0):
    """Clone + integrate cold entities; optionally move the first n hidden
    interactions of each cold user into the graph. Returns (graph, table,
    ids, moved-items-by-user)."""
    take: dict[str, list[str]] = {}
    if interactions_per_cold_user > 0:
        hidden = {**split.cold_val, **split.cold_test}
        take = {u: hidden[u][:interactions_per_cold_user] for u in sorted(hidden)}
    aug, ext, ids = coldstart.integrate_cold_entities(
        split.train_graph, table, _ordered_profiles(split), strategy, interactions=take)
    moved = {u: items for u, items in take.items() if u in ids}
    return aug, ext, ids, moved


def stage_cold_integrate(config: RunConfig):
    paths = RunPaths(config.workdir)
    _check_run_meta("cold-integrate", config, paths)
    split = _load_split("cold-integrate", paths)
    _require("cold-integrate", paths.embed_file, "train-embed")
    table = load_table(paths.embed_file, split.train_graph)
    aug, ext, ids, _ = build_augmented(split, table, config.cold_strategy)
    os.makedirs(os.path.dirname(paths.cold_table_file), exist_ok=True)
    save_table(ext, aug, paths.cold_table_file, config_hash=config.config_hash())
    skipped = sorted(p.name for p in _ordered_profiles(split) if p.name not in ids)
    with open(paths.cold_meta_file, "w") as fh:
        json.dump({"integrated": list(ids), "skipped": skipped,
                   "strategy": config.cold_strategy.value,
                   "config_hash": config.config_hash(), "seed": config.seed},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return aug, ext, ids


def _serialize_path(spath: inference.ScoredPath, graph: KnowledgeGraph) -> dict:
    state = spath.state
    rels = []
    for rel, d in state.relations:
        name = "self_loop" if rel == SELF_LOOP else graph.relation_name(rel)
        rels.append({"name": name, "direction": "inverse" if d == INVERSE else "forward"})
    return {
        "entities": [graph.entity_key(e) for e in state.entities],
        "relations": rels,
        "pattern": signature_label(path_signature(state, graph), graph),
    }


def _recommend_users(aug: KnowledgeGraph, ext: EmbeddingTable, agent: PolicyModel,
                     config: RunConfig, cohorts: dict[str, list[str]]):
    """``recommend_cold`` for each named user; returns jsonl-ready records."""
    records = []
    user_type = aug.schema.user_type
    for cohort, names in cohorts.items():
        for name in names:
            if not aug.has_entity(user_type, name):
                records.append({"user": name, "cohort": cohort, "served": False,
                                "items": []})
                continue
            recs = coldstart.recommend_cold(aug.entity_id(user_type, name), agent, aug, ext,
                                            config.inference.topk, config.inference.widths,
                                            max_actions=config.agent.max_actions)
            records.append({
                "user": name, "cohort": cohort, "served": True,
                "items": [{
                    "item": aug.entity_name(e.item), "rank": e.rank,
                    "logprob": e.logprob, "path": _serialize_path(e.path, aug),
                } for e in recs.entries],
            })
    return records


def stage_recommend(config: RunConfig):
    paths = RunPaths(config.workdir)
    _check_run_meta("recommend", config, paths)
    split = _load_split("recommend", paths)
    _require("recommend", paths.policy_file, "train-agent")
    _require("recommend", paths.cold_table_file, "cold-integrate")
    agent = PolicyModel.load(paths.policy_file)
    aug, _ = coldstart.augment_graph(split.train_graph, _ordered_profiles(split))
    try:
        stored = load_table(paths.cold_table_file, aug)
    except MissingEmbedding as exc:
        raise StageError("recommend", str(exc)) from exc
    if stored.entity_count != aug.entity_count:
        raise StageError("recommend", "cold table does not match the augmented graph")
    cohorts = {
        "warm_test": sorted(split.warm_test),
        "cold_val": sorted(split.cold_val),
        "cold_test": sorted(split.cold_test),
    }
    records = _recommend_users(aug, stored, agent, config, cohorts)
    os.makedirs(os.path.dirname(paths.recs_file), exist_ok=True)
    with open(paths.recs_file, "w") as fh:
        fh.write(json.dumps({"meta": {"config_hash": config.config_hash(),
                                      "seed": config.seed,
                                      "topk": config.inference.topk}},
                            sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def read_recommendations(path: str):
    meta, records = None, []
    with open(path) as fh:
        for line in fh:
            data = json.loads(line)
            if "meta" in data:
                meta = data["meta"]
            else:
                records.append(data)
    return meta, records


def _relevance(split: DatasetSplit, cohort: str) -> dict[str, set]:
    source = {"warm_test": split.warm_test, "cold_val": split.cold_val,
              "cold_test": split.cold_test}[cohort]
    return {u: set(items) for u, items in source.items()}


def evaluate_run(config: RunConfig, split: DatasetSplit, records: list[dict]):
    """Metric rows for the recommender and the popularity baseline."""
    k = config.inference.topk
    popularity = metrics.train_popularity(split.train_graph)
    pop = metrics.pop_baseline(split.train_graph, k)
    train_items_by_user = dict(pop.train_items)
    recs_by_cohort: dict[str, dict[str, list[str]]] = {}
    patterns_by_cohort: dict[str, list[str]] = {}
    for rec in records:
        cohort = rec["cohort"]
        recs_by_cohort.setdefault(cohort, {})[rec["user"]] = [
            it["item"] for it in rec["items"]]
        patterns_by_cohort.setdefault(cohort, []).extend(
            it["path"]["pattern"] for it in rec["items"])

    rows: list[dict] = []
    per_user: dict[str, dict] = {}
    test_recs: dict[str, dict] = {"grecs": {}, "pop": {}}  # warm_test and cold_test lists
    for cohort in ("warm_test", "cold_val", "cold_test"):
        relevant = _relevance(split, cohort)
        if not relevant:
            continue
        grecs = {u: recs_by_cohort.get(cohort, {}).get(u, []) for u in relevant}
        pop_recs = {u: pop.recommend(u) for u in relevant}
        exclude = {u: train_items_by_user.get(u, set()) for u in relevant}
        for model, recs in (("grecs", grecs), ("pop", pop_recs)):
            rows.append({"model": model, "cohort": cohort, "metric": f"ndcg@{k}",
                         "value": float(np.mean([metrics.ndcg_at_k(recs[u], relevant[u], k)
                                                 for u in relevant])),
                         "n_users": len(relevant)})
            rows.append({"model": model, "cohort": cohort, "metric": f"hr@{k}",
                         "value": float(np.mean([metrics.hit_at_k(recs[u], relevant[u], k)
                                                 for u in relevant])),
                         "n_users": len(relevant)})
            rows.append({"model": model, "cohort": cohort, "metric": f"popb@{k}",
                         "value": metrics.popb_at_k(recs, popularity, k, exclude),
                         "n_users": len(relevant)})
        per_user[cohort] = {
            u: {"hit": metrics.hit_at_k(grecs[u], relevant[u], k),
                "ndcg": metrics.ndcg_at_k(grecs[u], relevant[u], k)}
            for u in sorted(relevant)}
        if cohort != "cold_val":
            test_recs["grecs"].update(grecs)
            test_recs["pop"].update(pop_recs)

    cold_items = set(split.cold_items)
    if cold_items:
        test_users = set(split.warm_test) | set(split.cold_test)
        for model, recs in test_recs.items():
            rows.append({"model": model, "cohort": "test", "metric": f"coverage@{k}",
                         "value": metrics.cold_item_coverage(recs, cold_items, k),
                         "n_users": len(test_users)})
            rows.append({"model": model, "cohort": "test", "metric": f"proportion@{k}",
                         "value": metrics.cold_item_proportion(recs, cold_items, k),
                         "n_users": len(test_users)})

    patterns = {cohort: metrics.pattern_report(labels)
                for cohort, labels in sorted(patterns_by_cohort.items())}
    return rows, patterns, per_user


def stage_eval(config: RunConfig):
    paths = RunPaths(config.workdir)
    _check_run_meta("eval", config, paths)
    split = _load_split("eval", paths)
    _require("eval", paths.recs_file, "recommend")
    _, records = read_recommendations(paths.recs_file)
    rows, patterns, per_user = evaluate_run(config, split, records)
    os.makedirs(os.path.dirname(paths.report_csv), exist_ok=True)
    header = f"# config={config.config_hash()} seed={config.seed}\n"
    with open(paths.report_csv, "w") as fh:
        fh.write(header)
        fh.write("model,cohort,metric,value,n_users\n")
        for r in rows:
            fh.write(f"{r['model']},{r['cohort']},{r['metric']},{r['value']!r},{r['n_users']}\n")
    with open(paths.patterns_csv, "w") as fh:
        fh.write(header)
        fh.write("cohort,pattern,percent\n")
        for cohort, report in patterns.items():
            for label, pct in report:
                fh.write(f"{cohort},\"{label}\",{pct!r}\n")
    with open(paths.report_json, "w") as fh:
        json.dump({"config_hash": config.config_hash(), "seed": config.seed,
                   "k": config.inference.topk, "rows": rows,
                   "patterns": patterns, "per_user": per_user},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, patterns


def run_pipeline(config: RunConfig):
    """All stages in order; returns the metric rows of the final report."""
    config.validate()
    stage_synth(config)
    stage_split(config)
    stage_train_embed(config)
    stage_train_agent(config)
    stage_cold_integrate(config)
    stage_recommend(config)
    return stage_eval(config)


def run_seeds(config: RunConfig, seeds: list[int]):
    """One full run per seed under workdir/seed_<s>, then an aggregate report."""
    for seed in seeds:
        sub = config.with_seed(seed, workdir=os.path.join(config.workdir, f"seed_{seed}"))
        run_pipeline(sub)
    return write_aggregate(config, seeds)


def write_aggregate(config: RunConfig, seeds: list[int]):
    """Mean/std across per-seed reports of this config, written to the workdir root."""
    rows_by_key: dict[tuple, list[float]] = {}
    n_rows = {}
    for seed in seeds:
        report = os.path.join(config.workdir, f"seed_{seed}", "report", "metrics.json")
        _require("report", report, "run")
        with open(report) as fh:
            data = json.load(fh)
        if data.get("config_hash") != config.config_hash():
            raise StageError("report", f"{report} was written under config "
                             f"{data.get('config_hash')}, not {config.config_hash()}")
        for r in data["rows"]:
            key = (r["model"], r["cohort"], r["metric"])
            rows_by_key.setdefault(key, []).append(r["value"])
            n_rows[key] = r["n_users"]
    out_rows = []
    for key in sorted(rows_by_key):
        vals = np.asarray(rows_by_key[key])
        out_rows.append({"model": key[0], "cohort": key[1], "metric": key[2],
                         "mean": float(vals.mean()), "std": float(vals.std()),
                         "n_seeds": len(vals), "n_users": n_rows[key]})
    os.makedirs(config.workdir, exist_ok=True)
    agg_csv = os.path.join(config.workdir, "aggregate.csv")
    with open(agg_csv, "w") as fh:
        fh.write(f"# config={config.config_hash()} seeds={','.join(map(str, seeds))}\n")
        fh.write("model,cohort,metric,mean,std,n_seeds,n_users\n")
        for r in out_rows:
            fh.write(f"{r['model']},{r['cohort']},{r['metric']},{r['mean']!r},"
                     f"{r['std']!r},{r['n_seeds']},{r['n_users']}\n")
    with open(os.path.join(config.workdir, "aggregate.json"), "w") as fh:
        json.dump({"config_hash": config.config_hash(), "seeds": seeds,
                   "rows": out_rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_rows


SWEEP_AXES = ("interactions", "relations")


def sweep(config: RunConfig, axis: str, values: list[int]):
    """Vary cold integration only; training artifacts are reused as-is.

    ``interactions``: move the first n hidden interactions of each cold
    user into the graph (0 = strict cold start) and score the rest.
    ``relations``: re-cap each cold user profile at exactly n targets per
    relation (capped at availability).
    """
    if axis not in SWEEP_AXES:
        raise InvalidAxisValue(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values or any((not isinstance(v, int)) or v < 0 for v in values):
        raise InvalidAxisValue("sweep values must be non-negative integers")
    paths = RunPaths(config.workdir)
    _check_run_meta("sweep", config, paths)
    split = _load_split("sweep", paths)
    _require("sweep", paths.embed_file, "train-embed")
    _require("sweep", paths.policy_file, "train-agent")
    table = load_table(paths.embed_file, split.train_graph)
    agent = PolicyModel.load(paths.policy_file)
    k = config.inference.topk
    rows = []
    for value in values:
        working = split
        if axis == "relations":
            user_profiles = [
                cap_cold_relations(u, split.schema.user_type,
                                   split.cold_user_targets[u], rng=None,
                                   fixed_k=value)
                for u in sorted(split.cold_user_targets)
            ]
            working = dataclasses.replace(split, user_profiles=user_profiles)
            moved_n = 0
        else:
            moved_n = value
        aug, ext, _, moved = build_augmented(working, table, config.cold_strategy,
                                             interactions_per_cold_user=moved_n)
        cohorts = {"cold_val": sorted(split.cold_val), "cold_test": sorted(split.cold_test)}
        records = _recommend_users(aug, ext, agent, config, cohorts)
        recs = {r["user"]: [it["item"] for it in r["items"]] for r in records}
        for cohort, hidden_lists in (("cold_val", split.cold_val),
                                     ("cold_test", split.cold_test)):
            scored = {}
            for u, hidden in hidden_lists.items():
                rest = [i for i in hidden if i not in set(moved.get(u, []))]
                if rest:
                    scored[u] = set(rest)
            if not scored:
                continue
            hr = float(np.mean([metrics.hit_at_k(recs.get(u, []), scored[u], k)
                                for u in scored]))
            ndcg = float(np.mean([metrics.ndcg_at_k(recs.get(u, []), scored[u], k)
                                  for u in scored]))
            rows.append({"axis": axis, "value": value, "cohort": cohort,
                         "metric": f"hr@{k}", "result": hr, "n_users": len(scored)})
            rows.append({"axis": axis, "value": value, "cohort": cohort,
                         "metric": f"ndcg@{k}", "result": ndcg, "n_users": len(scored)})
    os.makedirs(os.path.dirname(paths.sweep_csv), exist_ok=True)
    with open(paths.sweep_csv, "w") as fh:
        fh.write(f"# config={config.config_hash()} seed={config.seed} axis={axis}\n")
        fh.write("axis,value,cohort,metric,result,n_users\n")
        for r in rows:
            fh.write(f"{r['axis']},{r['value']},{r['cohort']},{r['metric']},"
                     f"{r['result']!r},{r['n_users']}\n")
    return rows
