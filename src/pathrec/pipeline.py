"""End-to-end runs: staged artifacts, evaluation, seed aggregation, sweeps.

Every stage reads its inputs from the run directory and writes its outputs
there, so stages can be re-run individually. Each stage runs in one
``_Stage`` frame that checks every artifact it reads and reports any
failure as a StageError naming the stage; writes are atomic. A second run
with the same config and seed is byte-identical. The training stages run
once; cold integration, sweeps and evaluation only ever extend the
trained graph and table into new ones, never retrain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import zipfile
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter

import numpy as np

from . import coldstart, datasets, inference, metrics
from .artifacts import (atomic_open, canonical_json, decode_text, parse_json, read_bytes,
                        write_csv, write_json)
from .coldstart import ColdProfile, ColdStrategy
from .datasets import COHORTS, DatasetSplit, SplitConfig, SyntheticSpec, cap_cold_relations
from .embeddings import EmbedTrainConfig, EmbeddingTable, load_table, save_table, train_embeddings
from .errors import (InvalidAxisValue, InvalidSpec, ParseError, PathRecError, StageError,
                     check_field_types, check_keys, config_from_json, is_finite,
                     is_int)
from .graph import KnowledgeGraph
from .mdp import RewardSpec
from .policy import AgentConfig, PolicyModel, train_agent, write_history

log = logging.getLogger(__name__)

STAGES = ("synth", "split", "train-embed", "train-agent", "cold-integrate",
          "recommend", "eval")


@dataclass(frozen=True)
class InferenceConfig:
    widths: tuple[int, ...] = (25, 5, 1)
    topk: int = 10

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if not self.widths or any(w < 1 for w in self.widths):
            raise InvalidSpec("beam widths must be a non-empty list of ints >= 1")
        if self.topk < 1:
            raise InvalidSpec("topk must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """``seed`` is the run's only seed, passed to each stage that draws;
    ``synthetic.seed`` is the catalog's own and enters the config hash."""

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

    def __post_init__(self):
        if not is_int(self.seed) or not isinstance(self.workdir, str):
            raise InvalidSpec(f"seed must be an integer and workdir a string, got "
                              f"{self.seed!r} and {self.workdir!r}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if (self.triplets is None) != (self.schema is None):
            raise InvalidSpec("a file dataset needs both triplets and schema paths")
        if (self.triplets is None) == (self.synthetic is None):
            raise InvalidSpec("config must name one dataset: synthetic or files")
        if self.agent.hop_budget != len(self.inference.widths):
            raise InvalidSpec("len(inference.widths) must equal agent.hop_budget")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "workdir": self.workdir,
            "dataset": ({"synthetic": dataclasses.asdict(self.synthetic)} if self.triplets is None
                        else {"triplets": self.triplets, "schema": self.schema}),
            "split": dataclasses.asdict(self.split),
            "embed": dataclasses.asdict(self.embed),
            "agent": dataclasses.asdict(self.agent),
            "cold": {"strategy": self.cold_strategy.value},
            "inference": dataclasses.asdict(self.inference),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        """Parse a run config; unknown keys, values of the wrong type and
        unknown cold strategies raise InvalidSpec."""
        if isinstance(data, dict) and "cold_strategy" in data:
            raise InvalidSpec("unknown key(s) in config: cold_strategy; the cold strategy "
                              "is the key cold.strategy, e.g. --set 'cold.strategy=\"null\"'")
        check_keys(data, ("seed", "workdir", "dataset", "split", "embed", "agent", "cold",
                          "inference"), "config")
        seed = data.get("seed", 0)
        workdir = data.get("workdir", "run")
        dataset = data.get("dataset", {"synthetic": {}})
        synthetic = triplets = schema = None
        if isinstance(dataset, dict) and "synthetic" in dataset:
            check_keys(dataset, ("synthetic",), "dataset")
            synthetic = config_from_json(SyntheticSpec, dataset["synthetic"], "dataset.synthetic")
        else:
            check_keys(dataset, ("triplets", "schema"), "dataset")
            triplets, schema = dataset.get("triplets"), dataset.get("schema")
            if not all(p is None or isinstance(p, str) for p in (triplets, schema)):
                raise InvalidSpec("dataset.triplets and dataset.schema must be paths")
        cold = data.get("cold", {})
        check_keys(cold, ("strategy",), "cold")
        strategy = cold.get("strategy", ColdStrategy.AVERAGE_TRANSLATION.value)
        names = [s.value for s in ColdStrategy]
        if not isinstance(strategy, str):
            got = "null" if strategy is None else f"{_json_type(strategy)} {json.dumps(strategy)}"
            raise InvalidSpec(f"cold.strategy must be a JSON string, got JSON {got}; a string "
                              f"needs JSON quotes, e.g. --set 'cold.strategy=\"null\"'")
        if strategy not in names:
            raise InvalidSpec(f"unknown cold.strategy {strategy!r}; expected one of {names}")
        sections = {name: config_from_json(section, data.get(name, {}), name)
                    for name, section in (("split", SplitConfig), ("embed", EmbedTrainConfig),
                                          ("agent", AgentConfig), ("inference", InferenceConfig))}
        return cls(seed=seed, workdir=workdir, synthetic=synthetic, triplets=triplets,
                   schema=schema, cold_strategy=ColdStrategy(strategy), **sections)

    def config_hash(self) -> str:
        ident = {k: v for k, v in self.to_json().items() if k not in ("workdir", "seed")}
        return hashlib.sha256(canonical_json(ident).encode()).hexdigest()[:16]


class RunPaths:
    def __init__(self, root: str):
        self.root = root
        self.run_meta = os.path.join(root, "run.json")
        self.data_dir = os.path.join(root, "data")
        self.split_dir = os.path.join(root, "split")
        self.manifest = os.path.join(root, "split", "manifest.json")
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


def _json_type(value) -> str:
    """The JSON type name of a parsed JSON value other than null."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "array" if isinstance(value, list) else "object"


_DAMAGED = (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile)


class _Stage:
    """One stage's frame: inside ``with _Stage(name, config) as run:`` every
    PathRecError but a caller's bad sweep value (InvalidAxisValue) ends as
    ``StageError(name)``, and ``run.read`` loads each
    artifact: a missing file names its producer stage, one that does not
    decode is damaged, and an embedded (config hash, seed) must be the
    run's. ``run.json`` is checked likewise once the first input is found,
    so a stage run too early names the input it lacks."""

    def __init__(self, name: str, config: RunConfig):
        self.name, self.config = name, config
        self.paths = RunPaths(config.workdir)
        self.ident = {"config_hash": config.config_hash(), "seed": config.seed}
        self._meta_checked = False
        self._raw: dict[str, bytes] = {}

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, PathRecError) and not isinstance(exc, (StageError, InvalidAxisValue)):
            raise StageError(self.name, str(exc)) from exc
        return False

    def raw(self, path: str) -> bytes:
        """An artifact's bytes, read at their first use in the stage."""
        if path not in self._raw:
            self._raw[path] = read_bytes(path)
        return self._raw[path]

    def json(self, path: str):
        """A json artifact's content, parsed once per content in the
        process (``parse_json``)."""
        return parse_json(path, self.raw(path))

    def stamp(self, path: str) -> tuple:
        """The (config hash, seed) an artifact embeds: npz members, the meta
        line of a jsonl file, or a json file's keys."""
        if path.endswith(".npz"):
            with np.load(path, allow_pickle=False) as data:
                return str(data["config_hash"]), int(data["seed"])
        if path.endswith(".jsonl"):
            first = self.raw(path).split(b"\n", 1)[0]
            data = json.loads(decode_text(path, first))["meta"]
        else:
            data = self.json(path)
        return data["config_hash"], data["seed"]

    def read(self, path: str, producer: str, load, stamped: bool = True):
        """``load(path)``, once a ``stamped`` artifact's (config hash, seed)
        is found equal to the run's."""
        if not os.path.exists(path):
            raise StageError(self.name, f"missing {path}; run the {producer!r} stage first")
        if not self._meta_checked:
            self._meta_checked = True
            self.read(self.paths.run_meta, "synth", self.stamp)
        want = (self.ident["config_hash"], self.ident["seed"])
        try:
            found = self.stamp(path) if stamped else want
            if found != want:
                raise StageError(self.name, f"{path} is from a different config/seed "
                                 f"({found[0]} seed {found[1]}, not {want[0]} seed {want[1]})")
            return load(path)
        except _DAMAGED as exc:
            raise StageError(self.name, f"damaged artifact {path}: {exc!r}") from exc

    def split(self) -> DatasetSplit:
        split, fingerprint = self.read(self.paths.manifest, "split", lambda p: (
            DatasetSplit.read(os.path.dirname(p), self.raw(p)),
            self.json(p)["train_fingerprint"]))
        # the split writes one profile per cold user and cold item
        if (sorted(p.name for p in split.profiles)
                != sorted([*split.cold_val, *split.cold_test, *split.cold_items])):
            raise StageError(self.name,
                             f"{self.paths.split_dir}: profiles.jsonl and manifest differ")
        if split.train_graph.fingerprint() != fingerprint:
            raise StageError(self.name, f"{self.paths.split_dir}: train.tsv and manifest differ")
        return split

    def warm_table(self, split: DatasetSplit) -> EmbeddingTable:
        return self.read(self.paths.embed_file, "train-embed",
                         lambda p: load_table(p, split.train_graph))

    def policy(self) -> PolicyModel:
        return self.read(self.paths.policy_file, "train-agent", PolicyModel.load)


# -- stages ---------------------------------------------------------------------


def stage_synth(config: RunConfig) -> RunPaths:
    with _Stage("synth", config) as run:
        if os.path.exists(run.paths.run_meta):
            run.read(run.paths.run_meta, "synth", run.stamp)
        write_json(run.paths.run_meta, {"config": config.to_json(), **run.ident})
        if config.synthetic is not None:
            datasets.generate_synthetic(config.synthetic, run.paths.data_dir)
        else:
            for p in (config.triplets, config.schema):
                if not os.path.exists(p):
                    raise StageError("synth", f"dataset file {p} does not exist")
            write_json(os.path.join(run.paths.data_dir, "source.json"),
                       {"triplets": config.triplets, "schema": config.schema, **run.ident})
    return run.paths


def stage_split(config: RunConfig) -> DatasetSplit:
    with _Stage("split", config) as run:
        triplets, schema = (config.triplets, config.schema) if config.synthetic is None else (
            os.path.join(run.paths.data_dir, name) for name in ("triplets.tsv", "schema.json"))
        graph = run.read(triplets, "synth", lambda p: datasets.load_dataset(p, schema),
                         stamped=False)
        split = datasets.split_dataset(graph, config.split, config.seed)
        split.write(run.paths.split_dir, **run.ident)
    return split


def stage_train_embed(config: RunConfig) -> EmbeddingTable:
    with _Stage("train-embed", config) as run:
        split = run.split()
        table = train_embeddings(split.train_graph, config.embed, config.seed)
        save_table(table, split.train_graph, run.paths.embed_file, **run.ident)
    return table


def stage_train_agent(config: RunConfig) -> PolicyModel:
    with _Stage("train-agent", config) as run:
        split = run.split()
        table = run.warm_table(split)
        reward = (RewardSpec.pattern(split.train_graph, table) if config.agent.reward == "pgpr"
                  else RewardSpec.binary(split.train_graph))
        agent, history = train_agent(split.train_graph, table, reward, config.agent, config.seed)
        agent.save(run.paths.policy_file, **run.ident)
        write_history(history, run.paths.curve_file, **run.ident)
    return agent


def _ordered_profiles(split: DatasetSplit) -> list[ColdProfile]:
    # items first: ids, and with them every stored cold artifact, follow this order
    return split.item_profiles + split.user_profiles


def build_augmented(split: DatasetSplit, table: EmbeddingTable,
                    strategy: ColdStrategy,
                    interactions_per_cold_user: int = 0):
    """The training graph extended by the cold entities, and the table by
    their rows; with ``interactions_per_cold_user`` n > 0, the first n
    hidden interactions of each cold user enter the graph too. Neither
    input is changed. Returns (graph, table, ids, moved-items-by-user)."""
    take: dict[str, list[str]] = {}
    if interactions_per_cold_user > 0:
        hidden = {**split.cold_val, **split.cold_test}
        take = {u: hidden[u][:interactions_per_cold_user] for u in sorted(hidden)}
    aug, ext, ids = coldstart.integrate_cold_entities(
        split.train_graph, table, _ordered_profiles(split), strategy, interactions=take)
    moved = {u: items for u, items in take.items() if u in ids}
    return aug, ext, ids, moved


def stage_cold_integrate(config: RunConfig):
    with _Stage("cold-integrate", config) as run:
        split = run.split()
        table = run.warm_table(split)
        aug, ext, ids, _ = build_augmented(split, table, config.cold_strategy)
        save_table(ext, aug, run.paths.cold_table_file, **run.ident)
        skipped = sorted(p.name for p in _ordered_profiles(split) if p.name not in ids)
        write_json(run.paths.cold_meta_file,
                   {"integrated": list(ids), "skipped": skipped,
                    "strategy": config.cold_strategy.value, **run.ident})
    return aug, ext, ids


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
                    "logprob": e.logprob, "path": inference.path_record(e.path.state, aug),
                } for e in recs.entries],
            })
    return records


def stage_recommend(config: RunConfig):
    with _Stage("recommend", config) as run:
        split = run.split()
        agent = run.policy()
        aug, _ = coldstart.augment_graph(split.train_graph, _ordered_profiles(split))
        stored = run.read(run.paths.cold_table_file, "cold-integrate",
                          lambda p: load_table(p, aug))
        if stored.entity_count != aug.entity_count:
            raise StageError("recommend", "cold table does not match the augmented graph")
        records = _recommend_users(aug, stored, agent, config,
                                   {c: sorted(getattr(split, c)) for c in COHORTS})
        with atomic_open(run.paths.recs_file) as fh:
            meta = {**run.ident, "topk": config.inference.topk}
            for rec in [{"meta": meta}, *records]:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def read_recommendations(path: str, data: bytes | None = None):
    """(meta, records) of a recommendations file, or of its bytes ``data``;
    a byte that does not decode raises ParseError (``decode_text``)."""
    text = decode_text(path, read_bytes(path) if data is None else data)
    lines = [json.loads(line) for line in io.StringIO(text)]
    return (next((d["meta"] for d in lines if "meta" in d), None),
            [d for d in lines if "meta" not in d])


def _is_served_list(items) -> bool:
    """Whether a record's ``items`` is a list of {"item", "path": {"pattern"}}
    entries, the fields ``evaluate_run`` reads, each a string."""
    return isinstance(items, list) and all(
        isinstance(it, dict) and isinstance(it.get("item"), str)
        and isinstance(it.get("path"), dict) and isinstance(it["path"].get("pattern"), str)
        for it in items)


_ITEM, _PATH, _PATTERN = itemgetter("item"), itemgetter("path"), itemgetter("pattern")


class _Columns(dict):
    """Item name -> integer column; a name not seen yet takes the next one."""

    def __missing__(self, name) -> int:
        self[name] = column = len(self)
        return column

    def of(self, names: Iterable) -> list[int]:
        return list(map(self.__getitem__, names))


def evaluate_run(config: RunConfig, split: DatasetSplit, records: list[dict]):
    """Metric rows for the recommender and the popularity baseline.

    Each name scored maps to one column: training items first, then cold
    items, then any other name, with popularity 0. Each cohort's lists
    are then scored per model as one (users x k) column matrix by the
    array kernels of ``metrics``. Costs O(items + scored users): the
    training items are read only for the users scored.
    """
    k = config.inference.topk
    g = split.train_graph
    items = np.asarray(g.items(), dtype=np.intp)
    names = g.entity_names(items.tolist())
    columns = _Columns(zip(names, range(len(names))))
    counts = g.interaction_counts()[items]
    order = metrics.popularity_order(names, counts)
    cold_columns = columns.of(split.cold_items)
    recs_by_cohort: dict[str, dict[str, list]] = {}
    patterns_by_cohort: dict[str, list[str]] = {}
    for rec in records:
        cohort, entries = rec["cohort"], rec["items"]
        recs_by_cohort.setdefault(cohort, {})[rec["user"]] = list(map(_ITEM, entries))
        patterns_by_cohort.setdefault(cohort, []).extend(map(_PATTERN, map(_PATH, entries)))

    scored = []  # (cohort, users, grecs lists, relevant lists, training (row, column) pairs)
    known = g.entity_index()
    user_type = g.schema.user_type
    for cohort in COHORTS:
        relevant = getattr(split, cohort)
        if not relevant:
            continue
        served = recs_by_cohort.get(cohort, {})
        users = list(relevant)
        ids = np.asarray([known.get((user_type, u), -1) for u in users], dtype=np.intp)
        in_graph = np.flatnonzero(ids >= 0)
        pair_rows, train_ids = g.users_items(ids[in_graph])
        scored.append((cohort, users, [columns.of(served.get(u, ())[:k]) for u in users],
                       [columns.of(relevant[u]) for u in users],
                       (in_graph[pair_rows], np.searchsorted(items, train_ids))))
    width = len(columns)
    popularity = np.zeros(width, dtype=np.int64)
    popularity[:len(items)] = counts
    is_cold = np.zeros(width, dtype=bool)
    is_cold[cold_columns] = True

    rows: list[dict] = []
    per_user: dict[str, dict] = {}
    test_blocks: dict[str, list[np.ndarray]] = {"grecs": [], "pop": []}
    for cohort, users, grecs, relevant, train in scored:
        n = len(users)
        rel = metrics.ColumnSets(*_pairs(relevant), n, width)
        exclude = metrics.ColumnSets(*train, n, width)
        pop = metrics.first_outside(order, k, exclude)
        best = metrics.mass_rows(pop, popularity)
        for model, recs in (("grecs", metrics.column_matrix(grecs, k)), ("pop", pop)):
            hits = rel.contains(recs)
            ndcg, hit = metrics.ndcg_rows(hits, rel.sizes), metrics.hit_rows(hits)
            for metric, value in (("ndcg", np.mean(ndcg)), ("hr", np.mean(hit)),
                                  ("popb", metrics.popb_mean(metrics.mass_rows(recs, popularity),
                                                             best))):
                rows.append({"model": model, "cohort": cohort, "metric": f"{metric}@{k}",
                             "value": float(value), "n_users": n})
            if model == "grecs":
                per_user[cohort] = {u: {"hit": h, "ndcg": v} for u, h, v in
                                    sorted(zip(users, hit.tolist(), ndcg.tolist()))}
            if cohort != "cold_val":
                test_blocks[model].append(recs)

    cold_items = set(split.cold_items)
    if cold_items:
        # a split's scored cohorts share no user, so the test blocks stack
        for model, blocks in test_blocks.items():
            recs = np.concatenate(blocks) if blocks else np.full((0, k), -1, dtype=np.intp)
            rows += [{"model": model, "cohort": "test", "metric": f"coverage@{k}",
                      "value": metrics.cold_coverage(recs, is_cold, len(cold_items)),
                      "n_users": len(recs)},
                     {"model": model, "cohort": "test", "metric": f"proportion@{k}",
                      "value": metrics.cold_proportion(recs, is_cold), "n_users": len(recs)}]

    patterns = {cohort: metrics.pattern_report(labels)
                for cohort, labels in sorted(patterns_by_cohort.items())}
    return rows, patterns, per_user


def _pairs(lists: list) -> tuple[np.ndarray, np.ndarray]:
    """The (row, value) pairs of ``lists``, row by row."""
    sizes = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    values = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(sizes.sum()))
    return np.repeat(np.arange(len(lists)), sizes), values


def stage_eval(config: RunConfig):
    with _Stage("eval", config) as run:
        split = run.split()
        # recommend writes one record per warm_test, cold_val and cold_test user
        users = sorted((c, u) for c in COHORTS for u in getattr(split, c))

        def load(path):
            records = read_recommendations(path, run.raw(path))[1]
            if sorted((r["cohort"], r["user"]) for r in records) != users:
                raise StageError("eval", f"{path}: users differ from the split's")
            for r in records:
                whose = f"{path}: the record of {r['cohort']} user {r['user']!r}"
                if not _is_served_list(r.get("items")):
                    raise StageError("eval", f"{whose} holds no list of named items with "
                                             f"path patterns")
                names = [it["item"] for it in r["items"]]
                if len(set(names)) < len(names):
                    raise StageError("eval", f"{whose} lists an item twice")
            return records

        records = run.read(run.paths.recs_file, "recommend", load)
        rows, patterns, per_user = evaluate_run(config, split, records)
        ident = "config={config_hash} seed={seed}".format(**run.ident)
        write_csv(run.paths.report_csv, ident, ("model", "cohort", "metric", "value", "n_users"),
                  rows)
        write_csv(run.paths.patterns_csv, ident, ("cohort", "pattern", "percent"),
                  ((cohort, f'"{label}"', pct) for cohort, report in patterns.items()
                   for label, pct in report))
        write_json(run.paths.report_json,
                   {**run.ident, "k": config.inference.topk, "rows": rows,
                    "patterns": patterns, "per_user": per_user})
    return rows, patterns


def run_pipeline(config: RunConfig):
    """All stages in order; returns the metric rows of the final report."""
    stage_synth(config)
    stage_split(config)
    stage_train_embed(config)
    stage_train_agent(config)
    stage_cold_integrate(config)
    stage_recommend(config)
    return stage_eval(config)


def _seed_runs(config: RunConfig, seeds: list[int]) -> list[RunConfig]:
    """The run of each seed, under workdir/seed_<s>; an empty list, a
    repeated seed or a negative one raises InvalidSpec."""
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise InvalidSpec(f"seeds must be distinct non-negative integers, got {seeds}")
    return [replace(config, seed=s, workdir=os.path.join(config.workdir, f"seed_{s}"))
            for s in seeds]


def run_seeds(config: RunConfig, seeds: list[int]):
    """One full run per seed under workdir/seed_<s>, then an aggregate report."""
    for sub in _seed_runs(config, seeds):
        run_pipeline(sub)
    return write_aggregate(config, seeds)


def _report_rows(path: str, report: dict) -> list[dict]:
    """A seed report's rows, each checked to be an object of string
    ``model``, ``cohort`` and ``metric``, a finite numeric ``value`` and an
    int ``n_users``, and no two of one (model, cohort, metric)."""
    rows = report["rows"]
    if not isinstance(rows, list):
        raise ParseError(f"{path}: rows is not a list")
    keys = set()
    for r in rows:
        if not (isinstance(r, dict) and all(isinstance(r.get(k), str)
                                            for k in ("model", "cohort", "metric"))
                and is_finite(r.get("value"))
                and is_int(r.get("n_users"))):
            raise ParseError(f"{path}: malformed report row {r!r}")
        key = (r["model"], r["cohort"], r["metric"])
        if key in keys:
            raise ParseError(f"{path}: malformed report row {r!r}: its model, cohort and "
                             f"metric are repeated")
        keys.add(key)
    return rows


def write_aggregate(config: RunConfig, seeds: list[int]):
    """Mean/std across per-seed reports of this config, written to the workdir root."""
    rows_by_key: dict[tuple, list[float]] = {}
    n_rows = {}
    for sub in _seed_runs(config, seeds):
        with _Stage("report", sub) as run:
            rows = run.read(run.paths.report_json, "eval", lambda p: _report_rows(p, run.json(p)))
        for r in rows:
            key = (r["model"], r["cohort"], r["metric"])
            rows_by_key.setdefault(key, []).append(r["value"])
            n_rows[key] = r["n_users"]
    out_rows = []
    for key in sorted(rows_by_key):
        vals = np.asarray(rows_by_key[key])
        out_rows.append({"model": key[0], "cohort": key[1], "metric": key[2],
                         "mean": float(vals.mean()), "std": float(vals.std()),
                         "n_seeds": len(vals), "n_users": n_rows[key]})
    write_csv(os.path.join(config.workdir, "aggregate.csv"),
              f"config={config.config_hash()} seeds={','.join(map(str, seeds))}",
              ("model", "cohort", "metric", "mean", "std", "n_seeds", "n_users"), out_rows)
    write_json(os.path.join(config.workdir, "aggregate.json"),
               {"config_hash": config.config_hash(), "seeds": seeds, "rows": out_rows})
    return out_rows


SWEEP_AXES = ("interactions", "relations")


def sweep(config: RunConfig, axis: str, values: list[int]):
    """Vary cold integration only; training artifacts are reused as-is.

    ``interactions``: move the first n hidden interactions of each cold
    user into the graph (0 = strict cold start) and score the rest.
    ``relations``: re-cap each cold user profile at exactly n targets per
    relation (capped at availability).

    A repeated value, or one that leaves no cold user to score, raises
    InvalidAxisValue, and nothing is written.
    """
    if axis not in SWEEP_AXES:
        raise InvalidAxisValue(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values or any(not is_int(v) or v < 0 for v in values):
        raise InvalidAxisValue("sweep values must be non-negative integers")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise InvalidAxisValue(f"sweep {axis} value {repeated} is repeated")
    k = config.inference.topk
    cold = ("cold_val", "cold_test")
    rows = []
    with _Stage("sweep", config) as run:
        split = run.split()
        table = run.warm_table(split)
        agent = run.policy()
        for value in values:
            working = split
            if axis == "relations":
                working = dataclasses.replace(split, user_profiles=[
                    cap_cold_relations(u, split.schema.user_type, split.cold_user_targets[u],
                                       rng=None, fixed_k=value)
                    for u in sorted(split.cold_user_targets)])
            aug, ext, _, moved = build_augmented(
                working, table, config.cold_strategy,
                interactions_per_cold_user=value if axis == "interactions" else 0)
            # each cold user is scored on the hidden items that were not moved
            scored = {}
            for c in cold:
                rest = {u: [i for i in hidden if i not in moved.get(u, ())]
                        for u, hidden in getattr(split, c).items()}
                scored[c] = {u: items for u, items in rest.items() if items}
            if not any(scored.values()):
                raise InvalidAxisValue(f"sweep {axis} value {value} leaves no cold user "
                                       "with a hidden item to score")
            records = _recommend_users(aug, ext, agent, config,
                                       {c: sorted(getattr(split, c)) for c in cold})
            report = evaluate_run(config, dataclasses.replace(split, warm_test={}, **scored),
                                  records)[0]
            found = {(r["cohort"], r["metric"]): r for r in report if r["model"] == "grecs"}
            rows += [{"axis": axis, "value": value, "cohort": c, "metric": m,
                      "result": found[c, m]["value"], "n_users": found[c, m]["n_users"]}
                     for c in cold for m in (f"hr@{k}", f"ndcg@{k}") if (c, m) in found]
        write_csv(run.paths.sweep_csv, f"config={config.config_hash()} seed={config.seed} "
                  f"axis={axis}", ("axis", "value", "cohort", "metric", "result", "n_users"), rows)
    return rows
