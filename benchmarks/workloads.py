"""Run one benchmark workload in this process and write its result as JSON.

Started by ``run.py`` in a child process whose environment pins the BLAS
and OpenMP thread counts to 1; not meant to be run by hand. Every workload
is a closed loop driven by one client: the next user is served only after
the previous list is ranked. pathrec is an offline batch recommender with
no server, so there is no arrival schedule.

Workloads (see README.md for why each exists):

* ``run-default``: the pipeline's stages at the built-in default catalog,
  with training cut to a few epochs so that the stages can be repeated.
* ``serve-5x``: a 5x catalog built in set-up; the timed phase serves a
  seeded user sample (beam + rank), evaluates it and integrates the cold
  profiles again.
* ``cold-churn-5x``: the same catalog trained at ``max_actions`` 25; for
  each profile richness k it re-caps the cold-user profiles, integrates
  every cold profile (the write), serves a sample of cold users (the read)
  and evaluates their lists.

Each workload builds its inputs ``SETUPS`` times (``setup_s`` is the
median) and then repeats one deterministic pass of operations until
``--seconds`` have gone by (at least MIN_PASSES times). Every pass must
serve exactly the lists of the first one. An operation's time is its
median over the passes, each call's wall time corrected for the host's
speed around it (see ``probe_slowdown``): the shared host this was tuned on
changes speed by up to 1.8x in spells that can outlast a whole run.

The lists served, the quality numbers and the digest depend only on the
seed; the number of passes depends on the clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from pathrec import coldstart, datasets, embeddings, inference, pipeline, policy
from pathrec.pipeline import RunConfig, RunPaths

import checks

CHURN_KS = (1, 2, 5, 10)  # the relations axis of ``pathrec sweep``
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # passes per run at least; a traced run makes exactly these
# The config seed of every catalog. --seed picks the users served: at 5x,
# catalogs of different seeds alone differ by up to 40% in per-user cost.
CATALOG_SEED = 1

SIZES = {
    # "default"/"5x": (synthetic spec, embed epochs, agent epochs); None keeps
    # the built-in default. "users" is the served sample of run-default and
    # serve-5x; "reads" the cold users served per k on cold-churn-5x.
    "full": {"default": ({}, 3, 2),
             "5x": ({"users": 2500, "items": 1500}, 1, 0),
             "users": 200, "reads": 50},
    "toy": {"default": ({"users": 60, "items": 40}, 1, 1),
            "5x": ({"users": 120, "items": 70}, 1, 1),
            "users": 12, "reads": 3},
}


def make_config(size: str, kind: str, workdir: str,
                max_actions: int | None = None) -> RunConfig:
    synthetic, embed_epochs, agent_epochs = SIZES[size][kind]
    raw: dict = {"seed": CATALOG_SEED, "workdir": workdir,
                 "dataset": {"synthetic": dict(synthetic)}, "embed": {}, "agent": {}}
    if embed_epochs is not None:
        raw["embed"]["epochs"] = embed_epochs
    if agent_epochs is not None:
        raw["agent"]["epochs"] = agent_epochs
    if max_actions is not None:
        raw["agent"]["max_actions"] = max_actions
    return RunConfig.from_json(raw)


@dataclasses.dataclass
class Context:
    seed: int
    seconds: int
    size: str
    workroot: str
    tracer: object = None  # tracing.Tracer while a traced phase runs
    runs: int = 0

    def passes(self):
        """Pass numbers: MIN_PASSES, then more until ``--seconds`` have gone
        by. A traced run makes exactly MIN_PASSES, so its counts repeat."""
        t_end = perf_counter() + self.seconds
        p = 0
        while p < MIN_PASSES or (self.tracer is None and perf_counter() < t_end):
            yield p
            p += 1

    def workdir(self, name: str) -> str:
        self.runs += 1
        path = os.path.join(self.workroot, f"{name}-{self.runs}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def tag(self, value: int):
        if self.tracer is not None:
            self.tracer.tag = value

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()


# -- host speed -------------------------------------------------------------------

_rng = np.random.default_rng(0)
_PROBE_X, _PROBE_W = _rng.random((25, 130)), _rng.random((130, 64))
_PROBE_E, _PROBE_Q = _rng.random((2000, 30)), _rng.random(30)
_PROBE_TABLE = _rng.random((4000, 30))
# The probes' times on the 2-vCPU Xeon host the benchmark was tuned on, in
# that host's fast spells. Corrected times are in seconds at that speed.
NUMPY_PROBE_REF_S = 2.8e-4
COPY_PROBE_REF_S = 1.3e-4


def _numpy_probe():
    """A small policy forward, a softmax and a top-k over embedding scores."""
    for _ in range(6):
        h = np.tanh(_PROBE_X @ _PROBE_W)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        np.argpartition(_PROBE_E @ _PROBE_Q, -10)[-10:]


def _copy_probe():
    """Appending a row to an embedding table by re-stacking it."""
    for _ in range(3):
        np.vstack([_PROBE_TABLE, _PROBE_TABLE[:1]])


def _fastest_of_three(fn) -> float:
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def probe_slowdown() -> float:
    """How many times slower than in the host's fast spells two fixed probes
    run now, averaged: one shaped like pathrec's numpy hot path, one like
    its table copies. The numpy probe alone tracks serving but
    over-corrects integration, which is mostly dict work and copies."""
    return (_fastest_of_three(_numpy_probe) / NUMPY_PROBE_REF_S
            + _fastest_of_three(_copy_probe) / COPY_PROBE_REF_S) / 2


def corrected_call(fn, *args, **kwargs):
    """(result, wall seconds, seconds corrected to the reference host speed):
    the wall time divided by the host slowdown measured just before and
    just after the call."""
    before = probe_slowdown()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    dt = perf_counter() - t0
    return result, dt, dt / ((before + probe_slowdown()) / 2)


@dataclasses.dataclass
class Outcome:
    """What one run of a workload measured and checked."""
    setup_s: list[float] = dataclasses.field(default_factory=list)
    # operation key -> corrected times, one per pass; the key's first
    # element is its kind: "rec", "eval", "cold" or "train"
    samples: dict[tuple, list[float]] = dataclasses.field(default_factory=dict)
    wall_s: list[float] = dataclasses.field(default_factory=list)
    corrected_s: list[float] = dataclasses.field(default_factory=list)
    records: list[dict] = dataclasses.field(default_factory=list)
    digests: list[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    quality: dict = dataclasses.field(default_factory=dict)

    def fail(self, n: int, messages: list[str]):
        if n:
            self.failed += n
            self.errors.extend(messages)

    def timed(self, key: tuple, fn, *args, **kwargs):
        """Call ``fn`` and record its corrected time under ``key``.
        Operations other than serving one user start from a collected heap:
        otherwise a full collection that earlier work left due lands inside
        the same operation in every pass of one run and in none of another."""
        if key[0] != "rec":
            gc.collect()
        result, dt, corrected = corrected_call(fn, *args, **kwargs)
        self.samples.setdefault(key, []).append(corrected)
        self.wall_s.append(dt)
        self.corrected_s.append(corrected)
        return result

    def of_kind(self, kind: str) -> dict[tuple, float]:
        """Each operation's median over the passes."""
        return {key: statistics.median(v) for key, v in self.samples.items()
                if key[0] == kind}

    @property
    def run_s(self) -> float:
        """One pass, every operation at its median."""
        return sum(statistics.median(v) for v in self.samples.values())

    @property
    def host_slowdown(self) -> float:
        """Wall time over corrected time, summed over every timed call."""
        return sum(self.wall_s) / sum(self.corrected_s)

    @property
    def measured_s(self) -> float:
        """Set-up plus a pass: the span compared for trace overhead."""
        return statistics.median(self.setup_s) + self.run_s

    def end_pass(self, records: list[dict]):
        """Every pass must serve exactly the lists of the first."""
        self.digests.append(checks.digest(records))
        if len(self.digests) > 1:
            self.attempted += 1
            if self.digests[-1] != self.digests[0]:
                self.fail(1, [f"pass {len(self.digests)} served other lists than pass 1"])


def set_up(out: Outcome, build, times: int = SETUPS):
    """Run ``build`` ``times`` times and record the corrected time of each;
    returns the last result. ``build`` makes each of its calls through the
    ``step`` it is given, so that each call is corrected for the host speed
    around it (a 5x set-up takes several seconds)."""
    for _ in range(times):
        gc.collect()
        total = 0.0

        def step(fn, *args, **kwargs):
            nonlocal total
            result, _, corrected = corrected_call(fn, *args, **kwargs)
            total += corrected
            return result

        built = build(step)
        out.setup_s.append(total)
    return built


def _request_failed(out: Outcome, who: str, exc: Exception):
    out.attempted += 1
    out.fail(1, [f"{who}: {type(exc).__name__}: {exc}"])


def _check(out: Outcome, records: list[dict], g, k: int, patterns: dict):
    failed, messages = checks.check_lists(records, g, k)
    out.attempted += len(records)
    out.fail(failed, messages)
    problems = checks.pattern_problems(patterns)
    out.attempted += 1
    out.fail(1 if problems else 0, problems)


def _check_integrated(out: Outcome, offered: int, ids: dict, what: str):
    out.attempted += offered
    out.fail(offered - len(ids), [f"{what}: {offered - len(ids)} cold profiles skipped"])


def _sample(rng: np.random.Generator, pool: list, n: int) -> list:
    return [pool[i] for i in rng.choice(len(pool), size=min(n, len(pool)), replace=False)]


def _user_sample(ctx: Context, split: datasets.DatasetSplit, salt: int) -> list[tuple]:
    pool = [(u, cohort) for cohort in ("warm_test", "cold_val", "cold_test")
            for u in sorted(getattr(split, cohort))]
    return _sample(np.random.default_rng([ctx.seed, salt]), pool, SIZES[ctx.size]["users"])


def _scored(split: datasets.DatasetSplit, users) -> datasets.DatasetSplit:
    """The split with its test cohorts cut to ``users``, so that evaluation
    scores exactly the served lists."""
    users = set(users)
    return dataclasses.replace(
        split, **{c: {u: v for u, v in getattr(split, c).items() if u in users}
                  for c in ("warm_test", "cold_val", "cold_test")})


def serve_users(ctx: Context, out: Outcome, sample: list[tuple], cfg: RunConfig,
                agent, aug, ext) -> list[dict]:
    """Beam + rank for each sampled user, each user one timed operation."""
    user_type, k = aug.schema.user_type, cfg.inference.topk
    records = []
    for name, cohort in sample:
        if not aug.has_entity(user_type, name):
            records.append({"user": name, "cohort": cohort, "served": False, "items": []})
            continue
        uid = aug.entity_id(user_type, name)
        ctx.tag(uid)
        try:
            recs = out.timed(("rec", name), _beam_and_rank, uid, cfg, agent, aug, ext, k)
        except Exception as exc:  # a failed request counts in failed_share
            _request_failed(out, f"{cohort}/{name}", exc)
            continue
        with ctx.untraced():
            records.append(checks.served_record(name, cohort, recs, aug))
    ctx.tag(-1)
    return records


def _beam_and_rank(uid, cfg, agent, aug, ext, k):
    paths = inference.beam_search(uid, agent, aug, ext, cfg.inference.widths,
                                  max_actions=cfg.agent.max_actions)
    return inference.rank_recommendations(paths, aug, ext, uid, k)


def finish(ctx: Context, out: Outcome, records: list[dict], aug, k: int, patterns: dict,
           split: datasets.DatasetSplit):
    """Check the first pass's lists and keep them for the digest."""
    with ctx.untraced():
        _check(out, records, aug, k, patterns)
        out.records = records
        if ctx.tracer is None:
            out.quality = checks.quality(records, split, k)


# -- run-default ----------------------------------------------------------------


def run_default(ctx: Context) -> Outcome:
    """Set-up writes the default catalog and splits it. A pass trains the
    embeddings and the agent, integrates the cold profiles, serves the user
    sample and evaluates the lists: the pipeline's stages, with serving cut
    to a sample and training to a few epochs so that passes repeat."""
    out = Outcome()

    def build(step):
        config = make_config(ctx.size, "default", ctx.workdir("run-default"))
        step(pipeline.stage_synth, config)
        return config, step(pipeline.stage_split, config)

    cfg, split = set_up(out, build)
    sample = _user_sample(ctx, split, salt=1)
    scored = _scored(split, (u for u, _ in sample))
    for p in ctx.passes():
        # A set-up takes 0.3 s, so one more is timed in every pass and the
        # median is taken over spells of the whole run.
        set_up(out, build, times=1)
        table = out.timed(("train", "embed"), pipeline.stage_train_embed, cfg)
        agent = out.timed(("train", "agent"), pipeline.stage_train_agent, cfg)
        aug, ext, ids, _ = out.timed(("cold",), pipeline.build_augmented, split, table,
                                     cfg.cold_strategy)
        records = serve_users(ctx, out, sample, cfg, agent, aug, ext)
        _, patterns, _ = out.timed(("eval",), pipeline.evaluate_run, cfg, scored, records)
        out.end_pass(records)
        if p == 0:
            _check_integrated(out, len(split.profiles), ids, "run-default")
            finish(ctx, out, records, aug, cfg.inference.topk, patterns, split)
    return out


# -- the 5x catalog ---------------------------------------------------------------


@dataclasses.dataclass
class Served:
    config: RunConfig
    split: datasets.DatasetSplit
    table: embeddings.EmbeddingTable
    agent: policy.PolicyModel
    aug: object
    ext: embeddings.EmbeddingTable


def build_5x(ctx: Context, out: Outcome, max_actions: int) -> Served:
    """Set-up of the 5x workloads: every stage from synth to cold-integrate,
    then the artifacts loaded as a server would load them."""

    def build(step):
        config = make_config(ctx.size, "5x", ctx.workdir(f"5x-{max_actions}"),
                             max_actions=max_actions)
        for stage in (pipeline.stage_synth, pipeline.stage_split,
                      pipeline.stage_train_embed, pipeline.stage_train_agent):
            step(stage, config)
        aug, ext, ids = step(pipeline.stage_cold_integrate, config)
        paths = RunPaths(config.workdir)
        split = step(datasets.DatasetSplit.read, paths.split_dir)
        table = step(embeddings.load_table, paths.embed_file, split.train_graph)
        agent = step(policy.PolicyModel.load, paths.policy_file)
        return Served(config, split, table, agent, aug, ext), ids

    served, ids = set_up(out, build)
    _check_integrated(out, len(served.split.profiles), ids, "set-up")
    return served


def serve_5x(ctx: Context) -> Outcome:
    """A pass serves the user sample on wide slates, evaluates the lists and
    integrates the cold profiles into the trained catalog again."""
    out = Outcome()
    s = build_5x(ctx, out, max_actions=250)
    cfg = s.config
    sample = _user_sample(ctx, s.split, salt=5)
    scored = _scored(s.split, (u for u, _ in sample))
    for p in ctx.passes():
        records = serve_users(ctx, out, sample, cfg, s.agent, s.aug, s.ext)
        _, patterns, _ = out.timed(("eval",), pipeline.evaluate_run, cfg, scored, records)
        _, _, ids, _ = out.timed(("cold",), pipeline.build_augmented, s.split, s.table,
                                 cfg.cold_strategy)
        out.end_pass(records)
        if p == 0:
            _check_integrated(out, len(s.split.profiles), ids, "serve-5x")
            finish(ctx, out, records, s.aug, cfg.inference.topk, patterns, s.split)
    shutil.rmtree(cfg.workdir, ignore_errors=True)
    return out


def cold_churn_5x(ctx: Context) -> Outcome:
    """A pass is one round per k in CHURN_KS. The write re-caps every cold
    user's profile at k targets per relation and integrates all cold item
    and user profiles into a fresh clone; the read serves a seeded sample of
    the new cold users on the narrow slates the agent was trained on; then
    the round's lists are evaluated."""
    out = Outcome()
    s = build_5x(ctx, out, max_actions=25)
    cfg, split = s.config, s.split
    user_type, k = split.schema.user_type, cfg.inference.topk
    cohort_of = {u: c for c in checks.COLD_COHORTS for u in getattr(split, c)}
    rng = np.random.default_rng([ctx.seed, 25])
    readers = {k_cap: _sample(rng, sorted(cohort_of), SIZES[ctx.size]["reads"])
               for k_cap in CHURN_KS}
    scored = {k_cap: _scored(split, names) for k_cap, names in readers.items()}

    for p in ctx.passes():
        records = []
        for r, k_cap in enumerate(CHURN_KS):
            ctx.tag(r)
            user_profiles = [
                datasets.cap_cold_relations(u, user_type, split.cold_user_targets[u],
                                            rng=None, fixed_k=k_cap)
                for u in sorted(split.cold_user_targets)]
            profiles = split.item_profiles + user_profiles
            aug, ext, ids = out.timed(("cold", k_cap), coldstart.integrate_cold_entities,
                                      split.train_graph, s.table, profiles, cfg.cold_strategy)
            if p == 0:
                _check_integrated(out, len(profiles), ids, f"k={k_cap}")
            round_records = []
            for name in readers[k_cap]:
                if name not in ids:  # skipped at integration, counted above
                    continue
                try:
                    recs = out.timed(("rec", k_cap, name), coldstart.recommend_cold, ids[name],
                                     s.agent, aug, ext, k, cfg.inference.widths,
                                     max_actions=cfg.agent.max_actions)
                except Exception as exc:  # a failed request counts in failed_share
                    _request_failed(out, f"k={k_cap} {cohort_of[name]}/{name}", exc)
                    continue
                with ctx.untraced():
                    round_records.append({**checks.served_record(name, cohort_of[name],
                                                                 recs, aug), "round": r})
            _, patterns, _ = out.timed(("eval", k_cap), pipeline.evaluate_run, cfg,
                                       scored[k_cap], round_records)
            if p == 0:
                with ctx.untraced():
                    _check(out, round_records, aug, k, patterns)
            records.extend(round_records)
        ctx.tag(-1)
        out.end_pass(records)
        if p == 0:
            out.records = records
    if ctx.tracer is None:
        out.quality = checks.quality(out.records, split, k)
    shutil.rmtree(cfg.workdir, ignore_errors=True)
    return out


WORKLOADS = {"run-default": run_default, "serve-5x": serve_5x, "cold-churn-5x": cold_churn_5x}


# -- results --------------------------------------------------------------------


def _by_k_median(times: dict[tuple, float]) -> float:
    """The median, or on cold-churn-5x (keys carry k) the mean of the per-k
    medians. Read and write cost grow with profile richness k, so the
    samples form one cluster per k and a plain median would jump between
    clusters from seed to seed."""
    by_k: dict = {}
    for key, t in times.items():
        by_k.setdefault(key[1] if len(key) > 2 else None, []).append(t)
    return statistics.fmean(statistics.median(v) for v in by_k.values())


def end_to_end(out: Outcome) -> dict:
    """End-to-end metrics as name -> value, unit and the sample count behind it."""
    rec = out.of_kind("rec")
    lat_ms = sorted(t * 1000.0 for t in rec.values())
    evals, colds = out.of_kind("eval"), out.of_kind("cold")
    rows = [
        ("setup_s", statistics.median(out.setup_s), "s", len(out.setup_s)),
        ("run_s", out.run_s, "s", len(out.digests)),
        ("rec_users_per_s", len(lat_ms) / (sum(lat_ms) / 1000.0), "1/s", len(lat_ms)),
        ("rec_p50_ms", _by_k_median(rec) * 1000.0, "ms", len(lat_ms)),
        ("rec_p95_ms", statistics.quantiles(lat_ms, n=20, method="inclusive")[-1], "ms",
         len(lat_ms)),
        ("eval_s", statistics.fmean(evals.values()), "s", len(evals)),
        ("cold_ready_s", statistics.fmean(colds.values()), "s", len(colds)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        ("host_slowdown", out.host_slowdown, "ratio", len(out.wall_s)),
        ("failed_share", out.failed / out.attempted, "ratio", out.attempted),
    ]
    return {name: {"value": value, "unit": unit, "n": n} for name, value, unit, n in rows}


def environment(seed: int) -> dict:
    """Facts that make a result comparable: machine, versions, BLAS, source."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "pathrec", "*.py"))):
        with open(path, "rb") as fh:
            src.update(path.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata; src_sha256 still names the code
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    ap.add_argument("--workroot", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ctx = Context(args.seed, args.seconds, args.size, args.workroot)
    result = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed)}
    try:
        out = workload(ctx)
        result["quality"] = out.quality
        result["end_to_end"] = end_to_end(out)
        if args.trace:
            import tracing

            ctx.tracer = tracing.Tracer().install()
            traced = workload(ctx)
            layers = ctx.tracer.metrics()
            layers["trace.overhead_share"] = (
                (traced.measured_s - out.measured_s) / out.measured_s, "ratio")
            traced.attempted += 1
            if checks.digest(traced.records) != checks.digest(out.records):
                traced.fail(1, ["traced output differs from untraced output"])
            out.attempted += traced.attempted
            out.fail(traced.failed, traced.errors)
            ctx.tracer.write(args.spans)
            result["per_layer"] = {name: {"value": v, "unit": u}
                                   for name, (v, u) in layers.items()}
            result["untraced_s"], result["traced_s"] = out.measured_s, traced.measured_s
    finally:
        shutil.rmtree(args.workroot, ignore_errors=True)
    result.update(digest=checks.digest(out.records), attempted=out.attempted,
                  failed=out.failed, errors=out.errors[:20])
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
