"""What the benchmark under ``benchmarks/`` reads of pathrec.

The benchmark builds served records with ``checks.served_record`` (it
reads ``rec.entries[i].path.state`` and calls ``mdp.path_signature``),
scores them with ``checks.quality`` (``metrics.ndcg_at_k``, ``hit_at_k``
and ``cold_item_coverage``), counts beam paths with ``len(beam)`` and
wraps functions by the names in ``tracing.SPANNED``/``COUNTED``, reading
some of their positional arguments. These tests import the benchmark's
modules, never change them, and pin each of those reads, so a change in
src that breaks one fails here rather than as a wrong or zero benchmark
number.
"""

import importlib.util
import inspect
import json
import os

import numpy as np
import pytest

from pathrec import coldstart, embeddings, inference, metrics, policy
from pathrec.datasets import DatasetSplit
from pathrec.embeddings import load_table
from pathrec.pipeline import COHORTS, RunPaths, _ordered_profiles, run_pipeline
from pathrec.policy import PolicyModel

from test_pipeline import tiny_config

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")


def bench_module(name):
    """``benchmarks/<name>.py`` imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"benchmarks_{name}",
                                                  os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = bench_module("checks")
tracing = bench_module("tracing")


@pytest.fixture(scope="module")
def served_run(tmp_path_factory):
    """The TINY run's stored records, and what its recommend stage read."""
    config = tiny_config(str(tmp_path_factory.mktemp("contract") / "run"))
    run_pipeline(config)
    paths = RunPaths(config.workdir)
    split = DatasetSplit.read(paths.split_dir)
    aug, _ = coldstart.augment_graph(split.train_graph, _ordered_profiles(split))
    ext = load_table(paths.cold_table_file, aug)
    agent = PolicyModel.load(paths.policy_file)
    with open(paths.recs_file) as fh:
        records = [rec for rec in map(json.loads, fh) if "meta" not in rec]
    return config, aug, ext, agent, records


def test_benchmark_records_equal_the_stored_ones(served_run):
    config, aug, ext, agent, records = served_run
    served = [rec for rec in records if rec["served"]]
    assert {rec["cohort"] for rec in served} == set(COHORTS)
    for rec in served:
        uid = aug.entity_id(aug.schema.user_type, rec["user"])
        recs = coldstart.recommend_cold(uid, agent, aug, ext, config.inference.topk,
                                        config.inference.widths,
                                        max_actions=config.agent.max_actions)
        assert checks.served_record(rec["user"], rec["cohort"], recs, aug) == rec


def test_beam_length_is_its_path_count(served_run):
    config, aug, ext, agent, records = served_run
    for rec in records[:5]:
        uid = aug.entity_id(aug.schema.user_type, rec["user"])
        beam = inference.beam_search(uid, agent, aug, ext, config.inference.widths,
                                     max_actions=config.agent.max_actions)
        assert len(beam) == len(beam.frontier) == len(beam.logprob) > 0


def test_benchmark_quality_equals_the_kernels(served_run):
    """``checks.quality`` on the stored records gives the means, over the
    same served users, of the kernels ``evaluate_run`` scores with, and
    their cold-item coverage; a mean is the benchmark's own, ``sum`` over
    ``len``. A metric of src that the benchmark reads cannot leave
    unnoticed."""
    config, _, _, _, records = served_run
    split = DatasetSplit.read(RunPaths(config.workdir).split_dir)
    k = config.inference.topk
    got = checks.quality(records, split, k)
    served = [rec for rec in records if rec["served"]]
    column = {}
    for name in [*split.cold_items, *(it["item"] for rec in served for it in rec["items"]),
                 *(i for c in COHORTS for items in getattr(split, c).values() for i in items)]:
        column.setdefault(name, len(column))

    def matrix(recs):
        return metrics.column_matrix([[column[it["item"]] for it in rec["items"][:k]]
                                      for rec in recs], k)

    def scored(cohorts):
        recs = [rec for rec in served if rec["cohort"] in cohorts]
        relevant = [getattr(split, rec["cohort"])[rec["user"]] for rec in recs]
        rows = np.repeat(np.arange(len(recs)), [len(items) for items in relevant])
        cols = np.asarray([column[i] for items in relevant for i in items], dtype=np.intp)
        rel = metrics.ColumnSets(rows, cols, len(recs), len(column))
        hits = rel.contains(matrix(recs))
        return metrics.ndcg_rows(hits, rel.sizes), metrics.hit_rows(hits)

    def mean(values):
        return sum(values.tolist()) / len(values)

    warm_ndcg, _ = scored({"warm_test"})
    cold_ndcg, cold_hit = scored(set(checks.COLD_COHORTS))
    assert len(warm_ndcg) == got["users_warm"] > 0 and len(cold_ndcg) == got["users_cold"] > 0
    assert got["ndcg10_warm"] == mean(warm_ndcg)
    assert got["ndcg10_cold"] == mean(cold_ndcg)
    assert got["hr10_cold"] == mean(cold_hit)
    is_cold = np.zeros(len(column), dtype=bool)
    is_cold[[column[i] for i in split.cold_items]] = True
    assert got["cold_coverage10"] == metrics.cold_coverage(matrix(served), is_cold,
                                                           len(split.cold_items))


def test_traced_targets_missing_from_src_are_the_known_five():
    """The tracer reports a target it cannot find and reads 0 for its
    metrics; these five are known, and so are ``graph.clone`` and
    ``graph.freeze``, which left src when graphs became immutable, and
    ``metrics.popb_at_k`` and ``metrics.pop_baseline``, which left it when
    the scalar evaluation path moved to the test oracles. A rename in src
    that adds one fails here."""
    missing = {name for name, owner, attr in [*tracing.SPANNED, *tracing.COUNTED]
               if owner.__dict__.get(attr) is None}
    assert missing == {"mdp.valid_actions", "mdp.encode_state", "mdp.step",
                       "coldstart.integrate_entity", "coldstart.cold_embedding",
                       "graph.clone", "graph.freeze",
                       "metrics.popb_at_k", "metrics.pop_baseline"}


@pytest.mark.parametrize("fn,index,name", [
    (policy.PolicyModel.forward, 1, "X"),
    (embeddings.sampled_softmax_grads, 2, "triplets"),
    (policy.rollout_batch, 3, "users"),
    (inference.rank_recommendations, 4, "k"),
])
def test_positional_arguments_the_tracer_reads(fn, index, name):
    assert list(inspect.signature(fn).parameters)[index] == name
