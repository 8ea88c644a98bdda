"""Span tracing of pathrec's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every binding a caller
looks up: the module-level names in each ``pathrec`` module (``inference``
and ``policy`` import ``valid_actions``/``encode_state``/``step`` by name,
``coldstart`` imports ``beam_search``, ``pipeline`` imports
``integrate_entity`` and ``train_embeddings``) and the class attribute for
methods. Nothing under ``src/`` changes.

A span is (name, start, end, parent span, tag); the tag is the user or
round id the benchmark is serving when the span opens. Spans are kept in
flat arrays in memory and written once, by ``Tracer.write``. Self time is
a span's duration minus the part covered by its child spans (and by the
tracer's own bookkeeping after a child returns), accumulated as spans
close. Hot leaf functions whose time only matters inside their caller
are counted, not spanned.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pathrec import (coldstart, datasets, embeddings, graph, inference, mdp,
                     metrics, optim, pipeline, policy)

# (metric prefix, owner object, attribute); owner is a module or a class.
SPANNED = [
    *((f"pipeline.stage.{stage}", pipeline, f"stage_{stage.replace('-', '_')}")
      for stage in pipeline.STAGES),
    ("pipeline.build_augmented", pipeline, "build_augmented"),
    ("pipeline.evaluate_run", pipeline, "evaluate_run"),
    ("datasets.generate_synthetic", datasets, "generate_synthetic"),
    ("datasets.split_dataset", datasets, "split_dataset"),
    ("datasets.DatasetSplit.read", datasets.DatasetSplit, "read"),
    ("graph.clone", graph.KnowledgeGraph, "clone"),
    ("graph.freeze", graph.KnowledgeGraph, "freeze"),
    ("embeddings.train_embeddings", embeddings, "train_embeddings"),
    ("embeddings.sampled_softmax_grads", embeddings, "sampled_softmax_grads"),
    ("mdp.valid_actions", mdp, "valid_actions"),
    ("mdp.encode_state", mdp, "encode_state"),
    ("mdp.step", mdp, "step"),
    ("mdp.terminal_reward", mdp.RewardSpec, "terminal_reward"),
    ("policy.forward", policy.PolicyModel, "forward"),
    ("policy.backward", policy.PolicyModel, "backward"),
    ("policy.rollout_batch", policy, "rollout_batch"),
    ("policy.train_agent", policy, "train_agent"),
    ("optim.adam_step", optim.Adam, "step"),
    ("inference.beam_search", inference, "beam_search"),
    ("inference.rank_recommendations", inference, "rank_recommendations"),
    ("coldstart.integrate_cold_entities", coldstart, "integrate_cold_entities"),
    ("coldstart.integrate_entity", coldstart, "integrate_entity"),
    ("coldstart.cold_embedding", coldstart, "cold_embedding"),
    ("coldstart.recommend_cold", coldstart, "recommend_cold"),
    ("metrics.popb_at_k", metrics, "popb_at_k"),
    ("metrics.pop_baseline", metrics, "pop_baseline"),
]

COUNTED = [
    ("graph.neighbors", graph.KnowledgeGraph, "neighbors"),
    ("embeddings.score_tails", embeddings, "score_tails"),
    ("metrics.ndcg_at_k", metrics, "ndcg_at_k"),
]

_RAISED = object()


class Tracer:
    """Spans and counters for one process; install once, read at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.wall: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = {}
        self.stats: dict[str, float] = {}
        self.tag = -1
        self.off = False
        self._stack: list[list] = []  # [span index, covered seconds]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_tag = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._orig_neighbors = graph.KnowledgeGraph.neighbors

    # -- installation -------------------------------------------------------

    def install(self):
        observers = {
            "mdp.valid_actions": self._observe_slate,
            "policy.forward": self._observe_forward,
            "embeddings.sampled_softmax_grads": self._observe_softmax,
            "policy.rollout_batch": self._observe_rollout,
            "inference.beam_search": self._observe_beam,
            "inference.rank_recommendations": self._observe_rank,
            "coldstart.integrate_entity": self._observe_integrate,
        }
        for name, owner, attr in SPANNED:
            self._replace(owner, attr,
                          lambda fn, n=name: self._span_wrapper(fn, n, observers.get(n)))
        for name, owner, attr in COUNTED:
            self._replace(owner, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        return self

    @contextmanager
    def paused(self):
        """Calls made inside are neither spanned nor counted."""
        self.off = True
        try:
            yield
        finally:
            self.off = False

    def _replace(self, owner, attr, make):
        raw = owner.__dict__.get(attr)
        if raw is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  "its metrics read 0", file=sys.stderr)
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        # functions imported by name elsewhere keep their own binding
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("pathrec") and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def _span_wrapper(self, fn, name, observe):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.wall.append(0.0)
        self.self_time.append(0.0)
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.off:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_tag.append(self.tag)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.calls[nid] += 1
                self.wall[nid] += t1 - t0
                self.self_time[nid] += (t1 - t0) - frame[1]
                if observe is not None:
                    observe(args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - t0

        return wrapper

    def _count_wrapper(self, fn, name):
        self.counts[name] = 0
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.off:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers: derived per-layer counts, taken from arguments and results

    def _add(self, key: str, value: float):
        self.stats[key] = self.stats.get(key, 0.0) + value

    def _observe_slate(self, args, kwargs, result):
        if result is _RAISED:
            return
        state, kg = args[0], args[1]
        cap = kwargs.get("max_actions", args[3] if len(args) > 3 else mdp.MAX_ACTIONS_DEFAULT)
        moves = len(result) - 1
        self._add("slate_actions", len(result))
        if moves == cap:  # at the cap: truncated iff more unvisited neighbours existed
            unvisited = sum(1 for _, n, _ in self._orig_neighbors(kg, state.current)
                            if n not in state.visited)
            if unvisited > cap:
                self._add("slates_truncated", 1)

    def _observe_forward(self, args, kwargs, result):
        self._add("forward_rows", len(args[1]))

    def _observe_softmax(self, args, kwargs, result):
        self._add("softmax_triplets", len(args[2]))

    def _observe_rollout(self, args, kwargs, result):
        self._add("rollout_episodes", len(args[3]))

    def _observe_beam(self, args, kwargs, result):
        if result is not _RAISED:
            self._add("beam_paths", len(result))

    def _observe_rank(self, args, kwargs, result):
        k = kwargs.get("k", args[4] if len(args) > 4 else None)
        if result is not _RAISED and len(result.entries) == k:
            self._add("full_lists", 1)

    def _observe_integrate(self, args, kwargs, result):
        if result is _RAISED:
            self._add("profiles_skipped", 1)

    # -- results --------------------------------------------------------------

    def _layer(self, name: str) -> tuple[int, float, float]:
        if name not in self.names:
            return 0, 0.0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.wall[i], self.self_time[i]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        for stage in pipeline.STAGES:
            out[f"pipeline.stage.{stage}.wall_s"] = (self._layer(f"pipeline.stage.{stage}")[1], "s")
        for name in ("pipeline.build_augmented", "pipeline.evaluate_run",
                     "datasets.generate_synthetic", "datasets.split_dataset",
                     "datasets.DatasetSplit.read", "graph.freeze",
                     "embeddings.train_embeddings"):
            out[f"{name}.wall_s"] = (self._layer(name)[1], "s")
        clone_calls, clone_wall, _ = self._layer("graph.clone")
        out["graph.clone.calls"] = (clone_calls, "count")
        out["graph.clone.wall_s"] = (clone_wall, "s")
        for name in ("graph.neighbors", "embeddings.score_tails", "metrics.ndcg_at_k"):
            out[f"{name}.calls"] = (self.counts.get(name, 0), "count")
        for name in ("embeddings.sampled_softmax_grads", "mdp.valid_actions",
                     "mdp.encode_state", "mdp.step", "mdp.terminal_reward",
                     "policy.forward", "policy.backward", "optim.adam_step",
                     "inference.beam_search", "inference.rank_recommendations",
                     "coldstart.integrate_cold_entities", "coldstart.integrate_entity",
                     "coldstart.cold_embedding", "metrics.popb_at_k"):
            calls, _, self_s = self._layer(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name in ("policy.rollout_batch", "coldstart.recommend_cold",
                     "metrics.pop_baseline"):
            out[f"{name}.self_s"] = (self._layer(name)[2], "s")

        st = self.stats
        slates = self._layer("mdp.valid_actions")[0]
        out["mdp.valid_actions.mean_slate"] = (ratio(st.get("slate_actions", 0), slates), "actions")
        out["mdp.valid_actions.truncated_share"] = (ratio(st.get("slates_truncated", 0), slates), "ratio")
        out["policy.forward.rows"] = (st.get("forward_rows", 0), "count")
        out["embeddings.triplets_per_s"] = (
            ratio(st.get("softmax_triplets", 0), self._layer("embeddings.train_embeddings")[1]), "1/s")
        out["policy.episodes_per_s"] = (
            ratio(st.get("rollout_episodes", 0), self._layer("policy.train_agent")[1]), "1/s")
        out["inference.beam_search.paths_per_user"] = (
            ratio(st.get("beam_paths", 0), self._layer("inference.beam_search")[0]), "paths")
        out["inference.full_list_share"] = (
            ratio(st.get("full_lists", 0), self._layer("inference.rank_recommendations")[0]), "ratio")
        out["coldstart.skipped_share"] = (
            ratio(st.get("profiles_skipped", 0), self._layer("coldstart.integrate_entity")[0]), "ratio")
        return out

    def write(self, path: str):
        """Save every span as flat arrays (npz); start/end are perf_counter seconds."""
        np.savez_compressed(
            path, names=np.asarray(self.names), name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent), tag=np.asarray(self.span_tag),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end))
