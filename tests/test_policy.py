import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathrec
from pathrec import mdp
from pathrec import policy as policy_module
from pathrec.embeddings import (EmbedTrainConfig, EmbeddingTable, init_table, rng_for,
                                score_tails)
from pathrec.errors import EmptyGraph, InvalidSpec, MissingEmbedding
from pathrec.mdp import SELF_LOOP, PathState, RewardSpec, start_scores
from pathrec.optim import Adam
from pathrec.policy import (AgentConfig, PolicyModel, _sample_rows,
                            episode_gradients, rollout_batch, train_agent, training_users,
                            write_history)

from oracles import (GraphWriter, UniformPolicy, encode_state, evaluate_mean_reward, frontier_of,
                     is_complete, pair_blocks, reference_episode_gradients, reference_forward,
                     reference_init, reference_relation_terms, step, valid_actions)
from test_pipeline import TINY


class FixedReward:
    """Terminal-entity lookup reward; duck-typed stand-in for RewardSpec."""

    def __init__(self, by_terminal):
        self.by_terminal = by_terminal

    def terminal_reward(self, frontier):
        return np.asarray([float(self.by_terminal.get(t, 0.0))
                           for t in frontier.entities[:, -1].tolist()])


def forcing(monkeypatch, forced):
    """Make rollouts take slot ``forced[t][b]`` for row b at their t-th
    draw, in place of sampling (``policy._sample_rows``)."""
    draws = iter(forced)
    monkeypatch.setattr(policy_module, "_sample_rows",
                        lambda probs, rng: np.asarray(next(draws), dtype=np.intp))


def small_policy(table, hop_budget, seed=5, **overrides):
    cfg = AgentConfig(hop_budget=hop_budget, max_actions=8, hidden=(16, 8),
                      entropy_coef=1e-2, gamma=0.9, **overrides)
    return PolicyModel(table.dim, cfg, seed=seed), cfg


class TestForward:
    def test_masked_probs(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 3)
        X = rng_for(0, "x").normal(size=(4, len(policy.W1)))
        sizes = np.asarray([1, 3, 8, 9])
        probs, values, _ = policy.forward(X, sizes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
        for row, size in enumerate(sizes):
            assert np.all(probs[row, size:] == 0.0)
            assert np.all(probs[row, :size] > 0.0)
        assert values.shape == (4,)

    def test_config_validation(self):
        with pytest.raises(InvalidSpec):
            AgentConfig(hop_budget=0)
        with pytest.raises(InvalidSpec):
            AgentConfig(gamma=0.0)
        with pytest.raises(InvalidSpec):
            AgentConfig(reward="bandit")
        with pytest.raises(InvalidSpec):
            AgentConfig(hidden=(4, 4, 4))


class TestInit:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dim, cfg, rows, count", [
        (100, AgentConfig(), 500, 452_604),  # the default config
        (TINY["embed"]["dim"], AgentConfig(**{**TINY["agent"], "hidden": (16, 8)}), 40, 918)])
    def test_keeps_the_read_rows_of_the_full_width_draw(self, dim, cfg, rows, count, seed):
        """W1 is the first (2·hop_budget − 1)·dim rows of a W1 drawn over
        (2·hop_budget + 1)·dim, and W2, W3 and Wv are the draws after it,
        bit for bit (``reference_init``); the biases start at zero."""
        policy = PolicyModel(dim, cfg, seed)
        W1, W2, W3, Wv = reference_init(dim, cfg, seed)
        assert policy.W1.shape == (rows, cfg.hidden[0]) and len(W1) == rows + 2 * dim
        for got, want in ((policy.W1, W1[:rows]), (policy.W2, W2), (policy.W3, W3),
                          (policy.Wv, Wv)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sum(p.size for p in policy.params) == count
        assert not any(b.any() for b in (policy.b1, policy.b2, policy.b3, policy.bv))


def forward_arrays(result):
    """A forward's probabilities, values, first-layer sums and hidden layers."""
    probs, values, cache = result
    return probs, values, cache.sum1, cache.h1, cache.h2


def pad(X, width):
    full = np.zeros((len(X), width))
    full[:, :X.shape[1]] = X
    return full


# (embedding dim, hidden sizes): the default config and the test dims
KERNEL_DIMS = [(100, (512, 256)), (4, (16, 8)), (5, (16, 8)), (6, (16, 8)),
               (7, (16, 8)), (8, (16, 8))]
# (embedding dim, hidden sizes, action cap): the default config, the dims the
# build-tuned slicing got wrong (150, 200), the test dims; slates of 251, 26, 9
ORDER_DIMS = [(100, (512, 256), 250), (150, (512, 256), 25), (200, (512, 256), 8),
              (4, (16, 8), 250), (5, (16, 8), 25), (6, (16, 8), 8),
              (7, (16, 8), 250), (8, (16, 8), 25)]


def kernel_policy(d, hidden, max_actions=250):
    cfg = AgentConfig(hop_budget=3, max_actions=max_actions, hidden=hidden)
    return PolicyModel(d, cfg, seed=d)


class TestPrefixKernels:
    """The live-prefix forward and backward against the full-width ones,
    which the scalar oracles feed: a zero block adds exact zeros to each
    first-layer sum and each W1 gradient row, at any row count."""

    @pytest.mark.parametrize("d,hidden", KERNEL_DIMS)
    def test_prefix_forward_bitwise_equals_full_width(self, d, hidden):
        policy = kernel_policy(d, hidden)
        rng = np.random.default_rng(d)
        for t in range(3):  # hop 0's state to the last decision's, all of W1
            k = (1 + 2 * t) * d
            for P in (1, 2, 25, 64, 125):
                X = rng.normal(size=(P, k))
                sizes = rng.integers(1, policy.slate_size + 1, size=P)
                got = policy.forward(X, sizes)
                want = policy.forward(pad(X, len(policy.W1)), sizes)
                for a, b in zip(forward_arrays(got), forward_arrays(want)):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d,hidden", KERNEL_DIMS[:3])
    def test_rows_beyond_the_prefix_never_read(self, d, hidden):
        """W1 rows beyond the prefix are poisoned with NaN: no row count
        reads them."""
        policy = kernel_policy(d, hidden)
        rng = np.random.default_rng(1)
        for t in range(3):
            k = (1 + 2 * t) * d
            policy.W1[k:] = np.nan
            for P in (1, 2, 10):
                probs, _, _ = policy.forward(rng.normal(size=(P, k)), np.full(P, 3))
                assert not np.isnan(probs).any(), (t, P)
            policy.W1[k:] = 0.0

    @pytest.mark.parametrize("d,hidden", KERNEL_DIMS)
    def test_prefix_backward_bitwise_equals_full_width(self, d, hidden):
        """One product per cached block equals the rows of one product over
        the whole state, zero-padded to full width."""
        policy = kernel_policy(d, hidden)
        rng = np.random.default_rng(d + 1)
        for t in range(3):
            for P in (1, 2, 25, 64, 125):
                blocks, carry = [], None
                for hop in range(t + 1):
                    X = rng.normal(size=(P, d if hop == 0 else 2 * d))
                    sizes = rng.integers(1, policy.slate_size + 1, size=P)
                    _, _, cache = policy.forward(X, sizes, carry)
                    blocks.append(cache.X)
                    carry = cache[:2]
                assert cache.end == sum(b.shape[1] for b in blocks) == (1 + 2 * t) * d
                dlogits = rng.normal(size=(P, policy.slate_size))
                dvalues = rng.normal(size=P)
                got, want = policy.zero_grads(), policy.zero_grads()
                policy.backward(cache, blocks, dlogits, dvalues, got)
                whole = pad(np.hstack(blocks), len(policy.W1))
                policy.backward(cache, (whole,), dlogits, dvalues, want)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_width_that_is_no_live_prefix_rejected(self, small_table):
        policy, _ = small_policy(small_table, 3)
        d = small_table.dim
        for width in (2 * d, 3 * d + 1, 9 * d):
            with pytest.raises(InvalidSpec, match="live prefix"):
                policy.forward(np.zeros((2, width)), np.asarray([1, 1]))

    def test_reused_buffers_equal_fresh_over_two_batches(self, make_graph):
        g = make_graph(n_users=8, n_items=20, n_brands=2, n_categories=2,
                       interactions=7, seed=1)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=1)
        policy, cfg = small_policy(table, 3)
        spec = RewardSpec.binary(g)
        users = training_users(g)
        buffers = policy.zero_grads()
        fresh_rng, reused_rng = rng_for(4, "batches"), rng_for(4, "batches")
        for batch in (users[:5], users[3:]):
            scores = start_scores(g, table, batch)
            fresh, _, _ = episode_gradients(policy, g, table, batch, scores, cfg, spec,
                                            fresh_rng)
            reused, _, _ = episode_gradients(policy, g, table, batch, scores, cfg, spec,
                                             reused_rng, grads=buffers)
            assert reused is buffers
            for a, b in zip(reused, fresh):
                np.testing.assert_array_equal(a, b)


class TestFixedOrder:
    @pytest.mark.parametrize("P", [1, 2, 25, 64])
    @pytest.mark.parametrize("d,hidden,cap", ORDER_DIMS)
    def test_carried_chain_equals_one_call(self, d, hidden, cap, P):
        """Hop by hop on each hop's new blocks, with carries gathered by
        parent row as the beam does, against one carry-less call on each
        hop's whole live prefix, bitwise from one hop-0 row on."""
        policy = kernel_policy(d, hidden, cap)
        rng = np.random.default_rng(d + P)
        X, carry, blocks = rng.normal(size=(P, d)), None, ()
        for t in range(3):
            sizes = rng.integers(1, policy.slate_size + 1, size=len(X))
            probs, values, cache = policy.forward(X, sizes, carry)
            prefix = np.hstack([*blocks, X])
            assert prefix.shape == (len(X), (1 + 2 * t) * d) and cache.end == prefix.shape[1]
            want_probs, want_values, want = policy.forward(prefix, sizes)
            for a, b in ((probs, want_probs), (values, want_values),
                         (cache.sum1, want.sum1), (cache.h2, want.h2)):
                np.testing.assert_array_equal(a, b)
            parent = np.sort(rng.integers(len(X), size=2 * len(X)))
            blocks = tuple(b[parent] for b in (*blocks, X))
            carry = cache.sum1[parent], cache.end
            X = rng.normal(size=(len(parent), 2 * d))

    def test_carry_without_a_parent_rejected(self):
        policy = kernel_policy(4, (16, 8))
        X = np.zeros((2, 8))
        _, _, cache = policy.forward(X[:, :4], np.asarray([1, 1]))
        with pytest.raises(InvalidSpec, match="carry"):
            policy.forward(X[:, :4], np.asarray([1, 1]), cache[:2])
        with pytest.raises(InvalidSpec, match="carry"):
            policy.forward(X, np.asarray([1, 1]), (cache.sum1[:1], cache.end))
        with pytest.raises(InvalidSpec, match="carry"):
            policy.forward(X, np.asarray([1, 1]), (cache.sum1[:, 1:], cache.end))
        with pytest.raises(InvalidSpec, match="carry"):
            policy.forward(X, np.asarray([1, 1]), (cache.sum1, cache.end - 1))

    @pytest.mark.parametrize("hops", [1, 2])
    def test_full_width_state_with_a_carry_rejected(self, hops):
        """A carry places X after its blocks, so a whole zero-padded
        decision state passed with one overruns W1 rather than reading as
        the new blocks."""
        policy = kernel_policy(4, (16, 8))
        rng = np.random.default_rng(hops)
        _, _, cache = policy.forward(rng.normal(size=(3, 4)), np.full(3, 2))
        blocks = [cache.X]
        for _ in range(hops - 1):
            _, _, cache = policy.forward(rng.normal(size=(3, 8)), np.full(3, 2), cache[:2])
            blocks.append(cache.X)
        full = pad(np.hstack([*blocks, rng.normal(size=(3, 8))]), len(policy.W1))
        with pytest.raises(InvalidSpec, match="no live prefix"):
            policy.forward(full, np.full(3, 2), cache[:2])

    @pytest.mark.parametrize("d,hidden,cap", ORDER_DIMS[:1] + ORDER_DIMS[3:6])
    def test_dead_rows_and_padded_columns_stay_zero(self, d, hidden, cap):
        """W1 rows beyond every prefix seen get exact-zero gradients and keep
        their values through Adam; the head's padded columns stay zero."""
        policy = kernel_policy(d, hidden, cap)
        opt = Adam(policy.params, lr=0.01)
        rng = np.random.default_rng(d)
        W1 = policy.W1.copy()
        grads = policy.zero_grads()
        for t in range(3):
            k = (1 + 2 * t) * d
            _, _, cache = policy.forward(rng.normal(size=(8, k)), np.full(8, policy.slate_size))
            policy.backward(cache, [cache.X], rng.normal(size=(8, policy.slate_size)),
                            rng.normal(size=8), policy.zero_grads(grads))
            assert not grads[0][k:].any()
            opt.step(grads)
            np.testing.assert_array_equal(policy.W1[k:], W1[k:])
            assert policy._W3.shape[1] % 8 == 0 and np.shares_memory(policy.W3, policy._W3)
            assert not policy._W3[:, policy.slate_size:].any()
        assert policy.W3.shape == (hidden[1], policy.slate_size)


class TestRowBitsIndependentOfBatch:
    """A row's probabilities and layer sums have the same bits alone as
    among other rows: every product treats a one-row block as two rows
    (``_matmul``), and a head group of one row is such a block. The value
    is a matrix-vector product, whose kernel sums a row by its place among
    the call's rows; only training reads values, on batches its seed fixes."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.sampled_from(ORDER_DIMS), P=st.sampled_from([2, 7, 64]),
           carried=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_row_alone_equals_row_in_a_batch(self, dims, P, carried, seed):
        d, hidden, cap = dims
        policy = kernel_policy(d, hidden, cap)
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, policy.slate_size + 1, size=P)
        at = int(rng.integers(P))
        X = rng.normal(size=(P, 2 * d if carried else d))
        carry = (rng.normal(size=(P, hidden[0])), d) if carried else None
        alone = policy.forward(X[at:at + 1], sizes[at:at + 1],
                               carry and (carry[0][at:at + 1], carry[1]))
        batch = policy.forward(X, sizes, carry)
        for a, b in zip(forward_arrays(alone), forward_arrays(batch)):
            if a.ndim == 1:  # the values
                np.testing.assert_allclose(a[0], b[at], rtol=1e-12, atol=1e-12)
            else:
                np.testing.assert_array_equal(a[0], b[at])


# (narrow rows, wide rows) per batch, split at HEAD_SPLIT: one row, all
# narrow, all wide, exactly one row of either group, an even mix
HEAD_BATCHES = [(1, 0), (0, 1), (2, 0), (25, 0), (0, 2), (0, 25), (1, 4), (4, 1),
                (1, 1), (2, 2), (30, 34), (60, 65)]


class TestSlateWidthHead:
    """The forward, whose head groups take an actor head of their widest
    slate's width, against the full-width head for every row
    (``reference_forward``)."""

    @pytest.mark.parametrize("d,hidden", [(100, (512, 256)), (6, (16, 8))])
    @pytest.mark.parametrize("cap", [25, 127, 128, 129, 250, 1000])
    def test_forward_and_gradients_bitwise_equal_full_width(self, d, hidden, cap,
                                                            monkeypatch):
        """Caps 127 to 129 put slates of 128 to 130 on both sides of the
        first block of numpy's pairwise row sum (128 elements)."""
        policy = kernel_policy(d, hidden, cap)
        policy.b3[:] = np.random.default_rng(cap).normal(size=policy.slate_size)
        W, split = policy.slate_size, policy_module.HEAD_SPLIT
        widths, head_exp = [], policy._head_exp

        def recording(h2, sizes):
            exp = head_exp(h2, sizes)
            widths.append((len(h2), exp.shape[1]))
            return exp

        monkeypatch.setattr(policy, "_head_exp", recording)
        rng = np.random.default_rng(d + cap)
        for narrow, wide in HEAD_BATCHES:
            if wide and W <= split:
                continue
            P = narrow + wide
            sizes = rng.permutation(np.concatenate([
                rng.integers(1, min(split, W) + 1, size=narrow),
                rng.integers(split + 1, W + 1, size=wide)]))
            X, carry, blocks = rng.normal(size=(P, d)), None, []
            for hop in range(2):
                widths.clear()
                got = policy.forward(X, sizes, carry)
                want = reference_forward(policy, X, sizes, carry)
                assert got[0].shape == (P, W) and got[2].end == want[2].end
                for a, b in zip(forward_arrays(got), forward_arrays(want)):
                    np.testing.assert_array_equal(a, b)
                blocks.append(X)
                dlogits, dvalues = rng.normal(size=(P, W)), rng.normal(size=P)
                grads = [policy.zero_grads(), policy.zero_grads()]
                for cache, g in zip((got[2], want[2]), grads):
                    policy.backward(cache, blocks, dlogits, dvalues, g)
                for a, b in zip(*grads):
                    np.testing.assert_array_equal(a, b)
                # the groups the rule picks, narrow first: each at the
                # 8-aligned width of its widest slate, at most the slate
                groups = [group for group in (sizes[sizes <= split], sizes[sizes > split])
                          if len(group)]
                assert widths == [(len(g), min(-(-int(g.max()) // 8) * 8, W)) for g in groups]
                carry = got[2].sum1, got[2].end
                X = rng.normal(size=(P, 2 * d))


THREAD_PROBE = """
import hashlib, json, sys
import numpy as np
from pathrec.datasets import SyntheticSpec, generate_synthetic, load_dataset
from pathrec.embeddings import EmbedTrainConfig, init_table, rng_for
from pathrec.inference import beam_search, rank_recommendations
from pathrec.mdp import Frontier, RewardSpec, start_scores
from pathrec.optim import Adam
from pathrec.policy import (HEAD_SPLIT, AgentConfig, PolicyModel, episode_gradients,
                            training_users)

# what each phase reached: rows cut to the cap, rows of each head group,
# head groups of one row in a call of many, rows whose relation block came
# from the relation terms, one-row hops
reached, call_rows = {}, [0]
slates, head_exp, forward = Frontier.slates, PolicyModel._head_exp, PolicyModel.forward

def counting_slates(frontier, graph, max_actions, *args):
    got = slates(frontier, graph, max_actions, *args)
    uncut = slates(frontier, graph, 10 ** 9, *args).sizes
    reached["over_cap_rows"] = reached.get("over_cap_rows", 0) + int(
        (uncut > got.sizes).sum())
    return got

def counting_head_exp(policy, h2, sizes):
    key = "narrow_rows" if sizes.max() <= HEAD_SPLIT else "wide_rows"
    reached[key] = reached.get(key, 0) + len(h2)
    if len(h2) == 1 < call_rows[0]:
        reached["one_row_groups"] = reached.get("one_row_groups", 0) + 1
    return head_exp(policy, h2, sizes)

def counting_forward(policy, X, sizes, carry=None):
    call_rows[0] = len(X)
    if carry is not None and len(X) == 1:
        reached["one_row_hops"] = reached.get("one_row_hops", 0) + 1
    elif carry is not None and X.shape[1] == table.dim:
        reached["relation_terms_rows"] = reached.get("relation_terms_rows", 0) + len(X)
    return forward(policy, X, sizes, carry)

Frontier.slates, PolicyModel._head_exp = counting_slates, counting_head_exp
PolicyModel.forward = counting_forward

# two brands and three categories: hubs of more moves than the 250 cap
graph = load_dataset(*generate_synthetic(SyntheticSpec(users=300, items=400, brands=2,
                                                       categories=3), sys.argv[1]))
table = init_table(graph, EmbedTrainConfig())
config = AgentConfig()
policy = PolicyModel(table.dim, config)
users = training_users(graph)
batch = users[:config.batch_size]
grads, _, _ = episode_gradients(policy, graph, table, batch, start_scores(graph, table, batch),
                                config, RewardSpec.binary(graph), rng_for(1, "threads"))
Adam(policy.params, lr=config.learning_rate).step(grads)
train_reached, reached = reached, {}
policy.freeze()  # as served: the relation terms are kept
logprobs = []
for user, widths in zip(users[:5], [(25, 5, 1)] * 3 + [(1, 5, 1), (3, 3, 1)]):
    beam = beam_search(user, policy, graph, table, widths)
    ranked = rank_recommendations(beam, graph, table, user, 10)
    logprobs += [beam.logprob, np.asarray([e.logprob for e in ranked.entries])]

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

print(json.dumps({"params": digest(policy.params), "grads": digest(grads),
                  "logprobs": digest(logprobs), "train": train_reached, "beam": reached}))
"""


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """A default-shaped train step and beam search, in one process with
    one BLAS thread and one with two; each goes through over-cap rows and
    both actor head groups, and the beam through the relation terms, a
    one-row hop and a head group of one row in a call of many."""
    src = os.path.dirname(os.path.dirname(pathrec.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(tmp_path / threads)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.append(json.loads(out.stdout))
    assert digests[0] == digests[1]
    for phase, keys in (("train", ()),
                        ("beam", ("relation_terms_rows", "one_row_hops", "one_row_groups"))):
        reached = digests[0][phase]
        assert min(reached.get(key, 0) for key in ("over_cap_rows", "narrow_rows",
                                                   "wide_rows", *keys)) > 0, (phase, reached)


WALK_PROBE = """
import json, sys
import numpy as np
from pathrec.datasets import SyntheticSpec, generate_synthetic, load_dataset
from pathrec.embeddings import EmbedTrainConfig, init_table
from pathrec.mdp import Frontier
from pathrec.policy import AgentConfig, PolicyModel, training_users, walk

CAP = 25  # below the degree of every brand and category hub
over_cap, slates = [0], Frontier.slates

def counting_slates(frontier, graph, max_actions, *args):
    got = slates(frontier, graph, max_actions, *args)
    over_cap[0] += int((slates(frontier, graph, 10 ** 9, *args).sizes > got.sizes).sum())
    return got

Frontier.slates = counting_slates
graph = load_dataset(*generate_synthetic(SyntheticSpec(users=40, items=120, brands=2,
                                                       categories=3), sys.argv[1]))
table = init_table(graph, EmbedTrainConfig())
policy = PolicyModel(table.dim, AgentConfig()).freeze()

def top_two(starts):
    \"\"\"Walk ``starts`` keeping each row's two most probable slots (ties by
    slot); returns the frontier, each row's start index and, per hop, the
    probabilities and each row's start index.\"\"\"
    hops, origin = [], [np.arange(len(starts))]

    def choose(slates, probs, values, cache):
        rows, slots = np.nonzero(np.arange(probs.shape[1]) < slates.sizes[:, None])
        order = np.lexsort((slots, -probs[rows, slots], rows))
        rows, slots = rows[order], slots[order]
        keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < 2
        hops.append((probs, origin[0]))
        origin[0] = origin[0][rows[keep]]
        return rows[keep], slots[keep]

    frontier = walk(policy, graph, table, starts, 3, CAP, choose)
    return frontier, origin[0], hops

users = training_users(graph)
starts = users[:6] + users[1:4] + users[:1]  # users repeated, one of them twice
frontier, origin, hops = top_two(starts)
over_cap_rows, mismatches = over_cap[0], []
for i, start in enumerate(starts):
    alone, _, alone_hops = top_two([start])
    rows = origin == i
    for name in ("entities", "relations", "directions"):
        if getattr(frontier, name)[rows].tobytes() != getattr(alone, name).tobytes():
            mismatches.append([i, name])
    for t, ((probs, at), (want, _)) in enumerate(zip(hops, alone_hops)):
        if probs[at == i].tobytes() != want.tobytes():
            mismatches.append([i, f"probs at hop {t}"])
print(json.dumps({"mismatches": mismatches, "over_cap_rows": over_cap_rows}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_walked_rows_do_not_depend_on_their_batch(tmp_path, threads):
    """``walk`` with a deterministic chooser, the top two slots of each row
    by probability, over a batch of starts with repeated users and hubs
    cut to the cap: each start's frontier rows and each hop's
    probabilities equal, bit for bit, the same start walked alone. The
    values are left out: the baseline is a matrix-vector product, which
    sums a row by its place among the call's rows."""
    src = os.path.dirname(os.path.dirname(pathrec.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", WALK_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["mismatches"] == [] and got["over_cap_rows"] > 0, got


class TestGradientOracle:
    """Single-step policy gradient against finite differences.

    For one-hop episodes the expected update has a closed scalar form:
    F(theta) = -sum_a pi(a) R(a) - beta H(pi) + sum_a p0(a) (R(a) - V)^2
    with p0 frozen at the base point (the value loss never differentiates
    through the sampling distribution). The enumerated expectation of the
    per-episode gradients must equal dF/dtheta.
    """

    def setup_case(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 1)
        u0 = tiny_graph.entity_id("user", "u0")
        rewards = {tiny_graph.entity_id("item", "i0"): 1.0,
                   tiny_graph.entity_id("item", "i1"): 0.3,
                   tiny_graph.entity_id("brand", "b0"): 0.2,
                   u0: 0.05}
        spec = FixedReward(rewards)
        state = PathState.start(u0, 1)
        slate = valid_actions(state, tiny_graph, max_actions=cfg.max_actions)
        R = spec.terminal_reward(frontier_of([step(state, a, tiny_graph) for a in slate]))
        X = encode_state(state, small_table)[None, :]
        return policy, cfg, u0, spec, slate, R, X

    def enumerated_grads(self, policy, cfg, tiny_graph, small_table, u0, spec, slate,
                         monkeypatch):
        X = encode_state(PathState.start(u0, 1), small_table)[None, :]
        probs, _, _ = policy.forward(X, np.asarray([len(slate)]))
        total = [np.zeros_like(p) for p in policy.params]
        for a_idx in range(len(slate)):
            with monkeypatch.context() as patch:
                forcing(patch, [[a_idx]])
                grads, _, _ = episode_gradients(policy, tiny_graph, small_table, [u0],
                                                start_scores(tiny_graph, small_table, [u0]),
                                                cfg, spec, rng_for(0, "unused"))
            for t, g in zip(total, grads):
                t += probs[0, a_idx] * g
        return total

    def test_expected_gradient_matches_fd(self, tiny_graph, small_table, monkeypatch):
        policy, cfg, u0, spec, slate, R, X = self.setup_case(tiny_graph, small_table)
        sizes = np.asarray([len(slate)])
        p0, V0, _ = policy.forward(X, sizes)
        p0 = p0[0].copy()

        def scalar(pol):
            probs, values, _ = pol.forward(X, sizes)
            p, V = probs[0], values[0]
            valid = p > 0
            H = -(p[valid] * np.log(p[valid])).sum()
            actor = -(p[:len(R)] * R).sum()
            value = (p0[:len(R)] * (R - V) ** 2).sum()
            return actor - cfg.entropy_coef * H + value

        expected = self.enumerated_grads(policy, cfg, tiny_graph, small_table,
                                         u0, spec, slate, monkeypatch)
        h = 1e-6
        for arr, grad in zip(policy.params, expected):
            gflat = grad.ravel()
            idx = np.nonzero(np.abs(gflat) > 1e-10)[0]
            for j in idx[:: max(1, len(idx) // 25)]:
                at = np.unravel_index(j, arr.shape)  # W3 is a view: no ravel copy
                orig = arr[at]
                arr[at] = orig + h
                up = scalar(policy)
                arr[at] = orig - h
                down = scalar(policy)
                arr[at] = orig
                assert (up - down) / (2 * h) == pytest.approx(gflat[j], rel=1e-4, abs=1e-9)

    def test_sampled_gradient_converges_to_expectation(self, tiny_graph, small_table,
                                                        monkeypatch):
        policy, cfg, u0, spec, slate, R, X = self.setup_case(tiny_graph, small_table)
        expected = self.enumerated_grads(policy, cfg, tiny_graph, small_table,
                                         u0, spec, slate, monkeypatch)
        rng = rng_for(77, "sample-check")
        acc = [np.zeros_like(p) for p in policy.params]
        batches, B = 12, 2000
        scores = start_scores(tiny_graph, small_table, [u0] * B)
        for _ in range(batches):
            grads, _, _ = episode_gradients(policy, tiny_graph, small_table,
                                            [u0] * B, scores, cfg, spec, rng)
            for a, g in zip(acc, grads):
                a += g / batches
        # compare the large W1 block in norm; 24k episodes ~ 1% noise
        num = np.linalg.norm(acc[0] - expected[0])
        den = np.linalg.norm(expected[0])
        assert num / den < 0.05


class TestMultiStep:
    def test_trajectory_gradients_match_manual_formula(self, tiny_graph, small_table,
                                                       monkeypatch):
        """Replays forced trajectories and rebuilds the update by hand."""
        policy, cfg = small_policy(small_table, 2)
        users = [tiny_graph.entity_id("user", "u0"),
                 tiny_graph.entity_id("user", "u1")]
        spec = RewardSpec.binary(tiny_graph)
        forced = [[1, 0], [2, 1]]
        forcing(monkeypatch, forced + forced)  # the rollout, then the gradients' rollout
        records, rewards, walked = rollout_users(policy, tiny_graph, small_table,
                                                 users, cfg.hop_budget, cfg.max_actions,
                                                 spec, rng_for(0, "unused"))
        grads, _, _ = episode_gradients(policy, tiny_graph, small_table, users,
                                        start_scores(tiny_graph, small_table, users),
                                        cfg, spec, rng_for(0, "unused"))
        manual = policy.zero_grads()
        B, T = len(users), len(records)
        for t, rec in enumerate(records):
            G = rewards * cfg.gamma ** (T - 1 - t)
            adv = G - rec.values
            p = rec.probs
            logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
            H = -(p * logp).sum(axis=1)
            dlogits = p * adv[:, None]
            dlogits[np.arange(B), rec.chosen] -= adv
            dlogits += cfg.entropy_coef * p * (logp + H[:, None])
            dvalues = -2.0 * adv / B
            blocks = pair_blocks(walked, small_table)[:t + 1]
            policy.backward(rec.cache, blocks, dlogits / B, dvalues, manual)
        for got, want in zip(grads, manual):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_forced_and_sampled_rollouts_agree_on_states(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        spec = RewardSpec.binary(tiny_graph)
        _, _, frontier = rollout_users(policy, tiny_graph, small_table, [u0],
                                       2, cfg.max_actions, spec,
                                       rng_for(3, "roll"))
        assert all(is_complete(s) for s in frontier.states(2))


# (embedding dim, hidden sizes, hop budget, action cap): the default config,
# a d over K_BLOCK (two parts per block), a one-hop budget that folds nothing
FOLD_DIMS = [(100, (512, 256), 3, 250), (300, (16, 8), 3, 25), (6, (16, 8), 1, 25)]


class TestTrainingFold:
    """Training folds each hop's relation block into the carried sums
    (``PolicyModel.fold``) and multiplies its entity block; its gradients
    and Adam steps are the two-block forward's bits
    (``reference_episode_gradients``)."""

    def setup_case(self, make_graph, d, hidden, hops, cap):
        g = make_graph(n_users=9, n_items=20, n_brands=3, n_categories=2,
                       interactions=5, seed=d)
        table = init_table(g, EmbedTrainConfig(dim=d), seed=d)
        cfg = AgentConfig(hop_budget=hops, max_actions=cap, hidden=hidden, epochs=1,
                          entropy_coef=1e-2, gamma=0.9, reward="pgpr")
        return g, table, cfg, RewardSpec.pattern(g, table)

    @pytest.mark.parametrize("d,hidden,hops,cap", FOLD_DIMS)
    def test_episode_gradients_equal_two_block_oracle(self, make_graph, monkeypatch,
                                                      d, hidden, hops, cap):
        g, table, cfg, spec = self.setup_case(make_graph, d, hidden, hops, cap)
        policy = PolicyModel(table.dim, cfg, seed=d)
        folds, fold = [], PolicyModel.fold
        monkeypatch.setattr(PolicyModel, "fold", lambda self, carry, relations, tab:
                            folds.append(len(relations)) or fold(self, carry, relations, tab))
        users = training_users(g)
        for batch in (users + users[:3], users[:1]):  # a batch of many rows, then of one
            scores = start_scores(g, table, batch)
            folds.clear()
            got = episode_gradients(policy, g, table, batch, scores, cfg, spec,
                                    rng_for(d, "fold"))
            want = reference_episode_gradients(policy, g, table, batch, scores, cfg, spec,
                                               rng_for(d, "fold"))
            assert folds == [len(batch)] * (hops - 1)
            for a, b in zip(got[0], want[0]):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]
            assert np.any(got[0][0]) and (hops == 1 or len(batch) == 1 or got[1].any())

    @pytest.mark.parametrize("d,hidden,hops,cap", FOLD_DIMS)
    def test_two_adam_steps_equal_two_block_oracle(self, make_graph, monkeypatch,
                                                   d, hidden, hops, cap):
        """One epoch of two batches, the last of one row: the trained
        policy and its curve are the two-block forward's bits."""
        g, table, cfg, spec = self.setup_case(make_graph, d, hidden, hops, cap)
        cfg = AgentConfig(**{**vars(cfg), "batch_size": len(training_users(g)) - 1})
        batches = []
        monkeypatch.setattr(Adam, "step", lambda opt, grads, step=Adam.step:
                            batches.append(grads[1].copy()) or step(opt, grads))
        got, got_history = train_agent(g, table, spec, cfg, seed=d)
        monkeypatch.setattr(policy_module, "episode_gradients", reference_episode_gradients)
        want, want_history = train_agent(g, table, spec, cfg, seed=d)
        assert len(batches) == 4
        for a, b in zip(batches[:2], batches[2:]):
            np.testing.assert_array_equal(a, b)
        assert got_history == want_history
        for a, b in zip(got.params, want.params):
            np.testing.assert_array_equal(a, b)

    def test_fold_leaves_the_parent_sums(self, small_table):
        """Rollouts pass a hop's sums to the fold ungathered: the fold
        returns new sums and leaves the cache's as they were."""
        policy, _ = small_policy(small_table, 3)
        d = small_table.dim
        rng = np.random.default_rng(2)
        _, _, cache = policy.forward(rng.normal(size=(4, d)), np.full(4, 3))
        before = cache.sum1.copy()
        relations = np.asarray([0, 1, SELF_LOOP, 0])
        sum1, end = policy.fold(cache[:2], relations, small_table)
        np.testing.assert_array_equal(cache.sum1, before)
        assert end == 2 * d and not np.shares_memory(sum1, cache.sum1)
        rel_rows = np.vstack([small_table.relation_vecs, small_table.self_loop_vec])
        want = reference_forward(policy, rel_rows[relations], np.full(4, 3), cache[:2])[2]
        np.testing.assert_array_equal(sum1, want.sum1)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_fold_adds_its_hop_of_the_all_hops_terms(self, frozen):
        """A fold at hop 1 or 2 adds, part by part and bit for bit, that
        hop's share of every hop's terms computed at once
        (``reference_relation_terms``): on a writable policy, which
        computes the hop it folds, and on a frozen one, which keeps it."""
        rng = np.random.default_rng(7)
        relations = np.asarray([0, 1, 2, 3, SELF_LOOP, 0, SELF_LOOP])
        for d in (6, 300):  # one part per block, and two
            table = EmbeddingTable(rng.normal(size=(10, d)), np.zeros(10),
                                   rng.normal(size=(4, d)), rng.normal(size=d))
            cfg = AgentConfig(hop_budget=3, max_actions=8, hidden=(16, 8))
            policy = PolicyModel(table.dim, cfg, seed=d)
            if frozen:
                policy.freeze()
            all_hops = reference_relation_terms(policy, table)
            for hop in (1, 2):
                sum1 = rng.normal(size=(len(relations), 16))
                want = sum1
                for part in all_hops[hop - 1]:
                    want = want + part[relations]
                got, end = policy.fold((sum1, (2 * hop - 1) * d), relations, table)
                np.testing.assert_array_equal(got, want)
                assert end == 2 * hop * d
                np.testing.assert_array_equal(policy.relation_terms(table, hop),
                                              all_hops[hop - 1])
            with pytest.raises(InvalidSpec, match="no relation block at hop"):
                policy.relation_terms(table, 3)

    def test_frozen_fold_keeps_its_terms_without_a_stack(self, small_table, monkeypatch):
        """A frozen policy's repeated fold at one hop, on its table or a
        copy, stacks no relation rows and adds the terms it kept, with the
        same bits; changed rows are stacked once for fresh terms."""
        policy, _ = small_policy(small_table, 3)
        policy.freeze()
        d, rng = small_table.dim, np.random.default_rng(3)
        relations, sum1 = np.asarray([0, 1, SELF_LOOP, 0]), rng.normal(size=(4, 16))
        want, _ = policy.fold((sum1, d), relations, small_table)
        kept = policy.relation_terms(small_table, 1)
        stacks, got_terms, relation_terms = [], [], PolicyModel.relation_terms
        for name in ("stack", "vstack", "hstack", "concatenate"):
            monkeypatch.setattr(np, name, lambda *a, f=getattr(np, name), name=name, **k:
                                stacks.append(name) or f(*a, **k))
        monkeypatch.setattr(PolicyModel, "relation_terms", lambda self, table, hop:
                            got_terms.append(relation_terms(self, table, hop)) or got_terms[-1])
        for table in (small_table, small_table, small_table.copy()):
            got, end = policy.fold((sum1, d), relations, table)
            np.testing.assert_array_equal(got, want)
            assert end == 2 * d
        assert stacks == [] and len(got_terms) == 3 and all(t is kept for t in got_terms)
        other = small_table.copy()
        other.self_loop_vec[0] += 0.5
        policy.fold((sum1, d), relations, other)
        assert "vstack" in stacks and got_terms[-1] is not kept

    def test_fold_off_a_walked_hop_rejected(self, small_table):
        """A 2-hop walk folds one relation block, hop 1's, ending at d."""
        policy, _ = small_policy(small_table, 2)
        d = small_table.dim
        sums = np.zeros((2, 16))
        for end in (0, 2 * d, d + 1, 3 * d, 5 * d):
            with pytest.raises(InvalidSpec, match="relation block"):
                policy.fold((sums, end), np.asarray([0, 1]), small_table)
        with pytest.raises(InvalidSpec, match="relation block"):
            policy.fold((sums, d), np.asarray([0]), small_table)


def rollout_users(policy, graph, table, users, *args, **kwargs):
    """``rollout_batch`` on the users' start scores, built for the call."""
    return rollout_batch(policy, graph, table, users, start_scores(graph, table, users),
                         *args, **kwargs)


def reference_rollout(policy, graph, table, users, hop_budget, max_actions,
                      reward_spec, rng, forced_actions=None):
    """State-by-state rollout built from the scalar MDP functions; returns
    (per-hop (X, probs, values, chosen, sizes), rewards, final states)."""
    states = [PathState.start(u, hop_budget) for u in users]
    all_ids = np.arange(graph.entity_count, dtype=np.intp)
    scores = {u: score_tails(table, u, graph.interaction_relation, all_ids)
              for u in users}
    hops = []
    for t in range(hop_budget):
        slates = [valid_actions(s, graph, max_actions=max_actions,
                                user_scores=scores[s.user]) for s in states]
        sizes = np.asarray([len(sl) for sl in slates], dtype=np.intp)
        if policy is not None:
            X = np.stack([encode_state(s, table) for s in states])
            probs, values, _ = policy.forward(X, sizes)
        else:
            X = None
            probs = (np.arange(max(sizes.max(), 1)) < sizes[:, None]) / sizes[:, None]
            values = np.zeros(len(states))
        if forced_actions is not None:
            chosen = np.asarray(forced_actions[t], dtype=np.intp)
        else:
            chosen = np.minimum(_sample_rows(probs, rng), sizes - 1)
        hops.append((X, probs, values, chosen, sizes))
        states = [step(s, sl[c], graph) for s, sl, c in zip(states, slates, chosen)]
    return hops, reward_spec.terminal_reward(frontier_of(states)), states


class TestBatchedRollout:
    """rollout_batch against a state-by-state walk with the scalar functions."""

    def assert_same(self, got, want, table):
        records, rewards, frontier = got
        hops, want_rewards, want_states = want
        assert frontier.states(len(hops)) == want_states
        np.testing.assert_array_equal(rewards, want_rewards)
        assert len(records) == len(hops)
        for t, (rec, (X, probs, values, chosen, sizes)) in enumerate(zip(records, hops)):
            if X is None:  # the uniform walk multiplies no block
                assert rec.cache.X is None
            else:
                # each hop's cache holds the entity block it multiplied; with
                # the walk's relation blocks (the pair encoder) the hops'
                # blocks are the live prefix, and the scalar row is zero
                # beyond it
                live = (1 + 2 * t) * table.dim
                pairs = pair_blocks(frontier, table)[:t + 1]
                for r, pair in zip(records, pairs):
                    np.testing.assert_array_equal(r.cache.X, pair[:, -table.dim:])
                prefix = np.hstack(pairs)
                assert rec.cache.end == live
                np.testing.assert_array_equal(prefix, X[:, :live])
                assert np.all(X[:, live:] == 0.0)
            np.testing.assert_array_equal(rec.probs, probs)
            np.testing.assert_array_equal(rec.values, values)
            np.testing.assert_array_equal(rec.chosen, chosen)
            np.testing.assert_array_equal(rec.slate_sizes, sizes)

    def setup_case(self, make_graph, seed):
        g = make_graph(n_users=8, n_items=20, n_brands=2, n_categories=2,
                       interactions=7, seed=seed)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=seed)
        policy, cfg = small_policy(table, 3, seed=seed)
        users = training_users(g)
        return g, table, policy, cfg, users + users[:3]  # repeated users share scores

    @pytest.mark.parametrize("seed, mode", [(0, "upgpr"), (1, "upgpr"), (2, "upgpr"),
                                            (0, "pgpr"), (1, "pgpr"), (2, "pgpr")],
                             ids=["0", "1", "2", "pgpr-0", "pgpr-1", "pgpr-2"])
    def test_sampled_rollouts_equal_scalar_walk(self, make_graph, seed, mode):
        g, table, policy, cfg, users = self.setup_case(make_graph, seed)
        spec = RewardSpec.binary(g) if mode == "upgpr" else RewardSpec.pattern(g, table)
        for pol, ref in ((policy, policy), (UniformPolicy(table.dim, 3, cfg.max_actions), None)):
            got = rollout_users(pol, g, table, users, 3, cfg.max_actions, spec,
                                rng_for(seed, "roll"))
            want = reference_rollout(ref, g, table, users, 3, cfg.max_actions, spec,
                                     rng_for(seed, "roll"))
            self.assert_same(got, want, table)

    def test_forced_rollouts_equal_scalar_walk(self, make_graph, monkeypatch):
        g, table, policy, cfg, users = self.setup_case(make_graph, 5)
        spec = RewardSpec.binary(g)
        rng = np.random.default_rng(0)
        # the first hop's slates are the widest; forced slots stay inside them
        forced = [rng.integers(0, 2, size=len(users)).tolist() for _ in range(3)]
        forcing(monkeypatch, forced)
        got = rollout_users(policy, g, table, users, 3, cfg.max_actions, spec,
                            rng_for(0, "unused"))
        want = reference_rollout(policy, g, table, users, 3, cfg.max_actions, spec,
                                 rng_for(0, "unused"), forced_actions=forced)
        self.assert_same(got, want, table)

    def test_cap_above_policy_slate_rejected(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="exceeds"):
            rollout_users(policy, tiny_graph, small_table, [u0], 2, cfg.max_actions + 1,
                          RewardSpec.binary(tiny_graph), rng_for(0, "unused"))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, tiny_graph, small_table, cap):
        policy, _ = small_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        for behavior in (policy, UniformPolicy(small_table.dim, 2, cap)):
            with pytest.raises(InvalidSpec, match="max_actions must be >= 1"):
                rollout_users(behavior, tiny_graph, small_table, [u0], 2, cap,
                              RewardSpec.binary(tiny_graph), rng_for(0, "unused"))

    def test_table_short_of_graph_rejected(self, tiny_graph, small_table):
        short = EmbeddingTable(small_table.entity_vecs[:-1], small_table.entity_bias[:-1],
                               small_table.relation_vecs, small_table.self_loop_vec)
        policy, cfg = small_policy(short, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        for behavior in (policy, UniformPolicy(short.dim, 2, cfg.max_actions)):
            with pytest.raises(MissingEmbedding):
                rollout_users(behavior, tiny_graph, short, [u0], 2, cfg.max_actions,
                              RewardSpec.binary(tiny_graph), rng_for(0, "unused"))

    def test_empty_cohort_rejected(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 2)
        spec = RewardSpec.binary(tiny_graph)
        uniform = UniformPolicy(small_table.dim, 2, cfg.max_actions)
        for behavior, evaluated in ((policy, policy), (uniform, None)):
            with pytest.raises(InvalidSpec, match="at least one user"):
                rollout_users(behavior, tiny_graph, small_table, [], 2, cfg.max_actions,
                              spec, rng_for(0, "unused"))
            with pytest.raises(InvalidSpec, match="at least one user"):
                evaluate_mean_reward(evaluated, tiny_graph, small_table, [], 2,
                                     cfg.max_actions, spec, seed=0)

    def test_table_of_another_dim_rejected(self, tiny_graph, small_table):
        narrow = init_table(tiny_graph, EmbedTrainConfig(dim=4), seed=3)
        policy, cfg = small_policy(small_table, 3)  # 8-dim blocks; narrow's are 4-dim
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="over 4-dim embeddings meet a policy of 3 hops "
                                              "over 8-dim"):
            rollout_users(policy, tiny_graph, narrow, [u0], 3, cfg.max_actions,
                          RewardSpec.binary(tiny_graph), rng_for(0, "unused"))

    def test_hop_count_other_than_the_policy_rejected(self, tiny_graph, small_table):
        policy, cfg = small_policy(small_table, 3)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="3 hops"):
            rollout_users(policy, tiny_graph, small_table, [u0], 2, cfg.max_actions,
                          RewardSpec.binary(tiny_graph), rng_for(0, "unused"))

    @pytest.mark.parametrize("episodes", [0, -1])
    def test_no_episodes_rejected(self, tiny_graph, small_table, episodes):
        policy, cfg = small_policy(small_table, 2)
        u0 = tiny_graph.entity_id("user", "u0")
        with pytest.raises(InvalidSpec, match="episodes"):
            evaluate_mean_reward(policy, tiny_graph, small_table, [u0], 2, cfg.max_actions,
                                 RewardSpec.binary(tiny_graph), seed=0, episodes=episodes)


class TestTraining:
    def test_zero_epochs_returns_fresh_init(self, tiny_graph, small_table):
        cfg = AgentConfig(hop_budget=2, max_actions=8, hidden=(16, 8), epochs=0)
        spec = RewardSpec.binary(tiny_graph)
        policy, history = train_agent(tiny_graph, small_table, spec, cfg, seed=9)
        fresh = PolicyModel(small_table.dim, cfg, seed=9)
        assert history == []
        for a, b in zip(policy.params, fresh.params):
            np.testing.assert_array_equal(a, b)

    def test_start_scores_built_once_per_run(self, make_graph, monkeypatch):
        """Embeddings are frozen while the agent trains: one score row per
        training user serves every batch of every epoch."""
        g = make_graph(n_users=8, n_items=20, interactions=7, seed=1)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=1)
        calls, score = [], mdp.score_all_tails
        monkeypatch.setattr(mdp, "score_all_tails",
                            lambda table, head, rel: calls.append(head) or score(table, head, rel))
        cfg = AgentConfig(hop_budget=2, max_actions=8, hidden=(16, 8), epochs=3, batch_size=3)
        kept, kept_history = train_agent(g, table, RewardSpec.binary(g), cfg)
        assert calls == training_users(g)
        # past the row budget each batch scores its own users, to the same bytes
        calls.clear()
        monkeypatch.setattr(policy_module, "SCORE_ROWS_BYTES", 0)
        batched, batched_history = train_agent(g, table, RewardSpec.binary(g), cfg)
        assert len(calls) == cfg.epochs * len(training_users(g))
        assert batched_history == kept_history
        for a, b in zip(batched.params, kept.params):
            np.testing.assert_array_equal(a, b)

    def test_hidden_widths_off_the_grid_rejected(self):
        for hidden in ((300, 100), (16, 12), (0, 8)):
            with pytest.raises(InvalidSpec, match="multiples of 8"):
                AgentConfig(hidden=hidden)
        for hidden in ((512, 256), (16, 8)):
            AgentConfig(hidden=hidden)

    def test_training_users_skips_interactionless(self, schema):
        g = GraphWriter(schema)
        u0 = g.add_entity("user", "u0")
        u1 = g.add_entity("user", "u1")
        i0 = g.add_entity("item", "i0")
        g.add_triplet(u0, g.relation_id("purchase"), i0)
        g = g.graph
        assert training_users(g) == [u0]
        assert u1 not in training_users(g)

    def test_no_trainable_users_rejected(self, schema, small_table):
        g = GraphWriter(schema)
        g.add_entity("user", "u0")
        g = g.graph
        with pytest.raises(EmptyGraph):
            train_agent(g, small_table, RewardSpec.binary(g),
                        AgentConfig(hop_budget=2, epochs=1))

    def test_training_beats_uniform(self, make_graph):
        g = make_graph(n_users=12, n_items=15, n_brands=3, n_categories=2,
                       interactions=5, seed=2)
        table = init_table(g, EmbedTrainConfig(dim=8), seed=0)
        spec = RewardSpec.binary(g)
        cfg = AgentConfig(hop_budget=3, max_actions=25, hidden=(32, 16),
                          epochs=60, learning_rate=0.01, batch_size=4)
        policy, history = train_agent(g, table, spec, cfg, seed=1)
        assert len(history) == 60
        users = training_users(g)
        trained = evaluate_mean_reward(policy, g, table, users, 3, 25, spec,
                                       seed=42, episodes=8)
        uniform = evaluate_mean_reward(None, g, table, users, 3, 25, spec,
                                       seed=42, episodes=8)
        assert trained > uniform

    def test_history_and_eval_deterministic(self, make_graph):
        g = make_graph(n_users=6, n_items=8, seed=4)
        table = init_table(g, EmbedTrainConfig(dim=6), seed=0)
        spec = RewardSpec.binary(g)
        cfg = AgentConfig(hop_budget=2, max_actions=10, hidden=(16, 8),
                          epochs=3, batch_size=4)
        _, h1 = train_agent(g, table, spec, cfg, seed=11)
        _, h2 = train_agent(g, table, spec, cfg, seed=11)
        assert h1 == h2
        users = training_users(g)
        a = evaluate_mean_reward(None, g, table, users, 2, 10, spec, seed=5)
        b = evaluate_mean_reward(None, g, table, users, 2, 10, spec, seed=5)
        assert a == b


class TestPersistence:
    def test_save_load_round_trip(self, tiny_graph, small_table, tmp_path):
        policy, cfg = small_policy(small_table, 2)
        path = str(tmp_path / "policy.npz")
        policy.save(path, config_hash="deadbeef", seed=5)
        with np.load(path) as data:
            assert (str(data["config_hash"]), int(data["seed"])) == ("deadbeef", 5)
            assert "seed" not in json.loads(str(data["config"]))
        again = PolicyModel.load(path)
        assert again.config == cfg
        assert again.dim == policy.dim
        for a, b in zip(policy.params, again.params):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name, stored", [
        ("b1", np.ones(1)),           # one value would fill every unit
        ("W1", np.ones(8)),           # a flat W1 would fill every row
        ("Wv", None),                 # missing
        ("W2", np.ones((16, 8), dtype=np.float32)),
        ("W3", np.ones((8, 8))),      # the slate is 9 actions wide
    ])
    def test_damaged_parameter_rejected(self, small_table, tmp_path, name, stored):
        policy, _ = small_policy(small_table, 2)
        path = str(tmp_path / "policy.npz")
        policy.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        if stored is None:
            del arrays[name]
        else:
            arrays[name] = stored
        np.savez(path, **arrays)
        with pytest.raises(InvalidSpec, match=rf"^{re.escape(path)}: .*\b{name}\b"):
            PolicyModel.load(path)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_stored_dim_other_than_a_positive_int_rejected(self, small_table, tmp_path, dim):
        policy, _ = small_policy(small_table, 2)
        path = str(tmp_path / "policy.npz")
        policy.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["dim"] = np.asarray(dim)
        np.savez(path, **arrays)
        with pytest.raises(InvalidSpec, match=rf"^{re.escape(path)}: dim .* no int >= 1"):
            PolicyModel.load(path)

    def test_loaded_and_trained_parameters_refuse_writes(self, tiny_graph, small_table,
                                                         tmp_path):
        policy, cfg = small_policy(small_table, 2, epochs=1)
        path = str(tmp_path / "policy.npz")
        policy.save(path)
        trained, _ = train_agent(tiny_graph, small_table, RewardSpec.binary(tiny_graph), cfg)
        for served in (PolicyModel.load(path), trained):
            for param in (*served.params, served._W3):
                with pytest.raises(ValueError, match="read-only"):
                    param[...] = 0.0
        for param in policy.params:  # a policy built in Python stays writable
            param[...] += 0.0

    def test_write_history_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_history([(1, 0.5, 1.2), (2, 0.75, 1.1)], str(path),
                      config_hash="cafe", seed=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "# config=cafe seed=3"
        assert lines[1] == "epoch,mean_reward,mean_entropy"
        assert lines[2].startswith("1,0.5,")
        assert len(lines) == 4
        # train_agent's means are numpy scalars: written as plain floats
        write_history([(1, np.float64(0.5), np.float64(1.2))], str(path))
        assert path.read_text().splitlines()[2] == "1,0.5,1.2"
