"""Feed-forward policy with a scalar baseline, trained by REINFORCE.

The actor maps an encoded path state to one logit per action slot (slot 0
is the self-loop, the rest follow the canonical move order); invalid slots
are masked to -inf before the softmax. Reward is terminal-only and
discounted backward; the learned baseline is fit by squared error and an
entropy bonus keeps exploration alive. All math is float64 numpy, so
training is deterministic given the seed.

Rollouts and beam search take every hop of an ``mdp.Frontier`` through
one loop, ``walk``, the policy's hop budget deep, and differ only in the
chooser that picks the rows it advances and reads their moves
(``Slates.actions``, once a hop). A rollout batch samples one slot per
user from the trained policy and scores every row's terminal reward in
one ``RewardSpec.terminal_reward`` call; no per-path objects are built.

A walk meets W1 by one input rule: a hop's entity block is multiplied
(``forward``), and its relation block, one of R + 1 rows, is folded into
each row's carried first-layer sum (``fold``), gathered by parent row, so
a hop's cost does not grow with the walk. The backward reads each
hop's relation rows, gathered from the walked frontier, beside its cached
entity block. The actor head runs in at most two groups of rows, each at
the width of its widest slate, and every row is normalised over its
zero-padded full slate, so its probabilities are the full head's bits
whatever its batch mates (``forward``). A served policy is frozen
(``PolicyModel.freeze``) and keeps its relation terms. W1 holds only the
(2·hop_budget − 1)·d rows that decisions read: no decision follows the
last hop's pair.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .artifacts import write_csv, write_npz
from .embeddings import EmbeddingTable, rng_for
from .errors import (EmptyGraph, InvalidSpec, MissingEmbedding, check_field_types,
                     config_from_json, is_int)
from .graph import KnowledgeGraph
from .mdp import MAX_ACTIONS_DEFAULT, Frontier, RewardSpec, start_scores
from .optim import Adam


@dataclass(frozen=True)
class AgentConfig:
    hop_budget: int = 3
    max_actions: int = MAX_ACTIONS_DEFAULT
    hidden: tuple[int, int] = (512, 256)
    epochs: int = 50
    learning_rate: float = 0.001
    batch_size: int = 64
    gamma: float = 0.99
    entropy_coef: float = 1e-3
    reward: str = "upgpr"

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.hop_budget < 1:
            raise InvalidSpec("hop_budget must be >= 1")
        if self.max_actions < 1:
            raise InvalidSpec("max_actions must be >= 1")
        if self.epochs < 0:
            raise InvalidSpec("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidSpec("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidSpec("learning_rate must be positive")
        if not 0 < self.gamma <= 1:
            raise InvalidSpec("gamma must be in (0, 1]")
        if self.reward not in ("upgpr", "pgpr"):
            raise InvalidSpec(f"unknown reward mode {self.reward!r}")
        if len(self.hidden) != 2:
            raise InvalidSpec("policy uses exactly two hidden layers")
        if any(w < 1 or w % HEAD_ALIGN for w in self.hidden):
            raise InvalidSpec(f"hidden widths must be positive multiples of {HEAD_ALIGN}, "
                              f"got {list(self.hidden)}")


K_BLOCK = 256    # the widest K one product sums
HEAD_ALIGN = 8   # hidden widths and the padded actor head are multiples of this
HEAD_SPLIT = 120  # slates up to this size share a narrower head group: a cost choice, no bits
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "Wv", "bv")  # of ``params``, in order
SCORE_ROWS_BYTES = 32 << 20  # train_agent keeps every user's start scores up to this size


def _matmul(A: np.ndarray, W: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """``acc + A @ W`` (``A @ W`` without ``acc``), K summed left to right in
    blocks of at most ``K_BLOCK`` columns; ``acc`` itself is left as it is.

    For a matrix ``W`` a row's bits do not depend on how many rows ``A``
    has. A one-row product would take the matrix-vector kernel (gemv),
    which sums in another order than the matrix kernel of two or more rows,
    so a one-row ``A`` is multiplied as two rows and the first is
    returned; no other code knows of a row count. A vector ``W`` takes the
    matrix-vector kernel at any row count, which sums a row by its place
    among ``A``'s rows."""
    if len(A) == 1:
        twice = None if acc is None else np.concatenate([acc, acc])
        return _matmul(np.concatenate([A, A]), W, twice)[:1]
    for start in range(0, A.shape[1], K_BLOCK):
        part = A[:, start:start + K_BLOCK] @ W[start:start + K_BLOCK]
        acc = part if acc is None else np.add(acc, part, out=part)
    return acc


class ForwardCache(NamedTuple):
    """One forward's results for the next hop and for the backward.
    ``cache[:2]``, (sum1, end), is the carry the next hop folds, gathered
    by parent row; only the backward reads ``X``, ``h1`` and ``h2``."""

    sum1: np.ndarray  # each row's first-layer sum before the bias
    end: int          # W1 rows [0, end) are summed into it: the next hop's block starts there
    X: np.ndarray     # the state block this hop multiplied
    h1: np.ndarray
    h2: np.ndarray


class PolicyModel:
    """Two ReLU hidden layers; actor and baseline heads share the trunk."""

    def __init__(self, dim: int, config: AgentConfig, seed: int = 0):
        self._allocate(dim, config)
        rng = rng_for(seed, "policy-init")
        # W1 is drawn as wide as a finished walk's state, so every later draw keeps its bits
        full = (1 + 2 * config.hop_budget) * dim
        self.W1[...] = rng.normal(0.0, np.sqrt(2.0 / full), (full, len(self.b1)))[:len(self.W1)]
        for w in (self.W2, self.W3, self.Wv):  # He initialization over fan-in rows
            w[...] = rng.normal(0.0, np.sqrt(2.0 / len(w)), size=w.shape)

    def _allocate(self, dim: int, config: AgentConfig):
        """Set every parameter to zeros: W1 holds a row per column of the
        (2·hop_budget − 1)·dim-wide states that decisions read."""
        self.config = config
        self.dim = dim
        self.slate_size = 1 + config.max_actions
        h1, h2 = config.hidden
        self.W1 = np.zeros(((2 * config.hop_budget - 1) * dim, h1))
        self.b1 = np.zeros(h1)
        self.W2 = np.zeros((h1, h2))
        self.b2 = np.zeros(h2)
        self._W3 = np.zeros((h2, -(-self.slate_size // HEAD_ALIGN) * HEAD_ALIGN))
        self.W3 = self._W3[:, :self.slate_size]
        self.b3 = np.zeros(self.slate_size)
        self.Wv = np.zeros(h2)
        self.bv = np.zeros(1)
        self._terms = None  # (W1, relation rows, {hop: terms}) of a frozen policy

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2, self.W3, self.b3, self.Wv, self.bv]

    def freeze(self) -> "PolicyModel":
        """Make every parameter read-only, so that the policy keeps its
        ``relation_terms``; returns the policy."""
        for param in (*self.params, self._W3):
            param.flags.writeable = False
        return self

    def relation_terms(self, table: EmbeddingTable, hop: int) -> np.ndarray:
        """What each relation row adds to a first-layer sum at hop ``hop``,
        1 <= hop < hop_budget, of a walk over ``table``: ``terms[:, r]``, r
        a relation id or SELF_LOOP (the last row), holds that row's
        products with the W1 rows of the hop's relation block, one per
        ``K_BLOCK`` columns of the block, which ``fold`` adds in turn to a
        parent's sum as a multiplied block's products are added
        (``_matmul``). Shape (ceil(d / K_BLOCK), R + 1, h1).

        A read-only policy (``freeze``) keeps each hop's terms once
        computed and returns them again while its W1 is the same read-only
        array and the table's relation rows equal, in content, the rows
        they were computed from; a writable policy computes the hop's terms
        on every call.
        """
        B, d = self.config.hop_budget, self.dim
        if table.dim != d:
            raise InvalidSpec(f"a policy of {d}-dim blocks folds no {table.dim}-dim relation rows")
        if not 1 <= hop < B:
            raise InvalidSpec(f"a {B}-hop walk folds no relation block at hop {hop}")
        rel, loop, kept = table.relation_vecs, table.self_loop_vec, self._terms
        if (kept is None or kept[0] is not self.W1 or self.W1.flags.writeable
                or kept[1][:-1].shape != rel.shape or kept[1][:-1].tobytes() != rel.tobytes()
                or kept[1][-1].tobytes() != loop.tobytes()):
            kept = (self.W1, np.vstack([rel, loop]), {})
        if hop in kept[2]:
            return kept[2][hop]
        rows, block = kept[1], self.W1[(2 * hop - 1) * d:2 * hop * d]
        terms = np.stack([rows[:, k:k + K_BLOCK] @ block[k:k + K_BLOCK]
                          for k in range(0, d, K_BLOCK)])
        if not self.W1.flags.writeable:
            kept[2][hop] = terms
            self._terms = kept
        return terms

    def fold(self, carry: tuple[np.ndarray, int], relations: np.ndarray,
             table: EmbeddingTable) -> tuple[np.ndarray, int]:
        """The parent ``carry`` (gathered by parent row) of a walk's hop t,
        0 < t < hop_budget, with its relation block summed and ``end`` past
        it: row i gains hop t's ``relation_terms`` of ``relations[i]``, part
        by part as ``forward`` adds products. The parent's sums are not
        written."""
        (sum1, end), d = carry, self.dim
        if end % (2 * d) != d or end + 2 * d > len(self.W1) or len(relations) != len(sum1):
            raise InvalidSpec(f"a carry of {len(sum1)} sums ending at column {end} takes no "
                              f"relation block of {len(relations)} rows")
        for part in self.relation_terms(table, end // (2 * d) + 1):
            gathered = part[relations]
            sum1 = np.add(sum1, gathered, out=gathered)
        return sum1, end + d

    def forward(self, X: np.ndarray, slate_sizes: np.ndarray,
                carry: tuple[np.ndarray, int] | None = None):
        """Masked action probabilities, baseline values, and a backward cache.

        ``X`` holds the state blocks to multiply (a walk's entity block,
        ``Frontier.encode``); ``carry`` is each row's (sum1, end) before
        them (a walk's parent ``cache[:2]``, gathered and ``fold``-ed).
        X's blocks meet the W1 rows from the carry's ``end``, or from row 0
        without a carry, and end within W1's (2·hop_budget − 1)·d rows: a
        decision's state is at most the user's block and hop_budget − 1
        (relation, entity) pairs. Every sum has one fixed order: a row's
        first-layer sum is the carry's sum1 (zero when None) plus one
        product per d-wide block of X, left to right, and then the bias.
        Every product sums K in blocks of at most ``K_BLOCK`` columns, left
        to right (W2 in two halves), and the actor head is computed over
        ``W3``'s buffer, zero-padded to a multiple of ``HEAD_ALIGN``
        columns.
        OpenBLAS splits a wider K, or an output width off its 8-column grid
        (hence the ``HEAD_ALIGN`` grid of ``hidden``), by the thread count;
        products of these shapes give the same bits at any count, so the
        bytes do not depend on it.

        The actor head runs in at most two groups of rows, those with
        slates of up to ``HEAD_SPLIT`` actions and the rest, each at the
        8-aligned width of its widest slate. Each row's exponentials are
        written into a zero-padded row of ``slate_size`` columns and
        divided by the sum of that whole row: a column beyond a slate adds
        an exact zero, so the probabilities are the full head's bits and
        the groups set only the cost. The returned probabilities are
        always (P, slate_size).
        """
        sum1, start = carry or (None, 0)
        k, end, d = X.shape[1], start + X.shape[1], self.dim
        if not k or k % d or start % d or end > len(self.W1) or (end // d) % 2 == 0:
            raise InvalidSpec(f"{k} columns after a {start}-column carry are no live prefix "
                              f"of the policy's {len(self.W1)}-wide state of {d}-dim blocks")
        if carry is not None and sum1.shape != (len(X), len(self.b1)):
            raise InvalidSpec(f"a carry of {sum1.shape} sums is no parent state of "
                              f"{len(X)} rows and {len(self.b1)} units")
        for col in range(0, k, d):
            sum1 = _matmul(X[:, col:col + d], self.W1[start + col:start + col + d], sum1)
        h1 = sum1 + self.b1
        np.maximum(h1, 0.0, out=h1)
        h2 = _matmul(h1, self.W2)
        h2 += self.b2
        np.maximum(h2, 0.0, out=h2)
        values = _matmul(h2, self.Wv) + self.bv[0]
        return self._probs(h2, slate_sizes), values, ForwardCache(sum1, end, X, h1, h2)

    def _probs(self, h2: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The masked softmax of the actor head, by head group (``forward``)."""
        probs = np.zeros((len(sizes), self.slate_size))
        narrow = sizes <= HEAD_SPLIT
        split = 0 < np.count_nonzero(narrow) < len(sizes)
        for rows in (narrow, ~narrow) if split else (slice(None),):
            exp = self._head_exp(h2[rows], sizes[rows])
            probs[rows, :exp.shape[1]] = exp
        # the sum runs over the whole padded row; the last group is the
        # widest, and the zeros beyond it need no division
        probs[:, :exp.shape[1]] /= probs.sum(axis=1, keepdims=True)
        return probs

    def _head_exp(self, h2: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """One head group's exp(logit - row max) at the 8-aligned width of
        its widest slate, at most ``slate_size`` columns; zero at and
        beyond each row's slate size."""
        logits = _matmul(h2, self._W3[:, :-(-int(sizes.max()) // HEAD_ALIGN) * HEAD_ALIGN])
        logits = logits[:, :self.slate_size]
        width = logits.shape[1]
        logits += self.b3[:width]
        logits[np.arange(width) >= sizes[:, None]] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)
        return np.exp(logits, out=logits)

    def backward(self, cache: ForwardCache, blocks, dlogits: np.ndarray,
                 dvalues: np.ndarray, grads: list[np.ndarray]):
        """Accumulate parameter gradients for one cached forward pass, in
        the forward's summation order. ``blocks`` are the state's blocks
        up to the cached pass's (for a walk: each hop's relation rows and
        its ``cache.X``), in the cached pass's row order; each adds one
        product into its own ``W1`` gradient rows, and the rows after the
        last block stay exact zeros."""
        h1, h2 = cache.h1, cache.h2
        wide = np.zeros((len(dlogits), self._W3.shape[1]))
        wide[:, :self.slate_size] = dlogits
        grads[4] += _matmul(h2.T, wide)[:, :self.slate_size]
        grads[5] += dlogits.sum(axis=0)
        grads[6] += _matmul(h2.T, dvalues)
        grads[7][0] += dvalues.sum()
        dh2 = _matmul(dlogits, self.W3.T) + np.outer(dvalues, self.Wv)
        dz2 = dh2 * (h2 > 0)
        grads[2] += _matmul(h1.T, dz2)
        grads[3] += dz2.sum(axis=0)
        dh1 = _matmul(dz2, self.W2.T)
        dz1 = dh1 * (h1 > 0)
        for block, end in zip(blocks, np.cumsum([b.shape[1] for b in blocks])):
            grads[0][end - block.shape[1]:end] += _matmul(block.T, dz1)
        grads[1] += dz1.sum(axis=0)

    def zero_grads(self, grads: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """One zeroed gradient buffer per parameter: ``grads`` zeroed in
        place, or fresh buffers when none are given."""
        if grads is None:
            return [np.zeros_like(p) for p in self.params]
        for g in grads:
            g.fill(0.0)
        return grads

    def save(self, path: str, config_hash: str = "", seed: int = 0):
        write_npz(path, **dict(zip(PARAM_NAMES, self.params)),
                  dim=np.asarray(self.dim),
                  config=np.asarray(json.dumps(asdict(self.config), sort_keys=True)),
                  seed=np.asarray(seed),
                  config_hash=np.asarray(config_hash))

    @classmethod
    def load(cls, path: str) -> "PolicyModel":
        """The policy ``save`` wrote to ``path``, frozen (``freeze``). The
        stored ``dim`` must be an int >= 1, and each stored parameter
        float64, finite and of exactly the shape ``dim`` and the config
        give it, else InvalidSpec names the file and the member."""
        with np.load(path, allow_pickle=False) as data:
            missing = [name for name in ("config", "dim", *PARAM_NAMES)
                       if name not in data.files]
            if missing:
                raise InvalidSpec(f"{path}: no {', '.join(missing)} stored")
            config = config_from_json(AgentConfig, json.loads(str(data["config"])),
                                      f"{path}: config")
            dim = data["dim"]
            if dim.shape or dim.dtype.kind not in "iu" or dim < 1:
                raise InvalidSpec(f"{path}: dim {dim.tolist()!r} is no int >= 1")
            model = cls.__new__(cls)  # every parameter is read, so none is drawn
            model._allocate(int(dim), config)
            for name, param in zip(PARAM_NAMES, model.params):
                stored = data[name]
                if stored.dtype != np.float64 or stored.shape != param.shape:
                    raise InvalidSpec(f"{path}: parameter {name} is {stored.dtype} of shape "
                                      f"{stored.shape}, not float64 of shape {param.shape}")
                if not np.isfinite(stored).all():
                    raise InvalidSpec(f"{path}: parameter {name} holds a NaN or infinite value")
                param[...] = stored
        return model.freeze()


def walk(policy: PolicyModel, graph: KnowledgeGraph, table: EmbeddingTable,
         starts: Sequence[int], max_actions: int, choose: Callable,
         user_scores: np.ndarray | None = None) -> Frontier:
    """The frontier ``policy`` walks from ``starts`` in its ``hop_budget``
    hops, one row per start at hop 0: the one hop loop of rollouts and
    beam search. ``table`` shares the policy's dim and scores every entity
    of ``graph``; ``max_actions`` is an int from 1 to the policy's cap.

    ``choose(slates, probs, values, cache)`` returns the rows a hop takes
    and their moves, (relation, target, direction) read once from
    ``slates.actions``: row i of the next frontier extends row ``rows[i]``
    by move i and carries that row's first-layer sums, with the relation
    block just walked folded in (``fold``), and its start's row of
    ``user_scores`` (``mdp.start_scores`` of ``starts`` when none are
    given), which ranks its over-cap moves. Each hop builds every row's
    slate and multiplies the entity block it reached (``forward``).
    """
    if not is_int(max_actions):
        raise InvalidSpec(f"max_actions must be an int, got {max_actions!r}")
    if max_actions < 1:
        raise InvalidSpec("max_actions must be >= 1")
    cfg = policy.config
    if table.dim != policy.dim:
        raise InvalidSpec(f"{cfg.hop_budget}-hop walks over {table.dim}-dim embeddings meet a "
                          f"policy of {cfg.hop_budget} hops over {policy.dim}-dim embeddings")
    if max_actions > cfg.max_actions:
        raise InvalidSpec(f"max_actions {max_actions} exceeds the policy's slate of "
                          f"{cfg.max_actions} actions")
    if table.entity_count < graph.entity_count:
        raise MissingEmbedding(f"table has {table.entity_count} entity rows, "
                               f"the graph {graph.entity_count} entities")
    if user_scores is None:
        user_scores = start_scores(graph, table, starts)
    frontier, score_rows, carry = Frontier.start(starts), np.arange(len(starts)), None
    for t in range(cfg.hop_budget):
        if t:  # gathered here, so the last hop's rows gather nothing
            score_rows = score_rows[rows]
            carry = policy.fold((cache.sum1[rows], cache.end), frontier.relations[:, -1], table)
        slates = frontier.slates(graph, max_actions, user_scores, score_rows)
        probs, values, cache = policy.forward(frontier.encode(table), slates.sizes, carry)
        rows, actions = choose(slates, probs, values, cache)
        frontier = frontier.advance(rows, *actions)
    return frontier


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row."""
    u = rng.random(probs.shape[0])
    return (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)


@dataclass
class StepRecord:
    cache: ForwardCache
    probs: np.ndarray
    values: np.ndarray
    chosen: np.ndarray
    slate_sizes: np.ndarray


def rollout_batch(policy: PolicyModel, graph: KnowledgeGraph,
                  table: EmbeddingTable, users: list[int], user_scores: np.ndarray,
                  max_actions: int, reward_spec: RewardSpec, rng: np.random.Generator):
    """Walk one episode per user, each hop's slot drawn from the policy's
    probabilities; returns (step records, rewards, walked frontier): row b
    of the frontier, ``hop_budget`` hops deep, is user b's path.

    ``user_scores[b]`` ranks user b's over-cap moves (``mdp.start_scores``).
    """
    if not len(users):
        raise InvalidSpec("rollouts need at least one user")
    rows, records = np.arange(len(users)), []

    def sample(slates, probs, values, cache):
        # cumsum can undershoot 1.0 by an ulp; clip into the slate
        chosen = np.minimum(_sample_rows(probs, rng), slates.sizes - 1)
        records.append(StepRecord(cache, probs, values, chosen, slates.sizes))
        return rows, slates.actions(rows, chosen)

    walked = walk(policy, graph, table, users, max_actions, sample, user_scores)
    return records, reward_spec.terminal_reward(walked), walked


def episode_gradients(policy: PolicyModel, graph: KnowledgeGraph,
                      table: EmbeddingTable, users: list[int], user_scores: np.ndarray,
                      config: AgentConfig, reward_spec: RewardSpec,
                      rng: np.random.Generator, grads: list[np.ndarray] | None = None):
    """One rollout batch (``user_scores`` as in ``rollout_batch``) and the
    gradient of its loss
    mean_b sum_t [ -log pi(a_t) * (G_t - V_t) + (G_t - V_t)^2 - beta * H_t ],
    into ``grads`` (zeroed first) or fresh buffers. Returns (grads, rewards,
    the mean per-step entropy for the curve)."""
    records, rewards, walked = rollout_batch(policy, graph, table, users, user_scores,
                                             config.max_actions, reward_spec, rng)
    grads = policy.zero_grads(grads)
    rel_rows = np.vstack([table.relation_vecs, table.self_loop_vec])  # SELF_LOOP's last
    blocks = [records[0].cache.X]  # the state's blocks: each hop's relation, then entity
    for t, rec in enumerate(records[1:]):
        blocks += [rel_rows[walked.relations[:, t]], rec.cache.X]
    B = len(rewards)
    T = len(records)
    entropy_sum = 0.0
    for t, rec in enumerate(records):
        G = rewards * config.gamma ** (T - 1 - t)
        adv = G - rec.values
        p = rec.probs
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
        H = -(p * logp).sum(axis=1)
        entropy_sum += H.sum()
        # actor: (p - onehot) * adv ; entropy bonus: beta * p * (logp + H)
        dlogits = p * adv[:, None]
        dlogits[np.arange(B), rec.chosen] -= adv
        dlogits += config.entropy_coef * p * (logp + H[:, None])
        dlogits /= B
        # baseline: d/dV (G - V)^2 = -2 (G - V)
        dvalues = -2.0 * adv / B
        policy.backward(rec.cache, blocks[:2 * t + 1], dlogits, dvalues, grads)
    return grads, rewards, entropy_sum / (B * T)


def training_users(graph: KnowledgeGraph) -> list[int]:
    """Users with at least one training interaction, in id order."""
    return sorted(u for u, items in graph.interactions_by_user().items() if items)


def train_agent(graph: KnowledgeGraph, table: EmbeddingTable,
                reward_spec: RewardSpec, config: AgentConfig, seed: int = 0):
    """Train a policy, drawn from ``seed``, on the graph's users; returns
    (policy, history).

    History rows are (epoch, mean terminal reward, mean entropy), one per
    epoch. With ``epochs=0`` the freshly initialized policy is returned.
    The policy is returned frozen (``PolicyModel.freeze``).
    Embeddings are frozen here, so one ``start_scores`` row per user serves
    every epoch while the rows (users x entities floats) fit
    ``SCORE_ROWS_BYTES``; past that each batch scores its own users. Either
    way a row is the same ``score_all_tails`` call, so the bytes agree.
    """
    users = training_users(graph)
    if not users:
        raise EmptyGraph("no users with interactions to train on")
    policy = PolicyModel(table.dim, config, seed)
    opt = Adam(policy.params, lr=config.learning_rate)
    rng = rng_for(seed, "agent-train")
    grads = policy.zero_grads()
    keep = config.epochs and len(users) * table.entity_count * 8 <= SCORE_ROWS_BYTES
    scores = start_scores(graph, table, users) if keep else None
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(users))
        reward_sum, entropy_sum, n_episodes, n_batches = 0.0, 0.0, 0, 0
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            batch = [users[i] for i in rows]
            batch_scores = start_scores(graph, table, batch) if scores is None else scores[rows]
            _, rewards, entropy = episode_gradients(
                policy, graph, table, batch, batch_scores, config, reward_spec, rng,
                grads=grads)
            opt.step(grads)
            reward_sum += rewards.sum()
            entropy_sum += entropy
            n_episodes += len(batch)
            n_batches += 1
        history.append((epoch, reward_sum / n_episodes, entropy_sum / n_batches))
    return policy.freeze(), history


def write_history(history: list[tuple[int, float, float]], path: str,
                  config_hash: str = "", seed: int = 0):
    write_csv(path, f"config={config_hash} seed={seed}", ("epoch", "mean_reward", "mean_entropy"),
              ((epoch, float(reward), float(entropy)) for epoch, reward, entropy in history))
