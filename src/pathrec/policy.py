"""Feed-forward policy with a scalar baseline, trained by REINFORCE.

The actor maps an encoded path state to one logit per action slot (slot 0
is the self-loop, the rest follow the canonical move order); invalid slots
are masked to -inf before the softmax. Reward is terminal-only and
discounted backward; the learned baseline is fit by squared error and an
entropy bonus keeps exploration alive. All math is float64 numpy, so
training is deterministic given the seed.

A rollout batch walks one ``mdp.Frontier`` row per user and scores every
row's terminal reward in one ``RewardSpec.terminal_reward`` call on the
walked arrays; no per-path objects are built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv, write_npz
from .embeddings import EmbeddingTable, rng_for, score_all_tails
from .errors import EmptyGraph, InvalidAction, InvalidSpec, MissingEmbedding
from .graph import KnowledgeGraph
from .mdp import MAX_ACTIONS_DEFAULT, Frontier, RewardSpec
from .optim import Adam


@dataclass(frozen=True)
class AgentConfig:
    hop_budget: int = 3
    max_actions: int = MAX_ACTIONS_DEFAULT
    hidden: tuple[int, int] = (512, 256)
    epochs: int = 50
    learning_rate: float = 0.001
    batch_size: int = 64
    episodes_per_user: int = 1
    gamma: float = 0.99
    entropy_coef: float = 1e-3
    seed: int = 0
    reward: str = "upgpr"

    def validate(self):
        if self.hop_budget < 1:
            raise InvalidSpec("hop_budget must be >= 1")
        if self.max_actions < 1:
            raise InvalidSpec("max_actions must be >= 1")
        if self.epochs < 0:
            raise InvalidSpec("epochs must be >= 0")
        if not 0 < self.gamma <= 1:
            raise InvalidSpec("gamma must be in (0, 1]")
        if self.reward not in ("upgpr", "pgpr"):
            raise InvalidSpec(f"unknown reward mode {self.reward!r}")
        if len(self.hidden) != 2:
            raise InvalidSpec("policy uses exactly two hidden layers")


K_BLOCK = 256    # the widest K one product sums
HEAD_ALIGN = 8   # the actor head's product width is a multiple of this
PARAM_NAMES = ("W1", "b1", "W2", "b2", "W3", "b3", "Wv", "bv")  # of ``params``, in order


def _matmul(A: np.ndarray, W: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
    """``acc + A @ W`` (``A @ W`` without ``acc``), K summed left to right in
    blocks of at most ``K_BLOCK`` columns; ``acc`` itself is left as it is."""
    for start in range(0, A.shape[1], K_BLOCK):
        part = A[:, start:start + K_BLOCK] @ W[start:start + K_BLOCK]
        acc = part if acc is None else np.add(acc, part, out=part)
    return acc


class ForwardCache(NamedTuple):
    X: np.ndarray     # the live state prefixes
    sum1: np.ndarray  # first-layer sums before the bias: the next hop's carry
    h1: np.ndarray
    h2: np.ndarray


class PolicyModel:
    """Two ReLU hidden layers; actor and baseline heads share the trunk."""

    def __init__(self, state_dim: int, config: AgentConfig):
        config.validate()
        if state_dim < 1 or state_dim % (1 + 2 * config.hop_budget):
            raise InvalidSpec(f"state_dim {state_dim} is no whole number of blocks "
                              f"for {config.hop_budget} hops")
        self.config = config
        self.state_dim = state_dim
        self.slate_size = 1 + config.max_actions
        h1, h2 = config.hidden
        rng = rng_for(config.seed, "policy-init")
        def layer(fan_in, fan_out):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        self.W1 = layer(state_dim, h1)
        self.b1 = np.zeros(h1)
        self.W2 = layer(h1, h2)
        self.b2 = np.zeros(h2)
        self._W3 = np.zeros((h2, -(-self.slate_size // HEAD_ALIGN) * HEAD_ALIGN))
        self.W3 = self._W3[:, :self.slate_size]
        self.W3[...] = layer(h2, self.slate_size)
        self.b3 = np.zeros(self.slate_size)
        self.Wv = layer(h2, 1)[:, 0]
        self.bv = np.zeros(1)

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2, self.W3, self.b3, self.Wv, self.bv]

    def forward(self, X: np.ndarray, slate_sizes: np.ndarray,
                carry: np.ndarray | None = None):
        """Masked action probabilities, baseline values, and a backward cache.

        ``X`` holds each row's live state prefix (``Frontier.encode``): at
        hop t the first k = (1 + 2t)·d columns of a ``state_dim``-wide
        state, whose other columns are zero. Every sum has one fixed order.
        A row's first-layer sum is ``carry`` (its parent's ``cache.sum1``,
        gathered by parent row; zero when None) plus one product per new
        d-wide block, left to right, and then the bias; with a carry the new
        blocks are X's last two, the hop's relation and entity, without one
        all of X's. Every product sums K in blocks of at most ``K_BLOCK``
        columns, left to right (W2 in two halves), and the actor head is
        computed over ``W3``'s buffer, zero-padded to a multiple of
        ``HEAD_ALIGN`` columns. OpenBLAS splits a wider K, or an output width
        off its 8-column grid, by the thread count; products of these shapes
        give the same bits at any count, so the bytes do not depend on it.
        """
        k = X.shape[1]
        d = self.state_dim // (1 + 2 * self.config.hop_budget)
        if k > self.state_dim or k % d or (k // d) % 2 == 0:
            raise InvalidSpec(f"a {k}-wide state is no live prefix of the policy's "
                              f"{self.state_dim}-wide state of {d}-dim blocks")
        if carry is not None and (k == d or carry.shape != (len(X), len(self.b1))):
            raise InvalidSpec(f"a {carry.shape} carry is no parent sum of {len(X)} "
                              f"{k}-wide states")
        sum1 = carry
        for start in range(0 if carry is None else k - 2 * d, k, d):
            sum1 = _matmul(X[:, start:start + d], self.W1[start:start + d], sum1)
        h1 = sum1 + self.b1
        np.maximum(h1, 0.0, out=h1)
        h2 = _matmul(h1, self.W2)
        h2 += self.b2
        np.maximum(h2, 0.0, out=h2)
        logits = _matmul(h2, self._W3)[:, :self.slate_size]
        logits += self.b3
        logits[np.arange(self.slate_size) >= slate_sizes[:, None]] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits, out=logits)
        probs /= probs.sum(axis=1, keepdims=True)
        values = _matmul(h2, self.Wv) + self.bv[0]
        return probs, values, ForwardCache(X, sum1, h1, h2)

    def backward(self, cache: ForwardCache, dlogits: np.ndarray, dvalues: np.ndarray,
                 grads: list[np.ndarray]):
        """Accumulate parameter gradients for one cached forward pass, in
        the forward's summation order. The cached state is a k-column
        prefix, so ``W1``'s gradient rows beyond k stay exact zeros."""
        X, _, h1, h2 = cache
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
        grads[0][:X.shape[1]] += _matmul(X.T, dz1)
        grads[1] += dz1.sum(axis=0)

    def zero_grads(self, grads: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """One zeroed gradient buffer per parameter: ``grads`` zeroed in
        place, or fresh buffers when none are given."""
        if grads is None:
            return [np.zeros_like(p) for p in self.params]
        for g in grads:
            g.fill(0.0)
        return grads

    def save(self, path: str, config_hash: str = ""):
        cfg = asdict(self.config)
        cfg["hidden"] = list(cfg["hidden"])
        write_npz(path, **dict(zip(PARAM_NAMES, self.params)),
                  state_dim=np.asarray(self.state_dim),
                  config=np.asarray(json.dumps(cfg, sort_keys=True)),
                  seed=np.asarray(self.config.seed),
                  config_hash=np.asarray(config_hash))

    @classmethod
    def load(cls, path: str) -> "PolicyModel":
        with np.load(path, allow_pickle=False) as data:
            cfg = json.loads(str(data["config"]))
            cfg["hidden"] = tuple(cfg["hidden"])
            model = cls(int(data["state_dim"]), AgentConfig(**cfg))
            for name, param in zip(PARAM_NAMES, model.params):
                param[...] = data[name]
        return model


def state_dim_for(table: EmbeddingTable, hop_budget: int) -> int:
    return (1 + 2 * hop_budget) * table.dim


def check_walk(policy: PolicyModel | None, graph: KnowledgeGraph, table: EmbeddingTable,
               hops: int, max_actions: int):
    """Raise unless ``table`` scores every entity of ``graph`` and, given a
    policy, ``hops``-hop walks over ``table`` encode the policy's states
    (so each state prefix meets the right rows of W1) and slates of
    ``max_actions`` moves fit its slate."""
    if policy is not None:
        cfg = policy.config
        if hops != cfg.hop_budget or state_dim_for(table, hops) != policy.state_dim:
            raise InvalidSpec(
                f"{hops}-hop walks over {table.dim}-dim embeddings encode "
                f"{state_dim_for(table, hops)}-wide states; the policy takes "
                f"{cfg.hop_budget} hops and {policy.state_dim}-wide states")
        if max_actions > cfg.max_actions:
            raise InvalidSpec(f"max_actions {max_actions} exceeds the policy's slate of "
                              f"{cfg.max_actions} actions")
    if table.entity_count < graph.entity_count:
        raise MissingEmbedding(f"table has {table.entity_count} entity rows, "
                               f"the graph {graph.entity_count} entities")


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row."""
    u = rng.random(probs.shape[0])
    return (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)


@dataclass
class StepRecord:
    cache: ForwardCache | None
    probs: np.ndarray
    values: np.ndarray
    chosen: np.ndarray
    slate_sizes: np.ndarray


def rollout_batch(policy: PolicyModel | None, graph: KnowledgeGraph,
                  table: EmbeddingTable, users: list[int], hop_budget: int,
                  max_actions: int, reward_spec: RewardSpec,
                  rng: np.random.Generator,
                  forced_actions: list[list[int]] | None = None):
    """Walk one episode per user; returns (step records, rewards, walked
    frontier): row b of the ``hop_budget``-hop frontier is user b's path.

    With ``policy=None`` the behavior policy is uniform over each slate
    (records then carry no caches). ``forced_actions[t][b]`` overrides
    sampling with a fixed slot index, used for exact expectation tests.
    """
    if not len(users):
        raise InvalidSpec("rollouts need at least one user")
    check_walk(policy, graph, table, hop_budget, max_actions)
    # One score vector per start user funds the slate truncation for the
    # whole episode; embeddings are frozen so it never changes mid-walk.
    rel = graph.interaction_relation
    score_row = {u: i for i, u in enumerate(dict.fromkeys(users))}
    scores = np.empty((len(score_row), table.entity_count))
    for u, i in score_row.items():
        scores[i] = score_all_tails(table, u, rel)
    score_rows = np.asarray([score_row[u] for u in users], dtype=np.intp)
    frontier = Frontier.start(users)
    rows = np.arange(len(users))
    records: list[StepRecord] = []
    carry = None
    for t in range(hop_budget):
        slates = frontier.slates(graph, max_actions, scores, score_rows)
        sizes = slates.sizes
        if policy is not None:
            probs, values, cache = policy.forward(frontier.encode(table), sizes, carry)
            carry = cache.sum1  # rows keep their order: each carries its own sum
        else:
            mask = np.arange(max(sizes.max(), 1)) < sizes[:, None]
            probs = mask / sizes[:, None]
            values = np.zeros(len(users))
            cache = None
        if forced_actions is not None:
            chosen = np.asarray(forced_actions[t], dtype=np.intp)
            if np.any((chosen < 0) | (chosen >= sizes)):
                raise InvalidAction(f"forced slot outside the slate at hop {t}")
        else:
            # cumsum can undershoot 1.0 by an ulp; clip into the slate
            chosen = np.minimum(_sample_rows(probs, rng), sizes - 1)
        records.append(StepRecord(cache, probs, values, chosen, sizes))
        frontier = frontier.advance(rows, *slates.actions(rows, chosen))
    return records, reward_spec.terminal_reward(frontier), frontier


def _apply_reinforce_grads(policy: PolicyModel, records: list[StepRecord],
                           rewards: np.ndarray, gamma: float, entropy_coef: float,
                           grads: list[np.ndarray]):
    """Gradient of the batch loss
    mean_b sum_t [ -log pi(a_t) * (G_t - V_t) + (G_t - V_t)^2 - beta * H_t ].
    Returns the mean per-step entropy for the curve."""
    B = len(rewards)
    T = len(records)
    entropy_sum = 0.0
    for t, rec in enumerate(records):
        G = rewards * gamma ** (T - 1 - t)
        adv = G - rec.values
        p = rec.probs
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
        H = -(p * logp).sum(axis=1)
        entropy_sum += H.sum()
        # actor: (p - onehot) * adv ; entropy bonus: beta * p * (logp + H)
        dlogits = p * adv[:, None]
        dlogits[np.arange(B), rec.chosen] -= adv
        dlogits += entropy_coef * p * (logp + H[:, None])
        dlogits /= B
        # baseline: d/dV (G - V)^2 = -2 (G - V)
        dvalues = -2.0 * adv / B
        policy.backward(rec.cache, dlogits, dvalues, grads)
    return entropy_sum / (B * T)


def episode_gradients(policy: PolicyModel, graph: KnowledgeGraph,
                      table: EmbeddingTable, users: list[int], config: AgentConfig,
                      reward_spec: RewardSpec, rng: np.random.Generator,
                      forced_actions: list[list[int]] | None = None,
                      grads: list[np.ndarray] | None = None):
    """One rollout batch and its REINFORCE gradients (exposed for tests).

    The gradients go into ``grads``, zeroed first, or into fresh buffers.
    """
    records, rewards, _ = rollout_batch(policy, graph, table, users,
                                        config.hop_budget, config.max_actions,
                                        reward_spec, rng, forced_actions)
    grads = policy.zero_grads(grads)
    entropy = _apply_reinforce_grads(policy, records, rewards, config.gamma,
                                     config.entropy_coef, grads)
    return grads, rewards, entropy


def training_users(graph: KnowledgeGraph) -> list[int]:
    """Users with at least one training interaction, in id order."""
    return sorted(u for u, items in graph.interactions_by_user().items() if items)


def train_agent(graph: KnowledgeGraph, table: EmbeddingTable,
                reward_spec: RewardSpec, config: AgentConfig):
    """Train a policy on the graph's users; returns (policy, history).

    History rows are (epoch, mean terminal reward, mean entropy), one per
    epoch. With ``epochs=0`` the freshly initialized policy is returned.
    """
    config.validate()
    users = training_users(graph)
    if not users:
        raise EmptyGraph("no users with interactions to train on")
    policy = PolicyModel(state_dim_for(table, config.hop_budget), config)
    opt = Adam(policy.params, lr=config.learning_rate)
    rng = rng_for(config.seed, "agent-train")
    grads = policy.zero_grads()
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(users))
        reward_sum, entropy_sum, n_episodes, n_batches = 0.0, 0.0, 0, 0
        for _ in range(config.episodes_per_user):
            for start in range(0, len(order), config.batch_size):
                batch = [users[i] for i in order[start:start + config.batch_size]]
                _, rewards, entropy = episode_gradients(
                    policy, graph, table, batch, config, reward_spec, rng, grads=grads)
                opt.step(grads)
                reward_sum += rewards.sum()
                entropy_sum += entropy
                n_episodes += len(batch)
                n_batches += 1
        history.append((epoch, reward_sum / n_episodes, entropy_sum / n_batches))
    return policy, history


def evaluate_mean_reward(policy: PolicyModel | None, graph: KnowledgeGraph,
                         table: EmbeddingTable, users: list[int],
                         hop_budget: int, max_actions: int,
                         reward_spec: RewardSpec, seed: int,
                         episodes: int = 1) -> float:
    """Mean terminal reward of stochastic rollouts; ``policy=None`` is the
    uniform-random baseline. The rollout seed stream depends only on
    ``seed``, so two policies can be measured on the same episode draws."""
    if episodes < 1:
        raise InvalidSpec(f"episodes must be >= 1, got {episodes}")
    rng = rng_for(seed, "reward-eval")
    total = 0.0
    for _ in range(episodes):
        _, rewards, _ = rollout_batch(policy, graph, table, users, hop_budget,
                                      max_actions, reward_spec, rng)
        total += rewards.mean()
    return total / episodes


def write_history(history: list[tuple[int, float, float]], path: str,
                  config_hash: str = "", seed: int = 0):
    write_csv(path, f"config={config_hash} seed={seed}", ("epoch", "mean_reward", "mean_entropy"),
              ((epoch, float(reward), float(entropy)) for epoch, reward, entropy in history))
