"""Translational embeddings over a knowledge graph.

A triplet (h, r, t) is scored f(h, t | r) = <e_h + e_r, e_t> + b_t and the
conditional probability of the tail given (head, relation) is the softmax
of f over a candidate set. Training maximizes the log conditional
probability of stored triplets, approximated by sampled softmax over
corrupted tails of the same entity type (or computed exactly over all
type-compatible tails in ``full_softmax`` mode).

Everything is float64 numpy with a fixed summation order, so training is
bit-reproducible given the seed, the config, and the graph.

The training loop allocates no batch-sized array. ``train_embeddings``
makes one ``BatchScratch`` per run, and every batch gathers its query and
candidate rows into it, computes its gradients over them in place, and
builds its scatter indices there (numpy's ``out=`` arguments). A
multi-megabyte temporary per batch would be handed back to the kernel
when freed and faulted in again by the next batch; with the scratch,
pages are faulted once per run. Ids are range-checked before the
gathers, so a malformed batch ends in ``InvalidSpec`` or
``MissingEmbedding``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .artifacts import write_npz
from .errors import (EmptyCandidates, EmptyGraph, InvalidSpec, MissingEmbedding,
                     check_field_types)
from .graph import KnowledgeGraph
from .optim import Adam


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent deterministic stream per (seed, stage tag)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


@dataclass(frozen=True)
class EmbedTrainConfig:
    dim: int = 100
    epochs: int = 30
    learning_rate: float = 0.001
    batch_size: int = 512
    negatives: int = 5
    full_softmax: bool = False

    def __post_init__(self):
        check_field_types(type(self), vars(self))
        if self.dim < 1:
            raise InvalidSpec("embedding dim must be >= 1")
        if self.epochs < 0:
            raise InvalidSpec("epochs must be >= 0")
        if self.batch_size < 1 or self.negatives < 1:
            raise InvalidSpec("batch_size and negatives must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidSpec("learning_rate must be positive")


class EmbeddingTable:
    """Dense per-id vectors for entities and relations plus tail biases.

    Row i of ``entity_vecs`` belongs to entity id i of the graph the table
    was trained on. ``self_loop_vec`` is the null-relation vector used when
    encoding self-loop steps; no stored triplet involves it, so training
    leaves it at its initialization.
    """

    def __init__(self, entity_vecs: np.ndarray, entity_bias: np.ndarray,
                 relation_vecs: np.ndarray, self_loop_vec: np.ndarray):
        self.entity_vecs = entity_vecs
        self.entity_bias = entity_bias
        self.relation_vecs = relation_vecs
        self.self_loop_vec = self_loop_vec

    @property
    def dim(self) -> int:
        return self.entity_vecs.shape[1]

    @property
    def entity_count(self) -> int:
        return self.entity_vecs.shape[0]

    def entity_vec(self, e: int) -> np.ndarray:
        if not 0 <= e < self.entity_count:
            raise MissingEmbedding(f"entity id {e} has no embedding row")
        return self.entity_vecs[e]

    def relation_vec(self, r: int) -> np.ndarray:
        if not 0 <= r < self.relation_vecs.shape[0]:
            raise MissingEmbedding(f"relation id {r} has no embedding row")
        return self.relation_vecs[r]

    def bias(self, e: int) -> float:
        if not 0 <= e < self.entity_count:
            raise MissingEmbedding(f"entity id {e} has no bias")
        return float(self.entity_bias[e])

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entity_vecs.copy(), self.entity_bias.copy(),
                              self.relation_vecs.copy(), self.self_loop_vec.copy())

    def extended(self, vecs: np.ndarray) -> "EmbeddingTable":
        """A new table holding these rows, with zero biases, after this
        table's rows; this table is left untouched. One copy of the rows.

        Ids must stay aligned with graph ids, so the new rows belong to
        entities ``entity_count, entity_count + 1, ...`` in order.
        """
        if vecs.ndim != 2 or vecs.shape[1] != self.dim:
            raise InvalidSpec(f"expected {self.dim}-dim rows, got {vecs.shape}")
        return EmbeddingTable(np.concatenate([self.entity_vecs, vecs]),
                              np.concatenate([self.entity_bias, np.zeros(len(vecs))]),
                              self.relation_vecs.copy(), self.self_loop_vec.copy())


def init_table(graph: KnowledgeGraph, config: EmbedTrainConfig, seed: int = 0) -> EmbeddingTable:
    """Uniform(-0.5/d, 0.5/d) vectors, zero biases; draw order is fixed."""
    rng = rng_for(seed, "embed-init")
    d = config.dim
    half = 0.5 / d
    ent = rng.uniform(-half, half, size=(graph.entity_count, d))
    rel = rng.uniform(-half, half, size=(graph.relation_count, d))
    loop = rng.uniform(-half, half, size=d)
    bias = np.zeros(graph.entity_count)
    return EmbeddingTable(ent, bias, rel, loop)


def score_triplet(table: EmbeddingTable, head: int, relation: int, tail: int) -> float:
    """f(h, t | r) = <e_h + e_r, e_t> + b_t."""
    return float(np.dot(table.entity_vec(head) + table.relation_vec(relation),
                        table.entity_vec(tail)) + table.bias(tail))


def score_tails(table: EmbeddingTable, head: int, relation: int, tails: np.ndarray) -> np.ndarray:
    """Vectorized f(h, . | r) over an array of tail ids."""
    query = table.entity_vec(head) + table.relation_vec(relation)
    return table.entity_vecs[tails] @ query + table.entity_bias[tails]


def score_all_tails(table: EmbeddingTable, head: int, relation: int) -> np.ndarray:
    """f(h, . | r) over every entity row, read from the table in place.

    Bitwise equal to ``score_tails(table, head, relation, arange(N))`` but
    without gathering a copy of the whole entity table first.
    """
    query = table.entity_vec(head) + table.relation_vec(relation)
    return table.entity_vecs @ query + table.entity_bias


def conditional_prob(table: EmbeddingTable, head: int, relation: int, tail: int,
                     candidates) -> float:
    """Softmax probability of ``tail`` among ``candidates`` under f(h, . | r)."""
    cands = sorted(set(candidates))
    if not cands:
        raise EmptyCandidates("candidate set is empty")
    if tail not in set(cands):
        raise InvalidSpec("tail must be a member of the candidate set")
    scores = score_tails(table, head, relation, np.asarray(cands, dtype=np.intp))
    scores = scores - scores.max()
    exp = np.exp(scores)
    return float(exp[cands.index(tail)] / exp.sum())


def _type_pools(graph: KnowledgeGraph) -> dict[str, np.ndarray]:
    return {t: np.asarray(graph.entities_of_type(t), dtype=np.intp)
            for t in graph.schema.type_ids}


def _zero_grads(table: EmbeddingTable,
                grads: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Zeroed gradient buffers for the table: ``grads`` zeroed in place,
    or fresh buffers when none are given. The buffers are C-ordered, so
    ``_scatter_rows`` adds into them through flat views, not copies."""
    if grads is None:
        return {
            "entity_vecs": np.zeros(table.entity_vecs.shape),
            "entity_bias": np.zeros(table.entity_bias.shape),
            "relation_vecs": np.zeros(table.relation_vecs.shape),
        }
    for g in grads.values():
        g.fill(0.0)
    return grads


class BatchScratch:
    """Named work buffers that the batch kernels write into, batch after batch.

    Each name owns one flat array that only grows: ``view`` returns a
    C-ordered view of its first elements, so a batch no larger than one
    already seen allocates nothing. Two views of one name share memory,
    so a kernel is done with a buffer's contents before it asks for the
    name again.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < n:
            buf = self._flat[name] = np.empty(n, dtype=dtype)
        return buf[:n].reshape(shape)


def _check_ids(ids: np.ndarray, count: int, what: str):
    """Every id in ``ids`` has a row among ``count``; else MissingEmbedding."""
    if ids.min() < 0 or ids.max() >= count:
        bad = ids[(ids < 0) | (ids >= count)].flat[0]
        raise MissingEmbedding(f"{what} id {bad} has no embedding row")


def _check_batch(table: EmbeddingTable, triplets: np.ndarray):
    """A batch is a non-empty (n, 3) array of ids the table has rows for."""
    if triplets.ndim != 2 or triplets.shape[1] != 3 or len(triplets) == 0:
        raise InvalidSpec(f"a batch is a non-empty (n, 3) triplet array, got shape "
                          f"{triplets.shape}")
    _check_ids(triplets[:, 0::2], table.entity_count, "entity")
    _check_ids(triplets[:, 1], table.relation_vecs.shape[0], "relation")


def _scatter_rows(grad: np.ndarray, idx: np.ndarray, rows: np.ndarray,
                  scratch: BatchScratch | None = None):
    """``np.add.at(grad, idx, rows)`` as one call on the flattened table.

    Element (i, j) goes to flat index ``idx[i] * d + j``; the flat indices
    run row by row, so every element of ``grad`` receives its
    contributions in the order of ``idx``, as the 2-D call adds them.
    The flat index is built in ``scratch``'s index buffer (a fresh
    scratch when none is given); ``grad`` and ``rows`` are C-ordered, so
    their flat forms are views.
    """
    scratch = BatchScratch() if scratch is None else scratch
    d = grad.shape[1]
    flat = scratch.view("index", (len(idx), d), np.intp)
    np.multiply(idx[:, None], d, out=flat)
    flat += np.arange(d)
    np.add.at(grad.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def _accumulate_batch(table, grads, heads, rels, cand_ids, cand_mask, true_col, scale,
                      scratch: BatchScratch):
    """Softmax cross-entropy gradient for one batch of candidate slates.

    cand_ids: (B, C) tail ids per row; cand_mask: True where the slot is a
    real candidate; true_col: column index of the true tail per row.
    Gradients are scattered in a fixed order: the query gradient into the
    head rows and the relation rows, then the candidate gradients into
    the candidate rows and biases, each in row-major (b, c) order.

    The (B, d) and (B, C, d) arrays live in ``scratch``: the query, one
    (B, d) buffer that holds the gathered relation rows and then the query
    gradient, and one (B, C, d) buffer that holds the candidate rows and
    then their gradients. Only (B, C) arrays are allocated per call. The
    gathers clip rather than raise, because raising makes numpy gather
    into a hidden copy; the caller has range-checked heads and relations,
    and the candidates are checked here.
    """
    B, C = cand_ids.shape
    d = table.dim
    _check_ids(cand_ids, table.entity_count, "candidate")
    query = np.take(table.entity_vecs, heads, axis=0, out=scratch.view("query", (B, d)),
                    mode="clip")
    rel = np.take(table.relation_vecs, rels, axis=0, out=scratch.view("rel", (B, d)),
                  mode="clip")
    query += rel
    cand = np.take(table.entity_vecs, cand_ids, axis=0, out=scratch.view("cand", (B, C, d)),
                   mode="clip")
    scores = np.einsum("bcd,bd->bc", cand, query) + table.entity_bias[cand_ids]
    scores = np.where(cand_mask, scores, -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(B), true_col]).sum() * scale

    dscores = probs * scale
    dscores[np.arange(B), true_col] -= scale
    dquery = np.einsum("bc,bcd->bd", dscores, cand, out=rel)
    _scatter_rows(grads["entity_vecs"], heads, dquery, scratch)
    _scatter_rows(grads["relation_vecs"], rels, dquery, scratch)
    dcand = np.multiply(dscores[:, :, None], query[:, None, :], out=cand)
    _scatter_rows(grads["entity_vecs"], cand_ids.reshape(-1), dcand, scratch)
    np.add.at(grads["entity_bias"], cand_ids.reshape(-1), dscores.reshape(-1))
    return loss


def sampled_softmax_grads(table: EmbeddingTable, graph: KnowledgeGraph,
                          triplets: np.ndarray, pools: dict[str, np.ndarray],
                          negatives: int, rng: np.random.Generator,
                          grads: dict[str, np.ndarray] | None = None,
                          scratch: BatchScratch | None = None):
    """Mean negative log sampled-softmax probability and its gradients.

    Negatives are drawn uniformly from entities of the tail type; draws
    equal to the true tail are masked out of the slate. The gradients go
    into ``grads``, zeroed first, or into fresh buffers; the kernels work
    in ``scratch``, or in a fresh one. An empty batch raises InvalidSpec
    and an id without a table row MissingEmbedding.
    """
    _check_batch(table, triplets)
    grads = _zero_grads(table, grads)
    scratch = BatchScratch() if scratch is None else scratch
    B = len(triplets)
    heads, rels, tails = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    neg = np.empty((B, negatives), dtype=np.intp)
    for r_id in np.unique(rels):
        rows = np.nonzero(rels == r_id)[0]
        pool = pools[graph.schema.relations[r_id].tail_type]
        neg[rows] = pool[rng.integers(0, len(pool), size=(len(rows), negatives))]
    cand_ids = np.concatenate([tails[:, None], neg], axis=1)
    mask = np.ones_like(cand_ids, dtype=bool)
    mask[:, 1:] = neg != tails[:, None]
    loss = _accumulate_batch(table, grads, heads, rels, cand_ids, mask,
                             np.zeros(B, dtype=np.intp), 1.0 / B, scratch)
    return loss, grads


def full_softmax_grads(table: EmbeddingTable, graph: KnowledgeGraph,
                       triplets: np.ndarray, pools: dict[str, np.ndarray],
                       grads: dict[str, np.ndarray] | None = None,
                       scratch: BatchScratch | None = None):
    """Exact softmax over all type-compatible tails; mean loss and gradients
    (into ``grads``, zeroed first, or into fresh buffers; the kernels work
    in ``scratch``, or in a fresh one). An empty batch or a tail outside
    its relation's tail type raises InvalidSpec, an id without a table
    row MissingEmbedding."""
    _check_batch(table, triplets)
    grads = _zero_grads(table, grads)
    scratch = BatchScratch() if scratch is None else scratch
    B = len(triplets)
    loss = 0.0
    rels = triplets[:, 1]
    for r_id in np.unique(rels):
        rows = np.nonzero(rels == r_id)[0]
        relation = graph.schema.relations[r_id]
        pool = pools[relation.tail_type]
        pos = {e: i for i, e in enumerate(pool.tolist())}
        sub = triplets[rows]
        cand_ids = np.broadcast_to(pool, (len(rows), len(pool))).copy()
        try:
            true_col = np.asarray([pos[t] for t in sub[:, 2].tolist()], dtype=np.intp)
        except KeyError as e:
            raise InvalidSpec(f"tail id {e.args[0]} of relation {relation.name} is not of "
                              f"type {relation.tail_type}") from None
        mask = np.ones_like(cand_ids, dtype=bool)
        loss += _accumulate_batch(table, grads, sub[:, 0], sub[:, 1],
                                  cand_ids, mask, true_col, 1.0 / B, scratch)
    return loss, grads


def train_embeddings(graph: KnowledgeGraph, config: EmbedTrainConfig,
                     seed: int = 0) -> EmbeddingTable:
    """Train a table, drawn from ``seed``, on all stored triplets of ``graph``.

    With ``epochs=0`` the initialization is returned unchanged. The graph
    is read-only during training and may be shared.
    """
    if graph.triplet_count == 0:
        raise EmptyGraph("cannot train embeddings on a graph with no triplets")
    if config.full_softmax and graph.entity_count > 1000:
        raise InvalidSpec("full_softmax mode is limited to graphs with <= 1000 entities")
    table = init_table(graph, config, seed)
    triplets = np.stack(graph.triplet_arrays(), axis=1)
    pools = _type_pools(graph)
    params = [table.entity_vecs, table.relation_vecs, table.entity_bias]
    opt = Adam(params, lr=config.learning_rate)
    rng = rng_for(seed, "embed-train")
    grads = _zero_grads(table)
    scratch = BatchScratch()
    for _ in range(config.epochs):
        order = rng.permutation(len(triplets))
        for start in range(0, len(order), config.batch_size):
            batch = triplets[order[start:start + config.batch_size]]
            if config.full_softmax:
                full_softmax_grads(table, graph, batch, pools, grads=grads, scratch=scratch)
            else:
                sampled_softmax_grads(table, graph, batch, pools, config.negatives, rng,
                                      grads=grads, scratch=scratch)
            opt.step([grads["entity_vecs"], grads["relation_vecs"], grads["entity_bias"]])
    return table


def save_table(table: EmbeddingTable, graph: KnowledgeGraph, path: str,
               config_hash: str = "", seed: int = 0):
    """Snapshot keyed by symbol names and stamped; round-trips bit-exactly."""
    write_npz(
        path,
        entity_keys=np.asarray(graph.entity_keys()),
        relation_keys=np.asarray(list(graph.schema.relation_ids)),
        entity_vecs=table.entity_vecs,
        entity_bias=table.entity_bias,
        relation_vecs=table.relation_vecs,
        self_loop_vec=table.self_loop_vec,
        seed=np.asarray(seed),
        config_hash=np.asarray(config_hash),
    )


def load_table(path: str, graph: KnowledgeGraph) -> EmbeddingTable:
    """Load a snapshot whose entity and relation keys match ``graph``'s and
    whose arrays have one row per key: ``entity_vecs`` (entities, d),
    ``entity_bias`` (entities,), ``relation_vecs`` (relations, d) and
    ``self_loop_vec`` (d,), else MissingEmbedding."""
    with np.load(path, allow_pickle=False) as data:
        keys, want = data["entity_keys"].tolist(), graph.entity_keys()
        if len(keys) < len(want) or tuple(keys[:len(want)]) != want:
            raise MissingEmbedding(f"snapshot {path} does not match the graph's entities")
        relations = data["relation_keys"].tolist()
        if relations != list(graph.schema.relation_ids):
            raise MissingEmbedding(f"snapshot {path} does not match the graph's relations")
        arrays = {name: data[name] for name in
                  ("entity_vecs", "entity_bias", "relation_vecs", "self_loop_vec")}
    vecs = arrays["entity_vecs"]
    d = vecs.shape[1] if vecs.ndim == 2 else 0
    shapes = {"entity_vecs": (len(keys), d), "entity_bias": (len(keys),),
              "relation_vecs": (len(relations), d), "self_loop_vec": (d,)}
    for name, shape in shapes.items():
        if not d or arrays[name].shape != shape:
            raise MissingEmbedding(f"snapshot {path}: {name} is of shape {arrays[name].shape}, "
                                   f"not {shape if d else '(entities, d)'}")
    return EmbeddingTable(*arrays.values())
