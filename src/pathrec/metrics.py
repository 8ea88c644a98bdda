"""Ranking and cold-start metrics.

``evaluate_run`` scores lists with the array kernels: a model's lists are
a (users x k) matrix of integer item columns, -1 past a list's end, and
each column has one popularity, with binary relevance. POPB normalizes
each user's recommended popularity mass by the best achievable mass for
that user, the mass of the k most popular items outside the user's
training items (``first_outside``); the popularity baseline's own lists
therefore score exactly 1.0.

Every sum runs left to right in a fixed order: per-user sums in rank
order and totals in user order through ``np.cumsum``, where ``np.sum``
would add runs of 8 or more terms pairwise. The scalar functions, which
score one list of hashable item keys (the benchmark's quality numbers),
add left to right too (``functools.reduce``), not with the built-in
``sum``, which Python 3.12 made compensated. So a kernel's row holds the
bits of its scalar counterpart on every Python version.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from functools import reduce
from itertools import chain

import numpy as np

from .errors import EmptyColdSet, InvalidSpec


def ndcg_at_k(recommended: Sequence[Hashable], relevant: set, k: int) -> float:
    """Binary-relevance nDCG@k with 1/log2(rank+1) discounts."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    if not relevant:
        return 0.0
    dcg = reduce(operator.add, (1.0 / math.log2(rank + 1)
                                for rank, item in enumerate(recommended[:k], start=1)
                                if item in relevant), 0.0)
    ideal = reduce(operator.add, (1.0 / math.log2(rank + 1)
                                  for rank in range(1, min(k, len(relevant)) + 1)), 0.0)
    return dcg / ideal


def hit_at_k(recommended: Sequence[Hashable], relevant: set, k: int) -> float:
    """1.0 if any of the top-k items is relevant, else 0.0."""
    if k < 1:
        raise InvalidSpec("k must be >= 1")
    return 1.0 if any(item in relevant for item in recommended[:k]) else 0.0


def cold_item_coverage(recs_per_user: Mapping[Hashable, Sequence[Hashable]],
                       cold_items: set, k: int) -> float:
    """Fraction of cold items that appear in at least one top-k list."""
    if not cold_items:
        raise EmptyColdSet("coverage is undefined for an empty cold-item set")
    seen = set()
    for recs in recs_per_user.values():
        seen.update(item for item in recs[:k] if item in cold_items)
    return len(seen) / len(cold_items)


# -- array kernels ----------------------------------------------------------------


def popularity_order(names: Sequence[str], counts: np.ndarray) -> np.ndarray:
    """The columns of ``names`` (with training ``counts``) most popular
    first, ties by name: the popularity baseline's order."""
    by_name = np.asarray(sorted(range(len(names)), key=names.__getitem__), dtype=np.intp)
    return by_name[np.argsort(-np.asarray(counts)[by_name], kind="stable")]


def column_matrix(lists: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """The (len(lists) x k) matrix of ``lists``, each at most k columns
    long, one per row, -1 after its end."""
    sizes = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    out = np.full((len(lists), k), -1, dtype=np.intp)
    out[np.arange(k) < sizes[:, None]] = np.fromiter(chain.from_iterable(lists), dtype=np.intp,
                                                      count=int(sizes.sum()))
    return out


class ColumnSets:
    """One set of columns per row, from the (row, column) pairs ``rows``
    and ``cols`` (repeats allowed) over ``n_rows`` rows, kept as the
    sorted keys row * width + column; every column is below ``width``."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n_rows: int, width: int):
        self.width = width
        self.keys = np.unique(np.asarray(rows, dtype=np.int64) * width + cols)
        self.sizes = np.bincount(self.keys // width, minlength=n_rows)

    def contains(self, matrix: np.ndarray) -> np.ndarray:
        """Whether each entry of ``matrix`` (one row per set; -1 for none)
        is in its row's set."""
        if not len(self.keys):
            return np.zeros(matrix.shape, dtype=bool)
        query = np.arange(len(matrix), dtype=np.int64)[:, None] * self.width + matrix
        at = np.searchsorted(self.keys, query).clip(max=len(self.keys) - 1)
        return (matrix >= 0) & (self.keys[at] == query)


def first_outside(order: np.ndarray, k: int, exclude: ColumnSets) -> np.ndarray:
    """Each row's first k columns of ``order`` outside its ``exclude`` set,
    as a column matrix: the popularity baseline's list, or the k most
    popular items a POPB normalizer sums, per row. A row leaves out
    at most its set's size of the columns it passes, so the first k + size
    columns of ``order`` hold its list."""
    n_rows = len(exclude.sizes)
    head = order[:k + int(exclude.sizes.max(initial=0))]
    keep = ~exclude.contains(np.broadcast_to(head, (n_rows, len(head))))
    rank = np.cumsum(keep, axis=1)
    rows, at = np.nonzero(keep & (rank <= k))
    out = np.full((n_rows, k), -1, dtype=np.intp)
    out[rows, rank[rows, at] - 1] = head[at]
    return out


def hit_rows(hits: np.ndarray) -> np.ndarray:
    """``hit_at_k`` per row of a (users x k) relevance matrix."""
    return hits.any(axis=1).astype(float)


def ndcg_rows(hits: np.ndarray, n_relevant: np.ndarray) -> np.ndarray:
    """``ndcg_at_k`` per row of a (users x k) relevance matrix, given each
    user's number of distinct relevant items."""
    k = hits.shape[1]
    discount = np.asarray([1.0 / math.log2(rank + 1) for rank in range(1, k + 1)])
    dcg = np.cumsum(np.where(hits, discount, 0.0), axis=1)[:, -1]
    ideal = np.cumsum(discount)[np.clip(n_relevant, 1, k) - 1]
    return np.where(n_relevant > 0, dcg / ideal, 0.0)


def mass_rows(matrix: np.ndarray, popularity: np.ndarray) -> np.ndarray:
    """Each row's summed popularity over its columns."""
    return np.where(matrix >= 0, popularity[matrix], 0).sum(axis=1)


def popb_mean(mass: np.ndarray, best: np.ndarray) -> float:
    """Mean POPB of users with recommended popularity ``mass`` and best
    achievable mass ``best``, in user order (a user with ``best`` 0
    counts 0)."""
    if not len(mass):
        return 0.0
    ratio = np.divide(mass, best, out=np.zeros(len(mass)), where=best > 0)
    return float(np.cumsum(ratio)[-1] / len(ratio))


def _cold_entries(matrix: np.ndarray, is_cold: np.ndarray) -> np.ndarray:
    return (matrix >= 0) & is_cold[matrix]


def cold_coverage(matrix: np.ndarray, is_cold: np.ndarray, n_cold: int) -> float:
    """``cold_item_coverage`` of a column matrix; ``is_cold`` marks the
    columns of the ``n_cold`` cold items."""
    if not n_cold:
        raise EmptyColdSet("coverage is undefined for an empty cold-item set")
    return len(np.unique(matrix[_cold_entries(matrix, is_cold)])) / n_cold


def cold_proportion(matrix: np.ndarray, is_cold: np.ndarray) -> float:
    """Mean per-user share of the k columns of a (users x k) column
    matrix that are cold, in user order. The divisor is k even when a
    list is shorter, so sparse lists are not rewarded."""
    if not len(matrix):
        return 0.0
    share = _cold_entries(matrix, is_cold).sum(axis=1) / matrix.shape[1]
    return float(np.cumsum(share)[-1] / len(matrix))


def pattern_report(signature_labels: Iterable[str]) -> list[tuple[str, float]]:
    """Percentage histogram over chosen-path signatures, descending.

    Percentages sum to 100 (within float error) whenever any path exists.
    """
    counts = Counter(signature_labels)
    total = counts.total()
    if total == 0:
        return []
    return sorted(((label, 100.0 * c / total) for label, c in counts.items()),
                  key=lambda kv: (-kv[1], kv[0]))
