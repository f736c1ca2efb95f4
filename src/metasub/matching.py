"""Maximum-weight bipartite matching of a fixed cardinality.

The best k-pair matching grows one pair per round by successive shortest
augmenting paths (Ahuja, Magnanti and Orlin, *Network Flows*, 1993). On the
costs max(w) - w, each round runs Dijkstra from every free row at once over
the reduced costs max(w) - w - u - v, lifts the row potentials u and column
potentials v by the distances it found, and augments along the path to the
nearest free column. After round t the matching is a best t-matching, so k
rounds give a best k-matching with no padding and no repair.

Tie rule, which fixes the pairs when several matchings share the best weight:
Dijkstra settles the lowest column among equal distances, and a column's
predecessor row changes only on a strict improvement (it starts as the lowest
free row among equal reduced costs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Matching:
    pairs: list[tuple[int, int]]
    total_weight: float

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs], "total_weight": self.total_weight}


def max_weight_matching_k(weights, k: int) -> Matching:
    """Best matching with exactly k pairs in a complete bipartite graph.

    weights[i, j] is the weight of edge (left i, right j); entries may be
    negative. Requires 0 <= k <= min(#left, #right).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValidationError(f"weight matrix must be 2-d, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weight matrix contains non-finite entries")
    left, right = w.shape
    if not 0 <= k <= min(left, right):
        raise ValidationError(f"cardinality {k} outside [0, {min(left, right)}]")
    if k == 0:
        return Matching([], 0.0)

    # scaled by a power of two: exact short of subnormal results, so no
    # comparison changes, and no cost, potential or distance can overflow
    scaled = np.ldexp(w, -int(np.frexp(np.abs(w).max())[1]))
    cost = scaled.max() - scaled
    u = np.zeros(left)  # row potentials; a free row's is u_free
    v = np.zeros(right)  # column potentials
    u_free = 0.0
    col_of = [-1] * left  # -1 marks a free row or column
    row_of = [-1] * right
    better = np.empty(right, dtype=bool)
    for _ in range(k):
        free = np.array([i for i in range(left) if col_of[i] < 0])
        block = cost[free]
        top = block.argmin(axis=0)
        dist = block[top, np.arange(right)] - v - u_free
        pred = free[top]
        v_open = v.copy()  # -inf once a column is settled, so it never improves
        cols, final = [], []  # settled columns and their distances
        while True:
            j = int(dist.argmin())
            cols.append(j)
            final.append(dist[j])
            dist[j], v_open[j] = np.inf, -np.inf
            i = row_of[j]
            if i < 0:
                break
            # a matched column passes on to its row at zero reduced cost
            through = cost[i] - v_open
            through += final[-1] - u[i]
            np.less(through, dist, out=better)
            np.copyto(dist, through, where=better)
            np.copyto(pred, i, where=better)
        # lift the potentials so every reduced cost stays non-negative and the
        # path tight; the free rows, and the row leaving them, rise by the path length
        lift = final[-1] - np.array(final)
        v[cols] -= lift
        u[[row_of[c] for c in cols[:-1]]] += lift[:-1]
        u_free += final[-1]
        while j >= 0:
            i = int(pred[j])
            row_of[j], col_of[i], j = i, j, col_of[i]
        u[i] = u_free  # the path's free row, now matched

    pairs = sorted((i, j) for i, j in enumerate(col_of) if j >= 0)
    total = float(sum(w[p] for p in pairs))
    return Matching(pairs, total)


def exhaustive_matching(w: np.ndarray, k: int) -> float:
    """Brute-force best weight of an exactly-k matching; test oracle only."""
    if k == 0:
        return 0.0
    rows, cols = w.shape
    best = -np.inf
    for rsub in itertools.combinations(range(rows), k):
        for csub in itertools.permutations(range(cols), k):
            best = max(best, sum(w[i, j] for i, j in zip(rsub, csub)))
    return float(best)
