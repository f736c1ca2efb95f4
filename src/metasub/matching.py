"""Maximum-weight bipartite matching of a fixed cardinality.

The cardinality-k problem reduces to a square assignment: pad the right side
with dummy columns whose uniform weight equals the maximum entry, so every
optimal assignment prefers dummies and leaves exactly k real edges. Ties can
still over-select real edges of weight equal to the dummy weight, so the
lowest-weight excess real edges are dropped afterwards.

scipy.optimize is imported at the first matching, not here: it is about 0.5 s
of start-up that commands which never solve a matching would pay.
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

    from scipy.optimize import linear_sum_assignment

    dummy = float(w.max())
    padded = np.full((left, right + (left - k)), dummy)
    padded[:, :right] = w
    rows, cols = linear_sum_assignment(padded, maximize=True)
    pairs = sorted((int(i), int(j)) for i, j in zip(rows, cols) if j < right)
    if len(pairs) > k:
        # only weight-dummy ties can land here; drop the cheapest extras
        pairs.sort(key=lambda p: w[p])
        pairs = sorted(pairs[len(pairs) - k:])
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
