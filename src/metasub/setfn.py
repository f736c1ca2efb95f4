"""Set-function oracles over bitmask subsets of a ground set {0, ..., n-1}.

Every oracle is normalized so that the empty set evaluates to 0. It answers
f(S), f at every set one drop, add or swap from S (neighbourhood) and f at
every pair (pair_values) on Python-int masks, for any n, and grows a set to
a matroid base by greedy gain (greedy_extend). The 2^n value table,
from which diag.ExactTables takes every first and second difference and
search.brute_force_opt its optimum, serves only that exhaustive layer and
stops at TABLE_GUARD.
"""

from __future__ import annotations

import math
import operator
import reprlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import metric
from .errors import GuardError, ValidationError

if TYPE_CHECKING:
    from .matroid import MatroidOracle

TABLE_GUARD = 20  # largest n for anything that visits all 2^n subsets


def check_integer(value, what: str) -> int:
    """A count or index: fractions, booleans and strings are rejected rather
    than truncated; integer types (numpy's too) come back as int."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {reprlib.repr(value)}")


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for v in elements:
        m |= 1 << operator.index(v)
    return m


def elements_of(mask: int) -> list[int]:
    out = []
    mask = int(mask)
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def split(mask: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Elements of S = mask and of its complement, ascending (elements_of order),
    once check_mask has accepted the mask."""
    check_mask(mask, n)
    raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    member = np.unpackbits(raw, count=n, bitorder="little").view(bool)
    return member.nonzero()[0], (~member).nonzero()[0]


def check_exhaustive(n: int, what: str) -> None:
    """The one bound on anything that visits all 2^n subsets."""
    if n > TABLE_GUARD:
        raise GuardError(f"{what} needs n <= {TABLE_GUARD}, got {n}")


def check_mask(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValidationError(f"mask {mask:#x} out of range for ground set of size {n}")


class SetFunctionOracle:
    """Base oracle: deterministic, immutable, f(empty)=0."""

    kind = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"ground set size {n} is below 1")
        self.n = n
        self._table: np.ndarray | None = None

    def value(self, mask: int) -> float:
        raise NotImplementedError

    def _check_finite_total(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            total = self.value((1 << self.n) - 1)
        if not math.isfinite(total):
            raise ValidationError(f"{self.kind} value of the whole ground set is {total!r}, "
                                  "not a finite number")

    def neighbourhood(self, mask: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """f(S) for S = mask, bit-equal to value(S), then f(S-i) for i in S,
        f(S+j) for j not in S, and the |S| x |S-bar| matrix of f(S-i+j), in
        elements_of order.

        One value call per entry: the reference that closed-form overrides
        must match.
        """
        current = self.value(mask)
        inside, outside = (bits.tolist() for bits in split(mask, self.n))
        drop = np.array([self.value(mask ^ (1 << i)) for i in inside], dtype=float)
        add = np.array([self.value(mask | (1 << j)) for j in outside], dtype=float)
        swap = np.array([self.value((mask ^ (1 << i)) | (1 << j))
                         for i in inside for j in outside], dtype=float)
        return current, drop, add, swap.reshape(len(inside), len(outside))

    def pair_values(self) -> np.ndarray:
        """The n x n matrix of f({i, j}) for i != j, with a zero diagonal.

        Row i is read from neighbourhood({i}): the reference that
        closed-form overrides must match.
        """
        values = np.zeros((self.n, self.n))
        off_diagonal = ~np.eye(self.n, dtype=bool)
        for i in range(self.n):
            values[i, off_diagonal[i]] = self.neighbourhood(1 << i)[2]
        return values

    def greedy_extend(self, M: MatroidOracle, mask: int) -> int:
        """Base of M containing the independent set S = mask, grown one
        element at a time by the largest f(S + j) among the j that M lets join
        (the first in index order on a tie). It stops at the rank, so the
        base's neighbourhood is left to the local search.

        Reads f(S + j) from neighbourhood(S): the reference that the overrides
        must match.
        """
        check_mask(mask, self.n)  # at the rank already, no split reads it
        while mask.bit_count() < M.rank:
            outside = split(mask, self.n)[1]
            gain = np.where(M.add_feasible(mask), self.neighbourhood(mask)[2], -np.inf)
            mask |= 1 << int(outside[np.argmax(gain)])
        return mask

    def value_table(self) -> np.ndarray:
        """Dense vector of f over all 2^n masks (cached; n capped)."""
        check_exhaustive(self.n, "value table")
        if self._table is None:
            self._table = self._fill_table()
        return self._table

    def _fill_table(self) -> np.ndarray:
        """One value call per mask: the reference that fast fills must match."""
        return np.array([self.value(mask) for mask in range(1 << self.n)], dtype=float)


class DiversityFunction(SetFunctionOracle):
    """Pairwise dissimilarity sum plus non-negative modular weights (zeros
    when none are given), summed in one order on every path. It owns copies of
    both, `distance` as metric.validate_distance makes it canonical."""

    def __init__(self, distance: np.ndarray, weights: Sequence[float] | None = None):
        self.distance = metric.validate_distance(distance)
        n = self.distance.shape[0]
        super().__init__(n)
        self.kind = "diversity" if weights is None else "diversity_plus_modular"
        weights = np.zeros(n) if weights is None else np.array(weights, dtype=float)
        if weights.shape != (n,):
            raise ValidationError("modular weights must have length n")
        if np.any(weights < 0):
            raise ValidationError("modular weights must be non-negative")
        self.weights = weights
        self._check_finite_total()

    def value(self, mask: int) -> float:
        return self._sum(split(mask, self.n)[0])

    def _sum(self, idx: np.ndarray) -> float:
        """f of the ascending members idx, as _fill_table sums it: from 0.0, each
        member's gain (0.0, its distances from the earlier members, its weight)."""
        block = np.zeros((len(idx) + 1, len(idx)))
        block[1:] = self.distance.take(idx, 0).take(idx, 1)
        gain = block.cumsum(0).diagonal() + self.weights[idx]
        return float(np.append(0.0, gain).cumsum()[-1])

    def _fill_table(self) -> np.ndarray:
        # subset doubling: the masks with top bit i are those below it plus
        # i, which gains sum_{j < i, j in S} d(j, i) + w_i
        tab = np.zeros(1)
        for i in range(self.n):
            gain = np.zeros(1)
            for j in range(i):
                gain = np.concatenate([gain, gain + self.distance[j, i]])
            tab = np.concatenate([tab, tab + (gain + self.weights[i])])
        return tab

    def neighbourhood(self, mask: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        # with g = D[:, S].sum(1) + w: f(S-i) = f(S) - g_i, f(S+j) = f(S) + g_j
        # and f(S-i+j) = f(S) - g_i + g_j - d(i,j)
        inside, outside = split(mask, self.n)
        current = self._sum(inside)
        D = self.distance
        g = D[:, inside].sum(axis=1) + self.weights
        drop = current - g[inside]
        swap = drop[:, None] + g[outside] - D.take(inside, 0).take(outside, 1)
        return current, drop, current + g[outside], swap

    def pair_values(self) -> np.ndarray:
        # neighbourhood({i}) gives f({i, j}) = f({i}) + g_j with f({i}) = w_i
        # and g_j = d(j, i) + w_j, summed here in the same order
        values = self.weights[:, None] + (self.distance + self.weights)
        np.fill_diagonal(values, 0.0)
        return values

    def greedy_extend(self, M: MatroidOracle, mask: int) -> int:
        # f(S+j) = f(S) + g_j, so the largest g_j among the allowed j wins; g
        # = D[:, S].sum(1) + w gains the column D[:, j] when j joins
        inside, outside = split(mask, self.n)
        g = self.distance[:, inside].sum(axis=1) + self.weights
        while mask.bit_count() < M.rank:
            j = int(outside[np.argmax(np.where(M.add_feasible(mask), g[outside], -np.inf))])
            mask |= 1 << j
            outside = outside[outside != j]
            g += self.distance[:, j]
        return mask


class CoverageFunction(SetFunctionOracle):
    """Weighted coverage: value of the union of per-element universe subsets."""

    kind = "coverage"

    def __init__(self, incidence: Sequence[Iterable[int]], universe_weights: Sequence[float]):
        super().__init__(len(incidence))
        weights = np.array(universe_weights, dtype=float)
        if weights.ndim != 1:
            raise ValidationError("universe weights must be a flat list")
        if np.any(weights < 0):
            raise ValidationError("universe weights must be non-negative")
        m = len(weights)
        self.universe_weights = weights
        self._incidence = np.zeros((self.n, m), dtype=bool)
        for v, items in enumerate(incidence):
            items = [check_integer(u, "incidence item") for u in items]
            for u in items:
                if not 0 <= u < m:
                    raise ValidationError(
                        f"incidence references unknown universe item {reprlib.repr(u)}")
            self._incidence[v, items] = True
        self._check_finite_total()

    def value(self, mask: int) -> float:
        covered = self._incidence[split(mask, self.n)[0]].any(axis=0)
        return float(np.where(covered, self.universe_weights, 0.0).sum())

    def neighbourhood(self, mask: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        # the union of each set one step away, from per-item cover counts, each
        # a full-length masked row summed as value sums it, so equal unions tie exactly
        inside, outside = split(mask, self.n)
        inc, w = self._incidence, self.universe_weights
        count = inc[inside].sum(axis=0)
        covered, kept = count > 0, (count - inc[inside]) > 0
        unions = covered, kept, covered | inc[outside], kept[:, None] | inc[outside]
        current, drop, add, swap = (np.where(union, w, 0.0).sum(-1) for union in unions)
        return float(current), drop, add, swap

    def pair_values(self) -> np.ndarray:
        # f({i, j}) as neighbourhood({i}) sums it, the masked row of the union;
        # one i at a time, so no n x n x m block is held
        inc, w = self._incidence, self.universe_weights
        values = np.array([np.where(row | inc, w, 0.0).sum(-1) for row in inc])
        np.fill_diagonal(values, 0.0)
        return values

    def greedy_extend(self, M: MatroidOracle, mask: int) -> int:
        # the covered items of S, grown by each pick; every add is scored as
        # neighbourhood scores it, the masked row of covered | inc[j]
        inc, w = self._incidence, self.universe_weights
        inside, outside = split(mask, self.n)
        covered = inc[inside].any(axis=0)
        while mask.bit_count() < M.rank:
            add = np.where(covered | inc[outside], w, 0.0).sum(-1)
            j = int(outside[np.argmax(np.where(M.add_feasible(mask), add, -np.inf))])
            mask |= 1 << j
            outside = outside[outside != j]
            covered |= inc[j]
        return mask


class TableFunction(SetFunctionOracle):
    """Explicit lookup over all 2^n subsets."""

    kind = "table"

    def __init__(self, values: Sequence[float]):
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise ValidationError(f"table values must be a flat list, got shape {values.shape}")
        size = len(values)
        n = size.bit_length() - 1
        if size < 2 or size != 1 << n:
            raise ValidationError(f"table length {size} is not a power of two >= 2")
        if not np.all(np.isfinite(values)):
            raise ValidationError("table contains non-finite values")
        if abs(values[0]) > metric.ABS_TOL:
            raise ValidationError("table value at the empty set must be 0")
        super().__init__(n)
        values[0] *= 0.0  # f(empty) = 0 exactly, of the sign given
        self._table = values

    def value(self, mask: int) -> float:
        check_mask(mask, self.n)
        return float(self._table[mask])

