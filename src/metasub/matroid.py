"""Matroid oracles: uniform, partition, and graphic.

Each oracle answers independence queries over bitmask subsets and caches
its rank and minimum circuit size. `greedy` takes elements in the order
given, so runs are reproducible; the solver extends its seed pair by gain
instead, reading which elements may join from `add_feasible`, exact for any
S; the base `swap_feasible` reads each swap S - i + j from `add_feasible(S - i)`.
A partition's blocks list each element of its ground set exactly once.
"""

from __future__ import annotations

import reprlib
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .matching import max_weight_matching_k
from .setfn import (
    check_exhaustive,
    check_integer,
    check_mask,
    elements_of,
    mask_of,
    split,
    subset_sizes,
)


class MatroidOracle:
    kind = "abstract"

    def __init__(self, n: int):
        n = check_integer(n, "ground set size")
        if n < 1:
            raise ValidationError("ground set must be non-empty")
        self.n = n
        self.rank: int = 0
        self.min_circuit_size: int | None = None  # None marks a free matroid

    def is_independent(self, mask: int) -> bool:
        raise NotImplementedError

    def swap_feasible(self, mask: int) -> np.ndarray:
        """Independence of S - i + j for i in S (rows) and j not in S
        (columns), in elements_of order.

        S - i + j is (S - i) + j, so row i is add_feasible(S - i) less the
        column of i itself, exact on any S as add_feasible is. The overrides,
        which may assume S independent, must match it.
        """
        check_mask(mask, self.n)
        inside, outside = split(mask, self.n)
        rows = [self.add_feasible(mask ^ (1 << int(i))) for i in inside]
        feasible = np.array(rows, dtype=bool).reshape(len(inside), len(outside) + 1)
        keep = np.arange(len(outside) + 1) != np.searchsorted(outside, inside)[:, None]
        return feasible[keep].reshape(len(inside), len(outside))

    def add_feasible(self, mask: int) -> np.ndarray:
        """Independence of S + j for j not in S, in elements_of order, on any S.

        One is_independent call per entry: the reference that the overrides
        must match.
        """
        check_mask(mask, self.n)
        outside = split(mask, self.n)[1]
        return np.array([self.is_independent(mask | (1 << int(j))) for j in outside], dtype=bool)

    def pair_feasible(self) -> np.ndarray:
        """Independence of {i, j} for i != j as an n x n boolean matrix, with
        a False diagonal.

        One is_independent call per pair: the reference that the closed
        forms must match.
        """
        feasible = np.zeros((self.n, self.n), dtype=bool)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                feasible[i, j] = feasible[j, i] = self.is_independent((1 << i) | (1 << j))
        return feasible

    def independence_vector(self) -> np.ndarray:
        """Boolean vector of is_independent over all 2^n masks (n capped)."""
        check_exhaustive(self.n, "independence vector")
        return self._fill_independence()

    def _fill_independence(self) -> np.ndarray:
        """One is_independent call per mask: the reference that the closed
        forms must match."""
        return np.array([self.is_independent(mask) for mask in range(1 << self.n)], dtype=bool)

    def greedy(self, order: Iterable[int]) -> int:
        """Greedy independent set: each element of order, in turn, joins
        when the set stays independent."""
        acc = 0
        for v in order:
            v = check_integer(v, "greedy order element")
            if not 0 <= v < self.n:
                raise ValidationError(f"greedy order element {v} outside [0, {self.n})")
            bit = 1 << v
            if not acc & bit and self.is_independent(acc | bit):
                acc |= bit
        return acc

    def exchange_bijection(self, S: int, T: int) -> list[tuple[int, int]]:
        """Sorted pairing of S\\T onto T\\S with every single swap independent.

        Found as a perfect matching of the bipartite exchangeability graph;
        a failure indicates a broken oracle, not bad input.
        """
        for base in (S, T):
            if not self.is_independent(base) or base.bit_count() != self.rank:
                raise ValidationError(f"set {base:#x} is not a base")
        left = elements_of(S & ~T)
        right = elements_of(T & ~S)
        inside, outside = split(S, self.n)
        feasible = self.swap_feasible(S)[np.isin(inside, left)][:, np.isin(outside, right)]
        matching = max_weight_matching_k(feasible.astype(float), len(left))
        if matching.total_weight != len(left):
            raise AssertionError("exchange bijection must exist for two bases")
        return [(left[a], right[b]) for a, b in matching.pairs]


class UniformMatroid(MatroidOracle):
    kind = "uniform"

    def __init__(self, n: int, r: int):
        super().__init__(n)
        r = check_integer(r, "uniform rank r")
        if r < 0:
            raise ValidationError("rank bound must be non-negative")
        self.rank = min(r, n)
        self.min_circuit_size = self.rank + 1 if n > self.rank else None

    def is_independent(self, mask: int) -> bool:
        check_mask(mask, self.n)
        return mask.bit_count() <= self.rank

    def swap_feasible(self, mask: int) -> np.ndarray:
        # a swap keeps |S|
        check_mask(mask, self.n)
        size = mask.bit_count()
        return np.full((size, self.n - size), size <= self.rank)

    def add_feasible(self, mask: int) -> np.ndarray:
        check_mask(mask, self.n)
        size = mask.bit_count()
        return np.full(self.n - size, size < self.rank)

    def pair_feasible(self) -> np.ndarray:
        return ~np.eye(self.n, dtype=bool) & (self.rank >= 2)

    def _fill_independence(self) -> np.ndarray:
        return subset_sizes(self.n) <= self.rank


class PartitionMatroid(MatroidOracle):
    kind = "partition"

    def __init__(self, blocks: Sequence[Sequence[int]], caps: Sequence[int]):
        caps = [check_integer(c, "partition cap") for c in caps]
        if len(blocks) != len(caps):
            raise ValidationError("one cap per block required")
        blocks = [[check_integer(v, "partition block element") for v in block] for block in blocks]
        # count distinct elements of 0 .. count - 1 cover it: checked before any
        # shift, so a huge element builds no mask
        count = sum(map(len, blocks))
        if count == 0:
            raise ValidationError("blocks must cover the ground set densely")
        block_of: list[int | None] = [None] * count
        for b, block in enumerate(blocks):
            for v in block:
                if not 0 <= v < count:
                    raise ValidationError("blocks must cover the ground set densely")
                if block_of[v] is not None:
                    raise ValidationError(f"blocks must be disjoint: element {v} is listed twice")
                block_of[v] = b
        super().__init__(count)
        masks = self.block_masks = [mask_of(block) for block in blocks]
        self._block_of = np.array(block_of, dtype=np.int64)
        self.caps = caps
        if any(c < 0 for c in self.caps):
            raise ValidationError("caps must be non-negative")
        self.rank = sum(min(c, m.bit_count()) for c, m in zip(self.caps, masks))
        overfull = [
            c + 1 for c, m in zip(self.caps, masks) if m.bit_count() > c
        ]
        self.min_circuit_size = min(overfull) if overfull else None

    def is_independent(self, mask: int) -> bool:
        check_mask(mask, self.n)
        return all(
            (mask & m).bit_count() <= c for m, c in zip(self.block_masks, self.caps)
        )

    def swap_feasible(self, mask: int) -> np.ndarray:
        # from an independent S, S - i + j is independent when i and j share a
        # block or j's block is below its cap in S
        check_mask(mask, self.n)
        inside, outside = split(mask, self.n)
        into = self._block_of[outside]
        return (self._block_of[inside][:, None] == into) | self._below_cap(mask)[into]

    def add_feasible(self, mask: int) -> np.ndarray:
        # S + j is independent when j's block is below its cap in S and no block is over it
        check_mask(mask, self.n)
        return self._below_cap(mask)[self._block_of[split(mask, self.n)[1]]]

    def _below_cap(self, mask: int) -> np.ndarray:
        counts = np.array([(mask & m).bit_count() for m in self.block_masks])
        return (counts < self.caps) & np.all(counts <= self.caps)

    def _fill_independence(self) -> np.ndarray:
        # |S & block| is the size of the mask S & block
        sizes = subset_sizes(self.n)
        masks = np.arange(1 << self.n)
        independent = np.ones(1 << self.n, dtype=bool)
        for m, c in zip(self.block_masks, self.caps):
            independent &= sizes[masks & m] <= c
        return independent

    def pair_feasible(self) -> np.ndarray:
        # two elements of one block need its cap >= 2; of two blocks, both caps >= 1
        block = self._block_of
        cap = np.array(self.caps)[block]
        same = block[:, None] == block
        feasible = np.where(same, cap[:, None] >= 2, (cap[:, None] >= 1) & (cap >= 1))
        np.fill_diagonal(feasible, False)
        return feasible


class GraphicMatroid(MatroidOracle):
    """Ground set = edges of a graph; independent sets are forests."""

    kind = "graphic"

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        self.edges = [tuple(check_integer(v, "edge endpoint") for v in e) for e in edges]
        num_vertices = check_integer(num_vertices, "vertex count")
        super().__init__(len(self.edges))
        if num_vertices < 1:
            raise ValidationError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValidationError(f"edge {reprlib.repr((u, v))} references unknown vertex")
        # queries number only the vertices some edge touches, so their cost
        # does not grow with isolated vertices
        touched = sorted({v for e in self.edges for v in e})
        label = {v: k for k, v in enumerate(touched)}
        self._order = len(touched)
        self._ends = [(label[u], label[v]) for u, v in self.edges]
        self._end_array = np.array(self._ends)
        self.rank = self.greedy(range(self.n)).bit_count()
        self.min_circuit_size = self._girth()

    def pair_feasible(self) -> np.ndarray:
        # two edges are a forest unless one is a loop or they are parallel
        ends = self._end_array
        low, high = ends.min(1), ends.max(1)
        parallel = (low[:, None] == low) & (high[:, None] == high)  # the diagonal too
        proper = low != high
        return proper[:, None] & proper & ~parallel

    def is_independent(self, mask: int) -> bool:
        check_mask(mask, self.n)
        return self._forest(mask) is not None

    def add_feasible(self, mask: int) -> np.ndarray:
        # S + j is a forest iff j's ends lie in different trees of S; a loop's
        # two ends share their root, so it never joins
        check_mask(mask, self.n)
        outside = split(mask, self.n)[1]
        parent = self._forest(mask)
        if parent is None:
            return np.zeros(len(outside), dtype=bool)
        roots = np.array([_find(parent, v) for v in range(self._order)])
        ends = self._end_array[outside]
        return roots[ends[:, 0]] != roots[ends[:, 1]]

    def _forest(self, mask: int) -> list[int] | None:
        """Union-find links over the edges of S, or None once an edge closes a cycle."""
        parent = list(range(self._order))
        for e in elements_of(mask):
            u, v = self._ends[e]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return None
            parent[ru] = rv
        return parent

    def _girth(self) -> int | None:
        # the shortest cycle through edge e = (u, v) is e plus the shortest
        # u-v path avoiding e: none for a loop (1), the other edge for a parallel (2)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self._order)]
        for e, (u, v) in enumerate(self._ends):
            adj[u].append((v, e))
            adj[v].append((u, e))
        best: int | None = None
        for e, (u, v) in enumerate(self._ends):
            dist = {u: 0}
            queue = [u]
            while queue and v not in dist:
                nxt = []
                for x in queue:
                    for y, f in adj[x]:
                        if f != e and y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                queue = nxt
            if v in dist and (best is None or dist[v] + 1 < best):
                best = dist[v] + 1
        return best


def _find(parent: list[int], x: int) -> int:
    """Root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def generic_min_circuit(M: MatroidOracle) -> int | None:
    """Exponential smallest-dependent-set search; test oracle only."""
    from itertools import combinations

    for size in range(1, M.n + 1):
        for combo in combinations(range(M.n), size):
            if not M.is_independent(mask_of(combo)):
                return size
    return None
