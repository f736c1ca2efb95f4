"""Shared instance generators, brute-force oracles and scalar references for
the tests."""

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from metasub.diag import GRADIENT_SAMPLE_POINTS, LemmaCheck, _leq
from metasub.matching import exhaustive_matching  # noqa: F401 (re-exported)
from metasub.matroid import GraphicMatroid, MatroidOracle, PartitionMatroid, UniformMatroid
from metasub.metric import ABS_TOL, REL_TOL, SemiMetricReport, euclidean, scaled_tol
from metasub.search import growth
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    elements_of,
)

# 5 elements, 124 of whose 320 second differences are infinite: past the value
# table's bound
OVERFLOWING_TABLE = [0, 0, 1e308, 1e308, -1e308, 1, 1, 0, 1e308, 0, 1, 1, -1e308, 1e308, 1,
                     1e308, -1e308, -1e308, -1e308, -1e308, -1e308, 1, 0, 0, -1e308, 1, 0,
                     1e308, 1e308, 1, 1e308, 0]


def close(a: float, b: float) -> bool:
    """a and b agree up to REL_TOL relative, or ABS_TOL near zero."""
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def random_metric(rng, n: int, dim: int = 3) -> np.ndarray:
    return euclidean(rng.standard_normal((n, dim)))


def random_diversity(rng, n: int, power: float = 1.0):
    return DiversityFunction(random_metric(rng, n) ** power)


def random_coverage(rng, n: int, m: int | None = None):
    m = m or 2 * n
    incidence = [list(np.flatnonzero(rng.random(m) < 0.4)) for _ in range(n)]
    return CoverageFunction(incidence, rng.random(m))


def random_table(rng, n: int, monotone: bool = False):
    vals = rng.random(1 << n)
    vals[0] = 0.0
    if monotone:
        # cumulative-max over subset lattice forces monotonicity
        for mask in range(1 << n):
            for i in range(n):
                if mask & (1 << i):
                    vals[mask] = max(vals[mask], vals[mask & ~(1 << i)])
    return TableFunction(vals)


def mixed_table(parts) -> TableFunction:
    """A table of mixed kind: the positive combination sum c * f over (f, c)
    in parts, summed table by table in order."""
    return TableFunction(sum(c * fn.value_table() for fn, c in parts))


def random_mixed_oracle(rng, n: int) -> SetFunctionOracle:
    roll = int(rng.integers(0, 4))
    if roll == 0:
        return random_diversity(rng, n, power=float(rng.choice([1.0, 2.0])))
    if roll == 1:
        return random_coverage(rng, n)
    if roll == 2:
        return random_table(rng, n)
    return mixed_table([(random_diversity(rng, n), 0.5), (random_coverage(rng, n), 1.5)])


def fresh_oracles(rng, n: int):
    """One newly built oracle of every kind over a ground set of size n."""
    yield random_diversity(rng, n)
    yield DiversityFunction(random_metric(rng, n), weights=rng.random(n))
    yield random_coverage(rng, n)
    yield random_table(rng, n)
    yield mixed_table([(random_diversity(rng, n), 0.5), (random_coverage(rng, n), 1.5)])


def awkward_inputs(rng, n):
    """A raw distance matrix with -0.0 cells, entries down to -1e-12 and
    asymmetry within 1e-12, which the validation accepts, and weights holding
    -0.0."""
    D = random_metric(rng, n) * 10.0 ** rng.integers(-3, 4, size=(n, n))
    D = np.minimum(D, D.T) + np.triu(rng.random((n, n)), 1) * 9e-13
    zero = np.triu(rng.random((n, n)) < 0.2)
    tiny = np.triu(rng.random((n, n)) < 0.2) & ~zero
    D[zero | zero.T] = -0.0
    D[tiny] = -1e-12 * rng.random(tiny.sum())
    D[tiny.T] = -1e-12 * rng.random(tiny.sum())
    weights = rng.random(n) * (rng.random(n) < 0.5)
    weights[rng.random(n) < 0.5] = -0.0
    return D, weights


def awkward_diversities(rng, n):
    """Diversity over awkward_inputs, without and with its weights."""
    D, weights = awkward_inputs(rng, n)
    yield DiversityFunction(D)
    yield DiversityFunction(D, weights=weights)
    yield mixed_table([(DiversityFunction(D, weights=weights), 0.5),
                       (random_coverage(rng, n), 1.5)])


def all_ones_diversity(n=4):
    return DiversityFunction(np.ones((n, n)) - np.eye(n))


def signed_zero_diversity(rng, n):
    """Distances of 1.0, 0.0 and -0.0 and weights of 0.0 and -0.0: most gains
    tie, among them -0.0 against 0.0, so the first index must win."""
    D = np.triu(rng.choice([1.0, 0.0, -0.0], size=(n, n)), 1)
    D = D + D.T
    D[(D == 0) & (rng.random((n, n)) < 0.5)] = -0.0  # either side of a pair, the diagonal too
    return DiversityFunction(D, weights=rng.choice([0.0, -0.0], size=n))


MATROIDS = {
    "uniform": lambda: UniformMatroid(9, 4),
    "partition": lambda: PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7, 8]], [2, 2]),
    "graphic": lambda: GraphicMatroid(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                                          (5, 3), (1, 4), (0, 5)]),
}


def random_graph(rng, vertices, edges):
    return GraphicMatroid(vertices, [tuple(int(v) for v in rng.integers(0, vertices, size=2))
                                     for _ in range(edges)])


def large_matroids(rng, kind):
    """A matroid of the given kind, rank up to 20, at each n in (2, 5, 17, 40, 62)."""
    for n in (2, 5, 17, 40, 62):
        if kind == "uniform":
            yield UniformMatroid(n, min(20, n - 1))
        elif kind == "partition":
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
            yield PartitionMatroid([part.tolist() for part in np.split(np.arange(n), cuts)],
                                   [int(c) for c in rng.integers(0, 8, size=len(cuts) + 1)])
        else:
            yield random_graph(rng, max(2, n // 5), n)


def marginal(fn, i: int, mask: int) -> float:
    """Reference B_i(S) = f(S+i) - f(S-i), from two value calls."""
    bit = 1 << i
    return fn.value(mask | bit) - fn.value(mask & ~bit)


def second_difference(fn, i: int, j: int, mask: int) -> float:
    """Reference A_ij(S) = f(T+a+b) - f(T+a) - f(T+b) + f(T), summed left to
    right, with T = S-i-j and a < b the pair; zero when i == j."""
    if i == j:
        return 0.0
    a, b = 1 << min(i, j), 1 << max(i, j)
    base = mask & ~a & ~b
    return fn.value(base | a | b) - fn.value(base | a) - fn.value(base | b) + fn.value(base)


def loop_brute_force_opt(fn, M) -> tuple[int, float]:
    """Reference optimum over independent sets: one value call per
    independent mask, the first strict maximum by mask order."""
    best_mask, best_value = 0, fn.value(0)
    for mask in range(1, 1 << fn.n):
        if not M.is_independent(mask):
            continue
        v = fn.value(mask)
        if v > best_value:
            best_mask, best_value = mask, v
    return best_mask, best_value


def rank(M, mask: int) -> int:
    """Reference matroid rank: the size of a greedy independent subset of mask."""
    return M.greedy(elements_of(mask)).bit_count()


def loop_probabilities(n: int, x) -> np.ndarray:
    """Reference p_x over all 2^n masks by in-place doubling: the masks with
    bit i, then those without. On a stack of points, one row per point."""
    x = np.asarray(x, dtype=float)
    p = np.empty(x.shape[:-1] + (1 << n,))
    p[..., 0] = 1.0
    for i in range(n):
        h, xi = 1 << i, x[..., i, None]
        np.multiply(p[..., :h], xi, out=p[..., h:2 * h])
        np.multiply(p[..., :h], 1.0 - xi, out=p[..., :h])
    return p


def multilinear(t, x) -> float:
    """F(x) by full enumeration over the value table of ExactTables t."""
    return float(t.values @ t.probabilities(np.asarray(x, dtype=float)))


def loop_gradient(t, x) -> np.ndarray:
    """Reference grad F(x) of ExactTables t: one dot product b @ q per row b
    of B and point; on a stack of points, one gradient per point."""
    p = t.probabilities(x)
    return np.array([[b @ q for b in t.B] for q in p.reshape(-1, p.shape[-1])]
                    ).reshape(np.shape(x))


def loop_gradient_growth(t, gamma: float, seed: int) -> LemmaCheck:
    """Reference gradient-growth check: one per-row gradient per point, the
    indicator 1_R first and then each step along u."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    passed = True
    detail: dict = {}
    cap = growth(2.0, gamma)
    for _ in range(GRADIENT_SAMPLE_POINTS):
        mask = int(rng.integers(1, 1 << t.n))
        r = mask.bit_count()
        ind = np.array([(mask >> i) & 1 for i in range(t.n)], dtype=float)
        x = rng.random(t.n)
        x *= min(1.0, r / max(x.sum(), 1e-12)) * rng.random()
        u = np.maximum(ind, x) - ind
        if u.sum() <= 0:
            continue
        base = float(u @ loop_gradient(t, ind))
        zero = abs(base) <= float(u.sum()) * t.tol
        for eps in (0.25, 0.5, 1.0):
            moved = float(u @ loop_gradient(t, ind + eps * u))
            for name, power in (
                ("power_of_two", cap),
                ("norm_ratio", growth((r + eps * float(u.sum())) / r, gamma)),
            ):
                rhs = 0.0 if zero else power * base
                slack = moved - rhs
                if slack > worst:
                    worst = slack
                    detail = {"bound": name, "R": elements_of(mask), "eps": eps,
                              "lhs": moved, "rhs": rhs}
                if not _leq(moved, rhs):
                    passed = False
    return LemmaCheck("gradient_growth", passed, worst_slack=None if worst == -math.inf else worst,
                      detail=detail)


def loop_semi_metric_parameter(D: np.ndarray) -> SemiMetricReport:
    """Reference sigma by a triple loop in (i, j, k) order: the witness is the
    first strict maximum, and the first positive entry with no positive
    two-leg path returns the infinite flag at once. Zero is at most
    scaled_tol(ABS_TOL, max |D|)."""
    n = D.shape[0]
    if n < 3:
        return SemiMetricReport(0.0)
    tol = scaled_tol(ABS_TOL, max(abs(float(d)) for d in D.flat))
    best = 0.0
    witness = None
    for i in range(n):
        for j in range(n):
            if j == i or D[i, j] <= tol:
                continue
            denom_ok = False
            for k in range(n):
                if k == i or k == j:
                    continue
                denom = D[i, k] + D[k, j]
                if denom > tol:
                    denom_ok = True
                    ratio = D[i, j] / denom
                    if ratio > best:
                        best = ratio
                        witness = (i, j, k)
            if not denom_ok:
                k = next(v for v in range(n) if v != i and v != j)
                return SemiMetricReport(0.0, is_infinite=True, witness=(i, j, k))
    return SemiMetricReport(best, witness=witness)


def loop_is_sqrt_metric(D: np.ndarray, tol: float = 1e-9):
    """Reference square-root-metric test by a triple loop, up to
    scaled_tol(tol, the largest root): the first broken (i, j > i, k) in
    loop order, or None. The root of a negative entry is 0."""
    root = np.sqrt(np.maximum(D, 0.0))
    n = D.shape[0]
    tol = scaled_tol(tol, math.sqrt(max(abs(float(d)) for d in D.flat)))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                if root[i, j] > root[i, k] + root[j, k] + tol:
                    return False, (i, j, k)
    return True, None


def loop_js_divergence(probs) -> np.ndarray:
    """Reference JS matrix, pair by pair (i < j): each half sums its terms
    over the compressed positive entries of its distribution, and a total
    that rounds below zero is 0.0, as in metric.js_divergence."""
    n = len(probs)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p, q = probs[i], probs[j]
            m = (p + q) / 2.0
            total = 0.0
            for a in (p, q):
                pos = a > 0
                total += 0.5 * float(np.sum(a[pos] * np.log(a[pos] / m[pos])))
            D[i, j] = D[j, i] = np.maximum(total, 0.0)
    return D


# ------------------------------------------------- overridable oracle methods
#
# Each reference loop reads one scalar method of an oracle over n elements
# (value, _raw_value or is_independent), passed in as a callable, and its
# entries have that method's type: float or bool.


def loop_every_mask(scalar, n: int) -> np.ndarray:
    return np.array([scalar(mask) for mask in range(1 << n)], dtype=type(scalar(0)))


def loop_pairs(scalar, n: int) -> np.ndarray:
    """scalar({i, j}) for i != j, one call per pair, on a zero diagonal."""
    out = np.zeros((n, n), dtype=type(scalar(0)))
    for i, j in itertools.combinations(range(n), 2):
        out[i, j] = out[j, i] = scalar((1 << i) | (1 << j))
    return out


def loop_adds(scalar, n: int, mask: int) -> np.ndarray:
    """scalar(S + j) for j not in S, ascending."""
    return np.array([scalar(mask | (1 << j)) for j in range(n) if not mask >> j & 1],
                    dtype=type(scalar(0)))


def loop_swaps(scalar, n: int, mask: int) -> np.ndarray:
    """scalar(S - i + j) for i in S (rows) and j not in S (columns), ascending."""
    inside = [i for i in range(n) if mask >> i & 1]
    outside = [j for j in range(n) if not mask >> j & 1]
    rows = [[scalar((mask & ~(1 << i)) | (1 << j)) for j in outside] for i in inside]
    return np.array(rows, dtype=type(scalar(0))).reshape(len(inside), len(outside))


def loop_neighbourhood(value, n: int, mask: int):
    """f(S), then f(S - i), f(S + j) and f(S - i + j): one value call per entry."""
    drop = [value(mask & ~(1 << i)) for i in range(n) if mask >> i & 1]
    return (value(mask), np.array(drop, dtype=float), loop_adds(value, n, mask),
            loop_swaps(value, n, mask))


def scalar_greedy_extend(value, n: int, M, S: int) -> int:
    """The first strict maximum of f(S + j) over the j that keep S
    independent, one element at a time up to the rank."""
    while S.bit_count() < M.rank:
        best = None
        for j in range(n):
            if not S >> j & 1 and M.is_independent(S | (1 << j)):
                v = value(S | (1 << j))
                if best is None or v > best[0]:
                    best = (v, j)
        S |= 1 << best[1]
    return S


# Each check takes the reference's result, the production call's (None where
# it was not run), the base method's, and whether the production call must
# give the reference's bits or may round.


def assert_equal_arrays(got, want) -> None:
    """np.testing.assert_array_equal with equal shapes and dtypes, which it
    calls only to report a difference."""
    if not (got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)):
        np.testing.assert_array_equal(got, want, strict=True)


def check_equal(want, got, base, exact: bool) -> None:
    for path in (got, base):
        if isinstance(path, np.ndarray):
            assert_equal_arrays(path, want)
        elif path is not None:
            assert path == want, (path, want)


def check_neighbourhood(want, got, base, exact: bool) -> None:
    """f(S) is a float with value's bits on both paths; the base arrays have
    the reference's bits, and the production call's too or, where it may
    round, are close to them."""
    current, *arrays = want
    for path in (got, base):
        assert isinstance(path[0], float) and path[0].hex() == current.hex(), (path[0], current)
    for b, g, w in zip(base[1:], got[1:], arrays):
        assert_equal_arrays(b, w)
        if exact:
            assert_equal_arrays(g, w)
        else:
            assert g.shape == w.shape and all(map(close, g.ravel(), w.ravel())), (g, w)


def check_pair_values(want, got, base, exact: bool) -> None:
    """The base rows are close to f({i, j}) on a zero diagonal, and the
    production call has their bits."""
    assert base.shape == want.shape and not base.diagonal().any(), base
    assert all(map(close, base.ravel(), want.ravel())), (base, want)
    assert_equal_arrays(got, base)


class Method(NamedTuple):
    """An oracle method that subclasses may override for speed. The base
    class's method is the reference path. `reference` loops over the oracle's
    `scalar` method, and `check` compares both paths with it. `takes` is the
    argument: a mask, a (matroid, start) pair, or nothing ("" or, for a fill
    of all 2^n masks, "every mask"). An override of an `independent_only`
    method may assume S independent."""

    base: type
    scalar: str
    reference: Callable
    check: Callable
    takes: str
    independent_only: bool = False


METHODS = {
    "neighbourhood": Method(SetFunctionOracle, "value", loop_neighbourhood, check_neighbourhood,
                            "mask"),
    "pair_values": Method(SetFunctionOracle, "value", loop_pairs, check_pair_values, ""),
    "greedy_extend": Method(SetFunctionOracle, "value", scalar_greedy_extend, check_equal,
                            "start"),
    "_fill_table": Method(SetFunctionOracle, "_raw_value", loop_every_mask, check_equal,
                          "every mask"),
    "add_feasible": Method(MatroidOracle, "is_independent", loop_adds, check_equal, "mask"),
    "swap_feasible": Method(MatroidOracle, "is_independent", loop_swaps, check_equal, "mask",
                            independent_only=True),
    "_fill_independence": Method(MatroidOracle, "is_independent", loop_every_mask, check_equal,
                                 "every mask"),
}

# overrides whose entries may differ from the reference in the last bits:
# diversity's closed form sums g_i and d(i, j) in another order than value
ROUNDED = {(DiversityFunction, "neighbourhood")}


def subclasses(base):
    """Every class below base, at any depth."""
    todo = list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        yield cls


def force_reference_loops(monkeypatch):
    """Route every override of a METHODS name to its base method."""
    for name, method in METHODS.items():
        for cls in subclasses(method.base):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, getattr(method.base, name))
