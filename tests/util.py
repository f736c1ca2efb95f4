"""Shared instance generators, brute-force oracles and scalar references for
the tests."""

import math

import numpy as np

from metasub.diag import GRADIENT_SAMPLE_POINTS, LemmaCheck, _leq
from metasub.matching import exhaustive_matching  # noqa: F401 (re-exported)
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


def awkward_diversities(rng, n):
    """Diversity with -0.0 cells, entries down to -1e-12 and asymmetry within
    1e-12, which the validation accepts, without and with weights holding -0.0."""
    D = random_metric(rng, n) * 10.0 ** rng.integers(-3, 4, size=(n, n))
    D = np.minimum(D, D.T) + np.triu(rng.random((n, n)), 1) * 9e-13
    zero = np.triu(rng.random((n, n)) < 0.2)
    tiny = np.triu(rng.random((n, n)) < 0.2) & ~zero
    D[zero | zero.T] = -0.0
    D[tiny] = -1e-12 * rng.random(tiny.sum())
    D[tiny.T] = -1e-12 * rng.random(tiny.sum())
    weights = rng.random(n) * (rng.random(n) < 0.5)
    weights[rng.random(n) < 0.5] = -0.0
    yield DiversityFunction(D)
    yield DiversityFunction(D, weights=weights)
    yield mixed_table([(DiversityFunction(D, weights=weights), 0.5),
                       (random_coverage(rng, n), 1.5)])


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
    loop order, or None."""
    root = np.sqrt(D)
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
    over the compressed positive entries of its distribution."""
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
            D[i, j] = D[j, i] = total
    return D
