"""Exact structural diagnostics for set functions.

Everything here works by full enumeration over the 2^n value table, through
one ExactTables per oracle: the meta-submodularity parameter, the
monotonicity/curvature classification, the gradient and Hessian of the
multilinear extension, one-sided-smoothness checks, and a battery of
structural-inequality checks (lemma_checks). The probabilities p_x of the
multilinear extension come from one doubling, ExactTables.probabilities,
which the gradient, the Hessian and the gradient-growth check all read.

Overflow has one rule: ExactTables raises OverflowError when max |f| is above
the largest float over 8n, and below that bound no reduction here meets a NaN.
Zero has one rule, the package's metric.scaled_tol: a difference of f is zero
when its size is at most ExactTables.tol = scaled_tol(ABS_TOL, max |f|), which
grows with f as its rounding does, and an inequality holds up to
scaled_tol(REL_TOL, |rhs|) (leq).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import search
from .errors import GuardError
from .metric import ABS_TOL, REL_TOL, scaled_tol
from .setfn import SetFunctionOracle, elements_of

DEFAULT_N_MAX = 14  # the default --n-max of analyze and verify
GRADIENT_SAMPLE_POINTS = 10  # sets R drawn by the gradient-growth check
STEPS = (0.25, 0.5, 1.0)  # ... and the steps eps it takes from 1_R along u
INTEGRAL_ORDERINGS = 3  # permutations drawn by the discrete-integral check


class ExactTables:
    """Every B_i and A_ij of one oracle, built once: `B` is n x 2^n, bit k of a mask being
    element k. A_ij(S) does not depend on i, j in S, so `A` holds one row per pair i < j in
    row-major order (`pairs`) over the 2^(n-2) sets of the others (`others`); `pair_of[i, j]`
    is that row, in either order, 0 on the diagonal. n is bounded by the value table's
    guard, max |f| by the bound below."""

    def __init__(self, fn: SetFunctionOracle):
        n = self.n = fn.n
        v = self.values = fn.value_table()
        # m = max |f| bounds |B| by 2m and |A| by 4m, and no ratio numerator |S| A_ij,
        # walk total f({i}) + sum A_iv or k-difference of A exceeds (4n + 1) m, which
        # this bound keeps below the largest float: nothing in the layer becomes NaN
        bound = np.finfo(float).max / (8 * n)
        m = float(np.abs(v).max())
        if not m <= bound:  # a NaN fails too
            raise OverflowError(f"the value table's largest |f| is above {bound:.3g}, "
                                f"the largest float over 8n at n={n}")
        # the one zero rule: a difference is zero when it is at most tol in size. Each
        # difference tested here sums at most 4n + 1 entries of size <= m whose partial
        # sums stay within 4m (a walk's partial totals are B's), so its rounding is
        # below 11n m 2^-53, 2.5e-14 m at n = 20. tol grows with f as that rounding
        # does, so scaling f by a power of two leaves every zero test as it was once m >= 1.
        # A denominator above tol also keeps gamma = |S| A / (B_i + B_j) below 4n 10^12
        self.tol = scaled_tol(ABS_TOL, m)
        self.sizes = np.bitwise_count(np.arange(1 << n))
        self.pairs = np.transpose(np.triu_indices(n, 1))
        self.pair_of = np.zeros((n, n), dtype=np.int64)
        lo, hi = self.pairs.T
        self.pair_of[lo, hi] = self.pair_of[hi, lo] = np.arange(len(self.pairs))
        # f(S+i) - f(S-i) on the view over bit i, and A_ij(T) = f(T+i+j) - f(T+i) - f(T+j)
        # + f(T) on the view over bits i, j, whose first difference is B_j(T+i)
        self.B = np.empty((n, 1 << n))
        for i, row in enumerate(self.B):
            w = v.reshape(-1, 2, 1 << i)
            np.subtract(w[:, 1:], w[:, :1], out=row.reshape(w.shape))
        self.A = np.empty((len(self.pairs), 1 << max(n - 2, 0)))
        for row, (i, j) in zip(self.A, self.pairs.tolist()):
            w = v.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            out = row.reshape(w[:, 0, :, 0].shape)
            np.subtract(self.B[j].reshape(w.shape)[:, 0, :, 1], w[:, 1, :, 0], out=out)
            out += w[:, 0, :, 0]

    def others(self, p: int) -> tuple[int, int, list[int]]:
        """Pair p's (i, j) and the others in order: bit b of a column of A[p] is others[b]."""
        i, j = map(int, self.pairs[p])
        return i, j, [k for k in range(self.n) if k != i and k != j]

    def pair(self, i: int, j: int) -> int:
        """The row of A that holds A_ij, for i != j in either order."""
        return int(self.pair_of[i, j])

    def expand(self, p: int, out: np.ndarray | None = None) -> np.ndarray:
        """Pair p's A_ij at every mask, into `out` (a new array by default): each
        column of A[p] copied to the four masks that differ from it in bits i, j."""
        i, j = map(int, self.pairs[p])
        out = np.empty(1 << self.n) if out is None else out
        w = out.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
        w[:] = self.A[p].reshape(w[:, :1, :, :1].shape)
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F(x), one vecdot of each row of B with p: the same dot product per
        row and point as b @ q, where a matrix product may sum in another order.
        On a stack of points, one gradient per point."""
        return np.vecdot(self.B, self.probabilities(x)[..., None, :])

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of F(x): E_x[A_ij] at (i, j) and (j, i), zero diagonal, one
        dot product per pair's row expanded to all masks, as `gradient` takes
        one per row of B."""
        p = self.probabilities(x)
        H = np.zeros((self.n, self.n))
        row = np.empty(1 << self.n)
        for q, (i, j) in enumerate(self.pairs.tolist()):
            H[i, j] = H[j, i] = self.expand(q, out=row) @ p
        return H

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        """p_x over all masks by one in-place doubling: bit k of the index is
        element k, and step k fills the masks with k, then those without. On a
        stack of points (one per row), one row of p per point."""
        x = np.asarray(x, dtype=float)
        p = np.empty(x.shape[:-1] + (1 << self.n,))
        p[..., 0] = 1.0
        for k in range(self.n):
            h, xk = 1 << k, x[..., k, None]
            np.multiply(p[..., :h], xk, out=p[..., h:2 * h])
            p[..., :h] *= 1.0 - xk
        return p


def _tables(fn: SetFunctionOracle) -> ExactTables:
    """The oracle's one ExactTables; oracles are immutable, so it is kept on them."""
    tables = getattr(fn, "_exact_tables", None)
    if tables is None:
        tables = fn._exact_tables = ExactTables(fn)
    return tables


@dataclass(frozen=True)
class GammaReport:
    gamma: float
    is_infinite: bool = False
    witness: tuple[int, int, int] | None = None  # (S mask, i, j)
    vacuous: bool = False

    def to_dict(self) -> dict:
        return {
            "gamma": None if self.is_infinite else self.gamma,
            "is_infinite": self.is_infinite,
            "vacuous": self.vacuous,
            "witness": {
                "S": elements_of(self.witness[0]),
                "i": self.witness[1],
                "j": self.witness[2],
            }
            if self.witness
            else None,
        }


def gamma_parameter(fn: SetFunctionOracle) -> GammaReport:
    """Smallest gamma with |S| A_ij(S) <= gamma (B_i(S) + B_j(S)) everywhere.

    Only strictly positive A_ij(S) terms constrain gamma; a positive term
    with a non-positive denominator makes the parameter infinite. The
    witness is the first (i, j, S) that attains gamma.
    """
    t = _tables(fn)
    size = 1 << t.n
    sizes = t.sizes.astype(float)
    a, den, ratio = np.empty(size), np.empty(size), np.empty(size)
    idle = np.empty(size, dtype=bool)
    top, witness = -np.inf, None
    # every mask is divided, and the idle ones' quotients, which may be inf or NaN,
    # are overwritten with -inf: the active ones' denominators are above tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p, (i, j) in enumerate(t.pairs.tolist()):
            np.less_equal(t.expand(p, out=a), t.tol, out=idle)
            idle[0] = True  # S = {}, whose |S| A_ij is 0
            np.add(t.B[i], t.B[j], out=den)
            if den[1:].min() <= t.tol:  # else no active mask has a denominator at most tol
                bad = (den <= t.tol) & ~idle
                if bad.any():
                    return GammaReport(0.0, is_infinite=True, witness=(int(np.argmax(bad)), i, j))
            np.divide(np.multiply(sizes, a, out=a), den, out=ratio)
            np.copyto(ratio, -np.inf, where=idle)
            k = int(ratio.argmax())  # masks in order: the first mask with the largest ratio
            if ratio[k] > top:  # strictly: the first pair with the largest ratio
                top, witness = float(ratio[k]), (k, i, j)
    return GammaReport(top, witness=witness) if witness else GammaReport(0.0, vacuous=True)


@dataclass(frozen=True)
class ClassificationReport:
    monotone: bool
    submodular: bool
    supermodular: bool
    second_order_submodular: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def classify(fn: SetFunctionOracle) -> ClassificationReport:
    """Exhaustive sign checks of B_i, A_ij, and the A_ij set-monotonicity.

    Each witness is the first (i[, j, k]) whose first extreme over the masks
    crosses the tolerance, with that extreme's mask, which holds no i, j (or k).
    """
    t = _tables(fn)
    witnesses: dict = {}
    hit = _first_beyond(t.B, -1, t.tol)
    if hit:
        i, mask, b = hit
        witnesses["monotone"] = {"i": i, "S": elements_of(mask), "B": b}
    for name, sign in (("submodular", 1), ("supermodular", -1)):
        hit = _first_beyond(t.A, sign, t.tol)
        if hit:
            p, q, a = hit
            i, j, others = t.others(p)
            witnesses[name] = {"i": i, "j": j, "S": [others[b] for b in elements_of(q)], "A": a}
    # A_ij(S + k) - A_ij(S - k), k = others[b], for every pair and column without bit b.
    # Rounding is monotone, so no such difference exceeds its row's max - min, the
    # same subtraction rounded: when no row spreads beyond tol, no difference does
    # (diversity's rows are constant)
    second = None
    spread = t.A.max(axis=1) - t.A.min(axis=1)
    for b in range(t.n - 2 if np.any(spread > t.tol) else 0):
        v = t.A.reshape(len(t.pairs), -1, 2, 1 << b)
        hit = _first_beyond((v[:, :, 1] - v[:, :, 0]).reshape(len(t.pairs), -1), 1, t.tol)
        if hit and (second is None or hit[0] < second[0]):
            second = (*hit, b)
    if second:
        p, w, delta, b = second
        i, j, others = t.others(p)
        q = w + (w >> b << b)  # w counts the columns without b: put bit b back, clear
        witnesses["second_order_submodular"] = {
            "i": i, "j": j, "k": others[b], "S": [others[c] for c in elements_of(q)],
            "delta": delta,
        }
    return ClassificationReport("monotone" not in witnesses, "submodular" not in witnesses,
                                "supermodular" not in witnesses, second is None, witnesses)


def _first_beyond(rows: np.ndarray, sign: int, tol: float) -> tuple[int, int, float] | None:
    """(row, column, value) of the first row whose first maximum (sign 1) or
    minimum (sign -1) lies beyond tol in that direction, or None."""
    at = (rows.argmax if sign > 0 else rows.argmin)(axis=1)
    top = np.take_along_axis(rows, at[:, None], axis=1)[:, 0]
    hit = np.flatnonzero(sign * top > tol)
    return (int(hit[0]), int(at[hit[0]]), float(top[hit[0]])) if hit.size else None


@dataclass(frozen=True)
class SmoothnessCheck:
    sigma: float
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {"sigma": self.sigma, "lhs": self.lhs, "rhs": self.rhs, "residual": self.residual}


def check_one_sided_smooth(fn: SetFunctionOracle, x, u, sigma: float) -> SmoothnessCheck:
    """Exact residual of (1/2) u' H(x) u <= sigma (|u|_1/|x|_1) u' grad(x)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    x_norm = float(x.sum())
    if x_norm <= 0:
        raise GuardError("one-sided smoothness is defined only at x != 0")
    t = _tables(fn)
    lhs = 0.5 * float(u @ t.hessian(x) @ u)
    rhs = sigma * (float(u.sum()) / x_norm) * float(u @ t.gradient(x))
    return SmoothnessCheck(sigma, lhs, rhs)


def check_expectation_inequality(fn: SetFunctionOracle, x, i: int, j: int, sigma: float) -> float:
    """Residual of |x|_1 H_ij(x) <= sigma (grad_i(x) + grad_j(x))."""
    x = np.asarray(x, dtype=float)
    t = _tables(fn)
    p = t.probabilities(x)
    h = 0.0 if i == j else float(t.expand(t.pair(i, j)) @ p)
    return float(x.sum()) * h - sigma * float(t.B[i] @ p + t.B[j] @ p)


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool | None  # None when the hypotheses do not apply
    skipped_reason: str | None = None
    worst_slack: float | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def leq(lhs, rhs):
    """lhs <= rhs up to scaled_tol(REL_TOL, |rhs|), elementwise on arrays."""
    return lhs <= rhs + scaled_tol(REL_TOL, np.abs(rhs))


def check_discrete_integral(fn: SetFunctionOracle, seed: int = 0) -> LemmaCheck:
    """B_i(R) = f({i}) + sum_j A_{i v_j}(prefix) for sampled orderings of every R.

    Each draw is one permutation of the ground set, and every R is walked in
    the order it inherits from it. With v the last element of R in that
    order, total(R) = total(R - v) + A_iv(R - v), so one subset doubling per
    element i builds every R's total from f({i}), all draws at once: step p
    adds the draw's p-th element to the sets of its first p elements. Each
    total adds the terms of R in its walk order, so it is bit for bit the
    scalar walk over R. The one `+ 0.0` turns a -0.0 total into 0.0, as the
    walk's exact zero for an element outside R would.
    """
    t = _tables(fn)
    n, size = t.n, 1 << t.n
    rng = np.random.default_rng(seed)
    order = np.array([rng.permutation(n) for _ in range(INTEGRAL_ORDERINGS)], dtype=np.int64)
    position = np.argsort(order, axis=1)  # position[k, v]: where draw k puts v
    # Row q of a draw's column stands for the set of its elements at the
    # positions that are the bits of q: `sets` holds that set's mask and `last`
    # its last element v. Rows are masks, so each doubling step below is one
    # contiguous block. The term v adds, A_iv(set - v), is read from A in place:
    # the row of the pair (i, v), the column that is set - v without bits i and
    # v. `key` is set - v without bit v, in which i's bit is i where v > i and
    # i - 1 where v < i.
    sets, key = np.zeros((2, size, INTEGRAL_ORDERINGS), dtype=np.int64)
    last = np.zeros(sets.shape, dtype=np.int8)
    for p in range(n):
        h, v = 1 << p, order[:, p]
        last[h:2 * h] = v
        key[h:2 * h] = _drop_bit(sets[:h], v)
        sets[h:2 * h] = sets[:h] | 1 << v
    # offset[i, v]: where the row of the pair (i, v) starts in A; 0 at v = i
    offset = t.A.shape[1] * t.pair_of
    half = size >> 1
    low = np.arange(half, dtype=np.int64)
    worst = 0.0
    witness: dict = {}
    for i in range(n):
        # `columns` drops i's bit from a key: bit i in its lower half, read by
        # the walks whose v is above i, and bit i - 1 in its upper half
        columns = np.concatenate([_drop_bit(low, i), _drop_bit(low, max(i - 1, 0))])
        index = columns.take(key + half * (last < i))
        index += offset[i].take(last)
        own = [(slice(1 << p, 2 << p), k) for k, p in enumerate(position[:, i].tolist())]
        for at in own:
            index[at] = 0  # v = i, whose A_ii is no entry of A
        # at n = 1 there is no pair, and every term is A_ii
        total = t.A.take(index) if t.A.size else np.zeros(index.shape)
        for at in own:
            total[at] = 0.0  # v = i adds A_ii = 0
        total[0] = t.values[1 << i]
        for p in range(n):
            h = 1 << p
            np.add(total[:h], total[h:2 * h], out=total[h:2 * h])
        total += 0.0
        err = t.B[i].take(sets)
        np.subtract(total, err, out=err)
        np.abs(err, out=err)
        top = float(err.max())
        worst = max(worst, top)
        if not witness and top > t.tol:
            # the first failure in (mask, draw) order, as a scalar walk meets it;
            # each draw holds the mask in one row, and the transposed views
            # list the draws in order
            failed = err > t.tol
            mask = int(sets[failed].min())
            at = (sets == mask).T
            k = int(np.argmax(failed.T[at]))
            witness = {"i": i, "R": elements_of(mask),
                       "order": [v for v in order[k].tolist() if mask >> v & 1],
                       "lhs": float(t.B[i][mask]), "rhs": float(total.T[at][k])}
    return LemmaCheck("discrete_integral", not witness, worst_slack=worst, detail=witness)


def _drop_bit(y, b):
    """y with bit b removed, the bits above it one lower; b may be an array."""
    return y & (1 << b) - 1 | y >> (b + 1) << b


def lemma_checks(
    fn: SetFunctionOracle,
    cls: ClassificationReport,
    g: GammaReport,
    matroid=None,
    seed: int = 0,
) -> dict[str, LemmaCheck]:
    """Structural-inequality battery, given the oracle's classification and
    gamma reports; checks skip (and say so) when their hypotheses fail. Each
    key is its check's name, in the battery's order, which orders the
    `verify lemmas` failures."""
    t = _tables(fn)
    masks = np.arange(1 << t.n)
    marg_sum = sum((masks >> i & 1) * t.B[i] for i in range(t.n))  # B_i(R-i) == B_i(R)
    big = t.sizes >= 2

    def with_gamma(name, check):
        """check(gamma) for a bound stated in gamma, which needs both hypotheses."""
        if cls.monotone and not g.is_infinite:
            return check(g.gamma)
        return LemmaCheck(name, None, skipped_reason="needs a monotone function with finite gamma")

    checks = [
        check_discrete_integral(fn, seed=seed),
        with_gamma("marginal_sum_bound", lambda gamma: (
            _marginal_sum_check("marginal_sum_bound", t, marg_sum, 5.0 * gamma + 2.0, big)
            if big.any() else
            LemmaCheck("marginal_sum_bound", None, skipped_reason="needs two or more elements"))),
        LemmaCheck("second_order_marginal_bound", None,
                   skipped_reason="needs a non-negative second-order-submodular function")
        if not cls.second_order_submodular or float(t.values.min()) < -t.tol else
        _marginal_sum_check("second_order_marginal_bound", t, marg_sum, 2.0, slice(None)),
        with_gamma("gradient_growth", lambda gamma: _check_gradient_growth(t, gamma, seed)),
        _check_kleinberg(t, g),
    ]
    if matroid is not None:
        checks.append(with_gamma(
            "pair_seed_bound", lambda gamma: _check_pair_seed(fn, matroid, gamma)))
    return {check.name: check for check in checks}


def _marginal_sum_check(name: str, t: ExactTables, marg_sum, factor: float, rows) -> LemmaCheck:
    """The sum of marginals over R against factor * f(R), on the masks `rows` selects."""
    bound = factor * t.values[rows]
    slack = marg_sum[rows] - bound
    k = int(np.argmax(slack))
    return LemmaCheck(name, bool(np.all(leq(marg_sum[rows], bound))), worst_slack=float(slack[k]),
                      detail={"R": elements_of(int(np.arange(1 << t.n)[rows][k]))})


def _check_gradient_growth(t: ExactTables, gamma: float, seed: int) -> LemmaCheck:
    """Directional-derivative growth along 1_R -> 1_R + u, two bounds at once:
    the 2^(4*gamma) cap and the (norm ratio)^(2*sigma) cap with sigma = 2*gamma.
    A cap past the float range is +inf: that bound holds and is never the witness.
    A derivative at 1_R sums B's with weights u, so it is zero, and bounds the
    others by 0, when its size is at most |u|_1 tol."""
    worst = -math.inf
    passed = True
    detail: dict = {}
    cap = search.growth(2.0, gamma)
    for mask, u, points in _growth_samples(t.n, seed):
        r = mask.bit_count()
        length = float(u.sum())
        # p at 1_R is the unit vector at R, so each dot product with a row of B is
        # that row's entry at R, and + 0.0 is what the dot product makes of a -0.0
        base = float(u @ (t.B[:, mask] + 0.0))
        zero = abs(base) <= length * t.tol
        for eps, d in zip(STEPS, t.gradient(points)):
            moved = float(u @ d)
            for name, power in (
                ("power_of_two", cap),
                ("norm_ratio", search.growth((r + eps * length) / r, gamma)),
            ):
                rhs = 0.0 if zero else power * base  # not inf * 0, nor inf times a residue
                slack = moved - rhs
                if slack > worst:
                    worst = slack
                    detail = {"bound": name, "R": elements_of(mask), "eps": eps,
                              "lhs": moved, "rhs": rhs}
                if not leq(moved, rhs):
                    passed = False
    return LemmaCheck("gradient_growth", passed, worst_slack=None if worst == -math.inf else worst,
                      detail=detail)


def _growth_samples(n: int, seed: int):
    """The gradient-growth check's draws: each set R (as a mask) with a nonzero
    direction u, 0.0 on R and in [0, 1) off it, and the points 1_R + eps u, one
    row per step in STEPS."""
    rng = np.random.default_rng(seed)
    for _ in range(GRADIENT_SAMPLE_POINTS):
        mask = int(rng.integers(1, 1 << n))
        r = mask.bit_count()
        ind = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
        x = rng.random(n)
        x *= min(1.0, r / max(x.sum(), 1e-12)) * rng.random()
        u = np.maximum(ind, x) - ind
        if u.sum() > 0:
            yield mask, u, np.array([ind + eps * u for eps in STEPS])


def _check_kleinberg(t: ExactTables, g: GammaReport) -> LemmaCheck:
    """Zero-parameter meta-submodularity against the diminishing-marginals
    form quantified over sets with an outside element.

    A_ij(S) = A_ij(S - {i, j}), so gamma is vacuous exactly when that form
    holds (on the columns of `A` past the empty set) and no A_ij(empty) is positive.
    """
    outside_form = not np.any(t.A[:, 1:] > t.tol)
    empty_ok = not np.any(t.A[:, 0] > t.tol)
    return LemmaCheck("kleinberg_equivalence", g.vacuous == (outside_form and empty_ok),
                      detail={"zero_ms": g.vacuous, "kleinberg_form": outside_form})


def _check_pair_seed(fn, matroid, gamma: float) -> LemmaCheck:
    """Optimum vs best independent pair against the explicit chain constant."""
    if matroid.rank < 2:
        return LemmaCheck("pair_seed_bound", None, skipped_reason="matroid rank below 2")
    seed_mask = search.best_pair_init(fn, matroid)
    opt_mask, opt_value = search.brute_force_opt(fn, matroid)
    bound = search.pair_seed_constant(matroid.rank, gamma) * fn.value(seed_mask)
    return LemmaCheck("pair_seed_bound", bool(leq(opt_value, bound)),
                      worst_slack=opt_value - bound,
                      detail={"optimum": elements_of(opt_mask), "seed": elements_of(seed_mask)})
