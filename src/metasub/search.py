"""Local-search maximization over matroid bases with a matching fallback.

The pipeline: seed with the best independent pair, extend it greedily by
gain to a base, run swap local search with a multiplicative acceptance
threshold, then build a second candidate from a maximum-weight matching on
the second-difference weights between the base and its complement. The
better of the two candidates wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, ValidationError
from .matching import Matching, max_weight_matching_k
from .matroid import MatroidOracle
from .setfn import SetFunctionOracle, elements_of, split

DEFAULT_EPSILON = 0.1
DEFAULT_MAX_ITERATIONS = 1_000_000


@dataclass
class SolveResult:
    initial: int
    S: int
    S_value: float
    S_prime: int
    S_prime_value: float
    evaluations: int
    trace: list[dict] = field(default_factory=list)
    matching: Matching | None = None

    @property
    def iterations(self) -> int:
        """Accepted swaps: each one appends one trace entry."""
        return len(self.trace)

    @property
    def chosen(self) -> int:
        """The better candidate; the locally-optimal base wins ties."""
        return self.S_prime if self.S_prime_value > self.S_value else self.S

    @property
    def chosen_value(self) -> float:
        return self.S_prime_value if self.S_prime_value > self.S_value else self.S_value

    def to_dict(self) -> dict:
        return {
            "initial": elements_of(self.initial),
            "local_search": {"S": elements_of(self.S), "value": self.S_value},
            "matching_candidate": {
                "S": elements_of(self.S_prime),
                "value": self.S_prime_value,
                "k": len(self.matching.pairs) if self.matching else 0,
                "matching": self.matching.to_dict() if self.matching else None,
            },
            "chosen": {"S": elements_of(self.chosen), "value": self.chosen_value},
            "iterations": self.iterations,
            "evaluations": self.evaluations,
            "trace": self.trace,
        }


def best_pair_init(fn: SetFunctionOracle, M: MatroidOracle) -> int:
    """Best independent pair, scanned in lexicographic order; falls back to
    the best singleton (or the empty set) when the rank is short."""
    if fn.n != M.n:
        raise ValidationError("oracle and matroid ground sets differ")
    if M.rank < 2:
        # no independent pair: one greedy step, or none
        return fn.greedy_extend(M, 0)
    # some pair is independent. The first maximum in row-major order, as in a
    # strict-> scan over (i, j), is asked of the matroid, and struck off when
    # dependent; pair values are finite or overflow to +inf, so a struck cell
    # ranks below every pair left
    values = np.where(np.tri(fn.n, dtype=bool), -np.inf, fn.pair_values())
    while True:
        i, j = divmod(int(np.argmax(values)), fn.n)
        pair = (1 << i) | (1 << j)
        if M.is_independent(pair):
            return pair
        values[i, j] = -np.inf


def _accepts(current: float, candidate: float | np.ndarray, threshold: float):
    """The multiplicative threshold above a positive value, a strict gain
    otherwise, on one candidate value or an array of them. Neither reads a
    tolerance, so f scaled by a power of two accepts the same swaps."""
    return candidate >= threshold * current if current > 0 else candidate > current


def local_search(
    fn: SetFunctionOracle,
    M: MatroidOracle,
    start: int,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[int, int, list[dict], tuple]:
    """Swap search from a base; returns (S, evaluations, trace, neighbourhood(S)),
    with one trace entry per accepted swap.

    A swap S - i + j is accepted when it clears the multiplicative threshold
    1 + epsilon/n^2 (any strict improvement when the current value is not
    positive). epsilon must be positive and finite, and large enough that the
    threshold does not round to 1.
    Each round scores the whole neighbourhood at once and picks the first
    accepted swap in (i, j) scan order; evaluations count the feasible swaps
    a one-at-a-time scan would have scored. A pick is taken only if f(T), as
    neighbourhood(T) gives it for the set T it moves to, clears the test too,
    else the next accepted swap in scan order is tried: a closed-form score
    that differs from f(T) in its last bits cannot accept a swap that does
    not improve f, so every taken swap raises the current value and the
    search ends.
    """
    n = fn.n
    if not 0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    threshold = 1.0 + epsilon / (n * n)
    if not threshold > 1.0:  # a swap that does not improve f would clear it
        raise ValidationError(f"epsilon {epsilon!r} is too small for n={n}: "
                              "1 + epsilon/n^2 rounds to 1")
    S = start
    evaluations = 0
    trace: list[dict] = []
    around = fn.neighbourhood(S)
    while True:
        current, _, _, swap = around
        inside, outside = split(S, n)
        feasible = M.swap_feasible(S).ravel()
        for pick in np.flatnonzero(feasible & _accepts(current, swap.ravel(), threshold)):
            a, b = divmod(int(pick), len(outside))
            i, j = int(inside[a]), int(outside[b])
            T = (S & ~(1 << i)) | (1 << j)
            after = fn.neighbourhood(T)
            if _accepts(current, after[0], threshold):
                break
        else:
            evaluations += int(feasible.sum())
            break
        evaluations += int(feasible[: pick + 1].sum())
        S, around = T, after
        trace.append({"iteration": len(trace) + 1, "removed": i, "inserted": j,
                      "value": around[0]})
        if len(trace) >= DEFAULT_MAX_ITERATIONS:
            raise GuardError(f"local search exceeded {DEFAULT_MAX_ITERATIONS} accepted swaps; "
                             f"last value {around[0]!r}")
    return S, evaluations, trace, around


def matching_cardinality(M: MatroidOracle, S: int) -> int:
    """Pair budget for the matching candidate: below half the minimum circuit
    size, so the matched node set can never contain a circuit."""
    inside = S.bit_count()
    outside = M.n - inside
    if M.min_circuit_size is None:
        k = (M.n - 1) // 2
    else:
        k = (M.min_circuit_size - 1) // 2
    return max(0, min(k, inside, outside))


def matching_step(M: MatroidOracle, S: int, around: tuple) -> tuple[int, Matching | None]:
    """Candidate built from the top-k matching of second differences at S,
    read from around = fn.neighbourhood(S); no matching when k is 0."""
    inside, outside = split(S, M.n)
    k = matching_cardinality(M, S)
    if k <= 0:
        return 0, None
    base, drop, add, swap = around
    # A_ij(S) = f(T+a+b) - f(T+a) - f(T+b) + f(T) left to right, with T = S-i-j
    # and a < b the pair, so T+a is S when i < j and S-i+j when j < i
    j_first = outside[None, :] < inside[:, None]
    weights = (add - np.where(j_first, swap, base)) - np.where(j_first, base, swap) + drop[:, None]
    matching = max_weight_matching_k(weights, k)
    mask = 0
    for a, b in matching.pairs:
        mask |= (1 << int(inside[a])) | (1 << int(outside[b]))
    return mask, matching


def solve(fn: SetFunctionOracle, M: MatroidOracle, epsilon: float = DEFAULT_EPSILON) -> SolveResult:
    """Full pipeline; the locally-optimal base wins ties against the
    matching candidate."""
    seed = best_pair_init(fn, M)
    base = fn.greedy_extend(M, seed)
    S, evaluations, trace, around = local_search(fn, M, base, epsilon)
    S_prime, matching = matching_step(M, S, around)
    return SolveResult(
        initial=seed,
        S=S,
        S_value=around[0],
        S_prime=S_prime,
        S_prime_value=fn.value(S_prime),
        evaluations=evaluations,
        trace=trace,
        matching=matching,
    )


def brute_force_opt(fn: SetFunctionOracle, M: MatroidOracle) -> tuple[int, float]:
    """Exhaustive maximum over independent sets, read from the value table;
    first maximum by mask order."""
    if fn.n != M.n:
        raise ValidationError("oracle and matroid ground sets differ")
    table = fn.value_table()
    independent = M.independence_vector()
    best = int(np.argmax(np.where(independent, table, -np.inf)))
    return best, float(table[best])


def growth(x: float, gamma: float) -> float:
    """x^(4*gamma), the growth factor of the paper's bounds; +inf past the float range."""
    try:
        return x ** (4.0 * gamma)
    except OverflowError:
        return math.inf


def guarantee_general(gamma: float, r: int, epsilon: float, n: int) -> float:
    """Worst-case f(OPT)/f(chosen) for monotone instances with the given
    meta-submodularity parameter, from the explicit proof constants."""
    if r < 2:
        return 1.0
    head = (2.0 * gamma + r - 1.0) / (r - 1.0)
    blow = growth(2.0, gamma)
    return head * blow * (5.0 * gamma + 2.0) + 1.0 + blow * r * epsilon / (n * n)


def guarantee_supermodular(
    gamma: float, r: int, epsilon: float, n: int, c: int | None,
    second_order: bool,
) -> float:
    """Worst-case ratio for supermodular instances: the second-order chain
    (when it applies) against the matching-candidate chain, whichever is
    smaller."""
    bounds = []
    if second_order and r >= 2:
        bounds.append(
            1.0
            + (1.0 + gamma)
            * (4.0 * gamma / (r - 1.0) + 2.0 + r * epsilon * (gamma + r - 1.0) / ((r - 1.0) * n * n))
        )
    if c is not None and c > 2:
        bounds.append(1.0 + (1.0 + gamma) * (r * epsilon / (n * n) + 2.0 + 3.0 * r / (c - 1.0)))
    return min(bounds) if bounds else math.inf


def iteration_bound(n: int, r: int, gamma: float, epsilon: float) -> int:
    """Accepted-swap cap for monotone instances: every swap multiplies the
    value by at least 1 + epsilon/n^2 and the optimum is within an explicit
    factor of the starting pair."""
    arg = max(r, 1) * (1.0 + gamma) ** max(r - 2, 0) * pair_seed_constant(r, gamma)
    return math.ceil(n * n * math.log(max(arg, 1.0)) / epsilon)


def pair_seed_constant(r: int, gamma: float) -> float:
    """Explicit constant bounding f(optimum) / f(best independent pair).

    Follows the induction chain: the stage-2 marginal bound 2*gamma + 1 grows
    by a factor (1 + 2*gamma/k) per added element.
    """
    if r <= 2:
        return 1.0
    total = 1.0
    c = 2.0 * gamma + 1.0
    for i in range(3, r + 1):
        # c bounds the marginals onto the first i-1 chosen elements
        total += c
        c *= 1.0 + 2.0 * gamma / (i - 1)
    return total
