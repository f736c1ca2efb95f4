import dataclasses
import json
import math

import numpy as np
import pytest

from metasub.diag import classify, gamma_parameter
from metasub import search
from metasub.errors import GuardError, ValidationError
from metasub.matching import max_weight_matching_k
from metasub.matroid import GraphicMatroid, PartitionMatroid, UniformMatroid
from metasub.metric import euclidean
from metasub.search import (
    DEFAULT_EPSILON,
    best_pair_init,
    brute_force_opt,
    growth,
    guarantee_general,
    guarantee_supermodular,
    iteration_bound,
    local_search,
    matching_cardinality,
    matching_step,
    solve,
)
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    elements_of,
    mask_of,
)
from util import (
    MATROIDS,
    all_ones_diversity,
    awkward_diversities,
    close,
    force_reference_loops,
    fresh_oracles,
    loop_brute_force_opt,
    random_coverage,
    random_diversity,
    random_metric,
    second_difference,
    signed_zero_diversity,
    subclasses,
)


def test_solve_and_local_search_reject_an_epsilon_not_positive_and_finite():
    fn = all_ones_diversity()
    M = UniformMatroid(4, 2)
    for epsilon in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
            solve(fn, M, epsilon)
        with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
            local_search(fn, M, mask_of([0, 1]), epsilon=epsilon)


def test_best_pair_symmetric_tie_is_lexicographic():
    assert best_pair_init(all_ones_diversity(), UniformMatroid(4, 2)) == mask_of([0, 1])


def test_best_pair_tie_goes_to_the_smaller_first_element():
    # {0, 3} and {1, 2} tie; a scan by the larger element first would pick {1, 2}
    D = np.ones((4, 4)) - np.eye(4)
    D[0, 3] = D[3, 0] = D[1, 2] = D[2, 1] = 5.0
    fn = DiversityFunction(D)
    assert best_pair_init(fn, UniformMatroid(4, 2)) == mask_of([0, 3]) == scalar_best_pair(
        fn, UniformMatroid(4, 2))


def test_best_pair_dominant_entry():
    D = np.ones((4, 4)) - np.eye(4)
    D[2, 3] = D[3, 2] = 9.0
    assert best_pair_init(DiversityFunction(D), UniformMatroid(4, 2)) == mask_of([2, 3])


def test_best_pair_reads_no_pair_value_at_i_not_below_j(monkeypatch):
    # pair_values() promises f({i, j}) at i < j only, so NaN at every other
    # entry changes no pick, struck-off pairs included
    rng = np.random.default_rng(43)
    for fn in [*fresh_oracles(rng, 9), all_ones_diversity(9), signed_zero_diversity(rng, 9)]:
        values = fn.pair_values()
        values[np.tril_indices(fn.n)] = np.nan
        for M in (make() for make in MATROIDS.values()):
            want = best_pair_init(fn, M)
            with monkeypatch.context() as m:
                m.setattr(fn, "pair_values", values.copy)
                assert best_pair_init(fn, M) == want, (fn.kind, M.kind)


def scalar_best_singleton(fn, M) -> int:
    """Reference: the first independent singleton of largest value, or 0."""
    best, best_value = 0, -math.inf
    for i in range(fn.n):
        if M.is_independent(1 << i) and fn.value(1 << i) > best_value:
            best, best_value = 1 << i, fn.value(1 << i)
    return best


def test_best_pair_rank_one_fallback():
    fn = DiversityFunction(np.zeros((2, 2)), weights=[1.0, 5.0])
    assert best_pair_init(fn, UniformMatroid(2, 1)) == mask_of([1])
    matroids = [
        UniformMatroid(5, 0),
        UniformMatroid(5, 1),
        PartitionMatroid([range(5)], [1]),
        PartitionMatroid([[1, 3], [0, 2, 4]], [0, 1]),
        # a star on one leaf: two loops and three parallel edges
        GraphicMatroid(3, [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1)]),
        GraphicMatroid(2, [(0, 0), (1, 1), (0, 0), (1, 1), (0, 0)]),
    ]
    rng = np.random.default_rng(4)
    for trial in range(20):
        # few distinct values, so that ties show the first maximum is kept
        values = rng.integers(-2, 3, 1 << 5).astype(float)
        values[0] = 0.0
        # diversity and coverage run their own greedy_extend, the table the base one
        fns = [TableFunction(values),
               DiversityFunction(random_metric(rng, 5), weights=rng.integers(0, 3, 5) * 1.0),
               signed_zero_diversity(rng, 5),
               *awkward_diversities(rng, 5),
               CoverageFunction([np.flatnonzero(rng.random(4) < 0.4) for _ in range(5)],
                                rng.integers(0, 3, 4) * 1.0)]
        for fn in fns:
            for M in matroids:
                assert M.rank <= 1
                assert best_pair_init(fn, M) == scalar_best_singleton(fn, M), (
                    trial, fn.kind, M.kind)
            assert best_pair_init(fn, matroids[-1]) == 0


def test_local_search_certificate():
    rng = np.random.default_rng(0)
    for trial in range(10):
        fn = random_diversity(rng, 8)
        M = UniformMatroid(8, 4)
        start = M.greedy([*elements_of(best_pair_init(fn, M)), *range(M.n)])
        S, _, trace, _ = local_search(fn, M, start)
        assert S.bit_count() == M.rank
        assert M.is_independent(S)
        threshold = (1 + DEFAULT_EPSILON / 64) * fn.value(S)
        for i in range(8):
            for j in range(8):
                if S & (1 << i) and not S & (1 << j):
                    cand = (S & ~(1 << i)) | (1 << j)
                    if M.is_independent(cand):
                        assert fn.value(cand) < threshold


def test_trace_values_increase_multiplicatively():
    rng = np.random.default_rng(1)
    fn = random_diversity(rng, 9)
    M = UniformMatroid(9, 4)
    epsilon = 0.3
    start = M.greedy(range(M.n))  # poor start to force swaps
    S, _, trace, _ = local_search(fn, M, start, epsilon)
    prev = fn.value(start)
    factor = 1 + epsilon / 81
    for step in trace:
        if prev > 0:
            assert step["value"] >= factor * prev * (1 - 1e-12)
        else:
            assert step["value"] > prev
        prev = step["value"]
        removed, inserted = step["removed"], step["inserted"]
        assert 0 <= removed < 9 and 0 <= inserted < 9


class OneUlpSwaps(TableFunction):
    """A table whose neighbourhood scores every swap one ulp above f(T): a
    closed form that rounds differently from the value it stands for."""

    def neighbourhood(self, mask):
        current, drop, add, swap = super().neighbourhood(mask)
        return current, drop, add, np.nextafter(swap, np.inf)


def test_local_search_ends_when_swap_scores_overstate_f(monkeypatch):
    # at a value <= 0 any strict gain is accepted, and a score one ulp above an
    # equal f(T) is one; a search that took scores on trust would swap forever
    monkeypatch.setattr(search, "DEFAULT_MAX_ITERATIONS", 100)
    M = UniformMatroid(4, 2)
    start = M.greedy(range(M.n))
    assert start == 0b0011
    S, evaluations, trace, around = local_search(OneUlpSwaps(np.zeros(16)), M, start)
    assert (S, evaluations, trace, around[0]) == (start, 4, [], 0.0)
    # f = -1 off the empty set and -0.5 at {0, 3}: the first three accepted
    # scores from {0, 1} are not confirmed by f, the swap to {0, 3}, last in
    # scan order, is
    values = np.where(np.arange(16) == 0b1001, -0.5, -1.0)
    values[0] = 0.0
    S, evaluations, trace, around = local_search(OneUlpSwaps(values), M, start)
    assert (S, evaluations, around[0]) == (0b1001, 8, -0.5)
    assert trace == [{"iteration": 1, "removed": 1, "inserted": 3, "value": -0.5}]


def test_solve_does_not_depend_on_a_power_of_two_scale():
    # the acceptance rule reads no tolerance, and f times 2^k is exact short of
    # subnormal values, so the search takes the same swaps at every scale
    def run(fn):
        result = solve(fn, UniformMatroid(30, 8))
        moves = [(step["iteration"], step["removed"], step["inserted"]) for step in result.trace]
        return result.chosen, result.S_prime, result.iterations, result.evaluations, moves

    swaps = {}
    for seed in range(6):
        rng = np.random.default_rng(seed)
        D = random_metric(rng, 30)
        cover = [list(np.flatnonzero(rng.random(60) < 0.05)) for _ in range(30)]
        weights = rng.random(60)
        for kind, make in (("diversity", lambda s: DiversityFunction(np.ldexp(D, s))),
                           ("coverage", lambda s: CoverageFunction(cover, np.ldexp(weights, s)))):
            want = run(make(0))
            swaps[kind] = swaps.get(kind, 0) + want[2]
            for k in (-1000, -50, 60, 900):
                assert run(make(k)) == want, (kind, seed, k)
    assert min(swaps.values()) > 0, swaps


def test_trace_replay_preserves_independence():
    # an instance on which local search still swaps (twice) from the greedy base
    rng = np.random.default_rng(51)
    fn = random_diversity(rng, 8)
    M = GraphicMatroid(6, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 5), (4, 0)])
    result = solve(fn, M)
    assert len(result.trace) >= 1
    S = fn.greedy_extend(M, best_pair_init(fn, M))
    for step in result.trace:
        S = (S & ~(1 << step["removed"])) | (1 << step["inserted"])
        assert M.is_independent(S)
    assert S == result.S


def test_iteration_guard(monkeypatch):
    monkeypatch.setattr(search, "DEFAULT_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(3)
    fn = random_diversity(rng, 8)
    M = UniformMatroid(8, 4)
    with pytest.raises(GuardError):
        local_search(fn, M, M.greedy(range(M.n)), 1e-9)


def test_an_epsilon_below_float_resolution_is_rejected(monkeypatch):
    # with 1 + epsilon/n^2 == 1.0 every equal-valued swap clears the threshold,
    # so on all-ones distances the search would cycle until the guard stops it
    monkeypatch.setattr(search, "DEFAULT_MAX_ITERATIONS", 50)
    fn = DiversityFunction(np.ones((8, 8)) - np.eye(8))
    M = UniformMatroid(8, 3)
    for epsilon in (1e-20, 4e-15):
        with pytest.raises(ValidationError, match="rounds to 1"):
            solve(fn, M, epsilon)
    assert solve(fn, M, 1e-13).iterations == 0


def test_matching_cardinality_rules():
    assert matching_cardinality(UniformMatroid(8, 3), mask_of([0, 1, 2])) == 1  # c=4
    assert matching_cardinality(UniformMatroid(8, 4), mask_of([0, 1, 2, 3])) == 2  # c=5
    assert matching_cardinality(UniformMatroid(8, 8), mask_of(range(8))) == 0  # free, no outside
    assert matching_cardinality(UniformMatroid(9, 9), mask_of(range(4))) == 4  # free matroid
    assert matching_cardinality(UniformMatroid(8, 1), mask_of([0])) == 0  # c=2
    assert matching_cardinality(UniformMatroid(8, 2), mask_of([0, 1])) == 1  # c=3


def test_matching_step_best_pair_when_k_is_one():
    rng = np.random.default_rng(4)
    fn = random_diversity(rng, 6)
    M = UniformMatroid(6, 2)  # c = 3 -> k = 1
    S = mask_of([0, 1])
    S_prime, matching = matching_step(M, S, fn.neighbourhood(S))
    assert len(matching.pairs) == 1
    best = max(
        ((i, j) for i in [0, 1] for j in range(2, 6)),
        key=lambda p: second_difference(fn, p[0], p[1], S),
    )
    assert second_difference(fn, best[0], best[1], S) == pytest.approx(matching.total_weight)
    assert S_prime.bit_count() == 2


def test_matching_step_supermodular_value_dominates_weight():
    rng = np.random.default_rng(5)
    for _ in range(10):
        fn = random_diversity(rng, 8)
        M = UniformMatroid(8, 4)
        S = M.greedy([*elements_of(best_pair_init(fn, M)), *range(M.n)])
        S_prime, matching = matching_step(M, S, fn.neighbourhood(S))
        if matching is not None:
            assert fn.value(S_prime) >= matching.total_weight - 1e-9


def test_solve_single_element_ground_set():
    fn = TableFunction([0.0, 3.0])
    result = solve(fn, UniformMatroid(1, 1))
    assert result.chosen == 1 and result.chosen_value == 3.0


def test_solve_modular_reaches_optimum():
    rng = np.random.default_rng(6)
    for _ in range(10):
        w = rng.random(7)
        fn = DiversityFunction(np.zeros((7, 7)), weights=w)
        M = UniformMatroid(7, 3)
        result = solve(fn, M)
        _, opt = brute_force_opt(fn, M)
        assert result.chosen_value == pytest.approx(opt)


def test_solve_chosen_is_argmax_and_prefers_S_on_tie():
    rng = np.random.default_rng(7)
    fn = random_diversity(rng, 7)
    result = solve(fn, UniformMatroid(7, 3))
    assert result.chosen_value == max(result.S_value, result.S_prime_value)
    if result.S_value == result.S_prime_value:
        assert result.chosen == result.S
    assert result.S_prime.bit_count() == 2 * len(result.matching.pairs)
    # the pick is derived from the two candidates: S' only when strictly better
    assert result.S != result.S_prime
    tie = dataclasses.replace(result, S_prime_value=result.S_value)
    assert (tie.chosen, tie.chosen_value) == (tie.S, tie.S_value)
    above = dataclasses.replace(result, S_prime_value=result.S_value + 1.0)
    assert (above.chosen, above.chosen_value) == (above.S_prime, above.S_value + 1.0)


def test_epsilon_orders_iteration_counts():
    rng = np.random.default_rng(8)
    fn = random_diversity(rng, 9)
    M = UniformMatroid(9, 4)
    start = M.greedy(range(M.n))
    _, _, coarse, _ = local_search(fn, M, start, 0.5)
    _, _, fine, _ = local_search(fn, M, start, 0.01)
    assert len(fine) >= len(coarse)


def test_brute_force_known_cases():
    _, value = brute_force_opt(all_ones_diversity(), UniformMatroid(4, 2))
    assert value == 1.0
    table = [0.0] * 16
    table[mask_of([1, 3])] = 7.0
    mask, value = brute_force_opt(TableFunction(table), UniformMatroid(4, 2))
    assert mask == mask_of([1, 3]) and value == 7.0


@pytest.mark.parametrize("matroid", ["uniform", "partition", "graphic"])
def test_brute_force_reads_the_table_as_the_value_loop_does(matroid, monkeypatch):
    for n in range(1, 9):
        rng = np.random.default_rng([n, 23])
        cut = n // 2
        M = {
            "uniform": lambda: UniformMatroid(n, int(rng.integers(1, n + 1))),
            "partition": lambda: PartitionMatroid([list(range(cut)), list(range(cut, n))],
                                                  [max(1, cut - 1), 2]),
            "graphic": lambda: GraphicMatroid(
                n // 2 + 2, [tuple(int(v) for v in rng.integers(0, n // 2 + 2, size=2))
                             for _ in range(n)]),
        }[matroid]()
        for fn in fresh_oracles(rng, n):
            want_mask, want_value = loop_brute_force_opt(fn, M)
            fn.value_table()  # a base fill calls value, once per mask
            with monkeypatch.context() as m:
                m.setattr(type(fn), "value", lambda self, mask: 1 / 0)
                mask, value = brute_force_opt(fn, M)
            assert (mask, value.hex()) == (want_mask, want_value.hex()), (matroid, n, fn.kind)


@pytest.mark.parametrize("m", [6, 8])
def test_brute_force_rejects_a_matroid_on_another_ground_set(m):
    fn = random_diversity(np.random.default_rng(9), 7)
    with pytest.raises(ValidationError, match="ground sets differ"):
        brute_force_opt(fn, UniformMatroid(m, 3))


def test_brute_force_monotone_attained_at_base():
    rng = np.random.default_rng(9)
    fn = random_diversity(rng, 7)
    M = UniformMatroid(7, 3)
    mask, _ = brute_force_opt(fn, M)
    assert mask.bit_count() == M.rank


def test_guarantee_bounds_sanity():
    assert guarantee_general(1.0, 4, 0.1, 8) > 1.0
    b = guarantee_supermodular(1.0, 4, 0.1, 8, c=5, second_order=True)
    assert 1.0 < b < guarantee_general(1.0, 4, 0.1, 8)
    assert guarantee_supermodular(1.0, 1, 0.1, 8, c=None, second_order=True) == np.inf
    assert iteration_bound(8, 4, 1.0, 0.1) > 0
    assert iteration_bound(8, 1, 0.0, 0.1) == 0


def test_growth_saturates_past_the_float_range():
    assert growth(2.0, 1.0) == 16.0
    assert growth(2.0, 255.0) == 2.0**1020
    assert growth(2.0, 256.0) == growth(1.5, 1e6) == np.inf
    assert guarantee_general(300.0, 4, 0.1, 8) == np.inf


def test_end_to_end_ratio_within_guarantee():
    rng = np.random.default_rng(10)
    for trial in range(15):
        fn = random_diversity(rng, 8, power=2.0 if trial % 2 else 1.0)
        M = UniformMatroid(8, 3)
        gamma = max(gamma_parameter(fn).gamma, 1.0)
        result = solve(fn, M)
        _, opt = brute_force_opt(fn, M)
        assert result.chosen_value > 0
        ratio = opt / result.chosen_value
        cls = classify(fn)
        bound = min(
            guarantee_general(gamma, M.rank, 0.1, 8),
            guarantee_supermodular(
                gamma, M.rank, 0.1, 8, M.min_circuit_size, cls.second_order_submodular
            ),
        )
        assert ratio <= bound * (1 + 1e-9)
        assert result.iterations <= iteration_bound(8, M.rank, gamma, 0.1)


def test_submodular_coverage_sanity_ratio():
    rng = np.random.default_rng(11)
    for _ in range(10):
        fn = random_coverage(rng, 8)
        M = UniformMatroid(8, 3)
        result = solve(fn, M)
        _, opt = brute_force_opt(fn, M)
        if opt > 0:
            # classic local-search sanity bound for submodular objectives
            assert opt / max(result.chosen_value, 1e-300) <= 3 + 0.1


# ------------------------------------------- fast paths against reference loops


def scalar_best_pair(fn, M):
    """Lexicographic pair scan, one value call per independent pair."""
    best_mask, best_value = 0, None
    for i in range(fn.n):
        for j in range(i + 1, fn.n):
            mask = (1 << i) | (1 << j)
            if M.is_independent(mask):
                v = fn.value(mask)
                if best_value is None or v > best_value:
                    best_mask, best_value = mask, v
    return best_mask


def scalar_local_search(fn, M, S, epsilon):
    """One candidate at a time: value and independence per swap, stopping at
    the first accepted swap; returns (S, evaluations, trace)."""
    n = fn.n
    threshold = 1.0 + epsilon / (n * n)
    evaluations = 0
    trace = []
    current = fn.value(S)
    while True:
        pick = None
        for i in elements_of(S):
            for j in elements_of(((1 << n) - 1) & ~S):
                cand = (S & ~(1 << i)) | (1 << j)
                if not M.is_independent(cand):
                    continue
                v = fn.value(cand)
                evaluations += 1
                if v >= threshold * current if current > 0 else v > current:
                    pick = (i, j, v)
                    break
            if pick is not None:
                break
        if pick is None:
            return S, evaluations, trace
        S = (S & ~(1 << pick[0])) | (1 << pick[1])
        current = pick[2]
        trace.append({"iteration": len(trace) + 1, "removed": pick[0], "inserted": pick[1],
                      "value": current})


@pytest.mark.parametrize("matroid", sorted(MATROIDS))
def test_solve_with_overrides_matches_the_reference_loops(matroid, monkeypatch):
    epsilon = 0.01
    for seed in range(3):
        for fn in fresh_oracles(np.random.default_rng([seed, 9]), 9):
            M = MATROIDS[matroid]()
            fast = solve(fn, M, epsilon)
            fast_from_empty = local_search(fn, M, M.greedy(range(M.n)), epsilon)[:3]
            weights = []
            with monkeypatch.context() as m:
                force_reference_loops(m)
                m.setattr(search, "max_weight_matching_k",
                          lambda w, k: weights.append(w) or max_weight_matching_k(w, k))
                ref = solve(fn, M, epsilon)
                ref_from_empty = local_search(fn, M, M.greedy(range(M.n)), epsilon)[:3]
                sd = [[second_difference(fn, i, j, ref.S) for j in range(9) if not ref.S >> j & 1]
                      for i in elements_of(ref.S)]
            case = (matroid, seed, fn.kind)
            assert fast_from_empty == ref_from_empty, case
            assert ref_from_empty == scalar_local_search(fn, M, M.greedy(range(M.n)), epsilon), case
            assert ref.initial == scalar_best_pair(fn, M), case
            for key in ("initial", "S", "S_prime", "chosen", "trace", "iterations",
                        "evaluations", "S_value", "S_prime_value", "chosen_value"):
                assert getattr(fast, key) == getattr(ref, key), (case, key)
            assert (fast.matching is None) == (ref.matching is None), case
            if ref.matching is not None:
                assert fast.matching.pairs == ref.matching.pairs, case
                assert close(fast.matching.total_weight, ref.matching.total_weight), case
                # the base loops give the second differences bit for bit
                np.testing.assert_array_equal(weights[0], sd, err_msg=str(case))


@pytest.mark.parametrize("matroid", ["uniform", "partition", "graphic"])
def test_best_pair_at_the_bitmask_cap_matches_the_scalar_scan(matroid):
    n = 62
    rng = np.random.default_rng(62)
    M = {
        "uniform": lambda: UniformMatroid(n, 20),
        "partition": lambda: PartitionMatroid(
            [list(range(0, 20)), list(range(20, 21)), list(range(21, 40)), list(range(40, n))],
            [1, 2, 0, 2]),
        "graphic": lambda: GraphicMatroid(
            12, [tuple(int(v) for v in rng.integers(0, 12, size=2)) for _ in range(n)]),
    }[matroid]()
    for fn in (random_diversity(rng, n),
               DiversityFunction(random_metric(rng, n), weights=rng.random(n)),
               random_coverage(rng, n)):
        assert best_pair_init(fn, M) == scalar_best_pair(fn, M), fn.kind


def test_best_pair_matches_the_scalar_scan_on_ties():
    matroids = [
        *(make() for make in MATROIDS.values()),
        # dependent pairs: two elements of the cap-1 block; a loop, and two
        # parallel edges
        PartitionMatroid([[0, 1, 2, 3], [4, 5, 6, 7, 8]], [1, 2]),
        GraphicMatroid(4, [(0, 1), (1, 0), (2, 2), (1, 2), (2, 3), (3, 1), (1, 2), (0, 3),
                           (3, 3)]),
        # below rank 2 the seed is the best singleton; rank 1 before rank 0
        UniformMatroid(9, 1),
        UniformMatroid(9, 0),
    ]
    for seed in range(5):
        rng = np.random.default_rng([seed, 37])
        # the pool oracles, with signed zeros and all-equal pair values among
        # them, and an integer table of five distinct values
        table = rng.integers(-2, 3, 1 << 9).astype(float)
        table[0] = 0.0
        fns = [*fresh_oracles(rng, 9), *awkward_diversities(rng, 9),
               signed_zero_diversity(rng, 9), all_ones_diversity(9), TableFunction(table)]
        for M in matroids:
            for fn in fns:
                want = scalar_best_pair(fn, M) or scalar_best_singleton(fn, M)
                assert best_pair_init(fn, M) == want, (seed, M.kind, M.rank, fn.kind)


def test_best_pair_strikes_off_dependent_top_pairs(monkeypatch):
    # 50 far-apart points in a cap-1 block: most of the highest-valued pairs
    # lie in that block and are dependent
    rng = np.random.default_rng(50)
    points = np.vstack([rng.standard_normal((50, 3)) * 1000.0, rng.standard_normal((12, 3))])
    fn = DiversityFunction(euclidean(points))
    M = PartitionMatroid([list(range(50)), list(range(50, 62))], [1, 2])
    want = scalar_best_pair(fn, M)
    calls = []
    is_independent = M.is_independent
    monkeypatch.setattr(M, "is_independent",
                        lambda mask: calls.append(mask) or is_independent(mask))
    assert best_pair_init(fn, M) == want
    assert len(calls) > 1 and calls[-1] == want
    assert not any(map(is_independent, calls[:-1]))


def test_solve_past_62_elements_is_the_same_on_the_base_oracle_methods(monkeypatch):
    rng = np.random.default_rng(100)
    fn = DiversityFunction(random_metric(rng, 100))
    M = UniformMatroid(100, 10)
    fast = solve(fn, M)
    with monkeypatch.context() as m:
        force_reference_loops(m)
        ref = solve(fn, M)
    assert fast.chosen == ref.chosen and fast.chosen.bit_count() == 10
    assert close(fast.chosen_value, ref.chosen_value)
    # the oracles have no cap of their own: 100 points in R^3 under a rank of 30
    fn = DiversityFunction(euclidean(np.random.default_rng(0).standard_normal((100, 3))))
    assert solve(fn, UniformMatroid(100, 30)).chosen.bit_count() == 30


def test_solve_reports_the_same_before_and_after_the_table():
    epsilon = 0.01
    for seed in range(3):
        rng = np.random.default_rng([seed, 13])
        for fn in [*fresh_oracles(rng, 10), *awkward_diversities(rng, 10)]:
            M = UniformMatroid(10, 4)
            before = json.dumps(solve(fn, M, epsilon).to_dict(), sort_keys=True)
            fn.value_table()
            after = json.dumps(solve(fn, M, epsilon).to_dict(), sort_keys=True)
            assert after == before, (seed, fn.kind)


def test_the_solver_reads_f_of_s_from_the_neighbourhood(monkeypatch):
    calls = []
    oracles = list(fresh_oracles(np.random.default_rng(17), 9))  # built before the patch
    for cls in {type(fn) for fn in oracles}:
        value = vars(cls)["value"]
        monkeypatch.setattr(cls, "value", lambda self, mask, value=value: calls.append(self)
                            or value(self, mask))
    for fn in oracles:
        if fn.kind == "table":
            continue  # no override: the base neighbourhood calls value
        M = UniformMatroid(9, 4)
        S, _, trace, around = local_search(fn, M, M.greedy(range(M.n)))
        matching_step(M, S, around)
        assert trace and calls == [], fn.kind
        solve(fn, M)
        assert [c for c in calls if c is fn] == [fn], fn.kind  # f(S') only
        calls.clear()


@pytest.mark.parametrize("matroid", sorted(MATROIDS))
def test_a_solve_computes_each_neighbourhood_once(matroid, monkeypatch):
    # local search hands its last neighbourhood to the matching step, which
    # then calls no oracle method at all
    calls = []
    matching = []

    def record(name, method):
        return lambda self, *args: calls.append((self, name, args, bool(matching))) or method(
            self, *args)

    for cls in [SetFunctionOracle, *subclasses(SetFunctionOracle)]:
        for name in ("value", "neighbourhood", "pair_values", "value_table"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, record(name, vars(cls)[name]))
    step = search.matching_step

    def recorded_step(*args):
        matching.append(True)
        try:
            return step(*args)
        finally:
            matching.pop()

    monkeypatch.setattr(search, "matching_step", recorded_step)
    for fn in fresh_oracles(np.random.default_rng(19), 9):
        calls.clear()
        result = solve(fn, MATROIDS[matroid](), 0.01)
        assert result.matching is not None, fn.kind
        masks = [args[0] for self, name, args, _ in calls if self is fn and name == "neighbourhood"]
        assert len(masks) == len(set(masks)), fn.kind
        assert not [call for call in calls if call[3]], fn.kind
