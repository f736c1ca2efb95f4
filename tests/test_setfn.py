import math

import numpy as np
import pytest

import metasub
from metasub import cli, diag, search
from metasub.errors import GuardError, ValidationError
from metasub.matroid import GraphicMatroid, PartitionMatroid, UniformMatroid
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    TableFunction,
    elements_of,
    mask_of,
    split,
)
from util import (
    awkward_diversities,
    fresh_oracles,
    random_coverage,
    random_diversity,
    random_metric,
    random_mixed_oracle,
    random_table,
)


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert elements_of(0b101001) == [0, 3, 5]
    assert elements_of(0) == []
    for mask, n in ((0b101001, 6), (0, 1), (1, 1), (0b101001, 9), (1 << 69 | 1, 70)):
        inside, outside = split(mask, n)
        assert inside.tolist() == elements_of(mask)
        assert outside.tolist() == elements_of(((1 << n) - 1) & ~mask)


def test_empty_set_is_zero_for_all_builders():
    rng = np.random.default_rng(0)
    for _ in range(10):
        fn = random_mixed_oracle(rng, 5)
        assert fn.value(0) == 0.0


def test_diversity_value_is_pairwise_sum():
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
    fn = DiversityFunction(D)
    assert fn.value(mask_of([0, 1])) == 1.0
    assert fn.value(mask_of([0, 1, 2])) == 7.0
    assert fn.value(mask_of([2])) == 0.0


def test_diversity_modular_weights():
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    fn = DiversityFunction(D, weights=[2.0, 3.0])
    assert fn.value(mask_of([0])) == 2.0
    assert fn.value(mask_of([0, 1])) == 6.0
    with pytest.raises(ValidationError):
        DiversityFunction(D, weights=[-1.0, 0.0])


def test_table_rejects_nested_values():
    for raw, shape in (([[0.0], [1.0]], r"\(2, 1\)"), (0.0, r"\(\)")):
        with pytest.raises(ValidationError, match=f"flat list, got shape {shape}"):
            TableFunction(raw)


def test_diversity_validates_the_distance_before_reading_its_shape():
    for raw in (5, [1.0, 2.0]):
        with pytest.raises(ValidationError, match="must be square"):
            DiversityFunction(raw)


def test_coverage_is_union_weight():
    fn = CoverageFunction([[0, 1], [1, 2], [3]], [1.0, 2.0, 4.0, 8.0])
    assert fn.value(mask_of([0])) == 3.0
    assert fn.value(mask_of([0, 1])) == 7.0
    assert fn.value(mask_of([0, 1, 2])) == 15.0


def test_table_validation():
    with pytest.raises(ValidationError):
        TableFunction([0.0, 1.0, 2.0])  # not a power of two
    with pytest.raises(ValidationError):
        TableFunction([1.0, 2.0])  # empty set must map to 0
    with pytest.raises(ValidationError):
        TableFunction([0.0, np.inf])
    fn = TableFunction([0.0, 1.0, 2.0, 5.0])
    assert fn.n == 2
    assert fn.value(3) == 5.0


def test_a_table_holds_a_zero_of_the_sign_given_at_the_empty_set():
    for empty in (1e-13, -1e-13, 0.0, -0.0):
        fn = TableFunction([empty, 1.0, 1.0, 2.0])
        assert fn.value(0) == 0.0 and math.copysign(1.0, fn.value(0)) == math.copysign(1.0, empty)
        assert fn.value_table()[0].tobytes() == np.float64(fn.value(0)).tobytes()


def test_an_oracle_reads_its_own_copy_of_each_input():
    # the caller edits its arrays after construction; every path still reads
    # what a twin built from untouched copies reads, bit for bit
    rng = np.random.default_rng(38)
    n = 6
    D, weights, cover = random_metric(rng, n), rng.random(n), rng.random(2 * n)
    incidence = [np.flatnonzero(row).tolist() for row in rng.random((n, 2 * n)) < 0.4]
    fns = [DiversityFunction(D), DiversityFunction(D, weights=weights),
           CoverageFunction(incidence, cover)]
    twins = [DiversityFunction(D.copy()), DiversityFunction(D.copy(), weights=weights.copy()),
             CoverageFunction(incidence, cover.copy())]
    D[0, 1] = D[1, 0] = 99.0
    weights[:] = 7.0
    cover[:] = 9.0
    owned = [fns[0].distance, fns[1].distance, fns[1].weights, fns[2].universe_weights]
    assert not any(np.shares_memory(mine, theirs)
                   for mine, theirs in zip(owned, (D, D, weights, cover)))

    def bits(*arrays):
        return [np.asarray(a).tobytes() for a in arrays]

    M = UniformMatroid(n, 3)
    for fn, twin in zip(fns, twins):
        for mask in range(1 << n):
            assert bits(*fn.neighbourhood(mask)) == bits(*twin.neighbourhood(mask)), mask
            assert fn.value(mask).hex() == twin.value(mask).hex(), mask
        assert bits(fn.pair_values()) == bits(twin.pair_values())
        assert [fn.greedy_extend(M, 1 << i) for i in range(n)] == [
            twin.greedy_extend(M, 1 << i) for i in range(n)]
        assert bits(fn.value_table()) == bits(twin.value_table())


def test_public_names_resolve():
    missing = [name for name in metasub.__all__ if not hasattr(metasub, name)]
    assert not missing, missing


def test_values_are_the_same_bits_before_and_after_the_table():
    for n in (1, 2, 5, 10):
        rng = np.random.default_rng([n, 11])
        fns = [*fresh_oracles(rng, n), *awkward_diversities(rng, n)]
        fns.append(DiversityFunction(random_metric(rng, n) ** 2, weights=rng.random(n) * 1e3))
        for fn in fns:
            before = [fn.value(mask).hex() for mask in range(1 << n)]
            fn.value_table()
            after = [fn.value(mask).hex() for mask in range(1 << n)]
            assert after == before, (fn.kind, n)


def test_value_table_stops_at_the_table_guard():
    with pytest.raises(GuardError):
        CoverageFunction([[0]] * 21, [1.0]).value_table()


def test_a_table_oracle_past_the_guard_has_no_value_table():
    fn = TableFunction(np.zeros(1 << 21))
    assert fn.value((1 << 21) - 1) == 0.0  # its scalar path reads the lookup itself
    with pytest.raises(GuardError):
        fn.value_table()
    with pytest.raises(GuardError):
        diag.gamma_parameter(fn)


def test_ground_set_bounds():
    with pytest.raises(ValidationError):
        TableFunction([0.0])
    with pytest.raises(ValidationError):
        CoverageFunction([], [])
    # the oracles take any n; the cap of 62 bounds instance documents only
    assert CoverageFunction([[0]] * 63, [1.0]).n == 63
    doc = {"n": 63, "function": {"kind": "coverage", "incidence": [[0]] * 63,
                                 "universe_weights": [1.0]},
           "matroid": {"kind": "uniform", "r": 2}}
    with pytest.raises(ValidationError, match="outside \\[1, 62\\]"):
        cli.parse_instance(doc)


def test_coverage_rejects_fractional_and_boolean_items():
    for item in (0.5, True, "0"):
        with pytest.raises(ValidationError, match="incidence item must be an integer"):
            CoverageFunction([[item]], [1.0])


def test_every_mask_taking_method_rejects_a_mask_out_of_range():
    # negative, a bit at n or above, and bits past n within n's last byte,
    # which split would otherwise read as absent
    n = 4
    rng = np.random.default_rng(3)
    fns = [random_diversity(rng, n), random_coverage(rng, n), random_table(rng, n)]
    matroids = [UniformMatroid(n, 2), PartitionMatroid([[0, 1], [2, 3]], [1, 2]),
                GraphicMatroid(3, [(0, 1), (1, 2), (2, 0), (0, 1)])]
    calls = [getattr(fn, name) for fn in fns for name in ("value", "neighbourhood")]
    calls += [lambda mask, fn=fn, M=M: fn.greedy_extend(M, mask) for fn in fns for M in matroids]
    calls += [getattr(M, name) for M in matroids
              for name in ("is_independent", "add_feasible", "swap_feasible")]
    # uniform rank 2 budgets one pair at every size of these masks, so the step reads them
    around = fns[0].neighbourhood(0b11)
    calls.append(lambda mask: search.matching_step(matroids[0], mask, around))
    for call in calls:
        for mask in (-1, 1 << n, 1 << (n + 1), 0b111 << n):
            with pytest.raises(ValidationError, match=f"mask {mask:#x} out of range"):
                call(mask)
