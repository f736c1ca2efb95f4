import numpy as np
import pytest

import metasub
from metasub import cli, diag
from metasub.errors import GuardError, ValidationError
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    elements_of,
    mask_of,
    split,
)
from util import (
    awkward_diversities,
    close,
    fresh_oracles,
    mixed_table,
    random_coverage,
    random_metric,
    random_mixed_oracle,
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


def test_value_table_matches_raw_value_loop_and_guards():
    for n in (1, 5, 10):
        for fn in fresh_oracles(np.random.default_rng(n), n):
            reference = [fn._raw_value(mask) - fn._raw_value(0) for mask in range(1 << n)]
            table = fn.value_table()
            assert table.shape == (1 << n,)
            for mask, expect in enumerate(reference):
                assert close(table[mask], expect), (fn.kind, n, mask, table[mask], expect)

    big = CoverageFunction([[0]] * 21, [1.0])
    with pytest.raises(GuardError):
        big.value_table()


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


def loop_neighbourhood(fn, mask):
    """The four neighbourhood entries, one value call per entry."""
    inside = elements_of(mask)
    outside = elements_of(((1 << fn.n) - 1) & ~mask)
    drop = [fn.value(mask & ~(1 << i)) for i in inside]
    add = [fn.value(mask | (1 << j)) for j in outside]
    swap = [[fn.value((mask & ~(1 << i)) | (1 << j)) for j in outside] for i in inside]
    return (fn.value(mask), np.array(drop), np.array(add),
            np.reshape(swap, (len(inside), len(outside))))


def test_neighbourhood_overrides_match_the_value_loop():
    # the coverage bench shape: n=62, a universe of 124 items, |S| = 20 (no table)
    rng = np.random.default_rng(62)
    cases = [(random_coverage(rng, 62), (False,),
              {mask_of(rng.choice(62, size=20, replace=False)) for _ in range(2)})]
    for n in (1, 2, 7):
        rng = np.random.default_rng(n)
        masks = {0, 1, (1 << n) - 1, *(int(m) for m in rng.integers(0, 1 << n, size=4))}
        cases += [(fn, (False, True), masks) for fn in [
            *fresh_oracles(rng, n), *awkward_diversities(rng, n), CoverageFunction([[]] * n, [])]]
    for fn, fills, masks in cases:
        n = fn.n
        for filled in fills:
            if filled:
                fn.value_table()  # a filled table changes no value
            for mask in masks:
                current, *expect = loop_neighbourhood(fn, mask)
                got_current, *got = fn.neighbourhood(mask)
                base_current, *base = SetFunctionOracle.neighbourhood(fn, mask)
                for value in (got_current, base_current):
                    assert isinstance(value, float), (fn.kind, mask)
                    assert value.hex() == current.hex(), (fn.kind, n, mask, filled)
                for got, want, ref in zip(got, expect, base):
                    assert got.shape == want.shape, (fn.kind, mask)
                    np.testing.assert_array_equal(ref, want)
                    if fn.kind == "coverage":  # every union is summed as value sums it
                        np.testing.assert_array_equal(got, want)
                    assert all(close(a, b) for a, b in zip(got.ravel(), want.ravel())), \
                        (fn.kind, n, mask, got, want)


def test_the_base_neighbourhood_past_62_elements():
    # masks with elements at 62 and above do not fit an int64
    n = 70
    rng = np.random.default_rng(70)
    fn = DiversityFunction(random_metric(rng, n), weights=rng.random(n))
    for mask in (0, 1 << 69, mask_of(rng.choice(n, size=20, replace=False)) | 1 << 65):
        current, *expect = loop_neighbourhood(fn, mask)
        base_current, *base = SetFunctionOracle.neighbourhood(fn, mask)
        got_current, *got = fn.neighbourhood(mask)
        assert base_current.hex() == current.hex() and close(got_current, current)
        for ref, want, fast in zip(base, expect, got):
            np.testing.assert_array_equal(ref, want)
            assert fast.shape == want.shape
            assert all(close(a, b) for a, b in zip(fast.ravel(), want.ravel())), mask


def test_pair_values_overrides_match_the_neighbourhood_rows():
    for n in (1, 2, 7):
        rng = np.random.default_rng([n, 3])
        # asymmetric within the validation tolerance, so the summation order shows
        D = random_metric(rng, n) + np.triu(rng.random((n, n)), 1) * 1e-13
        fns = [
            *fresh_oracles(rng, n),
            DiversityFunction(D),
            DiversityFunction(D, weights=rng.random(n)),
            mixed_table([(DiversityFunction(D, weights=rng.random(n)), 0.5),
                         (random_coverage(rng, n), 1.5)]),
            *awkward_diversities(rng, n),
        ]
        for fn in fns:
            for filled in (False, True):
                if filled:
                    fn.value_table()
                want = SetFunctionOracle.pair_values(fn)
                for i in range(n):
                    row = fn.neighbourhood(1 << i)[2]
                    np.testing.assert_array_equal(np.delete(want[i], i), row)
                    assert want[i, i] == 0.0
                    assert all(close(want[i, j], fn.value(mask_of([i, j])))
                               for j in range(n) if j != i)
                got = fn.pair_values()
                assert got.shape == (n, n), fn.kind
                np.testing.assert_array_equal(got, want, err_msg=f"{fn.kind} {n} {filled}")


def test_coverage_pair_values_are_the_bits_of_the_base_method():
    # one masked row sum per pair, as neighbourhood({i}) sums f({i, j})
    rng = np.random.default_rng(40)
    for k in range(40):
        n = int(rng.integers(1, 63))
        m = int(rng.integers(0, 2 * n + 1))
        incidence = [list(np.flatnonzero(rng.random(m) < rng.random())) for _ in range(n)]
        weights = rng.random(m) * (rng.random(m) < 0.8) * 10.0 ** rng.integers(-3, 4)
        fn = CoverageFunction(incidence, weights)
        got = fn.pair_values()
        assert got.shape == (n, n) and not got.diagonal().any()
        np.testing.assert_array_equal(got, SetFunctionOracle.pair_values(fn), err_msg=str(k))


def test_coverage_rejects_fractional_and_boolean_items():
    for item in (0.5, True, "0"):
        with pytest.raises(ValidationError, match="incidence item must be an integer"):
            CoverageFunction([[item]], [1.0])
