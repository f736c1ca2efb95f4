import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metasub.errors import ValidationError
from metasub.matching import max_weight_matching_k
from util import exhaustive_matching


def test_known_small_cases():
    w = [[3.0, 1.0], [2.0, 4.0]]
    m = max_weight_matching_k(w, 2)
    assert m.pairs == [(0, 0), (1, 1)]
    assert m.total_weight == 7.0
    m = max_weight_matching_k(w, 1)
    assert m.pairs == [(1, 1)]
    assert m.total_weight == 4.0
    m = max_weight_matching_k(w, 0)
    assert m.pairs == [] and m.total_weight == 0.0


def test_k_out_of_range_and_bad_input():
    with pytest.raises(ValidationError):
        max_weight_matching_k([[1.0, 2.0]], 2)
    with pytest.raises(ValidationError):
        max_weight_matching_k([[1.0]], -1)
    with pytest.raises(ValidationError):
        max_weight_matching_k([[np.inf]], 1)
    with pytest.raises(ValidationError):
        max_weight_matching_k([1.0, 2.0], 1)


def test_weights_spanning_more_than_the_float_range():
    # max(w) - w overflows here, and an unscaled search never settles a column
    m = max_weight_matching_k([[1e308, -1e308], [-1e308, -1e308]], 2)
    assert m.pairs == [(0, 0), (1, 1)] and m.total_weight == 0.0
    m = max_weight_matching_k([[1e-300, 1e308, -1.7e308]], 1)
    assert m.pairs == [(0, 1)] and m.total_weight == 1e308


def test_negative_weights():
    w = np.array([[-5.0, -1.0], [-2.0, -4.0]])
    m = max_weight_matching_k(w, 2)
    assert m.total_weight == pytest.approx(-3.0)  # -1 + -2
    m = max_weight_matching_k(w, 1)
    assert m.total_weight == pytest.approx(-1.0)


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        w = rng.standard_normal((rows, cols)) * rng.choice([0.1, 1.0, 10.0])
        # rounded, many weights are equal, so many matchings are best
        for m in (w, np.round(w)):
            for k in range(min(rows, cols) + 1):
                got = max_weight_matching_k(m, k)
                assert len(got.pairs) == k
                assert len({i for i, _ in got.pairs}) == k
                assert len({j for _, j in got.pairs}) == k
                assert got.total_weight == pytest.approx(
                    exhaustive_matching(m, k), abs=1e-9
                )


def test_ties_still_return_exactly_k():
    w = np.ones((4, 4))
    for k in range(5):
        m = max_weight_matching_k(w, k)
        assert len(m.pairs) == k
        assert m.total_weight == pytest.approx(float(k))
    # the tie rule: the lowest column first, each to the lowest free row
    assert max_weight_matching_k(np.ones((3, 5)), 3).pairs == [(0, 0), (1, 1), (2, 2)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 10**6),
    st.floats(-100, 100, allow_nan=False),
)
def test_affine_shift_property(rows, cols, seed, shift):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((rows, cols))
    k = int(rng.integers(0, min(rows, cols) + 1))
    base = max_weight_matching_k(w, k).total_weight
    shifted = max_weight_matching_k(w + shift, k).total_weight
    assert shifted == pytest.approx(base + k * shift, abs=1e-8)
