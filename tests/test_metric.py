import warnings

import numpy as np
import pytest

from metasub.errors import ValidationError
from metasub.metric import (
    is_negative_type,
    is_sqrt_metric,
    js_divergence,
    js_divergence_matrix,
    semi_metric_parameter,
    validate_distance,
)
from util import (
    awkward_inputs,
    euclidean,
    loop_is_sqrt_metric,
    loop_js_divergence,
    loop_semi_metric_parameter,
    random_metric,
)


def test_validate_accepts_simple_metric():
    D = validate_distance([[0, 1], [1, 0]])
    assert D.shape == (2, 2)


def test_validate_reports_each_violation():
    with pytest.raises(ValidationError, match=r"asymmetry at \(0,1\)"):
        validate_distance([[0, 1], [2, 0]])
    with pytest.raises(ValidationError, match=r"diagonal at \(0,0\)"):
        validate_distance([[1.0]])
    with pytest.raises(ValidationError, match=r"negative entry at \(0,1\)"):
        validate_distance([[0, -1], [-1, 0]])
    with pytest.raises(ValidationError, match="square"):
        validate_distance([[0, 1, 1], [1, 0, 1]])


def test_validate_lists_every_violation_in_order():
    inf = float("inf")
    D = [[0.5, 1.0, 2.0, inf],
         [1.5, 0.0, 1.0, -1.0],
         [2.0, 1.0, -2.0, 1.0],
         [inf, -1.0, 1.0000001, 1e-13]]

    def r(x):  # the scalar repr: np.float64(0.5) under numpy 2, 0.5 before
        return repr(np.float64(x))

    want = (
        f"invalid distance matrix: nonzero diagonal at (0,0): {r(0.5)}; "
        f"nonzero diagonal at (2,2): {r(-2.0)}; "
        f"asymmetry at (0,1): {r(1.0)} vs {r(1.5)}; "
        f"asymmetry at (2,3): {r(1.0)} vs {r(1.0000001)}; "
        f"negative entry at (1,3): {r(-1.0)}; negative entry at (2,2): {r(-2.0)}; "
        f"negative entry at (3,1): {r(-1.0)}; non-finite entry"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf - inf is no asymmetry and no warning
        with pytest.raises(ValidationError) as info:
            validate_distance(D)
    assert str(info.value) == want


def test_validate_returns_a_new_canonical_matrix():
    rng = np.random.default_rng(38)
    # symmetric with a zero diagonal, -0.0 cells and a -0.0 diagonal entry
    # among them: the same bits come back, in a new array
    D = random_metric(rng, 6)
    D[0, 0] = D[1, 2] = D[2, 1] = -0.0
    got = validate_distance(D)
    assert got.tobytes() == D.tobytes() and not np.shares_memory(got, D)
    # accepted asymmetry, negatives and diagonal: the upper triangle mirrored,
    # on the diagonal times 0.0
    for n in (1, 2, 7):
        raw = awkward_inputs(rng, n)[0]
        want = np.empty((n, n))
        for i in range(n):
            want[i, i] = raw[i, i] * 0.0
            for j in range(i + 1, n):
                want[i, j] = want[j, i] = raw[i, j]
        got = validate_distance(raw)
        assert got.tobytes() == want.tobytes() and not np.shares_memory(got, raw), n


def test_semi_metric_all_ones_triangle():
    D = np.ones((3, 3)) - np.eye(3)
    report = semi_metric_parameter(D)
    assert report.sigma == pytest.approx(0.5)
    assert not report.is_infinite


def test_semi_metric_squared_line():
    # collinear points 0,1,2 with squared distances
    D = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=float)
    report = semi_metric_parameter(D)
    assert report.sigma == pytest.approx(2.0)
    assert report.witness in ((0, 2, 1), (2, 0, 1))


def test_semi_metric_zero_matrix_and_small_n():
    assert semi_metric_parameter(np.zeros((3, 3))).sigma == 0.0
    assert semi_metric_parameter(np.zeros((2, 2))).sigma == 0.0


def test_semi_metric_infinite_flag():
    D = np.zeros((3, 3))
    D[0, 1] = D[1, 0] = 1.0
    report = semi_metric_parameter(D)
    assert report.is_infinite
    i, j, k = report.witness
    assert {i, j} == {0, 1} and k == 2


def test_semi_metric_scale_invariant():
    rng = np.random.default_rng(0)
    D = random_metric(rng, 6) ** 1.7
    a = semi_metric_parameter(D).sigma
    b = semi_metric_parameter(7.3 * D).sigma
    assert a == pytest.approx(b, rel=1e-12)


def test_metric_verdicts_do_not_depend_on_a_power_of_two_scale():
    # each check's zero tolerance scales with max |D| (the roots' with its root),
    # so the rounding of a tight inequality at 2^k stays below it
    rng = np.random.default_rng(7)
    for _ in range(10):
        points = rng.standard_normal((20, 3))
        line = rng.standard_normal((8, 1))  # collinear: every root triangle is tight
        for k in (20, 40, 60):
            assert is_negative_type(np.ldexp(euclidean(points) ** 2, k))[0], k
            assert is_sqrt_metric(np.ldexp(euclidean(line) ** 2, 2 * k)) == (True, None), k
        D = random_metric(rng, 8) ** float(rng.choice([1.0, 2.0, 3.0]))
        want = semi_metric_parameter(D)
        for k in (20, 60):
            assert semi_metric_parameter(np.ldexp(D, k)) == want, k


def test_a_zero_tolerance_decides_exactly():
    # tol 0 scales to 0: a root triangle broken by one part in 10^12 is broken
    D = np.array([[0.0, 4.0 * (1 + 1e-12), 1.0], [4.0 * (1 + 1e-12), 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert is_sqrt_metric(D)[0]
    assert is_sqrt_metric(D, 0.0) == (False, (0, 1, 2))


def test_negative_type_squared_euclidean():
    rng = np.random.default_rng(1)
    for seed in range(5):
        pts = np.random.default_rng(seed).standard_normal((5, 3))
        ok, top = is_negative_type(euclidean(pts) ** 2)
        assert ok, top
    assert is_negative_type(np.zeros((4, 4)))[0]


def test_negative_type_matches_random_sampling():
    # eigen decision cross-checked against a random centered-vector search
    rng = np.random.default_rng(2)
    for trial in range(20):
        D = random_metric(rng, 5) ** rng.uniform(1.0, 4.0)
        ok, top = is_negative_type(D)
        xs = rng.standard_normal((10_000, 5))
        xs -= xs.mean(axis=1, keepdims=True)
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        sampled_max = float(np.einsum("bi,ij,bj->b", xs, D, xs).max())
        if ok:
            assert sampled_max <= 1e-9
        else:
            # spectral maximum dominates any sampled value
            assert top >= sampled_max - 1e-9


def test_negative_type_implies_two_semi_metric():
    rng = np.random.default_rng(3)
    for seed in range(20):
        D = euclidean(np.random.default_rng(seed).standard_normal((6, 3))) ** 2
        assert is_negative_type(D)[0]
        assert semi_metric_parameter(D).sigma <= 2 + 1e-6


def test_sqrt_metric_cases():
    ok, witness = is_sqrt_metric(np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=float))
    assert ok and witness is None
    ok, witness = is_sqrt_metric(np.array([[0, 9, 1], [9, 0, 1], [1, 1, 0]], dtype=float))
    assert not ok
    assert witness == (0, 1, 2)


def test_sqrt_metric_implies_two_semi_metric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        D = random_metric(rng, 6) ** 2
        if is_sqrt_metric(D)[0]:
            assert semi_metric_parameter(D).sigma <= 2 + 1e-6


def test_metric_is_one_semi_metric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert semi_metric_parameter(random_metric(rng, 7)).sigma <= 1 + 1e-9


def differential_matrices(rng, n):
    """One distance matrix per family the array checks must agree on."""
    power = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
    yield random_metric(rng, n) ** power
    yield np.rint(3.0 * random_metric(rng, n)) ** power  # ties
    zeroed = random_metric(rng, n) ** power
    gone = rng.random(n) < 0.3
    zeroed[gone] = zeroed[:, gone] = 0.0
    yield zeroed
    lone = np.zeros((n, n))  # one positive pair, with no two-leg path: infinite
    if n >= 2:
        a, b = rng.choice(n, 2, replace=False)
        lone[a, b] = lone[b, a] = rng.random()
    yield lone
    yield awkward_inputs(rng, n)[0]  # raw: asymmetric, -0.0 cells, negatives
    # entries near the tolerance: a stuck pair can follow a positive ratio in its row
    tiny = np.triu(rng.choice([-1e-12, 0.0, 5e-13, 1.5e-12, 1.0, 2.0], size=(n, n)), 1)
    yield tiny + tiny.T


def test_array_checks_match_the_triple_loops():
    # a stuck pair after a positive ratio in row 0; then two square-root
    # triangles that are tight at tol 0 and broken only by reading root(k,j)
    # for root(j,k), or root(j,i) for root(i,j), each within the 1e-12 asymmetry
    cases = [np.array([[0.0, 1.5e-12, 1.0], [1.5e-12, 0.0, -1e-12], [1.0, -1e-12, 0.0]]),
             np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 1.0], [1.0, 1.0 - 1e-13, 0.0]]),
             np.array([[0.0, 4.0, 1.0], [4.0 + 5e-13, 0.0, 1.0], [1.0, 1.0, 0.0]]),
             random_metric(np.random.default_rng(62), 62) ** 3]
    for seed in range(180):
        rng = np.random.default_rng(seed)
        cases += differential_matrices(rng, int(rng.integers(1, 9)))
    assert len(cases) >= 1000
    infinite = 0
    for D in cases:
        want, got = loop_semi_metric_parameter(D), semi_metric_parameter(D)
        assert float.hex(float(got.sigma)) == float.hex(float(want.sigma)), D
        assert (got.is_infinite, got.witness) == (want.is_infinite, want.witness), D
        infinite += got.is_infinite
        for tol in (1e-9, 0.0):
            assert is_sqrt_metric(D, tol) == loop_is_sqrt_metric(D, tol), D
    assert infinite


def test_js_divergence_known_values():
    assert js_divergence(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.log(2))
    # direct summation of the definition for p=(1,0), q=(1/2,1/2)
    p, q = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    m = (p + q) / 2
    direct = 0.5 * (1.0 * np.log(1.0 / m[0])) + 0.5 * (
        0.5 * np.log(0.5 / m[0]) + 0.5 * np.log(0.5 / m[1])
    )
    assert js_divergence(p, q) == pytest.approx(direct, rel=1e-12)


def test_js_matrix_properties_and_validation():
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(4), size=6)
    D = js_divergence_matrix(probs)
    assert is_sqrt_metric(D)[0]
    assert semi_metric_parameter(D).sigma <= 2 + 1e-6
    with pytest.raises(ValidationError, match="sums to"):
        js_divergence_matrix([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="negative"):
        js_divergence_matrix([[1.5, -0.5], [0.5, 0.5]])


def sparse_distributions(rng, n, support):
    """n distributions over `support` items, each with about half its entries 0."""
    probs = rng.dirichlet(np.ones(support), size=n) * (rng.random((n, support)) < 0.5)
    probs[np.arange(n), rng.integers(0, support, n)] += 1.0  # one positive entry at least
    return probs / probs.sum(axis=1, keepdims=True)


def test_js_matrix_matches_the_pairwise_loop():
    rng = np.random.default_rng(31)
    cases = [(rng.dirichlet(np.ones(support), size=n), True)
             for support in (2, 4, 8, 30) for n in (2, 5, 12)]
    # numpy sums fewer than 8 terms in order, and more in 8 interleaved partial
    # sums, which the zero terms of a sparse row regroup
    cases += [(sparse_distributions(rng, 12, support), support < 8) for support in range(1, 20)]
    for probs, exact in cases:
        D, ref = js_divergence_matrix(probs), loop_js_divergence(probs)
        assert np.array_equal(D, D.T) and not D.diagonal().any(), probs.shape
        if exact:
            assert np.array_equal(D, ref), probs.shape
        else:
            assert np.all(np.abs(D - ref) <= 1e-15 * ref), probs.shape
