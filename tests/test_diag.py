import json
import math
import tracemalloc

import numpy as np
import pytest

from metasub import diag
from metasub.diag import (
    INTEGRAL_ORDERINGS,
    ClassificationReport,
    ExactTables,
    GammaReport,
    LemmaCheck,
    _check_gradient_growth,
    _check_kleinberg,
    _growth_samples,
    _tables,
    check_discrete_integral,
    check_expectation_inequality,
    check_one_sided_smooth,
    classify,
    gamma_parameter,
    lemma_checks,
)
from metasub.errors import GuardError
from metasub.matroid import UniformMatroid
from metasub.metric import ABS_TOL
from metasub.search import pair_seed_constant
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    elements_of,
    mask_of,
)
from util import (
    OVERFLOWING_TABLE,
    all_ones_diversity,
    awkward_diversities,
    fresh_oracles,
    loop_gradient,
    loop_gradient_growth,
    loop_probabilities,
    marginal,
    multilinear,
    random_coverage,
    random_diversity,
    random_metric,
    random_mixed_oracle,
    random_table,
    second_difference,
)


def test_gamma_all_ones_diversity():
    report = gamma_parameter(all_ones_diversity())
    assert report.gamma == pytest.approx(1.0)
    s, i, j = report.witness
    # equality is attained at the witness
    fn = all_ones_diversity()
    lhs = s.bit_count() * second_difference(fn, i, j, s)
    rhs = report.gamma * (marginal(fn, i, s) + marginal(fn, j, s))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gamma_submodular_is_vacuous():
    rng = np.random.default_rng(0)
    report = gamma_parameter(random_coverage(rng, 6))
    assert report.vacuous
    assert report.gamma == 0.0


def test_gamma_squared_line_diversity():
    D = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=float)
    report = gamma_parameter(DiversityFunction(D))
    assert report.gamma <= 2 + 1e-6


def test_gamma_infinite_flag():
    # a positive second difference with zero marginals
    fn = TableFunction([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    report = gamma_parameter(fn)
    assert report.is_infinite


def test_gamma_guard():
    # the one 2^n guard is the value table's
    with pytest.raises(GuardError):
        gamma_parameter(all_ones_diversity(21))
    with pytest.raises(GuardError):
        classify(all_ones_diversity(21))


def test_classify_metric_diversity():
    rng = np.random.default_rng(2)
    rep = classify(random_diversity(rng, 6))
    assert rep.monotone and rep.supermodular and rep.second_order_submodular
    assert not rep.submodular


def test_classify_coverage():
    rng = np.random.default_rng(3)
    rep = classify(random_coverage(rng, 6))
    assert rep.monotone and rep.submodular


def test_classify_non_monotone_witness():
    rep = classify(TableFunction([0.0, 1.0, 1.0, 0.5]))
    assert not rep.monotone
    w = rep.witnesses["monotone"]
    assert w["B"] == pytest.approx(-0.5)


def test_multilinear_indicator_identities():
    rng = np.random.default_rng(4)
    for fn in fresh_oracles(rng, 6):
        t = ExactTables(fn)
        for mask in (0, 0b1011, 0b111111):
            x = np.array([(mask >> i) & 1 for i in range(6)], dtype=float)
            assert multilinear(t, x) == pytest.approx(fn.value(mask), abs=1e-12)
            grad, H = t.gradient(x), t.hessian(x)
            for i in range(6):
                assert grad[i] == pytest.approx(marginal(fn, i, mask), abs=1e-12)
                for j in range(6):
                    assert H[i, j] == pytest.approx(second_difference(fn, i, j, mask), abs=1e-12)
        # off the vertices each entry is one dot product of the full row A_ij with p_x
        x = rng.random(6)
        H, p, seconds = t.hessian(x), t.probabilities(x), gathered_seconds(t)
        for i in range(6):
            for j in range(6):
                assert H[i, j].hex() == float(seconds[i, j] @ p).hex(), (fn.kind, i, j)


def test_multilinear_quadratic_closed_form():
    rng = np.random.default_rng(5)
    D = random_metric(rng, 5)
    g = rng.random(5)
    fn = DiversityFunction(D, g)
    for _ in range(20):
        x = rng.random(5)
        closed = 0.5 * x @ D @ x + g @ x
        assert multilinear(ExactTables(fn), x) == pytest.approx(closed, rel=1e-9)


def test_multilinear_gradient_matches_finite_difference():
    rng = np.random.default_rng(6)
    t = ExactTables(random_mixed_oracle(rng, 6))
    h = 1e-5
    for _ in range(20):
        x = rng.random(6) * 0.9 + 0.05
        i = int(rng.integers(0, 6))
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        fd = (multilinear(t, plus) - multilinear(t, minus)) / (2 * h)
        assert abs(t.gradient(x)[i] - fd) < 1e-6


def test_smoothness_supermodular_prediction():
    rng = np.random.default_rng(8)
    fn = random_diversity(rng, 6)
    gamma = gamma_parameter(fn).gamma
    sigma = max(3 * gamma, 2 * gamma + 1)
    for _ in range(20):
        x = rng.random(6) * 0.9 + 0.05
        u = rng.random(6)
        assert check_one_sided_smooth(fn, x, u, sigma).residual <= 1e-9
        i, j = rng.choice(6, size=2, replace=False)
        assert check_expectation_inequality(fn, x, int(i), int(j), sigma) <= 1e-9


def test_expectation_inequality_matches_the_hessian_and_gradient():
    rng = np.random.default_rng(23)
    for fn in fresh_oracles(rng, 6):
        t = ExactTables(fn)
        for x in (np.zeros(6), np.full(6, 0.5), np.ones(6), rng.random(6), rng.random(6)):
            grad, H = t.gradient(x), t.hessian(x)
            for i in range(6):
                for j in range(6):
                    sigma = float(rng.random() * 3)
                    want = float(x.sum()) * float(H[i, j]) - sigma * float(grad[i] + grad[j])
                    got = check_expectation_inequality(fn, x, i, j, sigma)
                    assert got.hex() == want.hex(), (fn.kind, x, i, j)


def test_smoothness_zero_direction_and_zero_point():
    fn = all_ones_diversity()
    chk = check_one_sided_smooth(fn, np.full(4, 0.5), np.zeros(4), 1.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0
    with pytest.raises(GuardError):
        check_one_sided_smooth(fn, np.zeros(4), np.ones(4), 1.0)


def test_smoothness_violation_at_gamma_witness():
    # the meta-submodularity inequality is exactly one-sided smoothness at
    # indicator points with direction 1_{i,j} and sigma = gamma/2
    rng = np.random.default_rng(9)
    fn = random_diversity(rng, 6, power=2.0)
    report = gamma_parameter(fn)
    s, i, j = report.witness
    x = np.array([(s >> b) & 1 for b in range(6)], dtype=float)
    u = np.zeros(6)
    u[i] = u[j] = 1.0
    assert check_one_sided_smooth(fn, x, u, report.gamma / 2).residual <= 1e-9
    too_small = report.gamma * 0.99 / 2
    assert check_one_sided_smooth(fn, x, u, too_small).residual > 0


def test_subdomain_smoothness():
    rng = np.random.default_rng(10)
    fn = random_diversity(rng, 6, power=2.0)
    gamma = gamma_parameter(fn).gamma
    for alpha in (1.0, 1.5, 2.0):
        for _ in range(10):
            mask = int(rng.integers(1, 1 << 6))
            size = mask.bit_count()
            x = np.array([(mask >> b) & 1 for b in range(6)], dtype=float)
            slackvec = rng.random(6) * (1 - x)
            budget = alpha * size - size
            if slackvec.sum() > 0:
                x = x + slackvec * min(1.0, budget / slackvec.sum())
            u = rng.random(6)
            assert check_one_sided_smooth(fn, x, u, alpha * gamma).residual <= 1e-9


def test_discrete_integral_modular_and_random():
    modular = DiversityFunction(np.zeros((4, 4)), weights=[1.0, 2.0, 3.0, 4.0])
    assert check_discrete_integral(modular).passed
    rng = np.random.default_rng(11)
    for _ in range(5):
        assert check_discrete_integral(random_mixed_oracle(rng, 6)).passed


def gathered_seconds(t):
    """A_ij over all masks for every (i, j), zero where i == j, gathered from
    the value table by the scalar definition: an n x n x 2^n array."""
    masks, v = np.arange(1 << t.n), t.values
    seconds = np.zeros((t.n, t.n, 1 << t.n))
    for i, j in t.pairs.tolist():
        bi, bj = 1 << i, 1 << j
        base = masks & ~bi & ~bj
        seconds[i, j] = seconds[j, i] = v[base | bi | bj] - v[base | bi] - v[base | bj] + v[base]
    return seconds


def scalar_discrete_integral(t, seed, seconds=None):
    """Reference: one Python walk per (i, R, ordering) over the same seeded
    permutations, each R taken in the order it inherits from them, where an
    element outside R adds an exact 0.0. The worst slack is the largest
    error; the witness is the first failure in (i, mask, draw) order. The
    terms are `seconds`, the gathered ones by default."""
    seconds = gathered_seconds(t) if seconds is None else seconds
    rng = np.random.default_rng(seed)
    perms = [[int(v) for v in rng.permutation(t.n)] for _ in range(INTEGRAL_ORDERINGS)]
    worst, witness = 0.0, {}
    for i in range(t.n):
        rows = seconds[i].tolist()
        b = t.B[i].tolist()
        for mask in range(1 << t.n):
            for perm in perms:
                total, prefix = float(t.values[1 << i]), 0
                for v in perm:
                    if mask >> v & 1:
                        total += rows[v][prefix]
                        prefix |= 1 << v
                    else:
                        total += 0.0
                err = abs(total - b[mask])
                worst = max(worst, err)
                if not witness and err > t.tol:
                    witness = {"i": i, "R": elements_of(mask),
                               "order": [v for v in perm if mask >> v & 1],
                               "lhs": b[mask], "rhs": total}
    return LemmaCheck("discrete_integral", not witness, worst_slack=worst, detail=witness)


def text(report):
    """The report's JSON, which tells -0.0 from 0.0."""
    return json.dumps(report.to_dict(), sort_keys=True)


def test_discrete_integral_matches_scalar_walk():
    rng = np.random.default_rng(21)
    for trial in range(12):
        n = 4 + trial % 4
        fn = random_mixed_oracle(rng, n)
        check = check_discrete_integral(fn, seed=trial)
        assert text(check) == text(scalar_discrete_integral(_tables(fn), trial))


def test_discrete_integral_matches_scalar_walk_on_awkward_and_failing_tables():
    def cases():
        yield from reduction_cases()  # n=1, with no pairs, among them
        rng = np.random.default_rng(28)
        for n in (2, 4, 6):
            yield from awkward_diversities(rng, n)

    outcomes = set()
    for shift in (0.0, 1e-6, 1.0):
        for case, fn in enumerate(cases()):
            t = _tables(fn)
            seconds = gathered_seconds(t)
            if shift:  # every third pair's A_ij: the walks through it fail
                t.A[::3] += shift
                for i, j in t.pairs[::3].tolist():
                    seconds[[i, j], [j, i]] += shift
            check = check_discrete_integral(fn, seed=case)
            assert text(check) == text(scalar_discrete_integral(t, case, seconds)), (shift, case)
            outcomes.add((fn.n, shift, check.passed))
    assert {(1, 1.0, True), (8, 0.0, True), (8, 1e-6, False), (8, 1.0, False)} <= outcomes
    # f({0}) = -0.0 and B_0 shifted by 1: the walk over R = {} fails at once, and
    # its total is 0.0, as the walk adds the 0.0 of each element outside R
    fn = TableFunction([0.0, -0.0, 0.5, 2.0])
    t = _tables(fn)
    t.B[0] += 1.0
    check = check_discrete_integral(fn)
    assert text(check) == text(scalar_discrete_integral(t, 0))
    assert (check.detail["R"], math.copysign(1.0, check.detail["rhs"])) == ([], 1.0)


def test_discrete_integral_witness_from_a_later_draw():
    # A_01 at T = {2} shifted by 1: only the walks that meet 2 before 1 fail, the
    # first at R = {1, 2}, which seed 1 walks as [1, 2] in draws 0 and 1, [2, 1] in 2
    fn = random_diversity(np.random.default_rng(23), 5)
    t = _tables(fn)
    seconds = gathered_seconds(t)
    t.A[0, 1] += 1.0
    seconds[[0, 1], [1, 0]] += (np.arange(1 << t.n) & ~0b11) == 0b100
    rng = np.random.default_rng(1)
    perms = [rng.permutation(t.n).tolist() for _ in range(INTEGRAL_ORDERINGS)]
    assert [p.index(2) < p.index(1) for p in perms] == [False, False, True]
    check = check_discrete_integral(fn, seed=1)
    assert text(check) == text(scalar_discrete_integral(t, 1, seconds))
    assert (check.passed, check.detail["i"], check.detail["R"], check.detail["order"]) == (
        False, 0, [1, 2], [2, 1])


def test_discrete_integral_reports_a_failure():
    fn = random_diversity(np.random.default_rng(22), 5)
    t = _tables(fn)
    t.A += 1.0  # every A_ij, i < j, shifted by 1.0
    check = check_discrete_integral(fn)
    assert check.passed is False
    w = check.detail
    assert set(w) == {"i", "R", "order", "lhs", "rhs"}
    # the first failing walk: i=0 over R={1}, which adds one shifted A_01({}) (R={0}
    # adds only A_00 = 0)
    assert (w["i"], w["R"], w["order"]) == (0, [1], [1])
    assert w["lhs"] == marginal(fn, 0, mask_of(w["R"]))
    assert w["rhs"] - w["lhs"] == pytest.approx(1.0)
    assert check.worst_slack >= 1.0 - 1e-9


def test_discrete_integral_passes_at_any_scale():
    # the walks whose terms cancel leave a rounding residue that grows with f;
    # the tolerance grows with it
    values = random_table(np.random.default_rng(0), 5, monotone=True).value_table()
    for scale in (1.0, 1e6, 1e12, 3 * 2.0**1000):
        check = check_discrete_integral(TableFunction(values * scale))
        assert check.passed, (scale, check.detail)


def test_tolerance_scales_with_the_largest_value():
    assert _tables(TableFunction([0.0, 0.5, -0.25, 0.0])).tol == ABS_TOL
    assert _tables(TableFunction([0.0, 0.5, -4.0, 0.0])).tol == 4.0 * ABS_TOL


def test_residues_within_the_tolerance_count_as_zero():
    # f = 4 on the sets holding 1, less 3e-12 on those holding 0: within
    # tol = 4e-12, so f is monotone and non-negative as far as the layer can tell
    fn = TableFunction([0.0, -3e-12, 4.0, 4.0 - 3e-12])
    cls = classify(fn)
    assert cls.monotone and cls.second_order_submodular
    check = lemma_checks(fn, cls, gamma_parameter(fn))["second_order_marginal_bound"]
    assert check.passed, check


def scaled_instances(rng, n, scale):
    """Metric and squared diversity, coverage and a monotone table, times
    scale; the same draws for every scale of one rng state."""
    D = random_metric(rng, n)
    cover = [list(np.flatnonzero(rng.random(2 * n) < 0.4)) for _ in range(n)]
    weights = rng.random(2 * n)
    values = random_table(rng, n, monotone=True).value_table()
    yield DiversityFunction(D * scale)
    yield DiversityFunction(D**2 * scale)
    yield CoverageFunction(cover, weights * scale)
    yield TableFunction(values * scale)


def test_verdicts_do_not_depend_on_a_power_of_two_scale():
    # gamma is a ratio of differences of f and the flags are their signs, so
    # scaling f by 2^k leaves them as they were, and the lemma verdicts with them
    def verdicts(fn):
        g, cls = gamma_parameter(fn), classify(fn)
        flags = (cls.monotone, cls.submodular, cls.supermodular, cls.second_order_submodular)
        checks = lemma_checks(fn, cls, g, matroid=UniformMatroid(fn.n, 3))
        return text(g), flags, {name: check.passed for name, check in checks.items()}

    for seed in range(4):
        for n in (4, 6, 8):
            want = [verdicts(fn) for fn in scaled_instances(np.random.default_rng(seed), n, 1.0)]
            for k in (10, 14, 30):
                got = [verdicts(fn) for fn in
                       scaled_instances(np.random.default_rng(seed), n, 2.0**k)]
                assert got == want, (seed, n, k)


def test_analysis_builds_one_table_per_oracle(monkeypatch):
    built = []
    init = ExactTables.__init__

    def counting_init(self, fn):
        built.append(fn)
        init(self, fn)

    monkeypatch.setattr(ExactTables, "__init__", counting_init)
    fn = random_diversity(np.random.default_rng(23), 6)
    gamma_parameter(fn)
    classify(fn)
    lemma_checks(fn, classify(fn), gamma_parameter(fn), matroid=UniformMatroid(6, 3))
    check_one_sided_smooth(fn, np.full(6, 0.5), np.ones(6), 1.0)
    check_expectation_inequality(fn, np.full(6, 0.5), 0, 1, 1.0)
    assert built == [fn]


def test_verify_lemmas_metric_diversity():
    rng = np.random.default_rng(12)
    fn = random_diversity(rng, 8)
    checks = lemma_checks(fn, classify(fn), gamma_parameter(fn), matroid=UniformMatroid(8, 3))
    for name in (
        "discrete_integral",
        "marginal_sum_bound",
        "second_order_marginal_bound",
        "gradient_growth",
        "kleinberg_equivalence",
        "pair_seed_bound",
    ):
        assert checks[name].passed, (name, checks[name])


def test_kleinberg_equivalence_matches_vacuous_gamma():
    rng = np.random.default_rng(24)
    for _ in range(20):
        fn = random_mixed_oracle(rng, 5)
        check = lemma_checks(fn, classify(fn), gamma_parameter(fn))["kleinberg_equivalence"]
        assert check.passed is True
        assert check.detail["zero_ms"] is gamma_parameter(fn).vacuous


def test_kleinberg_equivalence_reports_a_failure():
    fn = random_coverage(np.random.default_rng(25), 5)
    t = _tables(fn)
    # coverage is submodular: no A_ij is positive, so the form holds and gamma is
    # vacuous, which a finite gamma report contradicts
    check = _check_kleinberg(t, GammaReport(1.0, witness=(4, 0, 1)))
    assert check.passed is False
    assert check.detail == {"zero_ms": False, "kleinberg_form": True}


def loop_gamma(t):
    """Reference: one pass per pair (i, j), a running strict maximum over
    each pair's first largest ratio."""
    best, witness, vacuous = 0.0, None, True
    nonempty, masks, seconds = t.sizes > 0, np.arange(1 << t.n), gathered_seconds(t)
    for i in range(t.n):
        for j in range(i + 1, t.n):
            a = seconds[i, j]
            active = nonempty & (a > t.tol)
            if not active.any():
                continue
            vacuous = False
            den = t.B[i] + t.B[j]
            bad = active & (den <= t.tol)
            if bad.any():
                return GammaReport(0.0, is_infinite=True, witness=(int(masks[bad][0]), i, j))
            ratio = np.where(active, t.sizes * a / np.where(active, den, 1.0), -np.inf)
            k = int(np.argmax(ratio))
            if ratio[k] > best or witness is None:
                best, witness = float(ratio[k]), (int(masks[k]), i, j)
    return GammaReport(0.0, vacuous=True) if vacuous else GammaReport(best, witness=witness)


def loop_classify(t):
    """Reference: the sign checks one element, pair and (pair, k) at a time."""
    witnesses = {}
    monotone = submodular = supermodular = second = True
    masks, seconds = np.arange(1 << t.n), gathered_seconds(t)
    for i in range(t.n):
        b = t.B[i]
        k = int(np.argmin(b))
        if b[k] < -t.tol:
            monotone = False
            witnesses["monotone"] = {"i": i, "S": elements_of(k), "B": float(b[k])}
            break
    for i in range(t.n):
        for j in range(i + 1, t.n):
            a = seconds[i, j]
            hi, lo = int(np.argmax(a)), int(np.argmin(a))
            if submodular and a[hi] > t.tol:
                submodular = False
                witnesses["submodular"] = {"i": i, "j": j, "S": elements_of(hi), "A": float(a[hi])}
            if supermodular and a[lo] < -t.tol:
                supermodular = False
                witnesses["supermodular"] = {"i": i, "j": j, "S": elements_of(lo), "A": float(a[lo])}
            for k in range(t.n if second else 0):
                bit = 1 << k
                diff = a[masks | bit] - a[masks & ~bit]
                w = int(np.argmax(diff))
                if diff[w] > t.tol:
                    second = False
                    witnesses["second_order_submodular"] = {
                        "i": i, "j": j, "k": k, "S": elements_of(w), "delta": float(diff[w]),
                    }
                    break
    return ClassificationReport(monotone, submodular, supermodular, second, witnesses)


def loop_kleinberg(t, g):
    """Reference: the diminishing-marginals form one pair at a time."""
    outside_form = empty_ok = True
    nonempty, masks, seconds = t.sizes > 0, np.arange(1 << t.n), gathered_seconds(t)
    for i in range(t.n):
        for j in range(i + 1, t.n):
            a = seconds[i, j]
            outside = nonempty & (((masks >> i) & 1) == 0) & (((masks >> j) & 1) == 0)
            if np.any(outside & (a > t.tol)):
                outside_form = False
            if a[0] > t.tol:
                empty_ok = False
    return LemmaCheck("kleinberg_equivalence", g.vacuous == (outside_form and empty_ok),
                      detail={"zero_ms": g.vacuous, "kleinberg_form": outside_form})


def reduction_cases():
    """Oracles for the array reductions: mixed kinds, non-monotone tables,
    exact ties and infinite gamma."""
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 6, 8):
        for _ in range(6):
            yield random_mixed_oracle(rng, n)
        yield TableFunction(np.r_[0.0, rng.standard_normal((1 << n) - 1)])  # non-monotone
        yield TableFunction(np.r_[0.0, rng.integers(-2, 3, (1 << n) - 1)])  # many exact ties
        yield TableFunction(np.zeros(1 << n))
        if n >= 2:
            yield all_ones_diversity(n)  # one symmetric distance: every pair ties
            sizes = np.array([mask.bit_count() for mask in range(1 << n)])
            yield TableFunction(all_ones_diversity(n).value_table() - 0.75 * sizes)
        # f is zero off the sets holding 0 and 1, so for n >= 3 A_01({2}) > 0
        # while B_0({2}) + B_1({2}) = 0: gamma is infinite
        yield TableFunction(rng.random(1 << n) * ((np.arange(1 << n) & 3) == 3))
    yield TableFunction([0.0, -ABS_TOL, ABS_TOL, ABS_TOL])  # B_0 and A_01 on the tolerance


class NanTable(SetFunctionOracle):
    def value(self, mask: int) -> float:
        return [0.0, math.nan][mask]


def overflow_cases():
    """Tables past the bound: their differences, sums or ratios would overflow."""
    rng = np.random.default_rng(27)
    yield TableFunction(OVERFLOWING_TABLE)
    yield TableFunction([0.0, -1.0, 0.0, 1e308, 1e308, 1.0, -1.0, -1e308])
    yield NanTable(1)  # the value table itself holds a NaN
    for n in (3, 4, 5):
        huge = rng.choice([-1e308, 1e308, 0.0, 1.0], size=1 << n)
        huge[0] = 0.0
        yield TableFunction(huge)  # differences overflow to inf, sums to NaN
        sizes = np.array([mask.bit_count() for mask in range(1 << n)])
        for _ in range(12):
            # supermodular near the largest float: some |S| A_ij(S) and
            # B_i(S) + B_j(S) both overflow
            yield TableFunction(sizes**2 / n**2 * 1.79e308 * rng.uniform(0.5, 1.0, 1 << n))


def test_tables_past_the_bound_raise_overflow():
    for fn in overflow_cases():
        for diagnostic in (ExactTables, gamma_parameter, classify, check_discrete_integral):
            with pytest.raises(OverflowError, match="largest float over 8n"):
                diagnostic(fn)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_the_value_table_bound_is_inclusive(n):
    bound = np.finfo(float).max / (8 * n)
    rng = np.random.default_rng(n)
    sizes = np.array([mask.bit_count() for mask in range(1 << n)])
    # random signs, and a supermodular table whose gamma is a finite ratio at n=5
    for values in (rng.uniform(-bound, bound, 1 << n),
                   sizes**2 / n**2 * bound * rng.uniform(0.5, 1.0, 1 << n)):
        values[0], values[-1] = 0.0, bound
        fn = TableFunction(values)
        with np.errstate(invalid="raise"):  # no reduction meets a NaN
            g, cls = gamma_parameter(fn), classify(fn)
            lemma_checks(fn, cls, g)
            _check_gradient_growth(_tables(fn), 1.0, seed=0)
        values[-1] = np.nextafter(bound, np.inf)
        with pytest.raises(OverflowError):
            ExactTables(TableFunction(values))


def layout_cases():
    """reduction_cases() and the awkward diversities, -0.0 cells and weights among them."""
    yield from reduction_cases()
    rng = np.random.default_rng(30)
    for n in (2, 3, 4, 6):
        yield from awkward_diversities(rng, n)


def test_tables_match_the_gathered_differences():
    # the scalar definitions: B_i gathered over all masks, and each A[p, q] the
    # second difference at all four masks T, T+i, T+j and T+i+j, T the set of
    # column q; expand(pair(i, v)) is A_iv over all masks, gathered the same way
    for fn in layout_cases():
        t, v, masks = ExactTables(fn), fn.value_table(), np.arange(1 << fn.n)
        assert t.A.shape == (fn.n * (fn.n - 1) // 2, 1 << max(fn.n - 2, 0))
        for i in range(fn.n):
            bi = 1 << i
            np.testing.assert_array_equal(t.B[i], v[masks | bi] - v[masks & ~bi])
        seconds = gathered_seconds(t)
        for i in range(fn.n):
            for v in range(fn.n):
                if v != i:
                    assert t.expand(t.pair(i, v)).tobytes() == seconds[i, v].tobytes(), (fn.n, i, v)
        for p, row in enumerate(t.A.tolist()):
            i, j, others = t.others(p)
            assert others == sorted(set(range(fn.n)) - {i, j})
            for q, a in enumerate(row):
                T = sum(1 << others[b] for b in elements_of(q))
                for S in (T, T | 1 << i, T | 1 << j, T | 1 << i | 1 << j):
                    assert a.hex() == second_difference(fn, i, j, S).hex(), (fn.n, p, q, S)


def test_classify_witnesses_hold_no_i_j_or_k():
    seen = set()
    for fn in layout_cases():
        for name, w in classify(fn).witnesses.items():
            if name != "monotone":
                seen.add(name)
                assert not {w["i"], w["j"], w.get("k")} & set(w["S"]), (name, w)
    assert seen == {"submodular", "supermodular", "second_order_submodular"}


def test_reductions_match_the_pair_loops():
    kinds, monotone = set(), set()
    for fn in reduction_cases():
        t = ExactTables(fn)
        want = loop_gamma(t), loop_classify(t)
        got = gamma_parameter(fn), classify(fn)
        kinds.add((got[0].vacuous, got[0].is_infinite))
        monotone.add(got[1].monotone)
        assert list(map(text, got)) == list(map(text, want))
        assert got == want
        assert _check_kleinberg(t, got[0]) == loop_kleinberg(t, want[0])
    assert kinds == {(True, False), (False, True), (False, False)}
    assert monotone == {True, False}


def cube(n: int, triple, c: float) -> TableFunction:
    """c on the supersets of the triple, else 0: each of its three pairs' A
    rises by c with the third element, so those rows spread by exactly c."""
    mask = mask_of(triple)
    return TableFunction(np.array([c if S & mask == mask else 0.0 for S in range(1 << n)]))


def spreads(t) -> np.ndarray:
    return t.A.max(axis=1) - t.A.min(axis=1)


@pytest.mark.parametrize("triple, bit", [((0, 1, 2), 0), ((2, 3, 5), 3), ((4, 6, 7), 5)])
def test_classify_scans_a_spread_one_ulp_over_tol(triple, bit):
    """The cube's first pair (a, b) spreads by one ulp over tol at the column
    bit of c, the low, a middle and the top bit at n=8: the scan runs and
    finds that witness, as the loop does."""
    fn = cube(8, triple, np.nextafter(ABS_TOL, 1.0))
    t = _tables(fn)
    assert t.tol == ABS_TOL and spreads(t).max() > t.tol
    a, b, c = triple
    assert t.others(t.pair(a, b))[2].index(c) == bit
    got = classify(fn)
    assert got == loop_classify(t)
    w = got.witnesses["second_order_submodular"]
    assert not got.second_order_submodular and (w["i"], w["j"], w["k"]) == triple


def test_classify_skips_a_spread_of_exactly_tol():
    """A spread of exactly tol is no second-order hit: the scan is skipped and
    the loop agrees."""
    fn = cube(8, (2, 3, 5), ABS_TOL)
    t = _tables(fn)
    assert spreads(t).max() == t.tol
    got = classify(fn)
    assert got.second_order_submodular and got == loop_classify(t)


def test_classify_guard_on_coverage_and_diversity():
    """Coverage's rows spread beyond tol, so the scan runs and finds a witness;
    diversity's rows are constant up to rounding, so it is skipped. Both
    match the loop, witnesses included."""
    rng = np.random.default_rng(35)
    for n in (5, 8, 10, 12):
        for fn, scanned in ((random_coverage(rng, n), True), (random_diversity(rng, n), False)):
            t = _tables(fn)
            assert bool(np.any(spreads(t) > t.tol)) is scanned, (n, type(fn))
            got = classify(fn)
            assert got == loop_classify(t)
            assert got.second_order_submodular is not scanned


@pytest.mark.parametrize("a, b", [(0, 1), (0, 5), (4, 5), (2, 3)])
def test_gamma_witness_at_the_edges_of_a_pair_view(a, b):
    """One long distance d(a, b) = 10 among halves: gamma = 10 at S = {c}, c the
    first element outside the pair, on pairs at bit 0, adjacent bits and bit n-1."""
    D = np.full((6, 6), 0.5) - 0.5 * np.eye(6)
    D[a, b] = D[b, a] = 10.0
    fn = DiversityFunction(D)
    c = min(set(range(6)) - {a, b})
    report = gamma_parameter(fn)
    assert report == GammaReport(10.0, witness=(1 << c, a, b))
    assert report == loop_gamma(ExactTables(fn))


@pytest.mark.parametrize("n", [10, 14])
def test_gamma_holds_no_block_of_full_rows(n):
    """gamma reads each pair's row of A in place: its peak stays within a few
    arrays over the masks, where one n x 2^n block alone would pass the bound."""
    fn = random_diversity(np.random.default_rng(31), n)
    _tables(fn)
    tracemalloc.start()
    try:
        gamma_parameter(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 << n, peak / (8 << n)


@pytest.mark.parametrize("n", [12, 16])
def test_discrete_integral_holds_no_block_of_full_rows(n):
    """The check reads each term from A in place: its peak stays within a few
    arrays over the draws' masks, where one n x 2^n block alone would pass the
    bound."""
    fn = random_diversity(np.random.default_rng(33), n)
    _tables(fn)
    tracemalloc.start()
    try:
        check_discrete_integral(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * INTEGRAL_ORDERINGS * 8 << n, peak / (8 << n)


@pytest.mark.parametrize("n", [12, 16])
def test_gradient_growth_holds_no_block_of_full_rows(n):
    """The check dots all of B with each sample's points in place: its peak
    stays within a few arrays over the masks, where a gather of B's rows
    would pass the bound."""
    fn = random_diversity(np.random.default_rng(36), n)
    t = _tables(fn)
    tracemalloc.start()
    try:
        _check_gradient_growth(t, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 << n, peak / (8 << n)


def test_gradient_at_a_vertex_is_its_column_of_b():
    """At 1_R, p is the unit vector at R, so each dot product of the gradient is
    B's entry at R, a -0.0 entry coming out as 0.0: what the gradient-growth
    check reads for the derivative at 1_R."""
    rng = np.random.default_rng(34)
    signed_zeros = [TableFunction(np.r_[0.0, rng.choice([-0.0, 0.0, 1.0, -2.0], (1 << n) - 1)])
                    for n in (1, 3, 5)]
    negative_zeros = 0
    for fn in [*layout_cases(), *signed_zeros]:
        t = _tables(fn)
        for R in range(1 << fn.n):
            x = np.array([R >> k & 1 for k in range(fn.n)], dtype=float)
            assert t.gradient(x).tobytes() == (t.B[:, R] + 0.0).tobytes(), (fn.n, R)
        negative_zeros += int(np.sum(np.signbit(t.B) & (t.B == 0.0)))
    assert negative_zeros


def test_probabilities_and_gradient_on_a_stack_match_each_point():
    rng = np.random.default_rng(29)
    for fn in reduction_cases():
        t = _tables(fn)
        points = rng.random((5, fn.n))
        points[0] = rng.random(fn.n) < 0.5  # a vertex of the cube, as 1_R
        points[1] = np.where(points[0], 1.0, points[1] * 0.25)  # a step from it
        p, grad = t.probabilities(points), t.gradient(points)
        assert p.shape == (5, 1 << fn.n) and grad.shape == (5, fn.n)
        for k, x in enumerate(points):
            assert p[k].tobytes() == t.probabilities(x).tobytes(), (fn.n, k)
            assert grad[k].tobytes() == t.gradient(x).tobytes(), (fn.n, k)


def test_gradient_growth_matches_the_per_point_loop():
    for case, fn in enumerate(reduction_cases()):
        t = _tables(fn)
        # past gamma = 256 only where the check runs, on monotone cases: elsewhere
        # a negative derivative times an infinite power is -inf
        for gamma in (0.0, 1.0, 2.5, 300.0) if classify(fn).monotone else (0.0, 1.0, 2.5):
            got = _check_gradient_growth(t, gamma, seed=case)
            assert text(got) == text(loop_gradient_growth(t, gamma, case)), (case, gamma)


def test_gradient_matches_the_per_row_loop():
    rng = np.random.default_rng(37)
    for fn in layout_cases():
        t = _tables(fn)
        points = rng.random((4, fn.n))
        points[0] = points[0] < 0.5
        for x in (points, points[1], points[0]):
            assert t.gradient(x).tobytes() == loop_gradient(t, x).tobytes(), fn.n


def test_vecdot_is_one_dot_product_per_row():
    """np.vecdot of B's rows with a stack of points gives the bits of b @ q for
    each row b and point q, up to n=16, where a matrix product may sum in
    another order: the gradient and the growth check rely on it."""
    rng = np.random.default_rng(38)
    for n in range(1, 17):
        B = rng.standard_normal((n, 1 << n)) * (rng.random((n, 1 << n)) < 0.8)
        q = _tables(TableFunction(np.zeros(1 << n))).probabilities(rng.random((3, n)))
        want = np.array([[b @ p for b in B] for p in q])
        assert np.vecdot(B, q[:, None, :]).tobytes() == want.tobytes(), n


def test_growth_probabilities_match_the_doubling():
    """At every point the growth check draws, p, which leaves R (the coordinates
    that are 1.0 at every point) out of the doubling, is the in-place doubling's
    p byte for byte, R with a single outside element among them; so on random
    single points and stacks with some coordinates exactly 0.0 or 1.0."""
    single = 0
    rng = np.random.default_rng(39)
    for n in range(1, 13):
        t = _tables(TableFunction(np.zeros(1 << n)))
        for seed in range(50):
            for mask, u, points in _growth_samples(n, seed):
                want = loop_probabilities(n, points).tobytes()
                assert t.probabilities(points).tobytes() == want, (n, seed, mask)
                single += n - mask.bit_count() == 1
        for shape in [(n,), (1, n), (4, n)] * 3:
            x = rng.random(shape)
            x[..., rng.random(n) < 0.3] = 1.0
            x[rng.random(shape) < 0.2] = 0.0
            x[rng.random(shape) < 0.2] = 1.0
            want = loop_probabilities(n, x).tobytes()
            assert t.probabilities(x).tobytes() == want, (n, shape)
    assert single


def test_gradient_growth_past_the_float_range():
    # 2^(4 gamma) is +inf from gamma = 256: that bound holds and is never the
    # witness, and a zero derivative bounds by zero rather than by inf * 0
    flat = _check_gradient_growth(_tables(TableFunction(np.zeros(8))), 300.0, seed=0)
    assert flat.passed and flat.worst_slack == 0.0 and flat.detail["rhs"] == 0.0
    for seed in range(5):
        check = _check_gradient_growth(_tables(all_ones_diversity(6)), 300.0, seed=seed)
        assert check.passed
        assert not check.detail or math.isfinite(check.detail["rhs"])


def test_verify_lemmas_skips_when_hypotheses_fail():
    non_monotone = TableFunction([0.0, 1.0, 1.0, 0.5])
    checks = lemma_checks(non_monotone, classify(non_monotone), gamma_parameter(non_monotone))
    assert checks["marginal_sum_bound"].passed is None
    assert checks["marginal_sum_bound"].skipped_reason


def test_lemma_checks_reuse_the_given_reports(monkeypatch):
    fn = random_diversity(np.random.default_rng(26), 6)
    cls, g = classify(fn), gamma_parameter(fn)
    for name in ("classify", "gamma_parameter"):
        monkeypatch.setattr(diag, name, lambda *args, **kwargs: pytest.fail("recomputed"))
    checks = lemma_checks(fn, cls, g, matroid=UniformMatroid(6, 3))
    assert checks["kleinberg_equivalence"].detail["zero_ms"] is g.vacuous


def test_pair_seed_constant_small_cases():
    assert pair_seed_constant(2, 1.0) == 1.0
    assert pair_seed_constant(3, 1.0) == pytest.approx(1.0 + 3.0)  # 2*gamma+1 at stage 3
    assert pair_seed_constant(4, 1.0) == pytest.approx(1.0 + 3.0 + 3.0 * 2.0)
