"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict to the unbuffered stderr stream so the
line survives pytest's capture, then asserts it.
"""

import sys
import time

import numpy as np
import pytest

from metasub.diag import (
    ExactTables,
    check_discrete_integral,
    check_expectation_inequality,
    check_one_sided_smooth,
    classify,
    gamma_parameter,
    lemma_checks,
)
from metasub.matching import max_weight_matching_k
from metasub.matroid import GraphicMatroid, UniformMatroid
from metasub.metric import is_negative_type, js_divergence_matrix, semi_metric_parameter
from metasub.search import (
    brute_force_opt,
    guarantee_general,
    guarantee_supermodular,
    iteration_bound,
    solve,
)
from metasub import cli
from util import (
    euclidean,
    exhaustive_matching,
    marginal,
    mixed_table,
    multilinear,
    random_coverage,
    random_diversity,
    random_metric,
    random_mixed_oracle,
    second_difference,
)


def verdict(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)\n"
    (sys.__stderr__ or sys.stderr).write(line)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_discrete_integral():
    started = time.monotonic()
    ok = True
    sizes = [4, 5, 6, 7, 8]
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = 10 if trial % 25 == 0 else sizes[trial % len(sizes)]
        fn = random_mixed_oracle(rng, n)
        ok = ok and check_discrete_integral(fn, seed=trial).passed
    verdict(1, "discrete integral identity", ok, time.monotonic() - started, 30.0)


def test_criterion_02_gradient_identities():
    started = time.monotonic()
    ok = True
    for trial in range(5):
        rng = np.random.default_rng(2000 + trial)
        n = 6 + trial % 3
        fn = random_mixed_oracle(rng, n)
        t = ExactTables(fn)
        for mask in rng.integers(0, 1 << n, size=10):
            mask = int(mask)
            x = np.array([(mask >> b) & 1 for b in range(n)], dtype=float)
            i, j = rng.choice(n, size=2, replace=False)
            ok = ok and abs(t.gradient(x)[i] - marginal(fn, int(i), mask)) <= 1e-12
            a = second_difference(fn, int(i), int(j), mask)
            ok = ok and abs(t.hessian(x)[i, j] - a) <= 1e-12
        h = 1e-5
        for _ in range(20):
            x = rng.random(n) * 0.9 + 0.05
            i = int(rng.integers(0, n))
            plus, minus = x.copy(), x.copy()
            plus[i] += h
            minus[i] -= h
            fd = (multilinear(t, plus) - multilinear(t, minus)) / (2 * h)
            ok = ok and abs(t.gradient(x)[i] - fd) <= 1e-6
    verdict(2, "multilinear gradient identities", ok, time.monotonic() - started, 60.0)


def test_criterion_03_semi_metric_theorems():
    started = time.monotonic()
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        n = 5 + trial % 8  # up to 12
        D = euclidean(rng.standard_normal((n, 3))) ** 2
        ok = ok and is_negative_type(D)[0]
        ok = ok and semi_metric_parameter(D).sigma <= 2 + 1e-6
        probs = rng.dirichlet(np.ones(4), size=n)
        ok = ok and semi_metric_parameter(js_divergence_matrix(probs)).sigma <= 2 + 1e-6
        ok = ok and semi_metric_parameter(random_metric(rng, n)).sigma <= 1 + 1e-9
    verdict(3, "semi-metric parameter theorems", ok, time.monotonic() - started, 30.0)


def test_criterion_04_gamma_class_theorems():
    started = time.monotonic()
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n = 5 + trial % 4
        ok = ok and gamma_parameter(random_diversity(rng, n)).gamma <= 1 + 1e-6
        p = 1.5 if trial % 2 else 2.0
        ok = ok and gamma_parameter(random_diversity(rng, n, power=p)).gamma <= 2 ** (p - 1) + 1e-6
        mixed = mixed_table([(random_coverage(rng, n), 1.0), (random_diversity(rng, n), 1.0)])
        ok = ok and gamma_parameter(mixed).gamma <= 1 + 1e-6
        ok = ok and gamma_parameter(random_coverage(rng, n)).vacuous
    verdict(4, "meta-submodularity class bounds", ok, time.monotonic() - started, 60.0)


def test_criterion_05_smoothness_suite():
    started = time.monotonic()
    ok = True
    for trial in range(10):
        rng = np.random.default_rng(5000 + trial)
        n = 6 + trial % 2
        fn = random_diversity(rng, n, power=2.0 if trial % 2 else 1.0)
        gamma = gamma_parameter(fn).gamma
        sigma = max(3 * gamma, 2 * gamma + 1)
        t = ExactTables(fn)
        nonempty = t.sizes > 0
        for i in range(n):
            for j in range(i + 1, n):
                lhs = t.sizes * t.expand(t.pair(i, j))
                rhs = sigma * (t.B[i] + t.B[j])
                ok = ok and bool(np.all(lhs[nonempty] <= rhs[nonempty] + 1e-9))
        for _ in range(100):
            x = rng.random(n) * 0.98 + 0.01
            i, j = rng.choice(n, size=2, replace=False)
            ok = ok and check_expectation_inequality(fn, x, int(i), int(j), sigma) <= 1e-9
        for alpha in (1.0, 1.5, 2.0):
            for _ in range(10):
                mask = int(rng.integers(1, 1 << n))
                size = mask.bit_count()
                x = np.array([(mask >> b) & 1 for b in range(n)], dtype=float)
                room = rng.random(n) * (1 - x)
                if room.sum() > 0:
                    x = x + room * min(1.0, (alpha - 1) * size / room.sum())
                u = rng.random(n)
                ok = ok and check_one_sided_smooth(fn, x, u, alpha * gamma).residual <= 1e-9
    verdict(5, "one-sided smoothness suite", ok, time.monotonic() - started, 120.0)


def test_criterion_06_structural_lemmas():
    started = time.monotonic()
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(6000 + trial)
        n = 5 + trial % 4
        fn = random_diversity(rng, n, power=2.0 if trial % 2 else 1.0)
        checks = lemma_checks(fn, classify(fn), gamma_parameter(fn))
        ok = ok and checks["marginal_sum_bound"].passed is True
        ok = ok and checks["second_order_marginal_bound"].passed is True
    verdict(6, "structural marginal-sum lemmas", ok, time.monotonic() - started, 120.0)


def test_criterion_07_matching_oracle():
    started = time.monotonic()
    ok = True
    rng = np.random.default_rng(7000)
    for _ in range(500):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        w = rng.standard_normal((rows, cols)) * float(rng.choice([0.5, 1.0, 5.0]))
        if rng.random() < 0.3:
            w = np.round(w)  # force weight ties
        k = int(rng.integers(0, min(rows, cols) + 1))
        got = max_weight_matching_k(w, k)
        ok = ok and len(got.pairs) == k
        ok = ok and abs(got.total_weight - exhaustive_matching(w, k)) <= 1e-9
    verdict(7, "exact-cardinality matching oracle", ok, time.monotonic() - started, 120.0)


def _random_matroid_for_ratio(rng, n):
    if rng.random() < 0.5:
        return UniformMatroid(n, int(rng.integers(2, 5)))
    v = n // 2 + 2
    while True:
        edges = [tuple(sorted(rng.integers(0, v, 2))) for _ in range(n)]
        M = GraphicMatroid(v, edges)
        if M.rank >= 2:
            return M


def test_criterion_08_general_ratio():
    started = time.monotonic()
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(8000 + trial)
        n = 7 + trial % 3
        fn = random_diversity(rng, n, power=2.0 if trial % 2 else 1.0)
        M = _random_matroid_for_ratio(rng, n)
        gamma = gamma_parameter(fn).gamma
        result = solve(fn, M, epsilon=0.1)
        _, opt = brute_force_opt(fn, M)
        if result.chosen_value <= 0:
            ok = ok and opt <= 1e-9
            continue
        ratio = opt / result.chosen_value
        ok = ok and ratio <= guarantee_general(gamma, M.rank, 0.1, n) * (1 + 1e-9)
    verdict(8, "general approximation ratio", ok, time.monotonic() - started, 300.0)


def test_criterion_09_supermodular_ratio():
    started = time.monotonic()
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        n = 7 + trial % 3
        fn = random_diversity(rng, n, power=2.0 if trial % 2 else 1.0)
        M = UniformMatroid(n, int(rng.integers(2, 5)))
        cls = classify(fn)
        ok = ok and cls.supermodular and cls.second_order_submodular
        gamma = gamma_parameter(fn).gamma
        result = solve(fn, M, epsilon=0.1)
        _, opt = brute_force_opt(fn, M)
        if result.chosen_value <= 0:
            ok = ok and opt <= 1e-9
            continue
        ratio = opt / max(result.S_value, result.S_prime_value)
        bound = guarantee_supermodular(
            gamma, M.rank, 0.1, n, M.min_circuit_size, cls.second_order_submodular
        )
        ok = ok and ratio <= bound * (1 + 1e-9)
    verdict(9, "supermodular approximation ratio", ok, time.monotonic() - started, 300.0)


def test_criterion_10_iteration_bound():
    started = time.monotonic()
    ok = True
    for trial in range(30):
        rng = np.random.default_rng(10_000 + trial)
        n = 7 + trial % 3
        fn = random_diversity(rng, n, power=2.0 if trial % 2 else 1.0)
        M = _random_matroid_for_ratio(rng, n)
        gamma = gamma_parameter(fn).gamma
        for eps in (0.01, 0.1, 0.5):
            result = solve(fn, M, epsilon=eps)
            ok = ok and result.iterations <= iteration_bound(n, M.rank, gamma, eps)
    verdict(10, "swap-loop iteration bound", ok, time.monotonic() - started, 300.0)


def test_criterion_11_determinism(tmp_path):
    started = time.monotonic()
    ok = True
    inst = tmp_path / "inst.json"
    assert cli.main(["gen", "metric-random", "--n", "6", "--seed", "17", "--out", str(inst)]) == 0
    commands = {
        "gen": ["gen", "metric-random", "--n", "6", "--seed", "17"],
        "analyze": ["analyze", str(inst)],
        "solve": ["solve", str(inst), "--with-opt"],
        "verify": ["verify", "matching", "--samples", "5", "--seed", "3"],
    }
    for name, argv in commands.items():
        blobs = set()
        for rep in range(10):
            out = tmp_path / f"{name}_{rep}.json"
            code = cli.main(argv + ["--out", str(out)])
            ok = ok and code == 0
            blobs.add(out.read_bytes())
        ok = ok and len(blobs) == 1
    verdict(11, "byte-identical reports", ok, time.monotonic() - started, 120.0)
