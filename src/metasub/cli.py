"""Command-line surface: instance generation, diagnostics, solving, and
property verification, all emitting deterministic JSON reports.

Exit codes: 0 success, 2 invalid input (including magnitudes that overflow
floating point, and a report that cannot be written, also to a pipe whose
reader has gone), 3 size/iteration guard exceeded or an allocation that
failed, 4 property failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import reprlib
import sys
import time

import numpy as np

from . import diag, metric
from .errors import GuardError, ValidationError
from .matching import exhaustive_matching, max_weight_matching_k
from .matroid import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    generic_min_circuit,
)
from .search import (
    DEFAULT_EPSILON,
    brute_force_opt,
    guarantee_general,
    guarantee_supermodular,
    iteration_bound,
    solve,
)
from .setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    check_integer,
    elements_of,
)

SCHEMA_VERSION = 2
MAX_GROUND_SET = 62  # largest n of an instance document, read or generated


class PropertyFailure(Exception):
    """A verified property does not hold (exit code 4)."""


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------- instances


def _section(desc, name: str) -> dict:
    if not isinstance(desc, dict):
        raise ValidationError(f"{name} must be a JSON object")
    return desc


def _arrays(items, name: str) -> list:
    """items, checked to be a JSON array of arrays. The constructors iterate
    any iterable, so an object or a string would be read as its keys or
    characters, and an empty one as an empty set."""
    if not isinstance(items, list):
        raise ValidationError(f"{name} must be an array, got {reprlib.repr(items)}")
    for k, item in enumerate(items):
        if not isinstance(item, list):
            raise ValidationError(f"{name} entry {k} must be an array, got {reprlib.repr(item)}")
    return items


def build_function(n: int, desc: dict) -> SetFunctionOracle:
    kind = _section(desc, "function").get("kind")
    if kind in ("diversity", "diversity_plus_modular"):
        D = np.asarray(desc["distance"], dtype=float)
        if D.shape != (n, n):
            raise ValidationError(f"distance shape {D.shape} does not match n={n}")
        return DiversityFunction(D, desc.get("weights"))
    if kind == "coverage":
        incidence = _arrays(desc["incidence"], "incidence")
        if len(incidence) != n:
            raise ValidationError(f"incidence length {len(incidence)} does not match n={n}")
        return CoverageFunction(incidence, desc["universe_weights"])
    if kind == "table":
        values = desc["values"]
        if len(values) != 1 << n:
            raise ValidationError(f"table length {len(values)} does not match n={n}")
        return TableFunction(values)
    raise ValidationError(f"unknown function kind {reprlib.repr(kind)}")


def build_matroid(n: int, desc: dict) -> MatroidOracle:
    kind = _section(desc, "matroid").get("kind")
    if kind == "uniform":
        return UniformMatroid(n, desc["r"])
    if kind == "partition":
        M = PartitionMatroid(_arrays(desc["blocks"], "blocks"), desc["caps"])
        if M.n != n:
            raise ValidationError(f"partition blocks cover {M.n} elements, not n={n}")
        return M
    if kind == "graphic":
        edges = desc["edges"]
        if len(edges) != n:
            raise ValidationError(f"graphic matroid needs n={n} edges, got {len(edges)}")
        return GraphicMatroid(desc["vertices"], edges)
    raise ValidationError(f"unknown matroid kind {reprlib.repr(kind)}")


def parse_instance(doc: dict) -> tuple[SetFunctionOracle, MatroidOracle]:
    try:
        n = check_integer(doc["n"], "n")
        if not 1 <= n <= MAX_GROUND_SET:
            raise ValidationError(
                f"ground set size {reprlib.repr(n)} outside [1, {MAX_GROUND_SET}]")
        fn = build_function(n, doc["function"])
        M = build_matroid(n, doc["matroid"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance document: {exc!r}") from exc
    return fn, M


def load_instance(path: str | None) -> tuple[dict, str]:
    """The parsed instance and the SHA-256 of its bytes, both from one read."""
    try:
        if path in (None, "-"):
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as f:
                raw = f.read()
    except OSError as exc:
        raise ValidationError(f"cannot read instance: {exc}") from exc
    try:  # ValueError covers undecodable bytes and integers past the digit limit
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"instance is not valid JSON: {exc}") from exc
    return doc, hashlib.sha256(raw).hexdigest()


# --------------------------------------------------------------- generators


def generate_distance(kind: str, n: int, rng, *, dim: int = 3, power: float = 2.0,
                      support: int = 4) -> tuple[np.ndarray, float, dict]:
    """A diversity generator's distance matrix, declared sigma and further
    metadata; the keyword defaults are gen's."""
    if kind == "js-random":
        return metric.js_divergence_matrix(rng.dirichlet(np.ones(support), size=n)), 2.0, {}
    D = metric.euclidean(rng.standard_normal((n, dim)))
    if kind == "metric-random":
        return D, 1.0, {}
    if kind == "semimetric-power":
        if not 1.0 <= power < np.inf:
            raise ValidationError(f"--power must be a finite number at least 1, got {power}")
        try:
            sigma = 2.0 ** (power - 1)
        except OverflowError:  # +inf past the float range, as in search.growth: emit refuses it
            sigma = np.inf
        return D ** power, sigma, {"power": power}
    if kind == "negtype-sqeuclid":
        return D ** 2, 2.0, {"negative_type": True}
    raise ValidationError(f"unknown generator {kind!r}")


def generate(args) -> dict:
    """The instance document gen writes for the parsed options."""
    kind, n, seed = args.kind, args.n, args.seed
    if not 2 <= n <= MAX_GROUND_SET:
        raise ValidationError(f"generated instances need 2 <= n <= {MAX_GROUND_SET}, got {n}")
    _at_least(args, dim=0, support=1, universe=0, r=0, seed=0)
    rng = np.random.default_rng(seed)
    meta: dict = {"generator": kind, "seed": seed}
    matroid = {"kind": "uniform", "r": args.r if args.r is not None else max(2, n // 3)}
    if kind == "coverage-random":
        m = args.universe if args.universe is not None else 2 * n
        incidence = [np.flatnonzero(row).tolist() for row in rng.random((n, m)) < 0.4]
        function = {
            "kind": "coverage",
            "incidence": incidence,
            "universe_weights": rng.random(m).tolist(),
        }
    else:
        D, meta["sigma"], extra = generate_distance(kind, n, rng, dim=args.dim, power=args.power,
                                                    support=args.support)
        meta.update(extra)
        function = {"kind": "diversity", "distance": D.tolist()}
    return {"n": n, "function": function, "matroid": matroid, "metadata": meta}


# ------------------------------------------------------------------ reports


def make_report(args, results: dict, work: dict, instance_sha256: str | None = None) -> dict:
    """inputs_digest covers every option the command parsed, bar those that
    route it or place its output, plus the instance's bytes."""
    inputs = {key: value for key, value in vars(args).items()
              if key not in ("cmd", "func", "out", "instance")}
    if instance_sha256 is not None:
        inputs["instance_sha256"] = instance_sha256
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.cmd,
        "inputs_digest": digest(inputs),
        "results": results,
        "work": work,  # deterministic work counters, not wall clock
    }


def emit(doc: dict, args) -> None:
    """Write a strict-JSON report. Inputs are finite, so a NaN or infinity
    here comes from arithmetic that overflowed on the instance's magnitudes."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OverflowError(str(exc)) from exc
    try:
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except OSError as exc:
        if not args.out:
            # what stdout still holds goes to the null device, so that the
            # flush at interpreter exit prints nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValidationError(f"cannot write report: {exc}") from exc


# ----------------------------------------------------------------- commands


def _at_least(args, **lows) -> None:
    """Reject the first option, in the order given, that is below its lowest value."""
    for name, low in lows.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ValidationError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def cmd_gen(args) -> int:
    emit(generate(args), args)
    return 0


def _declared(meta: dict, key: str) -> float:
    """A declared parameter: any finite float, or an int that converts to one."""
    value = meta[key]
    if type(value) in (int, float):
        with contextlib.suppress(OverflowError):  # an int past the largest float
            if math.isfinite(number := float(value)):
                return number
    raise ValidationError(f"metadata {key!r} must be a finite number, got {reprlib.repr(value)}")


def cmd_analyze(args) -> int:
    if not 0.0 <= args.tolerance < np.inf:
        raise ValidationError(
            f"--tolerance must be a finite number at least 0, got {args.tolerance}")
    _at_least(args, n_max=0)
    instance, instance_sha256 = load_instance(args.instance)
    fn, M = parse_instance(instance)
    results: dict = {"matroid": {"rank": M.rank, "min_circuit_size": M.min_circuit_size}}
    meta = _section(instance.get("metadata", {}), "metadata")
    if isinstance(fn, DiversityFunction):
        D = fn.distance
        sigma = metric.semi_metric_parameter(D)
        neg, top = metric.is_negative_type(D, tol=args.tolerance)
        sqrt_ok, sqrt_witness = metric.is_sqrt_metric(D, tol=args.tolerance)
        results["metric"] = {
            "semi_metric": sigma.to_dict(),
            "negative_type": {"holds": neg, "top_eigenvalue": top},
            "sqrt_metric": {"holds": sqrt_ok, "witness": sqrt_witness},
        }
        if "sigma" in meta and not sigma.is_infinite:
            results["metric"]["declared_sigma_delta"] = sigma.sigma - _declared(meta, "sigma")
    if fn.n <= args.n_max:
        g = diag.gamma_parameter(fn)
        results["gamma"] = g.to_dict()
        if "gamma" in meta and not g.is_infinite:
            results["gamma"]["declared_delta"] = g.gamma - _declared(meta, "gamma")
        cls = diag.classify(fn)
        results["classification"] = cls.to_dict()
        results["lemmas"] = {
            name: chk.to_dict() for name, chk in diag.lemma_checks(fn, cls, g, matroid=M).items()
        }
    else:
        results["skipped"] = f"exhaustive diagnostics need n <= {args.n_max}, instance has n={fn.n}"
    work = {"n": fn.n, "table_size": 1 << fn.n if fn.n <= args.n_max else 0}
    emit(make_report(args, results, work, instance_sha256), args)
    return 0


def cmd_solve(args) -> int:
    instance, instance_sha256 = load_instance(args.instance)
    fn, M = parse_instance(instance)
    result = solve(fn, M, args.epsilon)
    payload = result.to_dict()
    if args.with_opt:
        opt_mask, opt_value = brute_force_opt(fn, M)
        ratio = opt_value / result.chosen_value if result.chosen_value > 0 else None
        payload["opt"] = {
            "S": elements_of(opt_mask),
            "value": opt_value,
            "ratio": ratio,
        }
    work = {"iterations": result.iterations, "evaluations": result.evaluations}
    emit(make_report(args, payload, work, instance_sha256), args)
    return 0


# ------------------------------------------------------------ verify suites


def _random_diversity(rng, t: int, n: int) -> DiversityFunction:
    """Trial t's diversity: gen's metric-random distances on even trials,
    its negtype-sqeuclid (squared) ones on odd trials."""
    kind = "negtype-sqeuclid" if t % 2 else "metric-random"
    return DiversityFunction(generate_distance(kind, n, rng)[0])


# Each suite checks one trial t and yields a dict per failure it finds.


def verify_lemma_suite(rng, t: int, n: int):
    fn = _random_diversity(rng, t, n)
    M = UniformMatroid(n, max(2, n // 2))
    cls, g = diag.classify(fn), diag.gamma_parameter(fn)
    for name, chk in diag.lemma_checks(fn, cls, g, matroid=M, seed=t).items():
        if chk.passed is False:
            yield {"lemma": name, "detail": chk.to_dict()}


def verify_smoothness_suite(rng, t: int, n: int):
    fn = _random_diversity(rng, t, n)
    g = diag.gamma_parameter(fn)
    sigma = max(3.0 * g.gamma, 2.0 * g.gamma + 1.0)
    for _ in range(5):
        x = rng.random(n) * 0.9 + 0.05
        u = rng.random(n)
        chk = diag.check_one_sided_smooth(fn, x, u, sigma)
        if not diag.leq(chk.lhs, chk.rhs):
            yield {"check": chk.to_dict()}
        i, j = rng.integers(0, n, size=2)
        if i != j:
            gap = diag.check_expectation_inequality(fn, x, int(i), int(j), sigma)
            if gap > 1e-9:
                yield {"expectation_gap": gap}


def verify_matching_suite(rng, t: int, n: int):
    """Matrices of 1 to 6 rows and columns against exhaustive search, whatever n is."""
    rows = int(rng.integers(1, 7))
    cols = int(rng.integers(1, 7))
    w = rng.standard_normal((rows, cols))
    for k in range(min(rows, cols) + 1):
        got = max_weight_matching_k(w, k)
        want = exhaustive_matching(w, k)
        if abs(got.total_weight - want) > 1e-9:
            yield {"k": k, "got": got.total_weight, "want": want}


def _random_matroid(rng, n: int) -> MatroidOracle:
    roll = rng.integers(0, 3)
    if roll == 0:
        return UniformMatroid(n, int(rng.integers(1, n + 1)))
    if roll == 1 and n >= 2:  # one element has no split into two blocks
        cut = int(rng.integers(1, n))
        return PartitionMatroid(
            [list(range(cut)), list(range(cut, n))],
            [int(rng.integers(1, cut + 1)), int(rng.integers(1, n - cut + 1))],
        )
    v = max(2, n // 2 + 1)
    edges = [(int(rng.integers(0, v)), int(rng.integers(0, v))) for _ in range(n)]
    return GraphicMatroid(v, edges)


def verify_matroid_suite(rng, t: int, n: int):
    M = _random_matroid(rng, n)
    if M.min_circuit_size != generic_min_circuit(M):
        yield {"kind": M.kind, "bad": "min_circuit_size"}
    base1 = M.greedy(range(M.n))
    for i, j in M.exchange_bijection(base1, M.greedy(rng.permutation(M.n))):
        if not M.is_independent((base1 & ~(1 << i)) | (1 << j)):
            yield {"kind": M.kind, "bad": "exchange", "pair": [i, j]}


def verify_ratio_suite(rng, t: int, n: int):
    fn = _random_diversity(rng, t, n)
    r = int(rng.integers(2, max(3, n // 2 + 1)))
    M = UniformMatroid(n, r)
    g = diag.gamma_parameter(fn)
    gamma = max(g.gamma, 1.0)
    result = solve(fn, M)
    _, opt_value = brute_force_opt(fn, M)
    if result.chosen_value <= 0:
        if opt_value > 1e-9:
            yield {"bad": "zero output, positive opt"}
        return
    ratio = opt_value / result.chosen_value
    cls = diag.classify(fn)
    bound = guarantee_general(gamma, M.rank, DEFAULT_EPSILON, n)
    if cls.supermodular:
        bound = min(
            bound,
            guarantee_supermodular(gamma, M.rank, DEFAULT_EPSILON, n, M.min_circuit_size,
                                   cls.second_order_submodular),
        )
    if not diag.leq(ratio, bound):
        yield {"ratio": ratio, "bound": bound}
    limit = iteration_bound(n, M.rank, gamma, DEFAULT_EPSILON)
    if result.iterations > limit:
        yield {"iterations": result.iterations, "limit": limit}


# verify suite -> (its check, the largest n it draws, whatever --n-max says above that)
SUITES = {
    "lemmas": (verify_lemma_suite, 8),
    "smoothness": (verify_smoothness_suite, 7),
    "matching": (verify_matching_suite, 6),
    "matroid": (verify_matroid_suite, 8),
    "ratios": (verify_ratio_suite, 8),
}


def cmd_verify(args) -> int:
    _at_least(args, samples=0, n_max=1, seed=0)
    check, largest = SUITES[args.suite]
    rng, n = np.random.default_rng(args.seed), min(args.n_max, largest)
    failures = [{"trial": t, **f} for t in range(args.samples) for f in check(rng, t, n)]
    results = {"suite": args.suite, "samples": args.samples, "failures": failures,
               "passed": not failures}
    emit(make_report(args, results, {"samples": args.samples}), args)
    if failures:
        raise PropertyFailure(f"{len(failures)} failures in suite {args.suite}")
    return 0


# -------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """An unknown or malformed option is a ValidationError, so it exits 2
    through main with one error line, as every other bad input does."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the options it reads. Built once: parsing
    leaves the parser unchanged."""
    parser = _Parser(prog="metasub")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("kind", choices=[
        "metric-random", "semimetric-power", "negtype-sqeuclid", "js-random", "coverage-random",
    ])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--power", type=float, default=2.0)
    p.add_argument("--support", type=int, default=4)
    p.add_argument("--universe", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="structural diagnostics for an instance")
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument("--tolerance", type=float, default=metric.REL_TOL,
                   help="zero tolerance of the negative-type and square-root-metric checks, "
                        "relative to max(1, the size they compare); 0 decides exactly")
    p.add_argument("--n-max", dest="n_max", type=int, default=diag.DEFAULT_N_MAX)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="run the local-search pipeline")
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--pivot", choices=["first"], default="first",
                   help="the one pick rule, the first accepted swap; kept for old commands")
    p.add_argument("--with-opt", dest="with_opt", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a randomized property suite")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", dest="n_max", type=int, default=diag.DEFAULT_N_MAX)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = make_parser().parse_args(argv)
        # overflow shows as a non-finite result, which emit turns into exit 2
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: the instance's magnitudes overflow floating point: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"guard: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except PropertyFailure as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 4
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
