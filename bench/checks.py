"""Output checker for benchmark ops, independent of the program's own code.

Values, independence and the local-optimality certificate are recomputed
here from the instance document, so a defect in the program's oracles cannot
hide itself. Each check returns a list of problems; an op is wrong when the
list is non-empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# the program's comparison tolerances (metasub.setfn.close and ABS_TOL)
REL_TOL = 1e-9
ABS_TOL = 1e-12
# tolerance handed to `metasub analyze --tolerance`
ANALYZE_TOL = 1e-9


@dataclass
class Instance:
    """What the checker needs of one instance document."""

    n: int
    r: int = 0  # uniform matroid rank
    distance: np.ndarray | None = None
    incidence: np.ndarray | None = None  # bool, elements x universe items
    universe_weights: np.ndarray | None = None
    edges: list[tuple[int, int]] | None = None
    vertices: int = 0

    @classmethod
    def from_doc(cls, doc: dict) -> "Instance":
        n, fn, matroid = doc["n"], doc["function"], doc["matroid"]
        inst = cls(n)
        if fn["kind"] == "diversity":
            inst.distance = np.asarray(fn["distance"], dtype=float)
        else:
            inst.universe_weights = np.asarray(fn["universe_weights"], dtype=float)
            inst.incidence = np.zeros((n, len(inst.universe_weights)), dtype=bool)
            for v, items in enumerate(fn["incidence"]):
                inst.incidence[v, items] = True
        if matroid["kind"] == "uniform":
            inst.r = matroid["r"]
        else:
            inst.edges = [tuple(e) for e in matroid["edges"]]
            inst.vertices = matroid["vertices"]
        return inst


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def strict_json(text: str) -> dict:
    """Parse a report, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def set_value(inst: Instance, S: list[int]) -> float:
    if inst.distance is not None:
        return float(inst.distance[np.ix_(S, S)].sum()) / 2.0
    if not S:
        return 0.0
    return float(inst.universe_weights[inst.incidence[S].any(axis=0)].sum())


def _is_forest(edges: list[tuple[int, int]], vertices: int) -> bool:
    parent = list(range(vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def independent(inst: Instance, S: list[int]) -> bool:
    if inst.edges is None:
        return len(set(S)) == len(S) and len(S) <= inst.r
    return len(set(S)) == len(S) and _is_forest([inst.edges[e] for e in S], inst.vertices)


def _swap_values(inst: Instance, S: list[int], out: list[int]) -> np.ndarray:
    """f(S - i + j) for i in S (rows), j in out (columns)."""
    if inst.distance is not None:
        D = inst.distance
        g = D[:, S].sum(axis=1)
        return set_value(inst, S) - g[S][:, None] + g[out][None, :] - D[np.ix_(S, out)]
    inc, w = inst.incidence, inst.universe_weights
    counts = inc[S].sum(axis=0)
    rows = []
    for i in S:
        kept = (counts - inc[i]) > 0
        rows.append((kept[None, :] | inc[out]) @ w)
    return np.array(rows)


def _swap_feasible(inst: Instance, S: list[int], out: list[int]) -> np.ndarray:
    """Independence of S - i + j, assuming S itself is independent."""
    if inst.edges is None:
        return np.ones((len(S), len(out)), dtype=bool)
    feasible = np.zeros((len(S), len(out)), dtype=bool)
    for a, i in enumerate(S):
        rest = [e for e in S if e != i]
        for b, j in enumerate(out):
            feasible[a, b] = _is_forest([inst.edges[e] for e in rest + [j]], inst.vertices)
    return feasible


def local_opt_violations(inst: Instance, S: list[int], epsilon: float) -> int:
    """Swaps that clear the (1 + epsilon/n^2) acceptance threshold at S."""
    n = inst.n
    out = [j for j in range(n) if j not in set(S)]
    if not S or not out:
        return 0
    current = set_value(inst, S)
    vals = _swap_values(inst, S, out)[_swap_feasible(inst, S, out)]
    if current > ABS_TOL:
        limit = (1.0 + epsilon / (n * n)) * current
        improving = (vals >= limit) & ~np.isclose(vals, limit, rtol=REL_TOL, atol=ABS_TOL)
    else:
        improving = vals > current + ABS_TOL
    return int(improving.sum())


def check_solve(inst: Instance, report: dict, epsilon: float) -> list[str]:
    problems = []
    res = report["results"]
    chosen = res["chosen"]["S"]
    if not independent(inst, chosen):
        problems.append(f"chosen set {chosen} is not independent")
    for key, part in (("chosen", res["chosen"]), ("local_search", res["local_search"]),
                      ("matching_candidate", res["matching_candidate"])):
        fresh = set_value(inst, part["S"])
        if not close(part["value"], fresh):
            problems.append(f"{key} value {part['value']!r} but a fresh oracle gives {fresh!r}")
    best = max(res["local_search"]["value"], res["matching_candidate"]["value"])
    if res["chosen"]["value"] != best:
        problems.append("chosen candidate is not the better of the two")
    bad = local_opt_violations(inst, res["local_search"]["S"], epsilon)
    if bad:
        problems.append(f"local-search set fails the optimality certificate ({bad} swaps)")
    return problems


def check_analyze(inst: Instance, report: dict) -> list[str]:
    problems = []
    res = report["results"]
    if res["matroid"]["rank"] != inst.r:
        problems.append(f"rank {res['matroid']['rank']} but the instance has r={inst.r}")
    sigma = res["metric"]["semi_metric"]["sigma"]
    delta = res["metric"].get("declared_sigma_delta")
    if delta is not None and delta > ANALYZE_TOL:
        problems.append(f"declared_sigma_delta {delta!r} above tolerance")
    if "gamma" in res:
        gamma = res["gamma"]["gamma"]
        if sigma is not None:
            cap = max(sigma, 1.0)
            if gamma is None or gamma > cap + ANALYZE_TOL * max(1.0, cap):
                problems.append(f"gamma {gamma!r} exceeds max(sigma, 1) = {cap!r}")
        failed = sorted(name for name, chk in res.get("lemmas", {}).items()
                        if chk["passed"] is False)
        if failed:
            problems.append(f"lemma checks failed: {failed}")
    return problems


def check_report(inst: Instance, command: str, text: str, epsilon: float) -> list[str]:
    """All problems with one report; a malformed report is one problem."""
    try:
        report = strict_json(text)
        if command == "solve":
            return check_solve(inst, report, epsilon)
        return check_analyze(inst, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
