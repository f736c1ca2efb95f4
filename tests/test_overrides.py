"""One differential harness for every overridable oracle method.

Each method of util.METHODS, on each concrete oracle class of metasub, is
checked on one shared pool: the production call, and the base method on the
same object (which reads the object's other overrides), against the scalar
reference loop. A new oracle kind needs a pool entry here; a new or dropped
override needs its line in OVERRIDES.
"""

import functools
import itertools

import numpy as np
import pytest

from metasub.matroid import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    generic_min_circuit,
)
from metasub.search import best_pair_init
from metasub.setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    mask_of,
    subset_sizes,
)
from util import (
    MATROIDS,
    METHODS,
    ROUNDED,
    all_ones_diversity,
    awkward_diversities,
    force_reference_loops,
    fresh_oracles,
    large_matroids,
    mixed_table,
    random_coverage,
    random_diversity,
    random_graph,
    random_metric,
    signed_zero_diversity,
    subclasses,
)

OVERRIDES = {
    DiversityFunction: {"neighbourhood", "pair_values", "greedy_extend", "_fill_table"},
    CoverageFunction: {"neighbourhood", "pair_values", "greedy_extend"},
    TableFunction: set(),
    UniformMatroid: {"swap_feasible", "add_feasible", "pair_feasible", "_fill_independence"},
    PartitionMatroid: {"swap_feasible", "add_feasible", "pair_feasible", "_fill_independence"},
    GraphicMatroid: {"add_feasible", "pair_feasible"},
}

CLASSES = sorted((cls for base in (SetFunctionOracle, MatroidOracle) for cls in subclasses(base)
                  if cls.__module__.startswith("metasub.")), key=lambda cls: cls.__name__)

# largest n at which the 2^n fills are checked, and at which a set function
# outside the greedy pool is checked again after value_table() fills
FILL_N = 10
# greedy_extend's base reads the matroid's overrides too, so up to this n it
# also runs with every override routed to its base, which scores whole
# neighbourhoods by value calls
ROUTED_N = 9


def test_every_override_is_listed():
    found = {cls: {name for name in METHODS if name in vars(cls)} for cls in CLASSES}
    assert found == OVERRIDES


def sampled_masks(rng, n, count=2):
    """The empty set, the ground set and count sets of min(20, n) elements."""
    return [0, (1 << n) - 1,
            *(mask_of(rng.choice(n, size=min(20, n), replace=False)) for _ in range(count))]


def set_function_pool():
    """(fn, masks): every mask at n <= 7, sampled masks at n = 10 and up to 70."""
    pool = []
    for n in (1, 2, 7):
        rng = np.random.default_rng(n)
        # asymmetric within the validation tolerance, so the summation order shows
        D = random_metric(rng, n) + np.triu(rng.random((n, n)), 1) * 1e-13
        fns = [*fresh_oracles(rng, n), *awkward_diversities(rng, n),
               signed_zero_diversity(rng, n), all_ones_diversity(n),
               CoverageFunction([[]] * n, []),
               DiversityFunction(D), DiversityFunction(D, weights=rng.random(n)),
               mixed_table([(DiversityFunction(D, weights=rng.random(n)), 0.5),
                            (random_coverage(rng, n), 1.5)])]
        pool += [(fn, range(1 << n)) for fn in fns]
    rng = np.random.default_rng(10)
    pool += [(fn, sampled_masks(rng, 10)) for fn in fresh_oracles(rng, 10)]
    # the bench shapes: n=62, coverage over a universe of 124 items, |S| = 20
    rng = np.random.default_rng(62)
    pool += [(fn, sampled_masks(rng, 62)) for fn in (
        random_coverage(rng, 62), random_diversity(rng, 62),
        DiversityFunction(random_metric(rng, 62), weights=rng.random(62)))]
    rng = np.random.default_rng(40)
    for _ in range(40):  # up to 62 elements, universes of 0 to 2n items, zero weights
        n = int(rng.integers(1, 63))
        m = int(rng.integers(0, 2 * n + 1))
        incidence = [list(np.flatnonzero(rng.random(m) < rng.random())) for _ in range(n)]
        fn = CoverageFunction(
            incidence, rng.random(m) * (rng.random(m) < 0.8) * 10.0 ** rng.integers(-3, 4))
        pool.append((fn, sampled_masks(rng, n, count=1)))
    # masks with elements at 62 and above do not fit an int64
    rng = np.random.default_rng(70)
    fn = DiversityFunction(random_metric(rng, 70), weights=rng.random(70))
    return [*pool, (fn, [0, 1 << 69, mask_of(rng.choice(70, size=20, replace=False)) | 1 << 65])]


def greedy_pool():
    """(fn, [(M, start), ...]): under every MATROIDS kind at n=9 from the empty
    set, the best pair and a singleton; under large_matroids up to n=62 from
    the empty set and the best pair."""
    pool = []
    for seed in range(4):
        rng = np.random.default_rng([seed, 23])
        # all-ones distances tie every gain, so the first index must win
        for fn in [*fresh_oracles(rng, 9), *awkward_diversities(rng, 9), all_ones_diversity(9),
                   signed_zero_diversity(rng, 9)]:
            starts = []
            for M in (make() for make in MATROIDS.values()):
                singles = [1 << i for i in range(9) if M.is_independent(1 << i)]
                starts += [(M, s) for s in (0, best_pair_init(fn, M), singles[seed % len(singles)])]
            pool.append((fn, starts))
    for kind in MATROIDS:
        rng = np.random.default_rng(28)
        for M in large_matroids(rng, kind):
            n = M.n
            fns = [random_diversity(rng, n),
                   DiversityFunction(random_metric(rng, n), weights=rng.random(n)),
                   *itertools.islice(awkward_diversities(rng, n), 2), all_ones_diversity(n),
                   signed_zero_diversity(rng, n),
                   random_coverage(rng, n), random_coverage(rng, n, m=int(rng.integers(1, 5))),
                   CoverageFunction([[]] * n, [])]
            pool += [(fn, [(M, start) for start in (0, best_pair_init(fn, M))]) for fn in fns]
    return pool


@functools.cache
def matroid_pool():
    """(M, masks): every mask up to n=10, with loops, parallel edges,
    isolated vertices, empty blocks and caps past int64 among them; and
    greedy bases, the empty set and the ground set of graphs with 62 edges."""
    rng = np.random.default_rng(8)
    small = [UniformMatroid(n, r) for n in range(1, 8) for r in range(n + 2)]
    for n in rng.integers(1, 9, size=100):
        labels = rng.integers(0, 3, size=n)
        blocks = [block for b in range(3) if (block := np.flatnonzero(labels == b).tolist())]
        small.append(PartitionMatroid(blocks, rng.integers(0, 3, size=len(blocks))))
    for _ in range(10):  # six elements: random rank, cut, caps and edges
        cut = int(rng.integers(1, 6))
        small += [UniformMatroid(6, int(rng.integers(1, 7))),
                  PartitionMatroid([list(range(cut)), list(range(cut, 6))],
                                   [int(rng.integers(1, cut + 1)), int(rng.integers(1, 7 - cut))]),
                  random_graph(rng, int(rng.integers(2, 5)), 6)]
    small += [random_graph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 10)))
              for _ in range(300)]
    for n in range(1, 11):  # one of each kind at every n up to 10
        labels = rng.integers(0, 3, size=n)
        small += [UniformMatroid(n, int(rng.integers(0, n + 1))),
                  PartitionMatroid([np.flatnonzero(labels == b).tolist() for b in range(3)],
                                   rng.integers(0, 3, size=3).tolist()),
                  random_graph(rng, n // 2 + 2, n)]
    small += [
        PartitionMatroid([[0, 1, 2], [3, 4], [5, 6]], [2, 1, 0]),
        PartitionMatroid([[0, 3, 5], [1, 2, 4, 6]], [1, 2]),
        PartitionMatroid([[0, 1, 2], [3, 4], [5, 6]], [10**30, 1, 2**63]),
        PartitionMatroid([[0, 1, 2], [3, 4], [5], [6, 7]], [0, 1, 2, 2]),
        PartitionMatroid([[0], [1, 2]], [0, 0]),
        GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 0)]),
        GraphicMatroid(4, [(0, 1), (1, 0), (2, 2), (1, 2), (0, 1), (3, 3), (2, 3)]),
        GraphicMatroid(1, [(0, 0), (0, 0)]),
        GraphicMatroid(3, [(v, v) for v in (0, 1, 2, 0, 1)]),  # all loops, rank 0
        *(random_graph(rng, 3, 8) for _ in range(5)),
    ]
    pool = [(M, range(1 << M.n)) for M in small]
    for v in (2, 12, 21, 40, 63):  # the ends' swap blocks have no rows or no columns
        M = random_graph(rng, v, 62)
        pool.append((M, [*(M.greedy(rng.permutation(M.n)) for _ in range(3)), 0, (1 << M.n) - 1]))
    return pool


def calls(method, obj, arguments):
    """The argument tuples of method's calls on a pool entry."""
    if method.takes == "mask":
        return [(mask,) for mask in arguments]
    if method.takes == "start":
        return arguments
    return [()] if method.takes == "" or obj.n <= FILL_N else []


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in CLASSES for name, method in METHODS.items()
    if issubclass(cls, method.base)], ids=lambda x: getattr(x, "__name__", x))
def test_override_matches_the_reference(cls, name):
    method = METHODS[name]
    base = getattr(method.base, name)
    exact = (cls, name) not in ROUNDED
    overridden = getattr(cls, name) is not base
    if method.takes == "start":
        pool = greedy_pool()
    else:
        pool = matroid_pool() if method.base is MatroidOracle else set_function_pool()
    counts_dependent = method.takes == "mask" and method.base is MatroidOracle
    checked = dependent = 0
    for obj, arguments in pool:
        if type(obj) is not cls:
            continue
        scalar = functools.cache(getattr(obj, method.scalar))
        # a filled value table changes no value
        fills = isinstance(obj, SetFunctionOracle) and obj.n <= FILL_N and method.takes != "start"
        for filled in (False, True) if fills else (False,):
            if filled:
                obj.value_table()
            for args in calls(method, obj, arguments):
                want = method.reference(scalar, obj.n, *args)
                reference_path = base(obj, *args)
                if method.independent_only and not scalar(*args):
                    got = None
                else:
                    got = getattr(obj, name)(*args) if overridden else reference_path
                try:
                    method.check(want, got, reference_path, exact)
                    if method.takes == "start" and obj.n <= ROUTED_N:
                        with pytest.MonkeyPatch.context() as m:
                            force_reference_loops(m)
                            routed = getattr(obj, name)(*args)
                        method.check(want, routed, routed, True)
                except AssertionError as error:
                    raise AssertionError(f"{name} n={obj.n} {args} filled={filled}") from error
                checked += 1
                dependent += counts_dependent and not scalar(*args)
    assert checked, f"no pool entry of {cls.__name__}"
    if counts_dependent:
        assert dependent > 500, dependent  # masks S whose S + j and S - i + j are dependent


def test_matroid_attributes_match_the_independence_loop():
    for M, _ in matroid_pool():
        if M.n > FILL_N:
            continue
        independent = M.independence_vector()
        sizes = subset_sizes(M.n)
        assert M.rank == sizes[independent].max(), M.kind
        assert M.min_circuit_size == generic_min_circuit(M), M.kind
        # every set below the circuit size is independent
        below = sizes < (M.min_circuit_size or M.n + 1)
        assert all(M.is_independent(mask) for mask in np.flatnonzero(below).tolist()), M.kind
