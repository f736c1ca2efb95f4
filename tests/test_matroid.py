import itertools
import tracemalloc

import numpy as np
import pytest

from metasub.errors import GuardError, ValidationError
from metasub.matroid import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    generic_min_circuit,
)
from metasub.setfn import elements_of, mask_of
from util import rank


def all_independent(M):
    return [m for m in range(1 << M.n) if M.is_independent(m)]


def check_axioms(M):
    """Hereditary + exchange axioms by full enumeration."""
    ind = set(all_independent(M))
    for s in ind:
        for i in range(M.n):
            assert (s & ~(1 << i)) in ind, "hereditary axiom violated"
    for s in ind:
        for t in ind:
            if s.bit_count() >= t.bit_count():
                continue
            extra = t & ~s
            assert any((s | (1 << j)) in ind for j in range(M.n) if extra & (1 << j)), \
                "exchange axiom violated"


def test_uniform_basics():
    M = UniformMatroid(5, 3)
    assert M.is_independent(mask_of([0, 1, 2]))
    assert not M.is_independent(mask_of([0, 1, 2, 3]))
    assert M.rank == 3
    assert M.min_circuit_size == 4
    assert UniformMatroid(3, 3).min_circuit_size is None  # free matroid
    check_axioms(M)


def test_partition_basics():
    M = PartitionMatroid([[0, 1], [2, 3]], [1, 2])
    assert not M.is_independent(mask_of([0, 1]))
    assert M.is_independent(mask_of([0, 2, 3]))
    assert M.rank == 3
    assert M.min_circuit_size == 2
    check_axioms(M)
    with pytest.raises(ValidationError):
        PartitionMatroid([[0, 1], [1, 2]], [1, 1])  # overlap
    with pytest.raises(ValidationError):
        PartitionMatroid([[0, 2]], [1])  # not dense


def test_partition_rejects_elements_outside_the_count_before_any_shift():
    with pytest.raises(ValidationError, match="densely"):
        PartitionMatroid([[-1]], [1])
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="densely"):
            PartitionMatroid([[0], [10**9]], [1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # no mask of 10^9 bits was built


@pytest.mark.parametrize("blocks", [[[0, 0], [1]], [[0, 1], [1]]], ids=["within", "across"])
def test_partition_rejects_a_repeated_element(blocks):
    with pytest.raises(ValidationError, match="listed twice"):
        PartitionMatroid(blocks, [1, 1])


def test_graphic_triangle():
    M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    assert not M.is_independent(0b111)
    assert M.is_independent(0b011)
    assert M.rank == 2  # |V| - 1 for a connected graph
    assert M.min_circuit_size == 3
    check_axioms(M)
    # isolated vertices add no work: queries touch only the vertices of some edge
    far = GraphicMatroid(10**12, [(0, 10**12 - 1), (10**12 - 1, 7), (7, 0)])
    assert far.rank == 2 and far.min_circuit_size == 3
    assert not far.is_independent(0b111) and far.is_independent(0b110)


def test_graphic_girth_cases():
    assert GraphicMatroid(2, [(0, 0), (0, 1)]).min_circuit_size == 1  # self loop
    assert GraphicMatroid(2, [(0, 1), (0, 1)]).min_circuit_size == 2  # parallel
    path = GraphicMatroid(3, [(0, 1), (1, 2)])
    assert path.min_circuit_size is None  # forest
    assert path.rank == 2
    square = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert square.min_circuit_size == 4


def min_circuit_cases():
    rng = np.random.default_rng(0)
    for trial in range(30):
        kind = trial % 3
        if kind == 0:
            yield UniformMatroid(6, int(rng.integers(1, 7)))
        elif kind == 1:
            cut = int(rng.integers(1, 6))
            yield PartitionMatroid(
                [list(range(cut)), list(range(cut, 6))],
                [int(rng.integers(1, cut + 1)), int(rng.integers(1, 7 - cut))],
            )
        else:
            v = int(rng.integers(2, 5))
            yield GraphicMatroid(v, [tuple(rng.integers(0, v, 2)) for _ in range(6)])
    # multigraphs with loops, parallel edges and isolated vertices
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = int(rng.integers(1, 7))
        yield GraphicMatroid(v, [tuple(rng.integers(0, v, 2)) for _ in range(rng.integers(1, 9))])


def test_min_circuit_matches_generic_search():
    for M in min_circuit_cases():
        assert M.min_circuit_size == generic_min_circuit(M)
        # every set below the circuit size is independent
        c = M.min_circuit_size or M.n + 1
        for size in range(min(c, M.n + 1)):
            for combo in itertools.combinations(range(M.n), size):
                assert M.is_independent(mask_of(combo))


def test_rank_of_is_monotone_submodular():
    M = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for s in range(1 << M.n):
        for i in range(M.n):
            assert rank(M, s | (1 << i)) >= rank(M, s)
            for j in range(M.n):
                bi, bj = 1 << i, 1 << j
                base = s & ~bi & ~bj
                a = (rank(M, base | bi | bj) - rank(M, base | bi)
                     - rank(M, base | bj) + rank(M, base))
                assert a <= 0


def test_greedy_extends_an_independent_start():
    # an independent start listed first joins whole, and the rest extends it
    M = UniformMatroid(4, 2)
    assert M.greedy([3, *range(M.n)]) == mask_of([0, 3])
    base = mask_of([1, 2])
    assert M.greedy([*elements_of(base), *range(M.n)]) == base
    assert M.greedy([2, 1, 0, 3]) == base
    path = GraphicMatroid(3, [(0, 1), (1, 2)])
    assert path.greedy(range(path.n)) == 0b11


def test_exchange_bijection_uniform():
    M = UniformMatroid(4, 2)
    S, T = mask_of([0, 1]), mask_of([2, 3])
    pairs = M.exchange_bijection(S, T)
    assert sorted(i for i, _ in pairs) == [0, 1]
    assert sorted(j for _, j in pairs) == [2, 3]
    for i, j in pairs:
        assert M.is_independent((S & ~(1 << i)) | (1 << j))
    assert M.exchange_bijection(S, S) == []


def test_exchange_bijection_random_bases():
    rng = np.random.default_rng(1)
    M = GraphicMatroid(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])
    bases = [m for m in all_independent(M) if m.bit_count() == M.rank]
    for _ in range(40):
        S, T = rng.choice(bases, size=2)
        pairs = M.exchange_bijection(int(S), int(T))
        assert pairs == sorted(pairs)
        lefts = {i for i, _ in pairs}
        rights = {j for _, j in pairs}
        assert lefts == set(np.flatnonzero([(int(S) & ~int(T)) >> b & 1 for b in range(M.n)]))
        assert len(rights) == len(pairs)
        for i, j in pairs:
            assert M.is_independent((int(S) & ~(1 << i)) | (1 << j))


def test_exchange_bijection_rejects_non_bases():
    M = UniformMatroid(4, 2)
    with pytest.raises(ValidationError):
        M.exchange_bijection(mask_of([0]), mask_of([1, 2]))


def test_exchange_bijection_fails_loudly_without_feasible_swaps(monkeypatch):
    M = UniformMatroid(4, 2)
    monkeypatch.setattr(M, "swap_feasible", lambda mask: np.zeros((2, 2), dtype=bool))
    with pytest.raises(AssertionError):
        M.exchange_bijection(mask_of([0, 1]), mask_of([2, 3]))


def test_greedy_follows_the_given_order():
    M = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    assert M.greedy([2, 0, 1]) == mask_of([0, 2])
    assert M.greedy([1, *range(M.n)]) == mask_of([0, 1])
    assert M.greedy(np.array([1, 1, 2])) == mask_of([1, 2])
    assert M.greedy([np.uint8(2), np.int64(1)]) == mask_of([1, 2])
    assert PartitionMatroid([[0, 1], [2]], [1, 1]).greedy([1, 0, 2]) == mask_of([1, 2])
    perm = np.random.default_rng(0).permutation(4)
    assert UniformMatroid(4, 2).greedy(perm) == mask_of(perm[:2].tolist())


@pytest.mark.parametrize("element", [-1, 1.5, True, 4, "1", None])
def test_greedy_rejects_an_order_element_that_is_no_element(element):
    # neither a shift error nor a truncation to int: 1.5 and True are not element 1
    with pytest.raises(ValidationError):
        UniformMatroid(4, 2).greedy([element])


def loop_swap_feasible(M, mask):
    inside = elements_of(mask)
    outside = elements_of(((1 << M.n) - 1) & ~mask)
    rows = [[M.is_independent((mask & ~(1 << i)) | (1 << j)) for j in outside] for i in inside]
    return np.array(rows, dtype=bool).reshape(len(inside), len(outside))


def test_swap_feasible_overrides_match_the_independence_loop():
    for M in (
        UniformMatroid(7, 3),
        UniformMatroid(7, 7),
        PartitionMatroid([[0, 1, 2], [3, 4], [5, 6]], [2, 1, 0]),
        PartitionMatroid([[0, 3, 5], [1, 2, 4, 6]], [1, 2]),
        PartitionMatroid([[0, 1, 2], [3, 4], [5, 6]], [10**30, 1, 2**63]),  # past int64
        GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 0)]),
    ):
        for mask in range(1 << M.n):  # overrides may assume S independent, the base may not
            want = loop_swap_feasible(M, mask)
            methods = [MatroidOracle.swap_feasible]
            if M.is_independent(mask):
                methods.append(type(M).swap_feasible)
            for method in methods:
                got = method(M, mask)
                assert got.dtype == bool and got.shape == want.shape
                np.testing.assert_array_equal(got, want, err_msg=f"{M.kind} {mask:#x}")


def random_small_matroids(seed):
    """Uniform matroids up to n=7, 100 random partitions and 300 random graphs
    of up to 9 edges on at most 5 vertices, so loops and parallel edges are common."""
    rng = np.random.default_rng(seed)
    random_graphs = [
        GraphicMatroid(v, [tuple(int(u) for u in rng.integers(0, v, size=2))
                           for _ in range(int(rng.integers(1, 10)))])
        for v in rng.integers(1, 6, size=300)
    ]
    random_partitions = []
    for n in rng.integers(1, 9, size=100):
        labels = rng.integers(0, 3, size=n)
        blocks = [block for b in range(3) if (block := np.flatnonzero(labels == b).tolist())]
        random_partitions.append(PartitionMatroid(blocks, rng.integers(0, 3, size=len(blocks))))
    return [*(UniformMatroid(n, r) for n in range(1, 8) for r in range(n + 2)),
            *random_partitions, *random_graphs]


def test_add_feasible_overrides_match_the_independence_loop():
    checked = {}
    for M in random_small_matroids(8):
        for mask in range(1 << M.n):  # dependent S too: S + j is then dependent
            outside = [j for j in range(M.n) if not mask >> j & 1]
            want = np.array([M.is_independent(mask | (1 << j)) for j in outside], dtype=bool)
            for method in (MatroidOracle.add_feasible, type(M).add_feasible):
                got = method(M, mask)
                assert got.dtype == bool and got.shape == want.shape
                np.testing.assert_array_equal(got, want, err_msg=f"{M.kind} {mask:#x}")
            if not M.is_independent(mask):
                checked[M.kind] = checked.get(M.kind, 0) + 1
    assert min(checked.values()) > 500, checked  # dependent masks of each kind


def test_base_swap_feasible_matches_the_independence_loop_on_every_mask():
    checked = {}
    for M in random_small_matroids(9):
        for mask in range(1 << M.n):
            want = loop_swap_feasible(M, mask)
            got = MatroidOracle.swap_feasible(M, mask)
            assert got.dtype == bool and got.shape == want.shape
            np.testing.assert_array_equal(got, want, err_msg=f"{M.kind} {mask:#x}")
            if not M.is_independent(mask):
                checked[M.kind] = checked.get(M.kind, 0) + 1
    assert min(checked.values()) > 500, checked  # dependent masks of each kind


def test_graphic_swap_feasible_on_bases_and_at_the_ends():
    # graphic swaps are the base rule, add_feasible(S - i), with no code of their own
    assert GraphicMatroid.swap_feasible is MatroidOracle.swap_feasible
    rng = np.random.default_rng(62)
    graphs = [GraphicMatroid(v, [tuple(int(u) for u in rng.integers(0, v, size=2))
                                 for _ in range(62)])
              for v in (2, 12, 21, 40, 63)]
    graphs.append(GraphicMatroid(3, [(v, v) for v in (0, 1, 2, 0, 1)]))  # all loops, rank 0
    for M in graphs:
        # three greedy bases, then S = the empty set and S = the whole ground set,
        # whose blocks have no rows and no columns
        for mask in [*(M.greedy(rng.permutation(M.n)) for _ in range(3)), 0, (1 << M.n) - 1]:
            got = M.swap_feasible(mask)
            assert got.dtype == bool and got.shape == (mask.bit_count(), M.n - mask.bit_count())
            np.testing.assert_array_equal(got, loop_swap_feasible(M, mask),
                                          err_msg=f"{M.n} {mask:#x}")
        # from a base, every edge outside it but a loop swaps with its cycle
        base = M.greedy(range(M.n))
        assert M.swap_feasible(base).any() == any(
            u != v for j, (u, v) in enumerate(M.edges) if not base >> j & 1)


def test_graphic_add_feasible_never_adds_a_loop_or_closes_a_cycle():
    M = GraphicMatroid(4, [(0, 1), (1, 2), (2, 2), (0, 2), (1, 0), (2, 3)])
    # the path 0-1-2 joins vertices 0, 1 and 2: only the edge to 3 may join
    np.testing.assert_array_equal(M.add_feasible(mask_of([0, 1])), [False, False, False, True])
    np.testing.assert_array_equal(M.add_feasible(0), [True, True, False, True, True, True])
    # a set that is not a forest has no independent superset
    assert not M.add_feasible(mask_of([0, 3, 1])).any()


def test_partition_swaps_at_the_cap_stay_inside_a_block():
    M = PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1])
    # both blocks at their cap: rows 0, 1, 3 and columns 2, 4 pair only within a block
    np.testing.assert_array_equal(M.swap_feasible(mask_of([0, 1, 3])),
                                  [[True, False], [True, False], [False, True]])
    # the first block has room, so anything may move into it
    np.testing.assert_array_equal(M.swap_feasible(mask_of([0, 3])),
                                  [[True, True, False], [True, True, True]])


def test_pair_feasible_overrides_match_the_independence_loop():
    rng = np.random.default_rng(4)
    random_graphs = [  # few vertices, so loops and parallel edges are common
        GraphicMatroid(3, [tuple(int(v) for v in rng.integers(0, 3, size=2)) for _ in range(8)])
        for _ in range(5)
    ]
    for M in (
        UniformMatroid(6, 0),
        UniformMatroid(6, 1),
        UniformMatroid(6, 2),
        UniformMatroid(1, 1),
        PartitionMatroid([[0, 1, 2], [3, 4], [5], [6, 7]], [0, 1, 2, 2]),
        PartitionMatroid([[0, 2, 4], [1, 3, 5]], [1, 2]),
        PartitionMatroid([[0], [1, 2]], [0, 0]),
        GraphicMatroid(4, [(0, 1), (1, 0), (2, 2), (1, 2), (0, 1), (3, 3), (2, 3)]),
        GraphicMatroid(1, [(0, 0), (0, 0)]),
        *random_graphs,
    ):
        want = MatroidOracle.pair_feasible(M)
        for i, j in itertools.product(range(M.n), repeat=2):
            assert want[i, j] == (i != j and M.is_independent(mask_of([i, j])))
        got = M.pair_feasible()
        assert got.dtype == bool and got.shape == (M.n, M.n)
        np.testing.assert_array_equal(got, want, err_msg=f"{M.kind} {M.n}")


def test_independence_vector_overrides_match_the_independence_loop():
    rng = np.random.default_rng(6)
    for n in range(1, 11):
        labels = rng.integers(0, 3, size=n)
        v = n // 2 + 2
        for M in (
            UniformMatroid(n, int(rng.integers(0, n + 1))),
            PartitionMatroid([np.flatnonzero(labels == b).tolist() for b in range(3)],
                             rng.integers(0, 3, size=3).tolist()),
            GraphicMatroid(v, [tuple(int(u) for u in rng.integers(0, v, size=2))
                               for _ in range(n)]),
        ):
            want = [M.is_independent(mask) for mask in range(1 << n)]
            for got in (M.independence_vector(), MatroidOracle._fill_independence(M)):
                assert got.dtype == bool and got.shape == (1 << n,)
                np.testing.assert_array_equal(got, want, err_msg=f"{M.kind} {n}")


def test_independence_vector_stops_at_the_table_guard():
    with pytest.raises(GuardError, match="independence vector needs n <= 20, got 21"):
        UniformMatroid(21, 3).independence_vector()


@pytest.mark.parametrize("build", [
    lambda: UniformMatroid(5, 1.9),
    lambda: GraphicMatroid(3, [(0, 1.5), (1, 2)]),
    lambda: PartitionMatroid([[0, 1]], [1.5]),
    lambda: UniformMatroid(5, True),
    lambda: UniformMatroid(5.0, 2),
    lambda: GraphicMatroid(3.0, [(0, 1)]),
    lambda: PartitionMatroid([[0, 1.0]], [1]),
], ids=["uniform-rank", "graphic-endpoint", "partition-cap", "uniform-bool", "uniform-n",
        "graphic-vertices", "partition-element"])
def test_constructors_reject_fractions_and_booleans(build):
    # before, the first three were kept as 1.9, truncated to (0, 1) and to [1]
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


def test_constructors_read_numpy_integers_as_int():
    M = UniformMatroid(np.int64(5), np.int64(2))
    assert (M.n, M.rank) == (5, 2) and type(M.rank) is int
    G = GraphicMatroid(np.int32(3), [(np.int64(0), np.int64(1))])
    assert G.edges == [(0, 1)] and all(type(v) is int for v in G.edges[0])
    assert PartitionMatroid([[np.int64(0), 1]], [np.int64(1)]).caps == [1]
