import tracemalloc

import numpy as np
import pytest

from metasub.errors import GuardError, ValidationError
from metasub.matroid import GraphicMatroid, PartitionMatroid, UniformMatroid
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


def test_graphic_swaps_from_a_base_reach_every_edge_but_a_loop():
    # an edge outside a spanning forest closes a cycle with it, so it swaps
    # with the cycle's other edges; a loop closes a cycle alone
    rng = np.random.default_rng(62)
    graphs = [GraphicMatroid(v, [tuple(int(u) for u in rng.integers(0, v, size=2))
                                 for _ in range(62)])
              for v in (2, 12, 21, 40, 63)]
    graphs.append(GraphicMatroid(3, [(v, v) for v in (0, 1, 2, 0, 1)]))  # all loops, rank 0
    for M in graphs:
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
