"""The closed forms against straightforward oracles.

The oracles are the direct implementations the prefix walk, the degree
test, the bitmask exchange check and the superset scan replaced:
permutations with count_b for the coarse type formula, permutations
filtered by a disjoint basis for the bounded cells, the frozenset
exchange test, the pairwise divisibility test, and the union closure of
the bases, typed at each point, for the pseudovertices.  The formula and
bounded-cell oracles keep one order of each adjacent parallel pair, with
parallelism read off count_b.  Outputs must agree exactly, row order
included.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropmat import (
    MonomialIdeal,
    build_polytope,
    check_exchange,
    divides,
    enumerate_bases,
    ideal_generators,
    is_minimal_generating,
    matroid_from_bases,
    maximal_bounded_cells,
    maximal_cell_coarse_types,
    pseudovertices,
    uniform_matroid,
)
from tropmat.matroids import GraphError, LabeledGraph, MatroidError
from tropmat.minplus import FineType, fine_type
from tropmat.polytopes import BoundedCell, PseudoVertex, _support_point

from oracles import count_b, doubled, valid_sequences


def decreasing_parallel_pairs(m):
    """The pairs (i, j) with j < i that no basis holds both of."""
    return {(i, j) for i in m.ground() for j in range(1, i) if count_b(m, {i, j}, ()) == 0}


def formula_oracle(m):
    n = m.ground_size
    dec = decreasing_parallel_pairs(m)
    out = []
    for dp in range(0, n - m.rank + 1):
        for seq in permutations(m.ground(), dp):
            s = set(seq)
            if not any(b.isdisjoint(s) for b in m.bases):
                continue
            for last in m.ground():
                if last in s:
                    continue
                full = seq + (last,)
                # swapping adjacent parallel coordinates keeps the type,
                # except at the head while some basis misses the tuple
                if any(full[l:l + 2] in dec for l in range(1, dp)):
                    continue
                if full[:2] in dec and count_b(m, (), full) == 0:
                    continue
                t = [0] * n
                t[full[0] - 1] = count_b(m, {full[0]}, ()) + count_b(m, (), full)
                for l in range(1, dp + 1):
                    t[full[l] - 1] = count_b(m, {full[l]}, full[:l])
                out.append((full, tuple(t)))
    return out


def bounded_cells_oracle(p):
    m = p.matroid
    n = p.n_coords
    t0 = p.origin_type.entries
    full_len = n - m.rank
    ground = frozenset(range(1, n + 1))
    dec = decreasing_parallel_pairs(m)
    cells = []
    for seq in valid_sequences(p, full_len):
        basis = ground - set(seq)
        # a one-element basis trades places with a parallel last element
        tail = seq + tuple(basis) if len(basis) == 1 else seq
        if any(tail[l:l + 2] in dec for l in range(len(tail) - 1)):
            continue
        entries = [frozenset()] * n
        eaten = frozenset()
        for i in seq:
            entries[i - 1] = t0[i - 1] - eaten
            eaten |= t0[i - 1]
        for j in basis:
            entries[j - 1] = t0[j - 1] - eaten
        cells.append(BoundedCell(seq, basis, m.basis_index(basis), FineType(entries)))
    return cells


def pseudovertices_oracle(p):
    closure = set(p.matroid.bases)
    frontier = set(closure)
    while frontier:
        new = set()
        for j in frontier:
            for b in p.matroid.bases:
                u = j | b
                if u not in closure:
                    new.add(u)
        closure |= new
        frontier = new
    out = []
    for support in sorted(closure, key=lambda s: (len(s), tuple(sorted(s)))):
        point = _support_point(p.n_coords, support)
        ft = fine_type(point, p.generators)
        if ft.dimension() == 0:
            out.append(PseudoVertex(support, point, ft))
    return out


def exchange_oracle(bases):
    bset = set(bases)
    for bu in bases:
        for bv in bases:
            if bu == bv:
                continue
            for u in bu - bv:
                if not any((bu - {u}) | {v} in bset for v in bv - bu):
                    return False
    return True


def minimal_oracle(ideal):
    gens = ideal.generators
    return not any(
        i != j and divides(a, b)
        for i, a in enumerate(gens) for j, b in enumerate(gens)
    )


def assert_agrees(m, pairwise=True):
    """The closed forms of m agree with the oracles; the quadratic
    minimality oracle runs only when pairwise is set."""
    assert maximal_cell_coarse_types(m) == formula_oracle(m)
    p = build_polytope(m)
    assert maximal_bounded_cells(p) == bounded_cells_oracle(p)
    assert pseudovertices(p) == pseudovertices_oracle(p)
    assert check_exchange(m.bases) and exchange_oracle(m.bases)
    ideal = ideal_generators(m)
    # the premise of the one-degree shortcut: every type sums to #bases
    assert {sum(g) for g in ideal.generators} == {m.n_bases}
    assert is_minimal_generating(ideal)
    if pairwise:
        assert minimal_oracle(ideal)


@pytest.fixture(scope="module")
def fixtures(running_matroid, k4_matroid):
    triangle = enumerate_bases(LabeledGraph("abc", ["ab", "bc", "ca"]))
    return {
        "running-example": running_matroid,
        "k3": triangle,
        "k4": k4_matroid,
        "u23": uniform_matroid(2, 3),
        "u24": uniform_matroid(2, 4),
    }


@pytest.mark.parametrize("name", ["running-example", "k3", "k4", "u23", "u24"])
def test_bundled_fixtures(fixtures, name):
    assert_agrees(fixtures[name])


@pytest.mark.parametrize(
    "k, n", [(k, n) for n in range(2, 7) for k in range(1, n)]
)
def test_uniform_matroids(k, n):
    assert_agrees(uniform_matroid(k, n))


@pytest.mark.parametrize("k, n, doubles, rows, cells", [
    (2, 3, (1,), 32, 9),
    (2, 3, (1, 1), 110, 25),
    (2, 3, (1, 2), 147, 40),
    (1, 2, (), 3, 1),
    (1, 3, (), 10, 1),
    (1, 4, (), 29, 1),
    (1, 5, (), 76, 1),
])
def test_parallel_elements(k, n, doubles, rows, cells):
    # one row per maximal cell and one bounded cell per maximal bounded
    # cell, as the enumeration counts them; at rank one every two elements
    # are parallel
    m = doubled(uniform_matroid(k, n), *doubles)
    assert_agrees(m)
    assert len(maximal_cell_coarse_types(m)) == rows
    assert len(maximal_bounded_cells(build_polytope(m))) == cells


@st.composite
def bridgeless_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=8, unique=True))
    try:
        return LabeledGraph([str(v) for v in range(n)],
                            [(str(u), str(v)) for u, v in edges])
    except GraphError:
        assume(False)


@given(bridgeless_graphs())
@settings(max_examples=30, deadline=None)
def test_random_graphs(graph):
    assert_agrees(enumerate_bases(graph), pairwise=False)


class TestExchange:
    def test_non_matroid_rejected_by_both(self):
        bases = [frozenset({1, 2}), frozenset({3, 4})]
        assert not check_exchange(bases)
        assert not exchange_oracle(bases)
        assert not check_exchange([{1, 2}, {3, 4}])
        with pytest.raises(MatroidError, match="exchange"):
            matroid_from_bases(4, [[1, 2], [3, 4]])

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.lists(st.frozensets(st.integers(min_value=1, max_value=6),
                                         min_size=k, max_size=k),
                           min_size=1, max_size=12, unique=True)))
    @settings(max_examples=200, deadline=None)
    def test_random_families(self, bases):
        assert check_exchange(bases) == exchange_oracle(bases)


class TestMinimality:
    def test_mixed_degrees_minimal(self):
        ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 0), (1, 0, 3)])
        assert is_minimal_generating(ideal)
        assert minimal_oracle(ideal)

    def test_mixed_degrees_not_minimal(self):
        ideal = MonomialIdeal(3, [(1, 0, 0), (2, 1, 0), (0, 1, 1)])
        assert not is_minimal_generating(ideal)
        assert not minimal_oracle(ideal)

    @given(st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_random_ideals(self, gens):
        ideal = MonomialIdeal(3, gens)
        assert is_minimal_generating(ideal) == minimal_oracle(ideal)
