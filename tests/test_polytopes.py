from fractions import Fraction
from itertools import chain, combinations
from math import factorial

import pytest

from tropmat import (
    TropicalPoint,
    build_polytope,
    corner_point,
    fine_type,
    maximal_bounded_cells,
    pseudovertex_label,
    pseudovertices,
    skeleton_dot,
    uniform_matroid,
)
from tropmat.polytopes import BoundedCell, _support_point, _union_type

from oracles import doubled, valid_sequences


def interior_point(cell: BoundedCell) -> TropicalPoint:
    """Ordinary average of the chain, a relative interior point of the cell."""
    m = len(cell.chain)
    return TropicalPoint(Fraction(sum(col), m) for col in zip(*cell.chain)).canonical()


RUNNING_GENERATORS = [
    (0, 0, 1, 0, 1),
    (0, 0, 1, 1, 0),
    (0, 1, 0, 0, 1),
    (0, 1, 0, 1, 0),
    (0, 1, 1, 0, 0),
    (1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0),
]

ORIGIN_TYPE = (
    frozenset({1, 2, 3, 4, 5}),
    frozenset({1, 2, 6, 7}),
    frozenset({3, 4, 6, 7, 8}),
    frozenset({1, 3, 5, 6, 8}),
    frozenset({2, 4, 5, 7, 8}),
)


class TestModel:
    def test_generators_are_negated_incidence_vectors(self, running_polytope):
        got = [tuple(int(c) for c in v.coords) for v in running_polytope.generators]
        assert got == RUNNING_GENERATORS

    def test_origin_type(self, running_polytope):
        assert running_polytope.origin_type.entries == ORIGIN_TYPE
        assert running_polytope.origin_type.coarse() == (5, 4, 5, 5, 5)

    def test_corners_are_unit_vectors(self, running_polytope):
        units = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
                 (0, 0, 0, 0, 1)]
        for i, e in enumerate(units, start=1):
            assert corner_point(running_polytope.generators, i) == TropicalPoint(e)

    def test_corner_types(self, running_polytope):
        p = running_polytope
        t1 = fine_type(corner_point(p.generators, 1), p.generators)
        assert t1.entries[0] == frozenset(range(1, 9))
        assert t1.dimension() == 0
        t2 = fine_type(corner_point(p.generators, 2), p.generators)
        assert t2.entries == (
            frozenset({3, 4, 5}),
            frozenset(range(1, 9)),
            frozenset({3, 4, 8}),
            frozenset({3, 5, 8}),
            frozenset({4, 5, 8}),
        )


class TestPseudovertices:
    def test_running_example_has_fourteen(self, running_polytope):
        pvs = pseudovertices(running_polytope)
        assert len(pvs) == 14
        labels = {pseudovertex_label(running_polytope, pv) for pv in pvs}
        assert labels == (
            {"0"}
            | {f"v{i}" for i in range(1, 9)}
            | {f"e_{i}" for i in (1, 2, 3, 4, 5)}
        )

    def test_every_pseudovertex_has_a_point_of_its_own_type(self, running_polytope):
        for pv in pseudovertices(running_polytope):
            assert pv.fine_type.dimension() == 0
            direct = fine_type(pv.point, running_polytope.generators)
            assert direct.entries == pv.fine_type.entries

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_counts(self, d):
        p = build_polytope(uniform_matroid(1, d + 1))
        assert len(pseudovertices(p)) == 2 ** (d + 1) - 2

    @pytest.mark.parametrize("k, n, doubles, count", [
        (2, 4, (), 11), (3, 5, (), 16), (2, 3, (1,), 10), (2, 3, (1, 1), 22),
        (2, 3, (1, 2), 24), (3, 4, (2,), 13), (1, 2, (), 2), (1, 3, (), 6), (1, 4, (), 14),
    ])
    def test_one_per_superset_of_a_basis(self, k, n, doubles, count):
        # the dimension test drops only the ground set, and only at rank one
        m = doubled(uniform_matroid(k, n), *doubles)
        supersets = sum(1 for size in range(m.ground_size + 1)
                        for j in combinations(m.ground(), size)
                        if any(b <= set(j) for b in m.bases))
        assert len(pseudovertices(build_polytope(m))) == supersets - (k == 1) == count

    def test_k4_count(self, k4_matroid):
        assert len(pseudovertices(build_polytope(k4_matroid))) == 38

    def test_union_type_shortcut_agrees_with_direct_evaluation(self, running_polytope):
        p = running_polytope
        ground = range(1, 6)
        supports = chain.from_iterable(
            combinations(ground, r) for r in range(1, 6)
        )
        for support in supports:
            s = frozenset(support)
            shortcut = _union_type(p, s)
            direct = fine_type(_support_point(5, s), p.generators)
            assert shortcut.entries == direct.entries


class TestBoundedCells:
    def test_valid_sequence_counts(self, running_polytope):
        assert len(valid_sequences(running_polytope, 2)) == 16
        assert len(valid_sequences(running_polytope, 1)) == 5
        assert valid_sequences(running_polytope, 0) == [()]
        with pytest.raises(ValueError):
            valid_sequences(running_polytope, 3)

    def test_sixteen_maximal_bounded_cells(self, running_polytope):
        cells = maximal_bounded_cells(running_polytope)
        assert len(cells) == 16
        assert all(bc.interior_type.dimension() == 2 for bc in cells)
        assert all(bc.interior_type.is_bounded() for bc in cells)

    def test_sample_cell(self, running_polytope):
        cells = {bc.sequence: bc for bc in maximal_bounded_cells(running_polytope)}
        bc = cells[(5, 3)]
        assert bc.basis == frozenset({1, 2, 4})
        assert bc.basis_index == 1
        assert bc.chain == (
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 1, 0, 1),
        )
        assert bc.interior_type.entries == (
            frozenset({1}),
            frozenset({1}),
            frozenset({3, 6}),
            frozenset({1}),
            frozenset({2, 4, 5, 7, 8}),
        )

    def test_chain_is_read_off_the_sequence(self, running_matroid, k4_matroid):
        for m in (running_matroid, k4_matroid, uniform_matroid(2, 5)):
            p = build_polytope(m)
            n = p.n_coords
            ground = frozenset(range(1, n + 1))
            for bc in maximal_bounded_cells(p):
                seq = bc.sequence
                assert len(bc.chain) == len(seq) + 1
                for r, pt in enumerate(bc.chain):
                    assert pt == _support_point(n, ground - set(seq[:r])).coords
                assert bc.chain[-1] == p.generators[bc.basis_index - 1].coords

    def test_interior_points_realize_the_stored_types(self, running_polytope):
        for bc in maximal_bounded_cells(running_polytope):
            direct = fine_type(interior_point(bc), running_polytope.generators)
            assert direct.entries == bc.interior_type.entries

    def test_count_formula_on_fixtures(self, running_matroid, k4_matroid):
        for m in (running_matroid, k4_matroid, uniform_matroid(2, 4)):
            p = build_polytope(m)
            d = p.n_coords - 1
            cells = maximal_bounded_cells(p)
            assert len(cells) == len(m.bases) * factorial(d + 1 - m.rank)
            assert all(
                bc.interior_type.dimension() == d + 1 - m.rank for bc in cells
            )


class TestSkeleton:
    def test_node_and_edge_counts(self, running_polytope, running_complex):
        dot = skeleton_dot(running_polytope, running_complex.cells)
        lines = dot.splitlines()
        nodes = [l for l in lines if l.strip().endswith('";') and "--" not in l]
        edges = [l for l in lines if "--" in l]
        assert len(nodes) == 14
        assert len(edges) == 29
        assert lines[0] == "graph skeleton {"
        assert lines[-1] == "}"

    def test_byte_stable(self, running_polytope, running_complex):
        one = skeleton_dot(running_polytope, running_complex.cells)
        two = skeleton_dot(running_polytope, running_complex.cells)
        assert one == two
