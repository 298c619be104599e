"""Acceptance checks: ten exact criteria printed one line each.

Every comparison is exact integer or rational combinatorics; there are no
tolerances anywhere.  The whole module is expected to run in seconds.
"""

import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path
from random import Random

import pytest

from tropmat import (
    HalfspaceSystem,
    TropicalPoint,
    build_polytope,
    check_exchange,
    cross_validate,
    divides,
    enumerate_maximal_cells,
    fine_type,
    hypersimplex_coarse_types,
    hypersimplex_halfspaces,
    ideal_generators,
    in_tconv,
    is_minimal_generating,
    is_minimal_halfspace,
    maximal_bounded_cells,
    pseudovertices,
    uniform_matroid,
    verify_exterior_description,
)
from tropmat.polytopes import _support_point, _union_type

from oracles import translate

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL {label}")
        raise
    with capsys.disabled():
        print(f"[criterion {num:02d}] PASS {label}")


def test_criterion_01_bases_and_non_bases(capsys, running_matroid):
    with criterion(capsys, 1, "running example bases and non bases"):
        assert running_matroid.ground_size == 5 and running_matroid.rank == 3
        assert [sorted(b) for b in running_matroid.bases] == [
            [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5],
            [1, 4, 5], [2, 3, 4], [2, 3, 5], [3, 4, 5],
        ]
        from tropmat import non_bases

        assert [sorted(s) for s in non_bases(running_matroid)] == [
            [1, 2, 3], [2, 4, 5],
        ]


def test_criterion_02_origin_type(capsys, running_polytope):
    with criterion(capsys, 2, "fine type at the origin"):
        assert running_polytope.origin_type.entries == (
            frozenset({1, 2, 3, 4, 5}),
            frozenset({1, 2, 6, 7}),
            frozenset({3, 4, 6, 7, 8}),
            frozenset({1, 3, 5, 6, 8}),
            frozenset({2, 4, 5, 7, 8}),
        )


def test_criterion_03_pseudovertex_counts(capsys, running_polytope):
    with criterion(capsys, 3, "pseudovertex counts"):
        assert len(pseudovertices(running_polytope)) == 14
        for d in (1, 2, 3):
            p = build_polytope(uniform_matroid(1, d + 1))
            assert len(pseudovertices(p)) == 2 ** (d + 1) - 2


def test_criterion_04_maximal_bounded_cells(capsys, running_polytope):
    with criterion(capsys, 4, "maximal bounded cells"):
        cells = maximal_bounded_cells(running_polytope)
        assert len(cells) == 8 * 2  # bases times (d+1-k)!
        assert all(bc.interior_type.dimension() == 2 for bc in cells)
        sample = (
            frozenset({1}),
            frozenset({1}),
            frozenset({3, 6}),
            frozenset({1}),
            frozenset({2, 4, 5, 7, 8}),
        )
        assert sample in {bc.interior_type.entries for bc in cells}


def test_criterion_05_maximal_cells_cross_validated(capsys, running_polytope):
    with criterion(capsys, 5, "73 maximal cells, formula == enumeration"):
        recs = enumerate_maximal_cells(running_polytope)
        assert len(recs) == 73
        split = Counter(sum(1 for x in rec.coarse if x) for rec in recs)
        assert split == {1: 5, 2: 20, 3: 48}
        report = cross_validate(running_polytope)
        assert report.ok and report.multiset_equal


def test_criterion_06_f_vector(capsys, running_complex):
    with criterion(capsys, 6, "f-vector, Euler sum"):
        assert running_complex.f_vector == (14, 78, 172, 180, 73)
        euler = sum((-1) ** i * c for i, c in enumerate(running_complex.f_vector))
        assert euler == 1


def test_criterion_07_coarse_type_ideal(capsys, running_matroid, running_complex):
    with criterion(capsys, 7, "coarse type ideal"):
        ideal = ideal_generators(running_matroid)
        reference = json.loads((DATA / "running_example_ideal.json").read_text())
        assert sorted(ideal.generators) == sorted(
            tuple(g) for g in reference["generators"]
        )
        assert is_minimal_generating(ideal)
        for rec in running_complex.cells:
            assert any(divides(g, rec.coarse) for g in ideal.generators)


def test_criterion_08_hypersimplex_halfspaces(capsys):
    with criterion(capsys, 8, "minimal exterior descriptions"):
        expected = {
            (2, 2): sorted(
                [((0, 0, 0), (1, 2)), ((0, 0, 0), (1, 3)), ((0, 0, 0), (2, 3)),
                 ((0, 0, 1), (3,)), ((0, 1, 0), (2,)), ((1, 0, 0), (1,))]
            ),
            (2, 3): sorted(
                [((0, 0, 0, 0), (1, 2, 3)), ((0, 0, 0, 0), (1, 2, 4)),
                 ((0, 0, 0, 0), (1, 3, 4)), ((0, 0, 0, 0), (2, 3, 4)),
                 ((0, 0, 0, 1), (4,)), ((0, 0, 1, 0), (3,)),
                 ((0, 1, 0, 0), (2,)), ((1, 0, 0, 0), (1,))]
            ),
        }
        for (k, d), pairs in expected.items():
            system = hypersimplex_halfspaces(k, d)
            got = sorted(
                (
                    tuple(int(c) for c in h.apex.canonical().coords),
                    tuple(sorted(h.sectors)),
                )
                for h in system
            )
            assert got == pairs
            gens = build_polytope(uniform_matroid(k, d + 1)).generators
            assert all(is_minimal_halfspace(h, gens) for h in system)
            assert verify_exterior_description(system, gens).ok
            origin = TropicalPoint([0] * (d + 1))
            for skip, h in enumerate(system):
                if h.apex != origin:
                    continue
                sub = HalfspaceSystem(
                    g for i, g in enumerate(system) if i != skip
                )
                assert not verify_exterior_description(sub, gens).ok


def test_criterion_09_uniform_coarse_types(capsys):
    with criterion(capsys, 9, "uniform coarse type table vs enumeration"):
        for k, d in [(2, 2), (2, 3), (3, 3)]:
            p = build_polytope(uniform_matroid(k, d + 1))
            orbits = {
                tuple(sorted(rec.coarse, reverse=True))
                for rec in enumerate_maximal_cells(p)
            }
            assert set(hypersimplex_coarse_types(k, d)) == orbits
            # the dropped leading row claims more generators than exist,
            # which is why it never shows up in the enumeration
            assert comb(d + 1, k) + comb(d, k - 1) > comb(d + 1, k)


def test_criterion_10_property_suite(capsys, running_polytope, running_matroid,
                                     k4_matroid, u24_polytope):
    with criterion(capsys, 10, "type and matroid property suite"):
        gens = running_polytope.generators
        n = len(gens)
        rng = Random(12345)
        for _ in range(200):
            x = TropicalPoint(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)
            )
            ft = fine_type(x, gens)
            assert ft.union() == frozenset(range(1, n + 1))
            shifted = fine_type(translate(x, Fraction(7, 3)), gens)
            assert shifted.entries == ft.entries
            assert ft.is_bounded() == all(ft.entries) == in_tconv(x, gens)

        for k in (1, 2):
            inner = build_polytope(uniform_matroid(k + 1, 4)).generators
            outer = build_polytope(uniform_matroid(k, 4)).generators
            assert all(in_tconv(v, outer) for v in inner)

        for m in (running_matroid, k4_matroid, uniform_matroid(2, 3),
                  uniform_matroid(2, 4), uniform_matroid(3, 4)):
            assert check_exchange(m.bases)

        for p in (running_polytope, u24_polytope):
            for pv in pseudovertices(p):
                shortcut = _union_type(p, pv.support)
                direct = fine_type(_support_point(p.n_coords, pv.support), p.generators)
                assert shortcut.entries == direct.entries == pv.fine_type.entries
