from collections import Counter, deque
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmat import (
    DimensionMismatch,
    FineType,
    TropicalHalfspace,
    TropicalPoint,
    corner_point,
    fine_type,
    halfspace_contains,
    in_tconv,
)
from tropmat.minplus import _components, rational_to_json, to_rational

from oracles import translate, trop_combination, trop_segment

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def points(n_coords: int):
    return st.lists(rationals, min_size=n_coords, max_size=n_coords).map(TropicalPoint)


class TestRationals:
    def test_accepts_exact_kinds(self):
        assert to_rational(3) == Fraction(3)
        assert to_rational("2/7") == Fraction(2, 7)
        assert to_rational(Fraction(-1, 2)) == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), True, False])
    def test_rejects_inexact_kinds(self, bad):
        with pytest.raises(TypeError):
            to_rational(bad)

    def test_json_encoding(self):
        assert rational_to_json(Fraction(4)) == 4
        assert rational_to_json(Fraction(1, 3)) == "1/3"


class TestTropicalPoint:
    def test_canonical_has_zero_min(self):
        p = TropicalPoint([5, 7, 6])
        assert p.canonical().coords == (0, 2, 1)

    def test_translation_invariance_of_identity(self):
        p = TropicalPoint([0, 2, 1])
        q = translate(p, Fraction(7, 3))
        assert p == q
        assert hash(p) == hash(q)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            trop_segment(TropicalPoint([0, 1]), TropicalPoint([0, 1, 2]))

    @given(points(4), rationals)
    def test_class_representatives_are_equal(self, p, c):
        assert translate(p, c) == p


class TestSegment:
    def test_breakpoints_of_worked_example(self):
        seg = trop_segment(TropicalPoint([0, 0, 0]), TropicalPoint([0, 2, 5]))
        assert [z.coords for z in seg] == [
            (0, 0, 0),
            (0, 2, 2),
            (0, 2, 5),
        ]

    @given(points(3), points(3))
    def test_endpoints_and_size_bound(self, x, y):
        seg = trop_segment(x, y)
        assert seg[0] == x.canonical() or seg[-1] == x.canonical()
        assert x.canonical() in seg and y.canonical() in seg
        assert len(seg) <= 3

    @given(points(4), points(4))
    def test_breakpoints_lie_in_the_hull_of_the_endpoints(self, x, y):
        gens = [x, y]
        assert all(in_tconv(z, gens) for z in trop_segment(x, y))


class TestCombination:
    def test_small_combination(self):
        v = [TropicalPoint([0, 1]), TropicalPoint([1, 0])]
        z = trop_combination([Fraction(0), Fraction(0)], v)
        assert z.coords == (0, 0)

    @given(st.lists(rationals, min_size=2, max_size=2), points(3), points(3))
    def test_combination_is_a_hull_member(self, lams, x, y):
        z = trop_combination(lams, [x, y])
        assert in_tconv(z, [x, y])


GENS = [
    TropicalPoint([0, 0, 1]),
    TropicalPoint([1, 0, 0]),
]


class TestTypes:
    def test_fine_type_entries(self):
        ft = fine_type(TropicalPoint([0, 0, 0]), GENS)
        assert ft.entries == (frozenset({1}), frozenset({1, 2}), frozenset({2}))
        assert ft.coarse() == (1, 2, 1)

    def test_type_union_covers_every_generator(self):
        ft = fine_type(TropicalPoint([5, 0, 0]), GENS)
        assert ft.union() == frozenset({1, 2})

    @given(points(3))
    def test_union_covers_generators_everywhere(self, x):
        assert fine_type(x, GENS).union() == frozenset({1, 2})

    @given(points(3), rationals)
    def test_types_are_class_invariants(self, x, c):
        assert fine_type(x, GENS).entries == fine_type(translate(x, c), GENS).entries

    def test_dimension_by_entry_overlaps(self):
        t0 = FineType([{1}, {1, 2}, {2}])
        assert t0.dimension() == 0
        t1 = FineType([{1}, {2}, {1, 2}, set()])
        assert t1.dimension() == 1
        assert not t1.is_bounded()
        assert t0.is_bounded()

    @given(points(3))
    def test_bounded_means_membership(self, x):
        ft = fine_type(x, GENS)
        assert ft.is_bounded() == in_tconv(x, GENS)
        assert ft.is_bounded() == all(ft.entries)

    @given(points(3))
    def test_membership_has_a_reconstruction_witness(self, x):
        # x is in the hull iff the pointwise best combination lands back on x
        lams = [max(xj - vj for xj, vj in zip(x.coords, v.coords)) for v in GENS]
        rebuilt = trop_combination(lams, GENS)
        assert in_tconv(x, GENS) == (rebuilt == x)


def components_oracle(sets: list) -> Counter:
    """Breadth-first search over the positions of the sets, joining two
    positions whose sets meet; the union of each component, with
    multiplicity."""
    left = set(range(len(sets)))
    out = Counter()
    while left:
        queue = deque([left.pop()])
        comp = []
        while queue:
            i = queue.popleft()
            comp.append(sets[i])
            near = [j for j in left if sets[i] & sets[j]]
            left.difference_update(near)
            queue.extend(near)
        out[reduce(or_, comp)] += 1
    return out


small_sets = st.frozensets(st.integers(0, 9), max_size=3)


class TestComponents:
    @given(st.lists(small_sets, max_size=8))
    def test_frozensets(self, sets):
        assert Counter(_components(sets)) == components_oracle(sets)

    @given(st.lists(small_sets.map(lambda s: sum(1 << e for e in s)), max_size=8))
    def test_int_masks(self, masks):
        assert Counter(_components(masks)) == components_oracle(masks)

    def test_empty_sets_stay_apart(self):
        empty = frozenset()
        assert Counter(_components([empty, frozenset({1}), empty])) == {
            empty: 2, frozenset({1}): 1}
        assert Counter(_components([0, 0b11, 0b110, 0])) == {0: 2, 0b111: 1}


class TestHalfspace:
    def test_validation(self):
        with pytest.raises(ValueError):
            TropicalHalfspace(TropicalPoint([0, 0]), frozenset())
        with pytest.raises(ValueError):
            TropicalHalfspace(TropicalPoint([0, 0]), frozenset({1, 2}))
        with pytest.raises(ValueError):
            TropicalHalfspace(TropicalPoint([0, 0]), frozenset({3}))

    def test_contains(self):
        h = TropicalHalfspace(TropicalPoint([0, 0, 0]), frozenset({1}))
        assert halfspace_contains(h, TropicalPoint([0, 1, 2]))
        assert not halfspace_contains(h, TropicalPoint([2, 0, 1]))

    @given(points(3), points(3))
    def test_halfspaces_are_tropically_convex(self, x, y):
        h = TropicalHalfspace(TropicalPoint([0, 1, 0]), frozenset({1, 3}))
        if halfspace_contains(h, x) and halfspace_contains(h, y):
            assert all(halfspace_contains(h, z) for z in trop_segment(x, y))


class TestCorner:
    def test_corner_of_two_generators(self):
        # entrywise minimum of v_j - v_i over the generators
        assert corner_point(GENS, 1) == TropicalPoint([1, 0, 0])
        assert corner_point(GENS, 3) == TropicalPoint([0, 0, 1])

    def test_corner_index_validation(self):
        with pytest.raises(ValueError):
            corner_point(GENS, 0)
        with pytest.raises(ValueError):
            corner_point(GENS, 4)


# The Fraction bodies that fine_type and halfspace_contains had before they
# moved to the integer forms; kept as oracles.
def fraction_fine_type(x, generators):
    n = x.n_coords
    entries = [set() for _ in range(n)]
    for idx, v in enumerate(generators, start=1):
        diffs = [vc - xc for vc, xc in zip(v.coords, x.coords)]
        m = min(diffs)
        for k, dk in enumerate(diffs):
            if dk == m:
                entries[k].add(idx)
    return FineType(entries)


def fraction_halfspace_contains(h, x):
    form = [-c for c in h.apex.coords]
    lhs = min(form[i - 1] + x.coords[i - 1] for i in h.sectors)
    rhs = min(
        form[j] + x.coords[j]
        for j in range(x.n_coords)
        if (j + 1) not in h.sectors
    )
    return lhs <= rhs


# a coarse grid with mixed denominators makes ties (the combinatorial
# content) frequent
grid = st.sampled_from([Fraction(v, q) for q in (1, 2, 3, 4, 6) for v in range(-6, 7)])


def grid_points(n_coords: int):
    return st.lists(grid, min_size=n_coords, max_size=n_coords).map(TropicalPoint)


@st.composite
def point_and_generators(draw):
    n = draw(st.integers(2, 5))
    x = draw(grid_points(n))
    gens = draw(st.lists(grid_points(n), min_size=1, max_size=6))
    return x, gens


@st.composite
def halfspace_and_point(draw):
    n = draw(st.integers(2, 5))
    apex = draw(grid_points(n))
    sectors = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    return TropicalHalfspace(apex, sectors), draw(grid_points(n))


class TestIntegerForm:
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_invariants(self, coords):
        p = TropicalPoint(coords)
        ints, den = p.int_form
        assert den > 0
        assert all(isinstance(c, int) for c in ints)
        assert tuple(Fraction(c, den) for c in ints) == p.coords
        assert den == lcm(*(c.denominator for c in p.coords))

    def test_computed_once_and_only_on_use(self):
        p = TropicalPoint(["1/2", "-2/3", 5])
        assert "int_form" not in vars(p)
        first = p.int_form
        assert first == ((3, -4, 30), 6)
        assert p.int_form is first

    def test_point_stays_immutable_with_unchanged_identity(self):
        p = TropicalPoint(["1/2", 0, 3])
        q = translate(p, Fraction(5, 7))
        before = (hash(p), hash(q), p == q)
        p.int_form, q.int_form
        assert (hash(p), hash(q), p == q) == before == (hash(p), hash(p), True)
        assert p.int_form != q.int_form
        with pytest.raises(AttributeError):
            p.coords = (0, 0, 0)
        with pytest.raises(AttributeError):
            p.int_form = ((0, 0, 0), 1)


class TestIntegerPredicatesMatchFractionOracles:
    @settings(max_examples=300)
    @given(point_and_generators(), grid, grid)
    def test_fine_type(self, case, c, e):
        x, gens = case
        expected = fraction_fine_type(x, gens).entries
        assert fine_type(x, gens).entries == expected
        # other representatives of the same classes
        shifted = [translate(v, e) for v in gens]
        assert fine_type(translate(x, c), shifted).entries == expected
        assert in_tconv(x, gens) == all(expected)

    @settings(max_examples=300)
    @given(halfspace_and_point(), grid, grid)
    def test_halfspace_contains(self, case, c, e):
        h, x = case
        expected = fraction_halfspace_contains(h, x)
        assert halfspace_contains(h, x) == expected
        moved = TropicalHalfspace(translate(h.apex, e), h.sectors)
        assert halfspace_contains(moved, translate(x, c)) == expected

    def test_ties_across_denominators(self):
        gens = [TropicalPoint(["1/2", "1/3", 0]), TropicalPoint([0, "-1/6", "-1/2"])]
        x = TropicalPoint(["1/3", "1/6", "-1/6"])
        assert fine_type(x, gens).entries == fraction_fine_type(x, gens).entries == (
            frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2}))
        h = TropicalHalfspace(TropicalPoint(["1/2", "1/3", 0]), {1})
        assert halfspace_contains(h, x) and fraction_halfspace_contains(h, x)
