import random
from fractions import Fraction
from itertools import chain, islice, product

import pytest

from tropmat import (
    CapExceeded,
    ContainmentError,
    HalfspaceSystem,
    TropicalHalfspace,
    TropicalPoint,
    build_polytope,
    cornered_halfspaces,
    enumerate_all_cells,
    halfspace_contains,
    hypersimplex_halfspaces,
    in_tconv,
    inequality_str,
    is_minimal_halfspace,
    matroid_from_bases,
    pseudovertices,
    uniform_matroid,
    verify_exterior_description,
)
from tropmat.matroids import MatroidError

from oracles import translate


# ---------------------------------------------------------------------------
# oracles for the exact exterior check


def cell_oracle(system, gens):
    """Exact, by every cell of the negated apices.  Membership in each
    member is constant on a cell (x = -witness lies in sector k of apex a
    iff k is in a's entry of the type), so the intersection of the system
    is a union of closed cells.  It lies in the hull iff each of its cells
    is bounded and each of its 0-cells, the vertices of the bounded closed
    cells, lies in the min-plus convex hull."""
    if not all(system.contains(v) for v in gens):
        return False
    negated = [TropicalPoint(-c for c in a.coords) for a in {h.apex for h in system}]
    for rec in enumerate_all_cells(negated).cells:
        x = TropicalPoint(-c for c in rec.witness.coords)
        if system.contains(x) and not (rec.bounded and (rec.dim > 0 or in_tconv(x, gens))):
            return False
    return True


def _half_integer_lattice(d):
    steps = [Fraction(v, 2) for v in range(-4, 5)]
    for chart in product(steps, repeat=d):
        yield TropicalPoint([0, *chart])


def _pseudovertex_probes(generators):
    """Pseudovertices of a matroid's polytope nudged by every unit vector;
    nothing for generators that are not a matroid's 0/1 vectors."""
    n = generators[0].n_coords
    zero_sets = []
    for g in generators:
        c = g.canonical()
        if any(v not in (0, 1) for v in c.coords):
            return
        zero_sets.append(frozenset(i + 1 for i, v in enumerate(c.coords) if v == 0))
    if len({len(z) for z in zero_sets}) != 1:
        return
    try:
        m = matroid_from_bases(n, zero_sets)
    except MatroidError:
        return
    for pv in pseudovertices(build_polytope(m)):
        yield pv.point
        for i in range(n):
            delta = [0] * n
            delta[i] = 1
            yield translate(pv.point, delta)
            delta[i] = -1
            yield translate(pv.point, delta)


def probe_counterexamples(system, gens, budget=20000):
    """The heuristic the exact check replaced: hull against system
    membership at the nudged pseudovertices and the half-integer chart
    points of [-2, 2]^d.  One-sided: a counterexample it finds is real,
    finding none proves nothing."""
    probes = chain(_pseudovertex_probes(gens), _half_integer_lattice(gens[0].n_coords - 1))
    return [x for x in islice(probes, budget) if in_tconv(x, gens) != system.contains(x)]


def _containing_halfspace(rng, gens):
    """A random apex with a sector set that meets every generator's argmin
    set, so the halfspace contains the hull."""
    n = gens[0].n_coords
    while True:
        a = TropicalPoint(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
        sectors = set()
        for g in gens:
            diffs = [gc - ac for gc, ac in zip(g.coords, a.coords)]
            low = min(diffs)
            sectors.add(rng.choice([k + 1 for k, v in enumerate(diffs) if v == low]))
        if len(sectors) < n:
            return TropicalHalfspace(a, sectors)


def random_system(rng):
    """Hypersimplex or cornered systems of U(k, d+1), d <= 3, or cornered
    systems of 2-4 rational points with 3-4 coordinates; then one member
    dropped or up to three containing halfspaces added (or neither)."""
    if rng.random() < 0.5:
        d = rng.randint(1, 3)
        k = rng.randint(1, d)
        gens = build_polytope(uniform_matroid(k, d + 1)).generators
        members = list(hypersimplex_halfspaces(k, d) if rng.random() < 0.7
                       else cornered_halfspaces(gens))
    else:
        n = rng.randint(3, 4)
        gens = [TropicalPoint(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n))
                for _ in range(rng.randint(2, 4))]
        members = list(cornered_halfspaces(gens))
    r = rng.random()
    if r < 0.35 and len(members) > 1:
        members.pop(rng.randrange(len(members)))
    elif r < 0.8:
        members += [_containing_halfspace(rng, gens) for _ in range(rng.randint(1, 3))]
    rng.shuffle(members)
    return HalfspaceSystem(members), gens


def as_pairs(system):
    return sorted(
        (tuple(int(c) for c in h.apex.canonical().coords), tuple(sorted(h.sectors)))
        for h in system
    )


ZERO3 = (0, 0, 0)
ZERO4 = (0, 0, 0, 0)

SYSTEM_2_2 = [
    (ZERO3, (1, 2)),
    (ZERO3, (1, 3)),
    (ZERO3, (2, 3)),
    ((0, 0, 1), (3,)),
    ((0, 1, 0), (2,)),
    ((1, 0, 0), (1,)),
]

SYSTEM_2_3 = [
    (ZERO4, (1, 2, 3)),
    (ZERO4, (1, 2, 4)),
    (ZERO4, (1, 3, 4)),
    (ZERO4, (2, 3, 4)),
    ((0, 0, 0, 1), (4,)),
    ((0, 0, 1, 0), (3,)),
    ((0, 1, 0, 0), (2,)),
    ((1, 0, 0, 0), (1,)),
]


class TestSystems:
    def test_frozen_system_2_2(self):
        assert as_pairs(hypersimplex_halfspaces(2, 2)) == SYSTEM_2_2

    def test_frozen_system_2_3(self):
        assert as_pairs(hypersimplex_halfspaces(2, 3)) == SYSTEM_2_3

    def test_system_3_3_shape(self):
        system = hypersimplex_halfspaces(3, 3)
        assert len(system) == 10
        apex_zero = [h for h in system if h.apex == TropicalPoint([0] * 4)]
        assert sorted(tuple(sorted(h.sectors)) for h in apex_zero) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            hypersimplex_halfspaces(0, 3)
        with pytest.raises(ValueError):
            hypersimplex_halfspaces(4, 3)


class TestMinimality:
    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 3)])
    def test_every_member_is_minimal(self, k, d):
        gens = build_polytope(uniform_matroid(k, d + 1)).generators
        for h in hypersimplex_halfspaces(k, d):
            assert is_minimal_halfspace(h, gens)

    def test_non_containing_halfspace_rejected(self):
        gens = build_polytope(uniform_matroid(2, 4)).generators
        h = TropicalHalfspace(TropicalPoint([0] * 4), frozenset({1, 2}))
        with pytest.raises(ContainmentError, match="generator 6"):
            is_minimal_halfspace(h, gens)

    def test_loose_halfspace_is_not_minimal(self):
        gens = build_polytope(uniform_matroid(2, 4)).generators
        h = TropicalHalfspace(TropicalPoint([2, 0, 0, 0]), frozenset({1}))
        assert all(halfspace_contains(h, v) for v in gens)
        assert not is_minimal_halfspace(h, gens)


class TestExteriorVerification:
    @pytest.mark.parametrize(
        "k,d,probes", [(2, 2, 7), (2, 3, 16), (3, 3, 9)]
    )
    def test_full_system_verifies(self, k, d, probes):
        gens = build_polytope(uniform_matroid(k, d + 1)).generators
        report = verify_exterior_description(hypersimplex_halfspaces(k, d), gens)
        assert report.ok
        assert report.probes == probes

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 3)])
    def test_every_member_is_necessary(self, k, d):
        gens = build_polytope(uniform_matroid(k, d + 1)).generators
        system = hypersimplex_halfspaces(k, d)
        for skip in range(len(system)):
            sub = HalfspaceSystem(
                h for i, h in enumerate(system) if i != skip
            )
            assert not verify_exterior_description(sub, gens).ok

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_member_is_necessary_in_the_5_torus(self, k):
        gens = build_polytope(uniform_matroid(k, 6)).generators
        system = hypersimplex_halfspaces(k, 5)
        assert verify_exterior_description(system, gens).ok
        failed = 0
        for skip in range(len(system)):
            sub = HalfspaceSystem(h for i, h in enumerate(system) if i != skip)
            report = verify_exterior_description(sub, gens)
            failed += not report.ok
            for x, in_hull, in_system in report.counterexamples:
                assert in_hull == in_tconv(x, gens) and in_system == sub.contains(x)
        assert failed == len(system) == {2: 12, 3: 21, 4: 26, 5: 21}[k]

    def test_pseudovertex_probes_survive_a_full_lattice(self):
        # at d = 5 the half-integer lattice alone (9^5 points) exceeds the
        # probe budget of the old check; only its pseudovertex probes caught
        # this missing member
        gens = build_polytope(uniform_matroid(2, 6)).generators
        system = hypersimplex_halfspaces(2, 5)
        sub = HalfspaceSystem(
            h for h in system
            if not (h.apex == TropicalPoint([0] * 6) and h.sectors == {1, 2, 3, 4, 5})
        )
        assert len(sub) == len(system) - 1
        report = verify_exterior_description(sub, gens)
        assert not report.ok

    def test_cap_boundary(self):
        gens = build_polytope(uniform_matroid(2, 3)).generators
        system = hypersimplex_halfspaces(2, 2)
        with pytest.raises(CapExceeded, match="exterior check: 9 nodes exceed cap 8"):
            verify_exterior_description(system, gens, cap=8)
        assert verify_exterior_description(system, gens, cap=9).ok

    def test_generator_outside_the_system(self):
        gens = build_polytope(uniform_matroid(2, 4)).generators
        h = TropicalHalfspace(TropicalPoint([0] * 4), frozenset({1, 2}))
        report = verify_exterior_description(HalfspaceSystem([h]), gens)
        assert report.counterexamples[0] == (TropicalPoint([1, 1, 0, 0]), True, False)

    def test_random_systems_agree_with_the_oracles(self):
        rng = random.Random(20101)
        outcomes = set()
        for _ in range(60):
            system, gens = random_system(rng)
            report = verify_exterior_description(system, gens)
            if report.ok:  # the search reached a leaf and tested its columns
                assert report.probes > len(gens)
            assert report.ok == cell_oracle(system, gens)
            if probe_counterexamples(system, gens):
                assert not report.ok
            for x, in_hull, in_system in report.counterexamples:
                assert in_hull == in_tconv(x, gens) and in_system == system.contains(x)
            outcomes.add(report.ok)
        assert outcomes == {True, False}


class TestCornered:
    def test_running_example_corner_system(self, running_polytope):
        system = cornered_halfspaces(running_polytope.generators)
        assert len(system) == 5
        for h in system:
            assert all(
                halfspace_contains(h, v) for v in running_polytope.generators
            )
        assert inequality_str(system.halfspaces[0]) == "x_1 - 1 <= min(x_2, x_3, x_4, x_5)"


class TestRendering:
    def test_corner_and_zero_apex_forms(self):
        system = hypersimplex_halfspaces(2, 2)
        assert [inequality_str(h) for h in system] == [
            "x_1 - 1 <= min(x_2, x_3)",
            "x_2 - 1 <= min(x_1, x_3)",
            "x_3 - 1 <= min(x_1, x_2)",
            "min(x_1, x_2) <= x_3",
            "min(x_1, x_3) <= x_2",
            "min(x_2, x_3) <= x_1",
        ]
