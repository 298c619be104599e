import pytest

from tropmat import (
    ContainmentError,
    HalfspaceSystem,
    TropicalHalfspace,
    TropicalPoint,
    build_polytope,
    cornered_halfspaces,
    halfspace_contains,
    hypersimplex_halfspaces,
    inequality_str,
    is_minimal_halfspace,
    uniform_matroid,
    verify_exterior_description,
)
from tropmat.halfspaces import DEFAULT_PROBE_BUDGET


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
        apex_zero = [h for h in system if h.apex == TropicalPoint.origin(4)]
        assert sorted(tuple(sorted(h.sectors)) for h in apex_zero) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            hypersimplex_halfspaces(0, 3)
        with pytest.raises(ValueError):
            hypersimplex_halfspaces(4, 3)

    def test_json_round_trip(self):
        system = hypersimplex_halfspaces(2, 3)
        assert HalfspaceSystem.from_json_obj(system.to_json_obj()) == system


class TestMinimality:
    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 3)])
    def test_every_member_is_minimal(self, k, d):
        gens = build_polytope(uniform_matroid(k, d + 1)).generators
        for h in hypersimplex_halfspaces(k, d):
            assert is_minimal_halfspace(h, gens)

    def test_non_containing_halfspace_rejected(self):
        gens = build_polytope(uniform_matroid(2, 4)).generators
        h = TropicalHalfspace(TropicalPoint.origin(4), frozenset({1, 2}))
        with pytest.raises(ContainmentError, match="generator 6"):
            is_minimal_halfspace(h, gens)

    def test_loose_halfspace_is_not_minimal(self):
        gens = build_polytope(uniform_matroid(2, 4)).generators
        h = TropicalHalfspace(TropicalPoint.of(2, 0, 0, 0), frozenset({1}))
        assert all(halfspace_contains(h, v) for v in gens)
        assert not is_minimal_halfspace(h, gens)


class TestExteriorVerification:
    @pytest.mark.parametrize(
        "k,d,probes", [(2, 2, 109), (2, 3, 828), (3, 3, 774)]
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

    def test_pseudovertex_probes_survive_a_full_lattice(self):
        # at d = 5 the half-integer lattice alone (9^5 points) exceeds the
        # budget; only the pseudovertex probes catch this missing member
        gens = build_polytope(uniform_matroid(2, 6)).generators
        system = hypersimplex_halfspaces(2, 5)
        sub = HalfspaceSystem(
            h for h in system
            if not (h.apex == TropicalPoint.origin(6) and h.sectors == {1, 2, 3, 4, 5})
        )
        assert len(sub) == len(system) - 1
        report = verify_exterior_description(sub, gens)
        assert not report.ok
        assert report.probes == DEFAULT_PROBE_BUDGET

    def test_probe_budget_is_respected(self):
        gens = build_polytope(uniform_matroid(2, 3)).generators
        report = verify_exterior_description(
            hypersimplex_halfspaces(2, 2), gens, probe_budget=10
        )
        assert report.probes <= 10

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected(self, budget):
        gens = build_polytope(uniform_matroid(2, 3)).generators
        with pytest.raises(ValueError, match="probe budget"):
            verify_exterior_description(hypersimplex_halfspaces(2, 2), gens, probe_budget=budget)


class TestCornered:
    def test_running_example_corner_system(self, running_polytope):
        system = cornered_halfspaces(running_polytope.generators)
        assert len(system) == 5
        for h in system:
            assert all(
                halfspace_contains(h, v) for v in running_polytope.generators
            )
        assert inequality_str(system[0]) == "x_1 - 1 <= min(x_2, x_3, x_4, x_5)"


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
