import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropmat import (
    MonomialIdeal,
    build_polytope,
    divides,
    enumerate_maximal_cells,
    ideal_generators,
    is_minimal_generating,
    monomial_str,
    uniform_matroid,
)

REFERENCE = Path(__file__).parent / "data" / "running_example_ideal.json"


def member(t, ideal):
    """x^t lies in the ideal iff some generator divides it."""
    return any(divides(g, t) for g in ideal.generators)


@pytest.fixture(scope="session")
def running_ideal(running_matroid):
    return ideal_generators(running_matroid)


class TestGenerators:
    def test_matches_the_transcribed_reference(self, running_ideal):
        obj = json.loads(REFERENCE.read_text())
        expected = sorted(tuple(g) for g in obj["generators"])
        assert obj["n_vars"] == 5
        assert sorted(running_ideal.generators) == expected
        assert len(running_ideal.generators) == 73

    def test_minimal(self, running_ideal):
        assert is_minimal_generating(running_ideal)

    def test_generators_match_the_formula_types(self, running_matroid, running_ideal):
        from tropmat import maximal_cell_coarse_types

        formula = {t for _, t in maximal_cell_coarse_types(running_matroid)}
        assert set(running_ideal.generators) == formula

    def test_simplex_ideal(self):
        ideal = ideal_generators(uniform_matroid(1, 2))
        assert set(ideal.generators) == {(2, 0), (1, 1), (0, 2)}
        assert is_minimal_generating(ideal)


class TestMembership:
    def test_frozen_probes(self, running_ideal):
        assert member((6, 2, 0, 0, 0), running_ideal)
        assert member((7, 3, 1, 1, 1), running_ideal)
        assert not member((1, 1, 1, 1, 1), running_ideal)

    def test_divides(self):
        assert divides((1, 0, 2), (1, 1, 2))
        assert not divides((1, 0, 2), (0, 1, 3))

    def test_every_maximal_cell_type_is_a_member(self, u24_polytope):
        ideal = ideal_generators(u24_polytope.matroid)
        for rec in enumerate_maximal_cells(u24_polytope):
            assert member(rec.coarse, ideal)

    @given(
        probe=st.lists(st.integers(min_value=0, max_value=9), min_size=5, max_size=5),
        bump=st.integers(min_value=0, max_value=4),
    )
    def test_membership_is_monotone(self, running_ideal, probe, bump):
        t = tuple(probe)
        if member(t, running_ideal):
            bigger = tuple(e + (1 if i == bump else 0) for i, e in enumerate(t))
            assert member(bigger, running_ideal)
        else:
            smaller = tuple(max(0, e - (1 if i == bump else 0)) for i, e in enumerate(t))
            assert not member(smaller, running_ideal)


class TestRendering:
    def test_one_based(self):
        assert monomial_str((6, 2, 0, 0, 0)) == "x_1^6*x_2^2"
        assert monomial_str((0, 1, 2)) == "x_2*x_3^2"
        assert monomial_str((0, 0, 0)) == "1"

    def test_zero_based(self):
        assert monomial_str((6, 2, 0, 0, 0), zero_based=True) == "x_0^6*x_1^2"

    def test_ideal_text(self):
        ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
        assert [monomial_str(g) for g in ideal.generators] == [
            "x_2^2", "x_1*x_2", "x_1^2"
        ]


class TestValidation:
    def test_bad_generators_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal(3, [(1, 2)])
        with pytest.raises(ValueError):
            MonomialIdeal(2, [(1, -1)])
