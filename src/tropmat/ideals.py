"""Monomial ideal generated by the coarse types of the maximal cells.

A coarse type (t_1, ..., t_{d+1}) is read as the exponent vector of a
monomial in d+1 variables.  The generators below come from the closed form
coarse type formula.  Each maximal cell's coarse type sums to the number of
bases, so the generators share one degree, and distinct monomials of one
degree never divide each other: is_minimal_generating settles that case in
one pass over the degrees and falls back to testing every ordered pair of
generators only when the degrees differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .matroids import GroundMatroid
from .cells import maximal_cell_coarse_types

Exponents = tuple[int, ...]


@dataclass(frozen=True, init=False)
class MonomialIdeal:
    """A monomial ideal listed through its (deduplicated, sorted) generators."""

    n_vars: int
    generators: tuple[Exponents, ...]

    def __init__(self, n_vars: int, generators: Iterable[Iterable[int]]) -> None:
        gens = sorted({tuple(int(e) for e in g) for g in generators})
        for g in gens:
            if len(g) != n_vars:
                raise ValueError(f"exponent vector {g} does not have {n_vars} entries")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in {g}")
        object.__setattr__(self, "n_vars", int(n_vars))
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def n_generators(self) -> int:
        return len(self.generators)


def divides(a: Exponents, b: Exponents) -> bool:
    if len(a) != len(b):
        raise ValueError("exponent vectors of different lengths")
    return all(x <= y for x, y in zip(a, b))


def ideal_generators(m: GroundMatroid) -> MonomialIdeal:
    """One monomial per maximal cell coarse type from the formula."""
    types = maximal_cell_coarse_types(m)
    return MonomialIdeal(m.ground_size, (t for _, t in types))


def is_minimal_generating(ideal: MonomialIdeal) -> bool:
    """No generator strictly divides another.

    Generators are distinct, so when they all have one degree none divides
    another; otherwise every ordered pair is tested.
    """
    gens = ideal.generators
    if len({sum(g) for g in gens}) <= 1:
        return True
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and divides(a, b):
                return False
    return True


def monomial_str(exponents: Sequence[int], zero_based: bool = False) -> str:
    shift = 0 if zero_based else 1
    parts = [
        f"x_{i + shift}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exponents)
        if e > 0
    ]
    return "*".join(parts) if parts else "1"
