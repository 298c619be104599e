"""Tropical halfspace descriptions of matroid polytopes.

A halfspace system is an exterior description candidate: the polytope
should be exactly the set of points contained in every member.  For the
hypersimplex the description is the d+1 cornered halfspaces plus, for
rank at least two, all apex-zero halfspaces whose sector sets have size
d-k+2.  Minimality of a single halfspace is decided by the three
combinatorial criteria on the fine type of its apex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice, product
from typing import Iterable, Sequence

from .matroids import uniform_matroid
from .minplus import (
    FineType,
    TropicalHalfspace,
    TropicalPoint,
    corner_point,
    fine_type,
    halfspace_contains,
    in_tconv,
    rational_to_json,
)
from .polytopes import build_polytope, pseudovertices

DEFAULT_PROBE_BUDGET = 20000


class ContainmentError(ValueError):
    """The halfspace fails to contain every generator it should bound."""


@dataclass(frozen=True, init=False)
class HalfspaceSystem:
    halfspaces: tuple[TropicalHalfspace, ...]

    def __init__(self, halfspaces: Iterable[TropicalHalfspace]) -> None:
        object.__setattr__(self, "halfspaces", tuple(halfspaces))
        if not self.halfspaces:
            raise ValueError("a halfspace system needs at least one member")

    def __iter__(self):
        return iter(self.halfspaces)

    def __len__(self) -> int:
        return len(self.halfspaces)

    def __getitem__(self, i: int) -> TropicalHalfspace:
        return self.halfspaces[i]

    def contains(self, x: TropicalPoint) -> bool:
        return all(halfspace_contains(h, x) for h in self.halfspaces)

    def to_json_obj(self) -> list:
        return [h.to_json() for h in self.halfspaces]

    @classmethod
    def from_json_obj(cls, arr: Iterable[dict]) -> "HalfspaceSystem":
        return cls(TropicalHalfspace.from_json(o) for o in arr)


def is_minimal_halfspace(h: TropicalHalfspace, generators: Sequence[TropicalPoint]) -> bool:
    """Apex type criteria for minimality of a halfspace over the generators.

    With T the fine type of the apex and I the sector set, the halfspace is
    minimal iff (i) the entries over I cover every generator, (ii) every
    entry outside I meets some entry over I, and (iii) each i in I has a
    witness j outside I with T_i meet T_j not inside the union of the other
    I entries.  Raises ContainmentError when a generator escapes h.
    """
    for idx, v in enumerate(generators, start=1):
        if not halfspace_contains(h, v):
            raise ContainmentError(f"generator {idx} is not contained in the halfspace")
    t = fine_type(h.apex, generators)
    sectors = sorted(h.sectors)
    outside = [j for j in range(1, t.n_coords + 1) if j not in h.sectors]
    all_gens = frozenset(range(1, len(generators) + 1))
    covered = frozenset().union(*(t.entries[i - 1] for i in sectors))
    if covered != all_gens:
        return False
    for j in outside:
        if not any(t.entries[i - 1] & t.entries[j - 1] for i in sectors):
            return False
    for i in sectors:
        rest = frozenset().union(
            *(t.entries[k - 1] for k in sectors if k != i)
        ) if len(sectors) > 1 else frozenset()
        if not any(
            (t.entries[i - 1] & t.entries[j - 1]) - rest for j in outside
        ):
            return False
    return True


def cornered_halfspaces(generators: Sequence[TropicalPoint]) -> HalfspaceSystem:
    """One halfspace per coordinate, with the corner as apex and sector {i}."""
    n = generators[0].n_coords
    return HalfspaceSystem(
        TropicalHalfspace(corner_point(generators, i).canonical(), {i})
        for i in range(1, n + 1)
    )


def hypersimplex_halfspaces(k: int, d: int) -> HalfspaceSystem:
    """Exterior description of the rank k hypersimplex in the d-torus.

    The corners always suffice for rank one; from rank two on, the apex
    zero halfspaces with sector sets of size d-k+2 are added.
    """
    if not 1 <= k <= d:
        raise ValueError("hypersimplex requires 1 <= k <= d")
    gens = build_polytope(uniform_matroid(k, d + 1)).generators
    members = list(cornered_halfspaces(gens))
    if k >= 2:
        origin = TropicalPoint.origin(d + 1)
        members += [
            TropicalHalfspace(origin, c)
            for c in combinations(range(1, d + 2), d - k + 2)
        ]
    return HalfspaceSystem(members)


@dataclass(frozen=True)
class ExteriorReport:
    """Result of probing a halfspace system against the hull membership test."""

    probes: int
    counterexamples: tuple[tuple[TropicalPoint, bool, bool], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "probes": self.probes,
            "counterexamples": [
                {"point": pt.to_json(), "in_hull": ih, "in_system": isys}
                for pt, ih, isys in self.counterexamples
            ],
        }


def _half_integer_lattice(d: int):
    steps = [Fraction(v, 2) for v in range(-4, 5)]
    for chart in product(steps, repeat=d):
        yield TropicalPoint.from_c0(chart)


def _pseudovertex_probes(generators: Sequence[TropicalPoint]):
    """Pseudovertices of the generated polytope, nudged by every unit vector.

    Only applies when the generators are the canonical 0/1 vectors of a
    matroid; otherwise no extra probes are produced.
    """
    from .matroids import matroid_from_bases, MatroidError

    n = generators[0].n_coords
    zero_sets = []
    for g in generators:
        c = g.canonical()
        zs = frozenset(i + 1 for i, v in enumerate(c.coords) if v == 0)
        if any(v not in (0, 1) for v in c.coords):
            return
        zero_sets.append(zs)
    if len({len(z) for z in zero_sets}) != 1:
        return
    try:
        m = matroid_from_bases(n, zero_sets)
    except MatroidError:
        return
    p = build_polytope(m)
    for pv in pseudovertices(p):
        yield pv.point
        for i in range(n):
            delta = [0] * n
            delta[i] = 1
            yield pv.point.translate(delta)
            delta[i] = -1
            yield pv.point.translate(delta)


def verify_exterior_description(
    system: HalfspaceSystem,
    generators: Sequence[TropicalPoint],
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> ExteriorReport:
    """Probe the claim: a point lies in the hull iff it lies in the system.

    Probes are the pseudovertices of the polytope perturbed along every
    unit direction, then every half-integer chart point of [-2, 2]^d, at
    most probe_budget points in total.  The pseudovertex probes come first
    because they sit where the hull and a wrong system part; the lattice
    alone has 9^d points and would fill the budget from d = 5 on.  A sound
    description produces no counterexamples.  A budget below 1 is rejected
    with ValueError: a check that probes nothing verifies nothing.
    """
    if probe_budget < 1:
        raise ValueError(f"probe budget must be at least 1, got {probe_budget}")
    d = generators[0].n_coords - 1
    count = 0
    bad = []
    probes = chain(_pseudovertex_probes(generators), _half_integer_lattice(d))
    for x in islice(probes, probe_budget):
        count += 1
        inside = in_tconv(x, generators)
        in_sys = system.contains(x)
        if inside != in_sys:
            bad.append((x, inside, in_sys))
    return ExteriorReport(count, tuple(bad))


def _term(coef: Fraction, i: int) -> str:
    if coef == 0:
        return f"x_{i}"
    if coef > 0:
        return f"x_{i} + {rational_to_json(coef)}"
    return f"x_{i} - {rational_to_json(-coef)}"


def inequality_str(h: TropicalHalfspace) -> str:
    """Render as a min comparison: min over sectors <= min over the rest."""
    apex = h.apex.canonical()
    form = [-c for c in apex.coords]

    def side(indices: list[int]) -> str:
        terms = [_term(form[i - 1], i) for i in indices]
        return terms[0] if len(terms) == 1 else "min(" + ", ".join(terms) + ")"

    inside = sorted(h.sectors)
    outside = [j for j in range(1, apex.n_coords + 1) if j not in h.sectors]
    return f"{side(inside)} <= {side(outside)}"
