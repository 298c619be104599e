"""Tropical halfspace descriptions of matroid polytopes.

A halfspace system is an exterior description candidate: the polytope
should be exactly the set of points contained in every member.  For the
hypersimplex the description is the d+1 cornered halfspaces plus, for
rank at least two, all apex-zero halfspaces whose sector sets have size
d-k+2.  Minimality of a single halfspace is decided by the three
combinatorial criteria on the fine type of its apex.

verify_exterior_description decides a system exactly.  With P the hull of
the generators: P lies in every member iff every generator does (closed
tropical halfspaces are tropically convex).  H(a, I) is the union over k in
I of the closed sectors x_k - x_j <= a_k - a_j (all j), so the system's
intersection is the union, over one sector choice per member, of
difference systems Q.  It is connected and contains P, and the box
x_v - x_u <= R, with R one more than the largest coordinate spread of a
generator, holds P strictly inside, so the intersection lies in P iff
every Q meet the box does.  That is a polytrope, the min-plus hull of the
columns of its shortest path matrix (Joswig & Kulas 2010), so it lies in
the min-plus convex P iff every column point passes in_tconv.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .cells import DEFAULT_CAP, CapExceeded, _add_edges, _closure, _scaled_rows
from .matroids import uniform_matroid
from .minplus import (
    TropicalHalfspace,
    TropicalPoint,
    corner_point,
    fine_type,
    halfspace_contains,
    in_tconv,
    rational_to_json,
)
from .polytopes import build_polytope


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

    def contains(self, x: TropicalPoint) -> bool:
        return all(halfspace_contains(h, x) for h in self.halfspaces)

    def to_json_obj(self) -> list:
        return [h.to_json() for h in self.halfspaces]


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
        rest = frozenset().union(*(t.entries[k - 1] for k in sectors if k != i))
        if not any(
            (t.entries[i - 1] & t.entries[j - 1]) - rest for j in outside
        ):
            return False
    return True


def cornered_halfspaces(generators: Sequence[TropicalPoint]) -> HalfspaceSystem:
    """One halfspace per coordinate, with the corner as apex and sector {i}."""
    n = generators[0].n_coords
    return HalfspaceSystem(
        TropicalHalfspace(corner_point(generators, i), {i})
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
        origin = TropicalPoint([0] * (d + 1))
        members += [
            TropicalHalfspace(origin, c)
            for c in combinations(range(1, d + 2), d - k + 2)
        ]
    return HalfspaceSystem(members)


@dataclass(frozen=True)
class ExteriorReport:
    """Result of the exact exterior check: the number of points tested
    against both memberships, and the points where they differ."""

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


def verify_exterior_description(
    system: HalfspaceSystem,
    generators: Sequence[TropicalPoint],
    cap: int = DEFAULT_CAP,
) -> ExteriorReport:
    """Decide exactly whether the hull P of the generators is the set of
    points in every member of the system (module docstring).

    Counterexamples are generators outside the system, (v, True, False),
    and column points of a sector choice outside P, (x, False, True).
    ExteriorReport.probes counts the generators and the distinct column
    points tested.  Raises CapExceeded once the search has visited more
    than cap nodes (a node is a sector-choice prefix that survived
    pruning, the empty prefix included).
    """
    gens = tuple(generators)
    bad = [(v, True, False) for v in gens if not system.contains(v)]
    rows, den = _scaled_rows(gens + tuple(h.apex for h in system))
    n = len(rows[0])
    reach = 1 + max(max(g) - min(g) for g in rows[:len(gens)])
    # sector k of apex a is x_k - x_j <= a_k - a_j for every j; the pair
    # (k, those bounds) names it whatever representative a has
    members = [[(k, tuple(a[k] - c for c in a)) for k in sorted(s - 1 for s in h.sectors)]
               for h, a in zip(system, rows[len(gens):])]
    seen: set[frozenset] = set()
    tested: set[tuple[int, ...]] = set()
    nodes = 0

    def descend(m: int, dist: list, chosen: frozenset) -> None:
        # dist is stored transposed: dist[u][v] bounds x_u - x_v
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"exterior check: {nodes} nodes exceed cap {cap}")
        # a member with a sector around the whole cell leaves it unchanged;
        # every other choice would only shrink it
        while m < len(members) and any(
                all(c <= w for c, w in zip(dist[k], ws)) for k, ws in members[m]):
            m += 1
        if m == len(members):
            for col in zip(*dist):
                low = min(col)
                col = tuple(c - low for c in col)
                if col in tested:
                    continue
                tested.add(col)
                x = TropicalPoint(Fraction(c, den) for c in col)
                if not system.contains(x):
                    raise AssertionError("a column point of a sector choice escapes the system")
                if not in_tconv(x, gens):
                    bad.append((x, False, True))
            return
        for k, ws in members[m]:
            key = chosen | {(k, ws)}
            # sound only because the skip loop ran first: a member with an
            # already chosen sector contains the cell and was skipped there,
            # so key never equals chosen, which is in seen
            if key in seen:
                continue
            seen.add(key)
            child = _add_edges(dist, k, ws)
            if child is not None:
                descend(m + 1, child, key)

    descend(0, _closure([[None if u == v else reach for v in range(n)] for u in range(n)]),
            frozenset())
    return ExteriorReport(len(gens) + len(tested), tuple(bad))


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
