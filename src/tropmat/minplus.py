"""Exact min-plus geometry kernel.

Points live in the tropical torus: rational vectors of length d+1 taken
modulo adding a constant to every coordinate.  Tropical addition is min and
tropical multiplication is +.  All arithmetic is exact; ties between minima
carry the combinatorial content (types), so floats are rejected outright.

Coordinates are stored as Fractions.  The predicates (fine_type, in_tconv,
halfspace_contains) compare exact integers instead: each point carries one
cached integer form (ints, den) with coords[i] == ints[i] / den and den the
lcm of the coordinate denominators, computed on first use.  Comparing
v_k - x_k across k is the same as comparing vs[k]*dx - xs[k]*dv, because
the common factor dx*dv is positive, so every argmin and every tie is kept.

Indexing is 1-based throughout the public interface: coordinates are
1..d+1 and generators are 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """Operands live in tropical tori of different dimension."""


def to_rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction; reject floats
    and zero denominators."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"exact rational required, got {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def rational_to_json(q: Fraction):
    """Ints stay ints, everything else becomes a "p/q" string."""
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, init=False, eq=False)
class TropicalPoint:
    """A point of the tropical torus, stored as one representative vector.

    Two points are equal when their representatives differ by a constant
    vector; equality and hashing go through canonical coordinates.
    """

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable) -> None:
        cs = tuple(to_rational(c) for c in coords)
        if not cs:
            raise ValueError("a tropical point needs at least one coordinate")
        object.__setattr__(self, "coords", cs)

    @property
    def n_coords(self) -> int:
        return len(self.coords)

    @cached_property
    def int_form(self) -> tuple[tuple[int, ...], int]:
        """(ints, den) with coords[i] == ints[i] / den, den the lcm of the
        coordinate denominators (so den > 0); computed once, on first use."""
        den = lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (den // c.denominator) for c in self.coords), den

    def canonical(self) -> "TropicalPoint":
        """Representative with minimum coordinate zero (all entries >= 0)."""
        m = min(self.coords)
        return TropicalPoint(c - m for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalPoint):
            return NotImplemented
        return self.canonical().coords == other.canonical().coords

    def __hash__(self) -> int:
        return hash(self.canonical().coords)

    def __repr__(self) -> str:
        return f"TropicalPoint({[str(c) for c in self.coords]})"

    def to_json(self) -> list:
        return [rational_to_json(c) for c in self.coords]


def _same_torus(points: Iterable[TropicalPoint]) -> int:
    it = iter(points)
    try:
        n = next(it).n_coords
    except StopIteration:
        raise ValueError("at least one point required") from None
    for p in it:
        if p.n_coords != n:
            raise DimensionMismatch("points live in different tori")
    return n


def _components(sets):
    """Merge the sets that share an element, transitively.  Only & and | are
    used, so frozensets and int bitmasks both work; an empty set stays a
    component of its own."""
    comps = []
    for s in sets:
        rest = []
        for c in comps:
            if c & s:
                s = s | c
            else:
                rest.append(c)
        comps = rest + [s]
    return comps


@dataclass(frozen=True, init=False)
class FineType:
    """Fine type of a point: entry k lists the generators whose sector k
    contains the point (equivalently, whose min is attained at coordinate k).
    """

    entries: tuple[frozenset[int], ...]

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        object.__setattr__(
            self, "entries", tuple(frozenset(e) for e in entries)
        )
        if not self.entries:
            raise ValueError("a fine type needs at least one entry")

    @property
    def n_coords(self) -> int:
        return len(self.entries)

    def coarse(self) -> tuple[int, ...]:
        """Coarse type: entrywise cardinalities."""
        return tuple(len(e) for e in self.entries)

    def union(self) -> frozenset[int]:
        return frozenset().union(*self.entries)

    def is_bounded(self) -> bool:
        """Cells of this type are bounded exactly when no entry is empty."""
        return all(self.entries)

    def dimension(self) -> int:
        """Components of the coordinates, joined where their entries share a
        generator (Develin & Sturmfels 2004), less one."""
        return len(_components(self.entries)) - 1

    def contains(self, other: "FineType") -> bool:
        """Entrywise superset; closed cells nest opposite to type containment."""
        if self.n_coords != other.n_coords:
            raise DimensionMismatch("types have different lengths")
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Deterministic sortable form."""
        return tuple(tuple(sorted(e)) for e in self.entries)

    def to_json(self) -> list[list[int]]:
        return [sorted(e) for e in self.entries]


def fine_type(x: TropicalPoint, generators: Sequence[TropicalPoint]) -> FineType:
    """Fine type of x with respect to the generators.

    Generator i belongs to entry k iff v_{i,k} - x_k <= v_{i,j} - x_j for
    every coordinate j, compared on the integer forms (module docstring).
    """
    if not generators:
        raise ValueError("fine_type needs at least one generator")
    n = _same_torus([x, *generators])
    xs, dx = x.int_form
    entries: list[set[int]] = [set() for _ in range(n)]
    for idx, v in enumerate(generators, start=1):
        vs, dv = v.int_form
        diffs = [vk * dx - xk * dv for vk, xk in zip(vs, xs)]
        m = min(diffs)
        for k, dk in enumerate(diffs):
            if dk == m:
                entries[k].add(idx)
    return FineType(entries)


def in_tconv(x: TropicalPoint, generators: Sequence[TropicalPoint]) -> bool:
    """Membership in the tropical convex hull: no empty fine type entry."""
    return fine_type(x, generators).is_bounded()


@dataclass(frozen=True, init=False)
class TropicalHalfspace:
    """Tropical halfspace with the given apex and sector set I.

    Contains x iff min over i in I of (a_i + x_i) is at most the min over
    the complement, where a = -apex is the defining linear form.  I must be
    a nonempty proper subset of the coordinates.
    """

    apex: TropicalPoint
    sectors: frozenset[int]

    def __init__(self, apex: TropicalPoint, sectors: Iterable[int]) -> None:
        sec = frozenset(int(s) for s in sectors)
        n = apex.n_coords
        if not sec or len(sec) >= n:
            raise ValueError("sector set must be a nonempty proper subset")
        if any(s < 1 or s > n for s in sec):
            raise ValueError(f"sector indices must lie in 1..{n}")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "sectors", sec)

    def to_json(self) -> dict:
        return {"apex": self.apex.to_json(), "sectors": sorted(self.sectors)}


def halfspace_contains(h: TropicalHalfspace, x: TropicalPoint) -> bool:
    """min over I of (x_i - apex_i) <= min over the rest, compared on the
    integer forms scaled by the positive da*dx (module docstring)."""
    if h.apex.n_coords != x.n_coords:
        raise DimensionMismatch("halfspace and point live in different tori")
    as_, da = h.apex.int_form
    xs, dx = x.int_form
    terms = [xi * da - ai * dx for ai, xi in zip(as_, xs)]
    lhs = min(terms[i - 1] for i in h.sectors)
    rhs = min(t for j, t in enumerate(terms, start=1) if j not in h.sectors)
    return lhs <= rhs


def corner_point(generators: Sequence[TropicalPoint], i: int) -> TropicalPoint:
    """The i-th corner of the generators: min over g of (g - g_i * ones),
    in canonical coordinates."""
    n = _same_torus(generators)
    if not 1 <= i <= n:
        raise ValueError(f"corner index {i} out of range 1..{n}")
    return TropicalPoint(
        min(g.coords[j] - g.coords[i - 1] for g in generators) for j in range(n)
    ).canonical()
