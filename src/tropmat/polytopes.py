"""Tropical matroid polytopes.

The polytope of a matroid is the tropical convex hull of one 0/1 generator
per basis: coordinate i of generator v_B is 0 for i in B and 1 otherwise.
The combinatorics below (origin type, corners, pseudovertices, maximal
bounded cells) all reduce to basis bookkeeping and are computed by closed
formulas; the brute force enumeration lives in cells.py and is used to
cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .matroids import GroundMatroid, basis_avoiding_prefixes
from .minplus import FineType, TropicalPoint


@dataclass(frozen=True)
class PolytopeModel:
    """A matroid together with its generators and the type of the origin."""

    matroid: GroundMatroid
    generators: tuple[TropicalPoint, ...]
    origin_type: FineType

    @property
    def n_coords(self) -> int:
        return self.matroid.ground_size


@dataclass(frozen=True)
class PseudoVertex:
    """A 0-cell of the complex; support is the basis union J defining it."""

    support: frozenset[int]
    point: TropicalPoint
    fine_type: FineType


@dataclass(frozen=True)
class BoundedCell:
    """A maximal bounded cell, recorded through its defining sequence.

    The sequence orders the complement of the basis, and the cell is the
    tropical convex hull of its chain.
    """

    sequence: tuple[int, ...]
    basis: frozenset[int]
    basis_index: int
    interior_type: FineType

    @property
    def chain(self) -> tuple[tuple[int, ...], ...]:
        """The pseudovertices 0, e_{i_1}, ..., e_{i_1..i_m} as 0/1 vectors,
        one on each prefix of the sequence; the last one is the generator
        of the basis."""
        n = self.interior_type.n_coords
        return tuple(
            tuple(1 if i in self.sequence[:r] else 0 for i in range(1, n + 1))
            for r in range(len(self.sequence) + 1)
        )


def build_polytope(m: GroundMatroid) -> PolytopeModel:
    """Generators and origin type of the tropical polytope of a matroid.

    Entry i of the origin type is the set of bases containing i.
    """
    n = m.ground_size
    gens = tuple(_support_point(n, b) for b in m.bases)
    origin = FineType(
        [{j for j, b in enumerate(m.bases, start=1) if i in b}
         for i in range(1, n + 1)]
    )
    return PolytopeModel(m, gens, origin)


def _support_point(n: int, support: frozenset[int]) -> TropicalPoint:
    """Canonical point of -e_J: zero on J, one on the complement."""
    return TropicalPoint(0 if i in support else 1 for i in range(1, n + 1))


def _union_type(p: PolytopeModel, support: frozenset[int]) -> FineType:
    """Fine type of -e_J, by the closed formula.

    v_B - (-e_J) is least on B and off J when B lies inside J, and on B - J
    otherwise.  So with T0 the origin type and I the indices of the bases
    inside J, entry j is T0_j & I for j in J and T0_j | I otherwise.
    """
    inside = frozenset(i for i, b in enumerate(p.matroid.bases, start=1) if b <= support)
    return FineType(e & inside if j in support else e | inside
                    for j, e in enumerate(p.origin_type.entries, start=1))


def pseudovertices(p: PolytopeModel) -> list[PseudoVertex]:
    """All 0-cells of the complex: points -e_J for J a union of bases.

    With no loop, the unions of bases are exactly the sets J that contain a
    basis: an element e of J outside a basis B inside J is not a loop, so
    it exchanges into B, and B - b + e is a basis inside J.  The type of
    -e_J is zero dimensional when its coordinates are connected through
    shared bases, and that holds for every such J but one.  For J other
    than the ground set, every coordinate outside J holds all the bases
    inside J, and every coordinate of J holds one of them.  For the ground
    set the type is the origin type, which is connected from rank two on;
    at rank one the origin lies inside the tropical simplex, and the
    dimension test drops it.  Supports run in (|J|, lex J) order.
    """
    n = p.n_coords
    out = []
    for size in range(p.matroid.rank, n + 1):
        for support in map(frozenset, combinations(range(1, n + 1), size)):
            if any(b <= support for b in p.matroid.bases):
                ft = _union_type(p, support)
                if ft.dimension() == 0:
                    out.append(PseudoVertex(support, _support_point(n, support), ft))
    return out


def maximal_bounded_cells(p: PolytopeModel) -> list[BoundedCell]:
    """One maximal bounded cell per complete valid sequence, up to
    swapping adjacent parallel elements.

    A complete sequence orders the complement of a basis B; the cell is the
    tropical convex hull of the chain 0, e_{i_1}, ..., e_{i_1..i_m} ending at
    the generator of B.  Its interior type peels the origin type along the
    sequence: entry i_l keeps the generators of T0_{i_l} that no earlier
    i_1..i_{l-1} took.  Every coordinate of B keeps only the index of B,
    because every other basis meets the sequence.

    Swapping two adjacent parallel elements of the sequence gives the same
    type, so only sequences whose adjacent parallel pairs increase are
    kept.  At rank one the basis {b} can also trade places with the last
    element: both types put each basis at its own element.  So there the
    last element must be smaller than b, and the single cell left is the
    tropical simplex.

    The sequences come from one walk over their prefixes in lexicographic
    preorder, so the peeled generators of a prefix are computed once and
    shared by every cell whose sequence extends it.  The chain is read off
    the sequence (BoundedCell.chain), so no point is built here.
    """
    m = p.matroid
    n = p.n_coords
    t0 = p.origin_type.entries
    par = m.parallel
    index = {b: i for i, b in enumerate(m.bases, start=1)}
    ground = frozenset(range(1, n + 1))
    # along the current sequence: eaten[k] holds the generators its first k
    # coordinates eat, and peeled[k] the entry of coordinate k + 1 (t0
    # minus what the shorter prefixes ate)
    eaten = [frozenset()]
    peeled: list[frozenset[int]] = []
    cells = []
    for seq, _, _ in basis_avoiding_prefixes(m, n - m.rank):
        r = len(seq)
        if r:
            del eaten[r:], peeled[r - 1:]
            gens = t0[seq[-1] - 1]
            peeled.append(gens - eaten[-1])
            eaten.append(eaten[-1] | gens)
        if r < n - m.rank:
            continue
        # the walk orders the parallel pairs from position 2 on; the first
        # pair is ordered here, and so is the last element against the
        # basis at rank one, where every two elements are parallel
        basis = ground - set(seq)
        if r >= 2 and seq[1] < seq[0] and par[seq[0]] >> seq[1] & 1:
            continue
        if m.rank == 1 and seq[-1] > min(basis):
            continue
        own = frozenset((index[basis],))
        entries = [own] * n
        for i, entry in zip(seq, peeled):
            entries[i - 1] = entry
        cells.append(BoundedCell(seq, basis, index[basis], FineType(entries)))
    return cells


def pseudovertex_label(p: PolytopeModel, pv: PseudoVertex) -> str:
    """Short node name: 0 for the origin, v<i> for generators, e_<...> else."""
    n = p.n_coords
    comp = sorted(set(range(1, n + 1)) - pv.support)
    if not comp:
        return "0"
    if pv.support in p.matroid.bases:
        return f"v{p.matroid.basis_index(pv.support)}"
    return "e_" + "_".join(str(i) for i in comp)


def skeleton_dot(p: PolytopeModel, records: Iterable) -> str:
    """Graphviz source for the 1-skeleton of the bounded subcomplex.

    Nodes are the pseudovertices; records is the full cell enumeration and
    contributes one edge per bounded one dimensional cell, joining the two
    pseudovertices whose types contain the cell type.
    """
    pvs = pseudovertices(p)
    labels = {pv: pseudovertex_label(p, pv) for pv in pvs}
    lines = ["graph skeleton {"]
    for pv in pvs:
        lines.append(f'  "{labels[pv]}";')
    edges = []
    for rec in records:
        if rec.dim != 1 or not rec.bounded:
            continue
        ends = [pv for pv in pvs if pv.fine_type.contains(rec.fine_type)]
        if len(ends) != 2:
            raise AssertionError(
                f"bounded segment with {len(ends)} pseudovertex endpoints"
            )
        a, b = sorted(labels[pv] for pv in ends)
        edges.append((a, b))
    for a, b in sorted(edges):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
