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

    @property
    def n_generators(self) -> int:
        return len(self.generators)


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
    gens = tuple(
        TropicalPoint(0 if i in b else 1 for i in range(1, n + 1))
        for b in m.bases
    )
    origin = FineType(
        [{j for j, b in enumerate(m.bases, start=1) if i in b}
         for i in range(1, n + 1)]
    )
    return PolytopeModel(m, gens, origin)


def _support_point(n: int, support: frozenset[int]) -> TropicalPoint:
    """Canonical point of -e_J: zero on J, one on the complement."""
    return TropicalPoint(0 if i in support else 1 for i in range(1, n + 1))


def _union_type(p: PolytopeModel, support: frozenset[int]) -> FineType:
    """Fine type of -e_J for a union of bases J, by the closed formula.

    With T0 the origin type and J^C = {i_1, ..., i_r}: entry j is
    T0_j minus the union of the T0_{i_l} when j lies in J, and otherwise
    T0_j together with the complement of that union.
    """
    t0 = p.origin_type.entries
    n = p.n_coords
    full = frozenset(range(1, p.n_generators + 1))
    comp = [i for i in range(1, n + 1) if i not in support]
    hit = frozenset().union(*(t0[i - 1] for i in comp))
    entries = []
    for j in range(1, n + 1):
        if j in support:
            entries.append(t0[j - 1] - hit)
        else:
            entries.append(t0[j - 1] | (full - hit))
    return FineType(entries)


def pseudovertices(p: PolytopeModel) -> list[PseudoVertex]:
    """All 0-cells of the complex: points -e_J for J a union of bases.

    Candidate supports are the union closure of the basis list; a candidate
    only counts when its type is actually zero dimensional (the support of
    all bases can land in the interior of a bigger cell).  Sorted by
    (|J|, lex J).
    """
    closure: set[frozenset[int]] = set(p.matroid.bases)
    frontier = set(closure)
    while frontier:
        new = set()
        for j in frontier:
            for b in p.matroid.bases:
                u = j | b
                if u not in closure:
                    new.add(u)
        closure |= new
        frontier = new
    out = []
    for support in sorted(closure, key=lambda s: (len(s), tuple(sorted(s)))):
        ft = _union_type(p, support)
        if ft.dimension() == 0:
            out.append(PseudoVertex(support, _support_point(p.n_coords, support), ft))
    return out


def maximal_bounded_cells(p: PolytopeModel) -> list[BoundedCell]:
    """One maximal bounded cell per complete valid sequence.

    A complete sequence orders the complement of a basis B; the cell is the
    tropical convex hull of the chain 0, e_{i_1}, ..., e_{i_1..i_m} ending at
    the generator of B, and its interior type peels the origin type along
    the sequence while the coordinates of B keep exactly the index of B.

    The sequences come from one walk over their prefixes in lexicographic
    preorder, so the peeled generators of a prefix are computed once and
    shared by every cell whose sequence extends it.  The chain is read off
    the sequence (BoundedCell.chain), so no point is built here.
    """
    m = p.matroid
    n = p.n_coords
    t0 = p.origin_type.entries
    full_len = n - m.rank
    index = {b: i for i, b in enumerate(m.bases, start=1)}
    ground = frozenset(range(1, n + 1))
    # entry k of each list belongs to the prefix of length k: the
    # generators its coordinates eat, and the entry of its last coordinate
    # (t0 minus what the shorter prefixes ate)
    eaten: list[frozenset[int]] = []
    peeled: list[frozenset[int] | None] = []
    cells = []
    for seq, _, _ in basis_avoiding_prefixes(m, full_len):
        r = len(seq)
        del eaten[r:], peeled[r:]
        if r:
            gens = t0[seq[-1] - 1]
            peeled.append(gens - eaten[-1])
            eaten.append(eaten[-1] | gens)
        else:
            peeled.append(None)
            eaten.append(frozenset())
        if r < full_len:
            continue
        basis = ground - set(seq)
        entries: list[frozenset[int]] = [frozenset()] * n
        for i, entry in zip(seq, peeled[1:]):
            entries[i - 1] = entry
        for j in basis:
            entries[j - 1] = t0[j - 1] - eaten[r]
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
