"""Cell complex of a tropical polytope, two ways.

The brute force side enumerates cells as feasibility classes of difference
constraint systems: fixing, for every generator, the set of coordinates
where its minimum is attained cuts the torus into relatively open cells.
One exact kernel decides all of them.  It keeps the all-pairs shortest path
matrix d of a closed system (d[u][v] bounds x_v - x_u from above) and adds
the edges leaving one node in a single O(n^2) update.  Two coordinates are
pinned when d[u][v] + d[v][u] == 0: a maximal cell pins no pair, a forced
tie gives a nonempty face exactly when it is already a shortest path, and a
cell's argmin sets are read off its matrix.  The pinned classes are the
components of those sets: coordinates in one set are pinned, and both
partitions have dim + 1 classes (FineType.dimension).

Every emitted cell gets one witness, which depends only on the cell: with
denominators cleared and n coordinates, the constraints forced tight weigh
n*c and all others n*c - 1; the shortest path potentials from a virtual
source, divided by n and the common denominator, lie in the relative
interior (a simple cycle has at most n edges, so every cycle that is not
tight keeps a nonnegative weight).

Both searches update a matrix only when the update can give something new.
The maximal-cell search runs on the witness system itself: a simple cycle
of L <= n edges and weight W weighs n*W - L there, which is negative exactly
when W <= 0, that is, when the unscaled system has a negative cycle or pins
a pair.  Every cycle the edges of a new argmin k close passes through k, so
one O(n) look at column k decides the child before its update, and a leaf's
matrix is the witness system of its maximal cell.  The face closure tries a
tie (g, j) of a cell only once per pair of pinned classes (class of g's
representative, class of j): x_j - x_rep then moves by a constant, so two
ties with one pair maximise the same functional over the closed cell and
give the same face.  It never closes a face's system again: the matrix the
update returned is already the closure of the face's own argmin sets.  The
face is the closed cell cut by x_j - x_rep = v_j - v_rep; every point of it
has argmin sets containing the ones read off, and those contain the cell's
sets and j in g's, so the closed cell of the new sets is the same
polyhedron.  A feasible closed system's matrix holds the tight bounds
max(x_v - x_u) over its solution set, so it depends only on that set.

The closed form side evaluates the basis counting formula for the coarse
types of maximal cells and the hypersimplex specialisation.  cross_validate
compares the two.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import compress
from math import comb, lcm
from operator import eq
from typing import Sequence

from .matroids import GroundMatroid, basis_avoiding_prefixes
from .minplus import FineType, TropicalPoint, _components, fine_type
from .polytopes import PolytopeModel

DEFAULT_CAP = 10**6   # CPython 3.11: 30-50 us per search node, 15-28 us per face candidate


class CapExceeded(ValueError):
    """A search did more work than the cap allows: more nodes in the
    maximal-cell search or the exterior check, or more face candidates in
    the face closure."""


# ---------------------------------------------------------------------------
# the shortest path kernel
#
# dist[u][v] is the least upper bound on x_v - x_u implied by a closed system
# of constraints x_v - x_u <= w, or None when nothing bounds it.  Rows are
# shared between matrices and never mutated.


def _add_edges(dist: list, k: int, weights: Sequence) -> list | None:
    """dist closed under extra edges k -> j of weight weights[j] (None for
    no edge), or None when they close a negative cycle."""
    row = list(dist[k])
    for w, dj in zip(weights, dist):
        if w is None:
            continue
        for b, c in enumerate(dj):
            if c is not None and (row[b] is None or w + c < row[b]):
                row[b] = w + c
    if row[k] < 0:
        return None
    out = []
    for a, da in enumerate(dist):
        t = da[k]
        if a == k or t is None:
            out.append(row if a == k else da)
            continue
        new = []
        for c, y in zip(da, row):
            if y is not None and (c is None or t + y < c):
                c = t + y
            new.append(c)
        out.append(new)
    return out


def _closure(weights: Sequence[Sequence]) -> list | None:
    """Shortest path matrix of the edges u -> v of weight weights[u][v]."""
    n = len(weights)
    dist = [[0 if u == v else None for v in range(n)] for u in range(n)]
    for k, w in enumerate(weights):
        dist = _add_edges(dist, k, w)
        if dist is None:
            return None
    return dist


def _scaled_rows(gens: Sequence[TropicalPoint]) -> tuple[list[list[int]], int]:
    """Generator coordinates times their common denominator, as ints (the
    kernel then runs on integers, which is much faster than Fraction)."""
    forms = [g.int_form for g in gens]
    den = lcm(*(d for _, d in forms))
    return [[c * (den // d) for c in ints] for ints, d in forms], den


def _constraints(rows: list, arg_sets: Sequence[frozenset[int]],
                 scale: int = 1, slack: int = 0) -> list:
    """Edge weights of the closed cell of the argmin sets: for k in a
    generator's set, x_j - x_k <= scale * (v_j - v_k), less slack when j is
    outside that set."""
    n = len(rows[0])
    out = [[None] * n for _ in range(n)]
    for row, s in zip(rows, arg_sets):
        for k in s:
            ok = out[k]
            for j in range(n):
                w = scale * (row[j] - row[k]) - (0 if j in s else slack)
                if ok[j] is None or w < ok[j]:
                    ok[j] = w
    return out


# ---------------------------------------------------------------------------
# cell records


@dataclass(frozen=True)
class CellRecord:
    """One relatively open cell: its type, dimension, boundedness and a
    rational point in its relative interior."""

    fine_type: FineType
    dim: int
    bounded: bool
    witness: TropicalPoint

    @property
    def coarse(self) -> tuple[int, ...]:
        return self.fine_type.coarse()

    def to_json_obj(self) -> dict:
        return {
            "type": self.fine_type.to_json(),
            "dim": self.dim,
            "bounded": self.bounded,
            "coarse": list(self.coarse),
            "witness": self.witness.to_json(),
        }


@dataclass(frozen=True)
class CellComplexModel:
    """All cells of the type decomposition, with the f-vector by dimension."""

    n_coords: int
    cells: tuple[CellRecord, ...]
    f_vector: tuple[int, ...]


def _as_generators(p: PolytopeModel | Sequence[TropicalPoint]) -> tuple[TropicalPoint, ...]:
    """Accept a polytope model or a bare generator sequence."""
    gens = tuple(p.generators) if isinstance(p, PolytopeModel) else tuple(p)
    if not gens:
        raise ValueError("need at least one generator")
    return gens


def _argmin_sets(ft: FineType) -> tuple[frozenset[int], ...]:
    """Per generator sets of argmin coordinates (0-based), from a fine type."""
    n_gens = max(ft.union())
    sets: list[set[int]] = [set() for _ in range(n_gens)]
    for k, entry in enumerate(ft.entries):
        for g in entry:
            sets[g - 1].add(k)
    return tuple(frozenset(s) for s in sets)


def _record(gens: Sequence[TropicalPoint], rows: list, den: int,
            arg_sets: Sequence[frozenset[int]], dist: list | None = None) -> CellRecord:
    """The cell with these argmin sets, with its witness (module docstring).
    dist, when given, is the closed witness system of the cell."""
    n = len(rows[0])
    if dist is None:
        dist = _closure(_constraints(rows, arg_sets, n, 1))
        if dist is None:
            raise AssertionError("argmin sets of an empty cell")
    # integer potentials, shifted so the least is zero: the canonical witness
    pots = [min(c for c in col if c is not None) for col in zip(*dist)]
    low = min(pots)
    witness = TropicalPoint(Fraction(c - low, n * den) for c in pots)
    ft = FineType([g + 1 for g, s in enumerate(arg_sets) if k in s] for k in range(n))
    if fine_type(witness, gens).entries != ft.entries:
        raise AssertionError("witness does not reproduce the cell type")
    return CellRecord(ft, ft.dimension(), ft.is_bounded(), witness)


# ---------------------------------------------------------------------------
# maximal cells by exhaustive search over argmin assignments


def enumerate_maximal_cells(
    p: PolytopeModel | Sequence[TropicalPoint], cap: int = DEFAULT_CAP
) -> list[CellRecord]:
    """All full dimensional cells of the complex, by exhaustive search.

    Every map sending each generator to a single argmin coordinate is
    tested for strict feasibility.  The search carries the witness system
    of the prefix (module docstring): sending generator g to k adds the
    edges k -> j of weight n*(v_j - v_k) - 1 for j != k, and the child is
    pruned before that update when some c != k closes a negative cycle,
    n*(v_c - v_k) - 1 + d[c][k] < 0.  That prunes exactly the prefixes whose
    unscaled system has a negative cycle or pins two coordinates, which
    only skips assignments whose strict systems are already contradictory.
    Feasible maps correspond bijectively to maximal cells, and each leaf's
    matrix is its cell's witness system.  Results are sorted by fine type.

    Raises CapExceeded once the search has visited more than cap nodes (a
    node is a prefix that survived pruning, the empty prefix included).
    """
    gens = _as_generators(p)
    rows, den = _scaled_rows(gens)
    n = len(rows[0])
    scaled = [[n * c for c in row] for row in rows]
    found: list[CellRecord] = []
    sigma = [0] * len(rows)
    nodes = 0

    def descend(g: int, dist: list) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"maximal-cell search: {nodes} nodes exceed cap {cap}")
        if g == len(rows):
            found.append(_record(gens, rows, den, [frozenset((k,)) for k in sigma], dist))
            return
        row = scaled[g]
        for k in range(n):
            cut = row[k] + 1
            # a negative cycle closed by the new edges k -> c passes through k
            if any(dc[k] is not None and row[c] + dc[k] < cut
                   for c, dc in enumerate(dist) if c != k):
                continue
            weights = [c - cut for c in row]
            weights[k] = None
            sigma[g] = k
            descend(g + 1, _add_edges(dist, k, weights))

    descend(0, _closure([[None] * n] * n))
    found.sort(key=lambda r: r.fine_type.key())
    return found


# ---------------------------------------------------------------------------
# the full complex by closing down from the maximal cells


def enumerate_all_cells(
    p: PolytopeModel | Sequence[TropicalPoint], cap: int = DEFAULT_CAP
) -> CellComplexModel:
    """Every cell of the complex, of all dimensions.

    Faces are generated by forcing one more coordinate j into generator g's
    argmin set, whose member rep stays in it.  The face is nonempty iff
    d[rep][j] == v_j - v_rep; its matrix comes from adding the edges leaving
    j, and its argmin sets are the coordinates k with d[k][rep] == v_rep - v_k
    for each generator's rep.  That matrix is the closure of the face's own
    argmin sets (module docstring), so the face is queued with it and only
    the maximal cells get a closure of their system.  Ties whose rep and j
    fall in the same pinned classes as an earlier tie of the cell give the
    same face (module docstring) and are skipped before any update; the
    classes are the components of the cell's argmin sets.  Cells
    are deduplicated by argmin sets; the f-vector counts them by dimension
    0..d.

    Raises CapExceeded once more than cap face candidates, ties (g, j) that
    pass that test, have been tried, repeated class pairs included (the
    search below has its own count).
    """
    gens = _as_generators(p)
    maximal = enumerate_maximal_cells(gens, cap)
    rows, den = _scaled_rows(gens)
    n = len(rows[0])
    # diffs[g][r][k] = v_r - v_k for generator g's row v
    diffs = [[[v[r] - c for c in v] for r in range(n)] for v in rows]
    visited: dict[tuple[frozenset[int], ...], CellRecord] = {}
    shared: dict[frozenset[int], frozenset[int]] = {}
    queue: deque = deque()
    candidates = 0
    for rec in maximal:
        arg_sets = _argmin_sets(rec.fine_type)
        visited[arg_sets] = rec
        queue.append((arg_sets, _closure(_constraints(rows, arg_sets))))
    while queue:
        arg_sets, dist = queue.popleft()
        reps = [min(s) for s in arg_sets]
        # pinned classes; a coordinate in no argmin set is one of its own
        cls = {k: min(c) for c in _components(arg_sets) for k in c}
        pairs = set()
        for g, (s, rep) in enumerate(zip(arg_sets, reps)):
            row = rows[g]
            for j in range(n):
                if j in s or dist[rep][j] != row[j] - row[rep]:
                    continue
                candidates += 1
                if candidates > cap:
                    raise CapExceeded(
                        f"face closure: {candidates} face candidates exceed cap {cap}")
                pair = (cls[rep], cls.get(j, j))
                if pair in pairs:
                    continue
                pairs.add(pair)
                if arg_sets[:g] + (s | {j},) + arg_sets[g + 1:] in visited:
                    continue
                face = _add_edges(dist, j, [c - row[j] for c in row])
                cols = list(zip(*face))
                new_sets = tuple(
                    frozenset(compress(range(n), map(eq, cols[r], dg[r])))
                    for dg, r in zip(diffs, reps)
                )
                if new_sets not in visited:
                    # one object per distinct set keeps the stored keys small
                    new_sets = tuple(shared.setdefault(x, x) for x in new_sets)
                    visited[new_sets] = _record(gens, rows, den, new_sets)
                    queue.append((new_sets, face))
    cells = tuple(sorted(visited.values(), key=lambda r: (r.dim, r.fine_type.key())))
    dims = Counter(rec.dim for rec in cells)
    return CellComplexModel(n, cells, tuple(dims[k] for k in range(n)))


# ---------------------------------------------------------------------------
# closed form coarse types


def maximal_cell_coarse_types(m: GroundMatroid) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Coarse types of maximal cells from basis counting, one row per cell.

    For every duplicate-free tuple (i_1, ..., i_{d'}) whose complement
    contains a basis (d' from 0 to d-k+1) and every further coordinate
    i_{d'+1}, the type puts b_{i_1,empty} + b_{empty,{i_1..i_{d'+1}}} at
    i_1, b_{i_l,{i_1..i_{l-1}}} at i_l for l >= 2, and zero elsewhere.
    Returns (full tuple, coarse type) pairs, by length and then
    lexicographically.

    Swapping two adjacent parallel coordinates gives the same type, so
    only tuples whose adjacent parallel pairs increase are listed: from
    position 2 on the walk drops the others, and the pair at positions 1
    and 2 is dropped here when no basis misses the whole tuple (otherwise
    position 1 carries those bases and the two types differ).  On a
    simple matroid nothing is dropped.

    One walk over the tuples in lexicographic preorder carries the bases
    missing the tuple, so every count is a difference of two list
    lengths: with a_l the number of bases missing (i_1..i_l),
    b_{i_l,{i_1..i_{l-1}}} = a_{l-1} - a_l.
    """
    n = m.ground_size
    par = m.parallel
    rows = []
    sizes: list[int] = []      # sizes[l] = a_l along the current tuple
    for seq, avoid, kids in basis_avoiding_prefixes(m, n):
        dp = len(seq)
        del sizes[dp:]
        sizes.append(len(avoid))
        base = [0] * n
        for l in range(dp):
            base[seq[l] - 1] = sizes[l] - sizes[l + 1]
        head = seq[0] - 1 if dp else None
        for last, child in kids:
            full = seq + (last,)
            if not child and dp and full[1] < full[0] and par[full[0]] >> full[1] & 1:
                continue
            t = base.copy()
            t[last - 1] = sizes[dp] - len(child)
            t[last - 1 if head is None else head] += len(child)
            rows.append((full, tuple(t)))
    # the walk is lexicographic, and the sort is stable
    return sorted(rows, key=lambda row: len(row[0]))


def hypersimplex_coarse_types(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Coarse types of maximal cells of the hypersimplex, one representative
    per coordinate permutation orbit.

    For a = 1..d+2-k the representative starts with C(d+1-a, k) + C(d, k-1),
    continues with C(d-1, k-1), ..., C(d-(a-1), k-1) and is padded with
    zeros.  a = 0 is excluded: its leading entry would exceed the number of
    generators.
    """
    if not 1 <= k <= d:
        raise ValueError("hypersimplex coarse types require 1 <= k <= d")
    out = []
    for a in range(1, d + 2 - k + 1):
        row = [comb(d + 1 - a, k) + comb(d, k - 1)]
        row += [comb(d - l, k - 1) for l in range(1, a)]
        row += [0] * (d + 1 - a)
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class CrossValidationReport:
    """Comparison of enumerated maximal cell coarse types with the formula."""

    cell_count: int
    formula_count: int
    multiset_equal: bool
    set_equal: bool
    only_enumerated: tuple[tuple[tuple[int, ...], int], ...]
    only_formula: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def ok(self) -> bool:
        return self.multiset_equal

    def summary(self) -> str:
        if self.ok:
            return f"OK: {self.cell_count} cells, formula == enumeration"
        parts = [
            f"MISMATCH: {self.cell_count} enumerated vs {self.formula_count} from formula",
            f"set_equal={self.set_equal}",
        ]
        if self.only_enumerated:
            parts.append(f"only enumerated: {list(self.only_enumerated)}")
        if self.only_formula:
            parts.append(f"only formula: {list(self.only_formula)}")
        return "; ".join(parts)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, **asdict(self)}


def cross_validate(p: PolytopeModel, cap: int = DEFAULT_CAP) -> CrossValidationReport:
    """Check the coarse type formula against the brute force enumeration."""
    return compare_coarse_types(enumerate_maximal_cells(p, cap), p.matroid)


def compare_coarse_types(cells: Sequence[CellRecord], m: GroundMatroid) -> CrossValidationReport:
    """Compare the coarse types of already enumerated maximal cells with
    the formula, as multisets."""
    formula = maximal_cell_coarse_types(m)
    emu = Counter(rec.coarse for rec in cells)
    fmu = Counter(t for _, t in formula)
    only_e = tuple(sorted((emu - fmu).items()))
    only_f = tuple(sorted((fmu - emu).items()))
    return CrossValidationReport(
        cell_count=len(cells),
        formula_count=len(formula),
        multiset_equal=emu == fmu,
        set_equal=set(emu) == set(fmu),
        only_enumerated=only_e,
        only_formula=only_f,
    )
