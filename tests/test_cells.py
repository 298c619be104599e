from collections import Counter, deque
from fractions import Fraction
from math import comb
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmat import (
    CapExceeded,
    FineType,
    TropicalPoint,
    build_polytope,
    cross_validate,
    enumerate_all_cells,
    enumerate_maximal_cells,
    fine_type,
    hypersimplex_coarse_types,
    in_tconv,
    pseudovertices,
    maximal_cell_coarse_types,
    uniform_matroid,
)
from tropmat import cells
from tropmat.cells import (
    CellComplexModel,
    CellRecord,
    _argmin_sets,
    _as_generators,
    _closure,
    _constraints,
    _scaled_rows,
)
from tropmat.minplus import _components
from tropmat.polytopes import PolytopeModel

from oracles import trop_combination, trop_segment

F_VECTOR = (14, 78, 172, 180, 73)


def _pinned(dist: list, u: int, v: int) -> bool:
    a, b = dist[u][v], dist[v][u]
    return a is not None and b is not None and a + b == 0


def _pinned_classes(dist: list) -> list[int]:
    """The least coordinate pinned to each coordinate (pinning is an
    equivalence relation, so equal entries mean one affine class)."""
    return [next(v for v in range(u + 1) if _pinned(dist, u, v)) for u in range(len(dist))]


def affine_cell_dim(p: PolytopeModel | Sequence[TropicalPoint], ft: FineType) -> int:
    """Affine dimension of the cell of type ft, from its constraint system.

    Pinned coordinates fall in one affine class (pinning is an equivalence
    relation); the dimension is the number of classes minus one.  Must agree
    with FineType.dimension for every realized type.
    """
    rows, _ = _scaled_rows(_as_generators(p))
    dist = _closure(_constraints(rows, _argmin_sets(ft)))
    if dist is None:
        raise ValueError("type is not realized: empty constraint system")
    return len(set(_pinned_classes(dist))) - 1


class TestMaximalCells:
    def test_seventy_three(self, running_polytope):
        recs = enumerate_maximal_cells(running_polytope)
        assert len(recs) == 73
        split = Counter(sum(1 for x in rec.coarse if x) for rec in recs)
        assert split == {1: 5, 2: 20, 3: 48}

    def test_every_witness_realizes_its_type(self, running_polytope):
        for rec in enumerate_maximal_cells(running_polytope):
            direct = fine_type(rec.witness, running_polytope.generators)
            assert direct.entries == rec.fine_type.entries
            assert rec.dim == 4

    def test_cap(self, running_polytope, k4_matroid):
        # the running example's search visits 322 nodes, its face closure
        # tries 6120 face candidates
        with pytest.raises(CapExceeded, match="^maximal-cell search: 101 nodes exceed cap 100$"):
            enumerate_maximal_cells(running_polytope, cap=100)
        with pytest.raises(CapExceeded, match="322 nodes exceed cap 321"):
            enumerate_maximal_cells(running_polytope, cap=321)
        assert len(enumerate_maximal_cells(running_polytope, cap=322)) == 73
        assert len(enumerate_maximal_cells(running_polytope, cap=1000)) == 73
        with pytest.raises(CapExceeded,
                           match="^face closure: 1001 face candidates exceed cap 1000$"):
            enumerate_all_cells(running_polytope, cap=1000)
        assert len(enumerate_maximal_cells(build_polytope(k4_matroid))) == 444

    def test_uniform_counts(self, u23_polytope, u24_polytope, u33_polytope):
        assert len(enumerate_maximal_cells(u23_polytope)) == 9
        assert len(enumerate_maximal_cells(u24_polytope)) == 40
        assert len(enumerate_maximal_cells(u33_polytope)) == 16


class TestFullComplex:
    def test_f_vector(self, running_complex):
        assert running_complex.f_vector == F_VECTOR

    def test_euler_characteristic(self, running_complex):
        euler = sum((-1) ** i * c for i, c in enumerate(running_complex.f_vector))
        assert euler == 1

    def test_bounded_subcomplex(self, running_complex):
        bounded = Counter(rec.dim for rec in running_complex.cells if rec.bounded)
        assert bounded == {0: 14, 1: 29, 2: 16}

    def test_zero_cells_are_the_pseudovertices(self, running_polytope, running_complex):
        zero = {rec.witness for rec in running_complex.cells if rec.dim == 0}
        assert zero == {pv.point for pv in pseudovertices(running_polytope)}

    def test_every_cell_witness_realizes_its_type(self, running_polytope, running_complex):
        for rec in running_complex.cells:
            direct = fine_type(rec.witness, running_polytope.generators)
            assert direct.entries == rec.fine_type.entries
            assert rec.dim == rec.fine_type.dimension()
            assert rec.bounded == all(rec.fine_type.entries)
            assert rec.bounded == in_tconv(rec.witness, running_polytope.generators)

    def test_affine_dimension_agrees_everywhere(self, running_polytope, running_complex):
        for rec in running_complex.cells:
            assert affine_cell_dim(running_polytope, rec.fine_type) == rec.dim

    def test_u24_complex(self, u24_polytope):
        cx = enumerate_all_cells(u24_polytope)
        assert cx.f_vector == (11, 50, 78, 40)
        euler = sum((-1) ** i * c for i, c in enumerate(cx.f_vector))
        assert euler == -1

    def test_u23_complex(self, u23_polytope):
        assert enumerate_all_cells(u23_polytope).f_vector == (4, 12, 9)

    def test_rational_generators(self, running_polytope, running_complex):
        # x -> x/3 + shift maps the complex of the running example onto the
        # complex of its image, cell for cell and type for type
        shift = (Fraction(1, 2), Fraction(-2, 7), 0, Fraction(5, 3), Fraction(-1, 6))
        gens = [
            TropicalPoint(c / 3 + s for c, s in zip(g.coords, shift))
            for g in running_polytope.generators
        ]
        cx = enumerate_all_cells(gens)
        assert cx.f_vector == F_VECTOR
        assert {rec.fine_type for rec in cx.cells} == {
            rec.fine_type for rec in running_complex.cells
        }
        for rec in cx.cells:
            assert fine_type(rec.witness, gens).entries == rec.fine_type.entries
            assert affine_cell_dim(gens, rec.fine_type) == rec.dim

    def test_k4_complex(self, k4_matroid):
        cx = enumerate_all_cells(build_polytope(k4_matroid))
        assert cx.f_vector == (38, 307, 981, 1598, 1329, 444)
        assert sum((-1) ** i * c for i, c in enumerate(cx.f_vector)) == -1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_generator_gives_the_sector_fan(self, d):
        cx = enumerate_all_cells([TropicalPoint([0] * (d + 1))])
        assert cx.f_vector == tuple(comb(d + 1, d + 1 - i) for i in range(d + 1))


class TestCoarseTypeFormula:
    def test_sample_rows(self, running_matroid):
        rows = dict(maximal_cell_coarse_types(running_matroid))
        assert rows[(3,)] == (0, 0, 8, 0, 0)
        assert rows[(1, 2)] == (6, 2, 0, 0, 0)
        assert rows[(4, 2, 1)] == (1, 2, 0, 5, 0)
        assert len(rows) == 73

    def test_cross_validation(self, running_polytope, u23_polytope, u24_polytope,
                              u33_polytope):
        for p in (running_polytope, u23_polytope, u24_polytope, u33_polytope):
            report = cross_validate(p)
            assert report.ok
            assert report.multiset_equal and report.set_equal
            assert not report.only_enumerated and not report.only_formula

    def test_summary_string(self, running_polytope):
        assert cross_validate(running_polytope).summary() == (
            "OK: 73 cells, formula == enumeration"
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_one_lists_each_cell_once(self, n):
        # every two elements are parallel, so the rows are the tuples
        # increasing from position 2 on, and the head pair too when no
        # basis misses the whole tuple
        p = build_polytope(uniform_matroid(1, n))
        report = cross_validate(p)
        assert report.ok
        assert report.cell_count == report.formula_count == {2: 3, 3: 10, 4: 29}[n]


class TestHypersimplexFormula:
    def test_frozen_tables(self):
        assert hypersimplex_coarse_types(2, 2) == ((3, 0, 0), (2, 1, 0))
        assert hypersimplex_coarse_types(2, 3) == (
            (6, 0, 0, 0),
            (4, 2, 0, 0),
            (3, 2, 1, 0),
        )
        assert hypersimplex_coarse_types(3, 3) == ((4, 0, 0, 0), (3, 1, 0, 0))

    def test_requires_interior_rank(self):
        with pytest.raises(ValueError):
            hypersimplex_coarse_types(0, 3)
        with pytest.raises(ValueError):
            hypersimplex_coarse_types(4, 3)

    @pytest.mark.parametrize(
        "k,d", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
    )
    def test_matches_brute_force_orbits(self, k, d):
        p = build_polytope(uniform_matroid(k, d + 1))
        orbits = {
            tuple(sorted(rec.coarse, reverse=True))
            for rec in enumerate_maximal_cells(p)
        }
        assert set(hypersimplex_coarse_types(k, d)) == orbits

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 3)])
    def test_excluded_head_exceeds_the_generator_count(self, k, d):
        # the alpha = 0 row would claim more generators in one sector than exist
        assert comb(d + 1 - 0, k) + comb(d, k - 1) > comb(d + 1, k)


small_coords = st.integers(min_value=-3, max_value=3)


def small_configs(n_coords: int, max_gens: int):
    point = st.lists(small_coords, min_size=n_coords, max_size=n_coords).map(
        TropicalPoint
    )
    return st.lists(point, min_size=1, max_size=max_gens)


class TestRandomizedConsistency:
    @given(small_configs(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_line_complexes(self, gens):
        cx = enumerate_all_cells(gens)
        euler = sum((-1) ** i * c for i, c in enumerate(cx.f_vector))
        assert euler == -1
        for rec in cx.cells:
            assert fine_type(rec.witness, gens).entries == rec.fine_type.entries
            assert affine_cell_dim(gens, rec.fine_type) == rec.dim

    @given(small_configs(3, 3))
    @settings(max_examples=25, deadline=None)
    def test_plane_complexes(self, gens):
        cx = enumerate_all_cells(gens)
        euler = sum((-1) ** i * c for i, c in enumerate(cx.f_vector))
        assert euler == 1
        for rec in cx.cells:
            assert fine_type(rec.witness, gens).entries == rec.fine_type.entries

    @given(
        lams1=st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8),
        lams2=st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_hull_points_connect_inside_the_hull(self, running_polytope, lams1, lams2):
        gens = running_polytope.generators
        x = trop_combination([Fraction(c) for c in lams1], gens)
        y = trop_combination([Fraction(c) for c in lams2], gens)
        assert in_tconv(x, gens) and in_tconv(y, gens)
        for z in trop_segment(x, y):
            assert in_tconv(z, gens)


# ---------------------------------------------------------------------------
# The two searches against the loops they replaced.  The oracles update the
# matrix of every child and then test it for a negative or zero cycle, run a
# fresh closure for each cell's witness, rebuild each dequeued cell's matrix
# and try every face candidate.  They call the kernel through the module, so
# a counter patched onto cells._add_edges sees their updates too.


def oracle_record(gens, rows, den, arg_sets):
    """The witness as first built: a fresh closure of the witness system,
    column minima over n*den as Fractions, then the canonical representative."""
    n = len(rows[0])
    dist = _closure(_constraints(rows, arg_sets, n, 1))
    assert dist is not None, "argmin sets of an empty cell"
    witness = TropicalPoint(
        Fraction(min(c for c in col if c is not None), n * den) for col in zip(*dist)
    ).canonical()
    ft = FineType([g + 1 for g, s in enumerate(arg_sets) if k in s] for k in range(n))
    assert fine_type(witness, gens).entries == ft.entries
    return CellRecord(ft, ft.dimension(), ft.is_bounded(), witness)


def maximal_cells_oracle(p):
    gens = _as_generators(p)
    rows, den = _scaled_rows(gens)
    n = len(rows[0])
    found = []
    sigma = [0] * len(rows)

    def descend(g, dist):
        if g == len(rows):
            found.append(oracle_record(gens, rows, den, [frozenset((k,)) for k in sigma]))
            return
        row = rows[g]
        for k in range(n):
            child = cells._add_edges(dist, k, [c - row[k] for c in row])
            if child is None or any(_pinned(child, k, b) for b in range(n) if b != k):
                continue
            sigma[g] = k
            descend(g + 1, child)

    descend(0, _closure([[None] * n] * n))
    found.sort(key=lambda r: r.fine_type.key())
    return found


def all_cells_oracle(p):
    gens = _as_generators(p)
    maximal = maximal_cells_oracle(gens)
    rows, den = _scaled_rows(gens)
    n = len(rows[0])
    visited = {}
    queue = deque()
    for rec in maximal:
        arg_sets = _argmin_sets(rec.fine_type)
        visited[arg_sets] = rec
        queue.append(arg_sets)
    while queue:
        arg_sets = queue.popleft()
        dist = _closure(_constraints(rows, arg_sets))
        reps = [min(s) for s in arg_sets]
        for g, (s, rep) in enumerate(zip(arg_sets, reps)):
            row = rows[g]
            for j in range(n):
                if j in s or dist[rep][j] != row[j] - row[rep]:
                    continue
                if arg_sets[:g] + (s | {j},) + arg_sets[g + 1:] in visited:
                    continue
                face = cells._add_edges(dist, j, [c - row[j] for c in row])
                new_sets = tuple(
                    frozenset(k for k in range(n) if face[k][r] == v[r] - v[k])
                    for v, r in zip(rows, reps)
                )
                if new_sets not in visited:
                    visited[new_sets] = oracle_record(gens, rows, den, new_sets)
                    queue.append(new_sets)
    found = tuple(sorted(visited.values(), key=lambda r: (r.dim, r.fine_type.key())))
    fv = [0] * n
    for rec in found:
        fv[rec.dim] += 1
    return CellComplexModel(n, found, tuple(fv))


rational_coords = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


def rational_configs(n_coords: int, max_gens: int):
    point = st.lists(rational_coords, min_size=n_coords, max_size=n_coords).map(TropicalPoint)
    return st.lists(point, min_size=1, max_size=max_gens)


class TestSearchesAgainstOracles:
    @pytest.fixture(scope="class")
    def polytopes(self, running_polytope, u24_polytope, u33_polytope):
        return [running_polytope, build_polytope(uniform_matroid(2, 3)),
                u24_polytope, u33_polytope]

    def test_fixtures(self, polytopes):
        # records, order and witnesses; K3's graphic matroid is U(2,3)
        for p in polytopes:
            assert enumerate_maximal_cells(p) == maximal_cells_oracle(p)
            assert enumerate_all_cells(p) == all_cells_oracle(p)

    @given(st.integers(3, 4).flatmap(lambda n: rational_configs(n, 4)))
    @settings(max_examples=30, deadline=None)
    def test_rational_generators(self, gens):
        assert enumerate_maximal_cells(gens) == maximal_cells_oracle(gens)
        assert enumerate_all_cells(gens) == all_cells_oracle(gens)


def face_matrix_ties(gens):
    """Check every tie (g, j) of every cell: the matrix the update returns is
    the closure of the face's own argmin sets, so a face can be queued with
    it.  Returns the number of ties checked."""
    rows, _ = _scaled_rows(_as_generators(gens))
    n = len(rows[0])
    ties = 0
    for rec in enumerate_all_cells(gens).cells:
        arg_sets = _argmin_sets(rec.fine_type)
        dist = _closure(_constraints(rows, arg_sets))
        reps = [min(s) for s in arg_sets]
        for g, (s, rep) in enumerate(zip(arg_sets, reps)):
            row = rows[g]
            for j in range(n):
                if j in s or dist[rep][j] != row[j] - row[rep]:
                    continue
                ties += 1
                face = cells._add_edges(dist, j, [c - row[j] for c in row])
                new_sets = tuple(
                    frozenset(k for k in range(n) if face[k][r] == v[r] - v[k])
                    for v, r in zip(rows, reps)
                )
                assert j in new_sets[g]
                assert all(a <= b for a, b in zip(arg_sets, new_sets))
                assert face == _closure(_constraints(rows, new_sets))
    return ties


class TestFaceMatrix:
    def test_fixtures(self, running_polytope, u24_polytope, u33_polytope):
        # the running example's ties are its face candidates (test_cap)
        assert face_matrix_ties(running_polytope) == 6120
        assert face_matrix_ties(u24_polytope) > 0
        assert face_matrix_ties(u33_polytope) > 0

    @given(st.integers(3, 4).flatmap(lambda n: rational_configs(n, 4)))
    @settings(max_examples=20, deadline=None)
    def test_rational_generators(self, gens):
        face_matrix_ties(gens)


def check_pinned_classes_are_components(gens, cx: CellComplexModel) -> None:
    """The face closure's class-pair skip keys on the components of a
    cell's argmin sets, a coordinate in no set being a class of its own;
    they must be the pinned classes of the cell's closed matrix."""
    rows, _ = _scaled_rows(_as_generators(gens))
    n = len(rows[0])
    for rec in cx.cells:
        arg_sets = _argmin_sets(rec.fine_type)
        classes: dict[int, set[int]] = {}
        for u, c in enumerate(_pinned_classes(_closure(_constraints(rows, arg_sets)))):
            classes.setdefault(c, set()).add(u)
        comps = _components(arg_sets)
        covered = frozenset().union(*comps)
        expected = set(comps) | {frozenset((k,)) for k in range(n) if k not in covered}
        assert {frozenset(c) for c in classes.values()} == expected


class TestPinnedClasses:
    def test_fixtures(self, running_polytope, running_complex, u24_polytope):
        check_pinned_classes_are_components(running_polytope, running_complex)
        check_pinned_classes_are_components(u24_polytope, enumerate_all_cells(u24_polytope))

    @given(st.integers(3, 4).flatmap(lambda n: rational_configs(n, 4)))
    @settings(max_examples=20, deadline=None)
    def test_rational_generators(self, gens):
        check_pinned_classes_are_components(gens, enumerate_all_cells(gens))


class TestWorkCounts:
    @pytest.fixture
    def updates(self, monkeypatch):
        calls = [0]
        kernel = cells._add_edges

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(cells, "_add_edges", counted)
        return calls

    def test_search_updates_only_surviving_children(self, running_polytope, updates):
        # 322 nodes (test_cap): the root's closure adds 5 rows of no edges,
        # every other node is a surviving child with one update, and the
        # maximal cells reuse their leaf matrix as the witness system
        enumerate_maximal_cells(running_polytope)
        search = updates[0]
        updates[0] = 0
        maximal_cells_oracle(running_polytope)
        assert (search, updates[0]) == (5 + (322 - 1), 1615)

    def test_closure_updates(self, running_polytope, updates):
        # 326 for the search, 73 * 5 for the maximal cells' matrices, 2163
        # face updates and 444 * 5 witness closures; no dequeued face is
        # closed again, since it carries the matrix its update returned
        enumerate_all_cells(running_polytope)
        closure = updates[0]
        updates[0] = 0
        all_cells_oracle(running_polytope)
        assert (closure, updates[0]) == (5074, 12114)
