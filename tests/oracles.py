"""Oracles shared by several test modules: direct implementations that
the package's closed forms are checked against, the tropical
combinations and translations the tests build points with, and the
parallel extensions they build matroids with."""

from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence

from tropmat.matroids import GroundMatroid, matroid_from_bases
from tropmat.minplus import DimensionMismatch, TropicalPoint, _same_torus, to_rational
from tropmat.polytopes import PolytopeModel


def count_b(m: GroundMatroid, include: Iterable[int], avoid: Iterable[int]) -> int:
    """Number of bases containing every element of `include` and none of `avoid`."""
    inc = frozenset(int(e) for e in include)
    avd = frozenset(int(e) for e in avoid)
    if inc & avd:
        raise ValueError(f"include and avoid overlap on {sorted(inc & avd)}")
    out_of_range = (inc | avd) - set(m.ground())
    if out_of_range:
        raise ValueError(f"elements {sorted(out_of_range)} leave the ground set")
    return sum(1 for b in m.bases if inc <= b and not (avd & b))


def valid_sequences(p: PolytopeModel, length: int) -> list[tuple[int, ...]]:
    """Duplicate-free coordinate tuples whose complement contains a basis,
    in lexicographic order."""
    max_len = p.n_coords - p.matroid.rank
    if not 0 <= length <= max_len:
        raise ValueError(f"sequence length must lie in 0..{max_len}")
    return [seq for seq in permutations(p.matroid.ground(), length)
            if any(b.isdisjoint(seq) for b in p.matroid.bases)]


def doubled(m: GroundMatroid, *elements: int) -> GroundMatroid:
    """m with one new element parallel to each of elements, added in turn
    as elements ground_size + 1, ground_size + 2, ..."""
    for e in elements:
        new = m.ground_size + 1
        m = matroid_from_bases(new, [*m.bases, *((b - {e}) | {new} for b in m.bases if e in b)])
    return m


def translate(x: TropicalPoint, deltas) -> TropicalPoint:
    """Shift by a vector, or by a scalar applied to every coordinate.

    A scalar shift does not move the point in the torus; it only changes
    the representative.
    """
    if isinstance(deltas, (int, str, Fraction)):
        deltas = [deltas] * x.n_coords
    ds = [to_rational(d) for d in deltas]
    if len(ds) != x.n_coords:
        raise DimensionMismatch("translation vector has wrong length")
    return TropicalPoint(c + d for c, d in zip(x.coords, ds))


def trop_combination(coeffs: Iterable, points: Sequence[TropicalPoint]) -> TropicalPoint:
    """Tropical linear combination: componentwise min of (c_i + p_i)."""
    cs = [to_rational(c) for c in coeffs]
    if len(cs) != len(points):
        raise ValueError("one coefficient per point required")
    n = _same_torus(points)
    return TropicalPoint(
        min(c + p.coords[j] for c, p in zip(cs, points)) for j in range(n)
    )


def trop_segment(x: TropicalPoint, y: TropicalPoint) -> list[TropicalPoint]:
    """Breakpoints of the tropical segment from x to y, endpoints included.

    The segment is the image of (lam + x) min (mu + y); only t = mu - lam
    matters up to the class.  Coordinate j switches from the x-side to the
    y-side as t drops below x_j - y_j, so the breakpoints sit at the distinct
    coordinate differences.  There are at most d+1 of them.
    """
    _same_torus((x, y))
    cuts = sorted({xj - yj for xj, yj in zip(x.coords, y.coords)}, reverse=True)
    out = []
    for t in cuts:
        z = TropicalPoint(min(xj, t + yj) for xj, yj in zip(x.coords, y.coords))
        out.append(z.canonical())
    return out
