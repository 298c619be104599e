"""Oracles shared by several test modules: direct implementations that
the package's closed forms are checked against."""

from typing import Iterable

from tropmat.matroids import GroundMatroid, basis_avoiding_prefixes
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
    return [seq for seq, _, _ in basis_avoiding_prefixes(p.matroid, length)
            if len(seq) == length]
