"""Simple graphs and their spanning tree matroids, plus explicit basis lists.

Edges are numbered 1..d+1 by their position in the input list; bases are
k-subsets of edge labels.  Graphs must be simple, connected and free of
bridges so that every edge lies in some spanning tree and misses some other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .minplus import _components


class GraphError(ValueError):
    """Base class for graph validation failures."""


class GraphFormatError(GraphError):
    """Input is syntactically valid JSON but not a graph description."""


class LoopEdgeError(GraphError):
    pass


class ParallelEdgeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class BridgeEdgeError(GraphError):
    pass


class MatroidError(ValueError):
    """Basis list fails one of the matroid axioms or conventions."""


@dataclass(frozen=True, init=False)
class LabeledGraph:
    """A simple connected bridgeless graph with positionally labeled edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> None:
        vs = tuple(str(v) for v in vertices)
        es = tuple((str(e[0]), str(e[1])) for e in edges)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        self._validate()

    def _validate(self) -> None:
        vs, es = self.vertices, self.edges
        if len(set(vs)) != len(vs):
            raise GraphFormatError("duplicate vertex names")
        if not vs or not es:
            raise GraphFormatError("graph needs vertices and edges")
        bit = {v: 1 << i for i, v in enumerate(vs)}
        masks: list[int] = []   # each edge as the bitmask of its endpoints
        for u, v in es:
            if u not in bit or v not in bit:
                raise GraphFormatError(f"edge ({u},{v}) uses unknown vertices")
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if bit[u] | bit[v] in masks:
                raise ParallelEdgeError(f"parallel edge ({u},{v})")
            masks.append(bit[u] | bit[v])
        if not _spans(masks, len(vs)):
            raise DisconnectedGraphError("graph is not connected")
        for i in range(len(es)):
            if not _spans(masks[:i] + masks[i + 1:], len(vs)):
                raise BridgeEdgeError(f"edge {i + 1} = {es[i]} is a bridge")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _spans(masks: Sequence[int], n_vertices: int) -> bool:
    """The edges form one component that covers every vertex."""
    return _components(masks) == [(1 << n_vertices) - 1]


def parse_graph(text: str) -> LabeledGraph:
    """Parse a {"vertices": [...], "edges": [[u, v], ...]} JSON document."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise GraphFormatError("graph JSON must be an object")
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError("graph JSON needs 'vertices' and 'edges'") from exc
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise GraphFormatError("'vertices' and 'edges' must be lists")
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphFormatError(f"edge {e!r} is not a two element list")
    return LabeledGraph(vertices, edges)


@dataclass(frozen=True, init=False)
class GroundMatroid:
    """A matroid given by its list of bases over ground set 1..ground_size."""

    ground_size: int
    rank: int
    bases: tuple[frozenset[int], ...]

    def __init__(self, ground_size: int, rank: int, bases: Iterable[frozenset[int]]) -> None:
        object.__setattr__(self, "ground_size", int(ground_size))
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "bases", tuple(bases))

    @property
    def n_bases(self) -> int:
        return len(self.bases)

    def ground(self) -> range:
        return range(1, self.ground_size + 1)

    @cached_property
    def parallel(self) -> tuple[int, ...]:
        """Entry i is the bitmask (bit e for element e) of the elements
        parallel to i: those that share no basis with it.  Entry 0 is 0.

        Swapping two adjacent parallel elements of a coordinate tuple leaves
        every basis count along it unchanged, so the closed forms keep only
        one order of each such pair (basis_avoiding_prefixes).  A simple
        matroid, such as a graph's or a uniform matroid of rank at least
        two, has no parallel pair.
        """
        held = [0] * (self.ground_size + 1)   # held[i]: union of the bases holding i
        for b in self.bases:
            mask = sum(1 << e for e in b)
            for e in b:
                held[e] |= mask
        ground = (1 << (self.ground_size + 1)) - 2
        return (0,) + tuple(ground & ~h for h in held[1:])

    def basis_index(self, basis: frozenset[int]) -> int:
        """1-based position of a basis in the lexicographic list."""
        for i, b in enumerate(self.bases, start=1):
            if b == basis:
                return i
        raise MatroidError(f"{sorted(basis)} is not a basis")

    def to_json_obj(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "bases": [sorted(b) for b in self.bases],
        }


def check_exchange(bases: Iterable[Iterable[int]]) -> bool:
    """Basis exchange property of a collection of bases, on bitmasks.

    N(B, u) is the set of v outside B with B - u + v a basis.  A pair
    (B, B') violates the axiom iff some u in B - B' has N(B, u) disjoint
    from B', i.e. iff B' misses every element of X = {u} | N(B, u).  The
    bases meeting X are collected as a bitset over basis positions, so one
    comparison with the full bitset tests (B, B') for every B' at once.
    """
    bases = [frozenset(b) for b in bases]
    bit = {e: 1 << i for i, e in enumerate(sorted(frozenset().union(*bases)))}
    masks = [sum(bit[e] for e in b) for b in bases]
    mset = set(masks)
    # meets[x]: positions of the bases containing the element with bit x
    meets = dict.fromkeys(bit.values(), 0)
    for j, b in enumerate(masks):
        for x in meets:
            if b & x:
                meets[x] |= 1 << j
    every = (1 << len(masks)) - 1
    for b in masks:
        for u in meets:
            if not u & b:
                continue
            rest = b ^ u
            met = meets[u]
            for v in meets:
                if not v & b and rest | v in mset:
                    met |= meets[v]
            if met != every:
                return False
    return True


def matroid_from_bases(ground_size: int, bases: Iterable[Iterable[int]]) -> GroundMatroid:
    """Validate a basis list and build the matroid.

    Requirements: at least one basis, equal cardinalities, elements within
    1..ground_size, the exchange property, and every element both present in
    some basis and absent from some basis (no loops, no coloops).
    """
    blist = sorted({frozenset(int(e) for e in b) for b in bases},
                   key=lambda b: tuple(sorted(b)))
    if not blist:
        raise MatroidError("empty basis list")
    rank = len(blist[0])
    if any(len(b) != rank for b in blist):
        raise MatroidError("bases have unequal cardinalities")
    ground = set(range(1, ground_size + 1))
    for b in blist:
        if not b <= ground:
            raise MatroidError(f"basis {sorted(b)} leaves the ground set 1..{ground_size}")
    if not check_exchange(blist):
        raise MatroidError("exchange property violated")
    covered = frozenset().union(*blist)
    if covered != ground:
        missing = sorted(ground - covered)
        raise MatroidError(f"elements {missing} lie in no basis")
    common = frozenset(ground).intersection(*blist)
    if common:
        raise MatroidError(f"elements {sorted(common)} lie in every basis")
    return GroundMatroid(ground_size, rank, blist)


def uniform_matroid(rank: int, ground_size: int) -> GroundMatroid:
    """U_{k,m}: every k-subset of 1..m is a basis."""
    if not 1 <= rank <= ground_size:
        raise MatroidError(f"rank {rank} invalid for ground size {ground_size}")
    return matroid_from_bases(
        ground_size, combinations(range(1, ground_size + 1), rank)
    )


def enumerate_bases(graph: LabeledGraph) -> GroundMatroid:
    """All spanning trees of the graph as a matroid over the edge labels:
    the (|V|-1)-edge subsets that form one component covering every
    vertex."""
    n = len(graph.vertices)
    bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
    masks = [bit[u] | bit[v] for u, v in graph.edges]
    return matroid_from_bases(graph.n_edges, (
        frozenset(i + 1 for i in combo)
        for combo in combinations(range(len(masks)), n - 1)
        if _spans([masks[i] for i in combo], n)
    ))


def non_bases(m: GroundMatroid) -> list[frozenset[int]]:
    """Rank-size subsets of the ground set that are not bases, in lex order."""
    bset = set(m.bases)
    return [
        frozenset(c)
        for c in combinations(m.ground(), m.rank)
        if frozenset(c) not in bset
    ]


def basis_avoiding_prefixes(m: GroundMatroid, max_len: int) -> Iterator[tuple]:
    """Duplicate-free coordinate tuples whose complement contains a basis,
    in lexicographic preorder, up to length max_len, with each adjacent
    pair of parallel elements from position 2 on in increasing order.

    Yields (seq, avoid, kids): avoid lists the bases missing seq as
    bitmasks (bit e for element e), and kids pairs every element i that
    may follow seq with the bases missing seq + (i,); it is empty at
    max_len.  b_{i,S}, the number of bases containing i and missing S,
    is len(avoid) - len(child) for the child of i.  The walk descends
    into the nonempty kids only.

    Parallel elements i and j lie in no common basis, so b_{i,S} =
    b_{i,S+(j,)} and b_{j,S} = b_{j,S+(i,)}: the counts along a tuple do
    not change when i and j trade places, and only the increasing order
    is kept.  The pair at positions 1 and 2 is left to the callers,
    because the formula also counts the bases missing the whole tuple at
    position 1.
    """
    n = m.ground_size
    par = m.parallel
    stack = [((), [sum(1 << e for e in b) for b in m.bases])]
    while stack:
        seq, avoid = stack.pop()
        kids = []
        if len(seq) < max_len:
            # the elements parallel to seq[-1] that would follow it in decreasing order
            skip = par[seq[-1]] & ((1 << seq[-1]) - 1) if len(seq) >= 2 else 0
            for i in range(1, n + 1):
                bit = 1 << i
                if i not in seq and not bit & skip:
                    kids.append((i, [b for b in avoid if not b & bit]))
        yield seq, avoid, kids
        stack.extend((seq + (i,), child) for i, child in reversed(kids) if child)


def parse_bases(text: str) -> GroundMatroid:
    """Parse a {"ground_size": m, "bases": [[...], ...]} JSON document whose
    numbers are all ints (JSON booleans and floats are rejected)."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "ground_size" not in obj or "bases" not in obj:
        raise MatroidError("basis JSON needs 'ground_size' and 'bases'")
    ground_size, bases = obj["ground_size"], obj["bases"]
    if type(ground_size) is not int:
        raise MatroidError(f"'ground_size' must be an integer, got {ground_size!r}")
    if not isinstance(bases, list) or not all(
            isinstance(b, list) and all(type(e) is int for e in b) for b in bases):
        raise MatroidError("'bases' must be a list of lists of integers")
    return matroid_from_bases(ground_size, bases)
