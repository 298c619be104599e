"""Seeded graphs and reference computations that share no code with tropmat.

Everything here is exact (int or Fraction) and written from the
definitions: spanning trees by union-find over edge subsets, their number
by the matrix-tree theorem, fine types by taking minima, and the
coarse-type formula by a DFS over sequences.  The output checks in
checks.py compare tropmat's answers with these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

Graph = tuple[tuple[str, ...], tuple[tuple[str, str], ...]]

# the bundled five-edge running example, with its own labels
RUNNING_EXAMPLE: Graph = (("a", "b", "c", "d"),
                          (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "b")))


# ---------------------------------------------------------------------------
# graphs


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_bridgeless_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if not _connected(n, edges):
        return False
    return all(_connected(n, edges[:i] + edges[i + 1:]) for i in range(len(edges)))


def random_graph(rng: random.Random, n_vertices: int, n_edges: int) -> list[tuple[int, int]]:
    """A uniformly drawn simple, connected, bridgeless edge set on 0..n-1."""
    pairs = list(combinations(range(n_vertices), 2))
    if not n_vertices <= n_edges <= len(pairs):
        raise ValueError(f"no bridgeless graph with {n_vertices} vertices and {n_edges} edges")
    while True:
        edges = rng.sample(pairs, n_edges)
        if is_bridgeless_connected(n_vertices, edges):
            return edges


def relabel(rng: random.Random, n_vertices: int, edges: list[tuple[int, int]]) -> Graph:
    """Shuffle vertex names, edge order (the edge labels) and edge ends."""
    names = [f"v{i}" for i in range(n_vertices)]
    rng.shuffle(names)
    out = []
    for u, v in edges:
        a, b = names[u], names[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return tuple(sorted(names)), tuple(out)


def graph_json(g: Graph) -> dict:
    return {"vertices": list(g[0]), "edges": [list(e) for e in g[1]]}


# ---------------------------------------------------------------------------
# bases


def spanning_trees(g: Graph) -> list[frozenset[int]]:
    """Edge-label sets (1-based) of all spanning trees, by subset scan."""
    vidx = {v: i for i, v in enumerate(g[0])}
    ends = [(vidx[u], vidx[v]) for u, v in g[1]]
    n = len(g[0])
    out = []
    for combo in combinations(range(len(ends)), n - 1):
        root = list(range(n))

        def find(a: int) -> int:
            while root[a] != a:
                a = root[a]
            return a

        for e in combo:
            ru, rv = find(ends[e][0]), find(ends[e][1])
            if ru == rv:
                break
            root[ru] = rv
        else:
            out.append(frozenset(e + 1 for e in combo))
    return out


def uniform_bases(k: int, m: int) -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(range(1, m + 1), k)]


def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees: determinant of the reduced Laplacian."""
    vidx = {v: i for i, v in enumerate(g[0])}
    n = len(g[0])
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g[1]:
        a, b = vidx[u], vidx[v]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


# ---------------------------------------------------------------------------
# min-plus types


def generators(bases: list[frozenset[int]], m: int) -> list[tuple[int, ...]]:
    """The 0/1 vector of each basis: 0 on the basis, 1 off it."""
    return [tuple(0 if i in b else 1 for i in range(1, m + 1)) for b in bases]


def fine_type(x, gens) -> tuple[frozenset[int], ...]:
    """Entry k holds the (1-based) generators whose g - x is least at k."""
    entries: list[set[int]] = [set() for _ in x]
    for idx, g in enumerate(gens, start=1):
        diffs = [gc - xc for gc, xc in zip(g, x)]
        low = min(diffs)
        for k, dk in enumerate(diffs):
            if dk == low:
                entries[k].add(idx)
    return tuple(frozenset(e) for e in entries)


def type_dimension(entries) -> int:
    """Components of the coordinate graph joining meeting entries, minus one."""
    n = len(entries)
    comp = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if entries[i] & entries[j]:
                old, new = comp[j], comp[i]
                comp = [new if c == old else c for c in comp]
    return len(set(comp)) - 1


def canonical(x) -> tuple[Fraction, ...]:
    low = min(x)
    return tuple(Fraction(c) - low for c in x)


def pseudovertex_points(bases: list[frozenset[int]], m: int) -> set[tuple[Fraction, ...]]:
    """Points -e_J (0 on J, 1 off J) for unions J of bases whose type is 0-dimensional."""
    closure = set(bases)
    frontier = set(bases)
    while frontier:
        frontier = {j | b for j in frontier for b in bases} - closure
        closure |= frontier
    gens = generators(bases, m)
    out = set()
    for j in closure:
        x = tuple(0 if i in j else 1 for i in range(1, m + 1))
        if type_dimension(fine_type(x, gens)) == 0:
            out.add(canonical(x))
    return out


# ---------------------------------------------------------------------------
# the coarse-type formula


def formula_rows(bases: list[frozenset[int]],
                 m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(sequence, coarse type) rows of the maximal-cell formula, by a DFS.

    A prefix (i_1..i_l) is extended while some basis avoids it, up to
    length m - r; each prefix gives one row per further coordinate.
    Counts are read off the bases that avoid the prefix, held as bitmasks.
    """
    masks = [sum(1 << (i - 1) for i in b) for b in bases]
    rank = len(bases[0])
    rows = []

    def containing(i: int, among: list[int]) -> int:
        return sum(1 for b in among if b >> (i - 1) & 1)

    def visit(prefix: tuple[int, ...], avoiding: list[int], later: list[tuple[int, int]]) -> None:
        # avoiding: bases disjoint from prefix; later: (coordinate, entry)
        # for prefix[1:], each counted among the bases avoiding its own prefix
        for last in range(1, m + 1):
            if last in prefix:
                continue
            t = [0] * m
            first = prefix[0] if prefix else last
            t[first - 1] = containing(first, masks) + len(avoiding) - containing(last, avoiding)
            for i, c in later:
                t[i - 1] = c
            if prefix:
                t[last - 1] = containing(last, avoiding)
            rows.append((prefix + (last,), tuple(t)))
        if len(prefix) == m - rank:
            return
        for nxt in range(1, m + 1):
            if nxt in prefix:
                continue
            rest = [b for b in avoiding if not b >> (nxt - 1) & 1]
            if rest:
                entry = [(nxt, containing(nxt, avoiding))] if prefix else []
                visit(prefix + (nxt,), rest, later + entry)

    visit((), masks, [])
    return rows


# ---------------------------------------------------------------------------
# hypersimplex halfspaces


def hypersimplex_halfspace_count(k: int, d: int) -> int:
    return d + 1 + (comb(d + 1, d - k + 2) if k >= 2 else 0)


def hypersimplex_members(k: int, d: int) -> list[tuple[tuple[Fraction, ...], tuple[int, ...]]]:
    """(canonical apex, sectors) of the exterior description of U(k, d+1):
    the d+1 corners, plus apex 0 with every (d-k+2)-set of sectors for k >= 2."""
    m = d + 1
    gens = generators(uniform_bases(k, m), m)
    out = []
    for i in range(m):
        corner = [min(g[j] - g[i] for g in gens) for j in range(m)]
        out.append((canonical(corner), (i + 1,)))
    if k >= 2:
        out += [((Fraction(0),) * m, c) for c in combinations(range(1, m + 1), d - k + 2)]
    return out
