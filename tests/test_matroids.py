import json
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmat import (
    BridgeEdgeError,
    DisconnectedGraphError,
    GraphFormatError,
    LoopEdgeError,
    ParallelEdgeError,
    check_exchange,
    enumerate_bases,
    matroid_from_bases,
    non_bases,
    parse_bases,
    parse_graph,
    uniform_matroid,
)
from tropmat.matroids import LabeledGraph, MatroidError

from oracles import count_b


def _spanning_trees_exhaustive(graph: LabeledGraph) -> list[frozenset[int]]:
    """Oracle for enumerate_bases: scan every (|V|-1)-subset of edges and
    keep the acyclic ones, by union-find."""
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    n_vertices = len(graph.vertices)
    k = n_vertices - 1
    out = []
    for combo in combinations(range(len(graph.edges)), k):
        parent = list(range(n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for ei in combo:
            u, v = graph.edges[ei]
            ru, rv = find(vidx[u]), find(vidx[v])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            out.append(frozenset(ei + 1 for ei in combo))
    return out


RUNNING_BASES = [
    {1, 2, 4},
    {1, 2, 5},
    {1, 3, 4},
    {1, 3, 5},
    {1, 4, 5},
    {2, 3, 4},
    {2, 3, 5},
    {3, 4, 5},
]


def graph(vertices, edges):
    return parse_graph(json.dumps({"vertices": vertices, "edges": edges}))


class TestGraphValidation:
    def test_format_errors(self):
        with pytest.raises(GraphFormatError):
            parse_graph(json.dumps([1, 2]))
        with pytest.raises(GraphFormatError):
            parse_graph(json.dumps({"vertices": ["a"]}))
        with pytest.raises(GraphFormatError):
            graph(["a", "a"], [])
        with pytest.raises(GraphFormatError):
            graph(["a", "b"], [["a", "z"]])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            graph(["a", "b"], [["a", "a"], ["a", "b"]])

    def test_parallel_rejected(self):
        with pytest.raises(ParallelEdgeError):
            graph(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            graph(
                ["a", "b", "c", "d", "e", "f"],
                [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], ["e", "f"], ["f", "d"]],
            )

    def test_bridge_rejected(self):
        with pytest.raises(BridgeEdgeError):
            graph(
                ["a", "b", "c", "d"],
                [["a", "b"], ["b", "c"], ["c", "a"], ["c", "d"]],
            )


class TestSpanningTrees:
    def test_running_example_bases_in_order(self, running_matroid):
        assert running_matroid.ground_size == 5
        assert running_matroid.rank == 3
        assert [set(b) for b in running_matroid.bases] == RUNNING_BASES

    def test_running_example_non_bases(self, running_matroid):
        assert [set(s) for s in non_bases(running_matroid)] == [{1, 2, 3}, {2, 4, 5}]

    def test_triangle(self):
        m = enumerate_bases(graph(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]))
        assert len(m.bases) == 3
        assert m.rank == 2

    def test_k4(self, k4_matroid):
        assert len(k4_matroid.bases) == 16
        assert k4_matroid.ground_size == 6
        assert k4_matroid.rank == 3

    def test_both_enumeration_strategies_agree(self, running_graph, k4_graph):
        for g in (running_graph, k4_graph):
            assert set(_spanning_trees_exhaustive(g)) == set(enumerate_bases(g).bases)


def _connected_oracle(n: int, edges: list[tuple[int, int]]) -> bool:
    """Depth-first search from vertex 0 over an edge list on 0..n-1."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(3, 6))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=1, unique=True))
    return n, edges


class TestRandomGraphs:
    @given(simple_graphs())
    @settings(max_examples=40, deadline=None)
    def test_validation_and_trees_against_oracles(self, nv_edges):
        n, edges = nv_edges
        obj = {"vertices": [str(v) for v in range(n)],
               "edges": [[str(u), str(v)] for u, v in edges]}
        if not _connected_oracle(n, edges):
            with pytest.raises(DisconnectedGraphError):
                parse_graph(json.dumps(obj))
        elif any(not _connected_oracle(n, edges[:i] + edges[i + 1:]) for i in range(len(edges))):
            with pytest.raises(BridgeEdgeError):
                parse_graph(json.dumps(obj))
        else:
            g = parse_graph(json.dumps(obj))
            assert set(enumerate_bases(g).bases) == set(_spanning_trees_exhaustive(g))


class TestMatroidConstruction:
    def test_from_bases_round_trip(self, running_matroid):
        m = matroid_from_bases(5, [sorted(b) for b in RUNNING_BASES])
        assert m.bases == running_matroid.bases

    def test_json_parse(self):
        m = parse_bases('{"ground_size": 3, "bases": [[1, 2], [2, 3], [1, 3]]}')
        assert m.rank == 2
        with pytest.raises(MatroidError):
            parse_bases('{"bases": [[1, 2]]}')

    def test_empty_rejected(self):
        with pytest.raises(MatroidError, match="empty"):
            matroid_from_bases(3, [])

    def test_unequal_cardinalities_rejected(self):
        with pytest.raises(MatroidError, match="unequal"):
            matroid_from_bases(3, [[1, 2], [3]])

    def test_out_of_range_rejected(self):
        with pytest.raises(MatroidError, match="leaves the ground set"):
            matroid_from_bases(3, [[1, 4]])

    def test_exchange_violation_rejected(self):
        # {1,2} and {3,4} cannot exchange into a listed basis
        with pytest.raises(MatroidError, match="exchange"):
            matroid_from_bases(4, [[1, 2], [3, 4]])

    def test_uncovered_element_rejected(self):
        with pytest.raises(MatroidError, match="no basis"):
            matroid_from_bases(3, [[1, 2]])

    def test_coloop_rejected(self):
        with pytest.raises(MatroidError, match="every basis"):
            matroid_from_bases(3, [[1, 2], [1, 3]])

    def test_uniform(self):
        m = uniform_matroid(2, 4)
        assert len(m.bases) == comb(4, 2)
        assert check_exchange(m.bases)
        with pytest.raises(MatroidError):
            uniform_matroid(0, 3)
        with pytest.raises(MatroidError):
            uniform_matroid(3, 3)

    def test_exchange_on_fixtures(self, running_matroid, k4_matroid):
        assert check_exchange(running_matroid.bases)
        assert check_exchange(k4_matroid.bases)


class TestBasisCounts:
    def test_simple_counts(self, running_matroid):
        m = running_matroid
        assert count_b(m, {1}, ()) == 5
        assert count_b(m, (), {1}) == 3
        assert count_b(m, {1, 2}, {3}) == 2
        assert count_b(m, (), ()) == 8

    def test_overlap_rejected(self, running_matroid):
        with pytest.raises(ValueError):
            count_b(running_matroid, {1}, {1})
        with pytest.raises(ValueError):
            count_b(running_matroid, {9}, ())

    @given(st.integers(min_value=2, max_value=4), st.data())
    def test_deletion_contraction_recursion(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        m = uniform_matroid(k, n)
        ground = list(range(1, n + 1))
        i = data.draw(st.sets(st.sampled_from(ground), max_size=n - 1))
        rest = [x for x in ground if x not in i]
        j = data.draw(st.sets(st.sampled_from(rest), max_size=len(rest) - 1)
                      if rest else st.just(set()))
        free = [x for x in ground if x not in i and x not in j]
        if not free:
            return
        x = free[0]
        assert count_b(m, i, j) == count_b(m, i | {x}, j) + count_b(m, i, j | {x})
