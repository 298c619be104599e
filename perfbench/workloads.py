"""The three workloads: seeded inputs and the fixed job mix of one pass.

A job is one or more tropmat CLI commands run back to back.  Each random
graph class is (vertices, edges, spanning trees): one graph is drawn
uniformly among simple, connected, bridgeless graphs of that size, kept
only when its tree count matches, from a random stream keyed by the class
alone.  Every seed thus gets the same graph up to relabelling, and neither
the work of a class nor the set-up (the rejection draws) depends on the
seed.  Edge order (the edge labels), edge ends and vertex names are
shuffled by the seed.  A family groups inputs that must give the
same answers: relabelled copies of one graph, or a graph and the uniform
matroid it realises.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import reference as ref

# Large enough for every input below; the default (d+1)^n cap rejects the
# crossval graphs although their search ends within seconds.
CAP = str(10**30)


@dataclass
class Matroid:
    """One input: a graph written to a file, or a uniform matroid."""

    family: str
    graph: ref.Graph | None = None
    uniform: tuple[int, int] | None = None   # (k, d): rank k, ground d+1
    path: str | None = None

    def argv(self) -> list[str]:
        if self.graph is not None:
            return ["--graph", self.path]
        k, d = self.uniform
        return ["--uniform", str(k), str(d)]

    @property
    def ground(self) -> int:
        return len(self.graph[1]) if self.graph is not None else self.uniform[1] + 1


@dataclass
class Job:
    id: int
    kind: str
    matroid: Matroid
    commands: list[list[str]]

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.matroid.family}"


def _graph_class(n_vertices: int, n_edges: int, n_trees: int) -> list[tuple[int, int]]:
    rng = random.Random(f"graph:{n_vertices}:{n_edges}:{n_trees}")
    while True:
        edges = ref.random_graph(rng, n_vertices, n_edges)
        if ref.matrix_tree_count((tuple(range(n_vertices)), tuple(edges))) == n_trees:
            return edges


def _commands(kind: str, mat: Matroid) -> list[list[str]]:
    src = mat.argv()
    fmt = ["--format", "json"]
    if kind == "complex":
        return [["complex", *fmt, "--cap", CAP, *src]]
    if kind == "crossval":
        return [["coarse-types", "--cross-validate", *fmt, "--cap", CAP, *src],
                ["bounded-cells", *fmt, *src]]
    if kind == "ideal":
        return [["ideal", *fmt, *src]]
    if kind == "polytope":
        return [["bounded-cells", *fmt, *src], ["pseudovertices", *fmt, *src]]
    if kind == "formula":
        return [["coarse-types", "--formula", *fmt, *src], *_commands("polytope", mat)]
    if kind == "bases":
        return [["bases", *fmt, *src]]
    if kind == "hypersimplex":
        k, d = mat.uniform
        cmds = [["hypersimplex-halfspaces", "-k", str(k), "-d", str(d), *fmt]]
        for apex, sectors in ref.hypersimplex_members(k, d):
            cmds.append(["check-minimal", *src, *fmt,
                         "--apex", ",".join(str(c) for c in apex),
                         "--sectors", ",".join(str(s) for s in sectors)])
        cmds.append(["verify-exterior", *src, *fmt])
        return cmds
    raise ValueError(f"unknown job kind {kind!r}")


# (kind, family, source, copies); a source is ("graph", v, e, trees),
# ("uniform", k, d) or ("running-example",).  The copies of a graph
# source are relabellings of one drawn graph.  Copy counts are chosen so
# that, ranked by cost, the 25% and 50% points of a pass fall inside a
# band of one input class, not on the border between two classes.
MIXES: dict[str, list[tuple]] = {
    # face closure heavy: the full complex of small polytopes
    "complex": [
        ("complex", "K4-e", ("graph", 4, 5, 8), 1),
        ("complex", "C5", ("graph", 5, 5, 5), 5),
        ("complex", "U(2,4)", ("uniform", 2, 3), 2),
        ("complex", "U(1,4)", ("uniform", 1, 3), 1),
        ("complex", "U(3,4)", ("graph", 4, 4, 4), 2),
        ("complex", "U(3,4)", ("uniform", 3, 3), 1),
        ("complex", "U(2,3)", ("graph", 3, 3, 3), 1),
        ("complex", "U(2,3)", ("uniform", 2, 2), 1),
    ],
    # maximal-cell search heavy: formula against enumeration, no face closure
    "crossval": [
        ("crossval", "5v7e", ("graph", 5, 7, 21), 1),
        ("crossval", "K4", ("graph", 4, 6, 16), 2),
        ("crossval", "6v7e", ("graph", 6, 7, 14), 4),
        ("crossval", "5v6e", ("graph", 5, 6, 11), 4),
        ("crossval", "K4-e", ("graph", 4, 5, 8), 5),
    ],
    # closed forms only: ideal minimality, formula, bounded cells,
    # pseudovertices, bases and the exchange check, halfspaces.  Six heavy
    # jobs, six U(k,4) hypersimplex jobs in the middle (so the median
    # falls well inside one band of inputs the seed does not change), six
    # light ones.
    "closed-form": [
        ("ideal", "6v8e", ("graph", 6, 8, 28), 1),
        ("ideal", "5v7e", ("graph", 5, 7, 20), 1),
        ("formula", "6v9e", ("graph", 6, 9, 52), 1),
        ("polytope", "7v10e", ("graph", 7, 10, 76), 1),
        ("bases", "6v12e", ("graph", 6, 12, 336), 1),
        ("hypersimplex", "U(2,5)", ("uniform", 2, 4), 1),
        ("hypersimplex", "U(1,4)", ("uniform", 1, 3), 2),
        ("hypersimplex", "U(2,4)", ("uniform", 2, 3), 2),
        ("hypersimplex", "U(3,4)", ("uniform", 3, 3), 2),
        ("ideal", "K4-e", ("running-example",), 1),
        ("formula", "5v7e", ("graph", 5, 7, 21), 1),
        ("formula", "K4-e", ("running-example",), 1),
        ("bases", "5v8e", ("graph", 5, 8, 40), 1),
        ("bases", "5v7e", ("graph", 5, 7, 21), 1),
        ("bases", "K4", ("graph", 4, 6, 16), 1),
    ],
}


def build(mix: list[tuple], seed: str, workdir: str) -> list[Job]:
    """Generate the inputs of one pass of a mix, write the graph files, and
    return the jobs in their seeded order."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    for kind, family, source, copies in mix:
        if source[0] == "graph":
            edges = _graph_class(*source[1:])
        for _ in range(copies):
            if source[0] == "uniform":
                mat = Matroid(family, uniform=(source[1], source[2]))
            else:
                g = ref.RUNNING_EXAMPLE if source[0] == "running-example" \
                    else ref.relabel(rng, source[1], edges)
                path = os.path.join(workdir, f"g{len(jobs)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(ref.graph_json(g), fh)
                mat = Matroid(family, graph=g, path=path)
            jobs.append(Job(len(jobs), kind, mat, _commands(kind, mat)))
    rng.shuffle(jobs)
    return jobs
