"""Output checks for every job, against reference.py rather than tropmat.

A check raises CheckFailed with the reason; the runner counts the job as
failed.  Checker keeps what must agree across jobs: relabelled copies of
one graph (and a graph and the uniform matroid it realises) share an
f-vector or a maximal-cell count, and some families have frozen values.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cached_property
from math import factorial

import reference as ref

# frozen answers per (job kind, family)
FROZEN = {
    ("complex", "K4-e"): [14, 78, 172, 180, 73],
    ("complex", "U(2,4)"): [11, 50, 78, 40],
    ("crossval", "K4"): 444,
    ("crossval", "K4-e"): 73,
}


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _point(arr) -> tuple[Fraction, ...]:
    """Canonical coordinates of a JSON point (ints and "p/q" strings)."""
    return ref.canonical([Fraction(str(c)) for c in arr])


def _entries(arr) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(e) for e in arr)


class Reference:
    """Reference answers for one input, each computed on first use."""

    def __init__(self, mat) -> None:
        self.m = mat.ground
        self._mat = mat

    @cached_property
    def bases(self) -> list[frozenset[int]]:
        mat = self._mat
        if mat.graph is not None:
            found = ref.spanning_trees(mat.graph)
        else:
            found = ref.uniform_bases(mat.uniform[0], self.m)
        return sorted(found, key=lambda b: tuple(sorted(b)))

    @cached_property
    def trees(self) -> int:
        mat = self._mat
        return ref.matrix_tree_count(mat.graph) if mat.graph is not None else len(self.bases)

    @cached_property
    def gens(self) -> list[tuple[int, ...]]:
        return ref.generators(self.bases, self.m)

    @cached_property
    def rows(self) -> list:
        return sorted(ref.formula_rows(self.bases, self.m))

    @cached_property
    def pseudovertices(self) -> set:
        return ref.pseudovertex_points(self.bases, self.m)


class Checker:
    def __init__(self, root: str) -> None:
        self.root = root
        self.seen: dict[tuple[str, str], object] = {}
        self._refs: dict[int, Reference] = {}
        self._verified: dict[int, list[str]] = {}

    def _ref(self, job) -> Reference:
        if job.id not in self._refs:
            self._refs[job.id] = Reference(job.matroid)
        return self._refs[job.id]

    def _agree(self, kind: str, family: str, value) -> None:
        frozen = FROZEN.get((kind, family))
        if frozen is not None:
            require(value == frozen, f"{family}: {value} differs from the frozen {frozen}")
        first = self.seen.setdefault((kind, family), value)
        require(value == first, f"{family}: {value} differs from another copy's {first}")

    def check(self, job, outputs: list[str]) -> None:
        """Raise CheckFailed unless the outputs of every command are right."""
        require(len(outputs) == len(job.commands), "missing command output")
        # a later pass that prints exactly what a checked pass printed for
        # the same input is right as well
        if self._verified.get(job.id) == outputs:
            return
        getattr(self, "_check_" + job.kind)(job, outputs)
        self._verified[job.id] = outputs
        # drop the reference data: objects the collector tracks slow down
        # every later full collection inside the timed jobs
        self._refs.pop(job.id, None)

    # -- per job kind ---------------------------------------------------

    def _check_complex(self, job, outputs) -> None:
        r = self._ref(job)
        obj = json.loads(outputs[0])
        fv, cells = obj["f_vector"], obj["cells"]
        d = r.m - 1
        require(obj["n_coords"] == r.m, "wrong torus dimension")
        require(len(fv) == d + 1, "f-vector has the wrong length")
        require(sum(fv) == len(cells), f"sum(f) = {sum(fv)} but {len(cells)} cells")
        euler = sum((-1) ** i * f for i, f in enumerate(fv))
        require(euler == (-1) ** d, f"Euler sum {euler} != (-1)^{d}")
        # the formula assumes rank at least two; on the tropical simplex
        # (rank one) it repeats types, so only the sets of types agree
        if len(r.bases[0]) >= 2:
            require(fv[d] == len(r.rows),
                    f"f_d = {fv[d]} but the formula has {len(r.rows)} rows")
        require({tuple(c["coarse"]) for c in cells if c["dim"] == d} == {t for _, t in r.rows},
                "maximal-cell coarse types differ from the formula's")
        types = set()
        zero_cells = set()
        by_dim = [0] * (d + 1)
        for cell in cells:
            witness = _point(cell["witness"])
            entries = _entries(cell["type"])
            require(ref.fine_type(witness, r.gens) == entries,
                    f"witness {cell['witness']} does not have type {cell['type']}")
            dim = ref.type_dimension(entries)
            require(cell["dim"] == dim, f"cell of type {cell['type']} has dim {dim}")
            require(cell["bounded"] == all(entries), "wrong boundedness")
            require(cell["coarse"] == [len(e) for e in entries], "wrong coarse type")
            types.add(entries)
            by_dim[dim] += 1
            if dim == 0:
                zero_cells.add(witness)
        require(len(types) == len(cells), "a cell type is listed twice")
        require(by_dim == fv, f"cells per dimension {by_dim} != f-vector {fv}")
        require(zero_cells == r.pseudovertices, "0-cells and pseudovertices disagree")
        self._agree("complex", job.matroid.family, fv)

    def _check_bounded(self, r, text: str) -> None:
        cells = json.loads(text)["bounded_cells"]
        m, bases = r.m, r.bases
        rank = len(bases[0])
        want = r.trees * factorial(m - rank)
        require(len(cells) == want, f"{len(cells)} bounded cells, want |B|(n-r)! = {want}")
        require(len({tuple(c["sequence"]) for c in cells}) == len(cells),
                "a bounded-cell sequence repeats")
        index = {b: i for i, b in enumerate(bases, start=1)}
        # the chain's average, scaled by its length to stay in integers
        length = m - rank + 1
        scaled = [tuple(length * x for x in g) for g in r.gens]
        for c in cells:
            seq = c["sequence"]
            basis = frozenset(range(1, m + 1)) - set(seq)
            require(c["basis_index"] == index.get(basis),
                    f"sequence {seq} does not end at basis B{c['basis_index']}")
            # 0, e_{i_1}, e_{i_1 i_2}, ... ending at the generator of the basis
            chain = [[1 if i in seq[:k] else 0 for i in range(1, m + 1)] for k in range(length)]
            require([_point(p) for p in c["chain"]] == [_point(p) for p in chain],
                    f"chain of {seq} is wrong")
            total = [sum(p[j] for p in chain) for j in range(m)]
            require(ref.fine_type(total, scaled) == _entries(c["interior_type"]),
                    f"interior type of {seq} is wrong")

    def _check_crossval(self, job, outputs) -> None:
        r = self._ref(job)
        cv = json.loads(outputs[0])
        require(cv["ok"] and cv["multiset_equal"], "cross validation failed")
        require(not cv["only_enumerated"] and not cv["only_formula"], "unmatched coarse types")
        require(cv["cell_count"] == cv["formula_count"] == len(r.rows),
                f"{cv['cell_count']} cells, {cv['formula_count']} formula rows, "
                f"reference has {len(r.rows)}")
        self._agree("crossval", job.matroid.family, cv["cell_count"])
        self._check_bounded(r, outputs[1])

    def _check_ideal(self, job, outputs) -> None:
        r = self._ref(job)
        obj = json.loads(outputs[0])
        gens = [tuple(g) for g in obj["generators"]]
        require(obj["n_vars"] == r.m and obj["first_var"] == 1, "wrong variables")
        require(gens == sorted(set(gens)), "generators not sorted and distinct")
        require(set(gens) == {t for _, t in r.rows},
                "generators differ from the formula's distinct coarse types")
        # every generator has degree |B|, and distinct monomials of one
        # degree never divide each other, so the set is minimal
        require(all(sum(g) == r.trees for g in gens), "generators are not all of degree |B|")
        require(obj["minimal"] is True, "ideal reported as not minimal")
        if job.matroid.graph == ref.RUNNING_EXAMPLE:
            path = os.path.join(self.root, "tests", "data", "running_example_ideal.json")
            with open(path, encoding="utf-8") as fh:
                frozen = sorted(tuple(g) for g in json.load(fh)["generators"])
            require(gens == frozen, "running example ideal differs from the frozen generators")
            require(len(gens) == 73, f"running example ideal has {len(gens)} generators")
        self._agree("ideal", job.matroid.family, len(gens))

    def _check_formula(self, job, outputs) -> None:
        r = self._ref(job)
        rows = sorted((tuple(o["sequence"]), tuple(o["coarse"])) for o in json.loads(outputs[0]))
        require(rows == r.rows, "formula rows differ from the reference formula")
        self._check_polytope(job, outputs[1:])

    def _check_polytope(self, job, outputs) -> None:
        r = self._ref(job)
        self._check_bounded(r, outputs[0])
        pvs = json.loads(outputs[1])["pseudovertices"]
        points = {_point(pv["point"]) for pv in pvs}
        require(len(points) == len(pvs), "a pseudovertex repeats")
        require(points == r.pseudovertices, "pseudovertices differ from the reference")
        for pv in pvs:
            require(ref.fine_type(_point(pv["point"]), r.gens) == _entries(pv["type"]),
                    f"pseudovertex {pv['label']} has the wrong type")

    def _check_bases(self, job, outputs) -> None:
        r = self._ref(job)
        obj = json.loads(outputs[0])
        got = [frozenset(b) for b in obj["bases"]]
        require(obj["ground_size"] == r.m, "wrong ground size")
        require(len(got) == r.trees,
                f"{len(got)} bases but the matrix-tree theorem gives {r.trees}")
        require(got == r.bases, "bases differ from the spanning trees")

    def _check_hypersimplex(self, job, outputs) -> None:
        k, d = job.matroid.uniform
        members = json.loads(outputs[0])
        want = ref.hypersimplex_halfspace_count(k, d)
        require(len(members) == want, f"{len(members)} halfspaces, want {want}")
        got = sorted((_point(h["apex"]), tuple(h["sectors"])) for h in members)
        require(got == sorted(ref.hypersimplex_members(k, d)), "unexpected halfspaces")
        for text in outputs[1:-1]:
            require(json.loads(text)["minimal"] is True, "a member is not minimal")
        report = json.loads(outputs[-1])
        require(report["ok"] and not report["counterexamples"] and report["probes"] > 0,
                "exterior description not verified")

