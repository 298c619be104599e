"""Command line front end.

Input is a graph (JSON file), an explicit basis list (JSON file), or a
uniform matroid given by rank and torus dimension.  Every subcommand prints
deterministically; --format switches between readable text and JSON, except
that skeleton always prints Graphviz DOT and check always prints text.

Exit codes: 0 on success, 1 on invalid input or arguments, 2 when a
cross validation or internal consistency check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from math import comb

from .cells import (
    DEFAULT_CAP,
    compare_coarse_types,
    cross_validate,
    enumerate_all_cells,
    enumerate_maximal_cells,
    hypersimplex_coarse_types,
    maximal_cell_coarse_types,
)
from .halfspaces import (
    hypersimplex_halfspaces,
    inequality_str,
    is_minimal_halfspace,
    verify_exterior_description,
)
from .ideals import (
    ideal_generators,
    is_minimal_generating,
    monomial_str,
)
from .matroids import (
    MatroidError,
    enumerate_bases,
    non_bases,
    parse_bases,
    parse_graph,
    uniform_matroid,
)
from .minplus import (
    TropicalHalfspace,
    TropicalPoint,
    corner_point,
    fine_type,
)
from .polytopes import (
    build_polytope,
    maximal_bounded_cells,
    pseudovertex_label,
    pseudovertices,
    skeleton_dot,
)

class CheckFailure(RuntimeError):
    """An invariant of the full validation suite does not hold."""


# ---------------------------------------------------------------------------
# formatting


def _fmt_point(pt: TropicalPoint) -> str:
    return "(" + ", ".join(str(c) for c in pt.coords) + ")"


def _fmt_set(s) -> str:
    return "{" + ", ".join(str(i) for i in sorted(s)) + "}"


def _fmt_type(ft) -> str:
    """(12345, 1267, ...) when indices are single digits, brace sets otherwise."""
    if all(i <= 9 for i in ft.union()):
        body = ", ".join("".join(str(i) for i in sorted(e)) or "-" for e in ft.entries)
    else:
        body = ", ".join(_fmt_set(e) for e in ft.entries)
    return "(" + body + ")"


def _emit(args, text, obj) -> None:
    """Print the lines text() or the JSON of obj(), whichever --format asks
    for; the other form is never built."""
    if args.format == "json":
        print(json.dumps(obj(), sort_keys=True))
    else:
        for line in text():
            print(line)


# ---------------------------------------------------------------------------
# input loading


def _load_matroid(args):
    kinds = [args.graph is not None, args.bases is not None, args.uniform is not None]
    if sum(kinds) != 1:
        raise MatroidError("exactly one of --graph, --bases, --uniform is required")
    if args.graph is not None:
        with open(args.graph, encoding="utf-8") as fh:
            return enumerate_bases(parse_graph(fh.read()))
    if args.bases is not None:
        with open(args.bases, encoding="utf-8") as fh:
            return parse_bases(fh.read())
    k, d = args.uniform
    return uniform_matroid(k, d + 1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bases(args) -> int:
    m = _load_matroid(args)
    head = f"ground size {m.ground_size}, rank {m.rank}, {len(m.bases)} bases"
    _emit(args, lambda: [head] + [f"B{i + 1} = {_fmt_set(b)}" for i, b in enumerate(m.bases)],
          m.to_json_obj)
    return 0


def _cmd_nonbases(args) -> int:
    m = _load_matroid(args)
    nb = non_bases(m)
    _emit(args, lambda: [f"{len(nb)} non bases"] + [_fmt_set(s) for s in nb],
          lambda: {"non_bases": [sorted(s) for s in nb]})
    return 0


def _cmd_generators(args) -> int:
    p = build_polytope(_load_matroid(args))
    _emit(args, lambda: [f"v{i + 1} = {_fmt_point(v)}" for i, v in enumerate(p.generators)],
          lambda: {"generators": [v.to_json() for v in p.generators]})
    return 0


def _cmd_origin_type(args) -> int:
    p = build_polytope(_load_matroid(args))
    ft = p.origin_type
    _emit(args, lambda: [f"type at 0: {_fmt_type(ft)}", f"coarse: {ft.coarse()}"],
          ft.to_json)
    return 0


def _cmd_corners(args) -> int:
    p = build_polytope(_load_matroid(args))
    corners = [(i, corner_point(p.generators, i)) for i in range(1, p.n_coords + 1)]
    _emit(args, lambda: [f"c_{i} = {_fmt_point(c)}" for i, c in corners],
          lambda: {"corners": [{"index": i, "point": c.to_json()} for i, c in corners]})
    return 0


def _cmd_pseudovertices(args) -> int:
    p = build_polytope(_load_matroid(args))
    pvs = [(pseudovertex_label(p, pv), pv) for pv in pseudovertices(p)]
    _emit(
        args,
        lambda: [f"{len(pvs)} pseudovertices"] + [
            f"{label}: {_fmt_point(pv.point)} type {_fmt_type(pv.fine_type)}"
            for label, pv in pvs
        ],
        lambda: {"pseudovertices": [
            {
                "label": label,
                "support": sorted(pv.support),
                "point": pv.point.to_json(),
                "type": pv.fine_type.to_json(),
            }
            for label, pv in pvs
        ]},
    )
    return 0


def _cmd_bounded_cells(args) -> int:
    p = build_polytope(_load_matroid(args))
    cells = maximal_bounded_cells(p)
    _emit(
        args,
        lambda: [f"{len(cells)} maximal bounded cells"] + [
            f"sequence ({', '.join(str(i) for i in bc.sequence)}) basis B{bc.basis_index}"
            f" interior type {_fmt_type(bc.interior_type)}"
            for bc in cells
        ],
        lambda: {"bounded_cells": [
            {
                "sequence": list(bc.sequence),
                "basis_index": bc.basis_index,
                "chain": bc.chain,
                "interior_type": bc.interior_type.to_json(),
            }
            for bc in cells
        ]},
    )
    return 0


def _cmd_complex(args) -> int:
    p = build_polytope(_load_matroid(args))
    cx = enumerate_all_cells(p, cap=args.cap)
    fv = list(cx.f_vector)
    if args.with_empty_face:
        fv = [1] + fv
    if args.fvector:
        _emit(args, lambda: [str(fv)], lambda: fv)
        return 0
    _emit(
        args,
        lambda: [f"f-vector {fv}", f"{len(cx.cells)} cells"] + [
            f"dim {rec.dim} {'bounded' if rec.bounded else 'unbounded'}"
            f" type {_fmt_type(rec.fine_type)}"
            for rec in cx.cells
        ],
        lambda: {
            "n_coords": cx.n_coords,
            "f_vector": fv,
            "cells": [rec.to_json_obj() for rec in cx.cells],
        },
    )
    return 0


def _cmd_coarse_types(args) -> int:
    modes = [args.formula, args.brute, args.cross_validate]
    if sum(modes) != 1:
        raise MatroidError("pick exactly one of --formula, --brute, --cross-validate")
    if args.formula:
        m = _load_matroid(args)
        rows = maximal_cell_coarse_types(m)
        head = f"{len(rows)} coarse types from the counting formula"
        _emit(args, lambda: [head] + [f"sequence {seq}: {t}" for seq, t in rows],
              lambda: [{"sequence": list(seq), "coarse": list(t)} for seq, t in rows])
        return 0
    p = build_polytope(_load_matroid(args))
    if args.brute:
        recs = enumerate_maximal_cells(p, cap=args.cap)
        _emit(args, lambda: [f"{len(recs)} maximal cells by enumeration"]
              + [str(rec.coarse) for rec in recs], lambda: [list(rec.coarse) for rec in recs])
        return 0
    report = cross_validate(p, cap=args.cap)
    _emit(args, lambda: [report.summary()], report.to_json_obj)
    return 0 if report.ok else 2


def _cmd_ideal(args) -> int:
    m = _load_matroid(args)
    ideal = ideal_generators(m)
    _emit(
        args,
        lambda: [f"{len(ideal.generators)} generators in {ideal.n_vars} variables"] + [
            monomial_str(t, zero_based=args.zero_based_vars) for t in ideal.generators
        ],
        lambda: {
            "n_vars": ideal.n_vars,
            "first_var": 0 if args.zero_based_vars else 1,
            "minimal": is_minimal_generating(ideal),
            "generators": [list(t) for t in ideal.generators],
        },
    )
    return 0


def _cmd_hypersimplex_halfspaces(args) -> int:
    system = hypersimplex_halfspaces(args.k, args.d)
    head = f"{len(system)} halfspaces for the uniform matroid ({args.k}, {args.d})"
    _emit(args, lambda: [head] + [inequality_str(h) for h in system], system.to_json_obj)
    return 0


def _parse_apex(text: str, n_coords: int) -> TropicalPoint:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n_coords:
        raise MatroidError(f"apex needs {n_coords} comma separated coordinates")
    return TropicalPoint(parts)


def _cmd_check_minimal(args) -> int:
    p = build_polytope(_load_matroid(args))
    apex = _parse_apex(args.apex, p.n_coords)
    sectors = frozenset(int(s) for s in args.sectors.split(","))
    h = TropicalHalfspace(apex, sectors)
    minimal = is_minimal_halfspace(h, p.generators)
    _emit(args, lambda: [f"{inequality_str(h)}: {'minimal' if minimal else 'not minimal'}"],
          lambda: {"inequality": inequality_str(h), "minimal": minimal})
    return 0


def _cmd_verify_exterior(args) -> int:
    if args.uniform is None:
        raise MatroidError("verify-exterior needs --uniform K D")
    k, d = args.uniform
    p = build_polytope(uniform_matroid(k, d + 1))
    system = hypersimplex_halfspaces(k, d)
    report = verify_exterior_description(system, p.generators)
    _emit(args, lambda: [
        f"{report.probes} probes, {len(report.counterexamples)} counterexamples",
        "exterior description verified" if report.ok else "exterior description FAILED",
    ], report.to_json_obj)
    return 0 if report.ok else 2


def _cmd_skeleton(args) -> int:
    p = build_polytope(_load_matroid(args))
    cx = enumerate_all_cells(p, cap=args.cap)
    print(skeleton_dot(p, cx.cells))
    return 0


# ---------------------------------------------------------------------------
# the aggregated validation suite


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def _check_polytope(name: str, m, cap: int) -> list[str]:
    notes = []
    p = build_polytope(m)
    d, k = p.n_coords - 1, m.rank

    pvs = pseudovertices(p)
    for pv in pvs:
        _require(fine_type(pv.point, p.generators).entries == pv.fine_type.entries,
                 f"{name}: pseudovertex type mismatch at its own point")
    bounded = maximal_bounded_cells(p)
    notes.append(f"{len(pvs)} pseudovertices, {len(bounded)} bounded cells")

    cx = enumerate_all_cells(p, cap=cap)
    report = compare_coarse_types([rec for rec in cx.cells if rec.dim == d], m)
    _require(report.ok, f"{name}: formula and enumeration disagree")
    # open cells decompose the torus, a copy of R^d, so the alternating
    # sum is its compactly supported Euler characteristic
    euler = sum((-1) ** i * c for i, c in enumerate(cx.f_vector))
    _require(euler == (-1) ** d, f"{name}: Euler characteristic {euler} != (-1)^{d}")
    zero_cells = {rec.witness for rec in cx.cells if rec.dim == 0}
    _require(zero_cells == {pv.point for pv in pvs},
             f"{name}: 0-cells and pseudovertices disagree")
    # the polytope is the union of its bounded cells and is contractible
    # (Develin & Sturmfels 2004): the closed form's cells are the maximal
    # ones, and the bounded cells sum to Euler characteristic one
    cells_in_p = [rec for rec in cx.cells if rec.bounded]
    _require(Counter(bc.interior_type for bc in bounded)
             == Counter(rec.fine_type for rec in cells_in_p if rec.dim == d + 1 - k)
             and all(rec.dim <= d + 1 - k for rec in cells_in_p),
             f"{name}: maximal bounded cells disagree with the enumeration")
    euler = sum((-1) ** rec.dim for rec in cells_in_p)
    _require(euler == 1, f"{name}: Euler characteristic {euler} != 1 on the bounded cells")

    notes.append(f"f-vector {cx.f_vector}, {report.summary()}")

    if len(m.bases) == comb(m.ground_size, k):
        orbits = {tuple(sorted(rec.coarse, reverse=True))
                  for rec in cx.cells if rec.dim == d}
        _require(set(hypersimplex_coarse_types(k, d)) == orbits,
                 f"{name}: hypersimplex coarse types disagree with the maximal cells")
        ext = verify_exterior_description(hypersimplex_halfspaces(k, d), p.generators, cap)
        _require(ext.ok, f"{name}: hypersimplex halfspaces with"
                 f" {len(ext.counterexamples)} counterexamples")
        notes.append(f"{ext.probes} probes, exterior description verified")
    return notes


# tag -> bundled graph file, or (rank, ground size) of a uniform matroid
BUNDLED_FIXTURES = {"running-example": "running_example", "k3": "k3", "k4": "k4",
                    "u23": (2, 3), "u24": (2, 4)}


def _fixture_matroid(tag: str):
    import importlib.resources as ir

    source = BUNDLED_FIXTURES[tag]
    if isinstance(source, tuple):
        return uniform_matroid(*source)
    return enumerate_bases(parse_graph(
        ir.files("tropmat").joinpath(f"data/{source}.json").read_text()))


def _cmd_check(args) -> int:
    if args.graph or args.bases or args.uniform:
        targets = [("input", _load_matroid(args))]
    else:
        targets = [(tag, _fixture_matroid(tag)) for tag in BUNDLED_FIXTURES]
    failures = 0
    for name, m in targets:
        try:
            notes = _check_polytope(name, m, args.cap)
        except CheckFailure as exc:
            failures += 1
            print(f"{name}: FAIL ({exc})")
            continue
        print(f"{name}: ok ({'; '.join(notes)})")
    if failures:
        print(f"{failures} of {len(targets)} checks failed")
        return 2
    print(f"all {len(targets)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: a
    caller running many commands in one process pays for it once, and
    importing the module does not."""
    parser = argparse.ArgumentParser(
        prog="tropmat",
        description="exact combinatorics of tropical matroid polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_input=True, enumerates=False, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if enumerates:
            sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                            help="limit on the maximal-cell search's nodes and,"
                            " separately, on the face closure's candidates")
        if needs_input:
            sp.add_argument("--graph", help="graph JSON file")
            sp.add_argument("--bases", help="basis list JSON file")
            sp.add_argument("--uniform", nargs=2, type=int, metavar=("K", "D"),
                            help="uniform matroid of rank K in the torus of dimension D")
        return sp

    add("bases", _cmd_bases, help="list the bases")
    add("nonbases", _cmd_nonbases, help="list the non bases")
    add("generators", _cmd_generators, help="list the polytope generators")
    add("origin-type", _cmd_origin_type, help="fine type at the origin")
    add("corners", _cmd_corners, help="corner points")
    add("pseudovertices", _cmd_pseudovertices, help="0-dimensional cells")
    add("bounded-cells", _cmd_bounded_cells, help="maximal bounded cells")

    sp = add("complex", _cmd_complex, enumerates=True, help="the full cell complex")
    sp.add_argument("--fvector", action="store_true", help="print only the f-vector")
    sp.add_argument("--with-empty-face", action="store_true",
                    help="prepend the empty face to the f-vector")

    sp = add("coarse-types", _cmd_coarse_types, enumerates=True, help="maximal cell coarse types")
    sp.add_argument("--formula", action="store_true")
    sp.add_argument("--brute", action="store_true")
    sp.add_argument("--cross-validate", action="store_true")

    sp = add("ideal", _cmd_ideal, help="coarse type ideal generators")
    sp.add_argument("--zero-based-vars", action="store_true")

    sp = add("hypersimplex-halfspaces", _cmd_hypersimplex_halfspaces,
             needs_input=False, help="minimal exterior description")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)

    sp = add("check-minimal", _cmd_check_minimal, help="apex criteria for one halfspace")
    sp.add_argument("--apex", required=True, help="comma separated coordinates")
    sp.add_argument("--sectors", required=True, help="comma separated sector indices")

    add("verify-exterior", _cmd_verify_exterior,
        help="decide exactly whether the hypersimplex halfspaces describe the polytope")

    add("skeleton", _cmd_skeleton, enumerates=True,
        help="1-skeleton of the bounded subcomplex, as Graphviz DOT")

    add("check", _cmd_check, enumerates=True, help="run the full invariant suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
