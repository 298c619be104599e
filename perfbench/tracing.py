"""Spans around tropmat's public functions, recorded from outside.

install() wraps each function in TARGETS and rebinds the wrapper under
every name that holds the original in a tropmat module namespace, so a
nested call (enumerate_all_cells -> enumerate_maximal_cells,
in_tconv -> fine_type, ideals -> the formula) is caught as well.  No file
of the program changes.

A span is (id, name, start, end, parent id, job id, self time, count);
self time is the duration minus the time covered by child spans.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _size(_args, result):
    return len(result)


# module, function, count name, count of one call (args, result) -> int
TARGETS = [
    ("cells", "enumerate_all_cells", "cells", lambda a, r: len(r.cells)),
    ("cells", "enumerate_maximal_cells", "cells", _size),
    ("cells", "maximal_cell_coarse_types", "rows", _size),
    ("cells", "cross_validate", None, None),
    ("ideals", "ideal_generators", "generators", lambda a, r: r.n_generators),
    ("ideals", "is_minimal_generating", "pairs",
     lambda a, r: a[0].n_generators * (a[0].n_generators - 1)),
    ("polytopes", "build_polytope", None, None),
    ("polytopes", "pseudovertices", "count", _size),
    ("polytopes", "maximal_bounded_cells", "count", _size),
    ("matroids", "parse_graph", None, None),
    ("matroids", "enumerate_bases", "bases", lambda a, r: r.n_bases),
    ("matroids", "matroid_from_bases", None, None),
    ("halfspaces", "hypersimplex_halfspaces", None, None),
    ("halfspaces", "is_minimal_halfspace", None, None),
    ("halfspaces", "verify_exterior_description", "probes", lambda a, r: r.probes),
    ("minplus", "fine_type", None, None),
    ("minplus", "in_tconv", None, None),
    ("minplus", "halfspace_contains", None, None),
    ("cli", "main", None, None),
]

JOB = "job"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []   # [span id, time covered by children]
        self._job: int | None = None
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _enter(self) -> tuple[int, int | None, list]:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return self._next_id, parent, frame

    def _leave(self, sid, parent, frame, name, start, count) -> None:
        end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append((sid, name, start, end, parent, self._job,
                           end - start - frame[1], count))

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, frame = self._enter()
            count = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, result)
                return result
            finally:
                self._leave(sid, parent, frame, name, start, count)

        return traced

    @contextmanager
    def job(self, job_id: int):
        """The top-level span of one job; spans inside carry its id."""
        self._job = job_id
        sid, parent, frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._leave(sid, parent, frame, JOB, start, None)
            self._job = None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tropmat" or n.startswith("tropmat."))]
        for mod_name, fn_name, _, counter in TARGETS:
            original = getattr(sys.modules[f"tropmat.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._installed:
            setattr(mod, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s[:6])) + "\n")


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-pass self time, calls and counts of every target, and the share
    of the formula rows under ideal_generators that are distinct generators."""
    count_names = {f"{m}.{f}": c for m, f, c, _ in TARGETS}
    out: dict[str, float] = {}
    for name, count_name in count_names.items():
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
        if count_name:
            out[f"{name}.{count_name}"] = 0
    names = {s[0]: s[1] for s in spans}
    ideal_rows = 0
    for _sid, name, _start, _end, parent, _job, self_s, count in spans:
        if name == JOB:
            continue
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        if count is not None:
            out[f"{name}.{count_names[name]}"] += count
            if name == "cells.maximal_cell_coarse_types" and \
                    names.get(parent) == "ideals.ideal_generators":
                ideal_rows += count
    generators = out["ideals.ideal_generators.generators"]
    per_pass = {k: v / passes for k, v in out.items()}
    per_pass["ideals.ideal_generators.distinct_ratio"] = \
        generators / ideal_rows if ideal_rows else 0.0
    return per_pass
