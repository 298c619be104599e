"""Self-test of the output checks: real outputs pass, tampered ones fail.

    python3 perfbench/selftest.py

Runs one small job of every kind through tropmat, checks that the checker
accepts the real outputs, then alters one fact at a time (an f-vector
entry off by one, a basis dropped, a flag flipped, ...) and checks that
each altered output is rejected.  A command that exits non-zero must fail
its job too.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads

MIX = [
    ("complex", "K4-e", ("running-example",), 1),
    ("crossval", "K4-e", ("graph", 4, 5, 8), 1),
    ("ideal", "K4-e", ("running-example",), 1),
    ("formula", "K4-e", ("graph", 4, 5, 8), 1),
    ("polytope", "5v7e", ("graph", 5, 7, 21), 1),
    ("bases", "5v7e", ("graph", 5, 7, 21), 1),
    ("hypersimplex", "U(2,4)", ("uniform", 2, 3), 1),
]


def _edit(outputs: list[str], index: int, change) -> list[str]:
    """Outputs with command `index`'s JSON passed through change()."""
    obj = json.loads(outputs[index])
    change(obj)
    return outputs[:index] + [json.dumps(obj)] + outputs[index + 1:]


def _set(key, value):
    def change(obj):
        obj[key] = value
    return change


def _bump_f(obj):
    obj["f_vector"][1] += 1


def _drop_top_cell(obj):
    top = len(obj["f_vector"]) - 1
    obj["cells"] = [c for c in obj["cells"] if c["dim"] == top][1:] + \
        [c for c in obj["cells"] if c["dim"] != top]
    obj["f_vector"][top] -= 1


def _move_witness(obj):
    cell = next(c for c in obj["cells"] if c["dim"] == 0)
    cell["witness"][0] = "1/3"


def _swap_type(obj):
    a, b = obj["cells"][0], obj["cells"][-1]
    a["type"], b["type"] = b["type"], a["type"]


def _drop_basis(obj):
    obj["bases"].pop()


def _alter_basis(obj):
    b = obj["bases"][0]
    b[-1] = next(e for e in range(1, obj["ground_size"] + 1) if e not in b)
    b.sort()


def _bump_cells(obj):
    obj["cell_count"] += 1


def _drop_bounded(obj):
    obj["bounded_cells"].pop()


def _alter_interior(obj):
    obj["bounded_cells"][0]["interior_type"] = obj["bounded_cells"][1]["interior_type"]


def _bump_generator(obj):
    obj["generators"][0][0] += 1


def _bump_row(obj):
    obj[0]["coarse"][0] += 1


def _drop_pseudovertex(obj):
    obj["pseudovertices"].pop()


def _drop_member(obj):
    obj.pop()


# (job kind, command index, description, change)
TAMPERED = [
    ("complex", 0, "f-vector entry off by one", _bump_f),
    ("complex", 0, "a maximal cell dropped with its count", _drop_top_cell),
    ("complex", 0, "a 0-cell witness moved", _move_witness),
    ("complex", 0, "two cell types swapped", _swap_type),
    ("crossval", 0, "maximal-cell count off by one", _bump_cells),
    ("crossval", 0, "cross validation reported as failed", _set("ok", False)),
    ("crossval", 1, "a bounded cell dropped", _drop_bounded),
    ("crossval", 1, "a wrong interior type", _alter_interior),
    ("ideal", 0, "a generator exponent off by one", _bump_generator),
    ("ideal", 0, "ideal reported as not minimal", _set("minimal", False)),
    ("formula", 0, "a formula entry off by one", _bump_row),
    ("formula", 2, "a pseudovertex dropped", _drop_pseudovertex),
    ("polytope", 0, "a bounded cell dropped", _drop_bounded),
    ("polytope", 1, "a pseudovertex dropped", _drop_pseudovertex),
    ("bases", 0, "a basis dropped", _drop_basis),
    ("bases", 0, "a basis replaced by a non-basis", _alter_basis),
    ("hypersimplex", 0, "a halfspace dropped", _drop_member),
    ("hypersimplex", 1, "a member reported as not minimal", _set("minimal", False)),
    ("hypersimplex", -1, "exterior description reported as failed", _set("ok", False)),
]


def main() -> int:
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    bad = 0
    try:
        run.import_program()
        jobs = {job.kind: job for job in workloads.build(MIX, "selftest", workdir)}
        real = {}
        for kind, job in jobs.items():
            real[kind], error = run.run_commands(job.commands)
            try:
                checks.Checker(run.ROOT).check(job, real[kind])
            except checks.CheckFailed as exc:
                error = str(exc)
            bad += error is not None
            print(f"{'ok ' if error is None else 'BAD'} real {kind} output accepted"
                  + (f": {error}" if error else ""))
        for kind, index, what, change in TAMPERED:
            tampered = _edit(real[kind], index % len(real[kind]), change)
            try:
                checks.Checker(run.ROOT).check(jobs[kind], tampered)
                rejected = False
            except checks.CheckFailed as exc:
                rejected, reason = True, exc
            bad += not rejected
            print(f"{'ok ' if rejected else 'BAD'} {kind}: {what} "
                  + (f"rejected ({reason})" if rejected else "ACCEPTED"))
        broken = workloads.Job(99, "bases", jobs["bases"].matroid,
                               [["bases", "--format", "json", "--graph",
                                 os.path.join(workdir, "missing.json")]])
        loop = run.Loop(checks.Checker(run.ROOT))
        loop.run_job(broken)
        bad += len(loop.failures) != 1
        print(f"{'ok ' if loop.failures else 'BAD'} non-zero exit fails the job {loop.failures}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if not bad else f"self-test: {bad} cases misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
