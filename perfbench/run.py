"""tropmat benchmark: a seeded closed loop of CLI jobs, one workload per process.

    python3 perfbench/run.py --workload complex --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35

One client in one process and one thread runs jobs one after another;
each job is one or more `tropmat` commands called in-process through
tropmat.cli.main(argv) with stdout captured.  A run repeats whole passes
of the workload's fixed job mix until --seconds of job time have passed,
with at least MIN_PASSES passes and MIN_JOBS jobs.  Every job's output is
checked against reference.py outside the timed window.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports per-layer self times and counts per pass,
plus the tracing overhead; its spans are written to .perfbench_out/.
The last line of stdout is one JSON object; --all runs every workload in
a process of its own, untraced and then traced, and prints both tables.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# set-ups before the first pass and between passes; setup_s is their median
SETUPS_PER_PASS = 3
# passes per run at least, so that every job is timed at least three times
MIN_PASSES = 3
# jobs per run at least, so that the p75 tail has ten jobs beyond it
MIN_JOBS = 40
TAIL_PERCENTILE = 75
# job time after which a run stops early, so that it ends within 180 s
HARD_LIMIT_S = 100.0
# least share of traced job time inside job spans, and of job spans inside
# top-level tropmat calls
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import tropmat afresh from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    for name in [n for n in sys.modules if n == "tropmat" or n.startswith("tropmat.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        cli = importlib.import_module("tropmat.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import tropmat from {src}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "tropmat") + os.sep):
        raise ProgramMissing(f"tropmat was imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate the inputs and write them.  Returns the
    jobs and the seconds this took."""
    start = perf_counter()
    import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.build(workloads.MIXES[workload], f"{workload}:{seed}", workdir)
    return jobs, perf_counter() - start


def run_commands(commands: list[list[str]]) -> tuple[list[str], str | None]:
    """Call tropmat.cli.main on each argv in turn, capturing stdout.
    Returns the outputs and, if a command failed, why."""
    main = sys.modules["tropmat.cli"].main
    outputs = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # a crash fails the job
            return outputs, f"{type(exc).__name__}: {exc}"
        outputs.append(out.getvalue())
        if code != 0:
            return outputs, f"exit code {code}: {err.getvalue().strip()}"
    return outputs, None


class Loop:
    """Runs jobs one at a time, times them, and checks their outputs."""

    def __init__(self, checker: checks.Checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []   # one line per failed job

    def run_job(self, job, tracer=None) -> float:
        # a full collection before the clock starts: the previous job's
        # garbage is not charged to this one, and every job starts with the
        # collector's counters at zero whatever ran before it
        gc.collect()
        start = perf_counter()
        with tracer.job(job.id) if tracer else nullcontext():
            outputs, error = run_commands(job.commands)
        latency = perf_counter() - start
        self.attempted += 1
        if error is None:
            try:
                self.checker.check(job, outputs)
            except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"check failed: {exc}"
        if error is not None:
            self.failures.append(f"job {job.id} {job.label}: {error}")
        return latency


def tail_index(n: int) -> int:
    """0-based nearest-rank index of the TAIL_PERCENTILE-th percentile."""
    return max(0, math.ceil(TAIL_PERCENTILE / 100 * n) - 1)


def measure(jobs, loop: Loop, seconds: float, resetup) -> tuple[dict, list[str]]:
    """Run passes, setting up again between them, until the run has
    MIN_PASSES whole passes, MIN_JOBS jobs and `seconds` of job time; the
    last pass may stop part way.

    jobs_per_s and job_p50_s time each job by its mean over the passes.
    The host's speed switches between a fast and a slow state every few
    seconds; a mean moves smoothly with the share of time spent in each,
    where a median over a handful of runs jumps from one state to the
    other.  Each job counts once, however far the last pass got."""
    by_job: dict[int, list[float]] = {job.id: [] for job in jobs}
    busy, passes, ran = 0.0, 0, 0

    def done() -> bool:
        return busy >= HARD_LIMIT_S or (busy >= seconds and passes >= MIN_PASSES
                                        and ran >= MIN_JOBS)

    while not done():
        for job in jobs:
            latency = loop.run_job(job)
            by_job[job.id].append(latency)
            busy += latency
            ran += 1
            if done():
                break
        else:
            passes += 1
            for _ in range(SETUPS_PER_PASS):
                resetup()
    ordered = sorted(lat for lats in by_job.values() for lat in lats)
    tail = tail_index(len(ordered))
    means = [statistics.fmean(lats) for lats in by_job.values()]
    metrics = {
        "jobs_per_s": len(jobs) / sum(means),
        "job_p50_s": statistics.median(means),
        "job_tail_s": ordered[tail],
    }
    notes = [f"job_tail_s is p{TAIL_PERCENTILE} of {len(ordered)} jobs "
             f"({len(ordered) - tail - 1} beyond it), {passes} whole passes of {len(jobs)} jobs"]
    return metrics, notes


def measure_traced(jobs, loop: Loop, seconds: float, spans_path: str,
                   problems: list[str]) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes; per-layer figures are per
    traced pass.  A span that fails to cover the time it should is
    added to problems."""
    tracer = tracing.Tracer()
    plain = traced = 0.0
    passes = 0
    while True:
        plain += sum(loop.run_job(job) for job in jobs)
        tracer.install()
        try:
            traced += sum(loop.run_job(job, tracer) for job in jobs)
        finally:
            tracer.uninstall()
        passes += 1
        if plain + traced >= min(seconds, HARD_LIMIT_S):
            break
    metrics = tracing.layer_metrics(tracer.spans, passes)
    job_spans = {s[0]: s[3] - s[2] for s in tracer.spans if s[1] == tracing.JOB}
    top = sum(s[3] - s[2] for s in tracer.spans if s[4] in job_spans)
    job_time = sum(job_spans.values())
    metrics["trace.overhead_ratio"] = traced / plain
    metrics["trace.job_coverage"] = job_time / traced
    metrics["trace.call_coverage"] = top / job_time
    metrics["trace.pass_wall_s"] = traced / passes
    for what in ("job_coverage", "call_coverage"):
        if metrics[f"trace.{what}"] < MIN_COVERAGE:
            problems.append(f"trace {what} {metrics[f'trace.{what}']:.3f} < {MIN_COVERAGE}")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    rows = sorted((v, k[:-len(".self_s")]) for k, v in metrics.items() if k.endswith(".self_s"))
    notes = [f"{len(tracer.spans)} spans over {passes} traced passes in {spans_path}",
             f"{'layer':45s} {'self s/pass':>12s} {'share':>7s}"]
    for value, name in reversed(rows):
        notes.append(f"{name:45s} {value:12.4f} {value / metrics['trace.pass_wall_s']:7.1%}")
    return metrics, notes


def run_workload(args) -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    problems: list[str] = []
    setup_times: list[float] = []

    def resetup():
        again, seconds = setup(args.workload, args.seed, workdir)
        setup_times.append(seconds)
        if [j.commands for j in again] != [j.commands for j in jobs]:
            problems.append("a set-up generated other inputs from the same seed")

    try:
        jobs, seconds = setup(args.workload, args.seed, workdir)
        setup_times.append(seconds)
        for _ in range(SETUPS_PER_PASS - 1):
            resetup()
        loop = Loop(checks.Checker(ROOT))
        if args.trace:
            spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, notes = measure_traced(jobs, loop, args.seconds, spans, problems)
            units = {k: ("s" if k.endswith("_s") else "ratio" if "ratio" in k or "coverage" in k
                         else "count") for k in metrics}
        else:
            metrics, notes = measure(jobs, loop, args.seconds, resetup)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
            notes.append(f"setup_s is the median of {len(setup_times)} set-ups")
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes + loop.failures + problems:
        print(line)
    failed = len(loop.failures)
    if not args.trace:
        print(f"fail_ratio {failed / loop.attempted:.4f} ({failed} of {loop.attempted} jobs)")
        for name in END_TO_END_UNITS:
            print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not loop.failures and not problems,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    for traced in (0, 1):
        for name in workloads.MIXES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[(name, traced)] = json.loads(lines[-1])
            print(f"== {name} (trace {traced})")
            print("\n".join(lines[:-1]))
    names = list(workloads.MIXES)
    print(f"\n{'metric':14s} {'unit':7s}" + "".join(f"{n:>14s}" for n in names))
    for metric, unit in [("fail_ratio", "-")] + list(END_TO_END_UNITS.items()):
        cells = []
        for n in names:
            r = results[(n, 0)]
            value = r["failed"] / r["attempted"] if metric == "fail_ratio" \
                else r["metrics"][metric]["value"]
            cells.append(f"{value:14.4g}")
        print(f"{metric:14s} {unit:7s}" + "".join(cells))
    print(f"{'overhead':14s} {'ratio':7s}" + "".join(
        f"{results[(n, 1)]['metrics']['trace.overhead_ratio']['value']:14.3f}" for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.MIXES))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
