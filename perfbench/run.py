"""zdsys benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` one client runs the workload's jobs one at a time,
each in a fresh ``zdsys`` process that must exit before the next starts,
and repeats the job list until ``--seconds`` have passed.  It prints the
end-to-end metrics: ``wall_s`` (wall time of one pass over the job
list, process start included: each job's median over the passes, summed),
``setup_s`` (median wall time of a ``zdsys <command> --help`` process)
and ``peak_rss_mb`` (largest peak resident set of any job process in a
pass, median over passes).  At ``--seconds 15`` a pass of
ktheory-odometer or berg-shift, with the ``--help`` processes taken
between its jobs, outlasts the window, so those runs make one pass and
their ``wall_s`` and ``peak_rss_mb`` come from one process per job.

With ``--trace 1`` it runs the same jobs in this process, untraced and
then traced, and prints the per-layer metrics (see tracing.py and
inproc.py).

Every report is checked against perfbench/reference.json and against
answers known independently of the code.  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics.  Traces and
per-run records go to perfbench/.work/.  The reference is never written
here; see record_reference.py.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

from check import check_job
from harness import (
    ROOT,
    WORK,
    MissingProgram,
    environment_stamp,
    fresh_dir,
    job_env,
    load_reference,
    pin_blas_threads,
    require_program,
    run_process,
    zdsys_argv,
)
from workloads import WORKLOADS, draw, job_key, write_inputs

# Every run ends well inside the 180 s the benchmark contract allows.
DEADLINE_S = 150.0
SETUP_SAMPLES = 15
HELP_COMMANDS = ("tower", "fiberwise", "approximant", "ktheory", "berg", "identities")


class SetupProbe:
    """``zdsys <command> --help`` processes, cycling through the commands.

    The machine's speed drifts over seconds, so the samples are spread
    over the whole run, between jobs, rather than taken in one burst.
    """

    def __init__(self, workdir, env, deadline):
        self.out, self.err, self.env = workdir / "help.out", workdir / "help.err", env
        self.deadline = deadline
        self.samples, self.failures, self.runs = [], [], 0

    def take(self, timed=True):
        cmd = HELP_COMMANDS[self.runs % len(HELP_COMMANDS)]
        self.runs += 1
        left = self.deadline - time.perf_counter()
        code, wall = None, 0.0
        if left > 0:
            code, wall, _ = run_process(zdsys_argv([cmd, "--help"]), min(30.0, left),
                                        self.out, self.err, self.env)
        if code != 0:
            self.failures.append({"setup": cmd, "problem": "--help exit code %s" % code})
        if timed:
            self.samples.append(wall)

    def catch_up(self, target):
        while len(self.samples) < min(math.ceil(target), SETUP_SAMPLES):
            self.take()


def run_job(j, argv, i, workdir, env, deadline):
    """One job process; returns (exit code or None, report text, wall s,
    peak RSS MiB)."""
    left = deadline - time.perf_counter()
    if left <= 0:
        return None, "", 0.0, 0.0
    stdout = workdir / ("job%02d.out" % i)
    code, wall, rss = run_process(zdsys_argv(argv), min(j["budget_s"], left),
                                  stdout, workdir / ("job%02d.err" % i), env)
    return code, stdout.read_text(), wall, rss


def closed_loop(jobs, inputs, reference, workdir, seconds, deadline):
    """Repeat the job list until ``seconds`` have passed.

    wall_s sums, over the jobs, the median of each job's process wall
    time across passes; with one pass it is that pass's wall time.
    """
    env = job_env()
    probe = SetupProbe(workdir, env, deadline)
    probe.take(timed=False)  # fills the bytecode cache
    job_walls = [[] for _ in jobs]
    peaks, failures = [], []
    t0 = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        rss_max = 0.0
        for i, (j, argv) in enumerate(zip(jobs, inputs)):
            probe.catch_up(SETUP_SAMPLES * (time.perf_counter() - t0) / seconds)
            code, text, wall, rss = run_job(j, argv, i, workdir, env, deadline)
            job_walls[i].append(wall)
            rss_max = max(rss_max, rss)
            problem = check_job(j, code, text, reference)
            if problem:
                failures.append({"job": i, "key": job_key(j), "problem": problem})
        peaks.append(rss_max)
        now = time.perf_counter()
        if now - t0 >= seconds or deadline - now < 1.5 * (now - pass_start):
            break
    probe.catch_up(SETUP_SAMPLES)
    metrics = {
        "wall_s": (sum(statistics.median(w) for w in job_walls), "s"),
        "setup_s": (statistics.median(probe.samples), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
    }
    detail = {"job_wall_s": job_walls, "pass_peak_rss_mb": peaks,
              "setup_samples_s": probe.samples}
    attempted = len(peaks) * len(jobs) + probe.runs
    return metrics, attempted, failures + probe.failures, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    try:
        require_program()
    except MissingProgram as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    pin_blas_threads(os.environ)
    reference = load_reference()
    jobs = draw(args.workload, args.seed)
    workdir = fresh_dir(WORK / args.workload)
    inputs = write_inputs(jobs, workdir / "inputs")
    stamp = environment_stamp()

    if args.trace:
        import inproc

        metrics, attempted, failures, trace = inproc.traced_run(
            args.workload, jobs, inputs, reference, workdir, deadline)
        with open(workdir / "trace.json", "w") as f:
            json.dump({"environment": stamp, "workload": args.workload,
                       "seed": args.seed, **trace}, f)
        detail = {"trace_file": str((workdir / "trace.json").relative_to(ROOT))}
    else:
        metrics, attempted, failures, detail = closed_loop(
            jobs, inputs, reference, workdir, args.seconds, deadline)

    failed = len(failures)
    record = {
        "environment": stamp, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "jobs": [job_key(j) for j in jobs],
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    with open(workdir / "result.json", "w") as f:
        json.dump(record, f, indent=1)

    print("# %s seed %d trace %d: %d jobs per pass, python %s, numpy %s, "
          "nproc %s, BLAS threads %d" % (
              args.workload, args.seed, args.trace, len(jobs), stamp["python"],
              stamp.get("numpy"), stamp["nproc"], stamp["blas_threads"]))
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("%-40s %14.6g (%d of %d)" % ("failed_ratio", failed / attempted,
                                      failed, attempted))
    for fail in failures[:10]:
        print("# FAILED %s" % json.dumps(fail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
