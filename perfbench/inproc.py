"""The traced run: the workload's jobs in one process, first untraced and
then traced, plus the baseline ladder and fresh-process import timings.

The caller pins the BLAS thread count in the environment before this
module imports zdsys (and with it numpy).
"""

import io
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial

from check import check_job, known_answer_problem
from harness import SRC, job_env
from tracing import Tracer
from workloads import ODOMETER_2, WARMUP, job, write_inputs

IMPORT_SAMPLES = 5
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import zdsys; "
    "t1 = time.perf_counter(); import zdsys.cli; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t0)"
)


class OverBudget(BaseException):
    """Raised by the interval timer in a call that ran past its budget.

    A BaseException, so that the CLI's own error handling does not catch it.
    """


@contextmanager
def budget(seconds):
    def expire(signum, frame):
        raise OverBudget()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_zdsys():
    sys.path.insert(0, str(SRC))
    import zdsys.cli

    if not zdsys.cli.__file__.startswith(str(SRC)):
        raise RuntimeError("zdsys imported from %s, not the checkout" % zdsys.cli.__file__)
    return zdsys.cli


def run_cli(argv, budget_s):
    """One CLI job in this process: (exit code or None, report text, s)."""
    cli = sys.modules["zdsys.cli"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with budget(budget_s), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
    except OverBudget:
        code = None
    return code, out.getvalue(), time.perf_counter() - t0


def _pass(jobs, inputs, deadline, tracer=None):
    results = []
    t0 = time.perf_counter()
    for i, (j, argv) in enumerate(zip(jobs, inputs)):
        if tracer is not None:
            tracer.job = i
        left = deadline - time.perf_counter()
        if left <= 0:
            results.append((None, "", 0.0))
            continue
        results.append(run_cli(argv, min(j["budget_s"], left)))
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# baseline ladder (ROADMAP item 1), timed in this process, tracing off
# ---------------------------------------------------------------------------


# A case takes the work directory and its budget, raises OverBudget when
# it runs past the budget, and otherwise returns (None when its known
# answer holds, else the problem; seconds spent in the timed call).


def _timed(limit, fn, *args):
    t0 = time.perf_counter()
    with budget(limit):
        result = fn(*args)
    return result, time.perf_counter() - t0


def _ktheory_case(depth, workdir, limit):
    j = job("ktheory", ODOMETER_2, depth=depth)
    argv, = write_inputs([j], workdir / ("ladder_ktheory_d%d" % depth))
    code, text, wall = run_cli(argv, limit)
    if code is None:
        raise OverBudget()
    if code != 0:
        return "exit code %d" % code, wall
    return known_answer_problem(j, json.loads(text)), wall


def _berg_case(N, workdir, limit):
    from zdsys import numeric, space

    spec = space.compactified_shift()
    P = space.generating_partition(spec, 3)
    rep, wall = _timed(limit, numeric.berg_verify, spec, P, N, math.pi / N + 0.01)
    if not rep.passed or not rep.norm_w_minus_1 <= math.pi / N + 1e-9:
        return "berg N=%d did not pass within pi/N" % N, wall
    return None, wall


def _suite_case(family, N, workdir, limit):
    from zdsys import cpalgebra, space, towers

    spec = space.odometer(2) if family == "odometer" else space.compactified_shift()
    P = space.generating_partition(spec, 3)
    S, S2 = towers.adapted_system_pair(spec, P, N)
    rep, wall = _timed(limit, cpalgebra.identity_suite, S, S2)
    if not rep.ok or len(rep.entries) != 11:
        return "identity suite on %s did not pass" % family, wall
    return None, wall


# (name, budget s, case) of the ladder rungs each workload's layer loads.
LADDER = {
    "ktheory-odometer": (
        ("ktheory_odometer_d6", 30.0, partial(_ktheory_case, 6)),
        ("ktheory_odometer_d7", 15.0, partial(_ktheory_case, 7)),
    ),
    "berg-shift": (
        ("berg_shift_n8", 10.0, partial(_berg_case, 8)),
        ("berg_shift_n32", 20.0, partial(_berg_case, 32)),
        ("berg_shift_n64", 40.0, partial(_berg_case, 64)),
    ),
    "identities-shift": (
        ("identity_suite_odometer_d3_n8", 20.0, partial(_suite_case, "odometer", 8)),
        ("identity_suite_shift_d3_n16", 20.0, partial(_suite_case, "shift", 16)),
    ),
    "mixed-families": (),
}
LADDER_NAMES = [name for cases in LADDER.values() for name, _, _ in cases]


def run_ladder(workload, workdir, deadline):
    rows = []
    for name, limit, case in LADDER[workload]:
        left = deadline - time.perf_counter()
        t0 = time.perf_counter()
        status, problem, wall = "over_budget", None, 0.0
        if left > 0:
            try:
                problem, wall = case(workdir, min(limit, left))
                status = "failed" if problem else "ok"
            except OverBudget:
                wall = time.perf_counter() - t0
        rows.append({"case": name, "status": status, "s": wall,
                     "budget_s": limit, "problem": problem})
    return rows


def import_times(deadline):
    """Median seconds to import zdsys and zdsys.cli in fresh processes, and
    the problem that stopped the measurement, if any."""
    pkg, cli = [], []
    for _ in range(IMPORT_SAMPLES):
        left = deadline - time.perf_counter()
        if left <= 0:
            return 0.0, 0.0, "import timing over budget"
        try:
            r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=job_env(),
                               capture_output=True, text=True, timeout=min(60.0, left))
            a, b = r.stdout.split()
        except (subprocess.TimeoutExpired, ValueError):
            return 0.0, 0.0, "import timing failed"
        pkg.append(float(a))
        cli.append(float(b))
    return statistics.median(pkg), statistics.median(cli), None


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def traced_run(workload, jobs, inputs, reference, workdir, deadline):
    """Returns (metrics {name: (value, unit)}, attempted, failures, trace)."""
    import_zdsys()

    warm_job = WARMUP[workload]
    warm_argv, = write_inputs([warm_job], workdir / "warmup")
    code, text, warmup_s = run_cli(warm_argv, warm_job["budget_s"])
    failures = []
    problem = check_job(warm_job, code, text, reference)
    if problem:
        failures.append({"job": "warmup", "problem": problem})

    plain, plain_s = _pass(jobs, inputs, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = _pass(jobs, inputs, deadline, tracer)
    finally:
        tracer.uninstall()

    for i, j in enumerate(jobs):
        for label, (code, text, _) in (("untraced", plain[i]), ("traced", traced[i])):
            problem = check_job(j, code, text, reference)
            if problem:
                failures.append({"job": i, "pass": label, "problem": problem})
        if plain[i][:2] != traced[i][:2]:
            failures.append({"job": i, "problem": "traced report is not byte-identical"})

    ladder = run_ladder(workload, workdir, deadline)
    failures += [{"ladder": r["case"], "problem": r["problem"]}
                 for r in ladder if r["status"] == "failed"]
    import_s, cli_import_s, problem = import_times(deadline)
    if problem:
        failures.append({"import": "zdsys", "problem": problem})

    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = (cli_import_s, "s")
    metrics["setup.warmup_s"] = (warmup_s, "s")
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (tracer.spans_total, "count")
    by_case = {r["case"]: r for r in ladder}
    for name in LADDER_NAMES:
        metrics["ladder.%s.s" % name] = (by_case[name]["s"] if name in by_case else 0.0, "s")
    metrics["ladder.import_zdsys.s"] = (import_s, "s")
    metrics["ladder.over_budget"] = (
        sum(r["status"] == "over_budget" for r in ladder), "count")

    trace = {
        "spans_columns": ["id", "parent", "job", "name", "start_s", "end_s"],
        "spans": tracer.spans,
        "spans_total": tracer.spans_total,
        "functions": {n: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                      for n, v in sorted(tracer.stats.items())},
        "counters": tracer.counters,
        "ladder": ladder,
    }
    attempted = 1 + 2 * len(jobs) + len(ladder) + 1
    return metrics, attempted, failures, trace
