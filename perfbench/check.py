"""Correctness gate: compare a job's exit code and JSON report with the
recorded reference, and assert answers known independently of the code.
"""

import json
import math

from workloads import job_key

# Reports must be equal, except that floats may differ by this much.
FLOAT_TOL = 1e-12


def first_difference(got, want, path="$"):
    """None when the JSON values agree, else the path of the first
    disagreement.  Values must have the same JSON type; floats may differ
    by up to FLOAT_TOL, everything else must be equal."""
    if type(got) is not type(want):
        return path + " (type)"
    if isinstance(got, float):
        if math.isnan(got) or math.isnan(want):
            return None if math.isnan(got) and math.isnan(want) else path
        return None if abs(got - want) <= FLOAT_TOL else path
    if isinstance(got, dict):
        if sorted(got) != sorted(want):
            return path + " (keys)"
        for k in sorted(want):
            d = first_difference(got[k], want[k], "%s.%s" % (path, k))
            if d:
                return d
        return None
    if isinstance(got, list):
        if len(got) != len(want):
            return path + " (length)"
        for i, (g, w) in enumerate(zip(got, want)):
            d = first_difference(g, w, "%s[%d]" % (path, i))
            if d:
                return d
        return None
    return None if got == want else path


def _arg(job, name):
    args = job["args"]
    return args[args.index(name) + 1] if name in args else None


def known_answer_problem(job, report):
    """Check answers that do not come from the code under test; None when
    they hold or the job has none."""
    command = job["command"]
    if command == "ktheory" and job["spec"]["family"] == "odometer":
        # K0 of an odometer level is Z (no torsion) and K1 is Z.
        depth = int(_arg(job, "--depth"))
        levels = report.get("levels", [])
        if [lv.get("level") for lv in levels] != list(range(1, depth + 1)):
            return "ktheory levels are not 1..%d" % depth
        for lv in levels:
            if lv.get("k0") != {"rank": 1, "torsion": []} or lv.get("k1") != {"rank": 1}:
                return "ktheory level %s is not k0 = Z, k1 = Z" % lv.get("level")
    elif command == "identities":
        entries = report.get("entries", [])
        if len(entries) != 11 or report.get("ok") is not True:
            return "identity suite does not have 11 passing entries"
    elif command == "berg":
        N = int(_arg(job, "--N"))
        if report.get("pass") is not True:
            return "berg did not pass"
        if not report.get("norm_w_minus_1", math.inf) <= math.pi / N + 1e-9:
            return "berg norm_w_minus_1 exceeds pi/N"
    return None


def check_job(job, exit_code, text, reference):
    """None when the job's outcome matches, else the reason it failed.

    ``exit_code`` is None for a job killed over its budget.  ``text`` is
    the report as written by the CLI.  ``reference`` maps job keys to
    {"exit": code, "report": JSON value}.
    """
    if exit_code is None:
        return "over_budget"
    want = reference.get(job_key(job))
    if want is None:
        return "no reference for this job"
    if exit_code != want["exit"]:
        return "exit code %d, reference %d" % (exit_code, want["exit"])
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    diff = first_difference(report, want["report"])
    if diff:
        return "report differs from reference at %s" % diff
    return known_answer_problem(job, report)
