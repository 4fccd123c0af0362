"""Golden reports: small CLI jobs over every family and command, compared
with the exit code, stdout JSON and stderr JSON recorded in golden.json.

golden.json is a list of {"name", "spec", "args", "exit", "stdout",
"stderr"}; stdout and stderr hold the parsed JSON, or null when empty.
Floats may differ by FLOAT_TOL, everything else must be equal.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

from zdsys import cli

FLOAT_TOL = 1e-12

GOLDEN = os.path.join(os.path.dirname(__file__), "golden.json")

_CYCLE = {"family": "finite_cycle", "params": {"period": 3}}
_ODO2 = {"family": "odometer", "params": {"base": 2}}
_ODO3 = {"family": "odometer", "params": {"base": 3}}
_SHIFT = {"family": "compactified_shift", "params": {}}
_TWO = {"family": "two_point_shift", "params": {}}
_Q_CYCLE = {"family": "quotient_product", "params": {"fiber": _CYCLE}}
_Q_ODO = {"family": "quotient_product", "params": {"fiber": _ODO2}}
_Q_SHIFT = {"family": "quotient_product", "params": {"fiber": _SHIFT}}

_FAMILIES = {
    "cycle": _CYCLE,
    "odo2": _ODO2,
    "odo3": _ODO3,
    "shift": _SHIFT,
    "two": _TWO,
    "q-cycle": _Q_CYCLE,
    "q-odo": _Q_ODO,
    "q-shift": _Q_SHIFT,
}


def _jobs():
    jobs = []

    def add(name, spec, *args):
        jobs.append({"name": name, "spec": spec, "args": list(args)})

    for fam, spec in _FAMILIES.items():
        for depth in ("1", "2"):
            add("tower-%s-d%s" % (fam, depth), spec, "tower", "--depth", depth)
        add("fiberwise-%s" % fam, spec, "fiberwise", "--depth", "2")
        add("ktheory-%s" % fam, spec, "ktheory", "--depth", "2")
    for fam in ("cycle", "odo2", "shift", "q-cycle", "q-odo", "q-shift"):
        spec = _FAMILIES[fam]
        add("approximant-%s" % fam, spec, "approximant", "--depth", "2",
            "--N", "2")
        add("identities-%s" % fam, spec, "identities", "--depth", "1",
            "--N", "2")
    for fam in ("cycle", "odo2", "shift", "q-cycle", "q-shift"):
        add("berg-%s" % fam, _FAMILIES[fam], "berg", "--depth", "1",
            "--N", "4")
    add("berg-shift-d2-eps", _SHIFT, "berg", "--depth", "2", "--N", "3",
        "--epsilon", "1.5")
    # the benchmark's berg sizes
    for N in ("16", "48"):
        add("berg-shift-d3-N%s" % N, _SHIFT, "berg", "--depth", "3", "--N", N)
    add("berg-q-shift-d2-N8", _Q_SHIFT, "berg", "--depth", "2", "--N", "8")
    add("fiberwise-shift-text", _SHIFT, "fiberwise", "--format", "text")
    add("tower-shift-base", _SHIFT, "tower", "--base",
        '{"F": [1, 2, 3], "cofinite": true}')
    add("tower-q-odo-base", _Q_ODO, "tower", "--base",
        '{"tail": true, "slices": [{"k": 0, "set": {"words": [[1]]}}]}')
    add("error-unknown-param", {"family": "odometer", "base": 2, "x": 1},
        "fiberwise")
    add("error-berg-N0", _SHIFT, "berg", "--N", "0")
    add("error-bad-base", _ODO2, "tower", "--base", '{"words": [[2]]}')
    add("error-approximant-two", _TWO, "approximant", "--depth", "1")
    return jobs


JOBS = _jobs()


def _parse(text):
    return json.loads(text) if text.strip() else None


def run_job(job):
    """Run one job in-process: {"exit", "stdout", "stderr"}, the output
    parsed as JSON; text-format stdout is kept as a string."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as f:
            json.dump(job["spec"], f)
        argv = [job["args"][0], "--spec", path] + job["args"][1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    stdout = out.getvalue()
    if "text" not in job["args"]:
        stdout = _parse(stdout)
    return {"exit": code, "stdout": stdout, "stderr": _parse(err.getvalue())}


def first_difference(got, want, path="$"):
    """None when the JSON values agree, else the path of the first
    disagreement (floats within FLOAT_TOL)."""
    if isinstance(got, float) and isinstance(want, float):
        if math.isnan(got) or math.isnan(want):
            return None if math.isnan(got) and math.isnan(want) else path
        return None if abs(got - want) <= FLOAT_TOL else path
    if type(got) is not type(want):
        return path + " (type)"
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


with open(GOLDEN) as _f:
    _RECORDED = {g["name"]: g for g in json.load(_f)}


def test_golden_covers_every_job():
    assert sorted(_RECORDED) == sorted(j["name"] for j in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=[j["name"] for j in JOBS])
def test_golden_report(job):
    want = _RECORDED[job["name"]]
    assert (want["spec"], want["args"]) == (job["spec"], job["args"])
    got = run_job(job)
    assert got["exit"] == want["exit"]
    for stream in ("stdout", "stderr"):
        assert first_difference(got[stream], want[stream]) is None, stream
