"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import json
import sys

import pytest

from check import check_job, first_difference
from harness import SRC, WORK, fresh_dir, job_env, load_reference, run_process
from workloads import WARMUP, WORKLOADS, draw, job, job_key, pool, ODOMETER_2

REFERENCE = load_reference()
BERG = pool("berg-shift")[0]
KTHEORY = pool("ktheory-odometer")[0]
TWO_POINT = next(j for j in pool("mixed-families") if j["spec"]["family"] == "two_point_shift")


@pytest.fixture
def workdir(request):
    return fresh_dir(WORK / "tests" / request.node.name)


def reference_text(j):
    return json.dumps(REFERENCE[job_key(j)]["report"], indent=2)


def test_reference_report_passes():
    for j in (BERG, KTHEORY, TWO_POINT):
        assert check_job(j, REFERENCE[job_key(j)]["exit"], reference_text(j), REFERENCE) is None


def test_float_perturbed_by_1e9_fails():
    report = REFERENCE[job_key(BERG)]["report"]
    bad = dict(report, norm_w_minus_1=report["norm_w_minus_1"] + 1e-9)
    problem = check_job(BERG, 0, json.dumps(bad), REFERENCE)
    assert problem and "norm_w_minus_1" in problem


def test_float_within_tolerance_passes():
    report = REFERENCE[job_key(BERG)]["report"]
    near = dict(report, norm_w_minus_1=report["norm_w_minus_1"] + 1e-13)
    assert check_job(BERG, 0, json.dumps(near), REFERENCE) is None


def test_changed_exit_code_fails():
    assert "exit code" in check_job(KTHEORY, 1, reference_text(KTHEORY), REFERENCE)
    # the two-point shift is expected to exit 1; exit 0 is a failure
    assert check_job(TWO_POINT, 1, reference_text(TWO_POINT), REFERENCE) is None
    assert "exit code" in check_job(TWO_POINT, 0, reference_text(TWO_POINT), REFERENCE)


def test_over_budget_and_unknown_jobs_fail():
    assert check_job(KTHEORY, None, "", REFERENCE) == "over_budget"
    other = job("ktheory", ODOMETER_2, depth=9)
    assert check_job(other, 0, "{}", REFERENCE) == "no reference for this job"


def test_known_answer_is_checked_even_against_a_matching_reference():
    report = json.loads(reference_text(KTHEORY))
    report["levels"][0]["k0"]["torsion"] = [2]
    wrong_reference = {job_key(KTHEORY): {"exit": 0, "report": report}}
    problem = check_job(KTHEORY, 0, json.dumps(report), wrong_reference)
    assert problem and "k0 = Z" in problem


def test_types_must_match():
    assert first_difference(True, 1) == "$ (type)"
    assert first_difference([1, 2], [1, 2.0]) == "$[1] (type)"
    assert first_difference([1, 2.0], [1, 2.0 + 1e-13]) is None
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) == "$ (keys)"
    assert first_difference("x", "y") == "$"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_drawable_job_has_a_reference(workload):
    for j in pool(workload) + [WARMUP[workload]]:
        assert job_key(j) in REFERENCE


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draw_is_seeded(workload):
    assert draw(workload, 7) == draw(workload, 7)
    keys = {tuple(job_key(j) for j in draw(workload, s)) for s in range(20)}
    assert len(keys) > 1  # the seed changes at least the order


def test_process_over_budget_is_killed(workdir):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    code, wall, _ = run_process(argv, 0.5, workdir / "o", workdir / "e", job_env())
    assert code is None and wall < 10


def test_tracer_restores_bindings_and_keeps_reports(workdir):
    import inproc
    from tracing import Tracer
    from workloads import write_inputs

    cli = inproc.import_zdsys()
    assert cli.__file__.startswith(str(SRC))
    from zdsys import cpalgebra, space

    j = WARMUP["ktheory-odometer"]
    argv, = write_inputs([j], workdir)
    plain = inproc.run_cli(argv, 30.0)
    before = (space.intersect, cpalgebra.intersect, cli.COMMANDS["ktheory"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cpalgebra.intersect is not before[1]
        traced = inproc.run_cli(argv, 30.0)
    finally:
        tracer.uninstall()
    assert (space.intersect, cpalgebra.intersect, cli.COMMANDS["ktheory"]) == before
    assert traced[:2] == plain[:2]
    assert check_job(j, *traced[:2], REFERENCE) is None
    m = tracer.layer_metrics()
    assert m["space.complement.calls"][0] > 0
    assert m["ktheory.alpha_star.s"][0] > 0
    assert m["numeric.operator_norm.calls"][0] == 0
    assert m["cpalgebra.multiply.calls"][0] == 0


def test_in_process_budget_interrupts():
    import inproc

    with pytest.raises(inproc.OverBudget):
        with inproc.budget(0.05):
            while True:
                pass


def test_ladder_case_over_budget_raises(workdir):
    import inproc

    inproc.import_zdsys()
    with pytest.raises(inproc.OverBudget):
        inproc._ktheory_case(4, workdir, 0.001)
