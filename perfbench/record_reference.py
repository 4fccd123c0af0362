"""Record the reference outcome of every job any seed can draw.

    python3 perfbench/record_reference.py

Runs each job of every workload's pool, and each warm-up job, once in a
fresh zdsys process and writes perfbench/reference.json: per job key the
exit code and the parsed JSON report.  Benchmark runs only read this
file; regenerate it only on a commit whose reports are known good, and
review the diff.
"""

import json
import sys

from check import known_answer_problem
from harness import (
    REFERENCE,
    WORK,
    environment_stamp,
    fresh_dir,
    job_env,
    run_process,
    zdsys_argv,
)
from workloads import WARMUP, WORKLOADS, job_key, pool, write_inputs

# The only job whose expected exit code is not 0: the two-point shift is
# not fiberwise minimal, so the gate reports a verification failure.
EXPECTED_EXIT = {"fiberwise": {"two_point_shift": 1}}


def main():
    jobs = {}
    for w in WORKLOADS:
        for j in pool(w) + [WARMUP[w]]:
            jobs[job_key(j)] = j
    workdir = fresh_dir(WORK / "reference")
    inputs = write_inputs(list(jobs.values()), workdir)
    env = job_env()
    recorded, problems = {}, []
    for (key, j), argv in zip(jobs.items(), inputs):
        out = workdir / "job.out"
        code, wall, _ = run_process(zdsys_argv(argv), 600.0, out, workdir / "job.err", env)
        expected = EXPECTED_EXIT.get(j["command"], {}).get(j["spec"]["family"], 0)
        report = json.loads(out.read_text()) if code in (0, 1) else None
        problem = known_answer_problem(j, report) if report is not None else None
        if code != expected or problem:
            problems.append("%s: exit %s, %s" % (key, code, problem))
        recorded[key] = {"exit": code, "report": report}
        print("%6.2f s exit %s  %s" % (wall, code, key), flush=True)
    if problems:
        print("not recorded:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as f:
        json.dump({"environment": environment_stamp(), "jobs": recorded},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d jobs to %s" % (len(recorded), REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
