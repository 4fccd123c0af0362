"""Seeded job lists for the four benchmark workloads.

A workload is a list of slots.  Each slot holds one or more alternative
jobs of the same size class; a seed picks one alternative per slot and
the job order.  Every alternative of every slot has an entry in the
reference file, so any seed can be checked.
"""

import json
import math
import random

ODOMETER_2 = {"family": "odometer", "params": {"base": 2}}
ODOMETER_3 = {"family": "odometer", "params": {"base": 3}}
SHIFT = {"family": "compactified_shift", "params": {}}
TWO_POINT = {"family": "two_point_shift", "params": {}}


def cycle(period):
    return {"family": "finite_cycle", "params": {"period": period}}


def quotient(fiber):
    return {"family": "quotient_product", "params": {"fiber": fiber}}


def job(command, spec, budget_s=20.0, **opts):
    """One CLI job: command, nested-form spec and the remaining arguments.

    ``budget_s`` is the wall time after which the job process is killed
    and the job recorded as over budget.
    """
    args = []
    for name in ("base", "depth", "N", "epsilon"):
        if name in opts:
            value = opts[name]
            if name == "base":
                value = json.dumps(value, sort_keys=True, separators=(",", ":"))
            args += ["--" + name, str(value)]
    return {"command": command, "spec": spec, "args": args, "budget_s": budget_s}


def job_key(j):
    """Identity of a job's input: command, spec and arguments."""
    return json.dumps([j["command"], j["spec"], j["args"]], sort_keys=True)


def _eps(N, margin):
    return repr(math.pi / N + margin)


def _berg(spec, depth, N, budget_s):
    # epsilon changes only the reported threshold, never the work
    return [job("berg", spec, budget_s, depth=depth, N=N)] + [
        job("berg", spec, budget_s, depth=depth, N=N, epsilon=_eps(N, m))
        for m in (0.02, 0.05)
    ]


SHIFT_BASES = [
    {"F": [1, 2, 3, 4], "cofinite": True},
    {"F": [0], "cofinite": True},
    {"F": [-2, -1, 3], "cofinite": True},
    {"F": [-3, 0, 2, 5], "cofinite": True},
    {"F": [], "cofinite": True},
    {"F": [-1, 1], "cofinite": True},
]

ODOMETER_BASES = [
    {"words": [[0]]},
    {"words": [[1, 0]]},
    {"words": [[0, 1], [1, 1, 0]]},
    {"words": [[0, 0], [1, 0, 1]]},
    {"words": [[1, 0], [0, 1, 1], [0, 0, 0]]},
    {"words": [[1, 1, 1]]},
]

CYCLE_BASES = [
    {"points": [0]},
    {"points": [0, 3]},
    {"points": [1, 2, 4]},
    {"points": [5]},
    {"points": [0, 2, 4]},
    {"points": [1, 3]},
]

SLOTS = {
    "ktheory-odometer": [
        [job("ktheory", ODOMETER_2, 60.0, depth=6)],
        [job("ktheory", ODOMETER_2, depth=5)],
        [job("ktheory", ODOMETER_3, 60.0, depth=4)],
        [job("ktheory", ODOMETER_3, depth=3)],
    ],
    "identities-shift": [
        [job("identities", SHIFT, depth=3, N=8)],
        [job("identities", SHIFT, depth=3, N=12)],
        [job("identities", SHIFT, 40.0, depth=3, N=16)],
        [job("identities", quotient(SHIFT), 40.0, depth=2, N=3)],
    ],
    "berg-shift": [
        _berg(SHIFT, 3, 16, 20.0),
        _berg(SHIFT, 3, 32, 40.0),
        _berg(SHIFT, 3, 48, 60.0),
        _berg(quotient(SHIFT), 2, 8, 40.0),
    ],
    "mixed-families": [
        [job("tower", SHIFT, base=b) for b in SHIFT_BASES],
        [job("tower", ODOMETER_2, base=b) for b in ODOMETER_BASES],
        [job("tower", cycle(6), base=b) for b in CYCLE_BASES],
        [job("tower", s, depth=2) for s in (SHIFT, ODOMETER_3, cycle(5))],
        [job("fiberwise", TWO_POINT, depth=d) for d in (1, 2)],
        [job("fiberwise", s) for s in (ODOMETER_2, ODOMETER_3, SHIFT, cycle(5))],
        [job("fiberwise", quotient(f)) for f in (ODOMETER_2, cycle(3), SHIFT)],
        [job("approximant", quotient(ODOMETER_2), depth=2, N=2)],
        [job("approximant", cycle(p), depth=2, N=2) for p in (5, 6, 7)],
        [job("ktheory", ODOMETER_2, depth=3), job("ktheory", ODOMETER_3, depth=2)],
        [job("identities", ODOMETER_2, depth=2, N=3)],
        [job("identities", ODOMETER_3, depth=2, N=3)],
    ],
}

# A small job of the workload's main command, run once before timing in
# the traced run so that first-call costs land in set-up.
WARMUP = {
    "ktheory-odometer": job("ktheory", ODOMETER_2, depth=3),
    "identities-shift": job("identities", SHIFT, depth=2, N=3),
    "berg-shift": job("berg", SHIFT, depth=2, N=4),
    "mixed-families": job("identities", ODOMETER_2, depth=1, N=2),
}

WORKLOADS = tuple(SLOTS)


def pool(workload):
    """Every job the workload can draw, whatever the seed."""
    return [j for slot in SLOTS[workload] for j in slot]


def draw(workload, seed):
    """The job list for one seed: an alternative per slot, in seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = [rng.choice(slot) for slot in SLOTS[workload]]
    rng.shuffle(jobs)
    return jobs


def write_inputs(jobs, workdir):
    """Write each job's spec file; return, per job, its CLI arguments.
    Every report goes to stdout as JSON."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i, j in enumerate(jobs):
        spec_path = workdir / ("job%02d.spec.json" % i)
        spec_path.write_text(json.dumps(j["spec"], sort_keys=True) + "\n")
        out.append([j["command"], "--spec", str(spec_path)] + j["args"]
                   + ["--format", "json"])
    return out
