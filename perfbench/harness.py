"""Paths, the pinned job environment, the budgeted job runner and the
environment stamp shared by the benchmark scripts."""

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

# BLAS threads for every job process and for the traced run.  One thread
# is at most nproc on any machine and keeps the closed loop single-core.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(Exception):
    """The checkout has no zdsys sources or no recorded reference."""


def require_program():
    if not (SRC / "zdsys" / "cli.py").is_file():
        raise MissingProgram("no zdsys sources under %s" % SRC)
    if not REFERENCE.is_file():
        raise MissingProgram("no reference file at %s" % REFERENCE)


def pin_blas_threads(env):
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    return env


def job_env():
    """Environment of a job process: the checkout's sources first on the
    path and the BLAS thread count pinned.  Job processes read and fill the
    bytecode cache under src/, as processes of an installed package do."""
    env = pin_blas_threads(dict(os.environ))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def zdsys_argv(cli_args):
    return [sys.executable, "-m", "zdsys.cli"] + list(cli_args)


def run_process(argv, budget_s, stdout_path, stderr_path, env):
    """Run one process to completion or until its budget runs out.

    Returns (exit code, or None when killed over budget; wall seconds;
    peak resident set of this process alone in MiB).  The rusage comes
    from wait4 on this child, not from the cumulative RUSAGE_CHILDREN.
    """
    killed = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(budget_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    if killed.is_set() and os.WIFSIGNALED(status):
        return None, wall, usage.ru_maxrss / 1024.0
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["jobs"]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def source_digest():
    """SHA-256 over the zdsys sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((SRC / "zdsys").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() or None


_PROBE = """
import json, numpy, scipy
cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": {k: cfg.get(k) for k in
                           ("name", "version", "openblas configuration")}}))
"""


def environment_stamp():
    """Commit, source digest, Python, numpy, scipy, BLAS build, nproc and
    the pinned BLAS thread count."""
    r = subprocess.run([sys.executable, "-c", _PROBE], env=job_env(),
                       capture_output=True, text=True, cwd=ROOT)
    try:
        libs = json.loads(r.stdout)
    except ValueError:
        libs = {"probe_error": r.stderr.strip()[-300:]}
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        **libs,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_thread_env": list(BLAS_ENV),
        "machine": platform.machine(),
    }
