"""End-to-end command-line checks with temporary spec files."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil
import oracles
from zdsys import cli, space, towers


@pytest.fixture
def spec_file(tmp_path):
    def write(spec, name="spec.json"):
        p = tmp_path / name
        p.write_text(json.dumps(spec.to_dict()))
        return str(p)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tower_command(spec_file, capsys):
    path = spec_file(space.compactified_shift())
    code, out, _ = run(capsys, "tower", "--spec", path, "--depth", "2")
    assert code == 0
    body = json.loads(out)
    assert body["schema_version"] == 1
    assert body["validation"]["ok"]
    assert body["system"]["towers"]


def test_tower_with_explicit_base(spec_file, capsys):
    spec = space.compactified_shift()
    path = spec_file(spec)
    base = space.shift_set(spec, range(1, 5), cofinite=True)
    code, out, _ = run(
        capsys,
        "tower",
        "--spec",
        path,
        "--base",
        json.dumps(space.to_dict(base)),
    )
    assert code == 0
    body = json.loads(out)
    heights = sorted(
        t["J"] for tw in body["system"]["towers"] for t in tw
    )
    assert heights[0] == 1


def test_fiberwise_verdicts(spec_file, capsys):
    code, out, _ = run(
        capsys, "fiberwise", "--spec", spec_file(space.odometer(2))
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True

    code, out, _ = run(
        capsys, "fiberwise", "--spec", spec_file(space.two_point_shift())
    )
    assert code == 1
    body = json.loads(out)
    assert body["verdict"] is False
    assert body["failure"] is not None


def test_ktheory_command(spec_file, capsys):
    code, out, _ = run(
        capsys,
        "ktheory",
        "--spec",
        spec_file(space.finite_cycle(5)),
        "--depth",
        "2",
    )
    assert code == 0
    body = json.loads(out)
    for lvl in body["levels"]:
        assert lvl["k1"] == {"rank": 1}
        assert lvl["k0"] == {"rank": 1, "torsion": []}


def test_berg_command(spec_file, capsys):
    code, out, _ = run(
        capsys,
        "berg",
        "--spec",
        spec_file(space.compactified_shift()),
        "--depth",
        "3",
        "--N",
        "4",
    )
    assert code == 0
    body = json.loads(out)
    assert body["pass"] is True
    assert len(body["block_norms"]) in (0, 7)


def test_identities_command(spec_file, capsys):
    code, out, _ = run(
        capsys,
        "identities",
        "--spec",
        spec_file(space.odometer(2)),
        "--depth",
        "2",
        "--N",
        "3",
    )
    assert code == 0
    body = json.loads(out)
    assert body["ok"] is True
    assert len(body["entries"]) == 11


def test_approximant_command(spec_file, capsys):
    code, out, _ = run(
        capsys,
        "approximant",
        "--spec",
        spec_file(space.odometer(2)),
        "--depth",
        "2",
        "--N",
        "2",
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["levels"]) == 2
    assert "multiplicity" in body["levels"][1]


def test_output_is_deterministic(spec_file, capsys):
    path = spec_file(space.finite_cycle(4))
    _, out1, _ = run(capsys, "ktheory", "--spec", path, "--depth", "2")
    _, out2, _ = run(capsys, "ktheory", "--spec", path, "--depth", "2")
    assert out1 == out2


def test_out_flag_writes_file(spec_file, capsys, tmp_path):
    path = spec_file(space.finite_cycle(3))
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "fiberwise", "--spec", path, "--out", str(dest)
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["verdict"] is True


def test_text_format(spec_file, capsys):
    path = spec_file(space.finite_cycle(3))
    code, out, _ = run(capsys, "fiberwise", "--spec", path, "--format", "text")
    assert code == 0
    assert "verdict: True" in out


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "tower", "--spec", "/nonexistent.json")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_bad_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "tower", "--spec", str(p))
    assert code == 2


def test_berg_bad_epsilon_is_usage_error(spec_file, capsys):
    path = spec_file(space.odometer(2))
    code, _, err = run(
        capsys, "berg", "--spec", path, "--N", "2", "--epsilon", "0.5"
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def _flat(d):
    """The flat README form of a nested spec dict."""
    out = {"family": d["family"]}
    for k, v in d["params"].items():
        out[k] = _flat(v) if k == "fiber" else v
    return out


@pytest.mark.parametrize(
    "spec",
    [
        space.finite_cycle(5),
        space.odometer(3),
        space.compactified_shift(),
        space.two_point_shift(),
        space.quotient_product(space.finite_cycle(3)),
        space.quotient_product(space.odometer(3)),
    ],
)
def test_flat_and_nested_specs_agree(spec, tmp_path, capsys):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(_flat(spec.to_dict())))
    assert space.SystemSpec.from_dict(json.loads(flat.read_text())) == spec
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(spec.to_dict()))
    runs = [
        run(capsys, "fiberwise", "--spec", str(p), "--depth", "2")
        for p in (flat, nested)
    ]
    assert runs[0] == runs[1]


def test_flat_odometer_base_is_read(tmp_path, capsys):
    p = tmp_path / "odo.json"
    p.write_text(json.dumps({"family": "odometer", "base": 3}))
    code, out, _ = run(capsys, "tower", "--spec", str(p), "--depth", "2")
    assert code == 0
    heights = [t["J"] for tw in json.loads(out)["system"]["towers"] for t in tw]
    assert heights == [9]


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "odometer"},
        {"family": "odometer", "params": {}},
        {"family": "odometer", "base": 2, "period": 3},
        {"family": "odometer", "base": "3"},
        {"family": "odometer", "base": 2.0},
        {"family": "odometer", "base": True},
        {"family": "odometer", "base": 1},
        {"family": "finite_cycle"},
        {"family": "finite_cycle", "params": {"period": 3}, "period": 3},
        {"family": "compactified_shift", "params": []},
        {"family": "compactified_shift", "base": 2},
        {"family": "quotient_product"},
        {"family": "quotient_product", "fiber": 3},
        {"family": "quotient_product", "fiber": {"family": "odometer"}},
        {"family": "quotient_product", "fiber": {"family": "two_point_shift"}},
        {"family": "circle"},
        {"family": ["odometer"]},
        {"base": 2},
        [1],
        "odometer",
    ],
)
def test_bad_spec_is_usage_error(spec, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    code, out, err = run(capsys, "fiberwise", "--spec", str(p))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


SHIFT = space.compactified_shift()
ODOMETER = space.odometer(2)
CYCLE = space.finite_cycle(3)
QCYCLE = space.quotient_product(CYCLE)


@pytest.mark.parametrize(
    "spec, argv",
    [
        (SHIFT, ("berg", "--N", "0")),
        (SHIFT, ("berg", "--N", "-3")),
        (SHIFT, ("berg", "--epsilon", "nan")),
        (SHIFT, ("berg", "--epsilon", "inf")),
        (SHIFT, ("berg", "--epsilon", "1e400")),
        (SHIFT, ("ktheory", "--depth", "0")),
        (SHIFT, ("approximant", "--depth", "-1")),
        (SHIFT, ("tower", "--base", '{"G": [1]}')),
        (SHIFT, ("tower", "--base", "[1]")),
        (SHIFT, ("tower", "--base", '{"F": [1.5], "cofinite": true}')),
        (SHIFT, ("tower", "--base", '{"F": "1", "cofinite": true}')),
        (SHIFT, ("tower", "--base", '{"F": [1], "cofinite": 1}')),
        (ODOMETER, ("tower", "--base", '{"words": [[2]]}')),
        (ODOMETER, ("tower", "--base", '{"words": [[0, -1]]}')),
        (ODOMETER, ("tower", "--base", '{"words": [0]}')),
        (ODOMETER, ("tower", "--base", '{"words": {"0": 1}}')),
        (ODOMETER, ("tower", "--base", '{"points": [0]}')),
        (ODOMETER, ("ktheory", "--depth", "abc")),
        (ODOMETER, ("bogus",)),
        (SHIFT, ("tower", "--max-steps", "0")),
        (SHIFT, ("berg", "--max-steps", "-1")),
        (CYCLE, ("tower", "--base", '{"points": [5]}')),
        (CYCLE, ("tower", "--base", '{"points": [0, 3]}')),
        (CYCLE, ("tower", "--base", '{"points": [-1]}')),
        (QCYCLE, ("tower", "--base",
                  '{"slices": [{"k": 0, "set": {"points": [3]}}]}')),
    ],
)
def test_bad_arguments_are_usage_errors(spec, argv, spec_file, capsys):
    path = spec_file(spec)
    code, out, err = run(capsys, argv[0], "--spec", path, *argv[1:])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_tower_reads_its_conditions_from_the_construction(
    spec, spec_file, capsys
):
    # conditions a-f hold by the lemma of build_from_bases, so tower
    # makes no second pass over its system: the package has no
    # validate_system to make one with.  The tests' validate_system is
    # the oracle its report is held to
    assert not hasattr(towers, "validate_system")
    path = spec_file(spec)
    for depth in (1, 2, 3):
        code, out, err = run(
            capsys, "tower", "--spec", path, "--depth", str(depth)
        )
        assert code == 0
        assert err == ""
        body = json.loads(out)
        assert body["validation"]["entries"] == [
            {"condition": c, "pass": True, "witness": None} for c in "abcdef"
        ]
        bases = spec.canonical_bases(depth)
        rest = space.complement(space.union(*bases))
        P = bases + ([rest] if not space.is_empty(rest) else [])
        S = oracles.system_from_dict(spec, body["system"])
        assert S.bases == tuple(bases)
        assert oracles.validate_system(S, P).to_dict() == body["validation"]


@pytest.mark.parametrize("depth", ["1", "2"])
def test_tower_without_return_is_verification_failure(depth, spec_file, capsys):
    # the canonical base is the -inf tail, and its right end never comes back
    spec = space.two_point_shift()
    code, out, err = run(
        capsys, "tower", "--spec", spec_file(spec), "--depth", depth
    )
    assert code == 1
    assert err == ""
    body = json.loads(out)
    assert body["system"] is None
    assert body["validation"]["ok"] is False
    (entry,) = body["validation"]["entries"]
    assert entry["condition"] == "return" and entry["pass"] is False
    witness = space.from_dict(spec, entry["witness"])
    assert not space.is_empty(witness)
    base = spec.canonical_bases(int(depth))[0]
    assert space.is_subset(witness, base)
    # no point of the witness is back in the base after a few hundred steps
    for n in range(1, 300):
        assert space.is_empty(space.intersect(space.apply_h(witness, n), base))


def test_tower_whose_levels_miss_x_is_verification_failure(spec_file, capsys):
    # the towers over one fiber point of slice 0 cover slice 0 and no more
    spec = space.quotient_product(space.finite_cycle(3))
    base = space.quotient_set(
        spec, {0: space.finite_cycle_set(spec.fiber, [0])}
    )
    code, out, err = run(
        capsys, "tower", "--spec", spec_file(spec),
        "--base", json.dumps(space.to_dict(base)),
    )
    assert code == 1
    assert err == ""
    body = json.loads(out)
    assert body["system"] is None
    assert body["validation"]["ok"] is False
    (entry,) = body["validation"]["entries"]
    assert entry["condition"] == "f" and entry["pass"] is False
    covered = space.quotient_set(spec, {0: space.whole_space(spec.fiber)})
    assert space.from_dict(spec, entry["witness"]) == space.complement(covered)


def test_tower_with_empty_base_is_input_error(spec_file, capsys):
    code, out, err = run(
        capsys, "tower", "--spec", spec_file(SHIFT),
        "--base", '{"F": [], "cofinite": false}',
    )
    assert code == 2
    assert out == ""
    body = json.loads(err)
    assert body["error"] == "ValueError"
    assert body["message"] == "base must be nonempty"


def test_quotient_base_with_repeated_slice_index_is_input_error(
    spec_file, capsys
):
    # a dict of the slices would keep only the last slice over k = 0
    spec = space.quotient_product(space.finite_cycle(3))
    base = {"tail": False, "slices": [
        {"k": 0, "set": {"points": [0]}},
        {"k": 0, "set": {"points": [1]}},
    ]}
    with pytest.raises(ValueError):
        space.from_dict(spec, base)
    code, out, err = run(
        capsys, "tower", "--spec", spec_file(spec), "--base", json.dumps(base)
    )
    assert code == 2
    assert out == ""
    body = json.loads(err)
    assert body["error"] == "ValueError"
    assert body["message"] == "slice index 0 appears twice"


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "fiber",
    [space.finite_cycle(3), space.odometer(2), space.compactified_shift()],
)
def test_tower_on_quotient_product(fiber, depth, spec_file, capsys):
    path = spec_file(space.quotient_product(fiber))
    code, out, _ = run(capsys, "tower", "--spec", path, "--depth", str(depth))
    assert code == 0
    body = json.loads(out)
    assert body["validation"]["ok"] is True
    # the tail base and one base over each index in [-depth, depth)
    assert len(body["system"]["bases"]) == 2 * depth + 1


@pytest.mark.parametrize(
    "spec_text, base",
    [
        ("[" * 100_000 + "]" * 100_000, None),
        (json.dumps(SHIFT.to_dict()), "[" * 5_000 + "]" * 5_000),
    ],
    ids=["spec", "base"],
)
def test_deeply_nested_input_is_usage_error(spec_text, base, tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text(spec_text)
    argv = ["tower", "--spec", str(p)] + ([] if base is None else ["--base", base])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "ValueError"


def _limit_address_space(limit=1536 * 2**20):
    """Cap the address space of the calling process; run in the child
    between fork and exec, so the test process keeps its own limit."""
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_input_too_large_for_memory_is_input_error(tmp_path):
    # an odometer set at depth 40 is a 2^40-bit mask: the allocation
    # fails under the limit, and the failure is an input error
    spec = tmp_path / "odo.json"
    spec.write_text(json.dumps(space.odometer(2).to_dict()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zdsys.cli", "tower", "--spec", str(spec),
         "--depth", "40"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "MemoryError"


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_shift_base_too_wide_for_memory_is_input_error(tmp_path):
    # a shift set stores the mask of its finite part: points 0 and 10^12
    # make a 10^12-bit mask, which fails under the limit
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps(SHIFT.to_dict()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "zdsys.cli", "tower", "--spec", str(spec),
         "--base", '{"F": [0, 1000000000000], "cofinite": true}'],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "MemoryError"


@pytest.mark.parametrize(
    "error",
    [MemoryError(), RecursionError("maximum recursion depth exceeded")],
    ids=["MemoryError", "RecursionError"],
)
def test_resource_errors_are_input_errors(error, spec_file, capsys, monkeypatch):
    def exhausted(args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "tower", exhausted)
    code, out, err = run(capsys, "tower", "--spec", spec_file(SHIFT))
    assert code == 2
    assert out == ""
    body = json.loads(err)
    assert body["error"] == type(error).__name__
    assert body["message"]


# ---------------------------------------------------------------------------
# fuzzing the command line contract
# ---------------------------------------------------------------------------

_JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 3), max_size=2),
)


# true about one time in eight; a middle value, because hypothesis
# favours the ends of a range
_RARELY = st.integers(0, 7).map(lambda k: k == 3)


def _mostly(valid, junk=_JSON_JUNK):
    """valid most of the time, so that most commands get to run."""
    return _RARELY.flatmap(lambda rare: junk if rare else valid)


_SMALL_ARG = _mostly(
    st.integers(1, 3).map(str), st.sampled_from(["-1", "0", "1.5", "abc", ""])
)


@st.composite
def _specs(draw, depth=0):
    """A spec object of any family, flat or nested, with small or
    malformed parameters, and now and then a missing or extra key."""
    family = draw(
        _mostly(
            st.sampled_from(space.FAMILIES), st.sampled_from(["circle", ""])
        )
    )
    params = {}
    if family == space.FINITE_CYCLE:
        params["period"] = draw(
            _mostly(st.integers(1, 4), st.integers(-1, 0) | _JSON_JUNK)
        )
    elif family == space.ODOMETER:
        params["base"] = draw(
            _mostly(st.just(2), st.integers(0, 1) | _JSON_JUNK)
        )
    elif family == space.QUOTIENT_PRODUCT:
        params["fiber"] = draw(
            _mostly(_specs(depth + 1)) if depth < 1 else _JSON_JUNK
        )
    if draw(_RARELY):
        params.clear()
    if draw(_RARELY):
        key = draw(st.sampled_from(["period", "base", "fiber", "x"]))
        params[key] = draw(st.integers(-1, 3) | _JSON_JUNK)
    if draw(st.booleans()):
        return {"family": family, **params}
    return {"family": family, "params": params}


_SPEC_TEXT = _mostly(
    _specs().map(json.dumps),
    _JSON_JUNK.map(json.dumps) | st.text(max_size=8),
)
_BASES = st.sampled_from(
    [
        '{"F": [1, 2], "cofinite": true}',
        '{"F": [0]}',
        '{"words": [[0], [1, 1]]}',
        '{"words": [[3]]}',
        '{"points": [0, 2]}',
        '{"tail": false, "slices": []}',
        "[1]",
        "null",
        "{",
    ]
)


def _reject_constant(name):
    raise ValueError("%s is not JSON" % name)


def _strict_json(text):
    """json.loads without Python's NaN, Infinity and -Infinity, which
    RFC 8259 JSON does not have."""
    return json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    spec_text=_SPEC_TEXT,
    command=_mostly(
        st.sampled_from(sorted(cli.COMMANDS)), st.sampled_from(["bogus", ""])
    ),
    depth=_SMALL_ARG,
    N=_SMALL_ARG,
    max_steps=st.none() | _SMALL_ARG,
    epsilon=st.none()
    | st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "2.5", "1e9"]),
    base=_mostly(st.none(), _BASES),
    fmt=st.sampled_from(["json", "text"]),
)
def test_cli_contract_holds_for_random_input(
    spec_text, command, depth, N, max_steps, epsilon, base, fmt
):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as f:
            f.write(spec_text)
        argv = [command, "--spec", path, "--depth=" + depth,
                "--N=" + N, "--format=" + fmt]
        if max_steps is not None:
            argv.append("--max-steps=" + max_steps)
        if epsilon is not None:
            argv.append("--epsilon=" + epsilon)
        if base is not None:
            argv.append("--base=" + base)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, spec_text)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        body = _strict_json(err.getvalue())
        assert isinstance(body, dict) and "error" in body, (argv, spec_text)
        assert out.getvalue() == ""
    elif fmt == "json":
        _strict_json(out.getvalue())


# valid berg arguments, so that the drawn epsilon reaches the report:
# above pi/2 >= pi/N it always does, below it the run exits 2
_BERG_SPECS = st.one_of(
    st.just({"family": "compactified_shift"}),
    st.integers(1, 6).map(
        lambda p: {"family": "finite_cycle", "params": {"period": p}}
    ),
)
_FINITE_EPSILON = st.floats(1.6, 100.0) | st.floats(
    allow_nan=False, allow_infinity=False
)
_NONFINITE_EPSILON = st.sampled_from(
    ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"]
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spec=_BERG_SPECS,
    N=st.integers(2, 6),
    epsilon=_FINITE_EPSILON.map(repr) | _NONFINITE_EPSILON,
)
def test_berg_reports_the_epsilon_given(spec, N, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        argv = ["berg", "--spec", path, "--depth=1", "--N=%d" % N,
                "--epsilon=" + epsilon]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if not math.isfinite(float(epsilon)):
        assert code == 2, argv
        assert "error" in _strict_json(err.getvalue())
        assert out.getvalue() == ""
    elif code in (0, 1):
        assert _strict_json(out.getvalue())["epsilon"] == float(epsilon)
    else:
        assert code == 2 and float(epsilon) <= math.pi / N, argv
