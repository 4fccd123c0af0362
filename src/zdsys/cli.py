"""Command-line front-end: parse a system spec file, run one pipeline,
and emit a deterministic machine-readable (or plain text) report."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cpalgebra as cp
from . import ktheory, numeric, space, towers
from .errors import (
    MaxStepsExceeded,
    NeedsRefinement,
    SaturationFailure,
    ZdsysError,
)

SCHEMA_VERSION = 1


def _load_spec(path):
    with open(path) as f:
        try:
            return space.SystemSpec.from_dict(json.load(f))
        except RecursionError:
            raise ValueError("spec is nested too deeply") from None


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % pad)
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return "\n".join(lines)


def _emit(report, args):
    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    if args.format == "json":
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    else:
        text = _render_text(_jsonable(report))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_tower(args):
    spec = _load_spec(args.spec)
    if args.base:
        try:
            bases = [space.from_dict(spec, json.loads(args.base))]
        except RecursionError:
            raise ValueError("--base is nested too deeply") from None
    else:
        bases = spec.canonical_bases(args.depth)
    comp = space.complement(space.union(*bases))
    P = bases + ([comp] if not space.is_empty(comp) else [])
    # a system that build_from_bases returns meets conditions a-f, by
    # the lemma in its docstring; no return system over these bases is
    # a failed verification, with its witness: the part of a base that
    # does not come back, or the overlap or gap of the tower levels (f)
    try:
        S = towers.build_from_bases(bases, P, args.max_steps)
    except MaxStepsExceeded as e:
        failure = ("return", False, e.remainder)
    except SaturationFailure as e:
        failure = ("f", False, e.witness)
    else:
        passed = towers.ValidationReport(
            tuple((c, True, None) for c in "abcdef")
        )
        _emit(
            {
                "system": towers.system_to_dict(S),
                "validation": passed.to_dict(),
            },
            args,
        )
        return 0
    failed = towers.ValidationReport((failure,))
    _emit({"system": None, "validation": failed.to_dict()}, args)
    return 1


def cmd_fiberwise(args):
    spec = _load_spec(args.spec)
    rep = towers.check_fiberwise(spec, args.depth, args.max_steps)
    body = {
        "verdict": rep.verdict,
        "depth": rep.depth,
        "z_witnesses": [_jsonable(w) for w in rep.z_witnesses],
        "failure": None
        if rep.failure_witness is None
        else {
            "witness": None
            if rep.failure_witness[0] is None
            else space.to_dict(rep.failure_witness[0]),
            "reason": rep.failure_witness[1],
        },
    }
    _emit(body, args)
    return 0 if rep.verdict else 1


def cmd_approximant(args):
    spec = _load_spec(args.spec)
    levels = []
    prev = None
    for n in range(1, args.depth + 1):
        P = space.generating_partition(spec, n)
        if prev is not None:
            P = space.common_refinement(P, towers.tower_levels(prev))
        S, S2 = towers.adapted_system_pair(spec, P, args.N, args.max_steps)
        desc = cp.approximant(S, S2)
        entry = {"level": n, "descriptor": desc.to_dict()}
        if prev is not None:
            mult = []
            for towers_s in S.towers:
                lead = towers_s[0]
                row = []
                for X_t in prev.bases:
                    row.append(
                        sum(
                            1
                            for j in range(lead.J)
                            if space.is_subset(space.apply_h(lead.Y, j), X_t)
                        )
                    )
                mult.append(row)
            entry["multiplicity"] = mult
        levels.append(entry)
        prev = S
    _emit({"levels": levels}, args)
    return 0


def cmd_ktheory(args):
    spec = _load_spec(args.spec)
    levels = []
    for n in range(1, args.depth + 1):
        P = space.generating_partition(spec, n)
        try:
            levels.append(ktheory.level_report(P, n))
        except NeedsRefinement:
            levels.append({"level": n, "needs_refinement": True})
    _emit({"levels": levels}, args)
    return 0


def cmd_berg(args):
    spec = _load_spec(args.spec)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = math.pi / args.N + 0.01
    P = space.generating_partition(spec, args.depth)
    rep = numeric.berg_verify(spec, P, args.N, epsilon, args.max_steps)
    _emit(rep.to_dict(), args)
    return 0 if rep.passed else 1


def cmd_identities(args):
    spec = _load_spec(args.spec)
    P = space.generating_partition(spec, args.depth)
    S, S2 = towers.adapted_system_pair(spec, P, args.N, args.max_steps)
    rep = cp.identity_suite(S, S2)
    _emit(rep.to_dict(), args)
    return 0 if rep.ok else 1


COMMANDS = {
    "tower": cmd_tower,
    "fiberwise": cmd_fiberwise,
    "approximant": cmd_approximant,
    "ktheory": cmd_ktheory,
    "berg": cmd_berg,
    "identities": cmd_identities,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ValueError, so that they
    exit 2 with a JSON error like every other input error."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="zdsys",
        description="Tower systems and approximants on zero-dimensional "
        "dynamical systems",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="system spec JSON file")
    parser.add_argument("--base", help="clopen base set as JSON (tower only)")
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--N", type=int, default=4)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", default=None)
    return parser


def _check_args(args):
    for name in ("depth", "N"):
        if getattr(args, name) < 1:
            raise ValueError("--%s must be >= 1" % name)
    if args.max_steps is not None and args.max_steps < 1:
        raise ValueError("--max-steps must be >= 1")
    # JSON has no Infinity or NaN to write a non-finite epsilon as
    if args.epsilon is not None and not math.isfinite(args.epsilon):
        raise ValueError("--epsilon must be finite")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        return COMMANDS[args.command](args)
    except (
        ZdsysError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        MemoryError,
        RecursionError,
    ) as e:
        # an input too large for this machine is an input error too
        message = str(e)
        if isinstance(e, MemoryError) and not message:
            message = "input too large for the available memory"
        body = {
            "error": type(e).__name__,
            "message": message,
            "schema_version": SCHEMA_VERSION,
        }
        print(json.dumps(_jsonable(body), sort_keys=True, indent=2),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
