"""First-return decompositions and tower systems over clopen bases.

A return system is a finite family of disjoint clopen bases, each carrying
the towers of its first-return decomposition: for base X_t the classes
(Y_{t,k}, J_{t,k}) where every point of Y_{t,k} first comes back to X_t
after exactly J_{t,k} steps.  The tower levels h^j(Y_{t,k}) for
0 <= j < J_{t,k} must tile the whole space.
"""

from __future__ import annotations

from . import space
from .errors import MaxStepsExceeded, NotSubordinate, SaturationFailure
from .space import (
    ClopenSet,
    Record,
    SystemSpec,
    apply_h,
    common_refinement,
    difference,
    disjoint_union,
    generating_partition,
    intersect,
    is_empty,
    is_partition,
    partition_witness,
    set_scale,
    sort_key,
)


class Tower(Record):
    """One return class: base slice Y and its constant return time J."""

    Y: ClopenSet
    J: int

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("return time must be at least 1")


class ReturnDecomposition(Record):
    base: ClopenSet
    classes: tuple


class ReturnSystem(Record):
    spec: SystemSpec
    bases: tuple
    towers: tuple  # towers[t] is a tuple of Tower, sorted by (J, set order)

    def __post_init__(self):
        if len(self.towers) != len(self.bases):
            raise ValueError("need one tuple of towers per base")

    @property
    def T(self):
        return len(self.bases)


class ValidationReport(Record):
    entries: tuple  # of (condition, passed, witness ClopenSet or None)

    @property
    def ok(self):
        return all(p for _, p, _ in self.entries)

    def to_dict(self):
        return {
            "entries": [
                {
                    "condition": c,
                    "pass": p,
                    "witness": None if w is None else space.to_dict(w),
                }
                for c, p, w in self.entries
            ],
            "ok": self.ok,
        }


class FiberwiseReport(Record):
    verdict: bool
    depth: int
    z_witnesses: tuple
    failure_witness: tuple | None = None  # (ClopenSet, reason)


def default_max_steps(sets):
    """10 times the largest window or level scale in the inputs, plus 64."""
    scale = max((set_scale(a) for a in sets), default=1)
    return 10 * scale + 64


def first_return_decomposition(U, max_steps=None):
    """Split U by the first-return time of h: class (Y_j, j) holds the
    points of U whose orbit re-enters U first at step j."""
    if is_empty(U):
        raise ValueError("base must be nonempty")
    if max_steps is None:
        max_steps = default_max_steps([U])
    classes = []
    A = U
    for j in range(1, max_steps + 1):
        Yj = intersect(A, apply_h(U, -j))
        if not is_empty(Yj):
            classes.append(Tower(Yj, j))
            A = difference(A, Yj)
        if is_empty(A):
            break
    if not is_empty(A):
        raise MaxStepsExceeded(
            "no return within %d steps" % max_steps, remainder=A
        )
    return ReturnDecomposition(U, tuple(classes))


def _sorted_towers(classes):
    return tuple(sorted(classes, key=lambda c: (c.J, sort_key(c.Y))))


def tower_levels(S):
    """All tower levels h^j(Y_{t,k}) for 0 <= j < J_{t,k}."""
    out = []
    for towers in S.towers:
        for c in towers:
            for j in range(c.J):
                out.append(apply_h(c.Y, j))
    return tuple(out)


def build_from_bases(bases, P, max_steps=None):
    """Return system with the given bases; towers by first return.  The
    cells of P must be pairwise disjoint.

    Lemma: a system S returned here meets conditions a-f of
    validate_system, the tests' oracle in tests/oracles.py, so
    validate_system(S, P).ok holds.
    a: bases is nonempty, else this raises.
    b: common_refinement(nonempty, P) is tuple(nonempty) iff every
    nonempty base lies in one cell of P, the test b makes on each base;
    an empty base raises in first_return_decomposition.
    c, d: the classes of a nonempty base are nonempty and pairwise
    disjoint, as each is cut from the remainder A, and they cover the
    base, as A is empty at the end.
    e: in first_return_decomposition(U) with U = X_t, a point of Y_J
    lies in h^-J(U) and left A at step J only, so h^J(Y) lies in X_t
    and the levels 1..J-1 miss X_t.  The levels tile X by f, so their
    images under h tile X too.  h sends level j < J-1 to level j+1 and
    the top level to h^J(Y), so the tops tile the complement of the
    levels 1..J-1, which is the union of the bases.  Each top lies in
    its own base and the bases are disjoint, so the tops over X_t tile
    X_t.
    f: every level is nonempty, as the classes are and h is a bijection,
    so the levels tile X iff partition_witness finds no overlap and
    misses nothing, the one walk below."""
    if not bases:
        raise ValueError("need at least one base")
    spec = bases[0].spec
    if max_steps is None:
        max_steps = default_max_steps(list(bases) + list(P))
    if disjoint_union(spec, bases)[1] is not None:
        raise ValueError("bases must be pairwise disjoint")
    # an empty base is left to first_return_decomposition's ValueError
    nonempty = [a for a in bases if not is_empty(a)]
    if common_refinement(nonempty, P) != tuple(nonempty):
        raise NotSubordinate("a base straddles the partition")
    towers = tuple(
        _sorted_towers(first_return_decomposition(a, max_steps).classes)
        for a in bases
    )
    S = ReturnSystem(spec, tuple(bases), towers)
    witness = partition_witness(spec, tower_levels(S))
    if not is_empty(witness):
        raise SaturationFailure(
            "tower levels do not partition the space", witness=witness
        )
    return S


# ---------------------------------------------------------------------------
# fiberwise check
# ---------------------------------------------------------------------------


def check_fiberwise(spec, depth, max_steps=None):
    """Try to build a return system subordinate to each generating
    partition up to the requested depth, from the canonical bases."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    last_bases = None
    for n in range(1, depth + 1):
        bases = spec.canonical_bases(n)
        P = generating_partition(spec, n)
        try:
            build_from_bases(bases, P, max_steps)
        except MaxStepsExceeded as e:
            return FiberwiseReport(
                False,
                n,
                (),
                (e.remainder, "orbit does not return to its base"),
            )
        except (SaturationFailure, NotSubordinate) as e:
            wit = getattr(e, "witness", None)
            return FiberwiseReport(False, n, (), (wit, str(e)))
        last_bases = bases
    witnesses = tuple(spec.base_witness(b) for b in last_bases)
    return FiberwiseReport(True, depth, witnesses, None)


# ---------------------------------------------------------------------------
# adapted system pairs
# ---------------------------------------------------------------------------


def adapted_system_pair(spec, P, N, max_steps=None):
    """A pair (S, S2) of return systems subordinate to P, suitable for
    length-N approximation: S is built on spec.adapted_bases(P, N), and
    S2 on the images h^{J_{t,1}}(Y_{t,1}) of the leading slices of S.

    Lemma: for every partition P and N >= 1,
    (i) every level of S lies in one cell of P;
    (ii) every level of S2 lies in one cell of h(R), where R is the
    slices of S plus X - bases when that is nonempty;
    (iii) postconditions a, b and d hold:
    a: each leading slice Y_{t,1} meets the known minimal set of every
    fiber that X_t meets;
    b: h^n(X_t) lies in one cell of P for n = 0..N-1;
    d: the nonempty sets h^i(hat_base(S, t)), i = 0..N, over all t, are
    pairwise disjoint.
    Each family proves its part in its adapted_bases docstring.  Level J
    of a tower, h^J(Y), lies in its base.  The bases of S lie in cells of
    P, as build_from_bases checks.  The base of S2 over t is h of the top
    level of the leading tower of S over t, and that level is its slice
    (J = 1) or lies in X - bases, one cell of R.  So every level
    j = 0..J of S (of S2) lies in one cell of P (of h(R)), and refining
    S by P and S2 by h(R) changes neither.
    Conditions c and e follow.  c: the levels P1 of S refine P by (i),
    and so do P2 = h(P1), as h sends a level to the next one or, from a
    top, into a base, which lies in one cell of P.  e: let Y2 be a slice
    of S2 over t, so h^-1(Y2) lies in the top level of the leading tower
    of S over t.  If h^(i-1)(Y2) lies in a level L of S, h^i(Y2) lies in
    the level after L, or, when L is a top, in a base X_s and, by (ii)
    at level i+1, in one cell of R, which inside X_s is a slice.  So
    h^i(Y2) lies in one level of S for i = -1..J-1, and the levels
    0..J-1 of S2 refine P1 and, by h, P2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not is_partition(list(P)):
        raise ValueError("P must be a partition")
    bases = spec.adapted_bases(P, N)
    if max_steps is None:
        max_steps = default_max_steps(list(bases) + list(P)) + 20 * N
    S = build_from_bases(bases, P, max_steps)
    bases2 = [apply_h(towers[0].Y, towers[0].J) for towers in S.towers]
    return S, build_from_bases(bases2, P, max_steps)


def hat_base(S, t):
    """X_t minus the fixed core Y_{t,1} intersect h^{J_{t,1}}(Y_{t,1})."""
    lead = S.towers[t][0]
    return difference(
        S.bases[t], intersect(lead.Y, apply_h(lead.Y, lead.J))
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def system_to_dict(S):
    return {
        "bases": [space.to_dict(b) for b in S.bases],
        "towers": [
            [{"Y": space.to_dict(c.Y), "J": c.J} for c in towers]
            for towers in S.towers
        ],
    }
