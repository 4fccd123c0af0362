"""First-return decompositions and tower systems over clopen bases.

A return system is a finite family of disjoint clopen bases, each carrying
the towers of its first-return decomposition: for base X_t the classes
(Y_{t,k}, J_{t,k}) where every point of Y_{t,k} first comes back to X_t
after exactly J_{t,k} steps.  The tower levels h^j(Y_{t,k}) for
0 <= j < J_{t,k} must tile the whole space.
"""

from __future__ import annotations

from . import space
from .errors import (
    ConstructionFailed,
    MaxStepsExceeded,
    NotSubordinate,
    SaturationFailure,
)
from .space import (
    ClopenSet,
    Record,
    SystemSpec,
    apply_h,
    common_refinement,
    complement,
    difference,
    disjoint_union,
    empty_set,
    generating_partition,
    intersect,
    is_empty,
    is_partition,
    partition_witness,
    set_scale,
    sort_key,
    union,
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

    def base_union(self):
        return union(empty_set(self.spec), *self.bases)


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


def refine_system(S, P_target):
    """Split every tower slice Y into the nonempty sets
    Y & h^0(U_0) & ... & h^-J(U_J) with each U_j in the partition
    P_target, so that all its levels h^j(Y), j = 0..J, land inside single
    elements of P_target.  Bases and return times are unchanged.
    The pieces are carried up each tower: the cells of Y by P_target,
    then of h(W) for each piece W, up to level J.
    Lemma: h(h^j(V)) & U = h^(j+1)(V & h^-(j+1)(U)), so by induction
    the top pieces are h^J of the sets above; canonical forms are
    unique and _sorted_towers fixes the order."""
    if not is_partition(list(P_target)):
        raise ValueError("P_target must be a partition")

    def split(c):
        pieces = common_refinement((c.Y,), P_target)
        for _ in range(c.J):
            pieces = common_refinement([apply_h(W, 1) for W in pieces],
                                       P_target)
        return [Tower(apply_h(W, -c.J), c.J) for W in pieces]

    new_towers = tuple(
        _sorted_towers(piece for c in towers for piece in split(c))
        for towers in S.towers
    )
    return ReturnSystem(S.spec, S.bases, new_towers)


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
    length-N approximation: the levels of both refine P, the first N
    iterates of X_t minus its fixed core stay pairwise disjoint, and S2
    is based on the images h^{J_{t,1}}(Y_{t,1}) with levels refining both
    level partitions of S.

    Postconditions a, b and d are checked.  c and e hold by construction,
    with P1 = tower_levels(S) and P2 = h(P1) the level partitions of S:
    refine_system(., Q) puts each level j = 0..J in one cell of Q.  S is
    refined by P, so P1 and P2 refine P (c).  S2 is refined by h(R), R
    the slices of S plus X - bases; by the third lemma that gives the
    system that refining by P2 gives, whose lower levels refine P1 and P2
    (e), by the first lemma with Q = P1.

    Lemma: for a partition Q and a set W, h^j(W) lies in one cell of
    Q & h(Q) for j = 0..J-1 iff h^i(W) lies in one cell of h(Q) for
    i = 0..J.  Q and h(Q) are partitions, so a set lies in one cell of
    Q & h(Q) iff it lies in one cell of each.  h^j(W) lies in U in Q iff
    h^(j+1)(W) lies in h(U) in h(Q).  So the constraints on the left are
    h^(j+1)(W) and h^j(W) in h(Q) for j = 0..J-1: those on the right.
    The pieces of refine_system are the atoms of the join of the
    constraints pulled back to Y; canonical forms are unique and
    _sorted_towers fixes the order.  So refining by P2 over the levels
    0..J gives, element for element, the system that refining by
    common_refinement(P1, P2) over the levels 0..J-1 gives.

    Lemma: that system is also the one that refining by P1 alone over
    the levels 0..J-1 gives.  A slice Y2 of S2 lies in S2's base
    h^{J_{t,1}}(Y_{t,1}), so h^-1(Y2) lies in one cell of P1, the top
    level h^{J_{t,1}-1}(Y_{t,1}) of S's leading tower.  Every part of Y2
    then lies in one cell of h(P1), so level 0 constrains nothing, and
    h^i(W) lies in h(U) iff h^(i-1)(W) lies in U.  So refining by h(P1)
    over the levels 0..J is refining by P1 over the levels 0..J-1.

    Lemma: refining by h(R) over the levels 0..J gives that system too,
    where R is the slices of S plus X - bases when that is nonempty.  R
    is a partition whose cells are unions of levels of S: a slice is a
    level 0, and by condition e the levels 1..J-1 make up X - bases.
    Let a part W of Y2 have h^i(W) in one level of S.  If that level is
    not a top, h^(i+1)(W) lies in the next level, inside one cell of P1
    and one of R, so neither splits it.  If it is the top of a tower
    over X_t, h^(i+1)(W) lies in X_t, whose cells in P1 and in R are
    the same: its slices.  So P1 and R split the parts alike at each
    step, from h^-1(Y2), which lies in one level by the lemma above, up
    to h^(J-1); by h, that is refining by h(P1) and by h(R) over the
    levels 0..J."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not is_partition(list(P)):
        raise ValueError("P must be a partition")
    bases = spec.adapted_bases(P, N)
    if max_steps is None:
        max_steps = default_max_steps(list(bases) + list(P)) + 20 * N
    S = refine_system(build_from_bases(bases, P, max_steps), P)

    bases2 = [apply_h(towers[0].Y, towers[0].J) for towers in S.towers]
    R = [c.Y for towers in S.towers for c in towers]
    rest = complement(S.base_union())
    if not is_empty(rest):
        R.append(rest)
    S2 = refine_system(build_from_bases(bases2, P, max_steps),
                       [apply_h(U, 1) for U in R])

    for t, towers in enumerate(S.towers):
        if not spec.minimal_witness_ok(S.bases[t], towers[0].Y):
            raise ConstructionFailed(
                "leading slice misses a fiber minimal set", postcondition="a"
            )
    images = [apply_h(X_t, n) for X_t in S.bases for n in range(N)]
    if common_refinement(images, P) != tuple(images):
        raise ConstructionFailed(
            "iterate of a base straddles the partition", postcondition="b"
        )
    hats = [hat_base(S, t) for t in range(S.T)]
    iters = [
        apply_h(X, i) for X in hats for i in range(N + 1) if not is_empty(X)
    ]
    if disjoint_union(S.spec, iters)[1] is not None:
        raise ConstructionFailed(
            "iterates of the reduced bases overlap", postcondition="d"
        )
    return S, S2


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
