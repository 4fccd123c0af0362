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
    BaseMismatch,
    ConstructionFailed,
    InvalidSystem,
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
    difference,
    disjoint_union,
    empty_set,
    generating_partition,
    intersect,
    is_empty,
    is_partition,
    is_subset,
    partition_witness,
    set_scale,
    sort_key,
    union,
)


class Tower(Record):
    """One return class: base slice Y and its constant return time J."""

    Y: ClopenSet
    J: int


class ReturnDecomposition(Record):
    base: ClopenSet
    classes: tuple


class ReturnSystem(Record):
    spec: SystemSpec
    bases: tuple
    towers: tuple  # towers[t] is a tuple of Tower, sorted by (J, set order)

    @property
    def T(self):
        return len(self.bases)

    def base_union(self):
        out = empty_set(self.spec)
        for b in self.bases:
            out = union(out, b)
        return out


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
    cells of P must be pairwise disjoint."""
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
    levels = tower_levels(S)
    if not is_partition(levels):
        raise SaturationFailure(
            "tower levels do not partition the space",
            witness=partition_witness(spec, levels),
        )
    return S


def validate_system(S, P):
    """Check the defining conditions of a return system; per-condition
    pass/fail entries with a witness set for each failure."""
    entries = []

    entries.append(("a", S.T >= 1, None))

    ok_b, wit_b = True, None
    for X_t in S.bases:
        if common_refinement((X_t,), P) != (X_t,):
            ok_b, wit_b = False, X_t
            break
    entries.append(("b", ok_b, wit_b))

    ok_c, wit_c = True, None
    for t, towers in enumerate(S.towers):
        if len(towers) < 1:
            ok_c, wit_c = False, S.bases[t]
            break
    entries.append(("c", ok_c, wit_c))

    ok_d, wit_d = True, None
    for t, towers in enumerate(S.towers):
        if not is_partition([c.Y for c in towers], S.bases[t]):
            ok_d, wit_d = False, S.bases[t]
            break
    entries.append(("d", ok_d, wit_d))

    ok_e, wit_e = True, None
    for t, towers in enumerate(S.towers):
        X_t = S.bases[t]
        for c in towers:
            if c.J < 1 or not is_subset(apply_h(c.Y, c.J), X_t):
                ok_e, wit_e = False, apply_h(c.Y, c.J)
                break
            for j in range(1, c.J):
                if not is_empty(intersect(apply_h(c.Y, j), X_t)):
                    ok_e, wit_e = False, intersect(apply_h(c.Y, j), X_t)
                    break
            if not ok_e:
                break
        if ok_e and not is_partition(
            [apply_h(c.Y, c.J) for c in towers], X_t
        ):
            ok_e, wit_e = False, X_t
        if not ok_e:
            break
    entries.append(("e", ok_e, wit_e))

    levels = tower_levels(S)
    ok_f = is_partition(levels)
    wit_f = None if ok_f else partition_witness(S.spec, levels)
    entries.append(("f", ok_f, wit_f))

    return ValidationReport(tuple(entries))


def tower_partitions(S):
    """(P1, P2): the level partitions with j in 0..J-1 and 1..J, so
    P2 = h(P1), element by element."""
    P1 = tower_levels(S)
    if not is_partition(list(P1)):
        raise InvalidSystem("tower levels do not partition the space")
    return P1, tuple(apply_h(L, 1) for L in P1)


def refine_system(S, P_target, include_upper=True):
    """Split every tower slice Y into the nonempty sets
    Y & h^0(U_0) & ... & h^-J(U_J) with each U_j in the partition
    P_target, so that all its levels h^j(Y), j = 0..J, land inside single
    elements of P_target.  Bases and return times are unchanged.  With
    include_upper false, only the levels j = 0..J-1 are constrained.
    The pieces are carried up each tower: the cells of Y by P_target,
    then of h(W) for each piece W, up to the top constrained level.
    Lemma: h(h^j(V)) & U = h^(j+1)(V & h^-(j+1)(U)), so by induction
    the top pieces are h^top of the sets above; canonical forms are
    unique and _sorted_towers fixes the order."""
    if not is_partition(list(P_target)):
        raise ValueError("P_target must be a partition")

    def split(c):
        top = c.J if include_upper else c.J - 1
        pieces = common_refinement((c.Y,), P_target)
        for _ in range(top):
            pieces = common_refinement([apply_h(W, 1) for W in pieces],
                                       P_target)
        return [Tower(apply_h(W, -top), c.J) for W in pieces]

    new_towers = tuple(
        _sorted_towers(piece for c in towers for piece in split(c))
        for towers in S.towers
    )
    return ReturnSystem(S.spec, S.bases, new_towers)


def finer_system_criterion(S, S2):
    """True iff every tower slice of S2 is contained in a tower slice of S.
    Requires the two systems to have the same union of bases.  The slices
    of S are pairwise disjoint, as the bases are and slices tile each base."""
    if S.base_union() != S2.base_union():
        raise BaseMismatch("systems have different base unions")
    slices = [c.Y for towers in S.towers for c in towers]
    pieces = [c.Y for towers in S2.towers for c in towers]
    return common_refinement(pieces, slices) == tuple(pieces)


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

    Postconditions a, b and d are checked.  c (P1 and P2 refine P) and
    e (the lower levels of S2 refine P1 and P2) hold by construction:
    refine_system(., Q) puts each constrained level in one cell of Q.
    S is refined by P for j = 0..J, which gives c.  P2 = h(P1) is a
    partition, so is R = common_refinement(P1, P2), and S2 is refined
    by R for j < J, which gives e."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not is_partition(list(P)):
        raise ValueError("P must be a partition")
    bases = spec.adapted_bases(P, N)
    if max_steps is None:
        max_steps = default_max_steps(list(bases) + list(P)) + 20 * N
    S = refine_system(build_from_bases(bases, P, max_steps), P)

    bases2 = [apply_h(towers[0].Y, towers[0].J) for towers in S.towers]
    P1, P2 = tower_partitions(S)
    S2 = refine_system(
        build_from_bases(bases2, P, max_steps),
        common_refinement(P1, P2),
        include_upper=False,
    )

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


def system_from_dict(spec, d):
    bases = tuple(space.from_dict(spec, b) for b in d["bases"])
    towers = tuple(
        _sorted_towers(
            Tower(space.from_dict(spec, c["Y"]), int(c["J"])) for c in ts
        )
        for ts in d["towers"]
    )
    return ReturnSystem(spec, bases, towers)
