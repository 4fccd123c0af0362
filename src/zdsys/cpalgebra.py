"""Exact symbolic arithmetic for finitely supported crossed-product
elements sum_n f_n u^n, where each f_n is a step function over clopen
sets and u implements the dynamics: u^n chi_E = chi_{h^n(E)} u^n.

Also builds the tower matrix units, the intertwining unitaries of a
return-system pair, the identity suite they satisfy, and the dimension
data of the resulting circle-algebra approximant.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import space
from .errors import IncompatiblePair, InvalidSystem, MixedSystems
from .space import (
    apply_h,
    complement,
    difference,
    disjoint_union,
    empty_set,
    intersect,
    is_empty,
    sort_key,
    union,
    whole_space,
)
from .towers import hat_base, tower_levels

EXACT_SCALARS = (0, 1, -1, 1j, -1j)


def _sf_accumulate(acc, pieces):
    """Add step-function pieces into a disjoint-piece accumulator."""
    for c, E in pieces:
        rem = E
        out = []
        for d, F in acc:
            I = intersect(rem, F)
            if is_empty(I):
                out.append((d, F))
                continue
            out.append((c + d, I))
            left = difference(F, I)
            if not is_empty(left):
                out.append((d, left))
            rem = difference(rem, I)
        if not is_empty(rem):
            out.append((c, rem))
        acc = out
    return acc


def _sf_canon(spec, pieces):
    """Canonical step function: disjoint supports, equal scalars merged,
    zeros dropped, cells ordered deterministically."""
    acc = _sf_accumulate([], [(c, E) for c, E in pieces if not is_empty(E)])
    by_scalar = {}
    for c, E in acc:
        if c == 0:
            continue
        key = complex(c)
        by_scalar[key] = union(by_scalar[key], E) if key in by_scalar else E
    out = [(c, E) for c, E in by_scalar.items() if not is_empty(E)]
    out.sort(key=lambda ce: sort_key(ce[1]))
    return tuple(out)


@dataclass(frozen=True)
class CPElement:
    spec: space.SystemSpec
    terms: tuple  # of (n, ((scalar, ClopenSet), ...)), sorted by n

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1))

    def __mul__(self, other):
        return multiply(self, other)


def cp_element(spec, terms):
    """Build a canonical element from {n: [(scalar, set), ...]}."""
    out = []
    for n, pieces in terms.items():
        sf = _sf_canon(spec, pieces)
        if sf:
            out.append((int(n), sf))
    out.sort(key=lambda t: t[0])
    return CPElement(spec, tuple(out))


def zero(spec):
    return CPElement(spec, ())


def one(spec):
    return char(whole_space(spec))


def char(E):
    """The characteristic function chi_E as an element."""
    return cp_element(E.spec, {0: [(1, E)]})


def shift_unitary(spec, n=1):
    """The implementing unitary u^n."""
    return cp_element(spec, {n: [(1, whole_space(spec))]})


def _check(a, b):
    if a.spec != b.spec:
        raise MixedSystems("elements over different system specs")


def add(a, b):
    _check(a, b)
    terms = {}
    for n, sf in list(a.terms) + list(b.terms):
        terms.setdefault(n, []).extend(sf)
    return cp_element(a.spec, terms)


def scale(a, c):
    return cp_element(
        a.spec, {n: [(c * d, E) for d, E in sf] for n, sf in a.terms}
    )


def multiply(a, b):
    _check(a, b)
    terms = {}
    for n, sf_a in a.terms:
        for m, sf_b in b.terms:
            # (f u^n)(g u^m) = f * (g composed with h^{-n}) u^{n+m}
            for c, E in sf_a:
                for d, F in sf_b:
                    I = intersect(E, apply_h(F, n))
                    if not is_empty(I):
                        terms.setdefault(n + m, []).append((c * d, I))
    return cp_element(a.spec, terms)


def adjoint(a):
    terms = {}
    for n, sf in a.terms:
        # (f u^n)* = u^{-n} conj(f) = (conj(f) composed with h^n) u^{-n}
        terms[-n] = [(complex(c).conjugate(), apply_h(E, -n)) for c, E in sf]
    return cp_element(a.spec, terms)


def equals(a, b):
    _check(a, b)
    return a.terms == b.terms


def max_coefficient(a):
    return max((abs(c) for _, sf in a.terms for c, _ in sf), default=0.0)


def equals_approx(a, b, tol=1e-12):
    return max_coefficient(a - b) <= tol


def has_exact_scalars(a):
    return all(c in EXACT_SCALARS for _, sf in a.terms for c, _ in sf)


def is_unitary(a, tol=1e-12):
    p = multiply(a, adjoint(a))
    q = multiply(adjoint(a), a)
    e = one(a.spec)
    if has_exact_scalars(a):
        return equals(p, e) and equals(q, e)
    return equals_approx(p, e, tol) and equals_approx(q, e, tol)


def to_dict(a):
    return {
        "terms": [
            {
                "n": n,
                "coeff": [
                    {
                        "re": complex(c).real,
                        "im": complex(c).imag,
                        "set": space.to_dict(E),
                    }
                    for c, E in sf
                ],
            }
            for n, sf in a.terms
        ]
    }


def from_dict(spec, d):
    terms = {}
    for t in d["terms"]:
        terms[int(t["n"])] = [
            (
                complex(item["re"], item.get("im", 0.0)),
                space.from_dict(spec, item["set"]),
            )
            for item in t["coeff"]
        ]
    return cp_element(spec, terms)


# ---------------------------------------------------------------------------
# matrix units and proof unitaries
# ---------------------------------------------------------------------------


def matrix_units(S):
    """The tower matrix units: e[(t, k, i, j)] = chi_{h^i(Y)} u^{i-j}
    restricted to land on chi_{h^j(Y)}, which collapses to chi_{h^i(Y)}
    times u^{i-j}."""
    units = {}
    for t, towers in enumerate(S.towers):
        for k, c in enumerate(towers):
            for i in range(c.J):
                Ei = apply_h(c.Y, i)
                for j in range(c.J):
                    units[(t, k, i, j)] = cp_element(
                        S.spec, {i - j: [(1, Ei)]}
                    )
    return units


def matrix_unit_relations(S):
    """True iff the tower units of S form a system of matrix units, that
    is, iff the tower levels are pairwise disjoint (see identity_suite)."""
    return disjoint_union(S.spec, tower_levels(S))[1] is None


def _v_element(S):
    """The cyclic-shift unitary of the tower levels: it moves level j of
    every tower to level j+1 and wraps the top back to the base."""
    terms = {}
    for towers in S.towers:
        for c in towers:
            terms.setdefault(1 - c.J, []).append((1, c.Y))
            for j in range(c.J - 1):
                terms.setdefault(1, []).append((1, apply_h(c.Y, j + 1)))
    return cp_element(S.spec, terms)


@dataclass(frozen=True)
class ProofElements:
    v1: CPElement
    u1: CPElement
    v2: CPElement
    u2: CPElement
    uhat: CPElement
    Y: space.ClopenSet
    Xhat: tuple


def check_pair(S, S2):
    """Require S2 to be based on the images of the leading slices of S."""
    if S.spec != S2.spec or S.T != S2.T:
        raise IncompatiblePair("systems do not match base for base")
    for t, towers in enumerate(S.towers):
        lead = towers[0]
        if S2.bases[t] != apply_h(lead.Y, lead.J):
            raise IncompatiblePair(
                "second system base is not the image of the leading slice"
            )


def proof_unitaries(S, S2):
    """The intertwining unitaries of an adapted pair and the correction
    unitary uhat that commutes with the leading tower units."""
    check_pair(S, S2)
    spec = S.spec
    u = shift_unitary(spec)
    v1 = _v_element(S)
    u1 = multiply(adjoint(v1), u)
    v2 = _v_element(S2)
    u2 = multiply(adjoint(v2), u)

    covered = empty_set(spec)
    uhat = zero(spec)
    for t, towers in enumerate(S.towers):
        lead = towers[0]
        top = apply_h(lead.Y, lead.J - 1)
        for j in range(lead.J):
            Ej = apply_h(lead.Y, j)
            covered = union(covered, Ej)
            # e_{j, J-1} u2 e_{J-1, j}
            left = cp_element(spec, {j - (lead.J - 1): [(1, Ej)]})
            right = cp_element(spec, {(lead.J - 1) - j: [(1, top)]})
            uhat = add(uhat, multiply(multiply(left, u2), right))
    uhat = add(uhat, char(complement(covered)))

    Y = empty_set(spec)
    hats = []
    for t in range(S.T):
        X = hat_base(S, t)
        hats.append(X)
        Y = union(Y, X)

    for name, el in (("v1", v1), ("u1", u1), ("v2", v2), ("u2", u2),
                     ("uhat", uhat)):
        if not is_unitary(el):
            raise InvalidSystem("element %s is not unitary" % name)
    return ProofElements(v1, u1, v2, u2, uhat, Y, tuple(hats))


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple  # of (name, passed, witness CPElement or None)

    @property
    def ok(self):
        return all(p for _, p, _ in self.entries)

    def to_dict(self):
        return {
            "entries": [
                {
                    "name": name,
                    "pass": passed,
                    "witness": None if w is None else to_dict(w),
                }
                for name, passed, w in self.entries
            ],
            "ok": self.ok,
        }


def _sum(spec, elements):
    out = zero(spec)
    for a in elements:
        out = add(out, a)
    return out


def _entry(name, pairs):
    """Suite entry over (lhs, rhs) pairs, all evaluated: it passes iff
    every pair is equal, with lhs - rhs of the last unequal pair as its
    witness."""
    wit = None
    for lhs, rhs in pairs:
        d = lhs - rhs
        if d.terms:
            wit = d
    return name, wit is None, wit


def identity_suite(S, S2):
    """Exact symbolic checks of the defining identities of the pair.

    matrix_unit_relations is read off the tower levels, not off products
    of units.  For units e_ij of a tower (Y, J) and f_kl of (Y', J'),
    e_ij f_kl = chi_{h^i Y cap h^(i-j+k) Y'} u^(i-j+k-l).  For the same
    tower and j = k this is e_il.  Otherwise it is zero iff
    h^j Y cap h^k Y' is empty, h being a bijection.  So the relations
    hold iff the levels h^j Y_{t,k}, 0 <= j < J, are pairwise disjoint
    (empty levels allowed): one running union over sum J levels instead
    of (sum J^2)^2 products."""
    spec = S.spec
    pe = proof_unitaries(S, S2)
    u = shift_unitary(spec)
    units = matrix_units(S)
    w = multiply(pe.v2, adjoint(pe.v1))
    slices = [c for towers in S.towers for c in towers]
    leads = [towers[0] for towers in S.towers]

    def conj(a, x):
        return multiply(multiply(a, x), adjoint(a))

    diag = _sum(spec, (e for (_, _, i, j), e in units.items() if i == j))
    cores = [char(intersect(c.Y, apply_h(c.Y, c.J))) for c in leads]
    tops = [(t, c.J - 1) for t, c in enumerate(leads)]
    left = _sum(spec, (units[(t, 0, top, 0)] for t, top in tops))
    right = _sum(spec, (units[(t, 0, 0, top)] for t, top in tops))
    top_levels = empty_set(spec)
    for c in leads:
        top_levels = union(top_levels, apply_h(c.Y, c.J - 1))
    recovered = add(
        multiply(multiply(left, pe.uhat), right),
        char(complement(top_levels)),
    )
    projections = [
        _sum(spec, (units[(t, 0, j, j)] for j in range(c.J)))
        for t, c in enumerate(leads)
    ]
    saturations = []
    for towers in S2.towers:
        sat = empty_set(spec)
        for c in towers:
            for j in range(c.J):
                sat = union(sat, apply_h(c.Y, j))
        saturations.append(char(sat))

    return SuiteReport((
        ("matrix_unit_relations", matrix_unit_relations(S), None),
        _entry("diagonal_units_sum_to_one", [(diag, one(spec))]),
        _entry("v1_moves", (
            (conj(pe.v1, char(apply_h(c.Y, j))), char(apply_h(c.Y, j + 1)))
            for c in slices
            for j in range(c.J - 1)
        )),
        _entry("v1_wrap", (
            (conj(pe.v1, char(apply_h(c.Y, c.J - 1))), char(c.Y))
            for c in slices
        )),
        _entry("v2v1_conjugates_base", (
            (conj(w, char(X)), char(X)) for X in S.bases
        )),
        _entry("v2v1_fixes_core", ((multiply(w, x), x) for x in cores)),
        # proof_unitaries has raised InvalidSystem unless uhat is unitary
        ("uhat_unitary", True, None),
        _entry("uhat_commutes_with_units", (
            (multiply(pe.uhat, e), multiply(e, pe.uhat))
            for (_, k, _, _), e in units.items()
            if k == 0
        )),
        _entry("u2_recovery", [(recovered, pe.u2)]),
        _entry("pt_commutes", (
            (multiply(p, x), multiply(x, p))
            for p in projections
            for x in (pe.u2, pe.uhat)
        )),
        _entry("rt_central", (
            (multiply(r, u), multiply(u, r)) for r in saturations
        )),
    ))


# ---------------------------------------------------------------------------
# approximant dimension data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ATDescriptor:
    blocks: tuple  # of (circle_dim, (matrix_dims, ...))

    def to_dict(self):
        return {
            "blocks": [
                {"circle": c, "matrices": list(ms)} for c, ms in self.blocks
            ]
        }


def approximant(S, S2):
    """Dimension data of the circle-algebra approximant: per base, a
    circle block of the leading return time and a matrix block per
    remaining tower."""
    check_pair(S, S2)
    blocks = []
    for towers in S.towers:
        blocks.append(
            (towers[0].J, tuple(c.J for c in towers[1:]))
        )
    return ATDescriptor(tuple(blocks))


# ---------------------------------------------------------------------------
# fiber restriction
# ---------------------------------------------------------------------------


def fiber_restrict(a, z):
    """Restrict an element of a quotient-product system to the fiber over
    z, an integer or inf; a system with a single fiber takes only z = 0."""
    fiber, restrict = a.spec.fiber_restriction(z)
    terms = {n: [(c, restrict(E)) for c, E in sf] for n, sf in a.terms}
    return cp_element(fiber, terms)
