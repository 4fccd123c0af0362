"""Exact symbolic arithmetic for finitely supported crossed-product
elements sum_n f_n u^n, where each f_n is a step function over clopen
sets and u implements the dynamics: u^n chi_E = chi_{h^n(E)} u^n.

Also builds the tower matrix units, the intertwining unitaries of a
return-system pair, the identity suite they satisfy, and the dimension
data of the resulting circle-algebra approximant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import space
from .errors import IncompatiblePair, InvalidSystem, MixedSystems
from .space import (
    apply_h,
    complement,
    difference,
    empty_set,
    intersect,
    is_empty,
    sort_key,
    union,
    whole_space,
)
from .towers import hat_base, tower_partitions, validate_system

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


def matrix_units(S, verify=True):
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
    if verify:
        diag = zero(S.spec)
        for (t, k, i, j), e in units.items():
            if i == j:
                diag = add(diag, e)
        if not equals(diag, one(S.spec)):
            raise InvalidSystem("diagonal units do not sum to one")
        if not _unit_relations_hold(units):
            raise InvalidSystem("matrix unit relations fail")
    return units


def _unit_relations_hold(units):
    for (t, k, i, j), e in units.items():
        for (t2, k2, i2, j2), f in units.items():
            prod = multiply(e, f)
            if (t, k) == (t2, k2) and j == i2:
                if not equals(prod, units[(t, k, i, j2)]):
                    return False
            elif prod.terms:
                return False
    return True


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


def _ident(lhs, rhs):
    d = lhs - rhs
    if d.terms:
        return False, d
    return True, None


def identity_suite(S, S2):
    """Exact symbolic checks of the defining identities of the pair."""
    check_pair(S, S2)
    spec = S.spec
    u = shift_unitary(spec)
    pe = proof_unitaries(S, S2)
    units = matrix_units(S, verify=False)
    entries = []

    entries.append(("matrix_unit_relations", _unit_relations_hold(units), None))

    diag = zero(spec)
    for (t, k, i, j), e in units.items():
        if i == j:
            diag = add(diag, e)
    entries.append(("diagonal_units_sum_to_one",) + _ident(diag, one(spec)))

    ok, wit = True, None
    for towers in S.towers:
        for c in towers:
            for j in range(c.J - 1):
                lhs = multiply(
                    multiply(pe.v1, char(apply_h(c.Y, j))), adjoint(pe.v1)
                )
                good, d = _ident(lhs, char(apply_h(c.Y, j + 1)))
                if not good:
                    ok, wit = False, d
    entries.append(("v1_moves", ok, wit))

    ok, wit = True, None
    for towers in S.towers:
        for c in towers:
            lhs = multiply(
                multiply(pe.v1, char(apply_h(c.Y, c.J - 1))), adjoint(pe.v1)
            )
            good, d = _ident(lhs, char(c.Y))
            if not good:
                ok, wit = False, d
    entries.append(("v1_wrap", ok, wit))

    w = multiply(pe.v2, adjoint(pe.v1))
    ok, wit = True, None
    for X_t in S.bases:
        lhs = multiply(multiply(w, char(X_t)), adjoint(w))
        good, d = _ident(lhs, char(X_t))
        if not good:
            ok, wit = False, d
    entries.append(("v2v1_conjugates_base", ok, wit))

    ok, wit = True, None
    for t, towers in enumerate(S.towers):
        lead = towers[0]
        core = intersect(lead.Y, apply_h(lead.Y, lead.J))
        lhs = multiply(w, char(core))
        good, d = _ident(lhs, char(core))
        if not good:
            ok, wit = False, d
    entries.append(("v2v1_fixes_core", ok, wit))

    # proof_unitaries has raised InvalidSystem unless uhat is unitary
    entries.append(("uhat_unitary", True, None))

    ok, wit = True, None
    for (t, k, i, j), e in units.items():
        if k != 0:
            continue
        good, d = _ident(multiply(pe.uhat, e), multiply(e, pe.uhat))
        if not good:
            ok, wit = False, d
    entries.append(("uhat_commutes_with_units", ok, wit))

    left = zero(spec)
    right = zero(spec)
    tops = empty_set(spec)
    for t, towers in enumerate(S.towers):
        lead = towers[0]
        left = add(left, units[(t, 0, lead.J - 1, 0)])
        right = add(right, units[(t, 0, 0, lead.J - 1)])
        tops = union(tops, apply_h(lead.Y, lead.J - 1))
    lhs = add(
        multiply(multiply(left, pe.uhat), right), char(complement(tops))
    )
    entries.append(("u2_recovery",) + _ident(lhs, pe.u2))

    ok, wit = True, None
    for t, towers in enumerate(S.towers):
        lead = towers[0]
        p_t = zero(spec)
        for j in range(lead.J):
            p_t = add(p_t, units[(t, 0, j, j)])
        for other in (pe.u2, pe.uhat):
            good, d = _ident(multiply(p_t, other), multiply(other, p_t))
            if not good:
                ok, wit = False, d
    entries.append(("pt_commutes", ok, wit))

    ok, wit = True, None
    for t, towers in enumerate(S2.towers):
        sat = empty_set(spec)
        for c in towers:
            for j in range(c.J):
                sat = union(sat, apply_h(c.Y, j))
        r_t = char(sat)
        good, d = _ident(multiply(r_t, u), multiply(u, r_t))
        if not good:
            ok, wit = False, d
    entries.append(("rt_central", ok, wit))

    return SuiteReport(tuple(entries))


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
