"""Exact symbolic arithmetic for finitely supported crossed-product
elements sum_n f_n u^n, where each f_n is a step function over clopen
sets and u implements the dynamics: u^n chi_E = chi_{h^n(E)} u^n.

A step function is stored as ((scalar, set), ...) with disjoint sets,
one per scalar, ordered by sort_key.  It is computed as an atom ->
scalar map: at a common scale every set involved is a bitmask over the
family's finite atoms (SystemSpec.atoms), so sums and products take one
pass over atoms instead of splitting every piece against every other.
Each atom adds its scalars in piece order, v_k = v_(k-1) + c_k.  A
disjoint-piece accumulator, which splits each new piece against every
earlier one, forms c_k + v_(k-1) instead; IEEE addition is commutative,
so the scalars agree bit for bit, and canonical sets are unique, so the
sets agree too (tests/oracles.py keeps that accumulator as the oracle).
One exception: cells whose scalars compare equal but differ in the sign
of a zero part, such as 1+0j and the 1-0j that adjoint makes from 1,
merge into one cell as in the accumulator, but which of the two scalars
that cell keeps may differ from the accumulator's choice.

Also builds the tower matrix units, the intertwining unitaries of a
return-system pair, the identity suite they satisfy, and the dimension
data of the resulting circle-algebra approximant.
"""

from __future__ import annotations

from . import space
from .errors import IncompatiblePair, InvalidSystem, MixedSystems
from .space import (
    ClopenSet,
    apply_h,
    atom_indices,
    atom_mask,
    complement,
    disjoint_union,
    empty_set,
    intersect,
    sort_key,
    union,
    whole_space,
)
from .towers import hat_base, tower_levels

EXACT_SCALARS = (0, 1, -1, 1j, -1j)


def _sf_from_atoms(spec, s, groups, values, known):
    """Canonical step function at scale s of the atoms of a scalar ->
    mask map `groups` and of an atom -> scalar map `values`: atoms
    grouped by complex(scalar), zeros dropped, one set per scalar, cells
    ordered by sort_key.  `known` maps the masks of sets at hand to the
    sets; a cell equal to one of them is that set, since canonical forms
    are unique, so it is shared instead of built again."""
    cells = {}
    for x, c in values.items():
        if c != 0:
            cells.setdefault(complex(c), []).append(x)
    for key, xs in cells.items():
        groups[key] = groups.get(key, 0) | atom_mask(xs)
    out = []
    for c, mask in groups.items():
        E = known.get(mask)
        if E is None:
            E = ClopenSet(spec, spec.from_atoms(mask, s))
        out.append((c, E))
    out.sort(key=lambda ce: sort_key(ce[1]))
    return tuple(out)


def _sf_canon(spec, pieces):
    """Canonical step function of a list of (scalar, set) pieces: an
    atom under one piece takes its scalar, and an atom under several
    sums their scalars in piece order."""
    s = spec.atom_scale([E.data for _, E in pieces])
    masks = []
    known = {}
    covered = shared = 0
    for c, E in pieces:
        mask = spec.atoms(E.data, s)
        known.setdefault(mask, E)
        shared |= mask & covered
        covered |= mask
        masks.append((c, mask))
    groups = {}
    values = {}
    for c, mask in masks:
        alone = mask & ~shared
        if alone and c != 0:
            groups[complex(c)] = groups.get(complex(c), 0) | alone
        for x in atom_indices(mask & shared):
            values[x] = values[x] + c if x in values else c
    return _sf_from_atoms(spec, s, groups, values, known)


class CPElement(space.Record):
    spec: space.SystemSpec
    terms: tuple  # of (n, ((scalar, ClopenSet), ...)), sorted by n

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1))

    def __mul__(self, other):
        return multiply(self, other)


def cp_element(spec, terms):
    """Build a canonical element from {n: [(scalar, set), ...]}: per
    term, each atom at the common scale of the term's sets sums the
    scalars of the pieces over it, in piece order."""
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
    """The product, by (f u^n)(g u^m) = f (g composed with h^-n) u^(n+m).

    All sets of a and the images h^n(F) of the sets of b are unions of
    atoms at one common scale.  For each term f u^n of a, f becomes an
    atom -> scalar map; each piece d chi_F of each term of b then walks
    the atoms of h^n(F) inside the support of f and adds c d into the
    map of term n+m.  The cells of f and of g are disjoint, so within one
    (n, m) pair at most one product reaches an atom, and the products of
    an atom arrive in increasing n, the order in which the all-pairs
    loop over n, m, the cells of f and the cells of g listed them."""
    _check(a, b)
    spec = a.spec
    shifted = {
        n: [(m, [(d, apply_h(F, n)) for d, F in sf_b]) for m, sf_b in b.terms]
        for n, _ in a.terms
    }
    s = spec.atom_scale(
        [E.data for _, sf in a.terms for _, E in sf]
        + [F.data for ts in shifted.values() for _, sf in ts for _, F in sf]
    )
    values = {}
    known = {}
    for n, sf_a in a.terms:
        f = {}
        support = 0
        for c, E in sf_a:
            mask = spec.atoms(E.data, s)
            known.setdefault(mask, E)
            support |= mask
            f.update(dict.fromkeys(atom_indices(mask), c))
        for m, sf_b in shifted.pop(n):
            out = values.setdefault(n + m, {})
            for d, F in sf_b:
                mask = spec.atoms(F.data, s)
                known.setdefault(mask, F)
                for x in atom_indices(support & mask):
                    p = f[x] * d
                    out[x] = out[x] + p if x in out else p
    terms = []
    for k in sorted(values):
        sf = _sf_from_atoms(spec, s, {}, values.pop(k), known)
        if sf:
            terms.append((k, sf))
    return CPElement(spec, tuple(terms))


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


class ProofElements(space.Record):
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


class SuiteReport(space.Record):
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


class ATDescriptor(space.Record):
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
