"""Exact symbolic arithmetic for finitely supported crossed-product
elements sum_n f_n u^n, where each f_n is a step function over clopen
sets and u implements the dynamics: u^n chi_E = chi_{h^n(E)} u^n.

A step function is stored as ((scalar, set), ...) with disjoint sets,
one per scalar, ordered by sort_key.  It is computed on cells as masks:
at a common scale every set involved is an int bitmask over the
family's finite atoms (SystemSpec.atoms), so a piece becomes a
(scalar, mask) item, and sums and products are big-int &, | and ~ on
whole masks instead of splitting every piece against every other.  An
atom under one item takes that item's scalar, so all such atoms of an
item are handled as one mask.  Only an atom under several items is
visited alone; it adds their scalars in item order, v_k = v_(k-1) + c_k.
A disjoint-piece accumulator, which splits each new piece against every
earlier one, forms c_k + v_(k-1) instead; IEEE addition is commutative,
so the scalars agree bit for bit, and canonical sets are unique, so the
sets agree too (tests/oracles.py keeps that accumulator as the oracle).
One exception: cells whose scalars compare equal but differ in the sign
of a zero part, such as 1+0j and the 1-0j that adjoint makes from 1,
merge into one cell as in the accumulator.  That cell keeps the scalar
of the first item with atoms alone under it that carry the value, or,
when there is none, the sum at the first atom visited alone that does;
the accumulator may keep the other scalar.

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
    empty_set,
    intersect,
    is_empty,
    is_subset,
    partition_witness,
    sort_key,
    union,
    whole_space,
)
from .towers import hat_base, tower_levels


def _sf_masks(spec, s, items, known):
    """Canonical step function at scale s of a list of (scalar, mask)
    items: an atom under one item takes its scalar, and an atom under
    several sums their scalars in item order.  Atoms are grouped by
    complex(scalar), zeros dropped, one set per scalar, cells ordered by
    sort_key.  `known` maps the masks of sets at hand to the sets; a
    cell equal to one of them is that set, since canonical forms are
    unique, so it is shared instead of built again."""
    covered = shared = 0
    for _, mask in items:
        shared |= mask & covered
        covered |= mask
    groups = {}
    values = {}
    for c, mask in items:
        alone = mask & ~shared
        if alone and c != 0:
            groups[complex(c)] = groups.get(complex(c), 0) | alone
        if mask & shared:
            for x in atom_indices(mask & shared):
                values[x] = values[x] + c if x in values else c
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
    if len(out) > 1:
        out.sort(key=lambda ce: sort_key(ce[1]))
    return tuple(out)


def _sf_canon(spec, pieces):
    """Canonical step function of a list of (scalar, set) pieces: an
    atom under one piece takes its scalar, and an atom under several
    sums their scalars in piece order."""
    if len(pieces) == 1:
        c, E = pieces[0]
        return () if c == 0 or spec.is_empty(E.data) else ((complex(c), E),)
    s = spec.atom_scale([E.data for _, E in pieces])
    items = []
    known = {}
    for c, E in pieces:
        mask = spec.atoms(E.data, s)
        known.setdefault(mask, E)
        items.append((c, mask))
    return _sf_masks(spec, s, items, known)


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


def char(E):
    """The characteristic function chi_E as an element."""
    return cp_element(E.spec, {0: [(1, E)]})


def shift_unitary(spec, n=1):
    """The implementing unitary u^n."""
    return cp_element(spec, {n: [(1, whole_space(spec))]})


def _check(a, b):
    if a.spec != b.spec:
        raise MixedSystems("elements over different system specs")


def add(a, *more):
    """The sum of a and the elements in more, in one cp_element call.
    Each atom of a canonical element lies under one cell, so a fold of
    sums of two gives each atom the same scalars in the same order,
    ((c1 + c2) + c3), up to the zero-sign rule of the module docstring."""
    terms = {}
    for b in (a, *more):
        _check(a, b)
        for n, sf in b.terms:
            terms.setdefault(n, []).extend(sf)
    return cp_element(a.spec, terms)


def scale(a, c):
    return cp_element(
        a.spec, {n: [(c * d, E) for d, E in sf] for n, sf in a.terms}
    )


def multiply(a, b):
    """The product, by (f u^n)(g u^m) = f (g composed with h^-n) u^(n+m).

    All sets of a and the images h^n(F) of the sets of b are unions of
    atoms at one common scale.  Each term f u^n of a is kept as its
    (c, mask) cells and their union, the support.  Each piece d chi_F of
    each term of b meets the support in hit = support & mask(h^n F), and
    adds items to term n+m:
    - if hit has fewer atoms than f has cells, one (c d, atom) item per
      atom of hit, c read off an atom -> scalar map of f that is built
      on first use;
    - otherwise one (c d, mE & hit) item per cell (c, mE) that meets hit.
    So a piece costs at most about min(|hit|, cells) steps: many small
    cells against a small piece go atom by atom, and a few wide cells,
    such as cofinite sets, go as whole masks.  The rule reads only the
    input.  The items of each term then go through _sf_masks.

    Either branch gives each atom of hit the same product c d, with c
    the scalar of the atom's cell.  The cells of f and of g are
    disjoint, so within one (n, m) pair at most one item reaches an
    atom, and since term n+m fixes m by n, the items of an atom arrive
    in increasing n, the order in which the all-pairs loop over n, m,
    the cells of f and the cells of g listed them: each atom sums the
    same floats in the same order."""
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
    items = {}
    known = {}
    for n, sf_a in a.terms:
        cells = []
        support = 0
        for c, E in sf_a:
            mask = spec.atoms(E.data, s)
            known.setdefault(mask, E)
            support |= mask
            cells.append((c, mask))
        f = None
        for m, sf_b in shifted.pop(n):
            out = items.setdefault(n + m, [])
            for d, F in sf_b:
                mask = spec.atoms(F.data, s)
                known.setdefault(mask, F)
                hit = support & mask
                if not hit:
                    continue
                if hit.bit_count() < len(cells):
                    if f is None:
                        f = {}
                        for c, mE in cells:
                            f.update(dict.fromkeys(atom_indices(mE), c))
                    for x in atom_indices(hit):
                        out.append((f[x] * d, 1 << x))
                else:
                    for c, mE in cells:
                        if mE & hit:
                            out.append((c * d, mE & hit))
    terms = []
    for k in sorted(items):
        sf = _sf_masks(spec, s, items.pop(k), known)
        if sf:
            terms.append((k, sf))
    return CPElement(spec, tuple(terms))


def adjoint(a):
    terms = {}
    for n, sf in a.terms:
        # (f u^n)* = u^{-n} conj(f) = (conj(f) composed with h^n) u^{-n}
        terms[-n] = [(complex(c).conjugate(), apply_h(E, -n)) for c, E in sf]
    return cp_element(a.spec, terms)


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


# ---------------------------------------------------------------------------
# proof unitaries
# ---------------------------------------------------------------------------


def _v_element(S):
    """The cyclic-shift unitary of the tower levels: it moves level j of
    every tower to level j+1 and wraps the top back to the base.

    Lemma B.  If the levels of S tile X, as proof_unitaries checks
    before it calls this, the raised levels h^j(Y), j >= 1, are X minus
    the slices.  So the per-level pieces, chi_(h^(j+1) Y) u for j < J-1
    and chi_Y u^(1-J) per slice (Y, J) (tests/oracles.py keeps them as
    v_element_by_levels), make term 1 the chi of X minus the slices and
    term 1-J, J >= 1, the chi of the slices with return time J.  Both
    forms put each atom under one piece with coefficient 1, and
    canonical forms are unique, so they give the same element."""
    slices = [c for towers in S.towers for c in towers]
    rest = complement(union(empty_set(S.spec), *(c.Y for c in slices)))
    terms = {1: [(1, rest)]}
    for c in slices:
        terms.setdefault(1 - c.J, []).append((1, c.Y))
    return cp_element(S.spec, terms)


class ProofElements(space.Record):
    v1: CPElement
    v2: CPElement
    u2: CPElement
    Y: space.ClopenSet


def check_pair(S, S2):
    """Require S2 to be based on the images of the leading slices of S,
    so every base of S must carry a tower."""
    if S.spec != S2.spec or S.T != S2.T:
        raise IncompatiblePair("systems do not match base for base")
    for t, towers in enumerate(S.towers):
        if not towers:
            raise InvalidSystem("base %d carries no towers" % t)
        lead = towers[0]
        if S2.bases[t] != apply_h(lead.Y, lead.J):
            raise IncompatiblePair(
                "second system base is not the image of the leading slice"
            )


def proof_unitaries(S, S2):
    """The intertwining unitaries v1 and v2 of an adapted pair, u2 = v2* u
    and the union Y of the hat bases.

    Raises InvalidSystem unless the towers of S2 sit over its bases, in
    O(towers) set operations: each base is the union of its slices and
    holds the top image h^J(Y) of each tower (Y, J) over it, as in
    build_from_bases (conditions d and e of its lemma).  Then raises
    InvalidSystem at the first of v1 and v2 that is not unitary.  uhat
    is the sum of e_(j,J-1) u2 e_(J-1,j) over the levels j of the
    leading tower (Y, J) over each base of S, and 1 off those levels,
    where e_ij = chi_(h^i Y) u^(i-j) is a matrix unit of the tower; it
    is unitary by Lemmas 2 and 3 and is not built.  Two set checks
    stand in for forming v v* and v* v (tests/oracles.py keeps
    is_unitary and uhat as the oracles).  Return times are at least 1,
    as Tower requires.

    Lemma 1.  The per-level sum v of the pieces chi_(h^(j+1) Y) u,
    j < J-1, and chi_Y u^(1-J) over the slices (Y, J) of R is unitary
    iff the levels of R tile X; then it is _v_element(R) (Lemma B
    there).  Its pieces have coefficient 1.  The first is the partial
    isometry of h from h^j(Y) onto h^(j+1)(Y), the second that of
    h^(1-J) from the top h^(J-1)(Y) onto Y, so the ranges are the levels
    and so are the sources, each level once.  If the levels tile X,
    then p q* = 0 and p* q = 0 for distinct pieces p, q, as their
    sources and their ranges are disjoint, and v v* and v* v are the
    sums of the p p* and the p* p, the chi of the ranges and of the
    sources, 1.  Conversely, with v = sum_n f_n u^n, f_n counts the
    levels of term n over each point, and the degree-0 part of v v* is
    sum_n f_n^2, a sum of non-negative terms at least sum_n f_n, the
    number of levels over the point, with equality iff each f_n is 0 or
    1: it is 1 at a point iff exactly one level holds it.

    Lemma 2.  Let v1 and v2 be unitary.  Then uhat is unitary iff
    g(T) = T for the top T = h^(J-1)(Y) of the leading tower over every
    base of S, where g(T) is the union of h^n(T) & E_n over the terms
    chi_(E_n) u^n of u2.  By Lemma 1, v2 permutes the levels of S2, so
    u2 = v2* u is the unitary of a bijection g of X, which sends x in
    h^-n(E_n) to h^n(x), with coefficient 1; the image of T is as
    above.  By Lemma 1 for v1, the leading levels of S are disjoint, so
    uhat is 1 off them and, on each, the block
    e_(j,J-1) (chi_T u2 chi_T) e_(J-1,j): chi_T u2 chi_T carried from T
    to the level.  So uhat is unitary iff every chi_T u2 chi_T is
    unitary in the corner of chi_T.  It is the partial isometry of g
    from T & g^-1(T) onto T & g(T), so that holds iff both are T, that
    is iff g(T) = T.

    Lemma 3.  Let v1 and v2 be unitary and the towers of S2 sit over its
    bases, and let Tops be the union of the tops T_t of the leading
    towers of S.  By check_pair, the base of S2 over t is h(T_t), the
    union of the slices over t.  So h(x) is on a raised level of S2 iff
    x is off Tops, and there v2* moves it back down: g(x) = x.  For x in
    T_t, h(x) lies in a slice Y2 over t, of return time J2, which v2*
    sends to its top: g(x) = h^(J2)(x), in T_t, as h^(J2)(h x) lies in
    the base h(T_t).  g is a bijection that fixes X - Tops, so it maps
    Tops onto Tops, and the T_t are disjoint by Lemma 1 for v1, so
    g(T_t) = T_t, and uhat is unitary by Lemma 2."""
    check_pair(S, S2)
    spec = S.spec
    for B, towers in zip(S2.bases, S2.towers):
        if union(empty_set(spec), *(c.Y for c in towers)) != B or not all(
            is_subset(apply_h(c.Y, c.J), B) for c in towers
        ):
            raise InvalidSystem(
                "second system's towers do not sit over its bases"
            )
    for name, R in (("v1", S), ("v2", S2)):
        if not is_empty(partition_witness(spec, tower_levels(R))):
            raise InvalidSystem("element %s is not unitary" % name)
    v2 = _v_element(S2)
    u2 = multiply(adjoint(v2), shift_unitary(spec))
    Y = union(empty_set(spec), *(hat_base(S, t) for t in range(S.T)))
    return ProofElements(_v_element(S), v2, u2, Y)


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

    Only v2v1_conjugates_base and v2v1_fixes_core are computed, five
    products on a pair with one base.  The other nine are facts that
    proof_unitaries has established, by the two lemmas below: they pass
    with no witness and form no product.

    Lemma.  proof_unitaries returns only when v1 and uhat are unitary
    (its Lemmas 1 to 3).  v1 has a piece chi_E u^n per level E = h^j(Y)
    of each slice (Y, J) of S, n = 1 for j >= 1 and n = 1-J for j = 0,
    so f_n(x), with v1 = sum_n f_n u^n, counts the levels of term n that
    hold x.
    (i) The levels of S tile X, as proof_unitaries checks.
    (ii) No top image h^J(Y) meets a raised level h^j(Y'), j >= 1: h^-1
    would carry the meet into the levels h^(J-1)(Y) and h^(j-1)(Y'),
    distinct as the second is not a top, against (i).
    So, by (i), e_ij f_kl = chi_{h^i Y cap h^(i-j+k) Y'} u^(i-j+k-l) is
    e_il for the same tower and j = k and 0 otherwise, and the
    e_jj = chi_{h^j Y} sum to 1.  In v1 chi_{h^j Y} =
    sum_n f_n chi_{h^(n+j) Y} u^n, term 1 for j < J-1 is
    chi_{h^(j+1) Y} u and term 1-J for j = J-1 is chi_Y u^(1-J), by (i).
    Every other term is 0: term 1-J' is carried by slices Y' with
    h^J' Y' cap h^(j+1) Y empty, by (ii) for j < J-1 and by (i) for
    j = J-1, J' != J, and term 1 for j = J-1 is f_1 on h^J Y, 0 by (ii).
    As chi_E is a projection, v1 chi_E v1* = (v1 chi_E)(v1 chi_E)*, so
    v1 moves each level up and wraps each top to its slice.  By (i), for
    a unit e_ik of a leading tower, e_ik uhat keeps only the summand
    e_(k,J-1) u2 e_(J-1,k) of uhat and uhat e_ik only
    e_(i,J-1) u2 e_(J-1,i), so both are e_(i,J-1) u2 e_(J-1,k), whatever
    u2 is.  By (i) too, p_t, the sum of the diagonal units of the
    leading tower over base t, is chi of L_t, the union of its levels.

    Lemma (S2).  Let Tops be the union of the tops T_t of the leading
    towers of S.  By Lemma 3 of proof_unitaries, u2 chi_E u2* =
    chi_(g(E)) for a bijection g that fixes X - Tops pointwise and maps
    each T_t onto itself.
    - u2_recovery.  The recovered element is left uhat right + chi of
      X - Tops, with left and right the sums of the e_(J-1,0) and of the
      e_(0,J-1) of the leading towers.  By (i), left uhat right is the
      sum of the chi_(T_t) u2 chi_(T_t), that is chi_Tops u2, and
      chi(X - Tops) u2 = chi(X - Tops), so the sum is u2.
    - pt_commutes.  p_t commutes with uhat: p_t e_(j,J-1) = e_(j,J-1)
      and e_(J-1,j) p_t = e_(J-1,j) for the units of the leading tower
      over t, and both are 0 for the other leading towers and for
      chi(X - leading levels).  L_t meets Tops in T_t alone, by (i), so
      g(L_t) = L_t, and p_t commutes with u2.
    - rt_central.  Let r_t be the union of the levels of S2 over base t.
      h moves each level up one and each top into the base, the union of
      the slices, so h(r_t) lies in r_t.  The r_t tile X and h is a
      bijection, so h(r_t) = r_t and chi(r_t) commutes with u.
    tests/test_cpalgebra.py keeps the product forms as oracles."""
    pe = proof_unitaries(S, S2)
    w = multiply(pe.v2, adjoint(pe.v1))
    w_star = adjoint(w)
    leads = [towers[0] for towers in S.towers]
    cores = [char(intersect(c.Y, apply_h(c.Y, c.J))) for c in leads]

    # proof_unitaries has raised InvalidSystem unless v1 and uhat are
    # unitary and the towers of S2 sit over its bases
    return SuiteReport((
        ("matrix_unit_relations", True, None),
        ("diagonal_units_sum_to_one", True, None),
        ("v1_moves", True, None),
        ("v1_wrap", True, None),
        _entry("v2v1_conjugates_base", (
            (multiply(multiply(w, char(X)), w_star), char(X))
            for X in S.bases
        )),
        _entry("v2v1_fixes_core", ((multiply(w, x), x) for x in cores)),
        ("uhat_unitary", True, None),
        ("uhat_commutes_with_units", True, None),
        ("u2_recovery", True, None),
        ("pt_commutes", True, None),
        ("rt_central", True, None),
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
