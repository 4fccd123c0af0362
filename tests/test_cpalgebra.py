"""Crossed-product element arithmetic, matrix units, identity suite."""

import functools
import json
import os
import random

import pytest

import genutil
import oracles
from zdsys import cpalgebra as cp
from zdsys import space, towers
from zdsys.errors import (
    IncompatiblePair,
    InvalidSystem,
    MaxStepsExceeded,
    MixedSystems,
    SaturationFailure,
)

SHIFT = space.compactified_shift()
ODO = space.odometer(2)

FAILING_SUITES = os.path.join(os.path.dirname(__file__), "failing_suites.json")


def random_element(spec, rng, max_terms=3, max_shift=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(-max_shift, max_shift)
        c = complex(rng.randint(-2, 2), rng.randint(-2, 2))
        terms.setdefault(n, []).append((c, genutil.random_set(spec, rng)))
    return cp.cp_element(spec, terms)


def random_float_terms(spec, rng):
    """{n: pieces} with random complex scalars; in every term at least
    three pieces cover one nonempty set, so that sums of three or more
    floats meet on an atom, and now and then a piece cancels another."""
    core = space.empty_set(spec)
    while space.is_empty(core):
        core = genutil.random_set(spec, rng)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        pieces = []
        for i in range(rng.randint(3, 6)):
            E = genutil.random_set(spec, rng)
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            pieces.append((c, space.union(E, core) if i < 3 else E))
            if rng.random() < 0.2:
                pieces.append((-c, E))
        rng.shuffle(pieces)
        terms[rng.randint(-3, 3)] = pieces
    return terms


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_step_functions_match_accumulator_oracle(spec):
    """The atom maps give the terms of the all-pairs accumulator, floats
    equal with ==, since each atom sums its scalars in the same order."""
    rng = random.Random(67)
    for _ in range(12):
        ta, tb = random_float_terms(spec, rng), random_float_terms(spec, rng)
        a, b = cp.cp_element(spec, ta), cp.cp_element(spec, tb)
        assert a.terms == oracles.canonical_terms(ta, space)
        both = {}
        for n, sf in a.terms + b.terms:
            both.setdefault(n, []).extend(sf)
        assert cp.add(a, b).terms == oracles.canonical_terms(both, space)
        star = {
            -n: [(complex(c).conjugate(), space.apply_h(E, -n)) for c, E in sf]
            for n, sf in a.terms
        }
        assert cp.adjoint(a).terms == oracles.canonical_terms(star, space)
        for x, y in ((a, b), (b, a), (a, cp.adjoint(a))):
            product = oracles.all_pairs_product(x.terms, y.terms, space)
            assert cp.multiply(x, y).terms == oracles.canonical_terms(
                product, space
            )


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_sum_of_many_elements_is_the_fold_of_sums(spec):
    """add over many operands gives the fold of sums of two, compared
    with ==, so scalars that differ only in the sign of a zero part are
    equal (see the module docstring of cpalgebra); an element over
    another spec raises MixedSystems wherever it stands."""
    rng = random.Random(101)
    zero = oracles.zero(spec)
    other = cp.one(space.finite_cycle(5))
    for _ in range(20):
        els = [random_element(spec, rng) for _ in range(rng.randint(1, 4))]
        els.append(cp.cp_element(spec, random_float_terms(spec, rng)))
        els += rng.sample(els, rng.randint(0, 2))
        els += [cp.scale(els[0], -1), zero]
        rng.shuffle(els)
        fold = els[0]
        for e in els[1:]:
            fold = cp.add(fold, e)
        assert cp.add(*els) == fold
        assert cp.add(zero, *els) == fold
        mixed = list(els)
        mixed.insert(rng.randint(0, len(els)), other)
        with pytest.raises(MixedSystems):
            cp.add(*mixed)


def _multiply_branches(x, y):
    """The branches multiply(x, y) takes, re-derived from the atom masks:
    "atom" for a piece of y that meets fewer atoms of its term of x than
    that term has cells, "cell" for any other piece that meets it."""
    spec = x.spec
    shifted = [
        (n, [space.apply_h(F, n) for _, sf in y.terms for _, F in sf])
        for n, _ in x.terms
    ]
    s = spec.atom_scale(
        [E.data for _, sf in x.terms for _, E in sf]
        + [F.data for _, Fs in shifted for F in Fs]
    )
    out = set()
    for (_, sf_a), (_, Fs) in zip(x.terms, shifted):
        support = 0
        for _, E in sf_a:
            support |= spec.atoms(E.data, s)
        for F in Fs:
            hit = support & spec.atoms(F.data, s)
            if hit:
                out.add("atom" if hit.bit_count() < len(sf_a) else "cell")
    return out


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_products_on_cells_match_accumulator_oracle(spec):
    """Both branches of multiply agree with the all-pairs accumulator,
    floats equal with ==: small cells times a wide set and times small
    sets, one cell times many, and the 1-0j scalars of adjoint."""
    rng = random.Random(79)
    cells = space.generating_partition(spec, 3)

    def scalar():
        return rng.choice(
            [1, -1, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        )

    taken = set()
    for _ in range(6):
        # two terms of small cells, so that their products meet on atoms
        many = cp.cp_element(
            spec, {n: [(scalar(), E) for E in cells] for n in (0, 1)}
        )
        small = genutil.random_set(spec, rng)
        wide = space.complement(small)
        few = cp.cp_element(spec, {
            0: [(scalar(), wide)],
            -1: [(scalar(), E) for E in rng.sample(cells, 3)],
        })
        one = cp.cp_element(spec, {rng.randint(-1, 1): [(1, wide)]})
        for x, y in (
            (many, few),
            (few, many),
            (one, many),
            (many, one),
            (cp.adjoint(many), few),
            (cp.adjoint(one), cp.adjoint(many)),
            (many, cp.adjoint(many)),
        ):
            taken |= _multiply_branches(x, y)
            product = oracles.all_pairs_product(x.terms, y.terms, space)
            assert cp.multiply(x, y).terms == oracles.canonical_terms(
                product, space
            )
    assert taken == {"atom", "cell"}


def test_covariance_relation():
    u = cp.shift_unitary(SHIFT)
    chi0 = cp.char(space.shift_set(SHIFT, [0]))
    chi1 = cp.char(space.shift_set(SHIFT, [1]))
    assert cp.multiply(u, chi0) == cp.multiply(chi1, u)


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_covariance_randomized(spec):
    rng = random.Random(31)
    for _ in range(60):
        E = genutil.random_set(spec, rng)
        n = rng.randint(-4, 4)
        un = cp.shift_unitary(spec, n)
        lhs = cp.multiply(un, cp.char(E))
        rhs = cp.multiply(cp.char(space.apply_h(E, n)), un)
        assert lhs == rhs


def test_adjoint_of_char_times_u():
    E = space.shift_set(SHIFT, [0, 3])
    a = cp.multiply(cp.char(E), cp.shift_unitary(SHIFT, 2))
    expected = cp.multiply(
        cp.char(space.apply_h(E, -2)), cp.shift_unitary(SHIFT, -2)
    )
    assert cp.adjoint(a) == expected


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_star_algebra_axioms(spec):
    rng = random.Random(47)
    for _ in range(40):
        a = random_element(spec, rng)
        b = random_element(spec, rng)
        c = random_element(spec, rng)
        assert (cp.multiply(cp.multiply(a, b), c)
                == cp.multiply(a, cp.multiply(b, c)))
        assert (cp.multiply(a, cp.add(b, c))
                == cp.add(cp.multiply(a, b), cp.multiply(a, c)))
        assert (cp.adjoint(cp.multiply(a, b))
                == cp.multiply(cp.adjoint(b), cp.adjoint(a)))
        assert cp.adjoint(cp.adjoint(a)) == a
        assert cp.add(a, b) == cp.add(b, a)


def test_diagonal_subalgebra_commutes():
    rng = random.Random(53)
    for spec in genutil.all_specs():
        for _ in range(20):
            a = cp.char(genutil.random_set(spec, rng))
            b = cp.char(genutil.random_set(spec, rng))
            assert cp.multiply(a, b) == cp.multiply(b, a)


def test_mixed_specs_rejected():
    a = cp.one(space.finite_cycle(3))
    b = cp.one(space.finite_cycle(4))
    with pytest.raises(MixedSystems):
        cp.add(a, b)


def test_unitaries():
    assert oracles.is_unitary(cp.shift_unitary(SHIFT))
    assert oracles.is_unitary(cp.one(ODO))
    assert not oracles.is_unitary(cp.char(space.shift_set(SHIFT, [0])))


def test_matrix_units_cycle_relation():
    spec = space.finite_cycle(2)
    S = towers.build_from_bases(
        [space.finite_cycle_set(spec, [0])], [space.whole_space(spec)]
    )
    e = oracles.matrix_units(S)
    prod = cp.multiply(e[(0, 0, 0, 1)], e[(0, 0, 1, 0)])
    assert prod == e[(0, 0, 0, 0)]
    assert e[(0, 0, 0, 0)] == cp.char(space.finite_cycle_set(spec, [0]))
    # adjoint swaps the indices
    assert cp.adjoint(e[(0, 0, 0, 1)]) == e[(0, 0, 1, 0)]


def test_matrix_units_diagonal_sums_to_one():
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        e = oracles.matrix_units(S)
        diag = oracles.zero(spec)
        for (t, k, i, j), el in e.items():
            if i == j:
                diag = cp.add(diag, el)
        assert diag == cp.one(spec)


def _unit_relations_hold(units):
    """All-pairs oracle: e_ij f_kl is e_il for the same tower and j = k,
    and zero otherwise."""
    for (t, k, i, j), e in units.items():
        for (t2, k2, i2, j2), f in units.items():
            prod = cp.multiply(e, f)
            if (t, k) == (t2, k2) and j == i2:
                if prod != units[(t, k, i, j2)]:
                    return False
            elif prod.terms:
                return False
    return True


def test_suite_entry_keeps_last_witness():
    spec = space.finite_cycle(3)
    a, b, c = (cp.char(space.finite_cycle_set(spec, [i])) for i in range(3))
    pairs = iter([(a, b), (a, a), (c, b), (b, b)])
    name, passed, wit = cp._entry("x", pairs)
    assert (name, passed) == ("x", False) and wit == c - b
    assert next(pairs, None) is None
    assert cp._entry("y", [(a, a), (b, b)]) == ("y", True, None)


def _cycle_subset(rng, spec):
    """A random nonempty subset of a finite cycle."""
    p = spec.period
    pts = [i for i in range(p) if rng.random() < 0.5]
    return space.finite_cycle_set(spec, pts or [rng.randrange(p)])


def _random_cycle_system(rng, spec, bases):
    """A return system over the given bases of a finite cycle with one to
    three random towers per base, each with a nonempty slice and a return
    time of at most the period, as system_from_dict reads it back (it
    sorts the towers)."""
    d = {
        "bases": [space.to_dict(b) for b in bases],
        "towers": [
            [
                {
                    "Y": space.to_dict(_cycle_subset(rng, spec)),
                    "J": rng.randint(1, spec.period),
                }
                for _ in range(rng.randint(1, 3))
            ]
            for _ in bases
        ],
    }
    return oracles.system_from_dict(spec, d)


def random_cycle_pair(rng):
    """A hand-built pair (S, S2) on finite_cycle(2..7) with random towers;
    S2 is based on the images h^J(Y) of the leading slices of S, so the
    pair passes check_pair."""
    spec = space.finite_cycle(rng.randint(2, 7))
    bases = [_cycle_subset(rng, spec) for _ in range(rng.randint(1, 2))]
    S = _random_cycle_system(rng, spec, bases)
    bases2 = [space.apply_h(ts[0].Y, ts[0].J) for ts in S.towers]
    return S, _random_cycle_system(rng, spec, bases2)


def search_failing_suites(seed=5, trials=20000, keep=10, per_kind=3):
    """Random cycle pairs whose identity suite completes with failures,
    at most per_kind of each set of failing entries; the data of
    failing_suites.json."""
    rng = random.Random(seed)
    kinds = {}
    out = []
    for _ in range(trials):
        S, S2 = random_cycle_pair(rng)
        try:
            rep = cp.identity_suite(S, S2)
        except InvalidSystem:
            continue
        kind = tuple(n for n, p, _ in rep.entries if not p)
        if not kind or kinds.get(kind, 0) >= per_kind:
            continue
        kinds[kind] = kinds.get(kind, 0) + 1
        out.append({
            "period": S.spec.period,
            "S": towers.system_to_dict(S),
            "S2": towers.system_to_dict(S2),
            "report": rep.to_dict(),
        })
        if len(out) == keep:
            break
    return out


def test_failing_suite_reports():
    # whole reports, witnesses included, of suites that complete with
    # failures; every golden identities report passes
    with open(FAILING_SUITES) as f:
        cases = json.load(f)
    assert len(cases) >= 10
    for case in cases:
        spec = space.finite_cycle(case["period"])
        S = oracles.system_from_dict(spec, case["S"])
        S2 = oracles.system_from_dict(spec, case["S2"])
        rep = cp.identity_suite(S, S2)
        assert not rep.ok
        assert rep.to_dict() == case["report"]


def _uhat_entry_over_all_units(S, uhat):
    """The uhat_commutes_with_units entry over every unit of every
    leading tower: the form that identity_suite's lemma stands in for."""
    return cp._entry("uhat_commutes_with_units", (
        (cp.multiply(uhat, e), cp.multiply(e, uhat))
        for (_, k, _, _), e in oracles.matrix_units(S).items()
        if k == 0
    ))


def _random_pairs(rng):
    """Adapted pairs of every family with a valid construction, from
    random partitions and lengths, and hand-built cycle pairs."""
    pairs = []
    for spec in genutil.system_specs():
        for _ in range(3):
            P = genutil.random_partition(spec, rng)
            try:
                pair = towers.adapted_system_pair(spec, P, rng.randint(1, 3))
            except InvalidSystem:
                continue
            pairs.append(pair)
    pairs += [random_cycle_pair(rng) for _ in range(20)]
    return pairs


def uhat_only_pair():
    """A pair on finite_cycle(5) that passes check_pair, whose levels
    tile X in both systems, and on which uhat alone is not unitary: the
    first tower of S2 sends its top image {4} into the other base, so u2
    moves the leading top {4} of S to {3}."""
    spec = space.finite_cycle(5)
    a, b = (space.finite_cycle_set(spec, [p]) for p in (4, 0))
    S = towers.ReturnSystem(
        spec, (a, b), ((towers.Tower(a, 1),), (towers.Tower(b, 4),))
    )
    S2 = towers.ReturnSystem(
        spec, (b, a), ((towers.Tower(b, 4),), (towers.Tower(a, 1),))
    )
    return S, S2


def crossed_pair():
    """A pair on finite_cycle(4) on which proof_unitaries returns and the
    suite fails pt_commutes and rt_central: S has the towers ({0}, 2)
    and ({2}, 2), and S2, based on their top images {2} and {0}, the
    towers ({1}, 2) and ({3}, 2), so u2 = v2* u swaps the leading towers
    of S."""
    spec = space.finite_cycle(4)
    p = [space.finite_cycle_set(spec, [i]) for i in range(4)]
    S = towers.ReturnSystem(spec, (p[0], p[2]), (
        (towers.Tower(p[0], 2),), (towers.Tower(p[2], 2),)
    ))
    S2 = towers.ReturnSystem(spec, (p[2], p[0]), (
        (towers.Tower(p[1], 2),), (towers.Tower(p[3], 2),)
    ))
    return S, S2


# the report of crossed_pair, as json.dumps(..., sort_keys=True) writes it
CROSSED_REPORT = (
    '{"entries": [{"name": "matrix_unit_relations", "pass": true, '
    '"witness": null}, {"name": "diagonal_units_sum_to_one", "pass": true, '
    '"witness": null}, {"name": "v1_moves", "pass": true, "witness": null}, '
    '{"name": "v1_wrap", "pass": true, "witness": null}, '
    '{"name": "v2v1_conjugates_base", "pass": false, "witness": {"terms": '
    '[{"coeff": [{"im": 0.0, "re": 1.0, "set": {"points": [0]}}, '
    '{"im": 0.0, "re": -1.0, "set": {"points": [2]}}], "n": 0}]}}, '
    '{"name": "v2v1_fixes_core", "pass": true, "witness": null}, '
    '{"name": "uhat_unitary", "pass": true, "witness": null}, '
    '{"name": "uhat_commutes_with_units", "pass": true, "witness": null}, '
    '{"name": "u2_recovery", "pass": false, "witness": {"terms": '
    '[{"coeff": [{"im": 0.0, "re": 1.0, "set": {"points": [0, 2]}}], '
    '"n": 0}, {"coeff": [{"im": 0.0, "re": -1.0, "set": {"points": '
    '[0, 2]}}], "n": 2}]}}, {"name": "pt_commutes", "pass": false, '
    '"witness": {"terms": [{"coeff": [{"im": 0.0, "re": -1.0, "set": '
    '{"points": [0]}}, {"im": 0.0, "re": 1.0, "set": {"points": [2]}}], '
    '"n": 2}]}}, {"name": "rt_central", "pass": false, "witness": '
    '{"terms": [{"coeff": [{"im": 0.0, "re": -1.0, "set": {"points": '
    '[1]}}, {"im": 0.0, "re": 1.0, "set": {"points": [3]}}], "n": 1}]}}], '
    '"ok": false}'
)


def test_crossed_pair_report():
    S, S2 = crossed_pair()
    rep = cp.identity_suite(S, S2)
    assert [n for n, p, _ in rep.entries if not p] == [
        "v2v1_conjugates_base", "u2_recovery", "pt_commutes", "rt_central"
    ]
    assert json.dumps(rep.to_dict(), sort_keys=True) == CROSSED_REPORT


def _second_system(S):
    """A system that passes check_pair with S: the first-return towers
    over the images h^J(Y) of the leading slices of S, or, where those
    do not form a system, one tower of height 1 over each image.  A base
    of S with no towers stands in for its image."""
    images = [
        space.apply_h(ts[0].Y, ts[0].J) if ts else X
        for X, ts in zip(S.bases, S.towers)
    ]
    try:
        return towers.build_from_bases(images, [space.whole_space(S.spec)])
    except (ValueError, MaxStepsExceeded, SaturationFailure):
        return towers.ReturnSystem(
            S.spec, tuple(images), tuple((towers.Tower(B, 1),) for B in images)
        )


@functools.lru_cache(maxsize=None)
def _lemma_cases():
    """The pairs on which identity_suite's lemma is checked against the
    all-products forms of the entries it reads off v1, each as
    (S, S2, units, related, pe): the matrix units of S, whether they
    satisfy the all-pairs relations (None where that oracle is not run)
    and the proof_unitaries of the pair (None where it raises
    InvalidSystem).  The pairs: valid systems and their single-field
    mutants, each with _second_system, adapted pairs from random
    partitions, random cycle pairs, the pairs of failing_suites.json,
    uhat_only_pair and crossed_pair.  The all-pairs oracle is
    quadratic in the units, so past the valid systems it runs on those
    of at most 50 units."""
    rng = random.Random(83)
    valid = [genutil.valid_system(spec) for spec in genutil.system_specs()]
    pairs = [
        (M, _second_system(M))
        for S in valid
        for M in [S] + [M for _, M in genutil.mutants(S)]
    ]
    pairs += _random_pairs(rng)
    pairs += [random_cycle_pair(rng) for _ in range(40)]
    with open(FAILING_SUITES) as f:
        for case in json.load(f):
            spec = space.finite_cycle(case["period"])
            pairs.append(tuple(
                oracles.system_from_dict(spec, case[k]) for k in ("S", "S2")
            ))
    pairs += [uhat_only_pair(), crossed_pair()]
    cases = []
    for S, S2 in pairs:
        units = oracles.matrix_units(S)
        related = None
        if S in valid or len(units) <= 50:
            related = _unit_relations_hold(units)
        try:
            pe = cp.proof_unitaries(S, S2)
        except InvalidSystem:
            pe = None
        cases.append((S, S2, units, related, pe))
    return tuple(cases)


def test_unit_relations_match_all_pairs_oracle():
    """The lemma of identity_suite against the all-products forms of the
    entries about S alone: the all-pairs unit relations, the sum of the
    diagonal units and v1 conjugating every level.  Whenever
    proof_unitaries returns, all of them pass; whenever the relations
    fail, v1 is not unitary and proof_unitaries raises InvalidSystem."""
    returned = failed = 0
    for S, _, units, related, pe in _lemma_cases():
        spec = S.spec
        if related is False:
            failed += 1
            assert pe is None and not oracles.is_unitary(cp._v_element(S))
        if pe is None:
            continue
        returned += 1
        diag = cp.add(oracles.zero(spec), *(
            e for (_, _, i, j), e in units.items() if i == j
        ))
        assert diag == cp.one(spec)
        v1_star = cp.adjoint(pe.v1)
        for c in (c for ts in S.towers for c in ts):
            for j in range(c.J):
                chi = cp.char(space.apply_h(c.Y, j))
                moved = cp.char(space.apply_h(c.Y, (j + 1) % c.J))
                assert cp.multiply(cp.multiply(pe.v1, chi), v1_star) == moved
    assert returned >= 10 and failed >= 10


def test_uhat_generators_match_all_units():
    """The lemma of identity_suite against the all-units form of the
    uhat_commutes_with_units entry: whenever proof_unitaries returns,
    uhat commutes with every unit of the leading towers of S, whatever
    u2 is.  Every family of genutil.system_specs() has a pair where
    proof_unitaries returns."""
    returned = 0
    families = set()
    for S, _, _, _, pe in _lemma_cases():
        if pe is None:
            continue
        returned += 1
        families.add(S.spec)
        assert _uhat_entry_over_all_units(S, oracles.uhat(S, pe.u2))[1]
    assert families >= set(genutil.system_specs())
    assert returned >= 10


def _uhat_entries(S, u2):
    """u2_recovery and pt_commutes formed through oracles.uhat: the
    recovered element is left uhat right plus chi of X minus the
    leading tops, with left and right the sums of the e_(J-1,0) and of
    the e_(0,J-1) of the leading towers, and pt_commutes runs over both
    u2 and uhat.  identity_suite's lemma reads both off u2 alone."""
    spec = S.spec
    leads = [ts[0] for ts in S.towers]
    uhat = oracles.uhat(S, u2)
    left = cp.add(oracles.zero(spec), *(
        oracles.unit(spec, c, c.J - 1, 0) for c in leads
    ))
    right = cp.add(oracles.zero(spec), *(
        oracles.unit(spec, c, 0, c.J - 1) for c in leads
    ))
    tops = space.union(space.empty_set(spec), *(
        space.apply_h(c.Y, c.J - 1) for c in leads
    ))
    recovered = cp.add(cp.multiply(cp.multiply(left, uhat), right),
                       cp.char(space.complement(tops)))
    projections = [
        cp.char(space.union(space.empty_set(spec), *(
            space.apply_h(c.Y, j) for j in range(c.J)
        )))
        for c in leads
    ]
    return [
        cp._entry("u2_recovery", [(recovered, u2)]),
        cp._entry("pt_commutes", (
            (cp.multiply(p, x), cp.multiply(x, p))
            for p in projections
            for x in (u2, uhat)
        )),
    ]


def test_uhat_entries_match_oracle():
    """On every pair of _lemma_cases where proof_unitaries returns, the
    suite's u2_recovery and pt_commutes, read off u2, have the JSON text
    of the entries formed through uhat (JSON, unlike ==, tells 1-0j from
    1+0j in a witness).  Both entries fail on some pair."""
    failed = set()
    returned = 0
    for S, S2, _, _, pe in _lemma_cases():
        if pe is None:
            continue
        returned += 1
        entries = {e[0]: e for e in cp.identity_suite(S, S2).entries}
        for want in _uhat_entries(S, pe.u2):
            got = entries[want[0]]
            assert json.dumps(cp.SuiteReport((got,)).to_dict()) == json.dumps(
                cp.SuiteReport((want,)).to_dict()
            )
            if not got[1]:
                failed.add(got[0])
    assert failed == {"u2_recovery", "pt_commutes"}
    assert returned >= 10


def test_identity_suite_products_do_not_grow_with_height(monkeypatch):
    """identity_suite forms as many products on the base-2 odometer's
    adapted pair at depth 9, N 3, as at depth 6: one base whose leading
    tower has height 512 and 64.  The 10 are u2 in proof_unitaries,
    w = v2 v1*, two for the base, one for the core, one for the
    recovery, two for p_t and two for r_t."""
    pairs = [
        towers.adapted_system_pair(
            ODO, list(space.generating_partition(ODO, depth)), 3
        )
        for depth in (6, 9)
    ]
    assert [[c.J for c in S.towers[0]] for S, _ in pairs] == [[64], [512]]
    calls = []

    def counted(*args, f=cp.multiply):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(cp, "multiply", counted)
    counts = []
    for S, S2 in pairs:
        calls.clear()
        assert cp.identity_suite(S, S2).ok
        counts.append(len(calls))
    assert counts == [10, 10]


def _first_not_unitary(S, S2):
    """The first of v1, v2 and uhat that is_unitary rejects, or None."""
    v2 = cp._v_element(S2)
    if not oracles.is_unitary(cp._v_element(S)):
        return "v1"
    if not oracles.is_unitary(v2):
        return "v2"
    u2 = cp.multiply(cp.adjoint(v2), cp.shift_unitary(S.spec))
    if not oracles.is_unitary(oracles.uhat(S, u2)):
        return "uhat"
    return None


def test_proof_unitaries_lemmas_match_oracle():
    """Lemmas 1 and 2 of proof_unitaries against is_unitary, on both
    systems of every pair of _lemma_cases, which holds the valid systems
    of genutil.system_specs() and their mutants, and of each valid
    system with every mutant of its _second_system: _v_element is
    unitary iff the levels tile X, and on a pair that passes check_pair
    proof_unitaries returns iff v1, v2 and uhat are unitary, else names
    the first that is not.  Every outcome occurs."""
    valid = [genutil.valid_system(spec) for spec in genutil.system_specs()]
    pairs = [(S, S2) for S, S2, *_ in _lemma_cases()]
    pairs += [
        (S, M) for S in valid for _, M in genutil.mutants(_second_system(S))
    ]
    tiles = set()
    outcomes = set()
    for S, S2 in pairs:
        for R in (S, S2):
            levels = [
                L for L in towers.tower_levels(R) if not space.is_empty(L)
            ]
            tiled = space.is_partition(levels)
            assert oracles.is_unitary(cp._v_element(R)) == tiled
            tiles.add(tiled)
        try:
            cp.check_pair(S, S2)
        except (InvalidSystem, IncompatiblePair):
            continue
        first = _first_not_unitary(S, S2)
        outcomes.add(first)
        if first is None:
            cp.proof_unitaries(S, S2)
        else:
            with pytest.raises(InvalidSystem) as e:
                cp.proof_unitaries(S, S2)
            assert str(e.value) == "element %s is not unitary" % first
    assert tiles == {True, False}
    assert outcomes == {None, "v1", "v2", "uhat"}


def test_proof_unitaries_forms_one_product_and_one_adjoint(monkeypatch):
    """On every pair of _lemma_cases where it returns, proof_unitaries
    forms u2 = v2* u and no other product or adjoint."""
    cases = [(S, S2) for S, S2, _, _, pe in _lemma_cases() if pe is not None]
    calls = []
    for name in ("multiply", "adjoint"):
        def counted(*args, name=name, f=getattr(cp, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(cp, name, counted)
    for S, S2 in cases:
        calls.clear()
        cp.proof_unitaries(S, S2)
        assert sorted(calls) == ["adjoint", "multiply"]
    assert len(cases) >= 10


@pytest.mark.parametrize(
    "name", ["identity_suite", "proof_unitaries", "approximant"]
)
def test_base_without_towers_is_invalid(name):
    S, S2 = odo_pair()
    M = dict(genutil.mutants(S))["drop tower (0,0)"]
    with pytest.raises(InvalidSystem, match="base 0 carries no towers"):
        getattr(cp, name)(M, S2)


def test_matrix_units_products_closed():
    S = genutil.valid_system(SHIFT)
    e = oracles.matrix_units(S)
    vals = list(e.values())
    for a in vals:
        for b in vals:
            prod = cp.multiply(a, b)
            assert prod.terms == () or any(
                prod == c for c in vals
            )


def shift_pair(N=3):
    U = space.shift_set(SHIFT, range(1, 8), cofinite=True)
    P = [U] + [space.shift_set(SHIFT, [i]) for i in range(1, 8)]
    return towers.adapted_system_pair(SHIFT, P, N)


def odo_pair(N=3):
    P = list(space.generating_partition(ODO, 2))
    return towers.adapted_system_pair(ODO, P, N)


def test_proof_unitaries_shift():
    S, S2 = shift_pair()
    pe = cp.proof_unitaries(S, S2)
    u1 = cp.multiply(cp.adjoint(pe.v1), cp.shift_unitary(SHIFT))
    for el in (pe.v1, u1, pe.v2, pe.u2, oracles.uhat(S, pe.u2)):
        assert oracles.is_unitary(el)
    # Y is the union of the two endpoints of the window
    assert S.T == 1
    assert not space.to_dict(pe.Y)["cofinite"]
    assert len(space.enumerate_points(pe.Y)) == 2


def test_u1_and_u2_are_unitary_when_v1_and_v2_are():
    """proof_unitaries checks v1, v2 and uhat (see its docstring).
    is_unitary on u1, u2 and uhat stays on as the oracle: on the adapted
    pair of every family with one, on random pairs and on
    uhat_only_pair, it passes, or the first of v1, u1, v2, u2 and uhat
    that it fails is the element that proof_unitaries names."""
    pairs = [
        towers.adapted_system_pair(spec, space.generating_partition(spec, 2), 2)
        for spec in genutil.system_specs()
    ]
    adapted = len(pairs)
    pairs += _random_pairs(random.Random(103))
    pairs.append(uhat_only_pair())
    raised = 0
    names = set()
    for i, (S, S2) in enumerate(pairs):
        u = cp.shift_unitary(S.spec)
        v1, v2 = cp._v_element(S), cp._v_element(S2)
        u2 = cp.multiply(cp.adjoint(v2), u)
        elements = {
            "v1": v1,
            "u1": cp.multiply(cp.adjoint(v1), u),
            "v2": v2,
            "u2": u2,
            "uhat": oracles.uhat(S, u2),
        }
        try:
            pe = cp.proof_unitaries(S, S2)
        except InvalidSystem as e:
            assert i >= adapted
            raised += 1
            first = next(
                k for k, el in elements.items() if not oracles.is_unitary(el)
            )
            assert str(e) == "element %s is not unitary" % first
            names.add(first)
        else:
            u1 = cp.multiply(cp.adjoint(pe.v1), u)
            assert (u1, pe.u2) == (elements["u1"], elements["u2"])
            assert all(map(oracles.is_unitary, (u1, pe.u2, elements["uhat"])))
    assert 0 < raised < len(pairs) - adapted
    assert "uhat" in names


def test_proof_unitaries_odometer_trivial():
    S, S2 = odo_pair()
    pe = cp.proof_unitaries(S, S2)
    assert pe.v1 == pe.v2
    assert cp.multiply(pe.v2, cp.adjoint(pe.v1)) == cp.one(ODO)
    assert space.is_empty(pe.Y)


def test_u1_fixes_lower_levels():
    spec = space.finite_cycle(3)
    S = towers.build_from_bases(
        [space.finite_cycle_set(spec, [0])], [space.whole_space(spec)]
    )
    pe = cp.proof_unitaries(S, S)
    u1 = cp.multiply(cp.adjoint(pe.v1), cp.shift_unitary(spec))
    lead = S.towers[0][0]
    for j in range(lead.J - 1):
        chi = cp.char(space.apply_h(lead.Y, j))
        assert cp.multiply(cp.multiply(u1, chi), cp.adjoint(u1)) == chi


def test_incompatible_pair_rejected():
    S, S2 = shift_pair()
    So, So2 = odo_pair()
    with pytest.raises(IncompatiblePair):
        cp.proof_unitaries(S, S)


def test_identity_suite_passes():
    for S, S2 in (shift_pair(), odo_pair()):
        rep = cp.identity_suite(S, S2)
        assert len(rep.entries) == 11
        assert rep.ok, [n for n, p, _ in rep.entries if not p]


def test_identity_suite_names():
    S, S2 = odo_pair()
    rep = cp.identity_suite(S, S2)
    assert [n for n, _, _ in rep.entries] == [
        "matrix_unit_relations",
        "diagonal_units_sum_to_one",
        "v1_moves",
        "v1_wrap",
        "v2v1_conjugates_base",
        "v2v1_fixes_core",
        "uhat_unitary",
        "uhat_commutes_with_units",
        "u2_recovery",
        "pt_commutes",
        "rt_central",
    ]


def test_corrupted_v1_fails_unitarity():
    S, S2 = shift_pair()
    pe = cp.proof_unitaries(S, S2)
    # drop one term of v1
    n0, sf0 = pe.v1.terms[0]
    c0, E0 = sf0[0]
    corrupted = pe.v1 - cp.cp_element(SHIFT, {n0: [(c0, E0)]})
    assert not oracles.is_unitary(corrupted)
    d = cp.multiply(corrupted, cp.adjoint(corrupted)) - cp.one(SHIFT)
    assert d.terms


def test_diagonal_span_contains_partition_algebra():
    # every P-constant step function is a sum of diagonal matrix units
    S, S2 = shift_pair()
    P1, _ = genutil.level_partitions(S)
    e = oracles.matrix_units(S)
    diag_sets = {el.terms[0][1][0][1] for (t, k, i, j), el in e.items()
                 if i == j}
    U = space.shift_set(SHIFT, range(1, 8), cofinite=True)
    for cell in [U] + [space.shift_set(SHIFT, [i]) for i in range(1, 8)]:
        covered = [d for d in diag_sets if space.is_subset(d, cell)]
        un = space.empty_set(SHIFT)
        for d in covered:
            un = space.union(un, d)
        assert un == cell


def test_approximant_descriptors():
    S, S2 = shift_pair()
    desc = cp.approximant(S, S2)
    assert desc.to_dict() == {
        "blocks": [{"circle": 1, "matrices": [S.towers[0][1].J]}]
    }
    So, So2 = odo_pair()
    assert cp.approximant(So, So2).to_dict() == {
        "blocks": [{"circle": 4, "matrices": []}]
    }


def test_fiber_restrict():
    fiber = space.compactified_shift()
    spec = space.quotient_product(fiber)
    one = cp.one(spec)
    assert oracles.fiber_restrict(one, 5) == cp.one(fiber)
    blk = cp.char(
        space.quotient_set(spec, {2: space.whole_space(fiber)})
    )
    assert oracles.fiber_restrict(blk, 2) == cp.one(fiber)
    assert oracles.fiber_restrict(blk, 3).terms == ()
    # restriction at the collapsed point
    at_inf = oracles.fiber_restrict(one, space.INF)
    assert at_inf == cp.one(space.finite_cycle(1))
    with pytest.raises(oracles.InvalidFiberPoint):
        oracles.fiber_restrict(cp.one(ODO), 1)


def test_fiber_restrict_is_homomorphism():
    fiber = space.compactified_shift()
    spec = space.quotient_product(fiber)
    rng = random.Random(61)
    for _ in range(30):
        a = random_element(spec, rng, max_terms=2, max_shift=2)
        b = random_element(spec, rng, max_terms=2, max_shift=2)
        for z in (-1, 0, 2):
            fa, fb = oracles.fiber_restrict(a, z), oracles.fiber_restrict(b, z)
            assert oracles.fiber_restrict(cp.multiply(a, b), z) == cp.multiply(
                fa, fb
            )
            assert oracles.fiber_restrict(cp.add(a, b), z) == cp.add(fa, fb)


def test_element_serialization_round_trip():
    rng = random.Random(71)
    for spec in genutil.all_specs():
        for _ in range(20):
            a = random_element(spec, rng)
            assert oracles.from_dict(spec, cp.to_dict(a)) == a
