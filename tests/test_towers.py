"""Return systems: decompositions, validation, refinement, adapted pairs."""

import random

import pytest

import genutil
import oracles
from zdsys import space, towers
from zdsys.errors import (
    MaxStepsExceeded,
    NotSubordinate,
    SaturationFailure,
)

SHIFT = space.compactified_shift()
ODO = space.odometer(2)


def shift_window_system(a=0, b=7):
    """Base {inf} u (-inf, a] u [b, inf) with the matching two-block
    partition."""
    base = space.shift_set(SHIFT, range(a + 1, b), cofinite=True)
    P = [base, space.complement(base)]
    return towers.build_from_bases([base], P), base, P


def test_shift_decomposition_example():
    S, base, P = shift_window_system(0, 7)
    assert S.T == 1
    assert [c.J for c in S.towers[0]] == [1, 7]
    assert S.towers[0][1].Y == space.shift_set(SHIFT, [0])
    assert S.towers[0][0].Y == space.shift_set(SHIFT, range(0, 7),
                                               cofinite=True)


def test_odometer_decomposition_single_class():
    for L in (1, 2, 3):
        U = genutil.cylinder(ODO, (0,) * L)
        dec = towers.first_return_decomposition(U)
        assert len(dec.classes) == 1
        assert dec.classes[0].J == 2**L
        assert dec.classes[0].Y == U


def test_cycle_decomposition():
    spec = space.finite_cycle(5)
    dec = towers.first_return_decomposition(
        space.finite_cycle_set(spec, [0])
    )
    assert [(c.J,) for c in dec.classes] == [(5,)]


def test_decomposition_classes_partition_base():
    rng = random.Random(3)
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        for t, tws in enumerate(S.towers):
            union = space.empty_set(spec)
            for c in tws:
                assert space.is_empty(space.intersect(union, c.Y))
                union = space.union(union, c.Y)
            assert union == S.bases[t]


def test_return_time_matches_orbit_simulation():
    """Re-derive the return time pointwise on sampled points."""
    checked = 0
    systems = [genutil.valid_system(spec) for spec in genutil.system_specs()]
    systems.append(shift_window_system(-3, 4)[0])
    systems.append(
        towers.build_from_bases(
            [genutil.cylinder(ODO, (0, 0, 0))], [space.whole_space(ODO)]
        )
    )
    cyc12 = space.finite_cycle(12)
    systems.append(
        towers.build_from_bases(
            [space.finite_cycle_set(cyc12, [0, 1, 5])],
            [space.whole_space(cyc12)],
        )
    )
    for S in systems:
        spec = S.spec
        for t, tws in enumerate(S.towers):
            base = S.bases[t]
            for c in tws:
                for p in genutil.sample_points(c.Y, 12):
                    n = oracles.first_return_time(
                        lambda q: space.point_apply_h(spec, q, 1),
                        lambda q: space.contains_point(base, q),
                        p,
                        c.J + 5,
                    )
                    assert n == c.J
                    checked += 1
    assert checked >= 100


def test_two_point_base_never_returns():
    spec = space.two_point_shift()
    base = space.two_point_set(spec, [0], tail_minus=True)
    with pytest.raises(MaxStepsExceeded) as e:
        towers.build_from_bases(
            [base], [space.whole_space(spec)], max_steps=60
        )
    assert e.value.remainder is not None
    assert not space.is_empty(e.value.remainder)


def test_build_rejects_straddling_base():
    base = space.shift_set(SHIFT, range(1, 7), cofinite=True)
    P = space.generating_partition(SHIFT, 2)
    with pytest.raises(NotSubordinate):
        towers.build_from_bases([base], list(P))


def test_build_rejects_straddling_base_beside_empty_base():
    # NotSubordinate wins over the empty base's ValueError, in any order
    base = space.shift_set(SHIFT, range(1, 7), cofinite=True)
    empty = space.empty_set(SHIFT)
    P = list(space.generating_partition(SHIFT, 2))
    for bases in ([empty, base], [base, empty]):
        with pytest.raises(NotSubordinate):
            towers.build_from_bases(bases, P)
    with pytest.raises(ValueError, match="base must be nonempty"):
        towers.build_from_bases([empty], P)


def test_build_rejects_overlapping_bases():
    spec = space.finite_cycle(6)
    a = space.finite_cycle_set(spec, [0, 1])
    b = space.finite_cycle_set(spec, [1, 3])
    with pytest.raises(ValueError, match="pairwise disjoint"):
        towers.build_from_bases([a, b], [space.whole_space(spec)])


def test_build_detects_saturation_failure():
    # two bases in the same orbit of a finite cycle overlap in levels
    spec = space.finite_cycle(4)
    with pytest.raises(SaturationFailure):
        towers.build_from_bases(
            [
                space.finite_cycle_set(spec, [0]),
                space.finite_cycle_set(spec, [2]),
            ],
            [space.whole_space(spec)],
        )


def test_validate_passes_on_examples():
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        P = genutil.subordinating_partition(S)
        rep = oracles.validate_system(S, P)
        assert rep.ok, (spec.family, rep.entries)


def _random_disjoint_bases(spec, rng):
    """One to three random sets, each minus those before it, so that
    some come out empty."""
    out = []
    for _ in range(rng.randint(1, 3)):
        a = genutil.random_set(spec, rng)
        out.append(space.difference(a, space.union(*out)) if out else a)
    return out


@pytest.mark.parametrize(
    "spec", list(dict.fromkeys(genutil.all_specs() + genutil.system_specs()))
)
def test_built_systems_pass_validation(spec):
    # the lemma of build_from_bases, with validate_system as its oracle:
    # every system it returns meets conditions a-f, over the partition
    # that the tower command builds from the bases
    rng = random.Random(22)
    draws = [spec.canonical_bases(n) for n in (1, 2, 3)]
    draws += [_random_disjoint_bases(spec, rng) for _ in range(150)]
    built = 0
    for bases in draws:
        rest = space.complement(space.union(*bases))
        P = bases + ([rest] if not space.is_empty(rest) else [])
        try:
            S = towers.build_from_bases(bases, P, max_steps=400)
        except (ValueError, NotSubordinate, MaxStepsExceeded,
                SaturationFailure):
            continue
        rep = oracles.validate_system(S, P)
        assert rep.ok, (spec.family, rep.entries)
        built += 1
    assert built >= 5


def test_validate_flags_wrong_return_time():
    S, base, P = shift_window_system(0, 7)
    bad = towers.ReturnSystem(
        SHIFT,
        S.bases,
        ((S.towers[0][0], towers.Tower(S.towers[0][1].Y, 6)),),
    )
    rep = oracles.validate_system(bad, P)
    entries = dict((c, (p, w)) for c, p, w in rep.entries)
    assert not entries["e"][0]
    assert entries["e"][1] is not None


def test_tower_partitions_example():
    S, base, P = shift_window_system(0, 7)
    P1, P2 = genutil.level_partitions(S)
    assert len(P1) == 8 and len(P2) == 8
    assert space.is_partition(list(P1))
    assert space.is_partition(list(P2))
    assert P2 == tuple(
        space.apply_h(c.Y, j)
        for tws in S.towers
        for c in tws
        for j in range(1, c.J + 1)
    )
    singles = [space.shift_set(SHIFT, [i]) for i in range(7)]
    for s in singles:
        assert s in P1


def test_refine_system_example():
    S, base, P = shift_window_system(0, 7)
    target = [
        space.shift_set(SHIFT, [7]),
        space.complement(space.shift_set(SHIFT, [7])),
    ]
    S2 = oracles.refine_system(S, target)
    assert S2.bases == S.bases
    assert sorted(c.J for c in S2.towers[0]) == [1, 1, 7]
    slices = [c.Y for c in S2.towers[0] if c.J == 1]
    assert space.shift_set(SHIFT, [7]) in slices
    P1, P2 = genutil.level_partitions(S2)
    assert oracles.is_finer(P1, target, space)
    assert oracles.is_finer(P2, target, space)


def test_refine_no_op_when_already_finer():
    U = genutil.cylinder(ODO, (0, 0))
    S = towers.build_from_bases([U], [space.whole_space(ODO)])
    P1, _ = genutil.level_partitions(S)
    S2 = oracles.refine_system(S, P1)
    assert S2 == S


def test_refine_odometer_cylinder_split():
    U = genutil.cylinder(ODO, (0, 0))
    S = towers.build_from_bases([U], [space.whole_space(ODO)])
    target = space.generating_partition(ODO, 3)
    S2 = oracles.refine_system(S, list(target))
    assert [c.J for c in S2.towers[0]] == [4, 4]
    assert {c.Y for c in S2.towers[0]} == {
        genutil.cylinder(ODO, (0, 0, 0)),
        genutil.cylinder(ODO, (0, 0, 1)),
    }


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_refinement_postconditions_randomized(spec):
    S = genutil.valid_system(spec)
    P = genutil.subordinating_partition(S)
    P1, P2 = genutil.level_partitions(S)
    rng = random.Random(17)
    for _ in range(50):
        target = genutil.random_partition(spec, rng)
        S2 = oracles.refine_system(S, target)
        # same bases, valid, slices refine the original slices
        assert S2.bases == S.bases
        assert oracles.validate_system(S2, P).ok
        assert oracles.finer_system_criterion(S, S2)
        Q1, Q2 = genutil.level_partitions(S2)
        assert oracles.is_finer(Q1, target, space)
        assert oracles.is_finer(Q2, target, space)
        # level refinement holds on both sides at once
        assert oracles.is_finer(Q1, P1, space)
        assert oracles.is_finer(Q2, P2, space)


def refine_by_oracle(S, target, top=0):
    """The towers of refining S by target over the levels 0..J+top of
    each tower, with every slice split along each h^-j(U) in turn by the
    all-pairs oracle.  top 0 gives refine_system; top -1 constrains
    the levels 0..J-1 only."""
    out = []
    for tws in S.towers:
        classes = []
        for c in tws:
            levels = range(c.J + top + 1)
            pieces = [space.apply_h(U, -j) for j in levels for U in target]
            for Y in oracles.refine_by([c.Y], pieces, space):
                classes.append(towers.Tower(Y, c.J))
        classes.sort(key=lambda c: (c.J, space.sort_key(c.Y)))
        out.append(tuple(classes))
    return tuple(out)


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_refine_system_matches_refine_by_oracle(spec):
    rng = random.Random(29)
    S = genutil.valid_system(spec)
    P1, P2 = genutil.level_partitions(S)
    targets = [P1, space.common_refinement(P1, P2)]
    targets += [genutil.random_partition(spec, rng) for _ in range(10)]
    for target in targets:
        S2 = oracles.refine_system(S, target)
        assert S2.towers == refine_by_oracle(S, target)


def test_refining_by_h_of_q_is_refining_by_q_and_h_of_q_below_the_top():
    # refining by h(Q) over the levels 0..J gives the system that
    # refining by Q & h(Q) over 0..J-1 gives;
    # Q alone over 0..J-1 differs at times, so the h(Q) half matters
    rng = random.Random(41)
    differs = 0
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        for _ in range(30):
            Q = genutil.random_partition(spec, rng)
            hQ = [space.apply_h(U, 1) for U in Q]
            both = refine_by_oracle(S, space.common_refinement(Q, hQ), -1)
            assert oracles.refine_system(S, hQ).towers == both
            differs += refine_by_oracle(S, Q, -1) != both
    assert differs > 0


def test_refine_system_rejects_non_partition_target():
    S, base, P = shift_window_system(0, 7)
    seven = space.shift_set(SHIFT, [7])
    for target in ([seven], [seven, space.whole_space(SHIFT)], []):
        with pytest.raises(ValueError):
            oracles.refine_system(S, target)


def inside_one_cell_oracle(sets, cells):
    """Each set lies inside some cell, by all-pairs is_subset."""
    return all(any(space.is_subset(a, U) for U in cells) for a in sets)


def slices_of(S):
    return [c.Y for tws in S.towers for c in tws]


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_finer_system_criterion_matches_oracle(spec):
    rng = random.Random(41)
    S = genutil.valid_system(spec)
    verdicts = set()
    for _ in range(12):
        target = genutil.random_partition(spec, rng, depth=3)
        S2 = oracles.refine_system(S, target)
        assert S2.bases == S.bases
        assert oracles.finer_system_criterion(S, S2)
        finer = oracles.finer_system_criterion(S2, S)
        assert finer == inside_one_cell_oracle(slices_of(S), slices_of(S2))
        verdicts.add(finer)
    # the cycle's slices are single points, which nothing splits
    if spec.family == space.FINITE_CYCLE:
        assert verdicts == {True}
    else:
        assert verdicts == {True, False}


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_not_subordinate_matches_oracle(spec):
    # bases drawn whole or cut down to one cell of P, so both verdicts
    # occur; a base that fits P may still fail to return or saturate
    rng = random.Random(43)
    verdicts = set()
    for _ in range(12):
        P = genutil.random_partition(spec, rng)
        a = genutil.random_set(spec, rng)
        b = space.difference(genutil.random_set(spec, rng), a)
        if rng.random() < 0.5:
            a = space.intersect(a, rng.choice(P))
        bases = [E for E in (a, b) if not space.is_empty(E)]
        if not bases:
            continue
        fits = inside_one_cell_oracle(bases, P)
        verdicts.add(fits)
        try:
            towers.build_from_bases(bases, P, max_steps=40)
        except NotSubordinate:
            assert not fits
        except (MaxStepsExceeded, SaturationFailure):
            assert fits
        else:
            assert fits
    assert verdicts == {True, False}


def test_finer_system_criterion_base_mismatch():
    S1 = genutil.valid_system(space.finite_cycle(6))
    spec = space.finite_cycle(6)
    S2 = towers.build_from_bases(
        [space.finite_cycle_set(spec, [0])], [space.whole_space(spec)]
    )
    with pytest.raises(oracles.BaseMismatch):
        oracles.finer_system_criterion(S1, S2)


def test_is_finer_trivial_cases():
    spec = space.finite_cycle(3)
    singles = list(space.generating_partition(spec, 1))
    assert oracles.is_finer(singles, [space.whole_space(spec)], space)
    assert not oracles.is_finer([space.whole_space(spec)], singles, space)


def test_check_fiberwise_verdicts():
    assert towers.check_fiberwise(SHIFT, 3).verdict
    assert towers.check_fiberwise(ODO, 3).verdict
    assert towers.check_fiberwise(space.finite_cycle(5), 3).verdict
    assert towers.check_fiberwise(
        space.quotient_product(ODO), 2
    ).verdict
    rep = towers.check_fiberwise(space.two_point_shift(), 2, max_steps=80)
    assert not rep.verdict
    assert rep.failure_witness is not None


def test_check_fiberwise_witnesses():
    rep = towers.check_fiberwise(SHIFT, 2)
    assert rep.z_witnesses == (space.INF,)
    rep = towers.check_fiberwise(space.quotient_product(ODO), 2)
    assert space.INF in rep.z_witnesses
    assert any(isinstance(w, tuple) for w in rep.z_witnesses)


def test_adapted_pair_shift_example():
    U = space.shift_set(SHIFT, range(1, 8), cofinite=True)
    P = [U] + [space.shift_set(SHIFT, [i]) for i in range(1, 8)]
    S, S2 = towers.adapted_system_pair(SHIFT, P, 3)
    js = [c.J for c in S.towers[0]]
    assert js[0] == 1 and js[1] > 3
    js2 = [c.J for c in S2.towers[0]]
    assert js2 == [1, js[1] + 1]
    # X-hat iterates disjoint, and the bases of S2 are the tower images
    for t, tws in enumerate(S.towers):
        lead = tws[0]
        assert S2.bases[t] == space.apply_h(lead.Y, lead.J)


def test_adapted_pair_odometer_equal_systems():
    P = list(space.generating_partition(ODO, 2))
    S, S2 = towers.adapted_system_pair(ODO, P, 3)
    assert S == S2
    assert [c.J for c in S.towers[0]] == [4]
    assert space.is_empty(towers.hat_base(S, 0))


def min_return_time(S):
    return min(c.J for tws in S.towers for c in tws)


def test_adapted_pair_min_return_grows_with_N():
    # aperiodic family: every return time at least N
    for N in (2, 5, 9):
        P = list(space.generating_partition(ODO, 1))
        S, _ = towers.adapted_system_pair(ODO, P, N)
        assert min_return_time(S) >= N


def test_cycle_always_has_short_return():
    # periodic family: some return time at most the period
    spec = space.finite_cycle(5)
    S = genutil.valid_system(spec)
    assert min_return_time(S) <= 5


def test_adapted_pair_quotient():
    fiber = ODO
    spec = space.quotient_product(fiber)
    fcells = space.generating_partition(fiber, 1)
    P = []
    for k in range(0, 4):
        for c in fcells:
            P.append(space.quotient_set(spec, {k: c}))
    P.append(
        space.quotient_set(
            spec,
            {k: space.empty_set(fiber) for k in range(0, 4)},
            tail=True,
        )
    )
    S, S2 = towers.adapted_system_pair(spec, P, 2)
    assert S.T == 5
    js = sorted(tws[0].J for tws in S.towers)
    assert js == [1, 4, 4, 4, 4]


def _lemma_partitions(spec, rng):
    """Partitions for the lemma of adapted_system_pair: generating
    partitions and random coarsenings, each also cut by a random set."""
    out = [space.generating_partition(spec, depth) for depth in (1, 2, 3)]
    out += [genutil.random_partition(spec, rng) for _ in range(2)]
    for P in list(out):
        A = genutil.random_set(spec, rng)
        out.append(space.common_refinement(P, [A, space.complement(A)]))
    return out


def test_adapted_pair_postconditions_asserted():
    # the lemma of adapted_system_pair, with the brute force as oracle:
    # refining S by P and S2 by h(R) changes neither, a, b and d hold,
    # and so do c and e; each P is also refined by the levels of its S,
    # as approximant does from one depth to the next
    rng = random.Random(23)
    specs = genutil.system_specs() + [
        space.odometer(3),
        space.finite_cycle(1),
        space.quotient_product(space.odometer(3)),
    ]
    U = space.shift_set(SHIFT, range(1, 8), cofinite=True)
    P = [U] + [space.shift_set(SHIFT, [i]) for i in range(1, 8)]
    cases = [(SHIFT, P, N) for N in (1, 2, 4, 8)]
    for spec in specs:
        for i, P in enumerate(_lemma_partitions(spec, rng)):
            for N in (1, 3) if i % 2 else (2, 5):
                cases.append((spec, P, N))
    pairs = 0
    for spec, P, N in cases:
        for _ in range(2):
            S, S2 = towers.adapted_system_pair(spec, P, N)
            pairs += 1
            rest = space.complement(
                space.union(space.empty_set(spec), *S.bases)
            )
            R = [c.Y for tws in S.towers for c in tws]
            if not space.is_empty(rest):
                R.append(rest)
            hR = [space.apply_h(X, 1) for X in R]
            assert oracles.refine_system(S, P) == S, (spec, P, N)
            assert oracles.refine_system(S2, hR) == S2, (spec, P, N)
            assert oracles.adapted_pair_failures(S, P, N) == [], (spec, P, N)
            # c follows from the first refinement; e, by one
            # common_refinement per level partition
            P1, P2 = genutil.level_partitions(S)
            Q1, _ = genutil.level_partitions(S2)
            assert space.common_refinement(Q1, P1) == Q1
            assert space.common_refinement(Q1, P2) == Q1
            P = space.common_refinement(P, P1)
    assert pairs >= 300


def _adapted_pairs():
    """(S, S2) over every system spec, depths 1-3 and N in
    {1, 2, 3, 8}."""
    for spec in genutil.system_specs():
        for depth in (1, 2, 3):
            P = space.generating_partition(spec, depth)
            for N in (1, 2, 3, 8):
                S, S2 = towers.adapted_system_pair(spec, P, N)
                bases2 = [
                    space.apply_h(tws[0].Y, tws[0].J) for tws in S.towers
                ]
                assert S2.bases == tuple(bases2)
                yield S, S2


def test_adapted_pair_matches_the_common_refinement_construction():
    # e of the lemma of adapted_system_pair: refining S2 by
    # common_refinement(P1, P2) over the levels 0..J-1 changes nothing,
    # by the oracle
    for S, S2 in _adapted_pairs():
        R = space.common_refinement(*genutil.level_partitions(S))
        assert S2.towers == refine_by_oracle(S2, R, -1), S.spec


def test_adapted_pair_is_refined_by_p1_below_the_top():
    # h^-1 of each slice of S2 lies in one level of S, the top of a
    # leading tower, and refining S2 by P1 over the levels 0..J-1
    # changes nothing
    for S, S2 in _adapted_pairs():
        P1, _ = genutil.level_partitions(S)
        for tws in S2.towers:
            for c in tws:
                pre = space.apply_h(c.Y, -1)
                met = [
                    L for L in P1
                    if not space.is_empty(space.intersect(pre, L))
                ]
                assert len(met) == 1
        assert S2.towers == refine_by_oracle(S2, P1, -1), S.spec


def test_adapted_pair_target_is_h_of_the_slices_and_the_rest():
    # refining S2 by h(P1) over the levels 0..J changes nothing either;
    # the pairs include the quotient over the shift at depth 2, N 8
    for S, S2 in _adapted_pairs():
        P2 = [space.apply_h(L, 1) for L in towers.tower_levels(S)]
        assert S2 == oracles.refine_system(S2, P2), S.spec


def test_orbit_saturation_covers_samples():
    # forward orbit of each base sweeps every sampled point
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        whole = space.whole_space(spec)
        bound = 2 * max(c.J for tws in S.towers for c in tws) + 2
        for p in genutil.sample_points(whole, 10):
            hit = False
            for t in range(S.T):
                base = S.bases[t]
                if any(
                    space.contains_point(
                        base, space.point_apply_h(spec, p, -j)
                    )
                    for j in range(0, bound)
                ):
                    hit = True
                    break
            assert hit


def test_top_images_tile_base():
    # the images h^J(Y) of the slices partition the base again
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        for t, tws in enumerate(S.towers):
            tops = [space.apply_h(c.Y, c.J) for c in tws]
            union = space.empty_set(spec)
            for a in tops:
                assert space.is_empty(space.intersect(union, a))
                union = space.union(union, a)
            assert union == S.bases[t]


def test_return_system_needs_one_tower_tuple_per_base():
    S, base, P = shift_window_system(0, 7)
    d = towers.system_to_dict(S)
    # a second base {5} without towers: it meets the first base's
    # towers, which validate_system would not see; an extra tower tuple
    # with no base
    for bad in (
        dict(d, bases=d["bases"] + [{"F": [5]}]),
        dict(d, towers=d["towers"] * 2),
    ):
        with pytest.raises(ValueError, match="one tuple of towers per base"):
            oracles.system_from_dict(SHIFT, bad)
    with pytest.raises(ValueError):
        towers.ReturnSystem(SHIFT, S.bases, ())


def test_system_serialization_round_trip():
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        d = towers.system_to_dict(S)
        assert oracles.system_from_dict(spec, d) == S


def test_mutants_all_caught_smoke():
    S = genutil.valid_system(SHIFT)
    P = genutil.subordinating_partition(S)
    count = 0
    for desc, M in genutil.mutants(S):
        assert not oracles.validate_system(M, P).ok, desc
        count += 1
    assert count >= 10
