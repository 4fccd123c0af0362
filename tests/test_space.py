"""Clopen set algebra: canonical forms, Boolean laws, dynamics."""

import random

import pytest

import genutil
import oracles
from zdsys import space
from zdsys.errors import InvalidPoint, MixedSystems


def test_canonical_odometer_merges_siblings():
    spec = space.odometer(2)
    a = space.odometer_set(spec, [(0, 0), (0, 1)])
    assert a == genutil.cylinder(spec, (0,))
    b = space.odometer_set(spec, [(0,), (1,)])
    assert b == space.whole_space(spec)


def test_canonical_odometer_drops_covered_words():
    spec = space.odometer(2)
    a = space.odometer_set(spec, [(0,), (0, 1, 1)])
    assert a == genutil.cylinder(spec, (0,))


def _residues(base, words, level):
    """Oracle: the classes mod base**level in the union of the cylinders of
    `words` (digits least significant first)."""
    out = set()
    for w in words:
        v = sum(d * base**i for i, d in enumerate(w))
        out.update(range(v, base**level, base ** len(w)))
    return frozenset(out)


def _random_words(base, rng):
    words = []
    for _ in range(rng.randint(0, 4)):
        length = 0 if rng.random() < 0.05 else rng.randint(1, 4)
        words.append(tuple(rng.randrange(base) for _ in range(length)))
    return words


@pytest.mark.parametrize("base", [2, 3])
def test_odometer_sets_match_residue_oracle(base):
    rng = random.Random(4000 + base)
    spec = space.odometer(base)
    M = base**4

    def oracle(a):
        return _residues(base, space.to_dict(a)["words"], 4)

    for _ in range(300):
        wa, wb = _random_words(base, rng), _random_words(base, rng)
        a, b = space.odometer_set(spec, wa), space.odometer_set(spec, wb)
        ra, rb = _residues(base, wa, 4), _residues(base, wb, 4)
        assert oracle(a) == ra and oracle(b) == rb
        assert (a == b) == (ra == rb)
        # the report lists the maximal cylinders, sorted
        words = [tuple(w) for w in space.to_dict(a)["words"]]
        assert words == sorted(words)
        for w in words:
            assert _residues(base, [w], 4) <= ra
            assert not w or not _residues(base, [w[:-1]], 4) <= ra
        assert space.from_dict(spec, space.to_dict(a)) == a
        assert oracle(space.union(a, b)) == ra | rb
        assert oracle(space.intersect(a, b)) == ra & rb
        assert oracle(space.complement(a)) == frozenset(range(M)) - ra
        assert space.is_subset(a, b) == (ra <= rb)
        assert space.is_empty(a) == (not ra)
        for n in range(-9, 10):
            img = frozenset((r + n) % M for r in ra)
            assert oracle(space.apply_h(a, n)) == img
        for _ in range(5):
            head = tuple(rng.randrange(base) for _ in range(rng.randint(0, 5)))
            repeat = tuple(rng.randrange(base) for _ in range(rng.randint(1, 2)))
            digits = (head + repeat * 4)[:4]
            r = sum(d * base**i for i, d in enumerate(digits))
            assert space.contains_point(a, (head, repeat)) == (r in ra)


def test_odometer_digits_out_of_range_rejected():
    spec = space.odometer(2)
    for words in ([(2,)], [(0, -1)], [(0,), (1, 0, 5)]):
        with pytest.raises(ValueError):
            space.odometer_set(spec, words)
    with pytest.raises(ValueError):
        genutil.cylinder(space.odometer(3), (0, 3))
    with pytest.raises(ValueError):
        space.from_dict(spec, {"words": [[1, 2]]})


def test_shift_set_forms():
    spec = space.compactified_shift()
    a = space.shift_set(spec, [1, 2])
    assert space.to_dict(space.complement(a)) == {"F": [1, 2], "cofinite": True}
    assert space.enumerate_points(a) == [1, 2]
    assert space.complement(space.complement(a)) == a
    assert space.contains_point(space.complement(a), space.INF)
    assert not space.contains_point(a, space.INF)


def _random_shift_points(rng, spread):
    """A finite F: empty, one point, or points near 0, below 0 or far
    from 0 on either side, all within spread of 0 give or take 8."""
    kind = rng.randrange(5)
    if kind == 0:
        return []
    if kind == 1:
        return [rng.randint(-spread, spread)]
    far = rng.randint(spread // 100, spread)
    centre = rng.choice([0, -20, -far, far])
    return [centre + rng.randint(-8, 8) for _ in range(rng.randint(1, 6))]


def test_shift_encoding_matches_frozenset_twin():
    # (spec, twin, number of flags, spread of F and largest |n| of a move
    # the twin makes): the two-point twin's apply_h walks the integers
    # between 0 and n, and its sample_points the integers from min F to
    # max F
    families = [
        (space.compactified_shift(), oracles.FrozensetShift, 1, 10**6),
        (space.two_point_shift(), oracles.FrozensetTwoPoint, 2, 3000),
    ]
    rng = random.Random(16)
    for spec, twin, nflags, far in families:

        def pair():
            F = _random_shift_points(rng, far)
            flags = [rng.random() < 0.5 for _ in range(nflags)]
            return spec.make(F, *flags), twin.make(F, *flags)

        def same(a, t):
            assert space.to_dict(a) == twin.set_to_dict(t)
            assert space.sort_key(a) == twin.sort_key(t)
            assert space.set_scale(a) == twin.scale(t)
            # the twin's points are distinct, and genutil.sample_points
            # keeps the first count of them
            for count in (0, 1, 2, 4, 9):
                want = twin.sample_points(t, count)[:count]
                assert genutil.sample_points(a, count) == want
            if not any(t[1:]):
                assert space.enumerate_points(a) == sorted(t[0])

        for _ in range(400):
            (a, ta), (b, tb) = pair(), pair()
            same(a, ta)
            assert spec.atom_scale([a.data, b.data]) == twin.atom_scale([ta, tb])
            assert spec.atom_scale([]) == twin.atom_scale([])
            for op in ("union", "intersect"):
                same(getattr(space, op)(a, b), getattr(twin, op)(ta, tb))
            same(space.complement(a), twin.complement(ta))
            n = rng.choice([0, 1, -3, rng.randint(-far, far)])
            same(space.apply_h(a, n), twin.apply_h(ta, n))
            finite = sorted(ta[0] | tb[0])
            points = list(twin.INFS) + [0] + finite
            points += [p + e for p in finite[:2] + finite[-1:] for e in (-1, 1)]
            points += twin.sample_points(twin.complement(ta), 3)
            for p in points:
                assert space.contains_point(a, p) == twin.contains_point(ta, p)
            # a move far beyond the twin's reach: x + m is in h^m(a) iff
            # x is in a
            m = rng.choice([-1, 1]) * rng.randint(10**5, 10**6)
            far_image = space.apply_h(a, m)
            for p in points:
                q = p if p in twin.INFS else p + m
                assert (space.contains_point(far_image, q)
                        == twin.contains_point(ta, p))
            # equal sets have equal data, however they were built
            assert (a.data == b.data) == (ta == tb)
            for c in (
                space.apply_h(space.apply_h(a, n), -n),
                space.apply_h(far_image, -m),
                space.union(a, space.intersect(a, b)),
                space.complement(space.complement(a)),
                space.intersect(space.union(a, b), a),
                space.from_dict(spec, space.to_dict(a)),
            ):
                assert c.data == a.data and hash(c) == hash(a)
        empty = space.empty_set(spec)
        assert space.union(empty, empty).data == space.apply_h(empty, 7).data


def test_two_point_samples_do_not_walk_the_window():
    # at most count points, the first of them the integers nearest F,
    # however far apart the points of F lie
    spec = space.two_point_shift()
    for F in ([-3000, 3000], [-10**6, 10**6]):
        for tails in ((False, False), (True, False), (False, True), (True, True)):
            a = space.two_point_set(spec, F, *tails)
            for count in (1, 2, 4, 9):
                assert len(genutil.sample_points(a, count)) <= count
    wide = {
        (False, False): [-10**6, 10**6],
        (True, False): [-1000005, -1000004, -1000003, -1000002],
        (False, True): [-10**6, 0, 1, 2],
        (True, True): [-1000005, -1000004, -1000003, -1000002],
    }
    for tails, want in wide.items():
        a = space.two_point_set(spec, [-10**6, 10**6], *tails)
        assert genutil.sample_points(a, 4) == want


def test_two_point_membership_and_tails():
    spec = space.two_point_shift()
    a = space.two_point_set(spec, range(-3, 0), tail_minus=True)
    # contains -inf and all integers below -3
    assert space.contains_point(a, space.MINUS_INF)
    assert not space.contains_point(a, space.PLUS_INF)
    assert space.contains_point(a, -4)
    assert not space.contains_point(a, -3)
    assert not space.contains_point(a, 5)


def test_quotient_canonical_drops_default_slices():
    fiber = space.odometer(2)
    spec = space.quotient_product(fiber)
    a = space.quotient_set(
        spec, {0: space.whole_space(fiber), 1: genutil.cylinder(fiber, (0,))},
        tail=True,
    )
    # slice 0 equals the tail default and must not be stored
    assert [k for k, _ in a.data[1]] == [1]
    assert space.contains_point(a, (0, ((), (0,))))
    assert space.contains_point(a, space.INF)


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_boolean_laws(spec):
    rng = random.Random(1234 + hash(spec.family) % 1000)
    whole = space.whole_space(spec)
    empty = space.empty_set(spec)
    assert space.complement(whole) == empty
    for _ in range(2500):
        a = genutil.random_set(spec, rng)
        b = genutil.random_set(spec, rng)
        # De Morgan, twice
        assert space.complement(space.union(a, b)) == space.intersect(
            space.complement(a), space.complement(b)
        )
        assert space.complement(space.intersect(a, b)) == space.union(
            space.complement(a), space.complement(b)
        )
        # absorption and involution
        assert space.union(a, space.intersect(a, b)) == a
        assert space.complement(space.complement(a)) == a


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_apply_h_is_boolean_automorphism(spec):
    rng = random.Random(99)
    for _ in range(300):
        a = genutil.random_set(spec, rng)
        b = genutil.random_set(spec, rng)
        n = rng.randint(-5, 5)
        m = rng.randint(-5, 5)
        assert space.apply_h(space.union(a, b), n) == space.union(
            space.apply_h(a, n), space.apply_h(b, n)
        )
        assert space.apply_h(space.complement(a), n) == space.complement(
            space.apply_h(a, n)
        )
        assert space.apply_h(space.apply_h(a, n), m) == space.apply_h(
            a, n + m
        )
    assert space.apply_h(space.whole_space(spec), 3) == space.whole_space(
        spec
    )


def coarser_scales(spec, s):
    """The atom scale s of spec and some coarser ones; a quotient scale
    is a (slice keys, fiber scale, whole-fiber mask) triple and coarsens
    by more keys and in the fiber scale, with the mask at that scale."""
    if isinstance(s, tuple):
        ks, f, _ = s
        fiber = spec.fiber
        whole = space.whole_space(fiber).data
        far = max(ks, default=0) + 5
        wider = (ks, tuple(sorted({*ks, -1, 0, 2})), tuple(sorted({*ks, far})))
        return [
            (k, g, fiber.atoms(whole, g))
            for k in wider
            for g in coarser_scales(fiber, f)
        ]
    return [s, s + 1, s + 3]


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_atoms_are_a_boolean_isomorphism(spec):
    rng = random.Random(83)
    whole = space.whole_space(spec).data
    for _ in range(40):
        a = genutil.random_set(spec, rng)
        b = genutil.random_set(spec, rng)
        for s in coarser_scales(spec, spec.atom_scale([a.data])):
            assert spec.from_atoms(spec.atoms(a.data, s), s) == a.data
        for s in coarser_scales(spec, spec.atom_scale([a.data, b.data])):
            ma = spec.atoms(a.data, s)
            every = spec.atoms(whole, s)
            assert spec.atoms(space.complement(a).data, s) == ma ^ every
            # every mask is the mask of a set, in canonical form
            m = rng.getrandbits(every.bit_length())
            assert spec.atoms(spec.from_atoms(m, s), s) == m


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_union_and_intersect_agree_with_membership(spec):
    # union and intersect come from the atom masks; contains_point reads
    # the family's data directly, so it is an independent oracle
    rng = random.Random(97)
    for _ in range(200):
        a = genutil.random_set(spec, rng)
        b = genutil.random_set(spec, rng)
        u, i = space.union(a, b), space.intersect(a, b)
        for E in (a, b, space.complement(a), space.complement(b)):
            for p in genutil.sample_points(E, 6):
                in_a = space.contains_point(a, p)
                in_b = space.contains_point(b, p)
                assert space.contains_point(u, p) == (in_a or in_b)
                assert space.contains_point(i, p) == (in_a and in_b)


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_union_of_many_sets_is_the_fold_of_unions(spec):
    # lists with repeated, overlapping and empty sets; a set over another
    # spec raises MixedSystems wherever it stands
    rng = random.Random(113)
    empty = space.empty_set(spec)
    other = space.whole_space(space.finite_cycle(5))
    for _ in range(100):
        sets = [genutil.random_set(spec, rng) for _ in range(rng.randint(1, 5))]
        sets += rng.sample(sets, rng.randint(0, len(sets)))
        sets += [space.union(sets[0], s) for s in sets[1:2]]
        sets += [empty] * rng.randint(0, 2)
        rng.shuffle(sets)
        fold = sets[0]
        for s in sets[1:]:
            fold = space.union(fold, s)
        got = space.union(*sets)
        assert got == fold and got.data == fold.data
        assert space.union(empty, *sets) == fold
        mixed = list(sets)
        mixed.insert(rng.randint(0, len(sets)), other)
        with pytest.raises(MixedSystems):
            space.union(*mixed)
    assert space.union(empty) == empty


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_common_scale_of_images_holds_every_image(spec):
    rng = random.Random(89)
    for _ in range(40):
        E = genutil.random_set(spec, rng)
        images = [space.apply_h(E, n) for n in range(-5, 6)]
        s = spec.atom_scale([X.data for X in images])
        for X in images:
            assert spec.from_atoms(spec.atoms(X.data, s), s) == X.data


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_point_membership_tracks_apply_h(spec):
    rng = random.Random(7)
    for _ in range(200):
        a = genutil.random_set(spec, rng)
        if space.is_empty(a):
            continue
        for p in genutil.sample_points(a, 4):
            n = rng.randint(-4, 4)
            q = space.point_apply_h(spec, p, n)
            assert space.contains_point(space.apply_h(a, n), q)


def test_odometer_point_shift_carries():
    spec = space.odometer(2)
    # 1 + (1,1,0,1,1,...) carries twice then stops
    p = ((1, 1, 0), (1,))
    q = space.point_apply_h(spec, p, 1)
    assert space.contains_point(genutil.cylinder(spec, (0, 0, 1, 1)), q)
    # adding 1 to the all-ones point carries forever, giving all zeros
    ones = ((), (1,))
    z = space.point_apply_h(spec, ones, 1)
    for L in range(1, 8):
        assert space.contains_point(genutil.cylinder(spec, (0,) * L), z)
    # and the inverse undoes it
    back = space.point_apply_h(spec, z, -1)
    for L in range(1, 8):
        assert space.contains_point(genutil.cylinder(spec, (1,) * L), back)


def test_odometer_cylinder_image():
    spec = space.odometer(2)
    a = genutil.cylinder(spec, (1, 1, 0, 1, 1))
    img = space.apply_h(a, 1)
    assert img == genutil.cylinder(spec, (0, 0, 1, 1, 1))


def test_mixed_specs_rejected():
    a = space.whole_space(space.finite_cycle(3))
    b = space.whole_space(space.finite_cycle(4))
    with pytest.raises(MixedSystems):
        space.union(a, b)


def test_cycle_points_outside_the_cycle_rejected():
    # JSON names points of the cycle only; make still reduces mod M
    spec = space.finite_cycle(3)
    for points in ([5], [0, 3], [-1]):
        with pytest.raises(ValueError, match="point outside the cycle"):
            space.from_dict(spec, {"points": points})
    qspec = space.quotient_product(spec)
    with pytest.raises(ValueError, match="point outside the cycle"):
        space.from_dict(
            qspec, {"slices": [{"k": 0, "set": {"points": [3]}}]}
        )
    assert space.from_dict(spec, {"points": [2, 0]}) == space.finite_cycle_set(
        spec, [5, 3]
    )


def test_invalid_points_rejected():
    spec = space.finite_cycle(3)
    with pytest.raises(InvalidPoint):
        space.contains_point(space.whole_space(spec), 7)
    ospec = space.odometer(2)
    with pytest.raises(InvalidPoint):
        space.contains_point(space.whole_space(ospec), ((0,), ()))


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_generating_partitions(spec):
    for n in (1, 2, 3):
        P = space.generating_partition(spec, n)
        assert space.is_partition(list(P))
    # deeper levels refine shallower ones
    P1 = space.generating_partition(spec, 1)
    P2 = space.generating_partition(spec, 2)
    for c in P2:
        assert any(space.is_subset(c, d) for d in P1)


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_partition_of_a_target_set(spec):
    cells = list(space.generating_partition(spec, 2))
    target = space.union(cells[0], cells[1])
    assert space.is_partition(cells[:2], target)
    assert space.is_partition(cells[1::-1], target)
    assert not space.is_partition(cells[:1], target)
    assert not space.is_partition(cells[:3], target)
    assert not space.is_partition([cells[0], target], target)
    assert not space.is_partition(cells[:2] + [space.empty_set(spec)], target)
    assert space.is_partition([], space.empty_set(spec))
    assert not space.is_partition([], target)
    assert not space.is_partition([])
    assert space.is_partition(cells, space.whole_space(spec))


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_common_refinement_is_finer_partition(spec):
    rng = random.Random(5)
    for _ in range(20):
        P = genutil.random_partition(spec, rng)
        Q = genutil.random_partition(spec, rng)
        R = space.common_refinement(P, Q)
        assert space.is_partition(list(R))
        for c in R:
            assert any(space.is_subset(c, d) for d in P)
            assert any(space.is_subset(c, d) for d in Q)


PARTITION_SPECS = list(
    dict.fromkeys(genutil.all_specs() + genutil.system_specs())
)


def _outcome(f, *args, **kwargs):
    """f's result, or MixedSystems itself when f raises it."""
    try:
        return f(*args, **kwargs)
    except MixedSystems:
        return MixedSystems


def _set_lists(spec, rng):
    """Partitions, and lists of random sets that may overlap, repeat or
    be empty."""
    yield genutil.random_partition(spec, rng)
    yield [genutil.random_set(spec, rng) for _ in range(rng.randint(0, 5))]
    P = genutil.random_partition(spec, rng)
    yield P + [space.empty_set(spec)] + P[:1]


@pytest.mark.parametrize("spec", PARTITION_SPECS)
def test_partition_primitives_match_oracles(spec):
    rng = random.Random(13)
    other = space.whole_space(space.finite_cycle(2))
    for _ in range(30):
        lists = list(_set_lists(spec, rng))
        for sets in lists:
            # a set over another spec, at every position
            variants = [sets] + [
                sets[:i] + [other] + sets[i:] for i in range(len(sets) + 1)
            ]
            for v in variants:
                for nonempty in (False, True):
                    assert _outcome(
                        space.disjoint_union, spec, v, nonempty
                    ) == _outcome(
                        oracles.disjoint_union, spec, v, space, nonempty
                    )
        for P in lists:
            for Q in lists:
                R = space.common_refinement(P, Q)
                assert R == oracles.common_refinement(P, Q, space)
        P, Q = lists[0], lists[1]
        for mixed in ([other] + P, P + [other]):
            for args in ((mixed, Q), (Q, mixed)):
                assert _outcome(space.common_refinement, *args) == _outcome(
                    oracles.common_refinement, *args, space
                )


def test_common_refinement_takes_equal_specs_that_are_not_one_object():
    whole = space.whole_space(space.odometer(2))
    half = genutil.cylinder(space.odometer(2), (0,))
    assert whole.spec is not half.spec
    assert space.common_refinement((whole,), (half,)) == (half,)
    assert space.common_refinement((half,), (whole,)) == (half,)


@pytest.mark.parametrize("spec", genutil.all_specs())
def test_serialization_round_trip(spec):
    rng = random.Random(11)
    for _ in range(100):
        a = genutil.random_set(spec, rng)
        assert space.from_dict(spec, space.to_dict(a)) == a
    back = space.SystemSpec.from_dict(spec.to_dict())
    assert back == spec and hash(back) == hash(spec)
    assert repr(back) == repr(spec)
    others = [o for o in genutil.all_specs() if o.family != spec.family]
    assert all(o != spec for o in others)


def test_sample_points_at_count_zero_is_empty():
    rng = random.Random(22)
    for spec in genutil.all_specs() + genutil.system_specs():
        sets = [space.whole_space(spec)]
        sets += [genutil.random_set(spec, rng) for _ in range(20)]
        for a in sets:
            assert genutil.sample_points(a, 0) == []


def test_sample_points_lie_in_set():
    rng = random.Random(21)
    for spec in genutil.all_specs():
        for _ in range(50):
            a = genutil.random_set(spec, rng)
            for p in genutil.sample_points(a, 6):
                assert space.contains_point(a, p)
