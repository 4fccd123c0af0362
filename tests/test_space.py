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
    assert a == space.cylinder(spec, (0,))
    b = space.odometer_set(spec, [(0,), (1,)])
    assert b == space.whole_space(spec)


def test_canonical_odometer_drops_covered_words():
    spec = space.odometer(2)
    a = space.odometer_set(spec, [(0,), (0, 1, 1)])
    assert a == space.cylinder(spec, (0,))


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
        space.cylinder(space.odometer(3), (0, 3))
    with pytest.raises(ValueError):
        space.from_dict(spec, {"words": [[1, 2]]})


def test_shift_set_forms():
    spec = space.compactified_shift()
    a = space.shift_set(spec, [1, 2])
    assert space.complement(a).data == (frozenset({1, 2}), True)
    assert space.complement(space.complement(a)) == a
    assert space.contains_point(space.complement(a), space.INF)
    assert not space.contains_point(a, space.INF)


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
        spec, {0: space.whole_space(fiber), 1: space.cylinder(fiber, (0,))},
        tail=True,
    )
    # slice 0 equals the tail default and must not be stored
    assert spec.window(a.data) == [1]
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
            for p in space.sample_points(E, 6):
                in_a = space.contains_point(a, p)
                in_b = space.contains_point(b, p)
                assert space.contains_point(u, p) == (in_a or in_b)
                assert space.contains_point(i, p) == (in_a and in_b)


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
        for p in space.sample_points(a, 4):
            n = rng.randint(-4, 4)
            q = space.point_apply_h(spec, p, n)
            assert space.contains_point(space.apply_h(a, n), q)


def test_odometer_point_shift_carries():
    spec = space.odometer(2)
    # 1 + (1,1,0,1,1,...) carries twice then stops
    p = ((1, 1, 0), (1,))
    q = space.point_apply_h(spec, p, 1)
    assert space.contains_point(space.cylinder(spec, (0, 0, 1, 1)), q)
    # adding 1 to the all-ones point carries forever, giving all zeros
    ones = ((), (1,))
    z = space.point_apply_h(spec, ones, 1)
    for L in range(1, 8):
        assert space.contains_point(space.cylinder(spec, (0,) * L), z)
    # and the inverse undoes it
    back = space.point_apply_h(spec, z, -1)
    for L in range(1, 8):
        assert space.contains_point(space.cylinder(spec, (1,) * L), back)


def test_odometer_cylinder_image():
    spec = space.odometer(2)
    a = space.cylinder(spec, (1, 1, 0, 1, 1))
    img = space.apply_h(a, 1)
    assert img == space.cylinder(spec, (0, 0, 1, 1, 1))


def test_mixed_specs_rejected():
    a = space.whole_space(space.finite_cycle(3))
    b = space.whole_space(space.finite_cycle(4))
    with pytest.raises(MixedSystems):
        space.union(a, b)


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
    half = space.cylinder(space.odometer(2), (0,))
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


def test_sample_points_lie_in_set():
    rng = random.Random(21)
    for spec in genutil.all_specs():
        for _ in range(50):
            a = genutil.random_set(spec, rng)
            for p in space.sample_points(a, 6):
                assert space.contains_point(a, p)
