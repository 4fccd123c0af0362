"""The value classes of the package, all space.Record subclasses, against
their frozen-dataclass twins in oracles: equality, hash and repr agree on
specs, sets, towers, crossed-product elements and reports of every
family; the objects are immutable; and construction by position or
keyword, the defaults and the __post_init__ checks behave as the
dataclasses did."""

import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

import genutil
import oracles
from zdsys import cpalgebra as cp
from zdsys import numeric, space, towers

SHIFT = space.compactified_shift()
ODO = space.odometer(2)


def value_classes():
    """Every Record subclass of the package, subclasses of subclasses
    included."""
    out = []
    todo = [space.Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return sorted(out, key=lambda c: c.__name__)


def sample_values():
    """Objects of every value class, built by the package's own code
    where it builds them."""
    rng = random.Random(1414)
    out = [space.SystemSpec(), space.odometer(3)]
    for spec in genutil.all_specs() + genutil.system_specs():
        out.append(spec)
        out += [space.empty_set(spec), space.whole_space(spec)]
        out += [genutil.random_set(spec, rng) for _ in range(6)]
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        out += [S, *S.towers[0]]
        out.append(towers.first_return_decomposition(S.bases[0]))
        out.append(towers.validate_system(S, [space.whole_space(spec)]))
        out.append(towers.validate_system(S, space.generating_partition(spec, 3)))
    out.append(towers.check_fiberwise(SHIFT, 2))
    out.append(towers.check_fiberwise(space.two_point_shift(), 1))
    P = list(space.generating_partition(ODO, 2))
    U = space.shift_set(SHIFT, range(1, 8), cofinite=True)
    for S, S2 in (
        towers.adapted_system_pair(ODO, P, 3),
        towers.adapted_system_pair(SHIFT, [U, space.complement(U)], 2),
    ):
        proof = cp.proof_unitaries(S, S2)
        out += [S2, proof, proof.v1, proof.uhat]
        out += [cp.identity_suite(S, S2), cp.approximant(S, S2)]
        out += list(cp.matrix_units(S).values())[:3]
    element = cp.cp_element(SHIFT, {1: [(2, space.shift_set(SHIFT, [0, 1]))]})
    out += [element, cp.one(SHIFT), cp.zero(ODO)]
    # a NaN field equals itself only as the same object, as in a tuple
    nan = math.nan
    for norm in (nan, nan, float("nan")):
        out.append(numeric.BergReport(4, 0.5, norm, 0.25, (0.1, nan), True,
                                      True, False))
    return out


VALUES = sample_values()


def test_sample_covers_every_value_class():
    names = {type(v).__name__ for v in VALUES} | {"CompactMatrixRep"}
    assert sorted(c.__name__ for c in value_classes()) == sorted(oracles.VALUE_TWINS)
    assert names == set(oracles.VALUE_TWINS)
    assert len(oracles.VALUE_TWINS) >= 16


def test_hash_and_repr_match_the_dataclass_twins():
    for v in VALUES:
        twin = oracles.value_twin(v)
        assert repr(v) == repr(twin)
        assert hash(v) == hash(twin)


def test_equality_matches_the_dataclass_twins():
    twins = [oracles.value_twin(v) for v in VALUES]
    pairs = list(zip(VALUES, twins))
    for (a, ta), (b, tb) in itertools.product(pairs, repeat=2):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
    # the shift families have no fields, and still differ by class
    assert space.compactified_shift() != space.two_point_shift()
    assert space.compactified_shift() == space.compactified_shift()


def test_set_order_matches_the_dataclass_twins():
    # equal hashes and equality give equal iteration orders
    twins = set(oracles.value_twin(v) for v in VALUES)
    assert [repr(t) for t in twins] == [repr(v) for v in set(VALUES)]


def test_matrix_rep_repr_matches_the_dataclass_twin():
    a = cp.cp_element(SHIFT, {1: [(1, space.shift_set(SHIFT, [0, 2]))]})
    rep = numeric.represent(a)
    assert repr(rep) == repr(oracles.value_twin(rep))
    with pytest.raises(TypeError):  # the numpy matrix is unhashable
        hash(rep)


@pytest.mark.parametrize("v", [VALUES[0], ODO, space.empty_set(ODO),
                               towers.Tower(space.empty_set(ODO), 1),
                               cp.one(SHIFT)], ids=repr)
def test_values_are_immutable(v):
    names = [f.name for f in dataclasses.fields(oracles.value_twin(v))]
    name = names[0] if names else "x"
    with pytest.raises(AttributeError):
        setattr(v, name, None)
    with pytest.raises(AttributeError):
        setattr(v, "new_attribute", None)
    with pytest.raises(AttributeError):
        delattr(v, name)


def test_values_survive_pickle_and_copy():
    for v in VALUES:
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v)):
            assert type(back) is type(v)
            # an unpickled NaN is a new object, unequal to the old one
            assert back == v or "nan" in repr(v)


def test_defaults_and_checks():
    assert space.odometer().base == 2
    assert space.odometer() == space.odometer(2) == space.odometer(base=2)
    assert repr(space.odometer()) == "Odometer(base=2)"
    report = towers.FiberwiseReport(True, 1, ())
    assert report.failure_witness is None
    with pytest.raises(ValueError):
        space.finite_cycle(0)
    with pytest.raises(ValueError):
        space.odometer(1)
    with pytest.raises(ValueError):
        space.quotient_product(space.two_point_shift())
    with pytest.raises(TypeError):
        space.finite_cycle()
    with pytest.raises(TypeError):
        space.finite_cycle(3, period=3)
    with pytest.raises(TypeError):
        space.finite_cycle(3, size=3)
    with pytest.raises(TypeError):
        towers.Tower(space.empty_set(ODO), 1, 2)


def test_keyword_and_positional_construction_agree():
    Y = space.cylinder(ODO, (0, 1))
    assert towers.Tower(Y, 4) == towers.Tower(J=4, Y=Y) == towers.Tower(Y, J=4)
    assert space.ClopenSet(ODO, Y.data) == space.ClopenSet(data=Y.data, spec=ODO)
    assert space.finite_cycle(5) == space.FiniteCycle(period=5)
    assert space.quotient_product(ODO) == space.QuotientProduct(fiber=ODO)
    full = towers.FiberwiseReport(False, 2, (), (Y, "why"))
    assert full == towers.FiberwiseReport(
        failure_witness=(Y, "why"), z_witnesses=(), depth=2, verdict=False
    )
