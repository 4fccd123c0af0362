"""End-to-end acceptance checks for the whole pipeline."""

import math
import random

import numpy as np
import pytest

import genutil
import oracles
from zdsys import cpalgebra as cp
from zdsys import ktheory as kt
from zdsys import numeric, space, towers

SHIFT = space.compactified_shift()
ODO = space.odometer(2)


def window_partition(a, b):
    """Base {inf} with (-inf, a] and [b, inf), plus singleton interior."""
    U = space.shift_set(SHIFT, range(a + 1, b), cofinite=True)
    return [U] + [space.shift_set(SHIFT, [i]) for i in range(a + 1, b)]


def window_pair(a, b, N):
    F = range(a + N, b)
    U = space.shift_set(SHIFT, F, cofinite=True)
    P = [U] + [space.shift_set(SHIFT, [i]) for i in F]
    return towers.adapted_system_pair(SHIFT, P, N)


def odometer_pair(L, N=1):
    P = list(space.generating_partition(ODO, L))
    return towers.adapted_system_pair(ODO, P, N)


# 1. return time decomposition on the two-sided window example


def test_window_tower_reproduction():
    base = space.shift_set(SHIFT, range(1, 7), cofinite=True)
    P = [base, space.complement(base)]
    S = towers.build_from_bases([base], P)
    assert len(S.bases) == 1
    assert len(S.towers[0]) == 2
    assert sorted(c.J for c in S.towers[0]) == [1, 7]
    js = {c.J: c.Y for c in S.towers[0]}
    assert js[7] == space.shift_set(SHIFT, [0])
    assert js[1] == space.difference(base, js[7])
    P1, P2 = genutil.level_partitions(S)
    assert len(P1) == 8
    levels = {space.shift_set(SHIFT, [j]) for j in range(7)}
    levels.add(space.shift_set(SHIFT, range(7), cofinite=True))
    assert set(P1) == levels
    assert oracles.validate_system(S, P).ok


# 2. single tower of height 2^L over an odometer cylinder


@pytest.mark.parametrize("L", range(1, 7))
def test_odometer_single_tower(L):
    base = genutil.cylinder(ODO, (0,) * L)
    S = towers.build_from_bases([base], [space.whole_space(ODO)])
    assert len(S.towers) == 1
    assert len(S.towers[0]) == 1
    assert S.towers[0][0].J == 2 ** L
    assert S.towers[0][0].Y == base


# 3. approximant dimensions in closed form


@pytest.mark.parametrize("ab", [(0, 5), (0, 8), (-3, 4)])
def test_window_approximant_dimensions(ab):
    a, b = ab
    S, S2 = window_pair(a, b, 2)
    assert cp.approximant(S, S2).to_dict() == {
        "blocks": [{"circle": 1, "matrices": [b - a]}]
    }


@pytest.mark.parametrize("L", range(1, 6))
def test_odometer_approximant_dimensions(L):
    S, S2 = odometer_pair(L)
    assert cp.approximant(S, S2).to_dict() == {
        "blocks": [{"circle": 2 ** L, "matrices": []}]
    }


@pytest.mark.parametrize("n", (1, 2))
def test_quotient_approximant_dimensions(n):
    spec = space.quotient_product(ODO)
    P = list(space.generating_partition(spec, n))
    S, S2 = towers.adapted_system_pair(spec, P, 1)
    copies = 2 * n  # the index window is [-n, n)
    assert cp.approximant(S, S2).to_dict() == {
        "blocks": [{"circle": 1, "matrices": []}]
        + [{"circle": 2 ** n, "matrices": []}] * copies
    }


# 4. the symbolic identity suite, exact arithmetic


def test_identity_suite_exact():
    for S, S2 in (odometer_pair(2, N=3), window_pair(0, 8, 3)):
        rep = cp.identity_suite(S, S2)
        assert len(rep.entries) == 11
        failed = [n for n, p, _ in rep.entries if not p]
        assert not failed, failed
        # exact scalar arithmetic throughout
        pe = cp.proof_unitaries(S, S2)
        u1 = cp.multiply(cp.adjoint(pe.v1), cp.shift_unitary(S.spec))
        for el in (pe.v1, u1, pe.v2, pe.u2, oracles.uhat(S, pe.u2)):
            assert oracles.has_exact_scalars(el)


# 5. interpolation bound on the window example


@pytest.mark.parametrize("N", (2, 4, 8, 16))
def test_interpolation_bound_window(N):
    eps = math.pi / N + 0.01
    rep = numeric.berg_verify(SHIFT, window_partition(0, 8), N, eps)
    assert rep.z_unitary_ok
    assert rep.z_commutes_ok
    assert rep.norm_u_prime_minus_u <= math.pi / N + 1e-9
    assert rep.passed


def test_interpolation_trivial_on_odometer():
    rep = numeric.berg_verify(
        ODO, list(space.generating_partition(ODO, 2)), 4, math.pi / 4 + 0.01
    )
    assert rep.norm_u_prime_minus_u <= 1e-12
    assert rep.passed


# 6. root interpolation property suite


def test_root_interpolation_random_unitaries():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        N = int(rng.integers(1, 33))
        V = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, n)))
        for _ in range(3):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = v / np.linalg.norm(v)
            V = (np.eye(n) - 2 * np.outer(v, v.conj())) @ V
        # numeric takes roots of permutations only; this is the
        # eigenbasis oracle that its cycle roots are checked against
        W = oracles.eigenbasis_root(V, N)
        assert np.linalg.norm(np.linalg.matrix_power(W, N) - V, 2) <= 1e-10
        assert np.linalg.norm(W - np.eye(n), 2) <= math.pi / N + 1e-9


# 7. K-theory values and normal form reconstruction


@pytest.mark.parametrize("M", range(1, 13))
def test_k_theory_cycles(M):
    spec = space.finite_cycle(M)
    P = tuple(space.finite_cycle_set(spec, [i]) for i in range(M))
    data = kt.level_report(P, 1)
    assert data["k1"] == {"rank": 1}
    assert data["k0"] == {"rank": 1, "torsion": []}
    if M <= 6:
        facs = oracles.invariant_factors(oracles.id_minus_cyclic(M))
        assert facs == [1] * (M - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_k_theory_odometer(n):
    data = kt.level_report(space.generating_partition(ODO, n), n)
    assert data["k1"] == {"rank": 1}
    assert data["k0"] == {"rank": 1, "torsion": []}


def test_snf_reconstruction_random():
    rng = random.Random(909)
    for _ in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        A = oracles.int_matrix(
            [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        U, D, V = oracles.smith_normal_form(A)
        assert oracles.mat_mul(oracles.mat_mul(U, D), V).entries == A.entries
        assert oracles.is_unimodular(U)
        assert oracles.is_unimodular(V)
        diag = [D[(i, i)] for i in range(min(n, m))]
        nz = [d for d in diag if d != 0]
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0


# 8. fiberwise gate


def test_fiberwise_gate():
    assert towers.check_fiberwise(SHIFT, 1).verdict is True
    assert towers.check_fiberwise(ODO, 1).verdict is True
    assert towers.check_fiberwise(
        space.quotient_product(ODO), 1
    ).verdict is True
    rep = towers.check_fiberwise(space.two_point_shift(), 1)
    assert rep.verdict is False
    assert rep.failure_witness is not None


# 9. mutation coverage and randomized refinement postconditions


def test_validator_catches_all_mutants():
    total = 0
    for spec in genutil.system_specs():
        S = genutil.valid_system(spec)
        P = genutil.subordinating_partition(S)
        assert oracles.validate_system(S, P).ok
        for desc, M in genutil.mutants(S):
            total += 1
            assert not oracles.validate_system(M, P).ok, (spec.family, desc)
    assert total >= 100


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_refinement_postconditions(spec):
    rng = random.Random(515)
    S = genutil.valid_system(spec)
    P = genutil.subordinating_partition(S)
    P1, P2 = genutil.level_partitions(S)
    for _ in range(50):
        target = genutil.random_partition(spec, rng)
        S2 = oracles.refine_system(S, target)
        assert S2.bases == S.bases
        assert oracles.validate_system(S2, P).ok
        assert oracles.finer_system_criterion(S, S2)
        Q1, Q2 = genutil.level_partitions(S2)
        assert oracles.is_finer(Q1, target, space)
        assert oracles.is_finer(Q2, target, space)
        assert oracles.is_finer(Q1, P1, space)
        assert oracles.is_finer(Q2, P2, space)
