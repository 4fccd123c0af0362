"""Partition-level K-theory by cycle counting, against the all-pairs
induced matrix and the Smith normal form in tests/oracles.py."""

import random

import pytest

import genutil
import oracles
from zdsys import ktheory as kt
from zdsys import space
from zdsys.errors import NeedsRefinement


def snf_diag(A):
    _, D, _ = oracles.smith_normal_form(A)
    return [D[(i, i)] for i in range(min(D.rows, D.cols))]


def check_snf(A):
    U, D, V = oracles.smith_normal_form(A)
    assert oracles.mat_mul(oracles.mat_mul(U, D), V).entries == A.entries
    assert oracles.is_unimodular(U)
    assert oracles.is_unimodular(V)
    diag = [D[(i, i)] for i in range(min(D.rows, D.cols))]
    for i in range(D.rows):
        for j in range(D.cols):
            if i != j:
                assert D[(i, j)] == 0
    for d in diag:
        assert d >= 0
    nz = [d for d in diag if d != 0]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros only after the nonzero part
    assert diag == nz + [0] * (len(diag) - len(nz))
    return diag


def test_snf_examples():
    assert snf_diag(oracles.int_matrix([[2, 0], [0, 3]])) == [1, 6]
    assert snf_diag(oracles.identity_matrix(4)) == [1, 1, 1, 1]
    assert snf_diag(oracles.int_matrix(oracles.id_minus_cyclic(3))) == [1, 1, 0]
    assert snf_diag(oracles.int_matrix([[0, 0], [0, 0]])) == [0, 0]
    assert snf_diag(oracles.int_matrix([[6]])) == [6]
    assert snf_diag(oracles.int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [
        2,
        2,
        156,
    ]


def test_snf_random_matrices():
    rng = random.Random(1001)
    for _ in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        A = oracles.int_matrix(
            [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        check_snf(A)


def test_snf_matches_determinant_divisor_oracle():
    rng = random.Random(1002)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        diag = snf_diag(oracles.int_matrix(rows))
        expected = oracles.invariant_factors(rows)
        assert [d for d in diag if d != 0] == expected


def test_unimodularity_oracle_agreement():
    rng = random.Random(1003)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        M = oracles.int_matrix(rows)
        assert oracles.is_unimodular(M) == (abs(oracles.det_over_Q(rows)) == 1)


def oracle_level(P):
    """(k0 rank, k0 torsion, k1 rank) from the all-pairs induced matrix
    and the Smith form of 1 - alpha*; None when the map is not square."""
    images = [space.apply_h(c, 1) for c in P]
    M = oracles.induced_matrix(P, images, space.is_subset)
    if M is None:
        return None
    A = oracles.mat_sub(oracles.identity_matrix(len(P)), oracles.int_matrix(M))
    diag = snf_diag(A)
    k1_rank = sum(1 for d in diag if d == 0) + (A.cols - len(diag))
    k0_rank = A.rows - sum(1 for d in diag if d != 0)
    return k0_rank, [d for d in diag if d > 1], k1_rank


def cycle_level(P):
    """The same triple from level_report; None on NeedsRefinement."""
    try:
        data = kt.level_report(P, 1)
    except NeedsRefinement:
        return None
    return data["k0"]["rank"], data["k0"]["torsion"], data["k1"]["rank"]


def test_alpha_star_cycle_is_permutation():
    spec = space.finite_cycle(5)
    P = tuple(space.finite_cycle_set(spec, [i]) for i in range(5))
    perm = kt.alpha_star(P)
    assert perm == [1, 2, 3, 4, 0]
    M = [[1 if i == perm[j] else 0 for j in range(5)] for i in range(5)]
    assert M == oracles.cyclic_matrix(5)


def test_alpha_star_odometer_is_permutation():
    spec = space.odometer(2)
    for n in (1, 2, 3):
        P = space.generating_partition(spec, n)
        perm = kt.alpha_star(P)
        assert sorted(perm) == list(range(len(P)))
        # the all-pairs matrix is the matrix of perm
        images = [space.apply_h(c, 1) for c in P]
        M = oracles.induced_matrix(P, images, space.is_subset)
        assert M == [
            [1 if i == perm[j] else 0 for j in range(len(P))]
            for i in range(len(P))
        ]
        # single cycle through all 2^n cells
        A = oracles.mat_sub(
            oracles.identity_matrix(len(P)), oracles.int_matrix(M)
        )
        assert oracles.rank_over_Q(A.to_lists()) == len(P) - 1


def test_alpha_star_needs_refinement_branch():
    spec = space.compactified_shift()
    P = (
        space.shift_set(spec, [0]),
        space.complement(space.shift_set(spec, [0])),
    )
    with pytest.raises(NeedsRefinement):
        kt.alpha_star(P)
    # {0} lies in neither image, so the all-pairs matrix is not square
    images = [space.apply_h(c, 1) for c in P]
    assert oracles.induced_matrix(P, images, space.is_subset) is None


_CYCLE4 = space.finite_cycle(4)
_QUOTIENT = space.quotient_product(space.finite_cycle(3))


@pytest.mark.parametrize(
    "P",
    [
        tuple(
            space.finite_cycle_set(_CYCLE4, g)
            for g in ([0, 1], [1, 2], [2, 3], [3, 0])
        ),
        (space.whole_space(_CYCLE4), space.empty_set(_CYCLE4)),
        (space.quotient_set(_QUOTIENT, {0: space.whole_space(_QUOTIENT.fiber)}),),
    ],
    ids=["overlapping", "empty-cell", "missed-points"],
)
def test_alpha_star_rejects_non_partitions(P):
    # h permutes the sets of each case, so only the partition check
    # stands between them and a permutation
    assert {space.apply_h(c, 1) for c in P} == set(P)
    with pytest.raises(ValueError):
        kt.alpha_star(P)


MAX_ORACLE_CELLS = 128


def test_cycle_count_matches_oracle_on_generating_levels():
    compared, skipped, verdicts = 0, 0, set()
    for spec in genutil.all_specs():
        for n in range(1, 7):
            P = space.generating_partition(spec, n)
            if len(P) > MAX_ORACLE_CELLS:
                skipped += 1
                continue
            got = cycle_level(P)
            assert got == oracle_level(P), (spec.family, n)
            compared += 1
            verdicts.add(got is not None)
    # the quotient of the odometer has 129, 321 and 769 cells at depths 4-6
    assert (compared, skipped) == (27, 3)
    assert verdicts == {True, False}


def test_cycle_count_matches_oracle_on_random_cycle_partitions():
    rng = random.Random(1017)
    verdicts = []
    for _ in range(200):
        M = rng.randint(1, 12)
        spec = space.finite_cycle(M)
        if rng.random() < 0.5:
            # the residues mod a divisor of M: h permutes them
            d = rng.choice([d for d in range(1, M + 1) if M % d == 0])
            groups = [list(range(r, M, d)) for r in range(d)]
        else:
            k = rng.randint(1, M)
            labels = [rng.randrange(k) for _ in range(M)]
            groups = [[x for x in range(M) if labels[x] == g] for g in range(k)]
            groups = [g for g in groups if g]
        rng.shuffle(groups)
        P = tuple(space.finite_cycle_set(spec, g) for g in groups)
        got = cycle_level(P)
        assert got == oracle_level(P), groups
        verdicts.append(got is not None)
    assert 0 < sum(verdicts) < len(verdicts)


def test_permutation_kernel_rank_is_cycle_count():
    rng = random.Random(1009)
    for _ in range(40):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        M = [[1 if i == perm[j] else 0 for j in range(n)] for i in range(n)]
        A = [[(1 if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)]
        seen = set()
        cycles = 0
        for s in range(n):
            if s in seen:
                continue
            cycles += 1
            x = s
            while x not in seen:
                seen.add(x)
                x = perm[x]
        diag = snf_diag(oracles.int_matrix(A))
        assert sum(1 for d in diag if d == 0) == cycles
        assert oracles.rank_over_Q(A) == n - cycles


@pytest.mark.parametrize("M", range(1, 13))
def test_pv_level_cycle(M):
    spec = space.finite_cycle(M)
    P = tuple(space.finite_cycle_set(spec, [i]) for i in range(M))
    data = kt.level_report(P, 1)
    assert data["k1"] == {"rank": 1}
    assert data["k0"] == {"rank": 1, "torsion": []}
    if M <= 6:
        expected = oracles.invariant_factors(oracles.id_minus_cyclic(M))
        assert all(d == 1 for d in expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_pv_level_odometer(n):
    spec = space.odometer(2)
    P = space.generating_partition(spec, n)
    assert kt.level_report(P, n) == {
        "level": n,
        "k1": {"rank": 1},
        "k0": {"rank": 1, "torsion": []},
    }


def test_pv_level_needs_refinement():
    spec = space.compactified_shift()
    P = (
        space.shift_set(spec, [0]),
        space.complement(space.shift_set(spec, [0])),
    )
    with pytest.raises(NeedsRefinement):
        kt.level_report(P, 1)
