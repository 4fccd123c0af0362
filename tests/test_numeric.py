"""Matrix representations, norms, roots, and the interpolation check."""

import cmath
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import genutil
import oracles
from zdsys import cpalgebra as cp
from zdsys import numeric, space, towers
from zdsys.errors import (
    DegenerateEigenbasis,
    NoConvergence,
    NotCompactlySupported,
    PartitionFailure,
)

SHIFT = space.compactified_shift()
TWO_POINT = space.two_point_shift()
CYCLE = space.finite_cycle(3)
QSHIFT = space.quotient_product(SHIFT)
QCYCLE = space.quotient_product(CYCLE)


def sparse(A):
    return oracles.sparse(A, numeric.SparseMatrix)


def test_represent_examples():
    a = cp.multiply(cp.char(space.shift_set(SHIFT, [0])), cp.shift_unitary(SHIFT))
    rep = numeric.represent(a)
    # the window is the two points the only entry sits on: it sends -1
    # to 0
    assert rep.points == (-1, 0)
    M = oracles.dense(rep.matrix)
    assert M[1, 0] == 1
    assert np.count_nonzero(M) == 1

    zero = numeric.represent(oracles.zero(SHIFT))
    assert oracles.dense(zero.matrix).size == 0

    b = cp.char(space.shift_set(SHIFT, [2, 5]))
    rep = numeric.represent(b)
    assert rep.points == (2, 5)
    assert np.allclose(oracles.dense(rep.matrix), np.eye(2))


def test_represent_rejects_infinite_supports():
    with pytest.raises(NotCompactlySupported):
        numeric.represent(oracles.one(SHIFT))
    odo = space.odometer(2)
    with pytest.raises(NotCompactlySupported):
        numeric.represent(cp.char(genutil.cylinder(odo, (0,))))
    # explicit points need finite pieces as well, even where the
    # window's entries would be defined
    cofinite = [
        (space.shift_set(SHIFT, [1], cofinite=True), [0, 1, 2]),
        (space.two_point_set(TWO_POINT, [], tail_plus=True), [0, 1]),
        (space.quotient_set(QSHIFT, {}, tail=True), [(0, 0), (0, 1)]),
    ]
    for E, points in cofinite:
        a = cp.multiply(cp.char(E), cp.shift_unitary(E.spec))
        with pytest.raises(NotCompactlySupported):
            numeric.represent(a, points=points)


def random_compact_element(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(-2, 2)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        F = [k for k in range(-3, 4) if rng.random() < 0.4]
        terms.setdefault(n, []).append((c, space.shift_set(SHIFT, F)))
    return cp.cp_element(SHIFT, terms)


def test_represent_is_multiplicative():
    rng = random.Random(41)
    window = list(range(-8, 9))
    for _ in range(40):
        a = random_compact_element(rng)
        b = random_compact_element(rng)
        Ma = oracles.dense(numeric.represent(a, points=window).matrix)
        Mb = oracles.dense(numeric.represent(b, points=window).matrix)
        Mab = numeric.represent(cp.multiply(a, b), points=window).matrix
        assert np.allclose(Ma @ Mb, oracles.dense(Mab), atol=1e-12)
        Ms = numeric.represent(cp.adjoint(a), points=window).matrix
        Ms = oracles.dense(Ms)
        assert np.allclose(Ma.conj().T, Ms, atol=1e-12)


def test_operator_norm_examples():
    assert abs(numeric.operator_norm(sparse([[0, 1], [1, 0]])) - 1) < 1e-10
    assert (
        abs(numeric.operator_norm(sparse(np.diag([3, -4j]))) - 4) < 1e-10
    )
    golden = (1 + math.sqrt(5)) / 2
    assert (
        abs(numeric.operator_norm(sparse([[1, 1], [0, 1]])) - golden)
        < 1e-10
    )
    assert numeric.operator_norm(sparse(np.zeros((3, 3)))) == 0.0


def test_operator_norm_matches_2x2_oracle():
    rng = random.Random(43)
    for _ in range(200):
        a, b, c, d = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        M = sparse([[a, b], [c, d]])
        expected = oracles.singular_values_2x2(a, b, c, d)[0]
        assert abs(numeric.operator_norm(M) - expected) < 1e-9


def _widest_short_side(M):
    """The most lines on the shorter side of a block of the dense M, 0
    for M = 0: a block is the rows and columns that chains of nonzero
    entries link, grown here from one row at a time."""
    B = M != 0
    left = B.any(axis=1)
    widest = 0
    while left.any():
        rows = np.zeros_like(left)
        rows[np.argmax(left)] = True
        while True:
            cols = B[rows].any(axis=0)
            grown = B[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        left &= ~rows
        widest = max(widest, min(rows.sum(), cols.sum()))
    return widest


def _assert_norm_matches_lapack(M, expected=None):
    """operator_norm of the dense M is LAPACK's norm, or the given one,
    when every block has at most two lines on one side, and raises
    ValueError otherwise.  Returns whether the norm was taken."""
    if _widest_short_side(M) > 2:
        with pytest.raises(ValueError):
            numeric.operator_norm(sparse(M))
        return False
    if expected is None:
        expected = np.linalg.norm(M, 2) if M.size else 0.0
    assert abs(numeric.operator_norm(sparse(M)) - expected) <= 1e-12 * expected
    return True


def test_operator_norm_matches_singular_values():
    rng = np.random.default_rng(47)
    taken = []
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        r = int(rng.integers(0, min(m, n) + 1))
        if r < min(m, n):
            # rank r: a product through an r-dimensional space
            M = M[:, :r] @ (rng.standard_normal((r, n)) + 0j)
        taken.append(_assert_norm_matches_lapack(M))
    for n in (1, 3, 6):
        # a scaled unitary and a scaled isometry: every singular value
        # is the top one
        Q, _ = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        taken.append(_assert_norm_matches_lapack(2.5 * Q, 2.5))
        isometry = Q[:, : max(1, n - 1)]
        taken.append(_assert_norm_matches_lapack(3 * isometry, 3.0))
        D = np.diag([2.0, -2.0, 2j, 1.0][:n] + [0.5] * max(0, n - 4))
        taken.append(_assert_norm_matches_lapack(D, 2.0))
    assert taken.count(True) >= 20 and taken.count(False) >= 20


def test_operator_norm_empty_and_zero():
    assert numeric.operator_norm(sparse(np.zeros((0, 0)))) == 0.0
    assert numeric.operator_norm(sparse(np.zeros((0, 3)))) == 0.0
    assert numeric.operator_norm(sparse(np.zeros((4, 2)))) == 0.0
    # signed zeros are zero rows and columns too
    zeros = {(i, j): complex(-0.0, -0.0) for i in range(3) for j in range(5)}
    signed = numeric.SparseMatrix((3, 5), zeros)
    assert numeric.operator_norm(signed) == 0.0
    rep = numeric.represent(oracles.zero(SHIFT))
    assert numeric.operator_norm(rep) == 0.0


def test_operator_norm_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(NoConvergence):
            numeric.operator_norm(sparse(M))
        with pytest.raises(NoConvergence):
            numeric.operator_norm(sparse([[complex(1, bad)]]))
        # alone in its row and column, among zero rows and columns
        M = np.zeros((4, 5), dtype=complex)
        M[2, 3] = bad
        with pytest.raises(NoConvergence):
            numeric.operator_norm(sparse(M))


def _pad_with_zeros(M, rng, rows, cols):
    """M with zero rows and columns inserted at random places."""
    P = np.zeros((M.shape[0] + rows, M.shape[1] + cols), dtype=complex)
    r = np.sort(rng.choice(P.shape[0], size=M.shape[0], replace=False))
    c = np.sort(rng.choice(P.shape[1], size=M.shape[1], replace=False))
    P[np.ix_(r, c)] = M
    return P


def test_operator_norm_ignores_zero_rows_and_columns():
    rng = np.random.default_rng(48)
    taken = []
    for _ in range(300):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        # sparse entries leave some rows and columns of M zero as well
        M *= rng.random((m, n)) < rng.choice([0.3, 1.0])
        P = _pad_with_zeros(M, rng, *(int(k) for k in rng.integers(0, 12, 2)))
        taken.append(_assert_norm_matches_lapack(P))
    # represent windows: the points the entries sit on
    rng = random.Random(49)
    for _ in range(60):
        M = numeric.represent(random_compact_element(rng)).matrix
        taken.append(_assert_norm_matches_lapack(oracles.dense(M)))
    assert taken.count(True) >= 100 and taken.count(False) >= 50


def _random_block_matrix(rng, shapes, scale):
    """A random complex matrix that is, up to a permutation of its rows
    and of its columns, the direct sum of dense blocks of the given
    shapes and of a few zero rows and columns."""
    m = sum(r for r, _ in shapes) + int(rng.integers(0, 3))
    n = sum(c for _, c in shapes) + int(rng.integers(0, 3))
    M = np.zeros((m, n), dtype=complex)
    rows, cols = rng.permutation(m), rng.permutation(n)
    i = j = 0
    for r, c in shapes:
        B = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        M[np.ix_(rows[i:i + r], cols[j:j + c])] = scale * B
        i, j = i + r, j + c
    return M


def _block_shape(rng, kind):
    k = int(rng.integers(1, 6))
    if kind == "line":
        return (1, k) if rng.random() < 0.5 else (k, 1)
    if kind == "two":
        return (2, k + 1) if rng.random() < 0.5 else (k + 1, 2)
    return tuple(int(x) for x in rng.integers(3, 6, size=2))


@pytest.mark.parametrize("kinds", [("line",), ("two",), ("large",),
                                   ("line", "two", "large")])
def test_operator_norm_of_blocks_matches_lapack(kinds):
    # blocks with one row or column and with two take LAPACK's norm, and
    # a matrix with a block of at least three rows and three columns
    # raises; scaled far from 1 as well, where squared entries would
    # overflow or underflow
    rng = np.random.default_rng(81)
    for _ in range(150):
        shapes = [_block_shape(rng, rng.choice(kinds))
                  for _ in range(int(rng.integers(1, 5)))]
        scale = rng.choice([1.0, 1e-200, 1e200])
        M = _random_block_matrix(rng, shapes, scale)
        wide = any(min(shape) > 2 for shape in shapes)
        assert _assert_norm_matches_lapack(M) is not wide


def test_operator_norm_two_line_block_with_equal_singular_values():
    # a scaled unitary and a scaled 2 x 3 co-isometry: sigma1 = sigma2,
    # where the discriminant form of the Gram eigenvalue cancels
    rng = np.random.default_rng(82)
    for _ in range(50):
        Q = _random_unitary(rng, 2)
        assert abs(numeric.operator_norm(sparse(2.5 * Q)) - 2.5) <= 1e-12 * 2.5
        U = _random_unitary(rng, 3)[:2]
        assert abs(numeric.operator_norm(sparse(3 * U)) - 3) <= 1e-12 * 3
        assert abs(numeric.operator_norm(sparse(3 * U.T)) - 3) <= 1e-12 * 3


def _direct_sum(A, B):
    M = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]), complex)
    M[:A.shape[0], :A.shape[1]] = A
    M[A.shape[0]:, A.shape[1]:] = B
    return M


def test_operator_norm_raises_on_three_by_three_block():
    # a dense 3 x 3 block, alone and beside a block of two rows that
    # takes the closed form; dropping one of its rows gives two lines
    rng = np.random.default_rng(86)
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    two = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    for M in (B, _direct_sum(B, two), _direct_sum(two, 1e200 * B)):
        with pytest.raises(ValueError, match="more than two rows"):
            numeric.operator_norm(sparse(M))
    for M in (B[:2], B[:, 1:], _direct_sum(B[1:], two)):
        assert _assert_norm_matches_lapack(M)


# Norms and permutation roots in a fresh process with `import numpy`
# made to fail: the package needs no numpy for either, on blocks of one
# or two lines, where a wider block raises ValueError, and permutations
# with cycles of one or two points, where a longer cycle raises
# ValueError in _cycles.
_NORMS_AND_ROOTS_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
from zdsys import numeric
norms, perms = json.loads(sys.argv[1])
out = [[], []]
for shape, entries in norms:
    M = numeric.SparseMatrix(
        tuple(shape), {(i, j): complex(a, b) for i, j, a, b in entries}
    )
    try:
        out[0].append(numeric.operator_norm(M))
    except ValueError:
        out[0].append(None)
for n, entries, N in perms:
    V = numeric.SparseMatrix((n, n), {(i, j): 1 + 0j for i, j in entries})
    try:
        W = numeric._root_power(numeric._cycles(V), N, 1)
    except ValueError:
        out[1].append(None)
        continue
    out[1].append([[i, j, c.real, c.imag] for (i, j), c in W.items()])
print(json.dumps(out))
"""


def test_norms_and_permutation_roots_run_with_numpy_blocked():
    rng = np.random.default_rng(83)
    dense = [
        _random_block_matrix(
            rng, [_block_shape(rng, rng.choice(["line", "two", "large"]))
                  for _ in range(2)], rng.choice([1.0, 1e-200, 1e200]))
        for _ in range(20)
    ]
    dense.append(np.arange(1, 10).reshape(3, 3) + 0j)
    norms = [
        [M.shape, [[i, j, M[i, j].real, M[i, j].imag]
                   for i, j in zip(*np.nonzero(M))]]
        for M in dense
    ]
    perms = []
    for N in (1, 2, 5):
        lengths = rng.integers(1, 3, size=6).tolist()
        V = _random_permutation_matrix(rng, lengths)
        perms.append([V.shape[0], sorted(V.entries), N])
    V = _random_permutation_matrix(rng, [2, 3, 1])
    perms.append([V.shape[0], sorted(V.entries), 4])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", _NORMS_AND_ROOTS_BLOCKED,
         json.dumps([norms, perms], default=int)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got_norms, got_roots = json.loads(proc.stdout)
    for M, got in zip(dense, got_norms):
        if _widest_short_side(M) > 2:
            assert got is None
        else:
            expected = np.linalg.norm(M, 2)
            assert abs(got - expected) <= 1e-12 * expected
    assert got_norms[-1] is None
    assert sum(got is not None for got in got_norms) >= 5
    assert got_roots[-1] is None
    for (n, entries, N), root in zip(perms[:-1], got_roots):
        V = np.zeros((n, n))
        V[tuple(zip(*entries))] = 1
        W = np.zeros((n, n), dtype=complex)
        for i, j, a, b in root:
            W[i, j] = complex(a, b)
        assert np.max(np.abs(W - oracles.eigenbasis_root(V, N))) < 1e-12


def _root(V, N):
    """The N-th root of the permutation V as a SparseMatrix, read off
    the closed form of numeric._root_power."""
    cycles = numeric._cycles(V)
    return numeric.SparseMatrix(V.shape, numeric._root_power(cycles, N, 1))


def _longest_cycle(V):
    """The length of the longest cycle of the 0/1 permutation ndarray V,
    followed column by column."""
    image = np.argmax(np.abs(V), axis=0).tolist()
    longest, seen = 0, set()
    for s in range(len(image)):
        length = 0
        while s not in seen:
            seen.add(s)
            s, length = image[s], length + 1
        longest = max(longest, length)
    return longest


def test_unitary_root_swap_matches_oracle():
    V = sparse([[0, 1], [1, 0]])
    for N in (2, 3, 5, 8):
        W = _root(V, N)
        expected = np.array(oracles.swap_root(N))
        assert np.max(np.abs(oracles.dense(W) - expected)) < 1e-12
        W_N = np.linalg.matrix_power(oracles.dense(W), N)
        assert np.linalg.norm(W_N - oracles.dense(V), 2) < 1e-10
        assert (
            numeric.operator_norm(sparse(oracles.dense(W) - np.eye(2)))
            <= math.pi / N + 1e-9
        )


def test_unitary_root_identity_and_phase():
    W = _root(sparse(np.eye(3)), 7)
    assert np.allclose(oracles.dense(W), np.eye(3))
    # the corner over an empty Y
    for N in (1, 7):
        W = _root(numeric.SparseMatrix((0, 0), {}), N)
        assert W.shape == (0, 0) and W.entries == {}
    # -1 goes through the upper branch: angle pi, root e^{i pi / 3}; the
    # swap has the eigenvalues 1 and -1
    W = oracles.eigenbasis_root(np.array([[-1.0 + 0j]]), 3)
    assert abs(W[0, 0] - cmath.exp(1j * math.pi / 3)) < 1e-10
    W = _root(sparse([[0, 1], [1, 0]]), 3)
    eigenvalues = np.sort_complex(np.linalg.eigvals(oracles.dense(W)))
    expected = np.sort_complex(np.array([1, cmath.exp(1j * math.pi / 3)]))
    assert np.max(np.abs(eigenvalues - expected)) < 1e-12


def test_unitary_root_takes_pi_at_minus_one():
    # -1 as an eigenvalue of multiplicity two, and as the eigenvalue of
    # each of two transpositions, is e^{i pi}: its root is e^{i pi/N},
    # never e^{-i pi/N}; a 4-cycle raises
    W = oracles.eigenbasis_root(-np.eye(2, dtype=complex), 3)
    expected = cmath.exp(1j * math.pi / 3) * np.eye(2)
    assert np.max(np.abs(W - expected)) < 1e-12
    V = sparse(np.eye(6, dtype=complex)[[3, 2, 1, 0, 4, 5]])
    W = oracles.dense(_root(V, 4))
    eigenvalues = np.linalg.eigvals(W)
    assert np.angle(eigenvalues).min() > -math.pi / 4 + 1e-9
    at_pi = np.abs(eigenvalues - cmath.exp(1j * math.pi / 4)) < 1e-12
    assert at_pi.sum() == 2
    with pytest.raises(ValueError, match="three or more"):
        numeric._cycles(sparse(np.eye(6, dtype=complex)[[3, 2, 4, 1, 5, 0]]))
    # every eigenvalue of the root of a permutation in transpositions and
    # fixed points, and of the oracle's root of a signed permutation,
    # lies on the arc (-pi/N, pi/N]
    rng = np.random.default_rng(78)
    for _ in range(200):
        N = int(rng.integers(1, 65))
        V = _random_permutation_matrix(
            rng, rng.integers(1, 3, size=int(rng.integers(1, 6))).tolist()
        )
        n = V.shape[0]
        W = oracles.dense(_root(V, N))
        assert np.angle(np.linalg.eigvals(W)).min() > -math.pi / N + 1e-9
        V = np.eye(n)[rng.permutation(n)]
        W = oracles.eigenbasis_root(V * rng.choice([-1, 1], size=n), N)
        assert np.angle(np.linalg.eigvals(W)).min() > -math.pi / N + 1e-9


def _schur_root(V, N, tol=1e-10):
    """The root through a complex Schur form V = Q T Q*, with the branch
    rule of numeric._root_power: angle(T_jj) in (-pi, pi], and pi within
    tol of -pi."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    T, Q = scipy_linalg.schur(V, output="complex")
    theta = np.angle(np.diag(T))
    theta[theta <= -math.pi + tol] = math.pi
    return (Q * np.exp(1j * theta / N)) @ Q.conj().T


def _random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _root_cases(rng):
    """Unitaries with simple, repeated and -1 eigenvalues."""
    yield np.array([[1.0 + 0j]])
    yield np.array([[-1.0 + 0j]])
    yield -np.eye(3, dtype=complex)
    for _ in range(150):
        n = int(rng.integers(1, 10))
        perm = np.eye(n)[rng.permutation(n)]
        yield _random_unitary(rng, n)
        yield perm + 0j
        # transpositions and fixed points only
        lengths = rng.integers(1, 3, size=int(rng.integers(1, 6))).tolist()
        yield oracles.dense(_random_permutation_matrix(rng, lengths))
        yield perm * rng.choice([-1, 1], size=n) + 0j
        # a few eigenvalues, -1 among them, repeated in a random basis
        U = _random_unitary(rng, n)
        phases = rng.choice([1, -1, 1j, cmath.exp(2j * math.pi / 3)], size=n)
        yield (U * phases) @ U.conj().T


def test_unitary_root_matches_schur_oracle():
    # the eigenbasis oracle on every case, and the closed-form root on
    # the permutations among them whose cycles have at most two points;
    # the other permutations raise
    rng = np.random.default_rng(79)
    permutations = longer = 0
    for V in _root_cases(rng):
        N = int(rng.integers(1, 65))
        expected = _schur_root(V, N)
        assert np.max(np.abs(oracles.eigenbasis_root(V, N) - expected)) < 1e-12
        if not np.isin(V, (0, 1)).all():
            continue
        if _longest_cycle(V) > 2:
            with pytest.raises(ValueError, match="three or more"):
                numeric._cycles(sparse(V))
            longer += 1
        else:
            W = oracles.dense(_root(sparse(V), N))
            assert np.max(np.abs(W - expected)) < 1e-12
            permutations += 1
    assert permutations >= 150 and longer >= 50


def test_unitary_root_rejects_non_unitary():
    for V in (sparse([[2.0, 0], [0, 1.0]]), numeric.SparseMatrix((2, 3), {})):
        with pytest.raises(ValueError, match="V must be a permutation"):
            numeric._cycles(V)


def _random_permutation_matrix(rng, lengths):
    """A SparseMatrix permuting its basis in cycles of the given
    lengths, on shuffled points."""
    n = sum(lengths)
    points = rng.permutation(n).tolist()
    entries = {}
    for L in lengths:
        cycle, points = points[:L], points[L:]
        for t in range(L):
            entries[cycle[(t + 1) % L], cycle[t]] = 1 + 0j
    return numeric.SparseMatrix((n, n), entries)


def test_permutation_root_matches_eigenbasis_root():
    # fixed points and transpositions, where the eigenvalue -1 must take
    # theta = pi; every power W^m, m <= N, of the closed form matches
    # numpy's, and W^N is V up to the rounding of e^{i pi}; a cycle of 3
    # to 7 points raises
    rng = np.random.default_rng(84)
    for L in range(1, 8):
        for N in range(1, 10):
            extra = rng.integers(1, 3, size=int(rng.integers(0, 4)))
            V = _random_permutation_matrix(rng, [L] + extra.tolist())
            if L > 2:
                with pytest.raises(ValueError, match="three or more"):
                    numeric._cycles(V)
                continue
            W = _root(V, N)
            expected = oracles.eigenbasis_root(oracles.dense(V), N)
            assert np.max(np.abs(oracles.dense(W) - expected)) < 1e-12
            cycles = numeric._cycles(V)
            for m in range(1, N + 1):
                power = numeric.SparseMatrix(
                    V.shape, numeric._root_power(cycles, N, m)
                )
                expected = np.linalg.matrix_power(oracles.dense(W), m)
                assert np.max(np.abs(oracles.dense(power) - expected)) < 1e-12
            gap = oracles.dense(power) - oracles.dense(V)
            assert np.max(np.abs(gap)) < 1e-15


def test_unitary_root_rejects_other_unitaries():
    # only permutations are taken; a unitary that is not one raises
    # ValueError
    rng = np.random.default_rng(85)
    P = np.eye(4)[[1, 0, 3, 2]]
    assert numeric._cycles(sparse(P)) == [[0, 1], [2, 3]]
    cases = [
        P * np.array([1, 1, -1, 1]),  # a signed permutation
        P * np.array([1, 1j, 1, 1]),  # a phase on one entry
        _random_unitary(rng, 3),
        np.array([[0.6, -0.8], [0.8, 0.6]]),
    ]
    for V in cases:
        with pytest.raises(ValueError, match="V must be a permutation"):
            numeric._cycles(sparse(V))


def test_unitary_root_rejects_near_permutations():
    P = np.eye(4, dtype=complex)[[1, 0, 3, 2]]
    assert numeric._cycles(sparse(P)) == [[0, 1], [2, 3]]
    bad = []
    for value in (2, 0.5, 1 + 1e-6):  # an entry of 2, and scaled ones
        V = P.copy()
        V[1, 0] = value
        bad.append(V)
    V = P.copy()
    V[:, 2] = 0  # a missing column
    bad.append(V)
    for V in bad:
        with pytest.raises(ValueError, match="V must be a permutation"):
            numeric._cycles(sparse(V))


def test_unitary_root_random_unitaries():
    # the eigenbasis oracle, with its bounds measured by LAPACK
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        N = int(rng.integers(1, 12))
        # product of Householder reflections and a diagonal phase
        V = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, n)))
        for _ in range(2):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = v / np.linalg.norm(v)
            V = (np.eye(n) - 2 * np.outer(v, v.conj())) @ V
        W = oracles.eigenbasis_root(V, N)
        assert np.linalg.norm(np.linalg.matrix_power(W, N) - V, 2) < 1e-10
        assert np.linalg.norm(W - np.eye(n), 2) <= math.pi / N + 1e-9


def test_cutdown_check_block_diagonal():
    E = space.shift_set(SHIFT, [0])
    F = space.shift_set(SHIFT, [1])
    G = space.shift_set(SHIFT, [2])
    rest_rows = space.complement(space.union(E, G))
    rest_cols = space.complement(space.union(E, F))
    a = cp.add(
        cp.scale(cp.char(E), 2.0),
        cp.multiply(
            cp.char(G), cp.multiply(cp.shift_unitary(SHIFT), cp.char(F))
        ),
    )
    with pytest.raises(PartitionFailure):
        numeric.cutdown_check(a, [(E, E), (G, F), (rest_rows, F)])
    out = numeric.cutdown_check(
        a, [(E, E), (G, F), (rest_rows, rest_cols)]
    )
    assert out["block_diagonal"]
    assert abs(out["block_norms"][0] - 2.0) < 1e-9
    assert abs(out["block_norms"][1] - 1.0) < 1e-9
    assert out["block_norms"][2] == 0.0
    assert abs(out["total_norm"] - 2.0) < 1e-9
    assert out["bound_holds"]


def test_cutdown_check_detects_coupling():
    E = space.shift_set(SHIFT, [0])
    notE = space.complement(E)
    a = cp.multiply(cp.char(space.shift_set(SHIFT, [1])), cp.shift_unitary(SHIFT))
    out = numeric.cutdown_check(a, [(E, E), (notE, notE)])
    assert not out["block_diagonal"]
    assert out["offending_pair"] == (1, 0)
    assert not out["bound_holds"]




def shift_partition(a, b):
    U = space.shift_set(SHIFT, range(a + 1, b), cofinite=True)
    return [U] + [space.shift_set(SHIFT, [i]) for i in range(a + 1, b)]


def cutdown_check_oracle(a, blocks, tol=1e-9, coeff_tol=1e-12):
    """cutdown_check by brute force: every cutdown chi_p a chi_q is
    formed as a symbolic product."""
    for side in (0, 1):
        cells = [b[side] for b in blocks if not space.is_empty(b[side])]
        if not space.is_partition(cells):
            raise PartitionFailure("block projections do not sum to one")

    def cut(p, q):
        return cp.multiply(cp.multiply(cp.char(p), a), cp.char(q))

    for i, (p, _) in enumerate(blocks):
        for j, (_, q) in enumerate(blocks):
            if i != j and oracles.max_coefficient(cut(p, q)) > coeff_tol:
                return {
                    "block_diagonal": False,
                    "offending_pair": (i, j),
                    "block_norms": [],
                    "total_norm": None,
                    "bound_holds": False,
                }
    block_norms = [
        numeric.operator_norm(numeric.represent(cut(p, q)))
        for p, q in blocks
    ]
    total = numeric.operator_norm(numeric.represent(a))
    return {
        "block_diagonal": True,
        "offending_pair": None,
        "block_norms": block_norms,
        "total_norm": total,
        "bound_holds": total <= max(block_norms, default=0.0) + tol,
    }


def random_finite_set(spec, rng):
    """A finite point set: integers in [-3, 3], points of a cycle, or
    such sets over the indices -1, 0 and 1 of a quotient product."""
    if spec.family == space.QUOTIENT_PRODUCT:
        return space.quotient_set(
            spec, {k: random_finite_set(spec.fiber, rng) for k in (-1, 0, 1)}
        )
    if spec.family == space.FINITE_CYCLE:
        return space.finite_cycle_set(
            spec, [x for x in range(spec.period) if rng.random() < 0.5]
        )
    points = [x for x in range(-3, 4) if rng.random() < 0.4]
    if spec.family == space.TWO_POINT_SHIFT:
        return space.two_point_set(spec, points)
    return space.shift_set(spec, points)


def random_element(spec, rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if rng.random() < 0.2:
            c *= 1e-13  # below coeff_tol: never makes a pair offend
        terms.setdefault(rng.randint(-2, 2), []).append(
            (c, random_finite_set(spec, rng))
        )
    return cp.cp_element(spec, terms)


FINITE_SPECS = [SHIFT, TWO_POINT, CYCLE, QSHIFT, QCYCLE]
FINITE_IDS = ["shift", "two-point", "cycle", "quotient", "quotient-cycle"]


def _oracle_matrix(a, points=None):
    points, rows = oracles.represent_by_moves(
        a.spec, a.terms, space, points, key=numeric._point_key
    )
    n = len(points)
    return points, np.array(rows, dtype=complex).reshape(n, n)


def _norm_or_raises(M):
    """operator_norm of M, or ValueError when a block is too wide."""
    try:
        return numeric.operator_norm(M)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("spec", FINITE_SPECS, ids=FINITE_IDS)
def test_represent_matches_move_oracle(spec):
    rng = random.Random(61)
    norms = []
    for _ in range(40):
        a = random_element(spec, rng)
        rep = numeric.represent(a)
        # the window is the points the entries sit on, x and h^-n(x)
        ends = {
            p
            for n, sf in a.terms
            for _, E in sf
            for x in space.enumerate_points(E)
            for p in (x, space.point_apply_h(spec, x, -n))
        }
        assert rep.points == tuple(sorted(ends, key=numeric._point_key))
        # inside the oracle's wider window, the oracle's matrix is this
        # one on these points and zero elsewhere, with the same norm, or
        # a block too wide for one on both
        points, M = _oracle_matrix(a)
        assert set(rep.points) <= set(points)
        keep = [points.index(p) for p in rep.points]
        assert np.array_equal(M[np.ix_(keep, keep)], oracles.dense(rep.matrix))
        M[np.ix_(keep, keep)] = 0
        assert not M.any()
        norms.append(_norm_or_raises(rep))
        assert norms[-1] == _norm_or_raises(numeric.represent(a, points=points))
        # explicit points: part of the window and points outside it, in
        # any order
        extra = space.enumerate_points(random_finite_set(spec, rng))
        points = [p for p in rep.points if rng.random() < 0.7]
        points += [p for p in extra if p not in points]
        rng.shuffle(points)
        rep = numeric.represent(a, points=points)
        assert rep.points == tuple(points)
        assert np.array_equal(
            oracles.dense(rep.matrix), _oracle_matrix(a, points)[1]
        )
    assert ValueError in norms and any(type(x) is float for x in norms)
    # on a cycle of period 3 the three terms add up in one entry, and
    # 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1: the sum
    # must run over the terms in increasing n
    E = random_finite_set(spec, rng)
    a = cp.cp_element(spec, {-3: [(0.1, E)], 0: [(0.2, E)], 3: [(0.3, E)]})
    rep = numeric.represent(a)
    assert np.array_equal(
        oracles.dense(rep.matrix), _oracle_matrix(a, rep.points)[1]
    )


def random_blocks(spec, rng):
    """(p, q) pairs whose p and whose q both partition X; empty cells
    pad the shorter side."""
    P = genutil.random_partition(spec, rng, depth=2, max_parts=5)
    Q = genutil.random_partition(spec, rng, depth=2, max_parts=5)
    k = max(len(P), len(Q)) + rng.randint(0, 1)
    P += [space.empty_set(spec)] * (k - len(P))
    Q += [space.empty_set(spec)] * (k - len(Q))
    rng.shuffle(P)
    rng.shuffle(Q)
    return list(zip(P, Q))


def _assert_cutdown_matches_oracle(a, blocks):
    got = numeric.cutdown_check(a, blocks)
    want = cutdown_check_oracle(a, blocks)
    assert got["block_diagonal"] == want["block_diagonal"]
    assert got["offending_pair"] == want["offending_pair"]
    assert got["bound_holds"] == want["bound_holds"]
    # the slices of one matrix give the symbolic cutdowns' norms, float
    # for float
    assert got["block_norms"] == want["block_norms"]
    assert got["total_norm"] == want["total_norm"]
    return got["block_diagonal"]


@pytest.mark.parametrize(
    "spec",
    [SHIFT, QSHIFT, CYCLE, QCYCLE],
    ids=["shift", "quotient", "cycle", "quotient-cycle"],
)
def test_cutdown_check_matches_all_pairs_oracle(spec):
    rng = random.Random(53)
    verdicts = []
    for trial in range(40):
        blocks = random_blocks(spec, rng)
        b = random_element(spec, rng)
        if trial % 2:
            a = b
        else:
            # the sum of the diagonal cutdowns is block-diagonal
            a = oracles.zero(spec)
            for p, q in blocks:
                a = a + cp.char(p) * b * cp.char(q)
        verdicts.append(_assert_cutdown_matches_oracle(a, blocks))
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 5


@pytest.mark.parametrize("spec", [CYCLE, QCYCLE], ids=["cycle", "quotient-cycle"])
def test_cutdown_check_reads_pieces_where_terms_share_entries(spec):
    # c chi_E u^-1 - c chi_E u^2 on a cycle of period 3: both terms land
    # on the same entries, so its matrix is zero, yet each piece couples
    # the blocks it crosses, and the symbolic cutdowns see that
    rng = random.Random(54)
    hidden = 0
    for _ in range(20):
        blocks = random_blocks(spec, rng)
        c = complex(rng.uniform(0.5, 1), rng.uniform(-1, 1))
        E = random_finite_set(spec, rng)
        a = cp.cp_element(spec, {-1: [(c, E)], 2: [(-c, E)]})
        assert not oracles.dense(numeric.represent(a).matrix).any()
        if not _assert_cutdown_matches_oracle(a, blocks):
            hidden += 1
    assert hidden >= 5


def _point_singleton(spec, x):
    if spec.family == space.QUOTIENT_PRODUCT:
        k, fx = x
        return space.quotient_set(spec, {k: _point_singleton(spec.fiber, fx)})
    return space.shift_set(spec, [x])


def product_z(Y, y_points, V, N):
    """The interpolating unitary built as symbolic products:
    sum over j < N of chi_{h^j Y} u^j w_{N-j} u^{-j} chi_{h^j Y}, plus 1
    off those levels, where w_m is the element of the matrix W^m for the
    N-th root W of the permutation V.  W^m is read off
    numeric._root_power, as in _interpolating_unitary, so that both
    sides hold the same floats."""
    spec = Y.spec
    cycles = numeric._cycles(V)
    z = oracles.zero(spec)
    covered = space.empty_set(spec)
    for j in range(N):
        M = oracles.dense(numeric.SparseMatrix(
            V.shape, numeric._root_power(cycles, N, N - j)
        ))
        terms = {}
        for r, x in enumerate(y_points):
            for s, y in enumerate(y_points):
                if abs(M[r, s]) > 1e-15:
                    n = x - y if spec.family != space.QUOTIENT_PRODUCT else (
                        x[1] - y[1]
                    )
                    terms.setdefault(n, []).append(
                        (M[r, s], _point_singleton(spec, x))
                    )
        w_el = cp.cp_element(spec, terms)
        Ej = space.apply_h(Y, j)
        covered = space.union(covered, Ej)
        conj = (
            cp.shift_unitary(spec, j) * w_el * cp.shift_unitary(spec, -j)
        )
        z = z + cp.char(Ej) * conj * cp.char(Ej)
    return z + cp.char(space.complement(covered))


def _berg_corner(spec, P, N):
    """Y, its points and the corner V whose N-th root berg_verify
    interpolates."""
    S, S2 = towers.adapted_system_pair(spec, P, N)
    pe = cp.proof_unitaries(S, S2)
    Y = pe.Y
    y_points = sorted(numeric.enumerate_points(Y), key=numeric._point_key)
    v_el = cp.char(Y) * pe.v2 * cp.adjoint(pe.v1) * cp.char(Y)
    return Y, y_points, numeric.represent(v_el, points=y_points).matrix


@pytest.mark.parametrize(
    "spec, P",
    [
        (SHIFT, shift_partition(0, 8)),
        (SHIFT, space.generating_partition(SHIFT, 3)),
        (QSHIFT, space.generating_partition(QSHIFT, 1)),
    ],
    ids=["shift-window", "shift-depth3", "quotient-depth1"],
)
def test_interpolating_unitary_matches_products(spec, P):
    for N in range(1, 7):
        Y, y_points, V = _berg_corner(spec, P, N)
        assert y_points
        z = numeric._interpolating_unitary(
            Y, y_points, numeric._cycles(V), N
        )
        assert z == product_z(Y, y_points, V, N)


def test_interpolating_unitary_matches_products_for_random_involutions():
    # random transpositions and fixed points on spread-out points of the
    # shift; at k = N the diagonal of a transposition is below the 1e-15
    # drop, and every other entry is above it
    rng = np.random.default_rng(59)
    for N in range(1, 9):
        lengths = rng.integers(1, 3, size=int(rng.integers(1, 6))).tolist()
        V = _random_permutation_matrix(rng, lengths)
        spread = np.arange(-60, 60, 10)
        y_points = sorted(
            rng.choice(spread, V.shape[0], replace=False).tolist()
        )
        Y = space.shift_set(SHIFT, y_points)
        z = numeric._interpolating_unitary(
            Y, y_points, numeric._cycles(V), N
        )
        assert z == product_z(Y, y_points, V, N)


def test_berg_two_by_two_example():
    # with the window split at the middle, the corner map v acts on the
    # two base points exactly as the swap matrix
    P = shift_partition(0, 8)
    N = 4
    rep = numeric.berg_verify(SHIFT, P, N, math.pi / N + 0.01)
    assert rep.passed
    assert rep.z_unitary_ok and rep.z_commutes_ok and rep.blocks_ok
    assert rep.norm_u_prime_minus_u <= math.pi / N + 1e-9
    assert len(rep.block_norms) == N + 3
    # the swap has eigenvalues +1 and -1, so the root is pi/N away from 1
    expected = abs(cmath.exp(1j * math.pi / N) - 1)
    assert abs(rep.norm_w_minus_1 - expected) < 1e-9


def test_berg_precondition():
    with pytest.raises(ValueError):
        numeric.berg_verify(SHIFT, shift_partition(0, 8), 1, 0.1)


def test_berg_rejects_N_below_one():
    # N is checked before the precondition epsilon > pi/N divides by it
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be >= 1"):
            numeric.berg_verify(SHIFT, shift_partition(0, 8), N, 0.1)


def test_berg_trivial_when_towers_agree():
    # Y is empty, and the general path gives z = 1, W - 1 of norm 0 and
    # u' = u
    for spec in (space.finite_cycle(5), space.odometer(2), QCYCLE):
        for depth in (1, 2):
            P = list(space.generating_partition(spec, depth))
            for N in (1, 4):
                S, S2 = towers.adapted_system_pair(spec, P, N)
                assert space.is_empty(cp.proof_unitaries(S, S2).Y)
                rep = numeric.berg_verify(spec, P, N, math.pi / N + 0.01)
                assert rep.passed
                assert rep.norm_w_minus_1 == 0.0
                assert rep.norm_u_prime_minus_u <= 1e-12
                assert rep.block_norms == ()


@pytest.mark.parametrize("spec", genutil.system_specs())
def test_interpolating_unitary_over_empty_y_is_one(spec):
    Y = space.empty_set(spec)
    cycles = numeric._cycles(numeric.SparseMatrix((0, 0), {}))
    for N in (1, 4):
        z = numeric._interpolating_unitary(Y, [], cycles, N)
        assert z == oracles.one(spec)


def test_interpolating_unitary_rejects_coupled_fibers():
    # Y has one point in each of two quotient slices; the root of a V
    # that swaps them has no element, and a V that keeps them has z = 1
    swap = numeric._cycles(sparse([[0, 1], [1, 0]]))
    identity = numeric._cycles(sparse(np.eye(2)))
    Y = space.quotient_set(
        QSHIFT, {k: space.shift_set(SHIFT, [0]) for k in (0, 1)}
    )
    y_points = sorted(numeric.enumerate_points(Y), key=numeric._point_key)
    assert y_points == [(0, 0), (1, 0)]
    for N in (1, 3):
        with pytest.raises(DegenerateEigenbasis, match="different fibers"):
            numeric._interpolating_unitary(Y, y_points, swap, N)
        z = numeric._interpolating_unitary(Y, y_points, identity, N)
        assert z == oracles.one(QSHIFT)


LEMMA_SPECS = [
    space.odometer(2),
    space.finite_cycle(5),
    SHIFT,
    QSHIFT,
    space.quotient_product(space.finite_cycle(5)),
    space.quotient_product(space.odometer(2)),
]
LEMMA_IDS = ["odometer", "cycle5", "shift", "quotient-shift",
             "quotient-cycle5", "quotient-odometer"]


def _two_by_two_blocks_only(monkeypatch):
    """Make every block that operator_norm reads assert Lemma 2's bound
    of two rows and two columns, and every cycle of a corner V that
    _cycles reads assert its bound of two points.  Returns the list of
    the corners' (V, cycles)."""
    block_norm, cycles_of = numeric._block_norm, numeric._cycles
    seen = []

    def checked(block):
        assert len({i for (i, _), _ in block}) <= 2
        assert len({j for (_, j), _ in block}) <= 2
        return block_norm(block)

    def checked_cycles(V):
        cycles = cycles_of(V)
        assert all(len(cycle) <= 2 for cycle in cycles)
        seen.append((V, cycles))
        return cycles

    monkeypatch.setattr(numeric, "_block_norm", checked)
    monkeypatch.setattr(numeric, "_cycles", checked_cycles)
    return seen


def _capture_z(monkeypatch):
    """Record every z that berg_verify interpolates; returns the list."""
    interpolate, seen = numeric._interpolating_unitary, []

    def captured(*args):
        seen.append(interpolate(*args))
        return seen[-1]

    monkeypatch.setattr(numeric, "_interpolating_unitary", captured)
    return seen


def _assert_z_unitary(z):
    """The brute-force form of berg_verify's z_unitary_ok, which reads it
    off the closed form of _root_power: z z* - 1 and z* z - 1, formed as
    products, have no coefficient above 1e-14."""
    zs, one = cp.adjoint(z), oracles.one(z.spec)
    for p in (z * zs, zs * z):
        assert oracles.max_coefficient(p - one) <= 1e-14


def _assert_norm_w_matches_lapack(rep, corner, N):
    """berg's norm_w_minus_1 against LAPACK's norm of W - 1, with W made
    dense from numeric._root_power, within a relative 1e-12; exactly 0.0
    where the corner V has no transposition.  Returns whether it has
    one."""
    V, cycles = corner
    if all(len(cycle) == 1 for cycle in cycles):
        assert rep.norm_w_minus_1 == 0.0
        return False
    W = oracles.dense(
        numeric.SparseMatrix(V.shape, numeric._root_power(cycles, N, 1))
    )
    expected = np.linalg.norm(W - np.eye(V.shape[0]), 2)
    assert abs(rep.norm_w_minus_1 - expected) <= 1e-12 * expected
    return True


@pytest.mark.parametrize("spec", LEMMA_SPECS, ids=LEMMA_IDS)
def test_berg_norm_blocks_have_at_most_two_lines(spec, monkeypatch):
    # Lemma 2 of operator_norm over depths 1-3 and a range of N, and the
    # closed-form norm of W - 1 on each corner; at N 1, W = V and the
    # norm is 2 where V has a transposition; and z is unitary, as
    # z_unitary_ok reports
    seen = _two_by_two_blocks_only(monkeypatch)
    zs = _capture_z(monkeypatch)
    for depth in (1, 2, 3):
        P = space.generating_partition(spec, depth)
        for N in (1, 2, 3, 5, 8):
            runs = len(seen)
            rep = numeric.berg_verify(spec, P, N, math.pi / N + 0.01)
            assert rep.passed and rep.z_unitary_ok
            assert len(seen) == len(zs) == runs + 1
            _assert_z_unitary(zs[-1])
            if _assert_norm_w_matches_lapack(rep, seen[-1], N) and N == 1:
                assert abs(rep.norm_w_minus_1 - 2) <= 2e-12
    assert len(seen) == 15


def test_berg_norm_w_covers_transpositions_and_fixed_points(monkeypatch):
    # the runs of the test above at depth 1 see corners with a
    # transposition and corners without one, at N 1 and at N 2
    seen = _two_by_two_blocks_only(monkeypatch)
    kinds = set()
    for spec in LEMMA_SPECS:
        P = space.generating_partition(spec, 1)
        for N in (1, 2):
            numeric.berg_verify(spec, P, N, math.pi / N + 0.01)
            kinds.add((N, any(len(c) == 2 for c in seen[-1][1])))
    assert kinds == {(1, True), (1, False), (2, True), (2, False)}


def test_berg_norm_blocks_have_at_most_two_lines_at_large_n(monkeypatch):
    # the most two-line blocks of any job in CI, and a z with a piece
    # for each of its 256 levels
    seen = _two_by_two_blocks_only(monkeypatch)
    zs = _capture_z(monkeypatch)
    P = space.generating_partition(QSHIFT, 3)
    rep = numeric.berg_verify(QSHIFT, P, 256, math.pi / 256 + 0.01)
    assert rep.passed and len(seen) == len(zs) == 1
    assert any(len(cycle) == 2 for cycle in seen[0][1])
    assert _assert_norm_w_matches_lapack(rep, seen[0], 256)
    _assert_z_unitary(zs[0])


def test_berg_forms_seven_products(monkeypatch):
    # u2 in proof_unitaries, three for the corner and three for u'; z's
    # unitarity is read off the closed form of _root_power
    calls = []

    def counted(*args, f=cp.multiply):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(cp, "multiply", counted)
    for P, N in ((space.generating_partition(SHIFT, 3), 16),
                 (shift_partition(0, 8), 4)):
        calls.clear()
        assert numeric.berg_verify(SHIFT, P, N, math.pi / N + 0.01).passed
        assert len(calls) == 7


@pytest.mark.parametrize("N", [8, 1024])
def test_berg_difference_has_no_residue_below_y(N, monkeypatch):
    # d = u' - u is 0 on Y x h^-1(Y) in exact arithmetic; its float
    # residue there stays at the rounding of one entry of W^N, not the
    # rounding accumulated over N products, which passed 1e-12 near
    # N 16384 and made blocks_ok false
    cutdown_check, got = numeric.cutdown_check, []

    def capture(d, blocks):
        got.append(d)
        return cutdown_check(d, blocks)

    monkeypatch.setattr(numeric, "cutdown_check", capture)
    P = space.generating_partition(SHIFT, 3)
    rep = numeric.berg_verify(SHIFT, P, N, math.pi / N + 0.01)
    assert rep.passed and rep.blocks_ok
    (d,) = got
    S, S2 = towers.adapted_system_pair(SHIFT, P, N)
    Y = cp.proof_unitaries(S, S2).Y
    rows = set(numeric.enumerate_points(Y))
    cols = set(numeric.enumerate_points(space.apply_h(Y, -1)))
    assert rows and cols
    rep = numeric.represent(d)
    residue = max(
        (abs(c) for (i, j), c in rep.matrix.entries.items()
         if rep.points[i] in rows and rep.points[j] in cols),
        default=0.0,
    )
    assert residue <= 1e-15


@pytest.mark.parametrize("spec", LEMMA_SPECS, ids=LEMMA_IDS)
def test_berg_difference_lies_in_level_rectangles(spec):
    # the steps of Lemma 2: v1 v2* is 1 off Y, and every entry of
    # d = u' - u sits at [x, y] with x in h^(m+1)(Y) and y in h^m(Y)
    for depth in (1, 2):
        P = space.generating_partition(spec, depth)
        for N in (1, 3, 8):
            S, S2 = towers.adapted_system_pair(spec, P, N)
            pe = cp.proof_unitaries(S, S2)
            ys = set(numeric.enumerate_points(pe.Y))
            off_y = cp.multiply(pe.v1, cp.adjoint(pe.v2)) - oracles.one(spec)
            assert all(
                set(numeric.enumerate_points(E)) <= ys
                for _, sf in off_y.terms for _, E in sf
            )
            z = _berg_z(spec, P, N)
            d = z * pe.v1 * pe.u2 * cp.adjoint(z) - cp.shift_unitary(spec)
            if not d.terms:
                continue
            level = {}
            for m in range(-1, N + 1):
                Ym = space.apply_h(pe.Y, m)
                level.update(dict.fromkeys(numeric.enumerate_points(Ym), m))
            rep = numeric.represent(d)
            for i, j in rep.matrix.entries:
                x, y = rep.points[i], rep.points[j]
                assert y in level and level.get(x) == level[y] + 1


def test_berg_error_shrinks_with_n():
    norms = []
    for N in (2, 4, 8):
        rep = numeric.berg_verify(
            SHIFT, shift_partition(0, 8), N, math.pi / N + 0.01
        )
        assert rep.passed
        norms.append(rep.norm_u_prime_minus_u)
    assert norms[0] > norms[1] > norms[2]


def _golden_berg_jobs():
    """(name, spec, P, N, recorded z_commutes_ok) of every golden berg
    job that exits 0."""
    path = os.path.join(os.path.dirname(__file__), "golden.json")
    with open(path) as f:
        golden = json.load(f)
    out = []
    for entry in golden:
        args = entry["args"]
        if args[0] != "berg" or entry["exit"] != 0:
            continue
        opts = dict(zip(args[1::2], args[2::2]))
        spec = space.SystemSpec.from_dict(entry["spec"])
        P = space.generating_partition(spec, int(opts.get("--depth", 1)))
        N = int(opts.get("--N", 4))
        out.append((entry["name"], spec, P, N, entry["stdout"]["z_commutes_ok"]))
    return out


def _berg_z(spec, P, N):
    """The interpolating unitary z of berg_verify."""
    Y, y_points, V = _berg_corner(spec, P, N)
    if not y_points:
        return oracles.one(spec)
    return numeric._interpolating_unitary(Y, y_points, numeric._cycles(V), N)


GOLDEN_BERG = _golden_berg_jobs()


@pytest.mark.parametrize(
    "name, spec, P, N, recorded", GOLDEN_BERG, ids=[j[0] for j in GOLDEN_BERG]
)
def test_z_commutation_lemma_on_golden_berg_jobs(name, spec, P, N, recorded):
    z = _berg_z(spec, P, N)
    got = numeric._commutes_with_cells(z, P)
    assert got == oracles.commutes_by_products(z, P, cp) == recorded


def _random_cp_element(spec, rng):
    """Pieces over random sets, cofinite ones included, with
    coefficients on both sides of the 1e-10 threshold."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c *= rng.choice([1e-11, 3e-11, 1e-9, 1])
        terms.setdefault(rng.randint(-3, 3), []).append(
            (c, genutil.random_set(spec, rng))
        )
    return cp.cp_element(spec, terms)


@pytest.mark.parametrize(
    "spec, depth", [(SHIFT, 3), (QSHIFT, 1), (CYCLE, 1)],
    ids=["shift", "quotient", "cycle"],
)
def test_z_commutation_lemma_matches_products_on_failing_elements(spec, depth):
    rng = random.Random(71)
    S, _ = towers.adapted_system_pair(spec, space.generating_partition(spec, depth), 4)
    units = list(oracles.matrix_units(S).values())
    u = cp.shift_unitary(spec)
    elements = [u]
    for c in (1e-11, 3e-11, 1e-9, 0.5):
        for e in rng.sample(units, min(4, len(units))):
            elements += [u + cp.scale(e, c), oracles.one(spec) + cp.scale(e, c)]
    elements += [_random_cp_element(spec, rng) for _ in range(30)]
    verdicts = []
    for z in elements:
        for P in (
            space.generating_partition(spec, depth),
            genutil.random_partition(spec, rng),
            # the lemma holds for any sets, not only for partitions
            [genutil.random_set(spec, rng) for _ in range(2)],
        ):
            got = numeric._commutes_with_cells(z, P)
            assert got == oracles.commutes_by_products(z, P, cp)
            verdicts.append(got)
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


@pytest.mark.parametrize(
    "spec, P, Ns",
    [
        (SHIFT, space.generating_partition(SHIFT, 3), (4, 16)),
        (QSHIFT, space.generating_partition(QSHIFT, 2), (3, 8)),
        (CYCLE, space.generating_partition(CYCLE, 1), (2, 4)),
    ],
    ids=["shift", "quotient", "cycle"],
)
def test_cell_labels_match_all_cells_labelling(spec, P, Ns):
    rng = random.Random(73)
    for N in Ns:
        Y, _, _ = _berg_corner(spec, P, N)
        blocks = numeric._berg_blocks(Y, N)
        for side in (0, 1):
            cells = [b[side] for b in blocks]
            if side:
                rng.shuffle(cells)  # the rest of X need not come last
            points = list(
                {x: None for C in cells for x in genutil.sample_points(C, 12)}
            )
            rng.shuffle(points)
            assert numeric._cell_labels(cells, points) == oracles.cell_labels(
                cells, points, space.contains_point
            )
