"""Finite matrix representations of compactly supported elements,
operator norms, unitary N-th roots, block cutdown estimates, and the
end-to-end verification that the approximant unitary z v1 u2 z* is
epsilon-close to the implementing unitary u.

An element's matrix is built once, from the points of its pieces: each
piece places its scalar at the entries it covers.  The block cutdowns
of the Berg check are then slices of that one matrix, with rows and
columns labelled by the blocks that hold their points, and no cutdown
is formed as a symbolic element.

numpy is imported inside the functions that use it, not at module
level.  Only `berg` among the commands needs floating point; the others
are exact.  So `zdsys.numeric`, and with it the package and the CLI,
imports and can be traced without loading numpy, and a `berg` job
loads it on its first numeric call.
"""

from __future__ import annotations

import math

from . import cpalgebra as cp
from . import space
from .errors import (
    DegenerateEigenbasis,
    NoConvergence,
    NotUnitary,
    PartitionFailure,
)
from .space import apply_h, contains_point, enumerate_points, is_empty, point_apply_h
from .towers import adapted_system_pair


# ---------------------------------------------------------------------------
# matrix representation
# ---------------------------------------------------------------------------


def _point_key(p):
    if isinstance(p, tuple):
        return (1, p[0], _point_key(p[1]))
    return (0, p, 0)


class CompactMatrixRep(space.Record):
    spec: space.SystemSpec
    points: tuple
    matrix: object  # a numpy.ndarray; numpy is not bound at module level


def represent(a, points=None):
    """Matrix of the element on the finitely many points it touches.

    Entry [x, y] is the sum over n of f_n(x) when h^n(y) = x.  Each
    piece (c, E) of f_n places c at [x, h^-n(x)] for every point x of E
    whose preimage is in the window as well, the terms taken in
    increasing n.  The pieces of one term are disjoint, so an entry
    takes at most one addition per term.  The window is the union of all
    piece supports, widened by up to the largest shift either way,
    unless explicit points are given.  Either way every piece must be a
    finite point set; a cofinite one raises NotCompactlySupported.
    """
    import numpy as np

    spec = a.spec
    pieces = [
        (n, c, enumerate_points(E)) for n, sf in a.terms for c, E in sf
    ]
    if points is None:
        support = {x for _, _, xs in pieces for x in xs}
        reach = max((abs(n) for n, _ in a.terms), default=0)
        window = {
            point_apply_h(spec, x, m)
            for x in support
            for m in range(-reach, reach + 1)
        }
        points = sorted(window, key=_point_key)
    else:
        points = list(points)
    index = {p: i for i, p in enumerate(points)}
    M = np.zeros((len(points), len(points)), dtype=complex)
    for n, c, xs in pieces:
        for x in xs:
            i = index.get(x)
            j = index.get(point_apply_h(spec, x, -n))
            if i is not None and j is not None:
                M[i, j] += c
    return CompactMatrixRep(spec, tuple(points), M)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def operator_norm(M):
    """Largest singular value, from LAPACK's singular values (the
    2-norm of Golub and Van Loan, Matrix Computations, 2.3 and 8.6).
    No singular vectors are formed.  All-zero rows and columns are
    dropped first: dropping a zero row leaves M*M as it is, and dropping
    a zero column deletes a zero row and column of M*M, so the nonzero
    singular values, and with them the norm, are unchanged, while a
    `represent` window, mostly zero rows and columns, shrinks to its
    nonzero block.  A matrix with a NaN or infinite entry, or one
    LAPACK fails on, raises NoConvergence."""
    import numpy as np

    if isinstance(M, CompactMatrixRep):
        M = M.matrix
    M = np.asarray(M, dtype=complex)
    if not np.isfinite(M).all():
        raise NoConvergence("matrix has a NaN or infinite entry")
    nonzero = M != 0
    M = M[nonzero.any(axis=1)][:, nonzero.any(axis=0)]
    if M.size == 0:
        return 0.0
    try:
        return float(np.linalg.norm(M, 2))
    except np.linalg.LinAlgError as e:
        raise NoConvergence("singular values did not converge: %s" % e) from e


# ---------------------------------------------------------------------------
# unitary N-th root
# ---------------------------------------------------------------------------


def unitary_nth_root(V, N, tol=1e-10):
    """The N-th root of a unitary through the principal branch: each
    eigenvalue e^{i theta}, theta in (-pi, pi], becomes e^{i theta/N}.
    An eigenvalue within tol of -1 counts as theta = pi, whatever the
    sign of the rounding in its imaginary part.  The result is a
    function of V and satisfies |W - 1| <= pi/N.

    The eigenbasis is that of a Hermitian matrix with the eigenvectors
    of V: V is turned by a phase so that the widest gap between its
    eigenvalues sits at -1, and the Cayley transform
    C = i(1 - R)(1 + R)^{-1} of the turned unitary R is Hermitian.  Its
    orthonormal eigenvectors Q, from numpy's Hermitian solver, are also
    orthonormal where eigenvalues repeat; theta is read off the diagonal
    of Q* V Q."""
    import numpy as np

    if N < 1:
        raise ValueError("N must be >= 1")
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be square")
    n = V.shape[0]
    if n == 0:
        return V.copy()
    I = np.eye(n)
    if (
        operator_norm(V @ V.conj().T - I) > tol
        or operator_norm(V.conj().T @ V - I) > tol
    ):
        raise NotUnitary("input is not unitary within tolerance")
    angles = np.sort(np.angle(np.linalg.eigvals(V)))
    gaps = np.diff(angles, append=angles[0] + 2 * math.pi)
    k = int(np.argmax(gaps))
    # the gap is at least 2 pi/n wide, so 1 + R is invertible
    R = V * np.exp(1j * (math.pi - angles[k] - gaps[k] / 2))
    C = 1j * np.linalg.solve(I + R, I - R)
    _, Q = np.linalg.eigh((C + C.conj().T) / 2)
    theta = np.angle(np.einsum("ij,ij->j", Q.conj(), V @ Q))
    theta[theta <= -math.pi + tol] = math.pi
    W = (Q * np.exp(1j * theta / N)) @ Q.conj().T
    if operator_norm(np.linalg.matrix_power(W, N) - V) > tol:
        raise DegenerateEigenbasis("root verification failed")
    return W


# ---------------------------------------------------------------------------
# block cutdown estimate
# ---------------------------------------------------------------------------


def _cell_labels(cells, points):
    """Map each point to the index of the cell that holds it; the cells
    partition X, so there is exactly one."""
    return {
        x: next(k for k, C in enumerate(cells) if contains_point(C, x))
        for x in points
    }


def cutdown_check(a, blocks, tol=1e-9, coeff_tol=1e-12):
    """Verify that a is block-diagonal for the given (p, q) projection
    pairs and that its norm is at most the largest block norm.

    Every cutdown is read off one matrix M = represent(a).  Each window
    point x gets a row label, the index of the p holding it, and a
    column label, the index of the q holding it.

    A piece c chi_E u^n of a survives in chi_p a chi_q as the piece
    c chi_{E & p & h^n(q)} u^n, which is nonzero at x exactly when x is
    in E and p and h^-n(x) is in q.  So the offending pair, the least
    (i, j), i != j, for which some piece with |c| > coeff_tol meets
    p_i & h^n(q_j), is the least (row(x), column(h^-n(x))) off the
    diagonal over the points x of such pieces.  This is read off the
    pieces, not the entries of M: on a periodic orbit the terms n and
    n + period add up in one entry.

    Entry [x, y] of chi_p a chi_q is the same sum over n, in the same
    order, as entry [x, y] of M when x is in p and y in q, and 0
    otherwise.  So the rows labelled k and the columns labelled k of M
    hold every nonzero entry of block k's matrix, in the same point
    order; operator_norm drops the zero rows and columns of both, so
    the block norms are those of the symbolic cutdowns, float for
    float."""
    import numpy as np

    for side in (0, 1):
        cells = [b[side] for b in blocks if not is_empty(b[side])]
        if not space.is_partition(cells):
            raise PartitionFailure(
                "block projections do not sum to the identity"
            )
    rep = represent(a)
    row = _cell_labels([p for p, _ in blocks], rep.points)
    col = _cell_labels([q for _, q in blocks], rep.points)
    pairs = {
        (row[x], col[point_apply_h(a.spec, x, -n)])
        for n, sf in a.terms
        for c, E in sf
        if abs(c) > coeff_tol
        for x in enumerate_points(E)
    }
    offending = min((ij for ij in pairs if ij[0] != ij[1]), default=None)
    if offending is not None:
        return {
            "block_diagonal": False,
            "offending_pair": offending,
            "block_norms": [],
            "total_norm": None,
            "bound_holds": False,
        }
    rows = np.array([row[x] for x in rep.points], dtype=int)
    cols = np.array([col[x] for x in rep.points], dtype=int)
    block_norms = [
        operator_norm(rep.matrix[rows == k][:, cols == k])
        for k in range(len(blocks))
    ]
    total = operator_norm(rep)
    bound = max(block_norms, default=0.0) + tol
    return {
        "block_diagonal": True,
        "offending_pair": None,
        "block_norms": block_norms,
        "total_norm": total,
        "bound_holds": total <= bound,
    }


# ---------------------------------------------------------------------------
# Berg verification
# ---------------------------------------------------------------------------


class BergReport(space.Record):
    N: int
    epsilon: float
    norm_w_minus_1: float
    norm_u_prime_minus_u: float
    block_norms: tuple
    z_unitary_ok: bool
    z_commutes_ok: bool
    blocks_ok: bool

    @property
    def passed(self):
        return (
            self.z_unitary_ok
            and self.z_commutes_ok
            and self.norm_u_prime_minus_u < self.epsilon
        )

    def to_dict(self):
        return {
            "N": self.N,
            "epsilon": self.epsilon,
            "norm_w_minus_1": self.norm_w_minus_1,
            "norm_u_prime_minus_u": self.norm_u_prime_minus_u,
            "block_norms": list(self.block_norms),
            "z_unitary_ok": self.z_unitary_ok,
            "z_commutes_ok": self.z_commutes_ok,
            "blocks_ok": self.blocks_ok,
            "pass": self.passed,
        }


def _interpolating_unitary(Y, y_points, W, N):
    """z = sum over j < N of chi_{h^j Y} u^j W^{N-j} u^{-j} chi_{h^j Y},
    plus 1 off those levels, for W a matrix on the points of Y.

    For x, y in Y the entry (W^{N-j})_{xy} chi_x u^{x-y} conjugates to
    (W^{N-j})_{xy} chi_{h^j x} u^{x-y}, so z is built in one step from
    the entries.  Entries of modulus at most 1e-15 are dropped."""
    import numpy as np

    spec = Y.spec
    powers = {0: np.eye(len(y_points), dtype=complex)}
    for m in range(1, N + 1):
        powers[m] = powers[m - 1] @ W
    singletons = [spec.singleton(x) for x in y_points]
    terms = {}
    covered = space.empty_set(spec)
    for j in range(N):
        covered = space.union(covered, apply_h(Y, j))
        for r, x in enumerate(y_points):
            for s, y in enumerate(y_points):
                c = powers[N - j][r, s]
                if abs(c) <= 1e-15:
                    continue
                n = spec.displacement(x, y)
                if n is None:
                    raise DegenerateEigenbasis(
                        "matrix couples points of different fibers"
                    )
                terms.setdefault(n, []).append(
                    (c, apply_h(singletons[r], j))
                )
    terms.setdefault(0, []).append((1, space.complement(covered)))
    return cp.cp_element(spec, terms)


def berg_verify(spec, P, N, epsilon, max_steps=None):
    """Build an adapted pair for (P, N), interpolate its unitaries with
    an N-th root, and measure how far the result is from u."""
    import numpy as np

    if not epsilon > math.pi / N:
        raise ValueError("epsilon must exceed pi/N")
    S, S2 = adapted_system_pair(spec, P, N, max_steps)
    pe = cp.proof_unitaries(S, S2)
    u = cp.shift_unitary(spec)
    Y = pe.Y

    if is_empty(Y):
        z = cp.one(spec)
        norm_w = 0.0
    else:
        y_points = sorted(enumerate_points(Y), key=_point_key)
        v_el = cp.multiply(
            cp.multiply(cp.char(Y), cp.multiply(pe.v2, cp.adjoint(pe.v1))),
            cp.char(Y),
        )
        V = represent(v_el, points=y_points).matrix
        W = unitary_nth_root(V, N)
        norm_w = operator_norm(W - np.eye(len(y_points)))

        z = _interpolating_unitary(Y, y_points, W, N)

    z_unitary_ok = cp.equals_approx(
        cp.multiply(z, cp.adjoint(z)), cp.one(spec), 1e-10
    ) and cp.equals_approx(cp.multiply(cp.adjoint(z), z), cp.one(spec), 1e-10)
    z_commutes_ok = all(
        cp.max_coefficient(
            cp.multiply(z, cp.char(U)) - cp.multiply(cp.char(U), z)
        )
        <= 1e-10
        for U in P
    )

    u_prime = cp.multiply(
        cp.multiply(z, cp.multiply(pe.v1, pe.u2)), cp.adjoint(z)
    )
    d = u_prime - u

    if not d.terms:
        norm_d = 0.0
        block_norms = ()
        blocks_ok = True
    else:
        blocks = []
        lo = space.empty_set(spec)
        for n in range(1, N + 1):
            blocks.append((apply_h(Y, n), apply_h(Y, n - 1)))
        blocks.append((Y, apply_h(Y, N)))
        blocks.append((apply_h(Y, -1), apply_h(Y, -1)))
        for j in range(-1, N + 1):
            lo = space.union(lo, apply_h(Y, j))
        rest = space.complement(lo)
        blocks.append((rest, rest))
        report = cutdown_check(d, blocks)
        block_norms = tuple(report["block_norms"])
        blocks_ok = report["block_diagonal"] and report["bound_holds"]
        norm_d = report["total_norm"]
        if norm_d is None:
            norm_d = operator_norm(represent(d))

    return BergReport(
        N=N,
        epsilon=float(epsilon),
        norm_w_minus_1=float(norm_w),
        norm_u_prime_minus_u=float(norm_d),
        block_norms=block_norms,
        z_unitary_ok=z_unitary_ok,
        z_commutes_ok=z_commutes_ok,
        blocks_ok=blocks_ok,
    )
