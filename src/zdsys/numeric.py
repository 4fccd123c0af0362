"""Finite matrix representations of compactly supported elements,
operator norms, unitary N-th roots, block cutdown estimates, and the
end-to-end verification that the approximant unitary z v1 u2 z* is
epsilon-close to the implementing unitary u.

numpy is imported inside the functions that use it, not at module
level.  Only `berg` among the commands needs floating point; the others
are exact.  So `zdsys.numeric`, and with it the package and the CLI,
imports and can be traced without loading numpy, and a `berg` job
loads it on its first numeric call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CompactMatrixRep:
    spec: space.SystemSpec
    points: tuple
    matrix: object  # a numpy.ndarray; numpy is not bound at module level


def represent(a, points=None):
    """Matrix of the element on the finitely many points it touches.

    Entry [x, y] is sum over n of f_n(x) when h^n(y) = x.  The window is
    the union of all coefficient supports, expanded by up to the largest
    shift in either direction, unless explicit points are given.
    """
    import numpy as np

    spec = a.spec
    if points is None:
        pts = set()
        for n, sf in a.terms:
            for _, E in sf:
                pts.update(enumerate_points(E))
        reach = max((abs(n) for n, _ in a.terms), default=0)
        expanded = set()
        for p in pts:
            for m in range(-reach, reach + 1):
                expanded.add(point_apply_h(spec, p, m))
        points = sorted(expanded, key=_point_key)
    else:
        points = list(points)
    index = {p: i for i, p in enumerate(points)}
    M = np.zeros((len(points), len(points)), dtype=complex)
    for n, sf in a.terms:
        # the (x, y) entries with h^n(y) = x inside the window, in y order
        moves = []
        for y in points:
            x = point_apply_h(spec, y, n)
            if x in index:
                moves.append((x, index[x], index[y]))
        for c, E in sf:
            for x, i, j in moves:
                if contains_point(E, x):
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


def cutdown_check(a, blocks, tol=1e-9, coeff_tol=1e-12):
    """Verify that a is block-diagonal for the given (p, q) projection
    pairs and that its norm is at most the largest block norm.

    A piece c chi_E u^n of a survives in chi_p a chi_q as the piece
    c chi_{E & p & h^n(q)} u^n, so every cutdown is read off the pieces
    of a.  The offending pair is the least (i, j), i != j, for which
    some piece with |c| > coeff_tol meets p_i & h^n(q_j)."""
    spec = a.spec
    for side in (0, 1):
        cells = [b[side] for b in blocks if not is_empty(b[side])]
        if not space.is_partition(cells):
            raise PartitionFailure(
                "block projections do not sum to the identity"
            )
    offending = None
    block_terms = [{} for _ in blocks]
    for n, sf in a.terms:
        images = [apply_h(q, n) for _, q in blocks]
        for c, E in sf:
            for i, (p, _) in enumerate(blocks):
                A = space.intersect(E, p)
                if is_empty(A):
                    continue
                B = space.intersect(A, images[i])
                if not is_empty(B):
                    block_terms[i].setdefault(n, []).append((c, B))
                # the images h^n(q_j) partition X, so A leaves h^n(q_i)
                # exactly when it meets some other h^n(q_j)
                if B == A or abs(c) <= coeff_tol:
                    continue
                for j, image in enumerate(images):
                    if j != i and not is_empty(space.intersect(A, image)):
                        if offending is None or (i, j) < offending:
                            offending = (i, j)
                        break
    if offending is not None:
        return {
            "block_diagonal": False,
            "offending_pair": offending,
            "block_norms": [],
            "total_norm": None,
            "bound_holds": False,
        }
    block_norms = [
        operator_norm(represent(cp.cp_element(spec, terms)))
        for terms in block_terms
    ]
    total = operator_norm(represent(a))
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


@dataclass(frozen=True)
class BergReport:
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
        block_norms = ()
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
