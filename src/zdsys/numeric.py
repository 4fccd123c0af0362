"""Finite matrix representations of compactly supported elements,
operator norms, unitary N-th roots, block cutdown estimates, and the
end-to-end verification that the approximant unitary z v1 u2 z* is
epsilon-close to the implementing unitary u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cpalgebra as cp
from . import space
from .errors import (
    DegenerateEigenbasis,
    NoConvergence,
    NotCompactlySupported,
    NotUnitary,
    PartitionFailure,
)
from .space import (
    COMPACTIFIED_SHIFT,
    FINITE_CYCLE,
    ODOMETER,
    QUOTIENT_PRODUCT,
    TWO_POINT_SHIFT,
    apply_h,
    contains_point,
    is_empty,
    point_apply_h,
)
from .towers import adapted_system_pair


# ---------------------------------------------------------------------------
# point enumeration and matrix representation
# ---------------------------------------------------------------------------


def enumerate_points(E):
    """All points of a clopen set that is a finite set of points."""
    f = E.spec.family
    if f == FINITE_CYCLE:
        return sorted(E.data)
    if f == ODOMETER:
        if not is_empty(E):
            raise NotCompactlySupported(
                "cylinder sets are not finite point sets"
            )
        return []
    if f == COMPACTIFIED_SHIFT:
        pts, cofinite = E.data
        if cofinite:
            raise NotCompactlySupported("set has a cofinite part")
        return sorted(pts)
    if f == TWO_POINT_SHIFT:
        pts, tm, tp = E.data
        if tm or tp:
            raise NotCompactlySupported("set has a tail part")
        return sorted(pts)
    tail, slices = E.data
    if tail:
        raise NotCompactlySupported("set has a tail part")
    out = []
    for k, s in slices:
        out.extend((k, q) for q in enumerate_points(s))
    return out


def _point_key(p):
    if isinstance(p, tuple):
        return (1, p[0], _point_key(p[1]))
    return (0, p, 0)


@dataclass(frozen=True)
class CompactMatrixRep:
    spec: space.SystemSpec
    points: tuple
    matrix: np.ndarray


def represent(a, points=None):
    """Matrix of the element on the finitely many points it touches.

    Entry [x, y] is sum over n of f_n(x) when h^n(y) = x.  The window is
    the union of all coefficient supports, expanded by up to the largest
    shift in either direction, unless explicit points are given.
    """
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
        for c, E in sf:
            for y in points:
                x = point_apply_h(spec, y, n)
                if x in index and contains_point(E, x):
                    M[index[x], index[y]] += c
    return CompactMatrixRep(spec, tuple(points), M)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def operator_norm(M, tol=1e-12, max_iter=10000):
    """Largest singular value by power iteration on M*M, with a
    Rayleigh residual certificate."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(M, CompactMatrixRep):
        M = M.matrix
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    A = M.conj().T @ M
    n = A.shape[0]
    scale = np.abs(A).sum()
    if scale == 0:
        return 0.0
    # warm start: repeated squaring concentrates the vector in the top
    # eigenspace before the certified power iterations
    B = A / scale
    for _ in range(40):
        B = B @ B
        m = np.abs(B).max()
        if m == 0 or not np.isfinite(m):
            B = A / scale
            break
        B = B / m
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = B @ v
    if np.linalg.norm(w) > 1e-200:
        v = w
    v = v / np.linalg.norm(v)
    for _ in range(max_iter):
        Av = A @ v
        lam = float(np.real(np.vdot(v, Av)))
        resid = float(np.linalg.norm(Av - lam * v))
        if resid <= tol * max(1.0, abs(lam)):
            return math.sqrt(max(lam, 0.0))
        norm_av = np.linalg.norm(Av)
        if norm_av == 0:
            return 0.0
        v = Av / norm_av
    raise NoConvergence("power iteration did not certify within the cap")


# ---------------------------------------------------------------------------
# unitary N-th root
# ---------------------------------------------------------------------------


def unitary_nth_root(V, N, tol=1e-10):
    """The N-th root of a unitary through the principal branch: each
    eigenvalue e^{i theta}, theta in (-pi, pi], becomes e^{i theta/N}.
    The result is a function of V and satisfies |W - 1| <= pi/N."""
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
    T, Q = scipy.linalg.schur(V, output="complex")
    theta = np.angle(np.diag(T))
    W = (Q * np.exp(1j * theta / N)) @ Q.conj().T
    if operator_norm(np.linalg.matrix_power(W, N) - V) > tol:
        raise DegenerateEigenbasis("root verification failed")
    return W


# ---------------------------------------------------------------------------
# block cutdown estimate
# ---------------------------------------------------------------------------


def cutdown_check(a, blocks, tol=1e-9, coeff_tol=1e-12):
    """Verify that a is block-diagonal for the given (p, q) projection
    pairs and that its norm is at most the largest block norm."""
    spec = a.spec
    for side in (0, 1):
        cells = [b[side] for b in blocks if not is_empty(b[side])]
        if not space.is_partition(cells):
            raise PartitionFailure(
                "block projections do not sum to the identity"
            )
    for i, (p, _) in enumerate(blocks):
        for j, (_, q) in enumerate(blocks):
            if i == j:
                continue
            off = cp.multiply(cp.multiply(cp.char(p), a), cp.char(q))
            if cp.max_coefficient(off) > coeff_tol:
                return {
                    "block_diagonal": False,
                    "offending_pair": (i, j),
                    "block_norms": [],
                    "total_norm": None,
                    "bound_holds": False,
                }
    block_norms = []
    for p, q in blocks:
        piece = cp.multiply(cp.multiply(cp.char(p), a), cp.char(q))
        block_norms.append(operator_norm(represent(piece)))
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


def _singleton(spec, p):
    f = spec.family
    if f == FINITE_CYCLE:
        return space.finite_cycle_set(spec, [p])
    if f == COMPACTIFIED_SHIFT:
        return space.shift_set(spec, [p])
    if f == TWO_POINT_SHIFT:
        return space.two_point_set(spec, [p])
    if f == QUOTIENT_PRODUCT:
        k, fp = p
        return space.quotient_set(spec, {k: _singleton(spec.fiber, fp)})
    raise NotCompactlySupported("no finite point sets in this family")


def _displacement(spec, x, y):
    """The n with h^n(y) = x, for shift-type points."""
    if spec.family == QUOTIENT_PRODUCT:
        if x[0] != y[0]:
            return None
        return _displacement(spec.fiber, x[1], y[1])
    return x - y


def _matrix_to_element(spec, points, M, drop=1e-15):
    terms = {}
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            c = M[i, j]
            if abs(c) <= drop:
                continue
            n = _displacement(spec, x, y)
            if n is None:
                raise DegenerateEigenbasis(
                    "matrix couples points of different fibers"
                )
            terms.setdefault(n, []).append((c, _singleton(spec, x)))
    return cp.cp_element(spec, terms)


def berg_verify(spec, P, N, epsilon, max_steps=None):
    """Build an adapted pair for (P, N), interpolate its unitaries with
    an N-th root, and measure how far the result is from u."""
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

        powers = {0: np.eye(len(y_points), dtype=complex)}
        for m in range(1, N + 1):
            powers[m] = powers[m - 1] @ W
        z = cp.zero(spec)
        covered = space.empty_set(spec)
        for j in range(N):
            w_el = _matrix_to_element(spec, y_points, powers[N - j])
            Ej = apply_h(Y, j)
            covered = space.union(covered, Ej)
            piece = cp.multiply(
                cp.multiply(
                    cp.char(Ej),
                    cp.multiply(
                        cp.multiply(cp.shift_unitary(spec, j), w_el),
                        cp.shift_unitary(spec, -j),
                    ),
                ),
                cp.char(Ej),
            )
            z = cp.add(z, piece)
        z = cp.add(z, cp.char(space.complement(covered)))

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
