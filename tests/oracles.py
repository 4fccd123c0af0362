"""Independent brute-force oracles.

Everything here is computed from first principles with the standard
library only (fractions, itertools, cmath), without touching the main
implementation, so the tests can compare two genuinely different routes
to the same value.  Functions that need the dynamics take it as
callables.  The dense-matrix helpers (dense, sparse and
eigenbasis_root) import numpy, a test dependency, in their bodies, so
that this module imports without it.

The last section is the exception: the checkers and round trips of
return systems and crossed-product elements that only the tests call
(validate_system, finer_system_criterion, refine_system,
meets_minimal_sets, adapted_pair_failures, system_from_dict, from_dict,
zero, unit, matrix_units, uhat, fiber_restrict, has_exact_scalars and
is_unitary).  They are built on the package's set operations, so they
check structure, not the set algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations

from zdsys import cpalgebra as cp
from zdsys import errors, space, towers


def rank_over_Q(rows):
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    rank = 0
    col = 0
    for col in range(m):
        piv = None
        for i in range(rank, n):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def det_over_Q(rows):
    """Determinant by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det) if det.denominator == 1 else det


def determinant_divisors(rows):
    """g_k = gcd of all k x k minors, for k = 1..min(n, m)."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(int(det_over_Q(sub))))
        out.append(g)
    return out


def invariant_factors(rows):
    """Nonzero diagonal of the Smith form, from determinant divisors."""
    gs = determinant_divisors(rows)
    out = []
    prev = 1
    for g in gs:
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major tuple of row tuples

    def __post_init__(self):
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ValueError("inconsistent dimensions")

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def to_lists(self):
        return [list(r) for r in self.entries]


def int_matrix(rows):
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    return IntMatrix(n, m, tuple(rows))


def identity_matrix(n):
    return int_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(A, B):
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    Bt = list(zip(*B.entries)) if B.entries else []
    return int_matrix(
        [
            [sum(a * b for a, b in zip(row, col)) for col in Bt]
            for row in A.entries
        ]
    )


def mat_sub(A, B):
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ValueError("shape mismatch")
    return int_matrix(
        [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(A.entries, B.entries)
        ]
    )


def smith_normal_form(A):
    """A = U * D * V with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ...  Returns (U, D, V)."""
    n, m = A.rows, A.cols
    D = [list(r) for r in A.entries]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    # row op on D is matched by the inverse column op on U, and column
    # op on D by the inverse row op on V, keeping A = U * D * V exact.
    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        for r in U:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        V[i], V[j] = V[j], V[i]

    def row_add(i, j, q):  # row_i += q * row_j
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        for r in U:
            r[j] -= q * r[i]

    def col_add(i, j, q):  # col_i += q * col_j
        for r in D:
            r[i] += q * r[j]
        V[j] = [a - q * b for a, b in zip(V[j], V[i])]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        for r in U:
            r[i] = -r[i]

    for k in range(min(n, m)):
        while True:
            # nonzero entry of minimal absolute value as pivot; picking
            # it afresh after every reduction pass keeps entries small,
            # since every leftover remainder is smaller than the pivot
            best = None
            for i in range(k, n):
                for j in range(k, m):
                    if D[i][j] != 0 and (
                        best is None
                        or abs(D[i][j]) < abs(D[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                break
            row_swap(k, best[0])
            col_swap(k, best[1])
            # one reduction pass over the pivot row and column
            for i in range(k + 1, n):
                if D[i][k] != 0:
                    row_add(i, k, -(D[i][k] // D[k][k]))
            for j in range(k + 1, m):
                if D[k][j] != 0:
                    col_add(j, k, -(D[k][j] // D[k][k]))
            if any(D[i][k] for i in range(k + 1, n)) or any(
                D[k][j] for j in range(k + 1, m)
            ):
                continue
            # the pivot must divide the whole trailing block for the
            # divisibility chain; fold an offending row in and redo
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, m):
                    if D[i][j] % D[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(k, offender, 1)
        if k < min(n, m) and D[k][k] < 0:
            row_negate(k)

    return int_matrix(U), int_matrix(D), int_matrix(V)


def _det(M):
    # Bareiss elimination, exact over the integers
    n = M.rows
    if n == 0:
        return 1
    a = [list(r) for r in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M):
    return M.rows == M.cols and abs(_det(M)) == 1


def induced_matrix(cells, images, subset):
    """All-pairs 0/1 matrix of the map the dynamics induces on indicator
    classes: entry [i][j] = 1 iff cells[i] lies in images[j], where
    images[j] is the image of cells[j] and subset(a, b) tests a <= b.
    None when some cell lies in no image (the map is not square)."""
    if not all(any(subset(c, img) for img in images) for c in cells):
        return None
    return [[1 if subset(c, img) else 0 for img in images] for c in cells]


def cyclic_matrix(M):
    """0/1 matrix of the +1 cycle on M labels: entry [i][j] = 1 iff
    label i is the image of label j."""
    return [
        [1 if i == (j + 1) % M else 0 for j in range(M)] for i in range(M)
    ]


def id_minus_cyclic(M):
    c = cyclic_matrix(M)
    return [
        [(1 if i == j else 0) - c[i][j] for j in range(M)] for i in range(M)
    ]


def singular_values_2x2(a, b, c, d):
    """Closed-form singular values of [[a, b], [c, d]], largest first."""
    t = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det2 = abs(a * d - b * c) ** 2
    disc = math.sqrt(max(t * t - 4 * det2, 0.0))
    return (math.sqrt((t + disc) / 2), math.sqrt(max((t - disc) / 2, 0.0)))


def swap_root(N):
    """N-th root of [[0,1],[1,0]] by explicit spectral decomposition:
    eigenprojections at +1 and -1, with -1 sent through the upper branch."""
    p_plus = [[0.5, 0.5], [0.5, 0.5]]
    p_minus = [[0.5, -0.5], [-0.5, 0.5]]
    phase = cmath.exp(1j * math.pi / N)
    return [
        [p_plus[i][j] + phase * p_minus[i][j] for j in range(2)]
        for i in range(2)
    ]


def dense(M):
    """The complex ndarray of anything with a shape and a dict
    {(row, col): value} of entries, such as a SparseMatrix."""
    import numpy as np

    A = np.zeros(M.shape, dtype=complex)
    for ij, c in M.entries.items():
        A[ij] = c
    return A


def sparse(A, matrix_class):
    """matrix_class(shape, entries) from the nonzero entries of the 2-d
    array A."""
    import numpy as np

    A = np.asarray(A, dtype=complex)
    rows, cols = np.nonzero(A)
    keys = zip(rows.tolist(), cols.tolist())
    return matrix_class(A.shape, dict(zip(keys, A[rows, cols].tolist())))


def eigenbasis_root(V, N, tol=1e-10):
    """The principal N-th root of the unitary ndarray V through an
    eigenbasis: each eigenvalue e^{i theta}, theta in (-pi, pi], becomes
    e^{i theta/N}, and one within tol of -1 counts as theta = pi,
    whatever the sign of the rounding in its imaginary part.

    The eigenbasis is that of a Hermitian matrix with the eigenvectors
    of V: V is turned by a phase so that the widest gap between its
    eigenvalues sits at -1, and the Cayley transform
    C = i(1 - R)(1 + R)^{-1} of the turned unitary R is Hermitian.  Its
    orthonormal eigenvectors Q, from numpy's Hermitian solver, are also
    orthonormal where eigenvalues repeat; theta is read off the diagonal
    of Q* V Q.  A V that is not unitary within tol, or a root whose
    N-th power misses V by more than tol, raises ValueError."""
    import numpy as np

    V = np.asarray(V, dtype=complex)
    I = np.eye(V.shape[0])
    if (
        np.linalg.norm(V @ V.conj().T - I, 2) > tol
        or np.linalg.norm(V.conj().T @ V - I, 2) > tol
    ):
        raise ValueError("input is not unitary within tolerance")
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
    if np.linalg.norm(np.linalg.matrix_power(W, N) - V, 2) > tol:
        raise ValueError("root verification failed")
    return W


def first_return_time(step, member, point, max_steps):
    """Least n > 0 with h^n(point) in the base, by orbit simulation.
    `step` advances a point by one, `member` tests base membership."""
    q = point
    for n in range(1, max_steps + 1):
        q = step(q)
        if member(q):
            return n
    return None


def sf_accumulate(acc, pieces, intersect, difference, is_empty):
    """Add step-function pieces (scalar, set) into a list of pieces with
    disjoint sets: each new piece splits every earlier piece it meets,
    and the overlap carries the new scalar plus the earlier one."""
    for c, E in pieces:
        rem = E
        out = []
        for d, F in acc:
            I = intersect(rem, F)
            if is_empty(I):
                out.append((d, F))
                continue
            out.append((c + d, I))
            left = difference(F, I)
            if not is_empty(left):
                out.append((d, left))
            rem = difference(rem, I)
        if not is_empty(rem):
            out.append((c, rem))
        acc = out
    return acc


def sf_canon(pieces, ops):
    """Canonical step function by the accumulator: disjoint sets, equal
    scalars merged under complex(), zeros dropped, cells ordered by
    ops.sort_key.  `ops` gives intersect, difference, union, is_empty
    and sort_key."""
    acc = sf_accumulate(
        [],
        [(c, E) for c, E in pieces if not ops.is_empty(E)],
        ops.intersect,
        ops.difference,
        ops.is_empty,
    )
    by_scalar = {}
    for c, E in acc:
        if c == 0:
            continue
        key = complex(c)
        by_scalar[key] = (
            ops.union(by_scalar[key], E) if key in by_scalar else E
        )
    out = list(by_scalar.items())
    out.sort(key=lambda ce: ops.sort_key(ce[1]))
    return tuple(out)


def canonical_terms(terms, ops):
    """Canonical terms ((n, step function), ...) of {n: pieces}."""
    out = []
    for n, pieces in sorted(terms.items()):
        sf = sf_canon(pieces, ops)
        if sf:
            out.append((n, sf))
    return tuple(out)


def all_pairs_product(a_terms, b_terms, ops):
    """{n + m: pieces} of the product of two elements given by their
    terms: (f u^n)(g u^m) = f (g composed with h^-n) u^(n+m), one piece
    c d on E & h^n(F) for every pair of cells.  `ops` also gives
    apply_h."""
    terms = {}
    for n, sf_a in a_terms:
        for m, sf_b in b_terms:
            for c, E in sf_a:
                for d, F in sf_b:
                    I = ops.intersect(E, ops.apply_h(F, n))
                    if not ops.is_empty(I):
                        terms.setdefault(n + m, []).append((c * d, I))
    return terms


def refine_by(P, pieces, ops):
    """Refine the cells of P by a list of sets, not necessarily a
    partition: split every cell along each piece into its part inside
    and its part outside.  `ops` gives intersect, difference and
    is_empty."""
    current = tuple(P)
    for piece in pieces:
        out = []
        for a in current:
            for c in (ops.intersect(a, piece), ops.difference(a, piece)):
                if not ops.is_empty(c):
                    out.append(c)
        current = tuple(out)
    return current


def disjoint_union(spec, sets, ops, nonempty=False):
    """Running union: walk the sets in order, keeping the union of those
    before each one.  (union, None) when they are pairwise disjoint;
    else (None, overlap) at the first set that meets the union before
    it, or (None, None) at the first empty set when nonempty is set.
    `ops` gives empty_set, intersect, union, is_empty and MixedSystems,
    raised at the first set over another spec."""
    covered = ops.empty_set(spec)
    for a in sets:
        if a.spec != spec:
            raise ops.MixedSystems("partition over mixed specs")
        if nonempty and ops.is_empty(a):
            return None, None
        overlap = ops.intersect(covered, a)
        if not ops.is_empty(overlap):
            return None, overlap
        covered = ops.union(covered, a)
    return covered, None


def common_refinement(P, Q, ops):
    """All nonempty pairwise intersections, ordered by (P index, Q
    index), by all pairs.  `ops` gives intersect and is_empty."""
    out = []
    for a in P:
        for b in Q:
            c = ops.intersect(a, b)
            if not ops.is_empty(c):
                out.append(c)
    return tuple(out)


def is_finer(P1, P2, ops):
    """True iff every cell of P1 lies inside some cell of P2, by all
    pairs.  `ops` gives is_subset."""
    return all(any(ops.is_subset(a, b) for b in P2) for a in P1)


def represent_by_moves(spec, terms, ops, points=None, key=None):
    """(points, rows) of the matrix of the element with the given terms,
    by moves: for each term n, each window point y whose image
    x = h^n(y) is in the window, and each piece (c, E) of the term with
    x in E, c is added at [x, y].  Without points, the window is every
    point of every piece, widened by up to the largest |n| either way
    and sorted by key.  `ops` gives point_apply_h, contains_point and
    enumerate_points."""
    if points is None:
        support = set()
        for _, sf in terms:
            for _, E in sf:
                support.update(ops.enumerate_points(E))
        reach = max((abs(n) for n, _ in terms), default=0)
        window = {
            ops.point_apply_h(spec, p, m)
            for p in support
            for m in range(-reach, reach + 1)
        }
        points = sorted(window, key=key)
    points = list(points)
    index = {p: i for i, p in enumerate(points)}
    rows = [[0j] * len(points) for _ in points]
    for n, sf in terms:
        moves = []
        for y in points:
            x = ops.point_apply_h(spec, y, n)
            if x in index:
                moves.append((x, index[x], index[y]))
        for c, E in sf:
            for x, i, j in moves:
                if ops.contains_point(E, x):
                    rows[i][j] += c
    return points, rows


def cell_labels(cells, points, contains_point):
    """Map each point to the index of the first cell that holds it,
    testing every cell in turn."""
    return {
        x: next(k for k, C in enumerate(cells) if contains_point(C, x))
        for x in points
    }


def commutes_by_products(z, P, ops, tol=1e-10):
    """True iff z chi_U - chi_U z has no coefficient above tol for any
    cell U of P, with both products formed.  `ops` gives multiply, char
    and max_coefficient, and the elements subtract."""
    return all(
        ops.max_coefficient(
            ops.multiply(z, ops.char(U)) - ops.multiply(ops.char(U), z)
        )
        <= tol
        for U in P
    )


class FrozensetShift:
    """Sets of the compactified shift as (frozenset F, cofinite): the
    set is F, or its complement together with the point "inf" when
    cofinite.  Each operation works on the points of F."""

    INF = "inf"
    INFS = (INF,)

    @staticmethod
    def make(points, cofinite=False):
        return (frozenset(points), bool(cofinite))

    @staticmethod
    def contains_point(d, p):
        fs, c = d
        if p == FrozensetShift.INF:
            return c
        return (p in fs) != c

    @staticmethod
    def _combine(da, db, op):
        (fa, ca), (fb, cb) = da, db
        c = op(ca, cb)
        # a point outside fa | fb is in each set exactly when its flag is
        fs = fa | fb
        return (
            frozenset(p for p in fs if op((p in fa) != ca, (p in fb) != cb) != c),
            c,
        )

    @staticmethod
    def union(da, db):
        return FrozensetShift._combine(da, db, lambda x, y: x or y)

    @staticmethod
    def intersect(da, db):
        return FrozensetShift._combine(da, db, lambda x, y: x and y)

    @staticmethod
    def complement(d):
        return (d[0], not d[1])

    @staticmethod
    def apply_h(d, n):
        return (frozenset(p + n for p in d[0]), d[1])

    @staticmethod
    def sort_key(d):
        fs, c = d
        return (c, len(fs), tuple(sorted(fs)))

    @staticmethod
    def set_to_dict(d):
        return {"F": sorted(d[0]), "cofinite": d[1]}

    @staticmethod
    def sample_points(d, count):
        fs, c = d
        if not c:
            return sorted(fs)
        out = [FrozensetShift.INF]
        lo = min(fs, default=0) - 1
        hi = max(fs, default=0) + 1
        for i in range(count):
            if (lo - i) not in fs:
                out.append(lo - i)
            if (hi + i) not in fs:
                out.append(hi + i)
        return out

    @staticmethod
    def scale(d):
        return max((abs(p) for p in d[0]), default=0) + 1

    @staticmethod
    def atom_scale(ds):
        return max((FrozensetShift.scale(d) for d in ds), default=1)


class FrozensetTwoPoint:
    """Sets of the two-point shift as (frozenset F, tail_minus,
    tail_plus): an integer q is in the set when q in F differs from the
    flag of its side, tail_minus for q < 0 and tail_plus for q >= 0;
    "-inf" is in it iff tail_minus, "+inf" iff tail_plus.  Each
    operation works on the points of F, and apply_h on the integers
    between 0 and n as well."""

    INFS = ("-inf", "+inf")

    @staticmethod
    def make(diff, tail_minus=False, tail_plus=False):
        return (frozenset(diff), bool(tail_minus), bool(tail_plus))

    @staticmethod
    def contains_point(d, p):
        fs, tm, tp = d
        if p == "-inf":
            return tm
        if p == "+inf":
            return tp
        return (p in fs) != (tm if p < 0 else tp)

    @staticmethod
    def _combine(da, db, op):
        tm, tp = op(da[1], db[1]), op(da[2], db[2])
        # a point outside both F is in each set exactly when its side's
        # flag is
        inside = FrozensetTwoPoint.contains_point
        return (
            frozenset(
                p for p in da[0] | db[0]
                if op(inside(da, p), inside(db, p)) != (tm if p < 0 else tp)
            ),
            tm,
            tp,
        )

    @staticmethod
    def union(da, db):
        return FrozensetTwoPoint._combine(da, db, lambda x, y: x or y)

    @staticmethod
    def intersect(da, db):
        return FrozensetTwoPoint._combine(da, db, lambda x, y: x and y)

    @staticmethod
    def complement(d):
        fs, tm, tp = d
        return (fs, not tm, not tp)

    @staticmethod
    def apply_h(d, n):
        fs, tm, tp = d
        lo, hi = (n, 0) if n < 0 else (0, n)
        diff = set()
        for x in {p + n for p in fs} | set(range(lo, hi)):
            inside = ((x - n) in fs) != (tm if x - n < 0 else tp)
            if inside != (tm if x < 0 else tp):
                diff.add(x)
        return (frozenset(diff), tm, tp)

    @staticmethod
    def sort_key(d):
        fs, tm, tp = d
        return (tm, tp, len(fs), tuple(sorted(fs)))

    @staticmethod
    def set_to_dict(d):
        fs, tm, tp = d
        return {"F": sorted(fs), "tail_minus": tm, "tail_plus": tp}

    @staticmethod
    def sample_points(d, count):
        fs, tm, tp = d
        lo = min(fs, default=0) - 1
        hi = max(fs, default=0) + 1
        out = [n for n in range(lo - count, hi + count + 1)
               if FrozensetTwoPoint.contains_point(d, n)]
        if tm:
            out.append("-inf")
        if tp:
            out.append("+inf")
        return out

    @staticmethod
    def scale(d):
        return max((abs(p) for p in d[0]), default=0) + 1

    @staticmethod
    def atom_scale(ds):
        return max((FrozensetTwoPoint.scale(d) for d in ds), default=1)


# ---------------------------------------------------------------------------
# frozen-dataclass twins of the value classes
# ---------------------------------------------------------------------------
#
# Each twin has the name and the fields, in order, of one value class of
# the package, as that class was declared when it was a frozen
# dataclass.  A twin built from an object's field values has the hash and
# repr the object had then, and twins compare as those objects did.


@dataclass(frozen=True)
class ClopenSet:
    spec: object
    data: object


@dataclass(frozen=True)
class SystemSpec:
    pass


@dataclass(frozen=True)
class FiniteCycle(SystemSpec):
    period: int


@dataclass(frozen=True)
class Odometer(SystemSpec):
    base: int = 2


@dataclass(frozen=True)
class CompactifiedShift(SystemSpec):
    pass


@dataclass(frozen=True)
class TwoPointShift(SystemSpec):
    pass


@dataclass(frozen=True)
class QuotientProduct(SystemSpec):
    fiber: object


@dataclass(frozen=True)
class Tower:
    Y: object
    J: int


@dataclass(frozen=True)
class ReturnDecomposition:
    base: object
    classes: tuple


@dataclass(frozen=True)
class ReturnSystem:
    spec: object
    bases: tuple
    towers: tuple


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple


@dataclass(frozen=True)
class FiberwiseReport:
    verdict: bool
    depth: int
    z_witnesses: tuple
    failure_witness: object = None


@dataclass(frozen=True)
class CPElement:
    spec: object
    terms: tuple


@dataclass(frozen=True)
class ProofElements:
    v1: object
    v2: object
    u2: object
    Y: object


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple


@dataclass(frozen=True)
class ATDescriptor:
    blocks: tuple


@dataclass(frozen=True)
class CompactMatrixRep:
    spec: object
    points: tuple
    matrix: object


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


VALUE_TWINS = {
    cls.__name__: cls
    for cls in (
        ClopenSet, SystemSpec, FiniteCycle, Odometer, CompactifiedShift,
        TwoPointShift, QuotientProduct, Tower, ReturnDecomposition,
        ReturnSystem, ValidationReport, FiberwiseReport, CPElement,
        ProofElements, SuiteReport, ATDescriptor, CompactMatrixRep,
        BergReport,
    )
}


def value_twin(obj):
    """The twin of a value object, built from its field values."""
    twin = VALUE_TWINS[type(obj).__name__]
    return twin(*(getattr(obj, f.name) for f in fields(twin)))


# ---------------------------------------------------------------------------
# checkers and round trips over the package's set operations
# ---------------------------------------------------------------------------


class BaseMismatch(errors.ZdsysError):
    """Two systems do not have the same union of bases."""


class InvalidFiberPoint(errors.ZdsysError):
    """The requested point is not in the quotient base space."""


def validate_system(S, P):
    """Check the defining conditions of a return system; per-condition
    pass/fail entries with a witness set for each failure.  A system
    that build_from_bases returns meets them all (the lemma in its
    docstring); this checks systems built any other way."""

    def entry(condition, witnesses):
        # the first witness of a failure, if any; witnesses are sets
        witness = next(witnesses, None)
        return (condition, witness is None, witness)

    def return_failures():
        for X_t, tws in zip(S.bases, S.towers):
            for c in tws:
                top = space.apply_h(c.Y, c.J)
                if c.J < 1 or not space.is_subset(top, X_t):
                    yield top
                for j in range(1, c.J):
                    meet = space.intersect(space.apply_h(c.Y, j), X_t)
                    if not space.is_empty(meet):
                        yield meet
            tops = [space.apply_h(c.Y, c.J) for c in tws]
            if not space.is_partition(tops, X_t):
                yield X_t

    def cover_failures():
        levels = towers.tower_levels(S)
        if not space.is_partition(levels):
            yield space.partition_witness(S.spec, levels)

    pairs = list(zip(S.bases, S.towers))
    return towers.ValidationReport((
        ("a", S.T >= 1, None),
        entry("b", (X for X in S.bases
                    if space.common_refinement((X,), P) != (X,))),
        entry("c", (X for X, tws in pairs if not tws)),
        entry("d", (X for X, tws in pairs
                    if not space.is_partition([c.Y for c in tws], X))),
        entry("e", return_failures()),
        entry("f", cover_failures()),
    ))


def finer_system_criterion(S, S2):
    """True iff every tower slice of S2 is contained in a tower slice of S.
    Requires the two systems to have the same union of bases.  The slices
    of S are pairwise disjoint, as the bases are and slices tile each base."""
    empty = space.empty_set(S.spec)
    if space.union(empty, *S.bases) != space.union(empty, *S2.bases):
        raise BaseMismatch("systems have different base unions")
    slices = [c.Y for tws in S.towers for c in tws]
    pieces = [c.Y for tws in S2.towers for c in tws]
    return space.common_refinement(pieces, slices) == tuple(pieces)


def refine_system(S, P_target):
    """Split every tower slice Y into the nonempty sets
    Y & h^0(U_0) & ... & h^-J(U_J) with each U_j in the partition
    P_target, so that all its levels h^j(Y), j = 0..J, land inside single
    elements of P_target.  Bases and return times are unchanged.
    The pieces are carried up each tower: the cells of Y by P_target,
    then of h(W) for each piece W, up to level J.
    Lemma: h(h^j(V)) & U = h^(j+1)(V & h^-(j+1)(U)), so by induction
    the top pieces are h^J of the sets above; canonical forms are
    unique and _sorted_towers fixes the order.  The lemma of
    towers.adapted_system_pair says that refining its S by P and its S2
    by h(R) changes neither."""
    if not space.is_partition(list(P_target)):
        raise ValueError("P_target must be a partition")

    def split(c):
        pieces = space.common_refinement((c.Y,), P_target)
        for _ in range(c.J):
            pieces = space.common_refinement(
                [space.apply_h(W, 1) for W in pieces], P_target
            )
        return [towers.Tower(space.apply_h(W, -c.J), c.J) for W in pieces]

    new_towers = tuple(
        towers._sorted_towers(piece for c in tws for piece in split(c))
        for tws in S.towers
    )
    return towers.ReturnSystem(S.spec, S.bases, new_towers)


def meets_minimal_sets(X_t, Y):
    """Does Y meet the known minimal set of every fiber that X_t meets?
    That set is {inf} on the compactified shift, {inf} and the fibers'
    own on a quotient, and the whole space elsewhere."""
    spec = X_t.spec
    if spec.family == space.COMPACTIFIED_SHIFT and space.contains_point(
        X_t, space.INF
    ):
        return space.contains_point(Y, space.INF)
    if spec.family != space.QUOTIENT_PRODUCT:
        return not space.is_empty(Y)
    if space.contains_point(X_t, space.INF) and not space.contains_point(
        Y, space.INF
    ):
        return False
    keys = {k for k, _ in X_t.data[1]} | {k for k, _ in Y.data[1]}
    if X_t.data[0]:  # one fiber off the stored slices
        keys.add(max((abs(k) for k in keys), default=0) + 1)
    return all(
        meets_minimal_sets(spec.slice(X_t.data, k), spec.slice(Y.data, k))
        for k in keys
        if not space.is_empty(spec.slice(X_t.data, k))
    )


def adapted_pair_failures(S, P, N):
    """The postconditions among a, b and d of towers.adapted_system_pair
    that its first system S fails for the partition P and length N, by
    brute force.  a: every leading slice meets the known minimal set of
    every fiber that its base meets.  b: h^n(X_t) lies in one cell of P
    for n = 0..N-1.  d: the nonempty iterates h^i of the hat bases,
    i = 0..N, are pairwise disjoint."""
    failed = []
    if not all(meets_minimal_sets(X_t, tws[0].Y)
               for X_t, tws in zip(S.bases, S.towers)):
        failed.append("a")
    images = [space.apply_h(X_t, n) for X_t in S.bases for n in range(N)]
    if not is_finer(images, P, space):
        failed.append("b")
    hats = [towers.hat_base(S, t) for t in range(S.T)]
    iters = [space.apply_h(X, i) for X in hats if not space.is_empty(X)
             for i in range(N + 1)]
    if any(not space.is_empty(space.intersect(A, B))
           for A, B in combinations(iters, 2)):
        failed.append("d")
    return failed


def system_from_dict(spec, d):
    """The inverse of towers.system_to_dict, which the tower report
    writes."""
    bases = tuple(space.from_dict(spec, b) for b in d["bases"])
    tws = tuple(
        towers._sorted_towers(
            towers.Tower(space.from_dict(spec, c["Y"]), int(c["J"]))
            for c in ts
        )
        for ts in d["towers"]
    )
    return towers.ReturnSystem(spec, bases, tws)


def from_dict(spec, d):
    """The inverse of cpalgebra.to_dict, which identity-suite reports
    use."""
    terms = {}
    for t in d["terms"]:
        terms[int(t["n"])] = [
            (
                complex(item["re"], item.get("im", 0.0)),
                space.from_dict(spec, item["set"]),
            )
            for item in t["coeff"]
        ]
    return cp.cp_element(spec, terms)


def zero(spec):
    return cp.CPElement(spec, ())


def unit(spec, c, i, j):
    """The matrix unit e_ij of the tower c: chi_{h^i(Y)} u^(i-j)
    restricted to land on chi_{h^j(Y)}, which collapses to
    chi_{h^i(Y)} times u^(i-j)."""
    return cp.cp_element(spec, {i - j: [(1, space.apply_h(c.Y, i))]})


def matrix_units(S):
    """All the tower matrix units, e[(t, k, i, j)] = e_ij of tower k over
    base t.  The identity suite does not read them: the relations they
    satisfy follow from the unitarity of v1 (see identity_suite)."""
    return {
        (t, k, i, j): unit(S.spec, c, i, j)
        for t, tws in enumerate(S.towers)
        for k, c in enumerate(tws)
        for i in range(c.J)
        for j in range(c.J)
    }


def uhat(S, u2):
    """The correction unitary that commutes with the leading tower
    units, built over all the levels: the sum of e_(j,J-1) u2 e_(J-1,j)
    over the levels j of the leading towers of S, and 1 off them, with
    2 sum J products.  proof_unitaries and identity_suite read what they
    need of it off u2, by the lemmas in their docstrings."""
    spec = S.spec
    leads = [tws[0] for tws in S.towers]
    levels = [space.apply_h(c.Y, j) for c in leads for j in range(c.J)]
    off = space.complement(space.union(space.empty_set(spec), *levels))
    return cp.add(
        *(cp.multiply(cp.multiply(unit(spec, c, j, c.J - 1), u2),
                      unit(spec, c, c.J - 1, j))
          for c in leads for j in range(c.J)),
        cp.char(off),
    )


def fiber_restrict(a, z):
    """Restrict an element of a quotient-product system to the fiber over
    z, an integer or inf; a system with a single fiber takes only z = 0."""
    spec = a.spec
    if spec.family != space.QUOTIENT_PRODUCT:
        if z != 0:
            raise InvalidFiberPoint("system has a single fiber, use z = 0")
        fiber, restrict = spec, lambda E: E
    elif z == space.INF:
        fiber = space.finite_cycle(1)
        whole, empty = space.whole_space(fiber), space.empty_set(fiber)

        def restrict(E):
            return whole if space.contains_point(E, space.INF) else empty
    elif not isinstance(z, int):
        raise InvalidFiberPoint("fiber index must be an integer or inf")
    else:
        fiber, restrict = spec.fiber, lambda E: spec.slice(E.data, z)
    terms = {n: [(c, restrict(E)) for c, E in sf] for n, sf in a.terms}
    return cp.cp_element(fiber, terms)


EXACT_SCALARS = (0, 1, -1, 1j, -1j)


def has_exact_scalars(a):
    return all(c in EXACT_SCALARS for _, sf in a.terms for c, _ in sf)


def is_unitary(a):
    """a a* = a* a = 1 by brute force, two products: exactly when the
    scalars of a are exact, else to 1e-12.  proof_unitaries checks its
    unitaries by the set tests of its lemmas instead."""
    star = cp.adjoint(a)
    e = cp.one(a.spec)
    products = (cp.multiply(a, star), cp.multiply(star, a))
    if has_exact_scalars(a):
        return all(p == e for p in products)
    return all(cp.equals_approx(p, e) for p in products)
