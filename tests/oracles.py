"""Independent brute-force oracles.

Everything here is computed from first principles with the standard
library only (fractions, itertools, cmath), without touching the main
implementation, so the tests can compare two genuinely different routes
to the same value.  Functions that need the dynamics take it as
callables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations


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
    u1: object
    v2: object
    u2: object
    uhat: object
    Y: object
    Xhat: tuple


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
