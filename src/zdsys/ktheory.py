"""Partition-level K-theory bookkeeping: indicator classes in the
partition basis, the induced matrix of the dynamics, Smith normal form
over the integers, kernel/cokernel presentations at a level, connecting
maps between levels, and classes of invariant projections.

All arithmetic is arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import space
from .errors import NeedsRefinement, NotFiner, NotInvariant, NotMeasurable
from .space import (
    apply_h,
    common_refinement,
    is_empty,
    is_subset,
)


@dataclass(frozen=True)
class K0Level:
    """A partition of the space, used as a free basis of indicator classes."""

    partition: tuple

    def __post_init__(self):
        if len(self.partition) < 1:
            raise ValueError("level needs a nonempty partition")

    @property
    def rank(self):
        return len(self.partition)


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


def k0_class(E, level):
    """Indicator vector of a partition-measurable clopen set."""
    vec = []
    for cell in level.partition:
        if is_subset(cell, E):
            vec.append(1)
        elif is_empty(space.intersect(cell, E)):
            vec.append(0)
        else:
            raise NotMeasurable("set straddles a partition element")
    return tuple(vec)


def alpha_star(level):
    """Matrix of the induced map on indicator classes.

    Square 0/1 matrix M with M[i][j] = 1 iff cell_i is contained in
    h(cell_j), when h maps every cell to a union of cells.  Otherwise
    returns (finer level, inclusion, alpha) over the common refinement
    of the partition and its image.
    """
    P = level.partition
    images = [apply_h(c, 1) for c in P]
    square = all(
        any(is_subset(c, img) for img in images) for c in P
    )
    if square:
        return int_matrix(
            [
                [1 if is_subset(ci, images[j]) else 0 for j in range(len(P))]
                for ci in P
            ]
        )
    fine = K0Level(common_refinement(P, tuple(images)))
    inclusion = connecting_map(level, fine)
    alpha = int_matrix(
        [
            [
                1 if is_subset(cell, images[j]) else 0
                for j in range(len(P))
            ]
            for cell in fine.partition
        ]
    )
    return fine, inclusion, alpha


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


def pv_level(level):
    """Kernel/cokernel presentation of id minus the induced matrix at
    this level: k1 is the kernel rank, k0 the cokernel presentation."""
    result = alpha_star(level)
    if isinstance(result, tuple):
        fine, inclusion, alpha = result
        raise NeedsRefinement(
            "induced map is not square at this level",
            finer_level=fine,
            inclusion=inclusion,
            alpha=alpha,
        )
    n = level.rank
    A = mat_sub(identity_matrix(n), result)
    _, D, _ = smith_normal_form(A)
    diag = [D[(i, i)] for i in range(min(D.rows, D.cols))]
    k1_rank = sum(1 for d in diag if d == 0) + (A.cols - len(diag))
    k0_rank = A.rows - sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d > 1]
    return {
        "k1_rank": k1_rank,
        "k1_torsion": [],
        "k0_presentation": (k0_rank, torsion),
    }


def connecting_map(coarse, fine):
    """0/1 matrix expressing each coarse class as a sum of fine classes;
    entry [i][j] = 1 iff fine cell j is inside coarse cell i."""
    if not all(
        any(is_subset(c, d) for d in coarse.partition) for c in fine.partition
    ):
        raise NotFiner("second level does not refine the first")
    return int_matrix(
        [
            [1 if is_subset(cf, cc) else 0 for cf in fine.partition]
            for cc in coarse.partition
        ]
    )


def delta_class(E, level):
    """Class of the invariant projection chi_E, as seen through the
    index map of the one-dimensional class it exponentiates to."""
    if apply_h(E, 1) != E:
        raise NotInvariant("set is not invariant under the dynamics")
    return k0_class(E, level)


def level_report(level, n):
    data = pv_level(level)
    rank, torsion = data["k0_presentation"]
    return {
        "level": n,
        "k1": {"rank": data["k1_rank"]},
        "k0": {"rank": rank, "torsion": list(torsion)},
    }
