"""Finite matrix representations of compactly supported elements,
operator norms, unitary N-th roots, block cutdown estimates, and the
end-to-end verification that the approximant unitary z v1 u2 z* is
epsilon-close to the implementing unitary u.

An element's matrix is built once, on the points its entries sit on:
each piece places its scalar at the entries it covers.  The block cutdowns
of the Berg check are then slices of that one matrix, with rows and
columns labelled by the blocks that hold their points, and no cutdown
is formed as a symbolic element.

Matrices are sparse: a shape and a dict of the stored entries, and
everything here is computed in pure Python.  The corner unitary that
`berg` takes a root of permutes the points of Y, and the root of a
permutation is explicit on each of its cycles; no other unitary is
accepted.  The matrices that it takes norms of split into independent
blocks of at most two rows and two columns (Lemma 2 of
operator_norm), and each block has a closed-form norm.
"""

from __future__ import annotations

import cmath
import math

from . import cpalgebra as cp
from . import space
from .errors import (
    DegenerateEigenbasis,
    NoConvergence,
    NotCompactlySupported,
    PartitionFailure,
)
from .space import (
    apply_h,
    contains_point,
    disjoint_union,
    enumerate_points,
    intersect,
    is_empty,
    point_apply_h,
)
from .towers import adapted_system_pair


# ---------------------------------------------------------------------------
# matrix representation
# ---------------------------------------------------------------------------


class SparseMatrix:
    """A matrix as its shape and a dict {(row, col): value} of its stored
    entries; an entry that is not stored is 0."""

    __slots__ = ("shape", "entries")
    __hash__ = None

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = entries

    def __repr__(self):
        return "SparseMatrix(%r, %r)" % (self.shape, self.entries)

    @classmethod
    def identity(cls, n):
        return cls((n, n), {(i, i): 1 + 0j for i in range(n)})

    def __sub__(self, other):
        entries = dict(self.entries)
        for ij, c in other.entries.items():
            entries[ij] = entries.get(ij, 0j) - c
        return SparseMatrix(self.shape, entries)

    def __matmul__(self, other):
        by_row = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        entries = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                entries[i, j] = entries.get((i, j), 0j) + a * b
        return SparseMatrix((self.shape[0], other.shape[1]), entries)


def _point_key(p):
    if isinstance(p, tuple):
        return (1, p[0], _point_key(p[1]))
    return (0, p, 0)


class CompactMatrixRep(space.Record):
    spec: space.SystemSpec
    points: tuple
    matrix: SparseMatrix


def represent(a, points=None):
    """Matrix of the element on the finitely many points it touches.

    Entry [x, y] is the sum over n of f_n(x) when h^n(y) = x.  Each
    piece (c, E) of f_n places c at [x, h^-n(x)] for every point x of E
    whose preimage is in the window as well, the terms taken in
    increasing n.  The pieces of one term are disjoint, so an entry
    takes at most one addition per term, and every entry is a complex
    sum started at 0j.  Unless explicit points are given, the window is
    the points the entries sit on, each x and its h^-n(x), found in the
    walk that places the entries and sorted by _point_key.  Either way
    every piece must be a finite point set; a cofinite one raises
    NotCompactlySupported.

    The piece supports widened by the largest |n| either way contain
    this window and sort the same way.  Every entry has both ends in
    both windows and is summed in the same order, and the points outside
    this one carry only zero rows and columns.  operator_norm reads
    blocks in window order, so its floats, and cutdown_check's labels,
    offending pair and norms, are the same on both.
    """
    spec = a.spec
    moves = [
        (x, point_apply_h(spec, x, -n), c)
        for n, sf in a.terms
        for c, E in sf
        for x in enumerate_points(E)
    ]
    if points is None:
        points = sorted({p for m in moves for p in m[:2]}, key=_point_key)
    else:
        points = list(points)
    index = {p: i for i, p in enumerate(points)}
    entries = {}
    for x, y, c in moves:
        i, j = index.get(x), index.get(y)
        if i is not None and j is not None:
            entries[i, j] = entries.get((i, j), 0j) + c
    n = len(points)
    return CompactMatrixRep(spec, tuple(points), SparseMatrix((n, n), entries))


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def _blocks(entries):
    """The ((row, col), value) entries grouped into blocks, each sorted
    in window order: a row and a column are in one block when a chain of
    entries links them."""
    parent = {}

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    for (i, j), _ in entries:
        r, c = find((0, i)), find((1, j))
        if r != c:
            parent[r] = c
    blocks = {}
    for e in entries:
        blocks.setdefault(find((0, e[0][0])), []).append(e)
    return [sorted(b) for b in blocks.values()]


def _block_norm(block):
    rows = {i for (i, _), _ in block}
    cols = {j for (_, j), _ in block}
    if len(rows) == 1 or len(cols) == 1:
        return math.hypot(*[x for _, c in block for x in (c.real, c.imag)])
    if len(rows) > 2 and len(cols) > 2:
        raise ValueError("block has more than two rows and two columns")
    # the two lines of the block's shorter side, its rows or its columns;
    # the entries are scaled by a power of two, exactly, so no square
    # overflows
    side = 0 if len(rows) == 2 else 1
    e = math.frexp(max(max(abs(c.real), abs(c.imag)) for _, c in block))[1]
    lines = {}
    for ij, c in block:
        lines.setdefault(ij[side], {})[ij[1 - side]] = complex(
            math.ldexp(c.real, -e), math.ldexp(c.imag, -e)
        )
    x, y = (lines[k] for k in sorted(lines))
    g11 = sum(c.real * c.real + c.imag * c.imag for c in x.values())
    g22 = sum(c.real * c.real + c.imag * c.imag for c in y.values())
    g12 = abs(sum(c * y[k].conjugate() for k, c in x.items() if k in y))
    top = (g11 + g22) / 2 + math.hypot((g11 - g22) / 2, g12)
    return math.ldexp(math.sqrt(top), e)


# Tolerances: unitary_nth_root accepts a root W when W^N - V has
# Frobenius norm at most _ROOT_TOL; berg_verify ignores coefficients of
# z up to _Z_TOL; cutdown_check ignores pieces with |c| up to _COEFF_TOL
# and allows the total norm _NORM_SLACK above the largest block norm.
_ROOT_TOL = 1e-10
_Z_TOL = 1e-10
_COEFF_TOL = 1e-12
_NORM_SLACK = 1e-9


def operator_norm(M):
    """Largest singular value of a SparseMatrix or a CompactMatrixRep.

    Lemma 1: link row i and column j when entry [i, j] is nonzero, and
    call the rows and columns of one connected component a block.  Up
    to a permutation of the rows and of the columns, M is the direct
    sum of its blocks and of a zero matrix, so M*M is the direct sum of
    the blocks' B*B and a zero matrix, and the norm of M is the largest
    block norm (0 when there is no block).

    - A block with one row or one column is a vector; its norm is the
      Euclidean norm, from math.hypot.
    - A block with two rows or two columns has the 2 x 2 Gram matrix
      G = B B* or B* B, whose larger eigenvalue is
      (g11 + g22)/2 + hypot((g11 - g22)/2, |g12|).  Both terms are
      non-negative, so nothing cancels, also where the two singular
      values agree.
    - A block with three or more rows and three or more columns raises
      ValueError, as berg_verify forms none, by Lemma 2.

    Past one line, the entries are scaled by a power of two, exactly,
    so no square overflows.  Each block's entries are read in window
    order, so a block's norm is a function of its values alone: a slice
    of a matrix and a matrix with the same nonzero block give the same
    float.  A matrix with a NaN or infinite entry raises NoConvergence.

    Lemma 2: every block of the matrices whose norms berg_verify takes,
    W - 1, d = u' - u and the cutdowns of d, has at most two rows and
    two columns.  A fiber is the points (k, p) with one k, or inf, on a
    quotient product, and X on the other families.  Every element here
    is a sum of pieces c chi_E u^n, and h keeps each fiber, so no entry
    couples two fibers.  By the adapted_bases docstrings, Y has at most
    two points in each fiber, and Q = v1 v2* permutes the points of Y
    and is 1 off Y.  By postcondition d of towers.adapted_system_pair,
    the sets p_m = h^m(Y), 0 <= m <= N, are pairwise disjoint, and so
    are p_-1, ..., p_(N-1).
    - W - 1.  V = chi_Y Q* chi_Y permutes the points of Y in each fiber,
      so its cycles have at most two points, and W and W - 1 have no
      entry outside the squares of the cycles.
    - d.  u' = z (v1 u2) z* = z Q u z*, as u2 = v2* u.  Q u sends p_m
      onto p_(m+1) for -1 <= m < N, as Q permutes p_0 and is 1 on
      p_1, ..., p_N.  z sends each p_j, j < N, into itself and is 1 off
      their union L (_interpolating_unitary), and so does z*.  So for y
      in p_m, -1 <= m < N, column y of u' has its entries in the rows
      p_(m+1), as column y of u has.  For y off p_-1 and L, z* is 1 at
      y, Q u sends y to h(y), which is off p_0 and L, and z is 1 at
      h(y): column y of u' is the single product 1 * 1 * 1 = 1 at row
      h(y), as in u, so column y of d is 0.  So every entry of d lies in
      a rectangle p_(m+1) x p_m, -1 <= m < N, no two of which share a
      row or a column: each block of d lies in one rectangle and one
      fiber.  d has no entry on the rest of X, whose pair comes last in
      _berg_blocks.
    - A cutdown keeps some of the entries of d, so each of its blocks
      lies in a block of d."""
    if isinstance(M, CompactMatrixRep):
        M = M.matrix
    entries = [(ij, c) for ij, c in M.entries.items() if c != 0]
    if not all(cmath.isfinite(c) for _, c in entries):
        raise NoConvergence("matrix has a NaN or infinite entry")
    return max(map(_block_norm, _blocks(entries)), default=0.0)


# ---------------------------------------------------------------------------
# unitary N-th root
# ---------------------------------------------------------------------------


def _cycles(V):
    """The cycles [s_0, s_1, ...], V e_{s_t} = e_{s_{t+1}}, of the
    permutation matrix V, or None if V is not one: each row and each
    column must hold exactly one nonzero entry, and it must be 1."""
    image = {}
    for (i, j), c in V.entries.items():
        if c != 0:
            if c != 1 or j in image:
                return None
            image[j] = i
    n = V.shape[0]
    if len(image) != n or len(set(image.values())) != n:
        return None
    cycles, seen = [], set()
    for s in range(n):
        cycle = []
        while s not in seen:
            seen.add(s)
            cycle.append(s)
            s = image[s]
        if cycle:
            cycles.append(cycle)
    return cycles


def _cycle_root(L, N):
    """[c_0, ..., c_{L-1}], c_d = W[s_{t+d}, s_t] for the principal N-th
    root W of the cyclic shift on L points."""
    # theta_k = 2 pi k/L wrapped into (-pi, pi]; at 2k = L the quotient
    # below is 1.0 exactly, so theta_k is pi
    roots = [
        cmath.exp(1j * math.pi * (2 * (k if 2 * k <= L else k - L) / L) / N)
        for k in range(L)
    ]
    return [
        sum(roots[k] * cmath.exp(-2j * math.pi * (k * d % L) / L)
            for k in range(L)) / L
        for d in range(L)
    ]


def _power(W, m):
    """W^m for m >= 0, by repeated squaring."""
    P = SparseMatrix.identity(W.shape[0])
    while m:
        if m & 1:
            P = P @ W
        W = W @ W
        m >>= 1
    return P


def unitary_nth_root(V, N):
    """The N-th root of a unitary through the principal branch: each
    eigenvalue e^{i theta}, theta in (-pi, pi], becomes e^{i theta/N}.
    The result is a function of V and satisfies |W - 1| <= pi/N.

    V must be a SparseMatrix that permutes its basis: exactly one
    nonzero entry in each row and each column, and that entry 1.  Any
    other V raises ValueError.  Such a V is unitary exactly, and its
    root is explicit on each cycle s_0 -> s_1 -> ... -> s_{L-1} -> s_0:
    on the span of e_{s_0}, ..., e_{s_{L-1}}, V is the cyclic shift,
    with the eigenvectors sum_t e^{-2 pi i k t/L} e_{s_t} for the
    eigenvalues e^{i theta_k}, theta_k = 2 pi k/L wrapped into
    (-pi, pi].  So W[s_{t+d}, s_t] = (1/L) sum_k e^{i theta_k/N}
    e^{-2 pi i k d/L}, and theta_k = pi exactly for k = L/2.  W^N is
    checked against V in the Frobenius norm, which bounds the operator
    norm from above; a miss over _ROOT_TOL raises DegenerateEigenbasis."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not isinstance(V, SparseMatrix) or V.shape[0] != V.shape[1]:
        raise ValueError("V must be a square SparseMatrix")
    n = V.shape[0]
    cycles = _cycles(V)
    if cycles is None:
        raise ValueError("V must be a permutation matrix")
    entries = {}
    for cycle in cycles:
        L = len(cycle)
        for d, c in enumerate(_cycle_root(L, N)):
            for t, s in enumerate(cycle):
                entries[cycle[(t + d) % L], s] = c
    W = SparseMatrix((n, n), entries)
    miss = math.hypot(*map(abs, (_power(W, N) - V).entries.values()))
    if miss > _ROOT_TOL:
        raise DegenerateEigenbasis("root verification failed")
    return W


# ---------------------------------------------------------------------------
# block cutdown estimate
# ---------------------------------------------------------------------------


def _cell_labels(cells, points):
    """Map each point to the index of the cell that holds it; the cells
    partition X, so there is exactly one.  A cell that is a finite point
    set labels its own points, and only the points left over are tested
    against the other cells, such as the rest of X."""
    labels = {}
    others = []
    for k, C in enumerate(cells):
        try:
            labels.update(dict.fromkeys(enumerate_points(C), k))
        except NotCompactlySupported:
            others.append((k, C))
    return {
        x: labels[x] if x in labels else next(
            k for k, C in others if contains_point(C, x)
        )
        for x in points
    }


def cutdown_check(a, blocks):
    """Verify that a is block-diagonal for the given (p, q) projection
    pairs and that its norm is at most the largest block norm.

    Every cutdown is read off one matrix M = represent(a).  Each window
    point x gets a row label, the index of the p holding it, and a
    column label, the index of the q holding it.

    A piece c chi_E u^n of a survives in chi_p a chi_q as the piece
    c chi_{E & p & h^n(q)} u^n, which is nonzero at x exactly when x is
    in E and p and h^-n(x) is in q.  So the offending pair, the least
    (i, j), i != j, for which some piece with |c| > _COEFF_TOL meets
    p_i & h^n(q_j), is the least (row(x), column(h^-n(x))) off the
    diagonal over the points x of such pieces.  This is read off the
    pieces, not the entries of M: on a periodic orbit the terms n and
    n + period add up in one entry.

    Entry [x, y] of chi_p a chi_q is the same sum over n, in the same
    order, as entry [x, y] of M when x is in p and y in q, and 0
    otherwise.  So block k's matrix is M with every entry outside the
    rows labelled k and the columns labelled k left out, on the same
    window.  operator_norm reads each of its blocks in window order, so
    the block norms are those of the symbolic cutdowns, float for
    float."""
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
        if abs(c) > _COEFF_TOL
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
    cutdowns = [{} for _ in blocks]
    for (i, j), c in rep.matrix.entries.items():
        k = row[rep.points[i]]
        if k == col[rep.points[j]]:
            cutdowns[k][i, j] = c
    block_norms = [
        operator_norm(SparseMatrix(rep.matrix.shape, e)) for e in cutdowns
    ]
    total = operator_norm(rep)
    bound = max(block_norms, default=0.0) + _NORM_SLACK
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
    plus 1 off those levels, for W a SparseMatrix on the points of Y.

    For x, y in Y the entry (W^{N-j})_{xy} chi_x u^{x-y} conjugates to
    (W^{N-j})_{xy} chi_{h^j x} u^{x-y}, so z is built in one step from
    the entries, taken in row-major order.  The powers are sparse
    products.  Entries of modulus at most 1e-15 are dropped."""
    spec = Y.spec
    powers = [SparseMatrix.identity(len(y_points))]
    for _ in range(N):
        powers.append(powers[-1] @ W)
    singletons = [spec.singleton(x) for x in y_points]
    terms = {}
    for j in range(N):
        for (r, s), c in sorted(powers[N - j].entries.items()):
            if abs(c) <= 1e-15:
                continue
            n = spec.displacement(y_points[r], y_points[s])
            if n is None:
                raise DegenerateEigenbasis(
                    "matrix couples points of different fibers"
                )
            terms.setdefault(n, []).append((c, apply_h(singletons[r], j)))
    covered = space.union(space.empty_set(spec),
                          *(apply_h(Y, j) for j in range(N)))
    terms.setdefault(0, []).append((1, space.complement(covered)))
    return cp.cp_element(spec, terms)


def _commutes_with_cells(z, P):
    """z_commutes_ok of berg_verify, by the lemma there: False iff, for
    some term n != 0 of z and cell U of P, the union E of the term's
    sets with |c| > _Z_TOL meets the symmetric difference of U and h^n U,
    that is, iff E & U != E & h^n U."""
    spec = z.spec
    for n, sf in z.terms:
        if n == 0:
            continue
        # the sets of one term are disjoint
        E = disjoint_union(spec, [F for c, F in sf if abs(c) > _Z_TOL])[0]
        for U in P:
            if intersect(E, U) != intersect(E, apply_h(U, n)):
                return False
    return True


def _berg_blocks(Y, N):
    """The (p, q) pairs of the cutdown check: (h^n Y, h^(n-1) Y) for
    n = 1..N, (Y, h^N Y), (h^-1 Y, h^-1 Y) and the rest of X twice."""
    blocks = [(apply_h(Y, n), apply_h(Y, n - 1)) for n in range(1, N + 1)]
    blocks.append((Y, apply_h(Y, N)))
    blocks.append((apply_h(Y, -1), apply_h(Y, -1)))
    lo = space.union(*(apply_h(Y, j) for j in range(-1, N + 1)))
    rest = space.complement(lo)
    blocks.append((rest, rest))
    return blocks


def berg_verify(spec, P, N, epsilon, max_steps=None):
    """Build an adapted pair for (P, N), interpolate its unitaries with
    an N-th root, and measure how far the result is from u.

    v1 and v2 are sums of matrix units with coefficient 1, so the corner
    V = chi_Y v2 v1* chi_Y permutes the points of Y, which is what
    unitary_nth_root asks of it: the root is taken cycle by cycle.  The
    matrices whose norms are taken here split into blocks of at most two
    rows and two columns, which take the closed forms of operator_norm
    (its Lemma 2).

    z_commutes_ok asks whether z chi_U - chi_U z has no coefficient
    above _Z_TOL for any cell U of P.  It is read off the pieces of z,
    without products.  Lemma: let z = sum_n f_n u^n with finite
    coefficients.  Since u^n chi_U = chi_{h^n U} u^n, term n of
    z chi_U - chi_U z is f_n (chi_{h^n U} - chi_U) u^n: f_n on
    h^n U minus U, -f_n on U minus h^n U, and 0 elsewhere, and for
    n = 0 it is 0.  The products form the same: their scalars are
    c * 1 and 1 * c, which equal c in modulus for finite c, and the
    difference adds c and -c to an exact 0 on U & h^n U and leaves c
    or -c on the symmetric difference.  So the check passes iff no
    piece (c, E) of z with n != 0 and |c| > _Z_TOL meets the symmetric
    difference of U and h^n U.
    The coefficients of z are finite: they are 1 and the entries of
    powers of the closed-form cycle root.

    An empty Y takes the same path: V and W are 0 x 0, _cycles gives
    [], the root's miss is hypot() = 0.0, the norm of W - 1 is 0.0, and
    _interpolating_unitary returns cp_element({0: [(1, X)]}) = cp.one."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not epsilon > math.pi / N:
        raise ValueError("epsilon must exceed pi/N")
    S, S2 = adapted_system_pair(spec, P, N, max_steps)
    pe = cp.proof_unitaries(S, S2)
    u = cp.shift_unitary(spec)
    Y = pe.Y

    y_points = sorted(enumerate_points(Y), key=_point_key)
    v_el = cp.multiply(
        cp.multiply(cp.char(Y), cp.multiply(pe.v2, cp.adjoint(pe.v1))),
        cp.char(Y),
    )
    V = represent(v_el, points=y_points).matrix
    W = unitary_nth_root(V, N)
    norm_w = operator_norm(W - SparseMatrix.identity(len(y_points)))
    z = _interpolating_unitary(Y, y_points, W, N)

    zs, one = cp.adjoint(z), cp.one(spec)
    z_unitary_ok = (cp.equals_approx(cp.multiply(z, zs), one, _Z_TOL)
                    and cp.equals_approx(cp.multiply(zs, z), one, _Z_TOL))
    z_commutes_ok = _commutes_with_cells(z, P)

    u_prime = cp.multiply(cp.multiply(z, cp.multiply(pe.v1, pe.u2)), zs)
    d = u_prime - u

    if not d.terms:
        norm_d = 0.0
        block_norms = ()
        blocks_ok = True
    else:
        report = cutdown_check(d, _berg_blocks(Y, N))
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
