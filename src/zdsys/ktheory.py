"""Partition-level K-theory: the permutation that the dynamics induces
on the cells of a partition, and the K-groups at that level read off
the cycle count of the induced permutation.

At a level P, K0 = coker(1 - alpha*) and K1 = ker(1 - alpha*), where
alpha* is the map that h induces on the indicator classes of the cells
(Pimsner-Voiculescu).
"""

from __future__ import annotations

from .errors import NeedsRefinement
from .space import apply_h, is_partition


def alpha_star(P):
    """The permutation that h induces on the cells of the partition P:
    perm[j] is the index of the cell h(P[j]).

    Lemma.  Let P partition X into n nonempty cells.  As h is a
    homeomorphism, the images h(c) also partition X into n nonempty
    cells.  If every cell lies in some image, each image is a union of
    cells; n disjoint nonempty images share out n cells, so each image
    is exactly one cell.  Hence the induced 0/1 matrix (entry [i][j] = 1
    iff P[i] lies in h(P[j])) is square exactly when {h(c)} == set(P),
    and it is then the matrix of this permutation.

    Raises ValueError unless P partitions X, the premise of the lemma,
    and NeedsRefinement when some image is not a cell.
    """
    if not is_partition(P):
        raise ValueError("level needs a partition of the space")
    index = {c: i for i, c in enumerate(P)}  # canonical sets hash
    perm = []
    for c in P:
        i = index.get(apply_h(c, 1))
        if i is None:
            raise NeedsRefinement("induced map is not square at this level")
        perm.append(i)
    return perm


def level_report(P, n):
    """K-groups at level n of the partition P.  One cycle of length l
    gives 1 - C_l, whose rows sum to zero and which has an (l-1)-minor
    equal to 1, so its Smith form is diag(1, ..., 1, 0).  A permutation
    with c cycles thus has K1 = ker = Z^c and K0 = coker = Z^c, with no
    torsion."""
    perm = alpha_star(P)
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return {
        "level": n,
        "k1": {"rank": cycles},
        "k0": {"rank": cycles, "torsion": []},
    }
