"""Shared randomized generators for the test suite.

All generators take an explicit random.Random so every test run is
deterministic.
"""

from __future__ import annotations

from itertools import islice

from zdsys import space, towers


def all_specs():
    return [
        space.finite_cycle(6),
        space.odometer(2),
        space.compactified_shift(),
        space.two_point_shift(),
        space.quotient_product(space.odometer(2)),
    ]


def system_specs():
    """Families on which valid return systems exist."""
    return [
        space.finite_cycle(6),
        space.odometer(2),
        space.compactified_shift(),
        space.quotient_product(space.odometer(2)),
        space.quotient_product(space.compactified_shift()),
        space.quotient_product(space.finite_cycle(3)),
    ]


def cylinder(spec, word):
    """The odometer cylinder of all strings starting with `word`."""
    return space.odometer_set(spec, [word])


def random_set(spec, rng, depth=3):
    f = spec.family
    if f == space.FINITE_CYCLE:
        pts = [i for i in range(spec.period) if rng.random() < 0.5]
        return space.finite_cycle_set(spec, pts)
    if f == space.ODOMETER:
        # from words, not by union, so that the union tests draw sets
        # that do not depend on the union under test
        cells = space.generating_partition(spec, depth)
        chosen = [c for c in cells if rng.random() < 0.5]
        words = [w for c in chosen for w in space.to_dict(c)["words"]]
        return space.odometer_set(spec, words)
    if f == space.COMPACTIFIED_SHIFT:
        F = [n for n in range(-6, 7) if rng.random() < 0.3]
        return space.shift_set(spec, F, cofinite=rng.random() < 0.5)
    if f == space.TWO_POINT_SHIFT:
        F = [n for n in range(-6, 7) if rng.random() < 0.3]
        return space.two_point_set(
            spec, F, rng.random() < 0.5, rng.random() < 0.5
        )
    slices = {}
    for k in range(-2, 3):
        if rng.random() < 0.6:
            slices[k] = random_set(spec.fiber, rng, depth=2)
    return space.quotient_set(spec, slices, tail=rng.random() < 0.5)


def random_point(spec, rng):
    a = random_set(spec, rng)
    pts = sample_points(a, 4) or sample_points(space.whole_space(spec), 4)
    return rng.choice(pts)


def sample_points(a, count=8):
    """Deterministic sample of at most count distinct points of a
    nonempty set, read off its to_dict form.  On the shifts, a set that
    holds the outside of its window yields at most count integers
    there, so a wide window of F is never walked."""
    spec, d, f = a.spec, space.to_dict(a), a.spec.family
    if f == space.FINITE_CYCLE:
        out = d["points"]
    elif f == space.ODOMETER:
        base, words = spec.base, [tuple(w) for w in d["words"]]
        out = []
        for w in words:
            for i in range(max(1, count // max(1, len(words)))):
                head = w + tuple((i // base**k) % base for k in range(4))
                out += [(head, (0,)), (head, (base - 1,))]
    elif f == space.QUOTIENT_PRODUCT:
        slices = [(s["k"], space.from_dict(spec.fiber, s["set"]))
                  for s in d["slices"]]
        out = [(k, fp) for k, s in slices if not space.is_empty(s)
               for fp in sample_points(s, max(2, count // 4))]
        if d["tail"]:
            out.append(space.INF)
            edge = max((abs(k) for k, _ in slices), default=0) + 1
            whole = sample_points(space.whole_space(spec.fiber), 2)
            out += [(k, fp) for k in (edge, -edge) for fp in whole]
    else:
        # the shifts: the integers just outside the window [lo, hi) of
        # F, or around 0 when F is empty
        F = d["F"]
        lo, hi = (F[0], F[-1] + 1) if F else (0, 1)
        if f == space.COMPACTIFIED_SHIFT:
            out = F if not d["cofinite"] else [space.INF] + [
                q for i in range(count) for q in (lo - 1 - i, hi + i)
            ]
        else:
            tm, tp, members = d["tail_minus"], d["tail_plus"], set(F)
            first, end = lo - 1 - count, hi + count + 1
            out = []
            for lo_, hi_, default in ((first, min(end, 0), tm),
                                      (max(first, 0), end, tp)):
                if default:  # count + |F| steps at most, not the window
                    out += islice(
                        (q for q in range(lo_, hi_) if q not in members), count
                    )
                else:
                    out += [q for q in F if lo_ <= q < hi_]
            out = out[:count] + [space.MINUS_INF] * tm + [space.PLUS_INF] * tp
    seen = []
    for p in out:
        if len(seen) >= count:
            break
        if p not in seen:
            seen.append(p)
    return seen


def random_partition(spec, rng, depth=2, max_parts=4):
    """A random coarsening of a generating partition."""
    cells = list(space.generating_partition(spec, depth))
    rng.shuffle(cells)
    parts = rng.randint(1, min(max_parts, len(cells)))
    groups = [[] for _ in range(parts)]
    for i, c in enumerate(cells):
        groups[i % parts].append(c)
    out = []
    for g in groups:
        u = g[0]
        for c in g[1:]:
            u = space.union(u, c)
        out.append(u)
    return out


def valid_system(spec, rng=None, max_steps=None):
    """A concrete valid return system for the family, with at least two
    towers where the family allows it."""
    f = spec.family
    if f == space.FINITE_CYCLE:
        base = space.finite_cycle_set(spec, [0, 1])
        P = [space.whole_space(spec)]
    elif f == space.ODOMETER:
        base = cylinder(spec, (0, 0))
        P = [space.whole_space(spec)]
    elif f == space.COMPACTIFIED_SHIFT:
        base = space.shift_set(spec, range(1, 7), cofinite=True)
        P = [base, space.complement(base)]
    elif f == space.QUOTIENT_PRODUCT:
        n = 2
        base_sets = spec.canonical_bases(n)
        P = list(space.generating_partition(spec, n))
        return towers.build_from_bases(base_sets, P, max_steps)
    else:
        raise ValueError("no valid system for this family")
    return towers.build_from_bases([base], P, max_steps)


def _proper_piece(Y, spec):
    """A proper nonempty clopen subset of Y, if one exists."""
    for n in (1, 2, 3):
        for cell in space.generating_partition(spec, n):
            piece = space.intersect(Y, cell)
            if not space.is_empty(piece) and piece != Y:
                return piece
    return None


def mutants(S):
    """Single-field corruptions of a valid system, each of which breaks
    one of the defining conditions.  Yields (description, mutant)."""
    spec = S.spec

    def rebuild(t, new_classes):
        ts = list(S.towers)
        ts[t] = tuple(new_classes)
        return towers.ReturnSystem(spec, S.bases, tuple(ts))

    for t, tws in enumerate(S.towers):
        for k, c in enumerate(tws):
            others = [d for i, d in enumerate(tws) if i != k]

            yield (
                "J+1 at (%d,%d)" % (t, k),
                rebuild(t, others + [towers.Tower(c.Y, c.J + 1)]),
            )
            if c.J >= 2:
                yield (
                    "J-1 at (%d,%d)" % (t, k),
                    rebuild(t, others + [towers.Tower(c.Y, c.J - 1)]),
                )
            piece = _proper_piece(c.Y, spec)
            if piece is not None:
                yield (
                    "shrink Y at (%d,%d)" % (t, k),
                    rebuild(t, others + [towers.Tower(piece, c.J)]),
                )
            hY = space.apply_h(c.Y, 1)
            if hY != c.Y:
                yield (
                    "translate Y at (%d,%d)" % (t, k),
                    rebuild(t, others + [towers.Tower(hY, c.J)]),
                )
            yield (
                "duplicate tower (%d,%d)" % (t, k),
                rebuild(t, list(tws) + [towers.Tower(c.Y, c.J)]),
            )
            yield ("drop tower (%d,%d)" % (t, k), rebuild(t, others))
            for k2 in range(k + 1, len(tws)):
                d = tws[k2]
                rest = [e for i, e in enumerate(tws) if i not in (k, k2)]
                yield (
                    "merge Y (%d,%d)+(%d,%d)" % (t, k, t, k2),
                    rebuild(
                        t,
                        rest
                        + [towers.Tower(space.union(c.Y, d.Y), c.J), d],
                    ),
                )
                if d.J != c.J:
                    yield (
                        "swap J (%d,%d)/(%d,%d)" % (t, k, t, k2),
                        rebuild(
                            t,
                            rest
                            + [towers.Tower(c.Y, d.J), towers.Tower(d.Y, c.J)],
                        ),
                    )
        piece = _proper_piece(S.bases[t], spec)
        if piece is not None:
            bases = list(S.bases)
            bases[t] = space.difference(S.bases[t], piece)
            yield (
                "shrink base %d" % t,
                towers.ReturnSystem(spec, tuple(bases), S.towers),
            )


def level_partitions(S):
    """(P1, P2): the tower levels of S, j in 0..J-1, and their images
    under h, j in 1..J, so P2 = h(P1) element by element."""
    P1 = towers.tower_levels(S)
    return P1, tuple(space.apply_h(L, 1) for L in P1)


def subordinating_partition(S):
    """A partition that S is subordinate to: bases plus the rest split
    into the tower levels not inside any base."""
    rest = space.complement(space.union(space.empty_set(S.spec), *S.bases))
    out = list(S.bases)
    if not space.is_empty(rest):
        out.append(rest)
    return out
