"""Exact clopen-set algebra for the supported zero-dimensional systems.

Five space families are supported.  Every clopen set is stored in a unique
canonical form, so equality is structural comparison and all Boolean
operations are exact:

* ``finite_cycle``: X = {0,...,M-1} with the +1 cycle; sets are subsets.
* ``odometer``: the base-b adding machine on infinite digit strings
  (least significant digit first).  A word w is the cylinder of strings
  starting with w, i.e. the residue class sum(w_i b^i) mod b^len(w).  A set
  is a pair (L, mask): L is the least level at which the set is a union of
  level-L cylinders, and bit r of mask is set when the class r mod b^L
  lies in the set.  Reports list the set's maximal cylinder words.
* ``compactified_shift``: Z with one point at infinity and the +1 shift;
  sets are (finite set F, cofinite flag); the cofinite form contains inf.
* ``two_point_shift``: Z with fixed points -inf and +inf; sets are
  (finite difference set F, tail flags).  An integer n is in the set when
  membership differs from the tail default of its side exactly for n in F
  (default is tail_minus for n < 0 and tail_plus for n >= 0); -inf is in
  the set iff tail_minus, +inf iff tail_plus.
* ``quotient_product``: (Y x Z~)/(Y x {inf}) for a fiber system Y, where
  Z~ is the one-point compactification of Z and the map acts fiberwise;
  sets are (tail flag, finite map index -> fiber set), storing only slices
  that differ from the tail default (full fiber if tail, empty otherwise).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidPoint, MixedSystems

FINITE_CYCLE = "finite_cycle"
ODOMETER = "odometer"
COMPACTIFIED_SHIFT = "compactified_shift"
TWO_POINT_SHIFT = "two_point_shift"
QUOTIENT_PRODUCT = "quotient_product"

FAMILIES = (
    FINITE_CYCLE,
    ODOMETER,
    COMPACTIFIED_SHIFT,
    TWO_POINT_SHIFT,
    QUOTIENT_PRODUCT,
)

INF = "inf"
MINUS_INF = "-inf"
PLUS_INF = "+inf"


@dataclass(frozen=True)
class SystemSpec:
    """Description of the space X and homeomorphism h."""

    family: str
    period: int = 0
    base: int = 0
    fiber: Optional["SystemSpec"] = None

    def __post_init__(self):
        if self.family == FINITE_CYCLE:
            if self.period < 1:
                raise ValueError("period must be >= 1")
        elif self.family == ODOMETER:
            if self.base < 2:
                raise ValueError("base must be >= 2")
        elif self.family in (COMPACTIFIED_SHIFT, TWO_POINT_SHIFT):
            pass
        elif self.family == QUOTIENT_PRODUCT:
            if self.fiber is None or self.fiber.family not in (
                ODOMETER,
                FINITE_CYCLE,
                COMPACTIFIED_SHIFT,
            ):
                raise ValueError(
                    "quotient_product fiber must be odometer, finite_cycle "
                    "or compactified_shift"
                )
        else:
            raise ValueError("unknown family %r" % (self.family,))

    def to_dict(self):
        params = {}
        for name in _SPEC_PARAMS[self.family]:
            value = getattr(self, name)
            params[name] = value.to_dict() if name == "fiber" else value
        return {"family": self.family, "params": params}

    @staticmethod
    def from_dict(d):
        """Parse a spec given in the nested form {"family": f, "params":
        {...}} or in the flat form {"family": f, <parameter>: ...}."""
        if not isinstance(d, dict):
            raise ValueError("a system spec must be a JSON object")
        family = d.get("family")
        if not isinstance(family, str) or family not in _SPEC_PARAMS:
            raise ValueError("unknown family %r" % (family,))
        flat = {k: v for k, v in d.items() if k not in ("family", "params")}
        if "params" not in d:
            params = flat
        elif flat or not isinstance(d["params"], dict):
            raise ValueError("give parameters flat or as one params object")
        else:
            params = d["params"]
        names = _SPEC_PARAMS[family]
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise ValueError("unknown %s parameter %r" % (family, unknown[0]))
        missing = [n for n in names if n not in params]
        if missing:
            raise ValueError("missing %s parameter %r" % (family, missing[0]))
        kwargs = {}
        for name in names:
            value = params[name]
            if name == "fiber":
                kwargs[name] = SystemSpec.from_dict(value)
            else:
                kwargs[name] = _json_int(value, name)
        return SystemSpec(family, **kwargs)


# The parameters of each family, as SystemSpec fields.
_SPEC_PARAMS = {
    FINITE_CYCLE: ("period",),
    ODOMETER: ("base",),
    COMPACTIFIED_SHIFT: (),
    TWO_POINT_SHIFT: (),
    QUOTIENT_PRODUCT: ("fiber",),
}


def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer" % what)
    return value


def finite_cycle(period):
    return SystemSpec(FINITE_CYCLE, period=period)


def odometer(base=2):
    return SystemSpec(ODOMETER, base=base)


def compactified_shift():
    return SystemSpec(COMPACTIFIED_SHIFT)


def two_point_shift():
    return SystemSpec(TWO_POINT_SHIFT)


def quotient_product(fiber):
    return SystemSpec(QUOTIENT_PRODUCT, fiber=fiber)


# ---------------------------------------------------------------------------
# odometer residue masks
# ---------------------------------------------------------------------------


def _word_value(base, w):
    return sum(d * base**i for i, d in enumerate(w))


def _value_word(base, val, length):
    return tuple((val // base**i) % base for i in range(length))


def _odo_lift(base, L, mask, level):
    """The mask at `level` >= L of the set with mask `mask` at level L:
    the b^L-bit mask repeated b^(level-L) times."""
    width = base**L
    copies = base ** (level - L)
    return mask * (((1 << (width * copies)) - 1) // ((1 << width) - 1))


def _odo_mk(spec, L, mask):
    """An odometer set from its mask at level L, lowered to the least
    level: the mask at level L-1 suffices while the mask repeats with
    period b^(L-1)."""
    base = spec.base
    while L:
        width = base ** (L - 1)
        if mask >> width != mask & ((1 << (width * (base - 1))) - 1):
            break
        mask &= (1 << width) - 1
        L -= 1
    return _mk(spec, (L, mask))


def _odo_combine(a, b, op):
    (La, ma), (Lb, mb) = a.data, b.data
    base = a.spec.base
    L = max(La, Lb)
    return _odo_mk(
        a.spec, L, op(_odo_lift(base, La, ma, L), _odo_lift(base, Lb, mb, L))
    )


def _odo_words(a):
    """The sorted maximal cylinder words of an odometer set: the words of
    length k <= L whose class mod b^k lies in the set while the class of
    their parent does not."""
    L, mask = a.data
    base = a.spec.base
    inside = [mask]  # classes mod b^k that lie in the set, for k = L..0
    for k in range(L, 0, -1):
        width = base ** (k - 1)
        acc = (1 << width) - 1
        for d in range(base):
            acc &= inside[-1] >> (d * width)
        inside.append(acc)
    inside.reverse()
    words = []
    for k, m in enumerate(inside):
        if k:
            m &= ~_odo_lift(base, k - 1, inside[k - 1], k)
        while m:
            low = m & -m
            words.append(_value_word(base, low.bit_length() - 1, k))
            m ^= low
    return tuple(sorted(words))


def odometer_level(a):
    """The least L such that the odometer set is a union of level-L
    cylinders (the length of its longest maximal cylinder word)."""
    return a.data[0]


# ---------------------------------------------------------------------------
# ClopenSet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClopenSet:
    """A compact open subset of X in family-specific canonical form."""

    spec: SystemSpec
    data: object = field(hash=True)

    def is_empty(self):
        return is_empty(self)

    def __contains__(self, point):
        return contains_point(self, point)


def _mk(spec, data):
    return ClopenSet(spec, data)


def empty_set(spec):
    f = spec.family
    if f == FINITE_CYCLE:
        return _mk(spec, frozenset())
    if f == ODOMETER:
        return _mk(spec, (0, 0))
    if f == COMPACTIFIED_SHIFT:
        return _mk(spec, (frozenset(), False))
    if f == TWO_POINT_SHIFT:
        return _mk(spec, (frozenset(), False, False))
    return _mk(spec, (False, ()))


def whole_space(spec):
    f = spec.family
    if f == FINITE_CYCLE:
        return _mk(spec, frozenset(range(spec.period)))
    if f == ODOMETER:
        return _mk(spec, (0, 1))
    if f == COMPACTIFIED_SHIFT:
        return _mk(spec, (frozenset(), True))
    if f == TWO_POINT_SHIFT:
        return _mk(spec, (frozenset(), True, True))
    return _mk(spec, (True, ()))


def finite_cycle_set(spec, points):
    pts = frozenset(int(p) % spec.period for p in points)
    return _mk(spec, pts)


def cylinder(spec, word):
    """The odometer cylinder of all strings starting with `word`."""
    return odometer_set(spec, [word])


def odometer_set(spec, words):
    """The union of the odometer cylinders of `words`."""
    base = spec.base
    words = [tuple(int(d) for d in w) for w in words]
    if any(not 0 <= d < base for w in words for d in w):
        raise ValueError("digit out of range")
    L = max((len(w) for w in words), default=0)
    mask = 0
    for w in words:
        mask |= _odo_lift(base, len(w), 1 << _word_value(base, w), L)
    return _odo_mk(spec, L, mask)


def shift_set(spec, points, cofinite=False):
    return _mk(spec, (frozenset(int(p) for p in points), bool(cofinite)))


def two_point_set(spec, diff, tail_minus=False, tail_plus=False):
    """Build from the canonical difference-set form."""
    return _mk(spec, (frozenset(int(p) for p in diff), bool(tail_minus), bool(tail_plus)))


def quotient_set(spec, slices, tail=False):
    """Build from a map index -> fiber ClopenSet plus the tail flag."""
    fiber = spec.fiber
    default = whole_space(fiber) if tail else empty_set(fiber)
    items = []
    for k, s in slices.items() if isinstance(slices, dict) else slices:
        if s.spec != fiber:
            raise MixedSystems("slice over wrong fiber spec")
        if s != default:
            items.append((int(k), s))
    items.sort(key=lambda kv: kv[0])
    return _mk(spec, (bool(tail), tuple(items)))


def _q_tail(a):
    return a.data[0]


def _q_slice(a, k):
    sl = dict(a.data[1])
    if k in sl:
        return sl[k]
    return whole_space(a.spec.fiber) if a.data[0] else empty_set(a.spec.fiber)


def quotient_slice(a, k):
    """The fiber clopen set of `a` over integer index k."""
    return _q_slice(a, k)


def quotient_tail_flag(a):
    return _q_tail(a)


def quotient_window(a):
    return sorted(k for k, _ in a.data[1])


# ---------------------------------------------------------------------------
# Boolean algebra
# ---------------------------------------------------------------------------


def _check_same(a, b):
    if a.spec != b.spec:
        raise MixedSystems("operands over different system specs")


def union(a, b):
    _check_same(a, b)
    f = a.spec.family
    if f in (FINITE_CYCLE,):
        return _mk(a.spec, a.data | b.data)
    if f == ODOMETER:
        return _odo_combine(a, b, operator.or_)
    if f == COMPACTIFIED_SHIFT:
        (fa, ca), (fb, cb) = a.data, b.data
        if not ca and not cb:
            return _mk(a.spec, (fa | fb, False))
        if ca and cb:
            return _mk(a.spec, (fa & fb, True))
        if ca:
            return _mk(a.spec, (fa - fb, True))
        return _mk(a.spec, (fb - fa, True))
    if f == TWO_POINT_SHIFT:
        return _tp_combine(a, b, lambda x, y: x or y)
    if f == QUOTIENT_PRODUCT:
        return _q_combine(a, b, union, lambda x, y: x or y)
    raise AssertionError


def intersect(a, b):
    _check_same(a, b)
    f = a.spec.family
    if f == FINITE_CYCLE:
        return _mk(a.spec, a.data & b.data)
    if f == ODOMETER:
        return _odo_combine(a, b, operator.and_)
    if f == COMPACTIFIED_SHIFT:
        (fa, ca), (fb, cb) = a.data, b.data
        if not ca and not cb:
            return _mk(a.spec, (fa & fb, False))
        if ca and cb:
            return _mk(a.spec, (fa | fb, True))
        if ca:
            return _mk(a.spec, (fb - fa, False))
        return _mk(a.spec, (fa - fb, False))
    if f == TWO_POINT_SHIFT:
        return _tp_combine(a, b, lambda x, y: x and y)
    if f == QUOTIENT_PRODUCT:
        return _q_combine(a, b, intersect, lambda x, y: x and y)
    raise AssertionError


def complement(a):
    f = a.spec.family
    if f == FINITE_CYCLE:
        return _mk(a.spec, frozenset(range(a.spec.period)) - a.data)
    if f == ODOMETER:
        # a mask repeats exactly when its complement does, so L stays least
        L, mask = a.data
        return _mk(a.spec, (L, mask ^ ((1 << a.spec.base**L) - 1)))
    if f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        return _mk(a.spec, (fs, not c))
    if f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        return _mk(a.spec, (fs, not tm, not tp))
    if f == QUOTIENT_PRODUCT:
        tail = not _q_tail(a)
        slices = {k: complement(s) for k, s in a.data[1]}
        return quotient_set(a.spec, slices, tail)
    raise AssertionError


def difference(a, b):
    return intersect(a, complement(b))


def _tp_combine(a, b, op):
    (da, tma, tpa), (db, tmb, tpb) = a.data, b.data
    tm = op(tma, tmb)
    tp = op(tpa, tpb)
    diff = set()
    for n in da | db:
        ma = (n in da) != (tma if n < 0 else tpa)
        mb = (n in db) != (tmb if n < 0 else tpb)
        if op(ma, mb) != (tm if n < 0 else tp):
            diff.add(n)
    return _mk(a.spec, (frozenset(diff), tm, tp))


def _q_combine(a, b, setop, flagop):
    tail = flagop(_q_tail(a), _q_tail(b))
    keys = {k for k, _ in a.data[1]} | {k for k, _ in b.data[1]}
    slices = {k: setop(_q_slice(a, k), _q_slice(b, k)) for k in keys}
    return quotient_set(a.spec, slices, tail)


def is_empty(a):
    f = a.spec.family
    if f == FINITE_CYCLE:
        return not a.data
    if f == ODOMETER:
        return not a.data[1]
    if f == COMPACTIFIED_SHIFT:
        return not a.data[0] and not a.data[1]
    if f == TWO_POINT_SHIFT:
        return not a.data[0] and not a.data[1] and not a.data[2]
    return not a.data[0] and not a.data[1]


def equals(a, b):
    _check_same(a, b)
    return a == b


def is_subset(a, b):
    _check_same(a, b)
    return is_empty(difference(a, b))


# ---------------------------------------------------------------------------
# the dynamics on sets and points
# ---------------------------------------------------------------------------


def apply_h(a, n):
    """The exact image h^n(a)."""
    n = int(n)
    if n == 0:
        return a
    f = a.spec.family
    if f == FINITE_CYCLE:
        m = a.spec.period
        return _mk(a.spec, frozenset((p + n) % m for p in a.data))
    if f == ODOMETER:
        # h adds 1 to every class mod b^L: rotate the mask; a rotated mask
        # repeats exactly when the mask does, so L stays least
        L, mask = a.data
        width = a.spec.base**L
        k = n % width
        rotated = (mask << k) | (mask >> (width - k))
        return _mk(a.spec, (L, rotated & ((1 << width) - 1)))
    if f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        return _mk(a.spec, (frozenset(p + n for p in fs), c))
    if f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        lo, hi = (n, 0) if n < 0 else (0, n)
        diff = set()
        for x in {p + n for p in fs} | set(range(lo, hi)):
            inside = ((x - n) in fs) != (tm if x - n < 0 else tp)
            if inside != (tm if x < 0 else tp):
                diff.add(x)
        return _mk(a.spec, (frozenset(diff), tm, tp))
    if f == QUOTIENT_PRODUCT:
        slices = {k: apply_h(s, n) for k, s in a.data[1]}
        return quotient_set(a.spec, slices, _q_tail(a))
    raise AssertionError


def point_apply_h(spec, p, n):
    """The image h^n(p) of a point description."""
    n = int(n)
    f = spec.family
    if f == FINITE_CYCLE:
        return (int(p) + n) % spec.period
    if f == ODOMETER:
        return _odo_point_shift(spec.base, p, n)
    if f == COMPACTIFIED_SHIFT:
        if p == INF:
            return p
        return int(p) + n
    if f == TWO_POINT_SHIFT:
        if p in (MINUS_INF, PLUS_INF):
            return p
        return int(p) + n
    if f == QUOTIENT_PRODUCT:
        if p == INF:
            return p
        k, fp = p
        return (k, point_apply_h(spec.fiber, fp, n))
    raise AssertionError


def _add_carry_seq(base, digits, carry):
    out = []
    for d in digits:
        t = d + carry
        out.append(t % base)
        carry = t // base
    return out, carry


def _odo_point_shift(base, p, n):
    head, repeat = list(p[0]), tuple(p[1])
    if not repeat:
        raise InvalidPoint("odometer point needs a nonempty repeating part")
    # extend the explicit head so the carry settles to -1, 0 or 1
    need = 2
    m = abs(n)
    while m:
        need += 1
        m //= base
    while len(head) < len(p[0]) + need * len(repeat):
        head.extend(repeat)
    head, carry = _add_carry_seq(base, head, n)
    if carry == 0:
        return (tuple(head), repeat)
    out, c1 = _add_carry_seq(base, repeat, carry)
    if c1 == 0:
        # carry dies within one period; afterwards the string is unchanged
        return (tuple(head) + tuple(out), repeat)
    # the carry survives a full period, so it survives every period and the
    # mapped period repeats forever
    return (tuple(head), tuple(out))


def _odo_point_digit(base, p, i):
    head, repeat = p
    if i < len(head):
        return head[i]
    return repeat[(i - len(head)) % len(repeat)]


def contains_point(a, p):
    """Exact membership of a point description."""
    f = a.spec.family
    if f == FINITE_CYCLE:
        q = int(p)
        if not 0 <= q < a.spec.period:
            raise InvalidPoint("point outside the cycle")
        return q in a.data
    if f == ODOMETER:
        if (
            not isinstance(p, tuple)
            or len(p) != 2
            or not p[1]
            or any(not 0 <= d < a.spec.base for d in tuple(p[0]) + tuple(p[1]))
        ):
            raise InvalidPoint("bad odometer point description")
        L, mask = a.data
        base = a.spec.base
        r = sum(_odo_point_digit(base, p, i) * base**i for i in range(L))
        return bool(mask >> r & 1)
    if f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        if p == INF:
            return c
        return (int(p) in fs) != c
    if f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        if p == MINUS_INF:
            return tm
        if p == PLUS_INF:
            return tp
        q = int(p)
        return (q in fs) != (tm if q < 0 else tp)
    if f == QUOTIENT_PRODUCT:
        if p == INF:
            return _q_tail(a)
        if not isinstance(p, tuple) or len(p) != 2:
            raise InvalidPoint("bad quotient point description")
        k, fp = p
        return contains_point(_q_slice(a, int(k)), fp)
    raise AssertionError


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def is_partition(sets, target=None):
    """True iff the sets are nonempty, pairwise disjoint and cover the
    target set, which is all of X when not given."""
    if target is None:
        if not sets:
            return False
        target = whole_space(sets[0].spec)
    total = empty_set(target.spec)
    for a in sets:
        if a.spec != target.spec:
            raise MixedSystems("partition over mixed specs")
        if is_empty(a):
            return False
        if not is_empty(intersect(total, a)):
            return False
        total = union(total, a)
    return total == target


def common_refinement(P, Q):
    """All nonempty pairwise intersections, ordered by (P index, Q index)."""
    out = []
    for a in P:
        for b in Q:
            c = intersect(a, b)
            if not is_empty(c):
                out.append(c)
    return tuple(out)


def refine_by(P, pieces):
    """Refine partition P by a list of clopen sets (not necessarily a
    partition): split every element along each piece."""
    current = tuple(P)
    for piece in pieces:
        out = []
        for a in current:
            inner = intersect(a, piece)
            outer = difference(a, piece)
            for c in (inner, outer):
                if not is_empty(c):
                    out.append(c)
        current = tuple(out)
    return current


def generating_partition(spec, n):
    """The n-th member of the canonical generating sequence of partitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = spec.family
    if f == FINITE_CYCLE:
        return tuple(
            finite_cycle_set(spec, [i]) for i in range(spec.period)
        )
    if f == ODOMETER:
        return tuple(_mk(spec, (n, 1 << v)) for v in range(spec.base**n))
    if f == COMPACTIFIED_SHIFT:
        cells = [shift_set(spec, [i]) for i in range(-n, n)]
        cells.append(shift_set(spec, range(-n, n), cofinite=True))
        return tuple(cells)
    if f == TWO_POINT_SHIFT:
        cells = [two_point_set(spec, [i]) for i in range(-n, n)]
        cells.append(two_point_set(spec, range(-n, 0), tail_minus=True))
        cells.append(two_point_set(spec, range(0, n), tail_plus=True))
        return tuple(cells)
    if f == QUOTIENT_PRODUCT:
        fiber_cells = generating_partition(spec.fiber, n)
        cells = []
        for k in range(-n, n):
            for c in fiber_cells:
                cells.append(quotient_set(spec, {k: c}))
        tail = quotient_set(
            spec,
            {k: empty_set(spec.fiber) for k in range(-n, n)},
            tail=True,
        )
        cells.append(tail)
        return tuple(cells)
    raise AssertionError


# ---------------------------------------------------------------------------
# deterministic ordering, sampling, serialization
# ---------------------------------------------------------------------------


def sort_key(a):
    """A deterministic total order on canonical clopen sets."""
    f = a.spec.family
    if f == FINITE_CYCLE:
        return (len(a.data), tuple(sorted(a.data)))
    if f == ODOMETER:
        words = _odo_words(a)
        return (len(words), words)
    if f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        return (c, len(fs), tuple(sorted(fs)))
    if f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        return (tm, tp, len(fs), tuple(sorted(fs)))
    tail, slices = a.data
    return (tail, tuple((k, sort_key(s)) for k, s in slices))


def sample_points(a, count=8):
    """Deterministic sample of distinct points of a nonempty set."""
    f = a.spec.family
    out = []
    if f == FINITE_CYCLE:
        out = sorted(a.data)
    elif f == ODOMETER:
        base = a.spec.base
        words = _odo_words(a)
        for w in words:
            for i in range(max(1, count // max(1, len(words)))):
                head = w + _value_word(base, i, 4)
                out.append((head, (0,)))
                out.append((head, (base - 1,)))
    elif f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        out = sorted(fs) if not c else []
        if c:
            out.append(INF)
            lo = min(fs, default=0) - 1
            hi = max(fs, default=0) + 1
            for i in range(count):
                if (lo - i) not in fs:
                    out.append(lo - i)
                if (hi + i) not in fs:
                    out.append(hi + i)
    elif f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        lo = min(fs, default=0) - 1
        hi = max(fs, default=0) + 1
        for n in range(lo - count, hi + count + 1):
            if contains_point(a, n):
                out.append(n)
        if tm:
            out.append(MINUS_INF)
        if tp:
            out.append(PLUS_INF)
    else:
        tail, slices = a.data
        for k, s in slices:
            if not is_empty(s):
                out.extend((k, fp) for fp in sample_points(s, max(2, count // 4)))
        if tail:
            out.append(INF)
            ks = [k for k, _ in slices]
            edge = max((abs(k) for k in ks), default=0) + 1
            for k in (edge, -edge):
                out.extend(
                    (k, fp)
                    for fp in sample_points(whole_space(a.spec.fiber), 2)
                )
    seen = []
    for p in out:
        if p not in seen:
            seen.append(p)
        if len(seen) >= count:
            break
    return seen


def to_dict(a):
    f = a.spec.family
    if f == FINITE_CYCLE:
        return {"points": sorted(a.data)}
    if f == ODOMETER:
        return {"words": [list(w) for w in _odo_words(a)]}
    if f == COMPACTIFIED_SHIFT:
        fs, c = a.data
        return {"F": sorted(fs), "cofinite": c}
    if f == TWO_POINT_SHIFT:
        fs, tm, tp = a.data
        return {"F": sorted(fs), "tail_minus": tm, "tail_plus": tp}
    tail, slices = a.data
    return {
        "tail": tail,
        "slices": [{"k": k, "set": to_dict(s)} for k, s in slices],
    }


# The keys of each family's to_dict form: (required, optional).
_SET_KEYS = {
    FINITE_CYCLE: (("points",), ()),
    ODOMETER: (("words",), ()),
    COMPACTIFIED_SHIFT: (("F",), ("cofinite",)),
    TWO_POINT_SHIFT: (("F",), ("tail_minus", "tail_plus")),
    QUOTIENT_PRODUCT: ((), ("tail", "slices")),
}


def _json_ints(value, what):
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ValueError("%s must be a list of integers" % what)
    return value


def _json_flag(d, key):
    value = d.get(key, False)
    if not isinstance(value, bool):
        raise ValueError("%s must be true or false" % key)
    return value


def from_dict(spec, d):
    """Parse the to_dict form of a set; malformed input raises ValueError."""
    f = spec.family
    if not isinstance(d, dict):
        raise ValueError("a clopen set must be a JSON object")
    required, optional = _SET_KEYS[f]
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError("unknown %s set key %r" % (f, unknown[0]))
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError("missing %s set key %r" % (f, missing[0]))
    if f == FINITE_CYCLE:
        return finite_cycle_set(spec, _json_ints(d["points"], "points"))
    if f == ODOMETER:
        if not isinstance(d["words"], list):
            raise ValueError("words must be a list of digit lists")
        return odometer_set(spec, [_json_ints(w, "a word") for w in d["words"]])
    if f == COMPACTIFIED_SHIFT:
        return shift_set(spec, _json_ints(d["F"], "F"), _json_flag(d, "cofinite"))
    if f == TWO_POINT_SHIFT:
        return two_point_set(
            spec,
            _json_ints(d["F"], "F"),
            _json_flag(d, "tail_minus"),
            _json_flag(d, "tail_plus"),
        )
    items = d.get("slices", [])
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and set(item) == {"k", "set"} for item in items
    ):
        raise ValueError('slices must be a list of {"k", "set"} objects')
    slices = {
        _json_int(item["k"], "k"): from_dict(spec.fiber, item["set"])
        for item in items
    }
    return quotient_set(spec, slices, _json_flag(d, "tail"))
