"""Exact clopen-set algebra for the supported zero-dimensional systems.

Five space families are supported, one SystemSpec subclass each.  A
clopen set is a ClopenSet(spec, data) whose data is in the family's
unique canonical form, so equality is structural comparison and all
Boolean operations are exact.  Only the family's class reads the data,
with the window helpers that the two shift families share.
Union and intersection are defined once, on SystemSpec, through the
family's atom masks; unions of many sets and the partition primitives
take one pass over them.  The module-level functions check the specs
of their operands, call the spec's method and build the ClopenSet.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    InvalidPoint,
    InvalidSystem,
    MixedSystems,
    NotCompactlySupported,
)

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


_setattr = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass declares its fields as annotations, in order after the
    inherited ones, and may give a field a class-level default.  The
    instances behave as those of a frozen dataclass:

    - the constructor takes the fields by position or by keyword, fills
      in the defaults and then calls __post_init__;
    - two instances are equal when they are of the same class and their
      tuples of field values are equal;
    - the hash is the hash of that tuple, and the repr is
      Cls(field=value, ...), so hashes, set orders and reports are the
      ones a frozen dataclass gives;
    - assigning or deleting an attribute raises AttributeError.

    The constructor keeps the field values as one tuple as well, which
    __eq__ and __hash__ read.  Unlike the dataclasses module, Record
    compiles no code at import.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = {}
        defaults = {}
        for klass in reversed(cls.__mro__):
            own = vars(klass)
            for name in own.get("__annotations__", ()):
                fields[name] = None  # a redeclared field keeps its place
                if name in own and name not in own.get("__slots__", ()):
                    defaults[name] = own[name]
        cls._fields = tuple(fields)
        cls._defaults = defaults

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        _setattr(self, "_key", args)  # the field values, for == and hash
        self.__post_init__()

    @classmethod
    def _arguments(cls, args, kwargs):
        """The field values in field order, from the fields given by
        position and by keyword and from the defaults."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError("%s() takes %d fields but %d were given"
                            % (cls.__name__, len(names), len(args)))
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in values:
                raise TypeError("%s() got an unexpected or repeated field %r"
                                % (cls.__name__, name))
        values.update(kwargs)
        for name in names:
            if name not in values and name not in cls._defaults:
                raise TypeError("%s() missing field %r" % (cls.__name__, name))
        return tuple(values[n] if n in values else cls._defaults[n]
                     for n in names)

    def __post_init__(self):
        """Check the fields; a subclass with invariants overrides it."""

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name))
                      for name in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class ClopenSet(Record):
    """A compact open subset of X in family-specific canonical form.

    The set operations build one per result, so it has slots and
    two-field methods of its own, with the semantics of Record's."""

    __slots__ = ("spec", "data")
    spec: SystemSpec
    data: object

    def __init__(self, spec, data):
        _setattr(self, "spec", spec)
        _setattr(self, "data", data)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.data) == (other.spec, other.data)

    def __hash__(self):
        return hash((self.spec, self.data))

    def __reduce__(self):
        # slots are restored by setattr, which a frozen object refuses
        return (self.__class__, (self.spec, self.data))


# ---------------------------------------------------------------------------
# system specs, one class per family
# ---------------------------------------------------------------------------


class SystemSpec(Record):
    """Description of the space X and homeomorphism h.

    Each family is a subclass that holds the family's parameters and is
    the only code that reads the data of its clopen sets, with the
    _window helpers for the finite sets of the two shift families.
    Methods whose set arguments are named d, da or db take the data of
    sets over the spec and return data or plain values; the other
    methods take and return ClopenSets.  Every family defines make,
    complement, apply_h, point_apply_h, contains_point,
    generating_partition, sort_key, set_to_dict,
    set_from_dict, scale, enumerate_points, canonical_bases,
    base_witness and the atom triple:

    - atom_scale(ds): the least scale s at which every set of the list
      ds is a union of the family's atoms;
    - atoms(d, s): the set as an int bitmask over the atoms at scale s,
      for s at least atom_scale([d]) (componentwise for a pair; on the
      quotient s is (slice keys, fiber scale, whole-fiber mask), with
      keys a superset of the set's slice keys);
    - from_atoms(mask, s): the canonical data of the union of the atoms
      in mask.

    At one scale, union, intersection and complement are |, & and XOR
    with the mask of X.  The methods below are shared.

    Lemma: union and intersect below return exactly the data of the
    union and the intersection.  atoms(., s) is a bijection from the
    sets that are unions of atoms at scale s onto the masks, and it
    maps union to | and intersection to &, so the | of the masks of k
    sets is the mask of their union, and from_atoms turns it into the
    union's data in canonical form.  That form is unique, so this data
    is the data any other exact union, a fold of unions of two sets
    among them, would return.  tests/test_space.py holds every
    family's triple to this contract.
    """

    # Each family sets these plain class attributes, which are not
    # fields: family, the name in spec JSON; set_keys, the (required,
    # optional) keys of the set JSON; empty_data, the data of the empty
    # set.  The parameters of a family are its annotated fields.

    def is_empty(self, d):
        # the canonical form of the empty set is unique
        return d == self.empty_data

    def union(self, ds):
        s = self.atom_scale(ds)
        mask = 0
        for d in ds:
            mask |= self.atoms(d, s)
        return self.from_atoms(mask, s)

    def intersect(self, da, db):
        s = self.atom_scale([da, db])
        return self.from_atoms(self.atoms(da, s) & self.atoms(db, s), s)

    def to_dict(self):
        params = {}
        for name in self._fields:
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
        if not isinstance(family, str) or family not in _SPEC_CLASSES:
            raise ValueError("unknown family %r" % (family,))
        flat = {k: v for k, v in d.items() if k not in ("family", "params")}
        if "params" not in d:
            params = flat
        elif flat or not isinstance(d["params"], dict):
            raise ValueError("give parameters flat or as one params object")
        else:
            params = d["params"]
        cls = _SPEC_CLASSES[family]
        names = cls._fields
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
        return cls(**kwargs)

    def adapted_bases(self, P, N):
        """Disjoint bases of an adapted pair for the partition P and
        length N.  Each family's docstring proves its part of the lemma
        of towers.adapted_system_pair: with S built on these bases and
        S2 on the top images of its leading slices, (i) every level of
        S lies in one cell of P, (ii) every level of S2 lies in one cell
        of h(R), R the slices of S plus X - bases, and (iii) a, b and d
        hold.  The known minimal set of a fiber, which a reads, is the
        whole fiber unless the family says otherwise.  Each also gives
        the points of Y, the union of the hat bases, which the second
        lemma of numeric.operator_norm reads: at most two in each fiber,
        with v1 v2* permuting them and 1 off them (v1 = v2 where
        S2 = S)."""
        raise InvalidSystem("family has no adapted construction")

    def singleton(self, p):
        """The set {p}."""
        raise NotCompactlySupported("no finite point sets in this family")

    def displacement(self, x, y):
        """The n with h^n(y) = x, for shift-type points."""
        return x - y


class FiniteCycle(SystemSpec):
    """X = {0,...,M-1} with the +1 cycle, M = period.  The data of a set
    is the frozenset of its points."""

    period: int
    family = FINITE_CYCLE
    set_keys = (("points",), ())
    empty_data = frozenset()

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")

    def make(self, points):
        return ClopenSet(self, frozenset(int(p) % self.period for p in points))

    def complement(self, d):
        return frozenset(range(self.period)) - d

    def apply_h(self, d, n):
        m = self.period
        return frozenset((p + n) % m for p in d)

    def point_apply_h(self, p, n):
        return (int(p) + n) % self.period

    def contains_point(self, d, p):
        q = int(p)
        if not 0 <= q < self.period:
            raise InvalidPoint("point outside the cycle")
        return q in d

    def generating_partition(self, n):
        return tuple(self.make([i]) for i in range(self.period))

    def sort_key(self, d):
        return (len(d), tuple(sorted(d)))

    def set_to_dict(self, d):
        return {"points": sorted(d)}

    def set_from_dict(self, d):
        # make reduces mod the period for internal callers; JSON input
        # names points of the cycle only
        points = _json_ints(d["points"], "points")
        if any(not 0 <= p < self.period for p in points):
            raise ValueError("point outside the cycle")
        return self.make(points)

    def scale(self, d):
        return self.period

    def atom_scale(self, ds):
        # the atoms are the points at every scale
        return 0

    def atoms(self, d, s):
        return atom_mask(d)

    def from_atoms(self, mask, s):
        return frozenset(atom_indices(mask))

    def enumerate_points(self, d):
        return sorted(d)

    def canonical_bases(self, n):
        return [self.make([0])]

    def base_witness(self, base):
        return 0

    def adapted_bases(self, P, N):
        """The base {0}.  Its one tower is ({0}, M), so every level is a
        point, inside one cell of P (i) and of h(R) (ii), and S2 = S, as
        h^M fixes 0.  a: the slice is not empty.  b: h^n({0}) is a
        point.  d: the hat base is empty."""
        return [self.make([0])]

    def singleton(self, p):
        return self.make([p])


def _word_value(base, w):
    return sum(d * base**i for i, d in enumerate(w))


def _value_word(base, val, length):
    return tuple((val // base**i) % base for i in range(length))


def _add_carry_seq(base, digits, carry):
    out = []
    for d in digits:
        t = d + carry
        out.append(t % base)
        carry = t // base
    return out, carry


class Odometer(SystemSpec):
    """The base-b adding machine on infinite digit strings (least
    significant digit first), b = base.

    A word w is the cylinder of strings starting with w, i.e. the residue
    class sum(w_i b^i) mod b^len(w).  The data of a set is a pair
    (L, mask): L is the least level at which the set is a union of
    level-L cylinders, and bit r of mask is set when the class r mod b^L
    lies in the set.  Reports list the set's maximal cylinder words.  A
    point is (head, repeat): the digits of head, then repeat forever.
    """

    base: int = 2
    family = ODOMETER
    set_keys = (("words",), ())
    empty_data = (0, 0)

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")

    def make(self, words):
        """The union of the cylinders of `words`."""
        base = self.base
        words = [tuple(int(d) for d in w) for w in words]
        if any(not 0 <= d < base for w in words for d in w):
            raise ValueError("digit out of range")
        L = max((len(w) for w in words), default=0)
        mask = 0
        for w in words:
            mask |= self._lift(len(w), 1 << _word_value(base, w), L)
        return ClopenSet(self, self._lower(L, mask))

    def _lift(self, L, mask, level):
        """The mask at `level` >= L of the set with mask `mask` at level L:
        the b^L-bit mask repeated b^(level-L) times."""
        if level == L:
            return mask
        width = self.base**L
        copies = self.base ** (level - L)
        return mask * (((1 << (width * copies)) - 1) // ((1 << width) - 1))

    def _lower(self, L, mask):
        """The data of the set with mask `mask` at level L, lowered to the
        least level: the mask at level L-1 suffices while the mask repeats
        with period b^(L-1)."""
        base = self.base
        while L:
            width = base ** (L - 1)
            if mask >> width != mask & ((1 << (width * (base - 1))) - 1):
                break
            mask &= (1 << width) - 1
            L -= 1
        return (L, mask)

    def _words(self, d):
        """The sorted maximal cylinder words of a set: the words of length
        k <= L whose class mod b^k lies in the set while the class of
        their parent does not."""
        L, mask = d
        base = self.base
        inside = [mask]  # classes mod b^k that lie in the set, for k = L..0
        for k in range(L, 0, -1):
            width = base ** (k - 1)
            acc = (1 << width) - 1
            for digit in range(base):
                acc &= inside[-1] >> (digit * width)
            inside.append(acc)
        inside.reverse()
        words = []
        for k, m in enumerate(inside):
            if k:
                m &= ~self._lift(k - 1, inside[k - 1], k)
            while m:
                low = m & -m
                words.append(_value_word(base, low.bit_length() - 1, k))
                m ^= low
        return tuple(sorted(words))

    def complement(self, d):
        # a mask repeats exactly when its complement does, so L stays least
        L, mask = d
        return (L, mask ^ ((1 << self.base**L) - 1))

    def apply_h(self, d, n):
        # h adds 1 to every class mod b^L: rotate the mask; a rotated mask
        # repeats exactly when the mask does, so L stays least
        L, mask = d
        width = self.base**L
        k = n % width
        rotated = (mask << k) | (mask >> (width - k))
        return (L, rotated & ((1 << width) - 1))

    def point_apply_h(self, p, n):
        base = self.base
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
        # the carry survives a full period, so it survives every period and
        # the mapped period repeats forever
        return (tuple(head), tuple(out))

    def contains_point(self, d, p):
        base = self.base
        if (
            not isinstance(p, tuple)
            or len(p) != 2
            or not p[1]
            or any(not 0 <= x < base for x in tuple(p[0]) + tuple(p[1]))
        ):
            raise InvalidPoint("bad odometer point description")
        L, mask = d
        head, repeat = p
        r = 0
        for i in range(L):
            digit = head[i] if i < len(head) else repeat[(i - len(head)) % len(repeat)]
            r += digit * base**i
        return bool(mask >> r & 1)

    def generating_partition(self, n):
        return tuple(ClopenSet(self, (n, 1 << v)) for v in range(self.base**n))

    def sort_key(self, d):
        words = self._words(d)
        return (len(words), words)

    def set_to_dict(self, d):
        return {"words": [list(w) for w in self._words(d)]}

    def set_from_dict(self, d):
        if not isinstance(d["words"], list):
            raise ValueError("words must be a list of digit lists")
        return self.make([_json_ints(w, "a word") for w in d["words"]])

    def scale(self, d):
        return self.base ** d[0]

    def atom_scale(self, ds):
        # the atoms at scale s are the residues mod b^s
        return max((d[0] for d in ds), default=0)

    def atoms(self, d, s):
        return self._lift(d[0], d[1], s)

    def from_atoms(self, mask, s):
        return self._lower(s, mask)

    def enumerate_points(self, d):
        if not self.is_empty(d):
            raise NotCompactlySupported("cylinder sets are not finite point sets")
        return []

    def canonical_bases(self, n):
        return [self.make([(0,) * n])]

    def base_witness(self, base):
        return ((), (0,))

    def adapted_bases(self, P, N):
        """The cylinder 0^L, where L is at least the level of every cell
        of P and b^L > N.  Its one tower has height b^L, and its levels
        are the level-L cylinders.  Every cell of P is a union of those,
        so each level lies in one cell (i).  h^(b^L) fixes 0^L, so
        S2 = S, and the cells of h(R) are unions of level-L cylinders
        too (ii).  a: the slice is not empty.  b: h^n(0^L) is a level
        for n < N < b^L.  d: the hat base is empty."""
        L = max([1] + [c.data[0] for c in P])
        while self.base**L <= N:
            L += 1
        return [self.make([(0,) * L])]


# The two shift families store a finite set F of integers as its window
# (lo, bits): bit i of bits is the point lo + i and lo = min F, or (0, 0)
# for the empty F.  It leads the family's data, where the helpers below
# read it: an operation is a few big-int operations, not a point walk.


def _window(points):
    """The window of the integers in points."""
    fs = {int(p) for p in points}
    lo = min(fs, default=0)
    return lo, atom_mask(p - lo for p in fs)


def _window_points(d):
    """The sorted points of the window of the data d."""
    return [d[0] + i for i in atom_indices(d[1])]


def _window_scale(ds):
    """One more than the largest |p| over the windows of the data in
    ds, and at least 1: the least s with every point inside |p| < s."""
    s = 1
    for d in ds:
        if d[1]:
            lo = d[0]
            hi = lo + d[1].bit_length()
            if hi > s:
                s = hi
            if 1 - lo > s:
                s = 1 - lo
    return s


def _mask_window(mask, s):
    """The window of the points p whose bit p + s is set in mask."""
    if not mask:
        return 0, 0
    low = (mask & -mask).bit_length() - 1
    return low - s, mask >> low


class CompactifiedShift(SystemSpec):
    """Z with one point at infinity and the +1 shift.

    The data of a set is (lo, bits, cofinite): the window (lo, bits) of
    a finite set F (see _window), which the set holds or, when
    cofinite, leaves out.  The cofinite form contains inf.  So apply_h
    adds n to lo, complement flips the flag, and the atoms at a scale
    are one shift and one XOR of bits.
    """

    family = COMPACTIFIED_SHIFT
    set_keys = (("F",), ("cofinite",))
    empty_data = (0, 0, False)

    def make(self, points, cofinite=False):
        return ClopenSet(self, (*_window(points), bool(cofinite)))

    def complement(self, d):
        lo, bits, c = d
        return (lo, bits, not c)

    def apply_h(self, d, n):
        lo, bits, c = d
        return (lo + n, bits, c) if bits else d

    def point_apply_h(self, p, n):
        if p == INF:
            return p
        return int(p) + n

    def contains_point(self, d, p):
        lo, bits, c = d
        if p == INF:
            return c
        i = int(p) - lo
        return (i >= 0 and bits >> i & 1 == 1) != c

    def generating_partition(self, n):
        cells = [self.make([i]) for i in range(-n, n)]
        cells.append(self.make(range(-n, n), cofinite=True))
        return tuple(cells)

    def sort_key(self, d):
        return (d[2], d[1].bit_count(), tuple(_window_points(d)))

    def set_to_dict(self, d):
        return {"F": _window_points(d), "cofinite": d[2]}

    def set_from_dict(self, d):
        return self.make(_json_ints(d["F"], "F"), _json_flag(d, "cofinite"))

    def scale(self, d):
        return _window_scale([d])

    # the atoms at scale s are the integers p with |p| < s, at bit
    # p + s, and the rest of X, inf included, at bit 0
    atom_scale = staticmethod(_window_scale)

    def atoms(self, d, s):
        lo, bits, c = d
        mask = bits << lo + s
        return mask ^ ((1 << 2 * s) - 1) if c else mask

    def from_atoms(self, mask, s):
        c = bool(mask & 1)
        if c:
            mask ^= (1 << 2 * s) - 1
        return (*_mask_window(mask, s), c)

    def enumerate_points(self, d):
        if d[2]:
            raise NotCompactlySupported("set has a cofinite part")
        return _window_points(d)

    def canonical_bases(self, n):
        return [self.make(range(-n, n), cofinite=True)]

    def base_witness(self, base):
        return INF

    def adapted_bases(self, P, N):
        """Let U = X - F_U be the cell of P that holds inf, lo = min F_U
        and b = max F_U + 1 (0 and 1 when F_U is empty).  The base is
        X - [a+1, b-1] with a = min(lo - N, b - N - 2).  Its towers are
        (X - [a, b-1], 1) and ({a}, b - a); their levels that are not
        points lie in U, as F_U lies in [a+1, b-1] (i).  S2 has the
        towers (X - [a, b], 1) and ({a}, b - a + 1); their levels that
        are not points lie in X - [a+1, b], a cell of h(R) (ii).  a: the
        known minimal set is {inf}, which the leading slice holds.  b:
        h^n(base) = X - [a+1+n, b-1+n] lies in U for n < N, as
        a + N <= lo.  d: the hat base is {a, b}, and b - a >= N + 2, so
        its iterates 0..N are disjoint.  So Y = {a, b}; v1 cycles
        a, ..., b - 1, v2 cycles a, ..., b, both are 1 elsewhere, and
        v1 v2* swaps a and b and is 1 off them."""
        U = next(c for c in P if contains_point(c, INF))
        lo, bits, _ = U.data
        b = lo + max(bits.bit_length(), 1)  # max F + 1, or 1 when F is empty
        a = min(lo - N, b - (N + 2))
        return [self.make(range(a + 1, b), cofinite=True)]

    def singleton(self, p):
        return self.make([p])


class TwoPointShift(SystemSpec):
    """Z with fixed points -inf and +inf.

    The data of a set is (lo, bits, tail_minus, tail_plus): the window
    (lo, bits) of a finite difference set F (see _window) and the tail
    flags.  An integer q is in the set when its membership differs from
    the default of its side, tail_minus for q < 0 and tail_plus for
    q >= 0, exactly for q in F; -inf is in it iff tail_minus, +inf iff
    tail_plus.
    """

    family = TWO_POINT_SHIFT
    set_keys = (("F",), ("tail_minus", "tail_plus"))
    empty_data = (0, 0, False, False)

    def make(self, diff, tail_minus=False, tail_plus=False):
        """The set from the canonical difference-set form."""
        return ClopenSet(self, (*_window(diff), bool(tail_minus), bool(tail_plus)))

    def complement(self, d):
        lo, bits, tm, tp = d
        return (lo, bits, not tm, not tp)

    def apply_h(self, d, n):
        lo, bits, tm, tp = d
        if tm == tp:
            return (lo + n, bits, tm, tp) if bits else d
        # x is in h^n(E) iff x - n is in E, and the side default of x
        # flips exactly when x and x - n lie on opposite sides of 0: F
        # moves by n and the run of integers between 0 and n flips
        low = min(lo + n, n, 0)
        run = (1 << abs(n)) - 1  # the integers from min(0, n) on
        mask = bits << lo + n - low ^ run << min(n, 0) - low
        return (*_mask_window(mask, -low), tm, tp)

    def point_apply_h(self, p, n):
        if p in (MINUS_INF, PLUS_INF):
            return p
        return int(p) + n

    def contains_point(self, d, p):
        lo, bits, tm, tp = d
        if p == MINUS_INF:
            return tm
        if p == PLUS_INF:
            return tp
        q = int(p)
        return (q >= lo and bits >> q - lo & 1 == 1) != (tm if q < 0 else tp)

    def generating_partition(self, n):
        cells = [self.make([i]) for i in range(-n, n)]
        cells.append(self.make(range(-n, 0), tail_minus=True))
        cells.append(self.make(range(0, n), tail_plus=True))
        return tuple(cells)

    def sort_key(self, d):
        return (d[2], d[3], d[1].bit_count(), tuple(_window_points(d)))

    def set_to_dict(self, d):
        return {"F": _window_points(d), "tail_minus": d[2], "tail_plus": d[3]}

    def set_from_dict(self, d):
        return self.make(
            _json_ints(d["F"], "F"),
            _json_flag(d, "tail_minus"),
            _json_flag(d, "tail_plus"),
        )

    def scale(self, d):
        return _window_scale([d])

    # the atoms at scale s are the integers p with |p| < s, at bit
    # p + s, the minus tail, -inf included, at bit 0 and the plus tail,
    # +inf included, at bit 2s
    atom_scale = staticmethod(_window_scale)

    def _tail_atoms(self, tm, tp, s):
        """The mask of the set with tails tm, tp and no differences."""
        minus = (1 << s) - 1 if tm else 0
        plus = ((1 << s + 1) - 1) << s if tp else 0
        return minus | plus

    def atoms(self, d, s):
        lo, bits, tm, tp = d
        return self._tail_atoms(tm, tp, s) ^ bits << lo + s

    def from_atoms(self, mask, s):
        tm, tp = bool(mask & 1), bool(mask >> 2 * s & 1)
        return (*_mask_window(mask ^ self._tail_atoms(tm, tp, s), s), tm, tp)

    def enumerate_points(self, d):
        if d[2] or d[3]:
            raise NotCompactlySupported("set has a tail part")
        return _window_points(d)

    def canonical_bases(self, n):
        return [self.make(range(-n, 0), tail_minus=True)]

    def base_witness(self, base):
        return MINUS_INF

    def singleton(self, p):
        return self.make([p])


class QuotientProduct(SystemSpec):
    """(Y x Z~)/(Y x {inf}) for a fiber system Y, where Z~ is the
    one-point compactification of Z and the map acts fiberwise.  The data
    of a set is (tail flag, ((k, fiber set), ...)) sorted by the integer
    index k, storing only the slices that differ from the tail default
    (the full fiber if tail, empty otherwise).  A point is inf or
    (k, fiber point)."""

    fiber: SystemSpec
    family = QUOTIENT_PRODUCT
    set_keys = ((), ("tail", "slices"))
    empty_data = (False, ())

    def __post_init__(self):
        if not isinstance(self.fiber, (Odometer, FiniteCycle, CompactifiedShift)):
            raise ValueError("quotient_product fiber must be odometer, "
                             "finite_cycle or compactified_shift")

    def make(self, slices, tail=False):
        """The set from a map index -> fiber ClopenSet plus the tail flag."""
        return ClopenSet(self, self._canon(slices, tail))

    def _canon(self, slices, tail):
        fiber = self.fiber
        default = whole_space(fiber) if tail else empty_set(fiber)
        items = []
        for k, s in slices.items() if isinstance(slices, dict) else slices:
            if s.spec != fiber:
                raise MixedSystems("slice over wrong fiber spec")
            if s != default:
                items.append((int(k), s))
        items.sort(key=lambda kv: kv[0])
        return (bool(tail), tuple(items))

    def slice(self, d, k):
        """The fiber set over integer index k."""
        sl = dict(d[1])
        if k in sl:
            return sl[k]
        return whole_space(self.fiber) if d[0] else empty_set(self.fiber)

    # complement and h^n act slice by slice.  Each is a bijection of the
    # fiber's sets that fixes the empty set and the whole fiber (h^n) or
    # swaps them (complement), so a slice differs from the old tail
    # default iff its image differs from the new one: the stored keys
    # stay the same and in order, and the data is canonical as built.

    def complement(self, d):
        return (not d[0], tuple((k, complement(s)) for k, s in d[1]))

    def apply_h(self, d, n):
        return (d[0], tuple((k, apply_h(s, n)) for k, s in d[1]))

    def point_apply_h(self, p, n):
        if p == INF:
            return p
        k, fp = p
        return (k, point_apply_h(self.fiber, fp, n))

    def contains_point(self, d, p):
        if p == INF:
            return d[0]
        if not isinstance(p, tuple) or len(p) != 2:
            raise InvalidPoint("bad quotient point description")
        k, fp = p
        return contains_point(self.slice(d, int(k)), fp)

    def generating_partition(self, n):
        fiber_cells = generating_partition(self.fiber, n)
        cells = [self.make({k: c}) for k in range(-n, n) for c in fiber_cells]
        tail = {k: empty_set(self.fiber) for k in range(-n, n)}
        return tuple(cells) + (self.make(tail, tail=True),)

    def sort_key(self, d):
        tail, slices = d
        return (tail, tuple((k, sort_key(s)) for k, s in slices))

    def set_to_dict(self, d):
        tail, slices = d
        return {
            "tail": tail,
            "slices": [{"k": k, "set": to_dict(s)} for k, s in slices],
        }

    def set_from_dict(self, d):
        items = d.get("slices", [])
        if not isinstance(items, list) or not all(
            isinstance(item, dict) and set(item) == {"k", "set"} for item in items
        ):
            raise ValueError('slices must be a list of {"k", "set"} objects')
        slices = {}
        for item in items:
            k = _json_int(item["k"], "k")
            if k in slices:
                raise ValueError("slice index %d appears twice" % k)
            slices[k] = from_dict(self.fiber, item["set"])
        return self.make(slices, _json_flag(d, "tail"))

    def scale(self, d):
        inner = max((set_scale(s) for _, s in d[1]), default=1)
        win = max((abs(k) for k, _ in d[1]), default=0) + 1
        return max(inner, win)

    def atom_scale(self, ds):
        # the atoms at scale (ks, sf, full) are the fiber atoms at scale
        # sf of each slice k of the sorted tuple ks, slice ks[i] at bits
        # from i times the fiber atom count, and above them one atom for
        # the rest of X: the other slices and inf; full is the mask of
        # the whole fiber at sf, and its width is the fiber atom count
        fiber = self.fiber
        slices = [kv for d in ds for kv in d[1]]
        ks = tuple(sorted({k for k, _ in slices}))
        sf = fiber.atom_scale([fs.data for _, fs in slices])
        return (ks, sf, fiber.atoms(fiber.complement(fiber.empty_data), sf))

    def atoms(self, d, s):
        ks, sf, full = s
        width = full.bit_length()
        tail, slices = d
        default = full if tail else 0
        mask = (1 << len(ks) * width + 1) - 1 if tail else 0
        for k, fs in slices:
            block = default ^ self.fiber.atoms(fs.data, sf)
            mask ^= block << bisect_left(ks, k) * width
        return mask

    def from_atoms(self, mask, s):
        ks, sf, full = s
        width = full.bit_length()
        top = len(ks) * width
        tail = bool(mask >> top & 1)
        default = full if tail else 0
        # the bits where a slice differs from the tail default: visit
        # only the blocks that hold one, lowest first
        diff = mask ^ ((1 << top + 1) - 1) if tail else mask
        items = []
        while diff:
            i = ((diff & -diff).bit_length() - 1) // width
            block = diff >> i * width & full
            diff ^= block << i * width
            fs = ClopenSet(self.fiber, self.fiber.from_atoms(block ^ default, sf))
            items.append((ks[i], fs))
        return (tail, tuple(items))

    def enumerate_points(self, d):
        tail, slices = d
        if tail:
            raise NotCompactlySupported("set has a tail part")
        out = []
        for k, s in slices:
            out.extend((k, q) for q in enumerate_points(s))
        return out

    def canonical_bases(self, n):
        return self._bases_over(
            range(-n, n), lambda k: self.fiber.canonical_bases(n)
        )

    def _bases_over(self, window, fiber_bases):
        """The tail off the window, then for each k in the window the
        fiber sets fiber_bases(k) placed over k."""
        bases = [self.make({k: empty_set(self.fiber) for k in window}, tail=True)]
        for k in window:
            bases.extend(self.make({k: fb}) for fb in fiber_bases(k))
        return bases

    def base_witness(self, base):
        tail, slices = base.data
        if tail:
            return INF
        k, s = slices[0]
        return (k, self.fiber.base_witness(s))

    def adapted_bases(self, P, N):
        """The tail base, the fibers off the window of P plus inf, then
        over each window slice k its fiber's construction for P_k, the
        nonempty slices at k of the cells of P.  h keeps every point in
        its slice and fixes inf, so each part below holds slice by
        slice.  The tail base lies in the one cell of P with the tail
        flag, and its one tower is (tail base, 1): that level lies in
        the cell (i) and is a cell of h(R) (ii); its leading slice is the
        whole base (a); h fixes it (b); its hat base is empty (d).  Over
        k, the cells of P and of h(R) cut the slice into those of P_k
        and of the fiber's h(R), so the fiber's (i), (ii), a, b and d
        give the quotient's.  So Y has no point in the tail base, and in
        each window slice k it has the fiber's Y for P_k, with v1 v2*
        the fiber's there."""
        window = sorted({k for c in P for k, _ in c.data[1]})

        def fiber_bases(k):
            Pk = [s for s in (self.slice(c.data, k) for c in P) if not is_empty(s)]
            return self.fiber.adapted_bases(Pk, N)

        return self._bases_over(window, fiber_bases)

    def singleton(self, p):
        k, fp = p
        return self.make({k: self.fiber.singleton(fp)})

    def displacement(self, x, y):
        if x[0] != y[0]:
            return None
        return self.fiber.displacement(x[1], y[1])


_SPEC_CLASSES = {cls.family: cls for cls in SystemSpec.__subclasses__()}


def _json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer" % what)
    return value


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


finite_cycle = FiniteCycle
odometer = Odometer
compactified_shift = CompactifiedShift
two_point_shift = TwoPointShift
quotient_product = QuotientProduct


# ---------------------------------------------------------------------------
# building sets
# ---------------------------------------------------------------------------


def empty_set(spec):
    return ClopenSet(spec, spec.empty_data)


def whole_space(spec):
    return ClopenSet(spec, spec.complement(spec.empty_data))


# the family constructors, called as finite_cycle_set(spec, points) etc.
finite_cycle_set = FiniteCycle.make
odometer_set = Odometer.make
shift_set = CompactifiedShift.make
two_point_set = TwoPointShift.make
quotient_set = QuotientProduct.make


# ---------------------------------------------------------------------------
# Boolean algebra
# ---------------------------------------------------------------------------


def _check_same(a, b):
    if a.spec != b.spec:
        raise MixedSystems("operands over different system specs")


def union(a, *more):
    """The union of a and the sets in more, in one pass over their masks."""
    for b in more:
        _check_same(a, b)
    return ClopenSet(a.spec, a.spec.union([a.data] + [b.data for b in more]))


def intersect(a, b):
    _check_same(a, b)
    return ClopenSet(a.spec, a.spec.intersect(a.data, b.data))


def complement(a):
    return ClopenSet(a.spec, a.spec.complement(a.data))


def difference(a, b):
    return intersect(a, complement(b))


def is_empty(a):
    return a.spec.is_empty(a.data)


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
    return ClopenSet(a.spec, a.spec.apply_h(a.data, n))


def point_apply_h(spec, p, n):
    """The image h^n(p) of a point description."""
    return spec.point_apply_h(p, int(n))


def contains_point(a, p):
    """Exact membership of a point description."""
    return a.spec.contains_point(a.data, p)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def disjoint_union(spec, sets, nonempty=False):
    """Walk the sets in order, keeping the union of those before each one.
    (union, None) when they are pairwise disjoint; else (None, overlap)
    at the first set that meets the union before it, or (None, None) at
    the first empty set when nonempty is set.  A set over another spec
    raises MixedSystems when the walk reaches it.  One pass over the
    atom masks at one scale: only the result is built as a set."""
    sets = list(sets)
    mixed = next((i for i, a in enumerate(sets) if a.spec != spec), None)
    walk = sets[:mixed]
    s = spec.atom_scale([a.data for a in walk])
    covered = 0
    for a in walk:
        mask = spec.atoms(a.data, s)
        if nonempty and not mask:
            return None, None
        if mask & covered:
            return None, ClopenSet(spec, spec.from_atoms(mask & covered, s))
        covered |= mask
    if mixed is not None:
        raise MixedSystems("partition over mixed specs")
    return ClopenSet(spec, spec.from_atoms(covered, s)), None


def is_partition(sets):
    """True iff there are sets, and they are nonempty, pairwise disjoint
    and cover X."""
    if not sets:
        return False
    spec = sets[0].spec
    return disjoint_union(spec, sets, nonempty=True)[0] == whole_space(spec)


def partition_witness(spec, sets):
    """Why the sets do not partition X: the first overlap of a set with
    the union of the sets before it, else the part of X they miss."""
    covered, overlap = disjoint_union(spec, sets)
    return complement(covered) if overlap is None else overlap


def common_refinement(P, Q):
    """All nonempty pairwise intersections, ordered by (P index, Q index),
    from the atom masks of P and Q at one scale.  For pairwise disjoint
    Q it is tuple(P) iff each a in P is nonempty and lies in one cell U
    of Q: then a & U is a and the other cells miss a."""
    if not P or not Q:
        return ()
    spec = P[0].spec
    sets = (*P, *Q)
    # list.count tests identity before ==, in C: one pass, no calls
    # for the usual shared spec object
    if [a.spec for a in sets].count(spec) != len(sets):
        raise MixedSystems("operands over different system specs")
    s = spec.atom_scale([a.data for a in sets])
    masks = [spec.atoms(b.data, s) for b in Q]
    out = []
    for a in P:
        mask = spec.atoms(a.data, s)
        for m in masks:
            if mask & m:
                out.append(ClopenSet(spec, spec.from_atoms(mask & m, s)))
    return tuple(out)


def atom_mask(indices):
    """The atom mask of distinct atom indices."""
    return sum(map((1).__lshift__, indices))


def atom_indices(mask):
    """The indices of the atoms in an atom mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def generating_partition(spec, n):
    """The n-th member of the canonical generating sequence of partitions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return spec.generating_partition(n)


# ---------------------------------------------------------------------------
# deterministic ordering, sizes, serialization
# ---------------------------------------------------------------------------


def sort_key(a):
    """A deterministic total order on canonical clopen sets."""
    return a.spec.sort_key(a.data)


def set_scale(a):
    """The window or level scale of a set: its period, b^L for an
    odometer set, or one more than its largest index."""
    return a.spec.scale(a.data)


def enumerate_points(a):
    """All points of a clopen set that is a finite set of points."""
    return a.spec.enumerate_points(a.data)


def to_dict(a):
    return a.spec.set_to_dict(a.data)


def from_dict(spec, d):
    """Parse the to_dict form of a set; malformed input raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a clopen set must be a JSON object")
    required, optional = spec.set_keys
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError("unknown %s set key %r" % (spec.family, unknown[0]))
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError("missing %s set key %r" % (spec.family, missing[0]))
    return spec.set_from_dict(d)
