"""Divisor-class data model on the moduli space of stable n-pointed genus-g curves.

Generators: lambda (Hodge class), psi_1..psi_n, delta_irr, and the boundary
divisors delta_{i:S} under the identification delta_{i:S} = delta_{g-i:S^c}.
Coefficients are tri-state-plus-one: Exact, AtLeast (lower bound), AtMost
(upper bound), Unknown; the bound variants exist because some sources pin a
coefficient only up to a sign-aware inequality.

There is one class type for every n >= 0.  A class on the unmarked space is a
DivisorClass on Space(g, 0): lambda, delta_irr (the delta_0 of the
literature) and delta_i as the (i, 0) orbit for 1 <= i <= g/2.

Every family of coefficients is stored as a layer: one rest coefficient
shared by all its keys, plus the keys whose coefficient differs from it.  psi
is one layer over the labels 1..n.  The boundary has four levels: rest ->
row i -> orbit (i, |S|) -> member index.  The rest is shared by every row
that is not listed; a listed row is a Row, one coefficient kind and one
formula in s, such as the family's -b0(s, t); an orbit entry is an exception
to its row, such as b_{1:0} = t+4; and an explicit member is an exception to
its orbit.  One rule compares two layers and one rule adds them, at every
level; where two row formulas differ, equality reads that row's unlisted
orbits one by one, so it always decides.  This is what makes large spaces
(n up to 153 in the benchmark sweep, 861 at t = 40) tractable: every class
this package constructs has one psi coefficient and is label-symmetric on the
boundary, and its rows are constants or low-degree formulas in s with a few
exceptions, so arithmetic costs O(listed keys), not O(all orbits) or O(n).

Every value type of the package is an immutable tuple of its fields, a
namedtuple: Space, BoundaryIndex, TestCurve, Coefficient and Row here, and
the linear solutions, clutching maps, catalog entries and certificates of the
other modules.  Such a value compares equal to the plain tuple of its fields,
Space(5, 3) == (5, 3), and a type that checks its fields does so in __new__,
before the tuple is built.  Coefficients and Rows are built and compared in
C.  A DivisorClass, which holds its layers in dicts, is not a tuple.

Every class is stored by DivisorClass._store, which drops each entry equal
to its layer's rest, and row 0 when n < 2: the constructor checks its
arguments first, while arithmetic and the package's own class builders
store valid layers without those checks.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from math import comb, gcd
from types import MappingProxyType

from .exact import Poly, Scalar, parse_rat, rat_str, scalar


class PicardError(Exception):
    pass


class UnstableIndexError(PicardError, ValueError):
    """A boundary index, a row or an orbit that does not exist on the space:
    a genus index or label out of range, or an unstable split.  `_check_index`
    raises it for every boundary index, canonical_index's and TestCurve's
    alike.  It is a ValueError, as every invalid argument is."""


class SpaceMismatchError(PicardError):
    pass


class InsufficientInformationError(PicardError):
    """An intersection needs a coefficient that is only bounded or unknown."""


class MalformedClassError(PicardError):
    pass


# ---------------------------------------------------------------------------
# coefficients


def _not_defined(self, other):
    """A tuple's ordering or repetition, which a Coefficient or a Row does not have."""
    return NotImplemented


class Coefficient(namedtuple("Coefficient", "kind value")):
    """Exact value, one-sided bound, or no information at all.

    AtLeast(r) means "the true coefficient is >= r"; AtMost(r) the mirror.
    Addition and scaling propagate what is still known: adding opposite-sided
    bounds, or negating a one-sided bound, loses the direction.

    A Coefficient is an immutable (kind, value) tuple: building one is one
    tuple allocation, and equality and hashing are the tuple's, decided in C.
    It does not order or repeat as a tuple does, and + is coefficient
    addition.  kind is "exact", "at_least", "at_most" or "unknown" (which
    stores None); another kind, or an unknown given a value, raises
    ValueError.  A known value is stored in the normal form of
    exact.scalar: an int when it is integral, else a Fraction, never a float.
    The constructor passes an int through and normalizes any other known
    value (a float or None raises TypeError), so every sum, scaling and JSON
    load is normal, and the integral coefficients that most classes carry
    add, scale and compare as ints.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = __mul__ = __rmul__ = _not_defined

    def __new__(cls, kind: str, value: Scalar | None = None):
        if kind in _PREFIX:
            if type(value) is not int:
                value = scalar(value)
        elif kind != "unknown":
            raise ValueError(f"bad coefficient kind {kind!r}")
        elif value is not None:
            raise ValueError(f"an unknown coefficient has no value, got {value!r}")
        return _normal((kind, value))

    @staticmethod
    def exact(v: Scalar) -> "Coefficient":
        if type(v) is int:  # already normal: one tuple, no checks
            return _normal(("exact", v))
        return Coefficient("exact", v)

    @staticmethod
    def at_least(v: Scalar) -> "Coefficient":
        return Coefficient("at_least", v)

    @staticmethod
    def at_most(v: Scalar) -> "Coefficient":
        return Coefficient("at_most", v)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_zero(self) -> bool:
        return self.kind == "exact" and self.value == 0

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        kind = _sum_kind(self.kind, other.kind)
        if kind == "unknown":
            return UNKNOWN
        v = self.value + other.value
        return _normal((kind, v if type(v) is int else scalar(v)))

    def scaled(self, c: Scalar) -> "Coefficient":
        c = scalar(c)
        if c == 0:
            return EXACT_ZERO
        if self.kind == "unknown":
            return UNKNOWN
        v = self.value * c
        return _normal((_scaled_kind(self.kind, c), v if type(v) is int else scalar(v)))

    def __str__(self):
        if self.kind == "unknown":
            return "?"
        return _PREFIX[self.kind] + rat_str(self.value)

    def to_json(self):
        if self.kind == "unknown":
            return "unknown"
        return {self.kind: rat_str(self.value)}

    @staticmethod
    def from_json(doc) -> "Coefficient":
        if doc == "unknown":
            return UNKNOWN
        if isinstance(doc, dict) and len(doc) == 1:
            (kind, text), = doc.items()
            if kind in ("exact", "at_least", "at_most"):
                try:
                    return Coefficient(kind, parse_rat(text))
                except (ValueError, TypeError) as e:
                    raise MalformedClassError(f"bad coefficient value: {text!r}") from e
        raise MalformedClassError(f"bad coefficient document: {doc!r}")


def _sum_kind(a: str, b: str) -> str:
    """The kind of a sum: a bound keeps its direction when added to an exact
    value or a bound of the same side; opposite sides, or Unknown, give Unknown."""
    if a == b or b == "exact":
        return a
    return b if a == "exact" else "unknown"


_INT = {int}
_FLIPPED = {"exact": "exact", "at_least": "at_most", "at_most": "at_least"}
_PREFIX = {"exact": "", "at_least": ">=", "at_most": "<="}  # how a known kind prints


def _scaled_kind(kind: str, c: Scalar) -> str:
    """The kind of a known coefficient times a non-zero c: a negative c flips a bound."""
    return _FLIPPED[kind] if c < 0 else kind


# the one maker of Coefficients: from a (kind, normal value) pair, in C
_normal = partial(tuple.__new__, Coefficient)
EXACT_ZERO = Coefficient.exact(0)
UNKNOWN = Coefficient("unknown")
_NO_ENTRIES = MappingProxyType({})  # an empty layer, read-only


def coeff(x) -> Coefficient:
    """Wrap a scalar as Exact; pass Coefficient values through."""
    if type(x) is int:  # the common case, already normal
        return _normal(("exact", x))
    if isinstance(x, Coefficient):
        return x
    return Coefficient("exact", x)


class Row(namedtuple("Row", "kind num den", defaults=((), 1))):
    """One coefficient kind and one formula in s, for a whole boundary row.

    The value at s is Coefficient(kind, (num[0] + num[1] s + num[2] s^2 + ...)
    / den), evaluated by Horner in ints, so reading a row costs what int
    arithmetic costs.  Like a Coefficient, a Row is an immutable tuple,
    (kind, num, den), compared in C.  The stored form is normal (`Row.formula`
    builds it): den > 0 and coprime to the numerator's content, no trailing
    zero in num, and an Unknown row stores no formula.  Two rows are equal
    exactly when their formulas are; sums and scalings act on the formulas and
    agree with Coefficient arithmetic at every s.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = __mul__ = __rmul__ = _not_defined

    @staticmethod
    def formula(kind: str, num, den: int = 1) -> "Row":
        """The normal row of kind `kind` with value sum(num[k] s^k) / den."""
        num = list(num)
        if type(den) is not int or not _INT.issuperset(map(type, num)):
            raise TypeError(f"a row formula takes ints, got {num!r} / {den!r}")
        if den == 0:
            raise ZeroDivisionError("row formula with denominator 0")
        if kind == "unknown":
            return UNKNOWN_ROW
        if kind not in _FLIPPED:
            raise ValueError(f"bad coefficient kind {kind!r}")
        while num and not num[-1]:
            num.pop()
        common = gcd(den, *num) * (1 if den > 0 else -1)
        return Row(kind, tuple([x // common for x in num]), den // common)

    @staticmethod
    def const(c: Coefficient) -> "Row":
        """The row whose value is c at every s."""
        if c.kind == "unknown":
            return UNKNOWN_ROW
        value = c.value
        if type(value) is int:
            return Row(c.kind, (value,) if value else ())
        return Row(c.kind, (value.numerator,), value.denominator)

    def at(self, s: int) -> Coefficient:
        if self.kind == "unknown":
            return UNKNOWN
        v = 0
        for c in reversed(self.num):
            v = v * s + c
        if self.den != 1:
            q, r = divmod(v, self.den)
            v = Fraction(v, self.den) if r else q
        return _normal((self.kind, v))

    def __add__(self, other: "Row") -> "Row":
        kind = _sum_kind(self.kind, other.kind)
        if kind == "unknown":
            return UNKNOWN_ROW
        a, b = self.den, other.den
        return Row.formula(kind, [x * b + y * a for x, y in
                                  zip_longest(self.num, other.num, fillvalue=0)], a * b)

    def scaled(self, c: Scalar) -> "Row":
        c = scalar(c)
        if c == 0:
            return ZERO_ROW
        if self.kind == "unknown":
            return UNKNOWN_ROW
        p, q = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        return Row.formula(_scaled_kind(self.kind, c), [x * p for x in self.num], self.den * q)

    def __str__(self):
        """The kind's prefix, as Coefficient prints it, and the formula in s as Poly prints it."""
        if self.kind == "unknown":
            return "?"
        formula = Poly(("s",), {(k,): Fraction(c, self.den) for k, c in enumerate(self.num)})
        return _PREFIX[self.kind] + str(formula)


ZERO_ROW = Row("exact")
UNKNOWN_ROW = Row("unknown")


# ---------------------------------------------------------------------------
# spaces and boundary indexing


class Space(namedtuple("Space", "g n")):
    """The moduli space of stable genus-g curves with n labeled points, the
    tuple (g, n).  g >= 2 and n >= 0 are required, which make 3g - 3 + n
    positive: every such space is stable."""

    __slots__ = ()

    def __new__(cls, g: int, n: int):
        if type(g) is not int or type(n) is not int:
            raise ValueError(f"g and n must be ints, got (g={g!r}, n={n!r})")
        if g < 2 or n < 0:
            raise ValueError(f"unsupported space (g={g}, n={n})")
        return tuple.__new__(cls, (g, n))

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)


class BoundaryIndex(namedtuple("BoundaryIndex", "i S")):
    """Canonical representative of delta_{i:S} = delta_{g-i:S^c}: the pair
    (i, S), S a frozenset of labels."""

    __slots__ = ()

    @property
    def s(self) -> int:
        return len(self.S)

    def sort_key(self):
        return (self.i, len(self.S), tuple(sorted(self.S)))

    def __repr__(self):
        inner = ",".join(str(j) for j in sorted(self.S))
        return f"delta_{{{self.i}:{{{inner}}}}}"


def _stable_split(g: int, n: int, i: int, s: int) -> bool:
    # each side must carry the node plus enough genus/points to be stable
    return (i >= 1 or s >= 2) and (g - i >= 1 or n - s >= 2)


def _check_index(space: Space, i, S, prefix: bool = False) -> None:
    """Check a boundary index (i, S) on `space`, S a collection of labels:
    the one check of every boundary index that canonical_index and TestCurve
    take.  A genus index or label that is not an int raises ValueError; i
    outside 0..g, a label outside 1..n, or an unstable split raises
    UnstableIndexError.  With `prefix`, S is known to be the ints 1..|S|
    (a range(1, s+1)), whose labels are all marked iff |S| <= n: that check
    is O(1), the others are O(|S|)."""
    g, n = space.g, space.n
    _check_index_types(i, () if prefix else S)
    if not 0 <= i <= g:
        raise UnstableIndexError(f"genus index {i} outside 0..{g}")
    if not (len(S) <= n if prefix else all(1 <= j <= n for j in S)):
        raise UnstableIndexError(f"labels {sorted(S)} outside 1..{n}")
    if not _stable_split(g, n, i, len(S)):
        raise UnstableIndexError(
            f"unstable boundary index (i={i}, S={sorted(S)}) on (g={g}, n={n})"
        )


def _mirrored(g: int, n: int, i: int, has_1: bool) -> bool:
    """Whether delta_{i:T} on (g, n) is stored as its mirror delta_{g-i:T^c},
    where `has_1` says whether label 1 is in T: when 2i > g, or 2i = g on a
    marked space with 1 outside T.  This is the package's one mirror rule;
    canonical_index and intersect_test_curve both decide by it.  On an
    unmarked space delta_{g/2:{}} is its own mirror and is not mirrored."""
    return 2 * i > g or (2 * i == g and n > 0 and not has_1)


def canonical_index(space: Space, i: int, S) -> BoundaryIndex:
    """Canonical representative of (i, S) under (i, S) ~ (g-i, S complement).

    Canonical means i < g/2, or i = g/2 with 1 in S (there is no standard
    delta_{g/2:S} normalization, this is the convention used throughout this
    package), as `_mirrored` decides.  On an unmarked space delta_{g/2:{}}
    is its own mirror and is its own representative.  Idempotent.

    The index is checked by `_check_index`: a genus index or label that is
    not an int raises ValueError; one out of range, or an unstable split,
    raises UnstableIndexError, itself a ValueError.  The cost is O(|S|),
    plus O(n) for the complement when the representative is the mirror.
    """
    S = frozenset(S)
    _check_index(space, i, S)
    if _mirrored(space.g, space.n, i, 1 in S):
        return BoundaryIndex(space.g - i, frozenset(space.labels) - S)
    return BoundaryIndex(i, S)


def _check_index_types(i, S) -> None:
    """A genus index and its labels must be ints: a float or a bool would be
    stored and printed as given, and its serialized form would not load."""
    if type(i) is not int:
        raise ValueError(f"genus index {i!r} is not an int")
    for j in S:
        if type(j) is not int:
            raise ValueError(f"label {j!r} is not an int")


def _split_by_label_1(space: Space, i: int) -> bool:
    """Whether the canonical members of row i are the sets containing label 1:
    i = g/2 on a marked space.  On an unmarked space delta_{g/2:{}} is its
    own mirror."""
    return 2 * i == space.g and space.n > 0


def _row_start(space: Space, i: int) -> int:
    """The least s of an orbit (i, s) of row i, for 0 <= i <= g/2: the row's
    orbits are its s from there to n.  A genus-0 tail needs two labels, the
    canonical members of a split row contain label 1, and every other row
    starts at s = 0 (the genus-(g-i) side has genus >= 1)."""
    return 2 if i == 0 else 1 if _split_by_label_1(space, i) else 0


def is_orbit(space: Space, i: int, s: int) -> bool:
    """Whether (i, s) keys a canonical boundary orbit: 0 <= i <= g/2 and
    0 <= s <= n with a stable split, and s >= 1 when i = g/2 and n >= 1 (the
    canonical representative there contains label 1)."""
    return 0 <= 2 * i <= space.g and _row_start(space, i) <= s <= space.n


def boundary_orbits(space: Space):
    """Canonical (i, s) orbits of boundary divisors, in deterministic order."""
    for i in range(0, space.g // 2 + 1):
        for s in range(_row_start(space, i), space.n + 1):
            yield (i, s)


def row_count(space: Space) -> int:
    """Number of boundary rows i that hold an orbit: every 0 <= i <= g/2 but
    the genus-0 row when n < 2."""
    return space.g // 2 + (space.n >= 2)


def orbit_size(space: Space, i: int, s: int) -> int:
    if _split_by_label_1(space, i):
        return comb(space.n - 1, s - 1)
    return comb(space.n, s)


# ---------------------------------------------------------------------------
# divisor classes


def _check_label(space: Space, j) -> None:
    if type(j) is not int or not 1 <= j <= space.n:
        raise ValueError(f"psi label {j!r} outside 1..{space.n}")


def _layers_agree(a_rest, a: dict, b_rest, b: dict, size,
                  agree=lambda key, x, y: x == y) -> bool:
    """Whether two layers over size() keys agree at every key.  A layer reads
    its entry where it lists the key and its rest elsewhere.  Only the listed
    keys are read, so the two rests may differ only when the keys listed by
    either layer cover all size() keys; size is called only then, since an
    orbit's size is a binomial.  `agree(key, x, y)` compares the two values at
    one key."""
    keys = a.keys() | b.keys()
    if a_rest != b_rest and len(keys) < size():
        return False
    for k in keys:
        if not agree(k, a.get(k, a_rest), b.get(k, b_rest)):
            return False
    return True


def _layer_sum(a_rest, a: dict, b_rest, b: dict):
    """The (rest, entries) layer whose value at every key is the sum of two
    layers' values there; it lists the keys that either layer lists."""
    if not (a or b):
        return a_rest + b_rest, _NO_ENTRIES
    return a_rest + b_rest, {k: a.get(k, a_rest) + b.get(k, b_rest) for k in a.keys() | b.keys()}


def _layer_scaled(entries: dict, c: Scalar) -> dict:
    """Every entry of a layer, a Coefficient or a Row, times c."""
    return {k: v.scaled(c) for k, v in entries.items()} if entries else _NO_ENTRIES


class DivisorClass:
    """Immutable linear combination of the standard Picard generators.

    Each family of coefficients is a layer: a rest shared by every key, plus
    the keys whose value differs from it.  psi is a layer over the labels:
    either one value for every label (`psi=c`), or `psi_rest` (default
    Exact(0)) plus the labels that a dict `psi` lists; when every label is
    listed the rest becomes the most common listed value.  A single `psi`
    value with a `psi_rest` is ambiguous and raises ValueError.  The
    boundary is a layer over the rows i: `boundary_rest` (default Exact(0))
    plus the `boundary_rows` entries, each a Row, one kind and one formula in
    s (a Coefficient or a scalar is a constant row).  Each row is a layer
    over its orbits (i, s), with the row's value at s as the rest, plus the
    `boundary_sym` (i, s) entries.  Each orbit is a layer over its member
    indices: the orbit's value plus the `boundary` entries in it, stored
    under their orbit.

    The stored form is normal: `_store` drops an entry equal to its layer's
    rest, and a row that holds no orbit (row 0 when n < 2).  All arithmetic is
    generator-wise Coefficient arithmetic, or Row arithmetic on a whole row,
    and costs O(listed keys), independent of n; its results skip the
    constructor's checks.  Two classes that list only rests compare in O(1).
    """

    __slots__ = ("space", "lam", "delta_irr", "_psi", "_psi_rest",
                 "_explicit", "_orbits", "_rows", "_rest")

    def __init__(self, space, lam=EXACT_ZERO, psi=None, delta_irr=EXACT_ZERO, boundary=None,
                 boundary_sym=None, boundary_rest=EXACT_ZERO, psi_rest=None, boundary_rows=None):
        lam = coeff(lam)
        if psi is None or isinstance(psi, dict):
            entries, psi_rest = psi or {}, EXACT_ZERO if psi_rest is None else coeff(psi_rest)
        elif psi_rest is None:
            entries, psi_rest = {}, coeff(psi)
        else:
            raise ValueError("psi is one value for every label; psi_rest goes with a dict psi")
        listed = {}
        for j, c in entries.items():
            _check_label(space, j)
            listed[j] = coeff(c)
        delta_irr = coeff(delta_irr)

        g, n = space.g, space.n
        rest = coeff(boundary_rest)
        rows = {}
        for i, row in (boundary_rows or {}).items():
            if type(i) is not int:
                raise ValueError(f"boundary row {i!r} is not an int")
            if not 0 <= 2 * i <= g:
                raise UnstableIndexError(f"no canonical boundary row {i} on {space}")
            # a Row built directly is checked and brought to normal form here
            rows[i] = (Row.formula(row.kind, row.num, row.den) if isinstance(row, Row)
                       else Row.const(coeff(row)))

        orbits = {}
        starts = {}  # row i -> its least s, found once per row; n + 1 where there is no row i
        for key, c in (boundary_sym or {}).items():
            if not (type(key) is tuple and len(key) == 2
                    and type(key[0]) is int and type(key[1]) is int):
                raise ValueError(f"boundary_sym key {key!r} is not a pair of ints")
            i, s = key
            start = starts.get(i)
            if start is None:
                start = starts[i] = _row_start(space, i) if 0 <= 2 * i <= g else n + 1
            if not start <= s <= n:
                raise UnstableIndexError(f"no canonical boundary orbit {key} on {space}")
            orbits[key] = coeff(c)

        explicit = {}
        for key, c in (boundary or {}).items():
            idx = canonical_index(space, *key)
            members = explicit.setdefault((idx.i, idx.s), {})
            c = coeff(c)
            members[idx] = members[idx] + c if idx in members else c
        self._store(space, lam, delta_irr, psi_rest, listed, rest, rows, orbits, explicit)

    def _store(self, space, lam=EXACT_ZERO, delta_irr=EXACT_ZERO, psi_rest=EXACT_ZERO,
               psi=_NO_ENTRIES, rest=EXACT_ZERO, rows=_NO_ENTRIES, orbits=_NO_ENTRIES,
               explicit=_NO_ENTRIES) -> "DivisorClass":
        """Store the layers in normal form and return self; every class is
        stored here.  Each entry equal to its layer's rest is dropped, and so
        is row 0 when n < 2, which holds no orbit; a psi that lists every
        label takes its most common value as the rest (Exact(0) on an
        unmarked space).  Nothing else is checked: the values are normal
        Coefficients (Rows in `rows`), every key is a valid label, row
        0 <= i <= g/2, or orbit, and `explicit` maps an orbit (i, s) to its
        members under canonical BoundaryIndex keys."""
        if len(psi) == space.n:
            counts = {}
            for c in psi.values():
                counts[c] = counts.get(c, 0) + 1
            psi_rest = max(counts, key=counts.get, default=EXACT_ZERO)
        self.space = space
        self.lam = lam
        self.delta_irr = delta_irr
        self._psi_rest = psi_rest
        self._rest = rest
        # an empty layer, the common case, skips its filter
        self._psi = {j: c for j, c in psi.items() if c != psi_rest} if psi else {}
        if rows:
            flat = Row.const(rest)
            rows = {i: row for i, row in rows.items() if row != flat}
            if space.n < 2:
                rows.pop(0, None)
        self._rows = rows = rows or {}
        self._orbits = {}
        if orbits:
            for key, c in orbits.items():
                row = rows.get(key[0])
                if c != (rest if row is None else row.at(key[1])):
                    self._orbits[key] = c
        self._explicit = {}
        if explicit:
            for key, members in explicit.items():
                value = self._orbit_value(key)
                kept = {idx: c for idx, c in members.items() if c != value}
                if kept:
                    self._explicit[key] = kept
        return self

    # -- accessors ---------------------------------------------------------

    def _row(self, i: int) -> Row:
        """The formula of row i: its listed Row, else the rest as a constant row."""
        row = self._rows.get(i)
        return Row.const(self._rest) if row is None else row

    def _orbit_value(self, key) -> Coefficient:
        """The coefficient of orbit `key` = (i, s): its entry, else row i at s."""
        c = self._orbits.get(key)
        if c is None:
            row = self._rows.get(key[0])
            c = self._rest if row is None else row.at(key[1])
        return c

    def orbit_coefficient(self, i: int, s: int) -> Coefficient:
        """The coefficient shared by the (i, s) orbit, before explicit entries."""
        if not is_orbit(self.space, i, s):
            raise UnstableIndexError(f"no canonical boundary orbit {(i, s)} on {self.space}")
        return self._orbit_value((i, s))

    def boundary_coefficient(self, i: int, S) -> Coefficient:
        idx = canonical_index(self.space, i, frozenset(S))
        value, members = self._orbit_layer((idx.i, idx.s))
        return members.get(idx, value)

    def _orbit_layer(self, key):
        """The member layer of orbit `key`: its value and its explicit members."""
        return self._orbit_value(key), self._explicit.get(key, {})

    def boundary_items(self):
        items = [item for members in self._explicit.values() for item in members.items()]
        return sorted(items, key=lambda kv: kv[0].sort_key())

    @property
    def boundary_is_zero(self) -> bool:
        return self._boundary_equal(DivisorClass(self.space))

    def psi_coefficient(self, label: int) -> Coefficient:
        _check_label(self.space, label)
        return self._psi.get(label, self._psi_rest)

    @property
    def psi_rest(self) -> Coefficient:
        """The psi coefficient shared by every label that psi_items leaves out."""
        return self._psi_rest

    def psi_items(self):
        """Sorted (label, coefficient) pairs of the labels whose psi coefficient
        differs from psi_rest."""
        return sorted(self._psi.items())

    @property
    def psi_symmetric(self) -> bool:
        # a fully listed psi is folded, so some label carries the rest and
        # any listed label differs from it
        return not self._psi

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other):
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")

    def add(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_space(other)
        psi_rest, psi = _layer_sum(self._psi_rest, self._psi, other._psi_rest, other._psi)
        rows = orbits = explicit = _NO_ENTRIES  # a layer neither class lists stays empty
        if self._rows or other._rows:
            rows = {i: self._row(i) + other._row(i) for i in self._rows.keys() | other._rows.keys()}
        if self._orbits or other._orbits:
            orbits = {key: self._orbit_value(key) + other._orbit_value(key)
                      for key in self._orbits.keys() | other._orbits.keys()}
        if self._explicit or other._explicit:
            explicit = {key: _layer_sum(*self._orbit_layer(key), *other._orbit_layer(key))[1]
                        for key in self._explicit.keys() | other._explicit.keys()}
        return object.__new__(DivisorClass)._store(
            self.space, self.lam + other.lam, self.delta_irr + other.delta_irr, psi_rest, psi,
            self._rest + other._rest, rows, orbits, explicit)

    def scale(self, c: Scalar) -> "DivisorClass":
        c = scalar(c)
        return object.__new__(DivisorClass)._store(
            self.space, self.lam.scaled(c), self.delta_irr.scaled(c), self._psi_rest.scaled(c),
            _layer_scaled(self._psi, c), self._rest.scaled(c), _layer_scaled(self._rows, c),
            _layer_scaled(self._orbits, c),
            {key: _layer_scaled(members, c) for key, members in self._explicit.items()})

    def symmetrized(self) -> "DivisorClass":
        """The average of the class over every relabelling of the n points, in
        Coefficient arithmetic, so bounds and Unknown propagate as in add.

        psi becomes its mean over the labels, and an orbit with explicit
        members the mean over its members; the rest, the rows and the orbit
        entries are label-symmetric and pass through.  On the middle row
        i = g/2 of a marked space delta_{g/2:S} = delta_{g/2:S^c}, so the
        orbits (g/2, s) and (g/2, n-s) share the mean over both.  The cost is
        O(listed entries), plus O(n) when the middle row is a formula that is
        not constant.  The result is psi-symmetric and stores no explicit
        member.
        """
        space, n = self.space, self.space.n
        middle = space.g // 2 if _split_by_label_1(space, space.g // 2) else None

        def mean(i, s):
            total, size = EXACT_ZERO, 0
            for key in {(i, s), (i, n - s)} if i == middle else {(i, s)}:
                if is_orbit(space, *key):
                    value, members = self._orbit_layer(key)
                    k = orbit_size(space, *key)
                    total += sum(members.values(), value.scaled(k - len(members)))
                    size += k
            return total.scaled(Fraction(1, size))

        joined = {s for i, s in (*self._orbits, *self._explicit) if i == middle}
        if middle in self._rows and len(self._rows[middle].num) > 1:
            joined = range(1, n + 1)  # f(s) and f(n - s) may differ at every s
        keys = {key for key in self._explicit if key[0] != middle}
        keys |= {(middle, t) for s in joined for t in (s, n - s) if t}
        psi = sum(self._psi.values(), self._psi_rest.scaled(n - len(self._psi)))
        return object.__new__(DivisorClass)._store(
            space, self.lam, self.delta_irr, psi.scaled(Fraction(1, n)) if n else EXACT_ZERO,
            rest=self._rest, rows=self._rows,
            orbits={**self._orbits, **{key: mean(*key) for key in keys}})

    def __add__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.add(other)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.space is not other.space and self.space != other.space:
            return False
        if (self.lam, self.delta_irr) != (other.lam, other.delta_irr):
            return False
        if not (self._psi or self._rows or self._orbits or self._explicit or other._psi
                or other._rows or other._orbits or other._explicit):
            # two classes that list nothing are equal exactly when their rests
            # are: every space has a boundary row, and the psi rests of an
            # unmarked space are both Exact(0)
            return (self._psi_rest, self._rest) == (other._psi_rest, other._rest)
        return (_layers_agree(self._psi_rest, self._psi, other._psi_rest, other._psi,
                              lambda: self.space.n)
                and self._boundary_equal(other))

    def _boundary_equal(self, other: "DivisorClass") -> bool:
        """Whether every boundary coefficient agrees: the layer rule over
        rows, within each row over its orbits, and within each orbit over its
        members.  Where two row formulas differ, the orbits of that row that
        neither class lists are read one by one, so equality always decides."""
        space = self.space

        def listed_orbits(cls):
            # row i -> {s: value} of its orbits with an entry or explicit members
            by_row = {}
            for key in (*cls._explicit, *cls._orbits):
                by_row.setdefault(key[0], {})[key[1]] = cls._orbit_value(key)
            return by_row

        def listed_rows(cls, by_row):
            # a row with listed orbits is listed too, at its formula
            rest = Row.const(cls._rest)
            return rest, {**dict.fromkeys(by_row, rest), **cls._rows}

        a_orbits, b_orbits = listed_orbits(self), listed_orbits(other)

        def orbit_agrees(key, a_value, b_value):
            return _layers_agree(a_value, self._explicit.get(key, {}), b_value,
                                 other._explicit.get(key, {}), lambda: orbit_size(space, *key))

        def row_agrees(i, a_row, b_row):
            a, b = a_orbits.get(i, {}), b_orbits.get(i, {})
            if a_row != b_row:
                for s in range(_row_start(space, i), space.n + 1):
                    if s not in a and s not in b and a_row.at(s) != b_row.at(s):
                        return False
            return all(orbit_agrees((i, s), a[s] if s in a else a_row.at(s),
                                    b[s] if s in b else b_row.at(s))
                       for s in a.keys() | b.keys())

        return _layers_agree(*listed_rows(self, a_orbits), *listed_rows(other, b_orbits),
                             lambda: row_count(space), row_agrees)

    def __hash__(self):
        # equal classes may store different psi rests or boundary layers;
        # these three fields they always share
        return hash((self.space, self.lam, self.delta_irr))

    def __repr__(self):
        # each stored entry once, in the order of the class document; lambda,
        # delta_irr and a rest are left out when 0, a listed entry never
        named = [(self.lam, "lambda"), (self.delta_irr, "delta_irr"), (self._psi_rest, "psi_*")]
        parts = [f"({c})*{name}" for c, name in named if not c.is_zero]
        parts += [f"({c})*psi_{j}" for j, c in self.psi_items()]
        if not self._rest.is_zero:
            parts.append(f"({self._rest})*delta_[*]")
        parts += [f"({row})*delta_[{i}:|S|=s]" for i, row in sorted(self._rows.items())]
        parts += [f"({c})*delta_[{i}:|S|={s}]" for (i, s), c in sorted(self._orbits.items())]
        parts += [f"({c})*{idx!r}" for idx, c in self.boundary_items()]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} on (g={self.space.g}, n={self.space.n})>"


class TestCurve(namedtuple("TestCurve", "space i S")):
    """One-parameter family in delta_{i:S}: the attachment node moves on the
    genus g-i side.  Both (i, S) and, for each label j outside S, the index
    (i, S + {j}) reached when the node meets p_j must be stable; otherwise the
    moving side is rigid and there is no family.  The tuple (space, i, S), S
    a frozenset.

    (i, S) is checked by `_check_index`, so a TestCurve rejects an index with
    canonical_index's exception and text (UnstableIndexError is a
    ValueError); only the rigid moving side is checked here, and raises a
    plain ValueError.  An S given as range(1, s+1) is checked in O(1).
    """

    __slots__ = ()
    __test__ = False  # not a pytest test class, whatever name it is imported under

    def __new__(cls, space: Space, i: int, S):
        # range(1, s+1) is the ints 1..s, all marked iff s <= n
        prefix = type(S) is range and S.start == 1 and S.step == 1
        S = frozenset(S)
        _check_index(space, i, S, prefix)
        if len(S) < space.n and not _stable_split(space.g, space.n, i, len(S) + 1):
            raise ValueError(
                f"unstable test curve (i={i}, S={sorted(S)}) on (g={space.g}, n={space.n}): "
                f"the moving side is rigid, (i, S + {{j}}) is unstable for j outside S"
            )
        return tuple.__new__(cls, (space, i, S))


def _exact_value(c: Coefficient, what: str, *args) -> Scalar:  # names c as what % args
    if c.kind != "exact":
        raise InsufficientInformationError(
            f"coefficient of {what % args} is {c}; pairing needs an exact value")
    return c.value


def intersect_test_curve(cls: DivisorClass, curve: TestCurve) -> Scalar:
    """Exact pairing of a divisor class with the test curve T_{i:S}.

    Contributions: +psi_j and +delta_{i:S+{j}} for each j outside S, and
    -(2(g-i)-2+n-s) times delta_{i:S}; every other generator pairs to zero.
    Raises InsufficientInformationError if a needed coefficient is not Exact.

    psi is read per layer: each listed label outside S adds its own value,
    and the n-s-k other labels outside S add the psi rest, which is read only
    when that count is not zero.

    The boundary is read per orbit.  Each of the n-s divisors delta_{i:S+{j}}
    lies in the orbit (i, s+1) or, where `_mirrored` (canonical_index's rule)
    stores it as its mirror, (g-i, n-s-1); the rule depends on label 1 only
    at i = g/2, so they lie in one orbit, or at i = g/2 in two, split by
    whether label 1 is in S+{j}.  delta_{i:S} is one member of one orbit.
    For each orbit met, a walk over its explicit members adds those the curve
    meets, and the members not listed add the orbit value, read only when
    there are any; where the class stores no entry for the orbit, that value
    is its row's formula at s, in ints.  The test curve has checked (i, S)
    when it was built, so the pairing checks no index.

    The sums start from the int 0, so a class with integral coefficients pairs
    in int arithmetic; the result is in the normal form of exact.scalar.
    """
    space, i, S = curve
    if cls.space != space:
        raise SpaceMismatchError(f"{cls.space} vs {space}")
    g, n = space
    s = len(S)
    total = 0
    at_rest = n - s
    for j, c in cls._psi.items():
        if j not in S:
            total += _exact_value(c, "psi_%s", j)
            at_rest -= 1
    if at_rest:
        total += at_rest * _exact_value(cls._psi_rest, "psi_j shared by the unlisted labels")

    # (weight, |T|, orbit key, count) per orbit of delta_{i:T} met: T = S+{j}
    # for the n-s labels j outside S, split by whether label 1 is in T (in
    # every T if in S, else in T = S+{1} alone), then T = S; a key is the
    # mirror orbit (g-i, n-|T|) where _mirrored says so, and T = S is
    # mirrored as the T that agree with it on label 1 are
    mult = -(2 * (g - i) - 2 + n - s)
    has_1 = 1 in S
    mirror_1, mirror_not_1 = _mirrored(g, n, i, True), _mirrored(g, n, i, False)
    key_1 = (g - i, n - s - 1) if mirror_1 else (i, s + 1)
    key_not_1 = (g - i, n - s - 1) if mirror_not_1 else (i, s + 1)
    own_key = (g - i, n - s) if (mirror_1 if has_1 else mirror_not_1) else (i, s)
    if key_1 == key_not_1:  # every delta_{i:S+{j}} lies in one orbit
        visits = [(1, s + 1, key_1, n - s), (mult, s, own_key, 1)]
    else:
        with_1 = n - s if has_1 else min(1, n - s)
        visits = [(1, s + 1, key_1, with_1), (1, s + 1, key_not_1, n - s - with_1),
                  (mult, s, own_key, 1)]
    # on an unmarked space at i = g/2 an index is its own mirror: count it once
    mirror_is_other = n > 0 or 2 * i != g

    for weight, size, key, count in visits:
        if not (weight and count):
            continue
        value, listed = cls._orbit_layer(key)
        part = 0
        for idx, c in listed.items():
            # idx is the canonical form of (i, T) when it equals it or its mirror
            hits = ((idx.i == i and len(idx.S) == size and S <= idx.S)
                    + (mirror_is_other and idx.i == g - i and len(idx.S) == n - size
                       and S.isdisjoint(idx.S)))
            if hits:
                part += hits * _exact_value(c, "%r", idx)
                count -= hits
        if count:
            part += count * _exact_value(value, "delta_{%s:|S|=%s}", *key)
        total += weight * part
    return scalar(total)


# ---------------------------------------------------------------------------
# serialization


def class_to_dict(cls: DivisorClass) -> dict:
    """The class document: every layer of the class as it is stored, each
    entry once, so its size is O(stored entries), not O(orbits) or O(n)."""
    return {
        "space": {"g": cls.space.g, "n": cls.space.n},
        "lambda": cls.lam.to_json(),
        "delta_irr": cls.delta_irr.to_json(),
        "psi_rest": cls.psi_rest.to_json(),
        "psi": {str(j): c.to_json() for j, c in cls.psi_items()},
        "boundary_rest": cls._rest.to_json(),
        "rows": [{"i": i, "kind": row.kind, "num": list(row.num), "den": row.den}
                 for i, row in sorted(cls._rows.items())],
        "boundary_sym": [{"i": i, "s": s, "c": c.to_json()}
                         for (i, s), c in sorted(cls._orbits.items())],
        "boundary": [{"i": idx.i, "S": sorted(idx.S), "c": v.to_json()}
                     for idx, v in cls.boundary_items()],
    }


# the canonical JSON encoding: sorted keys, no whitespace
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _wire_int(x) -> int:
    """A JSON integer; a float, a string or a boolean is malformed, not rounded."""
    if type(x) is not int:
        raise MalformedClassError(f"expected a JSON integer, got {x!r}")
    return x


def _wire_label(key, space: Space) -> int:
    """A psi key: exactly the text str(j) of a label j in 1..n.  Other texts
    that int() reads, such as "01", "+1", " 1" or "0_1", would let two keys
    name one label."""
    j = int(key) if isinstance(key, str) and key.isdecimal() else None
    if j is None or key != str(j) or not 1 <= j <= space.n:
        raise MalformedClassError(f"bad psi label {key!r} on (g={space.g}, n={space.n})")
    return j


def class_from_dict(doc: dict) -> DivisorClass:
    """The class a class document describes.  A missing psi_rest or
    boundary_rest is Exact(0) and missing rows are none, so a document that
    lists every psi label and every non-zero orbit loads as well.  Any defect,
    an unstable index included, raises MalformedClassError."""
    zero = EXACT_ZERO.to_json()
    try:
        space = Space(_wire_int(doc["space"]["g"]), _wire_int(doc["space"]["n"]))
        lam = Coefficient.from_json(doc["lambda"])
        psi_doc = doc.get("psi", {})
        if not isinstance(psi_doc, dict):
            raise MalformedClassError(f"psi must be a JSON object, got {psi_doc!r}")
        psi = {_wire_label(j, space): Coefficient.from_json(c) for j, c in psi_doc.items()}
        delta_irr = Coefficient.from_json(doc["delta_irr"])
        boundary = {}
        for entry in doc.get("boundary", []):
            i, S = _wire_int(entry["i"]), entry["S"]
            if type(S) is not list or len(set(map(_wire_int, S))) != len(S):
                raise MalformedClassError(
                    f"S must be a JSON array of distinct JSON integers, got {S!r}")
            S = frozenset(S)
            idx = canonical_index(space, i, S)
            if idx != (i, S):
                raise MalformedClassError(
                    f"non-canonical boundary index (i={i}, S={sorted(S)})"
                )
            if idx in boundary:
                raise MalformedClassError(f"duplicate boundary entry (i={i}, S={sorted(S)})")
            boundary[idx] = Coefficient.from_json(entry["c"])
        sym = {}
        for entry in doc.get("boundary_sym", []):
            key = (_wire_int(entry["i"]), _wire_int(entry["s"]))
            if key in sym:
                raise MalformedClassError(f"duplicate boundary_sym entry (i, s) = {key}")
            sym[key] = Coefficient.from_json(entry["c"])
        rows = {}
        for entry in doc.get("rows", []):
            i = _wire_int(entry["i"])
            if i in rows:
                raise MalformedClassError(f"duplicate boundary row {i}")
            num = entry["num"]
            if type(num) is not list:
                raise MalformedClassError(f"row num must be a JSON array, got {num!r}")
            rows[i] = Row.formula(entry["kind"], map(_wire_int, num), _wire_int(entry["den"]))
        return DivisorClass(space, lam=lam, psi=psi, delta_irr=delta_irr, boundary=boundary,
                            boundary_sym=sym, boundary_rows=rows,
                            psi_rest=Coefficient.from_json(doc.get("psi_rest", zero)),
                            boundary_rest=Coefficient.from_json(doc.get("boundary_rest", zero)))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise MalformedClassError(f"malformed class document: {e}") from e
