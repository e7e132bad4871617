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
is one layer over the labels 1..n.  The boundary is one layer over the
canonical (i, |S|) orbits, and each orbit is itself a layer over its member
indices, with the orbit's value as the rest.  One rule compares two layers
and one rule adds them, at every level.  This is what makes large spaces
(n up to 153 in the benchmark sweep, 861 at t = 40) tractable: every class
this package constructs has one psi coefficient and is label-symmetric on the
boundary, and most share one coefficient on all but a few orbits, so
arithmetic costs O(listed keys), not O(all orbits) or O(n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .exact import Scalar, parse_rat, rat, rat_str


class PicardError(Exception):
    pass


class UnstableIndexError(PicardError):
    """The boundary index (and its mirror) violates stability."""


class SpaceMismatchError(PicardError):
    pass


class InsufficientInformationError(PicardError):
    """An intersection needs a coefficient that is only bounded or unknown."""


class MalformedClassError(PicardError):
    pass


# ---------------------------------------------------------------------------
# coefficients


@dataclass(frozen=True)
class Coefficient:
    """Exact value, one-sided bound, or no information at all.

    AtLeast(r) means "the true coefficient is >= r"; AtMost(r) the mirror.
    Addition and scaling propagate what is still known: adding opposite-sided
    bounds, or negating a one-sided bound, loses the direction.
    """

    kind: str  # "exact" | "at_least" | "at_most" | "unknown"
    value: Fraction | None = None

    @staticmethod
    def exact(v: Scalar) -> "Coefficient":
        return Coefficient("exact", rat(v))

    @staticmethod
    def at_least(v: Scalar) -> "Coefficient":
        return Coefficient("at_least", rat(v))

    @staticmethod
    def at_most(v: Scalar) -> "Coefficient":
        return Coefficient("at_most", rat(v))

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_zero(self) -> bool:
        return self.kind == "exact" and self.value == 0

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.kind == "unknown" or other.kind == "unknown":
            return UNKNOWN
        kinds = {self.kind, other.kind}
        if kinds == {"at_least", "at_most"}:
            return UNKNOWN
        kind = "exact" if kinds == {"exact"} else (kinds - {"exact"}).pop()
        return Coefficient(kind, self.value + other.value)

    def scaled(self, c: Scalar) -> "Coefficient":
        c = rat(c)
        if c == 0:
            return EXACT_ZERO
        if self.kind == "unknown":
            return UNKNOWN
        kind = self.kind
        if c < 0:
            kind = {"exact": "exact", "at_least": "at_most", "at_most": "at_least"}[kind]
        return Coefficient(kind, self.value * c)

    def __str__(self):
        if self.kind == "exact":
            return rat_str(self.value)
        if self.kind == "at_least":
            return f">={rat_str(self.value)}"
        if self.kind == "at_most":
            return f"<={rat_str(self.value)}"
        return "?"

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


EXACT_ZERO = Coefficient.exact(0)
UNKNOWN = Coefficient("unknown", None)


def coeff(x) -> Coefficient:
    """Wrap a scalar as Exact; pass Coefficient values through."""
    if isinstance(x, Coefficient):
        return x
    return Coefficient.exact(x)


# ---------------------------------------------------------------------------
# spaces and boundary indexing


@dataclass(frozen=True)
class Space:
    """The moduli space of stable genus-g curves with n labeled points."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 2 or self.n < 0:
            raise ValueError(f"unsupported space (g={self.g}, n={self.n})")
        if 3 * self.g - 3 + self.n <= 0:
            raise ValueError(f"unstable space (g={self.g}, n={self.n})")

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class BoundaryIndex:
    """Canonical representative of delta_{i:S} = delta_{g-i:S^c}."""

    i: int
    S: frozenset

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


def canonical_index(space: Space, i: int, S) -> BoundaryIndex:
    """Canonical representative of (i, S) under (i, S) ~ (g-i, S complement).

    Canonical means i < g/2, or i = g/2 with 1 in S (there is no standard
    delta_{g/2:S} normalization, this is the convention used throughout this
    package).  On an unmarked space delta_{g/2:{}} is its own mirror and is
    its own representative.  Idempotent.
    """
    g, n = space.g, space.n
    S = frozenset(S)
    if not 0 <= i <= g:
        raise UnstableIndexError(f"genus index {i} outside 0..{g}")
    if not S <= set(space.labels):
        raise UnstableIndexError(f"labels {sorted(S)} outside 1..{n}")
    if not _stable_split(g, n, i, len(S)):
        raise UnstableIndexError(
            f"unstable boundary index (i={i}, S={sorted(S)}) on (g={g}, n={n})"
        )
    if 2 * i > g:
        return BoundaryIndex(g - i, frozenset(space.labels) - S)
    if 2 * i == g and 1 not in S:
        return BoundaryIndex(i, frozenset(space.labels) - S)
    return BoundaryIndex(i, S)


def _split_by_label_1(space: Space, i: int) -> bool:
    """Whether the canonical members of row i are the sets containing label 1:
    i = g/2 on a marked space.  On an unmarked space delta_{g/2:{}} is its
    own mirror."""
    return 2 * i == space.g and space.n > 0


def is_orbit(space: Space, i: int, s: int) -> bool:
    """Whether (i, s) keys a canonical boundary orbit: 0 <= i <= g/2 and
    0 <= s <= n with a stable split, and s >= 1 when i = g/2 and n >= 1 (the
    canonical representative there contains label 1)."""
    g, n = space.g, space.n
    return (0 <= 2 * i <= g and 0 <= s <= n and _stable_split(g, n, i, s)
            and not (_split_by_label_1(space, i) and s == 0))


def boundary_orbits(space: Space):
    """Canonical (i, s) orbits of boundary divisors, in deterministic order."""
    for i in range(0, space.g // 2 + 1):
        for s in range(0, space.n + 1):
            if is_orbit(space, i, s):
                yield (i, s)


def orbit_count(space: Space) -> int:
    """Number of canonical boundary orbits, without enumerating them.

    For 0 <= i <= g/2 the genus-(g-i) side has genus >= 1, so (i, s) is an
    orbit iff s >= 2 when i = 0, s >= 1 when i = g/2 and n >= 1, and any
    0 <= s <= n otherwise (see is_orbit)."""
    n = space.n
    return sum(max(0, n + 1 - (2 if i == 0 else 1 if _split_by_label_1(space, i) else 0))
               for i in range(space.g // 2 + 1))


def orbit_size(space: Space, i: int, s: int) -> int:
    if _split_by_label_1(space, i):
        return comb(space.n - 1, s - 1)
    return comb(space.n, s)


def orbit_members(space: Space, i: int, s: int):
    labels = list(space.labels)
    if _split_by_label_1(space, i):
        for rest in combinations(labels[1:], s - 1):
            yield BoundaryIndex(i, frozenset((1,) + rest))
    else:
        for S in combinations(labels, s):
            yield BoundaryIndex(i, frozenset(S))


def all_canonical_indices(space: Space):
    for (i, s) in boundary_orbits(space):
        yield from orbit_members(space, i, s)


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
    return a_rest + b_rest, {k: a.get(k, a_rest) + b.get(k, b_rest) for k in a.keys() | b.keys()}


class DivisorClass:
    """Immutable linear combination of the standard Picard generators.

    Each family of coefficients is a layer: a rest shared by every key, plus
    the keys whose value differs from it.  psi is a layer over the labels:
    `psi_rest` (default Exact(0)) plus the labels that `psi` lists; `psi` may
    also be one scalar (every label) or a sequence of n values, and when every
    label is listed the rest becomes the most common listed value.  The
    boundary is a layer over canonical orbits: `boundary_rest` (default
    Exact(0)) plus the `boundary_sym` (i, s) entries.  Each orbit is a layer
    over its member indices: the orbit's value plus the `boundary` entries in
    it, stored under their orbit.

    The stored form is normal: an entry equal to its layer's rest is dropped.
    All arithmetic is generator-wise Coefficient arithmetic and costs
    O(listed keys), independent of n.
    """

    __slots__ = ("space", "lam", "delta_irr", "_psi", "_psi_rest",
                 "_explicit", "_orbits", "_rest")

    def __init__(self, space, lam=0, psi=0, delta_irr=0, boundary=None, boundary_sym=None,
                 boundary_rest=EXACT_ZERO, psi_rest=EXACT_ZERO):
        self.space = space
        self.lam = coeff(lam)
        psi_rest = coeff(psi_rest)
        if isinstance(psi, dict):
            entries = psi
        elif isinstance(psi, (tuple, list)):
            if len(psi) != space.n:
                raise ValueError("psi vector length does not match n")
            entries = dict(zip(space.labels, psi))
        else:
            entries, psi_rest = {}, coeff(psi)
        listed = {}
        for j, c in entries.items():
            _check_label(space, j)
            listed[j] = coeff(c)
        if len(listed) == space.n:
            # every label is listed: the most common value becomes the rest
            counts = {}
            for c in listed.values():
                counts[c] = counts.get(c, 0) + 1
            psi_rest = max(counts, key=counts.get, default=EXACT_ZERO)
        self._psi = {j: c for j, c in listed.items() if c != psi_rest}
        self._psi_rest = psi_rest
        self.delta_irr = coeff(delta_irr)

        rest = coeff(boundary_rest)
        orbits = {}
        for key, c in (boundary_sym or {}).items():
            if not (type(key) is tuple and len(key) == 2
                    and type(key[0]) is int and type(key[1]) is int):
                raise ValueError(f"boundary_sym key {key!r} is not a pair of ints")
            if not is_orbit(space, *key):
                raise UnstableIndexError(f"no canonical boundary orbit {key} on {space}")
            c = coeff(c)
            if c != rest:
                orbits[key] = c

        explicit = {}
        for key, c in (boundary or {}).items():
            if isinstance(key, BoundaryIndex):
                idx = canonical_index(space, key.i, key.S)
            else:
                idx = canonical_index(space, key[0], key[1])
            members = explicit.setdefault((idx.i, idx.s), {})
            c = coeff(c)
            members[idx] = members[idx] + c if idx in members else c
        self._explicit = {}
        for key, members in explicit.items():
            value = orbits.get(key, rest)
            kept = {idx: c for idx, c in members.items() if c != value}
            if kept:
                self._explicit[key] = kept
        self._orbits = orbits
        self._rest = rest

    # -- accessors ---------------------------------------------------------

    def orbit_coefficient(self, i: int, s: int) -> Coefficient:
        """The coefficient shared by the (i, s) orbit, before explicit entries."""
        if not is_orbit(self.space, i, s):
            raise UnstableIndexError(f"no canonical boundary orbit {(i, s)} on {self.space}")
        return self._orbits.get((i, s), self._rest)

    def boundary_coefficient(self, i: int, S) -> Coefficient:
        idx = canonical_index(self.space, i, frozenset(S))
        value, members = self._orbit_layer((idx.i, idx.s))
        return members.get(idx, value)

    def _orbit_layer(self, key):
        """The member layer of orbit `key`: its value and its explicit members."""
        return self._orbits.get(key, self._rest), self._explicit.get(key, {})

    def boundary_items(self):
        items = [item for members in self._explicit.values() for item in members.items()]
        return sorted(items, key=lambda kv: kv[0].sort_key())

    def boundary_orbit_items(self):
        """Sorted (i, s) -> coefficient pairs of every non-zero orbit."""
        if self._rest.is_zero:
            return sorted(self._orbits.items())
        items = ((key, self._orbits.get(key, self._rest)) for key in boundary_orbits(self.space))
        return [(key, c) for key, c in items if not c.is_zero]

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
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")

    def add(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_space(other)
        psi_rest, psi = _layer_sum(self._psi_rest, self._psi, other._psi_rest, other._psi)
        rest, orbits = _layer_sum(self._rest, self._orbits, other._rest, other._orbits)
        explicit = {}
        for key in self._explicit.keys() | other._explicit.keys():
            explicit.update(_layer_sum(*self._orbit_layer(key), *other._orbit_layer(key))[1])
        return DivisorClass(
            self.space,
            lam=self.lam + other.lam,
            psi=psi,
            psi_rest=psi_rest,
            delta_irr=self.delta_irr + other.delta_irr,
            boundary=explicit,
            boundary_sym=orbits,
            boundary_rest=rest,
        )

    def scale(self, c: Scalar) -> "DivisorClass":
        c = rat(c)
        return DivisorClass(
            self.space,
            lam=self.lam.scaled(c),
            psi={j: p.scaled(c) for j, p in self._psi.items()},
            psi_rest=self._psi_rest.scaled(c),
            delta_irr=self.delta_irr.scaled(c),
            boundary={idx: v.scaled(c) for members in self._explicit.values()
                      for idx, v in members.items()},
            boundary_sym={k: v.scaled(c) for k, v in self._orbits.items()},
            boundary_rest=self._rest.scaled(c),
        )

    def __add__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.add(other)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.space != other.space:
            return False
        if (self.lam, self.delta_irr) != (other.lam, other.delta_irr):
            return False
        return (_layers_agree(self._psi_rest, self._psi, other._psi_rest, other._psi,
                              lambda: self.space.n)
                and self._boundary_equal(other))

    def _boundary_equal(self, other: "DivisorClass") -> bool:
        """Whether every boundary coefficient agrees: the layer rule over
        orbits, and within each orbit over its members."""
        space = self.space

        def listed_orbits(cls):
            # an orbit with explicit members is listed too, at its value
            return {**dict.fromkeys(cls._explicit, cls._rest), **cls._orbits}

        def orbit_agrees(key, a_value, b_value):
            return _layers_agree(a_value, self._explicit.get(key, {}), b_value,
                                 other._explicit.get(key, {}), lambda: orbit_size(space, *key))

        return _layers_agree(self._rest, listed_orbits(self), other._rest, listed_orbits(other),
                             lambda: orbit_count(space), orbit_agrees)

    def __hash__(self):
        # equal classes may store different psi rests or boundary layers;
        # these three fields they always share
        return hash((self.space, self.lam, self.delta_irr))

    def __repr__(self):
        parts = []
        if not self.lam.is_zero:
            parts.append(f"({self.lam})*lambda")
        for j in self.space.labels:
            p = self._psi.get(j, self._psi_rest)
            if not p.is_zero:
                parts.append(f"({p})*psi_{j}")
        if not self.delta_irr.is_zero:
            parts.append(f"({self.delta_irr})*delta_irr")
        for key, v in self.boundary_orbit_items():
            parts.append(f"({v})*delta_[{key[0]}:|S|={key[1]}]")
        for idx, v in self.boundary_items():
            parts.append(f"({v})*{idx!r}")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} on (g={self.space.g}, n={self.space.n})>"


@dataclass(frozen=True)
class TestCurve:
    """One-parameter family in delta_{i:S}: the attachment node moves on the
    genus g-i side.  Both (i, S) and, for each label j outside S, the index
    (i, S + {j}) reached when the node meets p_j must be stable; otherwise the
    moving side is rigid and there is no family."""

    space: Space
    i: int
    S: frozenset

    def __init__(self, space: Space, i: int, S):
        S = frozenset(S)
        if not 0 <= i <= space.g:
            raise ValueError(f"genus index {i} outside 0..{space.g}")
        if not S <= set(space.labels):
            raise ValueError("test-curve labels outside the marked set")
        if not _stable_split(space.g, space.n, i, len(S)):
            raise ValueError(
                f"unstable test-curve index (i={i}, S={sorted(S)}) on (g={space.g}, n={space.n})"
            )
        if len(S) < space.n and not _stable_split(space.g, space.n, i, len(S) + 1):
            raise ValueError(
                f"unstable test curve (i={i}, S={sorted(S)}) on (g={space.g}, n={space.n}): "
                f"the moving side is rigid, (i, S + {{j}}) is unstable for j outside S"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "S", S)


def intersect_test_curve(cls: DivisorClass, curve: TestCurve) -> Fraction:
    """Exact pairing of a divisor class with the test curve T_{i:S}.

    Contributions: +psi_j and +delta_{i:S+{j}} for each j outside S, and
    -(2(g-i)-2+n-s) times delta_{i:S}; every other generator pairs to zero.
    Raises InsufficientInformationError if a needed coefficient is not Exact.

    psi is read per layer: each listed label outside S adds its own value,
    and the n-s-k other labels outside S add the psi rest, which is read only
    when that count is not zero.

    The boundary is read per orbit.  The n-s divisors delta_{i:S+{j}} lie in
    one canonical orbit, (i, s+1) or its mirror (g-i, n-s-1) when i > g/2; at
    i = g/2 they split in two by whether label 1 is in S+{j}.  delta_{i:S} is
    one member of one orbit.  For each orbit met, a walk over its explicit
    members adds those the curve meets, and the members not listed add the
    orbit value, read only when there are any.
    """
    if cls.space != curve.space:
        raise SpaceMismatchError(f"{cls.space} vs {curve.space}")
    g, n = curve.space.g, curve.space.n
    i, S = curve.i, curve.S
    s = len(S)

    def exact_value(c: Coefficient, what: str) -> Fraction:
        if not c.is_exact:
            raise InsufficientInformationError(
                f"coefficient of {what} is {c}; pairing needs an exact value"
            )
        return c.value

    def orbit(size: int, has_1: bool):
        """The orbit key of delta_{i:T} with |T| = size and 1 in T iff has_1."""
        if 2 * i < g or (2 * i == g and has_1):
            return (i, size)
        return (g - i, n - size)

    total = Fraction(0)
    at_rest = n - s
    for j, c in cls._psi.items():
        if j not in S:
            total += exact_value(c, f"psi_{j}")
            at_rest -= 1
    if at_rest:
        total += at_rest * exact_value(cls._psi_rest, "psi_j shared by the unlisted labels")

    # delta_{i:S+{j}} for j outside S, counted per orbit; label 1 matters only at
    # i = g/2, and it is in S+{j} for every j when 1 is in S, else only for j = 1
    with_1 = n - s if 1 in S else min(1, n - s)
    moving = {}
    for has_1, count in ((True, with_1), (False, n - s - with_1)):
        if count:
            key = orbit(s + 1, has_1)
            moving[key] = moving.get(key, 0) + count
    mult = -(2 * (g - i) - 2 + n - s)
    terms = [(1, s + 1, moving), (mult, s, {orbit(s, 1 in S): 1})]
    # on an unmarked space at i = g/2 an index is its own mirror: count it once
    mirror_is_other = n > 0 or 2 * i != g

    for weight, size, counts in terms:
        if not weight:
            continue
        part = 0
        for key, count in counts.items():
            value, listed = cls._orbit_layer(key)
            for idx, c in listed.items():
                # idx is the canonical form of (i, T) when it equals it or its mirror
                hits = ((idx.i == i and len(idx.S) == size and S <= idx.S)
                        + (mirror_is_other and idx.i == g - i and len(idx.S) == n - size
                           and S.isdisjoint(idx.S)))
                if hits:
                    part += hits * exact_value(c, repr(idx))
                    count -= hits
            if count:
                part += count * exact_value(value, f"delta_{{{key[0]}:|S|={key[1]}}}")
        total += weight * part
    return total


# ---------------------------------------------------------------------------
# serialization


def class_to_dict(cls: DivisorClass) -> dict:
    return {
        "space": {"g": cls.space.g, "n": cls.space.n},
        "lambda": cls.lam.to_json(),
        "psi": {str(j): cls.psi_coefficient(j).to_json() for j in cls.space.labels},
        "delta_irr": cls.delta_irr.to_json(),
        "boundary": [
            {"i": idx.i, "S": sorted(idx.S), "c": v.to_json()}
            for idx, v in cls.boundary_items()
        ],
        "boundary_sym": [
            {"i": i, "s": s, "c": v.to_json()}
            for (i, s), v in cls.boundary_orbit_items()
        ],
    }


def serialize(cls: DivisorClass) -> str:
    """Canonical JSON text: sorted keys, rationals as strings, byte-stable."""
    return json.dumps(class_to_dict(cls), sort_keys=True, separators=(",", ":"))


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
            i, S = _wire_int(entry["i"]), frozenset(_wire_int(x) for x in entry["S"])
            idx = canonical_index(space, i, S)
            if (idx.i, idx.S) != (i, S):
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
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedClassError(f"malformed class document: {e}") from e
    return DivisorClass(space, lam=lam, psi=psi, delta_irr=delta_irr,
                        boundary=boundary, boundary_sym=sym)


def deserialize(text) -> DivisorClass:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise MalformedClassError("class document must be a JSON object")
    return class_from_dict(doc)
