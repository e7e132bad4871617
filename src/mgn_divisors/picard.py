"""Divisor-class data model on the moduli space of stable n-pointed genus-g curves.

Generators: lambda (Hodge class), psi_1..psi_n, delta_irr, and the boundary
divisors delta_{i:S} under the identification delta_{i:S} = delta_{g-i:S^c}.
Coefficients are tri-state-plus-one: Exact, AtLeast (lower bound), AtMost
(upper bound), Unknown; the bound variants exist because some sources pin a
coefficient only up to a sign-aware inequality.

There is one class type for every n >= 0.  A class on the unmarked space is a
DivisorClass on Space(g, 0): lambda, delta_irr (the delta_0 of the
literature) and delta_i as the (i, 0) orbit for 1 <= i <= g/2.

Boundary data is stored in three layers, each overriding the one before: a
rest coefficient shared by every boundary divisor, per-orbit entries keyed by
canonical (i, |S|), and explicit per-index entries.  The symmetric layers are
what make large spaces (n up to 153 in the verification sweeps) tractable:
every class this package constructs is label-symmetric on the boundary, and
most share one coefficient on all but a few orbits, so arithmetic costs
O(listed orbits + explicit entries), not O(all orbits).
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


class DivisorClass:
    """Immutable linear combination of the standard Picard generators.

    The boundary coefficient of delta_{i:S} is read from three layers, each
    overriding the one before: `boundary_rest`, shared by every boundary
    divisor (default Exact(0)); `boundary_sym`, per-orbit (i, s) entries; and
    `boundary`, explicit per-index entries.  The stored form is normal: an
    orbit entry equal to the rest, or an explicit entry equal to its orbit's
    value, is dropped.  All arithmetic is generator-wise Coefficient
    arithmetic and costs O(listed orbits + explicit entries).
    """

    __slots__ = ("space", "lam", "psi", "delta_irr", "_explicit", "_orbits", "_rest")

    def __init__(self, space, lam=0, psi=0, delta_irr=0, boundary=None, boundary_sym=None,
                 boundary_rest=EXACT_ZERO):
        self.space = space
        self.lam = coeff(lam)
        if isinstance(psi, dict):
            self.psi = tuple(coeff(psi.get(j, 0)) for j in space.labels)
        elif isinstance(psi, (tuple, list)):
            if len(psi) != space.n:
                raise ValueError("psi vector length does not match n")
            self.psi = tuple(coeff(p) for p in psi)
        else:
            self.psi = tuple(coeff(psi) for _ in space.labels)
        self.delta_irr = coeff(delta_irr)

        rest = coeff(boundary_rest)
        orbits = {}
        for key, c in (boundary_sym or {}).items():
            key = (int(key[0]), int(key[1]))
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
            c = coeff(c)
            if idx in explicit:
                c = explicit[idx] + c
            explicit[idx] = c
        # drop explicit entries that agree with their orbit's value
        for idx in list(explicit):
            if explicit[idx] == orbits.get((idx.i, idx.s), rest):
                del explicit[idx]
        self._explicit = explicit
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
        if idx in self._explicit:
            return self._explicit[idx]
        return self._orbits.get((idx.i, idx.s), self._rest)

    def boundary_items(self):
        return sorted(self._explicit.items(), key=lambda kv: kv[0].sort_key())

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
        return self.psi[label - 1]

    @property
    def psi_symmetric(self) -> bool:
        return self.space.n == 0 or all(p == self.psi[0] for p in self.psi)

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other):
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")

    def add(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_space(other)
        orbits = {}
        for key in set(self._orbits) | set(other._orbits):
            orbits[key] = (self._orbits.get(key, self._rest)
                           + other._orbits.get(key, other._rest))
        explicit = {}
        for idx in set(self._explicit) | set(other._explicit):
            explicit[idx] = self.boundary_coefficient(idx.i, idx.S) + other.boundary_coefficient(idx.i, idx.S)
        return DivisorClass(
            self.space,
            lam=self.lam + other.lam,
            psi=tuple(a + b for a, b in zip(self.psi, other.psi)),
            delta_irr=self.delta_irr + other.delta_irr,
            boundary=explicit,
            boundary_sym=orbits,
            boundary_rest=self._rest + other._rest,
        )

    def scale(self, c: Scalar) -> "DivisorClass":
        c = rat(c)
        return DivisorClass(
            self.space,
            lam=self.lam.scaled(c),
            psi=tuple(p.scaled(c) for p in self.psi),
            delta_irr=self.delta_irr.scaled(c),
            boundary={idx: v.scaled(c) for idx, v in self._explicit.items()},
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
        if (self.lam, self.psi, self.delta_irr) != (other.lam, other.psi, other.delta_irr):
            return False
        return self._boundary_equal(other)

    def _boundary_equal(self, other: "DivisorClass") -> bool:
        """Whether every boundary coefficient agrees, without enumerating orbits
        or their members: only listed orbits and explicit entries can differ
        from the rest, and only a fully overridden orbit can hide a difference."""
        explicit = set(self._explicit) | set(other._explicit)
        overridden = {}
        for idx in explicit:
            key = (idx.i, idx.s)
            overridden[key] = overridden.get(key, 0) + 1
        keys = set(self._orbits) | set(other._orbits)
        if self._rest != other._rest:
            # an orbit that neither class lists or overrides tells them apart
            keys |= overridden.keys()
            if len(keys) < orbit_count(self.space):
                return False
        for key in keys:
            if self._orbits.get(key, self._rest) != other._orbits.get(key, other._rest):
                # the orbit values differ, so an index that neither class
                # overrides tells them apart; only a fully overridden orbit agrees
                if overridden.get(key, 0) < orbit_size(self.space, *key):
                    return False
        for idx in explicit:
            if self.boundary_coefficient(idx.i, idx.S) != other.boundary_coefficient(idx.i, idx.S):
                return False
        return True

    def __hash__(self):
        return hash((self.space, self.lam, self.psi, self.delta_irr))

    def __repr__(self):
        parts = []
        if not self.lam.is_zero:
            parts.append(f"({self.lam})*lambda")
        for j, p in zip(self.space.labels, self.psi):
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

    The boundary is read per orbit, not member by member.  The n-s divisors
    delta_{i:S+{j}} lie in one canonical orbit, (i, s+1) or its mirror
    (g-i, n-s-1) when i > g/2; at i = g/2 they split in two by whether label 1
    is in S+{j}.  Each orbit adds (members not overridden) x (its value), and
    a walk over the explicit entries adds the value of each member that an
    entry overrides (an entry is the canonical form of (i, T) exactly when it
    equals (i, T) or the mirror (g-i, T complement); on an unmarked space at
    i = g/2 the two are one index, counted once).  delta_{i:S} is read the
    same way, as a term with one member.  An orbit value is read only when
    some member of it is not overridden, so this requires Exact of exactly the
    coefficients that the member-by-member sum reads, and the boundary costs
    O(1 + explicit entries) steps instead of one canonical_index per member.
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
    for j in curve.space.labels:
        if j not in S:
            total += exact_value(cls.psi_coefficient(j), f"psi_{j}")

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
    mirror_is_other = n > 0 or 2 * i != g

    for weight, size, members in terms:
        if not weight:
            continue
        part = 0
        overridden = dict.fromkeys(members, 0)
        for idx, c in cls._explicit.items():
            hits = ((idx.i == i and len(idx.S) == size and S <= idx.S)
                    + (mirror_is_other and idx.i == g - i and len(idx.S) == n - size
                       and S.isdisjoint(idx.S)))
            if hits:
                part += hits * exact_value(c, repr(idx))
                overridden[(idx.i, idx.s)] += hits
        for key, count in members.items():
            if count > overridden[key]:
                value = exact_value(cls.orbit_coefficient(*key),
                                    f"delta_{{{key[0]}:|S|={key[1]}}}")
                part += (count - overridden[key]) * value
        total += weight * part
    return total


# ---------------------------------------------------------------------------
# serialization


def class_to_dict(cls: DivisorClass) -> dict:
    return {
        "space": {"g": cls.space.g, "n": cls.space.n},
        "lambda": cls.lam.to_json(),
        "psi": {str(j): p.to_json() for j, p in zip(cls.space.labels, cls.psi)},
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


def class_from_dict(doc: dict) -> DivisorClass:
    try:
        space = Space(_wire_int(doc["space"]["g"]), _wire_int(doc["space"]["n"]))
        lam = Coefficient.from_json(doc["lambda"])
        psi_doc = doc.get("psi", {})
        psi = {int(j): Coefficient.from_json(c) for j, c in psi_doc.items()}
        if not set(psi) <= set(space.labels):
            raise MalformedClassError("psi labels outside 1..n")
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
