"""Canonical classes, the effective-class catalog, and general-type certificates.

The canonical class is derived, not typed: the GRR engine gives c1 of
pi_*(omega tensor omega(sum sigma_j)), the Harris-Mumford correction from
Omega to omega subtracts the total boundary, and the coarse space adds the
ramification term -delta_{1:{}} along the elliptic tails that carry no marked
point.  The result is

    K = 13 lambda - 2 delta_irr + sum psi_j - 2 sum delta_{i:S} - delta_{1:{}},

Harris-Mumford (Invent. Math. 67, 1982) for n = 0 and Logan (Amer. J. Math.
125, 2003, Thm 2.6) with marked points.

A certificate expresses the canonical class as

    K = a * sum psi_j + sum_k c_k * D_k + E,     a > 0, c_k >= 0,

with the D_k known effective classes.  The linear algebra (three equations:
lambda, the single psi equation by symmetry, delta_irr) is solved exactly;
whether the residual E is effective on each boundary generator is *reported*
per orbit and per explicit index, never silently asserted, because some
catalog inputs only pin the interior part.  The Brill-Noether entries (BN5_3,
BN17) come from one formula, bn_class, and are exact on the boundary; Z16,
D12 and F12_10 are published interior data with an Unknown boundary.

RECIPES maps each of the three spaces of interest, (16,8), (17,8) and
(12,10), to its certificate's components in order, each a name and one
source: a pair average, or the catalog entry of that name, which must live
on the space of the built-in entry of that name.  A pair average is one
pullback, symmetrized: the clutching pullback of the t=3 family class along
the map gluing 2-pointed tails of the recipe's genera at one pair of labels,
averaged over the relabellings of the 8 points, which act transitively on
the 56 ordered pairs.  Its scale reproduces the reference integral
coefficients (40/37/8 and 20/19/4); any positive rescaling gives the same
certificate.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .exact import rat_str, solve_linear
from .family import quad_class
from .grr import c1_pushforward, total_boundary
from .picard import (
    Coefficient,
    DivisorClass,
    MalformedClassError,
    PicardError,
    Space,
    SpaceMismatchError,
    UNKNOWN,
    boundary_orbits,
    canonical_index,
    class_from_dict,
)
from .pullbacks import ClutchingMap, TailAttachment, clutch_pullback, forgetful_pullback


class CertificateError(Exception):
    pass


class InfeasibleCertificateError(CertificateError):
    pass


class UnderdeterminedCertificateError(CertificateError):
    pass


class NegativeCoefficientError(CertificateError):
    """A solution exists but violates a > 0 or c_k >= 0."""


def canonical_class(g: int, n: int) -> DivisorClass:
    """The canonical class of the coarse n-pointed genus-g space, n >= 0.

    c1_pushforward of omega^2(sum sigma_j) is c1 pi_*(omega tensor
    omega(sum sigma_j)) = 13 lambda + sum psi_j - delta_irr - sum delta_{i:S};
    the Harris-Mumford correction from Omega to omega adds minus the total
    boundary, and the involution of an elliptic tail without marked points
    adds -delta_{1:{}}.  Harris-Mumford (n = 0) and Logan, Thm 2.6 (n >= 1)
    prove this for g >= 4.  At g = 2, 3 the coarse map can also ramify along
    loci of hyperelliptic curves; the class returned there is the same
    formula, not a theorem of either source.  At g = 2 delta_{1:{}} is
    stored as its mirror, the orbit (1, n).
    """
    space = Space(g, n)
    elliptic_tail = canonical_index(space, 1, ())
    return (c1_pushforward(space, 2, 1)
            .add(total_boundary(space, -1))
            .add(DivisorClass(space, boundary_sym={(elliptic_tail.i, elliptic_tail.s): -1})))


def bn_class(g: int) -> DivisorClass:
    """The Brill-Noether class on the unmarked space M_g, for g + 1 composite.

    Eisenbud-Harris (Invent. Math. 90, 1987): when g + 1 = (r+1)(g-d+r) the
    curves with a g^r_d form a divisor, and its class is a positive multiple of

        (g+3) lambda - (g+1)/6 delta_irr - sum_{1 <= i <= g/2} i(g-i) delta_i,

    the same for every such (r, d).  When g + 1 is prime no (r, d) gives
    Brill-Noether number -1, there is no such divisor, and ValueError is
    raised.
    """
    space = Space(g, 0)
    if all((g + 1) % p for p in range(2, isqrt(g + 1) + 1)):
        raise ValueError(f"g + 1 = {g + 1} is prime: there is no Brill-Noether divisor")
    return DivisorClass(space, lam=g + 3, delta_irr=-Fraction(g + 1, 6),
                        boundary_sym={(i, 0): -i * (g - i) for i in range(1, g // 2 + 1)})


# ---------------------------------------------------------------------------
# catalog


# cls is a DivisorClass; a class on the unmarked space M_g has n = 0
CatalogEntry = namedtuple("CatalogEntry", "name cls note", defaults=("",))


def _builtin_catalog() -> dict:
    entries = [
        CatalogEntry(
            "BN5_3",
            bn_class(5),
            "genus-5 Brill-Noether (trigonal) divisor; every coefficient from the "
            "Eisenbud-Harris formula, bn_class(5)",
        ),
        CatalogEntry(
            "Z16",
            DivisorClass(Space(16, 0), lam=407, delta_irr=-61, boundary_rest=UNKNOWN),
            "genus-16 quadric-failure divisor for a degree-21 series; published "
            "interior, boundary tail unpublished",
        ),
        CatalogEntry(
            "D12",
            DivisorClass(Space(12, 0), lam=13245, delta_irr=-1926, boundary_rest=UNKNOWN),
            "genus-12 quadric-failure divisor for a degree-14 series; published "
            "interior, boundary tail unpublished",
        ),
        CatalogEntry(
            "BN17",
            forgetful_pullback(bn_class(17), 8),
            "genus-17 Brill-Noether divisor pulled back to the 8-pointed space; every "
            "coefficient from the Eisenbud-Harris formula, bn_class(17)",
        ),
        CatalogEntry(
            "F12_10",
            DivisorClass(
                Space(12, 10),
                psi=9,
                delta_irr=-1,
                boundary_rest=UNKNOWN,
            ),
            "degree-11 pencils with the 10 points in a fiber; published interior, "
            "boundary tail unpublished",
        ),
    ]
    return {e.name: e for e in entries}


_CATALOG = _builtin_catalog()


def catalog_get(name: str, catalog: dict | None = None) -> CatalogEntry:
    cat = catalog if catalog is not None else _CATALOG
    if name not in cat:
        raise KeyError(f"unknown catalog entry: {name!r}")
    return cat[name]


def catalog_load(path) -> dict:
    """Built-in catalog merged with (and overridden by) a JSON file.

    File schema: {"entries": [{"name": ..., "class": <class document>,
    "note": ...}, ...]}; a class on the unmarked space M_g is a class document
    with n = 0.  Any other key of an entry is ignored.  Any defect of the
    file, from text that is not JSON to an invalid class, raises
    MalformedClassError.
    """
    cat = dict(_CATALOG)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        for entry in doc["entries"]:
            name = entry["name"]
            cat[name] = CatalogEntry(name, class_from_dict(entry["class"]),
                                     entry.get("note", ""))
    except (KeyError, TypeError, ValueError, RecursionError, PicardError) as e:
        # RecursionError: json.load on deeply nested arrays or objects
        raise MalformedClassError(f"malformed catalog file: {e}") from e
    return cat


# ---------------------------------------------------------------------------
# certificate solving


class Certificate(namedtuple("Certificate", "space a components residual residual_report "
                                            "canonical inputs")):
    """A solved certificate: its Space, a, the components ((name, Scalar), ...),
    the residual DivisorClass and its report ((kind, key, status), ...), then,
    not in to_json, the canonical class K solved against and the inputs
    ((name, DivisorClass), ...) as given."""

    __slots__ = ()

    def to_json(self) -> dict:
        res = self.residual
        return {
            "space": {"g": self.space.g, "n": self.space.n},
            "a": rat_str(self.a),
            "components": [{"name": nm, "c": rat_str(c)} for nm, c in self.components],
            "residual": {
                "lambda": str(res.lam),
                "psi": str(res.psi_rest),  # the residual's psi is symmetric
                "delta_irr": str(res.delta_irr),
                # the report lists every orbit row, then every explicit index row
                "boundary": [
                    {"i": i, "s": s, "status": status} if kind == "orbit"
                    else {"i": i, "S": list(s), "status": status}
                    for kind, (i, s), status in self.residual_report
                ],
            },
        }


def _residual_status(c: Coefficient) -> str:
    if c.is_zero:
        return "zero"
    if c.is_exact:
        return "nonnegative" if c.value > 0 else "negative"
    if c.kind == "at_least" and c.value >= 0:
        return "nonnegative"
    if c.kind == "at_most" and c.value < 0:
        return "negative"
    return "unknown"


def _solve_interior(canonical: DivisorClass, components) -> tuple:
    """(a, (c_k, ...)) solving canonical = a sum(psi) + sum c_k D_k on lambda,
    psi and delta_irr; raises CertificateError when a component does not
    qualify, or when the solution is not unique with a > 0 and every c_k >= 0."""
    space = canonical.space
    for name, cls in components:
        if cls.space != space:
            raise SpaceMismatchError(f"component {name} lives on {cls.space}, want {space}")
        if not (cls.lam.is_exact and cls.delta_irr.is_exact and cls.psi_rest.is_exact
                and all(p.is_exact for _, p in cls.psi_items())):
            raise CertificateError(f"component {name} has a non-exact interior coefficient")
        if not cls.psi_symmetric:
            raise CertificateError(f"component {name} is not psi-symmetric")

    # rows: lambda, psi (one equation by symmetry, read from the psi rest), delta_irr
    # columns: a, then one per component; solve_linear coerces every entry to
    # Fraction, so its quotients stay exact
    matrix = [
        [0] + [cls.lam.value for _, cls in components],
        [1] + [cls.psi_rest.value for _, cls in components],
        [0] + [cls.delta_irr.value for _, cls in components],
    ]
    rhs = [canonical.lam.value, canonical.psi_rest.value, canonical.delta_irr.value]
    sol = solve_linear(matrix, rhs)
    if sol.status == "infeasible":
        raise InfeasibleCertificateError("no exact interior decomposition exists")
    if sol.status == "underdetermined":
        raise UnderdeterminedCertificateError("interior system is underdetermined")
    a, *cs = sol.vector
    if a <= 0:
        raise NegativeCoefficientError(f"big-class coefficient a = {a} is not positive")
    for (name, _), c in zip(components, cs):
        if c < 0:
            raise NegativeCoefficientError(f"component {name} gets negative coefficient {c}")
    return a, tuple(cs)


def solve_certificate(space: Space, components) -> Certificate:
    """Solve K = a sum(psi) + sum c_k D_k + E exactly on the interior part.

    `components` is a sequence of (name, DivisorClass).  Requires each
    component's lambda, psi, delta_irr coefficients Exact and its psi
    coefficients label-symmetric (checked, not averaged).  E must vanish on
    lambda, psi and delta_irr (CertificateError otherwise); its boundary
    entries are classified per generator orbit in the residual report.  K is
    canonical_class(space); the certificate keeps it and the components, for
    perturbation_sound.
    """
    components = tuple(components)
    kraw = canonical_class(space.g, space.n)
    a, cs = _solve_interior(kraw, components)

    residual = kraw.add(DivisorClass(space, psi=-a))
    for (_, cls), c in zip(components, cs):
        residual = residual.add(cls.scale(-c))
    if not (residual.lam.is_zero and residual.delta_irr.is_zero
            and residual.psi_symmetric and residual.psi_rest.is_zero):
        raise CertificateError("the residual's interior does not vanish")

    report = []
    for key in boundary_orbits(space):
        report.append(("orbit", key, _residual_status(residual.orbit_coefficient(*key))))
    for idx, v in residual.boundary_items():
        report.append(("index", (idx.i, tuple(sorted(idx.S))), _residual_status(v)))

    named = tuple((name, c) for (name, _), c in zip(components, cs))
    return Certificate(space, a, named, residual, tuple(report), kraw, components)


def perturbation_sound(cert: Certificate) -> bool:
    """Guard against a trivially-passing solver: bumping any single interior
    coefficient (lambda, the symmetric psi, or delta_irr) of any input of
    `cert` by 1 must change the solved coefficients (or break solvability
    outright).  Only the interior is solved, against the certificate's K."""
    baseline = (cert.a, tuple(c for _, c in cert.components))
    bumps = [DivisorClass(cert.space, lam=1), DivisorClass(cert.space, psi=1),
             DivisorClass(cert.space, delta_irr=1)]
    for k, (name, cls) in enumerate(cert.inputs):
        for bump in bumps:
            mutated = list(cert.inputs)
            mutated[k] = (name, cls.add(bump))
            try:
                alt = _solve_interior(cert.canonical, mutated)
            except CertificateError:
                continue  # no longer solvable: certainly not the same answer
            if alt == baseline:
                return False
    return True


# ---------------------------------------------------------------------------
# recipes

# (g, n) -> ((name, source), ...).  A source is a pair average on 8 points,
# (tail genus at i, tail genus at j, scale), or None: the catalog entry of
# that name, on the space of the built-in entry, which when unmarked is
# pulled back forgetfully to n points.
RECIPES = {
    (16, 8): (("D_16_8", (1, 0, 8)), ("Z16", None)),
    (17, 8): (("D_17_8", (0, 0, 4)), ("BN17", None)),
    (12, 10): (("D12", None), ("F12_10", None)),
}


def _pair_tails(g: int) -> tuple:
    """(tail genus at i, tail genus at j, scale) of the (g, 8) pair average."""
    return next(source for _, source in RECIPES[(g, 8)] if isinstance(source, tuple))


def quad3_pullback(q3: DivisorClass, g: int, i: int, j: int) -> DivisorClass:
    """Pullback of the t=3 class q3 = quad_class(3) to the 8-pointed genus-g
    space along the map attaching 2-pointed tails of the (g, 8) recipe's
    genera at labels i and j; retained labels fill the first labels of
    q3.space in order, the tails take the last four in pairs."""
    genus_i, genus_j, _ = _pair_tails(g)
    source, target = Space(g, 8), q3.space
    retained = [l for l in source.labels if l not in (i, j)]
    *_, a, b, c, d = target.labels
    m = ClutchingMap(
        source,
        target,
        attachments=(TailAttachment(i, genus_i, {a, b}), TailAttachment(j, genus_j, {c, d})),
        retained=dict(zip(retained, target.labels)),
    )
    return clutch_pullback(q3, m)


def averaged_class(g: int) -> DivisorClass:
    """D_g_8: quad3_pullback at one pair, symmetrized, which is its average over
    the 56 ordered pairs, scaled by the (g, 8) recipe's scale."""
    return quad3_pullback(quad_class(3), g, 1, 2).symmetrized().scale(_pair_tails(g)[2])


def _component(name: str, source, g: int, n: int, catalog) -> DivisorClass:
    """The class of one recipe component on (g, n).  A catalog entry must lie
    on the space of the built-in entry of its name."""
    if isinstance(source, tuple):
        return averaged_class(g)
    cls = catalog_get(name, catalog).cls
    space = _CATALOG[name].cls.space
    if cls.space != space:
        raise MalformedClassError(
            f"catalog entry {name!r} must be a class on (g={space.g}, n={space.n})")
    return forgetful_pullback(cls, n) if space.n == 0 else cls


def certificate_components(g: int, n: int, catalog=None):
    """The named effective classes of the (g, n) recipe, in order."""
    if (g, n) not in RECIPES:
        raise ValueError(f"no certificate recipe for (g, n) = ({g}, {n})")
    return [(name, _component(name, source, g, n, catalog)) for name, source in RECIPES[(g, n)]]


def certify(g: int, n: int, catalog=None):
    return solve_certificate(Space(g, n), certificate_components(g, n, catalog))


def bn5_pullback() -> DivisorClass:
    """Pullback of the classical genus-5 quadric divisor to the 1-pointed space."""
    return forgetful_pullback(catalog_get("BN5_3").cls, 1)
