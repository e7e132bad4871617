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
per orbit and per explicit index, never silently asserted, because the
catalog inputs only pin the interior part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import LinearSystem, rat_str, solve_linear
from .grr import c1_pushforward, total_boundary, uniform_bundle
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
    class_to_dict,
)


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
    return (c1_pushforward(space, uniform_bundle(2, 1))
            .add(total_boundary(space, -1))
            .add(DivisorClass(space, boundary_sym={(elliptic_tail.i, elliptic_tail.s): -1})))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    cls: DivisorClass  # a class on the unmarked space M_g has n = 0
    note: str = ""


def _builtin_catalog() -> dict:
    entries = [
        CatalogEntry(
            "BN5_3",
            DivisorClass(Space(5, 0), lam=8, delta_irr=-1,
                         boundary_sym={(1, 0): -4, (2, 0): -6}),
            "genus-5 trigonal (quadric) divisor; all coefficients classical",
        ),
        CatalogEntry(
            "Z16",
            DivisorClass(Space(16, 0), lam=407, delta_irr=-61, boundary_rest=UNKNOWN),
            "genus-16 quadric-failure divisor for a degree-21 series; boundary tail unpublished",
        ),
        CatalogEntry(
            "D12",
            DivisorClass(Space(12, 0), lam=13245, delta_irr=-1926, boundary_rest=UNKNOWN),
            "genus-12 quadric-failure divisor for a degree-14 series; boundary tail unpublished",
        ),
        CatalogEntry(
            "BN17",
            DivisorClass(
                Space(17, 8),
                lam=20,
                delta_irr=-3,
                boundary_rest=UNKNOWN,
            ),
            "Brill-Noether divisor pulled back to the 8-pointed genus-17 space",
        ),
        CatalogEntry(
            "F12_10",
            DivisorClass(
                Space(12, 10),
                psi=9,
                delta_irr=-1,
                boundary_rest=UNKNOWN,
            ),
            "degree-11 pencils with the 10 points in a fiber; boundary tail unpublished",
        ),
    ]
    return {e.name: e for e in entries}


_CATALOG = _builtin_catalog()


def catalog_get(name: str, catalog: dict | None = None) -> CatalogEntry:
    cat = catalog if catalog is not None else _CATALOG
    if name not in cat:
        raise KeyError(f"unknown catalog entry: {name!r}")
    return cat[name]


def catalog_names(catalog: dict | None = None):
    return sorted((catalog if catalog is not None else _CATALOG))


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
    except (KeyError, TypeError, ValueError, PicardError) as e:
        raise MalformedClassError(f"malformed catalog file: {e}") from e
    return cat


def catalog_dump(catalog: dict) -> dict:
    return {
        "entries": [
            {"name": e.name, "class": class_to_dict(e.cls), "note": e.note}
            for _, e in sorted(catalog.items())
        ]
    }


# ---------------------------------------------------------------------------
# certificate solving


@dataclass(frozen=True)
class Certificate:
    space: Space
    a: Fraction
    components: tuple  # ((name, Fraction), ...)
    residual: DivisorClass
    residual_report: tuple  # ((kind, key, status), ...)

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


def solve_certificate(space: Space, components) -> Certificate:
    """Solve K = a sum(psi) + sum c_k D_k + E exactly on the interior part.

    `components` is a sequence of (name, DivisorClass).  Requires each
    component's lambda, psi, delta_irr coefficients Exact and its psi
    coefficients label-symmetric (asserted, not averaged).  E is forced to
    vanish on lambda, psi, delta_irr; its boundary entries are classified per
    generator orbit in the residual report.
    """
    components = list(components)
    kraw = canonical_class(space.g, space.n)
    for name, cls in components:
        if cls.space != space:
            raise SpaceMismatchError(f"component {name} lives on {cls.space}, want {space}")
        if not (cls.lam.is_exact and cls.delta_irr.is_exact and cls.psi_rest.is_exact
                and all(p.is_exact for _, p in cls.psi_items())):
            raise CertificateError(f"component {name} has a non-exact interior coefficient")
        if not cls.psi_symmetric:
            raise CertificateError(f"component {name} is not psi-symmetric")

    # rows: lambda, psi (one equation by symmetry, read from the psi rest), delta_irr
    # columns: a, then one per component
    matrix = [
        [Fraction(0)] + [cls.lam.value for _, cls in components],
        [Fraction(1)] + [cls.psi_rest.value for _, cls in components],
        [Fraction(0)] + [cls.delta_irr.value for _, cls in components],
    ]
    rhs = [kraw.lam.value, kraw.psi_rest.value, kraw.delta_irr.value]
    sol = solve_linear(LinearSystem(matrix, rhs))
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

    residual = kraw.add(DivisorClass(space, psi=-a))
    for (_, cls), c in zip(components, cs):
        residual = residual.add(cls.scale(-c))
    assert residual.lam.is_zero and residual.delta_irr.is_zero
    assert residual.psi_symmetric and residual.psi_rest.is_zero

    report = []
    for key in boundary_orbits(space):
        report.append(("orbit", key, _residual_status(residual.orbit_coefficient(*key))))
    for idx, v in residual.boundary_items():
        report.append(("index", (idx.i, tuple(sorted(idx.S))), _residual_status(v)))

    return Certificate(
        space=space,
        a=a,
        components=tuple((name, c) for (name, _), c in zip(components, cs)),
        residual=residual,
        residual_report=tuple(report),
    )


def perturbation_sound(space: Space, components) -> bool:
    """Guard against a trivially-passing solver: bumping any single interior
    coefficient (lambda, the symmetric psi, or delta_irr) of any component by 1
    must change the solved coefficients (or break solvability outright)."""
    components = list(components)
    base = solve_certificate(space, components)
    baseline = (base.a, tuple(c for _, c in base.components))
    bumps = {
        "lam": DivisorClass(space, lam=1),
        "psi": DivisorClass(space, psi=1),
        "delta_irr": DivisorClass(space, delta_irr=1),
    }
    for k, (name, cls) in enumerate(components):
        for bump in bumps.values():
            mutated = list(components)
            mutated[k] = (name, cls.add(bump))
            try:
                alt = solve_certificate(space, mutated)
            except CertificateError:
                continue  # no longer solvable: certainly not the same answer
            if (alt.a, tuple(c for _, c in alt.components)) == baseline:
                return False
    return True
