"""Concrete pullback families and certificate recipes for the three spaces of
interest: (16,8), (17,8) and (12,10).

The averaged classes are built from the ordered-pair clutching pullbacks of
the t=3 family class on the 10-pointed genus-17 space; the normalization
constants reproduce the reference integral coefficients (40/37/8 and 20/19/4),
any positive rescaling gives the same certificate.
"""

from __future__ import annotations

from .certificates import catalog_get, solve_certificate
from .family import quad_class
from .picard import DivisorClass, MalformedClassError, Space
from .pullbacks import (
    ClutchingMap,
    TailAttachment,
    average_over_pairs,
    clutch_pullback,
    forgetful_pullback,
)

D_16_8_NORMALIZATION = 8
D_17_8_NORMALIZATION = 4


def _pair_map(source: Space, target: Space, i: int, j: int,
              genus_i: int, genus_j: int) -> ClutchingMap:
    """Attach a 2-pointed tail of genus_i at label i and genus_j at label j;
    retained labels fill the low target labels in order, tails take the rest."""
    retained_src = [l for l in source.labels if l not in (i, j)]
    retained = {s: t for t, s in enumerate(retained_src, start=1)}
    k = len(retained_src)
    return ClutchingMap(
        source,
        target,
        attachments=(
            TailAttachment(i, genus_i, {k + 1, k + 2}),
            TailAttachment(j, genus_j, {k + 3, k + 4}),
        ),
        retained=retained,
    )


def quad3_pullback_16_8(q3: DivisorClass, i: int, j: int) -> DivisorClass:
    """Pullback of the t=3 class q3 = quad_class(3) along the map attaching an
    elliptic 2-pointed tail at i and a rational 2-pointed tail at j."""
    m = _pair_map(Space(16, 8), Space(17, 10), i, j, genus_i=1, genus_j=0)
    return clutch_pullback(q3, m)


def quad3_pullback_17_8(q3: DivisorClass, i: int, j: int) -> DivisorClass:
    """Pullback of the t=3 class q3 = quad_class(3) along the map attaching
    rational 2-pointed tails at both i and j."""
    m = _pair_map(Space(17, 8), Space(17, 10), i, j, genus_i=0, genus_j=0)
    return clutch_pullback(q3, m)


def ordered_pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def averaged_class_16_8() -> DivisorClass:
    q3 = quad_class(3)
    fam = [quad3_pullback_16_8(q3, i, j) for i, j in ordered_pairs(8)]
    return average_over_pairs(fam, D_16_8_NORMALIZATION)


def averaged_class_17_8() -> DivisorClass:
    q3 = quad_class(3)
    fam = [quad3_pullback_17_8(q3, i, j) for i, j in ordered_pairs(8)]
    return average_over_pairs(fam, D_17_8_NORMALIZATION)


def _catalog_class(name: str, catalog, space: Space) -> DivisorClass:
    """The class of catalog entry `name`, checked to live on `space`."""
    cls = catalog_get(name, catalog).cls
    if cls.space != space:
        raise MalformedClassError(
            f"catalog entry {name!r} must be a class on (g={space.g}, n={space.n})")
    return cls


def certificate_components(g: int, n: int, catalog=None):
    """Named effective classes feeding the certificate for a supported space."""
    if (g, n) == (16, 8):
        return [
            ("D_16_8", averaged_class_16_8()),
            ("Z16", forgetful_pullback(_catalog_class("Z16", catalog, Space(16, 0)), 8)),
        ]
    if (g, n) == (17, 8):
        return [
            ("D_17_8", averaged_class_17_8()),
            ("BN17", _catalog_class("BN17", catalog, Space(17, 8))),
        ]
    if (g, n) == (12, 10):
        return [
            ("D12", forgetful_pullback(_catalog_class("D12", catalog, Space(12, 0)), 10)),
            ("F12_10", _catalog_class("F12_10", catalog, Space(12, 10))),
        ]
    raise ValueError(f"no certificate recipe for (g, n) = ({g}, {n})")


def certify(g: int, n: int, catalog=None):
    return solve_certificate(Space(g, n), certificate_components(g, n, catalog))


def bn5_pullback() -> DivisorClass:
    """Pullback of the classical genus-5 quadric divisor to the 1-pointed space."""
    return forgetful_pullback(catalog_get("BN5_3").cls, 1)
