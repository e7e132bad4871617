"""Concrete pullback families and certificate recipes for the three spaces of
interest: (16,8), (17,8) and (12,10).

The averaged classes are one pullback, symmetrized: the clutching pullback of
the t=3 family class on the 10-pointed genus-17 space at one pair of labels,
averaged over the relabellings of the 8 points, which act transitively on the
56 ordered pairs.  The normalizations in PAIR_TAILS reproduce the reference
integral coefficients (40/37/8 and 20/19/4); any positive rescaling gives the
same certificate.
"""

from __future__ import annotations

from .certificates import catalog_get, solve_certificate
from .family import quad_class
from .picard import DivisorClass, MalformedClassError, Space
from .pullbacks import ClutchingMap, TailAttachment, clutch_pullback, forgetful_pullback

# g -> (tail genus at i, tail genus at j, normalization) on the 8-pointed space
PAIR_TAILS = {16: (1, 0, 8), 17: (0, 0, 4)}


def quad3_pullback(q3: DivisorClass, g: int, i: int, j: int) -> DivisorClass:
    """Pullback of the t=3 class q3 = quad_class(3) to the 8-pointed genus-g
    space along the map attaching 2-pointed tails of the PAIR_TAILS[g] genera
    at labels i and j; retained labels fill target labels 1..6 in order, the
    tails take 7, 8 and 9, 10."""
    genus_i, genus_j, _ = PAIR_TAILS[g]
    source = Space(g, 8)
    retained = [l for l in source.labels if l not in (i, j)]
    m = ClutchingMap(
        source,
        Space(17, 10),
        attachments=(TailAttachment(i, genus_i, {7, 8}), TailAttachment(j, genus_j, {9, 10})),
        retained={s: t for t, s in enumerate(retained, start=1)},
    )
    return clutch_pullback(q3, m)


def averaged_class(g: int) -> DivisorClass:
    """D_g_8: quad3_pullback at one pair, symmetrized, which is its average over
    the 56 ordered pairs, scaled by the normalization of PAIR_TAILS[g]."""
    return quad3_pullback(quad_class(3), g, 1, 2).symmetrized().scale(PAIR_TAILS[g][2])


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
            ("D_16_8", averaged_class(16)),
            ("Z16", forgetful_pullback(_catalog_class("Z16", catalog, Space(16, 0)), 8)),
        ]
    if (g, n) == (17, 8):
        return [
            ("D_17_8", averaged_class(17)),
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
