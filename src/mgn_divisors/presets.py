"""Certificate recipes for the three spaces of interest, (16,8), (17,8) and
(12,10), and the pullback families they use.

RECIPES maps (g, n) to the certificate's components in order, each a name and
one source: a pair average, or the catalog entry of that name.  A pair average
is one pullback, symmetrized: the clutching pullback of the t=3 family class
along the map gluing 2-pointed tails of the recipe's genera at one pair of
labels, averaged over the relabellings of the 8 points, which act
transitively on the 56 ordered pairs.  Its scale reproduces the reference
integral coefficients (40/37/8 and 20/19/4); any positive rescaling gives the
same certificate.
"""

from __future__ import annotations

from .certificates import catalog_get, solve_certificate
from .family import quad_class
from .picard import DivisorClass, MalformedClassError, Space
from .pullbacks import ClutchingMap, TailAttachment, clutch_pullback, forgetful_pullback

# (g, n) -> ((name, source), ...).  A source is a pair average on 8 points,
# (tail genus at i, tail genus at j, scale), or the n of the space the catalog
# entry lives on: 0 is the unmarked space, pulled back forgetfully to n points.
RECIPES = {
    (16, 8): (("D_16_8", (1, 0, 8)), ("Z16", 0)),
    (17, 8): (("D_17_8", (0, 0, 4)), ("BN17", 8)),
    (12, 10): (("D12", 0), ("F12_10", 10)),
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
    """The class of one recipe component on (g, n)."""
    if isinstance(source, tuple):
        return averaged_class(g)
    cls = catalog_get(name, catalog).cls
    if cls.space != Space(g, source):
        raise MalformedClassError(f"catalog entry {name!r} must be a class on (g={g}, n={source})")
    return forgetful_pullback(cls, n) if source == 0 else cls


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
