"""Pullbacks along forgetful and clutching maps, and symmetrized averages.

Clutching pullbacks are deliberately partial: the interior coefficients
(lambda, psi, delta_irr) are computed exactly, boundary-to-boundary images are
marked Unknown unless the input class has no boundary at all.  The downstream
certificate solver consumes only the interior part, and encoding full
boundary rule tables would import conventions nothing here can verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import rat
from .picard import (
    DivisorClass,
    EXACT_ZERO,
    Space,
    SpaceMismatchError,
    UNKNOWN,
    is_orbit,
)


def forgetful_pullback(cls: DivisorClass, n: int) -> DivisorClass:
    """Pullback of a class on the unmarked space (g, 0) along the map
    forgetting all n marked points.

    lambda -> lambda, delta_irr -> delta_irr, and delta_i (i >= 1) -> the sum
    of every boundary divisor whose stabilization forgets to delta_i, i.e. the
    whole (i, s) orbit for every s; the genus-0 tails delta_{0:S} are
    contracted, so row 0 is zero.  The result's boundary rest is the most
    common row value and only the rows that differ from it are listed, so the
    cost is O(n) per such row.  Bound/Unknown inputs propagate.
    """
    g = cls.space.g
    if cls.space.n:
        raise SpaceMismatchError(f"forgetful pullback needs a class on (g={g}, n=0), "
                                 f"not {cls.space}")
    space = Space(g, n)
    rows = [EXACT_ZERO] + [cls.boundary_coefficient(i, ()) for i in range(1, g // 2 + 1)]
    rest = max(rows, key=rows.count)
    sym = {(i, s): c for i, c in enumerate(rows) if c != rest
           for s in range(n + 1) if is_orbit(space, i, s)}
    return DivisorClass(space, lam=cls.lam, delta_irr=cls.delta_irr,
                        boundary_sym=sym, boundary_rest=rest)


@dataclass(frozen=True)
class TailAttachment:
    """A fixed stable tail glued at a source marked point.

    The source point at_label becomes the node; the tail has genus tail_genus
    and carries the target labels in tail_labels.
    """

    at_label: int
    tail_genus: int
    tail_labels: frozenset

    def __init__(self, at_label: int, tail_genus: int, tail_labels):
        tail_labels = frozenset(tail_labels)
        if not (tail_genus >= 1 or len(tail_labels) >= 2):
            raise ValueError("tail is unstable: needs genus >= 1 or >= 2 points")
        object.__setattr__(self, "at_label", at_label)
        object.__setattr__(self, "tail_genus", tail_genus)
        object.__setattr__(self, "tail_labels", tail_labels)


@dataclass(frozen=True)
class ClutchingMap:
    """Gluing map from source into target given by fixed tails at some of the
    source's marked points; retained maps the remaining source labels to
    target labels."""

    source: Space
    target: Space
    attachments: tuple
    retained: tuple  # ((source_label, target_label), ...)

    def __init__(self, source: Space, target: Space,
                 attachments: Sequence[TailAttachment],
                 retained: Mapping[int, int]):
        attachments = tuple(attachments)
        retained = tuple(sorted(retained.items()))
        at_labels = {a.at_label for a in attachments}
        if len(at_labels) != len(attachments):
            raise ValueError("duplicate attachment labels")
        if not at_labels <= set(source.labels):
            raise ValueError("attachment labels outside the source marking")
        if {s for s, _ in retained} != set(source.labels) - at_labels:
            raise ValueError("retained must cover exactly the non-attachment labels")
        tail_labels = [lbl for a in attachments for lbl in a.tail_labels]
        target_side = [t for _, t in retained] + tail_labels
        if sorted(target_side) != list(target.labels):
            raise ValueError("retained + tail labels must partition the target labels")
        if target.g != source.g + sum(a.tail_genus for a in attachments):
            raise ValueError("genus bookkeeping does not match")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "attachments", attachments)
        object.__setattr__(self, "retained", retained)

    def to_json(self) -> dict:
        return {
            "source": {"g": self.source.g, "n": self.source.n},
            "target": {"g": self.target.g, "n": self.target.n},
            "attachments": [
                {"at": a.at_label, "genus": a.tail_genus, "labels": sorted(a.tail_labels)}
                for a in self.attachments
            ],
            "retained": {str(s): t for s, t in self.retained},
        }


def clutch_pullback(cls: DivisorClass, m: ClutchingMap) -> DivisorClass:
    """Pullback along a clutching map, exact on the interior part.

    lambda and delta_irr pull back to themselves; a retained label keeps its
    psi coefficient; psi at an attachment label picks up the negated
    coefficient of the tail's boundary divisor delta_{h:T} (the normal-bundle
    contribution; the tail's own psi classes restrict to zero since the tail
    is fixed).  If the input has any boundary term, every boundary coefficient
    of the result is Unknown; a boundary-free input pulls back exactly.

    The result keeps the input's psi rest and lists only the attachment
    labels and the retained labels whose target psi is listed.
    """
    if cls.space != m.target:
        raise SpaceMismatchError(f"class lives on {cls.space}, map targets {m.target}")
    listed = dict(cls.psi_items())
    psi = {src: listed[tgt] for src, tgt in m.retained if tgt in listed}
    for a in m.attachments:
        psi[a.at_label] = cls.boundary_coefficient(a.tail_genus, a.tail_labels).scaled(-1)
    return DivisorClass(
        m.source,
        lam=cls.lam,
        psi=psi,
        psi_rest=cls.psi_rest,
        delta_irr=cls.delta_irr,
        boundary_rest=EXACT_ZERO if cls.boundary_is_zero else UNKNOWN,
    )


def average_over_pairs(classes: Sequence[DivisorClass], normalization=1) -> DivisorClass:
    """Arithmetic mean of a family of same-space classes, then rescaled.

    The family is the full set of ordered-pair pullbacks; any positive
    normalization yields an equivalent effective class, the constant is chosen
    to reproduce the reference integral coefficients.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("empty family")
    total = classes[0]
    for c in classes[1:]:
        total = total.add(c)
    return total.scale(Fraction(rat(normalization), len(classes)))


_PIC12_GENERATORS = ("lambda", "psi_p", "psi_q", "delta_irr", "delta_0")


def pic12_reduce(expr: Mapping):
    """Reduce a combination of {lambda, psi_p, psi_q, delta_irr, delta_0} on
    the 2-pointed genus-1 space to the basis {lambda, delta_0}.

    Relations: 12 lambda = delta_irr and psi_p = psi_q = lambda + delta_0.
    Returns the pair of reduced coefficients; values may be exact rationals or
    Poly for symbolic statements.
    """
    unknown = set(expr) - set(_PIC12_GENERATORS)
    if unknown:
        raise ValueError(f"unknown generator(s): {sorted(unknown)}")
    c = {name: expr.get(name, 0) for name in _PIC12_GENERATORS}
    lam = c["lambda"] + 12 * c["delta_irr"] + c["psi_p"] + c["psi_q"]
    delta = c["psi_p"] + c["psi_q"] + c["delta_0"]
    return lam, delta
