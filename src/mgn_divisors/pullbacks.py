"""Pullbacks along forgetful and clutching maps; a pair average is one
pullback, symmetrized (DivisorClass.symmetrized).

Clutching pullbacks are deliberately partial: the interior coefficients
(lambda, psi, delta_irr) are computed exactly, boundary-to-boundary images are
marked Unknown unless the input class has no boundary at all.  The downstream
certificate solver consumes only the interior part, and encoding full
boundary rule tables would import conventions nothing here can verify.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping, Sequence

from .picard import (
    DivisorClass,
    EXACT_ZERO,
    Space,
    SpaceMismatchError,
    UNKNOWN,
    _check_index_types,
)


def forgetful_pullback(cls: DivisorClass, n: int) -> DivisorClass:
    """Pullback of a class on the unmarked space (g, 0) along the map
    forgetting all n marked points.

    lambda -> lambda, delta_irr -> delta_irr, and delta_i (i >= 1) -> the sum
    of every boundary divisor whose stabilization forgets to delta_i, i.e. the
    whole (i, s) orbit for every s; the genus-0 tails delta_{0:S} are
    contracted, so row 0 is zero.  Each row is one constant: the result's
    boundary rest is the most common row value and every other row is stored
    once, as a constant row, so the cost is O(g), whatever n is.
    Bound/Unknown inputs propagate.
    """
    g = cls.space.g
    if cls.space.n:
        raise SpaceMismatchError(f"forgetful pullback needs a class on (g={g}, n=0), "
                                 f"not {cls.space}")
    rows = [EXACT_ZERO] + [cls.boundary_coefficient(i, ()) for i in range(1, g // 2 + 1)]
    rest = max(rows, key=rows.count)
    return DivisorClass(Space(g, n), lam=cls.lam, delta_irr=cls.delta_irr,
                        boundary_rows=dict(enumerate(rows)), boundary_rest=rest)


class TailAttachment(namedtuple("TailAttachment", "at_label tail_genus tail_labels")):
    """A fixed stable tail glued at a source marked point.

    The source point at_label becomes the node; the tail has genus tail_genus
    and carries the target labels in tail_labels, a frozenset.  The genus
    (>= 0) and the labels are ints, as in a boundary index.
    """

    __slots__ = ()

    def __new__(cls, at_label: int, tail_genus: int, tail_labels):
        tail_labels = frozenset(tail_labels)
        _check_index_types(tail_genus, (at_label, *tail_labels))
        if tail_genus < 0:
            raise ValueError(f"tail genus {tail_genus} is negative")
        if not (tail_genus >= 1 or len(tail_labels) >= 2):
            raise ValueError("tail is unstable: needs genus >= 1 or >= 2 points")
        return tuple.__new__(cls, (at_label, tail_genus, tail_labels))


class ClutchingMap(namedtuple("ClutchingMap", "source target attachments retained")):
    """Gluing map from source into target given by fixed tails at some of the
    source's marked points; retained maps the remaining source labels to
    target labels, both ints, as in a boundary index.  It is stored as the
    sorted pairs ((source_label, target_label), ...), and either form is read,
    so a copy or an unpickled map is built from its stored fields."""

    __slots__ = ()

    def __new__(cls, source: Space, target: Space,
                attachments: Sequence[TailAttachment],
                retained: Mapping[int, int]):
        attachments = tuple(attachments)
        retained = dict(retained)
        for pair in retained.items():
            _check_index_types(0, pair)  # source and target labels; no genus here
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
        return tuple.__new__(cls, (source, target, attachments, retained))


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
