"""Exact-arithmetic divisor classes on moduli spaces of stable pointed curves.

Core data model lives in `picard`, the one-parameter divisor family in
`family`, the Chern-class engine in `grr`, pullbacks in `pullbacks`,
general-type certificates in `certificates`, and the verification sweeps in
`checks`.  Everything computes over exact rationals and polynomials from
`exact`; no floating point anywhere.  A stored scalar is an int when it is
integral, else a Fraction (`exact.scalar`).
"""

from .exact import Poly, parse_rat, rat, rat_str, solve_linear
from .family import (
    b0,
    b1,
    b_from_pic12,
    balanced_pairs,
    gn_pair,
    quad_class,
    tilde_b,
    verify_b1_recurrence,
    verify_balance,
    verify_tilde_recurrence,
)
from .picard import (
    BoundaryIndex,
    Coefficient,
    DivisorClass,
    InsufficientInformationError,
    MalformedClassError,
    PicardError,
    Row,
    Space,
    SpaceMismatchError,
    TestCurve,
    UnstableIndexError,
    canonical_index,
    class_from_dict,
    class_to_dict,
    intersect_test_curve,
)
from .grr import c1_pushforward, porteous_equal_rank
from .pullbacks import ClutchingMap, TailAttachment, clutch_pullback, forgetful_pullback
from .certificates import (
    Certificate,
    CertificateError,
    bn_class,
    canonical_class,
    certify,
    perturbation_sound,
    solve_certificate,
)

__all__ = [
    "BoundaryIndex",
    "Certificate",
    "CertificateError",
    "ClutchingMap",
    "Coefficient",
    "DivisorClass",
    "InsufficientInformationError",
    "MalformedClassError",
    "PicardError",
    "Poly",
    "Row",
    "Space",
    "SpaceMismatchError",
    "TailAttachment",
    "TestCurve",
    "UnstableIndexError",
    "b0",
    "b1",
    "b_from_pic12",
    "balanced_pairs",
    "bn_class",
    "c1_pushforward",
    "canonical_class",
    "canonical_index",
    "certify",
    "class_from_dict",
    "class_to_dict",
    "clutch_pullback",
    "forgetful_pullback",
    "gn_pair",
    "intersect_test_curve",
    "parse_rat",
    "perturbation_sound",
    "porteous_equal_rank",
    "quad_class",
    "rat",
    "rat_str",
    "solve_certificate",
    "solve_linear",
    "tilde_b",
    "verify_b1_recurrence",
    "verify_balance",
    "verify_tilde_recurrence",
]
