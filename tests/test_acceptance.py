"""Acceptance gate: one test per headline criterion, each printing a
single PASS/FAIL line so the suite doubles as a human-readable report."""

import random
from fractions import Fraction

from mgn_divisors.certificates import canonical_class, perturbation_sound
from mgn_divisors.exact import Poly
from mgn_divisors.family import (
    b1_pairing_via_class,
    b1_recurrence_rhs,
    b_from_pic12,
    balanced_pairs,
    d1_phi_prime,
    d1_theta,
    family_space,
    gn_pair,
    quad_class,
    verify_b1_recurrence,
    verify_balance,
    verify_tilde_recurrence,
)
from mgn_divisors.grr import c1_pushforward, porteous_equal_rank, total_boundary, uniform_bundle
from mgn_divisors.picard import (
    Coefficient,
    DivisorClass,
    Space,
    TestCurve as Pencil,
    UnstableIndexError,
    all_canonical_indices,
    canonical_index,
    deserialize,
    intersect_test_curve,
    serialize,
)
from mgn_divisors.presets import (
    averaged_class_16_8,
    averaged_class_17_8,
    bn5_pullback,
    certificate_components,
    certify,
    quad3_pullback_16_8,
    quad3_pullback_17_8,
)


def report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


TABLE = [(5, 1), (8, 3), (12, 6), (17, 10), (23, 15), (30, 21), (38, 28)]


def test_criterion_1_family_table():
    ok = all(gn_pair(t) == TABLE[t] for t in range(7))
    ok = ok and balanced_pairs(38) == [(g, n, t) for t, (g, n) in enumerate(TABLE)]
    report(1, "family table rows and independent re-derivation", ok)


def test_criterion_2_balance_identity():
    ok = verify_balance(Poly.var("t"))
    ok = ok and all(verify_balance(t) for t in range(101))
    report(2, "balance identity, symbolic and t=0..100", ok)


def test_criterion_3_t0_oracle():
    cls = quad_class(0)
    ok = cls == bn5_pullback()
    six = [
        cls.lam,
        cls.delta_irr,
        cls.boundary_coefficient(1, set()),
        cls.boundary_coefficient(1, {1}),
        cls.boundary_coefficient(2, set()),
        cls.boundary_coefficient(2, {1}),
    ]
    ok = ok and six == [Coefficient.exact(v) for v in (8, -1, -4, -4, -6, -6)]
    ok = ok and cls.psi_coefficient(1) == Coefficient.exact(0)
    report(3, "t=0 class equals the pulled-back classical divisor", ok)


def test_criterion_4_grr_engine():
    ok = True
    for t in range(9):
        space = family_space(t)
        e = c1_pushforward(space, uniform_bundle(1, -1))
        f = c1_pushforward(space, uniform_bundle(2, -2))
        ok = ok and e == DivisorClass(space, lam=1, psi=-1)
        ok = ok and f == DivisorClass(space, lam=13, psi=-5).add(total_boundary(space, -1))
        d1 = porteous_equal_rank(e, t + 4, f)
        q = quad_class(t)
        ok = ok and (d1.lam, d1.delta_irr) == (q.lam, q.delta_irr)
        ok = ok and all(d1.psi_coefficient(j) == q.psi_coefficient(j) for j in space.labels)
    report(4, "Chern-class engine reproduces the family class interior", ok)


def test_criterion_5_tilde_recurrence_suite():
    cases = 0
    ok = True
    for t in range(9):
        _, n = gn_pair(t)
        for s in range(1, n + 1):
            for i in range(0, s):
                ok = ok and verify_tilde_recurrence(i, s, t)
                cases += 1
    ok = ok and cases > 100
    ok = ok and d1_phi_prime(0, 1, 1) == 10 and d1_phi_prime(1, 2, 1) == 56
    report(5, f"tilde-coefficient recurrence over {cases} cases with spot values", ok)


def test_criterion_6_b1_recurrence_three_ways():
    cases = 0
    ok = True
    for t in range(9):
        _, n = gn_pair(t)
        q = quad_class(t)
        for s in range(1, n):
            lhs = d1_theta(s, t)
            ok = ok and verify_b1_recurrence(s, t)
            ok = ok and lhs == b1_recurrence_rhs(s, t) == b1_pairing_via_class(q, s)
            cases += 1
    spots = (d1_theta(1, 0), d1_theta(1, 1), d1_theta(2, 1))
    ok = ok and spots == (24, 44, 80)
    ok = ok and b1_pairing_via_class(quad_class(0), 1) == 24
    report(6, f"genus-1 coefficient recurrence, three-way agreement, {cases} cases", ok)


def test_criterion_7_pic12_reduction():
    t = Poly.var("t")
    b10, b11 = b_from_pic12(t)
    ok = b10 == t + 4 and b11 == Poly.const(4)
    report(7, "elliptic-tail Picard reduction gives (t+4, 4) symbolically", ok)


def test_criterion_8_pullback_oracles():
    ok = True
    q3 = quad_class(3)
    for i, j in [(1, 2), (4, 7)]:
        p = quad3_pullback_16_8(q3, i, j)
        ok = ok and p.lam == Coefficient.exact(5) and p.delta_irr == Coefficient.exact(-1)
        ok = ok and all(
            p.psi_coefficient(k) == Coefficient.exact(9 if k == i else 10 if k == j else 3)
            for k in Space(16, 8).labels)
        q = quad3_pullback_17_8(q3, i, j)
        ok = ok and q.lam == Coefficient.exact(5) and q.delta_irr == Coefficient.exact(-1)
        ok = ok and all(
            q.psi_coefficient(k) == Coefficient.exact(10 if k in (i, j) else 3)
            for k in Space(17, 8).labels)
    d = averaged_class_16_8()
    ok = ok and (d.lam, d.psi_coefficient(1), d.delta_irr) == tuple(
        Coefficient.exact(v) for v in (40, 37, -8))
    d = averaged_class_17_8()
    ok = ok and (d.lam, d.psi_coefficient(1), d.delta_irr) == tuple(
        Coefficient.exact(v) for v in (20, 19, -4))
    report(8, "clutching pullbacks and symmetrized averages", ok)


def test_criterion_9_certificates():
    expected = {
        (16, 8): (Fraction(13, 272), (Fraction(7, 272), Fraction(1, 34))),
        (17, 8): (Fraction(1, 20), (Fraction(1, 20), Fraction(3, 5))),
        (12, 10): (Fraction(59, 4415), (Fraction(13, 13245), Fraction(484, 4415))),
    }
    ok = True
    for (g, n), (a, cs) in expected.items():
        cert = certify(g, n)
        ok = ok and cert.a == a and tuple(c for _, c in cert.components) == cs
        res = cert.residual
        ok = ok and res.lam.is_zero and res.delta_irr.is_zero
        ok = ok and all(res.psi_coefficient(j).is_zero for j in res.space.labels)
        ok = ok and perturbation_sound(Space(g, n), certificate_components(g, n))
    report(9, "general-type certificates with perturbation soundness", ok)


def test_criterion_10_property_suites():
    ok = True
    # canonicalization idempotence/involution, exhaustive for g<=8, n<=4
    for g in range(2, 9):
        for n in range(0, 5):
            space = Space(g, n)
            labels = set(space.labels)
            for i in range(0, g + 1):
                for mask in range(2 ** n):
                    S = frozenset(j for j in space.labels if mask >> (j - 1) & 1)
                    try:
                        idx = canonical_index(space, i, S)
                    except UnstableIndexError:
                        continue
                    ok = ok and canonical_index(space, idx.i, idx.S) == idx
                    ok = ok and canonical_index(space, g - i, labels - S) == idx

    # pairing linearity on randomized classes (fixed seed, exact arithmetic)
    rng = random.Random(20260823)
    space = Space(6, 3)
    indices = list(all_canonical_indices(space))

    def random_class():
        return DivisorClass(
            space,
            lam=rng.randint(-9, 9),
            psi=[rng.randint(-9, 9) for _ in space.labels],
            delta_irr=rng.randint(-9, 9),
            boundary={idx: rng.randint(-9, 9) for idx in indices},
        )

    curves = [Pencil(space, 1, {1}), Pencil(space, 2, {1, 3}), Pencil(space, 0, {2, 3})]
    for _ in range(25):
        a, b = random_class(), random_class()
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        for curve in curves:
            lhs = intersect_test_curve(a.scale(x).add(b.scale(y)), curve)
            rhs = x * intersect_test_curve(a, curve) + y * intersect_test_curve(b, curve)
            ok = ok and lhs == rhs

    # JSON round-trip identity over the constructed corpus
    corpus = [quad_class(t) for t in range(5)]
    corpus += [canonical_class(g, n) for g, n in [(5, 1), (16, 8), (17, 8), (12, 10)]]
    corpus += [bn5_pullback(), averaged_class_16_8(), averaged_class_17_8(),
               quad3_pullback_16_8(quad_class(3), 1, 2),
               quad3_pullback_17_8(quad_class(3), 3, 4)]
    for cls in corpus:
        text = serialize(cls)
        ok = ok and deserialize(text) == cls and serialize(deserialize(text)) == text

    report(10, "canonicalization, pairing-linearity, round-trip property suites", ok)
