"""Verification sweeps: every identity the library asserts, run on grids and
symbolically, reported as structured pass/fail records.

Each record is {"op", "inputs", "lhs", "rhs", "pass"} with all values
serialized as canonical rational strings, so reports are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import perturbation_sound
from .exact import Poly, rat_str
from .family import (
    b0,
    b1,
    b1_pairing_via_class,
    b1_recurrence_rhs,
    balanced_pairs,
    b_from_pic12,
    d1_phi_prime,
    d1_theta,
    family_space,
    gn_pair,
    quad_class,
    tilde_b,
    tilde_recurrence_rhs,
    tilde_vs_known_b,
    verify_b1_recurrence,
    verify_balance,
    verify_tilde_recurrence,
)
from .grr import c1_pushforward, porteous_equal_rank, total_boundary, uniform_bundle
from .picard import DivisorClass, Space
from .presets import (
    averaged_class_16_8,
    averaged_class_17_8,
    bn5_pullback,
    certificate_components,
    certify,
    quad3_pullback_16_8,
    quad3_pullback_17_8,
)


def _fmt(x) -> str:
    if isinstance(x, (int, Fraction)):
        return rat_str(x)
    if isinstance(x, Poly):
        return repr(x)
    return str(x)


def record(op: str, inputs: dict, lhs, rhs) -> dict:
    return {"op": op, "inputs": inputs, "lhs": _fmt(lhs), "rhs": _fmt(rhs), "pass": lhs == rhs}


def check_table(t_max: int = 6):
    records = []
    expected = [(gn_pair(t), t) for t in range(t_max + 1)]
    g_max = expected[-1][0][0]
    derived = balanced_pairs(g_max)
    records.append(record(
        "balanced_pairs",
        {"g_max": g_max},
        str(derived),
        str([(g, n, t) for (g, n), t in expected]),
    ))
    return records


def check_balance(t_max: int = 100):
    records = []
    t = Poly.var("t")
    records.append(record("balance_symbolic", {}, verify_balance(t), True))
    fails = [t0 for t0 in range(t_max + 1) if not verify_balance(t0)]
    records.append(record("balance_grid", {"t_max": t_max, "failures": fails}, not fails, True))
    return records


def check_recurrences(t_max: int = 8):
    records = []
    s, t, i = Poly.var("s"), Poly.var("t"), Poly.var("i")

    records.append(record("tilde_b_equals_b0_at_i0", {}, tilde_b(0, s, t), b0(s, t)))
    records.append(record("tilde_b_gap_at_i1", {}, tilde_b(1, s, t), b1(s, t) - 2))
    records.append(record("b1_at_s1_is_4", {}, b1(1, t), Poly.const(4)))
    records.append(record("tilde_recurrence_symbolic", {},
                          verify_tilde_recurrence(i, s, t), True))
    records.append(record("b1_recurrence_symbolic", {},
                          verify_b1_recurrence(s, t), True))

    for t0 in range(t_max + 1):
        _, n = gn_pair(t0)
        for s0 in range(1, n + 1):
            for i0 in range(0, s0):
                records.append(record(
                    "tilde_recurrence", {"i": i0, "s": s0, "t": t0},
                    d1_phi_prime(i0, s0, t0), tilde_recurrence_rhs(i0, s0, t0)))
        q = quad_class(t0)
        for s0 in range(1, n + 1):
            lhs = d1_theta(s0, t0)
            rhs = b1_recurrence_rhs(s0, t0)
            records.append(record("b1_recurrence", {"s": s0, "t": t0}, lhs, rhs))
            records.append(record(
                "b1_recurrence_pairing", {"s": s0, "t": t0},
                b1_pairing_via_class(q, s0), lhs))
        for (i0, s0, tv, bv, ok) in tilde_vs_known_b(t0):
            records.append({
                "op": "tilde_b_below_known_b",
                "inputs": {"i": i0, "s": s0, "t": t0},
                "lhs": _fmt(tv),
                "rhs": f"<={_fmt(bv)}",
                "pass": ok,
            })
    return records


def check_grr(t_max: int = 8):
    records = []
    for t0 in range(t_max + 1):
        space = family_space(t0)
        e = c1_pushforward(space, uniform_bundle(1, -1))
        f = c1_pushforward(space, uniform_bundle(2, -2))
        expected_e = DivisorClass(space, lam=1, psi=-1)
        expected_f = DivisorClass(space, lam=13, psi=-5).add(total_boundary(space, -1))
        records.append(record("grr_once_twisted", {"t": t0}, e == expected_e, True))
        records.append(record("grr_twice_twisted", {"t": t0}, f == expected_f, True))
        d1 = porteous_equal_rank(e, t0 + 4, f)
        expected_d1 = DivisorClass(space, lam=8 - t0, psi=Fraction(t0)).add(total_boundary(space, -1))
        records.append(record("porteous_interior", {"t": t0}, d1 == expected_d1, True))
        q = quad_class(t0)
        # two symmetric psi parts agree when their rests do
        interior_match = (
            d1.lam == q.lam and d1.delta_irr == q.delta_irr
            and d1.psi_symmetric and q.psi_symmetric and d1.psi_rest == q.psi_rest
        )
        records.append(record("porteous_matches_family_interior", {"t": t0},
                              interior_match, True))
    return records


def check_pullbacks():
    records = []
    records.append(record("forgetful_bn5_equals_quad_t0", {},
                          bn5_pullback() == quad_class(0), True))

    q3 = quad_class(3)
    p168 = quad3_pullback_16_8(q3, 1, 2)
    records.append(record("clutch_16_8_interior", {"i": 1, "j": 2},
                          [str(p168.lam), str(p168.psi_coefficient(1)),
                           str(p168.psi_coefficient(2)), str(p168.psi_coefficient(3)),
                           str(p168.delta_irr)],
                          ["5", "9", "10", "3", "-1"]))
    p178 = quad3_pullback_17_8(q3, 1, 2)
    records.append(record("clutch_17_8_interior", {"i": 1, "j": 2},
                          [str(p178.lam), str(p178.psi_coefficient(1)),
                           str(p178.psi_coefficient(2)), str(p178.psi_coefficient(3)),
                           str(p178.delta_irr)],
                          ["5", "10", "10", "3", "-1"]))
    # psi gain at an attachment equals the matching family coefficient
    records.append(record("psi_gain_elliptic_tail", {"t": 3, "h": 1, "k": 2},
                          p168.psi_coefficient(1).value, b1(2, 3)))
    records.append(record("psi_gain_rational_tail", {"t": 3, "h": 0, "k": 2},
                          p168.psi_coefficient(2).value, b0(2, 3)))

    d168 = averaged_class_16_8()
    records.append(record("averaged_16_8", {},
                          [str(d168.lam), str(d168.psi_coefficient(1)), str(d168.delta_irr)],
                          ["40", "37", "-8"]))
    records.append(record("averaged_16_8_symmetric", {}, d168.psi_symmetric, True))
    d178 = averaged_class_17_8()
    records.append(record("averaged_17_8", {},
                          [str(d178.lam), str(d178.psi_coefficient(1)), str(d178.delta_irr)],
                          ["20", "19", "-4"]))
    records.append(record("averaged_17_8_symmetric", {}, d178.psi_symmetric, True))
    return records


def check_pic12(t_max: int = 8):
    records = []
    b10, b11 = b_from_pic12(Poly.var("t"))
    records.append(record("pic12_symbolic_b10", {}, b10, Poly.var("t") + 4))
    records.append(record("pic12_symbolic_b11", {}, b11, Poly.const(4)))
    for t0 in range(t_max + 1):
        v10, v11 = b_from_pic12(t0)
        records.append(record("pic12_numeric", {"t": t0},
                              [rat_str(v10), rat_str(v11)],
                              [rat_str(t0 + 4), "4"]))
    return records


def check_certificates():
    expected = {
        (16, 8): ("13/272", [("D_16_8", "7/272"), ("Z16", "1/34")]),
        (17, 8): ("1/20", [("D_17_8", "1/20"), ("BN17", "3/5")]),
        (12, 10): ("59/4415", [("D12", "13/13245"), ("F12_10", "484/4415")]),
    }
    records = []
    for (g, n), (a_want, comps_want) in expected.items():
        cert = certify(g, n)
        got = (rat_str(cert.a), [(nm, rat_str(c)) for nm, c in cert.components])
        records.append(record("certificate", {"g": g, "n": n},
                              str(got), str((a_want, comps_want))))
        res = cert.residual
        interior_zero = (res.lam.is_zero and res.delta_irr.is_zero
                         and res.psi_symmetric and res.psi_rest.is_zero)
        records.append(record("certificate_residual_interior_zero",
                              {"g": g, "n": n}, interior_zero, True))
        records.append(record("certificate_perturbation_sound", {"g": g, "n": n},
                              perturbation_sound(Space(g, n), certificate_components(g, n)),
                              True))
    return records


# Every entry looks its sweep up by name at call time, so a profiler that rebinds
# this module's check_* names (perfbench/tracer.py) sees each call.
SUITES = {
    "balance": lambda t_max: check_table(min(t_max, 6)) + check_balance(max(t_max, 100)),
    "recurrences": lambda t_max: check_recurrences(t_max),
    "grr": lambda t_max: check_grr(t_max),
    "pullbacks": lambda t_max: check_pullbacks(),
    "pic12": lambda t_max: check_pic12(t_max),
    "certificates": lambda t_max: check_certificates(),
}


def check_all(t_max: int = 8):
    records = []
    for suite in SUITES.values():
        records.extend(suite(t_max))
    return records


def summarize(records) -> dict:
    failed = [r for r in records if not r["pass"]]
    return {
        "total": len(records),
        "passed": len(records) - len(failed),
        "failed": len(failed),
        "all_pass": not failed,
    }
