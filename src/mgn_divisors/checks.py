"""Verification sweeps: every identity the library asserts, run on grids and
symbolically, reported as structured pass/fail records.

Each record is {"op", "inputs", "lhs", "rhs", "pass"} with all values
serialized as canonical rational strings, so reports are byte-stable.  Every
check_* is a generator that yields its records as it computes them, so a
sweep holds no record list and a caller can write each record and drop it.
`record_renderer` writes records in the canonical JSON of picard.CANONICAL_JSON.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .certificates import perturbation_sound
from .exact import Poly, rat_str
from .family import (
    b0,
    b1,
    b1_pairing_via_class,
    b1_recurrence_grid,
    balanced_pairs,
    b_from_pic12,
    family_space,
    gn_pair,
    quad_class,
    tilde_b,
    tilde_recurrence_grid,
    tilde_vs_known_b,
    verify_b1_recurrence,
    verify_balance,
    verify_tilde_recurrence,
)
from .grr import c1_pushforward, porteous_equal_rank, total_boundary, uniform_bundle
from .picard import CANONICAL_JSON, DivisorClass
from .presets import averaged_class, bn5_pullback, certify, quad3_pullback


def _fmt(x) -> str:
    if type(x) is int:  # the grid sweeps' values; bool goes through rat_str
        return str(x)
    if isinstance(x, (int, Fraction)):
        return rat_str(x)
    if isinstance(x, Poly):
        return repr(x)
    return str(x)


def record(op: str, inputs: dict, lhs, rhs) -> dict:
    return {"op": op, "inputs": inputs, "lhs": _fmt(lhs), "rhs": _fmt(rhs), "pass": lhs == rhs}


def record_renderer():
    """A function that renders a record, {"op", "inputs", "lhs", "rhs", "pass"}
    with string op, lhs and rhs, to the text CANONICAL_JSON.encode(record)
    gives, byte for byte.

    The row format of each (op, input keys in record order) is compiled once:
    keys in sorted order, as sort_keys puts them, and strings escaped by the
    encoder's own function.  An int input is written as it prints; any other
    input value, such as a list, goes through CANONICAL_JSON itself, and so
    does a `pass` that is not a bool.
    """
    encode, string = CANONICAL_JSON.encode, encode_basestring_ascii
    formats = {}  # (op, *input keys in record order) -> (row format, input order)

    def literal(x):  # a JSON string that %-formatting leaves as it is
        return string(x).replace("%", "%%")

    def compile_format(op, keys):
        names = sorted(keys)
        fields = ",".join(literal(k) + ":%s" for k in names)
        row = '{"inputs":{' + fields + '},"lhs":%s,"op":' + literal(op) + ',"pass":%s,"rhs":%s}'
        # None: the record's own order is sorted, so its values() need no reordering
        return row, None if names == list(keys) else names

    def render(r):
        inputs = r["inputs"]
        key = (r["op"], *inputs)
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = compile_format(key[0], key[1:])
        row, order = fmt
        values = inputs.values() if order is None else map(inputs.__getitem__, order)
        ok = r["pass"]
        return row % (*[v if type(v) is int else encode(v) for v in values],
                      string(r["lhs"]),
                      "true" if ok is True else "false" if ok is False else encode(ok),
                      string(r["rhs"]))

    return render


def check_table(t_max: int = 6):
    expected = [(gn_pair(t), t) for t in range(t_max + 1)]
    g_max = expected[-1][0][0]
    derived = balanced_pairs(g_max)
    yield record(
        "balanced_pairs",
        {"g_max": g_max},
        str(derived),
        str([(g, n, t) for (g, n), t in expected]),
    )


def check_balance(t_max: int = 100):
    t = Poly.var("t")
    yield record("balance_symbolic", {}, verify_balance(t), True)
    fails = [t0 for t0 in range(t_max + 1) if not verify_balance(t0)]
    yield record("balance_grid", {"t_max": t_max, "failures": fails}, not fails, True)


def check_recurrences(t_max: int = 8):
    s, t, i = Poly.var("s"), Poly.var("t"), Poly.var("i")

    yield record("tilde_b_equals_b0_at_i0", {}, tilde_b(0, s, t), b0(s, t))
    yield record("tilde_b_gap_at_i1", {}, tilde_b(1, s, t), b1(s, t) - 2)
    yield record("b1_at_s1_is_4", {}, b1(1, t), Poly.const(4))
    yield record("tilde_recurrence_symbolic", {}, verify_tilde_recurrence(i, s, t), True)
    yield record("b1_recurrence_symbolic", {}, verify_b1_recurrence(s, t), True)

    for t0 in range(t_max + 1):
        for i0, s0, lhs, rhs in tilde_recurrence_grid(t0):
            yield record("tilde_recurrence", {"i": i0, "s": s0, "t": t0}, lhs, rhs)
        q = quad_class(t0)
        for s0, lhs, rhs in b1_recurrence_grid(t0):
            yield record("b1_recurrence", {"s": s0, "t": t0}, lhs, rhs)
            yield record("b1_recurrence_pairing", {"s": s0, "t": t0},
                         b1_pairing_via_class(q, s0), lhs)
        for (i0, s0, tv, bv, ok) in tilde_vs_known_b(t0):
            yield {
                "op": "tilde_b_below_known_b",
                "inputs": {"i": i0, "s": s0, "t": t0},
                "lhs": _fmt(tv),
                "rhs": f"<={_fmt(bv)}",
                "pass": ok,
            }


def check_grr(t_max: int = 8):
    for t0 in range(t_max + 1):
        space = family_space(t0)
        e = c1_pushforward(space, uniform_bundle(1, -1))
        f = c1_pushforward(space, uniform_bundle(2, -2))
        expected_e = DivisorClass(space, lam=1, psi=-1)
        expected_f = DivisorClass(space, lam=13, psi=-5).add(total_boundary(space, -1))
        yield record("grr_once_twisted", {"t": t0}, e == expected_e, True)
        yield record("grr_twice_twisted", {"t": t0}, f == expected_f, True)
        d1 = porteous_equal_rank(e, t0 + 4, f)
        expected_d1 = DivisorClass(space, lam=8 - t0, psi=t0).add(total_boundary(space, -1))
        yield record("porteous_interior", {"t": t0}, d1 == expected_d1, True)
        q = quad_class(t0)
        # two symmetric psi parts agree when their rests do
        interior_match = (
            d1.lam == q.lam and d1.delta_irr == q.delta_irr
            and d1.psi_symmetric and q.psi_symmetric and d1.psi_rest == q.psi_rest
        )
        yield record("porteous_matches_family_interior", {"t": t0}, interior_match, True)


def check_pullbacks():
    yield record("forgetful_bn5_equals_quad_t0", {}, bn5_pullback() == quad_class(0), True)

    q3 = quad_class(3)
    pulled = {g: quad3_pullback(q3, g, 1, 2) for g in (16, 17)}
    for g, psi_1 in ((16, "9"), (17, "10")):
        p = pulled[g]
        yield record(f"clutch_{g}_8_interior", {"i": 1, "j": 2},
                     [str(p.lam), str(p.psi_coefficient(1)),
                      str(p.psi_coefficient(2)), str(p.psi_coefficient(3)),
                      str(p.delta_irr)],
                     ["5", psi_1, "10", "3", "-1"])
    # psi gain at an attachment equals the matching family coefficient
    yield record("psi_gain_elliptic_tail", {"t": 3, "h": 1, "k": 2},
                 pulled[16].psi_coefficient(1).value, b1(2, 3))
    yield record("psi_gain_rational_tail", {"t": 3, "h": 0, "k": 2},
                 pulled[16].psi_coefficient(2).value, b0(2, 3))

    for g, want in ((16, ["40", "37", "-8"]), (17, ["20", "19", "-4"])):
        d = averaged_class(g)
        yield record(f"averaged_{g}_8", {},
                     [str(d.lam), str(d.psi_coefficient(1)), str(d.delta_irr)], want)
        yield record(f"averaged_{g}_8_symmetric", {}, d.psi_symmetric, True)


def check_pic12(t_max: int = 8):
    b10, b11 = b_from_pic12(Poly.var("t"))
    yield record("pic12_symbolic_b10", {}, b10, Poly.var("t") + 4)
    yield record("pic12_symbolic_b11", {}, b11, Poly.const(4))
    for t0 in range(t_max + 1):
        v10, v11 = b_from_pic12(t0)
        yield record("pic12_numeric", {"t": t0},
                     [rat_str(v10), rat_str(v11)],
                     [rat_str(t0 + 4), "4"])


def check_certificates():
    expected = {
        (16, 8): ("13/272", [("D_16_8", "7/272"), ("Z16", "1/34")]),
        (17, 8): ("1/20", [("D_17_8", "1/20"), ("BN17", "3/5")]),
        (12, 10): ("59/4415", [("D12", "13/13245"), ("F12_10", "484/4415")]),
    }
    for (g, n), (a_want, comps_want) in expected.items():
        # K is built once, by certify; the probe reuses the certificate's K and inputs
        cert = certify(g, n)
        got = (rat_str(cert.a), [(nm, rat_str(c)) for nm, c in cert.components])
        yield record("certificate", {"g": g, "n": n}, str(got), str((a_want, comps_want)))
        res = cert.residual
        interior_zero = (res.lam.is_zero and res.delta_irr.is_zero
                         and res.psi_symmetric and res.psi_rest.is_zero)
        yield record("certificate_residual_interior_zero", {"g": g, "n": n}, interior_zero, True)
        yield record("certificate_perturbation_sound", {"g": g, "n": n},
                     perturbation_sound(cert), True)


# Every entry looks its sweep up by name at call time, so a profiler that rebinds
# this module's check_* names (perfbench/tracer.py) sees each call.
SUITES = {
    "balance": lambda t_max: chain(check_table(min(t_max, 6)), check_balance(max(t_max, 100))),
    "recurrences": lambda t_max: check_recurrences(t_max),
    "grr": lambda t_max: check_grr(t_max),
    "pullbacks": lambda t_max: check_pullbacks(),
    "pic12": lambda t_max: check_pic12(t_max),
    "certificates": lambda t_max: check_certificates(),
}


def check_all(t_max: int = 8):
    for suite in SUITES.values():
        yield from suite(t_max)
