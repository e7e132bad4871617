"""Verification sweeps: every identity the library asserts, run on grids and
symbolically, reported as structured pass/fail records.

Each record is the tuple (op, values, lhs, rhs, ok) that `record` builds: an
`Op` naming the check and its inputs, the input values in the op's key order,
both sides as canonical rational strings, so reports are byte-stable, and
whether the check passed.  `json_row` writes a record as the canonical JSON
of picard.CANONICAL_JSON and `text_row` as one line of text.  Every check_* is
a generator that yields its records as it computes them, so a sweep holds no
record list and a caller can write each record and drop it.
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
from .grr import c1_pushforward, porteous_equal_rank, total_boundary
from .picard import CANONICAL_JSON, DivisorClass
from .presets import averaged_class, bn5_pullback, certify, quad3_pullback


def _fmt(x) -> str:
    if isinstance(x, (int, Fraction)):  # a bool too, which rat_str prints as 1 or 0
        return rat_str(x)
    if isinstance(x, Poly):
        return repr(x)
    return str(x)


def _literal(x: str) -> str:  # a JSON string that %-formatting leaves as it is
    return encode_basestring_ascii(x).replace("%", "%%")


class Op:
    """A check's name and its input names, in the order its records give the
    values.  `row` is the record's JSON text as a %-format, compiled once:
    keys sorted as CANONICAL_JSON sorts them, strings escaped by the encoder's
    own function, and one %s each for the input values, lhs, pass and rhs."""

    __slots__ = ("name", "keys", "order", "row")

    def __init__(self, name: str, *keys: str):
        self.name, self.keys = name, keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # None: the declared order is sorted, so values need no reordering
        self.order = None if order == list(range(len(keys))) else order
        fields = ",".join(_literal(keys[k]) + ":%s" for k in order)
        self.row = ('{"inputs":{' + fields + '},"lhs":%s,"op":' + _literal(name)
                    + ',"pass":%s,"rhs":%s}')


def record(op: Op, values: tuple, lhs, rhs, ok=None) -> tuple:
    """The record (op, values, lhs, rhs, ok) of one check: lhs and rhs as
    canonical strings, ok whether they agree unless the caller decides it."""
    if ok is None:
        ok = lhs == rhs
    if type(ok) is not bool:
        raise TypeError(f"a check passes or fails, got {ok!r}")
    if type(lhs) is int and type(rhs) is int:  # the grid cells
        return op, values, str(lhs), str(rhs), ok
    return op, values, _fmt(lhs), _fmt(rhs), ok


_INT = {int}


def json_row(r) -> str:
    """A record as the text CANONICAL_JSON.encode gives for its
    {"op", "inputs", "lhs", "rhs", "pass"} dict, byte for byte."""
    op, values, lhs, rhs, ok = r
    if op.order is not None:
        values = [values[k] for k in op.order]
    if not _INT.issuperset(map(type, values)):  # an int is its own JSON
        values = [v if type(v) is int else CANONICAL_JSON.encode(v) for v in values]
    return op.row % (*values, encode_basestring_ascii(lhs), "true" if ok else "false",
                     encode_basestring_ascii(rhs))


def text_row(r) -> str:
    """A record as one line: PASS or FAIL, the op and its inputs, and for a
    failure both sides."""
    op, values, lhs, rhs, ok = r
    inputs = " ".join(map("{}={}".format, op.keys, values))
    line = f"{'PASS' if ok else 'FAIL'} {op.name} {inputs}".rstrip()
    return line if ok else f"{line}  lhs={lhs} rhs={rhs}"


# the ops of the per-cell and per-g records, compiled once
TILDE_RECURRENCE = Op("tilde_recurrence", "i", "s", "t")
B1_RECURRENCE = Op("b1_recurrence", "s", "t")
B1_PAIRING = Op("b1_recurrence_pairing", "s", "t")
TILDE_BELOW = Op("tilde_b_below_known_b", "i", "s", "t")
CLUTCH = {g: Op(f"clutch_{g}_8_interior", "i", "j") for g in (16, 17)}
AVERAGED = {g: (Op(f"averaged_{g}_8"), Op(f"averaged_{g}_8_symmetric")) for g in (16, 17)}


def check_table(t_max: int = 6):
    expected = [(gn_pair(t), t) for t in range(t_max + 1)]
    g_max = expected[-1][0][0]
    derived = balanced_pairs(g_max)
    yield record(Op("balanced_pairs", "g_max"), (g_max,),
                 str(derived), str([(g, n, t) for (g, n), t in expected]))


def check_balance(t_max: int = 100):
    t = Poly.var("t")
    yield record(Op("balance_symbolic"), (), verify_balance(t), True)
    fails = [t0 for t0 in range(t_max + 1) if not verify_balance(t0)]
    yield record(Op("balance_grid", "t_max", "failures"), (t_max, fails), not fails, True)


def check_recurrences(t_max: int = 8):
    s, t, i = Poly.var("s"), Poly.var("t"), Poly.var("i")

    yield record(Op("tilde_b_equals_b0_at_i0"), (), tilde_b(0, s, t), b0(s, t))
    yield record(Op("tilde_b_gap_at_i1"), (), tilde_b(1, s, t), b1(s, t) - 2)
    yield record(Op("b1_at_s1_is_4"), (), b1(1, t), Poly.const(4))
    yield record(Op("tilde_recurrence_symbolic"), (), verify_tilde_recurrence(i, s, t), True)
    yield record(Op("b1_recurrence_symbolic"), (), verify_b1_recurrence(s, t), True)

    for t0 in range(t_max + 1):
        for i0, s0, lhs, rhs in tilde_recurrence_grid(t0):
            yield record(TILDE_RECURRENCE, (i0, s0, t0), lhs, rhs)
        q = quad_class(t0)
        for s0, lhs, rhs in b1_recurrence_grid(t0):
            yield record(B1_RECURRENCE, (s0, t0), lhs, rhs)
            yield record(B1_PAIRING, (s0, t0), b1_pairing_via_class(q, s0), lhs)
        for (i0, s0, tv, bv, ok) in tilde_vs_known_b(t0):
            yield record(TILDE_BELOW, (i0, s0, t0), tv, f"<={_fmt(bv)}", ok)


def check_grr(t_max: int = 8):
    for t0 in range(t_max + 1):
        space = family_space(t0)
        e = c1_pushforward(space, 1, -1)
        f = c1_pushforward(space, 2, -2)
        expected_e = DivisorClass(space, lam=1, psi=-1)
        expected_f = DivisorClass(space, lam=13, psi=-5).add(total_boundary(space, -1))
        yield record(Op("grr_once_twisted", "t"), (t0,), e == expected_e, True)
        yield record(Op("grr_twice_twisted", "t"), (t0,), f == expected_f, True)
        d1 = porteous_equal_rank(e, t0 + 4, f)
        expected_d1 = DivisorClass(space, lam=8 - t0, psi=t0).add(total_boundary(space, -1))
        yield record(Op("porteous_interior", "t"), (t0,), d1 == expected_d1, True)
        q = quad_class(t0)
        # two symmetric psi parts agree when their rests do
        interior_match = (
            d1.lam == q.lam and d1.delta_irr == q.delta_irr
            and d1.psi_symmetric and q.psi_symmetric and d1.psi_rest == q.psi_rest
        )
        yield record(Op("porteous_matches_family_interior", "t"), (t0,),
                     interior_match, True)


def check_pullbacks():
    yield record(Op("forgetful_bn5_equals_quad_t0"), (), bn5_pullback() == quad_class(0), True)

    q3 = quad_class(3)
    pulled = {g: quad3_pullback(q3, g, 1, 2) for g in (16, 17)}
    for g, psi_1 in ((16, "9"), (17, "10")):
        p = pulled[g]
        yield record(CLUTCH[g], (1, 2),
                     [str(p.lam), str(p.psi_coefficient(1)),
                      str(p.psi_coefficient(2)), str(p.psi_coefficient(3)),
                      str(p.delta_irr)],
                     ["5", psi_1, "10", "3", "-1"])
    # psi gain at an attachment equals the matching family coefficient
    yield record(Op("psi_gain_elliptic_tail", "t", "h", "k"), (3, 1, 2),
                 pulled[16].psi_coefficient(1).value, b1(2, 3))
    yield record(Op("psi_gain_rational_tail", "t", "h", "k"), (3, 0, 2),
                 pulled[16].psi_coefficient(2).value, b0(2, 3))

    for g, want in ((16, ["40", "37", "-8"]), (17, ["20", "19", "-4"])):
        d = averaged_class(g)
        coefficients, symmetric = AVERAGED[g]
        yield record(coefficients, (), [str(d.lam), str(d.psi_coefficient(1)), str(d.delta_irr)], want)
        yield record(symmetric, (), d.psi_symmetric, True)


def check_pic12(t_max: int = 8):
    b10, b11 = b_from_pic12(Poly.var("t"))
    yield record(Op("pic12_symbolic_b10"), (), b10, Poly.var("t") + 4)
    yield record(Op("pic12_symbolic_b11"), (), b11, Poly.const(4))
    for t0 in range(t_max + 1):
        v10, v11 = b_from_pic12(t0)
        yield record(Op("pic12_numeric", "t"), (t0,),
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
        yield record(Op("certificate", "g", "n"), (g, n), str(got), str((a_want, comps_want)))
        res = cert.residual
        interior_zero = (res.lam.is_zero and res.delta_irr.is_zero
                         and res.psi_symmetric and res.psi_rest.is_zero)
        yield record(Op("certificate_residual_interior_zero", "g", "n"), (g, n),
                     interior_zero, True)
        yield record(Op("certificate_perturbation_sound", "g", "n"), (g, n),
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
