"""Verification sweeps: every identity the library asserts, run on grids and
symbolically, reported as structured pass/fail records.

A sweep yields runs, the records of one grid row: the tuple (ops, shared,
column, lhs, rhs, ok) of `run`.  Its ops share their keys and take turns
record by record; `shared` holds every input but the one `column` lists.
Both sides are ints or canonical strings, so reports are byte-stable.  A
scalar check is a run of one (`single`).  `json_run` writes a run as
picard.CANONICAL_JSON would and `text_run` as text lines, each record with
one %.  Every check_* is a generator: a sweep holds no records.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii
from operator import eq, le

from .certificates import averaged_class, bn5_pullback, certify, perturbation_sound, quad3_pullback
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


def _fmt(x) -> str:
    if isinstance(x, (int, Fraction)):  # a bool too, which rat_str prints as 1 or 0
        return rat_str(x)
    if isinstance(x, Poly):
        return repr(x)
    return str(x)


def _twice(x: str) -> str:  # text that two rounds of %-formatting leave as it is
    return x.replace("%", "%%%%")


class Op:
    """A check's name, its input names, and `vary`, the position of the one a
    run lists.  `json` and `text` are %-formats of two rounds: per run the
    other inputs (`order` sorts them for JSON), per record (varying input,
    lhs, pass, rhs) or (PASS or FAIL, varying input); %.0s takes the varying
    slot of an op with no inputs."""

    __slots__ = ("name", "keys", "vary", "order", "json", "text")

    def __init__(self, name: str, *keys: str, vary: int = 0):
        self.name, self.keys, self.vary = name, keys, vary
        slot = ["%%s" if k == vary else "%s" for k in range(len(keys))]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.order = [k - (k > vary) for k in order if k != vary]
        inputs = ",".join(_twice(encode_basestring_ascii(keys[k])) + ":" + slot[k] for k in order)
        self.json = ('{"inputs":{' + (inputs or "%%.0s") + '},"lhs":"%%s","op":'
                     + _twice(encode_basestring_ascii(name)) + ',"pass":%%s,"rhs":"%%s"}')
        self.text = "%%s " + _twice(name) + " " + (
            " ".join(_twice(k) + "=" + slot[j] for j, k in enumerate(keys)) or "%%.0s")


_INT, _BOOL = {int}, {bool}


def run(ops: tuple, shared: tuple, column, lhs, rhs, ok=None) -> tuple:
    """A run of `ops`; ok is lhs == rhs per record unless the caller decides it."""
    ok = list(map(eq, lhs, rhs) if ok is None else ok)
    if not _BOOL.issuperset(map(type, ok)):
        raise TypeError(f"a check passes or fails, got {ok!r}")
    if not 0 < len(ok) == len(column) == len(lhs) == len(rhs):
        raise ValueError("a run holds one or more records, as many in each column")
    return ops, shared, column, lhs, rhs, ok


def single(op: Op, values: tuple, lhs, rhs, ok=None) -> tuple:
    """A run of one record; `values` in op.keys order."""
    v = op.vary
    return run((op,), values[:v] + values[v + 1:], values[v:v + 1] or (None,),
               [_fmt(lhs)], [_fmt(rhs)], [lhs == rhs if ok is None else ok])


def _render(ops, shared, json, cells):
    """Each cell through its record's format, the formats taking turns."""
    if not _INT.issuperset(map(type, shared)):  # an int is its own text and JSON
        encode = CANONICAL_JSON.encode if json else str
        shared = [encode(v).replace("%", "%%") for v in shared]
    if json:
        shared = [shared[k] for k in ops[0].order]
    formats = [(op.json if json else op.text) % tuple(shared) for op in ops]
    return map(str.__mod__, cycle(formats), cells)


def _json_column(column, encode):  # an int is its own JSON text
    return column if _INT.issuperset(map(type, column)) else list(map(encode, column))


def _json_string(x) -> str:  # the contents of a JSON string
    return encode_basestring_ascii(str(x))[1:-1]


def json_run(r) -> str:
    """A run's records joined by ",", each the text CANONICAL_JSON.encode gives
    for its {"op", "inputs", "lhs", "rhs", "pass"} dict, byte for byte."""
    ops, shared, column, lhs, rhs, ok = r
    cells = zip(_json_column(column, CANONICAL_JSON.encode), _json_column(lhs, _json_string),
                map(("false", "true").__getitem__, ok), _json_column(rhs, _json_string))
    return ",".join(_render(ops, shared, True, cells))


def text_run(r) -> str:
    """A run's records as lines: PASS or FAIL, the op, its inputs, and for a failure both sides."""
    ops, shared, column, lhs, rhs, ok = r
    cells = zip(map(("FAIL", "PASS").__getitem__, ok), column)
    lines = map(str.rstrip, _render(ops, shared, False, cells))
    return "\n".join(line if p else f"{line}  lhs={a} rhs={b}"
                     for line, p, a, b in zip(lines, ok, lhs, rhs))


# the ops of the grid runs and of the per-g records, compiled once
TILDE_RECURRENCE = (Op("tilde_recurrence", "i", "s", "t"),)
B1_RECURRENCE = (Op("b1_recurrence", "s", "t"), Op("b1_recurrence_pairing", "s", "t"))
TILDE_BELOW = (Op("tilde_b_below_known_b", "i", "s", "t", vary=1),)
CLUTCH = {g: Op(f"clutch_{g}_8_interior", "i", "j") for g in (16, 17)}
AVERAGED = {g: (Op(f"averaged_{g}_8"), Op(f"averaged_{g}_8_symmetric")) for g in (16, 17)}


def check_table(t_max: int = 6):
    expected = [(gn_pair(t), t) for t in range(t_max + 1)]
    g_max = expected[-1][0][0]
    derived = balanced_pairs(g_max)
    yield single(Op("balanced_pairs", "g_max"), (g_max,),
                 str(derived), str([(g, n, t) for (g, n), t in expected]))


def check_balance(t_max: int = 100):
    t = Poly.var("t")
    yield single(Op("balance_symbolic"), (), verify_balance(t), True)
    fails = [t0 for t0 in range(t_max + 1) if not verify_balance(t0)]
    yield single(Op("balance_grid", "t_max", "failures"), (t_max, fails), not fails, True)


def _alternate(*columns) -> list:
    return [x for cell in zip(*columns) for x in cell]


def check_recurrences(t_max: int = 8):
    s, t, i = Poly.var("s"), Poly.var("t"), Poly.var("i")

    yield single(Op("tilde_b_equals_b0_at_i0"), (), tilde_b(0, s, t), b0(s, t))
    yield single(Op("tilde_b_gap_at_i1"), (), tilde_b(1, s, t), b1(s, t) - 2)
    yield single(Op("b1_at_s1_is_4"), (), b1(1, t), Poly.const(4))
    yield single(Op("tilde_recurrence_symbolic"), (), verify_tilde_recurrence(i, s, t), True)
    yield single(Op("b1_recurrence_symbolic"), (), verify_b1_recurrence(s, t), True)

    for t0 in range(t_max + 1):
        for s0, lhs, rhs in tilde_recurrence_grid(t0):
            yield run(TILDE_RECURRENCE, (s0, t0), range(s0), lhs, rhs)
        q = quad_class(t0)
        S, theta, rhs = b1_recurrence_grid(t0)
        pairing = [b1_pairing_via_class(q, s0) for s0 in S]
        # b1_recurrence and b1_recurrence_pairing alternate, cell by cell
        yield run(B1_RECURRENCE, (t0,), _alternate(S, S), _alternate(theta, pairing),
                  _alternate(rhs, theta))
        for i0, S, tilde, b in tilde_vs_known_b(t0):
            yield run(TILDE_BELOW, (i0, t0), S, tilde, [f"<={_fmt(x)}" for x in b],
                      map(le, tilde, b))


def check_grr(t_max: int = 8):
    once, twice, porteous, matches = (Op(name, "t") for name in (
        "grr_once_twisted", "grr_twice_twisted", "porteous_interior", "porteous_matches_family_interior"))
    for t0 in range(t_max + 1):
        space = family_space(t0)
        e = c1_pushforward(space, 1, -1)
        f = c1_pushforward(space, 2, -2)
        boundary = total_boundary(space, -1)
        expected_e = DivisorClass(space, lam=1, psi=-1)
        expected_f = DivisorClass(space, lam=13, psi=-5).add(boundary)
        yield single(once, (t0,), e == expected_e, True)
        yield single(twice, (t0,), f == expected_f, True)
        d1 = porteous_equal_rank(e, t0 + 4, f)
        expected_d1 = DivisorClass(space, lam=8 - t0, psi=t0).add(boundary)
        yield single(porteous, (t0,), d1 == expected_d1, True)
        q = quad_class(t0)
        # two symmetric psi parts agree when their rests do
        interior_match = (
            d1.lam == q.lam and d1.delta_irr == q.delta_irr
            and d1.psi_symmetric and q.psi_symmetric and d1.psi_rest == q.psi_rest
        )
        yield single(matches, (t0,), interior_match, True)


def check_pullbacks():
    yield single(Op("forgetful_bn5_equals_quad_t0"), (), bn5_pullback() == quad_class(0), True)

    q3 = quad_class(3)
    pulled = {g: quad3_pullback(q3, g, 1, 2) for g in (16, 17)}
    for g, psi_1 in ((16, "9"), (17, "10")):
        p = pulled[g]
        yield single(CLUTCH[g], (1, 2),
                     [str(p.lam), str(p.psi_coefficient(1)),
                      str(p.psi_coefficient(2)), str(p.psi_coefficient(3)),
                      str(p.delta_irr)],
                     ["5", psi_1, "10", "3", "-1"])
    # psi gain at an attachment equals the matching family coefficient
    yield single(Op("psi_gain_elliptic_tail", "t", "h", "k"), (3, 1, 2),
                 pulled[16].psi_coefficient(1).value, b1(2, 3))
    yield single(Op("psi_gain_rational_tail", "t", "h", "k"), (3, 0, 2),
                 pulled[16].psi_coefficient(2).value, b0(2, 3))

    for g, want in ((16, ["40", "37", "-8"]), (17, ["20", "19", "-4"])):
        d = averaged_class(g)
        coefficients, symmetric = AVERAGED[g]
        yield single(coefficients, (), [str(d.lam), str(d.psi_coefficient(1)), str(d.delta_irr)], want)
        yield single(symmetric, (), d.psi_symmetric, True)


def check_pic12(t_max: int = 8):
    b10, b11 = b_from_pic12(Poly.var("t"))
    yield single(Op("pic12_symbolic_b10"), (), b10, Poly.var("t") + 4)
    yield single(Op("pic12_symbolic_b11"), (), b11, Poly.const(4))
    numeric = Op("pic12_numeric", "t")
    for t0 in range(t_max + 1):
        v10, v11 = b_from_pic12(t0)
        yield single(numeric, (t0,),
                     [rat_str(v10), rat_str(v11)],
                     [rat_str(t0 + 4), "4"])


def check_certificates():
    expected = {
        (16, 8): ("13/272", [("D_16_8", "7/272"), ("Z16", "1/34")]),
        (17, 8): ("1/20", [("D_17_8", "1/20"), ("BN17", "3/5")]),
        (12, 10): ("59/4415", [("D12", "13/13245"), ("F12_10", "484/4415")]),
    }
    solved, sound = Op("certificate", "g", "n"), Op("certificate_perturbation_sound", "g", "n")
    for (g, n), (a_want, comps_want) in expected.items():
        # K is built once, by certify; the probe reuses the certificate's K and inputs
        cert = certify(g, n)
        got = (rat_str(cert.a), [(nm, rat_str(c)) for nm, c in cert.components])
        yield single(solved, (g, n), str(got), str((a_want, comps_want)))
        yield single(sound, (g, n), perturbation_sound(cert), True)


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
