"""The one-parameter family of quadric-failure divisor classes.

For t >= 0 the pair (g, n) = ((t^2+5t+10)/2, (t^2+3t+2)/2) makes the two
sides of the multiplication map Sym^2 H^0(K - sum p_j) -> H^0(2K - 2 sum p_j)
have equal dimension, and the failure locus is a divisor whose class is

    (8-t)*lambda + t*sum psi_j - delta_irr - sum b_{i:s}(t) * delta_{i:S},

with closed-form b for i in {0, 1} and only the bound b >= 1 for 2 <= i <= g/2.
This module holds the closed forms, the test-curve intersection numbers behind
them, both recurrences, and their verifiers.  Every formula is one expression
that takes exact numbers (int or Fraction) or Poly values alike, so every
identity is checked symbolically and on grids by the same code.  Halving is
exact.half: integer input stays integer wherever the value is integral (b0,
b1, tilde_b, d1_theta, g, n and the test-curve right sides all are), so the
grid sweeps run on Python ints from end to end, while a Fraction or a Poly
goes through the same operators.  The only split is the domain guards, which
skip a Poly because it has no order.
"""

from __future__ import annotations

from typing import Mapping

from .exact import Poly, Scalar, half, solve_linear
from .picard import (
    Coefficient,
    DivisorClass,
    Row,
    Space,
    TestCurve,
    intersect_test_curve,
)


def _ordered(*xs) -> bool:
    """True when every argument is a number: domain guards skip a Poly, which has no order."""
    return Poly not in map(type, xs)


def gn_pair(t):
    """(g, n) for family parameter t; both entries are ints for t in N."""
    if _ordered(t) and t < 0:
        raise ValueError("family parameter must be >= 0")
    return half(t * t + 5 * t + 10), half(t * t + 3 * t + 2)


def family_space(t: int) -> Space:
    g, n = gn_pair(t)
    return Space(g, n)


def verify_balance(t) -> bool:
    """dim Sym^2 of a rank-(t+4) space vs h^0 of the quadratic side."""
    g, n = gn_pair(t)
    return half((t + 4) * (t + 5)) == 3 * g - 3 - 2 * n


def balanced_pairs(g_max: int):
    """Independent re-derivation of the family table.

    Enumerates all (g, n) with g <= g_max where the two dimensions agree and
    the target projective space has dimension >= 3 (g - n >= 4), and tags each
    with its parameter t = g - n - 4.
    """
    if g_max < 5:
        return []
    out = []
    for g in range(2, g_max + 1):
        for n in range(0, 3 * g):
            d = g - n
            if d < 4:
                continue
            if d * (d + 1) == 2 * (3 * g - 3 - 2 * n):
                out.append((g, n, d - 4))
    return sorted(out)


# ---------------------------------------------------------------------------
# closed-form coefficients


def b0(s, t):
    """b_{0:s}(t) = s(st+s+t-1)/2, defined for s >= 2."""
    if _ordered(s) and s < 2:
        raise ValueError(f"b0 is defined for s >= 2, got s={s}")
    return half(s * (s * t + s + t - 1))


def b1(s, t):
    """b_{1:0}(t) = t+4; b_{1:s}(t) = (s^2 t + s^2 - s t + s + 6)/2 for s >= 1."""
    if _ordered(s) and s < 0:
        raise ValueError(f"b1 is defined for s >= 0, got s={s}")
    if s == 0:
        return t + 4
    return half(s * s * t + s * s - s * t + s + 6)


def _horner(coefficients, x):
    """The polynomial with these coefficients, highest first, at x."""
    total = 0
    for c in coefficients:
        total = total * x + c
    return total


def _tilde_row(s, t):
    """Row s of 2 tilde_b(i, s, t): its coefficients in i, highest first."""
    return t - 3, -(2 * s * (t - 1) + t - 5), s * (s * t + s + t - 1)


def tilde_b(i, s, t):
    """(i^2(t-3) - i(2s(t-1)+t-5) + s(st+s+t-1)) / 2, per row s a quadratic in i."""
    return half(_horner(_tilde_row(s, t), i))


def known_b(i, s, t):
    """The exactly-known coefficient b_{i:s}(t), or None where only a bound holds."""
    if i == 0 and s >= 2:
        return b0(s, t)
    if i == 1:
        return b1(s, t)
    return None


# ---------------------------------------------------------------------------
# the divisor class itself


def quad_class(t: int) -> DivisorClass:
    """The family class on (g(t), n(t)) as a DivisorClass.

    Rows 0 and 1 carry the exact closed forms, each stored as one formula in
    s: -b0(s, t) = -((t+1) s^2 + (t-1) s) / 2 and -b1(s, t) =
    -((t+1) s^2 - (t-1) s + 6) / 2, with the one exception b_{1:0} = t+4 as
    an orbit entry.  Mirrored representatives resolve through
    canonicalization.  Rows with 2 <= i <= g/2 are only bounded: the
    subtracted multiplicity is >= 1, stored as the boundary rest AtMost(-1).
    The t=0 class is the pullback of the classical genus-5 Brill-Noether
    divisor and is fully known, so its i=2 entries are Exact(-6).  That rest
    is typed here on purpose, not read from bn_class(5): it is the independent
    value that check_pullbacks compares with the forgetful pullback of
    bn_class(5).  Whatever t is, the class stores at most three boundary
    entries.
    """
    space = family_space(t)
    rows = {0: Row.formula("exact", (0, 1 - t, -t - 1), 2),
            1: Row.formula("exact", (-6, t - 1, -t - 1), 2)}
    # classical BN^1_{5,3} value at t = 0
    rest = Coefficient.exact(-6) if t == 0 else Coefficient.at_most(-1)
    return object.__new__(DivisorClass)._store(
        space, lam=Coefficient.exact(8 - t), delta_irr=Coefficient.exact(-1),
        psi_rest=Coefficient.exact(t), rest=rest, rows=rows,
        orbits={(1, 0): Coefficient.exact(-(t + 4))})


# ---------------------------------------------------------------------------
# test-curve intersection numbers and the two recurrences


def c1_pushforward_L2(i, s, g, n):
    """T_{i:S} . c1 of the pushforward of the squared twisted sheaf, for i < s."""
    _check_lemma_range(i, s, g)
    return _horner(_c1_L2_row(s, g, n), i)


def _c1_L2_row(s, g, n):
    """8i^3 - 2(i^2(4g+6s+1) + i(-g(6s+5)+3n-2s^2+5)) - 2s(g(2s+3)-2n-3),
    unguarded, as a cubic in i on row s."""
    return (8, -2 * (4 * g + 6 * s + 1), 2 * (g * (6 * s + 5) - 3 * n + 2 * s * s - 5),
            -2 * s * (g * (2 * s + 3) - 2 * n - 3))


def _lemma_row(s, g, n):
    """T_{i:S} . c1(E) = -(i-s)((i-s-1)(g-i-1) + n-s) = (i-s)(i^2 - (g+s)i - c),
    c = n-s-(s+1)(g-1), as a cubic in i on row s."""
    c = n - s - (s + 1) * (g - 1)
    return 1, -(g + 2 * s), s * (g + s) - c, s * c


def _check_lemma_range(i, s, g):
    if not _ordered(i, s, g):
        return
    if not 0 <= i <= g:
        raise ValueError(f"genus index {i} outside 0..{g}")
    if i >= s:
        raise ValueError(f"intersection formulas require i < s, got i={i}, s={s}")


def d1_phi_prime(i, s, t):
    """Pairing of T_{i:S} with the degeneracy class of the modified map.

    Equal-rank Porteous on Sym^2 E -> F with rk E = t+4 gives
    c1(F) - (t+5) c1(E), evaluated against the test curve via the two closed
    forms above.
    """
    g, n = gn_pair(t)
    return c1_pushforward_L2(i, s, g, n) - (t + 5) * _horner(_lemma_row(s, g, n), i)


def _test_curve_rhs(i, s, t, g, n, b_s, b_s1):
    """Right side of the test-curve recurrence on T_{i:S}, given the multiplicities
    b_s of delta_{i:s} and b_s1 of delta_{i:s+1}:

    (2g-2i-2+n-s) b_s - (n-s) b_s1 + (n-s) t.
    """
    return (2 * g - 2 * i - 2 + n - s) * b_s - (n - s) * b_s1 + (n - s) * t


def tilde_recurrence_rhs(i, s, t):
    """(2g-2i-2+n-s) tilde_b(i,s) - (n-s) tilde_b(i,s+1) + (n-s) t."""
    g, n = gn_pair(t)
    return _test_curve_rhs(i, s, t, g, n, tilde_b(i, s, t), tilde_b(i, s + 1, t))


def verify_tilde_recurrence(i, s, t) -> bool:
    """Test-curve relation pinning tilde_b: T.[D1] = tilde_recurrence_rhs(i, s, t)."""
    return d1_phi_prime(i, s, t) == tilde_recurrence_rhs(i, s, t)


def tilde_recurrence_grid(t: int):
    """Both sides of the tilde_b recurrence on every test curve of the family
    space: yields, per row 1 <= s <= n, s and the columns d1_phi_prime(i, s, t)
    and tilde_recurrence_rhs(i, s, t) over 0 <= i < s.

    (g, n) is read once, and the lemma range is checked once, on the widest
    cell (n-1, n): every other cell has a smaller i and s.  Row s computes its
    i-free parts once: d1_phi_prime's cubic in i, _tilde_row(s+1, t), and
    2g-2+n-s and n-s of _test_curve_rhs, so a cell is a few int operations.
    Row s+1 reuses the tilde_b(i, s+1, t) that row s computed.
    """
    g, n = gn_pair(t)
    _check_lemma_range(n - 1, n, g)
    b_next = [tilde_b(0, 1, t)]
    for s in range(1, n + 1):
        a2, a1, a0 = _tilde_row(s + 1, t)
        b_s, b_next = b_next, [half((a2 * i + a1) * i + a0) for i in range(s + 1)]
        phi = zip(_c1_L2_row(s, g, n), _lemma_row(s, g, n))
        k3, k2, k1, k0 = (c - (t + 5) * e for c, e in phi)
        m = n - s
        w, mt = 2 * g - 2 + m, m * t
        yield (s, [((k3 * i + k2) * i + k1) * i + k0 for i in range(s)],
               [(w - 2 * i) * b - m * b1 + mt for i, b, b1 in zip(range(s), b_s, b_next)])


def d1_theta(s, t):
    """Degeneracy-class cubic from the fibered-square computation:

    (s^2(t^3+6t^2+13t+8) - 2s(t^3+4t^2+4t-3) + t^3+8t^2+29t+34) / 2.
    """
    return half(
        s * s * (t ** 3 + 6 * t * t + 13 * t + 8)
        - 2 * s * (t ** 3 + 4 * t * t + 4 * t - 3)
        + (t ** 3 + 8 * t * t + 29 * t + 34)
    )


def b1_recurrence_rhs(s, t):
    """t(n-s) + (2g-4+n-s) b_{1:s} - (n-s) b_{1:s+1}."""
    g, n = gn_pair(t)
    return _test_curve_rhs(1, s, t, g, n, b1(s, t), b1(s + 1, t))


def b1_recurrence_grid(t: int):
    """Both sides of the b_{1:s} recurrence: the columns (s, d1_theta(s, t),
    b1_recurrence_rhs(s, t)) over 1 <= s <= n, reading (g, n) once."""
    g, n = gn_pair(t)
    S = range(1, n + 1)
    b = [b1(s, t) for s in range(1, n + 2)]
    return (S, [d1_theta(s, t) for s in S],
            [_test_curve_rhs(1, s, t, g, n, b[s - 1], b[s]) for s in S])


def verify_b1_recurrence(s, t) -> bool:
    """The closed-form cubic matches the b_{1:s} recurrence (s >= 1).

    s = 0 is excluded: the boundary analysis behind the cubic needs a
    non-empty S, and b_{1:0} enters only through the Pic reduction below.
    """
    if _ordered(s) and s < 1:
        raise ValueError("recurrence check requires s >= 1")
    return d1_theta(s, t) == b1_recurrence_rhs(s, t)


def b1_pairing_via_class(q: DivisorClass, s: int) -> Scalar:
    """Same left side, third way: pair the family class q = quad_class(t)
    with T_{1:{1..s}}, given as a range so that TestCurve checks it in O(1)."""
    return intersect_test_curve(q, TestCurve(q.space, 1, range(1, s + 1)))


# ---------------------------------------------------------------------------
# the Pic(genus-1, 2-pointed) reduction


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


def b_from_pic12(t):
    """Solve for (b_{1:0}, b_{1:1}) from the vanishing elliptic-tail pullback.

    The pullback relation (8-t) lambda - delta_irr + t psi_p + b11 psi_q'
    - b10 delta_0 = 0 reduces, via 12 lambda = delta_irr and
    psi = lambda + delta_0, to a 2x2 system with constant matrix; the unique
    solution is (t+4, 4).  The matrix does not depend on t, so one exact
    solve serves a number t and a Poly t alike.
    """
    const_lam, const_del = pic12_reduce({"lambda": 8 - t, "psi_p": t, "delta_irr": -1})
    col_b10 = pic12_reduce({"delta_0": -1})
    col_b11 = pic12_reduce({"psi_q": 1})
    matrix = [
        [col_b10[0], col_b11[0]],
        [col_b10[1], col_b11[1]],
    ]
    return solve_linear(matrix, [-const_lam, -const_del]).vector


# ---------------------------------------------------------------------------
# tilde_b vs known b comparison (the excess must be non-negative)


def tilde_vs_known_b(t: int):
    """Compare tilde_b with the exactly-known b, row i by row.

    Yields (i, S, tilde, b), columns over the s where b_{i:s} is known; tilde_b
    is only a lower-bound carrier, so tilde > b would flag an inconsistency.
    """
    _, n = gn_pair(t)
    for i in (0, 1):
        known = [(s, b) for s in range(n + 1) if (b := known_b(i, s, t)) is not None]
        if known:
            S, b = zip(*known)
            yield i, S, [tilde_b(i, s, t) for s in S], b
