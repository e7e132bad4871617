"""The family formulas checked against sympy, an algebra system independent of `exact.Poly`.

Each formula is typed here from its closed form, not from the library code.
sympy is a test-only dependency, so the module is skipped where it is missing.
"""

import pytest

from mgn_divisors.exact import Poly
from mgn_divisors.family import (
    b0,
    b1,
    b1_recurrence_rhs,
    b_from_pic12,
    d1_phi_prime,
    d1_theta,
    gn_pair,
    tilde_b,
    tilde_recurrence_rhs,
)

sp = pytest.importorskip("sympy")

i, s, t = sp.symbols("i s t")

g = (t**2 + 5 * t + 10) / 2
n = (t**2 + 3 * t + 2) / 2


def b0_(s):
    return s * (s * t + s + t - 1) / 2


def b1_(s):
    return (s**2 * t + s**2 - s * t + s + 6) / 2


def tilde_(i, s):
    return (i**2 * (t - 3) - i * (2 * s * (t - 1) + t - 5) + s * (s * t + s + t - 1)) / 2


theta = (s**2 * (t**3 + 6 * t**2 + 13 * t + 8)
         - 2 * s * (t**3 + 4 * t**2 + 4 * t - 3)
         + t**3 + 8 * t**2 + 29 * t + 34) / 2

# T_{i:S} . c1 of the pushforwards of the once- and twice-twisted sheaves (i < s),
# and equal-rank Porteous on Sym^2 E -> F with rk E = t + 4
c1_E = -(i - s) * ((i - s - 1) * (g - i - 1) + n - s)
c1_F = (-2 * (i**2 * (4 * g + 6 * s + 1) + i * (-g * (6 * s + 5) + 3 * n - 2 * s**2 + 5))
        - 2 * s * (g * (2 * s + 3) - 2 * n - 3) + 8 * i**3)
phi_prime = c1_F - (t + 5) * c1_E


def rhs_(i, b_s, b_s1):
    """Test-curve pairing: (2g-2i-2+n-s) b_s - (n-s) b_{s+1} + (n-s) t."""
    return (2 * g - 2 * i - 2 + n - s) * b_s - (n - s) * b_s1 + (n - s) * t


tilde_rhs = rhs_(i, tilde_(i, s), tilde_(i, s + 1))
b1_rhs = rhs_(1, b1_(s), b1_(s + 1))


def to_sympy(p: Poly):
    """A Poly written term by term as a sympy expression."""
    return sp.Add(*(
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*(sp.Symbol(name) ** e for name, e in zip(p.variables, expo)))
        for expo, c in p.terms.items()
    ))


def same(p: Poly, expr) -> bool:
    return sp.expand(to_sympy(p) - expr) == 0


I, S, T = Poly.var("i"), Poly.var("s"), Poly.var("t")


def test_tilde_recurrence_expands_to_zero():
    assert sp.expand(phi_prime - tilde_rhs) == 0


def test_b1_recurrence_expands_to_zero():
    assert sp.expand(theta - b1_rhs) == 0


def test_family_pair():
    gs, ns = gn_pair(T)
    assert same(gs, g) and same(ns, n)


def test_closed_forms():
    assert same(b0(S, T), b0_(s))
    assert same(b1(S, T), b1_(s))
    assert same(b1(0, T), t + 4)
    assert same(tilde_b(I, S, T), tilde_(i, s))
    assert same(d1_theta(S, T), theta)


def test_test_curve_pairings():
    assert same(d1_phi_prime(I, S, T), phi_prime)
    assert same(tilde_recurrence_rhs(I, S, T), tilde_rhs)
    assert same(b1_recurrence_rhs(S, T), b1_rhs)


def test_pic12_solution():
    # pull back (8-t) lambda - delta_irr + t psi_p + b11 psi_q - b10 delta_0 and
    # substitute delta_irr = 12 lambda, psi = lambda + delta_0
    b10, b11, lam, delta0 = sp.symbols("b10 b11 lambda delta_0")
    pulled = sp.expand((8 - t) * lam - 12 * lam + (t + b11) * (lam + delta0) - b10 * delta0)
    solution = sp.solve([pulled.coeff(lam), pulled.coeff(delta0)], [b10, b11], dict=True)
    assert len(solution) == 1
    got10, got11 = b_from_pic12(T)
    assert same(got10, solution[0][b10]) and same(got11, solution[0][b11])
