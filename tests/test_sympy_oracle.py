"""The family formulas, `Poly` arithmetic and `solve_linear` checked against
sympy, an algebra system independent of `exact`.

Each formula is typed here from its closed form, not from the library code.
sympy is a test-only dependency, so the module is skipped where it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mgn_divisors.exact import Poly, solve_linear
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


# ---------------------------------------------------------------------------
# Poly arithmetic against sympy.expand

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw):
    names = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    exponents = st.tuples(*(st.integers(0, 3) for _ in names))
    return Poly(names, draw(st.dictionaries(exponents, small_rationals, max_size=4)))


def rational(x: Fraction):
    return sp.Rational(x.numerator, x.denominator)


def sympy_of(p: Poly):
    return sp.expand(to_sympy(p))


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_poly_sum_and_difference(p, q):
    assert same(p + q, sympy_of(p) + sympy_of(q))
    assert same(p - q, sympy_of(p) - sympy_of(q))


@given(polys(), polys(), small_rationals)
@settings(max_examples=60, deadline=None)
def test_poly_product(p, q, c):
    assert same(p * q, sp.expand(sympy_of(p) * sympy_of(q)))
    assert same(c * p, sp.expand(rational(c) * sympy_of(p)))


@given(polys(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_poly_power(p, k):
    assert same(p ** k, sp.expand(sympy_of(p) ** k))


# ---------------------------------------------------------------------------
# solve_linear against Matrix.rref


def rref_outcome(matrix, rhs):
    """(status, vector) of matrix * x = rhs read off sympy's reduced row
    echelon form of the augmented matrix."""
    cols = len(matrix[0])
    augmented = sp.Matrix([[rational(x) for x in row] + [rational(b)]
                           for row, b in zip(matrix, rhs)])
    reduced, pivots = augmented.rref()
    if cols in pivots:
        return "infeasible", None
    if len(pivots) < cols:
        return "underdetermined", None
    return "unique", tuple(Fraction(int(v.p), int(v.q)) for v in reduced[:cols, cols])


def library_outcome(matrix, rhs):
    sol = solve_linear(matrix, rhs)
    return sol.status, sol.vector


@pytest.mark.parametrize("matrix,rhs,status", [
    ([[1, 2], [3, 4]], [5, 6], "unique"),
    ([[0, 2, 1], [1, 0, 0], [Fraction(1, 3), 1, -1]], [1, 2, 3], "unique"),
    ([[1, 1], [1, 1], [2, -1]], [2, 2, 1], "unique"),  # more rows than unknowns
    ([[1, 2], [2, 4]], [3, 6], "underdetermined"),
    ([[1, 2, 3]], [1], "underdetermined"),
    ([[0, 0], [0, 0]], [0, 0], "underdetermined"),
    ([[1, 2], [2, 4]], [3, 7], "infeasible"),
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], "infeasible"),
    ([[0, 0]], [1], "infeasible"),
])
def test_solve_linear_cases(matrix, rhs, status):
    matrix = [[Fraction(x) for x in row] for row in matrix]
    rhs = [Fraction(b) for b in rhs]
    assert rref_outcome(matrix, rhs)[0] == status
    assert library_outcome(matrix, rhs) == rref_outcome(matrix, rhs)


@st.composite
def systems(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(st.just(Fraction(0)), small_rationals)  # zeros make rank drop often
    matrix = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    rhs = draw(st.lists(entries, min_size=rows, max_size=rows))
    return matrix, rhs


@given(systems())
@settings(max_examples=150, deadline=None)
def test_solve_linear_agrees_with_rref(system):
    matrix, rhs = system
    assert library_outcome(matrix, rhs) == rref_outcome(matrix, rhs)
