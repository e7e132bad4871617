from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mgn_divisors.exact import (
    Poly,
    half,
    parse_rat,
    rat,
    rat_str,
    scalar,
    solve_linear,
)

from conftest import poly_eval


def unit(n, j):
    """The j-th unit vector of length n."""
    return [int(i == j) for i in range(n)]


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


class TestRat:
    def test_coerce_int(self):
        assert rat(7) == Fraction(7)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            rat(0.5)

    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)),
        ("-3", Fraction(-3)),
        ("13/272", Fraction(13, 272)),
        ("+4/6", Fraction(2, 3)),
    ])
    def test_parse(self, text, value):
        assert parse_rat(text) == value

    @pytest.mark.parametrize("text", ["", "1.5", "1/2/3", "a/b", "1 / 2", "1/0", "-3/00"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rat(text)

    @pytest.mark.parametrize("value", [407, 1.5, None, ["1"], True])
    def test_parse_rejects_non_string(self, value):
        with pytest.raises(ValueError, match="string"):
            parse_rat(value)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rat(rat_str(q)) == q

    @given(st.integers(-10**30, 10**30))
    def test_int_prints_like_its_fraction(self, k):
        assert rat_str(k) == str(k) == rat_str(Fraction(k))

    def test_bool_and_float(self):
        # verify records print booleans as 1/0
        assert (rat_str(True), rat_str(False)) == ("1", "0")
        with pytest.raises(TypeError):
            rat_str(1.0)


class TestScalar:
    @given(st.integers(-10**30, 10**30))
    def test_int_stays_int(self, k):
        assert type(scalar(k)) is int and scalar(k) == k

    @given(rationals)
    def test_fraction_is_int_exactly_when_integral(self, q):
        v = scalar(q)
        assert v == q
        assert type(v) is (int if q.denominator == 1 else Fraction)

    def test_bool_becomes_int(self):
        assert type(scalar(True)) is int and scalar(True) == 1

    @pytest.mark.parametrize("x", [0.5, 2.0, "3", None])
    def test_rejects_non_rationals(self, x):
        with pytest.raises(TypeError):
            scalar(x)


class TestQuotientsStayExact:
    """rat() coerces to Fraction wherever a quotient is taken: int / int is a float."""

    def test_solve_linear_on_an_int_system(self):
        sol = solve_linear([[2, 1], [1, 3]], [3, 5])
        assert sol.vector == (Fraction(4, 5), Fraction(7, 5))
        assert all(type(x) is Fraction for x in sol.vector)

    def test_solve_linear_with_an_integral_solution(self):
        # the quotients are Fractions; the solution is returned in the normal form of scalar
        sol = solve_linear([[2, 0], [0, 4]], [6, 8])
        assert sol.vector == (3, 2)
        assert all(type(x) is int for x in sol.vector)

    def test_invert_matrix(self):
        # column j of the inverse is the solution on the j-th unit right side
        columns = [solve_linear([[2, 1], [1, 3]], unit(2, j)).vector for j in range(2)]
        assert columns == [(Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5))]
        assert all(type(x) is Fraction for col in columns for x in col)

    def test_poly_division_by_an_int(self):
        p = (3 * Poly.var("x") + 1) / 2
        assert p == Poly(("x",), {(1,): Fraction(3, 2), (0,): Fraction(1, 2)})
        assert all(type(c) is Fraction for c in p.terms.values())
        # an integral quotient is stored in scalar normal form, an int
        assert all(type(c) is int for c in (Poly.const(4) / 2).terms.values())

    def test_poly_eval_of_int_coefficients(self):
        assert type(poly_eval(Poly.var("x") * 3, {"x": 2})) is Fraction


class TestHalf:
    @given(st.integers(-10**30, 10**30))
    def test_int(self, k):
        h = half(k)
        assert h == Fraction(k, 2)
        assert type(h) is (int if k % 2 == 0 else Fraction)

    @given(rationals)
    def test_fraction(self, q):
        assert half(q) == q / 2 and type(half(q)) is Fraction

    def test_poly(self):
        t = Poly.var("t")
        assert half(t * t + t) == Poly(("t",), {(2,): Fraction(1, 2), (1,): Fraction(1, 2)})


class TestPoly:
    def test_canonical_drops_unused_variables(self):
        p = Poly(("x", "y"), {(1, 0): 2})
        assert p.variables == ("x",)

    def test_canonical_drops_zero_terms(self):
        assert Poly.var("x") - Poly.var("x") == 0

    def test_variables_sorted(self):
        p = Poly.var("y") + Poly.var("x")
        assert p.variables == ("x", "y")

    def test_mixed_scalar_arithmetic(self):
        t = Poly.var("t")
        assert 8 - t == -(t - 8)
        assert Fraction(1, 2) * t == t / 2
        assert (t + 1) ** 2 == t * t + 2 * t + 1

    def test_eval_requires_all_bindings(self):
        p = Poly.var("x") * Poly.var("y")
        with pytest.raises(ValueError, match="missing variable"):
            poly_eval(p, {"x": 1})

    def test_eval(self):
        p = (Poly.var("s") + 1) * (Poly.var("t") - 2)
        assert poly_eval(p, {"s": 3, "t": 5}) == 12

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Poly.var("x").terms = {}

    def test_coefficients_in_scalar_normal_form(self):
        x = Poly.var("x")
        assert [type(c) for c in (3 * x + 1).terms.values()] == [int, int]
        assert [type(c) for c in half(x).terms.values()] == [Fraction]
        whole = half(x) + half(x)
        assert whole == x and whole.terms == {(1,): 1} and type(whole.terms[(1,)]) is int
        assert hash(whole) == hash(Poly(("x",), {(1,): Fraction(1)}))
        assert repr(3 * x - half(x) + 2) == "Poly(5/2*x + 2)"

    @pytest.mark.parametrize("c,want", [(4, 4), (Fraction(6, 3), 2), (Fraction(1, 3), Fraction(1, 3)),
                                        (0, 0), (True, 1)])
    def test_constant_value_is_a_scalar(self, c, want):
        value = Poly.const(c).constant_value()
        assert value == want and type(value) is type(want)

    @pytest.mark.parametrize("c", [0.0, 1.5])
    def test_float_constant_rejected(self, c):
        with pytest.raises(TypeError):
            Poly.const(c)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_symbolic_identity_matches_pointwise(self, a, b):
        x, y = Poly.var("x"), Poly.var("y")
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p == q
        assert poly_eval(p, {"x": a, "y": b}) == a * a - b * b

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_distinct_coeffs_distinct_polys(self, cs, ds):
        x = Poly.var("x")
        p = sum((c * x ** k for k, c in enumerate(cs)), Poly.const(0))
        q = sum((d * x ** k for k, d in enumerate(ds)), Poly.const(0))
        assert (p == q) == (cs == ds or all(
            c == d for c, d in zip(cs, ds)))


# Polys built through the constructor, over variables given in any order,
# with int or Fraction coefficients
polys = st.lists(st.sampled_from("stx"), unique=True, max_size=3).flatmap(
    lambda names: st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(names)),
        st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
        max_size=4,
    ).map(lambda terms: Poly(names, terms)))


def _assert_canonical(p):
    """p is what the full constructor makes of its own variables and terms."""
    rebuilt = Poly(p.variables, p.terms)
    assert (p.variables, p.terms) == (rebuilt.variables, rebuilt.terms)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())


class TestPolyCanonicalForm:
    """Arithmetic builds results that are already canonical; the constructor agrees."""

    @given(polys, polys, st.integers(0, 3))
    def test_results_are_canonical(self, p, q, k):
        for r in (p + q, p - q, p * q, -p, p ** k, half(p), p + 1, 2 - p, 3 * p,
                  Fraction(1, 3) * p):
            _assert_canonical(r)

    def test_repeated_variable_name_rejected(self):
        with pytest.raises(ValueError, match="repeated variable"):
            Poly(("x", "x"), {(1, 0): 1, (0, 1): 1})

    def test_cancellation_drops_variables(self):
        s, t = Poly.var("s"), Poly.var("t")
        assert t - t == Poly.const(0) and (t - t).variables == ()
        assert (s * t + t - s * t).variables == ("t",)
        diff = (t + 1) * (t - 1) - t ** 2
        assert diff == Poly.const(-1) and diff.variables == ()


square_systems = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
)


class TestLinearSolve:
    def test_unique(self):
        sol = solve_linear([[2, 1], [1, -1]], [5, 1])
        assert sol.status == "unique"
        assert sol.vector == (2, 1)
        assert all(type(x) is int for x in sol.vector)

    def test_infeasible(self):
        sol = solve_linear([[1, 1], [2, 2]], [1, 3])
        assert sol.status == "infeasible"

    def test_underdetermined(self):
        sol = solve_linear([[1, 1], [2, 2]], [1, 2])
        assert sol.status == "underdetermined"

    def test_rectangular_overdetermined_consistent(self):
        sol = solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert sol.vector == (2, 3)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            solve_linear([[1, 2], [3]], [0, 0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            solve_linear([[1, 2], [3, 4]], [1])

    @pytest.mark.parametrize("matrix,rhs", [
        ([[1.0, 0], [0, 1]], [1, 2]),
        ([[1, 0], [0, 1]], [1, 0.5]),
    ])
    def test_float_rejected(self, matrix, rhs):
        with pytest.raises(TypeError):
            solve_linear(matrix, rhs)

    @given(square_systems)
    def test_solution_satisfies_system(self, mx):
        matrix, x = mx
        rhs = [sum(row[j] * x[j] for j in range(len(x))) for row in matrix]
        sol = solve_linear(matrix, rhs)
        if sol.status == "unique":
            assert list(sol.vector) == x
        else:
            # singular matrix: the constructed rhs is consistent by design
            assert sol.status == "underdetermined"

    def test_invert(self):
        columns = [solve_linear([[2, 1], [1, 1]], unit(2, j)).vector for j in range(2)]
        assert columns == [(1, -1), (-1, 2)]
        # numbers come back in the normal form of scalar: ints here, a Fraction below
        assert all(type(x) is int for col in columns for x in col)
        assert solve_linear([[2]], [1]).vector == (Fraction(1, 2),)

    def test_invert_singular(self):
        # a singular matrix has no inverse column: no unit right side solves uniquely
        m = [[1, 2], [2, 4]]
        assert [solve_linear(m, unit(2, j)).status for j in range(2)] == ["infeasible"] * 2


def affine_systems():
    """An invertible integer matrix up to 3x3 and, per row, the integer pair
    (a, b) of the right side a + b t."""
    ints = st.integers(-5, 5)
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.tuples(ints, ints), min_size=n, max_size=n),
    )).filter(lambda mx: solve_linear(mx[0], [0] * len(mx[0])).status == "unique")


class TestPolyRightSide:
    """A Poly right side takes the elimination steps of a numeric one."""

    @given(affine_systems())
    def test_symbolic_solution_evaluates_to_the_numeric_one(self, mx):
        matrix, pairs = mx
        t = Poly.var("t")
        symbolic = solve_linear(matrix, [a + b * t for a, b in pairs])
        assert symbolic.status == "unique"
        assert all(isinstance(x, Poly) for x in symbolic.vector)
        for t0 in range(6):
            numeric = solve_linear(matrix, [a + b * t0 for a, b in pairs])
            assert tuple(poly_eval(x, {"t": t0}) for x in symbolic.vector) == numeric.vector

    @pytest.mark.parametrize("rhs,status", [
        (lambda t: [t, 2 * t + 1], "infeasible"),  # the residual is the constant 1
        (lambda t: [t, 3 * t], "infeasible"),  # the residual is t, zero only at t = 0
        (lambda t: [t, 2 * t], "underdetermined"),  # the residual is the zero polynomial
    ])
    def test_status_reads_the_residual_polynomial(self, rhs, status):
        assert solve_linear([[1, 1], [2, 2]], rhs(Poly.var("t"))).status == status
