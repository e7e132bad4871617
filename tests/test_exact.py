from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mgn_divisors.exact import (
    LinearSystem,
    Poly,
    invert_matrix,
    parse_rat,
    rat,
    rat_str,
    solve_linear,
)


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

    @pytest.mark.parametrize("text", ["", "1.5", "1/2/3", "a/b", "1 / 2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rat(text)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rat(rat_str(q)) == q


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
            p.eval({"x": 1})

    def test_eval(self):
        p = (Poly.var("s") + 1) * (Poly.var("t") - 2)
        assert p.eval({"s": 3, "t": 5}) == 12

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Poly.var("x").terms = {}

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_symbolic_identity_matches_pointwise(self, a, b):
        x, y = Poly.var("x"), Poly.var("y")
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p == q
        assert p.eval({"x": a, "y": b}) == a * a - b * b

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_distinct_coeffs_distinct_polys(self, cs, ds):
        x = Poly.var("x")
        p = sum((c * x ** k for k, c in enumerate(cs)), Poly.const(0))
        q = sum((d * x ** k for k, d in enumerate(ds)), Poly.const(0))
        assert (p == q) == (cs == ds or all(
            c == d for c, d in zip(cs, ds)))


square_systems = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
)


class TestLinearSolve:
    def test_unique(self):
        sol = solve_linear(LinearSystem([[2, 1], [1, -1]], [5, 1]))
        assert sol.is_unique
        assert sol.vector == (2, 1)

    def test_infeasible(self):
        sol = solve_linear(LinearSystem([[1, 1], [2, 2]], [1, 3]))
        assert sol.status == "infeasible"

    def test_underdetermined(self):
        sol = solve_linear(LinearSystem([[1, 1], [2, 2]], [1, 2]))
        assert sol.status == "underdetermined"

    def test_rectangular_overdetermined_consistent(self):
        sol = solve_linear(LinearSystem([[1, 0], [0, 1], [1, 1]], [2, 3, 5]))
        assert sol.vector == (2, 3)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem([[1, 2], [3]], [0, 0])

    @given(square_systems)
    def test_solution_satisfies_system(self, mx):
        matrix, x = mx
        rhs = [sum(row[j] * x[j] for j in range(len(x))) for row in matrix]
        sol = solve_linear(LinearSystem(matrix, rhs))
        if sol.is_unique:
            assert list(sol.vector) == x
        else:
            # singular matrix: the constructed rhs is consistent by design
            assert sol.status == "underdetermined"

    def test_invert(self):
        m = [[2, 1], [1, 1]]
        inv = invert_matrix(m)
        assert inv == [[1, -1], [-1, 2]]

    def test_invert_singular(self):
        with pytest.raises(ValueError, match="singular"):
            invert_matrix([[1, 2], [2, 4]])
