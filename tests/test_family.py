from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mgn_divisors import checks
from mgn_divisors.exact import Poly
from mgn_divisors.family import (
    b0,
    b1,
    b1_pairing_via_class,
    b1_recurrence_grid,
    b1_recurrence_rhs,
    b_from_pic12,
    balanced_pairs,
    c1_pushforward_L2,
    d1_phi_prime,
    d1_theta,
    family_space,
    gn_pair,
    known_b,
    quad_class,
    tilde_b,
    tilde_recurrence_grid,
    tilde_recurrence_rhs,
    tilde_vs_known_b,
    verify_b1_recurrence,
    verify_balance,
    verify_tilde_recurrence,
)
from mgn_divisors.picard import Coefficient

from conftest import poly_eval, stored_boundary_entries


TABLE = [(5, 1), (8, 3), (12, 6), (17, 10), (23, 15), (30, 21), (38, 28)]


class TestFamilyTable:
    @pytest.mark.parametrize("t,expected", list(enumerate(TABLE)))
    def test_gn_pair(self, t, expected):
        assert gn_pair(t) == expected

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            gn_pair(-1)

    def test_balanced_pairs_rederives_table(self):
        assert balanced_pairs(38) == [(g, n, t) for t, (g, n) in enumerate(TABLE)]

    def test_balanced_pairs_below_threshold(self):
        assert balanced_pairs(4) == []

    def test_balance_symbolic(self):
        assert verify_balance(Poly.var("t"))

    @pytest.mark.parametrize("t", range(0, 101))
    def test_balance_numeric(self, t):
        assert verify_balance(t)


class TestCoefficientFormulas:
    def test_b0_domain(self):
        with pytest.raises(ValueError):
            b0(1, 3)

    @pytest.mark.parametrize("s,t,expected", [
        (2, 0, 1), (2, 3, 10), (3, 3, 21),
    ])
    def test_b0_values(self, s, t, expected):
        assert b0(s, t) == expected

    @pytest.mark.parametrize("s,t,expected", [
        (0, 0, 4), (0, 3, 7), (1, 0, 4), (1, 3, 4), (2, 3, 9),
    ])
    def test_b1_values(self, s, t, expected):
        assert b1(s, t) == expected

    def test_b1_at_s1_is_always_4(self):
        assert b1(1, Poly.var("t")) == Poly.const(4)

    def test_tilde_matches_b0_on_i0(self):
        s, t = Poly.var("s"), Poly.var("t")
        assert tilde_b(0, s, t) == b0(s, t)

    def test_tilde_undershoots_b1_by_2(self):
        s, t = Poly.var("s"), Poly.var("t")
        assert tilde_b(1, s, t) == b1(s, t) - 2

    def test_tilde_never_exceeds_known(self):
        for t in range(0, 7):
            _, n = gn_pair(t)
            rows = list(tilde_vs_known_b(t))
            # b0 is known from s = 2, b1 from s = 0; an empty row is left out
            assert [(i, list(S)) for i, S, *_ in rows] == [
                (i, list(S)) for i, S in ((0, range(2, n + 1)), (1, range(n + 1))) if S]
            assert all(x <= y for _, _, tilde, b in rows for x, y in zip(tilde, b, strict=True))

    def test_known_b_bounds_only_for_deep_genus(self):
        assert known_b(2, 3, 1) is None
        assert known_b(1, 3, 1) == b1(3, 1)


class TestQuadClass:
    def test_t0_six_coefficients(self):
        cls = quad_class(0)
        assert cls.space == family_space(0)
        assert cls.lam == Coefficient.exact(8)
        assert cls.psi_coefficient(1) == Coefficient.exact(0)
        assert cls.delta_irr == Coefficient.exact(-1)
        assert cls.boundary_coefficient(1, set()) == Coefficient.exact(-4)
        assert cls.boundary_coefficient(1, {1}) == Coefficient.exact(-4)
        assert cls.boundary_coefficient(2, set()) == Coefficient.exact(-6)
        assert cls.boundary_coefficient(2, {1}) == Coefficient.exact(-6)

    def test_general_t_interior(self):
        for t in (1, 3, 5):
            cls = quad_class(t)
            assert cls.lam == Coefficient.exact(8 - t)
            assert all(cls.psi_coefficient(j) == Coefficient.exact(t) for j in cls.space.labels)
            assert cls.delta_irr == Coefficient.exact(-1)

    def test_deep_genus_entries_are_bounds(self):
        cls = quad_class(1)
        c = cls.boundary_coefficient(2, set())
        assert c.kind == "at_most"
        assert c.value == -1

    def test_closed_form_entries(self):
        cls = quad_class(3)
        assert cls.boundary_coefficient(0, {1, 2}) == Coefficient.exact(-10)
        assert cls.boundary_coefficient(1, {5}) == Coefficient.exact(-4)
        assert cls.boundary_coefficient(1, {5, 6}) == Coefficient.exact(-9)

    def test_rows_match_the_closed_forms_on_every_orbit(self):
        """Rows 0 and 1, read per orbit, are -b0 and -b1 (b_{1:0} = t+4 included)."""
        for t in range(31):
            cls, n = quad_class(t), gn_pair(t)[1]
            assert all(cls.orbit_coefficient(0, s) == Coefficient.exact(-b0(s, t))
                       for s in range(2, n + 1)), t
            assert all(cls.orbit_coefficient(1, s) == Coefficient.exact(-b1(s, t))
                       for s in range(n + 1)), t

    @pytest.mark.parametrize("t", [1, 2, 3, 16, 40])
    def test_row_formulas_are_the_closed_forms_in_s(self, t):
        """Each stored formula, read as a Poly in s, is -b0(s, t) or -b1(s, t).
        (At t = 0 there is one label, so row 0 holds no orbit and is not stored.)"""
        s = Poly.var("s")
        rows = quad_class(t)._rows

        def as_poly(row):
            assert row.kind == "exact"
            return sum((c * s ** k for k, c in enumerate(row.num)), Poly.const(0)) / row.den

        assert as_poly(rows[0]) == -b0(s, t)
        assert as_poly(rows[1]) == -b1(s, t)

    def test_stored_entries_do_not_grow_with_t(self):
        assert stored_boundary_entries(quad_class(16)) == stored_boundary_entries(quad_class(400))
        assert stored_boundary_entries(quad_class(16)) == 3  # rows 0 and 1, and b_{1:0}


class TestRecurrences:
    @pytest.mark.parametrize("i,s,t,expected", [
        (0, 1, 1, 10), (1, 2, 1, 56), (0, 1, 0, 0),
    ])
    def test_d1_phi_prime_spots(self, i, s, t, expected):
        assert d1_phi_prime(i, s, t) == expected

    def test_lemma_domain(self):
        with pytest.raises(ValueError):
            d1_phi_prime(2, 2, 1)

    def test_tilde_recurrence_symbolic(self):
        assert verify_tilde_recurrence(Poly.var("i"), Poly.var("s"), Poly.var("t"))

    @pytest.mark.parametrize("t", range(0, 9))
    def test_tilde_recurrence_grid(self, t):
        _, n = gn_pair(t)
        for s in range(1, n + 1):
            for i in range(0, s):
                assert verify_tilde_recurrence(i, s, t)

    @pytest.mark.parametrize("t", range(0, 13))
    def test_grid_equals_the_per_cell_functions(self, t):
        # the grid reads each row's i-free parts once, shares tilde_b values
        # between rows and checks the range once; the public per-cell functions
        # are its oracle.  `==` cannot tell 3 from Fraction(3), and a record
        # prints an int and a Fraction through different paths, so every value
        # of both grids must also be an int
        _, n = gn_pair(t)
        want = [(i, s, d1_phi_prime(i, s, t), tilde_recurrence_rhs(i, s, t))
                for s in range(1, n + 1) for i in range(s)]
        got = [(i, s, a, b) for s, lhs, rhs in tilde_recurrence_grid(t)
               for i, a, b in zip(range(s), lhs, rhs, strict=True)]
        assert got == want
        b1_cells = list(zip(*b1_recurrence_grid(t), strict=True))
        assert b1_cells == [(s, d1_theta(s, t), b1_recurrence_rhs(s, t)) for s in range(1, n + 1)]
        assert all(type(x) is int for cell in (*got, *b1_cells) for x in cell)

    @pytest.mark.parametrize("t", [20, 40])
    def test_grid_rows_equal_the_per_cell_functions_at_large_t(self, t):
        # the first, middle and last rows, where the ints are large
        _, n = gn_pair(t)
        rows = sorted({1, n // 2, n})
        want = [(i, s, d1_phi_prime(i, s, t), tilde_recurrence_rhs(i, s, t))
                for s in rows for i in range(s)]
        got = [(i, s, a, b) for s, lhs, rhs in tilde_recurrence_grid(t) if s in rows
               for i, a, b in zip(range(s), lhs, rhs, strict=True)]
        assert got == want
        assert all(type(x) is int for cell in got for x in cell)

    @pytest.mark.parametrize("i,s,g", [(2, 2, 5), (3, 2, 5), (6, 9, 5), (-1, 1, 5)])
    def test_c1_pushforward_L2_domain(self, i, s, g):
        with pytest.raises(ValueError):
            c1_pushforward_L2(i, s, g, 1)

    @pytest.mark.parametrize("s,t,expected", [
        (1, 0, 24), (1, 1, 44), (2, 1, 80),
    ])
    def test_d1_theta_spots(self, s, t, expected):
        assert d1_theta(s, t) == expected

    def test_b1_recurrence_symbolic(self):
        assert verify_b1_recurrence(Poly.var("s"), Poly.var("t"))

    @pytest.mark.parametrize("t", range(0, 9))
    def test_b1_recurrence_grid_three_ways(self, t):
        _, n = gn_pair(t)
        q = quad_class(t)
        for s in range(1, n + 1):
            lhs = d1_theta(s, t)
            assert lhs == b1_recurrence_rhs(s, t)
            assert lhs == b1_pairing_via_class(q, s)

    def test_recurrence_sweep_builds_each_class_once(self, quad_class_builds):
        built = quad_class_builds(checks)
        runs = list(checks.check_recurrences(3))  # a sweep is a generator: read it once
        assert built == [0, 1, 2, 3]
        assert sum(len(ok) for *_, ok in runs) == 5 + sum(n * (n + 1) // 2 + 4 * n
                                                         for n in (1, 3, 6, 10))
        assert all(all(ok) for *_, ok in runs)

    def test_recurrence_sweep_pairs_without_canonicalizing(self, canonical_index_calls):
        # the pairing reads the boundary per orbit: the member-by-member sum made
        # n - s + 1 canonical_index calls per pairing (840 here)
        calls = canonical_index_calls()
        runs = list(checks.check_recurrences(6))  # a sweep is a generator: read it once
        # a run's records cycle through its ops
        pairings = sum(len(ok[k::len(ops)]) for ops, *_, ok in runs
                       for k, op in enumerate(ops) if op.name == "b1_recurrence_pairing")
        assert pairings == sum(gn_pair(t)[1] for t in range(7)) == 84
        assert len(calls) <= pairings
        assert all(all(ok) for *_, ok in runs)

    def test_b1_recurrence_domain(self):
        with pytest.raises(ValueError):
            verify_b1_recurrence(0, 1)


class TestPic12Reduction:
    def test_symbolic(self):
        t = Poly.var("t")
        b10, b11 = b_from_pic12(t)
        assert b10 == t + 4
        assert b11 == Poly.const(4)

    @given(st.integers(0, 50))
    def test_numeric_matches_symbolic(self, t):
        assert b_from_pic12(t) == (Fraction(t + 4), Fraction(4))

    def test_numeric_solution_is_in_scalar_normal_form(self):
        b = b_from_pic12(5)
        assert b == (9, 4) and all(type(x) is int for x in b)


I, S, T = Poly.var("i"), Poly.var("s"), Poly.var("t")


def _agree(numeric, symbolic, point):
    """A number from int input equals the Poly result evaluated at that point."""
    assert type(numeric) in (int, Fraction), f"{numeric!r} is not an int or Fraction"
    assert numeric == poly_eval(symbolic, point)


@st.composite
def family_cells(draw, s_min=0, with_i=False):
    """(t, s, i) with t <= 30, s_min <= s <= n(t) and 0 <= i < s (i = 0 if unused)."""
    t = draw(st.integers(0, 30))
    _, n = gn_pair(t)
    s = draw(st.integers(s_min, max(s_min, n)))
    i = draw(st.integers(0, s - 1)) if with_i else 0
    return t, s, i


class TestOneCodePath:
    """Numeric and symbolic input run the same expressions, so they agree pointwise."""

    @given(st.integers(0, 30))
    def test_gn_pair_and_balance(self, t):
        g, n = gn_pair(t)
        assert type(g) is int and type(n) is int
        gs, ns = gn_pair(T)
        assert (g, n) == (poly_eval(gs, {"t": t}), poly_eval(ns, {"t": t}))
        assert verify_balance(t) is True and verify_balance(T) is True

    @given(family_cells(s_min=2))
    def test_b0(self, cell):
        t, s, _ = cell
        _agree(b0(s, t), b0(S, T), {"s": s, "t": t})

    @given(family_cells())
    def test_b1_and_its_recurrence_rhs(self, cell):
        t, s, _ = cell
        _agree(b1(s, t), b1(s, T), {"t": t})
        _agree(b1_recurrence_rhs(s, t), b1_recurrence_rhs(s, T), {"t": t})
        if s >= 1:  # b_{1:0} = t+4 is a special value, not the s = 0 point of the closed form
            _agree(b1(s, t), b1(S, T), {"s": s, "t": t})
            _agree(b1_recurrence_rhs(s, t), b1_recurrence_rhs(S, T), {"s": s, "t": t})
            _agree(d1_theta(s, t), d1_theta(S, T), {"s": s, "t": t})

    @given(family_cells(s_min=1, with_i=True))
    def test_tilde_b_and_the_test_curve_pairing(self, cell):
        t, s, i = cell
        point = {"i": i, "s": s, "t": t}
        _agree(tilde_b(i, s, t), tilde_b(I, S, T), point)
        _agree(d1_phi_prime(i, s, t), d1_phi_prime(I, S, T), point)
        _agree(tilde_recurrence_rhs(i, s, t), tilde_recurrence_rhs(I, S, T), point)

    @given(family_cells(s_min=2, with_i=True))
    def test_integer_input_stays_int(self, cell):
        # every one of these is integral at integer points, so halving keeps an int
        t, s, i = cell
        values = [b0(s, t), b1(s, t), b1(0, t), tilde_b(i, s, t), d1_theta(s, t),
                  d1_phi_prime(i, s, t), b1_recurrence_rhs(s, t),
                  tilde_recurrence_rhs(i, s, t)]
        assert all(type(v) is int for v in values), values

    @given(st.integers(0, 30))
    def test_b_from_pic12(self, t):
        for numeric, symbolic in zip(b_from_pic12(t), b_from_pic12(T)):
            _agree(numeric, symbolic, {"t": t})
