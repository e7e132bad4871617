from fractions import Fraction
from math import comb

import pytest

from mgn_divisors import checks, picard
from mgn_divisors.certificates import canonical_class, certify
from mgn_divisors.family import family_space, quad_class
from mgn_divisors.grr import c1_pushforward, porteous_equal_rank, total_boundary
from mgn_divisors.picard import DivisorClass, Space

from conftest import run_records


SPACE = Space(5, 3)


class TestPushforward:
    def test_once_twisted(self):
        """omega(-sum Delta_j) pushes to lambda - sum psi_j."""
        out = c1_pushforward(SPACE, 1, -1)
        assert out == DivisorClass(SPACE, lam=1, psi=-1)

    def test_twice_twisted(self):
        """omega^2(-2 sum Delta_j) pushes to 13 lambda - 5 sum psi_j - delta."""
        out = c1_pushforward(SPACE, 2, -2)
        assert out == DivisorClass(SPACE, lam=13, psi=-5).add(total_boundary(SPACE, -1))

    def test_untwisted_hodge(self):
        """omega itself pushes to the Hodge class."""
        out = c1_pushforward(SPACE, 1, 0)
        assert out == DivisorClass(SPACE, lam=1)

    @pytest.mark.parametrize("power, twist", [(0, 0), (-1, 0)])
    def test_power_below_one_rejected(self, power, twist):
        """The rule table drops R1: pi_* O = O has c1 = 0 and pi_* omega^-1
        = 0, but the table would give lambda and 13 lambda - delta."""
        with pytest.raises(ValueError):
            c1_pushforward(SPACE, power, twist)

    @pytest.mark.parametrize("power, twist", [
        (True, 0), (1, False), (2.0, 1), (1, Fraction(-1)), ("1", 0)])
    def test_non_int_power_or_twist_rejected(self, power, twist):
        with pytest.raises(ValueError):
            c1_pushforward(SPACE, power, twist)

    @pytest.mark.parametrize("space, power, twist", [
        (Space(2, 3), 2, -2), (Space(2, 5), 1, -1), (Space(5, 9), 1, -1), (Space(3, 1), 1, -5)])
    def test_negative_fibre_degree_rejected(self, space, power, twist):
        """L has degree power(2g-2) + twist n on a fibre; below 0 pi_* L = 0,
        and the table gives c1 of pi_! L: 13 lambda - 5 psi - delta on (2, 3)."""
        with pytest.raises(ValueError, match="negative fibre degree"):
            c1_pushforward(space, power, twist)

    def test_degree_zero_and_the_callers_bundles_answer(self):
        assert c1_pushforward(Space(2, 2), 1, -1) == DivisorClass(Space(2, 2), lam=1, psi=-1)
        for t in range(41):
            space = family_space(t)
            for power in (1, 2):
                assert c1_pushforward(space, power, -power).space == space
        for g, n in [(2, 3), (2, 5), (12, 0), (16, 8), (12, 10)]:
            assert canonical_class(g, n).space == Space(g, n)


LITERATURE_SPACES = [Space(5, 0), Space(5, 3), Space(16, 8), Space(173, 153)]


class TestLiterature:
    """The engine against closed forms from the literature, built from
    DivisorClass, total_boundary and scale alone."""

    @pytest.mark.parametrize("space", LITERATURE_SPACES, ids=lambda s: f"{s.g},{s.n}")
    @pytest.mark.parametrize("a", range(2, 6))
    def test_mumford_untwisted(self, space, a):
        """Mumford (1983, section 5): c1 pi_* omega^a = lambda + C(a,2) kappa
        with kappa = pi_*(c1(omega)^2) = 12 lambda - delta."""
        kappa = DivisorClass(space, lam=12).add(total_boundary(space, -1))
        expected = DivisorClass(space, lam=1).add(kappa.scale(comb(a, 2)))
        assert c1_pushforward(space, a, 0) == expected

    @pytest.mark.parametrize("space", LITERATURE_SPACES, ids=lambda s: f"{s.g},{s.n}")
    @pytest.mark.parametrize("a", range(2, 6))
    def test_arbarello_cornalba_log(self, space, a):
        """omega^a(a sum Delta_j) is the a-th power of the log dualizing sheaf:
        lambda + C(a,2) kappa_1 with kappa_1 = 12 lambda - delta + sum psi_j
        (Arbarello-Cornalba 1996)."""
        kappa = DivisorClass(space, lam=12, psi=1).add(total_boundary(space, -1))
        expected = DivisorClass(space, lam=1).add(kappa.scale(comb(a, 2)))
        assert c1_pushforward(space, a, a) == expected


class TestPorteous:
    def test_rank_validation(self):
        e = DivisorClass(SPACE, lam=1)
        with pytest.raises(ValueError):
            porteous_equal_rank(e, 0, e)

    def test_bool_rank_rejected(self):
        e = DivisorClass(SPACE, lam=1)
        with pytest.raises(ValueError):
            porteous_equal_rank(e, True, e)

    def test_float_rank_rejected(self):
        e = DivisorClass(SPACE, lam=1)
        with pytest.raises(ValueError):
            porteous_equal_rank(e, 4.0, e)

    @pytest.mark.parametrize("t", range(0, 9))
    def test_family_class_from_first_principles(self, t):
        """The full pipeline reproduces the family class on the interior part."""
        space = family_space(t)
        e = c1_pushforward(space, 1, -1)
        f = c1_pushforward(space, 2, -2)
        d1 = porteous_equal_rank(e, t + 4, f)
        expected = DivisorClass(space, lam=8 - t, psi=Fraction(t)).add(
            total_boundary(space, -1))
        assert d1 == expected
        q = quad_class(t)
        assert d1.lam == q.lam
        assert all(d1.psi_coefficient(j) == q.psi_coefficient(j) for j in space.labels)
        assert d1.delta_irr == q.delta_irr


def test_grr_sweep_enumerates_no_orbits(boundary_orbit_yields):
    """Classes with one coefficient on almost every orbit cost O(listed
    keys): quad_class stores rows 0 and 1 as formulas in s, so the whole
    sweep enumerates no boundary orbit at all."""
    yielded = boundary_orbit_yields()
    records = list(run_records(checks.check_grr(6)))  # a sweep is a generator: read it once
    assert len(records) == 4 * 7
    assert all(ok for *_, ok in records)
    assert yielded == []
    # the counter is live: a certificate's residual report walks every orbit
    certify(17, 8)
    assert yielded


def test_grr_sweep_builds_eleven_classes_per_t(monkeypatch):
    """Work count, not time: per t the GRR sweep stores 11 classes, and only
    the 3 expected classes it builds from plain numbers go through the
    validating constructor.  Arithmetic, the pushforwards, total_boundary and
    quad_class store their layers directly."""
    store, validate = DivisorClass._store, DivisorClass.__init__
    stored, validated = [], []

    def counting_store(self, *args, **kwargs):
        stored.append(1)
        return store(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        validated.append(1)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(DivisorClass, "_store", counting_store)
    monkeypatch.setattr(DivisorClass, "__init__", counting_init)
    per_t = []
    for k, _ in enumerate(checks.check_grr(16), 1):
        if k % 4 == 0:  # four records per t
            per_t.append((len(stored), len(validated)))
            stored.clear()
            validated.clear()
    assert per_t == [(11, 3)] * 17


def test_psi_work_does_not_grow_with_n(monkeypatch):
    """A class with one psi coefficient at every label costs O(1) in n: the
    Coefficients created by construction, add, scale, equality and the GRR
    pushforward of a uniform bundle are as many on (173, 153) as on (17, 10).
    Every Coefficient is made by picard._normal, which is counted."""
    build = picard._normal
    created = []

    def counting(pair):
        created.append(1)
        return build(pair)

    monkeypatch.setattr(picard, "_normal", counting)

    def count(op):
        created.clear()
        op()
        return len(created)

    def costs(space):
        a = DivisorClass(space, lam=1, psi=2, delta_irr=-1, boundary_rest=-1)
        b = DivisorClass(space, lam=3, psi={1: 4, 2: 5}, psi_rest=-1)
        return [
            count(lambda: DivisorClass(space, lam=1, psi=Fraction(2), delta_irr=-1)),
            count(lambda: a.add(b)),
            count(lambda: b.scale(Fraction(-1, 2))),
            count(lambda: a == b),
            count(lambda: a == a.scale(1)),
            count(lambda: c1_pushforward(space, 2, -2)),
        ]

    small = costs(Space(17, 10))
    assert small == costs(Space(173, 153))
    assert all(small[:3]) and all(small[5:])  # the counter is live
