from fractions import Fraction

import pytest

from mgn_divisors import checks
from mgn_divisors.family import family_space, quad_class
from mgn_divisors.grr import (
    FiberwiseLineBundle,
    c1_pushforward,
    porteous_equal_rank,
    total_boundary,
    uniform_bundle,
)
from mgn_divisors.picard import Coefficient, DivisorClass, Space


SPACE = Space(5, 3)


class TestPushforward:
    def test_once_twisted(self):
        """omega(-sum Delta_j) pushes to lambda - sum psi_j."""
        out = c1_pushforward(SPACE, uniform_bundle(1, -1))
        assert out == DivisorClass(SPACE, lam=1, psi=-1)

    def test_twice_twisted(self):
        """omega^2(-2 sum Delta_j) pushes to 13 lambda - 5 sum psi_j - delta."""
        out = c1_pushforward(SPACE, uniform_bundle(2, -2))
        assert out == DivisorClass(SPACE, lam=13, psi=-5).add(total_boundary(SPACE, -1))

    def test_untwisted_hodge(self):
        """omega itself pushes to the Hodge class."""
        out = c1_pushforward(SPACE, FiberwiseLineBundle(1, {}))
        assert out == DivisorClass(SPACE, lam=1)

    def test_mixed_twists(self):
        bundle = FiberwiseLineBundle(1, {1: -1})
        out = c1_pushforward(SPACE, bundle)
        assert out.psi_coefficient(1) == Coefficient.exact(-1)
        assert out.psi_coefficient(2) == Coefficient.exact(0)

    def test_foreign_twist_labels_rejected(self):
        with pytest.raises(ValueError):
            c1_pushforward(SPACE, FiberwiseLineBundle(1, {9: -1}))


class TestPorteous:
    def test_rank_validation(self):
        e = DivisorClass(SPACE, lam=1)
        with pytest.raises(ValueError):
            porteous_equal_rank(e, 0, e)

    @pytest.mark.parametrize("t", range(0, 9))
    def test_family_class_from_first_principles(self, t):
        """The full pipeline reproduces the family class on the interior part."""
        space = family_space(t)
        e = c1_pushforward(space, uniform_bundle(1, -1))
        f = c1_pushforward(space, uniform_bundle(2, -2))
        d1 = porteous_equal_rank(e, t + 4, f)
        expected = DivisorClass(space, lam=8 - t, psi=Fraction(t)).add(
            total_boundary(space, -1))
        assert d1 == expected
        q = quad_class(t)
        assert d1.lam == q.lam
        assert all(d1.psi_coefficient(j) == q.psi_coefficient(j) for j in space.labels)
        assert d1.delta_irr == q.delta_irr


def test_grr_sweep_enumerates_only_the_family_rows(boundary_orbit_yields):
    """Classes with one coefficient on almost every orbit cost O(listed
    orbits): the whole sweep enumerates no more orbits than the i in {0, 1}
    rows that quad_class lists, at most 2(n+1) per t."""
    yielded = boundary_orbit_yields()
    records = checks.check_grr(6)
    assert checks.summarize(records)["all_pass"]
    assert yielded  # the counter is live: quad_class enumerates its two rows
    assert len(yielded) <= 2 * sum(family_space(t).n + 1 for t in range(7))


def test_psi_work_does_not_grow_with_n(monkeypatch):
    """A class with one psi coefficient at every label costs O(1) in n: the
    Coefficients created by construction, add, scale, equality and the GRR
    pushforward of a uniform bundle are as many on (173, 153) as on (17, 10)."""
    build = Coefficient.__init__
    created = []

    def counting(self, *args, **kwargs):
        created.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Coefficient, "__init__", counting)

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
            count(lambda: c1_pushforward(space, uniform_bundle(2, -2))),
            count(lambda: c1_pushforward(space, FiberwiseLineBundle(1, {1: -1}))),
        ]

    small = costs(Space(17, 10))
    assert small == costs(Space(173, 153))
    assert all(small[:3]) and all(small[5:])  # the counter is live
