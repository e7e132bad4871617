from fractions import Fraction

import pytest

from mgn_divisors import certificates
from mgn_divisors.certificates import (
    RECIPES, averaged_class, bn5_pullback, bn_class, catalog_get, quad3_pullback)
from mgn_divisors.exact import Poly
from mgn_divisors.family import b0, b1, pic12_reduce, quad_class
from mgn_divisors.picard import (
    Coefficient,
    DivisorClass,
    Space,
    SpaceMismatchError,
    UNKNOWN,
    boundary_orbits,
    row_count,
)
from mgn_divisors.pullbacks import ClutchingMap, TailAttachment, clutch_pullback, forgetful_pullback

from conftest import dense_document, nonzero_orbits, stored_boundary_entries


def ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def pair_average(g):
    """The reference for averaged_class(g): quad3_pullback along each of the
    56 ordered pairs of labels, summed, then scaled by the normalization over
    56."""
    q3 = quad_class(3)
    family = [quad3_pullback(q3, g, i, j) for i, j in ordered_pairs(8)]
    total = family[0]
    for cls in family[1:]:
        total = total.add(cls)
    _, _, scale = dict(RECIPES[(g, 8)])[f"D_{g}_8"]
    return total.scale(Fraction(scale, len(family)))


@pytest.fixture()
def clutch_pullback_calls(monkeypatch):
    """Count clutching pullbacks: `clutch_pullback_calls(*modules)` rebinds the
    name in each given module to a counting wrapper, and returns the list of
    maps pulled back along, in call order."""
    maps = []

    def counting(cls, m):
        maps.append(m)
        return clutch_pullback(cls, m)

    def install(*modules):
        for module in modules:
            monkeypatch.setattr(module, "clutch_pullback", counting)
        return maps

    return install


def fanned_out(cls, n):
    """The forgetful pullback written out orbit by orbit: row i of the target
    carries the coefficient of delta_i on the unmarked space, row 0 is zero."""
    space = Space(cls.space.g, n)
    return DivisorClass(
        space, lam=cls.lam, delta_irr=cls.delta_irr,
        boundary_sym={(i, s): cls.boundary_coefficient(i, ()) if i else 0
                      for i, s in boundary_orbits(space)})


# class on (g, 0) and the number of points to pull it back to
UNMARKED_CLASSES = {
    "BN5_3": (catalog_get("BN5_3").cls, 1),
    "Z16": (catalog_get("Z16").cls, 8),
    "D12": (catalog_get("D12").cls, 10),
    "(6,0)-to-(6,2)": (DivisorClass(Space(6, 0), lam=1, delta_irr=-2,
                                    boundary_sym={(1, 0): 3, (3, 0): 5}), 2),
    "(16,0)-every-row-distinct": (DivisorClass(Space(16, 0), lam=407, delta_irr=-61,
                                               boundary_sym={(i, 0): -i for i in range(1, 9)}), 8),
    "(12,0)-bound-and-rest": (DivisorClass(Space(12, 0), lam=2, boundary_rest=7,
                                           boundary_sym={(2, 0): Coefficient.at_most(-1)}), 10),
}


class TestForgetful:
    def test_bn5_oracle(self):
        assert bn5_pullback() == quad_class(0)

    def test_orbit_fanout(self):
        cls = DivisorClass(Space(6, 0), lam=1, delta_irr=-2,
                           boundary_sym={(1, 0): 3, (3, 0): 5})
        out = forgetful_pullback(cls, 2)
        assert out.lam == Coefficient.exact(1)
        assert out.delta_irr == Coefficient.exact(-2)
        assert out.boundary_coefficient(1, set()) == Coefficient.exact(3)
        assert out.boundary_coefficient(1, {1, 2}) == Coefficient.exact(3)
        assert out.boundary_coefficient(3, {1}) == Coefficient.exact(5)
        assert out.boundary_coefficient(2, {1}) == Coefficient.exact(0)

    def test_bounds_propagate(self):
        cls = DivisorClass(Space(6, 0), boundary_sym={(2, 0): Coefficient.at_most(-1)})
        out = forgetful_pullback(cls, 1)
        assert out.boundary_coefficient(2, {1}) == Coefficient.at_most(-1)

    @pytest.mark.parametrize("name", list(UNMARKED_CLASSES))
    def test_equals_orbit_by_orbit_fanout(self, name):
        cls, n = UNMARKED_CLASSES[name]
        assert forgetful_pullback(cls, n) == fanned_out(cls, n)

    def test_middle_genus_row_reaches_every_orbit(self):
        # on (6, 2) the delta_3 row is the orbits (3, 1) and (3, 2); (3, 0) is (3, {1, 2})
        out = forgetful_pullback(DivisorClass(Space(6, 0), boundary_sym={(3, 0): 5}), 2)
        assert [key for key, _ in nonzero_orbits(out)] == [(3, 1), (3, 2)]
        assert out.boundary_coefficient(3, set()) == Coefficient.exact(5)
        assert out.boundary_coefficient(3, {2}) == Coefficient.exact(5)

    def test_explicit_row_entry_pulls_back_like_an_orbit_entry(self):
        space = Space(16, 0)
        by_orbit = DivisorClass(space, lam=3, boundary_sym={(8, 0): -2, (3, 0): 4},
                                boundary_rest=UNKNOWN)
        by_index = DivisorClass(space, lam=3, boundary={(8, frozenset()): -2,
                                                        (13, frozenset()): 4},
                                boundary_rest=UNKNOWN)
        assert by_index == by_orbit
        assert forgetful_pullback(by_index, 8) == forgetful_pullback(by_orbit, 8)
        assert forgetful_pullback(by_index, 8).boundary_coefficient(8, {1}) == \
            Coefficient.exact(-2)

    def test_marked_input_rejected(self):
        with pytest.raises(SpaceMismatchError, match="n=0"):
            forgetful_pullback(DivisorClass(Space(6, 1), lam=1), 2)

    def test_does_not_enumerate_target_orbits(self, boundary_orbit_yields):
        z16 = catalog_get("Z16").cls
        yielded = boundary_orbit_yields()
        forgetful_pullback(z16, 8)
        assert yielded == []

    def test_stores_at_most_one_entry_per_row(self):
        bn17 = forgetful_pullback(bn_class(17), 8)
        assert stored_boundary_entries(bn17) <= row_count(bn17.space)
        assert stored_boundary_entries(bn17) == len(bn17._rows) == 8  # every row but the rest


class TestClutchingMap:
    def test_unstable_tail_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            TailAttachment(1, 0, {7})

    def test_negative_tail_genus_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TailAttachment(1, -1, {7, 8})

    def test_balanced_negative_genus_rejected_before_the_map(self):
        # 16 + 1 - 1 = 16 balances the genus bookkeeping; the negative tail is
        # refused when it is built, not inside clutch_pullback
        with pytest.raises(ValueError, match="negative"):
            ClutchingMap(
                Space(16, 8), Space(16, 10),
                attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, -1, {9, 10})),
                retained={j: j - 2 for j in range(3, 9)},
            )

    @pytest.mark.parametrize("at_label,genus,labels", [
        (1, 1.0, {7, 8}), (1, True, {7, 8}), (True, 0, {7, 8}), (1.0, 0, {7, 8}),
        (1, 0, {7.0, 8}),
    ], ids=["float-genus", "bool-genus", "bool-label", "float-label", "float-tail-label"])
    def test_non_int_genus_or_label_rejected(self, at_label, genus, labels):
        with pytest.raises(ValueError, match="not an int"):
            TailAttachment(at_label, genus, labels)

    def test_genus_bookkeeping(self):
        with pytest.raises(ValueError, match="genus"):
            ClutchingMap(
                Space(16, 8), Space(18, 10),
                attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {9, 10})),
                retained={j: j - 2 for j in range(3, 9)},
            )

    def test_label_partition_enforced(self):
        with pytest.raises(ValueError, match="partition"):
            ClutchingMap(
                Space(16, 8), Space(17, 10),
                attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {7, 9})),
                retained={j: j - 2 for j in range(3, 9)},
            )

    def test_retained_must_cover(self):
        with pytest.raises(ValueError, match="retained"):
            ClutchingMap(
                Space(16, 8), Space(17, 10),
                attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {9, 10})),
                retained={j: j - 2 for j in range(3, 8)},
            )

    @pytest.mark.parametrize("retained", [
        {3: 1.0, **{j: j - 2 for j in range(4, 9)}},
        {3.0: 1, **{j: j - 2 for j in range(4, 9)}},
        {3: True, **{j: j - 2 for j in range(4, 9)}},
    ], ids=["float-target", "float-source", "bool-target"])
    def test_non_int_retained_label_rejected(self, retained):
        with pytest.raises(ValueError, match="not an int"):
            ClutchingMap(
                Space(16, 8), Space(17, 10),
                attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {9, 10})),
                retained=retained,
            )


class TestClutchPullback:
    def test_space_mismatch(self):
        m = ClutchingMap(
            Space(16, 8), Space(17, 10),
            attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {9, 10})),
            retained={j: j - 2 for j in range(3, 9)},
        )
        with pytest.raises(SpaceMismatchError):
            clutch_pullback(DivisorClass(Space(16, 8)), m)

    @pytest.mark.parametrize("i,j", [(1, 2), (3, 7), (8, 1)])
    def test_elliptic_rational_oracle(self, i, j):
        """5L + 3 sum psi + 9 psi_i + 10 psi_j - delta_irr on the interior."""
        out = quad3_pullback(quad_class(3), 16, i, j)
        assert out.lam == Coefficient.exact(5)
        assert out.delta_irr == Coefficient.exact(-1)
        for k in Space(16, 8).labels:
            expected = 9 if k == i else 10 if k == j else 3
            assert out.psi_coefficient(k) == Coefficient.exact(expected)

    @pytest.mark.parametrize("i,j", [(1, 2), (5, 6)])
    def test_two_rational_oracle(self, i, j):
        out = quad3_pullback(quad_class(3), 17, i, j)
        assert out.lam == Coefficient.exact(5)
        assert out.delta_irr == Coefficient.exact(-1)
        for k in Space(17, 8).labels:
            expected = 10 if k in (i, j) else 3
            assert out.psi_coefficient(k) == Coefficient.exact(expected)

    def test_psi_gain_matches_family_coefficients(self):
        out = quad3_pullback(quad_class(3), 16, 1, 2)
        assert out.psi_coefficient(1).value == b1(2, 3)
        assert out.psi_coefficient(2).value == b0(2, 3)

    def test_boundary_becomes_unknown(self):
        out = quad3_pullback(quad_class(3), 16, 1, 2)
        assert out.boundary_coefficient(1, set()) == UNKNOWN

    def test_boundary_free_input_stays_exact(self):
        m = ClutchingMap(
            Space(16, 8), Space(17, 10),
            attachments=(TailAttachment(1, 1, {7, 8}), TailAttachment(2, 0, {9, 10})),
            retained={j: j - 2 for j in range(3, 9)},
        )
        cls = DivisorClass(Space(17, 10), lam=2, psi=1)
        out = clutch_pullback(cls, m)
        assert out.boundary_is_zero
        assert out.psi_coefficient(1) == Coefficient.exact(0)
        assert out.psi_coefficient(3) == Coefficient.exact(1)


class TestAveraging:
    @pytest.mark.parametrize("g", [16, 17], ids=lambda g: f"averaged_class_{g}_8")
    def test_equals_the_average_of_every_pair_pullback(self, g):
        assert averaged_class(g) == pair_average(g)
        assert dense_document(averaged_class(g)) == dense_document(pair_average(g))

    @pytest.mark.parametrize("g", [16, 17], ids=lambda g: f"averaged_class_{g}_8")
    def test_builds_one_clutching_pullback(self, clutch_pullback_calls, g):
        maps = clutch_pullback_calls(certificates)
        averaged_class(g)
        assert len(maps) == 1

    def test_averaged_16_8(self):
        out = averaged_class(16)
        assert out.psi_symmetric
        assert out.lam == Coefficient.exact(40)
        assert out.psi_coefficient(1) == Coefficient.exact(37)
        assert out.delta_irr == Coefficient.exact(-8)

    def test_averaged_17_8(self):
        out = averaged_class(17)
        assert out.psi_symmetric
        assert out.lam == Coefficient.exact(20)
        assert out.psi_coefficient(1) == Coefficient.exact(19)
        assert out.delta_irr == Coefficient.exact(-4)

    def test_ordered_pairs_count(self):
        assert len(ordered_pairs(8)) == 56

    def test_hand_average_agrees(self):
        # each label is the elliptic slot in 7 ordered pairs (gain 9), the
        # rational slot in 7 (gain 10), and a bystander in 42 (gain 3)
        psi_total = 7 * 9 + 7 * 10 + 42 * 3
        assert averaged_class(16).psi_coefficient(1).value == Fraction(8 * psi_total, 56)
        assert averaged_class(16).lam.value == Fraction(8 * 56 * 5, 56)

    @pytest.mark.parametrize("g", [16, 17], ids=lambda g: f"averaged_class_{g}_8")
    def test_average_builds_the_family_class_once(self, quad_class_builds, g):
        built = quad_class_builds(certificates)
        averaged_class(g)
        assert built == [3]


class TestPic12Reduce:
    def test_relations(self):
        assert pic12_reduce({"delta_irr": 1}) == (12, 0)
        assert pic12_reduce({"psi_p": 1}) == (1, 1)
        assert pic12_reduce({"lambda": 1}) == (1, 0)
        assert pic12_reduce({"delta_0": 1}) == (0, 1)

    def test_symbolic_input(self):
        t = Poly.var("t")
        lam, delta = pic12_reduce({"lambda": 8 - t, "psi_p": t, "delta_irr": -1})
        assert lam == Poly.const(-4)
        assert delta == t

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            pic12_reduce({"kappa": 1})
