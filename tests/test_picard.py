from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from mgn_divisors.picard import (
    BoundaryIndex,
    Coefficient,
    DivisorClass,
    EXACT_ZERO,
    InsufficientInformationError,
    MalformedClassError,
    Space,
    SpaceMismatchError,
    TestCurve as Pencil,
    UNKNOWN,
    UnstableIndexError,
    all_canonical_indices,
    boundary_orbits,
    canonical_index,
    class_from_dict,
    class_to_dict,
    deserialize,
    intersect_test_curve,
    coeff,
    is_orbit,
    orbit_count,
    orbit_members,
    orbit_size,
    serialize,
)


class TestCoefficient:
    def test_exact_addition(self):
        assert Coefficient.exact(2) + Coefficient.exact(Fraction(1, 2)) == Coefficient.exact(Fraction(5, 2))

    def test_bound_plus_exact_keeps_direction(self):
        assert Coefficient.at_least(3) + Coefficient.exact(1) == Coefficient.at_least(4)
        assert Coefficient.at_most(3) + Coefficient.exact(1) == Coefficient.at_most(4)

    def test_opposite_bounds_lose_everything(self):
        assert Coefficient.at_least(0) + Coefficient.at_most(5) == UNKNOWN

    def test_unknown_absorbs(self):
        assert UNKNOWN + Coefficient.exact(7) == UNKNOWN
        assert UNKNOWN.scaled(3) == UNKNOWN

    def test_negative_scaling_flips_bounds(self):
        assert Coefficient.at_most(-1).scaled(-2) == Coefficient.at_least(2)
        assert Coefficient.at_least(5).scaled(-1) == Coefficient.at_most(-5)

    def test_zero_scaling_is_exact_zero(self):
        assert UNKNOWN.scaled(0) == EXACT_ZERO
        assert Coefficient.at_least(9).scaled(0) == EXACT_ZERO

    @pytest.mark.parametrize("c,text", [
        (Coefficient.exact(Fraction(-1, 3)), "-1/3"),
        (Coefficient.at_least(2), ">=2"),
        (Coefficient.at_most(-1), "<=-1"),
        (UNKNOWN, "?"),
    ])
    def test_str(self, c, text):
        assert str(c) == text

    def test_json_round_trip(self):
        for c in (Coefficient.exact(Fraction(7, 2)), Coefficient.at_least(0),
                  Coefficient.at_most(-1), UNKNOWN):
            assert Coefficient.from_json(c.to_json()) == c

    def test_from_json_rejects_garbage(self):
        with pytest.raises(MalformedClassError):
            Coefficient.from_json({"exact": "1.5"})
        with pytest.raises(MalformedClassError):
            Coefficient.from_json({"about": "3"})


class TestSpaceAndIndexing:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            Space(1, 5)
        with pytest.raises(ValueError):
            Space(2, -1)

    def test_unstable_index_rejected(self):
        # a genus-0 side with fewer than 2 marked points cannot exist
        with pytest.raises(UnstableIndexError):
            canonical_index(Space(5, 3), 0, {1})
        with pytest.raises(UnstableIndexError):
            canonical_index(Space(5, 3), 5, {1, 2})

    def test_mirror_resolves(self):
        space = Space(5, 3)
        assert canonical_index(space, 4, {1}) == canonical_index(space, 1, {2, 3})

    def test_middle_genus_tie_break(self):
        space = Space(6, 2)
        a = canonical_index(space, 3, {1})
        b = canonical_index(space, 3, {2})
        assert a == BoundaryIndex(3, frozenset({1}))
        assert b == BoundaryIndex(3, frozenset({1}))  # mirror of {2}

    def test_middle_genus_unmarked_is_its_own_mirror(self):
        space = Space(4, 0)
        assert canonical_index(space, 2, set()) == BoundaryIndex(2, frozenset())
        assert is_orbit(space, 2, 0)
        assert orbit_count(space) == 2
        assert orbit_size(space, 2, 0) == 1
        assert list(orbit_members(space, 2, 0)) == [BoundaryIndex(2, frozenset())]

    def test_canonicalization_exhaustive_small(self):
        """Idempotence and involution over every admissible (i, S), g<=8, n<=4."""
        for g in range(2, 9):
            for n in range(0, 5):
                space = Space(g, n)
                labels = set(space.labels)
                for i in range(0, g + 1):
                    for mask in range(2 ** n):
                        S = frozenset(j for j in space.labels if mask >> (j - 1) & 1)
                        try:
                            idx = canonical_index(space, i, S)
                        except UnstableIndexError:
                            continue
                        # idempotent
                        assert canonical_index(space, idx.i, idx.S) == idx
                        # involution: the mirror lands on the same representative
                        assert canonical_index(space, g - i, labels - S) == idx

    def test_orbit_sizes_add_up(self):
        space = Space(5, 4)
        total = sum(orbit_size(space, i, s) for i, s in boundary_orbits(space))
        assert total == len(list(all_canonical_indices(space)))

    def test_orbit_members_are_canonical(self):
        space = Space(6, 3)
        for i, s in boundary_orbits(space):
            for idx in orbit_members(space, i, s):
                assert canonical_index(space, idx.i, idx.S) == idx

    @given(st.integers(2, 9), st.integers(0, 5))
    @settings(max_examples=40)
    def test_is_orbit_matches_boundary_orbits(self, g, n):
        self._check_is_orbit(Space(g, n))

    # even g (the i = g/2 tie-break), n = 0 and n = 1, always covered
    @pytest.mark.parametrize("g,n", [(2, 0), (3, 0), (4, 0), (2, 1), (4, 1), (5, 1),
                                     (6, 2), (8, 3), (7, 4)])
    def test_is_orbit_edge_spaces(self, g, n):
        self._check_is_orbit(Space(g, n))

    @staticmethod
    def _check_is_orbit(space):
        """is_orbit holds exactly on boundary_orbits, and both agree with the
        (i, |S|) keys that canonicalizing every (i, S) reaches."""
        orbits = set(boundary_orbits(space))
        reached = set()
        for i in range(space.g + 1):
            for mask in range(2 ** space.n):
                S = {j for j in space.labels if mask >> (j - 1) & 1}
                try:
                    idx = canonical_index(space, i, S)
                except UnstableIndexError:
                    continue
                reached.add((idx.i, idx.s))
        assert orbits == reached
        assert orbit_count(space) == len(orbits)
        for i in range(-1, space.g + 2):
            for s in range(-1, space.n + 2):
                assert is_orbit(space, i, s) == ((i, s) in orbits)


def simple_classes(space):
    coeffs = st.integers(-6, 6)
    indices = list(all_canonical_indices(space))
    return st.builds(
        lambda lam, psi, d, bd: DivisorClass(
            space, lam=lam, psi=psi, delta_irr=d,
            boundary={idx: c for idx, c in zip(indices, bd)},
        ),
        coeffs,
        st.lists(coeffs, min_size=space.n, max_size=space.n),
        coeffs,
        st.lists(coeffs, min_size=len(indices), max_size=len(indices)),
    )


SPACE_53 = Space(5, 3)


class TestDivisorClass:
    def test_orbit_layer_resolves_mirrors(self):
        cls = DivisorClass(SPACE_53, boundary_sym={(1, 2): 7})
        assert cls.boundary_coefficient(1, {1, 2}) == Coefficient.exact(7)
        assert cls.boundary_coefficient(4, {3}) == Coefficient.exact(7)  # mirror

    def test_explicit_overrides_orbit(self):
        cls = DivisorClass(SPACE_53, boundary_sym={(1, 2): 7},
                           boundary={(1, frozenset({1, 2})): 9})
        assert cls.boundary_coefficient(1, {1, 2}) == Coefficient.exact(9)
        assert cls.boundary_coefficient(1, {1, 3}) == Coefficient.exact(7)

    def test_redundant_explicit_entry_dropped(self):
        cls = DivisorClass(SPACE_53, boundary_sym={(1, 2): 7},
                           boundary={(1, frozenset({1, 2})): 7})
        assert not cls.boundary_items()

    def test_mirror_keys_merge(self):
        cls = DivisorClass(SPACE_53, boundary={(1, frozenset({1})): 2, (4, frozenset({2, 3})): 3})
        assert cls.boundary_coefficient(1, {1}) == Coefficient.exact(5)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            DivisorClass(SPACE_53).add(DivisorClass(Space(5, 2)))

    def test_add_and_scale(self):
        a = DivisorClass(SPACE_53, lam=2, psi={1: 3}, boundary_sym={(1, 1): -4})
        b = a.scale(Fraction(-1, 2))
        assert (a.add(b)).scale(2) == a
        assert b.lam == Coefficient.exact(-1)
        assert b.boundary_coefficient(1, {2}) == Coefficient.exact(2)

    def test_equality_mixed_representations(self):
        via_orbit = DivisorClass(SPACE_53, boundary_sym={(1, 1): 5})
        via_explicit = DivisorClass(
            SPACE_53, boundary={(1, frozenset({j})): 5 for j in SPACE_53.labels})
        assert via_orbit == via_explicit

    def test_equality_decides_on_huge_orbits(self):
        # the (0, 22) orbit on (57, 45) has C(45, 22) ~ 4e12 members
        space = Space(57, 45)
        one = DivisorClass(space, boundary_sym={(0, 22): 1})
        two = DivisorClass(space, boundary_sym={(0, 22): 2})
        assert (one == two) is False
        assert (one == DivisorClass(space, boundary_sym={(0, 22): 1})) is True

    def test_equality_counts_overrides_against_orbit(self):
        # the (1, 1) orbit on (5, 3) has the three members {1}, {2}, {3}
        via_orbit = DivisorClass(SPACE_53, boundary_sym={(1, 1): 2})
        members = [(1, frozenset({j})) for j in SPACE_53.labels]
        covered = DivisorClass(SPACE_53, boundary={m: 2 for m in members})
        partial = DivisorClass(SPACE_53, boundary={m: 2 for m in members[:2]})
        off_by_one = DivisorClass(SPACE_53, boundary={m: 2 + (m == members[2]) for m in members})
        assert via_orbit == covered and covered == via_orbit
        assert hash(via_orbit) == hash(covered)
        assert via_orbit != partial and partial != via_orbit
        assert via_orbit != off_by_one and off_by_one != via_orbit
        # overrides on both sides may cover the orbit together
        split = DivisorClass(SPACE_53, boundary_sym={(1, 1): 2}, boundary={members[0]: 0})
        other = DivisorClass(SPACE_53, boundary={members[1]: 2, members[2]: 2})
        assert split == other and other == split and hash(split) == hash(other)

    @pytest.mark.parametrize("key", [(1.9, 2), ("1", True), (1, True), (Fraction(1), 2),
                                     (1.0, 2), (1, "2"), (1, 2, 3)], ids=repr)
    def test_boundary_sym_key_must_be_ints(self, key):
        # int() would read (1.9, 2) as orbit (1, 2) and ("1", True) as (1, 1)
        with pytest.raises(ValueError, match="boundary_sym key"):
            DivisorClass(SPACE_53, boundary_sym={key: 7})

    @given(simple_classes(SPACE_53), simple_classes(SPACE_53))
    @settings(max_examples=40)
    def test_add_commutes(self, a, b):
        assert a.add(b) == b.add(a)


def coefficients():
    v = st.integers(-2, 2)
    return st.one_of(v.map(Coefficient.exact), v.map(Coefficient.at_least),
                     v.map(Coefficient.at_most), st.just(UNKNOWN))


@st.composite
def rest_specs(draw, space):
    """Constructor arguments of a class with a boundary rest, a few listed
    orbits and a few explicit entries."""
    orbits = list(boundary_orbits(space))
    ints = st.integers(-3, 3)
    sym, explicit = {}, {}
    if orbits:
        sym = draw(st.dictionaries(st.sampled_from(orbits), coefficients(), max_size=4))
        for key in draw(st.lists(st.sampled_from(orbits), max_size=3)):
            members = list(islice(orbit_members(space, *key), 3))
            explicit[draw(st.sampled_from(members))] = draw(coefficients())
    return dict(lam=draw(ints), psi=draw(ints), delta_irr=draw(ints), boundary=explicit,
                boundary_sym=sym, boundary_rest=draw(coefficients()))


def expanded(space, spec):
    """The same class with the rest written out on every orbit."""
    spec = dict(spec)
    rest, sym = coeff(spec.pop("boundary_rest")), spec.pop("boundary_sym")
    spec["boundary_sym"] = {key: sym.get(key, rest) for key in boundary_orbits(space)}
    return DivisorClass(space, **spec)


# even g (the i = g/2 tie-break), g = 2, n = 0, n = 1, and a sweep-sized space
REST_SPACES = [Space(2, 0), Space(2, 3), Space(3, 1), Space(4, 0), Space(4, 2),
               Space(5, 1), Space(6, 3), Space(57, 45)]


class TestBoundaryRest:
    """A class built with boundary_rest=c is the class with c written on every
    orbit that boundary_sym leaves out, and arithmetic commutes with that."""

    @pytest.mark.parametrize("space", REST_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rest_matches_expansion(self, space, data):
        spec = data.draw(rest_specs(space))
        cls, full = DivisorClass(space, **spec), expanded(space, spec)
        assert cls == full and full == cls
        assert serialize(cls) == serialize(full)
        assert repr(cls) == repr(full)
        assert cls.boundary_is_zero == full.boundary_is_zero
        for key in boundary_orbits(space):
            idx = next(orbit_members(space, *key))
            assert cls.boundary_coefficient(idx.i, idx.S) == full.boundary_coefficient(idx.i, idx.S)
        if space.n <= 6:
            assert cls.boundary_is_zero == all(
                cls.boundary_coefficient(idx.i, idx.S).is_zero
                for idx in all_canonical_indices(space))

    @pytest.mark.parametrize("space", REST_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_arithmetic_commutes_with_expansion(self, space, data):
        a_spec, b_spec = data.draw(rest_specs(space)), data.draw(rest_specs(space))
        a, b = DivisorClass(space, **a_spec), DivisorClass(space, **b_spec)
        a_full, b_full = expanded(space, a_spec), expanded(space, b_spec)
        assert serialize(a.add(b)) == serialize(a_full.add(b_full)) == serialize(a.add(b_full))
        assert a.add(b) == a_full.add(b_full)
        c = data.draw(st.sampled_from([Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]))
        assert serialize(a.scale(c)) == serialize(a_full.scale(c))
        assert a.scale(c) == a_full.scale(c)
        assert (a == b) == (a_full == b_full) == (b == a)

    @pytest.mark.parametrize("space", REST_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_rest_can_carry_the_same_class(self, space, data):
        """Listing every orbit's value makes the rest irrelevant."""
        spec = data.draw(rest_specs(space))
        cls = DivisorClass(space, **spec)
        relisted = DivisorClass(
            space, lam=spec["lam"], psi=spec["psi"], delta_irr=spec["delta_irr"],
            boundary=spec["boundary"],
            boundary_sym={key: cls.orbit_coefficient(*key) for key in boundary_orbits(space)},
            boundary_rest=data.draw(coefficients()),
        )
        assert cls == relisted and relisted == cls
        assert serialize(cls) == serialize(relisted)

    @pytest.mark.parametrize("space", [Space(6, 3), Space(57, 45)], ids=str)
    def test_differing_rests_covered_by_listed_orbits(self, space):
        orbits = list(boundary_orbits(space))
        low, high = orbits[:len(orbits) // 2], orbits[len(orbits) // 2:]
        # both are 1 on the low orbits and 2 on the high ones
        a = DivisorClass(space, boundary_sym={key: 1 for key in low}, boundary_rest=2)
        b = DivisorClass(space, boundary_sym={key: 2 for key in high}, boundary_rest=1)
        assert a == b and b == a
        # leave one orbit unlisted by both: there the rests tell them apart
        c = DivisorClass(space, boundary_sym={key: 2 for key in high[1:]}, boundary_rest=1)
        assert a != c and c != a

    def test_differing_rests_covered_by_explicit_entries(self):
        # the (1, 1) orbit on (5, 3) is {1}, {2}, {3}; here only explicit entries list it
        members = {(1, frozenset({j})): 1 for j in SPACE_53.labels}
        others = {key: 1 for key in boundary_orbits(SPACE_53) if key != (1, 1)}
        covered = DivisorClass(SPACE_53, boundary_sym=others, boundary=members,
                               boundary_rest=UNKNOWN)
        assert covered == DivisorClass(SPACE_53, boundary_rest=1)
        del members[(1, frozenset({3}))]
        partial = DivisorClass(SPACE_53, boundary_sym=others, boundary=members,
                               boundary_rest=UNKNOWN)
        assert partial != DivisorClass(SPACE_53, boundary_rest=1)

    @pytest.mark.parametrize("space", [Space(2, 3), Space(6, 3), Space(57, 45)], ids=str)
    def test_nonzero_rest_with_every_orbit_zero(self, space):
        cls = DivisorClass(space, lam=1, boundary_sym={key: 0 for key in boundary_orbits(space)},
                           boundary_rest=UNKNOWN)
        assert cls.boundary_is_zero
        assert cls == DivisorClass(space, lam=1)
        assert serialize(cls) == serialize(DivisorClass(space, lam=1))
        one_left = DivisorClass(space, boundary_sym={key: 0 for key in list(boundary_orbits(space))[1:]},
                                boundary_rest=UNKNOWN)
        assert not one_left.boundary_is_zero

    def test_orbit_coefficient(self):
        cls = DivisorClass(SPACE_53, boundary_sym={(1, 2): 7}, boundary_rest=UNKNOWN,
                           boundary={(1, frozenset({1})): 4})
        assert cls.orbit_coefficient(1, 2) == Coefficient.exact(7)
        assert cls.orbit_coefficient(1, 1) == UNKNOWN  # explicit entries do not count
        assert cls.boundary_coefficient(1, {1}) == Coefficient.exact(4)
        assert cls.boundary_coefficient(4, {1, 3}) == UNKNOWN  # mirror of (1, {2})
        with pytest.raises(UnstableIndexError):
            cls.orbit_coefficient(0, 1)


class TestPairing:
    def test_insufficient_information(self):
        cls = DivisorClass(SPACE_53, boundary_sym={(1, 2): UNKNOWN})
        curve = Pencil(SPACE_53, 1, {1})
        with pytest.raises(InsufficientInformationError):
            intersect_test_curve(cls, curve)

    def test_unstable_test_curve_rejected_when_built(self):
        with pytest.raises(ValueError, match="unstable"):
            Pencil(SPACE_53, 0, {1})
        with pytest.raises(ValueError, match="unstable"):
            Pencil(SPACE_53, 5, {1, 2})

    def test_rigid_moving_side_rejected_when_built(self):
        # (5, {1}) is stable, but the moving side is a rational curve with the
        # node and p_2, p_3: rigid, and (5, {1, 2}) is unstable
        with pytest.raises(ValueError, match="rigid"):
            Pencil(SPACE_53, 5, {1})
        # with a single label outside S the moving side is stable again
        assert Pencil(Space(5, 4), 5, {1}).S == frozenset({1})
        # S = every label: no j outside S, nothing more to check
        assert intersect_test_curve(DivisorClass(SPACE_53, lam=1),
                                    Pencil(SPACE_53, 0, {1, 2, 3})) == 0

    def test_uninvolved_bound_is_fine(self):
        cls = DivisorClass(SPACE_53, lam=3, boundary_sym={(2, 0): UNKNOWN})
        curve = Pencil(SPACE_53, 1, {1})
        assert intersect_test_curve(cls, curve) == 0

    def test_known_contributions(self):
        # T_{1:{1}} on (5,3): +psi_2 +psi_3 +delta_{1:{1,2}} +delta_{1:{1,3}}
        # -(2*4-2+3-1) * delta_{1:{1}}
        cls = DivisorClass(SPACE_53, psi={2: 5, 3: 7},
                           boundary={(1, frozenset({1, 2})): 11, (1, frozenset({1})): 1})
        curve = Pencil(SPACE_53, 1, {1})
        assert intersect_test_curve(cls, curve) == 5 + 7 + 11 - 8

    @given(simple_classes(SPACE_53), simple_classes(SPACE_53),
           st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=40)
    def test_linearity(self, a, b, x, y):
        curve = Pencil(SPACE_53, 1, {1, 2})
        combo = a.scale(x).add(b.scale(y))
        assert intersect_test_curve(combo, curve) == (
            x * intersect_test_curve(a, curve) + y * intersect_test_curve(b, curve))


def member_by_member(cls, curve):
    """T_{i:S} . cls summed one boundary divisor at a time: psi_j and
    delta_{i:S+{j}} for each j outside S, then -(2(g-i)-2+n-s) delta_{i:S}."""
    g, n = curve.space.g, curve.space.n
    i, S = curve.i, curve.S

    def exact(c):
        if not c.is_exact:
            raise InsufficientInformationError(str(c))
        return c.value

    total = 0
    for j in curve.space.labels:
        if j not in S:
            total += exact(cls.psi_coefficient(j))
            total += exact(cls.boundary_coefficient(i, S | {j}))
    mult = -(2 * (g - i) - 2 + n - len(S))
    if mult:
        total += mult * exact(cls.boundary_coefficient(i, S))
    return total


def outcome(pair, cls, curve):
    """The pairing's value, or the type of the error it raises."""
    try:
        return pair(cls, curve)
    except (InsufficientInformationError, UnstableIndexError) as e:
        return type(e)


def every_test_curve(space):
    for i in range(space.g + 1):
        for s in range(space.n + 1):
            for S in combinations(space.labels, s):
                try:
                    yield Pencil(space, i, S)
                except ValueError:
                    pass


@st.composite
def pairing_classes(draw, space):
    """Classes with a boundary rest, orbit entries and explicit entries on any
    index.  Coefficients are mostly exact, so that most pairings get as far as
    the boundary, and bounds or Unknown show up everywhere."""
    ints = st.integers(-3, 3)
    mostly_exact = st.one_of(ints.map(Coefficient.exact), ints.map(Coefficient.exact),
                             ints.map(Coefficient.exact), coefficients())
    orbits, indices = list(boundary_orbits(space)), list(all_canonical_indices(space))
    return DivisorClass(
        space,
        psi=draw(st.lists(mostly_exact, min_size=space.n, max_size=space.n)),
        boundary_rest=draw(mostly_exact),
        boundary_sym=draw(st.dictionaries(st.sampled_from(orbits), mostly_exact,
                                          max_size=len(orbits))) if orbits else {},
        boundary=draw(st.dictionaries(st.sampled_from(indices), mostly_exact,
                                      max_size=8)) if indices else {},
    )


# even g for the i = g/2 split (with n = 2, s = 0 its two halves are one orbit),
# n = 0, and an odd genus
PAIRING_SPACES = [Space(2, 3), Space(4, 0), Space(4, 2), Space(4, 3), Space(5, 3),
                  Space(6, 4)]


class TestPairingPerOrbit:
    """intersect_test_curve reads the boundary per orbit; it must agree with the
    member-by-member sum, value for value and error for error."""

    def test_curves_cover_every_case(self):
        curves = [c for space in PAIRING_SPACES for c in every_test_curve(space)]
        half_genus = [c for c in curves if 2 * c.i == c.space.g]
        assert any(1 in c.S for c in half_genus)
        assert any(1 not in c.S and c.space.n for c in half_genus)
        assert any(2 * c.i > c.space.g for c in curves)
        assert any(c.i == 0 for c in curves)
        assert any(len(c.S) == c.space.n - 1 for c in curves)
        assert any(len(c.S) == c.space.n for c in curves)

    @pytest.mark.parametrize("space", PAIRING_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_member_by_member_sum(self, space, data):
        cls = data.draw(pairing_classes(space))
        for curve in every_test_curve(space):
            assert (outcome(intersect_test_curve, cls, curve)
                    == outcome(member_by_member, cls, curve)), curve

    def test_half_genus_mirror_members_share_an_override(self):
        # on (4, 2), T_{2:{}} meets delta_{2:{1}} and delta_{2:{2}}: one divisor, counted twice
        space = Space(4, 2)
        cls = DivisorClass(space, boundary={(2, frozenset({1})): 5},
                           boundary_rest=Coefficient.at_most(-1))
        curve = Pencil(space, 2, set())
        with pytest.raises(InsufficientInformationError):  # -(2*2-2+2) delta_{2:{}}
            intersect_test_curve(cls, curve)
        exact_rest = DivisorClass(space, boundary={(2, frozenset({1})): 5}, boundary_rest=3)
        assert intersect_test_curve(exact_rest, curve) == 5 + 5 - 4 * 3
        assert member_by_member(exact_rest, curve) == 5 + 5 - 4 * 3

    def test_unmarked_middle_genus_is_counted_once(self):
        # on (4, 0), delta_{2:{}} is its own mirror: T_{2:{}} meets it with -(2*2-2) = -2
        space = Space(4, 0)
        curve = Pencil(space, 2, set())
        by_index = DivisorClass(space, boundary={(2, frozenset()): 1})
        by_orbit = DivisorClass(space, boundary_sym={(2, 0): 1})
        for cls in (by_index, by_orbit):
            assert intersect_test_curve(cls, curve) == member_by_member(cls, curve) == -2


def psi_values():
    """Few distinct values, so that equal labels, ties and equal classes are common."""
    v = st.integers(-1, 2)
    return st.one_of(v.map(Coefficient.exact), v.map(Coefficient.exact),
                     v.map(Coefficient.at_least), st.just(UNKNOWN))


@st.composite
def psi_specs(draw, space):
    """psi constructor arguments of every shape (one scalar, a sequence of n
    values, or a dict over a rest, which may list every label), with the
    per-label reference vector they stand for."""
    labels = list(space.labels)
    shape = draw(st.sampled_from(["scalar", "sequence", "dict"]))
    if shape == "scalar":
        c = draw(psi_values())
        return dict(psi=c), [c] * space.n
    if shape == "sequence":
        vec = draw(st.lists(psi_values(), min_size=space.n, max_size=space.n))
        return dict(psi=vec), vec
    rest = draw(psi_values())
    listed = draw(st.dictionaries(st.sampled_from(labels), psi_values())) if labels else {}
    return dict(psi=listed, psi_rest=rest), [listed.get(j, rest) for j in labels]


@st.composite
def respelled(draw, space, vec):
    """The same psi vector as a dict over another rest: every label that
    differs from the rest is listed, and a few that do not."""
    rest = draw(psi_values())
    extra = draw(st.sets(st.sampled_from(list(space.labels)))) if space.n else set()
    return dict(psi={j: c for j, c in zip(space.labels, vec) if c != rest or j in extra},
                psi_rest=rest)


def psi_vector(cls):
    return [cls.psi_coefficient(j) for j in cls.space.labels]


def psi_pairing(vec, curve):
    """The psi part of T_{i:S} . cls, one label at a time."""
    total = 0
    for j, c in zip(curve.space.labels, vec):
        if j not in curve.S:
            if not c.is_exact:
                raise InsufficientInformationError(str(c))
            total += c.value
    return total


# n = 0, n = 1, n = 2 (a tie of two values), and larger n
PSI_SPACES = [Space(2, 0), Space(3, 1), Space(2, 2), Space(5, 3), Space(4, 4)]


class TestPsiLayers:
    """psi is a rest plus the labels that differ; every operation must agree
    with the per-label vector it stands for."""

    @pytest.mark.parametrize("space", PSI_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_layers_match_the_vector(self, space, data):
        spec, vec = data.draw(psi_specs(space))
        cls = DivisorClass(space, **spec)
        assert psi_vector(cls) == vec
        assert cls.psi_symmetric == (len(set(vec)) <= 1)
        # normal form: no listed value equals the rest, and some label carries the rest
        assert all(c != cls.psi_rest for _, c in cls.psi_items())
        assert len(cls.psi_items()) < space.n or space.n == 0

    @pytest.mark.parametrize("space", PSI_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_matches_the_vector(self, space, data):
        (spec_a, vec_a), (spec_b, vec_b) = data.draw(psi_specs(space)), data.draw(psi_specs(space))
        a, b = DivisorClass(space, **spec_a), DivisorClass(space, **spec_b)
        assert psi_vector(a.add(b)) == [x + y for x, y in zip(vec_a, vec_b)]
        k = data.draw(st.sampled_from([0, -1, 2, Fraction(-1, 2)]))
        assert psi_vector(a.scale(k)) == [x.scaled(k) for x in vec_a]

    @pytest.mark.parametrize("space", PSI_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equality_and_hash_match_the_vector(self, space, data):
        spec_a, vec_a = data.draw(psi_specs(space))
        a = DivisorClass(space, **spec_a)
        same = DivisorClass(space, **data.draw(respelled(space, vec_a)))
        assert a == same and same == a
        assert hash(a) == hash(same)
        spec_b, vec_b = data.draw(psi_specs(space))
        b = DivisorClass(space, **spec_b)
        assert (a == b) == (b == a) == (vec_a == vec_b)
        if a == b:
            assert hash(a) == hash(b)

    @pytest.mark.parametrize("space", PSI_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pairing_matches_the_vector(self, space, data):
        spec, vec = data.draw(psi_specs(space))
        cls = DivisorClass(space, **spec)  # zero boundary: the pairing is its psi part
        for curve in every_test_curve(space):
            assert (outcome(intersect_test_curve, cls, curve)
                    == outcome(lambda _, c: psi_pairing(vec, c), cls, curve)), curve

    def test_tie_of_two_values_stores_either_rest(self):
        space = Space(2, 2)
        folded = DivisorClass(space, psi=[1, 2])
        other = DivisorClass(space, psi={1: 1}, psi_rest=2)
        assert folded.psi_rest != other.psi_rest
        assert folded == other and hash(folded) == hash(other)
        assert folded != DivisorClass(space, psi={1: 2}, psi_rest=1)

    def test_dict_listing_every_label_folds_to_the_most_common_value(self):
        cls = DivisorClass(SPACE_53, psi={1: 3, 2: 3, 3: 5}, psi_rest=7)
        assert cls.psi_rest == Coefficient.exact(3)
        assert cls.psi_items() == [(3, Coefficient.exact(5))]
        by_other_rest = DivisorClass(SPACE_53, psi={1: 3, 2: 3}, psi_rest=5)
        assert by_other_rest.psi_rest == Coefficient.exact(5)
        assert cls == by_other_rest and hash(cls) == hash(by_other_rest)

    def test_pairing_reads_the_rest_only_for_unlisted_labels(self):
        # every label outside S = {1} is listed, so the Unknown rest is never read
        cls = DivisorClass(SPACE_53, psi={2: 4, 3: 5}, psi_rest=UNKNOWN)
        assert intersect_test_curve(cls, Pencil(SPACE_53, 1, {1})) == 9
        with pytest.raises(InsufficientInformationError):
            intersect_test_curve(cls, Pencil(SPACE_53, 1, {2}))

    @pytest.mark.parametrize("label", [0, -1, 4, True, "1"])
    def test_label_outside_range_rejected(self, label):
        cls = DivisorClass(SPACE_53, psi={1: 1, 2: 2, 3: 3})
        with pytest.raises(ValueError, match="psi label"):
            cls.psi_coefficient(label)

    @pytest.mark.parametrize("psi", [{1: 2, 7: 5}, {0: 1}, {-1: 1}])
    def test_constructor_rejects_foreign_labels(self, psi):
        with pytest.raises(ValueError, match="psi label"):
            DivisorClass(SPACE_53, psi=psi)


class TestSerialization:
    def test_round_trip(self):
        cls = DivisorClass(
            SPACE_53, lam=Fraction(13, 272), psi={1: 1, 2: -2, 3: Fraction(1, 3)},
            delta_irr=-2,
            boundary={(1, frozenset({1})): Coefficient.at_most(-1)},
            boundary_sym={(2, 1): UNKNOWN},
        )
        assert deserialize(serialize(cls)) == cls

    def test_byte_stability(self):
        cls = DivisorClass(SPACE_53, lam=1, boundary_sym={(1, 0): -4, (2, 1): -6})
        assert serialize(cls) == serialize(deserialize(serialize(cls)))

    def test_no_floats_in_wire_form(self):
        cls = DivisorClass(SPACE_53, lam=Fraction(1, 3))
        assert "0.3" not in serialize(cls)
        assert "1/3" in serialize(cls)

    def test_round_trip_unmarked_middle_genus(self):
        cls = DivisorClass(Space(4, 0), lam=2, delta_irr=-1,
                           boundary={(2, frozenset()): Coefficient.at_least(3)},
                           boundary_sym={(1, 0): 7}, boundary_rest=UNKNOWN)
        assert deserialize(serialize(cls)) == cls
        assert serialize(deserialize(serialize(cls))) == serialize(cls)

    def test_non_canonical_index_rejected(self):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["boundary"] = [{"i": 4, "S": [1], "c": {"exact": "1"}}]
        with pytest.raises(MalformedClassError):
            class_from_dict(doc)

    def test_unstable_index_rejected(self):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["boundary"] = [{"i": 0, "S": [1], "c": {"exact": "1"}}]
        with pytest.raises((MalformedClassError, UnstableIndexError)):
            class_from_dict(doc)

    def test_duplicate_boundary_entry_rejected(self):
        doc = class_to_dict(DivisorClass(SPACE_53, boundary={(1, frozenset({1})): 2}))
        doc["boundary"].append({"i": 1, "S": [1], "c": {"exact": "5"}})
        with pytest.raises(MalformedClassError, match="duplicate"):
            class_from_dict(doc)

    def test_duplicate_boundary_sym_entry_rejected(self):
        doc = class_to_dict(DivisorClass(SPACE_53, boundary_sym={(1, 2): 7}))
        doc["boundary_sym"].append({"i": 1, "s": 2, "c": {"exact": "7"}})
        with pytest.raises(MalformedClassError, match="duplicate"):
            class_from_dict(doc)

    @pytest.mark.parametrize("field,entry", [
        ("boundary", {"i": 1.9, "S": [1], "c": {"exact": "-5"}}),
        ("boundary", {"i": 1, "S": [1.0], "c": {"exact": "-5"}}),
        ("boundary", {"i": 1, "S": "1", "c": {"exact": "-5"}}),
        ("boundary_sym", {"i": 1.9, "s": 0, "c": {"exact": "-5"}}),
        ("boundary_sym", {"i": 1, "s": True, "c": {"exact": "-5"}}),
    ])
    def test_non_integer_index_rejected(self, field, entry):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc[field] = [entry]
        with pytest.raises(MalformedClassError, match="JSON integer"):
            class_from_dict(doc)

    @pytest.mark.parametrize("space", [{"g": True, "n": 0}, {"g": 5.0, "n": 3},
                                       {"g": "5", "n": 3}, {"g": 5, "n": False}])
    def test_non_integer_space_rejected(self, space):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["space"] = space
        with pytest.raises(MalformedClassError, match="JSON integer"):
            class_from_dict(doc)

    @pytest.mark.parametrize("c", [{"exact": 407}, {"exact": "1/0"}, {"at_least": 1.5}])
    def test_bad_coefficient_value_rejected(self, c):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["lambda"] = c
        with pytest.raises(MalformedClassError, match="bad coefficient value"):
            class_from_dict(doc)

    @pytest.mark.parametrize("key", ["0_1", "+1", " 1", "01", "1 ", "0", "4", "١"])
    def test_non_canonical_psi_key_rejected(self, key):
        # int() reads each of these; only str(j) for a label j in 1..n names a label
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["psi"] = {"1": {"exact": "2"}, key: {"exact": "7"}}
        with pytest.raises(MalformedClassError, match="psi label"):
            class_from_dict(doc)

    @pytest.mark.parametrize("psi", [[{"exact": "2"}], 2, "1"])
    def test_psi_not_an_object_rejected(self, psi):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["psi"] = psi
        with pytest.raises(MalformedClassError, match="psi must be a JSON object"):
            class_from_dict(doc)

    def test_canonical_psi_keys_accepted(self):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc["psi"] = {"1": {"exact": "2"}, "3": {"exact": "7"}}
        cls = class_from_dict(doc)
        assert psi_vector(cls) == [Coefficient.exact(v) for v in (2, 0, 7)]

    def test_malformed_document(self):
        with pytest.raises(MalformedClassError):
            deserialize("[1, 2, 3]")
        with pytest.raises(MalformedClassError):
            class_from_dict({"space": {"g": 5, "n": 3}})
