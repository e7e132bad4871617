from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from mgn_divisors import picard
from mgn_divisors.certificates import _CATALOG, averaged_class, bn5_pullback, canonical_class
from mgn_divisors.exact import scalar
from mgn_divisors.family import quad_class
from mgn_divisors.grr import c1_pushforward, total_boundary
from mgn_divisors.picard import (
    BoundaryIndex,
    Coefficient,
    DivisorClass,
    EXACT_ZERO,
    InsufficientInformationError,
    MalformedClassError,
    Row,
    Space,
    SpaceMismatchError,
    TestCurve as Pencil,
    UNKNOWN,
    UnstableIndexError,
    boundary_orbits,
    canonical_index,
    class_from_dict,
    class_to_dict,
    intersect_test_curve,
    coeff,
    is_orbit,
    orbit_size,
    row_count,
)

from conftest import (all_canonical_indices, check_documents, dense_document, deserialize,
                      nonzero_orbits, orbit_members, serialize, stored_layers)


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

    def test_attributes_cannot_be_assigned(self):
        c = Coefficient.exact(1)
        for name in ("kind", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 2)
        assert c == Coefficient.exact(1)

    @pytest.mark.parametrize("compare", [
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b])
    def test_coefficients_do_not_order(self, compare):
        with pytest.raises(TypeError):
            compare(Coefficient.exact(1), Coefficient.exact(2))

    def test_no_tuple_repetition(self):
        for repeat in (lambda c: c * 2, lambda c: 2 * c):
            with pytest.raises(TypeError):
                repeat(Coefficient.exact(1))

    def test_equal_coefficients_hash_equal(self):
        pairs = [(Coefficient.exact(Fraction(4, 2)), Coefficient("exact", 2)),
                 (Coefficient.at_least(Fraction(1, 2)),
                  Coefficient.from_json({"at_least": "2/4"})),
                 (Coefficient.at_most(-1),
                  Coefficient.at_least(2).scaled(-1) + Coefficient.exact(1)),
                 (UNKNOWN, Coefficient.at_least(0) + Coefficient.at_most(0))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        assert len({a for pair in pairs for a in pair}) == len(pairs)

    def test_constructor_normalizes_the_value(self):
        assert Coefficient.exact(Fraction(2, 2)) == Coefficient("exact", 1)
        assert type(Coefficient("at_most", Fraction(6, 3)).value) is int
        with pytest.raises(TypeError):
            Coefficient("exact", None)

    @pytest.mark.parametrize("kind, value", [("exactt", 1), ("Exact", 1), (None, 1),
                                             ("unknown", 5), ("unknown", 0)], ids=repr)
    def test_constructor_refuses_a_kind_it_does_not_have(self, kind, value):
        # a stored misspelt kind has no str(), and an unknown holding a value
        # would print and serialize as UNKNOWN without being equal to it
        with pytest.raises(ValueError):
            Coefficient(kind, value)
        assert Coefficient("unknown") == Coefficient("unknown", None) == UNKNOWN

    @pytest.mark.parametrize("c, doc, rep", [
        (Coefficient.exact(Fraction(-1, 3)), {"exact": "-1/3"},
         "Coefficient(kind='exact', value=Fraction(-1, 3))"),
        (Coefficient.at_least(2), {"at_least": "2"}, "Coefficient(kind='at_least', value=2)"),
        (Coefficient.at_most(-1), {"at_most": "-1"}, "Coefficient(kind='at_most', value=-1)"),
        (UNKNOWN, "unknown", "Coefficient(kind='unknown', value=None)"),
    ])
    def test_json_and_repr(self, c, doc, rep):
        """The dataclass's forms; test_str pins str."""
        assert (c.to_json(), repr(c)) == (doc, rep)


class TestSpaceAndIndexing:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            Space(1, 5)
        with pytest.raises(ValueError):
            Space(2, -1)

    @pytest.mark.parametrize("g,n", [(5.0, 3), (5, True), (5, 3.0), (True, 3),
                                     (Fraction(5), 3), ("5", 3), (5, None)], ids=repr)
    def test_space_needs_int_g_and_n(self, g, n):
        # Space(5.0, 3) used to construct and print g=5.0
        with pytest.raises(ValueError, match="must be ints"):
            Space(g, n)

    @pytest.mark.parametrize("i,S", [(1.0, {1}), (1, {True}), (1, {1.0}), (True, {1}),
                                     (Fraction(1), {1}), (1, {"1"})], ids=repr)
    def test_index_needs_int_genus_and_labels(self, i, S):
        # these used to be stored as given, and their serialized form did not load
        with pytest.raises(ValueError, match="not an int"):
            canonical_index(Space(5, 3), i, S)
        with pytest.raises(ValueError, match="not an int"):
            DivisorClass(Space(5, 3), boundary={(i, frozenset(S)): 2})
        with pytest.raises(ValueError, match="not an int"):
            Pencil(Space(5, 3), i, S)

    def test_canonical_index_reads_labels_only_for_a_mirror(self, monkeypatch):
        # a canonical (i, S) is checked in O(|S|); the n labels are read only to
        # build the complement of a mirrored index
        reads = []
        labels = Space.labels
        monkeypatch.setattr(Space, "labels", property(lambda sp: reads.append(1) or labels.fget(sp)))
        space = Space(173, 153)
        assert canonical_index(space, 1, {1}) == BoundaryIndex(1, frozenset({1}))
        assert canonical_index(space, 0, {2, 7}) == BoundaryIndex(0, frozenset({2, 7}))
        assert not reads
        assert canonical_index(space, 172, set(range(2, 154))) == BoundaryIndex(1, frozenset({1}))
        assert len(reads) == 1

    def test_label_out_of_range_is_unstable_index(self):
        with pytest.raises(UnstableIndexError, match="outside"):
            canonical_index(Space(5, 3), 1, {4})
        with pytest.raises(UnstableIndexError, match="outside"):
            canonical_index(Space(5, 3), 1, {0})

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
        assert row_count(space) == 2
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
        assert row_count(space) == len({i for i, _ in orbits})
        for i in range(-1, space.g + 2):
            for s in range(-1, space.n + 2):
                assert is_orbit(space, i, s) == ((i, s) in orbits)


def simple_classes(space):
    coeffs = st.integers(-6, 6)
    indices = list(all_canonical_indices(space))
    return st.builds(
        lambda lam, psi, d, bd: DivisorClass(
            space, lam=lam, psi=dict(zip(space.labels, psi)), delta_irr=d,
            boundary={idx: c for idx, c in zip(indices, bd)},
        ),
        coeffs,
        st.lists(coeffs, min_size=space.n, max_size=space.n),
        coeffs,
        st.lists(coeffs, min_size=len(indices), max_size=len(indices)),
    )


SPACE_53 = Space(5, 3)


def in_normal_form(c: Coefficient) -> bool:
    """The stored value is an int exactly when it is integral, else a Fraction
    with a denominator above 1, and never a float; Unknown stores None."""
    v = c.value
    if c.kind == "unknown":
        return v is None
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def stored_coefficients(cls: DivisorClass):
    """Every coefficient the class stores, in every layer."""
    yield from (cls.lam, cls.delta_irr, cls._psi_rest, cls._rest)
    yield from cls._psi.values()
    yield from cls._orbits.values()
    for members in cls._explicit.values():
        yield from members.values()


# integers, integral Fractions such as Fraction(4, 2), proper fractions, and bools
exact_scalars = st.one_of(st.integers(-12, 12), st.booleans(),
                          st.fractions(min_value=-12, max_value=12, max_denominator=6))
any_coefficients = st.one_of(
    exact_scalars.map(Coefficient.exact), exact_scalars.map(Coefficient.at_least),
    exact_scalars.map(Coefficient.at_most), st.just(UNKNOWN))


@st.composite
def scalar_spec_classes(draw, space):
    """Classes built from raw scalars and from Coefficients, in every layer."""
    values = st.one_of(exact_scalars, any_coefficients)
    orbits = list(boundary_orbits(space))
    indices = list(all_canonical_indices(space))
    return DivisorClass(
        space,
        lam=draw(values),
        psi=draw(st.dictionaries(st.sampled_from(list(space.labels)), values)),
        psi_rest=draw(values),
        delta_irr=draw(values),
        boundary_sym=draw(st.dictionaries(st.sampled_from(orbits), values, max_size=4)),
        boundary=draw(st.dictionaries(st.sampled_from(indices), values, max_size=4)),
        boundary_rest=draw(values),
    )


class TestScalarNormalForm:
    """Every stored coefficient value is in the normal form of exact.scalar."""

    @given(exact_scalars)
    def test_constructors(self, x):
        for make in (Coefficient.exact, Coefficient.at_least, Coefficient.at_most):
            c = make(x)
            assert in_normal_form(c) and c.value == x

    @given(any_coefficients, any_coefficients, exact_scalars)
    def test_sum_and_scaling(self, a, b, k):
        assert in_normal_form(a + b)
        assert in_normal_form(a.scaled(k))

    def test_integral_results_are_ints(self):
        half_ = Coefficient.exact(Fraction(1, 2))
        assert type((half_ + half_).value) is int
        assert type(Coefficient.at_least(Fraction(3, 2)).scaled(Fraction(-2, 3)).value) is int
        assert type(Coefficient.exact(Fraction(6, 3)).value) is int

    @given(st.integers(-40, 40), st.integers(1, 6),
           st.sampled_from(["exact", "at_least", "at_most"]))
    def test_from_json(self, p, q, kind):
        c = Coefficient.from_json({kind: f"{p}/{q}"})
        assert in_normal_form(c) and c.value == Fraction(p, q)
        assert in_normal_form(Coefficient.from_json({kind: str(p)}))

    @given(scalar_spec_classes(SPACE_53), scalar_spec_classes(SPACE_53), exact_scalars)
    @settings(max_examples=40)
    def test_class_construction_add_and_scale(self, a, b, k):
        for cls in (a, a.add(b), a.scale(k), a.scale(k).add(b.scale(k))):
            assert all(map(in_normal_form, stored_coefficients(cls)))

    def test_integral_class_results_are_ints(self):
        cls = DivisorClass(SPACE_53, lam=Fraction(1, 2), psi=Fraction(3, 2),
                           boundary_sym={(1, 1): Fraction(-5, 2)})
        doubled = cls.scale(2)
        assert [type(c.value) for c in stored_coefficients(doubled)] == [int] * 5
        assert type(cls.add(cls).lam.value) is int

    @pytest.mark.parametrize("make", [
        lambda: Coefficient.exact(0.5),
        lambda: Coefficient.at_most(-1.0),
        lambda: Coefficient.exact(1).scaled(0.5),
        lambda: DivisorClass(SPACE_53, lam=1.5),
        lambda: DivisorClass(SPACE_53, lam=1).scale(2.0),
    ])
    def test_floats_rejected(self, make):
        with pytest.raises(TypeError):
            make()


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
        assert dense_document(cls) == dense_document(full)
        check_documents(cls)
        check_documents(full)
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
        assert (dense_document(a.add(b)) == dense_document(a_full.add(b_full))
                == dense_document(a.add(b_full)))
        assert a.add(b) == a_full.add(b_full)
        c = data.draw(st.sampled_from([Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]))
        assert dense_document(a.scale(c)) == dense_document(a_full.scale(c))
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
        assert dense_document(cls) == dense_document(relisted)

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
        assert dense_document(cls) == dense_document(DivisorClass(space, lam=1))
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

    @pytest.mark.parametrize("space,i,s", [(SPACE_53, 1, 1), (SPACE_53, 1, 3), (SPACE_53, 0, 2),
                                           (Space(5, 4), 5, 1), (Space(30, 21), 1, 0),
                                           (Space(30, 21), 1, 13), (Space(30, 21), 1, 21)])
    def test_prefix_range_is_its_frozenset(self, space, i, s):
        as_range, as_set = Pencil(space, i, range(1, s + 1)), Pencil(space, i, set(range(1, s + 1)))
        assert as_range == as_set and hash(as_range) == hash(as_set)
        assert type(as_range.S) is frozenset
        cls = quad_class(5) if space == Space(30, 21) else DivisorClass(
            space, lam=2, psi={2: 3}, boundary_rest=5, boundary={(i, as_set.S): 7})
        assert intersect_test_curve(cls, as_range) == intersect_test_curve(cls, as_set)

    @pytest.mark.parametrize("i,S", [
        (1, range(1, 5)),  # label 4 outside the marked set
        (0, range(1, 2)),  # unstable (0, {1})
        (5, range(1, 2)),  # stable, but the moving side is rigid
        (1, range(0, 3)), (1, range(2, 5)), (1, range(1, 6, 2)),  # per-label check
        (1.0, range(1, 2)),  # genus index not an int
    ])
    def test_prefix_range_raises_as_its_frozenset(self, i, S):
        errors = []
        for labels in (S, frozenset(S)):
            with pytest.raises(ValueError) as raised:
                Pencil(SPACE_53, i, labels)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_other_ranges_are_read_label_by_label(self):
        assert Pencil(SPACE_53, 1, range(1, 4, 2)).S == frozenset({1, 3})
        assert Pencil(SPACE_53, 1, range(3, 1, -1)).S == frozenset({2, 3})

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
        psi=dict(zip(space.labels, draw(st.lists(mostly_exact, min_size=space.n,
                                                 max_size=space.n)))),
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


def brute_force_pairing(space, curve, psi, rest, sym, explicit):
    """T_{i:S} . D summed over every generator, D given by the exact values it
    was built from: psi_j for each j outside S, and each canonical member of
    each orbit (orbit_members) times the times T meets it.  A member is
    delta_{i:T} when it is (i, T) or its mirror (g-i, complement of T)."""
    g, n = space.g, space.n
    i, S = curve.i, curve.S
    labels = frozenset(space.labels)
    mult = -(2 * (g - i) - 2 + n - len(S))
    total = sum(psi[j - 1].value for j in labels - S)
    for key in boundary_orbits(space):
        for idx in orbit_members(space, *key):
            c = explicit.get(idx, sym.get(key, rest))
            for T, weight in [*((S | {j}, 1) for j in labels - S), (S, mult)]:
                if (idx.i == i and idx.S == T) or (idx.i == g - i and idx.S == labels - T):
                    total += weight * c.value
    return total


# g <= 6 and n <= 5; on (2, 1) the curve T_{1:{}} meets one divisor as
# delta_{1:{1}} and as delta_{1:{}}
BRUTE_FORCE_SPACES = [Space(2, 1), Space(2, 3), Space(3, 2), Space(4, 0), Space(4, 3),
                      Space(5, 5), Space(6, 2)]


class TestPairingBruteForce:
    """intersect_test_curve equals the sum over every member of every orbit
    on classes built from per-label psi, a rest, orbit entries and explicit
    members, all exact; a listed member's value is never its orbit's, so a
    member counted wrongly shows."""

    @pytest.mark.parametrize("space", BRUTE_FORCE_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_sum_over_every_member(self, space, data):
        small, listed = (st.integers(lo, hi).map(Coefficient.exact) for lo, hi in ((-4, 4), (5, 9)))
        orbits = list(boundary_orbits(space))
        members = [idx for key in orbits for idx in orbit_members(space, *key)]
        psi = data.draw(st.lists(small, min_size=space.n, max_size=space.n))
        rest = data.draw(small)
        sym = data.draw(st.dictionaries(st.sampled_from(orbits), small))
        explicit = {m: data.draw(listed) for m in members if data.draw(st.booleans())}
        cls = DivisorClass(space, psi=dict(zip(space.labels, psi)), boundary_rest=rest,
                           boundary_sym=sym, boundary=explicit)
        for curve in every_test_curve(space):
            assert (intersect_test_curve(cls, curve)
                    == brute_force_pairing(space, curve, psi, rest, sym, explicit)), curve


@st.composite
def row_formulas(draw):
    """A kind and a formula in s with small int coefficients over 1, 2 or 3."""
    kind = draw(st.sampled_from(["exact", "exact", "at_least", "at_most", "unknown"]))
    num = draw(st.lists(st.integers(-3, 3), max_size=3))
    return kind, num, draw(st.integers(1, 3))


def row_value(formula, s) -> Coefficient:
    """A drawn formula at s, summed term by term over Fractions."""
    kind, num, den = formula
    if kind == "unknown":
        return UNKNOWN
    return Coefficient(kind, scalar(Fraction(sum(c * s ** k for k, c in enumerate(num)), den)))


@st.composite
def row_specs(draw, space):
    """A boundary of every level: a rest, row formulas (row 0 on n < 2 has no
    orbit), orbit entries and explicit members, as drawn values and as the
    constructor arguments that store them."""
    rows = list(range(space.g // 2 + 1))
    orbits = list(boundary_orbits(space))
    members = list(all_canonical_indices(space))
    rest = draw(coefficients())
    formulas = draw(st.dictionaries(st.sampled_from(rows), row_formulas(), max_size=3))
    sym = draw(st.dictionaries(st.sampled_from(orbits), coefficients(), max_size=4))
    explicit = draw(st.dictionaries(st.sampled_from(members), coefficients(), max_size=4))
    args = dict(boundary_rest=rest, boundary_sym=sym, boundary=explicit,
                boundary_rows={i: Row.formula(*f) for i, f in formulas.items()})
    return args, (rest, formulas, sym, explicit)


def orbit_values(space, drawn) -> dict:
    """Every orbit of the space with its value, read from the drawn values:
    the orbit entry, else the row formula at s, else the rest."""
    rest, formulas, sym, _ = drawn
    return {(i, s): sym[(i, s)] if (i, s) in sym
            else row_value(formulas[i], s) if i in formulas else rest
            for i, s in boundary_orbits(space)}


def dense_boundary(space, drawn) -> dict:
    """Every canonical index of the space with its coefficient: the explicit
    member, else its orbit's value."""
    orbits, explicit = orbit_values(space, drawn), drawn[3]
    return {idx: explicit.get(idx, orbits[(idx.i, idx.s)])
            for idx in all_canonical_indices(space)}


# row 0 starts at s = 2; rows g/2 of (4, 2), (6, 3) and (8, 6) are split by label 1;
# row 0 of (5, 1) holds no orbit; (4, 0) has rows 1 and 2 only
ROW_SPACES = [Space(2, 3), Space(4, 0), Space(4, 2), Space(5, 1), Space(6, 3), Space(8, 6)]


class TestBoundaryRows:
    """A class whose rows are formulas in s is the class written out member
    by member: every accessor, sum, scaling, equality and pairing agrees with
    that dense expansion."""

    @pytest.mark.parametrize("space", ROW_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_dense_expansion(self, space, data):
        args, drawn = data.draw(row_specs(space))
        cls, dense = DivisorClass(space, **args), dense_boundary(space, drawn)
        assert all(cls.boundary_coefficient(idx.i, idx.S) == c for idx, c in dense.items())
        full = DivisorClass(space, boundary=dense)
        assert cls == full and full == cls
        listed = DivisorClass(space, boundary_sym=orbit_values(space, drawn), boundary=drawn[3])
        assert dense_document(cls) == dense_document(listed)
        assert cls.boundary_is_zero == all(c.is_zero for c in dense.values())
        check_documents(cls)
        check_documents(listed)
        for curve in every_test_curve(space):
            assert (outcome(intersect_test_curve, cls, curve)
                    == outcome(member_by_member, full, curve)), curve

    @pytest.mark.parametrize("space", ROW_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_arithmetic_and_equality_match_dense_expansion(self, space, data):
        (a_args, a_drawn), (b_args, b_drawn) = data.draw(row_specs(space)), data.draw(row_specs(space))
        a, b = DivisorClass(space, **a_args), DivisorClass(space, **b_args)
        a_dense, b_dense = dense_boundary(space, a_drawn), dense_boundary(space, b_drawn)
        total = a.add(b)
        assert all(total.boundary_coefficient(idx.i, idx.S) == c + b_dense[idx]
                   for idx, c in a_dense.items())
        k = data.draw(st.sampled_from([Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(3)]))
        scaled = a.scale(k)
        assert all(scaled.boundary_coefficient(idx.i, idx.S) == c.scaled(k)
                   for idx, c in a_dense.items())
        assert (a == b) == (b == a) == (a_dense == b_dense)

    @pytest.mark.parametrize("space", ROW_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_different_formulas_equal_where_exceptions_cover(self, space, data):
        """Two rows with different formulas are equal when orbit entries or
        explicit members make them agree at every orbit, and differ when one
        orbit is left uncovered."""
        i = data.draw(st.sampled_from([i for i in range(space.g // 2 + 1)
                                       if is_orbit(space, i, space.n)]))
        f, h = data.draw(row_formulas()), data.draw(row_formulas())
        a = DivisorClass(space, boundary_rows={i: Row.formula(*f)})
        differ = [s for s in range(space.n + 1)
                  if is_orbit(space, i, s) and row_value(f, s) != row_value(h, s)]
        by_orbit = {(i, s): row_value(f, s) for s in differ}
        b = DivisorClass(space, boundary_rows={i: Row.formula(*h)}, boundary_sym=by_orbit)
        assert a == b and b == a
        by_member = {idx: row_value(f, idx.s) for s in differ
                     for idx in orbit_members(space, i, s)}
        c = DivisorClass(space, boundary_rows={i: Row.formula(*h)}, boundary=by_member)
        assert a == c and c == a
        if differ:
            uncovered = DivisorClass(space, boundary_rows={i: Row.formula(*h)},
                                     boundary_sym=dict(list(by_orbit.items())[1:]))
            assert a != uncovered and uncovered != a

    def test_row_0_starts_at_two_labels(self):
        space = Space(4, 3)
        cls = DivisorClass(space, boundary_rows={0: Row.formula("exact", (1, 1))})
        assert [(key, str(c)) for key, c in nonzero_orbits(cls)] == [
            ((0, 2), "3"), ((0, 3), "4")]
        assert cls.boundary_coefficient(4, {3}) == Coefficient.exact(3)  # mirror of (0, {1, 2})
        with pytest.raises(UnstableIndexError):
            cls.orbit_coefficient(0, 1)
        # on one label row 0 holds no orbit: the row says nothing and is dropped,
        # so it covers nothing either, and the rests tell row 2 apart here
        assert DivisorClass(Space(4, 1), boundary_rows={0: 5}) == DivisorClass(Space(4, 1))
        assert (DivisorClass(Space(4, 1), boundary_rows={0: 5, 1: 2}, boundary_rest=1)
                != DivisorClass(Space(4, 1), boundary_rows={1: 2}, boundary_rest=3))

    def test_middle_row_is_read_by_the_members_with_label_1(self):
        # on (4, 2) row 2 is the orbits (2, 1) and (2, 2): delta_{2:{2}} is delta_{2:{1}}
        space = Space(4, 2)
        cls = DivisorClass(space, boundary_rows={2: Row.formula("at_most", (0, 2))})
        assert [key for key, _ in nonzero_orbits(cls)] == [(2, 1), (2, 2)]
        assert cls.boundary_coefficient(2, {2}) == Coefficient.at_most(2)
        assert cls.boundary_coefficient(2, set()) == Coefficient.at_most(4)
        with pytest.raises(UnstableIndexError):
            cls.orbit_coefficient(2, 0)

    def test_row_keys_are_checked(self):
        with pytest.raises(UnstableIndexError):
            DivisorClass(Space(4, 2), boundary_rows={3: 1})
        with pytest.raises(UnstableIndexError):
            DivisorClass(Space(4, 2), boundary_rows={-1: 1})
        with pytest.raises(ValueError, match="boundary row"):
            DivisorClass(Space(4, 2), boundary_rows={1.0: 1})
        with pytest.raises(TypeError):
            DivisorClass(Space(4, 2), boundary_rows={1: Row("exact", (0.5,))})
        # a Row built directly is brought to normal form
        assert (DivisorClass(Space(4, 2), boundary_rows={1: Row("exact", (2, 4), 2)})
                == DivisorClass(Space(4, 2), boundary_rows={1: Row.formula("exact", (1, 2))}))

    def test_orbit_keys_are_checked_once_per_row(self, monkeypatch):
        space = Space(8, 6)
        every_orbit = {key: 1 for key in boundary_orbits(space)}
        calls = []
        row_start = picard._row_start

        def counting(space, i):
            calls.append(i)
            return row_start(space, i)

        monkeypatch.setattr(picard, "_row_start", counting)
        DivisorClass(space, boundary_sym=every_orbit)
        assert sorted(calls) == list(range(5))
        with pytest.raises(UnstableIndexError):
            DivisorClass(space, boundary_sym={(1, 2): 1, (5, 0): 1})

    def test_row_normal_form(self):
        assert Row.formula("exact", (2, 4, 0), 6) == Row.formula("exact", [-1, -2], -3)
        assert Row.formula("exact", (2, 4), 6) == Row("exact", (1, 2), 3)
        assert Row.formula("unknown", (1,), 2) == Row("unknown")
        assert Row.const(Coefficient.at_least(Fraction(-3, 4))) == Row("at_least", (-3,), 4)
        assert Row.const(EXACT_ZERO) == Row("exact")
        assert Row("exact", (1, 1), 2).at(2) == Coefficient.exact(Fraction(3, 2))
        assert type(Row("exact", (1, 1), 2).at(3).value) is int
        with pytest.raises(TypeError):
            Row.formula("exact", (1.5,))
        with pytest.raises(ZeroDivisionError):
            Row.formula("exact", (1,), 0)


def psi_values():
    """Few distinct values, so that equal labels, ties and equal classes are common."""
    v = st.integers(-1, 2)
    return st.one_of(v.map(Coefficient.exact), v.map(Coefficient.exact),
                     v.map(Coefficient.at_least), st.just(UNKNOWN))


@st.composite
def psi_specs(draw, space):
    """psi constructor arguments of every shape (one scalar, a dict of every
    label, or a dict over a rest, which may list every label), with the
    per-label reference vector they stand for."""
    labels = list(space.labels)
    shape = draw(st.sampled_from(["scalar", "every label", "dict"]))
    if shape == "scalar":
        c = draw(psi_values())
        return dict(psi=c), [c] * space.n
    if shape == "every label":
        vec = draw(st.lists(psi_values(), min_size=space.n, max_size=space.n))
        return dict(psi=dict(zip(labels, vec))), vec
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
        folded = DivisorClass(space, psi={1: 1, 2: 2})
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

    def test_psi_rest_alone_sets_the_rest(self):
        space = Space(4, 3)
        cls = DivisorClass(space, psi_rest=5)
        assert cls.psi_rest == Coefficient.exact(5)
        assert psi_vector(cls) == [Coefficient.exact(5)] * 3
        assert cls == DivisorClass(space, psi=5)

    @pytest.mark.parametrize("psi", [0, 5, UNKNOWN])
    @pytest.mark.parametrize("psi_rest", [0, 2])
    def test_one_psi_value_with_a_rest_rejected(self, psi, psi_rest):
        with pytest.raises(ValueError, match="psi_rest"):
            DivisorClass(SPACE_53, psi=psi, psi_rest=psi_rest)

    @pytest.mark.parametrize("psi", [[1, 2, 3], (1, 2, 3)])
    def test_sequence_psi_rejected(self, psi):
        # psi lists its labels in a dict; a sequence is not read as one value per label
        with pytest.raises(TypeError):
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

    def test_layered_document(self):
        # a row is normalized on load: (0 + 2s + 4s^2) / 4 is (s + 2s^2) / 2
        doc = {"space": {"g": 5, "n": 3}, "lambda": {"exact": "1"}, "delta_irr": {"exact": "-1"},
               "psi_rest": {"exact": "2"}, "psi": {"3": {"at_least": "1"}},
               "boundary_rest": {"at_most": "-1"},
               "rows": [{"i": 1, "kind": "exact", "num": [0, 2, 4], "den": 4}],
               "boundary_sym": [{"i": 1, "s": 0, "c": "unknown"}],
               "boundary": [{"i": 2, "S": [1], "c": {"exact": "7"}}]}
        cls = class_from_dict(doc)
        assert cls == DivisorClass(
            SPACE_53, lam=1, delta_irr=-1, psi={3: Coefficient.at_least(1)}, psi_rest=2,
            boundary_rest=Coefficient.at_most(-1), boundary_rows={1: Row.formula("exact", (0, 1, 2), 2)},
            boundary_sym={(1, 0): UNKNOWN}, boundary={(2, frozenset({1})): 7})
        assert class_to_dict(cls)["rows"] == [{"i": 1, "kind": "exact", "num": [0, 1, 2], "den": 2}]
        assert repr(cls) == ("<(1)*lambda + (-1)*delta_irr + (2)*psi_* + (>=1)*psi_3 + (<=-1)*delta_[*]"
                             " + (s^2 + 1/2*s)*delta_[1:|S|=s] + (?)*delta_[1:|S|=0]"
                             " + (7)*delta_{2:{1}} on (g=5, n=3)>")

    def test_missing_layers_read_as_zero(self):
        doc = {"space": {"g": 5, "n": 3}, "lambda": {"exact": "1"}, "delta_irr": {"exact": "0"},
               "psi": {"1": {"exact": "4"}}, "boundary_sym": [{"i": 1, "s": 2, "c": {"exact": "5"}}]}
        assert class_from_dict(doc) == DivisorClass(SPACE_53, lam=1, psi={1: 4},
                                                    boundary_sym={(1, 2): 5})

    ROW = {"i": 1, "kind": "exact", "num": [1, 2], "den": 3}

    @pytest.mark.parametrize("field,value", [
        ("rows", [{**ROW, "den": 0}]),
        ("rows", [{**ROW, "kind": "unknown", "den": 0}]),
        ("rows", [{**ROW, "num": [1, 2.0]}]),
        ("rows", [{**ROW, "num": [True]}]),
        ("rows", [{**ROW, "num": "12"}]),
        ("rows", [{**ROW, "den": True}]),
        ("rows", [{**ROW, "den": "3"}]),
        ("rows", [{**ROW, "kind": "about"}]),
        ("rows", [{**ROW, "kind": ["exact"]}]),
        ("rows", [ROW, {**ROW, "num": [5]}]),
        ("rows", [{**ROW, "i": 3}]),
        ("rows", [{**ROW, "i": -1}]),
        ("rows", [{**ROW, "i": 1.0}]),
        ("rows", [{"i": 1, "kind": "exact", "num": [1]}]),
        ("rows", "1"),
        ("psi_rest", {"exact": 2}),
        ("psi_rest", "zero"),
        ("boundary_rest", {"at_least": "1/0"}),
        ("boundary_rest", None),
        # S is a JSON array of distinct labels: iterating "" or {} reads as the
        # empty set, and [1, 1] as {1}
        ("boundary", [{"i": 1, "S": "", "c": {"exact": "-5"}}]),
        ("boundary", [{"i": 1, "S": {}, "c": {"exact": "-5"}}]),
        ("boundary", [{"i": 1, "S": [1, 1], "c": {"exact": "-5"}}]),
    ])
    def test_malformed_layer_rejected(self, field, value):
        doc = class_to_dict(DivisorClass(SPACE_53))
        doc[field] = value
        with pytest.raises(MalformedClassError):
            class_from_dict(doc)

    def test_malformed_document(self):
        for doc in ([1, 2, 3], "[1, 2, 3]", 5):  # a document that is not a JSON object
            with pytest.raises(MalformedClassError):
                class_from_dict(doc)
        with pytest.raises(MalformedClassError):
            class_from_dict({"space": {"g": 5, "n": 3}})


def relabelled(cls, perm):
    """cls with every label j renamed perm[j - 1], written out member by member."""
    space = cls.space

    def moved(S):
        return frozenset(perm[j - 1] for j in S)

    return DivisorClass(
        space, lam=cls.lam, delta_irr=cls.delta_irr,
        psi={perm[j - 1]: cls.psi_coefficient(j) for j in space.labels},
        boundary={(idx.i, moved(idx.S)): cls.boundary_coefficient(idx.i, idx.S)
                  for idx in all_canonical_indices(space)})


def dense_average(cls):
    """The sum of every relabelling of cls, scaled by 1/n!."""
    perms = list(permutations(cls.space.labels))
    total = relabelled(cls, perms[0])
    for perm in perms[1:]:
        total = total.add(relabelled(cls, perm))
    return total.scale(Fraction(1, len(perms)))


@st.composite
def symmetrize_classes(draw, space):
    """A class with listed psi, rows, orbit entries and explicit members,
    bounds and Unknown included."""
    psi, _ = draw(psi_specs(space))
    boundary, _ = draw(row_specs(space))
    return DivisorClass(space, lam=draw(coefficients()), delta_irr=draw(coefficients()),
                        **psi, **boundary)


# n <= 4, so at most 24 relabellings; rows g/2 of (4, 2), (6, 3) and (4, 4) are
# split by label 1, and there (g/2, s) and (g/2, n-s) are one orbit of the relabellings
SYMMETRIZE_SPACES = [Space(2, 0), Space(2, 3), Space(4, 2), Space(5, 1), Space(6, 3),
                     Space(3, 4), Space(4, 4)]


class TestSymmetrized:
    @pytest.mark.parametrize("space", SYMMETRIZE_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_the_dense_average(self, space, data):
        cls = data.draw(symmetrize_classes(space))
        sym = cls.symmetrized()
        assert sym == dense_average(cls)
        assert sym.psi_symmetric and sym.boundary_items() == []
        again = sym.symmetrized()
        assert again == sym and dense_document(again) == dense_document(sym)

    @pytest.mark.parametrize("space", SYMMETRIZE_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_add_and_scale(self, space, data):
        a, b = data.draw(symmetrize_classes(space)), data.draw(symmetrize_classes(space))
        assert a.add(b).symmetrized() == a.symmetrized().add(b.symmetrized())
        k = data.draw(st.sampled_from([Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(3)]))
        assert a.scale(k).symmetrized() == a.symmetrized().scale(k)

    def test_middle_row_orbits_share_their_mean(self):
        # on (4, 3), delta_{2:{1}} = delta_{2:{2,3}}: relabelling it gives the
        # three divisors delta_{2:{j}}, one in (2, 1) and two in (2, 2)
        space = Space(4, 3)
        sym = DivisorClass(space, boundary_sym={(2, 1): 3}).symmetrized()
        assert sym.orbit_coefficient(2, 1) == sym.orbit_coefficient(2, 2) == Coefficient.exact(1)
        row = DivisorClass(space, boundary_rows={2: Row.formula("at_least", (0, 3))})
        # s f(s) + (n-s) f(n-s) over n, for f(s) = 3s: (3s^2 + 3(3-s)^2) / 3
        assert row.symmetrized().orbit_coefficient(2, 1) == Coefficient.at_least(5)
        assert row.symmetrized().orbit_coefficient(2, 3) == Coefficient.at_least(9)

    @pytest.mark.parametrize("t", range(7))
    def test_identity_on_the_family(self, t):
        q = quad_class(t)
        assert q.symmetrized() == q
        assert serialize(q.symmetrized()) == serialize(q)

    @pytest.mark.parametrize("g,n", [(2, 3), (4, 3), (6, 5), (12, 10), (16, 8), (17, 8)])
    def test_identity_on_the_canonical_class(self, g, n):
        k = canonical_class(g, n)
        assert k.symmetrized() == k

    def test_reads_listed_entries_only(self, boundary_orbit_yields):
        q = quad_class(40)
        yielded = boundary_orbit_yields()
        q.symmetrized()
        assert yielded == []


# n = 0, where the psi rest is 0 and delta_{g/2:{}} is its own mirror; n = 1,
# where row 0 holds no orbit; and even g with n >= 1, whose middle row g/2 is
# split by label 1
STORE_SPACES = [Space(2, 0), Space(4, 0), Space(3, 1), Space(4, 1), Space(4, 3), Space(6, 2)]


def assert_stored_normal(cls):
    """cls is stored in normal form: no stored entry equals its layer's rest,
    a psi that lists every label is folded (on n = 0 its rest is Exact(0)),
    and every stored row, orbit and member exists on the space.  Its document
    reloads to a class that is equal both ways, stores the same layers and
    writes the same bytes."""
    space = cls.space
    assert cls.psi_rest == EXACT_ZERO if space.n == 0 else len(cls._psi) < space.n
    assert all(1 <= j <= space.n and c != cls.psi_rest for j, c in cls._psi.items())
    assert all(is_orbit(space, i, space.n) and row != Row.const(cls._rest)
               for i, row in cls._rows.items())
    assert all(is_orbit(space, *key) and c != cls._row(key[0]).at(key[1])
               for key, c in cls._orbits.items())
    for key, members in cls._explicit.items():
        value = cls.orbit_coefficient(*key)
        assert members and all(canonical_index(space, idx.i, idx.S) == idx
                               and (idx.i, idx.s) == key and c != value
                               for idx, c in members.items())
    again = check_documents(cls)
    assert cls == again


class TestClassDocuments:
    """A class document lists what the class stores: it loads to an equal
    class with the same stored layers and writes the same bytes again, and
    the dense document (every psi label and non-zero orbit) loads to an equal
    class through the same reader.  The rest and row strategies are checked
    in TestBoundaryRest and TestBoundaryRows."""

    @given(simple_classes(SPACE_53))
    @settings(max_examples=40)
    def test_simple_classes(self, cls):
        check_documents(cls)

    @given(scalar_spec_classes(SPACE_53))
    @settings(max_examples=40)
    def test_scalar_spec_classes(self, cls):
        check_documents(cls)

    @pytest.mark.parametrize("space", PSI_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_psi_layers(self, space, data):
        spec, _ = data.draw(psi_specs(space))
        check_documents(DivisorClass(space, **spec))

    @pytest.mark.parametrize("space", SYMMETRIZE_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_symmetrize_classes(self, space, data):
        cls = data.draw(symmetrize_classes(space))
        check_documents(cls)
        check_documents(cls.symmetrized())

    def test_built_in_and_preset_classes(self):
        classes = [e.cls for e in _CATALOG.values()]
        classes += [bn5_pullback(), averaged_class(16), averaged_class(17),
                    canonical_class(16, 8), quad_class(0), quad_class(3)]
        for cls in classes:
            check_documents(cls)
            assert len(serialize(cls)) <= 530

    @pytest.mark.parametrize("space", STORE_SPACES, ids=str)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_every_stored_class_is_normal(self, space, data):
        """Arithmetic and the package's class builders store their layers
        without the public constructor; each result is stored as the
        constructor would store it, so its document reloads to the same bytes."""
        a = data.draw(symmetrize_classes(space))
        b = DivisorClass(space, **data.draw(rest_specs(space)))
        k = data.draw(st.sampled_from([0, -1, 2, Fraction(-1, 2), Fraction(1, 3)]))
        power, twist = data.draw(st.integers(1, 3)), data.draw(st.integers(-3, 3))
        assume(power * (2 * space.g - 2) + twist * space.n >= 0)
        pushed = c1_pushforward(space, power, twist)
        for x in (a, b, a.add(b), b.add(a), a.scale(k), a.add(a.scale(-1)), a.symmetrized(),
                  b.symmetrized().scale(k), total_boundary(space, k), pushed, pushed.add(a)):
            assert_stored_normal(x)

    @pytest.mark.parametrize("t", range(5))
    def test_every_stored_family_class_is_normal(self, t):
        q = quad_class(t)
        e, f = c1_pushforward(q.space, 1, -1), c1_pushforward(q.space, 2, -2)
        for x in (q, q.add(q), q.scale(Fraction(-1, 2)), q.scale(0), q.symmetrized(),
                  q.add(total_boundary(q.space, 1)), f.add(e.scale(-(t + 5))).add(q.scale(-1))):
            assert_stored_normal(x)

    @pytest.mark.parametrize("t", [40, 200])
    def test_large_family_classes(self, t):
        # the dense document would list every orbit: only the layers are checked
        cls = quad_class(t)
        again = deserialize(serialize(cls))
        assert again == cls and stored_layers(again) == stored_layers(cls)
        assert serialize(again) == serialize(cls) and len(serialize(cls)) <= 530
