import json
from fractions import Fraction

import pytest

from mgn_divisors import certificates, checks
from mgn_divisors.certificates import (
    RECIPES,
    CertificateError,
    InfeasibleCertificateError,
    NegativeCoefficientError,
    UnderdeterminedCertificateError,
    bn_class,
    canonical_class,
    catalog_get,
    catalog_load,
    certificate_components,
    certify,
    perturbation_sound,
    solve_certificate,
)
from mgn_divisors.family import pic12_reduce
from mgn_divisors.picard import (
    Coefficient, DivisorClass, MalformedClassError, Space,
    TestCurve as Pencil, UNKNOWN, boundary_orbits,
    class_to_dict, intersect_test_curve)
from mgn_divisors.pullbacks import forgetful_pullback

from conftest import dense_document, run_records, write_catalog

BUILTIN_NAMES = ["BN17", "BN5_3", "D12", "F12_10", "Z16"]


class TestCanonicalClass:
    def test_small_space(self):
        k = canonical_class(5, 2)
        assert k.lam == Coefficient.exact(13)
        assert all(k.psi_coefficient(j) == Coefficient.exact(1) for j in k.space.labels)
        assert k.delta_irr == Coefficient.exact(-2)
        assert k.boundary_coefficient(1, set()) == Coefficient.exact(-3)
        assert k.boundary_coefficient(1, {1}) == Coefficient.exact(-2)
        assert k.boundary_coefficient(2, set()) == Coefficient.exact(-2)
        assert k.boundary_coefficient(0, {1, 2}) == Coefficient.exact(-2)

    def test_pre_canonical_index_resolves(self):
        k = canonical_class(5, 2)
        # delta_{4:{1,2}} mirrors to delta_{1:{}}
        assert k.boundary_coefficient(4, {1, 2}) == Coefficient.exact(-3)

    @pytest.mark.parametrize("g", [5, 12, 16])
    def test_unmarked_is_harris_mumford(self, g):
        """Harris-Mumford: K = 13 lambda - 2 delta_0 - 3 delta_1 - 2 sum_{i>=2} delta_i."""
        space = Space(g, 0)
        harris_mumford = DivisorClass(
            space, lam=13, delta_irr=-2,
            boundary_sym={(i, 0): -3 if i == 1 else -2 for i in range(1, g // 2 + 1)})
        k = canonical_class(g, 0)
        assert k == harris_mumford
        assert dense_document(k) == dense_document(harris_mumford)

    @pytest.mark.parametrize("g,n", [(2, 3), (2, 1), (3, 1), (4, 2), (5, 3), (6, 4),
                                     (12, 10), (16, 8), (17, 8)])
    def test_matches_every_orbit_written_out(self, g, n):
        """Logan, Thm 2.6: K = 13 lambda - 2 delta_irr + sum psi_j - 2 sum delta_{i:S}
        - delta_{1:{}}.  The g = 2 cases pin only where delta_{1:{}} is stored:
        there is no (1, 0) orbit, so it is its mirror delta_{1:{1..n}}, the
        orbit (1, n)."""
        space = Space(g, n)
        elliptic_tail = (1, 0) if g > 2 else (1, n)
        written_out = DivisorClass(
            space, lam=13, psi=1, delta_irr=-2,
            boundary_sym={key: -3 if key == elliptic_tail else -2
                          for key in boundary_orbits(space)})
        k = canonical_class(g, n)
        assert k == written_out
        assert dense_document(k) == dense_document(written_out)


class TestBrillNoetherClass:
    # every g with g + 1 <= 60 composite
    COMPOSITE = [g for g in range(2, 60) if any((g + 1) % p == 0 for p in range(2, g + 1))]

    def test_genus_5_is_the_classical_divisor(self):
        # the values BN5_3 was typed with: 8 lambda - delta_irr - 4 delta_1 - 6 delta_2
        typed = DivisorClass(Space(5, 0), lam=8, delta_irr=-1,
                             boundary_sym={(1, 0): -4, (2, 0): -6})
        assert bn_class(5) == typed
        assert dense_document(bn_class(5)) == dense_document(typed)

    def test_coefficients(self):
        cls = bn_class(17)
        assert cls.space == Space(17, 0)
        assert cls.lam == Coefficient.exact(20)
        assert cls.delta_irr == Coefficient.exact(-3)
        assert [cls.boundary_coefficient(i, ()) for i in range(1, 9)] == [
            Coefficient.exact(-i * (17 - i)) for i in range(1, 9)]
        assert bn_class(3).delta_irr == Coefficient.exact(Fraction(-2, 3))

    @pytest.mark.parametrize("g", [2, 4, 6, 10, 12, 16])
    def test_prime_g_plus_1_has_no_divisor(self, g):
        with pytest.raises(ValueError, match="prime"):
            bn_class(g)

    def test_pairs_to_zero_with_the_plane_cubic_pencil(self):
        """A pencil of plane cubics glued to a fixed genus-(g-1) curve at a base
        point moves in delta_1 with (lambda, delta_irr, delta_1) = (1, 12, -1);
        a divisor not containing delta_1 pairs with it to >= 0, and the
        Brill-Noether class pairs to exactly (g+3) - 2(g+1) + (g-1) = 0."""
        pencil_lam, pencil_irr, pencil_d1 = 1, 12, -1
        # the pencil's (lambda, delta_irr) numbers satisfy 12 lambda = delta_irr
        assert pic12_reduce({"lambda": 12, "delta_irr": -1}) == (0, 0)
        assert 12 * pencil_lam - pencil_irr == 0
        assert len(self.COMPOSITE) == 42  # g + 1 in 3..60: 58 values, 16 prime
        for g in self.COMPOSITE:
            cls = bn_class(g)
            pairing = (pencil_lam * cls.lam.value + pencil_irr * cls.delta_irr.value
                       + pencil_d1 * cls.boundary_coefficient(1, ()).value)
            assert pairing == 0, g


class TestCatalog:
    def test_builtin_names(self):
        assert [catalog_get(name).name for name in BUILTIN_NAMES] == BUILTIN_NAMES

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog_get("NOPE")

    def test_bn5_values(self):
        cls = catalog_get("BN5_3").cls
        assert cls.space == Space(5, 0)
        assert cls.lam == Coefficient.exact(8)
        assert cls.delta_irr == Coefficient.exact(-1)
        assert [cls.boundary_coefficient(i, ()) for i in (1, 2)] == [
            Coefficient.exact(-4), Coefficient.exact(-6)]

    def test_bn_entries_are_the_formula(self):
        assert catalog_get("BN5_3").cls == bn_class(5)
        bn17 = catalog_get("BN17").cls
        assert bn17 == forgetful_pullback(bn_class(17), 8)
        assert (bn17.space, bn17.lam, bn17.delta_irr) == (
            Space(17, 8), Coefficient.exact(20), Coefficient.exact(-3))

    def test_bn17_boundary_is_exact(self):
        bn17 = catalog_get("BN17").cls
        for i, s in boundary_orbits(bn17.space):
            assert bn17.orbit_coefficient(i, s) == Coefficient.exact(-i * (17 - i)), (i, s)
        assert not bn17.boundary_items()

    def test_bn17_projection_formula(self):
        """<pi^* D, T> = <D, pi_* T>: forgetting the points maps T_{i:S} onto a
        pencil whose moving node has degree 2 - 2(17-i) on delta_i."""
        bn17 = catalog_get("BN17").cls
        space = bn17.space
        curves = 0
        for i in range(0, 18):
            for s in range(0, 9):
                try:
                    curve = Pencil(space, i, range(1, s + 1))
                except ValueError:
                    continue
                curves += 1
                assert intersect_test_curve(bn17, curve) == (2 - 2 * (17 - i)) * -i * (17 - i)
        assert curves == 157

    def test_unpublished_tails_are_unknown(self):
        z16 = catalog_get("Z16").cls
        assert z16.space == Space(16, 0)
        assert z16.lam == Coefficient.exact(407)
        assert z16.delta_irr == Coefficient.exact(-61)
        assert all(z16.boundary_coefficient(i, ()) == UNKNOWN for i in range(1, 9))

    def test_dump_load_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        write_catalog(path, [catalog_get("BN5_3")])
        cat = catalog_load(path)
        assert cat["BN5_3"].cls == catalog_get("BN5_3").cls
        assert "Z16" in cat  # built-ins are kept

    def test_dump_load_round_trips_every_builtin(self, tmp_path):
        builtins = {name: catalog_get(name) for name in BUILTIN_NAMES}
        path = tmp_path / "catalog.json"
        write_catalog(path, builtins.values())
        # the file names every built-in, so the merged catalog is exactly the built-ins
        assert catalog_load(path) == builtins

    def test_legacy_unmarked_entry_is_malformed(self, tmp_path):
        doc = {"entries": [{"name": "Z16", "kind": "unmarked", "class": {
            "g": 16, "lambda": {"exact": "407"}, "delta": {"0": {"exact": "-61"}}}}]}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedClassError):
            catalog_load(path)

    def test_unmarked_entry_loads_as_a_class_on_n_0(self, tmp_path):
        cls = DivisorClass(Space(16, 0), lam=400, delta_irr=-60,
                           boundary_sym={(8, 0): -1}, boundary_rest=UNKNOWN)
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [{"name": "Z16", "class": class_to_dict(cls)}]}))
        assert catalog_load(path)["Z16"].cls == cls

    def test_load_override(self, tmp_path):
        doc = {"entries": [{
            "name": "BN17",
            "kind": "marked",
            "class": {
                "space": {"g": 17, "n": 8},
                "lambda": {"exact": "21"},
                "delta_irr": {"exact": "-3"},
            },
        }]}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        cat = catalog_load(path)
        assert cat["BN17"].cls.lam == Coefficient.exact(21)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [{"name": "X"}]}))
        with pytest.raises(Exception):
            catalog_load(path)


EXPECTED = {
    (16, 8): (Fraction(13, 272), (Fraction(7, 272), Fraction(1, 34))),
    (17, 8): (Fraction(1, 20), (Fraction(1, 20), Fraction(3, 5))),
    (12, 10): (Fraction(59, 4415), (Fraction(13, 13245), Fraction(484, 4415))),
}


class TestSolveCertificate:
    @pytest.mark.parametrize("g,n", sorted(EXPECTED))
    def test_supported_spaces(self, g, n):
        a_want, cs_want = EXPECTED[(g, n)]
        cert = certify(g, n)
        assert cert.a == a_want
        assert tuple(c for _, c in cert.components) == cs_want

    @pytest.mark.parametrize("g,n", sorted(EXPECTED))
    def test_no_float_reaches_the_certificate(self, g, n):
        # a and c_k come from solve_linear over Fractions; the residual's
        # coefficients are stored as an int when integral, else a Fraction
        cert = certify(g, n)
        assert all(type(x) in (int, Fraction) for x in (cert.a, *(c for _, c in cert.components)))
        res = cert.residual
        coefficients = [res.lam, res.delta_irr, res.psi_rest,
                        *(res.orbit_coefficient(*key) for key in boundary_orbits(res.space)),
                        *(c for _, c in res.boundary_items())]
        values = [c.value for c in coefficients if c.kind != "unknown"]
        assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
                   for v in values)

    @pytest.mark.parametrize("g,n", sorted(EXPECTED))
    def test_residual_interior_vanishes(self, g, n):
        res = certify(g, n).residual
        assert res.lam.is_zero
        assert res.delta_irr.is_zero
        assert all(res.psi_coefficient(j).is_zero for j in res.space.labels)

    @pytest.mark.parametrize("g,n", sorted(EXPECTED))
    def test_perturbation_soundness(self, g, n):
        assert perturbation_sound(certify(g, n))

    def test_sweep_builds_each_canonical_class_once(self, monkeypatch):
        """K is built once per space and shared by the certificate and the
        perturbation probe; the probe solves only the interior."""
        build = certificates.canonical_class
        built = []

        def counting(g, n):
            built.append((g, n))
            return build(g, n)

        for module in (certificates, checks):
            monkeypatch.setattr(module, "canonical_class", counting, raising=False)
        records = list(run_records(checks.check_certificates()))
        assert built == [(16, 8), (17, 8), (12, 10)]
        assert len(records) == 6 and all(ok for *_, ok in records)

    def test_certificate_keeps_its_canonical_class_and_inputs(self):
        cert = certify(17, 8)
        assert cert.canonical == canonical_class(17, 8)
        assert [nm for nm, _ in cert.inputs] == ["D_17_8", "BN17"]
        assert [cls for _, cls in cert.inputs] == [cls for _, cls in certificate_components(17, 8)]
        assert set(cert.to_json()) == {"space", "a", "components", "residual"}

    def test_perturbation_guard_catches_a_solver_that_ignores_its_inputs(self, monkeypatch):
        cert = certify(17, 8)
        own = (cert.a, tuple(c for _, c in cert.components))
        monkeypatch.setattr(certificates, "_solve_interior", lambda canonical, components: own)
        assert not perturbation_sound(cert)

    def test_a_residual_interior_that_does_not_vanish_is_refused(self, monkeypatch):
        """The check survives `python -O`: a CertificateError, not an assert."""
        solve = certificates._solve_interior

        def wrong_a(canonical, components):
            a, cs = solve(canonical, components)
            return a + 1, cs

        monkeypatch.setattr(certificates, "_solve_interior", wrong_a)
        with pytest.raises(CertificateError, match="interior does not vanish"):
            certify(16, 8)

    def test_residual_report_covers_all_orbits(self):
        cert = certify(17, 8)
        statuses = {st for _, _, st in cert.residual_report}
        assert statuses <= {"zero", "nonnegative", "negative", "unknown"}
        assert cert.residual_report  # non-empty

    def test_to_json_is_stable(self):
        a = json.dumps(certify(16, 8).to_json(), sort_keys=True)
        b = json.dumps(certify(16, 8).to_json(), sort_keys=True)
        assert a == b

    def test_asymmetric_component_rejected(self):
        space = Space(17, 8)
        bad = DivisorClass(space, psi={1: 1})
        with pytest.raises(CertificateError, match="symmetric"):
            solve_certificate(space, [("bad", bad)])

    def test_inexact_interior_rejected(self):
        space = Space(17, 8)
        bad = DivisorClass(space, lam=UNKNOWN)
        with pytest.raises(CertificateError, match="non-exact"):
            solve_certificate(space, [("bad", bad)])

    def test_infeasible(self):
        space = Space(17, 8)
        # only psi-free, delta-free lambda multiples cannot hit delta_irr = -2
        comp = DivisorClass(space, lam=1)
        with pytest.raises(InfeasibleCertificateError):
            solve_certificate(space, [("lam_only", comp)])

    def test_underdetermined(self):
        space = Space(17, 8)
        comps = certificate_components(17, 8)
        doubled = comps + [(f"{nm}_copy", cls) for nm, cls in comps]
        with pytest.raises(UnderdeterminedCertificateError):
            solve_certificate(space, doubled)

    def test_negative_coefficient(self):
        space = Space(17, 8)
        comps = certificate_components(17, 8)
        flipped = [(nm, cls.scale(-1)) for nm, cls in comps]
        with pytest.raises(NegativeCoefficientError):
            solve_certificate(space, flipped)

    def test_unsupported_space(self):
        with pytest.raises(ValueError, match="no certificate recipe"):
            certify(9, 2)

    def test_psi_sum_is_the_big_class(self):
        cls = DivisorClass(Space(5, 3), psi=1)
        assert all(cls.psi_coefficient(j) == Coefficient.exact(1) for j in cls.space.labels)
        assert cls.lam.is_zero and cls.delta_irr.is_zero and cls.boundary_is_zero

    @pytest.mark.parametrize("orbit_value,status", [
        (Coefficient.at_least(1), "negative"),      # -2 - 2 * (>=1) is <=-4
        (Coefficient.at_least(-1), "unknown"),      # <=0: zero or negative
        (Coefficient.at_least(-3), "unknown"),      # <=4
        (Coefficient.at_most(-2), "nonnegative"),   # >=2
        (Coefficient.exact(-1), "zero"),
    ])
    def test_bounded_residual_status(self, orbit_value, status):
        """A bounded residual reads the status that its bound proves."""
        space = Space(5, 2)
        components = [
            ("lam", DivisorClass(space, lam=1)),
            ("irr", DivisorClass(space, delta_irr=-1, boundary_sym={(1, 1): orbit_value})),
        ]
        cert = solve_certificate(space, components)
        assert (cert.a, [c for _, c in cert.components]) == (1, [13, 2])
        # K is -2 on the (1, 1) orbit and the irr component has coefficient 2
        assert ("orbit", (1, 1), status) in cert.residual_report

    def test_explicit_residual_row_is_reported(self):
        """A residual entry on one index, not a whole orbit, is a row of its own:
        the report lists it after the orbit rows, and to_json shows it."""
        space = Space(5, 2)
        components = [
            ("lam", DivisorClass(space, lam=1)),
            ("irr", DivisorClass(space, delta_irr=-1, boundary={(1, frozenset({1})): -1})),
        ]
        cert = solve_certificate(space, components)
        assert (cert.a, [c for _, c in cert.components]) == (1, [13, 2])
        # K has -2 at delta_{1:{1}}; minus 2 * (-1) leaves 0 there, and -2 on the rest of (1, 1)
        assert cert.residual_report[-1] == ("index", (1, (1,)), "zero")
        boundary = cert.to_json()["residual"]["boundary"]
        assert boundary[-1] == {"i": 1, "S": [1], "status": "zero"}
        assert {"i": 1, "s": 1, "status": "negative"} in boundary
        assert all("s" in row for row in boundary[:-1])


class TestRecipes:
    @pytest.mark.parametrize("g,n", sorted(RECIPES))
    def test_components_follow_the_recipe(self, g, n):
        comps = certificate_components(g, n)
        assert [nm for nm, _ in comps] == [nm for nm, _ in RECIPES[(g, n)]]
        assert all(cls.space == Space(g, n) for _, cls in comps)

    def test_every_recipe_is_checked_against_published_values(self):
        """A recipe added without a reference value in check_certificates fails here."""
        checked = {values for op, values, *_ in run_records(checks.check_certificates())
                   if op.name == "certificate"}
        assert checked == set(RECIPES)

    def test_tails_that_miss_the_genus_fail_where_the_map_is_built(self, monkeypatch):
        # two rational tails on genus 16 reach genus 16, not the family's 17
        monkeypatch.setitem(certificates.RECIPES, (16, 8), (("D_16_8", (0, 0, 8)), ("Z16", None)))
        with pytest.raises(ValueError, match="genus bookkeeping"):
            certificate_components(16, 8)
