import json
from fractions import Fraction

import pytest

from mgn_divisors.certificates import (
    CertificateError,
    InfeasibleCertificateError,
    NegativeCoefficientError,
    UnderdeterminedCertificateError,
    canonical_class,
    catalog_dump,
    catalog_get,
    catalog_load,
    catalog_names,
    perturbation_sound,
    solve_certificate,
)
from mgn_divisors.picard import (
    Coefficient, DivisorClass, MalformedClassError, Space, UNKNOWN, boundary_orbits,
    class_to_dict, serialize)
from mgn_divisors.presets import certificate_components, certify


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
        assert serialize(k) == serialize(harris_mumford)

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
        assert serialize(k) == serialize(written_out)


class TestCatalog:
    def test_builtin_names(self):
        assert catalog_names() == ["BN17", "BN5_3", "D12", "F12_10", "Z16"]

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

    def test_unpublished_tails_are_unknown(self):
        z16 = catalog_get("Z16").cls
        assert z16.space == Space(16, 0)
        assert z16.lam == Coefficient.exact(407)
        assert z16.delta_irr == Coefficient.exact(-61)
        assert all(z16.boundary_coefficient(i, ()) == UNKNOWN for i in range(1, 9))

    def test_dump_load_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog_dump({"BN5_3": catalog_get("BN5_3")})))
        cat = catalog_load(path)
        assert cat["BN5_3"].cls == catalog_get("BN5_3").cls
        assert "Z16" in cat  # built-ins are kept

    def test_dump_load_round_trips_every_builtin(self, tmp_path):
        builtins = {name: catalog_get(name) for name in catalog_names()}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog_dump(builtins)))
        assert catalog_load(path) == builtins
        assert all(set(entry) == {"name", "class", "note"}
                   for entry in catalog_dump(builtins)["entries"])

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
    def test_residual_interior_vanishes(self, g, n):
        res = certify(g, n).residual
        assert res.lam.is_zero
        assert res.delta_irr.is_zero
        assert all(res.psi_coefficient(j).is_zero for j in res.space.labels)

    @pytest.mark.parametrize("g,n", sorted(EXPECTED))
    def test_perturbation_soundness(self, g, n):
        assert perturbation_sound(Space(g, n), certificate_components(g, n))

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
