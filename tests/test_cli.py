import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mgn_divisors
from mgn_divisors.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


class TestTable:
    def test_default_rows(self, runner):
        result = runner.invoke(main, ["table"])
        assert result.exit_code == 0
        assert "5    1" in result.output
        assert "38   28" in result.output

    def test_json(self, runner):
        result = runner.invoke(main, ["table", "--t-max", "2", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["rows"] == [
            {"t": 0, "g": 5, "n": 1},
            {"t": 1, "g": 8, "n": 3},
            {"t": 2, "g": 12, "n": 6},
        ]


class TestClass:
    def test_quad_human(self, runner):
        result = runner.invoke(main, ["class", "quad", "--t", "0"])
        assert result.exit_code == 0
        assert "(8)*lambda" in result.output

    def test_quad_json_is_exact(self, runner):
        result = runner.invoke(main, ["class", "quad", "--t", "1", "--json"])
        doc = json.loads(result.output)
        assert doc["lambda"] == {"exact": "7"}
        assert doc["delta_irr"] == {"exact": "-1"}

    def test_canonical(self, runner):
        result = runner.invoke(main, ["class", "canonical", "--g", "5", "--n", "2", "--json"])
        doc = json.loads(result.output)
        assert doc["lambda"] == {"exact": "13"}

    def test_canonical_unmarked(self, runner):
        result = runner.invoke(main, ["class", "canonical", "--g", "5", "--n", "0", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["psi"] == {}
        assert doc["boundary_sym"] == [{"c": {"exact": "-3"}, "i": 1, "s": 0},
                                       {"c": {"exact": "-2"}, "i": 2, "s": 0}]

    def test_missing_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["class", "quad"])
        assert result.exit_code == 2
        assert "--t" in result.output


class TestPullback:
    def test_presets(self, runner):
        for preset, lam in [("bn5-to-51", "8"), ("quad3-to-168", "40"),
                            ("quad3-to-178", "20")]:
            result = runner.invoke(main, ["pullback", "--preset", preset, "--json"])
            assert result.exit_code == 0
            assert json.loads(result.output)["lambda"] == {"exact": lam}

    def test_unknown_preset(self, runner):
        result = runner.invoke(main, ["pullback", "--preset", "nope"])
        assert result.exit_code == 2


class TestVerify:
    @pytest.mark.parametrize("suite", ["balance", "pic12", "pullbacks", "certificates"])
    def test_suites_pass(self, runner, suite):
        result = runner.invoke(main, ["verify", suite])
        assert result.exit_code == 0
        assert "checks passed" in result.output

    def test_all_json(self, runner):
        result = runner.invoke(main, ["verify", "all", "--t-max", "2", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["summary"]["all_pass"] is True
        assert doc["summary"]["total"] > 100
        assert all(r["pass"] for r in doc["records"])

    def test_spot_values_appear_in_report(self, runner):
        result = runner.invoke(main, ["verify", "recurrences", "--t-max", "1", "--json"])
        doc = json.loads(result.output)
        by_key = {
            (r["op"], tuple(sorted(r["inputs"].items()))): r for r in doc["records"]
        }
        spot_a = by_key[("tilde_recurrence", (("i", 0), ("s", 1), ("t", 1)))]
        assert spot_a["lhs"] == "10"
        spot_b = by_key[("b1_recurrence", (("s", 1), ("t", 1)))]
        assert spot_b["lhs"] == "44"

    def test_json_byte_stable(self, runner):
        a = runner.invoke(main, ["verify", "grr", "--t-max", "3", "--json"]).output
        b = runner.invoke(main, ["verify", "grr", "--t-max", "3", "--json"]).output
        assert a == b

    def test_unknown_suite(self, runner):
        result = runner.invoke(main, ["verify", "everything"])
        assert result.exit_code == 2


class TestCertify:
    def test_16_8(self, runner):
        result = runner.invoke(main, ["certify", "--g", "16", "--n", "8", "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["a"] == "13/272"
        assert doc["components"] == [
            {"c": "7/272", "name": "D_16_8"},
            {"c": "1/34", "name": "Z16"},
        ]

    def test_human_readable(self, runner):
        result = runner.invoke(main, ["certify", "--g", "12", "--n", "10"])
        assert result.exit_code == 0
        assert "a = 59/4415" in result.output

    def test_unsupported_space_is_usage_error(self, runner):
        result = runner.invoke(main, ["certify", "--g", "9", "--n", "2"])
        assert result.exit_code == 2

    def test_index_rows_are_printed(self, runner, tmp_path):
        """An exact catalog boundary with one explicit entry leaves a residual
        row on that index, printed after the orbit rows in both outputs."""
        d12 = {"space": {"g": 12, "n": 0}, "lambda": {"exact": "13245"},
               "delta_irr": {"exact": "-1926"}}
        f12 = {"space": {"g": 12, "n": 10}, "lambda": {"exact": "0"},
               "psi": {str(j): {"exact": "9"} for j in range(1, 11)},
               "delta_irr": {"exact": "-1"},
               "boundary": [{"i": 1, "S": [1], "c": {"exact": "-5"}}]}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [{"name": "D12", "class": d12},
                                                {"name": "F12_10", "class": f12}]}))
        args = ["certify", "--g", "12", "--n", "10", "--catalog", str(path)]
        text = runner.invoke(main, args)
        assert text.exit_code == 0
        assert text.output.splitlines()[-1] == "  residual delta[1:{1}]: negative"
        doc = json.loads(runner.invoke(main, [*args, "--json"]).output)
        assert doc["a"] == "59/4415"
        assert doc["residual"]["boundary"][-1] == {"i": 1, "S": [1], "status": "negative"}

    def test_bounded_residual_reads_negative(self, runner, tmp_path):
        """A residual known only as <= v with v < 0 is negative: at (0, 2) the
        residual is -2 - (484/4415) * (>=40), and D12 pulls back to 0 there."""
        d12 = {"space": {"g": 12, "n": 0}, "lambda": {"exact": "13245"},
               "delta_irr": {"exact": "-1926"},
               "boundary_sym": [{"i": i, "s": 0, "c": {"exact": "-1000"}} for i in range(1, 7)]}
        f12 = {"space": {"g": 12, "n": 10}, "lambda": {"exact": "0"},
               "psi": {str(j): {"exact": "9"} for j in range(1, 11)},
               "delta_irr": {"exact": "-1"},
               "boundary_sym": [{"i": 0, "s": 2, "c": {"at_least": "40"}}]}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"entries": [{"name": "D12", "class": d12},
                                                {"name": "F12_10", "class": f12}]}))
        args = ["certify", "--g", "12", "--n", "10", "--catalog", str(path)]
        text = runner.invoke(main, args)
        assert text.exit_code == 0
        assert "  c[F12_10] = 484/4415" in text.output.splitlines()
        assert "  residual delta[0:|S|=2]: negative" in text.output.splitlines()
        doc = json.loads(runner.invoke(main, [*args, "--json"]).output)
        assert {"i": 0, "s": 2, "status": "negative"} in doc["residual"]["boundary"]

    def test_byte_stable(self, runner):
        a = runner.invoke(main, ["certify", "--g", "17", "--n", "8", "--json"]).output
        b = runner.invoke(main, ["certify", "--g", "17", "--n", "8", "--json"]).output
        assert a == b


def _marked_entry(name, g, n):
    return {"name": name, "kind": "marked", "class": {
        "space": {"g": g, "n": n}, "lambda": {"exact": "1"}, "delta_irr": {"exact": "-1"}}}


class TestCertifyCatalogErrors:
    """A bad --catalog file is a usage error: one Error line, exit 2, no traceback."""

    def _certify(self, runner, tmp_path, text, g="16", n="8"):
        path = tmp_path / "catalog.json"
        path.write_text(text)
        return runner.invoke(main, ["certify", "--g", g, "--n", n, "--catalog", str(path)])

    def _assert_usage_error(self, result, *needles):
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1
        for needle in needles:
            assert needle in errors[0]

    def test_not_json(self, runner, tmp_path):
        self._assert_usage_error(self._certify(runner, tmp_path, "{not json"), "catalog")

    def test_wrong_kind(self, runner, tmp_path):
        doc = {"entries": [_marked_entry("Z16", 16, 8)]}
        result = self._certify(runner, tmp_path, json.dumps(doc))
        self._assert_usage_error(result, "'Z16'", "(g=16, n=0)")

    def test_legacy_unmarked_document(self, runner, tmp_path):
        # an unmarked class is a class document with n = 0; the old form has no "space"
        doc = {"entries": [{"name": "Z16", "kind": "unmarked", "class": {
            "g": 16, "lambda": {"exact": "407"}, "delta": {"0": {"exact": "-61"}}}}]}
        result = self._certify(runner, tmp_path, json.dumps(doc))
        self._assert_usage_error(result, "catalog", "space")

    def test_wrong_space(self, runner, tmp_path):
        doc = {"entries": [_marked_entry("BN17", 17, 9)]}
        result = self._certify(runner, tmp_path, json.dumps(doc), g="17", n="8")
        self._assert_usage_error(result, "'BN17'", "(g=17, n=8)")

    def test_invalid_class_in_entry(self, runner, tmp_path):
        entry = _marked_entry("F12_10", 12, 10)
        entry["class"]["boundary_sym"] = [{"i": 0, "s": 1, "c": {"exact": "1"}}]
        result = self._certify(runner, tmp_path, json.dumps({"entries": [entry]}),
                               g="12", n="10")
        self._assert_usage_error(result, "catalog")

    @pytest.mark.parametrize("where,value,needle", [
        ("lambda", {"exact": 407}, "407"),  # a JSON number, not the string "407"
        ("lambda", {"exact": "1/0"}, "1/0"),
        ("boundary_sym", [{"i": 1.9, "s": 0, "c": {"exact": "-5"}}], "JSON integer"),
        ("space", {"g": True, "n": 0}, "JSON integer"),
    ], ids=["number-coefficient", "zero-denominator", "float-index", "boolean-genus"])
    def test_malformed_wire_value(self, runner, tmp_path, where, value, needle):
        cls = {"space": {"g": 12, "n": 0}, "lambda": {"exact": "13245"},
               "delta_irr": {"exact": "-1926"}}
        cls[where] = value
        doc = {"entries": [{"name": "D12", "class": cls}]}
        self._assert_usage_error(self._certify(runner, tmp_path, json.dumps(doc)),
                                 "catalog", needle)

    @pytest.mark.parametrize("key", ["0_1", "+1", " 1", "01"])
    def test_non_canonical_psi_key(self, runner, tmp_path, key):
        # int() reads each key as label 1; the file must not load psi_1 = 7
        entry = _marked_entry("F12_10", 12, 10)
        entry["class"]["psi"] = {"1": {"exact": "9"}, key: {"exact": "7"}}
        result = self._certify(runner, tmp_path, json.dumps({"entries": [entry]}),
                               g="12", n="10")
        self._assert_usage_error(result, "catalog", "psi label")

    def test_valid_override_still_certifies(self, runner, tmp_path):
        doc = {"entries": [{"name": "BN17", "kind": "marked", "class": {
            "space": {"g": 17, "n": 8}, "lambda": {"exact": "20"},
            "delta_irr": {"exact": "-3"}}}]}
        result = self._certify(runner, tmp_path, json.dumps(doc), g="17", n="8")
        assert result.exit_code == 0
        assert "a = 1/20" in result.output


def test_cli_imports_only_stdlib_and_click():
    """The runtime dependencies are the standard library and click.  Modules
    already loaded at interpreter start-up (site hooks) are not counted."""
    probe = ("import sys; before = set(sys.modules); import mgn_divisors.cli; "
             "print(*sorted(set(sys.modules) - before))")
    src = str(Path(mgn_divisors.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "mgn_divisors.cli" in loaded
    allowed = set(sys.stdlib_module_names) | {"click", "mgn_divisors"}
    assert sorted({name.partition(".")[0] for name in loaded} - allowed) == []


def test_width_env_wraps_output(runner, monkeypatch):
    monkeypatch.setenv("MGNDIV_WIDTH", "40")
    narrow = runner.invoke(main, ["class", "quad", "--t", "0"]).output
    assert all(len(line) <= 40 for line in narrow.splitlines())


# sha256 of stdout: the boundary representation may change, a byte of output may not
PINNED_STDOUT = {
    "verify grr --t-max 8 --json":
        "c0441529f334b8d1479393f5cc47c9516ea41d4923ea256df171f05b451b5a66",
    "class quad --t 0 --json":
        "8c9c876ad8c77cc5c653a5970ad0e472e72a949572e72cbee8bcc316736a3fde",
    "class quad --t 3 --json":
        "c48c7d3b27fc104c877de85d5a9488820041c1837421744f5e5c7a00448cb2f6",
    "class canonical --g 2 --n 3 --json":
        "eaa071045d0bbb4d1a13510b9ca3124e10960aba68b4b81ea75d3839efc3a08d",
    "class canonical --g 16 --n 8 --json":
        "c7cabd9b521738b4577b3c591327b639b414c2411ce65576f608530a279b16d6",
    "pullback --preset quad3-to-178 --json":
        "80e2098047363cd40742d956dfc3f9d6d134770ef3859f4a0de11dc5dbd27618",
    "certify --g 17 --n 8 --json":
        "bbf0094297d9bc661d5dd5f8319b36abe237039bb4e986e2d7b851e8c5cb2c5e",
    "certify --g 12 --n 10 --json":
        "034b65716f66ea12a6a7f0078c05b881afb4d0f5f88c8be58734c53d645b4ef7",
    "verify balance --json":
        "32891e8bda83be29ec48a6f4b96f7887caa151e74cdd2a06919cb0c03b2e65ae",
    "verify pic12 --t-max 8 --json":
        "5537237cbdc8156ddf36cf571b99d31de4dbfa72010e6378a16f325cfbb9b743",
    "verify recurrences --t-max 6 --json":
        "a080883fb53c39295b7e1d9fb392cec0a5c3718941bcad914fd216cca4a0eb86",
    "verify all --t-max 4 --json":
        "d055ece128e6c6d09b70593e2df3273f6ecb3bc83f918a8517003c1ffce44017",
    "table --t-max 8 --json":
        "a90808ed1ef1264fba7a0d0e0d103a9fc949a73df01a0e45165c465e69ff96da",
    "verify recurrences --t-max 11 --json":
        "fca2514caf1d1817036f6ab4fc1a824b660fefae29ef27b5df9fb5b57e091068",
    "verify grr --t-max 16 --json":
        "d517c1b296312d6460cb828cffb5a005fc4db4c723dc342db692237c70e58983",
    "verify grr --t-max 24 --json":
        "2cf89418541aabe26b396edd663c9245dd12f16434b75452da211b4e5b7998ab",
    "certify --g 16 --n 8 --json":
        "947bea505ef6110e6aa80ade498633ce71204c6f9bf3ebf7a5865972288d200d",
    "pullback --preset bn5-to-51 --json":
        "8c9c876ad8c77cc5c653a5970ad0e472e72a949572e72cbee8bcc316736a3fde",
    "pullback --preset quad3-to-168 --json":
        "4e9aa2490222a1f524eae46232a97355b66d24f4807701746c112c958d06a32b",
    "verify pullbacks --json":
        "d7687359e78fa8f6f69186b07663978a5548e26bb5e39ed33db664f4d0f884ae",
    "verify certificates --json":
        "4b8b82a79ab19ee5e865bca7980f46285c25f372081ef127e1d83bf2259f9ba7",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_stdout_bytes_pinned(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED_STDOUT[command]
