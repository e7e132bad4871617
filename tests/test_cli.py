import hashlib
import json

import pytest
from click.testing import CliRunner

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
        self._assert_usage_error(result, "'Z16'", "unmarked genus-16")

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

    def test_valid_override_still_certifies(self, runner, tmp_path):
        doc = {"entries": [{"name": "BN17", "kind": "marked", "class": {
            "space": {"g": 17, "n": 8}, "lambda": {"exact": "20"},
            "delta_irr": {"exact": "-3"}}}]}
        result = self._certify(runner, tmp_path, json.dumps(doc), g="17", n="8")
        assert result.exit_code == 0
        assert "a = 1/20" in result.output


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
        "e41b4093165b19de1e06315224d0fa55a60622ac02e320e29ebb910a350a3c54",
    "class canonical --g 16 --n 8 --json":
        "892eac884bcc229dec333053949a0e5b050c55d6f5d24995c72a64a4a3d955db",
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
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_stdout_bytes_pinned(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED_STDOUT[command]
