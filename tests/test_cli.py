import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

import mgn_divisors
from mgn_divisors import certificates, checks, cli
from mgn_divisors.cli import main
from mgn_divisors.family import quad_class
from mgn_divisors.picard import CANONICAL_JSON, class_from_dict

from conftest import run_records


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
        # K = 13 lambda - 2 delta_irr - 3 delta_1 - 2 delta_2: a rest of -2 and one orbit entry
        assert (doc["psi_rest"], doc["psi"], doc["rows"]) == ({"exact": "0"}, {}, [])
        assert doc["boundary_rest"] == {"exact": "-2"}
        assert doc["boundary_sym"] == [{"c": {"exact": "-3"}, "i": 1, "s": 0}]

    @pytest.mark.parametrize("t", [3, 40, 200])
    def test_quad_json_lists_what_the_class_stores(self, runner, t):
        result = runner.invoke(main, ["class", "quad", "--t", str(t), "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(result.output) < 1024
        assert (len(doc["rows"]), len(doc["boundary_sym"]), doc["psi"]) == (2, 1, {})
        assert class_from_dict(doc) == quad_class(t)

    def test_quad_0_and_bn5_pullback_load_to_equal_classes(self, runner):
        # one class, built two ways: the documents list different layers
        quad, bn5 = (json.loads(runner.invoke(main, args).output) for args in
                     (["class", "quad", "--t", "0", "--json"],
                      ["pullback", "--preset", "bn5-to-51", "--json"]))
        assert quad != bn5
        assert class_from_dict(quad) == class_from_dict(bn5)

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


# strings that JSON escapes, that %-formatting reads, and non-ASCII text
_texts = (st.text(st.sampled_from('"\\%s/\n\x00\x7fé€𝔐a'), max_size=6)
          | st.text(max_size=6))
_names = st.sampled_from(["balance_grid", "%s", '%"\\é']) | _texts
_values = st.integers() | st.booleans() | st.lists(st.integers(), max_size=3) | _texts


@st.composite
def _runs(draw):
    """A run of 1-5 records of one or two ops whose keys are drawn in any
    order, so an op's declared order is often unsorted."""
    keys = draw(st.lists(st.sampled_from(["t_max", "failures", "i", "s", "%s", 'é"\\']) | _texts,
                         max_size=4, unique=True))
    vary = draw(st.integers(0, max(len(keys) - 1, 0)))
    ops = tuple(checks.Op(name, *keys, vary=vary)
                for name in draw(st.lists(_names, min_size=1, max_size=2)))
    size = draw(st.integers(1, 5)) if keys else 1
    column = st.lists(_values, min_size=size, max_size=size)
    sides = st.lists(st.integers() | _texts, min_size=size, max_size=size)
    return checks.run(ops, draw(st.tuples(*[_values] * (len(keys) - 1))) if keys else (),
                      draw(column) if keys else [None], draw(sides), draw(sides),
                      draw(st.lists(st.booleans(), min_size=size, max_size=size)))


def _record_dict(r):
    op, values, lhs, rhs, ok = r
    return {"op": op.name, "inputs": dict(zip(op.keys, values)), "lhs": lhs, "rhs": rhs,
            "pass": ok}


def _reference_text(r):
    """The reference text line of a record, formatted from its dict."""
    d = _record_dict(r)
    status = "PASS" if d["pass"] else "FAIL"
    inputs = " ".join(f"{k}={v}" for k, v in d["inputs"].items())
    line = f"{status} {d['op']} {inputs}".rstrip()
    if not d["pass"]:
        line += f"  lhs={d['lhs']} rhs={d['rhs']}"
    return line


def _reference_json(run):
    return ",".join(CANONICAL_JSON.encode(_record_dict(r)) for r in run_records([run]))


def _reference_lines(run):
    return "\n".join(map(_reference_text, run_records([run])))


class TestRecordRows:
    """checks.json_run writes a run as its records' CANONICAL_JSON.encode
    texts joined by ",", and checks.text_run as their reference lines joined
    by a newline."""

    @pytest.mark.parametrize("suite,t_max", [("all", 8), ("recurrences", 11)])
    def test_every_sweep_record(self, suite, t_max):
        sweep = checks.check_all(t_max) if suite == "all" else checks.SUITES[suite](t_max)
        for r in sweep:
            assert checks.json_run(r) == _reference_json(r)
            assert checks.text_run(r) == _reference_lines(r)

    @given(st.lists(_runs(), min_size=1, max_size=6))
    def test_synthetic_json_rows(self, runs):
        for r in runs:
            assert checks.json_run(r) == _reference_json(r)

    @given(st.lists(_runs(), min_size=1, max_size=6))
    def test_synthetic_text_rows(self, runs):
        for r in runs:
            assert checks.text_run(r) == _reference_lines(r)

    @given(st.integers(0, 1) | _texts)
    def test_pass_is_a_bool(self, ok):
        with pytest.raises(TypeError):
            checks.single(checks.Op("injected", "t"), (0,), "1", "1", ok)
        with pytest.raises(TypeError):
            checks.run((checks.Op("injected", "i", "t"),), (0,), [0, 1], [1, 1], [1, 1], [True, ok])

    @pytest.mark.parametrize("column,lhs,rhs,ok", [
        ([], [], [], None), ([0, 1], [1], [1], None), ([0], [1], [1], [True, True])])
    def test_run_columns_agree_in_length(self, column, lhs, rhs, ok):
        with pytest.raises(ValueError):
            checks.run((checks.Op("injected", "i", "t"),), (0,), column, lhs, rhs, ok)


# the four records of one verify grr run, one t
GRR_OPS = ("grr_once_twisted", "grr_twice_twisted", "porteous_interior",
           "porteous_matches_family_interior")


class TestVerifyStream:
    """verify writes runs of records in batches as the sweep yields them."""

    @pytest.fixture()
    def grr_with_one_failure(self, monkeypatch):
        """check_grr yields one failing run of one record between passing
        ones, after the four records of t=0; small batches put it mid-stream."""
        sweep = checks.check_grr

        def failing(t_max):
            records = sweep(t_max)
            yield next(records)
            yield checks.single(checks.Op("injected", "t"), (0,), 1, 2)
            yield from records

        monkeypatch.setattr(checks, "check_grr", failing)
        monkeypatch.setattr(cli, "_BATCH", 2)

    def test_failure_json(self, runner, grr_with_one_failure):
        result = runner.invoke(main, ["verify", "grr", "--t-max", "1", "--json"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["summary"] == {"all_pass": False, "failed": 1, "passed": 8, "total": 9}
        assert [r["pass"] for r in doc["records"]] == [True] * 4 + [False] + [True] * 4
        assert result.output == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_failure_text(self, runner, grr_with_one_failure):
        result = runner.invoke(main, ["verify", "grr", "--t-max", "1"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert "FAIL injected t=0  lhs=1 rhs=2" in lines
        assert len(lines) == 10 and lines[-1] == "8/9 checks passed"

    @pytest.fixture()
    def grr_that_raises(self, monkeypatch):
        """check_grr yields one run, then raises; the batch is larger than
        what the sweep yields, so the run is still in an unwritten batch."""
        sweep = checks.check_grr

        def raising(t_max):
            yield next(sweep(t_max))
            raise RuntimeError("injected internal error")

        monkeypatch.setattr(checks, "check_grr", raising)

    def test_internal_error_json(self, runner, grr_that_raises):
        result = runner.invoke(main, ["verify", "grr", "--t-max", "1", "--json"])
        assert result.exit_code == 3
        records = ",".join(
            '{"inputs":{"t":0},"lhs":"1","op":"%s","pass":true,"rhs":"1"}' % op for op in GRR_OPS)
        assert result.stdout == '{"records":[' + records
        assert "RuntimeError: injected internal error" in result.stderr

    def test_internal_error_text(self, runner, grr_that_raises):
        result = runner.invoke(main, ["verify", "grr", "--t-max", "1"])
        assert result.exit_code == 3
        assert result.stdout == "".join(f"PASS {op} t=0\n" for op in GRR_OPS)
        assert "RuntimeError: injected internal error" in result.stderr

    @pytest.mark.parametrize("batch", [1, 2, 7])
    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
    def test_batch_size_leaves_the_bytes(self, runner, monkeypatch, batch, flags):
        command = ["verify", "recurrences", "--t-max", "5", *flags]
        default = runner.invoke(main, command)
        monkeypatch.setattr(cli, "_BATCH", batch)
        result = runner.invoke(main, command)
        assert default.exit_code == result.exit_code == 0
        assert result.stdout_bytes == default.stdout_bytes

    @pytest.fixture()
    def recurrences_with_a_failing_cell(self, monkeypatch):
        """check_recurrences yields, after its first run, a run of three
        records whose middle one fails."""
        sweep = checks.check_recurrences

        def failing(t_max):
            runs = sweep(t_max)
            yield next(runs)
            yield checks.run((checks.Op("injected", "i", "t"),), (0,), range(3), [1, 2, 3], [1, 9, 3])
            yield from runs

        monkeypatch.setattr(checks, "check_recurrences", failing)
        monkeypatch.setattr(cli, "_BATCH", 2)
        return 3 + 28  # the injected run and the 28 records of t_max 1

    def test_failing_cell_json(self, runner, recurrences_with_a_failing_cell):
        total = recurrences_with_a_failing_cell
        result = runner.invoke(main, ["verify", "recurrences", "--t-max", "1", "--json"])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["summary"] == {"all_pass": False, "failed": 1, "passed": total - 1,
                                  "total": total}
        assert [r["inputs"] for r in doc["records"] if not r["pass"]] == [{"i": 1, "t": 0}]
        assert result.output == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_failing_cell_text(self, runner, recurrences_with_a_failing_cell):
        total = recurrences_with_a_failing_cell
        result = runner.invoke(main, ["verify", "recurrences", "--t-max", "1"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[1:4] == ["PASS injected i=0 t=0", "FAIL injected i=1 t=0  lhs=2 rhs=9",
                              "PASS injected i=2 t=0"]
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert len(lines) == total + 1 and lines[-1] == f"{total - 1}/{total} checks passed"

    @pytest.mark.parametrize("k", [1, 12])  # run 12 is the 6 b_{1:s} records of t = 1
    @pytest.mark.parametrize("batch", [1, 1024])
    def test_internal_error_after_k_runs(self, runner, monkeypatch, k, batch):
        sweep = checks.check_recurrences
        runs = list(islice(sweep(2), k))

        def raising(t_max):
            yield from islice(sweep(t_max), k)
            raise RuntimeError("injected internal error")

        monkeypatch.setattr(checks, "check_recurrences", raising)
        monkeypatch.setattr(cli, "_BATCH", batch)
        as_json = runner.invoke(main, ["verify", "recurrences", "--t-max", "2", "--json"])
        as_text = runner.invoke(main, ["verify", "recurrences", "--t-max", "2"])
        assert as_json.exit_code == as_text.exit_code == 3
        assert as_json.stdout == '{"records":[' + ",".join(map(checks.json_run, runs))
        assert as_text.stdout == "\n".join(map(checks.text_run, runs)) + "\n"
        assert "RuntimeError: injected internal error" in as_json.stderr

    def test_memory_does_not_grow_with_t_max(self, monkeypatch):
        """Peak traced memory of an in-process JSON sweep written to a sink
        that keeps nothing: t_max 12 has 12x the records of t_max 6."""

        def peak(t_max):
            with open(os.devnull, "w") as sink:
                monkeypatch.setattr(sys, "stdout", sink)
                tracemalloc.start()
                try:
                    with pytest.raises(SystemExit) as done:
                        main.main(["verify", "recurrences", "--t-max", str(t_max), "--json"],
                                  standalone_mode=False)
                    top = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert done.value.code == 0
            return top

        small, large = peak(6), peak(12)
        assert large <= 1.25 * small, (small, large)


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

    def test_certificate_error_is_a_failure(self, runner, monkeypatch):
        solve = certificates._solve_interior
        monkeypatch.setattr(certificates, "_solve_interior",
                            lambda canonical, components: (0, solve(canonical, components)[1]))
        result = runner.invoke(main, ["certify", "--g", "16", "--n", "8"])
        assert result.exit_code == 1
        assert "FAIL the residual's interior does not vanish" in result.stderr

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
        ("boundary", [{"i": 1, "S": "", "c": {"exact": "-5"}}], "JSON array"),
    ], ids=["number-coefficient", "zero-denominator", "float-index", "boolean-genus",
            "string-S"])
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

    def test_malformed_row(self, runner, tmp_path):
        entry = _marked_entry("F12_10", 12, 10)
        entry["class"]["rows"] = [{"i": 1, "kind": "exact", "num": [1], "den": 0}]
        result = self._certify(runner, tmp_path, json.dumps({"entries": [entry]}),
                               g="12", n="10")
        self._assert_usage_error(result, "catalog", "denominator 0")

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000 + "\n",
                                      '{"entries":' * 100_000 + "[]" + "}" * 100_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_file(self, runner, tmp_path, text):
        # json.load raises RecursionError here, which is not a ValueError
        self._assert_usage_error(self._certify(runner, tmp_path, text), "catalog")

    def test_valid_override_still_certifies(self, runner, tmp_path):
        doc = {"entries": [{"name": "BN17", "kind": "marked", "class": {
            "space": {"g": 17, "n": 8}, "lambda": {"exact": "20"},
            "delta_irr": {"exact": "-3"}}}]}
        result = self._certify(runner, tmp_path, json.dumps(doc), g="17", n="8")
        assert result.exit_code == 0
        assert "a = 1/20" in result.output


def _src_env():
    """The environment of a fresh interpreter that imports this package's
    source, with stdout block-buffered on a pipe, Python's default."""
    src = str(Path(mgn_divisors.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _loaded_by_cli_import():
    """The modules that `import mgn_divisors.cli` loads in a fresh interpreter,
    leaving out those already loaded at start-up (site hooks)."""
    probe = ("import sys; before = set(sys.modules); import mgn_divisors.cli; "
             "print(*sorted(set(sys.modules) - before))")
    return subprocess.run([sys.executable, "-c", probe], env=_src_env(), check=True,
                          capture_output=True, text=True).stdout.split()


def test_cli_imports_only_stdlib_and_click():
    """The runtime dependencies are the standard library and click."""
    loaded = _loaded_by_cli_import()
    assert "mgn_divisors.cli" in loaded
    allowed = set(sys.stdlib_module_names) | {"click", "mgn_divisors"}
    assert sorted({name.partition(".")[0] for name in loaded} - allowed) == []


def test_cli_import_builds_no_dataclass():
    """Every value type is a namedtuple, so start-up does not import
    dataclasses and generate classes with it (click does not import it)."""
    loaded = _loaded_by_cli_import()
    assert "mgn_divisors.cli" in loaded and "dataclasses" not in loaded


def test_width_env_wraps_output(runner, monkeypatch):
    monkeypatch.setenv("MGNDIV_WIDTH", "40")
    narrow = runner.invoke(main, ["class", "quad", "--t", "0"]).output
    assert all(len(line) <= 40 for line in narrow.splitlines())


# sha256 of stdout.  `class` and `pullback` print the layers a class stores, so their
# pins move with the stored form; the bytes of the other commands do not depend on it
PINNED_STDOUT = {
    "verify grr --t-max 8 --json":
        "c0441529f334b8d1479393f5cc47c9516ea41d4923ea256df171f05b451b5a66",
    "class quad --t 0 --json":
        "84cf034fa36bd91e05e719283e99a7ecdf2456ead2476483414c86105f090375",
    "class quad --t 3 --json":
        "258943174ceb0fae3ad20a97d8a1e1aa598f820649b4c110198000697b2ce72f",
    "class canonical --g 2 --n 3 --json":
        "9e5c496f8e310417c3f931b029930cb67109da10e62647d2237a09017e022984",
    "class canonical --g 16 --n 8 --json":
        "3e32e21747c11e8839fce3c5155d43ec4f5d4c9d1ffdbba72638909bc196a326",
    "pullback --preset quad3-to-178 --json":
        "0e1a1e63946459a76af0b9ef29f3994d8e22ce33e506ad3df647821ea44855f6",
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
        "a4b5742205f60026ebcfc5d18ce52ffb5d1cb9cd60f6227a386094ff7c32ed3c",
    "table --t-max 8 --json":
        "a90808ed1ef1264fba7a0d0e0d103a9fc949a73df01a0e45165c465e69ff96da",
    "verify recurrences --t-max 11 --json":
        "fca2514caf1d1817036f6ab4fc1a824b660fefae29ef27b5df9fb5b57e091068",
    "verify recurrences --t-max 16 --json":
        "02b261651a1bf5cb0f9655b698342e089dd1ddd82e185b920097f96a834213d6",
    "verify grr --t-max 16 --json":
        "d517c1b296312d6460cb828cffb5a005fc4db4c723dc342db692237c70e58983",
    "verify grr --t-max 24 --json":
        "2cf89418541aabe26b396edd663c9245dd12f16434b75452da211b4e5b7998ab",
    "certify --g 16 --n 8 --json":
        "947bea505ef6110e6aa80ade498633ce71204c6f9bf3ebf7a5865972288d200d",
    "pullback --preset bn5-to-51 --json":
        "41cf6cefc65a8ebccd7f398c5b6e4d4d74452ca616988419fb1e3e33bd7430c8",
    "pullback --preset quad3-to-168 --json":
        "a28d325d4e31053cb5093b9d525e222e9f7b623e37c8189a873f8c1452f2378c",
    "verify pullbacks --json":
        "d7687359e78fa8f6f69186b07663978a5548e26bb5e39ed33db664f4d0f884ae",
    "verify certificates --json":
        "a23fd1aaa3b256b3a74d0df056e32e485c1004859c800f45515df5cf4760ade0",
    "verify recurrences --t-max 4":
        "a65907b2cf08e1913690f9a43a8c72924b84e99aec101be4bb67cc9a7b23fcdf",
    "verify all --t-max 2":
        "886b013033c725aecb1e27a64db5b2845c64a9e8de7e09090234edda1ccfc0e9",
    # text mode prints Coefficient.__str__ and DivisorClass.__repr__
    "certify --g 16 --n 8":
        "3ad0d2803f3f4ae80e3aeb6c7c25fe07bc98ab2458a8aeb780a650f541179f1b",
    "certify --g 17 --n 8":
        "2af4ac8b81d5098c6eb6692b846e8fc6dc2ef42a53d59d5f7f524eeee911e64f",
    "class quad --t 3":
        "13aba9a2f3219439a403993cd14b3b38fa7a90e29f373ebf4b3bbfb20be4cb39",
    "class canonical --g 16 --n 8":
        "e4168d9c070bdfc84d9cb6490a1b595e988db4332adc7b4869ff373c3f41c73f",
    "verify grr --t-max 16":
        "c92fa1d99d997a136bb97f272c0b4482258a2eb694c47e7685f8ef8bca2f7e75",
    "pullback --preset quad3-to-168":
        "4d36e9a98ecb74cbd4ae52e425fa5ee6199f18988a3221c76a6a53a2150d7611",
    "pullback --preset quad3-to-178":
        "de070e3e8dca70ba6dd59532636ef037065b0a98c31306e542355f2d33f1a9e3",
    # rows 0 and 1 are written as two formulas in s, whatever t is
    "class quad --t 16 --json":
        "2e5a2f1a970126b2e07d33dfaef38ad62134c982c3b54aeb077b053d9aa8c85e",
    "class quad --t 40 --json":
        "fdac4f184e9c90056f6c56c7c475e4687cc4aae58bd3079abcd741a3cd38ffb6",
    "verify grr --t-max 40 --json":
        "038c3bdb1308a61adc91a73d432db3d382e388e8bc37582e6a1860f8f15d41f7",
    # the three certificates' recipes, in text mode
    "certify --g 12 --n 10":
        "f8c829485ae97e201625031ba292d5ba905711cb8ef7674785701e7e48415bdf",
    "verify certificates":
        "0de832bb3a394ac8f8776594c0101656c41125921be663e9059f36b702e20456",
    "verify pullbacks":
        "0e8ffafa6180840d706945ad37eba3738ee065dbd1c11e1c0e4a4f484dd5aff0",
    # K on an unmarked space: the GRR pushforward with no labels
    "class canonical --g 12 --n 0 --json":
        "c5e8ea4fb1ec9bea70657c6a38aa1d5df64504647fd03ce5fc9dbe3944132d8b",
    "class canonical --g 17 --n 0":
        "74ba47f9865e5a2d445da67e505f1341142202c9ac6d025c7aee04328ad5c1c4",
    # whole runs of the recurrence sweep in text mode, and every suite at t_max 8
    "verify recurrences --t-max 11":
        "8a9c7bca95e32e74f207eab076df8877a510eaf9e93e137ee55342fb1cd45613",
    "verify all --t-max 8 --json":
        "cde6d23f629f0bcc44101bb7828197f6c88ace07ac8c6fcdc15c369facf45fcb",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_stdout_bytes_pinned(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED_STDOUT[command]


# CliRunner replaces sys.stdout; these run the command on a process's own stdout
_MGNDIV = [sys.executable, "-m", "mgn_divisors.cli"]


def test_process_stdout_bytes_pinned():
    command = "verify grr --t-max 16 --json"
    out = subprocess.run([*_MGNDIV, *command.split()], env=_src_env(), check=True,
                         capture_output=True).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT[command]


def test_closed_stdout_exits_1_without_traceback():
    """A reader that closes the pipe after 100 bytes makes a later write fail;
    click's handler exits 1 and prints no traceback."""
    with subprocess.Popen([*_MGNDIV, "verify", "recurrences", "--t-max", "14", "--json"],
                          env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
        head = p.stdout.read(100)
        p.stdout.close()
        err = p.stderr.read()
        code = p.wait(timeout=120)
    assert head.startswith(b'{"records":[') and len(head) == 100
    assert code == 1
    assert b"Traceback" not in err


@pytest.mark.parametrize("command", ["table", "class quad --t 3", "verify grr --t-max 2 --json",
                                     "certify --g 16 --n 8"])
def test_stdout_closed_before_start_exits_1_without_traceback(command):
    """Each command flushes what it writes before it returns, so the failed
    write reaches click's handler and not the interpreter's exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        p = subprocess.run([*_MGNDIV, *command.split()], env=_src_env(), stdout=write_end,
                           stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert p.returncode == 1
    assert b"Traceback" not in p.stderr and b"Exception ignored" not in p.stderr
