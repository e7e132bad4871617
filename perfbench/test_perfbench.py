"""The benchmark's own tests: output gates, smoke runs and determinism of counts.

    python3 -m pytest perfbench/test_perfbench.py

Smoke runs use --smoke (sweeps at t_max 2) and a short loop, so the whole file
takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOAD_NAMES,
    OutputMismatch,
    certificate_check,
    grr_record_count,
    recurrence_record_count,
    sweep_check,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_record_counts_match_the_stated_sizes():
    assert recurrence_record_count(11) == 10834
    assert recurrence_record_count(2) == 5 + (3 * 4 // 2 + 12) + (6 * 7 // 2 + 24) + (1 + 4)
    assert grr_record_count(16) == 68


def test_sweep_gate_rejects_fewer_or_failing_records():
    records = [{"op": "x", "pass": True}] * 3
    doc = {"records": records, "summary": {"total": 3, "passed": 3, "failed": 0, "all_pass": True}}
    assert sweep_check(3)(json.dumps(doc)) == 3
    with pytest.raises(OutputMismatch):
        sweep_check(4)(json.dumps(doc))
    doc["records"] = records[:2] + [{"op": "x", "pass": False}]
    with pytest.raises(OutputMismatch):
        sweep_check(3)(json.dumps(doc))
    with pytest.raises(OutputMismatch):
        sweep_check(3)("not json")


def test_certificate_gate_requires_published_values():
    good = {"space": {"g": 17, "n": 8}, "a": "1/20",
            "components": [{"name": "D_17_8", "c": "1/20"}, {"name": "BN17", "c": "3/5"}]}
    assert certificate_check(17, 8)(json.dumps(good)) == 1
    bad = dict(good, a="1/21")
    with pytest.raises(OutputMismatch):
        certificate_check(17, 8)(json.dumps(bad))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        metrics = smoke(workload, 1)["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith(".calls") or k == "picard.boundary_orbits.yielded"}

    first = counts()
    assert first["cli.main.calls"] >= 1
    assert counts() == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-grr", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
