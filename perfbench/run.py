"""Benchmark of the `mgndiv` command line: cold-process verify sweeps and certificates.

Run from the repository root:

    python3 perfbench/run.py --workload recurrences-certify --seed 1 --seconds 55 --trace 0

Every timed operation is one `mgndiv` command in a fresh interpreter
(child.py), because each CLI call pays its own start-up and no in-process
cache survives from one call to the next.  Load is a closed loop: one driver
process, one operation in flight.  The loop runs whole rounds of the
workload's commands, in an order shuffled by --seed, until --seconds have
passed.  Before it, one untimed warm-up and SETUP_PROBES import-only children
measure set-up time.

Every output is checked (workloads.py).  With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, from spans recorded by tracer.py in traced children that alternate
with untraced ones.  Lines before the last give the environment and sample
counts; the last stdout line is the JSON result.  Details, and in traced runs
the spans of the last operation of each command, go to .perfbench_out/.
The exit code is 1 when any output check failed and 2 on a usage error or a
missing program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from child import REPORT_MARK
from tracer import COUNTERS, span_names
from workloads import WORKLOAD_NAMES, Command, OutputMismatch, Workload, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
OP_TIMEOUT_S = 60


class Op:
    """The measurements of one finished child process."""

    def __init__(self, command: Command, mode: str):
        self.command, self.mode = command, mode
        self.error = None
        self.records = 0
        self.report = {}
        self.latency_s = self.setup_s = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def wall_s(self) -> float:
        return self.report["end"] - self.report["start"]


def spawn(mode: str, argv, op_id: str, spans_path: str = "-"):
    """Run child.py once; return stdout, stderr, exit code, spawn time, exit time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(SRC), op_id, spans_path, *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\ntimed out after {OP_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out, err, proc.returncode, t_spawn, time.monotonic()


def parse_report(stderr: str):
    for line in reversed(stderr.splitlines()):
        if line.startswith(REPORT_MARK):
            return json.loads(line[len(REPORT_MARK):])
    return None


def run_op(command: Command, mode: str, op_id: str, spans_path: str = "-") -> Op:
    op = Op(command, mode)
    out, err, code, t_spawn, t_exit = spawn(mode, command.argv, op_id, spans_path)
    report = parse_report(err)
    if report is None or code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        op.error = f"{command.label}: exit {code}: {tail[0][:300]}"
        return op
    op.report = report
    op.latency_s = t_exit - t_spawn
    op.setup_s = report["ready"] - t_spawn
    try:
        op.records = command.check(out)
    except OutputMismatch as e:
        op.error = f"{command.label}: {e}"
    return op


def probe_setup(n: int) -> list:
    """Set-up time of n import-only children; raises if the program does not load."""
    times = []
    for k in range(n):
        _, err, code, t_spawn, _ = spawn("probe", (), f"probe-{k}")
        report = parse_report(err)
        if code != 0 or report is None:
            raise RuntimeError(f"cannot start the program: {err.strip()[-500:]}")
        times.append(report["ready"] - t_spawn)
    return times


def run_loop(workload: Workload, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop of whole rounds until `seconds` pass; traced runs pair every
    traced child with an untraced one, alternating which goes first."""
    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    OUT.mkdir(exist_ok=True)
    ops, rnd = [], 0
    deadline = time.monotonic() + seconds
    while True:
        for command in order:
            modes = ("run",) if not trace else (("run", "trace") if rnd % 2 == 0 else ("trace", "run"))
            for mode in modes:
                op_id = f"{workload.name}-{seed}-{len(ops)}"
                spans = str(OUT / f"spans-{workload.name}-{command.label}.tsv") if mode == "trace" else "-"
                ops.append(run_op(command, mode, op_id, spans))
        rnd += 1
        if time.monotonic() >= deadline:
            return ops


def tail_percentile(xs):
    """(pct, value) of the highest of 90/95/99/99.9 with >= 10 samples beyond it, or None."""
    xs = sorted(xs)
    best = None
    for pct in (90, 95, 99, 99.9):
        rank = int(len(xs) * pct / 100 + 0.5)  # nearest rank, 1-based
        if rank >= 1 and len(xs) - rank >= 10:
            best = (pct, xs[rank - 1])
    return best


def per_command(workload: Workload, ops: list, mode: str) -> dict:
    return {c.label: [op for op in ops if op.command is c and op.mode == mode and op.ok]
            for c in workload.commands}


def end_to_end(workload: Workload, ops: list, setup: list) -> tuple:
    by_cmd = per_command(workload, ops, "run")
    if not all(by_cmd.values()):
        return {}, {}
    # medians: a shared host runs 30% faster or slower for tens of seconds at a
    # time as its neighbours' load changes, and the median ignores such a burst
    walls = {k: median([op.wall_s for op in v]) for k, v in by_cmd.items()}
    wall = sum(walls.values())
    good = [op for v in by_cmd.values() for op in v]
    latencies = [op.latency_s * 1000 for op in good]
    metrics = {
        "wall_s": wall,
        "records_per_s": sum(v[0].records for v in by_cmd.values()) / wall,
        "op_p50_ms": median(latencies),
        "setup_s": median(setup + [op.setup_s for op in good]),
        "peak_rss_mib": max(median([op.report["maxrss_kib"] for op in v]) for v in by_cmd.values()) / 1024,
    }
    tail = tail_percentile(latencies)
    info = {
        "samples": {"wall_s": {k: len(v) for k, v in by_cmd.items()},
                    "op_p50_ms": len(latencies),
                    "setup_s": len(setup) + len(good),
                    "peak_rss_mib": len(good)},
        "op_tail_ms": {"pct": tail[0], "value": tail[1], "n": len(latencies)} if tail else None,
        "wall_s_by_command": walls,
    }
    return metrics, info


def median_sum(groups: dict, value) -> float:
    """Sum over commands of the median of value(op) over that command's operations."""
    return sum(median([value(op) for op in v]) for v in groups.values())


def repeated_count(traced: dict, what: str, value, problems: list) -> int:
    """Sum over commands of a count that must repeat exactly across a command's operations."""
    total = 0
    for label, v in traced.items():
        seen = {value(op.report["trace"]) for op in v}
        if len(seen) > 1:
            problems.append(f"{label}: {what} took values {sorted(seen)}")
        total += min(seen)
    return total


def per_layer(workload: Workload, ops: list) -> tuple:
    traced, untraced = per_command(workload, ops, "trace"), per_command(workload, ops, "run")
    if not all(traced.values()) or not all(untraced.values()):
        return {}, {}, []
    metrics, problems = {}, []
    for name in span_names():
        metrics[f"{name}.calls"] = repeated_count(
            traced, f"{name}.calls", lambda t: t["spans"][name][0], problems)
        metrics[f"{name}.self_s"] = median_sum(traced, lambda op: op.report["trace"]["spans"][name][1])
    for name in COUNTERS:
        metrics[name] = repeated_count(traced, name, lambda t: t["counts"][name], problems)
    metrics["process.cpu_s"] = median_sum(untraced, lambda op: op.report["cpu_s"])
    traced_wall = median_sum(traced, lambda op: op.wall_s)
    untraced_wall = median_sum(untraced, lambda op: op.wall_s)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    info = {
        "samples": {"traced": {k: len(v) for k, v in traced.items()},
                    "untraced": {k: len(v) for k, v in untraced.items()}},
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "self_s_share": {name: metrics[f"{name}.self_s"] / traced_wall for name in span_names()},
        "missing_functions": sorted({f for v in traced.values() for op in v
                                     for f in op.report["trace"]["missing"]}),
    }
    return metrics, info, problems


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: Workload, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mgn_divisors").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": workload.name,
        "input_size": workload.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sweep sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mgn_divisors" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'mgn_divisors'}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = load_spec()
    workload = make_workload(args.workload, smoke=args.smoke)
    env = environment(workload, args)
    try:
        probe_setup(1)  # warm-up: byte-compiles the package once, untimed
        setup = probe_setup(SETUP_PROBES)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    ops = run_loop(workload, args.seed, args.seconds, bool(args.trace))

    errors = [op.error for op in ops if not op.ok]
    if args.trace:
        metrics, info, problems = per_layer(workload, ops)
        errors += problems
        spec = layer_spec
    else:
        metrics, info = end_to_end(workload, ops, setup)
        spec = e2e_spec
    units = {m["name"]: m["unit"] for m in spec}
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"benchmark bug: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    failed = sum(not op.ok for op in ops)
    info.update(failed_ratio=failed / len(ops), errors=errors[:10])
    result = {
        "correct": not errors and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    OUT.mkdir(exist_ok=True)
    samples = [{"command": op.command.label, "mode": op.mode, "error": op.error,
                "wall_s": op.wall_s if op.ok else None, "latency_s": op.latency_s,
                "setup_s": op.setup_s, "cpu_s": op.report.get("cpu_s")} for op in ops]
    detail = {"env": env, "info": info, "result": result, "setup_probes_s": setup, "ops": samples}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
