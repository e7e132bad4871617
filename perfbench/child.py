"""One benchmark operation: a fresh interpreter that runs one `mgndiv` command.

    python3 child.py MODE SRC OP_ID SPANS_PATH [MGNDIV ARGS...]

MODE is `probe` (import only, for set-up time), `run` (untraced) or `trace`.
The interpreter imports `mgn_divisors.cli` from SRC exactly as the `mgndiv`
entry point does, then runs the command with its stdout going straight to
this process's stdout.  The last stderr line is REPORT_MARK followed by a JSON
report of monotonic timestamps (`ready` is when the import finished), CPU
time, peak RSS and, when traced, the per-layer span summary.  The exit code
is the command's.
"""

import json
import os
import resource
import sys
import time

REPORT_MARK = "@perfbench-report "


def main(argv):
    mode, src, op_id, spans_path, *args = argv
    import mgn_divisors.cli as cli

    ready = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"mgn_divisors was imported from {cli.__file__}, not from {src}")
    report = {"ready": ready}
    code = 0
    if mode != "probe":
        command, tracer = cli.main.main, None
        if mode == "trace":
            from tracer import ROOT_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
            command = tracer.wrap(ROOT_SPAN, command)
        cpu0, t0 = time.process_time(), time.monotonic()
        try:
            command(args=args, prog_name="mgndiv")
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        sys.stdout.flush()
        t1, cpu1 = time.monotonic(), time.process_time()
        report.update(start=t0, end=t1, cpu_s=cpu1 - cpu0)
        if tracer is not None:
            report["trace"] = tracer.summary()
            if spans_path != "-":
                tracer.dump(spans_path, op_id)
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(REPORT_MARK + json.dumps(report) + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
