"""One measured process: set up, run a workload's commands, report.

    python3 bench/child.py WORKLOAD SEED OUTDIR SIZE MODE

MODE is `setup` (stop once ready to make the first call), `run` or
`trace` (run with per-layer spans). The last line of standard output
is a JSON object with `ready` (time.monotonic() when set-up ended),
the wall time of the command list, the exit code of each command and
the process's peak RSS. Stderr of each command goes to a file next to
its output.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    workload, seed, outdir, size, mode = argv
    from helix_pst import cli

    import workloads

    commands = workloads.build(workload, int(seed), outdir, size == "tiny")
    argvs = [c.argv() for c in commands]
    report: dict = {"ready": time.monotonic()}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    run_command = cli.run_command  # read after install: the wrapped one when tracing

    codes: list[int | None] = []
    errors: list[str | None] = []
    start = time.perf_counter()
    for cmd, args in zip(commands, argvs):
        with open(cmd.stderr_path, "w") as err, contextlib.redirect_stderr(err):
            try:
                codes.append(run_command(args))
                errors.append(None)
            except Exception:  # a crash is one failed operation, not the end of the run
                codes.append(None)
                errors.append(traceback.format_exc())
    report["wall_s"] = time.perf_counter() - start
    report["codes"] = codes
    report["errors"] = errors
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        for cmd in commands:
            for path in (cmd.output, cmd.stderr_path):
                if os.path.exists(path):
                    tracer.counts["cli.bytes_out"] += os.path.getsize(path)
        report["layers"] = tracer.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
