"""helix-pst benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {sweep,large_n,trace} --seed N \
        --seconds S --trace {0,1}

Run from the root of a helix-pst checkout; the library is imported
from its `src/`. Each repetition of the workload runs in a fresh child
process (closed loop, one client) that calls `helix_pst.cli.run_command`
once per command. Repetitions continue until the children have run for
S seconds. Between repetitions, short set-up-only children sample the
start-up cost. Every output is checked against an independent oracle
outside the timed region.

With --trace 0 the metrics are the end-to-end ones (medians over
repetitions). With --trace 1 untraced and traced repetitions run in
pairs, each pair in the other order than the last, and the metrics
are the per-layer ones of the traced repetitions plus the tracing
overhead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"

# HELIX_PST_THREADS matches the 2 cores the benchmark was sized on. A fixed
# 8 MiB mmap threshold hands every array of that size back to the system
# when it is freed, so peak RSS tracks the arrays alive at once; with
# glibc's sliding threshold it varied by +-10% between repetitions of
# sweep, with which pool thread's heap kept which freed array.
CHILD_ENV = {"HELIX_PST_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
             "MALLOC_MMAP_THRESHOLD_": str(8 << 20)}
MIN_REPS = 3  # workload repetitions per run (pairs with --trace 1: 2)
SETUP_PROBES = 2  # set-up-only children after each repetition
RUN_LIMIT_S = 170.0  # a run gives up, without a result, after this long
# a dense projector tensor of groups x dim x dim complex values, plus the
# copy made while it is built; groups <= dim = 3N
PROJECTOR_COPIES = 2
MEMORY_MARGIN_MIB = 512

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, by its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MiB"), ("_ratio", "ratio"), ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(Exception):
    """The run cannot produce a result; the message says why."""


def mem_available_mib() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def memory_needed_mib(commands) -> float:
    dim = 3 * max(c.args["n"] for c in commands)
    return PROJECTOR_COPIES * dim**3 * 16 / 2**20 + MEMORY_MARGIN_MIB


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "child_env": CHILD_ENV,
        "git_commit": git_commit(),
        "mem_available_mib": mem_available_mib(),
    }


class Runner:
    """Spawns the children of one run and checks what they wrote."""

    def __init__(self, workload: str, seed: int, size: str, outdir: Path):
        import workloads

        self.workload, self.seed, self.size = workload, seed, size
        self.outdir = outdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.commands = workloads.build(workload, seed, str(outdir), size == "tiny")
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._verdicts: dict = {}
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []  # (command index, message)
        # events that only the program's coarse grid cannot see; they are
        # the scan's known blind spot, not failed operations
        self.misses: list[tuple[int, str]] = []

    def spawn(self, mode: str) -> dict:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argv = [sys.executable, str(BENCH / "child.py"), self.workload, str(self.seed),
                str(self.outdir), self.size, mode]
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=max(0.0, self.deadline - start))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"the run did not finish within {RUN_LIMIT_S:.0f} s") from exc
        elapsed = time.monotonic() - start
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup_s"] = report["ready"] - start
        report["elapsed_s"] = elapsed
        if mode != "setup":
            self._check(report)
        return report

    def _check(self, report: dict) -> None:
        import checks

        report["missed_events"] = 0
        for i, (cmd, code, error) in enumerate(zip(self.commands, report["codes"],
                                                   report["errors"])):
            key = (i, code, error, _digest(cmd.output), _digest(cmd.stderr_path))
            if key not in self._verdicts:
                self._verdicts[key] = checks.verify(cmd, code, error)
            self.attempted += 1
            if self._verdicts[key] is None:
                continue
            kind, message, events = self._verdicts[key]
            if kind == checks.MISS:
                self.misses.append((i, message))
                report["missed_events"] += events
            else:
                self.failures.append((i, message))


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        workdir: Path = WORKDIR) -> dict:
    """Measure one workload; returns the result record."""
    outdir = workdir / f"{workload}-seed{seed}-trace{int(trace)}"
    runner = Runner(workload, seed, size, outdir)
    need, have = memory_needed_mib(runner.commands), mem_available_mib()
    if have is not None and have < need:
        raise BenchError(f"{workload} needs about {need:.0f} MiB but MemAvailable is "
                         f"{have:.0f} MiB; stopping before the system runs out of memory")

    runner.spawn("setup")  # warm-up: file cache and bytecode, not measured
    modes = ("run", "trace") if trace else ("run",)
    reps: dict[str, list[dict]] = {m: [] for m in modes}
    setups: list[float] = []
    measured = 0.0
    min_reps = 2 if trace else MIN_REPS
    try:
        while measured < seconds or len(reps["run"]) < min_reps:
            # each pair swaps which side runs first, so an order effect cancels
            for mode in modes if len(reps["run"]) % 2 == 0 else modes[::-1]:
                rep = runner.spawn(mode)
                reps[mode].append(rep)
                setups.append(rep["setup_s"])
                measured += rep["elapsed_s"]
            for _ in range(SETUP_PROBES):
                probe = runner.spawn("setup")
                setups.append(probe["setup_s"])
                measured += probe["elapsed_s"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    wall = statistics.median(r["wall_s"] for r in reps["run"])
    if trace:
        traced = reps["trace"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        # traced minus untraced wall time of each pair, so the machine's
        # drift over the run cancels
        metrics["bench.trace_overhead_s"] = statistics.median(
            t["wall_s"] - r["wall_s"] for r, t in zip(reps["run"], traced))
        metrics["scan.missed_events"] = statistics.median(r["missed_events"] for r in traced)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["maxrss_kib"] for r in reps["run"]) / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "missed": len(runner.misses),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "repetitions": {m: len(r) for m, r in reps.items()},
        "samples": {
            "wall_s": {m: [r["wall_s"] for r in reps[m]] for m in modes},
            "peak_rss_mb": {m: [r["maxrss_kib"] / 1024.0 for r in reps[m]] for m in modes},
            "setup_s": setups,
        },
        "setup_samples": len(setups),
        "failures": [{"command": " ".join(runner.commands[i].argv()), "message": message}
                     for i, message in runner.failures],
        "misses": [{"command": " ".join(runner.commands[i].argv()), "message": message}
                   for i, message in runner.misses],
        "metadata": metadata(workload, seed),
    }


def _print_summary(result: dict) -> None:
    meta = result["metadata"]
    print(f"helix-pst benchmark: workload={meta['workload']} seed={meta['seed']} "
          f"repetitions={result['repetitions']} set-up samples={result['setup_samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for name, key, what in (("error_rate", "failed", "failed"),
                            ("miss_rate", "missed", "missed a blind-spot PST event")):
        print(f"  {name:28s} {result[key] / result['attempted']:14.6g} ratio "
              f"({result[key]} of {result['attempted']} operations {what})")
    seen = set()
    for label, key in (("failed", "failures"), ("missed", "misses")):
        for f in result[key]:
            if (f["command"], f["message"]) not in seen:
                seen.add((f["command"], f["message"]))
                print(f"  {label}: {f['command']}\n      {f['message'][:400]}")
    print("metadata: " + json.dumps(meta))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "large_n", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "helix_pst" / "__init__.py").is_file():
        print(f"error: no helix-pst sources at {SRC}; run from a helix-pst checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    WORKDIR.mkdir(exist_ok=True)
    record = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    _print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
