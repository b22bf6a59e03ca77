"""Command-line front end.

Subcommands: spectrum, evolve, pmax, dark, attain, scan, sweep,
reproduce. Exit codes: 0 on success, 2 on usage or validation errors
(an unwritable output path included), 1 on an internal numeric failure.
CSV output uses %.12g formatting, LF line endings and always carries a
header; p(t) traces are written block by block as the grid kernel
yields them, through the vectorised writer csvtext.rows_g12, byte for
byte what %.12g gives. JSON output carries a top-level "schema": 1
field. Plot scripts are plain gnuplot. reproduce runs evolve and sweep
commands. A --horizon/--step grid may hold at most MAX_GRID_POINTS
points, and so may a --gamma-grid or --J-grid and the two factor passes
of a scan's or sweep's PST search.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .attainability import DEFAULT_RESIDUAL_TOL, check_attainability, independent_constraints
from .core import BoundaryConditions, CouplingParams, NetworkSpec, Node, flat_index, validate_spec
from .csvtext import rows_g12
from .hamiltonian import build_hamiltonian, dump_matrix
from .scan import ScanConfig, coupling_sweep_L0, find_pst_times, gamma_sweep, pass_points
from .spectral import decompose
from .transfer import grid_count, probability_chunks, projector_overlaps, transfer_report

SCHEMA_VERSION = 1
# Largest time grid --horizon/--step may ask for. The default grid has
# 40 001 points and the longest bundled trace 120 001. At the bound a
# CSV trace is about 250 MB; a JSON trace holds every point as a Python
# list, about 1.4 GB.
MAX_GRID_POINTS = 10 ** 7


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def parse_node(text: str) -> Node:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"node must be given as 'n,alpha', got {text!r}")
    try:
        n, alpha = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"node must be two integers 'n,alpha', got {text!r}") from None
    return Node(n, alpha)


def parse_grid(text: str, name: str = "grid") -> list[float]:
    """Points start, start + step, ..., stop; name labels the error messages."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} must be 'start:stop:step', got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{name} start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"{name} step must be positive")
    if stop < start:
        raise ValueError(f"{name} stop must not precede start")
    # the point count is floor(span + 0.5) + 1, bounded before any is built
    span = (stop - start) / step
    if not span + 0.5 < MAX_GRID_POINTS:
        raise ValueError(f"{name} has too many points, more than {MAX_GRID_POINTS}, got {text!r}")
    return [start + i * step for i in range(int(math.floor(span + 0.5)) + 1)]


def _add_network_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, required=True, help="sites per channel")
    sp.add_argument("--site-bc", choices=["closed", "open"], required=True)
    sp.add_argument("--channel-bc", choices=["closed", "open"], required=True)


def _add_coupling_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--gamma", type=float, default=None,
        help="coupling ratio J/L; selects scaled units with time axis tau = L t",
    )
    sp.add_argument("--J", type=float, default=None, help="site coupling, raw units")
    sp.add_argument("--L", type=float, default=None, help="channel coupling, raw units")


def _add_pair_args(sp: argparse.ArgumentParser) -> None:
    # dest names avoid clashing with the --output file path
    sp.add_argument("--in", dest="node_in", required=True, metavar="N,ALPHA",
                    help="input node 'n,alpha'")
    sp.add_argument("--out", dest="node_out", required=True, metavar="N,ALPHA",
                    help="output node 'n,alpha'")


def _add_time_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--horizon", type=float, default=ScanConfig.horizon)
    sp.add_argument("--step", type=float, default=ScanConfig.coarse_step)


def _add_epsilon_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--epsilon", type=float, default=ScanConfig.epsilon)


def _couplings(args) -> CouplingParams:
    has_gamma = args.gamma is not None
    has_raw = args.J is not None or args.L is not None
    if has_gamma and has_raw:
        raise ValueError("give either --gamma or --J with --L, not both")
    if has_gamma:
        return CouplingParams.from_gamma(args.gamma)
    if args.J is None or args.L is None:
        raise ValueError("raw couplings need both --J and --L (or use --gamma)")
    return CouplingParams(J=args.J, L=args.L)


def _network(args) -> NetworkSpec:
    bc = BoundaryConditions.from_names(args.site_bc, args.channel_bc)
    return validate_spec(NetworkSpec(args.n, bc, _couplings(args)))


def _scan_config(args) -> ScanConfig:
    """--horizon, --step and, where the command has it, --epsilon, each
    checked under its flag's name."""
    for flag, value in (("--horizon", args.horizon), ("--step", args.step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be positive and finite, got {value:g}")
    # the ratio first: it may overflow to inf, where grid_count would raise
    if not (args.horizon / args.step < MAX_GRID_POINTS
            and grid_count(args.horizon, args.step) <= MAX_GRID_POINTS):
        raise ValueError(f"--horizon {args.horizon:g} at --step {args.step:g} gives more "
                         f"than {MAX_GRID_POINTS} grid points")
    epsilon = getattr(args, "epsilon", ScanConfig.epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"--epsilon must lie in (0, 1), got {epsilon:g}")
    return ScanConfig(horizon=args.horizon, coarse_step=args.step, epsilon=epsilon)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_csv(stream, header: list[str], rows) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(stream, payload: dict) -> None:
    doc = {"schema": SCHEMA_VERSION}
    doc.update(payload)
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def _write_table(args, header: list[str], rows, doc: dict | None = None) -> None:
    """rows as CSV under header, or as the JSON doc, by default one object
    per row (a spectral group) keyed by header under "groups"."""
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, doc or {"groups": [dict(zip(header, row)) for row in rows]})
        else:
            _write_csv(out, header, rows)


def _write_trace(stream, fmt: str, label: str, step: float, blocks, extra: dict) -> None:
    """p(i * step) from its blocks: CSV rows block by block, or one JSON
    document of the points and extra."""
    points: list[list[float]] = []
    if fmt != "json":
        stream.write(f"{label},p\n")
    start = 0
    for chunk in blocks:
        times = step * np.arange(start, start + len(chunk))
        if fmt == "json":
            points += np.column_stack((times, chunk)).tolist()
        else:  # the rows _write_csv would give, _fmt being %.12g on floats
            stream.write(rows_g12(times, chunk))
        start += len(chunk)
    if fmt == "json":
        _write_json(stream, {"profile": points, **extra})


def _check_passes(spec: NetworkSpec, pair, grid, cfg: ScanConfig, flags: str) -> None:
    """Refuse a PST search whose factor passes exceed MAX_GRID_POINTS."""
    points = pass_points(spec, pair, grid, cfg)
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"{flags} at --horizon {cfg.horizon:g} needs {points:.3g} factor-pass "
                         f"grid points, more than {MAX_GRID_POINTS}")


def _gnuplot(title: str, panels: list[tuple[str, str, str]]) -> str:
    """A gnuplot script of (xlabel, ylabel, plot arguments) panels, stacked
    in one multiplot when there are several."""
    lines = [f"# gnuplot script for {title}", 'set datafile separator ","',
             "set key autotitle columnhead"]
    if len(panels) > 1:
        lines.append(f"set multiplot layout {len(panels)},1")
    for xlabel, ylabel, plot in panels:
        lines += [f'set xlabel "{xlabel}"', f'set ylabel "{ylabel}"', f"plot {plot}"]
    if len(panels) > 1:
        lines.append("unset multiplot")
    return "\n".join(lines + [""])


def _check_plot_script(args) -> None:
    if args.plot_script is not None and args.output == "-":
        raise ValueError("--plot-script needs --output pointing at a file")


def _maybe_plot_script(args, xlabel: str, ylabel: str, style: str = "lines") -> None:
    if args.plot_script is not None:
        with _open_out(args.plot_script) as fh:
            plot = f'"{args.output}" using 1:2 with {style}'
            fh.write(_gnuplot(args.output, [(xlabel, ylabel, plot)]))


# ----- subcommand runners -----


def _cmd_spectrum(args) -> int:
    spec = _network(args)
    decomp = decompose(spec)
    if args.dump_matrix:
        with _open_out(args.dump_matrix) as fh:
            dump_matrix(build_hamiltonian(spec), fh)
    rows = [
        (k, float(decomp.values[k]), int(decomp.multiplicities[k]))
        for k in range(len(decomp))
    ]
    _write_table(args, ["group", "eigenvalue", "multiplicity"], rows)
    return 0


def _cmd_trace(args) -> int:
    """evolve and scan: p(i * step) written block by block; scan also
    searches for PST times and reports them on stderr."""
    _check_plot_script(args)
    spec = _network(args)
    c = spec.couplings
    if c.J == 0.0 and c.L == 0.0:
        raise ValueError("J and L cannot both be zero when dynamics are requested")
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    for node in (input, output):  # checked before the output is opened
        flat_index(node, spec.N)
    cfg = _scan_config(args)
    extra = {}
    if args.command == "scan":
        flags = f"--gamma {c.J:g}" if c.scaled else f"--J {c.J:g} and --L {c.L:g}"
        _check_passes(spec, (input, output), [c.effective()[0]], cfg, flags)
        extra["pst_times"] = find_pst_times(spec, input, output, cfg)
    decomp = decompose(spec)
    o = projector_overlaps(decomp, input, output)
    blocks = probability_chunks(o, decomp.values, cfg.coarse_step,
                                grid_count(cfg.horizon, cfg.coarse_step))
    label = "tau" if c.scaled else "t"
    with _open_out(args.output) as out:
        _write_trace(out, args.format, label, cfg.coarse_step, blocks, extra)
    if extra.get("pst_times"):
        print("PST times: " + ", ".join(_fmt(t) for t in extra["pst_times"]), file=sys.stderr)
    elif extra:
        print("no PST event within the horizon", file=sys.stderr)
    _maybe_plot_script(args, label, "p")
    return 0


def _pair_report(args):
    """The decomposition of the network and the transfer report of the
    --in/--out pair, with the pair."""
    spec = _network(args)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    decomp = decompose(spec)
    return decomp, (input, output), transfer_report(decomp, input, output)


def _cmd_pmax(args) -> int:
    _, (input, output), report = _pair_report(args)
    with _open_out(args.output) as out:
        _write_json(out, {
            "input": [input.n, input.alpha],
            "output": [output.n, output.alpha],
            "p_max": report.p_max,
            "signs": [int(s) for s in report.signs],
            "dark_groups": sorted(report.dark_groups),
        })
    return 0


def _cmd_dark(args) -> int:
    decomp, _, report = _pair_report(args)
    rows = [
        (k, float(decomp.values[k]), float(report.overlaps[k]), int(report.signs[k]))
        for k in range(len(decomp))
    ]
    _write_table(args, ["group", "eigenvalue", "overlap", "sign"], rows)
    return 0


def _cmd_attain(args) -> int:
    if not math.isfinite(args.tau):
        raise ValueError(f"--tau must be finite, got {args.tau:g}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
    decomp, _, report = _pair_report(args)
    chain = independent_constraints(report, decomp)
    result = check_attainability(chain, args.tau, args.tol)
    with _open_out(args.output) as out:
        _write_json(out, {
            "tau": result.t,
            "tol": result.tol,
            "constraints": [
                {
                    "left_group": c.left_group,
                    "right_group": c.right_group,
                    "delta_lambda": c.delta_lambda,
                    "offset": c.offset,
                    "k": c.satisfied_k,
                    "residual": float(r),
                }
                for c, r in zip(result.constraints, result.residuals)
            ],
            "all_satisfied": result.all_satisfied,
        })
    return 0


def _cmd_sweep(args) -> int:
    _check_plot_script(args)
    bc = BoundaryConditions.from_names(args.site_bc, args.channel_bc)
    pair = parse_node(args.node_in), parse_node(args.node_out)
    cfg = _scan_config(args)
    if (args.gamma_grid is None) == (args.J_grid is None):
        raise ValueError("give exactly one of --gamma-grid or --J-grid")
    if args.gamma_grid is not None:
        flag, grid = "--gamma-grid", parse_grid(args.gamma_grid, "--gamma-grid")
        spec = validate_spec(NetworkSpec(args.n, bc, CouplingParams.from_gamma(grid[0])))
        header = ["gamma", "tau_min"]
    else:
        flag, grid = "--J-grid", parse_grid(args.J_grid, "--J-grid")
        spec = validate_spec(NetworkSpec(args.n, bc, CouplingParams(J=grid[0], L=0.0)))
        header = ["J", "t_min"]
    _check_passes(spec, pair, grid, cfg, f"{flag} up to {max(map(abs, grid)):g}")
    if header[0] == "gamma":
        rows = gamma_sweep(spec, pair, grid, cfg)
    else:
        rows = coupling_sweep_L0(args.n, bc, pair, grid, cfg)
    table = [(r.parameter, r.tau_min) for r in rows]
    _write_table(args, header, table, {"rows": table, "columns": header})
    _maybe_plot_script(args, header[0], header[1], style="points")
    return 0


# ----- figure reproduction -----


@dataclass(frozen=True)
class _FigureJob:
    N: int
    site_bc: str
    channel_bc: str
    pair: tuple[str, str]
    trace_gammas: tuple[float, ...]
    trace_horizon: float
    sweep: bool  # tau_min vs gamma panel; every figure has the t_min vs J one


_FIGURES: dict[str, _FigureJob] = {
    "fig2": _FigureJob(8, "closed", "closed", ("0,1", "4,1"), (3.0, 5.0), 150.0, True),
    "fig3": _FigureJob(5, "open", "open", ("0,1", "4,1"), (4.0, 15.0), 150.0, True),
    "fig4": _FigureJob(4, "open", "closed", ("0,1", "3,1"), (4.0, 9.4), 100.0, True),
    "fig5": _FigureJob(6, "closed", "open", ("0,1", "3,1"), (4.0, 8.25), 500.0, False),
}

_SWEEP_GRID = "0.5:20:0.05"
_TRACE_STEP = 0.005


def _cmd_reproduce(args) -> int:
    """Each panel is an evolve or sweep command with the figure's network,
    pair and defaults, written into the output directory."""
    job = _FIGURES[args.figure]
    outdir = args.output_dir.rstrip("/") or "."
    network = ["--n", str(job.N), "--site-bc", job.site_bc,
               "--channel-bc", job.channel_bc, "--in", job.pair[0], "--out", job.pair[1]]
    written: list[str] = []

    def panel(name: str, command: str, *flags: str) -> str:
        path = f"{outdir}/{name}"
        sub = build_parser().parse_args([command, *network, *flags, f"--output={path}"])
        sub.func(sub)
        written.append(path)
        return name

    traces = []
    for g in job.trace_gammas:
        name = panel(f"{args.figure}a_gamma{_fmt(g)}.csv", "evolve", "--gamma", repr(g),
                     "--horizon", repr(job.trace_horizon), "--step", repr(_TRACE_STEP))
        traces.append(f'"{name}" using 1:2 with lines title "gamma={_fmt(g)}"')
    panels = [("tau", "p", ", ".join(traces))]
    sweeps = [("gamma", "tau_min")] if job.sweep else []
    for letter, (x, y) in zip("bc", sweeps + [("J", "t_min")]):
        name = panel(f"{args.figure}{letter}_{y}_vs_{x}.csv", "sweep", f"--{x}-grid", _SWEEP_GRID)
        panels.append((x, y, f'"{name}" using 1:2 with points title "{y}"'))
    gp_path = f"{outdir}/{args.figure}.gp"
    with _open_out(gp_path) as fh:
        fh.write(_gnuplot(args.figure, panels))
    written.append(gp_path)
    for path in written:
        print(path)
    return 0


# ----- parser assembly -----


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The helix-pst parser, built once per process; parsing leaves it
    unchanged, so every command shares it."""
    parser = argparse.ArgumentParser(
        prog="helix-pst",
        description="Excitation transfer on a three-channel helical spin network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    network = (_add_network_args, _add_coupling_args)
    pair = (*network, _add_pair_args)

    def command(name, help, run, groups, formats=("csv", "json"), plot=False):
        """Register a subcommand: its argument groups in order, then
        --format when it has formats, --output, and --plot-script when
        it writes a table a gnuplot script can plot."""
        sp = sub.add_parser(name, help=help)
        for add in groups:
            add(sp)
        if formats:
            sp.add_argument("--format", choices=list(formats), default=formats[0])
        sp.add_argument("--output", default="-", help="output path, '-' for stdout")
        if plot:
            sp.add_argument("--plot-script", default=None,
                            help="also write a gnuplot script next to the data")
        sp.set_defaults(func=run)
        return sp

    def attain_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--tau", type=float, required=True, help="candidate time")
        sp.add_argument("--tol", type=float, default=DEFAULT_RESIDUAL_TOL,
                        help="residual tolerance, radians")

    def grid_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--gamma-grid", default=None, metavar="START:STOP:STEP")
        sp.add_argument("--J-grid", dest="J_grid", default=None, metavar="START:STOP:STEP")

    sp = command("spectrum", "distinct eigenvalues and multiplicities", _cmd_spectrum, network)
    sp.add_argument("--dump-matrix", default=None,
                    help="also write the Hamiltonian as plain text")
    command("evolve", "transition probability over a time grid", _cmd_trace,
            (*pair, _add_time_args), plot=True)
    command("pmax", "phase-alignment transfer bound for a pair", _cmd_pmax, pair, formats=())
    command("dark", "per-group overlaps, signs and dark groups", _cmd_dark, pair)
    command("attain", "check phase congruences at a candidate time", _cmd_attain,
            (*pair, attain_args), formats=())
    command("scan", "locate perfect-transfer times on a horizon", _cmd_trace,
            (*pair, _add_time_args, _add_epsilon_arg), plot=True)
    command("sweep", "tau_min versus gamma, or t_min versus J at L=0", _cmd_sweep,
            (_add_network_args, _add_pair_args, _add_time_args, _add_epsilon_arg, grid_args),
            plot=True)

    sp = sub.add_parser("reproduce", help="regenerate a bundled figure configuration")
    sp.add_argument("figure", choices=sorted(_FIGURES))
    sp.add_argument("--output-dir", default=".")
    sp.set_defaults(func=_cmd_reproduce)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
