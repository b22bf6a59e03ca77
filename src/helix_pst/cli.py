"""Command-line front end.

Subcommands: spectrum, evolve, pmax, dark, attain, scan, sweep,
reproduce. Exit codes: 0 on success, 2 on usage or validation errors,
1 on an internal numeric failure. CSV output uses %.12g formatting, LF
line endings and always carries a header; JSON output carries a
top-level "schema": 1 field. Plot scripts are plain gnuplot.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .attainability import check_attainability, independent_constraints
from .core import BoundaryConditions, CouplingParams, NetworkSpec, Node, validate_spec
from .hamiltonian import build_hamiltonian, dump_matrix
from .scan import ScanConfig, coupling_sweep_L0, find_pst_times, gamma_sweep
from .spectral import eigendecompose_numeric
from .transfer import probability_profile, transfer_report

SCHEMA_VERSION = 1


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
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"{name} has too many points, got {text!r}")
    count = int(math.floor(span + 0.5)) + 1
    return [start + i * step for i in range(count)]


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


def _add_scan_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--horizon", type=float, default=200.0)
    sp.add_argument("--step", type=float, default=0.005)
    sp.add_argument("--epsilon", type=float, default=1e-3)


def _add_output_args(sp: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    if formats:
        sp.add_argument("--format", choices=list(formats), default=formats[0])
    sp.add_argument("--output", default="-", help="output path, '-' for stdout")
    sp.add_argument("--plot-script", default=None,
                    help="also write a gnuplot script next to the data")


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


def _require_dynamics(spec: NetworkSpec) -> None:
    if spec.couplings.J == 0.0 and spec.couplings.L == 0.0:
        raise ValueError("J and L cannot both be zero when dynamics are requested")


def _check_time_flags(args) -> None:
    for flag, value in (("--horizon", args.horizon), ("--step", args.step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be positive and finite, got {value:g}")


def _time_grid(args) -> np.ndarray:
    """0, step, ..., horizon; the flags are checked before numpy sees them."""
    _check_time_flags(args)
    return np.arange(0.0, args.horizon + 0.5 * args.step, args.step)


def _time_label(spec: NetworkSpec) -> str:
    return "tau" if spec.couplings.scaled else "t"


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
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


def _plot_script_text(csv_path: str, xlabel: str, ylabel: str, style: str) -> str:
    return "\n".join(
        [
            f"# gnuplot script for {csv_path}",
            'set datafile separator ","',
            "set key autotitle columnhead",
            f'set xlabel "{xlabel}"',
            f'set ylabel "{ylabel}"',
            f'plot "{csv_path}" using 1:2 with {style}',
            "",
        ]
    )


def _maybe_plot_script(args, xlabel: str, ylabel: str, style: str = "lines") -> None:
    if args.plot_script is None:
        return
    if args.output == "-":
        raise ValueError("--plot-script needs --output pointing at a file")
    with open(args.plot_script, "w", newline="") as fh:
        fh.write(_plot_script_text(args.output, xlabel, ylabel, style))


# ----- subcommand runners -----


def _cmd_spectrum(args) -> int:
    spec = _network(args)
    H = build_hamiltonian(spec)
    decomp = eigendecompose_numeric(H)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", newline="") as fh:
            dump_matrix(H, fh)
    rows = [
        (k, float(decomp.values[k]), int(decomp.multiplicities[k]))
        for k in range(len(decomp))
    ]
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, {
                "groups": [
                    {"group": k, "eigenvalue": v, "multiplicity": m}
                    for k, v, m in rows
                ],
            })
        else:
            _write_csv(out, ["group", "eigenvalue", "multiplicity"], rows)
    return 0


def _cmd_evolve(args) -> int:
    spec = _network(args)
    _require_dynamics(spec)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    grid = _time_grid(args)
    decomp = eigendecompose_numeric(build_hamiltonian(spec))
    profile = probability_profile(decomp, input, output, grid)
    label = _time_label(spec)
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, {"profile": [[t, p] for t, p in profile]})
        else:
            _write_csv(out, [label, "p"], profile)
    _maybe_plot_script(args, label, "p")
    return 0


def _cmd_pmax(args) -> int:
    spec = _network(args)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    decomp = eigendecompose_numeric(build_hamiltonian(spec))
    report = transfer_report(decomp, input, output)
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
    spec = _network(args)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    decomp = eigendecompose_numeric(build_hamiltonian(spec))
    report = transfer_report(decomp, input, output)
    rows = [
        (k, float(decomp.values[k]), float(report.overlaps[k]), int(report.signs[k]))
        for k in range(len(decomp))
    ]
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, {
                "groups": [
                    {"group": k, "eigenvalue": v, "overlap": o, "sign": s}
                    for k, v, o, s in rows
                ],
            })
        else:
            _write_csv(out, ["group", "eigenvalue", "overlap", "sign"], rows)
    return 0


def _cmd_attain(args) -> int:
    if not math.isfinite(args.tau):
        raise ValueError(f"--tau must be finite, got {args.tau:g}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
    spec = _network(args)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    decomp = eigendecompose_numeric(build_hamiltonian(spec))
    report = transfer_report(decomp, input, output)
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


def _cmd_scan(args) -> int:
    spec = _network(args)
    _require_dynamics(spec)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    grid = _time_grid(args)
    cfg = ScanConfig(horizon=args.horizon, coarse_step=args.step, epsilon=args.epsilon)
    decomp = eigendecompose_numeric(build_hamiltonian(spec))
    profile = probability_profile(decomp, input, output, grid)
    times = find_pst_times(decomp, input, output, cfg)
    label = _time_label(spec)
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, {
                "profile": [[t, p] for t, p in profile],
                "pst_times": times,
            })
        else:
            _write_csv(out, [label, "p"], profile)
    if times:
        print("PST times: " + ", ".join(_fmt(t) for t in times), file=sys.stderr)
    else:
        print("no PST event within the horizon", file=sys.stderr)
    _maybe_plot_script(args, label, "p")
    return 0


def _cmd_sweep(args) -> int:
    bc = BoundaryConditions.from_names(args.site_bc, args.channel_bc)
    input, output = parse_node(args.node_in), parse_node(args.node_out)
    _check_time_flags(args)
    cfg = ScanConfig(horizon=args.horizon, coarse_step=args.step, epsilon=args.epsilon)
    if (args.gamma_grid is None) == (args.J_grid is None):
        raise ValueError("give exactly one of --gamma-grid or --J-grid")
    if args.gamma_grid is not None:
        grid = parse_grid(args.gamma_grid, "--gamma-grid")
        template = validate_spec(
            NetworkSpec(args.n, bc, CouplingParams.from_gamma(grid[0])))
        rows = gamma_sweep(template, (input, output), grid, cfg)
        header = ["gamma", "tau_min"]
        xlabel = "gamma"
    else:
        grid = parse_grid(args.J_grid, "--J-grid")
        validate_spec(NetworkSpec(args.n, bc, CouplingParams(J=grid[0], L=0.0)))
        rows = coupling_sweep_L0(args.n, bc, (input, output), grid, cfg)
        header = ["J", "t_min"]
        xlabel = "J"
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, {
                "rows": [[r.parameter, r.tau_min] for r in rows],
                "columns": header,
            })
        else:
            _write_csv(out, header, [(r.parameter, r.tau_min) for r in rows])
    _maybe_plot_script(args, xlabel, header[1], style="points")
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
    sweep: bool  # tau_min vs gamma panel
    l0_sweep: bool  # t_min vs J panel

    @property
    def bc(self) -> BoundaryConditions:
        return BoundaryConditions.from_names(self.site_bc, self.channel_bc)


_FIGURES: dict[str, _FigureJob] = {
    "fig2": _FigureJob(8, "closed", "closed", ("0,1", "4,1"), (3.0, 5.0), 150.0, True, True),
    "fig3": _FigureJob(5, "open", "open", ("0,1", "4,1"), (4.0, 15.0), 150.0, True, True),
    "fig4": _FigureJob(4, "open", "closed", ("0,1", "3,1"), (4.0, 9.4), 100.0, True, True),
    "fig5": _FigureJob(6, "closed", "open", ("0,1", "3,1"), (4.0, 8.25), 500.0, False, True),
}

_SWEEP_GRID = "0.5:20:0.05"
_TRACE_STEP = 0.005


def _cmd_reproduce(args) -> int:
    job = _FIGURES[args.figure]
    outdir = args.output_dir.rstrip("/") or "."
    input, output = parse_node(job.pair[0]), parse_node(job.pair[1])
    cfg = ScanConfig()
    written: list[str] = []
    plots: list[tuple[str, str, str, str, str]] = []

    trace_files = []
    for gamma in job.trace_gammas:
        spec = validate_spec(NetworkSpec(job.N, job.bc, CouplingParams.from_gamma(gamma)))
        decomp = eigendecompose_numeric(build_hamiltonian(spec))
        grid = np.arange(0.0, job.trace_horizon + 0.5 * _TRACE_STEP, _TRACE_STEP)
        profile = probability_profile(decomp, input, output, grid)
        name = f"{args.figure}a_gamma{_fmt(gamma)}.csv"
        path = f"{outdir}/{name}"
        with open(path, "w", newline="") as fh:
            _write_csv(fh, ["tau", "p"], profile)
        written.append(path)
        trace_files.append((name, gamma))

    if job.sweep:
        grid = parse_grid(_SWEEP_GRID)
        template = validate_spec(
            NetworkSpec(job.N, job.bc, CouplingParams.from_gamma(grid[0])))
        rows = gamma_sweep(template, (input, output), grid, cfg)
        name = f"{args.figure}b_tau_min_vs_gamma.csv"
        path = f"{outdir}/{name}"
        with open(path, "w", newline="") as fh:
            _write_csv(fh, ["gamma", "tau_min"], [(r.parameter, r.tau_min) for r in rows])
        written.append(path)
        plots.append((name, "gamma", "tau_min", "points", "tau_min"))

    if job.l0_sweep:
        grid = parse_grid(_SWEEP_GRID)
        rows = coupling_sweep_L0(job.N, job.bc, (input, output), grid, cfg)
        panel = "c" if job.sweep else "b"
        name = f"{args.figure}{panel}_t_min_vs_J.csv"
        path = f"{outdir}/{name}"
        with open(path, "w", newline="") as fh:
            _write_csv(fh, ["J", "t_min"], [(r.parameter, r.tau_min) for r in rows])
        written.append(path)
        plots.append((name, "J", "t_min", "points", "t_min"))

    script = [f"# gnuplot script for {args.figure}",
              'set datafile separator ","',
              "set key autotitle columnhead",
              f"set multiplot layout {1 + len(plots)},1"]
    trace_parts = ", ".join(
        f'"{name}" using 1:2 with lines title "gamma={_fmt(g)}"' for name, g in trace_files
    )
    script += ['set xlabel "tau"', 'set ylabel "p"', f"plot {trace_parts}"]
    for name, xlabel, ylabel, style, title in plots:
        script += [
            f'set xlabel "{xlabel}"',
            f'set ylabel "{ylabel}"',
            f'plot "{name}" using 1:2 with {style} title "{title}"',
        ]
    script += ["unset multiplot", ""]
    gp_path = f"{outdir}/{args.figure}.gp"
    with open(gp_path, "w", newline="") as fh:
        fh.write("\n".join(script))
    written.append(gp_path)
    for path in written:
        print(path)
    return 0


# ----- parser assembly -----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="helix-pst",
        description="Excitation transfer on a three-channel helical spin network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="distinct eigenvalues and multiplicities")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_output_args(sp)
    sp.add_argument("--dump-matrix", default=None,
                    help="also write the Hamiltonian as plain text")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("evolve", help="transition probability over a time grid")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_pair_args(sp)
    _add_scan_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("pmax", help="phase-alignment transfer bound for a pair")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_pair_args(sp)
    _add_output_args(sp, formats=())
    sp.set_defaults(func=_cmd_pmax)

    sp = sub.add_parser("dark", help="per-group overlaps, signs and dark groups")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_pair_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_dark)

    sp = sub.add_parser("attain", help="check phase congruences at a candidate time")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_pair_args(sp)
    sp.add_argument("--tau", type=float, required=True, help="candidate time")
    sp.add_argument("--tol", type=float, default=0.05, help="residual tolerance, radians")
    _add_output_args(sp, formats=())
    sp.set_defaults(func=_cmd_attain)

    sp = sub.add_parser("scan", help="locate perfect-transfer times on a horizon")
    _add_network_args(sp)
    _add_coupling_args(sp)
    _add_pair_args(sp)
    _add_scan_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("sweep", help="tau_min versus gamma, or t_min versus J at L=0")
    _add_network_args(sp)
    _add_pair_args(sp)
    _add_scan_args(sp)
    sp.add_argument("--gamma-grid", default=None, metavar="START:STOP:STEP")
    sp.add_argument("--J-grid", dest="J_grid", default=None, metavar="START:STOP:STEP")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_sweep)

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
