"""Command-line front end.

Subcommands: spectrum, evolve, pmax, dark, attain, scan, sweep,
reproduce. Exit codes: 0 on success, 2 on usage or validation errors
(an output that cannot be opened or written, a closed pipe on stdout
included), 1 on an internal numeric failure. NetworkSpec and ScanConfig
refuse bad values when they are made; a ScanConfig refusal gets its
flag's "--" here.
CSV output uses %.12g formatting, LF line endings and always carries a
header; p(t) traces are written block by block as transfer.factor_chunks
yields them from the pair's two factors, through the vectorised writer
csvtext.rows_g12, byte for byte what %.12g gives. Only spectrum, pmax,
dark and attain build the grouped decomposition. Tables (spectrum,
dark, attain, sweep) are named columns, their rows made CHUNK at a time
from column slices. JSON output carries a top-level "schema": 1 field and is
byte for byte json.dumps(doc, indent=2) and a newline, rendered by json's
C encoder a container or a block of rows at a time as it is written. Plot
scripts are plain gnuplot and plot CSV only. reproduce runs evolve and
sweep commands into --output-dir, which it makes first, parents
included. A --horizon/--step grid may hold at most MAX_GRID_POINTS
points, and so may a --gamma-grid or --J-grid, the two factor passes
of a scan's or sweep's PST search and the (3N)^2 numbers of a
--dump-matrix.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .attainability import DEFAULT_RESIDUAL_TOL, check_attainability, independent_constraints
from .core import CHANNELS, BoundaryConditions, CouplingParams, NetworkSpec, Node
from .csvtext import rows_g12
from .hamiltonian import build_hamiltonian, dump_matrix
from .scan import ScanConfig, find_pst_times, gamma_sweep, pass_points
from .spectral import decompose
from .transfer import CHUNK, factor_chunks, grid_count, transfer_report

SCHEMA_VERSION = 1
# Largest time grid --horizon/--step may ask for. The default grid has
# 40 001 points and the longest bundled trace 120 001. At the bound a
# CSV trace is about 250 MB and a JSON trace about 560 MB; both are
# streamed a block at a time, so memory does not grow with the grid.
# A --dump-matrix past it, N > 1054, would build three dense 3N x 3N arrays.
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
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{name} start, stop and step must be numbers, got {text!r}") from None
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
    return NetworkSpec(args.n, bc, _couplings(args))


def _scan_config(args) -> ScanConfig:
    """--horizon, --step and, where the command has it, --epsilon, each
    refused under its flag's name, then the grid's point count."""
    try:
        cfg = ScanConfig(args.horizon, args.step, getattr(args, "epsilon", ScanConfig.epsilon))
    except ValueError as exc:  # ScanConfig names each value as its flag, less the "--"
        raise ValueError(f"--{exc}") from None
    # the ratio first: it may overflow to inf, where grid_count would raise
    if not (cfg.horizon / cfg.coarse_step < MAX_GRID_POINTS
            and grid_count(cfg.horizon, cfg.coarse_step) <= MAX_GRID_POINTS):
        raise ValueError(f"--horizon {cfg.horizon:g} at --step {cfg.coarse_step:g} gives more "
                         f"than {MAX_GRID_POINTS} grid points")
    return cfg


@contextmanager
def _open_out(path: str):
    """The stream of path, '-' for stdout, flushed or closed on leaving; an
    OSError while it is opened, written, flushed or closed is a usage error."""
    try:
        if path == "-":
            if sys.stdout is None:  # the process was started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", newline="") as fh:
                yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


@functools.cache
def _json_encoder(depth: int):
    """json's C encoder for items at depth: indent would turn it off, so
    the item separator carries the line break and the indent."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _json_flat(value, depth: int) -> str:
    """A scalar, or a container of scalars at depth, as indent=2 gives it."""
    text = _json_encoder(depth + 1)(value)
    if isinstance(value, (list, tuple, dict)) and value:
        return f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"
    return text


def _write_json_rows(write, blocks) -> None:
    """A table at depth 1 from its blocks of rows, one encoder call per
    block at the values' depth. With ensure_ascii no string holds a raw
    line break, so only the separators between rows match the replace
    that re-indents them."""
    encode = _json_encoder(3)
    lead = "[\n    "
    for block in blocks:
        text = encode(block)
        first, last = text[1], text[-2]  # the rows' brackets
        rows = text[2:-2].replace(f"{last},\n      {first}", f"\n    {last},\n    {first}\n      ")
        write(f"{lead}{first}\n      {rows}\n    {last}")
        lead = ",\n    "
    write("\n  ]" if lead[0] == "," else "[]")


def _write_json(stream, payload: dict) -> None:
    """{"schema": 1, **payload} byte for byte as json.dumps(doc, indent=2)
    and a newline give it, each piece written as soon as it is rendered.

    A payload value is a scalar, a container of scalars, or a table: an
    iterator of blocks, lists of flat, non-empty rows of one kind (lists,
    tuples or dicts of scalars), each written as it is yielded.
    """
    write = stream.write
    lead = "{\n  "
    for key, value in {"schema": SCHEMA_VERSION, **payload}.items():
        write(f"{lead}{_json_flat(key, 1)}: ")
        lead = ",\n  "
        if isinstance(value, (str, int, float, list, tuple, dict)) or value is None:
            write(_json_flat(value, 1))
        else:
            _write_json_rows(write, value)
    write("\n}\n")


def _blocks(table: dict):
    """Rows of a table of named columns, CHUNK at a time, from column slices."""
    columns = list(table.values())
    for at in range(0, len(columns[0]), CHUNK):
        yield list(zip(*(c[at:at + CHUNK].tolist() for c in columns)))


def _objects(table: dict):
    """The rows of a table as objects keyed by its column names."""
    return ([dict(zip(table, row)) for row in block] for block in _blocks(table))


def _write_table(args, table: dict, doc: dict | None = None) -> None:
    """A table of named columns as CSV rows under the names, or as the JSON
    doc, by default one object per row under "groups", a block at a time."""
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_json(out, doc or {"groups": _objects(table)})
            return
        out.write(",".join(table) + "\n")
        for block in _blocks(table):
            out.write("".join(",".join(map(_fmt, row)) + "\n" for row in block))


def _timed(step: float, blocks):
    """(times, p) of each block of p(i * step)."""
    start = 0
    for chunk in blocks:
        yield step * np.arange(start, start + len(chunk)), chunk
        start += len(chunk)


def _write_trace(stream, fmt: str, label: str, step: float, blocks, extra: dict) -> None:
    """p(i * step) from its blocks, written block by block: CSV rows, or
    the profile rows of a JSON document that ends with extra."""
    if fmt == "json":
        profile = (np.column_stack(block).tolist() for block in _timed(step, blocks))
        _write_json(stream, {"profile": profile, **extra})
        return
    stream.write(f"{label},p\n")
    for times, chunk in _timed(step, blocks):  # the rows _write_csv would give
        stream.write(rows_g12(times, chunk))


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
    if args.plot_script is None:
        return
    if args.output == "-":
        raise ValueError("--plot-script needs --output pointing at a file")
    if args.format != "csv":
        raise ValueError(f"--plot-script plots CSV, not --format {args.format}")


def _maybe_plot_script(args, xlabel: str, ylabel: str, style: str = "lines") -> None:
    if args.plot_script is not None:
        with _open_out(args.plot_script) as fh:
            plot = f'"{args.output}" using 1:2 with {style}'
            fh.write(_gnuplot(args.output, [(xlabel, ylabel, plot)]))


# ----- subcommand runners -----


def _cmd_spectrum(args) -> int:
    spec = _network(args)
    numbers = (CHANNELS * spec.N) ** 2
    if args.dump_matrix and numbers > MAX_GRID_POINTS:
        raise ValueError(f"--dump-matrix at N={spec.N} writes (3N)^2 = {numbers} numbers, "
                         f"more than {MAX_GRID_POINTS}")
    decomp = decompose(spec)
    if args.dump_matrix:
        with _open_out(args.dump_matrix) as fh:
            dump_matrix(build_hamiltonian(spec), fh)
    _write_table(args, {"group": np.arange(len(decomp)), "eigenvalue": decomp.values,
                        "multiplicity": decomp.multiplicities})
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
    cfg = _scan_config(args)
    extra = {}
    if args.command == "scan":
        flags = f"--gamma {c.J:g}" if c.scaled else f"--J {c.J:g} and --L {c.L:g}"
        _check_passes(spec, (input, output), [c.effective()[0]], cfg, flags)
        extra["pst_times"] = find_pst_times(spec, input, output, cfg)
    # a phase lambda t past the float range turns p into nan
    if not math.isfinite(c.eigenvalue_bound() * (cfg.horizon + cfg.coarse_step)):
        raise ValueError(f"--horizon {cfg.horizon:g} at --step {cfg.coarse_step:g} overflows the "
                         "phases: 2 (|J_eff| + |L_eff|) (horizon + step) is not finite")
    # reads the pair's factors, so both nodes are checked before the output opens
    blocks = factor_chunks(spec, input, output, cfg.coarse_step,
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
            "signs": report.signs.tolist(),
            "dark_groups": sorted(report.dark_groups),
        })
    return 0


def _cmd_dark(args) -> int:
    decomp, _, report = _pair_report(args)
    _write_table(args, {"group": np.arange(len(decomp)), "eigenvalue": decomp.values,
                        "overlap": report.overlaps, "sign": report.signs})
    return 0


def _cmd_attain(args) -> int:
    if not math.isfinite(args.tau):
        raise ValueError(f"--tau must be finite, got {args.tau:g}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol:g}")
    decomp, _, report = _pair_report(args)
    chain = independent_constraints(report, decomp)
    try:
        result = check_attainability(chain, args.tau, args.tol)
    except ValueError as exc:  # rounding at --tau reaches --tol
        raise ValueError(f"--tau {args.tau:g} is too large for --tol {args.tol:g}: {exc}") from None
    # the chain's four columns under their field names, then k and the residual
    table = {**vars(chain), "k": result.witnesses, "residual": result.residuals}
    with _open_out(args.output) as out:
        _write_json(out, {"tau": result.t, "tol": result.tol, "constraints": _objects(table),
                          "all_satisfied": result.all_satisfied})
    return 0


def _cmd_sweep(args) -> int:
    _check_plot_script(args)
    bc = BoundaryConditions.from_names(args.site_bc, args.channel_bc)
    pair = parse_node(args.node_in), parse_node(args.node_out)
    cfg = _scan_config(args)
    if (args.gamma_grid is None) == (args.J_grid is None):
        raise ValueError("give exactly one of --gamma-grid or --J-grid")
    # each grid value is the site coupling in the template's units
    if args.gamma_grid is not None:
        flag, grid = "--gamma-grid", parse_grid(args.gamma_grid, "--gamma-grid")
        couplings, header = CouplingParams.from_gamma(grid[0]), ["gamma", "tau_min"]
    else:
        flag, grid = "--J-grid", parse_grid(args.J_grid, "--J-grid")
        couplings, header = CouplingParams(J=grid[0], L=0.0), ["J", "t_min"]
    spec = NetworkSpec(args.n, bc, couplings)
    _check_passes(spec, pair, grid, cfg, f"{flag} up to {max(map(abs, grid)):g}")
    rows = gamma_sweep(spec, pair, grid, cfg)
    # object columns keep each tau_min a float, or None where no event
    table = dict(zip(header, np.array([(r.parameter, r.tau_min) for r in rows], dtype=object).T))
    _write_table(args, table, {"rows": _blocks(table), "columns": header})
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
    pair and defaults, written into the output directory, which is made
    first, parents included."""
    job = _FIGURES[args.figure]
    outdir = args.output_dir.rstrip("/") or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {outdir}: {exc.strerror}") from None
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
    with _open_out("-") as out:
        out.write("".join(f"{path}\n" for path in written))
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
    except (FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run_command(sys.argv[1:])
    try:
        if sys.stdout is not None:  # see _open_out
            sys.stdout.flush()
    except OSError:
        # a failed write is reported where it happened; what is left in the
        # buffer goes to devnull, or the flush at exit would print it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
