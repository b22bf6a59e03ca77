import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import count_grid_points, make_decomp, make_spec
from helix_pst import cli, core, scan, spectral, transfer
from helix_pst.cli import parse_grid, parse_node, run_command
from helix_pst import Node, grid_count
from helix_pst.transfer import factor_chunks


def run(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(*args):
    raise AssertionError("must not be called")


def test_parse_node():
    assert parse_node("4,1") == Node(4, 1)
    with pytest.raises(ValueError):
        parse_node("4")
    with pytest.raises(ValueError):
        parse_node("a,b")


def test_parse_grid():
    assert parse_grid("1:2:0.5") == pytest.approx([1.0, 1.5, 2.0])
    assert parse_grid("3:3:1") == [3.0]
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("2:1:0.5")
    with pytest.raises(ValueError):
        parse_grid("1:2:0")
    for text in ("0:inf:1", "nan:2:1", "1:2:-inf", "1:2:nan"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_grid(text)
    with pytest.raises(ValueError, match="too many points"):
        parse_grid("0:1e308:1e-308")  # the point count overflows, nothing is allocated


def test_parse_grid_bounds_its_point_count_before_building_it(monkeypatch):
    # 1e12 points would be built one float at a time; the count is refused
    # first, and the bound is inclusive
    with pytest.raises(ValueError, match=f"--gamma-grid has too many points, more than "
                                         f"{cli.MAX_GRID_POINTS}, got '0:1e12:1'"):
        parse_grid("0:1e12:1", "--gamma-grid")
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
    assert parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert len(parse_grid("0:4.49:1")) == 5
    for text in ("0:5:1", "0:4.5:1"):
        with pytest.raises(ValueError, match="too many points"):
            parse_grid(text)


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_gamma_and_raw_couplings_conflict(capsys):
    code, _, err = run(
        ["spectrum", "--n", "4", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--J", "1", "--L", "1"],
        capsys,
    )
    assert code == 2
    assert "either --gamma or --J with --L" in err


def test_missing_L_is_usage_error(capsys):
    code, _, err = run(
        ["spectrum", "--n", "4", "--site-bc", "closed", "--channel-bc", "closed",
         "--J", "1"],
        capsys,
    )
    assert code == 2
    assert "--J and --L" in err


def test_spectrum_csv_and_dump(tmp_path, capsys):
    dump = tmp_path / "H.txt"
    out = tmp_path / "spec.csv"
    code, _, _ = run(
        ["spectrum", "--n", "3", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "0", "--output", str(out), "--dump-matrix", str(dump)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "group,eigenvalue,multiplicity"
    assert lines[1:] == ["0,-1,6", "1,2,3"]
    assert dump.read_text().splitlines()[0] == "dim= 9"


def test_spectrum_dump_builds_hamiltonian_once(tmp_path, capsys, monkeypatch):
    import helix_pst.cli as cli

    calls = []
    build = cli.build_hamiltonian

    def counting_build(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(cli, "build_hamiltonian", counting_build)
    code, _, _ = run(
        ["spectrum", "--n", "3", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "2", "--output", str(tmp_path / "s.csv"),
         "--dump-matrix", str(tmp_path / "H.txt")],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1


def _refuse(*args, **kwargs):
    raise AssertionError("the dense route was taken")


def test_spectrum_without_dump_never_builds_the_hamiltonian(tmp_path, capsys, monkeypatch):
    import numpy as np

    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["spectrum", "--n", "3", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "0", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text().splitlines()[1:] == ["0,-1,6", "1,2,3"]


def test_pmax_at_n_1e5_runs_without_the_dense_route(tmp_path, capsys, monkeypatch):
    # the dense route would need a 300 000 x 300 000 matrix, ~720 GB
    import numpy as np

    monkeypatch.setattr(cli, "build_hamiltonian", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    out = tmp_path / "pmax.json"
    code, _, err = run(
        ["pmax", "--n", "100000", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "2", "--in", "0,1", "--out", "99999,3", "--output", str(out)],
        capsys,
    )
    assert code == 0, err
    doc = json.loads(out.read_text())
    assert 0.0 < doc["p_max"] <= 1.0 + 1e-12
    # one sign per group; a few ties between the factors merge labels
    assert 290_000 < len(doc["signs"]) <= 300_000
    assert set(doc["signs"]) <= {-1, 0, 1}


PAIR_ARGS = ["--n", "4", "--site-bc", "closed", "--channel-bc", "closed",
             "--in", "0,1", "--out", "2,1"]


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--gamma", "2", "--horizon", "inf"], "--horizon"),
    (["evolve", "--gamma", "2", "--horizon", "nan"], "--horizon"),
    (["evolve", "--gamma", "2", "--horizon", "-1"], "--horizon"),
    (["evolve", "--gamma", "2", "--step", "inf"], "--step"),
    (["scan", "--gamma", "2", "--horizon", "inf"], "--horizon"),
    (["scan", "--gamma", "2", "--horizon", "nan"], "--horizon"),
    (["scan", "--gamma", "2", "--step", "nan"], "--step"),
    (["sweep", "--gamma-grid", "1:2:1", "--horizon", "inf"], "--horizon"),
    (["sweep", "--gamma-grid", "0:inf:1"], "--gamma-grid"),
    (["sweep", "--J-grid", "1:2:nan"], "--J-grid"),
    (["attain", "--gamma", "2", "--tau", "inf"], "--tau"),
    (["attain", "--gamma", "2", "--tau=-inf"], "--tau"),
    (["attain", "--gamma", "2", "--tau", "nan"], "--tau"),
    (["attain", "--gamma", "2", "--tau", "1", "--tol", "inf"], "--tol"),
    (["attain", "--gamma", "2", "--tau", "1", "--tol", "nan"], "--tol"),
    (["attain", "--gamma", "2", "--tau", "1", "--tol", "0"], "--tol"),
    (["scan", "--gamma", "2", "--epsilon", "nan"], "--epsilon"),
    # phases lambda t overflow past t = 2.2e307 at gamma = 3
    (["evolve", "--gamma", "3", "--horizon", "1e308", "--step", "1e303"], "--horizon"),
])
def test_non_finite_inputs_name_their_flag(argv, flag, capsys):
    code, out, err = run(argv[:1] + PAIR_ARGS + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("flag, text", [
    ("--gamma-grid", "a:2:0.5"),
    ("--gamma-grid", "1:2:"),
    ("--J-grid", "1:b:0.5"),
    ("--J-grid", "1:2:0,5"),
])
def test_non_numeric_grid_part_names_its_flag(flag, text, capsys):
    code, out, err = run(["sweep"] + PAIR_ARGS + [flag, text], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} start, stop and step must be numbers, got {text!r}\n"


@pytest.mark.parametrize("command", ["scan", "sweep"])
def test_out_of_range_epsilon_names_flag_and_value(command, capsys):
    grid = ["--gamma-grid", "1:2:1"] if command == "sweep" else ["--gamma", "2"]
    code, out, err = run([command] + PAIR_ARGS + grid + ["--epsilon", "7"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --epsilon must lie in (0, 1), got 7\n"


@pytest.mark.parametrize("command", ["scan", "sweep"])
@pytest.mark.parametrize("epsilon", ["1e-17", "1e-16", "1.2e-16"])
def test_epsilon_too_small_to_certify_a_step_names_flag_and_value(command, epsilon, capsys):
    grid = ["--gamma-grid", "1:2:1"] if command == "sweep" else ["--gamma", "2"]
    code, out, err = run([command] + PAIR_ARGS + grid + ["--epsilon", epsilon], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --epsilon {epsilon} is too small: ")


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--gamma", "1e308", "--format", "json"], "gamma=1e+308"),
    (["spectrum", "--J", "1e308", "--L", "1"], "J=1e+308, L=1"),
    (["pmax", "--gamma", "1e308", "--in", "0,1", "--out", "4,1"], "gamma=1e+308"),
    (["pmax", "--J", "1e308", "--L", "1", "--in", "0,1", "--out", "4,1"], "J=1e+308, L=1"),
    (["evolve", "--gamma", "1e308", "--in", "0,1", "--out", "4,1", "--format", "json",
      "--horizon", "1"], "gamma=1e+308"),
    (["evolve", "--J", "1e308", "--L", "1", "--in", "0,1", "--out", "4,1"], "J=1e+308, L=1"),
])
def test_couplings_whose_eigenvalues_overflow_are_usage_errors(argv, named, capsys):
    # finite flags whose eigenvalues J_eff sigma + L_eff c overflow to nan
    code, out, err = run(argv[:1] + ["--n", "8", "--site-bc", "closed", "--channel-bc", "closed"]
                         + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: couplings {named} too large: ")


@pytest.mark.parametrize("argv, named", [
    (["spectrum", "--gamma", "4e307"], "gamma=4e+307"),
    (["spectrum", "--J", "2e307", "--L", "2e307", "--format", "json"], "J=2e+307, L=2e+307"),
    (["pmax", "--gamma", "4e307", "--in", "0,1", "--out", "4,1"], "gamma=4e+307"),
    (["pmax", "--J=-4e307", "--L", "1", "--in", "0,1", "--out", "4,1"], "J=-4e+307, L=1"),
])
def test_couplings_whose_group_sums_overflow_are_usage_errors(argv, named, capsys):
    # a finite eigenvalue bound whose sum over 3N = 24 eigenvalues is not:
    # a group's value would sum to -inf
    code, out, err = run(argv[:1] + ["--n", "8", "--site-bc", "closed", "--channel-bc", "closed"]
                         + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: couplings {named} too large for N=8: the sum of 3N eigenvalues, "
                   "3N * 2 (|J_eff| + |L_eff|), overflows\n")


EXTREME_COUPLINGS = [["--gamma", "1e300"], ["--gamma", "1e-300"], ["--J", "1e300", "--L", "1"],
                     ["--J", "1", "--L", "1e300"], ["--J", "1", "--L", "2e154"],
                     ["--J", "1e-320", "--L", "1e-320"]]
TINY_HORIZON = ["--horizon", "1e-150", "--step", "1e-150"]
COMMAND_FLAGS = {"spectrum": [], "evolve": ["--horizon", "5"], "pmax": [], "dark": [],
                 "attain": ["--tau", "1"], "scan": ["--horizon", "5"]}


@pytest.mark.parametrize("argv", [
    [command, *couplings, *flags] for command, flags in COMMAND_FLAGS.items()
    for couplings in EXTREME_COUPLINGS
] + [["sweep", flag, grid, "--horizon", "5"] for flag in ("--gamma-grid", "--J-grid")
     for grid in ("1e-300:1e-300:1", "1e150:1e150:1")] + [
    # the product's W2(g) overflows while both factor passes stay small
    ["scan", "--gamma", "1e154", *TINY_HORIZON],
    ["scan", "--n", "8", "--channel-bc", "closed", "--out", "4,1", "--gamma", "1e154",
     *TINY_HORIZON],
    ["sweep", "--gamma-grid", "1e154:1e154:1", *TINY_HORIZON],
    ["sweep", "--n", "8", "--channel-bc", "closed", "--out", "4,1", "--gamma-grid",
     "1e154:1e154:1", *TINY_HORIZON],
    # a subnormal site coupling with site windows: the pair stays on its site
    # and its channel factor nears 1 - 2 epsilon just before the horizon
    ["scan", "--out", "0,3", "--gamma", "1e-320", "--horizon", "2.185"],
    ["scan", "--out", "0,3", "--J", "1e-320", "--L", "1", "--horizon", "2.185"],
    ["sweep", "--out", "0,1", "--J-grid=1e-320:1e-320:1", "--horizon", "2.185"],
    ["sweep", "--out", "0,3", "--gamma-grid=1e-310:1e-310:1", "--horizon", "2.185"],
])
def test_every_command_at_extreme_couplings_exits_0_or_2_without_a_warning(argv, tmp_path,
                                                                            capsys):
    # a coupling near the float range either works or is refused with one
    # line; no overflow may warn and go on, or end in a numeric failure.
    # A scan that works reports its events on stderr. Flags given after
    # the default network and pair override them
    network = ["--n", "6", "--site-bc", "closed", "--channel-bc", "open"]
    pair = [] if argv[0] == "spectrum" else ["--in", "0,1", "--out", "3,2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([argv[0], *network, *pair, *argv[1:],
                              "--output", str(tmp_path / "out")], capsys)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2)
    assert out == ""
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ("no PST event within the horizon\n" if argv[0] == "scan" else "")


@pytest.mark.parametrize("coupling, named", [
    (["--J", "1", "--L", "1e300"], "--J 1 and --L 1e+300"),
    (["--J", "1e200", "--L", "1e200"], "--J 1e+200 and --L 1e+200"),
])
def test_a_scan_whose_channel_curvature_overflows_needs_inf_pass_points(coupling, named,
                                                                        capsys):
    # the channel factor's W2 overflows and certifies a step of 0; the
    # search divided by it and exited 1
    code, out, err = run(["scan", "--n", "6", "--site-bc", "closed", "--channel-bc", "open",
                          *coupling, "--in", "0,1", "--out", "3,2", "--horizon", "5"], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"error: {named} at --horizon 5 needs inf factor-pass grid points, "
                   f"more than {cli.MAX_GRID_POINTS}\n")


def test_evolve_has_no_epsilon_flag(capsys):
    # evolve finds no PST times, so a threshold would be silently ignored
    code, out, err = run(["evolve"] + PAIR_ARGS + ["--gamma", "2", "--horizon", "1",
                                                   "--epsilon", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --epsilon 0.5" in err


def test_evolve_csv_scaled_header_and_values(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run(
        ["evolve", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--in", "0,1", "--out", "4,1",
         "--horizon", "1", "--step", "0.5", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,p"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.0, abs=1e-12)


def test_evolve_raw_header_is_t(capsys):
    code, out, _ = run(
        ["evolve", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--J", "3", "--L", "1", "--in", "0,1", "--out", "4,1",
         "--horizon", "1", "--step", "0.5"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "t,p"


def test_evolve_rejects_frozen_network(capsys):
    code, _, err = run(
        ["evolve", "--n", "4", "--site-bc", "open", "--channel-bc", "open",
         "--J", "0", "--L", "0", "--in", "0,1", "--out", "1,1"],
        capsys,
    )
    assert code == 2
    assert "cannot both be zero" in err


def test_pmax_json_trivial_pair(capsys):
    code, out, _ = run(
        ["pmax", "--n", "5", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "15", "--in", "0,1", "--out", "0,1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["p_max"] == pytest.approx(1.0, abs=1e-9)
    assert doc["dark_groups"] == []


def test_dark_csv_marks_zero_sign_rows(tmp_path, capsys):
    out = tmp_path / "dark.csv"
    code, _, _ = run(
        ["dark", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "2.5", "--in", "0,1", "--out", "2,1", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "group,eigenvalue,overlap,sign"
    signs = [int(line.split(",")[3]) for line in lines[1:]]
    assert len(signs) == 10
    assert signs.count(0) == 4


def test_attain_json_structure(capsys):
    code, out, _ = run(
        ["attain", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--in", "0,1", "--out", "4,1",
         "--tau", "73.3055", "--tol", "0.05"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["all_satisfied"] is True
    assert len(doc["constraints"]) == 9
    for c in doc["constraints"]:
        assert c["residual"] < 0.05
        assert isinstance(c["k"], int)


@pytest.mark.parametrize("tau", ["1e17", "-1e17", "1e300"])
def test_attain_refuses_a_tau_its_tolerance_cannot_resolve(tau, tmp_path, capsys):
    # at 1e17 a residual of 16.0 rad with k = 22507907903927656 was rounding noise
    out = tmp_path / "attain.json"
    code, stdout, err = run(["attain", "--n", "5", "--site-bc", "open", "--channel-bc", "open",
                             "--gamma", "2", "--in", "0,1", "--out", "4,1", f"--tau={tau}",
                             "--output", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith(f"error: --tau {float(tau):g} is too large for --tol 0.05: ")


def test_scan_reports_times_on_stderr(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = run(
        ["scan", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--in", "0,1", "--out", "4,1",
         "--horizon", "20", "--epsilon", "0.005", "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert err.startswith("PST times: 12.57618")
    assert out.read_text().splitlines()[0] == "tau,p"


def test_scan_reports_absence(capsys):
    code, _, err = run(
        ["scan", "--n", "5", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "4", "--in", "0,1", "--out", "4,1",
         "--horizon", "30", "--output", "-"],
        capsys,
    )
    assert code == 0
    assert "no PST event within the horizon" in err


def test_sweep_requires_exactly_one_grid(capsys):
    base = ["sweep", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
            "--in", "0,1", "--out", "4,1"]
    code, _, err = run(base, capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(
        base + ["--gamma-grid", "1:2:1", "--J-grid", "1:2:1"], capsys)
    assert code == 2


def test_sweep_gamma_csv_with_empty_cells(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        ["sweep", "--n", "6", "--site-bc", "closed", "--channel-bc", "open",
         "--gamma-grid", "4:8:2", "--in", "0,1", "--out", "3,1",
         "--horizon", "60", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,tau_min"
    # transfer through open channels never clears the PST bar
    assert lines[1:] == ["4,", "6,", "8,"]


def test_sweep_J_grid_header(tmp_path, capsys):
    out = tmp_path / "sweepJ.csv"
    code, _, _ = run(
        ["sweep", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--J-grid", "2:2:1", "--in", "0,1", "--out", "4,1",
         "--horizon", "100", "--output", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "J,t_min"
    J, t_min = lines[1].split(",")
    assert float(J) == 2.0
    assert float(t_min) == pytest.approx(45.5463, abs=1e-3)


def test_plot_script_requires_file_output(capsys, tmp_path):
    code, out, err = run(
        ["evolve", "--n", "4", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "2", "--in", "0,1", "--out", "3,1",
         "--horizon", "1", "--step", "0.5",
         "--plot-script", str(tmp_path / "p.gp")],
        capsys,
    )
    assert code == 2
    assert "--plot-script needs --output" in err
    assert out == ""  # rejected before the trace is computed
    assert not (tmp_path / "p.gp").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["scan", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["sweep", "--gamma-grid", "1:2:1", "--in", "0,1", "--out", "3,1"],
])
def test_plot_script_refuses_json_output(argv, tmp_path, capsys, monkeypatch):
    # gnuplot reads the script's data as CSV, so a JSON file cannot be
    # plotted; the refusal comes before any work
    for module, name in ((spectral, "pair_factors"), (scan, "pair_factors"),
                         (transfer, "pair_factors")):
        monkeypatch.setattr(module, name, refuse)
    out, gp = tmp_path / "f.json", tmp_path / "p.gp"
    code, stdout, err = run(
        argv[:1] + ["--n", "4", "--site-bc", "open", "--channel-bc", "open"] + argv[1:]
        + ["--format", "json", "--output", str(out), "--plot-script", str(gp)],
        capsys,
    )
    assert code == 2
    assert err == "error: --plot-script plots CSV, not --format json\n"
    assert stdout == ""
    assert not out.exists() and not gp.exists()


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--gamma", "2", "--in", "0,1", "--out", "3,1"], "--plot-script"),
    (["scan", "--gamma", "2", "--in", "0,1", "--out", "3,1"], "--plot-script"),
    (["sweep", "--gamma-grid", "1:2:1", "--in", "0,1", "--out", "3,1"], "--plot-script"),
    (["spectrum", "--gamma", "2"], "--dump-matrix"),
], ids=["evolve", "scan", "sweep", "spectrum"])
@pytest.mark.parametrize("second", ["sub/../a.csv", "link.csv"])
def test_a_second_output_on_the_output_file_is_refused(argv, flag, second, tmp_path, capsys,
                                                       monkeypatch):
    # the file written second would replace the data: the paths are compared
    # as resolved, symlinks included, before any work and any file is opened
    for module, name in ((spectral, "pair_factors"), (scan, "pair_factors"),
                         (transfer, "pair_factors"), (cli, "decompose")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    os.symlink("a.csv", "link.csv")
    code, out, err = run(
        argv[:1] + ["--n", "4", "--site-bc", "open", "--channel-bc", "open"] + argv[1:]
        + ["--output", "a.csv", flag, second],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {second} and --output a.csv are the same file\n"
    assert not (tmp_path / "a.csv").exists()


def test_a_second_output_on_stdout_stays_allowed(tmp_path, capsys):
    code, out, err = run(["evolve", *_RING8_PAIR, "--horizon", "1", "--output",
                          str(tmp_path / "a.csv"), "--plot-script", "-"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("# gnuplot script for ")
    assert (tmp_path / "a.csv").read_text().startswith("tau,p\n")


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["dark", "--in", "0,1", "--out", "3,1"],
    ["pmax", "--in", "0,1", "--out", "3,1"],
    ["attain", "--in", "0,1", "--out", "3,1", "--tau", "1"],
])
def test_plot_script_is_not_a_flag_of_table_free_commands(argv, tmp_path, capsys):
    # these commands write no plottable p(t) or sweep table
    gp = tmp_path / "p.gp"
    code, out, err = run(
        argv[:1] + ["--n", "4", "--site-bc", "open", "--channel-bc", "open", "--gamma", "2"]
        + argv[1:] + ["--output", str(tmp_path / "f.out"), "--plot-script", str(gp)],
        capsys,
    )
    assert code == 2
    assert "unrecognized arguments: --plot-script" in err
    assert out == ""
    assert not gp.exists()
    assert not (tmp_path / "f.out").exists()


def test_plot_script_contents(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    gp = tmp_path / "trace.gp"
    code, _, _ = run(
        ["evolve", "--n", "4", "--site-bc", "open", "--channel-bc", "open",
         "--gamma", "2", "--in", "0,1", "--out", "3,1",
         "--horizon", "1", "--step", "0.5",
         "--output", str(csv), "--plot-script", str(gp)],
        capsys,
    )
    assert code == 0
    text = gp.read_text()
    assert 'set datafile separator ","' in text
    assert str(csv) in text


def test_csv_uses_lf_line_endings(tmp_path, capsys):
    out = tmp_path / "eol.csv"
    run(
        ["spectrum", "--n", "3", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "1", "--output", str(out)],
        capsys,
    )
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_reproduce_fig4_writes_expected_files(tmp_path, capsys):
    code, out, _ = run(["reproduce", "fig4", "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "fig4.gp",
        "fig4a_gamma4.csv",
        "fig4a_gamma9.4.csv",
        "fig4b_tau_min_vs_gamma.csv",
        "fig4c_t_min_vs_J.csv",
    ]
    listed = out.splitlines()
    assert len(listed) == 5
    trace = (tmp_path / "fig4a_gamma9.4.csv").read_text().splitlines()
    assert trace[0] == "tau,p"
    # the first arrival sits near tau = 8.37 with p about 0.995
    peak = max((float(line.split(",")[1]) for line in trace[1:3000]), default=0.0)
    assert peak > 0.99
    # each panel is the evolve or sweep command with the same parameters
    network = ["--n", "4", "--site-bc", "open", "--channel-bc", "closed",
               "--in", "0,1", "--out", "3,1"]
    for name, argv in (
        ("fig4a_gamma4.csv", ["evolve", "--gamma", "4", "--horizon", "100"]),
        ("fig4a_gamma9.4.csv", ["evolve", "--gamma", "9.4", "--horizon", "100"]),
        ("fig4b_tau_min_vs_gamma.csv", ["sweep", "--gamma-grid", "0.5:20:0.05"]),
        ("fig4c_t_min_vs_J.csv", ["sweep", "--J-grid", "0.5:20:0.05"]),
    ):
        direct = tmp_path / f"direct-{name}"
        code, _, _ = run(argv[:1] + network + argv[1:] + ["--output", str(direct)], capsys)
        assert code == 0
        assert direct.read_bytes() == (tmp_path / name).read_bytes(), name


def test_reproduce_makes_its_output_directory_with_parents(tmp_path, capsys):
    outdir = tmp_path / "figures" / "fig4"
    code, out, err = run(["reproduce", "fig4", "--output-dir", str(outdir)], capsys)
    assert code == 0 and err == ""
    assert sorted(p.name for p in outdir.iterdir()) == [
        "fig4.gp", "fig4a_gamma4.csv", "fig4a_gamma9.4.csv", "fig4b_tau_min_vs_gamma.csv",
        "fig4c_t_min_vs_J.csv"]
    assert out.splitlines() == [str(outdir / name) for name in (
        "fig4a_gamma4.csv", "fig4a_gamma9.4.csv", "fig4b_tau_min_vs_gamma.csv",
        "fig4c_t_min_vs_J.csv", "fig4.gp")]


@pytest.mark.parametrize("outdir, prefix", [
    ("/", "/"), ("//", "//"), ("out", "out/"), ("out/", "out/"), (".", "./"), ("", "./")])
def test_reproduce_joins_its_paths_to_the_output_directory(outdir, prefix, monkeypatch, capsys):
    # the paths are recorded, and nothing is made or written
    made, opened = [], []
    monkeypatch.setattr(os, "makedirs", lambda path, exist_ok=False: made.append(path))

    class Sink(io.StringIO):
        def __init__(self, path, *args, **kwargs):
            super().__init__()
            opened.append(path)

    monkeypatch.setattr(cli, "open", Sink, raising=False)
    # fig4 with one short trace and two-point sweeps
    monkeypatch.setitem(cli._FIGURES, "fig4", cli._FigureJob(
        4, "open", "closed", ("0,1", "3,1"), (4.0,), 0.01, True))
    monkeypatch.setattr(cli, "_SWEEP_GRID", "0.5:1:0.5")
    code, out, err = run(["reproduce", "fig4", "--output-dir", outdir], capsys)
    assert (code, err) == (0, "")
    assert made == [outdir or "."]
    assert opened == [prefix + name for name in (
        "fig4a_gamma4.csv", "fig4b_tau_min_vs_gamma.csv", "fig4c_t_min_vs_J.csv", "fig4.gp")]
    assert out.splitlines() == opened


@pytest.mark.parametrize("argv", [
    ["spectrum", "--gamma", "2", "--output", "{missing}/a.csv"],
    ["spectrum", "--gamma", "2", "--output", "{tmp}/a.csv", "--dump-matrix", "{missing}/H.txt"],
    ["evolve", "--gamma", "2", "--in", "0,1", "--out", "3,1", "--horizon", "1",
     "--output", "{tmp}/a.csv", "--plot-script", "{missing}/a.gp"],
    ["reproduce", "fig4", "--output-dir", "{missing}"],
])
def test_unwritable_path_is_a_usage_error(argv, tmp_path, capsys):
    # a file where a directory of the path should be: no command can make it
    (tmp_path / "no").write_text("")
    missing = tmp_path / "no" / "such"
    argv = [a.format(missing=missing, tmp=tmp_path) for a in argv]
    if argv[0] != "reproduce":
        argv[1:1] = ["--n", "4", "--site-bc", "open", "--channel-bc", "open"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: cannot write ")
    assert str(missing) in err


_RING8_PAIR = ["--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "3",
               "--in", "0,1", "--out", "4,1"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", [
    "pmax",  # fits the file's buffer: the error comes at close
    "evolve",  # fills it: the error comes at a write
])
def test_a_write_to_a_full_device_is_a_usage_error(command, capsys):
    code, _, err = run([command, *_RING8_PAIR, "--output", "/dev/full"], capsys)
    assert (code, err) == (2, "error: cannot write /dev/full: No space left on device\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("command", ["evolve", "dark"])
def test_a_stdout_whose_reader_is_gone_is_a_usage_error(command, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code, _, err = run([command, *_RING8_PAIR], capsys)
    assert (code, err) == (2, f"error: cannot write -: {os.strerror(errno.EPIPE)}\n")
    # a process started with stdout closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    code, _, err = run([command, *_RING8_PAIR], capsys)
    assert (code, err) == (2, f"error: cannot write -: {os.strerror(errno.EBADF)}\n")


def run_fresh(argv, stderr, shell: str = '"$@"') -> subprocess.CompletedProcess:
    """argv through the module's main() in a fresh process, run by a shell
    line on "$@", its stdout captured and its stderr the given file."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.run(["sh", "-c", f"exec {shell}", "sh", sys.executable, "-m",
                           "helix_pst.cli", *argv], stdout=subprocess.PIPE, stderr=stderr,
                          env=env, timeout=120, check=False)


_SCAN_P4 = ["scan", "--n", "4", "--site-bc", "open", "--channel-bc", "open", "--J", "1",
            "--L", "0", "--in", "0,1", "--out", "3,1", "--horizon", "10"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stderr", ["full", "closed", "pipe"])
def test_a_stderr_that_cannot_take_the_scan_summary_exits_2(stderr, tmp_path, capsys):
    # the summary comes after the table is written: the file is whole
    code, _, err = run([*_SCAN_P4, "--output", str(tmp_path / "want.csv")], capsys)
    assert (code, err) == (0, "no PST event within the horizon\n")
    out = tmp_path / "scan.csv"
    argv = [*_SCAN_P4, "--output", str(out)]
    if stderr == "full":
        with open("/dev/full", "w") as full:
            proc = run_fresh(argv, full)
    elif stderr == "closed":
        proc = run_fresh(argv, None, '"$@" 2>&-')
    else:  # a pipe whose reader is gone
        read, write = os.pipe()
        os.close(read)
        proc = run_fresh(argv, write)
        os.close(write)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_a_stderr_closed_from_the_start_exits_2(tmp_path, capsys, monkeypatch):
    # such a process may have sys.stderr None, where print would pick stdout
    monkeypatch.setattr(sys, "stderr", None)
    assert run_command([*_SCAN_P4, "--output", str(tmp_path / "scan.csv")]) == 2
    assert run_command(["pmax", *_RING8_PAIR[:-1], "9,1"]) == 2
    assert capsys.readouterr().out == ""
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 2002


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_refusal_whose_error_line_cannot_be_written_exits_2():
    argv = ["pmax", *_RING8_PAIR[:-1], "9,1"]  # the node is off the ring
    with open("/dev/full", "w") as full:
        proc = run_fresh(argv, full)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_a_dump_matrix_beyond_the_point_limit_opens_no_file(tmp_path, capsys, monkeypatch):
    # (3N)^2 numbers at N = 1055 is 10 017 225, past MAX_GRID_POINTS = 10^7
    build = cli.build_hamiltonian
    monkeypatch.setattr(cli, "build_hamiltonian", refuse)
    network = ["--site-bc", "open", "--channel-bc", "open", "--gamma", "2"]
    argv = ["spectrum", "--n", "1055", *network, "--output", str(tmp_path / "s.csv"),
            "--dump-matrix", str(tmp_path / "H.txt")]
    code, _, err = run(argv, capsys)
    assert (code, err) == (2, "error: --dump-matrix at N=1055 writes (3N)^2 = 10017225 "
                              "numbers, more than 10000000\n")
    assert list(tmp_path.iterdir()) == []
    # the bound is inclusive: N = 2 gives (3 N)^2 = 36 numbers
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 36)
    code, _, _ = run(["spectrum", "--n", "3", *network, "--dump-matrix", "-"], capsys)
    assert code == 2
    monkeypatch.setattr(cli, "build_hamiltonian", build)
    code, out, _ = run(["spectrum", "--n", "2", *network, "--dump-matrix", "-"], capsys)
    assert code == 0
    assert out.startswith("dim= 6\n")


def test_a_numeric_failure_exits_1(capsys, monkeypatch):
    def divide(spec):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "decompose", divide)
    code, _, err = run(["spectrum", "--n", "4", "--site-bc", "open", "--channel-bc", "open",
                        "--gamma", "2"], capsys)
    assert (code, err) == (1, "numeric failure: float division by zero\n")


def test_evolve_csv_memory_does_not_grow_with_the_grid(tmp_path, capsys):
    out = tmp_path / "long.csv"
    argv = ["evolve", "--n", "8", "--site-bc", "open", "--channel-bc", "open",
            "--gamma", "2.7", "--in", "0,1", "--out", "7,3",
            "--horizon", "2000", "--output", str(out)]
    tracemalloc.start()
    try:
        code = run_command(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = out.read_text().count("\n") - 1
    assert rows == grid_count(2000.0, 0.005) == 400_001
    # one (points x groups) complex array would take 400 001 * 24 * 16 B,
    # 146 MiB; the blocks and their rows need well under a MiB each
    assert peak < 400_001 * 24 * 16 // 20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_evaluates_the_trace_grid_once_and_bounds_its_passes(fmt, tmp_path, capsys,
                                                                 monkeypatch):
    passes = count_grid_points(monkeypatch, (scan,))
    trace = count_grid_points(monkeypatch, (transfer,))
    out = tmp_path / f"scan.{fmt}"
    code, _, err = run(
        ["scan", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--in", "0,1", "--out", "4,1", "--horizon", "80",
         "--format", fmt, "--output", str(out)],
        capsys,
    )
    assert code == 0
    assert err == "PST times: 73.3055114357\n"
    count = grid_count(80.0, 0.005)
    # the site and channel streams, block by block, each over the grid once
    assert trace[::2] == trace[1::2] and sum(trace[::2]) == count == 16_001
    # the search's two factor passes, within the bound checked beforehand
    spec = make_decomp(8, "closed", "closed", gamma=3.0)[0]
    cfg = scan.ScanConfig(horizon=80.0)
    assert 0 < sum(passes) <= scan.pass_points(spec, (Node(0, 1), Node(4, 1)), [3.0], cfg) + 2
    if fmt == "json":
        doc = json.loads(out.read_text())
        assert len(doc["profile"]) == count and doc["pst_times"]
    else:
        assert len(out.read_text().splitlines()) == count + 1
    # scan writes the very trace evolve writes for the same grid
    traced = tmp_path / f"evolve.{fmt}"
    code, _, err = run(
        ["evolve", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
         "--gamma", "3", "--in", "0,1", "--out", "4,1", "--horizon", "80",
         "--format", fmt, "--output", str(traced)],
        capsys,
    )
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(traced.read_text()) == {"schema": 1, "profile": doc["profile"]}
    else:
        assert traced.read_bytes() == out.read_bytes()


def test_commands_sharing_the_cached_parser_match_fresh_parses(capsys):
    network = ["--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
               "--gamma", "3", "--in", "0,1", "--out", "4,1"]
    argvs = [["evolve", *network, "--horizon", "1", "--step", "0.25", "--format", "json"],
             ["scan", *network, "--horizon", "80"],
             ["pmax", *network]]
    assert cli.build_parser() is cli.build_parser()
    shared = [run(argv, capsys) for argv in argvs]
    for argv, result in zip(argvs, shared):
        args = cli.build_parser.__wrapped__().parse_args(argv)
        code = args.func(args)
        captured = capsys.readouterr()
        assert result == (code, captured.out, captured.err), argv[0]
    assert [r[0] for r in shared] == [0, 0, 0]
    assert shared[1][2] == "PST times: 73.3055114357\n"


@pytest.mark.parametrize("network, pair, flags", [
    # a bright pair
    (("8", "closed", "closed"), ("0,1", "4,1"), ["--horizon", "20"]),
    # p below 1e-11 for the first 583 points, then down to e-06 form
    (("24", "open", "open"), ("0,1", "23,3"), ["--horizon", "10"]),
    # times from 1e-05 on
    (("8", "closed", "closed"), ("0,1", "4,1"), ["--horizon", "0.002", "--step", "1e-5"]),
    # times of four digits
    (("5", "open", "open"), ("0,1", "4,1"), ["--horizon", "5000", "--step", "0.0731"]),
])
def test_evolve_csv_equals_percent_formatting_of_the_blocks(network, pair, flags, tmp_path,
                                                            capsys):
    N, site, channel = network
    out = tmp_path / "trace.csv"
    argv = ["evolve", "--n", N, "--site-bc", site, "--channel-bc", channel, "--gamma", "2",
            "--in", pair[0], "--out", pair[1], *flags, "--output", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    args = cli.build_parser().parse_args(argv)
    spec = make_spec(int(N), site, channel, gamma=2.0)
    text, start = ["tau,p\n"], 0
    for chunk in factor_chunks(spec, parse_node(pair[0]), parse_node(pair[1]), args.step,
                               grid_count(args.horizon, args.step)):
        rows = np.column_stack((args.step * np.arange(start, start + len(chunk)), chunk))
        text.append("%.12g,%.12g\n" * len(chunk) % tuple(rows.ravel().tolist()))
        start += len(chunk)
    # line lists, so that a failure names its first differing row
    assert out.read_bytes().split(b"\n") == "".join(text).encode("ascii").split(b"\n")


def per_cell_lines(header: str, *columns) -> list[str]:
    """The CSV lines of the columns made cell by cell: "%.12g" for a float,
    str for an int and nothing for None."""
    def cell(x):
        return "" if x is None else "%.12g" % x if isinstance(x, float) else str(x)
    return [header] + [",".join(map(cell, row)) for row in zip(*columns)] + [""]


@pytest.mark.parametrize("command", ["spectrum", "dark", "sweep"])
def test_table_csv_equals_per_cell_formatting(command, tmp_path, capsys):
    out = tmp_path / "table.csv"
    if command == "sweep":
        argv = ["sweep", "--n", "4", "--site-bc", "open", "--channel-bc", "closed",
                "--in", "0,1", "--out", "3,1", "--gamma-grid=-3:3:0.25"]
        rows = scan.gamma_sweep(make_spec(4, "open", "closed", gamma=-3.0),
                                (Node(0, 1), Node(3, 1)), parse_grid("-3:3:0.25"),
                                scan.ScanConfig())
        taus = [r.tau_min for r in rows]
        assert None in taus and any(taus)  # no-event rows beside events
        expected = per_cell_lines("gamma,tau_min", [r.parameter for r in rows], taus)
    else:
        # raw couplings, a negative J, with more groups than one block holds
        network = ["--n", "1400", "--site-bc", "open", "--channel-bc", "open",
                   "--J", "-1.7", "--L", "0.3"]
        decomp = spectral.decompose(make_spec(1400, "open", "open", J=-1.7, L=0.3))
        assert len(decomp) > cli.CHUNK
        groups = range(len(decomp))
        if command == "spectrum":
            argv = ["spectrum", *network]
            expected = per_cell_lines("group,eigenvalue,multiplicity", groups,
                                      decomp.values.tolist(), decomp.multiplicities.tolist())
        else:
            argv = ["dark", *network, "--in", "0,1", "--out", "1399,2"]
            report = transfer.transfer_report(decomp, Node(0, 1), Node(1399, 2))
            assert -1 in report.signs and 0 in report.signs
            expected = per_cell_lines("group,eigenvalue,overlap,sign", groups,
                                      report.values.tolist(), report.overlaps.tolist(),
                                      report.signs.tolist())
    code, _, err = run([*argv, "--output", str(out)], capsys)
    assert (code, err) == (0, "")
    # line lists, so that a failure names its first differing row
    assert out.read_text().split("\n") == expected


def test_scan_with_a_node_off_the_network_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run(["scan", "--n", "4", "--site-bc", "open", "--channel-bc", "open",
                        "--gamma", "2", "--in", "0,1", "--out", "9,1",
                        "--output", str(out)], capsys)
    assert code == 2
    assert err == "error: site index 9 out of range for N=4\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--gamma", "2", "--horizon", "1e308", "--step", "1e-300"],
    ["scan", "--gamma", "2", "--horizon", "1e6", "--step", "1e-3"],
    ["sweep", "--gamma-grid", "1:2:1", "--horizon", "1e300", "--step", "1e-20"],
])
def test_grid_beyond_the_point_limit_names_horizon_and_step(argv, tmp_path, capsys):
    # each grid would need far more points than memory or time allows, so
    # the check must come before any of them is evaluated
    out = tmp_path / "never.csv"
    code, stdout, err = run(argv[:1] + PAIR_ARGS + argv[1:] + ["--output", str(out)], capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("error: --horizon ")
    assert f"--step {float(argv[-1]):g} gives more than {cli.MAX_GRID_POINTS} grid points" in err


def test_grid_point_limit_is_inclusive():
    args = cli.build_parser().parse_args(["scan"] + PAIR_ARGS + ["--step", "1"])
    args.horizon = cli.MAX_GRID_POINTS - 1.0
    assert grid_count(args.horizon, 1.0) == cli.MAX_GRID_POINTS
    assert cli._scan_config(args).horizon == args.horizon
    args.horizon += 1.0
    with pytest.raises(ValueError, match="--horizon 1e\\+07 at --step 1 gives more than"):
        cli._scan_config(args)


@pytest.mark.parametrize("gamma, first", [("14.5", "6.28225568159"), ("19.5", "27.2270176341")])
def test_scan_finds_the_events_a_fixed_grid_misses(gamma, first, capsys):
    # at gamma = 14.5 a full grid at --step 0.005 finds no event, and at
    # 19.5 its first one is a revival late (81.68)
    code, _, err = run(["scan", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
                        "--gamma", gamma, "--in", "0,1", "--out", "4,1", "--output", "-"],
                       capsys)
    assert code == 0
    assert err.startswith(f"PST times: {first}")


@pytest.mark.parametrize("coupling, named", [
    (["--gamma", "1e6"], "--gamma 1e+06"),
    (["--J", "3", "--L", "1e6"], "--J 3 and --L 1e+06"),
])
def test_scan_passes_beyond_the_point_limit_name_the_couplings_and_horizon(
        coupling, named, tmp_path, capsys, monkeypatch):
    # the fig2 pair: at gamma = 1e6 the site pass, at L = 1e6 the channel
    # pass, would take ~4.5e9 points; the check comes before any grid
    for module in (scan, transfer):
        monkeypatch.setattr(module, "probability_chunks", refuse)
    out = tmp_path / "never.csv"
    code, stdout, err = run(["scan", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed",
                             *coupling, "--in", "0,1", "--out", "4,1", "--output", str(out)],
                            capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: {named} at --horizon 200 needs 4.")
    assert f"factor-pass grid points, more than {cli.MAX_GRID_POINTS}" in err


def test_sweep_grid_beyond_the_point_limit_exits_before_building_it(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, stdout, err = run(["sweep", *PAIR_ARGS, "--gamma-grid", "0:1e12:1",
                             "--output", str(out)], capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("error: --gamma-grid has too many points")


@pytest.mark.parametrize("grid", [["--J-grid", "1e5:1e5:1"], ["--gamma-grid", "0.5:2e5:1e5"]])
def test_sweep_site_pass_beyond_the_point_limit_names_the_grid_and_horizon(
        grid, tmp_path, capsys, monkeypatch):
    # the fig5 pair at J = 1e5: its site pass over 1e5 times the horizon
    # would take ~4e8 points; the check comes before any grid is evaluated
    monkeypatch.setattr(scan, "probability_chunks", refuse)
    out = tmp_path / "never.csv"
    code, stdout, err = run(["sweep", "--n", "6", "--site-bc", "closed", "--channel-bc", "open",
                             "--in", "0,1", "--out", "3,1", *grid, "--output", str(out)], capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: {grid[0]} up to ")
    assert "at --horizon 200 needs" in err and f"more than {cli.MAX_GRID_POINTS}" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_and_scan_read_only_the_two_factors(fmt, tmp_path, capsys, monkeypatch):
    argv = ["--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "3",
            "--in", "0,1", "--out", "4,1", "--horizon", "80", "--format", fmt, "--output"]
    before = run(["scan", *argv, str(tmp_path / "before")], capsys)
    assert before[0] == 0 and before[2] == "PST times: 73.3055114357\n"
    for module in (spectral, cli):
        monkeypatch.setattr(module, "decompose", refuse)
    assert run(["evolve", *argv, str(tmp_path / "evolve")], capsys) == (0, "", "")
    assert run(["scan", *argv, str(tmp_path / "scan")], capsys) == before
    assert (tmp_path / "scan").read_bytes() == (tmp_path / "before").read_bytes()
    if fmt == "csv":
        assert (tmp_path / "evolve").read_bytes() == (tmp_path / "scan").read_bytes()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--gamma", "2"],
    ["evolve", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["pmax", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["dark", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["attain", "--gamma", "2", "--in", "0,1", "--out", "3,1", "--tau", "1"],
    ["scan", "--gamma", "2", "--in", "0,1", "--out", "3,1"],
    ["sweep", "--gamma-grid", "1:2:1", "--in", "0,1", "--out", "3,1"],
    ["sweep", "--J-grid", "1:2:1", "--in", "0,1", "--out", "3,1"],
])
def test_network_beyond_the_site_limit_exits_before_any_work(argv, tmp_path, capsys,
                                                             monkeypatch):
    for module, name in ((cli, "decompose"), (spectral, "decompose"), (spectral, "pair_factors"),
                         (scan, "pair_factors"), (transfer, "pair_factors")):
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "never.txt"
    code, stdout, err = run(argv[:1] + ["--n", "100000000", "--site-bc", "open",
                                        "--channel-bc", "open", *argv[1:], "--output", str(out)],
                            capsys)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err == f"error: N=100000000 too large (need N <= {core.MAX_SITES})\n"


def _indent_2(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    # a trivial pair: every group bright, no dark group
    ["pmax", "--n", "5", "--site-bc", "open", "--channel-bc", "open", "--gamma", "15",
     "--in", "0,1", "--out", "0,1"],
    ["pmax", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "2.5",
     "--in", "0,1", "--out", "2,1"],
    ["attain", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "3",
     "--in", "0,1", "--out", "4,1", "--tau", "73.3055", "--tol", "0.05"],
    ["dark", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "2.5",
     "--in", "0,1", "--out", "2,1", "--format", "json"],
    ["spectrum", "--n", "6", "--site-bc", "open", "--channel-bc", "closed", "--J", "1.5",
     "--L", "-0.5", "--format", "json"],
    # 4500 groups and 4499 constraints, two blocks each
    ["spectrum", "--n", "1500", "--site-bc", "open", "--channel-bc", "open", "--gamma", "2",
     "--format", "json"],
    ["attain", "--n", "1500", "--site-bc", "open", "--channel-bc", "open", "--gamma", "2",
     "--in", "0,1", "--out", "1499,1", "--tau", "5"],
    # rows with and without an event, tau_min null
    ["sweep", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--in", "0,1",
     "--out", "4,1", "--gamma-grid", "0.5:3:0.5", "--format", "json"],
    ["sweep", "--n", "6", "--site-bc", "closed", "--channel-bc", "open", "--in", "0,1",
     "--out", "3,1", "--J-grid", "1:2:1", "--format", "json"],
    # one block, then 16 001 points over four blocks, with and without PST times
    ["evolve", "--n", "4", "--site-bc", "open", "--channel-bc", "open", "--gamma", "2",
     "--in", "0,1", "--out", "3,1", "--horizon", "1", "--format", "json"],
    ["scan", "--n", "8", "--site-bc", "closed", "--channel-bc", "closed", "--gamma", "3",
     "--in", "0,1", "--out", "4,1", "--horizon", "80", "--format", "json"],
    ["scan", "--n", "4", "--site-bc", "open", "--channel-bc", "open", "--gamma", "2",
     "--in", "0,1", "--out", "3,1", "--horizon", "30", "--format", "json"],
])
def test_json_output_is_json_dumps_with_indent_2(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    code, stdout, _ = run(argv + ["--output", str(out)], capsys)
    assert code == 0 and stdout == ""
    text = out.read_text()
    assert text == _indent_2(text)
    assert run(argv, capsys)[1] == text  # stdout carries the same bytes
    doc = json.loads(text)
    if argv[0] == "pmax" and argv[-1] == "0,1":
        assert doc["dark_groups"] == []
    if argv[0] == "sweep":
        assert None in [tau for _, tau in doc["rows"]]
    if argv[0] in ("spectrum", "attain") and argv[2] == "1500":
        assert len(doc.get("groups", doc.get("constraints"))) > cli.CHUNK
    if argv[0] in ("evolve", "scan"):
        assert len(doc["profile"]) == grid_count(float(argv[argv.index("--horizon") + 1]), 0.005)
    if argv[0] == "scan":
        assert list(doc) == ["schema", "profile", "pst_times"]


@pytest.mark.parametrize("payload", [
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0, "none": None,
     "flags": [True, False], "text": "\u00e9\u2603 \"quoted\"\n\t", "empty": [], "none_of": {},
     "pair": (1, 2.5), "map": {"a": -0.0, "b": [], "\u00e9": None}},
    {"values": [math.nan, -math.inf, math.inf, -0.0, 1e-320, 1.0 / 3.0, 10 ** 20]},
    {"table": [{"x": 1, "y": math.nan}]},
    {"table": [(i, -0.0 if i % 2 else None) for i in range(cli.CHUNK)]},
    {"table": [[i, i / 7, "\u00e9"] for i in range(cli.CHUNK + 1)], "after": [1]},
    # a string that would match the row boundary if its line break were raw
    {"table": [{"k": i, "s": "},\n      {"} for i in range(2 * cli.CHUNK + 3)]},
])
def test_json_writer_is_json_dumps_with_indent_2(payload):
    out = io.StringIO()
    # a table goes to the writer as its blocks of CHUNK rows
    rows = payload.get("table", [])
    blocks = (rows[at:at + cli.CHUNK] for at in range(0, len(rows), cli.CHUNK))
    cli._write_json(out, {**payload, "table": blocks} if "table" in payload else payload)
    assert out.getvalue() == json.dumps({"schema": 1, **payload}, indent=2) + "\n"


@pytest.mark.parametrize("sizes", [[], [1], [cli.CHUNK], [cli.CHUNK, 1], [3, cli.CHUNK, 2]])
def test_json_writer_streams_a_table_as_its_blocks_come(sizes):
    blocks = [[[float(b), float(i)] for i in range(n)] for b, n in enumerate(sizes)]
    written = []

    class Stream:
        def write(self, text):
            written.append(text)

    def stream():
        for block in blocks:
            seen = len(written)
            yield block
            # the block was written before the next one is asked for
            assert len(written) > seen

    cli._write_json(Stream(), {"profile": stream(), "pst_times": []})
    rows = [row for block in blocks for row in block]
    assert "".join(written) == json.dumps({"schema": 1, "profile": rows, "pst_times": []},
                                          indent=2) + "\n"


def test_evolve_json_memory_does_not_grow_with_the_grid(tmp_path):
    out = tmp_path / "long.json"
    argv = ["evolve", "--n", "8", "--site-bc", "open", "--channel-bc", "open",
            "--gamma", "2.7", "--in", "0,1", "--out", "7,3",
            "--horizon", "500", "--format", "json", "--output", str(out)]
    tracemalloc.start()
    try:
        code = run_command(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(out.read_text())["profile"]) == grid_count(500.0, 0.005) == 100_001
    # the rows as Python lists would take 100 001 * 120 B, 11 MiB, and the
    # document 7 MiB; the kernel, a block of rows and its text need 2 MiB
    assert peak < 4 << 20


@pytest.mark.parametrize("argv, arrays, fields", [
    (["dark", "--format", "json"], 6, 4),
    (["dark"], 6, 4),
    (["attain", "--tau", "12.5"], 11, 6),
], ids=["dark-json", "dark-csv", "attain"])
def test_tables_stream_from_their_columns(argv, arrays, fields, tmp_path):
    N = 20_000
    out = tmp_path / "table"
    argv = [argv[0], "--n", str(N), "--site-bc", "open", "--channel-bc", "open", "--gamma", "2",
            "--in", "0,1", "--out", f"{N - 1},1", *argv[1:], "--output", str(out)]
    tracemalloc.start()
    try:
        code = run_command(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # Each column holds at most 3N = 60 000 values, 8 bytes each. dark keeps
    # 6 alive (the decomposition's values, multiplicities and modes, the
    # report's overlaps and signs, the group index), attain 11 (those 5,
    # the chain's 4 columns, the witnesses and the residuals). On top,
    # one block of CHUNK rows in flight, 512 B a field for its Python
    # values, tuples or dicts and text: 8 MiB at 4 fields, 12 MiB at 6.
    # The whole table as rows took 16.2 (dark JSON), 12.7 (dark CSV) and
    # 26.5 MiB (attain); from columns it takes 8.2, 4.1 and 13.3 MiB.
    assert peak < arrays * 3 * N * 8 + cli.CHUNK * fields * 512
