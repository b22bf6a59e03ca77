"""Output checks of the benchmark, run outside the timed region.

`verify` reads one command's output and compares every value in it
with the oracle. A failure has one of two kinds:

- WRONG: a nonzero exit code, a crash, a malformed file, or a value
  the oracle refutes. It makes the run incorrect.
- MISS: a PST event the oracle finds on a grid 10x finer is not
  reported, and the program's own coarse grid cannot see it: neither
  grid point next to the event rises above the 1 - 2 epsilon candidate
  threshold. This is the known completeness gap of the fixed-grid
  search. It is counted apart from failed operations, as missed
  events, and leaves the run correct. A missed event that the coarse
  grid does see is WRONG.
"""

from __future__ import annotations

import json
import math

import numpy as np

from helix_pst import BoundaryConditions, CouplingParams, NetworkSpec, Node, flat_index
from oracle import P_MARGIN, Oracle
from workloads import ATTAIN_TOL, EPSILON, HORIZON, STEP, Command

WRONG, MISS = "wrong", "miss"
P_TOL = 1e-9  # printed probabilities carry 12 significant digits
DARK_TOL = 1e-10  # overlaps below this are dark (sign 0)
SAMPLE_TIMES = np.linspace(0.0, 100.0, 2001)


class CheckFailure(Exception):
    def __init__(self, kind: str, message: str, events: int = 0):
        super().__init__(message)
        self.kind = kind
        self.events = events  # missed events, for a MISS


def expect(ok, message: str, kind: str = WRONG, events: int = 0) -> None:
    if not ok:
        raise CheckFailure(kind, message, events)


def verify(cmd: Command, code, error) -> tuple[str, str, int] | None:
    """None if the command's output passes, else (kind, message, missed
    events); the count is 0 unless the kind is MISS."""
    try:
        expect(error is None, f"crashed: {error}")
        expect(code == 0, f"exit code {code}")
        _CHECKS[cmd.op](cmd)
    except CheckFailure as exc:
        return exc.kind, str(exc), exc.events
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return WRONG, f"unreadable output: {exc!r}", 0
    return None


# ----- helpers -----


def _node(text: str) -> Node:
    n, alpha = text.split(",")
    return Node(int(n), int(alpha))


def _spec(cmd: Command, couplings: CouplingParams | None = None) -> NetworkSpec:
    bc = BoundaryConditions.from_names(cmd.args["site-bc"], cmd.args["channel-bc"])
    if couplings is None:
        couplings = CouplingParams.from_gamma(cmd.args["gamma"])
    return NetworkSpec(cmd.args["n"], bc, couplings)


def _pair(cmd: Command) -> tuple[Node, Node]:
    return _node(cmd.args["in"]), _node(cmd.args["out"])


def _read_csv(path: str, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        text = fh.read()
    expect(text.endswith("\n") and "\r" not in text, "CSV must use LF line endings")
    lines = text.splitlines()
    expect(lines and lines[0].split(",") == header, f"header is not {header}")
    rows = [line.split(",") for line in lines[1:]]
    expect(all(len(r) == len(header) for r in rows), "ragged CSV row")
    return rows


def _read_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    expect(doc.get("schema") == 1, 'JSON lacks "schema": 1')
    return doc


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def _sign(x: float) -> int:
    return 0 if abs(x) < DARK_TOL else (1 if x > 0 else -1)


def _signs_agree(reported, expected) -> bool:
    # skip groups whose overlap sits within a factor 10 of the dark cut
    return all(s == _sign(o) for s, o in zip(reported, expected)
               if not DARK_TOL / 10 < abs(o) < DARK_TOL * 10)


def _check_profile(cmd: Command, oracle: Oracle, a: Node, b: Node) -> None:
    rows = _read_csv(cmd.output, ["tau", "p"])
    count = len(np.arange(0.0, cmd.args["horizon"] + 0.5 * STEP, STEP))
    expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    data = np.array(rows, dtype=float)
    ts = STEP * np.arange(count)
    expect(_close(data[:, 0], ts, 1e-11 * (1.0 + ts[-1])), "time column is off the grid")
    expect(_close(data[:, 1], oracle.p_grid(a, b, STEP, count), P_TOL),
           "p(t) differs from the oracle")


# ----- one check per subcommand -----


def _spectrum(cmd: Command) -> None:
    rows = _read_csv(cmd.output, ["group", "eigenvalue", "multiplicity"])
    oracle = Oracle(_spec(cmd))
    expect([int(r[0]) for r in rows] == list(range(len(rows))), "groups not numbered 0..k-1")
    values = np.array([float(r[1]) for r in rows])
    mult = np.array([int(r[2]) for r in rows])
    expect(np.all(np.diff(values) > 0) and np.all(mult >= 1), "groups not distinct ascending")
    expect(mult.sum() == len(oracle.values), "multiplicities do not sum to 3N")
    expect(_close(np.repeat(values, mult), oracle.values, 1e-8 * (1.0 + oracle.radius)),
           "eigenvalues differ from the oracle")


def _dark(cmd: Command) -> None:
    groups = _read_json(cmd.output)["groups"]
    oracle = Oracle(_spec(cmd))
    a, b = _pair(cmd)
    expect([g["group"] for g in groups] == list(range(len(groups))), "groups not numbered")
    values = np.array([g["eigenvalue"] for g in groups])
    overlaps = np.array([g["overlap"] for g in groups])
    signs = [g["sign"] for g in groups]
    expect(np.all(np.diff(values) > 0), "eigenvalues not ascending")
    expect(signs == [_sign(o) for o in overlaps], "signs do not match the overlaps")
    expect(abs(overlaps.sum() - float(a == b)) < 1e-9, "overlaps do not sum to <in|out>")
    N = cmd.args["n"]
    H_ab = oracle.H[flat_index(a, N), flat_index(b, N)]
    expect(abs(overlaps @ values - H_ab) < 1e-8 * (1.0 + oracle.radius),
           "sum of overlap * eigenvalue is not <in|H|out>")
    exact = oracle.groups(a, b)
    if exact is not None:
        expect(len(groups) == len(exact[0]), "group count differs from the oracle")
        expect(_close(values, exact[0], 1e-8 * (1.0 + oracle.radius)),
               "eigenvalues differ from the oracle")
        expect(_close(overlaps, exact[1], 1e-9), "overlaps differ from the oracle")


def _pmax(cmd: Command) -> None:
    doc = _read_json(cmd.output)
    oracle = Oracle(_spec(cmd))
    a, b = _pair(cmd)
    expect(doc["input"] == [a.n, a.alpha] and doc["output"] == [b.n, b.alpha],
           "pair not echoed")
    p_max, signs = doc["p_max"], doc["signs"]
    expect(p_max <= 1.0 + P_TOL, f"p_max {p_max} above 1")
    sampled = float(oracle.p(a, b, SAMPLE_TIMES).max())
    expect(p_max >= sampled - P_TOL, f"p_max {p_max} below sampled p {sampled}")
    expect(set(signs) <= {-1, 0, 1}, "signs outside {-1, 0, 1}")
    expect(doc["dark_groups"] == [k for k, s in enumerate(signs) if s == 0],
           "dark_groups are not the zero signs")
    exact = oracle.groups(a, b)
    if exact is not None:
        expect(len(signs) == len(exact[0]), "group count differs from the oracle")
        expect(abs(p_max - float(np.sum(np.abs(exact[1]))) ** 2) < P_TOL,
               "p_max differs from the oracle")
        expect(_signs_agree(signs, exact[1]), "signs differ from the oracle")


def _attain(cmd: Command) -> None:
    doc = _read_json(cmd.output)
    oracle = Oracle(_spec(cmd))
    tau = cmd.args["tau"]
    expect(doc["tau"] == tau and doc["tol"] == ATTAIN_TOL, "tau or tol not echoed")
    residuals = []
    for c in doc["constraints"]:
        expect(c["offset"] in (0.0, math.pi, -math.pi), "offset not 0 or +-pi")
        r = c["delta_lambda"] * tau - c["offset"]
        expect(c["k"] == round(r / (2 * math.pi)), "witness k is not the nearest integer")
        residual = abs(r - 2 * math.pi * c["k"])
        expect(abs(c["residual"] - residual) < 1e-9 * (1.0 + abs(r)), "residual is off")
        residuals.append(residual)
    expect(doc["all_satisfied"] == all(r < ATTAIN_TOL for r in residuals),
           "all_satisfied disagrees with the residuals")
    exact = oracle.groups(*_pair(cmd))
    if exact is not None:
        values, overlaps = exact
        bright = sorted((k for k in range(len(values)) if abs(overlaps[k]) >= DARK_TOL),
                        key=lambda k: -values[k])
        chain = list(zip(bright, bright[1:]))
        expect(len(doc["constraints"]) == len(chain), "chain length differs from the oracle")
        for c, (hi, lo) in zip(doc["constraints"], chain):
            expect((c["left_group"], c["right_group"]) == (hi, lo), "chain order differs")
            expect(abs(c["delta_lambda"] - (values[hi] - values[lo]))
                   < 1e-8 * (1.0 + oracle.radius), "delta_lambda differs from the oracle")
            s_hi, s_lo = _sign(overlaps[hi]), _sign(overlaps[lo])
            offset = 0.0 if s_hi == s_lo else math.copysign(math.pi, s_hi - s_lo)
            expect(c["offset"] == offset, "offset differs from the overlap signs")


def _evolve(cmd: Command) -> None:
    _check_profile(cmd, Oracle(_spec(cmd)), *_pair(cmd))


def _unreported(oracle: Oracle, a: Node, b: Node, reported: list[float], end: float,
                coarse: float, horizon: float, label: str = "") -> None:
    """Fail if the oracle finds an event in [0, end], on a grid 10x finer
    than the program's, that no reported time lies within a coarse step of.
    The program's grid is k * coarse over [0, horizon]."""
    wrong, missed = [], []
    for t in oracle.events(a, b, end, coarse / 10, EPSILON):
        if not any(abs(t - r) <= coarse for r in reported):
            blind = oracle.grid_blind(a, b, t, coarse, horizon, EPSILON)
            (missed if blind else wrong).append(f"{label}oracle event at {t:.6g}")
    expect(not wrong, "; ".join(wrong) + " not reported, though the coarse grid sees it")
    expect(not missed, "; ".join(missed) + " not reported", MISS, len(missed))


def _scan(cmd: Command) -> None:
    oracle = Oracle(_spec(cmd))
    a, b = _pair(cmd)
    _check_profile(cmd, oracle, a, b)
    horizon = cmd.args["horizon"]
    with open(cmd.stderr_path) as fh:
        lines = fh.read().splitlines()
    times: list[float] = []
    if lines != ["no PST event within the horizon"]:
        expect(len(lines) == 1 and lines[0].startswith("PST times: "),
               "no PST report on stderr")
        times = [float(x) for x in lines[0][len("PST times: "):].split(", ")]
        expect(times == sorted(times) and 0.0 <= times[0] and times[-1] <= horizon,
               "PST times not ascending within the horizon")
        p = oracle.p(a, b, times)
        expect(np.all(p >= 1.0 - EPSILON - P_MARGIN),
               f"reported PST time has oracle p {p.min()}")
    _unreported(oracle, a, b, times, horizon, STEP, horizon)


def _sweep(cmd: Command) -> None:
    raw = "J-grid" in cmd.args
    grid = cmd.args["J-grid" if raw else "gamma-grid"]
    rows = _read_csv(cmd.output, ["J", "t_min"] if raw else ["gamma", "tau_min"])
    start, stop, step = (float(x) for x in grid.split(":"))
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    expect(len(rows) == count, f"{len(rows)} rows, expected {count}")
    a, b = _pair(cmd)
    misses, missed_events = [], 0
    for i, (param, value) in enumerate(rows):
        x = float(param)
        expect(abs(x - (start + i * step)) < 1e-9 * (1.0 + abs(x)), "parameter off the grid")
        couplings = CouplingParams(J=x, L=0.0) if raw else CouplingParams.from_gamma(x)
        oracle = Oracle(_spec(cmd, couplings))
        coarse = STEP / abs(x) if raw else STEP
        reported = [float(value)] if value else []
        if reported:
            first = reported[0]
            expect(0.0 <= first <= HORIZON, f"{param}: first event {first} outside the horizon")
            p = float(oracle.p(a, b, reported)[0])
            expect(p >= 1.0 - EPSILON - P_MARGIN, f"{param}: reported event has oracle p {p}")
        # only the first event is reported: search up to it
        end = reported[0] if reported else HORIZON
        try:
            _unreported(oracle, a, b, reported, end, coarse, HORIZON, f"{param}: ")
        except CheckFailure as exc:
            if exc.kind != MISS:
                raise
            misses.append(str(exc))
            missed_events += exc.events
    expect(not misses, "; ".join(misses), MISS, missed_events)


_CHECKS = {
    "spectrum": _spectrum,
    "dark": _dark,
    "pmax": _pmax,
    "attain": _attain,
    "evolve": _evolve,
    "scan": _scan,
    "sweep": _sweep,
}
