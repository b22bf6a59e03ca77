"""Seeded command lists of the benchmark workloads.

A workload is a list of `helix-pst` commands. The seed picks the
parameters and node pairs; the program only ever sees the argv. Each
workload is built so that its total work does not depend on the seed:
sweep grids keep their point count and their mean, and network sizes
are dealt out of a fixed ladder, so run-to-run spread comes from the
machine rather than from the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# the paper's figure configurations fig2..fig5: N, site bc, channel bc, pair
FIGURES = (
    (8, "closed", "closed", "0,1", "4,1"),
    (5, "open", "open", "0,1", "4,1"),
    (4, "open", "closed", "0,1", "3,1"),
    (6, "closed", "open", "0,1", "3,1"),
)

# scan settings the commands leave at the CLI defaults
HORIZON = 200.0
STEP = 0.005
EPSILON = 1e-3
ATTAIN_TOL = 0.05

# large_n network sizes per topology, dealt to its four commands in
# seeded order; open/open stops at 128 to keep the dense projector
# tensor (O(N^3) bytes) near 2 GB
LARGE_LADDER = {"open": (104, 112, 120, 128), "closed": (120, 130, 140, 150)}
TRACE_N = 24
TRACE_HORIZON = 600.0

WORKLOADS = ("sweep", "large_n", "trace")


@dataclass(frozen=True)
class Command:
    """One CLI call: subcommand, flag values and the file it writes."""

    op: str
    args: dict
    output: str

    def argv(self) -> list[str]:
        out = [self.op]
        for flag, value in self.args.items():
            out += [f"--{flag}", value if isinstance(value, str) else repr(value)]
        return out + ["--output", self.output]

    @property
    def stderr_path(self) -> str:
        return self.output + ".stderr"


def _node(rng: random.Random, N: int) -> str:
    return f"{rng.randrange(N)},{rng.randint(1, 3)}"


def _pair(rng: random.Random, N: int) -> dict:
    return {"in": _node(rng, N), "out": _node(rng, N)}


def _gamma(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 5.0), 4)


def _network(N: int, site: str, channel: str) -> dict:
    return {"n": N, "site-bc": site, "channel-bc": channel}


def grid(rng: random.Random, lo: float, hi: float, count: int) -> str:
    """'start:stop:step' with `count` points over [lo, hi], both ends moved
    inward by the same seeded offset, below the paper's 0.05 grid step, so
    the grid mean stays (lo + hi) / 2 and the point set keeps its shape."""
    u = rng.uniform(0.0, 0.05)
    start, stop = round(lo + u, 4), round(hi - u, 4)
    return f"{start!r}:{stop!r}:{(stop - start) / (count - 1)!r}"


def _sweep(rng, tiny):
    top, n_gamma, n_J = (3.0, 3, 2) if tiny else (20.0, 32, 5)
    cmds = []
    for N, site, channel, a, b in FIGURES:
        pair = {"in": a, "out": b}
        cmds.append(("sweep", {**_network(N, site, channel), **pair,
                               "gamma-grid": grid(rng, 0.5, top, n_gamma)}))
        cmds.append(("sweep", {**_network(N, site, channel), **pair,
                               "J-grid": grid(rng, 0.5, top, n_J)}))
    return cmds


def _large_n(rng, tiny):
    cmds = []
    for bc, ladder in LARGE_LADDER.items():
        sizes = rng.sample((6, 7, 8, 9) if tiny else ladder, 4)
        for op, N in zip(("pmax", "dark", "attain", "spectrum"), sizes):
            args = {**_network(N, bc, bc), "gamma": _gamma(rng)}
            if op != "spectrum":
                args.update(_pair(rng, N))
            if op == "dark":
                args["format"] = "json"
            if op == "attain":
                args["tau"] = round(rng.uniform(1.0, 50.0), 4)
            cmds.append((op, args))
    return cmds


def _trace(rng, tiny):
    N, horizon = (6, 5.0) if tiny else (TRACE_N, TRACE_HORIZON)
    cmds = []
    for op in ("evolve", "scan"):
        for bc in ("open", "closed"):
            cmds.append((op, {**_network(N, bc, bc), "gamma": _gamma(rng),
                              **_pair(rng, N), "horizon": horizon}))
    return cmds


def _layer_touch(rng):
    """Three small commands at N=6 that reach the layers a workload
    otherwise skips, so every per-layer span is measured, never a
    constant zero."""
    net = _network(6, "closed", "open")
    return [
        ("evolve", {**net, "gamma": _gamma(rng), **_pair(rng, 6), "horizon": 20.0}),
        ("attain", {**net, "gamma": _gamma(rng), **_pair(rng, 6),
                    "tau": round(rng.uniform(1.0, 20.0), 4)}),
        ("sweep", {**net, **_pair(rng, 6), "gamma-grid": grid(rng, 1.0, 3.0, 3)}),
    ]


_BUILDERS = {"sweep": _sweep, "large_n": _large_n, "trace": _trace}


def build(workload: str, seed: int, outdir: str, tiny: bool = False) -> list[Command]:
    """The seeded command list of one workload, writing into outdir."""
    rng = random.Random(f"{workload}-{seed}")
    specs = _BUILDERS[workload](rng, tiny) + _layer_touch(rng)
    commands = []
    for i, (op, args) in enumerate(specs):
        ext = "json" if op in ("pmax", "attain") or args.get("format") == "json" else "csv"
        commands.append(Command(op, args, f"{outdir}/{i:02d}-{op}.{ext}"))
    return commands
