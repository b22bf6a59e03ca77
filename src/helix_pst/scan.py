"""Time-domain searches for perfect-transfer events and parameter sweeps.

p(t) is sampled on the grid t = i * coarse_step, i = 0 .. horizon /
coarse_step, by the one grid kernel, transfer.probability_chunks: blocks
of CHUNK points, each row of 64 seeded with its exact start phase, so a
scan holds O(CHUNK * groups) numbers whatever the horizon. A caller that
also writes the trace (the CLI's scan) taps the same blocks through
find_pst_times(tap=...), so every grid point is evaluated once.

Candidates are grid local maxima above 1 - 2 epsilon (boundary points
included, a flat run counted once at its first point), found with one
numpy mask per block; golden-section refinement then pins each one down
to 1e-6 in time. A refined peak counts as perfect state transfer (PST)
when p >= 1 - epsilon. tau_min stops scanning as soon as no later
candidate can replace the first event it accepted.

gamma_sweep evaluates tau_min per gamma, one value after another in
input order, in the calling thread, each on its own factorised
decomposition. coupling_sweep_L0 needs one scan in the natural time
J t for its whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BoundaryConditions, CouplingParams, NetworkSpec, Node
from .spectral import SpectralDecomposition, decompose
from .transfer import CHUNK, grid_count, probability_chunks, projector_overlaps

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_XTOL = 1e-6


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak search."""

    horizon: float = 200.0
    coarse_step: float = 0.005
    epsilon: float = 1e-3
    refine_iters: int = 64

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if not (math.isfinite(self.coarse_step) and self.coarse_step > 0):
            raise ValueError("coarse_step must be positive and finite")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be at least 1")


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry; tau_min is None when no PST event was found."""

    parameter: float
    tau_min: float | None


def _golden_max(p_of, a: float, b: float, max_iters: int) -> tuple[float, float]:
    """Golden-section maximisation of p on [a, b] down to REFINE_XTOL."""
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = p_of(x1), p_of(x2)
    iters = 0
    while (b - a) > REFINE_XTOL and iters < max_iters:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_PHI * (b - a)
            f2 = p_of(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_PHI * (b - a)
            f1 = p_of(x1)
        iters += 1
    best = max(((a + b) / 2.0, a, b), key=p_of)
    return best, p_of(best)


def _scan(
    decomp: SpectralDecomposition, input: Node, output: Node, cfg: ScanConfig,
    first_only: bool, tap=iter,
) -> list[float]:
    """PST times in [0, horizon], ascending; with first_only, the scan
    stops once its first element can no longer change.

    The grid blocks of p pass through tap(blocks) before the peak pass
    reads them.
    """
    o = projector_overlaps(decomp, input, output)
    lam = decomp.values

    def p_of(t: float) -> float:
        return float(np.abs(np.dot(o, np.exp(-1j * lam * t))) ** 2)

    h = cfg.coarse_step
    count = grid_count(cfg.horizon, h)
    thr = 1.0 - 2.0 * cfg.epsilon
    times: list[float] = []
    probs: list[float] = []

    def settled(a: float) -> bool:
        # a candidate whose bracket starts at a can neither merge with
        # times[0] nor precede it
        return first_only and bool(times) and (len(times) > 1 or a > times[0] + h)

    # grid values before the first undecided index, -inf standing in for p(-h)
    tail = np.array([-np.inf])
    blocks = tap(probability_chunks(o, lam, h, count))
    for s, chunk in zip(range(0, count, CHUNK), blocks):
        w = np.concatenate((tail, chunk))
        if s + CHUNK >= count:
            w = np.append(w, -np.inf)  # p past the horizon
        first = s + 1 - len(tail)  # grid index of w[1]
        # a flat run is examined at its first point only, hence p > left
        mid = w[1:-1]
        for i in np.flatnonzero((mid > thr) & (mid > w[:-2]) & (mid >= w[2:])) + first:
            a = max(i * h - h, 0.0)
            if settled(a):
                return times
            b = min(i * h + h, cfg.horizon)
            t_star, p_star = _golden_max(p_of, a, b, cfg.refine_iters)
            if p_star >= 1.0 - cfg.epsilon:
                if times and abs(t_star - times[-1]) < h:
                    if p_star > probs[-1]:
                        times[-1], probs[-1] = t_star, p_star
                else:
                    times.append(t_star)
                    probs.append(p_star)
        tail = w[-2:]
        if settled((first + len(mid)) * h - h):
            break
    return times


def find_pst_times(
    decomp: SpectralDecomposition, input: Node, output: Node, cfg: ScanConfig,
    *, tap=iter,
) -> list[float]:
    """All PST times in [0, horizon], ascending, refined to 1e-6.

    Candidates are coarse-grid local maxima above 1 - 2 epsilon
    (boundary points included, a flat run refined once); a refined
    candidate is kept when its probability reaches 1 - epsilon, and
    one closer than a coarse step to the previous kept time replaces
    it only when higher.

    tap(blocks) receives the iterator of grid blocks, the arrays of
    p(i * coarse_step) that probability_chunks yields, and returns the
    iterator of those same blocks that the scan reads. A caller that
    wants the sampled trace too (the CLI's scan) passes a generator that
    records each block as it passes, so no grid point is evaluated twice.
    """
    return _scan(decomp, input, output, cfg, first_only=False, tap=tap)


def tau_min(
    decomp: SpectralDecomposition, input: Node, output: Node, cfg: ScanConfig
) -> float | None:
    """Earliest PST time within the horizon, or None when there is none.

    Equal to the first element of find_pst_times, but the scan stops
    once a later candidate can no longer replace the first event.
    """
    times = _scan(decomp, input, output, cfg, first_only=True)
    return times[0] if times else None


def gamma_sweep(
    template: NetworkSpec,
    pair: tuple[Node, Node],
    gamma_grid,
    cfg: ScanConfig,
) -> list[SweepRow]:
    """tau_min as a function of gamma = J/L, in scaled units."""
    input, output = pair

    def eval_one(gamma: float) -> SweepRow:
        spec = replace(template, couplings=CouplingParams.from_gamma(gamma))
        return SweepRow(float(gamma), tau_min(decompose(spec), input, output, cfg))

    return [eval_one(g) for g in gamma_grid]


def coupling_sweep_L0(
    N: int,
    bc: BoundaryConditions,
    pair: tuple[Node, Node],
    J_grid,
    cfg: ScanConfig,
) -> list[SweepRow]:
    """t_min versus J in the decoupled-channel limit L = 0 (raw units).

    At L = 0, p depends on J t only, and on the sign of J not at all (H
    is real, so flipping it conjugates the amplitude). One tau_min at
    J = 1 over the natural horizon max|J| * horizon, with the coarse
    step read in natural time J t, therefore answers every J != 0:
    t_min(J) = tau_1 / |J| when tau_1 <= |J| * horizon, else None. This
    keeps the fixed natural resolution a per-J scan at step
    coarse_step / |J| would have. J = 0 has no dynamics and is scanned
    on its own.
    """
    input, output = pair
    J_grid = [float(J) for J in J_grid]

    def scan_at(J: float, local: ScanConfig) -> float | None:
        spec = NetworkSpec(N, bc, CouplingParams(J=J, L=0.0))
        return tau_min(decompose(spec), input, output, local)

    natural = max(map(abs, J_grid), default=0.0) * cfg.horizon
    tau_1 = scan_at(1.0, replace(cfg, horizon=natural)) if natural > 0.0 else None

    def t_min(J: float) -> float | None:
        if J == 0.0:
            return scan_at(J, cfg)
        if tau_1 is not None and tau_1 <= abs(J) * cfg.horizon:
            return tau_1 / abs(J)
        return None

    return [SweepRow(J, t_min(J)) for J in J_grid]
