"""Time-domain searches for perfect-transfer events and parameter sweeps.

p(t) is sampled on the grid t = i * coarse_step, i = 0 .. horizon /
coarse_step, by the one grid kernel, transfer.probability_chunks: rows
of 64 points, each seeded with its exact start phase, evaluated CHUNK
points at a time, so a scan holds O(CHUNK * groups) numbers and one
row number per 64 points, never the grid's values. A caller that also
writes the trace (the CLI's scan) taps the same blocks through
find_pst_times(tap=...), so every grid point is evaluated once.

Candidates are grid local maxima above thr = 1 - 2 epsilon, p > thr,
p > left and p >= right (boundary points included, a flat run counted
once at its first point), found with one numpy mask per block;
golden-section refinement then pins each one down to 1e-6 in time. A
refined peak counts as perfect state transfer (PST) when
p >= 1 - epsilon. tau_min stops scanning as soon as no later candidate
can replace the first event it accepted.

A scan may read only some rows of the grid, when every point of a
skipped row has p <= thr. Such a point is never a candidate, and as the
neighbour of a point with p > thr, -inf settles p > left and
p >= right the way its true value would. So the scan puts -inf on both
sides of each break between rows that do not follow on, and finds the
same candidates, hence the same times, as the full scan (a block of few
rows may differ from the full scan's block in the last bit, which can
matter only where a comparison is decided by rounding). The full scan
skips the adjacency test, and a partial one tests adjacency once per
row, not per point.

gamma_sweep scans that way. In scaled units the network is the
Cartesian product of the site chain at coupling gamma and the channel
block at coupling 1, so the amplitude factorises as
A(tau) = A_site(gamma tau) A_chan(tau) (Christandl et al., PRL 92,
187902, 2004), with |A_site| <= 1 and p_chan = |A_chan|^2 the same for
every gamma. So p <= p_chan, and a row whose largest p_chan stays below
thr holds no candidate at any gamma. The sweep evaluates p_chan once,
and each gamma scans only the rows where p_chan can reach thr; the
margin that makes this hold for the computed p is derived at
gamma_sweep. coupling_sweep_L0 needs one scan in the natural time J t
for its whole grid. Sweeps run their values in input order in the
calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BoundaryConditions, CouplingParams, NetworkSpec, Node
from .spectral import SpectralDecomposition, channel_factor, decompose
from .transfer import ROOT, grid_count, probability_at, probability_chunks, projector_overlaps

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_XTOL = 1e-6
# M: how far below 1 - 2 epsilon p_chan may reach in a row gamma_sweep
# skips; it covers grouping and rounding error (derived at gamma_sweep)
WINDOW_MARGIN = 1e-3


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
    first_only: bool, tap=iter, rows=None,
) -> list[float]:
    """PST times in [0, horizon], ascending; with first_only, the scan
    stops once its first element can no longer change.

    The grid blocks of p pass through tap(blocks) before the peak pass
    reads them. rows, ascending row numbers as probability_chunks takes
    them, limits the scan to those rows; by default it reads them all.
    Every point of a skipped row must have p <= 1 - 2 epsilon.
    """
    o = projector_overlaps(decomp, input, output)
    lam = decomp.values
    h = cfg.coarse_step
    count = grid_count(cfg.horizon, h)
    picked = range(-(-count // ROOT)) if rows is None else rows
    thr = 1.0 - 2.0 * cfg.epsilon
    times: list[float] = []
    probs: list[float] = []

    def p_of(t: float) -> float:
        return probability_at(o, lam, t)

    def settled(a: float) -> bool:
        # a candidate whose bracket starts at a can neither merge with
        # times[0] nor precede it
        return first_only and bool(times) and (len(times) > 1 or a > times[0] + h)

    # grid values before the first undecided index, -inf standing in for
    # p(-h); last is the grid index of tail[-1]
    tail = np.array([-np.inf])
    last = -1
    blocks = tap(probability_chunks(o, lam, h, count, rows))
    for at, chunk in zip(range(0, len(picked), ROOT), blocks):
        w = np.concatenate((tail, chunk))
        if at + ROOT >= len(picked):
            w = np.append(w, -np.inf)  # p past the horizon
        # a flat run is examined at its first point only, hence p > left
        mid, left, right = w[1:-1], w[:-2], w[2:]
        if rows is not None:
            # a skipped row holds no candidate and no p above thr, so -inf
            # stands in for it as the neighbour of the rows around it
            opens = len(tail) - 1 + ROOT * np.flatnonzero(
                np.diff(rows[at:at + ROOT], prepend=last // ROOT) != 1)
            left, right = left.copy(), right.copy()
            left[opens] = -np.inf
            right[opens[opens > 0] - 1] = -np.inf
        # c is the index in chunk, -1 for tail[-1]
        for c in np.flatnonzero((mid > thr) & (mid > left) & (mid >= right)) + (1 - len(tail)):
            i = last if c < 0 else ROOT * picked[at + c // ROOT] + c % ROOT
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
        last = ROOT * picked[at + (len(chunk) - 1) // ROOT] + (len(chunk) - 1) % ROOT
        if settled(last * h - h):
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


def _channel_rows(template: NetworkSpec, pair: tuple[Node, Node], cfg: ScanConfig) -> np.ndarray:
    """Numbers of the grid rows with a point where p_chan > 1 - 2 epsilon
    - WINDOW_MARGIN, in scaled units; O(count / ROOT) memory."""
    values, weights = channel_factor(template, *pair)
    h = cfg.coarse_step
    count = grid_count(cfg.horizon, h)
    floor = 1.0 - 2.0 * cfg.epsilon - WINDOW_MARGIN
    keep = np.empty(-(-count // ROOT), dtype=bool)
    for at, chunk in zip(range(0, len(keep), ROOT), probability_chunks(weights, values, h, count)):
        keep[at:at + ROOT] = np.maximum.reduceat(chunk, np.arange(0, len(chunk), ROOT)) > floor
    return np.flatnonzero(keep)


def gamma_sweep(
    template: NetworkSpec,
    pair: tuple[Node, Node],
    gamma_grid,
    cfg: ScanConfig,
) -> list[SweepRow]:
    """tau_min as a function of gamma = J/L, in scaled units.

    Each row equals tau_min on the decomposition of its gamma (up to
    comparisons decided by last-bit rounding), but the scan reads only
    the grid rows where the gamma-free channel factor has
    p_chan > 1 - 2 epsilon - M, M = WINDOW_MARGIN (see the module
    docstring). M must cover what the computed p can exceed p_chan by.
    The grouped amplitude replaces each label's value by its group's
    mean, within (m_k - 1) grouping_tol of it, and the label weights
    s_i q_a sum to at most 1 in magnitude, so it differs from the exact
    one by at most E = t_end max_k(m_k - 1) grouping_tol, t_end the
    last grid time. With e = E + r, r a generous bound on the rounding
    of either kernel (eps per radian of phase and per summed group), the
    computed p is at most the computed p_chan + 2e + e^2 + r. A skipped
    row thus holds p <= 1 - 2 epsilon whenever 2e + e^2 + r <= M; a
    gamma where that fails, through a long horizon or large groups,
    scans every row.
    """
    input, output = pair
    rows = _channel_rows(template, pair, cfg)
    t_end = (grid_count(cfg.horizon, cfg.coarse_step) - 1) * cfg.coarse_step

    def eval_one(gamma: float) -> SweepRow:
        spec = replace(template, couplings=CouplingParams.from_gamma(gamma))
        decomp = decompose(spec)
        radius = float(np.max(np.abs(decomp.values)))
        r = 8 * np.finfo(float).eps * (radius * t_end + len(decomp) + ROOT)
        e = t_end * (int(np.max(decomp.multiplicities)) - 1) * decomp.grouping_tol + r
        fits = 2 * e + e * e + r <= WINDOW_MARGIN
        times = _scan(decomp, input, output, cfg, first_only=True, rows=rows if fits else None)
        return SweepRow(float(gamma), times[0] if times else None)

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
