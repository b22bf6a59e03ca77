"""Time-domain searches for perfect-transfer events and parameter sweeps.

One search serves find_pst_times, tau_min, gamma_sweep and
coupling_sweep_L0. The network is a Cartesian product, so a pair's
amplitude is A(t) = A_site(g t) A_chan(t), both factors at most 1 in
modulus (Christandl et al., PRL 92, 187902, 2004). _factors gives the
site factor in units of g = J_eff and the channel factor scaled by
L_eff, at L = 0 the constant delta_{alpha beta}; in scaled units t is
tau and g is gamma. A search at one network is _sweep at its own J_eff.

_scan reads p on a grid t = i * h. Candidates are grid local maxima
above thr = 1 - 2 epsilon, p > thr, p > left and p >= right (boundary
points included, a flat run counted once at its first point);
golden-section refinement pins each down to 1e-6 in time, and a refined
peak with p >= 1 - epsilon is a perfect-transfer (PST) event. tau_min
stops once no later candidate can replace its first event. _scan reads
only index ranges outside which p <= thr: a point there is no candidate
and, next to one above thr, compares like the -inf put around a range.

Certified steps. Let A(t) = sum_k w_k exp(-i v_k t), c the |w|-weighted
mean of v and W2 = sum_k |w_k| (v_k - c)^2. For any t*,
f(t) = Re(A(t) exp(i c t - i phi)), with f(t*) = |A(t*)|, has f <= |A|
and |f''| <= W2, so it lies at most W2 h^2 / 8 above its chord between
the grid points around t*; one of them has |A| >= |A(t*)| - W2 h^2 / 8.
At h <= _step_for(W2) = sqrt(8 (sqrt(1 - epsilon) - sqrt(thr)) / W2)
each peak with p >= 1 - epsilon thus has a grid neighbour with p >= thr
(pretty good state transfer: Godsil et al., PRL 109, 050502, 2012).

Windows. _windows samples a factor at its own certified step h and
flags the samples with sqrt(p) >= sqrt(thr) - W2 h^2 / 8 - 4 r, r a
generous bound on the rounding of an amplitude (eps per radian of phase
and per term). By the chord bound, the flagged runs widened by h hold
every point where the factor's |A| reaches sqrt(thr) - 2 r, as both
factors do wherever a computed p exceeds thr. So a search makes two
g-free passes, the site one over [0, max|g| (horizon + coarse_step)],
and scans each g only in W_chan intersected with W_site / |g|, at
h_g = min(coarse_step, _step_for(W2(g))),
W2(g) = g^2 W2_site sum|q| + W2_chan sum|w|, the W2 of the product's
terms. That W2(g) grows as g^2 is why a fixed step misses events at
high gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundaryConditions, CouplingParams, NetworkSpec, Node, validate_spec
from .spectral import pair_factors
from .transfer import CHUNK, ROOT, grid_count, probability_at, probability_chunks

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_XTOL = 1e-6
# golden-section steps per candidate; the cap must stay, since at large t
# the spacing of floats exceeds REFINE_XTOL and b - a cannot shrink to it
REFINE_ITERS = 64


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak search."""

    horizon: float = 200.0
    coarse_step: float = 0.005
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if not (math.isfinite(self.coarse_step) and self.coarse_step > 0):
            raise ValueError("coarse_step must be positive and finite")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry; tau_min is None without a PST event, step is its grid step."""

    parameter: float
    tau_min: float | None
    step: float


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


def _scan(p_of, ranges, h: float, cfg: ScanConfig, first_only: bool) -> list[float]:
    """PST times on the grid i * h, ascending, read in the index ranges
    (lo, hi), inclusive, ascending and not adjacent, outside which
    p <= 1 - 2 epsilon; p_of gives p at one time or at each time of an
    array, here ROOT grid points at a time. With first_only, the scan
    stops once its first element can no longer change."""
    thr = 1.0 - 2.0 * cfg.epsilon
    times: list[float] = []
    probs: list[float] = []

    def settled(a: float) -> bool:
        # a candidate whose bracket starts at a can neither merge with
        # times[0] nor precede it
        return first_only and bool(times) and (len(times) > 1 or a > times[0] + h)

    for lo, hi in ranges:
        # grid values before the first undecided index, -inf standing in
        # for p(lo - 1); last is the grid index of tail[-1]
        tail, last = np.array([-np.inf]), lo - 1
        for at in range(lo, hi + 1, ROOT):
            chunk = p_of(h * np.arange(at, min(at + ROOT, hi + 1)))
            w = np.concatenate((tail, chunk))
            if last + len(chunk) == hi:
                w = np.append(w, -np.inf)  # p past the range
            # a flat run is examined at its first point only, hence p > left
            mid, left, right = w[1:-1], w[:-2], w[2:]
            # c is the index in chunk, -1 for tail[-1]
            for c in np.flatnonzero((mid > thr) & (mid > left) & (mid >= right)) + (1 - len(tail)):
                i = last + 1 + c
                a = max(i * h - h, 0.0)
                if settled(a):
                    return times
                b = min(i * h + h, cfg.horizon)
                t_star, p_star = _golden_max(p_of, a, b, REFINE_ITERS)
                if p_star >= 1.0 - cfg.epsilon:
                    if times and abs(t_star - times[-1]) < h:
                        if p_star > probs[-1]:
                            times[-1], probs[-1] = t_star, p_star
                    else:
                        times.append(t_star)
                        probs.append(p_star)
            tail = w[-2:]
            last += len(chunk)
            if settled(last * h - h):
                return times
    return times


def find_pst_times(spec: NetworkSpec, input: Node, output: Node, cfg: ScanConfig) -> list[float]:
    """All PST times in [0, horizon], ascending, refined to 1e-6.

    Candidates are grid local maxima above 1 - 2 epsilon (boundary
    points included, a flat run refined once) on a grid no coarser than
    coarse_step or the step that certifies every event (module
    docstring); a refined candidate is kept when its probability reaches
    1 - epsilon, and one closer than a grid step to the previous kept
    time replaces it only when higher.
    """
    return _search(spec, input, output, cfg, first_only=False)


def tau_min(spec: NetworkSpec, input: Node, output: Node, cfg: ScanConfig) -> float | None:
    """Earliest PST time within the horizon, or None when there is none.

    Equal to the first element of find_pst_times, but the scan stops
    once a later candidate can no longer replace the first event.
    """
    times = _search(spec, input, output, cfg, first_only=True)
    return times[0] if times else None


def _search(spec: NetworkSpec, input: Node, output: Node, cfg: ScanConfig,
            first_only: bool) -> list[float]:
    """The PST times of one network: _sweep at g = J_eff."""
    [(_, _, times)] = _sweep(*_factors(spec, input, output), [spec.couplings.effective()[0]],
                             cfg, first_only)
    return times


def _step_for(w2: float, epsilon: float, extent: float = math.inf) -> float:
    """The certified step at curvature bound W2, at most max(extent, 1), so a
    pass over [0, extent] of a constant |A| (W2 = 0) takes one or two samples."""
    gap = math.sqrt(1.0 - epsilon) - math.sqrt(max(1.0 - 2.0 * epsilon, 0.0))
    return min(math.sqrt(8.0 * gap / w2) if w2 > 0.0 else math.inf, max(extent, 1.0))


def _spread(factor) -> tuple[float, float]:
    """W2 about the |w|-weighted mean, and sum |w|, of a factor (values, weights)."""
    values, weights = factor
    a = np.abs(weights)
    total = float(a.sum())
    c = a @ values / total if total else 0.0
    return float(a @ (values - c) ** 2), total


def _merge(lo: np.ndarray, hi: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs [lo_k, hi_k], both ascending, joined across gaps of at most gap."""
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] - hi[:-1] > gap
    return lo[new], hi[np.concatenate((new[1:], new[:1]))]


def _windows(factor, extent: float, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, disjoint windows (starts, ends) of a factor (module docstring)."""
    values, weights = factor
    w2 = _spread(factor)[0]
    h = _step_for(w2, epsilon, extent)
    count = math.ceil(extent / h) + 1
    r = 8 * np.finfo(float).eps * (np.abs(values).max(initial=0) * count * h + len(values) + ROOT)
    floor = math.sqrt(max(1.0 - 2.0 * epsilon, 0.0)) - w2 * h * h / 8 - 4 * r
    runs = [(np.empty(0, dtype=int),) * 2]
    for at, chunk in zip(range(0, count, CHUNK), probability_chunks(weights, values, h, count)):
        # sqrt(p) >= floor, true of every sample when floor <= 0
        flagged = np.flatnonzero(chunk >= floor * abs(floor)) + at
        # runs under two samples apart overlap once widened
        runs.append(_merge(flagged, flagged, 2))
    lo, hi = _merge(*map(np.concatenate, zip(*runs)), 2)
    return h * (lo - 1), h * (hi + 1)


def _intersect(a0, a1, b0, b1) -> tuple[np.ndarray, np.ndarray]:
    """Intersections, sorted, of two lists of sorted, disjoint intervals."""
    first = np.searchsorted(b1, a0)  # the first b ending at or after a starts
    stop = np.searchsorted(b0, a1, side="right")  # past the last b starting by a's end
    n = np.maximum(stop - first, 0)
    ia = np.repeat(np.arange(len(a0)), n)
    ib = np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())
    return np.maximum(a0[ia], b0[ib]), np.minimum(a1[ia], b1[ib])


def _sweep(site, chan, grid, cfg: ScanConfig, first_only: bool) -> list[tuple[float, float, list]]:
    """(g, step, PST times) of p_site(g tau) p_chan(tau), factors (values,
    weights), per g of grid; with first_only, only the first time is final."""
    h0, epsilon = cfg.coarse_step, cfg.epsilon
    end = cfg.horizon + h0  # a row's grid ends less than h0 / 2 past the horizon
    grid = [float(g) for g in grid]
    c0, c1 = _windows(chan, end, epsilon)
    top = max(map(abs, grid), default=0.0)
    s0, s1 = _windows(site, top * end, epsilon) if len(c0) else (c0, c1)
    (w2_site, sum_w), (w2_chan, sum_q) = _spread(site), _spread(chan)

    def row(g: float) -> tuple[float, float, list]:
        h = min(h0, _step_for(g * g * w2_site * sum_q + w2_chan * sum_w, epsilon))
        count = grid_count(cfg.horizon, h)
        if g == 0.0:  # p_site stays at its value at x = 0
            a0, a1 = (c0, c1) if np.any((s0 <= 0.0) & (0.0 <= s1)) else (c0[:0], c1[:0])
        else:
            a0, a1 = _intersect(s0 / abs(g), s1 / abs(g), c0, c1)
        # clipping adds points to the ranges, which is always safe
        lo = np.clip(np.floor(a0 / h), 0, count - 1).astype(int)
        lo, hi = _merge(lo, np.clip(np.ceil(a1 / h), 0, count - 1).astype(int), 1)
        # the product's terms: values |g| sigma_i + c_a, weights w_i q_a
        values = np.add.outer(abs(g) * site[0], chan[0]).ravel()
        weights = np.outer(site[1], chan[1]).ravel()
        return g, h, _scan(lambda t: probability_at(weights, values, t),
                           zip(lo.tolist(), hi.tolist()), h, cfg, first_only)

    return [row(g) for g in grid]


def _factors(spec: NetworkSpec, input: Node, output: Node):
    """The pair's site factor, in units of J_eff, and its channel factor,
    scaled by L_eff: p(t) = p_site(J_eff t) p_chan(t). At L = 0 the
    channel factor is the constant delta_{alpha beta}."""
    site, (values, weights) = pair_factors(validate_spec(spec), input, output)
    l_eff = spec.couplings.effective()[1]
    if l_eff == 0.0:
        return site, (np.zeros(1), np.array([float(input.alpha == output.alpha)]))
    return site, (l_eff * values, weights)


def pass_points(spec: NetworkSpec, pair: tuple[Node, Node], grid, cfg: ScanConfig) -> float:
    """Points of the two factor passes of a search over the g of grid, a
    float (inf on overflow), to bound before any work. A row's grid
    within the windows holds at most about as many."""
    end = cfg.horizon + cfg.coarse_step
    extents = (max(map(abs, grid), default=0.0) * end, end)
    return sum(x / _step_for(_spread(f)[0], cfg.epsilon, x) + 1.0
               for f, x in zip(_factors(spec, *pair), extents))


def _rows(site, chan, grid, cfg: ScanConfig) -> list[SweepRow]:
    return [SweepRow(g, times[0] if times else None, h)
            for g, h, times in _sweep(site, chan, grid, cfg, first_only=True)]


def gamma_sweep(template: NetworkSpec, pair: tuple[Node, Node], gamma_grid,
                cfg: ScanConfig) -> list[SweepRow]:
    """tau_min versus gamma = J/L in scaled units, from the pair's two factors."""
    return _rows(*_factors(template, *pair), gamma_grid, cfg)


def coupling_sweep_L0(N: int, bc: BoundaryConditions, pair: tuple[Node, Node], J_grid,
                      cfg: ScanConfig) -> list[SweepRow]:
    """t_min versus J at L = 0 (raw units), where the channel factor is
    delta_{alpha beta}: gamma_sweep with J for gamma and t for tau."""
    return _rows(*_factors(NetworkSpec(N, bc, CouplingParams(J=1.0, L=0.0)), *pair), J_grid, cfg)
