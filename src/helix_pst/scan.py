"""Time-domain searches for perfect-transfer events and parameter sweeps.

One search serves find_pst_times, tau_min, gamma_sweep and the CLI's
scan and sweep. The network is a Cartesian product, so a pair's
amplitude is A(t) = A_site(g t) A_chan(t), both factors at most 1 in
modulus (Christandl et al., PRL 92, 187902, 2004). search reads the two
Factors of spectral.pair_factors, which a CLI command builds once: the
site factor in units of g = J_eff, the channel factor scaled by L_eff;
in scaled units t is tau and g is gamma, and on a raw L = 0 network g is
J and the channel factor is delta_{alpha beta}. A search at one network
is search at its own J_eff, a sweep of one row.

Each row reads p(t) = p_site(|g| t) p_chan(t), each factor from its own
terms, on a grid t = i * h. Candidates are grid local maxima
above thr = 1 - 2 epsilon, p > thr, p > left and p >= right (boundary
points included, a flat run counted once at its first point);
golden-section refinement pins each down to 1e-6 in time, and a refined
peak with p >= 1 - epsilon is a perfect-transfer (PST) event, one
closer than a grid step to the previous event replacing it only when
higher. tau_min stops once no later candidate can replace its first
event. A row reads only index ranges outside which p <= thr: a point
there is no candidate and, next to one above thr, compares like the
-inf put around a range.

Certified steps. Let A(t) = sum_k w_k exp(-i v_k t), c the |w|-weighted
mean of v and W2 = sum_k |w_k| (v_k - c)^2. For any t*,
f(t) = Re(A(t) exp(i c t - i phi)), with f(t*) = |A(t*)|, has f <= |A|
and |f''| <= W2, so it lies at most W2 h^2 / 8 above its chord between
the grid points around t*; one of them has |A| >= |A(t*)| - W2 h^2 / 8.
At h <= _step_for(W2) = sqrt(8 (sqrt(1 - epsilon) - sqrt(thr)) / W2)
each peak with p >= 1 - epsilon thus has a grid neighbour with p >= thr
(pretty good state transfer: Godsil et al., PRL 109, 050502, 2012).

Brackets. A candidate i has p_(i-1) < p_i >= p_(i+1), so the largest p
on its bracket [i h - h, i h + h] (clipped to [0, horizon]) is at least
p_i > thr and is not at the bracket's lower end: it lies at a local
maximum of p inside the bracket, or at a clipped end, 0 or the horizon.
Let t* be a PST peak and k a grid point around it with p_k >= thr. If
p has no other local maximum between the grid points just outside k's
run of points above thr, the run's values rise up to the two grid
points around t* and fall after them, so the run's first largest point
is one of those two, a candidate within h of t*: its bracket holds t*,
p is unimodal there, and golden section, which keeps the higher of two
interior points, closes in on t*. A run over two maxima of p shows a
dip between them or brackets only the higher; refinement then gives
that one, and two events closer than h merge into the higher anyway.

Windows. _windows samples a factor at its own certified step h and
flags the samples with sqrt(p) >= sqrt(thr) - W2 h^2 / 8 - 4 r, r a
generous bound on the rounding of an amplitude (eps per radian of phase
and per term). By the chord bound, the flagged runs widened by h hold
every point where the factor's |A| reaches sqrt(thr) - 2 r, as both
factors do wherever a computed p exceeds thr. So a search makes two
g-free passes, the site one over [0, max|g| (horizon + coarse_step)],
and scans each g only in W_chan intersected with W_site / |g|, at
h_g = min(coarse_step, _step_for(W2(g))), W2(g) = g^2 W2_site sum|q| +
W2_chan sum|w|, the W2 of the product's terms. That W2(g) grows as g^2
is why a fixed step misses events at high gamma. _steps gives both
passes' steps and every h_g from each Factor's one cached spread, W2
and sum|w|, and pass_points reads it at the largest |g|. A search is
refused before either pass streams: a W2 that overflows certifies no
step, and a g or grid point count that is not finite no grid.

Lockstep. The rows of a sweep are searched together, in groups whose
windows, at most len(s0) + len(c0) a row, and terms, len(site) +
len(chan) a row, each fit BLOCK_TERMS (all rows of a figure sweep). One
_intersect call gives a group's windows as index ranges on each row's
own grid. On one slot axis each range's points are followed by a -inf,
and _lockstep reads the slots of every unsettled row in blocks, each one
rectangular (rows x (2 + n)) array: a row's last two values, carried
from its previous block (-inf at first), then its next n slots from the
-inf before its first range on, those past its end -inf. The slot of
each entry gives its grid index, and one mask over the block gives its
candidates. n is at most ROOT at first and twice as many in each later
block, so a first event found early ends its row early, and at most
BLOCK_TERMS // (terms x rows), at least 1: a block, and each call of
the golden pass over its candidates, takes at most BLOCK_TERMS points x
terms, or a point when terms exceed it. One vectorised _golden pass
refines all of a block's candidates, each from its own bracket alone,
and the results are then taken in row and index order: each is kept,
merged with its row's last event or, with first_only, dropped once its
row has settled. A row settles, and drops out of later blocks, once its
first time can no longer change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NetworkSpec, Node
from .spectral import Factor, pair_factors
from .transfer import CHUNK, ROOT, grid_count, probability_at, probability_chunks

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
REFINE_XTOL = 1e-6
# golden-section steps per candidate; the cap must stay, since at large t
# the spacing of floats exceeds REFINE_XTOL and b - a cannot shrink to it
REFINE_ITERS = 64
# points x terms of one evaluation of p, about 1 MiB of complex phases
BLOCK_TERMS = 16 * CHUNK


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak search. A refusal names each value as the CLI
    flag does (coarse_step is --step) and carries it."""

    horizon: float = 200.0
    coarse_step: float = 0.005
    epsilon: float = 1e-3

    def __post_init__(self) -> None:
        for name, value in (("horizon", self.horizon), ("step", self.coarse_step)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value:g}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon:g}")
        # below about 1.4e-16 the roots round together and no step is certified
        if not _root(2.0 * self.epsilon) < _root(self.epsilon) < 1.0:
            raise ValueError(f"epsilon {self.epsilon:g} is too small: sqrt(1 - 2 epsilon), "
                             "sqrt(1 - epsilon) and 1 must differ in floating point")


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry; tau_min is None without a PST event, step is its grid step."""

    parameter: float
    tau_min: float | None
    step: float


def _golden(p_of, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximisation of p on the brackets [a_k, b_k] of the
    rows rows_k at once, p_of(rows, t) giving p of each row at its time:
    each bracket shrinks down to REFINE_XTOL or for REFINE_ITERS steps,
    then the best of its midpoint and both ends, the first on a tie, is
    its (t, p). a and b are overwritten."""
    x1 = b - INV_PHI * (b - a)
    x2 = a + INV_PHI * (b - a)
    f1, f2 = p_of(rows, x1), p_of(rows, x2)
    live = np.flatnonzero(b - a > REFINE_XTOL)
    for _ in range(REFINE_ITERS):
        if not len(live):
            break
        rise = f1[live] < f2[live]
        u, d = live[rise], live[~rise]
        a[u], x1[u], f1[u] = x1[u], x2[u], f2[u]
        x2[u] = a[u] + INV_PHI * (b[u] - a[u])
        b[d], x2[d], f2[d] = x2[d], x1[d], f1[d]
        x1[d] = b[d] - INV_PHI * (b[d] - a[d])
        f = p_of(rows[np.concatenate((u, d))], np.concatenate((x2[u], x1[d])))
        f2[u], f1[d] = f[:len(u)], f[len(u):]
        live = live[b[live] - a[live] > REFINE_XTOL]
    t = np.array([(a + b) / 2.0, a, b])
    p = np.array([p_of(rows, x) for x in t])
    best = np.argmax(p, axis=0), np.arange(len(rows))
    return t[best], p[best]


def _lockstep(p_of, row, lo, hi, h: np.ndarray, cfg: ScanConfig, first_only: bool,
              terms: int) -> list[list[float]]:
    """PST times, ascending, of each row r < len(h) on its grid i * h_r,
    read in the index ranges (lo, hi), inclusive, of row r, sorted by row
    and then ascending and not adjacent, outside which p <= 1 - 2 epsilon;
    p_of(rows, t) gives p of each row at its time over terms terms. With
    first_only, only the first time of each row is final."""
    thr = 1.0 - 2.0 * cfg.epsilon
    steps = h.tolist()
    times: list[list[float]] = [[] for _ in steps]
    probs: list[list[float]] = [[] for _ in steps]
    done = np.zeros(len(steps), dtype=bool)

    def settled(r: int, a: float) -> bool:
        # a candidate of row r whose bracket starts at a can neither merge
        # with its first time nor precede it
        t = times[r]
        return first_only and bool(t) and (len(t) > 1 or a > t[0] + steps[r])

    # slots: each range's points, then a -inf
    size = hi - lo + 1
    opens = np.diff(row, prepend=-1) != 0  # a row's first range
    ends = np.cumsum(size + 1)
    first = ends - size - 1  # the slot of each range's first point
    pos, stop = np.zeros((2, len(steps)), dtype=int)
    pos[row[opens]] = first[opens] - 1  # a row starts on the -inf before it
    closes = np.roll(opens, -1)
    stop[row[closes]] = ends[closes]  # and ends after its last range
    tails = np.full((len(steps), 2), -np.inf)  # each row's last two values, -inf at first
    reach = ROOT
    while len(act := np.flatnonzero(~done & (pos < stop))):
        n = max(1, min(reach, BLOCK_TERMS // (terms * len(act))))
        reach *= 2
        # the block: per row its two carried values, then its next n slots,
        # those past its end -inf
        slot = pos[act, None] + np.arange(-2, n)
        j = np.maximum(np.searchsorted(first, slot, side="right") - 1, 0)
        at = lo[j] + slot - first[j]
        fresh = (slot >= first[j]) & (at <= hi[j]) & (slot < stop[act, None])
        fresh[:, :2] = False
        w = np.full(slot.shape, -np.inf)
        w[:, :2] = tails[act]
        rows = np.broadcast_to(act[:, None], slot.shape)
        w[fresh] = p_of(rows[fresh], (h[act, None] * at)[fresh])
        # a row's first slot in the block is no candidate, its last not yet
        mid = w[:, 1:-1]
        c = (mid > thr) & (mid > w[:, :-2]) & (mid >= w[:, 2:])
        rs, i = rows[:, 1:-1][c], at[:, 1:-1][c]
        if len(rs):
            # every candidate in one pass, then each in row and index order
            a, b = i * h[rs] - h[rs], i * h[rs] + h[rs]
            found = _golden(p_of, rs, np.maximum(a, 0.0), np.minimum(b, cfg.horizon))
            for r, start, t, p in zip(rs.tolist(), a.tolist(), *(x.tolist() for x in found)):
                if done[r] or settled(r, start):
                    done[r] = True
                elif p >= 1.0 - cfg.epsilon:
                    if times[r] and abs(t - times[r][-1]) < steps[r]:
                        if p > probs[r][-1]:
                            times[r][-1], probs[r][-1] = t, p
                    else:
                        times[r].append(t)
                        probs[r].append(p)
        tails[act] = w[:, -2:]
        pos[act] += n
        # no later candidate of a row comes before the last point it read
        for r, i in zip(act.tolist(), np.where(fresh, at, -1).max(axis=1).tolist()):
            if i >= 0 and settled(r, i * steps[r] - steps[r]):
                done[r] = True
    return times


def find_pst_times(spec: NetworkSpec, input: Node, output: Node, cfg: ScanConfig) -> list[float]:
    """All PST times in [0, horizon], ascending, refined to 1e-6.

    Candidates are grid local maxima above 1 - 2 epsilon (boundary
    points included, a flat run refined once) on a grid no coarser than
    coarse_step or the step that certifies every event (module
    docstring); a refined candidate is kept when its probability reaches
    1 - epsilon, and one closer than a grid step to the previous kept
    time replaces it only when higher. ValueError refuses, before any
    grid pass, a factor whose curvature W2 overflows (|L_eff| from about
    1e154), the product's W2(J_eff) (|J_eff| from about 1e154), both
    certifying no step, or a grid point count that is not finite.
    """
    [(_, _, times)] = search(*pair_factors(spec, input, output), [spec.couplings.effective()[0]],
                             cfg, first_only=False)
    return times


def tau_min(spec: NetworkSpec, input: Node, output: Node, cfg: ScanConfig) -> float | None:
    """Earliest PST time within the horizon, or None when there is none.

    Equal to the first element of find_pst_times, but the scan stops
    once a later candidate can no longer replace the first event: the
    gamma_sweep row at g = J_eff, refused as find_pst_times is.
    """
    return gamma_sweep(spec, (input, output), [spec.couplings.effective()[0]], cfg)[0].tau_min


def _root(x: float) -> float:
    """sqrt(1 - x), 0 for x >= 1: the amplitude of p = 1 - x."""
    return math.sqrt(max(1.0 - x, 0.0))


def _step_for(w2, epsilon: float, extent=math.inf) -> np.ndarray:
    """The certified steps at curvature bounds W2, 0 at an inf W2, at most
    max(extent, 1): a pass over [0, extent] of a constant |A| takes 1 or 2 samples."""
    gap = _root(epsilon) - _root(2.0 * epsilon)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.fmin(np.sqrt(8.0 * gap / np.asarray(w2, dtype=float)), np.maximum(extent, 1.0))


def _merge(lo: np.ndarray, hi: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs [lo_k, hi_k], both ascending, joined across gaps of at most gap."""
    new = np.ones(len(lo), dtype=bool)
    new[1:] = lo[1:] - hi[:-1] > gap
    return lo[new], hi[np.concatenate((new[1:], new[:1]))]


def _windows(factor: Factor, extent, h, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, disjoint windows (starts, ends) of a factor's pass over [0, extent] at step h."""
    count = math.ceil(extent / h) + 1
    values = factor.values
    r = 8 * np.finfo(float).eps * (np.abs(values).max(initial=0) * count * h + len(values) + ROOT)
    floor = _root(2.0 * epsilon) - factor.spread[0] * h * h / 8 - 4 * r
    runs = [(np.empty(0, dtype=int),) * 2]
    for at, chunk in zip(range(0, count, CHUNK), probability_chunks(factor, h, count)):
        # sqrt(p) >= floor, true of every sample when floor <= 0
        flagged = np.flatnonzero(chunk >= floor * abs(floor)) + at
        if len(flagged):  # most blocks of a pass flag nothing
            # runs under two samples apart overlap once widened
            runs.append(_merge(flagged, flagged, 2))
    lo, hi = _merge(*map(np.concatenate, zip(*runs)), 2)
    return h * (lo - 1), h * (hi + 1)


def _intersect(a0, a1, b0, b1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, starts, ends): the intersections of each interval k of a with
    the sorted, disjoint intervals b, grouped by k and sorted within it."""
    first = np.searchsorted(b1, a0)  # the first b ending at or after a starts
    stop = np.searchsorted(b0, a1, side="right")  # past the last b starting by a's end
    n = np.maximum(stop - first, 0)
    ia = np.repeat(np.arange(len(a0)), n)
    ib = np.repeat(first - np.cumsum(n) + n, n) + np.arange(n.sum())
    return ia, np.maximum(a0[ia], b0[ib]), np.minimum(a1[ia], b1[ib])


def _row_ranges(s0, s1, c0, c1, scale, h, count) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, lo, hi): the index ranges on each row's grid of W_chan
    intersected with W_site / scale_row, sorted by row, then ascending and
    not adjacent; one _intersect call serves every row."""
    # a subnormal |g| may overflow a start to inf: a window never reached
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a0, a1 = s0 / scale[:, None], s1 / scale[:, None]
    # at g = 0 p_site stays at its value at x = 0: a row holds all of tau
    # or none of it
    still = scale == 0.0
    a0[still], a1[still] = np.inf, -np.inf
    if np.any((s0 <= 0.0) & (0.0 <= s1)):
        a0[still, 0], a1[still, 0] = -np.inf, np.inf
    k, a0, a1 = _intersect(a0.ravel(), a1.ravel(), c0, c1)
    row = k // len(s0)
    # clipping adds points to the ranges, which is always safe; each row's
    # grid lies one index past the previous row's on one axis
    lo = np.clip(np.floor(a0 / h[row]), 0, count[row] - 1).astype(int)
    hi = np.clip(np.ceil(a1 / h[row]), 0, count[row] - 1).astype(int)
    base = np.cumsum(count + 1) - count - 1
    lo, hi = _merge(lo + base[row], hi + base[row], 1)
    row = np.searchsorted(base, lo, side="right") - 1
    return row, lo - base[row], hi - base[row]


def _steps(site: Factor, chan: Factor, grid, cfg: ScanConfig) -> tuple[list[tuple], np.ndarray]:
    """The site and channel passes (factor, extent, step) of a search
    over the g of grid, [0, max|g| end] and [0, end] at their certified
    steps, end = horizon + coarse_step, past a row grid's last point; and
    the row steps h_g = min(coarse_step, _step_for(W2(g))). A step is 0
    where its W2 overflows, W2(g) from |g| about 1e154 on."""
    (w2_site, sum_w), (w2_chan, sum_q) = site.spread, chan.spread
    end = cfg.horizon + cfg.coarse_step
    w2, extent = [w2_site, w2_chan], [max(map(abs, grid), default=0.0) * end, end]
    passes = list(zip((site, chan), extent, _step_for(w2, cfg.epsilon, extent).tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # W2(g)
        rows = np.square(grid, dtype=float) * w2_site * sum_q + w2_chan * sum_w
    return passes, np.fmin(cfg.coarse_step, _step_for(rows, cfg.epsilon))


def search(site: Factor, chan: Factor, grid, cfg: ScanConfig,
           first_only: bool) -> list[tuple[float, float, list]]:
    """(g, step, PST times) of p_site(g tau) p_chan(tau) per g of grid,
    from a pair's two Factors (spectral.pair_factors); with first_only,
    only the first time is final. Refused as find_pst_times is."""
    g = np.array([float(x) for x in grid])
    scale = np.abs(g)
    # every refusal comes before either factor pass streams
    (site_pass, chan_pass), h = _steps(site, chan, g.tolist(), cfg)
    if not (site_pass[-1] and chan_pass[-1]):
        raise ValueError("a factor's curvature W2 overflows: no grid step certifies its pass")
    if not np.isfinite(g).all():
        raise ValueError(f"each g of a sweep must be finite, got {g[~np.isfinite(g)][0]:g}")
    if not h.all():
        raise ValueError("a row's curvature W2(g) overflows: no grid step certifies its search")
    if not math.isfinite(sum([x / step for *_, x, step in (site_pass, chan_pass)]
                             + [(cfg.horizon + 0.5 * x) / x for x in h.tolist()])):
        raise ValueError(f"horizon {cfg.horizon:g} at step {cfg.coarse_step:g} and |g| up to "
                         f"{scale.max(initial=0.0):g} needs grid point counts that are not finite")
    c0, c1 = _windows(*chan_pass, cfg.epsilon)
    s0, s1 = _windows(*site_pass, cfg.epsilon) if len(c0) else (c0, c1)
    count = np.array([grid_count(cfg.horizon, x) for x in h.tolist()], dtype=int)
    # rows go together as far as their windows, at most len(s0) + len(c0)
    # a row, and their terms, a point of each in a block, fit BLOCK_TERMS
    terms = len(site.values) + len(chan.values)
    group = max(1, BLOCK_TERMS // max(len(s0) + len(c0), terms))
    times: list[list[float]] = []
    for at in range(0, len(g), group):
        part = slice(at, at + group)

        def p_of(rows: np.ndarray, t: np.ndarray, s=scale[part]) -> np.ndarray:
            return probability_at(site, s[rows] * t) * probability_at(chan, t)

        times += _lockstep(p_of, *_row_ranges(s0, s1, c0, c1, scale[part], h[part], count[part]),
                           h[part], cfg, first_only, terms)
    return list(zip(g.tolist(), h.tolist(), times))


def pass_points(site: Factor, chan: Factor, grid, cfg: ScanConfig) -> float:
    """Points of the two factor passes of search(site, chan, grid, cfg, ...),
    a float, to bound before any work: inf on overflow, of a factor's W2 too,
    or of the W2(g) of the largest |g|, whose row no step certifies. A row's
    grid within the windows holds at most about as many."""
    passes, [h] = _steps(site, chan, [max(map(abs, grid), default=0.0)], cfg)
    return sum(x / step + 1.0 if step else math.inf for *_, x, step in passes) if h else math.inf


def gamma_sweep(template: NetworkSpec, pair: tuple[Node, Node], grid,
                cfg: ScanConfig) -> list[SweepRow]:
    """tau_min per site coupling g = J_eff of grid, in the template's units,
    from the pair's two factors, which do not depend on the template's J:
    tau_min versus gamma = J/L in scaled units, or t_min versus J on a raw
    L = 0 template, where the channel factor is delta_{alpha beta}."""
    return [SweepRow(g, times[0] if times else None, h)
            for g, h, times in search(*pair_factors(template, *pair), grid, cfg, first_only=True)]
