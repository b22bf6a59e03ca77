"""Acceptance gate.

One test per numbered criterion; each prints a single [PASS]/[FAIL]
verdict line through pytest's capture (so the scorecard is visible in
any run mode) before asserting.

Every envelope asserted here is one the exact dynamics meet. The
network is a Cartesian product, H = J S kron I_3 + L I_N kron C, so

    p(t) = p_site(J t) * p_chan(L t)

(the product rule of Christandl et al., PRL 92, 187902, 2004), and
three envelopes follow exactly from it:

- criterion 1: on the doubly closed N=8 ring at gamma=3,
  p = p_C8(3 tau) (5 + 4 cos 3 tau) / 9. Its local maxima near the
  three revivals are 0.997650, 0.999931 and 0.998986, so only the
  middle one clears 0.999; every reported peak must clear 1 - epsilon
  of its scan, sit on a local maximum and match the product rule.
- criterion 5: C6 antipodal transfer with open channels has
  p = ((2 sin x - sin 2x) / 3)^2 ((1 + cos sqrt2 tau) / 2)^2 with
  x = gamma tau. The ceiling 3/4 is a supremum that is never attained,
  and [0, 500] comes within 1.6e-7 of it.
- criterion 10: p >= (1 - epsilon) p_max bounds each chain residual
  by a per-link tolerance fixed by the overlap weights, not by a flat
  angle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_decomp, make_dense, make_spec
from helix_pst import (
    Factor,
    NetworkSpec,
    Node,
    ScanConfig,
    SpectralDecomposition,
    build_hamiltonian,
    check_attainability,
    find_pst_times,
    flat_index,
    gamma_sweep,
    grid_count,
    independent_constraints,
    probability_chunks,
    transfer_report,
    transition_probability,
)
from oracles import (
    dark_predicate_closed_closed,
    distinct_count_closed_closed,
    eigenpairs_closed_closed_analytic,
    product_rule_probability,
    ring_hamiltonian,
    series_expm,
)

PAIR_CC = (Node(0, 1), Node(4, 1))
TOPOLOGIES = [
    ("closed", "closed"),
    ("closed", "open"),
    ("open", "closed"),
    ("open", "open"),
]


_REPORTER = None


@pytest.fixture(autouse=True, scope="module")
def _console(request):
    # the terminal reporter writes to the real console even while
    # stdout is captured, so the scorecard shows up in any run mode
    global _REPORTER
    _REPORTER = request.config.pluginmanager.getplugin("terminalreporter")
    yield
    _REPORTER = None


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    if _REPORTER is not None:
        _REPORTER.write_line(line)
    else:
        print(line, flush=True)


def _fmt_seq(xs, nd=4):
    return "[" + ", ".join(f"{x:.{nd}f}" for x in xs) + "]"


class Found(NamedTuple):
    times: list[float]
    decomp: SpectralDecomposition
    pair: tuple[Node, Node]
    spec: NetworkSpec
    epsilon: float


@pytest.fixture(scope="module")
def found():
    """Scan results shared by criteria 1-4 and 10."""
    jobs = {
        "c1": (8, "closed", "closed", 3.0, PAIR_CC, ScanConfig(horizon=150.0, epsilon=5e-3)),
        "c2": (8, "closed", "closed", 5.0, PAIR_CC, ScanConfig(horizon=150.0, epsilon=1e-3)),
        "c3": (5, "open", "open", 15.0, (Node(0, 1), Node(4, 1)), ScanConfig(horizon=100.0, epsilon=5e-3)),
        "c4": (4, "open", "closed", 9.4, (Node(0, 1), Node(3, 1)), ScanConfig(horizon=60.0, epsilon=1.1e-2)),
    }
    out = {}
    for key, (N, s, c, gamma, pair, cfg) in jobs.items():
        spec, decomp = make_decomp(N, s, c, gamma=gamma)
        out[key] = Found(find_pst_times(spec, *pair, cfg), decomp, pair, spec, cfg.epsilon)
    return out


# golden refinement pins a peak to 1e-6 in time; 1e-4 to either side
# the c1 peaks fall by 2.0e-7, far above the 1e-12 spread between routes
PEAK_PROBE = 1e-4


def test_criterion_01_closed_closed_gamma3(found):
    times, decomp, pair, spec, eps = found["c1"]
    targets = (12.59, 73.31, 134.03)
    times_ok = len(times) == len(targets) and all(
        abs(t - x) <= 0.05 for t, x in zip(times, targets))
    peaks = [transition_probability(decomp, *pair, t) for t in times]
    oracle = [[product_rule_probability(spec, *pair, t + d)
               for d in (-PEAK_PROBE, 0.0, PEAK_PROBE)] for t in times]
    drift = max((abs(p - o[1]) for p, o in zip(peaks, oracle)), default=0.0)
    eps_ok = bool(peaks) and all(p >= 1.0 - eps for p in peaks)
    match_ok = drift <= 1e-9
    local_ok = all(o[1] > max(o[0], o[2]) for o in oracle)
    bar_ok = len(peaks) == len(targets) and peaks[1] >= 0.999
    _verdict(1, times_ok and eps_ok and match_ok and local_ok and bar_ok,
             f"times {_fmt_seq(times)} vs {targets} within 0.05; "
             f"peak p {_fmt_seq(peaks, 6)} against 1-eps={1.0 - eps:g}, "
             f"product rule within {drift:.1e}, local maxima: {local_ok}; "
             f"middle revival against the 0.999 bar")
    assert times_ok
    # p = p_C8(3 tau) (5 + 4 cos 3 tau) / 9 here, and its true local
    # maxima at the three revivals are 0.997650, 0.999931 and 0.998986
    # (the same to 1e-11 by the closed form and by series_expm on the
    # edge-by-edge H). No evaluation reaches 0.999 at the first or third,
    # so the scan's own promise p >= 1 - eps is what each peak must meet,
    # on a true local maximum that an independent route reproduces.
    assert eps_ok
    assert match_ok
    assert local_ok
    # the middle revival does clear the 0.999 bar
    assert bar_ok


def test_criterion_02_closed_closed_gamma5(found):
    times = found["c2"].times
    targets = (43.985, 131.955)
    ok = len(times) == len(targets) and all(
        abs(t - x) <= 0.05 for t, x in zip(times, targets))
    _verdict(2, ok, f"times {_fmt_seq(times)} vs {targets} within 0.05")
    assert ok


def test_criterion_03_open_open(found):
    times = found["c3"].times
    targets = (26.6, 84.4)
    pos_ok = len(times) == len(targets) and all(
        abs(t - x) <= 0.2 for t, x in zip(times, targets))
    weak = make_spec(5, "open", "open", gamma=4.0)
    absent = find_pst_times(weak, Node(0, 1), Node(4, 1),
                            ScanConfig(horizon=200.0, epsilon=5e-3))
    neg_ok = absent == []
    _verdict(3, pos_ok and neg_ok,
             f"gamma=15 times {_fmt_seq(times)} vs {targets} within 0.2; "
             f"gamma=4 events on [0,200]: {len(absent)}")
    assert pos_ok
    assert neg_ok


def test_criterion_04_open_sites_closed_channels(found):
    times = found["c4"].times
    targets = (8.35, 39.75, 56.5)
    pos_ok = len(times) == len(targets) and all(
        abs(t - x) <= 0.2 for t, x in zip(times, targets))
    weak = make_spec(4, "open", "closed", gamma=4.0)
    absent = find_pst_times(weak, Node(0, 1), Node(3, 1),
                            ScanConfig(horizon=200.0, epsilon=1.1e-2))
    neg_ok = absent == []
    _verdict(4, pos_ok and neg_ok,
             f"gamma=9.4 times {_fmt_seq(times)} vs {targets} within 0.2; "
             f"gamma=4 events on [0,200]: {len(absent)}")
    assert pos_ok
    assert neg_ok


def _global_max(decomp, pair, horizon, step=0.002):
    """(t, p) of the largest local maximum of p on [0, horizon]."""
    count = grid_count(horizon, step)
    grid = step * np.arange(count)
    report = transfer_report(decomp, *pair)
    p = np.concatenate(list(probability_chunks(Factor(report.values, report.overlaps), step,
                                               count)))
    inner = (p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:])
    cands = [i + 1 for i in np.flatnonzero(inner) if p[i + 1] > p.max() - 1e-3]
    best = (float(grid[p.argmax()]), float(p.max()))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in sorted(cands, key=lambda i: -p[i])[:50]:
        a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        for _ in range(80):
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            if transition_probability(decomp, *pair, c) < transition_probability(decomp, *pair, d):
                a = c
            else:
                b = d
        t_star = float(0.5 * (a + b))
        best = max(best, (t_star, transition_probability(decomp, *pair, t_star)),
                   key=lambda tp: tp[1])
    return best


def test_criterion_05_closed_sites_open_channels():
    pair = (Node(0, 1), Node(3, 1))
    maxima = {}
    drift = 0.0
    for gamma in (4.0, 8.25):
        spec, decomp = make_decomp(6, "closed", "open", gamma=gamma)
        t_star, maxima[gamma] = _global_max(decomp, pair, 500.0)
        drift = max(drift, abs(maxima[gamma] - product_rule_probability(spec, *pair, t_star)))
    ceiling_ok = all(0.75 - 1e-6 <= m <= 0.75 + 1e-12 for m in maxima.values())
    match_ok = drift <= 1e-9
    below_ok = all(m < 0.999 for m in maxima.values())
    shown = ", ".join(f"gamma={g}: {m:.9f}" for g, m in maxima.items())
    _verdict(5, ceiling_ok and match_ok and below_ok,
             f"max p on [0,500] {{{shown}}} against the ceiling 3/4 from "
             f"1e-6 below; product rule within {drift:.1e}; bar 0.999")
    # p = s(x) c(tau) with x = gamma tau. C6 antipodal transfer gives
    # s = ((2 sin x - sin 2x) / 3)^2 <= 3/4, with equality only at
    # x = +-2 pi/3 mod 2 pi; the open channel path gives
    # c = ((1 + cos sqrt2 tau) / 2)^2 <= 1, with equality only at
    # sqrt2 tau in 2 pi Z. Both at once need gamma k / sqrt2 = +-1/3
    # mod 1 for an integer k, which gamma = 4 and 8.25 never meet: 3/4 is
    # a supremum that is approached but not attained. On [0, 500] the
    # maxima are 0.749999850 and 0.749999847 (the closed form on a 1e-4
    # grid agrees), so the window is [3/4 - 1e-6, 3/4] plus float rounding.
    assert ceiling_ok
    assert match_ok
    assert below_ok


def test_criterion_06_aligned_bound_everywhere():
    worst = 0.0
    for N in range(3, 13):
        for gamma in (0.5, 1.0, 3.0, 5.0):
            spec = make_spec(N, "closed", "closed", gamma=gamma)
            pairs = eigenpairs_closed_closed_analytic(spec)
            A = np.abs(np.stack([p.vector for p in pairs]))
            M = A.T @ A  # rank-1 aligned bound for every node pair at once
            worst = max(worst, float(np.abs(M - 1.0).max()))
    ok = worst <= 1e-9
    _verdict(6, ok, f"per-mode aligned bound off unity by at most {worst:.3e} "
                    f"over N=3..12, gamma in {{0.5, 1, 3, 5}}")
    assert ok


def test_criterion_07_analytic_spectrum_and_counts():
    worst = 0.0
    for N in range(3, 17):
        for gamma in (0.5, 3.0):
            spec = make_spec(N, "closed", "closed", gamma=gamma)
            analytic = sorted(p.value for p in eigenpairs_closed_closed_analytic(spec))
            numeric = np.linalg.eigvalsh(build_hamiltonian(spec))
            worst = max(worst, float(np.abs(np.array(analytic) - numeric).max()))
    values_ok = worst <= 1e-9
    counts_ok = True
    for N in range(3, 17):
        if N % 2 == 1:
            want = (N + 1) // 2
        elif N % 4 != 0:
            want = N // 2 + 1
        else:
            want = N // 2 + 2
        counts_ok &= distinct_count_closed_closed(N) == (want, want)
    _verdict(7, values_ok and counts_ok,
             f"eigenvalue deviation at most {worst:.3e} for N=3..16; "
             f"class counts follow the parity rule: {counts_ok}")
    assert values_ok
    assert counts_ok


def test_criterion_08_dark_state_equivalence():
    gamma = 2.5  # keeps every group's site class identifiable by value
    mismatches = []
    for N in (4, 8, 12):
        _, decomp = make_decomp(N, "closed", "closed", gamma=gamma)
        top = -((3 - N) // 2)  # ceil((N - 3) / 2)
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                report = transfer_report(decomp, Node(i, 1), Node(j, 1))
                got = sorted(round(float(decomp.values[k]), 9)
                             for k in report.dark_groups)
                want = []
                for n in range(1, top + 1):
                    if dark_predicate_closed_closed(N, i, j, n):
                        c = math.cos(2 * math.pi * n / N)
                        want += [round(2 * gamma * c + 2.0, 9),
                                 round(2 * gamma * c - 1.0, 9)]
                if got != sorted(want):
                    mismatches.append((N, i, j))
    empty_ok = True
    for N in (5, 6, 7):
        _, decomp = make_decomp(N, "closed", "closed", gamma=gamma)
        for j in range(1, N):
            report = transfer_report(decomp, Node(0, 1), Node(j, 1))
            empty_ok &= report.dark_groups == frozenset()
    ok = not mismatches and empty_ok
    _verdict(8, ok, f"predicate mismatches {len(mismatches)} over N in {{4,8,12}}; "
                    f"dark sets empty for N in {{5,6,7}}: {empty_ok}")
    assert ok


def test_criterion_09_property_suite():
    rng = np.random.default_rng(42)
    unit_worst = recip_worst = bound_worst = proj_worst = prop_worst = 0.0
    for site_bc, channel_bc in TOPOLOGIES:
        for N in (3, 4, 5):
            spec, decomp = make_decomp(N, site_bc, channel_bc, gamma=1.7)
            H = build_hamiltonian(spec)
            nodes = [Node(n, al) for n in range(N) for al in (1, 2, 3)]
            times = rng.uniform(0.0, 30.0, size=20)

            # the projector algebra, on the dense path
            _, dense = make_dense(N, site_bc, channel_bc, gamma=1.7)
            P = dense.projectors
            proj_worst = max(
                proj_worst,
                float(np.abs(P.imag).max()),
                float(np.abs(P.sum(axis=0) - np.eye(dense.dim)).max()),
                max(float(np.abs(P[k] @ P[l] - (P[k] if k == l else 0.0)).max())
                    for k in range(len(dense)) for l in range(len(dense))),
            )

            src = nodes[int(rng.integers(len(nodes)))]
            dst = nodes[int(rng.integers(len(nodes)))]
            bound = transfer_report(decomp, src, dst).p_max
            for t in times:
                t = float(t)
                total = sum(transition_probability(decomp, src, other, t) for other in nodes)
                unit_worst = max(unit_worst, abs(total - 1.0))
                fwd = transition_probability(decomp, src, dst, t)
                recip_worst = max(recip_worst, abs(fwd - transition_probability(decomp, dst, src, t)))
                bound_worst = max(bound_worst, fwd - bound)

            a, b = flat_index(src, N), flat_index(dst, N)
            for t in times[:5]:
                U = series_expm(H, float(t))
                prop_worst = max(prop_worst, abs(
                    transition_probability(decomp, src, dst, float(t)) - abs(U[b, a]) ** 2))
    ok = (unit_worst <= 1e-9 and recip_worst <= 1e-12 and bound_worst <= 1e-9
          and proj_worst <= 1e-10 and prop_worst <= 1e-9)
    _verdict(9, ok,
             f"unitarity {unit_worst:.2e}; reciprocity {recip_worst:.2e}; "
             f"bound excess {bound_worst:.2e}; projector algebra {proj_worst:.2e}; "
             f"series propagator {prop_worst:.2e}")
    assert ok


def _link_tolerances(report, chain, epsilon):
    """Largest residual on each chain link that p >= (1 - eps) p_max allows.

    With weights w_k = |o_k| / sum |o_k|, the triangle inequality over
    every group but the link's two gives
        sqrt(p / p_max) <= 1 - w_a - w_b + |w_a + w_b exp(i r)|,
    where r is the link's residual; the tolerance is the r at which the
    right side falls to sqrt(1 - eps) (pi when it never does).
    """
    w = np.abs(report.overlaps) / np.abs(report.overlaps).sum()
    tols = []
    for wa, wb in zip(w[chain.left_group].tolist(), w[chain.right_group].tolist()):
        need = math.sqrt(1.0 - epsilon) - 1.0 + wa + wb
        if need <= abs(wa - wb):
            tols.append(math.pi)
        else:
            cos_r = (need * need - wa * wa - wb * wb) / (2.0 * wa * wb)
            tols.append(math.acos(min(1.0, cos_r)))
    return np.array(tols)


def test_criterion_10_attainability_at_found_times(found):
    sat = {}
    mid_ok = True
    spans = []
    for key in ("c1", "c2", "c3", "c4"):
        times, decomp, pair, _, eps = found[key]
        report = transfer_report(decomp, *pair)
        chain = independent_constraints(report)
        tols = _link_tolerances(report, chain, eps)
        spans.append(f"{key} {tols.min():.2f}-{tols.max():.2f}")
        for t in times:
            sat[f"{key}@{t:.4f}"] = bool(np.all(check_attainability(chain, t).residuals < tols))
        for lo, hi in zip(times, times[1:]):
            mid = 0.5 * (lo + hi)
            mid_ok &= not np.all(check_attainability(chain, mid).residuals < tols)
    times_ok = all(sat.values())
    failing = [k for k, v in sat.items() if not v]
    _verdict(10, times_ok and mid_ok,
             f"{sum(sat.values())}/{len(sat)} found times satisfy the chain at the "
             f"per-link tolerances of their scan's eps ({'; '.join(spans)} rad)"
             + (f" (violations: {', '.join(failing)})" if failing else "")
             + f"; midway violations seen: {mid_ok}")
    # p >= 1 - eps >= (1 - eps) p_max bounds each residual by its link's
    # tolerance from _link_tolerances: 0.30-0.43 rad on c1, 0.13-0.19 on
    # c2 (tighter than a flat 0.2), 0.30-0.60 on c3 and 0.37-0.60 on c4.
    # The shallow c4 arrivals (p 0.993293 and 0.989526 against the
    # scan's eps = 1.1e-2) carry residuals of 0.244 and 0.308, inside
    # their links' tolerances; residuals shrink as p -> p_max (0.019 at
    # c1@73.3055), while midway most links sit near 3 rad.
    assert times_ok
    assert mid_ok


def test_criterion_11_decoupled_limit():
    rng = np.random.default_rng(7)
    spec, decomp = make_decomp(8, "closed", "closed", J=2.0, L=0.0)
    ring = ring_hamiltonian(8, 2.0, closed=True)
    worst = 0.0
    for t in rng.uniform(0.0, 25.0, size=20):
        U = series_expm(ring, float(t))
        for j in range(8):
            p_net = transition_probability(decomp, Node(0, 3), Node(j, 3), float(t))
            worst = max(worst, abs(p_net - abs(U[j, 0]) ** 2))
    ring_ok = worst <= 1e-10

    grid = [0.5 * k for k in range(1, 25)]  # 0.5 .. 12.0, matched grids
    cfg = ScanConfig(horizon=200.0)
    template = make_spec(8, "closed", "closed", gamma=grid[0])
    finite_gamma = sum(r.tau_min is not None for r in gamma_sweep(template, PAIR_CC, grid, cfg))
    finite_J = sum(r.tau_min is not None
                   for r in gamma_sweep(make_spec(8, "closed", "closed", J=1.0, L=0.0),
                                        PAIR_CC, grid, cfg))
    count_ok = finite_J > finite_gamma
    _verdict(11, ring_ok and count_ok,
             f"single-ring agreement within {worst:.2e}; finite arrivals "
             f"{finite_J}/24 at L=0 versus {finite_gamma}/24 at finite gamma")
    assert ring_ok
    assert count_ok
