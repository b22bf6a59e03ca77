import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_grid_points, make_decomp, make_spec
from helix_pst import scan, transfer
from helix_pst import (
    Node,
    ScanConfig,
    find_pst_times,
    gamma_sweep,
    grid_count,
    tau_min,
    transfer_report,
    transition_probability,
)
from helix_pst.cli import parse_grid
from helix_pst.scan import REFINE_XTOL
from helix_pst.spectral import Factor, pair_factors
from helix_pst.transfer import CHUNK, ROOT
from oracles import (EXACT_PST, _reference_golden_max, channel_hamiltonian, grid_pst_times,
                     product_rule_probability, reference_pst_times, ring_hamiltonian,
                     series_expm)

PAIR8 = (Node(0, 1), Node(4, 1))
# the paper's figure networks fig2..fig5 and their node pairs
FIGURES = {
    "fig2": (8, "closed", "closed", PAIR8),
    "fig3": (5, "open", "open", (Node(0, 1), Node(4, 1))),
    "fig4": (4, "open", "closed", (Node(0, 1), Node(3, 1))),
    "fig5": (6, "closed", "open", (Node(0, 1), Node(3, 1))),
}
# 14.5 and 19.5 are where the fixed grid misses or delays fig2's first event
EQUIV_GAMMAS = (0.5, 3.0, 5.0, 8.25, 14.5, 19.5)
EQUIV_J = (0.5, 7.3, 20.0)


def _figure_case(fig, gamma=None, J=None):
    N, site, channel, pair = FIGURES[fig]
    cfg = ScanConfig()
    if gamma is not None:
        spec, decomp = make_decomp(N, site, channel, gamma=gamma)
    else:
        # the coupling sweep's rescaled step
        spec, decomp = make_decomp(N, site, channel, J=J, L=0.0)
        cfg = replace(cfg, coarse_step=cfg.coarse_step / J)
    return spec, decomp, pair, cfg


def _one_group_case():
    # no coupling: a single group at eigenvalue 0 with unit overlap, so
    # p(t) == 1.0 exactly, a plateau over all 10 001 grid points
    return (*make_decomp(3, "closed", "closed", J=0.0, L=0.0), (Node(0, 1), Node(0, 1)),
            ScanConfig(horizon=50.0))


def _chunk_edge_case(index):
    # fig2 at gamma = 3 peaks near 12.576181; this step puts the grid point
    # nearest the peak at `index`
    return (*make_decomp(8, "closed", "closed", gamma=3.0), PAIR8,
            ScanConfig(horizon=30.0, coarse_step=12.576181 / index, epsilon=5e-3))


def _horizon_edge_case():
    # the horizon stops 1.2e-3 before fig2's gamma = 3 peak: p still rises
    # at the last grid point, which counts as a boundary maximum
    return (*make_decomp(8, "closed", "closed", gamma=3.0), PAIR8,
            ScanConfig(horizon=12.575, epsilon=5e-3))


def _raw_case(J, L, channel="closed", pair=PAIR8):
    # raw couplings: times in t, the channel factor scaled by L
    return (*make_decomp(8, "closed", channel, J=J, L=L), pair,
            ScanConfig(horizon=100.0, epsilon=5e-3))


EQUIVALENCE_CASES = {
    **{f"{fig}-gamma{g}": (lambda f=fig, g=g: _figure_case(f, gamma=g))
       for fig in FIGURES for g in EQUIV_GAMMAS},
    **{f"{fig}-L0-J{J}": (lambda f=fig, J=J: _figure_case(f, J=J))
       for fig in FIGURES for J in EQUIV_J},
    "one-group-plateau": _one_group_case,
    "peak-at-CHUNK-1": lambda: _chunk_edge_case(CHUNK - 1),
    "peak-at-CHUNK": lambda: _chunk_edge_case(CHUNK),
    "peak-at-horizon": _horizon_edge_case,
    **{f"raw-J{J}-L{L}": (lambda J=J, L=L: _raw_case(J, L))
       for J, L in ((3.0, 1.0), (6.0, 2.0), (-3.0, 1.0), (3.0, -1.0), (2.0, 0.0))},
    # J = 0: p = p_chan(L t), the open 3-path's end-to-end transfer
    "raw-J0.0-L1.0": lambda: _raw_case(0.0, 1.0, "open", (Node(2, 1), Node(2, 3))),
}


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(horizon=0.0)
    with pytest.raises(ValueError):
        ScanConfig(coarse_step=-1.0)
    with pytest.raises(ValueError):
        ScanConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ScanConfig(epsilon=1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            ScanConfig(horizon=bad)
        with pytest.raises(ValueError, match="^step must be positive and finite"):
            ScanConfig(coarse_step=bad)


def test_scan_config_refuses_an_epsilon_too_small_to_certify_a_step():
    # sqrt(1 - epsilon) rounding to 1 or to sqrt(1 - 2 epsilon) would give
    # a certified step of 0, which the factor passes divide by
    for tiny in (1e-17, 5e-17, 1e-16, 1.2e-16, 1.3e-16):
        with pytest.raises(ValueError, match=f"epsilon {tiny:g} is too small"):
            ScanConfig(epsilon=tiny)
    # the refused epsilons are the ones below a cut, and every other one
    # certifies a positive step
    accepted = []
    for epsilon in np.linspace(1e-18, 1e-15, 3001).tolist():
        try:
            ScanConfig(epsilon=epsilon)
        except ValueError:
            assert not accepted, epsilon
        else:
            accepted.append(epsilon)
            assert scan._step_for(1.0, epsilon) > 0.0
    assert 1.3e-16 < accepted[0] < 1.4e-16


def test_find_pst_times_frozen_gamma3():
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(spec, *PAIR8, ScanConfig(horizon=150.0, epsilon=5e-3))
    assert times == pytest.approx([12.576181, 73.305511, 134.034843], abs=5e-4)


def test_find_pst_times_frozen_gamma5():
    spec = make_spec(8, "closed", "closed", gamma=5.0)
    times = find_pst_times(spec, *PAIR8, ScanConfig(horizon=150.0, epsilon=1e-3))
    assert times == pytest.approx([43.983376, 131.950128], abs=5e-4)


def test_find_pst_times_reads_a_fraction_of_the_grid(monkeypatch):
    # the two factor passes and the product's windows, against the full
    # grid a scan at the same step would read
    spec, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=150.0, epsilon=5e-3)
    [(_, h, _)] = scan._sweep(*pair_factors(spec, *PAIR8), [3.0], cfg, first_only=False)
    passes = count_grid_points(monkeypatch)
    points = count_range_points(monkeypatch)
    times = find_pst_times(spec, *PAIR8, cfg)
    assert sum(passes) < grid_count(cfg.horizon, h) / 4
    assert 0 < sum(points) < grid_count(cfg.horizon, h) / 100
    want = grid_pst_times(decomp, *PAIR8, replace(cfg, coarse_step=h))
    assert times == pytest.approx(want, abs=REFINE_XTOL) and len(times) == 3


def test_returned_times_are_refined_local_maxima():
    spec, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(spec, *PAIR8, ScanConfig(horizon=150.0, epsilon=5e-3))
    for t in times:
        p_star = transition_probability(decomp, *PAIR8, t)
        assert p_star >= transition_probability(decomp, *PAIR8, t - 1e-4) - 1e-9
        assert p_star >= transition_probability(decomp, *PAIR8, t + 1e-4) - 1e-9


def test_tau_min_matches_first_event_and_none_when_absent():
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=150.0, epsilon=5e-3)
    assert tau_min(spec, *PAIR8, cfg) == pytest.approx(12.576181, abs=5e-4)
    # open/open at gamma = 4 never exceeds 0.98 on this horizon
    weak = make_spec(5, "open", "open", gamma=4.0)
    assert tau_min(weak, Node(0, 1), Node(4, 1), ScanConfig(horizon=200.0)) is None


def test_epsilon_threshold_filters_peaks():
    # the recurrence near tau = 48.15 tops out around 0.992
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    loose = find_pst_times(spec, *PAIR8, ScanConfig(horizon=60.0, epsilon=1e-2))
    tight = find_pst_times(spec, *PAIR8, ScanConfig(horizon=60.0, epsilon=5e-3))
    assert any(abs(t - 48.15) < 0.1 for t in loose)
    assert not any(abs(t - 48.15) < 0.1 for t in tight)


def test_time_scale_covariance():
    # doubling both couplings halves every transfer time
    slow = make_spec(8, "closed", "closed", J=3.0, L=1.0)
    fast = make_spec(8, "closed", "closed", J=6.0, L=2.0)
    cfg_slow = ScanConfig(horizon=80.0, coarse_step=0.005, epsilon=5e-3)
    cfg_fast = ScanConfig(horizon=40.0, coarse_step=0.0025, epsilon=5e-3)
    t_slow = find_pst_times(slow, *PAIR8, cfg_slow)
    t_fast = find_pst_times(fast, *PAIR8, cfg_fast)
    assert len(t_slow) == len(t_fast) > 0
    for a, b in zip(t_slow, t_fast):
        assert a == pytest.approx(2.0 * b, abs=1e-4)


def test_gamma_sweep_rows_and_determinism():
    template = make_spec(8, "closed", "closed", gamma=1.0)
    grid = [3.0, 4.0, 5.0]
    cfg = ScanConfig(horizon=80.0, epsilon=5e-3)
    serial = gamma_sweep(template, PAIR8, grid, cfg)
    assert [r.parameter for r in serial] == grid
    by_gamma = {r.parameter: r.tau_min for r in serial}
    assert by_gamma[3.0] == pytest.approx(12.576181, abs=5e-4)
    assert by_gamma[5.0] == pytest.approx(43.983376, abs=5e-4)
    assert by_gamma[4.0] is None


def _certified_bound(decomp, pair, epsilon):
    """The certified step of the grouped amplitude at this decomposition,
    from its own W2; the sweep's labelled factor terms can only need a
    finer one."""
    o = np.abs(transfer_report(decomp, *pair).overlaps)
    c = o @ decomp.values / o.sum()
    w2 = o @ (decomp.values - c) ** 2
    return math.sqrt(8 * (math.sqrt(1 - epsilon) - math.sqrt(1 - 2 * epsilon)) / w2)


def _check_rows_against_full_scans(rows, grid, case_at, cfg):
    """Every row equals the first time of the full-grid reference at the
    row's own step, a step no coarser than coarse_step or the certified
    one, and tau_min of the row's network equals the row."""
    assert [r.parameter for r in rows] == grid
    for row in rows:
        spec, decomp, pair = case_at(row.parameter)
        assert tau_min(spec, *pair, cfg) == row.tau_min, row
        assert row.step <= min(cfg.coarse_step, _certified_bound(decomp, pair, cfg.epsilon)) * (
            1 + 1e-12), row
        want = grid_pst_times(decomp, *pair, replace(cfg, coarse_step=row.step), first_only=True)
        assert (row.tau_min is None) == (not want), row
        if want:
            assert abs(row.tau_min - want[0]) <= REFINE_XTOL, row


def count_range_points(monkeypatch) -> list[int]:
    """Sizes of the blocks of grid points _lockstep reads, refinement left
    out, after checking that each row's ranges are ascending and neither
    overlap nor touch."""
    sizes: list[int] = []
    refining: list[bool] = []
    real, real_golden = scan._lockstep, scan._golden

    def golden(*args):
        refining.append(True)
        try:
            return real_golden(*args)
        finally:
            refining.pop()

    def spy(p_of, row, lo, hi, h, cfg, first_only, terms):
        assert np.all(lo <= hi) and np.all(np.diff(row) >= 0)
        same = row[1:] == row[:-1]
        assert np.all(lo[1:][same] > hi[:-1][same] + 1), (row, lo, hi)

        def counted(rows, t):
            if not refining:
                sizes.append(len(t))
            return p_of(rows, t)

        return real(counted, row, lo, hi, h, cfg, first_only, terms)

    monkeypatch.setattr(scan, "_lockstep", spy)
    monkeypatch.setattr(scan, "_golden", golden)
    return sizes


def count_kernel_calls(monkeypatch) -> list[tuple[float, int]]:
    """(step, count) of every probability_chunks call the sweeps make."""
    calls: list[tuple[float, int]] = []
    real = transfer.probability_chunks

    def spy(factor, step, count):
        calls.append((step, count))
        return real(factor, step, count)

    monkeypatch.setattr(scan, "probability_chunks", spy)
    return calls


@pytest.mark.parametrize("fig", list(FIGURES))
def test_gamma_sweep_matches_per_gamma_scans(fig, monkeypatch):
    # the windowed sweep against the full-grid reference per gamma at the
    # row's certified step, on the figure's gamma grid (reproduce's
    # 0.5:20:0.05)
    N, site, channel, pair = FIGURES[fig]
    grid = parse_grid("0.5:20:0.05")
    cfg = ScanConfig()
    passes = count_grid_points(monkeypatch)
    points = count_range_points(monkeypatch)
    rows = gamma_sweep(make_spec(N, site, channel, gamma=1.0), pair, grid, cfg)
    # the two window passes and every gamma's ranges: under 1% of the
    # points of one full coarse scan per gamma
    assert sum(passes) + sum(points) <= len(grid) * grid_count(cfg.horizon, cfg.coarse_step) / 100
    _check_rows_against_full_scans(
        rows, grid, lambda g: (*make_decomp(N, site, channel, gamma=g), pair), cfg)


@pytest.mark.parametrize("site_bc", ["open", "closed"])
def test_large_n_sweep_rows_match_per_gamma_scans(site_bc):
    # N=150 rows read N + 3 factor terms. Channel 1 -> 3 along the open
    # 3-path reaches p_chan = 1 at pi / sqrt 2, the first event of small
    # gamma, where p_site(gamma tau) of an end or a middle site stays near
    # 1; from gamma = 0.05 on, p stays below 1 - epsilon
    grid = [0.01, 0.02, 0.05, 0.3, 3.0]
    template = make_spec(150, site_bc, "open", gamma=1.0)
    for n, epsilon in ((0, 1e-3), (0, 1e-2), (75, 1e-3), (75, 1e-2)):
        pair = (Node(n, 1), Node(n, 3))
        cfg = ScanConfig(horizon=10.0, epsilon=epsilon)
        rows = gamma_sweep(template, pair, grid, cfg)
        _check_rows_against_full_scans(
            rows, grid, lambda g: (*make_decomp(150, site_bc, "open", gamma=g), pair), cfg)
        assert rows[0].tau_min == pytest.approx(math.pi / math.sqrt(2), abs=1e-3)
        assert (rows[1].tau_min is None) == (epsilon == 1e-3)
        if site_bc == "closed" and epsilon == 1e-2:
            assert rows[1].tau_min == pytest.approx(2.21966, abs=1e-5)
        assert [r.tau_min for r in rows[2:]] == [None] * 3


@pytest.mark.parametrize("kind", ["gamma", "J"])
def test_fig2_sweep_makes_a_bounded_number_of_evaluator_calls(kind, monkeypatch):
    # the 391 rows are read in a few row-parallel blocks, each block's
    # candidates refined in one golden-section pass over all of them;
    # one golden section per candidate and one call per 64-point
    # block of each row took 4568 evaluations for the gamma panel. An
    # evaluation is one p_of call of the lockstep or its golden passes,
    # one site and one channel probability_at call
    N, site, channel, pair = FIGURES["fig2"]
    grid = parse_grid("0.5:20:0.05")
    calls, passes = [], []
    real, real_golden = scan._lockstep, scan._golden

    def spy(p_of, *args):
        def counted(rows, t):
            calls.append(len(t))
            return p_of(rows, t)

        return real(counted, *args)

    def golden(*args):
        passes.append(args)
        return real_golden(*args)

    monkeypatch.setattr(scan, "_lockstep", spy)
    monkeypatch.setattr(scan, "_golden", golden)
    template = (make_spec(N, site, channel, gamma=1.0) if kind == "gamma"
                else make_spec(N, site, channel, J=1.0, L=0.0))
    rows = gamma_sweep(template, pair, grid, ScanConfig())
    assert sum(r.tau_min is not None for r in rows) > 100
    # a pass at brackets of 2 h <= 0.01 takes 2 + 20 + 3 calls, a block one
    assert 1 <= len(passes) <= 3 and len(calls) <= 100


@pytest.mark.parametrize("fig", ["fig2", "fig4"])
def test_sweep_rows_do_not_depend_on_the_block_budget(fig, monkeypatch):
    # a budget of 64 points x terms takes one row per group and a few
    # points of it per block, so candidates meet block and group edges;
    # fig2 at gamma 3 adds a search for all of its 6 events
    N, site, channel, pair = FIGURES[fig]
    template = make_spec(N, site, channel, gamma=1.0)
    raw = make_spec(N, site, channel, J=1.0, L=0.0)
    grid = parse_grid("0.5:20:0.25")
    fig2 = make_spec(*FIGURES["fig2"][:3], gamma=3.0)

    def sweeps():
        return (gamma_sweep(template, pair, grid, ScanConfig()),
                gamma_sweep(raw, pair, grid, ScanConfig()),
                find_pst_times(fig2, *PAIR8, ScanConfig(epsilon=0.01)))

    want = sweeps()
    points = count_range_points(monkeypatch)
    monkeypatch.setattr(scan, "BLOCK_TERMS", 64)
    assert sweeps() == want
    assert max(points) <= 64
    assert sum(r.tau_min is not None for rows in want[:2] for r in rows) > 50
    assert len(want[2]) == 6 and want[2][0] == pytest.approx(12.5762, abs=1e-4)


def test_large_n_sweep_evaluations_stay_within_the_block_budget(monkeypatch):
    # N=2e4 open/open onto itself: 20 003 terms per row against 47
    # windows, so terms size the row groups, 3 rows each, and every
    # evaluation, of a block or a golden step, takes at most 3 points
    template = make_spec(20000, "open", "open", gamma=1.0)
    pair = (Node(0, 1), Node(0, 1))
    site, chan = pair_factors(template, *pair)
    width = max(1, scan.BLOCK_TERMS // (len(site.values) + len(chan.values)))
    sizes: list[int] = []
    real = scan.probability_at

    def spy(factor, t):
        sizes.append(np.size(t))
        return real(factor, t)

    monkeypatch.setattr(scan, "probability_at", spy)
    rows = gamma_sweep(template, pair, parse_grid("0.5:5:0.5"), ScanConfig())
    assert len(rows) == 10 and sizes and max(sizes) <= width
    assert [r.tau_min for r in rows] == [0.0] * 10


@pytest.mark.parametrize("fig", list(FIGURES))
def test_sweep_rows_equal_the_reference_scan_at_their_step(fig):
    # the earlier dense peak search, at each row's own step, on a few
    # gammas and Js of the figure grids (a dense scan of the whole horizon
    # takes about 0.1 s, too long for every row)
    N, site, channel, pair = FIGURES[fig]
    cfg = ScanConfig()
    gammas = [0.5, 3.0, 5.5, 8.25, 11.0, 14.5, 17.0, 18.75, 19.5, 20.0]
    Js = [0.5, 7.3, 14.5, 20.0]
    template = make_spec(N, site, channel, gamma=1.0)
    cases = [(row, make_decomp(N, site, channel, gamma=row.parameter)[1])
             for row in gamma_sweep(template, pair, gammas, cfg)]
    cases += [(row, make_decomp(N, site, channel, J=row.parameter, L=0.0)[1])
              for row in gamma_sweep(make_spec(N, site, channel, J=1.0, L=0.0), pair, Js, cfg)]
    for row, decomp in cases:
        want = reference_pst_times(decomp, *pair, replace(cfg, coarse_step=row.step))
        assert (row.tau_min is None) == (not want), row
        if want:
            assert abs(row.tau_min - want[0]) <= REFINE_XTOL, row


@pytest.mark.parametrize("fig, gamma, first", [
    ("fig2", 14.5, 6.28226), ("fig2", 19.5, 27.2270), ("fig4", 18.75, 171.7427)])
def test_gamma_sweep_finds_the_events_the_fixed_grid_misses(fig, gamma, first):
    N, site, channel, pair = FIGURES[fig]
    cfg = ScanConfig()
    [row] = gamma_sweep(make_spec(N, site, channel, gamma=1.0), pair, [gamma], cfg)
    assert row.tau_min == pytest.approx(first, abs=5e-5)
    spec, decomp = make_decomp(N, site, channel, gamma=gamma)
    assert tau_min(spec, *pair, cfg) == row.tau_min
    assert find_pst_times(spec, *pair, cfg)[0] == row.tau_min
    # a full grid at 0.005 misses the first event (14.5, 18.75) or sees it
    # a revival late
    fixed = grid_pst_times(decomp, *pair, cfg, first_only=True)
    assert (fixed or [None])[0] != pytest.approx(first, abs=1e-3)


@pytest.mark.parametrize("kind", ["gamma", "J"])
def test_fig5_sweeps_evaluate_no_point_per_row(kind, monkeypatch):
    # the C6 antipodal site factor stays below its unattained 3/4, so its
    # window pass flags nothing and no row reads a point or refines one
    N, site, channel, pair = FIGURES["fig5"]
    template = (make_spec(N, site, channel, gamma=1.0) if kind == "gamma"
                else make_spec(N, site, channel, J=1.0, L=0.0))
    calls = count_kernel_calls(monkeypatch)
    points = count_range_points(monkeypatch)
    monkeypatch.setattr(scan, "_golden", lambda *args: pytest.fail("a candidate was refined"))
    grid = parse_grid("0.5:20:0.05")
    rows = gamma_sweep(template, pair, grid, ScanConfig())
    assert [r.tau_min for r in rows] == [None] * len(grid)
    assert len(calls) == 2 and points == []  # the channel and site window passes


def test_gamma_sweep_reads_no_row_where_the_channel_factor_stays_low(monkeypatch):
    # closed triangle, channel 1 -> 2: p_chan = (2 - 2 cos 3 tau) / 9 <= 4/9
    template = make_spec(8, "closed", "closed", gamma=1.0)
    pair = (Node(0, 1), Node(4, 2))
    cfg = ScanConfig()
    calls = count_kernel_calls(monkeypatch)
    points = count_range_points(monkeypatch)
    rows = gamma_sweep(template, pair, [0.5, 3.0, 14.5], cfg)
    assert [r.tau_min for r in rows] == [None, None, None]
    # one pass, the channel factor's, at its own step; no site pass, no row
    [(step, count)] = calls
    assert step > cfg.coarse_step and count < grid_count(cfg.horizon, cfg.coarse_step) / 5
    assert points == []


def test_gamma_sweep_rejects_a_node_off_the_network_before_any_grid_pass(monkeypatch):
    template = make_spec(8, "closed", "closed", gamma=1.0)
    sizes = count_grid_points(monkeypatch)
    with pytest.raises(ValueError, match="out of range"):
        gamma_sweep(template, (Node(0, 1), Node(8, 1)), [3.0], ScanConfig())
    assert sizes == []


def test_a_search_whose_channel_curvature_overflows_is_refused(monkeypatch):
    # from |L| about 1.3e154 the channel factor's W2 overflows to inf and
    # certifies a step of 0, which the search divided by; it is refused
    # before either factor pass streams a point
    spec = make_spec(6, "closed", "open", J=1.0, L=1e300)
    cfg = ScanConfig(horizon=5.0)
    passes = count_grid_points(monkeypatch)
    for search in (find_pst_times, tau_min):
        with pytest.raises(ValueError, match="^a factor's curvature W2 overflows"):
            search(spec, Node(0, 1), Node(3, 2), cfg)
    assert passes == []
    assert scan.pass_points(spec, (Node(0, 1), Node(3, 2)), [1.0], cfg) == math.inf


def test_a_search_whose_row_curvature_overflows_is_refused(monkeypatch):
    # at gamma = 1e154 the product's W2(g) = g^2 W2_site sum|q| + ...
    # overflows and certifies a step of 0, while at this horizon both
    # factor passes are small; the search divided by the step. The
    # refusal comes before both passes, 447 049 points at this horizon
    spec = make_spec(8, "closed", "closed", gamma=1e154)
    cfg = ScanConfig(horizon=1e-150, coarse_step=1e-150)
    pair = (Node(0, 1), Node(4, 1))
    passes = count_grid_points(monkeypatch)
    for search in (find_pst_times, tau_min):
        with pytest.raises(ValueError, match="^a row's curvature W2"):
            search(spec, *pair, cfg)
    with pytest.raises(ValueError, match="^a row's curvature W2"):
        gamma_sweep(spec, pair, [1.0, 1e154], cfg)
    assert passes == []
    assert scan.pass_points(spec, pair, [1e154], cfg) == math.inf
    assert scan.pass_points(spec, pair, [1e150], cfg) < 1e6


def test_a_search_whose_grid_counts_are_not_finite_is_refused_naming_the_value(monkeypatch):
    # an infinite or nan g, or a horizon whose site pass max|g| (horizon
    # + step) overflows, gives a point count no int holds, and a nan past
    # the first g no max|g| sees: each is refused by name before any pass
    template = make_spec(8, "closed", "closed", gamma=1.0)
    passes = count_grid_points(monkeypatch)
    for grid, value in (([math.inf], "inf"), ([-math.inf], "-inf"), ([math.nan, 1.0], "nan"),
                        ([1.0, math.nan], "nan")):
        with pytest.raises(ValueError, match=f"^each g of a sweep must be finite, got {value}$"):
            gamma_sweep(template, PAIR8, grid, ScanConfig())
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=1e308, coarse_step=1e300)
    for search in (find_pst_times, tau_min):
        with pytest.raises(ValueError, match=re.escape("horizon 1e+308 at step 1e+300 and |g| up "
                                                       "to 3 needs grid point counts")):
            search(spec, *PAIR8, cfg)
    assert passes == []


@pytest.mark.parametrize("search", ["find_pst_times", "tau_min", "gamma_sweep"])
def test_a_search_spreads_each_factor_once(search, monkeypatch):
    # the pass steps, the row steps and the windows all read the two
    # factors' W2 from one evaluation of each one's cached spread
    calls = []
    real = Factor.spread.func

    def spy(factor):
        calls.append(len(factor.values))
        return real(factor)

    monkeypatch.setattr(Factor.spread, "func", spy)
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    if search == "gamma_sweep":
        gamma_sweep(make_spec(8, "closed", "closed", gamma=1.0), PAIR8, [0.5, 3.0, 5.0],
                    ScanConfig())
    else:
        {"find_pst_times": find_pst_times, "tau_min": tau_min}[search](spec, *PAIR8, ScanConfig())
    assert len(calls) == 2


def test_gamma_sweep_at_zero_and_negative_gamma():
    # at gamma = 0 the site factor stays at delta_{n m}, so a row is the
    # channel factor's own scan; p_site is even in gamma
    template = make_spec(8, "closed", "closed", gamma=1.0)
    cfg = ScanConfig(horizon=20.0, epsilon=5e-3)
    _, frozen = make_decomp(8, "closed", "closed", gamma=0.0)
    for pair in ((Node(0, 1), Node(0, 1)), (Node(3, 2), Node(3, 3)), PAIR8):
        rows = gamma_sweep(template, pair, [0.0, -3.0, 3.0], cfg)
        want = grid_pst_times(frozen, *pair, replace(cfg, coarse_step=rows[0].step), True)
        assert rows[0].tau_min == pytest.approx((want or [None])[0], abs=REFINE_XTOL)
        assert rows[1].tau_min == rows[2].tau_min
    assert rows[0].tau_min is None and rows[2].tau_min == pytest.approx(12.576181, abs=5e-4)


def certified_windows(factor, extent: float, epsilon: float):
    """scan._windows of a factor's pass over [0, extent] at its certified step."""
    step = scan._step_for(factor.spread[0], epsilon, extent)
    return scan._windows(factor, extent, step, epsilon)


def test_windows_hold_a_peak_between_two_samples():
    # A = a cos x: W2 = a and |A''| = a at each peak, so the chord bound is
    # tight there. With a = sqrt(thr) + gap / 2 every peak clears thr but a
    # sample half a pass step away does not; the many peaks k pi fall at
    # every offset from the pass grid, some near the middle of a step
    epsilon = 1e-3
    thr = 1 - 2 * epsilon
    a = math.sqrt(thr) + (math.sqrt(1 - epsilon) - math.sqrt(thr)) / 2
    starts, ends = certified_windows(Factor(np.array([-1.0, 1.0]), np.array([a / 2, a / 2])),
                                     2000.0, epsilon)
    x = np.linspace(0.0, 2000.0, 400_001)
    hot = x[(a * np.cos(x)) ** 2 >= thr]
    k = np.searchsorted(starts, hot, side="right") - 1
    assert len(hot) > 1000 and np.all((k >= 0) & (hot <= ends[k]))


def _dense_factor_p(H: np.ndarray, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """|<b| exp(-i H x) |a>|^2 of a small chain from its dense eigensystem."""
    values, vectors = np.linalg.eigh(H)
    return np.abs(np.exp(-1j * np.outer(x, values)) @ (vectors[a] * vectors[b])) ** 2


@pytest.mark.parametrize("site_bc", ["closed", "open"])
@pytest.mark.parametrize("channel_bc", ["closed", "open"])
def test_windows_hold_every_point_where_the_factor_reaches_the_threshold(site_bc, channel_bc):
    # seeded pairs at N <= 12; each factor on a grid far finer than its
    # window pass (a pass step is 0.02-0.08 here), from the dense
    # eigensystem of its own chain rather than the folded closed forms
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 40.0, 20_001)
    hot_points = 0
    for _ in range(6):
        N = int(rng.integers(3, 13))
        a, b = (Node(int(rng.integers(N)), int(rng.integers(1, 4))) for _ in range(2))
        site, chan = pair_factors(make_spec(N, site_bc, channel_bc, gamma=1.0), a, b)
        for factor, H, i, j in (
            (site, ring_hamiltonian(N, 1.0, closed=site_bc == "closed"), a.n, b.n),
            (chan, channel_hamiltonian(1.0, closed=channel_bc == "closed"), a.alpha - 1,
             b.alpha - 1),
        ):
            p = _dense_factor_p(H, i, j, x)
            for epsilon in (1e-3, 0.02, 0.1):
                starts, ends = certified_windows(factor, x[-1], epsilon)
                assert np.all(starts <= ends) and np.all(starts[1:] > ends[:-1])
                hot = x[p >= 1 - 2 * epsilon]
                k = np.searchsorted(starts, hot, side="right") - 1
                assert np.all((k >= 0) & (hot <= ends[k])), (N, a, b, epsilon)
                hot_points += len(hot)
    assert hot_points > 1000


def test_range_scan_decides_edge_candidates_as_the_full_scan(monkeypatch):
    # synthetic p on three rows at their own steps: at most thr outside the
    # ranges, around thr inside them with flat pairs. A range may start or
    # end at a candidate, next to a block edge, the grid's ends and the
    # gaps, and the rows' blocks end at other points; with -inf around
    # each range, every row must find the brackets its full scan finds
    cfg = ScanConfig(horizon=20.0)
    h = np.array([cfg.coarse_step, cfg.coarse_step / 2, cfg.coarse_step * 1.5])
    counts = [grid_count(cfg.horizon, step) for step in h]
    thr = 1.0 - 2.0 * cfg.epsilon
    rng = np.random.default_rng(8)
    p, ranges = [], []
    for count in counts:
        q = rng.uniform(0.0, thr, size=count)
        lo = np.arange(0, count, 173)
        hi = np.minimum(lo + rng.integers(0, 2 * ROOT + 32, size=len(lo)), count - 1)
        hi[-1] = count - 1
        for a, b in zip(lo, hi):
            q[a:b + 1] = rng.uniform(thr - 1e-3, 1.0, size=b - a + 1)
            for at in (a + 2, a + ROOT):
                if b > at:
                    q[at] = q[at - 1]
        p.append(q)
        ranges.append((lo, hi))
    brackets = []

    def stub_golden(p_of, rows, a, b):
        brackets.extend(zip(rows.tolist(), a.tolist(), b.tolist()))
        return (a + b) / 2, np.ones(len(a))

    monkeypatch.setattr(scan, "_golden", stub_golden)

    def p_of(rows, t):
        return np.array([p[r][round(x / h[r])] for r, x in zip(rows.tolist(), t.tolist())])

    def per_row(lo, hi):
        row = np.repeat(np.arange(len(h)), [len(x) for x in lo])
        brackets.clear()
        scan._lockstep(p_of, row, np.concatenate(lo), np.concatenate(hi), h, cfg, False, 1)
        return [[(a, b) for r, a, b in brackets if r == k] for k in range(len(h))]

    full = per_row([[0] for _ in counts], [[count - 1] for count in counts])
    assert all(len(f) > len(lo) for f, (lo, _) in zip(full, ranges))
    assert per_row(*zip(*ranges)) == full


def test_window_pass_memory_does_not_grow_with_the_pass():
    site, _ = pair_factors(make_spec(8, "closed", "closed", gamma=1.0), *PAIR8)
    tracemalloc.start()
    try:
        starts, ends = certified_windows(site, 100_000.0, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(starts) > 100
    # over two million samples: their values alone would take 17 MB; the
    # blocks and the windows need well under 2 MB
    assert peak < 2 << 20


def test_L0_sweep_rows_do_not_depend_on_the_template_J():
    # sweep --J-grid builds its template at the grid's first value; the
    # rows read only the pair's factors, the site one in units of J
    N, site, channel, pair = FIGURES["fig2"]
    grid = parse_grid("-2:2:0.25")  # through J = 0
    cfg = ScanConfig(horizon=100.0)
    rows = [gamma_sweep(make_spec(N, site, channel, J=J, L=0.0), pair, grid, cfg)
            for J in (1.0, 0.5, -3.0)]
    assert rows[0] == rows[1] == rows[2]
    assert [r.parameter for r in rows[0]] == grid
    assert sum(r.tau_min is not None for r in rows[0]) >= 8


def test_coupling_sweep_L0_decoupled_channels():
    rows = gamma_sweep(make_spec(8, "closed", "closed", J=1.0, L=0.0), PAIR8, [1.0, 2.0],
                       ScanConfig(horizon=200.0))
    assert rows[0].tau_min == pytest.approx(91.0926, abs=1e-3)
    # doubling J halves the arrival time
    assert rows[0].tau_min == pytest.approx(2.0 * rows[1].tau_min, rel=1e-6)


@pytest.mark.parametrize("fig", list(FIGURES))
def test_coupling_sweep_L0_matches_per_J_scans(fig):
    # the windowed sweep against the full-grid reference per J at the
    # row's certified step, on the figure's J grid (reproduce's 0.5:20:0.05)
    N, site, channel, pair = FIGURES[fig]
    template = make_spec(N, site, channel, J=1.0, L=0.0)
    grid = parse_grid("0.5:20:0.05")
    cfg = ScanConfig()
    rows = gamma_sweep(template, pair, grid, cfg)
    _check_rows_against_full_scans(
        rows, grid, lambda J: (*make_decomp(N, site, channel, J=J, L=0.0), pair), cfg)


def test_coupling_sweep_L0_sign_of_J_and_zero():
    template = make_spec(8, "closed", "closed", J=1.0, L=0.0)
    rows = gamma_sweep(template, PAIR8, [-2.0, 0.0, 2.0], ScanConfig(horizon=100.0))
    assert rows[0].tau_min == rows[2].tau_min == pytest.approx(91.0926 / 2, abs=1e-3)
    # J = 0 has no dynamics: no transfer between distinct nodes, and the
    # trivial event at 0 for a node onto itself
    assert rows[1].tau_min is None
    [self_row] = gamma_sweep(template, (PAIR8[0], PAIR8[0]), [0.0], ScanConfig())
    assert self_row.tau_min == pytest.approx(0.0, abs=1e-6)


def test_L0_dynamics_match_single_ring(rng):
    spec, decomp = make_decomp(8, "closed", "closed", J=2.0, L=0.0)
    ring = ring_hamiltonian(8, 2.0, closed=True)
    for t in rng.uniform(0.0, 20.0, size=20):
        U = series_expm(ring, float(t))
        for j in (1, 4, 6):
            p_net = transition_probability(decomp, Node(0, 2), Node(j, 2), float(t))
            assert p_net == pytest.approx(abs(U[j, 0]) ** 2, abs=1e-10)


def test_L0_no_cross_channel_leakage(rng):
    _, decomp = make_decomp(6, "closed", "closed", J=1.5, L=0.0)
    for t in rng.uniform(0.0, 20.0, size=10):
        assert transition_probability(decomp, Node(0, 1), Node(3, 2), float(t)) == pytest.approx(0.0, abs=1e-12)


def test_find_pst_times_rejects_coincident_pair_threshold():
    # input equals output: tau = 0 is a trivial event and must be reported
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(spec, Node(0, 1), Node(0, 1), ScanConfig(horizon=5.0))
    assert times and times[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_chunked_scan_matches_reference_scan(case):
    # the windowed search against the dense reference over the whole grid
    # at the step the search certified for this network
    spec, decomp, pair, cfg = EQUIVALENCE_CASES[case]()
    times = find_pst_times(spec, *pair, cfg)
    [(_, h, same)] = scan._sweep(*pair_factors(spec, *pair), [spec.couplings.effective()[0]],
                                 cfg, first_only=False)
    assert same == times and h <= cfg.coarse_step
    want = reference_pst_times(decomp, *pair, replace(cfg, coarse_step=h))
    assert times == pytest.approx(want, abs=REFINE_XTOL) and len(times) == len(want)
    assert tau_min(spec, *pair, cfg) == (times or [None])[0]
    if case == "one-group-plateau":
        # refined once, from its first point; golden section on a constant
        # closes in on the bracket's left end
        assert len(times) == 1 and 0.0 <= times[0] < 1e-6
    elif case == "peak-at-horizon":
        assert times == [cfg.horizon]
    elif case.startswith("peak-at"):
        index = CHUNK - 1 if case == "peak-at-CHUNK-1" else CHUNK
        assert abs(times[0] - index * cfg.coarse_step) < cfg.coarse_step / 2
    elif case.startswith("raw-J0.0"):
        # the 3-path's end-to-end transfer times (2k + 1) pi / sqrt 2
        assert times[:2] == pytest.approx([math.pi / math.sqrt(2), 3 * math.pi / math.sqrt(2)])


def test_tau_min_stops_at_first_event(monkeypatch):
    spec, _, pair, cfg = _figure_case("fig2", J=20.0)
    grid_points = len(np.arange(0.0, cfg.horizon + 0.5 * cfg.coarse_step, cfg.coarse_step))
    assert grid_points == 800_001
    points = count_range_points(monkeypatch)
    first = tau_min(spec, *pair, cfg)
    assert first is not None and first < 5.0
    read_first = sum(points)
    points.clear()
    times = find_pst_times(spec, *pair, cfg)
    assert 0 < read_first < sum(points) / 10 and sum(points) < grid_points / 10
    assert first == times[0] and len(times) > 10


def test_golden_pass_equals_the_scalar_reference_per_bracket():
    # each bracket of one vectorised pass against the scalar golden section
    # on the same p: brackets of many widths on four sweep rows, a constant
    # p (a tie, which picks the midpoint), and brackets near t = 1e11, where
    # b - a cannot shrink to REFINE_XTOL and the step cap ends the search
    site, chan = pair_factors(make_spec(8, "closed", "closed", gamma=1.0), *PAIR8)
    # four sweep rows, and a fifth frozen in both factors
    scale = np.array([0.5, 3.0, 14.5, 0.0, 0.0])

    def p_of(rows, t):
        return (transfer.probability_at(site, scale[rows] * t)
                * transfer.probability_at(chan, np.where(rows == 4, 0.0, t)))

    rng = np.random.default_rng(5)
    rows = np.concatenate((rng.integers(0, 4, 40), [4, 4, 0, 2]))
    a = np.concatenate((rng.uniform(0.0, 200.0, 40), [0.0, 3.0, 1e11, 1e11 + 1.0]))
    b = a + np.concatenate((rng.uniform(0.0, 0.02, 40), [0.01, 2e-6, 0.01, 0.005]))
    t, p = scan._golden(p_of, rows, a.copy(), b.copy())
    for k, r in enumerate(rows.tolist()):
        want = _reference_golden_max(lambda x: float(p_of(np.array([r]), np.array([x]))[0]),
                                     a[k], b[k], scan.REFINE_ITERS)
        assert (t[k], p[k]) == want, k


def test_tau_min_keeps_the_higher_of_two_merged_first_peaks(monkeypatch):
    # p = (1 + cos(pi t / h)) / 2 has grid candidates at every even index;
    # the stub refinement puts the first one at 0.8 h and every later one
    # 0.3 h into its bracket, so the second lands 0.5 h after the first,
    # higher, and must replace it, in the first-event scan too; three rows
    # at their own steps are searched at once
    h = np.array([0.1, 0.05, 0.2])
    cfg = ScanConfig(horizon=20 * h.max(), coarse_step=h.max(), epsilon=1e-3)

    def stub_golden(p_of, rows, a, b):
        first = a == 0.0
        return (np.where(first, b - 0.2 * h[rows], a + 0.3 * h[rows]),
                np.where(first, 1.0 - 5e-4, 1.0 - 1e-4))

    monkeypatch.setattr(scan, "_golden", stub_golden)

    def search(first_only):
        return scan._lockstep(lambda rows, t: (1 + np.cos(np.pi * t / h[rows])) / 2,
                              np.arange(3), np.zeros(3, dtype=int), np.full(3, 20), h, cfg,
                              first_only, 1)

    times, firsts = search(False), search(True)
    for step, row, first in zip(h, times, firsts):
        assert row[:2] == [pytest.approx(1.3 * step), pytest.approx(3.3 * step)]
        assert first[0] == row[0]


def test_lockstep_refines_a_block_in_one_golden_pass(monkeypatch):
    # p = (1 + cos(pi t / h)) / 2 peaks at every even index, all of one
    # block; the first-event scan refines them all in one pass and then
    # keeps the first two (the second decides that the first is final),
    # as the full scan keeps all eleven
    h = np.array([0.1, 0.05, 0.2])
    cfg = ScanConfig(horizon=20 * h.max(), coarse_step=h.max(), epsilon=1e-3)
    golden = scan._golden
    calls = []

    def counted(p_of, rows, a, b):
        calls.append(len(rows))
        return golden(p_of, rows, a, b)

    monkeypatch.setattr(scan, "_golden", counted)

    def search(first_only):
        calls.clear()
        times = scan._lockstep(lambda rows, t: (1 + np.cos(np.pi * t / h[rows])) / 2,
                               np.arange(3), np.zeros(3, dtype=int), np.full(3, 20), h, cfg,
                               first_only, 1)
        return times, list(calls)

    (times, every), (firsts, once) = search(False), search(True)
    assert every == once == [33]
    for step, row, first in zip(h, times, firsts):
        assert row == pytest.approx(2 * step * np.arange(11), abs=1e-6)
        assert first == row[:2]


def test_first_only_row_stops_reading_once_settled():
    # one peak of p at t = 1, then p below thr over the rest of one long
    # range: with first_only the row stops after the block that refined
    # its event, although no later candidate comes to settle it
    cfg = ScanConfig(horizon=100.0, coarse_step=0.01)
    count = grid_count(cfg.horizon, cfg.coarse_step)
    read = []

    def p_of(rows, t):
        read.append(len(t))
        return np.exp(-((t - 1.0) ** 2))

    def search(first_only):
        read.clear()
        [times] = scan._lockstep(p_of, np.array([0]), np.array([0]), np.array([count - 1]),
                                 np.array([cfg.coarse_step]), cfg, first_only, 1)
        return times, sum(read)

    (times, full), (first, few) = search(False), search(True)
    assert times == first == [pytest.approx(1.0, abs=REFINE_XTOL)]
    assert full > count and few < count / 20


def test_first_only_row_settles_on_a_block_that_ends_between_its_ranges():
    # one row of two ranges, the first of ROOT - 2 points: the first block
    # reads the -inf before it, its points and the -inf after it, so its
    # last column is no point. The event at t = 0.1 settles the row from
    # the last point the block read, and the second range is never read
    h, second = 0.01, (1000, 1100)
    cfg = ScanConfig(horizon=100.0, coarse_step=h)
    asked = []

    def p_of(rows, t):
        asked.extend(t.tolist())
        return np.exp(-(((t - 0.1) / h) ** 2))

    [first] = scan._lockstep(p_of, np.array([0, 0]), np.array([0, second[0]]),
                             np.array([ROOT - 3, second[1]]), np.array([h]), cfg, True, 1)
    assert first == [pytest.approx(0.1, abs=REFINE_XTOL)]
    asked = np.array(asked)
    # the first range's points and the refinement's, none of the second's
    assert np.count_nonzero(asked >= second[0] * h) == 0
    assert len(asked) < ROOT + 50


def test_tau_min_without_event_reads_only_the_factor_passes(monkeypatch):
    # open/open N=5 at gamma = 4 never comes near 1 - 2 epsilon: the search
    # reads the two factor passes, within their bound, and at most a few
    # points of the product
    weak = make_spec(5, "open", "open", gamma=4.0)
    pair, cfg = (Node(0, 1), Node(4, 1)), ScanConfig(horizon=200.0)
    passes = count_grid_points(monkeypatch)
    points = count_range_points(monkeypatch)
    assert tau_min(weak, *pair, cfg) is None
    assert 0 < sum(passes) <= scan.pass_points(weak, pair, [4.0], cfg) + 2
    assert sum(points) < grid_count(cfg.horizon, cfg.coarse_step) / 100


def test_scan_memory_does_not_grow_with_the_grid():
    spec, decomp = make_decomp(8, "open", "open", gamma=2.7)
    assert len(decomp) == 24
    cfg = ScanConfig(horizon=2000.0, epsilon=1e-3)
    tracemalloc.start()
    try:
        find_pst_times(spec, Node(0, 1), Node(7, 3), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (points x groups) complex array would take 400 001 * 24 * 16 B,
    # 146 MiB; the passes' blocks and the windows need a few MiB
    assert peak < 400_001 * len(decomp) * 16 // 20


def test_large_gamma_sweep_memory_stays_within_the_block_budget():
    # N=150 open/open: 153 factor terms per row over 391 rows. The
    # end-to-end pair has no event; onto itself, every row reads and
    # refines its trivial event at 0, all rows in each block and round
    template = make_spec(150, "open", "open", gamma=1.0)
    grid = parse_grid("0.5:20:0.05")
    for pair in ((Node(0, 1), Node(149, 1)), (Node(0, 1), Node(0, 1))):
        tracemalloc.start()
        try:
            rows = gamma_sweep(template, pair, grid, ScanConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an evaluation holds at most BLOCK_TERMS points x terms: values,
        # their products with t and the complex phases, 2 MiB in all; the
        # golden pass reads its last three points of every row in three
        # calls, as one call would take 1173 x 153 x 32 B, 5.5 MiB
        assert peak < 4 << 20, pair
    assert [r.tau_min for r in rows] == pytest.approx([0.0] * len(grid), abs=REFINE_XTOL)


# gamma(m, k) of each exact case, one per ratio (2m+1)/k
EXACT_GAMMAS = [(m, k) for m in range(3) for k in (1, 2, 3) if math.gcd(2 * m + 1, k) == 1]


@pytest.mark.parametrize("case", sorted(EXACT_PST))
def test_pst_times_are_exactly_the_events_of_the_factor_progressions(case):
    # p = 1 exactly where both factors' progressions meet (oracles.ExactPST);
    # at epsilon = 1e-9 a time off them would have to come within about
    # 1e-5 of a progression of each. The 3-path meets no progression at
    # even k, which predicts no event at all.
    net = EXACT_PST[case]
    cfg = ScanConfig(horizon=200.0, epsilon=1e-9)
    for m, k in EXACT_GAMMAS:
        spec = make_spec(net.N, net.site_bc, net.channel_bc, gamma=net.gamma(m, k))
        want = net.events(m, k, cfg.horizon)
        for t in want:
            assert product_rule_probability(spec, *net.pair, t) == pytest.approx(1.0, abs=1e-10)
        got = find_pst_times(spec, *net.pair, cfg)
        assert len(got) == len(want), (m, k)
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-6, (m, k)


def test_a_near_miss_of_an_exact_gamma_has_no_event():
    # gamma = 3/4 + 1e-3 on C4 x triangle: at tau = 2 pi/3 the site factor
    # misses 1 by about 9e-6, an event at epsilon = 1e-4 but not at 1e-9
    net = EXACT_PST["C4-triangle"]
    spec = make_spec(net.N, net.site_bc, net.channel_bc, gamma=0.751)
    assert find_pst_times(spec, *net.pair, ScanConfig(horizon=200.0, epsilon=1e-9)) == []
    near = find_pst_times(spec, *net.pair, ScanConfig(horizon=200.0, epsilon=1e-4))
    assert near[0] == pytest.approx(2 * math.pi / 3, abs=1e-2)


def test_a_site_factor_whose_supremum_is_three_quarters_caps_every_gamma():
    # C6 antipodes reach at most 3/4 (acceptance criterion 5), so no gamma
    # gives an event at 1 - epsilon = 0.8; at 0.7 most rows have one
    template = make_spec(6, "closed", "closed", gamma=1.0)
    pair = (Node(0, 1), Node(3, 1))
    grid = parse_grid("0.5:10.25:0.25")
    rows = gamma_sweep(template, pair, grid, ScanConfig(epsilon=0.2))
    assert len(rows) == 40 and all(r.tau_min is None for r in rows)
    rows = gamma_sweep(template, pair, grid, ScanConfig(epsilon=0.3))
    assert sum(r.tau_min is not None for r in rows) == 33
