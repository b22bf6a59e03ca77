import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_grid_points, make_decomp, make_spec
from helix_pst import scan
from helix_pst import (
    Node,
    ScanConfig,
    coupling_sweep_L0,
    find_pst_times,
    flat_index,
    gamma_sweep,
    grid_count,
    tau_min,
    transition_probability,
)
from helix_pst.cli import parse_grid
from helix_pst.scan import REFINE_XTOL
from helix_pst.transfer import CHUNK, ROOT
from oracles import reference_pst_times, ring_hamiltonian, series_expm

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
        _, decomp = make_decomp(N, site, channel, gamma=gamma)
    else:
        # the coupling sweep's rescaled step
        _, decomp = make_decomp(N, site, channel, J=J, L=0.0)
        cfg = replace(cfg, coarse_step=cfg.coarse_step / J)
    return decomp, pair, cfg


def _one_group_case():
    # no coupling: a single group at eigenvalue 0 with unit overlap, so
    # p(t) == 1.0 exactly, a plateau over all 10 001 grid points, about
    # 2.4 chunks
    _, decomp = make_decomp(3, "closed", "closed", J=0.0, L=0.0)
    return decomp, (Node(0, 1), Node(0, 1)), ScanConfig(horizon=50.0)


def _chunk_edge_case(index):
    # fig2 at gamma = 3 peaks near 12.576181; this step puts the grid point
    # nearest the peak at `index`
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    return decomp, PAIR8, ScanConfig(horizon=30.0, coarse_step=12.576181 / index, epsilon=5e-3)


def _horizon_edge_case():
    # the horizon stops 1.2e-3 before fig2's gamma = 3 peak: p still rises
    # at the last grid point, which counts as a boundary maximum
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    return decomp, PAIR8, ScanConfig(horizon=12.575, epsilon=5e-3)


EQUIVALENCE_CASES = {
    **{f"{fig}-gamma{g}": (lambda f=fig, g=g: _figure_case(f, gamma=g))
       for fig in FIGURES for g in EQUIV_GAMMAS},
    **{f"{fig}-L0-J{J}": (lambda f=fig, J=J: _figure_case(f, J=J))
       for fig in FIGURES for J in EQUIV_J},
    "one-group-plateau": _one_group_case,
    "peak-at-CHUNK-1": lambda: _chunk_edge_case(CHUNK - 1),
    "peak-at-CHUNK": lambda: _chunk_edge_case(CHUNK),
    "peak-at-horizon": _horizon_edge_case,
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
    with pytest.raises(ValueError):
        ScanConfig(refine_iters=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            ScanConfig(horizon=bad)
        with pytest.raises(ValueError, match="coarse_step"):
            ScanConfig(coarse_step=bad)


def test_find_pst_times_frozen_gamma3():
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(decomp, *PAIR8, ScanConfig(horizon=150.0, epsilon=5e-3))
    assert times == pytest.approx([12.576181, 73.305511, 134.034843], abs=5e-4)


def test_find_pst_times_frozen_gamma5():
    _, decomp = make_decomp(8, "closed", "closed", gamma=5.0)
    times = find_pst_times(decomp, *PAIR8, ScanConfig(horizon=150.0, epsilon=1e-3))
    assert times == pytest.approx([43.983376, 131.950128], abs=5e-4)


def test_find_pst_times_tap_sees_every_block_once():
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=150.0, epsilon=5e-3)
    seen = []

    def tap(blocks):
        for block in blocks:
            seen.append(block)
            yield block

    assert find_pst_times(decomp, *PAIR8, cfg, tap=tap) == find_pst_times(decomp, *PAIR8, cfg)
    p = np.concatenate(seen)
    assert len(p) == grid_count(150.0, cfg.coarse_step)
    for i in (0, 1, CHUNK, len(p) - 1):
        assert p[i] == pytest.approx(
            transition_probability(decomp, *PAIR8, i * cfg.coarse_step), abs=1e-12)


def test_returned_times_are_refined_local_maxima():
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(decomp, *PAIR8, ScanConfig(horizon=150.0, epsilon=5e-3))
    for t in times:
        p_star = transition_probability(decomp, *PAIR8, t)
        assert p_star >= transition_probability(decomp, *PAIR8, t - 1e-4) - 1e-9
        assert p_star >= transition_probability(decomp, *PAIR8, t + 1e-4) - 1e-9


def test_tau_min_matches_first_event_and_none_when_absent():
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=150.0, epsilon=5e-3)
    assert tau_min(decomp, *PAIR8, cfg) == pytest.approx(12.576181, abs=5e-4)
    # open/open at gamma = 4 never exceeds 0.98 on this horizon
    _, weak = make_decomp(5, "open", "open", gamma=4.0)
    assert tau_min(weak, Node(0, 1), Node(4, 1), ScanConfig(horizon=200.0)) is None


def test_epsilon_threshold_filters_peaks():
    # the recurrence near tau = 48.15 tops out around 0.992
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    loose = find_pst_times(decomp, *PAIR8, ScanConfig(horizon=60.0, epsilon=1e-2))
    tight = find_pst_times(decomp, *PAIR8, ScanConfig(horizon=60.0, epsilon=5e-3))
    assert any(abs(t - 48.15) < 0.1 for t in loose)
    assert not any(abs(t - 48.15) < 0.1 for t in tight)


def test_time_scale_covariance():
    # doubling both couplings halves every transfer time
    _, slow = make_decomp(8, "closed", "closed", J=3.0, L=1.0)
    _, fast = make_decomp(8, "closed", "closed", J=6.0, L=2.0)
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


@pytest.mark.parametrize("fig", list(FIGURES))
def test_gamma_sweep_matches_per_gamma_scans(fig, monkeypatch):
    # the windowed sweep against a full-grid tau_min per gamma, on the
    # figure's gamma grid (reproduce's 0.5:20:0.05). A row in a block of
    # another shape may round differently in the last bit, so equality
    # holds where no candidate comparison is that close, as on these grids
    N, site, channel, pair = FIGURES[fig]
    grid = parse_grid("0.5:20:0.05")
    cfg = ScanConfig()
    sizes = count_grid_points(monkeypatch)
    rows = gamma_sweep(make_spec(N, site, channel, gamma=1.0), pair, grid, cfg)
    # the channel pass and every gamma's rows: under a quarter of the
    # points of one full scan per gamma
    assert sum(sizes) <= len(grid) * grid_count(cfg.horizon, cfg.coarse_step) / 4
    assert [r.parameter for r in rows] == grid
    for row, gamma in zip(rows, grid):
        _, decomp = make_decomp(N, site, channel, gamma=gamma)
        assert row.tau_min == tau_min(decomp, *pair, cfg), gamma


def test_gamma_sweep_reads_no_row_where_the_channel_factor_stays_low(monkeypatch):
    # closed triangle, channel 1 -> 2: p_chan = (2 - 2 cos 3 tau) / 9 <= 4/9
    template = make_spec(8, "closed", "closed", gamma=1.0)
    pair = (Node(0, 1), Node(4, 2))
    cfg = ScanConfig()
    sizes = count_grid_points(monkeypatch)
    rows = gamma_sweep(template, pair, [0.5, 3.0, 14.5], cfg)
    assert [r.tau_min for r in rows] == [None, None, None]
    # one pass over the grid, the channel factor's; no network row at all
    assert sum(sizes) == grid_count(cfg.horizon, cfg.coarse_step)


def test_gamma_sweep_rejects_a_node_off_the_network_before_any_grid_pass(monkeypatch):
    template = make_spec(8, "closed", "closed", gamma=1.0)
    sizes = count_grid_points(monkeypatch)
    with pytest.raises(ValueError, match="out of range"):
        gamma_sweep(template, (Node(0, 1), Node(8, 1)), [3.0], ScanConfig())
    assert sizes == []


def test_gamma_sweep_scans_every_row_where_grouping_error_exceeds_the_margin(monkeypatch):
    # fig2's groups join four labels (ring modes k, N - k times the two
    # tied triangle modes), so E = horizon * 3 * 1e-8 * radius: over 1000
    # time units 2E fits under WINDOW_MARGIN at gamma = 3 (radius 8) but
    # not at 14.5 or 19.5 (radius 31 and 41)
    N, site, channel, pair = FIGURES["fig2"]
    cfg = ScanConfig(horizon=1000.0)
    picked = []
    real = scan._scan

    def spy(*args, rows=None, **kwargs):
        picked.append(rows)
        return real(*args, rows=rows, **kwargs)

    monkeypatch.setattr(scan, "_scan", spy)
    grid = [3.0, 14.5, 19.5]
    rows = gamma_sweep(make_spec(N, site, channel, gamma=1.0), pair, grid, cfg)
    assert [p is None for p in picked] == [False, True, True]
    for row, gamma in zip(rows, grid):
        _, decomp = make_decomp(N, site, channel, gamma=gamma)
        assert row.tau_min == tau_min(decomp, *pair, cfg), gamma


@pytest.mark.parametrize("channel, p_chan", [
    ("closed", lambda tau: (5.0 + 4.0 * np.cos(3.0 * tau)) / 9.0),  # triangle, 1 -> 1
    ("open", lambda tau: np.cos(tau / math.sqrt(2.0)) ** 4),  # 3-path, 1 -> 1
])
def test_channel_rows_are_the_rows_where_p_chan_can_reach_the_threshold(channel, p_chan):
    cfg = ScanConfig()
    count = grid_count(cfg.horizon, cfg.coarse_step)
    tau = cfg.coarse_step * np.arange(-(-count // ROOT) * ROOT)
    peak = np.where(np.arange(len(tau)) < count, p_chan(tau), 0.0).reshape(-1, ROOT).max(axis=1)
    floor = 1.0 - 2.0 * cfg.epsilon - scan.WINDOW_MARGIN
    rows = scan._channel_rows(make_spec(8, "closed", channel, gamma=1.0), PAIR8, cfg)
    clear = np.abs(peak - floor) > 1e-12
    assert np.array_equal(np.isin(np.arange(len(peak)), rows)[clear], (peak > floor)[clear])


def test_row_scan_decides_edge_candidates_as_the_full_scan(monkeypatch):
    # synthetic p through tap: below thr inside the rows and in skipped
    # rows, above it at both ends of every picked row. Each picked row
    # ends on a rise, and the next one opens above or below that end, so
    # the candidates on either side of a skipped row, of adjacent rows, of
    # a block edge and of the horizon all turn on their neighbours
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    cfg = ScanConfig(horizon=400 * ROOT * 0.005 - 0.05)
    count = grid_count(cfg.horizon, cfg.coarse_step)
    thr = 1.0 - 2.0 * cfg.epsilon
    picked = np.flatnonzero(np.arange(-(-count // ROOT)) % 3 != 1)
    assert len(picked) > 4 * ROOT and picked[-1] == (count - 1) // ROOT
    p = np.random.default_rng(8).uniform(0.0, thr, size=-(-count // ROOT) * ROOT)
    d = (1.0 - thr) / 4
    for r in picked:
        p[ROOT * r:ROOT * r + 2] = thr + (3 * d if r // 3 % 2 else 1.5 * d), thr + d
        p[ROOT * r + ROOT - 2:ROOT * r + ROOT] = thr + d, thr + 2 * d
    p = p[:count]
    brackets = []

    def stub_golden(p_of, a, b, max_iters):
        brackets.append((a, b))
        return (a + b) / 2, 1.0

    monkeypatch.setattr(scan, "_golden_max", stub_golden)

    def candidates(rows):
        values = p if rows is None else np.concatenate([p[ROOT * r:ROOT * r + ROOT] for r in rows])
        tap = lambda blocks: iter(np.split(values, range(CHUNK, len(values), CHUNK)))
        brackets.clear()
        scan._scan(decomp, *PAIR8, cfg, first_only=False, tap=tap, rows=rows)
        return list(brackets)

    full = candidates(None)
    assert len(full) > len(picked)
    assert candidates(picked) == full


def test_channel_rows_memory_is_linear_in_the_row_count():
    template = make_spec(8, "closed", "closed", gamma=1.0)
    cfg = ScanConfig(horizon=50_000.0)
    count = grid_count(cfg.horizon, cfg.coarse_step)
    assert count == 10_000_001
    tracemalloc.start()
    try:
        rows = scan._channel_rows(template, PAIR8, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < len(rows) < count / ROOT / 4
    # a flag per row, the kept row numbers and one block's arrays; p_chan
    # over the whole grid would take 80 MB
    assert peak < 16 * count / ROOT


def test_coupling_sweep_L0_decoupled_channels():
    rows = coupling_sweep_L0(
        8,
        make_spec(8, "closed", "closed", J=1.0, L=0.0).bc,
        PAIR8,
        [1.0, 2.0],
        ScanConfig(horizon=200.0),
    )
    assert rows[0].tau_min == pytest.approx(91.0926, abs=1e-3)
    # doubling J halves the arrival time
    assert rows[0].tau_min == pytest.approx(2.0 * rows[1].tau_min, rel=1e-6)


@pytest.mark.parametrize("fig", list(FIGURES))
def test_coupling_sweep_L0_matches_per_J_scans(fig):
    # the one natural-time scan against a tau_min per J at step
    # coarse_step / |J|, on the figure's J grid (reproduce's 0.5:20:0.05)
    N, site, channel, pair = FIGURES[fig]
    bc = make_spec(N, site, channel, J=1.0, L=0.0).bc
    grid = parse_grid("0.5:20:0.05")
    cfg = ScanConfig()
    rows = coupling_sweep_L0(N, bc, pair, grid, cfg)
    assert [r.parameter for r in rows] == grid
    for row, J in zip(rows, grid):
        _, decomp = make_decomp(N, site, channel, J=J, L=0.0)
        want = tau_min(decomp, *pair, replace(cfg, coarse_step=cfg.coarse_step / J))
        assert (row.tau_min is None) == (want is None), J
        if want is not None:
            assert abs(row.tau_min - want) <= REFINE_XTOL, J


def test_coupling_sweep_L0_sign_of_J_and_zero():
    bc = make_spec(8, "closed", "closed", J=1.0, L=0.0).bc
    rows = coupling_sweep_L0(8, bc, PAIR8, [-2.0, 0.0, 2.0], ScanConfig(horizon=100.0))
    assert rows[0].tau_min == rows[2].tau_min == pytest.approx(91.0926 / 2, abs=1e-3)
    # J = 0 has no dynamics: no transfer between distinct nodes, and the
    # trivial event at 0 for a node onto itself
    assert rows[1].tau_min is None
    [self_row] = coupling_sweep_L0(8, bc, (PAIR8[0], PAIR8[0]), [0.0], ScanConfig())
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
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    times = find_pst_times(decomp, Node(0, 1), Node(0, 1), ScanConfig(horizon=5.0))
    assert times and times[0] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_chunked_scan_matches_reference_scan(case):
    decomp, pair, cfg = EQUIVALENCE_CASES[case]()
    times = find_pst_times(decomp, *pair, cfg)
    assert times == reference_pst_times(decomp, *pair, cfg)
    assert tau_min(decomp, *pair, cfg) == (times or [None])[0]
    if case == "one-group-plateau":
        # refined once, from its first point; golden section on a constant
        # closes in on the bracket's left end
        assert len(times) == 1 and 0.0 <= times[0] < 1e-6
    elif case == "peak-at-horizon":
        assert times == [cfg.horizon]
    elif case.startswith("peak-at"):
        index = CHUNK - 1 if case == "peak-at-CHUNK-1" else CHUNK
        assert abs(times[0] - index * cfg.coarse_step) < cfg.coarse_step / 2


def test_tau_min_stops_at_first_event(monkeypatch):
    decomp, pair, cfg = _figure_case("fig2", J=20.0)
    grid_points = len(np.arange(0.0, cfg.horizon + 0.5 * cfg.coarse_step, cfg.coarse_step))
    assert grid_points == 800_001
    sizes = count_grid_points(monkeypatch)
    first = tau_min(decomp, *pair, cfg)
    assert first is not None and first < 5.0
    assert sum(sizes) < grid_points / 10
    sizes.clear()
    times = find_pst_times(decomp, *pair, cfg)
    assert sum(sizes) == grid_points
    assert first == times[0]


def test_tau_min_keeps_the_higher_of_two_merged_first_peaks(monkeypatch):
    # p = (1 + cos(pi t / h)) / 2 has grid candidates at every even index;
    # the stub refinement puts the first one at 0.8 h and every later one
    # 0.3 h into its bracket, so the second lands 0.5 h after the first,
    # higher, and must replace it. Two sites at L = 0 have the two
    # groups -J and J with overlaps 1/2 each, so J = pi / (2 h).
    h = 0.1
    _, decomp = make_decomp(2, "open", "open", J=math.pi / (2 * h), L=0.0)
    pair = (Node(0, 1), Node(0, 1))
    cfg = ScanConfig(horizon=20 * h, coarse_step=h, epsilon=1e-3)

    def stub_golden(p_of, a, b, max_iters):
        if a == 0.0:
            return b - 0.2 * h, 1.0 - 5e-4
        return a + 0.3 * h, 1.0 - 1e-4

    monkeypatch.setattr(scan, "_golden_max", stub_golden)
    times = find_pst_times(decomp, *pair, cfg)
    assert times[:2] == [pytest.approx(1.3 * h), pytest.approx(3.3 * h)]
    assert tau_min(decomp, *pair, cfg) == times[0]


def test_tau_min_without_event_scans_the_whole_grid(monkeypatch):
    _, weak = make_decomp(5, "open", "open", gamma=4.0)
    sizes = count_grid_points(monkeypatch)
    assert tau_min(weak, Node(0, 1), Node(4, 1), ScanConfig(horizon=200.0)) is None
    assert sum(sizes) == 40_001
    assert max(sizes) == CHUNK


def test_scan_memory_does_not_grow_with_the_grid():
    _, decomp = make_decomp(8, "open", "open", gamma=2.7)
    assert len(decomp) == 24
    cfg = ScanConfig(horizon=2000.0, epsilon=1e-3)
    tracemalloc.start()
    try:
        find_pst_times(decomp, Node(0, 1), Node(7, 3), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (points x groups) complex array would take 400 001 * 24 * 16 B,
    # 146 MiB; the blocks need a few MiB
    assert peak < 400_001 * len(decomp) * 16 // 20
