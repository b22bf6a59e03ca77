import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_decomp, make_spec
from helix_pst import (
    Factor,
    Node,
    build_hamiltonian,
    flat_index,
    grid_count,
    probability_chunks,
    transfer_report,
    transition_probability,
)
from helix_pst.transfer import CHUNK, ROOT, factor_chunks
from oracles import (
    block_overlaps,
    dark_predicate_closed_closed,
    eigenpairs_closed_closed_analytic,
    group_eigenpairs,
    p_max_rank1,
    series_expm,
)

TOPOLOGIES = (("closed", "closed"), ("closed", "open"), ("open", "closed"), ("open", "open"))
DIAMETRIC = (Node(0, 1), Node(4, 1))


@pytest.fixture(scope="module")
def ring8():
    return make_decomp(8, "closed", "closed", gamma=3.0)


def test_probability_at_time_zero(ring8):
    _, decomp = ring8
    assert transition_probability(decomp, Node(0, 1), Node(0, 1), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert transition_probability(decomp, *DIAMETRIC, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_frozen_peak_values(ring8):
    _, decomp = ring8
    p1 = transition_probability(decomp, *DIAMETRIC, 12.57618)
    p2 = transition_probability(decomp, *DIAMETRIC, 73.3055)
    assert p1 == pytest.approx(0.997650179305, abs=1e-9)
    assert p2 == pytest.approx(0.999930764412, abs=1e-9)


def test_spectral_route_matches_series_propagator(ring8):
    spec, decomp = ring8
    H = build_hamiltonian(spec)
    a, b = (flat_index(n, spec.N) for n in DIAMETRIC)
    for t in (0.7, 12.57618, 73.3055):
        U = series_expm(H, t)
        assert transition_probability(decomp, *DIAMETRIC, t) == pytest.approx(
            abs(U[b, a]) ** 2, abs=1e-9)


def test_grouped_overlaps_diametric(ring8):
    _, decomp = ring8
    o = transfer_report(decomp, *DIAMETRIC).overlaps
    assert o.sum() == pytest.approx(0.0, abs=1e-12)        # p(0) = 0
    assert np.abs(o).sum() == pytest.approx(1.0, abs=1e-12)  # aligned bound is 1
    # magnitudes: singles 1/24, site pairs 2/24, merged channel pairs double
    got = sorted(round(abs(x), 9) for x in o)
    assert got == sorted(
        round(v, 9)
        for v in (1 / 24, 1 / 24, 2 / 24, 2 / 24, 2 / 24, 2 / 24, 2 / 24, 4 / 24, 4 / 24, 4 / 24)
    )


def test_p_max_one_only_for_special_pairs(ring8):
    _, decomp = ring8
    assert transfer_report(decomp, *DIAMETRIC).p_max == pytest.approx(1.0, abs=1e-12)
    assert transfer_report(decomp, Node(0, 1), Node(0, 1)).p_max == pytest.approx(
        1.0, abs=1e-12)
    # nearest neighbour: the grouped bound is well below 1
    assert transfer_report(decomp, Node(0, 1), Node(1, 1)).p_max == pytest.approx(
        0.364276695297, abs=1e-9)


def test_p_max_rank1_is_one_for_any_pair():
    spec = make_spec(8, "closed", "closed", gamma=3.0)
    pairs = eigenpairs_closed_closed_analytic(spec)
    for out in (Node(1, 1), Node(4, 1), Node(5, 3)):
        assert p_max_rank1(pairs, Node(0, 1), out) == pytest.approx(1.0, abs=1e-12)


def test_probability_bounded_by_p_max(ring8, rng):
    _, decomp = ring8
    for a, b in ((Node(0, 1), Node(1, 1)), (Node(0, 1), Node(3, 2))):
        bound = transfer_report(decomp, a, b).p_max
        for t in rng.uniform(0.0, 50.0, size=25):
            assert transition_probability(decomp, a, b, float(t)) <= bound + 1e-9


def test_sign_factors_frozen_pattern(ring8):
    _, decomp = ring8
    report = transfer_report(decomp, *DIAMETRIC)
    assert tuple(int(s) for s in report.signs) == (1, -1, 1, -1, 1, 1, -1, 1, -1, 1)
    assert report.dark_groups == frozenset()


def test_sign_factors_zero_marks_dark():
    # distance 2 on the ring N = 8: the site classes n of
    # dark_predicate_closed_closed are dark in both channel classes, and
    # every other group keeps its overlap's sign
    N, gamma = 8, 2.5
    _, decomp = make_decomp(N, "closed", "closed", gamma=gamma)
    report = transfer_report(decomp, Node(0, 1), Node(2, 1))
    dark = [round(2 * gamma * math.cos(2 * math.pi * n / N) + c, 9)
            for n in (1, 2, 3) if dark_predicate_closed_closed(N, 0, 2, n) for c in (2.0, -1.0)]
    is_dark = np.isin(np.round(decomp.values, 9), dark)
    assert report.signs.dtype.kind == "i" and is_dark.sum() == 4
    assert np.all(report.signs[is_dark] == 0)
    assert np.array_equal(report.signs[~is_dark], np.sign(report.overlaps[~is_dark]))
    assert set(report.signs[~is_dark].tolist()) == {-1, 1}


def test_single_label_groups_are_bright_at_large_n():
    # a lone mode's overlap is one factor term w_i q_a, and for this
    # end-to-end pair on a path w_i ~ sin^2(pi k / (N + 1)) never vanishes; at N = 1e5
    # such overlaps reach down to ~1e-12, under any absolute cut of 1e-10
    N = 100_000
    _, decomp = make_decomp(N, "open", "open", gamma=2.0)
    report = transfer_report(decomp, Node(0, 1), Node(N - 1, 3))
    single = decomp.multiplicities == 1
    assert np.min(np.abs(report.overlaps[single])) < 1e-11
    assert np.all(report.signs[single] != 0)


@pytest.mark.parametrize("N", [30_000, 50_000, 100_000])
def test_mirror_pair_bound_is_one_at_large_n(N):
    # (0,1) -> (N-1,1) is mirror-symmetric, so sum_k |o_k| = sum|w| sum|q|
    # = 1 exactly; a grouping width relative to the spectral radius joined
    # distinct band-edge levels of opposite sign here (0.9992 at N = 5e4)
    _, decomp = make_decomp(N, "open", "open", gamma=2.0)
    report = transfer_report(decomp, Node(0, 1), Node(N - 1, 1))
    assert report.p_max == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("couplings, pair", [
    ({"J": 1.0, "L": 0.0}, (Node(0, 1), Node(3, 2))),  # channels decoupled
    ({"J": 0.0, "L": 1.0}, (Node(0, 1), Node(3, 1))),  # sites decoupled
])
def test_disconnected_pair_is_dark_in_every_group(couplings, pair):
    # every overlap cancels down to rounding, however small the largest one
    _, decomp = make_decomp(8, "closed", "closed", **couplings)
    report = transfer_report(decomp, *pair)
    assert report.dark_groups == frozenset(range(len(decomp)))


def test_p_max_leaves_out_the_rounding_of_dark_groups():
    # at J = L = 0 all 15 levels are 0, and the one group's overlap is the
    # sum of the path's site weights, delta_nm = 0 up to rounding
    _, decomp = make_decomp(5, "open", "open", J=0.0, L=0.0)
    report = transfer_report(decomp, Node(0, 1), Node(4, 1))
    assert report.overlaps[0] != 0.0
    assert tuple(report.signs) == (0,) and report.dark_groups == {0}
    assert report.p_max == 0.0
    # bright and dark groups together: only the bright ones are summed
    _, decomp = make_decomp(8, "closed", "closed", gamma=2.5)
    report = transfer_report(decomp, Node(0, 1), Node(2, 1))
    dark = report.signs == 0
    assert np.any(dark) and np.any(report.overlaps[dark] != 0.0)
    assert report.p_max == float(np.sum(np.abs(report.overlaps[~dark])) ** 2)


def test_dark_groups_distance_two():
    _, decomp = make_decomp(8, "closed", "closed", gamma=2.5)
    report = transfer_report(decomp, Node(0, 1), Node(2, 1))
    dark = report.dark_groups
    assert len(dark) == 4
    got = sorted(round(float(decomp.values[k]), 6) for k in dark)
    # n = 1 and n = 3 site classes of both channel classes, gamma = 2.5
    assert got == [-4.535534, -1.535534, 2.535534, 5.535534]


def test_dark_predicate_examples():
    # distance 2 on N = 8: 4 n d / N = n, odd for n in {1, 3}
    assert dark_predicate_closed_closed(8, 0, 2, 1)
    assert not dark_predicate_closed_closed(8, 0, 2, 2)
    assert dark_predicate_closed_closed(8, 0, 2, 3)
    # diametric pair never darkens
    assert not any(dark_predicate_closed_closed(8, 0, 4, n) for n in (1, 2, 3))


def test_dark_predicate_domain():
    with pytest.raises(ValueError):
        dark_predicate_closed_closed(8, 0, 2, 0)
    with pytest.raises(ValueError):
        dark_predicate_closed_closed(8, 0, 2, 4)  # paired range tops out at 3


@pytest.mark.parametrize("N", [5, 6, 7])
def test_no_dark_states_when_four_does_not_divide(N):
    _, decomp = make_decomp(N, "closed", "closed", gamma=2.5)
    for j in range(1, N):
        report = transfer_report(decomp, Node(0, 1), Node(j, 1))
        assert report.dark_groups == frozenset()


def test_reciprocity(ring8, rng):
    _, decomp = ring8
    a, b = Node(1, 2), Node(6, 3)
    for t in rng.uniform(0.0, 40.0, size=10):
        assert transition_probability(decomp, a, b, float(t)) == pytest.approx(
            transition_probability(decomp, b, a, float(t)), abs=1e-12)


def test_unitarity(ring8, rng):
    spec, decomp = ring8
    src = Node(2, 1)
    for t in rng.uniform(0.0, 40.0, size=5):
        total = sum(
            transition_probability(decomp, src, Node(n, al), float(t))
            for n in range(spec.N) for al in (1, 2, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_ring_translation_invariance(ring8, rng):
    spec, decomp = ring8
    t = float(rng.uniform(0.0, 30.0))
    base = transition_probability(decomp, Node(0, 1), Node(3, 1), t)
    for shift in (1, 4, 6):
        shifted = transition_probability(
            decomp, Node(shift % 8, 1), Node((3 + shift) % 8, 1), t)
        assert shifted == pytest.approx(base, abs=1e-12)


def _check_chunks(site_bc: str, channel_bc: str, count: int) -> list[int]:
    """Block sizes of a count-point kernel run, after checking its points
    against transition_probability and, at block edges, series_expm, and
    the trace's factor-product blocks against them."""
    spec, decomp = make_decomp(5, site_bc, channel_bc, gamma=1.7)
    pair = (Node(0, 1), Node(3, 2))
    step = 0.0021
    report = transfer_report(decomp, *pair)
    chunks = list(probability_chunks(Factor(report.values, report.overlaps), step, count))
    sizes = [len(c) for c in chunks]
    factored = list(factor_chunks(spec, *pair, step, count))
    assert [len(c) for c in factored] == sizes
    q = np.concatenate(factored)
    assert np.max(np.abs(q - np.concatenate(chunks))) <= 1e-12
    assert sizes[:-1] == [CHUNK] * (len(sizes) - 1)
    assert 0 < sizes[-1] <= CHUNK
    assert sum(sizes) == count
    p = np.concatenate(chunks)
    edges = {i for s in range(0, count, CHUNK) for i in (s - 1, s, s + 1) if 0 <= i < count}
    # both ends of every ROOT-point row, and the points around each block edge
    rows = {i for s in range(0, count, ROOT) for i in (s, s + ROOT - 1) if i < count}
    for i in sorted(rows | edges | set(range(0, count, 37)) | {count - 1}):
        assert p[i] == pytest.approx(
            transition_probability(decomp, *pair, i * step), abs=1e-12)
    H = build_hamiltonian(spec)
    a, b = (flat_index(n, spec.N) for n in pair)
    for i in sorted(edges | {ROOT - 1, ROOT, count - 1} & set(range(count))):
        exact = abs(series_expm(H, i * step)[b, a]) ** 2
        assert p[i] == pytest.approx(exact, abs=1e-12)
        assert q[i] == pytest.approx(exact, abs=1e-12)
    return sizes


@pytest.mark.parametrize("site_bc, channel_bc", TOPOLOGIES)
def test_probability_chunks_match_pointwise_and_series(site_bc, channel_bc):
    # 3 CHUNK + 7 points: three block edges, blocks starting at CHUNK,
    # 2 CHUNK and 3 CHUNK, the last one short
    assert _check_chunks(site_bc, channel_bc, 3 * CHUNK + 7) == [CHUNK, CHUNK, CHUNK, 7]


@pytest.mark.parametrize("count", [1, ROOT - 1, ROOT, ROOT + 1, CHUNK - 1, CHUNK,
                                   CHUNK + 1, 2 * CHUNK + ROOT + 1])
@pytest.mark.parametrize("site_bc, channel_bc", TOPOLOGIES)
def test_probability_chunks_block_layout(site_bc, channel_bc, count):
    # a lone point, short and partial rows, a full block, and a last
    # block of one full row plus one point
    _check_chunks(site_bc, channel_bc, count)


@pytest.mark.parametrize("J, L", [(1.3, 0.0), (-0.8, 2.1), (0.0, 1.0)])
@pytest.mark.parametrize("site_bc, channel_bc", TOPOLOGIES)
def test_factor_chunks_match_pointwise_in_raw_units(site_bc, channel_bc, J, L):
    # L = 0 leaves the constant channel factor, J < 0 mirrors the site
    # phases and J = 0 the constant site factor
    spec, decomp = make_decomp(6, site_bc, channel_bc, J=J, L=L)
    step, count = 0.013, CHUNK + ROOT + 3
    for pair in ((Node(0, 1), Node(3, 1)), (Node(1, 2), Node(4, 3))):
        p = np.concatenate(list(factor_chunks(spec, *pair, step, count)))
        t = step * np.arange(count)
        exact = [transition_probability(decomp, *pair, x) for x in t[::41]]
        assert np.max(np.abs(p[::41] - exact)) <= 1e-12


def test_grid_count_matches_arange():
    for horizon, step in ((1.0, 0.5), (200.0, 0.005), (600.0, 0.005), (100.0, 0.0071),
                          (2000.0, 0.005), (0.3, 0.1)):
        assert grid_count(horizon, step) == len(np.arange(0.0, horizon + 0.5 * step, step))
    assert list(probability_chunks(Factor(np.zeros(1), np.ones(1)), 0.1, 0)) == []


def test_overlap_guard_fires_for_ungrouped_complex_degenerate_pair():
    # shifting (n=1, alpha=1) off its partner (n=4, alpha=1) leaves a lone
    # complex plane wave, whose projector entries between sites are complex
    spec = make_spec(5, "closed", "closed", gamma=2.0)
    pairs = [replace(p, value=p.value + 1e-3) if p.labels == (1, 1) else p
             for p in eigenpairs_closed_closed_analytic(spec)]
    decomp = group_eigenpairs(pairs)
    with pytest.raises(ValueError, match="imaginary"):
        block_overlaps(decomp, Node(0, 1), Node(1, 1))
