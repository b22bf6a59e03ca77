import math

import numpy as np
import pytest

from conftest import make_decomp, make_dense, make_spec
from helix_pst import (
    Node,
    build_hamiltonian,
    decompose,
    flat_index,
    transfer_report,
    transition_probability,
)
from helix_pst.spectral import pair_factors
from helix_pst.transfer import DARK_TOL
from oracles import (
    block_overlaps,
    distinct_count_closed_closed,
    eigendecompose_numeric,
    eigenpairs_closed_closed_analytic,
    group_eigenpairs,
    series_expm,
    verify_reconstruction,
)

TOPOLOGIES = [("closed", "closed"), ("closed", "open"), ("open", "closed"), ("open", "open")]


def test_channel_triangle_levels():
    # J = 0 leaves the bare channel triangle; its levels are 2, -1, -1 (units of L)
    _, decomp = make_decomp(3, "closed", "closed", gamma=0.0)
    assert np.allclose(decomp.values, [-1.0, 2.0])
    assert tuple(decomp.multiplicities) == (6, 3)


@pytest.mark.parametrize("N", range(3, 17))
@pytest.mark.parametrize("gamma", [0.5, 3.0])
def test_analytic_values_match_numeric(N, gamma):
    spec = make_spec(N, "closed", "closed", gamma=gamma)
    pairs = eigenpairs_closed_closed_analytic(spec)
    numeric = np.linalg.eigvalsh(build_hamiltonian(spec))
    assert np.allclose(sorted(p.value for p in pairs), numeric, atol=1e-9, rtol=0)


@pytest.mark.parametrize("N", [3, 5, 8])
def test_analytic_vectors_are_orthonormal_eigenvectors(N):
    spec = make_spec(N, "closed", "closed", gamma=2.5)
    H = build_hamiltonian(spec)
    pairs = eigenpairs_closed_closed_analytic(spec)
    V = np.column_stack([p.vector for p in pairs])
    lam = np.array([p.value for p in pairs])
    assert np.max(np.abs(H @ V - V * lam)) < 1e-12
    assert np.max(np.abs(V.conj().T @ V - np.eye(3 * N))) < 1e-12


def test_analytic_labels_cover_all_modes():
    spec = make_spec(6, "closed", "closed", gamma=1.0)
    labels = {p.labels for p in eigenpairs_closed_closed_analytic(spec)}
    assert labels == {(n, a) for n in range(6) for a in (1, 2, 3)}


@pytest.mark.parametrize("N", [4, 6, 8])
def test_grouped_analytic_matches_numeric_projectors(N):
    spec = make_spec(N, "closed", "closed", gamma=3.0)
    numeric = eigendecompose_numeric(build_hamiltonian(spec))
    grouped = group_eigenpairs(eigenpairs_closed_closed_analytic(spec))
    assert np.allclose(grouped.values, numeric.values, atol=1e-9, rtol=0)
    assert tuple(grouped.multiplicities) == tuple(numeric.multiplicities)
    assert np.max(np.abs(grouped.projectors - numeric.projectors)) < 1e-8


def test_projector_algebra():
    _, decomp = make_dense(5, "open", "closed", J=1.7, L=0.6)
    P = decomp.projectors
    dim = decomp.dim
    assert np.max(np.abs(P.imag)) < 1e-12
    total = P.sum(axis=0)
    assert np.max(np.abs(total - np.eye(dim))) < 1e-10
    for k in range(len(decomp)):
        assert np.max(np.abs(P[k] @ P[k] - P[k])) < 1e-10
        for l in range(k + 1, len(decomp)):
            assert np.max(np.abs(P[k] @ P[l])) < 1e-10


def test_multiplicities_sum_to_dimension():
    for args in [(8, "closed", "closed"), (5, "open", "open"), (6, "closed", "open")]:
        _, decomp = make_decomp(*args, gamma=2.0)
        assert int(decomp.multiplicities.sum()) == 3 * args[0]


def test_verify_reconstruction_small():
    spec = make_spec(4, "open", "open", J=0.9, L=1.1)
    H = build_hamiltonian(spec)
    assert verify_reconstruction(eigendecompose_numeric(H), H) < 1e-12


def test_verify_reconstruction_random_symmetric(rng):
    A = rng.normal(size=(12, 12))
    H = (A + A.T) / 2
    assert verify_reconstruction(eigendecompose_numeric(H), H) < 1e-12


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigendecompose_numeric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_grouping_tol_merges_near_degenerate():
    H = np.diag([0.0, 1e-6, 1.0])
    fine = eigendecompose_numeric(H)
    assert len(fine) == 3
    coarse = eigendecompose_numeric(H, grouping_tol=1e-3)
    assert len(coarse) == 2
    assert tuple(coarse.multiplicities) == (2, 1)
    # group value is the cluster mean
    assert coarse.values[0] == pytest.approx(5e-7, abs=1e-18)


def test_distinct_count_formula():
    # (N+1)/2 odd, N/2+1 even not divisible by 4, N/2+2 divisible by 4
    expected = {3: 2, 4: 4, 5: 3, 6: 4, 7: 4, 8: 6, 9: 5, 10: 6, 11: 6, 12: 8}
    for N, count in expected.items():
        assert distinct_count_closed_closed(N) == (count, count)
    with pytest.raises(ValueError):
        distinct_count_closed_closed(2)


def test_group_count_generic_gamma():
    # At gamma = 2.5 no same-class value ties a cross-class one, so the
    # plain value count per class is N/2 + 1 for even N. For N = 8 that
    # is 5 + 5 = 10 groups, while the labelled bookkeeping reports 6 per
    # class (the zero-of-cosine pair is tracked separately even though
    # its value ties another pair's).
    _, decomp = make_decomp(8, "closed", "closed", gamma=2.5)
    assert len(decomp) == 10


def _worst_overlap_error(overlaps, P, N):
    """Largest |overlaps(a, b) - projector entry| over all node pairs."""
    nodes = [Node(n, al) for n in range(N) for al in (1, 2, 3)]
    return max(
        float(np.abs(overlaps(a, b) - P[:, flat_index(a, N), flat_index(b, N)]).max())
        for a in nodes for b in nodes
    )


@pytest.mark.parametrize("N", range(3, 7))
def test_block_overlaps_equal_projector_entries(N):
    for site_bc, channel_bc in TOPOLOGIES:
        spec, dense = make_dense(N, site_bc, channel_bc, gamma=1.7)
        P = dense.projectors
        assert _worst_overlap_error(lambda a, b: block_overlaps(dense, a, b), P, N) < 1e-12
        decomp = decompose(spec)
        assert tuple(decomp.multiplicities) == tuple(dense.multiplicities)
        assert _worst_overlap_error(
            lambda a, b: transfer_report(decomp, a, b).overlaps, P, N) < 1e-12
    spec = make_spec(N, "closed", "closed", gamma=1.7)
    analytic = group_eigenpairs(eigenpairs_closed_closed_analytic(spec))
    assert _worst_overlap_error(
        lambda a, b: block_overlaps(analytic, a, b), analytic.projectors, N) < 1e-12


def test_exact_cross_factor_level_crossing():
    # closed/closed N = 5: site mode m = 1 (and 4) in channel modes 2, 3 ties
    # site mode n = 2 (and 3) in channel mode 1 at gamma = 3 / (2 (cos 2pi/5 -
    # cos 4pi/5)) = 3 / sqrt(5); that group joins 4 + 2 columns
    N, m, n = 5, 1, 2
    gamma = 3.0 / (2.0 * (math.cos(2 * math.pi * m / N) - math.cos(2 * math.pi * n / N)))
    spec = make_spec(N, "closed", "closed", gamma=gamma)
    H = build_hamiltonian(spec)
    crossing = 2.0 * gamma * math.cos(2 * math.pi * m / N) - 1.0
    pairs = eigenpairs_closed_closed_analytic(spec)
    tied = {p.labels for p in pairs if abs(p.value - crossing) < 1e-9}
    assert tied == {(1, 2), (1, 3), (4, 2), (4, 3), (2, 1), (3, 1)}

    nodes = [Node(k, al) for k in range(N) for al in (1, 2, 3)]
    routes = ((decompose(spec), lambda d, a, b: transfer_report(d, a, b).overlaps),
              (eigendecompose_numeric(H), block_overlaps),  # raises if not real
              (group_eigenpairs(pairs), block_overlaps))
    for decomp, overlaps in routes:
        k = int(np.argmin(np.abs(decomp.values - crossing)))
        assert abs(decomp.values[k] - crossing) < 1e-12
        assert int(decomp.multiplicities[k]) == 6
        for a in nodes:
            for b in nodes:
                o = overlaps(decomp, a, b)
                assert np.isrealobj(o)
                assert float(o.sum()) == pytest.approx(float(a == b), abs=1e-12)

    decomp = decompose(spec)
    for src, dst in [(Node(0, 1), Node(2, 2)), (Node(0, 2), Node(1, 3)), (Node(3, 1), Node(3, 3))]:
        for t in (0.7, 3.1, 11.9):
            U = series_expm(H, t)
            exact = abs(U[flat_index(dst, N), flat_index(src, N)]) ** 2
            assert transition_probability(decomp, src, dst, t) == pytest.approx(exact, abs=1e-9)


def _stored_bytes(decomp):
    return sum(v.nbytes for v in vars(decomp).values() if isinstance(v, np.ndarray))


def test_decomposition_memory_is_linear():
    N = 150
    dim = 3 * N
    _, decomp = make_decomp(N, "open", "open", gamma=2.0)
    # at most three 8-byte numbers per label
    assert _stored_bytes(decomp) <= 3 * 8 * dim
    report = transfer_report(decomp, Node(0, 1), Node(N - 1, 3))
    assert len(report.overlaps) == len(decomp)


def test_decomposition_memory_is_per_group():
    # a degenerate spectrum: the closed/closed ring pairs its site modes,
    # 152 groups for 450 modes; a group keeps its value, multiplicity and
    # smallest sorted value, and nothing is kept per mode
    N = 150
    _, decomp = make_decomp(N, "closed", "closed", gamma=2.0)
    assert len(decomp) == 152
    assert _stored_bytes(decomp) <= 3 * 8 * len(decomp)
    report = transfer_report(decomp, Node(0, 1), Node(N // 2, 3))
    assert len(report.overlaps) == len(decomp)


def _equivalence_cases():
    """(N, site_bc, channel_bc, gamma) against the dense oracle: every
    topology at N = 3..20, 64, 150 and 400 with a seeded gamma, plus
    exact ties between the factors."""
    rng = np.random.default_rng(7)
    cases = [(N, s, c, round(float(rng.uniform(0.3, 6.0)), 4))
             for N in (*range(3, 21), 64, 150, 400) for s, c in TOPOLOGIES]
    # exact ties between the factors, groups that join labels of
    # different channel classes (rings with N % 4 == 0 among them), and
    # gamma = 0, where all site modes of a channel mode tie
    cases += [(6, "closed", "closed", 1.0), (6, "closed", "closed", 1.5),
              (5, "closed", "closed", 3.0 / math.sqrt(5.0)), (4, "closed", "closed", 1.5),
              (8, "closed", "closed", 1.5), (16, "closed", "closed", 0.75),
              (8, "closed", "open", 1.0 / math.sqrt(2.0)),
              (5, "open", "open", 1.0 / math.sqrt(2.0)), (8, "open", "open", 0.0)]
    return cases


@pytest.mark.parametrize("N, site_bc, channel_bc, gamma", _equivalence_cases())
def test_factorised_matches_dense_oracle(N, site_bc, channel_bc, gamma):
    _check_against_dense(N, *make_dense(N, site_bc, channel_bc, gamma=gamma))


# raw couplings: L = 0, where pair_factors replaces the channel factor by
# delta_{alpha beta} and every level is threefold or more; a negative J,
# whose site terms descend; a negative L; and both
RAW_CASES = [(N, s, c, J, L) for s, c in TOPOLOGIES
             for N, J, L in ((7, 1.3, 0.0), (8, -0.8, 0.0), (9, -1.1, 0.7), (6, 0.9, -1.6),
                             (10, -0.6, -2.2))]


@pytest.mark.parametrize("N, site_bc, channel_bc, J, L", RAW_CASES)
def test_factorised_matches_dense_oracle_at_raw_couplings(N, site_bc, channel_bc, J, L):
    _check_against_dense(N, *make_dense(N, site_bc, channel_bc, J=J, L=L))


def _check_against_dense(N, spec, dense):
    decomp = decompose(spec)
    assert tuple(decomp.multiplicities) == tuple(dense.multiplicities)
    radius = float(np.max(np.abs(dense.values)))
    assert np.max(np.abs(decomp.values - dense.values)) <= 1e-12 * (1.0 + radius)
    rng = np.random.default_rng(N)
    nodes = [Node(int(rng.integers(N)), int(rng.integers(1, 4))) for _ in range(12)]
    for a, b in [(Node(0, 1), Node(N - 1, 3)), (Node(0, 1), Node(N // 2, 1)),
                 *zip(nodes[::2], nodes[1::2])]:
        report = transfer_report(decomp, a, b)
        oracle = block_overlaps(dense, a, b)
        assert np.max(np.abs(report.overlaps - oracle)) <= 1e-11
        # the report's dark cut, DARK_TOL times the pair's largest factor
        # term; a pair without one (L = 0 across channels) is dark throughout
        site, chan = pair_factors(spec, a, b)
        cut = DARK_TOL * (np.max(np.abs(site.weights)) * np.max(np.abs(chan.weights)))
        signs = np.where(np.abs(oracle) < cut, 0, np.sign(oracle)) if cut else 0 * oracle
        assert np.array_equal(report.signs, signs)


def _lines_up(x: int, y: int, size: int, closed: bool) -> bool:
    """Whether y is x itself, x's mirror on a path or its antipode on a ring."""
    return 2 * (y - x) % size == 0 if closed else y in (x, size - 1 - x)


@pytest.mark.parametrize("site_bc, channel_bc", TOPOLOGIES)
def test_factor_spread_sums_to_one_only_where_every_level_lines_up(site_bc, channel_bc):
    # sum |w| of a factor is sum over its levels of |sum_k u_k[x] u_k[y]|,
    # at most 1 by Cauchy-Schwarz, and 1 exactly where the two nodes'
    # modes agree up to one sign per level: the node itself, a path's
    # mirror and a ring's antipode
    tri = channel_bc == "closed"
    for N in range(3 if site_bc == "closed" else 2, 13):
        spec = make_spec(N, site_bc, channel_bc, gamma=1.0)
        for x in range(N):
            for y in range(N):
                total = pair_factors(spec, Node(x, 1), Node(y, 1))[0].spread[1]
                assert total <= 1 + 1e-15
                assert (abs(total - 1) <= 1e-12) == _lines_up(x, y, N, site_bc == "closed")
        for a in range(1, 4):
            for b in range(1, 4):
                total = pair_factors(spec, Node(0, a), Node(0, b))[1].spread[1]
                assert total <= 1 + 1e-15
                assert (abs(total - 1) <= 1e-12) == _lines_up(a - 1, b - 1, 3, tri)
                if tri and a != b:
                    assert total == pytest.approx(2 / 3, abs=1e-15)
                elif not tri and {a, b} == {1, 2}:
                    assert total == pytest.approx(1 / math.sqrt(2), abs=1e-15)
