"""Independent cross-check routes used by the tests.

Everything here deliberately avoids the library's production paths:
the propagator is a scaled-and-squared Taylor series instead of a
spectral resolution, the Hamiltonian is rebuilt edge by edge from
neighbor lists instead of Kronecker blocks, and the product rule
propagates the site and channel factors as separate small matrices.
The dense route, `eigendecompose_numeric` of the full 3N x 3N matrix
with its eigenvector blocks and projectors, is the oracle of the
library's factorised `decompose`; the labelled plane waves of the
doubly closed network (`eigenpairs_closed_closed_analytic`) are a
third, complex-valued route to the same groups, and
`distinct_count_closed_closed` is their labelled group count.
`reference_pst_times` keeps an early peak search (a dense complex exp
grid and a per-point candidate loop), and `grid_pst_times` the scan of
the whole grid that the windowed search replaced, fast enough to check
every sweep row. Both read the grouped decomposition rather than the
factors the search reads, and both are references of the search at the
step it uses. `same_class_step`,
`closed_closed_example_constraints` and `dark_predicate_closed_closed`
are closed forms of the doubly closed network that only tests read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from helix_pst import NetworkSpec, Node, flat_index, neighbors, node_from_index
from helix_pst.core import CHANNELS, BoundaryCondition
from helix_pst.hamiltonian import CouplingKind
from helix_pst.spectral import default_grouping_tol
from helix_pst.transfer import grid_count, probability_chunks, projector_overlaps

OVERLAP_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class DenseDecomposition:
    """Pairwise distinct eigenvalues with their eigenvector blocks.

    Column j of `vectors` is a unit eigenvector; columns are sorted by
    eigenvalue, and group k owns the `multiplicities[k]` consecutive
    columns from `starts[k]` on. Its projector P_k = V_k V_k^dagger is
    implied by that block.
    """

    values: np.ndarray  # distinct eigenvalues, ascending
    vectors: np.ndarray  # shape (dim, dim), real for numeric, complex for analytic
    multiplicities: np.ndarray  # int per group, sums to dim
    grouping_tol: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.multiplicities) - self.multiplicities

    @property
    def projectors(self) -> np.ndarray:
        """The (k, dim, dim) projector tensor, rebuilt on every access."""
        V = self.vectors
        return np.stack([
            V[:, a:a + m] @ V[:, a:a + m].conj().T
            for a, m in zip(self.starts, self.multiplicities)
        ])

    def __len__(self) -> int:
        return len(self.values)


def _group(values: np.ndarray, vectors: np.ndarray, tol: float) -> DenseDecomposition:
    """Cluster ascending eigenvalues closer than tol into joint blocks."""
    splits = np.flatnonzero(np.diff(values) > tol) + 1
    starts = np.concatenate(([0], splits))
    stops = np.concatenate((splits, [len(values)]))
    group_values = np.array([values[a:b].mean() for a, b in zip(starts, stops)])
    mult = (stops - starts).astype(int)
    return DenseDecomposition(group_values, vectors, mult, tol)


def eigendecompose_numeric(H: np.ndarray, grouping_tol: float | None = None) -> DenseDecomposition:
    """Decompose a real symmetric matrix into distinct-eigenvalue groups."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be a square matrix")
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if not np.allclose(H, H.T, rtol=0.0, atol=1e-12 * (1.0 + scale)):
        raise ValueError("H must be symmetric")
    values, vectors = np.linalg.eigh(H)
    tol = default_grouping_tol(values) if grouping_tol is None else float(grouping_tol)
    if tol < 0:
        raise ValueError("grouping_tol must be non-negative")
    return _group(values, vectors, tol)


def block_overlaps(decomp: DenseDecomposition, input: Node, output: Node) -> np.ndarray:
    """Real overlaps <in| P_k |out>, each summed over its eigenvector block."""
    N = decomp.dim // CHANNELS
    a = flat_index(input, N)
    b = flat_index(output, N)
    V = decomp.vectors
    raw = np.add.reduceat(V[a] * V[b].conj(), decomp.starts)
    if raw.size and float(np.max(np.abs(raw.imag))) > OVERLAP_IMAG_TOL:
        raise ValueError(
            "projector overlap has a residual imaginary part; "
            "a degenerate eigenvalue was left ungrouped (raise grouping_tol)"
        )
    return raw.real


def verify_reconstruction(decomp: DenseDecomposition, H: np.ndarray) -> float:
    """Max entrywise |sum_k lambda_k P_k - H|, as |V diag(lambda) V^dagger - H|."""
    H = np.asarray(H, dtype=float)
    if H.shape != (decomp.dim, decomp.dim):
        raise ValueError(
            f"dimension mismatch: decomposition is {decomp.dim}, matrix is {H.shape}"
        )
    V = decomp.vectors
    rebuilt = (V * np.repeat(decomp.values, decomp.multiplicities)) @ V.conj().T
    return float(np.max(np.abs(rebuilt - H)))


@dataclass(frozen=True)
class EigenPair:
    """One labelled eigenvalue/eigenvector pair."""

    value: float
    vector: np.ndarray
    labels: tuple[int, int] | None = None  # (site mode n, channel mode alpha)


def eigenpairs_closed_closed_analytic(spec: NetworkSpec) -> list[EigenPair]:
    """Labelled eigenpairs of the doubly closed network, (n, alpha) order.

    Plane waves over the site ring tensored with the three Fourier modes
    of the triangle:

        lambda[n, alpha] = 2 J cos(2 pi n / N) + 2 L cos(2 pi (alpha-1) / 3)
        W[n, alpha][m, c] = exp(i 2 pi n m / N) * V_alpha[c] / sqrt(3 N)

    with V_1 = (1, 1, 1) and V_2 = conj(V_3) = (e^{-2 pi i/3}, 1, e^{2 pi i/3}).
    """
    if (
        spec.bc.site_bc is not BoundaryCondition.CLOSED
        or spec.bc.channel_bc is not BoundaryCondition.CLOSED
    ):
        raise ValueError("analytic eigenpairs require closed site and channel boundaries")
    N = spec.N
    j_eff, l_eff = spec.couplings.effective()
    w = np.exp(2j * np.pi / 3)
    V = np.column_stack([np.ones(3, dtype=complex), [w.conjugate(), 1.0, w], [w, 1.0, w.conjugate()]])
    offsets = 2.0 * np.cos(2.0 * np.pi * np.arange(CHANNELS) / 3.0)  # (2, -1, -1)
    norm = 1.0 / np.sqrt(3.0 * N)
    pairs: list[EigenPair] = []
    for n in range(N):
        site_phases = np.exp(2j * np.pi * n * np.arange(N) / N)
        site_value = 2.0 * j_eff * np.cos(2.0 * np.pi * n / N)
        for alpha in (1, 2, 3):
            value = site_value + l_eff * offsets[alpha - 1]
            vector = norm * np.kron(site_phases, V[:, alpha - 1])
            pairs.append(EigenPair(float(value), vector, labels=(n, alpha)))
    return pairs


def group_eigenpairs(
    pairs: list[EigenPair], grouping_tol: float | None = None
) -> DenseDecomposition:
    """Build the grouped decomposition from labelled eigenpairs."""
    if not pairs:
        raise ValueError("no eigenpairs to group")
    order = sorted(range(len(pairs)), key=lambda i: pairs[i].value)
    values = np.array([pairs[i].value for i in order])
    vectors = np.column_stack([pairs[i].vector for i in order])
    tol = default_grouping_tol(values) if grouping_tol is None else float(grouping_tol)
    return _group(values, vectors, tol)


def distinct_count_closed_closed(N: int) -> tuple[int, int]:
    """Labelled bookkeeping count of distinct eigenvalues per channel class.

    The two channel classes (symmetric mode alpha=1; degenerate pair
    alpha=2,3) carry the same count. For N divisible by 4 the count
    follows the labelled bookkeeping, which tracks the zero-of-cosine
    pair (n = N/4, 3N/4) as its own entry even though its value ties
    one of the other pairs, so the plain value count there is N/2 + 1.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if N % 2 == 1:
        count = (N + 1) // 2
    elif N % 4 != 0:
        count = N // 2 + 1
    else:
        count = N // 2 + 2
    return count, count


def p_max_rank1(pairs: Sequence[EigenPair], input: Node, output: Node) -> float:
    """Transfer bound summed over a full labelled rank-one eigenvector set.

    Uses |<in|v><v|out>| per labelled eigenvector instead of per grouped
    projector, so on degenerate spectra it is looser than p_max. For the
    doubly closed network every analytic eigenvector has uniform
    amplitude 1/sqrt(3N), which makes this bound exactly 1 for every
    node pair.
    """
    if not pairs:
        raise ValueError("no eigenpairs given")
    N = len(pairs[0].vector) // CHANNELS
    a = flat_index(input, N)
    b = flat_index(output, N)
    total = sum(abs(p.vector[a]) * abs(p.vector[b]) for p in pairs)
    return float(total**2)


def series_expm(H: np.ndarray, t: float, terms: int = 24) -> np.ndarray:
    """exp(-i H t) by truncated Taylor series with scaling and squaring."""
    H = np.asarray(H, dtype=float)
    dim = H.shape[0]
    scale = float(np.linalg.norm(H, np.inf)) * abs(float(t))
    squarings = 0 if scale == 0.0 else max(0, int(np.ceil(np.log2(scale))) + 2)
    A = (-1j * t / 2.0**squarings) * H
    U = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ A / k
        U = U + term
    for _ in range(squarings):
        U = U @ U
    return U


def adjacency_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """H rebuilt one edge at a time from the neighbor lists."""
    j_eff, l_eff = spec.couplings.effective()
    dim = 3 * spec.N
    H = np.zeros((dim, dim))
    for idx in range(dim):
        node = node_from_index(idx, spec.N)
        for other, kind in neighbors(node, spec):
            weight = j_eff if kind is CouplingKind.SITE_J else l_eff
            # assignment, not accumulation: both endpoints list the edge
            H[idx, flat_index(other, spec.N)] = weight
    return H


def ring_hamiltonian(N: int, J: float, closed: bool = True) -> np.ndarray:
    """Single N-site chain (or ring) with uniform hopping J."""
    H = np.zeros((N, N))
    for n in range(N - 1):
        H[n, n + 1] = H[n + 1, n] = J
    if closed and N > 2:
        H[0, N - 1] = H[N - 1, 0] = J
    return H


def channel_hamiltonian(L: float, closed: bool = True) -> np.ndarray:
    """3x3 channel block: triangle 1-2-3-1 (closed) or path 1-2-3 (open)."""
    H = np.zeros((3, 3))
    edges = ((0, 1), (1, 2), (0, 2)) if closed else ((0, 1), (1, 2))
    for a, b in edges:
        H[a, b] = H[b, a] = L
    return H


def product_rule_probability(spec: NetworkSpec, input: Node, output: Node, t: float) -> float:
    """p(t) as the product of the site and channel transfer probabilities.

    H = J S kron I_3 + L I_N kron C is a Cartesian product, so
    exp(-iHt) = exp(-iJSt) kron exp(-iLCt) and
    p(t) = |<out_n|exp(-iJSt)|in_n>|^2 * |<out_a|exp(-iLCt)|in_a>|^2
    (Christandl et al., PRL 92, 187902, 2004). Each factor is propagated
    on its own N x N or 3 x 3 matrix.
    """
    j_eff, l_eff = spec.couplings.effective()
    site = ring_hamiltonian(spec.N, j_eff, closed=spec.bc.site_bc is BoundaryCondition.CLOSED)
    chan = channel_hamiltonian(l_eff, closed=spec.bc.channel_bc is BoundaryCondition.CLOSED)
    p_site = abs(series_expm(site, t)[output.n, input.n]) ** 2
    p_chan = abs(series_expm(chan, t)[output.alpha - 1, input.alpha - 1]) ** 2
    return float(p_site * p_chan)


def _reference_golden_max(p_of, a: float, b: float, max_iters: int) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = p_of(x1), p_of(x2)
    iters = 0
    while (b - a) > 1e-6 and iters < max_iters:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = p_of(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = p_of(x1)
        iters += 1
    best = max(((a + b) / 2.0, a, b), key=p_of)
    return best, p_of(best)


def reference_pst_times(decomp, input: Node, output: Node, cfg) -> list[float]:
    """The earlier `find_pst_times`: p on the whole grid from one complex
    exp of the (points x groups) phase matrix, then a loop over every
    grid point that skips flat runs and refines each local maximum above
    1 - 2 epsilon by golden section."""
    o = projector_overlaps(decomp, input, output)
    lam = decomp.values

    def p_of(t: float) -> float:
        return float(np.abs(np.dot(o, np.exp(-1j * lam * t))) ** 2)

    ts = np.arange(0.0, cfg.horizon + 0.5 * cfg.coarse_step, cfg.coarse_step)
    p = np.abs(np.exp(-1j * np.outer(ts, lam)) @ o) ** 2
    thr = 1.0 - 2.0 * cfg.epsilon
    last = len(ts) - 1

    times: list[float] = []
    probs: list[float] = []
    i = 0
    while i <= last:
        is_max = (
            p[i] > thr
            and (i == 0 or p[i] >= p[i - 1])
            and (i == last or p[i] >= p[i + 1])
        )
        if is_max:
            a = max(ts[i] - cfg.coarse_step, 0.0)
            b = min(ts[i] + cfg.coarse_step, cfg.horizon)
            # its own cap of 64 steps, not read from the library
            t_star, p_star = _reference_golden_max(p_of, a, b, 64)
            if p_star >= 1.0 - cfg.epsilon:
                if times and abs(t_star - times[-1]) < cfg.coarse_step:
                    if p_star > probs[-1]:
                        times[-1], probs[-1] = t_star, p_star
                else:
                    times.append(t_star)
                    probs.append(p_star)
            # skip any flat plateau so one peak is refined once
            while i < last and p[i + 1] == p[i]:
                i += 1
        i += 1
    return times


def grid_pst_times(decomp, input: Node, output: Node, cfg, first_only: bool = False) -> list[float]:
    """The earlier full-grid scan: p of the grouped decomposition at every
    point of the grid i * coarse_step from the trace kernel, candidates p >
    1 - 2 epsilon, p > left and p >= right with -inf past both ends, each
    refined by golden section and merged within a step; with first_only
    it stops once the first time can no longer change."""
    o = projector_overlaps(decomp, input, output)
    lam = decomp.values
    h = cfg.coarse_step
    p = np.concatenate(list(probability_chunks(o, lam, h, grid_count(cfg.horizon, h))))
    w = np.concatenate(([-np.inf], p, [-np.inf]))
    candidates = np.flatnonzero((p > 1.0 - 2.0 * cfg.epsilon) & (p > w[:-2]) & (p >= w[2:]))

    def p_of(t: float) -> float:
        return float(np.abs(np.dot(o, np.exp(-1j * lam * t))) ** 2)

    times: list[float] = []
    probs: list[float] = []
    for i in candidates.tolist():
        a = max(i * h - h, 0.0)
        if first_only and times and (len(times) > 1 or a > times[0] + h):
            break
        t_star, p_star = _reference_golden_max(p_of, a, min(i * h + h, cfg.horizon), 64)
        if p_star >= 1.0 - cfg.epsilon:
            if times and abs(t_star - times[-1]) < h:
                if p_star > probs[-1]:
                    times[-1], probs[-1] = t_star, p_star
            else:
                times.append(t_star)
                probs.append(p_star)
    return times


def same_class_step(N: int, gamma: float, n: int) -> float:
    """Eigenvalue step between consecutive site modes of one channel class.

    2 gamma (cos(2 pi n / N) - cos(2 pi (n+1) / N))
        = 4 gamma sin(pi (2n + 1) / N) sin(pi / N),
    in units of L.
    """
    return 4.0 * gamma * math.sin(math.pi * (2 * n + 1) / N) * math.sin(math.pi / N)


def closed_closed_example_constraints(N: int, gamma: float) -> list[tuple[str, float]]:
    """Deduplicated constraint-coefficient table for the doubly closed ring.

    Covers the three families of consecutive congruences in scaled units:
    same-class steps 4 gamma sin(pi (2n+1)/N) sin(pi/N), cross-class
    steps shifted by the channel splitting 3, and the splitting itself.
    For N=8 the table is {(2 - sqrt 2) gamma, sqrt 2 gamma,
    (2 - sqrt 2) gamma + 3, sqrt 2 gamma + 3, 3}.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    table: list[tuple[str, float]] = []

    def add(desc: str, coeff: float) -> None:
        if not any(abs(coeff - c) < 1e-9 for _, c in table):
            table.append((desc, coeff))

    for n in range(N // 2):
        step = same_class_step(N, gamma, n)
        add(f"same-class step n={n}->{n + 1}", step)
    for n in range(N // 2):
        step = same_class_step(N, gamma, n)
        add(f"cross-class step n={n}->{n + 1}", step + 3.0)
    add("channel splitting", 3.0)
    return table


def dark_predicate_closed_closed(N: int, i: int, j: int, n: int) -> bool:
    """Closed-form darkness test for the doubly closed network.

    For the paired site modes (n, N-n) the grouped overlap between sites
    i and j is proportional to cos(2 pi n (j - i) / N); it vanishes
    exactly when 4 n (j - i) / N is an odd integer. Valid for the paired
    range 1 <= n <= ceil((N - 3) / 2); the unpaired modes are never dark.
    """
    if not 0 <= i < N or not 0 <= j < N:
        raise ValueError(f"sites must lie in [0, {N - 1}]")
    if not 1 <= n <= -((3 - N) // 2):  # ceil((N - 3) / 2)
        raise ValueError(f"mode {n} outside the paired range for N={N}")
    q, r = divmod(4 * n * (j - i), N)
    return r == 0 and q % 2 == 1
