"""Eigendecomposition with explicit degeneracy bookkeeping.

All dynamics go through the resolution H = sum_k lambda_k P_k over
pairwise distinct eigenvalues, where P_k is the orthogonal projector
onto the full eigenspace of lambda_k. The decomposition stores each
group as its block of orthonormal eigenvectors V_k; P_k = V_k V_k^dagger
is implied by the block and never materialised, so a decomposition
holds O(dim^2) numbers and one projector entry <a| P_k |b> costs
O(mult_k). For a real symmetric H the eigenvectors, and with them every
P_k, are real, which keeps transfer overlaps real and independent of
any basis choice inside degenerate eigenspaces.

For the doubly closed topology (site ring, channel triangle) the whole
eigensystem is known in closed form: plane waves over the site ring
tensored with the three Fourier modes of the triangle,

    lambda[n, alpha] = 2 J cos(2 pi n / N) + 2 L cos(2 pi (alpha-1) / 3)
    W[n, alpha][m, c] = exp(i 2 pi n m / N) * V_alpha[c] / sqrt(3 N)

with V_1 = (1, 1, 1) and V_2 = conj(V_3) = (e^{-2 pi i/3}, 1, e^{2 pi i/3}).
Grouping those labelled pairs by eigenvalue reproduces the numeric
eigenspaces (the complex blocks span the same spaces as the real
numeric ones); the labels themselves stay available for bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CHANNELS, BoundaryCondition, NetworkSpec, validate_spec

# default eigenvalue clustering width, relative to the spectral radius
DEFAULT_GROUPING_SCALE = 1e-8


@dataclass(frozen=True)
class EigenPair:
    """One labelled eigenvalue/eigenvector pair."""

    value: float
    vector: np.ndarray
    labels: tuple[int, int] | None = None  # (site mode n, channel mode alpha)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Pairwise distinct eigenvalues with their eigenvector blocks.

    Column j of `vectors` is a unit eigenvector; columns are sorted by
    eigenvalue, and group k owns the `multiplicities[k]` consecutive
    columns from `starts[k]` on. Its projector P_k = V_k V_k^dagger is
    implied by that block, never stored.
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
        """First column of each group's block in `vectors`."""
        return np.cumsum(self.multiplicities) - self.multiplicities

    @property
    def projectors(self) -> np.ndarray:
        """The (k, dim, dim) projector tensor, rebuilt on every access.

        Costs O(dim^3) time and k * dim^2 memory: meant for inspecting
        the projector algebra at small N, never read by the library.
        """
        V = self.vectors
        return np.stack([
            V[:, a:a + m] @ V[:, a:a + m].conj().T
            for a, m in zip(self.starts, self.multiplicities)
        ])

    def __len__(self) -> int:
        return len(self.values)


def default_grouping_tol(values: np.ndarray) -> float:
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    return DEFAULT_GROUPING_SCALE * radius


def _group(values: np.ndarray, vectors: np.ndarray, tol: float) -> SpectralDecomposition:
    """Cluster ascending eigenvalues closer than tol into joint blocks."""
    splits = np.flatnonzero(np.diff(values) > tol) + 1
    starts = np.concatenate(([0], splits))
    stops = np.concatenate((splits, [len(values)]))
    group_values = np.array([values[a:b].mean() for a, b in zip(starts, stops)])
    mult = (stops - starts).astype(int)
    return SpectralDecomposition(group_values, vectors, mult, tol)


def eigendecompose_numeric(
    H: np.ndarray, grouping_tol: float | None = None
) -> SpectralDecomposition:
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


def _channel_modes() -> tuple[np.ndarray, np.ndarray]:
    """Channel mode vectors V_alpha (columns) and their triangle offsets."""
    w = np.exp(2j * np.pi / 3)
    V = np.column_stack(
        [
            np.ones(3, dtype=complex),
            np.array([w.conjugate(), 1.0, w]),
            np.array([w, 1.0, w.conjugate()]),
        ]
    )
    offsets = 2.0 * np.cos(2.0 * np.pi * np.arange(CHANNELS) / 3.0)  # (2, -1, -1)
    return V, offsets


def eigenpairs_closed_closed_analytic(spec: NetworkSpec) -> list[EigenPair]:
    """Labelled eigenpairs of the doubly closed network, (n, alpha) order."""
    validate_spec(spec)
    if (
        spec.bc.site_bc is not BoundaryCondition.CLOSED
        or spec.bc.channel_bc is not BoundaryCondition.CLOSED
    ):
        raise ValueError("analytic eigenpairs require closed site and channel boundaries")
    N = spec.N
    j_eff, l_eff = spec.couplings.effective()
    V, offsets = _channel_modes()
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
) -> SpectralDecomposition:
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


def verify_reconstruction(decomp: SpectralDecomposition, H: np.ndarray) -> float:
    """Max entrywise |sum_k lambda_k P_k - H|, as |V diag(lambda) V^dagger - H|."""
    H = np.asarray(H, dtype=float)
    if H.shape != (decomp.dim, decomp.dim):
        raise ValueError(
            f"dimension mismatch: decomposition is {decomp.dim}, matrix is {H.shape}"
        )
    V = decomp.vectors
    rebuilt = (V * np.repeat(decomp.values, decomp.multiplicities)) @ V.conj().T
    return float(np.max(np.abs(rebuilt - H)))
