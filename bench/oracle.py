"""Independent reference for the benchmark's output checks.

H is rebuilt edge by edge from `neighbors` instead of the Kronecker
blocks of `build_hamiltonian`, diagonalised with a dense `eigh`, and
p(t) = |sum_j <a|v_j><v_j|b> exp(-i lambda_j t)|^2 is summed over the
ungrouped eigenvectors. No result of the library's spectral path
enters a check.
"""

from __future__ import annotations

import math

import numpy as np

from helix_pst import NetworkSpec, Node, flat_index, neighbors, node_from_index
from helix_pst.hamiltonian import CouplingKind

CHUNK = 1 << 12  # time points per block of the grid evaluation
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# a probability this close to a threshold counts on either side of it
P_MARGIN = 1e-7
# eigenvalues closer than this share of the spectral radius form one
# group, the CLI's documented grouping rule
GROUPING_SCALE = 1e-8


def adjacency_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    j_eff, l_eff = spec.couplings.effective()
    dim = 3 * spec.N
    H = np.zeros((dim, dim))
    for idx in range(dim):
        for other, kind in neighbors(node_from_index(idx, spec.N), spec):
            H[idx, flat_index(other, spec.N)] = j_eff if kind is CouplingKind.SITE_J else l_eff
    return H


class Oracle:
    """Dense eigensystem of one network, with p(t) for any node pair."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.H = adjacency_hamiltonian(spec)
        self.values, self.vectors = np.linalg.eigh(self.H)
        self.radius = float(np.max(np.abs(self.values)))

    def weights(self, a: Node, b: Node) -> np.ndarray:
        N = self.spec.N
        return self.vectors[flat_index(a, N)] * self.vectors[flat_index(b, N)]

    def p(self, a: Node, b: Node, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        amps = np.exp(-1j * np.outer(ts, self.values)) @ self.weights(a, b)
        return np.abs(amps) ** 2

    def p_grid(self, a: Node, b: Node, step: float, count: int) -> np.ndarray:
        """p at step * i for i < count: one exp block, then each block's
        start phase folded into the weights."""
        w = self.weights(a, b)
        base = np.exp(-1j * np.outer(step * np.arange(CHUNK), self.values))
        out = np.empty(count)
        for s in range(0, count, CHUNK):
            m = min(CHUNK, count - s)
            shifted = w * np.exp(-1j * self.values * (step * s))
            out[s:s + m] = np.abs(base[:m] @ shifted) ** 2
        return out

    def groups(self, a: Node, b: Node) -> tuple[np.ndarray, np.ndarray] | None:
        """Distinct eigenvalues and grouped overlaps <a|P_k|b>, or None when
        a gap lies within a factor 10 of the grouping width, where the
        grouping could go either way."""
        tol = GROUPING_SCALE * self.radius
        gaps = np.diff(self.values)
        if np.any((gaps > tol / 10) & (gaps <= tol * 10)):
            return None
        starts = np.concatenate(([0], np.flatnonzero(gaps > tol) + 1))
        sizes = np.diff(np.concatenate((starts, [len(self.values)])))
        values = np.add.reduceat(self.values, starts) / sizes
        return values, np.add.reduceat(self.weights(a, b), starts)

    def events(self, a: Node, b: Node, end: float, step: float,
               epsilon: float) -> list[float]:
        """Every t in [0, end] with p(t) >= 1 - epsilon, ascending: local
        maxima of a grid of `step` refined by golden section; peaks closer
        than two steps count once."""
        if float(np.sum(np.abs(self.weights(a, b)))) ** 2 < 1.0 - epsilon:
            return []  # triangle bound: no time reaches the threshold
        count = int(end / step) + 1
        p = self.p_grid(a, b, step, count)
        left = np.concatenate(([-1.0], p[:-1]))
        right = np.concatenate((p[1:], [-1.0]))
        found: list[tuple[float, float]] = []
        for i in np.flatnonzero((p > 1.0 - 2.0 * epsilon) & (p >= left) & (p >= right)):
            t, pt = self._refine(a, b, max((i - 1) * step, 0.0), min((i + 1) * step, end))
            if pt < 1.0 - epsilon + P_MARGIN:
                continue
            if found and t - found[-1][0] < 2.0 * step:
                found[-1] = max(found[-1], (t, pt), key=lambda tp: tp[1])
            else:
                found.append((t, pt))
        return [t for t, _ in found]

    def grid_blind(self, a: Node, b: Node, t: float, coarse: float, horizon: float,
                   epsilon: float) -> bool:
        """Whether a peak search on the grid k * coarse over [0, horizon]
        cannot see the event at t: neither grid point next to t has p
        above the 1 - 2 epsilon candidate threshold."""
        last = int(math.floor(horizon / coarse + 0.5))
        k = np.clip([math.floor(t / coarse), math.ceil(t / coarse)], 0, last)
        return bool(np.all(self.p(a, b, coarse * k) <= 1.0 - 2.0 * epsilon + P_MARGIN))

    def _refine(self, a: Node, b: Node, lo: float, hi: float) -> tuple[float, float]:
        def f(t: float) -> float:
            return float(self.p(a, b, [t])[0])

        x1, x2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > 1e-9:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + INV_PHI * (hi - lo)
                f2 = f(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - INV_PHI * (hi - lo)
                f1 = f(x1)
        return max(((x1, f1), (x2, f2), (lo, f(lo)), (hi, f(hi))), key=lambda tp: tp[1])
