"""Independent cross-check routes used by the tests.

Everything here deliberately avoids the library's production paths:
the propagator is a scaled-and-squared Taylor series instead of a
spectral resolution, the Hamiltonian is rebuilt edge by edge from
neighbor lists instead of Kronecker blocks, and the product rule
propagates the site and channel factors as separate small matrices.
`reference_pst_times` keeps the earlier peak search (a dense complex
exp grid and a per-point candidate loop) as the reference that the
chunked scan must reproduce exactly.
"""

from __future__ import annotations

import math

import numpy as np

from helix_pst import NetworkSpec, Node, flat_index, neighbors, node_from_index
from helix_pst.core import BoundaryCondition
from helix_pst.hamiltonian import CouplingKind
from helix_pst.transfer import projector_overlaps


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
            t_star, p_star = _reference_golden_max(p_of, a, b, cfg.refine_iters)
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
