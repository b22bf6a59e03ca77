"""Grouped spectral decomposition from the network's two factors.

The Hamiltonian is a Cartesian product,

    H = J S kron I_3 + L I_N kron C,

of a site chain S (a ring of N sites when closed, a path when open)
and a channel block C (the triangle when closed, the 3-path when open),
so its eigenpairs are (J sigma_i + L c_a, u_i kron v_a) over the modes
i of S and a of C (Christandl et al., PRL 92, 187902, 2004; Godsil,
Discrete Math. 312, 2012). Both factors are chains of n nodes (n = N
for the sites, giving sigma, and n = 3 for the channels, giving c) with
closed-form modes k < n:

    ring  mu_k = 2 cos(2 pi min(k, n-k) / n),
          u_k[x] u_k[y] -> cos(2 pi k (x-y) / n) / n
    path  mu_k = 2 cos(pi (k+1) / (n+1)),
          u_k[x] = sqrt(2 / (n+1)) sin(pi (k+1) (x+1) / (n+1))

For the ring the two modes k and n-k share one value, bit for bit, and
the weight given is the real part of the plane-wave product: only
their sum is a projector entry, and since equal values always share a
group, only that sum is ever read.

decompose sorts the 3N values lambda = J sigma_i + L c_a once and
groups neighbours that differ by at most GROUPING_EPS eps B, B = 2 (|J|
+ |L|) the eigenvalue bound (CouplingParams.eigenvalue_bound), so exact
ties between the factors (which decide p_max, the dark sets and the
congruence chain) join one group. The width is the rounding of the
values: a phase pi m / n carries a relative error of about 2 eps, so
mu = 2 cos(phase) is off by at most 2 (2 pi + 1/2) eps < 14 eps, the
products J mu and L c add half an ulp each and their sum another, so a
value lies within 8 eps B of its exact one and two equal levels within
16 eps B of each other; 64 eps B leaves a factor of four. Distinct
levels stay apart to far larger N than any rule relative to the
spectral radius allows: near a path's band edge they lie about
|J| 3 (pi / (N + 1))^2 apart, 6e-9 |J| at N = 10^5.
A group is then its value, its multiplicity and its smallest sorted
value: the spectrum, and nothing per mode. The overlap of a node pair
with group k, <in| P_k |out>, is the sum of the terms w_i q_a of the
pair's two Factors (pair_factors) whose eigenvalue J sigma_i + L c_a
lies in the group. That eigenvalue is bit for bit one of the values
decompose sorted, so one search over the groups' smallest values
places every term exactly: O(N log N) time and O(N) memory per pair,
with no Hamiltonian and no eigensolver. Only the spectral reports
(spectrum, p_max, dark sets, congruence chains) need the groups; the
time domain reads pair_factors alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NetworkSpec, Node, flat_index

# eigenvalue grouping width in eps times the eigenvalue bound (module docstring)
GROUPING_EPS = 64


@dataclass(frozen=True)
class SpectralDecomposition:
    """Pairwise distinct eigenvalues of a network and their multiplicities.

    Group k holds the sorted eigenvalues from `lows[k]` up to, not
    including, `lows[k + 1]`.
    """

    values: np.ndarray  # distinct eigenvalues, ascending
    multiplicities: np.ndarray  # int per group, sums to 3N
    grouping_tol: float
    lows: np.ndarray  # smallest sorted eigenvalue of each group
    spec: NetworkSpec

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)  # generated == and hash fail on arrays
class Factor:
    """sum_k w_k exp(-i v_k t): one factor of a pair's amplitude, or a grouped sum."""

    values: np.ndarray  # v_k
    weights: np.ndarray  # w_k, one per value

    @cached_property
    def spread(self) -> tuple[float, float]:
        """W2 = sum_k |w_k| (v_k - c)^2 about the |w|-weighted mean c, and sum |w|."""
        a = np.abs(self.weights)
        total = float(a.sum())
        c = a @ self.values / total if total else 0.0
        with np.errstate(over="ignore"):  # an inf W2 certifies no step (scan._step_for gives 0)
            return float(a @ (self.values - c) ** 2), total


def _chain_values(size: int, closed: bool) -> np.ndarray:
    """Adjacency eigenvalues mu_k, k < size, of a ring or path of size nodes."""
    k = np.arange(size)
    if closed:
        return 2.0 * np.cos(2.0 * np.pi * np.minimum(k, size - k) / size)
    return 2.0 * np.cos(np.pi * (k + 1) / (size + 1))


def _chain_weights(size: int, closed: bool, x: int, y: int) -> np.ndarray:
    """u_k[x] u_k[y] for every mode k of _chain_values(size, closed).

    Phases are reduced modulo their period in integers first, so the
    weights keep full precision at any size.
    """
    k = np.arange(size)
    if closed:
        return np.cos(2.0 * np.pi * (k * (x - y) % size) / size) / size
    period = 2 * (size + 1)
    k += 1
    return (2.0 / (size + 1)) * (
        np.sin(np.pi * (k * (x + 1) % period) / (size + 1))
        * np.sin(np.pi * (k * (y + 1) % period) / (size + 1))
    )


def decompose(spec: NetworkSpec) -> SpectralDecomposition:
    """Grouped decomposition of the network from its factors' closed forms."""
    j_eff, l_eff = spec.couplings.effective()
    site, chan = spec.chains
    values = np.sort(np.add.outer(j_eff * _chain_values(*site), l_eff * _chain_values(*chan)),
                     axis=None)
    tol = GROUPING_EPS * np.finfo(float).eps * spec.couplings.eigenvalue_bound()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(values) > tol) + 1))
    mult = np.diff(np.append(starts, len(values)))
    group_values = np.add.reduceat(values, starts) / mult
    return SpectralDecomposition(group_values, mult, tol, values[starts], spec)


def _folded(values: np.ndarray, weights: np.ndarray) -> Factor:
    """Equal values merged, ascending, with their weights summed in index
    order; zero sums dropped."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    weights = np.add.reduceat(weights[order], starts)
    keep = weights != 0.0
    return Factor(values[starts][keep], weights[keep])


def pair_factors(spec: NetworkSpec, input: Node, output: Node) -> tuple[Factor, Factor]:
    """The pair's site factor, in units of J_eff, and its channel factor,
    folded, then scaled by L_eff: the amplitude is sum_i w_i exp(-i J_eff
    sigma_i t) times sum_a q_a exp(-i L_eff c_a t), at most N and 3 terms;
    at L = 0 the channel factor is delta_{alpha beta}."""
    site, chan = spec.chains
    flat_index(input, spec.N)  # range checks
    flat_index(output, spec.N)
    q = _chain_weights(*chan, input.alpha - 1, output.alpha - 1)
    s = _chain_weights(*site, input.n, output.n)
    channel = _folded(_chain_values(*chan), q)
    l_eff = spec.couplings.effective()[1]
    channel = (Factor(l_eff * channel.values, channel.weights) if l_eff != 0.0
               else Factor(np.zeros(1), np.array([float(input.alpha == output.alpha)])))
    return _folded(_chain_values(*site), s), channel


def group_overlaps(decomp: SpectralDecomposition, site: Factor, chan: Factor) -> np.ndarray:
    """Overlaps of a pair's factors (pair_factors) with each group: the
    sum of the terms w_i q_a whose eigenvalue J_eff sigma_i + L_eff c_a
    the group holds. That eigenvalue is bit for bit one that decompose
    sorted (at L = 0 up to the sign of a zero), so the last group whose
    smallest value does not exceed it is its own. Channel by channel the
    terms form at most three sorted runs, which one search reads nearly
    in order, and one bincount sums them: O(N log N) in all."""
    sigma = decomp.spec.couplings.effective()[0] * site.values
    groups = np.searchsorted(decomp.lows, np.add.outer(chan.values, sigma).ravel(), side="right")
    groups -= 1
    terms = np.outer(chan.weights, site.weights).ravel()
    return np.bincount(groups, terms, minlength=len(decomp))
