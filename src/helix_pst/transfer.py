"""Transition probabilities and transfer bounds between two lattice nodes.

transfer_report gives a pair's overlaps o_k = <in| P_k |out> in a grouped
decomposition, which the spectral reports and transition_probability, the
reference of the tests, read: each the sum of the pair's factor terms
w_i q_a (spectral.pair_factors) whose eigenvalue lies in group k:

    p(t)  = | sum_k o_k exp(-i lambda_k t) |^2
    p_max = ( sum_k |o_k| )^2

p_max bounds p(t) for all t (triangle inequality) and is reached exactly
when all surviving phases align up to the overlap signs; where rational
relations among the values keep them apart, p(t) stays below it. Groups
with o_k = 0 are "dark": the excitation never passes through them and
they drop out of the phase-alignment analysis, and out of p_max.

probability_chunks is the one evaluator of p(t) on a time grid, in
blocks of CHUNK points over t = i * step, i < grid_count(horizon, step),
each one 64 x 64 complex matrix product of exactly seeded row phases.
The PST search's factor passes stream it, and the CLI traces stream
factor_chunks(site, chan, g, ...), the product of its streams over the
two Factors their command built once. probability_at is the one
evaluator of p at given times, for transition_probability and, once per
factor, for the search's points inside its windows and its refinement.
Both read a spectral.Factor, one of a pair's factors or the grouped sum:
a report's p on the grid is
probability_chunks(Factor(report.values, report.overlaps), step, count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Node
from .spectral import Factor, SpectralDecomposition, group_overlaps, pair_factors

DARK_TOL = 1e-10  # dark cut, relative to the pair's largest term (transfer_report)
ROOT = 64
CHUNK = ROOT * ROOT  # grid points per block of the p(t) evaluation


@dataclass(frozen=True)
class TransferReport:
    """Spectral footprint of one (input, output) node pair."""

    input: Node
    output: Node
    values: np.ndarray  # the decomposition's group eigenvalues, ascending
    overlaps: np.ndarray  # real, one per group
    p_max: float
    signs: np.ndarray  # int in {-1, 0, +1}, 0 marks a dark group

    @property
    def dark_groups(self) -> frozenset[int]:
        """The groups of sign 0, built from signs on each read."""
        return frozenset(np.flatnonzero(self.signs == 0).tolist())


def probability_at(factor: Factor, t):
    """p(t) = |sum_k w_k exp(-i v_k t)|^2 of a factor at a time t, or at
    each time of an array t. Each sum runs in einsum's own loop, so a
    time's p does not depend on the other times evaluated with it, and no
    BLAS product of many times at few terms goes to threads that cost
    more than the sum."""
    phases = -1j * (np.asarray(t)[..., None] * factor.values)
    np.exp(phases, out=phases)
    return np.abs(np.einsum("...k,k->...", phases, factor.weights)) ** 2


def transition_probability(
    decomp: SpectralDecomposition, input: Node, output: Node, t: float
) -> float:
    """p(t) = |<out| exp(-iHt) |in>|^2 via the grouped decomposition."""
    overlaps = group_overlaps(decomp, *pair_factors(decomp.spec, input, output))
    return float(probability_at(Factor(decomp.values, overlaps), t))


def grid_count(horizon: float, step: float) -> int:
    """Points of the grid 0, step, ..., horizon: the length of
    np.arange(0.0, horizon + step / 2, step), whose points are i * step."""
    return math.ceil((horizon + 0.5 * step) / step)


def probability_chunks(factor: Factor, step: float, count: int) -> Iterator[np.ndarray]:
    """Yield a factor's p(i * step), i < count, CHUNK points at a time, in order.

    The grid splits into rows of ROOT points, row r holding the indices
    ROOT * r + c, c < ROOT, below count, and each block into ROOT rows
    (fewer in the last block), raveled row by row. One inner table
    exp(-i v c step) serves every block; the block seeds each of its
    rows with w exp(-i v ROOT r step), computed from the row's own
    number, and is then one (rows x terms) @ (terms x ROOT) product.
    Each point's phase is thus the product of two directly evaluated
    phases, never of a chain of earlier ones, so rounding does not
    accumulate along the grid. The evaluation holds O(CHUNK + ROOT *
    terms) numbers besides the row numbers, one per ROOT points (an
    array: slicing it costs less per block than converting a range).
    """
    inner = np.exp(-1j * np.outer(factor.values, step * np.arange(ROOT)))
    picked = np.arange(-(-count // ROOT))
    for b in range(0, len(picked), ROOT):
        starts = ROOT * picked[b:b + ROOT]
        seeds = factor.weights * np.exp(-1j * np.outer(step * starts, factor.values))
        yield (np.abs(seeds @ inner) ** 2).ravel()[:ROOT * (len(starts) - 1) + count - starts[-1]]


def factor_chunks(site: Factor, chan: Factor, g: float, step: float,
                  count: int) -> Iterator[np.ndarray]:
    """p(i * step) for i < count in the blocks of probability_chunks, each
    p_site(g t) p_chan(t) from streams over a pair's at most N site and 3
    channel terms (spectral.pair_factors), g the site coupling J_eff."""
    return map(np.multiply, probability_chunks(Factor(g * site.values, site.weights), step, count),
               probability_chunks(chan, step, count))


def transfer_report(decomp: SpectralDecomposition, input: Node, output: Node) -> TransferReport:
    """Overlaps, bound, signs and dark groups of one node pair, with the
    decomposition's group values they belong to.

    Every overlap is a sum of factor terms w_i q_a. A dark group's sum
    cancels down to the rounding of those terms; a bright group's can be
    as small as one of them, and the terms shrink like 1/N. So a group
    is dark when its overlap lies below DARK_TOL times the pair's largest
    term, max|w| max|q|, which holds at any N and also when every group
    is dark. p_max sums the bright groups only, so a pair that is never
    reached reports 0, not the rounding left in its dark groups.
    """
    site, chan = pair_factors(decomp.spec, input, output)
    overlaps = group_overlaps(decomp, site, chan)
    cut = DARK_TOL * (np.max(np.abs(site.weights)) * np.max(np.abs(chan.weights)))
    signs = np.where(np.abs(overlaps) < cut, 0, np.sign(overlaps)).astype(int)
    bound = float(np.sum(np.abs(overlaps[signs != 0])) ** 2)
    return TransferReport(input, output, decomp.values, overlaps, bound, signs)
