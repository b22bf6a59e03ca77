"""Transition probabilities and transfer bounds between two lattice nodes.

The spectral reports and transition_probability, the reference of the
tests, read the overlaps o_k = <in| P_k |out> of a grouped decomposition,
each the sum of the pair's factor terms w_i q_a (spectral.pair_factors)
whose eigenvalue lies in group k:

    p(t)  = | sum_k o_k exp(-i lambda_k t) |^2
    p_max = ( sum_k |o_k| )^2

p_max bounds p(t) for all t (triangle inequality) and is reached exactly
when all surviving phases align up to the overlap signs. Groups with
o_k = 0 are "dark": the excitation never passes through them and they
drop out of the phase-alignment analysis, and out of p_max.

probability_chunks is the one evaluator of p(t) on a time grid, in
blocks of CHUNK points over t = i * step, i < grid_count(horizon, step),
each one 64 x 64 complex matrix product of exactly seeded row phases.
The PST search's factor passes stream it, and the CLI traces stream
factor_chunks, the product of two of its streams. probability_at is
the one evaluator of p at given times, for transition_probability and,
once per factor, for the search's points inside its windows and its
refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import NetworkSpec, Node
from .spectral import SpectralDecomposition, group_overlaps, pair_factors, projector_overlaps

DARK_TOL = 1e-10  # dark cut, relative to the pair's largest term (transfer_report)
ROOT = 64
CHUNK = ROOT * ROOT  # grid points per block of the p(t) evaluation


@dataclass(frozen=True)
class TransferReport:
    """Spectral footprint of one (input, output) node pair."""

    input: Node
    output: Node
    overlaps: np.ndarray  # real, one per distinct-eigenvalue group
    p_max: float
    signs: np.ndarray  # int in {-1, 0, +1}, 0 marks a dark group
    dark_groups: frozenset[int]


def probability_at(overlaps: np.ndarray, values: np.ndarray, t):
    """p(t) = |sum_k o_k exp(-i lambda_k t)|^2 at a time t, or at each time
    of an array t. Each sum runs in einsum's own loop, so a time's p does
    not depend on the other times evaluated with it, and no BLAS product
    of many times at few terms goes to threads that cost more than the
    sum."""
    phases = -1j * (np.asarray(t)[..., None] * values)
    np.exp(phases, out=phases)
    return np.abs(np.einsum("...k,k->...", phases, overlaps)) ** 2


def transition_probability(
    decomp: SpectralDecomposition, input: Node, output: Node, t: float
) -> float:
    """p(t) = |<out| exp(-iHt) |in>|^2 via the grouped decomposition."""
    return float(probability_at(projector_overlaps(decomp, input, output), decomp.values, t))


def grid_count(horizon: float, step: float) -> int:
    """Points of the grid 0, step, ..., horizon: the length of
    np.arange(0.0, horizon + step / 2, step), whose points are i * step."""
    return math.ceil((horizon + 0.5 * step) / step)


def probability_chunks(
    overlaps: np.ndarray, values: np.ndarray, step: float, count: int
) -> Iterator[np.ndarray]:
    """Yield p(i * step) for i < count, CHUNK points at a time, in order.

    The grid splits into rows of ROOT points, row r holding the indices
    ROOT * r + c, c < ROOT, below count, and each block into ROOT rows
    (fewer in the last block), raveled row by row. One inner table
    exp(-i lambda c step) serves every block; the block seeds each of
    its rows with o exp(-i lambda ROOT r step), computed from the row's
    own number, and is then one (rows x groups) @ (groups x ROOT)
    product. Each point's phase is thus the product of two directly
    evaluated phases, never of a chain of earlier ones, so rounding does
    not accumulate along the grid. The evaluation holds
    O(CHUNK + ROOT * groups) numbers besides the row numbers, one per
    ROOT points (an array: slicing it costs less per block than
    converting a range).
    """
    inner = np.exp(-1j * np.outer(values, step * np.arange(ROOT)))
    picked = np.arange(-(-count // ROOT))
    for b in range(0, len(picked), ROOT):
        starts = ROOT * picked[b:b + ROOT]
        seeds = overlaps * np.exp(-1j * np.outer(step * starts, values))
        yield (np.abs(seeds @ inner) ** 2).ravel()[:ROOT * (len(starts) - 1) + count - starts[-1]]


def factor_chunks(spec: NetworkSpec, input: Node, output: Node, step: float,
                  count: int) -> Iterator[np.ndarray]:
    """p(i * step) for i < count in the blocks of probability_chunks, each
    p_site(J_eff t) p_chan(t) from streams over the pair's at most N site
    and 3 channel terms (spectral.pair_factors), read at the call."""
    (sigma, s), (c, q) = pair_factors(spec, input, output)
    return map(np.multiply,
               probability_chunks(s, spec.couplings.effective()[0] * sigma, step, count),
               probability_chunks(q, c, step, count))


def sign_factors(overlaps: np.ndarray, dark_tol: float) -> np.ndarray:
    """Signs of the overlaps; entries below dark_tol in magnitude get 0."""
    o = np.asarray(overlaps, dtype=float)
    return np.where(np.abs(o) < dark_tol, 0, np.sign(o)).astype(int)


def transfer_report(decomp: SpectralDecomposition, input: Node, output: Node) -> TransferReport:
    """Overlaps, bound, signs and dark groups of one node pair.

    Every overlap is a sum of factor terms w_i q_a. A dark group's sum
    cancels down to the rounding of those terms; a bright group's can be
    as small as one of them, and the terms shrink like 1/N. So a group
    is dark when its overlap lies below DARK_TOL times the pair's largest
    term, max|w| max|q|, which holds at any N and also when every group
    is dark. p_max sums the bright groups only, so a pair that is never
    reached reports 0, not the rounding left in its dark groups.
    """
    factors = pair_factors(decomp.spec, input, output)
    overlaps = group_overlaps(decomp, factors)
    (_, w), (_, q) = factors
    signs = sign_factors(overlaps, DARK_TOL * (np.max(np.abs(w)) * np.max(np.abs(q))))
    dark = frozenset(int(k) for k in np.flatnonzero(signs == 0))
    bound = float(np.sum(np.abs(overlaps[signs != 0])) ** 2)
    return TransferReport(input, output, overlaps, bound, signs, dark)
