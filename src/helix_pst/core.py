"""Domain types and index conventions for the three-channel spin network.

The network is a stack of three chains ("channels") of N sites each. A
single excitation lives on 3N basis states labelled by (site n, channel
alpha) with n in [0, N-1] and alpha in {1, 2, 3}. Basis ordering is
site-major: flat index 3*n + (alpha - 1), so each site contributes one
contiguous 3x3 block.

Both lattice directions can be closed (periodic) or open, giving four
topologies. Couplings can be given raw as (J, L) or in scaled units
where every energy is measured in L (J becomes gamma = J/L) and times
are tau = L * t. A NetworkSpec that breaks an invariant (site count,
finite couplings, an eigenvalue sum that does not overflow) cannot be
made, so no other layer checks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

CHANNELS = 3

# a site ring of fewer than 3 sites would duplicate or self-loop edges
MIN_SITES_CLOSED = 3
MIN_SITES_OPEN = 2
# largest N served; scan and evolve, the heaviest commands, peak near 430 MiB there
MAX_SITES = 10 ** 5


class BoundaryCondition(Enum):
    CLOSED = "closed"
    OPEN = "open"


@dataclass(frozen=True)
class BoundaryConditions:
    """Boundary conditions along the site direction and across channels."""

    site_bc: BoundaryCondition
    channel_bc: BoundaryCondition

    @classmethod
    def from_names(cls, site: str, channel: str) -> BoundaryConditions:
        return cls(BoundaryCondition(site), BoundaryCondition(channel))


@dataclass(frozen=True)
class Node:
    """One spin of the lattice, addressed as (site n, channel alpha)."""

    n: int
    alpha: int

    def __post_init__(self) -> None:
        if self.alpha not in (1, 2, 3):
            raise ValueError(f"channel must be 1, 2 or 3, got {self.alpha}")
        if self.n < 0:
            raise ValueError(f"site index must be non-negative, got {self.n}")


@dataclass(frozen=True)
class CouplingParams:
    """Coupling energies of the network.

    J couples neighbouring sites within a channel; L couples channels at
    a fixed site. There is no on-site energy E0: a uniform one shifts
    every level equally and cancels from all probabilities.

    With scaled=True the Hamiltonian is built in units of L (entries
    J/L and 1) and all times are understood as tau = L * t. Raw mode
    keeps (J, L) as given and permits L = 0, the decoupled-channel
    limit.
    """

    J: float
    L: float
    scaled: bool = False

    @classmethod
    def from_gamma(cls, gamma: float) -> CouplingParams:
        """Dimensionless parametrisation gamma = J/L used by the scans."""
        return cls(J=float(gamma), L=1.0, scaled=True)

    def effective(self) -> tuple[float, float]:
        """(site, channel) coupling strengths as they enter the matrix."""
        if self.scaled:
            return self.J / self.L, 1.0
        return self.J, self.L

    def eigenvalue_bound(self) -> float:
        """2 (|J_eff| + |L_eff|): a chain or ring of coupling c has its
        eigenvalues in [-2|c|, 2|c|], so every topology's lie within it."""
        site, channel = self.effective()
        return 2.0 * (abs(site) + abs(channel))


@dataclass(frozen=True)
class NetworkSpec:
    """Complete description of one network: size, topology, couplings.
    Every invariant is checked when a spec is made, by dataclasses.replace too."""

    N: int
    bc: BoundaryConditions
    couplings: CouplingParams

    def __post_init__(self) -> None:
        c = self.couplings
        if not (math.isfinite(c.J) and math.isfinite(c.L)):
            raise ValueError("couplings must be finite")
        if c.scaled and c.L == 0.0:
            raise ValueError("scaled couplings require L != 0")
        bound = c.eigenvalue_bound()
        if not math.isfinite(CHANNELS * self.N * bound):
            # decompose sums up to 3N eigenvalues of a group before it divides
            named = f"gamma={c.J / c.L:g}" if c.scaled else f"J={c.J:g}, L={c.L:g}"
            if not math.isfinite(bound):
                raise ValueError(f"couplings {named} too large: the eigenvalue bound "
                                 "2 (|J_eff| + |L_eff|) overflows")
            raise ValueError(f"couplings {named} too large for N={self.N}: the sum of 3N "
                             "eigenvalues, 3N * 2 (|J_eff| + |L_eff|), overflows")
        closed_sites = self.bc.site_bc is BoundaryCondition.CLOSED
        min_n = MIN_SITES_CLOSED if closed_sites else MIN_SITES_OPEN
        if self.N < min_n:
            raise ValueError(
                f"N={self.N} too small for {self.bc.site_bc.value} site "
                f"boundary (need N >= {min_n})"
            )
        if self.N > MAX_SITES:
            raise ValueError(f"N={self.N} too large (need N <= {MAX_SITES})")


def flat_index(node: Node, N: int) -> int:
    """Position of |n, alpha> in the site-major basis."""
    if not 0 <= node.n < N:
        raise ValueError(f"site index {node.n} out of range for N={N}")
    return CHANNELS * node.n + (node.alpha - 1)


def node_from_index(idx: int, N: int) -> Node:
    """Inverse of flat_index."""
    if not 0 <= idx < CHANNELS * N:
        raise ValueError(f"basis index {idx} out of range for N={N}")
    n, rem = divmod(idx, CHANNELS)
    return Node(n=n, alpha=rem + 1)
