"""Single-excitation Hamiltonians for the four network topologies.

The matrix is the weighted adjacency matrix of the network graph: entry
(a, b) is J when a and b are neighbouring sites of the same channel, L
when they are two channels of the same site, and 0 otherwise. In the
site-major basis it factorises as

    H = J * (site adjacency) kron I_3  +  L * I_N kron (channel block)

where both factors are adjacency matrices of the chains of
NetworkSpec.chains: a ring (closed) or path (open) of N sites, and the
triangle (closed) or the 3-path 1-2-3 (open) of channels. neighbors
lists the same edges node by node, apart from the matrix route, so
each route can check the other. The diagonal is zero: the
uniform on-site energy is dropped as a global phase.

The dynamics never build this matrix: spectral.decompose works from the
two factors. It is written out by `spectrum --dump-matrix`.
"""

from __future__ import annotations

from enum import Enum
from typing import IO

import numpy as np

from .core import CHANNELS, NetworkSpec, Node, flat_index


class CouplingKind(Enum):
    SITE_J = "J"
    CHANNEL_L = "L"


def _chain_neighbors(x: int, size: int, closed: bool) -> list[int]:
    """The nodes next to node x of a ring (closed) or path of size nodes, ascending."""
    if closed:
        return sorted({(x - 1) % size, (x + 1) % size})
    return [y for y in (x - 1, x + 1) if 0 <= y < size]


def neighbors(node: Node, spec: NetworkSpec) -> list[tuple[Node, CouplingKind]]:
    """All nodes coupled to `node`, each tagged with its edge kind.

    Site neighbours come first in ascending site order, then channel
    neighbours in ascending channel order.
    """
    flat_index(node, spec.N)  # range check
    site, chan = spec.chains
    out = [(Node(m, node.alpha), CouplingKind.SITE_J) for m in _chain_neighbors(node.n, *site)]
    out.extend((Node(node.n, a + 1), CouplingKind.CHANNEL_L)
               for a in _chain_neighbors(node.alpha - 1, *chan))
    return out


def _chain_adjacency(size: int, closed: bool) -> np.ndarray:
    """Adjacency matrix of a ring (closed) or path of size nodes."""
    A = np.eye(size, k=1) + np.eye(size, k=-1)
    if closed:
        A[0, -1] = A[-1, 0] = 1.0
    return A


def build_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Dense 3N x 3N real symmetric Hamiltonian of the network."""
    j_eff, l_eff = spec.couplings.effective()
    S, C = (_chain_adjacency(*chain) for chain in spec.chains)
    return j_eff * np.kron(S, np.eye(CHANNELS)) + l_eff * np.kron(np.eye(spec.N), C)


def dump_matrix(H: np.ndarray, stream: IO[str]) -> None:
    """Plain-text dump: first line `dim= <3N>`, then one row per line."""
    stream.write(f"dim= {H.shape[0]}\n")
    np.savetxt(stream, H, fmt="%.17g")
