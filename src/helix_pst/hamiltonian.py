"""Single-excitation Hamiltonians for the four network topologies.

The matrix is the weighted adjacency matrix of the network graph: entry
(a, b) is J when a and b are neighbouring sites of the same channel, L
when they are two channels of the same site, and 0 otherwise. In the
site-major basis it factorises as

    H = J * (site adjacency) kron I_3  +  L * I_N kron (channel block)

where the channel block is the complete triangle (closed channels) or
the 3-site path 1-2-3 (open channels), and the site adjacency is a ring
(closed sites) or a path (open sites). The diagonal is zero: the
uniform on-site energy is dropped as a global phase.

The dynamics never build this matrix: spectral.decompose works from the
two factors. It is written out by `spectrum --dump-matrix`.
"""

from __future__ import annotations

from enum import Enum
from typing import IO

import numpy as np

from .core import (
    CHANNELS,
    BoundaryCondition,
    NetworkSpec,
    Node,
    flat_index,
    validate_spec,
)


class CouplingKind(Enum):
    SITE_J = "J"
    CHANNEL_L = "L"


_OPEN_CHANNEL_NEIGHBORS = {1: (2,), 2: (1, 3), 3: (2,)}


def neighbors(node: Node, spec: NetworkSpec) -> list[tuple[Node, CouplingKind]]:
    """All nodes coupled to `node`, each tagged with its edge kind.

    Site neighbours come first in ascending site order, then channel
    neighbours in ascending channel order.
    """
    validate_spec(spec)
    flat_index(node, spec.N)  # range check
    n, N = node.n, spec.N
    if spec.bc.site_bc is BoundaryCondition.CLOSED:
        sites = sorted({(n - 1) % N, (n + 1) % N})
    else:
        sites = [m for m in (n - 1, n + 1) if 0 <= m < N]
    out: list[tuple[Node, CouplingKind]] = [
        (Node(m, node.alpha), CouplingKind.SITE_J) for m in sites
    ]
    if spec.bc.channel_bc is BoundaryCondition.CLOSED:
        chans = [c for c in (1, 2, 3) if c != node.alpha]
    else:
        chans = list(_OPEN_CHANNEL_NEIGHBORS[node.alpha])
    out.extend((Node(n, c), CouplingKind.CHANNEL_L) for c in chans)
    return out


def _site_adjacency(N: int, closed: bool) -> np.ndarray:
    S = np.zeros((N, N))
    for n in range(N - 1):
        S[n, n + 1] = S[n + 1, n] = 1.0
    if closed:
        S[0, N - 1] = S[N - 1, 0] = 1.0
    return S


def _channel_block(closed: bool) -> np.ndarray:
    C = np.zeros((CHANNELS, CHANNELS))
    edges = ((0, 1), (1, 2), (0, 2)) if closed else ((0, 1), (1, 2))
    for a, b in edges:
        C[a, b] = C[b, a] = 1.0
    return C


def build_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Dense 3N x 3N real symmetric Hamiltonian of the network."""
    validate_spec(spec)
    j_eff, l_eff = spec.couplings.effective()
    S = _site_adjacency(spec.N, spec.bc.site_bc is BoundaryCondition.CLOSED)
    C = _channel_block(spec.bc.channel_bc is BoundaryCondition.CLOSED)
    return j_eff * np.kron(S, np.eye(CHANNELS)) + l_eff * np.kron(np.eye(spec.N), C)


def dump_matrix(H: np.ndarray, stream: IO[str]) -> None:
    """Plain-text dump: first line `dim= <3N>`, then one row per line."""
    stream.write(f"dim= {H.shape[0]}\n")
    for row in np.asarray(H):
        stream.write(" ".join("%.17g" % x for x in row) + "\n")
