from __future__ import annotations

import numpy as np
import pytest

from helix_pst import scan, transfer
from helix_pst import (
    BoundaryConditions,
    CouplingParams,
    NetworkSpec,
    build_hamiltonian,
    decompose,
    validate_spec,
)
from oracles import eigendecompose_numeric


def make_spec(N, site_bc, channel_bc, *, gamma=None, J=None, L=None) -> NetworkSpec:
    if gamma is not None:
        couplings = CouplingParams.from_gamma(gamma)
    else:
        couplings = CouplingParams(J=J, L=L)
    bc = BoundaryConditions.from_names(site_bc, channel_bc)
    return validate_spec(NetworkSpec(N, bc, couplings))


def make_decomp(N, site_bc, channel_bc, **kw):
    spec = make_spec(N, site_bc, channel_bc, **kw)
    return spec, decompose(spec)


def make_dense(N, site_bc, channel_bc, **kw):
    """The dense oracle: eigh of the full Hamiltonian, grouped."""
    spec = make_spec(N, site_bc, channel_bc, **kw)
    return spec, eigendecompose_numeric(build_hamiltonian(spec))


def count_grid_points(monkeypatch, modules=(transfer, scan)) -> list[int]:
    """Sizes of the blocks the p(t) grid kernel yields from now on, under
    the name each of modules (by default every importer) imported it as."""
    sizes: list[int] = []
    real = transfer.probability_chunks

    def counted(*args):
        for chunk in real(*args):
            sizes.append(len(chunk))
            yield chunk

    for module in modules:
        monkeypatch.setattr(module, "probability_chunks", counted)
    return sizes


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
