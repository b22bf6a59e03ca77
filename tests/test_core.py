import dataclasses
import math

import numpy as np
import pytest

from helix_pst import hamiltonian, spectral
from helix_pst.core import MAX_SITES
from helix_pst import (
    BoundaryCondition,
    BoundaryConditions,
    CouplingParams,
    NetworkSpec,
    Node,
    flat_index,
    node_from_index,
)


def test_flat_index_known_values():
    assert flat_index(Node(0, 1), 8) == 0
    assert flat_index(Node(0, 3), 8) == 2
    assert flat_index(Node(4, 1), 8) == 12
    assert flat_index(Node(7, 3), 8) == 23


def test_index_round_trip_exhaustive():
    for N in range(2, 33):
        for idx in range(3 * N):
            node = node_from_index(idx, N)
            assert flat_index(node, N) == idx
            assert 0 <= node.n < N
            assert node.alpha in (1, 2, 3)


def test_flat_index_rejects_out_of_range_site():
    with pytest.raises(ValueError):
        flat_index(Node(8, 1), 8)


def test_node_validation():
    with pytest.raises(ValueError):
        Node(0, 0)
    with pytest.raises(ValueError):
        Node(0, 4)
    with pytest.raises(ValueError):
        Node(-1, 1)


def test_node_from_index_range():
    with pytest.raises(ValueError):
        node_from_index(-1, 4)
    with pytest.raises(ValueError):
        node_from_index(12, 4)


def test_boundary_conditions_from_names():
    bc = BoundaryConditions.from_names("closed", "open")
    assert bc.site_bc is BoundaryCondition.CLOSED
    assert bc.channel_bc is BoundaryCondition.OPEN
    with pytest.raises(ValueError):
        BoundaryConditions.from_names("periodic", "open")


def test_from_gamma_sets_scaled_units():
    cp = CouplingParams.from_gamma(3.0)
    assert cp.scaled
    assert cp.effective() == (3.0, 1.0)


def test_effective_divides_by_L_only_when_scaled():
    raw = CouplingParams(J=4.0, L=2.0)
    assert raw.effective() == (4.0, 2.0)
    scaled = CouplingParams(J=4.0, L=2.0, scaled=True)
    assert scaled.effective() == (2.0, 1.0)


def test_validate_spec_site_count_depends_on_boundary():
    bc_closed = BoundaryConditions.from_names("closed", "closed")
    bc_open = BoundaryConditions.from_names("open", "closed")
    cp = CouplingParams(J=1.0, L=1.0)
    with pytest.raises(ValueError):
        NetworkSpec(2, bc_closed, cp)
    assert NetworkSpec(2, bc_open, cp).N == 2
    assert NetworkSpec(3, bc_closed, cp).N == 3


def test_validate_spec_rejects_scaled_zero_L():
    bc = BoundaryConditions.from_names("closed", "closed")
    with pytest.raises(ValueError):
        NetworkSpec(4, bc, CouplingParams(J=1.0, L=0.0, scaled=True))
    # raw L = 0 is allowed: channels decouple
    NetworkSpec(4, bc, CouplingParams(J=1.0, L=0.0))


def test_validate_spec_rejects_non_finite_couplings():
    bc = BoundaryConditions.from_names("closed", "closed")
    with pytest.raises(ValueError):
        NetworkSpec(4, bc, CouplingParams(J=math.nan, L=1.0))
    with pytest.raises(ValueError):
        NetworkSpec(4, bc, CouplingParams(J=1.0, L=math.inf))


@pytest.mark.parametrize("couplings, named", [
    (CouplingParams.from_gamma(1e308), "gamma=1e+308"),
    (CouplingParams(J=1e300, L=1e-300, scaled=True), "gamma=inf"),
    (CouplingParams(J=1e308, L=1.0), "J=1e+308, L=1"),
    (CouplingParams(J=1.0, L=-1e308), "J=1, L=-1e+308"),
    (CouplingParams(J=8e307, L=8e307), "J=8e+307, L=8e+307"),
])
def test_validate_spec_rejects_couplings_whose_eigenvalue_bound_overflows(couplings, named):
    # finite couplings whose J_eff sigma + L_eff c can overflow
    bc = BoundaryConditions.from_names("open", "closed")
    with pytest.raises(ValueError) as err:
        NetworkSpec(4, bc, couplings)
    assert str(err.value) == (f"couplings {named} too large: the eigenvalue bound "
                              "2 (|J_eff| + |L_eff|) overflows")
    # couplings whose bound stays finite over the 3N eigenvalues pass
    NetworkSpec(4, bc, CouplingParams(J=3.7e306, L=-3.7e306))


def test_validate_spec_rejects_couplings_whose_eigenvalue_sum_overflows():
    # decompose sums up to 3N eigenvalues of a group before it divides, so
    # a finite bound 2 (|J_eff| + |L_eff|) is not enough: at N = 8 a group
    # of gamma = 4e307 would sum to -inf
    bc = BoundaryConditions.from_names("closed", "closed")
    with pytest.raises(ValueError) as err:
        NetworkSpec(8, bc, CouplingParams.from_gamma(4e307))
    assert str(err.value) == ("couplings gamma=4e+307 too large for N=8: the sum of 3N "
                              "eigenvalues, 3N * 2 (|J_eff| + |L_eff|), overflows")
    with pytest.raises(ValueError, match="^couplings J=1e[+]300, L=-1e[+]306 too large for N=9000: "):
        NetworkSpec(9000, bc, CouplingParams(J=1e300, L=-1e306))
    # the largest gamma accepted at N = 8 keeps every group's sum finite
    spec = NetworkSpec(8, bc, CouplingParams.from_gamma(3.7e306))
    with np.errstate(all="raise"):
        values = spectral.decompose(spec).values
    assert np.all(np.isfinite(values))
    assert values[0] == pytest.approx(-2.0 * 3.7e306, rel=1e-12)


def test_validate_spec_bounds_the_site_count():
    bc = BoundaryConditions.from_names("open", "open")
    cp = CouplingParams.from_gamma(2.0)
    assert NetworkSpec(MAX_SITES, bc, cp).N == MAX_SITES
    with pytest.raises(ValueError) as err:
        NetworkSpec(MAX_SITES + 1, bc, cp)
    assert str(err.value) == f"N={MAX_SITES + 1} too large (need N <= {MAX_SITES})"


def test_library_entries_refuse_a_network_beyond_the_site_limit(monkeypatch):
    # no such network can be made, whichever way it is built, so no entry
    # of the library ever sees one; making it builds no array of the network
    def refuse(*args):
        raise AssertionError("an array of the network was built")

    for module, name in ((spectral, "_chain_values"), (spectral, "_chain_weights"),
                         (hamiltonian, "_site_adjacency")):
        monkeypatch.setattr(module, name, refuse)
    N = 10 ** 8
    bc = BoundaryConditions.from_names("closed", "open")
    small = NetworkSpec(8, bc, CouplingParams.from_gamma(2.0))
    makes = [
        lambda: NetworkSpec(N, bc, CouplingParams.from_gamma(2.0)),
        lambda: NetworkSpec(N, bc, CouplingParams(J=1.0, L=0.0)),
        lambda: dataclasses.replace(small, N=N),
    ]
    for make in makes:
        with pytest.raises(ValueError, match=f"^N={N} too large"):
            make()
