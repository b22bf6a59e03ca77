import math
from itertools import combinations

import numpy as np
import pytest

from conftest import make_decomp
from helix_pst import (
    Constraint,
    Node,
    check_attainability,
    independent_constraints,
    transfer_report,
    transition_probability,
)
from oracles import closed_closed_example_constraints, same_class_step

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def ring8_report():
    _, decomp = make_decomp(8, "closed", "closed", gamma=3.0)
    report = transfer_report(decomp, Node(0, 1), Node(4, 1))
    return decomp, report, independent_constraints(report, decomp)


def test_chain_spans_consecutive_bright_groups(ring8_report):
    decomp, report, chain = ring8_report
    assert len(chain) == len(decomp) - 1  # nothing is dark for this pair
    deltas = sorted(round(c.delta_lambda, 9) for c in chain)
    gamma = 3.0
    expected = sorted(
        round(v, 9)
        for v in [(2 - SQRT2) * gamma] * 4 + [SQRT2 * gamma - 3.0] * 4 + [3.0]
    )
    assert deltas == expected


def test_chain_offsets_follow_sign_pattern(ring8_report):
    _, report, chain = ring8_report
    zero = [c for c in chain if c.offset == 0.0]
    pi = [c for c in chain if abs(c.offset) == pytest.approx(math.pi)]
    assert len(zero) == 1 and len(pi) == len(chain) - 1
    # the same-sign step is the channel splitting
    assert zero[0].delta_lambda == pytest.approx(3.0, abs=1e-9)


def test_residuals_at_frozen_times(ring8_report):
    _, _, chain = ring8_report
    good = check_attainability(chain, 73.3055, tol=0.05)
    assert good.all_satisfied
    assert good.residuals.max() == pytest.approx(0.018804, abs=1e-4)
    # the shallower revival passes only at a looser tolerance
    first = check_attainability(chain, 12.57618, tol=0.05)
    assert not first.all_satisfied
    assert check_attainability(chain, 12.57618, tol=0.2).all_satisfied
    mid = check_attainability(chain, 42.94, tol=0.2)
    assert not mid.all_satisfied
    assert mid.residuals.max() > 3.0


def test_satisfied_k_are_the_nearest_integers(ring8_report):
    _, _, chain = ring8_report
    result = check_attainability(chain, 73.3055, tol=0.05)
    for c in result.constraints:
        expect = round((c.delta_lambda * 73.3055 - c.offset) / (2 * math.pi))
        assert c.satisfied_k == expect


def test_chain_satisfaction_extends_to_all_pairs(ring8_report):
    # offsets add along the chain, so a satisfied chain bounds the
    # residual of any pair by the chain length times the tolerance
    decomp, report, chain = ring8_report
    t = 73.3055
    groups = [k for k in range(len(decomp)) if k not in report.dark_groups]
    for a, b in combinations(groups, 2):
        delta = float(decomp.values[b] - decomp.values[a])
        off = 0.0 if report.signs[a] == report.signs[b] else math.pi
        pair = Constraint(a, b, delta, off)
        res = check_attainability([pair], t, tol=len(chain) * 0.02)
        assert res.all_satisfied


def test_empty_chain_is_trivially_satisfied():
    result = check_attainability([], 1.23, tol=0.05)
    assert result.all_satisfied
    assert result.residuals.shape == (0,)


def test_dark_groups_never_enter_the_chain():
    _, decomp = make_decomp(8, "closed", "closed", gamma=2.5)
    report = transfer_report(decomp, Node(0, 1), Node(2, 1))
    chain = independent_constraints(report, decomp)
    used = {c.left_group for c in chain} | {c.right_group for c in chain}
    assert used.isdisjoint(report.dark_groups)
    assert len(chain) == len(decomp) - len(report.dark_groups) - 1


def test_alignment_without_full_transfer():
    # pure channel triangle: both congruences can be met exactly while
    # p_max stays at 4/9, so alignment does not imply unit transfer
    _, decomp = make_decomp(3, "closed", "closed", gamma=0.0)
    a, b = Node(0, 1), Node(0, 2)
    report = transfer_report(decomp, a, b)
    chain = independent_constraints(report, decomp)
    assert len(chain) == 1
    assert chain[0].delta_lambda == pytest.approx(3.0, abs=1e-12)
    assert chain[0].offset == pytest.approx(math.pi)
    t_star = math.pi / 3.0
    result = check_attainability(chain, t_star, tol=1e-9)
    assert result.all_satisfied
    bound = report.p_max
    assert bound == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert transition_probability(decomp, a, b, t_star) == pytest.approx(bound, abs=1e-12)


def test_same_class_step_identity():
    for N in (5, 8, 12):
        for n in range(N // 2):
            direct = 2 * 2.5 * (math.cos(2 * math.pi * n / N) - math.cos(2 * math.pi * (n + 1) / N))
            assert same_class_step(N, 2.5, n) == pytest.approx(direct, abs=1e-12)


def test_example_constraint_table_n8():
    table = closed_closed_example_constraints(8, 3.0)
    coeffs = sorted(c for _, c in table)
    expected = sorted([(2 - SQRT2) * 3, SQRT2 * 3, (2 - SQRT2) * 3 + 3, SQRT2 * 3 + 3, 3.0])
    assert coeffs == pytest.approx(expected, abs=1e-9)


def test_example_constraint_table_dedupes():
    # N = 4, gamma = 1.5: every same-class step is 2 gamma = 3, which
    # also ties the channel splitting, so two coefficients remain
    table = closed_closed_example_constraints(4, 1.5)
    assert sorted(c for _, c in table) == pytest.approx([3.0, 6.0], abs=1e-9)


def test_check_attainability_rejects_bad_tol(ring8_report):
    _, _, chain = ring8_report
    with pytest.raises(ValueError):
        check_attainability(chain, 1.0, tol=-0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            check_attainability(chain, 1.0, tol=bad)


def test_check_attainability_rejects_non_finite_time(ring8_report):
    _, _, chain = ring8_report
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be finite"):
            check_attainability(chain, bad)
        with pytest.raises(ValueError, match="time must be finite"):
            check_attainability([], bad)  # also with nothing to evaluate


def _loop_chain(report, decomp):
    """The chain and its check one constraint at a time, the reference
    of the array forms."""
    bright = sorted((k for k in range(len(decomp)) if k not in report.dark_groups),
                    key=lambda k: -decomp.values[k])
    chain = []
    for hi, lo in zip(bright, bright[1:]):
        s_hi, s_lo = int(report.signs[hi]), int(report.signs[lo])
        offset = 0.0 if s_hi == s_lo else (math.pi if s_hi > s_lo else -math.pi)
        chain.append(Constraint(hi, lo, float(decomp.values[hi] - decomp.values[lo]), offset))
    return chain


@pytest.mark.parametrize("N, site, channel, pair", [
    (8, "closed", "closed", (Node(0, 1), Node(4, 1))),
    (8, "closed", "closed", (Node(0, 1), Node(2, 3))),
    (9, "open", "closed", (Node(1, 2), Node(7, 1))),
    (40, "open", "open", (Node(0, 1), Node(39, 3))),
])
def test_array_chain_and_check_equal_the_loop(N, site, channel, pair):
    _, decomp = make_decomp(N, site, channel, gamma=2.7)
    report = transfer_report(decomp, *pair)
    chain = independent_constraints(report, decomp)
    assert chain == _loop_chain(report, decomp)
    # at t = 1e300 the witnesses are integers far beyond 64 bits
    for t in (0.7, 12.576181, 1e4, 1e300):
        result = check_attainability(chain, t)
        for c, got, r in zip(chain, result.constraints, result.residuals):
            x = c.delta_lambda * t - c.offset
            k = round(x / (2.0 * math.pi))
            assert got == Constraint(c.left_group, c.right_group, c.delta_lambda, c.offset, k)
            assert type(got.satisfied_k) is int and r == abs(x - 2.0 * math.pi * k)


def test_witness_rounds_half_to_even():
    # (delta t - offset) / 2 pi is exactly 0.5, 1.5 and -2.5 here
    chain = [Constraint(0, 1, 1.0, 0.0), Constraint(1, 2, 3.0, 0.0),
             Constraint(2, 3, 1.0, 6.0 * math.pi)]
    result = check_attainability(chain, math.pi)
    assert [c.satisfied_k for c in result.constraints] == [0, 2, -2]
