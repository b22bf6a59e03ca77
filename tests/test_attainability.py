import math
from decimal import Decimal, localcontext
from itertools import combinations

import numpy as np
import pytest

from conftest import make_decomp
from helix_pst import (
    Constraints,
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
    deltas = sorted(round(d, 9) for d in chain.delta_lambda.tolist())
    gamma = 3.0
    expected = sorted(
        round(v, 9)
        for v in [(2 - SQRT2) * gamma] * 4 + [SQRT2 * gamma - 3.0] * 4 + [3.0]
    )
    assert deltas == expected


def test_chain_offsets_follow_sign_pattern(ring8_report):
    _, report, chain = ring8_report
    zero = np.flatnonzero(chain.offset == 0.0)
    pi = [off for off in chain.offset.tolist() if abs(off) == pytest.approx(math.pi)]
    assert len(zero) == 1 and len(pi) == len(chain) - 1
    # the same-sign step is the channel splitting
    assert chain.delta_lambda[zero[0]] == pytest.approx(3.0, abs=1e-9)


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
    # any finite time runs: every offset is 0 or +-pi, so -t has the
    # residuals of t, and t = 0 leaves the offsets' magnitudes
    back = check_attainability(chain, -73.3055, tol=0.05)
    assert back.all_satisfied
    assert np.abs(back.residuals - good.residuals).max() < 1e-12
    at_zero = check_attainability(chain, 0.0)
    assert at_zero.residuals.tolist() == np.abs(chain.offset).tolist()


def test_witnesses_are_the_nearest_integers(ring8_report):
    _, _, chain = ring8_report
    result = check_attainability(chain, 73.3055, tol=0.05)
    assert result.constraints is chain and result.witnesses.dtype == np.int64
    for delta, offset, k in zip(chain.delta_lambda.tolist(), chain.offset.tolist(),
                                result.witnesses.tolist()):
        assert k == round((delta * 73.3055 - offset) / (2 * math.pi))


def test_chain_satisfaction_extends_to_all_pairs(ring8_report):
    # offsets add along the chain, so a satisfied chain bounds the
    # residual of any pair by the chain length times the tolerance
    decomp, report, chain = ring8_report
    t = 73.3055
    groups = [k for k in range(len(decomp)) if k not in report.dark_groups]
    for a, b in combinations(groups, 2):
        delta = float(decomp.values[b] - decomp.values[a])
        off = 0.0 if report.signs[a] == report.signs[b] else math.pi
        pair = Constraints([a], [b], [delta], [off])
        res = check_attainability(pair, t, tol=len(chain) * 0.02)
        assert res.all_satisfied


def test_empty_chain_is_trivially_satisfied():
    result = check_attainability(Constraints([], [], [], []), 1.23, tol=0.05)
    assert result.all_satisfied
    assert result.residuals.shape == (0,) and result.witnesses.shape == (0,)


def test_dark_groups_never_enter_the_chain():
    _, decomp = make_decomp(8, "closed", "closed", gamma=2.5)
    report = transfer_report(decomp, Node(0, 1), Node(2, 1))
    chain = independent_constraints(report, decomp)
    used = set(chain.left_group.tolist()) | set(chain.right_group.tolist())
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
    assert chain.delta_lambda[0] == pytest.approx(3.0, abs=1e-12)
    assert chain.offset[0] == pytest.approx(math.pi)
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
            check_attainability(Constraints([], [], [], []), bad)  # nothing to evaluate


def _loop_chain(report, decomp):
    """The chain's columns built one constraint at a time, the reference
    of the array forms."""
    bright = sorted((k for k in range(len(decomp)) if k not in report.dark_groups),
                    key=lambda k: -decomp.values[k])
    columns = ([], [], [], [])
    for hi, lo in zip(bright, bright[1:]):
        s_hi, s_lo = int(report.signs[hi]), int(report.signs[lo])
        offset = 0.0 if s_hi == s_lo else (math.pi if s_hi > s_lo else -math.pi)
        for column, value in zip(columns, (hi, lo, float(decomp.values[hi] - decomp.values[lo]),
                                           offset)):
            column.append(value)
    return Constraints(*columns)


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
    loop = _loop_chain(report, decomp)
    for name in ("left_group", "right_group", "delta_lambda", "offset"):
        got, want = getattr(chain, name), getattr(loop, name)
        assert got.tolist() == want and all(type(v) is type(w) for v, w in zip(got.tolist(), want))
    for t in (0.0, -12.576181, 0.7, 12.576181, 1e4):
        result = check_attainability(chain, t)
        assert result.witnesses.dtype == np.int64
        for delta, offset, k, r in zip(loop.delta_lambda, loop.offset,
                                       result.witnesses.tolist(), result.residuals.tolist()):
            x = delta * t - offset
            assert k == round(x / (2.0 * math.pi)) and r == abs(x - 2.0 * math.pi * k)
    # at t = 1e300 the witnesses would be integers far beyond 64 bits and
    # the residuals rounding noise: refused, not reported
    with pytest.raises(ValueError, match="rounding may move the residuals"):
        check_attainability(chain, 1e300)


def test_witness_rounds_half_to_even():
    # (delta t - offset) / 2 pi is exactly 0.5, 1.5 and -2.5 here
    chain = Constraints([0, 1, 2], [1, 2, 3], [1.0, 3.0, 1.0], [0.0, 0.0, 6.0 * math.pi])
    result = check_attainability(chain, math.pi)
    assert result.witnesses.tolist() == [0, 2, -2]


PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def test_refusal_follows_the_rounding_bound(ring8_report):
    # below the refusal each residual is within 6 u (m + 2 pi) of the
    # exact one of its witness, worked out in decimal from the stored
    # gaps with offsets of exactly 0 or +-pi; above it t is refused
    _, _, chain = ring8_report
    u = 2.0 ** -53
    reach = max(abs(d) for d in chain.delta_lambda.tolist())
    limit = (0.05 / (6 * u) - 2 * math.pi) / reach  # where the bound meets tol = 0.05
    for t in (1e6, -1e9, 0.999 * limit):
        result = check_attainability(chain, t, tol=0.05)
        bound = 6 * u * (reach * abs(t) + 2 * math.pi)
        with localcontext() as ctx:
            ctx.prec = 50
            for delta, offset, k, r in zip(chain.delta_lambda.tolist(), chain.offset.tolist(),
                                           result.witnesses.tolist(), result.residuals.tolist()):
                turn = round(offset / math.pi)  # 0, 1 or -1
                exact = abs(Decimal(delta) * Decimal(t) - turn * PI - 2 * PI * k)
                assert abs(Decimal(r) - exact) <= Decimal(bound)
    for t in (1.001 * limit, -1e17, 1e300):
        with pytest.raises(ValueError, match="rounding may move the residuals"):
            check_attainability(chain, t, tol=0.05)
    # a bound past the largest double is refused too, with no overflow warning
    with pytest.raises(ValueError, match="by inf rad"):
        check_attainability(Constraints([0], [1], [1e6], [0.0]), 1e308)
    # a tolerance of pi or more still refuses what pi does not resolve
    assert check_attainability(chain, 1e14, tol=4.0).witnesses.dtype == np.int64
    with pytest.raises(ValueError, match=r"min\(tol, pi\) = 3.14159"):
        check_attainability(chain, 1e16, tol=4.0)


def test_the_1e17_case_is_refused():
    # at 1e17 this chain's residuals were rounding noise (16.0 rad at
    # k = 22507907903927656) reported with exit code 0
    _, decomp = make_decomp(5, "open", "open", gamma=2.0)
    chain = independent_constraints(transfer_report(decomp, Node(0, 1), Node(4, 1)), decomp)
    with pytest.raises(ValueError, match="at t = 1e[+]17"):
        check_attainability(chain, 1e17)
    assert check_attainability(chain, 12.5).witnesses.dtype == np.int64


def test_a_report_and_a_decomposition_of_different_networks_are_refused(ring8_report):
    _, report, _ = ring8_report
    _, other = make_decomp(5, "open", "open", gamma=2.0)
    with pytest.raises(ValueError, match="different systems"):
        independent_constraints(report, other)
