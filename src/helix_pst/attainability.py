"""Phase-alignment constraints certifying when p(t) reaches p_max.

The bound p_max = (sum |o_k|)^2 is attained exactly when every
non-dark spectral phase aligns up to the overlap sign:
exp(-i lambda_k t) = s_k exp(i phi). Pairwise this reads

    (lambda_a - lambda_b) t = 2 pi k + offset,

with offset 0 when the two sign factors agree, +pi for (+1, -1) and
-pi for (-1, +1). A chain over consecutive non-dark groups is enough:
offsets add exactly along the chain, so satisfying the |K'|-1 chain
constraints satisfies every pair. Candidate times come from the scan
module; here each constraint is checked by rounding to the nearest
integer witness k and measuring the residual in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transfer import TransferReport

# residual tolerance for figure-level checks; analytic identities use 1e-6
DEFAULT_RESIDUAL_TOL = 0.05


@dataclass(frozen=True)
class Constraints:
    """A chain of congruences (lambda_left - lambda_right) t = 2 pi k +
    offset, one array per column, link i in row i of each."""

    left_group: np.ndarray  # int
    right_group: np.ndarray  # int
    delta_lambda: np.ndarray  # float
    offset: np.ndarray  # float: 0, +pi or -pi

    def __len__(self) -> int:
        return len(self.delta_lambda)


@dataclass(frozen=True)
class AttainabilityReport:
    """Outcome of checking a constraint chain at one candidate time."""

    t: float
    tol: float
    constraints: Constraints
    witnesses: np.ndarray  # int64, the nearest k of each link
    residuals: np.ndarray
    all_satisfied: bool


def independent_constraints(report: TransferReport) -> Constraints:
    """Spanning chain of congruences over the report's consecutive non-dark groups.

    Groups are taken in descending eigenvalue order; dark groups are
    skipped entirely. The chain is empty when fewer than two groups
    survive.
    """
    signs, values = report.signs, report.values
    bright = np.flatnonzero(signs)  # sign 0 marks the dark groups
    bright = bright[np.argsort(-values[bright], kind="stable")]
    hi, lo = bright[:-1], bright[1:]
    # sign(s_left - s_right) indexes the offset: 0, +pi, and -pi at -1
    offsets = np.array([0.0, math.pi, -math.pi])[np.sign(signs[hi] - signs[lo])]
    return Constraints(hi, lo, values[hi] - values[lo], offsets)


def check_attainability(
    constraints: Constraints, t: float, tol: float = DEFAULT_RESIDUAL_TOL
) -> AttainabilityReport:
    """Evaluate every congruence at a finite time t, 0 and negative t
    included, with the nearest witness k, half to even. With offsets of
    0 or +-pi, as in a chain of independent_constraints, -t has the
    residuals of t.

    Rounding moves a residual by less than 6 u (m + 2 pi), u = 2**-53,
    m = max |delta t|: u m from rounding the gap, u m from delta t,
    u (m + pi) from subtracting the offset, 2 u (m + 2 pi) from 2 pi and
    its product with k, and u pi from the last difference. ValueError
    refuses a t at which that reaches tol (rounding alone could then
    carry a residual past it) or pi; below pi every |k| < 2**53, so the
    int64 witnesses are exact.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t:g}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol:g}")
    two_pi = 2.0 * math.pi
    delta = np.asarray(constraints.delta_lambda, dtype=float)
    noise = 6.0 * 2.0 ** -53 * (float(np.max(np.abs(delta), initial=0.0)) * abs(t) + two_pi)
    if not noise < min(tol, math.pi):
        raise ValueError(f"rounding may move the residuals at t = {t:g} by {noise:.3g} rad, "
                         f"not less than min(tol, pi) = {min(tol, math.pi):g}")
    r = delta * t - np.asarray(constraints.offset, dtype=float)
    k = np.rint(r / two_pi)  # half to even, as round does
    residuals = np.abs(r - two_pi * k)
    return AttainabilityReport(float(t), float(tol), constraints, k.astype(np.int64),
                               residuals, bool(np.all(residuals < tol)))
