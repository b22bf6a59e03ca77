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
from dataclasses import dataclass, replace

import numpy as np

from .spectral import SpectralDecomposition
from .transfer import TransferReport

# residual tolerance for figure-level checks; analytic identities use 1e-6
DEFAULT_RESIDUAL_TOL = 0.05


@dataclass(frozen=True)
class Constraint:
    """One congruence (lambda_left - lambda_right) t = 2 pi k + offset."""

    left_group: int
    right_group: int
    delta_lambda: float
    offset: float  # 0, +pi or -pi
    satisfied_k: int | None = None


@dataclass(frozen=True)
class AttainabilityReport:
    """Outcome of checking a constraint chain at one candidate time."""

    t: float
    tol: float
    constraints: tuple[Constraint, ...]  # satisfied_k filled with witnesses
    residuals: np.ndarray
    all_satisfied: bool


def _offset(sign_left: int, sign_right: int) -> float:
    if sign_left == sign_right:
        return 0.0
    return math.pi if sign_left > sign_right else -math.pi


def independent_constraints(
    report: TransferReport, decomp: SpectralDecomposition
) -> list[Constraint]:
    """Spanning chain of congruences over consecutive non-dark groups.

    Groups are taken in descending eigenvalue order; dark groups are
    skipped entirely. Returns an empty list when fewer than two groups
    survive.
    """
    if len(report.overlaps) != len(decomp):
        raise ValueError("report and decomposition describe different systems")
    bright = [k for k in range(len(decomp)) if k not in report.dark_groups]
    bright.sort(key=lambda k: -decomp.values[k])
    return [Constraint(left_group=hi, right_group=lo,
                       delta_lambda=float(decomp.values[hi] - decomp.values[lo]),
                       offset=_offset(int(report.signs[hi]), int(report.signs[lo])))
            for hi, lo in zip(bright, bright[1:])]


def check_attainability(
    constraints: list[Constraint], t: float, tol: float = DEFAULT_RESIDUAL_TOL
) -> AttainabilityReport:
    """Evaluate every congruence at time t > 0 with the nearest witness k."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t:g}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol:g}")
    two_pi = 2.0 * math.pi
    filled: list[Constraint] = []
    residuals = np.zeros(len(constraints))
    for idx, c in enumerate(constraints):
        r = c.delta_lambda * t - c.offset
        k = round(r / two_pi)
        residuals[idx] = abs(r - two_pi * k)
        filled.append(replace(c, satisfied_k=k))
    ok = bool(np.all(residuals < tol)) if len(constraints) else True
    return AttainabilityReport(float(t), float(tol), tuple(filled), residuals, ok)

