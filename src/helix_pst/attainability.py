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
    keep = np.ones(len(decomp), dtype=bool)
    keep[list(report.dark_groups)] = False
    bright = np.flatnonzero(keep)
    bright = bright[np.argsort(-decomp.values[bright], kind="stable")]
    hi, lo = bright[:-1], bright[1:]
    signs = np.asarray(report.signs)
    # sign(s_left - s_right) indexes the offset: 0, +pi, and -pi at -1
    offsets = (0.0, math.pi, -math.pi)
    groups = bright.tolist()
    return [Constraint(a, b, delta, offsets[turn]) for a, b, delta, turn in zip(
        groups, groups[1:], (decomp.values[hi] - decomp.values[lo]).tolist(),
        np.sign(signs[hi] - signs[lo]).tolist())]


def check_attainability(
    constraints: list[Constraint], t: float, tol: float = DEFAULT_RESIDUAL_TOL
) -> AttainabilityReport:
    """Evaluate every congruence at a finite time t, 0 and negative t
    included, with the nearest witness k. With offsets of 0 or +-pi, as
    in a chain of independent_constraints, -t has the residuals of t."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t:g}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol:g}")
    two_pi = 2.0 * math.pi
    delta = np.array([c.delta_lambda for c in constraints], dtype=float)
    r = delta * t - np.array([c.offset for c in constraints], dtype=float)
    k = np.rint(r / two_pi)  # half to even, as round does
    residuals = np.abs(r - two_pi * k)
    filled = tuple(Constraint(c.left_group, c.right_group, c.delta_lambda, c.offset, w)
                   for c, w in zip(constraints, map(int, k)))
    ok = bool(np.all(residuals < tol))
    return AttainabilityReport(float(t), float(tol), filled, residuals, ok)

