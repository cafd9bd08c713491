"""Point-prediction-style randomized baselines adapted to distributional inputs."""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .distributions import MAX_DAYS, DayDistribution, survival, _as_b, _check_finite, _is_finite
from .errors import InvalidParamsError, InvalidRError, ScaleExceededError
from .randomized import StoppingDistribution


class BaselineKind(str, Enum):
    MAJORITY_BRANCH = "majority_branch"
    MIXTURE = "mixture"


def lambda_from_r(b: int, R: float) -> float:
    """Branch parameter matching robustness R: 1/b - log(1 - (1+1/b)/R).

    Raises InvalidRError (carrying the raw value) when R is not a finite number
    or is at most 1 + 1/b, where the mapping diverges (raw value inf), or when the
    produced parameter falls outside (0, 1].
    """
    b = _as_b(b)
    if not _is_finite(R) or R <= 1.0 + 1.0 / b:
        raise InvalidRError(f"R={R!r} must be a finite number exceeding 1 + 1/b", math.inf)
    lam = 1.0 / b - math.log(1.0 - (1.0 + 1.0 / b) / R)  # positive: R > 1 + 1/b
    if not 0.0 < lam <= 1.0:
        raise InvalidRError(f"R={R} maps to branch parameter {lam} outside (0, 1]", lam)
    return lam


def r_from_lambda(b: int, lam: float) -> float:
    """Inverse mapping: the robustness level of a branch parameter in (1/b, 1]."""
    b = _as_b(b)
    _check_finite(lam, "lambda")
    if not 1.0 / b < lam <= 1.0:
        raise InvalidParamsError(f"lambda must lie in (1/b, 1] = ({1.0 / b}, 1], got {lam}")
    return (1.0 + 1.0 / b) / -math.expm1(1.0 / b - lam)


def _branch_masses(b: int, lam: float, high_branch: bool) -> np.ndarray:
    """Masses of the branch distribution on days 1..len, zeros kept.

    The high (long-horizon) branch spreads over {1..k}, the low branch over
    {1..l}; weights are ((b-1)/b)^(len-i) with normalizer b(1 - (1-1/b)^len).
    The lengths follow the source algorithm, k = floor(lam*b) and
    l = ceil(b/lam), which reproduces the reference consistency figures to
    four decimals; so k <= b <= l.
    """
    b = _as_b(b)
    _check_finite(lam, "lambda")
    if not 0.0 < lam <= 1.0:
        raise InvalidParamsError("lambda must lie in (0, 1]")
    length = max(1, math.floor(lam * b + 1e-9) if high_branch else math.ceil(b / lam - 1e-9))
    if length > MAX_DAYS:  # the low branch spans ceil(b/lam) <= b^2 days
        raise ScaleExceededError(f"branch of {length} days exceeds {MAX_DAYS}")
    q = (b - 1.0) / b
    weights = q ** np.arange(length - 1, -1, -1, dtype=float)
    return weights / (b * (1.0 - q ** length))


def purohit_branch(b: int, lam: float, high_branch: bool) -> StoppingDistribution:
    """Geometric-weights branch distribution for long (y >= b) or short horizons."""
    masses = _branch_masses(b, lam, high_branch)
    return StoppingDistribution(np.arange(1, masses.size + 1), masses)


def baseline_policy(p_hat: DayDistribution, b: int, R: float,
                    kind: BaselineKind) -> StoppingDistribution:
    """Branch (or blend) the two point-prediction distributions by P[D >= b].

    The majority rule builds only the long-horizon branch when that
    probability strictly exceeds 1/2, and only the short one otherwise; the
    mixture blends the two branches' masses day by day.
    """
    try:
        kind = BaselineKind(kind)
    except ValueError:
        raise InvalidParamsError(f"unknown baseline kind {kind!r}") from None
    _check_finite(R, "R")
    lam = lambda_from_r(b, R)
    p_high = survival(p_hat, b)
    if kind is BaselineKind.MAJORITY_BRANCH:
        return purohit_branch(b, lam, high_branch=p_high > 0.5)
    # both branches sit on days 1..len, and the high one is never the longer
    high = _branch_masses(b, lam, high_branch=True)
    masses = (1.0 - p_high) * _branch_masses(b, lam, high_branch=False)
    masses[:high.size] += p_high * high
    # the pmf drops the days whose masses underflow at the front of a long branch
    return StoppingDistribution(np.arange(1, masses.size + 1), masses)
