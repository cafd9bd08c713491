"""Threshold policies: optimal thresholds, competitive-ratio bounds, and clamping."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DayDistribution, expected_opt, survival, _as_b, _as_int, _as_real
from .errors import DegenerateTailError, InvalidParamsError

#: Sentinel threshold meaning "rent forever".  Finite thresholds are positive ints.
NEVER: float = math.inf

Threshold = int | float


def is_never(t: Threshold) -> bool:
    return t == NEVER


def _as_threshold(t: Threshold) -> Threshold:
    """NEVER, or t as an int under ``_as_int``'s rule, at least 1."""
    return NEVER if is_never(t) else _as_int(t, "threshold (a positive integer or NEVER)", 1)


def expected_cost_threshold(p: DayDistribution, b: int, t: Threshold) -> float:
    """Expected cost of renting t-1 days then buying on day t (NEVER: rent forever)."""
    b = _as_b(b)
    t = _as_threshold(t)
    if is_never(t):
        return p.mean()
    t = min(t, p.max_day + 1)  # every day past the support costs the same, even past float range
    return p.partial_day_sum(t) + survival(p, t) * (b + t - 1)


def optimal_threshold(p: DayDistribution, b: int) -> tuple[Threshold, float]:
    """Minimize the expected threshold cost over all buy days.

    Between support days the cost rises affinely, so only t = 1 and the days
    just past each support day compete: O(support), not O(max_day).  Ties break
    toward the smallest buy day; buying strictly after the last support day is
    equivalent to never buying and is reported as NEVER.
    """
    b = _as_b(b)
    days = p._days_arr
    # running sums add in sequence, exactly as a day-by-day scan would
    tail = np.append(np.cumsum(p._mass_arr[::-1])[::-1], 0.0)  # mass on days[k:]
    rent = p._day_weighted_cum  # rent paid on days[:k]
    candidates = np.concatenate(([1], days + 1))
    # b joins the days in float: in int64, b + day can wrap past 2^63
    costs = rent + tail * (float(b) + candidates - 1)
    k = int(np.argmin(costs))
    if k == len(days):
        return NEVER, float(costs[k])
    return int(candidates[k]), float(costs[k])


def exact_ecr(p: DayDistribution, b: int, t: Threshold) -> float:
    """Expected competitive ratio of the threshold policy: cost over E[min(D, b)]."""
    return expected_cost_threshold(p, b, t) / expected_opt(p, b)


def _tail_ratio(p: DayDistribution, b: int, t: int) -> float:
    s_b = survival(p, b)
    if s_b <= 0.0:
        raise DegenerateTailError("S(b) = 0: tail ratio undefined")
    return survival(p, t) / s_b


def cr_bound_early(p: DayDistribution, b: int, t: Threshold) -> float:
    """Upper bound on the expected competitive ratio when the buy day is at most b."""
    b = _as_b(b)
    t = _as_threshold(t)
    if is_never(t) or t > b:
        raise InvalidParamsError("early-buy bound needs a finite threshold t <= b")
    r = _tail_ratio(p, b, t)
    return 1.0 + ((b - 1) * r - (b - t)) / (t * r + (b - t))


def cr_bound_late(p: DayDistribution, b: int, t: Threshold) -> float:
    """Upper bound on the expected competitive ratio when the buy day exceeds b."""
    b = _as_b(b)
    t = _as_threshold(t)
    if is_never(t) or t <= b:
        raise InvalidParamsError("late-buy bound needs a finite threshold t > b")
    r = _tail_ratio(p, b, t)
    return (t - 1) / b + r


def sufficient_condition_check(p: DayDistribution, b: int, t: Threshold, C: float) -> bool:
    """Check the sufficient condition for the threshold policy to be C-competitive.

    For t <= b the early-buy condition applies (and requires a positive
    denominator; a nonpositive one is reported as inapplicable).  For t >= b
    the late-buy condition applies.  At t = b either condition suffices.
    """
    b = _as_b(b)
    t = _as_threshold(t)
    C = _as_real(C, "C", above=1.0)
    if is_never(t):
        raise InvalidParamsError("condition check needs a finite threshold")
    r = _tail_ratio(p, b, t)
    alpha = t / b
    ok = False
    if alpha <= 1.0:
        denom = 1.0 - 1.0 / b - (C - 1.0) * alpha
        if denom > 0.0:
            ok = r <= C * (1.0 - alpha) / denom
    if not ok and alpha >= 1.0:
        ok = r <= C - alpha + 1.0 / b
    return ok


def clamp_threshold(t_hat: Threshold, b: int, lam: float) -> int:
    """Restrict a predicted buy day to the safe interval [ceil(lam*b), floor(b/lam)].

    NEVER is treated as +inf and clamps to the upper end.  Tiny float guards keep
    exact products like lam*b from rounding across an integer boundary.
    """
    b = _as_b(b)
    t_hat = _as_threshold(t_hat)
    lam = _as_real(lam, "lambda", above=0.0, below=1.0)
    lo = math.ceil(lam * b - 1e-9)
    hi = math.floor(b / lam + 1e-9)
    lo = max(1, lo)
    if is_never(t_hat):
        return hi
    return min(max(t_hat, lo), hi)


@dataclass(frozen=True)
class BoundReport:
    """Robust and prediction-dependent competitive-ratio bounds for a clamped policy.

    ``consistent_term`` and ``theta`` are None when the relative prediction
    error is too large for the consistency bound to apply.
    """

    robust_term: float
    consistent_term: float | None
    binding: str
    theta: float | None
    rho_hat: float
    clamped_t: int


def robust_consistent_bound(
    p_hat: DayDistribution,
    b: int,
    lam: float,
    eta: float,
    metric: str = "wasserstein",
) -> BoundReport:
    """Evaluate the two-sided guarantee of the clamp policy built from ``p_hat``.

    The robust term 1 + 1/lambda - 1/b holds regardless of prediction error.
    The consistent term divides the predicted ratio by a factor driven by the
    relative error theta (eta/OPT for the transport metric; b*eta/OPT for the
    total-variation metric) and is unavailable once that factor reaches 1.
    """
    b = _as_b(b)
    eta = _as_real(eta, "eta", least=0.0)
    if metric not in ("wasserstein", "tv"):
        raise InvalidParamsError(f"unknown metric {metric!r}")
    t_hat, _ = optimal_threshold(p_hat, b)
    t_clamped = clamp_threshold(t_hat, b, lam)
    opt_hat = expected_opt(p_hat, b)
    rho_hat = expected_cost_threshold(p_hat, b, t_clamped) / opt_hat
    robust = 1.0 + 1.0 / lam - 1.0 / b

    if metric == "wasserstein":
        theta = eta / opt_hat
        shift = b * theta
    else:
        theta = b * eta / opt_hat
        shift = eta * (b + t_clamped - 1) / opt_hat
    if theta < 1.0:
        consistent = (rho_hat + shift) / (1.0 - theta)
    else:
        theta = consistent = None

    binding = "consistent" if consistent is not None and consistent < robust else "robust"
    return BoundReport(
        robust_term=robust,
        consistent_term=consistent,
        binding=binding,
        theta=theta,
        rho_hat=rho_hat,
        clamped_t=t_clamped,
    )
