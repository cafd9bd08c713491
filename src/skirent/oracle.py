"""Independent brute-force oracles (threshold scan, dense simplex) and properties against them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import NEVER, Threshold, optimal_threshold
from .distributions import DayDistribution, _as_b, _as_int, _check_finite
from .errors import InfeasibleError, InvalidParamsError, ScaleExceededError
from .randomized import (CostFunction, StoppingDistribution, build_cost_function, check_robustness,
                         expected_policy_cost, feasible_robustness, geometric_cdf, onehot_exact,
                         water_fill, _check_r)

MAX_HORIZON = 400


def brute_force_threshold(p: DayDistribution, b: int) -> tuple[Threshold, float]:
    """Exhaustively evaluate every buy day by direct summation.

    Deliberately shares no code with the streaming optimizer so the two can
    cross-check each other.  Same tie-breaking: earliest buy day wins, and a
    buy day past the whole support is reported as NEVER.
    """
    b = _as_b(b)
    support = list(zip(p.days, p.probs))
    max_day = p.days[-1]
    best_t = 1
    best_cost = math.inf
    for t in range(1, max_day + 2):
        rent = sum(q * d for d, q in support if d < t)
        buy = sum(q for d, q in support if d >= t) * (b + t - 1)
        cost = rent + buy
        if cost < best_cost:
            best_cost = cost
            best_t = t
    if best_t == max_day + 1:
        return NEVER, best_cost
    return best_t, best_cost


@dataclass(frozen=True)
class LpInstance:
    """Finite-horizon program: minimize sum g(z) f(z) over R-robust pmfs on 1..N."""

    objective: tuple[float, ...]
    b: int
    R: float
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _as_b(self.b))
        _check_r(self.R)
        object.__setattr__(self, "N", _as_int(self.N, "horizon N", self.b))
        if len(self.objective) != self.N:
            raise InvalidParamsError("objective must list g(1..N)")


def lp_instance_from_cost(g: CostFunction, b: int, R: float) -> LpInstance:
    """Truncate the infinite program to a lossless finite horizon.

    Costs are constant past the support, and mass beyond the horizon only
    worsens the tail moment, so N = max(support end, ceil((R-1)b)+2, 4b)
    preserves the optimum.
    """
    _check_finite(R, "R")
    n = max(g.support_end, math.ceil((R - 1.0) * b) + 2, 4 * b)
    if n > MAX_HORIZON:  # checked before the objective is built: a huge R makes n huge
        raise ScaleExceededError(f"oracle horizon {n} exceeds {MAX_HORIZON}")
    return LpInstance(objective=tuple(g(t) for t in range(1, n + 1)), b=b, R=R, N=n)


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    # every other row with a nonzero in col, in one outer product: the same
    # multiply and subtract per entry as row by row
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    T[rows] -= np.outer(factors[rows], T[row])
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], n_cols: int, blocked: set[int]) -> None:
    """Optimize the tableau in place; the last row holds reduced costs.

    Bland's rule: the entering column is the lowest eligible index (anti-cycling),
    and the leaving row minimizes the ratio, ties toward the lowest basis index.
    """
    m = T.shape[0] - 1
    eligible = np.ones(n_cols, dtype=bool)
    eligible[list(blocked)] = False
    for _ in range(200000):
        entering = np.flatnonzero(eligible & (T[m, :n_cols] < -1e-10))
        if entering.size == 0:
            return
        enter = int(entering[0])
        col = T[:m, enter]
        rows = np.flatnonzero(col > 1e-11)
        if rows.size == 0:
            raise InfeasibleError("unbounded direction in simplex (malformed instance)")
        ratios = T[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        _pivot(T, basis, min(tied.tolist(), key=basis.__getitem__), enter)
    raise InfeasibleError("simplex failed to converge")


def lp_solve(inst: LpInstance) -> tuple[StoppingDistribution, float]:
    """Solve the robust-stopping program with a dense two-phase textbook simplex.

    Raises InfeasibleError when no pmf satisfies the constraints and
    ScaleExceededError beyond the oracle's intended instance size.
    """
    n = inst.N
    if n > MAX_HORIZON:
        raise ScaleExceededError(f"oracle horizon {n} exceeds {MAX_HORIZON}")
    b, R = inst.b, inst.R
    t = np.arange(1, n + 1, dtype=float)

    n_ub = b  # b-1 early rows plus the tail-moment row
    rows = np.zeros((n_ub, n))
    rhs = np.zeros(n_ub)
    for x in range(1, b):
        rows[x - 1] = np.where(t <= x, (t - 1.0) + (b - x), 0.0)
        rhs[x - 1] = (R - 1.0) * x
    rows[b - 1] = t - 1.0
    rhs[b - 1] = (R - 1.0) * b

    m = n_ub + 1  # plus the unit-mass equality
    n_slack = n_ub
    n_total = n + n_slack + 1  # one artificial for the equality
    art = n + n_slack

    T = np.zeros((m + 1, n_total + 1))
    T[:n_ub, :n] = rows
    T[:n_ub, n:n + n_slack] = np.eye(n_slack)
    T[:n_ub, -1] = rhs
    T[n_ub, :n] = 1.0
    T[n_ub, art] = 1.0
    T[n_ub, -1] = 1.0
    basis = [n + i for i in range(n_slack)] + [art]

    # phase 1: minimize the artificial variable
    T[m, art] = 1.0
    T[m, :] -= T[n_ub, :]
    _run_simplex(T, basis, n_total, blocked=set())
    if -T[m, -1] > 1e-8:
        raise InfeasibleError("no stopping distribution satisfies the constraints")
    if art in basis:
        r = basis.index(art)
        for j in range(n + n_slack):
            if abs(T[r, j]) > 1e-9:
                _pivot(T, basis, r, j)
                break

    # phase 2: original objective, artificial column blocked
    T[m, :] = 0.0
    T[m, :n] = np.asarray(inst.objective, dtype=float)
    for r, j in enumerate(basis):
        if T[m, j] != 0.0:
            T[m, :] -= T[m, j] * T[r, :]
    _run_simplex(T, basis, n_total, blocked={art})

    x = np.zeros(n_total)
    for r, j in enumerate(basis):
        x[j] = T[r, -1]
    f = np.clip(x[:n], 0.0, None)
    total = f.sum()
    if not 0.9 < total < 1.1:
        raise InfeasibleError("simplex returned a non-normalized solution")
    f = f / total
    value = float(np.asarray(inst.objective) @ f)
    pmf = ((d, m_) for d, m_ in enumerate(f, 1) if m_ > 1e-14)
    return StoppingDistribution.from_pairs(pmf), value


def draw_instance(rng: np.random.Generator, b_max: int) -> tuple[DayDistribution, int, float]:
    """A seeded (p, b, R): b in [2, b_max], R in {1.5, 1.7, 2, 2.5} (1.5 is feasible
    only for b <= 5), and 1-12 atoms on days up to 4b, the LP oracle's horizon."""
    b = int(rng.integers(2, b_max + 1))
    R = float(rng.choice([1.5, 1.7, 2.0, 2.5]))
    max_day = int(rng.integers(max(3, b), 4 * b + 1))
    n = int(rng.integers(1, min(12, max_day) + 1))
    days = np.sort(rng.choice(np.arange(1, max_day + 1), size=n, replace=False))
    return DayDistribution(days, rng.dirichlet(np.ones(n))), b, R


# Each property checks one instance (p, b, R) and returns a failure message, or
# None when it holds.  It raises InfeasibleError when no R-robust policy exists
# and the checked code and its oracle agree on that, so the instance compares
# nothing; any other SkirentError it raises is a failure of the checked code.

def threshold_matches_scan(p: DayDistribution, b: int, R: float) -> str | None:
    """``optimal_threshold`` picks the exhaustive scan's buy day and cost (R is unused)."""
    fast, slow = optimal_threshold(p, b), brute_force_threshold(p, b)
    if fast[0] != slow[0] or abs(fast[1] - slow[1]) > 1e-9:
        return f"b={b}: optimal_threshold gives {fast}, the exhaustive scan {slow}"
    return None


def _matches_lp(what: str, solve, p: DayDistribution, b: int, R: float) -> str | None:
    """``solve(g)`` costs the LP optimum, and finds no policy exactly when the LP finds none."""
    g = build_cost_function(p, b)
    try:
        optimum = lp_solve(lp_instance_from_cost(g, b, R))[1]
    except InfeasibleError:
        optimum = None
    try:
        cost = solve(g)
    except InfeasibleError:
        if optimum is None:
            raise  # no R-robust policy, and the oracle agrees
        cost = None
    if cost is None or optimum is None or abs(cost - optimum) > 1e-6:
        return f"b={b}, R={R}: {what} costs {cost}, the LP optimum is {optimum} (None: no policy)"
    return None


def water_fill_matches_lp(p: DayDistribution, b: int, R: float) -> str | None:
    """Exact ``water_fill`` is cost-optimal: it matches the LP oracle."""
    return _matches_lp("water_fill", lambda g: water_fill(g, b, R)[1], p, b, R)


def onehot_matches_lp(p: DayDistribution, b: int, R: float) -> str | None:
    """``onehot_exact`` is cost-optimal for a one-hot p: it matches the LP oracle."""
    (y,) = p.days
    return _matches_lp(f"onehot_exact at y={y}",
                       lambda g: expected_policy_cost(onehot_exact(b, R, y), g), p, b, R)


def geometric_robust_when_feasible(p: DayDistribution, b: int, R: float) -> str | None:
    """``geometric_cdf`` is R-robust, and finds no policy exactly when
    ``feasible_robustness`` fails (p is unused)."""
    feasible = feasible_robustness(b, R)
    try:
        robust = check_robustness(geometric_cdf(b, R), b, R).feasible
    except InfeasibleError:
        if not feasible:
            raise  # no R-robust policy, as feasible_robustness says
        robust = None
    if feasible and robust:
        return None
    return (f"b={b}, R={R}: feasible_robustness is {feasible}, and geometric_cdf's policy "
            f"is robust: {robust} (None: no policy)")


# the properties over any prediction, by the name verify prints for each
PROPERTIES = {
    "optimal_threshold matches the exhaustive scan": threshold_matches_scan,
    "exact water filling matches the LP oracle": water_fill_matches_lp,
    "geometric_cdf is R-robust exactly when feasible": geometric_robust_when_feasible,
}
# and over one-hot predictions
ONEHOT_PROPERTIES = {"closed-form one-hot optimum matches the LP oracle": onehot_matches_lp}
