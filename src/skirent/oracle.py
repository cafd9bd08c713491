"""Independent brute-force verifiers: exhaustive threshold scan and a dense simplex."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import NEVER, Threshold
from .distributions import DayDistribution, _check_b, _check_finite
from .errors import InfeasibleError, InvalidParamsError, ScaleExceededError
from .randomized import CostFunction, StoppingDistribution

MAX_HORIZON = 400


def brute_force_threshold(p: DayDistribution, b: int) -> tuple[Threshold, float]:
    """Exhaustively evaluate every buy day by direct summation.

    Deliberately shares no code with the streaming optimizer so the two can
    cross-check each other.  Same tie-breaking: earliest buy day wins, and a
    buy day past the whole support is reported as NEVER.
    """
    _check_b(b)
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
        _check_b(self.b)
        _check_finite(self.R, "R")
        if self.R <= 1:
            raise InvalidParamsError("R must exceed 1")
        if self.N < self.b:
            raise InvalidParamsError("horizon N must be at least b")
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
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r, :] -= T[r, col] * T[row, :]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], n_cols: int, rule: str,
                 blocked: set[int]) -> None:
    """Optimize the tableau in place; the last row holds reduced costs.

    ``rule`` picks the entering column: 'bland' takes the lowest eligible index
    (anti-cycling), 'dantzig' the most negative reduced cost.  The leaving row
    minimizes the ratio, ties toward the lowest basis index.
    """
    m = T.shape[0] - 1
    for _ in range(200000):
        red = T[m, :n_cols]
        enter = -1
        if rule == "bland":
            for j in range(n_cols):
                if j not in blocked and red[j] < -1e-10:
                    enter = j
                    break
        else:
            j = int(np.argmin(np.where([c in blocked for c in range(n_cols)], np.inf, red)))
            if red[j] < -1e-10:
                enter = j
        if enter < 0:
            return
        col = T[:m, enter]
        rows = np.where(col > 1e-11)[0]
        if rows.size == 0:
            raise InfeasibleError("unbounded direction in simplex (malformed instance)")
        best_key = None
        leave = -1
        for r in rows:
            key = (T[r, -1] / col[r], basis[r])
            if best_key is None or key < best_key:
                best_key = key
                leave = int(r)
        _pivot(T, basis, leave, enter)
    raise InfeasibleError("simplex failed to converge")


def lp_solve(inst: LpInstance, pivot_rule: str = "bland") -> tuple[StoppingDistribution, float]:
    """Solve the robust-stopping program with a dense two-phase textbook simplex.

    Raises InfeasibleError when no pmf satisfies the constraints and
    ScaleExceededError beyond the oracle's intended instance size.
    """
    if pivot_rule not in ("bland", "dantzig"):
        raise InvalidParamsError(f"unknown pivot rule {pivot_rule!r}")
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
    _run_simplex(T, basis, n_total, pivot_rule, blocked=set())
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
    _run_simplex(T, basis, n_total, pivot_rule, blocked={art})

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
