"""Independent brute-force oracles (threshold scan, dense simplex, per-row fill walk and
the day-by-day policy it records, the perturbation's move loop on numpy's Generator)
and properties against them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import BaselineKind, baseline_policy
from .deterministic import NEVER, Threshold, optimal_threshold
from .distributions import (DayDistribution, _as_b, _as_int, _as_real, perturb_wasserstein,
                            wasserstein1)
from .errors import (InfeasibleError, InvalidParamsError, InvalidRError, InvariantError,
                     ScaleExceededError)
from .randomized import (CostFunction, StoppingDistribution, _construct_at_level, _envelope,
                         _fill_pass, _full_log, _log_gamma, build_cost_function,
                         check_robustness, feasible_robustness, geometric_cdf,
                         minimal_water_level, water_fill)

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
        object.__setattr__(self, "R", _as_real(self.R, "R", above=1.0))
        object.__setattr__(self, "N", _as_int(self.N, "horizon N", self.b))
        if len(self.objective) != self.N:
            raise InvalidParamsError("objective must list g(1..N)")


def lp_instance_from_cost(g: CostFunction, b: int, R: float) -> LpInstance:
    """Truncate the infinite program to a lossless finite horizon.

    Costs are constant past the support, and mass beyond the horizon only
    worsens the tail moment, so N = max(support end, ceil((R-1)b)+2, 4b)
    preserves the optimum.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
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


def candidate_days(g: CostFunction, b: int) -> np.ndarray:
    """Every day up to b, then each row's first day past b: a segment's cost rises, so
    past b, where no early constraint binds, only its first day competes."""
    return np.concatenate((np.arange(1.0, b + 1), np.maximum(b, g.lo[g.hi > b]) + 1.0))


def active_days(s: int, end: int | float, slope: float, intercept: float,
                h: float) -> tuple[int, int] | None:
    """The days s..e of a row (first day s, last day at most end, cost slope t + intercept)
    whose cost is within h, as the walk tests them in day space; None if there are none."""
    if slope > 0.0:
        reach = (h - intercept) / slope
        if reach + 1e-12 < s:
            return None
    elif intercept <= h:
        reach = math.inf
    else:
        return None
    return s, math.floor(min(reach + 1e-12, end))


def ref_best_tail_day(g: CostFunction, b: int, h: float, t_max: float) -> int | None:
    """The tail test over every candidate day from b on, costed by ``values_at``: the
    cheapest within h and t_max."""
    days = candidate_days(g, b)[b - 1:]
    values = g.values_at(days)
    admissible = np.flatnonzero((days <= t_max + 1e-9) & (values <= h + 1e-12))
    if admissible.size == 0:
        return None
    return int(days[admissible[np.argmin(values[admissible])]])


def _ref_runs(g: CostFunction, b: int, R: float,
              h: float) -> tuple[list[tuple[int, int, float]], bool]:
    """The per-row walk's runs (s, e, lag) at level h, one per active row of g below b,
    and whether the last one reaches the full mass."""
    log_gamma, full = _log_gamma(b), _full_log(R)
    lag = 0.0
    last_end = 0
    runs = []
    for lo, hi, slope, intercept in zip(*(c.tolist() for c in (g.lo, g.hi, g.slope, g.intercept))):
        if lo >= b:
            break
        days = active_days(int(lo) + 1, min(hi, b), slope, intercept, h)
        if days is None:
            continue
        s, e = days
        gap = s - last_end
        lag += gap * log_gamma - math.log1p(gap / (b - 1.0))
        runs.append((s, e, lag))
        if e * log_gamma - lag >= full:
            return runs, True
        last_end = e
    return runs, False


def ref_walk(g: CostFunction, b: int, R: float,
             h: float) -> tuple[float, list[tuple[int, int, float]], int | None] | None:
    """The per-row fill walk that ``_fill_pass`` replaced: each row of g below b tested
    in day space, one run per active row, and the tail test of ``ref_best_tail_day``."""
    runs, full = _ref_runs(g, b, R, h)
    if full:
        return 1.0, runs, None
    last_end, lag = runs[-1][1:] if runs else (0, 0.0)
    F = _envelope(b, R, last_end, lag)
    budget = (R - 1.0) * b - ((R - 1.0) * last_end - (b - last_end) * F)
    if budget < 0.0:
        return None
    tail = ref_best_tail_day(g, b, h, 1.0 + budget / (1.0 - F))
    return None if tail is None else (F, runs, tail)


def ref_policy(g: CostFunction, b: int, R: float, h: float) -> dict[int, float] | None:
    """The maximal-fill policy at level h as {day: mass}, recorded day by day over
    ``ref_walk``'s runs with no envelope; None if mass 1 does not fit.

    Every early constraint stays tight.  A run's first day s takes the slack
    (R-1) s - (mu + (b-s) F) over b - 1, which must agree with the mass that
    restores tightness after the gap since the last tight day; each later day
    takes (F + R - 1)/(b - 1).  The fill is full once F >= 1 - 1e-15, or at the
    end of the runs when the walk finds them full.  Otherwise 1 - F goes on
    ``ref_best_tail_day``'s day, within the moment budget that the recorded F
    and mu leave.
    """
    runs, full = _ref_runs(g, b, R, h)
    F = mu = 0.0
    pmf: dict[int, float] = {}
    last_end = 0
    for s, e, _ in runs:
        for x in range(s, e + 1):
            m = (F + R - 1.0) / (b - 1.0)
            if x == s:
                slack = (R - 1.0) * s - (mu + (b - s) * F)
                if slack <= 0.0:
                    continue
                gap_mass, m = m * (s - last_end), slack / (b - 1.0)
                if abs(m - gap_mass) > 1e-9 * (1.0 + gap_mass):
                    raise InvariantError(f"fill lost tightness at day {s}: "
                                         f"slack mass {m} vs gap mass {gap_mass}")
            pmf[x] = min(m, 1.0 - F)
            mu += (x - 1.0) * pmf[x]
            F += pmf[x]
            if F >= 1.0 - 1e-15:
                return pmf
        last_end = e
    if full:  # the walk's envelope holds the full mass on this day, where F rounds short of it
        day = last_end
    else:
        budget = (R - 1.0) * b - mu
        if budget < 0.0:
            return None
        day = ref_best_tail_day(g, b, h, 1.0 + budget / (1.0 - F))
        if day is None:
            return None
    pmf[day] = pmf.get(day, 0.0) + (1.0 - F)
    return pmf


def _day_lags(runs: list[tuple[int, int, float]]) -> list[tuple[int, float]]:
    """The (day, lag) of every day of the runs (s, e, lag), as ``_tight_policy`` expands them."""
    return [(d, lag) for s, e, lag in runs for d in range(s, e + 1)]


def perturb_reference(p: DayDistribution, eta: float, seed: int,
                      make_rng=None) -> DayDistribution:
    """The perturbation's move loop as first written: every value drawn from
    ``make_rng(seed)``, numpy's ``default_rng`` when None, and the atom list rebuilt on
    every move.  ``default_rng`` is looked up on a call: the CLI loads this module for
    every command, and ``numpy.random`` takes about 6 MB to import."""
    if eta < 0:
        raise InvalidParamsError("eta must be >= 0")
    if eta == 0:
        return p
    rng = (make_rng or np.random.default_rng)(seed)
    mass = {d: m for d, m in zip(p.days, p.probs)}
    budget = float(eta)
    max_shift = max(1, math.ceil(eta))
    for _ in range(10 * len(p.days)):
        if budget <= 1e-12:
            break
        atoms = [d for d, m in mass.items() if m > 0.0]
        src = atoms[int(rng.integers(len(atoms)))]
        shift = int(rng.integers(1, max_shift + 1))
        if rng.integers(2):
            shift = -shift
        dest = max(1, src + shift)
        dist = abs(dest - src)
        if dist == 0:
            continue
        cap = min(budget / dist, mass[src])
        delta = float(rng.uniform(0.0, cap))
        if delta <= 0.0:
            continue
        mass[src] -= delta
        mass[dest] = mass.get(dest, 0.0) + delta
        budget -= delta * dist
    out = DayDistribution.from_pairs((d, m) for d, m in mass.items() if m > 0.0)
    moved = wasserstein1(p, out)
    if moved > eta + 1e-9:
        raise InvariantError(f"perturbation overshot the budget: {moved} > {eta}")
    return out


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
# nothing (``_agreeing`` runs the two sides so); any other SkirentError it raises
# is a failure of the checked code.

def _agreeing(reference, checked) -> tuple:
    """``reference()`` and ``checked()``, each None where it raises InfeasibleError;
    when both raise, the checked side's error propagates."""
    try:
        want = reference()
    except InfeasibleError:
        want = None
    try:
        got = checked()
    except InfeasibleError:
        if want is None:
            raise
        got = None
    return want, got


def threshold_matches_scan(p: DayDistribution, b: int, R: float) -> str | None:
    """``optimal_threshold`` picks the exhaustive scan's buy day and cost (R is unused)."""
    fast, slow = optimal_threshold(p, b), brute_force_threshold(p, b)
    if fast[0] != slow[0] or abs(fast[1] - slow[1]) > 1e-9:
        return f"b={b}: optimal_threshold gives {fast}, the exhaustive scan {slow}"
    return None


def water_fill_matches_lp(p: DayDistribution, b: int, R: float) -> str | None:
    """Exact ``water_fill`` is cost-optimal: it matches the LP oracle, and finds no
    policy exactly when the LP finds none."""
    g = build_cost_function(p, b)
    optimum, cost = _agreeing(lambda: lp_solve(lp_instance_from_cost(g, b, R))[1],
                              lambda: water_fill(g, b, R)[1])
    if cost is None or optimum is None or abs(cost - optimum) > 1e-6:
        return (f"b={b}, R={R}, days {p.days}: water_fill costs {cost}, the LP optimum is "
                f"{optimum} (None: no policy)")
    return None


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


def exact_no_worse_than_published(p: DayDistribution, b: int, R: float) -> str | None:
    """Exact ``water_fill`` costs at most the published fill, within 1e-9 (1 + |published|),
    and the two find no policy together."""
    g = build_cost_function(p, b)
    published, exact = _agreeing(lambda: water_fill(g, b, R, exact=False)[1],
                                 lambda: water_fill(g, b, R)[1])
    if exact is None or published is None or exact > published + 1e-9 * (1.0 + abs(published)):
        return (f"b={b}, R={R}: exact water_fill costs {exact}, the published fill {published} "
                f"(None: no policy)")
    return None


def fill_matches_walk(p: DayDistribution, b: int, R: float) -> str | None:
    """The fill as the published search runs it (``skip_settled``) gives the per-row
    walk's full mass, tail day and runs, day by day, bit for bit, and its policy is
    ``ref_policy``'s: the same days, masses within 1e-12.  At 0, at each distinct
    cost of a candidate day and the float just below it, at max g, and at the
    published water level when R admits a robust policy."""
    g = build_cost_function(p, b)
    costs = np.unique(g.values_at(candidate_days(g, b))).tolist()
    levels = [0.0, *costs, *(math.nextafter(c, -math.inf) for c in costs), g.max_value()]
    if feasible_robustness(b, R):
        levels.append(minimal_water_level(g, b, R, 1e-7 * g.max_value()).level)
    for h in levels:
        got, want = _fill_pass(g, b, R, h, skip_settled=True), ref_walk(g, b, R, h)
        if (got is None) != (want is None) or got is not None and (
                got[0] != want[0] or got[2] != want[2] or _day_lags(got[1]) != _day_lags(want[1])):
            return (f"b={b}, R={R}, h={h!r}: the fill gives {got}, the per-row walk {want} "
                    f"(None: mass 1 does not fit)")
        policy, recorded = _construct_at_level(g, b, R, h), ref_policy(g, b, R, h)
        if (policy is None) != (recorded is None) or policy is not None and (
                policy.days != tuple(sorted(recorded))
                or max(abs(m - recorded[d]) for d, m in policy.support) > 1e-12):
            return (f"b={b}, R={R}, h={h!r}: the fill's policy is {policy}, the recorded "
                    f"policy {recorded} (None: mass 1 does not fit)")
    return None


def perturbation_matches_generator(p: DayDistribution, b: int, R: float) -> str | None:
    """``perturb_wasserstein`` gives ``perturb_reference``'s support and moves p by at
    most its budget: at eta 0.5, a shift bound of 1, and at eta (R - 1) b, each with
    seed b."""
    for eta in (0.5, (R - 1.0) * b):
        got, want = perturb_wasserstein(p, eta, b), perturb_reference(p, eta, b)
        if got.support != want.support:
            return (f"b={b}, eta={eta}: perturb_wasserstein gives {got}, numpy's Generator "
                    f"move loop {want}")
        moved = wasserstein1(p, got)
        if moved > eta + 1e-9:
            return f"b={b}, eta={eta}: the perturbation moved p by {moved}"
    return None


def baselines_are_robust(p: DayDistribution, b: int, R: float) -> str | None:
    """Both ``baseline_policy`` kinds pass ``check_robustness`` at R; an R that their
    branch parameter rejects (``lambda_from_r``'s InvalidRError) compares nothing."""
    for kind in BaselineKind:
        try:
            policy = baseline_policy(p, b, R, kind)
        except InvalidRError as exc:
            raise InfeasibleError(f"the baselines take no R={R} at b={b}: {exc}") from None
        report = check_robustness(policy, b, R)
        if not report.feasible:
            return (f"b={b}, R={R}: the {kind.value} baseline is not R-robust, "
                    f"worst slack {report.worst()} at day {report.violated_index()} (0: the tail)")
    return None


# the properties over any prediction, by the name verify prints for each
PROPERTIES = {
    "optimal_threshold matches the exhaustive scan": threshold_matches_scan,
    "exact water filling matches the LP oracle": water_fill_matches_lp,
    "geometric_cdf is R-robust exactly when feasible": geometric_robust_when_feasible,
    "exact water filling is no worse than published": exact_no_worse_than_published,
    "the published fill matches the per-row reference walk": fill_matches_walk,
    "perturb_wasserstein matches numpy's Generator move loop within its budget":
        perturbation_matches_generator,
    "both baselines are R-robust": baselines_are_robust,
}
# and over one-hot predictions
ONEHOT_PROPERTIES = {
    "onehot_exact (exact water filling on a one-hot) matches the LP oracle": water_fill_matches_lp}
