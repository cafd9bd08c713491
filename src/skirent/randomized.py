"""Randomized stopping policies: robustness checks, closed forms, and water filling."""
from __future__ import annotations

import bisect
import math
import operator
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import (MAX_DAYS, DayDistribution, _as_b, _as_int, _as_real, _frozen,
                            _parse_atoms, _Pmf, _running_sum)
from .errors import InfeasibleError, InvalidParamsError, InvariantError, ScaleExceededError

SLACK_TOL = 1e-9  # robustness slacks are accepted down to this
FULL_MASS = 1.0 - 1e-15  # a run of tight days holding this much mass is full


def _check_scale(b: int) -> None:
    """Reject a b above ``MAX_DAYS``: before a fill or closed form builds arrays of b
    days, and in the checks and level searches, which build none, to keep them to
    the b that ``water_fill`` accepts."""
    if b > MAX_DAYS:
        raise ScaleExceededError(f"b={b} is above {MAX_DAYS}, the largest b water_fill accepts")


class StoppingDistribution(_Pmf):
    """Probability mass function over the (randomized) buying day (see ``_Pmf``).

    Builds at its first read, and then keeps, the read-only running sums of the
    CDF F(x) and of the first moment mu(x) = sum_{t<=x} (t-1) f(t), which
    ``check_robustness`` reads together at every support day below b: a policy
    that is never checked, such as a mixture baseline that is only priced,
    never builds them.  It also keeps its last ``check_robustness`` report, for
    that (b, R), and its last ``expected_policy_cost``, for that g, so a policy
    checked or priced again under the same arguments is answered by a lookup.
    """

    _report: tuple[int, float, RobustnessReport] | None = None  # (b, R, report)
    _priced: tuple[weakref.ref, float] | None = None  # (ref to g, objective)

    @cached_property
    def _cum(self) -> np.ndarray:
        """[0, F(d_1), F(d_2), ...]"""
        return _running_sum(self._mass_arr)

    @cached_property
    def _cum_moment(self) -> np.ndarray:
        """[0, mu(d_1), mu(d_2), ...]"""
        return _running_sum(self._mass_arr * (self._days_arr - 1))

    @cached_property
    def masses(self) -> tuple[float, ...]:
        return tuple(self._mass_arr.tolist())

    def first_moment(self, x: int | float | None = None) -> float:
        """mu(x) = sum over buy days t <= x of (t-1) f(t); x=None means mu(inf)."""
        if x is None:
            return float(self._cum_moment[-1])
        return float(self._through(self._cum_moment, x))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self._days_arr, size=size, p=self._mass_arr)

    def to_json_dict(self, b: int, r: float, objective: float) -> dict:
        return {"pmf": [[d, m] for d, m in self.support], "b": b, "R": r,
                "objective": objective}


def parse_policy(obj: dict) -> StoppingDistribution:
    """Parse a policy from a decoded ``{"pmf": [[day, mass], ...], ...}`` object."""
    if "pmf" not in obj:
        raise InvalidParamsError("policy JSON needs a 'pmf' key")
    return StoppingDistribution.from_pairs(_parse_atoms(obj["pmf"]))


# ---------------------------------------------------------------------------
# Piecewise-linear stopping-cost function


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Expected stopping cost as a table of linear pieces, one column per field.

    Row i is the cost slope[i] * t + intercept[i] on the integer days
    lo[i] < t <= hi[i].  The rows tile (0, inf), and the last one is the
    constant tail (support_end, inf, 0, tail_value): past the last support day
    the cost is the mean horizon.  Slopes are nonincreasing and lie in [0, 1]
    (up to rounding past the last atoms), so costs never fall within a row.
    The columns are read-only float64 arrays, stored by ``_frozen``'s rule, as
    a pmf's are: a column that already is one, owning its memory, is kept, any
    other is copied.  g keeps one ``_FillTable``, everything a fill at b
    reads, built at the first walk at b and dropped at the first walk at
    another b, and it keeps ``max_value`` once computed.
    """

    lo: np.ndarray
    hi: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    _tables: dict = field(init=False, repr=False, default_factory=dict)  # last b -> ``_FillTable``
    _max: float | None = field(init=False, repr=False, default=None)  # ``max_value``

    def __post_init__(self) -> None:
        columns = [_frozen(c, np.float64) for c in (self.lo, self.hi, self.slope, self.intercept)]
        lo, hi, slope, intercept = columns
        # ndarray methods: the np.any/np.all wrappers cost about a microsecond a call
        if lo.ndim != 1 or any(c.shape != lo.shape for c in columns):
            raise InvalidParamsError("cost function columns must be 1-d and of equal length")
        if lo.size < 2:
            raise InvalidParamsError("cost function needs a row before its constant tail")
        if (lo[0] != 0.0 or hi[-1] != math.inf or (lo[1:] != hi[:-1]).any()
                or (hi <= lo).any() or (np.floor(lo) != lo).any()):
            raise InvalidParamsError("cost function rows must tile (0, inf) at integer days")
        if not (np.isfinite(slope).all() and np.isfinite(intercept).all()):
            raise InvalidParamsError("cost function slopes and intercepts must be finite")
        if slope[-1] != 0.0:
            raise InvalidParamsError("cost function must end in a constant tail")
        for name, column in zip(("lo", "hi", "slope", "intercept"), columns):
            object.__setattr__(self, name, column)

    @property
    def support_end(self) -> int:
        return int(self.lo[-1])

    @property
    def tail_value(self) -> float:
        return float(self.intercept[-1])

    def __call__(self, t: int) -> float:
        if _as_int(t, "day", 1) > self.support_end:  # the tail, also past float range
            return self.tail_value
        return float(self.values_at(np.float64(t)))

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Cost at each positive integer day of ``ts`` (vectorised ``__call__``).

        Searches only the rows up to the one holding the largest day of ``ts``:
        a short policy on a long table reads a prefix of it.
        """
        hi = self.hi
        if ts.size:
            hi = hi[:hi.searchsorted(ts.max()) + 1]
        idx = hi.searchsorted(ts)
        values = self.slope[idx]
        values *= ts
        values += self.intercept[idx]
        return values

    def max_value(self) -> float:
        """Largest cost over all integer days (rows rise, so their ends dominate)."""
        if self._max is None:
            ends = self.slope[:-1] * self.hi[:-1]
            ends += self.intercept[:-1]
            object.__setattr__(self, "_max", max(float(ends.max()), self.tail_value))
        return self._max


def build_cost_function(p_hat: DayDistribution, b: int) -> CostFunction:
    """Piecewise-linear form of the expected threshold cost under ``p_hat``.

    On (d_k, d_{k+1}] the cost is a_k t + c_k with a_k the mass beyond d_k and
    c_k the rental prefix plus (b-1) a_k; past the last support day it is the
    constant mean horizon.  Each column is built in place in one array of its
    own, which ``CostFunction`` keeps.
    """
    b = _as_b(b)
    days = p_hat._days_arr
    lo, hi, slope = np.empty(days.size + 1), np.empty(days.size + 1), np.empty(days.size + 1)
    lo[0], lo[1:] = 0.0, days
    hi[:-1], hi[-1] = days, math.inf
    # accumulate subtracts in sequence, like a running tail_prob -= q; 1 - cumsum
    # rounds differently
    slope[0], slope[1:] = 1.0, p_hat._mass_arr
    np.subtract.accumulate(slope, out=slope)
    slope[-1] = 0.0  # the tail: its intercept is the whole day-weighted sum, the mean
    intercept = (b - 1) * slope
    intercept += p_hat._day_weighted_cum
    for column in (lo, hi, slope, intercept):
        column.flags.writeable = False
    return CostFunction(lo=lo, hi=hi, slope=slope, intercept=intercept)


# ---------------------------------------------------------------------------
# Robustness verification


def _early_excess(f: StoppingDistribution, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Day 1 and the support days below b, with mu(x) + (b-x) F(x) = E[C_Z(x)] - x on each.

    Between support days F and mu are constant, so this falls by F(x) a day:
    the slack (R-1) x minus it rises by R-1 + F(x) > 0, and the ratio 1 + it / x
    falls.  So the least slack and the greatest ratio below b fall on these days,
    read from the pmf's running sums after one search for b: O(support), not O(b).
    """
    k = int(f._days_arr.searchsorted(b))  # the support days below b
    days = f._days_arr[:k]
    excess = f._cum_moment[1:k + 1] + (b - days) * f._cum[1:k + 1]
    if not k or days[0] != 1:  # day 1 without mass: mu(1) = F(1) = 0
        days, excess = np.append(1, days), np.append(0.0, excess)
    return days, excess


@dataclass(frozen=True, eq=False)
class RobustnessReport:
    """Constraint slacks of a candidate policy at robustness level R.

    ``slacks[i]`` is the slack of day ``days[i]``'s constraint, the days of ``_early_excess``.
    Both arrays are read-only: the policy keeps its last report, and every
    caller that checks it again at the same (b, R) shares them.
    """

    days: np.ndarray
    slacks: np.ndarray
    tail_slack: float
    feasible: bool

    def worst(self) -> float:
        return float(np.min(self.slacks, initial=self.tail_slack))

    def violated_index(self) -> int | None:
        """Day of the worst violated constraint (0 for the tail), or None.

        Ties go to the tail, then to the earliest day.
        """
        if self.feasible:
            return None
        return int(np.append(0, self.days)[np.argmin(np.append(self.tail_slack, self.slacks))])


def check_robustness(f: StoppingDistribution, b: int, R: float) -> RobustnessReport:
    """Evaluate mu(x) + (b-x) F(x) <= (R-1) x for x < b and mu(inf) <= (R-1) b.

    After the arguments are validated, a policy last checked at the same (b, R)
    returns that report itself; otherwise the new report replaces it on f.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    _check_scale(b)
    last = f._report
    if last is not None and last[0] == b and last[1] == R:
        return last[2]
    days, excess = _early_excess(f, b)
    slacks = (R - 1.0) * days - excess
    tail_slack = (R - 1.0) * b - f.first_moment()
    feasible = bool(slacks.min(initial=tail_slack) >= -SLACK_TOL)
    days.flags.writeable = slacks.flags.writeable = False
    report = RobustnessReport(days=days, slacks=slacks, tail_slack=tail_slack, feasible=feasible)
    object.__setattr__(f, "_report", (b, R, report))
    return report


def realized_worst_ratio(f: StoppingDistribution, b: int, horizon: int) -> float:
    """Worst ratio of expected policy cost to min(x, b) over horizons up to ``horizon``.

    Uses the closed form E[C_Z(x)] = mu(x) + (b-x) F(x) + x, which grows by
    (b-1) f(x+1) + 1 - F(x) >= 0 from day x to x+1.  From b on the ratio is
    E[C_Z(x)] / b, so it peaks at the horizon; below b it peaks on a day of
    ``_early_excess``.
    """
    b = _as_b(b)
    # from the last support day on the cost is flat, so a horizon past it, even
    # one past float range, gives the ratio of the day after it
    horizon = min(_as_int(horizon, "horizon", b), f.max_day + 1)
    days, excess = _early_excess(f, b)
    last = f.first_moment(horizon) + (b - horizon) * f.cdf(horizon) + horizon
    return max(float(((excess + days) / days).max()), last / b)


def expected_policy_cost(f: StoppingDistribution, g: CostFunction) -> float:
    """Expected stopping cost sum_z g(z) f(z).

    f keeps its last cost, with a weak reference to its g: pricing f again
    under that same g is a lookup, and the kept cost neither keeps g alive nor
    matches once g is gone.
    """
    last = f._priced
    if last is not None and last[0]() is g:
        return last[1]
    # a running sum adds in support order, as a sequential loop would; np.sum
    # adds pairwise and can change the last digits
    weighted = g.values_at(f._days_arr)
    weighted *= f._mass_arr
    cost = float(weighted.cumsum(out=weighted)[-1])
    object.__setattr__(f, "_priced", (weakref.ref(g), cost))
    return cost


# ---------------------------------------------------------------------------
# Closed-form optimal policies


def _log_gamma(b: int) -> float:
    """log(gamma), gamma = b/(b-1): the envelope's growth a day, free of b/(b-1)'s rounding."""
    return math.log1p(1.0 / (b - 1.0))


def _envelope(b: int, R: float, day: float, lag: float = 0.0) -> float:
    """(R-1) (gamma^d e^-lag - 1) at day d: the CDF of a run of tight days (``_fill_pass``).

    A float gamma^d would break the constraints by 1e-9 at b = 3367.
    ``_tight_policy`` takes the same steps over a run's days in numpy, whose
    expm1 rounds differently from ``math``'s.
    """
    return (R - 1.0) * math.expm1(day * _log_gamma(b) - lag)


def _full_log(R: float) -> float:
    """d log(gamma) - lag where ``_envelope`` reaches ``FULL_MASS``: the full-mass test
    of the fill and of ``feasible_robustness`` is then one comparison a row."""
    return math.log1p(FULL_MASS / (R - 1.0))


def _tight_policy(b: int, R: float, F: float, runs: list[tuple[int, int, float]],
                  tail: int | None) -> StoppingDistribution:
    """The policy whose CDF is the envelope on the days of ``runs`` (s, e, lag), cut at
    the first day holding ``FULL_MASS``, pinned to F on its last day, plus 1 - F
    on the ``tail`` day.

    The days are one ``np.arange`` per run, joined with the tail day; the CDF is
    ``_envelope``'s multiply, subtract, expm1 and scale, in place in one array.
    It rises day by day, by at least log1p(1/(b-1)) in the exponent across a
    gap, so the cut is one search.  The masses, with the tail's slot, fill one
    array, which the pmf keeps with the days.
    """
    days = np.concatenate([np.arange(s, e + 1) for s, e, _ in runs]
                          + ([] if tail is None else [[tail]]))  # a tail follows the runs
    n = days.size - (tail is not None)  # the run days
    cdf = days[:n] * _log_gamma(b)
    i = 0
    for s, e, lag in runs:
        cdf[i:i + e - s + 1] -= lag
        i += e - s + 1
    np.expm1(cdf, out=cdf)
    cdf *= R - 1.0
    if tail is None and cdf[-1] >= FULL_MASS:
        n = int(cdf.searchsorted(FULL_MASS)) + 1
        days = days[:n].copy()
    masses = np.empty(days.size)
    if n:
        cdf[n - 1] = F
        masses[0] = cdf[0]
        np.subtract(cdf[1:n], cdf[:n - 1], out=masses[1:n])
    if tail is not None:
        masses[n] = 1.0 - F
    days.flags.writeable = masses.flags.writeable = False
    return StoppingDistribution(days, masses)


def feasible_robustness(b: int, R: float) -> bool:
    """Whether any stopping distribution can be R-robust for this buy cost.

    The fill's own full-mass test on one tight run over days 1..b: the envelope
    must reach ``FULL_MASS`` by day b.
    """
    b = _as_b(b)
    if _as_real(R, "R") <= 1:
        return False
    return b * _log_gamma(b) >= _full_log(R)


def geometric_cdf(b: int, R: float) -> StoppingDistribution:
    """Stopping distribution whose CDF rides the growth envelope until it hits 1.

    Optimal whenever the stopping-cost function is nondecreasing over the
    placement range.  It is the full fill of the one tight run over days 1..b,
    so it needs the envelope to reach ``FULL_MASS`` by day b, i.e. R at least
    about 1 + 1/((b/(b-1))^b - 1); smaller R admits no robust policy.  Like a
    fill, a policy that fails ``check_robustness`` raises InvariantError.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    _check_scale(b)
    if not feasible_robustness(b, R):
        raise InfeasibleError(f"no R-robust policy exists for b={b}, R={R}")
    policy = _tight_policy(b, R, 1.0, [(1, b, 0.0)], None)
    if not check_robustness(policy, b, R).feasible:
        raise InvariantError("geometric policy failed its own robustness check")
    return policy


def extension_condition_check(g: CostFunction, b: int, R: float, y: int) -> bool:
    """Test the sufficient condition under which the growth-envelope CDF stays optimal.

    Requires: costs nondecreasing through day y; every cost beyond y at least
    the cost at day y+1-b (checked over a finite window, since the cost is
    eventually constant); and y past the envelope-saturation threshold: the
    envelope has reached 1 by day y+1-b.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    y = _as_int(y, "y", 1)
    # the envelope reaches 1 on day log1p(1/(R-1)) / log(gamma), 1e-9 days to spare;
    # compared in log space, so a far-out y cannot overflow
    if y + 1 - b < math.log1p(1.0 / (R - 1.0)) / _log_gamma(b) - 1e-9:
        return False
    if y + 1 - b < 1:
        return False
    # costs rise within a row, so only a row's last day can exceed the next day,
    # and only a row's first day in the window can be its cheapest
    ends = g.hi[g.hi < y]
    if np.any(g.values_at(ends) > g.values_at(ends + 1.0) + 1e-12):
        return False
    ref = g(y + 1 - b)
    last = y + max(g.support_end, 4 * b)
    firsts = np.maximum(g.lo + 1.0, y + 1.0)
    firsts = firsts[firsts <= np.minimum(g.hi, last)]
    return not np.any(g.values_at(firsts) < ref - 1e-9)


# ---------------------------------------------------------------------------
# Water filling


def _fill_pass(g: CostFunction, b: int, R: float, h: float, *, skip_settled: bool = False
               ) -> tuple[float, list[tuple[int, int, float]], int | None] | None:
    """Maximal mass allocation on days costing at most h; None if mass 1 does not fit.

    Keeps every early constraint tight, so G = F + R - 1 (F: mass placed so
    far) grows by gamma = b/(b-1) on every active day, and the atom at an
    active run's first day s, which restores tightness after the gap since the
    last tight day, grows it by 1 + gap/(b-1) instead of gamma^gap.  On day d,
    log(G / (R-1)) = d log(gamma) - lag, where lag sums those shortfalls, and F
    is ``_envelope`` at (d, lag).  A product of rounded per-run factors would
    break the tight constraints by up to 5e-10 at b = 10^4.  A row whose first
    day follows the last active day adds exactly 0.0 to lag, so it only
    extends the open run: a run is a stretch of active rows with no gap.
    Returns (F, runs, tail), runs the active (s, e, lag); the last may outlast
    the full mass.  A full fill has F = 1 and no tail; a partial one puts 1 - F
    on the cheapest day from b on within h whose (day - 1) (1 - F) fits in the
    moment budget left.  That tail test alone places it: its bound on the day,
    1 + budget / (1 - F), is below 1 < b when the budget is below 0, and is 1
    when a run ends on day b, whose budget is exactly 0.0.  So a tail always
    follows the last run day.

    One loop walks the columns of ``_FillTable``.  A bare pass runs it over
    every row below b with both jumps off, so each row takes the day-space
    test.  With ``skip_settled`` the tables settle the rows that h leaves no
    doubt about: the leading rows wholly active at h tile days 1..e as one
    run with lag 0, the trailing rows idle at h change nothing, and between
    them the walk jumps over each stretch of surely idle rows, and across
    each stretch of surely wholly active rows, which opens a run at most
    once and reaches the full mass at the first row ending on or after the
    full day.  Only the rows within the tables' margin take the day-space
    test, so the result is the same.  The walk reads the trees, and so has
    them built, only when rows are left between the two bisects: a bare pass
    and a pass that the level tables settle build none.
    """
    log_gamma, full = _log_gamma(b), _full_log(R)
    table = _fill_table(g, b)
    starts, ends, slopes, intercepts = table.starts, table.ends, table.slopes, table.intercepts
    lag = 0.0
    start, last_end = 1, 0  # the open run holds days start..last_end, all tight
    runs = []
    full_day = _full_day(log_gamma, lag, full)
    i, n = 0, len(ends)
    if skip_settled:
        i = bisect.bisect_right(table.sure, h)
        if i:
            last_end = ends[i - 1]
            if last_end >= full_day:
                return 1.0, [(1, ends[bisect.bisect_left(ends, full_day)], 0.0)], None
        n = bisect.bisect_right(table.rest, h)
        if i < n:  # rows the level tables leave open, so the walk may jump
            tree, idle, whole = table.tree, 2 * table.size, 3 * table.size  # leaf 0 of each tree
    while i < n:
        if skip_settled and h < tree[idle + i]:  # surely idle: to the next row that may be active
            i = _first_at_most(tree, idle + i + 1, h, idle) - idle
            continue
        if skip_settled and h >= -tree[whole + i]:  # rows i..j-1 surely wholly active
            j = _first_at_most(tree, whole + i + 1, -h, idle) - whole
            e = ends[j - 1]
        else:  # the day-space test; costs never fall along a row, so its active days are s..e
            j, slope, intercept = i + 1, slopes[i], intercepts[i]
            e = end = ends[i]
            if slope > 0.0:
                reach = (h - intercept) / slope + 1e-12
                if reach < starts[i]:
                    i = j
                    continue
                if reach < end:
                    e = math.floor(reach)
            elif intercept > h:
                i = j
                continue
        s = starts[i]
        if s != last_end + 1:
            if last_end:
                runs.append((start, last_end, lag))
            gap = s - last_end
            lag += gap * log_gamma - math.log1p(gap / (b - 1.0))
            start = s
            full_day = _full_day(log_gamma, lag, full)
        if e >= full_day:  # the first row of i..j-1 ending on or after it
            m = bisect.bisect_left(ends, full_day, i, j - 1)
            runs.append((start, e if m == j - 1 else ends[m], lag))
            return 1.0, runs, None
        last_end = e
        i = j
    if last_end:
        runs.append((start, last_end, lag))
    F = _envelope(b, R, last_end, lag)
    budget = (R - 1.0) * b - ((R - 1.0) * last_end - (b - last_end) * F)  # minus the first moment
    tail = _best_tail_day(g, b, h, 1.0 + budget / (1.0 - F))
    return None if tail is None else (F, runs, tail)


def _full_day(log_gamma: float, lag: float, full: float) -> int:
    """The first day d with d log_gamma - lag >= full, as the fill rounds that test.

    The rounded left side never falls as d grows, so the walk's per-row test is
    one integer comparison with this day, taken once per run.
    """
    d = math.ceil((full + lag) / log_gamma)
    while (d - 1) * log_gamma - lag >= full:
        d -= 1
    while d * log_gamma - lag < full:
        d += 1
    return d


def _best_tail_day(g: CostFunction, b: int, h: float, t_max: float) -> int | None:
    """Cheapest day at or beyond b with cost within h and day within t_max.

    The candidates are the tail days of ``_FillTable``: a segment's cost rises,
    so only its earliest day competes.  They rise, so those within t_max are a
    prefix, and if any of them costs at most h, so does the prefix's cheapest:
    one bisection and one comparison against their running minima.  Ties break
    toward the smaller day: the first day attaining the prefix's minimum, one
    more bisection over the minima, which never rise.
    """
    table = _fill_table(g, b)
    k = bisect.bisect_right(table.days, t_max + 1e-9)
    if not k or table.low[k - 1] > h + 1e-12:
        return None
    return int(table.days[bisect.bisect_left(table.low, -table.low[k - 1], 0, k, key=operator.neg)])


def _first_at_most(tree: memoryview, p: int, x: float, leaves: int) -> int:
    """The first leaf from leaf p on whose value is at most x, as a node of ``tree``;
    one must exist within p's half of the tree.

    ``tree`` is a min tree with its leaves at nodes ``leaves`` on, node q the
    minimum of nodes 2q and 2q + 1.  The search skips each subtree whose
    minimum is above x, on to the next subtree to its right, then descends
    into the first that is not: O(log leaves) reads.
    """
    while tree[p] > x:
        while p & 1:  # a right child: its parent's subtree ends here too
            p >>= 1
        p += 1
    while p < leaves:
        p <<= 1
        if tree[p] > x:
            p += 1
    return p


class _FillTable:
    """Everything a fill at one b reads, built by ``_fill_table`` and kept on g.

    - ``starts``, ``ends``, ``slopes``, ``intercepts``: the rows with lo < b as
      columns: first day, min(hi, b), slope and intercept, which every walk reads.
    - The level tables.  A row's costs rise from its first day to its last (a
      row with slope <= 0 is its intercept), so from its last day's cost on
      the walk keeps the whole row, and below its first day's cost it keeps
      none of it.  Each of those costs is widened by 1e-9 (1 + |slope day| +
      |intercept|): far more than the rounding of the walk's day-space test,
      so a level past it is settled by that test too, and a row whose
      widened costs bracket the level takes that test.
      - ``sure[i]``: the running maximum of the widened last-day costs of
        rows 0..i; ``rest[i]``: the running minimum of the widened first-day
        costs from row i on.
      - ``tree``: two min trees (see ``_first_at_most``) as the halves of
        one, over ``size`` leaves each, built at its first read, which only a
        walk that may jump makes; until then the table keeps the widened
        costs for it (``_leaves``).  Node 2 roots the idle tree, whose
        leaf j, node 2 size + j, is row j's widened first-day cost, so below
        it the row is surely idle; its padding leaves are inf.  Node 3 roots
        the whole tree, whose leaf j, node 3 size + j, is minus row j's
        widened last-day cost, so from minus it on the row is surely wholly
        active; its padding leaves are -inf.  ``size`` exceeds the row
        count, so a search of the whole tree stops at its first padding leaf
        at the latest, and one of the idle tree never reaches a padding leaf.
    - ``days``, ``costs``: the tail days, day b and then each segment's first
      day past b, which rise strictly, and their costs, bit for bit as
      ``values_at`` gives them; ``low``: the running minimum of those costs.
      The first day attaining it is one bisection of ``low`` away (see
      ``_best_tail_day``).  Each is one array of the support's size, built in
      place.
    - ``candidates``: the O(b) table of exact mode, built at its first request.

    The columns, level tables, tree and tail tables are read-only memoryviews
    of arrays, ``rest`` of a reversed one: bisect and the walk read them
    nearly as fast as lists, with no list to build.  The table holds no
    reference to g, so g and its tables die by reference counting.
    """

    __slots__ = ("starts", "ends", "slopes", "intercepts", "sure", "rest", "size", "_leaves",
                 "_tree", "days", "costs", "low", "_candidates")

    @property
    def tree(self) -> memoryview:
        """Both trees as one array, built at the first read a level at a time with
        one numpy call each; the widened costs kept for it are then let go."""
        if self._tree is None:
            (lows, highs), size, k = self._leaves, self.size, len(self.ends)
            tree = np.empty(4 * size)
            tree[0] = math.nan  # node 0 is no node
            tree[2 * size:2 * size + k], tree[2 * size + k:3 * size] = lows, math.inf
            np.negative(highs, out=tree[3 * size:3 * size + k])
            tree[3 * size + k:] = -math.inf
            level = 2 * size
            while level > 1:
                np.minimum(tree[level:2 * level:2], tree[level + 1:2 * level:2],
                           out=tree[level // 2:level])
                level //= 2
            self._tree, self._leaves = _read_only(tree), None
        return self._tree

    def candidates(self, g: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """Every day below b, then the tail days, with their costs, read-only: the
        support of some optimal policy, which an exact solve's level search and LP
        read.  Days past b carry no early constraint, so within a segment the
        earliest day dominates every later one (lower cost, lower moment)."""
        if self._candidates is None:
            head = np.arange(1.0, self.days[0])
            t = np.concatenate((head, self.days))
            c = np.concatenate((g.values_at(head), self.costs))
            t.flags.writeable = c.flags.writeable = False
            self._candidates = t, c
        return self._candidates


def _read_only(array: np.ndarray) -> memoryview:
    return memoryview(array).toreadonly()


def _fill_table(g: CostFunction, b: int) -> _FillTable:
    """The ``_FillTable`` of g at b, built at the first call for b since one at another
    b, which drops that b's table: O(segments).

    The widened costs are formed in place in the day columns, and the trees
    are left to the first walk that jumps (``_FillTable.tree``).  Each tail
    day after b is the first day of its own row, so its cost is that row's
    multiply and add, with no search; day b lies on the first row with
    hi >= b.  Past 2^53, lo + 1 can round back onto lo, a day of an
    earlier row: those days keep ``values_at``'s cost.
    """
    table = g._tables.get(b)
    if table is not None:
        return table
    table = _FillTable()
    k = int(np.searchsorted(g.lo, b))  # the rows with lo < b
    starts, ends = g.lo[:k] + 1.0, np.minimum(g.hi[:k], b)
    slope, intercept = g.slope[:k], g.intercept[:k]
    table.starts, table.ends = (_read_only(c.astype(np.int64)) for c in (starts, ends))
    table.slopes, table.intercepts = _read_only(slope), _read_only(intercept)
    climb = np.maximum(slope, 0.0)  # 0 on the rows whose cost is their intercept
    margin = np.abs(intercept)
    margin += 1.0
    margin *= 1e-9
    lows, highs = starts, ends  # climb * day * (1 -+ 1e-9) + intercept -+ margin, in place
    lows *= climb
    lows *= 1.0 - 1e-9
    lows += intercept
    lows -= margin
    highs *= climb
    highs *= 1.0 + 1e-9
    highs += intercept
    highs += margin
    table.sure = _read_only(np.maximum.accumulate(highs))
    table.rest = _read_only(np.minimum.accumulate(lows[::-1])[::-1])
    table.size, table._leaves, table._tree = 1 << k.bit_length(), (lows, highs), None
    j = int(np.searchsorted(g.hi, b, "right"))  # the rows past b, one per day after b
    days = np.empty(g.lo.size - j + 1)
    days[0] = b
    np.add(g.lo[j:], 1.0, out=days[1:])
    days[1] = max(b, g.lo[j]) + 1.0  # only row j can start before b
    m = j - 1 if j and g.hi[j - 1] == b else j  # day b's row
    costs = np.empty_like(days)
    costs[0] = g.slope[m] * days[0] + g.intercept[m]
    np.multiply(g.slope[j:], days[1:], out=costs[1:])
    costs[1:] += g.intercept[j:]
    if g.lo[-1] >= 2.0**53:  # below it every lo + 1 is exact
        off = days[1:] <= g.lo[j:]
        costs[1:][off] = g.values_at(days[1:][off])
    table.days, table.costs = _read_only(days), _read_only(costs)
    table.low = _read_only(np.minimum.accumulate(costs))
    table._candidates = None
    g._tables.clear()
    g._tables[b] = table
    return table


def level_feasible(g: CostFunction, b: int, R: float, h: float, *,
                   skip_settled: bool = False) -> bool:
    """Whether total mass 1 fits on days costing at most h at robustness R.

    One pass over the segments below b: maximal early fill, then a tail test
    that asks for an admissible day d >= b with (d - 1) * remaining-mass
    within the leftover moment budget.  The first check at a given b keeps on
    g the one ``_FillTable`` of b, O(segments): the rows below b as columns,
    their level tables and trees (built at the first walk that jumps), and a
    running-minimum table of the tail candidates.  Each check extends one run
    per stretch of active rows and answers the tail test with one bisection on
    a memoryview.  No O(b) table is built.  A bare check walks every row below
    b over those columns, O(rows).  With ``skip_settled``, as every level
    search asks, the same walk starts after the leading rows wholly active at
    h and stops at the trailing rows idle at h, which the level tables settle,
    and jumps over each stretch between them of rows surely idle or surely
    wholly active, one tree search a stretch: O((stretches + margin rows) log
    rows).  The answer is the same.  h may be infinite, not NaN; any other
    number is read as a Python float, so a numpy level walks as its float
    does.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    _check_scale(b)
    try:  # an isinstance test against numbers.Real would cost each check about 0.7 us
        bad = isinstance(h, bool) or math.isnan(h)
    except TypeError:  # not a number
        bad = True
    except OverflowError:  # an int past float range: above every cost, as inf is
        bad, h = False, math.inf if h > 0 else -math.inf
    if bad:
        raise InvalidParamsError(f"the water level h must be a number, not NaN, got {h!r}")
    return _fill_pass(g, b, R, float(h), skip_settled=skip_settled) is not None


@dataclass(frozen=True)
class WaterLevelSearch:
    """Outcome of the bisection for the minimal feasible water level."""

    level: float
    checks: int
    h_lo: float
    h_hi: float


def minimal_water_level(g: CostFunction, b: int, R: float, epsilon: float) -> WaterLevelSearch:
    """Bisect [0, max g] down to width epsilon for the least feasible level.

    epsilon must be at least the float spacing at max g: a narrower width can
    never be reached once the ends are adjacent floats.  Each check is one
    ``level_feasible`` call with ``skip_settled``, which jumps over the
    stretches of rows its level settles.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    _check_scale(b)
    epsilon = _as_real(epsilon, "epsilon", above=0.0)
    h_lo = 0.0
    h_hi = g.max_value()
    if epsilon < math.ulp(h_hi):
        raise InvalidParamsError(f"epsilon={epsilon!r} is below the float spacing at max g = "
                                 f"{h_hi!r}; the least accepted is {math.ulp(h_hi)!r}")
    checks = 0
    while h_hi - h_lo > epsilon:
        mid = 0.5 * (h_lo + h_hi)
        checks += 1
        if level_feasible(g, b, R, mid, skip_settled=True):
            h_hi = mid
        else:
            h_lo = mid
    return WaterLevelSearch(level=h_hi, checks=checks, h_lo=h_lo, h_hi=h_hi)


def _exact_level(g: CostFunction, b: int, R: float) -> float:
    """The least feasible level itself, not a level within epsilon above it.

    The fill changes only where the level crosses a candidate day's cost, so a
    level midway between two consecutive distinct costs admits exactly the days
    costing at most the lower one; a binary search over those midpoints (and
    max g, which admits every day) finds the least feasible one.  A midpoint,
    not the cost itself: the fill tests activity in day space, where a day's
    own cost can map back to just below that day, which drops it.  Returns
    max g when no level is feasible.  Each probe jumps over the rows its level
    settles, as the bisection's checks do.
    """
    costs = np.unique(_fill_table(g, b).candidates(g)[1])
    top = costs.size - 1  # level k is the midpoint of costs k and k + 1, level top is max g

    def level(k: int) -> float:
        return 0.5 * (float(costs[k]) + float(costs[k + 1])) if k < top else g.max_value()

    lo, hi = 0, top  # levels hi.. are feasible, levels ..lo-1 are not
    while lo < hi:
        mid = (lo + hi) // 2
        if level_feasible(g, b, R, level(mid), skip_settled=True):
            hi = mid
        else:
            lo = mid + 1
    return level(lo)


def _construct_at_level(g: CostFunction, b: int, R: float,
                        h: float) -> StoppingDistribution | None:
    """The maximal-fill policy at level h; None exactly when ``level_feasible`` is false.

    Jumps over the rows h settles, reading the tables the search built.
    """
    fill = _fill_pass(g, b, R, h, skip_settled=True)
    return None if fill is None else _tight_policy(b, R, *fill)


def _lp_refine(g: CostFunction, b: int, R: float,
               fill: StoppingDistribution) -> StoppingDistribution:
    """Cost-minimal allocation over the compressed candidate-day set, from ``fill``.

    The level-restricted fill can be beaten by policies that buy expensive
    early days purely to free up moment budget for cheap late days; this exact
    redistribution catches those cases.  ``staircase.refine`` solves it from the
    fill's basis: it returns ``fill`` itself, unpivoted when the fill's own
    pricing proves it optimal, unless it finds a cheaper vertex, and warns when
    it stops early.
    """
    from .staircase import refine  # the solver is loaded by exact mode alone

    return refine(g, b, R, fill)


def water_fill(g: CostFunction, b: int, R: float,
               epsilon: float | None = None,
               exact: bool = True) -> tuple[StoppingDistribution, float]:
    """Minimal-cost R-robust stopping distribution for stopping costs ``g``.

    Builds the tight fill at the least water level whose active days can hold
    the whole unit of mass.  With ``exact=False`` that level is bisected to
    within ``epsilon`` above the least one and the level-restricted policy is
    returned as-is (the procedure the reference experiments report; ``epsilon``
    is validated in both modes but used only here).  With ``exact`` (the
    default) ``_exact_level`` finds the least level itself, and the fill is
    the warm start of ``_lp_refine``, the redistribution over the candidate
    days: restricting support to costs below the water level is provably
    suboptimal when cheap late days are moment-limited.  The LP returns the
    fill itself unless it finds a cheaper vertex (with a RuntimeWarning if it
    stops early).  An LP result is kept only if it passes
    ``check_robustness``, with a RuntimeWarning naming its worst slack if it
    does not; a fill that fails it raises InvariantError.
    """
    b = _as_b(b)
    R = _as_real(R, "R", above=1.0)
    _check_scale(b)
    if epsilon is not None:
        epsilon = _as_real(epsilon, "epsilon", above=0.0)
    if not feasible_robustness(b, R):
        raise InfeasibleError(f"no R-robust policy exists for b={b}, R={R}")
    if exact:
        level = _exact_level(g, b, R)
    else:
        if epsilon is None:
            epsilon = 1e-7 * g.max_value()
        level = minimal_water_level(g, b, R, epsilon).level
    policy = _construct_at_level(g, b, R, level)
    if policy is None:
        raise InfeasibleError(f"no policy fits within water level {level}")
    if exact:
        refined = _lp_refine(g, b, R, policy)
        if refined is not policy:
            report = check_robustness(refined, b, R)
            if report.feasible:
                return refined, expected_policy_cost(refined, g)
            day = report.violated_index()
            warnings.warn(f"exact refine's vertex fails the robustness check (worst slack "
                          f"{report.worst():.3g}, {f'day {day}' if day else 'the tail'}); "
                          f"returning the level fill", RuntimeWarning, stacklevel=2)
    if not check_robustness(policy, b, R).feasible:
        raise InvariantError("constructed policy failed its own robustness check")
    return policy, expected_policy_cost(policy, g)


def onehot_exact(b: int, R: float, y: int) -> StoppingDistribution:
    """Exact optimal stopping distribution for a point prediction at day y.

    The exact ``water_fill`` of the one-hot's cost function, so it is checked
    as every fill is; published mode's level-restricted fill is not optimal on
    every one-hot.
    """
    b = _as_b(b)
    y = _as_int(y, "y", 1)
    R = _as_real(R, "R", above=1.0)
    return water_fill(build_cost_function(DayDistribution((y,), (1.0,)), b), b, R)[0]
