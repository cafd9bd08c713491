import gc
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skirent.randomized as randomized
import skirent.staircase as staircase
from skirent import (
    DayDistribution,
    Family,
    FamilySpec,
    InfeasibleError,
    InvalidParamsError,
    InvariantError,
    RobustnessReport,
    ScaleExceededError,
    SkirentError,
    StoppingDistribution,
    baseline_policy,
    build_cost_function,
    check_robustness,
    expected_policy_cost,
    extension_condition_check,
    feasible_robustness,
    geometric_cdf,
    level_feasible,
    make_distribution,
    minimal_water_level,
    onehot_exact,
    realized_worst_ratio,
    sufficient_condition_check,
    water_fill,
)
from skirent.evaluation import TABLE_FAMILIES
from skirent.distributions import MAX_DAYS
from skirent.oracle import (_day_lags, active_days, candidate_days, lp_instance_from_cost,
                            lp_solve, ref_best_tail_day, ref_policy, ref_walk)
from skirent.randomized import CostFunction, parse_policy
from conftest import random_day_distribution


class Segment(NamedTuple):
    """One row of a cost table, as ``ref_cost_segments`` builds it."""

    lo: int
    hi: float
    slope: float
    intercept: float


class Subclass(np.ndarray):
    """An ndarray subclass, which a cost function copies into a bare ndarray."""


def atom_array(n: int) -> int:
    """Bytes of one float column of a cost function over n atoms: its n + 1 rows."""
    return 8 * (n + 1)


def traced_peak(call) -> int:
    """The peak bytes tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cost_table(rows) -> CostFunction:
    """A cost function from (lo, hi, slope, intercept) rows, its tail included."""
    return CostFunction(*np.array(rows, dtype=float).T)


def one_hot(y: int) -> DayDistribution:
    return DayDistribution((y,), (1.0,))


def buy_day(t: int) -> StoppingDistribution:
    return StoppingDistribution((t,), (1.0,))


def random_stopping(rng, max_day=30, max_atoms=8) -> StoppingDistribution:
    n = int(rng.integers(1, max_atoms + 1))
    days = np.sort(rng.choice(np.arange(1, max_day + 1), size=n, replace=False))
    masses = rng.dirichlet(np.ones(n))
    return StoppingDistribution(tuple(int(d) for d in days), tuple(masses))


def direct_costs(p_hat: DayDistribution, b: int, t: int) -> float:
    rent = sum(q * d for d, q in p_hat.support if d < t)
    buy = sum(q for d, q in p_hat.support if d >= t) * (b + t - 1)
    return rent + buy


def tied_cost_function(rng) -> CostFunction:
    """Segments with quarter-step slopes and half-step intercepts: exact, often tied costs."""
    n = int(rng.integers(1, 12))
    ends = np.sort(rng.choice(np.arange(1, 60), size=n, replace=False))
    rows, lo = [], 0
    for hi in ends:
        rows.append((lo, float(hi), float(rng.choice([0.0, 0.25, 0.5, 1.0])),
                     0.5 * float(rng.integers(0, 8))))
        lo = int(hi)
    return cost_table(rows + [(lo, math.inf, 0.0, 0.5 * float(rng.integers(0, 8)))])


def ref_cost_segments(p_hat: DayDistribution, b: int) -> list[Segment]:
    """The per-atom loop that built the cost table before it was built from columns."""
    days = p_hat.days
    probs = p_hat.probs
    segments = []
    prefix_weighted = 0.0
    tail_prob = 1.0
    lo = 0
    for d, q in zip(days, probs):
        segments.append(Segment(lo=lo, hi=float(d), slope=tail_prob,
                                intercept=prefix_weighted + (b - 1) * tail_prob))
        prefix_weighted += q * d
        tail_prob -= q
        lo = d
    return segments + [Segment(lo=lo, hi=math.inf, slope=0.0, intercept=p_hat.mean())]


def ref_robustness(f: StoppingDistribution, b: int, R: float):
    """The O(b) scan: the (day, slack) tuples of every day below b, the tail slack and
    the verdict, for ``ref_worst`` and ``ref_violated_index``."""
    xs = np.arange(1, b)
    F = f.cdf_at(xs)
    mu = f._through(f._cum_moment, xs)
    slacks = (R - 1.0) * xs - (mu + (b - xs) * F)
    tail_slack = (R - 1.0) * b - f.first_moment()
    feasible = bool(tail_slack >= -1e-9 and (slacks.size == 0 or slacks.min() >= -1e-9))
    per_day_slack = tuple((int(x), float(s)) for x, s in zip(xs, slacks))
    return per_day_slack, float(tail_slack), feasible


def ref_worst(per_day_slack, tail_slack) -> float:
    slacks = [s for _, s in per_day_slack]
    slacks.append(tail_slack)
    return min(slacks)


def ref_violated_index(per_day_slack, tail_slack, feasible) -> int | None:
    if feasible:
        return None
    worst_day, worst_val = 0, tail_slack
    for day, s in per_day_slack:
        if s < worst_val:
            worst_day, worst_val = day, s
    return worst_day


def ref_realized_worst_ratio(f: StoppingDistribution, b: int, horizon: int) -> float:
    """The scan over every horizon day that the support-size scan replaced."""
    xs = np.arange(1, horizon + 1)
    F = f.cdf_at(xs)
    mu = f._through(f._cum_moment, xs)
    ratios = (mu + (b - xs) * F + xs) / np.minimum(xs, b)
    return float(ratios.max())


def ref_extension_condition_check(g: CostFunction, b: int, R: float, y: int) -> bool:
    """The per-day loop that the row-boundary check replaced."""
    threshold = b - 1 + math.log(R / (R - 1.0)) / math.log(b / (b - 1.0))
    if y < threshold - 1e-9:
        return False
    if y + 1 - b < 1:
        return False
    for t in range(1, y):
        if g(t) > g(t + 1) + 1e-12:
            return False
    ref = g(y + 1 - b)
    window = max(g.support_end, 4 * b)
    for t in range(y + 1, y + window + 1):
        if g(t) < ref - 1e-9:
            return False
    return True


def fill_instances(rng, count=300):
    """Random (g, b, R, levels): 25 levels, 12 of them within 3 epsilon of the water level."""
    for _ in range(count):
        b = int(rng.integers(2, 60))
        R = float(rng.uniform(1.3, 3.0))
        if not feasible_robustness(b, R):
            R = 2.5
        p_hat = random_day_distribution(rng, max_day=int(rng.integers(2, 4 * b + 2)),
                                        max_atoms=int(rng.integers(1, 40)))
        g = build_cost_function(p_hat, b)
        eps = 1e-7 * g.max_value()
        level = minimal_water_level(g, b, R, eps).level
        costs = [g(int(t)) for t in rng.integers(1, g.support_end + 2, size=5)]
        levels = [*np.linspace(0.0, g.max_value(), 8), *costs,
                  *(level + k * eps / 2 for k in range(-6, 6))]
        yield g, b, R, levels


class TestStoppingDistribution:
    def test_cache_consistency(self, rng):
        for _ in range(50):
            f = random_stopping(rng)
            for x in range(0, f.max_day + 3):
                cdf = sum(m for d, m in f.support if d <= x)
                mom = sum((d - 1) * m for d, m in f.support if d <= x)
                assert f.cdf(x) == pytest.approx(cdf, abs=1e-12)
                assert f.first_moment(x) == pytest.approx(mom, abs=1e-12)
            assert f.first_moment() == pytest.approx(
                sum((d - 1) * m for d, m in f.support), abs=1e-12)

    def test_json_roundtrip(self, rng):
        f = random_stopping(rng)
        again = parse_policy(f.to_json_dict(b=5, r=2.0, objective=1.0))
        assert again.days == f.days
        assert all(abs(a - c) < 1e-12 for a, c in zip(again.masses, f.masses))

    def test_policy_without_pmf_rejected(self):
        with pytest.raises(InvalidParamsError, match="'pmf' key"):
            parse_policy({})

    def test_running_sums_wait_for_the_first_check(self):
        p_hat = DayDistribution((3, 10, 60), (0.3, 0.3, 0.4))
        g = build_cost_function(p_hat, 20)
        f = StoppingDistribution((1, 3, 9), (0.2, 0.3, 0.5))
        mixture = baseline_policy(p_hat, 20, 2.0, "mixture")
        for policy in (f, mixture):
            expected_policy_cost(policy, g)  # pricing reads neither running sum
            assert "_cum" not in vars(policy) and "_cum_moment" not in vars(policy)
        check_robustness(f, 20, 1.7)
        assert vars(f)["_cum"].tolist() == [0.0, 0.2, 0.2 + 0.3, 0.2 + 0.3 + 0.5]
        assert vars(f)["_cum_moment"].tolist() == [0.0, 0.0, 0.3 * 2, 0.3 * 2 + 0.5 * 8]
        assert not (f._cum.flags.writeable or f._cum_moment.flags.writeable)


class TestCostFunction:
    def test_one_hot_shape(self):
        g = build_cost_function(one_hot(7), 4)
        for t in range(1, 8):
            assert g(t) == pytest.approx(4 + t - 1, abs=1e-12)
        for t in range(8, 20):
            assert g(t) == pytest.approx(7.0, abs=1e-12)

    def test_worked_example_value(self, worked_example):
        g = build_cost_function(worked_example, 3)
        assert g(2) == pytest.approx(1.6, abs=1e-12)

    def test_segment_matches_direct_sum(self, rng):
        for _ in range(25):
            p_hat = random_day_distribution(rng, max_day=50)
            b = int(rng.integers(2, 20))
            g = build_cost_function(p_hat, b)
            for _ in range(40):
                t = int(rng.integers(1, 2 * p_hat.max_day + 5))
                assert g(t) == pytest.approx(direct_costs(p_hat, b, t), abs=1e-9)

    def test_slopes_nonincreasing_in_unit_range(self, rng):
        for _ in range(20):
            p_hat = random_day_distribution(rng)
            g = build_cost_function(p_hat, 6)
            slopes = g.slope[:-1].tolist()
            assert all(0.0 <= s <= 1.0 for s in slopes)
            assert all(a >= b_ - 1e-12 for a, b_ in zip(slopes, slopes[1:]))

    def test_prefix_is_rent_plus_buy(self, rng):
        p_hat = random_day_distribution(rng, max_day=40)
        b = 9
        g = build_cost_function(p_hat, b)
        for t in range(1, p_hat.days[0] + 1):
            assert g(t) == pytest.approx(t + b - 1, abs=1e-12)

    def test_values_at_matches_call(self, rng):
        for _ in range(10):
            p_hat = random_day_distribution(rng, max_day=80)
            g = build_cost_function(p_hat, int(rng.integers(2, 40)))
            ts = np.arange(1, g.support_end + 10)
            assert np.array_equal(g.values_at(ts.astype(float)), [g(int(t)) for t in ts])

    def test_tail_is_mean(self, rng):
        p_hat = random_day_distribution(rng)
        g = build_cost_function(p_hat, 5)
        assert g(p_hat.max_day + 3) == pytest.approx(p_hat.mean(), abs=1e-12)

    def test_columns_match_segment_loop(self, rng):
        predictions = [random_day_distribution(rng, max_day=int(rng.integers(1, 3000)),
                                               max_atoms=int(rng.integers(1, 400)))
                       for _ in range(60)]
        # far tails carry masses near 1e-16, where the running tail mass rounds most
        for n in (1000, 6000, 20_000):
            predictions.append(make_distribution(FamilySpec(
                Family.GAUSSIAN_DISCRETIZED, {"mean": 0.3 * n, "stddev": 0.04 * n, "high": n})))
            predictions.append(make_distribution(FamilySpec(
                Family.GEOMETRIC_TRUNCATED, {"rate": 40.0 / n, "high": n})))
        for p_hat in predictions:
            b = int(rng.integers(2, 2 * p_hat.max_day + 3))
            g = build_cost_function(p_hat, b)
            reference = np.array(ref_cost_segments(p_hat, b))
            assert np.array_equal(np.column_stack((g.lo, g.hi, g.slope, g.intercept)), reference)
            # the fill's walk reads the rows below b, their ends cut at b, as columns
            rows = [(int(lo) + 1, int(min(hi, b)), slope, intercept)
                    for lo, hi, slope, intercept in reference.tolist() if lo < b]
            table = randomized._fill_table(g, b)
            columns = (table.starts, table.ends, table.slopes, table.intercepts)
            assert [c.tolist() for c in columns] == [list(c) for c in zip(*rows)]
            assert all(c.readonly for c in columns)
        assert min(predictions[-1].probs) < 1e-15
        with pytest.raises(ValueError):
            g.slope[0] = 0.5  # read-only: the cached walk tables could not follow a write

    SHAPE = "cost function columns must be 1-d and of equal length"
    ROW = "cost function needs a row before its constant tail"
    TILE = "cost function rows must tile (0, inf) at integer days"
    FINITE = "cost function slopes and intercepts must be finite"

    @pytest.mark.parametrize("columns, message", [
        (([0, 3], [3, math.inf], [1.0], [1.0, 2.0]), SHAPE),
        (([0, 3], [3, math.inf], [1.0, 0.0], [1.0, 2.0, 3.0]), SHAPE),
        (([], [], [], []), ROW),
        (([0], [math.inf], [0.0], [2.0]), ROW),
        (([[0, 3]], [[3, math.inf]], [[1.0, 0.0]], [[1.0, 2.0]]), SHAPE),
        (([1, 3], [3, math.inf], [1.0, 0.0], [1.0, 2.0]), TILE),
        (([0, 4], [3, math.inf], [1.0, 0.0], [1.0, 2.0]), TILE),
        (([0, 3, 6], [4, 6, math.inf], [1.0, 0.5, 0.0], [1.0, 1.5, 2.0]), TILE),
        (([0, 3, 3], [3, 3, math.inf], [1.0, 0.5, 0.0], [1.0, 1.5, 2.0]), TILE),
        (([0, 2.5], [2.5, math.inf], [1.0, 0.0], [1.0, 2.0]), TILE),
        (([0, 3], [3, 9], [1.0, 0.0], [1.0, 2.0]), TILE),
        (([0, 3], [3, math.inf], [1.0, 0.5], [1.0, 2.0]),
         "cost function must end in a constant tail"),
        (([0, 3], [3, math.inf], [math.nan, 0.0], [1.0, 2.0]), FINITE),
        (([0, 3], [3, math.inf], [-math.inf, 0.0], [1.0, 2.0]), FINITE),
        (([0, 3], [3, math.inf], [1.0, 0.0], [1.0, math.inf]), FINITE),
    ], ids=["unequal", "unequal_intercept", "empty", "tail_only", "two_dim", "not_from_zero",
            "gap", "overlap", "empty_row", "fractional_day", "no_infinite_end", "sloped_tail",
            "nan_slope", "infinite_slope", "infinite_intercept"])
    def test_rejects_malformed_tables(self, columns, message):
        with pytest.raises(InvalidParamsError) as caught:
            CostFunction(*columns)
        assert type(caught.value) is InvalidParamsError and str(caught.value) == message

    def test_stores_read_only_copies(self):
        columns = [np.array(c, dtype=float) for c in ([0, 3], [3, math.inf], [1.0, 0.0], [1.0, 2.0])]
        g = CostFunction(*columns)
        for stored, given in zip((g.lo, g.hi, g.slope, g.intercept), columns):
            assert not stored.flags.writeable and given.flags.writeable
            assert not np.shares_memory(stored, given)

    def test_shares_frozen_owned_float_columns(self):
        columns = [np.array(c, dtype=float) for c in ([0, 3], [3, math.inf], [1.0, 0.0], [1.0, 2.0])]
        for column in columns:
            column.flags.writeable = False
        g = CostFunction(*columns)
        for stored, given in zip((g.lo, g.hi, g.slope, g.intercept), columns):
            assert stored is given

    def test_copies_frozen_views_and_other_dtypes(self):
        base = np.array([0.0, 3.0, 3.0, math.inf])
        lo, hi = base[:2], base[2:]  # frozen views of a writable base
        lo.flags.writeable = hi.flags.writeable = False
        slope = np.array([1, 0])  # a frozen int64 column
        slope.flags.writeable = False
        intercept = np.ndarray.__new__(Subclass, 2)  # owns its memory, but not a bare ndarray
        intercept[:] = [1.0, 2.0]
        intercept.flags.writeable = False
        g = CostFunction(lo, hi, slope, intercept)
        for stored, given in ((g.lo, lo), (g.hi, hi), (g.slope, slope), (g.intercept, intercept)):
            assert type(stored) is np.ndarray and stored.dtype == np.float64
            assert not stored.flags.writeable and not np.shares_memory(stored, given)
        assert g.slope.tolist() == [1.0, 0.0]
        base[0] = 7.0  # a write through the base reaches no stored column
        assert g.lo.tolist() == [0.0, 3.0]

    def test_builds_each_column_once(self):
        # the columns were built and then copied: a peak of 9.1 atom arrays
        n = 20_000
        p_hat = uniform_days(n)
        peak = traced_peak(lambda: build_cost_function(p_hat, 500))
        assert peak <= 6 * atom_array(n)
        g = build_cost_function(p_hat, 500)
        assert all(c.base is None and not c.flags.writeable
                   for c in (g.lo, g.hi, g.slope, g.intercept))

    def test_values_at_matches_a_search_of_every_row(self, rng):
        # values_at searches the rows up to the largest day asked for; the reference
        # searches the whole hi column
        def whole_column(g, ts):
            idx = np.searchsorted(g.hi, ts, side="left")
            return g.slope[idx] * ts + g.intercept[idx]

        for _ in range(20):
            p_hat = random_day_distribution(rng, max_day=int(rng.integers(1, 400)))
            g = build_cost_function(p_hat, int(rng.integers(2, 60)))
            end = g.support_end
            cases = [
                rng.permutation(np.arange(1.0, end + 20)),  # unsorted, past the support end
                rng.integers(1, end + 1, size=30),  # int64 days, repeats
                g.hi[:-1].copy(),  # every row end
                g.hi[:-1][::-1] + 1.0,  # every row's first day but the first, descending
                np.array([float(end), 2.0**60, 1.0]),  # far past the support end
                np.array(float(rng.integers(1, end + 1))),  # a 0-d array
                np.array(float(end)),
                np.empty(0),
                np.empty(0, dtype=np.int64),
            ]
            for ts in cases:
                got, want = g.values_at(ts), whole_column(g, ts)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), ts


class TestRobustnessCheck:
    def test_point_mass_at_b(self):
        rep = check_robustness(buy_day(4), b=4, R=2.0)
        assert rep.feasible
        assert rep.days.tolist() == [1]  # no support day below b
        for x, slack in zip(rep.days, rep.slacks):
            assert slack == pytest.approx(x, abs=1e-12)   # (R-1)x with F(x)=0
        assert rep.tail_slack == pytest.approx(1.0, abs=1e-12)

    def test_buy_day_one_needs_r_at_least_b(self):
        for b in (2, 3, 5, 8):
            assert check_robustness(buy_day(1), b, R=b).feasible
            assert not check_robustness(buy_day(1), b, R=b - 0.01).feasible

    def test_geometric_always_feasible(self):
        # at b = 3367 a float (b/(b-1))**x broke the envelope's constraints by 1.1e-9
        for b in (*range(2, 101, 7), 3367, 10_000):
            for R in (1.6, 1.7, 2.0, 2.5, 3.0):
                if not feasible_robustness(b, R):
                    continue
                rep = check_robustness(geometric_cdf(b, R), b, R)
                assert rep.feasible and rep.worst() >= -1e-9

    def test_violated_index_reported(self):
        rep = check_robustness(buy_day(1), b=6, R=1.5)
        assert not rep.feasible
        assert rep.violated_index() == 1

    def test_slacks_match_per_day_tuples(self, rng):
        violated = 0
        for _ in range(300):
            b = int(rng.integers(2, 40))
            R = float(rng.uniform(1.2, 3.0))
            f = random_stopping(rng, max_day=3 * b, max_atoms=6)
            rep = check_robustness(f, b, R)
            per_day_slack, tail_slack, feasible = ref_robustness(f, b, R)
            days = rep.days.tolist()
            assert days == sorted({1} | {d for d in f.days if d < b})
            assert tuple(zip(days, rep.slacks.tolist())) == tuple(per_day_slack[x - 1] for x in days)
            # the verdicts over these days are those of the scan over every day
            assert (rep.tail_slack, rep.feasible) == (tail_slack, feasible)
            assert rep.worst() == ref_worst(per_day_slack, tail_slack)
            assert rep.violated_index() == ref_violated_index(per_day_slack, tail_slack, feasible)
            violated += not feasible
        assert 30 < violated < 270

    @pytest.mark.parametrize("slacks, tail_slack, day", [
        ([-1.0, -2.0, -2.0], -2.0, 0),
        ([-1.0, -2.0, -2.0], -1.0, 2),
        ([], -1.0, 0),
    ])
    def test_violated_index_ties(self, slacks, tail_slack, day):
        # the tail wins a tie, then the earliest day; ``day`` counts the report's
        # days from 1, which are 1, 4, 7 here
        days = np.arange(1, 3 * len(slacks), 3)
        rep = randomized.RobustnessReport(days, np.array(slacks), tail_slack, False)
        per_day_slack = tuple(zip(days.tolist(), slacks))
        assert rep.violated_index() == (3 * day - 2 if day else 0)
        assert rep.violated_index() == ref_violated_index(per_day_slack, tail_slack, False)
        assert rep.worst() == ref_worst(per_day_slack, tail_slack)

    def test_repeated_check_returns_the_kept_report(self):
        f = StoppingDistribution((1, 3, 9), (0.2, 0.3, 0.5))
        rep = check_robustness(f, 6, 2.0)
        assert check_robustness(f, 6, 2.0) is rep
        assert check_robustness(f, np.int64(6), 2) is rep  # the same b and R as numbers
        for array in (rep.days, rep.slacks):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # the arguments are still validated before the kept report is read
        with pytest.raises(InvalidParamsError):
            check_robustness(f, 6, 0.5)
        with pytest.raises(ScaleExceededError):
            check_robustness(f, MAX_DAYS + 1, 2.0)
        other = check_robustness(f, 6, 2.5)
        assert other is not rep and other.slacks.tolist() != rep.slacks.tolist()
        assert check_robustness(f, 6, 2.5) is other
        # only the last (b, R) is kept, and a new report equals the first
        again = check_robustness(f, 6, 2.0)
        assert again is not rep and again.slacks.tolist() == rep.slacks.tolist()
        assert check_robustness(f, 7, 2.0) is not again

    def test_cost_follows_the_support_not_b(self):
        # the scan over every day below b took 480 MB at this b
        f = StoppingDistribution((3, 2 * MAX_DAYS), (0.5, 0.5))
        tracemalloc.start()
        try:
            rep = check_robustness(f, MAX_DAYS, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert rep.days.tolist() == [1, 3]
        # day 3 holds F = 0.5 at mu = 1: slack 3 - (1 + (b - 3) / 2)
        assert rep.slacks.tolist() == [1.0, 3.0 - (1.0 + (MAX_DAYS - 3) * 0.5)]
        assert not rep.feasible and rep.violated_index() == 3


class TestRealizedWorstRatio:
    def test_feasible_policy_within_r(self, rng):
        for b, R in ((5, 2.0), (12, 1.7), (30, 1.6)):
            if not feasible_robustness(b, R):
                continue
            f = geometric_cdf(b, R)
            assert realized_worst_ratio(f, b, max(5 * b, f.max_day)) <= R + 1e-6

    def test_buy_day_one_ratio_is_b(self):
        assert realized_worst_ratio(buy_day(1), 5, 10) == pytest.approx(5.0, abs=1e-12)

    def test_matches_dense_scan(self, rng):
        for _ in range(3000):
            b = int(rng.integers(2, 30))
            max_day = int(rng.integers(1, 4 * b + 2))
            f = random_stopping(rng, max_day=max_day, max_atoms=min(10, max_day))
            horizon = int(rng.integers(b, max(b, f.max_day) + 20))
            expected = ref_realized_worst_ratio(f, b, horizon)
            assert realized_worst_ratio(f, b, horizon) == pytest.approx(expected, rel=1e-14)

    def test_cost_follows_the_support_not_the_horizon(self):
        f = StoppingDistribution((1, 10**7), (0.5, 0.5))
        tracemalloc.start()
        try:
            worst = realized_worst_ratio(f, 10, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # the last day is the worst horizon: (mu + b) / b with mu = (10^7 - 1) / 2
        assert worst == pytest.approx((0.5 * (10**7 - 1) + 10) / 10, rel=1e-15)
        small = StoppingDistribution((1, 10**4), (0.5, 0.5))
        assert realized_worst_ratio(small, 10, 10**4) == ref_realized_worst_ratio(small, 10, 10**4)
        # past the support the ratio stays put; past float range it raised an OverflowError
        assert realized_worst_ratio(f, 10, 10**400) == realized_worst_ratio(f, 10, 2**64) == worst

    # before: nan, nan, 5.5 and a bare TypeError
    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 12.5, "20", True, None, 9])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(InvalidParamsError, match="horizon"):
            realized_worst_ratio(buy_day(3), 10, horizon)

    def test_matches_monte_carlo(self, rng):
        f = random_stopping(rng, max_day=15)
        b = 6
        x = 9
        draws = f.sample(rng, 200_000)
        costs = np.where(draws > x, x, b + draws - 1)
        est, se = costs.mean(), costs.std(ddof=1) / math.sqrt(len(costs))
        closed = f.first_moment(x) + (b - x) * f.cdf(x) + x
        assert abs(closed - est) <= 3 * se + 1e-9

    def test_expected_cost_identity(self, rng):
        # closed form for E[C_Z(x)] agrees with the direct expectation
        for _ in range(200):
            f = random_stopping(rng)
            b = int(rng.integers(2, 12))
            x = int(rng.integers(1, f.max_day + 4))
            direct = sum(m * (x if d > x else b + d - 1) for d, m in f.support)
            closed = f.first_moment(x) + (b - x) * f.cdf(x) + x
            assert closed == pytest.approx(direct, abs=1e-9)


class TestGeometricCdf:
    def test_b2_r2_all_on_day_one(self):
        assert geometric_cdf(2, 2.0).support == ((1, 1.0),)

    def test_saturation_day_at_reference_point(self):
        assert geometric_cdf(50, 1.7).max_day == 44

    def test_saturation_day_closed_form(self):
        for b, R in ((10, 1.8), (25, 1.7), (80, 1.65)):
            if not feasible_robustness(b, R):
                continue
            x0 = math.ceil(math.log(R / (R - 1)) / math.log(b / (b - 1)) - 1e-12)
            assert geometric_cdf(b, R).max_day == x0

    @pytest.mark.parametrize("R", [1, 0.5])
    def test_no_robustness_at_or_below_1(self, R):
        assert feasible_robustness(50, R) is False

    def test_infeasible_r_raises(self):
        # below 1 + 1/((b/(b-1))^b - 1) no robust policy exists at all
        with pytest.raises(InfeasibleError):
            geometric_cdf(100, 1.1)

    def test_cdf_rides_envelope(self):
        f = geometric_cdf(20, 1.8)
        gamma = 20 / 19
        for x in range(1, f.max_day):
            assert f.cdf(x) == pytest.approx(0.8 * (gamma ** x - 1), abs=1e-12)
        assert f.cdf(f.max_day) == pytest.approx(1.0, abs=1e-12)


class TestExtensionCondition:
    def test_one_hot_above_threshold(self):
        b, R = 10, 1.7
        thr = b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))
        y = math.ceil(thr) + 1
        g = build_cost_function(one_hot(y), b)
        assert extension_condition_check(g, b, R, y) is True

    def test_one_hot_below_threshold(self):
        b, R = 10, 1.7
        thr = b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))
        y = int(thr) - 2
        g = build_cost_function(one_hot(y), b)
        assert extension_condition_check(g, b, R, y) is False

    @pytest.mark.parametrize("b, R, y", [(10, 2.0, 10**4), (2, 2.0, 1025), (10, 1.7, 7000)])
    def test_far_out_one_hot_saturates(self, b, R, y):
        # (y + 1 - b) log(gamma) is past exp's range, so the test must stay in log space
        g = build_cost_function(one_hot(y), b)
        assert extension_condition_check(g, b, R, y) is True

    def test_monotone_costs_pass_for_any_valid_y(self):
        # support far to the right keeps the cost strictly increasing
        b, R = 8, 1.8
        p_hat = DayDistribution((60, 80), (0.5, 0.5))
        g = build_cost_function(p_hat, b)
        thr = b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))
        y = math.ceil(thr) + 3
        assert extension_condition_check(g, b, R, y) is True

    def test_matches_day_loop(self, rng):
        outcomes = []
        for i in range(300):
            b = int(rng.integers(2, 40))
            R = float(rng.uniform(1.4, 3.0))
            thr = b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))
            y = int(rng.integers(max(1, math.floor(thr) - 2), math.ceil(thr) + 3 * b))
            if i % 3 == 0:
                g = tied_cost_function(rng)
            else:
                # a light first atom keeps the costs through y rising more often
                first = int(rng.integers(1, 3 * b))
                late = np.sort(rng.choice(np.arange(first + 1, 1001), size=int(rng.integers(0, 6)),
                                          replace=False))
                light = float(rng.uniform(0.0, 2.0 / b))
                masses = [light, *rng.dirichlet(np.ones(len(late))) * (1 - light)] if late.size else [1.0]
                g = build_cost_function(DayDistribution((first, *late.tolist()), tuple(masses)), b)
            got = extension_condition_check(g, b, R, y)
            assert got is ref_extension_condition_check(g, b, R, y)
            outcomes.append(got)
        assert 30 < sum(outcomes) < 270

    def test_day_before_b_fails_when_the_envelope_saturates_at_once(self):
        # R - 1 above b 1e9 puts the saturation day within 1e-9 of 0, so y = b - 1
        # passes the threshold test and is rejected for y + 1 - b < 1 alone: read
        # on, it would ask for g(0)
        b, R = 10, 1.0 + 10 * 1e10
        g = build_cost_function(one_hot(100), b)
        assert extension_condition_check(g, b, R, b - 1) is False
        assert ref_extension_condition_check(g, b, R, b - 1) is False
        assert extension_condition_check(g, b, R, b) is True

    def test_cost_follows_the_rows_not_the_days(self):
        b, R = 10, 2.0
        y = math.ceil(b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))) + 1
        g = build_cost_function(DayDistribution((1, 10**7), (0.01, 0.99)), b)
        start = time.perf_counter()
        assert extension_condition_check(g, b, R, y) is True
        # the day loop took about 36 s to scan the 10^7-day window
        assert time.perf_counter() - start < 1.0


class TestOnehotExact:
    def test_long_flat_tail_equals_geometric(self):
        cases = []
        for b, R in ((6, 2.0), (10, 1.7), (25, 1.7)):
            thr = b - 1 + math.log(R / (R - 1)) / math.log(b / (b - 1))
            cases.append((b, R, math.ceil(thr) + 2))
        # far-out predictions, up to the last int64 day
        cases += [(50, 2.0, 10**15), (50, 1.7, 2**62), (3367, 2.0, 10**12), (6, 2.0, 2**63 - 1)]
        for b, R, y in cases:
            pol = onehot_exact(b, R, y)
            geo = geometric_cdf(b, R)
            assert pol.days == geo.days
            assert all(abs(a - c) <= 1e-9 for a, c in zip(pol.masses, geo.masses))

    def test_objective_identity_case_low(self):
        # value must equal y + b F(y) - sum_{x<=y} F(x)
        b, R = 8, 2.0
        for y in range(1, b):
            pol = onehot_exact(b, R, y)
            g = build_cost_function(one_hot(y), b)
            p_star = pol.cdf(y)
            s_star = sum(pol.cdf(x) for x in range(1, y + 1))
            assert expected_policy_cost(pol, g) == pytest.approx(
                y + b * p_star - s_star, abs=1e-9)

    def test_objective_identity_case_high(self):
        b, R = 6, 2.0
        for y in range(b, 3 * b):
            pol = onehot_exact(b, R, y)
            g = build_cost_function(one_hot(y), b)
            p_star = pol.cdf(b)
            phi = (y - b) * p_star + sum(pol.cdf(x) for x in range(1, b + 1))
            assert expected_policy_cost(pol, g) == pytest.approx(
                y + b * p_star - phi, abs=1e-9)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            onehot_exact(8, 1.5, 5)

    def test_always_robust(self, rng):
        for _ in range(60):
            b = int(rng.integers(2, 15))
            R = float(rng.uniform(1.55, 3.0))
            if not feasible_robustness(b, R):
                continue
            y = int(rng.integers(1, 3 * b))
            pol = onehot_exact(b, R, y)
            assert check_robustness(pol, b, R).feasible
        # a float (b/(b-1))**k in the tight continuation broke these by 1.1e-9
        for R, y in ((2.5, 10), (2.0, 96), (1.7, 138), (1.7, 419)):
            assert check_robustness(onehot_exact(3367, R, y), 3367, R).feasible

    @pytest.mark.parametrize("b, ys", [(4, range(1, 13)), (10, range(1, 31)), (50, range(1, 151)),
                                       (500, (1, 250, 499, 500, 501, 1000, 1500))],
                             ids=["b4", "b10", "b50", "b500_spot"])
    def test_robust_at_least_feasible_r(self, b, ys):
        # at the least R that feasible_robustness accepts, every y raised
        # InfeasibleError: the cap search aimed at a full mass of exactly 1, which
        # rounding put out of reach even at p = 1 (at b = 4 so is 1 - 1e-15)
        R = 1.0 + 1.0 / math.expm1(b * math.log1p(1.0 / (b - 1.0)))
        while feasible_robustness(b, R):
            R = math.nextafter(R, 0.0)
        while not feasible_robustness(b, R):
            R = math.nextafter(R, math.inf)
        for y in ys:
            assert check_robustness(onehot_exact(b, R, y), b, R).feasible, y

    def test_time_grows_linearly(self):
        # the exact fill of a one-hot reads its O(b) candidate days a bounded number
        # of times: slope 2 means some pass re-reads them once per day
        sizes = (500, 1000, 2000)
        times = []
        for b in sizes:
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                onehot_exact(b, 2.0, 2 * b)
                best = min(best, time.perf_counter() - start)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 1.3, f"log-log slope {slope:.2f} of best times {times}"


def monotone_instance(rng, b):
    """Prediction far beyond b: costs are strictly increasing over [1, 2b]."""
    base = 2 * b
    n = int(rng.integers(1, 7))
    days = np.sort(rng.choice(np.arange(base, 2 * base), size=n, replace=False))
    probs = rng.dirichlet(np.ones(n))
    return DayDistribution(tuple(int(d) for d in days), tuple(probs))


class TestWaterFill:
    def test_monotone_recovers_geometric(self, rng):
        for _ in range(25):
            b = int(rng.integers(4, 30))
            R = float(rng.uniform(1.7, 2.5))
            p_hat = monotone_instance(rng, b)
            g = build_cost_function(p_hat, b)
            assert all(g(t) < g(t + 1) for t in range(1, 2 * b))
            eps = 1e-7 * g.max_value()
            policy, _ = water_fill(g, b, R, eps)
            geo = geometric_cdf(b, R)
            tol = max(eps * len(p_hat.days), 1e-6)
            for x in range(1, geo.max_day + 1):
                assert abs(policy.cdf(x) - geo.cdf(x)) <= tol

    def test_one_hot_matches_exact(self, rng):
        for _ in range(40):
            b = int(rng.integers(3, 12))
            R = float(rng.uniform(1.6, 2.5))
            if not feasible_robustness(b, R):
                continue
            y = int(rng.integers(1, 3 * b))
            g = build_cost_function(one_hot(y), b)
            eps = 1e-9
            _, wf_obj = water_fill(g, b, R, eps)
            exact_obj = expected_policy_cost(onehot_exact(b, R, y), g)
            assert abs(wf_obj - exact_obj) <= eps + 1e-9

    def test_reference_twopoint_consistency(self):
        p_hat = DayDistribution((30, 120), (0.7, 0.3))
        g = build_cost_function(p_hat, 50)
        policy, obj = water_fill(g, 50, 1.7)
        min_cost = min(g(t) for t in range(1, 122))
        assert obj / min_cost == pytest.approx(1.0415, abs=0.005)

    def test_emitted_policies_always_robust(self, rng):
        for _ in range(80):
            b = int(rng.integers(2, 14))
            R = float(rng.choice([1.7, 2.0, 2.5]))
            p_hat = random_day_distribution(rng, max_day=4 * b)
            g = build_cost_function(p_hat, b)
            try:
                policy, _ = water_fill(g, b, R)
            except InfeasibleError:
                assert not feasible_robustness(b, R)
                continue
            rep = check_robustness(policy, b, R)
            assert rep.feasible and rep.worst() >= -1e-9
            horizon = max(policy.max_day, p_hat.max_day, 5 * b)
            assert realized_worst_ratio(policy, b, horizon) <= R + 1e-6

    def test_published_mode_also_robust(self, rng):
        for _ in range(30):
            b = int(rng.integers(2, 14))
            R = float(rng.choice([1.7, 2.5]))
            p_hat = random_day_distribution(rng, max_day=4 * b)
            g = build_cost_function(p_hat, b)
            try:
                policy, obj = water_fill(g, b, R, exact=False)
            except InfeasibleError:
                continue
            assert check_robustness(policy, b, R).feasible
            exact_obj = water_fill(g, b, R)[1]
            assert exact_obj <= obj + 1e-9

    def test_level_monotonicity(self, rng):
        for _ in range(25):
            b = int(rng.integers(3, 10))
            R = float(rng.choice([1.7, 2.0]))
            p_hat = random_day_distribution(rng, max_day=3 * b)
            g = build_cost_function(p_hat, b)
            h_vals = np.linspace(0, g.max_value(), 25)
            flags = [level_feasible(g, b, R, h) for h in h_vals]
            # once feasible, always feasible
            assert all(not (a and not b_) for a, b_ in zip(flags, flags[1:]))

    def test_bisection_check_count(self, rng):
        for _ in range(10):
            b = int(rng.integers(3, 10))
            p_hat = random_day_distribution(rng, max_day=3 * b)
            g = build_cost_function(p_hat, b)
            eps = 1e-6 * g.max_value()
            search = minimal_water_level(g, b, 2.0, eps)
            expected = math.ceil(math.log2(g.max_value() / eps))
            assert abs(search.checks - expected) <= 1

    def test_epsilon_validation(self, worked_example):
        g = build_cost_function(worked_example, 3)
        with pytest.raises(InvalidParamsError):
            water_fill(g, 3, 2.0, epsilon=0.0)

    def test_epsilon_below_float_spacing_rejected(self):
        # looped forever: once the ends are adjacent floats near max g = 79 the
        # midpoint is one of them, and their distance stays ulp(79) > 5e-15
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        floor = math.ulp(g.max_value())
        for epsilon in (5e-15, 1e-300, math.nextafter(floor, 0.0)):
            with pytest.raises(InvalidParamsError, match=repr(floor)):
                minimal_water_level(g, 50, 1.7, epsilon)
            with pytest.raises(InvalidParamsError, match=repr(floor)):
                water_fill(g, 50, 1.7, epsilon, exact=False)
        search = minimal_water_level(g, 50, 1.7, floor)
        assert search.h_hi - search.h_lo <= floor

    def test_infeasible_problem(self):
        g = build_cost_function(one_hot(5), 8)
        with pytest.raises(InfeasibleError):
            water_fill(g, 8, 1.3)

    @pytest.mark.parametrize("b", [10, 50, 500])
    def test_feasibility_threshold_agrees_with_every_solver(self, b):
        # the threshold R at which the envelope reaches exactly 1 by day b; an R
        # whose envelope falls 1e-10 short used to pass feasible_robustness while
        # every solver raised, and geometric_cdf then broke its tail constraint
        threshold = 1.0 + 1.0 / math.expm1(b * math.log1p(1.0 / (b - 1.0)))
        g = build_cost_function(DayDistribution((3, 2 * b), (0.5, 0.5)), b)
        # y = 1, b, 2b only: at the threshold itself some other y still raise
        solvers = [lambda R: geometric_cdf(b, R), lambda R: water_fill(g, b, R)[0],
                   lambda R: water_fill(g, b, R, exact=False)[0]]
        solvers += [lambda R, y=y: onehot_exact(b, R, y) for y in (1, b, 2 * b)]
        short = 1.0 + (1.0 - 1e-10) * (threshold - 1.0)
        assert not feasible_robustness(b, short)
        for solve in solvers:
            with pytest.raises(InfeasibleError):
                solve(short)
        assert feasible_robustness(b, threshold)
        for solve in solvers:
            assert check_robustness(solve(threshold), b, threshold).feasible

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, np.True_, "1.7", None])
    def test_non_finite_inputs_rejected(self, worked_example, bad):
        # NaN passed every range check: epsilon=nan ran no bisection check and
        # returned the policy at level max g, R=nan raised InfeasibleError; True
        # was read as 1.0
        g = build_cost_function(worked_example, 50)
        calls = [
            lambda: water_fill(g, 50, bad),
            lambda: minimal_water_level(g, 50, bad, 1e-3),
            lambda: minimal_water_level(g, 50, 2.0, bad),
            lambda: level_feasible(g, 50, bad, 10.0),
            lambda: check_robustness(buy_day(4), 50, bad),
        ]
        if bad is not None:  # water_fill's default epsilon
            calls += [lambda: water_fill(g, 50, 2.0, epsilon=bad),
                      lambda: water_fill(g, 50, 2.0, epsilon=bad, exact=False)]
        for call in calls:
            with pytest.raises(InvalidParamsError, match="finite"):
                call()

    # before: TypeError, y = 1 used silently, False, False, ValueError and ValueError
    @pytest.mark.parametrize("call", [
        lambda g, p: onehot_exact(10, 2.0, 1.5),
        lambda g, p: onehot_exact(10, 2.0, True),
        *(lambda g, p, y=y: onehot_exact(10, 2.0, y) for y in ("3", None, 0)),
        lambda g, p: extension_condition_check(g, 4, 2.0, 7.5),
        *(lambda g, p, y=y: extension_condition_check(g, 4, 2.0, y) for y in (True, 0)),
        lambda g, p: sufficient_condition_check(p, 4, 2, math.nan),
        lambda g, p: level_feasible(g, 4, 2.0, math.nan),
        lambda g, p: baseline_policy(p, 4, 2.0, "nope"),
        # epsilon at max g runs no check, so b must be checked before the search
        *(lambda g, p, b=b: minimal_water_level(g, b, 2.0, g.max_value())
          for b in (-5, 0, 2.5, True, 1, 1.0, "3", None)),
        # before: ValueError, OverflowError, TypeError and g(1) for g; TypeError for h
        *(lambda g, p, t=t: g(t) for t in (math.nan, math.inf, "a", True, 2.5, 0, None)),
        *(lambda g, p, h=h: level_feasible(g, 4, 2.0, h) for h in ("a", None, True)),
    ], ids=["onehot_fractional_y", "onehot_bool_y", "onehot_str_y", "onehot_none_y",
            "onehot_zero_y", "extension_fractional_y", "extension_bool_y", "extension_zero_y",
            "sufficient_nan_c", "level_nan_h", "baseline_unknown_kind",
            "search_negative_b", "search_zero_b", "search_fractional_b", "search_bool_b",
            "search_one_b", "search_float_one_b", "search_str_b", "search_none_b",
            "cost_nan_day", "cost_inf_day", "cost_str_day", "cost_bool_day",
            "cost_fractional_day", "cost_zero_day", "cost_none_day", "level_str_h",
            "level_none_h", "level_bool_h"])
    def test_bad_input_raises_typed_error(self, call):
        p_hat = DayDistribution((3, 9), (0.5, 0.5))
        with pytest.raises(InvalidParamsError):
            call(build_cost_function(p_hat, 4), p_hat)

    def test_infinite_levels_are_valid(self):
        g = build_cost_function(DayDistribution((3, 9), (0.5, 0.5)), 4)
        for skip in (False, True):
            # an int past float range raised a bare OverflowError; it reads as inf
            for h in (math.inf, 2**64, 10**400):
                assert level_feasible(g, 4, 2.0, h, skip_settled=skip)
                assert not level_feasible(g, 4, 2.0, -h, skip_settled=skip)
            # a numpy level walks as its Python float: on a row of slope 5e-324 the
            # level over the slope overflows to inf, silently for a float and with a
            # RuntimeWarning for a numpy float
            tiny = cost_table([(0, 3, 1.0, 4.0), (3, 4, 5e-324, 6.0), (4, 9, 5e-324, 6.5),
                               (9, 10, 0.25, 4.0), (10, math.inf, 0.0, 6.0)])
            assert (level_feasible(tiny, 8, 2.0, np.float64(6.2), skip_settled=skip)
                    == level_feasible(tiny, 8, 2.0, 6.2, skip_settled=skip))
        assert g(3.0) == g(np.int64(3)) == g(3)
        # every day past the support costs the tail, also one past float range
        assert g(10**400) == g(2**64) == g(10) == g.tail_value == 6.0

    @pytest.mark.parametrize("call", [
        lambda g, b: water_fill(g, b, 2.0),
        lambda g, b: water_fill(g, b, 2.0, exact=False),
        lambda g, b: check_robustness(buy_day(4), b, 2.0),
        lambda g, b: geometric_cdf(b, 2.0),
        lambda g, b: onehot_exact(b, 2.0, 5),
        lambda g, b: level_feasible(g, b, 2.0, 10.0),
        lambda g, b: minimal_water_level(g, b, 2.0, g.max_value()),
    ], ids=["exact", "published", "check", "geometric", "onehot", "level", "search"])
    def test_b_past_max_days_rejected_before_allocating(self, monkeypatch, call):
        # no array of 10^12 days can be built, so each call must raise first
        g = build_cost_function(one_hot(5), 10**12)
        with pytest.raises(ScaleExceededError, match=rf"^b={10**12} is above {MAX_DAYS}, the "
                                                     r"largest b water_fill accepts$"):
            call(g, 10**12)
        # the bound itself is admitted
        monkeypatch.setattr(randomized, "MAX_DAYS", 50)
        call(build_cost_function(one_hot(5), 50), 50)
        with pytest.raises(ScaleExceededError,
                           match=r"^b=51 is above 50, the largest b water_fill accepts$"):
            call(build_cost_function(one_hot(5), 51), 51)


class TestTightKernel:
    def test_closed_form_is_the_full_level_fill(self):
        # with an atom on every day 1..2b, every day up to b is a row of its own
        # and active at level max g; each such run adds exactly 0.0 to lag, so
        # the fill is the one tight run of geometric_cdf, to the last bit
        compared = 0
        for b in [*range(2, 201), 3367, 10**4, 10**5]:
            days = np.arange(1, 2 * b + 1)
            g = build_cost_function(DayDistribution(days, np.full(days.size, 1.0 / days.size)), b)
            for R in (1.6, 1.7, 2.0, 2.5, 3.0):
                if not feasible_robustness(b, R):
                    continue
                _, runs, _ = randomized._fill_pass(g, b, R, g.max_value())
                assert all(lag == 0.0 for _, _, lag in runs)
                fill = randomized._construct_at_level(g, b, R, g.max_value())
                assert fill.support == geometric_cdf(b, R).support
                compared += 1
        assert compared == 1010


class TestSingleFillPath:
    def test_construct_fails_exactly_when_level_infeasible(self, rng):
        # the bisection and the construction share one fill, so the policy at the
        # bisected level always exists and water_fill needs no retry
        mismatches = checked = 0
        for g, b, R, levels in fill_instances(rng):
            for h in levels:
                checked += 1
                built = randomized._construct_at_level(g, b, R, h) is not None
                mismatches += built != level_feasible(g, b, R, h)
        assert checked == 7500 and mismatches == 0

    def test_matches_recording_fill(self, rng):
        compared = 0
        for g, b, R, levels in fill_instances(rng):
            for h in levels:
                policy = randomized._construct_at_level(g, b, R, h)
                reference = ref_policy(g, b, R, h)
                assert (policy is None) == (reference is None)
                if policy is None:
                    continue
                compared += 1
                assert policy.days == tuple(sorted(reference))
                assert max(abs(m - reference[d]) for d, m in policy.support) <= 1e-12
        assert compared > 3000

    def test_partial_fill_is_tight_on_every_active_day(self, rng):
        partial = 0
        for g, b, R, _ in fill_instances(rng, count=200):
            level = minimal_water_level(g, b, R, 1e-7 * g.max_value()).level
            F, runs, _ = randomized._fill_pass(g, b, R, level)
            if F >= 1.0:
                continue
            partial += 1
            policy = randomized._construct_at_level(g, b, R, level)
            rep = check_robustness(policy, b, R)
            slacks = dict(zip(rep.days.tolist(), rep.slacks.tolist()))
            active = [x for s, e, _ in runs for x in range(s, e + 1) if x < b]
            assert all(slacks[x] <= 1e-9 for x in active)
        assert partial > 20

    @pytest.mark.parametrize("b, days", [(3367, [1]), (10_000, [1]), (10_000, range(3, 30_001, 3))],
                             ids=["one_run_3367", "one_run_10000", "gapped_runs_10000"])
    def test_long_fills_stay_tight_within_rounding(self, b, days):
        # a float gamma**k, or a product of rounded per-run factors, compounds its
        # rounding: it broke the one b=3367, R=2 run by 1.1e-9, and the 2311 runs
        # of the gapped fill at R=2 by 5e-10
        p_hat = DayDistribution(tuple(days), tuple([1.0 / len(days)] * len(days)))
        g = build_cost_function(p_hat, b)
        for R in (1.6, 2.0, 3.0):
            policy, _ = water_fill(g, b, R, exact=False)
            assert check_robustness(policy, b, R).worst() >= -1e-10



def u_shaped(n: int = 3000) -> DayDistribution:
    """Days 1..n, light through n/3 and heavy to 2n/3: at b = 2n/3 the cost climbs
    from day 1 to day n/3, then falls below its start by day b, so a level
    between admits the rows at both ends and leaves the middle idle."""
    days = np.arange(1, n + 1)
    weights = 0.5 + (days <= n // 3) + 8.0 * ((n // 3 < days) & (days <= 2 * n // 3))
    return DayDistribution(days, weights / weights.sum())


def walk_inputs(rng):
    """(g, b) cost tables for the walk: dense contiguous supports, one-atom
    predictions, tables with tiny or rounding-negative slopes, and sparse ones."""
    for b in (2, 7, 50, 500):
        for n in (max(b // 2, 1), b, 2 * b + 3):
            yield build_cost_function(uniform_days(n), b), b
        yield build_cost_function(one_hot(max(b // 3, 1)), b), b
        yield build_cost_function(one_hot(3 * b), b), b
    # dense at b = 2000: a cost that falls across a 1000-day support, so one long
    # idle stretch before the active rows, and active rows at both ends of an
    # idle middle
    yield build_cost_function(uniform_days(1000), 2000), 2000
    yield build_cost_function(u_shaped(), 2000), 2000
    for label in ("gauss", "geom"):
        yield build_cost_function(table_prediction(label), 500), 500
    # the running tail mass past the last atoms rounds below 0 from day 3750 on
    p_hat = make_distribution(FamilySpec(Family.GAUSSIAN_DISCRETIZED,
                                         {"mean": 1800, "stddev": 240, "high": 6000}))
    yield build_cost_function(p_hat, 4000), 4000
    for tiny in (5e-324, 1e-300, 1e-17, -1e-17, -5e-324):
        yield cost_table([(0, 3, 1.0, 4.0), (3, 4, tiny, 6.0), (4, 9, tiny, 6.5),
                          (9, 10, 0.25, 4.0), (10, math.inf, 0.0, 6.0)]), 8
    for _ in range(30):
        b = int(rng.integers(2, 60))
        yield build_cost_function(random_day_distribution(rng, max_day=int(rng.integers(2, 4 * b)),
                                                          max_atoms=int(rng.integers(1, 40))), b), b
    for _ in range(10):
        g = tied_cost_function(rng)
        yield g, int(rng.integers(2, g.support_end + 3))


class TestFillWalk:
    """The walk bit for bit against the per-row walk it replaced."""

    def test_full_day_matches_a_day_scan(self):
        def scan(log_gamma, lag, full):
            d = 1
            while d * log_gamma - lag < full:
                d += 1
            return d

        short = 0  # inputs whose ceiling falls short, so the walk steps up
        for b in range(2, 40):
            log_gamma = randomized._log_gamma(b)
            for k in range(1, 3 * b):
                for lag in (0.0, 0.37 * log_gamma, 1.5):
                    # one float past day k's left side: the quotient can round down onto k
                    full = math.nextafter(k * log_gamma - lag, math.inf)
                    if full <= 0.0:
                        continue
                    short += math.ceil((full + lag) / log_gamma) * log_gamma - lag < full
                    assert randomized._full_day(log_gamma, lag, full) == scan(log_gamma, lag, full)
        assert short > 100

    def test_matches_per_row_walk(self, rng, monkeypatch):
        compared = partial = jumps = interior = 0
        jumped = []  # per jump, the tree it reads (0 idle, 1 whole) and the first row it skips
        first_at_most = randomized._first_at_most

        def recording(tree, p, x, leaves):
            jumped.append(divmod(p - leaves, leaves // 2))
            return first_at_most(tree, p, x, leaves)

        monkeypatch.setattr(randomized, "_first_at_most", recording)
        inputs = [(g, b, R) for i, (g, b) in enumerate(walk_inputs(rng))
                  for R in ((1.7, 2.5), (2.0, 4.0))[i % 2] if feasible_robustness(b, R)]
        assert any(np.any(g.slope[g.lo < b] < 0.0) for g, b, _ in inputs)
        for g, b, R in inputs:
            costs = np.unique(g.values_at(candidate_days(g, b)))
            if costs.size > 16:
                costs = costs[np.linspace(0, costs.size - 1, 16).astype(int)]
            levels = [0.0, g.max_value(), math.inf]
            for c in costs.tolist():
                levels += [c, math.nextafter(c, -math.inf), c - 1e-12]
            table = randomized._fill_table(g, b)
            rows = list(zip(table.starts, table.ends, table.slopes, table.intercepts))
            for h in levels:
                jumped.clear()
                got, want = randomized._fill_pass(g, b, R, h), ref_walk(g, b, R, h)
                # the bare pass is the same loop with both jumps off
                assert not jumped, (b, R, h)
                assert (got is None) == (want is None), (b, R, h)
                # jumping over the rows that h settles leaves the walk the same bit for bit
                jumped.clear()
                settled = randomized._fill_pass(g, b, R, h, skip_settled=True)
                assert repr(settled) == repr(got), (b, R, h)
                if jumped:
                    # a jump is interior when a row before the one it starts from is
                    # active or partial at h
                    active = [i for i, row in enumerate(rows) if active_days(*row, h)]
                    jumps += len(jumped)
                    interior += sum(bool(active) and active[0] < i - 1 for _, i in jumped)
                if got is None:
                    continue
                compared += 1
                partial += got[2] is not None
                assert got[0] == want[0] and got[2] == want[2], (b, R, h)
                assert _day_lags(got[1]) == _day_lags(want[1]), (b, R, h)
                # one run per stretch: no run starts the day after the last one ends
                assert all(s > e + 1 for (_, e, _), (s, _, _) in zip(got[1], got[1][1:]))
        assert compared > 3000 and partial > 300, (compared, partial)
        assert jumps > 2500 and interior > 1400, (jumps, interior)

    def test_tail_follows_the_last_run_day(self, rng, monkeypatch):
        # _tight_policy appends a partial fill's tail as a day of its own, and
        # _fill_pass leaves a negative moment budget to the tail test: both rest on
        # a tail at or after b and after the last run day, and on a day bound
        # 1 + budget / (1 - F) of at most 1 finding no tail
        tail_tests = []  # per tail test: its day bound and the day it found
        best_tail_day = randomized._best_tail_day

        def recording(g, b, h, t_max):
            tail_tests.append((t_max, best_tail_day(g, b, h, t_max)))
            return tail_tests[-1][1]

        monkeypatch.setattr(randomized, "_best_tail_day", recording)
        inputs = [(g, b, R) for g, b, R, _ in fill_instances(rng)]
        inputs += [(g, b, R) for i, (g, b) in enumerate(walk_inputs(rng))
                   for R in ((1.7, 2.5), (2.0, 4.0))[i % 2] if feasible_robustness(b, R)]
        partial = 0
        for g, b, R in inputs:
            costs = np.unique(g.values_at(candidate_days(g, b))).tolist()
            for h in (*costs, *(math.nextafter(c, -math.inf) for c in costs)):
                fill = randomized._fill_pass(g, b, R, h, skip_settled=True)
                if fill is None or fill[2] is None:
                    continue
                partial += 1
                _, runs, tail = fill
                # so no run ends on day b, and the tail never shares a run's day
                assert tail >= b and (not runs or runs[-1][1] < b), (b, R, h, fill)
            # a budget below 0 (a rounding, as tight runs leave mu <= (R - 1) b)
            # gives a bound below 1
            for t_max in (math.nextafter(1.0, -math.inf), -1e300, -math.inf):
                assert best_tail_day(g, b, math.inf, t_max) is None, (b, t_max)
        assert partial > 4000, partial
        # a bound of exactly 1 is a run that ended on day b, whose budget is exactly 0.0
        no_room = [day for t_max, day in tail_tests if t_max <= 1.0]
        assert no_room == [None] * len(no_room) and len(no_room) > 3000, len(no_room)

    def test_level_tables_bound_the_rows(self, rng):
        # sure[i]: rows 0..i wholly active; rest[i]: rows i.. all idle, under the
        # walk's own test, which is monotone in h: so each row at the ends of its
        # range in the sorted tables
        for g, b in walk_inputs(rng):
            table = randomized._fill_table(g, b)
            sure, rest = table.sure, table.rest
            assert list(sure) == sorted(sure) and list(rest) == sorted(rest)
            rows = list(zip(table.starts, table.ends, table.slopes, table.intercepts))
            n, size, tree = len(rows), table.size, np.asarray(table.tree)
            # the trees' leaves: row i's widened first-day cost, then minus its
            # widened last-day cost; both padded past the rows
            idle, whole = tree[2 * size:3 * size], -tree[3 * size:]
            assert size > n and not tree.flags.writeable
            assert np.all(idle[n:] == math.inf) and np.all(whole[n:] == math.inf)
            # each internal node is the least of its two children
            assert np.array_equal(tree[1:2 * size], np.minimum(tree[2::2], tree[3::2]))
            assert np.array_equal(rest, np.minimum.accumulate(idle[:n][::-1])[::-1])
            assert np.array_equal(sure, np.maximum.accumulate(whole[:n]))
            for i, (row, first, last) in enumerate(zip(rows, idle.tolist(), whole.tolist())):
                for h in (sure[i], sure[-1], last):
                    assert active_days(*row, h) == row[:2], (b, i, h)
                for h in (math.nextafter(rest[i], -math.inf), rest[0] - 1.0,
                          math.nextafter(first, -math.inf)):
                    assert active_days(*row, h) is None, (b, i, h)
            # a padding leaf never stops a search of the idle tree that starts in the
            # rows at a level some later row may take, and stops one of the whole
            # tree at row n, past every row
            for i in range(n):
                h = rest[i]
                j = randomized._first_at_most(table.tree, 2 * size + i, h, 2 * size) - 2 * size
                assert j < n and idle[j] <= h and np.all(idle[i:j] > h), (b, i)
                j = randomized._first_at_most(table.tree, 3 * size + i, -math.inf,
                                              2 * size) - 3 * size
                assert j == n, (b, i)

    def test_each_water_fill_keeps_one_table(self):
        for p_hat, b in ((table_prediction("gauss"), 500), (uniform_days(100), 500),
                         (DayDistribution((30, 120), (0.7, 0.3)), 50)):
            for first_exact in (False, True):
                g = build_cost_function(p_hat, b)
                water_fill(g, b, 2.0, exact=first_exact)
                table = g._tables[b]
                assert list(g._tables) == [b]
                assert (table._candidates is not None) == first_exact
                water_fill(g, b, 2.0, exact=not first_exact)
                assert list(g._tables) == [b] and g._tables[b] is table
                assert table._candidates is not None
                # another b gets a table of its own, which replaces b's, and a bare
                # check builds no candidates
                assert level_feasible(g, 2 * b, 2.0, g.max_value())
                assert list(g._tables) == [2 * b] and g._tables[2 * b]._candidates is None

    def test_solves_at_many_b_keep_one_table(self):
        # a table per b solved at: 50 distinct b on a 20k-atom g held 37 MB
        g = build_cost_function(uniform_days(20_000), 500)
        one = traced_peak(lambda: randomized._fill_table(g, 500))
        tracemalloc.start()
        try:
            for b in range(500, 550):
                water_fill(g, b, 2.0, exact=False)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(g._tables) == [549]
        assert kept <= 2 * one

    def test_published_mode_builds_no_candidate_table(self):
        for p_hat, b in ((table_prediction("gauss"), 2000), (uniform_days(100), 500),
                         (DayDistribution((30, 120), (0.7, 0.3)), 50)):
            g = build_cost_function(p_hat, b)
            water_fill(g, b, 2.0, exact=False)
            assert g._tables[b]._candidates is None
            assert list(g._tables) == [b]

    def test_settled_checks_leave_the_tree_unbuilt(self):
        # the level tables settle every check of these searches
        for label, R in (("unif100", 1.7), ("unif200", 2.5), ("gauss", 2.0)):
            g = build_cost_function(table_prediction(label), 50)
            water_fill(g, 50, R, exact=False)
            table = g._tables[50]
            assert table._tree is None and table._leaves is not None, (label, R)
        # a bare check never jumps, even where a skipping one would
        g = build_cost_function(u_shaped(), 2000)
        assert level_feasible(g, 2000, 2.0, g.max_value())
        assert g._tables[2000]._tree is None
        assert level_feasible(g, 2000, 2.0, g.max_value(), skip_settled=True)
        assert g._tables[2000]._tree is not None

    def test_a_walk_that_jumps_builds_the_tree_once(self, monkeypatch):
        wrapped, jumps = [], []
        read_only, first_at_most = randomized._read_only, randomized._first_at_most

        def wrapping(array):
            wrapped.append(array.size)
            return read_only(array)

        def jumping(tree, p, x, leaves):
            jumps.append(x if p < 3 * leaves // 2 else -x)  # the walk's level h
            return first_at_most(tree, p, x, leaves)

        monkeypatch.setattr(randomized, "_read_only", wrapping)
        monkeypatch.setattr(randomized, "_first_at_most", jumping)
        g = build_cost_function(u_shaped(), 2000)
        table = randomized._fill_table(g, 2000)
        wrapped.clear()
        water_fill(g, 2000, 2.0, exact=False)
        tree, levels = table._tree, set(jumps)
        assert len(levels) > 1 and tree is not None and table._leaves is None
        jumps.clear()
        randomized._fill_pass(g, 2000, 2.0, min(levels), skip_settled=True)
        assert jumps and table.tree is tree
        # the columns and level tables were wrapped with the table; the walks wrap
        # the tree alone
        assert wrapped == [4 * table.size]

    def test_lazy_tree_matches_the_eager_build(self, rng):
        for g, b in walk_inputs(rng):
            table = randomized._fill_table(g, b)
            # the widened costs, level tables and trees as the table built them at once
            k = len(table.ends)
            starts, ends = g.lo[:k] + 1.0, np.minimum(g.hi[:k], b)
            slope, intercept = g.slope[:k], g.intercept[:k]
            climb = np.maximum(slope, 0.0)
            margin = 1e-9 * (1.0 + np.abs(intercept))
            lows = climb * starts * (1.0 - 1e-9) + intercept - margin
            highs = climb * ends * (1.0 + 1e-9) + intercept + margin
            assert [a.tobytes() for a in table._leaves] == [lows.tobytes(), highs.tobytes()]
            rest = np.minimum.accumulate(lows[::-1])[::-1].copy()
            assert np.asarray(table.rest).tobytes() == rest.tobytes(), b
            size = 1 << k.bit_length()
            tree = np.empty(4 * size)
            tree[0] = math.nan
            tree[2 * size:2 * size + k], tree[2 * size + k:3 * size] = lows, math.inf
            np.negative(highs, out=tree[3 * size:3 * size + k])
            tree[3 * size + k:] = -math.inf
            level = 2 * size
            while level > 1:
                np.minimum(tree[level:2 * level:2], tree[level + 1:2 * level:2],
                           out=tree[level // 2:level])
                level //= 2
            assert table.size == size and np.asarray(table.tree).tobytes() == tree.tobytes(), b

    def test_fill_table_allocates_no_tree_until_a_walk_jumps(self):
        g = build_cost_function(u_shaped(), 2000)
        tracemalloc.start()
        try:
            table = randomized._fill_table(g, 2000)
            tree_bytes = 32 * table.size  # 4 size float64 nodes
            # each array the table keeps holds at most one float per row, 8 size bytes
            assert max(t.size for t in tracemalloc.take_snapshot().traces) < tree_bytes
            # the level tables settle every row at these levels
            assert level_feasible(g, 2000, 2.0, math.inf, skip_settled=True)
            assert not level_feasible(g, 2000, 2.0, 0.0, skip_settled=True)
            assert table._tree is None
            water_fill(g, 2000, 2.0, exact=False)
            assert tree_bytes in [t.size for t in tracemalloc.take_snapshot().traces]
        finally:
            tracemalloc.stop()

    def test_cost_function_dies_without_the_collector(self):
        # a table holding g would make a cycle that only the collector frees
        gc.disable()
        try:
            g = build_cost_function(table_prediction("gauss"), 500)
            water_fill(g, 500, 2.0, exact=False)
            water_fill(g, 500, 2.0)
            dead = weakref.ref(g)
            del g
            assert dead() is None
        finally:
            gc.enable()


class TestSkippingSearch:
    """One walk per probe, and every probe of either search skips settled rows."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []

        def recording(g, b, R, h, *, skip_settled=False):
            calls.append((h, skip_settled, level_feasible(g, b, R, h, skip_settled=skip_settled)))
            return calls[-1][2]

        monkeypatch.setattr(randomized, "level_feasible", recording)
        return calls

    def test_bisection_skips_on_each_check(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        for g, b, R in (*table_cells(), *dense_cells()):
            calls.clear()
            search = minimal_water_level(g, b, R, 1e-7 * g.max_value())
            assert len(calls) == search.checks
            assert all(skip for _, skip, _ in calls)
            assert all(feasible == level_feasible(g, b, R, h) for h, _, feasible in calls)

    def test_exact_search_skips_on_each_probe(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        for g, b, R in (*table_cells(), *sparse_cells()):
            calls.clear()
            level = randomized._exact_level(g, b, R)
            # the probes of a binary search over the cost midpoints, each walking every row
            costs = np.unique(g.values_at(candidate_days(g, b)))
            levels = np.append(0.5 * (costs[:-1] + costs[1:]), g.max_value()).tolist()
            lo, hi, probes = 0, len(levels) - 1, []
            while lo < hi:
                mid = (lo + hi) // 2
                probes.append(levels[mid])
                lo, hi = (lo, mid) if level_feasible(g, b, R, levels[mid]) else (mid + 1, hi)
            assert [h for h, _, _ in calls] == probes and level == levels[lo]
            assert all(skip for _, skip, _ in calls)
            assert all(feasible == level_feasible(g, b, R, h) for h, _, feasible in calls)


@st.composite
def sparse_instances(draw):
    """A 1-8 atom prediction on days up to 10^9, b up to 10^4 (half of them at most 200),
    and an R in [1.59, 3], where every b admits a robust policy."""
    b = draw(st.one_of(st.integers(2, 200), st.integers(201, 10_000)))
    R = draw(st.floats(1.59, 3.0))
    days = draw(st.lists(st.one_of(st.integers(1, 2 * b), st.integers(1, 10**9)),
                         min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(days), max_size=len(days)))
    total = sum(weights)
    return DayDistribution.from_pairs((d, w / total) for d, w in zip(days, weights)), b, R


def uniform_days(n: int) -> DayDistribution:
    return DayDistribution(tuple(range(1, n + 1)), tuple([1.0 / n] * n))


class TestWaterFillAtScale:
    @settings(max_examples=60, deadline=None)
    @given(sparse_instances())
    def test_published_robust_and_exact_no_worse(self, instance):
        p_hat, b, R = instance
        g = build_cost_function(p_hat, b)
        policy, published = water_fill(g, b, R, exact=False)
        assert check_robustness(policy, b, R).feasible
        if b <= 200:
            _, exact = water_fill(g, b, R)
            assert exact <= published + 1e-9 * (1.0 + abs(published))

    def test_published_at_b_400000_builds_no_candidate_table(self):
        # the tail test reads the segments from b on; the O(b) candidate table
        # it read before took 6.4 MB here, and is left to exact mode
        b = 400_000
        g = build_cost_function(one_hot(3 * b), b)
        policy, _ = water_fill(g, b, 2.0, exact=False)
        assert check_robustness(policy, b, 2.0).feasible
        assert g._tables[b]._candidates is None

    # Open accuracy failures.  The check's direct formula (R-1) x - (mu(x) +
    # (b-x) F(x)) subtracts terms of up to 10^6, and its rounding passes
    # SLACK_TOL; in long double the same formula puts every worst slack here
    # within -1.2e-10.  A more accurate check flips these.
    @pytest.mark.parametrize("R", [1.7, 2.0, 2.5])
    @pytest.mark.xfail(raises=InvariantError,
                       reason="the check's rounding, not the policy: worst slacks of "
                              "-1.9e-9 to -7.3e-9 against SLACK_TOL = 1e-9")
    def test_geometric_at_b_1000000_passes_its_check(self, R):
        assert check_robustness(geometric_cdf(10**6, R), 10**6, R).feasible

    @pytest.mark.parametrize("b, R", [(400_000, 1.7), (600_000, 2.0), (10**6, 2.0), (10**6, 2.5)],
                             ids=["b400000_R1.7", "b600000_R2", "b1000000_R2", "b1000000_R2.5"])
    @pytest.mark.xfail(raises=InvariantError,
                       reason="the check's rounding, not the policy: the one-hot at 3b "
                              "reads worst slacks of -1.5e-9 to -7.3e-9 against SLACK_TOL = 1e-9")
    def test_onehot_at_3b_passes_its_check(self, b, R):
        assert check_robustness(onehot_exact(b, R, 3 * b), b, R).feasible

    @pytest.mark.parametrize("b, p_hat", [
        (10**6, one_hot(1)),
        (400_000, DayDistribution((1000, 10**6), (0.5, 0.5))),
        (400_000, uniform_days(100)),
        (500_000, DayDistribution((250_000, 1_500_000), (0.5, 0.5))),
    ], ids=["one_hot_1_at_1000000", "two_point_at_400000", "uniform_100_at_400000",
            "two_point_half_b_3b_at_500000"])
    @pytest.mark.xfail(raises=InvariantError,
                       reason="the check's rounding, not the policy: the fill at the "
                              "bisected level reads slacks below -1e-9")
    def test_published_fill_at_scale_passes_its_check(self, b, p_hat):
        water_fill(build_cost_function(p_hat, b), b, 2.0, exact=False)


class TestBestTailDay:
    def test_tie_breaks_toward_smaller_day(self):
        g = cost_table([(0, 3, 0.0, 2.0), (3, 6, 0.0, 2.0), (6, math.inf, 0.0, 2.0)])
        assert randomized._best_tail_day(g, 2, 2.0, 1e18) == 2
        assert randomized._best_tail_day(g, 4, 2.0, 1e18) == 4

    def test_level_below_every_cost(self):
        g = cost_table([(0, 3, 0.0, 2.0), (3, 6, 0.0, 2.0), (6, math.inf, 0.0, 2.0)])
        assert randomized._best_tail_day(g, 2, 1.0, 1e18) is None

    def test_binding_day_limit(self):
        g = cost_table([(0, 5, 1.0, 10.0), (5, 9, 0.0, 4.0), (9, math.inf, 0.0, 6.0)])
        assert randomized._best_tail_day(g, 3, 20.0, 6.0) == 6
        assert randomized._best_tail_day(g, 3, 20.0, 5.0) == 3
        assert randomized._best_tail_day(g, 3, 20.0, 2.0) is None

    def test_matches_segment_loop(self, rng):
        for i in range(400):
            if i % 2:
                g = tied_cost_function(rng)
            else:
                g = build_cost_function(random_day_distribution(rng, max_day=80),
                                        int(rng.integers(2, 60)))
            b = int(rng.integers(2, g.support_end + 10))
            probes = [int(rng.integers(1, g.support_end + 2)), g.support_end + 1]
            costs = [g(t) for t in probes]
            # levels and limits a hair below a cost or a day test the tolerances
            levels = (-1.0, min(costs), max(costs) - 5e-13, math.nextafter(min(costs), -math.inf),
                      float(rng.uniform(0.0, g.max_value())), 1e9)
            limits = [b - 1.0, b - 5e-10, float(rng.integers(b, g.support_end + 12)), 1e18]
            for day in randomized._fill_table(g, b).days[:3].tolist():
                limits += [day, day - 1e-9, math.nextafter(day - 1e-9, -math.inf)]
            for h in levels:
                for t_max in limits:
                    got = randomized._best_tail_day(g, b, h, t_max)
                    assert got == ref_best_tail_day(g, b, h, t_max)


def tail_table_inputs():
    """(g, b) with b inside a row, on a row end, past the last atom and at 2, the
    dense cells, and atoms past 2^53, where a row's lo + 1 can round back onto lo."""
    p_hat = DayDistribution((3, 10, 40), (0.5, 0.3, 0.2))
    for b in (7, 10, 60, 2):
        yield build_cost_function(p_hat, b), b
    for g, b, _ in dense_cells():
        yield g, b
    for days in ((5, 2**53 + 1), (5, 2**60), (3, 2**53 - 1, 2**53 + 3, 2**60 + 5),
                 (1, 9007199254740995)):
        p_hat = DayDistribution(days, tuple([1.0 / len(days)] * len(days)))
        for b in (2, 50):
            yield build_cost_function(p_hat, b), b


class TestTailTables:
    def test_costs_and_minima_match_values_at(self):
        for g, b in tail_table_inputs():
            days = [float(b)] + [max(b, lo) + 1.0 for lo, hi in zip(g.lo.tolist(), g.hi.tolist())
                                 if hi > b]
            costs = g.values_at(np.array(days))
            table = randomized._fill_table(g, b)
            assert table.days.tolist() == days
            assert table.costs.tobytes() == costs.tobytes()
            low, first = [], []
            for day, cost in zip(days, costs.tolist()):
                if not low or cost < low[-1]:
                    low.append(cost)
                    first.append(day)
                else:
                    low.append(low[-1])
                    first.append(first[-1])
            assert [c.tobytes() for c in (table.days, table.low)] == [
                np.array(c).tobytes() for c in (days, low)]
            # with each tail day as the limit and its running minimum as the level,
            # the pick is the loop's first day attaining that minimum
            assert [randomized._best_tail_day(g, b, level, day)
                    for day, level in zip(days, low)] == first

    def test_candidates_match_values_at(self):
        for g, b in tail_table_inputs():
            days = candidate_days(g, b)
            t, c = randomized._fill_table(g, b).candidates(g)
            assert t.tobytes() == days.tobytes()
            assert c.tobytes() == g.values_at(days).tobytes()
            assert not (t.flags.writeable or c.flags.writeable)

    def test_best_tail_day_matches_candidate_table(self):
        for g, b in tail_table_inputs():
            table = randomized._fill_table(g, b)
            days, costs = np.asarray(table.days), np.asarray(table.costs)
            picks = np.unique(np.linspace(0, days.size - 1, 6).astype(int))
            levels = [-1.0, 1e30]
            limits = [b - 1.0, 1e30]
            for i in picks.tolist():
                levels += [costs[i], math.nextafter(costs[i], -math.inf), costs[i] - 5e-13]
                limits += [days[i], days[i] - 1e-9, math.nextafter(days[i] - 1e-9, -math.inf)]
            for h in levels:
                for t_max in limits:
                    assert (randomized._best_tail_day(g, b, h, t_max)
                            == ref_best_tail_day(g, b, h, t_max)), (b, h, t_max)

    def test_walk_tables_keep_under_1_mb(self):
        # the tail tables of a 20k-day prediction took 1.95 MB as Python float lists;
        # the whole table at b counts: row columns, level tables, trees and tail tables
        b = 500
        g = build_cost_function(uniform_days(20_000), b)
        tracemalloc.start()
        try:
            table = randomized._fill_table(g, b)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table.ends) == b and len(table.sure) == b and len(table.days) > 19_000
        assert kept < 1_000_000

    @pytest.mark.parametrize("b", [500, 2000])
    def test_builds_each_tail_column_once(self, b):
        # the first-day table took five more arrays: 5.4 atom arrays at b = 500, 6.1 at 2000
        n = 20_000
        g = build_cost_function(uniform_days(n), b)
        assert traced_peak(lambda: randomized._fill_table(g, b)) <= 4.5 * atom_array(n)

    def test_published_fill_on_a_built_table_takes_one_array(self):
        # max g took two temporaries, asked for twice per solve
        n, b = 20_000, 500
        g = build_cost_function(uniform_days(n), b)
        randomized._fill_table(g, b)
        assert traced_peak(lambda: water_fill(g, b, 2.0, exact=False)) <= 1.5 * atom_array(n)
        assert traced_peak(g.max_value) < 0.1 * atom_array(n)  # kept on g


def level_fill(g: CostFunction, b: int, R: float) -> StoppingDistribution:
    """The fill at the exact level: the warm start water_fill hands the LP."""
    return randomized._construct_at_level(g, b, R, randomized._exact_level(g, b, R))


def lp_optimum(g: CostFunction, b: int, R: float) -> float:
    """Optimum of the exact refine LP: the dense oracle's within its horizon, else HiGHS's."""
    try:
        return lp_solve(lp_instance_from_cost(g, b, R))[1]
    except ScaleExceededError:
        return highs_objective(g, b, R)


def certificate_outcome(p_hat, b, R, solves: list[int]) -> bool | None:
    """True if the simplex's first pricing returns the exact-level fill unpivoted,
    False if it pivots, None if it returns a fill that the LP's optimum beats by
    more than 1e-10 (relative).  ``solves`` is a ``counting_primal_solves`` count."""
    g = build_cost_function(p_hat, b)
    if not feasible_robustness(b, R):
        return False
    fill = level_fill(g, b, R)
    solves[0] = 0
    refined = randomized._lp_refine(g, b, R, fill)
    if solves[0]:
        return False
    assert refined is fill
    objective = expected_policy_cost(fill, g)
    return objective <= lp_optimum(g, b, R) + 1e-10 * (1.0 + abs(objective)) or None


@st.composite
def refine_instances(draw):
    """A 1-12 atom prediction on days up to 4b, b up to 200, and an R in [1.2, 3]."""
    b = draw(st.integers(2, 200))
    R = draw(st.floats(1.2, 3.0))
    days = draw(st.lists(st.integers(1, 4 * b), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(days), max_size=len(days)))
    total = sum(weights)
    return DayDistribution.from_pairs((d, w / total) for d, w in zip(days, weights)), b, R


@st.composite
def polish_instances(draw):
    """A sparse prediction as above, or a truncated geometric one: at b <= 200
    the geometric fills are the ones the bisection leaves epsilon above the optimum."""
    if draw(st.booleans()):
        return draw(refine_instances())
    b = draw(st.integers(2, 200))
    R = draw(st.floats(1.2, 3.0))
    spec = FamilySpec(Family.GEOMETRIC_TRUNCATED, {"rate": draw(st.floats(0.005, 0.3)),
                                                   "low": 1, "high": draw(st.integers(2, 6 * b))})
    return make_distribution(spec), b, R


def table_prediction(label: str) -> DayDistribution:
    return make_distribution(dict(TABLE_FAMILIES)[label])


def counting_primal_solves(monkeypatch) -> list[int]:
    """Route the simplex's primal solves through a call counter; returns the
    one-element count.  A refine whose first pricing finds the fill optimal
    returns it with none, so the count is zero exactly when it made no pivot."""
    calls = [0]
    solve = staircase.Staircase.primal

    def counted(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(staircase.Staircase, "primal", counted)
    return calls


def no_pivot(monkeypatch, why: str) -> None:
    def primal(*args, **kwargs):
        raise AssertionError(why)

    monkeypatch.setattr(staircase.Staircase, "primal", primal)


class TestExactRefine:
    def test_matches_oracle_up_to_its_cap(self, rng):
        # criterion 3 stops at b = 12; the oracle's horizon 4b allows b up to 100
        compared = improved = 0
        for b in (13, 20, 35, 50, 75, 100):
            for R in (1.3, 1.7, 2.5):
                for _ in range(3):
                    p_hat = random_day_distribution(
                        rng, max_day=int(rng.integers(b, 4 * b + 1)), max_atoms=12)
                    g = build_cost_function(p_hat, b)
                    eps = 1e-9 * g.max_value()
                    try:
                        _, exact_obj = water_fill(g, b, R, eps)
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            lp_solve(lp_instance_from_cost(g, b, R))
                        continue
                    _, lp_obj = lp_solve(lp_instance_from_cost(g, b, R))
                    assert abs(exact_obj - lp_obj) <= 1e-6, f"b={b}, R={R}"
                    published_obj = water_fill(g, b, R, eps, exact=False)[1]
                    improved += exact_obj < published_obj - 1e-6
                    compared += 1
        assert compared >= 30
        assert improved >= 1  # the LP, not only the level fill, was checked

    def test_no_candidate_cutoff(self):
        b, R = 50, 1.7
        g = build_cost_function(uniform_days(21_000), b)
        assert len(randomized._fill_table(g, b).candidates(g)[0]) > 20_000
        refined = randomized._lp_refine(g, b, R, level_fill(g, b, R))
        assert check_robustness(refined, b, R).feasible
        published_obj = water_fill(g, b, R, exact=False)[1]
        assert expected_policy_cost(refined, g) <= published_obj + 1e-9

    def test_lp_failure_warns_and_keeps_level_policy(self, monkeypatch):
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        published = water_fill(g, 50, 1.7, exact=False)
        # the LP gains 1.5e-4 (relative) here in one pivot, so the fill's own
        # pricing cannot return it
        assert water_fill(g, 50, 1.7)[1] < published[1] * (1.0 - 1e-4)
        monkeypatch.setattr(staircase, "MAX_PIVOTS_PER_ROW", 0)
        with pytest.warns(RuntimeWarning, match=r"stopped after 0 pivots on its pivot cap, "
                                                r"\S+ above its dual bound"):
            policy, obj = water_fill(g, 50, 1.7)
        assert check_robustness(policy, 50, 1.7).feasible
        assert obj <= published[1]

    def test_failed_self_check_is_typed(self, monkeypatch):
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        monkeypatch.setattr(randomized, "check_robustness",
                            lambda f, b, R: RobustnessReport(np.empty(0, int), np.empty(0), -1.0,
                                                             False))
        # exact mode first drops the LP's vertex, which fails the check too
        with pytest.warns(RuntimeWarning, match="exact refine's vertex fails"):
            with pytest.raises(InvariantError) as err:
                water_fill(g, 50, 1.7)
        assert isinstance(err.value, SkirentError)
        with pytest.raises(InvariantError) as err:
            water_fill(g, 50, 1.7, exact=False)
        assert isinstance(err.value, SkirentError)

    def test_certificate_never_skips_a_kept_lp(self, monkeypatch, rng):
        instances = [(uniform_days(21_000), 50, 1.7),
                     (DayDistribution((30, 120), (0.7, 0.3)), 50, 1.7),
                     *((uniform_days(3 * b), b, 1.7) for b in (250, 500, 1000)),
                     # point-mass tails, and a fill whose dual has negative reduced costs
                     *((make_distribution(spec), 50, R) for _, spec in TABLE_FAMILIES
                       for R in (1.7, 2.0, 2.5)),
                     (DayDistribution.from_pairs(zip(
                         (2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15),
                         np.array([685, 2377, 748, 733, 558, 1470, 1074, 6, 1891, 53, 228, 177])
                         / 10_000)), 7, 2.5)]
        for b in (13, 20, 35, 50, 75, 100):
            for R in (1.3, 1.7, 2.5):
                for _ in range(3):
                    instances.append((random_day_distribution(
                        rng, max_day=int(rng.integers(b, 4 * b + 1)), max_atoms=12), b, R))
        solves = counting_primal_solves(monkeypatch)
        outcomes = [certificate_outcome(*instance, solves) for instance in instances]
        assert None not in outcomes, "a fill returned unpivoted is above the LP's optimum"
        assert True in outcomes and False in outcomes

    def test_certificate_never_skips_a_kept_lp_on_drawn_inputs(self, monkeypatch):
        solves = counting_primal_solves(monkeypatch)
        outcomes = []

        @settings(max_examples=60, deadline=None)
        @given(refine_instances())
        def check(instance):
            outcome = certificate_outcome(*instance, solves)
            assert outcome is not None, "a fill returned unpivoted is above the LP's optimum"
            outcomes.append(outcome)

        check()
        assert True in outcomes  # a first pricing passed, so the check was not vacuous

    @pytest.mark.parametrize("b", [500, 20_000])
    def test_certified_fill_skips_the_solve(self, monkeypatch, b):
        # at b = 20000 the first pricing alone must confirm the fill
        g = build_cost_function(uniform_days(100), b)
        policy, objective = water_fill(g, b, 1.7, exact=False)
        no_pivot(monkeypatch, "the optimal fill must be returned with no pivot")
        exact_policy, exact_objective = water_fill(g, b, 1.7)
        assert exact_policy.support == policy.support and exact_objective == objective

    @pytest.mark.parametrize("label,b,R", [
        (label, b, R) for label in ("gauss", "geom") for b in (500, 2000)
        for R in (1.7, 2.0, 2.5) if (label, b, R) != ("geom", 500, 1.7)])
    def test_polished_fill_skips_the_solve(self, monkeypatch, label, b, R):
        # the bisected fill sits 1e-8 to 1e-6 above the optimum here, so the
        # simplex pivots away from it; the fill at the exact level is optimal
        g = build_cost_function(table_prediction(label), b)
        published = water_fill(g, b, R, exact=False)
        solves = counting_primal_solves(monkeypatch)
        randomized._lp_refine(g, b, R, published[0])
        assert solves[0]
        fill = level_fill(g, b, R)
        # a fill ending on a tail day, as at geom (500, 2.0), is priced by a dual
        # with y_T = 0 and takes degenerate pivots back to itself; others take none
        if fill.days[-1] < b:
            no_pivot(monkeypatch, "the polished fill must be returned with no pivot")
        assert randomized._lp_refine(g, b, R, fill) is fill
        policy, objective = water_fill(g, b, R)
        assert policy.support == fill.support and objective == expected_policy_cost(fill, g)
        assert check_robustness(policy, b, R).feasible
        assert objective <= published[1]

    @pytest.mark.parametrize("R", [1.7, 2.0, 2.5])
    @pytest.mark.xfail(raises=AssertionError,
                       reason="the simplex stops 3e-10 to 7e-10 (relative) above the "
                              "optimum, with no warning")
    def test_published_warm_start_reaches_the_optimum_or_warns(self, R):
        # from the bisected fill the simplex takes Tier-1's longest pivot path
        b = 2000
        g = build_cost_function(table_prediction("geom"), b)
        published = water_fill(g, b, R, exact=False)[0]
        optimum = water_fill(g, b, R)[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            refined = randomized._lp_refine(g, b, R, published)
        warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
        objective = expected_policy_cost(refined, g)
        assert warned or abs(objective - optimum) <= 1e-11 * abs(optimum), (
            (objective - optimum) / optimum)

    def test_polish_leaves_a_beaten_fill_to_the_lp(self, monkeypatch):
        # geom at (500, 1.7): even the exact-level fill stays 3e-7 above the optimum
        g = build_cost_function(table_prediction("geom"), 500)
        solves = counting_primal_solves(monkeypatch)
        policy, objective = water_fill(g, 500, 1.7)
        assert solves[0] > 1  # the fill's pricing, then at least one pivot
        assert objective < water_fill(g, 500, 1.7, exact=False)[1] - 1e-6

    def test_exact_level_is_safe_on_drawn_inputs(self, monkeypatch):
        solves = counting_primal_solves(monkeypatch)
        beyond_bisection = []

        @settings(max_examples=60, deadline=None)
        @given(polish_instances())
        @example((make_distribution(FamilySpec(Family.GEOMETRIC_TRUNCATED,
                                               {"rate": 0.2, "low": 1, "high": 200})), 100, 2.0))
        # at R = 2 the exact-level fill ends on a tail day and pivots back to
        # itself, so that example alone no longer keeps the check from being vacuous
        @example((make_distribution(FamilySpec(Family.GEOMETRIC_TRUNCATED,
                                               {"rate": 0.2, "low": 1, "high": 200})), 100, 2.5))
        def check(instance):
            p_hat, b, R = instance
            g = build_cost_function(p_hat, b)
            try:
                published = water_fill(g, b, R, exact=False)
            except InfeasibleError:
                return
            level = randomized._exact_level(g, b, R)
            costs = np.unique(g.values_at(candidate_days(g, b)))
            midpoints = np.append(0.5 * (costs[:-1] + costs[1:]), g.max_value())
            i = int(np.flatnonzero(midpoints == level)[0])  # costs[i] is its lower cost
            assert level_feasible(g, b, R, level)
            if i > 0:
                assert not level_feasible(g, b, R, midpoints[i - 1])
            search = minimal_water_level(g, b, R, 1e-7 * g.max_value())
            assert search.h_lo < costs[i] <= search.h_hi
            solves[0] = 0
            policy, objective = water_fill(g, b, R)
            assert objective <= published[1]
            assert check_robustness(policy, b, R).feasible
            if solves[0]:
                return
            assert objective <= lp_optimum(g, b, R) + 1e-10 * (1.0 + abs(objective))
            randomized._lp_refine(g, b, R, published[0])
            if solves[0]:
                beyond_bisection.append(objective)

        check()
        # the exact-level fill needed no pivot where the bisected fill did (as on
        # the R = 2.5 example), so the check was not vacuous
        assert beyond_bisection

    def test_exact_mode_searches_and_builds_once(self, monkeypatch):
        levels = []
        construct = randomized._construct_at_level

        def recording(g, b, R, h):
            levels.append(h)
            return construct(g, b, R, h)

        def no_bisection(*args, **kwargs):
            raise AssertionError("exact mode must not bisect")

        monkeypatch.setattr(randomized, "_construct_at_level", recording)
        monkeypatch.setattr(randomized, "minimal_water_level", no_bisection)
        # optimal as filled, beaten by the LP, optimal only at the exact level
        for p_hat, b, R in ((uniform_days(100), 500, 1.7),
                            (DayDistribution((30, 120), (0.7, 0.3)), 50, 1.7),
                            (table_prediction("gauss"), 500, 2.0)):
            g = build_cost_function(p_hat, b)
            levels.clear()
            water_fill(g, b, R)
            assert levels == [randomized._exact_level(g, b, R)]

    def test_kept_lp_result_is_checked_once(self, monkeypatch):
        # the LP beats the fill on this prediction; its acceptance check is the
        # only robustness check, the final one is left to a returned fill
        checks, results = [], []
        check, refine = randomized.check_robustness, randomized._lp_refine

        def counted(f, b, R):
            checks.append(f)
            return check(f, b, R)

        def recording(*args):
            results.append(refine(*args))
            return results[-1]

        monkeypatch.setattr(randomized, "check_robustness", counted)
        monkeypatch.setattr(randomized, "_lp_refine", recording)
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        policy, _ = water_fill(g, 50, 1.7)
        assert results == [policy]
        assert checks == [policy]

    def test_discarded_lp_vertex_warns(self, monkeypatch):
        # a vertex failing the check used to be dropped for the fill without a word
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        fill = level_fill(g, 50, 1.7)
        monkeypatch.setattr(randomized, "_lp_refine", lambda *args: buy_day(1))
        worst = check_robustness(buy_day(1), 50, 1.7).worst()
        with pytest.warns(RuntimeWarning, match=rf"worst slack {worst:.3g}, day 1\)"):
            policy, objective = water_fill(g, 50, 1.7)
        assert policy.support == fill.support
        assert objective == expected_policy_cost(fill, g)

    @pytest.mark.parametrize("p_hat,b,R,day", [
        (make_distribution(FamilySpec(Family.GEOMETRIC_TRUNCATED,
                                      {"rate": 0.0625, "low": 1, "high": 195})),
         136, 1.796875, 102),
    ], ids=["geometric"])
    def test_exact_level_admits_a_cost_its_own_probe_rejects(self, p_hat, b, R, day):
        # the fill tests activity in day space, where (g(day) - intercept) / slope
        # rounds to just below day, so probing the cost itself drops that day
        g = build_cost_function(p_hat, b)
        assert not level_feasible(g, b, R, g(day))
        level = randomized._exact_level(g, b, R)
        costs = np.unique(g.values_at(candidate_days(g, b)))
        assert costs[np.searchsorted(costs, level, side="right") - 1] == g(day)
        published = water_fill(g, b, R, exact=False)[0]
        assert randomized._construct_at_level(g, b, R, level).support == published.support

    def test_row_skip_admits_a_first_day_within_rounding(self):
        # at h = g(34), (h - intercept) / slope comes out just below 34 on the
        # row (33, 81]; the row's end forgives that by 1e-12, and so must the
        # test that skips the row, or the probe at the cost itself drops day 34
        p_hat = DayDistribution((25, 33, 81, 114, 117, 146),
                                (0.3514996820223806, 0.25243453732960475, 0.17471078963340744,
                                 0.10038422563452869, 0.014716735878836451, 0.10625402950124216))
        b, R = 42, 2.765165765575473
        g = build_cost_function(p_hat, b)
        assert level_feasible(g, b, R, g(34))
        fill = randomized._construct_at_level(g, b, R, g(34))
        assert 34 in fill.days
        level = randomized._exact_level(g, b, R)
        costs = np.unique(g.values_at(candidate_days(g, b)))
        assert costs[np.searchsorted(costs, level, side="right") - 1] == g(34)
        assert randomized._construct_at_level(g, b, R, level).support == fill.support

    def test_memory_grows_linearly(self):
        # the dense constraint matrix grew as b^2 (slope 2.0 in log-log)
        sizes = (250, 500, 1000)
        peaks = []
        for b in sizes:
            g = build_cost_function(uniform_days(3 * b), b)
            fill = level_fill(g, b, 1.7)
            tracemalloc.start()
            try:
                randomized._lp_refine(g, b, 1.7, fill)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = np.polyfit(np.log(sizes), np.log(peaks), 1)[0]
        assert slope <= 1.3, f"log-log slope {slope:.2f} of peak bytes {peaks}"


def highs_objective(g: CostFunction, b: int, R: float) -> float:
    """Optimum of the exact refine LP by HiGHS, in the state-variable form that
    ``_lp_refine`` handed to scipy before it had a solver of its own.

    Columns are [f (n) | F (b-1) | M (b-1)]: F_x and M_x are the mass and the
    moment bought by day x, so row x reads M_x + (b-x) F_x <= (R-1) x.
    """
    t = candidate_days(g, b)
    n, k, x = t.size, b - 1, np.arange(1, b)
    f_col = x - 1
    F_col, M_col, later = n + f_col, n + k + f_col, x[1:] - 1
    eq_rows = np.concatenate((f_col, later, f_col, k + f_col, k + later, k + later,
                              np.full(n, 2 * k)))
    eq_cols = np.concatenate((F_col, F_col[:-1], f_col, M_col, M_col[:-1], f_col[1:],
                              np.arange(n)))
    eq_vals = np.concatenate((np.ones(k), -np.ones(k - 1), -np.ones(k), np.ones(k),
                              -np.ones(k - 1), -(x[1:] - 1.0), np.ones(n)))
    ub_rows = np.concatenate((f_col, f_col, np.full(n - 1, k)))
    ub_cols = np.concatenate((M_col, F_col, np.arange(1, n)))
    ub_vals = np.concatenate((np.ones(k), b - x, t[1:] - 1.0))
    b_eq = np.zeros(2 * k + 1)
    b_eq[-1] = 1.0
    res = scipy.optimize.linprog(
        np.concatenate((g.values_at(t), np.zeros(2 * k))),
        A_ub=scipy.sparse.csr_array((ub_vals, (ub_rows, ub_cols)), shape=(k + 1, n + 2 * k)),
        b_ub=(R - 1.0) * np.append(x, b),
        A_eq=scipy.sparse.csr_array((eq_vals, (eq_rows, eq_cols)), shape=(2 * k + 1, n + 2 * k)),
        b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.fun)


def assert_matches_highs(g: CostFunction, b: int, R: float) -> None:
    policy, objective = water_fill(g, b, R)
    report = check_robustness(policy, b, R)
    assert report.feasible
    assert objective <= water_fill(g, b, R, exact=False)[1]
    reference = highs_objective(g, b, R)
    tol = 1e-10 * (1.0 + abs(reference))
    assert objective <= reference + tol
    # HiGHS takes no tolerance below 1e-10 and can stop that far above the
    # optimum (4.3e-10 on geom at (2000, 1.7), whose fill the dual certificate
    # puts within 3e-14 of it); a policy below HiGHS by more must hold every
    # row to 1e-11, so that no slack it borrows pays for the difference
    assert objective >= reference - tol or report.worst() >= -1e-11


def sparse_prediction(rng: np.random.Generator, b: int) -> DayDistribution:
    """2-12 atoms on days up to 4b with Dirichlet masses, like the benchmark's."""
    n = int(rng.integers(2, 13))
    days = np.sort(rng.choice(np.arange(1, 4 * b + 1), size=n, replace=False))
    return DayDistribution(days, rng.dirichlet(np.ones(n)))


class TestHighsReference:
    """The staircase simplex against HiGHS above the dense oracle's cap."""

    @pytest.mark.parametrize("b", [50, 500, 2000])
    @pytest.mark.parametrize("label", [label for label, _ in TABLE_FAMILIES])
    def test_table_cells(self, label, b):
        g = build_cost_function(table_prediction(label), b)
        for R in (1.7, 2.0, 2.5):
            assert_matches_highs(g, b, R)

    @pytest.mark.parametrize("b", [50, 500])
    def test_sparse_inputs(self, b):
        rng = np.random.default_rng(b)
        for i in range(24):
            assert_matches_highs(build_cost_function(sparse_prediction(rng, b), b), b,
                                 (1.7, 2.0, 2.5)[i % 3])


def table_cells():
    """(g, b, R) for the 45 table cells: 5 families x b in {50, 500, 2000} x 3 R."""
    for label, _ in TABLE_FAMILIES:
        for b in (50, 500, 2000):
            g = build_cost_function(table_prediction(label), b)
            for R in (1.7, 2.0, 2.5):
                yield g, b, R


def sparse_cells():
    """(g, b, R) for the 48 seeded sparse inputs of ``TestHighsReference``."""
    for b in (50, 500):
        rng = np.random.default_rng(b)
        for i in range(24):
            yield build_cost_function(sparse_prediction(rng, b), b), b, (1.7, 2.0, 2.5)[i % 3]


def exact_digest(cells) -> str:
    """sha256 over the lines repr((support, objective)) of exact ``water_fill``."""
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, b, R in cells:
            policy, objective = water_fill(g, b, R)
            digest.update((repr((policy.support, objective)) + "\n").encode())
    return digest.hexdigest()


TABLE_CELLS_DIGEST = "0216cfa50663f526ba0ac94adb868887e7261746a27e352e2b9453c6fa0d41af"


class TestExactOutputs:
    """Exact mode bit for bit: any change to the simplex's arithmetic shows here."""

    def test_table_cells_digest(self):
        assert exact_digest(table_cells()) == TABLE_CELLS_DIGEST

    def test_table_cells_digest_under_another_blas_kernel(self):
        # OpenBLAS picks its kernels by CPU; a gemv in the simplex gave this digest
        # under Nehalem and Sandybridge kernels and another one under Haswell
        tests = Path(__file__).resolve().parent
        src = str(Path(randomized.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, str(tests),
                                                           os.environ.get("PYTHONPATH"))))}
        script = ("from test_randomized import exact_digest, table_cells\n"
                  "print(exact_digest(table_cells()))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == TABLE_CELLS_DIGEST

    def test_sparse_inputs_digest(self):
        assert exact_digest(sparse_cells()) == (
            "a220d47b0f3f3d76216a4dbe770ab118003df792a3d5ed53a4b57ef30e210030")

    def test_pivot_path_digest(self, monkeypatch):
        # a pricing that picks another entering variable on a near tie shows
        # here, even where the output digests still hold
        steps, entering = [], [-1]
        primal, leaving = staircase.Staircase.primal, staircase.Staircase.leaving

        def recorded_primal(self, basis, entering_var=-1):
            entering[0] = entering_var
            return primal(self, basis, entering_var)

        def recorded_leaving(self, vertex):
            leave, theta = leaving(self, vertex)
            steps.append((entering[0], leave, theta == 0.0))
            return leave, theta

        monkeypatch.setattr(staircase.Staircase, "primal", recorded_primal)
        monkeypatch.setattr(staircase.Staircase, "leaving", recorded_leaving)
        digest, pivots = hashlib.sha256(), []
        for cells in (table_cells(), sparse_cells()):
            pivots.append(0)
            for g, b, R in cells:
                del steps[:]
                water_fill(g, b, R)
                digest.update((repr(steps) + "\n").encode())
                pivots[-1] += len(steps)
        assert pivots == [69, 550]
        assert digest.hexdigest() == (
            "8fb6b69cf685115f71802784d498720dbd1e4975e85027b49e943595e7280cb2")


def dense_cells():
    """(g, b, R) for 12 seeded 1k-20k-atom predictions at b in {500, 2000}, shaped
    like the benchmark's dense workload."""
    rng = np.random.default_rng(18)
    i = 0
    for b in (500, 2000):
        for family in (Family.UNIFORM, Family.GAUSSIAN_DISCRETIZED, Family.GEOMETRIC_TRUNCATED):
            for atoms in (1000, 20_000):
                n = int(round(atoms * rng.uniform(0.9, 1.0)))
                if family is Family.UNIFORM:
                    low = int(rng.integers(1, 50))
                    params = {"low": low, "high": low + n - 1}
                elif family is Family.GAUSSIAN_DISCRETIZED:
                    params = {"mean": n * rng.uniform(0.4, 0.6),
                              "stddev": n * rng.uniform(0.12, 0.2), "low": 1, "high": n}
                else:
                    params = {"rate": rng.uniform(2.0, 6.0) / n, "low": 1, "high": n}
                g = build_cost_function(make_distribution(FamilySpec(family, params)), b)
                yield g, b, (1.7, 2.0, 2.5)[i % 3]
                i += 1


def published_digest(cells) -> str:
    """sha256 over the lines repr((support, objective, search)) of published
    ``water_fill`` and its ``WaterLevelSearch``."""
    digest = hashlib.sha256()
    for g, b, R in cells:
        policy, objective = water_fill(g, b, R, exact=False)
        search = minimal_water_level(g, b, R, 1e-7 * g.max_value())
        digest.update((repr((policy.support, objective, search)) + "\n").encode())
    return digest.hexdigest()


class TestPublishedOutputs:
    """Published mode bit for bit: any change to the fill's walk or its tail test shows here."""

    def test_table_cells_digest(self):
        assert published_digest(table_cells()) == (
            "92fe8d67aa730f52c0f951ffaf7b586eb99ec6ec1cc56fd5f5710ee878caa17c")

    def test_dense_inputs_digest(self):
        assert published_digest(dense_cells()) == (
            "4d65e3b709bbe31796ef4aeaa133e11df2c047e904e2e40d90f4f591b8c7e24b")


def reference_prices(lp, dual) -> np.ndarray:
    """Every variable's price at once, from W and E at each piece's last day, with
    inf on the basic ones: f on the candidates, then the slacks s_1..s_{b-1}, s_T.
    Along an A run W_x = gamma^(e-x) W_e + gamma^-x (H_x - H_e); y_x = W_x - W_{x+1}."""
    b, n, basis = lp.b, lp.t.size, dual.basis
    kinds, starts, ends = (np.array(col) for col in zip(*basis.pieces))
    piece = np.repeat(np.arange(kinds.size), ends - starts + 1)
    days = np.arange(1, b)
    below = ends[piece] - days
    W = np.array(dual.W)[piece]
    H, inv_growth = np.asarray(lp.H), np.asarray(lp.inv_growth)
    along = np.expm1(below * lp.log_gamma) * W + inv_growth * (H[1:b] - H[days + below])
    on_a = kinds[piece] == staircase._A
    W = np.where(on_a, W + along, W)
    f = np.where(kinds[piece] & 1, np.inf, lp.c[:b - 1] + (np.array(dual.E)[piece] - below * W))
    tail = lp.c[b - 1:] - dual.lam
    if dual.y_T:
        tail += (lp.t[b - 1:] - 1.0) * dual.y_T
    tail[np.array(basis.end, dtype=int) - (b - 1)] = np.inf
    y = W.copy()
    y[:-1] -= W[1:]
    y[-1] -= dual.y_T
    return np.concatenate((f, tail, np.where(on_a, (b - 1.0) * y, np.inf),
                           [(b - 1.0) * dual.y_T if basis.tail_tight else np.inf]))


class TestStaircaseSimplex:
    def test_optimal_fill_is_returned_itself(self, monkeypatch):
        # the table's exact-level fills hold their optimum: the first pricing
        # returns them with no pivot and no primal solve
        g = build_cost_function(table_prediction("gauss"), 500)
        fill = level_fill(g, 500, 2.0)
        no_pivot(monkeypatch, "the first pricing must return the optimal fill")
        assert randomized._lp_refine(g, 500, 2.0, fill) is fill

    @pytest.mark.parametrize("b,R", [(50, 2.0), (50, 2.5), (500, 2.0)])
    def test_fill_ending_on_a_tail_day_keeps_its_output(self, b, R):
        # the basic dual of these geom fills has y_T = 0 and prices a later day
        # negative, so the simplex takes degenerate pivots; they lead back to the fill
        g = build_cost_function(table_prediction("geom"), b)
        fill = level_fill(g, b, R)
        assert fill.days[-1] > b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy, objective = water_fill(g, b, R)
        assert policy.support == fill.support
        assert objective == expected_policy_cost(fill, g)

    def test_exact_solve_builds_one_staircase(self, monkeypatch):
        built = []
        init = staircase.Staircase.__init__

        def recording(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(staircase.Staircase, "__init__", recording)
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        water_fill(g, 50, 1.7)
        assert len(built) == 1

    def test_refine_reaches_the_optimum_on_tied_costs(self, rng):
        # small b, ties in the costs and many atoms: degenerate vertices abound
        for _ in range(40):
            g = tied_cost_function(rng)
            b = int(rng.integers(2, 13))
            R = float(rng.choice([1.3, 1.7, 2.5, 4.0]))
            if not feasible_robustness(b, R):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                refined = randomized._lp_refine(g, b, R, level_fill(g, b, R))
            assert check_robustness(refined, b, R).feasible
            assert expected_policy_cost(refined, g) == pytest.approx(highs_objective(g, b, R),
                                                                     abs=1e-9)

    def test_start_off_the_candidate_days_warns_and_keeps_it(self):
        g = build_cost_function(DayDistribution((30, 120), (0.7, 0.3)), 50)
        start = StoppingDistribution((57,), (1.0,))  # past b, but no segment starts there
        with pytest.warns(RuntimeWarning, match=r"stopped after 0 pivots on a numerical "
                                                r"breakdown \(a fill day is not a candidate "
                                                r"day\), inf above its dual bound"):
            assert randomized._lp_refine(g, 50, 1.7, start) is start

    def test_bases_hold_the_lemma(self, monkeypatch, rng):
        # the module's lemma: no day below b is tight without mass, and at a
        # vertex every A day holds mass at least (R-1)/(b-1)
        seen = {"bases": 0, "vertices": 0}
        dual, primal = staircase.Staircase.dual, staircase.Staircase.primal

        def checked_dual(self, basis):
            seen["bases"] += 1
            # a day's kind is S + 2 X, so 2 is a row in X whose f is not in S
            early = [(s, e) for kind, s, e in basis.pieces if kind == 2]
            assert not early, f"rows tight without mass on days {early}"
            return dual(self, basis)

        def checked_primal(self, basis, entering=-1):
            seen["vertices"] += 1
            vertex = primal(self, basis, entering)
            on_a = self.masses(vertex)[[x - 1 for kind, s, e in basis.pieces
                                        if kind == staircase._A for x in range(s, e + 1)]]
            floor = (self.R - 1.0) / (self.b - 1.0) * (1.0 - 1e-9)
            assert on_a.min(initial=np.inf) >= floor, (on_a.min(), floor)
            return vertex

        monkeypatch.setattr(staircase.Staircase, "dual", checked_dual)
        monkeypatch.setattr(staircase.Staircase, "primal", checked_primal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, b, R in (*table_cells(), *sparse_cells()):
                water_fill(g, b, R)
            for _ in range(40):
                g = tied_cost_function(rng)
                b = int(rng.integers(2, 13))
                R = float(rng.choice([1.3, 1.7, 2.5, 4.0]))
                if feasible_robustness(b, R):
                    randomized._lp_refine(g, b, R, level_fill(g, b, R))
        assert seen["bases"] > 100 and seen["vertices"] > 100, seen

    def test_bases_are_maximal_pieces(self, monkeypatch):
        # ``_prices`` reads W past an A run's end from the next piece, which it
        # takes to be no A run: every basis's pieces tile days 1..b-1, and no
        # two neighbours share a kind other than C
        seen = {"warm": 0, "pivot": 0}
        warm_basis, pivot = staircase.Staircase.warm_basis, staircase.Staircase.pivot

        def checked(basis, b, how):
            seen[how] += 1
            kinds, starts, ends = zip(*basis.pieces)
            assert list(starts) == basis.starts == [1, *(e + 1 for e in ends[:-1])], basis
            assert ends[-1] == b - 1 and all(s <= e for s, e in zip(starts, ends)), basis
            assert all(kind != after or kind == staircase._C
                       for kind, after in zip(kinds, kinds[1:])), basis
            return basis

        monkeypatch.setattr(staircase.Staircase, "warm_basis",
                            lambda self, fill: checked(warm_basis(self, fill), self.b, "warm"))
        monkeypatch.setattr(staircase.Staircase, "pivot",
                            lambda self, *args: checked(pivot(self, *args), self.b, "pivot"))
        for g, b, R in (*table_cells(), *sparse_cells()):
            water_fill(g, b, R)
        assert seen["warm"] > 50 and seen["pivot"] > 500, seen

    def test_step_that_nothing_blocks_is_unbounded(self):
        g = build_cost_function(table_prediction("geom"), 50)
        lp = staircase.Staircase(g, 50, 2.0)
        basis = lp.warm_basis(level_fill(g, 50, 2.0))
        entering = lp.entering(lp.dual(basis), 1e-12 * (1.0 + float(np.abs(lp.c).max())), False)
        assert entering >= 0
        vertex = lp.primal(basis, entering)
        unbounded = vertex._replace(blocking=[(value, abs(change), number)
                                              for value, change, number in vertex.blocking])
        with pytest.raises(ArithmeticError, match="unbounded step"):
            lp.leaving(unbounded)

    def test_infeasible_basic_solution_warns_and_keeps_the_fill(self, monkeypatch):
        # the geom fill's first pricing fails, so the simplex solves for a vertex
        g = build_cost_function(table_prediction("geom"), 50)
        fill = level_fill(g, 50, 2.0)
        primal = staircase.Staircase.primal

        def below_zero(self, *args):
            vertex = primal(self, *args)
            return vertex._replace(blocking=[(-1.0, -1.0, 0), *vertex.blocking])

        monkeypatch.setattr(staircase.Staircase, "primal", below_zero)
        with pytest.warns(RuntimeWarning, match=r"stopped after 0 pivots on a numerical "
                                                r"breakdown \(basic solution infeasible\)"):
            assert randomized._lp_refine(g, 50, 2.0, fill) is fill

    def test_pricing_picks_what_every_price_picks(self, rng):
        # the pricing probes each stretch of one piece and one cost row at its
        # ends; on random bases and duals it must pick what the per-day prices,
        # computed over every day at once, pick: Dantzig's least price or
        # Bland's first below -tol, exact ties to the lowest variable
        picked = 0
        for trial in range(300):
            b = int(rng.integers(3, 120))
            p_hat = (sparse_prediction(rng, b) if trial % 3 else
                     uniform_days(int(rng.integers(1, 3 * b))))
            lp = staircase.Staircase(build_cost_function(p_hat, b), b, 2.0)
            n = lp.t.size
            cuts = np.sort(rng.choice(np.arange(1, b), size=int(rng.integers(0, b)),
                                      replace=False))
            pieces, day = [], 1
            for last in [*cuts[cuts < b - 1].tolist(), b - 1]:
                kind = int(rng.choice([staircase._G, staircase._C, staircase._A]))
                if kind == staircase._C:
                    pieces += [(staircase._A, day, last - 1)] * (day < last) + [(kind, last, last)]
                elif pieces and pieces[-1][0] == kind:
                    pieces[-1] = (kind, pieces[-1][1], last)
                else:
                    pieces.append((kind, day, last))
                day = last + 1
            merged = [pieces[0]]
            for piece in pieces[1:]:
                if piece[0] == merged[-1][0] != staircase._C:
                    merged[-1] = (piece[0], merged[-1][1], piece[2])
                else:
                    merged.append(piece)
            end = sorted(rng.choice(np.arange(b - 1, n), size=min(2, n - b + 1),
                                    replace=False).tolist())
            basis = staircase._Basis(merged, [s for _, s, _ in merged], end, bool(trial % 2))
            # prices near zero at each piece's last day, as a basic day's are, and
            # W of either sign, tiny or zero: prices that cross -tol inside a
            # stretch, or tie along the flat costs past the last atom
            last = np.array([e for _, _, e in merged])
            W = rng.normal(size=len(merged)) * rng.choice([1.0, 1e-3, 1e-18, 0.0],
                                                          size=len(merged))
            E = -lp.c[last - 1] + rng.normal(size=len(merged)) * rng.choice([10.0, 1e-3, 0.0])
            dual = staircase._Dual(basis, float(rng.normal()), float(rng.normal()) * (trial % 2),
                                   W.tolist(), E.tolist())
            price = reference_prices(lp, dual)
            tol = 1e-12 * (1.0 + float(np.abs(lp.c).max()))
            below = price < -tol
            assert lp.entering(dual, tol, False) == (int(np.argmin(price)) if below.any() else -1)
            assert lp.entering(dual, tol, True) == (int(np.argmax(below)) if below.any() else -1)
            picked += bool(below.any())
        assert picked > 100

    @pytest.mark.parametrize("W,E,day_bland,day_dantzig", [
        (-0.01, -1.5, 150, 199),  # prices cross -tol 49 days before the gap's end
        (-1e-17, -2.0, 2, 188),  # prices fall in float steps: the last 12 days tie
    ])
    def test_pricing_settles_a_falling_stretch_inside_it(self, W, E, day_bland, day_dantzig):
        # a one-hot at day 1 leaves the costs flat on days 2..199, one stretch of
        # the gap; a falling price there is settled by a bisection of the stretch
        b = 200
        lp = staircase.Staircase(build_cost_function(one_hot(1), b), b, 2.0)
        basis = staircase._Basis([(staircase._G, 1, b - 1)], [1], [b - 1], False)
        dual = staircase._Dual(basis, -10.0, 0.0, [W], [E])
        price = reference_prices(lp, dual)
        tol = 1e-12 * (1.0 + float(np.abs(lp.c).max()))
        assert int(np.argmax(price < -tol)) == day_bland - 1
        assert int(np.argmin(price)) == day_dantzig - 1
        assert lp.entering(dual, tol, True) == day_bland - 1
        assert lp.entering(dual, tol, False) == day_dantzig - 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_solve_unknowns_matches_numpy(self, rng, k):
        for _ in range(200):
            A = rng.uniform(1.0, 2.0, size=(1, k)) * rng.choice([-1.0, 1.0], size=(1, k))
            if k == 2:  # a rotation's columns scaled: either row may hold the larger pivot
                angle = rng.uniform(0.0, 2.0 * np.pi)
                A = np.array([[np.cos(angle), -np.sin(angle)],
                              [np.sin(angle), np.cos(angle)]]) * A
            rhs = rng.normal(size=(k, 2))
            rows = np.hstack((rhs, A)).tolist()
            got = np.array(staircase._solve_unknowns(rows, 2)).T
            np.testing.assert_allclose(got, np.linalg.solve(A, -rhs), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.0]], "singular"),
        ([[1.0, 0.0, 0.0], [2.0, 0.0, 3.0]], "singular"),
        ([[1.0, 1.0, 2.0], [2.0, 2.0, 4.0]], "singular"),
        ([[1e10, 1e-300, 0.0], [0.0, 0.0, 1.0]], "singular"),
        ([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]], "not square"),
    ], ids=["zero_pivot", "zero_column", "singular_pair", "overflow", "three_rows"])
    def test_solve_unknowns_rejects_singular_and_larger_bases(self, rows, message):
        with pytest.raises(ArithmeticError, match=message):
            staircase._solve_unknowns(rows, 1)


class TestExpectedPolicyCost:
    def test_point_mass(self, rng):
        p_hat = random_day_distribution(rng)
        g = build_cost_function(p_hat, 5)
        t = int(rng.integers(1, 20))
        assert expected_policy_cost(buy_day(t), g) == pytest.approx(g(t), abs=1e-12)

    def test_uniform_pair(self, rng):
        p_hat = random_day_distribution(rng)
        g = build_cost_function(p_hat, 5)
        f = StoppingDistribution((2, 9), (0.5, 0.5))
        assert expected_policy_cost(f, g) == pytest.approx((g(2) + g(9)) / 2, abs=1e-12)

    def test_matches_sequential_sum(self, rng):
        # pairwise summation would move the last digits on the large supports
        for n in (1, 5, 50, 5000):
            p_hat = random_day_distribution(rng, max_day=2 * n + 10, max_atoms=n)
            g = build_cost_function(p_hat, int(rng.integers(2, 200)))
            f = random_stopping(rng, max_day=3 * n + 20, max_atoms=n)
            assert expected_policy_cost(f, g) == sum(g(d) * m for d, m in zip(f.days, f.masses))

    def test_repeated_cost_under_the_same_g_is_kept(self, monkeypatch):
        priced = []  # the id of each g that values_at reads
        values_at = CostFunction.values_at
        monkeypatch.setattr(CostFunction, "values_at",
                            lambda g, ts: priced.append(id(g)) or values_at(g, ts))
        p_hat = DayDistribution((3, 10, 60), (0.3, 0.3, 0.4))
        g, other = build_cost_function(p_hat, 5), build_cost_function(p_hat, 5)
        f = StoppingDistribution((2, 9), (0.5, 0.5))
        cost = expected_policy_cost(f, g)
        assert expected_policy_cost(f, g) == cost and priced == [id(g)]
        # an equal table under another g is priced again, and replaces the kept cost
        assert expected_policy_cost(f, other) == cost and priced == [id(g), id(other)]
        assert expected_policy_cost(f, g) == cost and len(priced) == 3
        kept = f._priced[0]
        assert kept() is g
        del g
        assert kept() is None  # the kept cost does not keep g alive
        assert expected_policy_cost(f, build_cost_function(p_hat, 5)) == cost
        assert len(priced) == 4

    def test_matches_monte_carlo(self, rng):
        p_hat = random_day_distribution(rng, max_day=20)
        g = build_cost_function(p_hat, 6)
        f = random_stopping(rng, max_day=25)
        draws = f.sample(rng, 200_000)
        costs = np.array([g(int(z)) for z in range(1, 26)])[draws - 1]
        est, se = costs.mean(), costs.std(ddof=1) / math.sqrt(len(costs))
        assert abs(expected_policy_cost(f, g) - est) <= 3 * se + 1e-9


EXACT_SOLVE_SCRIPT = """
import sys
import skirent
from skirent import randomized
loaded = ['skirent.staircase' in sys.modules]
calls = []
refine = randomized._lp_refine
randomized._lp_refine = lambda *args: calls.append(args) or refine(*args)
g = skirent.build_cost_function(skirent.DayDistribution((30, 120), (0.7, 0.3)), 50)
skirent.water_fill(g, 50, 1.7, exact=False)
loaded.append('skirent.staircase' in sys.modules)
skirent.water_fill(g, 50, 1.7)
loaded.append('skirent.staircase' in sys.modules)
print(len(calls), 'scipy' in sys.modules, *loaded)
"""


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize took 0.5-0.6 s of a 0.9 s `import skirent`; an exact solve
    # that reaches the LP needs no scipy at all.  The staircase solver loads with
    # the first exact solve, not with the package or a published solve
    src = str(Path(randomized.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", EXACT_SOLVE_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 False False False True"
