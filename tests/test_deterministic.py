import math
import tracemalloc

import numpy as np
import pytest

from skirent import (
    NEVER,
    DayDistribution,
    DegenerateTailError,
    InvalidParamsError,
    clamp_threshold,
    cr_bound_early,
    cr_bound_late,
    exact_ecr,
    expected_cost_threshold,
    expected_opt,
    is_never,
    optimal_threshold,
    robust_consistent_bound,
    sufficient_condition_check,
    survival,
    total_variation,
    wasserstein1,
)
from skirent.oracle import brute_force_threshold
from conftest import random_day_distribution

E_RATIO = math.e / (math.e - 1.0)


def optimal_threshold_reference(p: DayDistribution, b: int):
    """The day-by-day scan over 1..max_day + 1 that the support scan replaced."""
    max_day = p.max_day
    pmf = [0.0] * (max_day + 2)
    for d, q in zip(p.days, p.probs):
        pmf[d] = q
    tail = [0.0] * (max_day + 2)
    for d in range(max_day, 0, -1):
        tail[d] = tail[d + 1] + pmf[d]
    best_t = 1
    best_cost = math.inf
    rent_cost = 0.0
    for t in range(1, max_day + 2):
        cost = rent_cost + tail[t] * (b + t - 1)
        if cost < best_cost:
            best_cost = cost
            best_t = t
        if t <= max_day:
            rent_cost += pmf[t] * t
    if best_t == max_day + 1:
        return NEVER, best_cost
    return best_t, best_cost


class TestExpectedCost:
    # reference cost column for the two-atom example at b = 3
    TABLE = {1: 3.0, 2: 1.6, 3: 1.8, 4: 2.0, 5: 2.2, NEVER: 1.8}

    @pytest.mark.parametrize("t,expected", sorted(TABLE.items(), key=lambda kv: kv[1]))
    def test_worked_example_column(self, worked_example, t, expected):
        assert expected_cost_threshold(worked_example, 3, t) == pytest.approx(
            expected, abs=1e-12)

    def test_never_is_mean(self, rng):
        for _ in range(20):
            p = random_day_distribution(rng)
            assert expected_cost_threshold(p, 5, NEVER) == pytest.approx(p.mean(), abs=1e-12)

    def test_rejects_bad_threshold(self, worked_example):
        with pytest.raises(InvalidParamsError):
            expected_cost_threshold(worked_example, 3, 0)

    @pytest.mark.parametrize("t", [math.nan, -math.inf, "abc", "5", None, 2.5, True, 0],
                             ids=["nan", "minus_inf", "text", "numeral", "none", "fraction",
                                  "bool", "zero"])
    @pytest.mark.parametrize("call", [
        lambda p, t: expected_cost_threshold(p, 5, t), lambda p, t: exact_ecr(p, 5, t),
        lambda p, t: clamp_threshold(t, 5, 0.5), lambda p, t: cr_bound_early(p, 5, t),
        lambda p, t: cr_bound_late(p, 5, t),
        lambda p, t: sufficient_condition_check(p, 5, t, 2.0)],
        ids=["expected_cost", "exact_ecr", "clamp", "cr_early", "cr_late", "sufficient"])
    def test_non_integer_threshold_is_typed(self, worked_example, call, t):
        # NaN and "abc" escaped int() as a bare ValueError, -inf as an OverflowError
        with pytest.raises(InvalidParamsError, match="positive integer or NEVER"):
            call(worked_example, t)

    def test_never_stays_valid(self, worked_example):
        assert expected_cost_threshold(worked_example, 5, math.inf) == worked_example.mean()
        # a day past the support never buys; past float range it raised an OverflowError
        assert (expected_cost_threshold(worked_example, 5, 10**400)
                == expected_cost_threshold(worked_example, 5, 2**64) == worked_example.mean())
        assert clamp_threshold(NEVER, 5, 0.5) == 10


class TestOptimalThreshold:
    def test_worked_example(self, worked_example):
        assert optimal_threshold(worked_example, 3) == (2, 1.6)

    def test_one_hot_above_b_buys_immediately(self):
        p = DayDistribution((9,), (1.0,))
        assert optimal_threshold(p, 4) == (1, 4.0)

    def test_one_hot_below_b_never_buys(self):
        p = DayDistribution((3,), (1.0,))
        t, cost = optimal_threshold(p, 7)
        assert is_never(t) and cost == pytest.approx(3.0)

    @pytest.mark.parametrize("b", [2, 500, 5 * 10**4, 2 * 10**5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_to_day_1e5(self, seed, b):
        # log-uniform days below the last one, so the optimum is interior at most b
        rng = np.random.default_rng(seed)
        days = np.unique(np.ceil(10.0 ** rng.uniform(0, 5, size=int(rng.integers(1, 12)))))
        days = [int(d) for d in days if d < 10**5] + [10**5]
        p = DayDistribution(tuple(days), tuple(rng.dirichlet(np.ones(len(days)))))
        fast = optimal_threshold(p, b)
        slow = brute_force_threshold(p, b)
        assert fast[0] == slow[0]
        assert fast[1] == pytest.approx(slow[1], abs=1e-9)

    def test_matches_day_scan_reference(self, rng):
        for _ in range(3000):
            p = random_day_distribution(rng, max_day=int(rng.integers(1, 200)), max_atoms=30)
            b = int(rng.integers(2, 250))
            assert optimal_threshold(p, b) == optimal_threshold_reference(p, b)

    def test_two_atoms_far_apart(self):
        p = DayDistribution((1, 10**7), (0.5, 0.5))
        tracemalloc.start()
        try:
            t, cost = optimal_threshold(p, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (t, cost) == (2, expected_cost_threshold(p, 50, 2))
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_buy_cost_past_the_int64_range(self):
        # b + day in int64 wrapped here, to a cost of -2.3e18
        p = DayDistribution((2**62, 2**62 + 10), (0.5, 0.5))
        assert optimal_threshold(p, 2**62) == (1, 2.0**62)
        with pytest.raises(InvalidParamsError, match="2\\^63"):
            optimal_threshold(p, 2**63)

    def test_tie_break_prefers_smallest_day(self):
        # both t=1 and t=2 cost b for a point mass far beyond b
        p = DayDistribution((100,), (1.0,))
        t, cost = optimal_threshold(p, 5)
        assert t == 1 and cost == pytest.approx(5.0)


class TestCrBounds:
    def test_early_at_b_is_classic(self, rng):
        for _ in range(20):
            p = random_day_distribution(rng, max_day=40)
            b = int(rng.integers(2, 12))
            if survival(p, b) <= 0:
                continue
            assert cr_bound_early(p, b, b) == pytest.approx(2 - 1 / b, abs=1e-12)

    def test_early_worked_example(self, worked_example):
        assert cr_bound_early(worked_example, 3, 2) == pytest.approx(4 / 3, abs=1e-12)

    def test_late_zero_tail(self):
        p = DayDistribution((1, 4), (0.5, 0.5))
        b = 3
        assert cr_bound_late(p, b, 5) == pytest.approx((5 - 1) / b, abs=1e-12)

    def test_late_r_one(self):
        p = DayDistribution((10,), (1.0,))
        b = 4
        assert cr_bound_late(p, b, 5) == pytest.approx(2.0, abs=1e-12)

    def test_bounds_dominate_exact_ecr(self, rng):
        checked = 0
        while checked < 1000:
            p = random_day_distribution(rng, max_day=50)
            b = int(rng.integers(2, 12))
            if survival(p, b) <= 0:
                continue
            t, _ = optimal_threshold(p, b)
            if is_never(t):
                continue
            ecr = exact_ecr(p, b, t)
            bound = cr_bound_early(p, b, t) if t <= b else cr_bound_late(p, b, t)
            assert ecr <= bound + 1e-9
            checked += 1

    def test_degenerate_tail_raises(self):
        p = DayDistribution((1, 2), (0.5, 0.5))
        with pytest.raises(DegenerateTailError):
            cr_bound_early(p, 5, 2)

    @pytest.mark.parametrize("call, t, match", [
        (cr_bound_early, 6, "early-buy bound needs a finite threshold t <= b"),
        (cr_bound_early, NEVER, "early-buy bound needs a finite threshold t <= b"),
        (cr_bound_late, 5, "late-buy bound needs a finite threshold t > b"),
        (cr_bound_late, NEVER, "late-buy bound needs a finite threshold t > b"),
        (lambda p, b, t: sufficient_condition_check(p, b, t, 2.0), NEVER,
         "condition check needs a finite threshold")],
        ids=["early_past_b", "early_never", "late_at_b", "late_never", "sufficient_never"])
    def test_threshold_outside_the_bound_is_rejected(self, worked_example, call, t, match):
        with pytest.raises(InvalidParamsError, match=match) as raised:
            call(worked_example, 5, t)
        assert raised.type is InvalidParamsError


class TestSufficientCondition:
    def test_late_condition_at_b2(self):
        # r = 1 at alpha = 1: the classic-randomized target holds only for b = 2
        p = DayDistribution((5,), (1.0,))
        assert sufficient_condition_check(p, 2, 2, E_RATIO) is True
        assert sufficient_condition_check(p, 3, 3, E_RATIO) is False

    def test_zero_tail_late_trivial(self):
        p = DayDistribution((1, 4), (0.6, 0.4))
        b = 3
        # r = 0 at t = 5 > b: late condition holds whenever C - alpha + 1/b >= 0
        assert sufficient_condition_check(p, b, 5, 2.0) is True

    def test_soundness_sweep(self, rng):
        checked = 0
        while checked < 400:
            p = random_day_distribution(rng, max_day=40)
            b = int(rng.integers(2, 10))
            if survival(p, b) <= 0:
                continue
            t = int(rng.integers(1, 3 * b))
            C = float(rng.uniform(1.05, 3.0))
            if sufficient_condition_check(p, b, t, C):
                assert exact_ecr(p, b, t) <= C + 1e-9
            checked += 1


class TestClamp:
    def test_low_clamp(self):
        assert clamp_threshold(1, 50, 1 / 3) == 17

    def test_identity_inside_range(self):
        assert clamp_threshold(30, 50, 1 / 3) == 30

    def test_never_clamps_high(self):
        assert clamp_threshold(NEVER, 50, 1 / 3) == 150

    def test_float_boundary_guard(self):
        # 30 * 0.1 rounds above 3.0 in floats; the ceiling must still be 3
        assert clamp_threshold(1, 30, 0.1) == 3

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParamsError):
            clamp_threshold(5, 10, 1.5)

    @pytest.mark.parametrize("lam", ["0.5", None, [0.5], math.nan, -math.inf],
                             ids=["numeral", "none", "list", "nan", "minus_inf"])
    def test_non_number_lambda_is_typed(self, lam):
        # "0.5" escaped the range comparison as a bare TypeError
        with pytest.raises(InvalidParamsError, match="finite number"):
            clamp_threshold(5, 10, lam)


class TestRobustConsistentBound:
    def test_zero_error_consistent_equals_rho(self, worked_example):
        rep = robust_consistent_bound(worked_example, 3, 0.5, eta=0.0)
        assert rep.consistent_term == pytest.approx(rep.rho_hat, abs=1e-12)
        assert rep.theta == 0.0

    def test_robust_term_arithmetic(self, worked_example):
        rep = robust_consistent_bound(worked_example, 50, 1 / 3, eta=0.0)
        assert rep.robust_term == pytest.approx(3.98, abs=1e-12)

    def test_large_error_unavailable(self, worked_example):
        opt = expected_opt(worked_example, 3)
        rep = robust_consistent_bound(worked_example, 3, 0.5, eta=2 * opt)
        assert rep.consistent_term is None
        assert rep.theta is None
        assert rep.binding == "robust"

    def test_tv_metric_variant(self, worked_example):
        rep = robust_consistent_bound(worked_example, 3, 0.5, eta=0.05, metric="tv")
        opt = expected_opt(worked_example, 3)
        denom = 1 - 3 * 0.05 / opt
        expected = (rep.rho_hat + 0.05 * (3 + rep.clamped_t - 1) / opt) / denom
        assert rep.consistent_term == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_error_rejected(self, worked_example, eta):
        # NaN and inf reported the consistency bound as unavailable, True read as 1.0
        with pytest.raises(InvalidParamsError, match="finite"):
            robust_consistent_bound(worked_example, 3, 0.5, eta=eta)

    def test_unknown_metric_rejected(self, worked_example):
        with pytest.raises(InvalidParamsError, match="unknown metric 'l1'"):
            robust_consistent_bound(worked_example, 3, 0.5, eta=0.0, metric="l1")

    def test_binding_selects_smaller(self, worked_example):
        rep = robust_consistent_bound(worked_example, 3, 0.9, eta=0.0)
        smaller = min(rep.robust_term, rep.consistent_term)
        got = rep.consistent_term if rep.binding == "consistent" else rep.robust_term
        assert got == pytest.approx(smaller)


class TestExactEcr:
    def test_worked_example(self, worked_example):
        assert exact_ecr(worked_example, 3, 2) == pytest.approx(1.6 / 1.4, abs=1e-12)

    def test_one_hot_matching_policy(self):
        p = DayDistribution((4,), (1.0,))
        t, _ = optimal_threshold(p, 9)
        assert exact_ecr(p, 9, t) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b", [6, 30, 300])
    def test_case_study_cost(self, b):
        p = DayDistribution((2 * b // 3, 2 * b), (0.5, 0.5))
        assert expected_cost_threshold(p, b, 2 * b // 3 + 1) == pytest.approx(
            7 * b / 6, abs=1e-9)


class TestGuaranteeSweeps:
    def test_clamped_ecr_within_robust_bound(self, rng):
        # adversarial pairs: policy built from a wrong prediction, judged on truth
        for _ in range(1500):
            p = random_day_distribution(rng, max_day=50)
            p_hat = random_day_distribution(rng, max_day=50)
            b = int(rng.integers(2, 30))
            lam = float(rng.uniform(0.05, 0.95))
            t_hat, _ = optimal_threshold(p_hat, b)
            t_clamped = clamp_threshold(t_hat, b, lam)
            assert exact_ecr(p, b, t_clamped) <= 1 + 1 / lam - 1 / b + 1e-9

    def test_pointwise_distribution_free_bound(self, rng):
        for _ in range(200):
            b = int(rng.integers(2, 20))
            lam = float(rng.uniform(0.1, 0.9))
            lo = clamp_threshold(1, b, lam)
            hi = clamp_threshold(NEVER, b, lam)
            for t in {lo, hi, (lo + hi) // 2}:
                for d in range(1, 3 * b + 1):
                    cost = d if d < t else b + t - 1
                    ratio = cost / min(d, b)
                    limit = 1 + (b - 1) / t if t <= b else 1 + (t - 1) / b
                    assert ratio <= limit + 1e-9

    def test_wasserstein_stability(self, rng):
        for _ in range(1000):
            p = random_day_distribution(rng, max_day=40)
            q = random_day_distribution(rng, max_day=40)
            b = int(rng.integers(2, 15))
            eta = wasserstein1(p, q)
            t = int(rng.integers(1, 2 * b))
            assert (expected_cost_threshold(p, b, t)
                    <= expected_cost_threshold(q, b, t) + b * eta + 1e-9)
            assert expected_opt(p, b) >= expected_opt(q, b) - eta - 1e-9

    def test_tv_stability(self, rng):
        for _ in range(1000):
            p = random_day_distribution(rng, max_day=40)
            q = random_day_distribution(rng, max_day=40)
            b = int(rng.integers(2, 15))
            eta = total_variation(p, q)
            t = int(rng.integers(1, 2 * b))
            assert (expected_cost_threshold(p, b, t)
                    <= expected_cost_threshold(q, b, t) + eta * (b + t - 1) + 1e-9)
            assert expected_opt(p, b) >= expected_opt(q, b) - b * eta - 1e-9
