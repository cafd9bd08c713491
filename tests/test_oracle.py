import math

import numpy as np
import pytest
import scipy.optimize

from skirent import (
    DayDistribution,
    InfeasibleError,
    InvalidParamsError,
    LpInstance,
    ScaleExceededError,
    brute_force_threshold,
    build_cost_function,
    check_robustness,
    expected_policy_cost,
    feasible_robustness,
    geometric_cdf,
    is_never,
    lp_instance_from_cost,
    lp_solve,
)
from conftest import random_day_distribution


def scipy_reference(inst: LpInstance):
    """Third-party solve of the same finite program (sanity anchor)."""
    n, b, R = inst.N, inst.b, inst.R
    t = np.arange(1, n + 1, dtype=float)
    rows = [np.where(t <= x, (t - 1) + (b - x), 0.0) for x in range(1, b)]
    rhs = [(R - 1) * x for x in range(1, b)]
    rows.append(t - 1.0)
    rhs.append((R - 1) * b)
    res = scipy.optimize.linprog(np.array(inst.objective), A_ub=np.array(rows),
                                 b_ub=np.array(rhs), A_eq=np.ones((1, n)), b_eq=[1.0],
                                 bounds=(0, None), method="highs")
    return res.fun if res.success else None


class TestBruteForce:
    def test_worked_example(self, worked_example):
        assert brute_force_threshold(worked_example, 3) == (2, 1.6)

    def test_one_hot_below_b_never_buys(self):
        p = DayDistribution((4,), (1.0,))
        t, cost = brute_force_threshold(p, 9)
        assert is_never(t) and cost == pytest.approx(4.0)


class TestLpSolve:
    def test_monotone_matches_geometric(self):
        for b, R in ((5, 2.0), (8, 1.8)):
            p_hat = DayDistribution((4 * b, 5 * b), (0.5, 0.5))
            g = build_cost_function(p_hat, b)
            _, value = lp_solve(lp_instance_from_cost(g, b, R))
            geo_cost = expected_policy_cost(geometric_cdf(b, R), g)
            assert value == pytest.approx(geo_cost, abs=1e-8)

    def test_buy_day_one_feasible_when_r_large(self):
        b = 5
        p_hat = DayDistribution((3,), (1.0,))
        g = build_cost_function(p_hat, b)
        _, value = lp_solve(lp_instance_from_cost(g, b, float(b)))
        assert value <= g(1) + 1e-9

    def test_output_is_robust(self, rng):
        for _ in range(30):
            b = int(rng.integers(3, 12))
            R = float(rng.choice([1.7, 2.0, 2.5]))
            p_hat = random_day_distribution(rng, max_day=3 * b)
            g = build_cost_function(p_hat, b)
            try:
                policy, _ = lp_solve(lp_instance_from_cost(g, b, R))
            except InfeasibleError:
                assert not feasible_robustness(b, R)
                continue
            assert check_robustness(policy, b, R).feasible

    def test_weak_duality_against_feasible_policies(self, rng):
        for _ in range(30):
            b = int(rng.integers(3, 10))
            R = float(rng.choice([1.8, 2.2]))
            if not feasible_robustness(b, R):
                continue
            p_hat = random_day_distribution(rng, max_day=3 * b)
            g = build_cost_function(p_hat, b)
            _, value = lp_solve(lp_instance_from_cost(g, b, R))
            witness = geometric_cdf(b, R)
            assert value <= expected_policy_cost(witness, g) + 1e-8

    def test_pivot_rules_agree(self, rng):
        for _ in range(25):
            b = int(rng.integers(3, 10))
            R = float(rng.choice([1.7, 2.0]))
            p_hat = random_day_distribution(rng, max_day=3 * b)
            inst = lp_instance_from_cost(build_cost_function(p_hat, b), b, R)
            _, bland = lp_solve(inst, pivot_rule="bland")
            _, dantzig = lp_solve(inst, pivot_rule="dantzig")
            assert bland == pytest.approx(dantzig, abs=1e-8)

    def test_matches_scipy_reference(self, rng):
        for _ in range(40):
            b = int(rng.integers(3, 12))
            R = float(rng.choice([1.3, 1.7, 2.5]))
            p_hat = random_day_distribution(rng, max_day=3 * b)
            inst = lp_instance_from_cost(build_cost_function(p_hat, b), b, R)
            ref = scipy_reference(inst)
            try:
                _, value = lp_solve(inst)
            except InfeasibleError:
                assert ref is None
                continue
            assert ref is not None
            assert value == pytest.approx(ref, abs=1e-7)

    def test_infeasible_detected(self):
        g = build_cost_function(DayDistribution((5,), (1.0,)), 8)
        with pytest.raises(InfeasibleError):
            lp_solve(lp_instance_from_cost(g, 8, 1.3))

    def test_scale_guard(self):
        inst = LpInstance(objective=tuple(float(t) for t in range(1, 402)),
                          b=4, R=2.0, N=401)
        with pytest.raises(ScaleExceededError):
            lp_solve(inst)

    def test_scale_guard_before_building(self):
        # R = 1e300 asked for a horizon of ~4e300 days and built its objective
        # until memory ran out; here the horizon is 10^6 + 2
        g = build_cost_function(DayDistribution((5,), (1.0,)), 4)
        with pytest.raises(ScaleExceededError):
            lp_instance_from_cost(g, 4, 2.5e5 + 1)

    def test_horizon_formula(self):
        g = build_cost_function(DayDistribution((5,), (1.0,)), 6)
        inst = lp_instance_from_cost(g, 6, 2.0)
        assert inst.N == max(5, 8, 24)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_rejected(self, bad):
        # R = nan raised a bare ValueError and R = inf an OverflowError from the
        # horizon's ceil; LpInstance accepted R = nan
        g = build_cost_function(DayDistribution((5,), (1.0,)), 6)
        with pytest.raises(InvalidParamsError, match="finite"):
            lp_instance_from_cost(g, 6, bad)
        with pytest.raises(InvalidParamsError, match="finite"):
            LpInstance(objective=(1.0,) * 24, b=6, R=bad, N=24)
