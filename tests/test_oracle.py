import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from skirent import (
    DayDistribution,
    InfeasibleError,
    InvalidParamsError,
    LpInstance,
    ScaleExceededError,
    StoppingDistribution,
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
import skirent.oracle as oracle
from skirent.oracle import MAX_HORIZON, ONEHOT_PROPERTIES, PROPERTIES, draw_instance
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


def ref_pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """The row-by-row pivot that ``oracle._pivot`` replaced."""
    T[row, :] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r, :] -= T[r, col] * T[row, :]
    basis[row] = col


def ref_run_simplex(T: np.ndarray, basis: list[int], n_cols: int, blocked: set[int]) -> None:
    """The scanning Bland's-rule loop that ``oracle._run_simplex`` replaced."""
    m = T.shape[0] - 1
    for _ in range(200000):
        red = T[m, :n_cols]
        enter = next((j for j in range(n_cols) if j not in blocked and red[j] < -1e-10), -1)
        if enter < 0:
            return
        col = T[:m, enter]
        rows = np.where(col > 1e-11)[0]
        if rows.size == 0:
            raise InfeasibleError("unbounded direction in simplex (malformed instance)")
        leave = min(rows, key=lambda r: (T[r, -1] / col[r], basis[r]))
        ref_pivot(T, basis, int(leave), enter)
    raise InfeasibleError("simplex failed to converge")


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

    def test_matches_row_by_row_pivots(self, monkeypatch):
        # the vectorised pivots do the same multiply and subtract per entry, so
        # they take the same pivots and give the same bits
        rng = np.random.default_rng(3)
        instances = []
        while len(instances) < 40:
            p, b, R = draw_instance(rng, MAX_HORIZON // 4)
            if b <= 40:
                instances.append(lp_instance_from_cost(build_cost_function(p, b), b, R))

        def solve_all():
            out = []
            for inst in instances:
                try:
                    policy, value = lp_solve(inst)
                    out.append((policy.support, policy.masses, value))
                except InfeasibleError as e:
                    out.append(str(e))
            return out

        fast = solve_all()
        monkeypatch.setattr(oracle, "_pivot", ref_pivot)
        monkeypatch.setattr(oracle, "_run_simplex", ref_run_simplex)
        assert solve_all() == fast
        assert any(not isinstance(o, str) for o in fast) and any(isinstance(o, str) for o in fast)

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

    @pytest.mark.parametrize("N", [2.5, True, "4", None, 1])
    def test_horizon_n_must_be_an_integer_from_b(self, N):
        # a float N reached np.zeros as a bare TypeError
        with pytest.raises(InvalidParamsError, match="horizon N"):
            LpInstance(objective=(1.0, 2.0, 3.0, 4.0), b=2, R=2.0, N=N)

    @pytest.mark.parametrize("b, error", [(10.0, None), (np.int64(10), None),
                                          ("10", InvalidParamsError), (2.5, InvalidParamsError),
                                          (True, InvalidParamsError), (1, InvalidParamsError)])
    def test_buy_cost_read_as_an_integer(self, b, error):
        # b = 10.0 raised a bare TypeError from the horizon's range, and "10" and 2.5 too
        g = build_cost_function(DayDistribution((5,), (1.0,)), 10)
        if error is None:
            assert lp_instance_from_cost(g, b, 2.0) == lp_instance_from_cost(g, 10, 2.0)
        else:
            with pytest.raises(error, match="buy cost b"):
                lp_instance_from_cost(g, b, 2.0)

    def test_horizon_formula(self):
        g = build_cost_function(DayDistribution((5,), (1.0,)), 6)
        inst = lp_instance_from_cost(g, 6, 2.0)
        assert inst.N == max(5, 8, 24)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_r_rejected(self, bad):
        # R = nan raised a bare ValueError and R = inf an OverflowError from the
        # horizon's ceil; LpInstance accepted R = nan
        g = build_cost_function(DayDistribution((5,), (1.0,)), 6)
        with pytest.raises(InvalidParamsError, match="finite"):
            lp_instance_from_cost(g, 6, bad)
        with pytest.raises(InvalidParamsError, match="finite"):
            LpInstance(objective=(1.0,) * 24, b=6, R=bad, N=24)


def least_feasible_r(b: int) -> float:
    """The least R that ``feasible_robustness`` accepts at b."""
    R = 1.0 + 1.0 / math.expm1(b * math.log1p(1.0 / (b - 1.0)))
    while feasible_robustness(b, R):
        R = math.nextafter(R, 0.0)
    while not feasible_robustness(b, R):
        R = math.nextafter(R, math.inf)
    return R


@st.composite
def instances(draw):
    """(p, b, R, y) inside the LP oracle's horizon: b up to MAX_HORIZON // 4, 1-12
    atoms on days up to 4b, a one-hot day y up to 4b, and R in [1.2, 3] or the
    least R with a robust policy at b."""
    b = draw(st.integers(2, MAX_HORIZON // 4))
    R = draw(st.one_of(st.floats(1.2, 3.0), st.just(least_feasible_r(b))))
    days = draw(st.lists(st.integers(1, 4 * b), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(days), max_size=len(days)))
    total = sum(weights)
    p = DayDistribution.from_pairs((d, w / total) for d, w in zip(days, weights))
    return p, b, R, draw(st.integers(1, 4 * b))


def late_threshold(real):
    """``optimal_threshold`` answering one day late."""
    def threshold(p, b):
        t, cost = real(p, b)
        return t + 1, cost
    return threshold


def costlier_exact(real):
    """``water_fill`` costing 1e-3 more in exact mode."""
    def fill(g, b, R, epsilon=None, exact=True):
        policy, cost = real(g, b, R, epsilon, exact)
        return policy, cost + 1e-3 if exact else cost
    return fill


def later_tail(real):
    """``_fill_pass`` putting its tail one day later."""
    def fill_pass(*args, **kwargs):
        fill = real(*args, **kwargs)
        return fill if fill is None or fill[2] is None else (*fill[:2], fill[2] + 1)
    return fill_pass


def later_last_mass(real):
    """``_construct_at_level`` moving its last day's mass one day later."""
    def construct(*args):
        policy = real(*args)
        if policy is None:
            return None
        *rest, (day, mass) = policy.support
        return StoppingDistribution.from_pairs([*rest, (day + 1, mass)])
    return construct


def extra_atom(real):
    """``perturb_wasserstein`` adding an atom of mass 1e-9 past its last day."""
    def perturb(p, eta, seed):
        q = real(p, eta, seed)
        return DayDistribution.from_pairs([*((d, m * (1.0 - 1e-9)) for d, m in q.support),
                                           (q.max_day + 1, 1e-9)])
    return perturb


def far_one_hot(real):
    """A perturbation that moves all of p 100 days past its last day, whatever eta."""
    return lambda p, eta, seed: DayDistribution((p.max_day + 100,), (1.0,))


def buy_day_one(real):
    """A policy builder that always buys on day 1."""
    return lambda *args: StoppingDistribution((1,), (1.0,))


#: Each property with the names it reads in ``skirent.oracle`` replaced by wrong
#: answers, once per comparison it makes.  At b = 10 and R = 2 every property
#: compares the two-point prediction and the one-hot at day 15.
TWO_POINT = DayDistribution((4, 15), (0.5, 0.5))
WRONG_ANSWERS = [
    pytest.param("optimal_threshold matches the exhaustive scan", TWO_POINT,
                 {"optimal_threshold": late_threshold}, id="threshold_a_day_late"),
    pytest.param("exact water filling matches the LP oracle", TWO_POINT,
                 {"water_fill": costlier_exact}, id="lp_costlier_exact"),
    pytest.param("onehot_exact (exact water filling on a one-hot) matches the LP oracle",
                 DayDistribution((15,), (1.0,)), {"water_fill": costlier_exact},
                 id="onehot_lp_costlier_exact"),
    pytest.param("geometric_cdf is R-robust exactly when feasible", TWO_POINT,
                 {"geometric_cdf": buy_day_one}, id="geometric_buys_on_day_1"),
    pytest.param("exact water filling is no worse than published", TWO_POINT,
                 {"water_fill": costlier_exact}, id="exact_costlier"),
    pytest.param("the published fill matches the per-row reference walk", TWO_POINT,
                 {"_fill_pass": later_tail}, id="fill_tail_a_day_late"),
    pytest.param("the published fill matches the per-row reference walk", TWO_POINT,
                 {"_construct_at_level": later_last_mass}, id="policy_mass_a_day_late"),
    pytest.param("perturb_wasserstein matches numpy's Generator move loop within its budget",
                 TWO_POINT, {"perturb_wasserstein": extra_atom}, id="perturbation_extra_atom"),
    # the reference agrees on the support, so that the budget is compared
    pytest.param("perturb_wasserstein matches numpy's Generator move loop within its budget",
                 TWO_POINT, {"perturb_wasserstein": far_one_hot, "perturb_reference": far_one_hot},
                 id="perturbation_over_budget"),
    pytest.param("both baselines are R-robust", TWO_POINT, {"baseline_policy": buy_day_one},
                 id="baselines_buy_on_day_1"),
]


class TestProperties:
    @pytest.mark.parametrize("name, p, wrong", WRONG_ANSWERS)
    def test_wrong_answer_fails_its_property(self, monkeypatch, name, p, wrong):
        # a property that cannot fail checks nothing
        prop = {**PROPERTIES, **ONEHOT_PROPERTIES}[name]
        assert prop(p, 10, 2.0) is None
        for attr, make in wrong.items():
            monkeypatch.setattr(oracle, attr, make(getattr(oracle, attr)))
        fault = prop(p, 10, 2.0)
        assert isinstance(fault, str) and fault.startswith("b=10")
        if name in ONEHOT_PROPERTIES:  # a one-hot's failure names its day
            assert "days (15,)" in fault

    def test_every_property_has_a_wrong_answer(self):
        assert {case.values[0] for case in WRONG_ANSWERS} == {*PROPERTIES, *ONEHOT_PROPERTIES}

    def test_properties_hold_on_drawn_instances(self):
        # the cross-checks skirent verify runs, on drawn predictions and one-hots;
        # an agreed InfeasibleError compares nothing, and any other error fails
        compared = dict.fromkeys([*PROPERTIES, *ONEHOT_PROPERTIES], 0)

        @settings(derandomize=True, database=None, deadline=None, max_examples=100)
        @given(instances())
        def check(instance):
            p, b, R, y = instance
            one_hot = DayDistribution((y,), (1.0,))
            runs = [(name, prop, p) for name, prop in PROPERTIES.items()]
            runs += [(name, prop, one_hot) for name, prop in ONEHOT_PROPERTIES.items()]
            for name, prop, q in runs:
                try:
                    fault = prop(q, b, R)
                except InfeasibleError:
                    continue
                assert fault is None, f"{name}: {fault}"
                compared[name] += 1

        check()
        assert all(compared.values()), compared

    def test_drawn_instances_stay_in_the_oracle_horizon(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, b, R = draw_instance(rng, MAX_HORIZON // 4)
            assert 2 <= b <= MAX_HORIZON // 4 and p.max_day <= 4 * b
            lp_instance_from_cost(build_cost_function(p, b), b, R)
