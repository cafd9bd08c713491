import math
import time

import numpy as np
import pytest

import skirent.baselines as baselines
from skirent import (
    BaselineKind,
    DayDistribution,
    InvalidParamsError,
    InvalidRError,
    ScaleExceededError,
    StoppingDistribution,
    baseline_policy,
    check_robustness,
    lambda_from_r,
    purohit_branch,
    r_from_lambda,
    survival,
)
from conftest import random_day_distribution


def _mass_at(f, day):
    i = int(np.searchsorted(np.asarray(f.days), day))
    if i < len(f.days) and f.days[i] == day:
        return f.masses[i]
    return 0.0


def mixture_reference(p_hat, b, R):
    """The per-day mixture loop the vectorised blend replaced."""
    lam = lambda_from_r(b, R)
    p_high = survival(p_hat, b)
    high = purohit_branch(b, lam, high_branch=True)
    low = purohit_branch(b, lam, high_branch=False)
    pmf = {}
    for d in range(1, max(high.max_day, low.max_day) + 1):
        mass = p_high * _mass_at(high, d) + (1.0 - p_high) * _mass_at(low, d)
        if mass > 0.0:
            pmf[d] = mass
    return StoppingDistribution.from_pairs(pmf.items())


class TestLambdaMapping:
    def test_reference_point(self):
        lam = lambda_from_r(50, 1.7)
        assert lam == pytest.approx(0.02 - math.log(0.4), abs=1e-12)
        assert lam == pytest.approx(0.9363, abs=5e-5)

    def test_round_trip(self):
        for b in (10, 50, 200):
            for R in (1.7, 1.9, 2.2):
                try:
                    lam = lambda_from_r(b, R)
                except InvalidRError:
                    continue
                assert r_from_lambda(b, lam) == pytest.approx(R, abs=1e-9)

    def test_divergence_flagged(self):
        with pytest.raises(InvalidRError) as err:
            lambda_from_r(50, 1.02)   # log argument hits zero from below
        assert err.value.raw_value == math.inf

    def test_out_of_range_carries_raw_value(self):
        with pytest.raises(InvalidRError) as err:
            lambda_from_r(50, 1.5)    # maps above 1
        assert err.value.raw_value > 1.0

    @pytest.mark.parametrize("R", [0.0, -1e6, 1.2, math.inf, math.nan],
                             ids=["zero", "negative", "at_1_plus_1_over_b", "inf", "nan"])
    def test_r_outside_the_domain_diverges(self, R):
        # 0 divided by zero; -1e6 returned 0.19999 and inf returned 0.2
        with pytest.raises(InvalidRError) as err:
            lambda_from_r(5, R)
        assert err.value.raw_value == math.inf

    @pytest.mark.parametrize("lam", [0.2, 0.1, 0.0, -1.0, 2.0, 1.0 + 1e-12, math.nan],
                             ids=["one_over_b", "below", "zero", "negative", "two",
                                  "just_above_one", "nan"])
    def test_lambda_outside_the_domain_rejected(self, lam):
        # 0.2 divided by zero, 0.1 returned R = -11.4 and 2.0 returned R = 1.44
        with pytest.raises(InvalidParamsError):
            r_from_lambda(5, lam)

    @pytest.mark.parametrize("R", ["2", None, [2.0], 1j], ids=["numeral", "none", "list", "complex"])
    def test_non_number_r_diverges(self, R):
        # "2" escaped math.isfinite as a bare TypeError
        with pytest.raises(InvalidRError) as err:
            lambda_from_r(5, R)
        assert err.value.raw_value == math.inf

    @pytest.mark.parametrize("lam", ["0.5", None, [0.5], math.inf], ids=["numeral", "none", "list", "inf"])
    def test_non_number_lambda_rejected(self, lam):
        # "0.5" escaped the range comparison as a bare TypeError
        with pytest.raises(InvalidParamsError, match="finite number"):
            r_from_lambda(5, lam)

    def test_lambda_just_above_one_over_b_is_finite(self):
        # exp(-(lam - 1/b)) rounds to 1 here, so 1 - exp(...) divided by zero
        R = r_from_lambda(5, math.nextafter(0.2, 1.0))
        assert math.isfinite(R) and R > 1e15
        assert r_from_lambda(5, 1.0) == pytest.approx(1.2 / (1.0 - math.exp(-0.8)), rel=1e-15)


class TestBranches:
    def test_high_branch_b2_lambda1(self):
        f = purohit_branch(2, 1.0, high_branch=True)
        assert f.days == (1, 2)
        assert f.masses[0] == pytest.approx(1 / 3, abs=1e-12)
        assert f.masses[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_masses_increasing(self, rng):
        for _ in range(20):
            b = int(rng.integers(2, 60))
            lam = float(rng.uniform(0.05, 1.0))
            for high in (True, False):
                f = purohit_branch(b, lam, high)
                assert all(a < b_ for a, b_ in zip(f.masses, f.masses[1:]))

    def test_mass_sums_to_one(self, rng):
        for _ in range(30):
            b = int(rng.integers(2, 80))
            lam = float(rng.uniform(0.05, 1.0))
            f = purohit_branch(b, lam, bool(rng.integers(2)))
            assert abs(sum(f.masses) - 1.0) < 1e-9

    @pytest.mark.parametrize("lam", [None, "0.5", math.nan, math.inf])
    @pytest.mark.parametrize("high", [True, False])
    def test_rejects_non_number_lambda(self, lam, high):
        # None and '0.5' raised a bare TypeError from the range comparison
        with pytest.raises(InvalidParamsError, match="lambda"):
            purohit_branch(50, lam, high)

    def test_branch_lengths_by_convention(self):
        b, lam = 50, lambda_from_r(50, 1.7)
        assert purohit_branch(b, lam, True).max_day == math.floor(lam * b)
        assert purohit_branch(b, lam, False).max_day == math.ceil(b / lam)

    def test_expected_buy_day_matches_monte_carlo(self, rng):
        f = purohit_branch(20, 0.8, high_branch=True)
        draws = f.sample(rng, 200_000)
        est, se = draws.mean(), draws.std(ddof=1) / math.sqrt(len(draws))
        mean = sum(d * m for d, m in f.support)
        assert abs(mean - est) <= 3 * se + 1e-9


class TestBaselinePolicy:
    def test_all_mass_above_b_gives_high_branch(self):
        p_hat = DayDistribution((80, 90), (0.5, 0.5))
        b, R = 50, 1.7
        high = purohit_branch(b, lambda_from_r(b, R), True)
        for kind in (BaselineKind.MAJORITY_BRANCH, BaselineKind.MIXTURE):
            f = baseline_policy(p_hat, b, R, kind)
            assert f.days == high.days
            assert all(abs(a - c) < 1e-12 for a, c in zip(f.masses, high.masses))

    def test_tie_goes_to_low_branch(self):
        # P[D >= b] exactly 1/2: the long-horizon branch needs a strict majority
        p_hat = DayDistribution((10, 90), (0.5, 0.5))
        b, R = 50, 1.7
        f = baseline_policy(p_hat, b, R, BaselineKind.MAJORITY_BRANCH)
        low = purohit_branch(b, lambda_from_r(b, R), False)
        assert f.days == low.days

    def test_mixture_is_pointwise_blend(self, rng):
        for _ in range(20):
            p_hat = random_day_distribution(rng, max_day=100)
            b, R = 50, 1.7
            P = survival(p_hat, b)
            lam = lambda_from_r(b, R)
            high = purohit_branch(b, lam, True)
            low = purohit_branch(b, lam, False)
            mix = baseline_policy(p_hat, b, R, BaselineKind.MIXTURE)
            for d in range(1, max(high.max_day, low.max_day) + 1):
                q = high.masses[d - 1] if d <= high.max_day else 0.0
                r = low.masses[d - 1] if d <= low.max_day else 0.0
                got = mix.cdf(d) - mix.cdf(d - 1)
                assert abs(got - (P * q + (1 - P) * r)) <= 1e-12

    def test_mixture_matches_per_day_reference(self, rng):
        predictions = [DayDistribution((1,), (1.0,)), DayDistribution((10**6,), (1.0,))]
        predictions += [random_day_distribution(rng, max_day=400) for _ in range(40)]
        for p_hat in predictions:
            b = int(rng.integers(2, 300))
            R = float(rng.uniform(1.6, 4.0))
            try:
                ref = mixture_reference(p_hat, b, R)
            except InvalidRError:
                continue
            mix = baseline_policy(p_hat, b, R, BaselineKind.MIXTURE)
            assert mix.days == ref.days
            assert mix.masses == ref.masses

    def test_mixture_time_grows_linearly(self):
        p_hat = DayDistribution(tuple(range(1, 101)), tuple([0.01] * 100))
        sizes = (250, 1000, 4000)
        times = []
        for b in sizes:
            reps = max(3, 20_000 // b)
            best = math.inf
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(reps):
                    baseline_policy(p_hat, b, 1.7, BaselineKind.MIXTURE)
                best = min(best, (time.perf_counter() - start) / reps)
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 1.3, f"log-log slope {slope:.2f}"

    def test_invalid_r_propagates(self):
        p_hat = DayDistribution((10,), (1.0,))
        with pytest.raises(InvalidRError):
            baseline_policy(p_hat, 50, 1.3, BaselineKind.MIXTURE)

    def test_branch_past_size_cap_rejected(self, monkeypatch):
        # R = 1e300 maps to lambda = 1/b, and the low branch then spans b^2 days:
        # at b = 10^4 the mixture exhausted memory.  A lowered cap shows the
        # guard at b = 50 (2500 days) without building 10^8 of them.
        monkeypatch.setattr(baselines, "MAX_DAYS", 1000)
        p_hat = DayDistribution((10,), (1.0,))
        for kind in BaselineKind:
            with pytest.raises(ScaleExceededError):
                baseline_policy(p_hat, 50, 1e300, kind)
        assert baseline_policy(p_hat, 50, 1.7, BaselineKind.MIXTURE).max_day <= 1000

    def test_majority_builds_only_its_branch(self, monkeypatch):
        # with all mass at or past b the rule needs only the short high branch,
        # so the b^2-day low branch is neither built nor size-checked
        monkeypatch.setattr(baselines, "MAX_DAYS", 1000)
        p_hat = DayDistribution((50, 60), (0.5, 0.5))
        f = baseline_policy(p_hat, 50, 1e300, BaselineKind.MAJORITY_BRANCH)
        assert f.support == purohit_branch(50, lambda_from_r(50, 1e300), True).support

    def test_one_pmf_per_call(self, monkeypatch):
        built = []

        def counting(days, masses):
            built.append(days)
            return StoppingDistribution(days, masses)

        monkeypatch.setattr(baselines, "StoppingDistribution", counting)
        p_hat = DayDistribution((10, 90), (0.4, 0.6))
        for kind in BaselineKind:
            built.clear()
            baseline_policy(p_hat, 50, 1.7, kind)
            assert len(built) == 1

    def test_mixture_survives_underflowing_branch_masses(self):
        # at R = 1e5 the low branch spans 634915 days, and its first 44526
        # masses underflow to 0; padding the branch pmfs, which drop those days,
        # misaligned the two branches and raised a broadcast ValueError
        p_hat = DayDistribution((10, 2000), (0.5, 0.5))
        b, R = 800, 1e5
        lam, p_high = lambda_from_r(b, R), survival(p_hat, b)
        high, low = (purohit_branch(b, lam, h) for h in (True, False))
        mix = baseline_policy(p_hat, b, R, BaselineKind.MIXTURE)
        assert low.days[0] > 40_000  # the underflow this guards against
        n = low.max_day
        by_day = {}
        for f in (high, low, mix):
            dense = np.zeros(n + 1)
            dense[np.asarray(f.days)] = f.masses
            by_day[f] = dense
        np.testing.assert_allclose(by_day[mix],
                                   p_high * by_day[high] + (1.0 - p_high) * by_day[low],
                                   rtol=1e-12, atol=0.0)
        assert math.fsum(mix.masses) == pytest.approx(1.0, abs=1e-12)
        assert check_robustness(mix, b, R).feasible

    @pytest.mark.parametrize("R", [math.nan, math.inf, True])
    def test_non_finite_r_rejected(self, R):
        # R = inf mapped to the branch parameter 1/b and returned a policy
        p_hat = DayDistribution((10,), (1.0,))
        for kind in BaselineKind:
            with pytest.raises(InvalidParamsError, match="finite"):
                baseline_policy(p_hat, 50, R, kind)
