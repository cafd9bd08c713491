import json
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from skirent import (
    DayDistribution,
    EmptySupportError,
    Family,
    FamilySpec,
    InvalidParamsError,
    InvariantError,
    LpInstance,
    StoppingDistribution,
    build_cost_function,
    case_study_lambda_third,
    expected_cost_threshold,
    expected_opt,
    lp_solve,
    make_distribution,
    onehot_exact,
    parse_distribution,
    perturb_wasserstein,
    realized_worst_ratio,
    run_perturbation_sweep,
    survival,
    total_variation,
    wasserstein1,
    water_fill,
)
import skirent.distributions as distributions
from skirent.randomized import parse_policy
from conftest import random_day_distribution


def perturb_reference(p: DayDistribution, eta: float, seed: int,
                      make_rng=np.random.default_rng) -> DayDistribution:
    """The perturbation loop that rebuilt the atom list on every move, on numpy's Generator."""
    if eta < 0:
        raise InvalidParamsError("eta must be >= 0")
    if eta == 0:
        return p
    rng = make_rng(seed)
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


def w1_reference(p: DayDistribution, q: DayDistribution) -> float:
    """W1 summed day by day over 1..max day."""
    xs = np.arange(1, max(p.max_day, q.max_day) + 1)
    return float(np.abs(p.cdf_at(xs) - q.cdf_at(xs)).sum())


PERTURB_ETAS = (0.5, 2.0, 8.0, 20.0, 60.0)


def draws_reading(transform):
    """The perturbation's draw source, reading ``transform`` of each of numpy's raw outputs."""
    class Draws(distributions._Draws):
        def __init__(self, seed):
            super().__init__(seed)
            numpy_raw = self.raw
            self.raw = lambda: transform(numpy_raw())

    return Draws


def dist_strategy():
    return st.dictionaries(st.integers(1, 80), st.floats(0.01, 1.0),
                           min_size=1, max_size=10).map(
        lambda d: DayDistribution.from_pairs(
            (k, v / sum(d.values())) for k, v in d.items()))


class TestConstruction:
    def test_two_point_example(self):
        p = make_distribution(FamilySpec(Family.TWO_POINT,
                                         {"atoms": [[30, 0.7], [120, 0.3]]}))
        assert p.support == ((30, 0.7), (120, 0.3))

    def test_one_hot_example(self):
        p = make_distribution(FamilySpec(Family.ONE_HOT, {"y": 5}))
        assert p.support == ((5, 1.0),)

    def test_uniform_example(self):
        p = make_distribution(FamilySpec(Family.UNIFORM, {"low": 1, "high": 4}))
        assert all(q == 0.25 for _, q in p.support)

    def test_geometric_shape(self):
        p = make_distribution(FamilySpec(Family.GEOMETRIC_TRUNCATED,
                                         {"rate": 0.3, "high": 10}))
        ratios = [p.probs[i + 1] / p.probs[i] for i in range(len(p.probs) - 1)]
        assert all(abs(r - 0.7) < 1e-12 for r in ratios)

    def test_gaussian_renormalizes(self):
        p = make_distribution(FamilySpec(Family.GAUSSIAN_DISCRETIZED,
                                         {"mean": 50, "stddev": 12, "low": 1, "high": 150}))
        assert abs(sum(p.probs) - 1.0) < 1e-9
        assert p.max_day <= 150

    @pytest.mark.parametrize("params", [
        {"stddev": -1, "mean": 5, "high": 10},
        {"rate": 1.5, "high": 10},
        {"atoms": [[3, 0.5], [7, 0.6]]},   # weights beyond 1
        {},
    ])
    def test_invalid_params(self, params):
        family = (Family.GAUSSIAN_DISCRETIZED if "stddev" in params
                  else Family.GEOMETRIC_TRUNCATED if "rate" in params
                  else Family.TWO_POINT)
        with pytest.raises(InvalidParamsError):
            make_distribution(FamilySpec(family, params))

    def test_empty_support(self):
        with pytest.raises(EmptySupportError):
            make_distribution(FamilySpec(Family.GAUSSIAN_DISCRETIZED,
                                         {"mean": 1e6, "stddev": 1, "low": 1, "high": 10}))


@pytest.mark.parametrize("pmf", [DayDistribution, StoppingDistribution],
                         ids=lambda cls: cls.__name__)
class TestPmfCore:
    """The validation contract that both distribution classes share."""

    @pytest.mark.parametrize("days, masses", [
        ((2, 1), (0.5, 0.5)),
        ((1, 1), (0.5, 0.5)),
        ((0, 1), (0.5, 0.5)),
        ((True, 2), (0.5, 0.5)),
        ((1.0, 2), (0.5, 0.5)),
        ((1, 2), (0.5, math.nan)),
        ((1, 2), (1.1, -0.1)),
        ((1, 2), (1.0 + 5e-13, -5e-13)),  # tiny negatives are rejected, not clipped
        ((1, 2), (1.0, math.inf)),
        ((1, 2), (0.5, 0.6)),
        ((1, 2), (0.5, 0.4)),
        ((1, 2, 3), (0.5, 0.5)),
        ((1, 2**63), (0.5, 0.5)),  # died converting the days to int64 with an OverflowError
    ], ids=["decreasing", "repeated", "day0", "bool_day", "float_day", "nan_mass",
            "negative_mass", "tiny_negative_mass", "inf_mass", "mass_over", "mass_under",
            "length_mismatch", "day_past_int64"])
    def test_rejects(self, pmf, days, masses):
        with pytest.raises(InvalidParamsError):
            pmf(days, masses)
        if days == (True, 2):
            return  # numpy reads it as the valid int64 days [1, 2]; see test_rejects_arrays
        with pytest.raises(InvalidParamsError):
            pmf(np.asarray(days), np.asarray(masses))

    @pytest.mark.parametrize("days, masses", [
        (np.array([1.0, 2.0]), np.array([0.5, 0.5])),
        (np.array([True]), np.array([1.0])),
        (np.array([[1, 2]]), np.array([[0.5, 0.5]])),
        (np.array([1, 2**63], dtype=np.uint64), np.array([0.5, 0.5])),
    ], ids=["float_days", "bool_days", "2d_days", "uint64_past_int64"])
    def test_rejects_arrays(self, pmf, days, masses):
        with pytest.raises(InvalidParamsError):
            pmf(days, masses)

    def test_arrays_and_tuples_agree(self, pmf, rng):
        # zero masses dropped and a drift past the trigger renormalized away
        days = np.sort(rng.choice(np.arange(1, 10**6), size=500, replace=False))
        masses = rng.dirichlet(np.ones(500))
        masses[::7] = 0.0
        masses *= (1.0 + 5e-10) / masses.sum()
        from_arrays = pmf(days, masses)
        assert from_arrays.support == pmf(tuple(days.tolist()), tuple(masses.tolist())).support
        assert len(from_arrays.support) == 500 - 72

    def test_renormalizes_past_trigger_only(self, pmf):
        drifted = pmf((1, 2), (0.5, 0.5 + 5e-10))
        assert abs(sum(m for _, m in drifted.support) - 1.0) < 1e-15
        kept = pmf((1, 2), (0.5, 0.5 + 5e-13))
        assert kept.support == ((1, 0.5), (2, 0.5 + 5e-13))

    def test_zero_masses_dropped(self, pmf):
        days, masses = (1, 2, 4, 9), (0.0, 0.25, 0.0, 0.75)
        for dist in (pmf(days, masses), pmf(np.array(days), np.array(masses))):
            assert dist.support == ((2, 0.25), (9, 0.75))
            assert dist.max_day == 9
            assert dist.cdf(1) == 0.0 and dist.cdf(4) == 0.25 and dist.cdf(9) == 1.0
            assert dist.cdf_at(np.array([0, 2, 8, 10])).tolist() == [0.0, 0.25, 0.25, 1.0]

    @pytest.mark.parametrize("days, masses", [((), ()), ((1, 2), (0.0, 0.0))],
                             ids=["no_days", "all_zero"])
    def test_empty_support(self, pmf, days, masses):
        with pytest.raises(EmptySupportError):
            pmf(days, masses)
        assert issubclass(EmptySupportError, InvalidParamsError)

    def test_from_pairs_merges_repeated_days(self, pmf):
        dist = pmf.from_pairs([(3, 0.25), (1, 0.5), (3.0, 0.25)])
        assert dist.support == ((1, 0.5), (3, 0.5))


class TestSurvivalAndOpt:
    def test_survival_example(self, worked_example):
        assert survival(worked_example, 2) == pytest.approx(0.2, abs=1e-12)
        assert survival(worked_example, 2.0) == survival(worked_example, 2)

    def test_survival_at_one(self, rng):
        for _ in range(20):
            p = random_day_distribution(rng)
            assert survival(p, 1) == pytest.approx(1.0, abs=1e-12)

    def test_survival_uniform(self):
        p = make_distribution(FamilySpec(Family.UNIFORM, {"low": 1, "high": 4}))
        assert survival(p, 3) == pytest.approx(0.5, abs=1e-12)

    def test_survival_nonincreasing(self, rng):
        p = random_day_distribution(rng)
        vals = [survival(p, t) for t in range(1, p.max_day + 3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    # before: 0.0 for NaN, TypeError for None and "a", and P[D >= 1] for True
    @pytest.mark.parametrize("t", [math.nan, math.inf, None, "a", True, 2.5, 0])
    def test_survival_rejects_a_day_that_is_no_positive_integer(self, worked_example, t):
        with pytest.raises(InvalidParamsError):
            survival(worked_example, t)

    def test_expected_opt_example(self, worked_example):
        # direct evaluation of the defining sum
        assert expected_opt(worked_example, 3) == pytest.approx(0.8 * 1 + 3 * 0.2, abs=1e-12)

    def test_expected_opt_one_hot(self):
        low = make_distribution(FamilySpec(Family.ONE_HOT, {"y": 4}))
        high = make_distribution(FamilySpec(Family.ONE_HOT, {"y": 9}))
        assert expected_opt(low, 6) == pytest.approx(4.0)
        assert expected_opt(high, 6) == pytest.approx(6.0)

    def test_expected_opt_bounds(self, rng):
        for _ in range(200):
            p = random_day_distribution(rng)
            b = int(rng.integers(2, 40))
            v = expected_opt(p, b)
            assert 1.0 - 1e-9 <= v <= min(p.mean(), b) + 1e-9

    def test_expected_opt_matches_direct_sum(self, rng):
        for _ in range(50):
            p = random_day_distribution(rng)
            b = int(rng.integers(2, 30))
            direct = sum(q * min(d, b) for d, q in p.support)
            assert expected_opt(p, b) == pytest.approx(direct, abs=1e-12)


class TestDistances:
    def test_w1_point_masses(self):
        p = DayDistribution((3,), (1.0,))
        q = DayDistribution((7,), (1.0,))
        assert wasserstein1(p, q) == pytest.approx(4.0, abs=1e-12)

    def test_w1_zero_iff_equal(self, rng):
        p = random_day_distribution(rng)
        assert wasserstein1(p, p) == 0.0

    def test_w1_cdf_example(self):
        p = DayDistribution((1, 3), (0.5, 0.5))
        q = DayDistribution((2,), (1.0,))
        assert wasserstein1(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_w1_matches_scipy(self, rng):
        # independent reference implementation
        for _ in range(50):
            p = random_day_distribution(rng)
            q = random_day_distribution(rng)
            ref = scipy.stats.wasserstein_distance(p.days, q.days, p.probs, q.probs)
            assert wasserstein1(p, q) == pytest.approx(ref, abs=1e-9)

    def test_w1_matches_per_day_reference(self, rng):
        for _ in range(200):
            p = random_day_distribution(rng, max_day=int(rng.integers(1, 500)), max_atoms=40)
            q = random_day_distribution(rng, max_day=int(rng.integers(1, 500)), max_atoms=40)
            assert wasserstein1(p, q) == pytest.approx(w1_reference(p, q), rel=1e-12, abs=1e-15)

    def test_w1_two_atoms_far_apart(self):
        p = DayDistribution((1, 10**7), (0.5, 0.5))
        q = DayDistribution((1,), (1.0,))
        tracemalloc.start()
        try:
            w1 = wasserstein1(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w1 == pytest.approx(0.5 * (10**7 - 1), rel=1e-12)
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_w1_symmetric(self, rng):
        p = random_day_distribution(rng)
        q = random_day_distribution(rng)
        assert wasserstein1(p, q) == pytest.approx(wasserstein1(q, p), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(dist_strategy(), dist_strategy(), dist_strategy())
    def test_w1_triangle_inequality(self, p, q, r):
        assert wasserstein1(p, r) <= wasserstein1(p, q) + wasserstein1(q, r) + 1e-9

    def test_tv_identical(self, rng):
        p = random_day_distribution(rng)
        assert total_variation(p, p) == 0.0

    def test_tv_disjoint(self):
        p = DayDistribution((1, 2), (0.5, 0.5))
        q = DayDistribution((5, 6), (0.5, 0.5))
        assert total_variation(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_tv_example(self):
        p = DayDistribution((1, 5), (0.8, 0.2))
        q = DayDistribution((1, 5), (0.6, 0.4))
        assert total_variation(p, q) == pytest.approx(0.2, abs=1e-12)

    def test_tv_matches_per_day_loop(self, rng):
        def reference(p, q):  # the loop over the merged support, one prob() per day
            days = np.union1d(p.days, q.days).tolist()
            return 0.5 * sum(abs(p.prob(d) - q.prob(d)) for d in days)

        for max_day in (5, 60, 3000):
            for _ in range(25):
                p = random_day_distribution(rng, max_day=max_day, max_atoms=400)
                q = random_day_distribution(rng, max_day=max_day, max_atoms=400)
                same_days = DayDistribution(p.days, rng.dirichlet(np.ones(len(p.days))))
                disjoint = DayDistribution(tuple(d + max_day for d in q.days), q.probs)
                for a, b in ((p, q), (q, p), (p, p), (p, same_days), (p, disjoint)):
                    assert total_variation(a, b) == reference(a, b)

    @settings(max_examples=50, deadline=None)
    @given(dist_strategy())
    def test_cdf_monotone_ends_at_one(self, p):
        vals = [p.cdf(x) for x in range(0, p.max_day + 2)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


class TestPerturbation:
    def test_zero_budget_identity(self, worked_example):
        assert perturb_wasserstein(worked_example, 0.0, seed=1) is worked_example

    def test_budget_respected_point_mass(self):
        p = DayDistribution((10,), (1.0,))
        for seed in range(5):
            q = perturb_wasserstein(p, 2.0, seed=seed)
            assert wasserstein1(p, q) <= 2.0 + 1e-9

    def test_budget_respected_seed_sweep(self, rng):
        p = random_day_distribution(rng, max_day=40)
        for seed in range(25):
            q = perturb_wasserstein(p, 5.0, seed=seed)
            assert wasserstein1(p, q) <= 5.0 + 1e-9
            assert abs(sum(q.probs) - 1.0) < 1e-9
            assert all(d >= 1 for d in q.days)

    def test_deterministic_given_seed(self, worked_example):
        a = perturb_wasserstein(worked_example, 3.0, seed=42)
        b = perturb_wasserstein(worked_example, 3.0, seed=42)
        assert a.support == b.support

    def test_negative_budget_rejected(self, worked_example):
        with pytest.raises(InvalidParamsError):
            perturb_wasserstein(worked_example, -1.0, seed=0)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.int64(-2)])
    def test_bad_seed_rejected(self, worked_example, eta, seed):
        # -1 died in numpy with a ValueError and 1.5 with a TypeError
        with pytest.raises(InvalidParamsError, match="seed"):
            perturb_wasserstein(worked_example, eta, seed)

    def test_numpy_integer_seed_draws_as_int(self, worked_example):
        assert (perturb_wasserstein(worked_example, 3.0, np.uint64(42)).support
                == perturb_wasserstein(worked_example, 3.0, 42).support)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, True])
    def test_non_finite_budget_rejected(self, worked_example, eta):
        # NaN died in math.ceil with a ValueError, and True was read as 1.0
        with pytest.raises(InvalidParamsError, match="finite"):
            perturb_wasserstein(worked_example, eta, seed=0)

    @pytest.mark.parametrize("eta", [1e19, 4e18, 1e17])
    def test_budget_past_int64_rejected(self, eta):
        # 1e19 died in rng.integers with a numpy ValueError; 4e18 let moved mass
        # move again past 2^63 and died in an int64 conversion with an OverflowError
        p = DayDistribution(tuple(range(1, 151)), tuple([1 / 150] * 150))
        with pytest.raises(InvalidParamsError, match="int64"):
            perturb_wasserstein(p, eta, seed=0)

    def test_matches_rebuilding_loop(self, rng):
        for seed in range(100):
            p = random_day_distribution(rng, max_day=80, max_atoms=20)
            for eta in PERTURB_ETAS:
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed).support
        # at 2^31 + 1 the shift draw rejects about half its words, which the
        # move loop hands to _Draws; past 2^32 it takes whole 64-bit outputs
        for seed in range(30):
            p = random_day_distribution(rng, max_day=80, max_atoms=3)
            for eta in (2**31 + 0.5, 2**32 + 0.5, 5e9, 3e12):
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed).support

    def test_matches_rebuilding_loop_when_atoms_empty(self, rng, monkeypatch):
        # moving drawn slivers whole empties atoms and refills emptied ones; when
        # only some are whole, a partial sliver can also revive an emptied day.
        # The move loop's uniform reads the top 53 bits of one raw output: where
        # ``whole`` holds for them they read 2^53 instead, so the sliver is its
        # whole cap.  Both sides spend one output on each uniform and read
        # numpy's bits for the integers, so they read the same stream.
        class WholeOutput(int):
            def __rshift__(self, bits):
                top = int(self) >> bits
                return 2**53 if bits == 11 and whole(top) else top

        class WholeSliver:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def integers(self, *args):
                return self._rng.integers(*args)

            def uniform(self, low, high):
                u = self._rng.random()  # the draw uniform(low, high) scales
                return high if whole(int(u * 2**53)) else low + (high - low) * u

        monkeypatch.setattr(distributions, "_Draws", draws_reading(WholeOutput))
        for whole in (lambda top: True, lambda top: top & 1):  # every sliver, odd draws
            for seed in range(100):
                p = random_day_distribution(rng, max_day=30, max_atoms=10)
                for eta in PERTURB_ETAS:
                    q = perturb_wasserstein(p, eta, seed)
                    assert q.support == perturb_reference(p, eta, seed, WholeSliver).support

    def test_matches_draw_source_when_words_reject(self, rng, monkeypatch):
        # numpy's stream rejects a word for a bound n with odds below n/2^32, so
        # the move loop hands a draw over to _Draws almost never.  Here a third
        # of the raw outputs have their low half zeroed and a fifth their high
        # half: a zero word is rejected for every n but a power of two.  The
        # loop must then read what a rebuilding loop drawing every value from
        # _Draws (checked against Generator below) reads.
        Rejecting = draws_reading(lambda out: out & ~0xFFFFFFFF if out % 3 == 0
                                  else out & 0xFFFFFFFF if out % 5 == 0 else out)

        class RejectingGenerator:
            def __init__(self, seed):
                self._draws = Rejecting(seed)

            def integers(self, low, high=None):
                return self._draws.below(low) if high is None else low + self._draws.below(high - low)

            def uniform(self, low, high):
                return low + (high - low) * ((self._draws.raw() >> 11) * 2.0**-53)

        monkeypatch.setattr(distributions, "_Draws", Rejecting)
        for seed in range(50):
            p = random_day_distribution(rng, max_day=80, max_atoms=20)
            for eta in (*PERTURB_ETAS, 2**31 + 0.5, 5e9):
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed, RejectingGenerator).support

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 - 1])
    def test_draws_match_generator(self, seed):
        # the perturbation's draw source against numpy's Generator on one seed, in
        # random interleavings long enough to cross raw blocks; integers(1) draws
        # nothing, and 2^31 + 1 and 2^62 + 1 reject about half and a quarter of
        # words.  uniform is the move loop's inline read of one whole output.
        ns = [1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**40 + 7,
              2**62, 2**62 + 1, 2**63 - 1]
        caps = [0.0, 1e-300, 0.37, 1.0, 123.456, 1e300]
        gen, draws = np.random.default_rng(seed), distributions._Draws(seed)
        order = random.Random(seed)
        for _ in range(3000):
            kind, n, cap = order.randrange(4), order.choice(ns), order.choice(caps)
            if kind == 0:
                assert draws.below(n) == gen.integers(n)
            elif kind == 1:
                k = min(n, 2**63 - 2)  # integers' exclusive high must fit in int64
                assert 1 + draws.below(k) == gen.integers(1, k + 1)
            elif kind == 2:
                assert draws.below(2) == gen.integers(2)
            else:
                assert cap * ((draws.raw() >> 11) * 2.0**-53) == gen.uniform(0.0, cap)

    def test_overshoot_is_typed(self, worked_example, monkeypatch):
        monkeypatch.setattr(distributions, "wasserstein1", lambda p, q: 1e9)
        with pytest.raises(InvariantError):
            perturb_wasserstein(worked_example, 3.0, seed=42)


class TestJson:
    def test_atoms_roundtrip(self, worked_example):
        again = parse_distribution(worked_example.to_json())
        assert again.support == worked_example.support

    def test_family_spec_parse(self):
        p = parse_distribution('{"family": "one_hot", "params": {"y": 7}}')
        assert p.support == ((7, 1.0),)

    def test_rejects_nan(self):
        with pytest.raises(InvalidParamsError):
            parse_distribution('{"atoms": [[1, NaN]]}')

    def test_rejects_negative(self):
        with pytest.raises(InvalidParamsError):
            parse_distribution('{"atoms": [[1, -0.5], [2, 1.5]]}')

    @pytest.mark.parametrize("text", [
        '{"atoms": [[1.5, 0.5], [2.7, 0.5]]}',
        '{"atoms": [["3", 1.0]]}',
        '{"family": "custom", "params": {"atoms": [[2.5, 1.0]]}}',
        '{"family": "two_point", "params": {"atoms": [[1, 0.5], [4.2, 0.5]]}}',
    ])
    def test_rejects_non_integral_days(self, text):
        with pytest.raises(InvalidParamsError, match="integer"):
            parse_distribution(text)

    def test_integral_float_days_accepted(self):
        assert parse_distribution('{"atoms": [[3.0, 1.0]]}').support == ((3, 1.0),)

    def test_policy_rejects_non_integral_days(self):
        with pytest.raises(InvalidParamsError, match="integer"):
            parse_policy({"pmf": [[1.5, 0.5], [2.7, 0.5]]})

    @pytest.mark.parametrize("text", [
        '{"family": "nope", "params": {}}',
        '{"family": "uniform", "params": [1, 5]}',
        '{"family": "gaussian_discretized", "params": {"mean": "x", "stddev": 1, "high": 5}}',
    ])
    def test_rejects_bad_family_spec(self, text):
        with pytest.raises(InvalidParamsError):
            parse_distribution(text)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParamsError):
            parse_distribution("not json at all")
        with pytest.raises(InvalidParamsError):
            parse_distribution(json.dumps({"something": 1}))


TWO_ATOMS = DayDistribution((3, 9), (0.5, 0.5))


def _plain(solution):
    """A (policy, value) pair as plain values, which compare with ==."""
    policy, value = solution
    return policy.support, value


#: A call of each integer parameter, at an int value it accepts; each returns
#: plain values, so the results of two forms of the value compare with ==.
INTEGER_PARAMETERS = {
    "b": (lambda b: (case_study_lambda_third(b),
                     _plain(water_fill(build_cost_function(TWO_ATOMS, b), b, 2.0))), 6),
    "seed": (lambda seed: perturb_wasserstein(TWO_ATOMS, 3.0, seed).support, 42),
    "n_trials": (lambda n: run_perturbation_sweep(eta_grid=(0.0, 2.0), n_trials=n,
                                                  seed=1).to_csv(), 2),
    "day": (lambda day: build_cost_function(TWO_ATOMS, 4)(day), 5),
    "y": (lambda y: onehot_exact(10, 2.0, y).support, 7),
    "horizon": (lambda horizon: realized_worst_ratio(
        StoppingDistribution((1, 3), (0.5, 0.5)), 4, horizon), 12),
    "threshold": (lambda t: expected_cost_threshold(TWO_ATOMS, 4, t), 3),
    "N": (lambda n: _plain(lp_solve(LpInstance(objective=(1.0, 2.0, 3.0, 4.0), b=2, R=2.0,
                                               N=n))), 4),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
def test_integer_forms_give_identical_results(name):
    # one integer rule: a numpy integer or an integral float reads as the int
    # (b, seeds and n_trials rejected 6.0, 42.0 and 2.0, and N = 4.0 raised a bare
    # TypeError); bools, fractions, text, None and values below the least are
    # rejected in each parameter's own tests
    call, value = INTEGER_PARAMETERS[name]
    expected = call(value)
    assert call(np.int64(value)) == expected
    assert call(float(value)) == expected
