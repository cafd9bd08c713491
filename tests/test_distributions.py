import bisect
import hashlib
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
    BaselineKind,
    DayDistribution,
    EmptySupportError,
    Family,
    FamilySpec,
    InvalidParamsError,
    InvariantError,
    StoppingDistribution,
    baseline_policy,
    build_cost_function,
    case_study_lambda_third,
    check_robustness,
    clamp_threshold,
    expected_cost_threshold,
    expected_opt,
    extension_condition_check,
    feasible_robustness,
    geometric_cdf,
    level_feasible,
    make_distribution,
    minimal_water_level,
    onehot_exact,
    parse_distribution,
    perturb_wasserstein,
    purohit_branch,
    r_from_lambda,
    realized_worst_ratio,
    robust_consistent_bound,
    run_perturbation_sweep,
    sufficient_condition_check,
    survival,
    total_variation,
    wasserstein1,
    water_fill,
)
import skirent.baselines as baselines
import skirent.distributions as distributions
from skirent.evaluation import sweep_true_distribution
from skirent.oracle import LpInstance, lp_instance_from_cost, lp_solve, perturb_reference
from skirent.randomized import parse_policy
from conftest import random_day_distribution


def w1_reference(p: DayDistribution, q: DayDistribution) -> float:
    """W1 summed day by day over 1..max day."""
    xs = np.arange(1, max(p.max_day, q.max_day) + 1)
    return float(np.abs(p.cdf_at(xs) - q.cdf_at(xs)).sum())


PERTURB_ETAS = (0.5, 2.0, 8.0, 20.0, 60.0)


def draws_reading(transform):
    """The perturbation's draw source, reading ``transform`` of each block of numpy's raw
    outputs, a uint64 array, where it reads a block."""
    class Draws(distributions._Draws):
        def _block(self):
            return transform(super()._block())

    return Draws


def zero_halves(outs):
    """A third of the raw outputs with the low half zeroed, a fifth with the high half."""
    return np.where(outs % 3 == 0, outs >> 32 << 32,
                    np.where(outs % 5 == 0, outs & 0xFFFFFFFF, outs))


#: A stream on which Lemire's method rejects a word for every n but a power of two
#: (a zero word) far more often than numpy's: a perturbation then redraws all the time.
Rejecting = draws_reading(zero_halves)


class RejectingGenerator:
    """The ``integers`` and ``uniform`` of numpy's Generator, drawn through a ``Rejecting``
    draw source one value at a time (checked against Generator below)."""

    def __init__(self, seed):
        self._draws = Rejecting(seed)

    def integers(self, low, high=None):
        return self._draws.below(low) if high is None else low + self._draws.below(high - low)

    def uniform(self, low, high):
        return low + (high - low) * self._draws.unit()


def fixed_uniforms(value, pick):
    """A draw source and a Generator stand-in whose uniform(0, 1) reads ``value`` where
    ``pick`` holds for the top 53 bits of its raw output, and numpy's draw elsewhere.
    A uniform reads those bits of one raw output, where ``_Draws._unit`` scales
    them; both sides spend one output on each uniform and read numpy's bits for
    the integers, so they read the same stream."""
    class Draws(distributions._Draws):
        @staticmethod
        def _unit(out):
            top = out >> 11
            if isinstance(out, np.ndarray):  # a decoded batch's uniforms
                return np.where(pick(top), value, top * 2.0**-53)
            return value if pick(top) else top * 2.0**-53

    class Generator:
        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)

        def integers(self, *args):
            return self._rng.integers(*args)

        def uniform(self, low, high):
            u = self._rng.random()  # the draw uniform(low, high) scales
            return low + (high - low) * (value if pick(int(u * 2**53)) else u)

    return Draws, Generator


class IndexedDraws(distributions._Draws):
    """A draw source whose raw output i is ((2i + 1) << 32) | 2i: each 32-bit word
    holds its own offset, and each output twice its own."""

    def __init__(self):
        self._read = 0
        super().__init__(0)

    def _block(self):
        i = np.arange(self._read, self._read + distributions._BLOCK, dtype=np.uint64)
        self._read += distributions._BLOCK
        return (2 * i + 1) << np.uint64(32) | 2 * i


def wide_prediction(rng, atoms: int) -> DayDistribution:
    """``atoms`` atoms on days 1 to 2 * ``atoms``, day 1 among them: 10 moves an atom
    read several blocks of raw outputs, and moves from day 1 back draw no uniform."""
    days = np.append(1, np.sort(rng.choice(np.arange(2, 2 * atoms + 1), atoms - 1, replace=False)))
    return DayDistribution(days, rng.dirichlet(np.ones(atoms)))


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
        ((1, 2), (1.0, -math.inf)),
        ((1, 2), (1e308, 1e308)),  # finite masses whose float sum overflows
        ((1, 2), (0.5, 0.6)),
        ((1, 2), (0.5, 0.4)),
        ((1, 2, 3), (0.5, 0.5)),
        ((1, 2**63), (0.5, 0.5)),  # died converting the days to int64 with an OverflowError
        ((1, 2), (True, 0.0)),  # read as the masses 1.0 and 0.0
        ((1, 2), ("0.5", "0.5")),  # read as the masses 0.5 and 0.5
        ((1, -2**63, -1, 2), (0.25,) * 4),  # the step 1 -> -2^63 wraps to + in int64
    ], ids=["decreasing", "repeated", "day0", "bool_day", "float_day", "nan_mass",
            "negative_mass", "tiny_negative_mass", "inf_mass", "minus_inf_mass",
            "sum_overflows", "mass_over", "mass_under", "length_mismatch", "day_past_int64",
            "bool_mass", "text_masses", "wrapping_day_step"])
    def test_rejects(self, pmf, days, masses):
        with pytest.raises(InvalidParamsError) as err:
            pmf(days, masses)
        assert err.type is InvalidParamsError
        if bool in map(type, days + masses):
            return  # numpy reads True as a valid day 1 or mass 1.0; see test_rejects_arrays
        with pytest.raises(InvalidParamsError) as err:
            pmf(np.asarray(days), np.asarray(masses))
        assert err.type is InvalidParamsError

    @pytest.mark.parametrize("days, masses", [
        (np.array([1.0, 2.0]), np.array([0.5, 0.5])),
        (np.array([True]), np.array([1.0])),
        (np.array([[1, 2]]), np.array([[0.5, 0.5]])),
        (np.array([1, 2**63], dtype=np.uint64), np.array([0.5, 0.5])),
        (np.array([1, 2]), np.array([True, False])),
        (np.array([1]), np.array(["1"])),
        (np.array([1]), np.array([1.0], dtype=object)),
    ], ids=["float_days", "bool_days", "2d_days", "uint64_past_int64", "bool_masses",
            "text_masses", "object_masses"])
    def test_rejects_arrays(self, pmf, days, masses):
        with pytest.raises(InvalidParamsError) as err:
            pmf(days, masses)
        assert err.type is InvalidParamsError

    def test_input_arrays_stay_writeable_and_unaliased(self, pmf):
        for masses in ([0.25, 0.25, 0.5], [0.25, 0.0, 0.75], [0.25, 0.25, 0.5 + 5e-10]):
            day_arr, mass_arr = np.array([1, 3, 4]), np.array(masses)
            dist = pmf(day_arr, mass_arr)
            assert day_arr.flags.writeable and mass_arr.flags.writeable
            assert not np.shares_memory(dist._days_arr, day_arr)
            assert not np.shares_memory(dist._mass_arr, mass_arr)
            support = dist.support
            day_arr[0], mass_arr[0] = 2, 7.0
            assert dist.support == support

    def test_keeps_frozen_owned_arrays(self, pmf):
        # the one storage rule of pmfs and cost columns: nothing to copy
        days, masses = np.array([1, 3, 4]), np.array([0.25, 0.25, 0.5])
        days.flags.writeable = masses.flags.writeable = False
        dist = pmf(days, masses)
        assert dist._days_arr is days and dist._mass_arr is masses

    def test_copies_writable_arrays_views_and_other_dtypes(self, pmf):
        day_base, mass_base = np.array([1, 3, 4, 9]), np.array([0.25, 0.25, 0.5, 0.0])
        day_view, mass_view = day_base[:3], mass_base[:3]
        day_view.flags.writeable = mass_view.flags.writeable = False  # frozen, but views
        day_32, mass_32 = np.array([1, 3, 4], dtype=np.int32), np.array([0.25, 0.25, 0.5],
                                                                         dtype=np.float32)
        day_32.flags.writeable = mass_32.flags.writeable = False  # frozen, owned, other dtypes
        writable = np.array([1, 3, 4]), np.array([0.25, 0.25, 0.5])
        for days, masses in (writable, (day_view, mass_view), (day_32, mass_32)):
            dist = pmf(days, masses)
            for stored, given, dtype in ((dist._days_arr, days, np.int64),
                                         (dist._mass_arr, masses, np.float64)):
                assert stored.dtype == dtype and stored.base is None
                assert not stored.flags.writeable and not np.shares_memory(stored, given)
            assert dist.support == ((1, 0.25), (3, 0.25), (4, 0.5))
        assert all(a.flags.writeable for a in (*writable, day_base, mass_base))

    def test_renormalizes_a_kept_input_out_of_place(self, pmf):
        days, masses = np.array([1, 2]), np.array([0.5, 0.5 + 5e-10])
        days.flags.writeable = masses.flags.writeable = False
        dist = pmf(days, masses)
        assert masses.tolist() == [0.5, 0.5 + 5e-10]
        assert dist._days_arr is days and dist._mass_arr is not masses
        assert abs(float(dist._mass_arr.sum()) - 1.0) < 1e-15

    def test_drops_zero_masses_of_a_kept_input(self, pmf):
        days, masses = np.array([1, 2, 4, 9]), np.array([0.0, 0.25, 0.0, 0.75])
        days.flags.writeable = masses.flags.writeable = False
        dist = pmf(days, masses)
        assert dist.support == ((2, 0.25), (9, 0.75))
        assert days.tolist() == [1, 2, 4, 9] and masses.tolist() == [0.0, 0.25, 0.0, 0.75]

    def test_running_sums_match_appended_cumsum(self, pmf, rng):
        # bit for bit np.cumsum(np.append(0.0, x)), the form they were built with; a
        # prediction keeps its rent sum alone, a policy its CDF and first moment
        days = np.sort(rng.choice(np.arange(1, 10**6), size=300, replace=False))
        masses = rng.dirichlet(np.ones(300))
        masses[::5] = 0.0
        dist = pmf(days, masses / masses.sum())
        x, d = dist._mass_arr, dist._days_arr
        sums = {"_cum": x, "_cum_moment": x * (d - 1), "_day_weighted_cum": x * d}
        found = [name for name in sums if hasattr(dist, name)]
        assert found == (["_day_weighted_cum"] if pmf is DayDistribution
                         else ["_cum", "_cum_moment"])
        for name in found:
            assert getattr(dist, name).tobytes() == np.cumsum(np.append(0.0, sums[name])).tobytes()

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
        for args in ((days, masses), (np.array(days, dtype=int), np.array(masses))):
            with pytest.raises(EmptySupportError):
                pmf(*args)
        assert issubclass(EmptySupportError, InvalidParamsError)

    def test_from_pairs_merges_repeated_days(self, pmf):
        dist = pmf.from_pairs([(3, 0.25), (1, 0.5), (3.0, 0.25)])
        assert dist.support == ((1, 0.5), (3, 0.5))


def test_library_builders_hand_their_pmfs_frozen_arrays(monkeypatch):
    # each builder freezes the days and masses it built, so the pmf keeps them
    # instead of copying them: the fill, a branch (the majority baseline), the
    # mixture, the exact refine's vertex and the perturbation
    kept = []
    frozen = distributions._frozen

    def recording(values, dtype):
        stored = frozen(values, dtype)
        kept.append(stored is values)
        return stored

    def refined_vertex():
        rng = np.random.default_rng(50)
        while len(kept) <= 2:  # the fill's two arrays, then the vertex's
            n = int(rng.integers(2, 13))
            days = np.sort(rng.choice(np.arange(1, 201), size=n, replace=False))
            g = build_cost_function(DayDistribution(days, rng.dirichlet(np.ones(n))), 50)
            del kept[:]
            water_fill(g, 50, 2.0)

    p_hat = make_distribution(FamilySpec(Family.UNIFORM, {"low": 20, "high": 140}))
    g = build_cost_function(p_hat, 50)
    builders = {
        "geometric": lambda: geometric_cdf(50, 2.0),
        "published fill": lambda: water_fill(g, 50, 2.0, exact=False),
        "exact refine": refined_vertex,
        "branch": lambda: baselines._Branch(50, 37).policy,
        "mixture": lambda: baseline_policy(p_hat, 50, 2.0, BaselineKind.MIXTURE),
        "perturbation": lambda: perturb_wasserstein(p_hat, 3.0, 0),
    }
    monkeypatch.setattr(distributions, "_frozen", recording)
    for name, build in builders.items():
        del kept[:]
        build()
        assert kept and all(kept), (name, kept)


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

    def test_reads_match_appended_cumsum(self, rng):
        # a prediction keeps no CDF: each read forms it, bit for bit the stored one
        days = np.sort(rng.choice(np.arange(3, 10**6), size=300, replace=False))
        p = DayDistribution(days, rng.dirichlet(np.ones(300)))
        cum = np.cumsum(np.append(0.0, p._mass_arr))
        rent = np.cumsum(np.append(0.0, p._mass_arr * p._days_arr))
        d = p._days_arr.tolist()
        between = [x + 1 for x, y in zip(d, d[1:]) if y > x + 1]
        probes = [0, 1, d[0] - 1, *d, *between, d[-1] + 1, 10**12, 2**64]
        assert len(between) > 250

        def bits(value) -> bytes:
            return np.float64(value).tobytes()

        for x in probes:
            assert bits(p.cdf(x)) == bits(cum[bisect.bisect_right(d, x)]), x
        below = np.array(probes[:-1])  # 2^64 is past int64
        assert p.cdf_at(below).tobytes() == cum[np.searchsorted(d, below, "right")].tobytes()
        assert bits(p.cdf_at(np.array([2**64], dtype=object))[0]) == bits(cum[-1])
        for t in probes[1:]:
            tail = min(1.0, max(0.0, 1.0 - cum[bisect.bisect_right(d, t - 1)]))
            assert bits(survival(p, t)) == bits(tail), t
            if t < 2:
                continue
            opt = rent[bisect.bisect_left(d, t)] + t * tail if t < 2**63 else None
            if opt is not None:
                assert bits(expected_opt(p, t)) == bits(opt), t

    def test_construction_keeps_one_running_sum(self):
        # a stored CDF made it 2 atom arrays kept beyond the inputs, and a peak of 3
        n = 10**5
        days, masses = np.arange(1, n + 1), np.full(n, 1.0 / n)
        days.flags.writeable = masses.flags.writeable = False
        tracemalloc.start()
        try:
            p = DayDistribution(days, masses)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p._days_arr is days and p._mass_arr is masses
        atom = 8 * (n + 1)
        assert kept < 1.5 * atom and peak < 2.5 * atom

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
        # at 2^31 + 1 the shift draw rejects about half its words, so its moves are
        # read a draw at a time; past 2^32 the shift takes whole 64-bit outputs
        for seed in range(30):
            p = random_day_distribution(rng, max_day=80, max_atoms=3)
            for eta in (2**31 + 0.5, 2**32 + 0.5, 5e9, 3e12):
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed).support

    @pytest.mark.parametrize("stream", ["numpy", "rejecting"])
    def test_matches_rebuilding_loop_across_blocks(self, rng, monkeypatch, stream):
        # 300 and more atoms make 3,000 and more moves, so batches cross blocks of raw
        # outputs; on the rejecting stream, moves redone a draw at a time land on
        # block edges too
        make_rng = np.random.default_rng
        if stream == "rejecting":
            monkeypatch.setattr(distributions, "_Draws", Rejecting)
            make_rng = RejectingGenerator
        for seed, atoms in enumerate((300, 340)):
            p = wide_prediction(rng, atoms)
            for eta in (0.5, 8.0, 60.0, 2**31 + 0.5):
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed, make_rng).support

    def test_sweep_perturbations_digest(self):
        # the sweep CSV prints 6 significant digits; this pins every bit of the
        # perturbed predictions at the ten nonzero sweep budgets
        p = sweep_true_distribution()
        digest = hashlib.sha256()
        for eta in range(2, 21, 2):
            for seed in range(5):
                digest.update((repr(perturb_wasserstein(p, eta, seed).support) + "\n").encode())
        assert digest.hexdigest() == (
            "c4bc4e995cd79d86870a288a60e76012cadc38acb6fbd54de84f99471c58eaf7")

    def test_matches_rebuilding_loop_when_atoms_empty(self, rng, monkeypatch):
        # moving drawn slivers whole empties atoms and refills emptied ones; when
        # only some are whole, a partial sliver can also revive an emptied day.
        # A uniform that reads 1.0 makes the sliver its whole cap
        for whole in (lambda top: True, lambda top: top & 1):  # every sliver, odd draws
            draws, generator = fixed_uniforms(1.0, whole)
            monkeypatch.setattr(distributions, "_Draws", draws)
            for seed in range(100):
                p = random_day_distribution(rng, max_day=30, max_atoms=10)
                for eta in PERTURB_ETAS:
                    q = perturb_wasserstein(p, eta, seed)
                    assert q.support == perturb_reference(p, eta, seed, generator).support

    def test_matches_rebuilding_loop_when_slivers_are_empty(self, rng, monkeypatch):
        # a uniform reads 0.0 with odds 2^-53, and its sliver moves nothing: neither
        # loop may then list the destination as an atom, which later moves would draw
        draws, generator = fixed_uniforms(0.0, lambda top: top & 1)
        monkeypatch.setattr(distributions, "_Draws", draws)
        for seed in range(100):
            p = random_day_distribution(rng, max_day=30, max_atoms=10)
            for eta in PERTURB_ETAS:
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed, generator).support

    def test_matches_draw_source_when_words_reject(self, rng, monkeypatch):
        # numpy's stream rejects a word for a bound n with odds below n/2^32, so
        # a move is redrawn a draw at a time almost never.  On the Rejecting
        # stream a zero word is common, and the loop must read what a rebuilding
        # loop drawing every value from _Draws (checked against Generator below) reads.
        monkeypatch.setattr(distributions, "_Draws", Rejecting)
        for seed in range(50):
            p = random_day_distribution(rng, max_day=80, max_atoms=20)
            for eta in (*PERTURB_ETAS, 2**31 + 0.5, 5e9):
                q = perturb_wasserstein(p, eta, seed)
                assert q.support == perturb_reference(p, eta, seed, RejectingGenerator).support

    @pytest.mark.parametrize("kept", [False, True])
    @pytest.mark.parametrize("shift_bits,rejecting", [(0, False), (32, False), (32, True),
                                                      (64, False)])
    def test_layout_reads_where_draws_do(self, shift_bits, rejecting, kept):
        # a batch gathers its moves' draws where _Draws reads them one at a time: the
        # source, shift and sign words through _word, a shift past every word that
        # ``taken`` rejects, a wider shift's and the uniform's outputs through raw
        size = 300
        order = random.Random(shift_bits + rejecting + 2 * kept)
        taken = [order.random() < 0.5 for _ in range(2 * size)] + [True] if rejecting else None
        layout = distributions._layout(shift_bits, kept, size, taken)
        draws = IndexedDraws()
        draws.half = 2**32 - 1 if kept else None
        offset = {2**32 - 1: -1, None: -2}  # of the half kept at the start, and of none

        def output():
            return (draws.raw() & 0xFFFFFFFF) // 2

        words, outputs = [], []
        for start, half in zip(layout.starts, layout.halves):
            assert (draws._pos, offset.get(draws.half, draws.half)) == (start, half)
            if len(words) == len(layout.ends):
                break
            src = draws._word(2)
            src = offset.get(src, src)
            shift = []
            if shift_bits == 32:
                shift = [draws._word(2)]
                while rejecting and not taken[shift[0]]:
                    shift = [draws._word(2)]
            wide = [output()] if shift_bits == 64 else []
            words.append([src, draws._word(2), *shift])
            outputs.append([output(), *wide])
        assert len(words) > size // 4
        assert (layout.words.tolist(), layout.outputs.tolist()) == (words, outputs)
        assert layout.ends == [units[0] + 1 for units in outputs]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 - 1])
    def test_draws_match_generator(self, seed):
        # the perturbation's draw source against numpy's Generator on one seed, in
        # random interleavings long enough to cross raw blocks; integers(1) draws
        # nothing, and 2^31 + 1 and 2^62 + 1 reject about half and a quarter of
        # words.  uniform is _Draws.unit, one whole output scaled.
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
                assert cap * draws.unit() == gen.uniform(0.0, cap)

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

    @pytest.mark.parametrize("text, match", [
        *(pytest.param(text, match, id=text) for text, match in [
            ('{"family": "nope", "params": {}}', "unknown family 'nope'"),
            ('{"family": "uniform", "params": [1, 5]}', "family params must be an object"),
            ('{"family": "gaussian_discretized", "params": {"mean": "x", "stddev": 1, '
             '"high": 5}}', "parameter 'mean' must be a finite number")]),
        pytest.param('{"family": "uniform", "params": {"low": 2}}', "missing parameter 'high'",
                     id="range_without_high"),
        pytest.param('{"family": "custom", "params": {"atoms": {"3": 1.0}}}', "non-empty list",
                     id="atoms_not_a_list"),
        pytest.param('{"family": "custom", "params": {"atoms": []}}', "non-empty list",
                     id="atoms_empty"),
        pytest.param('{"family": "custom", "params": {"atoms": [[3, 0.5], [4, 0.5, 1]]}}',
                     "pair", id="entry_of_three"),
        pytest.param('{"family": "custom", "params": {"atoms": [3]}}', "pair",
                     id="entry_not_a_pair"),
        pytest.param('{"family": "two_point", "params": {"atoms": [[3, 1.0]]}}',
                     "exactly two atoms", id="two_point_of_one"),
        pytest.param('{"family": "two_point", "params": {"atoms": [[1, 0.2], [2, 0.3], '
                     '[3, 0.5]]}}', "exactly two atoms", id="two_point_of_three"),
        pytest.param('[[3, 1.0]]', "must be an object", id="not_an_object")])
    def test_rejects_bad_family_spec(self, text, match):
        with pytest.raises(InvalidParamsError, match=match) as raised:
            parse_distribution(text)
        assert raised.type is InvalidParamsError

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


COSTS = build_cost_function(TWO_ATOMS, 6)

#: A call of each real parameter, at a value it accepts; each returns plain values
#: or frozen dataclasses, so the results of two forms of the value compare with ==.
REAL_PARAMETERS = {
    "R water_fill": (lambda R: _plain(water_fill(COSTS, 6, R)), 2),
    "R level_feasible": (lambda R: level_feasible(COSTS, 6, R, 3.0), 2),
    "R minimal_water_level": (lambda R: minimal_water_level(COSTS, 6, R, 1e-3), 2),
    "R check_robustness": (lambda R: check_robustness(
        StoppingDistribution((1, 3), (0.5, 0.5)), 4, R).worst(), 2),
    "R feasible_robustness": (lambda R: feasible_robustness(50, R), 2),
    "R geometric_cdf": (lambda R: geometric_cdf(10, R).support, 2),
    "R onehot_exact": (lambda R: onehot_exact(10, R, 7).support, 2),
    "R extension_condition_check": (lambda R: extension_condition_check(COSTS, 6, R, 20), 2),
    "R baseline_policy": (lambda R: baseline_policy(TWO_ATOMS, 6, R, BaselineKind.MIXTURE)
                          .support, 3),
    "R LpInstance": (lambda R: _plain(lp_solve(LpInstance(objective=(1.0, 2.0, 3.0, 4.0), b=2,
                                                          R=R, N=4))), 2),
    "R lp_instance_from_cost": (lambda R: lp_instance_from_cost(COSTS, 6, R), 2),
    "epsilon minimal_water_level": (lambda eps: minimal_water_level(COSTS, 6, 2.0, eps), 1),
    "eta perturb_wasserstein": (lambda eta: perturb_wasserstein(TWO_ATOMS, eta, 42).support, 3),
    "eta sweep grid": (lambda eta: run_perturbation_sweep(eta_grid=(0.0, eta), n_trials=1,
                                                          seed=1).to_csv(), 2),
    "eta robust_consistent_bound": (lambda eta: robust_consistent_bound(TWO_ATOMS, 6, 0.5, eta),
                                    1),
    "lambda clamp_threshold": (lambda lam: clamp_threshold(5, 10, lam), 0.5),
    "lambda purohit_branch": (lambda lam: purohit_branch(6, lam, True).support, 1),
    "lambda r_from_lambda": (lambda lam: r_from_lambda(6, lam), 1),
    "C": (lambda C: sufficient_condition_check(TWO_ATOMS, 6, 4, C), 2),
    "mean": (lambda mean: make_distribution(FamilySpec(
        Family.GAUSSIAN_DISCRETIZED, {"mean": mean, "stddev": 3, "high": 20})).support, 10),
    "stddev": (lambda sd: make_distribution(FamilySpec(
        Family.GAUSSIAN_DISCRETIZED, {"mean": 10, "stddev": sd, "high": 20})).support, 3),
    "rate": (lambda rate: make_distribution(FamilySpec(
        Family.GEOMETRIC_TRUNCATED, {"rate": rate, "high": 20})).support, 0.5),
    "mass of an atom": (lambda m: parse_distribution({"atoms": [[3, m]]}).support, 1),
    "masses of a pmf": (lambda m: StoppingDistribution((3,), (m,)).support, 1),
}


@pytest.mark.parametrize("name", REAL_PARAMETERS)
def test_real_forms_give_identical_results(name):
    # one real rule: an int and a numpy number read as the float
    call, value = REAL_PARAMETERS[name]
    expected = call(float(value))
    assert call(np.float64(value)) == expected
    if float(value).is_integer():
        assert call(int(value)) == expected


@pytest.mark.parametrize("name", REAL_PARAMETERS)
@pytest.mark.parametrize("bad", [True, np.True_, "1.7", None, math.nan, math.inf, -math.inf,
                                 10**400],
                         ids=["true", "np_true", "text", "none", "nan", "inf", "minus_inf",
                              "int_past_float_range"])
def test_bad_real_forms_rejected(name, bad):
    # atom masses and family parameters read True and "50" as numbers, a pmf read
    # a mass "1" as 1.0, and feasible_robustness raised a bare TypeError on "2";
    # an int past float range reads as an infinity
    call, _ = REAL_PARAMETERS[name]
    with pytest.raises(InvalidParamsError, match="finite number"):
        call(bad)
