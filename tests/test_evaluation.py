import hashlib
import json

import numpy as np
import pytest

from skirent import (
    DayDistribution,
    StoppingDistribution,
    build_cost_function,
    case_study_lambda_third,
    consistency,
    expected_cost_threshold,
    optimal_threshold,
    run_consistency_table,
    run_perturbation_sweep,
    sweep_true_distribution,
)
from skirent.errors import InvalidParamsError
from skirent.evaluation import ExperimentResult, ResultRow, gaussian_high_cutoff
from conftest import random_day_distribution


class TestConsistencyMetric:
    def test_point_mass_at_argmin_is_one(self, worked_example):
        t, _ = optimal_threshold(worked_example, 3)
        f = StoppingDistribution((int(t),), (1.0,))
        assert consistency(worked_example, f, 3) == pytest.approx(1.0, abs=1e-12)

    def test_always_at_least_one(self, rng):
        for _ in range(100):
            p = random_day_distribution(rng, max_day=30)
            day = int(rng.integers(1, 40))
            f = StoppingDistribution((day,), (1.0,))
            assert consistency(p, f, 6) >= 1.0 - 1e-9

    def test_threshold_policy_matches_cost_ratio(self, rng):
        # deterministic policies: the metric reduces to the threshold-cost ratio
        for _ in range(50):
            p = random_day_distribution(rng, max_day=30)
            b = int(rng.integers(2, 12))
            t = int(rng.integers(1, 35))
            f = StoppingDistribution((t,), (1.0,))
            _, best = optimal_threshold(p, b)
            expected = expected_cost_threshold(p, b, t) / best
            assert consistency(p, f, b) == pytest.approx(expected, abs=1e-9)


class TestCaseStudy:
    @pytest.mark.parametrize("b,study,comparator", [
        (6, 7.0, 8.0),
        (30, 35.0, 40.0),
        (300, 350.0, 400.0),
    ])
    def test_exact_values(self, b, study, comparator):
        got = case_study_lambda_third(b)
        assert got[0] == pytest.approx(study, abs=1e-9)
        assert got[1] == pytest.approx(comparator, abs=1e-12)

    def test_clamped_policy_beats_comparator(self):
        for b in (6, 12, 60, 300):
            study, comparator = case_study_lambda_third(b)
            assert study < comparator

    def test_rejects_misaligned_b(self):
        with pytest.raises(InvalidParamsError):
            case_study_lambda_third(8)


class TestExperimentResult:
    def test_rows_sorted_and_validated(self):
        rows = (
            ResultRow("b_fam", "pol", 2.0, 1, 1.2, 3.0),
            ResultRow("a_fam", "pol", 0.0, 0, 1.1, 2.0),
        )
        res = ExperimentResult(rows=rows, metadata={})
        assert res.rows[0].family == "a_fam"

    def test_consistency_below_one_rejected(self):
        with pytest.raises(InvalidParamsError):
            ExperimentResult(rows=(ResultRow("f", "p", 0.0, 0, 0.5, 1.0),), metadata={})

    def test_csv_format(self):
        res = ExperimentResult(
            rows=(ResultRow("fam", "pol", 0.0, 0, 1.23456789, 61.7283945),),
            metadata={})
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == "family,policy,eta,trial,consistency,objective"
        assert lines[1] == "fam,pol,0,0,1.23457,61.7284"   # six significant digits

    def test_json_mirror_has_metadata(self):
        res = ExperimentResult(rows=(ResultRow("f", "p", 0.0, 0, 1.5, 2.0),),
                               metadata={"b": 50})
        obj = json.loads(res.to_json())
        assert obj["metadata"]["b"] == 50
        assert obj["rows"][0]["consistency"] == 1.5

    @pytest.mark.parametrize("R", [np.int64(2), np.float64(1.7)], ids=["int64_r", "float64_r"])
    @pytest.mark.parametrize("run", [
        run_consistency_table,
        lambda **kw: run_perturbation_sweep(eta_grid=(0.0,), n_trials=1, **kw)],
        ids=["table", "sweep"])
    def test_numpy_inputs_serialise_as_python_inputs(self, run, R):
        # metadata kept a numpy b or R raw, and to_json raised "Object of type
        # int64 is not JSON serializable"
        got = json.loads(run(b=np.int64(50), R=R).to_json())["metadata"]
        want = json.loads(run(b=50, R=R.item()).to_json())["metadata"]
        assert json.dumps(got) == json.dumps(want)
        assert type(got["b"]) is int and type(got["R"]) is type(R.item())
        assert ('"R": 2,' in json.dumps(got)) == isinstance(R, np.integer)


@pytest.fixture(scope="module")
def table():
    return run_consistency_table()


@pytest.fixture(scope="module")
def small_sweep():
    return run_perturbation_sweep(eta_grid=(0.0, 4.0), n_trials=3, seed=11)


class TestConsistencyTable:
    def test_fifteen_rows(self, table):
        assert len(table.rows) == 15

    def test_ours_never_worse_than_baselines(self, table):
        for family in {r.family for r in table.rows}:
            vals = {r.policy: r.consistency for r in table.rows if r.family == family}
            assert vals["water_fill"] <= vals["majority"] + 1e-9
            assert vals["water_fill"] <= vals["mixture"] + 1e-9

    def test_reproducible(self, table):
        again = run_consistency_table()
        assert [r.consistency for r in again.rows] == [r.consistency for r in table.rows]


# The published results, pinned: the consistency table as its CSV (six significant
# digits), and the seed-0 sweep with two trials per budget by the digest of its CSV.
PUBLISHED_TABLE_CSV = """\
family,policy,eta,trial,consistency,objective
gauss,majority,0,0,1.4195,70.975
gauss,mixture,0,0,1.41685,70.8426
gauss,water_fill,0,0,1.33752,66.8762
geom,majority,0,0,1.41142,28.2285
geom,mixture,0,0,1.4183,28.3659
geom,water_fill,0,0,1.26812,25.3624
twopoint,majority,0,0,1.24479,56.0155
twopoint,mixture,0,0,1.25471,56.4619
twopoint,water_fill,0,0,1.04152,46.8682
unif100,majority,0,0,1.17816,58.9081
unif100,mixture,0,0,1.18656,59.328
unif100,water_fill,0,0,1.16316,58.1578
unif200,majority,0,0,1.34919,67.4593
unif200,mixture,0,0,1.36428,68.2138
unif200,water_fill,0,0,1.33306,66.6532
"""
PUBLISHED_SWEEP_SHA256 = "332b9bdc73a90baa13c36d8e5c197411cd60e9f7cf6e5cea44e84f2969b6ca68"


class TestPublishedOutputs:
    def test_table_csv(self, table):
        assert table.to_csv() == PUBLISHED_TABLE_CSV

    def test_sweep_digest(self):
        csv = run_perturbation_sweep(n_trials=2, seed=0).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == PUBLISHED_SWEEP_SHA256

    def test_sweep_digest_from_integral_floats(self):
        # seed and n_trials follow the integer rule days follow: 0.0 and 2.0 are 0 and 2
        csv = run_perturbation_sweep(n_trials=2.0, seed=0.0).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == PUBLISHED_SWEEP_SHA256


class TestPerturbationSweep:
    def test_row_count(self, small_sweep):
        assert len(small_sweep.rows) == 2 * 3 * 3

    def test_zero_eta_equals_unperturbed(self, small_sweep):
        p = sweep_true_distribution()
        from skirent import water_fill
        ours, _ = water_fill(build_cost_function(p, 50), 50, 1.7, exact=False)
        _, best = optimal_threshold(p, 50)
        from skirent import expected_policy_cost
        expected = expected_policy_cost(ours, build_cost_function(p, 50)) / best
        for row in small_sweep.rows:
            if row.eta == 0.0 and row.policy == "water_fill":
                assert row.consistency == pytest.approx(expected, abs=1e-12)

    def test_bit_reproducible(self, small_sweep):
        again = run_perturbation_sweep(eta_grid=(0.0, 4.0), n_trials=3, seed=11)
        assert again.to_csv() == small_sweep.to_csv()

    @pytest.mark.parametrize("policy, eta", [("nope", None), ("water_fill", 2.0)],
                             ids=["unknown_policy", "eta_off_the_grid"])
    def test_mean_over_no_rows_is_rejected(self, small_sweep, policy, eta):
        with pytest.raises(InvalidParamsError, match="no rows for policy") as raised:
            small_sweep.mean_consistency(policy, eta)
        assert raised.type is InvalidParamsError

    def test_seed_changes_results(self, small_sweep):
        other = run_perturbation_sweep(eta_grid=(0.0, 4.0), n_trials=3, seed=12)
        assert other.to_csv() != small_sweep.to_csv()

    @pytest.mark.parametrize("kwargs", [
        {"eta_grid": [float("nan")]}, {"eta_grid": [0.0, float("inf")]}, {"eta_grid": ["2"]},
        {"eta_grid": []}, {"eta_grid": [2.0, 4.0, 2]}, {"eta_grid": [True]}, {"epsilon": 1e-30},
        {"n_trials": 0}, {"n_trials": -1}, {"n_trials": 1.5}, {"n_trials": True},
        {"n_trials": "3"}, {"n_trials": None},
        {"R": float("nan")}, {"R": float("inf")},
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": None}],
        ids=["eta_nan", "eta_inf", "eta_text", "eta_empty", "eta_repeated", "eta_bool",
             "epsilon_below_spacing", "trials_zero", "trials_negative",
             "trials_fraction", "trials_bool", "trials_text", "trials_none", "r_nan", "r_inf",
             "seed_negative", "seed_fraction", "seed_bool", "seed_text", "seed_none"])
    def test_bad_inputs_rejected(self, kwargs):
        # a NaN eta died in perturb_wasserstein with a ValueError, n_trials = 0
        # and an empty grid returned no rows, a repeated eta repeated row keys,
        # epsilon 1e-30 never ended its bisection, and seed -1 died in
        # SeedSequence with a ValueError
        with pytest.raises(InvalidParamsError):
            run_perturbation_sweep(**{"eta_grid": (0.0,), "n_trials": 1, **kwargs})

    def test_true_distribution_covers_essentially_all_mass(self):
        cutoff = gaussian_high_cutoff(90, 12)
        p = sweep_true_distribution()
        assert p.max_day <= cutoff
        # the next-larger truncation changes nothing beyond 1e-9 of mass
        assert 90 + 5 * 12 < cutoff < 90 + 8 * 12
