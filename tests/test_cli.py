import json

import numpy as np
import pytest

import skirent.randomized as randomized
from skirent import RobustnessReport, parse_distribution
from skirent.cli import main
from skirent.randomized import parse_policy

TWO_ATOM = '{"atoms": [[1, 0.8], [5, 0.2]]}'
TWOPOINT = '{"family": "two_point", "params": {"atoms": [[30, 0.7], [120, 0.3]]}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholdCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--dist", TWO_ATOM, "--b", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_star"] == 2
        assert payload["cost"] == pytest.approx(1.6)

    def test_missing_b_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--dist", TWO_ATOM)
        assert code == 2
        assert "--b" in err

    def test_bound_report_included(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--dist", TWO_ATOM,
                               "--b", "50", "--lambda", "0.3333")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_report"]["robust_term"] == pytest.approx(
            1 + 1 / 0.3333 - 1 / 50, abs=1e-9)

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestClampCommand:
    def test_never(self, capsys):
        code, out, _ = run_cli(capsys, "clamp", "--t-hat", "never", "--b", "50",
                               "--lambda", "0.333333")
        assert code == 0
        assert json.loads(out)["clamped_t"] == 150


class TestWaterfillCommand:
    def test_reference_instance(self, capsys):
        code, out, _ = run_cli(capsys, "waterfill", "--dist", TWOPOINT,
                               "--b", "50", "--r", "1.7", "--quiet")
        assert code == 0
        payload = json.loads(out)
        assert payload["robustness"]["feasible"] is True
        policy = parse_policy(payload)
        assert abs(sum(policy.masses) - 1.0) < 1e-9
        # consistency pinned by the reference table
        assert payload["objective"] / 45.0 == pytest.approx(1.0415, abs=0.005)

    def test_infeasible_r_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "waterfill", "--dist", TWOPOINT,
                               "--b", "50", "--r", "1.0001")
        assert code == 1
        assert "error" in err

    def test_failed_self_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(randomized, "check_robustness",
                            lambda f, b, R: RobustnessReport(np.empty(0), -1.0, False))
        code, out, err = run_cli(capsys, "waterfill", "--dist", TWOPOINT,
                                 "--b", "50", "--r", "1.7", "--quiet")
        assert code == 1
        assert out == "" and "robustness check" in err

    @pytest.mark.parametrize("dist", [
        '{"family": "nope", "params": {}}',
        '{"atoms": [[1.5, 0.5], [2.7, 0.5]]}',
        # every atom's mass truncated away: an empty support is bad input too
        '{"family": "gaussian_discretized", "params": {"mean": 100000, "stddev": 1, "high": 10}}',
        '{"family": "geometric_truncated", "params": {"rate": 0.9, "low": 400, "high": 401}}',
    ])
    def test_bad_distribution_exits_2(self, capsys, dist):
        code, out, err = run_cli(capsys, "waterfill", "--dist", dist,
                                 "--b", "50", "--r", "1.7")
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("flag, value", [("--r", "inf"), ("--r", "nan"),
                                             ("--epsilon", "nan"), ("--epsilon", "inf")])
    def test_non_finite_number_exits_2(self, capsys, flag, value):
        # --r inf died in scipy with a traceback, --r nan exited 1, and a NaN or
        # infinite --epsilon ran no bisection check and printed a policy
        argv = {"--r": "1.7", "--epsilon": "1e-6", flag: value}
        code, out, err = run_cli(capsys, "waterfill", "--dist", TWOPOINT, "--b", "50",
                                 *(item for pair in argv.items() for item in pair))
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    def test_deterministic_output(self, capsys):
        args = ("waterfill", "--dist", TWOPOINT, "--b", "50", "--r", "1.7", "--quiet")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBaselineCommand:
    def test_majority(self, capsys):
        code, out, _ = run_cli(capsys, "baseline", "--dist", TWOPOINT, "--b", "50",
                               "--r", "1.7", "--kind", "majority")
        assert code == 0
        policy = parse_policy(json.loads(out))
        assert abs(sum(policy.masses) - 1.0) < 1e-9

    def test_invalid_r_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "baseline", "--dist", TWOPOINT, "--b", "50",
                             "--r", "1.3", "--kind", "mixture")
        assert code == 1

    def test_nan_r_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "baseline", "--dist", TWOPOINT, "--b", "50",
                                 "--r", "nan", "--kind", "mixture")
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestMetricsCommand:
    def test_distances(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--dist", '{"atoms": [[3, 1.0]]}',
                               "--dist2", '{"atoms": [[7, 1.0]]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["wasserstein1"] == pytest.approx(4.0)
        assert payload["total_variation"] == pytest.approx(1.0)

    def test_policy_scoring(self, capsys, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps({"pmf": [[2, 1.0]]}))
        code, out, _ = run_cli(capsys, "metrics", "--dist", TWO_ATOM, "--b", "3",
                               "--policy", str(policy_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["consistency"] == pytest.approx(1.0, abs=1e-9)

    def test_policy_day_far_out(self, capsys, tmp_path):
        # the worst-ratio scan once ran over every day up to the policy's last
        policy_file = tmp_path / "far.json"
        policy_file.write_text(json.dumps({"pmf": [[1, 0.5], [10**9, 0.5]]}))
        code, out, _ = run_cli(capsys, "metrics", "--dist", TWO_ATOM, "--b", "3",
                               "--policy", str(policy_file))
        assert code == 0
        # the worst horizon is the last day: (mu + b) / b with mu = (10^9 - 1) / 2
        assert json.loads(out)["worst_ratio"] == pytest.approx((0.5 * (10**9 - 1) + 3) / 3)


class TestExperimentCommand:
    def test_sweep_deterministic(self, capsys):
        args = ("experiment", "sweep", "--etas", "0,2", "--trials", "2",
                "--seed", "7", "--quiet")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SKIRENT_SEED", "7")
        args = ("experiment", "sweep", "--etas", "0", "--trials", "1", "--quiet")
        _, out_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("SKIRENT_SEED")
        _, out_seed, _ = run_cli(capsys, "experiment", "sweep", "--etas", "0",
                                 "--trials", "1", "--seed", "7", "--quiet")
        assert out_env == out_seed

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "sweep", "--etas", "0",
                               "--trials", "1", "--quiet")
        assert code == 0
        assert out.splitlines()[0] == "family,policy,eta,trial,consistency,objective"

    def test_json_format_written(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, _, _ = run_cli(capsys, "experiment", "sweep", "--etas", "0",
                             "--trials", "1", "--format", "json",
                             "--out", str(out_file), "--quiet")
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert "metadata" in obj and "rows" in obj

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"etas": "0", "trials": 1, "seed": 3}))
        code, out, _ = run_cli(capsys, "experiment", "sweep", "--config", str(conf),
                               "--quiet")
        assert code == 0
        _, out2, _ = run_cli(capsys, "experiment", "sweep", "--etas", "0",
                             "--trials", "1", "--seed", "3", "--quiet")
        assert out == out2


    @pytest.mark.parametrize("argv", [("--etas", "nan"), ("--etas", "0,inf"),
                                      ("--etas", "abc"), ("--trials", "0"),
                                      ("--trials", "-2")])
    def test_bad_sweep_input_exits_2(self, capsys, argv):
        # --etas nan exited 1 with a ValueError traceback, --etas abc too, and
        # --trials 0 exited 0 with a header-only CSV
        argv = {"--etas": "0", "--trials": "1", argv[0]: argv[1]}
        code, out, err = run_cli(capsys, "experiment", "sweep", "--quiet",
                                 *(item for pair in argv.items() for item in pair))
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("conf", [{"b": "abc"}, {"b": 50.5}, {"b": True},
                                      {"format": "xml"}, {"trials": 0},
                                      {"r": float("nan")}, {"epsilon": -1.0}, [1]],
                             ids=["b_text", "b_fraction", "b_bool", "format_choice",
                                  "trials_zero", "r_nan", "epsilon_negative", "not_object"])
    def test_bad_config_value_exits_2(self, capsys, tmp_path, conf):
        # config values skipped argparse's typing: {"b": "abc"} died in a
        # comparison with a TypeError traceback and exit 1
        conf_file = tmp_path / "conf.json"
        conf_file.write_text(json.dumps(conf))
        try:
            code = main(["experiment", "table", "--config", str(conf_file), "--quiet"])
        except SystemExit as exc:  # argparse rejects a value as it rejects the flag
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_config_distribution_object(self, capsys, tmp_path):
        conf_file = tmp_path / "conf.json"
        conf_file.write_text(json.dumps({"dist": json.loads(TWOPOINT), "b": 50, "r": 1.7}))
        code, out, _ = run_cli(capsys, "waterfill", "--config", str(conf_file), "--quiet")
        assert code == 0
        assert out == run_cli(capsys, "waterfill", "--dist", TWOPOINT, "--b", "50",
                              "--r", "1.7", "--quiet")[1]


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--instances", "40", "--seed", "5")
        assert code == 0
        assert out.count("[PASS]") == 3
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("argv", [("--b-max", "3"), ("--b-max", "101"),
                                      ("--b-max", "200"), ("--instances", "0")])
    def test_grid_outside_oracle_range_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and argv[0] in err

    @pytest.mark.parametrize("extra", [("--b", "101"), ("--b", "50", "--r", "10")])
    def test_onehot_beyond_oracle_exits_2(self, capsys, extra):
        code, out, err = run_cli(capsys, "verify", "--onehot", *extra)
        assert code == 2 and out == "" and "horizon" in err

    def test_non_integral_policy_days_exit_2(self, capsys, tmp_path):
        policy_file = tmp_path / "frac.json"
        policy_file.write_text(json.dumps({"pmf": [[5.5, 1.0]]}))
        code, out, _ = run_cli(capsys, "verify", "--policy", str(policy_file),
                               "--b", "6", "--r", "2.0")
        assert code == 2 and out == ""

    def test_faulty_policy_file(self, capsys, tmp_path):
        policy_file = tmp_path / "bad.json"
        policy_file.write_text(json.dumps({"pmf": [[1, 1.0]]}))   # buy day 1: needs R >= b
        code, out, _ = run_cli(capsys, "verify", "--policy", str(policy_file),
                               "--b", "6", "--r", "1.5")
        assert code == 1
        assert "x=1" in out

    def test_good_policy_file(self, capsys, tmp_path):
        policy_file = tmp_path / "good.json"
        policy_file.write_text(json.dumps({"pmf": [[6, 1.0]]}))
        code, out, _ = run_cli(capsys, "verify", "--policy", str(policy_file),
                               "--b", "6", "--r", "2.0")
        assert code == 0

    def test_onehot_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--onehot", "--b", "8")
        assert code == 0
        assert "1..24" in out


class TestRoundTrips:
    def test_emitted_distribution_parses(self, capsys):
        p = parse_distribution(TWOPOINT)
        again = parse_distribution(p.to_json())
        assert again.support == p.support


class TestPublishedFlag:
    def test_published_policy_is_level_restricted(self, capsys):
        # exact mode may redistribute; the published flag must not
        code, out, _ = run_cli(capsys, "waterfill", "--dist",
                               '{"family": "geometric_truncated", "params": {"rate": 0.05, "high": 600}}',
                               "--b", "50", "--r", "1.7", "--published", "--quiet")
        assert code == 0
        payload = json.loads(out)
        assert payload["robustness"]["feasible"] is True
        code2, out2, _ = run_cli(capsys, "waterfill", "--dist",
                                 '{"family": "geometric_truncated", "params": {"rate": 0.05, "high": 600}}',
                                 "--b", "50", "--r", "1.7", "--quiet")
        exact_payload = json.loads(out2)
        assert exact_payload["objective"] <= payload["objective"] + 1e-9
