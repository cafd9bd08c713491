import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skirent
import skirent.randomized as randomized
from skirent import RobustnessReport, parse_distribution
from skirent.cli import build_parser, main
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

    @pytest.mark.parametrize("eta", ["nan", "inf", "-1"])
    def test_bad_eta_exits_2(self, capsys, eta):
        # --eta nan exited 0 with the consistency bound reported as unavailable
        code, out, err = run_cli(capsys, "threshold", "--dist", TWO_ATOM, "--b", "3",
                                 "--lambda", "0.5", f"--eta={eta}")
        assert code == 2
        assert out == "" and err.startswith("error:") and "--eta" in err

    @pytest.mark.parametrize("extra", [("--eta", "2"), ("--metric", "tv"),
                                       ("--metric", "wasserstein"),
                                       ("--eta", "2", "--metric", "tv")],
                             ids=["eta", "metric_tv", "metric_default", "both"])
    def test_bound_options_without_lambda_exit_2(self, capsys, extra):
        # these exited 0 with the bare threshold, the flags ignored
        code, out, err = run_cli(capsys, "threshold", "--dist", TWO_ATOM, "--b", "3", *extra)
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--lambda" in err and all(flag in err for flag in extra[::2])

    def test_metric_defaults_to_wasserstein(self, capsys):
        argv = ("threshold", "--dist", TWO_ATOM, "--b", "50", "--lambda", "0.5", "--eta", "0.1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--metric", "wasserstein")[1] == out
        assert run_cli(capsys, *argv, "--metric", "tv")[1] != out

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

    @pytest.mark.parametrize("t_hat, clamped", [("NEVER", 150), ("40", 40), ("5", 17)])
    def test_valid_buy_day(self, capsys, t_hat, clamped):
        code, out, _ = run_cli(capsys, "clamp", "--t-hat", t_hat, "--b", "50",
                               "--lambda", "0.333333")
        assert code == 0
        assert json.loads(out)["clamped_t"] == clamped

    @pytest.mark.parametrize("t_hat", ["abc", "1.5", "0", "-1"])
    def test_bad_buy_day_exits_2(self, capsys, t_hat):
        # abc and 1.5 exited 1 with a ValueError traceback from int()
        code, out, err = run_cli(capsys, "clamp", "--b", "50", "--lambda", "0.5",
                                 f"--t-hat={t_hat}")
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


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
                            lambda f, b, R: RobustnessReport(np.empty(0, int), np.empty(0), -1.0,
                                                             False))
        # exact mode first drops the LP's vertex, which fails the check too
        with pytest.warns(RuntimeWarning, match="exact refine's vertex fails"):
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
        # these two were read as numbers and exited 0
        '{"atoms": [[3, true]]}',
        '{"family": "gaussian_discretized", "params": {"mean": "50", "stddev": true, "high": 99}}',
    ])
    def test_bad_distribution_exits_2(self, capsys, dist):
        for command in (("waterfill", "--r", "1.7"), ("threshold",)):
            code, out, err = run_cli(capsys, *command, "--dist", dist, "--b", "50")
            assert code == 2
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", [("waterfill", "--published", "--dist", TWOPOINT,
                                          "--b", "50", "--r", "1.7"),
                                         ("experiment", "table")], ids=["waterfill", "table"])
    def test_epsilon_below_float_spacing_exits_2(self, capsys, command):
        # looped forever in the water-level bisection
        code, out, err = run_cli(capsys, *command, "--epsilon", "5e-15")
        assert code == 2
        assert out == "" and "least accepted" in err and "Traceback" not in err

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
                                      ("--trials", "-2"), ("--etas", "1e19"),
                                      ("--seed", "-1"), ("--etas", ","), ("--etas", ""),
                                      ("--etas", "2,2"), ("--epsilon", "1e-30"),
                                      ("--etas", "2,,4,"), ("--etas", ",3"), ("--etas", "3,")])
    def test_bad_sweep_input_exits_2(self, capsys, argv):
        # --etas nan exited 1 with a ValueError traceback, --etas abc too, and
        # --trials 0, --etas , and --etas '' exited 0 with a header-only CSV;
        # --etas 1e19 died in rng.integers and --seed -1 in SeedSequence, both
        # with tracebacks; --etas 2,2 repeated row keys; --epsilon 1e-30 never
        # ended its bisection; --etas 2,,4, ran the grid [2, 4]
        argv = {"--etas": "0", "--trials": "1", "--seed": "0", argv[0]: argv[1]}
        code, out, err = run_cli(capsys, "experiment", "sweep", "--quiet",
                                 *(item for pair in argv.items() for item in pair))
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--etas", "nan"), ("--trials", "5"),
                                             ("--seed", "9")])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_table_rejects_sweep_options(self, capsys, tmp_path, flag, value, via_config):
        # the table ran and exited 0, ignoring every one of these
        argv = (flag, value)
        if via_config:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({flag[2:]: value}))
            argv = ("--config", str(conf))
        code, out, err = run_cli(capsys, "experiment", "table", "--quiet", *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert flag in err and "Traceback" not in err

    def test_bad_env_seed_fails_only_the_sweep(self, capsys, monkeypatch):
        # the table exited 2 over a seed it never uses
        expected = run_cli(capsys, "experiment", "table", "--quiet")[1]
        monkeypatch.setenv("SKIRENT_SEED", "abc")
        assert run_cli(capsys, "experiment", "table", "--quiet")[:2] == (0, expected)
        code, out, err = run_cli(capsys, "experiment", "sweep", "--etas", "0",
                                 "--trials", "1", "--quiet")
        assert code == 2 and out == "" and "SKIRENT_SEED" in err

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


ONE_ATOM = '{"atoms": [[5, 1.0]]}'


class TestConfigFile:
    """Config keys are flag names: a key the command takes acts as its flag."""

    @staticmethod
    def run_with(capsys, tmp_path, conf, *argv):
        conf_file = tmp_path / "conf.json"
        conf_file.write_text(json.dumps(conf))
        return run_cli(capsys, *argv, "--config", str(conf_file))

    @pytest.mark.parametrize("argv, conf, flags", [
        (("threshold", "--dist", ONE_ATOM, "--b", "10"), {"lambda": 0.5, "eta": 3},
         ("--lambda", "0.5", "--eta", "3")),
        (("threshold", "--dist", ONE_ATOM, "--b", "10", "--lambda", "0.5"),
         {"eta": 0.2, "metric": "tv"}, ("--eta", "0.2", "--metric", "tv")),
        (("clamp", "--b", "50", "--lambda", "0.5"), {"t-hat": 40}, ("--t-hat", "40")),
        (("baseline", "--dist", TWOPOINT, "--b", "50", "--r", "1.7"), {"kind": "mixture"},
         ("--kind", "mixture")),
        (("metrics", "--dist", TWO_ATOM), {"dist2": TWOPOINT}, ("--dist2", TWOPOINT)),
        (("metrics", "--dist", TWO_ATOM, "--b", "6"), {"policy": "policy.json"},
         ("--policy", "policy.json")),
        (("verify", "--seed", "5"), {"b-max": 6, "instances": 3},
         ("--b-max", "6", "--instances", "3")),
        (("verify", "--b", "4"), {"onehot": True}, ("--onehot",)),
        (("waterfill", "--dist", TWOPOINT, "--b", "50", "--r", "1.7", "--quiet"),
         {"published": True}, ("--published",)),
    ], ids=["lambda_eta", "metric", "t_hat", "kind", "dist2", "policy", "b_max_instances",
            "onehot", "published"])
    def test_each_key_acts_as_its_flag(self, capsys, tmp_path, monkeypatch, argv, conf, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "policy.json").write_text(json.dumps({"pmf": [[6, 1.0]]}))
        code, out, err = self.run_with(capsys, tmp_path, conf, *argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, *flags)[1]

    def test_quiet_key_silences_the_logs(self, capsys, tmp_path):
        code, out, err = self.run_with(capsys, tmp_path, {"quiet": True, "etas": "0",
                                                          "trials": 1}, "experiment", "sweep")
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("argv, conf, key", [
        (("experiment", "sweep"), {"trails": 5, "etas": "0"}, "'trails'"),
        (("experiment", "table"), {"config": "other.json"}, "'config'"),
        (("experiment", "sweep", "--etas", "0"), {"lambda": 0.5}, "'lambda'"),
        (("threshold", "--dist", ONE_ATOM, "--b", "10"), {"trials": 3}, "'trials'"),
        (("experiment", "table"), {"quiet": 1}, "switch"),
        (("experiment", "table"), {"quiet": "true"}, "switch"),
    ], ids=["misspelt", "config", "lambda_on_sweep", "trials_on_threshold", "switch_number",
            "switch_text"])
    def test_key_the_command_does_not_take_exits_2(self, capsys, tmp_path, argv, conf, key):
        code, out, err = self.run_with(capsys, tmp_path, conf, *argv, "--quiet")
        assert code == 2
        assert out == "" and err.startswith("error:") and key in err

    def test_flags_on_the_command_line_win(self, capsys, tmp_path):
        argv = ("threshold", "--dist", ONE_ATOM, "--b", "10", "--eta", "1")
        conf = {"lambda": 0.5, "eta": 3, "quiet": False}
        code, out, err = self.run_with(capsys, tmp_path, conf, *argv, "--quiet")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "--lambda", "0.5")[1]
        assert out != run_cli(capsys, *argv[:-2], "--lambda", "0.5", "--eta", "3")[1]
        # a false switch sets nothing
        code, out, _ = self.run_with(capsys, tmp_path, {"published": False}, "waterfill",
                                     "--dist", TWOPOINT, "--b", "50", "--r", "1.7", "--quiet")
        assert code == 0
        assert out == run_cli(capsys, "waterfill", "--dist", TWOPOINT, "--b", "50", "--r",
                              "1.7", "--quiet")[1]


class TestVerifyCommand:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--instances", "40", "--seed", "5")
        assert code == 0
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("argv", [("--b-max", "3"), ("--b-max", "101"),
                                      ("--b-max", "200"), ("--instances", "0")])
    def test_grid_outside_oracle_range_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == "" and argv[0] in err

    @pytest.mark.parametrize("argv", [("--b", "5"), ("--r", "3"), ("--b", "5", "--r", "3")],
                             ids=["b", "r", "both"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_grid_rejects_policy_options(self, capsys, tmp_path, argv, via_config):
        # the grid ran and exited 0, ignoring --b and --r
        flags = argv[::2]
        if via_config:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({flag[2:]: json.loads(value) for flag, value
                                        in zip(argv[::2], argv[1::2])}))
            argv = ("--config", str(conf))
        code, out, err = run_cli(capsys, "verify", "--instances", "1", *argv)
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--onehot" in err and all(flag in err for flag in flags)

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

    def test_report_written_to_out(self, capsys, tmp_path):
        policy_file = tmp_path / "good.json"
        policy_file.write_text(json.dumps({"pmf": [[6, 1.0]]}))
        out_file = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "verify", "--policy", str(policy_file),
                               "--b", "6", "--r", "2.0", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == out and out.startswith("[PASS]")

    def test_onehot_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--onehot", "--b", "8")
        assert code == 0
        assert "1..24" in out

    def test_onehot_without_a_robust_policy_exits_1(self, capsys):
        # every one-hot is infeasible at R = 1.1, so the sweep compares nothing
        code, out, _ = run_cli(capsys, "verify", "--onehot", "--b", "8", "--r", "1.1")
        assert code == 1
        assert out.startswith("[FAIL]") and out.count("\n") == 1
        assert "no R-robust policy exists for b=8, R=1.1" in out

    def test_raising_water_fill_fails_the_grid(self, capsys, monkeypatch):
        # the grid skipped every instance on which water_fill raised, and with
        # all of them raising it printed [PASS] on 0 instances and exited 0
        def broken(*args, **kwargs):
            raise skirent.InvariantError("constructed policy failed its own robustness check")

        monkeypatch.setattr(skirent.oracle, "water_fill", broken)
        code, out, _ = run_cli(capsys, "verify", "--instances", "40", "--seed", "5")
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        # the LP comparison and exact against published both run water_fill
        assert len(fails) == 2
        assert all("water filling" in fail and "InvariantError" in fail for fail in fails)
        assert out.count("[PASS]") == 5


class TestRoundTrips:
    def test_emitted_distribution_parses(self, capsys):
        p = parse_distribution(TWOPOINT)
        again = parse_distribution(p.to_json())
        assert again.support == p.support

    @pytest.mark.parametrize("argv", [
        ("threshold", "--dist", TWOPOINT, "--b", "50", "--lambda", "0.5", "--eta", "2"),
        ("waterfill", "--dist", TWOPOINT, "--b", "50", "--r", "2"),
        ("metrics", "--dist", TWOPOINT, "--dist2", TWO_ATOM),
    ], ids=["threshold", "waterfill", "metrics"])
    def test_dist_file_reads_as_its_inline_json(self, capsys, tmp_path, argv):
        from_files = list(argv)
        for i in range(1, len(argv)):
            if argv[i - 1] in ("--dist", "--dist2"):
                path = tmp_path / f"{argv[i - 1][2:]}.json"
                path.write_text(argv[i])
                from_files[i] = str(path)
        inline = run_cli(capsys, *argv)
        assert inline[0] == 0 and run_cli(capsys, *from_files) == inline


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


@pytest.mark.parametrize("argv", [("experiment", "table"),
                                  ("experiment", "sweep", "--etas", "0", "--trials", "100")],
                         ids=["fits_the_buffer", "overflows_the_buffer"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # exited 1 with a BrokenPipeError traceback from print()
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(skirent.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    try:
        proc = subprocess.run([sys.executable, "-m", "skirent.cli", *argv, "--quiet"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_python_m_skirent_runs_the_cli():
    # failed with "No module named skirent.__main__"
    src = str(Path(skirent.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "skirent", "--version"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == f"skirent {skirent.__version__}\n"


def run_cli_limited(argv: list[str], gib: float) -> subprocess.CompletedProcess:
    """The CLI in a child process whose address space is capped at ``gib`` GiB."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (int(gib * 2**30), int(gib * 2**30)))

    src = str(Path(skirent.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "skirent.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit_memory, timeout=120)


@pytest.mark.parametrize("high", [2**63, 10**12], ids=["past_int64", "past_scale_cap"])
def test_out_of_range_family_bound_exits_2(high):
    # past_int64 exited 1 with an OverflowError traceback; past_scale_cap asked for
    # a 10^12-day range and, under a 3 GB address-space limit, died of MemoryError
    dist = json.dumps({"family": "uniform", "params": {"low": 1, "high": high}})
    proc = run_cli_limited(["threshold", "--b", "10", "--dist", dist], 3)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["waterfill", "--b", "100000000", "--r", "2", "--dist", '{"atoms":[[5,1]]}'],
    ["waterfill", "--b", "100000000", "--r", "2", "--dist", '{"atoms":[[5,1]]}', "--published"],
    ["verify", "--onehot", "--b", "100000000"],
    ["verify", "--onehot", "--b", "101"],
], ids=["waterfill", "waterfill_published", "verify_onehot", "verify_onehot_past_oracle"])
def test_b_past_the_day_bound_exits_2(argv):
    # under a 1.5 GB address-space limit the 10^8-day requests died of MemoryError
    # with a traceback and exit 1; b = 101 puts the oracle past its horizon, which
    # is now checked before the first solve
    proc = run_cli_limited(argv, 1.5)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


# The exit-code contract under drawn argv: 0, 1 or 2, never a traceback, and
# exit 2 for a non-finite number.  Sizes stay small so no example runs long:
# b <= 10^4, exact water filling only at b <= 200, one trial of one eta, and
# the verify grid at its floor.  "@name" tokens stand for files made per run.
EXTREME = ("0", "-1", "1e300", str(2**63))
NON_FINITE = ("nan", "inf", "-inf")
FINITE_CHECKED = ("--r", "--epsilon", "--eta", "--etas")


def _either(valid, bad):
    """A valid value three times in four, so that most draws get past validation."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(bad if k == 0 else valid))


def _numbers(*valid):
    return _either(valid, EXTREME + NON_FINITE + ("abc",))


B = _either(("2", "3", "50", "200", "10000"), ("0", "-1", "1e300", "nan", "abc", str(2**63)))
DISTS = _either((TWO_ATOM, TWOPOINT, '{"atoms": [[3, 0.5], [100000, 0.5]]}',
                 '{"atoms": [[9223372036854775807, 1.0]]}'),
                ('{"atoms": [[9223372036854775808, 1.0]]}', '{"atoms": [[5, NaN]]}', "abc",
                 "@nofile"))
FILES = _either(("@policy",), ("@junk", "@nofile", "@dir"))
SEEDS = _either(("0", "7"), ("-1", str(2**63), "abc"))
FORMATS = _either(("csv", "json"), ("xml",))
CONFIGS = st.builds(lambda key, value: f"@config={{{json.dumps(key)}: {value}}}",
                    st.sampled_from(("b", "r", "epsilon", "seed", "format", "lambda",
                                     "etas", "trials", "dist")),
                    _either(("2", "1.7"), ("0", "-1", "1e300", "NaN", "Infinity", '"abc"',
                                           "true", "null")))

# per command: (flags always drawn, flags drawn half the time)
COMMANDS = {
    ("threshold",): ({"--dist": DISTS, "--b": B},
                     {"--lambda": _numbers("0.5"), "--eta": _numbers("3"),
                      "--metric": _either(("wasserstein", "tv"), ("abc",))}),
    ("clamp",): ({"--t-hat": _numbers("never", "40"), "--b": B, "--lambda": _numbers("0.5")},
                 {}),
    ("waterfill",): ({"--dist": DISTS, "--b": B, "--r": _numbers("1.7", "2.5")},
                     {"--epsilon": _numbers("1e-6"), "--published": st.just(None)}),
    ("baseline",): ({"--dist": DISTS, "--b": B, "--r": _numbers("1.7", "2.5"),
                     "--kind": _either(("majority", "mixture"), ("abc",))}, {}),
    ("metrics",): ({"--dist": DISTS}, {"--dist2": DISTS, "--policy": FILES, "--b": B}),
    ("experiment", "table"): ({}, {"--b": B, "--r": _numbers("1.7"),
                                   "--epsilon": _numbers("1e-6"), "--format": FORMATS}),
    ("experiment", "sweep"): ({"--trials": _either(("1",), ("0", "-1", "1e300", "abc")),
                               "--etas": _numbers("4")},
                              {"--b": B, "--r": _numbers("1.7"), "--epsilon": _numbers("1e-6"),
                               "--seed": SEEDS, "--format": FORMATS}),
    ("verify",): ({"--b-max": _either(("4",), ("3", "1e300", str(2**63), "abc")),
                   "--instances": _either(("1",), ("0", "-1", "abc"))},
                  {"--seed": SEEDS, "--r": _numbers("2")}),
    ("verify", "--onehot"): ({"--b": _either(("2", "4"), ("0", "-1", "10000", "abc"))},
                             {"--r": _numbers("2", "2.5")}),
    ("verify", "--policy"): ({"--policy": FILES, "--b": B, "--r": _numbers("2")}, {}),
}
COMMON = {"--out": _either(("@out",), ("@missing/out",)), "--quiet": st.just(None),
          "--config": CONFIGS}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[command]
    flags = {flag: draw(values) for flag, values in always.items()}
    for flag, values in {**optional, **COMMON}.items():
        if draw(st.booleans()):
            flags[flag] = draw(values)
    if command == ("waterfill",) and flags.get("--b") == "10000":
        flags["--published"] = None  # exact mode at b = 10^4 takes seconds
    return _argv(command, flags)


def _argv(command, flags):
    """The argv of a spec key and its drawn flags; a mode token drawn as a flag goes once."""
    argv = [token for token in command if token not in flags]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def _materialize(argv, tmp):
    """Replace each "@name" token by a path under ``tmp``, writing the file it names."""
    paths = {"@policy": tmp / "policy.json", "@junk": tmp / "junk.json",
             "@nofile": tmp / "nofile.json", "@dir": tmp, "@out": tmp / "out.txt",
             "@missing/out": tmp / "missing" / "out.txt"}
    paths["@policy"].write_text(json.dumps({"pmf": [[6, 1.0]]}))
    paths["@junk"].write_text("{not json")
    out = []
    for token in argv:
        if token.startswith("@config="):
            paths[token] = tmp / "config.json"
            paths[token].write_text(token[len("@config="):])
        out.append(str(paths[token]) if token.startswith("@") else token)
    return out


def test_exit_code_contract(tmp_path):
    @settings(max_examples=200, deadline=None)
    @given(cli_argv())
    @example(["clamp", "--b", "50", "--lambda", "0.5", "--t-hat", "abc"])
    @example(["clamp", "--b", "50", "--lambda", "0.5", "--t-hat", "1.5"])
    @example(["threshold", "--dist", TWO_ATOM, "--b", "3", "--lambda", "0.5", "--eta", "nan"])
    @example(["experiment", "sweep", "--etas", "1e19", "--trials", "1"])
    @example(["experiment", "sweep", "--etas", "4", "--trials", "1", "--seed", "-1"])
    @example(["verify", "--onehot", "--b", "4", "--r", "1e300"])
    @example(["baseline", "--dist", TWO_ATOM, "--b", "10000", "--r", "1e300", "--kind", "mixture"])
    @example(["threshold", "--dist", '{"atoms": [[9223372036854775808, 1.0]]}', "--b", "50"])
    @example(["metrics", "--dist", TWO_ATOM, "--policy", "@junk", "--b", "5"])
    @example(["waterfill", "--dist", TWO_ATOM, "--b", "50", "--r", "1.7", "--out", "@missing/out"])
    def check(argv):
        argv = _materialize(argv, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag or its value
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if any(flag in FINITE_CHECKED and value in NON_FINITE
               for flag, value in zip(argv, argv[1:])):
            assert code == 2, (argv, err.getvalue())

    check()


# every flag of the spec above, with a strategy for its value
SPEC_FLAGS = {flag: values for always, optional in COMMANDS.values()
              for flag, values in {**always, **optional}.items()}
SPEC_FLAGS["--onehot"] = st.just(None)


@st.composite
def argv_with_an_unread_flag(draw):
    """A (command, mode) of the spec, plus one flag outside what that mode reads."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[command]
    reads = {*always, *optional, *command[1:], *COMMON}
    unread = draw(st.sampled_from(sorted(set(SPEC_FLAGS) - reads)))
    flags = {flag: draw(values) for flag, values in always.items()}
    for flag, values in optional.items():
        if draw(st.booleans()):
            flags[flag] = draw(values)
    flags[unread] = draw(SPEC_FLAGS[unread])
    return _argv(command, flags)


def test_unread_flag_exits_2(tmp_path):
    @settings(max_examples=150, deadline=None)
    @given(argv_with_an_unread_flag())
    @example(["threshold", "--dist", TWO_ATOM, "--b", "3", "--seed", "1"])
    @example(["experiment", "table", "--trials", "1"])
    @example(["experiment", "sweep", "--trials", "1", "--etas", "4", "--eta", "3"])
    @example(["verify", "--onehot", "--b", "4", "--r", "2", "--policy", "@policy"])
    def check(argv):
        argv = _materialize(argv, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a flag the command does not have at all
                code = exc.code
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == "", argv
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv

    check()


@pytest.mark.parametrize("argv, ignored", [
    (["verify", "--policy", "@policy", "--b", "6", "--r", "2", "--onehot", "--seed", "3"],
     ["--onehot", "--seed"]),
    (["verify", "--onehot", "--b", "4", "--r", "2", "--seed", "3"], ["--seed"]),
    (["metrics", "--dist", TWO_ATOM, "--dist2", TWO_ATOM, "--b", "5"], ["--b"]),
    (["verify", "--policy", "@policy", "--b", "6", "--r", "2", "--b-max", "5"], ["--b-max"]),
    (["verify", "--policy", "@policy", "--b", "6", "--r", "2", "--instances", "5"],
     ["--instances"]),
    (["verify", "--onehot", "--b", "4", "--instances", "5"], ["--instances"]),
    (["waterfill", "--dist", TWO_ATOM, "--b", "5", "--r", "2", "--epsilon", "0.1"],
     ["--epsilon"]),
], ids=["policy_onehot_seed", "onehot_seed", "metrics_b", "policy_b_max",
        "policy_instances", "onehot_instances", "exact_epsilon"])
def test_ignored_flags_exit_2(capsys, tmp_path, argv, ignored):
    # each of these exited 0, the named flags ignored
    code, out, err = run_cli(capsys, *_materialize(argv, tmp_path))
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert all(flag in err for flag in ignored)


# a valid value for every flag, "@policy" for the policy file
VALID = {"--dist": TWO_ATOM, "--dist2": TWO_ATOM, "--policy": "@policy", "--b": "6",
         "--r": "2", "--lambda": "0.5", "--eta": "1", "--metric": "tv", "--t-hat": "5",
         "--published": None, "--epsilon": "1e-6", "--kind": "majority", "--seed": "1",
         "--etas": "0", "--trials": "1", "--format": "csv", "--b-max": "4",
         "--instances": "1", "--onehot": None}


def readme_modes():
    """The README's table: (command, mode) -> (required flags, all flags read)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modes = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`") and "--" in line:
            flags = cells[2].split()
            modes[cells[0].strip("`"), cells[1].strip("`")] = (
                [flag.strip("*`") for flag in flags if flag.startswith("**")],
                [flag.strip("*`") for flag in flags])
    return modes


def test_readme_table_matches_the_parser(capsys, tmp_path):
    # the parser's flags are the README's, and each mode requires and reads
    # exactly the flags its row lists
    modes = readme_modes()
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)).choices
    assert sorted(subparsers) == sorted({command for command, _ in modes})
    for (command, mode), (required, reads) in modes.items():
        flags = {option for action in subparsers[command]._actions
                 for option in action.option_strings} - {"-h", "--help", *COMMON}
        assert flags == {flag for (cmd, _), (_, read) in modes.items() if cmd == command
                         for flag in read}, command
        base = [command] + ([mode] if mode in ("table", "sweep") else [])
        given = {flag: VALID[flag] for flag in required}
        argv = _argv(base, {flag: VALID[flag] for flag in reads})
        code, _, err = run_cli(capsys, *_materialize(argv, tmp_path), "--quiet")
        assert code in (0, 1), (argv, err)
        for flag in set(required) - {mode}:
            argv = _argv(base, {key: value for key, value in given.items() if key != flag})
            code, out, err = run_cli(capsys, *_materialize(argv, tmp_path))
            assert (code, out, err) == (2, "", f"error: missing required option {flag}\n"), argv
        # a mode flag picks its own mode instead, as test_ignored_flags_exit_2 shows
        for flag in flags - set(reads) - {m for cmd, m in modes if cmd == command}:
            argv = _argv(base, {**given, flag: VALID[flag]})
            code, out, err = run_cli(capsys, *_materialize(argv, tmp_path))
            assert (code, out) == (2, "") and err.startswith(f"error: {flag} applies only"), argv
