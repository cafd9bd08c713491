"""Command-line front end: policies, experiments, and oracle verification."""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import BaselineKind, baseline_policy
from .deterministic import (
    NEVER,
    clamp_threshold,
    expected_cost_threshold,
    is_never,
    optimal_threshold,
    robust_consistent_bound,
)
from .distributions import (
    DayDistribution,
    _check_finite,
    parse_distribution,
    total_variation,
    wasserstein1,
)
from .errors import InvalidParamsError, ScaleExceededError, SkirentError
from .evaluation import consistency, run_consistency_table, run_perturbation_sweep
from .oracle import MAX_HORIZON, brute_force_threshold, lp_instance_from_cost, lp_solve
from .randomized import (
    build_cost_function,
    check_robustness,
    expected_policy_cost,
    geometric_cdf,
    onehot_exact,
    parse_policy,
    realized_worst_ratio,
    water_fill,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2

ORACLE_B_MAX = MAX_HORIZON // 4  # verify instances reach day 4b, the oracle's horizon


def _log(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _emit(args, result: dict | str) -> None:
    """Print a result and write it to ``--out``; a dict goes out as sorted JSON."""
    text = (result if isinstance(result, str)
            else json.dumps(result, indent=2, sort_keys=True) + "\n")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        _log(args, f"wrote {args.out}")
    print(text, end="" if text.endswith("\n") else "\n")


def _threshold_json(t) -> int | str:
    return "never" if is_never(t) else int(t)


def _load_dist(source: str) -> DayDistribution:
    """Accept inline JSON or a path to a JSON file."""
    text = source
    if os.path.exists(source):
        with open(source) as fh:
            text = fh.read()
    return parse_distribution(text)


# config-file key -> argparse dest; each key is also the name of its flag
CONFIG_KEYS = {"b": "b", "r": "r", "lambda": "lam", "epsilon": "epsilon", "seed": "seed",
               "dist": "dist", "out": "out", "format": "format", "etas": "etas",
               "trials": "trials"}


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str],
                       args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from a JSON config file (flags always win).

    The values are parsed again as flags, so they get the flags' typing and
    choices: a string goes in as it is, anything else as its JSON text, and a
    value the flag would reject exits 2 through argparse.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise InvalidParamsError("the config file must hold a JSON object")
    extra = [f"--{key}={value if isinstance(value, str) else json.dumps(value)}"
             for key, value in conf.items()
             if key in CONFIG_KEYS and hasattr(args, CONFIG_KEYS[key])
             and getattr(args, CONFIG_KEYS[key]) is None]
    return parser.parse_args([*argv, *extra]) if extra else args


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("SKIRENT_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise InvalidParamsError(f"SKIRENT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidParamsError(f"the seed must be >= 0, got {seed}")
    return seed


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-").replace("lam", "lambda")
            raise InvalidParamsError(f"missing required option {flag}")


def _reject(args, names: tuple[str, ...], why: str) -> None:
    """Exit 2 on any of these flags when given, rather than run without them."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise InvalidParamsError(f"{', '.join(given)} {why}")


def _validate_common(args) -> None:
    if getattr(args, "b", None) is not None and args.b < 2:
        raise InvalidParamsError("--b must be >= 2")
    if getattr(args, "r", None) is not None:
        _check_finite(args.r, "--r")
        if args.r <= 1:
            raise InvalidParamsError("--r must exceed 1")
    if getattr(args, "lam", None) is not None and not 0 < args.lam < 1:
        raise InvalidParamsError("--lambda must lie in (0, 1)")
    if getattr(args, "eta", None) is not None:
        _check_finite(args.eta, "--eta")
        if args.eta < 0:
            raise InvalidParamsError("--eta must be >= 0")
    if getattr(args, "epsilon", None) is not None:
        _check_finite(args.epsilon, "--epsilon")
        if args.epsilon <= 0:
            raise InvalidParamsError("--epsilon must be > 0")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        raise InvalidParamsError("--trials must be >= 1")


def cmd_threshold(args) -> int:
    if args.lam is None:
        _reject(args, ("eta", "metric"), "applies only with --lambda")
    p_hat = _load_dist(args.dist)
    t_star, cost = optimal_threshold(p_hat, args.b)
    payload = {"t_star": _threshold_json(t_star), "cost": cost}
    if args.lam is not None:
        eta = args.eta if args.eta is not None else 0.0
        report = robust_consistent_bound(p_hat, args.b, args.lam, eta,
                                         metric=args.metric or "wasserstein")
        payload["clamped_t"] = report.clamped_t
        payload["bound_report"] = {
            "robust_term": report.robust_term,
            "consistent_term": report.consistent_term,
            "binding": report.binding,
            "theta": report.theta,
            "rho_hat": report.rho_hat,
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_clamp(args) -> int:
    if args.t_hat.lower() == "never":
        t_hat = NEVER
    else:
        try:
            t_hat = int(args.t_hat)
        except ValueError:
            raise InvalidParamsError(f"--t-hat must be a positive integer or 'never', "
                                     f"got {args.t_hat!r}") from None
    clamped = clamp_threshold(t_hat, args.b, args.lam)
    _emit(args, {"t_hat": _threshold_json(t_hat), "clamped_t": clamped,
                 "b": args.b, "lambda": args.lam})
    return EXIT_OK


def cmd_waterfill(args) -> int:
    p_hat = _load_dist(args.dist)
    g = build_cost_function(p_hat, args.b)
    policy, objective = water_fill(g, args.b, args.r, args.epsilon,
                                   exact=not args.published)
    report = check_robustness(policy, args.b, args.r)
    payload = policy.to_json_dict(b=args.b, r=args.r, objective=objective)
    payload["robustness"] = {"feasible": report.feasible, "worst_slack": report.worst(),
                             "tail_slack": report.tail_slack}
    _emit(args, payload)
    return EXIT_OK if report.feasible else EXIT_COMPUTE


def cmd_baseline(args) -> int:
    p_hat = _load_dist(args.dist)
    kind = (BaselineKind.MAJORITY_BRANCH if args.kind == "majority"
            else BaselineKind.MIXTURE)
    policy = baseline_policy(p_hat, args.b, args.r, kind)
    g = build_cost_function(p_hat, args.b)
    payload = policy.to_json_dict(b=args.b, r=args.r,
                                  objective=expected_policy_cost(policy, g))
    _emit(args, payload)
    return EXIT_OK


def cmd_metrics(args) -> int:
    p = _load_dist(args.dist)
    payload: dict = {}
    if args.dist2 is not None:
        q = _load_dist(args.dist2)
        payload["wasserstein1"] = wasserstein1(p, q)
        payload["total_variation"] = total_variation(p, q)
    if args.policy is not None:
        _require(args, "b")
        with open(args.policy) as fh:
            policy = parse_policy(json.load(fh))
        payload["consistency"] = consistency(p, policy, args.b)
        g = build_cost_function(p, args.b)
        payload["expected_cost"] = expected_policy_cost(policy, g)
        horizon = max(policy.max_day, 5 * args.b)
        payload["worst_ratio"] = realized_worst_ratio(policy, args.b, horizon)
    if not payload:
        raise InvalidParamsError("metrics needs --dist2 and/or --policy")
    _emit(args, payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    b = args.b if args.b is not None else 50
    r = args.r if args.r is not None else 1.7
    if args.which == "table":
        _reject(args, ("etas", "trials", "seed"), "applies only to 'experiment sweep'")
        _log(args, f"running consistency table at (b, R) = ({b}, {r})")
        result = run_consistency_table(b=b, R=r, epsilon=args.epsilon)
    else:
        etas = None
        if args.etas is not None:
            try:
                etas = [float(x) for x in args.etas.split(",") if x != ""]
            except ValueError:
                raise InvalidParamsError(
                    f"--etas must be comma-separated numbers, got {args.etas!r}") from None
        trials = args.trials if args.trials is not None else 25
        seed = _resolve_seed(args)
        _log(args, f"running perturbation sweep at (b, R) = ({b}, {r}), seed {seed}")
        result = run_perturbation_sweep(b=b, R=r, eta_grid=etas, n_trials=trials,
                                        seed=seed, epsilon=args.epsilon)
    _emit(args, result.to_json() if args.format == "json" else result.to_csv())
    return EXIT_OK


def _verify_policy_file(args, lines: list[str]) -> int:
    _require(args, "b", "r")
    with open(args.policy) as fh:
        policy = parse_policy(json.load(fh))
    report = check_robustness(policy, args.b, args.r)
    if report.feasible:
        lines.append(f"[PASS] policy satisfies robustness at R={args.r}")
        return EXIT_OK
    lines.append(f"[FAIL] constraint violated at x={report.violated_index()} "
                 f"(worst slack {report.worst():.3e})")
    return EXIT_COMPUTE


def _verify_onehot(args, lines: list[str]) -> int:
    _require(args, "b")
    b = args.b
    if b > ORACLE_B_MAX:
        raise InvalidParamsError(f"--b must be at most {ORACLE_B_MAX} with --onehot "
                                 f"(the LP oracle's horizon is 4b, capped at {MAX_HORIZON})")
    r = args.r if args.r is not None else 2.0
    failures = 0
    for y in range(1, 3 * b + 1):
        p = DayDistribution((y,), (1.0,))
        g = build_cost_function(p, b)
        exact = expected_policy_cost(onehot_exact(b, r, y), g)
        _, lp_value = lp_solve(lp_instance_from_cost(g, b, r))
        if abs(exact - lp_value) > 1e-6:
            failures += 1
            lines.append(f"[FAIL] y={y}: closed form {exact:.9f} vs LP {lp_value:.9f}")
    if failures == 0:
        lines.append(f"[PASS] closed-form one-hot optimum matches LP for y in 1..{3*b} "
                     f"(b={b}, R={r})")
        return EXIT_OK
    return EXIT_COMPUTE


def cmd_verify(args) -> int:
    lines: list[str] = []
    if args.policy is not None:
        code = _verify_policy_file(args, lines)
    elif args.onehot:
        code = _verify_onehot(args, lines)
    else:
        code = _verify_grid(args, lines)
    _emit(args, "\n".join(lines) + "\n")
    return code


def _verify_grid(args, lines: list[str]) -> int:
    _reject(args, ("b", "r"), "applies only with --onehot or --policy")
    b_max = args.b_max
    n_inst = args.instances
    if not 4 <= b_max <= ORACLE_B_MAX:
        raise InvalidParamsError(f"--b-max must lie in [4, {ORACLE_B_MAX}] "
                                 f"(the LP oracle's horizon is 4b, capped at {MAX_HORIZON})")
    if n_inst < 1:
        raise InvalidParamsError("--instances must be >= 1")
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    failures = 0

    mismatch = 0
    for _ in range(n_inst):
        b = int(rng.integers(2, b_max + 1))
        max_day = int(rng.integers(max(3, b), 4 * b + 1))
        n = int(rng.integers(1, min(12, max_day) + 1))
        days = np.sort(rng.choice(np.arange(1, max_day + 1), size=n, replace=False))
        p = DayDistribution(days, rng.dirichlet(np.ones(n)))
        fast = optimal_threshold(p, b)
        slow = brute_force_threshold(p, b)
        if fast[0] != slow[0] or abs(fast[1] - slow[1]) > 1e-9:
            mismatch += 1
    if mismatch == 0:
        lines.append(f"[PASS] streaming threshold matches exhaustive scan "
                     f"on {n_inst} instances")
    else:
        lines.append(f"[FAIL] threshold mismatch on {mismatch}/{n_inst} instances")
        failures += 1

    mismatch = 0
    compared = 0
    for _ in range(max(10, n_inst // 10)):
        b = int(rng.integers(4, b_max + 1))
        r = float(rng.choice([1.7, 2.0, 2.5]))
        max_day = int(rng.integers(b, 4 * b + 1))
        n = int(rng.integers(1, min(10, max_day) + 1))
        days = np.sort(rng.choice(np.arange(1, max_day + 1), size=n, replace=False))
        p = DayDistribution(days, rng.dirichlet(np.ones(n)))
        g = build_cost_function(p, b)
        try:
            _, wf_obj = water_fill(g, b, r)
        except SkirentError:
            continue
        _, lp_obj = lp_solve(lp_instance_from_cost(g, b, r))
        compared += 1
        if abs(wf_obj - lp_obj) > 1e-6:
            mismatch += 1
    if mismatch == 0:
        lines.append(f"[PASS] water filling matches the LP oracle on {compared} instances")
    else:
        lines.append(f"[FAIL] water filling off the LP optimum "
                     f"on {mismatch}/{compared} instances")
        failures += 1

    mismatch = 0
    for b in range(2, b_max + 1):
        for r in (1.7, 2.0, 2.5):
            try:
                policy = geometric_cdf(b, r)
            except SkirentError:
                continue
            if not check_robustness(policy, b, r).feasible:
                mismatch += 1
    if mismatch == 0:
        lines.append("[PASS] closed-form stopping distributions satisfy their constraints")
    else:
        lines.append(f"[FAIL] {mismatch} closed-form distributions violate constraints")
        failures += 1

    return EXIT_OK if failures == 0 else EXIT_COMPUTE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skirent",
        description="Robust and consistent ski-rental policies from distributional advice",
    )
    parser.add_argument("--version", action="version", version=f"skirent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, dist=False):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--b", type=int, help="buy cost (integer >= 2)")
        sp.add_argument("--out", help="also write the result to this path")
        sp.add_argument("--quiet", action="store_true", help="suppress progress logs")
        if dist:
            sp.add_argument("--dist", help="distribution as inline JSON or a file path")

    sp = sub.add_parser("threshold", help="optimal buy day, optionally clamped and bounded")
    common(sp, dist=True)
    sp.add_argument("--lambda", dest="lam", type=float, help="clamp parameter in (0, 1)")
    sp.add_argument("--eta", type=float, help="assumed prediction error for the bound")
    sp.add_argument("--metric", choices=["wasserstein", "tv"],
                    help="error metric of --eta (default wasserstein)")
    sp.set_defaults(func=cmd_threshold, needs=("dist", "b"))

    sp = sub.add_parser("clamp", help="clamp a buy day to the safe interval")
    common(sp)
    sp.add_argument("--t-hat", dest="t_hat", required=True,
                    help="predicted buy day (integer or 'never')")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.set_defaults(func=cmd_clamp, needs=("b", "lam"))

    sp = sub.add_parser("waterfill", help="robust randomized stopping distribution")
    common(sp, dist=True)
    sp.add_argument("--r", type=float, help="robustness level (> 1)")
    sp.add_argument("--epsilon", type=float, help="water-level bisection tolerance of --published")
    sp.add_argument("--published", action="store_true",
                    help="level-restricted policy without exact redistribution")
    sp.set_defaults(func=cmd_waterfill, needs=("dist", "b", "r"))

    sp = sub.add_parser("baseline", help="point-prediction baseline policies")
    common(sp, dist=True)
    sp.add_argument("--r", type=float)
    sp.add_argument("--kind", choices=["majority", "mixture"], required=True)
    sp.set_defaults(func=cmd_baseline, needs=("dist", "b", "r"))

    sp = sub.add_parser("metrics", help="distances between distributions, policy scores")
    common(sp, dist=True)
    sp.add_argument("--dist2", help="second distribution for distance metrics")
    sp.add_argument("--policy", help="policy JSON file to score under --dist")
    sp.set_defaults(func=cmd_metrics, needs=("dist",))

    sp = sub.add_parser("experiment", help="run the consistency table or the error sweep")
    common(sp)
    sp.add_argument("which", choices=["table", "sweep"])
    sp.add_argument("--r", type=float)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--seed", type=int, help="master seed (or env SKIRENT_SEED)")
    sp.add_argument("--etas", help="comma-separated perturbation budgets")
    sp.add_argument("--trials", type=int, help="random transports per budget")
    sp.add_argument("--format", choices=["csv", "json"])
    sp.set_defaults(func=cmd_experiment, needs=())

    sp = sub.add_parser("verify", help="cross-check fast paths against brute-force oracles")
    common(sp)
    sp.add_argument("--r", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--b-max", dest="b_max", type=int, default=12)
    sp.add_argument("--instances", type=int, default=200)
    sp.add_argument("--onehot", action="store_true",
                    help="sweep the closed-form one-hot optimum against the LP")
    sp.add_argument("--policy", help="verify a policy JSON file against --b/--r")
    sp.set_defaults(func=cmd_verify, needs=())

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, argv, args)
        _validate_common(args)
        _require(args, *args.needs)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the unwritten rest is dropped
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_COMPUTE
    except (InvalidParamsError, ScaleExceededError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SkirentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
