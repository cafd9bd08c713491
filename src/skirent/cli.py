"""Command-line front end: policies, experiments, and oracle verification."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .baselines import BaselineKind, baseline_policy
from .deterministic import (
    NEVER,
    clamp_threshold,
    is_never,
    optimal_threshold,
    robust_consistent_bound,
)
from .distributions import (
    DayDistribution,
    _as_int,
    _as_real,
    parse_distribution,
    total_variation,
    wasserstein1,
)
from .errors import InfeasibleError, InvalidParamsError, ScaleExceededError, SkirentError
from .evaluation import consistency, run_consistency_table, run_perturbation_sweep
from .oracle import MAX_HORIZON, ONEHOT_PROPERTIES, PROPERTIES, draw_instance
from .randomized import (
    build_cost_function,
    check_robustness,
    expected_policy_cost,
    parse_policy,
    realized_worst_ratio,
    water_fill,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2

ORACLE_B_MAX = MAX_HORIZON // 4  # verify instances reach day 4b, the oracle's horizon
ORACLE_CAP = f" (the LP oracle's horizon is 4b, capped at {MAX_HORIZON})"


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


# flag -> (argparse dest, its other argparse keywords); every flag is declared here once
FLAGS = {
    "--config": ("config", {"help": "JSON config file keyed by flag names; flags override it"}),
    "--out": ("out", {"help": "also write the result to this path"}),
    "--quiet": ("quiet", {"action": "store_true", "help": "suppress progress logs"}),
    "--dist": ("dist", {"help": "distribution as inline JSON or a file path"}),
    "--dist2": ("dist2", {"help": "second distribution for distance metrics"}),
    "--policy": ("policy", {"help": "policy JSON file to score or verify"}),
    "--b": ("b", {"type": int, "help": "buy cost (integer >= 2)"}),
    "--r": ("r", {"type": float, "help": "robustness level (> 1)"}),
    "--lambda": ("lam", {"type": float, "help": "clamp parameter in (0, 1)"}),
    "--eta": ("eta", {"type": float, "help": "assumed prediction error for the bound"}),
    "--metric": ("metric", {"choices": ["wasserstein", "tv"],
                            "help": "error metric of --eta (default wasserstein)"}),
    "--t-hat": ("t_hat", {"help": "predicted buy day (integer or 'never')"}),
    "--published": ("published", {"action": "store_true",
                                  "help": "level-restricted policy without exact redistribution"}),
    "--epsilon": ("epsilon", {"type": float, "help": "water-level bisection tolerance"}),
    "--kind": ("kind", {"choices": ["majority", "mixture"]}),
    "--seed": ("seed", {"type": int, "help": "master seed (or env SKIRENT_SEED)"}),
    "--etas": ("etas", {"help": "comma-separated perturbation budgets"}),
    "--trials": ("trials", {"type": int, "help": "random transports per budget"}),
    "--format": ("format", {"choices": ["csv", "json"]}),
    "--b-max": ("b_max", {"type": int, "help": "largest b of the grid (default 12)"}),
    "--instances": ("instances", {"type": int, "help": "grid instances (default 200)"}),
    "--onehot": ("onehot", {"action": "store_true",
                            "help": "sweep onehot_exact, the exact fill of a one-hot, against the LP"}),
}
COMMON = ("--config", "--out", "--quiet")  # every command takes these


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str],
                       args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from a JSON config file whose keys are flag names (flags always win).

    A key naming no flag of the command, or naming ``config``, exits 2.  A
    switch takes true or false.  Other values are parsed again as flags, so
    they get the flags' typing and choices: a string goes in as it is,
    anything else as its JSON text, and a value the flag would reject exits 2
    through argparse.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise InvalidParamsError("the config file must hold a JSON object")
    flags = [flag for flag in _flags_of(args.command) if flag != "--config"]
    extra = []
    for key, value in conf.items():
        flag = f"--{key}"
        if flag not in flags:
            keys = ", ".join(flag[2:] for flag in flags)
            raise InvalidParamsError(f"config key {key!r} is not one of the keys "
                                     f"'{args.command}' takes: {keys}")
        dest, keywords = FLAGS[flag]
        if keywords.get("action") == "store_true":
            if not isinstance(value, bool):
                raise InvalidParamsError(f"config key {key!r} is a switch: true or false, "
                                         f"got {value!r}")
            if value:
                extra.append(flag)
        elif getattr(args, dest) is None:
            extra.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return parser.parse_args([*argv, *extra]) if extra else args


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("SKIRENT_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            raise InvalidParamsError(f"SKIRENT_SEED must be an integer, got {env!r}") from None
    return _as_int(seed, "the seed", 0)


def _validate_common(args) -> None:
    if getattr(args, "b", None) is not None and args.b < 2:
        raise InvalidParamsError("--b must be >= 2")
    for flag, bounds in (("--r", {"above": 1.0}), ("--lambda", {"above": 0.0, "below": 1.0}),
                         ("--eta", {"least": 0.0}), ("--epsilon", {"above": 0.0})):
        value = getattr(args, FLAGS[flag][0], None)
        if value is not None:
            _as_real(value, flag, **bounds)
    if getattr(args, "trials", None) is not None and args.trials < 1:
        raise InvalidParamsError("--trials must be >= 1")


def cmd_threshold(args) -> int:
    p_hat = _load_dist(args.dist)
    t_star, cost = optimal_threshold(p_hat, args.b)
    payload = {"t_star": _threshold_json(t_star), "cost": cost}
    if args.lam is not None:
        eta = args.eta if args.eta is not None else 0.0
        report = asdict(robust_consistent_bound(p_hat, args.b, args.lam, eta,
                                                metric=args.metric or "wasserstein"))
        payload["clamped_t"] = report.pop("clamped_t")
        payload["bound_report"] = report
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
        with open(args.policy) as fh:
            policy = parse_policy(json.load(fh))
        payload["consistency"] = consistency(p, policy, args.b)
        g = build_cost_function(p, args.b)
        payload["expected_cost"] = expected_policy_cost(policy, g)
        horizon = max(policy.max_day, 5 * args.b)
        payload["worst_ratio"] = realized_worst_ratio(policy, args.b, horizon)
    _emit(args, payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    b = args.b if args.b is not None else 50
    r = args.r if args.r is not None else 1.7
    if args.which == "table":
        _log(args, f"running consistency table at (b, R) = ({b}, {r})")
        result = run_consistency_table(b=b, R=r, epsilon=args.epsilon)
    else:
        etas = None
        if args.etas is not None:
            try:
                etas = [float(x) for x in args.etas.split(",")]
            except ValueError:  # an empty entry too: '2,,4' is not a grid of two
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
    b = args.b
    if b > ORACLE_B_MAX:
        raise InvalidParamsError(f"--b must be at most {ORACLE_B_MAX} with --onehot{ORACLE_CAP}")
    r = args.r if args.r is not None else 2.0
    instances = [(DayDistribution((y,), (1.0,)), b, r) for y in range(1, 3 * b + 1)]
    return _check_properties(lines, ONEHOT_PROPERTIES, instances,
                             f"one-hots, y in 1..{3 * b} (b={b}, R={r})")


def cmd_verify(args) -> int:
    lines: list[str] = []
    check = {"--policy": _verify_policy_file, "--onehot": _verify_onehot, "": _verify_grid}
    code = check[args.mode](args, lines)
    _emit(args, "\n".join(lines) + "\n")
    return code


def _verify_grid(args, lines: list[str]) -> int:
    b_max = 12 if args.b_max is None else args.b_max
    n_inst = 200 if args.instances is None else args.instances
    if not 4 <= b_max <= ORACLE_B_MAX:
        raise InvalidParamsError(f"--b-max must lie in [4, {ORACLE_B_MAX}]{ORACLE_CAP}")
    if n_inst < 1:
        raise InvalidParamsError("--instances must be >= 1")
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    return _check_properties(lines, PROPERTIES, [draw_instance(rng, b_max) for _ in range(n_inst)],
                             f"seeded instances (b <= {b_max}, seed {seed})")


def _check_properties(lines: list[str], properties: dict, instances: list, over: str) -> int:
    """One [PASS]/[FAIL] line per property.  It fails on a failure message, on a
    SkirentError that is not an agreed InfeasibleError, and on comparing nothing."""
    for name, check in properties.items():
        faults, infeasible = [], []
        for instance in instances:
            try:
                faults.append(check(*instance))
            except InfeasibleError as exc:  # no R-robust policy, and the oracle agrees
                infeasible.append(exc)
            except ScaleExceededError:  # an instance past the oracle's reach is bad input
                raise
            except SkirentError as exc:
                faults.append(f"{type(exc).__name__}: {exc}")
        faults = [fault for fault in faults if fault is not None]
        compared = len(instances) - len(infeasible)
        line = f"{name} on {compared} {over}"
        if infeasible:
            line += f"; {len(infeasible)} more agreed infeasible, the last: {infeasible[-1]}"
        if faults:
            line += f"; fails on {len(faults)}, the first: {faults[0]}"
        lines.append(f"[{'FAIL' if faults or not compared else 'PASS'}] {line}")
    return EXIT_COMPUTE if any(line.startswith("[FAIL]") for line in lines) else EXIT_OK


# command -> (function, help, modes).  The first mode whose flag is given (or
# whose name is experiment's positional) picks the mode, and "" when none is;
# a mode maps to the flags it requires and the flags it also reads.
COMMANDS = {
    "threshold": (cmd_threshold, "optimal buy day, optionally clamped and bounded", {
        "--lambda": (("--lambda", "--dist", "--b"), ("--eta", "--metric")),
        "": (("--dist", "--b"), ())}),
    "clamp": (cmd_clamp, "clamp a buy day to the safe interval", {
        "": (("--t-hat", "--b", "--lambda"), ())}),
    "waterfill": (cmd_waterfill, "robust randomized stopping distribution", {
        "--published": (("--published", "--dist", "--b", "--r"), ("--epsilon",)),
        "": (("--dist", "--b", "--r"), ())}),
    "baseline": (cmd_baseline, "point-prediction baseline policies", {
        "": (("--dist", "--b", "--r", "--kind"), ())}),
    "metrics": (cmd_metrics, "distances between distributions, policy scores", {
        "--policy": (("--policy", "--dist", "--b"), ("--dist2",)),
        "": (("--dist", "--dist2"), ())}),
    "experiment": (cmd_experiment, "run the consistency table or the error sweep", {
        "table": ((), ("--b", "--r", "--epsilon", "--format")),
        "sweep": ((), ("--b", "--r", "--epsilon", "--format", "--seed", "--etas", "--trials"))}),
    "verify": (cmd_verify, "cross-check fast paths against brute-force oracles", {
        "--policy": (("--policy", "--b", "--r"), ()),
        "--onehot": (("--onehot", "--b"), ("--r",)),
        "": ((), ("--b-max", "--instances", "--seed"))}),
}


def _given(args, flag: str) -> bool:
    value = getattr(args, FLAGS[flag][0], None)  # None unset, False an unset switch
    return value is not None and value is not False


def _pick_mode(args) -> str:
    """The command's mode; exit 2 on a required flag it lacks or a given flag it does not read."""
    modes = COMMANDS[args.command][2]
    mode = next(m for m in modes
                if m in ("", getattr(args, "which", None)) or m in FLAGS and _given(args, m))
    required, also = modes[mode]
    for flag in required:
        if not _given(args, flag):
            raise InvalidParamsError(f"missing required option {flag}")
    ignored = [flag for flag in FLAGS
               if flag not in (*COMMON, *required, *also) and _given(args, flag)]
    if ignored:
        default = "without " + "/".join(filter(None, modes))
        readers = [f"'{args.command} {m or default}'" for m, flags in modes.items()
                   if any(flag in (*flags[0], *flags[1]) for flag in ignored)]
        raise InvalidParamsError(f"{', '.join(ignored)} appl{'y' if ignored[1:] else 'ies'} "
                                 f"only to {' or '.join(readers)}")
    return mode


def _flags_of(command: str) -> list[str]:
    """The flags a command takes: the common ones and those its modes read, in ``FLAGS`` order."""
    modes = COMMANDS[command][2].values()
    reads = {flag for flags in modes for flag in (*flags[0], *flags[1])}
    return [flag for flag in FLAGS if flag in COMMON or flag in reads]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skirent", description="Robust and consistent "
                                     "ski-rental policies from distributional advice")
    parser.add_argument("--version", action="version", version=f"skirent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, modes) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)  # no --eta for --etas
        if positional := [m for m in modes if m and m not in FLAGS]:
            sp.add_argument("which", choices=positional)
        for flag in _flags_of(name):
            dest, keywords = FLAGS[flag]
            sp.add_argument(flag, dest=dest, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(parser, argv, args)
        args.mode = _pick_mode(args)
        _validate_common(args)
        code = COMMANDS[args.command][0](args)
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
    except MemoryError as exc:  # an allocation failed, say near MAX_DAYS
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
