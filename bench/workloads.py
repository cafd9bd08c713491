"""The benchmark's workloads: seeded inputs, one request, and its output checks.

Every workload is a closed loop with one client: the next request is sent when
the previous one has returned.  The workload seed reaches only ``generate``;
the library receives the generated distributions (or sweep master seeds), the
buy cost ``b`` and the robustness level ``R``.

Request streams are built from a fixed pattern of request classes, so that any
prefix of whole blocks has the same mix whatever the seed, and the seed only
changes the predictions inside each class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import skirent as sk
from skirent import BaselineKind, DayDistribution, Family, FamilySpec
from skirent.evaluation import TABLE_FAMILIES

import gates

R_LEVELS = (1.7, 2.0, 2.5)

#: Objective slack allowed when comparing exact against published mode.
OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True)
class Request:
    """One prediction to solve, with its buy cost and robustness level."""

    label: str
    p: DayDistribution
    b: int
    R: float


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[np.random.Generator], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    instances: Callable[[Any], int]  # predictions scored by one request
    size_class: Callable[[Any], str]  # latency class, for the breakdown lines
    round_size: int  # requests in one traced round
    gates: tuple[Callable[[], tuple[int, list[str]]], ...] = ()  # checks run after the loop


# ---------------------------------------------------------------------------
# sweep: the paper's headline experiment and the slowest Tier-1 test.  About
# 60% of its time is perturb_wasserstein and 30% the water-level bisection; it
# never calls _lp_refine.

SWEEP_B, SWEEP_R = 50, 1.7
SWEEP_TRIALS = 1  # trials per eta in one request; the grid is the default 11 budgets
SWEEP_ETAS = 11
SWEEP_REQUESTS = 512


def sweep_generate(rng: np.random.Generator) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**32, size=SWEEP_REQUESTS)]


def sweep_run(master_seed: int) -> sk.ExperimentResult:
    return sk.run_perturbation_sweep(b=SWEEP_B, R=SWEEP_R, n_trials=SWEEP_TRIALS,
                                     seed=master_seed)


def sweep_check(master_seed: int, result: sk.ExperimentResult) -> list[str]:
    problems = []
    expected = SWEEP_ETAS * SWEEP_TRIALS * 3
    if len(result.rows) != expected:
        problems.append(f"sweep seed {master_seed}: {len(result.rows)} rows, "
                        f"expected {expected}")
    bad = [r for r in result.rows if not math.isfinite(r.consistency)]
    if bad:
        problems.append(f"sweep seed {master_seed}: {len(bad)} non-finite consistencies")
    return problems


SWEEP = Workload(
    name="sweep",
    generate=sweep_generate,
    run=sweep_run,
    check=sweep_check,
    instances=lambda _: SWEEP_ETAS * SWEEP_TRIALS,
    size_class=lambda _: f"b{SWEEP_B}",
    round_size=5,
    gates=(gates.sweep_dominance_gate,),
)


# ---------------------------------------------------------------------------
# exact: the quick-start request in exact mode, the default of both the library
# and the CLI.  At b >= 500, _lp_refine is over 90% of request time and sets the
# peak RSS; the workload runs no perturbation and no baselines.

# 5 b50, 6 b500 and 2 b2000 requests per block: the median falls inside the
# b500 class and the 90th percentile inside the b2000 class.
EXACT_PATTERN = (50, 500, 2000, 50, 500, 500, 50, 500, 50, 2000, 500, 50, 500)
EXACT_BLOCKS = 20
EXACT_KINDS = tuple(label for label, _ in TABLE_FAMILIES) + ("sparse",)
# Sparse predictions are used below b=2000 only: there exact mode takes 2-8 s per
# sparse request against about 1.7 s per table family, so the two or three a run
# could hold would decide its time by which seed drew them.
SPARSE_B_LIMIT = 2000
CLAMP_LAMBDA, CLAMP_ETA = 1.0 / 3.0, 2.0


def sparse_prediction(rng: np.random.Generator, b: int) -> DayDistribution:
    """2-12 atoms on days up to 4b with Dirichlet masses."""
    n = int(rng.integers(2, 13))
    days = np.sort(rng.choice(np.arange(1, 4 * b + 1), size=n, replace=False))
    return DayDistribution(tuple(int(d) for d in days), tuple(rng.dirichlet(np.ones(n))))


def exact_generate(rng: np.random.Generator) -> list[Request]:
    families = {label: sk.make_distribution(spec) for label, spec in TABLE_FAMILIES}
    counters = dict.fromkeys(EXACT_PATTERN, 0)
    out = []
    for _ in range(EXACT_BLOCKS):
        for b in EXACT_PATTERN:
            k = counters[b]
            counters[b] += 1
            kinds = EXACT_KINDS if b < SPARSE_B_LIMIT else tuple(families)
            kind = kinds[k % len(kinds)]
            R = R_LEVELS[(k // len(kinds)) % len(R_LEVELS)]
            p = sparse_prediction(rng, b) if kind == "sparse" else families[kind]
            out.append(Request(kind, p, b, R))
    return out


def exact_run(req: Request) -> tuple[sk.StoppingDistribution, float]:
    sk.optimal_threshold(req.p, req.b)
    sk.robust_consistent_bound(req.p, req.b, lam=CLAMP_LAMBDA, eta=CLAMP_ETA)
    g = sk.build_cost_function(req.p, req.b)
    policy, objective = sk.water_fill(g, req.b, req.R)
    if not sk.check_robustness(policy, req.b, req.R).feasible:
        raise sk.InfeasibleError("emitted policy is not R-robust")
    return policy, objective


def exact_check(req: Request, out: tuple[sk.StoppingDistribution, float]) -> list[str]:
    """Exact mode must be no worse than the published (level-restricted) policy."""
    _, objective = out
    g = sk.build_cost_function(req.p, req.b)
    _, published = sk.water_fill(g, req.b, req.R, exact=False)
    if objective > published + OBJECTIVE_TOL * (1.0 + abs(published)):
        return [f"exact {req.label} b={req.b} R={req.R}: exact objective {objective!r} "
                f"above published {published!r}"]
    return []


EXACT = Workload(
    name="exact",
    generate=exact_generate,
    run=exact_run,
    check=exact_check,
    instances=lambda _: 1,
    size_class=lambda req: f"b{req.b}",
    round_size=len(EXACT_PATTERN),
)


# ---------------------------------------------------------------------------
# dense: the table pipeline in published mode on fine-grained predictions.  It
# drives the fill and bisection path instead of the LP, and loads
# build_cost_function and both baselines at scale: an LP change must leave it
# flat, and a fill change must show here.

# 4 b500 requests to 1 b2000 request: the median falls inside the b500 class
# and the 90th percentile in the middle of the b2000 class.
DENSE_PATTERN = (500, 500, 2000, 500, 500)
DENSE_BLOCKS = 30
DENSE_FAMILIES = (Family.UNIFORM, Family.GAUSSIAN_DISCRETIZED, Family.GEOMETRIC_TRUNCATED)
DENSE_ATOMS = (1000, 1800, 3300, 6000, 11000, 20000)


def dense_prediction(rng: np.random.Generator, family: Family, atoms: int) -> DayDistribution:
    """A ``family`` prediction with about ``atoms`` atoms, shape jittered by ``rng``."""
    n = int(round(atoms * rng.uniform(0.9, 1.0)))
    if family is Family.UNIFORM:
        low = int(rng.integers(1, 50))
        params = {"low": low, "high": low + n - 1}
    elif family is Family.GAUSSIAN_DISCRETIZED:
        params = {"mean": n * rng.uniform(0.4, 0.6), "stddev": n * rng.uniform(0.12, 0.2),
                  "low": 1, "high": n}
    else:
        params = {"rate": rng.uniform(2.0, 6.0) / n, "low": 1, "high": n}
    return sk.make_distribution(FamilySpec(family, params))


def dense_generate(rng: np.random.Generator) -> list[Request]:
    counters = dict.fromkeys(DENSE_PATTERN, 0)
    out = []
    for _ in range(DENSE_BLOCKS):
        for b in DENSE_PATTERN:
            k = counters[b]
            counters[b] += 1
            # Every combination of the 6 sizes, 3 levels and 3 families comes once in
            # 54 requests, and any run of consecutive requests is nearly balanced.
            atoms = DENSE_ATOMS[k % len(DENSE_ATOMS)]
            R = R_LEVELS[(k + k // len(DENSE_ATOMS)) % len(R_LEVELS)]
            family = DENSE_FAMILIES[(k // len(R_LEVELS) + k // (len(DENSE_ATOMS) * len(R_LEVELS)))
                                    % len(DENSE_FAMILIES)]
            out.append(Request(family.value, dense_prediction(rng, family, atoms), b, R))
    return out


def dense_run(req: Request) -> tuple[sk.StoppingDistribution, ...]:
    g = sk.build_cost_function(req.p, req.b)
    ours, _ = sk.water_fill(g, req.b, req.R, exact=False)
    if not sk.check_robustness(ours, req.b, req.R).feasible:
        raise sk.InfeasibleError("emitted policy is not R-robust")
    majority = sk.baseline_policy(req.p, req.b, req.R, BaselineKind.MAJORITY_BRANCH)
    mixture = sk.baseline_policy(req.p, req.b, req.R, BaselineKind.MIXTURE)
    for policy in (ours, majority, mixture):
        sk.expected_policy_cost(policy, g)
    return ours, majority, mixture


def dense_check(req: Request, policies: tuple[sk.StoppingDistribution, ...]) -> list[str]:
    """Both baselines must be R-robust too (the request checks the water fill)."""
    return [f"dense {req.label} b={req.b} R={req.R}: {name} baseline is not R-robust"
            for name, policy in zip(("majority", "mixture"), policies[1:])
            if not sk.check_robustness(policy, req.b, req.R).feasible]


DENSE = Workload(
    name="dense",
    generate=dense_generate,
    run=dense_run,
    check=dense_check,
    instances=lambda _: 1,
    size_class=lambda req: f"b{req.b}",
    round_size=len(DENSE_PATTERN),
)


WORKLOADS = {w.name: w for w in (SWEEP, EXACT, DENSE)}
