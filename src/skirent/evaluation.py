"""Metrics and experiment runners: the consistency table and the perturbation sweep."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .baselines import BaselineKind, baseline_policy
from .deterministic import NEVER, clamp_threshold, expected_cost_threshold, optimal_threshold
from .distributions import (
    DayDistribution,
    Family,
    FamilySpec,
    make_distribution,
    perturb_wasserstein,
    _as_b,
    _as_int,
    _as_real,
)
from .errors import InvalidParamsError
from .randomized import (
    CostFunction,
    StoppingDistribution,
    build_cost_function,
    expected_policy_cost,
    water_fill,
)

#: The five reference prediction families evaluated in the consistency table.
TABLE_FAMILIES: tuple[tuple[str, FamilySpec], ...] = (
    ("unif100", FamilySpec(Family.UNIFORM, {"low": 1, "high": 100})),
    ("unif200", FamilySpec(Family.UNIFORM, {"low": 1, "high": 200})),
    ("gauss", FamilySpec(Family.GAUSSIAN_DISCRETIZED,
                         {"mean": 50, "stddev": 12, "low": 1, "high": 150})),
    ("geom", FamilySpec(Family.GEOMETRIC_TRUNCATED, {"rate": 0.05, "low": 1, "high": 600})),
    ("twopoint", FamilySpec(Family.TWO_POINT, {"atoms": [[30, 0.7], [120, 0.3]]})),
)

POLICY_LABELS = ("water_fill", "majority", "mixture")


@dataclass(frozen=True)
class ResultRow:
    family: str
    policy: str
    eta: float
    trial: int
    consistency: float
    objective: float


@dataclass(frozen=True)
class ExperimentResult:
    """Labeled consistency measurements plus the configuration that produced them."""

    rows: tuple[ResultRow, ...]
    metadata: dict

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.consistency < 1.0 - 1e-9:
                raise InvalidParamsError(
                    f"consistency {row.consistency} below 1 for {row.family}/{row.policy}")
        ordered = tuple(sorted(self.rows,
                               key=lambda r: (r.family, r.policy, r.eta, r.trial)))
        object.__setattr__(self, "rows", ordered)

    def mean_consistency(self, policy: str, eta: float | None = None) -> float:
        vals = [r.consistency for r in self.rows
                if r.policy == policy and (eta is None or r.eta == eta)]
        if not vals:
            raise InvalidParamsError(f"no rows for policy {policy!r}, eta {eta!r}")
        return float(np.mean(vals))

    def etas(self) -> tuple[float, ...]:
        return tuple(sorted({r.eta for r in self.rows}))

    def to_csv(self) -> str:
        lines = ["family,policy,eta,trial,consistency,objective"]
        for r in self.rows:
            lines.append(f"{r.family},{r.policy},{r.eta:.6g},{r.trial},"
                         f"{r.consistency:.6g},{r.objective:.6g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "metadata": self.metadata,
            "rows": [{"family": r.family, "policy": r.policy,
                      "eta": float(f"{r.eta:.6g}"), "trial": r.trial,
                      "consistency": float(f"{r.consistency:.6g}"),
                      "objective": float(f"{r.objective:.6g}")} for r in self.rows],
        }, indent=2, sort_keys=True)


def consistency(p: DayDistribution, f: StoppingDistribution, b: int) -> float:
    """E[g(Z)] / min_t g(t) with the stopping cost g built from the true p.

    The minimum ranges over every buy day including never buying, so the ratio
    is at least 1.
    """
    b = _as_b(b)
    g = build_cost_function(p, b)
    _, best = optimal_threshold(p, b)
    return expected_policy_cost(f, g) / best


def _score_policies(p_hat: DayDistribution, g_hat: CostFunction, g_true: CostFunction,
                    best: float, b: int, R: float, epsilon: float | None,
                    family: str, eta: float = 0.0, trial: int = 0) -> list[ResultRow]:
    """Build the three policies from the prediction and score them under the truth.

    Water filling runs on the prediction's cost ``g_hat``; each policy's
    consistency is its expected cost under ``g_true`` over the optimum ``best``.
    """
    policies = (water_fill(g_hat, b, R, epsilon, exact=False)[0],
                baseline_policy(p_hat, b, R, BaselineKind.MAJORITY_BRANCH),
                baseline_policy(p_hat, b, R, BaselineKind.MIXTURE))
    rows = []
    for label, policy in zip(POLICY_LABELS, policies):
        cost = expected_policy_cost(policy, g_true)
        rows.append(ResultRow(family=family, policy=label, eta=eta, trial=trial,
                              consistency=cost / best, objective=cost))
    return rows


def _plain(x):
    """A numpy scalar as the Python number it holds, so that metadata serialises to
    JSON: an int R stays an int; any other value as it is."""
    return x.item() if isinstance(x, np.generic) else x


def run_consistency_table(b: int = 50, R: float = 1.7,
                          epsilon: float | None = None) -> ExperimentResult:
    """Evaluate water-filling and both baselines on the five reference families.

    Follows the published experimental procedure: level-restricted water
    filling and the source algorithm's branch lengths.
    """
    b = _as_b(b)
    rows = []
    for label, spec in TABLE_FAMILIES:
        p = make_distribution(spec)
        g = build_cost_function(p, b)
        _, best = optimal_threshold(p, b)
        rows += _score_policies(p, g, g, best, b, R, epsilon, family=label)
    return ExperimentResult(rows=tuple(rows),
                            metadata={"b": b, "R": _plain(R), "epsilon": _plain(epsilon),
                                      "n_trials": 1,
                                      "rounding": "purohit", "exact": False})


def gaussian_high_cutoff(mean: float, stddev: float, tol: float = 1e-9) -> int:
    """Smallest truncation day keeping all but ``tol`` of the discretized mass."""
    probe = int(math.ceil(mean + 20 * stddev))
    days = np.arange(1, probe + 1)
    weights = np.exp(-0.5 * ((days - mean) / stddev) ** 2)
    cum = np.cumsum(weights) / weights.sum()
    return int(days[np.searchsorted(cum, 1.0 - tol)])


def sweep_true_distribution(mean: float = 90.0, stddev: float = 12.0) -> DayDistribution:
    """Discretized Gaussian horizon used by the perturbation sweep."""
    high = gaussian_high_cutoff(mean, stddev)
    return make_distribution(FamilySpec(
        Family.GAUSSIAN_DISCRETIZED,
        {"mean": mean, "stddev": stddev, "low": 1, "high": high},
    ))


def _child_seed(master: int, eta_index: int, trial: int) -> int:
    return int(np.random.SeedSequence((master, eta_index, trial)).generate_state(1)[0])


def run_perturbation_sweep(b: int = 50, R: float = 1.7,
                           eta_grid: Iterable[float] | None = None,
                           n_trials: int = 25, seed: int = 0,
                           epsilon: float | None = None) -> ExperimentResult:
    """Degrade the prediction by random transports and score the induced policies.

    Policies are computed from the perturbed prediction, but consistency is
    always evaluated under the true distribution.  Each (eta, trial) pair gets
    its own child seed derived from the master seed, so runs are reproducible.
    """
    b = _as_b(b)
    seed = _as_int(seed, "the seed", 0)
    n_trials = _as_int(n_trials, "n_trials", 1)
    etas = tuple(_as_real(eta, "eta", least=0.0)
                 for eta in (range(0, 21, 2) if eta_grid is None else eta_grid))
    if not etas:
        raise InvalidParamsError("the eta grid is empty")
    if len(set(etas)) < len(etas):
        # rows are keyed by (eta, trial), so a repeated eta would duplicate keys
        raise InvalidParamsError(f"the eta grid repeats a value: {list(etas)}")
    p_true = sweep_true_distribution()
    g_true = build_cost_function(p_true, b)
    _, best = optimal_threshold(p_true, b)
    rows = []
    for eta_index, eta in enumerate(etas):
        for trial in range(n_trials):
            p_hat = perturb_wasserstein(p_true, eta, _child_seed(seed, eta_index, trial))
            rows += _score_policies(p_hat, build_cost_function(p_hat, b), g_true, best,
                                    b, R, epsilon, family="gauss90", eta=eta, trial=trial)
    return ExperimentResult(rows=tuple(rows),
                            metadata={"b": b, "R": _plain(R), "epsilon": _plain(epsilon),
                                      "n_trials": n_trials, "seed": seed,
                                      "eta_grid": list(etas), "rounding": "purohit",
                                      "exact": False})


def case_study_lambda_third(b: int) -> tuple[float, float]:
    """Two-atom horizon study at clamp parameter 1/3.

    The horizon is 2b/3 or 2b with equal probability.  Returns the expected
    cost of the best buy day inside the clamp interval [b/3, 3b], which is
    ``clamp_threshold``'s at lambda = 1/3, together with the 4b/3 cost of the
    point-prediction deterministic comparator (which buys at b/3 or 3b).  With
    b divisible by 6 both values are exact: (7b/6, 4b/3).
    """
    b = _as_b(b)
    if b % 6 != 0:
        raise InvalidParamsError("b must be divisible by 6 so all costs are exact")
    p = DayDistribution((2 * b // 3, 2 * b), (0.5, 0.5))
    lo, hi = clamp_threshold(1, b, 1 / 3), clamp_threshold(NEVER, b, 1 / 3)
    best = min(expected_cost_threshold(p, b, t) for t in range(lo, hi + 1))
    return best, 4.0 * b / 3.0
