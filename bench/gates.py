"""Correctness gates run after the timed region of every benchmark run.

The benchmark keeps its own copy of the reference consistency table, so a
change to the library's tests cannot silently move what the benchmark accepts.
"""
from __future__ import annotations

import skirent as sk

#: Reference consistency table at b=50, R=1.7: family -> (water_fill, majority, mixture).
REFERENCE_TABLE = {
    "unif100": (1.1612, 1.1782, 1.1866),
    "unif200": (1.3331, 1.3492, 1.3643),
    "gauss": (1.3375, 1.4195, 1.4169),
    "geom": (1.2879, 1.4114, 1.4183),
    "twopoint": (1.0415, 1.2448, 1.2547),
}
TABLE_TOL = 0.005
#: The one cell that the documented moment convention cannot reproduce.
IRREPRODUCIBLE_CELL = ("geom", "water_fill")
POLICIES = ("water_fill", "majority", "mixture")


def table_gate() -> tuple[int, list[str]]:
    """Check the 14 reproducible cells and that the geom water-fill cell still misses."""
    result = sk.run_consistency_table(b=50, R=1.7)
    cells = {(r.family, r.policy): r.consistency for r in result.rows}
    problems = []
    for family, refs in REFERENCE_TABLE.items():
        for policy, ref in zip(POLICIES, refs):
            got = cells[(family, policy)]
            close = abs(got - ref) <= TABLE_TOL
            if (family, policy) == IRREPRODUCIBLE_CELL:
                if close:
                    problems.append(f"table {family}/{policy}: {got:.4f} now matches {ref}; "
                                    "the known irreproducible cell changed")
            elif not close:
                problems.append(f"table {family}/{policy}: {got:.4f} vs reference {ref}")
    return len(REFERENCE_TABLE) * len(POLICIES), problems


def sweep_dominance_gate() -> tuple[int, list[str]]:
    """At seed 0, water filling is no worse on average than either baseline at every eta."""
    result = sk.run_perturbation_sweep(b=50, R=1.7, n_trials=25, seed=0)
    problems = []
    etas = result.etas()
    for eta in etas:
        ours = result.mean_consistency("water_fill", eta)
        for baseline in ("majority", "mixture"):
            theirs = result.mean_consistency(baseline, eta)
            if ours > theirs + 1e-12:
                problems.append(f"sweep seed 0 eta={eta}: water_fill {ours:.6f} "
                                f"above {baseline} {theirs:.6f}")
    if len(etas) != 11:
        problems.append(f"sweep seed 0: {len(etas)} eta budgets, expected 11")
    return max(len(etas), 1), problems
