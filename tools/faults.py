"""Time, minor page faults and traced memory of a benchmark workload, per request class.

    python tools/faults.py [--workload dense] [--requests 150]

Generates the workload's requests at seed 1 with ``bench/workloads.py`` (read,
not edited), serves the first two once to warm up, then runs each of the first
N requests twice in this process: once timed, with the minor page faults that
``resource.getrusage`` counts over it, and once under ``tracemalloc`` for its
peak of traced memory.  Prints one line per request class (the workload's
``size_class``): the request count, the median time in microseconds, the mean
minor faults per request, and the median traced peak in atom arrays, 8 (n + 1)
bytes for a prediction of n atoms ("-" for requests without a prediction, whose
peak is given in KB).
"""
from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402  (found through the path above)

SEED = 1
WARMUP_REQUESTS = 2


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def traced_peak(run, request) -> int:
    """Peak bytes that tracemalloc traces while ``run(request)`` runs."""
    tracemalloc.start()
    try:
        run(request)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def atom_array(request) -> int | None:
    """Bytes of one float array over the request's prediction and one more entry."""
    prediction = getattr(request, "p", None)
    return None if prediction is None else 8 * (prediction._days_arr.size + 1)


def measure(workload, requests: list) -> dict[str, list[tuple[float, int, int, int | None]]]:
    """Per class, (us, minor faults, traced peak bytes, atom array bytes) of each request."""
    for request in requests[:WARMUP_REQUESTS]:
        workload.run(request)
    by_class: dict[str, list[tuple[float, int, int, int | None]]] = {}
    for request in requests:
        faults, start = minor_faults(), time.perf_counter()
        workload.run(request)
        us, faults = (time.perf_counter() - start) * 1e6, minor_faults() - faults
        row = (us, faults, traced_peak(workload.run, request), atom_array(request))
        by_class.setdefault(workload.size_class(request), []).append(row)
    return by_class


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="dense", choices=sorted(WORKLOADS))
    parser.add_argument("--requests", type=int, default=150)
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be at least 1")
    workload = WORKLOADS[args.workload]
    requests = workload.generate(np.random.default_rng(SEED))[:args.requests]
    by_class = measure(workload, requests)
    print(f"workload {workload.name}, seed {SEED}, {len(requests)} requests")
    print(f"{'class':<8}{'requests':>9}{'median_us':>11}{'minflt':>9}{'peak_atoms':>12}")
    for name in sorted(by_class, key=lambda c: (len(c), c)):
        rows = by_class[name]
        us = statistics.median(r[0] for r in rows)
        faults = statistics.fmean(r[1] for r in rows)
        if all(r[3] for r in rows):
            peak = f"{statistics.median(r[2] / r[3] for r in rows):.2f}"
        else:
            peak = f"- ({statistics.median(r[2] for r in rows) / 1024:.0f} KB)"
        print(f"{name:<8}{len(rows):>9}{us:>11.0f}{faults:>9.1f}{peak:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
