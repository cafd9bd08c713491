"""Skirent benchmark: measure one workload and check its outputs.

    python3 bench/run.py --workload {sweep,exact,dense} --seed N --seconds S --trace {0,1}

Run from the repository root.  Every measurement runs in a fresh
single-threaded child process (``worker.py``) that imports the library from
``src/``.  With ``--trace 0`` the end-to-end metrics are measured with no
tracer installed; with ``--trace 1`` the per-layer metrics come from rounds
that alternate untraced and traced runs of the same requests, and the spans
are written to ``.bench_out/``.  Times are wall times scaled to a fixed
reference speed (see ``ReferenceSpeed`` in ``worker.py``), because a shared host
drifts in speed; the raw wall values are printed too.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it give the environment, each metric with its
unit, and a per-class breakdown.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("sweep", "exact", "dense")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 4  # setup-only processes, on top of the measuring one
TOTAL_TIMEOUT_S = 170.0  # every child is stopped by then, so one run ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instances_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it ('unknown' if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh process, killed at ``deadline``; return its JSON report."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return "share"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skirent" / "__init__.py").is_file():
        print(f"error: no skirent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    try:
        setups = [] if args.trace else [
            spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
        report = spawn(common, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps({"git_sha": git_sha(), **report["env"]}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in report["per_layer"].items()}
        print(f"# {report['rounds']} untraced/traced round pairs; spans in {report['span_file']}")
    else:
        setups.append(report)
        report["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in report}
        wall = report.get("wall", {})
        print(f"# times are wall times scaled to the reference speed; reference kernel "
              f"{report['reference_kernel_ms']:.3f} ms here")
        print(f"# wall: setup_s={statistics.median(r['setup_wall_s'] for r in setups):.4f} "
              + " ".join(f"{k}={v:.4g}" for k, v in wall.items()))
        print(f"# setup_s is the median of {len(setups)} processes; "
              f"latencies over {report['samples']} requests")
        for cls, stats in report.get("classes", {}).items():
            print(f"# class {cls}: n={stats['n']} p50_ms={stats['p50_ms']:.3f} "
                  f"p90_ms={stats['p90_ms']:.3f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed_share = report["failed"] / max(report["attempted"], 1)
    print(f"failed_share {failed_share:.6g} share ({report['failed']} of {report['attempted']})")
    for problem in report["problems"]:
        print(f"# failure: {problem}")
    correct = report["failed"] == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": max(report["attempted"], 1),
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
