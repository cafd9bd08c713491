"""Paired benchmark runs of the working tree against a git revision.

    python tools/pair.py --against REV --workload W [--pairs N] [--seconds S] [--seed K]

Exports REV with ``git archive`` into a temporary directory, then runs the
benchmark command of ``BENCHMARK.json`` (``bench/run.py``) with ``--trace 0`` N
times there and N times in the working tree, one run of each side per pair,
alternating which side runs first.  Each side runs its own ``bench/`` on its
own ``src/``; nothing in either tree is changed.  Prints, for every end-to-end
metric, each side's median and quartiles and in how many pairs the working
tree ("change") read better, in the direction ``BENCHMARK.json`` gives as
``better``; ties count for neither side.  ``--against HEAD`` pairs the tree
with its own commit, which measures the noise floor when the tree is clean.
Exits 1 if a run fails or reports ``correct: false`` or a failed request.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> str:
    """The last line of one untraced benchmark run in ``tree``: its JSON result."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(command + args, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return json.dumps({"correct": False, "failed": 0, "metrics": {},
                           "error": f"exited with {proc.returncode}"})
    return lines[-1]


def export(rev: str, base: Path) -> Path:
    """The tree of git revision ``rev``, extracted under ``base`` with ``git archive``."""
    archive = base / "against.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(base / "against", filter="data")
    return base / "against"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (all one value for a single run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """The report of (against, change) result lines, one pair each, and whether every
    run was correct with no failed request."""
    results = [tuple(json.loads(line) for line in pair) for pair in pairs]
    ok = all(r.get("correct") and not r.get("failed") for pair in results for r in pair)
    lines = [f"{len(pairs)} pairs; each side: median [q1, q3]",
             f"{'metric':<16} {'unit':<5} {'against':>28} {'change':>28}  change better in"]
    for spec in end_to_end:
        name = spec["name"]
        got = [(a["metrics"][name]["value"], c["metrics"][name]["value"])
               for a, c in results if name in a["metrics"] and name in c["metrics"]]
        if not got:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - a) > 0 for a, c in got)
        sides = []
        for column in zip(*got):
            q1, q2, q3 = quartiles(list(column))
            sides.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        lines.append(f"{name:<16} {spec['unit']:<5} {sides[0]:>28} {sides[1]:>28}  "
                     f"{wins} of {len(got)}")
    for i, pair in enumerate(results):
        for side, r in zip(("against", "change"), pair):
            if not r.get("correct") or r.get("failed"):
                lines.append(f"# pair {i + 1}, {side}: correct={r.get('correct')} "
                             f"failed={r.get('failed')} {r.get('error', '')}".rstrip())
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        trees = {"against": export(args.against, Path(tmp)), "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            order = ("against", "change") if i % 2 == 0 else ("change", "against")
            got = {side: run_bench(trees[side], spec["command"], args.workload, args.seed,
                                   seconds) for side in order}
            pairs.append((got["against"], got["change"]))
            print(f"# pair {i + 1} of {args.pairs} done, {order[0]} first", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {seconds} against {args.against}")
    lines, ok = summarize(pairs, spec["end_to_end"])
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
