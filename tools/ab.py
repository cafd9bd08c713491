"""In-process paired timing of the working tree against a git revision.

    python tools/ab.py --against REV --workload W [--rounds N] [--requests K] [--seed S]
                       [--json PATH]

Exports REV with ``git archive`` into a temporary directory and loads both
libraries into this one process, each side's ``src/skirent`` under its own copy
of the working tree's ``bench/workloads.py`` (read, not edited).  Each side
generates the seed's requests.  One untimed round first serves the first K
requests (default: all) on both sides, compares their outputs by ``repr`` and
runs the workload's own checks.  Then N rounds each serve those K requests on
one side and then on the other, alternating which side goes first; only the
requests are timed.  Prints the median ratio of the working tree's ("change")
round time to REV's ("against"), its quartiles, and in how many rounds the
change was faster; ties count for neither side.  Then it lists the requests
whose outputs differ and the problems the checks report, and exits 1 if there
are any, so a change that moves outputs on purpose is still sized.  A request
that raises stops it before timing, with exit 1.  Rounds in one process share
its heap and caches, so this sizes a change to the request path;
``tools/pair.py`` runs the benchmark itself.

``--json PATH`` also appends the set to the ``sets`` list of the JSON file PATH
(a ``BENCH_<pr>.json``), as ``tools/pair.py --json`` does: the tool, workload, seed,
requests, rounds and both commits, the host, each round's times and ratio, the
ratio's quartiles, the change's wins and the requests whose outputs differ.
``--against HEAD`` on a clean tree gives an A/A set, the noise floor.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SHARED = ("workloads", "gates")  # the bench modules each side imports afresh


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


pair = _load(ROOT / "tools" / "pair.py", "pair")


def _library_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "skirent" or name.startswith("skirent.")}


class Side:
    """One library in this process: its ``skirent`` modules, and the workload bound to them."""

    def __init__(self, src: Path, label: str, workload: str) -> None:
        for name in (*_library_modules(), *SHARED):
            sys.modules.pop(name, None)
        sys.path[:0] = [str(src), str(BENCH)]
        try:
            self.workloads = _load(BENCH / "workloads.py", f"workloads_{label}")
            # every submodule now, so that an import inside a function finds this side's
            for path in sorted((src / "skirent").glob("*.py")):
                if path.stem not in ("__init__", "__main__"):
                    importlib.import_module(f"skirent.{path.stem}")
        finally:
            del sys.path[:2]
        self.modules = _library_modules()
        for name in SHARED:
            sys.modules.pop(name, None)
        self.wl = self.workloads.WORKLOADS[workload]

    def activate(self) -> None:
        sys.modules.update(self.modules)

    def serve(self, requests: list) -> tuple[float, list]:
        """Seconds spent in the requests, and their outputs."""
        self.activate()
        total, outs = 0.0, []
        for request in requests:
            start = time.perf_counter()
            out = self.wl.run(request)
            total += time.perf_counter() - start
            outs.append(out)
        return total, outs


def ratios(rounds: list[tuple[float, float]]) -> tuple[list[float], tuple, int]:
    """Each (against, change) round's change / against time, their quartiles, and in
    how many rounds the change was faster."""
    each = [change / against for against, change in rounds]
    return each, pair.quartiles(each), sum(change < against for against, change in rounds)


def summarize(rounds: list[tuple[float, float]], differ: list[int] = ()) -> list[str]:
    """The report of (against, change) round times, then of the requests whose
    outputs differ, by index."""
    _, (q1, q2, q3), faster = ratios(rounds)
    lines = [f"{len(rounds)} rounds; change / against time per round: "
             f"median {q2:.4f} [{q1:.4f}, {q3:.4f}]",
             f"change faster in {faster} of {len(rounds)}"]
    if differ:
        lines.append(f"outputs differ in {len(differ)} requests: {' '.join(map(str, differ))}")
    return lines


def record(run: dict, rounds: list[tuple[float, float]], differ: list[int]) -> dict:
    """One set of rounds as ``--json`` writes it: ``run`` (workload, seed, requests,
    commits), the host, each round's times and ratio, their quartiles and wins,
    and the requests whose outputs differ."""
    each, (q1, q2, q3), faster = ratios(rounds)
    return {**run, "host": pair.host(), "rounds": len(rounds),
            "times": [{"against": a, "change": c} for a, c in rounds], "ratios": each,
            "ratio": {"q1": q1, "median": q2, "q3": q3}, "change_faster": faster,
            "differ": differ}


def compare(sides: dict[str, Side],
            requests: dict[str, list]) -> tuple[list[str], list[int] | None]:
    """One untimed round on both sides: the problems the checks report, and the
    requests whose outputs differ.  A request that raises is the one problem
    reported, with None for the requests compared."""
    problems, outs = [], {}
    for label, side in sides.items():
        try:
            _, outs[label] = side.serve(requests[label])
        except Exception as exc:  # reported, and no round is timed
            return [f"{label}: {type(exc).__name__}: {exc}"], None
        for request, out in zip(requests[label], outs[label]):
            problems += [f"{label}: {p}" for p in side.wl.check(request, out)]
    differ = [i for i, (a, c) in enumerate(zip(outs["against"], outs["change"]))
              if repr(a) != repr(c)]
    return problems, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per round, from the first (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None,
                        help="append the set to this JSON file's 'sets' list")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.requests is not None and args.requests < 1:
        parser.error("--rounds and --requests must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        against = pair.export(args.against, Path(tmp))
        sides = {"against": Side(against / "src", "against", args.workload),
                 "change": Side(ROOT / "src", "change", args.workload)}
        requests = {}
        for label, side in sides.items():
            side.activate()
            requests[label] = side.wl.generate(np.random.default_rng(args.seed))[:args.requests]
        print(f"workload {args.workload} seed {args.seed} requests {len(requests['change'])} "
              f"against {args.against}")
        problems, differ = compare(sides, requests)
        if differ is None:
            print(problems[0])
            return 1
        rounds = []
        for i in range(args.rounds):
            order = ("against", "change") if i % 2 == 0 else ("change", "against")
            got = {label: sides[label].serve(requests[label])[0] for label in order}
            rounds.append((got["against"], got["change"]))
            print(f"# round {i + 1} of {args.rounds} done, {order[0]} first", file=sys.stderr)
    print("\n".join(summarize(rounds, differ) + problems[:20]))
    if args.json is not None:
        run = {"tool": "ab.py", "workload": args.workload, "seed": args.seed,
               "requests": len(requests["change"]), **pair.commits(args.against)}
        pair.append_set(args.json, record(run, rounds, differ))
    return 1 if problems or differ else 0


if __name__ == "__main__":
    sys.exit(main())
