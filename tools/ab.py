"""In-process paired timing of the working tree against a git revision.

    python tools/ab.py --against REV --workload W [--rounds N] [--requests K] [--seed S]

Exports REV with ``git archive`` into a temporary directory and loads both
libraries into this one process, each side's ``src/skirent`` under its own copy
of the working tree's ``bench/workloads.py`` (read, not edited).  Each side
generates the seed's requests.  One untimed round first serves the first K
requests (default: all) on both sides and checks that they give the same
outputs, compared by ``repr``, and that the workload's own checks pass.  Then
N rounds each serve those K requests on one side and then on the other,
alternating which side goes first; only the requests are timed.  Prints the
median ratio of the working tree's ("change") round time to REV's
("against"), its quartiles, and in how many rounds the change was faster;
ties count for neither side.  Exits 1 if the outputs differ, a request fails
or a check reports a problem.  Rounds in one process share its heap and
caches, so this sizes a change to the request path; ``tools/pair.py`` runs the
benchmark itself.
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


def summarize(rounds: list[tuple[float, float]]) -> list[str]:
    """The report of (against, change) round times."""
    ratios = [change / against for against, change in rounds]
    q1, q2, q3 = pair.quartiles(ratios)
    faster = sum(change < against for against, change in rounds)
    return [f"{len(rounds)} rounds; change / against time per round: "
            f"median {q2:.4f} [{q1:.4f}, {q3:.4f}]",
            f"change faster in {faster} of {len(rounds)}"]


def compare(sides: dict[str, Side], requests: dict[str, list]) -> list[str]:
    """Problems from one untimed round on both sides: differing outputs, failed checks."""
    problems, outs = [], {}
    for label, side in sides.items():
        try:
            _, outs[label] = side.serve(requests[label])
        except Exception as exc:  # reported, and no round is timed
            return [f"{label}: {type(exc).__name__}: {exc}"]
        for request, out in zip(requests[label], outs[label]):
            problems += [f"{label}: {p}" for p in side.wl.check(request, out)]
    for i, (a, c) in enumerate(zip(outs["against"], outs["change"])):
        if repr(a) != repr(c):
            problems.append(f"request {i}: the outputs differ")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per round, from the first (default: all)")
    parser.add_argument("--seed", type=int, default=1)
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
        problems = compare(sides, requests)
        if problems:
            print("\n".join(problems[:20]))
            return 1
        rounds = []
        for i in range(args.rounds):
            order = ("against", "change") if i % 2 == 0 else ("change", "against")
            got = {label: sides[label].serve(requests[label])[0] for label in order}
            rounds.append((got["against"], got["change"]))
            print(f"# round {i + 1} of {args.rounds} done, {order[0]} first", file=sys.stderr)
    print("\n".join(summarize(rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
