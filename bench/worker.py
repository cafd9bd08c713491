"""One benchmark process: set up one workload, measure it, check it, report it.

``run.py`` starts this file in a fresh single-threaded process per workload, so
that import cost and peak RSS belong to the workload alone.  The last line of
standard output is one JSON object for ``run.py`` to read.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import gates
from tracer import TRACED, Span, Tracer, layer_totals
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"
WARMUP_REQUESTS = 2
#: Kernel time that defines the reference speed.  A fixed constant, so scaled times
#: compare across runs; on a 2-vCPU 2.0 GHz Xeon KVM guest the kernel takes about
#: 3-4 ms inside a benchmark process, so scaled times read about 0.7x wall times there.
REFERENCE_S = 2.5e-3
KERNEL_EVERY_S = 0.05  # a request older than this since the last kernel run gets a fresh one
_KERNEL_ARRAY = np.arange(1 << 20, dtype=float)  # 8 MiB, larger than the per-core caches
MAX_PROBLEMS = 20


def reference_kernel() -> float:
    """Fixed interpreter, allocation, small-array and memory-streaming work that shares
    no code with skirent, run between requests to gauge the machine's current speed."""
    counts: dict[int, float] = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0.0) + i * 0.5
    pairs = [(i, i * 0.5) for i in range(6000)]
    small = _KERNEL_ARRAY[:2000]
    acc = sum(float(np.cumsum(small)[-1]) for _ in range(30))
    return acc + len(pairs) + float(_KERNEL_ARRAY.sum())


class ReferenceSpeed:
    """Scales wall times to the reference speed of the machine.

    On a shared host the same request can take twice as long for seconds at a
    time.  The reference kernel, timed just before and just after a request,
    gauges that drift; multiplying the request's wall time by REFERENCE_S over the
    kernel's local time cancels much of it, because the drift slows both alike.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        gc.disable()  # time the machine, not the size of the program's heap
        try:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.mids.append(0.5 * (start + end))
        self.durations.append(end - start)

    def refresh(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.mids or time.perf_counter() - self.mids[-1] > KERNEL_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the runs just before ``start`` and
        just after ``end``; the latter must exist."""
        before = max(bisect.bisect_right(self.mids, start) - 1, 0)
        after = bisect.bisect_left(self.mids, end)
        return REFERENCE_S / (0.5 * (self.durations[before] + self.durations[after]))


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])


def serve(wl: Workload, inp, tally: Tally, speed: ReferenceSpeed,
          tracer: Tracer | None = None, request_id: int = 0) -> tuple[float, float] | None:
    """Send one request; return its (start, end) clock readings, or None if it failed.

    Only the request is timed; the speed probe and the output checks run outside.
    """
    speed.refresh()
    scope = tracer.request(request_id) if tracer else contextlib.nullcontext()
    try:
        with scope:
            start = time.perf_counter()
            out = wl.run(inp)
            end = time.perf_counter()
    except Exception as exc:  # a failed request is counted, and the loop goes on
        tally.record(1, [f"{type(exc).__name__}: {exc}"])
        return None
    problems = wl.check(inp, out)
    tally.record(1, problems)
    return None if problems else (start, end)


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def latency_summary(ms: list[float]) -> dict[str, float]:
    return {"n": len(ms), "p50_ms": statistics.median(ms), "p90_ms": percentile(ms, 90)}


def timed_loop(wl: Workload, inputs: list, seconds: float, tally: Tally,
               speed: ReferenceSpeed) -> dict:
    """Closed loop with one client for ``seconds``; end-to-end metrics with tracing off."""
    done: list[tuple[object, float, float]] = []
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline:
        inp = inputs[i % len(inputs)]
        i += 1
        span = serve(wl, inp, tally, speed)
        if span is not None:
            done.append((inp, *span))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not done:
        return {"peak_rss_mb": peak_rss_mb, "samples": 0}
    speed.sample()
    wall_ms = [(end - start) * 1e3 for _, start, end in done]
    ms = [w * speed.factor(start, end) for w, (_, start, end) in zip(wall_ms, done)]
    by_class: dict[str, list[float]] = {}
    for (inp, _, _), x in zip(done, ms):
        by_class.setdefault(wl.size_class(inp), []).append(x)
    instances = sum(wl.instances(inp) for inp, _, _ in done)
    return {
        "peak_rss_mb": peak_rss_mb,
        "instances_per_s": instances / (sum(ms) / 1e3),
        "p50_ms": statistics.median(ms),
        "p90_ms": percentile(ms, 90),
        "samples": len(ms),
        "wall": {"instances_per_s": instances / (sum(wall_ms) / 1e3),
                 **latency_summary(wall_ms)},
        "classes": {c: latency_summary(v)
                    for c, v in sorted(by_class.items(), key=lambda kv: int(kv[0][1:]))},
    }


def layer_metrics(spans: list[Span], start: int) -> dict[str, float]:
    """Per-layer counts and self times of the spans from index ``start`` on."""
    totals = layer_totals(spans[start:])
    out: dict[str, float] = {}
    for module, func in TRACED:
        calls, self_s = totals.get(f"{module}.{func}", (0, 0.0))
        out[f"{module}.{func}.calls"] = calls
        out[f"{module}.{func}.self_ms"] = self_s * 1e3
    fills = out["randomized.water_fill.calls"]
    constructs = out["randomized._construct_at_level.calls"]
    out["randomized.construct_retry_share"] = (constructs - fills) / fills if fills else 0.0
    refines = kept = 0
    for span in spans[start:]:
        if span.name == "randomized._lp_refine":
            refines += 1
            fill = spans[span.parent] if span.parent >= 0 else None
            if (span.result is not None and fill is not None and fill.result is not None
                    and fill.name == "randomized.water_fill" and fill.result[0] is span.result):
                kept += 1
    for span in spans[start:]:
        span.result = None
    out["randomized._lp_refine.kept_share"] = kept / refines if refines else 0.0
    return out


def traced_rounds(wl: Workload, inputs: list, seconds: float, tally: Tally,
                  speed: ReferenceSpeed, span_path: Path, header: dict) -> dict:
    """Alternate untraced and traced rounds of the same requests for ``seconds``.

    Counts are per round and repeat exactly; times are scaled to the reference
    speed and are medians over rounds.
    """
    tracer = Tracer(keep_results=("randomized._lp_refine", "randomized.water_fill"))
    round_inputs = inputs[:wl.round_size]
    request_ids = itertools.count(1)

    def one_round(traced: bool) -> tuple[float, float]:
        """(wall seconds, reference-speed seconds) of the round's requests."""
        spans = []
        for inp in round_inputs:
            if traced:
                spans.append(serve(wl, inp, tally, speed, tracer, next(request_ids)))
            else:
                spans.append(serve(wl, inp, tally, speed))
        speed.sample()
        spans = [s for s in spans if s is not None]
        wall = sum(end - start for start, end in spans)
        return wall, sum((end - start) * speed.factor(start, end) for start, end in spans)

    untraced: list[float] = []
    traced: list[float] = []
    rounds: list[dict[str, float]] = []
    deadline = time.monotonic() + seconds
    while not rounds or time.monotonic() < deadline:
        untraced.append(one_round(False)[1])
        first_span = len(tracer.spans)
        with tracer.installed():
            wall, scaled = one_round(True)
        traced.append(scaled)
        metrics = layer_metrics(tracer.spans, first_span)
        for name in metrics:
            if name.endswith("_ms"):
                metrics[name] *= scaled / wall if wall > 0 else 1.0
        rounds.append(metrics)
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(str(span_path), header)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {"per_layer": metrics, "rounds": len(rounds), "span_file": str(span_path)}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.generate(np.random.default_rng(args.seed))
    setup_wall_s = time.monotonic() - args.t0
    speed = ReferenceSpeed()
    for _ in range(3):
        speed.sample()
    setup = {"setup_s": setup_wall_s * REFERENCE_S / statistics.median(speed.durations),
             "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    for inp in inputs[:WARMUP_REQUESTS]:
        serve(wl, inp, Tally(), speed)
    tally = Tally()
    report: dict = {**setup, "env": environment()}
    if args.trace:
        span_path = SPAN_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        header = {"workload": wl.name, "seed": args.seed, **report["env"]}
        report.update(traced_rounds(wl, inputs, args.seconds, tally, speed, span_path, header))
    else:
        report.update(timed_loop(wl, inputs, args.seconds, tally, speed))
    for gate in (gates.table_gate, *wl.gates):
        tally.record(*gate())
    report.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  reference_kernel_ms=statistics.median(speed.durations) * 1e3)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
