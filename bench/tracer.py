"""In-memory span tracer that wraps skirent's layer entry points from outside.

A traced function is replaced at every module attribute that binds it, because
``from .x import f`` makes a second binding that callers may go through (for
example ``skirent.evaluation.perturb_wasserstein`` next to
``skirent.distributions.perturb_wasserstein``).  Module code looks its callees
up in its own globals at call time, so nested layer calls become child spans.

Nothing is wrapped until ``Tracer.installed()`` is entered, and leaving it puts
every original binding back, so an untraced run executes the library as is.
Spans are recorded only inside ``Tracer.request()``; calls made between
requests (correctness checks, warm-up) pass straight through.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

#: Layer entry points the benchmark times, as (module, function) pairs.
TRACED: tuple[tuple[str, str], ...] = (
    ("distributions", "perturb_wasserstein"),
    ("distributions", "wasserstein1"),
    ("deterministic", "optimal_threshold"),
    ("deterministic", "robust_consistent_bound"),
    ("randomized", "build_cost_function"),
    ("randomized", "water_fill"),
    ("randomized", "minimal_water_level"),
    ("randomized", "level_feasible"),
    ("randomized", "_construct_at_level"),
    ("randomized", "_lp_refine"),
    ("randomized", "check_robustness"),
    ("randomized", "expected_policy_cost"),
    ("baselines", "baseline_policy"),
    ("evaluation", "run_perturbation_sweep"),
)

PACKAGE = "skirent"


@dataclass
class Span:
    """One call of a traced function, timed with ``time.perf_counter``."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at request level
    request: int
    child_s: float = 0.0  # time covered by direct children (they never overlap)
    result: Any = None  # kept only for names in ``Tracer.keep_results``

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans of the ``TRACED`` functions while installed."""

    def __init__(self, traced: Iterable[tuple[str, str]] = TRACED,
                 keep_results: Iterable[str] = ()) -> None:
        self.traced = tuple(traced)
        self.keep_results = frozenset(keep_results)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._restore: list[tuple[object, str, Callable]] = []

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding of the traced functions; restore them on exit."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module, func in self.traced:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            wrappers[id(original)] = (original, self._wrap(f"{module}.{func}", original))
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE
                                       or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            for mod, attr, value in reversed(self._restore):
                setattr(mod, attr, value)
            self._restore.clear()

    @contextlib.contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Attribute the spans recorded inside the block to ``request_id``."""
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in self.keep_results
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, self._request)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if keep:
                span.result = result
            return result

        return traced

    def write_jsonl(self, path: str, header: dict) -> None:
        """Write a header line, then one ``[name, start, end, parent, request]`` per span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start - t0, s.end - t0,
                                     s.parent, s.request]) + "\n")


def layer_totals(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (number of calls, total self time in seconds)."""
    out: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + s.self_time)
    return out
