"""Self-tests of the benchmark's tracer.

Run from the repository root:  python3 -m pytest bench/tests
"""
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import skirent as sk  # noqa: E402
import skirent.distributions  # noqa: E402
import skirent.evaluation  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from worker import layer_metrics  # noqa: E402

B, R = 50, 1.7


def _cost():
    return sk.build_cost_function(sk.DayDistribution((30, 120), (0.7, 0.3)), B)


def _trace_water_fill(exact: bool) -> Tracer:
    g = _cost()
    tracer = Tracer(keep_results=("randomized._lp_refine", "randomized.water_fill"))
    with tracer.installed(), tracer.request(1):
        sk.water_fill(g, B, R, exact=exact)
    return tracer


def test_level_feasible_calls_equal_bisection_checks():
    g = _cost()
    search = sk.minimal_water_level(g, B, R, 1e-7 * g.max_value())
    totals = layer_totals(_trace_water_fill(exact=False).spans)
    assert totals["randomized.level_feasible"][0] == search.checks
    assert totals["randomized.minimal_water_level"][0] == 1


def test_self_times_sum_to_the_parent_span():
    spans = _trace_water_fill(exact=True).spans
    roots = [s for s in spans if s.parent < 0]
    assert [s.name for s in roots] == ["randomized.water_fill"]
    assert len(spans) > 10
    total_self = sum(s.self_time for s in spans)
    assert math.isclose(total_self, roots[0].duration, rel_tol=1e-9, abs_tol=1e-12)
    for s in spans:
        assert s.self_time >= 0.0


def test_published_solve_never_calls_lp_refine():
    published = layer_metrics(_trace_water_fill(exact=False).spans, 0)
    assert published["randomized._lp_refine.calls"] == 0
    assert published["randomized._lp_refine.kept_share"] == 0.0
    exact = layer_metrics(_trace_water_fill(exact=True).spans, 0)
    assert exact["randomized._lp_refine.calls"] == 1
    assert exact["randomized.construct_retry_share"] == 0.0


def test_every_binding_is_wrapped_and_restored():
    bindings = (sk, skirent.distributions, skirent.evaluation)
    originals = [m.perturb_wasserstein for m in bindings]
    tracer = Tracer()
    with tracer.installed():
        wrapped = [m.perturb_wasserstein for m in bindings]
        assert all(w is wrapped[0] for w in wrapped)
        assert wrapped[0] is not originals[0]
        with tracer.request(7):
            sk.run_perturbation_sweep(b=B, R=R, eta_grid=(2.0,), n_trials=1, seed=0)
    assert [m.perturb_wasserstein for m in bindings] == originals
    totals = layer_totals(tracer.spans)
    assert totals["distributions.perturb_wasserstein"][0] == 1
    assert totals["evaluation.run_perturbation_sweep"][0] == 1
    assert {s.request for s in tracer.spans} == {7}


def test_calls_outside_a_request_are_not_recorded():
    tracer = Tracer()
    with tracer.installed():
        sk.water_fill(_cost(), B, R, exact=False)
    assert tracer.spans == []
