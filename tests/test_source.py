"""Checks on the package's source text, read with ``ast`` rather than imported."""
import ast
import importlib.metadata
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import skirent

# __init__.py imports names to re-export them, so it reads few of them itself
MODULES = sorted(path for path in Path(skirent.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"  # a compiler switch
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


# The checked entry points the oracle calls, and the float helpers that a bit-for-bit
# reference walk must share with the fill it checks.  A reference that read the
# fill's own tables, policy or tail test would check that code against itself.
ORACLE_READS_FROM_RANDOMIZED = [
    "CostFunction", "StoppingDistribution", "_construct_at_level", "_envelope", "_fill_pass",
    "_full_log", "_log_gamma", "build_cost_function", "check_robustness", "feasible_robustness",
    "geometric_cdf", "minimal_water_level", "water_fill"]


def test_oracle_stays_independent_of_the_fill():
    tree = ast.parse((Path(skirent.__file__).parent / "oracle.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    sources = [node.module or "" for node in imports if isinstance(node, ast.ImportFrom)]
    imported = [alias.name for node in imports for alias in node.names]
    assert not any("staircase" in name for name in (*sources, *imported))
    # one import from randomized, of names: no module object to reach the rest through
    assert sources.count("randomized") == 1
    assert not any(name.endswith("randomized") for name in imported)
    names = [alias.name for node in imports
             if isinstance(node, ast.ImportFrom) and node.module == "randomized"
             for alias in node.names]
    assert sorted(names) == sorted(ORACLE_READS_FROM_RANDOMIZED)


def test_every_private_helper_is_used():
    # a module-level private function or class that only tests call is dead code
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(skirent.__file__).parent.glob("*.py")}
    uses = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and not any(name == node.name
                          and not (where == module and node.lineno <= line <= node.end_lineno)
                          for where, line, name in uses)]
    assert unused == []


def test_every_cache_is_bounded():
    # an unbounded cache keeps an entry for every distinct argument it has seen
    unbounded = []
    for path in Path(skirent.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{path.name}:{node.lineno}" for alias in node.names
                              if alias.name == "cache"]
            elif (isinstance(node, ast.Attribute) and node.attr == "cache"
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                unbounded.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and "lru_cache" in ast.unparse(node.func):
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(size, ast.Constant) and size.value is None for size in sizes):
                    unbounded.append(f"{path.name}:{node.lineno}")
    assert unbounded == []


def test_code_line_counter_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""A module docstring\n'
        'over two lines."""\n'
        "import math  # a trailing comment\n"
        "\n"
        "# a comment line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        '    s = """a string over\n'
        'two lines"""\n'
        "    return math.sqrt(x) + len(s)\n")
    tool = Path(skirent.__file__).resolve().parents[2] / "tools" / "code_lines.py"
    proc = subprocess.run([sys.executable, str(tool), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5", "mod.py", "5", "total"]


def test_fault_counter_reports_each_request_class():
    tool = Path(skirent.__file__).resolve().parents[2] / "tools" / "faults.py"
    proc = subprocess.run([sys.executable, str(tool), "--workload", "dense", "--requests", "5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["workload dense, seed 1, 5 requests",
                         "class    requests  median_us   minflt  peak_atoms"]
    # the pattern's first five requests: four at b = 500, one at b = 2000
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["b500", "4"], ["b2000", "1"]]
    for _, _, us, faults, peak in rows:
        assert float(us) > 0 and float(faults) >= 0 and float(peak) > 0


def test_pair_summary_reads_direction_and_failures():
    path = Path(skirent.__file__).resolve().parents[2] / "tools" / "pair.py"
    spec = importlib.util.spec_from_file_location("pair", path)
    pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair)

    def line(rate, p50, correct=True, failed=0):
        return json.dumps({"correct": correct, "attempted": 100, "failed": failed, "metrics": {
            "instances_per_s": {"value": rate, "unit": "1/s"},
            "p50_ms": {"value": p50, "unit": "ms"}}})

    end_to_end = [{"name": "instances_per_s", "unit": "1/s", "better": "higher"},
                  {"name": "p50_ms", "unit": "ms", "better": "lower"},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]  # in no line
    # change faster in pairs 1 and 2, tied in 3; its p50 lower in 1 and 3
    pairs = [(line(100, 0.5), line(110, 0.4)), (line(100, 0.5), line(120, 0.6)),
             (line(130, 0.5), line(130, 0.45))]
    lines, ok = pair.summarize(pairs, end_to_end)
    assert ok
    rows = {row.split()[0]: row for row in lines[2:]}
    assert sorted(rows) == ["instances_per_s", "p50_ms"]
    assert rows["instances_per_s"].split() == [
        "instances_per_s", "1/s", "100", "[100,", "115]", "120", "[115,", "125]", "2", "of", "3"]
    assert rows["p50_ms"].endswith("2 of 3")
    assert pair.quartiles([3.0]) == (3.0, 3.0, 3.0)
    lines, ok = pair.summarize(pairs + [(line(100, 0.5), line(100, 0.5, failed=2))], end_to_end)
    assert not ok and lines[-1] == "# pair 4, change: correct=True failed=2"
    _, ok = pair.summarize([(line(100, 0.5, correct=False), line(100, 0.5))], end_to_end)
    assert not ok


def test_pair_json_records_each_set(tmp_path):
    path = Path(skirent.__file__).resolve().parents[2] / "tools" / "pair.py"
    spec = importlib.util.spec_from_file_location("pair", path)
    pair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair)

    def line(rss, failed=0):
        return json.dumps({"correct": True, "attempted": 10, "failed": failed,
                           "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}})

    end_to_end = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
                  {"name": "p50_ms", "unit": "ms", "better": "lower"}]  # in no line
    run = {"workload": "dense", "seed": 1, "seconds": 6.0,
           "against": {"rev": "HEAD~", "commit": "a" * 40},
           "change": {"commit": "b" * 40, "dirty": False}}
    # the change lower in pairs 1 and 3, higher in 2
    pairs = [(line(80.0), line(73.0)), (line(81.0), line(82.0)), (line(82.0), line(74.0, 1))]
    out = tmp_path / "BENCH.json"
    pair.append_set(out, pair.record(run, pairs, end_to_end))
    pair.append_set(out, pair.record({**run, "seed": 2}, pairs[:1], end_to_end))
    sets = json.loads(out.read_text())["sets"]
    assert [s["seed"] for s in sets] == [1, 2]
    first = sets[0]
    assert first["workload"] == "dense" and first["seconds"] == 6.0
    assert first["against"]["commit"] == "a" * 40 and first["change"]["dirty"] is False
    host = first["host"]
    assert host["nproc"] >= 1 and host["numpy"] == importlib.metadata.version("numpy")
    assert first["pairs"][2]["change"]["failed"] == 1
    assert [p["against"]["metrics"]["peak_rss_mb"]["value"] for p in first["pairs"]] == [
        80.0, 81.0, 82.0]
    assert first["metrics"] == {"peak_rss_mb": {
        "unit": "MB", "better": "lower", "pairs": 3, "change_better": 2,
        "against": {"q1": 80.5, "median": 81.0, "q3": 81.5},
        "change": {"q1": 73.5, "median": 74.0, "q3": 78.0}}}
    assert sets[1]["metrics"]["peak_rss_mb"]["change_better"] == 1


def load_ab():
    path = Path(skirent.__file__).resolve().parents[2] / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


# (against, change) seconds: change faster in rounds 1 and 3, slower in 2, tied in 4
AB_ROUNDS = [(1.0, 0.9), (1.0, 1.1), (2.0, 1.6), (0.5, 0.5)]


def test_ab_summary_reads_ratios_and_direction():
    ab = load_ab()
    assert ab.summarize(AB_ROUNDS) == [
        "4 rounds; change / against time per round: median 0.9500 [0.8750, 1.0250]",
        "change faster in 2 of 4"]
    assert ab.summarize([(2.0, 1.0)])[0].endswith("median 0.5000 [0.5000, 0.5000]")
    # the rounds are still reported when outputs differ, then the requests that do
    assert ab.summarize(AB_ROUNDS, [1, 4]) == [*ab.summarize(AB_ROUNDS),
                                                "outputs differ in 2 requests: 1 4"]


def test_ab_compare_lists_differing_outputs_without_stopping():
    ab = load_ab()

    class Side:
        def __init__(self, outs, fail=False):
            self.outs, self.fail = outs, fail
            self.wl = types.SimpleNamespace(
                check=lambda request, out: [f"request {request} is odd"] * (out % 2))

        def serve(self, requests):
            if self.fail:
                raise ValueError("boom")
            return 0.0, [self.outs[r] for r in requests]

    requests = {"against": [0, 1, 2], "change": [0, 1, 2]}
    same = {"against": Side([0, 2, 4]), "change": Side([0, 2, 4])}
    assert ab.compare(same, requests) == ([], [])
    moved = {"against": Side([0, 2, 4]), "change": Side([0, 3, 6])}
    assert ab.compare(moved, requests) == (["change: request 1 is odd"], [1, 2])
    failed = {"against": Side([0, 2, 4]), "change": Side([0, 2, 4], fail=True)}
    assert ab.compare(failed, requests) == (["change: ValueError: boom"], None)


def test_ab_json_records_each_set(tmp_path):
    ab = load_ab()
    run = {"tool": "ab.py", "workload": "dense", "seed": 1, "requests": 150,
           "against": {"rev": "HEAD~", "commit": "a" * 40},
           "change": {"commit": "b" * 40, "dirty": False}}
    out = tmp_path / "BENCH.json"
    ab.pair.append_set(out, ab.record(run, AB_ROUNDS, []))
    ab.pair.append_set(out, ab.record({**run, "seed": 2}, AB_ROUNDS[:1], [3, 7]))
    sets = json.loads(out.read_text())["sets"]
    assert [(s["tool"], s["seed"], s["rounds"]) for s in sets] == [("ab.py", 1, 4), ("ab.py", 2, 1)]
    first = sets[0]
    assert first["workload"] == "dense" and first["requests"] == 150
    assert first["against"]["commit"] == "a" * 40 and first["change"]["dirty"] is False
    assert first["host"]["numpy"] == importlib.metadata.version("numpy")
    assert first["times"][2] == {"against": 2.0, "change": 1.6}
    assert first["ratios"] == pytest.approx([0.9, 1.1, 0.8, 1.0])
    assert first["ratio"] == pytest.approx({"q1": 0.875, "median": 0.95, "q3": 1.025})
    assert first["change_faster"] == 2 and first["differ"] == []
    assert sets[1]["change_faster"] == 1 and sets[1]["differ"] == [3, 7]
