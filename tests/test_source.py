"""Checks on the package's source text, read with ``ast`` rather than imported."""
import ast
import subprocess
import sys
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
