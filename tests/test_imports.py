"""scipy is imported by the exact solvers alone, never by ``import framekit``,
and ``scipy.optimize`` by the two-erasure slice search alone.

Importing the CLI builds no argument parser; ``main`` builds one on its first
call and reuses it.  conftest.py imports scipy into this process, so the
import checks run in fresh interpreters.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framekit as fk
import framekit.cli as cli
from framekit import fixtures
from framekit.cli import main
from framekit.io import save_frame_file
from conftest import random_orthonormal_rows, random_psd

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports framekit, runs ``cli.main`` on its own command-line arguments (if
# any) and prints the scipy modules loaded after each step, the exit code and
# the captured stdout as one JSON line.
PROBE = """
import contextlib, io, json, sys
import framekit, framekit.cli
loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
after_import = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = framekit.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({"import": after_import, "run": loaded(), "rc": rc, "out": out.getvalue()}))
"""

# Counts ArgumentParser constructions (the parser and its subparsers) after
# the import and after each of two ``main`` calls, and lists the framekit
# modules the import loaded, as one JSON line.
PARSER_PROBE = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import framekit, framekit.cli
counts = [len(built)]
modules = sorted(m for m in sys.modules if m.split(".")[0] == "framekit")
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        framekit.cli.main(["verify-example", "mercedes"])
    counts.append(len(built))
print(json.dumps({"parsers": counts, "modules": modules}))
"""

FRAMEKIT_MODULES = sorted(
    ["framekit"]
    + [f"framekit.{name}" for name in
       ("cli", "duals", "erasures", "errors", "fixtures", "frames", "io", "pairs", "search")]
)


def scipy_imports(path):
    """(enclosing function, line, imported names) of every scipy import in
    the module; the function is None for one that runs when the module is
    imported (outside function bodies).  ``from scipy import optimize``
    names both ``scipy`` and ``scipy.optimize``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append((function, node.lineno, names))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def module_level_scipy_imports(path):
    """Line numbers of scipy imports that run when the module is imported."""
    return sorted(line for function, line, _ in scipy_imports(path) if function is None)


def scipy_optimize_imports(path):
    """(enclosing function, line) of every ``scipy.optimize`` import."""
    return [
        (function, line)
        for function, line, names in scipy_imports(path)
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.") for name in names)
    ]


def probe(argv=(), script=PROBE):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


# Argument lists, with ``{frame}`` and ``{k}`` standing for input files.
COMMANDS = {
    "analyze": ["analyze", "--frame", "{frame}"],
    "canonical-dual": ["canonical-dual", "--frame", "{frame}"],
    "pair-bounds": ["pair-bounds", "--k", "{k}", "--n-vectors", "3"],
    "verify-example": ["verify-example", "example-1"],
    "search-r1": ["search", "--frame", "{frame}", "--measure", "r1"],
    "search-o1": ["search", "--frame", "{frame}", "--measure", "o1"],
    "search-r2u": ["search", "--frame", "{frame}", "--measure", "r2u"],
    "optimal-dual-spectral": ["optimal-dual", "--frame", "{frame}", "--measure", "spectral"],
    "optimal-dual-opnorm": ["optimal-dual", "--frame", "{frame}", "--measure", "opnorm"],
    "verify-example-2": ["verify-example", "example-2"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    save_frame_file(root / "ex1.json", *fixtures.example_1())
    save_frame_file(root / "ex2.json", *fixtures.example_2())
    # A (10, 200) one-block Parseval K-frame K V, the benchmark's shape.
    rng = np.random.default_rng(7)
    K = random_psd(rng, 10)
    F = K @ random_orthonormal_rows(rng, 10, 200)
    save_frame_file(root / "ob10x200.json", fk.Frame(F), fk.build_operator(K))
    (root / "k.json").write_text(json.dumps({"K": [[2, 0], [0, 1]]}))
    return {
        "frame": str(root / "ex1.json"),
        "ex2": str(root / "ex2.json"),
        "ob10x200": str(root / "ob10x200.json"),
        "k": str(root / "k.json"),
    }


def argv_for(name, inputs, frame="frame"):
    return [arg.format(**{**inputs, "frame": inputs[frame]}) for arg in COMMANDS[name]]


def test_no_module_level_scipy_import():
    modules = sorted(SRC.joinpath("framekit").glob("*.py"))
    assert modules
    offending = {
        p.name: lines for p in modules if (lines := module_level_scipy_imports(p))
    }
    assert not offending, f"module-level scipy imports (module: lines): {offending}"


def test_scan_sees_module_level_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy\nimport scipy.linalg\n"
        "if True:\n    from scipy import optimize\n"
        "class C:\n    import scipy\n"
        "def f():\n    import scipy.optimize\n"
    )
    assert module_level_scipy_imports(path) == [2, 4, 6]


def test_only_the_slice_search_imports_scipy_optimize():
    found = {
        p.name: imports
        for p in sorted(SRC.joinpath("framekit").glob("*.py"))
        if (imports := scipy_optimize_imports(p))
    }
    assert set(found) == {"search.py"}, found
    assert [function for function, _ in found["search.py"]] == ["_minimize_r2_within_uniform"]


def test_scan_sees_scipy_optimize_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import scipy.linalg\nfrom scipy import optimize\n"
        "def f():\n    import scipy.optimize\n"
        "class C:\n    def g(self):\n        from scipy.optimize import nnls\n"
        "def h():\n    from scipy import linalg\n"
    )
    assert scipy_optimize_imports(path) == [(None, 2), ("f", 4), ("g", 7)]


def basis_reads(path):
    """Line numbers of every read of an attribute named ``basis``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "basis"
        and isinstance(node.ctx, ast.Load)
    )


def test_only_the_chart_reads_its_null_basis():
    # W serves the chart's coefficient API alone; every other module works
    # on n x N perturbations or goes through that API.
    found = {
        p.name: lines
        for p in sorted(SRC.joinpath("framekit").glob("*.py"))
        if (lines := basis_reads(p))
    }
    assert set(found) == {"frames.py"}, found


def test_scan_sees_basis_reads(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "w = param.basis\nparam.basis = w\nbasis = 1\n"
        "def f(p):\n    return p.basis[0].T\n"
        "class C:\n    def g(self):\n        return self.row_basis, self.basis\n"
    )
    assert basis_reads(path) == [1, 5, 8]


def test_import_loads_no_scipy():
    assert probe()["import"] == []


@pytest.mark.parametrize("name", ["analyze", "canonical-dual", "pair-bounds", "verify-example"])
def test_closed_form_commands_load_no_scipy(name, inputs):
    argv = argv_for(name, inputs)
    result = probe(argv)
    assert result["run"] == [], f"{name} loaded {result['run']}"
    assert (result["rc"], result["out"]) == in_process(argv)
    assert result["rc"] == 0


def test_solver_command_loads_scipy_with_unchanged_output(inputs):
    # The spectral minimum is closed-form: the chart's pivoted QR and
    # Cholesky solves need scipy.linalg, and no optimizer is loaded.
    argv = argv_for("search-r1", inputs)
    result = probe(argv)
    assert result["import"] == []
    assert "scipy.linalg" in result["run"]
    assert "scipy.optimize" not in result["run"]
    assert (result["rc"], result["out"]) == in_process(argv)
    doc = json.loads(result["out"])
    assert result["rc"] == 0 and abs(doc["value"] - 1.0) <= 1e-9


@pytest.mark.parametrize("frame", ["frame", "ob10x200"])
@pytest.mark.parametrize(
    "name", ["optimal-dual-spectral", "optimal-dual-opnorm", "search-o1"]
)
def test_fixed_frame_solvers_load_no_optimizer(name, frame, inputs):
    # The KKT certificate's NNLS and the op-norm Lawson solve run on numpy
    # and scipy.linalg's LAPACK wrappers alone.
    argv = argv_for(name, inputs, frame)
    result = probe(argv)
    assert result["import"] == []
    assert "scipy.linalg" in result["run"]
    assert "scipy.optimize" not in result["run"], f"{name} loaded scipy.optimize"
    assert (result["rc"], result["out"]) == in_process(argv)
    assert result["rc"] == 0


def test_example_2_loads_no_optimizer():
    result = probe(COMMANDS["verify-example-2"])
    assert "scipy.optimize" not in result["run"]
    assert (result["rc"], result["out"]) == in_process(COMMANDS["verify-example-2"])
    assert result["rc"] == 0


def test_slice_search_loads_scipy_optimize(inputs):
    argv = argv_for("search-r2u", inputs, "ex2")  # example-1 has no 1-uniform dual
    result = probe(argv)
    assert "scipy.optimize" in result["run"]
    assert (result["rc"], result["out"]) == in_process(argv)
    assert result["rc"] == 0


def test_import_builds_no_parser_and_main_builds_one():
    result = probe(script=PARSER_PROBE)
    at_import, first, second = result["parsers"]
    assert at_import == 0
    assert first > 0 and second == first
    assert result["modules"] == FRAMEKIT_MODULES


def test_main_calls_share_no_state(inputs, monkeypatch):
    seen = []
    build_report = cli.build_report

    def recording(ds, ms=()):
        seen.append(ms)
        return build_report(ds, ms=ms)

    monkeypatch.setattr(cli, "build_report", recording)
    argv = argv_for("analyze", inputs)
    assert in_process([*argv, "--rm", "2"])[0] == 0
    second = in_process(argv)
    assert seen == [(2,), ()]
    assert cli._parser().parse_args(argv).rm is None
    fresh = probe(argv)
    assert second == (fresh["rc"], fresh["out"])


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()
