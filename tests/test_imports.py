"""scipy is imported by the exact solvers alone, never by ``import framekit``.

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

import pytest

import framekit.cli as cli
from framekit import fixtures
from framekit.cli import main
from framekit.io import save_frame_file

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


def module_level_scipy_imports(path):
    """Line numbers of scipy imports that run when the module is imported:
    everything outside function bodies."""
    lines = []
    stack = list(ast.parse(path.read_text(), filename=str(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


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
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    save_frame_file(root / "ex1.json", *fixtures.example_1())
    (root / "k.json").write_text(json.dumps({"K": [[2, 0], [0, 1]]}))
    return {"frame": str(root / "ex1.json"), "k": str(root / "k.json")}


def argv_for(name, inputs):
    return [arg.format(**inputs) for arg in COMMANDS[name]]


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
