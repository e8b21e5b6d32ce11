"""Each public entry point validates its input once.

Functions are counted the way bench/tracing.py spans them: the original is
replaced, in every ``framekit`` module namespace that binds it, by a
counting wrapper.  So a call through any module's name counts, and a
private helper that skips the public name does not.
"""

import collections
import contextlib
import functools
import io
import json
import sys

import numpy as np
import pytest
import scipy.optimize

import framekit as fk
from framekit import fixtures
from framekit.cli import main
from framekit.erasures import Measure
from framekit.frames import DualParameterization
from framekit.io import save_frame_file
from conftest import random_block_frame, random_parseval_frame, random_psd

COUNTED = {
    "frames": (
        "is_parseval_k_frame", "dual_parameterization", "k_frame_bounds", "_matroid_components"
    ),
    "erasures": ("uniformity",),
    "duals": ("_weight_partition", "_family"),
}
CFG = fk.SearchConfig(max_iters=200, restarts=2, seed=0)


@pytest.fixture
def calls(monkeypatch):
    """Calls of the COUNTED functions, by name, from here on."""
    counts = collections.Counter()
    modules = [m for k, m in sys.modules.items() if k == "framekit" or k.startswith("framekit.")]
    for layer, names in COUNTED.items():
        for name in names:
            original = getattr(sys.modules[f"framekit.{layer}"], name)

            @functools.wraps(original)
            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    return counts


ENTRY_POINTS = {
    "canonical_k_dual": ("example-1", lambda f, op: fk.canonical_k_dual(f, op)),
    "dual_parameterization": ("example-1", lambda f, op: fk.dual_parameterization(f, op)),
    "weight_partition opnorm": (
        "example-1", lambda f, op: fk.weight_partition(f, op, Measure.OP_NORM)),
    "weight_partition spectral": (
        "example-1", lambda f, op: fk.weight_partition(f, op, Measure.SPECTRAL)),
    "min_r1_fixed_frame": ("example-1", lambda f, op: fk.min_r1_fixed_frame(f, op)),
    "construct_spectrally_optimal_dual": (
        "example-1", lambda f, op: fk.construct_spectrally_optimal_dual(f, op)),
    "perturbation_family opnorm": (
        "example-1", lambda f, op: fk.perturbation_family(f, op, Measure.OP_NORM)),
    "perturbation_family spectral": (
        "example-1", lambda f, op: fk.perturbation_family(f, op, Measure.SPECTRAL)),
    "canonical_certificate opnorm": (
        "example-1", lambda f, op: fk.canonical_certificate(f, op, Measure.OP_NORM)),
    "canonical_certificate spectral": (
        "example-1", lambda f, op: fk.canonical_certificate(f, op, Measure.SPECTRAL)),
    "minimize_measure opnorm": (
        "example-1", lambda f, op: fk.minimize_measure(f, op, Measure.OP_NORM, CFG)),
    "minimize_measure spectral": (
        "example-1", lambda f, op: fk.minimize_measure(f, op, Measure.SPECTRAL, CFG)),
    "minimize_r2_within_uniform": (
        "mercedes", lambda f, op: fk.minimize_r2_within_uniform(f, op, CFG)),
    "brute_force_grid_oracle opnorm": (
        "example-2", lambda f, op: fk.brute_force_grid_oracle(f, op, Measure.OP_NORM, CFG)),
    "brute_force_grid_oracle spectral": (
        "example-2", lambda f, op: fk.brute_force_grid_oracle(f, op, Measure.SPECTRAL, CFG)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_parseval_check_per_entry_point(entry, calls):
    example, call = ENTRY_POINTS[entry]
    frame, op = fixtures.get_example(example)
    calls.clear()
    call(frame, op)
    assert calls["is_parseval_k_frame"] == 1


@pytest.fixture(scope="module")
def ex1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "ex1.json"
    save_frame_file(path, *fixtures.example_1())
    return str(path)


# CLI commands run on example-1 and the most calls each may make.  A command
# that reads the K-dual set builds one chart, which decides the matroid
# components once; the two Parseval checks are the loader's and the chart's.
ONE_CHART = {"is_parseval_k_frame": 2, "dual_parameterization": 1, "_matroid_components": 1}
CLI_CAPS = {
    "optimal-dual --measure spectral": ONE_CHART,
    "optimal-dual --measure opnorm": ONE_CHART,
    "search --measure r1": ONE_CHART,
    "search --measure o1": ONE_CHART,
    "analyze": {"uniformity": 1, "k_frame_bounds": 1, "dual_parameterization": 0},
}


@pytest.mark.parametrize("command", CLI_CAPS)
def test_cli_call_counts_on_example_1(command, ex1_file, calls):
    name, *flags = command.split()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([name, "--frame", ex1_file, *flags]) == 0
    for function, cap in CLI_CAPS[command].items():
        assert calls[function] <= cap, f"{function}: {calls[function]} calls, at most {cap}"


@pytest.mark.parametrize("measure", ["spectral", "opnorm"])
@pytest.mark.parametrize("example", ["example-2", "mercedes"])
def test_optimal_dual_builds_one_partition_and_one_family(example, measure, calls, tmp_path):
    # The certificate's weight partition, and where the spans meet only in
    # 0 its family, are the ones the command prints from.
    frame, op = fixtures.get_example(example)
    path = str(tmp_path / "frame.json")
    save_frame_file(path, frame, op)
    out = io.StringIO()
    calls.clear()
    with contextlib.redirect_stdout(out):
        assert main(["optimal-dual", "--frame", path, "--measure", measure]) == 0
    assert (calls["_weight_partition"], calls["_family"]) == (1, 1)
    family = json.loads(out.getvalue())["perturbation_family"]
    kind = Measure.OP_NORM if measure == "opnorm" else Measure.SPECTRAL
    cert = fk.canonical_certificate(frame, op, kind)
    if "family_dim" in cert.evidence:
        assert family["dimension"] == cert.evidence["family_dim"]


def refuse_null_basis(monkeypatch):
    """Make every read of the chart's null basis W fail."""

    def refuse(self):
        raise AssertionError("read the null basis W")

    monkeypatch.setattr(DualParameterization, "basis", property(refuse))


def test_operator_norm_paths_build_no_diagonal_map(monkeypatch):
    # The dof x N diagonal map serves the spectral measure alone, and no
    # fixed-frame answer reads W.
    def refuse(self):
        raise AssertionError("operator-norm path read the diagonal map")

    monkeypatch.setattr(DualParameterization, "diagonal_map", property(refuse))
    refuse_null_basis(monkeypatch)
    rng = np.random.default_rng(0)
    op = fk.build_operator(random_psd(rng, 2))
    frame = random_parseval_frame(rng, op, 4)
    cert = fk.canonical_certificate(frame, op, Measure.OP_NORM)
    assert cert.verdict is fk.Verdict.NOT_OPTIMAL  # reached the KKT test
    result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
    assert result.value < cert.evidence["canonical_value"]


def test_spectral_paths_on_a_generic_chart_build_no_diagonal_map(monkeypatch, tmp_path):
    # The spectral solves read null(D) and the lift of a diagonal from the
    # N x N Gram; the dof x N map is only the fallback where that Gram
    # cannot decide the rank of D, and no answer here reads W.
    def refuse(self):
        raise AssertionError("spectral path read the diagonal map")

    monkeypatch.setattr(DualParameterization, "diagonal_map", property(refuse))
    refuse_null_basis(monkeypatch)
    rng = np.random.default_rng(0)
    op = fk.build_operator(random_psd(rng, 3))
    frame = random_parseval_frame(rng, op, 7)
    cert = fk.canonical_certificate(frame, op, Measure.SPECTRAL)
    assert cert.verdict is fk.Verdict.NOT_OPTIMAL  # reached the KKT test
    result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
    assert result.value < cert.evidence["canonical_value"]
    constructed = fk.construct_spectrally_optimal_dual(frame, op)
    ds = fk.build_dual_system(frame, constructed, op)
    assert np.max(np.abs(ds.diag)) == pytest.approx(result.value, rel=1e-9)
    path = tmp_path / "generic.json"
    save_frame_file(path, frame, op)
    for command in ("optimal-dual --measure spectral", "search --measure r1"):
        name, *flags = command.split()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([name, "--frame", str(path), *flags]) == 0


NO_NULL_BASIS = (
    "optimal-dual --measure spectral",
    "optimal-dual --measure opnorm",
    "search --measure o1",
    "search --measure r1",
    "analyze",
    "canonical-dual",
)


@pytest.mark.parametrize("system", [*fixtures.EXAMPLE_NAMES, "one-block"])
def test_cli_answers_read_no_null_basis(system, tmp_path, monkeypatch):
    # Every fixed-frame CLI answer works on n x N perturbations: with W
    # refused, each command prints what it prints with W.
    if system == "one-block":
        rng = np.random.default_rng(5)
        op = fk.build_operator(random_psd(rng, 5))
        frame = random_parseval_frame(rng, op, 50)
    else:
        frame, op = fixtures.get_example(system)
    path = str(tmp_path / "frame.json")
    save_frame_file(path, frame, op)

    def run(command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([*command.split(), "--frame", path])
        return rc, out.getvalue()

    expected = {command: run(command) for command in NO_NULL_BASIS}
    refuse_null_basis(monkeypatch)
    for command in NO_NULL_BASIS:
        assert run(command) == expected[command], command
        assert expected[command][0] == 0


def one_block_frame():
    rng = np.random.default_rng(0)
    op = fk.build_operator(random_psd(rng, 3))
    return random_parseval_frame(rng, op, 9), op


def block_frame():
    frame, op, _ = random_block_frame(np.random.default_rng(1), [(2, 4), (1, 3), (2, 5)])
    return frame, op


@pytest.mark.parametrize("command", ["optimal-dual --measure spectral", "search --measure r1"])
@pytest.mark.parametrize("system", [one_block_frame, block_frame])
def test_spectral_cli_call_builds_one_chart_and_no_gram_eigh(
    command, system, calls, monkeypatch, tmp_path
):
    # One chart, one matroid decision on the full frame, no N x N
    # eigendecomposition (the chart certifies its Gram by a Cholesky
    # factor), no LP, and one chart lift, of the component-mean diagonal:
    # the spectral search, minimum and construction share it.
    frame, op = system()
    N = frame.n_vectors
    path = tmp_path / "frame.json"
    save_frame_file(path, frame, op)
    shapes, targets = [], []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: shapes.append(a.shape) or eigh(a, *args, **kw)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a spectral CLI call ran linprog")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    lift = DualParameterization._diagonal_perturbation
    monkeypatch.setattr(
        DualParameterization, "_diagonal_perturbation",
        lambda self, target: targets.append(np.array(target)) or lift(self, target),
    )
    frames = sys.modules["framekit.frames"]
    decide, components = frames._matroid_components, []
    monkeypatch.setattr(
        frames, "_matroid_components", lambda syn: components.append(syn.shape) or decide(syn)
    )
    calls.clear()
    name, *flags = command.split()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([name, "--frame", str(path), *flags]) == 0
    assert calls["dual_parameterization"] == 1
    assert components == [(frame.dim, N)]
    assert (N, N) not in shapes
    (target,) = targets
    chart = fk.dual_parameterization(frame, op)
    assert len(chart.components) == (1 if system is one_block_frame else 3)
    diag = chart.canonical_diagonal
    for component in map(list, chart.components):
        assert np.all(target[component] == np.mean(diag[component]))
