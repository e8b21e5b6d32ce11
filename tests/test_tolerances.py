"""One tolerance rule: every verdict and value follows a joint scaling of F
and K, and the source keeps two tolerance constants and no ``tol`` knobs.

Scaling F and K by s keeps every K-dual G, scales the cross Gram matrix,
the error measures and the weights by s, and scales the products
``alpha_ij alpha_ji`` by s^2.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import framekit as fk
from framekit import fixtures
from framekit.erasures import Measure
from conftest import (
    certificate_systems,
    complex_pair_terms,
    fixed_frame_answers,
    near_joined_components,
    random_block_frame,
    random_parseval_frame,
    random_psd,
    random_system,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "framekit"
SCALES = [1e-9, 1e-6, 1.0, 1e6]
KINDS = [Measure.OP_NORM, Measure.SPECTRAL]
# Weights of near_joined_components across the window where the matroid
# components are hard to decide (see tests/test_duals.py).
JOINED_WEIGHTS = (1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10)


def scaled(frame, op, frame_scale, op_scale=None):
    op_scale = frame_scale if op_scale is None else op_scale
    return fk.Frame(frame_scale * frame.synthesis), fk.build_operator(op_scale * op.matrix)


def canonical_system(frame, op):
    return fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)


# ---------------------------------------------------------------------------
# reproducers: each gives its scale-1 verdict or value / s at every scale


@pytest.mark.parametrize("scale", SCALES)
def test_example_1_canonical_pair_is_not_pair_optimal(scale):
    # Weights (1/2, 1/2, 1, 1) against trace(K)/N = 3/4, times s.
    ds = canonical_system(*scaled(*fixtures.example_1(), scale))
    assert not fk.is_o1_optimal_pair(ds)
    assert not fk.is_r1_optimal_pair(ds)
    assert not fk.is_r2_optimal_pair(ds)


@pytest.mark.parametrize("scale", SCALES)
def test_example_2_canonical_pair_is_one_but_not_two_uniform(scale):
    ds = canonical_system(*scaled(*fixtures.example_2(), scale))
    c, c_prime = fk.uniformity(ds)
    assert c / scale == pytest.approx(1.0, rel=1e-12)
    assert c_prime is None
    assert not fk.is_r2_optimal_pair(ds)


@pytest.mark.parametrize("scale", [*SCALES, 1e12])
def test_mercedes_self_pair_is_two_uniform(scale):
    # F times sqrt(s) and K times s keep (F, F) a self-dual pair.
    frame, op = scaled(*fixtures.mercedes(), math.sqrt(scale), scale)
    ds = fk.build_dual_system(frame, frame, op)
    c, c_prime = fk.uniformity(ds)
    assert c / scale == pytest.approx(2 / 3, rel=1e-12)
    assert c_prime / scale**2 == pytest.approx(1 / 9, rel=1e-12)
    assert fk.is_r2_optimal_pair(ds)
    assert fk.r2_special_closed_form(ds) / scale == pytest.approx(1.0, rel=1e-12)
    optimal, value = fk.two_uniform_spectral_optimality(frame, frame, op)
    assert optimal and value / scale == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-13, *SCALES])
@pytest.mark.parametrize("kind", KINDS)
def test_search_keeps_its_improvement_at_any_scale(kind, scale):
    # The exact solve improves on the canonical dual by about a quarter; an
    # absolute margin of 1e-12 discarded that at 1e-13.
    rng = np.random.default_rng(3)
    op = fk.build_operator(random_psd(rng, 3))
    frame = random_parseval_frame(rng, op, 7)
    reference = fk.minimize_measure(frame, op, kind)
    assert reference.value < 0.9 * reference.trace[0]
    result = fk.minimize_measure(*scaled(frame, op, scale), kind)
    assert len(result.trace) == 2
    assert result.value / scale == pytest.approx(reference.value, rel=1e-9)


# ---------------------------------------------------------------------------
# metamorphic: scaling keeps verdicts, permuting permutes indices


def draw_system(family, seed):
    """(frame, dual, op): a fixture, a one-block or block frame with its
    canonical dual, a norm-balanced self-dual pair, or a frame of
    :func:`near_joined_components` across JOINED_WEIGHTS with its canonical
    dual."""
    rng = np.random.default_rng(seed)
    if family == 6:
        frame, op = near_joined_components(JOINED_WEIGHTS[seed % len(JOINED_WEIGHTS)])
        return frame, fk.canonical_k_dual(frame, op), op
    if family < 3:
        frame, op = fixtures.get_example(fixtures.EXAMPLE_NAMES[family])
    elif family == 3:
        n = int(rng.integers(2, 4))
        op = fk.build_operator(random_psd(rng, n, n if rng.random() < 0.6 else n - 1))
        frame = random_parseval_frame(rng, op, int(rng.integers(n + 1, 7)))
    elif family == 4:
        frame, op, _ = random_block_frame(rng)
    else:
        op = fk.build_operator(random_psd(rng, int(rng.integers(2, 4))))
        frame = fk.construct_optimal_self_dual(op, int(rng.integers(3, 6)))
        return frame, frame, op
    return frame, fk.canonical_k_dual(frame, op), op


def numerical_or(call):
    """The value of call(), or "NumericalError" where it raises that."""
    try:
        return call()
    except fk.NumericalError:
        return "NumericalError"


def verdicts(frame, dual, op, scale):
    """Everything that must not depend on units, values divided by their
    scale; a fixed-frame spectral answer may be a NumericalError, at every
    scale alike."""
    ds = fk.build_dual_system(frame, dual, op)
    c, c_prime = fk.uniformity(ds)
    out = {
        "c": None if c is None else c / scale,
        "c_prime": None if c_prime is None else c_prime / scale**2,
        "flags": (
            fk.is_o1_optimal_pair(ds),
            fk.is_r1_optimal_pair(ds),
            fk.is_r2_optimal_pair(ds),
        ),
    }
    if fk.is_parseval_k_frame(frame, op):
        out["blocks"] = fk.connected_decomposition(frame, op).blocks
        out["min_r1"] = numerical_or(lambda: fk.min_r1_fixed_frame(frame, op) / scale)
        for kind in KINDS:
            cert = fk.canonical_certificate(frame, op, kind)
            out[f"top {kind.value}"] = fk.weight_partition(frame, op, kind).top
            out[f"verdict {kind.value}"] = cert.verdict
            out[f"search {kind.value}"] = numerical_or(
                lambda: fk.minimize_measure(frame, op, kind).value / scale
            )
    return out


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    exponent=st.floats(-6.0, 6.0),
)
def test_scaling_keeps_verdicts_and_scales_values(family, seed, exponent):
    frame, dual, op = draw_system(family, seed)
    scale = 10.0**exponent
    expected = verdicts(frame, dual, op, 1.0)
    scaled_frame, scaled_op = scaled(frame, op, scale)
    got = verdicts(scaled_frame, dual, scaled_op, scale)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9, abs=0), key
        else:
            assert got[key] == value, key


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16))
def test_permuting_the_vectors_permutes_the_indices(seed):
    rng = np.random.default_rng(seed)
    ds = random_system(rng, n_max=4, N_max=7)
    perm = rng.permutation(ds.n_vectors)
    moved = fk.build_dual_system(
        fk.Frame(ds.frame.synthesis[:, perm]), fk.Frame(ds.dual.synthesis[:, perm]), ds.op
    )
    # The argmax is the first maximal index; a tie would follow the order.
    _, _, radii = complex_pair_terms(ds.cross_gram, ds.diag)
    for w in (ds.frame.norms() * ds.dual.norms(), np.abs(ds.diag), radii):
        w = np.sort(w)[::-1]
        assume(w.size < 2 or w[0] - w[1] > 1e-9 * w[0])
    before, after = fk.build_report(ds), fk.build_report(moved)
    assert perm[after.argmax_o1] == before.argmax_o1
    assert perm[after.argmax_r1] == before.argmax_r1
    assert tuple(sorted(perm[list(after.argmax_r2)])) == before.argmax_r2
    assert (after.uniform1, after.uniform2) == (before.uniform1, before.uniform2)
    frame, op = ds.frame, ds.op
    for kind in KINDS:
        top = fk.weight_partition(frame, op, kind).top
        moved_top = fk.weight_partition(moved.frame, op, kind).top
        assert sorted(perm[list(moved_top)]) == list(top)
    blocks = fk.connected_decomposition(frame, op).blocks
    moved_blocks = fk.connected_decomposition(moved.frame, op).blocks
    assert {tuple(sorted(perm[list(b)])) for b in moved_blocks} == set(blocks)


@pytest.mark.parametrize("weight", JOINED_WEIGHTS)
def test_one_decision_follows_scale_and_order(weight):
    # The three fixed-frame spectral answers, or their NumericalError, at
    # every scale and in every order, and the chart's components are the
    # permuted ones.
    frame, op = near_joined_components(weight)
    expected = fixed_frame_answers(frame, op)
    rng = np.random.default_rng(int(-math.log10(weight) * 10))
    perm = rng.permutation(frame.n_vectors)
    moved = fk.Frame(frame.synthesis[:, perm])
    for scale in SCALES:
        got = fixed_frame_answers(*scaled(frame, op, scale))
        assert [g is None for g in got] == [e is None for e in expected]
        for g, e in zip(got, expected):
            if e is not None:
                assert g / scale == pytest.approx(e, rel=1e-9)
    assert fixed_frame_answers(moved, op) == [
        None if e is None else pytest.approx(e, rel=1e-9) for e in expected
    ]
    components = fk.dual_parameterization(moved, op).components
    assert {tuple(sorted(perm[list(c)])) for c in components} == set(
        fk.dual_parameterization(frame, op).components
    )


def family_lengths(frame, op, family):
    """``||Pi A_j||^2`` of each axis ``A_j = g_j e_j^T / ||g_j||`` (g_j the
    canonical dual's nonzero columns), Pi projecting onto the family, from
    its dense basis."""
    B = family.basis.reshape(family.dimension, -1)
    G0 = fk.canonical_k_dual(frame, op).synthesis
    eye = np.eye(frame.n_vectors)
    return np.array([
        np.sum((B @ np.outer(G0[:, j] / np.linalg.norm(G0[:, j]), eye[j]).ravel()) ** 2)
        for j in range(frame.n_vectors) if np.any(G0[:, j])
    ])


@pytest.mark.parametrize("seed", [37, 101, 104])
@pytest.mark.parametrize("kind", KINDS)
def test_certificate_follows_permutation_transport_and_scale(seed, kind):
    # Reordering the frame, transporting it (F -> Q F, K -> Q K Q^T, Q
    # orthogonal) or scaling F and K by 1e+-6 keeps the verdict, the family
    # dimension and radius.  The family direction moves with the frame,
    # except where a standard axis stands in (every A_j projects to about
    # 0) and, under a reordering, where two axes tie for the longest.  The
    # descent direction of a NOT_OPTIMAL verdict, a least-distance point, moves
    # with the frame.
    families = fallbacks = 0
    for idx, (frame, op) in enumerate(certificate_systems(np.random.default_rng(seed), kind, 200)):
        cert = fk.canonical_certificate(frame, op, kind)
        ev = cert.evidence
        rng = np.random.default_rng([seed, idx])
        perm = rng.permutation(frame.n_vectors)
        Q, _ = np.linalg.qr(rng.standard_normal((frame.dim, frame.dim)))
        maps = {
            "permutation": (fk.Frame(frame.synthesis[:, perm]), op, lambda d: d[:, perm]),
            "transport": (
                fk.Frame(Q @ frame.synthesis),
                fk.build_operator(Q @ op.matrix @ Q.T),
                lambda d: Q @ d,
            ),
            "1e6": (*scaled(frame, op, 1e6), lambda d: d),
            "1e-6": (*scaled(frame, op, 1e-6), lambda d: d),
        }
        family = cert.verdict is fk.Verdict.OPTIMAL_UNCOUNTABLE_FAMILY
        moves = cert.verdict is fk.Verdict.NOT_OPTIMAL
        tie = False
        if family:
            families += 1
            assert ev["radius"] == math.inf or ev["radius"] < 1e12  # no noise bound
            lengths = family_lengths(frame, op, fk.perturbation_family(frame, op, kind))
            moves = lengths.size and lengths.max() > fk.DEFAULT_TOL
            fallbacks += not moves
            tie = moves and np.count_nonzero(lengths >= lengths.max() - fk.DEFAULT_TOL) > 1
        for name, (moved, moved_op, move) in maps.items():
            got = fk.canonical_certificate(moved, moved_op, kind)
            assert got.verdict is cert.verdict, (idx, name)
            if family:
                assert got.evidence["family_dim"] == ev["family_dim"]
                radius = got.evidence["radius"]
                assert radius == pytest.approx(ev["radius"], rel=1e-9, abs=0), (idx, name)
            if moves and not (tie and name == "permutation"):
                d, moved_d = ev["direction"], got.evidence["direction"]
                assert np.max(np.abs(move(d) - moved_d)) <= 1e-9 * np.max(np.abs(d)), (idx, name)
    assert families >= 8 and fallbacks >= 1


# ---------------------------------------------------------------------------
# source guard: two constants, no tol parameters

ALLOWED_CONSTANTS = {"DEFAULT_TOL", "RANK_TOL"}


def tolerance_knobs(path):
    """``file:line: what`` for every parameter named ``tol`` outside
    ``build_operator`` and every module-level ``*_TOL`` other than the two
    constants."""
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            names = {p.arg for p in params if p is not None}
            name = getattr(node, "name", "<lambda>")
            if "tol" in names and name != "build_operator":
                found.append(f"{Path(path).name}:{node.lineno}: {name}(tol)")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id.endswith("_TOL")
                and target.id not in ALLOWED_CONSTANTS
            ):
                found.append(f"{Path(path).name}:{node.lineno}: {target.id}")
    return found


def test_source_has_no_tolerance_knobs():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in tolerance_knobs(path)]
    assert found == []


def test_scan_catches_planted_knobs(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "WEIGHT_TOL = 1e-8\n"
        "DEFAULT_TOL = 1e-8\n"
        "def build_operator(matrix, tol=1e-10):\n"
        "    return matrix\n"
        "class C:\n"
        "    def method(self, x, *, tol=1e-8):\n"
        "        return x\n"
        "f = lambda x, tol: x\n"
    )
    assert tolerance_knobs(planted) == [
        "planted.py:6: method(tol)",
        "planted.py:8: <lambda>(tol)",
        "planted.py:1: WEIGHT_TOL",
    ]


def test_tol_keywords_are_gone(ex1):
    frame, op = ex1
    ds = canonical_system(frame, op)
    with pytest.raises(TypeError):
        fk.uniformity(ds, tol=1e-6)
    with pytest.raises(TypeError):
        fk.is_parseval_k_frame(frame, op, tol=1e-6)
    assert fk.build_operator(op.matrix, tol=1e-6).rank == 2
