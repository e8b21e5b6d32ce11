import itertools
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import framekit as fk
from framekit.cli import main
from framekit.io import save_frame_file
from framekit.erasures import Measure
from framekit.frames import DEFAULT_TOL
import framekit.search as search_mod
from framekit.search import _Objective, _lawson_op_norm
from conftest import (
    absolute_op_norm_polish,
    assert_value_scales,
    break_solvers,
    certificate_systems,
    chart_value,
    coefficient_space_polish,
    degenerate_frame,
    loop_then_polish,
    non_orthogonal_components,
    parseval_operator,
    random_block_frame,
    random_psd,
    random_orthonormal_rows,
    random_parseval_frame,
    reference_gradient,
    reference_subgradient,
    spectral_systems,
)

CFG = fk.SearchConfig(max_iters=500, restarts=3, seed=99)
BUDGET = fk.SearchConfig(max_iters=300, restarts=2, seed=0)


class TestObjective:
    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_subgradient_matches_per_term_reference(self, mb, kind):
        # The gradients canonical_certificate builds its KKT test from.  All
        # three Mercedes weights tie at the canonical dual (c = 0).
        # The gradients are n x N admissible perturbations; the references
        # are chart-coefficient gradients, mapped through the chart.
        frame, op = mb
        param = fk.dual_parameterization(frame, op)
        obj = _Objective(param, kind)
        rng = np.random.default_rng(4)
        points = np.vstack([np.zeros(param.dof), rng.standard_normal((20, param.dof))])
        assert np.ptp(obj.terms(param.perturbation(points[0]))[0]) <= 1e-14

        def image(g):
            return param.perturbation(g).ravel()

        for c in points:
            w, state = obj.terms(param.perturbation(c))
            grads = obj.gradients(state, np.arange(w.size))
            assert grads.shape == (frame.synthesis.size, w.size)
            G = obj.base + param.perturbation(c)
            for i in range(w.size):
                reference = image(reference_gradient(obj, G, i))
                assert np.max(np.abs(grads[:, i] - reference)) <= 1e-13
            val = float(np.max(w))
            ties = np.flatnonzero(val - w <= DEFAULT_TOL * obj.canonical_value)
            sub = grads[:, ties].mean(axis=1)
            ref_val, ref_sub = reference_subgradient(obj, c)
            assert ref_val == pytest.approx(val, rel=1e-14)
            assert np.max(np.abs(sub - image(ref_sub))) <= 1e-13
            for c2 in rng.standard_normal((10, param.dof)):
                step = image(c2 - c)
                assert chart_value(obj, c2) >= val + sub @ step - 1e-12


class TestMinimizeMeasure:
    def test_rank_deficient_example_spectral(self, ex1):
        frame, op = ex1
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.value == pytest.approx(
            fk.min_r1_fixed_frame(frame, op), abs=1e-6
        )

    def test_full_rank_example_op_norm_returns_canonical(self, ex2):
        frame, op = ex2
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        canonical = fk.canonical_k_dual(frame, op)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(result.frame.synthesis - canonical.synthesis)) <= 1e-9

    def test_onb_zero_dof(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert np.allclose(result.frame.synthesis, np.eye(3))
        assert result.value == pytest.approx(1.0, abs=1e-14)

    def test_result_is_verified_dual(self, ex1):
        frame, op = ex1
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert (
            fk.verify_k_dual(frame, result.frame, op)
            is not fk.DualKind.NOT_DUAL
        )

    def test_unverified_result_is_numerical_error(self, ex1, monkeypatch):
        import framekit.search as search_mod

        frame, op = ex1
        monkeypatch.setattr(search_mod, "Frame", lambda synthesis: frame)
        with pytest.raises(fk.NumericalError):
            fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)

    def test_requires_parseval(self):
        frame = fk.build_frame(np.eye(2))
        op = fk.build_operator(2 * np.eye(2))
        with pytest.raises(fk.NotParsevalError):
            fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)

    def test_determinism(self, ex1):
        frame, op = ex1
        a = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        b = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert a.trace == b.trace
        assert a.value == b.value
        assert np.array_equal(a.frame.synthesis, b.frame.synthesis)

    def test_bound_respect_random(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 4))
            N = int(rng.integers(n, 7))
            op = fk.build_operator(random_psd(rng, n))
            frame = random_parseval_frame(rng, op, N)
            result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
            assert result.value >= op.trace / N - 1e-9

    def test_op_norm_keeps_slsqp_point_on_status_8(self):
        # SLSQP stops with status 8 here at a point worth 0.4365755248, well
        # below the canonical value; the keep rule takes it.
        rng = np.random.default_rng(0)
        rank = 4 if rng.random() < 0.7 else int(rng.integers(1, 4))
        op = fk.build_operator(random_psd(rng, 4, rank))
        frame = random_parseval_frame(rng, op, 6)
        cfg = fk.SearchConfig(max_iters=300, restarts=2, seed=0)
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, cfg)
        assert result.value == pytest.approx(0.4365755248, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_spectral_value_scales_with_input(self, scale):
        assert_value_scales(search_value(Measure.SPECTRAL), scaling_systems(), scale)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_op_norm_value_scales_with_input(self, scale):
        rng = np.random.default_rng(3)
        op = fk.build_operator(random_psd(rng, 4))
        # At this (4,12) frame an absolute-units polish lands 95 % high at
        # both scales.
        systems = [(random_parseval_frame(rng, op, 12), op), *scaling_systems()]
        assert_value_scales(search_value(Measure.OP_NORM), systems, scale)

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_restarts_and_seed_do_not_change_the_result(self, ex1, kind):
        frame, op = ex1
        a = fk.minimize_measure(frame, op, kind, fk.SearchConfig(300, 1, 0))
        b = fk.minimize_measure(frame, op, kind, fk.SearchConfig(300, 7, 12345))
        assert a.value == b.value and a.trace == b.trace
        assert a.restart_index == b.restart_index == 0
        assert a.frame.synthesis.tobytes() == b.frame.synthesis.tobytes()

    def test_one_block_ten_by_two_hundred(self):
        rng = np.random.default_rng(11)
        op = fk.build_operator(random_psd(rng, 10))
        frame = random_parseval_frame(rng, op, 200)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, BUDGET)
        deltas = fk.connected_decomposition(frame, op).deltas
        assert result.value == pytest.approx(max(deltas), rel=1e-9, abs=0)

    def test_block_frame_accuracy(self):
        rng = np.random.default_rng(5)
        frame, op, _ = random_block_frame(rng)
        closed = fk.min_r1_fixed_frame(frame, op)
        result = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)
        assert result.value == pytest.approx(closed, abs=1e-6)


def search_value(kind):
    return lambda frame, op: fk.minimize_measure(frame, op, kind, BUDGET).value


def scaling_systems():
    """A (5,50) one-block frame, an n=12 frame of four blocks and a (4,12)
    frame of a rank-3 K."""
    rng = np.random.default_rng(3)
    op = fk.build_operator(random_psd(rng, 5))
    yield random_parseval_frame(rng, op, 50), op
    frame, op, _ = random_block_frame(rng, [(3, 6), (3, 8), (3, 10), (3, 12)])
    yield frame, op
    op = fk.build_operator(random_psd(rng, 4, rank=3))
    yield random_parseval_frame(rng, op, 12), op


def assert_bound_below_value_and_reference(frame, op):
    """The reported op-norm lower bound is at most the value and at most
    the reference search's value; returns both values."""
    result = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET)
    reference = loop_then_polish(frame, op, Measure.OP_NORM, BUDGET)
    bound = result.comparison["fixed_frame_lower_bound"]
    assert bound <= result.value and bound <= reference
    return result.value, reference



def kv_block_frame(rng, dims, sizes):
    """Parseval K-frame of blocks K_j V_j (V_j with orthonormal rows) in
    mutually orthogonal subspaces of the given dimensions, columns
    shuffled."""
    n = sum(dims)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    K, cols, start = np.zeros((n, n)), [], 0
    for dim, size in zip(dims, sizes):
        Q = basis[:, start : start + dim]
        start += dim
        Kj = Q @ random_psd(rng, dim) @ Q.T
        K += Kj
        cols.append(Kj @ Q @ random_orthonormal_rows(rng, dim, size))
    F = np.hstack(cols)[:, rng.permutation(sum(sizes))]
    return fk.Frame(F), fk.build_operator(0.5 * (K + K.T))

class TestExactSolveFirst:
    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_never_worse_than_loop_then_polish(self, kind):
        rng = np.random.default_rng(37)
        for frame, op in certificate_systems(rng, kind, 104):
            if kind is Measure.OP_NORM:
                value, reference = assert_bound_below_value_and_reference(frame, op)
            else:
                value = fk.minimize_measure(frame, op, kind, BUDGET).value
                reference = loop_then_polish(frame, op, kind, BUDGET)
            assert value <= reference * (1 + 1e-9) + 1e-15


    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_polished_point_skips_the_loop(self, ex1, kind):
        frame, op = ex1
        result = fk.minimize_measure(frame, op, kind, CFG)
        assert result.restart_index == 0
        canonical = fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op)
        measure = fk.o1 if kind is Measure.OP_NORM else fk.r1
        assert result.trace[0] == pytest.approx(measure(canonical), rel=1e-12)
        assert len(result.trace) <= 2 and result.trace[-1] == result.value

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_zero_system_skips_the_solvers(self, kind, monkeypatch):
        # A canonical value of 0 is optimal: no solver runs.
        frame, op = fk.Frame(np.zeros((2, 3))), fk.build_operator(np.zeros((2, 2)))
        break_solvers(monkeypatch)
        result = fk.minimize_measure(frame, op, kind, CFG)
        assert result.value == 0.0 and result.trace == (0.0,)
        assert not np.any(result.frame.synthesis)

    @pytest.mark.parametrize("kind", [Measure.OP_NORM, Measure.SPECTRAL])
    def test_solver_failure_is_numerical_error(self, ex1, mb, kind, monkeypatch):
        # Example-1's op-norm minimum is the weight of a coloop, so the
        # Lawson solve takes no step there: Mercedes does.
        frame, op = mb if kind is Measure.OP_NORM else ex1
        break_solvers(monkeypatch)
        message = (
            "non-finite iterate" if kind is Measure.OP_NORM
            else "missed the component-mean diagonal"
        )
        with pytest.raises(fk.NumericalError, match=message):
            fk.minimize_measure(frame, op, kind, CFG)

    def test_unreached_mean_diagonal_is_numerical_error(self, ex1, monkeypatch):
        # A chart lift that returns no shift leaves the whole miss of the
        # component-mean diagonal; the refinement stops at once and the
        # miss is far above the cut.
        frame, op = ex1
        factor = fk.DualParameterization._diagonal_factor.func

        def no_shift(self):
            null, _, embed = factor(self)
            return null, lambda r: np.zeros(self.base.synthesis.shape), embed

        monkeypatch.setattr(fk.DualParameterization, "_diagonal_factor", property(no_shift))
        with pytest.raises(fk.NumericalError, match="missed the component-mean diagonal"):
            fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG)


def nth_system(seed, count, n):
    """Draw n of ``certificate_systems(default_rng(seed), OP_NORM, count)``."""
    systems = certificate_systems(np.random.default_rng(seed), Measure.OP_NORM, count)
    return next(itertools.islice(systems, n, None))


def lawson(frame, op):
    return _lawson_op_norm(fk.dual_parameterization(frame, op))


def assert_certified(result):
    """The Lawson interval is within the stop gap and not capped."""
    assert search_mod.LAWSON_MAX_STEPS not in result.steps
    assert result.value - result.bound <= search_mod.LAWSON_GAP * result.bound


def lawson_systems():
    """One-block, block, degenerate (parallel and zero vectors, not capped)
    and rank-deficient-K frames."""
    rng = np.random.default_rng(7)
    op = fk.build_operator(random_psd(rng, 5))
    yield random_parseval_frame(rng, op, 50), op
    frame, op, _ = random_block_frame(rng, [(3, 6), (3, 8), (1, 1), (2, 4)])
    yield frame, op
    frame = fk.Frame(np.array([[1.0, 2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]]))
    yield frame, parseval_operator(frame)
    op = fk.build_operator(random_psd(rng, 4, rank=2))
    yield random_parseval_frame(rng, op, 9), op


class TestLawson:
    def test_projected_dual_is_checked_not_the_iterate(self):
        # The smallest weight ends at 8e-15 of the largest here, and the
        # unprojected iterate misses F G^T = K by 1e-10 of ||K||.  The
        # projected, exactly evaluated dual is a K-dual to rounding and
        # lands within 1e-9 of the reference.  With cond(R) near 1.2e7 the
        # bound's rounding error is about 1e-9 relative: without its margin
        # it lies above the reference and the value, and the gap printed by
        # ``search o1`` was negative.  The margin puts it below both; the
        # stop rule reads the bound without it.
        frame, op = nth_system(37, 104, 17)
        result = lawson(frame, op)
        residual = np.linalg.norm(frame.synthesis @ result.dual.T - op.matrix)
        assert residual <= 1e-13 * np.linalg.norm(op.matrix)
        reference = loop_then_polish(frame, op, Measure.OP_NORM, BUDGET)
        assert result.value <= reference * (1 + 1e-9)
        assert result.bound > result.value  # the rounding the margin covers
        assert_certified(result)
        minimized = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET)
        bound = minimized.comparison["fixed_frame_lower_bound"]
        assert bound == result.bound - result.margin
        assert minimized.value <= reference * (1 + 1e-9)
        assert bound <= reference
        gap = minimized.value - bound
        assert 0.0 <= gap <= search_mod.LAWSON_GAP * result.bound + result.margin
        assert result.margin <= 1e-8 * result.bound

    def test_reported_gap_is_not_negative(self, tmp_path, capsys):
        frame, op = nth_system(37, 104, 17)
        path = tmp_path / "draw17.json"
        save_frame_file(path, frame, op)
        assert main(["search", "--frame", str(path), "--measure", "o1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["comparisons"]["fixed_frame_lower_bound"]["gap"] >= 0.0

    @pytest.mark.parametrize("seed, count", [(101, 200), (104, 104)])
    def test_reported_bound_is_below_value_and_reference(self, seed, count):
        # The seed-37 suite is checked in test_never_worse_than_loop_then_polish.
        for frame, op in certificate_systems(np.random.default_rng(seed), Measure.OP_NORM, count):
            assert_bound_below_value_and_reference(frame, op)

    @pytest.mark.parametrize("shape", [(5, 50), (10, 200), (20, 600), "blk12", "blk20"])
    def test_margin_is_negligible_on_bench_shaped_frames(self, shape):
        # One-block frames and the block layouts of the chart-scale
        # benchmark, built the way it builds them (K V per block, V with
        # orthonormal rows): well-conditioned factors, so the margin moves
        # the bound by at most 1e-12 of it.
        rng = np.random.default_rng(19)
        if shape == "blk12":
            frame, op = kv_block_frame(rng, (3, 3, 3, 3), (6, 8, 10, 12))
        elif shape == "blk20":
            frame, op = kv_block_frame(rng, (4, 4, 4, 4, 4), (6, 8, 10, 12, 12))
        else:
            n, N = shape
            op = fk.build_operator(random_psd(rng, n))
            frame = random_parseval_frame(rng, op, N)
        result = lawson(frame, op)
        assert_certified(result)
        assert 0.0 < result.margin <= 1e-12 * result.bound

    @pytest.mark.parametrize("draw", [60, 84])
    def test_stop_gap_is_below_the_reference_tolerance(self, draw):
        # With a stop gap of 1e-9, draw 84 lands 1.8e-9 above the reference
        # of test_never_worse_than_loop_then_polish, whose tolerance is 1e-9.
        assert search_mod.LAWSON_GAP <= 1e-10
        frame, op = nth_system(37, 104, draw)
        result = lawson(frame, op)
        assert_certified(result)
        value = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET).value
        assert value <= loop_then_polish(frame, op, Measure.OP_NORM, BUDGET) * (1 + 1e-9)

    def test_update_converges_within_the_cap(self):
        # The update lam * w^2 stalls: 108 of these 200 draws hit a
        # 5,000-step cap.  The update in use caps none of them.
        for frame, op in certificate_systems(np.random.default_rng(101), Measure.OP_NORM, 200):
            param = fk.dual_parameterization(frame, op)
            if param.dof and _Objective(param, Measure.OP_NORM).canonical_value:
                assert_certified(_lawson_op_norm(param))

    @pytest.mark.parametrize("seed, count, draw", [(104, 40, 14), (101, 200, 144)])
    def test_slow_runs_close_within_the_gap(self, seed, count, draw):
        # Draw 14 of rng(104) is a (2,5) frame with two equal vectors and a
        # zero vector: the weights of the equal pair decay like 1/steps
        # while their terms stay tight, so Lawson's update alone ends 1.1e-7
        # above the reference at the step cap.  On draw 144 of rng(101),
        # where every weight is positive at the optimum, it takes 442 steps.
        # The Newton steps close both.
        frame, op = nth_system(seed, count, draw)
        param = fk.dual_parameterization(frame, op)
        obj = _Objective(param, Measure.OP_NORM)
        reference = chart_value(obj, absolute_op_norm_polish(obj, np.zeros(param.dof)))
        result = lawson(frame, op)
        assert_certified(result)
        assert max(result.steps) <= 30
        value = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET).value
        assert value <= reference * (1 + 1e-9)

    def test_failed_triangular_solve_is_numerical_error(self, mb, monkeypatch):
        # dtrtrs reports a singular R and leaves the right-hand side in
        # place; that is no lower bound, so it must not certify anything.
        monkeypatch.setattr(
            scipy.linalg.lapack, "dtrtrs", lambda a, b, *args, **kwargs: (b, 1)
        )
        with pytest.raises(fk.NumericalError, match="LAPACK info"):
            fk.minimize_measure(*mb, Measure.OP_NORM, CFG)

    def test_weak_duality(self):
        # No K-dual, random or optimal, lies below the bound.
        rng = np.random.default_rng(13)
        for frame, op in lawson_systems():
            param = fk.dual_parameterization(frame, op)
            bound = _lawson_op_norm(param).bound
            obj = _Objective(param, Measure.OP_NORM)
            scale = np.linalg.norm(param.base.synthesis)
            for c in rng.standard_normal((50, param.dof)) * scale * rng.uniform(0, 1, (50, 1)):
                dual = fk.reconstruct_dual(param, c)
                assert fk.o1(fk.build_dual_system(frame, dual, op)) >= bound * (1 - DEFAULT_TOL)
            assert obj.canonical_value >= bound * (1 - DEFAULT_TOL)

    def test_gap_on_fixtures_and_frames(self, ex1, ex2, mb):
        for frame, op in (ex1, ex2, mb, *lawson_systems()):
            result = lawson(frame, op)
            assert_certified(result)
            dual = fk.Frame(result.dual)
            assert fk.verify_k_dual(frame, dual, op) is fk.DualKind.K_DUAL_PAIR
            o1 = fk.o1(fk.build_dual_system(frame, dual, op))
            assert o1 == pytest.approx(result.value, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_bound_and_weights_follow_a_joint_scale(self, scale):
        for frame, op in lawson_systems():
            base = lawson(frame, op)
            scaled = lawson(fk.Frame(scale * frame.synthesis), fk.build_operator(scale * op.matrix))
            assert scaled.steps == base.steps
            assert scaled.bound / scale == pytest.approx(base.bound, rel=1e-12)
            np.testing.assert_allclose(scaled.weights, base.weights, rtol=1e-12)

    def test_rank_deficient_k_and_zero_vectors(self):
        rng = np.random.default_rng(17)
        op = fk.build_operator(random_psd(rng, 4, rank=2))
        syn = random_parseval_frame(rng, op, 8).synthesis
        frame = fk.Frame(np.hstack([syn[:, :3], np.zeros((4, 2)), syn[:, 3:]]))
        result = lawson(frame, op)
        assert_certified(result)
        assert not np.any(result.dual[:, 3:5])  # zero vectors keep g_i = 0
        minimized = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET)
        assert minimized.comparison["fixed_frame_lower_bound"] == result.bound - result.margin
        assert minimized.value <= result.value * (1 + DEFAULT_TOL)

    def test_zero_operator(self):
        frame, op = fk.Frame(np.zeros((2, 3))), fk.build_operator(np.zeros((2, 2)))
        result = fk.minimize_measure(frame, op, Measure.OP_NORM, CFG)
        assert result.value == 0.0
        assert result.comparison == {"fixed_frame_lower_bound": 0.0}

    def test_fast_path_never_calls_slsqp(self, ex1, ex2, mb, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SLSQP ran")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        rng = np.random.default_rng(1)
        op = fk.build_operator(random_psd(rng, 5))
        for frame, op in (ex1, ex2, mb, (random_parseval_frame(rng, op, 50), op)):
            result = fk.minimize_measure(frame, op, Measure.OP_NORM, BUDGET)
            bound = result.comparison["fixed_frame_lower_bound"]
            assert result.value >= bound * (1 - DEFAULT_TOL)
            assert result.value <= bound * (1 + 2 * search_mod.LAWSON_GAP)


class TestPolishSpectral:
    def test_matches_coefficient_space_reference(self):
        rng = np.random.default_rng(23)
        checked = 0
        for frame, op in certificate_systems(rng, Measure.SPECTRAL, 140):
            param = fk.dual_parameterization(frame, op)
            obj = _Objective(param, Measure.SPECTRAL)
            if param.dof == 0 or not np.any(param.canonical_diagonal):
                continue  # minimize_measure polishes only when dof > 0
            reference = coefficient_space_polish(obj)
            assert reference is not None
            expected = chart_value(obj, reference)
            value = obj.value(param._component_mean_perturbation)
            assert abs(value - expected) <= 1e-9 * expected
            checked += 1
        assert checked >= 100

    def test_matches_reference_at_any_scale(self):
        # Charts of frames with several matroid components, so the LP has an
        # equality row per component.  On a chart null(D) is spanned by the
        # component indicators, so the minimum-norm lift of any diagonal
        # lands on the component means, an optimum: the polish must also
        # reach the diagonal its LP returned, or it raises.  The reference
        # runs at unit scale; the polish gets F and K scaled by 10^k.
        rng = np.random.default_rng(29)
        checked = 0
        for k in range(40):
            if k % 2:
                frame, op, _ = random_block_frame(rng)
            else:
                dims = rng.integers(1, 3, size=int(rng.integers(2, 4)))
                sizes = dims + rng.integers(1, 4, size=dims.size)
                frame, op = non_orthogonal_components(rng, dims, sizes)
            obj = _Objective(fk.dual_parameterization(frame, op), Measure.SPECTRAL)
            if obj.param.dof == 0 or not np.any(obj.param.canonical_diagonal):
                continue
            expected = chart_value(obj, coefficient_space_polish(obj))
            scale = 10.0 ** rng.integers(-9, 10)
            scaled = _Objective(
                fk.dual_parameterization(
                    fk.Frame(scale * frame.synthesis), fk.build_operator(scale * op.matrix)
                ),
                Measure.SPECTRAL,
            )
            value = scaled.value(scaled.param._component_mean_perturbation)
            assert value / scale == pytest.approx(expected, rel=1e-9)
            checked += 1
        assert checked >= 30


class TestSpectralOptimum:
    @pytest.mark.parametrize("name", list(spectral_systems()))
    def test_best_dual_follows_a_permutation_of_the_frame(self, name):
        # The spectral optimum is one K-dual, not a rounding-dependent
        # vertex of an LP optimum: reordering the frame reorders it.
        frame, op = spectral_systems()[name]
        rng = np.random.default_rng(17)
        perm = rng.permutation(frame.n_vectors)
        G = fk.minimize_measure(frame, op, Measure.SPECTRAL, CFG).frame.synthesis
        moved = fk.minimize_measure(
            fk.Frame(frame.synthesis[:, perm]), op, Measure.SPECTRAL, CFG
        ).frame.synthesis
        assert np.allclose(moved, G[:, perm], rtol=0.0, atol=1e-12 * np.linalg.norm(G))


class TestMinimizeR2WithinUniform:
    def test_mercedes(self, mb):
        frame, op = mb
        result = fk.minimize_r2_within_uniform(frame, op, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.comparison["pair_r2_min"] == pytest.approx(1.0, abs=1e-12)

    def test_onb(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        result = fk.minimize_r2_within_uniform(frame, op, CFG)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_slice_respects_pair_bound(self):
        rng = np.random.default_rng(8)
        op = fk.build_operator(np.eye(2))
        frame = random_parseval_frame(rng, op, 4)
        try:
            result = fk.minimize_r2_within_uniform(frame, op, CFG)
        except fk.InfeasibleError:
            pytest.skip("no 1-uniform dual for this draw")
        bound = fk.pair_bounds(op, 4).r2_min
        assert result.value >= bound - 1e-6
        # returned dual really is 1-uniform
        ds = fk.build_dual_system(frame, result.frame, op)
        assert np.max(np.abs(ds.diag - op.trace / 4)) <= 1e-6

    def test_reports_the_winning_start(self):
        # Start 1 ends 9 % below start 0 on this draw.
        rng = np.random.default_rng(1)
        op = fk.build_operator(np.eye(3))
        frame = random_parseval_frame(rng, op, 6)
        result = fk.minimize_r2_within_uniform(frame, op, CFG)
        assert result.restart_index == int(np.argmin(result.trace)) == 1
        assert result.trace[1] < 0.95 * result.trace[0]
        assert result.value == result.trace[result.restart_index]

    def test_infeasible(self, ex1):
        # the last diagonal inner product is pinned at 1 for every dual,
        # so a constant diagonal of trace(K)/N = 3/4 is unreachable
        frame, op = ex1
        with pytest.raises(fk.InfeasibleError):
            fk.minimize_r2_within_uniform(frame, op, CFG)


class TestGridOracle:
    def test_full_rank_example(self, ex2):
        frame, op = ex2
        grid = fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)
        assert grid.value == pytest.approx(1.0, abs=1e-9)
        assert grid.num_minimizers == 1
        assert all(c == 0 for c in grid.coefficients)

    def test_zero_dof(self):
        frame = fk.build_frame(np.eye(3))
        op = fk.build_operator(np.eye(3))
        grid = fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)
        assert grid.value == pytest.approx(1.0)
        assert grid.coefficients == ()

    def test_dof_cap(self, ex1):
        frame, op = ex1  # dof = 6 > default cap 4
        with pytest.raises(fk.DofTooLargeError):
            fk.brute_force_grid_oracle(frame, op, Measure.OP_NORM, CFG)

    def test_oracle_agreement(self, ex2, mb):
        for frame, op in (ex2, mb):
            for kind in (Measure.OP_NORM, Measure.SPECTRAL):
                grid = fk.brute_force_grid_oracle(frame, op, kind, CFG)
                result = fk.minimize_measure(frame, op, kind, CFG)
                assert result.value <= grid.value + 1e-6


class TestSearchConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fk.SearchConfig(max_iters=0)
        with pytest.raises(ValueError):
            fk.SearchConfig(restarts=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            fk.SearchConfig(seed=-1)
